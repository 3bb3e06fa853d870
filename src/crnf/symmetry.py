"""Linear symmetries of graphs v = F: verification and classification.

In normal coordinates every local automorphism acts diagonally,
z* = delta exp(i theta) z, w* = delta^k w, so the symmetry group is
decided coefficient by coefficient.  A monomial z^j zbar^l u^m picks up
the factor delta^(k-j-l-km) exp(i(l-j) theta); the map fixes the graph
iff that factor is 1 on every nonzero coefficient.  Roots of unity are
never evaluated numerically: for theta = 2 pi p/n the angular factor is
+1 or -1 or off the real line depending only on (l-j)p mod n, which
keeps the whole test inside rational arithmetic.
"""

from fractions import Fraction
from functools import reduce
from math import gcd

from .errors import InternalError, StructuralError
from .hypersurface import Hypersurface, essential_type
from .normalize import NormalFormKind, check
from .record import Record
from .series import rat
from .transform import LinearFactor, apply_linear_series


class RootRotation(Record):
    """z* = delta exp(2 pi i power/order) z, w* = delta^k w."""

    __slots__ = ("order", "power", "delta")
    _defaults = {"power": 1, "delta": Fraction(1)}

    def __post_init__(self):
        if not isinstance(self.order, int) or self.order < 1:
            raise StructuralError("rotation order must be a positive integer")
        if not isinstance(self.power, int):
            raise StructuralError("rotation power must be an integer")
        object.__setattr__(self, "delta", rat(self.delta))
        if self.delta == 0:
            raise StructuralError("delta must be nonzero")


def is_linear_automorphism(H: Hypersurface, L) -> bool:
    """Exact test that the linear map L fixes the graph v = F through
    weight N.

    A LinearFactor (real dilation and quarter turn) is tested through
    the real-basis coefficient transform; a RootRotation through
    exponent arithmetic on the complex basis.  Both paths are exact.
    """
    if isinstance(L, LinearFactor):
        return apply_linear_series(H.F, L) == H.F
    if not isinstance(L, RootRotation):
        raise StructuralError(f"not a linear map record: {L!r}")
    k = H.k
    delta, order, power = L.delta, L.order, L.power
    for (j, l, m) in H.complex_form().coeffs:
        e = k - j - l - k * m
        q = ((l - j) * power) % order
        if q == 0:
            if delta ** e != 1:
                return False
        elif 2 * q == order:
            if delta ** e != -1:
                return False
        else:
            # the angular factor is off the real axis, so no real
            # delta power can cancel it
            return False
    return True


def rotation_order(H: Hypersurface):
    """Order of the rotation group z* = exp(2 pi i/m) z, w* = w fixing
    the graph: None when every rotation works (all monomials have
    j = l), else gcd of the exponent gaps |j - l|.  The claimed
    generator is re-verified before being returned."""
    C = H.complex_form()
    if not C.coeffs:
        raise StructuralError("zero series has no rotation order")
    diffs = {abs(j - l) for (j, l, _) in C.coeffs if j != l}
    if not diffs:
        return None
    g = reduce(gcd, diffs)
    if not is_linear_automorphism(H, RootRotation(g, 1)):
        raise InternalError("rotation generator failed re-verification")
    return g


_AUT_TAGS = ("Dim3", "RplusZ", "Circle", "Zm")


class AutClass(Record):
    """Shape of the group of local symmetries fixing the origin.

    tag is one of: Dim3 (three-dimensional group; the graph is exactly
    v = |z|^k), RplusZ (all real dilations times a cyclic group of
    order m), Circle (the full rotation group), Zm (cyclic of order m).
    evidence holds generators, each re-verified exactly before the
    record is built.  conditional is True when the input could not be
    confirmed against the matching set of coordinate conditions; the
    tag then describes the group only if the input really is in normal
    coordinates.
    """

    __slots__ = ("tag", "m", "evidence", "conditional")
    _defaults = {"m": None, "evidence": (), "conditional": False}

    def __post_init__(self):
        if self.tag not in _AUT_TAGS:
            raise StructuralError(f"unknown symmetry class tag {self.tag!r}")
        if self.tag in ("RplusZ", "Zm"):
            if not isinstance(self.m, int) or self.m < 1:
                raise StructuralError(f"{self.tag} needs a cyclic order m >= 1")
        elif self.m is not None:
            raise StructuralError(f"{self.tag} carries no cyclic order")


def _verified(H, gens):
    for L in gens:
        if not is_linear_automorphism(H, L):
            raise InternalError(f"claimed generator failed verification: {L!r}")
    return tuple(gens)


def _coordinate_conditional(H):
    """True when H fails, or cannot be matched to, the coordinate
    condition family for its shape: x^k leadings are tested against the
    transversal conditions, mixed-only leadings against the complex
    family for their essential type."""
    if H.tube_form:
        return bool(check(H, NormalFormKind.t_normal()))
    lead = H.leading_complex()
    if any(j == 0 or l == 0 for (j, l, _) in lead.coeffs):
        # a pure z^k / zbar^k part is removable and is kept out of the
        # mixed-only leading shape, so this leading is not normalized
        return True
    e = essential_type(lead)
    if 2 * e < H.k:
        return bool(check(H, NormalFormKind.ko1_nontube()))
    if H.k % 2 == 0:
        if lead.coeffs.get((e, e, 0)) != 1:
            return True
        return bool(check(H, NormalFormKind.ko1_half_type()))
    return True


def classify_aut(H: Hypersurface) -> AutClass:
    """Decide which of the four symmetry classes the graph belongs to
    and return it with verified generators.

    The decision is by exact coefficient tests: the three-dimensional
    class requires F = |z|^k exactly through weight N; the dilation
    class requires a weight-homogeneous F (zero tail) of essential type
    below k/2; the circle class requires every complex monomial to have
    j = l; everything else is finite cyclic.  For odd k the reflection
    z* = -z, w* = -w is tested separately: when it fixes the graph it
    doubles the cyclic order, since it acts on w in a way no rotation
    can."""
    k = H.k
    conditional = _coordinate_conditional(H)
    C = H.complex_form()
    if k % 2 == 0 and set(C.coeffs) == {(k // 2, k // 2, 0)} \
            and C.coeffs[(k // 2, k // 2, 0)] == 1:
        ev = (LinearFactor(Fraction(2)), LinearFactor(Fraction(-1)),
              RootRotation(3, 1), RootRotation(8, 1))
        return AutClass("Dim3", None, _verified(H, ev), conditional)
    if H.tail().is_zero():
        e = essential_type(H.leading_complex())
        if 2 * e < k:
            g = rotation_order(H)
            ev = [LinearFactor(Fraction(2))]
            if k % 2 == 1:
                ev.append(LinearFactor(Fraction(-1)))
            if g > 1:
                ev.append(RootRotation(g, 1))
            m = g if k % 2 == 0 else 2 * g
            return AutClass("RplusZ", m, _verified(H, tuple(ev)), conditional)
    g = rotation_order(H)
    if g is None:
        ev = (RootRotation(4, 1), RootRotation(3, 1))
        return AutClass("Circle", None, _verified(H, ev), conditional)
    m = g
    ev = []
    if g > 1:
        ev.append(RootRotation(g, 1))
    if k % 2 == 1:
        refl = LinearFactor(Fraction(-1))
        if is_linear_automorphism(H, refl):
            m = 2 * g
            ev.append(refl)
    return AutClass("Zm", m, _verified(H, tuple(ev)), conditional)
