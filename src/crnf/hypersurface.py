"""Hypersurface graphs v = F(x, y, u) and their weight-k leading models.

A hypersurface of finite type k is stored through its graph function F as a
RealSeries.  Two levels of normalization are distinguished:

  * strict tube form: the weight-k part of F is exactly x^k (validate);
  * normal coordinates: the weight-k part is any nonzero real homogeneous
    polynomial with a nonzero mixed part (normal_coordinates), as used for
    model classification.

The weight-k part ("the model") carries the numerical invariants: the
essential type e, the rotation invariant L, and for tube models the ratio
rho and scale lambda with mixed part = lambda * (alpha z + conj(alpha) zbar)^k.
"""

from fractions import Fraction
from functools import reduce
from math import comb as binom, gcd

from .errors import (
    InternalError,
    NotExactlyRepresentableError,
    NotTubeModelError,
    StructuralError,
)
from .record import Record
from .series import (
    ComplexSeries,
    Frame,
    GaussRat,
    HoloSeries,
    RealSeries,
    _turn_real,
    restrict_to_M,
    scale_w,
    shift_u,
    to_complex_basis,
)


class Hypersurface:
    """Graph v = F(x, y, u) of finite type k, truncated at weight N.

    F in the z, zbar basis (complex_form) and its weight-k part
    (leading_complex) are each converted at most once and then kept.  A
    caller that already holds F in that basis hands it over as _complex,
    so it is never converted back.  The kept forms are derived from F, so
    equality, pickling and copying ignore them.
    """

    __slots__ = ("k", "N", "F", "tube_form", "_complex", "_lead_complex")

    def __init__(self, F: RealSeries, _strict=True, _complex=None):
        k, N = F.k, F.N
        mw = F.min_weight()
        if mw is None:
            raise StructuralError("F is zero: not a finite type hypersurface")
        if mw < k:
            raise StructuralError(
                f"F contains a term of weight {mw} < k = {k}")
        lead = F.weight_part(k)
        clead = None
        if _strict:
            xk = RealSeries.monomial(k, N, k, 0, 0)
            if lead != xk:
                raise StructuralError(
                    "weight-k part of F must be exactly x^k; got extra or "
                    "missing weight-k terms")
            tube_form = True
        else:
            if lead.is_zero():
                raise StructuralError(
                    f"F has no weight-k part (k = {k}): wrong type")
            if lead.depends_on_u():
                raise StructuralError(
                    "weight-k part contains u: not in normal coordinates")
            clead = (to_complex_basis(lead) if _complex is None
                     else _complex.weight_part(k))
            if not any(0 < j < k for (j, l, m) in clead.coeffs):
                raise NotTubeModelError(
                    "weight-k part has no mixed term: infinite type")
            tube_form = lead == RealSeries.monomial(k, N, k, 0, 0)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "tube_form", tube_form)
        object.__setattr__(self, "_complex", _complex)
        object.__setattr__(self, "_lead_complex", clead)

    def __setattr__(self, name, value):
        raise AttributeError("Hypersurface is immutable; build a new one")

    def __reduce__(self):
        # a tube_form graph passes the strict check, any other the general one
        return Hypersurface, (self.F, self.tube_form)

    @classmethod
    def validate(cls, F: RealSeries, k: int) -> "Hypersurface":
        """Strict constructor: weight-k part must be exactly x^k."""
        if F.k != k:
            raise StructuralError(f"series type tag {F.k} != requested k = {k}")
        return cls(F, _strict=True)

    @classmethod
    def normal_coordinates(cls, F: RealSeries, k: int,
                           _complex=None) -> "Hypersurface":
        """General constructor: any weight-k model with a mixed term."""
        if F.k != k:
            raise StructuralError(f"series type tag {F.k} != requested k = {k}")
        return cls(F, _strict=False, _complex=_complex)

    def leading(self) -> RealSeries:
        return self.F.weight_part(self.k)

    def leading_complex(self) -> ComplexSeries:
        lead = self._lead_complex
        if lead is None:
            C = self._complex
            lead = (to_complex_basis(self.leading()) if C is None
                    else C.weight_part(self.k))
            object.__setattr__(self, "_lead_complex", lead)
        return lead

    def tail(self) -> RealSeries:
        """F minus its weight-k model (all terms of weight > k)."""
        return self.F - self.leading()

    def complex_form(self) -> ComplexSeries:
        C = self._complex
        if C is None:
            C = to_complex_basis(self.F)
            object.__setattr__(self, "_complex", C)
        return C

    def __eq__(self, other):
        if not isinstance(other, Hypersurface):
            return NotImplemented
        return self.k == other.k and self.N == other.N and self.F == other.F

    __hash__ = None

    def __repr__(self):
        return (f"Hypersurface(k={self.k}, N={self.N}, "
                f"{len(self.F.coeffs)} terms, tube_form={self.tube_form})")


class ModelInfo(Record):
    """Invariants of a weight-k model (the leading part in the z, zbar basis)."""

    __slots__ = (
        "k",            # int: the type
        "e",            # int: essential type, least j >= 1 with a_j != 0
        "L",            # int | None: gcd{k - 2m : a_m != 0, m < k/2}; None iff 2e = k
        "is_tube",      # bool: mixed part equals lambda*(alpha z + conj zbar)^k
        "rho",          # GaussRat | None: alpha^2, the tube ratio invariant
        "alpha_pow",    # int | None: t with alpha = i^t when rho in {1, -1}, else None
        "lam",          # Fraction | None: real scale lambda, set when alpha_pow is set
    )


def _model_coeffs(leading: ComplexSeries):
    k = leading.k
    if leading.is_zero():
        raise NotTubeModelError("model is zero: infinite type")
    for (j, l, m) in leading.coeffs:
        if m != 0 or j + l != k:
            raise StructuralError(
                f"model must be homogeneous of weight k = {k} with no u "
                f"dependence; found monomial {(j, l, m)}")
    if not leading.is_real():
        raise StructuralError("model is not a real polynomial")
    return {j: leading.coeff(j, k - j, 0) for j in range(k + 1)}


def _model_invariants(leading: ComplexSeries):
    """(a, mixed, e, L) of a model: its coefficients a_j on z^j zbar^(k-j),
    the mixed indices j (0 < j < k, a_j != 0) in rising order, the essential
    type e and the invariant L, None when 2e >= k."""
    a = _model_coeffs(leading)
    k = leading.k
    mixed = [j for j in range(1, k) if a[j]]
    if not mixed:
        raise NotTubeModelError("model has no mixed term: infinite type")
    e = mixed[0]
    L = None
    if 2 * e < k:
        L = reduce(gcd, [k - 2 * m for m in range(1, (k + 1) // 2) if a[m]])
    return a, mixed, e, L


def essential_type(leading: ComplexSeries) -> int:
    """Least j >= 1 with a nonzero mixed coefficient a_j on z^j zbar^(k-j)."""
    return _model_invariants(leading)[2]


def invariant_L(leading: ComplexSeries) -> int:
    """gcd of {k - 2m : a_m != 0, 1 <= m < k/2}; defined only when e < k/2."""
    _, _, e, L = _model_invariants(leading)
    if L is None:
        raise StructuralError(
            f"L is undefined at essential type e = k/2 (e = {e}, k = {leading.k})")
    return L


def detect_tube_model(leading: ComplexSeries) -> ModelInfo:
    """Decide whether the mixed part of the model is that of a tube, i.e.
    lambda * (alpha z + conj(alpha) zbar)^k with lambda real and |alpha| = 1.

    The decision is exact: all mixed a_j must be nonzero, the ratios
    a_{j+1} C(k,j) / (a_j C(k,j+1)) must agree for j = 1..k-2, and their
    common value rho must satisfy |rho|^2 = 1.  Pure terms (z^k, zbar^k) are
    ignored here; they are removable by a harmonic shift of w.
    """
    a, mixed, e, L = _model_invariants(leading)
    k = leading.k

    is_tube = len(mixed) == k - 1
    rho = None
    alpha_pow = None
    lam = None
    if is_tube:
        # k >= 3 so there is at least one ratio
        ratios = [(a[j + 1] * binom(k, j)) / (a[j] * binom(k, j + 1))
                  for j in range(1, k - 1)]
        rho0 = ratios[0]
        if any(r != rho0 for r in ratios) or rho0.abs2() != 1:
            is_tube = False
        else:
            rho = rho0
            if rho == GaussRat(1):
                alpha_pow = 0
            elif rho == GaussRat(-1):
                alpha_pow = 1
            if alpha_pow is not None:
                # lambda = a_1 alpha^(k-2) / C(k,1), real by the ratio relations
                lam_g = a[1].times_i_power(alpha_pow * (k - 2)) / Fraction(k)
                if not lam_g.is_real() or lam_g.re == 0:
                    raise InternalError(f"tube scale {lam_g} is not a nonzero real")
                lam = lam_g.re
    return ModelInfo(k, e, L, is_tube, rho, alpha_pow, lam)


class PrenormalizationRecord(Record):
    """The exact change of coordinates applied by prenormalize_tube:
    first z -> i^rot z, then w -> w_scale * w, then w -> w + harmonic * z^k."""

    __slots__ = ("rot", "w_scale", "harmonic")


def prenormalize_tube(F: RealSeries):
    """Bring a hypersurface with a tube model into strict tube form.

    Input: the full graph series F (any real basis, min weight >= k) whose
    weight-k mixed part is a tube model with ratio rho in {1, -1}.  A
    quarter-turn rotation, a real w-scaling and a harmonic shift of w then
    make the weight-k part exactly x^k.  Returns (Hypersurface, record).

    For rho = +-i the normalizing rotation would be an 8th root of unity,
    which has no Gaussian rational representation; that raises
    NotExactlyRepresentableError carrying the failed condition.
    """
    k, N = F.k, F.N
    mw = F.min_weight()
    if mw is None or mw < k:
        raise StructuralError(f"F must have min weight k = {k}, got {mw}")
    info = detect_tube_model(to_complex_basis(F.weight_part(k)))
    if not info.is_tube:
        raise NotTubeModelError(
            "weight-k mixed part is not a tube model (ratio test failed)")
    if info.alpha_pow is None:
        raise NotExactlyRepresentableError(
            f"tube ratio rho = {info.rho} needs a rotation alpha with "
            f"alpha^2 = rho, which is not a Gaussian rational quarter-turn",
            condition=f"alpha^2 = {info.rho}")
    rot = info.alpha_pow
    lam = info.lam
    if lam < 0 and k % 2 == 1:
        # flip alpha: odd k changes the sign of every mixed coefficient
        rot = (rot + 2) % 4
        lam = -lam

    # step 1: rotation z -> i^rot z, a quarter turn per step of the frame
    # values (c_{jlm} *= i^(rot(l-j)) in the z, zbar basis)
    fr = Frame(k, F)
    G = fr.real_out(_turn_real(fr.real(F, k), rot), k, N)

    # step 2: w-scaling making the mixed part 2^-k C(k,j); negative scale
    # allowed for even k (odd k was fixed by the alpha flip above)
    w_scale = Fraction(1, 2 ** k) / lam
    G = scale_w(G, w_scale)

    # step 3: harmonic shift w -> w + c z^k moving the pure coefficient to 2^-k
    p = to_complex_basis(G.weight_part(k)).coeff(k, 0, 0)
    c_h = (GaussRat(Fraction(1, 2 ** k)) - p) * GaussRat(0, 2)
    if c_h:
        # v gains Im(c z^k) while u must be read at u - Re(c z^k)
        re_s, im_s = restrict_to_M(HoloSeries.monomial(k, N, k, 0, c_h), G)
        G = shift_u(G, -re_s) + im_s

    H = Hypersurface.validate(G, k)
    if essential_type(H.leading_complex()) != 1:
        raise InternalError("prenormalization left a model of essential type != 1")
    record = PrenormalizationRecord(rot=rot, w_scale=w_scale, harmonic=c_h)
    return H, record
