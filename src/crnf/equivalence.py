"""Equivalence decisions for tube graphs v = F(x) and for rigid
hypersurfaces in normal form.

A tube is carried to a tube by maps z* = az + ibw, w* = cw, which act on
the graph as G(ax - bF(x)) = cF(x).  The decision procedure follows the
structure of that composition: scale both leading coefficients to one,
remove the x^(2k-1) coefficient of each side with a shift z* = z + ihw,
and compare what is left under the one-parameter dilation group.  The
dilation exponent can force an irrational delta; those are returned as
exact radical records and every consistency check stays rational.
"""

from fractions import Fraction
from math import gcd

from .errors import (
    InternalError,
    NotRigidError,
    StructuralError,
    TruncationError,
    UnsupportedTypeError,
)
from .hypersurface import Hypersurface
from .normalize import NormalFormKind, check
from .record import Record
from .series import Frame, GaussRat, RealSeries, _PowerProducts, _shifted
from .transform import FormalMap, LinearFactor, apply_linear_series, pushforward_series


def _int_nth_root(n, r):
    """Exact integer r-th root of n >= 1, or None.  Integer Newton."""
    if n == 1 or r == 1:
        return n
    x = 1 << ((n.bit_length() + r - 1) // r + 1)
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            break
        x = y
    return x if x ** r == n else None


def _perfect_root(q, r):
    """Exact rational r-th root of q > 0, or None."""
    if r == 1:
        return q
    num = _int_nth_root(q.numerator, r)
    if num is None:
        return None
    den = _int_nth_root(q.denominator, r)
    if den is None:
        return None
    return Fraction(num, den)


class RadicalReal(Record):
    """The real number sign * base^(1/root_index), kept exact.

    Canonical: base > 0 and not a perfect p-th power for any prime p
    dividing root_index, root_index >= 2, sign in {1, -1}.  Build through
    make(), which collapses to a plain Fraction when the root is exact.
    """

    __slots__ = ("base", "root_index", "sign")

    def __post_init__(self):
        if self.base <= 0 or self.root_index < 2 or self.sign not in (1, -1):
            raise StructuralError("invalid radical record")

    @staticmethod
    def make(base, root_index, sign):
        base = Fraction(base)
        for dd in range(root_index, 0, -1):
            if root_index % dd:
                continue
            root = _perfect_root(base, dd)
            if root is not None:
                if root_index == dd:
                    return root if sign > 0 else -root
                return RadicalReal(root, root_index // dd, sign)
        raise AssertionError("unreachable: dd = 1 always divides")

    def pow_int(self, n):
        """Integer power n >= 1, collapsing to a Fraction when exact."""
        g = gcd(n, self.root_index)
        s = self.sign if n % 2 else 1
        return RadicalReal.make(self.base ** (n // g), self.root_index // g, s)

    def times_rat(self, q):
        """Product with a rational, folded back into one radical."""
        q = Fraction(q)
        if q == 0:
            return Fraction(0)
        s = self.sign if q > 0 else -self.sign
        return RadicalReal.make(abs(q) ** self.root_index * self.base,
                                self.root_index, s)

    def __repr__(self):
        s = "" if self.sign > 0 else "-"
        return f"{s}({self.base})^(1/{self.root_index})"


class TubeWitness(Record):
    """Parameters of a verified map z* = az + ibw, w* = cw with
    G(ax - bF(x)) = cF(x) through weight N.

    When the dilation is irrational, a and possibly c are radical
    records; b is then reported as None together with b_parts = (p, q)
    meaning b = p*delta + q*delta^k exactly.  sign_ambiguous marks that
    -delta works equally well (all matched exponents were even).
    factors are the five composition pieces (c1, h1, delta, h2, c2):
    leading scalings, the two shift parameters, and the dilation.
    """

    __slots__ = ("a", "b", "c", "b_parts", "sign_ambiguous", "factors", "N")

    def __post_init__(self):
        if self.a == 0 or self.c == 0:
            raise StructuralError("witness needs a != 0 and c != 0")


def _univariate(S, name):
    out = {}
    for (j, l, m), cval in S.coeffs.items():
        if l or m:
            raise StructuralError(
                f"{name} depends on y or u: not a tube graph")
        out[j] = cval
    if not out:
        raise StructuralError(f"{name} is zero: no finite type")
    return out


def _tube_normal_form(u, k, N):
    """Scale the leading coefficient to one and remove the x^(2k-1)
    term with the shift z* = z + ihw.  Returns (tail beyond x^k, h)."""
    lead = u[k]
    u = {j: v / lead for j, v in u.items()}
    h = -u.get(2 * k - 1, Fraction(0)) / k
    if h:
        S = RealSeries(k, N, {(j, 0, 0): v for j, v in u.items()})
        T = FormalMap.from_parts(k, N, {(0, 1): GaussRat(0, h)}, {})
        img = pushforward_series(S, T)
        u = {}
        for (j, l, m), v in img.coeffs.items():
            if l or m:
                raise InternalError("shift left the tube family")
            u[j] = v
        if 2 * k - 1 in u:
            raise InternalError("shift missed its target")
    return {j: v for j, v in u.items() if j > k}, h


def _match_power_ratios(pairs):
    """Find a real delta with delta^e = t for every (e, t) given, e >= 1.

    The magnitude comes from the smallest exponent, reduced to the
    smallest possible root index; every other pair is then checked by the
    rational identities sign(t) = sign(delta)^e and |t|^r = q^e where
    |delta| = q^(1/r).  Returns (delta, sign_ambiguous) or None.
    """
    pairs = sorted(pairs)
    e0, t0 = pairs[0]
    mag = abs(t0)
    for dd in range(e0, 0, -1):
        if e0 % dd:
            continue
        root = _perfect_root(mag, dd)
        if root is not None:
            q, r = root, e0 // dd
            break
    odd = [t for e, t in pairs if e % 2]
    if odd:
        sign = 1 if odd[0] > 0 else -1
        ambiguous = False
    else:
        sign = 1
        ambiguous = True
    for e, t in pairs:
        if (t > 0) != (sign ** e > 0):
            return None
        if abs(t) ** r != q ** e:
            return None
    delta = sign * q if r == 1 else RadicalReal(q, r, sign)
    return delta, ambiguous


def _witness_holds(uF, uG, a, b, c, N):
    """True when G(ax - bF(x)) = cF(x) through weight N, for univariate
    uF, uG ({degree: coefficient}, both of minimum degree k >= 3 and
    2k <= N).  The left side is G_a(x + P) with G_a(x) = G(ax) and
    P = -(b/a) F, an increment of x that gains k - 1 >= 2."""
    k = min(uF)

    def tube(u):
        return RealSeries(k, N, {(j, 0, 0): v for j, v in u.items() if j <= N})

    Ga = tube({j: v * a ** j for j, v in uG.items()})
    P = tube({j: -b / a * v for j, v in uF.items()})
    # G_a stands for no particular weight (unit 0), P for an increment of x
    fr = Frame(k, Ga, P)
    pp = _PowerProducts(((fr.real(P, 1),), (), ()), k)
    (lhs,) = _shifted((fr.real(Ga, 0),), k, pp, N)
    return fr.real_out(lhs, 0, N) == tube({j: c * v for j, v in uF.items()})


def tube_equivalent(F: RealSeries, G: RealSeries):
    """Witness for a map z* = az + ibw, w* = cw carrying the graph
    v = F(x) onto v = G(x) through weight min(F.N, G.N), or None.

    Both series must be univariate in x.  Differing minimum degrees mean
    inequivalent.  Rational witnesses are re-verified by substituting
    into G(ax - bF(x)) = cF(x); irrational dilations are verified through
    the rational power identities of the matching step.
    """
    uF = _univariate(F, "F")
    uG = _univariate(G, "G")
    N = min(F.N, G.N)
    uF = {j: v for j, v in uF.items() if j <= N}
    uG = {j: v for j, v in uG.items() if j <= N}
    if not uF or not uG:
        raise StructuralError("series vanish below the truncation weight")
    k = min(uF)
    if k != min(uG):
        return None
    if k < 3:
        raise UnsupportedTypeError(f"type {k} below 3")
    if N < 2 * k:
        raise TruncationError(f"N = {N} below 2k = {2 * k}")
    c1, c2 = uF[k], uG[k]
    tail_f, h1 = _tube_normal_form(uF, k, N)
    tail_g, h2 = _tube_normal_form(uG, k, N)
    if set(tail_f) != set(tail_g):
        return None
    if tail_f:
        matched = _match_power_ratios(
            [(j - k, tail_f[j] / tail_g[j]) for j in tail_f])
        if matched is None:
            return None
        delta, ambiguous = matched
    else:
        delta, ambiguous = Fraction(1), True
    b_parts = (h1 / c1, -h2 / c1)
    if isinstance(delta, Fraction):
        a = delta
        b = (delta * h1 - delta ** k * h2) / c1
        c = c2 * delta ** k / c1
        if not _witness_holds(uF, uG, a, b, c, N):
            raise InternalError("matched dilation fails the substitution identity")
    else:
        a = delta
        dk = delta.pow_int(k)
        c = dk * (c2 / c1) if isinstance(dk, Fraction) \
            else dk.times_rat(c2 / c1)
        b = Fraction(0) if h1 == 0 and h2 == 0 else None
    return TubeWitness(a, b, c, b_parts, ambiguous,
                       (c1, h1, delta, h2, c2), N)


def rigid_equivalence_reduce(H1: Hypersurface, H2: Hypersurface):
    """Dilation z* = dz, w* = d^k w matching two nontubular rigid
    hypersurfaces in rigid normal form, coefficientwise through the
    smaller truncation weight.

    Returns LinearFactor(delta, 0) when the dilation is rational, a
    RadicalReal when it exists but is irrational, and None when no real
    dilation matches.  When only even exponents constrain delta, the
    positive root is returned (the negative works equally well).  A
    rational dilation is checked to carry H1 to H2 through that weight
    before it is returned; InternalError if it does not.
    """
    for name, H in (("H1", H1), ("H2", H2)):
        if not H.tube_form:
            raise StructuralError(f"{name}: leading term must be x^k")
        if H.F.depends_on_u():
            raise NotRigidError(f"{name} depends on u: not rigid")
        if not H.F.depends_on_y():
            raise StructuralError(
                f"{name} is a tube graph: use tube_equivalent")
        bad = check(H, NormalFormKind.rigid_t())
        if bad:
            raise StructuralError(
                f"{name} is not in rigid normal form: "
                f"{bad[0].family} at {bad[0].key}")
    if H1.k != H2.k:
        return None
    k = H1.k
    N = min(H1.N, H2.N)
    t1 = {(j, l): v for (j, l, m), v in H1.tail().truncate(N).coeffs.items()}
    t2 = {(j, l): v for (j, l, m), v in H2.tail().truncate(N).coeffs.items()}
    if set(t1) != set(t2):
        return None
    matched = _match_power_ratios(
        [(key[0] + key[1] - k, t1[key] / t2[key]) for key in t1])
    if matched is None:
        return None
    delta, _ambiguous = matched
    if isinstance(delta, Fraction):
        L = LinearFactor(delta, 0)
        if apply_linear_series(H1.F.truncate(N), L) != H2.F.truncate(N):
            raise InternalError("matched dilation does not carry H1 to H2")
        return L
    return delta
