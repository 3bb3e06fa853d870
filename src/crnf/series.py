"""Exact truncated power series in the weighted variables (x, y, u).

Weights: wt(x) = wt(y) = 1 and wt(u) = k, where k >= 3 is the type of the
hypersurface the series describes.  Every series carries its truncation
weight N and stores only monomials of weight <= N, sparsely, as a dict
keyed by exponent tuples.  No floats enter any computation.

One immutable core type holds the sparse data and everything that does not
depend on the coefficient ring: validation, sums, weight parts,
truncation and the canonical order (weight, then key).  The last exponent
of a key is that of u (or w) and every other has weight 1, so

    weight(key) = sum(key) + (k - 1) key[-1]

covers both key shapes:
    RealSeries / ComplexSeries: (j, l, m)  for x^j y^l u^m  (or z^j zbar^l u^m)
    HoloSeries:                 (j, m)     for z^j w^m

A subclass fixes the coefficient ring: fractions.Fraction for RealSeries,
GaussRat (a pair of Fractions) for HoloSeries and ComplexSeries.  Beyond
that, RealSeries adds the tests depends_on_u / depends_on_y, and
ComplexSeries the reality test is_real.  Series have no product of their
own: products, the restriction to a graph and substitutions share one
kernel, on Python ints in the integer frame of their inputs (Frame), and
convert back once.  A frame value is a dict keyed by one int per monomial,
(w << 2S) | (j << S) | l for x^j y^l u^m of weight w (_key), so a product
of monomials is a sum of keys and ascending keys are in weight order; a
frame takes N <= FRAME_MAX_N = 2^S - 1.  The public series keep their tuple
keys.  The basis conversions run on ints too, over the lcm of their
input's denominators, with a cached integer binomial table.  The kernel,
_substitute, does every binomial Taylor substitution
h(x + b1, y + b2, u + b3) over power products that only _PowerProducts
forms, grouping the terms of h by Taylor order so that each power product
is multiplied in once; _shifted evaluates one, the restriction
h(x + iy, u + iF) among them, and _unshift solves one weight by weight (the
crnf.transform docstring names every consumer and unit).

Zero coefficients are dropped on construction and after every operation,
so equality of series is plain structural equality of (k, N, coeffs).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import comb as binom, lcm
from operator import add, itemgetter

from .errors import InternalError, StructuralError, TruncationError, UnsupportedTypeError

Rat = Fraction

RAT_ZERO = Fraction(0)


def rat(p, q=1) -> Fraction:
    return Fraction(p, q)


class GaussRat:
    """Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # a Fraction is immutable, so one given is kept, not copied
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    def __reduce__(self):
        return GaussRat, (self.re, self.im)

    @staticmethod
    def of(x) -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        return GaussRat(x)

    def __add__(self, other):
        o = GaussRat.of(other)
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussRat.of(other)
        return GaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussRat.of(other) - self

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        o = GaussRat.of(other)
        return GaussRat(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussRat.of(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return GaussRat((self.re * o.re + self.im * o.im) / n,
                        (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        return GaussRat.of(other) / self

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def times_i_power(self, t: int) -> "GaussRat":
        t &= 3
        if t == 0:
            return self
        if t == 1:
            return GaussRat(-self.im, self.re)
        if t == 2:
            return GaussRat(-self.re, -self.im)
        return GaussRat(self.im, -self.re)

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        if isinstance(other, (GaussRat, int, Fraction)):
            o = GaussRat.of(other)
            return self.re == o.re and self.im == o.im
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the Fraction it equals
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


G_ZERO = GaussRat(0)


def _check_kn(k, N):
    if not isinstance(k, int) or k < 3:
        raise UnsupportedTypeError(f"type k must be an integer >= 3, got {k}")
    if not isinstance(N, int) or N < 2 * k:
        raise TruncationError(f"truncation weight N must be >= 2k = {2*k}, got {N}")


def _weights(keys, k: int) -> list:
    """The weight of each exponent key, in order.  The last exponent of a key
    is that of u (or w), of weight k, and every other has weight 1, so
    weight(key) = sum(key) + (k - 1) key[-1]."""
    k1 = k - 1
    return [sum(key) + k1 * key[-1] for key in keys]


class _Series:
    """Immutable truncated series over one coefficient ring.

    coeffs maps exponent keys to nonzero coefficients, weighted by
    _weights.  A subclass fixes the key length (_arity) and the ring:
    _coerce turns a value into a coefficient and _zero is the ring's zero.
    """

    __slots__ = ("k", "N", "coeffs")
    _arity = 3

    def __init__(self, k: int, N: int, coeffs=None):
        _check_kn(k, N)
        clean = {}
        if coeffs:
            arity, coerce = self._arity, self._coerce
            for (key, c), w in zip(coeffs.items(), _weights(coeffs, k)):
                if len(key) != arity:
                    raise StructuralError(f"monomial {key} needs {arity} exponents")
                if not all(isinstance(e, int) for e in key):
                    raise StructuralError(f"monomial {key} has a non-integer exponent")
                if min(key) < 0:
                    raise StructuralError(f"negative exponent in monomial {key}")
                if w > N:
                    raise StructuralError(f"monomial {key} has weight {w} > N = {N}")
                c = coerce(c)
                if c:
                    clean[key] = c
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _raw(cls, k, N, coeffs):
        # internal constructor: coeffs already canonical (no zeros, valid weights)
        s = object.__new__(cls)
        object.__setattr__(s, "k", k)
        object.__setattr__(s, "N", N)
        object.__setattr__(s, "coeffs", coeffs)
        return s

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; build a new one")

    def __reduce__(self):
        return type(self), (self.k, self.N, self.coeffs)

    @classmethod
    def zero(cls, k, N):
        return cls(k, N)

    def _require_same(self, other):
        if type(other) is not type(self):
            raise StructuralError(
                f"expected {type(self).__name__}, got {type(other).__name__}")
        if self.k != other.k or self.N != other.N:
            raise StructuralError(
                f"mismatched series: k={self.k},N={self.N} vs k={other.k},N={other.N}")

    def weight(self, key) -> int:
        return _weights((key,), self.k)[0]

    def coeff(self, *key):
        return self.coeffs.get(key, self._zero)

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_weight(self):
        """Smallest weight with a nonzero coefficient, or None if zero."""
        return min(_weights(self.coeffs, self.k), default=None)

    def __add__(self, other):
        self._require_same(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            _acc_add(out, key, c)
        return self._raw(self.k, self.N, out)

    def __sub__(self, other):
        self._require_same(other)
        return self + -other

    def __neg__(self):
        return self._raw(self.k, self.N, {key: -c for key, c in self.coeffs.items()})

    def _where(self, keep, N: int):
        """The terms whose weight passes keep, tagged with truncation N."""
        items = zip(self.coeffs.items(), _weights(self.coeffs, self.k))
        return self._raw(self.k, N, {key: c for (key, c), w in items if keep(w)})

    def weight_part(self, mu: int):
        return self._where(mu.__eq__, self.N)

    def drop_above(self, w: int):
        """Drop monomials of weight > w but keep the truncation tag N."""
        return self._where(w.__ge__, self.N)

    def truncate(self, N2: int):
        if N2 > self.N:
            raise StructuralError(f"cannot raise truncation {self.N} -> {N2}")
        if N2 == self.N:
            return self
        _check_kn(self.k, N2)
        return self._where(N2.__ge__, N2)

    def sorted_items(self):
        """The (key, coefficient) pairs in canonical order: by weight, then key."""
        order = sorted(zip(_weights(self.coeffs, self.k), self.coeffs))
        return [(key, self.coeffs[key]) for _, key in order]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.k == other.k and self.N == other.N
                and self.coeffs == other.coeffs)

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}(k={self.k}, N={self.N}, {len(self.coeffs)} terms)"


class RealSeries(_Series):
    """Truncated series with Fraction coefficients on x^j y^l u^m monomials."""

    __slots__ = ()
    _coerce = staticmethod(Fraction)
    _zero = RAT_ZERO

    @classmethod
    def monomial(cls, k, N, j, l, m, c=1):
        return cls(k, N, {(j, l, m): c})

    def depends_on_u(self) -> bool:
        return any(m for (_, _, m) in self.coeffs)

    def depends_on_y(self) -> bool:
        return any(l for (_, l, _) in self.coeffs)


class HoloSeries(_Series):
    """Truncated holomorphic series with GaussRat coefficients on z^j w^m."""

    __slots__ = ()
    _arity = 2
    _coerce = staticmethod(GaussRat.of)
    _zero = G_ZERO

    @classmethod
    def monomial(cls, k, N, j, m, c=1):
        return cls(k, N, {(j, m): c})


class ComplexSeries(_Series):
    """Real series written in the z, zbar basis: coefficients c_{jlm} on
    z^j zbar^l u^m.  Reality of the underlying series is the symmetry
    c_{jlm} = conj(c_{ljm}); is_real() checks it."""

    __slots__ = ()
    _coerce = staticmethod(GaussRat.of)
    _zero = G_ZERO

    def is_real(self) -> bool:
        """True when c_{ljm} = conj(c_{jlm}) on every coefficient, compared
        part by part without building the conjugate."""
        partner = self.coeffs.get
        for (j, l, m), c in self.coeffs.items():
            o = partner((l, j, m))
            if (o is None or o.re != c.re or o.im.numerator != -c.im.numerator
                    or o.im.denominator != c.im.denominator):
                return False
        return True


# ---------------------------------------------------------------------------
# the integer frame: products and substitutions on Python ints
#
# Inside the frame a series is a dict keyed by one int per monomial:
# x^j y^l u^m, of weight w = j + l + k m, has the key
# (w << 2S) | (j << S) | l (_key), and a holomorphic z^j w^m is stored as
# x^j u^m; a complex-valued series is a tuple of two such dicts, (re, im).
# Every field stays below 2^S while w <= N <= FRAME_MAX_N, so the product of
# two monomials is the sum of their keys, the weight of a key is key >> 2S,
# and ascending keys are in ascending weight.  Only Frame (on entry and
# exit) and _key / _monomial build or read the fields.  The kernels below
# use only +, - and * on the values, so a value that is still a Fraction
# (see Frame) stays exact.

_S = 10
_S2 = 2 * _S
_MASK = (1 << _S) - 1
# the largest truncation weight a frame takes: every key then stays below
# 2^30, one CPython digit
FRAME_MAX_N = _MASK


def _key(j: int, l: int, m: int, k: int) -> int:
    """The frame key of x^j y^l u^m (and of z^j w^m, with l = 0)."""
    return ((j + l + k * m) << _S2) | (j << _S) | l


def _monomial(key: int, k: int) -> tuple:
    """The exponents (j, l, m) of a frame key."""
    j, l = (key >> _S) & _MASK, key & _MASK
    return j, l, ((key >> _S2) - j - l) // k


class Frame:
    """The dilation z -> D z, w -> D^k w, with D the lcm of the denominators
    of every coefficient of the given series.

    A series standing for a quantity of weight `unit` enters with each
    coefficient c on a monomial of weight w replaced by c D^(w - unit), and
    leaves by the inverse rule.  The weight rule: no monomial lies below its
    unit, so w - unit >= 0, which grow and power index by.  real, the one
    door of a graph into the kernel, refuses a graph that breaks it with
    StructuralError; every holo input keeps it (f from weight 2 at unit 1,
    g from k + 1 at unit k, h at unit 0); power raises InternalError for a
    negative exponent.  Where D^(w - unit) does not clear c (w equal to the
    unit) the entered value stays a Fraction.  A linear change
    z -> delta i^rot z acts as the dilation D -> D delta (dilated) and a
    quarter turn of the values: _turn for a map, _turn_real for a graph.
    The crnf.transform docstring states which units the kernels use.  A
    series truncated above FRAME_MAX_N raises TruncationError.
    """

    __slots__ = ("k", "D", "_powers")

    def __init__(self, k: int, *series):
        dens = set()
        for s in series:
            if s.N > FRAME_MAX_N:
                raise TruncationError(
                    f"N = {s.N} exceeds the integer frame's limit {FRAME_MAX_N}")
            for c in s.coeffs.values():
                if isinstance(c, GaussRat):
                    dens.add(c.re.denominator)
                    dens.add(c.im.denominator)
                else:
                    dens.add(c.denominator)
        self.k = k
        self.D = lcm(*dens)
        self._powers = [1]

    def grow(self, r: int, *values):
        """Multiply D by the integer r.  Each (frame dict, unit) given is
        rescaled in place by r^(w - unit), so it stands for the same series
        in the larger frame; its monomials must have weight >= unit."""
        rp = [1]
        for d, unit in values:
            for key, c in d.items():
                e = (key >> _S2) - unit
                while len(rp) <= e:
                    rp.append(rp[-1] * r)
                d[key] = c * rp[e]
        self.D *= r
        self._powers = [1]

    def dilated(self, delta: Fraction, *values) -> "Frame":
        """The frame of D delta, where a value stands for the series dilated
        by z -> delta z, w -> delta^k w.  D first grows so that D delta is an
        int, and the (frame dict, unit) pairs given grow with it (grow): a
        value held there leaves the new frame as its image under
        z -> delta z, w -> delta^k w.  Any other value enters after the call."""
        self.grow(delta.denominator, *values)
        out = Frame(self.k)
        out.D = self.D // delta.denominator * delta.numerator
        return out

    def power(self, e: int) -> int:
        if e < 0:
            raise InternalError(f"frame power D^{e}: a monomial below its unit")
        p = self._powers
        while len(p) <= e:
            p.append(p[-1] * self.D)
        return p[e]

    def _enter(self, c: Fraction, e: int):
        n, d = c.numerator * self.power(e), c.denominator
        if d == 1:
            return n
        q, r = divmod(n, d)
        return Fraction(n, d) if r else q

    def _leave(self, c, e: int) -> Fraction:
        return Fraction(c, self.power(e))

    def real(self, s: RealSeries, unit: int) -> dict:
        k, enter = self.k, self._enter
        out = {}
        for (j, l, m), c in s.coeffs.items():
            key = _key(j, l, m, k)
            e = (key >> _S2) - unit
            if e < 0:
                raise StructuralError(
                    f"graph has a monomial of weight {s.min_weight()} < k = {unit}")
            out[key] = enter(c, e)
        return out

    def holo(self, h: HoloSeries, unit: int):
        k, enter = self.k, self._enter
        re, im = {}, {}
        for (j, m), c in h.coeffs.items():
            key = _key(j, 0, m, k)
            e = (key >> _S2) - unit
            if c.re:
                re[key] = enter(c.re, e)
            if c.im:
                im[key] = enter(c.im, e)
        return re, im

    def real_out(self, d: dict, unit: int, N: int) -> RealSeries:
        k, leave = self.k, self._leave
        return RealSeries._raw(k, N, {_monomial(key, k): leave(c, (key >> _S2) - unit)
                                      for key, c in d.items()})

    def holo_out(self, h, unit: int, N: int) -> HoloSeries:
        k, leave = self.k, self._leave
        re, im = h
        terms = []
        for key in re.keys() | im.keys():
            j, _, m = _monomial(key, k)
            e = (key >> _S2) - unit
            terms.append(((j, m), GaussRat(leave(re.get(key, 0), e),
                                           leave(im.get(key, 0), e))))
        return HoloSeries._raw(k, N, dict(sorted(terms, key=itemgetter(0))))


def _nonzero(d: dict) -> dict:
    return {key: c for key, c in d.items() if c}


def _min_weight(parts):
    """Lowest weight in a tuple of frame dicts, or None if all are empty."""
    low = min((min(d) for d in parts if d), default=None)
    return None if low is None else low >> _S2


def _sorted_parts(a: tuple) -> tuple:
    """Each part of a frame value as its (key, c) pairs in ascending key, so
    in ascending weight: the form of a second factor of _mul_parts."""
    return tuple(sorted(p.items()) for p in a)


def _mul_into(out: dict, x, ys: list, W: int, sign: int = 1):
    """Add sign * x * y through weight W to out (zeros are left in out); x
    is an iterable of (key, c) pairs and ys one part of _sorted_parts(y), so
    the inner loop stops at the bound.  An empty ys returns at once, with x
    unread."""
    if not ys:
        return
    get = out.get
    lim = (W + 1) << _S2  # key1 + key2 < lim exactly when w1 + w2 <= W
    for k1, c1 in x:
        lim1 = lim - k1
        if sign < 0:
            c1 = -c1
        for k2, c2 in ys:
            if k2 >= lim1:
                break
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2


def _mul_parts(a: tuple, b: tuple, W: int) -> tuple:
    """Product through weight W of two real (re,) or two complex (re, im)
    frame values; each part of a is an iterable of (key, c) pairs, and b is
    given as _sorted_parts."""
    if len(a) == 1:
        out = {}
        _mul_into(out, a[0], b[0], W)
        return (_nonzero(out),)
    (ar, ai), (br, bi) = a, b
    re, im = {}, {}
    _mul_into(re, ar, br, W)
    _mul_into(re, ai, bi, W, -1)
    _mul_into(im, ar, bi, W)
    _mul_into(im, ai, br, W)
    return _nonzero(re), _nonzero(im)


# the bound of a base in the _PowerProducts cache: above every weight
_UNBOUNDED = FRAME_MAX_N + 1


class _PowerProducts:
    """Lazily cached products P_t = b1^t1 b2^t2 b3^t3 of the increments
    (b1, b2, b3) of x, y and u, of weights 1, 1 and k, each named by t, the
    frame key of x^t1 y^t2 u^t3.  Each base is a frame value: (re,) for a
    real increment, (re, im) for a complex one, and () for a variable left
    alone.

    product(t, bound) returns P_t exact through weight bound, and the cache
    keeps each P_t with the bound it was built through; a later request for
    a larger bound rebuilds it.  One cache may serve several substitutions
    with the same bases, whatever weight each is wanted through.  gains[i]
    is the weight base i gains over the variable it replaces (None when the
    base is absent or zero), and gmin the smallest of them (None when there
    is none): a term of weight w has no image below w + gmin.  Each gain
    must be >= 0; then P_t through bound needs its predecessor only through
    bound - wt(step).  The base of step i has min weight
    wmin = wt(step) + gains[i], so a term of that predecessor above
    bound - wmin meets no term of the base: only the prefix through
    bound - wmin is multiplied.  The predecessor is still asked for through
    bound - wt(step), the bound its own later requests reuse.
    """

    def __init__(self, bases, k):
        self.bases = bases
        self.k = k
        # the keys of x, y and u; keys add without carries, so
        # x^t1 y^t2 u^t3 has the key t1 K1 + t2 K2 + t3 K3
        self.steps = (_key(1, 0, 0, k), _key(0, 1, 0, k), _key(0, 0, 1, k))
        self.gains = tuple(None if (w := _min_weight(b)) is None else w - u
                           for b, u in zip(bases, (1, 1, k)))
        self.gmin = min((g for g in self.gains if g is not None), default=None)
        self.cache = {}  # t -> (bound, P_t as _sorted_parts)

    def product(self, t: int, bound: int) -> tuple:
        """P_t as _sorted_parts, exact through weight bound."""
        hit = self.cache.get(t)
        if hit is not None and hit[0] >= bound:
            return hit[1]
        i = next(i for i, ti in enumerate(_monomial(t, self.k)) if ti)
        step = self.steps[i]
        if t == step:
            # a base is kept whole, so it serves any bound
            bound, cur = _UNBOUNDED, _sorted_parts(self.bases[i])
        else:
            prev = self.product(t - step, bound - (step >> _S2))
            # a term above bound - wmin(base) meets no term of the base
            lim = (bound - (step >> _S2) - self.gains[i] + 1) << _S2
            prev = tuple(p[:bisect_left(p, (lim,))] for p in prev)
            cur = _sorted_parts(_mul_parts(prev, self.product(step, 0), bound))
        self.cache[t] = bound, cur
        return cur


def _substitute(h: tuple, k: int, pp: _PowerProducts, outs: tuple, sign: int, W: int):
    """Add sign * (h(x + b1, y + b2, u + b3) - h) through weight W to the
    dicts outs[part], where b1, b2, b3 are the bases of pp.

    h and the bases are real (re,) or complex (re, im) frame values; part a
    of h times part b of a power product goes to outs[(a + b) & 1], negated
    when a + b == 2 (i times i).  A term of weight above W - pp.gmin has no
    image and is skipped unread.  The other terms of one part of h are
    grouped by Taylor order t = (t1, t2, t3): each contributes
    c C(j, t1) C(l, t2) C(m, t3) x^(j-t1) y^(l-t2) u^(m-t3) to its group, and
    each group is multiplied once by the power product of t, asked for
    through W less the lowest weight in the group, which is all that
    _mul_into reads of it.  A term with w + 2 gmin > W has images of order 1
    only, so it adds its at most three pairs, c j, c l and c m, directly;
    the others read their binomials from the rows of _pascal.  Its two
    callers are _shifted and _unshift.
    """
    if pp.gmin is None:
        return
    lim = (W - pp.gmin + 1) << _S2  # key < lim exactly when w + gmin <= W
    # key >= lim2 exactly when w + 2 gmin > W: no image of order 2 or more
    lim2 = (W - 2 * pp.gmin + 1) << _S2
    g1, g2, g3 = pp.gains
    K1, K2, K3 = pp.steps
    # a term has a first-order image in x, y or u only up to these weights
    top1, top2, top3 = (-1 if g is None else W - g for g in pp.gains)
    rows = _PASCAL
    for a, part in enumerate(h):
        groups = {}  # the terms of each Taylor order, by its key
        for key, c in part.items():
            if key >= lim:
                continue
            j, l, m = _monomial(key, k)
            w = key >> _S2
            if key >= lim2:
                # the pairs of t = u, y, x, in the order of the loops below
                if m and w <= top3:
                    groups.setdefault(K3, []).append((key - K3, c * m))
                if l and w <= top2:
                    groups.setdefault(K2, []).append((key - K2, c * l))
                if j and w <= top1:
                    groups.setdefault(K1, []).append((key - K1, c * j))
                continue
            if j >= len(rows) or l >= len(rows) or m >= len(rows):
                rows = _pascal(max(j, l, m))
            r1, r2, r3 = rows[j], rows[l], rows[m]
            for t1 in range(j + 1 if g1 is not None else 1):
                e1 = w + t1 * g1 if t1 else w
                if e1 > W:
                    break
                c1 = c * r1[t1]
                for t2 in range(l + 1 if g2 is not None else 1):
                    e2 = e1 + t2 * g2 if t2 else e1
                    if e2 > W:
                        break
                    c2 = c1 * r2[t2]
                    tk2 = t1 * K1 + t2 * K2
                    for t3 in range(m + 1 if g3 is not None else 1):
                        if t3 and e2 + t3 * g3 > W:
                            break
                        tk = tk2 + t3 * K3
                        if tk:
                            groups.setdefault(tk, []).append((key - tk, c2 * r3[t3]))
        for tk, group in groups.items():
            low = min(group, key=itemgetter(0))[0] >> _S2
            for b, terms in enumerate(pp.product(tk, W - low)):
                _mul_into(outs[(a + b) & 1], group, terms, W,
                          -sign if a + b == 2 else sign)


def _shifted(h: tuple, k: int, pp: _PowerProducts, W: int) -> tuple:
    """h(x + b1, y + b2, u + b3) through weight W on frame values, where
    b1, b2, b3 are the bases of pp; h's own terms are kept whatever their
    weight."""
    out = tuple(dict(p) for p in h)
    _substitute(h, k, pp, out, 1, W)
    return tuple(_nonzero(o) for o in out)


def _unshift(R: tuple, k: int, pp: _PowerProducts, W: int) -> tuple:
    """The solution G of G(x + b1, y + b2, u + b3) = R through weight W, on
    real (re,) or complex (re, im) frame values, where b1, b2, b3 are the
    bases of pp: the one weight recursion of the package, run by the graph
    transform and by the inverse of a map.  Each base needs gain > 0; then
    the image of G's weight-mu slice lands at mu + gmin or above, so the
    slices of a window mu .. mu + gmin - 1 cannot reach one another: each
    is what is left of R at its weight once the lower windows are
    substituted, and the window is substituted in one _substitute call, so
    that the groups of one Taylor order merge across its slices.  A window
    is max(gmin, 1) weights wide.  A window that starts above W - pp.gmin
    has no image through W, so from there on the slices only move into G.
    Anything left in a solved weight raises InternalError."""
    E = tuple([{} for _ in range(W + 1)] for _ in R)
    _add_by_weight(E, R)
    G = tuple({} for _ in R)
    wlow = _min_weight(R)
    if wlow is None:
        return G
    gmin = pp.gmin or 0
    width = max(gmin, 1)
    for lo in range(wlow, W + 1, width):
        window = range(lo, min(lo + width, W + 1))
        S = tuple(_nonzero({key: c for mu in window for key, c in buckets[mu].items()})
                  for buckets in E)
        for buckets, g, s in zip(E, G, S):
            for mu in window:
                buckets[mu] = {}
            g.update(s)
        if lo + gmin <= W:
            # the window's image is summed in flat dicts first, so that each
            # key is bucketed once rather than once per product
            image = tuple({} for _ in R)
            _substitute(S, k, pp, image, -1, W)
            _add_by_weight(E, image)
    if any(c for buckets in E for bucket in buckets for c in bucket.values()):
        raise InternalError("weight recursion (_unshift) left a residue")
    return G


def _add_by_weight(E: tuple, parts: tuple):
    """Add each part of a frame value to its list of weight buckets in E."""
    for buckets, part in zip(E, parts):
        for key, c in part.items():
            bucket = buckets[key >> _S2]
            bucket[key] = bucket.get(key, 0) + c


# ---------------------------------------------------------------------------
# binomial coefficients

_PASCAL = [(1,)]  # rows 0.. of Pascal's triangle, row p = C(p, 0..p)


def _pascal(n: int) -> list:
    """_PASCAL, grown to row n at least: it only grows, to the largest
    exponent met."""
    rows = _PASCAL
    while len(rows) <= n:
        r = rows[-1]
        rows.append((1, *map(add, r, r[1:]), 1))
    return rows


# ---------------------------------------------------------------------------
# basis conversions
#
# x = (z + zbar)/2,  y = (z - zbar)/(2i)      and inversely
# z = x + iy,        zbar = x - iy.
# Both substitutions are weight preserving, so conversion is exact and
# needs no re-truncation.  With d = p + q, both read one integer table,
# (1 + X)^p (1 - X)^q = sum_r K[r] X^r:
#     x^p y^q      = 2^-d i^q sum_r K[r] z^r zbar^(d-r),
#     z^p zbar^q   =         sum_r K[r] i^r x^(d-r) y^r.
# They run on the integer numerators over D, the lcm of the input's
# denominators, and each output coefficient leaves once as a fraction.
# A real series has c_{lpm} = conj(c_{plm}) in the z, zbar basis, so each
# conversion forms only the half with p <= q: to_complex_basis mirrors it
# by conjugation, and to_real_basis reads the pair of z^p zbar^q and
# z^q zbar^p as 2 Re(c_{pqm} z^p zbar^q).

@lru_cache(maxsize=None)
def _binomial_table(p: int, q: int) -> tuple:
    """The coefficients (lowest first) of (1 + X)^p (1 - X)^q, as ints."""
    out = [0] * (p + q + 1)
    for s in range(p + 1):
        for t in range(q + 1):
            out[s + t] += (-1) ** t * binom(p, s) * binom(q, t)
    return tuple(out)


def _i_powers(a, b) -> tuple:
    """(a + i b) i^r for r = 0, 1, 2, 3, as (re, im) pairs."""
    return ((a, b), (-b, a), (-a, -b), (b, -a))


def _turn(h, rot: int, s: int):
    """The complex frame value h of z^j w^m, each term times i^(rot (j - s))."""
    if not rot:
        return h
    hr, hi = h
    re, im = {}, {}
    for key in hr.keys() | hi.keys():
        j = (key >> _S) & _MASK
        re[key], im[key] = _i_powers(hr.get(key, 0), hi.get(key, 0))[rot * (j - s) & 3]
    return _nonzero(re), _nonzero(im)


def _turn_real(d: dict, rot: int) -> dict:
    """The real frame value d of a graph carried by z -> i^rot z: per quarter
    turn x^j y^l -> (-1)^l x^l y^j, which swaps the j and l fields of the
    key, so adds (l - j) _MASK to it."""
    for _ in range(rot):
        out = {}
        for key, c in d.items():
            j, l = (key >> _S) & _MASK, key & _MASK
            out[key + (l - j) * _MASK] = -c if l & 1 else c
        d = out
    return d


def graded_image(F: RealSeries, rot: int, s, c) -> RealSeries:
    """The graph v = F carried by z -> i^rot z, then w -> s w (s real,
    nonzero), then w -> w + c z^k, in one frame: rot quarter turns
    (_turn_real), each u^m term times s^(1 - m), which keeps its weight, and
    v gains Im(c z^k) while u is read at u - Re(c z^k), an increment of gain
    0.  c z^k over x, y has weight k, the unit of a graph, so its values
    enter as they are.  F may have no monomial below weight k."""
    s, c = Fraction(s), GaussRat.of(c)
    if not s:
        raise StructuralError("w-scaling must be nonzero")
    k, N = F.k, F.N
    fr = Frame(k, F)
    G = {key: v * s ** (1 - _monomial(key, k)[2])
         for key, v in _turn_real(fr.real(F, k), rot % 4).items()}
    re, im = _z_to_xy([(k, 0, [_key(k - r, r, 0, k) for r in range(k + 1)],
                        c.re, c.im)])
    for key, v in im.items():
        _acc_add(G, key, v)
    pp = _PowerProducts(((), (), (_nonzero({key: -v for key, v in re.items()}),)), k)
    (G,) = _shifted((G,), k, pp, N)
    return fr.real_out(G, k, N)


def _z_to_xy(terms):
    """The sum of (nr + i ni) z^p zbar^q u^m over the given
    (p, q, keys, nr, ni), with int or frame values nr, ni, rewritten over
    x^j y^l u^m: the pair (re, im) of dicts, zeros left in.  keys[r] is the
    key, a tuple or a frame key, of x^(p+q-r) y^r u^m."""
    re, im = {}, {}
    for p, q, keys, nr, ni in terms:
        rot = _i_powers(nr, ni)
        for r, (key, kr) in enumerate(zip(keys, _binomial_table(p, q))):
            if kr:
                a, b = rot[r & 3]
                re[key] = re.get(key, 0) + a * kr
                im[key] = im.get(key, 0) + b * kr
    return re, im


def to_complex_basis(f: RealSeries) -> ComplexSeries:
    """Rewrite a real series over x^j y^l u^m in the z, zbar, u basis."""
    D = lcm(*(c.denominator for c in f.coeffs.values()))
    parts = ({}, {})  # numerators of the real and imaginary parts, over D 2^d
    for (p, q, m), c in f.coeffs.items():
        # i^q is a sign and a slot
        n = c.numerator * (D // c.denominator) * (-1 if q & 2 else 1)
        out, d = parts[q & 1], p + q
        get = out.get
        # the outputs z^r zbar^(d-r) with r <= d - r; the rest mirror them
        for r, kr in enumerate(_binomial_table(p, q)[:d // 2 + 1]):
            if kr:
                key = (r, d - r, m)
                out[key] = get(key, 0) + n * kr
    re, im = parts
    coeffs = {}
    for key in re.keys() | im.keys():
        nr, ni = re.get(key, 0), im.get(key, 0)
        if nr or ni:
            r, s, m = key
            den = D << (r + s)
            a = Fraction(nr, den) if nr else RAT_ZERO
            b = Fraction(ni, den) if ni else RAT_ZERO
            coeffs[key] = GaussRat(a, b)
            if r < s:
                coeffs[(s, r, m)] = GaussRat(a, -b)
    return ComplexSeries._raw(f.k, f.N, coeffs)


def to_real_basis(f: ComplexSeries) -> RealSeries:
    """Rewrite a complex-basis series over x, y, u.  The input must satisfy
    the reality symmetry c_{jlm} = conj(c_{ljm}); otherwise the substitution
    z = x + iy leaves imaginary parts and a StructuralError names the lowest
    such monomial (by weight, then key)."""
    if not f.is_real():
        _raise_not_real(f)
    half = [(key, c) for key, c in f.coeffs.items() if key[0] <= key[1]]
    D = lcm(*(x.denominator for _, c in half for x in (c.re, c.im)))
    re = {}
    get = re.get
    for (p, q, m), c in half:
        # Re((a + ib) i^r) is a, -b, -a, b as r % 4 = 0, 1, 2, 3
        a = c.re.numerator * (D // c.re.denominator)
        b = c.im.numerator * (D // c.im.denominator)
        if p < q:
            a, b = 2 * a, 2 * b
        signed = (a, -b, -a, b)
        d = p + q
        for r, kr in enumerate(_binomial_table(p, q)):
            if kr:
                key = (d - r, r, m)
                re[key] = get(key, 0) + signed[r & 3] * kr
    return RealSeries._raw(f.k, f.N, {key: Fraction(v, D) for key, v in re.items() if v})


def _raise_not_real(f: ComplexSeries):
    """Raise the StructuralError of to_real_basis for a series that fails the
    reality symmetry.  Its imaginary part over x, y, u is the expansion of
    the anti-Hermitian part (c_{jlm} - conj(c_{ljm}))/2, which is then not
    zero; expanding every term finds its lowest monomial."""
    D = lcm(*(x.denominator for c in f.coeffs.values() for x in (c.re, c.im)))
    _, im = _z_to_xy((p, q, [(p + q - r, r, m) for r in range(p + q + 1)],
                      c.re.numerator * (D // c.re.denominator),
                      c.im.numerator * (D // c.im.denominator))
                     for (p, q, m), c in f.coeffs.items())
    key = min((key for key, v in im.items() if v), key=lambda key: (f.weight(key), key))
    raise StructuralError(
        f"series is not real: monomial x^{key[0]} y^{key[1]} u^{key[2]} "
        f"has imaginary coefficient {Fraction(im[key], D)}")


def _restrict_frame(h, k: int, pp: _PowerProducts, W: int):
    """h(x + iy, u + iF) through weight W, in the frame: h is a complex frame
    value of z^j w^m, and pp holds the powers of iF,
    _PowerProducts(((), (), ({}, F)), k) for a real frame value F of min
    weight >= k; returns the pair (Re, Im).  z -> x + iy keeps weight
    (_z_to_xy), and iF is a complex increment of u of gain >= 0."""
    hr, hi = h
    terms = []
    for key in hr.keys() | hi.keys():
        if key >> _S2 <= W:
            j, _, m = _monomial(key, k)
            terms.append((j, 0, [_key(j - r, r, m, k) for r in range(j + 1)],
                          hr.get(key, 0), hi.get(key, 0)))
    P = _z_to_xy(terms)
    return _shifted(tuple(_nonzero(p) for p in P), k, pp, W)

def restrict_to_M(h: HoloSeries, F: RealSeries):
    """Value of h(z, w) on the graph v = F(x, y, u), i.e. h(x+iy, u+iF).

    Returns the pair (Re, Im) of RealSeries truncated at h.N.  Requires
    h.k == F.k, h.N <= F.N and no monomial of F below weight k (the
    increment iF of u must not lower a weight); otherwise StructuralError.
    """
    if not isinstance(h, HoloSeries) or not isinstance(F, RealSeries):
        raise StructuralError("restrict_to_M expects (HoloSeries, RealSeries)")
    if h.k != F.k:
        raise StructuralError(f"mismatched k: {h.k} vs {F.k}")
    if h.N > F.N:
        raise StructuralError(f"h.N = {h.N} exceeds F.N = {F.N}")
    k, N = h.k, h.N
    # h stands for no particular weight (unit 0); v = F has the weight of u
    fr = Frame(k, h, F)
    pp = _PowerProducts(((), (), ({}, fr.real(F, k))), k)
    re, im = _restrict_frame(fr.holo(h, 0), k, pp, N)
    return fr.real_out(re, 0, N), fr.real_out(im, 0, N)


def _acc_add(out, key, val):
    s = out.get(key)
    if s is None:
        if val:
            out[key] = val
        return
    s = s + val
    if s:
        out[key] = s
    else:
        del out[key]
