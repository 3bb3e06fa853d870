"""Exact truncated power series in the weighted variables (x, y, u).

Weights: wt(x) = wt(y) = 1 and wt(u) = k, where k >= 3 is the type of the
hypersurface the series describes.  Every series carries its truncation
weight N and stores only monomials of weight <= N, sparsely, as a dict
keyed by exponent tuples.  No floats enter any computation.

One immutable core type holds the sparse data and everything that does not
depend on the coefficient ring: validation, sums, scaling, weight parts,
truncation and the canonical order (weight, then key).  The last exponent
of a key is that of u (or w) and every other has weight 1, so

    weight(key) = sum(key) + (k - 1) key[-1]

covers both key shapes:
    RealSeries / ComplexSeries: (j, l, m)  for x^j y^l u^m  (or z^j zbar^l u^m)
    HoloSeries:                 (j, m)     for z^j w^m

A subclass fixes the coefficient ring: fractions.Fraction for RealSeries,
GaussRat (a pair of Fractions) for HoloSeries and ComplexSeries.  Beyond
that, RealSeries and HoloSeries add a product (mul_upto), RealSeries the
tests depends_on_u / depends_on_y, and ComplexSeries the reality test
is_real.  Products, the restriction to a graph and substitutions share one
kernel, on Python ints in the integer frame of their inputs (Frame), and
convert back once.  The basis conversions run on ints too, over the lcm of
their input's denominators, with a cached integer binomial table.  That
kernel, _substitute, does every binomial Taylor substitution
h(x + b1, y + b2, u + b3) over power products that only _PowerProducts
forms; _shifted evaluates one, the restriction h(x + iy, u + iF) among them,
and _unshift solves one weight by weight (the crnf.transform docstring
names every consumer and unit).

Zero coefficients are dropped on construction and after every operation,
so equality of series is plain structural equality of (k, N, coeffs).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb as binom, lcm
from operator import itemgetter

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

    def __pow__(self, n: int) -> "GaussRat":
        if n < 0:
            return (G_ONE / self) ** (-n)
        out = G_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


G_ZERO = GaussRat(0)
G_ONE = GaussRat(1)


def i_pow(t: int) -> GaussRat:
    return G_ONE.times_i_power(t)


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

    def scale(self, c):
        c = self._coerce(c)
        if not c:
            return self.zero(self.k, self.N)
        return self._raw(self.k, self.N, {key: c * v for key, v in self.coeffs.items()})

    def map_coeffs(self, fn):
        """New series with coefficient fn(key, c) at each key; zeros dropped."""
        out = {}
        for key, c in self.coeffs.items():
            v = fn(key, c)
            if v:
                out[key] = v
        return self._raw(self.k, self.N, out)

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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return mul_upto(self, other, self.N)

    __rmul__ = __mul__

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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            return self.scale(other)
        return mul_upto(self, other, self.N)

    __rmul__ = __mul__


class ComplexSeries(_Series):
    """Real series written in the z, zbar basis: coefficients c_{jlm} on
    z^j zbar^l u^m.  Reality of the underlying series is the symmetry
    c_{jlm} = conj(c_{ljm}); is_real() checks it."""

    __slots__ = ()
    _coerce = staticmethod(GaussRat.of)
    _zero = G_ZERO

    def is_real(self) -> bool:
        for (j, l, m), c in self.coeffs.items():
            if self.coeffs.get((l, j, m), G_ZERO) != c.conj():
                return False
        return True


def mul_upto(a, b, W: int):
    """The product a * b through weight W, which is capped at the truncation N.

    a and b are series of one class (RealSeries or HoloSeries) with equal k
    and N.  No monomial of weight > W is formed, so the result is a * b with
    those monomials dropped; it keeps the truncation tag N.
    """
    a._require_same(b)
    k, W = a.k, min(W, a.N)
    fr = Frame(k, a, b)
    if isinstance(a, RealSeries):
        (out,) = _mul_parts((fr.real(a, 0),), _sorted_parts((fr.real(b, 0),), k), W, k)
        return fr.real_out(out, 0, a.N)
    out = _mul_parts(fr.holo(a, 0), _sorted_parts(fr.holo(b, 0), k), W, k)
    return fr.holo_out(out, 0, a.N)


# ---------------------------------------------------------------------------
# the integer frame: products and substitutions on Python ints
#
# Inside the frame a series is a dict keyed (j, l, m) for x^j y^l u^m, with
# a holomorphic z^j w^m stored as (j, 0, m); a complex-valued one is a tuple
# of two such dicts, (re, im).  The kernels below use only +, - and * on the
# values, so a value that is still a Fraction (see Frame) stays exact.

class Frame:
    """The dilation z -> D z, w -> D^k w, with D the lcm of the denominators
    of every coefficient of the given series.

    A series standing for a quantity of weight `unit` enters with each
    coefficient c on a monomial of weight w replaced by c D^(w - unit), and
    leaves by the inverse rule.  Where D^(w - unit) does not clear c (w equal
    to the unit, or below it) the entered value stays a Fraction.  The
    crnf.transform docstring states which units the kernels use.
    """

    __slots__ = ("k", "D", "_powers")

    def __init__(self, k: int, *series):
        dens = set()
        for s in series:
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
        k, rp = self.k, [1]
        for d, unit in values:
            for key, c in d.items():
                e = key[0] + key[1] + k * key[2] - unit
                while len(rp) <= e:
                    rp.append(rp[-1] * r)
                d[key] = c * rp[e]
        self.D *= r
        self._powers = [1]

    def power(self, e: int) -> int:
        p = self._powers
        while len(p) <= e:
            p.append(p[-1] * self.D)
        return p[e]

    def _enter(self, c: Fraction, e: int):
        n, d = c.numerator, c.denominator
        if e >= 0:
            n *= self.power(e)
        else:
            d *= self.power(-e)
        if d == 1:
            return n
        q, r = divmod(n, d)
        return Fraction(n, d) if r else q

    def _leave(self, c, e: int) -> Fraction:
        if e >= 0:
            return Fraction(c, self.power(e))
        return Fraction(c) * self.power(-e)

    def real(self, s: RealSeries, unit: int) -> dict:
        k, enter = self.k, self._enter
        return {key: enter(c, key[0] + key[1] + k * key[2] - unit)
                for key, c in s.coeffs.items()}

    def holo(self, h: HoloSeries, unit: int):
        k, enter = self.k, self._enter
        re, im = {}, {}
        for (j, m), c in h.coeffs.items():
            e = j + k * m - unit
            if c.re:
                re[(j, 0, m)] = enter(c.re, e)
            if c.im:
                im[(j, 0, m)] = enter(c.im, e)
        return re, im

    def real_out(self, d: dict, unit: int, N: int) -> RealSeries:
        k, leave = self.k, self._leave
        return RealSeries._raw(k, N, {key: leave(c, key[0] + key[1] + k * key[2] - unit)
                                for key, c in d.items()})

    def holo_out(self, h, unit: int, N: int) -> HoloSeries:
        k, leave = self.k, self._leave
        re, im = h
        out = {}
        for key in sorted(re.keys() | im.keys()):
            j, _, m = key
            e = j + k * m - unit
            out[(j, m)] = GaussRat(leave(re.get(key, 0), e), leave(im.get(key, 0), e))
        return HoloSeries._raw(k, N, out)


def _nonzero(d: dict) -> dict:
    return {key: c for key, c in d.items() if c}


def _min_weight(parts, k: int):
    """Lowest weight in a tuple of frame dicts, or None if all are empty."""
    return min((j + l + k * m for d in parts for (j, l, m) in d), default=None)


def _sorted_parts(a: tuple, k: int) -> tuple:
    """Each part of a frame value as (weight, j, l, m, c) tuples, ascending
    in weight: the form of a second factor of _mul_parts."""
    return tuple(sorted(((j + l + k * m, j, l, m, c) for (j, l, m), c in p.items()),
                        key=itemgetter(0)) for p in a)


def _mul_into(out: dict, x: dict, ys: list, W: int, k: int, sign: int = 1):
    """Add sign * x * y through weight W to out (zeros are left in out); ys
    is one part of _sorted_parts(y), so the inner loop stops at the bound."""
    get = out.get
    for (j1, l1, m1), c1 in x.items():
        budget = W - (j1 + l1 + k * m1)
        if sign < 0:
            c1 = -c1
        for w2, j2, l2, m2, c2 in ys:
            if w2 > budget:
                break
            key = (j1 + j2, l1 + l2, m1 + m2)
            out[key] = get(key, 0) + c1 * c2


def _mul_parts(a: tuple, b: tuple, W: int, k: int) -> tuple:
    """Product through weight W of two real (re,) or two complex (re, im)
    frame values; b is given as _sorted_parts."""
    if len(a) == 1:
        out = {}
        _mul_into(out, a[0], b[0], W, k)
        return (_nonzero(out),)
    (ar, ai), (br, bi) = a, b
    re, im = {}, {}
    _mul_into(re, ar, br, W, k)
    _mul_into(re, ai, bi, W, k, -1)
    _mul_into(im, ar, bi, W, k)
    _mul_into(im, ai, br, W, k)
    return _nonzero(re), _nonzero(im)


class _PowerProducts:
    """Lazily cached products b1^t1 b2^t2 b3^t3 of the increments (b1, b2, b3)
    of x, y and u, of weights 1, 1 and k.  Each base is a frame value: (re,)
    for a real increment, (re, im) for a complex one, and () for a variable
    left alone.

    Every consumer term has weight >= wlow and is wanted through weight W, so
    the product for (t1, t2, t3) is built only through
    min(W, W - wlow + t1 + t2 + k t3).  Each base must have min weight >= its
    unit; then a product built from its predecessor is exact through its own
    bound.
    """

    def __init__(self, bases, W, wlow, k):
        self.bases = bases
        self.units = (1, 1, k)
        self.W = W
        self.wlow = wlow
        self.k = k
        # weight gained per factor over the variable it replaces; None when
        # the base is identically zero or absent
        self.gains = tuple(None if (w := _min_weight(b, k)) is None else w - u
                           for b, u in zip(bases, self.units))
        self.cache = {}
        self.by_weight = {}

    def product(self, t):
        cur = self.cache.get(t)
        if cur is None:
            i = next(i for i, ti in enumerate(t) if ti)
            prev = t[:i] + (t[i] - 1,) + t[i + 1:]
            if any(prev):
                bound = min(self.W, self.W - self.wlow
                            + sum(a * u for a, u in zip(t, self.units)))
                base = self.items(tuple(int(n == i) for n in range(len(t))))
                cur = _mul_parts(self.product(prev), base, bound, self.k)
            else:
                cur = self.bases[i]
            self.cache[t] = cur
        return cur

    def items(self, t):
        """The product's parts as _sorted_parts."""
        cur = self.by_weight.get(t)
        if cur is None:
            cur = _sorted_parts(self.product(t), self.k)
            self.by_weight[t] = cur
        return cur


def _substitute(h: tuple, k: int, pp: _PowerProducts, outs: tuple, sign: int):
    """Add sign * (h(x + b1, y + b2, u + b3) - h) through weight pp.W to the
    weight buckets outs[part][w], where b1, b2, b3 are the bases of pp.

    h and the bases are real (re,) or complex (re, im) frame values; part a
    of h times part b of a power product goes to outs[(a + b) & 1], negated
    when a + b == 2 (i times i).  Its two callers are _shifted and _unshift.
    """
    W = pp.W
    g1, g2, g3 = pp.gains
    for a, part in enumerate(h):
        for (j, l, m), c in part.items():
            w = j + l + k * m
            for t1 in range(j + 1 if g1 is not None else 1):
                e1 = w + (t1 * g1 if t1 else 0)
                if e1 > W:
                    break
                for t2 in range(l + 1 if g2 is not None else 1):
                    e2 = e1 + (t2 * g2 if t2 else 0)
                    if e2 > W:
                        break
                    for t3 in range(m + 1 if g3 is not None else 1):
                        if e2 + (t3 * g3 if t3 else 0) > W:
                            break
                        if t1 == 0 and t2 == 0 and t3 == 0:
                            continue
                        cb = c * binom(j, t1) * binom(l, t2) * binom(m, t3)
                        jb, lb, mb = j - t1, l - t2, m - t3
                        wb = jb + lb + k * mb
                        budget = W - wb
                        for b, terms in enumerate(pp.items((t1, t2, t3))):
                            out = outs[(a + b) & 1]
                            cs = -cb if (a + b == 2) != (sign < 0) else cb
                            for pw, pj, pl, pm, pc in terms:
                                if pw > budget:
                                    break
                                bucket = out[wb + pw]
                                key = (jb + pj, lb + pl, mb + pm)
                                bucket[key] = bucket.get(key, 0) + cs * pc


def _shifted(h: tuple, k: int, bases: tuple, W: int) -> tuple:
    """h(x + b1, y + b2, u + b3) through weight W on frame values, with the
    bases as for _PowerProducts; h's own terms are kept whatever their
    weight."""
    out = tuple(dict(p) for p in h)
    wlow = _min_weight(h, k)
    if wlow is not None:
        # every weight bucket of a part is that part's one dict, so the
        # substitution lands flat on h's own terms
        _substitute(h, k, _PowerProducts(bases, W, wlow, k),
                    tuple([o] * (W + 1) for o in out), 1)
    return tuple(_nonzero(o) for o in out)


def _unshift(R: tuple, k: int, bases: tuple, W: int) -> tuple:
    """The solution G of G(x + b1, y + b2, u + b3) = R through weight W, on
    real (re,) or complex (re, im) frame values, with the bases as for
    _PowerProducts: the one weight recursion of the package, run by the
    graph transform and by the inverse of a map.  Each base needs min weight
    > its unit; then the substitution of G's weight-mu slice lands above mu
    only, so the slice is what is left of R at weight mu once the lower
    slices are substituted.  Anything left in a solved weight raises
    InternalError."""
    E = tuple([{} for _ in range(W + 1)] for _ in R)
    for buckets, part in zip(E, R):
        for (j, l, m), c in part.items():
            buckets[j + l + k * m][(j, l, m)] = c
    G = tuple({} for _ in R)
    wlow = _min_weight(R, k)
    if wlow is None:
        return G
    pp = _PowerProducts(bases, W, wlow, k)
    for mu in range(wlow, W + 1):
        S = tuple(_nonzero(buckets[mu]) for buckets in E)
        for buckets, g, s in zip(E, G, S):
            buckets[mu] = {}
            g.update(s)
        _substitute(S, k, pp, E, -1)
    if any(c for buckets in E for bucket in buckets for c in bucket.values()):
        raise InternalError("weight recursion (_unshift) left a residue")
    return G


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

@lru_cache(maxsize=None)
def _binomial_table(p: int, q: int) -> tuple:
    """The coefficients (lowest first) of (1 + X)^p (1 - X)^q, as ints."""
    out = [0] * (p + q + 1)
    for s in range(p + 1):
        for t in range(q + 1):
            out[s + t] += (-1) ** t * binom(p, s) * binom(q, t)
    return tuple(out)


def _z_to_xy(terms):
    """The sum of (nr + i ni) z^p zbar^q u^m over the given ((p, q, m), nr,
    ni), with int or frame values nr, ni, rewritten over x^j y^l u^m: the
    pair (re, im) of dicts, zeros left in."""
    re, im = {}, {}
    for (p, q, m), nr, ni in terms:
        rot = ((nr, ni), (-ni, nr), (-nr, -ni), (ni, -nr))  # i^r (nr + i ni)
        d = p + q
        for r, kr in enumerate(_binomial_table(p, q)):
            if kr:
                key = (d - r, r, m)
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
        for r, kr in enumerate(_binomial_table(p, q)):
            if kr:
                key = (r, d - r, m)
                out[key] = get(key, 0) + n * kr
    re, im = parts
    coeffs = {}
    for key in re.keys() | im.keys():
        nr, ni = re.get(key, 0), im.get(key, 0)
        if nr or ni:
            den = D << (key[0] + key[1])
            coeffs[key] = GaussRat(Fraction(nr, den), Fraction(ni, den))
    return ComplexSeries._raw(f.k, f.N, coeffs)


def to_real_basis(f: ComplexSeries) -> RealSeries:
    """Rewrite a complex-basis series over x, y, u.  The input must satisfy
    the reality symmetry c_{jlm} = conj(c_{ljm}); otherwise the substitution
    z = x + iy leaves imaginary parts and a StructuralError names the lowest
    such monomial (by weight, then key)."""
    D = lcm(*(x.denominator for c in f.coeffs.values() for x in (c.re, c.im)))
    re, im = _z_to_xy((key, c.re.numerator * (D // c.re.denominator),
                       c.im.numerator * (D // c.im.denominator))
                      for key, c in f.coeffs.items())
    bad = [key for key, v in im.items() if v]
    if bad:
        key = min(bad, key=lambda key: (f.weight(key), key))
        raise StructuralError(
            f"series is not real: monomial x^{key[0]} y^{key[1]} u^{key[2]} "
            f"has imaginary coefficient {Fraction(im[key], D)}")
    return RealSeries._raw(f.k, f.N, {key: Fraction(v, D) for key, v in re.items() if v})


def _restrict_frame(h, F: dict, k: int, W: int):
    """h(x + iy, u + iF) through weight W, in the frame: h is a complex frame
    value keyed (j, 0, m) and F a real one of min weight >= k; returns the
    pair (Re, Im).  z -> x + iy keeps weight (_z_to_xy), and iF is a complex
    increment of u of gain >= 0."""
    hr, hi = h
    P = _z_to_xy((key, hr.get(key, 0), hi.get(key, 0))
                 for key in hr.keys() | hi.keys() if key[0] + k * key[2] <= W)
    return _shifted(tuple(_nonzero(p) for p in P), k, ((), (), ({}, F)), W)


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
    if F.coeffs and F.min_weight() < k:
        raise StructuralError(
            f"graph has a monomial of weight {F.min_weight()} < k = {k}")
    # h stands for no particular weight (unit 0); v = F has the weight of u
    fr = Frame(k, h, F)
    re, im = _restrict_frame(fr.holo(h, 0), fr.real(F, k), k, N)
    return fr.real_out(re, 0, N), fr.real_out(im, 0, N)


# ---------------------------------------------------------------------------
# substitution u -> u + P(x, y, u)

def shift_u(F: RealSeries, P: RealSeries) -> RealSeries:
    """F(x, y, u + P) truncated at F.N.

    P must have minimal weight >= k (the weight of u): then the substitution
    never lowers the weight of a monomial and the truncated coefficients of
    the result are exact.
    """
    F._require_same(P)
    if P.is_zero():
        return F
    k, N = F.k, F.N
    pmin = P.min_weight()
    if pmin < k:
        raise StructuralError(
            f"shift_u needs a perturbation of weight >= k = {k}, got {pmin}")
    # F stands for no particular weight (unit 0), P for an increment of u
    fr = Frame(k, F, P)
    (out,) = _shifted((fr.real(F, 0),), k, ((), (), (fr.real(P, k),)), N)
    return fr.real_out(out, 0, N)


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


def scale_w(F, c):
    """Coefficient transform of v = F under w -> c*w (c real, nonzero):
    the image hypersurface is v = c^(1-m) applied per u-degree m.  F may be
    a RealSeries, ComplexSeries or HoloSeries; m is the last exponent of
    each key."""
    c = Fraction(c)
    if not c:
        raise StructuralError("w-scaling must be nonzero")
    return F.map_coeffs(lambda key, v: c ** (1 - key[-1]) * v)
