"""Holomorphic coordinate changes and their action on hypersurface graphs.

A map is stored in factored form T = L o U where

    U: z -> z + f(z, w),  w -> w + g(z, w)      (unipotent part)
    L: z -> delta i^rot z, w -> delta^k w        (linear part, applied after U)

with f of weight >= 2 and g of weight >= k + 1.  Such maps preserve the
class of graphs v = F(x, y, u) whose lowest-weight part is homogeneous of
weight k, and act triangularly on weights, which is what makes the exact
truncated computation possible: coefficients of f beyond weight N - k + 1
and of g beyond weight N cannot influence the image graph through weight N,
so FormalMap drops them canonically and equality of maps is structural.

Weight budget: every product here is formed only through the weight its
consumer can use.  A product that stands in for factors of total weight v
inside a consumer term of weight w, where the consumer is wanted through
weight W, is kept through W - w + v, capped at W (itself at most N).  For
the power products of one substitution, w is the lowest weight among the
consumer terms (the min weight of the substituted series for compose and
inverse, k for the slices of the graph transform), and W is N - k + 1 for
the f part of a map (and for Re f|M, Im f|M in the graph transform) and N
otherwise.  Nothing above a budget can reach a kept coefficient, so the
results are the same as with products through N.

Integer frame: the graph transform, compose and inverse run on Python ints.
Each conjugates its inputs by the dilation z -> D z, w -> D^k w, where D is
the lcm of the denominators of every input coefficient (crnf.series.Frame).
A coefficient c on a monomial of weight w becomes c D^(w - unit), where the
unit is the weight of what the series stands for:

    series                        unit   lowest w   w - unit
    graph F, image G, targets       k       k          >= 0
    g, psi, Re g|M, Im g|M          k       k + 1      >= 1
    f, phi, Re f|M, Im f|M          1       2          >= 1

(phi and psi are the iterates of inverse).  The conjugate of z + f, w + g is
z + D^-1 f(D z, D^k w), w + D^-k g(D z, D^k w), and every identity the
kernels evaluate (h(z + f, w + g), h(x + iy, u + iF), and the graph
equation below) is homogeneous in these units, so the kernels run unchanged
on the conjugated data.  Where w - unit >= 1 the entry c D^(w - unit) is an
integer, because the denominator of c divides D; then every product,
binomial and sum is an integer operation, and each result coefficient leaves
the frame once, as Fraction(n, D^(w - unit)).  No dilation clears the
weight-k coefficients of the graph (w - unit = 0).  On the graphs the t-,
rigid- and nt-normalizers work on they are x^k = 1; a fractional model
(normal coordinates, or a raw file given to apply) keeps them as
Fractions.  The kernels use only +, - and * on values, so such an entry
stays a Fraction, the values it touches become Fractions, and the result
is exact on the same code path.

The normalizers of crnf.normalize keep one frame for their whole weight
recursion.  The graph and the target constants of t-ab enter it once, and D
starts as the lcm of their denominators; the map built so far lives in it
with the units above.  At weight mu the unknowns (f of weight mu - k + 1,
g of weight mu) and the condition rows all carry D^(mu - k), so the system
is solved on frame values as it stands.  When a solution has a denominator
r != 1 there, D grows to r D (Frame.grow) and every value held is multiplied
by r^(w - unit), which keeps it an integer.  D grows only by what the
solutions need, so frame values stay far smaller than with a fresh frame
per weight.  The graph and the map leave the frame once, at the end.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb as binom

from .errors import InternalError, StructuralError, UnsupportedTypeError
from .hypersurface import Hypersurface
from .series import (
    Frame,
    GaussRat,
    HoloSeries,
    RealSeries,
    _acc_add,
    _min_weight,
    _mul_parts,
    _nonzero,
    _restrict_frame,
    _terms,
)


@dataclass(frozen=True)
class LinearFactor:
    """z* = delta i^rot z, w* = delta^k w with delta a nonzero rational."""
    delta: Fraction = Fraction(1)
    rot: int = 0

    def __post_init__(self):
        d = Fraction(self.delta)
        if d == 0:
            raise StructuralError("linear factor needs delta != 0")
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "rot", self.rot % 4)

    def is_identity(self) -> bool:
        return self.delta == 1 and self.rot == 0

    def z_factor(self) -> GaussRat:
        return GaussRat(self.delta).times_i_power(self.rot)

    def w_factor(self, k: int) -> Fraction:
        return self.delta ** k

    def compose(self, other: "LinearFactor") -> "LinearFactor":
        """self applied first, then other (the two commute)."""
        return LinearFactor(self.delta * other.delta, self.rot + other.rot)

    def inverse(self) -> "LinearFactor":
        return LinearFactor(1 / self.delta, -self.rot)


def _check_keys(name: str, h: HoloSeries, low: int):
    mw = h.min_weight()
    if mw is not None and mw < low:
        raise StructuralError(f"{name} must have weight >= {low}; found weight {mw}")


class FormalMap:
    """Factored coordinate change T = L o U, truncated at weight N."""

    __slots__ = ("k", "N", "f", "g", "linear")

    def __init__(self, f: HoloSeries, g: HoloSeries, linear: LinearFactor = None):
        if f.k != g.k or f.N != g.N:
            raise StructuralError("f and g must share k and N")
        k, N = f.k, f.N
        _check_keys("f", f, 2)
        _check_keys("g", g, k + 1)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "f", f.drop_above(N - k + 1))
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "linear", linear if linear is not None else LinearFactor())

    def __setattr__(self, name, value):
        raise AttributeError("FormalMap is immutable; build a new one")

    @classmethod
    def identity(cls, k, N):
        return cls(HoloSeries.zero(k, N), HoloSeries.zero(k, N))

    @classmethod
    def from_parts(cls, k, N, f_coeffs=None, g_coeffs=None, linear=None):
        return cls(HoloSeries(k, N, f_coeffs), HoloSeries(k, N, g_coeffs), linear)

    def is_identity(self) -> bool:
        return self.f.is_zero() and self.g.is_zero() and self.linear.is_identity()

    def is_unipotent(self) -> bool:
        return self.linear.is_identity()

    def truncate(self, N2: int) -> "FormalMap":
        if N2 == self.N:
            return self
        return FormalMap(self.f.truncate(min(self.f.N, N2)),
                         self.g.truncate(N2), self.linear)

    def compose(self, other: "FormalMap") -> "FormalMap":
        """The map 'self first, then other' in the same factored form."""
        if self.k != other.k or self.N != other.N:
            raise StructuralError("cannot compose maps with different k or N")
        # conjugate other's unipotent part back through self's linear factor:
        # f'(z,w) = lz^-1 f2(lz z, lw w), g'(z,w) = lw^-1 g2(lz z, lw w)
        f2 = _scale_args(other.f, self.linear, -1, 0)
        g2 = _scale_args(other.g, self.linear, 0, -1)
        k, N = self.k, self.N
        fr = Frame(k, self.f, self.g, f2, g2)
        f, g = _compose_frame(fr.holo(self.f, 1), fr.holo(self.g, k),
                              fr.holo(f2, 1), fr.holo(g2, k), k, N)
        return FormalMap(fr.holo_out(f, 1, N), fr.holo_out(g, k, N),
                         self.linear.compose(other.linear))

    def inverse(self) -> "FormalMap":
        """Exact inverse as a FormalMap at the same truncation."""
        k, N = self.k, self.N
        fr = Frame(k, self.f, self.g)
        # phi = -f(z + phi, w + psi), psi = -g(z + phi, w + psi)
        f, g = fr.holo(-self.f, 1), fr.holo(-self.g, k)
        zero = ({}, {})
        phi, psi = zero, zero
        for _ in range(N):
            phi2 = _shift_args(f, phi, psi, k, N - k + 1)
            psi2 = _shift_args(g, phi, psi, k, N)
            if phi2 == phi and psi2 == psi:
                break
            phi, psi = phi2, psi2
        phi, psi = fr.holo_out(phi, 1, N), fr.holo_out(psi, k, N)
        linv = self.linear.inverse()
        # T^-1 = L^-1 o (L o U^-1 o L^-1): conjugate U^-1 forward through L
        fi = _scale_args(phi, linv, -1, 0)
        gi = _scale_args(psi, linv, 0, -1)
        inv = FormalMap(fi, gi, linv)
        if not self.compose(inv).is_identity():
            raise InternalError("map inversion failed")
        return inv

    def __eq__(self, other):
        if not isinstance(other, FormalMap):
            return NotImplemented
        return (self.k == other.k and self.N == other.N and self.f == other.f
                and self.g == other.g and self.linear == other.linear)

    __hash__ = None

    def __repr__(self):
        return (f"FormalMap(k={self.k}, N={self.N}, |f|={len(self.f.coeffs)}, "
                f"|g|={len(self.g.coeffs)}, linear={self.linear})")


def _scale_args(h: HoloSeries, L: LinearFactor, s1: int, s2: int) -> HoloSeries:
    """Coefficients h_{jm} -> lz^(j+s1) lw^(m+s2) h_{jm}, where lz = delta i^rot
    and lw = delta^k are L's factors: delta^(j+s1+k(m+s2)) times a quarter
    turn i^(rot (j+s1))."""
    if L.is_identity():
        return h
    k, d, rot = h.k, L.delta, L.rot
    return h.map_coeffs(lambda key, c: (c * d ** (key[0] + s1 + k * (key[1] + s2)))
                        .times_i_power(rot * (key[0] + s1)))


def _compose_frame(f1: tuple, g1: tuple, f2: tuple, g2: tuple, k: int, N: int):
    """The unipotent parts (f, g) of z + f1, w + g1 followed by z + f2,
    w + g2, on complex frame values: f = f1 + f2(z + f1, w + g1) and
    g = g1 + g2(z + f1, w + g1)."""
    # f is kept only through N - k + 1 (see the module docstring)
    return (_add_parts(f1, _shift_args(f2, f1, g1, k, N - k + 1)),
            _add_parts(g1, _shift_args(g2, f1, g1, k, N)))


def _add_parts(a: tuple, b: tuple) -> tuple:
    out = tuple(dict(p) for p in a)
    for o, p in zip(out, b):
        for key, c in p.items():
            _acc_add(o, key, c)
    return out


def _shift_args(h: tuple, df: tuple, dg: tuple, k: int, W: int) -> tuple:
    """h(z + df, w + dg) through weight W, on complex frame values.

    h's own terms are kept whatever their weight.  df and dg must have min
    weights >= 2 and >= k+1 respectively so every substituted factor strictly
    raises the weight.
    """
    hr, hi = h
    out_r, out_i = dict(hr), dict(hi)
    wlow = _min_weight(h, k)
    if wlow is None or not (any(df) or any(dg)):
        return out_r, out_i
    pp = _PowerProducts((df, dg), (1, k), W, wlow, k)
    gain_f, gain_g = pp.gains
    # a real coefficient c of h adds c P to the result, an imaginary one i c
    # adds i c P: routes (part of P, target, sign) for each
    for part, routes in ((hr, ((0, out_r, 1), (1, out_i, 1))),
                         (hi, ((0, out_i, 1), (1, out_r, -1)))):
        for (j, _, m), c in part.items():
            w = j + k * m
            for t1 in range(j + 1 if gain_f is not None else 1):
                extra1 = t1 * gain_f if t1 else 0
                if w + extra1 > W:
                    break
                for t2 in range(m + 1 if gain_g is not None else 1):
                    if w + extra1 + (t2 * gain_g if t2 else 0) > W:
                        break
                    if t1 == 0 and t2 == 0:
                        continue
                    cb = c * binom(j, t1) * binom(m, t2)
                    jb, mb = j - t1, m - t2
                    budget = W - (jb + k * mb)
                    terms = pp.items((t1, t2))
                    for p, out, sign in routes:
                        cs = cb if sign > 0 else -cb
                        get = out.get
                        for pw, pj, _, pm, pc in terms[p]:
                            if pw > budget:
                                break
                            key = (jb + pj, 0, mb + pm)
                            out[key] = get(key, 0) + cs * pc
    return _nonzero(out_r), _nonzero(out_i)


class _PowerProducts:
    """Lazily cached products b1^t1 b2^t2 ... of substitution increments b_i,
    each standing in for a variable of weight unit_i.  The bases are frame
    values: (re,) for a real increment, (re, im) for a complex one.

    Every consumer term has weight >= wlow and is wanted through weight W, so
    the product for (t1, t2, ...) is built only through
    min(W, W - wlow + t1 unit_1 + t2 unit_2 + ...).  Each base must have min
    weight > its unit; then a product built from its predecessor is exact
    through its own bound.
    """

    def __init__(self, bases, units, W, wlow, k):
        self.bases = bases
        self.units = units
        self.W = W
        self.wlow = wlow
        self.k = k
        # weight gained per factor over the variable it replaces; None when
        # the base is identically zero
        self.gains = tuple(None if (w := _min_weight(b, k)) is None else w - u
                           for b, u in zip(bases, units))
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
                cur = _mul_parts(self.product(prev), self.bases[i], bound, self.k)
            else:
                cur = self.bases[i]
            self.cache[t] = cur
        return cur

    def items(self, t):
        """The product's parts, each as (weight, j, l, m, c) ascending in weight."""
        cur = self.by_weight.get(t)
        if cur is None:
            cur = tuple(_terms(p, self.k) for p in self.product(t))
            self.by_weight[t] = cur
        return cur


# ---------------------------------------------------------------------------
# graph transform (pushforward)

def _perturb(D: dict, k: int, pp: _PowerProducts, E: list):
    """Subtract D(x + s, y + q, u + r) - D from E, through weight pp.W.

    D maps the frame monomials of one weight >= k to their values; E[w] holds
    the frame coefficients of weight w.  The perturbation has weight > D's,
    so it never touches D's own bucket.
    """
    N = pp.W
    g1, g2, g3 = pp.gains
    for (j, l, m), c in D.items():
        w = j + l + k * m
        for t1 in range(j + 1 if g1 is not None else 1):
            e1 = w + (t1 * g1 if t1 else 0)
            if e1 > N:
                break
            for t2 in range(l + 1 if g2 is not None else 1):
                e2 = e1 + (t2 * g2 if t2 else 0)
                if e2 > N:
                    break
                for t3 in range(m + 1 if g3 is not None else 1):
                    if e2 + (t3 * g3 if t3 else 0) > N:
                        break
                    if t1 == 0 and t2 == 0 and t3 == 0:
                        continue
                    cb = -c * binom(j, t1) * binom(l, t2) * binom(m, t3)
                    jb, lb, mb = j - t1, l - t2, m - t3
                    wb = jb + lb + k * mb
                    budget = N - wb
                    (terms,) = pp.items((t1, t2, t3))
                    for pw, pj, pl, pm, pc in terms:
                        if pw > budget:
                            break
                        bucket = E[wb + pw]
                        key = (jb + pj, lb + pl, mb + pm)
                        bucket[key] = bucket.get(key, 0) + cb * pc


def apply_linear_series(F: RealSeries, L: LinearFactor) -> RealSeries:
    """Image of the graph v = F under the linear map z* = delta i^rot z,
    w* = delta^k w, as a coefficient transform."""
    if L.is_identity():
        return F
    k = F.k
    d = L.delta
    rot = L.rot
    out = {}
    for (j, l, m), c in F.coeffs.items():
        e = k - j - l - k * m
        v = c * d ** e
        if rot == 0:
            key = (j, l, m)
        elif rot == 2:
            key = (j, l, m)
            if (j + l) % 2:
                v = -v
        elif rot == 1:
            key = (l, j, m)
            if l % 2:
                v = -v
        else:  # rot == 3
            key = (l, j, m)
            if j % 2:
                v = -v
        _acc_add(out, key, v)
    return RealSeries._raw(k, F.N, out)


def pushforward_series(F: RealSeries, T: FormalMap) -> RealSeries:
    """The image graph of v = F under T, exact through weight F.N.

    F may have any homogeneous leading structure of weight >= k; the image
    series G is the unique solution of

        G(x + Re f|M, y + Im f|M, u + Re g|M) = F + Im g|M

    followed by the coefficient action of the linear factor.  The solution
    is found by weight recursion; the defining identity is checked to hold
    exactly through weight N before returning.
    """
    k, N = F.k, F.N
    if T.k != k:
        raise StructuralError(f"map k = {T.k} does not match series k = {k}")
    if T.N < N:
        raise StructuralError(f"map truncation {T.N} is below series N = {N}")
    Tt = T.truncate(N) if T.N > N else T

    G = F
    if not (Tt.f.is_zero() and Tt.g.is_zero()):
        if F.coeffs and F.min_weight() < k:
            raise StructuralError(
                f"graph has a monomial of weight {F.min_weight()} < k = {k}")
        fr = Frame(k, F, Tt.f, Tt.g)
        G = fr.real_out(_graph_transform(fr.real(F, k), fr.holo(Tt.f, 1),
                                         fr.holo(Tt.g, k), k, N), k, N)
    return apply_linear_series(G, Tt.linear)


def _graph_transform(Fx: dict, f: tuple, g: tuple, k: int, N: int) -> dict:
    """The image graph of the frame graph Fx (no monomial below weight k)
    under z + f, w + g, on frame values: the solution G of
    G(x + Re f|M, y + Im f|M, u + Re g|M) = F + Im g|M through weight N."""
    # Re/Im f|M replace x and y in slices of weight >= k, so only their
    # weights <= N - k + 1 can reach the image
    fre, fim = _restrict_frame(f, Fx, k, N - k + 1)
    gre, gim = _restrict_frame(g, Fx, k, N)
    # every slice fed to _perturb has weight >= k
    pp = _PowerProducts(((fre,), (fim,), (gre,)), (1, 1, k), N, k, k)
    E = [{} for _ in range(N + 1)]
    for S in (Fx, gim):
        for (j, l, m), c in S.items():
            bucket = E[j + l + k * m]
            bucket[(j, l, m)] = bucket.get((j, l, m), 0) + c
    acc = {}
    for mu in range(k, N + 1):
        D = _nonzero(E[mu])
        E[mu] = {}
        if not D:
            continue
        acc.update(D)
        _perturb(D, k, pp, E)
    if any(c for bucket in E for c in bucket.values()):
        raise InternalError("graph transform recursion left a residue")
    return acc


def pushforward(H: Hypersurface, T: FormalMap) -> Hypersurface:
    """Image hypersurface under T; strict tube form is preserved exactly
    when the linear factor fixes x^k (rot = 0, or rot = 2 with even k)."""
    G = pushforward_series(H.F, T)
    return Hypersurface(G, basis=H.basis, _strict=H.tube_form)


def model_automorphism(k: int, N: int, delta=1, rot: int = 0, mu=0) -> FormalMap:
    """The symmetry z* = delta i^rot z (1 + mu w)^(-1/e), w* = delta^k w /
    (1 + mu w) of the model v = |z|^k, for even k with e = k/2.

    mu is any rational; the fractional binomial series is exact.  For odd k
    the model has no such one-parameter family and UnsupportedTypeError is
    raised.
    """
    if k % 2:
        raise UnsupportedTypeError(
            f"model automorphism family needs even k, got {k}")
    e = k // 2
    mu = Fraction(mu)
    fc = {}
    gc = {}
    if mu:
        a = Fraction(-1, e)
        coef = Fraction(1)
        mpow = Fraction(1)
        for m in range(1, N // k + 1):
            coef = coef * (a - (m - 1)) / m   # C(-1/e, m)
            mpow *= mu
            if 1 + k * m <= N - k + 1:
                fc[(1, m)] = GaussRat(coef * mpow)
            if k * (m + 1) <= N:
                gc[(0, m + 1)] = GaussRat(-mpow if m % 2 else mpow)
    return FormalMap(HoloSeries(k, N, fc), HoloSeries(k, N, gc),
                     LinearFactor(delta, rot))
