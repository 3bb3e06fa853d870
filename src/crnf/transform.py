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

One substitution kernel: every binomial Taylor substitution of the package,
h(x + b1, y + b2, u + b3) expanded over cached power products of the
increments, runs in one kernel of crnf.series.  crnf.series._shifted
evaluates it for compose (h(z + f, w + g)), shift_u (F(x, y, u + P)), the
tube witness (G(ax - bF) = G_a(x + P), G_a(x) = G(ax), P = -(b/a) F) and
the restriction of f and g to the graph (h(x + iy, u + iF): z -> x + iy
is a basis change, and iF a complex increment of u).  crnf.series._unshift
solves it weight by weight for the graph transform (below) and inverse:
U^-1 = (z + phi, w + psi) has phi(z + f, w + g) = -f and
psi(z + f, w + g) = -g.

Weight budget: every product here is formed only through the weight its
consumer can use.  A substitution is wanted through weight W: N - k + 1
for the f part of a map (and for Re f|M, Im f|M in the graph transform),
and N otherwise.  The gain of an increment is its min weight less that of
the variable it replaces, and gmin is the smallest gain of a set of
increments.  A term of weight above W - gmin has no image through W, so
the kernel skips it unread, and _unshift substitutes its slices only up to
weight W - gmin.  The kernel groups the other terms by Taylor order t and
asks for the power product of t through W less the lowest weight among the
group's reduced terms, which is all the group's product reads of it.  A
power product is built from its predecessor through that bound less the
weight of the variable added.  One cache of power products
(crnf.series._PowerProducts) serves every substitution over one set of
increments within a call: the restrictions of f and g in the graph
transform share the powers of iF, the f and g halves of compose share one
set, and so do phi and psi in inverse.  The cache keeps each product with
its bound and rebuilds it when a later consumer needs more; no cache
outlives the call that made it.  Nothing above a budget can reach a kept
coefficient, so the results are the same as with products through N.  This
needs every gain >= 0 for _shifted (shift_u's -Re(c z^k) and the
restriction's iF have gain 0, so a graph may have no monomial below weight
k) and > 0 for _unshift (see there).

Integer frame: the six consumers of the kernel (the restriction to the
graph among them) run on Python ints.  Each conjugates its inputs by the
dilation z -> D z, w -> D^k w, where D is the lcm of the denominators of
every input coefficient (crnf.series.Frame).  Inside the frame a series is
a dict keyed by one int per monomial, (w << 2S) | (j << S) | l for
x^j y^l u^m of weight w (z^j w^m is x^j u^m), so a product of monomials is
a sum of keys, the weight is key >> 2S and ascending keys are in weight
order; N may not exceed crnf.series.FRAME_MAX_N.  A coefficient c on a
monomial of weight w becomes c D^(w - unit), where the unit is the weight
of what the series stands for:

    series                        unit   lowest w   w - unit
    graph F, image G, targets       k       k          >= 0
    g, psi, Re g|M, Im g|M          k       k + 1      >= 1
    f, phi, Re f|M, Im f|M          1       2          >= 1
    iF of the restriction           k       k          >= 0
    F of shift_u                    0       any        >= 0
    P of shift_u                    k       k          >= 0
    G_a of the tube witness         0       k          >= k
    P of the tube witness           1       k          >= k - 1

The conjugate of z + f, w + g is z + D^-1 f(D z, D^k w),
w + D^-k g(D z, D^k w), and every identity the kernels evaluate
(h(z + f, w + g), h(x + iy, u + iF), F(x, y, u + P), G_a(x + P) and the
graph equation below) is homogeneous in these units, so the kernels run
unchanged on the conjugated data.  A linear factor L acts the same way:
conjugating by L is the dilation D -> D delta (Frame.dilated) and the
quarter turn i^(rot (j - s)) of each value of z^j w^m, s = 1 for f and 0
for g, which swaps the real and imaginary slots with a sign
(crnf.series._turn).  compose enters the second map's f and g at D delta,
and inverse lets phi and psi leave from it.  Where w - unit >= 1 the
entry c D^(w - unit) is an integer, because the denominator of c divides D;
then every product, binomial and sum is an integer operation, and each
result coefficient leaves the frame once, as Fraction(n, D^(w - unit)).  No
dilation clears an entry with w - unit = 0, such as a weight-k coefficient
of the graph.  On the graphs the t-, rigid- and nt-normalizers work on
those are x^k = 1; a fractional model (normal coordinates, or a raw file
given to apply) keeps them as Fractions.  The kernels use only +, - and *
on values, so such an entry stays a Fraction, the values it touches become
Fractions, and the result is exact on the same code path.

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

from fractions import Fraction

from .errors import InternalError, StructuralError, UnsupportedTypeError
from .hypersurface import Hypersurface
from .record import Record
from .series import (
    Frame,
    GaussRat,
    HoloSeries,
    RealSeries,
    _PowerProducts,
    _acc_add,
    _restrict_frame,
    _shifted,
    _turn,
    _unshift,
)


class LinearFactor(Record):
    """z* = delta i^rot z, w* = delta^k w with delta a nonzero rational."""

    __slots__ = ("delta", "rot")
    _defaults = {"delta": Fraction(1), "rot": 0}

    def __post_init__(self):
        d = Fraction(self.delta)
        if d == 0:
            raise StructuralError("linear factor needs delta != 0")
        if not isinstance(self.rot, int):
            raise StructuralError("linear factor needs an integer rot")
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

    def __reduce__(self):
        return FormalMap, (self.f, self.g, self.linear)

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
        k, N, L = self.k, self.N, self.linear
        fr = Frame(k, self.f, self.g, other.f, other.g)
        # other's f and g, conjugated back through L, enter at D delta
        dil = fr.dilated(L.delta)
        f, g = _compose_frame(fr.holo(self.f, 1), fr.holo(self.g, k),
                              _turn(dil.holo(other.f, 1), L.rot, 1),
                              _turn(dil.holo(other.g, k), L.rot, 0), k, N)
        return FormalMap(fr.holo_out(f, 1, N), fr.holo_out(g, k, N),
                         L.compose(other.linear))

    def inverse(self) -> "FormalMap":
        """Exact inverse as a FormalMap at the same truncation."""
        k, N = self.k, self.N
        fr = Frame(k, self.f, self.g)
        # T^-1 = L^-1 o (L o U^-1 o L^-1): the conjugate leaves at D delta
        dil = fr.dilated(self.linear.delta)
        linv = self.linear.inverse()
        # phi(z + f, w + g) = -f through N - k + 1, psi(z + f, w + g) = -g
        pp = _PowerProducts((fr.holo(self.f, 1), (), fr.holo(self.g, k)), k)
        phi = _unshift(fr.holo(-self.f, 1), k, pp, N - k + 1)
        psi = _unshift(fr.holo(-self.g, k), k, pp, N)
        inv = FormalMap(dil.holo_out(_turn(phi, linv.rot, 1), 1, N),
                        dil.holo_out(_turn(psi, linv.rot, 0), k, N), linv)
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


def _compose_frame(f1: tuple, g1: tuple, f2: tuple, g2: tuple, k: int, N: int):
    """The unipotent parts (f, g) of z + f1, w + g1 followed by z + f2,
    w + g2, on complex frame values: f = f1 + f2(z + f1, w + g1) and
    g = g1 + g2(z + f1, w + g1)."""
    # f is kept only through N - k + 1 (see the module docstring)
    pp = _PowerProducts((f1, (), g1), k)
    return (_add_parts(f1, _shifted(f2, k, pp, N - k + 1)),
            _add_parts(g1, _shifted(g2, k, pp, N)))


def _add_parts(a: tuple, b: tuple) -> tuple:
    out = tuple(dict(p) for p in a)
    for o, p in zip(out, b):
        for key, c in p.items():
            _acc_add(o, key, c)
    return out


# ---------------------------------------------------------------------------
# graph transform (pushforward)

def apply_linear_series(F: RealSeries, L: LinearFactor) -> RealSeries:
    """Image of the graph v = F under the linear map z* = delta i^rot z,
    w* = delta^k w: c delta^(k - w), then rot steps x^j y^l -> (-1)^l x^l y^j."""
    if L.is_identity():
        return F
    k, d = F.k, L.delta
    out = {}
    scale = {}  # delta^(k - w) by weight w
    for (j, l, m), c in F.coeffs.items():
        w = j + l + k * m
        s = scale.get(w)
        if s is None:
            s = scale[w] = d ** (k - w)
        c *= s
        for _ in range(L.rot):
            j, l, c = l, j, -c if l & 1 else c
        _acc_add(out, (j, l, m), c)
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
    pp = _PowerProducts(((), (), ({}, Fx)), k)  # the powers of iF
    fre, fim = _restrict_frame(f, k, pp, N - k + 1)
    gre, gim = _restrict_frame(g, k, pp, N)
    pp = _PowerProducts(((fre,), (fim,), (gre,)), k)
    return _unshift(_add_parts((Fx,), (gim,)), k, pp, N)[0]


def pushforward(H: Hypersurface, T: FormalMap) -> Hypersurface:
    """Image hypersurface under T; its tube_form is computed, and strict
    tube form is preserved exactly when the linear factor fixes x^k (rot = 0,
    or rot = 2 with even k)."""
    return Hypersurface(pushforward_series(H.F, T), basis=H.basis, _strict=False)


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
