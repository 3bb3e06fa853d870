"""Normal-form solvers and condition checkers for graphs v = F(x, y, u)
whose leading term is x^k.

Three solvers share one engine: at each weight mu the unknown map
coefficients act linearly on the weight-mu part of the image, so the
normal-form conditions become a square linear system over the rationals.
Each solved form (t, rigid, nt) is written once, in _form, which both the
solver and check read.  The three solvers enter through one front door,
_normalize: it refuses input outside the form's class with the error _form
names, returns a bare model x^k as it is, and checks what it solves against
every condition of the form.  The system depends only on (k, mode, mu); one
cached record holds its rows, its slots, its int matrix, its inverse as
ints over one denominator and the frame keys of the rows and slots, so
normalizing many hypersurfaces of the same type costs one inversion per
weight.  The whole recursion runs in one integer frame (see
crnf.transform): the graph enters once, each weight's solution is applied
to it by the graph-transform kernel and composed into the map by the
compose kernel, and both leave the frame once, at the end.
"""

from fractions import Fraction
from math import comb, gcd

from .errors import (
    InternalError,
    NotRigidError,
    NotTransversallyFlatError,
    SingularSystemError,
    StructuralError,
    UnsupportedTypeError,
)
from .hypersurface import Hypersurface, essential_type
from .linsolve import invert
from .record import Record
from .series import Frame, GaussRat, RealSeries, _i_powers, _key, rat
from .transform import FormalMap, _compose_frame, _graph_transform


class NormalFormKind(Record):
    """Which set of vanishing conditions to enforce or check.

    The "t-ab" variant prescribes the two otherwise-normalized constants:
    the coefficient of x^(2k-1) is sent to A and that of x^(2k-1)y to B
    instead of zero.
    """

    __slots__ = ("tag", "A", "B")
    _defaults = {"A": None, "B": None}

    def __post_init__(self):
        if self.tag not in _CHECKERS:
            raise StructuralError(f"unknown normal form tag {self.tag!r}")
        if self.tag == "t-ab":
            if self.A is None or self.B is None:
                raise StructuralError("t-ab form needs both target constants")
            object.__setattr__(self, "A", rat(self.A))
            object.__setattr__(self, "B", rat(self.B))
        elif self.A is not None or self.B is not None:
            raise StructuralError(f"form {self.tag!r} takes no target constants")

    @classmethod
    def t_normal(cls):
        return cls("t")

    @classmethod
    def t_normal_ab(cls, A, B):
        return cls("t-ab", rat(A), rat(B))

    @classmethod
    def rigid_t(cls):
        return cls("rigid")

    @classmethod
    def nontransversal(cls):
        return cls("nt")

    @classmethod
    def stanton(cls):
        return cls("stanton")

    @classmethod
    def ko1_nontube(cls):
        return cls("ko1-nontube")

    @classmethod
    def ko1_tube(cls):
        return cls("ko1-tube")

    @classmethod
    def ko1_half_type(cls):
        return cls("ko1-half")


class Violation(Record):
    """One failed condition: the family label, the offending index, and the
    coefficient found there (Fraction in the xyu basis, GaussRat in zzu)."""

    __slots__ = ("family", "key", "value")


class NormalizationResult(Record):
    """The normalized graph H_normal, the map T that carries the input to
    it, and per_weight_report, a tuple of (weight, unknown count, condition
    count)."""

    __slots__ = ("H_normal", "T", "per_weight_report")


# ------------------------------------------------------- the solved forms

def _form(k, mode):
    """The normal form that check and the solver share for mode "t",
    "rigid" or "nt": (outside, families, frozen).

    outside is None or (index, label, error): a rigid tail has no u and an
    nt tail no y, so a tail monomial (j, l, m) positive at that index
    violates the class under label, and the solver refuses it with error.
    Each family (j, l, label) holds the in-class monomials x^j y^l u^m
    (every l when l is None) whose coefficients the form sends to zero; t-ab
    sends those of x^(2k-1) and x^(2k-1) y to its targets instead.  A
    monomial belongs to the first family that holds it.  frozen is None or
    the index in (j, m) of the exponent no z^j w^m of the map carries: a
    rigid map has no w, an nt map no z.
    """
    forms = {
        "t": (None, ((0, None, "X[0,l]"), (1, None, "X[1,l]"),
                     (k - 1, None, "X[k-1,l]"), (k, None, "X[k,l]"),
                     (2 * k - 1, 0, "X[2k-1,0]"), (2 * k - 1, 1, "X[2k-1,1]")),
              None),
        "rigid": ((2, "u-term", NotRigidError),
                  ((0, None, "A[0,l]"), (1, None, "A[1,l]"),
                   (k - 1, None, "A[k-1,l]"), (k, None, "A[k,l]")), 1),
        "nt": ((1, "y-term", NotTransversallyFlatError),
               ((0, None, "X[0]"), (k - 1, None, "X[k-1]"),
                (k, None, "X[k]"), (2 * k - 1, None, "X[2k-1]")), 0),
    }
    if mode not in forms:
        raise StructuralError(f"unknown solver mode {mode!r}")
    return forms[mode]


def _family(families, j, l):
    for fj, fl, label in families:
        if fj == j and fl in (None, l):
            return label
    return None


# ---------------------------------------------------------------- checkers

def _check_form(H, kind):
    outside, families, _ = _form(H.k, "t" if kind.tag == "t-ab" else kind.tag)
    n = 2 * H.k - 1
    targets = {(n, 0, 0): kind.A, (n, 1, 0): kind.B} if kind.tag == "t-ab" else {}
    out = []
    for key, c in H.tail().sorted_items():
        if outside and key[outside[0]]:
            out.append(Violation(outside[1], key, c))
            continue
        label = _family(families, key[0], key[1])
        if label and c != targets.pop(key, 0):
            out.append(Violation(label, key, c))
    # a target left over has no term in the tail: its coefficient is 0
    for key, want in targets.items():
        if want:
            out.append(Violation(_family(families, key[0], key[1]), key, Fraction(0)))
    return out


def _check_stanton(H, kind):
    out = []
    for (j, l, m), c in H.tail().sorted_items():
        if m > 0:
            out.append(Violation("u-term", (j, l, m), c))
    if out:
        return out
    ctail = H.complex_form() - H.leading_complex()
    for (j, l, m), c in ctail.sorted_items():
        if j in (0, 1):
            fam = "A[0,l]" if j == 0 else "A[1,l]"
            out.append(Violation(fam, (j, l, m), c))
    return out


def _check_ko1_half(H, kind):
    if H.k % 2 != 0:
        raise UnsupportedTypeError("half-type conditions need even k")
    half = H.k // 2
    out = []
    for (j, l, m), c in (H.complex_form() - H.leading_complex()).sorted_items():
        if l == 0:
            out.append(Violation("Z[j,0]", (j, l, m), c))
        elif j == half and l >= half:
            out.append(Violation("Z[e,e+j]", (j, l, m), c))
        elif (j, l) == (2 * half, 2 * half):
            out.append(Violation("Z[2e,2e]", (j, l, m), c))
        elif (j, l) == (3 * half, 3 * half):
            out.append(Violation("Z[3e,3e]", (j, l, m), c))
        elif (j, l) == (2 * half, 2 * half - 1):
            out.append(Violation("Z[2e,2e-1]", (j, l, m), c))
    return out


def _check_ko1_tube(H, kind):
    k = H.k
    out = []
    for (j, l, m), c in (H.complex_form() - H.leading_complex()).sorted_items():
        if l == 0:
            out.append(Violation("Z[j,0]", (j, l, m), c))
        elif j >= k - 1:
            out.append(Violation("Z[j>=k-1,l]", (j, l, m), c))
        elif (j, l) == (k - 2, 1) and not c.re == 0:
            # only the real part is constrained at this index
            out.append(Violation("Re Z[k-2,1]", (j, l, m), c.re))
    return out


def _check_ko1_nontube(H, kind):
    k = H.k
    lead = H.leading_complex()
    ctail = H.complex_form() - lead
    e = essential_type(lead)
    out = []
    model = {(j, l): c for (j, l, m), c in lead.sorted_items() if m == 0}
    for (j, l, m), c in ctail.sorted_items():
        if l == 0:
            out.append(Violation("Z[j,0]", (j, l, m), c))
        elif l == e and j >= k - e:
            out.append(Violation("Z[k-e+j,e]", (j, l, m), c))
        elif (j, l) == (2 * k - 2 * e, 2 * e):
            out.append(Violation("Z[2k-2e,2e]", (j, l, m), c))
    # the pairing of the (k-1)-level against the derivative of the model:
    # for each u-power the sum over j of Z_{j,k-1-j} (j+1) conj(a_{j+1})
    pair = {}
    for (j, l, m), c in ctail.sorted_items():
        if j + l == k - 1 and 1 <= j <= k - 2:
            a = model.get((j + 1, k - 1 - j))
            if a is not None:
                pair[m] = pair.get(m, GaussRat(0)) + c * a.conj() * (j + 1)
    for m in sorted(pair):
        if pair[m]:
            out.append(Violation("pairing", (m,), pair[m]))
    return out


# tag -> (whether the form needs leading term x^k, checker(H, kind))
_CHECKERS = {
    "t": (True, _check_form),
    "t-ab": (True, _check_form),
    "rigid": (True, _check_form),
    "nt": (True, _check_form),
    "stanton": (True, _check_stanton),
    "ko1-nontube": (False, _check_ko1_nontube),
    "ko1-tube": (False, _check_ko1_tube),
    "ko1-half": (False, _check_ko1_half),
}


def check(H: Hypersurface, kind: NormalFormKind):
    """List of violated conditions for the given normal form, empty iff H
    satisfies it through weight N.  The x^k-leading forms (t, t-ab, rigid,
    nt, stanton) require strict tube form; the complex-basis forms accept
    any leading with a mixed term and test the tail F minus the model."""
    strict, checker = _CHECKERS[kind.tag]
    if strict and not H.tube_form:
        raise StructuralError(f"form {kind.tag!r} needs leading term x^k")
    return checker(H, kind)


# ---------------------------------------------------------------- solver

_I = _i_powers(1, 0)  # i^q as (re, im)


def _condition_monomials(k, mode, mu):
    """The weight-mu monomials of the form's families, family by family,
    each in rising powers of u."""
    outside, families, _ = _form(k, mode)
    rows = []
    for j, l, _ in families:
        for m in range((mu - j) // k + 1):
            key = (j, mu - j - k * m, m)
            if l in (None, key[1]) and not (outside and key[outside[0]]):
                rows.append(key)
    return rows


def _unknown_slots(k, mode, mu):
    """The weight-mu coefficients of f (weight mu - k + 1) and g, each in
    rising powers of w, less those the form's frozen exponent excludes."""
    frozen = _form(k, mode)[2]
    slots = []
    for which, wt in (("f", mu - k + 1), ("g", mu)):
        for m in range(wt // k + 1):
            j = wt - k * m
            if frozen is None or not (j, m)[frozen]:
                slots.append((which, j, m))
    return [s + (part,) for s in slots for part in ("re", "im")]


def _column(k, which, j, m, part):
    """Weight-homogeneous action of a unit unknown on the image coefficients.

    A coefficient eps z^j w^m in g contributes -Im{eps (x+iy)^j (u+ix^k)^m}
    to the change of F at its weight; one in f contributes
    k x^(k-1) Re{eps (x+iy)^j (u+ix^k)^m}.  The image is F minus these.
    Every entry is an int: binomials times 0, +-1 or +-k.
    """
    col = {}
    for s in range(j + 1):
        cjs = comb(j, s)
        for t in range(m + 1):
            re, im = _I[(j - s + t) % 4]
            if which == "g":
                mono = (s + k * t, j - s, m - t)
                val = -im if part == "re" else -re
            else:
                mono = (k - 1 + s + k * t, j - s, m - t)
                val = k * re if part == "re" else -k * im
            if val:
                col[mono] = col.get(mono, 0) + cjs * comb(m, t) * val
    return col


_system_cache = {}


def weight_system(k, mode, mu):
    """The weight-mu linear system of mode "t", "rigid" or "nt", as one
    record (rows, slots, matrix, (delta, inverse), row_keys, slot_keys,
    irows), cached per (k, mode, mu).  The solvers reach mu = k + 1..N;
    mu <= k raises StructuralError.

    rows are condition monomials (j, l, m); slots are unknown labels
    ("f"|"g", j, m, "re"|"im"); matrix[r][c] is the int coefficient of slot
    c in the condition for row r, and inverse / delta is its inverse (int
    rows over their least common denominator).  The rest is what _solve
    reads on frame values: row_keys are the frame keys of the rows,
    slot_keys[c] is (which, part, key) for slot c with key the frame key of
    z^j w^m, and irows[r] lists the pairs (c, n) with inverse[r][c] = n != 0.
    """
    key = (k, mode, mu)
    hit = _system_cache.get(key)
    if hit is not None:
        return hit
    if mu <= k:
        raise StructuralError(f"weight {mu} <= k = {k}: no normalization system")
    rows = _condition_monomials(k, mode, mu)
    slots = _unknown_slots(k, mode, mu)
    if len(rows) != len(slots):
        raise SingularSystemError(
            f"weight {mu}: {len(slots)} unknowns against {len(rows)} conditions")
    cols = [_column(k, s[0], s[1], s[2], s[3]) for s in slots]
    matrix = [[col.get(r, 0) for col in cols] for r in rows]
    delta, inv = invert(matrix) if rows else (1, [])
    hit = _system_cache[key] = (
        rows, slots, matrix, (delta, inv),
        [_key(j, l, m, k) for j, l, m in rows],
        [(which, part, _key(j, 0, m, k)) for which, j, m, part in slots],
        [[(c, n) for c, n in enumerate(row) if n] for row in inv])
    return hit


def _solve(H, mode, targets):
    k, N = H.k, H.N
    A, B = targets if targets is not None else (0, 0)
    want = RealSeries(k, N, {(2 * k - 1, 0, 0): A, (2 * k - 1, 1, 0): B})
    # the graph, the targets and g have unit k, f has unit 1; the weight-mu
    # unknowns (f of weight mu - k + 1, g of weight mu) and the weight-mu
    # rows all enter with D^(mu - k), so each system is solved as it is
    fr = Frame(k, H.F, want)
    Fx, tx = fr.real(H.F, k), fr.real(want, k)
    f, g = ({}, {}), ({}, {})
    report = []
    for mu in range(k + 1, N + 1):
        rows, slots, _, (delta, _), row_keys, slot_keys, irows = \
            weight_system(k, mode, mu)
        report.append((mu, len(slots), len(rows)))
        rhs = [Fx.get(key, 0) - tx.get(key, 0) for key in row_keys]
        if not any(rhs):
            continue
        nums = [sum(n * rhs[c] for c, n in row) for row in irows]
        # the solution is nums / delta; in lowest terms its denominator is r
        r = delta // gcd(delta, *nums)
        if r != 1:
            fr.grow(r, (Fx, k), (tx, k), (f[0], 1), (f[1], 1), (g[0], k), (g[1], k))
        scale = r ** (mu - k)
        fmu, gmu = ({}, {}), ({}, {})
        for n, (which, part, key) in zip(nums, slot_keys):
            q, rem = divmod(n * scale, delta)
            if rem:
                raise InternalError(f"weight {mu} solution left the integer frame")
            if q:
                (fmu if which == "f" else gmu)[part == "im"][key] = q
        Fx = _graph_transform(Fx, fmu, gmu, k, N)
        f, g = _compose_frame(f, g, fmu, gmu, k, N)
    H_normal = Hypersurface(fr.real_out(Fx, k, N), _strict=H.tube_form)
    T = FormalMap(fr.holo_out(f, 1, N), fr.holo_out(g, k, N))
    return NormalizationResult(H_normal, T, tuple(report))


def _normalize(H: Hypersurface, mode, targets) -> NormalizationResult:
    """The one front door of the solvers: H is refused unless it is in
    strict tube form and in the class of mode, a bare model x^k is returned
    as it is, and any other input is solved and its normal form checked."""
    if not H.tube_form:
        raise StructuralError("normalization needs leading term x^k")
    outside = _form(H.k, mode)[0]
    if outside and any(key[outside[0]] for key in H.F.coeffs):
        raise outside[2](f"input depends on {'xyu'[outside[0]]}")
    kind = (NormalFormKind(mode) if targets is None
            else NormalFormKind.t_normal_ab(*targets))
    # strict tube form holds x^k, so the tail is zero iff x^k is all of F
    if len(H.F.coeffs) == 1 and not (kind.A or kind.B):
        return NormalizationResult(H, FormalMap.identity(H.k, H.N), ())
    res = _solve(H, mode, targets)
    if check(res.H_normal, kind):
        raise InternalError("solver left a violated condition")
    return res


def t_normalize(H: Hypersurface, targets=None) -> NormalizationResult:
    """The unique map (f, g) with no linear part taking H into the form
    where all x^0, x^1, x^(k-1), x^k coefficient families vanish along with
    the x^(2k-1) and x^(2k-1)y ones; optional targets (A, B) prescribe the
    latter two constants instead of zero."""
    return _normalize(H, "t", targets)


def rigid_normalize(H: Hypersurface) -> NormalizationResult:
    """Normalization within the rigid class: the map is z-only (f and g
    series in z alone) and removes the x^0, x^1, x^(k-1), x^k families."""
    return _normalize(H, "rigid", None)


def nt_normalize(H: Hypersurface) -> NormalizationResult:
    """Normalization within the y-independent class: the map is w-only
    (z* = z + psi(w), w* = w + phi(w)) and removes the x^0, x^(k-1), x^k,
    x^(2k-1) coefficient families."""
    return _normalize(H, "nt", None)
