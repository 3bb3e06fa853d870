"""Independent brute-force polynomial engine used as a test oracle.

Deliberately shares no code with the package: plain dicts keyed by
(j, l, m) exponent tuples, coefficients stored as (re, im) pairs of
Fractions, no weight recursion.  The only truncation is a weight bound on
products (pmul, ppow), which drops a monomial above weight N as it is
formed; that is exact because every weight is >= 0 and weights only add.
Slow and simple.
"""

from fractions import Fraction
from math import comb

CZERO = (Fraction(0), Fraction(0))
CONE = (Fraction(1), Fraction(0))
CI = (Fraction(0), Fraction(1))


def cnum(re, im=0):
    return (Fraction(re), Fraction(im))


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def cmulc(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cconj(a):
    return (a[0], -a[1])


# polynomials: dict (j, l, m) -> (re, im); zero coefficients may linger,
# pclean strips them before comparisons

def pclean(P):
    return {key: c for key, c in P.items() if c[0] != 0 or c[1] != 0}


def padd(P, Q):
    out = dict(P)
    for key, c in Q.items():
        out[key] = cadd(out.get(key, CZERO), c)
    return out


def psub(P, Q):
    out = dict(P)
    for key, c in Q.items():
        out[key] = csub(out.get(key, CZERO), c)
    return out


def pscale(P, c):
    return {key: cmulc(v, c) for key, v in P.items()}


def pmul(P, Q, k=None, N=None):
    """P * Q; given k and N, no monomial of weight j + l + k m > N is formed."""
    out = {}
    for (j1, l1, m1), c1 in P.items():
        if c1 == CZERO:
            continue
        for (j2, l2, m2), c2 in Q.items():
            key = (j1 + j2, l1 + l2, m1 + m2)
            if N is not None and key[0] + key[1] + k * key[2] > N:
                continue
            out[key] = cadd(out.get(key, CZERO), cmulc(c1, c2))
    return out


def ppow(P, n, k=None, N=None):
    out = {(0, 0, 0): CONE}
    for _ in range(n):
        out = pmul(out, P, k, N)
    return out


def ptrunc(P, k, N):
    return {key: c for key, c in pclean(P).items()
            if key[0] + key[1] + k * key[2] <= N}


def preal_part(P):
    return {key: (c[0], Fraction(0)) for key, c in P.items() if c[0] != 0}


def pimag_part(P):
    return {key: (c[1], Fraction(0)) for key, c in P.items() if c[1] != 0}


X = {(1, 0, 0): CONE}
Y = {(0, 1, 0): CONE}
U = {(0, 0, 1): CONE}
Z = padd(X, pscale(Y, CI))          # x + iy
ZBAR = psub(X, pscale(Y, CI))       # x - iy


def from_real_series(s):
    """Plain dict from a package RealSeries (boundary conversion only)."""
    return {key: (Fraction(c), Fraction(0)) for key, c in s.coeffs.items()}


def from_complex_series(s):
    return {key: (c.re, c.im) for key, c in s.coeffs.items()}


def real_dict(P):
    """Check every coefficient is real and strip the imaginary slot."""
    out = {}
    for key, c in pclean(P).items():
        assert c[1] == 0, f"imaginary residue at {key}: {c}"
        out[key] = c[0]
    return out


def eq_real(P, series):
    """Compare an oracle polynomial against a package RealSeries after
    truncating the oracle side at the series truncation weight."""
    want = real_dict(ptrunc(P, series.k, series.N))
    got = {key: c for key, c in series.coeffs.items()}
    return want == got


def restrict_oracle(hcoeffs, k, Fdict, N):
    """h(x+iy, u+iF) for h given as dict (j, m) -> (re, im).

    Returns the pair (Re, Im) as plain real-coefficient dicts truncated at
    weight N.  Computed by expansion of powers, each product bounded at N.
    """
    W = padd(U, pscale(Fdict, CI))
    total = {}
    for (j, m), c in hcoeffs.items():
        term = pmul(ppow(Z, j, k, N), ppow(W, m, k, N), k, N)
        total = padd(total, pscale(term, c))
    total = ptrunc(total, k, N)
    re = {key: c[0] for key, c in total.items() if c[0] != 0}
    im = {key: c[1] for key, c in total.items() if c[1] != 0}
    return re, im


def subst_xyu(P, k, Xs, Ys, Us, N):
    """P(Xs, Ys, Us) truncated at weight N; the substitutes are plain
    complex-coefficient dicts."""
    # cache powers as they grow
    xp = {0: {(0, 0, 0): CONE}}
    yp = {0: {(0, 0, 0): CONE}}
    up = {0: {(0, 0, 0): CONE}}

    def power(cache, base, n):
        if n not in cache:
            cache[n] = pmul(power(cache, base, n - 1), base, k, N)
        return cache[n]

    out = {}
    for (j, l, m), c in P.items():
        term = pmul(power(xp, Xs, j), power(yp, Ys, l), k, N)
        term = pmul(term, power(up, Us, m), k, N)
        out = padd(out, pscale(term, c))
    return ptrunc(out, k, N)


def pushforward_oracle(Fdict, k, N, fcoeffs, gcoeffs):
    """Graph transform oracle: the image of v = F under the holomorphic map
    z* = z + f(z, w), w* = w + g(z, w), determined weight by weight from the
    identity  F*(x + Re f|M, y + Im f|M, u + Re g|M) = F + Im g|M.

    All arithmetic here is the naive engine above.  Returns a plain real
    dict for F*, truncated at weight N.
    """
    fre, fim = restrict_oracle(fcoeffs, k, Fdict, N)
    gre, gim = restrict_oracle(gcoeffs, k, Fdict, N)
    tocplx = lambda d: {key: (c, Fraction(0)) for key, c in d.items()}
    P = padd(X, tocplx(fre))
    Q = padd(Y, tocplx(fim))
    R = padd(U, tocplx(gre))
    S = padd(Fdict, tocplx(gim))
    S = ptrunc(S, k, N)

    Fstar = {}
    for mu in range(k, N + 1):
        lhs = subst_xyu(Fstar, k, P, Q, R, N)
        resid = ptrunc(psub(S, lhs), k, N)
        for key, c in resid.items():
            if key[0] + key[1] + k * key[2] == mu:
                Fstar[key] = c
    # final consistency: the identity must hold exactly through weight N
    lhs = subst_xyu(Fstar, k, P, Q, R, N)
    assert pclean(ptrunc(psub(S, lhs), k, N)) == {}, "oracle pushforward failed"
    return real_dict(Fstar)


def compose_oracle(f1, g1, f2, g2, k, N, lz=CONE, lw=Fraction(1)):
    """Unipotent parts (f, g) of 'T1 first, then T2' for the maps
    T1: z -> lz (z + f1), w -> lw (w + g1) and T2: z -> z + f2, w -> w + g2
    (a linear factor of T2 only multiplies the result and is left out):

        f = f1 + f2(Z, W) / lz,   g = g1 + g2(Z, W) / lw,
        Z = lz (z + f1),          W = lw (w + g1).

    Maps are dicts (j, m) -> (re, im) for z^j w^m.  The substitution is
    expansion of powers with each product bounded at weight N; f is cut at
    weight N - k + 1 and g at N at the end.
    """
    hol = lambda h: {(j, 0, m): c for (j, m), c in h.items()}
    Zs = pscale(padd({(1, 0, 0): CONE}, hol(f1)), lz)
    Ws = pscale(padd({(0, 0, 1): CONE}, hol(g1)), cnum(lw))

    def subst(h):
        out = {}
        for (j, m), c in h.items():
            out = padd(out, pscale(pmul(ppow(Zs, j, k, N), ppow(Ws, m, k, N), k, N), c))
        return out

    n2 = lz[0] * lz[0] + lz[1] * lz[1]
    lz_inv = (lz[0] / n2, -lz[1] / n2)
    f = padd(hol(f1), pscale(subst(f2), lz_inv))
    g = padd(hol(g1), pscale(subst(g2), cnum(1 / Fraction(lw))))
    back = lambda P, cut: {(j, m): c for (j, _, m), c in ptrunc(P, k, cut).items()}
    return back(f, N - k + 1), back(g, N)


def solve_exact(matrix, rhs):
    """Tiny independent Gaussian elimination over Fraction.

    matrix: list of rows (lists of Fraction), rhs: list of Fraction.
    Returns the unique solution or raises ValueError when the system is
    singular or inconsistent.
    """
    n = len(matrix)
    if n == 0:
        return []
    m = len(matrix[0])
    A = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(matrix, rhs)]
    row = 0
    pivots = []
    for col in range(m):
        piv = None
        for r in range(row, n):
            if A[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        pv = A[row][col]
        A[row] = [a / pv for a in A[row]]
        for r in range(n):
            if r != row and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    for r in range(row, n):
        if A[r][m] != 0:
            raise ValueError("inconsistent system")
    if len(pivots) < m:
        raise ValueError("singular system")
    x = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        x[col] = A[r][m]
    return x


def compose_univariate(outer, inner):
    """outer(inner(x)) for univariate dicts {degree: Fraction}, untruncated."""
    out = {}
    powers = {0: {0: Fraction(1)}}

    def power(n):
        if n not in powers:
            prev = power(n - 1)
            cur = {}
            for d1, c1 in prev.items():
                for d2, c2 in inner.items():
                    cur[d1 + d2] = cur.get(d1 + d2, Fraction(0)) + c1 * c2
            powers[n] = cur
        return powers[n]

    for d, c in outer.items():
        for dd, cc in power(d).items():
            out[dd] = out.get(dd, Fraction(0)) + c * cc
    return {d: c for d, c in out.items() if c != 0}


# ------------------------------------------------------- brute normalizer

def conditions_at(k, mode, mu):
    """Weight-mu condition monomials for the three normal forms, enumerated
    directly from the definitions."""
    rows = []
    if mode == "t":
        for j in (0, 1, k - 1, k):
            m = 0
            while j + k * m <= mu:
                rows.append((j, mu - j - k * m, m))
                m += 1
        for l in (0, 1):
            m, w = 0, 2 * k - 1 + l
            while w + k * m <= mu:
                if w + k * m == mu:
                    rows.append((2 * k - 1, l, m))
                m += 1
    elif mode == "rigid":
        rows = [(j, mu - j, 0) for j in (0, 1, k - 1, k)]
    elif mode == "nt":
        for j in (0, k - 1, k, 2 * k - 1):
            if (mu - j) % k == 0 and mu >= j:
                rows.append((j, 0, (mu - j) // k))
    return rows


def slots_at(k, mode, mu):
    """Unknown map coefficients available at weight mu, split into real and
    imaginary parts."""
    pairs = []
    if mode == "t":
        for m in range((mu - k + 1) // k + 1):
            pairs.append(("f", mu - k + 1 - k * m, m))
        for m in range(mu // k + 1):
            pairs.append(("g", mu - k * m, m))
    elif mode == "rigid":
        pairs = [("f", mu - k + 1, 0), ("g", mu, 0)]
    elif mode == "nt":
        if (mu - k + 1) % k == 0:
            pairs.append(("f", 0, (mu - k + 1) // k))
        if mu % k == 0:
            pairs.append(("g", 0, mu // k))
    return [p + (part,) for p in pairs for part in ("re", "im")]


def oracle_normalize(Freal, k, N, mode="t", targets=(Fraction(0), Fraction(0))):
    """Brute-force normalization: per weight, measure the effect of each
    unknown by a full pushforward and solve the square system by
    elimination.  Returns (normalized real dict, per-weight piece list).
    """
    cur = dict(Freal)
    pieces = []
    for mu in range(k + 1, N + 1):
        rows = conditions_at(k, mode, mu)
        slots = slots_at(k, mode, mu)
        if not rows:
            assert not slots
            continue
        ccur = {key: (v, Fraction(0)) for key, v in cur.items()}
        cols = []
        for which, j, m, part in slots:
            one = (Fraction(1), Fraction(0)) if part == "re" else (Fraction(0), Fraction(1))
            fc = {(j, m): one} if which == "f" else {}
            gc = {(j, m): one} if which == "g" else {}
            img = pushforward_oracle(ccur, k, N, fc, gc)
            cols.append([img.get(r, Fraction(0)) - cur.get(r, Fraction(0)) for r in rows])
        want = []
        for r in rows:
            t = Fraction(0)
            if mode == "t":
                if r == (2 * k - 1, 0, 0):
                    t = targets[0]
                elif r == (2 * k - 1, 1, 0):
                    t = targets[1]
            want.append(t - cur.get(r, Fraction(0)))
        M = [[cols[c][ri] for c in range(len(slots))] for ri in range(len(rows))]
        x = solve_exact(M, want)
        fc, gc = {}, {}
        for val, (which, j, m, part) in zip(x, slots):
            if val == 0:
                continue
            d = fc if which == "f" else gc
            re, im = d.get((j, m), (Fraction(0), Fraction(0)))
            d[(j, m)] = (re + val, im) if part == "re" else (re, im + val)
        if fc or gc:
            ccur = {key: (v, Fraction(0)) for key, v in cur.items()}
            cur = pushforward_oracle(ccur, k, N, fc, gc)
            pieces.append((mu, fc, gc))
    return cur, pieces


# ------------------------------------------------- univariate inversion

def ucompose_trunc(outer, inner, N):
    """outer(inner(x)) for univariate {degree: Fraction}, kept to degree N.
    Exact since inner has minimum degree 1."""
    powers = {0: {0: Fraction(1)}}

    def power(n):
        if n not in powers:
            prev = power(n - 1)
            cur = {}
            for d1, c1 in prev.items():
                for d2, c2 in inner.items():
                    if d1 + d2 <= N:
                        cur[d1 + d2] = cur.get(d1 + d2, Fraction(0)) + c1 * c2
            powers[n] = cur
        return powers[n]

    out = {}
    for d, c in outer.items():
        if d > N:
            continue
        for dd, cc in power(d).items():
            out[dd] = out.get(dd, Fraction(0)) + c * cc
    return {d: c for d, c in out.items() if c != 0}


def univariate_inverse(P, N):
    """Functional inverse Q with P(Q(x)) = x through degree N; needs
    P[1] != 0.  Solved degree by degree."""
    a = P[1]
    Q = {1: Fraction(1) / a}
    for d in range(2, N + 1):
        r = ucompose_trunc(P, Q, d).get(d, Fraction(0))
        if r:
            Q[d] = -r / a
    return Q


def rotation_orders_oracle(keys, bound):
    """All orders m <= bound for which the full set of m-th roots of
    unity fixes every complex-basis key (j, l, anything)."""
    return [m for m in range(1, bound + 1)
            if all((j - l) % m == 0 for (j, l, _) in keys)]


def reflection_fixes_oracle(Fdict, k):
    """Does x -> -x, y -> -y, u -> (-1)^k u, v -> (-1)^k v fix the
    graph?  Pure sign bookkeeping on the real-basis dict."""
    return all((j + l + k * m - k) % 2 == 0 for (j, l, m) in Fdict)


class Singular(Exception):
    """Raised by gauss_jordan_inverse; args[0] is the column without a pivot."""


def gauss_jordan_inverse(matrix):
    """Inverse of a square matrix by Gauss-Jordan elimination over Fraction,
    pivoting on the first nonzero entry at or below the diagonal."""
    n = len(matrix)
    A = [[Fraction(a) for a in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col]), None)
        if piv is None:
            raise Singular(col)
        A[col], A[piv] = A[piv], A[col]
        A[col] = [a / A[col][col] for a in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return [row[n:] for row in A]
