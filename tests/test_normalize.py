from fractions import Fraction as Q
from math import comb

import pytest

import oracle
from conftest import rand_frac, rand_holo, seeded
from crnf.errors import (
    InternalError,
    NotRigidError,
    NotTransversallyFlatError,
    StructuralError,
    UnsupportedTypeError,
)
from crnf import normalize
from crnf.hypersurface import Hypersurface
from crnf.normalize import (
    NormalFormKind,
    Violation,
    check,
    nt_normalize,
    rigid_normalize,
    t_normalize,
    weight_system,
)
from crnf.series import (ComplexSeries, GaussRat, HoloSeries, RealSeries, to_complex_basis,
                         to_real_basis)
from crnf.transform import FormalMap, LinearFactor, apply_linear_series, pushforward


def H_of(d, k, N):
    return Hypersurface.validate(RealSeries(k, N, {(k, 0, 0): 1, **d}), k)


def oracle_image(H, T):
    """The image graph of H under the unipotent map T, by the independent
    engine, as a dict."""
    return oracle.pushforward_oracle(
        oracle.from_real_series(H.F), H.k, H.N,
        {key: (c.re, c.im) for key, c in T.f.coeffs.items()},
        {key: (c.re, c.im) for key, c in T.g.coeffs.items()})


def xk_plus(ctail, k, N):
    """x^k plus a complex-basis tail, as a strict-form hypersurface."""
    F = RealSeries(k, N, {(k, 0, 0): 1}) + to_real_basis(ComplexSeries(k, N, ctail))
    return Hypersurface.validate(F, k)


def rand_tnormal(rng, k, N, nterms=4, rigid=False, ytfree=False):
    """Random series already satisfying the vanishing conditions."""
    F = {(k, 0, 0): Q(1)}
    guard = 0
    while len(F) < nterms + 1 and guard < 200:
        guard += 1
        w = rng.randint(k + 1, N)
        m = 0 if rigid else rng.randint(0, (w - 1) // k)
        rest = w - k * m
        if ytfree:
            j, l = rest, 0
        else:
            j = rng.randint(0, rest)
            l = rest - j
        if j in (0, 1, k - 1, k) or (j == 2 * k - 1 and l in (0, 1)):
            continue
        if ytfree and j == 2 * k - 1:
            continue
        F[(j, l, m)] = rand_frac(rng, nonzero=True)
    return RealSeries(k, N, F)


# ------------------------------------------------------------- checkers


# the k = 4 models of the complex-basis forms, as z, zbar coefficients: the
# tube x^4, the half type z^2 zbar^2 (e = 2) and z^3 zbar + z zbar^3 (e = 1)
KO1_MODELS = {
    "ko1-tube": to_complex_basis(RealSeries.monomial(4, 12, 4, 0, 0)).coeffs,
    "ko1-half": {(2, 2, 0): 1},
    "ko1-nontube": {(3, 1, 0): 1, (1, 3, 0): 1},
}
ONE_2I = GaussRat(1, 2)

# (form, planted monomial z^j zbar^l u^m, its coefficient, the violations
# (family, key, value) check lists); the mirror conj(c) z^l zbar^j u^m is
# planted too, so the graph stays real
KO1_PLANTS = [
    ("ko1-half", (5, 0, 0), ONE_2I, [("Z[j,0]", (5, 0, 0), ONE_2I)]),
    # a pure u^2 term is a Z[j,0] term of every form: F(z, 0, u) = 0
    ("ko1-half", (0, 0, 2), Q(3), [("Z[j,0]", (0, 0, 2), Q(3))]),
    ("ko1-half", (2, 3, 0), ONE_2I, [("Z[e,e+j]", (2, 3, 0), ONE_2I)]),
    ("ko1-half", (4, 4, 0), Q(3), [("Z[2e,2e]", (4, 4, 0), Q(3))]),
    ("ko1-half", (6, 6, 0), Q(3), [("Z[3e,3e]", (6, 6, 0), Q(3))]),
    ("ko1-half", (4, 3, 0), ONE_2I, [("Z[2e,2e-1]", (4, 3, 0), ONE_2I)]),
    ("ko1-tube", (5, 0, 0), ONE_2I, [("Z[j,0]", (5, 0, 0), ONE_2I)]),
    ("ko1-tube", (0, 0, 2), Q(3), [("Z[j,0]", (0, 0, 2), Q(3))]),
    ("ko1-tube", (3, 2, 1), ONE_2I, [("Z[j>=k-1,l]", (3, 2, 1), ONE_2I)]),
    ("ko1-tube", (2, 1, 1), ONE_2I, [("Re Z[k-2,1]", (2, 1, 1), Q(1))]),
    ("ko1-nontube", (5, 0, 0), ONE_2I, [("Z[j,0]", (5, 0, 0), ONE_2I)]),
    ("ko1-nontube", (0, 0, 2), Q(3), [("Z[j,0]", (0, 0, 2), Q(3))]),
    ("ko1-nontube", (3, 1, 1), ONE_2I, [("Z[k-e+j,e]", (3, 1, 1), ONE_2I)]),
    ("ko1-nontube", (6, 2, 0), ONE_2I, [("Z[2k-2e,2e]", (6, 2, 0), ONE_2I)]),
    # Z[2,1] pairs against the model's a_3 = 1: 3 Z[2,1] at u^1
    ("ko1-nontube", (2, 1, 1), ONE_2I, [("pairing", (1,), 3 * ONE_2I)]),
]


class TestCheck:
    @pytest.mark.parametrize("form, key, c, want", KO1_PLANTS,
                             ids=[f"{f}-{j}{l}{m}" for f, (j, l, m), *_ in KO1_PLANTS])
    def test_ko1_family_of_one_planted_monomial(self, form, key, c, want):
        j, l, m = key
        C = {**KO1_MODELS[form], (j, l, m): c, (l, j, m): GaussRat.of(c).conj()}
        H = Hypersurface.normal_coordinates(to_real_basis(ComplexSeries(4, 12, C)), 4)
        bad = check(H, NormalFormKind(form))
        assert [(v.family, v.key, v.value) for v in bad] == want

    def test_unconstrained_monomial_passes(self):
        H = H_of({(5, 0, 0): 1}, 4, 8)
        assert check(H, NormalFormKind.t_normal()) == []

    def test_k_minus_1_family_fails(self):
        H = H_of({(3, 1, 1): 1}, 4, 12)
        bad = check(H, NormalFormKind.t_normal())
        assert [v.family for v in bad] == ["X[k-1,l]"]
        assert bad[0].key == (3, 1, 1) and bad[0].value == 1

    def test_all_t_families_detected(self):
        H = H_of({(0, 5, 0): 1, (1, 4, 0): 2, (3, 2, 0): 3, (4, 2, 0): 4,
                  (7, 0, 0): 5, (7, 1, 0): 6}, 4, 9)
        fams = {v.family for v in check(H, NormalFormKind.t_normal())}
        assert fams == {"X[0,l]", "X[1,l]", "X[k-1,l]", "X[k,l]",
                        "X[2k-1,0]", "X[2k-1,1]"}

    def test_t_ab_targets(self):
        H = H_of({(7, 0, 0): Q(2), (7, 1, 0): Q(1, 3)}, 4, 9)
        assert check(H, NormalFormKind.t_normal_ab(2, Q(1, 3))) == []
        assert len(check(H, NormalFormKind.t_normal())) == 2
        # absent coefficient where a nonzero constant is prescribed
        H0 = H_of({}, 4, 8)
        bad = check(H0, NormalFormKind.t_normal_ab(1, 0))
        assert [(v.family, v.value) for v in bad] == [("X[2k-1,0]", 0)]

    def test_rigid_check(self):
        H = H_of({(2, 3, 0): 1}, 3, 9)
        assert [v.family for v in check(H, NormalFormKind.rigid_t())] == ["A[k-1,l]"]
        H2 = H_of({(4, 1, 0): 1}, 3, 9)
        assert check(H2, NormalFormKind.rigid_t()) == []
        H3 = H_of({(4, 0, 1): 1}, 3, 9)
        assert [v.family for v in check(H3, NormalFormKind.rigid_t())] == ["u-term"]

    def test_nt_check(self):
        H = H_of({(1, 0, 1): 1}, 3, 9)
        assert check(H, NormalFormKind.nontransversal()) == []
        H2 = H_of({(2, 0, 1): 1}, 3, 9)
        assert [v.family for v in check(H2, NormalFormKind.nontransversal())] == ["X[k-1]"]
        H3 = H_of({(4, 1, 0): 1}, 3, 9)
        assert [v.family for v in check(H3, NormalFormKind.nontransversal())] == ["y-term"]

    def test_stanton_check(self):
        H = xk_plus({(5, 1, 0): 1, (1, 5, 0): 1}, 4, 8)
        bad = check(H, NormalFormKind.stanton())
        assert [(v.family, v.key) for v in bad] == [("A[1,l]", (1, 5, 0))]
        H2 = H_of({(4, 0, 1): 1}, 4, 12)
        assert [v.family for v in check(H2, NormalFormKind.stanton())] == ["u-term"]

    def test_ko1_half_example_passes(self):
        F = to_real_basis(ComplexSeries(4, 12, {(2, 2, 0): 1, (3, 3, 1): 1}))
        H = Hypersurface.normal_coordinates(F, 4)
        assert check(H, NormalFormKind.ko1_half_type()) == []

    def test_ko1_half_violations(self):
        F = to_real_basis(ComplexSeries(4, 12, {(2, 2, 0): 1, (2, 2, 1): 1}))
        H = Hypersurface.normal_coordinates(F, 4)
        bad = check(H, NormalFormKind.ko1_half_type())
        assert [v.family for v in bad] == ["Z[e,e+j]"]

    def test_ko1_half_odd_k_rejected(self):
        H = H_of({}, 3, 9)
        with pytest.raises(UnsupportedTypeError):
            check(H, NormalFormKind.ko1_half_type())

    def test_ko1_tube_families(self):
        # tail with first index >= k-1 violates, its conjugate does not
        H = xk_plus({(3, 2, 1): 1, (2, 3, 1): 1}, 4, 12)
        bad = check(H, NormalFormKind.ko1_tube())
        assert [(v.family, v.key) for v in bad] == [("Z[j>=k-1,l]", (3, 2, 1))]

    def test_ko1_tube_re_condition(self):
        # Re of the (k-2, 1) entry is constrained, the imaginary part free
        H = xk_plus({(2, 1, 1): GaussRat(0, 1), (1, 2, 1): GaussRat(0, -1)}, 4, 12)
        assert check(H, NormalFormKind.ko1_tube()) == []
        H2 = xk_plus({(2, 1, 1): 1, (1, 2, 1): 1}, 4, 12)
        bad = check(H2, NormalFormKind.ko1_tube())
        assert [(v.family, v.value) for v in bad] == [("Re Z[k-2,1]", Q(1))]

    def test_ko1_nontube_pairing(self):
        # model z^3 zbar + z zbar^3 (e = 1 < k/2); the tail entry at
        # (2, 1) pairs against the model coefficient a_3
        F = to_real_basis(ComplexSeries(4, 12, {(3, 1, 0): 1, (1, 3, 0): 1,
                                                (2, 1, 1): 1, (1, 2, 1): 1}))
        H = Hypersurface.normal_coordinates(F, 4)
        bad = check(H, NormalFormKind.ko1_nontube())
        assert [v.family for v in bad] == ["pairing"]
        assert bad[0].key == (1,) and bad[0].value == GaussRat(3)

    def test_ko1_nontube_families(self):
        F = to_real_basis(ComplexSeries(4, 12, {(3, 1, 0): 1, (1, 3, 0): 1,
                                                (5, 0, 0): 1, (0, 5, 0): 1,
                                                (3, 1, 1): 1, (1, 3, 1): 1}))
        H = Hypersurface.normal_coordinates(F, 4)
        fams = [v.family for v in check(H, NormalFormKind.ko1_nontube())]
        assert fams == ["Z[j,0]", "Z[k-e+j,e]"]

    def test_t_kinds_need_strict_leading(self):
        F = to_real_basis(ComplexSeries(4, 8, {(2, 2, 0): 1}))
        H = Hypersurface.normal_coordinates(F, 4)
        with pytest.raises(StructuralError):
            check(H, NormalFormKind.t_normal())

    def test_kind_construction_errors(self):
        with pytest.raises(StructuralError):
            NormalFormKind("bogus")
        with pytest.raises(StructuralError):
            NormalFormKind("t-ab", A=Q(1))
        with pytest.raises(StructuralError):
            NormalFormKind("t", A=Q(1), B=Q(2))


# ------------------------------------------------- closed-form formulas


def closed_row(k, j, l, m):
    """The per-monomial coefficient equations, transcribed by hand, as a
    map from unknown slots to their coefficients."""
    R = lambda q: (1, 0, -1, 0)[q % 4]
    I = lambda q: (0, 1, 0, -1)[q % 4]
    row = {}

    def put(which, jj, mm, part, v):
        if v:
            row[(which, jj, mm, part)] = row.get((which, jj, mm, part), Q(0)) + Q(v)

    if j == 0 and l == 0:
        put("g", 0, m, "im", -1)
    elif j == 0:
        put("g", l, m, "re", -I(l))
        put("g", l, m, "im", -R(l))
    elif j == 1:
        lp = l + 1
        put("g", lp, m, "re", -lp * I(lp - 1))
        put("g", lp, m, "im", -lp * R(lp - 1))
    elif j == k - 1 and l == 0:
        put("f", 0, m, "re", k)
        put("g", k - 1, m, "im", -1)
    elif j == k - 1 and l == 1:
        put("f", 1, m, "im", -k)
        put("g", k, m, "re", -k)
    elif j == k - 1:
        put("f", l, m, "re", k * R(l))
        put("f", l, m, "im", -k * I(l))
        c1 = comb(k + l - 1, l)
        put("g", k + l - 1, m, "re", -c1 * I(l))
        put("g", k + l - 1, m, "im", -c1 * R(l))
    elif j == k and l == 0:
        put("f", 1, m, "re", k)
        put("g", k, m, "im", -1)
        put("g", 0, m + 1, "re", -(m + 1))
    elif j == k:
        lp = l + 1
        put("f", lp, m, "re", k * lp * R(l))
        put("f", lp, m, "im", -k * lp * I(l))
        c2 = comb(k + lp - 1, lp - 1)
        put("g", k + lp - 1, m, "re", -c2 * I(l))
        put("g", k + lp - 1, m, "im", -c2 * R(l))
        put("g", lp - 1, m + 1, "re", -(m + 1) * R(l))
        put("g", lp - 1, m + 1, "im", (m + 1) * I(l))
    elif j == 2 * k - 1 and l == 0:
        put("f", k, m, "re", k)
        put("f", 0, m + 1, "im", -k * (m + 1))
        put("g", 2 * k - 1, m, "im", -1)
        put("g", k - 1, m + 1, "re", -(m + 1))
    elif j == 2 * k - 1 and l == 1:
        put("f", k + 1, m, "im", -k * (k + 1))
        put("f", 1, m + 1, "re", -k * (m + 1))
        put("g", 2 * k, m, "re", -2 * k)
        put("g", k, m + 1, "im", k * (m + 1))
    else:
        raise AssertionError(f"unexpected condition row ({j}, {l}, {m})")
    return row


class TestClosedForms:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_rows_match_hand_formulas(self, k):
        for mu in range(k + 1, 3 * k + 1):
            rows, slots, matrix, *_ = weight_system(k, "t", mu)
            for ri, key in enumerate(rows):
                got = {slots[c]: matrix[ri][c]
                       for c in range(len(slots)) if matrix[ri][c] != 0}
                assert got == closed_row(k, *key), (k, mu, key)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_systems_square_and_nonsingular(self, k):
        for mode in ("t", "rigid", "nt"):
            for mu in range(k + 1, 3 * k + 1):
                rows, slots, _, (_, inv), *_ = weight_system(k, mode, mu)
                assert len(rows) == len(slots)
                assert len(inv) == len(rows)

    def test_fractions_out_of_an_integer_fill(self, monkeypatch):
        # a cold fill: the matrix and the inverse (over delta) are ints,
        # matrix * inverse is delta times the identity, and the sparse rows
        # the solver reads are the inverse's nonzero entries
        monkeypatch.setattr(normalize, "_system_cache", {})
        for mode in ("t", "rigid", "nt"):
            for mu in range(5, 17):
                rows, slots, matrix, (delta, inv), _, _, irows = \
                    weight_system(4, mode, mu)
                n = len(rows)
                assert type(delta) is int and delta > 0
                assert all(type(a) is int for M in (matrix, inv)
                           for row in M for a in row)
                assert [[sum(matrix[i][t] * inv[t][j] for t in range(n))
                         for j in range(n)] for i in range(n)] == \
                    [[delta * (i == j) for j in range(n)] for i in range(n)]
                assert irows == [[(c, a) for c, a in enumerate(row) if a]
                                 for row in inv]

    def test_rigid_rows_are_m0_slice(self):
        rows, slots, matrix, *_ = weight_system(4, "rigid", 7)
        trows, tslots, tmatrix, *_ = weight_system(4, "t", 7)
        for ri, key in enumerate(rows):
            ti = trows.index(key)
            for ci, slot in enumerate(slots):
                assert matrix[ri][ci] == tmatrix[ti][tslots.index(slot)]

    def test_oracle_enumerations_agree(self):
        for k in (3, 4, 5):
            for mode in ("t", "rigid", "nt"):
                for mu in range(k + 1, 3 * k + 1):
                    rows, slots, *_ = weight_system(k, mode, mu)
                    assert sorted(rows) == sorted(oracle.conditions_at(k, mode, mu))
                    assert sorted(slots) == sorted(oracle.slots_at(k, mode, mu))

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_check_flags_the_solver_rows(self, k):
        # x^k plus every in-class monomial of weight mu: check flags exactly
        # the rows the solver sends to zero at that weight
        kinds = {"t": NormalFormKind.t_normal(), "rigid": NormalFormKind.rigid_t(),
                 "nt": NormalFormKind.nontransversal()}
        for mode, kind in kinds.items():
            for mu in range(k + 1, 3 * k + 1):
                tail = {(j, mu - j - k * m, m): 1
                        for m in range(mu // k + 1) for j in range(mu - k * m + 1)
                        if not (mode == "rigid" and m or mode == "nt" and mu - j - k * m)}
                flagged = sorted(v.key for v in check(H_of(tail, k, 3 * k), kind))
                rows, *_ = weight_system(k, mode, mu)
                assert flagged == sorted(rows) == \
                    sorted(oracle.conditions_at(k, mode, mu)), (mode, mu)

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("mode", ["t", "rigid", "nt"])
    def test_weights_up_to_k_rejected(self, monkeypatch, mode, k):
        # the solvers reach mu = k + 1..N; below that there is no system
        monkeypatch.setattr(normalize, "_system_cache", {})
        for mu in (1, k - 1, k):
            with pytest.raises(StructuralError, match=f"weight {mu} <= k = {k}"):
                weight_system(k, mode, mu)
        assert normalize._system_cache == {}
        rows, slots, *_ = weight_system(k, mode, k + 1)
        assert len(rows) == len(slots)

    def test_unknown_mode_rejected(self, monkeypatch):
        monkeypatch.setattr(normalize, "_system_cache", {})
        with pytest.raises(StructuralError, match="'bogus'"):
            weight_system(4, "bogus", 7)
        assert normalize._system_cache == {}


# ---------------------------------------------------------- t-normalize


class TestTNormalize:
    def test_frozen_x3_plus_x3y(self):
        H = H_of({(3, 1, 0): 1}, 3, 9)
        res = t_normalize(H)
        want = {(3, 0, 0): Q(1), (5, 2, 0): Q(-16, 27), (7, 0, 0): Q(2, 27),
                (5, 3, 0): Q(256, 243), (7, 1, 0): Q(-32, 81),
                (5, 4, 0): Q(-1280, 729), (7, 2, 0): Q(320, 243),
                (9, 0, 0): Q(-172, 2187)}
        assert res.H_normal.F.coeffs == want
        assert res.T.linear.is_identity()
        # the map itself reproduces the normal form through the independent
        # engine, which pins it down by uniqueness
        assert oracle_image(H, res.T) == want

    def test_matches_brute_force_oracle(self):
        rng = seeded(401)
        for k, N, trials in [(3, 7, 3), (4, 9, 2)]:
            for _ in range(trials):
                F = {(k, 0, 0): Q(1)}
                for _ in range(3):
                    w = rng.randint(k + 1, N)
                    m = rng.randint(0, (w - 1) // k)
                    j = rng.randint(0, w - k * m)
                    F[(j, w - j - k * m, m)] = rand_frac(rng, nonzero=True)
                H = Hypersurface.validate(RealSeries(k, N, F), k)
                res = t_normalize(H)
                want, _pieces = oracle.oracle_normalize(dict(F), k, N, "t")
                assert res.H_normal.F.coeffs == want
        # large prime denominators: the solutions need primes the input
        # lacks, so the solver's frame grows by them, with the map in it
        F = {(3, 0, 0): Q(1), (3, 1, 0): Q(1, 10007), (2, 2, 1): Q(-5, 9973)}
        H = Hypersurface.validate(RealSeries(3, 8, F), 3)
        res = t_normalize(H)
        want, _ = oracle.oracle_normalize(dict(F), 3, 8, "t")
        assert res.H_normal.F.coeffs == want
        assert oracle_image(H, res.T) == want
        # prescribed constants enter the frame with the graph
        F = {(4, 0, 0): Q(1), (2, 4, 0): Q(2, 3), (5, 1, 0): Q(-1, 10007)}
        H = Hypersurface.validate(RealSeries(4, 9, F), 4)
        targets = (Q(3, 7), Q(-5, 11))
        res = t_normalize(H, targets=targets)
        want, _ = oracle.oracle_normalize(dict(F), 4, 9, "t", targets=targets)
        assert res.H_normal.F.coeffs == want
        assert oracle_image(H, res.T) == want

    def test_already_normal_gives_identity(self):
        rng = seeded(402)
        H = Hypersurface.validate(rand_tnormal(rng, 3, 9), 3)
        res = t_normalize(H)
        assert res.H_normal == H
        assert res.T.is_identity()

    def test_violated_postcondition_raises(self, monkeypatch):
        # a solved form that fails its own check is an internal error, also
        # under python -O
        monkeypatch.setattr("crnf.normalize.check",
                            lambda H, kind: [Violation("x^k", (3, 0, 0), Q(1))])
        with pytest.raises(InternalError):
            t_normalize(H_of({(3, 1, 0): 1}, 3, 9))

    def test_model_short_circuits(self):
        H = H_of({}, 4, 8)
        res = t_normalize(H)
        assert res.T.is_identity() and res.H_normal == H
        assert res.per_weight_report == ()

    def test_round_trip(self):
        rng = seeded(403)
        for k, N in [(3, 9), (4, 9)]:
            for _ in range(3):
                H = Hypersurface.validate(rand_tnormal(rng, k, N), k)
                f = rand_holo(rng, k, N, nterms=2, min_wt=2)
                g = rand_holo(rng, k, N, nterms=2, min_wt=k + 1)
                T = FormalMap(f, g)
                res = t_normalize(pushforward(H, T))
                assert res.H_normal == H
                assert res.T == T.inverse()

    def test_tube_h_shift(self):
        # a tube needs only f = i h w with h = -(coefficient of
        # x^(2k-1)) / k; everything else is already in place
        H = H_of({(5, 0, 0): 1}, 3, 9)
        res = t_normalize(H)
        assert res.T.g.is_zero()
        assert res.T.f.coeffs == {(0, 1): GaussRat(0, Q(-1, 3))}
        want = {(3, 0, 0): Q(1), (7, 0, 0): Q(-4, 3), (9, 0, 0): Q(65, 27)}
        assert res.H_normal.F.coeffs == want
        assert not res.H_normal.F.depends_on_y()
        assert not res.H_normal.F.depends_on_u()

    def test_tube_checker_reports_only_one_family(self):
        rng = seeded(404)
        for k, N in [(3, 9), (4, 12)]:
            F = {(j, 0, 0): rand_frac(rng) for j in range(k + 1, N + 1)}
            F = {key: v for key, v in F.items() if v != 0}
            F[(k, 0, 0)] = Q(1)
            F[(2 * k - 1, 0, 0)] = Q(3, 2)
            H = Hypersurface.validate(RealSeries(k, N, F), k)
            fams = {v.family for v in check(H, NormalFormKind.t_normal())}
            assert fams == {"X[2k-1,0]"}

    def test_frozen_targets(self):
        H = H_of({}, 3, 9)
        res = t_normalize(H, targets=(Q(1), Q(1, 2)))
        want = {(3, 0, 0): Q(1), (5, 0, 0): Q(1), (5, 1, 0): Q(1, 2),
                (7, 0, 0): Q(4, 3), (7, 1, 0): Q(4, 3), (7, 2, 0): Q(1, 3),
                (9, 0, 0): Q(55, 27)}
        assert res.H_normal.F.coeffs == want
        assert check(res.H_normal, NormalFormKind.t_normal_ab(1, Q(1, 2))) == []
        assert res.T.f.coeff(0, 1) == GaussRat(0, Q(1, 3))

    def test_report_is_square(self):
        rng = seeded(405)
        H = Hypersurface.validate(rand_tnormal(rng, 3, 9, nterms=2), 3)
        res = t_normalize(pushforward(H, FormalMap.from_parts(
            3, 9, f_coeffs={(2, 0): GaussRat(1)})))
        assert res.per_weight_report
        for mu, nunk, ncond in res.per_weight_report:
            assert nunk == ncond

    def test_rejects_loose_leading(self):
        F = to_real_basis(ComplexSeries(4, 8, {(2, 2, 0): 1}))
        H = Hypersurface.normal_coordinates(F, 4)
        with pytest.raises(StructuralError):
            t_normalize(H)

    def test_dilation_equivariance(self):
        rng = seeded(406)
        for _ in range(5):
            H = Hypersurface.validate(rand_tnormal(rng, 3, 9), 3)
            delta = rand_frac(rng, nonzero=True)
            G = apply_linear_series(H.F, LinearFactor(delta, 0))
            H2 = Hypersurface.validate(G, 3)
            assert check(H2, NormalFormKind.t_normal()) == []


# ------------------------------------------------------ rigid-normalize


class TestRigidNormalize:
    def test_frozen_x4_plus_x3y2(self):
        H = H_of({(3, 2, 0): 1}, 4, 8)
        res = rigid_normalize(H)
        want = {(4, 0, 0): Q(1), (5, 0, 0): Q(1), (2, 4, 0): Q(-3, 8),
                (6, 0, 0): Q(17, 24), (5, 2, 0): Q(-5, 2), (7, 0, 0): Q(17, 21),
                (2, 6, 0): Q(13, 64), (6, 2, 0): Q(-223, 64),
                (8, 0, 0): Q(121, 160)}
        assert res.H_normal.F.coeffs == want
        # map stays z-only: no positive w powers anywhere
        assert all(m == 0 for (_, m) in res.T.f.coeffs)
        assert all(m == 0 for (_, m) in res.T.g.coeffs)
        assert res.T.f.coeff(2, 0) == GaussRat(Q(-1, 4))

    def test_matches_brute_force_oracle(self):
        rng = seeded(407)
        for _ in range(2):
            F = {(3, 0, 0): Q(1)}
            for _ in range(3):
                w = rng.randint(4, 8)
                j = rng.randint(0, w)
                F[(j, w - j, 0)] = rand_frac(rng, nonzero=True)
            H = Hypersurface.validate(RealSeries(3, 8, F), 3)
            res = rigid_normalize(H)
            want, _ = oracle.oracle_normalize(dict(F), 3, 8, "rigid")
            assert res.H_normal.F.coeffs == want
        # large prime denominators, which the solutions' denominators lack
        F = {(3, 0, 0): Q(1), (2, 3, 0): Q(1, 10007), (4, 2, 0): Q(2, 9973)}
        H = Hypersurface.validate(RealSeries(3, 8, F), 3)
        res = rigid_normalize(H)
        want, _ = oracle.oracle_normalize(dict(F), 3, 8, "rigid")
        assert res.H_normal.F.coeffs == want
        assert oracle_image(H, res.T) == want

    def test_u_dependent_rejected(self):
        H = H_of({(1, 0, 1): 1}, 3, 9)
        with pytest.raises(NotRigidError):
            rigid_normalize(H)

    def test_output_passes_check(self):
        rng = seeded(408)
        H = Hypersurface.validate(rand_tnormal(rng, 4, 8, rigid=True), 4)
        f = HoloSeries(4, 8, {(2, 0): GaussRat(1, 1)})
        g = HoloSeries(4, 8, {(5, 0): GaussRat(Q(1, 2))})
        res = rigid_normalize(pushforward(H, FormalMap(f, g)))
        assert check(res.H_normal, NormalFormKind.rigid_t()) == []
        assert res.H_normal == H  # uniqueness recovers the source
        assert res.T == FormalMap(f, g).inverse()


# --------------------------------------------------------- nt-normalize


class TestNtNormalize:
    def test_frozen_x3_plus_x2u(self):
        H = H_of({(2, 0, 1): 1}, 3, 9)
        res = nt_normalize(H)
        want = {(3, 0, 0): Q(1), (1, 0, 2): Q(-1, 3), (6, 0, 1): Q(2, 9)}
        assert res.H_normal.F.coeffs == want
        # the weight-5 unknown enters through the real part of f_{0,1}
        assert res.T.f.coeff(0, 1) == GaussRat(Q(1, 3))
        assert not res.H_normal.F.depends_on_y()

    def test_matches_brute_force_oracle(self):
        rng = seeded(409)
        for _ in range(2):
            F = {(3, 0, 0): Q(1)}
            for _ in range(3):
                w = rng.randint(4, 9)
                m = rng.randint(0, (w - 1) // 3)
                F[(w - 3 * m, 0, m)] = rand_frac(rng, nonzero=True)
            H = Hypersurface.validate(RealSeries(3, 9, F), 3)
            res = nt_normalize(H)
            want, _ = oracle.oracle_normalize(dict(F), 3, 9, "nt")
            assert res.H_normal.F.coeffs == want
        # large prime denominators, which the solutions' denominators lack
        F = {(3, 0, 0): Q(1), (2, 0, 1): Q(1, 10007), (4, 0, 1): Q(-1, 9973)}
        H = Hypersurface.validate(RealSeries(3, 9, F), 3)
        res = nt_normalize(H)
        want, _ = oracle.oracle_normalize(dict(F), 3, 9, "nt")
        assert res.H_normal.F.coeffs == want
        assert oracle_image(H, res.T) == want

    def test_y_dependent_rejected(self):
        H = H_of({(3, 1, 0): 1}, 3, 9)
        with pytest.raises(NotTransversallyFlatError):
            nt_normalize(H)

    def test_pure_model_identity(self):
        H = H_of({}, 3, 9)
        res = nt_normalize(H)
        assert res.T.is_identity()

    def test_output_passes_check(self):
        rng = seeded(410)
        H = Hypersurface.validate(rand_tnormal(rng, 3, 9, ytfree=True), 3)
        T = FormalMap.from_parts(3, 9, f_coeffs={(0, 1): GaussRat(1, 2)},
                                 g_coeffs={(0, 2): GaussRat(Q(1, 3))})
        res = nt_normalize(pushforward(H, T))
        assert check(res.H_normal, NormalFormKind.nontransversal()) == []
        assert res.H_normal == H
        assert res.T == T.inverse()


# ------------------------------------------------------------ front door


SOLVERS = {"rigid": rigid_normalize, "nt": nt_normalize}


class TestFrontDoor:
    @pytest.mark.parametrize("mode, key", [("rigid", (2, 0, 1)), ("nt", (3, 1, 0))])
    def test_out_of_class_solution_is_internal_error(self, monkeypatch, mode, key):
        # a solved graph that leaves the class fails check's outside test,
        # also under python -O
        bad = normalize.NormalizationResult(
            H_of({key: 1}, 3, 9), FormalMap.identity(3, 9), ())
        monkeypatch.setattr(normalize, "_solve", lambda H, mode, targets: bad)
        with pytest.raises(InternalError, match="violated condition"):
            SOLVERS[mode](H_of({(4, 0, 0): 1}, 3, 9))

    # t's cases of the next two are TestTNormalize's model_short_circuits
    # and rejects_loose_leading
    @pytest.mark.parametrize("mode", ["rigid", "nt"])
    def test_bare_model_is_returned_as_it_is(self, mode):
        H = H_of({}, 4, 8)
        res = SOLVERS[mode](H)
        assert res.H_normal is H
        assert res.T.is_identity() and res.per_weight_report == ()

    @pytest.mark.parametrize("mode, error, key, message", [
        ("rigid", NotRigidError, (1, 0, 1), "input depends on u"),
        ("nt", NotTransversallyFlatError, (3, 1, 0), "input depends on y")])
    def test_refusal_keeps_class_and_message(self, mode, error, key, message):
        with pytest.raises(error, match=f"^{message}$"):
            SOLVERS[mode](H_of({key: 1}, 3, 9))

    @pytest.mark.parametrize("mode", ["rigid", "nt"])
    def test_loose_leading_refused(self, mode):
        H = Hypersurface.normal_coordinates(
            to_real_basis(ComplexSeries(4, 8, {(2, 2, 0): 1})), 4)
        with pytest.raises(StructuralError, match="needs leading term x"):
            SOLVERS[mode](H)
