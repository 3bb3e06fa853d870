from fractions import Fraction as Q

import pytest

import oracle
from conftest import rand_frac, seeded
from crnf.equivalence import (
    RadicalReal,
    TubeWitness,
    _witness_holds,
    rigid_equivalence_reduce,
    tube_equivalent,
)
from crnf.errors import (
    InternalError,
    NotRigidError,
    StructuralError,
    TruncationError,
    UnsupportedTypeError,
)
from crnf.hypersurface import Hypersurface
from crnf.series import ComplexSeries, RealSeries, to_real_basis
from crnf.transform import LinearFactor, apply_linear_series


def tube(k, N, d):
    return RealSeries(k, N, {(j, 0, 0): v for j, v in d.items()})


def verify_witness(Fs, Gs, w):
    """Independent check of G(ax - bF(x)) = cF(x) through w.N for a
    rational witness."""
    assert isinstance(w.a, Q) and isinstance(w.c, Q) and w.b is not None
    uF = {j: v for (j, _, _), v in Fs.coeffs.items() if j <= w.N}
    uG = {j: v for (j, _, _), v in Gs.coeffs.items() if j <= w.N}
    inner = {1: w.a}
    for j, v in uF.items():
        inner[j] = inner.get(j, Q(0)) - w.b * v
    lhs = oracle.ucompose_trunc(uG, inner, w.N)
    rhs = {j: w.c * v for j, v in uF.items()}
    assert lhs == rhs


class TestRadicalReal:
    def test_make_collapses_exact_roots(self):
        assert RadicalReal.make(Q(8), 3, 1) == Q(2)
        assert RadicalReal.make(Q(9, 4), 2, -1) == Q(-3, 2)
        assert RadicalReal.make(Q(4), 4, 1) == RadicalReal(Q(2), 2, 1)
        assert RadicalReal.make(Q(2), 2, 1) == RadicalReal(Q(2), 2, 1)

    def test_pow_int(self):
        # (sign b^(1/r))^n is make(b^n, r, sign^n), folded to the least
        # root index
        assert RadicalReal.make(Q(2) ** 2, 2, 1) == Q(2)
        assert RadicalReal.make(Q(2) ** 4, 2, 1) == Q(4)
        assert RadicalReal.make(Q(2) ** 3, 2, 1) == RadicalReal(Q(8), 2, 1)
        assert RadicalReal.make(Q(2) ** 2, 2, (-1) ** 2) == Q(2)
        assert RadicalReal.make(Q(2) ** 3, 2, (-1) ** 3) == RadicalReal(Q(8), 2, -1)

    def test_times_rat_folds(self):
        # q sign b^(1/r) is make(|q|^r b, r, sign(q) sign)
        assert RadicalReal.make(Q(3) ** 2 * 2, 2, 1) == RadicalReal(Q(18), 2, 1)
        assert RadicalReal.make(Q(1, 2) ** 2 * 2, 2, -1) == RadicalReal(Q(1, 2), 2, -1)
        assert RadicalReal.make(Q(0) ** 2 * 2, 2, 1) == Q(0)
        # sqrt(1/2) * 2 = sqrt(2)
        assert RadicalReal.make(Q(2) ** 2 * Q(1, 2), 2, 1) == RadicalReal(Q(2), 2, 1)

    def test_invalid_records(self):
        with pytest.raises(StructuralError):
            RadicalReal(Q(-2), 2, 1)
        with pytest.raises(StructuralError):
            RadicalReal(Q(2), 1, 1)
        with pytest.raises(StructuralError):
            RadicalReal(Q(2), 2, 0)


class TestTubeEquivalent:
    def test_pure_scaling(self):
        F = tube(4, 8, {4: 1})
        G = tube(4, 8, {4: 16})
        w = tube_equivalent(F, G)
        assert (w.a, w.b, w.c) == (Q(1), Q(0), Q(16))
        verify_witness(F, G, w)

    def test_recovers_dilation(self):
        # G is the image of F under z* = 2z, w* = 16w, built by
        # independent substitution: G(x) = 16 F(x/2)
        F = tube(4, 12, {4: 1, 6: 1})
        img = oracle.ucompose_trunc({j: v for (j, _, _), v in F.coeffs.items()},
                                    {1: Q(1, 2)}, 12)
        G = tube(4, 12, {j: 16 * v for j, v in img.items()})
        w = tube_equivalent(F, G)
        assert w.a == Q(2) and w.b == 0 and w.c == Q(16)
        assert w.sign_ambiguous
        verify_witness(F, G, w)

    def test_shift_equivalence_depends_on_truncation(self):
        # the shift with h = -1/4 removes x^7 exactly; at N = 8 nothing
        # else is visible, at N = 12 a new x^10 term appears
        F8 = tube(4, 8, {4: 1, 7: 1})
        G8 = tube(4, 8, {4: 1})
        w = tube_equivalent(F8, G8)
        assert (w.a, w.b, w.c) == (Q(1), Q(-1, 4), Q(1))
        assert w.factors == (Q(1), Q(-1, 4), Q(1), Q(0), Q(1))
        verify_witness(F8, G8, w)
        want, _ = oracle.oracle_normalize({(4, 0, 0): Q(1), (7, 0, 0): Q(1)},
                                          4, 12, "t")
        assert want == {(4, 0, 0): Q(1), (10, 0, 0): Q(-11, 8)}
        F12 = tube(4, 12, {4: 1, 7: 1})
        G12 = tube(4, 12, {4: 1})
        assert tube_equivalent(F12, G12) is None

    def test_radical_dilation(self):
        # G_j = delta^(4-j) F_j with delta = sqrt(2)
        F = tube(4, 12, {4: 1, 6: 1, 8: 1})
        G = tube(4, 12, {4: 1, 6: Q(1, 2), 8: Q(1, 4)})
        w = tube_equivalent(F, G)
        assert w.a == RadicalReal(Q(2), 2, 1)
        assert w.b == 0 and w.b_parts == (Q(0), Q(0))
        assert w.c == Q(4)  # delta^4 collapses to a rational
        assert w.sign_ambiguous
        back = tube_equivalent(G, F)
        assert back.a == RadicalReal(Q(1, 2), 2, 1)
        assert back.c == Q(1, 4)

    def test_sign_pinned_by_odd_exponent(self):
        F = tube(3, 9, {3: 1, 4: 1})
        G = tube(3, 9, {3: 1, 4: Q(-1, 2)})
        w = tube_equivalent(F, G)
        assert w.a == Q(-2) and w.c == Q(-8) and w.b == 0
        assert not w.sign_ambiguous
        verify_witness(F, G, w)

    def test_planted_witness_roundtrip(self):
        # build G so that G(ax - bF(x)) = cF(x) holds by construction,
        # then recover some valid witness
        F = tube(3, 9, {3: 1, 4: Q(1, 2), 6: 1})
        uF = {j: v for (j, _, _), v in F.coeffs.items()}
        a, b, c = Q(3, 2), Q(1, 3), Q(-2)
        P = {1: a}
        for j, v in uF.items():
            P[j] = P.get(j, Q(0)) - b * v
        Pinv = oracle.univariate_inverse(P, 9)
        uG = {j: c * v for j, v in oracle.ucompose_trunc(uF, Pinv, 9).items()}
        G = tube(3, 9, uG)
        w = tube_equivalent(F, G)
        assert w is not None and w.b is not None
        verify_witness(F, G, w)

    def test_planted_witnesses_random(self):
        rng = seeded(501)
        for k, N in [(3, 9), (4, 10)]:
            for _ in range(3):
                uF = {k: Q(rng.choice([1, 2, -1]))}
                for _ in range(3):
                    uF[rng.randint(k + 1, N)] = rand_frac(rng, nonzero=True)
                F = tube(k, N, uF)
                a = rand_frac(rng, nonzero=True)
                b = rand_frac(rng)
                c = rand_frac(rng, nonzero=True)
                P = {1: a}
                for j, v in uF.items():
                    P[j] = P.get(j, Q(0)) - b * v
                Pinv = oracle.univariate_inverse(P, N)
                uG = {j: c * v
                      for j, v in oracle.ucompose_trunc(uF, Pinv, N).items()}
                G = tube(k, N, uG)
                w = tube_equivalent(F, G)
                assert w is not None
                if w.b is not None:
                    verify_witness(F, G, w)

    def test_witness_identity_is_exact(self):
        # a planted rational witness satisfies G(ax - bF) = cF, and moving
        # b or c by 1/10007 breaks it
        k, N = 4, 14
        uF = {4: Q(1), 6: Q(2, 3), 9: Q(-5, 7), 13: Q(1, 3)}
        a, b, c = Q(3, 2), Q(-2, 5), Q(7, 3)
        P = {1: a}
        for j, v in uF.items():
            P[j] = P.get(j, Q(0)) - b * v
        Pinv = oracle.univariate_inverse(P, N)
        uG = {j: c * v for j, v in oracle.ucompose_trunc(uF, Pinv, N).items()}
        assert _witness_holds(uF, uG, a, b, c, N)
        eps = Q(1, 10007)
        assert not _witness_holds(uF, uG, a, b + eps, c, N)
        assert not _witness_holds(uF, uG, a, b, c + eps, N)

    def test_failed_substitution_raises(self, monkeypatch):
        # a rational witness that fails the substitution identity is an
        # internal error, also under python -O
        monkeypatch.setattr("crnf.equivalence._witness_holds", lambda *args: False)
        F = tube(4, 12, {4: 1, 6: 1})
        with pytest.raises(InternalError):
            tube_equivalent(F, F)

    def test_inconsistent_ratios(self):
        F = tube(4, 12, {4: 1, 6: 1, 9: 1})
        G = tube(4, 12, {4: 1, 6: Q(1, 4), 9: Q(1, 31)})
        assert tube_equivalent(F, G) is None
        assert tube_equivalent(G, F) is None

    def test_odd_exponent_sign_mismatch(self):
        # delta^1 = 1 pins delta > 0, so delta^3 = -1 has no real solution
        F = tube(3, 6, {3: 1, 4: 1, 6: 1})
        G = tube(3, 6, {3: 1, 4: 1, 6: -1})
        assert tube_equivalent(F, G) is None

    def test_odd_type_negative_radical_dilation(self):
        # k = 5: delta^3 = -2 gives delta = -2^(1/3), and
        # c = 3 delta^5 = -3 * 2^(5/3) = -(864)^(1/3)
        F = tube(5, 10, {5: 1, 8: 1})
        G = tube(5, 10, {5: 3, 8: Q(-3, 2)})
        w = tube_equivalent(F, G)
        assert w.a == RadicalReal(Q(2), 3, -1)
        assert w.c == RadicalReal(Q(864), 3, -1)
        assert w.b == 0 and not w.sign_ambiguous

    def test_mismatched_support(self):
        F = tube(4, 12, {4: 1, 6: 1})
        G = tube(4, 12, {4: 1, 8: 1})
        assert tube_equivalent(F, G) is None

    def test_differing_type(self):
        F = tube(3, 12, {3: 1})
        G = tube(4, 12, {4: 1})
        assert tube_equivalent(F, G) is None

    def test_type_below_three(self):
        F = tube(3, 9, {2: 1, 3: 1})
        with pytest.raises(UnsupportedTypeError):
            tube_equivalent(F, F)

    def test_non_univariate_rejected(self):
        F = RealSeries(3, 9, {(3, 0, 0): 1, (2, 1, 0): 1})
        G = tube(3, 9, {3: 1})
        with pytest.raises(StructuralError):
            tube_equivalent(F, G)
        with pytest.raises(StructuralError):
            tube_equivalent(G, F)

    def test_zero_series_rejected(self):
        with pytest.raises(StructuralError):
            tube_equivalent(RealSeries(3, 9), tube(3, 9, {3: 1}))

    def test_series_vanishing_below_N_rejected(self):
        with pytest.raises(StructuralError, match="vanish below"):
            tube_equivalent(tube(4, 12, {9: 1}), tube(4, 8, {4: 1}))

    def test_N_below_2k_rejected(self):
        # tagged k = 3, but of type 4: N = 6 is below 2 * 4
        F = tube(3, 6, {4: 1})
        with pytest.raises(TruncationError, match="below 2k"):
            tube_equivalent(F, F)

    def test_truncation_uses_smaller_N(self):
        F = tube(4, 12, {4: 1, 10: 1})
        G = tube(4, 8, {4: 1})
        w = tube_equivalent(F, G)
        assert w.N == 8
        assert (w.a, w.b, w.c) == (Q(1), Q(0), Q(1))
        assert w.sign_ambiguous

    def test_witness_matches_factor_composition(self):
        F = tube(3, 9, {3: 2, 4: 1, 5: 3})
        uF = {j: v for (j, _, _), v in F.coeffs.items()}
        a, b, c = Q(1, 2), Q(1, 4), Q(3)
        P = {1: a}
        for j, v in uF.items():
            P[j] = P.get(j, Q(0)) - b * v
        Pinv = oracle.univariate_inverse(P, 9)
        uG = {j: c * v for j, v in oracle.ucompose_trunc(uF, Pinv, 9).items()}
        G = tube(3, 9, uG)
        w = tube_equivalent(F, G)
        assert isinstance(w.a, Q)
        c1, h1, delta, h2, c2 = w.factors
        assert w.a == delta
        assert w.b == (delta * h1 - delta ** 3 * h2) / c1
        assert w.c == c2 * delta ** 3 / c1
        assert w.b_parts == (h1 / c1, -h2 / c1)
        verify_witness(F, G, w)

    def test_radical_dilation_with_shifts(self):
        # both sides carry an x^(2k-1) term, so the shifts h1, h2 are
        # nonzero and b = p*a + q*a^k is itself irrational
        F = tube(4, 12, {4: 1, 6: 1, 7: 4, 8: 1, 9: 10, 10: 22,
                         11: 18, 12: 91})
        G = tube(4, 12, {4: 1, 6: Q(1, 2), 7: 4, 8: Q(1, 4), 9: 5,
                         10: 22, 11: Q(9, 2), 12: Q(91, 2)})
        w = tube_equivalent(F, G)
        assert w.a == RadicalReal(Q(2), 2, 1)
        assert w.b is None
        assert w.b_parts == (Q(-1), Q(1))
        assert w.c == Q(4)
        assert w.sign_ambiguous
        assert w.factors == (Q(1), Q(-1), w.a, Q(-1), Q(1))
        # independent check in the ring of pairs (r, s) = r + s*sqrt(2):
        # G(a x - b F(x)) must equal c F(x) through degree 12
        uF = {j: v for (j, _, _), v in F.coeffs.items()}
        uG = {j: v for (j, _, _), v in G.coeffs.items()}
        p, q = w.b_parts
        apair = (Q(0), Q(1))
        bpair = (q * 4, p)          # a^4 = 4
        mul = lambda x, y: (x[0] * y[0] + 2 * x[1] * y[1],
                            x[0] * y[1] + x[1] * y[0])
        inner = {1: apair}
        for j, v in uF.items():
            r, s = inner.get(j, (Q(0), Q(0)))
            inner[j] = (r - bpair[0] * v, s - bpair[1] * v)
        powers = {1: inner}
        for n in range(2, 13):
            cur = {}
            for d1, c1 in powers[n - 1].items():
                for d2, c2 in inner.items():
                    if d1 + d2 <= 12:
                        r, s = cur.get(d1 + d2, (Q(0), Q(0)))
                        rr, ss = mul(c1, c2)
                        cur[d1 + d2] = (r + rr, s + ss)
            powers[n] = cur
        out = {}
        for d, cval in uG.items():
            for dd, pair in powers[d].items():
                r, s = out.get(dd, (Q(0), Q(0)))
                out[dd] = (r + cval * pair[0], s + cval * pair[1])
        want = {j: (Q(4) * v, Q(0)) for j, v in uF.items()}
        assert {d: x for d, x in out.items() if x != (0, 0)} == want


class TestRigidReduce:
    def H(self, k, N, d):
        return Hypersurface.validate(
            RealSeries(k, N, {(k, 0, 0): 1, **d}), k)

    def test_identity(self):
        H1 = self.H(3, 9, {(4, 1, 0): 1})
        assert rigid_equivalence_reduce(H1, H1) == LinearFactor(1, 0)

    def test_constructed_dilation(self):
        H1 = self.H(3, 9, {(4, 1, 0): 1, (5, 1, 0): Q(2, 3)})
        G = apply_linear_series(H1.F, LinearFactor(3, 0))
        H2 = Hypersurface.validate(G, 3)
        assert rigid_equivalence_reduce(H1, H2) == LinearFactor(3, 0)
        assert rigid_equivalence_reduce(H2, H1) == LinearFactor(Q(1, 3), 0)

    def test_wrong_dilation_raises(self, monkeypatch):
        H1 = self.H(3, 9, {(4, 1, 0): 1, (5, 1, 0): Q(2, 3)})
        H2 = Hypersurface.validate(apply_linear_series(H1.F, LinearFactor(3, 0)), 3)
        monkeypatch.setattr("crnf.equivalence._match_power_ratios",
                            lambda pairs: (Q(2), False))
        with pytest.raises(InternalError, match="does not carry H1 to H2"):
            rigid_equivalence_reduce(H1, H2)

    def test_incompatible_exponents(self):
        H1 = self.H(3, 9, {(4, 1, 0): 1, (5, 1, 0): 1})
        H2 = self.H(3, 9, {(4, 1, 0): Q(1, 4), (5, 1, 0): 1})
        assert rigid_equivalence_reduce(H1, H2) is None

    def test_mismatched_support(self):
        H1 = self.H(3, 9, {(4, 1, 0): 1})
        H2 = self.H(3, 9, {(4, 2, 0): 1})
        assert rigid_equivalence_reduce(H1, H2) is None

    def test_radical_dilation(self):
        H1 = self.H(3, 9, {(4, 1, 0): 1})
        H2 = self.H(3, 9, {(4, 1, 0): Q(1, 2)})
        assert rigid_equivalence_reduce(H1, H2) == RadicalReal(Q(2), 2, 1)

    def test_loose_leading_rejected(self):
        H = Hypersurface.normal_coordinates(
            to_real_basis(ComplexSeries(4, 8, {(2, 2, 0): 1})), 4)
        with pytest.raises(StructuralError, match="leading term must be x"):
            rigid_equivalence_reduce(H, H)

    def test_tubular_rejected(self):
        H = self.H(3, 9, {(4, 0, 0): 1})
        with pytest.raises(StructuralError):
            rigid_equivalence_reduce(H, H)

    def test_u_dependent_rejected(self):
        H = self.H(3, 9, {(4, 0, 1): 1, (4, 1, 0): 1})
        with pytest.raises(NotRigidError):
            rigid_equivalence_reduce(H, H)

    def test_not_normal_rejected(self):
        H = self.H(3, 9, {(2, 2, 0): 1})
        with pytest.raises(StructuralError):
            rigid_equivalence_reduce(H, H)

    def test_differing_k(self):
        H1 = self.H(3, 9, {(4, 1, 0): 1})
        H2 = self.H(4, 9, {(5, 1, 0): 1})
        assert rigid_equivalence_reduce(H1, H2) is None
