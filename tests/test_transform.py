from fractions import Fraction

import pytest

import oracle
from conftest import (
    rand_dense_holo,
    rand_frac,
    rand_gauss,
    rand_holo,
    rand_hypersurface_series,
    rand_tail,
    seeded,
)
from crnf import series, transform
from crnf.errors import InternalError, StructuralError, UnsupportedTypeError
from crnf.hypersurface import Hypersurface
from crnf.series import ComplexSeries, GaussRat, HoloSeries, RealSeries, rat, to_real_basis
from crnf.symmetry import classify_aut
from crnf.transform import (
    FormalMap,
    LinearFactor,
    apply_linear_series,
    model_automorphism,
    pushforward,
    pushforward_series,
)


def rand_unipotent(rng, k, N, nf=2, ng=2, small=False):
    hi_f = N - k + 1 if not small else min(N - k + 1, k + 2)
    f = rand_holo(rng, k, N, nterms=nf, min_wt=2, max_wt=hi_f)
    g = rand_holo(rng, k, N, nterms=ng, min_wt=k + 1, max_wt=N if not small else k + 3)
    return FormalMap(f, g)


class TestLinearFactor:
    def test_identity_and_compose(self):
        a = LinearFactor(rat(2), 1)
        b = LinearFactor(rat(3, 2), 3)
        ab = a.compose(b)
        assert ab == LinearFactor(rat(3), 0)
        assert a.compose(a.inverse()).is_identity()

    def test_rejects_zero_delta(self):
        with pytest.raises(StructuralError):
            LinearFactor(0, 0)

    def test_rot_normalized(self):
        assert LinearFactor(1, 7).rot == 3
        assert LinearFactor(1, -1).rot == 3

    def test_rejects_non_integer_rot(self):
        for rot in (0.5, 1.0, Fraction(1)):
            with pytest.raises(StructuralError, match="integer rot"):
                LinearFactor(1, rot)


class TestFormalMapStructure:
    def test_identity(self):
        T = FormalMap.identity(3, 9)
        assert T.is_identity() and T.is_unipotent()

    def test_rejects_low_weight_f(self):
        with pytest.raises(StructuralError):
            FormalMap(HoloSeries(3, 9, {(1, 0): 1}), HoloSeries.zero(3, 9))

    def test_rejects_low_weight_g(self):
        # weight of w is k = 3 < k + 1
        with pytest.raises(StructuralError):
            FormalMap(HoloSeries.zero(3, 9), HoloSeries(3, 9, {(0, 1): 1}))
        with pytest.raises(StructuralError):
            FormalMap(HoloSeries.zero(3, 9), HoloSeries(3, 9, {(3, 0): 1}))

    def test_rejects_f_and_g_of_different_k_or_N(self):
        for g in (HoloSeries.zero(4, 9), HoloSeries.zero(3, 10)):
            with pytest.raises(StructuralError, match="share k and N"):
                FormalMap(HoloSeries.zero(3, 9), g)

    def test_compose_rejects_mismatched_maps(self):
        with pytest.raises(StructuralError, match="different k or N"):
            FormalMap.identity(3, 9).compose(FormalMap.identity(3, 10))

    def test_f_canonical_drop(self):
        # f terms above weight N-k+1 cannot affect the image through N
        f1 = HoloSeries(3, 9, {(2, 0): 1, (8, 0): 5})
        f2 = HoloSeries(3, 9, {(2, 0): 1})
        g = HoloSeries.zero(3, 9)
        assert FormalMap(f1, g) == FormalMap(f2, g)

    def test_truncate(self):
        T = FormalMap(HoloSeries(3, 12, {(2, 0): 1, (9, 0): 1}),
                      HoloSeries(3, 12, {(0, 4): 1}), LinearFactor(2, 0))
        T2 = T.truncate(9)
        assert T2.N == 9
        assert T2.f == HoloSeries(3, 9, {(2, 0): 1})  # weight 9 > 9-3+1 dropped
        assert T2.g == HoloSeries.zero(3, 9)          # weight 12 dropped
        assert T2.linear == T.linear


class TestComposeInvert:
    def test_compose_with_identity(self):
        rng = seeded(301)
        T = rand_unipotent(rng, 3, 9)
        I = FormalMap.identity(3, 9)
        assert T.compose(I) == T
        assert I.compose(T) == T

    def test_inverse_round_trip(self):
        rng = seeded(302)
        for k, N in [(3, 9), (4, 9), (5, 12)]:
            for _ in range(4):
                T = rand_unipotent(rng, k, N)
                Ti = T.inverse()
                assert T.compose(Ti).is_identity()
                assert Ti.compose(T).is_identity()
                assert Ti.inverse() == T

    def test_inverse_with_linear(self):
        rng = seeded(303)
        f = rand_holo(rng, 3, 9, nterms=2, min_wt=2)
        g = rand_holo(rng, 3, 9, nterms=2, min_wt=4)
        T = FormalMap(f, g, LinearFactor(rat(3, 2), 1))
        Ti = T.inverse()
        assert T.compose(Ti).is_identity()
        assert Ti.compose(T).is_identity()

    def test_compose_associative(self):
        rng = seeded(304)
        for _ in range(3):
            A = rand_unipotent(rng, 3, 9)
            B = rand_unipotent(rng, 3, 9)
            C = FormalMap(rand_holo(rng, 3, 9, nterms=1, min_wt=2),
                          rand_holo(rng, 3, 9, nterms=1, min_wt=4),
                          LinearFactor(rat(1, 2), 2))
            assert A.compose(B).compose(C) == A.compose(B.compose(C))

    def test_matches_oracle(self):
        rng = seeded(313)
        pairs = lambda h: {key: (c.re, c.im) for key, c in h.coeffs.items()}
        cases = []
        for k, N in [(3, 9), (4, 10)]:
            for _ in range(2):
                cases.append((rand_unipotent(rng, k, N), rand_unipotent(rng, k, N)))
        # w-terms (j = 0, m >= 1) in f and g
        w_terms = lambda: FormalMap.from_parts(
            3, 9, {(0, 1): rand_gauss(rng, nonzero=True), (1, 1): rand_gauss(rng, nonzero=True),
                   (0, 2): rand_gauss(rng, nonzero=True)},
            {(0, 2): rand_gauss(rng, nonzero=True), (1, 1): rand_gauss(rng, nonzero=True),
             (0, 3): rand_gauss(rng, nonzero=True)})
        cases.append((w_terms(), w_terms()))
        # lowest-weight term far below the others: a budget from the min
        # weight alone, N - min_weight + t1 + k t2, passes N
        sparse = lambda k, N: FormalMap.from_parts(
            k, N, {(2, 0): rand_gauss(rng, nonzero=True),
                   (N - k + 1, 0): rand_gauss(rng, nonzero=True),
                   (N - 2 * k + 1, 1): rand_gauss(rng, nonzero=True)},
            {(k + 1, 0): rand_gauss(rng, nonzero=True), (N, 0): rand_gauss(rng, nonzero=True),
             (N - k, 1): rand_gauss(rng, nonzero=True)})
        cases.append((sparse(3, 10), sparse(3, 10)))
        cases.append((sparse(4, 12), rand_unipotent(rng, 4, 12)))
        # a linear factor on the first map conjugates the second one
        T1 = rand_unipotent(rng, 3, 9)
        cases.append((FormalMap(T1.f, T1.g, LinearFactor(rat(-3, 2), 1)),
                      rand_unipotent(rng, 3, 9)))
        # a dilation 7/11 and a large prime denominator: D is not smooth
        T1 = rand_unipotent(rng, 4, 10)
        T2 = rand_unipotent(rng, 4, 10)
        cases.append((FormalMap(T1.f + HoloSeries.monomial(4, 10, 3, 0, GaussRat(rat(1, 10007), 2)),
                                T1.g, LinearFactor(rat(7, 11), 3)), T2))
        for T1, T2 in cases:
            got = T1.compose(T2)
            L = T1.linear
            lz = GaussRat(L.delta).times_i_power(L.rot)
            want_f, want_g = oracle.compose_oracle(
                pairs(T1.f), pairs(T1.g), pairs(T2.f), pairs(T2.g), T1.k, T1.N,
                lz=(lz.re, lz.im), lw=L.delta ** T1.k)
            assert pairs(got.f) == want_f
            assert pairs(got.g) == want_g
            assert got.linear == T1.linear.compose(T2.linear)

    def test_inverse_matches_oracle(self):
        # T followed by its inverse, expanded by the oracle, is the identity
        rng = seeded(314)
        pairs = lambda h: {key: (c.re, c.im) for key, c in h.coeffs.items()}
        gauss = lambda keys: {key: rand_gauss(rng, nonzero=True) for key in keys}
        U = rand_unipotent(rng, 4, 10)
        cases = [
            # f = z^2: the inverse has a term at every weight 2 .. N - k + 1
            FormalMap.from_parts(3, 14, {(2, 0): 1}),
            # w-terms (j = 0, m >= 1) in f and g
            FormalMap.from_parts(3, 9, gauss([(0, 1), (1, 1), (0, 2)]),
                                 gauss([(0, 2), (1, 1), (0, 3)])),
            # a dilation 7/11 and a large prime denominator
            FormalMap(U.f + HoloSeries.monomial(4, 10, 3, 0, GaussRat(rat(1, 10007), 2)),
                      U.g, LinearFactor(rat(7, 11), 3)),
            # a dense map, as in the benchmark's map algebra
            FormalMap(rand_dense_holo(rng, 4, 10, 2, 7), rand_dense_holo(rng, 4, 10, 5, 10)),
        ]
        for T in cases:
            k, N = T.k, T.N
            Ti = T.inverse()
            lz = GaussRat(T.linear.delta).times_i_power(T.linear.rot)
            assert oracle.compose_oracle(
                pairs(T.f), pairs(T.g), pairs(Ti.f), pairs(Ti.g), k, N,
                lz=(lz.re, lz.im), lw=T.linear.delta ** k) == ({}, {})
            assert Ti.linear == T.linear.inverse()
        # z -> z + z^2 inverts to z + sum_n (-1)^n C_n z^(n+1), C_n Catalan
        assert cases[0].inverse().f.coeff(12, 0) == -58786

    def test_failed_inverse_raises(self, monkeypatch):
        real = transform._unshift

        def perturbed(R, k, bases, W):
            G = real(R, k, bases, W)
            key = series._key(W, 0, 0, k)
            G[0][key] = G[0].get(key, 0) + 1
            return G

        monkeypatch.setattr(transform, "_unshift", perturbed)
        T = FormalMap.from_parts(3, 9, {(2, 0): 1}, {(4, 0): 1})
        with pytest.raises(InternalError, match="map inversion failed"):
            T.inverse()

    def test_known_composition(self):
        # (z -> z + z^2) then (z -> z + z^2): z + z^2 + (z + z^2)^2
        f = HoloSeries(3, 9, {(2, 0): 1})
        T = FormalMap(f, HoloSeries.zero(3, 9))
        TT = T.compose(T)
        assert TT.f == HoloSeries(3, 9, {(2, 0): 2, (3, 0): 2, (4, 0): 1})
        assert TT.g.is_zero()


class TestApplyLinear:
    def test_dilation_example(self):
        F = RealSeries(4, 8, {(4, 0, 0): 1, (6, 0, 0): 1})
        G = apply_linear_series(F, LinearFactor(2, 0))
        assert G == RealSeries(4, 8, {(4, 0, 0): 1, (6, 0, 0): rat(1, 4)})

    def test_quarter_rotation_swaps_xy(self):
        F = RealSeries.monomial(4, 8, 0, 4, 0)  # y^4
        G = apply_linear_series(F, LinearFactor(1, 1))
        assert G == RealSeries.monomial(4, 8, 4, 0, 0)

    def test_reflection_fixes_x3_with_negative_delta(self):
        F = RealSeries.monomial(3, 9, 3, 0, 0)
        assert apply_linear_series(F, LinearFactor(-1, 0)) == F

    def test_rot2_odd_k_flips_leading(self):
        F = RealSeries.monomial(3, 9, 3, 0, 0)
        G = apply_linear_series(F, LinearFactor(1, 2))
        assert G == RealSeries.monomial(3, 9, 3, 0, 0, -1)

    def test_u_terms_scale(self):
        # weight exponent k - j - l - km with m = 1
        F = RealSeries(4, 12, {(2, 0, 1): 1})
        G = apply_linear_series(F, LinearFactor(2, 0))
        assert G == RealSeries(4, 12, {(2, 0, 1): rat(1, 4)})

    def test_every_quarter_turn_matches_oracle(self):
        # G(x*, y*, u*) = delta^k F(x, y, u), with x + iy = (x* + iy*) / lz
        # and u = u* / delta^k, lz = delta i^rot
        rng = seeded(313)
        delta = rat(-3, 2)
        for k, N in [(3, 9), (4, 10)]:
            F = RealSeries(k, N, {(k, 0, 0): 1, (k - 1, 1, 0): rat(2, 3),
                                  (2, 3, 0): -1, (1, 1, 1): rat(5, 7),
                                  (0, 5, 0): 3}) + rand_tail(rng, k, N, 4)
            for rot in range(4):
                c = oracle.CONE
                for _ in range(-rot % 4):
                    c = oracle.cmulc(c, oracle.CI)
                c = oracle.cmulc(c, oracle.cnum(1 / delta))
                X = {(1, 0, 0): oracle.cnum(c[0]), (0, 1, 0): oracle.cnum(-c[1])}
                Y = {(1, 0, 0): oracle.cnum(c[1]), (0, 1, 0): oracle.cnum(c[0])}
                U = {(0, 0, 1): oracle.cnum(1 / delta ** k)}
                want = oracle.pscale(oracle.subst_xyu(oracle.from_real_series(F), k,
                                                      X, Y, U, N),
                                     oracle.cnum(delta ** k))
                got = apply_linear_series(F, LinearFactor(delta, rot))
                assert oracle.eq_real(want, got), (k, rot)

    def test_composition_consistency(self):
        rng = seeded(305)
        F = rand_hypersurface_series(rng, 4, 8)
        L1 = LinearFactor(rat(2, 3), 1)
        L2 = LinearFactor(rat(-5, 2), 3)
        via_two = apply_linear_series(apply_linear_series(F, L1), L2)
        via_one = apply_linear_series(F, L1.compose(L2))
        assert via_two == via_one


class TestPushforward:
    def test_identity_map_fixes_everything(self):
        rng = seeded(306)
        F = rand_hypersurface_series(rng, 3, 9)
        H = Hypersurface.validate(F, 3)
        assert pushforward(H, FormalMap.identity(3, 9)) == H

    def test_rejects_map_of_other_k(self):
        F = RealSeries.monomial(3, 9, 3, 0, 0)
        with pytest.raises(StructuralError, match="map k = 4 does not match"):
            pushforward_series(F, FormalMap.identity(4, 9))

    def test_rejects_graph_below_weight_k_under_nonzero_map(self):
        F = RealSeries(4, 8, {(4, 0, 0): 1, (2, 0, 0): 1})
        T = FormalMap.from_parts(4, 8, {(2, 0): GaussRat(1)}, {})
        with pytest.raises(StructuralError, match="weight 2 < k = 4"):
            pushforward_series(F, T)

    def test_matches_oracle_random(self):
        rng = seeded(307)
        cases = [(3, 9, 4), (4, 9, 3), (5, 11, 2)]
        inputs = []
        for k, N, trials in cases:
            for _ in range(trials):
                F = rand_hypersurface_series(rng, k, N, nterms=3)
                inputs.append((F, rand_unipotent(rng, k, N, nf=2, ng=1, small=True)))
        # non-homogeneous f and g whose low-m terms have high j
        gauss = lambda keys: {key: rand_gauss(rng, nonzero=True) for key in keys}
        for k, N, fkeys, gkeys in [(3, 9, [(7, 0), (2, 1), (0, 2)], [(9, 0), (1, 2)]),
                                   (4, 10, [(7, 0), (0, 1)], [(10, 0), (2, 2)])]:
            inputs.append((rand_hypersurface_series(rng, k, N, nterms=3),
                           FormalMap.from_parts(k, N, gauss(fkeys), gauss(gkeys))))
        # a dense map, as in the benchmark's map algebra
        k, N = 3, 9
        inputs.append((rand_hypersurface_series(rng, k, N, nterms=3),
                       FormalMap(rand_dense_holo(rng, k, N, 2, N - k + 1),
                                 rand_dense_holo(rng, k, N, k + 1, N))))
        # large prime denominators (1/10007 in the tail, 1/9973 in the map)
        k, N = 3, 9
        F = rand_hypersurface_series(rng, k, N, nterms=3) + RealSeries.monomial(
            k, N, 2, 1, 1, rat(1, 10007))
        T = rand_unipotent(rng, k, N, nf=2, ng=1, small=True)
        inputs.append((F, FormalMap(T.f + HoloSeries.monomial(k, N, 2, 0, GaussRat(1, rat(1, 9973))),
                                    T.g)))
        # a fractional weight-k part, which no dilation clears
        F = RealSeries(k, N, {(3, 0, 0): rat(1, 2), (0, 0, 1): rat(1, 3)}) + rand_tail(rng, k, N, 3)
        inputs.append((F, rand_unipotent(rng, k, N, nf=2, ng=1, small=True)))
        for F, T in inputs:
            got = pushforward_series(F, T)
            want = oracle.pushforward_oracle(
                oracle.from_real_series(F), F.k, F.N,
                {key: (c.re, c.im) for key, c in T.f.coeffs.items()},
                {key: (c.re, c.im) for key, c in T.g.coeffs.items()})
            assert got.coeffs == want

    def test_functorial_in_composition(self):
        rng = seeded(308)
        for k, N in [(3, 9), (4, 10)]:
            for _ in range(3):
                F = rand_hypersurface_series(rng, k, N, nterms=4)
                H = Hypersurface.validate(F, k)
                T1 = rand_unipotent(rng, k, N)
                T2 = rand_unipotent(rng, k, N)
                step = pushforward(pushforward(H, T1), T2)
                joint = pushforward(H, T1.compose(T2))
                assert step == joint

    def test_functorial_with_linear_factors(self):
        rng = seeded(309)
        k, N = 4, 10
        F = rand_hypersurface_series(rng, k, N, nterms=4)
        H = Hypersurface.validate(F, k)
        T1 = FormalMap(rand_holo(rng, k, N, nterms=2, min_wt=2),
                       rand_holo(rng, k, N, nterms=2, min_wt=k + 1),
                       LinearFactor(rat(2), 2))
        T2 = FormalMap(rand_holo(rng, k, N, nterms=2, min_wt=2),
                       rand_holo(rng, k, N, nterms=2, min_wt=k + 1),
                       LinearFactor(rat(1, 3), 0))
        assert pushforward(pushforward(H, T1), T2) == pushforward(H, T1.compose(T2))

    def test_inverse_undoes_pushforward(self):
        rng = seeded(310)
        for k, N in [(3, 9), (4, 9)]:
            F = rand_hypersurface_series(rng, k, N, nterms=4)
            H = Hypersurface.validate(F, k)
            T = rand_unipotent(rng, k, N)
            assert pushforward(pushforward(H, T), T.inverse()) == H

    def test_strict_form_preserved_by_unipotent(self):
        rng = seeded(311)
        F = rand_hypersurface_series(rng, 3, 9)
        H = Hypersurface.validate(F, 3)
        T = rand_unipotent(rng, 3, 9)
        H2 = pushforward(H, T)
        assert H2.tube_form
        assert H2.F.weight_part(3) == RealSeries.monomial(3, 9, 3, 0, 0)

    def test_strict_form_broken_by_quarter_turn(self):
        # a turn that moves x^k gives an image out of tube form, not an error
        rng = seeded(314)
        for k, N, rot in [(3, 9, 1), (3, 9, 2), (3, 9, 3), (4, 10, 1), (4, 10, 3)]:
            H = Hypersurface.validate(rand_hypersurface_series(rng, k, N, nterms=3), k)
            T = FormalMap(rand_holo(rng, k, N, nterms=2, min_wt=2),
                          rand_holo(rng, k, N, nterms=2, min_wt=k + 1),
                          LinearFactor(rat(2, 3), rot))
            H2 = pushforward(H, T)
            assert not H2.tube_form
            assert H2.F == apply_linear_series(pushforward_series(H.F, FormalMap(T.f, T.g)),
                                               T.linear)
            back = pushforward(H2, T.inverse())
            assert back == H and back.tube_form
        # a purely linear map
        H = Hypersurface.validate(RealSeries(3, 9, {(3, 0, 0): 1, (4, 0, 0): 1}), 3)
        L = LinearFactor(1, 1)
        H2 = pushforward(H, FormalMap(HoloSeries.zero(3, 9), HoloSeries.zero(3, 9), L))
        assert not H2.tube_form and H2.F == apply_linear_series(H.F, L)

    def test_map_truncated_below_surface_rejected(self):
        F = RealSeries.monomial(3, 12, 3, 0, 0)
        with pytest.raises(StructuralError):
            pushforward_series(F, FormalMap.identity(3, 9))

    def test_wider_map_truncated_down(self):
        rng = seeded(312)
        F = rand_hypersurface_series(rng, 3, 9, nterms=3)
        T = rand_unipotent(rng, 3, 12)
        got = pushforward_series(F, T)
        assert got.N == 9


class TestLinearAboveFrameLimit:
    """The linear action runs on tuple keys: it takes any N, where a frame
    stops at FRAME_MAX_N."""

    N = series.FRAME_MAX_N + 1

    def graph(self):
        return RealSeries(3, self.N, {(3, 0, 0): 1, (2, 1, 0): 1, (self.N, 0, 0): rat(1, 2),
                                      (0, 1, (self.N - 1) // 3): 3})

    def test_apply_linear_series(self):
        F, N = self.graph(), self.N
        G = apply_linear_series(F, LinearFactor(-2, 1))
        assert G.N == N
        assert G.coeff(0, N, 0) == rat(1, 2) * rat(-2) ** (3 - N)
        assert apply_linear_series(G, LinearFactor(rat(-1, 2), 3)) == F

    def test_pushforward_of_a_linear_map(self):
        F, N = self.graph(), self.N
        L = LinearFactor(rat(3, 2), 2)
        T = FormalMap(HoloSeries.zero(3, N), HoloSeries.zero(3, N), L)
        assert pushforward_series(F, T) == apply_linear_series(F, L)

    def test_classify_aut(self):
        H = Hypersurface.validate(RealSeries(3, self.N, {(3, 0, 0): 1, (5, 0, 0): 1}), 3)
        assert classify_aut(H).tag == "Zm"


class TestModelAutomorphism:
    def test_frozen_coefficients(self):
        T = model_automorphism(4, 12, delta=1, rot=0, mu=1)
        # (1+w)^(-1/2) = 1 - w/2 + 3w^2/8 - ...
        assert T.f.coeff(1, 1) == GaussRat(rat(-1, 2))
        assert T.f.coeff(1, 2) == GaussRat(rat(3, 8))
        # w(1+w)^-1 = w - w^2 + w^3 - ...
        assert T.g.coeff(0, 2) == GaussRat(-1)
        assert T.g.coeff(0, 3) == GaussRat(1)

    def test_rejects_odd_k(self):
        with pytest.raises(UnsupportedTypeError):
            model_automorphism(3, 9, mu=1)

    def test_fixes_circular_model(self):
        # |z|^4 = (x^2 + y^2)^2 is invariant under the full family
        F = to_real_basis(ComplexSeries(4, 12, {(2, 2, 0): 1}))
        H = Hypersurface.normal_coordinates(F, 4)
        for delta, rot, mu in [(1, 0, 1), (2, 1, rat(-1, 2)), (rat(1, 3), 2, rat(2, 3))]:
            T = model_automorphism(4, 12, delta=delta, rot=rot, mu=mu)
            assert pushforward(H, T) == H

    def test_zero_mu_is_linear(self):
        T = model_automorphism(4, 12, delta=2, rot=1, mu=0)
        assert T.f.is_zero() and T.g.is_zero()
        assert T.linear == LinearFactor(2, 1)
