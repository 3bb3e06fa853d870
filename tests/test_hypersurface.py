import copy
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

import oracle
from conftest import rand_frac, rand_gauss, rand_real_series, rand_tail, seeded
from crnf.errors import (
    NotExactlyRepresentableError,
    NotTubeModelError,
    StructuralError,
)
from crnf.fileformat import parse_series, serialize_series
from crnf.hypersurface import (
    Hypersurface,
    PrenormalizationRecord,
    detect_tube_model,
    essential_type,
    invariant_L,
    prenormalize_tube,
)
from crnf.series import (
    ComplexSeries,
    GaussRat,
    RealSeries,
    graded_image,
    rat,
    to_complex_basis,
    to_real_basis,
)


def tube_leading(k, N, lam, t):
    """lambda * (alpha z + conj(alpha) zbar)^k with alpha = i^t, as a
    ComplexSeries: a_j = lambda C(k,j) alpha^(2j-k)."""
    from math import comb
    coeffs = {}
    for j in range(k + 1):
        coeffs[(j, k - j, 0)] = GaussRat(Fraction(lam) * comb(k, j)).times_i_power(
            (t * (2 * j - k)) % 4)
    return ComplexSeries(k, N, coeffs)


class TestValidate:
    def test_accepts_strict_form(self):
        F = RealSeries(3, 9, {(3, 0, 0): 1, (3, 1, 0): 1})  # x^3 + x^3 y
        H = Hypersurface.validate(F, 3)
        assert H.tube_form and H.k == 3 and H.N == 9
        assert H.tail() == RealSeries(3, 9, {(3, 1, 0): 1})

    def test_rejects_weight_k_extra_term(self):
        # x^3 y has weight 4 = k when k = 4
        F = RealSeries(4, 8, {(4, 0, 0): 1, (3, 1, 0): 1})
        with pytest.raises(StructuralError):
            Hypersurface.validate(F, 4)

    def test_rejects_missing_or_scaled_leading(self):
        with pytest.raises(StructuralError):
            Hypersurface.validate(RealSeries(3, 9, {(4, 0, 0): 1}), 3)
        with pytest.raises(StructuralError):
            Hypersurface.validate(RealSeries(3, 9, {(3, 0, 0): 2}), 3)

    def test_rejects_below_weight_k(self):
        F = RealSeries(3, 9, {(3, 0, 0): 1, (2, 0, 0): 1})
        with pytest.raises(StructuralError):
            Hypersurface.validate(F, 3)

    def test_rejects_weight_k_u_term(self):
        F = RealSeries(3, 9, {(3, 0, 0): 1, (0, 0, 1): 1})
        with pytest.raises(StructuralError):
            Hypersurface.validate(F, 3)

    def test_rejects_mismatched_k(self):
        F = RealSeries(3, 9, {(3, 0, 0): 1})
        with pytest.raises(StructuralError):
            Hypersurface.validate(F, 4)

    def test_rejects_zero_series(self):
        with pytest.raises(StructuralError, match="F is zero"):
            Hypersurface.validate(RealSeries(3, 9), 3)


class TestNormalCoordinates:
    def test_accepts_circular_model(self):
        # |z|^4 = (x^2+y^2)^2
        F = to_real_basis(ComplexSeries(4, 8, {(2, 2, 0): 1}))
        H = Hypersurface.normal_coordinates(F, 4)
        assert not H.tube_form
        assert essential_type(H.leading_complex()) == 2

    def test_rejects_pure_only_model(self):
        # Re z^4 has no mixed term
        F = to_real_basis(ComplexSeries(4, 8, {(4, 0, 0): rat(1, 2),
                                               (0, 4, 0): rat(1, 2)}))
        with pytest.raises(NotTubeModelError):
            Hypersurface.normal_coordinates(F, 4)

    def test_rejects_u_in_leading(self):
        F = RealSeries(3, 9, {(3, 0, 0): 1, (0, 0, 1): 1})
        with pytest.raises(StructuralError):
            Hypersurface.normal_coordinates(F, 3)

    def test_rejects_missing_weight_k_part(self):
        with pytest.raises(StructuralError, match="no weight-k part"):
            Hypersurface.normal_coordinates(RealSeries(4, 8, {(5, 0, 0): 1}), 4)

    def test_rejects_mismatched_k(self):
        F = to_real_basis(ComplexSeries(4, 8, {(2, 2, 0): 1}))
        with pytest.raises(StructuralError, match="type tag 4 != requested k = 5"):
            Hypersurface.normal_coordinates(F, 5)


class TestModelInvariants:
    def test_essential_type_of_tube(self):
        for k, N in [(3, 9), (4, 8), (5, 15)]:
            lead = to_complex_basis(RealSeries.monomial(k, N, k, 0, 0))
            assert essential_type(lead) == 1

    def test_essential_type_half(self):
        lead = ComplexSeries(4, 8, {(2, 2, 0): 1})
        assert essential_type(lead) == 2

    def test_invariant_L_examples(self):
        # x^4: mixed indices m = 1 (< k/2 = 2), value k - 2m = 2
        lead4 = to_complex_basis(RealSeries.monomial(4, 8, 4, 0, 0))
        assert invariant_L(lead4) == 2
        # x^5: m = 1, 2 give 3, 1 -> gcd 1
        lead5 = to_complex_basis(RealSeries.monomial(5, 15, 5, 0, 0))
        assert invariant_L(lead5) == 1
        # only a_2, a_4 mixed for k = 6: gcd(6 - 4) = 2
        lead6 = ComplexSeries(6, 12, {(2, 4, 0): 1, (4, 2, 0): 1})
        assert invariant_L(lead6) == 2

    def test_invariant_L_undefined_at_half(self):
        lead = ComplexSeries(4, 8, {(2, 2, 0): 1})
        with pytest.raises(StructuralError):
            invariant_L(lead)

    def test_infinite_type_rejected(self):
        lead = ComplexSeries(4, 8, {(4, 0, 0): rat(1, 2), (0, 4, 0): rat(1, 2)})
        with pytest.raises(NotTubeModelError):
            essential_type(lead)


class TestDetectTubeModel:
    def test_xk_is_tube(self):
        for k, N, lam in [(3, 9, rat(1, 8)), (4, 8, rat(1, 16)), (5, 15, rat(1, 32))]:
            info = detect_tube_model(to_complex_basis(RealSeries.monomial(k, N, k, 0, 0)))
            assert info.is_tube and info.rho == GaussRat(1)
            assert info.alpha_pow == 0 and info.lam == lam and info.e == 1

    def test_scaled_tube(self):
        info = detect_tube_model(to_complex_basis(
            RealSeries.monomial(4, 8, 4, 0, 0, 16)))
        assert info.is_tube and info.lam == 1

    def test_y4_has_rho_minus_one(self):
        info = detect_tube_model(to_complex_basis(RealSeries.monomial(4, 8, 0, 4, 0)))
        assert info.is_tube and info.rho == GaussRat(-1)
        assert info.alpha_pow == 1 and info.lam == rat(1, 16)

    def test_x2y2_not_tube(self):
        F = RealSeries(4, 8, {(4, 0, 0): 1, (2, 2, 0): 1})
        info = detect_tube_model(to_complex_basis(F))
        assert not info.is_tube and info.rho is None
        assert info.e == 1 and info.L == 2

    def test_half_type_not_tube(self):
        info = detect_tube_model(ComplexSeries(4, 8, {(2, 2, 0): 1}))
        assert not info.is_tube and info.e == 2 and info.L is None

    def test_eighth_root_tube_detected_but_not_representable(self):
        lead = tube_leading(4, 8, 1, 0)
        # build rho = i by hand: a_j = C(4,j) i^(j-2)
        from math import comb
        lead = ComplexSeries(4, 8, {
            (j, 4 - j, 0): GaussRat(comb(4, j)).times_i_power((j - 2) % 4)
            for j in range(5)})
        info = detect_tube_model(lead)
        assert info.is_tube and info.rho == GaussRat(0, 1)
        assert info.alpha_pow is None and info.lam is None

    def test_pure_terms_ignored(self):
        # x^4 plus harmonic junk is still a tube model
        lead = to_complex_basis(RealSeries.monomial(4, 8, 4, 0, 0))
        junk = ComplexSeries(4, 8, {(4, 0, 0): GaussRat(3, 7), (0, 4, 0): GaussRat(3, -7)})
        info = detect_tube_model(lead + junk)
        assert info.is_tube and info.lam == rat(1, 16)

    def test_random_tube_leadings(self):
        rng = seeded(201)
        for k, N in [(3, 9), (4, 8), (5, 15), (6, 12)]:
            for t in range(4):
                lam = rand_frac(rng, nonzero=True)
                info = detect_tube_model(tube_leading(k, N, lam, t))
                assert info.is_tube
                assert info.rho == GaussRat((-1) ** t)  # i^(2t)
                if info.alpha_pow is not None:
                    # lam recovered exactly up to the sign flip alpha -> -alpha
                    assert info.lam in (Fraction(lam), -Fraction(lam))


def check_prenormalization_graph_identity(F, H, rec):
    """Oracle check: the recorded map really sends the graph v = F onto the
    graph v = H.F, verified by raw substitution through weight N."""
    k, N = F.k, F.N
    ip = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
          (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1))]
    Fd = oracle.from_real_series(F)
    # z* = i^rot z
    zstar = oracle.pscale(oracle.Z, ip[rec.rot % 4])
    xstar = {key: (c[0], Fraction(0)) for key, c in zstar.items() if c[0] != 0}
    ystar = {key: (c[1], Fraction(0)) for key, c in zstar.items() if c[1] != 0}
    # w* = w_scale w + harmonic (i^rot z)^k
    ch = oracle.cmulc((rec.harmonic.re, rec.harmonic.im), ip[(rec.rot * k) % 4])
    hz = oracle.pscale(oracle.ppow(oracle.Z, k), ch)
    ustar = oracle.padd(oracle.pscale(oracle.U, oracle.cnum(rec.w_scale)),
                        oracle.preal_part(hz))
    vstar = oracle.padd(oracle.pscale(Fd, oracle.cnum(rec.w_scale)),
                        oracle.pimag_part(hz))
    rhs = oracle.subst_xyu(oracle.from_real_series(H.F), k, xstar, ystar, ustar, N)
    assert oracle.pclean(oracle.ptrunc(oracle.psub(vstar, rhs), k, N)) == {}


class TestGradedImage:
    def test_matches_the_recorded_change(self):
        # z -> i^rot z, w -> s w, w -> w + c z^k on random graphs with u
        # terms, checked by raw substitution; c = 0 and s < 0 included
        rng = seeded(203)
        for trial in range(24):
            k = rng.choice([3, 4, 5])
            N = 3 * k
            F = rand_real_series(rng, k, N, nterms=6, min_wt=k)
            rot, s = rng.randrange(4), rand_frac(rng, nonzero=True)
            c = GaussRat(0) if trial % 4 == 0 else rand_gauss(rng)
            G = graded_image(F, rot, s, c)
            rec = PrenormalizationRecord(rot=rot, w_scale=s, harmonic=c)
            check_prenormalization_graph_identity(F, SimpleNamespace(F=G), rec)

    def test_refuses_a_term_below_k(self):
        F = RealSeries(4, 8, {(4, 0, 0): 1, (3, 0, 0): 1})
        with pytest.raises(StructuralError,
                           match=r"^graph has a monomial of weight 3 < k = 4$"):
            graded_image(F, 1, 2, GaussRat(1, 1))


class TestPrenormalizeTube:
    def test_pure_scaling(self):
        F = RealSeries.monomial(4, 8, 4, 0, 0, 16)
        H, rec = prenormalize_tube(F)
        assert H.F == RealSeries.monomial(4, 8, 4, 0, 0)
        assert (rec.rot, rec.w_scale, rec.harmonic) == (0, rat(1, 16), GaussRat(0))
        check_prenormalization_graph_identity(F, H, rec)

    def test_scaling_keeps_u_terms(self):
        F = RealSeries(4, 8, {(4, 0, 0): 16, (2, 0, 1): 1})
        H, rec = prenormalize_tube(F)
        assert H.F == RealSeries(4, 8, {(4, 0, 0): 1, (2, 0, 1): 1})
        check_prenormalization_graph_identity(F, H, rec)

    def test_harmonic_shift(self):
        # x^4 + Re z^4 = 2x^4 - 6x^2y^2 + y^4; the pure part moves to 2^-4
        # via w -> w - i z^4 and the result is exactly x^4
        F = RealSeries(4, 8, {(4, 0, 0): 2, (2, 2, 0): -6, (0, 4, 0): 1})
        H, rec = prenormalize_tube(F)
        assert H.F == RealSeries.monomial(4, 8, 4, 0, 0)
        assert (rec.rot, rec.w_scale, rec.harmonic) == (0, 1, GaussRat(0, -1))
        check_prenormalization_graph_identity(F, H, rec)

    def test_quarter_rotation(self):
        F = RealSeries.monomial(4, 8, 0, 4, 0)  # y^4
        H, rec = prenormalize_tube(F)
        assert H.F == RealSeries.monomial(4, 8, 4, 0, 0)
        assert (rec.rot, rec.w_scale, rec.harmonic) == (1, 1, GaussRat(0))
        check_prenormalization_graph_identity(F, H, rec)

    def test_negative_scale_odd_k_uses_reflection(self):
        F = RealSeries.monomial(3, 9, 3, 0, 0, -1)
        H, rec = prenormalize_tube(F)
        assert H.F == RealSeries.monomial(3, 9, 3, 0, 0)
        assert (rec.rot, rec.w_scale, rec.harmonic) == (2, 1, GaussRat(0))
        check_prenormalization_graph_identity(F, H, rec)

    def test_negative_scale_even_k(self):
        F = RealSeries.monomial(4, 8, 4, 0, 0, -1)
        H, rec = prenormalize_tube(F)
        assert H.F == RealSeries.monomial(4, 8, 4, 0, 0)
        assert (rec.rot, rec.w_scale, rec.harmonic) == (0, -1, GaussRat(0))
        check_prenormalization_graph_identity(F, H, rec)

    def test_identity_on_strict_form(self):
        F = RealSeries(3, 9, {(3, 0, 0): 1, (3, 1, 0): 1})
        H, rec = prenormalize_tube(F)
        assert H.F == F
        assert (rec.rot, rec.w_scale, rec.harmonic) == (0, 1, GaussRat(0))

    def test_rejects_non_tube(self):
        F = RealSeries(4, 8, {(4, 0, 0): 1, (2, 2, 0): 1})
        with pytest.raises(NotTubeModelError):
            prenormalize_tube(F)

    def test_rejects_eighth_root_rotation(self):
        from math import comb
        lead = ComplexSeries(4, 8, {
            (j, 4 - j, 0): GaussRat(comb(4, j)).times_i_power((j - 2) % 4)
            for j in range(5)})
        F = to_real_basis(lead)
        with pytest.raises(NotExactlyRepresentableError) as exc:
            prenormalize_tube(F)
        assert exc.value.condition is not None

    def test_random_tubes_with_tails(self):
        rng = seeded(202)
        for trial in range(12):
            k = rng.choice([3, 4, 5])
            N = 3 * k
            t = rng.randrange(4)
            lam = rand_frac(rng, nonzero=True)
            lead = tube_leading(k, N, lam, t)
            # random harmonic pure addition keeps it a tube model
            pure = rand_frac(rng)
            lead = lead + ComplexSeries(k, N, {(k, 0, 0): GaussRat(pure, 1),
                                               (0, k, 0): GaussRat(pure, -1)})
            F = to_real_basis(lead) + rand_tail(rng, k, N, nterms=4)
            H, rec = prenormalize_tube(F)
            assert H.tube_form and H.F.weight_part(k) == RealSeries.monomial(k, N, k, 0, 0)
            check_prenormalization_graph_identity(F, H, rec)


def cache_graphs():
    """Strict graphs x^k + tail and, in normal coordinates, graphs on a
    tube model with a pure part and on z^2 zbar^2, each with a tail."""
    rng = seeded(211)
    out = []
    for k, N in ((3, 9), (4, 12), (5, 15)):
        tail = rand_tail(rng, k, N, nterms=6)
        out.append(Hypersurface.validate(RealSeries.monomial(k, N, k, 0, 0) + tail, k))
        lead = tube_leading(k, N, rand_frac(rng, nonzero=True), 1) + ComplexSeries(
            k, N, {(k, 0, 0): GaussRat(1, 2), (0, k, 0): GaussRat(1, -2)})
        out.append(Hypersurface.normal_coordinates(to_real_basis(lead) + tail, k))
    out.append(Hypersurface.normal_coordinates(
        to_real_basis(ComplexSeries(4, 12, {(2, 2, 0): 1})) + rand_tail(rng, 4, 12), 4))
    return out


class TestComplexForms:
    """complex_form and leading_complex convert at most once per graph."""

    @pytest.mark.parametrize("lead_first", [False, True])
    def test_equal_fresh_conversions_and_are_kept(self, lead_first):
        for H in cache_graphs():
            if lead_first:
                lead, C = H.leading_complex(), H.complex_form()
            else:
                C, lead = H.complex_form(), H.leading_complex()
            assert C == to_complex_basis(H.F)
            assert lead == to_complex_basis(H.leading())
            assert H.complex_form() is C and H.leading_complex() is lead

    def test_seeded_from_a_parsed_zzu_file(self):
        for H in cache_graphs():
            S = parse_series(serialize_series(to_complex_basis(H.F)))
            F = to_real_basis(S)
            G = Hypersurface(F, _strict=H.tube_form, _complex=S)
            assert G == H and G.complex_form() is S
            assert S == to_complex_basis(F)
            assert G.leading_complex() == to_complex_basis(F.weight_part(H.k))

    def test_copies_equal_the_original(self):
        for H in cache_graphs():
            for filled in (False, True):
                if filled:
                    H.complex_form()
                    H.leading_complex()
                for clone in (copy.copy(H), copy.deepcopy(H),
                              pickle.loads(pickle.dumps(H))):
                    assert clone == H
                    assert clone.tube_form == H.tube_form
                    assert clone.complex_form() == H.complex_form()
                    assert clone.leading_complex() == H.leading_complex()

    def test_immutable(self):
        H = cache_graphs()[1]
        H.complex_form()
        for name in Hypersurface.__slots__ + ("extra",):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(H, name, None)
        assert H.complex_form() == to_complex_basis(H.F)
