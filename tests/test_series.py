from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import (
    rand_dense_holo,
    rand_frac,
    rand_gauss,
    rand_holo,
    rand_hypersurface_series,
    rand_real_series,
    rand_tail,
    seeded,
)
from crnf import series
from crnf.errors import InternalError, StructuralError, TruncationError, UnsupportedTypeError
from crnf.series import (
    ComplexSeries,
    GaussRat,
    HoloSeries,
    RealSeries,
    graded_image,
    rat,
    restrict_to_M,
    to_complex_basis,
    to_real_basis,
)


def product(a, b, W=None):
    """a * b through weight W (N by default), with the tag N: the truncated
    product of the frame kernel _mul_parts, which every power product of
    the substitution kernel runs on.  a and b share their class, k and N."""
    W = a.N if W is None else W
    fr = series.Frame(a.k, a, b)
    if isinstance(a, RealSeries):
        (out,) = series._mul_parts((fr.real(a, 0).items(),),
                                   series._sorted_parts((fr.real(b, 0),)), W)
        return fr.real_out(out, 0, a.N)
    out = series._mul_parts(tuple(p.items() for p in fr.holo(a, 0)),
                            series._sorted_parts(fr.holo(b, 0)), W)
    return fr.holo_out(out, 0, a.N)


def shift_u(F, P):
    """F(x, y, u + P) through F.N: the kernel _shifted with F at unit 0 and
    the increment P of u at the unit k."""
    k, N = F.k, F.N
    fr = series.Frame(k, F, P)
    pp = series._PowerProducts(((), (), (fr.real(P, k),)), k)
    (out,) = series._shifted((fr.real(F, 0),), k, pp, N)
    return fr.real_out(out, 0, N)


class TestGaussRat:
    def test_basic_arithmetic(self):
        a = GaussRat(rat(1, 2), rat(-3))
        b = GaussRat(2, rat(1, 3))
        assert a + b == GaussRat(rat(5, 2), rat(-8, 3))
        assert a - b == GaussRat(rat(-3, 2), rat(-10, 3))
        assert a * b == GaussRat(2, rat(-35, 6))
        assert -a == GaussRat(rat(-1, 2), 3)
        assert a.conj() == GaussRat(rat(1, 2), 3)

    def test_division(self):
        a = GaussRat(1, 1)
        b = GaussRat(0, 2)
        assert a / b == GaussRat(rat(1, 2), rat(-1, 2))
        assert (a / b) * b == a
        with pytest.raises(ZeroDivisionError):
            a / GaussRat(0, 0)

    def test_i_powers(self):
        powers = [GaussRat(1), GaussRat(0, 1), GaussRat(-1), GaussRat(0, -1)]
        assert [GaussRat(1).times_i_power(t) for t in range(4)] == powers
        a = GaussRat(rat(2, 3), rat(-1, 5))
        for t in range(8):
            assert a.times_i_power(t) == a * powers[t % 4]

    def test_reality_and_truthiness(self):
        assert GaussRat(3).is_real()
        assert not GaussRat(0, 1).is_real()
        assert not GaussRat(0, 0)
        assert GaussRat(0, rat(1, 7))

    def test_scalar_mixing(self):
        assert GaussRat(1, 2) + 1 == GaussRat(2, 2)
        assert rat(1, 2) * GaussRat(2, 4) == GaussRat(1, 2)

    def test_real_value_hashes_as_its_rational(self):
        # equal objects hash equal, so a set keeps one of 2, 2/1 and 2 + 0i
        assert hash(GaussRat(2)) == hash(2)
        assert hash(GaussRat(rat(1, 3))) == hash(rat(1, 3))
        assert len({GaussRat(2), 2, Fraction(2)}) == 1
        assert {GaussRat(rat(-5, 7)): 1}[rat(-5, 7)] == 1


class TestRealSeriesBasics:
    def test_constructor_rejects_small_k(self):
        with pytest.raises(UnsupportedTypeError):
            RealSeries(2, 10)

    def test_constructor_rejects_small_n(self):
        with pytest.raises(TruncationError):
            RealSeries(3, 5)

    def test_constructor_rejects_overweight(self):
        with pytest.raises(StructuralError):
            RealSeries(3, 6, {(7, 0, 0): 1})

    def test_constructor_rejects_negative_exponent(self):
        with pytest.raises(StructuralError):
            RealSeries(3, 6, {(-1, 0, 0): 1})

    def test_constructor_rejects_non_integer_exponent(self):
        with pytest.raises(StructuralError, match=r"\(1\.5, 0, 0\)"):
            RealSeries(3, 9, {(1.5, 0, 0): 1})
        with pytest.raises(StructuralError, match=r"\(2\.0, 0\)"):
            HoloSeries(3, 9, {(2.0, 0): 1})

    def test_zero_coefficients_dropped(self):
        s = RealSeries(3, 6, {(1, 0, 0): 0, (2, 0, 0): rat(1, 2)})
        assert list(s.coeffs) == [(2, 0, 0)]
        t = s - s
        assert t.is_zero() and t.coeffs == {}

    def test_structural_equality(self):
        a = RealSeries(3, 9, {(3, 0, 0): 1})
        b = RealSeries(3, 9, {(3, 0, 0): Fraction(2, 2)})
        assert a == b
        assert a != RealSeries(3, 10, {(3, 0, 0): 1})  # different N

    def test_mismatched_operands_rejected(self):
        a = RealSeries(3, 9, {(3, 0, 0): 1})
        b = RealSeries(3, 10)
        with pytest.raises(StructuralError):
            a + b
        with pytest.raises(StructuralError):
            a - RealSeries(4, 9)
        # the class is part of the type: same k and N do not make operands
        with pytest.raises(StructuralError):
            a + HoloSeries(3, 9, {(3, 0): 1})
        with pytest.raises(StructuralError):
            ComplexSeries(3, 9, {(3, 0, 0): 1}) - a
        assert a != ComplexSeries(3, 9, {(3, 0, 0): 1})

    def test_known_product(self):
        x = RealSeries.monomial(3, 6, 1, 0, 0)
        y = RealSeries.monomial(3, 6, 0, 1, 0)
        s = x + y
        sq = product(s, s)
        assert sq == RealSeries(3, 6, {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1})

    def test_product_truncates(self):
        a = RealSeries(3, 7, {(5, 0, 0): 1, (3, 0, 0): 1})
        b = RealSeries(3, 7, {(3, 0, 0): 1})
        # x^5*x^3 = x^8 exceeds N = 7 and is dropped; x^6 stays
        assert product(a, b) == RealSeries(3, 7, {(6, 0, 0): 1})
        # a term of weight exactly N survives
        assert product(RealSeries.monomial(3, 7, 4, 0, 0), b) == RealSeries(3, 7, {(7, 0, 0): 1})

    def test_weight_part_and_min_weight(self):
        s = RealSeries(3, 9, {(3, 0, 0): 1, (1, 0, 1): 2, (0, 0, 3): 3})
        assert s.min_weight() == 3
        assert s.weight_part(4) == RealSeries(3, 9, {(1, 0, 1): 2})
        assert s.weight_part(5).is_zero()

    def test_truncate(self):
        s = RealSeries(3, 9, {(3, 0, 0): 1, (9, 0, 0): 1})
        t = s.truncate(7)
        assert t == RealSeries(3, 7, {(3, 0, 0): 1})
        with pytest.raises(StructuralError):
            t.truncate(9)
        with pytest.raises(TruncationError):
            s.truncate(5)

    def test_dependence_flags(self):
        s = RealSeries(3, 9, {(3, 0, 0): 1})
        assert not s.depends_on_u() and not s.depends_on_y()
        assert RealSeries(3, 9, {(1, 0, 1): 1}).depends_on_u()
        assert RealSeries(3, 9, {(3, 1, 0): 1}).depends_on_y()


class TestRingLaws:
    def test_random_ring_laws(self):
        rng = seeded(101)
        for k, N in [(3, 9), (4, 9), (5, 12)]:
            for _ in range(8):
                a = rand_real_series(rng, k, N)
                b = rand_real_series(rng, k, N)
                c = rand_real_series(rng, k, N)
                assert a + b == b + a
                assert product(a, b) == product(b, a)
                assert product(a + b, c) == product(a, c) + product(b, c)
                assert product(product(a, b), c) == product(a, product(b, c))

    def test_mul_matches_oracle(self):
        rng = seeded(102)
        for k, N in [(3, 9), (4, 8)]:
            for _ in range(10):
                a = rand_real_series(rng, k, N)
                b = rand_real_series(rng, k, N)
                full = oracle.pmul(oracle.from_real_series(a), oracle.from_real_series(b))
                assert oracle.real_dict(oracle.ptrunc(full, k, N)) == product(a, b).coeffs
                # a bound below N drops exactly the monomials above it
                for W in (k, N - 2):
                    want = oracle.real_dict(oracle.ptrunc(full, k, W))
                    assert want == product(a, b, W).coeffs

    def test_truncation_coherence(self):
        rng = seeded(103)
        for _ in range(10):
            a = rand_real_series(rng, 3, 12)
            b = rand_real_series(rng, 3, 12)
            n2 = rng.randint(6, 12)
            assert product(a, b).truncate(n2) == product(a.truncate(n2), b.truncate(n2))


class TestHoloSeries:
    def test_monomial_weights(self):
        h = HoloSeries(3, 9, {(2, 1): 1})
        assert h.min_weight() == 5
        with pytest.raises(StructuralError):
            HoloSeries(3, 9, {(7, 1): 1})

    def test_product(self):
        z = HoloSeries.monomial(3, 9, 1, 0)
        w = HoloSeries.monomial(3, 9, 0, 1)
        p = product(z + w, z + w)
        assert p == HoloSeries(3, 9, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        # (i z)(z - i w) = i z^2 + z w
        q = product(HoloSeries.monomial(3, 9, 1, 0, GaussRat(0, 1)),
                    HoloSeries(3, 9, {(1, 0): 1, (0, 1): GaussRat(0, -1)}))
        assert q == HoloSeries(3, 9, {(2, 0): GaussRat(0, 1), (1, 1): 1})

    def test_drop_above(self):
        h = HoloSeries(3, 9, {(2, 0): 1, (6, 1): 2})
        assert h.drop_above(5) == HoloSeries(3, 9, {(2, 0): 1})
        assert h.drop_above(5).N == 9


class TestBasisConversion:
    def test_x_in_complex_basis(self):
        x = RealSeries.monomial(3, 6, 1, 0, 0)
        c = to_complex_basis(x)
        assert c.coeffs == {(1, 0, 0): GaussRat(rat(1, 2)),
                            (0, 1, 0): GaussRat(rat(1, 2))}

    def test_y_in_complex_basis(self):
        y = RealSeries.monomial(3, 6, 0, 1, 0)
        c = to_complex_basis(y)
        assert c.coeffs == {(1, 0, 0): GaussRat(0, rat(-1, 2)),
                            (0, 1, 0): GaussRat(0, rat(1, 2))}

    def test_zzbar_is_x2_plus_y2(self):
        c = ComplexSeries(3, 6, {(1, 1, 0): 1})
        assert to_real_basis(c) == RealSeries(3, 6, {(2, 0, 0): 1, (0, 2, 0): 1})

    def test_round_trip_random(self):
        rng = seeded(104)
        for k, N in [(3, 9), (4, 8), (5, 11)]:
            for _ in range(8):
                f = rand_real_series(rng, k, N)
                c = to_complex_basis(f)
                assert c.is_real()
                assert to_real_basis(c) == f
                # both substitutions preserve weight
                assert c.min_weight() == f.min_weight()
                mu = rng.randint(0, N)
                assert to_real_basis(c.weight_part(mu)) == f.weight_part(mu)
                n2 = rng.randint(2 * k, N)
                assert to_real_basis(c.truncate(n2)) == f.truncate(n2)

    def test_reality_violation_raises(self):
        c = ComplexSeries(3, 6, {(1, 0, 0): GaussRat(1)})  # z alone is not real
        assert not c.is_real()
        with pytest.raises(StructuralError, match=r"^series is not real: monomial "
                           r"x\^0 y\^1 u\^0 has imaginary coefficient 1$"):
            to_real_basis(c)
        # z^2 + z/3 = x^2 - y^2 + x/3 + i (2xy + y/3): the error names the
        # lowest imaginary monomial, y, whatever the order of the input
        terms = [((2, 0, 0), 1), ((1, 0, 0), rat(1, 3))]
        for order in (terms, terms[::-1]):
            with pytest.raises(StructuralError, match=r"^series is not real: monomial "
                               r"x\^0 y\^1 u\^0 has imaginary coefficient 1/3$"):
                to_real_basis(ComplexSeries(3, 6, dict(order)))

    def test_weights_preserved(self):
        rng = seeded(105)
        f = rand_real_series(rng, 3, 9, nterms=8)
        c = to_complex_basis(f)
        for (j, l, m) in c.coeffs:
            assert j + l + 3 * m <= 9


class TestRestrictToM:
    def test_frozen_z2w_on_x3(self):
        # h = z^2 w on v = x^3 (k = 3): by direct expansion
        #   (x+iy)^2 (u+ix^3) = (x^2-y^2+2ixy)(u+ix^3)
        # whose real part is x^2 u - y^2 u - 2 x^4 y and imaginary part
        # x^5 - x^3 y^2 + 2 x y u.
        h = HoloSeries.monomial(3, 9, 2, 1)
        F = RealSeries.monomial(3, 9, 3, 0, 0)
        re, im = restrict_to_M(h, F)
        assert re == RealSeries(3, 9, {(2, 0, 1): 1, (0, 2, 1): -1, (4, 1, 0): -2})
        assert im == RealSeries(3, 9, {(5, 0, 0): 1, (3, 2, 0): -1, (1, 1, 1): 2})

    def test_constant_and_z(self):
        F = RealSeries.monomial(3, 9, 3, 0, 0)
        re, im = restrict_to_M(HoloSeries.monomial(3, 9, 1, 0, GaussRat(0, 1)), F)
        # i*z = ix - y
        assert re == RealSeries(3, 9, {(0, 1, 0): -1})
        assert im == RealSeries(3, 9, {(1, 0, 0): 1})

    def test_w_restricts_to_u_plus_iF(self):
        rng = seeded(106)
        F = rand_hypersurface_series(rng, 3, 9)
        re, im = restrict_to_M(HoloSeries.monomial(3, 9, 0, 1), F)
        assert re == RealSeries.monomial(3, 9, 0, 0, 1)
        assert im == F

    def test_matches_oracle_random(self):
        rng = seeded(107)
        inputs = []
        for k, N in [(3, 9), (4, 9), (5, 12)]:
            for _ in range(6):
                h = rand_holo(rng, k, N, nterms=4)
                inputs.append((h, rand_hypersurface_series(rng, k, N, nterms=4)))
        # non-homogeneous h whose low-m terms have high j: the powers of
        # u + iF are needed through a bound per m, not one from min weight
        for k, N, keys in [(3, 9, [(9, 0), (5, 1), (0, 2), (0, 3)]),
                           (4, 12, [(11, 0), (6, 1), (1, 2), (0, 3)])]:
            h = HoloSeries(k, N, {key: rand_gauss(rng, nonzero=True) for key in keys})
            inputs.append((h, rand_hypersurface_series(rng, k, N, nterms=4)))
        # dense maps, as in the benchmark's map algebra
        for k, N in [(3, 9), (4, 12)]:
            inputs.append((rand_dense_holo(rng, k, N, 2, N - k + 1),
                           rand_hypersurface_series(rng, k, N, nterms=4)))
            inputs.append((rand_dense_holo(rng, k, N, k + 1, N),
                           rand_hypersurface_series(rng, k, N, nterms=4)))
        # general models with mixed terms at weight k, such as x^4 + 2x^2y^2:
        # every weight-k term of iF is an increment of gain 0
        def c():
            return rand_frac(rng, nonzero=True)
        for k, N, model in [(3, 9, {(3, 0, 0): 1, (1, 2, 0): c()}),
                            (4, 12, {(4, 0, 0): 1, (2, 2, 0): 2}),
                            (4, 12, {(2, 2, 0): 1, (3, 1, 0): c(), (0, 4, 0): c()}),
                            (5, 12, {(5, 0, 0): 1, (3, 2, 0): c(), (1, 4, 0): c()})]:
            F = RealSeries(k, N, model) + rand_tail(rng, k, N, nterms=4)
            inputs.append((rand_holo(rng, k, N, nterms=6, min_wt=0), F))
            inputs.append((rand_dense_holo(rng, k, N, k + 1, N, density=0.3), F))
        for h, F in inputs:
            re, im = restrict_to_M(h, F)
            want_re, want_im = oracle.restrict_oracle(
                {key: (c.re, c.im) for key, c in h.coeffs.items()},
                h.k, oracle.from_real_series(F), h.N)
            assert re.coeffs == want_re
            assert im.coeffs == want_im

    def test_truncation_respected(self):
        # h.N < F.N: the result is truncated at h.N
        F = RealSeries(3, 12, {(3, 0, 0): 1, (4, 0, 0): 1})
        h = HoloSeries.monomial(3, 9, 0, 2)  # w^2
        re, im = restrict_to_M(h, F)
        assert re.N == 9 and im.N == 9
        for key in list(re.coeffs) + list(im.coeffs):
            assert key[0] + key[1] + 3 * key[2] <= 9

    def test_requires_holo_and_real_series(self):
        F = RealSeries.monomial(3, 9, 3, 0, 0)
        with pytest.raises(StructuralError, match="expects"):
            restrict_to_M(F, F)

    def test_requires_compatible_kn(self):
        F = RealSeries.monomial(3, 9, 3, 0, 0)
        with pytest.raises(StructuralError):
            restrict_to_M(HoloSeries.monomial(4, 9, 1, 0), F)
        with pytest.raises(StructuralError):
            restrict_to_M(HoloSeries.monomial(3, 12, 1, 0), F)
        # a graph monomial below weight k would lower weights under u -> u + iF
        low = F + RealSeries.monomial(3, 9, 2, 0, 0)
        with pytest.raises(StructuralError,
                           match=r"^graph has a monomial of weight 2 < k = 3$"):
            restrict_to_M(HoloSeries.monomial(3, 9, 0, 1), low)


class TestShiftU:
    def test_simple_shift(self):
        # F = u^2 (k=3, N=9), P = x^3: (u+x^3)^2 = u^2 + 2 x^3 u + x^6
        F = RealSeries.monomial(3, 9, 0, 0, 2)
        P = RealSeries.monomial(3, 9, 3, 0, 0)
        assert shift_u(F, P) == RealSeries(
            3, 9, {(0, 0, 2): 1, (3, 0, 1): 2, (6, 0, 0): 1})

    def test_matches_oracle(self):
        rng = seeded(108)
        cases = []
        for _ in range(8):
            k, N = 3, 10
            # perturbations of weight >= k, u terms included
            cases.append((rand_real_series(rng, k, N, nterms=5),
                          rand_real_series(rng, k, N, nterms=3, min_wt=k, max_wt=N)))
        # x u and u^2 terms, a k = 4 case, and perturbations of weight
        # exactly k (gain 0), one of them a multiple of u itself
        for k, N, P in [(3, 10, {(1, 0, 1): Fraction(2, 3), (0, 0, 2): Fraction(-1, 5)}),
                        (4, 13, {(0, 0, 2): 3, (1, 1, 1): Fraction(-2, 7)}),
                        (4, 12, {(4, 0, 0): Fraction(1, 3), (1, 0, 1): 5}),
                        (3, 9, {(0, 0, 1): Fraction(-1, 2), (2, 1, 0): 5})]:
            F = rand_real_series(rng, k, N, nterms=6) + RealSeries(
                k, N, {(0, 0, 3): Fraction(1, 7), (1, 1, 2): -2, (0, 0, 0): 1})
            cases.append((F, RealSeries(k, N, P)))
        for F, P in cases:
            k, N = F.k, F.N
            got = shift_u(F, P)
            want = oracle.subst_xyu(
                oracle.from_real_series(F), k,
                oracle.X, oracle.Y,
                oracle.padd(oracle.U, oracle.from_real_series(P)), N)
            assert oracle.real_dict(want) == got.coeffs

    def test_zero_perturbation_returns_the_series(self):
        # no turn, no scaling and no harmonic shift
        F = RealSeries.monomial(3, 9, 0, 0, 2)
        assert graded_image(F, 0, 1, 0) == F

    def test_rejects_light_perturbation(self):
        # an increment of u below weight k breaks the frame's weight rule
        P = RealSeries.monomial(3, 9, 2, 0, 0)
        with pytest.raises(StructuralError,
                           match=r"^graph has a monomial of weight 2 < k = 3$"):
            series.Frame(3, P).real(P, 3)


class TestUnshift:
    def test_solves_the_substitution(self):
        # G(x + x^2 y, y, u + x^4) = R, checked by substituting back
        k, W = 3, 9

        def value(terms):
            return {series._key(*mono, k): c for mono, c in terms.items()}

        R = (value({(3, 0, 0): 1, (1, 1, 1): Fraction(2, 3), (4, 2, 0): -5}),)
        pp = series._PowerProducts(((value({(2, 1, 0): 1}),), (), (value({(4, 0, 0): 1}),)), k)
        G = series._unshift(R, k, pp, W)
        assert series._shifted(G, k, pp, W) == R

    def test_no_slice_has_an_image(self):
        # gmin > W - wlow: every slice's image lies above W, so G = R and no
        # power product is formed
        k, W = 3, 6
        R = frame_value({(3, 0, 0): 1, (2, 2, 0): Fraction(-1, 2), (0, 1, 1): 4}, k)
        pp = series._PowerProducts((frame_value({(5, 0, 0): 1}, k), (), ()), k)
        assert series._unshift(R, k, pp, W) == R and not pp.cache
        # gmin = W - wlow: the lowest slice still lands on W
        pp = series._PowerProducts((frame_value({(4, 0, 0): 1}, k), (), ()), k)
        G = series._unshift(R, k, pp, W)
        assert G == frame_value({(3, 0, 0): 1, (2, 2, 0): Fraction(-1, 2),
                                 (0, 1, 1): 4, (6, 0, 0): -3}, k)
        assert series._shifted(G, k, pp, W) == R

    def test_gain_zero_base_leaves_residue(self):
        # x -> 2x: the increment x has the weight of the variable it
        # replaces, so each slice's substitution lands on its own weight
        x = {series._key(1, 0, 0, 3): 1}
        with pytest.raises(InternalError, match="residue"):
            series._unshift((x,), 3, series._PowerProducts(((x,), (), ()), 3), 6)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("e", [2, 3, 4])
    def test_one_substitute_call_per_window(self, monkeypatch, e, complex_):
        # the image of a slice lies e or more above it, so the slices of a
        # window of e weights are substituted together, in one call
        k, W = 3, 15
        rng = seeded(10 * e + complex_)
        parts = 2 if complex_ else 1
        R = tuple({series._key(*mono, k): rng.randint(-4, 4) or 1
                   for mono in rng.sample(weight_monomials(k, 2, W), 12)}
                  for _ in range(parts))
        b1 = tuple({series._key(1 + e, 0, 0, k): 1, series._key(2, e, 0, k): -2}
                   for _ in range(parts))
        b3 = tuple({series._key(1, 1, 1 + e // 3, k): 3} for _ in range(parts))
        bases = (b1, (), b3)
        want = unshift_per_slice(R, k, series._PowerProducts(bases, k), W)
        pp = series._PowerProducts(bases, k)
        assert pp.gmin == e
        calls, real = [], series._substitute
        monkeypatch.setattr(series, "_substitute",
                            lambda h, *args: (calls.append(h), real(h, *args)))
        got = series._unshift(R, k, pp, W)
        wlow = series._min_weight(R)
        starts = range(wlow, W - e + 1, e)
        assert len(calls) == len(starts)
        for lo, h in zip(starts, calls):
            assert all(lo <= key >> series._S2 < lo + e for part in h for key in part)
        assert got == want
        assert series._shifted(got, k, pp, W) == tuple(series._nonzero(p) for p in R)

    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(st.data())
    def test_round_trip(self, data):
        # _shifted undoes _unshift through W for real and complex bases of
        # gains 1 to 4, whatever the width of the windows
        k = data.draw(st.sampled_from([3, 4, 5]))
        W = data.draw(st.integers(k + 1, 14))
        parts = data.draw(st.sampled_from([1, 2]))
        gains = data.draw(st.lists(st.one_of(st.none(), st.integers(1, 4)),
                                   min_size=3, max_size=3)
                          .filter(lambda g: any(x is not None for x in g)))
        coeff = st.integers(-5, 5).filter(bool)

        def value(lo, hi, max_size):
            keys = [series._key(*mono, k) for mono in weight_monomials(k, lo, hi)]
            return tuple(data.draw(st.dictionaries(st.sampled_from(keys), coeff,
                                                   max_size=max_size))
                         for _ in range(parts))

        bases = []
        for g, unit in zip(gains, (1, 1, k)):
            if g is None:
                bases.append(())
                continue
            b = value(unit + g, max(W, unit + g), 3)
            # one term of weight unit + g fixes the base's gain at g
            lowest = data.draw(st.sampled_from(weight_monomials(k, unit + g, unit + g)))
            b[0][series._key(*lowest, k)] = data.draw(coeff)
            bases.append(b)
        pp = series._PowerProducts(tuple(bases), k)
        assert pp.gmin == min(g for g in gains if g is not None)
        R = value(1, W, 8)
        G = series._unshift(R, k, pp, W)
        assert series._shifted(G, k, pp, W) == R


def weight_monomials(k, lo, hi):
    """Every (j, l, m) of weight lo through hi."""
    return [(j, w - k * m - j, m) for w in range(lo, hi + 1)
            for m in range(w // k + 1) for j in range(w - k * m + 1)]


def unshift_per_slice(R, k, pp, W):
    """The weight recursion one slice at a time: G's slice of weight mu is
    what is left of R there once every lower slice is substituted."""
    left = tuple(dict(p) for p in R)
    G = tuple({} for _ in R)
    for mu in range(W + 1):
        S = tuple({key: c for key, c in p.items() if key >> series._S2 == mu and c}
                  for p in left)
        image = tuple({} for _ in R)
        series._substitute(S, k, pp, image, -1, W)
        for g, p, s, im in zip(G, left, S, image):
            g.update(s)
            for key in s:
                del p[key]
            for key, c in im.items():
                p[key] = p.get(key, 0) + c
    return G


class TestMulInto:
    def test_empty_second_factor_reads_nothing(self):
        def untouchable():
            raise AssertionError("the first factor was read")
            yield

        out = {}
        series._mul_into(out, untouchable(), [], 9)
        assert out == {}


def frame_value(terms, k):
    """A real frame value, ({key: c},), from {(j, l, m): c}."""
    return ({series._key(*mono, k): c for mono, c in terms.items()},)


class TestPowerProducts:
    """One _PowerProducts cache serves every substitution over its bases."""

    def maps(self, seed, k, N):
        # the compose of z + f1, w + g1 with z + f2, w + g2, as frame values
        rng = seeded(seed)
        f1, g1 = rand_dense_holo(rng, k, N, 2, N - k + 1, 0.3), rand_holo(rng, k, N, 4, k + 1)
        f2, g2 = rand_holo(rng, k, N, 4, 2, N - k + 1), rand_dense_holo(rng, k, N, k + 1, N, 0.3)
        fr = series.Frame(k, f1, g1, f2, g2)
        return ((fr.holo(f1, 1), (), fr.holo(g1, k)),
                fr.holo(f2, 1), fr.holo(g2, k))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shared_cache_equals_fresh_caches(self, seed):
        k, N = 3, 14
        bases, f2, g2 = self.maps(seed, k, N)
        # f2 is wanted through N - k + 1 and g2 through N, as in compose
        consumers = [(f2, N - k + 1), (g2, N)]
        fresh = [series._shifted(h, k, series._PowerProducts(bases, k), W)
                 for h, W in consumers]
        for order in ((0, 1), (1, 0)):
            pp = series._PowerProducts(bases, k)
            got, bounds = [None, None], []
            for i in order:
                h, W = consumers[i]
                got[i] = series._shifted(h, k, pp, W)
                bounds.append({t: bound for t, (bound, _) in pp.cache.items()})
            assert got == fresh
            if order == (0, 1):
                # g2 needs some products through more than f2 had them
                assert any(bounds[1][t] > bound for t, bound in bounds[0].items())

    def test_product_through_each_bound(self):
        # b1^2 b3^2 asked for directly, so the cache builds its predecessors
        # itself, and again through larger bounds, which rebuilds them; both
        # bases have gain 0, so each predecessor is needed through exactly
        # bound - wt(step)
        k, N = 3, 14
        b1 = frame_value({(1, 0, 0): 2, (0, 1, 0): -1, (2, 1, 0): 3}, k)
        b3 = frame_value({(3, 0, 0): 1, (2, 1, 0): 2, (4, 0, 0): 5, (1, 1, 1): -1}, k)
        bases = (b1, (), b3)
        want = b1
        for b in (b1, b3, b3):
            want = series._mul_parts(tuple(p.items() for p in want),
                                     series._sorted_parts(b), N)
        pp = series._PowerProducts(bases, k)
        t = series._key(2, 0, 2, k)
        for bound in (8, 10, 12, 14):
            got = pp.product(t, bound)
            assert pp.cache[t][0] == bound
            assert got == tuple(sorted((key, c) for key, c in p.items()
                                       if key >> series._S2 <= bound)
                                for p in want)
        # a smaller bound reads the cached product
        assert pp.product(t, 9) is got

    @pytest.mark.parametrize("complex_", [False, True])
    def test_predecessor_cut_to_what_meets_the_base(self, monkeypatch, complex_):
        # bases of gains 1, 2 and 3, each part with a term at the base's min
        # weight: P_t = P_(t - step) b_i multiplies no term of P_(t - step)
        # above bound - wmin(b_i), and still equals the full product
        k, N = 3, 16
        parts = 2 if complex_ else 1

        def base(terms):
            return tuple(frame_value({mono: c * (1 + p) + p for mono, c in terms.items()}, k)[0]
                         for p in range(parts))

        bases = (base({(2, 0, 0): 1, (1, 1, 0): 2, (3, 1, 0): -1}),
                 base({(0, 3, 0): 2, (1, 2, 0): -3, (0, 1, 1): 1}),
                 base({(6, 0, 0): 1, (2, 2, 1): 3, (4, 0, 1): -2}))
        assert series._PowerProducts(bases, k).gains == (1, 2, 3)
        met = []

        def mul_into(out, x, ys, W, sign=1):
            x = list(x)
            if x and ys:
                met.append(max(x)[0] >> series._S2)
                assert max(x)[0] >> series._S2 <= W - (ys[0][0] >> series._S2)
            real_mul_into(out, x, ys, W, sign)

        real_mul_into = series._mul_into
        for t, steps in (((2, 1, 2), (0, 0, 2, 2, 1)), ((3, 0, 1), (0, 0, 0, 2)),
                         ((0, 2, 2), (1, 1, 2, 2))):
            want = bases[steps[0]]
            for i in steps[1:]:
                want = series._mul_parts(tuple(p.items() for p in want),
                                         series._sorted_parts(bases[i]), N)
            for bound in (10, 13, N):
                pp = series._PowerProducts(bases, k)
                monkeypatch.setattr(series, "_mul_into", mul_into)
                got = pp.product(series._key(*t, k), bound)
                monkeypatch.undo()
                assert got == tuple(sorted((key, c) for key, c in p.items()
                                           if key >> series._S2 <= bound)
                                    for p in want)
        assert met

    def test_term_at_the_skip_threshold_has_its_image(self):
        # w + gmin = W exactly: (x + x^3)^2 = x^2 + 2x^4 + x^6 through 4,
        # and u + x^4 at gain 1 through 4
        k = 3
        pp = series._PowerProducts((frame_value({(3, 0, 0): 1}, k), (), ()), k)
        assert pp.gmin == 2
        got = series._shifted(frame_value({(2, 0, 0): 1}, k), k, pp, 4)
        assert got == frame_value({(2, 0, 0): 1, (4, 0, 0): 2}, k)
        pp = series._PowerProducts(((), (), frame_value({(4, 0, 0): 1}, k)), k)
        got = series._shifted(frame_value({(0, 0, 1): 1}, k), k, pp, 4)
        assert got == frame_value({(0, 0, 1): 1, (4, 0, 0): 1}, k)

    def test_binomial_rows_grow_to_the_exponent(self, monkeypatch):
        # from row 0 alone, u^3 with u -> u + x^4 needs row 3 of Pascal's
        # triangle: (u + x^4)^3 = u^3 + 3 u^2 x^4 + 3 u x^8 + x^12
        k = 3
        monkeypatch.setattr(series, "_PASCAL", [(1,)])
        pp = series._PowerProducts(((), (), frame_value({(4, 0, 0): 1}, k)), k)
        got = series._shifted(frame_value({(0, 0, 3): 1}, k), k, pp, 12)
        assert got == frame_value({(0, 0, 3): 1, (4, 0, 2): 3, (8, 0, 1): 3,
                                   (12, 0, 0): 1}, k)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_first_order_images_only(self, complex_):
        # k = 3, W = 9, gains 2, 2 and 4: x^2 y u (weight 6) has 6 + 2 gmin
        # > 9, so only its pairs c j, c l, c m of order 1 apply, and the
        # one in u (6 + 4 > 9) has no image
        k, W = 3, 9
        parts = 2 if complex_ else 1
        bases = tuple(tuple(frame_value({mono: p + 1}, k)[0] for p in range(parts))
                      for mono in ((3, 0, 0), (1, 2, 0), (7, 0, 0)))
        h = tuple(frame_value({(2, 1, 1): 5 - p}, k)[0] for p in range(parts))
        pp = series._PowerProducts(bases, k)
        assert pp.gains == (2, 2, 4)
        got = series._shifted(h, k, pp, W)
        # (x^2 y u)(x + b1, y + b2, u + b3) - x^2 y u through 9:
        # 2 x y u b1 + x^2 u b2 = 2 x^4 y u + x^3 y^2 u, times the coefficient
        first = {(4, 1, 1): 2, (3, 2, 1): 1}
        if complex_:
            # (5 + 4i)(1 + 2i) = -3 + 14i for each pair
            want = tuple({**frame_value({(2, 1, 1): c0}, k)[0],
                          **frame_value({mono: n * c for mono, n in first.items()}, k)[0]}
                         for c0, c in ((5, -3), (4, 14)))
        else:
            want = frame_value({(2, 1, 1): 5, **{mono: 5 * n for mono, n in first.items()}}, k)
        assert got == want
        # through each bound, the image through 20 (orders 1 to 4) truncated:
        # at 10 = 6 + 2 gmin the images of order 2 reach the bound exactly
        wide = series._shifted(h, k, pp, 20)
        for bound in range(6, 20):
            assert series._shifted(h, k, pp, bound) == tuple(
                {key: c for key, c in p.items() if key >> series._S2 <= bound}
                for p in wide)


class TestFrameLimit:
    """Frame keys pack (w, j, l) into one int; its fields hold N <= FRAME_MAX_N."""

    def test_product_at_the_limit(self):
        N = series.FRAME_MAX_N
        a = {(1, 0, 0): 2, (0, 1, 0): 1, (0, 0, 1): 5}
        b = {(N - 1, 0, 0): Fraction(1, 3), (0, N - 1, 0): 1, (0, 0, (N - 3) // 3): -1}
        want = {}
        for (j1, l1, m1), c1 in a.items():
            for (j2, l2, m2), c2 in b.items():
                key = (j1 + j2, l1 + l2, m1 + m2)
                if key[0] + key[1] + 3 * key[2] <= N:
                    want[key] = want.get(key, 0) + c1 * c2
        assert (N, 0, 0) in want and (0, N, 0) in want and (0, 0, N // 3) in want
        got = product(RealSeries(3, N, a), RealSeries(3, N, b))
        assert got == RealSeries(3, N, want)

    def test_keys_stay_in_one_digit(self):
        N = series.FRAME_MAX_N
        for k in (3, 7, N // 2):
            m = N // k
            S = RealSeries(k, N, {(N, 0, 0): 1, (0, N, 0): 2, (0, 0, m): 3,
                                  (N - k * m, 0, m): Fraction(1, 5), (1, 1, m - 1): 7})
            fr = series.Frame(k, S)
            d = fr.real(S, 0)
            assert max(d) < 2 ** 30
            assert fr.real_out(d, 0, N) == S

    def test_negative_power_is_an_internal_error(self):
        # no value lies below its unit, so a negative exponent is a misuse
        with pytest.raises(InternalError):
            series.Frame(3).power(-1)

    def test_limit_is_checked_before_the_weight_rule(self):
        N = series.FRAME_MAX_N + 1
        F = RealSeries(3, N, {(3, 0, 0): 1, (2, 0, 0): 1})
        with pytest.raises(TruncationError, match="limit"):
            restrict_to_M(HoloSeries.monomial(3, N, 0, 1), F)

    def test_limit_plus_one_rejected(self):
        a = RealSeries.monomial(3, series.FRAME_MAX_N + 1, 1, 0, 0)
        with pytest.raises(TruncationError, match="limit"):
            series.Frame(3, a)


class TestScaleW:
    def test_scale_w_coefficients(self):
        # v = x^3 + x u: under w -> 2w the graph becomes v = 2 x^3 + x u
        F = RealSeries(3, 9, {(3, 0, 0): 1, (1, 0, 1): 1})
        assert graded_image(F, 0, 2, 0) == RealSeries(3, 9, {(3, 0, 0): 2, (1, 0, 1): 1})

    def test_scale_w_rejects_zero(self):
        with pytest.raises(StructuralError, match="nonzero"):
            graded_image(RealSeries.monomial(3, 9, 3, 0, 0), 0, 0, 0)

    def test_scale_w_round_trip(self):
        rng = seeded(109)
        F = rand_hypersurface_series(rng, 3, 9)
        c = rat(-3, 7)
        assert graded_image(graded_image(F, 0, c, 0), 0, 1 / c, 0) == F
