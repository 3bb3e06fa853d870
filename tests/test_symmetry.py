from fractions import Fraction as Q

import pytest

import oracle
from conftest import rand_frac, seeded
from crnf.errors import InternalError, StructuralError
from crnf.hypersurface import Hypersurface, invariant_L
from crnf.series import ComplexSeries, RealSeries, to_real_basis
from crnf.symmetry import (
    AutClass,
    RootRotation,
    classify_aut,
    is_linear_automorphism,
    rotation_order,
)
from crnf.transform import LinearFactor, apply_linear_series


def czz(d, k, N):
    """Hypersurface from a complex-basis coefficient dict."""
    F = to_real_basis(ComplexSeries(k, N, d))
    return Hypersurface.normal_coordinates(F, k)


def tube(d, k, N):
    F = RealSeries(k, N, {(j, 0, 0): v for j, v in d.items()})
    return Hypersurface.validate(F, k)


# the classification corpus: one entry per symmetry class plus edge
# cases; expected (tag, m, conditional)
def corpus():
    return [
        # |z|^4 exactly: three-dimensional group
        (czz({(2, 2, 0): 1}, 4, 8), "Dim3", None, False),
        # tube models: all dilations survive
        (tube({4: 1}, 4, 8), "RplusZ", 2, False),
        (tube({3: 1}, 3, 6), "RplusZ", 2, False),
        # mixed-only model of essential type 1 < 3: rotation gap 4
        (czz({(5, 1, 0): 1, (1, 5, 0): 1}, 6, 12), "RplusZ", 4, False),
        # odd k mixed model: reflection doubles the order
        (czz({(4, 1, 0): 1, (1, 4, 0): 1}, 5, 10), "RplusZ", 6, False),
        # every monomial has j = l: the circle acts
        (czz({(2, 2, 0): 1, (3, 3, 1): 1}, 4, 10), "Circle", None, False),
        # rotation gap 4 with a u-term tail
        (czz({(2, 2, 0): 1, (5, 1, 1): 1, (1, 5, 1): 1}, 4, 10), "Zm", 4, False),
        # odd-k tubes: reflection survives iff all tail degrees are odd
        (tube({3: 1, 7: 1}, 3, 9), "Zm", 2, False),
        (tube({3: 1, 4: 1}, 3, 9), "Zm", 1, False),
        # even-k tube with tail: only z -> -z remains
        (tube({4: 1, 6: 1}, 4, 12), "Zm", 2, False),
    ]


class TestRootRotation:
    def test_validation(self):
        with pytest.raises(StructuralError):
            RootRotation(0, 1)
        with pytest.raises(StructuralError):
            RootRotation(4, 1, Q(0))
        with pytest.raises(StructuralError):
            RootRotation(4, Q(1, 2))
        r = RootRotation(4, 1, 2)
        assert r.delta == Q(2)


class TestIsLinearAutomorphism:
    def test_model_dilation(self):
        H = tube({4: 1}, 4, 8)
        assert is_linear_automorphism(H, LinearFactor(Q(2)))
        assert is_linear_automorphism(H, LinearFactor(Q(-1)))

    def test_tail_breaks_dilation(self):
        H = tube({4: 1, 5: 1}, 4, 8)
        assert not is_linear_automorphism(H, LinearFactor(Q(2)))

    def test_circle_invariant_under_any_rotation(self):
        H = czz({(2, 2, 0): 1, (3, 3, 1): 1}, 4, 10)
        assert is_linear_automorphism(H, LinearFactor(Q(1), 1))
        assert is_linear_automorphism(H, RootRotation(4, 1))
        assert is_linear_automorphism(H, RootRotation(7, 3))

    def test_rotation_detects_gap(self):
        H = czz({(2, 2, 0): 1, (5, 1, 1): 1, (1, 5, 1): 1}, 4, 10)
        assert is_linear_automorphism(H, RootRotation(4, 1))
        assert is_linear_automorphism(H, RootRotation(2, 1))
        assert not is_linear_automorphism(H, RootRotation(8, 1))
        assert not is_linear_automorphism(H, RootRotation(3, 1))

    def test_quarter_turn_paths_agree(self):
        rng = seeded(611)
        for _ in range(20):
            k = rng.choice([3, 4])
            N = 3 * k
            d = {(k, 0, 0): Q(1)}
            for _ in range(3):
                j = rng.randint(0, N)
                l = rng.randint(0, N - j)
                m = rng.randint(0, (N - j - l) // k)
                if j + l + k * m > k:
                    d[(j, l, m)] = rand_frac(rng, nonzero=True)
            H = Hypersurface.validate(RealSeries(k, N, d), k)
            for rot in range(4):
                for delta in (Q(1), Q(-1), Q(2)):
                    a = is_linear_automorphism(H, LinearFactor(delta, rot))
                    b = is_linear_automorphism(H, RootRotation(4, rot, delta))
                    assert a == b

    def test_reflection_agrees_with_parity_oracle(self):
        rng = seeded(612)
        for _ in range(20):
            k = rng.choice([3, 5])
            N = 3 * k
            d = {(k, 0, 0): Q(1)}
            for _ in range(3):
                j = rng.randint(0, N)
                l = rng.randint(0, N - j)
                m = rng.randint(0, (N - j - l) // k)
                if j + l + k * m > k:
                    d[(j, l, m)] = rand_frac(rng, nonzero=True)
            H = Hypersurface.validate(RealSeries(k, N, d), k)
            got = is_linear_automorphism(H, LinearFactor(Q(-1)))
            assert got == oracle.reflection_fixes_oracle(d, k)

    def test_rejects_junk(self):
        H = tube({4: 1}, 4, 8)
        with pytest.raises(StructuralError):
            is_linear_automorphism(H, "dilation")


class TestRotationOrder:
    def test_circle(self):
        assert rotation_order(czz({(2, 2, 0): 1, (3, 3, 1): 1}, 4, 10)) is None

    def test_gap_four(self):
        H = czz({(2, 2, 0): 1, (5, 1, 1): 1, (1, 5, 1): 1}, 4, 10)
        assert rotation_order(H) == 4

    def test_tube_binomial_gaps(self):
        assert rotation_order(tube({4: 1}, 4, 8)) == 2
        assert rotation_order(tube({3: 1}, 3, 6)) == 1

    def test_failed_generator_raises(self, monkeypatch):
        # a rotation generator that fails re-verification is an internal
        # error, not bad input
        monkeypatch.setattr("crnf.symmetry.is_linear_automorphism", lambda *args: False)
        with pytest.raises(InternalError):
            rotation_order(tube({4: 1}, 4, 8))

    def test_matches_brute_force_oracle(self):
        rng = seeded(613)
        for H, _, _, _ in corpus():
            keys = H.complex_form().coeffs
            orders = oracle.rotation_orders_oracle(keys, 2 * H.N)
            g = rotation_order(H)
            if g is None:
                assert orders == list(range(1, 2 * H.N + 1))
            else:
                assert max(orders) == g
                assert orders == [m for m in range(1, 2 * H.N + 1) if g % m == 0]
        for _ in range(10):
            k = rng.choice([3, 4, 5])
            N = 3 * k
            d = {(k, 0, 0): Q(1),
                 (rng.randint(k + 1, N), 0, 0): rand_frac(rng, nonzero=True)}
            H = Hypersurface.validate(RealSeries(k, N, d), k)
            g = rotation_order(H)
            orders = oracle.rotation_orders_oracle(H.complex_form().coeffs, 2 * N)
            assert g == max(orders)


class TestAutClassRecord:
    def test_validation(self):
        with pytest.raises(StructuralError):
            AutClass("Spiral")
        with pytest.raises(StructuralError):
            AutClass("Zm")
        with pytest.raises(StructuralError):
            AutClass("Zm", 0)
        with pytest.raises(StructuralError):
            AutClass("Circle", 4)
        assert AutClass("RplusZ", 2).m == 2


class TestClassifyAut:
    def test_corpus(self):
        for H, tag, m, conditional in corpus():
            got = classify_aut(H)
            assert (got.tag, got.m, got.conditional) == (tag, m, conditional), H

    def test_evidence_re_verifies(self):
        for H, _, _, _ in corpus():
            got = classify_aut(H)
            for gen in got.evidence:
                assert is_linear_automorphism(H, gen)

    def test_failed_evidence_raises(self, monkeypatch):
        # evidence that fails re-verification is an internal error, not bad
        # input; the bowl's generators go straight to the check
        monkeypatch.setattr("crnf.symmetry.is_linear_automorphism", lambda *args: False)
        with pytest.raises(InternalError):
            classify_aut(czz({(2, 2, 0): 1}, 4, 8))

    def test_rplusz_orders_match_invariant(self):
        # on mixed-only models below half type the rotation gap equals
        # the leading-coefficient gcd invariant
        for d, k, N in [
            ({(5, 1, 0): 1, (1, 5, 0): 1}, 6, 12),
            ({(4, 1, 0): 1, (1, 4, 0): 1}, 5, 10),
            ({(3, 1, 0): 1, (1, 3, 0): 1, (2, 2, 0): 1}, 4, 8),
        ]:
            H = czz(d, k, N)
            assert rotation_order(H) == invariant_L(H.leading_complex())

    def test_scaled_bowl_is_flagged(self):
        got = classify_aut(czz({(2, 2, 0): 2}, 4, 8))
        assert got.tag == "Circle" and got.conditional

    def test_pure_leading_terms_are_flagged(self):
        got = classify_aut(czz({(2, 2, 0): 1, (4, 0, 0): 1, (0, 4, 0): 1}, 4, 8))
        assert got.tag == "Zm" and got.m == 4 and got.conditional

    def test_unnormalized_tube_is_flagged(self):
        got = classify_aut(tube({4: 1, 7: 1}, 4, 8))
        assert got.tag == "Zm" and got.m == 1 and got.conditional

    def test_mutually_exclusive_predicates(self):
        # the deciding predicates, recomputed independently, pick out
        # exactly one class per corpus entry
        for H, tag, _, _ in corpus():
            C = H.complex_form().coeffs
            k = H.k
            bowl = set(C) == {(k // 2, k // 2, 0)} and k % 2 == 0 \
                and C[(k // 2, k // 2, 0)] == 1
            model_low = H.tail().is_zero() and not bowl and \
                2 * min(j for (j, l, m) in H.leading_complex().coeffs
                        if 0 < j < k and j <= l) < k
            circle = all(j == l for (j, l, m) in C) and not bowl
            hits = [t for t, p in [("Dim3", bowl), ("RplusZ", model_low),
                                   ("Circle", circle)] if p]
            assert len(hits) <= 1
            assert tag == (hits[0] if hits else "Zm")

    def test_invariant_under_verified_linear_generators(self):
        for H, _, _, _ in corpus():
            got = classify_aut(H)
            for gen in got.evidence:
                if not isinstance(gen, LinearFactor):
                    continue
                img = Hypersurface.normal_coordinates(
                    apply_linear_series(H.F, gen), H.k)
                again = classify_aut(img)
                assert (again.tag, again.m) == (got.tag, got.m)

    def test_invariant_under_dilation_conjugation(self):
        # rescaling z (and w along with it) conjugates the group, so
        # the class must not move even when coefficients do
        for H, tag, m, conditional in corpus():
            if not H.tube_form:
                continue
            for delta in (Q(2), Q(1, 3)):
                img = Hypersurface.validate(
                    apply_linear_series(H.F, LinearFactor(delta)), H.k)
                got = classify_aut(img)
                assert (got.tag, got.m, got.conditional) == (tag, m, conditional)
