"""Property tests of the map algebra, of t-normalization, of tube
equivalence and of the basis conversions on rational coefficients whose
denominators reach 10^6 (the seeded tests draw denominators up to 4).

The runs are derandomized and bounded: the same examples every time."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from crnf.equivalence import tube_equivalent
from crnf.hypersurface import Hypersurface
from crnf.normalize import t_normalize
from crnf.errors import StructuralError
from crnf.series import (ComplexSeries, GaussRat, HoloSeries, RealSeries,
                         to_complex_basis, to_real_basis)
from crnf.transform import FormalMap, LinearFactor, pushforward, pushforward_series

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40,
                    database=None)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=10**6)
nonzero = rationals.filter(bool)
gauss = st.tuples(rationals, rationals).map(lambda p: GaussRat(*p)).filter(bool)
type_and_weight = st.sampled_from([3, 4]).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(2 * k, 10)))


def holo_terms(k, lo, hi):
    keys = [(w - k * m, m) for w in range(lo, hi + 1) for m in range(w // k + 1)]
    return st.dictionaries(st.sampled_from(keys), gauss, max_size=3)


@st.composite
def maps(draw, k, N, unipotent=False):
    f = draw(holo_terms(k, 2, N - k + 1))
    g = draw(holo_terms(k, k + 1, N))
    linear = LinearFactor() if unipotent else draw(st.one_of(
        st.just(LinearFactor()), st.builds(LinearFactor, nonzero, st.integers(0, 3))))
    return FormalMap(HoloSeries(k, N, f), HoloSeries(k, N, g), linear)


def monomials(k, N):
    """Every key (j, l, m) of weight <= N."""
    return [(j, w - k * m - j, m) for w in range(N + 1)
            for m in range(w // k + 1) for j in range(w - k * m + 1)]


@st.composite
def graphs(draw, k, N, t_normal=False):
    keys = [(j, l, m) for j, l, m in monomials(k, N) if j + l + k * m > k]
    if t_normal:
        # no x^0, x^1, x^(k-1), x^k family and no x^(2k-1), x^(2k-1) y term
        keys = [(j, l, m) for j, l, m in keys
                if j not in (0, 1, k - 1, k) and not (j == 2 * k - 1 and l < 2)]
    tail = draw(st.dictionaries(st.sampled_from(keys), nonzero, max_size=4))
    return RealSeries(k, N, {(k, 0, 0): 1, **tail})


@PROPERTY
@given(st.data())
def test_inverse_round_trip(data):
    k, N = data.draw(type_and_weight)
    T = data.draw(maps(k, N))
    assert T.compose(T.inverse()).is_identity()


@PROPERTY
@given(st.data())
def test_pushforward_is_functorial(data):
    k, N = data.draw(type_and_weight)
    F = data.draw(graphs(k, N))
    T1, T2 = data.draw(maps(k, N)), data.draw(maps(k, N))
    step = pushforward_series(pushforward_series(F, T1), T2)
    assert step == pushforward_series(F, T1.compose(T2))


@PROPERTY
@given(st.data())
def test_t_normalization_round_trip(data):
    # the public pushforward makes its own frame, independent of the one the
    # solver grows
    k, N = data.draw(type_and_weight)
    H = Hypersurface.validate(data.draw(graphs(k, N, t_normal=True)), k)
    T = data.draw(maps(k, N, unipotent=True))
    res = t_normalize(pushforward(H, T))
    assert res.H_normal == H
    assert res.T == T.inverse()


@PROPERTY
@given(st.data())
def test_planted_tube_witness_is_sound(data):
    k, N = data.draw(type_and_weight)
    tail = data.draw(st.dictionaries(st.integers(k + 1, N), nonzero, max_size=4))
    uF = {k: Fraction(1), **tail}
    a, b, c = data.draw(nonzero), data.draw(rationals), data.draw(nonzero)
    # plant G = c F o (ax - bF)^-1, so that G(ax - bF(x)) = cF(x)
    P = {1: a}
    for j, v in uF.items():
        P[j] = P.get(j, Fraction(0)) - b * v
    Pinv = oracle.univariate_inverse(P, N)
    uG = {j: c * v for j, v in oracle.ucompose_trunc(uF, Pinv, N).items()}
    w = tube_equivalent(RealSeries(k, N, {(j, 0, 0): v for j, v in uF.items()}),
                        RealSeries(k, N, {(j, 0, 0): v for j, v in uG.items()}))
    assert w is not None and w.b is not None
    # the witness, substituted by the oracle
    inner = {1: w.a}
    for j, v in uF.items():
        inner[j] = inner.get(j, Fraction(0)) - w.b * v
    assert oracle.ucompose_trunc(uG, inner, N) == {j: w.c * v for j, v in uF.items()}


def oracle_expansion(C):
    """sum c Z^a ZBAR^b U^m over the terms of C, in the oracle's arithmetic."""
    out = {}
    for (a, b, m), c in C.coeffs.items():
        term = oracle.pmul(oracle.ppow(oracle.Z, a), oracle.ppow(oracle.ZBAR, b))
        term = oracle.pmul(term, oracle.ppow(oracle.U, m))
        out = oracle.padd(out, oracle.pscale(term, (c.re, c.im)))
    return oracle.pclean(out)


def as_complex(R):
    return {key: (c, Fraction(0)) for key, c in R.coeffs.items()}


# k = 3..5 and N up to 15, the sizes of the CLI's files
wide_type_and_weight = st.sampled_from([3, 4, 5]).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(2 * k, 15)))


@PROPERTY
@given(st.data())
def test_to_complex_basis_matches_oracle(data):
    # to_complex_basis forms the terms z^r zbar^s with r <= s and mirrors
    # them, to_real_basis expands only those; the oracle expands every term
    k, N = data.draw(wide_type_and_weight)
    keys = monomials(k, N)
    coeffs = data.draw(st.dictionaries(st.sampled_from(keys), nonzero, max_size=8))
    u_key = data.draw(st.sampled_from([key for key in keys if key[2]]))
    coeffs[u_key] = data.draw(nonzero)
    f = RealSeries(k, N, coeffs)
    C = to_complex_basis(f)
    assert to_real_basis(C) == f
    assert oracle_expansion(C) == as_complex(f)


@PROPERTY
@given(st.data())
def test_to_real_basis_matches_oracle(data):
    k, N = data.draw(type_and_weight)
    keys = monomials(k, N)
    half = data.draw(st.dictionaries(
        st.sampled_from([(a, b, m) for a, b, m in keys if a >= b]), gauss, max_size=6))
    # the reality symmetry c_{bam} = conj(c_{abm}); c_{aam} is real
    coeffs = {}
    for (a, b, m), c in half.items():
        if a > b:
            coeffs[(a, b, m)], coeffs[(b, a, m)] = c, c.conj()
        else:
            coeffs[(a, b, m)] = GaussRat(c.re)
    C = ComplexSeries(k, N, coeffs)
    R = to_real_basis(C)
    assert oracle_expansion(C) == as_complex(R)
    assert to_complex_basis(R) == C

    # one term moved off the symmetry makes the series non-real, and the
    # error names the lowest imaginary monomial of the oracle's expansion
    key = data.draw(st.sampled_from(keys))
    delta = data.draw(gauss)
    if key[0] == key[1] and not delta.im:
        delta = GaussRat(delta.re, 1)
    bad = C + ComplexSeries(k, N, {key: delta})
    assert not bad.is_real()
    imag = [key for key, c in oracle_expansion(bad).items() if c[1]]
    j, l, m = min(imag, key=lambda t: (t[0] + t[1] + k * t[2], t))
    with pytest.raises(StructuralError, match=rf"monomial x\^{j} y\^{l} u\^{m} "):
        to_real_basis(bad)


@PROPERTY
@given(st.data())
def test_non_real_series_error_is_that_of_the_full_expansion(data):
    k, N = data.draw(wide_type_and_weight)
    coeffs = data.draw(st.dictionaries(st.sampled_from(monomials(k, N)), gauss,
                                       min_size=1, max_size=8))
    C = ComplexSeries(k, N, coeffs)
    imag = {key: c[1] for key, c in oracle_expansion(C).items() if c[1]}
    assume(imag)
    j, l, m = low = min(imag, key=lambda t: (t[0] + t[1] + k * t[2], t))
    with pytest.raises(StructuralError) as exc:
        to_real_basis(C)
    assert str(exc.value) == (f"series is not real: monomial x^{j} y^{l} u^{m} "
                              f"has imaginary coefficient {imag[low]}")


def test_failing_property_keeps_its_report(tmp_path):
    # under the suite's own warning filters, hypothesis still prints the
    # falsifying example of a failing property, not an INTERNALERROR
    (tmp_path / "pyproject.toml").write_text(
        (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_always_fails(n):\n"
        "    assert n != n\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out, out
