import random
from fractions import Fraction

from crnf.series import GaussRat, HoloSeries, RealSeries


def rand_frac(rng, lo=-5, hi=5, max_den=4, nonzero=False):
    while True:
        f = Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
        if f or not nonzero:
            return f


def rand_gauss(rng, lo=-5, hi=5, max_den=4, nonzero=False):
    while True:
        g = GaussRat(rand_frac(rng, lo, hi, max_den), rand_frac(rng, lo, hi, max_den))
        if g or not nonzero:
            return g


def rand_real_series(rng, k, N, nterms=6, min_wt=None, max_wt=None):
    """Random sparse RealSeries with weights in [min_wt, max_wt]."""
    lo = min_wt if min_wt is not None else 0
    hi = max_wt if max_wt is not None else N
    coeffs = {}
    for _ in range(nterms):
        w = rng.randint(lo, hi)
        m = rng.randint(0, w // k)
        rest = w - k * m
        j = rng.randint(0, rest)
        coeffs[(j, rest - j, m)] = rand_frac(rng, nonzero=True)
    return RealSeries(k, N, coeffs)


def rand_tail(rng, k, N, nterms=5):
    """Random tail: weights in [k+1, N]."""
    return rand_real_series(rng, k, N, nterms, min_wt=k + 1, max_wt=N)


def rand_hypersurface_series(rng, k, N, nterms=5):
    """x^k plus a random tail."""
    return RealSeries.monomial(k, N, k, 0, 0) + rand_tail(rng, k, N, nterms)


def rand_holo(rng, k, N, nterms=4, min_wt=2, max_wt=None):
    """Random sparse HoloSeries with weights in [min_wt, max_wt]."""
    hi = max_wt if max_wt is not None else N
    coeffs = {}
    for _ in range(nterms):
        w = rng.randint(min_wt, hi)
        m = rng.randint(0, w // k)
        j = w - k * m
        coeffs[(j, m)] = rand_gauss(rng, nonzero=True)
    return HoloSeries(k, N, coeffs)


def rand_dense_holo(rng, k, N, min_wt, max_wt, density=0.15):
    """HoloSeries holding each monomial of weight min_wt..max_wt with the
    given chance, as the dense maps of the benchmark do."""
    coeffs = {(w - k * m, m): rand_gauss(rng, nonzero=True)
              for w in range(min_wt, max_wt + 1) for m in range(w // k + 1)
              if rng.random() < density}
    return HoloSeries(k, N, coeffs)


def seeded(seed):
    return random.Random(seed)
