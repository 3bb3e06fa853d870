"""Seeded inputs for the crnf benchmark, built with the standard library only.

Every workload's corpus is a fixed list of slots.  The *shape* of a slot is
drawn from a fixed string seed: the truncation (k, N), which monomials a
series or map carries, the file basis, and the kind of tube pair.  The run's
--seed draws every coefficient, dilation and scale.  So each seed gives other
inputs but asks for the same amount of work.  Drawing the shape from --seed
too would let one seed differ from the next by up to 30x in work (on a
2-core machine a single k=4, N=20 normalization takes 0.2 s to 6 s depending
on which monomials its tail has), and that would swamp any change to the
code.  In the library workloads (tnormal-deep, map-algebra), whose ops take
seconds of exact rational arithmetic, the shape also draws each coefficient's
magnitude and --seed only its sign, so that the bit lengths the arithmetic
works on are the same for every seed.

This module builds plain data (dicts of Fractions and Gaussian pairs); the
workloads turn it into crnf objects.  It imports nothing from crnf or from the
repository's tests, so editing either never shifts the corpus.
"""

import random
from fractions import Fraction

DEFAULT_SEED = 1

DEEP_SIZES = ((3, 15), (4, 20), (5, 20))
SHAPES_PER_SIZE = 4
TAIL_TERMS = 8
MAP_DENSITY = 0.15

CLI_TYPES = (3, 4, 5)
CLI_TAIL_TERMS = 5
# (file tag, monomial family, basis): "any" draws x^j y^l u^m freely,
# "ufree" keeps m = 0 (rigid class), "yfree" keeps l = 0 (nt class).
CLI_FILES = (("a", "any", "xyu"), ("b", "any", "zzu"),
             ("r", "ufree", None), ("n", "yfree", None))
TUBE_KINDS = ("rational", "radical", "inequivalent")


def _shape_rng(*parts):
    return random.Random("crnf-bench-shape/" + "/".join(map(str, parts)))


def coeff_rng(seed, *parts):
    return random.Random(f"crnf-bench/{seed}/" + "/".join(map(str, parts)))


def rand_frac(rng):
    while True:
        f = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if f:
            return f


def rand_gauss(rng):
    """(re, im) with at least one part nonzero."""
    while True:
        re = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        im = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if re or im:
            return re, im


def rand_delta(rng):
    """A rational dilation other than 1 and -1."""
    while True:
        d = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 3)))
        if d != 1:
            return d if rng.random() < 0.5 else -d


def _tail_keys(rng, k, N, n, family="any"):
    """n distinct monomials (j, l, m) of weight k+1..N in the given family."""
    keys = set()
    while len(keys) < n:
        w = rng.randint(k + 1, N)
        m = 0 if family == "ufree" else rng.randint(0, w // k)
        rest = w - k * m
        if family == "yfree":
            j = rest
        else:
            j = rng.randint(0, rest)
        keys.add((j, rest - j, m))
    return sorted(keys)


def signed(rng, x):
    """x with a sign drawn from rng."""
    return x if rng.random() < 0.5 else -x


def signed_gauss(rng, z):
    return signed(rng, z[0]), signed(rng, z[1])


def _holo_keys(rng, k, lo, hi, density):
    """Monomials z^j w^m of weight lo..hi, each kept with the given chance."""
    return [(w - k * m, m) for w in range(lo, hi + 1)
            for m in range(w // k + 1) if rng.random() < density]


def _series(rng, k, keys, shape=None):
    """x^k plus the given tail monomials with seeded coefficients.  With a
    shape rng, it draws the magnitudes and rng only the signs."""
    coeffs = {(k, 0, 0): Fraction(1)}
    for key in keys:
        coeffs[key] = (rand_frac(rng) if shape is None
                       else signed(rng, abs(rand_frac(shape))))
    return coeffs


# ------------------------------------------------------------ tnormal-deep

def deep_corpus(seed):
    """List of (k, N, coeffs): x^k plus an 8-term tail, SHAPES_PER_SIZE
    slots per (k, N), interleaved so the sizes alternate."""
    out = []
    for i in range(SHAPES_PER_SIZE):
        for k, N in DEEP_SIZES:
            shape = _shape_rng("tnormal-deep", k, N, i)
            keys = _tail_keys(shape, k, N, TAIL_TERMS)
            out.append((k, N, _series(coeff_rng(seed, "tnormal-deep", k, N, i),
                                      k, keys, shape)))
    return out


# ------------------------------------------------------------- map-algebra

def map_corpus(seed):
    """List of dicts with k, N, T (f, g, delta, rot), S (f, g) and F.

    T and S are dense: each monomial of the allowed weights is present with
    chance MAP_DENSITY (fixed per slot).  T has a linear factor with delta
    other than +-1; S is unipotent.
    """
    out = []
    for i in range(SHAPES_PER_SIZE):
        for k, N in DEEP_SIZES:
            shape = _shape_rng("map-algebra", k, N, i)
            tf = _holo_keys(shape, k, 2, N - k + 1, MAP_DENSITY)
            tg = _holo_keys(shape, k, k + 1, N, MAP_DENSITY)
            sf = _holo_keys(shape, k, 2, N - k + 1, MAP_DENSITY)
            sg = _holo_keys(shape, k, k + 1, N, MAP_DENSITY)
            rot = shape.randint(0, 3)
            fkeys = _tail_keys(shape, k, N, TAIL_TERMS)
            rng = coeff_rng(seed, "map-algebra", k, N, i)
            out.append({
                "k": k, "N": N,
                "T": ({key: signed_gauss(rng, rand_gauss(shape)) for key in tf},
                      {key: signed_gauss(rng, rand_gauss(shape)) for key in tg},
                      signed(rng, abs(rand_delta(shape))), rot),
                "S": ({key: signed_gauss(rng, rand_gauss(shape)) for key in sf},
                      {key: signed_gauss(rng, rand_gauss(shape)) for key in sg}),
                "F": _series(rng, k, fkeys, shape),
            })
    return out


# ------------------------------------------------------------------- sweep

def sweep_input(seed, k, N):
    """(F coeffs, T entry in the map_corpus layout) for the scaling table.

    F is x^k plus a fixed 8-term tail of weight k+1..2k, and each monomial
    of T is present or not by its own draw, so the input at N + 1 extends
    the one at N and only the truncation grows.
    """
    keys = _tail_keys(_shape_rng("sweep", k), k, 2 * k, TAIL_TERMS)
    F = _series(coeff_rng(seed, "sweep", k), k, keys)

    def part(name, lo, hi):
        out = {}
        for w in range(lo, hi + 1):
            for m in range(w // k + 1):
                key = (w - k * m, m)
                if _shape_rng("sweep", k, name, *key).random() < MAP_DENSITY:
                    out[key] = rand_gauss(coeff_rng(seed, "sweep", k, name,
                                                    *key))
        return out
    rng = coeff_rng(seed, "sweep", k, "linear")
    T = (part("f", 2, N - k + 1), part("g", k + 1, N), rand_delta(rng),
         _shape_rng("sweep", k, "rot").randint(0, 3))
    return F, {"k": k, "N": N, "T": T, "S": ({}, {}), "F": F}


# --------------------------------------------------------------- cli-batch

def cli_corpus(seed):
    """Shallow series files and tube pairs for the CLI workload.

    Returns (files, pairs).  files: dicts with name, k, N, family, basis and
    coeffs (xyu basis).  Each tail starts with a monomial in a family the
    t-normal form removes, so `check --form t` on the raw file exits 1.
    pairs: dicts with name, kind, k, N, F and G as {degree: Fraction} and
    the exit code tube-equiv must give.
    """
    files = []
    for k in CLI_TYPES:
        for tag, family, basis in CLI_FILES:
            shape = _shape_rng("cli-batch", "file", k, tag)
            N = shape.randint(2 * k, 3 * k)
            if basis is None:
                basis = shape.choice(("xyu", "zzu"))
            # a monomial of the x^0 or x^1 family, which the t-normal form
            # removes, so `check --form t` on the raw file exits 1
            first = {"any": (0, k + 1, 0), "ufree": (0, k + 1, 0),
                     "yfree": (1, 0, 1)}[family]
            keys = sorted({first} | set(_tail_keys(shape, k, N,
                                                   CLI_TAIL_TERMS, family)))
            rng = coeff_rng(seed, "cli-batch", "file", k, tag)
            files.append({"name": f"s{k}{tag}", "k": k, "N": N,
                          "family": family, "basis": basis,
                          "coeffs": _series(rng, k, keys)})
    pairs = []
    for k in CLI_TYPES:
        for kind in TUBE_KINDS:
            shape = _shape_rng("cli-batch", "pair", k, kind)
            rng = coeff_rng(seed, "cli-batch", "pair", k, kind)
            pairs.append(_tube_pair(shape, rng, k, kind))
    return files, pairs


def _tube_pair(shape, rng, k, kind):
    """Two univariate tube graphs v = F(x), v = G(x) whose equivalence is
    known by construction.

    Equivalent pairs use z* = a z, w* = c w, under which G(a x) = c F(x),
    so g_j = c0 f_j a^(k-j) with c = c0 a^k.  A radical pair takes
    a = sqrt(q) for a non-square q and keeps only degrees j = k mod 2, so
    every g_j stays rational.  An inequivalent pair adds to a scaled copy
    of F one degree F lacks; with no x^(2k-1) term on either side the
    normalized tails then have different supports.
    """
    N = shape.randint(2 * k, 3 * k)
    degrees = list(range(k + 1, N + 1))
    if kind == "radical":
        degrees = [j for j in degrees if (j - k) % 2 == 0]
    if kind == "inequivalent":
        degrees = [j for j in degrees if j != 2 * k - 1]
    spare = 1 if kind == "inequivalent" else 0
    picked = sorted(shape.sample(degrees, min(3, len(degrees) - spare)))
    F = {k: rand_frac(rng)}
    for j in picked:
        F[j] = rand_frac(rng)
    c0 = rand_frac(rng)
    if kind == "rational":
        a = rand_delta(rng)
        G = {j: c0 * v * a ** (k - j) for j, v in F.items()}
        code = 0
    elif kind == "radical":
        q = rng.choice((2, 3, 5, 6, 7, Fraction(1, 2), Fraction(2, 3)))
        G = {j: c0 * v * Fraction(q) ** ((k - j) // 2) for j, v in F.items()}
        code = 0
    else:
        extra = shape.choice([j for j in degrees if j not in F])
        G = {j: c0 * v for j, v in F.items()}
        G[extra] = rand_frac(rng)
        code = 1
    return {"name": f"t{k}{kind[:3]}", "kind": kind, "k": k, "N": N,
            "F": F, "G": G, "code": code}
