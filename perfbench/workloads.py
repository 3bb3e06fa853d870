"""The three workloads: what one op is, and how its outputs are checked.

A workload object is made after crnf has been imported.  `build` makes the
corpus for a seed (and, for cli-batch, writes its files), `run` performs one
op and is the only part that is timed, `outputs` turns an op's result into
canonical texts for the digest and the output counts, and `invariant`
checks one property of the result that holds for any seed.

Library results are written out by the benchmark's own canonical printer,
not by crnf.fileformat, so that a change to the file format moves neither
the digests nor the fileformat layer counts of the library workloads.
"""

import contextlib
import io
import os
import shutil
from fractions import Fraction

import corpus


def canon_series(S):
    lines = [f"series k={S.k} N={S.N}"]
    for (j, l, m), c in sorted(S.coeffs.items()):
        if isinstance(c, Fraction):
            lines.append(f"{j} {l} {m} {c.numerator}/{c.denominator}")
        else:
            lines.append(f"{j} {l} {m} {_q(c.re)} {_q(c.im)}")
    return "\n".join(lines) + "\n"


def canon_map(T):
    lines = [f"map k={T.k} N={T.N}",
             f"linear delta={_q(T.linear.delta)} rot={T.linear.rot}"]
    for name, part in (("f", T.f), ("g", T.g)):
        lines.append(name)
        for (j, m), c in sorted(part.coeffs.items()):
            lines.append(f"{j} {m} {_q(c.re)} {_q(c.im)}")
    return "\n".join(lines) + "\n"


def _q(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


# A library pass has only 12 ops, so one sample of a 20 ms op would swing
# with every hiccup of a shared machine; those ops are repeated for at least
# this long and give the median.  CLI passes have ~90 ops and keep single
# samples, so the cold weight_system fills stay in their tail.
LIBRARY_MIN_SAMPLE_S = 0.5

# cold_passes: True empties crnf's weight_system cache before every pass, as
# for a fresh CLI process; False warms it once, as for a library caller that
# normalizes many graphs of one type.


class TnormalDeep:
    name = "tnormal-deep"
    min_sample_s = LIBRARY_MIN_SAMPLE_S
    cold_passes = False
    why = ("t_normalize on x^k + 8-term tails at (k,N) = (3,15),(4,20),(5,20): "
           "time in per-weight pushforward and compose, no inverse, no I/O")

    def __init__(self, crnf, workdir):
        self.crnf = crnf

    def build(self, seed):
        crnf = self.crnf
        return [(k, crnf.RealSeries(k, N, coeffs))
                for k, N, coeffs in corpus.deep_corpus(seed)]

    def label(self, item):
        return f"k={item[0]} N={item[1].N}"

    def run(self, item):
        crnf = self.crnf
        k, F = item
        return crnf.t_normalize(crnf.Hypersurface.validate(F, k))

    def outputs(self, item, res):
        return [("series", canon_series(res.H_normal.F)),
                ("map", canon_map(res.T))]

    def invariant(self, item, res):
        crnf = self.crnf
        if not res.T.is_unipotent():
            return "normalizing map has a linear part"
        bad = crnf.check(res.H_normal, crnf.NormalFormKind.t_normal())
        if bad:
            return f"{len(bad)} t-normal conditions violated"
        return None


class MapAlgebra:
    name = "map-algebra"
    min_sample_s = LIBRARY_MIN_SAMPLE_S
    cold_passes = False
    why = ("inverse, compose and one dense pushforward of seeded dense maps "
           "at the same (k,N): the only workload where FormalMap.inverse "
           "dominates")

    def __init__(self, crnf, workdir):
        self.crnf = crnf

    def _holo(self, k, N, coeffs):
        G = self.crnf.GaussRat
        return self.crnf.HoloSeries(
            k, N, {key: G(re, im) for key, (re, im) in coeffs.items()})

    def build(self, seed):
        return [self.item(d) for d in corpus.map_corpus(seed)]

    def item(self, d):
        """(T, S, F) as crnf objects from one corpus entry."""
        crnf = self.crnf
        k, N = d["k"], d["N"]
        tf, tg, delta, rot = d["T"]
        sf, sg = d["S"]
        T = crnf.FormalMap(self._holo(k, N, tf), self._holo(k, N, tg),
                           crnf.LinearFactor(delta, rot))
        S = crnf.FormalMap(self._holo(k, N, sf), self._holo(k, N, sg))
        return T, S, crnf.RealSeries(k, N, d["F"])

    def label(self, item):
        return f"k={item[0].k} N={item[0].N}"

    def run(self, item):
        T, S, F = item
        return T.inverse(), S.compose(T), self.crnf.pushforward_series(F, T)

    def outputs(self, item, res):
        inv, comp, image = res
        return [("map", canon_map(inv)), ("map", canon_map(comp)),
                ("series", canon_series(image))]

    def invariant(self, item, res):
        T = item[0]
        if not T.compose(res[0]).is_identity():
            return "T composed with T.inverse() is not the identity"
        return None


class CliBatch:
    """One op is one crnf.cli.main(argv) call, run inside the work
    directory with bare file names so that the output is the same wherever
    the checkout lives."""

    name = "cli-batch"
    min_sample_s = 0.0
    cold_passes = True
    why = ("one crnf.cli.main call per shallow file or tube pair: "
           "parse/serialize, dispatch, classify, tube-equiv and cold "
           "weight_system fills, little deep recursion")

    def __init__(self, crnf, workdir):
        self.crnf = crnf
        self.workdir = workdir

    def build(self, seed):
        crnf = self.crnf
        files, pairs = corpus.cli_corpus(seed)
        if os.path.isdir(self.workdir):
            shutil.rmtree(self.workdir)
        os.makedirs(self.workdir)
        ops = []
        for f in files:
            F = crnf.RealSeries(f["k"], f["N"], f["coeffs"])
            text = crnf.serialize_series(
                F if f["basis"] == "xyu" else crnf.to_complex_basis(F))
            self._write(f["name"] + ".srs", text)
            src, tnf = f["name"] + ".srs", f["name"] + ".tnf"
            ops += [
                (["tnormal", src], 0, (tnf + ".srs", tnf + ".map")),
                (["apply", "--map", tnf + ".map", src], 0,
                 (f["name"] + ".img.srs",)),
                (["check", "--form", "t", tnf + ".srs"], 0, ()),
                (["check", "--form", "t", src], 1, ()),
                (["classify", src], 0, ()),
                (["analyze", src], 0, ()),
            ]
            if f["family"] == "ufree":
                ops.append((["rigid", src], 0,
                            (f["name"] + ".rgd.srs", f["name"] + ".rgd.map")))
            if f["family"] == "yfree":
                ops.append((["nt", src], 0,
                            (f["name"] + ".ntf.srs", f["name"] + ".ntf.map")))
        for p in pairs:
            names = []
            for side in ("F", "G"):
                S = crnf.RealSeries(p["k"], p["N"],
                                    {(j, 0, 0): c for j, c in p[side].items()})
                names.append(f"{p['name']}{side}.srs")
                self._write(names[-1], crnf.serialize_series(S))
            ops.append((["tube-equiv"] + names, p["code"], ()))
        return ops

    def _write(self, name, text):
        with open(os.path.join(self.workdir, name), "w") as fh:
            fh.write(text)

    def _read(self, name):
        with open(os.path.join(self.workdir, name)) as fh:
            return fh.read()

    def label(self, op):
        return " ".join(op[0])

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = self.crnf.cli.main(op[0])
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
        return code, out.getvalue(), err.getvalue()

    def outputs(self, op, res):
        code, out, err = res
        texts = [("text", f"exit {code}\n{out}{err}")]
        for name in op[2]:
            kind = "map" if name.endswith(".map") else "series"
            texts.append((kind, self._read(name)))
        return texts

    def invariant(self, op, res):
        argv, want, _ = op
        code = res[0]
        if code != want:
            return f"exit {code}, expected {want}: {res[2].strip()}"
        if argv[0] == "apply":
            stem = argv[-1][:-len(".srs")]
            if self._read(stem + ".img.srs") != self._read(stem + ".tnf.srs"):
                return "apply of the tnormal map does not reproduce .tnf.srs"
        return None


WORKLOADS = {w.name: w for w in (TnormalDeep, MapAlgebra, CliBatch)}
