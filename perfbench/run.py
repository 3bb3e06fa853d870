"""Seeded, stdlib-only benchmark for the crnf engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --sweep [--seed N]
    python3 perfbench/run.py --record

Run from the root of a checkout; crnf is imported from ./src.  One caller in
one process runs one op after another (a closed loop, no threads, no
subprocesses).  Each run starts in a fresh interpreter.  The library
workloads measure a long-running caller: one untimed op of each size warms
crnf's per-process weight_system cache first.  cli-batch measures a CLI
user's process: the cache is emptied before every pass, so every pass starts
cold.

A run sets up several times and reports the median set-up time, then runs
passes over the workload's corpus until the ops have taken --seconds; the
last pass may stop part way.  Each op's latency is the median of its
samples.  Every op's outputs are checked: against the reference digests
recorded for the default seed, by one invariant that holds for any seed, and,
on later executions, against the first one.  The last line of standard
output is one JSON object; with --trace 0 it holds the end-to-end metrics,
with --trace 1 the per-layer ones.  A fuller report goes to
perfbench/results/.  The exit code is 1 when any op failed.

With --trace 1 the run makes three whole passes after the same warm-up or
cold start: a traced pass (layer metrics and spans come from it), an
untraced pass and a second traced pass; trace.overhead_ratio compares the
last two.
"""

import sys
from pathlib import Path

# Bytecode goes to a cache the benchmark owns, so that set-up time does not
# depend on whether src/crnf/__pycache__ happens to be fresh, nor on
# PYTHONDONTWRITEBYTECODE.  The first of the timed imports fills it.
sys.pycache_prefix = str(Path(__file__).resolve().parent / "work" / "pycache")
sys.dont_write_bytecode = False

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

import corpus  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / "work"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_REPS = 21
SWEEP_CAP_S = 30.0
# op_tail_s is the highest percentile with at least this many ops beyond it,
# or the slowest op when the corpus is too small for that to be a tail.
TAIL_OPS_BEYOND = 10

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Layers that run on every workload; their times go into the result line.
# Layers that only some workloads reach report times in the results file,
# where a zero means "not reached".
SHARED_LAYERS = ("transform.pushforward_series", "transform.FormalMap.compose",
                 "series.restrict_to_M")
COUNTS = ("normalize.pushforwards_per_normalization",
          "normalize.weight_system.hit_ratio",
          "fileformat.bytes_in", "fileformat.bytes_out",
          "out.series_terms", "out.map_terms", "out.coeff_bits_max")


def per_layer_names():
    """The per-layer metrics of the result line, in BENCHMARK.json order."""
    names = [f"{name}.calls" for name, *_ in spans.targets()]
    for name in SHARED_LAYERS:
        names += [f"{name}.total_s", f"{name}.self_s"]
    return names + list(COUNTS) + ["trace.overhead_ratio"]


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith("per_normalization"):
        return "ratio"
    if name.startswith("fileformat.bytes"):
        return "bytes"
    return "bits" if name.endswith("bits_max") else "count"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_crnf():
    """Import crnf from ./src afresh and return (package, seconds)."""
    for name in [n for n in sys.modules if n == "crnf" or n.startswith("crnf.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    t0 = perf_counter()
    crnf = importlib.import_module("crnf")
    importlib.import_module("crnf.cli")
    dt = perf_counter() - t0
    if Path(crnf.__file__).resolve().parent != SRC / "crnf":
        fail(f"imported crnf from {crnf.__file__}, not from {SRC}")
    return crnf, dt


def digest(texts):
    h = hashlib.sha256()
    for kind, text in texts:
        h.update(f"{kind}\n{len(text)}\n{text}".encode())
    return h.hexdigest()[:16]


def out_counts(texts):
    """(series terms, map terms, largest numerator/denominator bit length)
    over the records of canonical series and map texts."""
    series = maps = bits = 0
    for kind, text in texts:
        if kind == "text":
            continue
        for line in text.splitlines()[1:]:
            fields = line.split()
            if kind == "map" and (len(fields) != 4 or fields[0] == "linear"):
                continue
            if kind == "series":
                series += 1
            else:
                maps += 1
            for tok in fields[2 if kind == "map" else 3:]:
                q = Fraction(tok)
                bits = max(bits, abs(q.numerator).bit_length(),
                           q.denominator.bit_length())
    return series, maps, bits


class Checker:
    """Counts failed ops.  The first pass is checked against the reference
    digests (default seed only) and the workload's invariant; later passes
    must reproduce the first pass's digests."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.ref = None
        if seed == corpus.DEFAULT_SEED and REFERENCE.exists():
            self.ref = json.loads(REFERENCE.read_text()).get(wl.name)
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.counts = [0, 0, 0]
        self.seconds = {}

    def op(self, i, item, run):
        """Run op i through `run` and check it; return its seconds, or None
        if it raised."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            res = run(item)
        except Exception:  # an op that raises is a failed op
            self._failed(i, [traceback.format_exc(limit=-3)])
            return None
        dt = perf_counter() - t0
        self.seconds.setdefault(i, []).append(dt)
        self._failed(i, self._check(i, item, res))
        return dt

    def _check(self, i, item, res):
        texts = self.wl.outputs(item, res)
        d = digest(texts)
        if i in self.first:
            if d != self.first[i]:
                return ["output differs from the first pass"]
            return []
        self.first[i] = d
        s, m, b = out_counts(texts)
        self.counts = [self.counts[0] + s, self.counts[1] + m,
                       max(self.counts[2], b)]
        errors = []
        if self.ref is not None and self.ref[i] != d:
            errors.append(f"digest {d} != reference {self.ref[i]}")
        bad = self.wl.invariant(item, res)
        if bad:
            errors.append(bad)
        return errors

    def _failed(self, i, errors):
        if errors:
            self.failed += 1
            self.failures += [(i, e) for e in errors]


def cold_start(crnf):
    """Empty crnf's per-process weight_system cache, so that a pass sees the
    cold fills a fresh CLI process sees.  A later crnf may keep the cache
    elsewhere; the report's cold_passes says whether it was found."""
    cache = getattr(crnf.normalize, "_system_cache", None)
    if cache is not None:
        cache.clear()


def warm_up(wl, items, checker):
    """Run (and check) one op of each size, untimed, so that a library
    workload measures the steady state of a caller that normalizes many
    graphs of one type; return the seconds it took."""
    t0 = perf_counter()
    seen = set()
    for i, item in enumerate(items):
        if wl.label(item) not in seen:
            seen.add(wl.label(item))
            checker.op(i, item, wl.run)
    return perf_counter() - t0


def one_pass(items, checker, run):
    """Seconds the ops of one whole pass took."""
    if checker.wl.cold_passes:
        cold_start(checker.wl.crnf)
    total = 0.0
    for i, item in enumerate(items):
        dt = checker.op(i, item, run)
        if dt is not None:
            total += dt
    return total


def nearest_rank(sorted_vals, q):
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def setup(wl_cls, seed):
    """Import and build the corpus SETUP_REPS times each; return the
    workload, its corpus and the median set-up seconds."""
    imports, builds = [], []
    for _ in range(SETUP_REPS):
        crnf, dt = import_crnf()
        imports.append(dt)
    wl = wl_cls(crnf, str(WORK / wl_cls.name))
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        items = wl.build(seed)
        builds.append(perf_counter() - t0)
    return wl, items, statistics.median(imports) + statistics.median(builds)


def measure(wl, items, checker, seconds):
    """Passes over the corpus until the ops have taken `seconds`.

    The first pass is always whole; a later one stops at the first op
    after the time is up.  Every pass of cli-batch starts from a cold cache,
    so passes are alike.  Each op gives one sample per pass: an op of a
    workload with `min_sample_s` is repeated until its repetitions have taken
    that long, and the sample is their median.  An op's latency is the median
    of its samples, so a slow stretch of a shared machine moves it less than
    it moves a sum.  ops_per_s is the corpus mix's rate at these latencies
    (ops over their sum), so neither repetitions nor a part pass tilt it.
    op_p50_s is the median latency.  op_tail_s is the highest percentile of
    the latencies with at least TAIL_OPS_BEYOND ops beyond it, or the slowest
    op's latency when the corpus has fewer than 2 * TAIL_OPS_BEYOND ops (the
    library workloads, whose slow ops are the point).
    """
    per_op = [[] for _ in items]
    busy, passes = 0.0, 0
    while True:
        if wl.cold_passes:
            cold_start(wl.crnf)
        sampled = False
        for i, item in enumerate(items):
            if passes and busy >= seconds:
                break
            reps = []
            while sum(reps) < wl.min_sample_s or not reps:
                dt = checker.op(i, item, wl.run)
                if dt is None:
                    break
                reps.append(dt)
            if reps:
                per_op[i].append(statistics.median(reps))
                busy += sum(reps)
                sampled = True
        passes += 1
        if busy >= seconds or not sampled:
            break
    n = len(items)
    q = (n - TAIL_OPS_BEYOND) / n if n >= 2 * TAIL_OPS_BEYOND else 1.0
    latencies = [statistics.median(v) if v else None for v in per_op]
    measured = sorted(v for v in latencies if v is not None)
    e2e = {
        "ops_per_s": len(measured) / sum(measured) if measured else 0.0,
        "op_p50_s": statistics.median(measured) if measured else 0.0,
        "op_tail_s": nearest_rank(measured, q) if measured else 0.0,
    }
    info = {"passes": passes, "samples": sum(map(len, per_op)),
            "ops_per_pass": n, "tail_percentile": round(100 * q, 2),
            "tail_ops": len(measured), "busy_s": busy,
            "op_latency_s": latencies}
    return e2e, info


def traced(wl, items, checker):
    """Traced pass, untraced pass, traced pass."""
    rec = spans.SpanRecorder()
    saved = spans.install(rec)
    try:
        one_pass(items, checker, lambda item: rec.op(wl.run, item))
    finally:
        spans.restore(saved)
    plain = one_pass(items, checker, wl.run)
    again = spans.SpanRecorder()
    saved = spans.install(again)
    try:
        timed = one_pass(items, checker, lambda item: again.op(wl.run, item))
    finally:
        spans.restore(saved)

    stats = rec.layer_stats()
    layers = {}
    for name, *_ in spans.targets():
        calls, total, self_s = stats.get(name, (0, 0.0, 0.0))
        layers[f"{name}.calls"] = calls
        layers[f"{name}.total_s"] = total
        layers[f"{name}.self_s"] = self_s
    norms = sum(stats.get(f"normalize.{n}_normalize", (0,))[0]
                for n in ("t", "rigid", "nt"))
    pushes = rec.count_under("transform.pushforward_series",
                             {f"normalize.{n}_normalize"
                              for n in ("t", "rigid", "nt")})
    ws_calls = len(rec.weight_keys)
    layers.update({
        "normalize.pushforwards_per_normalization":
            pushes / norms if norms else 0.0,
        "normalize.weight_system.hit_ratio":
            1 - len(set(rec.weight_keys)) / ws_calls if ws_calls else 0.0,
        "fileformat.bytes_in": rec.bytes_in,
        "fileformat.bytes_out": rec.bytes_out,
        "out.series_terms": checker.counts[0],
        "out.map_terms": checker.counts[1],
        "out.coeff_bits_max": checker.counts[2],
        "trace.overhead_ratio": timed / plain - 1 if plain else 0.0,
        "trace.op_s": stats.get("bench.op", (0, 0.0))[1],
    })
    return layers, rec


def run_workload(args):
    wl, items, setup_s = setup(WORKLOADS[args.workload], args.seed)
    checker = Checker(wl, args.seed)
    warmup_s = 0.0 if wl.cold_passes else warm_up(wl, items, checker)
    report = {"workload": wl.name, "why": wl.why, "seed": args.seed,
              "default_seed": corpus.DEFAULT_SEED, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(),
              "python": platform.python_version(),
              "platform": platform.platform(), "setup_s": setup_s,
              "warmup_s": warmup_s,
              "cold_passes": (wl.cold_passes and
                              hasattr(wl.crnf.normalize, "_system_cache"))}
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        layers, rec = traced(wl, items, checker)
        rec.write(str(stem) + ".spans.jsonl")
        metrics = {name: layers[name] for name in per_layer_names()}
        report["layers"] = layers
        units = {n: layer_unit(n) for n in layers}
        shown = layers
    else:
        e2e, info = measure(wl, items, checker, args.seconds)
        e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024)
        e2e["setup_s"] = setup_s
        metrics = e2e
        report.update(info)
        units = END_TO_END
        shown = dict(e2e)
    failed = checker.failed
    failed_ratio = failed / checker.attempted
    report["attempted"] = checker.attempted
    report["failed_ratio"] = failed_ratio
    report["failures"] = [{"op": i, "label": wl.label(items[i]), "error": e}
                          for i, e in checker.failures]
    report["metrics"] = metrics
    report["op_seconds"] = [{"op": i, "label": wl.label(items[i]),
                             "seconds": checker.seconds.get(i, [])}
                            for i in range(len(items))]
    (Path(str(stem) + ".json")).write_text(json.dumps(report, indent=2) + "\n")

    for name, value in shown.items():
        print(f"{wl.name:13s} {name:52s} {value:>14.6g} {units[name]}")
    print(f"{wl.name:13s} {'failed_ratio':52s} {failed_ratio:>14.6g} ratio")
    if not args.trace:
        print(f"{wl.name:13s} {report['samples']} latency samples: "
              f"{report['passes']} passes (the last may be part) of "
              f"{report['ops_per_pass']} ops; "
              f"op_tail_s is p{report['tail_percentile']} of "
              f"{report['tail_ops']} per-op latencies")
    for f in report["failures"][:20]:
        print(f"FAILED op {f['op']} ({f['label']}): {f['error']}",
              file=sys.stderr)
    line = {"correct": not checker.failures,
            "attempted": checker.attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]}
                        for n, v in metrics.items()}}
    print(json.dumps(line))
    return 0 if not checker.failures else 1


def record(args):
    """Write the digests of one pass over the default seed's corpus."""
    ref = {}
    for name, cls in WORKLOADS.items():
        wl, items, _ = setup(cls, corpus.DEFAULT_SEED)
        checker = Checker(wl, None)
        one_pass(items, checker, wl.run)
        if checker.failures:
            fail(f"{name}: {checker.failures[:3]}")
        ref[name] = [checker.first[i] for i in range(len(items))]
        print(f"{name}: {len(items)} digests")
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


def sweep(args):
    """Scaling table: one t_normalize and one inverse per (k, N), N rising
    from 2k until one of the two calls takes longer than SWEEP_CAP_S."""
    crnf, _ = import_crnf()
    wl_deep = WORKLOADS["tnormal-deep"](crnf, None)
    wl_map = WORKLOADS["map-algebra"](crnf, None)
    rows = []
    for k in (3, 4, 5):
        N = 2 * k
        while True:
            Fc, d = corpus.sweep_input(args.seed, k, N)
            F = crnf.RealSeries(k, N, Fc)
            T = wl_map.item(d)[0]
            t0 = perf_counter()
            res = crnf.t_normalize(crnf.Hypersurface.validate(F, k))
            t1 = perf_counter()
            T.inverse()
            t2 = perf_counter()
            bits = out_counts(wl_deep.outputs((k, F), res))[2]
            rows.append({"k": k, "N": N, "t_normalize_s": t1 - t0,
                         "inverse_s": t2 - t1, "coeff_bits_max": bits})
            print(f"k={k} N={N:3d} t_normalize {t1 - t0:9.3f} s  "
                  f"inverse {t2 - t1:9.3f} s  bits {bits}", flush=True)
            if max(t1 - t0, t2 - t1) > SWEEP_CAP_S:
                break
            N += 1
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"sweep-seed{args.seed}.json"
    path.write_text(json.dumps({"seed": args.seed, "cap_s": SWEEP_CAP_S,
                                "nproc": os.cpu_count(),
                                "python": platform.python_version(),
                                "rows": rows}, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sweep", action="store_true",
                   help="print and save the (k, N) scaling table instead")
    p.add_argument("--record", action="store_true",
                   help="record reference digests for the default seed")
    args = p.parse_args(argv)
    if sys.flags.optimize:
        fail("refusing to run under python -O: crnf's postconditions are "
             "asserts, so -O would measure a different program")
    if not (SRC / "crnf" / "__init__.py").is_file():
        fail(f"no crnf sources at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    if args.sweep:
        return sweep(args)
    if args.record:
        return record(args)
    if args.workload is None:
        p.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
