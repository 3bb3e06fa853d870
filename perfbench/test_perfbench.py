"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

It makes two traced runs of every workload (a few minutes on two cores).
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT, flags=()):
    proc = subprocess.run([sys.executable, *flags, *SPEC["command"][1:],
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    return line


def is_count(name):
    return not (name.endswith("_s") or name == "trace.overhead_ratio")


@pytest.fixture(scope="module")
def traced_twice():
    """Two traced runs of each workload with the default seed."""
    out = {}
    for name in WORKLOADS:
        args = ("--workload", name, "--seed", str(corpus.DEFAULT_SEED),
                "--seconds", "1", "--trace", "1")
        out[name] = [result_line(run(*args))["metrics"] for _ in range(2)]
    return out


def test_counts_repeat_exactly(traced_twice):
    for name, (a, b) in traced_twice.items():
        assert set(a) == {m["name"] for m in SPEC["per_layer"]}
        counts = [m for m in a if is_count(m)]
        assert counts
        for m in counts:
            assert a[m]["value"] == b[m]["value"], (name, m)


def test_layer_predictions(traced_twice):
    deep, algebra, cli = (traced_twice[n][0] for n in
                          ("tnormal-deep", "map-algebra", "cli-batch"))
    assert deep["transform.FormalMap.inverse.calls"]["value"] == 0
    assert algebra["transform.FormalMap.inverse.calls"]["value"] > 0
    assert deep["normalize.pushforwards_per_normalization"]["value"] > 1
    for lib in (deep, algebra):
        assert lib["cli.main.calls"]["value"] == 0
        for m in lib:
            if m.startswith("fileformat."):
                assert lib[m]["value"] == 0, m
    assert cli["cli.main.calls"]["value"] > 0
    # the library workloads run after a warm-up, cli-batch from a cold cache
    assert deep["linsolve.invert.calls"]["value"] == 0
    assert cli["linsolve.invert.calls"]["value"] > 0
    assert cli["fileformat.bytes_in"]["value"] > 0
    report = json.loads((BENCH / "results" / (
        f"map-algebra-seed{corpus.DEFAULT_SEED}-trace1.json")).read_text())
    layers = report["layers"]
    assert (layers["transform.FormalMap.inverse.total_s"]
            >= layers["trace.op_s"] / 3)


@pytest.mark.parametrize("workload,percentile,cold",
                         [("cli-batch", 88.51, True),
                          ("map-algebra", 100.0, False)])
def test_end_to_end_line(workload, percentile, cold):
    line = result_line(run("--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", "0"))
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    report = json.loads((BENCH / "results" / (
        f"{workload}-seed7-trace0.json")).read_text())
    assert report["cold_passes"] == cold
    assert report["tail_percentile"] == percentile
    assert report["tail_ops"] == report["ops_per_pass"]
    # one whole pass: every op has its latency, and the metrics come from them
    assert report["passes"] == 1
    latencies = sorted(report["op_latency_s"])
    metrics = {n: v["value"] for n, v in line["metrics"].items()}
    assert metrics["op_p50_s"] == statistics.median(latencies)
    assert metrics["ops_per_s"] == len(latencies) / sum(latencies)
    if percentile == 100.0:
        assert metrics["op_tail_s"] == latencies[-1]


def test_refuses_python_O():
    proc = run("--workload", "cli-batch", flags=("-O",))
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "work"))
    proc = run("--workload", "cli-batch", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_corpus_is_seeded():
    assert corpus.deep_corpus(3) == corpus.deep_corpus(3)
    assert corpus.cli_corpus(3) == corpus.cli_corpus(3)
    a, b = corpus.map_corpus(3), corpus.map_corpus(4)
    assert a != b
    # the seed draws coefficients; the shapes stay fixed
    assert [(d["k"], d["N"], sorted(d["T"][0])) for d in a] == \
        [(d["k"], d["N"], sorted(d["T"][0])) for d in b]
    # in the library workloads it draws only their signs
    assert [{key: abs(c) for key, c in F.items()}
            for _, _, F in corpus.deep_corpus(3)] == \
        [{key: abs(c) for key, c in F.items()}
         for _, _, F in corpus.deep_corpus(4)]
    assert corpus.deep_corpus(3) != corpus.deep_corpus(4)
