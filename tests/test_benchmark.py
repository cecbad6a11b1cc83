"""The benchmark harness end to end: one short traced run of each workload,
zeros included although BENCHMARK.json does not run it, so that a change to
src/ that breaks what perfbench/ reads of it (a name, a default such as
zeta_line's chunk, an output key, or mollifier.Polynomial), or a value its
mpmath checks compare (an L-value, a character, a Gauss sum, the AFE pair,
a zero count or a sign change of Z), fails here and not only in a benchmark run;
and one short run of tools/bench.py, the script that writes BENCH_<workload>.json."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["kappa", "moment", "pointwise", "zeros"])
def test_workload_runs_and_checks_out(workload):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0, proc.stdout[-2000:]


@pytest.mark.parametrize("against", [[], ["--against", "HEAD"]], ids=["tree", "against-head"])
def test_bench_tool_writes_its_keys(tmp_path, against):
    """tools/bench.py over one short kappa seed: BENCH_kappa.json holds the
    run's end-to-end metrics, their summary, the fit of peak RSS against
    passes (empty here), and the machine and revision;
    with --against, also REV's side, run first on the odd seed, and the pairs."""
    argv = ["--workload", "kappa", "--seeds", "1", "--seconds", "1", "--out", str(tmp_path), *against]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads((tmp_path / "BENCH_kappa.json").read_text())
    assert {"workload", "command", "seeds", "python", "numpy", "nproc", "tree"} <= doc.keys()
    assert doc["seeds"] == [1] and ("against" in doc) == bool(against)
    tree = doc["tree"]
    assert {"rev", "dirty", "runs", "summary", "correct", "failed"} <= tree.keys()
    assert tree["correct"] is True and tree["failed"] == 0
    # one run has one pass count, so there is no line of peak RSS against passes
    assert tree["rss_per_pass_mb"] is None and tree["rss_at_zero_passes_mb"] is None
    (run,) = tree["runs"]
    assert {"seed", "setup_s", "peak_rss_mb", "pass_s", "passes", "attempted", "correct", "failed"} <= run.keys()
    for name in ("setup_s", "peak_rss_mb", "pass_s"):
        assert tree["summary"][name] == {"median": run[name], "q1": run[name], "q3": run[name]}
    if against:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True, text=True)
        assert doc["against"]["rev"] == head.stdout.strip()
        assert doc["against"]["correct"] is True and doc["against"]["failed"] == 0
        for name in ("setup_s", "peak_rss_mb", "pass_s"):
            assert {"lower", "of", "median_change"} <= doc["pairs"][name].keys()
            assert doc["pairs"][name]["of"] == 1
        assert proc.stderr.index("against seed 1") < proc.stderr.index("tree seed 1")
