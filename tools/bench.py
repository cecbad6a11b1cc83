"""Run the benchmark over several seeds and write BENCH_<workload>.json.

    python tools/bench.py --workload moment --seeds 10
    python tools/bench.py --workload moment --seeds 10 --against HEAD~1

Each seed S is one run of ``perfbench/run.py --workload W --seed S
--seconds 16 --trace 0`` in a fresh interpreter.  With ``--against REV``
every seed also runs on the committed files of REV, exported with
``git archive`` into a temporary directory (removed afterwards, and nothing
is registered in the repository); the two sides alternate, REV first on
odd seeds, so both sample the machine's drift alike.  The file holds each
side's per-seed values, the median and quartiles of the end-to-end metrics,
the passes per run, ``correct`` and ``failed``, the git revision with a
dirty flag, and the Python and numpy versions and CPU count; with
``--against``, also per metric how many pairs the tree was lower in, the
REV side's quartile spread, whether a claimed gain holds (better in at
least 9 of 10 pairs, and the medians further apart than that spread), and
whether the change stays within the metric's bound in ``BENCHMARK.json``,
which is read, never written.  run.py keeps
every pass's outputs, so a faster program also reads a higher peak RSS;
each side therefore also holds the least-squares line of ``peak_rss_mb``
against passes, as ``rss_per_pass_mb`` and ``rss_at_zero_passes_mb``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("setup_s", "peak_rss_mb", "pass_s")
RUN_TIMEOUT_S = 900


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run.py run: its end-to-end metrics, passes, correct and failed."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run([sys.executable, str(checkout / "perfbench" / "run.py"), *argv], cwd=checkout,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(argv)} in {checkout} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    passes = next(int(m[1]) for line in lines if (m := re.match(r"passes (\d+), attempted", line)))
    row = {"seed": seed, **{name: result["metrics"][name]["value"] for name in METRICS}}
    return {**row, "passes": passes, "attempted": result["attempted"], "correct": result["correct"],
            "failed": result["failed"]}


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric over the runs."""
    out = {}
    for name in METRICS:
        values = [r[name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        out[name] = {"median": median, "q1": q1, "q3": q3}
    return out


def rss_fit(runs: list[dict]) -> dict:
    """The least-squares line of peak_rss_mb against passes: what each pass
    keeps (run.py retains every pass's outputs) and the program's own peak,
    at zero passes; both None with fewer than two distinct pass counts."""
    passes = [r["passes"] for r in runs]
    if len(set(passes)) < 2:
        return {"rss_per_pass_mb": None, "rss_at_zero_passes_mb": None}
    slope, intercept = statistics.linear_regression(passes, [r["peak_rss_mb"] for r in runs])
    return {"rss_per_pass_mb": slope, "rss_at_zero_passes_mb": intercept}


def side(rev: str, dirty: bool, runs: list[dict]) -> dict:
    return {"rev": rev, "dirty": dirty, "runs": runs, "summary": summary(runs), **rss_fit(runs),
            "correct": all(r["correct"] for r in runs), "failed": sum(r["failed"] for r in runs)}


def pairs(tree: list[dict], against: list[dict]) -> dict:
    """Per metric: the pairs (same seed) in which the tree was lower, the
    relative change of the medians, the REV side's quartile spread, whether
    the rule for claiming a gain holds (the tree lower in at least 9 of 10
    pairs, and its median lower by more than that spread), and whether the
    change is no worse than the metric's relative bound in BENCHMARK.json."""
    rules = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    spread = {name: s["q3"] - s["q1"] for name, s in summary(against).items()}
    out = {}
    for name in METRICS:
        mine, theirs = [r[name] for r in tree], [r[name] for r in against]
        if rules[name]["better"] != "lower":
            raise ValueError(f"{name}: the claim rule here reads lower as better")
        base, median = statistics.median(theirs), statistics.median(mine)
        lower = sum(a < b for a, b in zip(mine, theirs))
        out[name] = {"lower": lower, "of": len(mine), "median_change": (median - base) / base,
                     "against_spread": spread[name],
                     "claim_holds": lower >= 0.9 * len(mine) and base - median > spread[name],
                     "within_bound": (median - base) / base <= rules[name]["bound"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..N (default 10)")
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--against", metavar="REV", help="also run REV's committed files, alternating")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of BENCH_<workload>.json")
    args = parser.parse_args()

    doc = {
        "workload": args.workload,
        "command": f"perfbench/run.py --workload {args.workload} --seed S --seconds {args.seconds:g} --trace 0",
        "seeds": list(range(1, args.seeds + 1)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    try:
        tree_rev, dirty = git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    except subprocess.CalledProcessError:  # an exported tree: no revision to record
        tree_rev, dirty = None, None
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        checkouts = {"tree": ROOT}
        if args.against:
            against_rev = git("rev-parse", "--verify", f"{args.against}^{{commit}}")
            archive = subprocess.run(["git", "archive", against_rev], cwd=ROOT, check=True, capture_output=True)
            subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
            checkouts["against"] = Path(tmp)
        runs = {name: [] for name in checkouts}
        for seed in doc["seeds"]:
            order = ["against", "tree"] if args.against and seed % 2 else list(checkouts)
            for name in order:
                row = run_once(checkouts[name], args.workload, seed, args.seconds)
                runs[name].append(row)
                print(f"{name} seed {seed}: " + ", ".join(f"{k} {row[k]!r}" for k in (*METRICS, "passes")),
                      file=sys.stderr)
    doc["tree"] = side(tree_rev, dirty, runs["tree"])
    if args.against:
        doc["against"] = side(against_rev, False, runs["against"])
        doc["pairs"] = pairs(runs["tree"], runs["against"])
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
