"""Self-test of the benchmark.

    python3 perfbench/selftest.py checks
        Each check must accept a real output and reject it once perturbed:
        a zero moved by 1e-4, a dropped zero, c off by 1e-6, an L-value off
        by 1e-8 (right of the critical strip and on it) and a moment off by
        1e-6 (with Q of degree 1 and of degree 3).

    python3 perfbench/selftest.py compare
        Runs every workload of BENCHMARK.json in two sets of ten runs, each
        run with its own seed, and compares the sets against BENCHMARK.json:
        for every end-to-end metric the quartile spread over the median must
        stay within the bound, the second set's median may be worse than the
        first's by at most the bound, and the share of failed operations must
        be the same.  Spreads above a third of the bound are flagged.  The
        figures are written to perfbench/out/compare.json.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
RUNS = 10  # runs per set and workload
SETS = 2

import workloads  # noqa: E402


def _mutations() -> list[tuple[str, bool]]:
    """(description, behaved as expected) for every accept/reject pair."""
    import checks

    results = []

    def expect(what, op, output, ok: bool, fault=None):
        verdict = checks.Checker(0, [op]).check(op, output)
        if ok:
            results.append((f"accepts {what}", verdict is None))
        else:
            results.append((f"rejects {what}", verdict is not None and verdict[1] == fault))
            if verdict is not None:
                print(f"    {what}: {verdict[0][:160]}")

    def edited(output, change):
        rep = workloads.loads(output[1])
        change(rep)
        return 0, json.dumps(rep)

    zeros_op = workloads.Op("zeros_low", "[0,60]", ("cli", ["zeros", "--tmin", "0", "--tmax", "60"]),
                            {"tmin": 0.0, "tmax": 60.0})
    out = zeros_op.call()
    expect("the zeros in [0, 60]", zeros_op, out, True)

    def move(rep):
        rep["zeros"][3] += 1e-4

    def drop(rep):
        del rep["zeros"][5]
        rep["zero_count"] -= 1

    expect("a zero moved by 1e-4", zeros_op, edited(out, move), False)
    expect("a dropped zero", zeros_op, edited(out, drop), False)

    name, p, q, r = workloads.registry_tuples()[0]
    const_op = workloads.Op("constant", name, ("cli", ["constant"]), {"P": p, "Q": q, "R": r, "theta": 0.5})
    out = const_op.call()
    expect("the program's c, as the linear-functional fault", const_op, out, False, checks.LINEAR_FUNCTIONAL)
    c = checks.conrey_c(tuple(p), tuple(q), r, 0.5)

    def set_c(value):
        def change(rep):
            rep["c_exact"] = rep["c_quadrature"] = value
            rep["kappa_bound"] = 1.0 - math.log(value) / r
        return change

    expect("Conrey's c", const_op, edited(out, set_c(c)), True)
    expect("c off by 1e-6", const_op, edited(out, set_c(c * (1.0 + 1e-6))), False)

    def nudge(rep):
        rep["l"]["re"] += 1e-8 * abs(complex(rep["l"]["re"], rep["l"]["im"]))

    for q, index, sigma in ((5, 1, 2.0), (37, 20, 0.5)):  # right of the strip, and on it
        s = complex(sigma, workloads.LFUN_T)
        argv = ["lfun", "--q", str(q), "--index", str(index), "--s", f"{sigma!r}+{workloads.LFUN_T!r}j"]
        lfun_op = workloads.Op("lfun", f"q={q},i={index},s={s:g}", ("cli", argv), {"q": q, "index": index, "s": s})
        out = lfun_op.call()
        expect(f"L({s:g}) mod {q}", lfun_op, out, True)
        expect(f"L({s:g}) mod {q} off by 1e-8", lfun_op, edited(out, nudge), False)

    def scale(rep):
        rep["numeric_moment"] *= 1.0 + 1e-6

    for moment_op in workloads.build("moment", 0):
        if moment_op.key == "T=2000":
            continue  # the same code as T=1000 at twice the cost
        out = moment_op.call()
        expect(f"the moment at {moment_op.key}", moment_op, out, True)
        expect(f"a moment at {moment_op.key} off by 1e-6", moment_op, edited(out, scale), False)
    return results


def run_checks() -> int:
    import critline  # noqa: F401

    results = _mutations()
    for what, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
    bad = sum(not ok for _, ok in results)
    print(f"{len(results) - bad} of {len(results)} behaved as expected")
    return 1 if bad else 0


def _quartile_spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_compare() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report, problems = {}, []
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[] for _ in range(SETS)]
        for i in range(RUNS):
            for k in range(SETS):  # alternate the sets so drift hits both alike
                seed = 1 + k * RUNS + i
                result = _one_run(workload, seed, spec["run_seconds"])
                sets[k].append(result)
                print(f"{workload} set {k + 1} seed {seed}: correct {result['correct']} "
                      f"failed {result['failed']}/{result['attempted']} "
                      + " ".join(f"{m}={v['value']:.4f}" for m, v in result["metrics"].items()), flush=True)
        entry = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            spreads = [_quartile_spread(v) for v in values]
            medians = [statistics.median(v) for v in values]
            entry[name] = {"medians": medians, "spreads": spreads, "bound": bound}
            for k, spread in enumerate(spreads):
                if spread > bound:
                    problems.append(f"{workload} {name} set {k + 1}: spread {spread:.3f} > bound {bound}")
                elif spread > bound / 3.0:
                    print(f"note: {workload} {name} set {k + 1}: spread {spread:.3f} above a third of {bound}")
            if medians[1] > medians[0] * (1.0 + bound):
                problems.append(f"{workload} {name}: second median {medians[1]:.4g} worse than "
                                f"{medians[0]:.4g} by more than {bound}")
            print(f"{workload} {name}: medians {', '.join(f'{m:.4g}' for m in medians)}, "
                  f"spreads {', '.join(f'{s:.3f}' for s in spreads)} (bound {bound})", flush=True)
        shares = {(r["failed"], r["attempted"]) for runs in sets for r in runs}
        ratios = {f / a for f, a in shares}
        entry["failed_share"] = sorted(ratios)
        if len(ratios) != 1:
            problems.append(f"{workload}: failed share differs between runs: {sorted(shares)}")
        if not all(r["correct"] for runs in sets for r in runs):
            problems.append(f"{workload}: a run reported correct false")
        report[workload] = entry
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "compare.json").write_text(json.dumps(report, indent=2) + "\n")
    for line in problems:
        print(f"PROBLEM {line}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("checks")
    sub.add_parser("compare")
    args = parser.parse_args()
    return run_checks() if args.command == "checks" else run_compare()


if __name__ == "__main__":
    sys.exit(main())
