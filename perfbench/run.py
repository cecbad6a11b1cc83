"""critline benchmark: run one workload for a fixed time, check every output
independently and print its metrics.

    python3 perfbench/run.py --workload moment --seed 1 --seconds 16 --trace 0

One client in this process sends each request only after the previous one
returned (a closed loop), pass after pass over the workload's operations,
until the passes' request times add up to ``--seconds`` and at least five
passes are done.  Fresh interpreters that time the set-up alternate with the
first passes.  Outputs are checked after the timed passes.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The traced run times half its passes untraced
and half traced, and reports the difference as ``trace.overhead_s``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # one BLAS thread: steadier figures on a shared 2-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7  # fresh interpreters per run; setup_s is their median
MIN_PASSES = 5  # on the longest passes (pointwise, 6 s) a median of three was too unsteady
TRACE_MIN_PASSES = 2  # each half of a traced run
PROBE_TIMEOUT_S = 120


@dataclass
class Pass:
    times: list[float]
    outputs: list

    @property
    def busy_s(self) -> float:
        return sum(self.times)


def run_pass(ops) -> Pass:
    """One pass over the operations."""
    times, outputs = [], []
    for op in ops:
        t0 = perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed request is counted, not fatal
            out = workloads.OpError(f"{type(exc).__name__}: {exc}")
        times.append(perf_counter() - t0)
        outputs.append(out)
    return Pass(times, outputs)


def run_passes(ops, seconds: float, min_passes: int) -> list[Pass]:
    passes = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        passes.append(run_pass(ops))
    return passes


def probe(workload: str, trace: bool) -> dict:
    """One set-up probe's figures."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", workload] + (["--trace"] if trace else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def kind_seconds(ops, passes: list[Pass]) -> dict[str, float]:
    """Median over passes of the seconds each per-kind metric spent."""
    names = sorted({workloads.KIND_METRIC[op.kind] for op in ops})
    per_pass = []
    for p in passes:
        acc = dict.fromkeys(names, 0.0)
        for op, t in zip(ops, p.times):
            acc[workloads.KIND_METRIC[op.kind]] += t
        per_pass.append(acc)
    return {name: statistics.median(acc[name] for acc in per_pass) for name in names}


def verdicts(checker, ops, passes: list[Pass]) -> list[list]:
    """Per pass and operation: None, or (reason, known fault or None).

    Each output is checked once; a later pass that repeats the first pass's
    output shares its verdict.  ``optimize`` must repeat it exactly.
    """
    first = [checker.check(op, out) for op, out in zip(ops, passes[0].outputs)]
    table = [first]
    for p in passes[1:]:
        row = []
        for i, (op, out) in enumerate(zip(ops, p.outputs)):
            if out == passes[0].outputs[i]:
                row.append(first[i])
            elif op.kind == "optimize":
                row.append(("output differs from the first pass", None))
            else:
                row.append(checker.check(op, out))
        table.append(row)
    return table


def layer_metrics(summary, ops, outputs) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    s = summary

    def incl(*names):
        return s.inclusive_s(*names)

    def reported(kind, key):
        return sum(workloads.loads(out[1])[key] for op, out in zip(ops, outputs)
                   if op.kind == kind and isinstance(out, tuple) and out[0] == 0)

    line_points, line_terms = s.work.get("zeta.zeta_line", (0, 0))
    line_s = incl("zeta.zeta_line")
    evaluations = reported("optimize", "evaluations")
    optimize_s = incl("optimizer.optimize_kappa")
    return {
        "arithmetic.psi_s": incl("arithmetic.chebyshev_psi"),
        "special.incgamma_calls": s.count.get("special.upper_incomplete_gamma", 0),
        "special.incgamma_s": incl("special.upper_incomplete_gamma"),
        "zeta.line_calls": s.count.get("zeta.zeta_line", 0),
        "zeta.line_s": line_s,
        "zeta.line_points": line_points,
        "zeta.line_terms": line_terms,
        "zeta.line_terms_per_s": line_terms / line_s if line_s > 0 else 0.0,
        "zeta.scalar_calls": s.count.get("zeta.zeta", 0),
        "zeta.scalar_s": incl("zeta.zeta"),
        "zeta.derivative_calls": s.count.get("zeta.zeta_derivative", 0),
        "zeta.derivative_s": incl("zeta.zeta_derivative"),
        "zeta.afe_s": incl("zeta.afe_pair"),
        "dirichlet.enumerate_s": incl("dirichlet.enumerate_characters"),
        "dirichlet.gauss_s": incl("dirichlet.gauss_sum"),
        "dirichlet.character_s": s.prefix_inclusive_s("dirichlet.DirichletCharacter."),
        "dirichlet.lfun_calls": s.count.get("dirichlet.l_function", 0),
        "dirichlet.lfun_s": incl("dirichlet.l_function"),
        "mollifier.coeff_s": incl("mollifier.mollifier_coefficients"),
        "mollifier.line_s": incl("mollifier.mollifier_line"),
        "mollifier.line_terms": s.work.get("mollifier.mollifier_line", (0, 0))[1],
        "levinson.c_exact_calls": s.count.get("levinson.c_constant_exact", 0),
        "levinson.c_exact_s": incl("levinson.c_constant_exact"),
        "levinson.c_quad_s": incl("levinson.c_constant_quadrature"),
        "optimizer.evaluations": evaluations,
        "optimizer.self_s": s.self_s.get("optimizer.optimize_kappa", 0.0),
        "optimizer.evals_per_s": evaluations / optimize_s if optimize_s > 0 else 0.0,
        "moment.self_s": s.self_s.get("moment.mollified_moment_numeric", 0.0),
        "moment.weight_s": incl("moment.smooth_weight", "moment.w_hat_zero"),
        "moment.grid_points": reported("moment", "grid_points"),
        "cli.self_s": s.module_self_s("cli"),
        "cli.requests": s.count.get("cli.main", 0),
    }


def median_dict(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def measure(args, ops) -> tuple[dict, list[Pass]]:
    """Untraced run: the end-to-end metrics.  Set-up probes and passes
    alternate, so both sample the machine's drift over the whole run; the
    passes take ``--seconds`` between them."""
    workloads.cli_request(workloads.WARMUP[args.workload])
    probes, passes = [], []

    def more_passes():
        return len(passes) < MIN_PASSES or sum(p.busy_s for p in passes) < args.seconds

    while len(probes) < SETUP_RUNS or more_passes():
        if len(probes) < SETUP_RUNS:
            probes.append(probe(args.workload, False))
        if more_passes():
            passes.append(run_pass(ops))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    metrics = {
        "setup_s": statistics.median(f["setup_s"] for f in probes),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "pass_s": statistics.median(p.busy_s for p in passes),
    }
    for name, value in kind_seconds(ops, passes).items():
        print(f"{name} {value!r} s  (per pass, median of {len(passes)})")
    print("setup_s samples: " + ", ".join(f"{f['setup_s']:.4f}" for f in probes))
    print("pass_s samples: " + ", ".join(f"{p.busy_s:.4f}" for p in passes))
    return metrics, passes


def measure_traced(args, ops) -> tuple[dict, list[Pass]]:
    """Traced run: untraced passes, then traced passes; the per-layer metrics."""
    setup = probe(args.workload, True)
    workloads.cli_request(workloads.WARMUP[args.workload])
    half = args.seconds / 2.0
    plain = run_passes(ops, half, TRACE_MIN_PASSES)
    tracer = tracing.Tracer()
    tracer.install()
    traced, marks = [], []
    start = perf_counter()
    try:
        while len(traced) < TRACE_MIN_PASSES or perf_counter() - start < half:
            marks.append(tracer.mark())
            traced.append(run_pass(ops))
    finally:
        tracer.uninstall()
    marks.append(tracer.mark())
    rows = [layer_metrics(tracing.SpanSummary(tracer, a, b), ops, p.outputs)
            for a, b, p in zip(marks, marks[1:], traced)]
    metrics = median_dict(rows)
    metrics["cli.import_s"] = setup["import_s"]
    metrics["arithmetic.sieve_build_s"] = setup["arithmetic.sieve_build_s"]
    metrics["arithmetic.sieve_mb"] = setup["arithmetic.sieve_mb"]
    metrics["trace.overhead_s"] = (statistics.median(p.busy_s for p in traced)
                                   - statistics.median(p.busy_s for p in plain))
    kinds = kind_seconds(ops, plain)
    for name in set(workloads.KIND_METRIC.values()):
        metrics[f"request.{name}"] = kinds.get(name, 0.0)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
    tracer.write(spans_path)
    print(f"{len(tracer.names)} spans of {len(traced)} traced passes written to {spans_path.relative_to(ROOT)}")
    return metrics, plain + traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import critline
    except ImportError as exc:
        sys.stderr.write(f"cannot import critline from {src}: {exc}\n")
        return 2
    if not Path(critline.__file__).resolve().is_relative_to(src.resolve()):
        sys.stderr.write(f"critline was imported from {critline.__file__}, not from {src}\n")
        return 2

    ops = workloads.build(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations per pass, "
          f"BLAS threads {BLAS_THREADS}, closed loop with one client")
    values, passes = (measure_traced if args.trace else measure)(args, ops)

    import checks  # after the timed passes: mpmath stays out of peak_rss_mb

    checker = checks.Checker(args.seed, ops)
    table = verdicts(checker, ops, passes)
    failures = [(op, v) for row in table for op, v in zip(ops, row) if v is not None]
    unexplained = [(op, v) for op, v in failures if v[1] is None]
    for (op, (reason, fault)) in {(op.kind, op.key): (op, v) for op, v in failures}.values():
        label = f"known fault {fault}" if fault else "UNEXPLAINED"
        print(f"FAILED {op.kind} {op.key} [{label}]: {reason}")
    for fault in sorted({v[1] for _, v in failures if v[1]}):
        print(f"known fault {fault}: {checks.KNOWN_FAULTS[fault]}")

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, entry in metrics.items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    attempted = len(ops) * len(passes)
    print(f"passes {len(passes)}, attempted {attempted}, failed {len(failures)}")
    print(json.dumps({"correct": not unexplained, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
