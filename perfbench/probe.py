"""Set-up probe: in this fresh interpreter, time ``import critline`` and the
workload's warm-up request.  Prints one JSON line.

    python3 perfbench/probe.py --workload moment [--trace]

With ``--trace`` the warm-up runs under the span tracer and the line also
carries the set-up layers: the default sieve build and its table size.
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402  (standard library only, like workloads)
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    start = perf_counter()
    import critline  # noqa: F401

    imported = perf_counter()
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    argv = workloads.WARMUP[args.workload]
    code, _ = workloads.cli_request(argv)
    done = perf_counter()
    tracer.uninstall()
    if code != 0:
        sys.stderr.write(f"warm-up request {argv} exited with {code}\n")
        return 1
    result = {"import_s": imported - start, "setup_s": done - start}
    if args.trace:
        sieve_calls = [i for i, name in enumerate(tracer.names) if name == "arithmetic.get_sieve"]
        result["arithmetic.sieve_build_s"] = tracer.summary().inclusive_s("arithmetic.get_sieve")
        result["arithmetic.sieve_mb"] = 8e-6 * max((tracer.call_work(i)[1] for i in sieve_calls), default=0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
