"""The four benchmark workloads: their requests, warm-up and seeded inputs.

A workload is a fixed list of operations built from the seed.  Every
operation is one request to critline: through ``critline.cli.main`` where a
subcommand exists, otherwise through the public library function.  Library
functions are looked up on their module at call time, so the wrappers the
traced run installs see every call.

This module imports only the standard library at load time: the set-up
probe imports it before it starts timing ``import critline``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import re
from dataclasses import dataclass, field

WORKLOADS = ("moment", "zeros", "kappa", "pointwise")

# request kind -> the per-kind timing it adds to
KIND_METRIC = {
    "moment": "moment_s",
    "zeros_low": "zeros_low_s",
    "zeros_high": "zeros_high_s",
    "optimize": "optimize_s",
    "constant": "constant_s",
    "grid_scan_r": "constant_s",
    "zeta": "zeta_s",
    "zeta_derivative": "zeta_s",
    "lfun": "lfun_s",
    "chars": "lfun_s",
    "gauss": "lfun_s",
    "afe": "afe_s",
    "psi": "psi_s",
}

# warm-up request per workload: pays import-time and lazy one-time work
# (the default factor sieve on moment and pointwise) before any timing
WARMUP = {
    "moment": ["moment", "--T", "100"],
    "zeros": ["zeros", "--tmax", "20"],
    "kappa": ["constant"],
    "pointwise": ["psi", "--x", "1000000"],
}

BASELINE = {"P": (0.0, 1.0), "Q": (1.0, -1.0), "R": 1.3, "theta": 0.5}
R_GRID = tuple(round(0.5 + 0.1 * k, 10) for k in range(21))  # 0.5 .. 2.5
LFUN_T = 10.0
LFUN_MAX_Q = 40
CHARS_MAX_Q = 200
PSI_X = 10_000_000
AFE = {"alpha": 1e-3, "beta": 1e-3, "t": 50.0, "n": 2000}


_BARE = re.compile(r"(?<=[\[,:])(\s*)(-?)(nan|inf)(?=\s*[,\]}])")


def loads(text: str):
    """Parse CLI JSON, reading the bare ``nan``/``inf`` tokens the CLI prints."""

    def literal(m):
        word = "NaN" if m.group(3) == "nan" else "Infinity"
        return m.group(1) + (m.group(2) if word == "Infinity" else "") + word

    return json.loads(_BARE.sub(literal, text))


class OpError:
    """Output of a request that raised instead of returning."""

    def __init__(self, message: str):
        self.message = message

    def __eq__(self, other):
        return isinstance(other, OpError) and other.message == self.message


@dataclass
class Op:
    """One request: ``call()`` returns its raw output (CLI text or a value)."""

    kind: str
    key: str
    target: tuple  # ("cli", argv) or ("lib", function, args)
    params: dict = field(default_factory=dict)

    def call(self):
        if self.target[0] == "cli":
            return cli_request(self.target[1])
        _, function, args = self.target
        return function(*args)


def cli_request(argv: list[str]) -> tuple[int, str]:
    """Run ``critline.cli.main(argv)`` in-process; return (exit code, stdout)."""
    cli = importlib.import_module("critline.cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def gauss_sums(q: int) -> list[complex]:
    """Gauss sums of every character mod q, through the public library."""
    dirichlet = importlib.import_module("critline.dirichlet")
    return [dirichlet.gauss_sum(chi) for chi in dirichlet.enumerate_characters(q)]


def zeta_derivative_request(s: complex, order: int) -> complex:
    return importlib.import_module("critline.zeta").zeta_derivative(s, order)


def afe_request(alpha: float, beta: float, t: float, n: int) -> complex:
    zeta = importlib.import_module("critline.zeta")
    return zeta.afe_pair(zeta.AfeParams(alpha, beta, t, n))


def grid_scan_request(p, q, theta, r_grid):
    mollifier = importlib.import_module("critline.mollifier")
    optimizer = importlib.import_module("critline.optimizer")
    return optimizer.grid_scan_r(mollifier.Polynomial(p), mollifier.Polynomial(q), theta, r_grid)


def _poly_text(coeffs) -> str:
    return ",".join(repr(float(c)) for c in coeffs)


def _complex_text(s: complex) -> str:
    return f"{s.real!r}{s.imag:+.17g}j"


def _moment_ops(rng: random.Random) -> list[Op]:
    # the degree-3 Q varies with the seed; its cost does not (order-3 jets)
    q3 = (1.0, -1.0 + rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    ops = []
    for key, t_scale, q in (("T=1000", 1000.0, BASELINE["Q"]), ("T=2000", 2000.0, BASELINE["Q"]),
                            ("T=1000,deg Q=3", 1000.0, q3)):
        params = {"T": t_scale, "P": BASELINE["P"], "Q": q, "R": BASELINE["R"], "theta": BASELINE["theta"]}
        argv = ["moment", "--T", repr(t_scale), "--P", _poly_text(params["P"]), "--Q", _poly_text(q),
                "--R", repr(params["R"]), "--theta", repr(params["theta"])]
        ops.append(Op("moment", key, ("cli", argv), params))
    return ops


def _zeros_ops() -> list[Op]:
    ops = []
    for kind, lo, hi in (("zeros_low", 0.0, 600.0), ("zeros_high", 5000.0, 5030.0)):
        argv = ["zeros", "--tmin", repr(lo), "--tmax", repr(hi), "--step", "0.05"]
        ops.append(Op(kind, f"[{lo:g},{hi:g}]", ("cli", argv), {"tmin": lo, "tmax": hi}))
    return ops


def registry_tuples() -> list[tuple[str, tuple, tuple, float]]:
    """(name, P, Q, R) for the baseline and the registry tuples.

    The two-piece tuples enter through their main piece P1, the shape that
    satisfies P(0)=0 and P(1)=1.
    """
    levinson = importlib.import_module("critline.levinson")
    out = []
    for t in levinson.published_tuples():
        p = t.p1_poly if t.p1_poly is not None else t.p_poly
        out.append((t.name, p.coefficients, t.q_poly.coefficients, t.r_shift))
    return out


def _kappa_ops() -> list[Op]:
    ops = []
    for d in (1, 2, 3, 4):
        argv = ["optimize", "--p-degree", str(d), "--q-degree", str(d), "--seed", "0", "--restarts", "8"]
        ops.append(Op("optimize", f"({d},{d})", ("cli", argv), {"degree": d}))
    for name, p, q, r in registry_tuples():
        argv = ["constant", "--P", _poly_text(p), "--Q", _poly_text(q), "--R", repr(r), "--theta", "0.5"]
        ops.append(Op("constant", name, ("cli", argv), {"P": p, "Q": q, "R": r, "theta": 0.5}))
    args = (BASELINE["P"], BASELINE["Q"], BASELINE["theta"], R_GRID)
    ops.append(Op("grid_scan_r", "baseline", ("lib", grid_scan_request, args),
                  {"P": BASELINE["P"], "Q": BASELINE["Q"], "theta": BASELINE["theta"], "R": R_GRID}))
    return ops


def _pointwise_ops(rng: random.Random, lfun_characters) -> list[Op]:
    ops = []
    # scattered s: fixed real parts and height bands, seeded position in each band
    for sigma, height in ((-3.5, 12.0), (-1.25, 40.0), (-0.7, 140.0), (0.3, 25.0), (0.75, 90.0),
                          (0.3, 400.0), (1.5, 60.0), (2.5, 33.0), (-2.0, 250.0), (0.9, 700.0)):
        s = complex(sigma, rng.choice((-1.0, 1.0)) * (height + rng.uniform(0.0, 1.0)))
        ops.append(Op("zeta", f"s={s:.6g}", ("cli", ["zeta", "--s", _complex_text(s)]), {"s": s}))
    for sigma, height in ((0.3, 20.0), (0.8, 45.0), (2.0, 30.0), (-0.5, 15.0)):
        s = complex(sigma, height + rng.uniform(0.0, 1.0))
        for order in (1, 2, 3):
            ops.append(Op("zeta_derivative", f"s={s:.6g},k={order}",
                          ("lib", zeta_derivative_request, (s, order)), {"s": s, "order": order}))
    for q, count in lfun_characters:
        for index in range(count):
            for s in (complex(0.5, LFUN_T), complex(2.0, LFUN_T)):
                argv = ["lfun", "--q", str(q), "--index", str(index), "--s", _complex_text(s)]
                ops.append(Op("lfun", f"q={q},i={index},s={s:g}", ("cli", argv), {"q": q, "index": index, "s": s}))
    for q in range(1, CHARS_MAX_Q + 1):
        ops.append(Op("chars", f"q={q}", ("cli", ["chars", "--q", str(q)]), {"q": q}))
        ops.append(Op("gauss", f"q={q}", ("lib", gauss_sums, (q,)), {"q": q}))
    ops.append(Op("psi", f"x={PSI_X}", ("cli", ["psi", "--x", str(PSI_X)]), {"x": PSI_X}))
    ops.append(Op("afe", "t=50,N=2000", ("lib", afe_request,
                                         (AFE["alpha"], AFE["beta"], AFE["t"], AFE["n"])), dict(AFE)))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one pass, in an order that is the same for every
    seed, so that the seed changes no pass's cost."""
    rng = random.Random(seed)
    if workload == "moment":
        ops = _moment_ops(rng)
    elif workload == "zeros":
        ops = _zeros_ops()
    elif workload == "kappa":
        ops = _kappa_ops()
    elif workload == "pointwise":
        dirichlet = importlib.import_module("critline.dirichlet")
        counts = [(q, len(dirichlet.enumerate_characters(q))) for q in range(1, LFUN_MAX_Q + 1)]
        ops = _pointwise_ops(rng, counts)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
