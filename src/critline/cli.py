"""Command-line front door: subcommands over the numeric modules, a flat
key=value config format, and deterministic JSON/CSV/text output.

Flags override config-file values; unknown keys are rejected rather than
ignored.  Exit codes: 0 success, 1 computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import arithmetic, dirichlet, levinson, moment, mollifier, optimizer
from .zeta import count_critical_zeros, zeta as zeta_eval
from .errors import ConfigError, ConstraintError, CritlineError, DomainError

COMMANDS = ("zeta", "zeros", "chars", "lfun", "psi", "constant", "optimize", "moment", "registry")


@dataclass(frozen=True)
class RunConfig:
    command: str
    parameters: dict
    output_format: str = "json"
    output_path: str | None = None


def _parse_poly(text: str, name: str) -> mollifier.Polynomial:
    try:
        coeffs = [float(tok) for tok in text.replace("[", "").replace("]", "").split(",")]
    except ValueError as exc:
        raise ConfigError(f"malformed coefficient list for {name}: {text!r} ({exc})")
    return mollifier.Polynomial(coeffs)


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise ConfigError(f"malformed complex number {text!r}")


# per-command parameter schema: name -> (converter, default); REQUIRED means
# the caller must supply a value
_REQUIRED = object()

_SCHEMAS: dict[str, dict] = {
    "zeta": {"s": (_parse_complex, _REQUIRED)},
    "zeros": {"tmin": (float, 0.0), "tmax": (float, _REQUIRED), "step": (float, 0.05)},
    "chars": {"q": (int, _REQUIRED)},
    "lfun": {"q": (int, _REQUIRED), "index": (int, 0), "s": (_parse_complex, _REQUIRED)},
    "psi": {"x": (float, _REQUIRED)},
    "constant": {
        "P": (str, "0,1"),
        "Q": (str, "1,-1"),
        "R": (float, 1.3),
        "theta": (float, 0.5),
    },
    "optimize": {
        "p-degree": (int, 1),
        "q-degree": (int, 1),
        "theta": (float, 0.5),
        "r-min": (float, 0.5),
        "r-max": (float, 2.5),
        "restarts": (int, 8),
        "seed": (int, 0),
    },
    "moment": {
        "T": (float, 5000.0),
        "theta": (float, 0.5),
        "R": (float, 1.3),
        "P": (str, "0,1"),
        "Q": (str, "1,-1"),
        "step": (float, 0.0),
    },
    "registry": {},
}


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


_PARSER = argparse.ArgumentParser(prog="critline", add_help=True, epilog=(
    "optimize: --p-degree bounds the degree of P; --q-degree d bounds the degree of Q, "
    "which is searched over ceil(d/2) odd-symmetric terms (1-2x)^(2j-1) - 1."))
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--config", default=None)
_PARSER.add_argument("--format", choices=("json", "csv", "text"), default="json")
_PARSER.add_argument("--output", default=None)


def parse_config(argv: list[str]) -> RunConfig:
    known, rest = _PARSER.parse_known_args(argv)
    schema = _SCHEMAS[known.command]

    raw: dict[str, str] = {}
    if known.config:
        raw.update(_read_config_file(known.config))
    key = None
    for tok in rest:
        if tok.startswith("--"):
            if key is not None:
                raise ConfigError(f"flag --{key} is missing a value")
            key = tok[2:]
        elif key is not None:
            raw[key] = tok
            key = None
        else:
            raise ConfigError(f"unexpected token {tok!r}")
    if key is not None:
        raise ConfigError(f"flag --{key} is missing a value")

    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys for {known.command}: {sorted(unknown)}")
    params = {}
    for name, (conv, default) in schema.items():
        if name in raw:
            try:
                params[name] = conv(raw[name])
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {name}: {raw[name]!r} ({exc})")
        elif default is _REQUIRED:
            raise ConfigError(f"missing required parameter {name} for {known.command}")
        else:
            params[name] = default
    _validate(known.command, params)
    return RunConfig(known.command, params, known.format, known.output)


def _validate(command: str, params: dict):
    if command == "zeros":
        if params["step"] <= 0 or params["tmax"] < params["tmin"] or params["tmin"] < 0:
            raise ConfigError("need 0 <= tmin <= tmax and step > 0")
    if command == "chars" or command == "lfun":
        if params["q"] < 1:
            raise ConfigError("modulus must be positive")
    if command == "psi" and not 0 <= params["x"] <= arithmetic.DEFAULT_SIEVE_LIMIT:
        raise ConfigError("x outside sieve range")
    if command in ("constant", "moment"):
        if params["R"] <= 0:
            raise ConfigError("R must be positive")
        # LevinsonParams enforces P(0)=0, P(1)=1, Q(0)=1 and 0 < theta <= 4/7
        params["levinson"] = levinson.LevinsonParams(
            _parse_poly(params["P"], "P"), _parse_poly(params["Q"], "Q"), params["R"], params["theta"]
        )
    if command == "optimize":
        # SearchSpace checks the degrees, the R range, theta and the restarts
        params["space"] = optimizer.SearchSpace(
            params["p-degree"],
            params["q-degree"],
            (params["r-min"], params["r-max"]),
            params["theta"],
            params["restarts"],
            params["seed"],
        )


def _fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.17g}"


def _to_jsonable(obj):
    if obj is None or isinstance(obj, (int, float, str)):  # bool is an int
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _dump_json(obj) -> str:
    """JSON text with every float at 17 significant digits; JSON has no
    nan or inf, so non-finite floats are written as null."""
    quote = json.encoder.encode_basestring_ascii  # the C encoder behind json.dumps(str)

    def emit(o) -> str:
        if o is None or (isinstance(o, float) and not math.isfinite(o)):
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, float)):
            return _fmt_number(o)
        if isinstance(o, str):
            return quote(o)
        if isinstance(o, list):
            return "[" + ", ".join(emit(v) for v in o) + "]"
        if isinstance(o, dict):
            return "{" + ", ".join(f"{quote(k)}: {emit(v)}" for k, v in o.items()) + "}"
        raise TypeError(f"unserializable {type(o)}")

    return emit(_to_jsonable(obj))


def _dump_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    if not rows:
        return ""
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), quoting=csv.QUOTE_MINIMAL)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt_number(v) if isinstance(v, (int, float)) else v for k, v in row.items()})
    return buf.getvalue()


def _run_command(config: RunConfig):
    """Returns (report_object, csv_rows or None)."""
    p = config.parameters
    if config.command == "zeta":
        value = zeta_eval(p["s"])
        return {"s": p["s"], "zeta": value}, None
    if config.command == "zeros":
        rep = count_critical_zeros(p["tmin"], p["tmax"], p["step"])
        rows = [{"zero": z} for z in rep.zeros]
        return rep, rows
    if config.command == "chars":
        table = dirichlet.character_table(p["q"])
        rows = [
            {"index": index, "conductor": f, "parity": parity, "primitive": f == p["q"]}
            for index, (f, parity) in enumerate(
                zip(table.conductors.tolist(), table.parities.tolist())
            )
        ]
        return {"modulus": p["q"], "count": len(rows), "characters": rows}, rows
    if config.command == "lfun":
        try:
            chi = dirichlet.character(p["q"], p["index"])
        except DomainError as exc:  # q >= 1 is checked already: the index is out of range
            raise ConfigError(str(exc))
        value = dirichlet.l_function(p["s"], chi)
        return {"q": p["q"], "index": p["index"], "s": p["s"], "l": value}, None
    if config.command == "psi":
        value = arithmetic.chebyshev_psi(p["x"])
        return {"x": p["x"], "psi": value, "ratio": value / p["x"] if p["x"] else 0.0}, None
    if config.command == "constant":
        c_exact = levinson.c_constant_exact(p["levinson"])
        c_quad = levinson.c_constant_quadrature(p["levinson"], 1e-10)
        report = {
            "c_exact": c_exact,
            "c_quadrature": c_quad,
            "kappa_bound": levinson.kappa_lower_bound(c_exact, p["R"]),
            "params": {"P": p["P"], "Q": p["Q"], "R": p["R"], "theta": p["theta"]},
        }
        # the published claim belongs to the baseline tuple (at theta = 1/2) only
        base = levinson.published_tuples()[0]
        if p["levinson"] == levinson.LevinsonParams(base.p_poly, base.q_poly, base.r_shift, 0.5):
            report["published_claim"] = {"c": base.claimed_c, "kappa": base.claimed_bound}
            note = levinson.discrepancy_note(c_exact, base.claimed_c)
            if note:
                report["discrepancy_note"] = note
        return report, None
    if config.command == "optimize":
        rep = optimizer.optimize_kappa(p["space"])
        return {
            "best_kappa": rep.best_kappa,
            "best_params": {
                "P": list(rep.best_params.p_poly.coefficients),
                "Q": list(rep.best_params.q_poly.coefficients),
                "R": rep.best_params.r_shift,
                "theta": rep.best_params.theta,
            },
            "evaluations": rep.evaluations,
            "restart_trace": [list(pair) for pair in rep.restart_trace],
            "converged": rep.converged,
        }, None
    if config.command == "moment":
        return moment.mollified_moment_numeric(p["levinson"], p["T"], p["step"]), None
    if config.command == "registry":
        entries = []
        for t in levinson.published_tuples():
            entries.append(
                {
                    "name": t.name,
                    "source": t.source,
                    "r_shift": t.r_shift,
                    "claimed_bound": t.claimed_bound,
                    "claimed_c": t.claimed_c,
                    "not_reproducible_here": t.not_reproducible_here,
                    "q_poly": list(t.q_poly.coefficients),
                    "p_poly": list(t.p_poly.coefficients) if t.p_poly else None,
                    "p1_poly": list(t.p1_poly.coefficients) if t.p1_poly else None,
                    "p2_poly": list(t.p2_poly.coefficients) if t.p2_poly else None,
                }
            )
        return {"tuples": entries}, None
    raise ConfigError(f"unknown command {config.command}")


def _render_text(obj) -> str:
    data = _to_jsonable(obj)

    def walk(o, indent=0):
        pad = "  " * indent
        if isinstance(o, dict):
            return "\n".join(f"{pad}{k}: " + walk(v, indent + 1).lstrip() if not isinstance(v, (dict, list))
                             else f"{pad}{k}:\n" + walk(v, indent + 1) for k, v in o.items())
        if isinstance(o, list):
            return "\n".join(walk(v, indent) for v in o) or f"{pad}(empty)"
        return f"{pad}{_fmt_number(o) if isinstance(o, (int, float)) and not isinstance(o, bool) else o}"

    return walk(data)


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text + ("\n" if not text.endswith("\n") else ""))
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".critline-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)  # atomic on POSIX
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run(config: RunConfig) -> int:
    try:
        report, rows = _run_command(config)
    except CritlineError as exc:
        if config.output_format == "json":
            _write_output(_dump_json({"error": exc.code, "message": str(exc)}), config.output_path)
        else:
            sys.stderr.write(f"error [{exc.code}]: {exc}\n")
        return 1
    if config.output_format == "csv":
        if rows is None:
            sys.stderr.write("csv output is only available for tabular commands\n")
            return 2
        _write_output(_dump_csv(rows), config.output_path)
    elif config.output_format == "text":
        _write_output(_render_text(report), config.output_path)
    else:
        _write_output(_dump_json(report), config.output_path)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        sys.stderr.write(
            "usage: critline {" + ",".join(COMMANDS) + "} [--config FILE] "
            "[--format json|csv|text] [--output PATH] [--key value ...]\n"
        )
        return 2
    try:
        config = parse_config(argv)
    except (ConfigError, ConstraintError) as exc:
        sys.stderr.write(f"error [{exc.code}]: {exc}\n")
        return 2
    except SystemExit as exc:
        return 2 if exc.code else 0
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
