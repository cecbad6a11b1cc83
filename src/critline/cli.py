"""Command-line front door: subcommands over the numeric modules, a flat
key=value config format, and deterministic JSON/CSV/text output.

Each request makes one document: the report written as JSON in one walk
(_dump_json).  --format text and csv are layouts of that document, read
back with every number kept as its JSON text, so all three print the same
digits; csv takes a tabular command's rows from the list _COLUMNS names.

Flags override config-file values; unknown keys are rejected rather than
ignored.  Every range check is the library's.  Exit codes: 0 success;
2 usage error (text that does not parse, a missing key, an unreadable
--config or unwritable --output, csv for a command without a table, a
LevinsonParams or SearchSpace refusal);
1 anything else the library refuses, with its own error code and message.
Each command imports what it runs when it runs; parsing needs levinson alone.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

from . import levinson
from .errors import ConfigError, ConstraintError, CritlineError


@dataclass(frozen=True)
class RunConfig:
    command: str
    parameters: dict
    output_format: str = "json"
    output_path: str | None = None


def _parse_real(text: str) -> float:
    """A finite float: nan and +-inf are refused like malformed text."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_poly(text: str) -> levinson.Polynomial:
    """Ascending coefficients separated by commas, brackets optional."""
    return levinson.Polynomial(_parse_real(tok) for tok in text.replace("[", "").replace("]", "").split(","))


def _parse_complex(text: str) -> complex:
    """A finite complex number, with i or j as the imaginary unit."""
    value = complex(text.replace(" ", "").replace("i", "j"))
    if not cmath.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


# per-command parameter schema: name -> (converter, default text); a None
# default means the caller must supply a value
_SCHEMAS: dict[str, dict] = {
    "zeta": {"s": (_parse_complex, None)},
    "zeros": {"tmin": (_parse_real, "0"), "tmax": (_parse_real, None), "step": (_parse_real, "0.05")},
    "chars": {"q": (int, None)},
    "lfun": {"q": (int, None), "index": (int, "0"), "s": (_parse_complex, None)},
    "psi": {"x": (_parse_real, None)},
    "constant": {
        "P": (_parse_poly, "0,1"),
        "Q": (_parse_poly, "1,-1"),
        "R": (_parse_real, "1.3"),
        "theta": (_parse_real, "0.5"),
    },
    "optimize": {
        "p-degree": (int, "1"),
        "q-degree": (int, "1"),
        "theta": (_parse_real, "0.5"),
        "r-min": (_parse_real, "0.5"),
        "r-max": (_parse_real, "2.5"),
        "restarts": (int, "8"),  # both accepted and unused: perfbench/workloads.py still sends them
        "seed": (int, "0"),
    },
    "moment": {
        "T": (_parse_real, "5000"),
        "theta": (_parse_real, "0.5"),
        "R": (_parse_real, "1.3"),
        "P": (_parse_poly, "0,1"),
        "Q": (_parse_poly, "1,-1"),
        "step": (_parse_real, "0"),
    },
    "registry": {},
}
# the tabular commands, the only ones with csv output: the list in the
# document that holds the rows, and the columns
_COLUMNS = {"zeros": ("zeros", ("zero",)), "chars": ("characters", ("index", "conductor", "parity", "primitive"))}


def _read_config_file(path: str) -> dict:
    try:
        fh = open(path, errors="replace")  # a file that is not text fails below, as malformed lines
    except OSError as exc:
        raise ConfigError(f"cannot read --config {path!r}: {exc.strerror}")
    out = {}
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _keys_help() -> str:
    """Every command's keys, read from _SCHEMAS; a * marks a required one."""
    lines = ["keys, as --key VALUE or as key = value lines in a --config file (* required):"]
    for command, schema in _SCHEMAS.items():
        keys = " ".join(f"--{key}" + "*" * (default is None) for key, (_, default) in schema.items())
        lines.append(f"  {command:<10} {keys or '(none)'}")
    return "\n".join(lines + ["", "optimize: --p-degree bounds the degree of P; --q-degree d bounds the degree",
                              "of Q, which is searched over ceil(d/2) odd-symmetric terms (1-2x)^(2j-1) - 1.",
                              "The search is deterministic: --restarts and --seed are accepted and have no effect."])


_PARSER = argparse.ArgumentParser(
    prog="critline", epilog=_keys_help(), formatter_class=argparse.RawDescriptionHelpFormatter)
_PARSER.add_argument("command", choices=_SCHEMAS)
_PARSER.add_argument("--config", default=None)
_PARSER.add_argument("--format", choices=("json", "csv", "text"), default="json")
_PARSER.add_argument("--output", default=None)


def parse_config(argv: list[str]) -> RunConfig:
    known, rest = _PARSER.parse_known_args(argv)
    schema = _SCHEMAS[known.command]
    if known.format == "csv" and known.command not in _COLUMNS:
        raise ConfigError(f"csv output is only available for tabular commands: {', '.join(_COLUMNS)}")
    if known.output is not None:  # refused before anything is computed
        directory = os.path.dirname(os.path.abspath(known.output))
        if os.path.isdir(known.output) or not os.access(directory, os.W_OK):
            raise ConfigError(f"--output {known.output!r} is not a file in a writable directory")

    raw: dict[str, str] = {}
    if known.config:
        raw.update(_read_config_file(known.config))
    keys, values = rest[::2], rest[1::2]  # what argparse left, in order: --key value pairs
    if len(keys) != len(values) or not all(k.startswith("--") for k in keys) or any(v.startswith("--") for v in values):
        raise ConfigError(f"expected --key value pairs, got {' '.join(rest)!r}")
    raw.update(zip((k[2:] for k in keys), values))

    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys for {known.command}: {sorted(unknown)}")
    params = {}
    for name, (conv, default) in schema.items():
        text = raw.get(name, default)
        if text is None:
            raise ConfigError(f"missing required parameter {name} for {known.command}")
        try:
            params[name] = conv(text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {name}: {text!r} ({exc})")
    if known.command in ("constant", "moment"):
        # LevinsonParams enforces P(0)=0, P(1)=1, Q(0)=1, R > 0 and 0 < theta <= 4/7
        params["levinson"] = levinson.LevinsonParams(params["P"], params["Q"], params["R"], params["theta"])
    elif known.command == "optimize":
        from . import optimizer
        # SearchSpace checks the degrees, the R range and theta
        params["space"] = optimizer.SearchSpace(
            params["p-degree"], params["q-degree"], (params["r-min"], params["r-max"]), params["theta"])
    return RunConfig(known.command, params, known.format, known.output)


def _fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.17g}"


_quote = json.encoder.encode_basestring_ascii  # the C encoder behind json.dumps(str)


def _dump_json(obj) -> str:
    """The one converter of a report: JSON text in one walk, with every float
    at 17 significant digits; JSON has no nan or inf, so non-finite floats
    are written as null."""
    if obj is None or (isinstance(obj, float) and not math.isfinite(obj)):
        return "null"
    if isinstance(obj, (int, float)):  # bool included
        return _fmt_number(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, complex):
        return f'{{"re": {_dump_json(obj.real)}, "im": {_dump_json(obj.imag)}}}'
    if isinstance(obj, levinson.Polynomial):
        obj = obj.coefficients
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_dump_json, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_quote(str(k))}: {_dump_json(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"unserializable {type(obj)}")


def _dump_csv(doc: dict, command: str) -> str:
    """The rows of a tabular command's document; a row is an object or a
    number that fills the one column."""
    key, columns = _COLUMNS[command]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, quoting=csv.QUOTE_MINIMAL)
    writer.writeheader()
    for row in doc[key]:
        row = row if isinstance(row, dict) else {columns[0]: row}
        writer.writerow({k: _fmt_number(v) if isinstance(v, bool) else v for k, v in row.items()})
    return buf.getvalue()


def _params_json(params: levinson.LevinsonParams) -> dict:
    return {"P": params.p_poly, "Q": params.q_poly, "R": params.r_shift, "theta": params.theta}


def _run_command(config: RunConfig):
    """The report of one request; each branch imports its module."""
    p = config.parameters
    if config.command == "zeta":
        from . import zeta
        return {"s": p["s"], "zeta": zeta.zeta(p["s"])}
    if config.command == "zeros":
        from . import zeta
        return zeta.count_critical_zeros(p["tmin"], p["tmax"], p["step"])
    if config.command == "chars":
        from . import dirichlet
        table = dirichlet.character_table(p["q"])
        rows = [
            {"index": index, "conductor": f, "parity": parity, "primitive": f == p["q"]}
            for index, (f, parity) in enumerate(
                zip(table.conductors.tolist(), table.parities.tolist())
            )
        ]
        return {"modulus": p["q"], "count": len(rows), "characters": rows}
    if config.command == "lfun":
        from . import dirichlet
        chi = dirichlet.character(p["q"], p["index"])
        return {"q": p["q"], "index": p["index"], "s": p["s"], "l": dirichlet.l_function(p["s"], chi)}
    if config.command == "psi":
        from . import arithmetic
        value = arithmetic.chebyshev_psi(p["x"])
        return {"x": p["x"], "psi": value, "ratio": value / p["x"] if p["x"] else 0.0}
    if config.command == "constant":
        c_exact = levinson.c_constant_exact(p["levinson"])
        kappa = levinson.kappa_lower_bound(c_exact, p["R"])  # a refused c never reaches the quadrature
        report = {
            "c_exact": c_exact,
            "c_quadrature": levinson.c_constant_quadrature(p["levinson"]),
            "kappa_bound": kappa,
            "params": _params_json(p["levinson"]),
        }
        # the published claim belongs to the baseline tuple (at theta = 1/2) only
        base = levinson.published_tuples()[0]
        if p["levinson"] == levinson.LevinsonParams(base.p_poly, base.q_poly, base.r_shift, 0.5):
            report["published_claim"] = {"c": base.claimed_c, "kappa": base.claimed_bound}
        return report
    if config.command == "optimize":
        from . import optimizer
        rep = optimizer.optimize_kappa(p["space"])
        return {
            "best_kappa": rep.best_kappa,
            "best_params": _params_json(rep.best_params),
            "evaluations": rep.evaluations,
            "converged": rep.converged,
        }
    if config.command == "moment":
        from . import moment
        return moment.mollified_moment_numeric(p["levinson"], p["T"], p["step"])
    if config.command == "registry":
        return {"tuples": levinson.published_tuples()}


def _render_text(o, indent: int = 0) -> str:
    """The loaded document as indented key: value lines.  Each number prints
    as its JSON text, so a non-finite float would print None (JSON null);
    no report holds one, since c, kappa and the moment are refused before
    they overflow and psi at x = 0 has ratio 0."""
    pad = "  " * indent
    if isinstance(o, dict):
        return "\n".join(f"{pad}{k}: " + _render_text(v, indent + 1).lstrip() if not isinstance(v, (dict, list))
                         else f"{pad}{k}:\n" + _render_text(v, indent + 1) for k, v in o.items())
    if isinstance(o, list):  # YAML-style items: "- " in place of each item's first indent
        return "\n".join(f"{pad}- " + _render_text(v, indent + 1).lstrip() for v in o) or f"{pad}(empty)"
    return f"{pad}{o}"


def _write_output(text: str, path: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
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
        report = _run_command(config)
    except CritlineError as exc:
        if config.output_format == "json":
            _write_output(_dump_json({"error": exc.code, "message": str(exc)}), config.output_path)
        else:
            sys.stderr.write(f"error [{exc.code}]: {exc}\n")
        return 1
    text = _dump_json(report)
    if config.output_format != "json":
        doc = json.loads(text, parse_int=str, parse_float=str)  # each number keeps its JSON text
        text = _dump_csv(doc, config.command) if config.output_format == "csv" else _render_text(doc)
    _write_output(text, config.output_path)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except (ConfigError, ConstraintError) as exc:
        sys.stderr.write(f"error [{exc.code}]: {exc}\n")
        return 2
    except SystemExit as exc:
        return 2 if exc.code else 0
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
