"""CLI parsing, validation, serialization, and exit-code contract."""

import json
import math
import os
import subprocess
import sys

import pytest

import critline.cli
import critline.moment as moment_module
from critline.cli import _SCHEMAS, _dump_json, main, parse_config
from critline.errors import ConfigError, ConstraintError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_baseline_constant(self):
        config = parse_config(
            ["constant", "--P", "0,1", "--Q", "1,-1", "--R", "1.3", "--theta", "0.5"]
        )
        assert config.command == "constant"
        assert config.parameters["R"] == 1.3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(["constant", "--bogus", "1"])

    def test_constraint_named(self):
        with pytest.raises(ConstraintError, match="P\\(0\\)=0"):
            parse_config(["constant", "--P", "1,1"])

    def test_malformed_polynomial(self):
        with pytest.raises(ConfigError):
            parse_config(["constant", "--P", "0,banana"])

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            parse_config(["zeros"])

    @pytest.mark.parametrize(
        "argv, error, message",
        [
            (("zeros", "--tmax", "10", "--step", "-1"), "domain", "step > 0"),
            (("zeros", "--tmin", "100000", "--tmax", "100001"), "domain", "t_max <= 100000"),
            (("psi", "--x", "-1"), "domain", "x must be nonnegative"),
            (("psi", "--x", "10000001"), "sieve_range", "sieve limit"),
            (("chars", "--q", "0"), "domain", "modulus must be positive"),
        ],
        ids=["negative-step", "past-certified-height", "negative-x", "past-sieve-limit", "zero-modulus"],
    )
    def test_range_validation(self, capsys, argv, error, message):
        # the CLI copies no range check: the library refuses while running
        parse_config(list(argv))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == error
        assert message in payload["message"]

    def test_optimizer_theta_passes_through(self):
        config = parse_config(["optimize", "--theta", "0.5"])
        assert config.parameters["theta"] == 0.5
        assert config.parameters["space"].theta == 0.5

    def test_optimizer_space_rejected_by_its_validator(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--theta", "0.7")
        assert code == 2
        assert "theta must lie in (0, 4/7]" in err
        code, _, err = run_cli(capsys, "optimize", "--p-degree", "0")
        assert code == 2
        assert "degrees must be at least 1" in err

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tmax = 20   # comment\nstep = 0.1\n")
        config = parse_config(["zeros", "--config", str(cfg), "--step", "0.2"])
        assert config.parameters["tmax"] == 20.0
        assert config.parameters["step"] == 0.2

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n")
        with pytest.raises(ConfigError):
            parse_config(["zeros", "--config", str(cfg), "--tmax", "5"])

    def test_config_file_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line without equals\n")
        with pytest.raises(ConfigError):
            parse_config(["zeros", "--config", str(cfg), "--tmax", "5"])

    def test_config_file_missing(self, capsys, tmp_path):
        cfg = str(tmp_path / "absent.cfg")
        code, _, err = run_cli(capsys, "zeros", "--config", cfg, "--tmax", "5")
        assert code == 2
        assert "error [config]" in err and cfg in err

    def test_output_directory_missing(self, capsys, tmp_path):
        target = str(tmp_path / "absent" / "out.json")
        with pytest.raises(ConfigError, match="absent"):
            parse_config(["zeta", "--s", "2", "--output", target])
        code, out, err = run_cli(capsys, "zeta", "--s", "2", "--output", target)
        assert code == 2
        assert out == "" and "error [config]" in err and target in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("zeros", "--tmax"),
            ("zeros", "--tmax", "5", "--step"),
            ("zeros", "--tmax", "--step", "0.1"),
            ("zeros", "5"),
            ("zeros", "--tmax", "5", "6"),
        ],
        ids=["flag-without-value", "last-flag-without-value", "flag-for-value", "bare-value", "extra-value"],
    )
    def test_malformed_flags_refused(self, capsys, argv):
        # what follows the command must alternate --key and value
        with pytest.raises(ConfigError):
            parse_config(list(argv))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and "error [config]" in err

    def test_malformed_flags_named(self):
        with pytest.raises(ConfigError, match="'--tmax --step 0.1'"):
            parse_config(["zeros", "--tmax", "--step", "0.1"])


class TestExitCodes:
    def test_empty_argv_usage(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert "usage" in err

    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "constant", "--P", "1,1")
        assert code == 2
        assert "P(0)=0" in err

    def test_computation_error_json(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--s", "1+0j")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "pole"

    @pytest.mark.parametrize(
        "argv",
        [
            ("zeta", "--s", "nan"),
            ("zeros", "--tmax", "inf"),
            ("zeros", "--tmax", "nan"),
            ("optimize", "--r-max", "inf"),
        ],
    )
    def test_non_finite_input_is_a_usage_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize(
        "argv, exit_code, error",
        [
            (("constant", "--R", "400"), 1, "domain"),
            (("constant", "--R", "354", "--Q", "1,5"), 1, "domain"),
            (("optimize", "--r-max", "400"), 2, "config"),
            (("lfun", "--q", "3", "--index", "1", "--s", "-200+0.5j"), 1, "domain"),
            (("zeta", "--s", "-401"), 1, "domain"),
            (("zeta", "--s", "1e300j"), 1, "domain"),
            (("lfun", "--q", "1", "--s", "0.5+1e300j"), 1, "domain"),
            (("moment", "--T", "1000", "--step", "-0.1"), 1, "domain"),
            (("zeros", "--tmax", "100", "--step", "1e-9"), 1, "domain"),
            (("moment", "--T", "1000", "--step", "1e-7"), 1, "domain"),
            (("lfun", "--q", "5", "--index", "1", "--s", "451.5"), 1, "domain"),
            (("lfun", "--q", "5", "--index", "1", "--s", "-450.5"), 1, "domain"),
        ],
        ids=[
            "constant-R", "constant-c", "optimize-r-max", "lfun-reflection", "zeta-reflection", "zeta-height",
            "lfun-height", "moment-negative-step", "zeros-grid-cap", "moment-grid-cap", "lfun-hurwitz-overflow",
            "lfun-reflected-overflow",
        ],
    )
    def test_overflow_and_height_refused(self, capsys, argv, exit_code, error):
        # each once ended in a traceback or printed null
        code, out, err = run_cli(capsys, *argv)
        assert code == exit_code
        if code == 1:
            assert json.loads(out)["error"] == error
            assert err == ""  # no numpy warning ahead of the JSON error
        else:
            assert f"error [{error}]" in err
        assert "null" not in out

    def test_reflected_refusal_names_the_given_s(self, capsys):
        # L at Re s < 0 is refused from the Hurwitz row at 1 - s, and the
        # message once named only that reflected point
        code, out, _ = run_cli(capsys, "lfun", "--q", "5", "--index", "1", "--s", "-450.5")
        assert code == 1
        assert json.loads(out)["message"].startswith("L(s, chi) at s = (-450.5+0j)")

    @pytest.mark.parametrize("command", ["constant", "moment"])
    def test_zero_r_is_a_usage_error(self, capsys, command):
        # LevinsonParams refuses R = 0 while parsing, before anything is computed
        with pytest.raises(ConstraintError, match="R must be positive"):
            parse_config([command, "--R", "0"])
        code, out, err = run_cli(capsys, command, "--R", "0")
        assert code == 2
        assert out == ""
        assert "error [constraint]: R must be positive" in err

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_benchmark_optimize_argv(self, capsys, degree):
        # the benchmark still sends --seed and --restarts: accepted, no effect
        argv = ["optimize", "--p-degree", str(degree), "--q-degree", str(degree)]
        outputs = []
        for extra in (["--seed", "0", "--restarts", "8"], ["--seed", "0", "--restarts", "8"], []):
            code, out, _ = run_cli(capsys, *argv, *extra)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
        best = json.loads(outputs[0])["best_params"]
        assert best["P"][0] == 0.0 and math.fsum(best["P"]) == 1.0 and best["Q"][0] == 1.0

    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--s", "2+0j")
        assert code == 0
        payload = json.loads(out)
        assert payload["zeta"]["re"] == pytest.approx(math.pi**2 / 6)

    def test_help_lists_every_key(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        listed = {line.split()[0]: line.split()[1:] for line in out.splitlines()
                  if line.startswith("  ") and line.split()[0] in _SCHEMAS}
        assert listed == {
            command: [f"--{key}" + "*" * (default is None) for key, (_, default) in schema.items()] or ["(none)"]
            for command, schema in _SCHEMAS.items()
        }


class TestOutput:
    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--tmax", "30")
        assert code == 0
        payload = json.loads(out)
        assert payload["zero_count"] == 3
        assert json.loads(json.dumps(payload)) == payload

    def test_seventeen_digit_floats(self, capsys):
        _, out, _ = run_cli(capsys, "zeros", "--tmax", "15")
        assert "0.050000000000000003" in out  # 0.05 at 17 significant digits

    def test_non_finite_floats_are_null(self, capsys):
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        code, out, _ = run_cli(capsys, "optimize", "--p-degree", "1", "--q-degree", "1")
        assert code == 0
        assert json.loads(out, parse_constant=reject)["converged"] is True
        assert _dump_json({"a": math.nan, "b": [math.inf, -math.inf]}) == '{"a": null, "b": [null, null]}'

    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run_cli(capsys, "chars", "--q", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,conductor,parity,primitive"
        assert len(lines) == 5

    def test_csv_unavailable_for_scalar(self, capsys):
        code, _, err = run_cli(capsys, "zeta", "--s", "2+0j", "--format", "csv")
        assert code == 2
        assert "tabular" in err

    def test_csv_refused_before_running(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the moment was computed")

        monkeypatch.setattr(moment_module, "mollified_moment_numeric", unreachable)
        with pytest.raises(ConfigError, match="tabular"):
            parse_config(["moment", "--T", "2000", "--format", "csv"])
        code, out, err = run_cli(capsys, "moment", "--T", "2000", "--format", "csv")
        assert code == 2
        assert out == ""
        assert "tabular" in err

    def test_csv_header_of_an_empty_table(self, capsys):
        # no zero below t = 14.13
        code, out, _ = run_cli(capsys, "zeros", "--tmax", "10", "--format", "csv")
        assert code == 0
        assert out == "zero\r\n"

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "psi", "--x", "1000", "--format", "text")
        assert code == 0
        assert "psi:" in out

    def test_atomic_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "zeta", "--s", "2+0j", "--output", str(target))
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["zeta"]["re"] == pytest.approx(1.6449340668482264)
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".critline-")]

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_output_file_ends_like_stdout(self, capsys, tmp_path, fmt):
        # the json and text files once lacked the final newline that stdout has
        argv = ["zeros", "--tmax", "20", "--format", fmt]
        _, out, _ = run_cli(capsys, *argv)
        target = tmp_path / "out"
        code, _, _ = run_cli(capsys, *argv, "--output", str(target))
        assert code == 0
        assert target.read_bytes() == out.encode()


class TestCommands:
    def test_registry(self, capsys):
        code, out, _ = run_cli(capsys, "registry")
        assert code == 0
        payload = json.loads(out)
        names = [t["name"] for t in payload["tuples"]]
        assert names == ["baseline", "two-piece-kappa", "two-piece-kappa-star"]

    def test_constant_reports_claims(self, capsys):
        code, out, _ = run_cli(capsys, "constant")
        assert code == 0
        payload = json.loads(out)
        assert payload["published_claim"]["c"] == 2.35
        assert payload["params"] == {"P": [0, 1], "Q": [1, -1], "R": 1.3, "theta": 0.5}
        assert abs(payload["c_exact"] - payload["c_quadrature"]) < 1e-9

    def test_constant_claim_only_for_baseline(self, capsys):
        # 2.35 is the baseline's claim: other inputs are not compared with it
        for flags in (("--R", "1.2"), ("--theta", "0.45"), ("--Q", "1,-1.032"), ("--P", "0,0.5,0.5")):
            code, out, _ = run_cli(capsys, "constant", *flags)
            assert code == 0
            payload = json.loads(out)
            assert "published_claim" not in payload

    def test_lfun_index_bounds(self, capsys):
        for index in ("9", "4", "-1"):
            code, out, _ = run_cli(capsys, "lfun", "--q", "5", "--index", index, "--s", "2+0j")
            assert code == 1
            assert json.loads(out) == {"error": "domain", "message": "character index outside 0..3"}
        code, _, _ = run_cli(capsys, "lfun", "--q", "5", "--index", "3", "--s", "2+0j")
        assert code == 0

    def test_chars_json(self, capsys):
        code, out, _ = run_cli(capsys, "chars", "--q", "12")
        payload = json.loads(out)
        assert payload["count"] == 4

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["chars", "--q", "12"],
                '{"modulus": 12, "count": 4, "characters": ['
                '{"index": 0, "conductor": 1, "parity": 0, "primitive": false}, '
                '{"index": 1, "conductor": 3, "parity": 1, "primitive": false}, '
                '{"index": 2, "conductor": 4, "parity": 1, "primitive": false}, '
                '{"index": 3, "conductor": 12, "parity": 0, "primitive": true}]}\n',
            ),
            (
                ["chars", "--q", "12", "--format", "csv"],
                "index,conductor,parity,primitive\r\n0,1,0,false\r\n1,3,1,false\r\n"
                "2,4,1,false\r\n3,12,0,true\r\n",
            ),
            (
                ["lfun", "--q", "12", "--index", "3", "--s", "0.5+10j"],
                '{"q": 12, "index": 3, "s": {"re": 0.5, "im": 10}, '
                '"l": {"re": 2.2303028871398367, "im": 0.1503692207238867}}\n',
            ),
            (
                ["registry"],
                '{"tuples": [{"name": "baseline", "q_poly": [1, -1], "r_shift": 1.3, '
                '"claimed_bound": 0.34999999999999998, "source": "P(x)=x, Q(x)=1-x, R=1.3, theta=0.5", '
                '"p_poly": [0, 1], "p1_poly": null, "p2_poly": null, "claimed_c": 2.3500000000000001, '
                '"not_reproducible_here": false}, {"name": "two-piece-kappa", "q_poly": [1, '
                "-0.64200000000000002, -0.61350000000000005, -1.3169999999999999, 2.589, "
                '-1.0356000000000001], "r_shift": 1.3, "claimed_bound": 0.41720000000000002, '
                '"source": "Q(x)=1-0.642x-1.227(x^2/2-x^3/3)-5.178(x^3/3-x^4/2+x^5/5), '
                "P1(x)=x-0.617x(1-x)-0.125x^2(1-x)-0.148x^3(1-x), P2(x)=x, P(x)=1.55x-1.564x^2+0.177x^3, "
                'R=1.3", "p_poly": [0, 1.55, -1.5640000000000001, 0.17699999999999999], "p1_poly": [0, '
                "0.38300000000000001, 0.49199999999999999, -0.022999999999999993, 0.14799999999999999], "
                '"p2_poly": [0, 1], "claimed_c": null, "not_reproducible_here": true}, '
                '{"name": "two-piece-kappa-star", "q_poly": [1, -1.032], "r_shift": 1.1160000000000001, '
                '"claimed_bound": 0.40739999999999998, "source": "Q(x)=1-1.032x, '
                "P1(x)=x-0.525x(1-x)-0.183x^2(1-x)-0.085x^3(1-x), P2(x)=x, P(x)=0.838x-0.938x^2-0.084x^3, "
                'R=1.116", "p_poly": [0, 0.83799999999999997, -0.93799999999999994, -0.084000000000000005], '
                '"p1_poly": [0, 0.47499999999999998, 0.34200000000000003, 0.09799999999999999, '
                '0.085000000000000006], "p2_poly": [0, 1], "claimed_c": null, '
                '"not_reproducible_here": true}]}\n',
            ),
            (
                ["registry", "--format", "text"],
                "tuples:\n  - name: baseline\n    q_poly:\n      - 1\n      - -1\n    r_shift: 1.3\n"
                "    claimed_bound: 0.34999999999999998\n    source: P(x)=x, Q(x)=1-x, R=1.3, theta=0.5\n"
                "    p_poly:\n      - 0\n      - 1\n    p1_poly: None\n    p2_poly: None\n"
                "    claimed_c: 2.3500000000000001\n    not_reproducible_here: False\n  - name: two-piece-kappa\n"
                "    q_poly:\n      - 1\n      - -0.64200000000000002\n      - -0.61350000000000005\n"
                "      - -1.3169999999999999\n      - 2.589\n      - -1.0356000000000001\n    r_shift: 1.3\n"
                "    claimed_bound: 0.41720000000000002\n"
                "    source: Q(x)=1-0.642x-1.227(x^2/2-x^3/3)-5.178(x^3/3-x^4/2+x^5/5), "
                "P1(x)=x-0.617x(1-x)-0.125x^2(1-x)-0.148x^3(1-x), P2(x)=x, P(x)=1.55x-1.564x^2+0.177x^3, R=1.3\n"
                "    p_poly:\n      - 0\n      - 1.55\n      - -1.5640000000000001\n      - 0.17699999999999999\n"
                "    p1_poly:\n      - 0\n      - 0.38300000000000001\n      - 0.49199999999999999\n"
                "      - -0.022999999999999993\n      - 0.14799999999999999\n    p2_poly:\n      - 0\n      - 1\n"
                "    claimed_c: None\n    not_reproducible_here: True\n  - name: two-piece-kappa-star\n"
                "    q_poly:\n      - 1\n      - -1.032\n    r_shift: 1.1160000000000001\n"
                "    claimed_bound: 0.40739999999999998\n"
                "    source: Q(x)=1-1.032x, P1(x)=x-0.525x(1-x)-0.183x^2(1-x)-0.085x^3(1-x), P2(x)=x, "
                "P(x)=0.838x-0.938x^2-0.084x^3, R=1.116\n    p_poly:\n      - 0\n      - 0.83799999999999997\n"
                "      - -0.93799999999999994\n      - -0.084000000000000005\n    p1_poly:\n      - 0\n"
                "      - 0.47499999999999998\n      - 0.34200000000000003\n      - 0.09799999999999999\n"
                "      - 0.085000000000000006\n    p2_poly:\n      - 0\n      - 1\n    claimed_c: None\n"
                "    not_reproducible_here: True\n",
            ),
            (
                ["zeros", "--tmax", "30"],
                '{"t_min": 0, "t_max": 30, "step": 0.050000000000000003, "zero_count": 3, '
                '"zeros": [14.134724807739255, 21.022039413452148, 25.010857772827151], '
                '"estimate_n_t": 2.6896563814970849, "step_warning": false}\n',
            ),
            (
                ["zeros", "--tmax", "30", "--format", "text"],
                "t_min: 0\nt_max: 30\nstep: 0.050000000000000003\nzero_count: 3\nzeros:\n  - 14.134724807739255\n"
                "  - 21.022039413452148\n  - 25.010857772827151\nestimate_n_t: 2.6896563814970849\n"
                "step_warning: False\n",
            ),
            (
                ["chars", "--q", "7", "--format", "text"],
                "modulus: 7\ncount: 6\ncharacters:\n  - index: 0\n    conductor: 1\n    parity: 0\n"
                "    primitive: False\n  - index: 1\n    conductor: 7\n    parity: 1\n    primitive: True\n"
                "  - index: 2\n    conductor: 7\n    parity: 0\n    primitive: True\n  - index: 3\n"
                "    conductor: 7\n    parity: 1\n    primitive: True\n  - index: 4\n    conductor: 7\n"
                "    parity: 0\n    primitive: True\n  - index: 5\n    conductor: 7\n    parity: 1\n"
                "    primitive: True\n",
            ),
            (
                ["constant", "--format", "text"],
                "c_exact: 2.3500677761184412\nc_quadrature: 2.3500677761186077\nkappa_bound: 0.34273525489104539\n"
                "params:\n  P:\n    - 0\n    - 1\n  Q:\n    - 1\n    - -1\n  R: 1.3\n  theta: 0.5\n"
                "published_claim:\n  c: 2.3500000000000001\n  kappa: 0.34999999999999998\n",
            ),
            (["psi", "--x", "-0", "--format", "text"], "x: -0\npsi: 0\nratio: 0\n"),
        ],
    )
    def test_pinned_output(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == expected


def test_kappa_commands_load_no_zeta_code():
    """constant and optimize run on levinson and the optimizer alone: in a
    fresh interpreter, importing critline.optimizer and running both loads
    none of the zeta, character, mollifier or moment modules, nor scipy.
    Nor does any of them, or moment after them, load numpy.polynomial: the
    node rules are levinson's own."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(critline.cli.__file__)))
    absent = ["critline.zeta", "critline.dirichlet", "critline.mollifier", "critline.moment", "scipy"]
    code = (
        "import contextlib, io, json, sys\n"
        "import critline.optimizer\n"
        "from critline import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['constant']), cli.main(['optimize', '--p-degree', '3', '--q-degree', '3'])]\n"
        f"    loaded = sorted(m for m in {absent!r} if m in sys.modules)\n"
        "    codes.append(cli.main(['moment', '--T', '1000']))\n"
        "print(json.dumps([codes, loaded, 'numpy.polynomial' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert json.loads(proc.stdout) == [[0, 0, 0], [], False]
