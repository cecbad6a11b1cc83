"""CLI parsing, validation, serialization, and exit-code contract."""

import json
import math
import os

import pytest

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
                '"l": {"re": 2.2303028871398376, "im": 0.1503692207238877}}\n',
            ),
        ],
    )
    def test_pinned_output(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == expected
