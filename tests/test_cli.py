import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gepower
from gepower import cli, worker
from gepower.cli import (
    EXIT_IO,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_VALIDATION,
    EXIT_VIOLATIONS,
    main,
)

FAST = [
    "--grid", "21",
    "--tol", "1e-6",
]


def _solve_args(outdir, extra=()):
    return ["solve", "--out", str(outdir)] + FAST + list(extra)


class TestSolveCommand:
    def test_writes_value_and_report(self, tmp_path, capsys):
        assert main(_solve_args(tmp_path)) == EXIT_OK
        value = json.loads((tmp_path / "value.json").read_text())
        assert value["n"] == 21
        assert len(value["values"]) == 21 * 21
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["converged"] is True
        assert report["diagonal"]["kind"] == "one-threshold"
        assert "converged" in capsys.readouterr().out

    def test_two_threshold_parameters(self, tmp_path):
        assert main(_solve_args(tmp_path, ["--rh", "3.7", "--grid", "41"])) == EXIT_OK
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["diagonal"]["kind"] == "two-threshold"

    def test_invalid_channel_rejected_before_compute(self, tmp_path, capsys):
        code = main(_solve_args(tmp_path, ["--lambda0", "0.9", "--lambda1", "0.1"]))
        assert code == EXIT_VALIDATION
        assert "lambda0 < lambda1" in capsys.readouterr().err
        assert not (tmp_path / "value.json").exists()

    def test_nonconvergence_exit_code(self, tmp_path):
        code = main(_solve_args(tmp_path, ["--max-iter", "2"]))
        assert code == EXIT_NONCONVERGENCE

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 15, "rh": 3.5}))
        assert main(["solve", "--out", str(tmp_path), "--config", str(cfg), "--rh", "3.0"]) == EXIT_OK
        value = json.loads((tmp_path / "value.json").read_text())
        assert value["n"] == 15
        assert value["rh"] == 3.0   # flag wins over config

    def test_config_out_key_honoured_and_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": "wanted", "grid": 5}))
        assert main(["solve", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "wanted" / "value.json").exists()
        assert not (tmp_path / "value.json").exists()
        assert main(["solve", "--config", str(cfg), "--out", "flag"]) == EXIT_OK
        assert (tmp_path / "flag" / "value.json").exists()

    def test_config_not_utf8_is_a_format_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"grid": 11, "out": "\xff"}')
        assert main(["solve", "--out", str(tmp_path), "--config", str(cfg)]) == EXIT_IO
        assert "not UTF-8" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gird": 15}))
        assert main(["solve", "--out", str(tmp_path), "--config", str(cfg)]) == EXIT_VALIDATION

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        assert main(_solve_args(out1)) == EXIT_OK
        assert main(_solve_args(out2)) == EXIT_OK
        assert (out1 / "value.json").read_bytes() == (out2 / "value.json").read_bytes()
        assert (out1 / "solve_report.json").read_bytes() == (out2 / "solve_report.json").read_bytes()


    def test_report_describes_certified_policy_iteration(self, tmp_path, capsys):
        assert main(_solve_args(tmp_path)) == EXIT_OK
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["method"] == "policy-iteration"
        assert report["bound"] == 0.9 / (1.0 - 0.9) * report["residual"]
        assert report["evaluation_steps"] > 0
        assert "policy improvements" in capsys.readouterr().out

    def test_patient_discount_converges(self, tmp_path):
        assert main(["solve", "--beta", "0.999", "--grid", "51", "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["residual"] <= report["tol"]

    def test_byte_identical_reruns_patient(self, tmp_path):
        outs = [tmp_path / "one", tmp_path / "two"]
        for out in outs:
            assert main(_solve_args(out, ["--beta", "0.99"])) == EXIT_OK
        assert (outs[0] / "value.json").read_bytes() == (outs[1] / "value.json").read_bytes()

    @pytest.mark.parametrize(
        "text, code",
        [
            ('{"grid": 11, "tol": "1e-6"}', EXIT_OK),
            ('{"grid": "11"}', EXIT_OK),
            ('{"grid": 11, "tol": "abc"}', EXIT_VALIDATION),
            ('{"grid": 11, "tol": null}', EXIT_VALIDATION),
            ('{"grid": 11.5}', EXIT_VALIDATION),
            ('{"grid": true}', EXIT_VALIDATION),
            ('{"grid": 11, "out": 5}', EXIT_VALIDATION),
            ("11", EXIT_VALIDATION),
        ],
    )
    def test_config_values_coerced_or_rejected(self, tmp_path, text, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["solve", "--out", str(tmp_path), "--config", str(cfg)]) == code
        if code == EXIT_OK:
            report = json.loads((tmp_path / "solve_report.json").read_text())
            assert report["grid"] == 11 and report["tol"] == 1e-6

    # Rejected by BeliefGrid before any array is allocated: an n x n float64
    # field of either size is not addressable.
    @pytest.mark.parametrize("grid", [10**308, 2**32], ids=["1e308", "2^32"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_unaddressable_grid_is_a_configuration_error(self, tmp_path, capsys, grid, via):
        if via == "flag":
            args = ["--grid", str(grid)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"grid": %s}' % ("1e308" if grid == 10**308 else grid))
            args = ["--config", str(cfg)]
        assert main(["solve", "--out", str(tmp_path)] + args) == EXIT_VALIDATION
        assert "grid size" in capsys.readouterr().err
        assert not (tmp_path / "value.json").exists()

    # solve_report.json records tol, and JSON has no infinity.
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_non_finite_tol_is_a_configuration_error(self, tmp_path, capsys, via):
        if via == "flag":
            args = ["--tol", "inf"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"tol": Infinity}')
            args = ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main(["solve", "--grid", "5", "--out", str(out)] + args) == EXIT_VALIDATION
        assert "tol" in capsys.readouterr().err
        assert not out.exists()

    # Every non-finite reward would also fail an ordering check; it must be
    # named for what it is.
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("name", ["rh", "rl", "ch", "cl"])
    def test_non_finite_reward_is_a_configuration_error(self, tmp_path, capsys, name, value):
        out = tmp_path / "out"
        code = main(["solve", "--grid", "5", f"--{name}={value}", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_config_cut_mid_object_is_a_parse_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"grid": 21,')
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == (
            "parse error: Expecting property name enclosed in double quotes "
            "at line 1, column 13\n"
        )
        assert not out.exists()

    def test_memory_error_is_a_configuration_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError()

        monkeypatch.setattr(gepower.cli, "solve", exhausted)
        assert main(_solve_args(tmp_path)) == EXIT_VALIDATION
        assert "grid" in capsys.readouterr().err


def _full_policy_diagonal(value_json, tie_tol=None):
    """The diagonal structure that the full tie-aware policy of a written
    field gives."""
    result, ch, econ, discount = gepower.load_value_field(value_json)
    policy = gepower.extract_policy(result.field, ch, econ, discount, tie_tol)
    return gepower.diagonal_structure(result.field, policy, ch, econ, discount)


class TestSolveReportDiagonal:
    """solve classifies the diagonal from its own Q values; the report must
    hold what the full policy gives."""

    @pytest.mark.parametrize("extra, kind", [
        ([], "one-threshold"),
        (["--rh", "3.7", "--grid", "41"], "two-threshold"),
        (["--grid", "2"], "one-threshold"),
        (["--lambda0", "0.3", "--lambda1", "0.35", "--rh", "3.7", "--grid", "5"],
         "two-threshold"),
    ])
    def test_matches_the_full_policy(self, tmp_path, extra, kind):
        assert main(_solve_args(tmp_path, extra)) == EXIT_OK
        report = json.loads((tmp_path / "solve_report.json").read_text())
        want = _full_policy_diagonal(tmp_path / "value.json")
        assert want.kind == kind
        assert report["diagonal"] == {"kind": want.kind, "rho1": want.rho1, "rho2": want.rho2}

    def test_other(self, tmp_path, monkeypatch):
        # No solved field found so far classifies as other; a random field
        # handed to the report does, through the same code.
        n = 11
        grid = gepower.BeliefGrid(n)
        values = np.random.default_rng(0).uniform(0.0, 10.0, (n, n))
        field = gepower.ValueField(grid, values)
        fake = gepower.SolveResult(field, 1, 0.0, 0.0)
        monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: fake)
        assert main(_solve_args(tmp_path, ["--grid", str(n)])) == EXIT_OK
        report = json.loads((tmp_path / "solve_report.json").read_text())
        want = _full_policy_diagonal(tmp_path / "value.json")
        assert want.kind == "other"
        assert report["diagonal"] == {"kind": want.kind, "rho1": want.rho1, "rho2": want.rho2}

    def test_analyze_keeps_its_tie_tol(self, tmp_path):
        # At --tie-tol 0.1 the two-threshold field's bet band ties away, so
        # analyze must classify from its full policy, not solve's default.
        assert main(_solve_args(tmp_path, ["--rh", "3.7", "--grid", "41"])) == EXIT_OK
        code = main(["analyze", str(tmp_path / "value.json"), "--tie-tol", "0.1",
                     "--out", str(tmp_path / "a")])
        assert code in (EXIT_OK, EXIT_VIOLATIONS)
        doc = json.loads((tmp_path / "a" / "structure.json").read_text())
        want = _full_policy_diagonal(tmp_path / "value.json", 0.1)
        assert want.kind == "one-threshold"
        assert doc["diagonal"] == dataclasses.asdict(want)
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["diagonal"]["kind"] == "two-threshold"

    def test_no_lattice_q_grid_after_the_solve(self, tmp_path, monkeypatch):
        # The report needs the diagonal only: one solve op builds no policy
        # and no full Q grid once solver.solve has returned.
        events = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                events.append(name)
                out = fn(*args, **kwargs)
                events.append(name + " returned")
                return out
            return wrapped

        from gepower import policy, solver
        monkeypatch.setattr(cli, "solve", spy("solve", cli.solve))
        monkeypatch.setattr(solver, "_q_grids", spy("_q_grids", solver._q_grids))
        monkeypatch.setattr(cli, "extract_policy", spy("extract_policy", cli.extract_policy))
        monkeypatch.setattr(policy, "extract_policy", spy("extract_policy", policy.extract_policy))
        assert main(_solve_args(tmp_path)) == EXIT_OK
        assert "extract_policy" not in events
        done = events.index("solve returned")
        assert "_q_grids" in events[:done]
        assert "_q_grids" not in events[done:]


class TestParser:
    """main adds flags only to the subparser of the command it runs; every
    argv parses, prints and exits as it does with every command's flags."""

    TYPICAL = [
        ["solve", "--grid", "21", "--beta", "0.95", "--max-iter", "9", "--out", "o"],
        ["analyze", "value.json", "--tie-tol", "0.5", "--out", "o"],
        ["sweep", "--param", "lambda0", "--start", "0.1", "--stop", "0.5", "--points", "3",
         "--grid", "11"],
        ["simulate", "--baseline", "myopic", "--episodes", "20", "--p1", "0.3",
         "--dump-traces"],
        ["simulate", "value.json", "--seed", "4", "--horizon", "7"],
        ["export-lp", "--grid", "11", "--config", "c.json", "--rh", "3.5"],
    ]
    ARGVS = TYPICAL + [
        argv
        for name in cli._COMMANDS
        for argv in ([name, "--help"], [name, "-h"], [name, "--bogus", "1"], [name, "--grid"])
    ] + [
        ["analyze"],
        ["sweep", "--param", "rh", "--start", "1", "--stop", "2"],
        ["sweep", "--start", "1", "--stop", "2"],
        ["simulate", "--baseline", "psychic"],
        ["solve", "--grid", "many"],
        ["solve", "extra"],
        ["-h"],
        ["--help", "solve"],
        ["frobnicate", "--grid", "3"],
        [],
    ]

    @staticmethod
    def _parse(parser, argv, capsys):
        """The namespace or exit code of a parse, and what it printed."""
        try:
            got = parser.parse_args(argv)
        except SystemExit as exc:
            got = exc.code
        return got, capsys.readouterr()

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_parses_as_the_full_parser(self, argv, capsys):
        command = argv[0] if argv else None
        assert self._parse(cli.build_parser(command), argv, capsys) == self._parse(
            cli.build_parser(), argv, capsys)

    def test_other_commands_get_no_flags(self):
        parser = cli.build_parser("analyze")
        sub = next(a for a in parser._actions if a.dest == "command")
        flags = {name: [a.dest for a in sp._actions if a.dest != "help"]
                 for name, sp in sub.choices.items()}
        assert flags.pop("analyze") == ["value_file", "tie_tol", "out"]
        assert flags == dict.fromkeys(flags, []) and len(flags) == 4

    @pytest.mark.parametrize("argv", TYPICAL, ids=" ".join)
    def test_main_runs_the_module_command(self, argv, monkeypatch, tmp_path):
        # A wrapper set on the module, as a tracer sets one, is what runs.
        monkeypatch.chdir(tmp_path)     # where the real command would write
        ran = []
        name = "cmd_" + argv[0].replace("-", "_")
        monkeypatch.setattr(cli, name, lambda args: ran.append(args.command) or EXIT_OK)
        assert main(argv) == EXIT_OK
        assert ran == [argv[0]]

    @pytest.mark.parametrize("argv", TYPICAL[:2] + [["-h"], []], ids=" ".join)
    def test_main_builds_the_named_command(self, argv, monkeypatch):
        built = []

        def spy(command=None):
            built.append(command)
            raise KeyboardInterrupt     # stops main before it parses

        monkeypatch.setattr(cli, "build_parser", spy)
        monkeypatch.setattr(sys, "argv", ["gepower", *argv])
        with pytest.raises(KeyboardInterrupt):
            main(argv if argv else None)
        assert built == [argv[0] if argv else None]


def test_commands_do_not_import_scipy(tmp_path):
    # Importing scipy costs every CLI process start-up time and resident
    # memory, so no command may load it, at import or on first use; nor
    # concurrent.futures (it imports logging, ~12 ms), multiprocessing or
    # numpy.ma (np.unique imports it on its first call). orjson (~7.5 ms)
    # is for value.json alone: the import, the sweep, export-lp and the
    # baselines leave it unloaded.
    src = Path(gepower.__file__).resolve().parents[1]
    out = str(tmp_path)
    value = str(tmp_path / "value.json")
    big = str(tmp_path / "big")
    # Each run with the forks made so far: the sweep forks one worker
    # whatever the CPU count, and no other command forks, not even solve
    # and analyze on a lattice of 151 points a side. The first runs read and
    # write no value.json.
    lean = [
        (["sweep", "--param", "rh_over_rl", "--start", "1.2", "--stop", "1.8", "--points", "4",
          "--grid", "11", "--out", str(tmp_path / "sweep")], (0,), 1),
        (["export-lp", "--grid", "11", "--out", str(tmp_path / "lp")], (0,), 1),
        *((["simulate", "--baseline", name, "--episodes", "20", "--horizon", "5", "--out",
            str(tmp_path / name)], (0,), 1)
          for name in ("myopic", "always-conservative", "random-uniform")),
    ]
    runs = lean + [
        (["solve", "--grid", "11", "--out", out], (0,), 1),
        (["analyze", value, "--out", out], (0, 4), 1),
        (["solve", "--grid", "151", "--out", big], (0,), 1),
        (["analyze", str(tmp_path / "big" / "value.json"), "--out", big], (0, 4), 1),
        (["simulate", value, "--episodes", "20", "--horizon", "5", "--dump-traces", "--out",
          str(tmp_path / "sim")], (0,), 1),
    ]
    # No child is left behind.
    script = (
        "import os, sys\nfrom gepower import cli, worker\n"
        "worker._second_cpu = lambda: True\nforks = []\nfork = os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "assert 'orjson' not in sys.modules, 'import'\n"
    ) + "".join(
        f"assert cli.main({argv!r}) in {codes!r}, {argv[0]!r}\n"
        f"assert forks == {[1] * made!r}, ({argv[0]!r}, forks)\n"
        + (f"assert 'orjson' not in sys.modules, {argv[:2]!r}\n" if k < len(lean) else "")
        for k, (argv, codes, made) in enumerate(runs)
    ) + (
        "assert 'orjson' in sys.modules\n"
        "heavy = ('scipy', 'concurrent.futures', 'multiprocessing', 'numpy.ma')\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if (m + '.').startswith(tuple(h + '.' for h in heavy)))\n"
        "assert not loaded, loaded\n"
        "assert forks == [1], forks\n"
        "try:\n    os.waitpid(-1, os.WNOHANG)\nexcept ChildProcessError:\n    pass\n"
        "else:\n    raise AssertionError('a child process remains')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _malformed(doc, name):
    if name == "values-not-numbers":
        doc["values"] = "abc"
    elif name == "null-value":
        doc["values"][0] = None
    elif name == "nan-value":
        doc["values"][0] = math.nan
    elif name == "ragged-values":
        doc["values"] = [[0.0, 1.0], [2.0]]
    elif name == "n-not-integer":
        doc["n"] = "five"
    elif name == "n-infinite":
        doc["n"] = math.inf
    elif name == "missing-key":
        del doc["beta"]
    elif name == "invalid-parameters":
        doc["lambda0"] = 0.95
    elif name == "not-an-object":
        doc = [doc]
    return doc


def counted_value_doc(key, count):
    """A value document whose n or iterations is count. The zero field has
    as many values as int() of a numeric n would accept, so only the count
    itself is wrong."""
    n = int(float(count)) if key == "n" else 3
    doc = {
        "n": n, "lambda0": 0.1, "lambda1": 0.9, "rh": 3.0, "rl": 2.0, "ch": 1.2, "cl": 0.8,
        "beta": 0.9, "iterations": 1, "residual": 0.0, "values": [0.0] * (n * n),
    }
    doc[key] = count
    return doc


class TestAnalyzeCommand:
    @pytest.fixture()
    def value_file(self, tmp_path):
        out = tmp_path / "solve"
        main(_solve_args(out))
        return out / "value.json"

    def test_outputs_and_exit_code(self, value_file, tmp_path, capsys):
        out = tmp_path / "analysis"
        code = main(["analyze", str(value_file), "--out", str(out)])
        captured = capsys.readouterr().out
        assert (out / "policy.csv").exists()
        assert (out / "policy.ppm").exists()
        doc = json.loads((out / "structure.json").read_text())
        assert doc["diagonal"]["kind"] == "one-threshold"
        assert "symmetry_ok: pass" in captured
        # at this coarse grid the one-threshold field is violation-free
        assert code == EXIT_OK

    def test_corrupted_value_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 21, "values": [1, 2\n')
        code = main(["analyze", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_truncated_values_array(self, tmp_path, capsys):
        doc = {
            "n": 5, "lambda0": 0.1, "lambda1": 0.9, "rh": 3.0, "rl": 2.0,
            "ch": 1.2, "cl": 0.8, "beta": 0.9, "iterations": 1, "residual": 0.0,
            "values": [0.0] * 24,
        }
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps(doc))
        assert main(["analyze", str(bad), "--out", str(tmp_path)]) == EXIT_IO
        assert "expected 25 values" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name",
        [
            "values-not-numbers", "null-value", "nan-value", "ragged-values",
            "n-not-integer", "n-infinite", "missing-key", "invalid-parameters",
            "not-an-object",
        ],
    )
    def test_malformed_value_file_is_a_format_error(self, value_file, tmp_path, name):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_malformed(json.loads(value_file.read_text()), name)))
        assert main(["analyze", str(bad), "--out", str(tmp_path)]) == EXIT_IO

    @pytest.mark.parametrize(
        "pattern, replacement",
        [(rb'"iterations": \d+', b'"iterations": 1e400'), (rb'"layout": "', b'"layout": "\xff')],
        ids=["iterations-1e400", "not-utf8"],
    )
    def test_unreadable_value_file_is_a_format_error(
        self, value_file, tmp_path, pattern, replacement
    ):
        bad = tmp_path / "bad.json"
        bad.write_bytes(re.sub(pattern, replacement, value_file.read_bytes(), count=1))
        assert bad.read_bytes() != value_file.read_bytes()
        assert main(["analyze", str(bad), "--out", str(tmp_path)]) == EXIT_IO

    @pytest.mark.parametrize("key", ["n", "iterations"])
    @pytest.mark.parametrize("count", [2.7, 3.9, True, "3"], ids=str)
    def test_non_integral_count_is_a_format_error(self, tmp_path, capsys, key, count):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(counted_value_doc(key, count)))
        assert main(["analyze", str(bad), "--out", str(tmp_path)]) == EXIT_IO
        assert "integral" in capsys.readouterr().err
        assert main(["simulate", str(bad), "--episodes", "4", "--horizon", "3",
                     "--out", str(tmp_path)]) == EXIT_IO
        assert not (tmp_path / "sim_summary.json").exists()

    # Each would give a negative or non-finite certified bound.
    @pytest.mark.parametrize("key, value, message", [
        ("residual", -1.0, "residual must be >= 0"),
        ("residual", math.inf, "residual must be >= 0"),
        ("residual", math.nan, "residual must be >= 0"),
        ("residual", 1e308, "residual must be >= 0"),
        ("iterations", -4, "iterations must be >= 0, got -4"),
    ], ids=["residual--1", "residual-inf", "residual-nan", "residual-1e308", "iterations--4"])
    def test_out_of_range_certificate_is_a_format_error(self, tmp_path, capsys, key, value,
                                                        message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(counted_value_doc(key, value)))
        assert main(["analyze", str(bad), "--out", str(tmp_path)]) == EXIT_IO
        assert message in capsys.readouterr().err
        assert main(["simulate", str(bad), "--episodes", "4", "--horizon", "3",
                     "--out", str(tmp_path)]) == EXIT_IO
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sim_summary.json").exists()

    # orjson reads an integer literal beyond 64 bits as the nearest double
    # (json kept 2**64 + 1 exact), so only the count in the message moves.
    def test_count_beyond_64_bits_is_a_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(counted_value_doc("n", 3)).replace('"n": 3', f'"n": {2**64 + 1}'))
        assert main(["analyze", str(bad), "--out", str(tmp_path)]) == EXIT_IO
        assert f"expected {2**128} values, found 9" in capsys.readouterr().err
        assert main(["simulate", str(bad), "--episodes", "4", "--horizon", "3",
                     "--out", str(tmp_path)]) == EXIT_IO
        assert f"expected {2**128} values, found 9" in capsys.readouterr().err

    @pytest.mark.parametrize("tie_tol", ["nan", "-1", "inf"])
    def test_bad_tie_tol_is_a_configuration_error(self, value_file, tmp_path, tie_tol):
        code = main(["analyze", str(value_file), "--tie-tol", tie_tol, "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION

    def test_missing_file(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == EXIT_IO


class TestSweepCommand:
    def test_lambda0_sweep(self, tmp_path):
        code = main(
            ["sweep", "--param", "lambda0", "--start", "0.1", "--stop", "0.5",
             "--points", "3", "--grid", "15", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert rows[0] == "swept-value,area_Bb,area_B1,area_B2,area_Br,class,rho1,rho2,Th1,Th2"
        assert len(rows) == 1 + 3
        assert any("fixed:" in ln for ln in header)

    def test_invalid_points_skipped_with_log(self, tmp_path, capsys):
        # lambda0 values at and above lambda1 are invalid and skipped
        code = main(
            ["sweep", "--param", "lambda0", "--start", "0.8", "--stop", "1.0",
             "--points", "3", "--grid", "11", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        rows = [
            ln for ln in (tmp_path / "sweep.csv").read_text().splitlines()
            if not ln.startswith("#") and ln
        ]
        assert len(rows) == 1 + 1   # only lambda0=0.8 is valid
        assert "skipping" in capsys.readouterr().err

    def test_rows_after_a_skipped_first_point(self, tmp_path, capsys):
        # lambda1 = 0.0625 is below lambda0 and skipped with no field to pass
        # on, so the next point solves from the zero field and the rows equal
        # those of the sweep without it
        def rows(start, points):
            out = tmp_path / start
            assert main(["sweep", "--param", "lambda1", "--start", start, "--stop", "0.8125",
                         "--points", points, "--grid", "22", "--out", str(out)]) == EXIT_OK
            return [ln for ln in (out / "sweep.csv").read_text().splitlines()
                    if not ln.startswith("#")]

        with_invalid = rows("0.0625", "4")
        assert "skipping lambda1=0.0625" in capsys.readouterr().err
        assert with_invalid == rows("0.3125", "3")
        assert len(with_invalid) == 1 + 3

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_below_one_is_a_configuration_error(self, tmp_path, capsys, points):
        code = main(
            ["sweep", "--param", "lambda0", "--start", "0.1", "--stop", "0.5",
             "--points", points, "--grid", "11", "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_VALIDATION
        assert "--points" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # 0 * inf would make the finite first point NaN, and a NaN point is
    # skipped, so an unchecked range would exit 0 with an empty sweep.csv.
    @pytest.mark.parametrize(
        "start, stop", [("nan", "1.5"), ("1.2", "inf"), ("-1e308", "1e308")]
    )
    def test_range_without_finite_step_is_a_configuration_error(
        self, tmp_path, capsys, start, stop
    ):
        code = main(
            ["sweep", "--param", "rh_over_rl", f"--start={start}", f"--stop={stop}",
             "--points", "2", "--grid", "11", "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"sweep range {float(start):g} to {float(stop):g}" in err
        assert not (tmp_path / "out").exists()

    # grid, tol and max_iter are the same at every point, so a bad one is
    # one configuration error before any output, not a skip per point.
    @pytest.mark.parametrize(
        "flag, value, name",
        [("--grid", "1", "grid size"), ("--tol", "-1", "tol"), ("--tol", "inf", "tol"),
         ("--max-iter", "0", "max_iter")],
    )
    def test_bad_fixed_setting_is_a_configuration_error(
        self, tmp_path, capsys, flag, value, name
    ):
        code = main(
            ["sweep", "--param", "beta", "--start", "0.5", "--stop", "0.9", "--points", "3",
             "--grid", "7", flag, value, "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert name in err and "skipping" not in err
        assert not (tmp_path / "out").exists()

    def test_bad_grid_in_config_file_is_a_configuration_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"grid": 1}')
        code = main(
            ["sweep", "--param", "lambda0", "--start", "0.1", "--stop", "0.5", "--points", "3",
             "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_VALIDATION
        assert "grid size" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_warm_start_point_is_solved_cold(self, tmp_path, capsys):
        # At this beta and tol the 1.15 point's warm start (from 1.05) stops
        # at residual 1.137e-13 after 4 improvements; its cold solve converges.
        def rows(start, stop, points):
            out = tmp_path / f"{start}-{points}"
            argv = ["sweep", "--param", "rh_over_rl", "--start", start, "--stop", stop,
                    "--points", points, "--beta", "0.99", "--tol", "1e-13", "--out", str(out)]
            assert main(argv) == EXIT_OK
            return [ln for ln in (out / "sweep.csv").read_text().splitlines()
                    if not ln.startswith("#")]

        three = rows("1.05", "1.25", "3")
        assert "skipping" not in capsys.readouterr().err
        assert len(three) == 1 + 3
        assert three[2].startswith("1.15,")
        assert three[2] == rows("1.15", "1.15", "1")[1]

    def test_lambda1_sweep_notes_fixed_lambda0(self, tmp_path):
        main(
            ["sweep", "--param", "lambda1", "--start", "0.9", "--stop", "0.5",
             "--points", "2", "--grid", "11", "--out", str(tmp_path)]
        )
        text = (tmp_path / "sweep.csv").read_text()
        assert "lambda0 stays at 0.1" in text

    def test_ratio_sweep_scales_rh(self, tmp_path):
        main(
            ["sweep", "--param", "rh_over_rl", "--start", "1.2", "--stop", "1.8",
             "--points", "2", "--grid", "11", "--out", str(tmp_path)]
        )
        rows = [
            ln for ln in (tmp_path / "sweep.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert len(rows) == 1 + 2

    # Sweeps whose two chains, [0, ceil(k/2)) and the rest, run in the parent
    # and in a forked worker: odd and even point counts, and lambda0 sweeps
    # that cross lambda1 = 0.9, so points are skipped in both chains.
    SPLIT_SWEEPS = [
        ["--param", "lambda0", "--start", "0.7", "--stop", "1.1", "--points", "5"],
        ["--param", "lambda0", "--start", "0.8", "--stop", "1.1", "--points", "4"],
        ["--param", "lambda0", "--start", "0.4", "--stop", "1.0", "--points", "6"],
        ["--param", "rh_over_rl", "--start", "1.2", "--stop", "1.8", "--points", "4"],
        ["--param", "lambda1", "--start", "0.9", "--stop", "0.3", "--points", "3"],
    ]

    @staticmethod
    def _sweep(tmp_path, capsys, sweep):
        """Exit code, sweep.csv bytes and stderr of one sweep, leaving no child."""
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        code = main(["sweep", *sweep, "--grid", "11", "--out", str(out)])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        csv = (out / "sweep.csv").read_bytes() if code == EXIT_OK else None
        return code, csv, capsys.readouterr().err

    @pytest.mark.parametrize("off", ["one-cpu", "no-fork"])
    @pytest.mark.parametrize("sweep", SPLIT_SWEEPS, ids=lambda s: "-".join(s[1::2]))
    def test_worker_leaves_bytes_unchanged(self, tmp_path, capsys, monkeypatch, forks,
                                           sweep, off):
        got = self._sweep(tmp_path, capsys, sweep)
        assert forks == [os.getpid()]
        if off == "one-cpu":
            monkeypatch.setattr(worker, "_second_cpu", lambda: False)
        else:
            monkeypatch.delattr(os, "fork")
        assert self._sweep(tmp_path, capsys, sweep) == got
        assert got[0] == EXIT_OK
        assert len(forks) == 1

    @pytest.mark.parametrize(
        "failure",
        ["pipe-raises", "fork-raises", "child-exits-1", "child-sends-garbage",
         "child-cuts-its-line"])
    def test_failed_worker_falls_back_in_process(self, tmp_path, capsys, monkeypatch, forks,
                                                failure):
        sweep = self.SPLIT_SWEEPS[0]
        parent = os.getpid()
        want = self._sweep(tmp_path, capsys, sweep)
        if failure == "pipe-raises":
            def pipe():
                raise OSError(24, "Too many open files")

            monkeypatch.setattr(os, "pipe", pipe)
        elif failure == "fork-raises":
            def fork():
                raise OSError(11, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", fork)
        elif failure == "child-exits-1":
            chain = cli._sweep_chain

            def failing(*args):
                if os.getpid() != parent:
                    raise RuntimeError("the worker fails")
                return chain(*args)

            monkeypatch.setattr(cli, "_sweep_chain", failing)
        elif failure == "child-sends-garbage":
            dump = json.dump

            def garbage(obj, fh, **kwargs):
                if os.getpid() != parent:
                    fh.write("{not json")
                else:
                    dump(obj, fh, **kwargs)

            monkeypatch.setattr(json, "dump", garbage)
        else:
            dump = json.dump

            def cut(obj, fh, **kwargs):
                if os.getpid() == parent:
                    return dump(obj, fh, **kwargs)
                # no rows and no skips: JSON that parses, with no newline
                fh.write("[[], []]")
                fh.flush()
                os._exit(0)

            monkeypatch.setattr(json, "dump", cut)
        assert self._sweep(tmp_path, capsys, sweep) == want
        assert want[0] == EXIT_OK
        assert len(forks) == (1 if failure.endswith("raises") else 2)

    def test_second_chain_error_surfaces_from_the_fallback(self, tmp_path, capsys,
                                                           monkeypatch, forks):
        # The second chain raises in the worker, which exits 1, and again in
        # the parent's fallback, from where it reaches main as it does with
        # the worker off.
        sweep = self.SPLIT_SWEEPS[0]
        parent = os.getpid()
        chain = cli._sweep_chain

        def failing(cfg, param, values, skip):
            if values[0] != float(sweep[3]):
                raise OSError(28, "No space left on device")
            return chain(cfg, param, values, skip)

        monkeypatch.setattr(cli, "_sweep_chain", failing)
        got = self._sweep(tmp_path, capsys, sweep)
        assert forks == [parent]
        monkeypatch.setattr(worker, "_second_cpu", lambda: False)
        assert self._sweep(tmp_path, capsys, sweep) == got
        assert len(forks) == 1
        code, _, err = got
        assert code == EXIT_IO
        assert err.startswith("skipping lambda0=0.9: ")
        assert err.endswith("\ni/o failure: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, OSError])
    def test_running_worker_is_killed_when_the_parent_fails(self, tmp_path, monkeypatch,
                                                            forks, interrupt):
        parent = os.getpid()

        def chain(*args):
            if os.getpid() != parent:
                time.sleep(60)
            raise interrupt("the parent's chain fails")

        monkeypatch.setattr(cli, "_sweep_chain", chain)
        argv = ["sweep", *self.SPLIT_SWEEPS[0], "--grid", "11", "--out", str(tmp_path)]
        start = time.monotonic()
        if interrupt is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == EXIT_IO
        assert time.monotonic() - start < 30
        assert forks == [parent]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_worker_beside_another_thread(self, tmp_path, capsys, forks):
        sweep = self.SPLIT_SWEEPS[0]
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            got = self._sweep(tmp_path, capsys, sweep)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert self._sweep(tmp_path, capsys, sweep) == got
        assert len(forks) == 1

    def test_one_point_sweep_forks_nothing(self, tmp_path, capsys, forks):
        code, csv, _ = self._sweep(
            tmp_path, capsys, ["--param", "lambda0", "--start", "0.2", "--stop", "0.5",
                               "--points", "1"])
        assert code == EXIT_OK and csv.count(b"\n0.2,") == 1
        assert forks == []


class TestSimulateCommand:
    def test_baseline_summary(self, tmp_path):
        code = main(
            ["simulate", "--baseline", "always-conservative", "--episodes", "50",
             "--horizon", "10", "--seed", "4", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "sim_summary.json").read_text())
        assert doc["mean"] == 0.0 and doc["se"] == 0.0

    def test_policy_file_simulation_with_traces(self, tmp_path):
        out = tmp_path / "solve"
        main(_solve_args(out))
        code = main(
            ["simulate", str(out / "value.json"), "--episodes", "20", "--horizon", "5",
             "--seed", "3", "--dump-traces", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert (tmp_path / "traces.csv").exists()
        doc = json.loads((tmp_path / "sim_summary.json").read_text())
        assert doc["policy"] == "grid-policy"

    def test_requires_exactly_one_source(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path)]) == EXIT_VALIDATION

    def test_value_file_rejects_model_flags(self, tmp_path, capsys):
        # the model comes from the value file; a model flag would be ignored
        out = tmp_path / "solve"
        assert main(_solve_args(out)) == EXIT_OK
        base = ["simulate", str(out / "value.json"), "--episodes", "5", "--horizon", "3",
                "--out", str(tmp_path / "sim")]
        capsys.readouterr()
        flags = ["--beta", "0.5", "--lambda0", "0.4", "--rh", "3.9"]
        assert main(base + flags) == EXIT_VALIDATION
        assert "--lambda0 --beta --rh cannot be used with VALUE_FILE" in capsys.readouterr().err
        for name in ("lambda0", "lambda1", "beta", "rh", "rl", "ch", "cl"):
            assert main(base + [f"--{name}", "0.5"]) == EXIT_VALIDATION, name
        # the lattice and the solve's settings are fixed by the file too
        for flag, value in (("--grid", "11"), ("--tol", "1e-6"), ("--max-iter", "10")):
            assert main(base + [flag, value]) == EXIT_VALIDATION, flag
            assert f"{flag} cannot be used with VALUE_FILE" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()
        # a baseline takes its model from the flags and ignores the solve's
        baseline = ["simulate", "--baseline", "myopic", "--episodes", "5", "--horizon", "3",
                    "--grid", "11", "--tol", "1e-6", "--max-iter", "10"]
        assert main(baseline + ["--out", str(tmp_path / "b")]) == EXIT_OK

    def test_value_file_ignores_model_keys_in_a_config(self, tmp_path):
        # a config shared with solve works: its model and solve keys are
        # ignored, where the same values as flags exit 2 (above)
        out = tmp_path / "solve"
        assert main(_solve_args(out)) == EXIT_OK
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 0.5, "lambda0": 0.4, "grid": 11, "tol": 1e-3}))
        base = ["simulate", str(out / "value.json"), "--episodes", "50", "--horizon", "10",
                "--seed", "5"]
        assert main(base + ["--out", str(tmp_path / "plain")]) == EXIT_OK
        assert main(base + ["--config", str(cfg), "--out", str(tmp_path / "cfg")]) == EXIT_OK
        got = (tmp_path / "cfg" / "sim_summary.json").read_bytes()
        assert got == (tmp_path / "plain" / "sim_summary.json").read_bytes()

    @pytest.mark.parametrize("flag, bound", [
        ("--episodes=0", "episodes >= 1 violated: 0"),
        ("--horizon=0", "horizon >= 1 violated: 0"),
        ("--seed=-1", "seed >= 0 violated: -1"),
    ])
    def test_run_bounds_are_configuration_errors(self, tmp_path, capsys, flag, bound):
        out = tmp_path / "sim"
        code = main(["simulate", "--baseline", "myopic", "--episodes", "5", "--horizon", "3",
                     flag, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert bound in capsys.readouterr().err
        assert not out.exists()

    def test_memory_error_in_a_draw_thread_names_the_run_size(self, tmp_path, capsys,
                                                               monkeypatch):
        # the stepping must not go on over a worker's unwritten codes
        from gepower import simulate

        draw = simulate._draw_range

        def exhausted(*args):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError()
            draw(*args)

        monkeypatch.setattr(simulate, "_second_cpu", lambda: True)
        monkeypatch.setattr(simulate, "_draw_range", exhausted)
        before = threading.active_count()
        code = main(["simulate", "--baseline", "myopic", "--episodes", "300", "--horizon", "5",
                     "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "episodes" in err and "horizon" in err, err
        assert threading.active_count() == before
        assert not (tmp_path / "sim_summary.json").exists()

    def test_run_too_large_names_the_run_size(self, tmp_path, capsys):
        code = main(["simulate", "--baseline", "myopic", "--episodes", "1000000000000",
                     "--horizon", "5", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "episodes times horizon" in err and "grid" not in err, err

    def test_memory_error_reading_the_value_file_names_the_grid(self, tmp_path, capsys,
                                                                monkeypatch):
        out = tmp_path / "solve"
        assert main(_solve_args(out)) == EXIT_OK

        def exhausted(*args):
            raise MemoryError()

        monkeypatch.setattr(gepower.cli, "extract_policy", exhausted)
        code = main(["simulate", str(out / "value.json"), "--episodes", "5", "--horizon", "3",
                     "--out", str(tmp_path / "sim")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "grid" in err and "episodes" not in err, err

    def test_identical_seed_identical_bytes(self, tmp_path):
        args = ["simulate", "--baseline", "myopic", "--episodes", "40", "--horizon", "8",
                "--seed", "12"]
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert (out1 / "sim_summary.json").read_bytes() == (out2 / "sim_summary.json").read_bytes()


class TestExportLpCommand:
    def test_tiny_model(self, tmp_path, capsys):
        code = main(["export-lp", "--grid", "2", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "4 variables" in capsys.readouterr().out
        text = (tmp_path / "model.lp").read_text()
        assert text.startswith("\\")
        assert "Minimize" in text and "Subject To" in text and text.rstrip().endswith("End")
        meta = json.loads((tmp_path / "model_meta.json").read_text())
        assert meta["n"] == 2
        assert "row-major" in meta["variables"]

    def test_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        main(["export-lp", "--grid", "5", "--out", str(out1)])
        main(["export-lp", "--grid", "5", "--out", str(out2)])
        assert (out1 / "model.lp").read_bytes() == (out2 / "model.lp").read_bytes()


def test_no_numpy_scalar_reprs_in_outputs(tmp_path):
    """A numpy scalar formatted with repr reads np.float64(...) under
    numpy >= 2; no file any command writes may carry one."""
    solve_out = tmp_path / "solve"
    runs = [
        _solve_args(solve_out),
        ["analyze", str(solve_out / "value.json"), "--out", str(tmp_path / "analyze")],
        ["sweep", "--param", "rh_over_rl", "--start", "1.2", "--stop", "1.8",
         "--points", "2", "--grid", "11", "--out", str(tmp_path / "sweep")],
        ["simulate", str(solve_out / "value.json"), "--episodes", "20", "--horizon", "5",
         "--dump-traces", "--out", str(tmp_path / "simulate")],
        ["export-lp", "--grid", "5", "--out", str(tmp_path / "export-lp")],
    ]
    for args in runs:
        assert main(args) in (EXIT_OK, EXIT_VIOLATIONS)
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert {p.parent.name for p in files} == {"solve", "analyze", "sweep", "simulate", "export-lp"}
    for path in files:
        assert b"np." not in path.read_bytes(), path.name


DOCUMENTED_EXITS = {EXIT_OK, EXIT_VALIDATION, EXIT_NONCONVERGENCE, EXIT_VIOLATIONS, EXIT_IO}

# Replacement values: wrong types, non-finite numbers, small numbers and
# numbers beyond the grid cap. No other large integer: as a grid size it
# would be a valid but enormous solve.
ODD_VALUES = st.sampled_from(
    [None, True, "abc", "", [], {}, [1.0], -1, 0, 2, 0.5, 2.5, math.inf, -math.inf, math.nan,
     2**32, 1e308]
)

SMALL_CONFIG = {
    "lambda0": 0.1, "lambda1": 0.9, "beta": 0.5, "rh": 3.0, "rl": 2.0, "ch": 1.2, "cl": 0.8,
    "grid": 3, "tol": 1e-6, "max_iter": 50, "seed": 0, "episodes": 10, "horizon": 5,
    "out": "unused",
}


def _edits(keys):
    """Up to three edits of a JSON object: drop a key, or give it an odd value."""
    edit = st.one_of(
        st.tuples(st.just("drop"), st.sampled_from(keys), st.none()),
        st.tuples(st.just("set"), st.sampled_from(keys), ODD_VALUES),
    )
    return st.lists(edit, max_size=3)


def _mutated_bytes(doc, edits, cut):
    """doc with the edits applied, as JSON bytes; a 0xff byte, which is not
    UTF-8, goes in at position cut unless cut is None."""
    for kind, key, value in edits:
        if kind == "drop":
            doc.pop(key, None)
        else:
            doc[key] = value
    data = json.dumps(doc).encode()
    if cut is not None:
        cut %= len(data) + 1
        data = data[:cut] + b"\xff" + data[cut:]
    return data


@pytest.fixture(scope="module")
def small_value_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    assert main(["solve", "--grid", "3", "--out", str(out)]) == EXIT_OK
    return out / "value.json"


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(
    edits=_edits(
        ["n", "lambda0", "lambda1", "rh", "rl", "ch", "cl", "beta", "iterations", "residual",
         "values"]
    ),
    count=st.none() | st.integers(0, 12),
    cut=st.none() | st.integers(0, 400),
)
def test_mutated_value_file_exits_with_a_documented_code(small_value_file, edits, count, cut):
    doc = json.loads(small_value_file.read_text())
    if count is not None:
        doc["values"] = (doc["values"] * 2)[:count]
    bad = small_value_file.with_name("mutated.json")
    bad.write_bytes(_mutated_bytes(doc, edits, cut))
    out = small_value_file.with_name("analysis")
    assert main(["analyze", str(bad), "--out", str(out)]) in DOCUMENTED_EXITS


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(edits=_edits(sorted(SMALL_CONFIG)), cut=st.none() | st.integers(0, 300))
def test_mutated_config_exits_with_a_documented_code(small_value_file, edits, cut):
    cfg = small_value_file.with_name("mutated_cfg.json")
    cfg.write_bytes(_mutated_bytes(dict(SMALL_CONFIG), edits, cut))
    out = small_value_file.with_name("solve")
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) in DOCUMENTED_EXITS
