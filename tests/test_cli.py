"""Command-line surface: formats, determinism, exit codes, config plumbing."""

import ast
import contextlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import herbst
from herbst.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                        EXIT_VERIFY_FAILED, VERIFY_SUITES, RunConfig, main)
from herbst.kernel import PhysParams
from herbst.spectral import (QuadGrid, bump_potential, leading_eigenpair,
                             s_wave_reduce, tabulated_potential)


def run_cli(*argv):
    return main(list(argv))


# flags whose runs leave the float range, and what the failure line names
_OUT_OF_RANGE = {
    **{f"{command}-R{radius}": ((command, "--grid-n", "8", "--radius", radius),
                                ("Green kernel at", f"R = {float(radius)}:",
                                 "GreenKernelTable("))
       for command in ("spectrum", "threshold")
       for radius in ("1e-150", "1e100", "1e150", "1e200")},
    **{f"{command}-alpha1e-170": ((command, "--alpha-max", "1e-170"),
                                  ("alpha-max 1e-170", "underflows"))
       for command in ("kernel", "bound")},
    # sqrt(w |V|) kappa sqrt(w |V|) overflows while kappa and V are finite
    "spectrum-matrix-overflow": (("spectrum", "--grid-n", "8", "--depth", "1e300",
                                  "--mass", "1e10"),
                                 ("Birman-Schwinger matrix at E = 0.0,",
                                  "m = 10000000000.0,", "R = 1.0:")),
    "threshold-matrix-overflow": (("threshold", "--potential", "well", "--grid-n", "8",
                                   "--mass", "8.2e140", "--radius", "1.7e26",
                                   "--depth", "7.3e179"),
                                  ("Birman-Schwinger matrix at E = 0.0,",
                                   "m = 8.2e+140,", "R = 1.7e+26:")),
    # b = inf from the second-order sum, which left energy_of_lambda a
    # negative discriminant (exit 1), and (c o)^2 past the float range,
    # which raised a bare OverflowError
    "threshold-b-inf": (("threshold", "--potential", "gauss", "--grid-n", "8",
                         "--depth", "8.335484725358255e+61",
                         "--mass", "1.817001692741818e+120",
                         "--radius", "6.285710665275838e-19"),
                        ("coefficient b at", "m = 1.817001692741818e+120,",
                         "R = 6.285710665275838e-19:")),
    "threshold-b-overflow": (("threshold", "--potential", "bump", "--grid-n", "8",
                              "--depth", "6.234814588376235e+185",
                              "--mass", "3.9640816530951637e+62",
                              "--radius", "42187779322063.69"),
                             ("coefficient b at", "m = 3.9640816530951637e+62,",
                              "R = 42187779322063.69:")),
}


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.potential == "bump"
        assert cfg.mass == 1.0 and cfg.grid_n == 200

    def test_validation(self):
        with pytest.raises(Exception):
            RunConfig(potential="sombrero")
        with pytest.raises(Exception):
            RunConfig(depth=-1.0)
        with pytest.raises(Exception):
            RunConfig(grid_n=3)
        with pytest.raises(Exception):
            RunConfig(alpha_max=0.0)
        with pytest.raises(Exception):
            RunConfig(fmt="yaml")


class TestKernelCommand:
    def test_csv_table_and_bound_column(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run_cli("kernel", "--out", str(out)) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r,green_function,envelope_bound"
        assert len(lines) == 101
        for line in lines[1:]:
            _, g, bound = (float(tok) for tok in line.split(","))
            assert bound >= abs(g)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("kernel", "--out", str(a))
        run_cli("kernel", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_envelope(self, tmp_path):
        out = tmp_path / "k.json"
        run_cli("kernel", "--format", "json", "--out", str(out))
        doc = json.loads(out.read_text())
        assert set(doc) == {"meta", "data"}
        assert doc["meta"]["command"] == "kernel"
        assert len(doc["data"]) == 100

    def test_numerical_failure_exits_2(self, monkeypatch, capsys):
        import herbst.cli as cli_mod
        from herbst.quad import QuadratureError

        def boom(*args, **kwargs):
            raise QuadratureError("forced", 0.0, 1.0)

        monkeypatch.setattr(cli_mod, "green_function", boom)
        assert run_cli("kernel") == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_invalid_alpha_exits_validation(self, capsys):
        assert run_cli("kernel", "--alpha-max", "2.0") == EXIT_VALIDATION
        assert "alpha-max" in capsys.readouterr().err

    def test_alpha_max_is_checked_against_the_mass_where_it_is_read(self, capsys):
        # the default alpha-max 0.2 exceeds sqrt(2 m) at m = 0.01; only the
        # kernel and bound tables read it
        assert run_cli("kernel", "--mass", "0.01") == EXIT_VALIDATION
        assert "alpha-max must be in (0, sqrt(2 m))" in capsys.readouterr().err
        for command in ("spectrum", "threshold"):
            assert run_cli(command, "--mass", "0.01", "--grid-n", "40",
                           "--out", os.devnull) == EXIT_OK


class TestSpectrumCommand:
    def test_reports_eigenpair_with_certificate(self, tmp_path):
        out = tmp_path / "s.json"
        # third order: the n -> 2n change is 2.9e-7 at n = 100 (1.3e-6 at 60)
        assert run_cli("spectrum", "--grid-n", "100", "--format", "json",
                       "--out", str(out)) == EXIT_OK
        doc = json.loads(out.read_text())
        meta = doc["meta"]
        assert meta["mu0"] > 0.0
        assert meta["lambda0"] * meta["mu0"] == pytest.approx(1.0, rel=1e-12)
        assert meta["convergence_delta"] < 1e-6
        assert len(doc["data"]) == 100

    def test_vanishing_potential_flags_threshold_undefined(self, tmp_path):
        out = tmp_path / "z.json"
        assert run_cli("spectrum", "--depth", "0.0", "--grid-n", "20",
                       "--format", "json", "--out", str(out)) == EXIT_OK
        meta = json.loads(out.read_text())["meta"]
        assert meta["mu0"] == 0.0
        assert meta["lambda0"] is None
        assert "undefined" in meta["threshold"]

    def test_vanishing_potential_skips_the_doubled_grid(self, tmp_path, monkeypatch):
        import herbst.spectral as spectral_mod
        original = spectral_mod.s_wave_reduce
        calls = []

        def counting_reduce(potential, p, grid, *rest):
            calls.append(grid.nodes.size)
            return original(potential, p, grid, *rest)

        # every CLI solve goes through spectral.solve, which assembles here
        monkeypatch.setattr(spectral_mod, "s_wave_reduce", counting_reduce)
        assert run_cli("spectrum", "--depth", "0.0", "--grid-n", "20",
                       "--out", str(tmp_path / "z.csv")) == EXIT_OK
        assert calls == [20]

    def test_depth_scaling_of_threshold(self, tmp_path):
        vals = {}
        for depth in ("1.0", "2.0"):
            out = tmp_path / f"d{depth}.json"
            run_cli("spectrum", "--depth", depth, "--grid-n", "80",
                    "--format", "json", "--out", str(out))
            vals[depth] = json.loads(out.read_text())["meta"]["lambda0"]
        assert vals["2.0"] == pytest.approx(vals["1.0"] / 2.0, rel=1e-10)


class TestThresholdCommand:
    def test_expansion_and_curve(self, tmp_path):
        out = tmp_path / "t.json"
        assert run_cli("threshold", "--grid-n", "80", "--format", "json",
                       "--out", str(out)) == EXIT_OK
        doc = json.loads(out.read_text())
        meta = doc["meta"]
        assert meta["a"] < 0.0 and meta["branch"] == "a_nonzero"
        rows = doc["data"]
        assert len(rows) == 100
        assert all(row["energy"] < 0.0 for row in rows)
        assert all(row["lambda"] > meta["lambda0"] for row in rows)

    def test_json_meta_reports_the_eigensolve(self, tmp_path):
        out = tmp_path / "t.json"
        assert run_cli("threshold", "--grid-n", "80", "--format", "json",
                       "--out", str(out)) == EXIT_OK
        meta = json.loads(out.read_text())["meta"]
        res = leading_eigenpair(s_wave_reduce(
            bump_potential(), PhysParams(), QuadGrid.gauss_legendre(80, 1.0)))
        assert (meta["gap"], meta["residual"]) == (res.gap, res.residual)
        assert meta["residual"] < 1e-12 < meta["gap"]

    def test_csv_has_no_eigensolve_columns(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli("threshold", "--grid-n", "20", "--out", str(out)) == EXIT_OK
        assert out.read_text().splitlines()[0] == "lambda,energy"

    def test_vanishing_potential_is_a_validation_error(self, capsys):
        assert run_cli("threshold", "--depth", "0.0",
                       "--grid-n", "20") == EXIT_VALIDATION
        assert "undefined" in capsys.readouterr().err


class TestBoundCommand:
    def test_all_rows_hold(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run_cli("bound", "--out", str(out)) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert "holds" in lines[0]


class TestVerifyCommand:
    def test_appendix_c_suite_passes_and_reports_root(self, tmp_path):
        out = tmp_path / "v.json"
        assert run_cli("verify", "appendix_c", "--out", str(out)) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        by_name = {c["check"]: c for c in doc["data"]}
        assert "transcendental_root" in by_name

    def test_specfun_suite_passes(self, tmp_path):
        out = tmp_path / "v.json"
        assert run_cli("verify", "specfun", "--out", str(out)) == EXIT_OK

    def test_unknown_suite_rejected(self, capsys):
        # argparse's usage errors, which exited 2 with a usage block, are one
        # error line naming the input, with the validation exit code
        for argv in (["verify", "nonexistent"], ["kernel", "--format", "xml"],
                     ["spectrum", "--grid-n", "x"], ["kernel", "--bogus", "1"],
                     ["kernel", "--bogus\nline"]):
            assert run_cli(*argv) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert all(word in err for token in argv[1:] for word in token.split()), (argv, err)

    def test_failing_check_exits_3(self, tmp_path, monkeypatch):
        import herbst.cli as cli_mod
        monkeypatch.setattr(
            cli_mod, "_suite_appendix_c",
            lambda: [{"check": "forced", "passed": False,
                      "residual": 1.0, "tol": 0.0}])
        out = tmp_path / "v.json"
        assert run_cli("verify", "appendix_c",
                       "--out", str(out)) == EXIT_VERIFY_FAILED
        assert json.loads(out.read_text())["passed"] is False


# the flags each command reads, beside --config and --help
_GREEN_FLAGS = {"--radius", "--mass", "--alpha-max", "--format", "--out"}
_SOLVE_FLAGS = {"--potential", "--depth", "--radius", "--mass", "--grid-n", "--format",
                "--out"}
_READS = {"kernel": _GREEN_FLAGS, "bound": _GREEN_FLAGS, "spectrum": _SOLVE_FLAGS,
          "threshold": _SOLVE_FLAGS, "verify": {"--out"}}


class TestCommandInputs:
    """Each flag that every command once accepted, and each --config key,
    changes what the command writes or is refused with one line."""

    # each command, with the keys of its base run
    BASE = {"kernel": (["kernel"], {"fmt": "json"}), "bound": (["bound"], {"fmt": "json"}),
            "spectrum": (["spectrum"], {"fmt": "json", "grid_n": 8}),
            "threshold": (["threshold"], {"fmt": "json", "grid_n": 8}),
            "verify": (["verify", "appendix_c"], {})}
    # key: (flag, a value that changes every output that reads it); --out's
    # value is a file in the test's directory
    CHANGES = {"potential": ("--potential", "gauss"), "depth": ("--depth", 2.0),
               "radius": ("--radius", 2.0), "mass": ("--mass", 2.0),
               "grid_n": ("--grid-n", 12), "alpha_max": ("--alpha-max", 0.1),
               "fmt": ("--format", "csv"), "out": ("--out", None)}

    @staticmethod
    def written(argv, out):
        """(exit code, (stdout, --out file), stderr), JSON without meta.config"""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        texts = [stdout.getvalue(), out.read_text() if out.exists() else ""]
        out.unlink(missing_ok=True)
        for i, text in enumerate(texts):
            with contextlib.suppress(ValueError):
                doc = json.loads(text)
                del doc["meta"]["config"]
                texts[i] = json.dumps(doc, sort_keys=True)
        return code, texts, stderr.getvalue()

    @pytest.mark.parametrize("command", BASE)
    def test_every_flag_and_key_changes_the_output_or_is_refused(self, tmp_path, command):
        # the flag after the base run's flags, or the key in a --config file
        # over the base run's keys
        out, cfg = tmp_path / "out.txt", tmp_path / "cfg.json"
        words, base = self.BASE[command]
        flags = [tok for key, value in base.items() for tok in (self.CHANGES[key][0], str(value))]
        code, before, _ = self.written([*words, *flags], out)
        assert code == EXIT_OK
        accepted = set()
        for key, (flag, value) in self.CHANGES.items():
            value = str(out) if value is None else value
            cfg.write_text(json.dumps({**base, key: value}))
            for argv in ([*words, *flags, flag, str(value)], [*words, "--config", str(cfg)]):
                code, after, err = self.written(argv, out)
                if code == EXIT_VALIDATION:
                    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
                    assert flag in err and str(value) in err, (argv, err)
                else:
                    assert code == EXIT_OK and after != before, (argv, code)
                    accepted.add(flag)
        assert accepted == _READS[command]

    @pytest.mark.parametrize("command", BASE)
    def test_help_lists_exactly_the_flags_read(self, command, capsys):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert flags == {"--help", "--config", *_READS[command]}


# modules no command needs at import, each loaded by the function that uses it
_ON_FIRST_USE = ("scipy.interpolate", "scipy.optimize", "scipy.integrate",
                 "scipy.sparse", "scipy.sparse.linalg", "mpmath")


def _fresh_python(code):
    """stdout of ``code`` run by a new interpreter that imports this herbst."""
    src = str(Path(herbst.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}).stdout


class TestWarmTables:
    @pytest.mark.parametrize("argv", [["spectrum", "--format", "json"],
                                      ["threshold", "--format", "json"],
                                      ["verify", "continuation"]])
    def test_repeat_in_one_process_is_a_fresh_process_byte_for_byte(self, argv, capsys):
        # the ring tables built by the first run serve the second: the JSON,
        # meta included, is the bytes of a run in a new interpreter (verify's
        # report is always JSON)
        fresh = _fresh_python("import sys\n"
                              "from herbst import cli\n"
                              f"sys.exit(cli.main({argv!r}))")
        for _ in range(2):
            assert main(argv) == EXIT_OK
            assert capsys.readouterr().out == fresh


class TestImports:
    @pytest.mark.parametrize("command, loaded", [
        ("spectrum", []),
        ("threshold", ["scipy.sparse", "scipy.sparse.linalg"]),  # MINRES
        ("kernel", []),
        ("bound", []),
    ])
    def test_command_loads_only_what_it_runs(self, command, loaded):
        out = _fresh_python(
            "import contextlib, io, sys\n"
            "from herbst import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main([{command!r}]) == 0\n"
            f"print([m for m in {_ON_FIRST_USE!r} if m in sys.modules])")
        assert out.splitlines()[-1] == str(loaded)

    def test_momentum_route_loads_no_quadpack(self):
        out = _fresh_python(
            "import sys\n"
            "from herbst.spectral import QuadGrid\n"
            "from herbst.threshold import coefficient_b, tune_zero_overlap\n"
            "_, tuned = tune_zero_overlap(QuadGrid.gauss_legendre(60, 1.0))\n"
            "print(coefficient_b(tuned, 'momentum') < 0.0, 'scipy.integrate' in sys.modules)")
        assert out.splitlines()[-1] == "True False"

    def test_package_import_loads_no_submodule(self):
        out = _fresh_python("import sys, herbst\n"
                            "print(sorted(m for m in sys.modules if m.startswith('herbst.')))")
        assert out.splitlines()[-1] == "[]"

    def test_the_rule_is_chosen_in_spectral(self):
        # the CLI and the demos name no grid, assembly or eigensolve: each
        # solve goes through spectral.solve
        rule = {"s_wave_reduce", "QuadGrid", "leading_eigenpair", "green_kernel",
                "from_kernel"}
        root = Path(__file__).resolve().parents[1]
        for path in [root / "src" / "herbst" / "cli.py", *sorted(root.glob("demos/*.py"))]:
            named = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.alias):
                    named.add(node.name)
            assert not named & rule, (path.name, sorted(named & rule))

    def test_every_export_resolves(self):
        assert set(herbst.__all__) <= set(dir(herbst))
        for name in herbst.__all__:
            assert getattr(herbst, name) is not None
        assert herbst.spectral.green_kernel.__module__ == "herbst.spectral"


class TestOutFile:
    """--out is rewritten in place: same bytes, mode and symlink as a fresh
    file, and no O_TRUNC on open."""

    ARGS = ("threshold", "--grid-n", "20")

    def fresh(self, path, *fmt):
        """The bytes written to ``path`` when no file is there (JSON echoes
        the path); leaves no file behind."""
        assert run_cli(*self.ARGS, *fmt, "--out", str(path)) == EXIT_OK
        data = path.read_bytes()
        path.unlink()
        return data

    @pytest.mark.parametrize("fmt", [(), ("--format", "json")])
    def test_longer_old_file_leaves_exactly_the_new_bytes(self, tmp_path, fmt):
        out = tmp_path / "old.out"
        expected = self.fresh(out, *fmt)
        out.write_bytes(b"x" * (3 * len(expected)))
        assert run_cli(*self.ARGS, *fmt, "--out", str(out)) == EXIT_OK
        assert out.read_bytes() == expected
        if fmt:
            assert json.loads(out.read_text())["meta"]["command"] == "threshold"

    def test_existing_mode_is_kept(self, tmp_path):
        out = tmp_path / "private.csv"
        expected = self.fresh(out)
        out.write_text("old\n")
        out.chmod(0o600)
        assert run_cli(*self.ARGS, "--out", str(out)) == EXIT_OK
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert out.read_bytes() == expected

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_bytes(b"y" * 20000)
        link = tmp_path / "link.csv"
        expected = self.fresh(link)
        link.symlink_to(target)
        assert run_cli(*self.ARGS, "--out", str(link)) == EXIT_OK
        assert link.is_symlink()
        assert target.read_bytes() == expected

    def test_fifo_gets_the_full_payload(self, tmp_path):
        fifo = tmp_path / "pipe"
        expected = self.fresh(fifo)
        os.mkfifo(fifo)
        received = []

        def drain():
            with open(fifo, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        assert run_cli(*self.ARGS, "--out", str(fifo)) == EXIT_OK
        reader.join(timeout=10.0)
        assert not reader.is_alive()
        assert received == [expected]

    def test_open_never_truncates(self, tmp_path, monkeypatch):
        # truncating on open blocks on ext4 until the old contents are
        # written back, so the writer must cut the tail after writing
        out = tmp_path / "t.csv"
        out.write_text("old\n")
        flags = []
        real_open = os.open

        def recording(path, flag, *args, **kwargs):
            if os.fspath(path) == str(out):
                flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr("herbst.cli.os.open", recording)
        assert run_cli(*self.ARGS, "--out", str(out)) == EXIT_OK
        assert len(flags) == 1 and not flags[0] & os.O_TRUNC

    def test_device_is_written_without_a_truncate(self):
        # ftruncate fails on a character device; O_TRUNC ignored it
        assert run_cli(*self.ARGS, "--out", os.devnull) == EXIT_OK

    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_path_exits_validation(self, tmp_path, where, capsys):
        out = tmp_path if where == "directory" else tmp_path / "no" / "t.csv"
        assert run_cli(*self.ARGS, "--out", str(out)) == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err


class TestConfigPlumbing:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"potential": "well", "depth": 2.0,
                                   "grid_n": 40, "fmt": "json"}))
        out = tmp_path / "s.json"
        assert run_cli("spectrum", "--config", str(cfg), "--depth", "3.0",
                       "--out", str(out)) == EXIT_OK
        echo = json.loads(out.read_text())["meta"]["config"]
        assert echo["potential"] == "well"
        assert echo["depth"] == 3.0  # flag wins
        assert echo["grid_n"] == 40

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depht": 2.0}))
        assert run_cli("kernel", "--config", str(cfg)) == EXIT_VALIDATION
        assert "unknown config keys" in capsys.readouterr().err

    def test_tol_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_n": 40, "tol": 1e-8}))
        assert run_cli("spectrum", "--config", str(cfg)) == EXIT_VALIDATION
        assert "unknown config keys: ['tol']" in capsys.readouterr().err

    @pytest.mark.parametrize("config, flags, message", [
        ({"grid_n": 20.5}, [], "grid-n must be an integer in [4, 2000]"),
        ({"depth": "deep"}, [], "depth must be a finite number"),
        (None, ["--radius", "nan"], "radius must be a finite number"),
        (None, ["--depth", "inf"], "depth must be a finite number"),
        ({"potential": 3}, [], "potential must be a string"),
        ({"out": 1}, [], "out must be a path or null"),
        ({"depth": 10**400}, [], "depth must be a finite number"),
        ([], [], "config must be a JSON object"),
    ], ids=["grid_n_float", "depth_string", "radius_nan", "depth_inf",
            "potential_int", "out_int", "depth_beyond_float", "config_list"])
    def test_bad_value_is_one_error_line(self, tmp_path, capsys, config,
                                         flags, message):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            flags = ["--config", str(cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("spectrum", *flags) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, names", _OUT_OF_RANGE.values(), ids=_OUT_OF_RANGE.keys())
    def test_overflow_is_one_numerical_failure_line(self, argv, names, capsys):
        # each run ends in one line naming the stage and the flag's value,
        # with no warning before it: radii where the kernel table leaves the
        # float range (the grid's second-moment check is scale-free, so R^3
        # no longer overflows first), an alpha-max whose
        # mu^2 = 2 m alpha^2 - alpha^4 underflows to 0, and a matrix whose
        # scaling by sqrt(w |V|) overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert all(name in err for name in names), err

    @pytest.mark.parametrize("argv", [("kernel", "--mass", "1e100"),
                                      ("bound", "--mass", "1e200")],
                             ids=["kernel-m1e100", "bound-m1e200"])
    def test_green_rows_near_the_float_ceiling_are_finite(self, argv, capsys):
        # G_E = (m / 4 pi r) e^(-mu r) [...] underflows to 0.0 at x = m r of
        # 1e98 and more, where cosh(nu z) and sinh(mu r) once overflowed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv) == EXIT_OK
        rows = np.array([[float(tok) for tok in line.split(",")[:3]]
                         for line in capsys.readouterr().out.splitlines()[1:]])
        assert rows.shape == (100, 3) and np.isfinite(rows).all()
        assert np.all(np.abs(rows[:, 1]) <= rows[:, 2])

    @pytest.mark.parametrize("flag, value", [("--mass", "1e200"), ("--depth", "1e300"),
                                             ("--mass", "1e-200")])
    def test_matrix_near_the_float_ceiling_has_a_finite_residual(self, flag, value, capsys):
        # entries near 1e199-1e299: the eigensolve runs on the matrix scaled
        # to max|M| < 1, so none of its norms overflows; at m = 1e-200 the
        # energy check is scale-free, so m^2 does not underflow there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("spectrum", "--grid-n", "8", flag, value,
                           "--format", "json") == EXIT_OK
        meta = json.loads(capsys.readouterr().out)["meta"]
        assert 0.0 < meta["residual"] <= 1e-14 * meta["mu0"]

    @pytest.mark.parametrize("mass", ["1e-200", "1e200"])
    def test_b_table_out_of_range_is_one_numerical_failure_line(self, mass, capsys):
        # m^3 under- or overflows in the B-kernel table of the coefficient b:
        # one line naming the table and its fields, the mass among them, and
        # no warning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("threshold", "--grid-n", "8", "--mass", mass) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: BKernelTable(") and err.count("\n") == 1
        assert f"(m={float(mass)!r}, " in err

    def test_table_potential(self, tmp_path):
        r = np.linspace(0.0, 1.0, 50)
        v = -np.exp(-3.0 * r * r) * (1.0 - r) ** 2
        table = tmp_path / "pot.txt"
        np.savetxt(table, np.column_stack([r, v]))
        out = tmp_path / "s.json"
        assert run_cli("spectrum", "--potential", f"table:{table}",
                       "--grid-n", "60", "--format", "json",
                       "--out", str(out)) == EXIT_OK
        assert json.loads(out.read_text())["meta"]["mu0"] > 0.0

    def test_table_potential_is_solved_over_its_own_support(self, tmp_path):
        # a table ending at r = 3: the grid spans (0, 3) with no --radius
        r = np.linspace(0.0, 3.0, 80)
        table = tmp_path / "pot3.txt"
        np.savetxt(table, np.column_stack([r, -np.exp(-r * r) * (1.0 - r / 3.0) ** 2]))
        out = tmp_path / "s.json"
        assert run_cli("spectrum", "--potential", f"table:{table}", "--grid-n", "60",
                       "--format", "json", "--out", str(out)) == EXIT_OK
        want = leading_eigenpair(s_wave_reduce(tabulated_potential(table), PhysParams(),
                                               QuadGrid.gauss_legendre(60, 3.0)))
        assert json.loads(out.read_text())["meta"]["mu0"] == want.mu0

    @pytest.mark.parametrize("command", ["spectrum", "threshold"])
    @pytest.mark.parametrize("flag, value", [("--depth", "7"), ("--radius", "3"),
                                             ("--depth", "1"), ("--radius", "1"),
                                             ("--depth", 1.0)])
    def test_table_potential_refuses_depth_and_radius(self, tmp_path, capsys,
                                                      command, flag, value):
        # the file fixes both: the flag at any value, or its key in a --config
        # file (a float value here), is one error line
        r = np.linspace(0.0, 1.0, 50)
        table = tmp_path / "pot.txt"
        np.savetxt(table, np.column_stack([r, -(1.0 - r) ** 2]))
        given = [flag, value]
        if isinstance(value, float):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag[2:]: value}))
            given = ["--config", str(cfg)]
        assert run_cli(command, "--potential", f"table:{table}", "--grid-n", "8",
                       *given) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {float(value)} ") and err.count("\n") == 1

    def test_missing_table_is_validation_error(self, capsys):
        assert run_cli("spectrum",
                       "--potential", "table:/no/such.csv") == EXIT_VALIDATION
        assert "not found" in capsys.readouterr().err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=4)


def _or_json(valid):
    """A valid value half the time, any JSON value otherwise."""
    return st.one_of(valid, _JSON)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# the values drawn for each RunConfig key
_VALUES = {
    "grid_n": st.one_of(st.integers(min_value=4, max_value=16),
                        st.integers(max_value=16),
                        _JSON.filter(lambda v: type(v) is not int)),
    "potential": _or_json(st.sampled_from(["bump", "gauss", "well", "table:",
                                           "table:/no/such.csv", "cone"])),
    "depth": _or_json(st.floats(min_value=0.0, max_value=1e3)),
    "radius": _or_json(st.floats(min_value=1e-3, max_value=1e3)),
    "mass": _or_json(st.floats(min_value=1e-3, max_value=1e3)),
    "alpha_max": _or_json(st.floats(min_value=1e-3, max_value=2.0)),
    "fmt": _or_json(st.sampled_from(["csv", "json"])),
    # any JSON but a string, or a file name inside the fuzz directory
    "out": st.one_of(st.sampled_from([None, "", "out.txt"]),
                     _JSON.filter(lambda v: not isinstance(v, str)))}


@st.composite
def _configs(draw, reads, unread):
    """(config, key): a config of the keys ``reads``, grid_n always (capped
    at 16 so that no large solve starts) and each other one or not, and in
    about one draw in four a key of ``unread`` (else key is None)."""
    config = draw(st.fixed_dictionaries(
        {k: _VALUES[k] for k in reads if k == "grid_n"},
        optional={k: _VALUES[k] for k in reads if k != "grid_n"}))
    key = draw(st.sampled_from(unread)) if draw(st.integers(0, 3)) == 0 else None
    if key:
        config[key] = draw(_VALUES[key])
    return config, key


def _run_config(fuzz_dir, config, command):
    """main(command + ["--config", file of config]): (code, stdout, stderr),
    with a string ``out`` moved into the fuzz directory."""
    if isinstance(config.get("out"), str) and config["out"]:
        config["out"] = str(fuzz_dir / config["out"])
    path = fuzz_dir / "cfg.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, "--config", str(path)])
    return code, out, err


def _refused(code, err):
    """A key the command does not read ends in exit 1 with one error line."""
    lines = err.getvalue().splitlines()
    return code == EXIT_VALIDATION and len(lines) == 1 and lines[0].startswith("error: ")


@settings(max_examples=150, deadline=None)
@given(drawn=_configs(["grid_n", "potential", "depth", "radius", "mass", "fmt", "out"],
                      ["alpha_max"]))
def test_config_fuzz_ends_in_an_exit_code(fuzz_dir, drawn):
    # every JSON value of every key spectrum reads: main returns 0-3, and a
    # failure is one line; alpha_max, which it does not read, is refused
    config, unread = drawn
    code, out, err = _run_config(fuzz_dir, config, ["spectrum"])
    assert code in (0, 1, 2, 3)
    assert not unread or _refused(code, err), (config, code, err.getvalue())
    if code:
        lines = err.getvalue().splitlines()
        assert sum(line.startswith(("error:", "numerical failure:"))
                   for line in lines) == 1
    elif config.get("fmt") == "json":
        # exit 0 implies a finite residual (none is reported when mu0 = 0)
        text = open(config["out"]).read() if config.get("out") else out.getvalue()
        meta = json.loads(text)["meta"]
        assert meta["mu0"] == 0.0 or math.isfinite(meta["residual"])


@settings(max_examples=60, deadline=None)
@given(drawn=_configs(["out"], ["grid_n", "potential", "depth", "radius", "mass",
                                "alpha_max", "fmt"]),
       suite=st.sampled_from([s for s in VERIFY_SUITES if s != "specfun"]))
def test_verify_config_fuzz_is_finite_or_one_line(fuzz_dir, drawn, suite):
    # configs of out, the one key verify reads, on every suite but specfun,
    # which takes 0.8 s where the others take 0.1 s at most: exit 0 with
    # every check passed and finite, or exit 1 or 2 with one line; any
    # other key is refused
    config, unread = drawn
    code, out, err = _run_config(fuzz_dir, config, ["verify", suite])
    assert not unread or _refused(code, err), (config, code, err.getvalue())
    if code:
        assert code in (EXIT_VALIDATION, EXIT_NUMERICAL), (config, code, err.getvalue())
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        return
    text = open(config["out"]).read() if config.get("out") else out.getvalue()
    report = json.loads(text)
    assert report["passed"] is True and report["meta"]["command"] == f"verify {suite}"
    assert report["meta"]["config"] == {"out": config.get("out")}
    assert all(math.isfinite(check["residual"]) for check in report["data"]), report


def _log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def _green_table_flags(draw):
    mass = draw(_log_uniform(1e-6, 1e200))
    # alpha-max anywhere, or a fraction of sqrt(2 m), where nu runs from 0
    # to 1 (at alpha^2 = m) and back to 0, and beyond it
    alpha = draw(st.one_of(_log_uniform(1e-200, 1e200),
                           st.floats(min_value=1e-6, max_value=1.2).map(
                               lambda u: u * math.sqrt(2.0 * mass))))
    return {"mass": mass, "alpha_max": alpha, "radius": draw(_log_uniform(1e-30, 1e30))}


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["kernel", "bound"]), flags=_green_table_flags())
def test_green_table_fuzz_is_finite_or_one_line(command, flags):
    # every accepted run prints 100 finite rows (bound: each within its
    # envelope); every other run exits 1 or 2 with exactly one line
    argv = [command] + [tok for key, value in flags.items()
                        for tok in (f"--{key.replace('_', '-')}", repr(value))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code:
        assert code in (EXIT_VALIDATION, EXIT_NUMERICAL), (argv, code, err.getvalue())
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        return
    rows = np.array([[float(tok) for tok in line.split(",")]
                     for line in out.getvalue().splitlines()[1:]])
    assert rows.shape[0] == 100 and np.isfinite(rows).all(), argv
    if command == "bound":
        assert np.all(np.abs(rows[:, 1]) <= rows[:, 2]) and np.all(rows[:, 3] == 1), argv


def _or_non_finite(finite):
    """A draw of ``finite``, or NaN or +-inf about one time in ten."""
    return st.integers(min_value=0, max_value=9).flatmap(
        lambda k: finite if k else st.sampled_from([math.nan, math.inf, -math.inf]))


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["spectrum", "threshold"]),
       potential=st.sampled_from(["bump", "gauss", "well"]),
       depth=_or_non_finite(_log_uniform(1e-30, 1e200)),
       mass=_or_non_finite(_log_uniform(1e-6, 1e200)),
       radius=_or_non_finite(_log_uniform(1e-30, 1e30)))
def test_solve_fuzz_is_finite_or_one_line(command, potential, depth, mass, radius):
    # every accepted run reports a finite mu0 and residual (threshold: a, b
    # and E(lambda) <= 0 too); every other run, a non-finite input among
    # them, exits 1 or 2 with one line.  "--depth=-inf" is one token, where
    # argparse would take "-inf" alone for an option
    argv = [command, "--potential", potential, "--grid-n", "8", "--format", "json",
            f"--depth={depth!r}", f"--mass={mass!r}", f"--radius={radius!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code:
        assert code in (EXIT_VALIDATION, EXIT_NUMERICAL), (argv, code, err.getvalue())
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        return
    report = json.loads(out.getvalue())
    meta = report["meta"]
    keys = ("mu0", "residual") + (("a", "b") if command == "threshold" else ())
    assert all(math.isfinite(meta[key]) for key in keys), (argv, meta)
    if command == "threshold":
        energies = np.array([row["energy"] for row in report["data"]])
        assert len(energies) == 100 and np.all(energies <= 0.0), argv
