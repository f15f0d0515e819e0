import ast
import inspect
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nhsense import cli, pt_ep
from nhsense import pseudo_hermitian as ph
from nhsense.cli import (
    ConfigError, ScenarioConfig, main, parse_config, parse_config_lines, read_metadata, validate,
)
from nhsense.verification import VerificationReport

from test_pt_ep import GAMMA_EP_J1_W4

FIXTURES = Path(__file__).parent / "fixtures"


def read_csv(path):
    """Returns (metadata lines, header, rows as lists of strings)."""
    meta, header, rows = [], None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta.append(line)
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(next(_csv_rows(line)))
    return meta, header, rows


def _csv_rows(line):
    import csv as _csv
    import io as _io
    yield next(_csv.reader(_io.StringIO(line)))


class TestConfigParsing:
    def test_missing_file_names_path(self):
        with pytest.raises(ConfigError, match="no-such-file.cfg"):
            parse_config("no-such-file.cfg")

    def test_unknown_key_rejected_with_line(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario=pt-ep\nwhatever=3\n")
        with pytest.raises(ConfigError, match=r":2: unknown key"):
            parse_config(str(cfg))

    def test_malformed_line_referenced(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario=verify\nnot a key value pair\n")
        with pytest.raises(ConfigError, match=r":2"):
            parse_config(str(cfg))

    def test_unparseable_value(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario.pt-ep.J=one\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config(str(cfg))

    def test_comments_and_blanks_skipped(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# a comment\n\nscenario=verify\nseed=7\n")
        config = parse_config(str(cfg))
        assert config.scenario == "verify"
        assert config.seed == 7

    def test_validation_rules(self):
        with pytest.raises(ConfigError, match="scenario"):
            validate(parse_config_lines(["scenario=nope"]))
        with pytest.raises(ConfigError, match="grid count"):
            validate(parse_config_lines(
                ["scenario=pt-ep", "scenario.pt-ep.grid.count=1"]))
        with pytest.raises(ConfigError, match="start must be <"):
            validate(parse_config_lines(
                ["scenario=pseudo-hermitian",
                 "scenario.pseudo-hermitian.grid.start=0.5",
                 "scenario.pseudo-hermitian.grid.stop=-0.5"]))
        with pytest.raises(ConfigError, match="tol"):
            validate(parse_config_lines(["scenario=verify", "tol=0.1"]))

    def test_default_grid_follows_omega(self):
        config = validate(parse_config_lines(
            ["scenario=pseudo-hermitian", "scenario.pseudo-hermitian.omega=2.0"]))
        assert config.ph_grid_start == -1.0
        assert config.ph_grid_stop == 1.0


# argv whose EP period would hold more than MAX_PERIOD_PHASE, and the keys its error names
TOO_MANY_TURNS = [
    (["find-ep", "--omega", "1e-300"], ["--J", "--omega"]),
    (["find-ep", "--J", "1e300"], ["--J", "--omega"]),
    (["scan-ep", "--omega", "1e-300", "--Gamma", "0.5", "--grid-count", "2"],
     ["scenario.pt-ep.J", "scenario.pt-ep.omega"]),
    (["scan-ep", "--J", "1e300", "--grid-count", "2"], ["scenario.pt-ep.J", "scenario.pt-ep.omega"]),
    (["scan-ep", "--Gamma", "0.5", "--grid-start", "1e200", "--grid-stop", "2e200", "--grid-count", "2"],
     ["scenario.pt-ep.grid.start", "scenario.pt-ep.omega"]),
    (["scan-ep", "--Gamma", "0.5", "--grid-start", "1", "--grid-stop", "1e200", "--grid-count", "2"],
     ["scenario.pt-ep.grid.stop", "scenario.pt-ep.omega"]),
]

# argv out of a sensor's domain at the configuration boundary, and the key its error names
OUT_OF_DOMAIN = [
    (["scan-ep", "--Gamma", "300", "--grid-count", "3"], "scenario.pt-ep.Gamma"),
    (["scan-ep", "--Gamma", "1000", "--grid-count", "3"], "scenario.pt-ep.Gamma"),
    (["scan-ep", "--Gamma", "1e300", "--grid-count", "2"], "scenario.pt-ep.Gamma"),
    (["scan-ep", "--J", "6366", "--grid-count", "2"], "scenario.pt-ep.Gamma (unset"),
    (["find-ep", "--J", "6366"], "--bracket-hi (default 19098)"),
    (["find-ep", "--bracket-hi", "500"], "--bracket-hi"),
    (["sweep-ph", "--epsilon", "1e100", "--grid-count", "3"], "scenario.pseudo-hermitian.epsilon"),
    (["sweep-ph", "--epsilon", "1e150", "--grid-count", "3"], "scenario.pseudo-hermitian.epsilon"),
    (["sweep-ph", "--epsilon", "1e308", "--grid-count", "3"],
     "scenario.pseudo-hermitian.epsilon: epsilon 1e+308 too large"),
    (["sweep-ph", "--grid-start", "1e77", "--grid-stop", "2e77", "--grid-count", "2"],
     "scenario.pseudo-hermitian.grid.start"),
    (["sweep-ph", "--grid-start", "0", "--grid-stop", "1e4"], "scenario.pseudo-hermitian.grid.stop"),
    (["sweep-ph", "--omega", "1e-85", "--grid-count", "3"], "scenario.pseudo-hermitian.omega"),
]


class TestCliRuns:
    def test_flag_overrides_config_and_metadata(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario.pseudo-hermitian.epsilon=0.2\n"
                       "scenario.pseudo-hermitian.grid.count=3\n"
                       "scenario.pseudo-hermitian.grid.start=-0.1\n"
                       "scenario.pseudo-hermitian.grid.stop=0.1\n")
        out = tmp_path / "o.csv"
        code = main(["sweep-ph", "--config", str(cfg), "--epsilon", "0.05",
                     "--tol", "1e-8", "--out", str(out)])
        assert code == 0
        meta = read_metadata(str(out))
        assert meta.ph_epsilon == 0.05  # flag wins over file
        assert meta.ph_grid_count == 3
        assert meta.tol == 1e-8

    def test_metadata_round_trip(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main(["sweep-ph", "--grid-count", "3", "--grid-start", "-0.1",
                     "--grid-stop", "0.1", "--tol", "1e-8", "--out", str(out)]) == 0
        reparsed = validate(read_metadata(str(out)))
        assert reparsed.scenario == "pseudo-hermitian"
        assert reparsed.ph_grid_count == 3
        assert reparsed.ph_grid_start == -0.1
        assert reparsed.ph_epsilon == 0.1

    def test_csv_columns_sweep(self, tmp_path):
        out = tmp_path / "o.csv"
        main(["sweep-ph", "--grid-count", "2", "--grid-start", "0.1",
              "--grid-stop", "0.2", "--tol", "1e-8", "--out", str(out)])
        _, header, rows = read_csv(str(out))
        assert header == ["lam", "S", "chi", "P1", "dP1_dlam", "sensitivity",
                          "qfi_closed", "qfi_numeric", "rate_closed", "hermitian_bound"]
        assert len(rows) == 2

    def test_json_format(self, tmp_path):
        out = tmp_path / "o.json"
        main(["sweep-ph", "--grid-count", "2", "--grid-start", "0.1",
              "--grid-stop", "0.2", "--tol", "1e-8", "--format", "json", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["metadata"]["scenario"] == "pseudo-hermitian"
        assert len(payload["rows"]) == 2
        assert set(payload["rows"][0]) == {"lam", "S", "chi", "P1", "dP1_dlam", "sensitivity",
                                           "qfi_closed", "qfi_numeric", "rate_closed",
                                           "hermitian_bound"}

    def test_exit_codes(self, tmp_path):
        assert main(["sweep-ph", "--config", "missing.cfg"]) == 1
        assert main(["sweep-ph", "--grid-count", "1"]) == 1
        assert main(["find-ep", "--J", "1", "--omega", "1",
                     "--bracket-lo", "2.0", "--bracket-hi", "2.9"]) == 2

    @pytest.mark.parametrize("argv", [["find-ep"], ["sweep-ph", "--grid-count", "3"],
                                      ["scan-ep", "--grid-count", "3"], ["verify", "--seed", "42"]],
                             ids=" ".join)
    def test_out_in_a_missing_directory_exits_1_before_any_run(self, argv, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-m", "nhsense.cli", *argv, "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=5.0)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"out: the directory of {str(out)!r} does not exist" in proc.stderr
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["find-ep", "sweep-ph", "scan-ep", "verify"])
    def test_out_in_a_missing_directory_is_a_config_error(self, command, tmp_path, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the run started with an unwritable out")

        for module, name in ((pt_ep, "find_ep"), (pt_ep, "scan"), (ph, "sweep"), (cli, "build_report")):
            monkeypatch.setattr(module, name, must_not_run)
        out = tmp_path / "missing" / "x.csv"
        assert main([command, "--out", str(out)]) == 1
        assert f"out: the directory of {str(out)!r} does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "empty"])
    def test_out_naming_no_file_exits_1_before_the_search(self, kind, tmp_path):
        # an unusable out fails at the boundary with the key named, not as a traceback after the search
        out = str(tmp_path) if kind == "directory" else ""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-m", "nhsense.cli", "find-ep", "--out", out],
                              env=env, capture_output=True, text=True, timeout=5.0)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"out: {out!r} is {'a directory' if out else 'empty'}, not a file path" in proc.stderr

    @pytest.mark.parametrize("kind", ["directory", "empty"])
    @pytest.mark.parametrize("command", ["find-ep", "sweep-ph", "scan-ep", "verify"])
    def test_out_naming_no_file_is_a_config_error(self, command, kind, tmp_path, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the run started with an unwritable out")

        for module, name in ((pt_ep, "find_ep"), (pt_ep, "scan"), (ph, "sweep"), (cli, "build_report")):
            monkeypatch.setattr(module, name, must_not_run)
        out = str(tmp_path) if kind == "directory" else ""
        assert main([command, "--out", out]) == 1
        assert f"out: {out!r} is" in capsys.readouterr().err

    def test_failed_write_exits_1_naming_out(self, tmp_path, monkeypatch, capsys):
        # the path passes the check at the boundary, so only the write fails
        def refuse(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "open", refuse, raising=False)
        out = str(tmp_path / "ep.csv")
        assert main(["find-ep", "--out", out]) == 1
        assert f"out: cannot write {out!r}: [Errno 28] No space left on device" in capsys.readouterr().err

    def test_default_scan_json_is_strict_json(self, tmp_path):
        # RFC 8259 has no NaN or Infinity token, so a non-finite value is null
        out = tmp_path / "scan.json"
        assert main(["scan-ep", "--format", "json", "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        rows = json.loads(out.read_text(), parse_constant=reject)["rows"]
        assert any(value is None for row in rows for value in row.values())

    @pytest.mark.parametrize("argv", [["find-ep", "--J", "1e300", "--omega", "1e300"],
                                      ["scan-ep", "--J", "1e300", "--omega", "1e300", "--grid-count", "2"]],
                             ids=" ".join)
    def test_overflowing_first_step_exits_2(self, argv, tmp_path):
        # the first step size overflows to nan; in a subprocess with a
        # timeout a hang fails the test instead of stalling the suite (J T is
        # 2 pi here: at omega 4 it would exceed the bound on the period's phase)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-m", "nhsense.cli", *argv, "--out", str(tmp_path / "o.csv")],
                              env=env, capture_output=True, text=True, timeout=5.0)
        assert proc.returncode == 2
        assert "initial step size is not finite" in proc.stderr

    @pytest.mark.parametrize("argv, keys", TOO_MANY_TURNS, ids=[" ".join(argv) for argv, _ in TOO_MANY_TURNS])
    def test_too_many_turns_per_period_exits_1(self, argv, keys, tmp_path):
        # J T or omega_delta T above MAX_PERIOD_PHASE: propagating the period
        # would not end in any useful time, so the configuration is rejected
        # before it starts
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-m", "nhsense.cli", *argv, "--out", str(tmp_path / "o.csv")],
                              env=env, capture_output=True, text=True, timeout=5.0)
        assert proc.returncode == 1
        assert all(key in proc.stderr for key in keys), proc.stderr

    @pytest.mark.parametrize("argv, key", OUT_OF_DOMAIN, ids=[" ".join(argv) for argv, _ in OUT_OF_DOMAIN])
    def test_out_of_domain_exits_1(self, argv, key, tmp_path):
        # each once ran for minutes, wrote inf or failed deep in the numerics
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-m", "nhsense.cli", *argv, "--out", str(tmp_path / "o.csv")],
                              env=env, capture_output=True, text=True, timeout=5.0)
        assert proc.returncode == 1
        assert key in proc.stderr and "Traceback" not in proc.stderr, proc.stderr

    @pytest.mark.parametrize("omega", ["1e-9", "1e-12", "1e-16"])
    def test_slow_qubit_sweep_ends_in_seconds(self, omega, tmp_path):
        # tau ~ 1/omega, so each tangent member spans 1e9 to 1e16; in units of its span the
        # tangent stays of the size of U, and the steps do not grow with tau
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        out = tmp_path / "o.csv"
        proc = subprocess.run([sys.executable, "-m", "nhsense.cli", "sweep-ph", "--omega", omega,
                               "--grid-count", "3", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=5.0)
        assert proc.returncode == 0, proc.stderr
        _, header, rows = read_csv(str(out))
        for row in rows:
            closed, numeric = (float(row[header.index(name)]) for name in ("qfi_closed", "qfi_numeric"))
            assert numeric == pytest.approx(closed, rel=1e-10, abs=0.0)

    def test_largest_coupling_in_the_domain_runs(self, tmp_path):
        # epsilon 5e76: Omega ~ 1e77, whose fourth power is still a finite float;
        # the sensitivity is 0/0 there (nan), every other column finite
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        out = tmp_path / "o.csv"
        proc = subprocess.run([sys.executable, "-m", "nhsense.cli", "sweep-ph", "--epsilon", "5e76",
                               "--grid-count", "3", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=5.0)
        assert proc.returncode == 0, proc.stderr
        _, header, rows = read_csv(str(out))
        assert len(rows) == 3 and all(math.isfinite(float(v)) for row in rows
                                      for name, v in zip(header, row) if name != "sensitivity")

    def test_bound_on_the_period_phase_is_inclusive(self, monkeypatch):
        # omega_delta T = MAX_PERIOD_PHASE exactly passes, the next float up fails
        monkeypatch.setattr(cli, "run", lambda config: 0)
        period = 2.0 * math.pi / 4.0
        top = pt_ep.MAX_PERIOD_PHASE / period
        while top * period > pt_ep.MAX_PERIOD_PHASE:
            top = math.nextafter(top, 0.0)
        assert main(["scan-ep", "--grid-stop", repr(top)]) == 0
        assert main(["scan-ep", "--grid-stop", repr(math.nextafter(top, math.inf))]) == 1

    @pytest.mark.parametrize("argv", [["scan-ep", "--grid-start", "1e-120", "--grid-count", "2"],
                                      ["scan-ep", "--omega", "1e300", "--grid-count", "2"]],
                             ids=" ".join)
    def test_underflowing_bound_integral_exits_0(self, argv, tmp_path):
        # omega_delta T ~ 1e-120 or 1e-301: the Hermitian bound is +inf, not a
        # ZeroDivisionError traceback
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        out = tmp_path / "o.csv"
        proc = subprocess.run([sys.executable, "-m", "nhsense.cli", *argv, "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=30.0)
        assert proc.returncode == 0, proc.stderr
        _, header, rows = read_csv(str(out))
        first = rows[0]
        assert first[header.index("hermitian_bound")] == "inf" and first[header.index("excluded_reason")]

    def test_default_scan_ep_propagation_batches(self, tmp_path, integrate_calls):
        # the Gamma pre-scan is one plain batch of 25 periods, Brent adds
        # serial periods, and the 80 rows are one tangent batch; each period
        # is one lam entry, on a grid of _PIECES intervals if plain, (0, T) if tangent
        plain = pt_ep._PIECES + 1
        assert main(["scan-ep", "--out", str(tmp_path / "scan.csv")]) == 0
        calls = [(n, points, tangent) for n, points, tangent, _ in integrate_calls]
        assert calls[0] == (25, plain, False) and calls[-1] == (80, 2, True)
        assert set(calls[1:-1]) == {(1, plain, False)} and len(calls[1:-1]) <= 6

    def test_scan_ep_with_hundreds_of_bound_lobes(self, tmp_path):
        # omega_delta T / pi = 450 and 500: the Hermitian bound integrates
        # over hundreds of |sin| lobes
        out = tmp_path / "scan.csv"
        assert main(["scan-ep", "--Gamma", "0.5", "--grid-start", "900", "--grid-stop", "1000",
                     "--grid-count", "2", "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        bounds = [float(r[header.index("hermitian_bound")]) for r in rows]
        assert len(bounds) == 2 and all(math.isfinite(b) and b > 0 for b in bounds)

    def test_find_ep_output(self, tmp_path):
        out = tmp_path / "ep.csv"
        assert main(["find-ep", "--J", "1", "--omega", "1", "--tol", "1e-10",
                     "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert header == ["J", "omega", "bracket_lo", "bracket_hi", "tol", "Gamma_EP"]
        assert float(rows[0][5]) == pytest.approx(0.6180339887499, abs=1e-9)

    @pytest.mark.parametrize("flags", [[f"--tol={v}"] for v in ("0", "-1", "nan", "inf")]
                             + [[f"{f}={v}"] for f in ("--J", "--omega", "--bracket-lo", "--bracket-hi")
                                for v in ("nan", "inf")]
                             + [["--J=-1"], ["--J=0"], ["--omega=0"], ["--omega=1e-300"], ["--J=1e300"],
                                ["--bracket-lo=3", "--bracket-hi=1"]],
                             ids=lambda flags: " ".join(flags).replace("=", "-"))
    def test_find_ep_rejects_bad_input(self, flags, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("bad input reached the root search")

        monkeypatch.setattr(pt_ep, "find_ep", must_not_run)
        start = time.perf_counter()
        assert main(["find-ep", *flags]) == 1
        assert time.perf_counter() - start < 5.0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep-ph", "--grid-count", "4", "--grid-start", "-0.2",
                "--grid-stop", "0.2", "--tol", "1e-8"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        # --threads is accepted and recorded, but every run is one batch
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep-ph", "--grid-count", "5", "--tol", "1e-9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--threads", "4", "--out", str(b)]) == 0
        # metadata differs only in the threads line; data rows must match exactly
        rows_a = [l for l in a.read_text().splitlines() if not l.startswith("#")]
        rows_b = [l for l in b.read_text().splitlines() if not l.startswith("#")]
        assert rows_a == rows_b


class TestImportPath:
    def test_default_runs_load_no_scipy(self, tmp_path):
        # scipy is a test dependency only: importing the CLI and the default
        # runs of all four subcommands must not load it
        script = f"""
import sys
from nhsense import cli
assert "scipy" not in sys.modules, "import nhsense.cli"
for argv in (["find-ep", "--out", {str(tmp_path / "ep.csv")!r}],
             ["scan-ep", "--grid-count", "3", "--out", {str(tmp_path / "scan.csv")!r}],
             ["sweep-ph", "--grid-count", "3", "--out", {str(tmp_path / "sweep.csv")!r}],
             ["verify", "--seed", "42", "--out", {str(tmp_path / "verify.csv")!r}]):
    assert cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv[0]
"""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_no_module_imports_scipy(self):
        # the run-time guard above misses a lazy import on a path those runs do not take
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
                assert not any(name.split(".")[0] == "scipy" for name in names), f"{path.name}:{node.lineno}"


class TestVerifySubcommand:
    def test_report_passes_and_is_deterministic(self, verify_report_42):
        # byte-identical reruns are criterion 10, against this same report
        code, report = verify_report_42
        assert code == 0
        payload = json.loads(report)
        assert payload["overall_pass"] is True
        assert all(set(r) == {"check", "target", "observed", "tolerance", "passed"}
                   for r in payload["rows"])

    def test_csv_report_has_overall_row(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["verify", "--seed", "13", "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert header == ["check", "target", "observed", "tolerance", "passed"]
        assert rows[-1][0] == "overall"
        assert rows[-1][4] == "true"


def compare_to_fixture(generated: Path, pinned: Path):
    """Assert that the artifact `generated` matches the pinned one: metadata and text exactly,
    numbers within rel 1e-9 (abs 1e-12)."""
    meta_g, header_g, rows_g = read_csv(str(generated))
    meta_p, header_p, rows_p = read_csv(str(pinned))
    assert meta_g == meta_p
    assert header_g == header_p
    assert len(rows_g) == len(rows_p)
    for row_g, row_p in zip(rows_g, rows_p):
        for col, (sg, sp) in enumerate(zip(row_g, row_p)):
            try:
                vg, vp = float(sg), float(sp)
            except ValueError:
                assert sg == sp
                continue
            if math.isnan(vp):
                assert math.isnan(vg)
            else:
                assert vg == pytest.approx(vp, rel=1e-9, abs=1e-12), (
                    f"{header_g[col]} at {header_g[0]}={row_p[0]}: pinned {sp}, generated {sg}")


class TestRegressionFixtures:
    """Self-oracle CSVs pinned at the first verified build."""

    def test_sweep_default_fixture(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-ph", "--out", str(out)]) == 0
        compare_to_fixture(out, FIXTURES / "sweep_ph_default.csv")

    def test_scan_default_fixture(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan-ep", "--out", str(out)]) == 0
        compare_to_fixture(out, FIXTURES / "scan_ep_default.csv")


def dispatched_cpu_features() -> list[str]:
    """The optional SIMD targets numpy dispatches to on this machine, named as NPY_DISABLE_CPU_FEATURES
    takes them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]


# each setting is set in the child processes alone
BUILDS = {"default": {}, "openblas-sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
          "numpy-baseline-simd": {"NPY_DISABLE_CPU_FEATURES": " ".join(dispatched_cpu_features())}}
BUILD_RUNS = {"find-ep": ["find-ep"], "scan-ep": ["scan-ep"], "sweep-ph": ["sweep-ph"],
              "verify": ["verify", "--seed", "42", "--format", "json"]}


@pytest.fixture(scope="module")
def build_runs(tmp_path_factory):
    """{build: {run: (exit code, stderr, artifact path)}}: the default runs of BUILD_RUNS in child
    processes under each setting of BUILDS, the runs of one setting side by side (verify once per
    other setting; the default build's report is `verify_report_42`)."""
    runs = {}
    for build, setting in BUILDS.items():
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]), **setting}
        folder = tmp_path_factory.mktemp(build)
        children = {
            run: (subprocess.Popen([sys.executable, "-m", "nhsense.cli", *argv, "--out", str(folder / run)],
                                   env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True),
                  folder / run)
            for run, argv in BUILD_RUNS.items() if run != "verify" or setting}
        runs[build] = {run: (child.wait(timeout=60), child.communicate()[1], out)
                       for run, (child, out) in children.items()}
    return runs


class TestAcrossBuilds:
    """What holds per build and across builds of numpy and OpenBLAS."""

    def test_restricted_simd_child_runs_without_its_targets(self):
        env = {**os.environ, **BUILDS["numpy-baseline-simd"]}
        script = inspect.getsource(dispatched_cpu_features) + "print(dispatched_cpu_features())"
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=30)
        assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stderr

    def test_openblas_core_type_leaves_the_ep_artifacts_byte_identical(self, build_runs):
        # the EP runs are 2-dim, their stage sums and products elementwise: no BLAS kernel in them
        for run in ("find-ep", "scan-ep"):
            artifacts = [build_runs[build][run][2].read_bytes()
                         for build in ("default", "openblas-sandybridge")]
            assert artifacts[0] == artifacts[1], run

    @pytest.mark.parametrize("build", list(BUILDS))
    def test_every_build_within_the_fixture_gates(self, build_runs, build):
        runs = build_runs[build]
        assert all(code == 0 for code, _, _ in runs.values()), {run: err for run, (_, err, _) in runs.items()}
        compare_to_fixture(runs["scan-ep"][2], FIXTURES / "scan_ep_default.csv")
        compare_to_fixture(runs["sweep-ph"][2], FIXTURES / "sweep_ph_default.csv")
        _, _, rows = read_csv(str(runs["find-ep"][2]))
        assert abs(float(rows[0][5]) - GAMMA_EP_J1_W4) <= 1e-10  # find-ep's default tol
        if "verify" in runs:
            assert json.loads(runs["verify"][2].read_text())["overall_pass"] is True


SCENARIO_OF = {"sweep-ph": "pseudo-hermitian", "scan-ep": "pt-ep", "verify": "verify"}
COMMON_FLAGS = {"--out", "--format", "--threads", "--seed", "--tol"}
FLAGS = {
    "sweep-ph": COMMON_FLAGS | {"--epsilon", "--omega", "--nu", "--grid-start", "--grid-stop",
                                "--grid-count"},
    "scan-ep": COMMON_FLAGS | {"--J", "--Gamma", "--omega", "--delta", "--nu", "--grid-start",
                               "--grid-stop", "--grid-count"},
    "verify": COMMON_FLAGS,
}
# every config key but `scenario`, each with a valid value that is not its default
NON_DEFAULT = {
    "out": "elsewhere.csv", "format": "json", "threads": "2", "seed": "5", "tol": "1e-09",
    "scenario.pseudo-hermitian.epsilon": "0.2", "scenario.pseudo-hermitian.omega": "2.0",
    "scenario.pseudo-hermitian.nu": "3", "scenario.pseudo-hermitian.grid.start": "-0.3",
    "scenario.pseudo-hermitian.grid.stop": "0.4", "scenario.pseudo-hermitian.grid.count": "5",
    "scenario.pt-ep.J": "1.5", "scenario.pt-ep.Gamma": "0.7", "scenario.pt-ep.omega": "3.0",
    "scenario.pt-ep.delta": "0.02", "scenario.pt-ep.nu": "2", "scenario.pt-ep.grid.start": "0.1",
    "scenario.pt-ep.grid.stop": "1.0", "scenario.pt-ep.grid.count": "7",
}


def own_keys(scenario: str) -> list[str]:
    """The common keys and the keys of one scenario."""
    return [k for k in NON_DEFAULT
            if not k.startswith("scenario.") or k.startswith(f"scenario.{scenario}.")]


def flag_of(key: str, scenario: str) -> str:
    return "--" + key.removeprefix(f"scenario.{scenario}.").replace(".", "-")


def must_not_run(*args, **kwargs):
    raise AssertionError("bad input got past the configuration check")


SWEEP_FLOATS = {"--tol": "tol", "--epsilon": "scenario.pseudo-hermitian.epsilon",
                "--omega": "scenario.pseudo-hermitian.omega",
                "--grid-start": "scenario.pseudo-hermitian.grid.start",
                "--grid-stop": "scenario.pseudo-hermitian.grid.stop"}
SCAN_FLOATS = {"--tol": "tol", "--J": "scenario.pt-ep.J", "--Gamma": "scenario.pt-ep.Gamma",
               "--omega": "scenario.pt-ep.omega", "--delta": "scenario.pt-ep.delta",
               "--grid-start": "scenario.pt-ep.grid.start", "--grid-stop": "scenario.pt-ep.grid.stop"}
BAD_INPUT = (
    [(["sweep-ph", f"{flag}={v}"], key) for flag, key in SWEEP_FLOATS.items() for v in ("nan", "inf")]
    + [(["scan-ep", f"{flag}={v}"], key) for flag, key in SCAN_FLOATS.items() for v in ("nan", "inf")]
    + [(["sweep-ph", "--nu=0"], "scenario.pseudo-hermitian.nu"),
       (["scan-ep", "--nu=0"], "scenario.pt-ep.nu"),
       (["scan-ep", "--grid-start=0"], "scenario.pt-ep.grid.start"),
       (["scan-ep", "--Gamma=-1"], "scenario.pt-ep.Gamma"),
       (["sweep-ph", "--epsilon=0"], "scenario.pseudo-hermitian.epsilon"),
       (["sweep-ph", "--epsilon=1e300"], "scenario.pseudo-hermitian.epsilon"),
       (["scan-ep", "--omega=1e-300"], "scenario.pt-ep.omega"),
       (["scan-ep", "--grid-stop=1e200"], "scenario.pt-ep.grid.stop"),
       (["verify", "--seed=-1"], "seed")]
)


class TestConfigTable:
    """One declaration of keys and flags; bad values stop at the config boundary."""

    @pytest.fixture
    def no_runs(self, monkeypatch):
        for module, name in ((ph, "sweep"), (pt_ep, "scan"), (pt_ep, "find_ep"),
                             (cli, "build_report")):
            monkeypatch.setattr(module, name, must_not_run)

    @pytest.mark.parametrize("argv, key", BAD_INPUT, ids=[" ".join(a) for a, _ in BAD_INPUT])
    def test_bad_flag_exits_1_naming_the_key(self, argv, key, no_runs, capsys):
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 5.0
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command, line", [
        ("scan-ep", "scenario.pt-ep.delta=inf"),
        ("scan-ep", "scenario.pt-ep.Gamma=-1"),
        ("sweep-ph", "scenario.pseudo-hermitian.epsilon=nan"),
        ("sweep-ph", "scenario.pseudo-hermitian.nu=0"),
        ("verify", "seed=-1"),
    ])
    def test_bad_config_line_exits_1_naming_the_key(self, command, line, no_runs, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        start = time.perf_counter()
        assert main([command, "--config", str(cfg)]) == 1
        assert time.perf_counter() - start < 5.0
        assert line.partition("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("command", SCENARIO_OF)
    def test_each_flag_sets_the_field_of_its_key(self, command, monkeypatch, tmp_path, capsys):
        scenario = SCENARIO_OF[command]
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert set(re.findall(r"--[\w-]+", capsys.readouterr().out)) == FLAGS[command] | {
            "--help", "--config"}
        captured = []
        monkeypatch.setattr(cli, "run", lambda config: captured.append(config) or 0)
        default = validate(ScenarioConfig(scenario=scenario))
        cfg = tmp_path / "one.cfg"
        for key in own_keys(scenario):
            cfg.write_text(f"{key}={NON_DEFAULT[key]}\n")
            assert main([command, f"{flag_of(key, scenario)}={NON_DEFAULT[key]}"]) == 0
            assert main([command, "--config", str(cfg)]) == 0
            by_flag, by_key = captured[-2:]
            assert by_flag == by_key != default, key

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", SCENARIO_OF)
    def test_every_field_round_trips_through_metadata(self, command, fmt, monkeypatch, tmp_path):
        monkeypatch.setattr(ph, "sweep", lambda *args, **kwargs: [])
        monkeypatch.setattr(pt_ep, "scan", lambda *args, **kwargs: [])
        monkeypatch.setattr(cli, "build_report", lambda seed: VerificationReport(seed, ()))
        scenario = SCENARIO_OF[command]
        lines = [f"{k}={v}" for k, v in {**NON_DEFAULT, "format": fmt}.items()]
        cfg = tmp_path / "all.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / f"o.{fmt}"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        reparsed = read_metadata(str(out))
        own = [line for line in lines if line.partition("=")[0] in own_keys(scenario)]
        expected = parse_config_lines([f"scenario={scenario}"] + own)
        expected.out = None  # the output path is not metadata
        assert reparsed == expected
