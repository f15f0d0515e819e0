"""max_rel_err and the scan-ep artifact check against the stored reference."""

import json
import math
from pathlib import Path

import pytest

import checks

REF = json.loads((Path(checks.__file__).parent / "data" / "scan_ep_ref.json").read_text())


def test_max_rel_err_counts_nonfinite_without_masking():
    nan = float("nan")
    assert checks.max_rel_err([]) == (0.0, 0)
    assert checks.max_rel_err([(nan, 1.0), (1.5, 1.0), (2.0, 2.0)]) == (0.5, 1)
    assert checks.max_rel_err([(1.5, 1.0), (nan, 1.0)]) == (0.5, 1)
    assert checks.max_rel_err([(math.inf, 1.0), (-1.0, -2.0)]) == (0.5, 1)


def scan_csv(tmp_path, rows, extra_meta=()) -> str:
    lines = ["# scenario=pt-ep", f"# scenario.pt-ep.Gamma={REF['Gamma_EP']!r}", *extra_meta,
             ",".join(checks.SCAN_HEADER)]
    for r in rows:
        values = [r["omega_delta"], r["PJ"], r["PGamma"], r["E_res"], 1.0, r["chi_E"],
                  r["sensitivity"], 1.0, "excluded" if r["excluded"] else ""]
        lines.append(",".join("nan" if v is None else repr(v) if isinstance(v, float) else str(v)
                              for v in values))
    path = tmp_path / "scan.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_scan_reference_copy_has_zero_error(tmp_path):
    assert checks.check_scan(scan_csv(tmp_path, REF["rows"]), REF) == ([], 0.0)


def test_scan_error_ignores_excluded_rows_and_flags_nan(tmp_path):
    rows = [dict(r) for r in REF["rows"]]
    included = [i for i, r in enumerate(rows) if not r["excluded"]]
    excluded = [i for i, r in enumerate(rows) if r["excluded"]]
    rows[included[3]]["chi_E"] *= 1.0 + 2e-7
    rows[excluded[0]]["PJ"] *= 2.0      # excluded rows are not compared
    problems, err = checks.check_scan(scan_csv(tmp_path, rows), REF)
    assert problems == [] and err == pytest.approx(2e-7, rel=1e-6)

    rows[included[5]]["sensitivity"] = float("nan")
    problems, err = checks.check_scan(scan_csv(tmp_path, rows), REF)
    assert len(problems) == 1 and "non-finite ['sensitivity']" in problems[0]
    assert err == pytest.approx(2e-7, rel=1e-6)


def test_scan_flags_changed_exclusions_and_metadata(tmp_path):
    rows = [dict(r) for r in REF["rows"]]
    rows[0] = dict(rows[7], omega_delta=rows[0]["omega_delta"])  # row 0 no longer excluded
    problems, _ = checks.check_scan(scan_csv(tmp_path, rows), REF)
    assert any("reference excluded=True" in p for p in problems)

    problems, _ = checks.check_scan(scan_csv(tmp_path, REF["rows"], ["# tol=1e-09"]), REF)
    assert len(problems) == 1 and problems[0].startswith("metadata re-parses")
