"""Correctness checks on the artifact of one benchmark run.

Each `check_*` function takes the artifact's path and returns the list of
problems found (empty when the run is correct) and the run's `max_rel_err`.
A run with any problem counts as a failed operation.
"""

import csv
import json
import math
from dataclasses import replace

from nhsense import cli

SCAN_HEADER = ["omega_delta", "PJ", "PGamma", "E_res", "var_E", "chi_E", "sensitivity",
               "hermitian_bound", "excluded_reason"]
SCAN_ERR_COLUMNS = ("PJ", "PGamma", "E_res", "chi_E", "sensitivity")
# Columns an excluded scan row still carries.
SCAN_ALWAYS_FINITE = ("omega_delta", "PJ", "PGamma", "hermitian_bound")
VERIFY_KEYS = ["check", "target", "observed", "tolerance", "passed"]
VERIFY_CHECKS = frozenset((
    "seminorm-triangle", "seminorm-unitary-invariance", "variance-bound",
    "covariance-inequality", "expm-unitarity", "seminorm-additivity", "qfi-channel-bound",
    "qfi-rate-bound", "qfi-nonnegative", "qfi-oracle-agreement", "ph-qfi-closed-vs-numeric",
    "ph-rate-band", "ph-channel-bound", "ph-dilation-equivalence", "ph-p1-closed-form",
    "ph-sensitivity-bound", "ph-susceptibility-divergence", "ep-variance-composition",
    "ep-bound-quadrature-vs-closed", "ep-hermitian-limit-unitarity",
    "ep-hermitian-limit-response", "ep-sensitivity-bound", "ep-sensitivity-plateau",
    "ep-divergence-cancellation", "noise-monte-carlo"))
# Gamma_EP of a default run is located at tol=1e-12 with 1e-12 propagations;
# the reference uses 1e-13 propagations.
GAMMA_ATOL = 1e-9


def max_rel_err(pairs) -> tuple[float, int]:
    """Largest |run - ref| / |ref| over (run, ref) pairs.

    Non-finite run values are counted and left out of the maximum, so one
    NaN cannot hide or replace the largest finite error.  Returns (maximum,
    count of non-finite run values); the maximum is 0.0 when nothing was
    compared.
    """
    worst, nonfinite = 0.0, 0
    for run, ref in pairs:
        if not math.isfinite(run):
            nonfinite += 1
            continue
        worst = max(worst, abs(run - ref) / abs(ref))
    return worst, nonfinite


def expected_config(scenario: str, fmt: str, seed: int = 0) -> cli.ScenarioConfig:
    """The effective configuration of a default run with --threads 1."""
    return cli.validate(cli.ScenarioConfig(scenario=scenario, format=fmt, threads=1, seed=seed))


def _parse_csv(path: str):
    with open(path, encoding="utf-8") as fh:
        table = list(csv.reader(line for line in fh if not line.startswith("#")))
    return table[0] if table else [], table[1:]


def _config_problems(reparsed: cli.ScenarioConfig, expected: cli.ScenarioConfig) -> list[str]:
    reparsed = cli.validate(reparsed)
    if reparsed != expected:
        return [f"metadata re-parses to {reparsed}, expected {expected}"]
    return []


def check_scan(path: str, ref: dict) -> tuple[list[str], float]:
    header, rows = _parse_csv(path)
    expected = expected_config("pt-ep", "csv")
    if header != SCAN_HEADER:
        return [f"scan header {header}"], 0.0
    if len(rows) != expected.ep_grid_count or len(rows) != len(ref["rows"]):
        return [f"scan has {len(rows)} rows, expected {expected.ep_grid_count}"], 0.0
    reparsed = cli.read_metadata(path)
    problems = []
    if reparsed.ep_Gamma is None or not abs(reparsed.ep_Gamma - ref["Gamma_EP"]) <= GAMMA_ATOL:
        problems.append(f"Gamma_EP {reparsed.ep_Gamma!r} vs reference {ref['Gamma_EP']!r}")
    problems += _config_problems(replace(reparsed, ep_Gamma=None), expected)

    pairs = []
    for row, ref_row in zip(rows, ref["rows"]):
        rec = dict(zip(header, row))
        reason = rec.pop("excluded_reason")
        rec = {c: float(v) for c, v in rec.items()}
        where = f"scan row omega_delta={rec['omega_delta']!r}"
        if rec["omega_delta"] != ref_row["omega_delta"]:
            problems.append(f"{where}: reference row is at {ref_row['omega_delta']!r}")
        if bool(reason) != ref_row["excluded"]:
            problems.append(f"{where}: excluded={bool(reason)}, "
                            f"reference excluded={ref_row['excluded']}")
        columns = SCAN_ALWAYS_FINITE if reason else rec
        bad = [c for c in columns if not math.isfinite(rec[c])]
        if bad:
            problems.append(f"{where}: non-finite {bad}")
        if not reason and not ref_row["excluded"]:
            pairs += [(rec[c], ref_row[c]) for c in SCAN_ERR_COLUMNS]
    err, _ = max_rel_err(pairs)
    return problems, err


def check_verify(path: str, seed: int) -> tuple[list[str], float]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if sorted(payload) != ["metadata", "overall_pass", "rows"]:
        return [f"verify keys {sorted(payload)}"], 0.0
    rows = payload["rows"]
    if any(list(row) != VERIFY_KEYS for row in rows):
        return ["verify row keys differ from " + ",".join(VERIFY_KEYS)], 0.0
    names = [row["check"] for row in rows]
    missing = VERIFY_CHECKS - set(names)
    if missing or len(set(names)) != len(names):
        return [f"verify checks missing {sorted(missing)} or repeated"], 0.0
    # read_metadata parses '#' lines; a JSON artifact carries the same
    # key=value pairs in its metadata object.
    lines = [f"{key}={value}" for key, value in payload["metadata"].items()]
    problems = _config_problems(cli.parse_config_lines(lines),
                                expected_config("verify", "json", seed))
    if payload["overall_pass"] is not True:
        problems.append("verify overall_pass is not true")
    bad = [row["check"] for row in rows if not math.isfinite(row["observed"])]
    if bad:
        problems.append(f"verify: non-finite observed values in {bad}")
    # The report's own relative-mismatch checks (closed-form vs propagated
    # QFI, quadrature vs closed-form bound) are its relative errors.
    rel = [row["observed"] for row in rows if row["target"].startswith("relative mismatch")]
    return problems, max(rel)
