"""Generate the tight-tolerance reference for the default `scan-ep` run.

The reference is computed through public functions only, at tolerances well
below the CLI defaults, so that `max_rel_err` measures the error of a default
run rather than agreement with an earlier run of the same code:

- Gamma_EP from `find_ep(tol=1e-12, prop_tol=1e-13)`;
- P_J, P_Gamma from `propagate_period(tol=1e-13)`;
- chi_E from `ep_susceptibility(tol=1e-13, rel_step=1e-4)`, cross-checked
  against `rel_step=1e-3`; the relative difference of the two is stored as
  the reference's own step spread.

Usage (from the repository root, takes about a minute):

    python3 perfbench/make_scan_ref.py [--out perfbench/data/scan_ep_ref.json]
"""

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from nhsense import cli, pt_ep  # noqa: E402
from nhsense.errors import DomainError  # noqa: E402

FIND_EP_TOL = 1e-12
PROP_TOL = 1e-13
REL_STEP = 1e-4
CROSS_REL_STEP = 1e-3


def reference_row(p: pt_ep.PtEpParams) -> dict:
    pj, pg = pt_ep.pj_pgamma(pt_ep.propagate_period(p, tol=PROP_TOL))
    row = {"omega_delta": p.omega_delta, "PJ": pj, "PGamma": pg, "excluded": True,
           "E_res": None, "chi_E": None, "sensitivity": None, "chi_step_spread": None}
    if not (pt_ep.DIFF_FLOOR < pj - pg < 1.0 - pt_ep.DIFF_FLOOR):
        return row
    try:
        chi = pt_ep.ep_susceptibility(p, tol=PROP_TOL, rel_step=REL_STEP)
        chi_cross = pt_ep.ep_susceptibility(p, tol=PROP_TOL, rel_step=CROSS_REL_STEP)
    except DomainError:
        return row
    var = pt_ep.response_variance(pj, pg, p.C0, p.nu, p.T)
    row.update(excluded=False, E_res=pt_ep.response_energy(pj, pg, p.T), chi_E=chi,
               sensitivity=math.sqrt(var) / chi, chi_step_spread=abs(chi - chi_cross) / chi)
    return row


def build_reference() -> dict:
    config = cli.validate(cli.ScenarioConfig(scenario="pt-ep"))
    gamma = pt_ep.find_ep(config.ep_J, config.ep_omega, tol=FIND_EP_TOL, prop_tol=PROP_TOL)
    base = pt_ep.PtEpParams(J=config.ep_J, Gamma=gamma, omega=config.ep_omega,
                            delta=config.ep_delta, omega_delta=1.0, nu=config.ep_nu)
    grid = np.linspace(config.ep_grid_start, config.ep_grid_stop, config.ep_grid_count)
    rows = [reference_row(replace(base, omega_delta=float(wd))) for wd in grid]
    spreads = [r["chi_step_spread"] for r in rows if not r["excluded"]]
    return {
        "config": {"J": config.ep_J, "omega": config.ep_omega, "delta": config.ep_delta,
                   "nu": config.ep_nu, "grid_start": config.ep_grid_start,
                   "grid_stop": config.ep_grid_stop, "grid_count": config.ep_grid_count},
        "tolerances": {"find_ep_tol": FIND_EP_TOL, "prop_tol": PROP_TOL,
                       "rel_step": REL_STEP, "cross_rel_step": CROSS_REL_STEP},
        "Gamma_EP": gamma,
        "chi_step_spread_max": max(spreads),
        "rows": rows,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(Path(__file__).parent / "data" / "scan_ep_ref.json"))
    args = parser.parse_args()
    ref = build_reference()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"Gamma_EP={ref['Gamma_EP']!r} chi_step_spread_max={ref['chi_step_spread_max']:.3g} "
          f"excluded={sum(r['excluded'] for r in ref['rows'])} -> {args.out}")


if __name__ == "__main__":
    main()
