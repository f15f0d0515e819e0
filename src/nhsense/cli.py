"""Command-line entry point.

Subcommands:
    sweep-ph   dilated-sensor sweep over the encoded parameter
    scan-ep    EP-sensor scan over the perturbation frequency
    find-ep    locate the dissipation rate of the phase boundary
    verify     run the inequality suites and emit a machine-readable report

Configuration is flat key=value text with section prefixes, e.g.
`scenario.pt-ep.J=1.0`; command-line flags override file values.  Outputs
carry their effective configuration as `# key=value` metadata lines, so a
produced file re-parses into the configuration that made it.

Exit codes: 0 success, 1 configuration error, 2 numerical-domain failure,
3 verification failure.
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from . import pseudo_hermitian as ph
from . import pt_ep
from .errors import DomainError, PropagationError
from .evolution import TOL_MAX, TOL_MIN
from .verification import VerificationReport, build_report

SCENARIOS = ("pseudo-hermitian", "pt-ep", "verify")
FORMATS = ("csv", "json")

FIND_EP_COLUMNS = ("J", "omega", "bracket_lo", "bracket_hi", "tol", "Gamma_EP")
VERIFY_COLUMNS = ("check", "target", "observed", "tolerance", "passed")


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


@dataclass
class ScenarioConfig:
    scenario: str = ""
    out: str | None = None
    format: str = "csv"
    threads: int = 1
    seed: int = 0
    tol: float = 1e-10
    ph_epsilon: float = 0.1
    ph_omega: float = 1.0
    ph_nu: int = 1
    ph_grid_start: float | None = None  # default -0.5 * ph_omega
    ph_grid_stop: float | None = None   # default +0.5 * ph_omega
    ph_grid_count: int = 201
    ep_J: float = 1.0
    ep_Gamma: float | None = None       # default: resolved by find_ep
    ep_omega: float = 4.0
    ep_delta: float = 0.05
    ep_nu: int = 1
    ep_grid_start: float = 0.05
    ep_grid_stop: float = 2.0
    ep_grid_count: int = 80


# config key -> (attribute, parser)
_KEY_MAP = {
    "scenario": ("scenario", str),
    "out": ("out", str),
    "format": ("format", str),
    "threads": ("threads", int),
    "seed": ("seed", int),
    "tol": ("tol", float),
    "scenario.pseudo-hermitian.epsilon": ("ph_epsilon", float),
    "scenario.pseudo-hermitian.omega": ("ph_omega", float),
    "scenario.pseudo-hermitian.nu": ("ph_nu", int),
    "scenario.pseudo-hermitian.grid.start": ("ph_grid_start", float),
    "scenario.pseudo-hermitian.grid.stop": ("ph_grid_stop", float),
    "scenario.pseudo-hermitian.grid.count": ("ph_grid_count", int),
    "scenario.pt-ep.J": ("ep_J", float),
    "scenario.pt-ep.Gamma": ("ep_Gamma", float),
    "scenario.pt-ep.omega": ("ep_omega", float),
    "scenario.pt-ep.delta": ("ep_delta", float),
    "scenario.pt-ep.nu": ("ep_nu", int),
    "scenario.pt-ep.grid.start": ("ep_grid_start", float),
    "scenario.pt-ep.grid.stop": ("ep_grid_stop", float),
    "scenario.pt-ep.grid.count": ("ep_grid_count", int),
}
_ATTR_TO_KEY = {attr: key for key, (attr, _) in _KEY_MAP.items()}


def _apply_kv(config: ScenarioConfig, key: str, value: str, where: str) -> None:
    if key == "version":
        return  # recorded in metadata, accepted on re-parse
    if key not in _KEY_MAP:
        raise ConfigError(f"{where}: unknown key {key!r}")
    attr, parser = _KEY_MAP[key]
    try:
        setattr(config, attr, parser(value))
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {value!r} for key {key!r}") from None


def parse_config_lines(lines, config: ScenarioConfig | None = None,
                       source: str = "<config>", strip_comment_prefix: bool = False) -> ScenarioConfig:
    """Apply key=value lines to a configuration.

    With strip_comment_prefix the lines are metadata of an emitted artifact
    ('# key=value'); otherwise '#' lines are comments and skipped.
    """
    config = config or ScenarioConfig()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not strip_comment_prefix:
                continue
            line = line.lstrip("#").strip()
            if not line:
                continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        _apply_kv(config, key.strip(), value.strip(), f"{source}:{lineno}")
    return config


def parse_config(path: str, config: ScenarioConfig | None = None) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return parse_config_lines(lines, config, source=path)


def read_metadata(path: str) -> ScenarioConfig:
    """Re-parse the '# key=value' metadata header of an emitted artifact."""
    with open(path, encoding="utf-8") as fh:
        header = [line for line in fh if line.startswith("#")]
    return parse_config_lines(header, source=path, strip_comment_prefix=True)


def validate(config: ScenarioConfig) -> ScenarioConfig:
    if config.scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {config.scenario!r}")
    if config.format not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {config.format!r}")
    if config.threads < 1:
        raise ConfigError("threads must be >= 1")
    if not (TOL_MIN <= config.tol <= TOL_MAX):
        raise ConfigError(f"tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}]")
    if config.ph_grid_start is None:
        config.ph_grid_start = -0.5 * config.ph_omega
    if config.ph_grid_stop is None:
        config.ph_grid_stop = 0.5 * config.ph_omega
    for start, stop, count, label in (
            (config.ph_grid_start, config.ph_grid_stop, config.ph_grid_count, "pseudo-hermitian"),
            (config.ep_grid_start, config.ep_grid_stop, config.ep_grid_count, "pt-ep")):
        if count < 2:
            raise ConfigError(f"{label} grid count must be >= 2")
        if not start < stop:
            raise ConfigError(f"{label} grid start must be < stop")
    return config


# ----------------------------------------------------------------- emission

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _metadata_items(config: ScenarioConfig) -> list[tuple[str, str]]:
    items = [("version", __version__)]
    skip_prefix = {"pseudo-hermitian": "ep_", "pt-ep": "ph_", "verify": "_"}[config.scenario]
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None or f.name == "out":
            continue
        if config.scenario == "verify" and f.name.startswith(("ph_", "ep_")):
            continue
        if f.name.startswith(skip_prefix):
            continue
        items.append((_ATTR_TO_KEY[f.name], _fmt(value)))
    return items


def _emit(metadata: list[tuple[str, str]], columns: tuple[str, ...], rows: list[dict],
          fmt: str, out: str | None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        for key, value in metadata:
            buf.write(f"# {key}={value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        text = buf.getvalue()
    else:
        payload = {
            "metadata": dict(metadata),
            "rows": [{c: row[c] for c in columns} for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    _write(text, out)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# --------------------------------------------------------------------- runs

def run(config: ScenarioConfig) -> int:
    """Execute a validated scenario; returns the process exit code."""
    if config.scenario == "pseudo-hermitian":
        grid = np.linspace(config.ph_grid_start, config.ph_grid_stop, config.ph_grid_count)
        rows = ph.sweep(config.ph_epsilon, config.ph_omega, grid, nu=config.ph_nu,
                        tol=config.tol, threads=config.threads)
        _emit(_metadata_items(config), ph.SWEEP_COLUMNS,
              [_asdict(row) for row in rows], config.format, config.out)
        return 0

    if config.scenario == "pt-ep":
        gamma = config.ep_Gamma
        if gamma is None:
            gamma = pt_ep.find_ep(config.ep_J, config.ep_omega, tol=1e-12)
        effective = replace(config, ep_Gamma=float(gamma))
        base = pt_ep.PtEpParams(J=config.ep_J, Gamma=float(gamma), omega=config.ep_omega,
                                delta=config.ep_delta, omega_delta=1.0, nu=config.ep_nu)
        grid = np.linspace(config.ep_grid_start, config.ep_grid_stop, config.ep_grid_count)
        rows = pt_ep.scan(base, grid, tol=config.tol, threads=config.threads)
        _emit(_metadata_items(effective), pt_ep.SCAN_COLUMNS,
              [_asdict(row) for row in rows], config.format, config.out)
        return 0

    # verify
    report = build_report(config.seed)
    _emit_report(config, report)
    return 0 if report.overall_pass else 3


def _asdict(row) -> dict:
    return {f.name: getattr(row, f.name) for f in fields(row)}


def _emit_report(config: ScenarioConfig, report: VerificationReport) -> None:
    rows = [{"check": c.name, "target": c.target, "observed": c.observed,
             "tolerance": c.tolerance, "passed": c.passed} for c in report.checks]
    if config.format == "csv":
        rows.append({"check": "overall", "target": "conjunction of all checks",
                     "observed": 0.0, "tolerance": 0.0, "passed": report.overall_pass})
        _emit(_metadata_items(config), VERIFY_COLUMNS, rows, "csv", config.out)
    else:
        payload = {
            "metadata": dict(_metadata_items(config)),
            "rows": rows,
            "overall_pass": report.overall_pass,
        }
        _write(json.dumps(payload, indent=2) + "\n", config.out)


def run_find_ep(args) -> int:
    for flag in ("J", "omega", "bracket_lo", "bracket_hi", "tol"):
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"--{flag.replace('_', '-')} must be finite, got {value}")
    if not args.tol > 0:
        raise ConfigError(f"--tol must be > 0, got {args.tol}")
    lo, hi = pt_ep.default_ep_bracket(args.J)
    if args.bracket_lo is not None:
        lo = args.bracket_lo
    if args.bracket_hi is not None:
        hi = args.bracket_hi
    gamma = pt_ep.find_ep(args.J, args.omega, bracket=(lo, hi), tol=args.tol)
    row = {"J": args.J, "omega": args.omega, "bracket_lo": lo, "bracket_hi": hi,
           "tol": args.tol, "Gamma_EP": gamma}
    _emit([("version", __version__)], FIND_EP_COLUMNS, [row], args.format, args.out)
    return 0


# ---------------------------------------------------------------- arguments

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value configuration file")
    sub.add_argument("--out", help="output path (stdout when omitted)")
    sub.add_argument("--format", choices=FORMATS, help="output format (default csv)")
    sub.add_argument("--threads", type=int, help="row-level worker threads (default 1)")
    sub.add_argument("--seed", type=int, help="seed for the verification suites")
    sub.add_argument("--tol", type=float, help="integration error target (default 1e-10)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nhsense",
                     description="Sensitivity bounds for non-Hermitian quantum sensors")
    parser.add_argument("--version", action="version", version=f"nhsense {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("sweep-ph", help="dilated-sensor sweep over the encoded parameter")
    _add_common(sweep)
    sweep.add_argument("--epsilon", type=float, help="dilation parameter (default 0.1)")
    sweep.add_argument("--omega", type=float, help="qubit frequency (default 1.0)")
    sweep.add_argument("--nu", type=int, help="projection trials per point (default 1)")
    sweep.add_argument("--grid-start", type=float, help="first lam (default -omega/2)")
    sweep.add_argument("--grid-stop", type=float, help="last lam (default +omega/2)")
    sweep.add_argument("--grid-count", type=int, help="grid points (default 201)")

    scan = subs.add_parser("scan-ep", help="EP-sensor scan over the perturbation frequency")
    _add_common(scan)
    scan.add_argument("--J", type=float, help="coupling strength (default 1.0)")
    scan.add_argument("--Gamma", type=float, help="dissipation rate (default: located EP)")
    scan.add_argument("--omega", type=float, help="drive frequency (default 4.0)")
    scan.add_argument("--delta", type=float, help="perturbation amplitude (default 0.05)")
    scan.add_argument("--nu", type=int, help="projection trials per point (default 1)")
    scan.add_argument("--grid-start", type=float, help="first omega_delta (default 0.05)")
    scan.add_argument("--grid-stop", type=float, help="last omega_delta (default 2.0)")
    scan.add_argument("--grid-count", type=int, help="grid points (default 80)")

    verify = subs.add_parser("verify", help="run the inequality suites, emit a report")
    _add_common(verify)

    find = subs.add_parser("find-ep", help="locate the dissipation rate of the phase boundary")
    find.add_argument("--J", type=float, default=1.0)
    find.add_argument("--omega", type=float, default=4.0)
    find.add_argument("--bracket-lo", type=float, help="default 0.01 J")
    find.add_argument("--bracket-hi", type=float, help="default 3 J")
    find.add_argument("--tol", type=float, default=1e-10, help="root tolerance in Gamma (default 1e-10)")
    find.add_argument("--out", help="output path (stdout when omitted)")
    find.add_argument("--format", choices=FORMATS, default="csv")
    return parser


_SCENARIO_OF = {"sweep-ph": "pseudo-hermitian", "scan-ep": "pt-ep", "verify": "verify"}

_FLAG_ATTRS = {
    "sweep-ph": {"epsilon": "ph_epsilon", "omega": "ph_omega", "nu": "ph_nu",
                 "grid_start": "ph_grid_start", "grid_stop": "ph_grid_stop",
                 "grid_count": "ph_grid_count"},
    "scan-ep": {"J": "ep_J", "Gamma": "ep_Gamma", "omega": "ep_omega",
                "delta": "ep_delta", "nu": "ep_nu", "grid_start": "ep_grid_start",
                "grid_stop": "ep_grid_stop", "grid_count": "ep_grid_count"},
    "verify": {},
}


def _config_from_args(args) -> ScenarioConfig:
    config = ScenarioConfig()
    if args.config:
        parse_config(args.config, config)
    config.scenario = _SCENARIO_OF[args.command]
    for flag in ("out", "format", "threads", "seed", "tol"):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(config, flag, value)
    for flag, attr in _FLAG_ATTRS[args.command].items():
        value = getattr(args, flag, None)
        if value is not None:
            setattr(config, attr, value)
    return validate(config)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"nhsense: configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "find-ep":
            return run_find_ep(args)
        config = _config_from_args(args)
        return run(config)
    except ConfigError as exc:
        print(f"nhsense: configuration error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, PropagationError) as exc:
        print(f"nhsense: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
