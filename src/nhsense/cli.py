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
from dataclasses import asdict, dataclass, field, fields, replace
from typing import get_args

import numpy as np

from . import __version__
from . import pseudo_hermitian as ph
from . import pt_ep
from .errors import DomainError, PropagationError
from .evolution import TOL_MAX, TOL_MIN
from .verification import VerificationReport, build_report

FORMATS = ("csv", "json")
# subcommand -> (scenario it runs, help); find-ep has its own parser below
SUBCOMMANDS = {
    "sweep-ph": ("pseudo-hermitian", "dilated-sensor sweep over the encoded parameter"),
    "scan-ep": ("pt-ep", "EP-sensor scan over the perturbation frequency"),
    "verify": ("verify", "run the inequality suites, emit a report"),
}

FIND_EP_COLUMNS = ("J", "omega", "bracket_lo", "bracket_hi", "tol", "Gamma_EP")
VERIFY_COLUMNS = ("check", "target", "observed", "tolerance", "passed")


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


def _key(key: str, default, help: str | None = None, **options):
    """A config field: its key and, given help text, a flag with these add_argument options."""
    flag = {"help": help, **options} if help else None
    return field(default=default, metadata={"key": key, "flag": flag})


@dataclass
class ScenarioConfig:
    """The one declaration of every config key and flag.  A key under `scenario.<scenario>.`
    is a flag of that scenario's subcommand (`scenario.pt-ep.grid.start` -> `scan-ep
    --grid-start`); a key outside the `scenario.` namespace is a flag of every subcommand."""

    scenario: str = _key("scenario", "")
    out: str | None = _key("out", None, "output path (stdout when omitted)")
    format: str = _key("format", "csv", "output format (default csv)", choices=FORMATS)
    threads: int = _key("threads", 1, "no effect: every run is one batch (default 1)")
    seed: int = _key("seed", 0, "seed for the verification suites")
    tol: float = _key("tol", 1e-10, "integration error target (default 1e-10)")
    ph_epsilon: float = _key("scenario.pseudo-hermitian.epsilon", 0.1, "dilation parameter (default 0.1)")
    ph_omega: float = _key("scenario.pseudo-hermitian.omega", 1.0, "qubit frequency (default 1.0)")
    ph_nu: int = _key("scenario.pseudo-hermitian.nu", 1, "projection trials per point (default 1)")
    ph_grid_start: float | None = _key("scenario.pseudo-hermitian.grid.start", None,
                                       "first lam (default -omega/2)")
    ph_grid_stop: float | None = _key("scenario.pseudo-hermitian.grid.stop", None,
                                      "last lam (default +omega/2)")
    ph_grid_count: int = _key("scenario.pseudo-hermitian.grid.count", 201, "grid points (default 201)")
    ep_J: float = _key("scenario.pt-ep.J", 1.0, "coupling strength (default 1.0)")
    ep_Gamma: float | None = _key("scenario.pt-ep.Gamma", None, "dissipation rate (default: located EP)")
    ep_omega: float = _key("scenario.pt-ep.omega", 4.0, "drive frequency (default 4.0)")
    ep_delta: float = _key("scenario.pt-ep.delta", 0.05, "perturbation amplitude (default 0.05)")
    ep_nu: int = _key("scenario.pt-ep.nu", 1, "projection trials per point (default 1)")
    ep_grid_start: float = _key("scenario.pt-ep.grid.start", 0.05, "first omega_delta (default 0.05)")
    ep_grid_stop: float = _key("scenario.pt-ep.grid.stop", 2.0, "last omega_delta (default 2.0)")
    ep_grid_count: int = _key("scenario.pt-ep.grid.count", 80, "grid points (default 80)")


_FIELD_OF_KEY = {f.metadata["key"]: f for f in fields(ScenarioConfig)}


def _value_type(f) -> type:
    """str, int or float: the field's type with any `| None` dropped."""
    return (get_args(f.type) or (f.type,))[0]


def _apply_kv(config: ScenarioConfig, key: str, value: str, where: str) -> None:
    if key == "version":
        return  # recorded in metadata, accepted on re-parse
    if key not in _FIELD_OF_KEY:
        raise ConfigError(f"{where}: unknown key {key!r}")
    f = _FIELD_OF_KEY[key]
    try:
        setattr(config, f.name, _value_type(f)(value))
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


def _check_finite(values: dict) -> None:
    """Reject a non-finite float among {name: value}, naming it."""
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


def validate(config: ScenarioConfig) -> ScenarioConfig:
    scenarios = tuple(scenario for scenario, _ in SUBCOMMANDS.values())
    if config.scenario not in scenarios:
        raise ConfigError(f"scenario must be one of {scenarios}, got {config.scenario!r}")
    if config.format not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {config.format!r}")
    if config.threads < 1:
        raise ConfigError("threads must be >= 1")
    key = {f.name: f.metadata["key"] for f in fields(config)}
    _check_finite({key[name]: value for name, value in vars(config).items()})
    if config.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {config.seed}")
    if not (TOL_MIN <= config.tol <= TOL_MAX):
        raise ConfigError(f"tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}]")
    if config.ph_nu < 1:
        raise ConfigError(f"{key['ph_nu']} must be >= 1, got {config.ph_nu}")
    # The params classes hold the domain rules; a DomainError leads with the
    # field name, the last part of its key (omega_delta is checked at grid.start).
    gamma = 0.0 if config.ep_Gamma is None else config.ep_Gamma  # None: find_ep resolves it
    for scenario, build in (
            ("pseudo-hermitian", lambda: ph.PseudoHermitianParams(config.ph_epsilon, config.ph_omega)),
            ("pt-ep", lambda: pt_ep.PtEpParams(config.ep_J, gamma, config.ep_omega, config.ep_delta,
                                               config.ep_grid_start, config.ep_nu))):
        try:
            build()
        except DomainError as exc:
            message = str(exc).replace("omega_delta", "grid.start")
            raise ConfigError(f"scenario.{scenario}.{message}") from None
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
    """The set common keys and those of the run's own scenario; the output path is not one."""
    items = [("version", __version__)]
    config = replace(config, out=None)
    for f in fields(config):
        key, value = f.metadata["key"], getattr(config, f.name)
        if value is None:
            continue
        if key.startswith("scenario.") and not key.startswith(f"scenario.{config.scenario}."):
            continue
        items.append((key, _fmt(value)))
    return items


def _emit(metadata: list[tuple[str, str]], columns: tuple[str, ...], rows: list[dict],
          fmt: str, out: str | None, **json_extra) -> None:
    """Write CSV under '# key=value' lines, or JSON with json_extra after the rows."""
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
            **json_extra,
        }
        text = json.dumps(payload, indent=2) + "\n"
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
        rows = ph.sweep(config.ph_epsilon, config.ph_omega, grid, nu=config.ph_nu, tol=config.tol)
        _emit(_metadata_items(config), ph.SWEEP_COLUMNS,
              [asdict(row) for row in rows], config.format, config.out)
        return 0

    if config.scenario == "pt-ep":
        gamma = config.ep_Gamma
        if gamma is None:
            gamma = pt_ep.find_ep(config.ep_J, config.ep_omega, tol=1e-12)
        effective = replace(config, ep_Gamma=float(gamma))
        base = pt_ep.PtEpParams(J=config.ep_J, Gamma=float(gamma), omega=config.ep_omega,
                                delta=config.ep_delta, omega_delta=1.0, nu=config.ep_nu)
        grid = np.linspace(config.ep_grid_start, config.ep_grid_stop, config.ep_grid_count)
        rows = pt_ep.scan(base, grid, tol=config.tol)
        _emit(_metadata_items(effective), pt_ep.SCAN_COLUMNS,
              [asdict(row) for row in rows], config.format, config.out)
        return 0

    # verify
    report = build_report(config.seed)
    _emit_report(config, report)
    return 0 if report.overall_pass else 3


def _emit_report(config: ScenarioConfig, report: VerificationReport) -> None:
    rows = [{"check": c.name, "target": c.target, "observed": c.observed,
             "tolerance": c.tolerance, "passed": c.passed} for c in report.checks]
    if config.format == "csv":
        rows.append({"check": "overall", "target": "conjunction of all checks",
                     "observed": 0.0, "tolerance": 0.0, "passed": report.overall_pass})
    _emit(_metadata_items(config), VERIFY_COLUMNS, rows, config.format, config.out,
          overall_pass=report.overall_pass)


def run_find_ep(args) -> int:
    _check_finite({f"--{name.replace('_', '-')}": getattr(args, name)
                   for name in ("bracket_lo", "bracket_hi", "tol")})
    if not args.tol > 0:
        raise ConfigError(f"--tol must be > 0, got {args.tol}")
    try:
        pt_ep.PtEpParams(args.J, 0.0, args.omega, 0.0, 1.0)  # the sensor's rules for J and omega
    except DomainError as exc:
        raise ConfigError(f"--{exc}") from None
    lo, hi = pt_ep.default_ep_bracket(args.J)
    if args.bracket_lo is not None:
        lo = args.bracket_lo
    if args.bracket_hi is not None:
        hi = args.bracket_hi
    if not 0 <= lo < hi:
        raise ConfigError(f"bracket must satisfy 0 <= --bracket-lo < --bracket-hi, got {lo:g}, {hi:g}")
    gamma = pt_ep.find_ep(args.J, args.omega, bracket=(lo, hi), tol=args.tol)
    row = {"J": args.J, "omega": args.omega, "bracket_lo": lo, "bracket_hi": hi,
           "tol": args.tol, "Gamma_EP": gamma}
    _emit([("version", __version__)], FIND_EP_COLUMNS, [row], args.format, args.out)
    return 0


# ---------------------------------------------------------------- arguments

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _flag(key: str, scenario: str) -> str | None:
    """The flag of a key in the subcommand running scenario: `--grid-start` for
    `scenario.<scenario>.grid.start`, `--tol` for `tol`, None for other scenarios' keys."""
    name = key.removeprefix(f"scenario.{scenario}.")
    return None if name.startswith("scenario.") else "--" + name.replace(".", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nhsense",
                     description="Sensitivity bounds for non-Hermitian quantum sensors")
    parser.add_argument("--version", action="version", version=f"nhsense {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for command, (scenario, summary) in SUBCOMMANDS.items():
        sub = subs.add_parser(command, help=summary)
        sub.add_argument("--config", help="flat key=value configuration file")
        for f in fields(ScenarioConfig):
            flag, options = _flag(f.metadata["key"], scenario), f.metadata["flag"]
            if options and flag is not None:
                # the value is named after the flag, not dest, unless choices name it
                metavar = None if "choices" in options else flag[2:].upper().replace("-", "_")
                sub.add_argument(flag, dest=f.name, metavar=metavar, type=_value_type(f), **options)

    find = subs.add_parser("find-ep", help="locate the dissipation rate of the phase boundary")
    find.add_argument("--J", type=float, default=1.0)
    find.add_argument("--omega", type=float, default=4.0)
    find.add_argument("--bracket-lo", type=float, help="default 0.01 J")
    find.add_argument("--bracket-hi", type=float, help="default 3 J")
    find.add_argument("--tol", type=float, default=1e-10, help="root tolerance in Gamma (default 1e-10)")
    find.add_argument("--out", help="output path (stdout when omitted)")
    find.add_argument("--format", choices=FORMATS, default="csv")
    return parser


def _config_from_args(args) -> ScenarioConfig:
    config = ScenarioConfig()
    if args.config:
        parse_config(args.config, config)
    config.scenario = SUBCOMMANDS[args.command][0]
    for f in fields(config):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)
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
