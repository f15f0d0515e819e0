"""Command-line entry point.

Subcommands:
    sweep-ph   dilated-sensor sweep over the encoded parameter
    scan-ep    EP-sensor scan over the perturbation frequency
    find-ep    locate the dissipation rate of the phase boundary
    verify     run the inequality suites and emit a machine-readable report

Configuration is flat key=value text with section prefixes, e.g.
`scenario.pt-ep.J=1.0`; command-line flags override file values.  Outputs
carry their effective configuration as metadata (CSV `# key=value` lines, a
JSON `metadata` object), so a scenario's output re-parses into what made it.
find-ep writes only its version: its inputs are the columns of its one row.
Each artifact takes its columns, in order, from the fields of its rows: the
row dataclasses of the sensor modules, and the dicts of `verify` and find-ep,
built in column order.

Exit codes: 0 success, 1 configuration error, 2 numerical-domain failure,
3 verification failure.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields, replace
from typing import get_args

import numpy as np

from . import __version__
from . import pseudo_hermitian as ph
from . import pt_ep
from .errors import DomainError, PropagationError
from .evolution import check_step, check_tol
from .noise import check_trials
from .verification import VerificationReport, build_report

FORMATS = ("csv", "json")
# subcommand -> (scenario it runs, help); find-ep has its own parser below
SUBCOMMANDS = {
    "sweep-ph": ("pseudo-hermitian", "dilated-sensor sweep over the encoded parameter"),
    "scan-ep": ("pt-ep", "EP-sensor scan over the perturbation frequency"),
    "verify": ("verify", "run the inequality suites, emit a report"),
}


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
    ph_epsilon: float = _key("scenario.pseudo-hermitian.epsilon", 0.1, "dilation parameter (default 0.1)")
    ph_omega: float = _key("scenario.pseudo-hermitian.omega", 1.0, "qubit frequency (default 1.0)")
    ph_nu: int = _key("scenario.pseudo-hermitian.nu", 1, "projection trials per point (default 1)")
    ph_grid_start: float | None = _key("scenario.pseudo-hermitian.grid.start", None,
                                       "first lam (default -omega/2)")
    ph_grid_stop: float | None = _key("scenario.pseudo-hermitian.grid.stop", None,
                                      "last lam (default +omega/2)")
    ph_grid_count: int = _key("scenario.pseudo-hermitian.grid.count", 201, "grid points (default 201)")
    tol: float = _key("scenario.pt-ep.tol", 1e-10, "integration error target (default 1e-10)")
    ep_J: float = _key("scenario.pt-ep.J", 1.0, "coupling strength (default 1.0)")
    ep_Gamma: float | None = _key("scenario.pt-ep.Gamma", None, "dissipation rate (default: located EP)")
    ep_omega: float = _key("scenario.pt-ep.omega", 4.0, "drive frequency (default 4.0)")
    ep_delta: float = _key("scenario.pt-ep.delta", 0.05, "perturbation amplitude (default 0.05)")
    ep_nu: int = _key("scenario.pt-ep.nu", 1, "projection trials per point (default 1)")
    ep_grid_start: float = _key("scenario.pt-ep.grid.start", 0.05, "first omega_delta (default 0.05)")
    ep_grid_stop: float = _key("scenario.pt-ep.grid.stop", 2.0, "last omega_delta (default 2.0)")
    ep_grid_count: int = _key("scenario.pt-ep.grid.count", 80, "grid points (default 80)")
    seed: int = _key("scenario.verify.seed", 0, "seed for the verification suites")


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


def parse_config_lines(lines, config: ScenarioConfig | None = None, source: str = "<config>") -> ScenarioConfig:
    """Apply key=value lines to a configuration; '#' lines are comments and skipped."""
    config = config or ScenarioConfig()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
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
    """Re-parse the metadata of an emitted artifact: its '# key=value' CSV header or JSON `metadata`."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = ([f"{key}={value}" for key, value in json.loads(text)["metadata"].items()] if text.startswith("{")
             else [line.lstrip("#") for line in text.splitlines() if line.startswith("#")])
    return parse_config_lines(lines, source=path)


def _check_out(out: str | None) -> None:
    """ConfigError unless the output path is unset or names a file, new or not, in an existing directory."""
    if out is None:
        return
    if not out or os.path.isdir(out):
        raise ConfigError(f"out: {out!r} is {'a directory' if out else 'empty'}, not a file path")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"out: the directory of {out!r} does not exist")


@contextmanager
def _naming(keys: dict):
    """Turn a DomainError into a ConfigError led by the keys {name: key} of the names its
    message holds, in the order they first appear (all of the keys if it holds none)."""
    try:
        yield
    except DomainError as exc:
        named = dict.fromkeys(keys[m[0]] for m in re.finditer(rf"\b({'|'.join(keys)})\b", str(exc)))
        raise ConfigError(f"{', '.join(named or keys.values())}: {exc}") from None


def validate(config: ScenarioConfig) -> ScenarioConfig:
    """The configuration once it passes the rules of the sensor modules at both ends of each
    grid (and, while Gamma is unset, of the EP search bracket); ConfigError naming the key otherwise."""
    scenarios = tuple(scenario for scenario, _ in SUBCOMMANDS.values())
    if config.scenario not in scenarios:
        raise ConfigError(f"scenario must be one of {scenarios}, got {config.scenario!r}")
    key = {f.name: f.metadata["key"] for f in fields(config)}
    if config.format not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {config.format!r}")
    if config.threads < 1:
        raise ConfigError("threads must be >= 1")
    if config.seed < 0:
        raise ConfigError(f"{key['seed']} must be >= 0, got {config.seed}")
    _check_out(config.out)
    if config.ph_grid_start is None:
        config.ph_grid_start = -0.5 * config.ph_omega
    if config.ph_grid_stop is None:
        config.ph_grid_stop = 0.5 * config.ph_omega
    with _naming({"tol": key["tol"], "nu": key["ph_nu"]}):
        check_tol(config.tol)
        check_trials(config.ph_nu)
    for end in ("ph_grid_start", "ph_grid_stop"):  # Omega is largest at an end of the grid
        with _naming({"epsilon": key["ph_epsilon"], "omega": key["ph_omega"], "lam": key[end]}):
            ph.PseudoHermitianParams(config.ph_epsilon, config.ph_omega, getattr(config, end))
    ep_keys = {name: key[f"ep_{name}"] for name in ("J", "Gamma", "omega", "delta", "nu")}
    gammas = [config.ep_Gamma] if config.ep_Gamma is not None else pt_ep.default_ep_bracket(config.ep_J)
    for gamma in gammas:
        if config.ep_Gamma is None:
            ep_keys["Gamma"] = f"{key['ep_Gamma']} (unset: the EP search reaches {gamma:g})"
        for end in ("ep_grid_start", "ep_grid_stop"):
            with _naming({**ep_keys, "omega_delta": key[end]}):
                pt_ep.PtEpParams(config.ep_J, gamma, config.ep_omega, config.ep_delta, getattr(config, end),
                                 config.ep_nu)
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


def _emit(metadata: list[tuple[str, str]], rows: list[dict], fmt: str, out: str | None, **json_extra) -> None:
    """Write CSV under '# key=value' lines, or JSON with json_extra after the rows; the columns
    are the keys of the rows, in their order (a CSV without rows has no header).

    JSON has no token for nan or inf, so a non-finite row value is written as null there.
    """
    if fmt == "csv":
        buf = io.StringIO()
        for key, value in metadata:
            buf.write(f"# {key}={value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows[:1])  # the header: a row iterates over its keys
        writer.writerows([_fmt(v) for v in row.values()] for row in rows)
        text = buf.getvalue()
    else:
        payload = {
            "metadata": dict(metadata),
            "rows": [{c: None if isinstance(v, float) and not math.isfinite(v) else v for c, v in row.items()}
                     for row in rows],
            **json_extra,
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    try:
        with nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"out: cannot write {'stdout' if out is None else repr(out)}: {exc}") from None


# --------------------------------------------------------------------- runs

def run(config: ScenarioConfig) -> int:
    """Execute a validated scenario; returns the process exit code."""
    if config.scenario == "verify":
        report = build_report(config.seed)
        _emit_report(config, report)
        return 0 if report.overall_pass else 3
    if config.scenario == "pseudo-hermitian":
        grid = np.linspace(config.ph_grid_start, config.ph_grid_stop, config.ph_grid_count)
        rows = ph.sweep(config.ph_epsilon, config.ph_omega, grid, nu=config.ph_nu)
    else:
        if config.ep_Gamma is None:  # the metadata records the located Gamma
            config = replace(config, ep_Gamma=float(pt_ep.find_ep(config.ep_J, config.ep_omega, tol=1e-12)))
        base = pt_ep.PtEpParams(config.ep_J, config.ep_Gamma, config.ep_omega, config.ep_delta,
                                config.ep_grid_start, config.ep_nu)
        grid = np.linspace(config.ep_grid_start, config.ep_grid_stop, config.ep_grid_count)
        rows = pt_ep.scan(base, grid, tol=config.tol)
    _emit(_metadata_items(config), [vars(row) for row in rows], config.format, config.out)
    return 0


def _emit_report(config: ScenarioConfig, report: VerificationReport) -> None:
    rows = [{"check": c.name, "target": c.target, "observed": c.observed,
             "tolerance": c.tolerance, "passed": c.passed} for c in report.checks]
    if config.format == "csv":
        rows.append({"check": "overall", "target": "conjunction of all checks",
                     "observed": 0.0, "tolerance": 0.0, "passed": report.overall_pass})
    _emit(_metadata_items(config), rows, config.format, config.out, overall_pass=report.overall_pass)


def run_find_ep(args) -> int:
    _check_out(args.out)
    with _naming({"tol": "--tol"}):
        check_step(args.tol, "root tolerance")
    given = (args.bracket_lo, args.bracket_hi)
    lo, hi = (d if g is None else g for g, d in zip(given, pt_ep.default_ep_bracket(args.J)))
    for gamma, g, flag in zip((lo, hi), given, ("--bracket-lo", "--bracket-hi")):
        flag += "" if g is not None else f" (default {gamma:g})"
        with _naming({"J": "--J", "omega": "--omega", "Gamma": flag}):
            pt_ep.PtEpParams(args.J, gamma, args.omega, 0.0, args.omega)  # as find_ep builds it
    if not 0 <= lo < hi:
        raise ConfigError(f"bracket must satisfy 0 <= --bracket-lo < --bracket-hi, got {lo:g}, {hi:g}")
    gamma = pt_ep.find_ep(args.J, args.omega, bracket=(lo, hi), tol=args.tol)
    row = {"J": args.J, "omega": args.omega, "bracket_lo": lo, "bracket_hi": hi,
           "tol": args.tol, "Gamma_EP": gamma}
    _emit([("version", __version__)], [row], args.format, args.out)
    return 0


# ---------------------------------------------------------------- arguments

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _flag(key: str, scenario: str) -> str | None:
    """The flag of a key in the subcommand running scenario: `--grid-start` for
    `scenario.<scenario>.grid.start`, `--out` for `out`, None for other scenarios' keys."""
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
