"""Benchmark of the default nhsense `scan-ep` and `verify` CLI runs.

    python3 perfbench/run.py --workload {scan-ep,verify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from `src/`.

Every operation is one fresh process (`perfbench/child.py`) that imports
`nhsense.cli` and calls `cli.main(argv)` once with `--threads 1`, writing
its artifact to a scratch directory inside the checkout.  Operations run one
at a time, each after the previous one has finished (a closed loop of one
caller).  A new one starts only while it is expected to end within
--seconds, so a run lasts about --seconds.  Each artifact is checked
(`checks.py`) and compared byte for byte with the first artifact of the
same command in the run; an operation that fails any check counts as failed.

Workloads:
  scan-ep   `scan-ep` at defaults: EP search, then 80 omega_delta rows.  All
            time goes to the 2x2 non-Hermitian period propagator in pt_ep.
  verify    `verify --format json --seed 42`: many short 2- and 4-dim
            solves (the 4x4 dilated family of sweep-ph among them),
            quadrature, eigh-based seminorms, Monte Carlo.  Every timed
            operation uses the reference seed 42, so all of them do the same
            work; the --trace 1 run also checks `--seed N` (held out).

`sweep-ph` is not a workload: on a host whose speed drifts by tens of
percent from one minute to the next, three workloads left too little time
per run for steady figures.  Its mechanism, the 4x4 dilated family through
evolution.propagate and operators.tensor, runs inside `verify`.

--trace 0 reports the end-to-end metrics: wall_ref_s (median time of
cli.main), setup_s (median time from spawning a fresh interpreter to the end
of `import nhsense.cli`), both in seconds at the reference speed of
`probe.py`: each operation's times are divided by the time of a fixed scipy
integration sampled in the same process while cli.main runs (raw times and
probe times are in the detail line); peak_rss_mb (median ru_maxrss of the operation processes) and max_rel_err
(scan-ep: against perfbench/data/scan_ep_ref.json; verify: the report's
own relative-mismatch checks).

--trace 1 runs the program untraced and then under `spans.Tracer`, checks
that both artifacts are byte-identical, and reports per-module metrics from
the traced process: `<module>.<function>.calls/.s`, solver counters,
`<module>.self_s`, `cli.main.cpu_s`, `trace.overhead` (traced / untraced
wall time) and `trace.coverage` (share of traced wall time inside library
spans).

The last line of standard output is the JSON result; the line before it
holds provenance, sample counts and any problems found.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "data" / "scan_ep_ref.json"

REFERENCE_SEED = 42
COMMANDS = {
    "scan-ep": ["scan-ep"],
    "verify": ["verify", "--format", "json"],
}
DEADLINE_S = 165.0   # the whole run, including its checks, ends within 180 s

# Spans the command itself implies: a zero count means the tracer missed a binding.
MUST_FIRE = {
    "scan-ep": ("cli.main", "cli.run", "pt_ep.find_ep", "pt_ep.scan"),
    "verify": ("cli.main", "cli.run", "verification.build_report",
               "verification.check_operator_inequalities", "verification.check_qfi_bounds",
               "verification.check_qfi_oracle", "verification.check_pseudo_hermitian",
               "verification.check_pt_ep", "verification.check_noise"),
}
# (metric, span, field) read from the span summary; field "calls", "s" or "evals".
SPAN_METRICS = [
    ("evolution.propagate.calls", "evolution.propagate", "calls"),
    ("evolution.propagate.s", "evolution.propagate", "s"),
    ("pt_ep.propagate_interval.calls", "pt_ep.propagate_interval", "calls"),
    ("pt_ep.propagate_interval.s", "pt_ep.propagate_interval", "s"),
    ("pt_ep.find_ep.s", "pt_ep.find_ep", "s"),
    ("pt_ep.find_ep.evals", "pt_ep.find_ep", "evals"),
    ("pt_ep.find_response_dip.s", "pt_ep.find_response_dip", "s"),
    ("pt_ep.find_response_dip.evals", "pt_ep.find_response_dip", "evals"),
    ("pt_ep.ep_susceptibility.calls", "pt_ep.ep_susceptibility", "calls"),
    ("pt_ep.ep_susceptibility.s", "pt_ep.ep_susceptibility", "s"),
    ("pt_ep.scan.s", "pt_ep.scan", "s"),
    ("pt_ep.hermitian_bound_ep.s", "pt_ep.hermitian_bound_ep", "s"),
    ("pseudo_hermitian.sensitivity.s", "pseudo_hermitian.sensitivity", "s"),
    ("pseudo_hermitian.susceptibility.s", "pseudo_hermitian.susceptibility", "s"),
    ("operators.tensor.calls", "operators.tensor", "calls"),
    ("operators.tensor.s", "operators.tensor", "s"),
    ("operators.seminorm.calls", "operators.seminorm", "calls"),
    ("operators.seminorm.s", "operators.seminorm", "s"),
    ("operators.expm_hermitian.calls", "operators.expm_hermitian", "calls"),
    ("operators.expm_hermitian.s", "operators.expm_hermitian", "s"),
    ("qfi.qfi_series.s", "qfi.qfi_series", "s"),
    ("qfi.qfi_fidelity_oracle.s", "qfi.qfi_fidelity_oracle", "s"),
    ("qfi.quad.calls", "qfi.quad", "calls"),
    ("noise.sample_projection_batch.calls", "noise.sample_projection_batch", "calls"),
    ("noise.sample_projection_batch.s", "noise.sample_projection_batch", "s"),
] + [(f"verification.{name}.s", f"verification.{name}", "s")
     for name in ("check_operator_inequalities", "check_qfi_bounds", "check_qfi_oracle",
                  "check_pseudo_hermitian", "check_pt_ep", "check_noise")]
COUNTER_METRICS = ["evolution.propagate.nfev", "pt_ep.propagate_interval.nfev",
                   "pt_ep.propagate_interval.steps", "qfi.quad.neval"]
MODULES = ["cli", "evolution", "pt_ep", "pseudo_hermitian", "operators", "qfi", "noise",
           "verification"]


def timed_seed(workload: str):
    """The --seed given to the program in every timed operation."""
    return REFERENCE_SEED if workload == "verify" else None


def cli_argv(workload: str, program_seed, out: str) -> list[str]:
    argv = COMMANDS[workload] + ["--threads", "1", "--out", out]
    return argv + (["--seed", str(program_seed)] if program_seed is not None else [])


class Run:
    """The operations of one benchmark run and what they measured."""

    def __init__(self, workload: str, seconds: float, workdir: str, check):
        self.workload = workload
        self.check = check
        self.seconds = seconds
        self.workdir = workdir
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_bytes: dict = {}
        self.max_rel_err: list[float] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def expected_to_fit(self, duration: float) -> bool:
        return time.monotonic() - self.started + duration <= self.seconds

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems += problems

    def spawn(self, mode: str, argv: list[str]):
        """One child process; returns its result, or None when it failed."""
        self.attempted += 1
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), str(SRC), mode, *argv],
                                  capture_output=True, text=True, cwd=ROOT,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            self.fail([f"{mode} {argv}: timed out"])
            return None
        if proc.returncode != 0:
            self.fail([f"{mode} {argv}: child exited {proc.returncode}: {proc.stderr[-2000:]}"])
            return None
        result = json.loads(proc.stdout.splitlines()[-1])
        result["setup_s"] = result["imported_at"] - t0
        return result

    def operation(self, mode: str, program_seed):
        """Run the workload's command once and check its artifact."""
        out = os.path.join(self.workdir, f"{mode}-{self.attempted}.out")
        argv = cli_argv(self.workload, program_seed, out)
        result = self.spawn(mode, argv)
        if result is None:
            return None
        problems = []
        if result["exit_code"] != 0:
            problems.append(f"{argv}: exit code {result['exit_code']}")
        if mode == "trace" and not (result["sites"] > 0 and result["restored"]):
            problems.append(f"tracer rebound {result['sites']} sites, "
                            f"restored={result['restored']}")
        try:
            with open(out, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            self.fail(problems + [f"{argv}: no artifact: {exc}"])
            return None
        first = self.first_bytes.setdefault(program_seed, data)
        if data != first:
            problems.append(f"{mode} artifact (program seed {program_seed}) differs from the "
                            "first one of this run")
        try:
            found, err = self.check(out, program_seed)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            found, err = [f"artifact does not parse: {exc!r}"], None
        os.remove(out)
        problems += found
        if problems:
            self.fail(problems)
            return None
        self.max_rel_err.append(err)
        return result


def measure(run: Run, seed) -> tuple[dict, dict]:
    """--trace 0: end-to-end metrics of untraced operations."""
    walls, setups, raw_walls, raw_setups, probes, rss = [], [], [], [], [], []
    longest = 0.0
    while run.remaining() > 0:
        t0 = time.monotonic()
        result = run.operation("run", seed)
        longest = max(longest, time.monotonic() - t0)
        if result is not None:
            walls.append(probe.rescale(result["wall_s"], result["probe_s"]))
            setups.append(probe.rescale(result["setup_s"], result["probe_s"]))
            raw_walls.append(result["wall_s"])
            raw_setups.append(result["setup_s"])
            probes.append(result["probe_s"])
            rss.append(result["peak_rss_mb"])
        if not run.expected_to_fit(longest):
            break
    metrics = {}
    samples = {}
    for name, unit, values in (("wall_ref_s", "s", walls), ("setup_s", "s", setups),
                               ("peak_rss_mb", "MiB", rss),
                               ("max_rel_err", "ratio", run.max_rel_err)):
        if values:
            value = max(values) if name == "max_rel_err" else statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
        samples[name] = values
    samples.update(wall_raw_s=raw_walls, setup_raw_s=raw_setups, probe_s=probes)
    return metrics, samples


def trace_metrics(summary: dict) -> dict:
    """Per-layer values of one traced operation's span summary."""
    names, counters = summary["names"], summary["counters"]
    values = {}
    for metric, span, field in SPAN_METRICS:
        if field == "evals":
            values[metric] = summary["evals"].get(span, 0)
        else:
            values[metric] = names.get(span, {}).get(field, 0 if field == "calls" else 0.0)
    for metric in COUNTER_METRICS:
        values[metric] = counters.get(metric, 0)
    for module in MODULES:
        values[f"{module}.self_s"] = summary["modules"].get(module, 0.0)
    return values


def layer_unit(name: str) -> str:
    if name.startswith("trace."):
        return "ratio"
    return "s" if name.endswith(("_s", ".s")) else "count"


def measure_traced(run: Run, seed, held_out) -> tuple[dict, dict]:
    """--trace 1: untraced then traced operation pairs, per-layer metrics.

    When `held_out` is not None, one untraced operation with that program
    seed runs first; it is checked like the others but not measured.
    """
    if held_out is not None:
        run.operation("run", held_out)
    pairs = []
    longest = 0.0
    while run.remaining() > 0:
        t0 = time.monotonic()
        plain = run.operation("run", seed)
        traced = run.operation("trace", seed) if plain is not None else None
        longest = max(longest, time.monotonic() - t0)
        if traced is not None:
            summary = traced["trace"]
            fired = [s for s in MUST_FIRE[run.workload] if s not in summary["names"]]
            if fired:
                run.fail([f"spans never fired: {fired}"])
            else:
                pairs.append((plain, traced))
        if not run.expected_to_fit(longest):
            break
    if not pairs:
        return {}, {}
    rows = []
    for plain, traced in pairs:
        values = trace_metrics(traced["trace"])
        values["cli.main.cpu_s"] = plain["cpu_s"]
        values["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
        values["trace.coverage"] = traced["trace"]["library_s"] / traced["wall_s"]
        rows.append(values)
    metrics = {}
    for name in rows[0]:
        metrics[name] = {"value": statistics.median(row[name] for row in rows),
                         "unit": layer_unit(name)}
    return metrics, {name: [row[name] for row in rows] for name in metrics}


def provenance() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path):
    """HEAD of a git checkout at `root`, read from its files; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "nhsense" / "cli.py").is_file():
        print(f"perfbench: no nhsense package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks

    reference = None
    if args.workload == "scan-ep":
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    check = {"scan-ep": lambda path, _: checks.check_scan(path, reference),
             "verify": checks.check_verify}[args.workload]

    seed = timed_seed(args.workload)
    held_out = args.seed if args.trace and seed is not None else None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        run = Run(args.workload, args.seconds, workdir, check)
        if args.trace:
            metrics, samples = measure_traced(run, seed, held_out)
        else:
            metrics, samples = measure(run, seed)
    detail = {"workload": args.workload, "seed": args.seed, "program_seed": seed,
              "held_out_seed": held_out,
              "trace": args.trace, "seconds": args.seconds,
              "samples": {name: len(values) for name, values in samples.items()},
              "values": samples,
              "provenance": provenance(), "problems": run.problems}
    print(json.dumps(detail))
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": run.failed == 0 and bool(metrics), "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
