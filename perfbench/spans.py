"""Span tracing of nhsense from outside the package.

`Tracer.install` replaces each traced function by a recording wrapper at
every module attribute that binds it, not only where it is defined: a
consumer that did `from .evolution import propagate` calls its own binding,
which a rebind of `evolution.propagate` alone would miss.  The scipy
integrators are wrapped per consumer module (`pt_ep.solve_ivp`,
`qfi.quad`, ...), and their results feed the solver counters.

Each wrapped call records one span: name, parent span, start and end.  Spans
stay in memory; `summarize` derives call counts, inclusive and self times
from them after the run.
"""

import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "nhsense"

# Functions traced where they are defined and at every other nhsense binding;
# the span is named after the defining module.
TRACED = {
    "cli": ("main", "run"),
    "evolution": ("propagate",),
    "pt_ep": ("propagate_interval", "find_ep", "find_response_dip", "ep_susceptibility",
              "scan", "hermitian_bound_ep"),
    "pseudo_hermitian": ("sensitivity", "susceptibility"),
    "operators": ("tensor", "seminorm", "expm_hermitian"),
    "qfi": ("qfi_series", "qfi_fidelity_oracle"),
    "noise": ("sample_projection_batch",),
    "verification": ("build_report", "check_operator_inequalities", "check_qfi_bounds",
                     "check_qfi_oracle", "check_pseudo_hermitian", "check_pt_ep", "check_noise"),
}

# Solver counters are reported under the propagation function that owns the
# solve in that module; other consumers report under `<module>.solve_ivp`.
SOLVE_OWNER = {"evolution": "evolution.propagate", "pt_ep": "pt_ep.propagate_interval"}

# Root finders whose propagations are counted as `<span>.evals`.
EVAL_SPANS = ("pt_ep.find_ep", "pt_ep.find_response_dip")
EVAL_TARGET = "pt_ep.propagate_interval"

# spans: [name, parent index (-1 for a root), start, end]
NAME, PARENT, START, END = range(4)


def _solve_ivp_counter(owner: str):
    def count(counters, sol, kwargs):
        counters[f"{owner}.nfev"] += int(sol.nfev)
        if kwargs.get("t_eval") is None:
            # without t_eval, sol.t holds every accepted step
            counters[f"{owner}.steps"] += len(sol.t) - 1
    return count


def _quad_counter(consumer: str):
    def count(counters, out, kwargs):
        if kwargs.get("full_output"):
            counters[f"{consumer}.quad.neval"] += int(out[2]["neval"])
    return count


class Tracer:
    """Records spans around nhsense calls between `install` and `uninstall`."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._sites: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1], clock(), 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                counter(self.counters, out, kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> int:
        """Rebind every traced name in every loaded module; returns the site count."""
        from scipy import integrate

        wrappers = {}  # id of the original function -> its wrapper
        for modname, names in TRACED.items():
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is not None:
                    wrappers[id(fn)] = self.wrap(f"{modname}.{fname}", fn)
        loaded = {name[len(PACKAGE) + 1:]: mod for name, mod in list(sys.modules.items())
                  if name.startswith(PACKAGE + ".") and mod is not None}
        for consumer, mod in loaded.items():
            for attr, value in list(vars(mod).items()):
                if value is integrate.solve_ivp:
                    owner = SOLVE_OWNER.get(consumer, f"{consumer}.solve_ivp")
                    new = self.wrap(f"{consumer}.solve_ivp", value, _solve_ivp_counter(owner))
                elif value is integrate.quad:
                    new = self.wrap(f"{consumer}.quad", value, _quad_counter(consumer))
                elif id(value) in wrappers:
                    new = wrappers[id(value)]
                else:
                    continue
                self._sites.append((mod, attr, value))
                setattr(mod, attr, new)
        return len(self._sites)

    def uninstall(self) -> bool:
        """Restore every rebound name; True when each site holds its original again."""
        for mod, attr, original in reversed(self._sites):
            setattr(mod, attr, original)
        restored = all(getattr(mod, attr) is original for mod, attr, original in self._sites)
        self._sites.clear()
        return restored

    def summary(self) -> dict:
        out = summarize(self.spans)
        out["counters"] = dict(self.counters)
        return out


def summarize(spans) -> dict:
    """Aggregate spans into per-name and per-module figures.

    Spans must be listed in start order, so each parent precedes its
    children.  A span's self time is its duration minus the durations of
    its direct children, which on one thread do not overlap.

    Returns {"names": {name: {"calls", "s", "self_s"}}, "modules":
    {module: self_s}, "evals": {span: propagations inside it}, "roots_s":
    total duration of root spans, "library_s": total duration of non-cli
    spans whose parent is a cli span}.
    """
    n = len(spans)
    child_s = [0.0] * n
    finder = [-1] * n
    names: dict[str, dict] = {}
    evals = {name: 0 for name in EVAL_SPANS}
    roots_s = library_s = 0.0
    for idx, (name, parent, start, end) in enumerate(spans):
        dur = end - start
        if parent < 0:
            roots_s += dur
        else:
            child_s[parent] += dur
            if not name.startswith("cli.") and spans[parent][NAME].startswith("cli."):
                library_s += dur
        finder[idx] = idx if name in evals else (finder[parent] if parent >= 0 else -1)
        if name == EVAL_TARGET and finder[idx] >= 0:
            evals[spans[finder[idx]][NAME]] += 1
        entry = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += dur
    modules: dict[str, float] = defaultdict(float)
    for idx, (name, _, start, end) in enumerate(spans):
        self_s = (end - start) - child_s[idx]
        names[name]["self_s"] += self_s
        modules[name.split(".", 1)[0]] += self_s
    return {"names": names, "modules": dict(modules), "evals": evals,
            "roots_s": roots_s, "library_s": library_s}
