from dataclasses import replace

import numpy as np
import pytest

from nhsense import evolution, pt_ep
from nhsense.evolution import HamiltonianFamily
from nhsense.verification import make_rng, random_family, random_hermitian, random_state

KET0 = np.array([1.0, 0.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def constant(h):
    """A family callable that is h for every member at every time."""
    return lambda params, t: np.broadcast_to(h, np.broadcast_shapes(params.shape, t.shape) + h.shape)


def per_time(lam, t):
    """lam broadcast against the times t: one value per matrix of a family's stack."""
    return np.broadcast_to(lam, np.broadcast_shapes(lam.shape, t.shape))


def constant_family(h, dh=None):
    """The family H = h, dH/dlam = dh (zero if not given), the same at every lam and time."""
    return HamiltonianFamily(dim=h.shape[0], evaluate=constant(h),
                             evaluate_dlambda=constant(np.zeros_like(h) if dh is None else dh))


def pt_hamiltonian(p, t):
    """H of the PT-EP sensor p at one time t, from the one-member family its propagator integrates."""
    return pt_ep._family([p]).evaluate(np.zeros(1), np.array([t]))[0]


def pt_dhamiltonian(p, t):
    """dH/d omega_delta of the PT-EP sensor p at one time t, from the same family."""
    return pt_ep._family([p]).evaluate_dlambda(np.zeros(1), np.array([t]))[0]


@pytest.fixture
def rng():
    return make_rng(20240811)


class _Calls(list):
    """A list of calls with a `shapes` list beside it."""

    def __init__(self):
        super().__init__()
        self.shapes = []


@pytest.fixture
def integrate_calls(monkeypatch):
    """(lams, grid points, tangent, step attempts) of every `integrate` call, in order, and in
    `.shapes` the (lam.shape, t.shape) of every evaluation of H.

    The record is taken where `evolution` and `pt_ep` call the core.  It
    counts the step attempts from the evaluations of H: two for the initial
    step, then one per attempt at the eleven stage times of each running member.
    """
    calls = _Calls()
    original = evolution.integrate

    def recorded(family, lams, times, tol, tangent=False):
        sizes = []

        def evaluate(lam, t):
            sizes.append(t.size)
            calls.shapes.append((lam.shape, t.shape))
            return family.evaluate(lam, t)

        result = original(replace(family, evaluate=evaluate), lams, times, tol, tangent)
        members = len(lams) * (len(times) - 1)  # one per grid interval
        if members:
            assert sizes[:2] == [members] * 2 and all(size % 11 == 0 for size in sizes[2:])
        calls.append((len(lams), len(times), tangent, len(sizes[2:])))
        return result

    for module in (evolution, pt_ep):
        monkeypatch.setattr(module, "integrate", recorded)
    return calls


@pytest.fixture(scope="session")
def verify_report_42(tmp_path_factory):
    """(exit code, report bytes) of `verify --seed 42 --format json`, built once per session."""
    from nhsense.cli import main
    out = tmp_path_factory.mktemp("verify") / "report.json"
    code = main(["verify", "--seed", "42", "--format", "json", "--out", str(out)])
    return code, out.read_bytes()


__all__ = ["constant", "constant_family", "make_rng", "per_time", "pt_dhamiltonian", "pt_hamiltonian",
           "random_family", "random_hermitian", "random_state", "KET0", "KET_PLUS"]
