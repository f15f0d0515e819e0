from dataclasses import replace

import numpy as np
import pytest

from nhsense import evolution, pt_ep
from nhsense.evolution import HamiltonianFamily
from nhsense.verification import make_rng, random_family, random_hermitian, random_state, random_unitary

KET0 = np.array([1.0, 0.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def constant(h):
    """A family callable that is h for every member at every time."""
    return lambda params, t: np.broadcast_to(h, (t.size,) + h.shape)


def constant_family(h, dh=None):
    """The family H = h, dH/dlam = dh (zero if not given), the same at every lam and time."""
    return HamiltonianFamily(dim=h.shape[0], evaluate=constant(h),
                             evaluate_dlambda=constant(np.zeros_like(h) if dh is None else dh))


@pytest.fixture
def rng():
    return make_rng(20240811)


@pytest.fixture
def integrate_calls(monkeypatch):
    """(lams, grid points, tangent, step attempts) of every `integrate` call, in order.

    The record is taken where `evolution` and `pt_ep` call the core.  It
    counts the step attempts from the evaluations of H: two for the initial
    step, then one per attempt at the five stage times of each running member.
    """
    calls = []
    original = evolution.integrate

    def recorded(family, lams, times, tol, tangent=False):
        sizes = []

        def evaluate(lam, t):
            sizes.append(t.size)
            return family.evaluate(lam, t)

        result = original(replace(family, evaluate=evaluate), lams, times, tol, tangent)
        members = len(lams) * (len(times) - 1)  # one per grid interval
        if members:
            assert sizes[:2] == [members] * 2 and all(size % 5 == 0 for size in sizes[2:])
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


__all__ = ["constant", "constant_family", "make_rng", "random_family", "random_hermitian", "random_state",
           "random_unitary", "KET0", "KET_PLUS"]
