import numpy as np
import pytest

from nhsense.verification import make_rng, random_family, random_hermitian, random_state, random_unitary

KET0 = np.array([1.0, 0.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def constant(h):
    """A family callable that is h for every member at every time."""
    return lambda params, t: np.broadcast_to(h, (t.size,) + h.shape)


@pytest.fixture
def rng():
    return make_rng(20240811)


@pytest.fixture(scope="session")
def verify_report_42(tmp_path_factory):
    """(exit code, report bytes) of `verify --seed 42 --format json`, built once per session."""
    from nhsense.cli import main
    out = tmp_path_factory.mktemp("verify") / "report.json"
    code = main(["verify", "--seed", "42", "--format", "json", "--out", str(out)])
    return code, out.read_bytes()


__all__ = ["constant", "make_rng", "random_family", "random_hermitian", "random_state",
           "random_unitary", "KET0", "KET_PLUS"]
