"""Dense complex linear algebra for small Hilbert spaces (dim <= ~16).

Everything operates on plain complex ndarrays.  Hermitian inputs are
validated, never silently symmetrized: rejecting a matrix that fails the
Hermiticity tolerance surfaces construction bugs instead of hiding them.

Every function but `tensor` takes one matrix or a (..., d, d) stack of them,
with states (..., d), and broadcasts over the leading shapes.  A stack is
validated as a whole, its error reporting the worst member's deviation.  A
member's result equals its lone 2-D call, which returns a Python float where
a stack returns an array.
"""

import numpy as np

from .errors import DomainError

HERMITICITY_ATOL = 1e-12
STATE_NORM_ATOL = 1e-12

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix has non-finite entries")
    return a


def _real(x: np.ndarray):
    """A 0-d result as a Python float, a stacked one as its array."""
    return float(x) if np.ndim(x) == 0 else x


def _braket(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Real part of <psi|phi> per member; np.vdot's value on lone vectors."""
    return (psi.conj()[..., None, :] @ phi[..., None])[..., 0, 0].real


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _apply(op: np.ndarray, psi: np.ndarray) -> np.ndarray:
    return (op @ psi[..., None])[..., 0]


def require_hermitian(a, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Validate that `a` is finite and square with ||a - a†||_max <= atol, member by member."""
    a = _as_matrix(a)
    dev = np.abs(a - _dagger(a)).max(initial=0.0)
    if dev > atol:
        raise DomainError(f"matrix is not Hermitian: max |a - a†| = {dev:.3e} > {atol:.1e}")
    return a


def require_state(psi, atol: float = STATE_NORM_ATOL) -> np.ndarray:
    """Validate that `psi` is finite with unit Euclidean norm along its last axis."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim < 1:
        raise DomainError(f"expected a vector or a stack of them, got shape {psi.shape}")
    if not np.all(np.isfinite(psi)):
        raise DomainError("state has non-finite entries")
    dev = np.abs(np.linalg.norm(psi, axis=-1) - 1.0).max(initial=0.0)
    if dev > atol:
        raise DomainError(f"state is not normalized: |norm - 1| = {dev:.3e}")
    return psi


def _require_pair(op, psi, atol: float) -> tuple[np.ndarray, np.ndarray]:
    op, psi = require_hermitian(op, atol=atol), require_state(psi)
    if op.shape[-1] != psi.shape[-1]:
        raise DomainError(f"dimension mismatch: op {op.shape[-1]}, state {psi.shape[-1]}")
    return op, psi


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two square matrices; (a⊗b)(x⊗y) = (ax)⊗(by)."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DomainError(f"tensor takes two matrices, got shapes {a.shape} and {b.shape}")
    return np.kron(a, b)


def eig_hermitian(h, atol: float = HERMITICITY_ATOL):
    """Eigendecomposition of a Hermitian matrix or stack, one LAPACK call per member.

    Returns (eigenvalues, eigenvectors) with real eigenvalues in ascending
    order and eigenvector columns forming a unitary matrix.  Within a
    degenerate cluster the eigenvector basis is arbitrary; every consumer in
    this package is basis-independent, so no canonicalization is applied.
    Raises np.linalg.LinAlgError if the QR iteration fails to converge.
    """
    h = require_hermitian(h, atol=atol)
    return np.linalg.eigh(h)


def seminorm(h, atol: float = HERMITICITY_ATOL):
    """Spectral width max eigenvalue - min eigenvalue of a Hermitian matrix or stack, from its
    eigenvalues alone (one LAPACK call per member, no eigenvectors)."""
    w = np.linalg.eigvalsh(require_hermitian(h, atol=atol))
    return _real(w[..., -1] - w[..., 0])


def expm_hermitian(h, t, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Unitary exp(-i h t) for Hermitian h, via eigendecomposition; t broadcasts over h's leading shape."""
    w, v = eig_hermitian(h, atol=atol)
    phase = np.exp(-1j * w * np.asarray(t, dtype=float)[..., None])
    return (v * phase[..., None, :]) @ _dagger(v)


def expectation(op, psi, atol: float = HERMITICITY_ATOL):
    """<psi|op|psi> for Hermitian op; the imaginary residue is discarded."""
    op, psi = _require_pair(op, psi, atol)
    return _real(_braket(psi, _apply(op, psi)))


def variance(op, psi, atol: float = HERMITICITY_ATOL):
    """Var[op] = <op²> - <op>² over a pure state (>= 0 up to rounding)."""
    op, psi = _require_pair(op, psi, atol)
    phi = _apply(op, psi)
    return _real(_braket(phi, phi) - _braket(psi, phi) ** 2)


def covariance(a, b, psi, atol: float = HERMITICITY_ATOL):
    """Symmetrized covariance ½<AB+BA> - <A><B> over a pure state."""
    a, psi = _require_pair(a, psi, atol)
    b = require_hermitian(b, atol=atol)
    if b.shape[-1] != a.shape[-1]:
        raise DomainError(f"dimension mismatch: operators {a.shape[-1]} and {b.shape[-1]}")
    apsi, bpsi = _apply(a, psi), _apply(b, psi)
    return _real(_braket(apsi, bpsi) - _braket(psi, apsi) * _braket(psi, bpsi))
