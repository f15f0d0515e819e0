import math

import numpy as np
import pytest

from nhsense.errors import DomainError
from nhsense.operators import (
    ID2, SIGMA_X, SIGMA_Y, SIGMA_Z,
    covariance, eig_hermitian, expm_hermitian,
    require_hermitian, require_state, seminorm, spectral_generator, tensor, variance,
)
from nhsense.evolution import generators
from nhsense.pseudo_hermitian import PseudoHermitianParams, _splitting, dilated_hamiltonian
from nhsense.verification import _gaussian, _unitary_from_gaussian

from conftest import KET0, KET_PLUS, constant_family, make_rng, random_hermitian, random_state
from oracles import generator_closed, seminorm_eigh


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(ID2, ID2), np.eye(4))

    def test_double_bit_flip(self):
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        ket11 = np.array([0, 0, 0, 1], dtype=complex)
        assert np.allclose(tensor(SIGMA_X, SIGMA_X) @ ket00, ket11)

    def test_index_formula_oracle(self):
        # (a (x) b)[i q + k, j q + l] = a[i, j] b[k, l]
        rng = make_rng(11)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        got = tensor(a, b)
        expected = np.empty((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        expected[2 * i + k, 2 * j + l] = a[i, j] * b[k, l]
        assert np.abs(got - expected).max() < 1e-14

    def test_sigma_y_pair(self):
        got = tensor(SIGMA_Y, SIGMA_Y)
        expected = np.array([
            [0, 0, 0, -1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
        ], dtype=complex)
        assert np.abs(got - expected).max() < 1e-14

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            tensor(np.ones((2, 3)), ID2)


class TestEigHermitian:
    def test_sigma_z(self):
        w, _ = eig_hermitian(SIGMA_Z)
        assert np.allclose(w, [-1.0, 1.0])

    def test_sigma_x_eigenvectors(self):
        w, v = eig_hermitian(SIGMA_X)
        assert np.allclose(w, [-1.0, 1.0])
        for k in range(2):
            # eigenvectors equal (|0> -/+ |1>)/sqrt(2) up to a phase
            overlap = abs(np.vdot(v[:, k], np.array([1.0, -1.0 if k == 0 else 1.0]) / math.sqrt(2)))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_dilated_hamiltonian_spectrum(self):
        # block spectra +-sqrt((b+lam)^2 + c^2); at eps=0.1, omega=1, lam=0
        # both blocks give +-2 omega sqrt(eps (1+eps)), doubly degenerate
        h = dilated_hamiltonian(PseudoHermitianParams(0.1, 1.0, 0.0))
        w, v = eig_hermitian(h)
        omega_expected = 2.0 * math.sqrt(0.1 * 1.1)
        assert np.allclose(w, [-omega_expected, -omega_expected, omega_expected, omega_expected],
                           atol=1e-12)
        assert omega_expected == pytest.approx(0.66332495807108, abs=1e-12)
        assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            eig_hermitian(np.array([[np.nan, 0], [0, 1.0]], dtype=complex))


class TestSeminorm:
    def test_pauli(self):
        assert seminorm(SIGMA_X) == pytest.approx(2.0, abs=1e-14)

    def test_identity(self):
        assert seminorm(ID2) == pytest.approx(0.0, abs=1e-14)

    def test_projector_width(self):
        # 1 - sigma_z has eigenvalues 0 and 2 (the Example II drive operator)
        assert seminorm(ID2 - SIGMA_Z) == pytest.approx(2.0, abs=1e-14)


class TestExpm:
    def test_sigma_z_pi(self):
        assert np.abs(expm_hermitian(SIGMA_Z, math.pi) + np.eye(2)).max() < 1e-12

    def test_zero_time(self, rng):
        h = random_hermitian(rng, 5)
        assert np.abs(expm_hermitian(h, 0.0) - np.eye(5)).max() < 1e-14

    def test_rabi_formula_oracle(self):
        # exp(-i (n.sigma) Omega t)|0> = cos(Omega t)|0> - i sin(Omega t)(nx + i ny)|1>
        p = PseudoHermitianParams(0.1, 1.0, 0.2)
        h1 = (p.b + p.lam) * SIGMA_X - p.c * SIGMA_Y
        om = float(_splitting(p)[1][0])
        for t in (0.3, 1.1, 2.7):
            got = expm_hermitian(h1, t) @ np.array([1.0, 0.0], dtype=complex)
            amp1 = -1j * ((p.b + p.lam) - 1j * p.c) / om * math.sin(om * t)
            expected = np.array([math.cos(om * t), amp1], dtype=complex)
            assert np.abs(got - expected).max() < 1e-12

    def test_unitarity(self, rng):
        for _ in range(20):
            h = random_hermitian(rng, 4)
            u = expm_hermitian(h, float(rng.uniform(0, 5)))
            assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10


class TestSpectralGenerator:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_the_propagated_generator(self, rng, dim):
        # the core's i U† dU/dlam on the constant family, to within 10 tol at tol 1e-12
        h, dh = random_hermitian(rng, dim), random_hermitian(rng, dim)
        times = np.array([0.0, 0.4, 2.0, 3.5])
        us, hs = generators(constant_family(h, dh), [0.0], times, tol=1e-12)
        for k, t in enumerate(times.tolist()):
            u, g = spectral_generator(h, dh, t)
            assert np.abs(u - us[0, k]).max() < 1e-11 and np.abs(g - hs[0, k]).max() < 1e-11

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_matches_the_closed_form_through_degenerate_levels(self, eps):
        # the dilated H has the doubly degenerate levels ±Omega at every lam; the grid
        # holds the dip lam = 0, lam = -2 eps omega and lam = -b, where Omega = c
        p0 = PseudoHermitianParams(eps, 1.0)
        p = PseudoHermitianParams(eps, 1.0, np.concatenate([np.linspace(-0.5, 0.5, 41),
                                                            [0.0, -2.0 * eps, -p0.b]]))
        dh = tensor(ID2, SIGMA_X)
        for t in (0.0, p.tau / 3, p.tau, 5 * p.tau):
            u, g = spectral_generator(dilated_hamiltonian(p), dh, t)
            assert np.abs(g - generator_closed(p, t)).max() < 1e-12 * max(1.0, t)
            assert np.abs(u - expm_hermitian(dilated_hamiltonian(p), t)).max() == 0.0

    def test_zero_time(self, rng):
        h, dh = random_hermitian(rng, 5), random_hermitian(rng, 5)
        u, g = spectral_generator(h, dh, 0.0)
        assert np.array_equal(g, np.zeros((5, 5))) and np.abs(u - np.eye(5)).max() < 1e-14

    def test_generator_is_exactly_hermitian(self, rng):
        hs, dh = np.stack([random_hermitian(rng, 4) for _ in range(6)]), random_hermitian(rng, 4)
        _, g = spectral_generator(hs, dh, 1.7)
        assert np.array_equal(g, g.conj().swapaxes(-1, -2))

    def test_lone_call_is_its_stack_member(self, rng):
        hs, dh = np.stack([random_hermitian(rng, 4) for _ in range(5)]), random_hermitian(rng, 4)
        us, gs = spectral_generator(hs, dh, 2.3)
        for j in range(5):
            u, g = spectral_generator(hs[j], dh, 2.3)
            assert repr(u.tolist()) == repr(us[j].tolist()) and repr(g.tolist()) == repr(gs[j].tolist())

    @pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
    def test_bad_time_is_named(self, t):
        with pytest.raises(DomainError, match=f"t must be finite and >= 0, got {t}"):
            spectral_generator(SIGMA_Z, SIGMA_X, t)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError, match="dimension mismatch: h 2, dh 4"):
            spectral_generator(SIGMA_Z, tensor(ID2, SIGMA_X), 1.0)


class TestMoments:
    def test_variance_eigenstate(self):
        assert variance(SIGMA_Z, KET0) == pytest.approx(0.0, abs=1e-14)

    def test_variance_superposition(self):
        assert variance(SIGMA_Z, KET_PLUS) == pytest.approx(1.0, abs=1e-14)

    def test_covariance_example(self):
        # <0|(sx sy + sy sx)/2|0> = 0 and <sx><sy> = 0
        assert covariance(SIGMA_X, SIGMA_Y, KET0) == pytest.approx(0.0, abs=1e-14)

    def test_variance_equals_self_covariance(self, rng):
        for _ in range(25):
            h = random_hermitian(rng, 3)
            psi = random_state(rng, 3)
            assert covariance(h, h, psi) == pytest.approx(variance(h, psi), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            variance(SIGMA_Z, np.array([1.0, 0, 0, 0], dtype=complex))

    def test_state_norm_enforced(self):
        with pytest.raises(DomainError):
            require_state(np.array([1.0, 1.0], dtype=complex))

    def test_hermiticity_not_symmetrized(self):
        # a matrix just over the tolerance is rejected, not repaired
        h = SIGMA_X + 1e-10 * np.array([[0, 1j], [0, 0]])
        with pytest.raises(DomainError):
            require_hermitian(h)


class TestStacks:
    """A (..., d, d) stack's members equal their lone 2-D calls."""

    @staticmethod
    def draw(rng, shape, dim):
        hs = np.stack([random_hermitian(rng, dim) for _ in range(math.prod(shape))]).reshape(*shape, dim, dim)
        psis = np.stack([random_state(rng, dim) for _ in range(math.prod(shape))]).reshape(*shape, dim)
        return hs, psis

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 6, 16])
    def test_spectral_members_bit_for_bit(self, rng, dim):
        hs, _ = self.draw(rng, (3, 4), dim)
        ts = rng.uniform(0.0, 3.0, size=(3, 4))
        w, v = eig_hermitian(hs)
        widths, us = seminorm(hs), expm_hermitian(hs, ts)
        assert widths.shape == ts.shape and us.shape == hs.shape
        for i in np.ndindex(3, 4):
            w1, v1 = eig_hermitian(hs[i])
            assert np.array_equal(w[i], w1) and np.array_equal(v[i], v1)
            assert widths[i] == seminorm(hs[i])
            assert np.array_equal(us[i], expm_hermitian(hs[i], float(ts[i])))

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_values_only_width_is_the_eigh_width(self, rng, dim):
        # eigvalsh and eigh run different LAPACK paths, so the widths may differ by rounding.
        # Each is backward stable, within O(d) ulp of the spectral scale: 4 d ulp allowed,
        # on random stacks and on degenerate spectra (seen: 6 ulp at d = 3, 20 at d = 16)
        hs, _ = self.draw(rng, (40,), dim)
        u = np.stack([_unitary_from_gaussian(_gaussian(rng, dim, dim)) for _ in range(3)])
        levels = np.diag(np.arange(dim) % 2 * 1.5 - 0.5 + 0j)  # two levels, each repeated
        hs = np.concatenate([hs, 3.0 * np.eye(dim)[None], u @ levels @ u.conj().swapaxes(-1, -2)])
        scale = np.abs(np.linalg.eigvalsh(hs)).max(axis=-1)
        got, want = seminorm(hs), seminorm_eigh(hs)
        assert np.all(np.abs(got - want) <= 4.0 * dim * np.finfo(float).eps * scale)
        assert got[40] == 0.0 and np.all(got >= 0.0)

    def test_expm_time_broadcasts_over_the_leading_shape(self, rng):
        hs, _ = self.draw(rng, (5,), 4)
        ts = np.linspace(0.0, 2.0, 3)
        us = expm_hermitian(hs[:, None], ts)
        assert us.shape == (5, 3, 4, 4)
        for i, j in np.ndindex(5, 3):
            assert np.array_equal(us[i, j], expm_hermitian(hs[i], float(ts[j])))

    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 16])
    def test_moments_within_4_ulp(self, rng, dim):
        a, psis = self.draw(rng, (2, 5), dim)
        b, _ = self.draw(rng, (2, 5), dim)
        ulp = 4.0 * np.finfo(float).eps
        for got, lone, scale in [
            (variance(a, psis), lambda i: variance(a[i], psis[i]), lambda i: np.linalg.norm(a[i], 2) ** 2),
            (covariance(a, b, psis), lambda i: covariance(a[i], b[i], psis[i]),
             lambda i: np.linalg.norm(a[i], 2) * np.linalg.norm(b[i], 2)),
        ]:
            assert got.shape == (2, 5)
            for i in np.ndindex(2, 5):
                assert abs(got[i] - lone(i)) <= ulp * scale(i)

    def test_one_probe_broadcasts_over_an_operator_stack(self, rng):
        hs, _ = self.draw(rng, (6,), 3)
        psi = random_state(rng, 3)
        got = variance(hs, psi)
        assert [float(x) for x in got] == [variance(h, psi) for h in hs]

    def test_lone_calls_return_python_floats(self, rng):
        h, psi = random_hermitian(rng, 3), random_state(rng, 3)
        for value in (seminorm(h), variance(h, psi), covariance(h, h, psi)):
            assert type(value) is float

    def test_one_non_hermitian_member_reports_the_worst_deviation(self, rng):
        hs, _ = self.draw(rng, (4,), 3)
        hs[1, 0, 2] += 3e-9
        hs[3, 1, 0] += 5e-10
        for call in (require_hermitian, eig_hermitian, seminorm, lambda h: expm_hermitian(h, 1.0)):
            with pytest.raises(DomainError, match=r"max \|a - a†\| = 3\.000e-09"):
                call(hs)

    def test_one_non_finite_member_is_rejected(self, rng):
        hs, psis = self.draw(rng, (4,), 3)
        bad = hs.copy()
        bad[2, 1, 1] = np.inf
        with pytest.raises(DomainError, match="non-finite"):
            seminorm(bad)
        psis[3, 0] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            variance(hs, psis)

    def test_one_unnormalized_state_is_rejected(self, rng):
        hs, psis = self.draw(rng, (4,), 3)
        psis[1] *= 1.0 + 1e-9
        with pytest.raises(DomainError, match="not normalized"):
            variance(hs, psis)

    def test_tensor_takes_matrices_only(self):
        with pytest.raises(DomainError):
            tensor(np.stack([ID2, ID2]), ID2)


class TestInequalitySuites:
    """Seeded random-instance suites for the operator inequalities."""

    N = 300

    def test_triangle_inequality(self, rng):
        for _ in range(self.N):
            dim = int(rng.integers(2, 7))
            a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
            assert seminorm(a + b) <= seminorm(a) + seminorm(b) + 1e-10

    def test_unitary_invariance(self, rng):
        for _ in range(self.N):
            dim = int(rng.integers(2, 7))
            h = random_hermitian(rng, dim)
            u = _unitary_from_gaussian(_gaussian(rng, dim, dim))
            assert abs(seminorm(u.conj().T @ h @ u) - seminorm(h)) < 1e-10

    def test_variance_bound(self, rng):
        for _ in range(self.N):
            dim = int(rng.integers(2, 7))
            h = random_hermitian(rng, dim)
            psi = random_state(rng, dim)
            assert variance(h, psi) <= seminorm(h) ** 2 / 4.0 + 1e-10

    def test_covariance_inequality(self, rng):
        for _ in range(self.N):
            dim = int(rng.integers(2, 7))
            a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
            psi = random_state(rng, dim)
            lhs = abs(covariance(a, b, psi))
            rhs = math.sqrt(variance(a, psi) * variance(b, psi))
            assert lhs <= rhs + 1e-10

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
    def test_seminorm_additivity(self, rng, n_sites):
        # sum of the same one-body term on each site has width N * one-body width
        for _ in range(50):
            h1 = random_hermitian(rng, 2)
            total = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
            for j in range(n_sites):
                term = np.eye(1, dtype=complex)
                for k in range(n_sites):
                    term = np.kron(term, h1 if k == j else np.eye(2, dtype=complex))
                total += term
            assert abs(seminorm(total) - n_sites * seminorm(h1)) < 1e-10
