import tracemalloc

import numpy as np
import pytest

from nhsense import pseudo_hermitian as ph
from nhsense.evolution import generators, propagate, propagators
from nhsense.verification import (
    _operator_instances, _site_sum, build_report, check_operator_inequalities, check_pseudo_hermitian,
    check_qfi_bounds, check_qfi_oracle, family_stack, random_terms,
)

from conftest import make_rng, random_family, random_hermitian
from oracles import operator_inequalities_per_instance, operator_instances_per_draw

GRID = np.linspace(0.0, 1.5, 7)


def draw(seed: int, dim: int, n: int):
    """n random families of one dimension and their terms, drawn from two equal streams."""
    fams, terms = make_rng(seed), make_rng(seed)
    return [random_family(fams, dim) for _ in range(n)], [random_terms(terms, dim) for _ in range(n)]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_stack_member_is_its_own_family_bit_for_bit(dim):
    fams, terms = draw(5 + dim, dim, 3)
    lams = [0.3, -0.2, 0.45]
    us, hs = generators(family_stack(terms, lams), np.arange(3), GRID, tol=1e-10)
    for fam, lam, u, h in zip(fams, lams, us, hs):
        rec = propagate(fam, lam, GRID, tol=1e-10)
        assert np.array_equal(u, rec.U) and np.array_equal(h, rec.h)


def test_stack_propagators_equal_the_oracle_batches():
    # the fidelity oracle's five lam (lam, lam ± d/2, lam ± d) per family
    fams, terms = draw(17, 4, 2)
    lam, d = 0.2, 1e-2
    five = [lam, lam + d / 2.0, lam - d / 2.0, lam + d, lam - d]
    stacked = propagators(family_stack([f for f in terms for _ in five], five * 2), np.arange(10), 1.2,
                          tol=1e-12)
    for fam, u in zip(fams, stacked.reshape(2, 5, 4, 4)):
        assert np.array_equal(u, propagators(fam, five, 1.2, tol=1e-12))


@pytest.mark.parametrize("suite, seed, calls", [(check_qfi_bounds, 43, [(2, True), (6, True)]),
                                                (check_qfi_oracle, 44, [(2, True), (18, False),
                                                                        (1, True), (9, False)])])
def test_one_batch_per_dimension(suite, seed, calls, integrate_calls):
    # bounds: one tangent batch per dimension; oracle: one tangent batch and
    # one U-only batch of nine lam per family, per dimension: the two steps'
    # stencils share their centre lam
    assert all(r.passed for r in suite(seed))
    assert [(n, tangent) for n, _, tangent, _ in integrate_calls] == calls


def test_qfi_oracle_peak_memory():
    # the families gather each member's terms once per step attempt and broadcast
    # them over its stage times, and each distinct stencil lam is propagated once:
    # the traced peak is 2.54 MiB, against 4.41 MiB when every (member, stage time)
    # point gathered its own copy of the four term stacks
    tracemalloc.start()
    try:
        check_qfi_oracle(44)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20


def test_build_report_step_attempts(integrate_calls, magnus_calls):
    # each interval of a time grid is a batch member of its own, so the
    # report's long solves take few steps one after another: (lams, grid
    # points, tangent, step attempts) of every integrate call of seed 42
    assert build_report(42).overall_pass
    assert integrate_calls == [
        (2, 7, True, 6), (6, 7, True, 7),  # check_qfi_bounds, per dimension
        (2, 17, True, 4), (18, 17, False, 4), (1, 17, True, 4), (9, 17, False, 4),  # check_qfi_oracle
        (8, 5, True, 11),  # check_pt_ep's scan near the dip, each period four members
    ]
    assert sum(attempts for *_, attempts in integrate_calls) <= 1300
    # check_pt_ep's U-only EP periods, (members, Magnus steps of each): the Hermitian limit,
    # find_ep's pre-scan (its first half) and Brent, find_response_dip's bracket ends and Brent
    period = (1, [256])  # one serial Brent evaluation, at the larger count of its bracket's ends
    assert magnus_calls == [(1, [128]), (13, [128] * 2 + [256] * 11), *[period] * 6,
                            (2, [256, 256]), *[period] * 9]


@pytest.mark.parametrize("seed", [42, 777])
def test_operator_suite_matches_the_per_instance_loop(seed):
    # same draws in the same order, evaluated as stacks: each observed value as the loop's
    stacked = check_operator_inequalities(seed, n=400)
    looped = operator_inequalities_per_instance(seed, n=400)
    assert [r.name for r in stacked] == [r.name for r in looped]
    for got, want in zip(stacked, looped):
        assert got.passed and got.observed == pytest.approx(want.observed, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 42, 777])
@pytest.mark.parametrize("n", [1, 7, 400])
def test_operator_instances_equal_the_per_draw_loop(seed, n):
    # one normal draw per instance and one per h1 give the loop's stacks bit for bit
    by_dim, by_sites = _operator_instances(make_rng(seed), n)
    want_dim, want_sites = operator_instances_per_draw(make_rng(seed), n)
    assert list(by_dim) == list(want_dim) and list(by_sites) == list(want_sites)
    for dim, stacks in by_dim.items():
        for got, want in zip(stacks, want_dim[dim], strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    for n_sites, h1 in by_sites.items():
        want = want_sites[n_sites]
        assert h1.dtype == want.dtype and h1.shape == want.shape and h1.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
def test_site_sum_is_the_kron_sum(n_sites):
    rng = make_rng(60 + n_sites)
    h1 = np.stack([random_hermitian(rng, 2) for _ in range(3)])
    eye = np.eye(2, dtype=complex)
    for h, total in zip(h1, _site_sum(h1, n_sites)):
        terms = []
        for j in range(n_sites):
            term = np.eye(1, dtype=complex)
            for k in range(n_sites):
                term = np.kron(term, h if k == j else eye)
            terms.append(term)
        assert np.array_equal(total, sum(terms))


def test_build_report_eigh_and_kron_calls(monkeypatch):
    # one LAPACK call per stack and no kron.  eigh (vectors too) only where
    # expm_hermitian and the spectral QFI need them: 5 in the operator suite (per
    # dimension), 1 for the dilation grid and 8 for check_pseudo_hermitian's QFI
    # points, one per (epsilon, t).  The widths take eigenvalues alone: 13 eigvalsh in
    # the operator suite (per dimension and site count) and 8 + 9 in
    # check_qfi_bounds (per series and quadrature round)
    calls = {"eigh": 0, "eigvalsh": 0, "kron": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np, "kron", counted("kron", np.kron))
    assert build_report(42).overall_pass
    assert calls == {"eigh": 14, "eigvalsh": 30, "kron": 0}


def test_ph_qfi_row_reads_the_spectral_route():
    # verify's closed-vs-numeric QFI row checks sweep-ph's own route, qfi_numeric: its
    # observed value is qfi_numeric's worst relative mismatch at the row's points, bit for bit
    want = -np.inf
    for eps in (0.1, 0.01):
        p = ph.PseudoHermitianParams(eps, 1.0, [-0.2, 0.0, 0.3])
        for t in (k * p.tau / 4 for k in (1, 2, 4, 8)):
            f_closed = ph.qfi_closed(p, t)
            want = max(want, (np.abs(ph.qfi_numeric(p, t) - f_closed) / f_closed).max())
    [row] = [r for r in check_pseudo_hermitian() if r.name == "ph-qfi-closed-vs-numeric"]
    assert row.observed == want


def test_build_report_pseudo_hermitian_params(monkeypatch):
    # check_pseudo_hermitian validates one lam stack per closed-form sweep: 2 for the
    # QFI points, 1 for the dilation grid and 2 per epsilon for the sensitivity and
    # susceptibility windows
    built = []
    post_init = ph.PseudoHermitianParams.__post_init__
    monkeypatch.setattr(ph.PseudoHermitianParams, "__post_init__", lambda p: (built.append(p), post_init(p)))
    assert build_report(42).overall_pass
    assert len(built) == 9 and all(isinstance(p.lam, tuple) for p in built)
