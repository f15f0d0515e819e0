"""Span arithmetic and name rebinding of the benchmark's tracer."""

import numpy as np
import pytest

import spans
from nhsense import evolution, operators, pseudo_hermitian, pt_ep, qfi, verification
from nhsense.errors import DomainError


def test_self_time_on_nested_spans():
    recorded = [
        ["cli.main", -1, 0.0, 10.0],
        ["cli.run", 0, 1.0, 9.0],
        ["pt_ep.find_ep", 1, 2.0, 5.0],
        ["pt_ep.propagate_interval", 2, 2.0, 3.0],
        ["pt_ep.solve_ivp", 3, 2.2, 2.9],
        ["pt_ep.propagate_interval", 2, 3.5, 4.5],
        ["pt_ep.scan", 1, 5.0, 8.5],
        ["pt_ep.propagate_interval", 6, 5.5, 6.0],
    ]
    out = spans.summarize(recorded)
    names = out["names"]
    assert names["cli.main"]["self_s"] == pytest.approx(2.0)
    assert names["cli.run"]["self_s"] == pytest.approx(8.0 - 3.0 - 3.5)
    assert names["pt_ep.find_ep"]["self_s"] == pytest.approx(3.0 - 1.0 - 1.0)
    assert names["pt_ep.propagate_interval"] == pytest.approx(
        {"calls": 3, "s": 2.5, "self_s": 2.5 - 0.7})
    assert out["modules"]["cli"] == pytest.approx(2.0 + 1.5)
    assert out["modules"]["pt_ep"] == pytest.approx(6.5)
    # self times partition the root span
    assert sum(out["modules"].values()) == pytest.approx(out["roots_s"]) == pytest.approx(10.0)
    # only propagations inside find_ep count as its evaluations
    assert out["evals"] == {"pt_ep.find_ep": 2, "pt_ep.find_response_dip": 0}
    assert out["library_s"] == pytest.approx(3.0 + 3.5)


def test_summarize_empty():
    out = spans.summarize([])
    assert out["names"] == {} and out["roots_s"] == 0.0


# Every consumer binding the tracer must rebind, as (module, attribute).
SITES = [
    (evolution, "propagate"), (pseudo_hermitian, "propagate"), (verification, "propagate"),
    (operators, "tensor"), (pseudo_hermitian, "tensor"),
    (operators, "seminorm"), (qfi, "seminorm"), (verification, "seminorm"),
    (evolution, "solve_ivp"), (pt_ep, "solve_ivp"), (qfi, "quad"), (pt_ep, "quad"),
]


def test_install_rebinds_every_site_and_uninstall_restores():
    originals = [getattr(mod, attr) for mod, attr in SITES]
    tracer = spans.Tracer()
    try:
        assert tracer.install() >= len(SITES)
        for (mod, attr), original in zip(SITES, originals):
            bound = getattr(mod, attr)
            assert bound is not original and bound.__wrapped__ is original, (mod.__name__, attr)
        p = pseudo_hermitian.PseudoHermitianParams(0.1, 1.0, 0.0)
        pseudo_hermitian.qfi_numeric(p, 0.5)
        pt_ep.propagate_period(pt_ep.PtEpParams(J=1.0, Gamma=0.5, omega=4.0, delta=0.0,
                                                omega_delta=1.0))
    finally:
        assert tracer.uninstall()
    for (mod, attr), original in zip(SITES, originals):
        assert getattr(mod, attr) is original
    names = tracer.summary()["names"]
    assert names["evolution.propagate"]["calls"] == 1
    assert names["operators.tensor"]["calls"] > 0
    assert names["pt_ep.propagate_interval"]["calls"] == 1
    counters = tracer.summary()["counters"]
    assert counters["evolution.propagate.nfev"] > 0
    steps, nfev = (counters[f"pt_ep.propagate_interval.{k}"] for k in ("steps", "nfev"))
    assert 0 < steps < nfev


def test_uninstall_restores_after_an_exception():
    original = pseudo_hermitian.propagate
    tracer = spans.Tracer()
    with pytest.raises(DomainError):
        try:
            tracer.install()
            family = pseudo_hermitian.hamiltonian_family(0.1, 1.0)
            pseudo_hermitian.propagate(family, 0.0, np.array([1.0]))  # grid must start at 0
        finally:
            assert tracer.uninstall()
    assert pseudo_hermitian.propagate is original
    # the failed call still closed its span
    (name, parent, start, end), = [s for s in tracer.spans if s[0] == "evolution.propagate"]
    assert parent == -1 and end >= start
