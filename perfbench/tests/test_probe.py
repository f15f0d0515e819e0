import signal
import time

import probe


def test_rescale_is_linear_in_both_times():
    assert probe.rescale(10.0, probe.REFERENCE_PROBE_S) == 10.0
    assert probe.rescale(10.0, 2 * probe.REFERENCE_PROBE_S) == 5.0


def test_sampler_samples_while_busy_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = probe.Sampler(period_s=0.01)
    sampler.start()
    try:
        t0 = time.perf_counter()
        end = t0 + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
        elapsed = time.perf_counter() - t0
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.samples and all(s > 0 for s in sampler.samples)
    assert sum(sampler.samples) < sampler.busy_s < elapsed
    assert sampler.median() > 0


def test_sampler_without_ticks_probes_once():
    sampler = probe.Sampler(period_s=10.0)
    sampler.start()
    sampler.stop()
    assert sampler.samples == [] and sampler.median() > 0
