"""Host-speed scaling of chunk times."""

import pytest

import host
from workloads import Chunker, Tally


class FakeCalibrator:
    """Clock and kernel times read from lists."""

    def __init__(self, ticks, kernels):
        self._ticks, self._kernels = iter(ticks), iter(kernels)
        self.samples = []

    def clock(self):
        return next(self._ticks)

    def kernel(self):
        k = next(self._kernels)
        self.samples.append(k)
        return k


def test_scaled_time_reads_as_on_the_reference_host():
    assert host.scaled(3.0, host.REF_S) == pytest.approx(3.0)
    # a host running at two thirds of the reference speed
    assert host.scaled(3.0, 1.5 * host.REF_S) == pytest.approx(2.0)


def test_chunks_exclude_the_kernel_and_untimed_gaps():
    # start at t=0; chunk a ends at 2; kernel; restart at 5; chunk b ends at 6
    cal = FakeCalibrator(ticks=[0.0, 2.0, 3.0, 5.0, 6.0, 7.0],
                         kernels=[host.REF_S, 2 * host.REF_S])
    tally = Tally()
    ch = Chunker(tally, cal)
    ch.cut("a", work=10)
    ch.restart()
    ch.cut("b", work=4)
    assert tally.seconds == {"a": 2.0, "b": 1.0}
    assert tally.work == {"a": 10, "b": 4}
    assert cal.samples == [host.REF_S, 2 * host.REF_S]
    assert tally.rate("a") == pytest.approx(5.0)
    assert tally.rate("b", kernel=host.REF_S) == pytest.approx(4.0)
    assert tally.rate("b", kernel=2 * host.REF_S) == pytest.approx(8.0)
    assert tally.rate("missing") == 0.0


def test_calibration_kernel_keeps_its_samples():
    cal = host.Calibrator()
    assert cal.samples == []
    k = cal.kernel()
    assert cal.samples == [k] and k > 0
