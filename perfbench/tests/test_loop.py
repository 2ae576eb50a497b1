"""The closed loop counts a failed operation and goes on with the next."""

import run
from workloads import OpOutputs, sub_seed


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class FlakyWorkload:
    """One-second operations; operation 1 raises, as a build_splits call
    hitting a known defect would."""

    def __init__(self, clock):
        self.clock = clock
        self.ran = []

    def op(self, k, tally, out):
        self.ran.append(k)
        self.clock.now += 1.0
        if k == 1:
            raise KeyError(14)
        tally.add("s", 1.0, 1)


def test_failed_operation_is_counted_and_not_retried():
    clock = FakeClock()
    w = FlakyWorkload(clock)
    failures = []
    plain, _traced, attempted, _wall = run.run_loop(w, 3.5, 7, clock, OpOutputs(),
                                                    failures)
    assert w.ran == [0, 1, 2, 3]      # the last one starts at 3.0 < 3.5
    assert attempted == 4
    assert [(f["op"], f["type"], f["seed"]) for f in failures] == \
        [(1, "KeyError", sub_seed(7, 1))]
    assert plain.work == {"s": 3}
