"""Span arithmetic, percentile choice, warm-up exclusion and wrapper
installation of the benchmark's tracer."""

import math

import pytest

import spans
from spans import Span, Tracer


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    s = [Span("root", 0.0, 10.0, -1), Span("a", 1.0, 4.0, 0),
         Span("a1", 2.0, 3.0, 1), Span("b", 5.0, 9.0, 0)]
    assert spans.self_times(s) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_clips_a_child_to_its_parent():
    s = [Span("p", 0.0, 2.0, -1), Span("c", 1.0, 3.0, 0)]
    assert spans.self_times(s) == [1.0, 2.0]


def test_self_times_sum_to_top_level_wall_time():
    s = [Span("r", 0.0, 8.0, -1), Span("x", 1.0, 2.5, 0), Span("y", 3.0, 7.0, 0),
         Span("z", 4.0, 5.0, 2), Span("r2", 9.0, 10.0, -1)]
    assert math.isclose(sum(spans.self_times(s)), 9.0)


@pytest.mark.parametrize("n,expected", [
    (19, None),      # p50 leaves 9.5 samples beyond it
    (20, 50.0),
    (99, 50.0),      # p90 leaves 9.9
    (100, 90.0),
    (999, 90.0),
    (1000, 99.0),
    (10000, 99.9),
    (10 ** 6, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert spans.tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    vals = list(range(1, 101))
    assert spans.percentile(vals, 50.0) == 50
    assert spans.percentile(vals, 90.0) == 90
    assert spans.percentile(vals, 99.9) == 100


def test_warmup_calls_are_excluded_from_the_head():
    slow = [1.0] * 50
    assert spans.steady(slow + [0.1] * 200) == [0.1] * 200
    assert spans.steady(slow + [0.1] * 10_000)[0] == 0.1
    assert len(spans.steady(list(range(10)))) == 8
    big = [5.0] * 300 + [0.1] * 10_000
    kept = spans.steady(big)
    assert len(kept) == len(big) - spans.WARMUP_MAX
    assert kept[:100] == [5.0] * 100


def test_summary_reports_p50_and_tail_of_steady_calls():
    warm = [9.0] * 25
    steady = [i * 1e-6 for i in range(1, 101)]
    st = spans.summarize(warm + steady)
    assert st.calls == 125 and st.steady_n == 100
    assert st.p50_us == pytest.approx(50.0)
    assert st.tail_pct == 90.0
    assert st.tail_us == pytest.approx(90.0)


def test_few_samples_give_no_tail():
    st = spans.summarize([1e-6] * 5)
    assert st.tail_pct is None and st.tail_us == 0.0 and st.p50_us == pytest.approx(1.0)


def test_batch_buckets_are_powers_of_two():
    assert [spans.batch_bucket(n) for n in (1, 2, 3, 4, 63, 64, 65)] == \
        [1, 2, 2, 4, 32, 64, 64]


def test_function_stats_tag_encoder_calls_by_bucket():
    s = [Span(spans.ENCODER, 0.0, 1.0, -1, 1), Span(spans.ENCODER, 1.0, 3.0, -1, 64)]
    stats = spans.function_stats(s)
    assert stats[spans.ENCODER].calls == 2
    assert stats[f"{spans.ENCODER}@1"].calls == 1
    assert stats[f"{spans.ENCODER}@64"].calls == 1


def test_wrapper_passes_values_and_exceptions_through():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    def inner(x, *, y=0):
        if x < 0:
            raise KeyError(x)
        return x + y

    outer_fn = None

    def outer(x):
        return wrapped_inner(x, y=1)

    wrapped_inner = tr.wrap(inner, "m.inner")
    outer_fn = tr.wrap(outer, "m.outer")
    assert outer_fn(2) == 3
    with pytest.raises(KeyError):
        wrapped_inner(-1)
    assert [(s.name, s.parent) for s in tr.spans] == \
        [("m.outer", -1), ("m.inner", 0), ("m.inner", -1)]
    assert tr.errors == {("m.inner", "KeyError"): 1}
    assert all(s.end > s.start for s in tr.spans)


def test_install_reaches_every_alias_and_uninstall_restores():
    import gridhouse.episodes
    import gridhouse.harness
    import gridhouse.trainer
    import gridhouse.world as world

    original = world.step
    tr = Tracer()
    tr.install()
    try:
        for mod in (world, gridhouse.episodes):
            assert mod.step is not original
        assert gridhouse.trainer.env_step is world.step
        assert gridhouse.harness.env_step is world.step
        assert world.step.__wrapped__ is original
    finally:
        tr.uninstall()
    assert world.step is original and gridhouse.trainer.env_step is original
    assert gridhouse.episodes.step is original


def test_traced_step_gives_the_same_result_and_counts_graph_nodes():
    from gridhouse import tensor as T

    a = T.Tensor([1.0, 2.0], requires_grad=True)
    loss = T.sum_(T.mul(a, a))
    tr = Tracer()
    tr.install()
    try:
        loss.backward()
    finally:
        tr.uninstall()
    assert list(a.grad) == [2.0, 4.0]
    assert tr.count(spans.BACKWARD) == 1
    assert tr.graph_nodes == 3     # a, a*a, sum
