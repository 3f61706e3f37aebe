"""The rules the benchmark reports its numbers by."""

import pytest

from pbench.stats import (
    LAG_GROWTH_MS,
    LATENCY_LIMIT_MS,
    Sample,
    StepResult,
    beyond,
    capacity_rps,
    lag_grows,
    max_rps,
    percentile,
    self_time,
    step_result,
    tail_percentile,
    window_rates,
)


# -- the percentile rule -------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(values, 100.0) == 100
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


@pytest.mark.parametrize("n, expected", [
    (5, None),         # not even the median has 10 beyond
    (20, 50.0),        # 10 beyond the median
    (100, 90.0),       # p95 has only 5 beyond
    (1000, 99.0),      # p99 has exactly 10 beyond
    (2000, 99.5),      # p99.5 has 10 beyond; p99.9 only 2
    (10000, 99.9),
])
def test_tail_percentile_has_ten_samples_beyond(n, expected):
    q = tail_percentile(n)
    assert q == expected
    if q is not None:
        assert beyond(n, q) >= 10


def test_two_thousand_requests_leave_twenty_beyond_p99():
    assert beyond(2000, 99.0) == 20


# -- timing from the due time, and lag -----------------------------------------


def test_latency_counts_from_due_time_not_send_time():
    # due at 1.0, the generator only got to send at 1.3 (both
    # connections busy), answered at 1.35: the user waited 350 ms
    s = Sample(due=1.0, sent=1.3, done=1.35, ok=True)
    assert s.latency == pytest.approx(0.35)
    assert s.lag == pytest.approx(0.3)


def test_lag_growth_detects_a_backlog():
    steady = [Sample(due=i / 100, sent=i / 100 + 0.001,
                     done=i / 100 + 0.005, ok=True) for i in range(90)]
    assert not lag_grows(steady)
    # every request 2 ms later than the one before: after 90 requests
    # the generator is 180 ms behind -- a growing backlog
    growing = [Sample(due=i / 100, sent=i / 100 + 0.002 * i,
                      done=i / 100 + 0.002 * i + 0.004, ok=True)
               for i in range(90)]
    assert lag_grows(growing)
    # a constant offset is late but not growing
    late = [Sample(due=i / 100, sent=i / 100 + LAG_GROWTH_MS / 500,
                   done=i / 100 + 0.1, ok=True) for i in range(90)]
    assert not lag_grows(late)


# -- the max_rps step rule ------------------------------------------------------


def _step(rate, p99, failed=0, growing=False, achieved=None):
    return StepResult(rate=rate, requests=100, failed=failed,
                      p99_ms=p99, lag_growing=growing,
                      achieved_rps=rate if achieved is None else achieved)


def test_max_rps_is_the_highest_passing_step():
    steps = [_step(100, 10), _step(150, 20), _step(200, 240, achieved=199.2),
             _step(250, 260), _step(300, 900)]
    # the rate sustained at that step, not its nominal rate
    assert max_rps(steps) == 199.2
    # a pass above a failed step counts
    assert max_rps([_step(100, 10), _step(150, 300),
                    _step(200, 30)]) == 200


def test_a_step_with_failures_or_growing_lag_does_not_pass():
    assert not _step(100, 5, failed=1).passed
    assert not _step(100, 5, growing=True).passed
    assert _step(100, LATENCY_LIMIT_MS).passed
    assert max_rps([_step(100, 5, failed=1)]) == 0.0


def test_step_result_charges_failures_against_the_limit():
    samples = [Sample(due=i / 100, sent=i / 100, done=i / 100 + 0.004,
                      ok=True) for i in range(99)]
    samples.append(Sample(due=0.99, sent=0.99, done=0.991, ok=False))
    step = step_result(100.0, [samples])
    assert step.failed == 1
    assert step.p99_ms == pytest.approx(4.0)
    assert not step.passed
    assert step.achieved_rps == pytest.approx(99 / 1.0, rel=0.01)


def test_step_result_counts_only_the_time_inside_its_segments():
    # two 1 s segments of 100 requests with 5 s of other phases between
    first = [Sample(due=i / 100, sent=i / 100, done=i / 100 + 0.004,
                    ok=True) for i in range(100)]
    second = [Sample(due=6 + i / 100, sent=6 + i / 100,
                     done=6 + i / 100 + 0.004, ok=True)
              for i in range(100)]
    step = step_result(100.0, [first, second])
    assert step.requests == 200
    assert step.achieved_rps == pytest.approx(100.0, rel=0.01)
    assert not step.lag_growing


# -- capacity: median window rate of the closed-loop bursts --------------------


def _burst(start, gaps):
    """A closed-loop burst sent at *start*, answered after *gaps*."""
    samples, t = [], start
    for gap in gaps:
        samples.append(Sample(due=t, sent=t, done=t + gap, ok=True))
        t += gap
    return samples


def test_window_rates_split_answers_into_equal_windows():
    # 100 answers 10 ms apart, then 100 answers 20 ms apart
    burst = _burst(5.0, [0.01] * 100 + [0.02] * 100)
    assert window_rates(burst, 2) == pytest.approx([100.0, 50.0])
    # windows start at the previous window's last answer: no gap lost
    rates = window_rates(burst, 4)
    assert sum(50 / r for r in rates) == pytest.approx(3.0)


def test_window_rates_skip_failures_and_cap_the_window_count():
    burst = _burst(0.0, [0.1, 0.1, 0.1])
    burst[1].ok = False
    assert len(window_rates(burst, 5)) == 2
    assert window_rates([], 5) == [0.0]


def test_capacity_is_the_median_window_over_every_burst():
    fast = _burst(0.0, [0.002] * 50)          # 500/s
    slow = _burst(10.0, [0.004] * 50)         # 250/s: a slow stretch
    steady = _burst(20.0, [0.0025] * 50)      # 400/s
    assert capacity_rps([fast, slow, steady], 1) == pytest.approx(400.0)
    # one slow window among five per burst leaves the median alone
    dip = _burst(0.0, [0.0025] * 40 + [0.01] * 10)
    assert capacity_rps([dip], 5) == pytest.approx(400.0)


# -- self time from overlapping child spans ------------------------------------


def test_self_time_without_children_is_the_duration():
    assert self_time((0.0, 10.0), []) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    # two children overlap on [3, 4]: together they cover [2, 6]
    assert self_time((0.0, 10.0), [(2.0, 4.0), (3.0, 6.0)]) == \
        pytest.approx(6.0)


def test_self_time_clips_children_to_the_parent():
    # a hedge that outlives its parent only covers the parent's part
    assert self_time((0.0, 10.0), [(8.0, 15.0), (-5.0, 1.0)]) == \
        pytest.approx(7.0)
    assert self_time((0.0, 10.0), [(11.0, 12.0)]) == pytest.approx(10.0)


def test_self_time_of_nested_and_disjoint_children():
    children = [(1.0, 2.0), (1.2, 1.8), (5.0, 7.0), (6.5, 9.0)]
    assert self_time((0.0, 10.0), children) == pytest.approx(10 - 1 - 4)
