"""Percentile choice and whole-round accounting of one run."""

import time

import pytest

import run
from stats import tail


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 26)]  # 25 samples
    value, pct, beyond = tail(reversed(samples))
    assert (value, beyond) == (15.0, 10)
    assert pct == pytest.approx(60.0)
    assert sum(s > value for s in samples) == 10


def test_tail_with_eleven_samples_is_the_minimum_with_ten_beyond():
    assert tail([float(i) for i in range(11)]) == (0.0, 100.0 / 11, 10)


def test_tail_with_too_few_samples_reports_what_it_has():
    value, pct, beyond = tail([3.0, 1.0, 2.0])
    assert (value, beyond) == (1.0, 2)
    assert pct == pytest.approx(100.0 / 3)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        tail([])


class FakeWorkload:
    """Ops of fixed cost with ``verdicts`` verdicts each."""

    def __init__(self, cost, verdicts=3, raising=()):
        self.cost, self.verdicts, self.raising = cost, verdicts, raising
        self.executed = []

    def schedule(self, ctx, seed):
        op = 0
        while True:
            yield op
            op += 1

    def execute(self, ctx, op):
        self.executed.append(op)
        time.sleep(self.cost)
        if op in self.raising:
            raise RuntimeError("injected")
        return op

    def expected_verdicts(self, ctx, op):
        return self.verdicts

    def check(self, ctx, op, raw):
        return [True] * self.verdicts


def test_run_holds_whole_ops_and_excludes_warm_up():
    work = FakeWorkload(cost=0.05)
    tally = run.measure(work, None, seed=0, seconds=0.12)
    n = len(tally.latencies)
    assert work.executed == list(range(n + 1))  # op 0 is the warm-up
    assert n >= 3
    # every timed op completed, the last one started before the deadline
    assert all(t >= 0.05 for t in tally.latencies)
    assert sum(tally.latencies[:-1]) < 0.12 + 0.05
    assert tally.attempted == tally.passed == tally.completed == 3 * n


def test_raising_op_fails_all_its_verdicts_and_the_run_continues():
    work = FakeWorkload(cost=0.01, verdicts=4, raising={2})
    tally = run.measure(work, None, seed=0, seconds=0.1)
    n = len(tally.latencies)
    assert n >= 3
    assert tally.attempted == 4 * n
    assert tally.passed == 4 * (n - 1)
    assert tally.completed == 4 * (n - 1)


def test_end_to_end_metrics_come_from_whole_ops():
    tally = run.Tally()
    tally.latencies = [2.0, 1.0, 3.0]
    tally.completed = tally.attempted = 30
    tally.passed = 27
    info = {}
    m = run.end_to_end(tally, [0.5, 0.7, 0.6], info)
    assert m["op_p50_s"]["value"] == 2.0
    assert m["verdicts_per_s"]["value"] == pytest.approx(5.0)
    assert m["pass_ratio"]["value"] == pytest.approx(0.9)
    assert m["setup_s"]["value"] == 0.6
    assert info["ops"] == 3 and info["op_tail_beyond"] == 2
