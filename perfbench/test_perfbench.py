"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from hostspeed import normalized
from run import Pass, judge, launch
from tracer import SpanTracer
from workloads import WORKLOADS


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_algebra_on_a_nested_call_tree():
    clock = FakeClock()
    tracer = SpanTracer(clock)

    def work(seconds):
        clock.now += seconds

    def leaf():
        work(1.0)

    def middle():
        work(2.0)
        leaf_span()
        work(0.5)

    def root():
        work(3.0)
        middle_span()
        leaf_span()
        work(0.25)

    leaf_span = tracer.wrap("leaf", leaf)
    middle_span = tracer.wrap("middle", middle)
    tracer.wrap("root", root)()

    totals = {name: tuple(record) for name, record in tracer.totals.items()}
    assert totals["leaf"] == (2, 2.0, 2.0)
    assert totals["middle"] == (1, 3.5, 2.5)
    assert totals["root"] == (1, 7.75, 3.25)
    # Self times partition the root span exactly.
    assert sum(record[2] for record in tracer.totals.values()) == totals["root"][1]
    assert tracer.edges == {(None, "root"): 1, ("root", "middle"): 1,
                            ("middle", "leaf"): 1, ("root", "leaf"): 1}


def test_self_time_survives_an_exception_in_a_child():
    clock = FakeClock()
    tracer = SpanTracer(clock)

    def failing():
        clock.now += 1.0
        raise ValueError("boom")

    child = tracer.wrap("child", failing)

    def parent():
        clock.now += 2.0
        with pytest.raises(ValueError):
            child()

    tracer.wrap("parent", parent)()
    assert tracer.totals["child"] == [1, 1.0, 1.0]
    assert tracer.totals["parent"] == [1, 3.0, 2.0]


def test_install_and_uninstall_restore_the_class():
    class Layer:
        def work(self):
            return 7

    original = Layer.__dict__["work"]
    tracer = SpanTracer()
    tracer.install(Layer, "work", "layer.work")
    assert Layer().work() == 7
    assert tracer.totals["layer.work"][0] == 1
    tracer.uninstall()
    assert Layer.__dict__["work"] is original


def test_normalized_reads_time_at_the_reference_speed():
    # Two samples: the first at twice the reference duration (half
    # speed), the second at the reference.  Kernel time counts zero.
    samples = [(1.0, 0.2), (3.0, 0.1)]
    assert normalized(samples, 0.0, 1.0, reference=0.1) == pytest.approx(0.5)
    assert normalized(samples, 1.2, 3.0, reference=0.1) == pytest.approx(0.9)
    assert normalized(samples, 3.1, 4.1, reference=0.1) == pytest.approx(1.0)
    assert normalized([], 2.0, 5.0) == 3.0


def _record(jobs, digest="d0"):
    return {
        "jobs": {job: {"digest": digest, "instructions": 10, "ipc": 0.5, "cycles": 20.0,
                       "serviced": 4, "classified": 4} for job in jobs},
        "resets": [0.0] * len(jobs),
        "finalizes": [1.0] * len(jobs),
        "model": {"model.swaps": 3.0},
    }


def test_wrong_pinned_digest_counts_the_job_failed():
    jobs = WORKLOADS["job_lbm"].jobs
    passes = [Pass(0.0, _record(jobs), ""), Pass(0.0, _record(jobs), "")]
    assert judge(jobs, passes, {jobs[0]: "d0"})[:2] == (2, 0)
    attempted, failed, problems = judge(jobs, passes, {jobs[0]: "other"})
    assert (attempted, failed) == (2, 2)
    assert "pinned" in problems[0]


def test_judge_fails_missing_jobs_digest_drift_and_model_drift():
    jobs = WORKLOADS["repro_milc"].jobs
    short = _record(jobs[:-1])
    drifted = _record(jobs, digest="d1")
    crashed = Pass(0.0, None, "exit 1")
    attempted, failed, problems = judge(
        jobs, [Pass(0.0, _record(jobs), ""), Pass(0.0, short, ""),
               Pass(0.0, drifted, ""), crashed], None)
    assert attempted == 4 * len(jobs)
    assert failed == 3 * len(jobs)
    model_changed = _record(jobs)
    model_changed["model"] = {"model.swaps": 4.0}
    _, failed, problems = judge(
        jobs, [Pass(0.0, _record(jobs), ""), Pass(0.0, model_changed, "")], None)
    assert failed == 0 and "determinism" in problems[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_pass_of_each_workload(name, tmp_path):
    workload = WORKLOADS[name]
    done = launch(name, 0, tmp_path / "pass", 120.0, ("--sizing", "tiny", "--trace"))
    assert done.record is not None, done.error
    assert judge(workload.jobs, [done], None)[:2] == (len(workload.jobs), 0)
    assert done.record["samples"], "the host-speed sampler never fired"
    totals = done.record["trace"]["totals"]
    assert totals["sim.run"]["calls"] == len(workload.jobs)
    assert totals["persist.write"]["calls"] == len(workload.jobs)


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
