"""Tests of the end-to-end benchmark harness (outside tier-1's testpaths).

Run them explicitly from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

import copy
import importlib
import json
import threading
import time

import pytest

import outputs
import run
import spans
from spans import BOUNDARIES, PartialOverlap, Tracer, self_times


def _attribute(boundary):
    module = importlib.import_module(boundary.module)
    owner = getattr(module, boundary.owner) if boundary.owner else module
    return vars(owner)[boundary.attr]


class TestSelfTimes:
    def test_nested(self):
        own, parent = self_times([(0.0, 10.0), (2.0, 6.0), (3.0, 4.0)])
        assert own == pytest.approx([6.0, 3.0, 1.0])
        assert parent == [None, 0, 1]

    def test_siblings(self):
        # The second child starts exactly when the first ends.
        own, parent = self_times([(0.0, 10.0), (1.0, 3.0), (3.0, 7.0), (12.0, 13.0)])
        assert own == pytest.approx([4.0, 2.0, 4.0, 1.0])
        assert parent == [None, 0, 0, None]

    def test_serial_cross_thread_nesting(self):
        # The caller blocks while another thread computes, as the
        # LocalService dispatcher does under --jobs 1.
        tracer = Tracer(boundaries=())

        def work():
            with tracer.root("inner"):
                time.sleep(0.02)

        with tracer.root("outer"):
            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        inner, outer = tracer.spans
        assert inner[2] != outer[2]
        own, parent = self_times(tracer.spans)
        assert parent == [1, None]
        assert own[1] == pytest.approx((outer[1] - outer[0]) - (inner[1] - inner[0]))

    def test_partial_overlap_is_rejected(self):
        with pytest.raises(PartialOverlap):
            self_times([(0.0, 5.0), (3.0, 8.0)])


class TestTracer:
    def test_wrapped_attributes_are_restored(self, tmp_path):
        from repro.experiments import cli

        originals = [_attribute(b) for b in BOUNDARIES]
        with Tracer() as tracer:
            assert all(_attribute(b) is not o for b, o in zip(BOUNDARIES, originals))
            with tracer.root("rank"):
                assert cli.main(
                    ["rank", "--cache-dir", str(tmp_path / "cache"), "--runs-dir", ""]
                ) == 0
        assert all(_attribute(b) is o for b, o in zip(BOUNDARIES, originals))
        metrics = tracer.metrics()
        assert metrics["service.LocalClient.sweep.calls"] == 1
        assert metrics["experiments.rank.wall_s"] > metrics["experiments.self_s"] > 0

    def test_restored_when_a_call_raises(self):
        originals = [_attribute(b) for b in BOUNDARIES]
        with pytest.raises(RuntimeError):
            with Tracer():
                raise RuntimeError("boom")
        assert all(_attribute(b) is o for b, o in zip(BOUNDARIES, originals))


def test_benchmark_json_names_match_the_harness():
    benchmark = run.load_benchmark()
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in benchmark["per_layer"]] == spans.metric_names()
    assert {m["name"] for m in benchmark["end_to_end"]} == {*run.RUN_METRICS, "setup_s"}


def test_injected_cell_failure_counts_as_failed():
    chaos = {"chaos": run.Workload(("fig4 --duration 0.02 --benchmarks blackscholes --chaos raise@0",))}
    doc = run.measure(chaos, run.DEFAULT_SEED, repeats=1, trace=False)
    assert doc["workloads"]["chaos"]["fail_frac"] > 0


def test_tampered_digest_fails_the_run(capsys):
    tiny = {"tiny": run.Workload(("fig1b", "table2"))}
    args = ["--workload", "tiny", "--repeats", "1", "--trace", "0"]
    expected = outputs.load_expected()
    assert run.main(args, workloads=tiny) == 0
    tampered = copy.deepcopy(expected)
    tampered["seeds"][str(run.DEFAULT_SEED)]["table2"] = "0" * 64
    assert run.main(args, expected=tampered, workloads=tiny) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == 0


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([1.00, 1.01, 0.99, 1.00], [1.02, 1.01, 1.03, 1.02], "lower", "same"),
        ([1.00, 1.01, 0.99, 1.00], [1.30, 1.31, 1.29, 1.30], "lower", "worse"),
        ([1.00, 1.01, 0.99, 1.00], [1.30, 1.31, 1.29, 1.30], "higher", "better"),
        ([1.0, 2.0, 1.0, 2.0], [1.5, 2.5, 1.5, 2.5], "lower", "unresolved"),
        ([1.0, 1.4, 1.0, 1.4], [2.0, 2.8, 2.0, 2.8], "lower", "worse"),
    ],
)
def test_verdict(a, b, better, expected):
    assert run.verdict(a, b, better, bound=0.1) == expected
