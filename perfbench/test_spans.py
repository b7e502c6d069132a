"""Tests of the benchmark's own arithmetic, tracer and reference helper.

    python3 -m pytest perfbench -q
"""

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from layers import SPAN_METRICS, layer_metrics, metric_units
from reference import Reference
from spans import Span, Target, Tracer, ratio, self_times, tail, \
    union_length, worker_busy_ratio


def span(id, parent, start, end, name="x", thread=1, ok=True, info=None):
    return Span(id, parent, name, thread, start, end, ok, info)


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [span(1, None, 0.0, 10.0),
             span(2, 1, 1.0, 5.0, thread=2),
             span(3, 1, 3.0, 7.0, thread=3),
             span(4, 1, 8.0, 9.0)]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_clips_children_to_the_parent_interval():
    # A worker-thread child that started before and ended after its parent.
    spans = [span(1, None, 2.0, 6.0), span(2, 1, 0.0, 4.0, thread=2),
             span(3, 1, 5.0, 9.0, thread=3)]
    st = self_times(spans)
    assert st[1] == pytest.approx(1.0)
    assert st[2] == pytest.approx(4.0) and st[3] == pytest.approx(4.0)


def test_self_time_ignores_grandchildren():
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 0.0, 4.0),
             span(3, 2, 1.0, 2.0)]
    st = self_times(spans)
    assert st[1] == pytest.approx(6.0)
    assert st[2] == pytest.approx(3.0)


@pytest.mark.parametrize("n", [0, 1, 10])
def test_no_tail_below_eleven_samples(n):
    assert tail([float(i) for i in range(n)]) is None


def test_tail_has_ten_samples_beyond_it():
    t = tail([float(i) for i in range(11, 0, -1)])
    assert (t.value, t.samples) == (1.0, 11)
    assert t.percentile == pytest.approx(100.0 / 11)
    t = tail([float(i) for i in range(20)])
    assert (t.value, t.percentile) == (9.0, 50.0)
    t = tail([float(i) for i in range(1000)])
    assert (t.value, t.percentile) == (989.0, 99.0)
    assert sum(1 for i in range(1000) if i > t.value) == 10


def test_ratios_keep_their_base():
    assert ratio(3, 4) == (0.75, 3, 4)
    assert ratio(0, 0) == (0.0, 0, 0)
    r = worker_busy_ratio(cell_seconds=15.0, threads=2, wall_seconds=10.0)
    assert (r.value, r.part, r.base) == (0.75, 15.0, 20.0)


def test_worker_spans_nest_under_the_waiting_call():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner")
    cell = tracer.wrap(lambda x: inner(x) * 2, "cell")

    def sweep(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(cell, range(n)))

    sweep = tracer.wrap(sweep, "sweep")
    with tracer.top("call"):
        assert sweep(6) == [2 * (i + 1) for i in range(6)]
    by = {}
    for s in tracer.spans:
        by.setdefault(s.name, []).append(s)
    top, = by["call"]
    sw, = by["sweep"]
    assert sw.parent == top.id
    assert all(c.parent == sw.id for c in by["cell"])
    cells = {c.id: c for c in by["cell"]}
    for s in by["inner"]:
        assert s.parent in cells and cells[s.parent].thread == s.thread
    assert len({c.thread for c in by["cell"]}) <= 2
    assert all(c.thread != top.thread for c in by["cell"])


def test_failed_call_is_recorded_and_reraised():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    s, = tracer.spans
    assert not s.ok


def test_missing_targets_are_absent_not_fatal(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.present = lambda: 7
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    original = module.present
    tracer = Tracer()
    tracer.install([Target("fake_layer", "present", "fake.present"),
                    Target("fake_layer", "gone", "fake.gone"),
                    Target("no_such_module_xyz", "f", "nowhere.f")])
    assert module.present() == 7
    tracer.uninstall()
    assert module.present is original
    assert tracer.absent == {"fake.gone", "nowhere.f"}
    assert [s.name for s in tracer.spans] == ["fake.present"]


def test_layer_metrics_report_absent_spans_and_per_call_values():
    absent = {"scoring.e_step", "scoring.laplace_score"}
    spans = [span(1, None, 0.0, 4.0, "latentscore.score_report",
                  info=(("laplace", "bic"), ("laplace",))),
             span(2, 1, 0.0, 3.0, "scoring.neg_hessian"),
             span(3, None, 4.0, 8.0, "latentscore.score_report",
                  info=(("laplace", "bic"), ())),
             span(4, 3, 4.0, 7.0, "scoring.neg_hessian")]
    out, missing = layer_metrics(spans, calls=2, call_seconds=8.0,
                                 absent=absent)
    assert "scoring.e_step.total_s" in missing
    assert "scoring.laplace_score.ok_ratio" in missing
    assert "scoring.e_step.total_s" not in out
    assert out["scoring.score_report.calls"]["value"] == 1.0
    assert out["scoring.neg_hessian.total_s"]["value"] == 3.0
    assert out["share.neg_hessian"]["value"] == 0.75
    assert out["share.neg_hessian"]["base"].endswith("8.0000 s capacity")
    assert out["scoring.laplace.failed_ratio"]["value"] == 0.5
    assert out["scoring.bic.failed_ratio"]["value"] == 0.0
    assert out["scoring.oracle.failed_ratio"]["base"] == "0 of 0 reports"


def test_sweep_threads_and_busy_ratio_from_cell_spans():
    spans = [span(1, None, 0.0, 10.0, "latentscore.run_sweep"),
             span(2, 1, 0.0, 6.0, "experiment.fit", thread=2),
             span(3, 1, 6.0, 8.0, "experiment.score_report", thread=2,
                  info=(("bic",), ())),
             span(4, 1, 0.0, 7.0, "experiment.fit", thread=3)]
    out, _ = layer_metrics(spans, calls=1, call_seconds=10.0, absent=set())
    assert out["experiment.threads"]["value"] == 2.0
    assert out["experiment.worker_busy_ratio"]["value"] == 0.75
    assert out["share.fit"]["value"] == pytest.approx(13.0 / 20.0)
    assert out["share.base_s"]["value"] == 20.0


def test_every_span_metric_has_a_unit():
    units = metric_units()
    assert all(name in units for name, *_ in SPAN_METRICS)
    assert len(units) == len(set(units))


def test_thread_stacks_are_separate():
    tracer = Tracer()
    seen = {}

    def worker():
        s = tracer.open("w")
        seen["parent"] = s.parent
        tracer.close(s)

    outer = tracer.open("outer")
    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    tracer.close(outer)
    # No top-level span is open, so the worker's span has no parent.
    assert seen["parent"] is None


def test_reference_helper_times_samples_and_ends_on_close():
    ref = Reference()
    try:
        samples = [ref.sample() for _ in range(2)]
    finally:
        ref.close()
    assert all(s > 0 for s in samples)
    assert ref.proc.returncode == 0
