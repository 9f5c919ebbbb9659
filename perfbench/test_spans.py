"""Self-time and percentile arithmetic of the tracer.

    python3 -m pytest perfbench/test_spans.py -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Span, Tracer, covered_length, run_residuals, self_times, tail_percentile  # noqa: E402


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert covered_length([(-5.0, 1.0), (9.0, 15.0)], 0.0, 10.0) == 2.0
    assert covered_length([(2.0, 8.0), (3.0, 4.0)], 0.0, 10.0) == 6.0


def test_self_time_subtracts_children_only():
    spans = [Span("run", 0.0, 10.0),
             Span("gradient", 1.0, 4.0, parent=0),
             Span("affine_parts", 1.5, 2.5, parent=1),
             Span("step", 5.0, 6.0, parent=0)]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_times_of_a_run_add_up_to_its_wall_time():
    spans = [Span("batch", 0.0, 20.0, run="round"),
             Span("run_once", 1.0, 9.0, parent=0, run="run-1"),
             Span("run", 1.5, 7.0, parent=1, run="run-1"),
             Span("gradient", 2.0, 3.0, parent=2, run="run-1"),
             Span("save", 7.5, 8.0, parent=1, run="run-1"),
             Span("run_once", 10.0, 19.0, parent=0, run="run-2"),
             Span("run", 10.0, 18.5, parent=5, run="run-2")]
    residuals = run_residuals(spans, self_times(spans))
    assert set(residuals) == {"run-1", "run-2"}
    assert all(abs(r) < 1e-12 for r in residuals.values())


def test_tracer_nests_and_labels_runs():
    t = Tracer("setup")
    a = t.begin("prep")
    t.end(a)
    r = t.begin("run_once", run_root=True)
    g = t.begin("gradient")
    assert t.ancestors() == ["gradient", "run_once"]
    t.end(g)
    t.end(r)
    assert [s.run for s in t.spans] == ["setup", "run-1", "run-1"]
    assert t.spans[g].parent == r and t.spans[r].parent == -1
    with pytest.raises(RuntimeError):
        x = t.begin("outer")
        t.begin("inner")
        t.end(x)


@pytest.mark.parametrize("n, p, rank", [(40, 75, 30), (100, 90, 90), (460, 97, 447),
                                        (1000, 99, 990)])
def test_tail_percentile_leaves_ten_samples_beyond(n, p, rank):
    samples = list(range(n, 0, -1))  # unsorted input
    got_p, value = tail_percentile(samples)
    assert (got_p, value) == (p, rank)
    assert sum(1 for x in samples if x > value) >= 10


def test_no_tail_below_forty_samples():
    assert tail_percentile(list(range(39))) is None
