"""Self-time arithmetic on span trees timed by a logical clock."""

import json

from repro.clockwork import LogicalClock

from perfbench import metrics
from perfbench.spans import (
    NO_PARENT,
    SpanRecorder,
    Spans,
    covered,
    layer_totals,
    self_times,
    top_level_seconds,
)


def recorder_on(clock: LogicalClock) -> SpanRecorder:
    return SpanRecorder(clock=lambda: clock.now)


def test_nested_tree_self_times():
    clock = LogicalClock()
    recorder = recorder_on(clock)
    with recorder.span("cycle"):            # 0 .. 20
        clock.advance(2)
        with recorder.span("audit"):        # 2 .. 15
            clock.advance(1)
            with recorder.span("client"):   # 3 .. 9
                clock.advance(2)
                with recorder.span("engine"):  # 5 .. 8
                    clock.advance(3)
                clock.advance(1)
            with recorder.span("client"):   # 9 .. 13
                clock.advance(4)
            clock.advance(2)
        clock.advance(5)
    spans = recorder.spans
    assert spans.names == ["cycle", "audit", "client", "engine", "client"]
    assert spans.parents == [NO_PARENT, 0, 1, 2, 1]
    assert self_times(spans) == [7, 3, 3, 3, 4]
    totals = layer_totals(spans)
    assert totals["client"] == {"self_s": 7, "calls": 2}
    assert sum(entry["self_s"] for entry in totals.values()) == 20
    assert top_level_seconds(spans) == 20


def test_children_union_is_clipped_to_the_parent():
    # overlapping and escaping children never count twice or outside
    assert covered((0, 10), [(2, 6), (4, 8), (9, 14)]) == 7
    assert covered((5, 10), [(0, 3)]) == 0
    assert covered((0, 10), []) == 0


def test_self_time_never_negative_with_overlapping_children():
    spans = Spans()
    spans.add("parent", NO_PARENT, 0, 10)
    spans.add("a", 0, 1, 7)
    spans.add("b", 0, 3, 9)
    assert self_times(spans) == [2, 6, 6]


def test_span_tags_and_counters():
    clock = LogicalClock()
    recorder = recorder_on(clock)
    recorder.tag = "c0"
    with recorder.span("outer"):
        recorder.tag = "c0/s1"
        with recorder.span("inner"):
            clock.tick()
    recorder.count("bytes", 5)
    recorder.count("bytes", 7)
    assert recorder.spans.tags == ["c0", "c0/s1"]
    assert recorder.counters == {"bytes": 12}
    assert recorder.stack == []


def test_layer_table_reports_every_layer_and_coverage():
    clock = LogicalClock()
    recorder = recorder_on(clock)
    with recorder.span("phase.audit"):
        clock.advance(1)
        with recorder.span("engine.update"):
            clock.advance(3)
    clock.advance(1)  # outside every span
    table = metrics.layer_table(recorder.spans, {"wal.fsyncs": 4},
                                wall_s=clock.now)
    assert table["engine.update.self_s"] == 3
    assert table["engine.update.calls"] == 1
    assert table["phase.audit.self_s"] == 1
    assert table["engine.select.calls"] == 0
    assert table["wal.fsyncs"] == 4
    assert table["spans.coverage_ratio"] == 4 / 5
    expected = set(metrics.per_layer_units()) - {
        name for name, _ in metrics.OVERHEAD}
    assert set(table) == expected


def test_spans_are_written_as_json_lines(tmp_path):
    clock = LogicalClock()
    recorder = recorder_on(clock)
    with recorder.span("outer"):
        clock.tick()
        with recorder.span("inner"):
            clock.tick()
    path = tmp_path / "spans.jsonl"
    recorder.write(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == [[0, "outer", NO_PARENT, 0, 2, ""],
                     [1, "inner", 0, 1, 2, ""]]
