"""Tests for span tracing and the structured logger."""

from __future__ import annotations

import logging

import pytest

from repro.obs import (
    completed_spans,
    get_logger,
    log_event,
    metrics,
    reset_spans,
    span,
)


@pytest.fixture(autouse=True)
def _clean_trace():
    reset_spans()
    yield
    reset_spans()


class TestSpans:
    def test_span_records_name_and_duration(self):
        with span("stage.a"):
            pass
        records = completed_spans()
        assert len(records) == 1
        assert records[0].name == "stage.a"
        assert records[0].duration_s >= 0.0
        assert records[0].depth == 0

    def test_nested_spans_track_depth_and_complete_inner_first(self):
        with span("outer"):
            with span("inner"):
                pass
        names = [(s.name, s.depth) for s in completed_spans()]
        assert names == [("inner", 1), ("outer", 0)]

    def test_span_attrs_land_in_record(self):
        with span("fig8.run", workers=2):
            pass
        record = completed_spans()[0]
        assert record.attrs == {"workers": 2}
        assert record.as_dict()["attrs"] == {"workers": 2}

    def test_span_recorded_even_on_exception(self):
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("x")
        assert [s.name for s in completed_spans()] == ["boom"]
        # Depth is restored for the next span.
        with span("after"):
            pass
        assert completed_spans()[-1].depth == 0

    def test_reset_clears_trace(self):
        with span("x"):
            pass
        reset_spans()
        assert completed_spans() == []

    def test_store_keeps_the_most_recent_spans_and_counts_the_rest(self):
        before = metrics().counter("obs.spans.dropped")
        for i in range(10_000):
            with span("request", i=i):
                pass
        records = completed_spans()
        assert isinstance(records, list)
        assert [r.attrs["i"] for r in records] == list(range(5_904, 10_000))
        assert metrics().counter("obs.spans.dropped") - before == 5_904
        reset_spans()
        assert completed_spans() == []


class TestLogger:
    def test_get_logger_nests_under_repro(self):
        assert get_logger("repro.runtime.cache").name == "repro.runtime.cache"
        assert get_logger("thirdparty.mod").name == "repro.thirdparty.mod"

    def test_root_has_single_stderr_handler(self, capsys):
        log = get_logger("repro.obs.test")
        log.warning("to stderr")
        captured = capsys.readouterr()
        assert "to stderr" in captured.err
        assert captured.out == ""

    def test_log_event_formats_sorted_key_values(self, caplog):
        log = get_logger("repro.test.events")
        with caplog.at_level(logging.WARNING, logger="repro.test.events"):
            log_event(log, "cache.corrupt", path="/x", error="torn")
        assert caplog.records
        message = caplog.records[-1].getMessage()
        assert message.startswith("cache.corrupt ")
        # Keys are emitted sorted for grep-stable output.
        assert message == "cache.corrupt error='torn' path='/x'"

    def test_log_event_respects_level(self, caplog):
        log = get_logger("repro.test.quiet")
        with caplog.at_level(logging.WARNING, logger="repro.test.quiet"):
            log_event(log, "noisy.debug", level=logging.DEBUG, a=1)
        assert not [
            r for r in caplog.records if r.getMessage().startswith("noisy.debug")
        ]
