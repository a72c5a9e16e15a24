"""Tests for trace analysis helpers (repro.experiments.analysis)."""

from repro.experiments import analysis
from repro.net.bus import MessageBus, Trace
from repro.net.message import MsgType
from repro.net.address import Address


def make_trace(counts: dict[MsgType, int]) -> Trace:
    bus = MessageBus()
    bus.register(Address(2))
    with bus.trace("t") as trace:
        for mtype, n in counts.items():
            for _ in range(n):
                bus.send(Address(1), Address(2), mtype)
    return trace


class TestBreakdown:
    def test_aggregates_types(self):
        traces = [
            make_trace({MsgType.SEARCH: 3, MsgType.RESPONSE: 1}),
            make_trace({MsgType.SEARCH: 2}),
        ]
        result = analysis.breakdown(traces)
        assert result.total == 6
        assert result.by_type["search"] == 5
        assert result.by_type["response"] == 1

    def test_to_text_sorted_by_count(self):
        result = analysis.breakdown([make_trace({MsgType.SEARCH: 5, MsgType.INSERT: 1})])
        text = result.to_text()
        assert text.index("search") < text.index("insert")

    def test_empty(self):
        assert analysis.breakdown([]).total == 0


class TestSummarize:
    def test_basic_stats(self):
        summary = analysis.summarize([1, 2, 3, 4, 100])
        assert summary.count == 5
        assert summary.maximum == 100
        assert 20 <= summary.mean <= 23
        assert summary.p50 == 3

    def test_empty(self):
        assert analysis.summarize([]).count == 0

    def test_text(self):
        assert "mean=" in analysis.summarize([1.0]).to_text()


class TestSparkline:
    def test_length_capped(self):
        assert len(analysis.sparkline(list(range(100)), width=20)) == 20

    def test_monotone_series_rises(self):
        line = analysis.sparkline([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], width=10)
        assert line[0] != line[-1]

    def test_empty(self):
        assert analysis.sparkline([]) == ""

    def test_all_zero(self):
        assert set(analysis.sparkline([0, 0, 0])) == {" "}


class TestHistogram:
    def test_bucket_counts(self):
        text = analysis.histogram_text([1, 1, 2, 5, 9, 100], bucket_edges=[2, 8])
        lines = text.splitlines()
        assert "3" in lines[0]  # <=2 bucket holds 1,1,2
        assert "> 8" in lines[-1]

    def test_empty(self):
        assert "no samples" in analysis.histogram_text([], [1])
