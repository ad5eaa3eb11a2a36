from currentrep import report
from currentrep.report import SuiteReport


def test_check_millis_are_per_check_deltas(monkeypatch):
    ticks = iter([10.0, 10.5, 10.5, 12.0, 12.25])

    class Clock:
        @staticmethod
        def monotonic():
            return next(ticks)

    monkeypatch.setattr(report, "time", Clock)
    rep = SuiteReport("demo", {})                    # created at 10.0
    rep.add("first", "ref", {}, 1, 1, 7)             # 10.5
    rep.add("second", "ref", {}, 1, 1, 7)            # 10.5
    rep.skip("skipped", "too large")                 # 12.0
    rep.add("third", "ref", {}, 1, 2, 7)             # 12.25
    assert [c.millis for c in rep.checks] == [500, 0, 250]
    assert [c.match for c in rep.checks] == [True, True, False]
    assert rep.skipped == [{"claim": "skipped", "reason": "too large"}]
