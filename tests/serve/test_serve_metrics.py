"""Serve-path metrics: schedule neutrality and smoothed admission.

The contract under test is twofold: attaching a metrics registry and
SLO tracker to a serve run must not move a single simulated decision
(byte-identical outcome), while *enabling admission smoothing* — a
config change, not an observability change — deliberately alters shed
decisions on flapping load.
"""

import pytest

from repro.obs.metrics import MetricsRegistry, validate_prometheus_text
from repro.obs.slo import SloTracker
from repro.serve.admission import AdmissionController
from repro.serve.driver import ServeConfig, run_serve


def _outcome_key(o):
    return (
        o.status,
        o.digest,
        o.makespan_ns,
        o.ops_journaled,
        o.admitted,
        o.shed,
        o.recoveries,
        o.queue_len,
        o.drill_ok,
    )


@pytest.mark.parametrize("plan", ["crash"], ids=["native-crash"])
def test_metrics_do_not_move_the_run(tmp_path, plan):
    def one(metrics, slo, tag):
        cfg = ServeConfig(sessions=3, ops=6, k=8, budget=12, plan=plan,
                          seed=5, data_dir=str(tmp_path / tag))
        return run_serve(cfg, metrics=metrics, slo=slo)

    bare = one(None, None, "bare")
    reg, slo = MetricsRegistry(), SloTracker()
    wired = one(reg, slo, "wired")
    assert _outcome_key(wired) == _outcome_key(bare)
    # and the run actually emitted: counters, histograms, valid text
    assert "repro_admission_admitted_total" in reg.names()
    assert "repro_wal_append_host_ns" in reg.names()
    assert validate_prometheus_text(reg.to_prometheus()) == []
    assert slo.report()["classes"]  # op classes observed


def test_serve_emits_recovery_and_checkpoint_metrics(tmp_path):
    reg = MetricsRegistry()
    cfg = ServeConfig(sessions=3, ops=8, k=8, checkpoint_every=4,
                      plan="crash", seed=3,
                      data_dir=str(tmp_path / "d"))
    out = run_serve(cfg, metrics=reg)
    assert out.survived
    snap = reg.snapshot()
    if out.recoveries:
        rec = snap["repro_serve_recoveries_total"]["series"][0]["value"]
        assert rec == out.recoveries
        assert snap["repro_serve_recovery_host_ns"]["series"][0]["count"] >= 1
    assert "repro_serve_checkpoint_age_ops" in snap
    applied = sum(s["value"]
                  for s in snap["repro_serve_apply_total"]["series"])
    assert applied >= out.ops_journaled


def test_smoothed_admission_rides_through_a_flap():
    """Raw reads flap shed/admit when pending oscillates around the
    budget; the EWMA'd controller keeps admitting through the dip."""
    def flap(smoothing):
        adm = AdmissionController(window=64, budget=4,
                                  smoothing_half_life_ns=smoothing)
        # a sustained burst drives the (smoothed) level past the budget
        admitted = [f"s{i}" for i in range(20)
                    if adm.try_admit(f"s{i}", now=float(i)) is None]
        # load collapses for one instant...
        for sid in admitted:
            adm.complete(sid)
        # ...and the very next submit arrives half a tick later
        return adm.try_admit("probe", now=20.5)

    assert flap(None) is None  # raw: pending==0, admit
    verdict = flap(5.0)  # smoothed: level still ~7.3 > 4, shed
    assert verdict is not None and verdict.reason == "global-budget"


def test_smoothing_stops_admit_shed_flapping():
    """Oscillating load around the budget: the raw controller alternates
    admit/shed per crossing; the smoothed one settles to one regime."""
    def decisions(smoothing):
        adm = AdmissionController(window=1024, budget=3,
                                  smoothing_half_life_ns=smoothing)
        out = []
        held = []
        for step in range(12):
            now = float(step * 10)
            if step % 2 == 0:
                # burst: admit until the controller says stop
                for j in range(4):
                    v = adm.try_admit(f"s{step}.{j}", now=now + j)
                    out.append(v is None)
                    if v is None:
                        held.append(f"s{step}.{j}")
            else:
                while held:
                    adm.complete(held.pop())
        return out

    raw = decisions(None)
    smooth = decisions(5.0)
    assert raw != smooth  # smoothing changed real decisions
    flips = lambda seq: sum(a != b for a, b in zip(seq, seq[1:]))  # noqa: E731
    assert flips(smooth) < flips(raw)


def test_window_check_stays_raw_under_smoothing():
    adm = AdmissionController(window=2, budget=1024,
                              smoothing_half_life_ns=100.0)
    assert adm.try_admit("a", now=0.0) is None
    assert adm.try_admit("a", now=1.0) is None
    verdict = adm.try_admit("a", now=2.0)
    assert verdict is not None and verdict.reason == "session-window"


def test_load_snapshot_summarises_pending_history():
    adm = AdmissionController(window=64, budget=64,
                              smoothing_half_life_ns=1_000.0)
    for i in range(8):
        adm.try_admit(f"s{i}", now=float(i))
    snap = adm.load_snapshot(now=8.0)
    assert snap.count == 8
    assert snap.min == 0.0 and snap.max == 7.0  # observed before admit
