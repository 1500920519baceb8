"""End-to-end serve runs: crash campaigns, overload, determinism."""

from dataclasses import fields

import numpy as np
import pytest

from repro.serve import ServeConfig, ServeOutcome, run_serve, run_serve_campaign


def _cfg(tmp_path, **kw):
    base = dict(sessions=3, ops=6, k=8, window=4,
                budget=16, checkpoint_every=4,
                data_dir=str(tmp_path / "data"), plan="none", seed=0)
    base.update(kw)
    return ServeConfig(**base)


def test_native_fault_free_run(tmp_path):
    out = run_serve(_cfg(tmp_path))
    assert out.survived, (out.failure, out.audit_problems)
    assert out.recoveries == 0
    assert out.ops_journaled == 3 * 6
    assert out.drill_ok
    assert out.digest == out.recovered_digest


def test_native_crash_campaign_recovers(tmp_path):
    outcomes = run_serve_campaign(
        _cfg(tmp_path, plan="crash"), seeds=6, seed_base=0
    )
    assert all(o.survived for o in outcomes), [
        (o.seed, o.status, o.failure, o.audit_problems) for o in outcomes
    ]
    assert all(o.drill_ok for o in outcomes)
    # every admitted op eventually lands in the journal despite crashes
    assert all(o.ops_journaled == 3 * 6 for o in outcomes)
    # the sweep must actually exercise recovery somewhere
    assert sum(o.recoveries for o in outcomes) > 0


def test_overload_sheds_without_losing_admitted_keys(tmp_path):
    # budget far below the offered load: shedding is guaranteed; the
    # driver itself fails the run if an admitted key misses the journal
    out = run_serve(_cfg(tmp_path, sessions=4, ops=8, budget=2, window=2))
    assert out.survived, (out.failure, out.audit_problems)
    assert out.shed > 0
    assert out.peak_pending <= 2
    assert out.dropped == 0  # retry-forever: nothing abandoned
    assert out.ops_journaled == 4 * 8


def test_overload_with_bounded_backoffs_can_drop(tmp_path):
    out = run_serve(_cfg(tmp_path, sessions=4, ops=8, budget=1, window=1,
                         max_backoffs=0))
    assert out.survived, (out.failure, out.audit_problems)
    assert out.dropped > 0
    # dropped ops were never admitted, so the journal stays short —
    # and conservation still holds (the driver audits it)
    assert out.ops_journaled == 4 * 8 - out.dropped


def test_crash_plus_overload(tmp_path):
    outcomes = run_serve_campaign(
        _cfg(tmp_path, plan="crash", budget=3, window=2), seeds=4
    )
    assert all(o.survived for o in outcomes), [
        (o.seed, o.status, o.failure, o.audit_problems) for o in outcomes
    ]
    assert all(o.drill_ok for o in outcomes)


def test_campaign_seeds_do_not_share_state(tmp_path):
    outcomes = run_serve_campaign(_cfg(tmp_path), seeds=2)
    dirs = {o.data_dir for o in outcomes}
    assert len(dirs) == 2
    # same config, different seed -> independent journals of equal length
    assert all(o.ops_journaled == 3 * 6 for o in outcomes)


def test_unknown_backend_rejected(tmp_path):
    # one queue engine serves: there is no backend to choose
    with pytest.raises(TypeError, match="backend"):
        _cfg(tmp_path, backend="native")
    assert "backend" not in {f.name for f in fields(ServeConfig)}
    assert "backend" not in {f.name for f in fields(ServeOutcome)}


def test_serve_run_is_deterministic(tmp_path):
    a = run_serve(_cfg(tmp_path / "a", plan="crash", seed=3))
    b = run_serve(_cfg(tmp_path / "b", plan="crash", seed=3))
    assert a.digest == b.digest
    assert a.recoveries == b.recoveries
    assert a.shed == b.shed
    assert a.makespan_ns == b.makespan_ns


def test_traced_serve_run_emits_service_events(tmp_path):
    from repro.obs import EventBus
    from repro.obs.events import SERVE_APPLY, WAL_APPEND

    bus = EventBus()
    out = run_serve(_cfg(tmp_path, sessions=2, ops=4), obs=bus)
    assert out.survived
    etypes = {e.etype for e in bus.events}
    assert SERVE_APPLY in etypes
    assert WAL_APPEND in etypes
