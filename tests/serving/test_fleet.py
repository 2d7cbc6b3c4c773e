"""Fleet front-end: sharding, affinity placement, live migration, config API.

Placement, migration mechanics, the fleet load driver and merged
telemetry, plus the API surface: the frozen ``EngineConfig`` construction
path, the curated ``from repro.serving import *`` surface, and the one
``SCHEMA_VERSION`` across every serving snapshot.  That a session's
timelines are bit-identical at any shard count, placement seed, migration
schedule and with threaded stepping is checked against the sequential
oracle (``oracle.py``): at the points pinned below, and at random draws in
``test_differential.py``.
"""

import os
import subprocess
import sys
import threading

import pytest

from oracle import (
    FC,
    FLEET,
    FLEET_CODED,
    N_FRAMES,
    N_SESSIONS,
    S10,
    Draw,
    assert_scenario_fires,
    check,
    clean_traffic,
    constellation_groups,
    make_session,
    oracle,
    run,
)
from repro.extraction import HybridDemapper
from repro.serving import (
    DEGRADED,
    QUARANTINED,
    SCHEMA_VERSION,
    SERVING,
    EngineConfig,
    FleetFrontEnd,
    MigrationPlan,
    RetrainSupervisor,
    ServingEngine,
    ServingFrame,
    run_fleet_load,
)
from repro.serving.obs_report import export_run

GROUPS = constellation_groups(4)


# ---------------------------------------------------------------------------
# EngineConfig: the redesigned construction API


class TestEngineConfig:
    def test_config_is_the_only_constructor_path(self):
        with pytest.raises(TypeError):
            ServingEngine(max_batch=4)

    def test_validation_lives_in_the_config(self):
        with pytest.raises(ValueError, match="max_batch"):
            EngineConfig(max_batch=0)
        with pytest.raises(ValueError, match="n_workers"):
            EngineConfig(retrain_workers=-1)

    def test_config_is_frozen_and_buildable(self):
        cfg = EngineConfig(max_batch=3)
        with pytest.raises(AttributeError):
            cfg.max_batch = 5
        engine = ServingEngine(config=cfg)
        try:
            assert engine.config is cfg
            assert engine.max_batch == 3
        finally:
            engine.close()

    def test_stateful_fields_detected(self):
        assert EngineConfig().stateful_fields_set() == ()
        cfg = EngineConfig(supervisor=RetrainSupervisor(), on_frame=lambda *a: None)
        assert cfg.stateful_fields_set() == ("supervisor", "on_frame")


# ---------------------------------------------------------------------------
# Package surface


class TestPackageSurface:
    def test_star_import_is_supported(self):
        ns: dict = {}
        exec("from repro.serving import *", ns)  # noqa: S102 — the contract itself
        import repro.serving as pkg

        for name in pkg.__all__:
            assert name in ns, f"__all__ name {name!r} not importable"
        public = {k for k in ns if not k.startswith("_")}
        assert public == set(pkg.__all__)

    def test_fleet_tier_is_exported(self):
        import repro.serving as pkg

        for name in ("FleetFrontEnd", "EngineConfig", "MigrationPlan",
                     "run_fleet_load", "SCHEMA_VERSION"):
            assert name in pkg.__all__
            assert getattr(pkg, name) is not None

    def test_import_leaves_scipy_and_networkx_unloaded(self):
        """The serving path never calls scipy or networkx, so importing it
        must not load them (together ~40 MB of a server's resident set)."""
        probe = (
            "import sys, repro.serving; "
            "print(sorted({'scipy', 'networkx'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Snapshot schema unification


class TestSchemaUnification:
    def test_one_schema_constant_everywhere(self):
        engine = ServingEngine(config=EngineConfig(max_batch=4))
        session = FLEET.sessions(queue_depth=4, retrain=False)[0]
        engine.add_session(session)
        doc = export_run(engine)
        assert engine.telemetry.snapshot()["schema"] == SCHEMA_VERSION
        assert session.stats.snapshot()["schema"] == SCHEMA_VERSION
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["engine"]["schema"] == SCHEMA_VERSION
        engine.close()
        with FleetFrontEnd(2, config=EngineConfig(), parallel=False) as fleet:
            snap = fleet.snapshot()
        assert snap["schema"] == SCHEMA_VERSION
        assert snap["merged"]["schema"] == SCHEMA_VERSION
        assert all(s["schema"] == SCHEMA_VERSION for s in snap["shards"])


# ---------------------------------------------------------------------------
# Constellation-affinity placement


class TestPlacement:
    def test_shared_constellation_lands_on_one_shard(self):
        with FleetFrontEnd(4, config=EngineConfig(), parallel=False) as fleet:
            sessions = FLEET.sessions(queue_depth=4, retrain=False)
            for s in sessions:
                fleet.add_session(s)
            by_group: dict[int, set[int]] = {}
            for i, s in enumerate(sessions):
                by_group.setdefault(i % len(GROUPS), set()).add(
                    fleet.shard_of(s.session_id)
                )
            for group, shards in by_group.items():
                assert len(shards) == 1, f"group {group} split across {shards}"

    def test_distinct_constellations_spread(self):
        """Some placement seed spreads 4 groups over more than one shard."""
        for seed in range(8):
            fleet = FleetFrontEnd(
                4, config=EngineConfig(), placement_seed=seed, parallel=False
            )
            sessions = FLEET.sessions(queue_depth=4, retrain=False)
            shards = {fleet.place(s) for s in sessions}
            fleet.close()
            if len(shards) > 1:
                return
        pytest.fail("no placement seed in range(8) spread the groups at all")

    def test_placement_seed_reshuffles(self):
        sessions = FLEET.sessions(queue_depth=4, retrain=False)
        placements = set()
        for seed in range(8):
            fleet = FleetFrontEnd(
                4, config=EngineConfig(), placement_seed=seed, parallel=False
            )
            placements.add(tuple(fleet.place(s) for s in sessions))
            fleet.close()
        assert len(placements) > 1

    def test_explicit_shard_override_and_bounds(self):
        with FleetFrontEnd(2, config=EngineConfig(), parallel=False) as fleet:
            session = FLEET.sessions(queue_depth=4, retrain=False)[0]
            fleet.add_session(session, shard=1)
            assert fleet.shard_of(session.session_id) == 1
            assert fleet.session(session.session_id) is session
            assert fleet.has_session(session.session_id)
            with pytest.raises(ValueError, match="duplicate"):
                fleet.add_session(session)
            other = FLEET.sessions(queue_depth=4, retrain=False)[1]
            with pytest.raises(ValueError, match="shard must be"):
                fleet.add_session(other, shard=5)
            with pytest.raises(KeyError):
                fleet.shard_of("nope")

    def test_replicated_config_must_be_stateless(self):
        with pytest.raises(ValueError, match="supervisor"):
            FleetFrontEnd(2, config=EngineConfig(supervisor=RetrainSupervisor()))
        # a single shard may carry collaborators (nothing is shared)
        FleetFrontEnd(
            1, config=EngineConfig(supervisor=RetrainSupervisor()), parallel=False
        ).close()
        with pytest.raises(ValueError, match="not both"):
            FleetFrontEnd(2, config=EngineConfig(), config_factory=lambda i: EngineConfig())
        with pytest.raises(ValueError, match="n_shards"):
            FleetFrontEnd(0)


# ---------------------------------------------------------------------------
# Placement invariance: pinned points checked against the sequential oracle

FLEET_MIGRATIONS = (
    MigrationPlan("s000", round=1, dest_shard=3),
    MigrationPlan("s003", round=2, dest_shard=0),
    MigrationPlan("s000", round=4, dest_shard=1),
    MigrationPlan("s005", round=3, dest_shard=2),
)
CODED_MIGRATIONS = (
    MigrationPlan("s000", round=1, dest_shard=2),
    MigrationPlan("s003", round=2, dest_shard=0),
    MigrationPlan("s000", round=4, dest_shard=1),
)


class TestPlacementInvariance:
    @pytest.mark.parametrize("n_shards", [2, 4])
    @pytest.mark.parametrize("placement_seed", [0, 3])
    def test_invariant_to_shard_count_and_placement(self, n_shards, placement_seed):
        check(Draw(FLEET, shards=n_shards, placement_seed=placement_seed))

    def test_invariant_to_migration_schedule(self):
        stats = check(Draw(FLEET, shards=4, migrations=FLEET_MIGRATIONS))
        assert stats.migrations_in == len(FLEET_MIGRATIONS)

    def test_parallel_stepping_matches_reference(self):
        check(Draw(FLEET, shards=2, parallel=True))

    def test_triggers_actually_fire(self):
        assert_scenario_fires(FLEET)


class TestCodedFleetInvariance:
    """Decoded-bit timelines are invariant to shard count, placement seed
    and a mid-run migration schedule."""

    def test_coded_path_exercised_and_merged(self):
        assert_scenario_fires(FLEET_CODED)
        stats = check(Draw(FLEET_CODED, shards=2))
        assert stats.frames_decoded == FLEET_CODED.n_coded * N_FRAMES
        assert stats.crc_failures == sum(
            len(t.crc_fails) for t in oracle(FLEET_CODED).values()
        )

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_invariant_to_shard_count(self, n_shards):
        check(Draw(FLEET_CODED, shards=n_shards, placement_seed=3))

    def test_invariant_to_migration_schedule(self):
        stats = check(Draw(FLEET_CODED, shards=3, migrations=CODED_MIGRATIONS))
        assert stats.migrations_in == len(CODED_MIGRATIONS)


# ---------------------------------------------------------------------------
# Live migration mechanics


def two_shard_fleet(retrain=False):
    fleet = FleetFrontEnd(2, config=EngineConfig(max_batch=8), parallel=False)
    session = FLEET.sessions(queue_depth=4, retrain=retrain)[0]
    fleet.add_session(session, shard=0)
    return fleet, session


class TestMigration:
    def test_queued_frames_survive_in_order(self):
        fleet, session = two_shard_fleet()
        sid = session.session_id
        traffic = clean_traffic(GROUPS[0], 4, 3)
        with fleet:
            for frame in traffic:
                assert fleet.submit(sid, frame)
            fleet.migrate(sid, 1)
            assert fleet.shard_of(sid) == 1
            assert session.pending == 4  # nothing lost in transit
            served = []
            fleet.shards[1].on_frame = lambda s, f, block, rep: served.append(f.seq)
            fleet.drain(max_rounds=50)
        assert served == [f.seq for f in traffic]  # destination, in order
        assert fleet.shards[0].telemetry.frames_served == 0
        assert fleet.shards[1].telemetry.frames_served == 4
        assert fleet.shards[0].telemetry.migrations_out == 1
        assert fleet.shards[1].telemetry.migrations_in == 1
        assert fleet.migrations == 1

    def test_queued_stamps_rebased_across_clock_skew(self):
        """Frames stamped on a source clock that runs AHEAD of the
        destination must not surface negative queue waits there."""
        fleet = FleetFrontEnd(2, config=EngineConfig(max_batch=8), parallel=False)
        helper, mover = FLEET.sessions(queue_depth=4, retrain=False)[:2]
        fleet.add_session(helper, shard=0)
        fleet.add_session(mover, shard=0)
        with fleet:
            for f in clean_traffic(GROUPS[0], 3, 3):
                fleet.submit(helper.session_id, f)
            fleet.step()  # shard 0's symbol clock advances; shard 1 stays at 0
            assert fleet.shards[0].telemetry.now > fleet.shards[1].telemetry.now
            for f in clean_traffic(GROUPS[1], 2, 4):
                fleet.submit(mover.session_id, f)  # stamped on shard 0's clock
            fleet.migrate(mover.session_id, 1)
            fleet.drain(max_rounds=50)  # served on shard 1: wait must be >= 0
        assert mover.stats.frames_served == 2
        assert mover.stats.queue_wait.count == 2

    def test_migrate_to_current_shard_is_noop(self):
        fleet, session = two_shard_fleet()
        with fleet:
            assert fleet.migrate(session.session_id, 0) is session
            assert fleet.migrations == 0
            assert fleet.shards[0].telemetry.migrations_out == 0
            with pytest.raises(ValueError, match="dest must be"):
                fleet.migrate(session.session_id, 2)

    def test_draining_session_refuses_migration(self):
        fleet, session = two_shard_fleet()
        sid = session.session_id
        with fleet:
            frame = clean_traffic(GROUPS[0], 1, 3)[0]
            fleet.submit(sid, frame)
            fleet.remove_session(sid, drain=True)  # queue nonempty: still live
            assert fleet.has_session(sid)
            with pytest.raises(ValueError, match="draining"):
                fleet.migrate(sid, 1)

    def test_scheduler_credit_travels(self):
        fleet, session = two_shard_fleet()
        sid = session.session_id
        with fleet:
            fleet.shards[0].scheduler.restore(sid, 0.75)
            fleet.migrate(sid, 1)
            assert fleet.shards[0].scheduler.credit(sid) == 0.0
            assert fleet.shards[1].scheduler.credit(sid) == 0.75

    def test_quarantined_health_travels(self):
        fleet, session = two_shard_fleet()
        sid = session.session_id
        frames = clean_traffic(GROUPS[0], 2, 3)
        poisoned = frames[0].received.copy()
        poisoned[0] = complex(float("nan"), 0.0)
        with fleet:
            fleet.submit(
                sid,
                ServingFrame(
                    seq=0,
                    indices=frames[0].indices,
                    pilot_mask=frames[0].pilot_mask,
                    received=poisoned,
                ),
            )
            fleet.step()
            assert session.health == QUARANTINED
            refusals_before = session.stats.quarantine_refusals
            fleet.migrate(sid, 1)
            assert session.health == QUARANTINED  # health travelled
            assert not fleet.submit(sid, frames[1])  # still fenced off
            assert session.stats.quarantine_refusals == refusals_before + 1

    def test_degraded_breaker_state_travels(self):
        fleet, session = two_shard_fleet()
        sid = session.session_id
        with fleet:
            src, dst = fleet.shards
            # open the breaker by hand: one submission, failures to the max
            src.supervisor.on_submitted(sid, 0)
            record = src.supervisor.on_failure(sid, 1, RuntimeError("boom"))
            record = src.supervisor.on_failure(sid, 2, RuntimeError("boom"))
            record = src.supervisor.on_failure(sid, 3, RuntimeError("boom"))
            assert record.action == "degrade"
            session.set_health(DEGRADED, now=0)
            fleet.migrate(sid, 1)
            assert session.health == DEGRADED
            assert dst.supervisor.state(sid) == "open"
            assert dst.supervisor.failures(sid) == 3
            assert not dst.supervisor.allows(sid)  # triggers stay suppressed
            assert src.supervisor.state(sid) == "idle"  # source forgot

    def test_backoff_clock_is_rebased(self):
        fleet, session = two_shard_fleet()
        sid = session.session_id
        with fleet:
            src, dst = fleet.shards
            # destination clock runs ahead of the source clock
            dst.telemetry.rounds = 10
            src.supervisor.on_submitted(sid, 0)
            src.supervisor.on_failure(sid, 0, RuntimeError("boom"))
            # retry_at = 0 + backoff(1) = 1 on the source clock (1 round out)
            assert src.supervisor.due_retries(1) == [sid]
            fleet.migrate(sid, 1)
            assert dst.supervisor.state(sid) == "backoff"
            assert dst.supervisor.due_retries(10) == []  # not due immediately…
            assert dst.supervisor.due_retries(11) == [sid]  # …one round out

    def test_in_flight_retrain_lands_on_destination(self):
        gate = threading.Event()
        done = HybridDemapper(constellation=GROUPS[0], sigma2=S10)

        def gated_retrain(rng):
            gate.wait(10.0)
            return done

        session = make_session(
            GROUPS[0], "mig", seed=1, retrain=gated_retrain, threshold=0.12
        )
        fleet = FleetFrontEnd(
            2,
            config_factory=lambda i: EngineConfig(max_batch=8, retrain_workers=1),
            parallel=False,
        )
        fleet.add_session(session, shard=0)
        src, dst = fleet.shards
        try:
            src._submit_retrain(session)
            assert src.worker.pending == 1
            fleet.migrate("mig", 1)
            # the job moved: source can never install into the wrong shard
            assert src.worker.pending == 0
            assert dst.worker.pending == 1
            assert dst.supervisor.state("mig") == "in_flight"
            gate.set()
            dst.worker.wait_all(10.0)
            dst.step()  # absorbs the install outcome
            assert session.hybrid is done
            assert session.state == SERVING
            assert session.stats.retrains == 1
            assert dst.supervisor.state("mig") == "idle"  # breaker re-armed here
            assert src.worker.take_outcomes() == []  # nothing leaked back
        finally:
            gate.set()
            fleet.close()

    def test_undelivered_outcomes_travel(self):
        """An inline install whose outcome the source never absorbed must
        reach the destination supervisor, not vanish."""
        fleet, session = two_shard_fleet(retrain=True)
        sid = session.session_id
        with fleet:
            src, dst = fleet.shards
            src._submit_retrain(session)  # inline: installs synchronously
            assert session.stats.retrains == 1
            # outcome still queued on the source worker; migrate before a step
            fleet.migrate(sid, 1)
            assert src.worker.take_outcomes() == []
            dst.step()
            assert dst.supervisor.state(sid) == "idle"  # install absorbed here

    def test_import_refuses_duplicates_and_draining(self):
        fleet, session = two_shard_fleet()
        with fleet:
            other = FLEET.sessions(queue_depth=4, retrain=False)[0]
            fleet.shards[1].add_session(other)
            with pytest.raises(ValueError, match="duplicate"):
                fleet.shards[1].import_session(other)
            exported = FLEET.sessions(queue_depth=4, retrain=False)[2]
            exported.draining = True
            with pytest.raises(ValueError, match="draining"):
                fleet.shards[1].import_session(exported)


# ---------------------------------------------------------------------------
# Fleet load driver


class TestFleetLoad:
    def test_migration_plan_validates(self):
        with pytest.raises(ValueError, match="round"):
            MigrationPlan("s", round=-1, dest_shard=0)
        with pytest.raises(ValueError, match="dest_shard"):
            MigrationPlan("s", round=0, dest_shard=-1)

    def test_departed_session_migration_is_skipped(self):
        fleet = FleetFrontEnd(2, config=EngineConfig(max_batch=8), parallel=False)
        sessions = FLEET.sessions(queue_depth=4, retrain=False)[:2]
        for s in sessions:
            fleet.add_session(s)
        traffic = {s.session_id: FLEET.traffic()[s.session_id] for s in sessions}
        with fleet:
            stats = run_fleet_load(
                fleet,
                traffic,
                migrations=[MigrationPlan("not-there", round=1, dest_shard=1)],
                max_rounds=200,
            )
        assert fleet.migrations == 0
        assert stats.frames_served == 2 * N_FRAMES

    def test_conservation_across_shards(self):
        stats = run(Draw(FLEET, shards=4, placement_seed=3))[1].stats()
        assert stats.frames_served == N_SESSIONS * N_FRAMES
        assert stats.symbols_served == stats.frames_served * FC.total_symbols
        assert stats.frames_dropped == 0

    def test_stall_raises(self):
        fleet = FleetFrontEnd(2, config=EngineConfig(max_batch=8), parallel=False)
        session = FLEET.sessions(queue_depth=4, retrain=False)[0]
        fleet.add_session(session)
        frame = clean_traffic(GROUPS[0], 1, 3)[0]
        with fleet:
            fleet.submit(session.session_id, frame)
            session.state = "retraining"  # wedged outside SERVING, no job
            with pytest.raises(RuntimeError, match="stalled"):
                run_fleet_load(fleet, {session.session_id: []}, max_rounds=50)
            session.state = SERVING  # unwedge so close() drains cleanly


# ---------------------------------------------------------------------------
# Fleet telemetry: merge, metrics, snapshot


class TestFleetTelemetry:
    def test_merged_stats_equal_shard_sums(self):
        timelines, fleet, _ = run(Draw(FLEET_CODED, shards=4, placement_seed=3))
        stats = fleet.stats()
        assert stats.frames_served == N_SESSIONS * N_FRAMES
        assert stats.joins == N_SESSIONS
        assert sum(len(t.frames) for t in timelines.values()) == N_SESSIONS * N_FRAMES
        assert stats.queue_wait.count == N_SESSIONS * N_FRAMES
        # decode counters merge too
        assert stats.frames_decoded == FLEET_CODED.n_coded * N_FRAMES
        assert stats.crc_failures == sum(len(t.crc_fails) for t in timelines.values())
        assert stats.crc_failures > 0

    def test_snapshot_breakdown(self):
        fleet = FleetFrontEnd(2, config=EngineConfig(max_batch=8), parallel=False)
        sessions = FLEET.sessions(queue_depth=4, retrain=False)[:2]
        for s in sessions:
            fleet.add_session(s)
        traffic = {s.session_id: FLEET.traffic()[s.session_id] for s in sessions}
        with fleet:
            run_fleet_load(fleet, traffic, max_rounds=200)
            snap = fleet.snapshot()
        assert snap["n_shards"] == 2
        assert len(snap["shards"]) == 2
        assert snap["merged"]["frames_served"] == sum(
            s["frames_served"] for s in snap["shards"]
        )
        assert snap["sessions"] == 2

    def test_shard_labelled_metrics_merge(self):
        fleet = FleetFrontEnd(2, config=EngineConfig(max_batch=8), parallel=False)
        sessions = FLEET.sessions(queue_depth=4, retrain=False)[:2]
        for i, s in enumerate(sessions):
            fleet.add_session(s, shard=i)
        traffic = {s.session_id: FLEET.traffic()[s.session_id] for s in sessions}
        with fleet:
            registries = fleet.register_metrics()
            assert len(registries) == 2
            run_fleet_load(fleet, traffic, max_rounds=200)
            merged = fleet.metrics()
        rows = {
            (inst.name, tuple(sorted(inst.labels.items()))): inst.value
            for inst in merged.collect()
            if inst.kind != "histogram"
        }
        per_shard = [
            rows[("serving_engine_frames_served", (("shard", str(i)),))]
            for i in range(2)
        ]
        assert sum(per_shard) == 2 * N_FRAMES
        assert all(v > 0 for v in per_shard)
        # session instruments carry the shard label too
        assert any(
            name == "serving_session_frames_served"
            and dict(labels).get("shard") == "0"
            for (name, labels) in rows
        )

    def test_metrics_requires_registration(self):
        with FleetFrontEnd(1, parallel=False) as fleet:
            with pytest.raises(RuntimeError, match="register_metrics"):
                fleet.metrics()
