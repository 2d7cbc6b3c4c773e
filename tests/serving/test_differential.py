"""The serving determinism contract, checked against one sequential oracle.

Hypothesis draws one configuration from the product of the engine's
knobs — batch width, queue depth, retrain workers, per-session weights,
shards × placement seed × migration schedule × threaded stepping,
observers, a churn storm and a fault storm — and every core session's
timeline (LLR bytes, CRC verdicts, post-FEC BER, pilot BER, σ², triggers,
tiers, retrains/tracks, health states) must equal the oracle's
(``oracle.py``: ``max_batch=1``, queue depth 1, inline retrains, weights
1, no observers).

The configurations the feature suites pin (``test_determinism``,
``test_control_plane``, ``test_churn``, ``test_faults``, ``test_fleet``,
``test_observability``) go through the same ``oracle.check`` on every run;
the ``@example`` rows here pin combinations none of them covers.  A
failing draw is shrunk and printed as a ``Draw(...)``: paste it into an
``@example`` row to pin it.  ``--hypothesis-seed=<n>`` fixes the random
draws of a whole run.
"""

from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from oracle import (
    N_SESSIONS,
    PLAIN_CODED,
    SCENARIOS,
    TRACK,
    WEIGHTS,
    Draw,
    assert_scenario_fires,
    check,
)
from repro.serving import MigrationPlan


@st.composite
def draws(draw):
    shards = draw(st.integers(1, 4))
    knobs = dict(
        scenario=draw(st.sampled_from(SCENARIOS)),
        max_batch=draw(st.sampled_from((1, 2, 3, 8, 64))),
        queue_depth=draw(st.sampled_from((1, 2, 4, 8, 16))),
        workers=draw(st.integers(0, 4)),
        # per-session weights, or one weight for the whole fleet (every
        # session then takes several frames per round from a deep queue)
        weights=draw(
            st.tuples(*[st.sampled_from(WEIGHTS)] * N_SESSIONS)
            | st.sampled_from(WEIGHTS).map(lambda w: (w,) * N_SESSIONS)
        ),
        shards=shards,
        observers=draw(st.sampled_from(("off", "full", "ring"))),
        faults=draw(st.booleans()),
    )
    # a quarter of the draws stack what puts an inline retrain's outcome
    # between two waves of one round: the tracking ladder, inline retrains,
    # a deep queue and weight 4 (a warp session's install and its next
    # trigger then land in the same round)
    if draw(st.sampled_from((True, False, False, False))):
        knobs.update(
            scenario=draw(st.sampled_from([s for s in SCENARIOS if s.tracking])),
            workers=0,
            queue_depth=draw(st.sampled_from((4, 8, 16))),
            weights=(4.0,) * N_SESSIONS,
        )
    if shards == 1:
        knobs["churn"] = draw(st.none() | st.integers(0, 2**16))
    else:
        sids = [f"s{i:03d}" for i in range(N_SESSIONS)]
        migration = st.builds(
            MigrationPlan, st.sampled_from(sids), st.integers(0, 8),
            st.integers(0, shards - 1),
        )
        knobs.update(
            placement_seed=draw(st.integers(0, 7)),
            migrations=tuple(draw(st.lists(migration, max_size=4))),
            parallel=draw(st.booleans()),
        )
    return Draw(**knobs)


class TestSequentialOracle:
    """Per-session timelines under any drawn configuration equal the
    sequential oracle's, and the oracle's scenarios fire what they claim."""

    @given(cfg=draws())
    @settings(max_examples=25, deadline=None)
    # coded decode with the tracer, profiler and registry attached
    @example(cfg=Draw(PLAIN_CODED, max_batch=3, queue_depth=16, workers=1,
                      observers="full"))
    # light weights (several rounds per frame) with threaded retrains
    @example(cfg=Draw(TRACK, queue_depth=8, weights=(0.5,) * N_SESSIONS, workers=2))
    def test_matches_sequential_oracle(self, cfg):
        note(repr(cfg))
        check(cfg)

    def test_oracle_scenarios_fire(self):
        """Every scenario exercises what the draws claim to cover."""
        for scenario in SCENARIOS:
            assert_scenario_fires(scenario)
