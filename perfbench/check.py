"""The untimed output check: the measured program against a sequential oracle.

A prefix of every session's traffic is replayed twice: through the oracle
(one ``ServingEngine(max_batch=1)``, one shard, weights 1, no observers) and
through a fresh build of the workload's own configuration, whose frame hook
samples LLRs.  Per session, the oracle's pilot-BER and σ² trajectories,
trigger seqs, tier timeline and CRC-fail seqs must equal both the replay's
and the timed run's own (restricted to the prefix).  Every sampled LLR block
must equal ``hybrid.llrs(received)`` for the demapper and σ² the session
held when the frame was demapped.
"""

from __future__ import annotations

import numpy as np

from repro.serving import run_fleet_load, run_load

from workloads import System, oracle_engine


def timeline(session, n_frames: int) -> tuple:
    """The session's adaptation timeline over seqs ``< n_frames``."""
    st = session.stats
    return (
        list(st.pilot_ber_trajectory[:n_frames]),
        list(st.sigma2_trajectory[:n_frames]),
        [s for s in st.trigger_seqs if s < n_frames],
        [(s, t) for s, t in st.tier_timeline if s < n_frames],
        [s for s in st.crc_fail_seqs if s < n_frames],
    )


class LlrSampler:
    """Frame hook comparing served LLRs with the session's own demapper.

    Samples every ``every``-th seq and the prefix's last one, which comes
    after the fleet workload's tracking updates, so private centroids are
    covered.  The engine calls the hook after the frame's control-plane
    update, so the demapper and σ² that served the frame are the ones
    recorded at the session's previous frame (or at build time).
    """

    def __init__(self, specs, every: int, last: int):
        self.every = every
        self.last = last
        self.state = {s.session_id: (s.hybrid, s.hybrid.sigma2) for s in specs}
        self.sampled = 0
        self.mismatches: list[str] = []

    def __call__(self, session, frame, llrs, report) -> None:
        sid = session.session_id
        if frame.seq % self.every == 0 or frame.seq == self.last:
            hybrid, sigma2 = self.state[sid]
            expected = hybrid.with_sigma2(sigma2).llrs(frame.received)
            self.sampled += 1
            if not np.array_equal(expected, llrs):
                self.mismatches.append(f"{sid} seq={frame.seq}: LLRs differ")
        self.state[sid] = (session.hybrid, session.sigma2)


def run_check(workload, specs, traffic, timed_sessions) -> list[str]:
    """Replay the prefix; returns human-readable mismatches (empty = pass)."""
    n = workload.check_frames
    prefix = {
        spec.session_id: t.pool[:n] for spec, t in zip(specs, traffic)
    }
    oracle = oracle_engine(specs)
    try:
        run_load(oracle, prefix)
        expected = {s.session_id: timeline(s, n) for s in oracle.sessions}
    finally:
        oracle.close()

    sampler = LlrSampler(specs, every=max(1, n // 4), last=n - 1)
    replay = System(workload, specs, traffic, on_frame=sampler)
    try:
        if workload.fleet:
            run_fleet_load(replay.server, prefix)
        else:
            run_load(replay.server, prefix)
        replayed = {s.session_id: timeline(s, n) for s in replay.sessions}
    finally:
        replay.close()

    problems = list(sampler.mismatches)
    if sampler.sampled == 0:
        problems.append("no LLR block was sampled")
    timed = {s.session_id: timeline(s, n) for s in timed_sessions}
    parts = ("pilot BER", "sigma2", "trigger seqs", "tier timeline", "CRC-fail seqs")
    for sid, want in expected.items():
        if len(want[0]) != n:
            problems.append(f"{sid}: oracle served {len(want[0])} of {n} frames")
        for label, got in (("replay", replayed[sid]), ("timed run", timed[sid])):
            for part, a, b in zip(parts, want, got):
                if a != b:
                    problems.append(f"{sid}: {label} {part} differs from the oracle")
    return problems
