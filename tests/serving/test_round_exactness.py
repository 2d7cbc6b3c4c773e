"""The serving round's shortcuts are exact, not approximately right.

A plain round computes only what a consumer reads: the monitor averages
short windows with a plain float loop, pilot accounting and the batched σ²
estimate run on the pilot span ``[:, :W]`` of the stacked batch, and the
payload BER exists only for a frame hook.  Each shortcut must give the same
bits as the full computation it replaces, because the per-session timeline
is the determinism contract:

* the loop mean equals ``np.mean`` bit for bit for windows 1–16 (ties,
  subnormals, signed zeros, infinities and NaN included);
* ``estimate_noise_sigma2_batch`` on the pilot span equals the full-width
  call for any per-row masks — prefix or not, 0 or 1 pilots, tie-heavy
  values;
* one batched round's pilot and payload BERs equal
  :func:`repro.link.frames.frame_bers` on each frame alone (a batch of S
  frames is the vectorised input; every row must match its scalar call).
"""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import make_session
from repro.extraction.monitor import DegradationMonitor
from repro.link.estimation import estimate_noise_sigma2_batch
from repro.link.frames import frame_bers
from repro.serving import EngineConfig, ServingEngine, ServingFrame


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


#: window values: ties, signed zeros, subnormals, infinities, NaN and plain
#: random magnitudes (the monitor rejects negative values)
WINDOW_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.125, 0.25, 1 / 3, 0.5, 1.0, 2.0, 1 / 7]),
    st.floats(min_value=0.0, max_value=1e-307),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1e308),
    st.just(math.inf),
    st.just(math.nan),
)


class TestLoopMean:
    @given(window=st.integers(1, 16), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_level_is_bit_identical_to_np_mean(self, window, data):
        values = data.draw(st.lists(WINDOW_VALUES, min_size=1, max_size=window + 4))
        monitor = DegradationMonitor(math.inf, window=window, cooldown=0)
        with np.errstate(over="ignore"):  # huge values may sum to inf
            for v in values:
                monitor.observe(v)
            want = bits(float(np.mean(values[-window:])))
            assert bits(monitor.current_level) == want
            assert bits(monitor.state().level) == want

    @given(window=st.integers(1, 16), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_trigger_compares_the_np_mean(self, window, data):
        values = data.draw(st.lists(WINDOW_VALUES, min_size=window, max_size=window))
        with np.errstate(over="ignore"):
            mean = float(np.mean(values))
        if not 0.0 < mean < math.inf:
            return
        # a tie at the threshold never fires; one ulp below always does
        for threshold, fires in ((mean, False), (math.nextafter(mean, 0.0), True)):
            if threshold <= 0.0:
                continue
            monitor = DegradationMonitor(threshold, window=window, cooldown=0)
            fired = [monitor.observe(v) for v in values]
            assert fired == [False] * (window - 1) + [fires]


def _row_mask(n: int):
    """One row's pilot mask: a prefix, or any pattern (0 or 1 pilots too)."""
    return st.one_of(
        st.integers(0, n).map(lambda p: [True] * p + [False] * (n - p)),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.integers(0, n - 1).map(lambda i: [j == i for j in range(n)]),
    )


def components(rng: np.random.Generator, style: str, size: int) -> np.ndarray:
    """Tie-heavy quarter steps (zeros included) or values rounded to two
    decimals."""
    if style == "ties":
        return rng.integers(-8, 9, size) / 4
    return np.round(rng.normal(scale=1.5, size=size), 2)


def pilot_span(mask: np.ndarray) -> int:
    used = np.flatnonzero(mask.any(axis=0))
    return int(used[-1]) + 1 if used.size else 0


class TestPilotSpanSigma2:
    @given(s=st.integers(1, 5), n=st.integers(1, 40), data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_span_estimate_equals_full_width(self, s, n, data):
        mask = np.array([data.draw(_row_mask(n)) for _ in range(s)], dtype=bool)
        style = data.draw(st.sampled_from(["ties", "rounded"]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v = components(rng, style, 4 * s * n).reshape(4, s, n)
        x = v[0] + 1j * v[1]
        y = v[2] + 1j * v[3]
        w = pilot_span(mask)
        full = estimate_noise_sigma2_batch(x, y, mask)
        span = estimate_noise_sigma2_batch(x[:, :w], y[:, :w], mask[:, :w])
        assert full.tobytes() == span.tobytes()


class TestBatchedPilotBER:
    """One launch of S frames against ``frame_bers`` on each frame alone."""

    N = 48

    def frames(self, qam, rng, masks):
        out = []
        for seq, mask in enumerate(masks):
            idx = rng.integers(0, qam.order, self.N)
            noise = rng.normal(scale=0.35, size=(self.N, 2)) @ [1, 1j]
            out.append(ServingFrame(seq, idx, mask, qam.points[idx] + noise))
        return out

    def serve(self, qam, frames, *, hooked):
        reports = {}
        engine = ServingEngine(config=EngineConfig(
            max_batch=len(frames),
            on_frame=(
                (lambda s, f, llrs, rep: reports.__setitem__(
                    s.session_id, (llrs.copy(), rep)))
                if hooked else None
            ),
        ))
        sessions = []
        for i, frame in enumerate(frames):
            session = engine.add_session(
                make_session(qam, f"s{i}", sigma2_alpha=0.25, threshold=0.9)
            )
            session.submit(frame)
            sessions.append(session)
        assert engine.step() == len(frames)  # one round, one launch
        assert engine.telemetry.batches == 1
        return sessions, reports

    @given(seed=st.integers(0, 2**16), kind=st.sampled_from(
        ["prefix", "scattered", "last-column", "none", "mixed"]))
    @settings(max_examples=30, deadline=None)
    def test_batched_bers_equal_per_frame_frame_bers(self, qam16, seed, kind):
        rng = np.random.default_rng(seed)
        n = self.N
        masks = []
        for i in range(6):
            row = kind if kind != "mixed" else ("prefix", "scattered", "none")[i % 3]
            mask = np.zeros(n, dtype=bool)
            if row == "prefix":
                mask[: rng.integers(0, n + 1)] = True
            elif row == "scattered":
                mask[rng.choice(n, rng.integers(1, n), replace=False)] = True
            elif row == "last-column":
                mask[[3, n - 1]] = True
            masks.append(mask)
        frames = self.frames(qam16, rng, masks)
        sessions, reports = self.serve(qam16, frames, hooked=True)
        bare, _ = self.serve(qam16, frames, hooked=False)
        for session, twin, frame in zip(sessions, bare, frames):
            llrs, report = reports[session.session_id]
            truth = qam16.bit_matrix[frame.indices]
            pilot, payload = frame_bers((llrs > 0).astype(np.int8), truth, frame.pilot_mask)
            assert bits(report.pilot_ber) == bits(pilot)
            assert bits(report.payload_ber) == bits(payload)
            # the hook only adds the payload BER: the control plane's view
            # of the frame is the same with and without it
            assert bits(session.stats.pilot_ber_trajectory[0]) == bits(pilot)
            assert twin.stats.pilot_ber_trajectory.tobytes() == \
                session.stats.pilot_ber_trajectory.tobytes()
            assert twin.stats.sigma2_trajectory.tobytes() == \
                session.stats.sigma2_trajectory.tobytes()
