"""Degradation monitors — when to trigger demapper retraining.

Paper §II-C: "the performance of the system can be regularly evaluated,
either by periodically sending pilot symbols to trigger retraining of the
demapper if the bit error rate (BER) reaches a threshold or by using an
outer error correction code (ECC) ... the number of bit flips that are
corrected by the ECC can guide as performance metric".

Both monitors share hysteresis logic: the trigger fires when the windowed
statistic exceeds ``threshold`` and then stays silent for ``cooldown``
observations (modelling the retraining latency during which measurements
are stale).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TIER_TRACK",
    "TIER_RETRAIN",
    "MonitorState",
    "DegradationMonitor",
    "PilotBERMonitor",
    "EccFlipMonitor",
    "AdaptationLadder",
]

#: Adaptation tiers a trigger can escalate through (cheap first).
TIER_TRACK = "track"
TIER_RETRAIN = "retrain"

#: Windows shorter than this are averaged by a plain left-to-right float
#: loop, which is bit-identical to ``np.mean`` there (numpy's pairwise sum
#: only starts unrolling at 8 elements) and far cheaper on a short deque.
#: A running add/subtract sum, ``math.fsum`` and the built-in ``sum()``
#: (compensated on Python >= 3.12) are not bit-identical, so none is used.
_LOOP_MEAN_BELOW = 8


@dataclass(frozen=True)
class MonitorState:
    """Read-only snapshot of a :class:`DegradationMonitor`.

    Lets telemetry and swap workers report the monitor without reaching into
    its private deque (the serving engine records one of these per session).

    Attributes
    ----------
    level:
        Mean of the current observation window (NaN while empty).
    window_fill:
        Observations currently held (``<= window``).
    window:
        Configured window length.
    armed:
        True when the trigger can fire (not in cooldown).
    cooldown_left:
        Observations remaining before re-arming (0 when armed).
    triggers:
        Total trigger count since construction (never reset).
    threshold:
        Configured trigger level.
    """

    level: float
    window_fill: int
    window: int
    armed: bool
    cooldown_left: int
    triggers: int
    threshold: float


class DegradationMonitor:
    """Windowed-threshold trigger with cooldown.

    Parameters
    ----------
    threshold:
        Trigger level for the windowed mean statistic.
    window:
        Number of recent observations averaged.
    cooldown:
        Observations to ignore after a trigger before re-arming.
    """

    def __init__(self, threshold: float, *, window: int = 4, cooldown: int = 8):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if window < 1:
            raise ValueError("window must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.threshold = float(threshold)
        self.window = int(window)
        self.cooldown = int(cooldown)
        self._values: deque[float] = deque(maxlen=window)
        self._cooldown_left = 0
        self.triggers = 0

    def observe(self, value: float) -> bool:
        """Feed one statistic observation; returns True iff retraining fires."""
        if value < 0:
            raise ValueError("statistic must be non-negative")
        self._values.append(float(value))
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return False
        if len(self._values) < self.window:
            return False
        if self._mean() > self.threshold:
            self.triggers += 1
            self._cooldown_left = self.cooldown
            self._values.clear()
            return True
        return False

    @property
    def current_level(self) -> float:
        """Mean of the current window (NaN if empty)."""
        return self._mean() if self._values else float("nan")

    def _mean(self) -> float:
        """Mean of the (non-empty) window, bit-identical to ``np.mean``."""
        values = self._values
        if len(values) >= _LOOP_MEAN_BELOW:
            return float(np.mean(values))
        total = 0.0
        for v in values:
            total += v
        return total / len(values)

    @property
    def window_fill(self) -> int:
        """Observations currently held (``<= window``)."""
        return len(self._values)

    @property
    def armed(self) -> bool:
        """True when the trigger can fire (not in cooldown)."""
        return self._cooldown_left == 0

    def state(self) -> MonitorState:
        """Immutable snapshot of the monitor (see :class:`MonitorState`)."""
        return MonitorState(
            level=self.current_level,
            window_fill=self.window_fill,
            window=self.window,
            armed=self.armed,
            cooldown_left=self._cooldown_left,
            triggers=self.triggers,
            threshold=self.threshold,
        )

    def reset(self) -> None:
        """Clear the window and cooldown (e.g. after re-extraction).

        Idempotent: a second ``reset()`` with no interleaving ``observe`` is
        a no-op, so swap workers may reset unconditionally after installing a
        fresh demapper without racing a reset the trigger path already did.
        ``triggers`` is a lifetime counter and survives resets.
        """
        self._values.clear()
        self._cooldown_left = 0


class PilotBERMonitor(DegradationMonitor):
    """Trigger on pilot-measured BER.

    ``observe_pilots(bits_hat, bits_true)`` computes the pilot BER and feeds
    it to the windowed trigger.
    """

    def observe_pilots(self, bits_hat: np.ndarray, bits_true: np.ndarray) -> bool:
        a = np.asarray(bits_hat)
        b = np.asarray(bits_true)
        if a.shape != b.shape or a.size == 0:
            raise ValueError("pilot bit arrays must be equal-shape and non-empty")
        return self.observe(float(np.mean(a != b)))


class EccFlipMonitor(DegradationMonitor):
    """Trigger on the rate of ECC-corrected bit flips (paper ref [9]).

    ``observe_decode(corrected, total_bits)`` feeds corrected-flips per
    transmitted bit.  Works with any decoder returning a
    :class:`repro.ecc.hamming.DecodeResult`-style count.
    """

    def observe_decode(self, corrected: int, total_bits: int) -> bool:
        if total_bits <= 0:
            raise ValueError("total_bits must be positive")
        if corrected < 0:
            raise ValueError("corrected must be >= 0")
        return self.observe(corrected / total_bits)


class AdaptationLadder:
    """Escalation policy across adaptation tiers: track first, then retrain.

    Full retraining + re-extraction costs hundreds of milliseconds of pilot
    traffic and (on the FPGA) a reconfiguration; a rigid centroid update
    (:class:`~repro.extraction.tracking.CentroidTracker`) costs a handful of
    multiplies.  The ladder remembers how many *consecutive* monitor
    triggers were answered with the tracking tier: the first
    ``track_attempts`` triggers get :data:`TIER_TRACK`, and if degradation
    still persists — the monitor fires again before a full healthy window
    was observed — the next trigger escalates to :data:`TIER_RETRAIN`.

    Callers report outcomes: :meth:`note_track` after a tracking response,
    :meth:`note_recovered` once a full monitor window passed below
    threshold (the track demonstrably worked), and :meth:`reset` after a
    retrained demapper is installed.  The track streak is the only state,
    so the tier sequence is a pure function of the trigger/recovery
    timeline — which is what lets the serving determinism tests pin tier
    decisions bit-for-bit.

    ``track_attempts=0`` escalates every trigger straight to retraining
    (the paper's two-tier loop).
    """

    def __init__(self, track_attempts: int = 1):
        if track_attempts < 0:
            raise ValueError("track_attempts must be >= 0")
        self.track_attempts = int(track_attempts)
        self._streak = 0

    @property
    def track_streak(self) -> int:
        """Consecutive tracking responses since the last recovery/retrain."""
        return self._streak

    def wants_track(self) -> bool:
        """True while the cheap tier still has attempts left."""
        return self._streak < self.track_attempts

    def note_track(self) -> None:
        """Record that a trigger was answered with a tracking update."""
        self._streak += 1

    def note_recovered(self) -> None:
        """Record a full healthy monitor window: tracking worked, re-arm."""
        self._streak = 0

    def reset(self) -> None:
        """Re-arm the ladder (e.g. after a retrained demapper installed)."""
        self._streak = 0
