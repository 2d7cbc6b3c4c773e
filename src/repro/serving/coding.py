"""Coded frames as a serving workload: FEC layout shared across sessions.

The paper's pipeline is judged on *coded* performance — the demapper's soft
outputs only matter insofar as a downstream decoder can turn them into
error-free payloads.  This module makes that path a first-class serving
concern: a :class:`CodedFrameConfig` on
:class:`~repro.serving.session.SessionConfig` declares that a session's
payload symbols carry an interleaved, CRC-protected convolutional codeword,
and the engine routes every served frame's payload LLRs through
deinterleave → soft Viterbi → CRC check.

Two pieces live here:

``CodedFrameConfig``
    The frozen, hashable *declaration* — generator polynomials, constraint
    length, CRC choice, interleaver seed, and the knobs of the CRC-failure
    degradation monitor that feeds the adaptation ladder.  Hashability is
    load-bearing: the engine groups coalesced frames by their config, and
    :func:`coded_layout` memoises per ``(config, payload bits)`` pair.

``CodedLayout``
    The derived *geometry* — code, CRC, interleaver and bit budget for one
    (config, frame shape) pair — plus the encode/decode transforms.  All
    sessions sharing a config and frame geometry share one layout object,
    which means one cached trellis table set and one interleaver
    permutation for the whole fleet.

Bit budget (``n_payload_bits`` available payload LLRs per frame)::

    n_info  = largest multiple of 8 with
              (n_info + crc.width + K - 1) * n_out <= n_payload_bits
    n_steps = n_info + crc.width + K - 1        # trellis steps incl. tail
    coded_len = n_steps * n_out                 # interleaved coded bits
    pad     = n_payload_bits - coded_len        # known-zero filler bits

The multiple-of-8 constraint comes from :class:`repro.ecc.crc.Crc`
(byte-aligned messages); the pad bits are transmitted as zeros and excluded
from FEC — the decoder simply ignores their LLRs.

Determinism: encode and decode are pure functions of their inputs (the
interleaver permutation is fixed by ``interleaver_seed`` at layout build),
and :meth:`CodedLayout.decode_rows` is row-pure — each frame's decoded bits
are bit-identical to a solo :meth:`CodedLayout.decode` call, which is what
lets the serving determinism contract extend to coded sessions unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.backend.dispatch import grouped_viterbi_decode
from repro.ecc.convolutional import ConvolutionalCode
from repro.ecc.crc import CRC8_CCITT, CRC16_CCITT, Crc
from repro.ecc.interleaver import RandomInterleaver

__all__ = ["CodedFrameConfig", "CodedLayout", "coded_layout"]

#: CRC presets selectable by name on :class:`CodedFrameConfig`.
_CRC_PRESETS: dict[str, Crc] = {"crc8": CRC8_CCITT, "crc16": CRC16_CCITT}


@dataclass(frozen=True)
class CodedFrameConfig:
    """Declares a session's payload as coded traffic.

    Attributes
    ----------
    generators:
        Generator polynomials of the rate-1/n convolutional code
        (default: the classic K=3 octal (7, 5) pair).
    constraint_length:
        Constraint length K of the code; states = ``2^(K-1)``.
    crc:
        Payload integrity check appended before encoding: ``"crc8"``
        (CRC-8 CCITT) or ``"crc16"`` (CRC-16 CCITT, the default).
    interleave:
        Whether coded bits pass through a seeded random interleaver
        before mapping (breaks up burst errors from deep fades).
    interleaver_seed:
        Seed fixing the interleaver permutation — part of the config
        identity, so sender and decoder derive the same permutation.
    crc_fail_threshold / crc_fail_window / crc_fail_cooldown:
        Knobs of the per-session CRC-failure
        :class:`~repro.extraction.monitor.DegradationMonitor`: each
        decoded frame contributes 0.0 (pass) or 1.0 (fail), and a
        windowed failure rate above the threshold fires the adaptation
        ladder exactly like a pilot-BER degradation.
    """

    generators: tuple[int, ...] = (0b111, 0b101)
    constraint_length: int = 3
    crc: str = "crc16"
    interleave: bool = True
    interleaver_seed: int = 0x5EED
    crc_fail_threshold: float = 0.5
    crc_fail_window: int = 4
    crc_fail_cooldown: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(int(g) for g in self.generators))
        # delegate polynomial/K validation to the code's own constructor
        ConvolutionalCode(self.generators, self.constraint_length)
        if self.crc not in _CRC_PRESETS:
            raise ValueError(
                f"crc must be one of {sorted(_CRC_PRESETS)}, got {self.crc!r}"
            )
        if not 0.0 < self.crc_fail_threshold <= 1.0:
            # the monitor only ever observes 0.0/1.0 verdicts, so a threshold
            # outside (0, 1] could never fire (or would fire on every frame)
            raise ValueError(
                f"crc_fail_threshold must be in (0, 1], got {self.crc_fail_threshold}"
            )
        if self.crc_fail_window < 1:
            raise ValueError(f"crc_fail_window must be >= 1, got {self.crc_fail_window}")
        if self.crc_fail_cooldown < 0:
            raise ValueError(
                f"crc_fail_cooldown must be >= 0, got {self.crc_fail_cooldown}"
            )


class CodedLayout:
    """Concrete encode/decode geometry for one (config, frame shape) pair.

    Built via :func:`coded_layout` (cached) — do not construct directly in
    hot paths.  Exposes the derived bit budget as attributes:

    ``n_info``
        Information bits carried per frame (multiple of 8).
    ``n_steps``
        Trellis steps per block (info + CRC + termination tail).
    ``coded_len``
        Coded (and interleaved) bits mapped onto payload symbols.
    ``pad``
        Known-zero filler bits after the codeword (excluded from FEC).
    """

    def __init__(self, config: CodedFrameConfig, n_payload_bits: int) -> None:
        self.config = config
        self.n_payload_bits = int(n_payload_bits)
        self.code = ConvolutionalCode(config.generators, config.constraint_length)
        self.crc = _CRC_PRESETS[config.crc]
        overhead = self.crc.width + self.code.k - 1
        n_info = ((self.n_payload_bits // self.code.n_out) - overhead) // 8 * 8
        if n_info < 8:
            raise ValueError(
                f"{self.n_payload_bits} payload bits cannot carry a coded frame: "
                f"rate-1/{self.code.n_out} code + {self.crc.width}-bit CRC + "
                f"{self.code.k - 1}-bit tail leave < 8 information bits"
            )
        self.n_info = int(n_info)
        self.n_steps = self.n_info + overhead
        self.coded_len = self.n_steps * self.code.n_out
        self.pad = self.n_payload_bits - self.coded_len
        self.interleaver = (
            RandomInterleaver(self.coded_len, np.random.default_rng(config.interleaver_seed))
            if config.interleave
            else None
        )

    # -- encode ---------------------------------------------------------------
    def encode(self, info: np.ndarray) -> np.ndarray:
        """``(n_info,)`` information bits → ``(n_payload_bits,)`` payload bits.

        Appends the CRC, convolutionally encodes (terminated), interleaves,
        and zero-pads up to the payload bit budget.
        """
        bits = np.asarray(info)
        if bits.shape != (self.n_info,):
            raise ValueError(f"info must have shape ({self.n_info},), got {bits.shape}")
        coded = self.code.encode(self.crc.append(bits))
        if self.interleaver is not None:
            coded = self.interleaver.interleave(coded)
        if self.pad:
            coded = np.concatenate([coded, np.zeros(self.pad, dtype=np.int8)])
        return coded.astype(np.int8, copy=False)

    # -- decode ---------------------------------------------------------------
    def decode(self, llrs: np.ndarray, *, backend=None) -> tuple[np.ndarray, bool, float]:
        """``(n_payload_bits,)`` payload LLRs → ``(info, crc_ok, path_metric)``.

        The one-row call of :meth:`decode_rows`: slices off the pad,
        deinterleaves, runs the soft Viterbi (through
        ``backend.viterbi_decode`` when a backend is given) and checks the
        CRC.  ``info`` is returned regardless of the verdict — a failed CRC
        marks the frame served-with-decode-failure, never dropped.
        """
        l = np.asarray(llrs, dtype=np.float64).ravel()
        if l.size != self.n_payload_bits:
            raise ValueError(
                f"expected {self.n_payload_bits} payload LLRs, got {l.size}"
            )
        return self.decode_rows(l[None], backend=backend)[0]

    def decode_rows(
        self, llr_rows: np.ndarray, *, backend=None, key: str = "coded"
    ) -> list[tuple[np.ndarray, bool, float]]:
        """Batched :meth:`decode` over an ``(R, n_payload_bits)`` LLR stack.

        The serving engine's entry point: rows are frames of sessions that
        share this layout, so the whole stack is decoded by one
        :func:`repro.backend.dispatch.grouped_viterbi_decode` call (one
        branch-metric einsum, one ACS kernel launch) and checked by one
        :meth:`~repro.ecc.crc.Crc.check_rows` call; ``info`` rows share
        one ``(R, n_info)`` copy.  Row-pure: each row's result is
        bit-identical to a solo :meth:`decode` on that row.
        """
        rows = np.asarray(llr_rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.n_payload_bits:
            raise ValueError(
                f"llr_rows must be (R, {self.n_payload_bits}), got shape {rows.shape}"
            )
        blocks = rows[:, : self.coded_len]
        if self.interleaver is not None:
            # block-wise permutation: operates on each coded_len row alike
            blocks = self.interleaver.deinterleave(blocks)
        blocks = blocks.reshape(rows.shape[0], self.n_steps, self.code.n_out)
        bits, path_metrics = grouped_viterbi_decode(
            self.code, blocks, backend=backend, key=key
        )
        crc_ok = self.crc.check_rows(bits[:, : self.n_info + self.crc.width])
        info = bits[:, : self.n_info].copy()
        return list(zip(info, crc_ok.tolist(), path_metrics.tolist()))


@lru_cache(maxsize=None)
def coded_layout(config: CodedFrameConfig, n_payload_bits: int) -> CodedLayout:
    """Memoised :class:`CodedLayout` factory.

    Keyed on the (hashable) config and the frame's payload bit budget —
    every session, load generator and engine launch sharing that pair gets
    the *same* layout object, hence one trellis table set and one
    interleaver permutation fleet-wide.
    """
    return CodedLayout(config, n_payload_bits)
