"""CRC over bit arrays (byte-aligned frames) as one GF(2) matrix product.

Used for frame integrity checks in the link layer: a failed CRC marks a
frame as bad without needing the true payload, complementing the
corrected-flip statistic from :mod:`repro.ecc.hamming`.

A CRC is affine over GF(2): an ``n``-bit message's CRC is ``b·G ⊕ c``,
with ``G`` and ``c`` built per length by the shift-register recurrence.
Checking an ``(R, n + width)`` stack is one float32 product (exact: every
sum is an integer ``<= n < 2^24``); the scalar methods are its R=1 calls.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Crc", "CRC8_CCITT", "CRC16_CCITT"]


class Crc:
    """Generic CRC with MSB-first bit order.

    Parameters
    ----------
    width:
        CRC width in bits (8 or 16 supported).
    poly:
        Generator polynomial (without the implicit leading 1).
    init:
        Initial register value.
    xor_out:
        Final XOR applied to the register.
    """

    def __init__(self, width: int, poly: int, *, init: int = 0, xor_out: int = 0, name: str = "crc"):
        if width not in (8, 16):
            raise ValueError("only widths 8 and 16 are supported")
        self.width = width
        self.poly = poly
        self.init = init
        self.xor_out = xor_out
        self.name = name
        self._shifts = np.arange(width - 1, -1, -1)
        #: message length -> (float32 (n, width) generator, (width,) constant)
        self._affine: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _zero_step(self, reg: int) -> int:
        """The register after shifting in one 0 bit."""
        reg <<= 1
        return reg ^ self.poly ^ (1 << self.width) if reg >> self.width else reg

    def _affine_map(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``i`` of ``G`` is the register a lone 1 at bit ``i`` leaves
        (``poly`` shifted through the zeros after it); ``c`` is the
        register ``n`` zeros leave from ``init``, XOR ``xor_out``."""
        if n not in self._affine:
            impulse, reg, zeros = [], self.poly, self.init
            for _ in range(n):
                impulse.append(reg)
                reg, zeros = self._zero_step(reg), self._zero_step(zeros)
            regs = np.array(impulse[::-1] + [zeros ^ self.xor_out], dtype=np.int64)
            bits = (regs[:, None] >> self._shifts) & 1
            self._affine[n] = (bits[:n].astype(np.float32), bits[n])
        return self._affine[n]

    def _crc_rows(self, payload: np.ndarray) -> np.ndarray:
        """MSB-first CRC bits ``(R, width)`` of an ``(R, n)`` 0/1 stack."""
        if payload.shape[1] % 8 != 0:
            raise ValueError(f"bit count {payload.shape[1]} must be a multiple of 8")
        if not np.all((payload == 0) | (payload == 1)):
            raise ValueError("bits must be 0/1 valued")
        gen, const = self._affine_map(payload.shape[1])
        return ((payload.astype(np.float32) @ gen).astype(np.int64) & 1) ^ const

    def check_rows(self, bits: np.ndarray) -> np.ndarray:
        """Per-row verdicts ``(R,)`` of an ``(R, n + width)`` stack of
        payloads, each followed by its CRC (MSB first)."""
        b = np.asarray(bits)
        if b.ndim != 2 or b.shape[1] < self.width:
            raise ValueError(f"bits must be (R, n + {self.width}), got shape {b.shape}")
        return np.all(self._crc_rows(b[:, : -self.width]) == b[:, -self.width :], axis=1)

    def compute_bytes(self, data: np.ndarray) -> int:
        """CRC of a uint8 byte sequence."""
        return self.compute_bits(np.unpackbits(np.asarray(data, dtype=np.uint8).ravel()))

    def compute_bits(self, bits: np.ndarray) -> int:
        """CRC of a 0/1 bit array whose length is a multiple of 8 (MSB first)."""
        return int(self._crc_rows(np.asarray(bits).reshape(1, -1))[0] @ (1 << self._shifts))

    def append(self, bits: np.ndarray) -> np.ndarray:
        """Return ``bits`` with the CRC appended (MSB first)."""
        b = np.asarray(bits).reshape(1, -1)
        return np.concatenate([b[0], self._crc_rows(b)[0]]).astype(np.int8)

    def check(self, bits_with_crc: np.ndarray) -> bool:
        """True iff the trailing CRC matches the payload."""
        b = np.asarray(bits_with_crc).reshape(1, -1)
        if b.size < self.width:
            raise ValueError("frame shorter than CRC width")
        return bool(self.check_rows(b)[0])


#: CRC-8/CCITT (poly 0x07)
CRC8_CCITT = Crc(8, 0x07, name="CRC-8/CCITT")
#: CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF)
CRC16_CCITT = Crc(16, 0x1021, init=0xFFFF, name="CRC-16/CCITT-FALSE")
