"""ECC substrate tests: Hamming, extended Hamming, repetition, CRC, interleavers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc import (
    BlockInterleaver,
    CRC8_CCITT,
    CRC16_CCITT,
    Crc,
    ExtendedHammingCode,
    HammingCode,
    RandomInterleaver,
    RepetitionCode,
)


class TestHamming74:
    @pytest.fixture
    def code(self):
        return HammingCode(3)

    def test_geometry(self, code):
        assert (code.n, code.k) == (7, 4)
        assert np.isclose(code.rate, 4 / 7)

    def test_roundtrip_all_messages(self, code):
        data = np.array([[(m >> i) & 1 for i in range(3, -1, -1)] for m in range(16)])
        cw = code.encode(data)
        res = code.decode(cw)
        assert np.array_equal(res.data, data)
        assert res.corrected == 0

    def test_corrects_every_single_bit_error(self, code, rng):
        data = rng.integers(0, 2, size=(7, 4))
        cw = code.encode(data)
        for block in range(7):
            for pos in range(7):
                bad = cw.copy()
                bad[block, pos] ^= 1
                res = code.decode(bad)
                assert np.array_equal(res.data, data), f"block {block} pos {pos}"
        # corrected count reported
        bad = cw.copy()
        bad[0, 3] ^= 1
        assert code.decode(bad).corrected == 1

    def test_flat_input_accepted(self, code, rng):
        data = rng.integers(0, 2, size=12)  # 3 blocks of 4
        cw = code.encode(data)
        assert cw.shape == (3, 7)

    def test_length_validation(self, code):
        with pytest.raises(ValueError):
            code.encode(np.zeros(5, dtype=np.int8))
        with pytest.raises(ValueError):
            code.decode(np.zeros((2, 6), dtype=np.int8))

    def test_nonbinary_rejected(self, code):
        with pytest.raises(ValueError):
            code.encode(np.full((1, 4), 2))

    def test_codewords_satisfy_parity(self, code, rng):
        data = rng.integers(0, 2, size=(50, 4))
        cw = code.encode(data)
        syndrome = (cw @ code._h.T) & 1
        assert not syndrome.any()

    def test_larger_code(self):
        code = HammingCode(4)  # (15, 11)
        assert (code.n, code.k) == (15, 11)
        rng = np.random.default_rng(0)
        data = rng.integers(0, 2, size=(20, 11))
        cw = code.encode(data)
        cw[4, 9] ^= 1
        res = code.decode(cw)
        assert np.array_equal(res.data, data)

    def test_r_validation(self):
        with pytest.raises(ValueError):
            HammingCode(1)


class TestExtendedHamming:
    @pytest.fixture
    def code(self):
        return ExtendedHammingCode(3)

    def test_roundtrip(self, code, rng):
        data = rng.integers(0, 2, size=(20, 4))
        res = code.decode(code.encode(data))
        assert np.array_equal(res.data, data)
        assert res.corrected == 0
        assert res.detected_uncorrectable == 0

    def test_single_error_corrected(self, code, rng):
        data = rng.integers(0, 2, size=(5, 4))
        cw = code.encode(data)
        cw[2, 3] ^= 1
        res = code.decode(cw)
        assert np.array_equal(res.data, data)
        assert res.corrected == 1

    def test_parity_bit_error_flagged_not_corrupting(self, code, rng):
        data = rng.integers(0, 2, size=(3, 4))
        cw = code.encode(data)
        cw[1, 7] ^= 1  # overall parity bit
        res = code.decode(cw)
        assert np.array_equal(res.data, data)
        assert res.corrected == 1

    def test_double_error_detected(self, code, rng):
        data = rng.integers(0, 2, size=(4, 4))
        cw = code.encode(data)
        cw[0, 1] ^= 1
        cw[0, 5] ^= 1
        res = code.decode(cw)
        assert res.detected_uncorrectable == 1

    def test_even_parity_codewords(self, code, rng):
        cw = code.encode(rng.integers(0, 2, size=(30, 4)))
        assert not (cw.sum(axis=1) & 1).any()


class TestRepetition:
    def test_roundtrip(self, rng):
        code = RepetitionCode(3)
        data = rng.integers(0, 2, size=10)
        res = code.decode(code.encode(data))
        assert np.array_equal(res.data.ravel(), data)

    def test_majority_corrects_minority(self):
        code = RepetitionCode(3)
        res = code.decode(np.array([[1, 0, 1], [0, 0, 1]]))
        assert np.array_equal(res.data.ravel(), [1, 0])
        assert res.corrected == 2

    def test_even_factor_rejected(self):
        with pytest.raises(ValueError):
            RepetitionCode(2)

    def test_rate(self):
        assert np.isclose(RepetitionCode(5).rate, 0.2)


def _crc_reference(crc: Crc, bits: np.ndarray) -> int:
    """Table-driven byte-at-a-time CRC register recurrence — the oracle the
    matrix CRC must match."""
    mask, top, shift = (1 << crc.width) - 1, 1 << (crc.width - 1), crc.width - 8
    table = []
    for byte in range(256):
        reg = byte << shift
        for _ in range(8):
            reg = ((reg << 1) ^ crc.poly) & mask if reg & top else (reg << 1) & mask
        table.append(reg)
    reg = crc.init
    for byte in np.packbits(np.asarray(bits, dtype=np.uint8)).tolist():
        reg = ((reg << 8) & mask) ^ table[((reg >> shift) ^ byte) & 0xFF]
    return (reg ^ crc.xor_out) & mask


class TestCrc:
    def test_crc8_known_vector(self):
        # CRC-8 (poly 0x07, init 0) of "123456789" is 0xF4
        data = np.frombuffer(b"123456789", dtype=np.uint8)
        assert CRC8_CCITT.compute_bytes(data) == 0xF4
        assert _crc_reference(CRC8_CCITT, np.unpackbits(data)) == 0xF4

    def test_crc16_ccitt_false_known_vector(self):
        # CRC-16/CCITT-FALSE of "123456789" is 0x29B1
        data = np.frombuffer(b"123456789", dtype=np.uint8)
        assert CRC16_CCITT.compute_bytes(data) == 0x29B1
        assert _crc_reference(CRC16_CCITT, np.unpackbits(data)) == 0x29B1

    @given(
        crc=st.sampled_from([CRC8_CCITT, CRC16_CCITT]),
        n_bytes=st.integers(1, 64),
        n_rows=st.integers(1, 8),
        flip_rate=st.sampled_from([0.0, 0.002, 0.05]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_check_rows_matches_table_oracle(self, crc, n_bytes, n_rows, flip_rate, seed):
        """``check_rows`` on framed rows with random corruption gives, row
        by row, the verdict of the table recurrence."""
        rng = np.random.default_rng(seed)
        payload = rng.integers(0, 2, (n_rows, 8 * n_bytes)).astype(np.int8)
        shifts = np.arange(crc.width - 1, -1, -1)
        tails = [(_crc_reference(crc, row) >> shifts) & 1 for row in payload]
        frames = np.concatenate([payload, np.array(tails, dtype=np.int8)], axis=1)
        frames ^= (rng.random(frames.shape) < flip_rate).astype(np.int8)
        want = [
            _crc_reference(crc, row[: -crc.width]) == int(row[-crc.width :] @ (1 << shifts))
            for row in frames
        ]
        assert crc.check_rows(frames).tolist() == want
        assert [crc.compute_bits(row) for row in payload] == [
            _crc_reference(crc, row) for row in payload
        ]

    def test_append_check_roundtrip(self, rng):
        bits = rng.integers(0, 2, size=64)
        framed = CRC16_CCITT.append(bits)
        assert CRC16_CCITT.check(framed)

    def test_detects_single_flip(self, rng):
        bits = rng.integers(0, 2, size=64)
        framed = CRC16_CCITT.append(bits)
        for pos in range(framed.size):
            bad = framed.copy()
            bad[pos] ^= 1
            assert not CRC16_CCITT.check(bad)

    def test_bit_length_validation(self):
        with pytest.raises(ValueError):
            CRC8_CCITT.compute_bits(np.zeros(7, dtype=np.int8))

    def test_width_validation(self):
        with pytest.raises(ValueError):
            Crc(12, 0x80F)


class TestInterleavers:
    def test_block_roundtrip(self, rng):
        il = BlockInterleaver(4, 8)
        bits = rng.integers(0, 2, size=64)
        assert np.array_equal(il.deinterleave(il.interleave(bits)), bits)

    def test_block_spreads_bursts(self):
        il = BlockInterleaver(4, 8)
        bits = np.zeros(32, dtype=np.int8)
        inter = il.interleave(bits)
        inter[:4] = 1  # a burst of 4 on the channel
        out = il.deinterleave(inter)
        ones = np.flatnonzero(out)
        assert np.all(np.diff(ones) >= 4)  # burst broken apart

    def test_block_is_permutation(self, rng):
        il = BlockInterleaver(3, 5)
        x = np.arange(15)
        assert sorted(il.interleave(x).tolist()) == list(range(15))

    def test_random_roundtrip(self, rng):
        il = RandomInterleaver(32, rng=0)
        bits = rng.integers(0, 2, size=96)
        assert np.array_equal(il.deinterleave(il.interleave(bits)), bits)

    def test_random_deterministic_in_seed(self, rng):
        bits = rng.integers(0, 2, size=32)
        a = RandomInterleaver(32, rng=5).interleave(bits)
        b = RandomInterleaver(32, rng=5).interleave(bits)
        assert np.array_equal(a, b)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            BlockInterleaver(4, 4).interleave(np.zeros(10, dtype=np.int8))
