"""Property-based tests (hypothesis) for the coded-traffic substrate.

The load-bearing algebraic facts behind the serving coded path, checked
over *random* code parameters instead of the two textbook codes the unit
tests pin:

* noiseless encode → soft-decode is **exact for every valid generator
  set** — ``u(D) ↦ (u·g_j(D))_j`` is injective over GF(2)[D] (a nonzero
  polynomial is not a zero divisor), so the transmitted path is the unique
  codeword matching all ±LLRs and the correlation metric makes it strictly
  best;
* the backend ``viterbi_decode`` kernel is bit-identical to the scalar
  reference ACS (the ``viterbi_reference`` oracle) on arbitrary codes and
  arbitrary (noisy) LLRs;
* CRC ``append`` → ``check`` round-trips, and any single-bit corruption is
  detected (both presets have a degree-≥1 generator with an odd-weight
  factor... we assert the weaker, always-true single-flip property);
* interleave ∘ deinterleave is the identity for both interleaver kinds, on
  int8 bits and float LLR blocks alike (the decoder relies on the float
  path);
* the serving :class:`~repro.serving.coding.CodedLayout` round-trips
  encode → decode noiselessly for random configs and payload budgets.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.backend import backend_from_name
from repro.ecc import CRC8_CCITT, CRC16_CCITT, BlockInterleaver, RandomInterleaver
from repro.ecc.convolutional import ConvolutionalCode
from repro.serving.coding import CodedFrameConfig, coded_layout

SETTINGS = dict(max_examples=40, deadline=None)


@st.composite
def conv_codes(draw):
    """A random valid (generators, constraint_length) pair, K in [2, 7]."""
    K = draw(st.integers(2, 7))
    n_out = draw(st.integers(2, 3))
    gens = tuple(
        draw(st.lists(st.integers(1, (1 << K) - 1), min_size=n_out, max_size=n_out))
    )
    return ConvolutionalCode(gens, K)


class TestConvolutionalProperties:
    @given(code=conv_codes(), data=st.data())
    @settings(**SETTINGS)
    def test_noiseless_decode_exact_for_any_generators(self, code, data):
        n_info = data.draw(st.integers(1, 96))
        seed = data.draw(st.integers(0, 2**32 - 1))
        bits = np.random.default_rng(seed).integers(0, 2, n_info).astype(np.int8)
        coded = code.encode(bits)
        assert coded.size == code.encoded_length(n_info)
        pseudo = (2.0 * coded.astype(np.float64) - 1.0) * 4.0
        res = code.decode_soft(pseudo.reshape(-1, code.n_out))
        assert np.array_equal(res.data, bits)

    @given(code=conv_codes(), data=st.data())
    @settings(**SETTINGS)
    def test_backend_kernel_matches_reference_on_noisy_llrs(
        self, code, data, viterbi_reference
    ):
        n_steps = data.draw(st.integers(code.k, 64))
        seed = data.draw(st.integers(0, 2**32 - 1))
        llrs = np.random.default_rng(seed).normal(size=(n_steps, code.n_out)) * 3.0
        ref_bits, ref_metric = viterbi_reference(code, llrs)
        got = code.decode_soft(llrs, backend=backend_from_name("numpy"))
        assert np.array_equal(got.data, ref_bits)
        assert got.path_metric == ref_metric


class TestCrcProperties:
    @given(
        crc=st.sampled_from([CRC8_CCITT, CRC16_CCITT]),
        n_bytes=st.integers(1, 32),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(**SETTINGS)
    def test_append_check_roundtrip(self, crc, n_bytes, seed):
        bits = np.random.default_rng(seed).integers(0, 2, 8 * n_bytes).astype(np.int8)
        assert crc.check(crc.append(bits))

    @given(
        crc=st.sampled_from([CRC8_CCITT, CRC16_CCITT]),
        n_bytes=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(**SETTINGS)
    def test_single_bit_flip_detected(self, crc, n_bytes, seed, data):
        bits = np.random.default_rng(seed).integers(0, 2, 8 * n_bytes).astype(np.int8)
        framed = crc.append(bits)
        pos = data.draw(st.integers(0, framed.size - 1))
        corrupted = framed.copy()
        corrupted[pos] ^= 1
        assert not crc.check(corrupted)


class TestInterleaverProperties:
    @given(
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        blocks=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(**SETTINGS)
    def test_block_interleaver_identity(self, rows, cols, blocks, seed):
        rng = np.random.default_rng(seed)
        il = BlockInterleaver(rows, cols)
        bits = rng.integers(0, 2, rows * cols * blocks).astype(np.int8)
        assert np.array_equal(il.deinterleave(il.interleave(bits)), bits)
        llrs = rng.normal(size=(blocks, rows * cols))  # the decoder's float path
        assert np.array_equal(il.deinterleave(il.interleave(llrs)), llrs)

    @given(
        size=st.integers(1, 128),
        blocks=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(**SETTINGS)
    def test_random_interleaver_identity(self, size, blocks, seed):
        rng = np.random.default_rng(seed)
        il = RandomInterleaver(size, rng)
        bits = rng.integers(0, 2, size * blocks).astype(np.int8)
        assert np.array_equal(il.deinterleave(il.interleave(bits)), bits)
        llrs = rng.normal(size=(blocks, size))
        assert np.array_equal(il.deinterleave(il.interleave(llrs)), llrs)


class TestCodedLayoutProperties:
    @given(
        crc=st.sampled_from(["crc8", "crc16"]),
        interleave=st.booleans(),
        extra_bits=st.integers(0, 37),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(**SETTINGS)
    def test_encode_decode_roundtrip(self, crc, interleave, extra_bits, seed):
        config = CodedFrameConfig(crc=crc, interleave=interleave)
        n_payload_bits = 192 + extra_bits  # always enough for >= 8 info bits
        layout = coded_layout(config, n_payload_bits)
        assert layout.n_info % 8 == 0 and layout.n_info >= 8
        assert layout.coded_len + layout.pad == n_payload_bits
        info = np.random.default_rng(seed).integers(0, 2, layout.n_info).astype(np.int8)
        payload = layout.encode(info)
        assert payload.shape == (n_payload_bits,)
        pseudo = (2.0 * payload.astype(np.float64) - 1.0) * 4.0
        dec, crc_ok, _ = layout.decode(pseudo)
        assert crc_ok and np.array_equal(dec, info)
        # batched row decode is bit-identical to the solo decode
        rows = layout.decode_rows(pseudo[None, :], backend=backend_from_name("numpy"))
        assert rows[0][1] and np.array_equal(rows[0][0], info)
