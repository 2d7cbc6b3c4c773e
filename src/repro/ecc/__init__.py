"""Error-correction substrate used for retraining triggers (paper ref [9]).

The paper proposes detecting channel changes either via pilot-BER or via the
number of bit flips corrected by an outer ECC (Schibisch et al. 2018).  This
package provides the outer code machinery:

* :class:`HammingCode` — Hamming(2^r−1, 2^r−1−r) with single-error
  correction; decode reports the number of corrected flips (the trigger
  statistic).
* :class:`ExtendedHammingCode` — SECDED variant (detects double errors).
* :class:`RepetitionCode` — trivial majority-vote code (testing/teaching).
* CRC-8/16 frame checks, block/random interleavers.

The convolutional code + CRC + interleaver trio is also the substrate of
the serving stack's coded-traffic path
(:mod:`repro.serving.coding`): the soft Viterbi ACS there is one
row-batched ``viterbi_decode`` backend kernel launch per coded group — the
same kernel :meth:`ConvolutionalCode.decode_soft` calls for one block.

``from repro.ecc import *`` is a supported, stable surface: ``__all__``
below is the package's public API, tiered by code family.
"""

from repro.ecc.convolutional import ConvolutionalCode, ViterbiResult
from repro.ecc.crc import Crc, CRC8_CCITT, CRC16_CCITT
from repro.ecc.hamming import ExtendedHammingCode, HammingCode
from repro.ecc.interleaver import BlockInterleaver, RandomInterleaver
from repro.ecc.repetition import RepetitionCode

__all__ = [
    # convolutional coding (hard/soft Viterbi — the serving coded path)
    "ConvolutionalCode",
    "ViterbiResult",
    # block codes (retraining-trigger statistics)
    "HammingCode",
    "ExtendedHammingCode",
    "RepetitionCode",
    # frame integrity
    "Crc",
    "CRC8_CCITT",
    "CRC16_CCITT",
    # interleaving (burst-error decorrelation)
    "BlockInterleaver",
    "RandomInterleaver",
]
