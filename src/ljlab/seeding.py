"""Batched seeding of the trial streams ``default_rng(seed ^ t)``, bit for bit.

numpy's ``default_rng(x)`` is ``Generator(PCG64(SeedSequence(x)))``, and
building one ``SeedSequence`` a trial costs more than the draws of a small
trial. ``_generators`` runs ``SeedSequence``'s hash (O'Neill's ``seed_seq_fe``
of the PCG report) for a whole chunk of seeds as one vectorized numpy pass and
hands each PCG64 its seed words through numpy's public ``ISeedSequence``
interface: every generator's state is ``default_rng(seed ^ t)``'s.
``linalg._trial_rngs`` imports this module at its first draw.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

#: numpy's ``SeedSequence`` hash constants: O'Neill's ``seed_seq_fe`` from
#: the PCG report (HMC-CS-2014-0905). A-hashes fill and mix the pool,
#: B-hashes draw the output words from it.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """(steps + 1, 1) uint32 column: the hash constant init * mult**j mod 2**32 before step j."""
    h = [init]
    for _ in range(steps):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return np.array(h, dtype=np.uint32)[:, None]


#: The pool's 4 A-hashes of its entropy words, then its 12 cross-mix hashes.
_POOL_HASH = _hash_constants(_INIT_A, _MULT_A, 16)
#: Cross-mix round s hashes pool word s once for each other word d, in
#: order of d: the constants before and after those hashes, in d's row.
#: Row s is a placeholder, as word s keeps its value.
_CROSS_HASH = [
    (_POOL_HASH[k], _POOL_HASH[k + 1])
    for k in (np.insert(4 + 3 * s + np.arange(3), s, 0) for s in range(4))
]
#: ``generate_state(4, np.uint64)``: 8 B-hashes, cycling twice over the pool.
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(v: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s hash of the words v at each step's constants.

    Every wrapping product is an array operation: a uint32 scalar product
    that wraps raises a RuntimeWarning.
    """
    v = v ^ before
    v *= after
    v ^= v >> _XSHIFT
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s mix of pool words x with hashes y (y is overwritten)."""
    x = x * _MIX_MULT_L
    y *= _MIX_MULT_R
    x -= y
    x ^= x >> _XSHIFT
    return x


def _pcg64_seed_words(seed: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, 4) uint64: row t - lo is ``SeedSequence(seed ^ t).generate_state(4, np.uint64)``.

    numpy's ``SeedSequence`` algorithm, one vectorized pass over the seeds.
    Each seed's entropy is its 32-bit words, least significant first, one
    word [0] for 0; a 4-word pool hashes in the first four words, zero
    padded, as ``SeedSequence`` pads them itself, then mixes them together.
    Words beyond the fourth (seeds >= 2^128) each take one more mixing
    round, applied to the seeds that have that many words. The rows are C
    contiguous: PCG64 reads each as raw memory.
    """
    m = hi - lo
    words = max(4, -(-max(seed.bit_length(), (hi - 1).bit_length()) // 32))
    raw = b"".join((seed ^ t).to_bytes(4 * words, "little") for t in range(lo, hi))
    entropy = np.frombuffer(raw, dtype="<u4").reshape(m, words).T.astype(np.uint32, order="C")
    pool = _hashmix(entropy[:4], _POOL_HASH[:4], _POOL_HASH[1:5])
    for s, (before, after) in enumerate(_CROSS_HASH):
        mixed = _mix(pool, _hashmix(pool[s], before, after))
        mixed[s] = pool[s]
        pool = mixed
    if words > 4:
        h = _hash_constants(_INIT_A, _MULT_A, 4 * words)
        # each seed's word count, 0 for the seed 0, which takes no round either way
        count = (np.arange(1, words + 1)[:, None] * (entropy != 0)).max(axis=0)
        for i in range(4, words):
            mixed = _mix(pool, _hashmix(entropy[i], h[4 * i : 4 * i + 4], h[4 * i + 1 : 4 * i + 5]))
            pool = np.where(count > i, mixed, pool)
    state = _hashmix(np.concatenate((pool, pool)), _STATE_HASH[:8], _STATE_HASH[1:])
    # little-endian word pairs, as generate_state views them, then native uint64
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """A PCG64 seed computed ahead: ``generate_state`` returns its 4 uint64 words.

    PCG64 asks for ``generate_state(4, np.uint64)`` and reads the array as
    raw memory, so ``words`` is a C-contiguous uint64 array of 4.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
        return self.words


def _generators(seed: int, lo: int, hi: int) -> list[Generator]:
    """``[default_rng(seed ^ t) for t in range(lo, hi)]``, in the same states, from one hash pass."""
    return [Generator(PCG64(_SeedWords(w))) for w in _pcg64_seed_words(seed, lo, hi)]
