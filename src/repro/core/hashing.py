"""Hardware hash functions for indexing ACFVs (Section 2.1, Figure 5).

The paper evaluates two efficient hardware hashes of the cache tag:

- an XOR hash — modelled here as XOR-folding: the tag is cut into
  ``log2(bits)``-wide chunks that are XOR-ed together, a standard
  gate-cheap mixing network (Ramakrishna et al. [22] in the paper);
- a modulo hash — the tag modulo the vector length, i.e. simply the
  low-order tag bits when the length is a power of two.

Figure 5 shows XOR tracking an oracle footprint estimator noticeably better
than modulo at small vector sizes, because modulo of sequentially-strided
tags aliases whole regions onto few bits.

Both hashes come in two forms: ``h(tag)`` for one tag and ``h.many(tags)``
for an ``int64`` array of tags, which is bit-identical element by element
(the batch engine hashes a whole epoch's hit lines at once).
"""

from __future__ import annotations

import numpy as np


class XorFoldHash:
    """XOR-fold a tag into an index in ``[0, bits)``."""

    name = "xor"

    def __init__(self, bits: int) -> None:
        if bits <= 0:
            raise ValueError("bits must be positive")
        self.bits = bits
        # Fold width: enough bits to cover the range; non-power-of-two
        # vector lengths fold at the next power of two and reduce modulo.
        self._width = max(1, (bits - 1).bit_length())
        self._mask = (1 << self._width) - 1

    def __call__(self, tag: int) -> int:
        if tag < 0:
            # Arithmetic right shift never reaches 0 from a negative value.
            raise ValueError(f"tag must be non-negative, got {tag}")
        value = tag
        folded = 0
        while value:
            folded ^= value & self._mask
            value >>= self._width
        return folded % self.bits

    def many(self, tags) -> np.ndarray:
        """Hash an array of non-negative ``int64`` tags at once."""
        value = np.array(tags, dtype=np.int64)  # a copy: shifted in place
        folded = np.zeros(value.shape, dtype=np.int64)
        if not value.size:
            return folded
        if int(value.min()) < 0:
            raise ValueError("tags must be non-negative")
        # A fixed round count (chunks in the widest tag) replaces the
        # scalar form's data-dependent loop; surplus rounds XOR in zeros.
        rounds = -(-int(value.max()).bit_length() // self._width)
        for _ in range(rounds):
            folded ^= value & self._mask
            value >>= self._width
        return folded % self.bits


class ModuloHash:
    """Index a tag by ``tag % bits`` (low-order bits for powers of two)."""

    name = "modulo"

    def __init__(self, bits: int) -> None:
        if bits <= 0:
            raise ValueError("bits must be positive")
        self.bits = bits

    def __call__(self, tag: int) -> int:
        return tag % self.bits

    def many(self, tags) -> np.ndarray:
        """Hash an array of ``int64`` tags at once."""
        return np.asarray(tags, dtype=np.int64) % self.bits


def make_hash(name: str, bits: int):
    """Instantiate a hash function by configuration name."""
    if name == "xor":
        return XorFoldHash(bits)
    if name == "modulo":
        return ModuloHash(bits)
    raise ValueError(f"unknown hash {name!r}")
