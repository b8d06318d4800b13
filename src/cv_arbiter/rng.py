"""Deterministic, order-independent random streams.

Every stochastic component draws from a counter-based Philox generator
keyed by a stable hash of its identifying labels, so a replication's
stream does not depend on execution order or thread count.  Normal
variates are produced by inverse-CDF transformation of 53-bit uniforms,
which keeps golden outputs bit-identical across platforms.  Each such
uniform consumes exactly one 64-bit Philox word, so a stream can be cut
into chunks that are drawn independently (:func:`seek`) and still give
the sequential bits.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import ndtri

_TWO53 = float(1 << 53)
_BLOCK_WORDS = 4  # 64-bit words per Philox block


def stream(*parts) -> np.random.Generator:
    """Return a Philox generator keyed by a stable hash of ``parts``.

    Parts are joined on ``|`` after ``str()`` conversion; equal part
    tuples always yield identical streams, distinct tuples yield
    (cryptographically) unrelated ones.
    """
    token = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def uniforms(gen: np.random.Generator, size) -> np.ndarray:
    """Uniform draws strictly inside (0, 1), symmetric about 1/2."""
    return (gen.integers(0, 1 << 53, size=size) + 0.5) / _TWO53


def normals(gen: np.random.Generator, size) -> np.ndarray:
    """Standard normal draws via the inverse normal CDF."""
    return ndtri(uniforms(gen, size))


def seek(gen: np.random.Generator, draws: int) -> np.random.Generator:
    """Return a copy of the Philox stream ``gen`` moved ``draws`` 64-bit
    words ahead, i.e. past ``draws`` :func:`uniforms`; ``gen`` does not move.

    The words left in the current block are taken first; then whole
    blocks are skipped with ``advance`` and the 0-3 leftover words are
    drawn and discarded.  The 32-bit carry, which 64-bit draws never
    touch but ``advance`` clears, is kept.
    """
    if draws < 0:
        raise ValueError(f"draws must be >= 0, got {draws}")
    state = gen.bit_generator.state
    bitgen = np.random.Philox(key=0)
    bitgen.state = state
    out = np.random.Generator(bitgen)
    buffered = _BLOCK_WORDS - state["buffer_pos"]
    if draws > buffered:
        draws -= buffered
        bitgen.advance(draws // _BLOCK_WORDS)
        draws %= _BLOCK_WORDS
        moved = bitgen.state
        moved["has_uint32"], moved["uinteger"] = state["has_uint32"], state["uinteger"]
        bitgen.state = moved
    out.integers(0, 1 << 53, size=draws)
    return out
