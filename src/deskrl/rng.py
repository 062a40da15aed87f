"""Deterministic random number plumbing.

All stochastic code in the package draws from numpy Generators backed by
the counter-based Philox bit generator.  Streams are derived from a run
seed plus a purpose label ("init", "train", ...) through a stable hash,
so adding a new consumer never shifts the draws of an existing one.

The full generator state fits in 13 unsigned 64-bit words, which is what
checkpoints store: counter (4 words), key (2), output buffer (4), buffer
position, has_uint32 flag, and the cached uinteger.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ResumeError

STATE_WORDS = 13


def stable_mix(*parts: int | str) -> int:
    """Hash ints and strings into one 128-bit integer, platform independent."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, str)):
            raise TypeError(f"cannot mix part of type {type(part).__name__}")
        token = f"i:{part}" if isinstance(part, int) else f"s:{part}"
        h.update(token.encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest()[:16], "little")


def make_generator(*parts: int | str) -> np.random.Generator:
    """Build a Philox-backed Generator keyed by the given seed parts."""
    return np.random.Generator(np.random.Philox(stable_mix(*parts)))


def episode_seed(run_seed: int, split: str, index: int) -> int:
    """Seed for one evaluation episode, independent of any training stream."""
    return stable_mix(run_seed, "episode", split, index) % (2**63)


def next_episode_seed(gen: np.random.Generator) -> int:
    """Draw the seed of the next episode a rollout or demo run resets to."""
    return int(gen.integers(0, 2**63))


def substreams(gen: np.random.Generator, count: int) -> list[np.random.Generator]:
    """`count` Philox streams, stream k keyed by the k-th of `count` draws from `gen`."""
    return [make_generator("substream", int(gen.integers(0, 2**63))) for _ in range(count)]


def panel_seeds(run_seed: int, split: str, count: int) -> list[int]:
    """Fixed evaluation panel: the first `count` episode seeds for a split."""
    return [episode_seed(run_seed, split, i) for i in range(count)]


def state_words(gen: np.random.Generator) -> np.ndarray:
    """Serialize a Philox generator to 13 uint64 words."""
    st = gen.bit_generator.state
    if st["bit_generator"] != "Philox":
        raise ResumeError(f"expected Philox generator, got {st['bit_generator']}")
    words = np.empty(STATE_WORDS, dtype=np.uint64)
    words[0:4] = np.asarray(st["state"]["counter"], dtype=np.uint64)
    words[4:6] = np.asarray(st["state"]["key"], dtype=np.uint64)
    words[6:10] = np.asarray(st["buffer"], dtype=np.uint64)
    words[10] = np.uint64(st["buffer_pos"])
    words[11] = np.uint64(st["has_uint32"])
    words[12] = np.uint64(st["uinteger"])
    return words


def generator_from_words(words: np.ndarray) -> np.random.Generator:
    """Rebuild a Philox generator from 13 uint64 words (bit-exact resume)."""
    words = np.asarray(words, dtype=np.uint64)
    if words.shape != (STATE_WORDS,):
        raise ResumeError(f"generator state must be {STATE_WORDS} words, got shape {words.shape}")
    gen = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": words[0:4].copy(), "key": words[4:6].copy()},
        "buffer": words[6:10].copy(),
        "buffer_pos": int(words[10]),
        "has_uint32": int(words[11]),
        "uinteger": int(words[12]),
    }
    return gen
