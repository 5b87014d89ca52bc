"""Property fuzz of the two dataset loaders: truncations and single-bit
flips of a small file either load well-formed data or raise
DatasetFormatError, never a stray error from the parsing underneath."""

import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from flowtok.data import (  # noqa: E402
    DatasetFormatError,
    LatentDataset,
    load_latents,
    load_pairs_jsonl,
    save_latents,
    save_pairs_jsonl,
)

# Deterministic and bounded, so the suite stays reproducible and quick.
FUZZ = settings(derandomize=True, max_examples=400, deadline=None, database=None)


def mutations(size: int):
    """("truncate", n) keeps the first n bytes; ("flip", b) flips bit b."""
    return st.one_of(st.tuples(st.just("truncate"), st.integers(0, size - 1)),
                     st.tuples(st.just("flip"), st.integers(0, 8 * size - 1)))


def mutate(raw: bytes, mutation) -> bytes:
    kind, at = mutation
    if kind == "truncate":
        return raw[:at]
    out = bytearray(raw)
    out[at // 8] ^= 1 << (at % 8)
    return bytes(out)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def latent_bytes(workdir) -> bytes:
    """Two 3x2 clips: 72 bytes."""
    values = np.arange(2 * 3 * 2, dtype=np.float32).reshape(2, 3, 2) / 7
    path = workdir / "clean.msnl"
    save_latents(path, LatentDataset(values, np.array([0, 3], dtype=np.uint16)))
    return path.read_bytes()


@pytest.fixture(scope="module")
def pairs_bytes(workdir) -> bytes:
    """Two pairs, one with a multi-byte caption and its own instruction."""
    pairs = [{"caption": "A loud drum is playing", "audio_tokens": [3, 17, 255]},
             {"caption": "Eine Glocke klingt – leise", "audio_tokens": [0, 42],
              "instruction": "Describe this audio.", "answer": "A bell"}]
    path = workdir / "clean.jsonl"
    save_pairs_jsonl(path, pairs)
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_latent_file_mutations(workdir, latent_bytes, data):
    mutated = mutate(latent_bytes, data.draw(mutations(len(latent_bytes))))
    path = workdir / "mutated.msnl"
    path.write_bytes(mutated)
    try:
        loaded = load_latents(path)
    except DatasetFormatError:
        return
    n, frames, dim = struct.unpack_from("<III", mutated, 8)
    assert loaded.values.shape == (n, frames, dim)
    assert loaded.values.dtype == np.float32
    assert loaded.labels.shape == (n,)


@FUZZ
@given(data=st.data())
def test_pairs_file_mutations(workdir, pairs_bytes, data):
    path = workdir / "mutated.jsonl"
    path.write_bytes(mutate(pairs_bytes, data.draw(mutations(len(pairs_bytes)))))
    try:
        pairs = load_pairs_jsonl(path)
    except DatasetFormatError:
        return
    for pair in pairs:
        assert isinstance(pair["caption"], str)
        assert all(type(t) is int for t in pair["audio_tokens"])
        for key in ("instruction", "answer"):
            assert isinstance(pair.get(key, ""), str)
