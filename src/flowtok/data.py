"""Synthetic latent generation, binary formats, captions, and the one
metrics table (MetricsLog: training curves and `flowtok eval` rows alike,
as CSV and as a JSON rows list).

Formats (all little-endian):

  latent dataset  magic "MSNL", u32 version=1, u32 count, u32 T, u32 D,
                  count*T*D float32 values, then count u16 class labels.

  checkpoint      magic "MSNC", u32 version=2, u32 header length, a UTF-8
                  JSON header (the model's cfg as sorted flat dotted keys,
                  {} without one), then one record per tensor: u16 name
                  length, UTF-8 name, u8 ndim, u32 per dim, float32
                  payload; a trailing u32 CRC-32 covers every byte between
                  the version field and the CRC, so truncation at any
                  offset is detected. Records end when four bytes remain.

Synthetic clips are damped sinusoids with per-class frequency, amplitude,
damping, and phase profiles, which keeps classes linearly separable. One
designated class is bimodal: it emits its pattern with a random sign, so
the same underlying content maps to two opposite targets.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .nn import Module

LATENT_MAGIC = b"MSNL"
CHECKPOINT_MAGIC = b"MSNC"
LATENT_VERSION = 1
CHECKPOINT_VERSION = 2


class CheckpointError(RuntimeError):
    """Checkpoint file unreadable, corrupt, or inconsistent with the model."""


class DatasetFormatError(RuntimeError):
    """Latent dataset or caption/token pairs file unreadable or malformed."""


# ----------------------------------------------------------------------
# synthetic latents


@dataclass
class SyntheticLatentSpec:
    """Per-class damped-sinusoid parameters, derived deterministically from seed."""

    n_classes: int
    frames: int
    dim: int
    noise_std: float
    seed: int
    bimodal_class: int | None
    frequencies: np.ndarray = field(repr=False)
    amplitudes: np.ndarray = field(repr=False)
    damping: np.ndarray = field(repr=False)
    phases: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, n_classes: int = 4, frames: int = 32, dim: int = 16,
               noise_std: float = 0.05, seed: int = 0,
               bimodal_class: int | None = -1) -> "SyntheticLatentSpec":
        """bimodal_class -1 designates the last class; None disables bimodality."""
        if n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {n_classes}")
        if noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if bimodal_class is not None:
            bimodal_class = bimodal_class % n_classes
        rng = np.random.default_rng(seed)
        return cls(
            n_classes=n_classes,
            frames=frames,
            dim=dim,
            noise_std=noise_std,
            seed=seed,
            bimodal_class=bimodal_class,
            frequencies=rng.uniform(1.0, 8.0, size=(n_classes, dim)),
            amplitudes=rng.uniform(0.5, 1.5, size=(n_classes, dim)),
            damping=rng.uniform(0.5, 3.0, size=(n_classes, dim)),
            phases=rng.uniform(0.0, 2.0 * np.pi, size=(n_classes, dim)),
        )


def class_pattern(spec: SyntheticLatentSpec, label: int) -> np.ndarray:
    """Noise-free (frames, dim) pattern for one class."""
    if not 0 <= label < spec.n_classes:
        raise ValueError(f"class {label} outside [0, {spec.n_classes})")
    t = (np.arange(spec.frames) / spec.frames)[:, None]
    wave = np.sin(2.0 * np.pi * spec.frequencies[label] * t + spec.phases[label])
    envelope = np.exp(-spec.damping[label] * t)
    return (spec.amplitudes[label] * wave * envelope).astype(np.float32)


@dataclass
class LatentDataset:
    values: np.ndarray   # (N, frames, dim) float32
    labels: np.ndarray   # (N,) uint16

    def __len__(self) -> int:
        return self.values.shape[0]


def gen_latent_dataset(spec: SyntheticLatentSpec, n_per_class: int,
                       split: str = "train") -> LatentDataset:
    """Clips are generated from independent per-sample substreams keyed by
    (seed, split, class, index), so any subset is reproducible bit-for-bit
    and generation order cannot matter."""
    split_key = zlib.crc32(split.encode())
    patterns = [class_pattern(spec, c) for c in range(spec.n_classes)]
    values = np.empty((spec.n_classes * n_per_class, spec.frames, spec.dim), dtype=np.float32)
    labels = np.empty(spec.n_classes * n_per_class, dtype=np.uint16)
    row = 0
    for c in range(spec.n_classes):
        for i in range(n_per_class):
            rng = np.random.default_rng(np.random.SeedSequence((spec.seed, split_key, c, i)))
            sign = 1.0
            if spec.bimodal_class == c:
                sign = 1.0 if rng.random() < 0.5 else -1.0
            noise = rng.standard_normal((spec.frames, spec.dim))
            values[row] = sign * patterns[c] + spec.noise_std * noise.astype(np.float32)
            labels[row] = c
            row += 1
    return LatentDataset(values, labels)


# ----------------------------------------------------------------------
# latent dataset file format


def save_latents(path, dataset: LatentDataset) -> None:
    values = np.ascontiguousarray(dataset.values, dtype="<f4")
    labels = np.ascontiguousarray(dataset.labels, dtype="<u2")
    n, frames, dim = values.shape
    with open(path, "wb") as f:
        f.write(LATENT_MAGIC)
        f.write(struct.pack("<IIII", LATENT_VERSION, n, frames, dim))
        f.write(values.tobytes())
        f.write(labels.tobytes())


def load_latents(path) -> LatentDataset:
    raw = Path(path).read_bytes()
    if len(raw) < 20 or raw[:4] != LATENT_MAGIC:
        raise DatasetFormatError(f"{path}: not a latent dataset file")
    version, n, frames, dim = struct.unpack_from("<IIII", raw, 4)
    if version != LATENT_VERSION:
        raise DatasetFormatError(f"{path}: unsupported version {version}")
    expected = 20 + 4 * n * frames * dim + 2 * n
    if len(raw) != expected:
        raise DatasetFormatError(f"{path}: size {len(raw)} != expected {expected}")
    values = np.frombuffer(raw, dtype="<f4", count=n * frames * dim, offset=20)
    labels = np.frombuffer(raw, dtype="<u2", count=n, offset=20 + 4 * n * frames * dim)
    return LatentDataset(values.reshape(n, frames, dim).copy(), labels.copy())


# ----------------------------------------------------------------------
# checkpoints


# Resolving string annotations costs far more than the walk; once per class.
_type_hints = cache(get_type_hints)


def _fields(cfg, prefix: str = ""):
    """(dotted key, declared type, value) of every leaf field of a config
    dataclass, e.g. `encoder.n_blocks`."""
    hints = _type_hints(type(cfg))
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            yield from _fields(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, hints[f.name], value


def _flatten(cfg) -> dict:
    """A config dataclass as flat dotted keys, e.g. `encoder.n_blocks`."""
    return {key: value for key, _, value in _fields(cfg)}


def _build(cls, flat: dict, prefix: str = "", default=None):
    """Inverse of _flatten: a cls whose fields come from flat's dotted keys.

    Missing keys keep the default instance's value (cls() at the top, its
    own nested config below), and keys cls lacks are ignored."""
    default = cls() if default is None else default
    changes = {}
    for f in fields(cls):
        value = getattr(default, f.name)
        key = prefix + f.name
        if is_dataclass(value):
            changes[f.name] = _build(type(value), flat, key + ".", value)
        elif key in flat:
            changes[f.name] = flat[key]
    return replace(default, **changes)


def save_checkpoint(path, model: Module) -> None:
    """Write model's config header and tensors to path atomically: the
    bytes go to a sibling temp file, are fsynced, then renamed over path,
    so a crash or error at any point leaves the previous file whole and no
    temp file behind."""
    cfg = getattr(model, "cfg", None)
    header = json.dumps({} if cfg is None else _flatten(cfg), sort_keys=True).encode("utf-8")
    chunks: list[bytes] = [struct.pack("<I", len(header)), header]
    for name, t in model.named_tensors():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: {name[:40]}...")
        arr = np.asarray(t.data, dtype="<f4", order="C")
        if arr.ndim > 0xFF:
            raise CheckpointError(f"{name}: ndim {arr.ndim} exceeds format limit")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    body = b"".join(chunks)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(body)
            f.write(struct.pack("<I", crc))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse and CRC-verify; returns (config, tensors): the header's flat
    config dict and name -> float32 array. Fails atomically: either the
    whole file parses or nothing is returned."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    end = len(raw) - 4
    (stored_crc,) = struct.unpack_from("<I", raw, end)
    records = memoryview(raw)[:end]
    if zlib.crc32(records[8:]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"{path}: CRC mismatch, file corrupt or truncated")
    try:
        off = 12 + struct.unpack_from("<I", records, 8)[0]
        if off > end:
            raise ValueError("header length overruns the file")
        config = json.loads(bytes(records[12:off]).decode("utf-8"))
        if not isinstance(config, dict):
            raise ValueError("header is not a JSON object")
    except (struct.error, ValueError, RecursionError) as e:
        raise CheckpointError(f"{path}: malformed header: {e}") from e
    tensors: dict[str, np.ndarray] = {}
    while off < end:
        try:
            (name_len,) = struct.unpack_from("<H", records, off)
            off += 2
            name = bytes(records[off:off + name_len]).decode("utf-8")
            off += name_len
            (ndim,) = struct.unpack_from("<B", records, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}I", records, off)
            off += 4 * ndim
            count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
            payload = np.frombuffer(records, dtype="<f4", count=count, offset=off)
            off += 4 * count
        except (struct.error, ValueError) as e:
            raise CheckpointError(f"{path}: truncated or malformed record at offset {off}") from e
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate tensor name {name!r}")
        tensors[name] = payload.reshape(shape).copy()
    return config, tensors


def load_tensors(path, tensors: dict[str, np.ndarray], model: Module) -> None:
    """Copy tensors read from path into model. Name sets must match
    exactly; mismatches are reported with the offending names listed."""
    expected = {name: t for name, t in model.named_tensors()}
    unknown = sorted(set(tensors) - set(expected))
    missing = sorted(set(expected) - set(tensors))
    if unknown or missing:
        raise CheckpointError(
            f"{path}: name mismatch; unknown in file: {unknown or 'none'}, "
            f"missing from file: {missing or 'none'}"
        )
    for name, arr in tensors.items():
        target = expected[name]
        if tuple(arr.shape) != tuple(target.shape):
            raise CheckpointError(
                f"{path}: {name} has shape {arr.shape}, model expects {target.shape}"
            )
    for name, arr in tensors.items():
        target = expected[name]
        target.data = arr.astype(target.dtype, copy=False)


def load_checkpoint(path, model: Module) -> None:
    """Load path's tensors into an existing model (see load_tensors); the
    header's config is not compared."""
    load_tensors(path, read_checkpoint(path)[1], model)


# ----------------------------------------------------------------------
# captions and text pairs

EVENT_NOUNS = ["chime", "drum", "siren", "wave", "motor", "bell",
               "flute", "organ", "horn", "pulse"]
ADJECTIVES = ["gentle", "loud", "distant", "bright", "muffled", "steady"]
VERBS = ["ringing", "playing", "fading", "humming", "swelling"]
INSTRUCTIONS = ["What sound is in this clip?", "Describe this audio.",
                "Name the sound you hear."]


def gen_caption(label: int, rng: np.random.Generator) -> str:
    """Template caption; the event noun identifies the class."""
    if not 0 <= label < len(EVENT_NOUNS):
        raise ValueError(f"no event noun for class {label}")
    adj = ADJECTIVES[rng.integers(0, len(ADJECTIVES))]
    verb = VERBS[rng.integers(0, len(VERBS))]
    return f"A {adj} {EVENT_NOUNS[label]} is {verb}"


def save_pairs_jsonl(path, pairs: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for obj in pairs:
            f.write(json.dumps(obj, sort_keys=True) + "\n")


def load_pairs_jsonl(path) -> list[dict]:
    """One JSON object per non-blank UTF-8 line: a string caption, a list
    of int audio_tokens and, when present, a string instruction and answer,
    each string encodable as UTF-8 (a lone surrogate escape is not).
    Anything else raises DatasetFormatError naming path:line."""
    pairs = []
    with open(path, "rb") as f:
        for line_no, raw in enumerate(f, 1):
            where = f"{path}:{line_no}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise DatasetFormatError(f"{where}: not valid UTF-8") from e
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as e:
                raise DatasetFormatError(f"{where}: invalid JSON") from e
            if not isinstance(obj, dict):
                raise DatasetFormatError(f"{where}: expected a JSON object")
            if "caption" not in obj or "audio_tokens" not in obj:
                raise DatasetFormatError(f"{where}: missing caption or audio_tokens")
            for key in ("caption", "instruction", "answer"):
                if key not in obj:
                    continue
                if not isinstance(obj[key], str):
                    raise DatasetFormatError(f"{where}: {key} is not a string")
                try:
                    obj[key].encode("utf-8")
                except UnicodeEncodeError as e:
                    raise DatasetFormatError(f"{where}: {key} is not valid Unicode") from e
            tokens = obj["audio_tokens"]
            # JSON gives int, float or bool; bool is an int subclass.
            if not isinstance(tokens, list) or not all(type(t) is int for t in tokens):
                raise DatasetFormatError(f"{where}: audio_tokens is not a list of ints")
            pairs.append(obj)
    return pairs


# ----------------------------------------------------------------------
# metrics


class MetricsLog:
    """One table of rows under `columns`, the last column a float value:
    (step, split, metric, value) for training curves, (split, model,
    metric, value) for `flowtok eval`.

    The CSV carries no timestamps or environment data, so identical runs
    produce identical bytes; run metadata lives only in the JSON."""

    def __init__(self, columns: tuple[str, ...] = ("step", "split", "metric", "value")):
        self.columns = columns
        self.rows: list[tuple] = []

    def add(self, *row) -> None:
        self.rows.append((*row[:-1], float(row[-1])))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(self.columns)
            for *keys, value in self.rows:
                writer.writerow([*keys, repr(value)])

    def write_json(self, path, **metadata) -> None:
        rows = [dict(zip(self.columns, row)) for row in self.rows]
        write_json(path, {"rows": rows, **metadata})


def write_json(path, payload: dict) -> None:
    """payload as indented JSON with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def config_digest(config: dict) -> str:
    """Stable hash of a flat configuration dict."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
