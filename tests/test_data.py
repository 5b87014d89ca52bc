"""Synthetic data generation and file format contracts."""

import json
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np
import pytest

from flowtok.data import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    DatasetFormatError,
    EVENT_NOUNS,
    LatentDataset,
    MetricsLog,
    SyntheticLatentSpec,
    class_pattern,
    config_digest,
    gen_caption,
    gen_latent_dataset,
    load_checkpoint,
    load_latents,
    load_pairs_jsonl,
    read_checkpoint,
    save_checkpoint,
    save_latents,
    save_pairs_jsonl,
)
from flowtok.nn import Linear, Module
from flowtok.tensor import Tensor


class TestSpec:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="2 classes"):
            SyntheticLatentSpec.create(n_classes=1)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="noise_std"):
            SyntheticLatentSpec.create(noise_std=-0.1)

    def test_same_seed_same_parameters(self):
        a = SyntheticLatentSpec.create(seed=7)
        b = SyntheticLatentSpec.create(seed=7)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)
        np.testing.assert_array_equal(a.phases, b.phases)

    def test_bimodal_default_is_last_class(self):
        spec = SyntheticLatentSpec.create(n_classes=4)
        assert spec.bimodal_class == 3

    def test_bimodal_none_disables(self):
        spec = SyntheticLatentSpec.create(bimodal_class=None)
        assert spec.bimodal_class is None


class TestGeneration:
    def test_zero_noise_same_class_identical(self):
        spec = SyntheticLatentSpec.create(noise_std=0.0, bimodal_class=None)
        ds = gen_latent_dataset(spec, n_per_class=2)
        first_class = ds.values[ds.labels == 0]
        np.testing.assert_array_equal(first_class[0], first_class[1])

    def test_zero_noise_matches_class_pattern(self):
        spec = SyntheticLatentSpec.create(noise_std=0.0, bimodal_class=None)
        ds = gen_latent_dataset(spec, n_per_class=1)
        np.testing.assert_array_equal(ds.values[2], class_pattern(spec, 2))

    def test_fixed_seed_bit_identical(self):
        spec = SyntheticLatentSpec.create(seed=3)
        a = gen_latent_dataset(spec, n_per_class=5)
        b = gen_latent_dataset(spec, n_per_class=5)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_prefix_stable_under_larger_count(self):
        """Per-sample substreams: sample i is the same array whether the run
        generates 5 per class or 50."""
        spec = SyntheticLatentSpec.create(n_classes=2, seed=3)
        small = gen_latent_dataset(spec, n_per_class=5)
        large = gen_latent_dataset(spec, n_per_class=50)
        np.testing.assert_array_equal(small.values[:5], large.values[:5])

    def test_splits_differ(self):
        spec = SyntheticLatentSpec.create(seed=3)
        train = gen_latent_dataset(spec, n_per_class=2, split="train")
        val = gen_latent_dataset(spec, n_per_class=2, split="val")
        assert not np.array_equal(train.values, val.values)

    def test_bimodal_sign_split(self):
        spec = SyntheticLatentSpec.create(n_classes=2, frames=4, dim=2,
                                          noise_std=0.0, bimodal_class=1)
        ds = gen_latent_dataset(spec, n_per_class=10_000)
        pattern = class_pattern(spec, 1)
        clips = ds.values[ds.labels == 1]
        pos = int((clips[:, 0, 0] == pattern[0, 0]).sum())
        frac = pos / clips.shape[0]
        assert 0.47 <= frac <= 0.53, f"sign split {frac}"

    def test_nonbimodal_class_single_mode(self):
        spec = SyntheticLatentSpec.create(n_classes=2, noise_std=0.0, bimodal_class=1)
        ds = gen_latent_dataset(spec, n_per_class=20)
        clips = ds.values[ds.labels == 0]
        assert np.array_equal(clips, np.broadcast_to(clips[0], clips.shape))

    def test_values_bounded(self):
        spec = SyntheticLatentSpec.create(seed=11)
        ds = gen_latent_dataset(spec, n_per_class=100)
        bound = spec.amplitudes.max() + 6 * spec.noise_std
        frac_in = float((np.abs(ds.values) <= bound).mean())
        assert frac_in >= 0.9999

    def test_labels_dtype_and_counts(self):
        spec = SyntheticLatentSpec.create(n_classes=3)
        ds = gen_latent_dataset(spec, n_per_class=4)
        assert ds.labels.dtype == np.uint16
        assert ds.values.dtype == np.float32
        assert [int((ds.labels == c).sum()) for c in range(3)] == [4, 4, 4]

    def test_subset_and_len(self):
        spec = SyntheticLatentSpec.create(n_classes=2)
        ds = gen_latent_dataset(spec, n_per_class=3)
        assert len(ds) == 6


class TestLatentFiles:
    def test_round_trip_bitwise(self, tmp_path):
        spec = SyntheticLatentSpec.create(seed=5)
        ds = gen_latent_dataset(spec, n_per_class=3)
        path = tmp_path / "clips.msnl"
        save_latents(path, ds)
        back = load_latents(path)
        np.testing.assert_array_equal(back.values, ds.values)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_save_twice_identical_bytes(self, tmp_path):
        spec = SyntheticLatentSpec.create(seed=5)
        ds = gen_latent_dataset(spec, n_per_class=2)
        a, b = tmp_path / "a.msnl", tmp_path / "b.msnl"
        save_latents(a, ds)
        save_latents(b, ds)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.msnl"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DatasetFormatError, match="not a latent dataset"):
            load_latents(path)

    def test_truncated_rejected(self, tmp_path):
        spec = SyntheticLatentSpec.create()
        ds = gen_latent_dataset(spec, n_per_class=2)
        path = tmp_path / "clip.msnl"
        save_latents(path, ds)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(DatasetFormatError, match="size"):
            load_latents(path)

    def test_bad_version_rejected(self, tmp_path):
        spec = SyntheticLatentSpec.create()
        ds = gen_latent_dataset(spec, n_per_class=1)
        path = tmp_path / "clip.msnl"
        save_latents(path, ds)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="version 99"):
            load_latents(path)


class _TinyModel(Module):
    def __init__(self):
        self.proj = Linear(3, 2, np.random.default_rng(0))
        self.scale = Tensor(np.ones(4), requires_grad=True)


@dataclass
class _InnerConfig:
    rate: float = 0.5


@dataclass
class _TinyConfig:
    width: int = 3
    inner: _InnerConfig = field(default_factory=_InnerConfig)


class _ConfiguredModel(Module):
    """A module with a config, so its checkpoint has a non-empty header."""

    def __init__(self):
        self.cfg = _TinyConfig()
        self.w = Tensor(np.arange(6.0).reshape(2, 3))


def _forge(path, body: bytes) -> None:
    """A current-version checkpoint around body, with a valid CRC."""
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION) + body
                     + struct.pack("<I", zlib.crc32(body)))


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        model = _TinyModel()
        path = tmp_path / "model.msnc"
        save_checkpoint(path, model)
        fresh = _TinyModel()
        fresh.proj.weight.data[:] = 0.0
        load_checkpoint(path, fresh)
        np.testing.assert_array_equal(fresh.proj.weight.data, model.proj.weight.data)
        np.testing.assert_array_equal(fresh.scale.data, model.scale.data)

    def test_save_load_save_byte_identical(self, tmp_path):
        model = _TinyModel()
        a, b = tmp_path / "a.msnc", tmp_path / "b.msnc"
        save_checkpoint(a, model)
        fresh = _TinyModel()
        load_checkpoint(a, fresh)
        save_checkpoint(b, fresh)
        assert a.read_bytes() == b.read_bytes()

    def test_truncation_detected_no_partial_load(self, tmp_path):
        model = _TinyModel()
        path = tmp_path / "model.msnc"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes()[:-9])
        fresh = _TinyModel()
        before = fresh.proj.weight.data.copy()
        with pytest.raises(CheckpointError, match="CRC|corrupt"):
            load_checkpoint(path, fresh)
        np.testing.assert_array_equal(fresh.proj.weight.data, before)

    def test_flipped_payload_byte_detected(self, tmp_path):
        model = _TinyModel()
        path = tmp_path / "model.msnc"
        save_checkpoint(path, model)
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC"):
            read_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        model = _TinyModel()
        path = tmp_path / "model.msnc"
        save_checkpoint(path, model)
        raw = bytearray(path.read_bytes())
        raw[4] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="unsupported version 1"):
            read_checkpoint(path)

    def test_unknown_and_missing_names_listed(self, tmp_path):
        path = tmp_path / "model.msnc"
        stray = Module()
        stray.stray = Tensor(np.ones(2))
        save_checkpoint(path, stray)
        fresh = _TinyModel()
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path, fresh)
        msg = str(err.value)
        assert "stray" in msg and "proj.weight" in msg

    def test_shape_mismatch_named(self, tmp_path):
        model = _TinyModel()
        path = tmp_path / "model.msnc"
        save_checkpoint(path, model)
        fresh = _TinyModel()
        fresh.scale = Tensor(np.ones(9), requires_grad=True)
        with pytest.raises(CheckpointError, match="scale"):
            load_checkpoint(path, fresh)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bogus.msnc"
        path.write_bytes(b"WHAT" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            read_checkpoint(path)

    def test_name_registry_enumeration(self, tmp_path):
        model = _TinyModel()
        path = tmp_path / "model.msnc"
        save_checkpoint(path, model)
        names = set(read_checkpoint(path)[1])
        assert names == {"proj.weight", "proj.bias", "scale"}

    def test_header_is_flat_sorted_config(self, tmp_path):
        path = tmp_path / "model.msnc"
        save_checkpoint(path, _ConfiguredModel())
        raw = path.read_bytes()
        expected = json.dumps({"inner.rate": 0.5, "width": 3}, sort_keys=True).encode()
        assert struct.unpack_from("<I", raw, 8) == (len(expected),)
        assert raw[12:12 + len(expected)] == expected
        config, tensors = read_checkpoint(path)
        assert config == {"inner.rate": 0.5, "width": 3}
        np.testing.assert_array_equal(tensors["w"], np.arange(6.0).reshape(2, 3))

    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "model.msnc"
        save_checkpoint(path, _ConfiguredModel())
        raw = path.read_bytes()
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(CheckpointError):
                read_checkpoint(path)

    def test_every_bit_flip_rejected(self, tmp_path):
        path = tmp_path / "model.msnc"
        save_checkpoint(path, _ConfiguredModel())
        raw = path.read_bytes()
        for bit in range(8 * len(raw)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            with pytest.raises(CheckpointError):
                read_checkpoint(path)

    def test_forged_empty_file_reads(self, tmp_path):
        """The forging helper writes a valid file when its body is."""
        path = tmp_path / "model.msnc"
        _forge(path, struct.pack("<I", 2) + b"{}")
        assert read_checkpoint(path) == ({}, {})

    @pytest.mark.parametrize("body, message", [
        (struct.pack("<I", 1000) + b"{}", "overruns"),
        (struct.pack("<I", 2) + b"\xff\xfe", "utf-8"),
        (struct.pack("<I", 1) + b"{", "malformed header"),
        (struct.pack("<I", 2) + b"[]", "not a JSON object"),
        (b"\x00\x00", "malformed header"),
    ], ids=["length-overrun", "bad-utf8", "bad-json", "json-array", "no-length"])
    def test_crc_valid_malformed_header_rejected(self, tmp_path, body, message):
        path = tmp_path / "model.msnc"
        _forge(path, body)
        with pytest.raises(CheckpointError, match=message):
            read_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        """A write that fails before the rename leaves the old file's bytes
        and no temp file."""
        model = _TinyModel()
        path = tmp_path / "model.msnc"
        save_checkpoint(path, model)
        before = path.read_bytes()
        model.proj.weight.data[:] = 7.0

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.msnc"]


class TestCaptions:
    def test_deterministic_for_fixed_rng(self):
        a = gen_caption(2, np.random.default_rng(0))
        b = gen_caption(2, np.random.default_rng(0))
        assert a == b

    def test_contains_event_noun(self):
        rng = np.random.default_rng(1)
        for label in range(len(EVENT_NOUNS)):
            assert EVENT_NOUNS[label] in gen_caption(label, rng)

    def test_surface_variety(self):
        rng = np.random.default_rng(2)
        forms = {gen_caption(0, rng) for _ in range(100)}
        assert len(forms) >= 3

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="class 99"):
            gen_caption(99, np.random.default_rng(0))

    def test_template_shape(self):
        text = gen_caption(1, np.random.default_rng(3))
        words = text.split()
        assert words[0] == "A" and words[3] == "is" and len(words) == 5

    def test_ascii_byte_range(self):
        rng = np.random.default_rng(4)
        for label in range(len(EVENT_NOUNS)):
            раw = gen_caption(label, rng).encode("utf-8")
            assert all(b < 128 for b in раw)


class TestPairsJsonl:
    def test_round_trip(self, tmp_path):
        pairs = [
            {"caption": "A loud drum is playing", "audio_tokens": [3, 1, 4], "label": 1},
            {"caption": "A gentle chime is fading", "audio_tokens": [2, 7],
             "instruction": "Describe this audio.", "answer": "A gentle chime is fading"},
        ]
        path = tmp_path / "pairs.jsonl"
        save_pairs_jsonl(path, pairs)
        assert load_pairs_jsonl(path) == pairs

    def test_write_twice_identical(self, tmp_path):
        pairs = [{"caption": "x", "audio_tokens": [1]}]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_pairs_jsonl(a, pairs)
        save_pairs_jsonl(b, pairs)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"caption": "no tokens"}\n')
        with pytest.raises(DatasetFormatError, match="audio_tokens"):
            load_pairs_jsonl(path)

    def test_invalid_json_line_numbered(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"caption": "ok", "audio_tokens": []}\n{oops\n')
        with pytest.raises(DatasetFormatError, match=":2"):
            load_pairs_jsonl(path)

    @pytest.mark.parametrize("line", ["5", "null", "true"])
    def test_non_object_line_rejected(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"caption": "ok", "audio_tokens": []}\n' + line + "\n")
        with pytest.raises(DatasetFormatError, match=r"bad\.jsonl:2: expected a JSON object"):
            load_pairs_jsonl(path)

    def test_invalid_utf8_line_numbered(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"caption": "ok", "audio_tokens": []}\n'
                         b'{"caption": "\xff", "audio_tokens": [1]}\n')
        with pytest.raises(DatasetFormatError, match=r"bad\.jsonl:2: not valid UTF-8"):
            load_pairs_jsonl(path)

    @pytest.mark.parametrize("field, value", [
        ("caption", 5), ("caption", None), ("instruction", 7), ("answer", ["a"])])
    def test_non_string_text_field_rejected(self, tmp_path, field, value):
        pair = {"caption": "ok", "audio_tokens": [1, 2], field: value}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(pair) + "\n")
        with pytest.raises(DatasetFormatError, match=rf"bad\.jsonl:1: {field} is not a string"):
            load_pairs_jsonl(path)

    @pytest.mark.parametrize("field", ["caption", "instruction", "answer"])
    def test_lone_surrogate_rejected(self, tmp_path, field):
        """A JSON escape can spell a lone surrogate: a str, but not UTF-8."""
        pair = {"caption": "ok", "audio_tokens": [1, 2], field: "a \ud800 b"}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(pair) + "\n")
        with pytest.raises(DatasetFormatError, match=rf"bad\.jsonl:1: {field} is not valid Unicode"):
            load_pairs_jsonl(path)

    @pytest.mark.parametrize("tokens", ["ab", [1.5, 2], [True, 2], [1, None], {"0": 1}, 3])
    def test_audio_tokens_must_be_int_list(self, tmp_path, tokens):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"caption": "ok", "audio_tokens": tokens}) + "\n")
        with pytest.raises(DatasetFormatError, match=r"bad\.jsonl:1: audio_tokens is not a list"):
            load_pairs_jsonl(path)

    def test_deeply_nested_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[" * 100_000 + "\n")
        with pytest.raises(DatasetFormatError, match=r"bad\.jsonl:1: invalid JSON"):
            load_pairs_jsonl(path)


class TestMetrics:
    def test_csv_layout(self, tmp_path):
        log = MetricsLog()
        log.add(0, "train", "loss", 1.5)
        log.add(1, "train", "loss", 1.25)
        path = tmp_path / "metrics.csv"
        log.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,split,metric,value"
        assert lines[1] == "0,train,loss,1.5"

    def test_csv_deterministic_bytes(self, tmp_path):
        def build():
            log = MetricsLog()
            log.add(0, "train", "loss", 0.1 + 0.2)
            return log
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        build().write_csv(a)
        build().write_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_value_round_trips_exactly(self, tmp_path):
        log = MetricsLog()
        log.add(3, "val", "mse", 0.1 + 0.2)
        path = tmp_path / "metrics.csv"
        log.write_csv(path)
        cell = path.read_text().strip().splitlines()[1].split(",")[3]
        assert float(cell) == 0.1 + 0.2

    def test_json_rows_equal_added_rows(self, tmp_path):
        log = MetricsLog()
        log.add(0, "train", "loss", 2.0)
        log.add(5, "train", "loss", 0.5)
        path = tmp_path / "summary.json"
        log.write_json(path, seed=7)
        payload = json.loads(path.read_text())
        assert payload["rows"] == [
            {"step": 0, "split": "train", "metric": "loss", "value": 2.0},
            {"step": 5, "split": "train", "metric": "loss", "value": 0.5}]
        assert payload["seed"] == 7

    def test_columns_name_the_csv_header_and_json_keys(self, tmp_path):
        log = MetricsLog(("split", "model", "metric", "value"))
        log.add("val", "fm", "recon_mse", 1)
        log.write_csv(tmp_path / "eval.csv")
        log.write_json(tmp_path / "eval.json")
        assert (tmp_path / "eval.csv").read_text().splitlines() == [
            "split,model,metric,value", "val,fm,recon_mse,1.0"]
        assert json.loads((tmp_path / "eval.json").read_text())["rows"] == [
            {"split": "val", "model": "fm", "metric": "recon_mse", "value": 1.0}]


class TestConfigDigest:
    def test_order_independent(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})

    def test_value_sensitive(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_hex_string(self):
        digest = config_digest({"x": 1})
        assert len(digest) == 16
        int(digest, 16)
