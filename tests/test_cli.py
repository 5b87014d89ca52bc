"""Exit codes, config plumbing, and artifact layout of the command line."""

import json
import os
import shlex
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from flowtok.cli import (
    DECODE_DEFAULTS,
    GEN_DATA_DEFAULTS,
    REPORT_DEFAULTS,
    SEED_DEFAULTS,
    TRAIN_LM_DEFAULTS,
    TRAIN_TOKENIZER_DEFAULTS,
    _build,
    _flatten,
    _load_config,
    _load_tokenizer,
    build_parser,
    main,
)
from flowtok.data import (
    LatentDataset,
    gen_caption,
    load_latents,
    read_checkpoint,
    save_checkpoint,
    save_latents,
    save_pairs_jsonl,
)
from flowtok.flow import DitDecoder
from flowtok.lm import FusionConfig, LmTrainConfig
from flowtok.nn import TransformerConfig
from flowtok.pipeline import TokenizerConfig, TokenizerModel

TINY_TOKENIZER = [
    "--set", "codebook_size=16", "--set", "code_dim=8",
    "--set", "encoder.n_blocks=1", "--set", "encoder.hidden_dim=32",
    "--set", "encoder.head_dim=16",
    "--set", "decoder.n_blocks=1", "--set", "decoder.hidden_dim=32",
    "--set", "decoder.head_dim=16",
    "--set", "timestep_dim=16", "--set", "epochs=1", "--set", "batch_size=8",
    "--set", "flow.n_sample_steps=2",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny end-to-end run shared by the artifact tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen-data", "--out", str(data), "--set", "frames=8",
                 "--set", "dim=4", "--set", "n_per_class=4"]) == 0
    for objective in ("fm", "mse"):
        code = main(["train-tokenizer", "--objective", objective,
                     "--data", str(data / "train.msnl"),
                     "--out", str(root / objective), *TINY_TOKENIZER])
        assert code == 0
    assert main(["encode", "--checkpoint", str(root / "fm" / "tokenizer.msnc"),
                 "--data", str(data / "train.msnl"),
                 "--out", str(root / "enc")]) == 0
    return root


@pytest.fixture(scope="module")
def small_lm(workspace):
    """A one-block fusion LM with 128 text ids and max_len 48, pretrained on
    the workspace pairs (their captions are ASCII)."""
    out = workspace / "lm48"
    assert main(["train-lm", "--stage", "pretrain",
                 "--pairs", str(workspace / "enc" / "pairs.jsonl"), "--out", str(out),
                 "--set", "n_audio=16", "--set", "max_len=48", "--set", "v_text=128",
                 "--set", "hidden_dim=32", "--set", "head_dim=16",
                 "--set", "n_blocks=1", "--set", "epochs=1"]) == 0
    return out / "lm.msnc"


@dataclass
class _WeightedCodebookConfig(TokenizerConfig):
    """TokenizerConfig as checkpoint headers held it while the codebook
    loss still had a weight."""

    codebook_loss_weight: float = 1.0


def _write_npz(path):
    with path.open("wb") as f:
        np.savez(f, tokens=np.zeros((2, 8), int))


class TestExitCodes:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_subcommand_help_exits_zero(self):
        assert main(["train-tokenizer", "--help"]) == 0

    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["gen-data", "--bogus"]) == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path), "--set", "nope=1"]) == 1

    def test_malformed_override_is_usage_error(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path), "--set", "frames"]) == 1

    def test_missing_input_is_runtime_error(self, tmp_path):
        code = main(["eval", "--checkpoint", "fm=/nonexistent.msnc",
                     "--data", "val=/nonexistent.msnl",
                     "--out", str(tmp_path / "r")])
        assert code == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1


class TestConfigPlumbing:
    def test_resolved_config_records_seed_and_digest(self, workspace):
        resolved = json.loads((workspace / "data" / "gen-data-config.json").read_text())
        assert resolved["command"] == "gen-data"
        assert resolved["seed"] == 0
        assert resolved["frames"] == 8
        assert len(resolved["digest"]) == 16

    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frames": 4, "dim": 2, "n_per_class": 2,
                                   "splits": "train"}))
        assert main(["gen-data", "--out", str(tmp_path / "d"),
                     "--config", str(cfg)]) == 0
        from flowtok.data import load_latents
        ds = load_latents(tmp_path / "d" / "train.msnl")
        assert ds.values.shape == (8, 4, 2)

    def test_config_file_with_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"framez": 4}))
        assert main(["gen-data", "--out", str(tmp_path / "d"),
                     "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("raw", [b"{bad", b'{"frames": "\xff"}'], ids=["not_json", "not_utf8"])
    def test_config_file_that_is_not_utf8_json_rejected(self, tmp_path, capsys, raw):
        """A config file JSON cannot read is a usage error, exit 1, naming
        the file."""
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(raw)
        assert main(["gen-data", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config file {cfg} is not UTF-8 JSON: ")
        assert not (tmp_path / "d").exists()

    def test_override_beats_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"splits": "train", "n_per_class": 2}))
        assert main(["gen-data", "--out", str(tmp_path / "d"),
                     "--config", str(cfg), "--set", "n_per_class=3"]) == 0
        from flowtok.data import load_latents
        assert len(load_latents(tmp_path / "d" / "train.msnl")) == 12

    def test_derived_defaults_pinned(self):
        """The config surface derived from the dataclasses: every key and
        default the commands accept."""
        assert TRAIN_TOKENIZER_DEFAULTS == {
            "code_dim": 16, "codebook_size": 256,
            "encoder.n_blocks": 2, "encoder.hidden_dim": 128, "encoder.head_dim": 32,
            "decoder.n_blocks": 2, "decoder.hidden_dim": 128, "decoder.head_dim": 32,
            "flow.sigma_min": 1e-4, "flow.n_sample_steps": 16, "timestep_dim": 64,
            "lr": 1e-4, "weight_decay": 0.01, "epochs": 10, "batch_size": 16,
            "commitment_weight": 0.25, "seed": 0,
        }
        assert TRAIN_LM_DEFAULTS == {
            "v_text": 256, "n_blocks": 4, "hidden_dim": 128, "head_dim": 32,
            "max_len": 512, "lora_rank": 8, "lora_alpha": 16.0,
            "n_audio": 256, "lr": 1e-3, "weight_decay": 0.01, "epochs": 10,
            "batch_size": 8, "z_coeff": 1e-4, "seed": 0, "checkpoint": None,
        }
        assert REPORT_DEFAULTS == {
            "tokens_per_clip": 215, "clip_seconds": 10.0, "codebook_size": 8196,
        }
        assert GEN_DATA_DEFAULTS == {
            "n_classes": 4, "frames": 32, "dim": 16, "noise_std": 0.05,
            "bimodal_class": -1, "n_per_class": 16, "splits": "train,val", "seed": 0,
        }

    @pytest.mark.parametrize("cfg", [
        TokenizerConfig(frames=215, data_dim=64, code_dim=64, codebook_size=8196,
                        encoder=TransformerConfig(n_blocks=12, hidden_dim=768, head_dim=64,
                                                  causal=True, max_len=215),
                        decoder=TransformerConfig(n_blocks=12, hidden_dim=768, head_dim=64,
                                                  max_len=215),
                        epochs=75),
        FusionConfig(v_text=128, n_blocks=2, hidden_dim=64, head_dim=16, max_len=64,
                     lora_rank=4, lora_alpha=8.0),
        LmTrainConfig(lr=3e-4, weight_decay=0.0, epochs=3, batch_size=2, z_coeff=0.0,
                      seed=7),
    ], ids=["tokenizer-paper", "fusion", "lm-train"])
    def test_build_inverts_flatten(self, cfg):
        assert _build(type(cfg), _flatten(cfg)) == cfg

    @pytest.mark.parametrize("command, key", [
        ("gen-data", "nope"),
        ("train-tokenizer", "encoder.bogus"),
        # Set from the data, or not a field at all.
        ("train-tokenizer", "encoder.max_len"),
        ("train-tokenizer", "flow.objective"),
        ("train-lm", "transformer"),
        # The codebook loss is unweighted; its weight is no longer a key.
        ("train-tokenizer", "codebook_loss_weight"),
    ])
    def test_unknown_set_key_rejected(self, capsys, command, key):
        """Exit 1 before any input is read; an accepted key would fail on
        the missing input with exit 2."""
        inputs = {"gen-data": [],
                  "train-tokenizer": ["--objective", "fm", "--data", "missing"],
                  "train-lm": ["--stage", "pretrain", "--pairs", "missing"]}[command]
        assert main([command, *inputs, "--out", "unused", "--set", f"{key}=1"]) == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("source, key, raw, code", [
        ("set", "epochs", "true", 1),
        ("set", "epochs", "2.5", 1),
        ("set", "epochs", '"3"', 1),
        ("set", "lr", '"abc"', 1),
        ("set", "lr", "false", 1),
        ("config", "epochs", "2.5", 1),
        ("config", "lr", '"abc"', 1),
        # JSON's NaN and Infinity parse to floats; a float key must be finite.
        *[(source, "lr", raw, 1) for source in ("set", "config")
          for raw in ("NaN", "Infinity", "-Infinity")],
        # An int is a float; it passes and the missing data exits 2.
        ("set", "lr", "1", 2),
    ])
    def test_wrong_value_type_rejected(self, tmp_path, capsys, source, key, raw, code):
        """Exit 1 naming the key before any input is read."""
        if source == "set":
            given = ["--set", f"{key}={raw}"]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(f'{{"{key}": {raw}}}')
            given = ["--config", str(path)]
        assert main(["train-tokenizer", "--objective", "fm", "--data", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "out"), *given]) == code
        if code == 1:
            assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, raw, code", [
        ("gen-data", "n_classes", "null", 1),
        ("gen-data", "splits", "5", 1),
        ("train-tokenizer", "epochs", "null", 1),
        ("decode", "n_steps", "true", 1),
        ("decode", "n_steps", "2.5", 1),
        ("train-lm", "checkpoint", "5", 1),
        # Every int key but a seed or a class index is a count of at least 1.
        ("train-tokenizer", "epochs", "0", 1),
        ("train-tokenizer", "batch_size", "0", 1),
        ("train-lm", "epochs", "0", 1),
        ("train-lm", "lora_rank", "-2", 1),
        ("gen-data", "n_per_class", "-1", 1),
        ("decode", "n_steps", "0", 1),
        ("gen-data", "noise_std", "NaN", 1),
        ("report", "clip_seconds", "NaN", 1),
        # null fits an optional key, an int a float, a seed any int from 0
        # and a class index any int; gen-data then runs, and the other
        # commands exit 2 on their missing input.
        ("gen-data", "bimodal_class", "null", 0),
        ("gen-data", "bimodal_class", "-2", 0),
        ("gen-data", "seed", "0", 0),
        ("decode", "n_steps", "null", 2),
        ("train-tokenizer", "flow.sigma_min", "0", 2),
    ])
    def test_value_outside_declared_type_rejected(self, tmp_path, capsys, command, key, raw,
                                                  code):
        """A key's type is its declaration's annotation and a count is at
        least 1: exit 1 naming the key before any input is read."""
        missing = str(tmp_path / "missing")
        inputs = {"gen-data": [], "report": [],
                  "train-tokenizer": ["--objective", "fm", "--data", missing],
                  "decode": ["--checkpoint", missing, "--tokens", missing],
                  "train-lm": ["--stage", "pretrain", "--pairs", missing]}[command]
        assert main([command, *inputs, "--out", str(tmp_path / "out"),
                     "--set", f"{key}={raw}"]) == code
        if code == 1:
            assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-data", "train-tokenizer", "encode", "decode",
                                         "train-lm", "generate", "eval"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        """Every seeded command exits 1 naming the key before any input is
        read."""
        missing = str(tmp_path / "missing")
        inputs = {"gen-data": [],
                  "train-tokenizer": ["--objective", "fm", "--data", missing],
                  "encode": ["--checkpoint", missing, "--data", missing],
                  "decode": ["--checkpoint", missing, "--tokens", missing],
                  "train-lm": ["--stage", "pretrain", "--pairs", missing],
                  "generate": ["--checkpoint", missing, "--prompt", "a hum"],
                  "eval": ["--checkpoint", f"a={missing}", "--data", f"val={missing}"]}[command]
        assert main([command, *inputs, "--out", str(tmp_path / "out"),
                     "--set", "seed=-1"]) == 1
        assert capsys.readouterr().err == "error: config key 'seed' must be at least 0, got -1\n"

    def test_every_default_fits_its_declared_type(self):
        for defaults in (GEN_DATA_DEFAULTS, TRAIN_TOKENIZER_DEFAULTS, SEED_DEFAULTS,
                         DECODE_DEFAULTS, TRAIN_LM_DEFAULTS, REPORT_DEFAULTS):
            assert _load_config(defaults, None, []) == defaults

    def test_gen_data_refuses_classes_captions_cannot_name(self, tmp_path, capsys):
        """encode captions each class with its own event noun; there are 10."""
        assert main(["gen-data", "--out", str(tmp_path / "d"), "--set", "n_classes=11"]) == 1
        assert "10 classes" in capsys.readouterr().err
        assert main(["gen-data", "--out", str(tmp_path / "d"), "--set", "n_classes=10",
                     "--set", "n_per_class=1", "--set", "splits=train"]) == 0
        labels = load_latents(tmp_path / "d" / "train.msnl").labels
        assert sorted(labels.tolist()) == list(range(10))
        for label in labels.tolist():
            gen_caption(label, np.random.default_rng(0))

    @pytest.mark.parametrize("command, setting, problem, code", [
        ("gen-data", "n_classes=1", "need at least 2 classes, got 1", 1),
        ("gen-data", "noise_std=-1", "noise_std must be non-negative", 1),
        ("report", "clip_seconds=0", "clip_seconds", 1),
        ("report", "clip_seconds=-5", "clip_seconds", 1),
        ("train-tokenizer", "encoder.head_dim=5", "head_dim 5", 1),
        ("train-tokenizer", "flow.sigma_min=1.0", "sigma_min must be in [0, 1)", 1),
        # Refused while the model is built, not its config.
        ("train-tokenizer", "timestep_dim=3", "must be even, got 3", 1),
        ("train-lm", "head_dim=5", "head_dim 5", 1),
        # Edge values the library takes.
        ("gen-data", "n_classes=2", None, 0),
        ("train-tokenizer", "flow.sigma_min=0", None, 0),
    ])
    def test_setting_the_library_refuses_is_usage_error(self, workspace, tmp_path, capsys,
                                                        command, setting, problem, code):
        """A ValueError raised while a command builds its config objects or
        its model exits 1 and names the problem."""
        given = {"gen-data": ["--set", "n_per_class=1", "--set", "splits=train",
                              "--set", "frames=8", "--set", "dim=4"],
                 "report": [],
                 "train-tokenizer": ["--objective", "fm",
                                     "--data", str(workspace / "data" / "train.msnl"),
                                     *TINY_TOKENIZER],
                 "train-lm": ["--stage", "pretrain",
                              "--pairs", str(workspace / "enc" / "pairs.jsonl")]}[command]
        out = tmp_path / ("out.json" if command == "report" else "out")
        assert main([command, *given, "--out", str(out), "--set", setting]) == code
        if problem is not None:
            err = capsys.readouterr().err
            assert "invalid setting" in err and problem in err

    def test_set_parses_json_values(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path), "--set", "noise_std=0.0",
                     "--set", "bimodal_class=null", "--set", "splits=train",
                     "--set", "n_per_class=2"]) == 0
        resolved = json.loads((tmp_path / "gen-data-config.json").read_text())
        assert resolved["noise_std"] == 0.0
        assert resolved["bimodal_class"] is None


class TestReadme:
    def test_walkthrough_commands_parse(self):
        """Every `flowtok` line of README's CLI walkthrough names commands,
        flags and config keys the parser accepts."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI walkthrough", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line, comments=True)
                    for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("flowtok ")]
        assert len(commands) >= 10
        for argv in commands:
            try:
                args = build_parser().parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README walkthrough line does not parse: {shlex.join(argv)}")
            _load_config(args.defaults, None, args.overrides)


class TestArtifacts:
    def test_gen_data_writes_each_split(self, workspace):
        assert (workspace / "data" / "train.msnl").is_file()
        assert (workspace / "data" / "val.msnl").is_file()

    def test_tokenizer_checkpoint_header(self, workspace):
        """The checkpoint's header holds the whole TokenizerConfig; no
        other file describes the model."""
        for objective in ("fm", "mse"):
            assert sorted(p.name for p in (workspace / objective).glob("tokenizer*")) == [
                "tokenizer.msnc"]
            header, _ = read_checkpoint(workspace / objective / "tokenizer.msnc")
            assert header["objective"] == objective
            assert header["frames"] == header["encoder.max_len"] == 8
            assert header["data_dim"] == 4
            assert set(header) == set(_flatten(TokenizerConfig()))

    def test_checkpoint_copied_alone_loads(self, workspace, tmp_path):
        """A checkpoint copied alone into an empty directory rebuilds the
        same model: encode gives the same tokens."""
        alone = tmp_path / "alone"
        alone.mkdir()
        (alone / "tokenizer.msnc").write_bytes((workspace / "fm" / "tokenizer.msnc").read_bytes())
        assert main(["encode", "--checkpoint", str(alone / "tokenizer.msnc"),
                     "--data", str(workspace / "data" / "train.msnl"),
                     "--out", str(tmp_path / "enc")]) == 0
        np.testing.assert_array_equal(np.load(tmp_path / "enc" / "tokens.npy"),
                                      np.load(workspace / "enc" / "tokens.npy"))

    def test_checkpoint_with_a_codebook_loss_weight_loads(self, workspace, tmp_path):
        """A header that still carries `codebook_loss_weight` loads, the
        key ignored, and decodes byte for byte as the same tensors do under
        today's header."""
        current = workspace / "fm" / "tokenizer.msnc"
        model = _load_tokenizer(current)
        model.cfg = _WeightedCodebookConfig(**vars(model.cfg))
        legacy = tmp_path / "legacy.msnc"
        save_checkpoint(legacy, model)
        header = read_checkpoint(legacy)[0]
        assert header == {**read_checkpoint(current)[0], "codebook_loss_weight": 1.0}
        for name, path in (("current", current), ("legacy", legacy)):
            assert main(["decode", "--checkpoint", str(path),
                         "--tokens", str(workspace / "enc" / "tokens.npy"),
                         "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "legacy" / "decoded.msnl").read_bytes()
                == (tmp_path / "current" / "decoded.msnl").read_bytes())

    @pytest.mark.parametrize("command", ["train-tokenizer", "train-lm"])
    def test_training_prints_epochs_steps_and_final_loss(self, workspace, tmp_path, capsys,
                                                         command):
        """Both trainers print the configured epochs, the steps run and the
        last epoch's mean loss, the last loss metrics.csv records."""
        given = {"train-tokenizer": ["--objective", "mse",
                                     "--data", str(workspace / "data" / "train.msnl"),
                                     *TINY_TOKENIZER],
                 "train-lm": ["--stage", "pretrain",
                              "--pairs", str(workspace / "enc" / "pairs.jsonl"),
                              "--set", "n_audio=16", "--set", "max_len=48",
                              "--set", "hidden_dim=32", "--set", "head_dim=16",
                              "--set", "n_blocks=1"]}[command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, *given, "--set", "epochs=2", "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]]
        losses = [float(value) for _, _, metric, value in rows if metric == "loss"]
        assert len(losses) == 2
        printed = capsys.readouterr().out
        assert f"trained 2 epochs ({rows[-1][0]} steps), final loss {losses[-1]:.6f}," in printed

    def test_metrics_csv_layout(self, workspace):
        lines = (workspace / "fm" / "metrics.csv").read_text().splitlines()
        assert lines[0] == "step,split,metric,value"
        assert len(lines) > 1

    def test_encode_outputs(self, workspace):
        tokens = np.load(workspace / "enc" / "tokens.npy")
        assert tokens.shape == (16, 8)
        from flowtok.data import load_pairs_jsonl
        pairs = load_pairs_jsonl(workspace / "enc" / "pairs.jsonl")
        assert len(pairs) == 16
        assert pairs[0]["audio_tokens"] == tokens[0].tolist()

    def test_encode_refuses_a_label_no_caption_names(self, workspace, tmp_path, capsys):
        """A clip whose class has no event noun exits 2 naming the file, the
        clip and the label, before anything is encoded or written."""
        data = tmp_path / "labels.msnl"
        clips = load_latents(workspace / "data" / "train.msnl")
        save_latents(data, LatentDataset(clips.values[:3], np.array([0, 12, 3], dtype=np.uint16)))
        out = tmp_path / "enc"
        code = main(["encode", "--checkpoint", str(workspace / "fm" / "tokenizer.msnc"),
                     "--data", str(data), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: DatasetFormatError: {data}: clip 1 has class label 12, "
            f"but captions name classes 0 to 9\n")
        assert list(out.iterdir()) == []

    def test_decode_round_trip_shape(self, workspace, tmp_path):
        code = main(["decode", "--checkpoint", str(workspace / "fm" / "tokenizer.msnc"),
                     "--tokens", str(workspace / "enc" / "tokens.npy"),
                     "--out", str(tmp_path), "--set", "n_steps=2"])
        assert code == 0
        from flowtok.data import load_latents
        decoded = load_latents(tmp_path / "decoded.msnl")
        assert decoded.values.shape == (16, 8, 4)

    def test_decode_keeps_the_checkpoints_step_count(self, tmp_path, monkeypatch):
        """A checkpoint whose header says 32 sampler steps decodes with 32
        decoder calls, whatever the current default."""
        cfg = _build(TokenizerConfig, {**TRAIN_TOKENIZER_DEFAULTS, "flow.n_sample_steps": 32,
                                       "frames": 8, "data_dim": 4, "encoder.max_len": 8,
                                       "decoder.max_len": 8})
        save_checkpoint(tmp_path / "tokenizer.msnc", TokenizerModel(cfg))
        np.save(tmp_path / "tokens.npy", np.arange(16).reshape(2, 8))
        calls = []
        call = DitDecoder.__call__
        monkeypatch.setattr(DitDecoder, "__call__",
                            lambda self, *args: calls.append(args[1]) or call(self, *args))
        assert main(["decode", "--checkpoint", str(tmp_path / "tokenizer.msnc"),
                     "--tokens", str(tmp_path / "tokens.npy"),
                     "--out", str(tmp_path / "dec")]) == 0
        assert TokenizerConfig().flow.n_sample_steps != 32
        assert calls == [i / 32 for i in range(32)]

    @pytest.mark.parametrize("write, message", [
        (lambda p: np.save(p, np.zeros((2, 8))), "token ids must be integers, got dtype float64"),
        (lambda p: np.save(p, np.full((2, 8), 999)), "token id 999 outside codebook range [0, 16)"),
        (lambda p: np.save(p, np.zeros((2, 9), int)), "token ids hold 9 frames, need 1 to 8"),
        (lambda p: np.save(p, np.zeros((2, 2, 8), int)),
         "token ids must be (T,) or (B, T), got shape (2, 2, 8)"),
        (lambda p: np.save(p, np.zeros((2, 0), int)), "token ids hold 0 frames, need 1 to 8"),
        (lambda p: np.save(p, np.array([1, "a"], dtype=object)),
         "Object arrays cannot be loaded when allow_pickle=False"),
        (lambda p: p.write_text("0 1 2 3\n"), "the magic string is not correct"),
        (_write_npz, "the magic string is not correct"),
        (lambda p: p.write_bytes(b""), "EOF: reading magic string"),
    ], ids=["float", "id_999", "too_many_frames", "3d", "zero_frames", "object", "not_npy",
            "npz", "empty"])
    def test_decode_refuses_bad_tokens_file(self, workspace, tmp_path, capsys, write, message):
        """The tokens file is outside input: one decode cannot read is a
        usage error, exit 1, with the library's message and no output."""
        tokens = tmp_path / "tokens.npy"
        write(tokens)
        out = tmp_path / "out"
        assert main(["decode", "--checkpoint", str(workspace / "mse" / "tokenizer.msnc"),
                     "--tokens", str(tokens), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {tokens}: {message}")
        assert not (out / "decoded.msnl").exists()

    def test_eval_recon_json(self, workspace, tmp_path):
        code = main(["eval", "--checkpoint",
                     f"fm={workspace / 'fm' / 'tokenizer.msnc'}",
                     "--data", f"val={workspace / 'data' / 'val.msnl'}",
                     "--out", str(tmp_path), "--set", "n_steps=2"])
        assert code == 0
        payload = json.loads((tmp_path / "eval.json").read_text())
        [row] = [row for row in payload["rows"] if row["metric"] == "recon_mse"]
        assert (row["split"], row["model"]) == ("val", "fm")
        assert row["value"] > 0
        assert payload["counts"] == {"val": 16}

    def test_eval_fad_counts_clamps(self, workspace, tmp_path, capsys):
        code = main(["eval", "--checkpoint",
                     f"fm={workspace / 'fm' / 'tokenizer.msnc'}",
                     "--data", f"val={workspace / 'data' / 'val.msnl'}",
                     "--out", str(tmp_path), "--set", "n_steps=2"])
        assert code == 0
        payload = json.loads((tmp_path / "eval.json").read_text())
        assert [row["metric"] for row in payload["rows"]] == [
            "recon_mse", "frechet", "frechet_frame"]
        assert payload["clamp_events"] >= 0
        # The most negative eigenvalue clamped to zero; 0 when none was.
        assert payload["clamp_worst"] <= 0
        assert (payload["clamp_worst"] < 0) == (payload["clamp_events"] > 0)
        worst = f"{payload['clamp_events']} eigenvalue clamps, worst {payload['clamp_worst']:.3g}"
        assert worst in capsys.readouterr().out

    def test_compare_csv_schema(self, workspace, tmp_path):
        code = main(["eval", "--checkpoint", f"fm={workspace / 'fm' / 'tokenizer.msnc'}",
                     "--checkpoint", f"mse={workspace / 'mse' / 'tokenizer.msnc'}",
                     "--data", f"val={workspace / 'data' / 'val.msnl'}",
                     "--out", str(tmp_path), "--set", "n_steps=2"])
        assert code == 0
        lines = (tmp_path / "eval.csv").read_text().splitlines()
        assert lines[0] == "split,model,metric,value"
        names = {line.split(",")[1] for line in lines[1:]}
        assert names == {"fm", "mse"}

    def test_eval_commands_equal_compare_rows(self, workspace, tmp_path):
        """A one-checkpoint eval reports the matching rows of a
        two-checkpoint eval bit for bit."""
        data = f"val={workspace / 'data' / 'val.msnl'}"
        checkpoints = {name: f"{name}={workspace / name / 'tokenizer.msnc'}"
                       for name in ("fm", "mse")}
        assert main(["eval", "--checkpoint", checkpoints["fm"],
                     "--checkpoint", checkpoints["mse"], "--data", data,
                     "--out", str(tmp_path / "both"), "--set", "n_steps=2"]) == 0
        rows = json.loads((tmp_path / "both" / "eval.json").read_text())["rows"]
        for model, checkpoint in checkpoints.items():
            assert main(["eval", "--checkpoint", checkpoint, "--data", data,
                         "--out", str(tmp_path / model), "--set", "n_steps=2"]) == 0
            alone = json.loads((tmp_path / model / "eval.json").read_text())["rows"]
            assert alone == [row for row in rows if row["model"] == model]

    def test_compare_rejects_unnamed_split(self, workspace, tmp_path):
        """A missing or repeated NAME, of a split or a checkpoint, is a usage
        error raised before any file is read, never a silently dropped input."""
        fm = workspace / "fm" / "tokenizer.msnc"
        val = workspace / "data" / "val.msnl"
        for flags in (["--checkpoint", f"fm={fm}", "--data", str(val)],
                      ["--checkpoint", str(fm), "--data", f"val={val}"],
                      ["--checkpoint", f"={fm}", "--data", f"val={val}"],
                      ["--checkpoint", f"fm={fm}", "--data", f"val={val}",
                       "--data", f"val={workspace / 'data' / 'train.msnl'}"],
                      ["--checkpoint", f"a={fm}", "--checkpoint",
                       f"a={workspace / 'mse' / 'tokenizer.msnc'}", "--data", f"val={val}"]):
            assert main(["eval", *flags, "--out", str(tmp_path)]) == 1, flags
            assert not (tmp_path / "eval.csv").exists()


class TestLmCommands:
    def test_train_lm_and_generate(self, workspace, tmp_path):
        code = main(["train-lm", "--stage", "pretrain",
                     "--pairs", str(workspace / "enc" / "pairs.jsonl"),
                     "--out", str(tmp_path / "lm"),
                     "--set", "n_audio=16", "--set", "max_len=48",
                     "--set", "hidden_dim=32", "--set", "head_dim=16",
                     "--set", "n_blocks=1", "--set", "epochs=1"])
        assert code == 0
        assert (tmp_path / "lm" / "lm.msnc").is_file()
        assert not (tmp_path / "lm" / "lm.json").exists()
        header, tensors = read_checkpoint(tmp_path / "lm" / "lm.msnc")
        assert header == _flatten(FusionConfig(max_len=48, hidden_dim=32, head_dim=16,
                                               n_blocks=1))
        assert tensors["audio_embed"].shape[0] == 16 + 2
        out = tmp_path / "gen.json"
        code = main(["generate", "--checkpoint", str(tmp_path / "lm" / "lm.msnc"),
                     "--prompt", "A gentle chime", "--max-new", "8",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["generated"]) == 8
        assert payload["segments"][0]["type"] == "text"

    @pytest.mark.parametrize("stage, pair, message", [
        ("pretrain", {"caption": "a hum", "audio_tokens": [3, 16]}, "audio code outside [0, 16)"),
        ("pretrain", {"caption": "", "audio_tokens": [3]},
         "build_pretrain_example: empty caption"),
        ("finetune", {"caption": "a hum", "audio_tokens": []},
         "build_finetune_example: empty audio"),
    ], ids=["code_out_of_range", "empty_caption", "empty_audio"])
    def test_train_lm_names_the_refused_pair(self, tmp_path, capsys, stage, pair, message):
        """A pair the example builders refuse exits 2 naming the file and
        the pair, counted from 1; nothing is trained or written."""
        pairs = tmp_path / "pairs.jsonl"
        save_pairs_jsonl(pairs, [{"caption": "a chime", "audio_tokens": [1, 2]}, pair])
        code = main(["train-lm", "--stage", stage, "--pairs", str(pairs),
                     "--out", str(tmp_path / "lm"), "--set", "n_audio=16",
                     "--set", "hidden_dim=32", "--set", "head_dim=16", "--set", "n_blocks=1"])
        assert code == 2
        assert capsys.readouterr().err == f"error: DatasetFormatError: {pairs}: pair 2: {message}\n"
        assert not (tmp_path / "lm" / "lm.msnc").exists()

    def test_train_lm_refuses_an_empty_pairs_file(self, tmp_path, capsys):
        """No pairs at all is a malformed pairs input like any other: exit 2
        with the loader's error naming the file; nothing is written."""
        pairs = tmp_path / "pairs.jsonl"
        save_pairs_jsonl(pairs, [])
        code = main(["train-lm", "--stage", "pretrain", "--pairs", str(pairs),
                     "--out", str(tmp_path / "lm"), "--set", "n_audio=16",
                     "--set", "hidden_dim=32", "--set", "head_dim=16", "--set", "n_blocks=1"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: DatasetFormatError: {pairs}: no caption/token pairs\n")
        assert not (tmp_path / "lm" / "lm.msnc").exists()

    def test_generate_refuses_negative_token_count(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        code = main(["generate", "--checkpoint", str(tmp_path / "missing"),
                     "--prompt", "A gentle chime", "--max-new", "-1", "--out", str(out)])
        assert code == 1
        assert "--max-new" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("prompt, code, message", [
        ("", 1, "generate: prompt must be a nonempty 1-D id sequence"),
        ("x" * 60, 1, "generate: prompt of 60 tokens fills max_len 48"),
        ("x" * 48, 1, "generate: prompt of 48 tokens fills max_len 48"),
        ("x" * 47, 0, None),
        ("caf\u00e9", 1, "byte value 195 outside text range [0, 128)"),
    ], ids=["empty", "too_long", "max_len_long", "longest", "byte_outside_text"])
    def test_generate_refuses_bad_prompt(self, small_lm, tmp_path, capsys, prompt, code,
                                         message):
        """The prompt is command-line input: a prompt generate cannot extend
        is a usage error, exit 1, with the library's message."""
        out = tmp_path / "gen.json"
        assert main(["generate", "--checkpoint", str(small_lm), "--prompt", prompt,
                     "--max-new", "4", "--out", str(out)]) == code
        if message is not None:
            assert capsys.readouterr().err == f"error: {message}\n"
        assert out.exists() == (code == 0)

    def test_generate_rejects_tokenizer_checkpoint(self, workspace, tmp_path, capsys):
        code = main(["generate", "--checkpoint", str(workspace / "fm" / "tokenizer.msnc"),
                     "--prompt", "A gentle chime", "--out", str(tmp_path / "gen.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "CheckpointError" in err and "not a fusion LM checkpoint (no audio_embed)" in err

    def test_finetune_stage(self, workspace, tmp_path):
        code = main(["train-lm", "--stage", "finetune",
                     "--pairs", str(workspace / "enc" / "pairs.jsonl"),
                     "--out", str(tmp_path / "lm"),
                     "--set", "n_audio=16", "--set", "max_len=96",
                     "--set", "hidden_dim=32", "--set", "head_dim=16",
                     "--set", "n_blocks=1", "--set", "epochs=1"])
        assert code == 0

    def test_divergence_leaves_rolled_back_checkpoint(self, workspace, tmp_path):
        """A diverging run exits 2 and leaves the last finite state, as
        train-tokenizer does."""
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train-lm", "--stage", "pretrain",
                         "--pairs", str(workspace / "enc" / "pairs.jsonl"),
                         "--out", str(tmp_path / "lm"),
                         "--set", "n_audio=16", "--set", "max_len=48",
                         "--set", "hidden_dim=32", "--set", "head_dim=16",
                         "--set", "n_blocks=1", "--set", "epochs=3",
                         "--set", "batch_size=2", "--set", "lr=1e30"])
        assert code == 2
        _, tensors = read_checkpoint(tmp_path / "lm" / "lm.msnc")
        assert tensors and all(np.all(np.isfinite(t)) for t in tensors.values())

    @pytest.mark.parametrize("flag, value, code", [
        ("--top-k", "0", 1), ("--top-k", "-3", 1), ("--temperature", "-2", 1),
        ("--temperature", "nan", 1), ("--temperature", "inf", 1),
        # Edge values pass the check; the missing checkpoint then exits 2.
        ("--top-k", "1", 2), ("--temperature", "0", 2),
    ])
    def test_generate_refuses_bad_sampling_settings(self, tmp_path, capsys, flag, value, code):
        out = tmp_path / "gen.json"
        assert main(["generate", "--checkpoint", str(tmp_path / "missing"),
                     "--prompt", "A gentle chime", flag, value, "--out", str(out)]) == code
        if code == 1:
            assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_finetune_warm_start(self, workspace, tmp_path):
        shape = ["--set", "n_audio=16", "--set", "max_len=96",
                 "--set", "hidden_dim=32", "--set", "head_dim=16",
                 "--set", "n_blocks=1", "--set", "epochs=1"]
        pairs = str(workspace / "enc" / "pairs.jsonl")
        assert main(["train-lm", "--stage", "pretrain", "--pairs", pairs,
                     "--out", str(tmp_path / "pre"), *shape]) == 0
        warm = ["--set", f'checkpoint="{tmp_path / "pre" / "lm.msnc"}"']
        assert main(["train-lm", "--stage", "finetune", "--pairs", pairs,
                     "--out", str(tmp_path / "ft"), *shape, *warm]) == 0
        resolved = json.loads(
            (tmp_path / "ft" / "train-lm-config.json").read_text())
        assert resolved["checkpoint"].endswith("lm.msnc")
        # Structural mismatch against the checkpoint is a runtime failure.
        wrong = [a if a != "hidden_dim=32" else "hidden_dim=48" for a in shape]
        assert main(["train-lm", "--stage", "finetune", "--pairs", pairs,
                     "--out", str(tmp_path / "bad"), *wrong, *warm]) == 2

    @pytest.mark.parametrize("key, value", [("lora_alpha", "64"), ("head_dim", "8")])
    def test_warm_start_config_mismatch_named(self, workspace, tmp_path, capsys,
                                              key, value):
        """A warm start whose run config differs from the checkpoint's
        header fails with exit 2 and names the key, even where no tensor
        shape changes."""
        shape = {"n_audio": "16", "max_len": "48", "hidden_dim": "32",
                 "head_dim": "16", "n_blocks": "1", "epochs": "1"}
        pairs = str(workspace / "enc" / "pairs.jsonl")

        def train(out, **changes):
            sets = [arg for k, v in {**shape, **changes}.items()
                    for arg in ("--set", f"{k}={v}")]
            return main(["train-lm", "--stage", "pretrain", "--pairs", pairs,
                         "--out", str(tmp_path / out), *sets])

        assert train("pre") == 0
        warm = f'"{tmp_path / "pre" / "lm.msnc"}"'
        capsys.readouterr()
        assert train("bad", checkpoint=warm, **{key: value}) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "bad" / "lm.msnc").exists()

    def test_generate_records_every_argument(self, workspace, tmp_path):
        assert main(["train-lm", "--stage", "pretrain",
                     "--pairs", str(workspace / "enc" / "pairs.jsonl"),
                     "--out", str(tmp_path / "lm"),
                     "--set", "n_audio=16", "--set", "max_len=48",
                     "--set", "hidden_dim=32", "--set", "head_dim=16",
                     "--set", "n_blocks=1", "--set", "epochs=1"]) == 0
        assert main(["generate", "--checkpoint", str(tmp_path / "lm" / "lm.msnc"),
                     "--prompt", "A gentle chime", "--max-new", "4", "--unconstrained",
                     "--out", str(tmp_path / "gen" / "gen.json")]) == 0
        resolved = json.loads((tmp_path / "gen" / "generate-config.json").read_text())
        assert resolved["unconstrained"] is True
        assert resolved["max_new"] == 4 and resolved["command"] == "generate"


class TestReport:
    def test_bitrate_and_annotation(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["report", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["bitrate_bps"] == pytest.approx(279.5, abs=0.1)
        assert "0.23" in payload["note"]
        printed = capsys.readouterr().out
        assert "279.5" in printed and "0.23" in printed

    @pytest.mark.parametrize("overrides, bps, relation", [
        (["tokens_per_clip=100"], 130.0, "below"),
        (["tokens_per_clip=23", "clip_seconds=1", "codebook_size=1024"], 230.0, "equal to"),
    ])
    def test_note_compares_the_computed_rate(self, tmp_path, overrides, bps, relation):
        out = tmp_path / "report.json"
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert main(["report", "--out", str(out), *sets]) == 0
        payload = json.loads(out.read_text())
        assert payload["bitrate_bps"] == pytest.approx(bps, abs=0.01)
        assert f"This is {relation} the quoted headline figure of 0.23 kbps." in payload["note"]
        assert "above" not in payload["note"]

    def test_embeds_metric_files(self, tmp_path):
        extra = tmp_path / "m.json"
        extra.write_text(json.dumps({"metric": "recon_mse", "value": 1.5}))
        out = tmp_path / "report.json"
        assert main(["report", "--out", str(out), "--metrics", str(extra)]) == 0
        payload = json.loads(out.read_text())
        assert payload["metrics"][str(extra)]["value"] == 1.5

    def test_metric_files_sharing_a_basename_both_kept(self, tmp_path):
        paths = []
        for run, value in (("fm", 1.5), ("mse", 2.5)):
            (tmp_path / run).mkdir()
            paths.append(tmp_path / run / "metrics.json")
            paths[-1].write_text(json.dumps({"value": value}))
        out = tmp_path / "report.json"
        assert main(["report", "--out", str(out), "--metrics", str(paths[0]),
                     "--metrics", str(paths[1])]) == 0
        embedded = json.loads(out.read_text())["metrics"]
        assert {path: entry["value"] for path, entry in embedded.items()} == {
            str(paths[0]): 1.5, str(paths[1]): 2.5}

    def test_records_metric_files(self, tmp_path):
        extra = tmp_path / "m.json"
        extra.write_text(json.dumps({"metric": "recon_mse", "value": 1.5}))
        assert main(["report", "--out", str(tmp_path / "report.json"),
                     "--metrics", str(extra)]) == 0
        resolved = json.loads((tmp_path / "report-config.json").read_text())
        assert resolved["metrics"] == [str(extra)]


class TestGradCheck:
    def test_passes_and_prints_per_op(self, capsys):
        assert main(["grad-check"]) == 0
        printed = capsys.readouterr().out
        assert "matmul" in printed and "transformer_block" in printed
        assert "FAIL" not in printed


class TestDeterminism:
    def test_compare_runs_byte_identical(self, workspace, tmp_path):
        env = dict(os.environ, MSN_DETERMINISTIC="1")
        argv = ["eval", "--checkpoint", f"fm={workspace / 'fm' / 'tokenizer.msnc'}",
                "--checkpoint", f"mse={workspace / 'mse' / 'tokenizer.msnc'}",
                "--data", f"val={workspace / 'data' / 'val.msnl'}",
                "--set", "n_steps=2"]
        for name in ("a", "b"):
            proc = subprocess.run(
                [sys.executable, "-m", "flowtok.cli", *argv,
                 "--out", str(tmp_path / name)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        a = (tmp_path / "a" / "eval.csv").read_bytes()
        b = (tmp_path / "b" / "eval.csv").read_bytes()
        assert a == b
