"""Exit codes, config plumbing, and artifact layout of the command line."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from flowtok.cli import (
    REPORT_DEFAULTS,
    TRAIN_LM_DEFAULTS,
    TRAIN_TOKENIZER_DEFAULTS,
    _build,
    _flatten,
    main,
)
from flowtok.lm import FusionConfig, LmTrainConfig
from flowtok.pipeline import TokenizerConfig

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
        code = main(["eval-recon", "--checkpoint", "/nonexistent.msnc",
                     "--data", "/nonexistent.msnl",
                     "--out", str(tmp_path / "r.json")])
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
            "flow.sigma_min": 1e-4, "flow.n_sample_steps": 32, "timestep_dim": 64,
            "lr": 1e-4, "weight_decay": 0.01, "epochs": 10, "batch_size": 16,
            "codebook_loss_weight": 1.0, "commitment_weight": 0.25, "seed": 0,
        }
        assert TRAIN_LM_DEFAULTS == {
            "v_text": 256, "n_blocks": 4, "hidden_dim": 128, "head_dim": 32,
            "mlp_ratio": 4, "max_len": 512, "lora_rank": 8, "lora_alpha": 16.0,
            "n_audio": 256, "lr": 1e-3, "weight_decay": 0.01, "epochs": 10,
            "batch_size": 8, "z_coeff": 1e-4, "seed": 0, "checkpoint": None,
        }
        assert REPORT_DEFAULTS == {
            "tokens_per_clip": 215, "clip_seconds": 10.0, "codebook_size": 8196,
            "seed": 0,
        }

    @pytest.mark.parametrize("cfg", [
        TokenizerConfig.paper(),
        FusionConfig(v_text=128, n_blocks=2, hidden_dim=64, head_dim=16, mlp_ratio=2,
                     max_len=64, lora_rank=4, lora_alpha=8.0),
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
    ])
    def test_unknown_set_key_rejected(self, command, key):
        """Exit 1 before any input is read; an accepted key would fail on
        the missing input with exit 2."""
        inputs = {"gen-data": [],
                  "train-tokenizer": ["--objective", "fm", "--data", "missing"],
                  "train-lm": ["--stage", "pretrain", "--pairs", "missing"]}[command]
        assert main([command, *inputs, "--out", "unused", "--set", f"{key}=1"]) == 1

    def test_set_parses_json_values(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path), "--set", "noise_std=0.0",
                     "--set", "bimodal_class=null", "--set", "splits=train",
                     "--set", "n_per_class=2"]) == 0
        resolved = json.loads((tmp_path / "gen-data-config.json").read_text())
        assert resolved["noise_std"] == 0.0
        assert resolved["bimodal_class"] is None


class TestArtifacts:
    def test_gen_data_writes_each_split(self, workspace):
        assert (workspace / "data" / "train.msnl").is_file()
        assert (workspace / "data" / "val.msnl").is_file()

    def test_tokenizer_checkpoint_and_sidecar(self, workspace):
        assert (workspace / "fm" / "tokenizer.msnc").is_file()
        side = json.loads((workspace / "fm" / "tokenizer.json").read_text())
        assert side["objective"] == "fm"
        assert side["frames"] == 8
        assert set(side) == set(TRAIN_TOKENIZER_DEFAULTS) | {"frames", "data_dim", "objective"}

    def test_structural_only_sidecar_loads(self, workspace, tmp_path):
        """A sidecar with only the structural keys, as older releases wrote
        it, rebuilds the same model: encode gives the same tokens."""
        old = tmp_path / "old"
        old.mkdir()
        (old / "tokenizer.msnc").write_bytes((workspace / "fm" / "tokenizer.msnc").read_bytes())
        (old / "tokenizer.json").write_text(json.dumps({
            "frames": 8, "data_dim": 4, "code_dim": 8, "codebook_size": 16,
            "objective": "fm",
            "encoder.n_blocks": 1, "encoder.hidden_dim": 32, "encoder.head_dim": 16,
            "decoder.n_blocks": 1, "decoder.hidden_dim": 32, "decoder.head_dim": 16,
            "flow.sigma_min": 1e-4, "flow.n_sample_steps": 2, "timestep_dim": 16,
        }))
        assert main(["encode", "--checkpoint", str(old / "tokenizer.msnc"),
                     "--data", str(workspace / "data" / "train.msnl"),
                     "--out", str(tmp_path / "enc")]) == 0
        np.testing.assert_array_equal(np.load(tmp_path / "enc" / "tokens.npy"),
                                      np.load(workspace / "enc" / "tokens.npy"))

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

    def test_decode_round_trip_shape(self, workspace, tmp_path):
        code = main(["decode", "--checkpoint", str(workspace / "fm" / "tokenizer.msnc"),
                     "--tokens", str(workspace / "enc" / "tokens.npy"),
                     "--steps", "2", "--out", str(tmp_path)])
        assert code == 0
        from flowtok.data import load_latents
        decoded = load_latents(tmp_path / "decoded.msnl")
        assert decoded.values.shape == (16, 8, 4)

    def test_eval_recon_json(self, workspace, tmp_path):
        out = tmp_path / "recon.json"
        code = main(["eval-recon", "--checkpoint",
                     str(workspace / "fm" / "tokenizer.msnc"),
                     "--data", str(workspace / "data" / "val.msnl"),
                     "--out", str(out), "--set", "n_steps=2"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["metric"] == "recon_mse"
        assert payload["split"] == "val"
        assert payload["value"] > 0

    def test_eval_fad_counts_clamps(self, workspace, tmp_path):
        out = tmp_path / "fad.json"
        code = main(["eval-fad", "--checkpoint",
                     str(workspace / "fm" / "tokenizer.msnc"),
                     "--data", str(workspace / "data" / "val.msnl"),
                     "--out", str(out), "--set", "n_steps=2"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["metric"] == "frechet"
        assert payload["clamp_events"] >= 0

    def test_compare_csv_schema(self, workspace, tmp_path):
        code = main(["compare", "--fm", str(workspace / "fm" / "tokenizer.msnc"),
                     "--mse", str(workspace / "mse" / "tokenizer.msnc"),
                     "--data", f"val={workspace / 'data' / 'val.msnl'}",
                     "--out", str(tmp_path), "--set", "n_steps=2"])
        assert code == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0] == "split,model,metric,value"
        names = {line.split(",")[1] for line in lines[1:]}
        assert names == {"fm", "mse"}

    def test_eval_commands_equal_compare_rows(self, workspace, tmp_path):
        """eval-recon and eval-fad report compare's values bit for bit."""
        val = workspace / "data" / "val.msnl"
        checkpoints = {name: str(workspace / name / "tokenizer.msnc") for name in ("fm", "mse")}
        assert main(["compare", "--fm", checkpoints["fm"], "--mse", checkpoints["mse"],
                     "--data", f"val={val}", "--out", str(tmp_path / "compare"),
                     "--set", "n_steps=2"]) == 0
        rows = json.loads((tmp_path / "compare" / "compare.json").read_text())["rows"]
        for model, checkpoint in checkpoints.items():
            for command, metric in (("eval-recon", "recon_mse"), ("eval-fad", "frechet")):
                out = tmp_path / f"{model}-{command}.json"
                assert main([command, "--checkpoint", checkpoint, "--data", str(val),
                             "--out", str(out), "--set", "n_steps=2"]) == 0
                [expected] = [row["value"] for row in rows
                              if (row["split"], row["model"], row["metric"]) == ("val", model, metric)]
                assert json.loads(out.read_text())["value"] == expected, (model, metric)

    def test_compare_rejects_unnamed_split(self, workspace, tmp_path):
        code = main(["compare", "--fm", str(workspace / "fm" / "tokenizer.msnc"),
                     "--mse", str(workspace / "mse" / "tokenizer.msnc"),
                     "--data", str(workspace / "data" / "val.msnl"),
                     "--out", str(tmp_path)])
        assert code == 1


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
        side = json.loads((tmp_path / "lm" / "lm.json").read_text())
        assert side["n_audio"] == 16 and side["stage"] == "pretrain"
        out = tmp_path / "gen.json"
        code = main(["generate", "--checkpoint", str(tmp_path / "lm" / "lm.msnc"),
                     "--prompt", "A gentle chime", "--max-new", "8",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["generated"]) == 8
        assert payload["segments"][0]["type"] == "text"

    def test_finetune_stage(self, workspace, tmp_path):
        code = main(["train-lm", "--stage", "finetune",
                     "--pairs", str(workspace / "enc" / "pairs.jsonl"),
                     "--out", str(tmp_path / "lm"),
                     "--set", "n_audio=16", "--set", "max_len=96",
                     "--set", "hidden_dim=32", "--set", "head_dim=16",
                     "--set", "n_blocks=1", "--set", "epochs=1"])
        assert code == 0

    def test_divergence_is_runtime_error_without_checkpoint(self, workspace, tmp_path):
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train-lm", "--stage", "pretrain",
                         "--pairs", str(workspace / "enc" / "pairs.jsonl"),
                         "--out", str(tmp_path / "lm"),
                         "--set", "n_audio=16", "--set", "max_len=48",
                         "--set", "hidden_dim=32", "--set", "head_dim=16",
                         "--set", "n_blocks=1", "--set", "epochs=2",
                         "--set", "lr=1e38"])
        assert code == 2
        assert not (tmp_path / "lm" / "lm.msnc").exists()

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


class TestReport:
    def test_bitrate_and_annotation(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["report", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["bitrate_bps"] == pytest.approx(279.5, abs=0.1)
        assert "0.23" in payload["note"]
        printed = capsys.readouterr().out
        assert "279.5" in printed and "0.23" in printed

    def test_embeds_metric_files(self, tmp_path):
        extra = tmp_path / "m.json"
        extra.write_text(json.dumps({"metric": "recon_mse", "value": 1.5}))
        out = tmp_path / "report.json"
        assert main(["report", "--out", str(out), "--metrics", str(extra)]) == 0
        payload = json.loads(out.read_text())
        assert payload["metrics"]["m.json"]["value"] == 1.5


class TestGradCheck:
    def test_passes_and_prints_per_op(self, capsys):
        assert main(["grad-check"]) == 0
        printed = capsys.readouterr().out
        assert "matmul" in printed and "transformer_block" in printed
        assert "FAIL" not in printed


class TestDeterminism:
    def test_compare_runs_byte_identical(self, workspace, tmp_path):
        env = dict(os.environ, MSN_DETERMINISTIC="1")
        argv = ["compare", "--fm", str(workspace / "fm" / "tokenizer.msnc"),
                "--mse", str(workspace / "mse" / "tokenizer.msnc"),
                "--data", f"val={workspace / 'data' / 'val.msnl'}",
                "--set", "n_steps=2"]
        for name in ("a", "b"):
            proc = subprocess.run(
                [sys.executable, "-m", "flowtok.cli", *argv,
                 "--out", str(tmp_path / name)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        a = (tmp_path / "a" / "compare.csv").read_bytes()
        b = (tmp_path / "b" / "compare.csv").read_bytes()
        assert a == b
