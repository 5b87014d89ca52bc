"""Command-line front end: one non-interactive subcommand per workflow.

Outputs are files; every run drops a resolved-config JSON (seed included)
next to them so it can be replayed exactly. Exit codes: 0 success, 1
usage error, 2 runtime failure. With MSN_DETERMINISTIC=1 the package
pins BLAS to a single thread, so equal configs and seeds give
byte-identical artifacts.
"""

import argparse
import json
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    INSTRUCTIONS,
    LatentDataset,
    MetricsLog,
    SyntheticLatentSpec,
    config_digest,
    gen_caption,
    gen_latent_dataset,
    load_checkpoint,
    load_latents,
    load_pairs_jsonl,
    save_checkpoint,
    save_latents,
    save_pairs_jsonl,
)
from .evaluation import ClampLog, compare_tokenizers, decode_split, split_metrics
from .flow import OBJECTIVE_FLOW, OBJECTIVE_MSE
from .lm import (
    FusionConfig,
    FusionLM,
    LmTrainConfig,
    Vocab,
    build_finetune_example,
    build_pretrain_example,
    extend_vocab,
    generate,
    next_token_accuracy,
    train_lm,
)
from .nn import block_gradient_checks
from .pipeline import (
    TokenizerConfig,
    TokenizerModel,
    bitrate,
    decode_tokens,
    encode_to_tokens,
    train_tokenizer,
)
from .tensor import run_gradient_suite

OP_GRAD_TOL = 1e-5
BLOCK_GRAD_TOL = 1e-4


class UsageError(Exception):
    """Bad flags or config keys; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; this tool reserves 2
    # for runtime failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# config plumbing

def _flatten(cfg, prefix: str = "") -> dict:
    """A config dataclass as flat dotted keys, e.g. `encoder.n_blocks`."""
    flat = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            flat.update(_flatten(value, f"{prefix}{f.name}."))
        else:
            flat[prefix + f.name] = value
    return flat


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


GEN_DATA_DEFAULTS = {
    "n_classes": 4, "frames": 32, "dim": 16, "noise_std": 0.05,
    "bimodal_class": -1, "n_per_class": 16, "splits": "train,val", "seed": 0,
}

# Keys train-tokenizer takes from its data and --objective, not from config.
_TOKENIZER_INPUTS = {"frames", "data_dim", "objective"} | {
    f"{tower}.{name}" for tower in ("encoder", "decoder")
    for name in ("causal", "max_len", "mlp_ratio")}

TRAIN_TOKENIZER_DEFAULTS = {key: value for key, value in _flatten(TokenizerConfig()).items()
                            if key not in _TOKENIZER_INPUTS}

ENCODE_DEFAULTS = {"seed": 0}

DECODE_DEFAULTS = {"seed": 0}

TRAIN_LM_DEFAULTS = {
    **_flatten(FusionConfig()), **_flatten(LmTrainConfig()), "n_audio": 256,
    # Optional warm start (usually a pretrain checkpoint before finetune).
    # Structural keys must match the checkpoint; mismatches fail loudly.
    "checkpoint": None,
}

GENERATE_DEFAULTS = {"seed": 0}

EVAL_DEFAULTS = {"seed": 0, "n_steps": None}

COMPARE_DEFAULTS = {"seed": 0, "n_steps": None}

REPORT_DEFAULTS = {
    "tokens_per_clip": TokenizerConfig.paper().frames, "clip_seconds": 10.0,
    "codebook_size": TokenizerConfig.paper().codebook_size, "seed": 0,
}


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _load_config(defaults: dict, path, overrides: list[str]) -> dict:
    """Defaults <- flat JSON file <- --set overrides, with key validation."""
    config = dict(defaults)
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a flat JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        config.update(loaded)
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise UsageError(f"override {item!r} is not KEY=VALUE")
        if key not in defaults:
            raise UsageError(f"unknown config key {key!r}")
        config[key] = _parse_value(raw)
    return config


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_resolved(out_dir: Path, command: str, config: dict, **extras) -> None:
    payload = {"command": command, **config, **extras}
    payload["digest"] = config_digest(payload)
    _write_json(out_dir / f"{command}-config.json", payload)


# ---------------------------------------------------------------------------
# model (de)serialization helpers

def _tokenizer_config(flat: dict) -> TokenizerConfig:
    """The tokenizer of a train-tokenizer config or sidecar, which holds
    frames, data_dim and objective; both towers span the clip."""
    frames = flat["frames"]
    return _build(TokenizerConfig, {**flat, "encoder.max_len": frames,
                                    "decoder.max_len": frames})


def _read_sidecar(checkpoint_path) -> dict:
    path = Path(checkpoint_path)
    sidecar = path.with_suffix(".json")
    if not sidecar.is_file():
        raise FileNotFoundError(f"missing model config {sidecar} next to {path.name}")
    return json.loads(sidecar.read_text(encoding="utf-8"))


def _load_tokenizer(checkpoint_path) -> TokenizerModel:
    model = TokenizerModel(_tokenizer_config(_read_sidecar(checkpoint_path)),
                           np.random.default_rng(0))
    load_checkpoint(checkpoint_path, model)
    return model


def _load_lm(checkpoint_path) -> tuple[FusionLM, Vocab]:
    side = _read_sidecar(checkpoint_path)
    model = FusionLM(_build(FusionConfig, side), np.random.default_rng(0))
    vocab = extend_vocab(model, side["n_audio"], np.random.default_rng(0))
    load_checkpoint(checkpoint_path, model)
    return model, vocab


def _segments(tokens, vocab: Vocab) -> list[dict]:
    """Split a token stream into text runs, audio spans, and stray markers."""
    segments: list[dict] = []
    text: list[int] = []
    audio: list[int] | None = None

    def flush_text():
        if text:
            segments.append({"type": "text",
                             "text": vocab.decode_text(np.array(text, dtype=np.int64))})
            text.clear()

    for tok in np.asarray(tokens).tolist():
        if audio is not None:
            if tok == vocab.eoa:
                segments.append({"type": "audio", "codes": audio})
                audio = None
            else:
                audio.append(tok - vocab.v_text)
        elif tok == vocab.soa:
            flush_text()
            audio = []
        elif tok < vocab.v_text:
            text.append(tok)
        else:
            # Unconstrained sampling can emit audio ids or eoa outside a span.
            flush_text()
            segments.append({"type": "marker", "id": tok})
    flush_text()
    if audio is not None:
        segments.append({"type": "audio", "codes": audio, "unclosed": True})
    return segments


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args, config: dict) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = SyntheticLatentSpec.create(
        n_classes=config["n_classes"], frames=config["frames"], dim=config["dim"],
        noise_std=config["noise_std"], seed=config["seed"],
        bimodal_class=config["bimodal_class"])
    splits = [s for s in str(config["splits"]).split(",") if s]
    if not splits:
        raise UsageError("splits must name at least one split")
    for split in splits:
        ds = gen_latent_dataset(spec, config["n_per_class"], split=split)
        path = out / f"{split}.msnl"
        save_latents(path, ds)
        print(f"wrote {path} ({len(ds)} clips of {spec.frames}x{spec.dim})")
    _write_resolved(out, "gen-data", config)
    return 0


def cmd_train_tokenizer(args, config: dict) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = load_latents(args.data)
    _, frames, data_dim = dataset.values.shape
    side = {**config, "frames": frames, "data_dim": data_dim, "objective": args.objective}
    cfg = _tokenizer_config(side)
    model = TokenizerModel(cfg)
    checkpoint = out / "tokenizer.msnc"
    # Sidecar goes first so even a divergence-rollback checkpoint loads.
    _write_json(checkpoint.with_suffix(".json"), side)
    metrics = MetricsLog()
    report = train_tokenizer(dataset, model, cfg, metrics=metrics,
                             checkpoint_path=checkpoint)
    save_checkpoint(checkpoint, model)
    metrics.write_csv(out / "metrics.csv")
    metrics.write_json(out / "metrics.json", command="train-tokenizer",
                       objective=args.objective, seed=config["seed"])
    _write_resolved(out, "train-tokenizer", config,
                    objective=args.objective, data=str(args.data))
    print(f"wrote {checkpoint}")
    print(f"trained {report.epochs_run} epochs ({report.steps_run} steps), "
          f"final loss {report.final['loss']:.6f}, "
          f"perplexity {report.final['perplexity']:.2f}")
    return 0


def cmd_encode(args, config: dict) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = _load_tokenizer(args.checkpoint)
    dataset = load_latents(args.data)
    tokens = encode_to_tokens(dataset.values, model)
    np.save(out / "tokens.npy", tokens)
    pairs = []
    for i, label in enumerate(dataset.labels.tolist()):
        rng = np.random.default_rng(np.random.SeedSequence((config["seed"], i)))
        pairs.append({"caption": gen_caption(label, rng),
                      "audio_tokens": tokens[i].tolist()})
    save_pairs_jsonl(out / "pairs.jsonl", pairs)
    _write_resolved(out, "encode", config,
                    checkpoint=str(args.checkpoint), data=str(args.data))
    print(f"wrote {out / 'tokens.npy'} ({tokens.shape[0]} clips x {tokens.shape[1]} tokens)")
    print(f"wrote {out / 'pairs.jsonl'}")
    return 0


def cmd_decode(args, config: dict) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = _load_tokenizer(args.checkpoint)
    tokens = np.load(args.tokens)
    if tokens.ndim == 1:
        tokens = tokens[np.newaxis, :]
    rng = np.random.default_rng(config["seed"])
    values = decode_tokens(tokens, model, rng=rng, n_steps=args.steps)
    decoded = LatentDataset(values=np.asarray(values, dtype=np.float32),
                            labels=np.zeros(values.shape[0], dtype=np.uint16))
    path = out / "decoded.msnl"
    save_latents(path, decoded)
    _write_resolved(out, "decode", config, checkpoint=str(args.checkpoint),
                    tokens=str(args.tokens), steps=args.steps)
    print(f"wrote {path} ({len(decoded)} clips)")
    return 0


def cmd_train_lm(args, config: dict) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pairs = load_pairs_jsonl(args.pairs)
    if not pairs:
        raise ValueError(f"no caption/token pairs in {args.pairs}")
    cfg = _build(FusionConfig, config)
    model = FusionLM(cfg, np.random.default_rng(config["seed"]))
    vocab = extend_vocab(model, config["n_audio"], np.random.default_rng(config["seed"] + 1))
    if config["checkpoint"] is not None:
        load_checkpoint(Path(config["checkpoint"]), model)
    order_rng = np.random.default_rng(config["seed"] + 2)
    examples = []
    for i, pair in enumerate(pairs):
        codes = pair["audio_tokens"]
        if args.stage == "pretrain":
            examples.append(build_pretrain_example(pair["caption"], codes, vocab, order_rng))
        else:
            # Fine-tune pairs may ship their own instruction and answer;
            # caption-only pairs fall back to a rotating stock instruction.
            instruction = pair.get("instruction", INSTRUCTIONS[i % len(INSTRUCTIONS)])
            answer = pair.get("answer", pair["caption"])
            examples.append(build_finetune_example(instruction, codes, answer, vocab))
    metrics = MetricsLog()
    report = train_lm(examples, model, _build(LmTrainConfig, config), metrics=metrics)
    checkpoint = out / "lm.msnc"
    save_checkpoint(checkpoint, model)
    _write_json(checkpoint.with_suffix(".json"),
                {**_flatten(cfg), "n_audio": config["n_audio"], "stage": args.stage})
    metrics.write_csv(out / "metrics.csv")
    accuracy = next_token_accuracy(model, examples)
    metrics.write_json(out / "metrics.json", command="train-lm", stage=args.stage,
                       seed=config["seed"], next_token_accuracy=accuracy)
    _write_resolved(out, "train-lm", config, stage=args.stage, pairs=str(args.pairs))
    print(f"wrote {checkpoint}")
    print(f"trained {report.epochs_run} epochs ({report.steps_run} steps), "
          f"final loss {report.step_losses[-1]:.4f}, "
          f"next-token accuracy {accuracy:.3f}")
    return 0


def cmd_generate(args, config: dict) -> int:
    model, vocab = _load_lm(args.checkpoint)
    prompt = vocab.encode_text(args.prompt)
    result = generate(model, prompt, args.max_new,
                      rng=np.random.default_rng(config["seed"]),
                      temperature=args.temperature, top_k=args.top_k,
                      constrain_audio=not args.unconstrained)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, {
        "prompt": args.prompt,
        "tokens": result.tokens.tolist(),
        "generated": result.generated.tolist(),
        "segments": _segments(result.tokens, vocab),
        "unclosed_audio": bool(result.unclosed_audio),
    })
    _write_resolved(out.parent, "generate", config,
                    checkpoint=str(args.checkpoint), prompt=args.prompt,
                    max_new=args.max_new, temperature=args.temperature,
                    top_k=args.top_k)
    print(f"wrote {out} ({result.generated.size} new tokens)")
    return 0


_EVAL_METRICS = {"eval-recon": "recon_mse", "eval-fad": "frechet"}


def cmd_eval(args, config: dict) -> int:
    """eval-recon and eval-fad: one of split_metrics' values for the split."""
    model = _load_tokenizer(args.checkpoint)
    dataset = load_latents(args.data)
    split = Path(args.data).stem
    decoded = decode_split(split, dataset, model, config["seed"], config["n_steps"])
    clamp = ClampLog()
    metric = _EVAL_METRICS[args.command]
    value = split_metrics(dataset, decoded, clamp)[metric]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, {"split": split, "metric": metric, "value": value,
                      "clamp_events": clamp.events, "count": len(dataset),
                      "seed": config["seed"]})
    _write_resolved(out.parent, args.command, config,
                    checkpoint=str(args.checkpoint), data=str(args.data))
    print(f"{metric}[{split}] = {value:.6f} ({clamp.events} eigenvalue clamps)")
    return 0


def cmd_compare(args, config: dict) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_fm = _load_tokenizer(args.fm)
    model_mse = _load_tokenizer(args.mse)
    splits = {}
    for item in args.data:
        name, sep, path = item.partition("=")
        if not sep or not name:
            raise UsageError(f"--data expects NAME=PATH, got {item!r}")
        splits[name] = load_latents(path)
    report = compare_tokenizers(splits, model_fm, model_mse,
                                seed=config["seed"], n_steps=config["n_steps"])
    report.write_csv(out / "compare.csv")
    report.write_json(out / "compare.json", seed=config["seed"])
    _write_resolved(out, "compare", config, fm=str(args.fm), mse=str(args.mse),
                    data=list(args.data))
    for split, model_name, metric, value in report.rows:
        print(f"{metric}[{split}, {model_name}] = {value:.6f}")
    return 0


def cmd_grad_check(args, config: dict) -> int:
    all_ok = True
    for name, err in sorted(run_gradient_suite().items()):
        ok = err < OP_GRAD_TOL
        all_ok &= ok
        print(f"op    {name:<20} max rel err {err:.3e}  {'ok' if ok else 'FAIL'}")
    for name, err in sorted(block_gradient_checks().items()):
        ok = err < BLOCK_GRAD_TOL
        all_ok &= ok
        print(f"block {name:<20} max rel err {err:.3e}  {'ok' if ok else 'FAIL'}")
    if not all_ok:
        raise RuntimeError("gradient check failed")
    return 0


def cmd_report(args, config: dict) -> int:
    tokens = config["tokens_per_clip"]
    seconds = config["clip_seconds"]
    codebook = config["codebook_size"]
    bps = bitrate(tokens, seconds, codebook)
    note = (f"{tokens} tokens per {seconds:g} s clip with a {codebook}-entry "
            f"codebook is {bps:.1f} bps ({bps / 1000:.2f} kbps). This is above "
            f"the quoted headline figure of 0.23 kbps; matching that figure "
            f"would need a lower token rate or a smaller effective codebook.")
    payload = {"bitrate_bps": bps, "bitrate_kbps": bps / 1000,
               "tokens_per_clip": tokens, "clip_seconds": seconds,
               "codebook_size": codebook, "note": note}
    if args.metrics:
        payload["metrics"] = {}
        for path in args.metrics:
            payload["metrics"][Path(path).name] = json.loads(
                Path(path).read_text(encoding="utf-8"))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, payload)
    _write_resolved(out.parent, "report", config)
    print(f"bitrate {bps:.1f} bps")
    print(note)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch

def build_parser() -> _Parser:
    parser = _Parser(prog="flowtok",
                     description="Latent audio tokenizer and fusion LM workflows.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, help_text, defaults, func):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", metavar="FILE", help="flat JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key")
        p.set_defaults(func=func, defaults=defaults)
        return p

    p = add("gen-data", "generate synthetic latent datasets",
            GEN_DATA_DEFAULTS, cmd_gen_data)
    p.add_argument("--out", required=True, metavar="DIR")

    p = add("train-tokenizer", "train a tokenizer on a latent dataset",
            TRAIN_TOKENIZER_DEFAULTS, cmd_train_tokenizer)
    p.add_argument("--objective", required=True,
                   choices=[OBJECTIVE_FLOW, OBJECTIVE_MSE])
    p.add_argument("--data", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="DIR")

    p = add("encode", "encode latents to discrete tokens and caption pairs",
            ENCODE_DEFAULTS, cmd_encode)
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    p.add_argument("--data", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="DIR")

    p = add("decode", "decode token files back to latents",
            DECODE_DEFAULTS, cmd_decode)
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    p.add_argument("--tokens", required=True, metavar="FILE")
    p.add_argument("--steps", type=int, default=None, metavar="N",
                   help="integration steps (flow objective only)")
    p.add_argument("--out", required=True, metavar="DIR")

    p = add("train-lm", "train the fusion language model on token pairs",
            TRAIN_LM_DEFAULTS, cmd_train_lm)
    p.add_argument("--stage", required=True, choices=["pretrain", "finetune"])
    p.add_argument("--pairs", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="DIR")

    p = add("generate", "sample tokens from a trained fusion LM",
            GENERATE_DEFAULTS, cmd_generate)
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    p.add_argument("--prompt", required=True)
    p.add_argument("--max-new", type=int, default=64, metavar="N")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--top-k", type=int, default=None, metavar="K")
    p.add_argument("--unconstrained", action="store_true",
                   help="disable audio-span bracketing constraints")
    p.add_argument("--out", required=True, metavar="FILE")

    for name, help_text in (("eval-recon", "reconstruction error of a tokenizer on a dataset"),
                            ("eval-fad", "distributional distance of reconstructions")):
        p = add(name, help_text, EVAL_DEFAULTS, cmd_eval)
        p.add_argument("--checkpoint", required=True, metavar="FILE")
        p.add_argument("--data", required=True, metavar="FILE")
        p.add_argument("--out", required=True, metavar="FILE")

    p = add("compare", "side-by-side metrics for flow and MSE tokenizers",
            COMPARE_DEFAULTS, cmd_compare)
    p.add_argument("--fm", required=True, metavar="FILE",
                   help="flow-objective checkpoint")
    p.add_argument("--mse", required=True, metavar="FILE",
                   help="MSE-objective checkpoint")
    p.add_argument("--data", required=True, action="append", metavar="NAME=PATH",
                   help="named split (repeatable)")
    p.add_argument("--out", required=True, metavar="DIR")

    add("grad-check", "finite-difference check of every differentiable op",
        {}, cmd_grad_check)

    p = add("report", "bitrate accounting and metric aggregation",
            REPORT_DEFAULTS, cmd_report)
    p.add_argument("--metrics", action="append", metavar="FILE", default=[],
                   help="metrics JSON to embed (repeatable)")
    p.add_argument("--out", required=True, metavar="FILE")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        config = _load_config(args.defaults, args.config, args.overrides)
        return args.func(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
