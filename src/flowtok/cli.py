"""Command-line front end: one non-interactive subcommand per workflow.

Outputs are files under --out, which main creates (the directory, or a
file's parent) before the command runs; every run then drops a
resolved-config JSON (seed and every parsed argument included) there so
any artifact can be traced to the settings that produced it. A checkpoint
carries its model's config in its header, so commands that read one need
no other file. `eval` scores any number of named tokenizers on any number
of named splits in one table. Exit codes: 0 success, 1 usage error (a
setting the library refuses included), 2 runtime failure. With
MSN_DETERMINISTIC=1 the package pins BLAS to a single thread, so equal
configs and seeds give byte-identical artifacts.
"""

import argparse
import inspect
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import get_args

import numpy as np

from . import __version__
from .data import (
    EVENT_NOUNS,
    INSTRUCTIONS,
    CheckpointError,
    DatasetFormatError,
    LatentDataset,
    MetricsLog,
    SyntheticLatentSpec,
    _build,
    _fields,
    _flatten,
    config_digest,
    gen_caption,
    gen_latent_dataset,
    load_latents,
    load_pairs_jsonl,
    load_tensors,
    read_checkpoint,
    save_latents,
    save_pairs_jsonl,
    write_json,
)
from .evaluation import ClampLog, compare_tokenizers
from .flow import OBJECTIVE_FLOW, OBJECTIVE_MSE
from .lm import (
    FusionConfig,
    FusionLM,
    LmTrainConfig,
    Vocab,
    audio_segments,
    build_finetune_example,
    build_pretrain_example,
    check_prompt,
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
    check_tokens,
    decode_tokens,
    encode_to_tokens,
    train_tokenizer,
)
from .tensor import run_gradient_suite

OP_GRAD_TOL = 1e-5
BLOCK_GRAD_TOL = 1e-4
# The paper's quoted tokenizer bitrate, 0.23 kbps, that `report` compares against.
HEADLINE_BPS = 230.0
# The paper's tokenizer: 215 tokens per 10 s clip from an 8196-entry codebook.
PAPER_TOKENS_PER_CLIP = 215
PAPER_CODEBOOK_SIZE = 8196


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

# gen-data takes SyntheticLatentSpec.create's parameters, plus the clips
# per class and the splits to write.
_SPEC_PARAMS = inspect.signature(SyntheticLatentSpec.create, eval_str=True).parameters
GEN_DATA_DEFAULTS = {**{name: p.default for name, p in _SPEC_PARAMS.items()},
                     "n_per_class": 16, "splits": "train,val"}

# Keys train-tokenizer takes from its data and --objective, not from config.
_TOKENIZER_INPUTS = {"frames", "data_dim", "objective"} | {
    f"{tower}.{name}" for tower in ("encoder", "decoder")
    for name in ("causal", "max_len")}

TRAIN_TOKENIZER_DEFAULTS = {key: value for key, value in _flatten(TokenizerConfig()).items()
                            if key not in _TOKENIZER_INPUTS}

SEED_DEFAULTS = {"seed": 0}

# decode and eval; n_steps None keeps the checkpoint's flow.n_sample_steps.
DECODE_DEFAULTS = {"seed": 0, "n_steps": None}

TRAIN_LM_DEFAULTS = {
    **_flatten(FusionConfig()), **_flatten(LmTrainConfig()), "n_audio": 256,
    # Optional warm start (usually a pretrain checkpoint before finetune).
    # The model keys must match the checkpoint's; mismatches fail loudly.
    "checkpoint": None,
}

REPORT_DEFAULTS = {
    "tokens_per_clip": PAPER_TOKENS_PER_CLIP, "clip_seconds": 10.0,
    "codebook_size": PAPER_CODEBOOK_SIZE,
}

# The type each key takes, from the annotation that declares it: a config
# dataclass field or a SyntheticLatentSpec.create parameter. The keys only
# the command line has state theirs here. A key has one type on every command.
_KEY_TYPES = {
    **{key: hint for cfg in (TokenizerConfig(), FusionConfig(), LmTrainConfig())
       for key, hint, _ in _fields(cfg)},
    **{name: p.annotation for name, p in _SPEC_PARAMS.items()},
    "n_per_class": int, "splits": str, "n_steps": int | None, "n_audio": int,
    "checkpoint": str | None, "tokens_per_clip": int, "clip_seconds": float,
}

# Every int key but a seed or a class index counts something (epochs,
# blocks, clips, steps) and must be at least 1.
_COUNT_KEYS = {key for key, hint in _KEY_TYPES.items()
               if int in (get_args(hint) or (hint,)) and key not in ("seed", "bimodal_class")}


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _load_config(defaults: dict, path, overrides: list[str]) -> dict:
    """Defaults <- flat JSON file <- --set overrides, with key and type
    validation against _KEY_TYPES: null fits only an optional key, a bool
    never fits an int, and an int fits a float. A non-finite float (JSON
    NaN, Infinity, -Infinity), a count below 1 and a negative seed are
    refused, and so is a file that is not UTF-8 JSON."""
    config = dict(defaults)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise UsageError(f"config file {path} is not UTF-8 JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"config file {path} must hold a flat JSON object")
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
    for key, value in config.items():
        hint = _KEY_TYPES[key]
        kinds = get_args(hint) or (hint,)
        if type(value) not in kinds and not (type(value) is int and float in kinds):
            raise UsageError(f"config key {key!r} takes {inspect.formatannotation(hint)}, "
                             f"got {value!r}")
        if type(value) is float and not math.isfinite(value):
            raise UsageError(f"config key {key!r} must be finite, got {value}")
        if key in _COUNT_KEYS and value is not None and value < 1:
            raise UsageError(f"config key {key!r} is a count and must be at least 1, "
                             f"got {value}")
        if key == "seed" and value < 0:
            raise UsageError(f"config key 'seed' must be at least 0, got {value}")
    return config


@contextmanager
def _from_settings():
    """Config objects, and models, built from the settings: a ValueError
    raised here names a setting the library refuses, a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"invalid setting: {exc}") from exc


def _write_resolved(config: dict, args, out_dir: Path) -> None:
    """The run record: the resolved config plus every parsed argument but
    the plumbing, in the output directory."""
    plumbing = {"func", "defaults", "config", "overrides", "out", "out_kind"}
    payload = {**config, **{key: value for key, value in vars(args).items()
                            if key not in plumbing}}
    payload["digest"] = config_digest(payload)
    write_json(out_dir / f"{args.command}-config.json", payload)


def _named_paths(flag: str, items: list[str]) -> dict[str, str]:
    """The NAME=PATH items of a repeatable flag, in the order given."""
    named: dict[str, str] = {}
    for item in items:
        name, sep, path = item.partition("=")
        if not sep or not name:
            raise UsageError(f"{flag} expects NAME=PATH, got {item!r}")
        if name in named:
            raise UsageError(f"{flag} names {name!r} twice")
        named[name] = path
    return named


# ---------------------------------------------------------------------------
# model loading: a checkpoint's header holds its config

def _load_tokenizer(checkpoint_path) -> TokenizerModel:
    header, tensors = read_checkpoint(checkpoint_path)
    model = TokenizerModel(_build(TokenizerConfig, header), np.random.default_rng(0))
    load_tensors(checkpoint_path, tensors, model)
    return model


def _load_lm(checkpoint_path) -> tuple[FusionLM, Vocab]:
    header, tensors = read_checkpoint(checkpoint_path)
    if "audio_embed" not in tensors:
        raise CheckpointError(f"{checkpoint_path}: not a fusion LM checkpoint (no audio_embed)")
    model = FusionLM(_build(FusionConfig, header), np.random.default_rng(0))
    # The audio block is audio_embed's rows less soa and eoa.
    vocab = extend_vocab(model, tensors["audio_embed"].shape[0] - 2, np.random.default_rng(0))
    load_tensors(checkpoint_path, tensors, model)
    return model, vocab


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args, config: dict) -> int:
    if config["n_classes"] > len(EVENT_NOUNS):
        # encode's captions name each class by its own event noun.
        raise UsageError(f"n_classes {config['n_classes']} exceeds the "
                         f"{len(EVENT_NOUNS)} classes that captions can name")
    with _from_settings():
        spec = SyntheticLatentSpec.create(**{key: config[key] for key in _SPEC_PARAMS})
    splits = [s for s in config["splits"].split(",") if s]
    if not splits:
        raise UsageError("splits must name at least one split")
    for split in splits:
        ds = gen_latent_dataset(spec, config["n_per_class"], split=split)
        path = args.out / f"{split}.msnl"
        save_latents(path, ds)
        print(f"wrote {path} ({len(ds)} clips of {spec.frames}x{spec.dim})")
    return 0


def cmd_train_tokenizer(args, config: dict) -> int:
    dataset = load_latents(args.data)
    _, frames, data_dim = dataset.values.shape
    with _from_settings():
        # Both towers span the clip.
        cfg = _build(TokenizerConfig, {**config, "frames": frames, "data_dim": data_dim,
                                       "objective": args.objective,
                                       "encoder.max_len": frames, "decoder.max_len": frames})
        model = TokenizerModel(cfg)
    checkpoint = args.out / "tokenizer.msnc"
    metrics = MetricsLog()
    # train_tokenizer writes the checkpoint after every epoch.
    report = train_tokenizer(dataset, model, cfg, metrics=metrics,
                             checkpoint_path=checkpoint)
    metrics.write_csv(args.out / "metrics.csv")
    metrics.write_json(args.out / "metrics.json", command="train-tokenizer",
                       objective=args.objective, seed=config["seed"])
    print(f"wrote {checkpoint}")
    print(f"trained {cfg.epochs} epochs ({report.steps_run} steps), "
          f"final loss {report.final['loss']:.6f}, "
          f"perplexity {report.final['perplexity']:.2f}")
    return 0


def cmd_encode(args, config: dict) -> int:
    model = _load_tokenizer(args.checkpoint)
    dataset = load_latents(args.data)
    unnamed = np.flatnonzero(dataset.labels >= len(EVENT_NOUNS))
    if unnamed.size:
        i = int(unnamed[0])
        raise DatasetFormatError(f"{args.data}: clip {i} has class label {dataset.labels[i]}, "
                                 f"but captions name classes 0 to {len(EVENT_NOUNS) - 1}")
    tokens = encode_to_tokens(dataset.values, model)
    np.save(args.out / "tokens.npy", tokens)
    pairs = []
    for i, label in enumerate(dataset.labels.tolist()):
        rng = np.random.default_rng(np.random.SeedSequence((config["seed"], i)))
        pairs.append({"caption": gen_caption(label, rng),
                      "audio_tokens": tokens[i].tolist()})
    save_pairs_jsonl(args.out / "pairs.jsonl", pairs)
    print(f"wrote {args.out / 'tokens.npy'} ({tokens.shape[0]} clips x {tokens.shape[1]} tokens)")
    print(f"wrote {args.out / 'pairs.jsonl'}")
    return 0


def cmd_decode(args, config: dict) -> int:
    model = _load_tokenizer(args.checkpoint)
    try:
        # .npy only: np.load would also open a pickle or an .npz archive.
        with open(args.tokens, "rb") as f:
            tokens = np.lib.format.read_array(f, allow_pickle=False)
        check_tokens(tokens, model)
    except (ValueError, IndexError) as exc:
        raise UsageError(f"{args.tokens}: {exc}") from exc
    if tokens.ndim == 1:
        tokens = tokens[np.newaxis, :]
    rng = np.random.default_rng(config["seed"])
    values = decode_tokens(tokens, model, rng=rng, n_steps=config["n_steps"])
    decoded = LatentDataset(values=values, labels=np.zeros(values.shape[0], dtype=np.uint16))
    path = args.out / "decoded.msnl"
    save_latents(path, decoded)
    print(f"wrote {path} ({len(decoded)} clips)")
    return 0


def cmd_train_lm(args, config: dict) -> int:
    with _from_settings():
        cfg = _build(FusionConfig, config)
        train_cfg = _build(LmTrainConfig, config)
        model = FusionLM(cfg, np.random.default_rng(config["seed"]))
        vocab = extend_vocab(model, config["n_audio"], np.random.default_rng(config["seed"] + 1))
    pairs = load_pairs_jsonl(args.pairs)
    if not pairs:
        raise DatasetFormatError(f"{args.pairs}: no caption/token pairs")
    if config["checkpoint"] is not None:
        path = Path(config["checkpoint"])
        header, tensors = read_checkpoint(path)
        run = _flatten(cfg)
        differ = [f"{key} (checkpoint {header.get(key)!r}, run {run.get(key)!r})"
                  for key in sorted(header.keys() | run.keys()) if header.get(key) != run.get(key)]
        if differ:
            raise CheckpointError(f"{path}: run config differs in {', '.join(differ)}")
        load_tensors(path, tensors, model)
    order_rng = np.random.default_rng(config["seed"] + 2)
    examples = []
    for i, pair in enumerate(pairs):
        codes = pair["audio_tokens"]
        try:
            if args.stage == "pretrain":
                examples.append(build_pretrain_example(pair["caption"], codes, vocab, order_rng))
            else:
                # Fine-tune pairs may ship their own instruction and answer;
                # caption-only pairs fall back to a rotating stock instruction.
                instruction = pair.get("instruction", INSTRUCTIONS[i % len(INSTRUCTIONS)])
                answer = pair.get("answer", pair["caption"])
                examples.append(build_finetune_example(instruction, codes, answer, vocab))
        except ValueError as exc:
            raise DatasetFormatError(f"{args.pairs}: pair {i + 1}: {exc}") from exc
    checkpoint = args.out / "lm.msnc"
    metrics = MetricsLog()
    # train_lm writes the checkpoint after every epoch.
    report = train_lm(examples, model, train_cfg, metrics=metrics, checkpoint_path=checkpoint)
    metrics.write_csv(args.out / "metrics.csv")
    accuracy = next_token_accuracy(model, examples)
    metrics.write_json(args.out / "metrics.json", command="train-lm", stage=args.stage,
                       seed=config["seed"], next_token_accuracy=accuracy)
    print(f"wrote {checkpoint}")
    print(f"trained {train_cfg.epochs} epochs ({report.steps_run} steps), "
          f"final loss {report.final['loss']:.6f}, "
          f"next-token accuracy {accuracy:.3f}")
    return 0


def cmd_generate(args, config: dict) -> int:
    if args.max_new < 0:
        raise UsageError(f"--max-new must be at least 0, got {args.max_new}")
    if args.top_k is not None and args.top_k < 1:
        raise UsageError(f"--top-k must be at least 1, got {args.top_k}")
    if not 0.0 <= args.temperature < math.inf:
        raise UsageError(f"--temperature must be finite and at least 0, got {args.temperature}")
    model, vocab = _load_lm(args.checkpoint)
    try:
        prompt = vocab.encode_text(args.prompt)
        check_prompt(prompt, model.cfg.max_len)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = generate(model, prompt, args.max_new,
                      rng=np.random.default_rng(config["seed"]),
                      temperature=args.temperature, top_k=args.top_k,
                      constrain_audio=not args.unconstrained)
    write_json(args.out, {
        "prompt": args.prompt,
        "tokens": result.tokens.tolist(),
        "generated": result.generated.tolist(),
        "segments": audio_segments(result.tokens, vocab),
        "unclosed_audio": bool(result.unclosed_audio),
    })
    print(f"wrote {args.out} ({result.generated.size} new tokens)")
    return 0


def cmd_eval(args, config: dict) -> int:
    """split_metrics for every named checkpoint on every named split."""
    checkpoints = _named_paths("--checkpoint", args.checkpoint)
    data = _named_paths("--data", args.data)
    models = {name: _load_tokenizer(path) for name, path in checkpoints.items()}
    splits = {name: load_latents(path) for name, path in data.items()}
    clamps = ClampLog()
    table = compare_tokenizers(splits, models, clamps, seed=config["seed"],
                               n_steps=config["n_steps"])
    table.write_csv(args.out / "eval.csv")
    table.write_json(args.out / "eval.json", seed=config["seed"], clamp_events=clamps.events,
                     clamp_worst=clamps.worst,
                     counts={name: len(dataset) for name, dataset in splits.items()})
    for split, model_name, metric, value in table.rows:
        print(f"{metric}[{split}, {model_name}] = {value:.6f}")
    print(f"{clamps.events} eigenvalue clamps, worst {clamps.worst:.3g}")
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
    with _from_settings():
        bps = bitrate(tokens, seconds, codebook)
    relation = "above" if bps > HEADLINE_BPS else "below" if bps < HEADLINE_BPS else "equal to"
    note = (f"{tokens} tokens per {seconds:g} s clip with a {codebook}-entry "
            f"codebook is {bps:.1f} bps ({bps / 1000:.2f} kbps). This is {relation} "
            f"the quoted headline figure of {HEADLINE_BPS / 1000:g} kbps")
    note += ("; matching that figure would need a lower token rate or a smaller "
             "effective codebook." if bps > HEADLINE_BPS else ".")
    payload = {"bitrate_bps": bps, "bitrate_kbps": bps / 1000,
               "tokens_per_clip": tokens, "clip_seconds": seconds,
               "codebook_size": codebook, "note": note}
    if args.metrics:
        payload["metrics"] = {}
        for path in args.metrics:
            payload["metrics"][path] = json.loads(Path(path).read_text(encoding="utf-8"))
    write_json(args.out, payload)
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

    def add(name, help_text, defaults, func, out=None):
        """A subcommand; out "DIR" or "FILE" registers its --out."""
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", metavar="FILE", help="flat JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key")
        if out is not None:
            p.add_argument("--out", required=True, type=Path, metavar=out)
        p.set_defaults(func=func, defaults=defaults, out_kind=out)
        return p

    add("gen-data", "generate synthetic latent datasets",
        GEN_DATA_DEFAULTS, cmd_gen_data, out="DIR")

    p = add("train-tokenizer", "train a tokenizer on a latent dataset",
            TRAIN_TOKENIZER_DEFAULTS, cmd_train_tokenizer, out="DIR")
    p.add_argument("--objective", required=True,
                   choices=[OBJECTIVE_FLOW, OBJECTIVE_MSE])
    p.add_argument("--data", required=True, metavar="FILE")

    p = add("encode", "encode latents to discrete tokens and caption pairs",
            SEED_DEFAULTS, cmd_encode, out="DIR")
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    p.add_argument("--data", required=True, metavar="FILE")

    p = add("decode", "decode token files back to latents",
            DECODE_DEFAULTS, cmd_decode, out="DIR")
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    p.add_argument("--tokens", required=True, metavar="FILE")

    p = add("train-lm", "train the fusion language model on token pairs",
            TRAIN_LM_DEFAULTS, cmd_train_lm, out="DIR")
    p.add_argument("--stage", required=True, choices=["pretrain", "finetune"])
    p.add_argument("--pairs", required=True, metavar="FILE")

    p = add("generate", "sample tokens from a trained fusion LM",
            SEED_DEFAULTS, cmd_generate, out="FILE")
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    p.add_argument("--prompt", required=True)
    p.add_argument("--max-new", type=int, default=64, metavar="N")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--top-k", type=int, default=None, metavar="K")
    p.add_argument("--unconstrained", action="store_true",
                   help="disable audio-span bracketing constraints")

    p = add("eval", "reconstruction error and Frechet distance of tokenizers on splits",
            DECODE_DEFAULTS, cmd_eval, out="DIR")
    p.add_argument("--checkpoint", required=True, action="append", metavar="NAME=FILE",
                   help="named tokenizer checkpoint (repeatable)")
    p.add_argument("--data", required=True, action="append", metavar="NAME=FILE",
                   help="named split; the name keys its noise stream (repeatable)")

    add("grad-check", "finite-difference check of every differentiable op",
        {}, cmd_grad_check)

    p = add("report", "bitrate accounting and metric aggregation",
            REPORT_DEFAULTS, cmd_report, out="FILE")
    p.add_argument("--metrics", action="append", metavar="FILE", default=[],
                   help="metrics JSON to embed, keyed by its path (repeatable)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        config = _load_config(args.defaults, args.config, args.overrides)
        if args.out_kind is not None:
            out_dir = args.out if args.out_kind == "DIR" else args.out.parent
            out_dir.mkdir(parents=True, exist_ok=True)
        code = args.func(args, config)
        if args.out_kind is not None:
            _write_resolved(config, args, out_dir)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
