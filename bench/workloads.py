"""The benchmark's workloads and their correctness gate.

A workload makes every input from its seed, drives flowtok only through
the public calls the CLI subcommands make, and checks each operation's
output. A failed check counts its operation as failed and the run goes
on. Every phase operation repeats identical work (training restarts from
the same initial weights, decoding from the same noise), so timings of
repeated operations are comparable and the first one's outputs are the
phase's digest.

Why each workload exists:

- tok-desk: the CLI's default tokenizer under the `fm` objective. BLAS
  bound: `gelu` and `matmul` dominate training, and the Euler sampler calls
  the decoder 32 times per clip. Batched encode and decode sit beside the
  per-clip decode of the eval phase. Kernel and sampler changes show here.
- tok-toy: the tiny test-size tokenizer under `mse`, with encode and
  decode issued one clip per call like a stream. Python and tape overhead
  bound; `mse` decodes with one decoder call, so sampler changes predict no
  change here, and the Fréchet eigensolver is a large share of eval.
- lm-fusion: the default fusion LM with LoRA adapters and 256 audio ids.
  Training uses the tape differently from the tokenizer, and `generate`
  recomputes the whole prefix per token, so short and long prompts
  separate per-token overhead from context length.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from flowtok import data, evaluation, lm, pipeline
from flowtok.nn import TransformerConfig
from flowtok.tensor import no_grad

N_CLASSES = 4
CLIPS_PER_CLASS = 16  # each split, as the CLI's gen-data writes by default
TRAIN_EPOCHS = 2
LM_TRAIN_SEQUENCES = 32
LM_HELDOUT_SEQUENCES = 16
LM_AUDIO_CODES = 32
LM_N_AUDIO = 256
GEN_SHORT_NEW = 64
GEN_LONG_NEW = 16
LONG_PROMPT_MAX = 360


@dataclass
class Gate:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, what: str, ok: bool, detail: str = "", ops: int = 1, failed: int | None = None):
        failed = (0 if ok else ops) if failed is None else failed
        self.attempted += ops
        self.failed += failed
        if failed and len(self.errors) < 10:
            self.errors.append(f"{what}: {detail or 'check failed'}")


@dataclass
class Phase:
    """One phase of a workload. `op` runs one operation and returns
    (items done, seconds). `key` names the end-to-end metric slot and
    `label` the workload's own name for it; the load phase has no metric."""

    name: str
    op: Callable[[], tuple[float, float]]
    key: str | None = None
    label: str = ""
    unit: str = ""


def timed(fn):
    """Run fn once: (result or None, seconds, error text or None)."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a failing operation is counted, and the run goes on
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - t0, None


def snapshot(model) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in model.named_tensors()}


def restore(model, state: dict[str, np.ndarray]) -> None:
    for name, t in model.named_tensors():
        t.data = state[name].copy()


def same_tensors(a, b) -> bool:
    """Bitwise equality of two models' tensors, NaN payloads included."""
    pairs = list(zip(a.named_tensors(), b.named_tensors()))
    return all(na == nb and ta.data.tobytes() == tb.data.tobytes()
               for (na, ta), (nb, tb) in pairs)


class Workload:
    """Shared bookkeeping: gate, per-phase call counters, digests, and the
    per-round counts the per-layer metrics are normalised by. `schedule` is
    one round: the phases' operations in the order they run."""

    phases: list[Phase]
    schedule: list[Phase]
    quality_labels: dict[str, str]

    def __init__(self, seed: int, tmp: Path, gate: Gate, inject_nan: bool = False):
        self.seed = seed
        self.tmp = tmp
        self.gate = gate
        self.inject_nan = inject_nan
        self.counts: Counter = Counter()
        self.quality: dict[str, float] = {}
        self.record: dict[str, object] = {}
        self._calls: Counter = Counter()
        self._hashes: dict[str, hashlib._Hash] = {}

    def _next(self, phase: str) -> int:
        i = self._calls[phase]
        self._calls[phase] += 1
        return i

    def _digest(self, phase: str, i: int, *arrays) -> None:
        """Fold the outputs of a phase's first round of operations into its digest."""
        if i >= sum(p.name == phase for p in self.schedule):
            return
        h = self._hashes.setdefault(phase, hashlib.sha256())
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())

    def digests(self) -> dict[str, str]:
        return {phase: h.hexdigest()[:16] for phase, h in self._hashes.items()}

    def _first(self, key: str, value: float) -> None:
        self.quality.setdefault(key, float(value))

    def _poison(self, state: dict[str, np.ndarray], model) -> None:
        """Fault injection: a NaN in the last trainable parameter."""
        name = [n for n, _ in model.named_parameters()][-1]
        state[name].reshape(-1)[0] = np.nan
        restore(model, state)


# ----------------------------------------------------------------------
# tokenizer workloads


def desk_config() -> pipeline.TokenizerConfig:
    """The CLI's default tokenizer (2+2 blocks, hidden 128, K=256)."""
    return pipeline.TokenizerConfig()


def toy_config() -> pipeline.TokenizerConfig:
    """The tiny configuration of the unit tests, with K=64 and batch 4."""
    return pipeline.TokenizerConfig(
        frames=16, data_dim=8, code_dim=8, codebook_size=64, objective="mse",
        encoder=TransformerConfig(n_blocks=1, hidden_dim=32, head_dim=16, causal=True, max_len=16),
        decoder=TransformerConfig(n_blocks=1, hidden_dim=32, head_dim=16, causal=False, max_len=16),
        timestep_dim=16, batch_size=4)


class TokenizerWorkload(Workload):
    """train_tokenizer -> load_checkpoint -> encode -> decode -> eval."""

    quality_labels = {"train_loss_final": "train_loss_final", "eval_loss": "recon_mse"}

    def __init__(self, seed, tmp, gate, cfg: pipeline.TokenizerConfig, per_clip: bool,
                 inject_nan: bool = False):
        super().__init__(seed, tmp, gate, inject_nan)
        self.cfg = replace(cfg, epochs=TRAIN_EPOCHS, seed=seed)
        self.n_val = CLIPS_PER_CLASS * N_CLASSES
        self.per_clip = per_clip
        self.ckpt = tmp / "tokenizer.msnc"
        self.phases = train, load, encode, decode, evaluate = [
            Phase("train", self.train_op, "train_items_per_s", "train_clips_per_s", "clips/s"),
            Phase("load", self.load_op),
            Phase("encode", self.encode_op, "encode_or_gen_short_items_per_s",
                  "encode_clips_per_s", "clips/s"),
            Phase("decode", self.decode_op, "decode_or_gen_long_items_per_s",
                  "decode_clips_per_s", "clips/s"),
            Phase("eval", self.eval_op, "eval_items_per_s", "eval_clips_per_s", "clips/s"),
        ]
        if per_clip:
            # A round encodes and decodes the val split once, a clip per call.
            self.schedule = [train, load, *[encode] * self.n_val, *[decode] * self.n_val, evaluate]
        else:
            # Batched calls take the whole split, as the CLI's encode and
            # decode do. On tok-desk one flow decode of 64 clips takes about
            # 7 s and the eval about 10 s, so a round of about 27 s holds one
            # of each. The shorter train and encode operations repeat between
            # them, so that their medians sample the whole round.
            self.schedule = [train, load, *[encode] * 8, train, decode, train,
                             *[encode] * 8, train, evaluate, train]

    def setup(self) -> None:
        """Data generation with a .msnl round trip, model construction, warm-up."""
        cfg = self.cfg
        spec = data.SyntheticLatentSpec.create(n_classes=N_CLASSES, frames=cfg.frames,
                                               dim=cfg.data_dim, seed=self.seed)
        loaded = {}
        for split in ("train", "val"):
            path = self.tmp / f"{split}.msnl"
            data.save_latents(path, data.gen_latent_dataset(spec, CLIPS_PER_CLASS, split))
            loaded[split] = data.load_latents(path)
        self.train_set, self.val_set = loaded["train"], loaded["val"]
        self.model = pipeline.TokenizerModel(cfg)
        self.init = snapshot(self.model)
        if self.inject_nan:
            self._poison(self.init, self.model)
        self.loaded = self.model
        tokens = pipeline.encode_to_tokens(self.val_set.values[0], self.model)
        pipeline.decode_tokens(tokens, self.model, n_steps=1)
        self.val_tokens = np.zeros((self.n_val, cfg.frames), dtype=np.int64)

    def train_op(self):
        i = self._next("train")
        restore(self.model, self.init)
        planned = self.cfg.epochs * math.ceil(len(self.train_set) / self.cfg.batch_size)
        report, dt, err = timed(lambda: pipeline.train_tokenizer(
            self.train_set, self.model, self.cfg, checkpoint_path=self.ckpt))
        if report is None:
            self.gate.check("train", False, err, ops=planned)
        else:
            finite = sum(math.isfinite(x) for x in report.step_losses)
            self.gate.check("train step", finite == planned, "non-finite or missing step loss",
                            ops=planned, failed=planned - finite)
            self.counts["train_steps"] += report.steps_run
            self.counts["perplexity"] = report.final["perplexity"]
            self._first("train_loss_final", report.final["loss"])
            self._digest("train", i, np.frombuffer(self.ckpt.read_bytes(), dtype=np.uint8))
        return len(self.train_set) * self.cfg.epochs, dt

    def load_op(self):
        fresh = pipeline.TokenizerModel(self.cfg)
        _, dt, err = timed(lambda: data.load_checkpoint(self.ckpt, fresh))
        self.gate.check("load checkpoint", err is None and same_tensors(fresh, self.model),
                        err or "reloaded tensors differ from the trained ones")
        self.loaded = fresh
        return 1, dt

    def _tokens_ok(self, tokens, shape) -> bool:
        return (tokens is not None and tokens.shape == shape
                and tokens.min() >= 0 and tokens.max() < self.cfg.codebook_size)

    def encode_op(self):
        i = self._next("encode")
        if self.per_clip:
            rows = i % self.n_val
            clips = self.val_set.values[rows]
        else:
            rows = slice(None)
            clips = self.val_set.values
        tokens, dt, err = timed(lambda: pipeline.encode_to_tokens(clips, self.loaded))
        ok = self._tokens_ok(tokens, clips.shape[:-1])
        self.gate.check("encode", ok, err or "token shape or range wrong")
        if ok:
            self.val_tokens[rows] = tokens
            self._digest("encode", i, tokens)
        return (1 if self.per_clip else self.n_val), dt

    def decode_op(self):
        i = self._next("decode")
        tokens = self.val_tokens[i % self.n_val] if self.per_clip else self.val_tokens
        rng = np.random.default_rng(self.seed)
        out, dt, err = timed(lambda: pipeline.decode_tokens(tokens, self.loaded, rng=rng))
        ok = (out is not None and out.shape == tokens.shape + (self.cfg.data_dim,)
              and bool(np.isfinite(out).all()))
        self.gate.check("decode", ok, err or "decoded shape wrong or values non-finite")
        if out is not None:
            self._digest("decode", i, out)
        n = 1 if self.per_clip else self.n_val
        self.counts["decoded_clips"] += n
        return n, dt

    def _evaluate(self, clamps: evaluation.ClampLog):
        values = self.val_set.values
        decoded = evaluation.decode_split("val", self.val_set, self.loaded, self.seed, None)
        recon = evaluation.reconstruction_error(values, decoded)
        reference = evaluation.gaussian_stats(evaluation.mean_pool_embeddings(values))
        stats = evaluation.gaussian_stats(evaluation.mean_pool_embeddings(decoded))
        return decoded, recon, evaluation.frechet_distance(stats, reference, clamps)

    def eval_op(self):
        i = self._next("eval")
        clamps = evaluation.ClampLog()
        out, dt, err = timed(lambda: self._evaluate(clamps))
        ok = out is not None and math.isfinite(out[1]) and math.isfinite(out[2])
        self.gate.check("eval", ok, err or "non-finite reconstruction error or Frechet distance")
        if out is not None:
            decoded, recon, frechet = out
            self._digest("eval", i, decoded)
            self._first("eval_loss", recon)
            self.record.setdefault("frechet", frechet)
        self.counts["clamp_events"] += clamps.events
        self.counts["decoded_clips"] += self.n_val
        self.record["clamp_events"] = self.record.get("clamp_events", 0) + clamps.events
        return self.n_val, dt

    def finish(self) -> None:
        """Batched against per-clip token agreement on the val split (untimed)."""
        values = self.val_set.values
        batched = pipeline.encode_to_tokens(values, self.loaded)
        per_clip = np.stack([pipeline.encode_to_tokens(v, self.loaded) for v in values])
        self.record["encode_batch_match_rate"] = float((batched == per_clip).mean())


# ----------------------------------------------------------------------
# fusion LM workload


class LmWorkload(Workload):
    """train_lm (then an untimed save_checkpoint) -> load_checkpoint ->
    generate (short, long prompt) -> held-out scoring."""

    quality_labels = {"train_loss_final": "train_loss_final", "eval_loss": "heldout_ce"}

    def __init__(self, seed, tmp, gate, inject_nan: bool = False):
        super().__init__(seed, tmp, gate, inject_nan)
        self.cfg = lm.FusionConfig()
        self.train_cfg = lm.LmTrainConfig(epochs=1, batch_size=8, seed=seed)
        self.ckpt = tmp / "lm.msnc"
        self.phases = self.schedule = [
            Phase("train", self.train_op, "train_items_per_s", "lm_train_tokens_per_s", "tokens/s"),
            Phase("load", self.load_op),
            Phase("gen_short", self.gen_short_op, "encode_or_gen_short_items_per_s",
                  "gen_short_tokens_per_s", "tokens/s"),
            Phase("gen_long", self.gen_long_op, "decode_or_gen_long_items_per_s",
                  "gen_long_tokens_per_s", "tokens/s"),
            Phase("eval", self.eval_op, "eval_items_per_s", "eval_tokens_per_s", "tokens/s"),
        ]

    def _fresh_model(self) -> lm.FusionLM:
        model = lm.FusionLM(self.cfg, np.random.default_rng(self.seed))
        lm.extend_vocab(model, LM_N_AUDIO, np.random.default_rng(self.seed + 1))
        return model

    def setup(self) -> None:
        """Caption/code pairs with a .jsonl round trip, model construction, warm-up."""
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0x4C4D)))
        n = LM_TRAIN_SEQUENCES + LM_HELDOUT_SEQUENCES
        pairs = [{"caption": data.gen_caption(int(rng.integers(0, len(data.EVENT_NOUNS))), rng),
                  "audio_tokens": rng.integers(0, LM_N_AUDIO, LM_AUDIO_CODES).tolist()}
                 for _ in range(n)]
        path = self.tmp / "pairs.jsonl"
        data.save_pairs_jsonl(path, pairs)
        pairs = data.load_pairs_jsonl(path)
        self.model = self._fresh_model()
        self.vocab = self.model.vocab
        order_rng = np.random.default_rng(self.seed + 2)
        examples = [lm.build_pretrain_example(p["caption"], p["audio_tokens"], self.vocab, order_rng)
                    for p in pairs]
        self.train_set = examples[:LM_TRAIN_SEQUENCES]
        self.heldout = examples[LM_TRAIN_SEQUENCES:]
        self.short_prompt = self.vocab.encode_text(pairs[LM_TRAIN_SEQUENCES]["caption"])
        long_parts, total = [], 0
        for example in self.heldout:
            if total + len(example) > LONG_PROMPT_MAX:
                break
            long_parts.append(example.ids)
            total += len(example)
        self.long_prompt = np.concatenate(long_parts)
        self.init = snapshot(self.model)
        if self.inject_nan:
            self._poison(self.init, self.model)
        self.loaded = self.model
        with no_grad():
            self.model(self.short_prompt)

    def train_op(self):
        i = self._next("train")
        restore(self.model, self.init)
        planned = self.train_cfg.epochs * math.ceil(len(self.train_set) / self.train_cfg.batch_size)

        report, dt, err = timed(lambda: lm.train_lm(self.train_set, self.model, self.train_cfg))
        if report is None:
            self.gate.check("train", False, err, ops=planned)
        else:
            # Untimed: the load phase reads this checkpoint, and the CLI's
            # `train-lm` writes it after training.
            data.save_checkpoint(self.ckpt, self.model)
            finite = sum(math.isfinite(x) for x in report.step_losses)
            self.gate.check("train step", finite == planned, "non-finite or missing step loss",
                            ops=planned, failed=planned - finite)
            self.counts["train_steps"] += report.steps_run
            self._first("train_loss_final", report.final["loss"])
            self._digest("train", i, np.frombuffer(self.ckpt.read_bytes(), dtype=np.uint8))
        return self.train_cfg.epochs * sum(len(e) - 1 for e in self.train_set), dt

    def load_op(self):
        fresh = self._fresh_model()
        _, dt, err = timed(lambda: data.load_checkpoint(self.ckpt, fresh))
        self.gate.check("load checkpoint", err is None and same_tensors(fresh, self.model),
                        err or "reloaded tensors differ from the trained ones")
        self.loaded = fresh
        return 1, dt

    def _generate(self, phase: str, prompt: np.ndarray, n_new: int):
        i = self._next(phase)
        result, dt, err = timed(lambda: lm.generate(self.loaded, prompt, n_new, temperature=0.0))
        ok = False
        if result is not None:
            gen = result.generated
            ok = (gen.size == n_new and gen.min() >= 0 and gen.max() < self.vocab.size
                  and lm.audio_spans_valid(result.tokens, self.vocab)[0])
            self._digest(phase, i, gen)
        self.gate.check(phase, ok, err or "generated ids out of range, short, or badly bracketed")
        self.counts["new_tokens"] += n_new
        return n_new, dt

    def gen_short_op(self):
        return self._generate("gen_short", self.short_prompt, GEN_SHORT_NEW)

    def gen_long_op(self):
        return self._generate("gen_long", self.long_prompt, GEN_LONG_NEW)

    def _score(self):
        """Weighted cross entropy of the held-out sequences, batch by batch."""
        total = weight = 0.0
        with no_grad():
            for start in range(0, len(self.heldout), self.train_cfg.batch_size):
                batch = self.heldout[start:start + self.train_cfg.batch_size]
                inputs, targets, weights, valid = lm.collate(batch)
                ce, _, _ = lm.weighted_ce_zloss(self.loaded(inputs), targets, weights,
                                                valid_mask=valid)
                w = float(weights[valid].sum())
                total += float(ce.data) * w
                weight += w
        return total / weight

    def eval_op(self):
        i = self._next("eval")
        ce, dt, err = timed(self._score)
        ok = ce is not None and math.isfinite(ce)
        self.gate.check("eval", ok, err or "non-finite held-out cross entropy")
        if ce is not None:
            self._first("eval_loss", ce)
            self._digest("eval", i, np.float64(ce))
        return sum(len(e) - 1 for e in self.heldout), dt

    def finish(self) -> None:
        self.record["long_prompt_tokens"] = int(self.long_prompt.size)
        self.record["short_prompt_tokens"] = int(self.short_prompt.size)


# ----------------------------------------------------------------------
# registry

WORKLOADS = {
    "tok-desk": lambda seed, tmp, gate, nan: TokenizerWorkload(
        seed, tmp, gate, desk_config(), per_clip=False, inject_nan=nan),
    "tok-toy": lambda seed, tmp, gate, nan: TokenizerWorkload(
        seed, tmp, gate, toy_config(), per_clip=True, inject_nan=nan),
    "lm-fusion": lambda seed, tmp, gate, nan: LmWorkload(seed, tmp, gate, inject_nan=nan),
}
