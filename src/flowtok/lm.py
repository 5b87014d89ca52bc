"""Decoder-only language model fusing byte-level text with audio tokens.

The base network (embeddings, attention and MLP weights, layer norms,
output head) is frozen at construction. Everything learned lives in two
places: low-rank adapter factors attached to every linear projection, and
the embedding/output rows added for audio tokens plus the two span
markers. The frozen parts are held as separate tensors and joined with
concat at forward time, so the text slice of the logits is computed by
the exact same arithmetic before and after vocabulary extension.

Audio tokens appear only inside bracketed spans: soa, audio ids, eoa.
Loss weighting is 10x on the whole span (markers included), 1x on text,
0 on instruction-prompt regions during fine-tuning.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from .nn import Linear, Module, TrainReport, TransformerConfig, TransformerStack, fit
from .tensor import (
    DEFAULT_DTYPE,
    ShapeError,
    Tensor,
    concat,
    logsumexp,
    matmul,
    no_grad,
    scale,
    square,
    take_along_last,
    take_rows,
    tsum,
)

AUDIO_WEIGHT = 10.0
TEXT_WEIGHT = 1.0


# ----------------------------------------------------------------------
# vocabulary


@dataclass(frozen=True)
class Vocab:
    """Token id layout: [0, v_text) bytes, then n_audio audio ids, then
    the span markers soa and eoa."""

    v_text: int
    n_audio: int

    def __post_init__(self):
        if self.v_text < 1 or self.n_audio < 1:
            raise ValueError("Vocab needs at least one text and one audio token")

    @property
    def soa(self) -> int:
        return self.v_text + self.n_audio

    @property
    def eoa(self) -> int:
        return self.v_text + self.n_audio + 1

    @property
    def size(self) -> int:
        return self.v_text + self.n_audio + 2

    def audio_ids(self, codes) -> np.ndarray:
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size and (codes.min() < 0 or codes.max() >= self.n_audio):
            raise ValueError(f"audio code outside [0, {self.n_audio})")
        return codes + self.v_text

    def codes_of(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if not np.all(self.is_audio(ids)):
            raise ValueError("codes_of: non-audio id present")
        return ids - self.v_text

    def is_audio(self, ids) -> np.ndarray:
        ids = np.asarray(ids)
        return (ids >= self.v_text) & (ids < self.v_text + self.n_audio)

    def encode_text(self, text: str) -> np.ndarray:
        raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.int64)
        if raw.size and raw.max() >= self.v_text:
            raise ValueError(f"byte value {raw.max()} outside text range [0, {self.v_text})")
        return raw

    def decode_text(self, ids) -> str:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.v_text):
            raise ValueError("decode_text: non-text id present")
        return bytes(ids.astype(np.uint8)).decode("utf-8", errors="replace")


# ----------------------------------------------------------------------
# adapters and model


class LoraLinear(Linear):
    """Frozen dense layer with a trainable low-rank delta.

    out = x W + b + (alpha/rank) (x A) B, where only A and B learn. B
    starts at zero, so a fresh adapter is an exact no-op.
    """

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, dtype=DEFAULT_DTYPE,
                 *, rank: int, alpha: float):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        super().__init__(d_in, d_out, rng, dtype=dtype)
        self.weight.requires_grad = False
        self.bias.requires_grad = False
        self.lora_a = Tensor(rng.normal(0.0, 0.02, size=(d_in, rank)),
                             requires_grad=True, dtype=dtype)
        self.lora_b = Tensor(np.zeros((rank, d_out)), requires_grad=True, dtype=dtype)
        self.scaling = alpha / rank

    def __call__(self, x: Tensor) -> Tensor:
        base = super().__call__(x)
        return base + scale(matmul(matmul(x, self.lora_a), self.lora_b), self.scaling)


@dataclass
class FusionConfig:
    v_text: int = 256
    n_blocks: int = 4
    hidden_dim: int = 128
    head_dim: int = 32
    mlp_ratio: int = 4
    max_len: int = 512
    lora_rank: int = 8
    lora_alpha: float = 16.0

    def __post_init__(self):
        _ = self.transformer  # TransformerConfig checks the block shape

    @property
    def transformer(self) -> TransformerConfig:
        """The causal block stack this configuration describes."""
        return TransformerConfig(n_blocks=self.n_blocks, hidden_dim=self.hidden_dim,
                                 head_dim=self.head_dim, causal=True, max_len=self.max_len,
                                 mlp_ratio=self.mlp_ratio)


class FusionLM(Module):
    """Causal transformer over the fused vocabulary. The stack carries a
    LoRA adapter on every dense layer and is frozen apart from the
    adapter factors."""

    def __init__(self, cfg: FusionConfig, rng: np.random.Generator | None = None,
                 dtype=DEFAULT_DTYPE):
        rng = np.random.default_rng(0) if rng is None else rng
        h = cfg.hidden_dim
        self.text_embed = Tensor(rng.normal(0.0, 0.02, size=(cfg.v_text, h)),
                                 requires_grad=False, dtype=dtype)
        self.pos = Tensor(rng.normal(0.0, 0.02, size=(cfg.max_len, h)),
                          requires_grad=False, dtype=dtype)
        lora = partial(LoraLinear, rank=cfg.lora_rank, alpha=cfg.lora_alpha)
        self.stack = TransformerStack(cfg.transformer, rng, dtype=dtype, linear=lora)
        for name, t in self.stack.named_tensors():
            if not name.endswith((".lora_a", ".lora_b")):
                t.requires_grad = False
        self.out_base = Tensor(rng.normal(0.0, h ** -0.5, size=(h, cfg.v_text)),
                               requires_grad=False, dtype=dtype)
        self.audio_embed: Tensor | None = None
        self.out_ext: Tensor | None = None
        self.vocab: Vocab | None = None
        self.cfg = cfg
        self.dtype = dtype

    @property
    def vocab_size(self) -> int:
        return self.vocab.size if self.vocab is not None else self.cfg.v_text

    def __call__(self, ids) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        squeeze = ids.ndim == 1
        if squeeze:
            ids = ids[None, :]
        if ids.ndim != 2:
            raise ShapeError(f"FusionLM expects (T,) or (B, T) ids, got {ids.shape}")
        b, t = ids.shape
        if t > self.cfg.max_len:
            raise ShapeError(f"sequence length {t} exceeds max_len {self.cfg.max_len}")
        table = self.text_embed
        if self.audio_embed is not None:
            table = concat([self.text_embed, self.audio_embed], axis=0)
        x = self.stack(take_rows(table, ids) + take_rows(self.pos, np.arange(t)))
        logits = matmul(x, self.out_base)
        if self.out_ext is not None:
            logits = concat([logits, matmul(x, self.out_ext)], axis=-1)
        return logits.reshape(t, self.vocab_size) if squeeze else logits


def extend_vocab(model: FusionLM, n_audio: int, rng: np.random.Generator) -> Vocab:
    """Grow the model by n_audio + 2 ids (audio block, soa, eoa). The new
    embedding and output rows are the only tensors added, and the only
    embedding tensors that learn."""
    if model.vocab is not None:
        raise ValueError("extend_vocab: model already extended")
    if n_audio < 1:
        raise ValueError(f"n_audio must be >= 1, got {n_audio}")
    h = model.cfg.hidden_dim
    extra = n_audio + 2
    model.audio_embed = Tensor(rng.normal(0.0, 0.02, size=(extra, h)),
                               requires_grad=True, dtype=model.dtype)
    model.out_ext = Tensor(rng.normal(0.0, 0.02, size=(h, extra)),
                           requires_grad=True, dtype=model.dtype)
    model.vocab = Vocab(v_text=model.cfg.v_text, n_audio=n_audio)
    return model.vocab


def frozen_digest(model: Module) -> str:
    """SHA-256 over every frozen tensor, in registry name order."""
    digest = hashlib.sha256()
    for name, t in model.named_tensors():
        if not t.requires_grad:
            digest.update(name.encode())
            digest.update(t.data.tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# training examples


@dataclass
class FusionSequence:
    """Token ids with per-token target weights.

    weights[t] is the loss weight of x_t as a prediction target;
    weights[0] is never consumed (nothing predicts the first token).
    """

    ids: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return self.ids.shape[0]


def _span(vocab: Vocab, codes) -> np.ndarray:
    return np.concatenate(([vocab.soa], vocab.audio_ids(codes), [vocab.eoa]))


def audio_spans_valid(ids, vocab: Vocab) -> tuple[bool, bool]:
    """(well-formed so far, span open at end). Well-formed means no nested
    soa, no stray eoa, and audio ids only between the markers."""
    open_span = False
    for token in np.asarray(ids, dtype=np.int64):
        if token == vocab.soa:
            if open_span:
                return False, open_span
            open_span = True
        elif token == vocab.eoa:
            if not open_span:
                return False, open_span
            open_span = False
        elif vocab.is_audio(token) and not open_span:
            return False, open_span
    return True, open_span


def build_pretrain_example(caption: str, audio_codes, vocab: Vocab,
                           rng: np.random.Generator) -> FusionSequence:
    """Caption and audio span in coin-flip order, text first on heads."""
    text = vocab.encode_text(caption)
    codes = np.asarray(audio_codes, dtype=np.int64)
    if text.size == 0:
        raise ValueError("build_pretrain_example: empty caption")
    if codes.size == 0:
        raise ValueError("build_pretrain_example: empty audio")
    span = _span(vocab, codes)
    text_weights = np.full(text.shape, TEXT_WEIGHT)
    span_weights = np.full(span.shape, AUDIO_WEIGHT)
    if rng.random() < 0.5:
        return FusionSequence(ids=np.concatenate([text, span]),
                              weights=np.concatenate([text_weights, span_weights]))
    return FusionSequence(ids=np.concatenate([span, text]),
                          weights=np.concatenate([span_weights, text_weights]))


def build_finetune_example(instruction: str, audio_codes, answer: str, vocab: Vocab,
                           answer_audio_codes=None) -> FusionSequence:
    """Instruction-following layout:

        USER: <soa>audio<eoa> {instruction} ASSISTANT: {answer}

    Everything through "ASSISTANT: " (trailing space included) carries
    zero loss weight; the answer carries standard weighting.
    """
    if not instruction:
        raise ValueError("build_finetune_example: empty instruction")
    if not answer:
        raise ValueError("build_finetune_example: empty answer")
    codes = np.asarray(audio_codes, dtype=np.int64)
    if codes.size == 0:
        raise ValueError("build_finetune_example: empty audio")
    prompt = [vocab.encode_text("USER: "), _span(vocab, codes),
              vocab.encode_text(" " + instruction + " ASSISTANT: ")]
    parts = [(part, 0.0) for part in prompt] + [(vocab.encode_text(answer), TEXT_WEIGHT)]
    if answer_audio_codes is not None:
        parts.append((_span(vocab, answer_audio_codes), AUDIO_WEIGHT))
    return FusionSequence(ids=np.concatenate([part for part, _ in parts]),
                          weights=np.concatenate([np.full(part.size, w) for part, w in parts]))


# ----------------------------------------------------------------------
# loss


def weighted_ce_zloss(logits: Tensor, targets, weights, z_coeff: float = 1e-4,
                      valid_mask=None) -> tuple[Tensor, Tensor, Tensor]:
    """Weighted cross entropy plus z-loss on the partition function.

    loss  = sum_t w_t (logsumexp_t - logit_t[target_t]) / sum_t w_t
    zloss = z_coeff * mean over valid t of (logsumexp_t)^2

    valid_mask marks real positions in padded batches; it defaults to all
    valid and is independent of the loss weights (zero-weight prompt
    tokens are still valid positions).
    """
    targets = np.asarray(targets, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(f"targets shape {targets.shape} vs logits {logits.shape}")
    if weights.shape != targets.shape:
        raise ShapeError(f"weights shape {weights.shape} vs targets {targets.shape}")
    if valid_mask is None:
        valid_mask = np.ones(targets.shape, dtype=bool)
    else:
        valid_mask = np.asarray(valid_mask, dtype=bool)
        if valid_mask.shape != targets.shape:
            raise ShapeError(f"valid_mask shape {valid_mask.shape} vs targets {targets.shape}")
    weights = np.where(valid_mask, weights, 0.0)
    weight_sum = float(weights.sum())
    if weight_sum <= 0.0:
        raise ValueError("weighted_ce_zloss: weights sum to zero")
    n_valid = int(valid_mask.sum())

    lse = logsumexp(logits)
    ce = lse - take_along_last(logits, targets)
    w = Tensor(weights.astype(lse.dtype))
    loss = scale(tsum(ce * w), 1.0 / weight_sum)
    v = Tensor(valid_mask.astype(lse.dtype))
    zloss = scale(tsum(square(lse) * v), z_coeff / n_valid)
    return loss, zloss, loss + zloss


# ----------------------------------------------------------------------
# training


@dataclass
class LmTrainConfig:
    lr: float = 1e-3
    weight_decay: float = 0.01
    epochs: int = 10
    batch_size: int = 8
    z_coeff: float = 1e-4
    seed: int = 0


def collate(examples: list[FusionSequence]):
    """Pad a batch to its longest sequence. Returns (inputs, targets,
    weights, valid): inputs are ids[:-1], targets ids[1:], both padded
    with zeros; valid marks real target positions."""
    if not examples:
        raise ValueError("collate: empty batch")
    width = max(len(e) for e in examples) - 1
    if width < 1:
        raise ValueError("collate: sequences must have at least 2 tokens")
    b = len(examples)
    inputs = np.zeros((b, width), dtype=np.int64)
    targets = np.zeros((b, width), dtype=np.int64)
    weights = np.zeros((b, width), dtype=np.float64)
    valid = np.zeros((b, width), dtype=bool)
    for i, example in enumerate(examples):
        n = len(example) - 1
        inputs[i, :n] = example.ids[:-1]
        targets[i, :n] = example.ids[1:]
        weights[i, :n] = example.weights[1:]
        valid[i, :n] = True
    return inputs, targets, weights, valid


def train_lm(examples: list[FusionSequence], model: FusionLM, cfg: LmTrainConfig,
             metrics=None, max_steps: int | None = None) -> TrainReport:
    """Adapter and new-row training; a non-finite loss rolls the model back
    to its last finite state and raises DivergenceError."""
    if not examples:
        raise ValueError("train_lm: no examples")
    if model.vocab is None:
        raise ValueError("train_lm: extend_vocab must run before training")

    def loss_fn(rows):
        inputs, targets, weights, valid = collate([examples[i] for i in rows])
        loss, zloss, total = weighted_ce_zloss(model(inputs), targets, weights,
                                               z_coeff=cfg.z_coeff, valid_mask=valid)
        terms = {"ce": float(loss.data), "zloss": float(zloss.data), "loss": float(total.data)}
        return total, terms, None

    return fit(model, len(examples), loss_fn, rng=np.random.default_rng(cfg.seed),
               epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr,
               weight_decay=cfg.weight_decay, metrics=metrics, max_steps=max_steps)


def next_token_accuracy(model: FusionLM, examples: list[FusionSequence]) -> float:
    """Greedy accuracy over positions that carry loss weight."""
    hits = 0
    total = 0
    with no_grad():
        for example in examples:
            logits = model(example.ids[:-1]).data
            predictions = logits.argmax(axis=-1)
            mask = example.weights[1:] > 0
            hits += int((predictions[mask] == example.ids[1:][mask]).sum())
            total += int(mask.sum())
    if total == 0:
        raise ValueError("next_token_accuracy: no weighted positions")
    return hits / total


# ----------------------------------------------------------------------
# generation


@dataclass
class GenerationResult:
    tokens: np.ndarray
    generated: np.ndarray
    unclosed_audio: bool


def generate(model: FusionLM, prompt, max_new_tokens: int,
             rng: np.random.Generator | None = None, temperature: float = 1.0,
             top_k: int | None = None, constrain_audio: bool = True) -> GenerationResult:
    """Autoregressive sampling with optional audio-span masking.

    Inside an open span only audio ids and eoa can be sampled; outside,
    audio ids and eoa are masked off. temperature 0 decodes greedily.
    Hitting the length limit inside a span sets unclosed_audio.
    """
    if model.vocab is None:
        raise ValueError("generate: extend_vocab must run first")
    vocab = model.vocab
    ids = np.asarray(prompt, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ShapeError("generate: prompt must be a nonempty 1-D id sequence")
    if ids.min() < 0 or ids.max() >= vocab.size:
        raise ValueError(f"generate: prompt id outside [0, {vocab.size})")
    well_formed, open_span = audio_spans_valid(ids, vocab)
    if not well_formed:
        raise ValueError("generate: prompt violates the audio-span bracketing")
    rng = np.random.default_rng(0) if rng is None else rng

    in_span = np.append(np.arange(vocab.v_text, vocab.v_text + vocab.n_audio), vocab.eoa)
    outside = np.append(np.arange(vocab.v_text), vocab.soa)
    out = list(ids)
    with no_grad():
        for _ in range(max_new_tokens):
            if len(out) >= model.cfg.max_len:
                break
            logits = model(np.asarray(out, dtype=np.int64)).data[-1].astype(np.float64)
            if constrain_audio:
                masked = np.full_like(logits, -np.inf)
                allowed = in_span if open_span else outside
                masked[allowed] = logits[allowed]
                logits = masked
            if temperature <= 0.0:
                token = int(np.argmax(logits))
            else:
                scores = logits / temperature
                if top_k is not None and top_k >= 1:
                    keep = np.argsort(scores)[-top_k:]
                    pruned = np.full_like(scores, -np.inf)
                    pruned[keep] = scores[keep]
                    scores = pruned
                scores = scores - scores.max()
                probs = np.exp(scores)
                probs /= probs.sum()
                token = int(rng.choice(probs.size, p=probs))
            out.append(token)
            if token == vocab.soa:
                open_span = True
            elif token == vocab.eoa:
                open_span = False
    tokens = np.asarray(out, dtype=np.int64)
    return GenerationResult(tokens=tokens, generated=tokens[ids.size:],
                            unclosed_audio=open_span)
