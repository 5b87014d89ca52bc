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

generate builds one decoding cache per call (FusionLM.new_cache), runs
the prompt through the model once, then feeds one position per new
token. The cache holds every inference-only array: each block's nn.KVEntry,
where every adapter is folded into its base weight, W + (alpha/rank) A B,
so each dense layer is one GEMM and q/k/v are one, and the embedding
table and output head joined once. A cached call runs on plain arrays
and computes logits for its last position only: it records no tape node.
generate changes nothing in the model; training and any uncached forward
use the factored form.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import save_checkpoint
from .nn import (
    KVEntry,
    Linear,
    Module,
    TrainReport,
    TransformerConfig,
    TransformerStack,
    fit,
)
from .tensor import (
    DEFAULT_DTYPE,
    NumericFault,
    ShapeError,
    Tensor,
    concat,
    dense_forward,
    logsumexp,
    matmul,
    no_grad,
    scale,
    square,
    take_along_last,
    take_rows,
    take_rows_forward,
    tsum,
)

AUDIO_WEIGHT = 10.0
TEXT_WEIGHT = 1.0
Z_COEFF = 1e-4


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
        codes = as_ids(codes)
        if codes.size and (codes.min() < 0 or codes.max() >= self.n_audio):
            raise ValueError(f"audio code outside [0, {self.n_audio})")
        return codes + self.v_text

    def is_audio(self, ids) -> np.ndarray:
        ids = np.asarray(ids)
        return (ids >= self.v_text) & (ids < self.v_text + self.n_audio)

    def encode_text(self, text: str) -> np.ndarray:
        raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.int64)
        if raw.size and raw.max() >= self.v_text:
            raise ValueError(f"byte value {raw.max()} outside text range [0, {self.v_text})")
        return raw

    def decode_text(self, ids) -> str:
        ids = as_ids(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.v_text):
            raise ValueError("decode_text: non-text id present")
        return bytes(ids.astype(np.uint8)).decode("utf-8", errors="replace")


# ----------------------------------------------------------------------
# adapters and model


class LoraLinear(Linear):
    """Frozen dense layer with a trainable low-rank delta.

    out = x W + b + (alpha/rank) (x A) B, where only A and B learn. B
    starts at zero, so a fresh adapter is an exact no-op; the frozen x W + b
    is one dense node. A decoding cache (nn.KVEntry) runs the layer as
    x (W + (alpha/rank) A B) + b, one GEMM on merged_weight, a plain array
    the cache holds and the model never does.
    """

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, *, rank: int,
                 alpha: float):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        super().__init__(d_in, d_out, rng)
        self.weight.requires_grad = False
        self.bias.requires_grad = False
        self.lora_a = Tensor(rng.normal(0.0, 0.02, size=(d_in, rank)),
                             requires_grad=True, dtype=DEFAULT_DTYPE)
        self.lora_b = Tensor(np.zeros((rank, d_out)), requires_grad=True, dtype=DEFAULT_DTYPE)
        self.scaling = alpha / rank

    def __call__(self, x: Tensor) -> Tensor:
        base = super().__call__(x)
        return base + scale(matmul(matmul(x, self.lora_a), self.lora_b), self.scaling)

    def merged_weight(self) -> np.ndarray:
        """W + (alpha/rank) A B in W's dtype: the adapter folded in."""
        delta = self.lora_a.data @ self.lora_b.data
        return (self.weight.data + self.scaling * delta).astype(self.weight.dtype, copy=False)


def as_ids(ids) -> np.ndarray:
    """ids as an int64 array. A float or bool array would truncate or index
    as 0/1 without a word, so any non-integer dtype is refused; an empty
    list, which NumPy reads as float, passes to the length checks."""
    ids = np.asarray(ids)
    if ids.size and not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"token ids must be integers, got dtype {ids.dtype}")
    return ids.astype(np.int64, copy=False)


@dataclass
class FusionConfig:
    v_text: int = 256
    n_blocks: int = 4
    hidden_dim: int = 128
    head_dim: int = 32
    max_len: int = 512
    lora_rank: int = 8
    lora_alpha: float = 16.0

    def __post_init__(self):
        _ = self.transformer  # TransformerConfig checks the block shape

    @property
    def transformer(self) -> TransformerConfig:
        """The causal block stack this configuration describes."""
        return TransformerConfig(n_blocks=self.n_blocks, hidden_dim=self.hidden_dim,
                                 head_dim=self.head_dim, causal=True, max_len=self.max_len)


@dataclass
class DecodeCache:
    """One generate call's decoding state: a KVEntry per block, the
    embedding table (V, H) and the output head (H, V), each joined once."""

    blocks: list[KVEntry]
    table: np.ndarray
    head: np.ndarray


class FusionLM(Module):
    """Causal transformer over the fused vocabulary. The stack carries a
    LoRA adapter on every dense layer and is frozen apart from the
    adapter factors, its position table included."""

    def __init__(self, cfg: FusionConfig, rng: np.random.Generator | None = None):
        rng = np.random.default_rng(0) if rng is None else rng
        h = cfg.hidden_dim
        self.text_embed = Tensor(rng.normal(0.0, 0.02, size=(cfg.v_text, h)),
                                 requires_grad=False, dtype=DEFAULT_DTYPE)
        lora = partial(LoraLinear, rank=cfg.lora_rank, alpha=cfg.lora_alpha)
        self.stack = TransformerStack(cfg.transformer, rng, linear=lora)
        for name, t in self.stack.named_tensors():
            if not name.endswith((".lora_a", ".lora_b")):
                t.requires_grad = False
        self.out_base = Tensor(rng.normal(0.0, h ** -0.5, size=(h, cfg.v_text)),
                               requires_grad=False, dtype=DEFAULT_DTYPE)
        self.audio_embed: Tensor | None = None
        self.out_ext: Tensor | None = None
        self.vocab: Vocab | None = None
        self.cfg = cfg

    def new_cache(self, max_len: int) -> DecodeCache:
        """A decoding cache for up to max_len positions."""
        rows = [t.data for t in (self.text_embed, self.audio_embed) if t is not None]
        cols = [t.data for t in (self.out_base, self.out_ext) if t is not None]
        return DecodeCache(self.stack.new_cache(max_len), np.concatenate(rows),
                           np.concatenate(cols, axis=1))

    def __call__(self, ids, cache: DecodeCache | None = None) -> Tensor:
        """Logits for ids. With a cache (new_cache), ids are the positions
        after the cached ones, the cache grows by them, and the call gives
        the logits of its last position only, recording no tape node."""
        ids = as_ids(ids)
        if ids.ndim not in (1, 2):
            raise ShapeError(f"FusionLM expects (T,) or (B, T) ids, got {ids.shape}")
        if cache is not None:
            x = self.stack(Tensor(take_rows_forward(cache.table, ids)), cache.blocks).data
            return Tensor(dense_forward(x[..., -1:, :], cache.head, None))
        table = self.text_embed
        if self.audio_embed is not None:
            table = concat([self.text_embed, self.audio_embed], axis=0)
        x = self.stack(take_rows(table, ids))
        logits = matmul(x, self.out_base)
        if self.out_ext is not None:
            logits = concat([logits, matmul(x, self.out_ext)], axis=-1)
        return logits


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
                               requires_grad=True, dtype=model.text_embed.dtype)
    model.out_ext = Tensor(rng.normal(0.0, 0.02, size=(h, extra)),
                           requires_grad=True, dtype=model.text_embed.dtype)
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


def audio_segments(ids, vocab: Vocab) -> list[dict]:
    """Parse a token stream into segments, in the order they start.

    Text bytes outside a span form {"type": "text", "text"} runs. A span
    soa ... eoa is {"type": "audio", "codes"}, with "unclosed": True when
    the stream ends inside it. Inside a span only audio ids and eoa belong,
    the set generate's constraint allows; any other token there, and an
    audio id, eoa or out-of-range id outside one, is {"type": "marker", "id"}.
    """
    segments: list[dict] = []
    span: dict | None = None
    v_text, soa, eoa = vocab.v_text, vocab.soa, vocab.eoa
    for token in as_ids(ids).tolist():
        if span is not None and v_text <= token < soa:
            span["codes"].append(token - v_text)
        elif span is not None and token == eoa:
            span = None
        elif span is None and token == soa:
            span = {"type": "audio", "codes": []}
            segments.append(span)
        elif span is None and 0 <= token < v_text:
            if segments and segments[-1]["type"] == "text":
                segments[-1]["text"].append(token)
            else:
                segments.append({"type": "text", "text": [token]})
        else:
            segments.append({"type": "marker", "id": token})
    if span is not None:
        span["unclosed"] = True
    for segment in segments:
        if segment["type"] == "text":
            segment["text"] = vocab.decode_text(segment["text"])
    return segments


def audio_spans_valid(ids, vocab: Vocab) -> tuple[bool, bool]:
    """(well-formed, span open at end): well-formed means audio_segments
    finds no marker, so audio ids sit only between soa and eoa, spans hold
    nothing else, and no soa nests and no eoa strays."""
    segments = audio_segments(ids, vocab)
    return (all(s["type"] != "marker" for s in segments),
            any("unclosed" in s for s in segments))


def build_pretrain_example(caption: str, audio_codes, vocab: Vocab,
                           rng: np.random.Generator) -> FusionSequence:
    """Caption and audio span in coin-flip order, text first on heads."""
    text = vocab.encode_text(caption)
    codes = as_ids(audio_codes)
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


def build_finetune_example(instruction: str, audio_codes, answer: str,
                           vocab: Vocab) -> FusionSequence:
    """Instruction-following layout:

        USER: <soa>audio<eoa> {instruction} ASSISTANT: {answer}

    Everything through "ASSISTANT: " (trailing space included) carries
    zero loss weight; the answer carries standard weighting.
    """
    if not instruction:
        raise ValueError("build_finetune_example: empty instruction")
    if not answer:
        raise ValueError("build_finetune_example: empty answer")
    codes = as_ids(audio_codes)
    if codes.size == 0:
        raise ValueError("build_finetune_example: empty audio")
    prompt = np.concatenate([vocab.encode_text("USER: "), _span(vocab, codes),
                             vocab.encode_text(" " + instruction + " ASSISTANT: ")])
    reply = vocab.encode_text(answer)
    return FusionSequence(ids=np.concatenate([prompt, reply]),
                          weights=np.concatenate([np.zeros(prompt.size),
                                                  np.full(reply.size, TEXT_WEIGHT)]))


# ----------------------------------------------------------------------
# loss


def weighted_ce_zloss(logits: Tensor, targets, weights, z_coeff: float = Z_COEFF, *,
                      valid_mask) -> tuple[Tensor, Tensor, Tensor]:
    """Weighted cross entropy plus z-loss on the partition function.

    loss  = sum_t w_t (logsumexp_t - logit_t[target_t]) / sum_t w_t
    zloss = z_coeff * mean over valid t of (logsumexp_t)^2

    valid_mask marks real positions in padded batches, as collate returns
    it; it is independent of the loss weights (zero-weight prompt tokens
    are still valid positions).
    """
    targets = np.asarray(targets, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(f"targets shape {targets.shape} vs logits {logits.shape}")
    if weights.shape != targets.shape:
        raise ShapeError(f"weights shape {weights.shape} vs targets {targets.shape}")
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
    z_coeff: float = Z_COEFF
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
             metrics=None, checkpoint_path=None) -> TrainReport:
    """Adapter and new-row training. The model is written to
    checkpoint_path, when given, after every epoch. A non-finite loss rolls
    the model back to its last finite state, writes that state to
    checkpoint_path, and raises DivergenceError."""
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

    checkpoint = None if checkpoint_path is None else (
        lambda: save_checkpoint(checkpoint_path, model))
    return fit(model, len(examples), loss_fn, rng=np.random.default_rng(cfg.seed),
               epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr,
               weight_decay=cfg.weight_decay, metrics=metrics,
               checkpoint=checkpoint)


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


def check_prompt(ids: np.ndarray, max_len: int) -> None:
    """Refuse a prompt generate cannot extend: empty, not 1-D, or max_len long."""
    if ids.ndim != 1 or ids.size == 0:
        raise ShapeError("generate: prompt must be a nonempty 1-D id sequence")
    if ids.size >= max_len:
        raise ShapeError(f"generate: prompt of {ids.size} tokens fills max_len {max_len}")


def generate(model: FusionLM, prompt, max_new_tokens: int,
             rng: np.random.Generator | None = None, temperature: float = 1.0,
             top_k: int | None = None, constrain_audio: bool = True) -> GenerationResult:
    """Autoregressive sampling with optional audio-span masking.

    The prompt runs through the model once and fills a decoding cache
    (FusionLM.new_cache); each later model call feeds only the newest
    token, so a call per new token costs one position however long the
    context, and every adapter runs folded into its base weight. Inside an
    open span only audio ids and eoa can be sampled; outside, audio ids
    and eoa are masked off.
    temperature 0 decodes greedily; top_k, when given, samples among the k
    likeliest ids. Hitting the length limit inside a span sets
    unclosed_audio; a non-finite logit, masked off or not, raises NumericFault.
    """
    if max_new_tokens < 0:
        raise ValueError(f"generate: max_new_tokens must be >= 0, got {max_new_tokens}")
    if top_k is not None and top_k < 1:
        raise ValueError(f"generate: top_k must be >= 1, got {top_k}")
    if not 0.0 <= temperature < math.inf:
        raise ValueError(f"generate: temperature must be finite and >= 0, got {temperature}")
    if model.vocab is None:
        raise ValueError("generate: extend_vocab must run first")
    vocab = model.vocab
    ids = as_ids(prompt)
    check_prompt(ids, model.cfg.max_len)
    if ids.min() < 0 or ids.max() >= vocab.size:
        raise ValueError(f"generate: prompt id outside [0, {vocab.size})")
    well_formed, open_span = audio_spans_valid(ids, vocab)
    if not well_formed:
        raise ValueError("generate: prompt violates the audio-span bracketing")
    rng = np.random.default_rng(0) if rng is None else rng

    # The ids allowed inside an open span and outside one.
    every_id = np.arange(vocab.size)
    inside = vocab.is_audio(every_id) | (every_id == vocab.eoa)
    outside = (every_id < vocab.v_text) | (every_id == vocab.soa)
    out = list(ids)
    # Room for the prompt and every new token, the most this call can
    # write: buffers of the whole max_len would hold positions it never
    # fills.
    cache = model.new_cache(min(model.cfg.max_len, ids.size + max_new_tokens))
    feed = ids
    with no_grad():
        for step in range(max_new_tokens):
            if len(out) >= model.cfg.max_len:
                break
            logits = model(feed, cache).data[-1].astype(np.float64)
            if not np.isfinite(logits).all():
                raise NumericFault(f"generate: non-finite logit for new token {step}")
            if constrain_audio:
                logits = np.where(inside if open_span else outside, logits, -np.inf)
            if temperature == 0.0:
                token = int(np.argmax(logits))
            else:
                # Shifted before the division, so a tiny temperature sends
                # every other score to -inf instead of overflowing to inf.
                with np.errstate(over="ignore"):
                    scores = (logits - logits.max()) / temperature
                if top_k is not None:
                    keep = np.argsort(scores)[-top_k:]
                    pruned = np.full_like(scores, -np.inf)
                    pruned[keep] = scores[keep]
                    scores = pruned
                probs = np.exp(scores)
                probs /= probs.sum()
                token = int(rng.choice(probs.size, p=probs))
            out.append(token)
            feed = np.array([token], dtype=np.int64)
            if token == vocab.soa:
                open_span = True
            elif token == vocab.eoa:
                open_span = False
    tokens = np.asarray(out, dtype=np.int64)
    return GenerationResult(tokens=tokens, generated=tokens[ids.size:],
                            unclosed_audio=open_span)
