"""Timing spans around flowtok's public functions and module calls.

A `Tracer` is installed only for traced runs. It rebinds every public tape
op, function and module `__call__` named below for as long as it is
active, and restores the originals on exit; no flowtok source changes.
Functions are rebound in every loaded flowtok module that holds them,
because `nn`, `lm`, `flow`, `pipeline` and `vq` import ops by name and
patching `flowtok.tensor` alone would miss their calls.

Each span is `[name, start, end, parent, op, phase]`: `parent` is the
index of the enclosing span (-1 at the top), `op` the id of the benchmark
operation it belongs to (a train step, an encode or decode call, a
generated token) and `phase` the benchmark phase. Spans stay in memory;
`layer_metrics` folds one round of them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

TENSOR_OPS = ("add", "sub", "mul", "div", "neg", "scale", "power", "square", "texp", "tlog",
              "tanh", "gelu", "matmul", "tsum", "tmean", "reshape", "swapaxes", "broadcast_to",
              "concat", "take_rows", "take_along_last", "logsumexp", "softmax")

# Module-level functions, by the flowtok module that defines them.
FUNCTIONS = {
    "tensor": TENSOR_OPS,
    "nn": ("attention",),
    "vq": ("nearest_entries", "quantize", "straight_through", "codebook_maintenance"),
    "flow": ("sample_path", "cfm_loss", "euler_sample", "mse_reconstruct"),
    "pipeline": ("encode_to_tokens", "decode_tokens", "train_tokenizer"),
    "data": ("gen_latent_dataset", "save_latents", "load_latents", "save_pairs_jsonl",
             "load_pairs_jsonl", "save_checkpoint", "load_checkpoint"),
    "evaluation": ("decode_split", "reconstruction_error", "gaussian_stats", "frechet_distance"),
    "lm": ("collate", "weighted_ce_zloss", "train_lm", "generate"),
}

# Class methods; a `__call__` span is named after its class alone.
METHODS = {
    "tensor": (("Tensor", "backward"),),
    "nn": (("Linear", "__call__"), ("LayerNorm", "__call__"), ("Mlp", "__call__"),
           ("TimestepEmbedding", "__call__"), ("AdamW", "step")),
    "flow": (("DitDecoder", "__call__"),),
    "pipeline": (("CausalEncoder", "__call__"),),
    "lm": (("FusionLM", "__call__"), ("LoraLinear", "__call__")),
}

# A span of the key, called directly inside a span of the value, starts a
# new operation: one train step, or one generated token.
OP_STARTS = {
    "pipeline.CausalEncoder": "pipeline.train_tokenizer",
    "lm.collate": "lm.train_lm",
    "lm.FusionLM": "lm.generate",
}

NAME, START, END, PARENT, OP, PHASE = range(6)


def _count_restarts(tracer, span, args, result):
    tracer.counters["vq.restarts"] += len(result)


def _count_checkpoint_bytes(tracer, span, args, result):
    tracer.counters["data.checkpoint_bytes"] += os.path.getsize(args[0])


def _count_decoder_passes(tracer, span, args, result):
    """Clips times decoder passes while decoding: the sampler's NFE per clip."""
    if span[PHASE] in ("decode", "eval"):
        x_t = args[1]
        tracer.counters["flow.decoder_clip_passes"] += x_t.shape[0] if np.ndim(x_t) == 3 else 1


def _count_positions(tracer, span, args, result):
    if span[PARENT] >= 0 and tracer.spans[span[PARENT]][NAME] == "lm.generate":
        tracer.counters["lm.generate_positions"] += np.asarray(args[1]).size


RESULT_HOOKS = {
    "vq.codebook_maintenance": _count_restarts,
    "data.save_checkpoint": _count_checkpoint_bytes,
    "flow.DitDecoder": _count_decoder_passes,
    "lm.FusionLM": _count_positions,
}


class Tracer:
    """Context manager that records a span for every wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.phase = "setup"
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin_op(self, phase: str) -> None:
        """Start a new benchmark operation in the given phase."""
        self.phase = phase
        self.op += 1

    def _wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        stack = self._stack
        starts_under = OP_STARTS.get(name)
        hook = RESULT_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if starts_under is not None and parent >= 0 and spans[parent][NAME] == starts_under:
                tracer.op += 1
            span = [name, 0.0, 0.0, parent, tracer.op, tracer.phase]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, span, args, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        layers = {name: importlib.import_module(f"flowtok.{name}") for name in FUNCTIONS}
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "flowtok" or n.startswith("flowtok."))]
        for layer, names in FUNCTIONS.items():
            for attr in names:
                original = getattr(layers[layer], attr)
                wrapped = self._wrap(f"{layer}.{attr}", original)
                for module in loaded:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapped)
        for layer, pairs in METHODS.items():
            for cls_name, method in pairs:
                cls = getattr(layers[layer], cls_name)
                name = f"{layer}.{cls_name}" if method == "__call__" else f"{layer}.{cls_name}.{method}"
                self._set(cls, method, self._wrap(name, cls.__dict__[method]))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


# Per-layer metrics: (name, unit, better). BENCHMARK.json lists the same.
TRACKED_OPS = ("matmul", "gelu", "softmax", "add", "tmean", "take_rows", "concat",
               "broadcast_to", "logsumexp")
LAYER_METRICS = [
    ("tensor.backward_ms_per_step", "ms/step", "lower"),
    ("tensor.op_calls_per_step", "count", "lower"),
    *[(f"tensor.{op}.{kind}", unit, "lower")
      for op in TRACKED_OPS for kind, unit in (("self_ms", "ms"), ("calls", "count"))],
    ("nn.attention_ms", "ms", "lower"),
    ("nn.mlp_ms", "ms", "lower"),
    ("nn.layernorm_ms", "ms", "lower"),
    ("nn.linear_ms", "ms", "lower"),
    ("nn.timestep_embed_ms", "ms", "lower"),
    ("nn.adamw_ms_per_step", "ms/step", "lower"),
    ("vq.nearest_ms", "ms", "lower"),
    ("vq.quantize_ms", "ms", "lower"),
    ("vq.maintenance_ms_per_step", "ms/step", "lower"),
    ("vq.restarts", "count", "lower"),
    ("vq.perplexity", "count", "higher"),
    ("flow.decoder_ms", "ms", "lower"),
    ("flow.decoder_calls_per_clip", "calls/clip", "lower"),
    ("flow.euler_self_ms", "ms", "lower"),
    ("flow.sample_path_ms", "ms", "lower"),
    ("flow.cfm_loss_ms", "ms", "lower"),
    ("flow.mse_reconstruct_ms", "ms", "lower"),
    ("pipeline.encoder_ms", "ms", "lower"),
    ("pipeline.decode_tokens_ms", "ms", "lower"),
    ("pipeline.train_self_ms_per_step", "ms/step", "lower"),
    ("data.save_checkpoint_ms", "ms", "lower"),
    ("data.checkpoint_writes", "count", "lower"),
    ("data.checkpoint_bytes", "bytes", "lower"),
    ("data.load_checkpoint_ms", "ms", "lower"),
    ("data.gen_latents_ms", "ms", "lower"),
    ("data.latents_io_ms", "ms", "lower"),
    ("data.pairs_io_ms", "ms", "lower"),
    ("evaluation.decode_split_ms", "ms", "lower"),
    ("evaluation.frechet_ms", "ms", "lower"),
    ("evaluation.clamp_events", "count", "lower"),
    ("lm.forward_ms_per_call", "ms/call", "lower"),
    ("lm.forward_calls", "count", "lower"),
    ("lm.positions_per_new_token", "positions/token", "lower"),
    ("lm.generate_self_ms_per_token", "ms/token", "lower"),
    ("lm.lora_linear_ms", "ms", "lower"),
    ("lm.loss_ms_per_step", "ms/step", "lower"),
    ("lm.collate_ms_per_step", "ms/step", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(tracer: Tracer, counts: Counter) -> dict[str, float]:
    """Fold one traced round into the per-layer metrics (all but the
    tracing overhead, which the caller measures).

    `counts` holds what the workload did in the round: train_steps,
    decoded_clips, new_tokens, clamp_events and perplexity. The `lm.forward`
    metrics count only the forwards `generate` makes. Plain `_ms`
    metrics are inclusive totals over the round; no wrapped call nests
    inside a call of the same name, so summing durations counts each
    interval once.
    """
    spans = tracer.spans
    own = self_times(spans)
    total = defaultdict(float)       # inclusive ms by name
    self_ms = defaultdict(float)
    calls = Counter()
    by_phase = defaultdict(float)    # (name, phase) -> inclusive ms
    calls_by_phase = Counter()
    gen_forward_ms = gen_forwards = 0.0  # FusionLM calls made by generate
    for span, s in zip(spans, own):
        name, phase = span[NAME], span[PHASE]
        ms = (span[END] - span[START]) * 1e3
        total[name] += ms
        self_ms[name] += s * 1e3
        calls[name] += 1
        by_phase[name, phase] += ms
        calls_by_phase[name, phase] += 1
        if name == "lm.FusionLM" and span[PARENT] >= 0 and spans[span[PARENT]][NAME] == "lm.generate":
            gen_forward_ms += ms
            gen_forwards += 1
    steps = counts["train_steps"]
    tokens = counts["new_tokens"]
    tape_ops = {f"tensor.{op}" for op in TENSOR_OPS} | {"vq.straight_through"}
    train_op_calls = sum(n for (name, phase), n in calls_by_phase.items()
                         if phase == "train" and name in tape_ops)
    out = {
        "tensor.backward_ms_per_step": _per(by_phase["tensor.Tensor.backward", "train"], steps),
        "tensor.op_calls_per_step": _per(train_op_calls, steps),
    }
    for op in TRACKED_OPS:
        out[f"tensor.{op}.self_ms"] = self_ms[f"tensor.{op}"]
        out[f"tensor.{op}.calls"] = float(calls[f"tensor.{op}"])
    out.update({
        "nn.attention_ms": total["nn.attention"],
        "nn.mlp_ms": total["nn.Mlp"],
        "nn.layernorm_ms": total["nn.LayerNorm"],
        "nn.linear_ms": total["nn.Linear"],
        "nn.timestep_embed_ms": total["nn.TimestepEmbedding"],
        "nn.adamw_ms_per_step": _per(by_phase["nn.AdamW.step", "train"], steps),
        "vq.nearest_ms": total["vq.nearest_entries"],
        "vq.quantize_ms": total["vq.quantize"],
        "vq.maintenance_ms_per_step": _per(by_phase["vq.codebook_maintenance", "train"], steps),
        "vq.restarts": float(tracer.counters["vq.restarts"]),
        "vq.perplexity": float(counts["perplexity"]),
        "flow.decoder_ms": total["flow.DitDecoder"],
        "flow.decoder_calls_per_clip": _per(tracer.counters["flow.decoder_clip_passes"],
                                            counts["decoded_clips"]),
        "flow.euler_self_ms": self_ms["flow.euler_sample"],
        "flow.sample_path_ms": total["flow.sample_path"],
        "flow.cfm_loss_ms": total["flow.cfm_loss"],
        "flow.mse_reconstruct_ms": total["flow.mse_reconstruct"],
        "pipeline.encoder_ms": total["pipeline.CausalEncoder"],
        "pipeline.decode_tokens_ms": total["pipeline.decode_tokens"],
        "pipeline.train_self_ms_per_step": _per(self_ms["pipeline.train_tokenizer"], steps),
        "data.save_checkpoint_ms": total["data.save_checkpoint"],
        "data.checkpoint_writes": float(calls["data.save_checkpoint"]),
        "data.checkpoint_bytes": float(tracer.counters["data.checkpoint_bytes"]),
        "data.load_checkpoint_ms": total["data.load_checkpoint"],
        "data.gen_latents_ms": total["data.gen_latent_dataset"],
        "data.latents_io_ms": total["data.save_latents"] + total["data.load_latents"],
        "data.pairs_io_ms": total["data.save_pairs_jsonl"] + total["data.load_pairs_jsonl"],
        "evaluation.decode_split_ms": total["evaluation.decode_split"],
        "evaluation.frechet_ms": total["evaluation.frechet_distance"],
        "evaluation.clamp_events": float(counts["clamp_events"]),
        "lm.forward_ms_per_call": _per(gen_forward_ms, gen_forwards),
        "lm.forward_calls": gen_forwards,
        "lm.positions_per_new_token": _per(tracer.counters["lm.generate_positions"], tokens),
        "lm.generate_self_ms_per_token": _per(self_ms["lm.generate"], tokens),
        "lm.lora_linear_ms": total["lm.LoraLinear"],
        "lm.loss_ms_per_step": _per(by_phase["lm.weighted_ce_zloss", "train"], steps),
        "lm.collate_ms_per_step": _per(by_phase["lm.collate", "train"], steps),
    })
    return out
