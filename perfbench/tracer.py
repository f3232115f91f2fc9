"""Spans around the public functions of each capgan layer, recorded from
outside the package.

A probe replaces a function or method with a wrapper that times each call
and keeps a stack of open spans, so every span has an inclusive time and a
self time (inclusive minus the time of the probed calls it made). Probes
are installed wherever the original is bound: the package uses
from-imports, so ``capgan.training.rollout`` and ``capgan.decoding.rollout``
are two bindings of one function, and both are replaced.

``install_clocks`` adds the two probes that untraced runs keep (one clock
tick per training epoch, one timing per generated clip); ``Tracer`` adds
the per-layer spans for traced runs and removes them again.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

from capgan.text import EOS, PAD, SOS


def _unwrapped(obj):
    while hasattr(obj, "__wrapped__"):
        obj = obj.__wrapped__
    return obj


def _owner(dotted: str):
    """'capgan.models:Generator.encode' -> (owner object, attribute name)."""
    module_name, _, path = dotted.partition(":")
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Patches:
    """Replaces every binding of a function and restores them all later."""

    def __init__(self):
        self._saved = []

    def wrap(self, dotted: str, make_wrapper) -> None:
        owner, attr = _owner(dotted)
        original = _unwrapped(getattr(owner, attr))
        if isinstance(owner, type):
            bindings = [(owner, attr)]
        else:
            bindings = [
                (module, name)
                for module_name, module in list(sys.modules.items())
                if module_name == "capgan" or module_name.startswith("capgan.")
                for name, value in list(vars(module).items())
                if _unwrapped(value) is original
            ]
        for target, name in bindings:
            current = getattr(target, name)
            self._saved.append((target, name, current))
            setattr(target, name, make_wrapper(current))

    def restore(self) -> None:
        for target, name, value in reversed(self._saved):
            setattr(target, name, value)
        self._saved.clear()


class Clocks:
    """Epoch ticks and per-clip times: the only probes of untraced runs."""

    def __init__(self):
        self.ticks: list[float] = []
        self.clip_seconds: list[float] = []

    def begin(self) -> None:
        self.ticks = [time.perf_counter()]
        self.clip_seconds = []

    def epoch_seconds(self) -> list[float]:
        return [b - a for a, b in zip(self.ticks, self.ticks[1:])]


def install_clocks(patches: Patches) -> Clocks:
    clocks = Clocks()

    def tick(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            clocks.ticks.append(time.perf_counter())
            return out
        return wrapper

    def clip(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            clocks.clip_seconds.append(time.perf_counter() - start)
            return out
        return wrapper

    # TrainLog.append runs once at the end of every epoch of every trainer
    patches.wrap("capgan.training:TrainLog.append", tick)
    # the generate command calls generate_diverse_set once per clip
    patches.wrap("capgan.decoding:generate_diverse_set", clip)
    return clocks


# span name -> function, per layer
SPANS = {
    "cli.main": "capgan.cli:main",
    "corpus.epoch_batches": "capgan.corpus:epoch_batches",
    "decoding.rollout": "capgan.decoding:rollout",
    "decoding.beam_decode": "capgan.decoding:beam_decode",
    "decoding.generate_diverse_set": "capgan.decoding:generate_diverse_set",
    "models.encode": "capgan.models:Generator.encode",
    "models.gen_forward": "capgan.models:Generator.forward",
    "models.step_logits": "capgan.models:Generator.step_logits",
    "models.d_forward": "capgan.models:Discriminator.forward",
    "models.d_score": "capgan.models:Discriminator.score",
    "models.se_embed_audio": "capgan.models:SemanticEvaluator.embed_audio",
    "models.se_embed_caption": "capgan.models:SemanticEvaluator.embed_caption",
    "models.se_score": "capgan.models:SemanticEvaluator.score",
    "models.save_checkpoint": "capgan.models:save_checkpoint",
    "models.load_checkpoint": "capgan.models:load_checkpoint",
    "training.adversarial_train": "capgan.training:adversarial_train",
    "training.scst_step": "capgan.training:scst_generator_step",
    "training.oracle_score": "capgan.training:RewardOracles.score",
    "training.d_step": "capgan.training:discriminator_step",
    "training.surrogate": "capgan.training:scst_surrogate_loss",
    "metrics.cider": "capgan.metrics:cider",
    "metrics.ngram_counts": "capgan.metrics:ngram_counts",
    "metrics.evaluate": "capgan.metrics:evaluate_captions",
    "tensor.backward": "capgan.tensor:Tensor.backward",
    "tensor.adam_step": "capgan.tensor:Adam.step",
}

DECODERS = ("decoding.rollout", "decoding.generate_diverse_set")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _words(seq) -> int:
    return sum(1 for t in seq if t not in (PAD, SOS, EOS))


class Tracer:
    """Per-layer spans and counters; call ``metrics()`` for the totals."""

    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._stack: list[list] = []  # [name, start, child seconds]
        self._open = Counter()
        self._patches = Patches()

    def install(self) -> None:
        for name, dotted in SPANS.items():
            self._patches.wrap(dotted, functools.partial(self._span, name))

    def remove(self) -> None:
        self._patches.restore()

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            self._open[name] += 1
            try:
                out = fn(*args, **kwargs)
                self._count(name, args, kwargs, out)
                return out
            finally:
                self._open[name] -= 1
                self._stack.pop()
                took = time.perf_counter() - frame[1]
                self.calls[name] += 1
                self.inclusive[name] += took
                self.self_time[name] += took - frame[2]
                if self._stack:
                    self._stack[-1][2] += took
        return wrapper

    def _inside(self, *names) -> bool:
        return any(self._open[n] for n in names)

    def _count(self, name, args, kwargs, out) -> None:
        c = self.counts
        if name == "models.step_logits":
            prefix = _arg(args, kwargs, 4, "prefix")
            c["step_rows"] += prefix.shape[0]
            c["step_positions"] += prefix.shape[0] * prefix.shape[1]
        elif name == "models.gen_forward":
            tokens = _arg(args, kwargs, 4, "tokens")
            c["gen_positions"] += len(tokens) * len(tokens[0])
        elif name == "models.encode" and self._inside(*DECODERS):
            c["decode_encodes"] += 1
        elif name == "decoding.rollout" or name == "decoding.generate_diverse_set":
            for seq in out[0]:
                c["captions"] += 1
                c["tokens"] += len(seq) - 1  # everything after <sos>
                c["words"] += _words(seq)
        elif name == "models.d_forward":
            c["d_rows"] += len(_arg(args, kwargs, 2, "lengths"))
        elif name == "models.se_embed_audio":
            c["se_audio_rows"] += len(_arg(args, kwargs, 1, "features"))
        elif name == "models.se_embed_caption":
            c["se_caption_rows"] += len(_arg(args, kwargs, 1, "tokens"))
        elif name == "models.save_checkpoint":
            c["checkpoint_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
        elif name == "metrics.ngram_counts" and self._inside("metrics.cider"):
            c["ngram_in_cider"] += 1
        elif name == "models.d_score" and self._inside("training.oracle_score"):
            c["judge_ns"] += 1
        elif name == "models.se_score" and self._inside("training.oracle_score"):
            c["judge_ss"] += 1
        elif name == "training.adversarial_train":
            oracles = out[1]
            c["d_queries"] += oracles.d_queries
            c["se_queries"] += oracles.se_queries

    def metrics(self, per: int = 1) -> dict:
        """Layer metrics, times and counts divided by ``per`` (cycles)."""
        inc, own, calls, c = self.inclusive, self.self_time, self.calls, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        judge_s = (
            inc["models.d_score"] + inc["models.se_score"]
            if self.calls["training.oracle_score"] else 0.0
        )
        values = {
            "decoding.rollout_self_s": (own["decoding.rollout"], "s"),
            "decoding.rollout_calls": (calls["decoding.rollout"], "count"),
            "decoding.beam_self_s": (own["decoding.beam_decode"], "s"),
            "decoding.beam_calls": (calls["decoding.beam_decode"], "count"),
            "decoding.tokens_emitted": (c["tokens"], "count"),
            "decoding.caption_len_mean": (ratio(c["words"], c["captions"]), "words"),
            "decoding.positions_per_row": (ratio(c["step_positions"], c["step_rows"]), "ratio"),
            "decoding.encodes_per_caption": (ratio(c["decode_encodes"], c["captions"]), "ratio"),
            "models.encode_s": (inc["models.encode"], "s"),
            "models.encode_calls": (calls["models.encode"], "count"),
            "models.gen_forward_s": (own["models.gen_forward"], "s"),
            "models.gen_forward_calls": (calls["models.gen_forward"], "count"),
            "models.gen_positions": (c["gen_positions"], "count"),
            "models.d_forward_s": (inc["models.d_forward"], "s"),
            "models.d_forward_calls": (calls["models.d_forward"], "count"),
            "models.d_rows_per_call": (ratio(c["d_rows"], calls["models.d_forward"]), "ratio"),
            "models.se_forward_s": (
                inc["models.se_embed_audio"] + inc["models.se_embed_caption"], "s"),
            "models.se_audio_rows": (c["se_audio_rows"], "count"),
            "models.se_caption_rows": (c["se_caption_rows"], "count"),
            "models.checkpoint_s": (
                inc["models.save_checkpoint"] + inc["models.load_checkpoint"], "s"),
            "models.checkpoint_bytes": (c["checkpoint_bytes"], "bytes"),
            "training.scst_step_s": (inc["training.scst_step"], "s"),
            "training.judge_s": (judge_s, "s"),
            "training.d_queries": (c["d_queries"], "count"),
            "training.se_queries": (c["se_queries"], "count"),
            "training.d_step_s": (inc["training.d_step"], "s"),
            "training.surrogate_s": (inc["training.surrogate"], "s"),
            "metrics.cider_s": (inc["metrics.cider"], "s"),
            "metrics.cider_calls": (calls["metrics.cider"], "count"),
            "metrics.ngram_calls": (calls["metrics.ngram_counts"], "count"),
            "metrics.ngram_per_cider": (
                ratio(c["ngram_in_cider"], calls["metrics.cider"]), "ratio"),
            "metrics.evaluate_s": (inc["metrics.evaluate"], "s"),
            "tensor.backward_s": (inc["tensor.backward"], "s"),
            "tensor.backward_calls": (calls["tensor.backward"], "count"),
            "tensor.adam_s": (inc["tensor.adam_step"], "s"),
            "tensor.adam_steps": (calls["tensor.adam_step"], "count"),
            "corpus.batches_s": (inc["corpus.epoch_batches"], "s"),
            "cli.self_s": (own["cli.main"], "s"),
            "cli.commands": (calls["cli.main"], "count"),
        }
        return {
            name: (value if unit in ("ratio", "words") else value / per, unit)
            for name, (value, unit) in values.items()
        }
