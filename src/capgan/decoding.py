"""Caption generation: ``rollout`` decodes a batch greedily or by
multinomial sampling, ``beam_decode`` runs beam search over one clip, and
``generate_diverse_set`` builds a clip's n captions from beam search.

Both decoders work on any model exposing ``encode(features, feat_lengths,
z)`` and ``step_logits(features, feat_lengths, z, prefix, memory=...,
cache=...)``. A decode encodes its clips once (``rollout`` skips even that
when the caller passes the encoder memory), records no autodiff graph,
and feeds ``step_logits`` only the newest position of each prefix, along
with one ``DecodeCache`` per decode that the model fills with what it
keeps from earlier positions (beam search reorders it as hypotheses are
kept, repeated or dropped).

Sequences are token-id lists that start with <sos> and end with <eos>
unless the length cap cut them off. Every caption carries at least one
content word: <eos> is forbidden as the first emission so downstream
consumers never see an empty caption.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .models import DecodeCache
from .tensor import no_grad
from .text import EOS, PAD, SOS


@dataclass
class DecodeConfig:
    beam_size: int = 5
    max_length: int = 22
    n_captions: int = 5

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.n_captions < 1:
            raise ValueError("n_captions must be >= 1")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _forbid_markers(logits: np.ndarray) -> np.ndarray:
    # pad and sos are never legal continuations
    out = logits.copy()
    out[..., PAD] = -1e9
    out[..., SOS] = -1e9
    return out


def rollout(
    model,
    features: np.ndarray,
    feat_lengths: np.ndarray,
    z: np.ndarray,
    mode: str = "greedy",
    rng: np.random.Generator | None = None,
    max_length: int = 22,
    memory=None,
):
    """Batched autoregressive decode.

    ``memory``, if given, is the rows' encoder memory [B, F, d_model] and
    is used instead of encoding ``features``; frames at or past a row's
    ``feat_lengths`` entry are masked out, whatever they hold.

    Returns (sequences, step_log_probs): per row, the token ids including
    markers and the log-probability of each emitted token under the
    model's distribution.
    """
    if mode not in ("greedy", "sample"):
        raise ValueError(f"unknown rollout mode {mode!r}")
    if mode == "sample" and rng is None:
        raise ValueError("sampling requires an rng")
    batch = features.shape[0]
    prefix = np.full((batch, 1), SOS, dtype=np.int64)
    alive = np.ones(batch, dtype=bool)
    log_probs: list[list[float]] = [[] for _ in range(batch)]

    with no_grad():
        if memory is None:
            memory = model.encode(features, feat_lengths, z)
        cache = DecodeCache()
        for step in range(max_length + 1):  # content tokens plus a final eos slot
            if not alive.any():
                break
            logits = _forbid_markers(model.step_logits(
                features, feat_lengths, z, prefix[:, -1:], memory=memory, cache=cache
            ))
            if step == 0:
                logits[..., EOS] = -1e9  # minimum caption length of one word
            logp = _log_softmax(logits)
            if mode == "greedy":
                chosen = logp.argmax(axis=-1)
            else:
                cumulative = np.cumsum(np.exp(logp), axis=-1)
                cumulative[:, -1] = 1.0
                draws = rng.random((batch, 1))
                chosen = (cumulative < draws).sum(axis=-1)
            chosen = np.where(alive, chosen, PAD)  # finished rows are fed pad
            for b in range(batch):
                if alive[b]:
                    log_probs[b].append(float(logp[b, chosen[b]]))
            prefix = np.concatenate([prefix, chosen[:, None]], axis=1)
            alive &= chosen != EOS

    sequences = []
    for b in range(batch):
        row = [SOS] + [int(t) for t in prefix[b, 1:] if t != PAD]
        sequences.append(row)
    return sequences, log_probs


def beam_decode(model, features, feat_lengths, z, beam_size: int = 5,
                max_length: int = 22):
    """Length-normalized beam search over a single clip.

    Returns up to beam_size distinct (sequence, score) pairs, best first;
    score is mean log-probability per emitted token.
    """
    if features.shape[0] != 1:
        raise ValueError("beam_decode works on a single clip")
    live = np.full((1, 1), SOS, dtype=np.int64)  # one row per live hypothesis
    finished: list[tuple[list[int], float]] = []

    with no_grad():
        # the clip's memory and cross-attention keys/values have batch 1
        # and broadcast across however many hypotheses are live
        memory = model.encode(features, feat_lengths, z)
        cache = DecodeCache()
        for step in range(max_length + 1):
            if not len(live):
                break
            logits = _forbid_markers(model.step_logits(
                features, feat_lengths, z, live[:, -1:], memory=memory, cache=cache
            ))
            if step == 0:
                logits[..., EOS] = -1e9  # minimum caption length of one word
                totals = np.zeros(1, dtype=logits.dtype)  # log-prob per live row
            candidates = totals[:, None] + _log_softmax(logits)
            # best first by mean log-prob; stable, so ties keep (row, token) order
            order = np.argsort(-(candidates / (step + 1)), axis=None, kind="stable")
            rows, tokens = np.divmod(order, candidates.shape[1])
            ended = tokens == EOS
            # walk the ranking until beam_size hypotheses stay open; every
            # ended one passed on the way is finished
            taken = np.cumsum(~ended) - ~ended < beam_size
            for i in np.flatnonzero(taken & ended):
                finished.append((live[rows[i]].tolist() + [EOS], candidates.flat[order[i]]))
            keep = taken & ~ended
            cache.reorder(rows[keep])
            live = np.concatenate([live[rows[keep]], tokens[keep, None]], axis=1)
            totals = candidates.flat[order[keep]]
        live = [(row.tolist(), total) for row, total in zip(live, totals)]
    finished.extend(live)  # length-capped hypotheses count as complete
    finished.sort(key=lambda c: c[1] / (len(c[0]) - 1), reverse=True)
    out = []
    seen = set()
    for tokens, total in finished:
        key = tuple(tokens)
        if key in seen:
            continue
        seen.add(key)
        out.append((tokens, total / (len(tokens) - 1)))
        if len(out) == beam_size:
            break
    return out


def generate_diverse_set(model, features, feat_lengths, config: DecodeConfig,
                         rng: np.random.Generator, mode: str = "gan"):
    """n captions for one clip.

    gan: fresh noise vector per caption, beam top-1 each (duplicates kept).
    mle: zero noise, the beam's top-n distinct hypotheses.
    Returns (sequences, scores, underfilled_flag).
    """
    noise_dim = model.config.noise_dim
    if mode == "gan":
        sequences, scores = [], []
        for _ in range(config.n_captions):
            z = rng.standard_normal((1, noise_dim))
            ranked = beam_decode(
                model, features, feat_lengths, z,
                beam_size=config.beam_size, max_length=config.max_length,
            )
            sequences.append(ranked[0][0])
            scores.append(ranked[0][1])
        return sequences, scores, False
    if mode == "mle":
        z = np.zeros((1, noise_dim))
        ranked = beam_decode(
            model, features, feat_lengths, z,
            beam_size=max(config.beam_size, config.n_captions),
            max_length=config.max_length,
        )
        ranked = ranked[: config.n_captions]
        sequences = [tokens for tokens, _ in ranked]
        scores = [score for _, score in ranked]
        return sequences, scores, len(sequences) < config.n_captions
    raise ValueError(f"unknown generation mode {mode!r}")


# -- caption files ------------------------------------------------------------


def write_captions(path, rows: list[dict]) -> None:
    """JSON-lines: {clip_id, captions: [str], scores: [float]}."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_captions(path) -> list[dict]:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line:
            rows.append(json.loads(line))
    return rows
