"""Caption generation: ``rollout`` decodes a batch greedily or by
multinomial sampling, ``beam_decode`` runs beam search of G noise groups
over one clip, and ``generate_diverse_set`` builds a clip's n captions
from one beam search.

Both decoders work on any model exposing ``encode(features, feat_lengths,
z)`` and ``step_logits(features, feat_lengths, z, prefix, memory=...,
cache=...)``, which returns a new logits array on every call. A decode
encodes its clips once (``rollout`` skips even that when the caller passes
the encoder memory), records no autodiff graph, and feeds ``step_logits``
only the newest position of each prefix, along with one ``DecodeCache``
per decode. The generator's step runs on arrays
and keeps in that cache the cross-attention keys/values and frame mask of
the memory, built on the first step, and every position's self-attention
keys/values (beam search reorders those as hypotheses are kept, repeated
or dropped).

Each beam step ranks only the candidates a group's walk can reach: a row
has one <eos> candidate, so the walk that keeps ``beam_size`` open
hypotheses passes at most ``beam_size + width`` of its group's
``width * vocab``. ``np.argpartition`` finds those, and a stable sort
orders them as the stable sort of every candidate would (see
``_stable_head``).

Beam search stops as soon as no group's answer can change (the rule of
Huang et al., "When to Finish? Optimal Beam Search for Neural Text
Generation", arXiv:1708.04282). A group is settled once it holds
``n_best`` finished hypotheses and the ``n_best``-th best finished mean
log-prob is strictly greater than its best live total divided by
``max_length + 1``. That quotient bounds the mean of every hypothesis
the group can still produce: log-softmax values are <= 0 and float
rounding is monotone, so a descendant's total never rises above its
ancestor's; a total <= 0 has its best mean over the most tokens, and no
hypothesis emits more than ``max_length + 1``. Such a hypothesis can
neither enter a settled group's top ``n_best`` nor tie with it, so the
stop returns exactly what the full-length search returns.

Sequences are token-id lists that start with <sos> and end with <eos>
unless the length cap cut them off. Both decoders pick tokens under one
rule, ``next_log_probs``: <pad> and <sos> are never emitted, and <eos> is
forbidden as the first emission, so every caption carries at least one
content word. Non-finite logits stop the decode with ``Diverged``.
"""
from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import files
from .models import DecodeCache
from .tensor import Diverged, log_softmax, no_grad
from .text import EOS, PAD, SOS


@dataclass
class DecodeConfig:
    beam_size: int = 5
    n_captions: int = 5

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.n_captions < 1:
            raise ValueError("n_captions must be >= 1")


def next_log_probs(logits: np.ndarray, step: int) -> np.ndarray:
    """Each row's next-token log-probs at decode ``step`` from its
    ``logits`` [B, vocab], which are overwritten: <pad> and <sos> are never
    emitted, and <eos> not at step 0. Non-finite logits are refused with
    ``Diverged``."""
    if not np.isfinite(logits).all():
        raise Diverged(f"decoder logits became non-finite at step {step}")
    logits[..., PAD] = -1e9
    logits[..., SOS] = -1e9
    if step == 0:
        logits[..., EOS] = -1e9  # minimum caption length of one word
    return log_softmax(logits)


def rollout(
    model,
    features: np.ndarray,
    feat_lengths: np.ndarray,
    z: np.ndarray,
    mode: str = "greedy",
    rng: np.random.Generator | None = None,
    *,
    max_length: int,
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
            logp = next_log_probs(model.step_logits(
                features, feat_lengths, z, prefix[:, -1:], memory=memory, cache=cache
            ), step)
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


def beam_decode(model, features, feat_lengths, z, *, beam_size: int, max_length: int,
                n_best: int):
    """Length-normalized beam search of G noise groups over one clip.

    ``features`` [1, F, feat_dim] is the clip and ``z`` [G, noise_dim] holds
    one noise vector per group. Each group runs its own beam, and the G
    beams advance together: one ``step_logits`` call per step over every
    group's live rows, group-major.

    The search ends once every group is settled: it has ``n_best``
    finished hypotheses and the ``n_best``-th best finished mean beats,
    strictly, the best live total over ``max_length + 1``, which no open
    hypothesis can exceed (see the module docstring). Settled groups stay
    in the batch, so the others see the same arithmetic as without the
    stop. A search that runs to the length cap ranks its length-capped
    hypotheses with the finished ones.

    Returns one list per group of up to n_best distinct (sequence, score)
    pairs, best first; score is mean log-probability per emitted token.
    """
    if features.shape[0] != 1:
        raise ValueError("beam_decode works on a single clip")
    groups = len(z)
    live = np.full((groups, 1), SOS, dtype=np.int64)  # `width` rows per group
    width = 1
    finished: list[list[tuple[list[int], float]]] = [[] for _ in range(groups)]
    # per group, a min-heap of its n_best best finished means, and the
    # n_best-th best of them once there are n_best
    best_means: list[list[float]] = [[] for _ in range(groups)]
    bar = np.full(groups, -np.inf)

    with no_grad():
        # one memory per group; each group's rows share its cross-attention
        # keys/values, which the model projects once and never reorders
        memory = model.encode(features, feat_lengths, z)
        cache = DecodeCache()
        for step in range(max_length + 1):
            logp = next_log_probs(model.step_logits(
                features, feat_lengths, z, live[:, -1:], memory=memory, cache=cache
            ), step)
            if step == 0:
                totals = np.zeros(groups, dtype=logp.dtype)  # log-prob per live row
            vocab = logp.shape[1]
            candidates = (totals[:, None] + logp).reshape(groups, width * vocab)
            # best first by mean log-prob, per group, ties in (row, token)
            # order. Each row has one <eos> candidate, so the walk below
            # passes at most beam_size + width candidates of its group.
            order = _stable_head(-(candidates / (step + 1)), beam_size + width)
            rows, tokens = np.divmod(order, vocab)
            ended = tokens == EOS
            # walk each group's ranking until beam_size hypotheses stay
            # open; every ended one passed on the way is finished
            taken = np.cumsum(~ended, axis=1) - ~ended < beam_size
            for g, i in zip(*np.nonzero(taken & ended)):
                total = candidates[g, order[g, i]]
                finished[g].append((live[g * width + rows[g, i]].tolist() + [EOS], total))
                mean = total / (step + 1)  # as _best_distinct computes it
                heap = best_means[g]
                if len(heap) < n_best:
                    heapq.heappush(heap, mean)
                else:
                    heapq.heappushpop(heap, mean)
                if len(heap) == n_best:
                    bar[g] = heap[0]
            keep = taken & ~ended
            parents = (np.arange(groups)[:, None] * width + rows)[keep]
            # each row has exactly one <eos> candidate, so every group keeps
            # the same number of open hypotheses
            width = min(beam_size, width * (vocab - 1))
            assert (keep.sum(axis=1) == width).all()
            cache.reorder(parents)
            live = np.concatenate([live[parents], tokens[keep, None]], axis=1)
            totals = np.take_along_axis(candidates, order, axis=1)[keep]
            if (bar > totals.reshape(groups, width).max(axis=1) / (max_length + 1)).all():
                return [_best_distinct(finished[g], n_best) for g in range(groups)]
    # length-capped hypotheses count as complete
    live = [(row.tolist(), total) for row, total in zip(live, totals)]
    return [
        _best_distinct(finished[g] + live[g * width : (g + 1) * width], n_best)
        for g in range(groups)
    ]


def _stable_head(keys: np.ndarray, reach: int) -> np.ndarray:
    """Per row of ``keys``, the columns of its ``reach`` smallest keys,
    smallest first and ties in column order: the first ``reach`` columns of
    a stable argsort, found by ``np.argpartition``.

    Where a key equal to the largest one kept lies past the cut (or a NaN
    is kept), argpartition may have cut between equal keys anywhere, so
    the full stable sort runs instead.
    """
    if reach >= keys.shape[1]:
        return np.argsort(keys, axis=1, kind="stable")
    head = np.sort(np.argpartition(keys, reach - 1, axis=1)[:, :reach], axis=1)
    head_keys = np.take_along_axis(keys, head, axis=1)
    cut = head_keys.max(axis=1, keepdims=True)
    if ((keys <= cut).sum(axis=1) != reach).any():
        return np.argsort(keys, axis=1, kind="stable")[:, :reach]
    return np.take_along_axis(head, np.argsort(head_keys, axis=1, kind="stable"), axis=1)


def _best_distinct(hypotheses, beam_size: int):
    """Up to beam_size distinct (sequence, mean log-prob) pairs, best first."""
    hypotheses = sorted(hypotheses, key=lambda c: c[1] / (len(c[0]) - 1), reverse=True)
    out = []
    seen = set()
    for tokens, total in hypotheses:
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
    """n captions for one clip, each of up to ``model.config.t_max`` words.

    gan: one noise vector per caption, all n decoded as the groups of one
    beam search, each group's top-1 kept (duplicates kept).
    mle: zero noise, the beam's top-n distinct hypotheses.
    Returns (sequences, scores, underfilled_flag).
    """
    noise_dim, max_length = model.config.noise_dim, model.config.t_max
    if mode == "gan":
        z = rng.standard_normal((config.n_captions, noise_dim))
        ranked = beam_decode(
            model, features, feat_lengths, z,
            beam_size=config.beam_size, max_length=max_length, n_best=1,
        )
        sequences = [group[0][0] for group in ranked]
        scores = [group[0][1] for group in ranked]
        return sequences, scores, False
    if mode == "mle":
        z = np.zeros((1, noise_dim))
        [ranked] = beam_decode(
            model, features, feat_lengths, z,
            beam_size=max(config.beam_size, config.n_captions),
            max_length=max_length, n_best=config.n_captions,
        )
        sequences = [tokens for tokens, _ in ranked]
        scores = [score for _, score in ranked]
        return sequences, scores, len(sequences) < config.n_captions
    raise ValueError(f"unknown generation mode {mode!r}")


# -- caption files ------------------------------------------------------------


def write_captions(path, rows: list[dict]) -> None:
    """JSON-lines: {clip_id, captions: [str], scores: [float]}. A row that
    is not strict JSON (a NaN score) is a ValueError, and nothing is written."""
    files.write_jsonl(path, rows)


def read_captions(path) -> list[dict]:
    """The rows of a caption file; a line that is not a JSON object with a
    string ``clip_id`` and a list of string ``captions`` is a ValueError."""
    rows = []
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {number}: not JSON: {exc}") from None
        if not (isinstance(row, dict) and isinstance(row.get("clip_id"), str)
                and isinstance(row.get("captions"), list)
                and all(isinstance(c, str) for c in row["captions"])):
            raise ValueError(f"line {number}: needs a clip_id and a list of captions")
        rows.append(row)
    return rows
