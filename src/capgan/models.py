"""The three networks: caption generator, GRU discriminator, semantic
evaluator; plus binary checkpoint serialization.

The generator is a small trainable encoder over precomputed feature
sequences feeding a noise-conditioned transformer decoder: every encoder
frame output is concatenated with the clip's noise vector and projected
back to the model width, so the decoder's cross-attention memory carries
the conditioning. The discriminator scores a caption's naturalness with a
single GRU layer; the semantic evaluator embeds audio and caption into a
shared space scored by cosine similarity.
"""
from __future__ import annotations

import hashlib
import json
import struct
import typing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .tensor import (
    DomainError,
    Tensor,
    attention,
    concat,
    embedding,
    gru_cell,
    layer_norm,
    linear,
    no_grad,
)

CHECKPOINT_MAGIC = b"DCCKPT01"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


# -- parameter plumbing -------------------------------------------------------


class ParamStore:
    """Ordered named parameters shared by all three models."""

    def __init__(self, rng: np.random.Generator, dtype=np.float32):
        self.rng = rng
        self.dtype = dtype
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, shape) -> Tensor:
        """Normal init scaled by 1/sqrt(fan-in), the first dimension."""
        return self._register(name, self.rng.standard_normal(shape) * (1.0 / np.sqrt(shape[0])))

    def zeros(self, name: str, shape) -> Tensor:
        return self._register(name, np.zeros(shape))

    def _register(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        p = Tensor(data.astype(self.dtype), requires_grad=True)
        self._params[name] = p
        return p

    def named(self) -> dict[str, Tensor]:
        return dict(self._params)

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())


def _const(array, dtype) -> Tensor:
    return Tensor(np.asarray(array, dtype=dtype))


def pad_sequences(seqs: list[list[int]], width: int | None = None):
    """Token rows padded with 0 to one width: ([B, width] ids, [B] lengths)."""
    width = width or max(len(s) for s in seqs)
    tokens = np.zeros((len(seqs), width), dtype=np.int64)
    lengths = np.zeros(len(seqs), dtype=np.int64)
    for i, seq in enumerate(seqs):
        seq = seq[:width]
        tokens[i, : len(seq)] = seq
        lengths[i] = len(seq)
    return tokens, lengths


def pad_frames(arrays: list[np.ndarray]):
    """Frame rows [F_i, d] padded with 0 to the longest:
    ([N, F_max, d] in the rows' dtype, [N] lengths)."""
    lengths = np.array([len(a) for a in arrays], dtype=np.int64)
    padded = np.zeros((len(arrays), lengths.max(), arrays[0].shape[1]), dtype=arrays[0].dtype)
    for i, a in enumerate(arrays):
        padded[i, : len(a)] = a
    return padded, lengths


def l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    norm_sq = (x * x).sum(axis=-1, keepdims=True)
    if np.any(norm_sq.data < eps):
        raise DomainError("zero-norm embedding cannot be normalized")
    norm = norm_sq.sqrt()
    return x / norm.broadcast_to(x.shape)


def dropout_mask(shape, drawn, rate: float, rng: np.random.Generator | None, dtype):
    """Inverted-dropout multiplier (0 or 1/keep) of ``shape``, or None when
    off.

    The uniforms are drawn at ``drawn`` and cut to their leading ``shape``
    corner: a shorter input sees the values the longer one would at its
    positions, and the stream advances the same.
    """
    if rng is None or rate <= 0.0:
        return None
    keep = 1.0 - rate
    kept = rng.random(drawn)[tuple(slice(n) for n in shape)] < keep
    return kept.astype(dtype) / keep


def dropout(x: Tensor, drawn, rate: float, rng: np.random.Generator | None) -> Tensor:
    mask = dropout_mask(x.shape, drawn, rate, rng, x.dtype.type)
    return x if mask is None else x * Tensor(mask)


# -- GRU ----------------------------------------------------------------------


@dataclass
class GRUParams:
    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_u: Tensor
    u_u: Tensor
    b_u: Tensor
    w_h: Tensor
    u_h: Tensor
    b_h: Tensor

    @classmethod
    def create(cls, store: ParamStore, prefix: str, d_in: int, d_hidden: int) -> "GRUParams":
        return cls(
            w_r=store.add(f"{prefix}.w_r", (d_in, d_hidden)),
            u_r=store.add(f"{prefix}.u_r", (d_hidden, d_hidden)),
            b_r=store.zeros(f"{prefix}.b_r", (d_hidden,)),
            w_u=store.add(f"{prefix}.w_u", (d_in, d_hidden)),
            u_u=store.add(f"{prefix}.u_u", (d_hidden, d_hidden)),
            b_u=store.zeros(f"{prefix}.b_u", (d_hidden,)),
            w_h=store.add(f"{prefix}.w_h", (d_in, d_hidden)),
            u_h=store.add(f"{prefix}.u_h", (d_hidden, d_hidden)),
            b_h=store.zeros(f"{prefix}.b_h", (d_hidden,)),
        )


def gru_inputs(xs: Tensor, p: GRUParams) -> Tensor:
    """The reset, update and candidate input projections of every step,
    [..., d_in] -> [..., 3 * d_hidden], as one GEMM."""
    w = concat([p.w_r, p.w_u, p.w_h], axis=1)
    b = concat([p.b_r, p.b_u, p.b_h], axis=0)
    return linear(xs, w, b)


def gru_final_hidden(xs: Tensor, lengths: np.ndarray, p: GRUParams, d_hidden: int) -> Tensor:
    """Run a batched GRU over [B, T, d_in]; return each sequence's last
    real hidden state (updates are frozen past a sequence's length)."""
    batch, t_steps, _ = xs.shape
    x_proj = gru_inputs(xs, p)
    alive = np.arange(t_steps)[None, :] < np.asarray(lengths)[:, None]
    h = _const(np.zeros((batch, d_hidden)), xs.dtype)
    for t in range(t_steps):
        h = gru_cell(x_proj[:, t, :], h, p.u_r, p.u_u, p.u_h, alive[:, t, None])
    return h


# -- shared conv building block ----------------------------------------------


def conv1d_k3(x: Tensor, w_left: Tensor, w_center: Tensor, w_right: Tensor, b: Tensor) -> Tensor:
    """Width-3 1-D convolution over the time axis of [B, T, d], zero padded."""
    batch, t_steps, d_in = x.shape
    zero = _const(np.zeros((batch, 1, d_in)), x.dtype)
    left = concat([zero, x[:, :-1, :]], axis=1) if t_steps > 1 else zero
    right = concat([x[:, 1:, :], zero], axis=1) if t_steps > 1 else zero
    return linear(x, w_center, b) + left @ w_left + right @ w_right


def sinusoidal_positions(t_steps: int, d_model: int, dtype) -> np.ndarray:
    pos = np.arange(t_steps)[:, None]
    i = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d_model)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(dtype)


# -- generator ----------------------------------------------------------------


@dataclass
class GeneratorConfig:
    vocab_size: int
    feat_dim: int = 64
    d_model: int = 128
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    noise_dim: int = 64
    t_max: int = 22
    dropout: float = 0.1

    def __post_init__(self):
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")


class DecodeCache:
    """Attention keys and values kept across the steps of one decode.

    ``self_kv`` holds each decoder layer's self-attention keys/values for the
    ``length`` positions seen so far, one row per hypothesis; ``cross``
    holds each layer's cross-attention keys/values, projected from the
    encoder memory once. Models that keep no state leave it empty.
    """

    def __init__(self):
        self.length = 0
        self.self_kv: list[tuple[Tensor, Tensor]] = []
        self.cross: list[tuple[Tensor, Tensor]] = []

    def extend(self, layer: int, keys: Tensor, values: Tensor) -> tuple[Tensor, Tensor]:
        """Append new positions' keys/values [B, H, t, d_head] to a layer's
        cache and return everything cached for it."""
        if layer == len(self.self_kv):
            self.self_kv.append((keys, values))
        else:
            old_keys, old_values = self.self_kv[layer]
            self.self_kv[layer] = (
                concat([old_keys, keys], axis=2), concat([old_values, values], axis=2)
            )
        return self.self_kv[layer]

    def reorder(self, rows: np.ndarray) -> None:
        """Keep the self-attention rows of the given parents, in order;
        a parent may repeat or be dropped. The cross-attention keys/values
        are per clip or per noise group, not per row, and stay as they are."""
        self.self_kv = [(keys[rows], values[rows]) for keys, values in self.self_kv]


class Generator:
    """Encoder + noise-conditioned causal transformer decoder."""

    kind = "generator"

    def __init__(self, config: GeneratorConfig, rng: np.random.Generator, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        store = ParamStore(rng, dtype)
        c = config

        store.add("enc.in.w", (c.feat_dim, c.d_model))
        store.zeros("enc.in.b", (c.d_model,))
        for tag in ("l", "c", "r"):
            store.add(f"enc.conv.w_{tag}", (c.d_model, c.d_model))
        store.zeros("enc.conv.b", (c.d_model,))
        store.add("noise.w", (c.d_model + c.noise_dim, c.d_model))
        store.zeros("noise.b", (c.d_model,))

        store.add("dec.embed", (c.vocab_size, c.d_model))
        for layer in range(c.n_layers):
            for block in ("self", "cross"):
                for proj in ("q", "k", "v", "o"):
                    store.add(f"dec.{layer}.{block}.{proj}", (c.d_model, c.d_model))
            store.add(f"dec.{layer}.ff.w1", (c.d_model, c.d_ff))
            store.zeros(f"dec.{layer}.ff.b1", (c.d_ff,))
            store.add(f"dec.{layer}.ff.w2", (c.d_ff, c.d_model))
            store.zeros(f"dec.{layer}.ff.b2", (c.d_model,))
            for norm in ("n1", "n2", "n3"):
                g = store.zeros(f"dec.{layer}.{norm}.g", (c.d_model,))
                g.data += 1.0
                store.zeros(f"dec.{layer}.{norm}.b", (c.d_model,))
        g = store.zeros("dec.final_norm.g", (c.d_model,))
        g.data += 1.0
        store.zeros("dec.final_norm.b", (c.d_model,))
        store.add("dec.out.w", (c.d_model, c.vocab_size))
        store.zeros("dec.out.b", (c.vocab_size,))

        self.store = store
        self.params = store.named()
        self._positions = sinusoidal_positions(c.t_max + 2, c.d_model, self.dtype)

    # encoder + conditioning path

    def encode(self, features: np.ndarray, feat_lengths: np.ndarray, z: np.ndarray) -> Tensor:
        """[B, F, feat_dim] + noise [B, noise_dim] -> memory [B, F, d_model].

        One clip [1, F, feat_dim] with noise [G, noise_dim] gives G memories:
        the z-free trunk (input projection and conv) runs once, and its
        output is repeated for each noise row before the noise merge.
        """
        p = self.params
        x = _const(features, self.dtype)
        h = linear(x, p["enc.in.w"], p["enc.in.b"]).relu()
        h = conv1d_k3(
            h, p["enc.conv.w_l"], p["enc.conv.w_c"], p["enc.conv.w_r"], p["enc.conv.b"]
        ).relu()
        batch, frames = len(z), h.shape[1]
        if h.shape[0] != batch:
            h = h.broadcast_to((batch, frames, self.config.d_model))
        z_t = _const(np.asarray(z, dtype=self.dtype)[:, None, :], self.dtype)
        z_b = z_t.broadcast_to((batch, frames, self.config.noise_dim))
        merged = concat([h, z_b], axis=2)
        return linear(merged, p["noise.w"], p["noise.b"])

    def _heads(self, x: Tensor) -> Tensor:
        """[B, T, d_model] -> [B, n_heads, T, d_head]."""
        c = self.config
        batch, t_len, _ = x.shape
        return x.reshape(batch, t_len, c.n_heads, c.d_model // c.n_heads).transpose(0, 2, 1, 3)

    def _keys_values(self, x: Tensor, layer: int, block: str) -> tuple[Tensor, Tensor]:
        p = self.params
        return (
            self._heads(x @ p[f"dec.{layer}.{block}.k"]),
            self._heads(x @ p[f"dec.{layer}.{block}.v"]),
        )

    def _attention(self, x, keys, values, mask_np, layer, block, drop_rng):
        """Multi-head attention of queries from x over per-head keys/values.

        keys/values may have batch G against a query batch of G·n rows, as
        in beam search, where each noise group's n hypotheses share that
        group's memory: the rows are folded into the query axis, so each
        group attends as one [n, d] query block.
        """
        p = self.params
        c = self.config
        batch, t_q, _ = x.shape
        if keys.shape[0] != batch:
            shared = x.reshape(keys.shape[0], -1, c.d_model)
            out = self._attention(shared, keys, values, mask_np, layer, block, drop_rng)
            return out.reshape(batch, t_q, c.d_model)
        qh = self._heads(x @ p[f"dec.{layer}.{block}.q"])
        t_k, t_full = keys.shape[2], c.t_max + 1
        drop = dropout_mask(
            (batch, c.n_heads, t_q, t_k),
            (batch, c.n_heads, t_full, t_full if block == "self" else t_k),
            c.dropout, drop_rng, self.dtype.type,
        )
        out = attention(qh, keys, values, mask_np, drop)
        out = out.transpose(0, 2, 1, 3).reshape(batch, t_q, c.d_model)
        return out @ p[f"dec.{layer}.{block}.o"]

    def forward(
        self,
        features: np.ndarray,
        feat_lengths: np.ndarray,
        z: np.ndarray,
        tokens: np.ndarray,
        drop_rng: np.random.Generator | None = None,
        memory: Tensor | None = None,
        cache: DecodeCache | None = None,
    ) -> Tensor:
        """Logits [B, T, vocab] for token positions [B, T].

        ``tokens`` are the positions after the ``cache.length`` already
        seen: their self-attention keys/values are appended to the cache,
        and the cross-attention keys/values are projected from ``memory``
        (encoded from the features if not given) on the first call and
        reused after it. Without a cache, a fresh one makes ``tokens``
        whole teacher-forced prefixes.

        Training dropout (``drop_rng``) draws every mask for all
        ``t_max + 1`` positions and keeps those of ``tokens``, so a batch
        trimmed to its longest caption sees the masks a full-width one
        would at its positions.
        """
        c = self.config
        tokens = np.asarray(tokens, dtype=np.int64)
        batch, t_new = tokens.shape
        if cache is None:
            cache = DecodeCache()
        start = cache.length
        t_steps = start + t_new
        if t_steps > c.t_max + 1:
            raise ValueError(f"prefix length {t_steps} exceeds t_max+1 = {c.t_max + 1}")
        p = self.params
        if not cache.cross:
            if memory is None:
                memory = self.encode(features, feat_lengths, z)
            cache.cross = [self._keys_values(memory, layer, "cross") for layer in range(c.n_layers)]
        cross = cache.cross
        frames = cross[0][0].shape[2]

        causal = np.triu(np.full((t_new, t_steps), -1e9, dtype=self.dtype), k=1 + start)
        frame_alive = np.arange(frames)[None, :] < np.asarray(feat_lengths)[:, None]
        mem_mask = np.where(frame_alive, 0.0, -1e9).astype(self.dtype)
        mem_mask = mem_mask[:, None, None, :]

        x = embedding(p["dec.embed"], tokens) + _const(
            np.broadcast_to(self._positions[start:t_steps], (batch, t_new, c.d_model)),
            self.dtype,
        )
        t_full = c.t_max + 1
        x = dropout(x, (batch, t_full, c.d_model), c.dropout, drop_rng)
        for layer in range(c.n_layers):
            n = lambda tag, t: layer_norm(
                t, p[f"dec.{layer}.{tag}.g"], p[f"dec.{layer}.{tag}.b"]
            )
            xn = n("n1", x)
            keys, values = cache.extend(layer, *self._keys_values(xn, layer, "self"))
            x = x + self._attention(xn, keys, values, causal, layer, "self", drop_rng)
            x = x + self._attention(n("n2", x), *cross[layer], mem_mask, layer, "cross", drop_rng)
            h = n("n3", x)
            h = linear(h, p[f"dec.{layer}.ff.w1"], p[f"dec.{layer}.ff.b1"]).relu()
            h = dropout(h, (batch, t_full, c.d_ff), c.dropout, drop_rng)
            x = x + linear(h, p[f"dec.{layer}.ff.w2"], p[f"dec.{layer}.ff.b2"])
        cache.length = t_steps
        x = layer_norm(x, p["dec.final_norm.g"], p["dec.final_norm.b"])
        return linear(x, p["dec.out.w"], p["dec.out.b"])

    def step_logits(self, features, feat_lengths, z, prefix: np.ndarray, memory=None,
                    cache: DecodeCache | None = None) -> np.ndarray:
        """Next-token logits for each batch row: ``prefix`` [B, T] is the
        whole prefix, or with a cache only its new positions."""
        logits = self.forward(features, feat_lengths, z, prefix, memory=memory, cache=cache)
        return logits.data[:, -1, :]


# -- discriminator ------------------------------------------------------------


@dataclass
class DiscriminatorConfig:
    vocab_size: int
    embed_dim: int = 64
    hidden_dim: int = 128


class Discriminator:
    """Single-layer GRU over token embeddings, sigmoid naturalness head."""

    kind = "discriminator"

    def __init__(self, config: DiscriminatorConfig, rng: np.random.Generator, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        store = ParamStore(rng, dtype)
        store.add("embed", (config.vocab_size, config.embed_dim))
        self.gru = GRUParams.create(store, "gru", config.embed_dim, config.hidden_dim)
        store.add("head.w", (config.hidden_dim, 1))
        store.zeros("head.b", (1,))
        self.store = store
        self.params = store.named()

    def forward(self, tokens: np.ndarray, lengths: np.ndarray) -> Tensor:
        """Probability n in (0,1) per caption; [B, T] padded token ids."""
        tokens = np.asarray(tokens, dtype=np.int64)
        lengths = np.asarray(lengths)
        if np.any(lengths < 1):
            raise ValueError("discriminator requires non-empty captions")
        xs = embedding(self.params["embed"], tokens)
        h = gru_final_hidden(xs, lengths, self.gru, self.config.hidden_dim)
        logit = linear(h, self.params["head.w"], self.params["head.b"])
        return logit.sigmoid().reshape(len(lengths))

    def score(self, token_seqs: list[list[int]]) -> np.ndarray:
        """Naturalness of each caption: one padded forward, no tape."""
        with no_grad():
            return self.forward(*pad_sequences(token_seqs)).data


# -- semantic evaluator -------------------------------------------------------


@dataclass
class SemanticEvaluatorConfig:
    vocab_size: int
    feat_dim: int = 64
    embed_dim: int = 64
    hidden_dim: int = 128
    out_dim: int = 128


class SemanticEvaluator:
    """Audio conv branch and caption GRU branch meeting in a cosine-scored
    joint embedding space."""

    kind = "semantic"

    def __init__(self, config: SemanticEvaluatorConfig, rng: np.random.Generator, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        store = ParamStore(rng, dtype)
        c = config
        store.add("audio.in.w", (c.feat_dim, c.hidden_dim))
        store.zeros("audio.in.b", (c.hidden_dim,))
        for tag in ("l", "c", "r"):
            store.add(f"audio.conv.w_{tag}", (c.hidden_dim, c.hidden_dim))
        store.zeros("audio.conv.b", (c.hidden_dim,))
        store.add("audio.out.w", (c.hidden_dim, c.out_dim))
        store.zeros("audio.out.b", (c.out_dim,))
        store.add("text.embed", (c.vocab_size, c.embed_dim))
        self.gru = GRUParams.create(store, "text.gru", c.embed_dim, c.hidden_dim)
        store.add("text.out.w", (c.hidden_dim, c.out_dim))
        store.zeros("text.out.b", (c.out_dim,))
        self.store = store
        self.params = store.named()

    def embed_audio(self, features: np.ndarray, feat_lengths: np.ndarray) -> Tensor:
        p = self.params
        x = _const(features, self.dtype)
        h = linear(x, p["audio.in.w"], p["audio.in.b"]).relu()
        h = conv1d_k3(
            h, p["audio.conv.w_l"], p["audio.conv.w_c"], p["audio.conv.w_r"], p["audio.conv.b"]
        ).relu()
        batch, frames, hidden = h.shape
        alive = np.arange(frames)[None, :] < np.asarray(feat_lengths)[:, None]
        mask = _const(alive.astype(float)[:, :, None], self.dtype)
        pooled = (h * mask.broadcast_to(h.shape)).sum(axis=1)
        lengths = _const(np.asarray(feat_lengths, dtype=float)[:, None], self.dtype)
        pooled = pooled / lengths.broadcast_to(pooled.shape)
        return l2_normalize(linear(pooled, p["audio.out.w"], p["audio.out.b"]).tanh())

    def embed_caption(self, tokens: np.ndarray, lengths: np.ndarray) -> Tensor:
        p = self.params
        xs = embedding(p["text.embed"], np.asarray(tokens, dtype=np.int64))
        h = gru_final_hidden(xs, np.asarray(lengths), self.gru, self.config.hidden_dim)
        return l2_normalize(linear(h, p["text.out.w"], p["text.out.b"]).tanh())

    def scores(self, features, feat_lengths, tokens, token_lengths) -> Tensor:
        """Cosine similarity per (audio, caption) pair, in [-1, 1]."""
        audio = self.embed_audio(features, feat_lengths)
        caption = self.embed_caption(tokens, token_lengths)
        return (audio * caption).sum(axis=-1)

    def score(self, audio: np.ndarray, token_seqs: list[list[int]]) -> np.ndarray:
        """Cosine of each caption against its row of ``audio``, the
        [B, out_dim] ``embed_audio`` embeddings: one padded caption forward,
        no tape."""
        if len(audio) != len(token_seqs):
            raise ValueError(f"{len(audio)} audio rows for {len(token_seqs)} captions")
        with no_grad():
            caption = self.embed_caption(*pad_sequences(token_seqs))
        return (audio * caption.data).sum(axis=-1)


# -- checkpoints --------------------------------------------------------------


def config_hash(config) -> str:
    payload = json.dumps(asdict(config), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def save_checkpoint(path, model, metadata: dict | None = None) -> None:
    """Binary checkpoint: magic, version, kind tag, metadata JSON, entries."""
    metadata = dict(metadata or {})
    metadata.setdefault("config", asdict(model.config))
    metadata.setdefault("config_hash", config_hash(model.config))
    meta_blob = json.dumps(metadata, sort_keys=True).encode()
    kind_blob = model.kind.encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<H", len(kind_blob)))
        fh.write(kind_blob)
        fh.write(struct.pack("<I", len(meta_blob)))
        fh.write(meta_blob)
        params = model.params
        fh.write(struct.pack("<I", len(params)))
        for name, tensor in params.items():
            name_blob = name.encode()
            payload = np.ascontiguousarray(tensor.data, dtype="<f4")
            fh.write(struct.pack("<H", len(name_blob)))
            fh.write(name_blob)
            fh.write(struct.pack("<B", payload.ndim))
            fh.write(struct.pack(f"<{payload.ndim}I", *payload.shape))
            fh.write(payload.tobytes())


def load_checkpoint(path, expected_kind: str | None = None) -> tuple[dict, dict]:
    """Returns (name -> float32 array, metadata)."""
    raw = Path(path).read_bytes()
    view = memoryview(raw)
    if bytes(view[:8]) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    offset = 8

    def take(count):
        nonlocal offset
        if offset + count > len(raw):
            raise CheckpointError(f"{path}: truncated checkpoint")
        chunk = view[offset : offset + count]
        offset += count
        return chunk

    def text(count):
        try:
            return bytes(take(count)).decode()
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: undecodable checkpoint header") from None

    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (kind_len,) = struct.unpack("<H", take(2))
    kind = text(kind_len)
    if expected_kind is not None and kind != expected_kind:
        raise CheckpointError(f"{path}: checkpoint kind {kind!r}, expected {expected_kind!r}")
    (meta_len,) = struct.unpack("<I", take(4))
    try:
        metadata = json.loads(text(meta_len))
    except json.JSONDecodeError:
        metadata = None
    if not (isinstance(metadata, dict) and isinstance(metadata.get("config"), dict)):
        raise CheckpointError(f"{path}: checkpoint metadata is not a JSON object with a config")
    (n_entries,) = struct.unpack("<I", take(4))
    arrays = {}
    for _ in range(n_entries):
        (name_len,) = struct.unpack("<H", take(2))
        name = text(name_len)
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(take(4 * count), dtype="<f4").reshape(shape)
        arrays[name] = np.array(data)
    if offset != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after checkpoint payload")
    return arrays, metadata


def config_from_checkpoint(config_cls, metadata: dict, path):
    """The ``config_cls`` a checkpoint's metadata records. Refused with a
    ``CheckpointError`` unless it has every field and no other, each of its
    declared type (a float field takes an int; a bool is neither), and the
    config accepts the values."""
    recorded = metadata["config"]
    types = typing.get_type_hints(config_cls)
    problems = []
    unknown = sorted(set(recorded) - set(types))
    if unknown:
        problems.append(f"unknown fields {unknown}")
    missing = sorted(set(types) - set(recorded))
    if missing:
        problems.append(f"missing fields {missing}")
    wrong = [
        f"{key} {value!r}" for key, value in recorded.items()
        if key in types and (
            isinstance(value, bool)
            or not isinstance(value, (int, float) if types[key] is float else types[key]))
    ]
    if wrong:
        problems.append(f"values of the wrong type: {', '.join(wrong)}")
    if problems:
        raise CheckpointError(f"{path}: recorded config has {'; '.join(problems)}")
    try:
        return config_cls(**recorded)
    except ValueError as exc:
        raise CheckpointError(f"{path}: recorded config is invalid: {exc}") from None


def restore_model(model, arrays: dict) -> None:
    """Copy checkpoint arrays into a freshly constructed model."""
    params = model.params
    if set(arrays) != set(params):
        missing = set(params) - set(arrays)
        extra = set(arrays) - set(params)
        raise CheckpointError(f"parameter set mismatch: missing {missing}, extra {extra}")
    for name, array in arrays.items():
        if params[name].data.shape != array.shape:
            raise CheckpointError(f"shape mismatch for {name!r}")
        params[name].data = array.astype(model.dtype)
