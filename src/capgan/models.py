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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .tensor import (
    DomainError,
    Tensor,
    concat,
    embedding,
    layer_norm,
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

    def add(self, name: str, shape, scale: float | None = None) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        if scale is None:
            fan_in = shape[0] if len(shape) > 1 else shape[0]
            scale = 1.0 / np.sqrt(fan_in)
        data = (self.rng.standard_normal(shape) * scale).astype(self.dtype)
        p = Tensor(data, requires_grad=True)
        self._params[name] = p
        return p

    def zeros(self, name: str, shape) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        p = Tensor(np.zeros(shape, dtype=self.dtype), requires_grad=True)
        self._params[name] = p
        return p

    def named(self) -> dict[str, Tensor]:
        return dict(self._params)

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())


def _const(array, dtype) -> Tensor:
    return Tensor(np.asarray(array, dtype=dtype))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    out = x @ w
    return out + b.broadcast_to(out.shape)


def l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    norm_sq = (x * x).sum(axis=-1, keepdims=True)
    if np.any(norm_sq.data < eps):
        raise DomainError("zero-norm embedding cannot be normalized")
    norm = norm_sq.sqrt()
    return x / norm.broadcast_to(x.shape)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    if rng is None or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.dtype.type) / keep
    return x * Tensor(mask)


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


def gru_cell(x: Tensor, h_prev: Tensor, p: GRUParams) -> Tensor:
    """One GRU step: reset gate r, update gate u, candidate state."""
    r = (linear(x, p.w_r, p.b_r) + h_prev @ p.u_r).sigmoid()
    u = (linear(x, p.w_u, p.b_u) + h_prev @ p.u_u).sigmoid()
    h_tilde = (linear(x, p.w_h, p.b_h) + (r * h_prev) @ p.u_h).tanh()
    return (1.0 - u) * h_prev + u * h_tilde


def gru_final_hidden(xs: Tensor, lengths: np.ndarray, p: GRUParams, d_hidden: int) -> Tensor:
    """Run a batched GRU over [B, T, d_in]; return each sequence's last
    real hidden state (updates are frozen past a sequence's length)."""
    batch, t_steps, _ = xs.shape
    h = _const(np.zeros((batch, d_hidden)), xs.dtype)
    for t in range(t_steps):
        h_new = gru_cell(xs[:, t, :], h, p)
        alive = _const((t < lengths).astype(float)[:, None], xs.dtype)
        alive_b = alive.broadcast_to((batch, d_hidden))
        h = h_new * alive_b + h * (1.0 - alive_b)
    return h


# -- shared conv building block ----------------------------------------------


def conv1d_k3(x: Tensor, w_left: Tensor, w_center: Tensor, w_right: Tensor, b: Tensor) -> Tensor:
    """Width-3 1-D convolution over the time axis of [B, T, d], zero padded."""
    batch, t_steps, d_in = x.shape
    zero = _const(np.zeros((batch, 1, d_in)), x.dtype)
    left = concat([zero, x[:, :-1, :]], axis=1) if t_steps > 1 else zero
    right = concat([x[:, 1:, :], zero], axis=1) if t_steps > 1 else zero
    out = left @ w_left + x @ w_center + right @ w_right
    return out + b.broadcast_to(out.shape)


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
        a parent may repeat or be dropped."""
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
        """[B, F, feat_dim] + noise [B, noise_dim] -> memory [B, F, d_model]."""
        p = self.params
        x = _const(features, self.dtype)
        h = linear(x, p["enc.in.w"], p["enc.in.b"]).relu()
        h = conv1d_k3(
            h, p["enc.conv.w_l"], p["enc.conv.w_c"], p["enc.conv.w_r"], p["enc.conv.b"]
        ).relu()
        batch, frames, _ = h.shape
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

        keys/values may have batch 1 against a larger query batch (one
        clip's memory shared by every beam hypothesis).
        """
        p = self.params
        c = self.config
        d_head = c.d_model // c.n_heads
        batch, t_q, _ = x.shape
        t_k = keys.shape[2]
        qh = self._heads(x @ p[f"dec.{layer}.{block}.q"])
        scores = (qh @ keys.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(d_head))
        scores = scores + _const(
            np.broadcast_to(mask_np, (batch, c.n_heads, t_q, t_k)), self.dtype
        )
        attn = scores.softmax(axis=-1)
        attn = dropout(attn, c.dropout, drop_rng)
        out = (attn @ values).transpose(0, 2, 1, 3).reshape(batch, t_q, c.d_model)
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

        Without a cache, ``tokens`` are whole teacher-forced prefixes. With
        one, they are only the positions after the ``cache.length`` already
        seen: their self-attention keys/values are appended to the cache,
        and the cross-attention keys/values are projected from ``memory``
        on the first call and reused after it.
        """
        c = self.config
        tokens = np.asarray(tokens, dtype=np.int64)
        batch, t_new = tokens.shape
        start = cache.length if cache is not None else 0
        t_steps = start + t_new
        if t_steps > c.t_max + 1:
            raise ValueError(f"prefix length {t_steps} exceeds t_max+1 = {c.t_max + 1}")
        p = self.params
        if cache is not None and cache.cross:
            cross = cache.cross
        else:
            if memory is None:
                memory = self.encode(features, feat_lengths, z)
            cross = [self._keys_values(memory, layer, "cross") for layer in range(c.n_layers)]
            if cache is not None:
                cache.cross = cross
        frames = cross[0][0].shape[2]

        causal = np.triu(np.full((t_new, t_steps), -1e9, dtype=self.dtype), k=1 + start)
        frame_alive = np.arange(frames)[None, :] < np.asarray(feat_lengths)[:, None]
        mem_mask = np.where(frame_alive, 0.0, -1e9).astype(self.dtype)
        mem_mask = mem_mask[:, None, None, :]

        x = embedding(p["dec.embed"], tokens) + _const(
            np.broadcast_to(self._positions[start:t_steps], (batch, t_new, c.d_model)),
            self.dtype,
        )
        x = dropout(x, c.dropout, drop_rng)
        for layer in range(c.n_layers):
            n = lambda tag, t: layer_norm(
                t, p[f"dec.{layer}.{tag}.g"], p[f"dec.{layer}.{tag}.b"]
            )
            xn = n("n1", x)
            keys, values = self._keys_values(xn, layer, "self")
            if cache is not None:
                keys, values = cache.extend(layer, keys, values)
            x = x + self._attention(xn, keys, values, causal, layer, "self", drop_rng)
            x = x + self._attention(n("n2", x), *cross[layer], mem_mask, layer, "cross", drop_rng)
            h = n("n3", x)
            h = linear(h, p[f"dec.{layer}.ff.w1"], p[f"dec.{layer}.ff.b1"]).relu()
            h = dropout(h, c.dropout, drop_rng)
            x = x + linear(h, p[f"dec.{layer}.ff.w2"], p[f"dec.{layer}.ff.b2"])
        if cache is not None:
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

    def score(self, token_seq: list[int]) -> float:
        ids = np.asarray([token_seq], dtype=np.int64)
        return float(self.forward(ids, np.array([len(token_seq)])).data[0])


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

    def score(self, features: np.ndarray, token_seq: list[int]) -> float:
        return float(
            self.scores(
                features[None, ...],
                np.array([features.shape[0]]),
                np.asarray([token_seq], dtype=np.int64),
                np.array([len(token_seq)]),
            ).data[0]
        )


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

    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (kind_len,) = struct.unpack("<H", take(2))
    kind = bytes(take(kind_len)).decode()
    if expected_kind is not None and kind != expected_kind:
        raise CheckpointError(f"{path}: checkpoint kind {kind!r}, expected {expected_kind!r}")
    (meta_len,) = struct.unpack("<I", take(4))
    metadata = json.loads(bytes(take(meta_len)).decode())
    (n_entries,) = struct.unpack("<I", take(4))
    arrays = {}
    for _ in range(n_entries):
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode()
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(take(4 * count), dtype="<f4").reshape(shape)
        arrays[name] = np.array(data)
    if offset != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after checkpoint payload")
    return arrays, metadata


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
