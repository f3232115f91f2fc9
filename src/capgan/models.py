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

import json
import struct
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import files
from .tensor import (
    DomainError,
    Tensor,
    attention,
    attention_kernel,
    concat,
    concat_linear,
    conv1d_k3,
    embedding,
    gru_cell,
    layer_norm,
    layer_norm_kernel,
    linear,
    linear_kernel,
    no_grad,
)

CHECKPOINT_MAGIC = b"DCCKPT01"
CHECKPOINT_VERSION = 1
L2_NORM_SQ_MIN = 1e-12  # a smaller squared norm cannot be normalized


class CheckpointError(ValueError):
    pass


# -- parameter plumbing -------------------------------------------------------


class ParamStore:
    """Ordered named parameters shared by all three models."""

    def __init__(self, rng: np.random.Generator | None, dtype=np.float32):
        self.rng = rng
        self.dtype = dtype
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, shape) -> Tensor:
        """Normal init scaled by 1/sqrt(fan-in), the first dimension; zeros
        without an ``rng``, for a model that a checkpoint will overwrite."""
        if self.rng is None:
            return self.zeros(name, shape)
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


def pad(rows):
    """Rows zero-padded to the longest: token-id lists give [N, L_max]
    int64, [F_i, d] frame arrays [N, F_max, d] in their dtype; plus the
    [N] int64 lengths."""
    rows = [r if isinstance(r, np.ndarray) else np.array(r, dtype=np.int64) for r in rows]
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    padded = np.zeros((len(rows), lengths.max(), *rows[0].shape[1:]), dtype=rows[0].dtype)
    for i, r in enumerate(rows):
        padded[i, : len(r)] = r
    return padded, lengths


def l2_normalize(x: Tensor) -> Tensor:
    norm_sq = (x * x).sum(axis=-1, keepdims=True)
    if np.any(norm_sq.data < L2_NORM_SQ_MIN):
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


def add_gru(store: ParamStore, prefix: str, d_in: int, d_hidden: int) -> None:
    """Registers a GRU under ``prefix``: per gate (reset r, update u, candidate
    h) an input weight ``w_*``, a recurrent weight ``u_*`` and a bias ``b_*``."""
    for gate in "ruh":
        store.add(f"{prefix}.w_{gate}", (d_in, d_hidden))
        store.add(f"{prefix}.u_{gate}", (d_hidden, d_hidden))
        store.zeros(f"{prefix}.b_{gate}", (d_hidden,))


def gru_inputs(xs: Tensor, params: dict, prefix: str) -> Tensor:
    """The ``prefix`` GRU's reset, update and candidate input projections
    of every step, [..., d_in] -> [..., 3 * d_hidden], as one GEMM."""
    w = concat([params[f"{prefix}.w_{gate}"] for gate in "ruh"], axis=1)
    b = concat([params[f"{prefix}.b_{gate}"] for gate in "ruh"], axis=0)
    return linear(xs, w, b)


def gru_final_hidden(xs: Tensor, lengths: np.ndarray, params: dict, prefix: str) -> Tensor:
    """Run the ``prefix`` GRU batched over [B, T, d_in]; return each sequence's
    last real hidden state (updates are frozen past a sequence's length)."""
    batch, t_steps, _ = xs.shape
    u_r, u_u, u_h = (params[f"{prefix}.u_{gate}"] for gate in "ruh")
    x_proj = gru_inputs(xs, params, prefix)
    alive = np.arange(t_steps)[None, :] < np.asarray(lengths)[:, None]
    h = _const(np.zeros((batch, u_r.shape[0])), xs.dtype)
    for t in range(t_steps):
        h = gru_cell(x_proj, t, h, u_r, u_u, u_h, alive[:, t, None])
    return h


# -- audio trunk --------------------------------------------------------------


def add_audio_trunk(store: ParamStore, prefix: str, d_in: int, d_hidden: int) -> None:
    """Registers an audio trunk's input projection ``{prefix}.in`` and
    width-3 convolution ``{prefix}.conv``."""
    store.add(f"{prefix}.in.w", (d_in, d_hidden))
    store.zeros(f"{prefix}.in.b", (d_hidden,))
    for tag in ("l", "c", "r"):
        store.add(f"{prefix}.conv.w_{tag}", (d_hidden, d_hidden))
    store.zeros(f"{prefix}.conv.b", (d_hidden,))


def audio_trunk(features: np.ndarray, params: dict, prefix: str, dtype) -> Tensor:
    """The trunk ``add_audio_trunk`` registered under ``prefix``:
    [B, F, d_in] features -> relu(conv(relu(input projection))) [B, F, d_hidden]."""
    def p(name):
        return params[f"{prefix}.{name}"]

    h = linear(_const(features, dtype), p("in.w"), p("in.b")).relu()
    return conv1d_k3(h, p("conv.w_l"), p("conv.w_c"), p("conv.w_r"), p("conv.b")).relu()


# -- positions ----------------------------------------------------------------


def sinusoidal_positions(t_steps: int, d_model: int, dtype) -> np.ndarray:
    pos = np.arange(t_steps)[:, None]
    i = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d_model)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(dtype)


def _check_sizes(config) -> None:
    """Every field of a model config but the generator's dropout is a size."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name != "dropout" and value < 1:
            raise ValueError(f"{type(config).__name__}.{f.name} must be >= 1, got {value}")


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
        _check_sizes(self)
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"GeneratorConfig.dropout must be in [0, 1), got {self.dropout}")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")


class DecodeCache:
    """What one decode keeps across its steps, as arrays.

    ``cross`` holds each decoder layer's cross-attention keys/values
    [G, F, d_model], projected from the encoder memory on the first step,
    and ``frame_mask`` the additive mask [G or 1, 1, 1, F] of the memory's
    padded frames; both are per clip or per noise group, never per row.
    ``self_kv`` holds each layer's self-attention keys/values
    [B, length, d_model] for the ``length`` positions seen so far, one row
    per hypothesis. ``attention`` splits them into heads.
    """

    def __init__(self):
        self.length = 0
        self.self_kv: list[tuple[np.ndarray, np.ndarray]] = []
        self.cross: list[tuple[np.ndarray, np.ndarray]] = []
        self.frame_mask: np.ndarray | None = None

    def reorder(self, rows: np.ndarray) -> None:
        """Keep the self-attention rows of the given parents, in order;
        a parent may repeat or be dropped. The cross-attention keys/values
        and the frame mask stay as they are."""
        self.self_kv = [(keys[rows], values[rows]) for keys, values in self.self_kv]


class Generator:
    """Encoder + noise-conditioned causal transformer decoder."""

    kind = "generator"

    def __init__(self, config: GeneratorConfig, rng: np.random.Generator, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        store = ParamStore(rng, dtype)
        c = config

        add_audio_trunk(store, "enc", c.feat_dim, c.d_model)
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
        the z-free trunk (input projection and conv) runs once, and the
        noise merge repeats its output for each noise row.
        """
        p = self.params
        h = audio_trunk(features, p, "enc", self.dtype)
        return concat_linear(h, np.asarray(z, dtype=self.dtype), p["noise.w"], p["noise.b"])

    def _causal_mask(self, t_new: int, start: int) -> np.ndarray:
        """Additive mask [t_new, start + t_new] of the positions after
        ``start`` over every position up to them."""
        return np.triu(np.full((t_new, start + t_new), -1e9, dtype=self.dtype), k=1 + start)

    def _frame_mask(self, feat_lengths, frames: int) -> np.ndarray:
        """Additive mask [B, 1, 1, frames] of each row's padded frames."""
        frame_alive = np.arange(frames)[None, :] < np.asarray(feat_lengths)[:, None]
        return np.where(frame_alive, 0.0, -1e9).astype(self.dtype)[:, None, None, :]

    def _check_length(self, t_steps: int) -> None:
        if t_steps > self.config.t_max + 1:
            raise ValueError(f"prefix length {t_steps} exceeds t_max+1 = {self.config.t_max + 1}")

    # taped teacher-forced pass

    def _keys_values(self, x: Tensor, layer: int, block: str) -> tuple[Tensor, Tensor]:
        p = self.params
        return x @ p[f"dec.{layer}.{block}.k"], x @ p[f"dec.{layer}.{block}.v"]

    def _attention(self, x, keys, values, mask_np, layer, block, drop_rng):
        """Multi-head attention of queries from x over keys/values [B, Tk, d_model]."""
        p = self.params
        c = self.config
        batch, t_q, _ = x.shape
        q = x @ p[f"dec.{layer}.{block}.q"]
        t_k, t_full = keys.shape[1], c.t_max + 1
        drop = dropout_mask(
            (batch, c.n_heads, t_q, t_k),
            (batch, c.n_heads, t_full, t_full if block == "self" else t_k),
            c.dropout, drop_rng, self.dtype.type,
        )
        return attention(q, keys, values, c.n_heads, mask_np, drop) @ p[f"dec.{layer}.{block}.o"]

    def forward(
        self,
        features: np.ndarray,
        feat_lengths: np.ndarray,
        z: np.ndarray,
        tokens: np.ndarray,
        drop_rng: np.random.Generator | None = None,
        memory: Tensor | None = None,
        cache: DecodeCache | None = None,
    ):
        """Logits [B, T, vocab] for token positions [B, T].

        Without a cache this is the taped teacher-forced pass: ``tokens``
        are whole prefixes and the logits a ``Tensor``. ``memory`` is the
        rows' encoder memory, encoded from the features if not given.

        With a cache it is one tape-free decode step (see ``_decode_step``)
        and the logits an array.

        Training dropout (``drop_rng``) draws every mask for all
        ``t_max + 1`` positions and keeps those of ``tokens``, so a batch
        trimmed to its longest caption sees the masks a full-width one
        would at its positions.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if cache is not None:
            return self._decode_step(features, feat_lengths, z, tokens, memory, cache)
        c = self.config
        batch, t_steps = tokens.shape
        self._check_length(t_steps)
        p = self.params
        if memory is None:
            memory = self.encode(features, feat_lengths, z)
        cross = [self._keys_values(memory, layer, "cross") for layer in range(c.n_layers)]
        causal = self._causal_mask(t_steps, 0)
        mem_mask = self._frame_mask(feat_lengths, memory.shape[1])

        x = embedding(p["dec.embed"], tokens) + _const(
            np.broadcast_to(self._positions[:t_steps], (batch, t_steps, c.d_model)),
            self.dtype,
        )
        t_full = c.t_max + 1
        x = dropout(x, (batch, t_full, c.d_model), c.dropout, drop_rng)
        for layer in range(c.n_layers):
            n = lambda tag, t: layer_norm(
                t, p[f"dec.{layer}.{tag}.g"], p[f"dec.{layer}.{tag}.b"]
            )
            xn = n("n1", x)
            keys, values = self._keys_values(xn, layer, "self")
            x = x + self._attention(xn, keys, values, causal, layer, "self", drop_rng)
            x = x + self._attention(n("n2", x), *cross[layer], mem_mask, layer, "cross", drop_rng)
            h = n("n3", x)
            h = linear(h, p[f"dec.{layer}.ff.w1"], p[f"dec.{layer}.ff.b1"]).relu()
            h = dropout(h, (batch, t_full, c.d_ff), c.dropout, drop_rng)
            x = x + linear(h, p[f"dec.{layer}.ff.w2"], p[f"dec.{layer}.ff.b2"])
        x = layer_norm(x, p["dec.final_norm.g"], p["dec.final_norm.b"])
        return linear(x, p["dec.out.w"], p["dec.out.b"])

    # tape-free decode step

    def _decode_step(self, features, feat_lengths, z, tokens, memory, cache) -> np.ndarray:
        """Logits [B, t, vocab] of the ``t`` positions after the
        ``cache.length`` already seen, on arrays, recording no graph.

        Each op calls the array kernel that the matching ``Tensor`` node
        runs forward, so the logits equal, bit for bit, those of the same
        step built from ``Tensor`` ops. The first step fills ``cache.cross``
        and ``cache.frame_mask`` from ``memory`` (a ``Tensor`` or an array;
        encoded from the features if not given); every step appends its
        positions' self-attention keys/values.

        The memory's batch G may divide the rows' B, as in beam search,
        where each noise group's B/G hypotheses share that group's memory:
        a group's rows fold into the query axis, so the group attends as
        one [B/G, d] query block.
        """
        c = self.config
        t_new = tokens.shape[1]
        start = cache.length
        self._check_length(start + t_new)
        p = {name: param.data for name, param in self.params.items()}
        if not cache.cross:
            if memory is None:
                with no_grad():
                    memory = self.encode(features, feat_lengths, z)
            memory = memory.data if isinstance(memory, Tensor) else memory
            cache.cross = [
                tuple(linear_kernel(memory, p[f"dec.{layer}.cross.{proj}"]) for proj in ("k", "v"))
                for layer in range(c.n_layers)
            ]
            cache.frame_mask = self._frame_mask(feat_lengths, memory.shape[1])
        causal = self._causal_mask(t_new, start)

        def norm(x, tag):
            return layer_norm_kernel(x, p[f"{tag}.g"], p[f"{tag}.b"])[0]

        def attend(x, keys, values, mask, layer, block):
            w = f"dec.{layer}.{block}"
            q = linear_kernel(x.reshape(len(keys), -1, c.d_model), p[f"{w}.q"])
            out, _ = attention_kernel(q, keys, values, c.n_heads, mask)
            return linear_kernel(out, p[f"{w}.o"]).reshape(x.shape)

        x = p["dec.embed"][tokens] + self._positions[start : start + t_new]
        for layer in range(c.n_layers):
            xn = norm(x, f"dec.{layer}.n1")
            kv = tuple(linear_kernel(xn, p[f"dec.{layer}.self.{proj}"]) for proj in ("k", "v"))
            if layer == len(cache.self_kv):
                cache.self_kv.append(kv)
            else:
                cache.self_kv[layer] = tuple(
                    np.concatenate([old, new], axis=1) for old, new in zip(cache.self_kv[layer], kv)
                )
            x = x + attend(xn, *cache.self_kv[layer], causal, layer, "self")
            x = x + attend(norm(x, f"dec.{layer}.n2"), *cache.cross[layer], cache.frame_mask,
                           layer, "cross")
            h = norm(x, f"dec.{layer}.n3")
            h = np.maximum(linear_kernel(h, p[f"dec.{layer}.ff.w1"], p[f"dec.{layer}.ff.b1"]), 0.0)
            x = x + linear_kernel(h, p[f"dec.{layer}.ff.w2"], p[f"dec.{layer}.ff.b2"])
        cache.length = start + t_new
        x = norm(x, "dec.final_norm")
        return linear_kernel(x, p["dec.out.w"], p["dec.out.b"])

    def step_logits(self, features, feat_lengths, z, prefix: np.ndarray, memory=None,
                    cache: DecodeCache | None = None) -> np.ndarray:
        """Next-token logits for each batch row: ``prefix`` [B, T] is the
        whole prefix, or with a cache only its new positions."""
        cache = DecodeCache() if cache is None else cache
        return self.forward(features, feat_lengths, z, prefix, memory=memory, cache=cache)[:, -1, :]


# -- discriminator ------------------------------------------------------------


@dataclass
class DiscriminatorConfig:
    vocab_size: int
    embed_dim: int = 64
    hidden_dim: int = 128

    def __post_init__(self):
        _check_sizes(self)


class Discriminator:
    """Single-layer GRU over token embeddings, sigmoid naturalness head."""

    kind = "discriminator"

    def __init__(self, config: DiscriminatorConfig, rng: np.random.Generator, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        store = ParamStore(rng, dtype)
        store.add("embed", (config.vocab_size, config.embed_dim))
        add_gru(store, "gru", config.embed_dim, config.hidden_dim)
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
        h = gru_final_hidden(xs, lengths, self.params, "gru")
        logit = linear(h, self.params["head.w"], self.params["head.b"])
        return logit.sigmoid().reshape(len(lengths))

    def score(self, token_seqs: list[list[int]]) -> np.ndarray:
        """Naturalness of each caption: one padded forward, no tape."""
        with no_grad():
            return self.forward(*pad(token_seqs)).data


# -- semantic evaluator -------------------------------------------------------


@dataclass
class SemanticEvaluatorConfig:
    vocab_size: int
    feat_dim: int = 64
    embed_dim: int = 64
    hidden_dim: int = 128
    out_dim: int = 128

    def __post_init__(self):
        _check_sizes(self)


class SemanticEvaluator:
    """Audio conv branch and caption GRU branch meeting in a cosine-scored
    joint embedding space."""

    kind = "semantic"

    def __init__(self, config: SemanticEvaluatorConfig, rng: np.random.Generator, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        store = ParamStore(rng, dtype)
        c = config
        add_audio_trunk(store, "audio", c.feat_dim, c.hidden_dim)
        store.add("audio.out.w", (c.hidden_dim, c.out_dim))
        store.zeros("audio.out.b", (c.out_dim,))
        store.add("text.embed", (c.vocab_size, c.embed_dim))
        add_gru(store, "text.gru", c.embed_dim, c.hidden_dim)
        store.add("text.out.w", (c.hidden_dim, c.out_dim))
        store.zeros("text.out.b", (c.out_dim,))
        self.store = store
        self.params = store.named()

    def embed_audio(self, features: np.ndarray, feat_lengths: np.ndarray) -> Tensor:
        p = self.params
        h = audio_trunk(features, p, "audio", self.dtype)
        frames = h.shape[1]
        alive = np.arange(frames)[None, :] < np.asarray(feat_lengths)[:, None]
        mask = _const(alive.astype(float)[:, :, None], self.dtype)
        pooled = (h * mask.broadcast_to(h.shape)).sum(axis=1)
        lengths = _const(np.asarray(feat_lengths, dtype=float)[:, None], self.dtype)
        pooled = pooled / lengths.broadcast_to(pooled.shape)
        return l2_normalize(linear(pooled, p["audio.out.w"], p["audio.out.b"]).tanh())

    def embed_caption(self, tokens: np.ndarray, lengths: np.ndarray) -> Tensor:
        p = self.params
        xs = embedding(p["text.embed"], np.asarray(tokens, dtype=np.int64))
        h = gru_final_hidden(xs, np.asarray(lengths), p, "text.gru")
        return l2_normalize(linear(h, p["text.out.w"], p["text.out.b"]).tanh())

    def score(self, audio: np.ndarray, token_seqs: list[list[int]]) -> np.ndarray:
        """Cosine of each caption against its row of ``audio``, the
        [B, out_dim] ``embed_audio`` embeddings: one padded caption forward,
        no tape."""
        if len(audio) != len(token_seqs):
            raise ValueError(f"{len(audio)} audio rows for {len(token_seqs)} captions")
        with no_grad():
            caption = self.embed_caption(*pad(token_seqs))
        return (audio * caption.data).sum(axis=-1)


# -- checkpoints --------------------------------------------------------------


def save_checkpoint(path, model, metadata: dict | None = None) -> None:
    """Binary checkpoint: magic, version, kind tag, metadata JSON, entries;
    written whole or not at all (``files.replaced``)."""
    metadata = dict(metadata or {})
    metadata.setdefault("config", asdict(model.config))
    meta_blob = json.dumps(metadata, sort_keys=True, allow_nan=False).encode()
    kind_blob = model.kind.encode()
    with files.replaced(path, binary=True) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<H", len(kind_blob)))
        fh.write(kind_blob)
        fh.write(struct.pack("<I", len(meta_blob)))
        fh.write(meta_blob)
        fh.write(struct.pack("<I", len(model.params)))
        for name, tensor in model.params.items():
            name_blob = name.encode()
            payload = np.ascontiguousarray(tensor.data, dtype="<f4")
            fh.write(struct.pack("<H", len(name_blob)))
            fh.write(name_blob)
            fh.write(struct.pack("<B", payload.ndim))
            fh.write(struct.pack(f"<{payload.ndim}I", *payload.shape))
            fh.write(payload.tobytes())


def load_checkpoint(path, expected_kind: str | None = None) -> tuple[dict, dict]:
    """Returns (name -> float32 array, metadata)."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise CheckpointError(f"missing checkpoint {path}") from None
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
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: non-finite values in {name!r}")
        arrays[name] = np.array(data)
    if offset != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after checkpoint payload")
    return arrays, metadata


def fits_type(value, declared: type) -> bool:
    """An int setting takes ints, a float setting ints and floats; a bool is neither."""
    return not isinstance(value, bool) and isinstance(
        value, (int, float) if declared is float else declared)


def config_from_checkpoint(config_cls, metadata: dict, path):
    """The ``config_cls`` a checkpoint's metadata records. Refused with a
    ``CheckpointError`` unless it has every field and no other, each
    ``fits_type`` of its declared type, and the config accepts the values."""
    recorded = metadata["config"]
    types = typing.get_type_hints(config_cls)
    problems = []
    unknown = sorted(set(recorded) - set(types))
    if unknown:
        problems.append(f"unknown fields {unknown}")
    missing = sorted(set(types) - set(recorded))
    if missing:
        problems.append(f"missing fields {missing}")
    wrong = [f"{key} {value!r}" for key, value in recorded.items()
             if key in types and not fits_type(value, types[key])]
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
