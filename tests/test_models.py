import hashlib
import warnings
import weakref

import numpy as np
import pytest

from capgan import models, tensor
from capgan.models import (
    CheckpointError,
    DecodeCache,
    Discriminator,
    DiscriminatorConfig,
    Generator,
    GeneratorConfig,
    ParamStore,
    SemanticEvaluator,
    SemanticEvaluatorConfig,
    add_gru,
    conv1d_k3,
    dropout_mask,
    gru_final_hidden,
    gru_inputs,
    l2_normalize,
    load_checkpoint,
    pad,
    restore_model,
    save_checkpoint,
)
from capgan.tensor import (
    DimensionError,
    DomainError,
    Tensor,
    concat,
    cross_entropy,
    embedding,
    gru_cell,
    layer_norm,
    linear,
    no_grad,
)
from capgan.seeding import substream
from capgan.text import EOS, PAD

from conftest import assert_grads_close, finite_difference


def tiny_generator(dtype=np.float64, seed=0, n_layers=1):
    config = GeneratorConfig(
        vocab_size=11, feat_dim=5, d_model=8, n_layers=n_layers, n_heads=2,
        d_ff=12, noise_dim=4, t_max=6, dropout=0.0,
    )
    return Generator(config, np.random.default_rng(seed), dtype=dtype)


def tiny_inputs(rng, batch=2, frames=4, feat_dim=5, noise_dim=4, t=4, vocab=11):
    features = rng.standard_normal((batch, frames, feat_dim))
    feat_lengths = np.full(batch, frames)
    feat_lengths[-1] = frames - 1
    z = rng.standard_normal((batch, noise_dim))
    tokens = rng.integers(1, vocab, size=(batch, t))
    tokens[:, 0] = 1  # sos
    return features, feat_lengths, z, tokens


def default_generator(seed=0):
    """Default model sizes, float32, with the synthetic corpus's vocabulary size."""
    return Generator(GeneratorConfig(vocab_size=106), np.random.default_rng(seed))


def gru(store, d_in, d_hidden):
    """A GRU registered under "g": its parameters by name, and its
    recurrent weights (u_r, u_u, u_h)."""
    add_gru(store, "g", d_in, d_hidden)
    p = store.named()
    return p, (p["g.u_r"], p["g.u_u"], p["g.u_h"])


def gru_step(x, h_prev, p):
    """One GRU step from the raw input x [B, d_in], every row alive."""
    alive = np.ones((x.shape[0], 1), dtype=bool)
    return gru_cell(gru_inputs(x.reshape(x.shape[0], 1, -1), p, "g"), 0, h_prev,
                    p["g.u_r"], p["g.u_u"], p["g.u_h"], alive)


class TestGRUCell:
    def _zero_params(self, d_in=3, d_hidden=4, dtype=np.float64):
        store = ParamStore(np.random.default_rng(0), dtype)
        p, _ = gru(store, d_in, d_hidden)
        for t in store.tensors():
            t.data[...] = 0.0
        return p

    def test_zero_params_halves_hidden(self):
        p = self._zero_params()
        h_prev = Tensor(np.array([[1.0, -2.0, 0.5, 4.0]]))
        x = Tensor(np.ones((1, 3)))
        h = gru_step(x, h_prev, p)
        np.testing.assert_allclose(h.data, 0.5 * h_prev.data)

    def test_zero_everything_fixed_point(self):
        p = self._zero_params()
        h = gru_step(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))), p)
        np.testing.assert_array_equal(h.data, np.zeros((1, 4)))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        store = ParamStore(rng, np.float64)
        p, _ = gru(store, 3, 4)
        x_np = rng.standard_normal((2, 3))
        h_np = rng.standard_normal((2, 4))

        def loss():
            h = gru_step(Tensor(x_np), Tensor(h_np), p)
            return float((h.data**2).sum())

        out = gru_step(Tensor(x_np), Tensor(h_np), p)
        (out * out).sum().backward()
        fd = finite_difference(loss, store.tensors())
        assert_grads_close(store.tensors(), fd)

    def test_step_gradient_lands_in_its_slice(self):
        rng = np.random.default_rng(8)
        store = ParamStore(rng, np.float64)
        _, u = gru(store, 3, 4)
        x_proj = Tensor(rng.standard_normal((2, 3, 12)), requires_grad=True)
        h_prev = Tensor(rng.standard_normal((2, 4)))
        w = Tensor(rng.standard_normal((2, 4)))
        alive = np.array([[True], [True]])
        (gru_cell(x_proj, 1, h_prev, *u, alive) * w).sum().backward()
        # the same step on a projection of that one step
        alone = Tensor(x_proj.data[:, 1:2].copy(), requires_grad=True)
        (gru_cell(alone, 0, h_prev, *u, alive) * w).sum().backward()
        assert x_proj.grad[:, 1].tobytes() == alone.grad[:, 0].tobytes()
        assert not x_proj.grad[:, [0, 2]].any()


def reference_gru_final_hidden(xs: Tensor, lengths, params: dict, prefix: str) -> Tensor:
    """The composed GRU the hoisted one replaced: per step, three input
    projections and a cell built from elementwise ops, then a blend that
    freezes finished rows."""
    def p(name):
        return params[f"{prefix}.{name}"]

    batch, t_steps, _ = xs.shape
    h = Tensor(np.zeros((batch, p("u_r").shape[0]), dtype=xs.dtype))
    for t in range(t_steps):
        x = xs[:, t, :]
        r = (linear(x, p("w_r"), p("b_r")) + h @ p("u_r")).sigmoid()
        u = (linear(x, p("w_u"), p("b_u")) + h @ p("u_u")).sigmoid()
        h_tilde = (linear(x, p("w_h"), p("b_h")) + (r * h) @ p("u_h")).tanh()
        h_new = (1.0 - u) * h + u * h_tilde
        alive = Tensor(np.broadcast_to((t < lengths)[:, None], h.shape).astype(xs.dtype))
        h = h_new * alive + h * (1.0 - alive)
    return h


def _gru_setup(dtype, d_in, d_hidden, lengths, seed=4):
    rng = np.random.default_rng(seed)
    store = ParamStore(rng, dtype)
    p, _ = gru(store, d_in, d_hidden)
    for name, t in store.named().items():
        if ".b_" in name:  # non-zero biases, so their gradients are exercised
            t.data[...] = rng.standard_normal(t.shape) * 0.5
    xs = Tensor(rng.standard_normal((len(lengths), max(lengths), d_in)).astype(dtype),
                requires_grad=True)
    return store, p, xs, np.array(lengths)


class TestHoistedGRU:
    def test_gradients_vs_finite_differences(self):
        store, p, xs, lengths = _gru_setup(np.float64, 3, 4, [4, 2, 1])
        w = np.random.default_rng(5).standard_normal((3, 4))

        def loss():
            return (gru_final_hidden(xs, lengths, p, "g") * Tensor(w)).sum()

        loss().backward()
        params = [xs, *store.tensors()]
        fd = finite_difference(lambda: loss().item(), params)
        assert_grads_close(params, fd)

    def test_matches_composed_gru(self):
        store, p, xs, lengths = _gru_setup(np.float32, 64, 128, [12, 9, 5, 1, 12, 3, 7, 10])
        w = np.random.default_rng(6).standard_normal((8, 128)).astype(np.float32)
        params = [xs, *store.tensors()]
        results = []
        for run in (gru_final_hidden, reference_gru_final_hidden):
            out = run(xs, lengths, p, "g")
            (out * Tensor(w)).sum().backward()
            results.append([out.data] + [t.grad for t in params])
            for t in params:
                t.zero_grad()
        for got, want in zip(*results):
            assert got.dtype == np.float32 and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_finished_rows_keep_their_state(self):
        _, p, xs, _ = _gru_setup(np.float64, 3, 4, [2, 2])
        u = (p["g.u_r"], p["g.u_u"], p["g.u_h"])
        x_proj = gru_inputs(xs, p, "g")
        h_prev = Tensor(np.arange(8.0).reshape(2, 4), requires_grad=True)
        out = gru_cell(x_proj, 0, h_prev, *u, np.array([[True], [False]]))
        np.testing.assert_array_equal(out.data[1], h_prev.data[1])
        out.sum().backward()
        np.testing.assert_array_equal(h_prev.grad[1], np.ones(4))
        # the finished row adds nothing to the weights' gradients
        with_dead_row = [t.grad.copy() for t in u]
        for t in u:
            t.zero_grad()
        # a backward releases its graph, so the second one projects the inputs again
        x_proj = gru_inputs(xs, p, "g")
        gru_cell(x_proj[:1], 0, h_prev[:1], *u, np.array([[True]])).sum().backward()
        for got, alone in zip(with_dead_row, (t.grad for t in u)):
            np.testing.assert_allclose(got, alone, rtol=1e-12, atol=1e-15)


def graph_nodes(root: Tensor) -> list:
    """Every node of the graph that ends at ``root``, leaves included."""
    seen, stack = {}, [root._node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


def op_of(node) -> str:
    """The op that built a node, named by its backward closure."""
    return "leaf" if node.backward is None else node.backward.__qualname__.split(".<locals>")[0]


class TestGenerator:
    def test_taped_forward_node_count(self):
        # 2 layers: each attention is one node over its q, k and v
        # projections, with no head split or merge nodes around it
        gen = default_generator()
        c = gen.config
        rng = np.random.default_rng(8)
        features, feat_lengths, z, tokens = tiny_inputs(
            rng, batch=8, frames=63, feat_dim=c.feat_dim, noise_dim=c.noise_dim, t=14,
            vocab=c.vocab_size)
        logits = gen.forward(features, feat_lengths, z, tokens, drop_rng=np.random.default_rng(0))
        loss = cross_entropy(logits, rng.integers(0, c.vocab_size, size=tokens.shape))
        assert c.n_layers == 2 and len(graph_nodes(loss)) == 100

    def test_attention_gradients_reach_the_projections_uncopied(self, monkeypatch):
        # each attention node hands dq, dk and dv over to the q, k and v
        # projection nodes as their first gradients: no copy on the way
        gen = tiny_generator(dtype=np.float32, n_layers=2)
        features, feat_lengths, z, tokens = tiny_inputs(np.random.default_rng(7), t=5)
        loss = cross_entropy(gen.forward(features, feat_lengths, z, tokens), tokens)
        projections = set()
        for node in graph_nodes(loss):
            if op_of(node) == "attention":
                for parent in node.parents:
                    while op_of(parent) == "Tensor._unary":  # a reshape or transpose
                        parent, = parent.parents
                    assert op_of(parent) == "_folded_matmul"
                    projections.add(id(parent))
        assert len(projections) == 2 * 2 * 3  # layers, self and cross, q/k/v
        copied = []
        accumulate = tensor._Node.accumulate

        def spy(node, grad):
            copied.append(id(node))
            accumulate(node, grad)

        monkeypatch.setattr(tensor._Node, "accumulate", spy)
        loss.backward()
        assert copied and not projections & set(copied)

    def test_noise_changes_logits(self):
        gen = tiny_generator()
        rng = np.random.default_rng(1)
        features, feat_lengths, z1, tokens = tiny_inputs(rng)
        z2 = rng.standard_normal(z1.shape)
        l1 = gen.forward(features, feat_lengths, z1, tokens).data
        l2 = gen.forward(features, feat_lengths, z2, tokens).data
        assert np.abs(l1 - l2).max() > 0.0

    def test_causality(self):
        gen = tiny_generator()
        rng = np.random.default_rng(2)
        features, feat_lengths, z, tokens = tiny_inputs(rng, t=5)
        base = gen.forward(features, feat_lengths, z, tokens).data
        altered = tokens.copy()
        altered[:, 3:] = (altered[:, 3:] % 9) + 1
        changed = gen.forward(features, feat_lengths, z, altered).data
        np.testing.assert_allclose(base[:, :3, :], changed[:, :3, :], atol=1e-12)

    def test_batch_row_consistency(self):
        gen = tiny_generator()
        rng = np.random.default_rng(3)
        features, feat_lengths, z, tokens = tiny_inputs(rng, batch=4)
        full = gen.forward(features, feat_lengths, z, tokens).data
        row = gen.forward(
            features[1:2], feat_lengths[1:2], z[1:2], tokens[1:2]
        ).data
        np.testing.assert_allclose(full[1], row[0], atol=1e-10)

    def test_prefix_length_contract(self):
        gen = tiny_generator()
        rng = np.random.default_rng(4)
        features, feat_lengths, z, _ = tiny_inputs(rng)
        too_long = np.ones((2, gen.config.t_max + 2), dtype=np.int64)
        with pytest.raises(ValueError):
            gen.forward(features, feat_lengths, z, too_long)

    def test_distribution_sums_to_one(self):
        gen = tiny_generator()
        rng = np.random.default_rng(5)
        features, feat_lengths, z, tokens = tiny_inputs(rng)
        probs = gen.forward(features, feat_lengths, z, tokens).softmax(axis=-1).data
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)

    def test_full_model_gradients(self):
        gen = tiny_generator()
        rng = np.random.default_rng(6)
        features, feat_lengths, z, tokens = tiny_inputs(rng, t=4)
        targets = rng.integers(0, 11, size=(2, 4))

        def loss():
            logits = gen.forward(features, feat_lengths, z, tokens)
            return cross_entropy(logits, targets).item()

        cross_entropy(gen.forward(features, feat_lengths, z, tokens), targets).backward()
        params = gen.store.tensors()
        fd = finite_difference(loss, params)
        assert_grads_close(params, fd, rtol=1e-3)


class TestTrainingDropout:
    """Training masks are drawn for all t_max + 1 positions and cut to the
    positions of the tokens, so a batch trimmed to its longest caption
    sees what a full-width one would."""

    def test_mask_is_the_corner_of_the_drawn_shape(self):
        full = dropout_mask((3, 7, 5), (3, 7, 5), 0.3, np.random.default_rng(0), np.float32)
        rng = np.random.default_rng(0)
        cut = dropout_mask((3, 4, 5), (3, 7, 5), 0.3, rng, np.float32)
        np.testing.assert_array_equal(cut, full[:, :4])
        follow = np.random.default_rng(0)
        follow.random((3, 7, 5))
        assert rng.random() == follow.random()  # the stream passed the whole draw

    def test_short_forward_sees_the_full_width_masks(self, monkeypatch):
        config = GeneratorConfig(
            vocab_size=11, feat_dim=5, d_model=8, n_layers=2, n_heads=2,
            d_ff=12, noise_dim=4, t_max=6, dropout=0.3,
        )
        gen = Generator(config, np.random.default_rng(0), dtype=np.float64)
        features, feat_lengths, z, tokens = tiny_inputs(
            np.random.default_rng(1), batch=3, t=config.t_max + 1)
        drawn = []

        def spy(*args):
            mask = dropout_mask(*args)
            drawn.append(mask)
            return mask

        monkeypatch.setattr(models, "dropout_mask", spy)
        short_rng, full_rng = np.random.default_rng(9), np.random.default_rng(9)
        short = gen.forward(features, feat_lengths, z, tokens[:, :4], drop_rng=short_rng)
        n_short = len(drawn)
        full = gen.forward(features, feat_lengths, z, tokens, drop_rng=full_rng)
        # embedding, then self-attention, cross-attention and feed-forward per layer
        assert n_short == len(drawn) - n_short == 1 + 3 * config.n_layers
        for cut, whole in zip(drawn[:n_short], drawn[n_short:]):
            np.testing.assert_array_equal(cut, whole[tuple(slice(n) for n in cut.shape)])
        assert short_rng.random() == full_rng.random()
        np.testing.assert_allclose(short.data, full.data[:, :4], rtol=0, atol=1e-12)


def reference_conv1d_k3(x, w_left, w_center, w_right, b):
    """The width-3 convolution composed from ``linear``, ``concat``, shifted
    slices and two matmuls, the way the one-node ``conv1d_k3`` replaced."""
    batch, t_steps, d_in = x.shape
    zero = Tensor(np.zeros((batch, 1, d_in), dtype=x.dtype))
    left = concat([zero, x[:, :-1, :]], axis=1) if t_steps > 1 else zero
    right = concat([x[:, 1:, :], zero], axis=1) if t_steps > 1 else zero
    return linear(x, w_center, b) + left @ w_left + right @ w_right


class TestConv1dK3:
    @staticmethod
    def _run(conv, x, weights, c):
        """Output and the input's and four parameters' gradients; the input
        is an op output, as in the models."""
        leaf = Tensor(x, requires_grad=True)
        params = [Tensor(w, requires_grad=True) for w in weights]
        out = conv(leaf * 1.0, *params)
        (out * Tensor(c)).sum().backward()
        return [out.data, leaf.grad] + [p.grad for p in params]

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("t_steps", [1, 2, 7])
    def test_bit_identical_to_the_composition(self, t_steps, batch):
        rng = np.random.default_rng(10 * t_steps + batch)
        x = rng.standard_normal((batch, t_steps, 16)).astype(np.float32)
        weights = [rng.standard_normal((16, 12)).astype(np.float32) for _ in range(3)]
        weights.append(rng.standard_normal(12).astype(np.float32))
        c = rng.standard_normal((batch, t_steps, 12)).astype(np.float32)
        got = self._run(conv1d_k3, x, weights, c)
        want = self._run(reference_conv1d_k3, x, weights, c)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.float32
            np.testing.assert_array_equal(g, w)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 5, 3)), requires_grad=True)
        params = [Tensor(rng.standard_normal(s), requires_grad=True)
                  for s in ((3, 4), (3, 4), (3, 4), (4,))]
        c = rng.standard_normal((2, 5, 4))
        (conv1d_k3(x, *params) * Tensor(c)).sum().backward()
        fd = finite_difference(lambda: float((conv1d_k3(x, *params).data * c).sum()),
                               [x, *params])
        assert_grads_close([x, *params], fd)

    def test_mismatched_weights_rejected(self):
        x = Tensor(np.zeros((1, 3, 4)))
        w, b = Tensor(np.zeros((4, 2))), Tensor(np.zeros(2))
        with pytest.raises(DimensionError):
            conv1d_k3(x, w, w, Tensor(np.zeros((4, 3))), b)
        with pytest.raises(DimensionError):
            conv1d_k3(x, w, w, w, Tensor(np.zeros(3)))


def reference_encode(gen, features, z):
    """The encoder with one noise row per clip row: the trunk runs on every
    row, then each row's noise is concatenated to its frames."""
    p = gen.params
    h = linear(Tensor(features.astype(gen.dtype)), p["enc.in.w"], p["enc.in.b"]).relu()
    h = conv1d_k3(
        h, p["enc.conv.w_l"], p["enc.conv.w_c"], p["enc.conv.w_r"], p["enc.conv.b"]
    ).relu()
    batch, frames, _ = h.shape
    z_b = np.broadcast_to(np.asarray(z, dtype=gen.dtype)[:, None, :],
                          (batch, frames, gen.config.noise_dim))
    return linear(concat([h, Tensor(z_b)], axis=2), p["noise.w"], p["noise.b"])


class TestGroupedEncode:
    """One clip with G noise rows: the z-free trunk runs once."""

    def test_batch_matched_encode_unchanged(self):
        gen = default_generator(seed=1)
        c = gen.config
        rng = np.random.default_rng(15)
        features = rng.standard_normal((3, 9, c.feat_dim))
        z = rng.standard_normal((3, c.noise_dim))
        got = gen.encode(features, np.array([9, 7, 9]), z).data
        np.testing.assert_array_equal(got, reference_encode(gen, features, z).data)

    @pytest.mark.parametrize("make", [default_generator, tiny_generator], ids=["default", "tiny"])
    def test_one_clip_many_noise_rows_equals_per_row_encodes(self, make, monkeypatch):
        gen = make()
        c = gen.config
        rng = np.random.default_rng(16)
        features = rng.standard_normal((1, 7, c.feat_dim))
        z = rng.standard_normal((4, c.noise_dim))
        per_row = np.concatenate(
            [gen.encode(features, np.array([7]), z[g : g + 1]).data for g in range(4)]
        )
        conv_batches = []
        real_conv = models.conv1d_k3
        monkeypatch.setattr(
            models, "conv1d_k3", lambda x, *w: conv_batches.append(x.shape[0]) or real_conv(x, *w)
        )
        grouped = gen.encode(features, np.array([7]), z).data
        assert conv_batches == [1]  # the trunk ran on the clip's own row
        assert grouped.shape == (4, 7, c.d_model)
        np.testing.assert_array_equal(grouped, per_row)


def concat_then_linear(gen, h, z):
    """The noise merge as ``broadcast_to`` -> ``concat`` -> ``linear``, the
    composition whose node kept the [B, F, d_model + noise_dim]
    concatenation: the trunk output ``h`` is repeated to z's rows when it
    has one, and each noise row over the frames."""
    batch, frames = len(z), h.shape[1]
    if h.shape[0] != batch:
        h = h.broadcast_to((batch, frames, gen.config.d_model))
    z_t = Tensor(np.asarray(z, dtype=gen.dtype)[:, None, :])
    z_b = z_t.broadcast_to((batch, frames, gen.config.noise_dim))
    return linear(concat([h, z_b], axis=2), gen.params["noise.w"], gen.params["noise.b"])


MERGE_CASES = {"a clip per row": 3, "one clip, 3 noise rows": 1}


def merge_inputs(gen, clips, seed=17):
    rng = np.random.default_rng(seed)
    c = gen.config
    features = rng.standard_normal((clips, 6, c.feat_dim))
    lengths = np.full(clips, 6) if clips == 1 else np.array([6, 4, 6])
    z = rng.standard_normal((3, c.noise_dim))
    weight = rng.standard_normal((3, 6, c.d_model)).astype(gen.dtype)
    return features, lengths, z, weight


def merge_params(gen):
    return [p for name, p in gen.params.items() if name.startswith(("noise.", "enc."))]


class TestNoiseMerge:
    """The encoder's noise merge is one node that keeps the trunk output and
    the noise rows, not their concatenation."""

    @pytest.mark.parametrize("clips", MERGE_CASES.values(), ids=MERGE_CASES.keys())
    def test_concatenation_freed_before_backward(self, clips, monkeypatch):
        gen = default_generator(seed=2)
        features, lengths, z, weight = merge_inputs(gen, clips)
        merged = []
        real = tensor.linear_kernel

        def spy(x, w, b=None):
            if x.shape[-1] == gen.config.d_model + gen.config.noise_dim:
                merged.append(weakref.ref(x))
            return real(x, w, b)

        monkeypatch.setattr(tensor, "linear_kernel", spy)
        loss = (gen.encode(features, lengths, z) * Tensor(weight)).sum()
        assert len(merged) == 1 and merged[0]() is None, "noise-merge concatenation kept"
        loss.backward()
        assert all(p.grad is not None for p in merge_params(gen))

    @pytest.mark.parametrize("clips", MERGE_CASES.values(), ids=MERGE_CASES.keys())
    def test_bit_identical_to_concat_then_linear(self, clips):
        gen = default_generator(seed=2)
        features, lengths, z, weight = merge_inputs(gen, clips)
        params = merge_params(gen)

        def run(encode):
            for p in params:
                p.zero_grad()
            out = encode()
            (out * Tensor(weight)).sum().backward()
            return [out.data] + [p.grad.copy() for p in params]

        got = run(lambda: gen.encode(features, lengths, z))
        want = run(lambda: concat_then_linear(
            gen, models.audio_trunk(features, gen.params, "enc", gen.dtype), z))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.float32
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("clips", MERGE_CASES.values(), ids=MERGE_CASES.keys())
    def test_gradients_match_finite_differences(self, clips):
        gen = tiny_generator()
        features, lengths, z, weight = merge_inputs(gen, clips)
        params = merge_params(gen)

        def loss():
            return (gen.encode(features, lengths, z) * Tensor(weight)).sum()

        loss().backward()
        fd = finite_difference(lambda: loss().item(), params)
        assert_grads_close(params, fd)


class ReferenceCache:
    """The decode cache of ``reference_cached_step``: ``Tensor`` keys/values."""

    def __init__(self):
        self.length = 0
        self.self_kv = []
        self.cross = []

    def reorder(self, rows):
        self.self_kv = [(keys[rows], values[rows]) for keys, values in self.self_kv]


def reference_cached_step(gen, features, feat_lengths, z, tokens, memory, cache):
    """Logits [B, t, vocab] of the positions after ``cache.length``, built
    from ``Tensor`` ops under ``no_grad``: the cached decode step as it ran
    before it moved onto arrays, with attention composed of the head split,
    scores, mask, softmax, ``@ v`` and head merge. A memory of G rows serves
    B = G * n rows, each group's n rows attending as one query block."""
    c, p = gen.config, gen.params

    def heads(x):
        batch, t_len, _ = x.shape
        return x.reshape(batch, t_len, c.n_heads, c.d_model // c.n_heads).transpose(0, 2, 1, 3)

    def keys_values(x, layer, block):
        return x @ p[f"dec.{layer}.{block}.k"], x @ p[f"dec.{layer}.{block}.v"]

    def attend(x, keys, values, mask, layer, block):
        batch, t_q, _ = x.shape
        if keys.shape[0] != batch:
            shared = x.reshape(keys.shape[0], -1, c.d_model)
            return attend(shared, keys, values, mask, layer, block).reshape(batch, t_q, c.d_model)
        q = heads(x @ p[f"dec.{layer}.{block}.q"])
        scores = (q @ heads(keys).transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(q.shape[-1]))
        scores = scores + Tensor(np.broadcast_to(mask, scores.shape))
        out = scores.softmax(axis=-1) @ heads(values)
        out = out.transpose(0, 2, 1, 3).reshape(batch, t_q, c.d_model)
        return out @ p[f"dec.{layer}.{block}.o"]

    def norm(x, tag):
        return layer_norm(x, p[f"{tag}.g"], p[f"{tag}.b"])

    with no_grad():
        batch, t_new = tokens.shape
        start = cache.length
        t_steps = start + t_new
        if not cache.cross:
            cache.cross = [keys_values(memory, layer, "cross") for layer in range(c.n_layers)]
        frames = cache.cross[0][0].shape[1]
        causal = np.triu(np.full((t_new, t_steps), -1e9, dtype=gen.dtype), k=1 + start)
        frame_alive = np.arange(frames)[None, :] < np.asarray(feat_lengths)[:, None]
        mem_mask = np.where(frame_alive, 0.0, -1e9).astype(gen.dtype)[:, None, None, :]
        x = embedding(p["dec.embed"], tokens) + Tensor(
            np.broadcast_to(gen._positions[start:t_steps], (batch, t_new, c.d_model))
        )
        for layer in range(c.n_layers):
            xn = norm(x, f"dec.{layer}.n1")
            keys, values = keys_values(xn, layer, "self")
            if layer == len(cache.self_kv):
                cache.self_kv.append((keys, values))
            else:
                old_keys, old_values = cache.self_kv[layer]
                cache.self_kv[layer] = (
                    concat([old_keys, keys], axis=1), concat([old_values, values], axis=1)
                )
            x = x + attend(xn, *cache.self_kv[layer], causal, layer, "self")
            x = x + attend(norm(x, f"dec.{layer}.n2"), *cache.cross[layer], mem_mask, layer,
                           "cross")
            h = linear(norm(x, f"dec.{layer}.n3"), p[f"dec.{layer}.ff.w1"],
                       p[f"dec.{layer}.ff.b1"]).relu()
            x = x + linear(h, p[f"dec.{layer}.ff.w2"], p[f"dec.{layer}.ff.b2"])
        cache.length = t_steps
        x = norm(x, "dec.final_norm")
        return linear(x, p["dec.out.w"], p["dec.out.b"]).data


class TestArrayStep:
    """The array decode step against the ``Tensor``-op step it replaced:
    bit-identical logits at the default model size."""

    @staticmethod
    def assert_steps_identical(gen, features, feat_lengths, z, tokens, reorders=None):
        """Step both decoders through ``tokens`` [B, T], one position a
        step; ``reorders`` maps a step to the parent rows kept before it,
        and the rows of ``tokens`` are the hypotheses after them."""
        reorders = reorders or {}
        with no_grad():
            memory = gen.encode(features, feat_lengths, z)
        cache, reference = DecodeCache(), ReferenceCache()
        for t in range(tokens.shape[1]):
            rows = tokens[:, t : t + 1]
            if t in reorders:
                cache.reorder(reorders[t])
                reference.reorder(reorders[t])
            elif t == 0 and len(memory.data) < len(tokens):
                rows = rows[:: len(tokens) // len(memory.data)]  # one row a group
            step = gen.step_logits(features, feat_lengths, z, rows, memory=memory, cache=cache)
            want = reference_cached_step(gen, features, feat_lengths, z, rows, memory,
                                         reference)[:, -1]
            assert step.dtype == want.dtype == np.float32
            assert np.array_equal(step, want), t

    def test_rollout_one_memory_per_row(self):
        gen = default_generator(seed=4)
        c = gen.config
        rng = np.random.default_rng(30)
        features = rng.standard_normal((32, 11, c.feat_dim))
        feat_lengths = rng.integers(3, 12, size=32)
        z = rng.standard_normal((32, c.noise_dim))
        tokens = rng.integers(2, c.vocab_size, size=(32, 8))
        tokens[:, 0] = 1
        self.assert_steps_identical(gen, features, feat_lengths, z, tokens)

    def test_beam_groups_with_reorders(self):
        # 5 noise groups of one clip, 5 hypotheses each after the first step;
        # every reorder repeats some parents and drops others, within groups
        gen = default_generator(seed=5)
        c = gen.config
        rng = np.random.default_rng(31)
        features = rng.standard_normal((1, 10, c.feat_dim))
        feat_lengths = np.array([9])
        z = rng.standard_normal((5, c.noise_dim))
        tokens = rng.integers(2, c.vocab_size, size=(25, 7))
        tokens[:, 0] = 1
        group_rows = np.repeat(np.arange(5) * 5, 5)
        reorders = {1: np.repeat(np.arange(5), 5)}
        for t in range(2, tokens.shape[1]):
            picks = rng.choice(5, size=(5, 5))
            picks[:, 0] = picks[:, 1]  # so five picks of five drop a parent too
            reorders[t] = group_rows + picks.ravel()
        self.assert_steps_identical(gen, features, feat_lengths, z, tokens, reorders)

    def test_prefixes_to_the_length_cap(self):
        gen = default_generator(seed=6)
        c = gen.config
        rng = np.random.default_rng(32)
        features, feat_lengths, z, tokens = tiny_inputs(
            rng, batch=3, frames=9, feat_dim=c.feat_dim, noise_dim=c.noise_dim,
            t=c.t_max + 1, vocab=c.vocab_size,
        )
        self.assert_steps_identical(gen, features, feat_lengths, z, tokens)


class TestDecodeCache:
    """Cached one-position steps against the full-prefix forward pass."""

    @staticmethod
    def assert_steps_match(gen, features, feat_lengths, z, tokens, atol):
        with no_grad():
            memory = gen.encode(features, feat_lengths, z)
            cache = DecodeCache()
            for t in range(tokens.shape[1]):
                step = gen.step_logits(
                    features, feat_lengths, z, tokens[:, t : t + 1], memory=memory, cache=cache
                )
                full = gen.forward(features, feat_lengths, z, tokens[:, : t + 1]).data[:, -1]
                np.testing.assert_allclose(step, full, rtol=0, atol=atol)
        assert cache.length == tokens.shape[1]

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_tiny_generator(self, n_layers):
        gen = tiny_generator(n_layers=n_layers)
        rng = np.random.default_rng(10)
        features, feat_lengths, z, tokens = tiny_inputs(rng, batch=3, t=gen.config.t_max + 1)
        self.assert_steps_match(gen, features, feat_lengths, z, tokens, atol=1e-12)

    def test_default_size_generator(self):
        gen = default_generator()
        c = gen.config
        rng = np.random.default_rng(11)
        features, feat_lengths, z, tokens = tiny_inputs(
            rng, batch=3, frames=9, feat_dim=c.feat_dim, noise_dim=c.noise_dim,
            t=c.t_max + 1, vocab=c.vocab_size,
        )
        self.assert_steps_match(gen, features, feat_lengths, z, tokens, atol=1e-5)

    def test_dead_rows_fed_pad(self):
        gen = tiny_generator()
        rng = np.random.default_rng(12)
        features, feat_lengths, z, tokens = tiny_inputs(rng, batch=3, t=gen.config.t_max + 1)
        tokens[0, 2], tokens[0, 3:] = EOS, PAD  # row 0 ended after two words
        tokens[2, 1], tokens[2, 2:] = EOS, PAD  # row 2 ended after one
        self.assert_steps_match(gen, features, feat_lengths, z, tokens, atol=1e-12)

    def test_reorder_duplicates_and_drops_parents(self):
        # one clip's memory shared by three hypotheses, as in beam search
        gen = tiny_generator(n_layers=2)
        rng = np.random.default_rng(13)
        features, feat_lengths, z, _ = tiny_inputs(rng, batch=1)
        before = rng.integers(3, 11, size=(3, 3))
        before[:, 0] = 1
        parents = np.array([2, 0, 0])  # row 0 twice, row 1 dropped
        after = np.concatenate([before[parents], rng.integers(3, 11, size=(3, 2))], axis=1)
        reps = [np.repeat(a, 3, axis=0) for a in (features, feat_lengths, z)]
        with no_grad():
            memory = gen.encode(features, feat_lengths, z)
            cache = DecodeCache()
            for t in range(after.shape[1]):
                if t == before.shape[1]:
                    cache.reorder(parents)
                rows = before if t < before.shape[1] else after
                step = gen.step_logits(
                    features, feat_lengths, z, rows[:, t : t + 1], memory=memory, cache=cache
                )
                full = gen.forward(*reps, rows[:, : t + 1]).data[:, -1]
                np.testing.assert_allclose(step, full, rtol=0, atol=1e-12)

    def test_noise_groups_share_their_memory(self):
        # one clip, two noise groups; after the first position each group
        # grows to three hypotheses, which attend to their group's memory
        gen = tiny_generator(n_layers=2)
        rng = np.random.default_rng(18)
        features, feat_lengths, _, _ = tiny_inputs(rng, batch=1)
        z = rng.standard_normal((2, gen.config.noise_dim))
        parents = np.array([0, 0, 0, 1, 1, 1])
        rows = rng.integers(3, 11, size=(6, 4))
        rows[:, 0] = 1
        row_z = z[parents]
        reps = [np.repeat(a, 6, axis=0) for a in (features, feat_lengths)]
        with no_grad():
            memory = gen.encode(features, feat_lengths, z)
            cache = DecodeCache()
            gen.step_logits(features, feat_lengths, z, rows[[0, 3], :1], memory=memory,
                            cache=cache)
            cache.reorder(parents)
            for t in range(1, rows.shape[1]):
                step = gen.step_logits(
                    features, feat_lengths, z, rows[:, t : t + 1], memory=memory, cache=cache
                )
                full = gen.forward(*reps, row_z, rows[:, : t + 1]).data[:, -1]
                np.testing.assert_allclose(step, full, rtol=0, atol=1e-12)

    def test_memory_projected_once(self, monkeypatch):
        gen = tiny_generator()
        rng = np.random.default_rng(14)
        features, feat_lengths, z, tokens = tiny_inputs(rng)
        cache = DecodeCache()
        gen.step_logits(features, feat_lengths, z, tokens[:, :1], cache=cache)
        cross = cache.cross

        def no_encode(*args):
            raise AssertionError("encoder re-run after the first step")

        monkeypatch.setattr(gen, "encode", no_encode)
        gen.step_logits(features, feat_lengths, z, tokens[:, 1:2], cache=cache)
        assert cache.cross is cross

    def test_cached_length_contract(self):
        gen = tiny_generator()
        rng = np.random.default_rng(15)
        features, feat_lengths, z, _ = tiny_inputs(rng)
        tokens = np.ones((2, gen.config.t_max + 1), dtype=np.int64)
        cache = DecodeCache()
        gen.forward(features, feat_lengths, z, tokens, cache=cache)
        with pytest.raises(ValueError, match="exceeds"):
            gen.forward(features, feat_lengths, z, tokens[:, :1], cache=cache)


def pad_sequences(seqs):
    """The token padder ``pad`` replaced, kept as its reference."""
    tokens = np.zeros((len(seqs), max(len(s) for s in seqs)), dtype=np.int64)
    lengths = np.zeros(len(seqs), dtype=np.int64)
    for i, seq in enumerate(seqs):
        tokens[i, : len(seq)] = seq
        lengths[i] = len(seq)
    return tokens, lengths


def pad_frames(arrays):
    """The frame padder ``pad`` replaced, kept as its reference."""
    lengths = np.array([len(a) for a in arrays], dtype=np.int64)
    padded = np.zeros((len(arrays), lengths.max(), arrays[0].shape[1]), dtype=arrays[0].dtype)
    for i, a in enumerate(arrays):
        padded[i, : len(a)] = a
    return padded, lengths


class TestPad:
    @staticmethod
    def _assert_same(got, want):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("seqs", [
        [[1, 5, 6, 2], [1, 7, 2], [1, 4, 4, 8, 9, 2]],
        [[1, 2]],
        [[1, 3, 2], [1, 4, 2]],
        [np.array([1, 5, 2]), [1, 2]],
    ], ids=["ragged", "one row", "one length", "array row first"])
    def test_token_rows_as_pad_sequences(self, seqs):
        self._assert_same(pad(seqs), pad_sequences(seqs))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_frame_rows_as_pad_frames(self, dtype):
        rng = np.random.default_rng(0)
        for frames in ([5, 3, 7], [4], [6, 6]):
            arrays = [rng.standard_normal((f, 3)).astype(dtype) for f in frames]
            self._assert_same(pad(arrays), pad_frames(arrays))


class TestDiscriminator:
    def _model(self, dtype=np.float64):
        return Discriminator(
            DiscriminatorConfig(vocab_size=11, embed_dim=4, hidden_dim=6),
            np.random.default_rng(0),
            dtype=dtype,
        )

    def test_zero_head_gives_half(self):
        d = self._model()
        d.params["head.w"].data[...] = 0.0
        d.params["head.b"].data[...] = 0.0
        assert d.score([[1, 5, 2]])[0] == 0.5

    def test_output_in_open_interval(self):
        d = self._model()
        rng = np.random.default_rng(1)
        for _ in range(10):
            seq = list(rng.integers(1, 11, size=rng.integers(2, 8)))
            (n,) = d.score([seq])
            assert 0.0 < n < 1.0

    def test_empty_caption_rejected(self):
        with pytest.raises(ValueError):
            self._model().forward(np.zeros((1, 3), dtype=np.int64), np.array([0]))

    def test_padding_beyond_length_ignored(self):
        d = self._model()
        tokens = np.array([[1, 5, 2, 0, 0]], dtype=np.int64)
        shorter = np.array([[1, 5, 2, 9, 9]], dtype=np.int64)
        a = d.forward(tokens, np.array([3])).data
        b = d.forward(shorter, np.array([3])).data
        np.testing.assert_allclose(a, b)

    def test_full_model_gradients(self):
        d = self._model()
        tokens = np.array([[1, 4, 7, 2], [1, 3, 2, 0]], dtype=np.int64)
        lengths = np.array([4, 3])

        def loss():
            return float((d.forward(tokens, lengths).data ** 2).sum())

        out = d.forward(tokens, lengths)
        (out * out).sum().backward()
        params = d.store.tensors()
        fd = finite_difference(loss, params)
        assert_grads_close(params, fd, rtol=1e-3)


class TestSemanticEvaluator:
    def _model(self, dtype=np.float64):
        return SemanticEvaluator(
            SemanticEvaluatorConfig(
                vocab_size=11, feat_dim=5, embed_dim=4, hidden_dim=6, out_dim=8
            ),
            np.random.default_rng(0),
            dtype=dtype,
        )

    def test_cosine_identity(self):
        x = Tensor(np.array([[3.0, 4.0, 0.0]]))
        u = l2_normalize(x)
        assert (u * u).sum().item() == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        u = l2_normalize(Tensor(np.array([[1.0, 0.0]])))
        v = l2_normalize(Tensor(np.array([[0.0, 5.0]])))
        assert (u * v).sum().item() == 0.0

    def test_zero_norm_rejected(self):
        with pytest.raises(DomainError):
            l2_normalize(Tensor(np.zeros((1, 3))))

    def test_scores_in_range(self):
        se = self._model()
        rng = np.random.default_rng(2)
        features = rng.standard_normal((3, 6, 5))
        tokens = rng.integers(1, 11, size=(3, 5))
        with no_grad():
            audio = se.embed_audio(features, np.array([6, 6, 4])).data
        s = se.score(audio, [list(row[:n]) for row, n in zip(tokens, [5, 4, 3])])
        assert np.all(s >= -1.0) and np.all(s <= 1.0)

    def test_full_model_gradients(self):
        se = self._model()
        rng = np.random.default_rng(3)
        features = rng.standard_normal((2, 4, 5))
        feat_lengths = np.array([4, 3])
        tokens = rng.integers(1, 11, size=(2, 4))
        token_lengths = np.array([4, 2])

        def cosines():
            audio = se.embed_audio(features, feat_lengths)
            return (audio * se.embed_caption(tokens, token_lengths)).sum(axis=-1)

        def loss():
            return float(cosines().data.sum())

        cosines().sum().backward()
        params = se.store.tensors()
        fd = finite_difference(loss, params)
        assert_grads_close(params, fd, rtol=1e-3)


# sha256 of each kind's fresh default-size model (vocab_size 50), built from
# its seed-0 init stream and written by save_checkpoint: pins parameter
# names, registration order, shapes and init draws
FRESH_CHECKPOINT_SHA256 = {
    "generator": "fb6b6deeb04ae3bacce83054e2f535f822a3f23e067450288722e6b8c5d6c7f0",
    "discriminator": "655596619189a049b202f2c352f04397354703bb7edeef688631eb8eabe9ca71",
    "semantic": "80fec4af59a8af124435bc2aef420d1f58ae6d165eb9fbf63eb3372795ad28f2",
}


class TestCheckpoints:
    @pytest.mark.parametrize(
        ("cls", "config_cls"),
        [(Generator, GeneratorConfig), (Discriminator, DiscriminatorConfig),
         (SemanticEvaluator, SemanticEvaluatorConfig)],
        ids=lambda c: c.__name__,
    )
    def test_fresh_model_bytes_are_pinned(self, cls, config_cls, tmp_path):
        model = cls(config_cls(vocab_size=50), substream(0, f"{cls.kind}-init"))
        path = tmp_path / "fresh.ckpt"
        save_checkpoint(path, model)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FRESH_CHECKPOINT_SHA256[cls.kind]

    def test_generator_round_trip_identical_forward(self, tmp_path):
        gen = tiny_generator(dtype=np.float32)
        rng = np.random.default_rng(0)
        features, feat_lengths, z, tokens = tiny_inputs(rng)
        before = gen.forward(features, feat_lengths, z, tokens).data.copy()
        path = tmp_path / "gen.ckpt"
        save_checkpoint(path, gen, {"epoch": 3, "seed": 0})
        fresh = tiny_generator(dtype=np.float32, seed=99)
        arrays, meta = load_checkpoint(path, expected_kind="generator")
        restore_model(fresh, arrays)
        after = fresh.forward(features, feat_lengths, z, tokens).data
        np.testing.assert_array_equal(before, after)
        assert meta["epoch"] == 3

    def test_write_read_write_byte_identical(self, tmp_path):
        gen = tiny_generator(dtype=np.float32)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, gen, {"epoch": 1})
        arrays, meta = load_checkpoint(p1)
        fresh = tiny_generator(dtype=np.float32, seed=5)
        restore_model(fresh, arrays)
        save_checkpoint(p2, fresh, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_closes_file(self, tmp_path):
        path = tmp_path / "gen.ckpt"
        save_checkpoint(path, tiny_generator(dtype=np.float32))
        # a file left open warns when it is collected, right after the call
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            load_checkpoint(path)
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_truncated_rejected(self, tmp_path):
        gen = tiny_generator(dtype=np.float32)
        path = tmp_path / "gen.ckpt"
        save_checkpoint(path, gen)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["kind", "metadata", "name"])
    def test_undecodable_header_rejected(self, tmp_path, field):
        gen = tiny_generator(dtype=np.float32)
        path = tmp_path / "gen.ckpt"
        save_checkpoint(path, gen)
        raw = bytearray(path.read_bytes())
        kind_at = 8 + 4 + 2  # magic, version, kind length
        meta_at = kind_at + len(b"generator") + 4
        meta_len = int.from_bytes(raw[meta_at - 4 : meta_at], "little")
        name_at = meta_at + meta_len + 4 + 2  # entry count, name length
        raw[{"kind": kind_at, "metadata": meta_at, "name": name_at}[field]] = 0xFF  # not UTF-8
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="undecodable"):
            load_checkpoint(path)

    def test_metadata_that_is_not_json_rejected(self, tmp_path):
        gen = tiny_generator(dtype=np.float32)
        path = tmp_path / "gen.ckpt"
        save_checkpoint(path, gen)
        raw = path.read_bytes()
        at = 8 + 4 + 2 + len(b"generator") + 4
        assert raw[at : at + 1] == b"{"
        path.write_bytes(raw[:at] + b"x" + raw[at + 1 :])
        with pytest.raises(CheckpointError, match="JSON"):
            load_checkpoint(path)

    def test_wrong_kind_rejected(self, tmp_path):
        d = Discriminator(
            DiscriminatorConfig(vocab_size=11, embed_dim=4, hidden_dim=6),
            np.random.default_rng(0),
        )
        path = tmp_path / "d.ckpt"
        save_checkpoint(path, d)
        with pytest.raises(CheckpointError, match="kind"):
            load_checkpoint(path, expected_kind="generator")

    def test_unknown_version_rejected(self, tmp_path):
        gen = tiny_generator(dtype=np.float32)
        path = tmp_path / "gen.ckpt"
        save_checkpoint(path, gen)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)
