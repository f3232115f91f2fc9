import warnings

import numpy as np
import pytest

from capgan.models import (
    CheckpointError,
    DecodeCache,
    Discriminator,
    DiscriminatorConfig,
    Generator,
    GeneratorConfig,
    GRUParams,
    ParamStore,
    SemanticEvaluator,
    SemanticEvaluatorConfig,
    gru_cell,
    l2_normalize,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from capgan.tensor import DomainError, Tensor, cross_entropy, no_grad
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


class TestGRUCell:
    def _zero_params(self, d_in=3, d_hidden=4, dtype=np.float64):
        store = ParamStore(np.random.default_rng(0), dtype)
        p = GRUParams.create(store, "g", d_in, d_hidden)
        for t in store.tensors():
            t.data[...] = 0.0
        return p

    def test_zero_params_halves_hidden(self):
        p = self._zero_params()
        h_prev = Tensor(np.array([[1.0, -2.0, 0.5, 4.0]]))
        x = Tensor(np.ones((1, 3)))
        h = gru_cell(x, h_prev, p)
        np.testing.assert_allclose(h.data, 0.5 * h_prev.data)

    def test_zero_everything_fixed_point(self):
        p = self._zero_params()
        h = gru_cell(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))), p)
        np.testing.assert_array_equal(h.data, np.zeros((1, 4)))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        store = ParamStore(rng, np.float64)
        p = GRUParams.create(store, "g", 3, 4)
        x_np = rng.standard_normal((2, 3))
        h_np = rng.standard_normal((2, 4))

        def loss():
            h = gru_cell(Tensor(x_np), Tensor(h_np), p)
            return float((h.data**2).sum())

        out = gru_cell(Tensor(x_np), Tensor(h_np), p)
        (out * out).sum().backward()
        fd = finite_difference(loss, store.tensors())
        assert_grads_close(store.tensors(), fd)


class TestGenerator:
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
        assert d.score([1, 5, 2]) == 0.5

    def test_output_in_open_interval(self):
        d = self._model()
        rng = np.random.default_rng(1)
        for _ in range(10):
            seq = list(rng.integers(1, 11, size=rng.integers(2, 8)))
            n = d.score(seq)
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
        s = se.scores(features, np.array([6, 6, 4]), tokens, np.array([5, 4, 3])).data
        assert np.all(s >= -1.0) and np.all(s <= 1.0)

    def test_full_model_gradients(self):
        se = self._model()
        rng = np.random.default_rng(3)
        features = rng.standard_normal((2, 4, 5))
        feat_lengths = np.array([4, 3])
        tokens = rng.integers(1, 11, size=(2, 4))
        token_lengths = np.array([4, 2])

        def loss():
            s = se.scores(features, feat_lengths, tokens, token_lengths)
            return float(s.data.sum())

        se.scores(features, feat_lengths, tokens, token_lengths).sum().backward()
        params = se.store.tensors()
        fd = finite_difference(loss, params)
        assert_grads_close(params, fd, rtol=1e-3)


class TestCheckpoints:
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
