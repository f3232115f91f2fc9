import dataclasses
import json
import math

import numpy as np
import pytest

from capgan import training
from capgan.corpus import build_vocabulary, epoch_batches, generate_synthetic_corpus
from capgan.decoding import rollout
from capgan.metrics import NMAX, build_doc_freq, cider, ngram_counts
from capgan.models import (
    Discriminator,
    DiscriminatorConfig,
    Generator,
    GeneratorConfig,
    SemanticEvaluator,
    SemanticEvaluatorConfig,
    load_checkpoint,
    pad,
    restore_model,
)
from capgan.tensor import Adam, Diverged, Tensor, cross_entropy
from capgan.text import EOS, SOS
from capgan.training import (
    RewardBreakdown,
    RewardOracles,
    TrainConfig,
    TrainLog,
    _eval_greedy_cider,
    _eval_references,
    adversarial_train,
    d_pretrain,
    discriminator_accuracy,
    discriminator_loss,
    mle_pretrain,
    scst_generator_step,
    scst_surrogate_loss,
    semantic_gap,
    semantic_hinge_loss,
    semantic_pretrain,
    teacher_forcing,
)

from conftest import assert_grads_close, finite_difference
from test_models import tiny_generator


def tiny_corpus(seed=0, n_clips=12, feat_dim=5):
    return generate_synthetic_corpus(seed, n_clips=n_clips, n_classes=2, feat_dim=feat_dim)


def tiny_setup(seed=0, dtype=np.float32):
    train, evaluation = tiny_corpus(seed)
    vocab = build_vocabulary(train)
    gen = tiny_generator_sized(vocab, dtype=dtype, seed=seed)
    d = Discriminator(
        DiscriminatorConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=6),
        np.random.default_rng(seed + 1),
        dtype=dtype,
    )
    se = SemanticEvaluator(
        SemanticEvaluatorConfig(
            vocab_size=len(vocab), feat_dim=5, embed_dim=4, hidden_dim=6, out_dim=8
        ),
        np.random.default_rng(seed + 2),
        dtype=dtype,
    )
    return train, evaluation, vocab, gen, d, se


def tiny_generator_sized(vocab, dtype=np.float32, seed=0):
    config = GeneratorConfig(
        vocab_size=len(vocab), feat_dim=5, d_model=8, n_layers=1, n_heads=2,
        d_ff=12, noise_dim=4, t_max=12, dropout=0.0,
    )
    return Generator(config, np.random.default_rng(seed), dtype=dtype)


def tiny_train_config(**overrides):
    base = dict(
        lam=0.5, mle_epochs=2, d_pretrain_epochs=2, se_pretrain_epochs=2,
        adversarial_epochs=1, batch_size=4, learning_rate=1e-3, seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestRewardBreakdown:
    def test_identity_exact(self):
        rng = np.random.default_rng(0)
        for lam in (0.0, 0.3, 0.5, 0.7, 1.0):
            for _ in range(50):
                n, s, c = rng.random(3) * [1.0, 2.0, 10.0] - [0.0, 1.0, 0.0]
                r = RewardBreakdown(n=n, s=s, c=c, lam=lam)
                assert r.total == lam * (n + s) + (1.0 - lam) * c

    def test_lambda_extremes(self):
        assert RewardBreakdown(n=0.4, s=0.6, c=9.0, lam=1.0).total == 1.0
        assert RewardBreakdown(n=0.4, s=0.6, c=9.0, lam=0.0).total == 9.0


class TestRewardOracles:
    def _oracles(self):
        train, _, vocab, _, d, se = tiny_setup()
        df = build_doc_freq([r.references for r in train.records])
        return RewardOracles(d, se, df, vocab), train.records[0]

    def test_lambda_zero_never_queries_judges(self):
        oracles, record = self._oracles()
        config = tiny_train_config(lam=0.0)
        seq = [1] + [5, 6, 7] + [2]
        r = oracles.score([seq], [record], config)[0]
        assert oracles.d_queries == 0 and oracles.se_queries == 0
        assert r.n == 0.0 and r.s == 0.0
        assert r.total == r.c

    def test_lambda_one_skips_cider(self):
        oracles, record = self._oracles()
        config = tiny_train_config(lam=1.0)
        r = oracles.score([[1, 5, 6, 2]], [record], config)[0]
        assert oracles.d_queries == 1 and oracles.se_queries == 1
        assert r.c == 0.0
        assert r.total == r.n + r.s

    def test_mixed_lambda_queries_everything(self):
        oracles, record = self._oracles()
        config = tiny_train_config(lam=0.5)
        seq = [1] + [vocab_id for vocab_id in (4, 5, 6)] + [2]
        r = oracles.score([seq], [record], config)[0]
        assert oracles.d_queries == 1 and oracles.se_queries == 1
        assert 0.0 < r.n < 1.0
        assert -1.0 <= r.s <= 1.0

    def test_nd_ablation_drops_semantic(self):
        oracles, record = self._oracles()
        config = tiny_train_config(ablation="nd")
        assert config.lam == 1.0
        r = oracles.score([[1, 5, 2]], [record], config)[0]
        assert oracles.se_queries == 0 and oracles.d_queries == 1
        assert r.s == 0.0 and r.total == r.n

    def test_se_ablation_drops_discriminator(self):
        oracles, record = self._oracles()
        config = tiny_train_config(ablation="se")
        r = oracles.score([[1, 5, 2]], [record], config)[0]
        assert oracles.d_queries == 0 and oracles.se_queries == 1
        assert r.n == 0.0 and r.total == r.s

    def test_le_ablation_is_cider_only(self):
        oracles, record = self._oracles()
        config = tiny_train_config(ablation="le")
        assert config.lam == 0.0
        r = oracles.score([[1, 5, 2]], [record], config)[0]
        assert oracles.d_queries == 0 and oracles.se_queries == 0
        assert r.total == r.c


def recount_cider(candidate, references, df_table):
    """CIDEr recounting every reference's TF-IDF vector and norm on each
    call, as the metric did before reference vectors were cached."""

    def vector(tokens, n):
        return {g: c * df_table.idf(g, n) for g, c in ngram_counts(tokens, n).items()}

    def cosine(u, v):
        nu = math.sqrt(sum(x * x for x in u.values()))
        nv = math.sqrt(sum(x * x for x in v.values()))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return sum(x * v[g] for g, x in u.items() if g in v) / (nu * nv)

    per_order = []
    for n in range(1, NMAX + 1):
        cand = vector(candidate, n)
        sims = [cosine(cand, vector(ref, n)) for ref in references]
        per_order.append(sum(sims) / len(sims))
    return 10.0 * sum(per_order) / len(per_order)


class TestBatchedRewards:
    """One batched ``RewardOracles.score`` call against each caption scored
    alone by taped batch-1 judge forwards."""

    CONFIGS = [
        dict(lam=0.0), dict(lam=0.5), dict(lam=1.0),
        dict(ablation="nd"), dict(ablation="se"), dict(ablation="le"),
    ]

    def _setup(self):
        """Six captions of mixed lengths over three clips, each clip twice
        (as a sampled and a greedy caption of one SCST step)."""
        train, _, vocab, _, d, se = tiny_setup()
        df = build_doc_freq([r.references for r in train.records])
        rng = np.random.default_rng(5)
        for model in (d, se):  # nonzero biases, so padding is not a no-op
            for name, p in model.params.items():
                if name.endswith((".b", ".b_r", ".b_u", ".b_h")):
                    p.data += rng.normal(0.0, 0.5, p.shape).astype(p.dtype)
        clips = train.records[:3]
        assert len({r.features.shape[0] for r in clips}) > 1  # mixed audio lengths too
        seqs, records = [], []
        for i, n_words in enumerate((1, 4, 9, 2, 6, 0)):
            words = rng.integers(4, len(vocab), size=n_words).tolist()
            seqs.append([SOS] + words + [EOS])
            records.append(clips[i % 3])
        return RewardOracles(d, se, df, vocab), seqs, records

    @staticmethod
    def _uses(config):
        judged = config.lam > 0.0
        return judged and config.ablation != "se", judged and config.ablation != "nd"

    def _spy(self, monkeypatch, model, name, log):
        real = getattr(model, name)

        def spy(*args):
            out = real(*args)
            log.append((name, len(args[0]), out))
            return out

        monkeypatch.setattr(model, name, spy)

    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_matches_per_caption_reference(self, overrides):
        oracles, seqs, records = self._setup()
        config = tiny_train_config(**overrides)
        use_d, use_se = self._uses(config)
        rewards = oracles.score(seqs, records, config)
        assert len(rewards) == len(seqs)
        for r, seq, record in zip(rewards, seqs, records):
            tokens, length = np.array([seq]), np.array([len(seq)])
            n = s = c = 0.0
            if use_d:
                n = float(oracles.discriminator.forward(tokens, length).data[0])
            if use_se:
                f, se = record.features, oracles.evaluator
                audio = se.embed_audio(f[None], np.array([len(f)]))
                s = float((audio * se.embed_caption(tokens, length)).sum().item())
            if config.lam < 1.0:
                c = recount_cider(oracles.vocab.decode(seq), record.references,
                                  oracles.df_table)
            assert r.n == pytest.approx(n, abs=1e-6)
            assert r.s == pytest.approx(s, abs=1e-6)
            assert r.c == c
            assert r.total == pytest.approx(
                RewardBreakdown(n=n, s=s, c=c, lam=config.lam).total, abs=1e-6)

    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_one_forward_per_judge_and_audio_once_per_clip(self, overrides, monkeypatch):
        oracles, seqs, records = self._setup()
        config = tiny_train_config(**overrides)
        use_d, use_se = self._uses(config)
        calls = []
        self._spy(monkeypatch, oracles.discriminator, "forward", calls)
        for name in ("embed_audio", "embed_caption"):
            self._spy(monkeypatch, oracles.evaluator, name, calls)
        for step in (1, 2):
            oracles.score(seqs, records, config)
            assert oracles.d_queries == step * len(seqs) * use_d
            assert oracles.se_queries == step * len(seqs) * use_se
        rows = [(name, b) for name, b, _ in calls]
        assert rows.count(("forward", len(seqs))) == 2 * use_d
        assert rows.count(("embed_caption", len(seqs))) == 2 * use_se
        assert rows.count(("embed_audio", 1)) == 3 * use_se  # three distinct clips
        assert len(rows) == 2 * use_d + 5 * use_se

    def test_scoring_records_no_tape(self, monkeypatch):
        oracles, seqs, records = self._setup()
        calls = []
        self._spy(monkeypatch, oracles.discriminator, "forward", calls)
        for name in ("embed_audio", "embed_caption"):
            self._spy(monkeypatch, oracles.evaluator, name, calls)
        oracles.score(seqs, records, tiny_train_config(lam=0.5))
        assert len(calls) == 5
        for _, _, out in calls:
            out.sum().backward()
        params = oracles.discriminator.store.tensors() + oracles.evaluator.store.tensors()
        assert all(p.grad is None for p in params)

    def test_cached_cider_equals_uncached(self):
        oracles, _, _ = self._setup()
        config = tiny_train_config(lam=0.0)
        train, _ = tiny_corpus()
        rng = np.random.default_rng(7)
        seqs, records = [], []
        for record in train.records:
            ref = oracles.vocab.encode(record.references[0])
            shuffled = rng.permutation(ref[1:-1]).tolist()
            seqs += [ref, [SOS] + shuffled + [EOS], [SOS, EOS]]
            records += [record] * 3
        for _ in range(2):  # the second pass reads the cached vectors
            rewards = oracles.score(seqs, records, config)
            for r, seq, record in zip(rewards, seqs, records):
                words = oracles.vocab.decode(seq)
                assert r.c == recount_cider(words, record.references, oracles.df_table)
                assert r.c == cider(words, record.references, oracles.df_table)


class TestBandit:
    """3-arm single-step policy trained with the self-critical update."""

    REWARDS = np.array([1.0, 0.2, 0.0])

    def _run(self, seed, steps=500, lr=0.05):
        rng = np.random.default_rng(seed)
        logits = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([logits], lr=lr)
        for _ in range(steps):
            p = np.exp(logits.data - logits.data.max())
            p /= p.sum()
            w = int(rng.choice(3, p=p))
            greedy = int(np.argmax(logits.data))
            adv = self.REWARDS[w] - self.REWARDS[greedy]
            loss = -(logits.log_softmax()[w] * adv)
            opt.zero_grad()
            loss.backward()
            opt.step()
        p = np.exp(logits.data - logits.data.max())
        return p / p.sum()

    def test_converges_to_best_arm_all_seeds(self):
        for seed in range(10):
            probs = self._run(seed)
            assert probs[0] > 0.9, f"seed {seed}: P(best arm) = {probs[0]:.3f}"

    def test_zero_advantage_zero_update(self):
        logits = Tensor(np.array([0.3, -0.1, 0.4]), requires_grad=True)
        before = logits.data.copy()
        opt = Adam([logits], lr=0.1)
        loss = -(logits.log_softmax()[1] * 0.0)
        opt.zero_grad()
        loss.backward()
        opt.step()
        np.testing.assert_array_equal(logits.data, before)


class _MiniBatch:
    """Hand-sized batch keeping the finite-difference graph short."""

    def __init__(self, rng, n=4, frames=4, feat_dim=5):
        self.clip_ids = [f"clip_{i}" for i in range(n)]
        self.features = rng.standard_normal((n, frames, feat_dim))
        self.feature_lengths = np.full(n, frames)
        self.feature_lengths[-1] = frames - 1


def full_width(batch, width):
    """The batch with captions zero-padded to ``width`` columns, as every
    batch was before batches were trimmed to their longest caption."""
    rows, t = batch.captions.shape
    captions = np.zeros((rows, width), dtype=batch.captions.dtype)
    captions[:, :t] = batch.captions
    return dataclasses.replace(batch, captions=captions)


def full_width_surrogate(gen, batch, z, sampled, advantages, width):
    """The SCST surrogate with samples padded to ``width``, as it was."""
    tokens = np.zeros((len(sampled), width), dtype=np.int64)
    for i, seq in enumerate(sampled):
        tokens[i, : len(seq)] = seq
    lengths = np.array([len(seq) for seq in sampled])
    targets = tokens[:, 1:]
    mask = (np.arange(targets.shape[1])[None, :] < (lengths - 1)[:, None]).astype(float)
    logits = gen.forward(batch.features, batch.feature_lengths, z, tokens[:, :-1])
    log_probs = logits.log_softmax(axis=-1)
    onehot = np.zeros(log_probs.shape, dtype=log_probs.dtype)
    np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
    picked = (log_probs * Tensor(onehot)).sum(axis=-1)
    weights = (mask * advantages[:, None]).astype(log_probs.dtype)
    return -(picked * Tensor(weights)).sum() * (1.0 / len(sampled))


def surrogate(gen, batch, z, sampled, advantages):
    """The SCST surrogate loss on a fresh taped encode of the batch."""
    memory = gen.encode(batch.features, batch.feature_lengths, z)
    return scst_surrogate_loss(gen, batch, memory, sampled, advantages)


def loss_and_grads(params, make_loss):
    """A fresh loss's value and every parameter's gradient down it."""
    for p in params:
        p.zero_grad()
    loss = make_loss()
    loss.backward()
    return loss.item(), [p.grad.copy() for p in params]


def assert_grads_agree(got, want, rtol):
    """Each gradient within ``rtol`` of its largest entry."""
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= rtol * np.abs(w).max()


class TestTrimmedBatches:
    """Batches padded to their longest caption against the full
    ``t_max + 2`` width, at default model sizes (t_max 22, dropout 0.1)."""

    @staticmethod
    def _batch(vocab, train, seed=0):
        batch = epoch_batches(train, vocab, 4, np.random.default_rng(seed), t_max=22)[0]
        assert batch.captions.shape[1] < 24
        return batch, full_width(batch, 24)

    def test_generator_loss_and_gradients(self):
        train, _, vocab, _, _, _ = tiny_setup()
        gen = Generator(GeneratorConfig(vocab_size=len(vocab), feat_dim=5),
                        np.random.default_rng(1))
        params = gen.store.tensors()

        def mle_loss(batch):
            z = np.zeros((len(batch.clip_ids), gen.config.noise_dim))
            inputs, targets, mask = teacher_forcing(batch.captions, batch.caption_lengths)
            logits = gen.forward(batch.features, batch.feature_lengths, z, inputs,
                                 drop_rng=np.random.default_rng(7))
            return cross_entropy(logits, targets, mask)

        for seed in range(3):
            trimmed, padded = self._batch(vocab, train, seed)
            got, got_grads = loss_and_grads(params, lambda: mle_loss(trimmed))
            want, want_grads = loss_and_grads(params, lambda: mle_loss(padded))
            # the masked mean sums a different count of zeros, and the
            # GEMMs and softmaxes run over fewer rows and keys: float32
            # reassociation, a last bit of the loss at most
            assert got == pytest.approx(want, rel=2e-7)
            assert_grads_agree(got_grads, want_grads, rtol=1e-5)

    def test_discriminator_loss_and_gradients_are_equal(self):
        train, _, vocab, _, d, _ = tiny_setup()
        trimmed, padded = self._batch(vocab, train)
        fakes = pad([[SOS, 5, 6, EOS], [SOS, 7, EOS], [SOS, 4, EOS], [SOS, 9, 9, EOS]])
        params = d.store.tensors()
        got, got_grads = loss_and_grads(params, lambda: discriminator_loss(
            d, trimmed.captions, trimmed.caption_lengths, *fakes))
        want, want_grads = loss_and_grads(params, lambda: discriminator_loss(
            d, padded.captions, padded.caption_lengths, *fakes))
        assert got == want
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_array_equal(g, w)

    def test_semantic_loss_and_gradients_are_equal(self):
        train, _, vocab, _, _, se = tiny_setup()
        trimmed, padded = self._batch(vocab, train)
        params = se.store.tensors()
        got, got_grads = loss_and_grads(params, lambda: semantic_hinge_loss(se, trimmed, 0.2))
        want, want_grads = loss_and_grads(params, lambda: semantic_hinge_loss(se, padded, 0.2))
        assert got == want
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_array_equal(g, w)

    def test_surrogate_matches_the_full_width(self):
        train, _, vocab, _, _, _ = tiny_setup()
        gen = Generator(GeneratorConfig(vocab_size=len(vocab), feat_dim=5),
                        np.random.default_rng(1))
        batch, _ = self._batch(vocab, train)
        rng = np.random.default_rng(2)
        z = rng.standard_normal((len(batch.clip_ids), gen.config.noise_dim))
        sampled, _ = rollout(gen, batch.features, batch.feature_lengths, z, "sample",
                             rng=rng, max_length=gen.config.t_max)
        advantages = np.array([0.8, -0.3, 0.1, -1.2])
        params = gen.store.tensors()
        got, got_grads = loss_and_grads(
            params, lambda: surrogate(gen, batch, z, sampled, advantages))
        want, want_grads = loss_and_grads(
            params, lambda: full_width_surrogate(gen, batch, z, sampled, advantages, 24))
        assert got == pytest.approx(want, rel=1e-6)
        assert_grads_agree(got_grads, want_grads, rtol=1e-5)


class TestTeacherForcing:
    @pytest.mark.parametrize("seqs", [
        [[1, 5, 6, 2], [1, 7, 2], [1, 4, 4, 8, 9, 2]],
        [[1, 5, 2]],
        [[1, 3, 4, 2], [1, 5, 6, 2]],
    ], ids=["ragged", "one row", "one length"])
    def test_matches_the_old_rule(self, seqs):
        tokens, lengths = pad(seqs)
        inputs, targets, mask = teacher_forcing(tokens, lengths)
        np.testing.assert_array_equal(inputs, tokens[:, :-1])
        np.testing.assert_array_equal(targets, tokens[:, 1:])
        # the rule the batches and the SCST surrogate each used to write
        predicted = np.arange(tokens.shape[1] - 1)[None, :] < (lengths - 1)[:, None]
        assert mask.dtype == np.float64
        np.testing.assert_array_equal(mask, predicted.astype(np.float64))
        assert mask.sum() == (lengths - 1).sum()


class TestSurrogate:
    def test_gradient_matches_finite_differences(self):
        _, _, vocab, _, _, _ = tiny_setup()
        gen = tiny_generator_sized(vocab, dtype=np.float64)
        rng = np.random.default_rng(0)
        batch = _MiniBatch(rng)
        z = rng.standard_normal((len(batch.clip_ids), gen.config.noise_dim))
        sampled = [[1, 5, 6, 2], [1, 7, 2], [1, 4, 4, 8, 2], [1, 9, 2]]
        advantages = np.array([0.8, -0.3, 0.1, -1.2])

        def loss():
            return surrogate(gen, batch, z, sampled, advantages).item()

        surrogate(gen, batch, z, sampled, advantages).backward()
        params = gen.store.tensors()
        fd = finite_difference(loss, params)
        assert_grads_close(params, fd, rtol=1e-3)

    def test_float32_loss_and_gradients(self):
        # float64 advantages are cast to the log-probs' dtype: the loss is
        # float32, and its gradients match finite differences taken in
        # float64 on the same weights
        _, _, vocab, _, _, _ = tiny_setup()
        gen = tiny_generator_sized(vocab, dtype=np.float32)
        gen64 = tiny_generator_sized(vocab, dtype=np.float64)
        restore_model(gen64, {name: p.data for name, p in gen.params.items()})
        rng = np.random.default_rng(3)
        batch = _MiniBatch(rng)
        z = rng.standard_normal((len(batch.clip_ids), gen.config.noise_dim))
        sampled = [[1, 5, 6, 2], [1, 7, 2], [1, 4, 4, 8, 2], [1, 9, 2]]
        advantages = np.array([0.8, -0.3, 0.1, -1.2])

        loss = surrogate(gen, batch, z, sampled, advantages)
        assert loss.dtype == np.float32
        loss.backward()
        fd = finite_difference(
            lambda: surrogate(gen64, batch, z, sampled, advantages).item(),
            gen64.store.tensors(),
        )
        assert_grads_close(gen.store.tensors(), fd, rtol=1e-3)

    def test_zero_advantages_zero_gradient(self):
        _, _, vocab, _, _, _ = tiny_setup()
        gen = tiny_generator_sized(vocab, dtype=np.float64)
        rng = np.random.default_rng(1)
        batch = _MiniBatch(rng)
        z = rng.standard_normal((len(batch.clip_ids), gen.config.noise_dim))
        sampled = [[1, 5, 2]] * len(batch.clip_ids)
        loss = surrogate(gen, batch, z, sampled, np.zeros(len(batch.clip_ids)))
        loss.backward()
        for p in gen.store.tensors():
            if p.grad is not None:
                assert np.abs(p.grad).max() == 0.0

    def test_baseline_shift_changes_nothing_when_uniform(self):
        # shifting every advantage by the same constant changes the loss
        # but SCST uses per-row (r - baseline); verify linearity in adv
        _, _, vocab, _, _, _ = tiny_setup()
        gen = tiny_generator_sized(vocab, dtype=np.float64)
        rng = np.random.default_rng(2)
        batch = _MiniBatch(rng)
        z = rng.standard_normal((len(batch.clip_ids), gen.config.noise_dim))
        sampled = [[1, 5, 6, 2], [1, 7, 2], [1, 4, 8, 2], [1, 9, 2]]
        a1 = np.array([0.5, -0.5, 1.0, 0.0])
        l1 = surrogate(gen, batch, z, sampled, a1).item()
        l2 = surrogate(gen, batch, z, sampled, 2 * a1).item()
        assert l2 == pytest.approx(2 * l1, rel=1e-12)


class TestDiscriminatorTraining:
    def test_uninformative_d_loss_is_two_log_two(self):
        _, _, vocab, _, d, _ = tiny_setup()
        d.params["head.w"].data[...] = 0.0
        d.params["head.b"].data[...] = 0.0
        tokens = np.array([[1, 5, 2]], dtype=np.int64)
        lengths = np.array([3])
        loss = discriminator_loss(d, tokens, lengths, tokens, lengths)
        assert loss.item() == pytest.approx(2 * np.log(2), abs=1e-6)

    def test_step_reduces_loss_on_fixed_batch(self):
        _, _, vocab, _, d, _ = tiny_setup()
        opt = Adam(d.store.tensors(), lr=1e-2)
        rng = np.random.default_rng(0)
        real = rng.integers(4, len(vocab), size=(6, 5))
        real[:, 0] = 1
        fake = rng.integers(4, len(vocab), size=(6, 5))
        fake[:, 0] = 1
        lengths = np.full(6, 5)

        def step():
            loss = discriminator_loss(d, real, lengths, fake, lengths)
            return training._optimize(opt, loss, "discriminator loss")

        first = step()
        for _ in range(30):
            last = step()
        assert last < first

    def test_pretrain_separates_real_from_random(self):
        train, _, vocab, gen, d, _ = tiny_setup()
        config = tiny_train_config(d_pretrain_epochs=8, learning_rate=5e-3)
        log = d_pretrain(d, gen, train, vocab, config)
        assert len(log.records) == 8
        real = [vocab.encode(r.references[0][:12]) for r in train.records]
        rng = np.random.default_rng(9)
        fakes, _ = rollout(
            gen, *_stack_features(train), rng.standard_normal((len(train.records), 4)),
            "sample", rng=rng, max_length=12,
        )
        acc = discriminator_accuracy(d, real, fakes)
        assert acc > 0.6  # tiny run; the acceptance suite demands > 0.95


def _stack_features(split):
    return pad([r.features for r in split.records])


class TestSemanticEvaluatorTraining:
    def test_hinge_loss_zero_when_diagonal_dominates(self):
        class Stub:
            dtype = np.float64

        se = Stub()
        eye = np.eye(3)
        se.embed_audio = lambda f, fl: Tensor(eye)
        se.embed_caption = lambda t, tl: Tensor(eye)

        class B:
            clip_ids = ["a", "b", "c"]
            features = np.zeros((3, 2, 2))
            feature_lengths = np.array([2, 2, 2])
            captions = np.zeros((3, 4), dtype=np.int64)
            caption_lengths = np.array([3, 3, 3])

        loss = semantic_hinge_loss(se, B(), margin=0.2)
        assert loss.item() == 0.0  # sims = I: pos 1, negatives 0, margin met

    def test_hinge_loss_hand_value(self):
        class Stub:
            dtype = np.float64

        se = Stub()
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        c = np.array([[0.8, 0.6], [0.6, 0.8]])
        se.embed_audio = lambda f, fl: Tensor(a)
        se.embed_caption = lambda t, tl: Tensor(c)

        class B:
            clip_ids = ["a", "b"]
            features = np.zeros((2, 2, 2))
            feature_lengths = np.array([2, 2])
            captions = np.zeros((2, 4), dtype=np.int64)
            caption_lengths = np.array([3, 3])

        # sims = [[0.8, 0.6], [0.6, 0.8]]; every violation = 0.6-0.8+0.2 = 0
        loss = semantic_hinge_loss(se, B(), margin=0.2)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)
        loss = semantic_hinge_loss(se, B(), margin=0.5)
        # each of the 4 anchored terms is 0.6-0.8+0.5 = 0.3, mean over 2 off-diag
        assert loss.item() == pytest.approx((2 * 0.3 + 2 * 0.3) / 2, abs=1e-12)

    def test_pretrain_widens_paired_gap(self):
        train, _, vocab, _, _, se = tiny_setup()
        before = semantic_gap(se, train, vocab, t_max=12)
        config = tiny_train_config(se_pretrain_epochs=15, learning_rate=5e-3)
        log = semantic_pretrain(se, train, vocab, config, 12)
        after = semantic_gap(se, train, vocab, t_max=12)
        assert len(log.records) == 15
        assert after > before

    @pytest.mark.parametrize("clips, batch_size", [(12, 1), (1, 4)])
    def test_pretrain_refuses_batches_without_negatives(self, clips, batch_size):
        train, _, vocab, _, _, se = tiny_setup()
        train = dataclasses.replace(train, records=train.records[:clips])
        with pytest.raises(ValueError, match="2 clips per batch"):
            semantic_pretrain(se, train, vocab, tiny_train_config(batch_size=batch_size), 12)

    def test_gradients_match_finite_differences(self):
        se = SemanticEvaluator(
            SemanticEvaluatorConfig(
                vocab_size=11, feat_dim=5, embed_dim=4, hidden_dim=6, out_dim=8
            ),
            np.random.default_rng(3),
            dtype=np.float64,
        )
        rng = np.random.default_rng(0)
        batch = _MiniBatch(rng, n=4, frames=4, feat_dim=5)
        batch.captions = rng.integers(1, 11, size=(4, 5))
        batch.captions[:, 0] = 1
        batch.caption_lengths = np.array([5, 4, 5, 3])

        def loss():
            return semantic_hinge_loss(se, batch, margin=0.2).item()

        semantic_hinge_loss(se, batch, margin=0.2).backward()
        params = se.store.tensors()
        fd = finite_difference(loss, params)
        assert_grads_close(params, fd, rtol=1e-3)


class TestMLEPretrain:
    def test_loss_decreases_and_checkpoints_written(self, tmp_path):
        train, evaluation, vocab, gen, _, _ = tiny_setup()
        config = tiny_train_config(mle_epochs=5, learning_rate=3e-3)
        log = mle_pretrain(gen, train, evaluation, vocab, config, out_dir=tmp_path)
        losses = [r["mle_loss"] for r in log.records]
        assert losses[-1] < losses[0]
        assert (tmp_path / "generator_mle_final.ckpt").exists()
        assert (tmp_path / "generator_mle_best.ckpt").exists()
        assert all("eval_cider" in r for r in log.records)

    def test_no_best_checkpoint_without_an_eval_split(self, tmp_path):
        train, _, vocab, gen, _, _ = tiny_setup()
        log = mle_pretrain(gen, train, None, vocab, tiny_train_config(mle_epochs=2),
                           out_dir=tmp_path)
        assert not any("eval_cider" in r for r in log.records)
        assert (tmp_path / "generator_mle_final.ckpt").exists()
        assert not (tmp_path / "generator_mle_best.ckpt").exists()

    def test_deterministic_given_seed(self):
        losses = []
        for _ in range(2):
            train, evaluation, vocab, gen, _, _ = tiny_setup(seed=0)
            config = tiny_train_config(mle_epochs=2)
            log = mle_pretrain(gen, train, None, vocab, config)
            losses.append([r["mle_loss"] for r in log.records])
        assert losses[0] == losses[1]

    def test_gradients_dropped_after_each_step(self, monkeypatch):
        train, _, vocab, gen, _, _ = tiny_setup()
        stepped = []
        real_step = Adam.step

        def spy_step(opt):
            stepped.append(all(p.grad is not None for p in opt.params))
            real_step(opt)

        monkeypatch.setattr(Adam, "step", spy_step)
        mle_pretrain(gen, train, None, vocab, tiny_train_config(mle_epochs=1))
        assert stepped and all(stepped)
        assert all(p.grad is None for p in gen.store.tensors())

    @pytest.mark.parametrize("rate", [-1.0, 0.0, float("nan"), float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            tiny_train_config(learning_rate=rate)

    def test_nan_aborts(self):
        train, _, vocab, gen, _, _ = tiny_setup()
        gen.params["dec.out.w"].data[...] = np.inf
        config = tiny_train_config(mle_epochs=1)
        with pytest.raises(Diverged):
            mle_pretrain(gen, train, None, vocab, config)


def reference_eval_pass(gen, split, vocab, df_table, t_max):
    """The eval pass as it was: one batch-1 greedy rollout per clip.
    Returns (captions, per-token log-probs, mean CIDEr)."""
    seqs, logps = [], []
    for record in split.records:
        z = np.zeros((1, gen.config.noise_dim))
        row_seqs, row_logps = rollout(
            gen, record.features[None], np.array([record.features.shape[0]]),
            z, "greedy", max_length=t_max,
        )
        seqs.append(row_seqs[0])
        logps.append(row_logps[0])
    scores = [cider(vocab.decode(seq), r.references, df_table)
              for seq, r in zip(seqs, split.records)]
    return seqs, logps, float(np.mean(scores))


def spy_rollout(monkeypatch, calls, pad_fill=None):
    """Record every ``training.rollout`` call's keyword arguments and
    output; with ``pad_fill``, first overwrite the given memory's frames
    past each row's length with that value."""
    real = training.rollout

    def spy(gen, features, feat_lengths, z, mode, **kwargs):
        if pad_fill is not None:
            for row, length in zip(kwargs["memory"].data, feat_lengths):
                row[length:] = pad_fill
        out = real(gen, features, feat_lengths, z, mode, **kwargs)
        calls.append((kwargs, out))
        return out

    monkeypatch.setattr(training, "rollout", spy)


class TestEvalPass:
    """The batched greedy eval pass against per-clip batch-1 rollouts."""

    @staticmethod
    def _setup():
        train, evaluation = generate_synthetic_corpus(0, n_clips=60, n_classes=4)
        vocab = build_vocabulary(train)
        gen = Generator(GeneratorConfig(vocab_size=len(vocab)), np.random.default_rng(3))
        rng = np.random.default_rng(4)
        # a nonzero input bias makes a padded frame's encoding nonzero, so
        # encoding the split as one padded batch would change the memory
        b = gen.params["enc.in.b"]
        b.data += rng.normal(0.0, 0.5, b.shape).astype(b.dtype)
        # captions end at different steps instead of all at the length cap
        gen.params["dec.out.b"].data[EOS] += 1.5
        df_table = build_doc_freq([r.references for r in train.records])
        assert len({len(r.features) for r in evaluation.records}) > 5
        return gen, evaluation, vocab, df_table, _eval_references(evaluation, df_table)

    def test_matches_per_clip_rollouts(self, monkeypatch):
        gen, evaluation, vocab, df_table, refs = self._setup()
        want_seqs, want_logps, want_cider = reference_eval_pass(
            gen, evaluation, vocab, df_table, gen.config.t_max)
        calls = []
        spy_rollout(monkeypatch, calls)
        got_cider = _eval_greedy_cider(gen, evaluation, refs, vocab, df_table)
        assert len(calls) == 1
        got_seqs, got_logps = calls[0][1]
        assert got_seqs == want_seqs
        assert len({len(seq) for seq in got_seqs}) > 2
        for got, want in zip(got_logps, want_logps):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)
        assert got_cider == want_cider

    def test_padded_memory_frames_are_masked(self, monkeypatch):
        gen, evaluation, vocab, df_table, refs = self._setup()
        zero_calls, filled_calls = [], []
        spy_rollout(monkeypatch, zero_calls)
        zero = _eval_greedy_cider(gen, evaluation, refs, vocab, df_table)
        spy_rollout(monkeypatch, filled_calls, pad_fill=1e3)
        filled = _eval_greedy_cider(gen, evaluation, refs, vocab, df_table)
        memory = filled_calls[0][0]["memory"].data
        assert (memory == 1e3).any()
        assert filled_calls[0][1] == zero_calls[0][1]
        assert filled == zero

    def test_one_rollout_per_epoch(self, monkeypatch):
        train, evaluation, vocab, gen, _, _ = tiny_setup()
        calls = []
        spy_rollout(monkeypatch, calls)
        mle_pretrain(gen, train, evaluation, vocab, tiny_train_config(mle_epochs=2))
        assert len(calls) == 2
        for _, (seqs, _) in calls:
            assert len(seqs) == len(evaluation.records)

    @pytest.mark.parametrize("trainer", ["mle", "adversarial"])
    def test_reference_vectors_once_per_run(self, trainer, monkeypatch):
        # the eval references' TF-IDF vectors depend only on the run's
        # table, so two epochs derive them once per clip
        train, evaluation, vocab, gen, d, se = tiny_setup()
        config = tiny_train_config(mle_epochs=2, adversarial_epochs=2, lam=1.0)
        derived = []
        real = training.reference_vectors

        def spy(references, df_table):
            derived.append(references)
            return real(references, df_table)

        monkeypatch.setattr(training, "reference_vectors", spy)
        if trainer == "mle":
            log = mle_pretrain(gen, train, evaluation, vocab, config)
        else:
            log, _ = adversarial_train(gen, d, se, train, evaluation, vocab, config)
        assert derived == [r.references for r in evaluation.records]
        assert len(log.records) == 2 and all("eval_cider" in r for r in log.records)


class TestAdversarial:
    def test_one_epoch_runs_and_freezes_se(self, tmp_path):
        train, evaluation, vocab, gen, d, se = tiny_setup()
        config = tiny_train_config(adversarial_epochs=1)
        se_before = {k: v.data.copy() for k, v in se.params.items()}
        log, oracles = adversarial_train(
            gen, d, se, train, evaluation, vocab, config, out_dir=tmp_path
        )
        for name, before in se_before.items():
            np.testing.assert_array_equal(before, se.params[name].data)
        assert oracles.d_queries > 0 and oracles.se_queries > 0
        # no per-epoch generator snapshots: only what a later command reads
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "discriminator_adv_final.ckpt", "generator_adv_final.ckpt", "rewards.csv",
            "train_log.jsonl"]
        record = log.records[0]
        assert np.isfinite(record["g_loss"]) and np.isfinite(record["d_loss"])
        assert record["mean_reward"] == pytest.approx(
            config.lam * (record["mean_n"] + record["mean_s"])
            + (1 - config.lam) * record["mean_c"],
            abs=1e-12,
        )
        assert np.isfinite(record["adv_mean"]) and record["adv_std"] >= 0.0
        assert 0.0 <= record["adv_pos_frac"] <= 1.0

    def test_lambda_zero_is_pure_rl(self, monkeypatch):
        train, _, vocab, gen, d, se = tiny_setup()
        config = tiny_train_config(lam=0.0, adversarial_epochs=1)
        d_before = {k: v.data.copy() for k, v in d.params.items()}
        optimized = []
        real_adam = training.Adam

        def spy(params, lr):
            optimized.append({id(p) for p in params})
            return real_adam(params, lr)

        monkeypatch.setattr(training, "Adam", spy)
        log, oracles = adversarial_train(gen, d, se, train, None, vocab, config)
        assert oracles.d_queries == 0 and oracles.se_queries == 0
        assert log.records[0]["d_loss"] is None
        # one optimizer, the generator's: none is built for the discriminator
        assert optimized == [{id(p) for p in gen.store.tensors()}]
        for name, before in d_before.items():
            assert before.tobytes() == d.params[name].data.tobytes()

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_semantic_evaluator_changed_during_the_run_is_refused(self, lam, monkeypatch):
        train, _, vocab, gen, d, se = tiny_setup()
        real_step = training.scst_generator_step

        def step_that_nudges_se(*args, **kwargs):
            out = real_step(*args, **kwargs)
            se.params["audio.out.w"].data[0, 0] += 1e-6
            return out

        monkeypatch.setattr(training, "scst_generator_step", step_that_nudges_se)
        with pytest.raises(RuntimeError, match="semantic evaluator changed"):
            adversarial_train(gen, d, se, train, None, vocab,
                              tiny_train_config(lam=lam, adversarial_epochs=1))

    def test_generator_step_leaves_discriminator_alone(self):
        train, _, vocab, gen, d, se = tiny_setup()
        config = tiny_train_config()
        df = build_doc_freq([r.references for r in train.records])
        oracles = RewardOracles(d, se, df, vocab)
        batch = epoch_batches(train, vocab, 4, np.random.default_rng(0), t_max=12)[0]
        records_by_id = {r.clip_id: r for r in train.records}
        d_before = {k: v.data.copy() for k, v in d.params.items()}
        gen_before = {k: v.data.copy() for k, v in gen.params.items()}
        opt = Adam(gen.store.tensors(), lr=1e-3)
        scst_generator_step(
            gen, opt, batch, records_by_id, oracles, config,
            np.random.default_rng(1), np.random.default_rng(2),
        )
        for name, before in d_before.items():
            np.testing.assert_array_equal(before, d.params[name].data)
        assert any(
            not np.array_equal(gen_before[k], gen.params[k].data) for k in gen_before
        )

    def test_generator_step_scores_every_caption_in_one_call(self, monkeypatch):
        train, _, vocab, gen, d, se = tiny_setup()
        config = tiny_train_config()
        df = build_doc_freq([r.references for r in train.records])
        oracles = RewardOracles(d, se, df, vocab)
        batch = epoch_batches(train, vocab, 4, np.random.default_rng(0), t_max=12)[0]
        records_by_id = {r.clip_id: r for r in train.records}
        calls = []
        real = oracles.score

        def spy(seqs, records, config):
            rewards = real(seqs, records, config)
            calls.append((seqs, records, rewards))
            return rewards

        monkeypatch.setattr(oracles, "score", spy)
        _, breakdowns, advantages = scst_generator_step(
            gen, Adam(gen.store.tensors(), lr=1e-3), batch, records_by_id, oracles,
            config, np.random.default_rng(1), np.random.default_rng(2),
        )
        assert len(calls) == 1
        seqs, records, rewards = calls[0]
        b = len(batch.clip_ids)
        assert len(seqs) == 2 * b
        assert [r.clip_id for r in records] == list(batch.clip_ids) * 2
        assert breakdowns == rewards[:b]
        np.testing.assert_array_equal(
            advantages, [r.total - g.total for r, g in zip(rewards[:b], rewards[b:])]
        )


    def test_generator_step_encodes_once_for_both_rollouts(self, monkeypatch):
        train, _, vocab, gen, d, se = tiny_setup()
        config = tiny_train_config()
        oracles = RewardOracles(d, se, build_doc_freq([r.references for r in train.records]),
                                vocab)
        batch = epoch_batches(train, vocab, 4, np.random.default_rng(0), t_max=12)[0]
        events, memories = [], []
        real_encode = gen.encode

        def encode(*args):
            events.append("encode")
            memories.append(real_encode(*args))
            return memories[-1]

        real_rollout = training.rollout

        def spy(*args, **kwargs):
            events.append(("rollout", kwargs["memory"] is memories[0]))
            return real_rollout(*args, **kwargs)

        real_surrogate = training.scst_surrogate_loss

        def spy_surrogate(*args, **kwargs):
            events.append(("surrogate", args[2] is memories[0]))
            return real_surrogate(*args, **kwargs)

        monkeypatch.setattr(gen, "encode", encode)
        monkeypatch.setattr(training, "rollout", spy)
        monkeypatch.setattr(training, "scst_surrogate_loss", spy_surrogate)
        scst_generator_step(
            gen, Adam(gen.store.tensors(), lr=1e-3), batch,
            {r.clip_id: r for r in train.records}, oracles, config,
            np.random.default_rng(1), np.random.default_rng(2),
        )
        # one taped encode serves both rollouts and the surrogate loss
        assert events == ["encode", ("rollout", True), ("rollout", True), ("surrogate", True)]
        assert memories[0].requires_grad


class TestFloat32:
    """Under NEP 50 a float64 scale or array anywhere in a step upcasts the
    float32 data it touches; one step of each kind must stay float32."""

    SPIED = {"generator": ("encode", "forward"), "discriminator": ("forward",),
             "semantic": ("embed_audio", "embed_caption")}

    def _spy_outputs(self, monkeypatch, models, outputs):
        for model in models:
            for name in self.SPIED[model.kind]:
                def spy(*args, _real=getattr(model, name), _name=f"{model.kind}.{name}",
                        **kwargs):
                    out = _real(*args, **kwargs)
                    outputs.append((_name, out.dtype))
                    return out

                monkeypatch.setattr(model, name, spy)

    def test_mle_d_se_and_scst_steps_stay_float32(self, monkeypatch):
        train, _, vocab, gen, d, se = tiny_setup()
        # dropout on, so its masks are in the steps too
        gen = Generator(dataclasses.replace(gen.config, dropout=0.1), np.random.default_rng(0))
        config = tiny_train_config(mle_epochs=1, d_pretrain_epochs=1, se_pretrain_epochs=1)
        oracles = RewardOracles(d, se, build_doc_freq([r.references for r in train.records]),
                                vocab)
        batch = epoch_batches(train, vocab, 4, np.random.default_rng(0), t_max=12)[0]
        outputs = []
        self._spy_outputs(monkeypatch, (gen, d, se), outputs)
        # the gradients each Adam step consumes; they are dropped after it
        stepped = []
        real_step = Adam.step

        def spy_step(opt):
            stepped.append([p.grad for p in opt.params if p.grad is not None])
            real_step(opt)

        monkeypatch.setattr(Adam, "step", spy_step)
        steps = {
            "MLE": (gen, lambda: mle_pretrain(gen, train, None, vocab, config)),
            "D": (d, lambda: d_pretrain(d, gen, train, vocab, config)),
            "SE": (se, lambda: semantic_pretrain(se, train, vocab, config, 12)),
            "SCST": (gen, lambda: scst_generator_step(
                gen, Adam(gen.store.tensors(), lr=1e-3), batch,
                {r.clip_id: r for r in train.records}, oracles, config,
                np.random.default_rng(1), np.random.default_rng(2),
            )),
        }
        for what, (model, step) in steps.items():
            outputs.clear()
            stepped.clear()
            step()
            trained = {name[: name.index(".")] for name, _ in outputs}
            assert model.kind in trained, what
            assert all(dtype == np.float32 for _, dtype in outputs), (what, outputs)
            grads = stepped[-1]
            assert grads and all(g.dtype == np.float32 for g in grads), what
            assert all(p.data.dtype == np.float32 for p in model.store.tensors()), what


class TestTrainLog:
    def test_jsonl_round_trip(self, tmp_path):
        log = TrainLog()
        log.append(epoch=1, mle_loss=2.5)
        log.append(epoch=2, mle_loss=2.1)
        path = tmp_path / "log.jsonl"
        log.save_jsonl(path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines == log.records

    def test_monotonic_epochs_enforced(self):
        log = TrainLog()
        log.append(epoch=3, x=1)
        with pytest.raises(ValueError):
            log.append(epoch=3, x=2)

    def test_reward_csv(self, tmp_path):
        log = TrainLog()
        log.append(epoch=1, mean_n=0.5, mean_s=0.1, mean_c=3.0, mean_reward=1.8)
        path = tmp_path / "rewards.csv"
        log.save_reward_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,mean_n,mean_s,mean_c,mean_reward"
        assert lines[1] == "1,0.5,0.1,3.0,1.8"


STAGES = ("mle", "d-pretrain", "se-pretrain", "adversarial")
# what each stage leaves in its output directory; a pretraining stage's
# checkpoint is the one training.CHECKPOINTS names
STAGE_FILES = {
    "mle": [training.CHECKPOINTS["mle"], "mle_log.jsonl"],
    "d-pretrain": ["d_log.jsonl", training.CHECKPOINTS["d-pretrain"]],
    "se-pretrain": ["se_log.jsonl", training.CHECKPOINTS["se-pretrain"]],
    "adversarial": ["discriminator_adv_final.ckpt", "generator_adv_final.ckpt", "rewards.csv",
                    "train_log.jsonl"],
}


def run_tiny_stage(stage, epochs, out_dir=None, start_epoch=1):
    """``stage`` on the tiny set-up for ``epochs`` epochs, without an eval
    split; returns its log."""
    train, _, vocab, gen, d, se = tiny_setup()
    config = tiny_train_config(mle_epochs=epochs, d_pretrain_epochs=epochs,
                               se_pretrain_epochs=epochs, adversarial_epochs=epochs)
    if stage == "mle":
        return mle_pretrain(gen, train, None, vocab, config, out_dir, start_epoch)
    if stage == "d-pretrain":
        return d_pretrain(d, gen, train, vocab, config, out_dir, start_epoch)
    if stage == "se-pretrain":
        return semantic_pretrain(se, train, vocab, config, gen.config.t_max, out_dir, start_epoch)
    assert start_epoch == 1  # the adversarial stage does not resume
    return adversarial_train(gen, d, se, train, None, vocab, config, out_dir)[0]


class TestRunStage:
    @pytest.mark.parametrize("stage, streams", [
        ("mle", {"mle-data", "mle-dropout"}),
        ("d-pretrain", {"d-data", "d-fakes"}),
        ("se-pretrain", {"se-data"}),
        ("adversarial", {"adv-data", "adv-fakes", "adv-z", "adv-sample"}),
    ])
    def test_each_stage_draws_its_own_substreams(self, stage, streams, monkeypatch):
        drawn = []
        real_substream = training.substream

        def spy(seed, name):
            drawn.append(name)
            return real_substream(seed, name)

        monkeypatch.setattr(training, "substream", spy)
        run_tiny_stage(stage, epochs=1)
        assert sorted(drawn) == sorted(streams)

    @pytest.mark.parametrize("stage", STAGES)
    def test_logs_and_checkpoints_every_epoch(self, stage, tmp_path, monkeypatch):
        appended = []
        real_append = TrainLog.append

        def spy(log, **record):
            appended.append(record["epoch"])
            real_append(log, **record)

        monkeypatch.setattr(TrainLog, "append", spy)
        log = run_tiny_stage(stage, epochs=2, out_dir=tmp_path)
        assert appended == [1, 2]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(STAGE_FILES[stage])
        lines = (tmp_path / training.LOG_FILES[stage]).read_text().splitlines()
        assert [json.loads(line) for line in lines] == log.records
        assert [r["epoch"] for r in log.records] == [1, 2]
        for path in tmp_path.glob("*.ckpt"):
            _, meta = load_checkpoint(path)
            assert {k: meta[k] for k in ("epoch", "seed", "stage")} == {
                "epoch": 2, "seed": 0, "stage": stage}

    @pytest.mark.parametrize("stage", ["mle", "d-pretrain", "se-pretrain"])
    def test_resumed_stage_keeps_the_earlier_records(self, stage, tmp_path):
        first = run_tiny_stage(stage, epochs=1, out_dir=tmp_path)
        log = run_tiny_stage(stage, epochs=2, out_dir=tmp_path, start_epoch=2)
        assert [r["epoch"] for r in log.records] == [1, 2]
        assert log.records[0] == first.records[0]
        lines = (tmp_path / training.LOG_FILES[stage]).read_text().splitlines()
        assert [json.loads(line) for line in lines] == log.records

    def test_semantic_stage_skips_a_one_clip_batch(self, monkeypatch):
        train, *_ = tiny_setup()
        # the last batch holds 1 clip
        assert len(train.records) % tiny_train_config().batch_size == 1
        sizes = []
        real_loss = training.semantic_hinge_loss

        def spy(se, batch, margin):
            sizes.append(len(batch.clip_ids))
            return real_loss(se, batch, margin)

        monkeypatch.setattr(training, "semantic_hinge_loss", spy)
        log = run_tiny_stage("se-pretrain", epochs=1)
        assert sizes == [4, 4]
        assert np.isfinite(log.records[0]["se_loss"])
