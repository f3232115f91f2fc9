"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with plain pytest; the per-criterion lines bypass output capture so
they are always visible:

    pytest tests/test_acceptance.py -v
"""
import json
import math
import time

import numpy as np
import pytest
import yaml

from capgan.cli import main as cli_main
from capgan.corpus import (
    ClipRecord,
    DatasetSplit,
    build_vocabulary,
    epoch_batches,
    generate_synthetic_corpus,
    load_dataset,
    read_features,
    save_dataset,
    write_features,
)
from capgan.decoding import (
    DecodeConfig,
    generate_diverse_set,
    read_captions,
    rollout,
    write_captions,
)
from capgan.metrics import (
    build_doc_freq,
    cider,
    corpus_bleu,
    div_n,
    evaluate_captions,
    mbleu,
)
from capgan.models import (
    Discriminator,
    DiscriminatorConfig,
    Generator,
    GeneratorConfig,
    SemanticEvaluator,
    SemanticEvaluatorConfig,
    layer_norm,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from capgan.seeding import substream
from capgan.tensor import Adam, Tensor, concat, cross_entropy, embedding
from capgan.training import (
    RewardBreakdown,
    RewardOracles,
    TrainConfig,
    adversarial_train,
    d_pretrain,
    discriminator_accuracy,
    mle_pretrain,
    semantic_gap,
    semantic_pretrain,
)

from conftest import assert_grads_close, finite_difference
from oracle_metrics import oracle_cider, oracle_corpus_bleu, oracle_doc_freq


def _finish(capsys, criterion: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"{criterion}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{criterion}{tail}"


# -- shared smoke-scale configuration -----------------------------------------

FEAT_DIM = 12
T_MAX = 14


def _smoke_train_config(seed, **overrides):
    base = dict(
        lam=1.0, mle_epochs=5, d_pretrain_epochs=2, se_pretrain_epochs=5,
        adversarial_epochs=5, batch_size=8, learning_rate=2e-3, seed=seed,
    )
    base.update(overrides)
    return TrainConfig(**base)


def _smoke_generator(vocab, seed):
    config = GeneratorConfig(
        vocab_size=len(vocab), feat_dim=FEAT_DIM, d_model=16, n_layers=1,
        n_heads=2, d_ff=32, noise_dim=8, t_max=T_MAX, dropout=0.0,
    )
    return Generator(config, substream(seed, "generator-init"))


def _smoke_discriminator(vocab, seed):
    return Discriminator(
        DiscriminatorConfig(vocab_size=len(vocab), embed_dim=16, hidden_dim=32),
        substream(seed, "discriminator-init"),
    )


def _smoke_semantic(vocab, seed):
    return SemanticEvaluator(
        SemanticEvaluatorConfig(
            vocab_size=len(vocab), feat_dim=FEAT_DIM, embed_dim=16,
            hidden_dim=32, out_dim=32,
        ),
        substream(seed, "semantic-init"),
    )


def _decode_sets(gen, split, vocab, mode, seed, n=5, beam=5):
    rng = substream(seed, f"{mode}-decode")
    config = DecodeConfig(beam_size=beam, n_captions=n)
    out = {}
    for record in split.records:
        seqs, _, _ = generate_diverse_set(
            gen, record.features[None], np.array([record.features.shape[0]]),
            config, rng, mode=mode,
        )
        out[record.clip_id] = [vocab.decode(s) for s in seqs]
    return out


# == 1. gradient correctness ==================================================


def _check_grad(make_loss, params, rtol=1e-4):
    loss = make_loss()
    loss.backward()
    fd = finite_difference(lambda: make_loss().item(), params)
    assert_grads_close(params, fd, rtol=rtol)
    for p in params:
        p.zero_grad()


def test_ac01_gradient_correctness(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(0)

    def p(*shape):
        return Tensor(rng.standard_normal(shape) * 0.5, requires_grad=True)

    a, b = p(3, 4), p(3, 4)
    m = p(4, 5)
    w = rng.standard_normal((3, 4))
    ops = {
        "add": lambda: ((a + b).tanh() * Tensor(w)).sum(),
        "sub": lambda: ((a - b).tanh() * Tensor(w)).sum(),
        "mul": lambda: ((a * b).tanh() * Tensor(w)).sum(),
        "div": lambda: ((a / (b * b + 1.0)).tanh() * Tensor(w)).sum(),
        "scalar": lambda: ((a * 2.5 + 1.0).tanh() * Tensor(w)).sum(),
        "neg": lambda: ((-a).tanh() * Tensor(w)).sum(),
        "exp": lambda: (a.exp() * Tensor(w)).sum(),
        "log": lambda: ((a * a + 0.5).log() * Tensor(w)).sum(),
        "sqrt": lambda: ((a * a + 0.5).sqrt() * Tensor(w)).sum(),
        "sigmoid": lambda: (a.sigmoid() * Tensor(w)).sum(),
        "tanh": lambda: (a.tanh() * Tensor(w)).sum(),
        "relu": lambda: (a.relu() * Tensor(w)).sum(),
        "softmax": lambda: (a.softmax(axis=-1) * Tensor(w)).sum(),
        "log_softmax": lambda: (a.log_softmax(axis=-1) * Tensor(w)).sum(),
        "reshape_transpose": lambda: (
            a.reshape(4, 3).transpose() * Tensor(w)
        ).tanh().sum(),
        "broadcast": lambda: (
            a[0].reshape(1, 4).broadcast_to((3, 4)) * Tensor(w)
        ).tanh().sum(),
        "getitem": lambda: (a[1:, :2]).tanh().sum(),
        "concat": lambda: (concat([a, b], axis=1)).tanh().sum(),
        "matmul": lambda: (a @ m).tanh().sum(),
        "sum_axis": lambda: a.sum(axis=0).tanh().sum(),
        "mean": lambda: a.mean(axis=1).tanh().sum(),
    }
    for name, make_loss in ops.items():
        _check_grad(make_loss, [a, b, m])

    table = p(7, 4)
    ids = rng.integers(0, 7, size=(2, 3))
    _check_grad(lambda: (embedding(table, ids).tanh() ).sum(), [table])

    logits = p(2, 3, 7)
    targets = rng.integers(0, 7, size=(2, 3))
    mask = np.ones((2, 3))
    mask[1, 2] = 0.0
    _check_grad(lambda: cross_entropy(logits, targets, mask), [logits])

    x, g, bb = p(2, 5), p(5), p(5)
    w_ln = Tensor(rng.standard_normal((2, 5)))
    _check_grad(lambda: (layer_norm(x, g, bb) * w_ln).sum(), [x, g, bb])

    # full models at tiny dimensions, float64
    from test_models import tiny_generator, tiny_inputs

    gen = tiny_generator()
    mrng = np.random.default_rng(6)
    features, feat_lengths, z, tokens = tiny_inputs(mrng, t=4)
    mtargets = mrng.integers(0, 11, size=(2, 4))

    def gen_loss():
        return cross_entropy(gen.forward(features, feat_lengths, z, tokens), mtargets)

    _check_grad(gen_loss, gen.store.tensors(), rtol=1e-3)

    d = Discriminator(DiscriminatorConfig(vocab_size=11, embed_dim=4, hidden_dim=6),
                      np.random.default_rng(0), dtype=np.float64)
    d_tokens = np.array([[1, 4, 7, 2], [1, 3, 2, 0]], dtype=np.int64)
    d_lengths = np.array([4, 3])

    def d_loss():
        out = d.forward(d_tokens, d_lengths)
        return (out * out).sum()

    _check_grad(d_loss, d.store.tensors(), rtol=1e-3)

    se = SemanticEvaluator(
        SemanticEvaluatorConfig(vocab_size=11, feat_dim=5, embed_dim=4,
                                hidden_dim=6, out_dim=8),
        np.random.default_rng(0), dtype=np.float64,
    )
    s_feats = mrng.standard_normal((2, 4, 5))
    s_tokens = mrng.integers(1, 11, size=(2, 4))

    def se_loss():
        audio = se.embed_audio(s_feats, np.array([4, 3]))
        return (audio * se.embed_caption(s_tokens, np.array([4, 2]))).sum()

    _check_grad(se_loss, se.store.tensors(), rtol=1e-3)

    elapsed = time.monotonic() - start
    _finish(capsys, "AC1 gradient correctness", elapsed < 60.0,
            f"all ops and 3 full models pass, {elapsed:.1f}s < 60s")


# == 2. metric oracle equivalence =============================================


def test_ac02_metric_oracle_equivalence(capsys):
    rng = np.random.default_rng(2024)
    words = list("abcdefgh")
    max_err = 0.0
    for _ in range(100):
        n_clips = int(rng.integers(2, 6))
        refs_list = [
            [list(rng.choice(words, size=rng.integers(1, 9)))
             for _ in range(int(rng.integers(1, 4)))]
            for _ in range(n_clips)
        ]
        cands = [list(rng.choice(words, size=rng.integers(1, 9))) for _ in range(n_clips)]
        for n in range(1, 5):
            mine = corpus_bleu(cands, refs_list, n=n)
            theirs = oracle_corpus_bleu(cands, refs_list, n)
            max_err = max(max_err, abs(mine - theirs))
        df_mine = build_doc_freq(refs_list)
        df_oracle, corpus_size = oracle_doc_freq(refs_list)
        for cand, refs in zip(cands, refs_list):
            mine = cider(cand, refs, df_mine)
            theirs = oracle_cider(cand, refs, df_oracle, corpus_size)
            max_err = max(max_err, abs(mine - theirs))
    assert max_err <= 1e-9

    # frozen hand-computed cases
    cand = ["the"] * 7
    refs = [["the", "cat", "is", "on", "the", "mat"]]
    expected = (2 / 7) * min(1.0, math.exp(1 - 6 / 7))
    assert corpus_bleu([cand], [refs], n=1) == pytest.approx(expected, abs=1e-15)

    refs_a = [["a", "dog", "barks"], ["the", "dog", "barks"]]
    refs_b = [["a", "cat", "sleeps"], ["the", "cat", "sleeps"]]
    df = build_doc_freq([refs_a, refs_b])
    assert cider(["a", "dog", "barks"], refs_a, df) == pytest.approx(5.625, abs=1e-12)
    assert cider(["the", "dog", "sleeps"], refs_a, df) == pytest.approx(1.875, abs=1e-12)

    _finish(capsys, "AC2 metric oracle equivalence", True,
            f"100 corpora, max |diff| = {max_err:.2e} <= 1e-9; hand cases exact")


# == 3. metric identities =====================================================


def test_ac03_metric_identities(capsys):
    refs_list = [
        [["rain", "falls", "softly", "in", "the", "night"],
         ["heavy", "rain", "falls", "on", "the", "roof"]],
        [["a", "dog", "barks", "in", "the", "yard"],
         ["the", "dog", "barks", "at", "the", "gate"]],
    ]
    self_cands = [refs[0] for refs in refs_list]
    assert corpus_bleu(self_cands, refs_list, n=4) == 1.0

    same = [["rain", "falls", "softly", "tonight"]] * 5
    assert mbleu(same) == 1.0

    disjoint = [["a", "b", "c", "d"], ["e", "f", "g", "h"], ["i", "j", "k", "l"]]
    assert mbleu(disjoint) == 0.0

    assert div_n([["a", "a"], ["a", "a"]], 1) == 0.25

    df = build_doc_freq([
        [["rain", "falls", "softly", "today"]],
        [["dogs", "bark", "loudly", "outside"]],
    ])
    cand = ["rain", "falls", "softly", "today"]
    assert df.idf(("rain",), 1) > 0.0
    assert cider(cand, [cand], df) == pytest.approx(10.0, abs=1e-9)

    _finish(capsys, "AC3 metric identities", True,
            "self-BLEU=1, same mBLEU=1, disjoint mBLEU=0, div-1=0.25, CIDEr=10")


# == 4. reward identity =======================================================


def test_ac04_reward_identity(capsys):
    rng = np.random.default_rng(4)
    for _ in range(1000):
        lam = float(rng.random())
        n, s, c = float(rng.random()), float(rng.random() * 2 - 1), float(rng.random() * 10)
        r = RewardBreakdown(n=n, s=s, c=c, lam=lam)
        assert r.total == lam * (n + s) + (1.0 - lam) * c  # machine precision

    train, _ = generate_synthetic_corpus(4, n_clips=12, n_classes=2, feat_dim=FEAT_DIM)
    vocab = build_vocabulary(train)
    gen = _smoke_generator(vocab, 4)
    d = _smoke_discriminator(vocab, 4)
    se = _smoke_semantic(vocab, 4)
    df = build_doc_freq([r.references for r in train.records])

    # every reward computed during a mixed-lambda pass satisfies the identity
    config = _smoke_train_config(4, lam=0.5, adversarial_epochs=1)
    oracles = RewardOracles(d, se, df, vocab)
    z_rng = substream(4, "z")
    sample_rng = substream(4, "sample")
    checked = 0
    for batch in epoch_batches(train, vocab, 4, substream(4, "data"), t_max=T_MAX):
        z = z_rng.standard_normal((len(batch.clip_ids), gen.config.noise_dim))
        seqs, _ = rollout(gen, batch.features, batch.feature_lengths, z, "sample",
                          rng=sample_rng, max_length=T_MAX)
        by_id = {r.clip_id: r for r in train.records}
        for clip_id, seq in zip(batch.clip_ids, seqs):
            [r] = oracles.score([seq], [by_id[clip_id]], config)
            assert r.total == config.lam * (r.n + r.s) + (1 - config.lam) * r.c
            checked += 1
    assert oracles.d_queries == checked and oracles.se_queries == checked

    # lam = 0 never queries the discriminator or the semantic evaluator
    config0 = _smoke_train_config(4, lam=0.0, adversarial_epochs=1)
    oracles0 = RewardOracles(d, se, df, vocab)
    log, oracles0_out = adversarial_train(
        gen, d, se, train, None, vocab, config0
    )
    assert oracles0_out.d_queries == 0 and oracles0_out.se_queries == 0
    assert oracles0.d_queries == 0 and oracles0.se_queries == 0

    _finish(capsys, "AC4 reward identity (Eq. 3)", True,
            f"{checked} live rewards exact; lam=0 ran with 0 judge queries")


# == 5. SCST convergence ======================================================


def test_ac05_scst_bandit(capsys):
    rewards = np.array([1.0, 0.2, 0.0])

    def run(seed, steps=500, lr=0.05):
        rng = np.random.default_rng(seed)
        logits = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([logits], lr=lr)
        for _ in range(steps):
            probs = np.exp(logits.data - logits.data.max())
            probs /= probs.sum()
            w = int(rng.choice(3, p=probs))
            greedy = int(np.argmax(logits.data))
            adv = rewards[w] - rewards[greedy]
            loss = -(logits.log_softmax()[w] * adv)
            opt.zero_grad()
            loss.backward()
            opt.step()
        probs = np.exp(logits.data - logits.data.max())
        return probs / probs.sum()

    finals = [run(seed)[0] for seed in range(10)]
    converged = sum(p > 0.9 for p in finals)

    # zero advantage leaves the parameters untouched, bit for bit
    logits = Tensor(np.array([0.3, -0.1, 0.4]), requires_grad=True)
    before = logits.data.copy()
    opt = Adam([logits], lr=0.1)
    loss = -(logits.log_softmax()[1] * 0.0)
    opt.zero_grad()
    loss.backward()
    opt.step()
    zero_update = np.array_equal(logits.data, before)

    _finish(capsys, "AC5 SCST bandit convergence",
            converged == 10 and zero_update,
            f"{converged}/10 seeds P(best) > 0.9 (min {min(finals):.3f}); "
            f"zero-advantage update exactly zero: {zero_update}")


# == 6. discriminator accuracy ================================================


def test_ac06_discriminator_accuracy(capsys):
    train, evaluation = generate_synthetic_corpus(11, n_clips=80, n_classes=4,
                                                  feat_dim=FEAT_DIM)
    vocab = build_vocabulary(train)
    gen = _smoke_generator(vocab, 11)  # untrained
    d = _smoke_discriminator(vocab, 11)
    config = _smoke_train_config(11, d_pretrain_epochs=5, learning_rate=5e-3)
    d_pretrain(d, gen, train, vocab, config)

    real = [vocab.encode(ref[:T_MAX]) for r in evaluation.records for ref in r.references]
    rng = substream(11, "heldout-fakes")
    fakes = []
    for record in evaluation.records:
        z = rng.standard_normal((5, gen.config.noise_dim))
        feats = np.repeat(record.features[None], 5, axis=0)
        lens = np.full(5, record.features.shape[0])
        seqs, _ = rollout(gen, feats, lens, z, "sample", rng=rng, max_length=T_MAX)
        fakes.extend(seqs)
    acc = discriminator_accuracy(d, real, fakes)
    _finish(capsys, "AC6 discriminator accuracy", acc > 0.95,
            f"held-out accuracy {acc:.3f} > 0.95 after 5 epochs")


# == 7. semantic evaluator gap ================================================


def test_ac07_semantic_gap(capsys):
    train, evaluation = generate_synthetic_corpus(12, n_clips=60, n_classes=4,
                                                  feat_dim=FEAT_DIM)
    vocab = build_vocabulary(train)
    se = _smoke_semantic(vocab, 12)
    config = _smoke_train_config(12, se_pretrain_epochs=25, learning_rate=2e-3)
    semantic_pretrain(se, train, vocab, config, T_MAX)
    gap = semantic_gap(se, evaluation, vocab, t_max=T_MAX)
    _finish(capsys, "AC7 semantic evaluator gap", gap > 0.2,
            f"held-out paired-unpaired gap {gap:.3f} > 0.2")


# == 8. end-to-end smoke via the CLI ==========================================


def test_ac08_end_to_end_smoke(capsys, tmp_path):
    start = time.monotonic()
    data = tmp_path / "data"
    run_dir = tmp_path / "run"
    config = tmp_path / "smoke.yaml"
    config.write_text(yaml.safe_dump({
        "d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 32, "noise_dim": 8,
        "dropout": 0.0, "d_embed_dim": 16, "d_hidden_dim": 32,
        "se_embed_dim": 16, "se_hidden_dim": 32, "se_out_dim": 32,
        "t_max": T_MAX, "batch_size": 8, "learning_rate": 2e-3, "lam": 1.0,
    }))

    def cli(argv):
        code = cli_main(argv)
        assert code == 0, f"command failed: {argv}"

    cli(["prepare-data", "--out", str(data), "--synthetic", "--seed", "8",
         "--clips", "60", "--classes", "4", "--feat-dim", str(FEAT_DIM)])
    common = ["--data", str(data), "--run", str(run_dir), "--config", str(config)]
    cli(["pretrain", *common, "--epochs", "5"])
    cli(["pretrain-d", *common, "--epochs", "2"])
    cli(["pretrain-se", *common, "--epochs", "5"])
    cli(["train-gan", *common, "--epochs", "5", "--lambda", "1.0"])
    captions = tmp_path / "captions.jsonl"
    cli(["generate", "--data", str(data), "--run", str(run_dir),
         "--checkpoint", str(run_dir / "gan" / "lambda_1" / "generator_adv_final.ckpt"),
         "--mode", "gan", "--n", "5", "--beam-size", "3", "--seed", "8",
         "--out", str(captions)])
    report_path = tmp_path / "report.json"
    cli(["evaluate", "--captions", str(captions), "--data", str(data),
         "--out-json", str(report_path)])

    report = json.loads(report_path.read_text())
    numeric = {k: v for k, v in report.items() if isinstance(v, (int, float))}
    no_nans = all(math.isfinite(v) for v in numeric.values())
    elapsed = time.monotonic() - start
    _finish(capsys, "AC8 end-to-end smoke", no_nans and elapsed < 900.0,
            f"{elapsed:.0f}s < 900s, full report, no NaNs "
            f"(CIDEr {report['cider']:.2f}, mBLEU_4 {report['mbleu_4']:.3f})")


# == 9. directional diversity trend ===========================================

_TREND_CACHE = {}


def _trend_pipeline(seed):
    if seed in _TREND_CACHE:
        return _TREND_CACHE[seed]
    train, evaluation = generate_synthetic_corpus(seed, n_clips=60, n_classes=4,
                                                  feat_dim=FEAT_DIM)
    vocab = build_vocabulary(train)
    gen = _smoke_generator(vocab, seed)
    config = _smoke_train_config(seed, lam=1.0)
    mle_pretrain(gen, train, None, vocab, config)
    mle_caps = _decode_sets(gen, evaluation, vocab, "mle", seed, n=5, beam=5)
    d = _smoke_discriminator(vocab, seed)
    d_pretrain(d, gen, train, vocab, config)
    se = _smoke_semantic(vocab, seed)
    semantic_pretrain(se, train, vocab, config, T_MAX)
    adversarial_train(gen, d, se, train, None, vocab, config)
    gan_caps = _decode_sets(gen, evaluation, vocab, "gan", seed, n=5, beam=3)
    refs = {r.clip_id: r.references for r in evaluation.records}
    result = (evaluate_captions(mle_caps, refs), evaluate_captions(gan_caps, refs))
    _TREND_CACHE[seed] = result
    return result


def test_ac09_diversity_trend(capsys):
    wins = 0
    details = []
    for seed in range(5):
        mle, gan = _trend_pipeline(seed)
        ok = (
            gan.mbleu_4 < mle.mbleu_4
            and gan.div_1 > mle.div_1
            and gan.div_2 > mle.div_2
        )
        wins += ok
        details.append(
            f"seed {seed}: mBLEU {gan.mbleu_4:.3f}{'<' if gan.mbleu_4 < mle.mbleu_4 else '>='}{mle.mbleu_4:.3f} "
            f"div1 {gan.div_1:.3f} vs {mle.div_1:.3f} -> {'ok' if ok else 'miss'}"
        )
    _finish(capsys, "AC9 diversity trend", wins >= 4,
            f"{wins}/5 seeds with GAN more diverse than MLE 5-beam; " + "; ".join(details))


# == 10. determinism ==========================================================


def test_ac10_determinism(capsys, tmp_path):
    data = tmp_path / "data"
    config = tmp_path / "tiny.yaml"
    config.write_text(yaml.safe_dump({
        "d_model": 8, "n_layers": 1, "n_heads": 2, "d_ff": 12, "noise_dim": 4,
        "dropout": 0.0, "t_max": 12, "batch_size": 4, "learning_rate": 1e-3,
    }))
    assert cli_main(["prepare-data", "--out", str(data), "--synthetic", "--seed", "3",
                     "--clips", "12", "--classes", "2", "--feat-dim", "5"]) == 0

    artifacts = []
    for tag in ("run_a", "run_b"):
        run_dir = tmp_path / tag
        captions = run_dir / "captions.jsonl"
        report = run_dir / "report.json"
        assert cli_main(["pretrain", "--data", str(data), "--run", str(run_dir),
                         "--config", str(config), "--epochs", "2", "--seed", "3"]) == 0
        assert cli_main(["generate", "--data", str(data), "--run", str(run_dir),
                         "--mode", "gan", "--n", "3", "--beam-size", "2",
                         "--seed", "3", "--out", str(captions)]) == 0
        assert cli_main(["evaluate", "--captions", str(captions), "--data", str(data),
                         "--out-json", str(report)]) == 0
        artifacts.append((
            (run_dir / "generator_mle_final.ckpt").read_bytes(),
            captions.read_bytes(),
            report.read_bytes(),
        ))
    same = artifacts[0] == artifacts[1]
    _finish(capsys, "AC10 determinism", same,
            "checkpoints, captions, and reports bit-identical across two runs")


# == 11. format round-trips ===================================================


def test_ac11_format_round_trips(capsys, tmp_path):
    rng = np.random.default_rng(0)

    feats = rng.standard_normal((6, 4)).astype(np.float32)
    f1, f2 = tmp_path / "a.feat", tmp_path / "b.feat"
    write_features(f1, feats)
    write_features(f2, read_features(f1))
    features_ok = f1.read_bytes() == f2.read_bytes()

    from test_models import tiny_generator

    gen = tiny_generator(dtype=np.float32)
    c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(c1, gen, {"epoch": 1, "seed": 0})
    arrays, meta = load_checkpoint(c1)
    fresh = tiny_generator(dtype=np.float32, seed=9)
    restore_model(fresh, arrays)
    save_checkpoint(c2, fresh, meta)
    checkpoint_ok = c1.read_bytes() == c2.read_bytes()

    train, _ = generate_synthetic_corpus(5, n_clips=10, n_classes=2, feat_dim=4)
    d1, d2 = tmp_path / "data1", tmp_path / "data2"
    m1 = save_dataset(train, d1, "train.json")
    reloaded = load_dataset(m1, "train")
    m2 = save_dataset(reloaded, d2, "train.json")
    manifest_ok = m1.read_bytes() == m2.read_bytes()
    feature_files_ok = all(
        (d1 / "features" / f"{r.clip_id}.feat").read_bytes()
        == (d2 / "features" / f"{r.clip_id}.feat").read_bytes()
        for r in train.records
    )

    rows = [{"clip_id": "c1", "captions": ["rain falls softly"], "scores": [-0.25]}]
    j1, j2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_captions(j1, rows)
    write_captions(j2, read_captions(j1))
    captions_ok = j1.read_bytes() == j2.read_bytes()

    ok = features_ok and checkpoint_ok and manifest_ok and feature_files_ok and captions_ok
    _finish(capsys, "AC11 format round-trips", ok,
            "features, checkpoints, manifests, captions all byte-identical")
