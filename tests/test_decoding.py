import itertools
import math

import numpy as np
import pytest

from capgan.decoding import (
    DecodeConfig,
    _forbid_markers,
    _log_softmax,
    beam_decode,
    generate_diverse_set,
    greedy_decode,
    read_captions,
    rollout,
    sample_decode,
    write_captions,
)
from capgan.text import EOS, PAD, SOS

from test_models import default_generator, tiny_generator, tiny_inputs


class ToyModel:
    """Deterministic next-token logits keyed on the previous token."""

    class config:
        noise_dim = 2

    def __init__(self, tables: dict, vocab: int = 6):
        self.tables = {k: np.asarray(v, dtype=float) for k, v in tables.items()}
        self.vocab = vocab

    def encode(self, features, feat_lengths, z):
        return None

    def step_logits(self, features, feat_lengths, z, prefix, memory=None, cache=None):
        fallback = np.zeros(self.vocab)
        out = np.zeros((prefix.shape[0], self.vocab))
        for b in range(prefix.shape[0]):
            out[b] = self.tables.get(int(prefix[b, -1]), fallback)
        return out


def toy_inputs(batch=1):
    return np.zeros((batch, 1, 1)), np.ones(batch, dtype=int), np.zeros((batch, 2))


NEG = -1e9
# tokens: 0 pad, 1 sos, 2 eos, 3 'a', 4 'b', 5 'c'
PEAKED = {
    1: [NEG, NEG, NEG, 1.0, 0.2, 0.1],
    3: [NEG, NEG, 0.5, 0.1, 1.2, 0.3],
    4: [NEG, NEG, 2.0, 0.3, 0.1, 0.6],
    5: [NEG, NEG, 1.5, 0.1, 0.2, 0.3],
}


# exactly tied logits everywhere: ranking falls back to (row, token) order
TIED = {
    1: [NEG, NEG, NEG, 0.5, 0.5, 0.5],
    3: [NEG, NEG, 1.0, 1.0, 1.0, 1.0],
    4: [NEG, NEG, 1.0, 1.0, 1.0, 1.0],
    5: [NEG, NEG, 1.0, 1.0, 1.0, 1.0],
}


def reference_greedy(model, features, feat_lengths, z, max_length):
    """Greedy decode that recomputes every step from the whole prefix."""
    prefix = np.full((features.shape[0], 1), SOS, dtype=np.int64)
    alive = np.ones(features.shape[0], dtype=bool)
    for step in range(max_length + 1):
        if not alive.any():
            break
        logits = _forbid_markers(model.step_logits(features, feat_lengths, z, prefix))
        if step == 0:
            logits[..., EOS] = -1e9
        chosen = np.where(alive, _log_softmax(logits).argmax(axis=-1), PAD)
        prefix = np.concatenate([prefix, chosen[:, None]], axis=1)
        alive &= chosen != EOS
    return [[SOS] + [int(t) for t in row[1:] if t != PAD] for row in prefix]


def reference_beam(model, features, feat_lengths, z, beam_size, max_length):
    """Beam search that recomputes every step from the whole prefix and
    ranks an explicit candidate list with Python's stable sort."""
    live = [([SOS], 0.0)]  # (tokens, total log-prob)
    finished = []
    for step in range(max_length + 1):
        if not live:
            break
        prefix = np.array([tokens for tokens, _ in live], dtype=np.int64)
        n_live = len(live)
        logits = _forbid_markers(model.step_logits(
            np.repeat(features, n_live, axis=0), np.repeat(feat_lengths, n_live, axis=0),
            np.repeat(z, n_live, axis=0), prefix,
        ))
        if step == 0:
            logits[..., EOS] = -1e9
        logp = _log_softmax(logits)
        candidates = []
        for i, (tokens, total) in enumerate(live):
            for tok in range(logp.shape[-1]):
                candidates.append((tokens + [tok], total + logp[i, tok]))
        candidates.sort(key=lambda c: c[1] / (len(c[0]) - 1), reverse=True)
        live = []
        for tokens, total in candidates:
            if len(live) >= beam_size:
                break
            if tokens[-1] == EOS:
                finished.append((tokens, total))
            else:
                live.append((tokens, total))
    finished.extend(live)
    finished.sort(key=lambda c: c[1] / (len(c[0]) - 1), reverse=True)
    out, seen = [], set()
    for tokens, total in finished:
        if tuple(tokens) not in seen:
            seen.add(tuple(tokens))
            out.append((tokens, total / (len(tokens) - 1)))
        if len(out) == beam_size:
            break
    return out


def enumerate_paths(model, max_steps):
    """All complete sequences with their raw log-probs, via brute force."""
    def logp(table):
        t = np.asarray(table, dtype=float)
        s = t - t.max()
        return s - np.log(np.exp(s).sum())

    results = []
    alphabet = [2, 3, 4, 5]
    for steps in range(1, max_steps + 2):
        for path in itertools.product(alphabet, repeat=steps):
            if path[0] == 2:
                continue  # minimum caption length of one content word
            if 2 in path[:-1]:
                continue  # eos must terminate
            if path[-1] != 2 and steps != max_steps + 1:
                continue  # incomplete unless at the cap
            if path[-1] == 2 and steps == max_steps + 1:
                continue  # cap slot only for capped sequences
            prev = 1
            total = 0.0
            for tok in path:
                total += logp(model.tables[prev])[tok]
                prev = tok
            results.append(([SOS] + list(path), total))
    return results


class TestGreedy:
    def test_deterministic(self):
        gen = tiny_generator()
        rng = np.random.default_rng(0)
        features, feat_lengths, z, _ = tiny_inputs(rng, batch=1)
        a = greedy_decode(gen, features, feat_lengths, z, max_length=gen.config.t_max)
        b = greedy_decode(gen, features, feat_lengths, z, max_length=gen.config.t_max)
        assert a == b

    def test_minimum_one_content_word(self):
        model = ToyModel({1: [NEG, NEG, 5.0, 0.0, 0.0, 0.0]})
        features, lens, z = toy_inputs()
        seq = greedy_decode(model, features, lens, z, max_length=5)
        # eos is forbidden at step 0, so the best content token (3) comes
        # first; the fallback table then makes eos the argmax
        assert seq == [SOS, 3, EOS]

    def test_matches_exhaustive_argmax(self):
        model = ToyModel(PEAKED)
        features, lens, z = toy_inputs()
        seq = greedy_decode(model, features, lens, z, max_length=3)
        # argmax chain by hand: sos->a(3), a->b(4), b->eos(2)
        assert seq == [SOS, 3, 4, EOS]

    def test_respects_max_length(self):
        model = ToyModel({k: [NEG, NEG, NEG, 1.0, 0.0, 0.0] for k in (1, 3)})
        features, lens, z = toy_inputs()
        seq = greedy_decode(model, features, lens, z, max_length=4)
        assert seq == [SOS, 3, 3, 3, 3, 3]  # cap hit, no eos


class TestSample:
    def test_zero_temperature_limit_equals_greedy(self):
        gen = tiny_generator()
        rng = np.random.default_rng(1)
        features, feat_lengths, z, _ = tiny_inputs(rng, batch=1)
        greedy = greedy_decode(gen, features, feat_lengths, z, max_length=6)
        sampled, _ = sample_decode(
            gen, features, feat_lengths, z, np.random.default_rng(0),
            temperature=1e-6, max_length=6,
        )
        assert sampled == greedy

    def test_monte_carlo_frequencies(self):
        probs = [0.7, 0.2, 0.1]
        table = {1: [NEG, NEG, NEG] + [math.log(p) for p in probs]}
        table[3] = table[4] = table[5] = [NEG, NEG, 5.0, 0.0, 0.0, 0.0]
        model = ToyModel(table)
        n = 100_000
        features, lens, z = toy_inputs(batch=n)
        seqs, _ = rollout(
            model, features, lens, z, "sample",
            rng=np.random.default_rng(2), max_length=2,
        )
        first = np.array([s[1] for s in seqs])
        for tok, p in zip((3, 4, 5), probs):
            assert abs((first == tok).mean() - p) < 0.01

    def test_logprob_bookkeeping(self):
        model = ToyModel(PEAKED)
        features, lens, z = toy_inputs()
        seq, logps = sample_decode(
            model, features, lens, z, np.random.default_rng(3), max_length=4
        )
        prev = SOS
        for tok, lp in zip(seq[1:], logps):
            table = model.tables[prev]
            shifted = table - table.max()
            expected = shifted[tok] - np.log(np.exp(shifted).sum())
            assert lp == pytest.approx(expected, abs=1e-12)
            prev = tok


class TestBeam:
    def test_beam_one_equals_greedy_real_model(self):
        gen = tiny_generator()
        rng = np.random.default_rng(4)
        features, feat_lengths, z, _ = tiny_inputs(rng, batch=1)
        greedy = greedy_decode(gen, features, feat_lengths, z, max_length=6)
        ranked = beam_decode(gen, features, feat_lengths, z, beam_size=1, max_length=6)
        assert ranked[0][0] == greedy

    def test_beam_one_equals_greedy_toy(self):
        model = ToyModel(PEAKED)
        features, lens, z = toy_inputs()
        greedy = greedy_decode(model, features, lens, z, max_length=3)
        ranked = beam_decode(model, features, lens, z, beam_size=1, max_length=3)
        assert ranked[0][0] == greedy

    def test_top_hypothesis_matches_brute_force(self):
        model = ToyModel(PEAKED)
        features, lens, z = toy_inputs()
        ranked = beam_decode(model, features, lens, z, beam_size=16, max_length=3)
        paths = enumerate_paths(model, max_steps=3)
        best = max(paths, key=lambda p: p[1] / (len(p[0]) - 1))
        assert ranked[0][0] == best[0]
        assert ranked[0][1] == pytest.approx(best[1] / (len(best[0]) - 1), abs=1e-9)

    def test_sorted_and_distinct(self):
        model = ToyModel(PEAKED)
        features, lens, z = toy_inputs()
        ranked = beam_decode(model, features, lens, z, beam_size=5, max_length=3)
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)
        assert len({tuple(t) for t, _ in ranked}) == len(ranked)

    def test_logit_shift_invariance(self):
        model = ToyModel(PEAKED)
        shifted = ToyModel({k: np.asarray(v) + 7.5 for k, v in PEAKED.items()})
        features, lens, z = toy_inputs()
        a = beam_decode(model, features, lens, z, beam_size=4, max_length=3)
        b = beam_decode(shifted, features, lens, z, beam_size=4, max_length=3)
        assert [t for t, _ in a] == [t for t, _ in b]


class TestBeamOracle:
    """The vectorised ranking against the candidate-list reference."""

    @pytest.mark.parametrize("beam_size", [1, 4, 16])
    @pytest.mark.parametrize("table", [PEAKED, TIED], ids=["peaked", "tied"])
    def test_toy_tables(self, table, beam_size):
        model = ToyModel(table)
        features, lens, z = toy_inputs()
        got = beam_decode(model, features, lens, z, beam_size=beam_size, max_length=3)
        assert got == reference_beam(model, features, lens, z, beam_size, max_length=3)

    @pytest.mark.parametrize("beam_size", [1, 4, 16])
    def test_tiny_generator(self, beam_size):
        gen = tiny_generator(n_layers=2)
        features, feat_lengths, z, _ = tiny_inputs(np.random.default_rng(20), batch=1)
        got = beam_decode(gen, features, feat_lengths, z, beam_size=beam_size, max_length=6)
        want = reference_beam(gen, features, feat_lengths, z, beam_size, max_length=6)
        assert [t for t, _ in got] == [t for t, _ in want]
        np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=0, atol=1e-12)


class TestFullRecomputeReference:
    """Cached decodes of a seeded default-size generator give the same
    captions as decoding from the whole prefix at every step."""

    @staticmethod
    def generator():
        gen = default_generator(seed=3)
        # raise <eos> so captions end at different steps instead of all
        # running to the length cap
        gen.params["dec.out.b"].data[EOS] += 1.5
        return gen

    def test_greedy_batch_with_dead_rows(self):
        gen = self.generator()
        c = gen.config
        rng = np.random.default_rng(21)
        features = rng.standard_normal((4, 9, c.feat_dim))
        feat_lengths = np.array([9, 7, 9, 5])
        z = rng.standard_normal((4, c.noise_dim))
        got, _ = rollout(gen, features, feat_lengths, z, "greedy", max_length=c.t_max)
        assert got == reference_greedy(gen, features, feat_lengths, z, c.t_max)
        assert len({len(seq) for seq in got}) > 2  # rows die at different steps

    @pytest.mark.parametrize("beam_size", [1, 5])
    def test_beam(self, beam_size):
        gen = self.generator()
        c = gen.config
        rng = np.random.default_rng(22)
        features = rng.standard_normal((1, 9, c.feat_dim))
        feat_lengths = np.array([8])
        z = rng.standard_normal((1, c.noise_dim))
        got = beam_decode(gen, features, feat_lengths, z, beam_size=beam_size, max_length=8)
        want = reference_beam(gen, features, feat_lengths, z, beam_size, max_length=8)
        assert [t for t, _ in got] == [t for t, _ in want]
        np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=0, atol=1e-5)


class TestDiverseSet:
    def test_gan_mode_counts(self):
        gen = tiny_generator()
        rng = np.random.default_rng(5)
        features, feat_lengths, _, _ = tiny_inputs(rng, batch=1)
        config = DecodeConfig(beam_size=2, max_length=6, n_captions=5)
        seqs, scores, flagged = generate_diverse_set(
            gen, features, feat_lengths, config, np.random.default_rng(0), mode="gan"
        )
        assert len(seqs) == 5 and len(scores) == 5
        assert not flagged

    def test_mle_mode_distinct_and_deterministic(self):
        gen = tiny_generator()
        rng = np.random.default_rng(6)
        features, feat_lengths, _, _ = tiny_inputs(rng, batch=1)
        config = DecodeConfig(beam_size=5, max_length=6, n_captions=5)
        s1, _, _ = generate_diverse_set(
            gen, features, feat_lengths, config, np.random.default_rng(0), mode="mle"
        )
        s2, _, _ = generate_diverse_set(
            gen, features, feat_lengths, config, np.random.default_rng(99), mode="mle"
        )
        assert s1 == s2  # zero-noise beam ignores the rng
        assert len({tuple(s) for s in s1}) == len(s1)

    def test_same_seed_identical_gan_set(self):
        gen = tiny_generator()
        rng = np.random.default_rng(7)
        features, feat_lengths, _, _ = tiny_inputs(rng, batch=1)
        config = DecodeConfig(beam_size=2, max_length=6, n_captions=3)
        s1, _, _ = generate_diverse_set(
            gen, features, feat_lengths, config, np.random.default_rng(42), mode="gan"
        )
        s2, _, _ = generate_diverse_set(
            gen, features, feat_lengths, config, np.random.default_rng(42), mode="gan"
        )
        assert s1 == s2


class TestCaptionFiles:
    def test_round_trip_byte_identical(self, tmp_path):
        rows = [
            {"clip_id": "c1", "captions": ["a dog barks", "rain falls"], "scores": [-0.5, -1.25]},
            {"clip_id": "c2", "captions": ["wind blows"], "scores": [-2.0]},
        ]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_captions(p1, rows)
        write_captions(p2, read_captions(p1))
        assert p1.read_bytes() == p2.read_bytes()
