import itertools
import math

import numpy as np
import pytest

from capgan import decoding
from capgan.decoding import (
    DecodeConfig,
    beam_decode,
    generate_diverse_set,
    read_captions,
    rollout,
    write_captions,
)
from capgan.models import DecodeCache
from capgan.tensor import Diverged, log_softmax, no_grad
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


class NoisyToyModel(ToyModel):
    """ToyModel whose logits are scaled by exp(z[0]) of the row's noise
    vector, so noise groups rank differently while exact ties stay tied.
    The noise is its own memory; with a given memory of G rows, the prefix
    rows are G equal, consecutive groups."""

    def encode(self, features, feat_lengths, z):
        return np.asarray(z, dtype=float)

    def step_logits(self, features, feat_lengths, z, prefix, memory=None, cache=None):
        if memory is None:
            memory = self.encode(features, feat_lengths, z)
        scale = np.repeat(np.exp(memory[:, :1]), prefix.shape[0] // len(memory), axis=0)
        return super().step_logits(features, feat_lengths, z, prefix) * scale


def forbid_markers(logits: np.ndarray) -> np.ndarray:
    """The decoders' marker rule, restated: a copy of ``logits`` in which
    <pad> and <sos> can never be emitted."""
    out = logits.copy()
    out[..., PAD] = -1e9
    out[..., SOS] = -1e9
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
        logits = forbid_markers(model.step_logits(features, feat_lengths, z, prefix))
        if step == 0:
            logits[..., EOS] = -1e9
        chosen = np.where(alive, log_softmax(logits).argmax(axis=-1), PAD)
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
        logits = forbid_markers(model.step_logits(
            np.repeat(features, n_live, axis=0), np.repeat(feat_lengths, n_live, axis=0),
            np.repeat(z, n_live, axis=0), prefix,
        ))
        if step == 0:
            logits[..., EOS] = -1e9
        logp = log_softmax(logits)
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
    return best_distinct(finished + live, beam_size)


def single_group_beam(model, features, feat_lengths, z, beam_size, max_length):
    """The one-noise-vector beam search that ran once per noise vector
    before groups were batched: cached steps, one flat stable argsort."""
    live = np.full((1, 1), SOS, dtype=np.int64)
    finished = []
    with no_grad():
        memory = model.encode(features, feat_lengths, z)
        cache = DecodeCache()
        for step in range(max_length + 1):
            logits = forbid_markers(model.step_logits(
                features, feat_lengths, z, live[:, -1:], memory=memory, cache=cache
            ))
            if step == 0:
                logits[..., EOS] = -1e9
                totals = np.zeros(1, dtype=logits.dtype)
            candidates = totals[:, None] + log_softmax(logits)
            order = np.argsort(-(candidates / (step + 1)), axis=None, kind="stable")
            rows, tokens = np.divmod(order, candidates.shape[1])
            ended = tokens == EOS
            taken = np.cumsum(~ended) - ~ended < beam_size
            for i in np.flatnonzero(taken & ended):
                finished.append((live[rows[i]].tolist() + [EOS], candidates.flat[order[i]]))
            keep = taken & ~ended
            cache.reorder(rows[keep])
            live = np.concatenate([live[rows[keep]], tokens[keep, None]], axis=1)
            totals = candidates.flat[order[keep]]
    finished.extend((row.tolist(), total) for row, total in zip(live, totals))
    return best_distinct(finished, beam_size)


def full_length_beam(model, features, feat_lengths, z, beam_size, max_length, n_best):
    """The grouped beam search as it ran before it could stop early: every
    search takes all max_length + 1 steps."""
    groups = len(z)
    live = np.full((groups, 1), SOS, dtype=np.int64)
    width = 1
    finished = [[] for _ in range(groups)]
    with no_grad():
        memory = model.encode(features, feat_lengths, z)
        cache = DecodeCache()
        for step in range(max_length + 1):
            logits = forbid_markers(model.step_logits(
                features, feat_lengths, z, live[:, -1:], memory=memory, cache=cache
            ))
            if step == 0:
                logits[..., EOS] = -1e9
                totals = np.zeros(groups, dtype=logits.dtype)
            vocab = logits.shape[1]
            candidates = (totals[:, None] + log_softmax(logits)).reshape(groups, width * vocab)
            order = np.argsort(-(candidates / (step + 1)), axis=1, kind="stable")
            rows, tokens = np.divmod(order, vocab)
            ended = tokens == EOS
            taken = np.cumsum(~ended, axis=1) - ~ended < beam_size
            for g, i in zip(*np.nonzero(taken & ended)):
                finished[g].append(
                    (live[g * width + rows[g, i]].tolist() + [EOS], candidates[g, order[g, i]])
                )
            keep = taken & ~ended
            parents = (np.arange(groups)[:, None] * width + rows)[keep]
            width = min(beam_size, width * (vocab - 1))
            cache.reorder(parents)
            live = np.concatenate([live[parents], tokens[keep, None]], axis=1)
            totals = np.take_along_axis(candidates, order, axis=1)[keep]
    live = [(row.tolist(), total) for row, total in zip(live, totals)]
    return [
        best_distinct(finished[g] + live[g * width : (g + 1) * width], beam_size)[:n_best]
        for g in range(groups)
    ]


def best_distinct(hypotheses, k):
    """Up to k distinct (tokens, mean log-prob) pairs from (tokens, total
    log-prob) pairs, best first; Python's stable sort breaks ties."""
    hypotheses = sorted(hypotheses, key=lambda c: c[1] / (len(c[0]) - 1), reverse=True)
    out, seen = [], set()
    for tokens, total in hypotheses:
        if tuple(tokens) not in seen:
            seen.add(tuple(tokens))
            out.append((tokens, total / (len(tokens) - 1)))
        if len(out) == k:
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
        [a], _ = rollout(gen, features, feat_lengths, z, "greedy", max_length=gen.config.t_max)
        [b], _ = rollout(gen, features, feat_lengths, z, "greedy", max_length=gen.config.t_max)
        assert a == b

    def test_minimum_one_content_word(self):
        model = ToyModel({1: [NEG, NEG, 5.0, 0.0, 0.0, 0.0]})
        features, lens, z = toy_inputs()
        [seq], _ = rollout(model, features, lens, z, "greedy", max_length=5)
        # eos is forbidden at step 0, so the best content token (3) comes
        # first; the fallback table then makes eos the argmax
        assert seq == [SOS, 3, EOS]

    def test_matches_exhaustive_argmax(self):
        model = ToyModel(PEAKED)
        features, lens, z = toy_inputs()
        [seq], _ = rollout(model, features, lens, z, "greedy", max_length=3)
        # argmax chain by hand: sos->a(3), a->b(4), b->eos(2)
        assert seq == [SOS, 3, 4, EOS]

    def test_respects_max_length(self):
        model = ToyModel({k: [NEG, NEG, NEG, 1.0, 0.0, 0.0] for k in (1, 3)})
        features, lens, z = toy_inputs()
        [seq], _ = rollout(model, features, lens, z, "greedy", max_length=4)
        assert seq == [SOS, 3, 3, 3, 3, 3]  # cap hit, no eos


class TestSample:
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
        [seq], [logps] = rollout(
            model, features, lens, z, "sample", rng=np.random.default_rng(3), max_length=4
        )
        prev = SOS
        for tok, lp in zip(seq[1:], logps):
            table = model.tables[prev]
            shifted = table - table.max()
            expected = shifted[tok] - np.log(np.exp(shifted).sum())
            assert lp == pytest.approx(expected, abs=1e-12)
            prev = tok

    def test_logprobs_of_rows_that_end_at_different_steps(self):
        fed = []

        class FedTokens(ToyModel):
            def step_logits(self, features, feat_lengths, z, prefix, memory=None, cache=None):
                fed.append(prefix[:, -1].copy())
                return super().step_logits(features, feat_lengths, z, prefix)

        model = FedTokens(PEAKED)
        features, lens, z = toy_inputs(batch=16)
        seqs, logps = rollout(model, features, lens, z, "sample",
                              rng=np.random.default_rng(8), max_length=4)
        assert len({len(seq) for seq in seqs}) > 2  # rows die at different steps
        for b, (seq, row_logps) in enumerate(zip(seqs, logps)):
            assert len(row_logps) == len(seq) - 1
            for prev, tok, lp in zip(seq, seq[1:], row_logps):
                assert lp == pytest.approx(log_softmax(model.tables[prev])[tok], abs=1e-12)
            # a finished row is fed <pad> at every later step
            assert [int(step[b]) for step in fed[len(seq):]] == [PAD] * (len(fed) - len(seq))
        assert rollout(model, *toy_inputs(batch=0), "greedy", max_length=4) == ([], [])


class TestBeam:
    def test_beam_one_equals_greedy_real_model(self):
        gen = tiny_generator()
        rng = np.random.default_rng(4)
        features, feat_lengths, z, _ = tiny_inputs(rng, batch=1)
        [greedy], _ = rollout(gen, features, feat_lengths, z, "greedy", max_length=6)
        [ranked] = beam_decode(gen, features, feat_lengths, z, beam_size=1, max_length=6,
                               n_best=1)
        assert ranked[0][0] == greedy

    def test_beam_one_equals_greedy_toy(self):
        model = ToyModel(PEAKED)
        features, lens, z = toy_inputs()
        [greedy], _ = rollout(model, features, lens, z, "greedy", max_length=3)
        [ranked] = beam_decode(model, features, lens, z, beam_size=1, max_length=3, n_best=1)
        assert ranked[0][0] == greedy

    def test_top_hypothesis_matches_brute_force(self):
        model = ToyModel(PEAKED)
        features, lens, z = toy_inputs()
        [ranked] = beam_decode(model, features, lens, z, beam_size=16, max_length=3, n_best=1)
        paths = enumerate_paths(model, max_steps=3)
        best = max(paths, key=lambda p: p[1] / (len(p[0]) - 1))
        assert ranked[0][0] == best[0]
        assert ranked[0][1] == pytest.approx(best[1] / (len(best[0]) - 1), abs=1e-9)

    def test_sorted_and_distinct(self):
        model = ToyModel(PEAKED)
        features, lens, z = toy_inputs()
        [ranked] = beam_decode(model, features, lens, z, beam_size=5, max_length=3, n_best=5)
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)
        assert len({tuple(t) for t, _ in ranked}) == len(ranked)

    @pytest.mark.parametrize("groups", [1, 5])
    @pytest.mark.parametrize("model", ["tied toy", "default generator"])
    def test_every_hypothesis_distinct_and_ranked(self, model, groups):
        # an n_best no group can fill: the search runs to the length cap and
        # returns every finished and length-capped hypothesis
        if model == "tied toy":
            model, features, lens = NoisyToyModel(TIED), *toy_inputs()[:2]
            z = np.linspace(-1.0, 1.0, groups)[:, None] * np.array([[1.0, 0.0]])
        else:
            model = TestFullRecomputeReference.generator(eos_boost=3.0)  # many finish
            rng = np.random.default_rng(29)
            features, lens = rng.standard_normal((1, 9, model.config.feat_dim)), np.array([9])
            z = rng.standard_normal((groups, model.config.noise_dim))
        got = beam_decode(model, features, lens, z, beam_size=4, max_length=5, n_best=100)
        assert len(got) == groups
        for ranked in got:
            assert 4 < len(ranked) < 100
            assert len({tuple(tokens) for tokens, _ in ranked}) == len(ranked)
            means = [mean for _, mean in ranked]
            assert all(a >= b for a, b in zip(means, means[1:]))

    def test_logit_shift_invariance(self):
        model = ToyModel(PEAKED)
        shifted = ToyModel({k: np.asarray(v) + 7.5 for k, v in PEAKED.items()})
        features, lens, z = toy_inputs()
        [a] = beam_decode(model, features, lens, z, beam_size=4, max_length=3, n_best=4)
        [b] = beam_decode(shifted, features, lens, z, beam_size=4, max_length=3, n_best=4)
        assert [t for t, _ in a] == [t for t, _ in b]


class TestBeamOracle:
    """The vectorised ranking against the candidate-list reference."""

    @pytest.mark.parametrize("beam_size", [1, 4, 16])
    @pytest.mark.parametrize("table", [PEAKED, TIED], ids=["peaked", "tied"])
    def test_toy_tables(self, table, beam_size):
        model = ToyModel(table)
        features, lens, z = toy_inputs()
        [got] = beam_decode(model, features, lens, z, beam_size=beam_size, max_length=3,
                            n_best=beam_size)
        assert got == reference_beam(model, features, lens, z, beam_size, max_length=3)

    @pytest.mark.parametrize("beam_size", [1, 4, 16])
    def test_tiny_generator(self, beam_size):
        gen = tiny_generator(n_layers=2)
        features, feat_lengths, z, _ = tiny_inputs(np.random.default_rng(20), batch=1)
        [got] = beam_decode(gen, features, feat_lengths, z, beam_size=beam_size, max_length=6,
                            n_best=beam_size)
        want = reference_beam(gen, features, feat_lengths, z, beam_size, max_length=6)
        assert [t for t, _ in got] == [t for t, _ in want]
        np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=0, atol=1e-12)


class TestFullRecomputeReference:
    """Cached decodes of a seeded default-size generator give the same
    captions as decoding from the whole prefix at every step."""

    @staticmethod
    def generator(eos_boost=1.5):
        gen = default_generator(seed=3)
        # raise <eos> so captions end at different steps instead of all
        # running to the length cap
        gen.params["dec.out.b"].data[EOS] += eos_boost
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
        [got] = beam_decode(gen, features, feat_lengths, z, beam_size=beam_size, max_length=8,
                            n_best=beam_size)
        want = reference_beam(gen, features, feat_lengths, z, beam_size, max_length=8)
        assert [t for t, _ in got] == [t for t, _ in want]
        np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=0, atol=1e-5)


class TestGroupedBeam:
    """G noise groups in one search against each group searched alone."""

    GROUP_Z = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("beam_size", [1, 4, 16])
    @pytest.mark.parametrize("table", [PEAKED, TIED], ids=["peaked", "tied"])
    def test_toy_tables(self, table, beam_size):
        # beam 16 grows the width 1 -> 5 -> 16 over the first steps
        model = NoisyToyModel(table)
        features, lens, _ = toy_inputs()
        got = beam_decode(model, features, lens, self.GROUP_Z, beam_size=beam_size, max_length=3,
                          n_best=beam_size)
        assert len(got) == len(self.GROUP_Z)
        for g, ranked in enumerate(got):
            want = reference_beam(
                model, features, lens, self.GROUP_Z[g : g + 1], beam_size, max_length=3
            )
            assert ranked == want, g
        if table is PEAKED:
            # the scale moves PEAKED's scores, so the groups are not copies;
            # TIED's log-probs are uniform at any scale
            assert got[0] != got[1] != got[2]

    @pytest.mark.parametrize("beam_size", [1, 5])
    def test_generator(self, beam_size):
        gen = TestFullRecomputeReference.generator()
        c = gen.config
        rng = np.random.default_rng(22)
        features = rng.standard_normal((1, 9, c.feat_dim))
        feat_lengths = np.array([8])
        z = rng.standard_normal((3, c.noise_dim))
        got = beam_decode(gen, features, feat_lengths, z, beam_size=beam_size, max_length=8,
                          n_best=beam_size)
        assert len(got) == 3
        for g, ranked in enumerate(got):
            want = reference_beam(gen, features, feat_lengths, z[g : g + 1], beam_size,
                                  max_length=8)
            assert [t for t, _ in ranked] == [t for t, _ in want], g
            np.testing.assert_allclose([s for _, s in ranked], [s for _, s in want],
                                       rtol=0, atol=1e-5)

    @pytest.mark.parametrize("beam_size", [1, 5])
    def test_one_group_equals_single_search(self, beam_size):
        # mle mode's zero-noise search
        gen = TestFullRecomputeReference.generator()
        c = gen.config
        rng = np.random.default_rng(24)
        features = rng.standard_normal((1, 9, c.feat_dim))
        feat_lengths = np.array([9])
        z = np.zeros((1, c.noise_dim))
        [got] = beam_decode(gen, features, feat_lengths, z, beam_size=beam_size,
                            max_length=c.t_max, n_best=beam_size)
        want = single_group_beam(gen, features, feat_lengths, z, beam_size, c.t_max)
        assert got == want  # bit-identical captions and scores
        assert all(type(s) is type(w) for (_, s), (_, w) in zip(got, want))


class StepCounter:
    """Wraps a model and counts its ``step_logits`` calls."""

    def __init__(self, model):
        self.model = model
        self.config = model.config
        self.steps = 0

    def encode(self, *args):
        return self.model.encode(*args)

    def step_logits(self, *args, **kwargs):
        self.steps += 1
        return self.model.step_logits(*args, **kwargs)


# the row through 'c' keeps its first-step total to the length cap, so its
# mean keeps rising and finally beats the early 'a <eos>'
LATE = {
    1: [NEG, NEG, NEG, 1.0, NEG, 0.0],  # 'a' beats 'c' at the first step
    3: [NEG, NEG, 0.0, NEG, NEG, NEG],  # 'a' -> <eos> at log-prob exactly 0
    5: [NEG, NEG, NEG, NEG, NEG, 0.0],  # 'c' -> 'c' at log-prob exactly 0
}


class TestSettledStop:
    """The search that stops once every group is settled against the
    full-length search it replaced: equal tokens and scores."""

    @pytest.mark.parametrize("max_length", [3, 22])
    @pytest.mark.parametrize("n_best", ["1", "beam"])
    @pytest.mark.parametrize("groups", [1, 3])
    @pytest.mark.parametrize("beam_size", [1, 4, 16])
    @pytest.mark.parametrize("table", [PEAKED, TIED], ids=["peaked", "tied"])
    def test_toy_tables(self, table, beam_size, groups, n_best, max_length):
        model = NoisyToyModel(table)
        features, lens, _ = toy_inputs()
        z = TestGroupedBeam.GROUP_Z[:groups]
        n_best = 1 if n_best == "1" else beam_size
        got = beam_decode(model, features, lens, z, beam_size=beam_size,
                          max_length=max_length, n_best=n_best)
        assert got == full_length_beam(model, features, lens, z, beam_size, max_length, n_best)

    @pytest.mark.parametrize("eos_boost", [1.5, 3.0])
    @pytest.mark.parametrize("n_best", ["1", "beam"])
    @pytest.mark.parametrize("mode", ["gan", "mle"])
    def test_generator(self, mode, n_best, eos_boost):
        gen = TestFullRecomputeReference.generator(eos_boost)
        c = gen.config
        rng = np.random.default_rng(26)
        features = rng.standard_normal((1, 9, c.feat_dim))
        feat_lengths = np.array([8])
        # gan mode: one noise group per caption; mle mode: one zero-noise group
        z = rng.standard_normal((3, c.noise_dim)) if mode == "gan" else np.zeros((1, c.noise_dim))
        n_best = 1 if n_best == "1" else 5
        got = beam_decode(gen, features, feat_lengths, z, beam_size=5, max_length=c.t_max,
                          n_best=n_best)
        assert got == full_length_beam(gen, features, feat_lengths, z, 5, c.t_max, n_best)

    def test_late_finisher(self):
        model = ToyModel(LATE)
        features, lens, z = toy_inputs()
        logp = log_softmax(np.asarray(LATE[1]))
        early, late = logp[3] / 2, logp[5] / 23  # means of 'a <eos>' and of 'c' x 23
        # after the second step the early <eos> beats the live 'c c' at its
        # current length, but not at the length the live row can still reach
        assert logp[5] / 2 < early < late
        got = beam_decode(model, features, lens, z, beam_size=2, max_length=22, n_best=1)
        assert got == [[([SOS] + [5] * 23, pytest.approx(late, abs=1e-12))]]
        assert got == full_length_beam(model, features, lens, z, 2, 22, 1)

    @pytest.mark.parametrize("n_best", [1, 4])
    def test_stops_before_the_length_cap(self, n_best):
        model = StepCounter(ToyModel(PEAKED))
        features, lens, z = toy_inputs()
        beam_decode(model, features, lens, z, beam_size=4, max_length=22, n_best=n_best)
        assert model.steps < 23


class TestBoundedRanking:
    """Ranking only the candidates a group's walk can reach, against the
    search that stable-sorts every candidate, on a stub at the synthetic
    corpus's vocabulary size."""

    VOCAB = 106

    @classmethod
    def stub(cls, tied: bool):
        rng = np.random.default_rng(27)
        tables = {}
        for prev in range(cls.VOCAB):
            row = rng.standard_normal(cls.VOCAB)
            # rounded, a row holds a handful of values, so equal candidates
            # straddle every cut
            tables[prev] = np.round(row) if tied else row
            # <eos> first: the walk passes every row's <eos> and reaches the
            # cut at beam_size + width
            tables[prev][EOS] = 4.0
        return NoisyToyModel(tables, vocab=cls.VOCAB)

    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    @pytest.mark.parametrize(("n_best", "groups"), [(1, 5), (5, 1)])
    def test_equals_the_full_sort(self, tied, n_best, groups):
        model = self.stub(tied)
        features, lens, _ = toy_inputs()
        z = np.linspace(-1.0, 1.0, groups)[:, None] * np.array([[1.0, 0.0]])
        beam_size = 5
        # the first step ranks the <sos> row's content candidates (its <eos>
        # is forbidden) with a cut at beam_size + 1: tied keys straddle it,
        # distinct ones do not
        first = forbid_markers(model.tables[SOS])
        first[EOS] = NEG
        keys = np.sort(-log_softmax(first))
        assert (keys[beam_size] == keys[beam_size + 1]) == tied
        got = beam_decode(model, features, lens, z, beam_size=beam_size, max_length=22,
                          n_best=n_best)
        assert got == full_length_beam(model, features, lens, z, beam_size, 22, n_best)

    @pytest.mark.parametrize("reach", [1, 4, 6, 7, 8, 9])
    def test_head_of_a_stable_argsort(self, reach):
        keys = np.array([[5.0, 1.0, 1.0, 3.0, 0.0, 9.0, 9.0, 9.0],
                         [2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0],
                         [np.nan, 4.0, np.nan, 2.0, 1.0, 0.0, -1.0, -2.0]])
        want = np.argsort(keys, axis=1, kind="stable")[:, :reach]
        np.testing.assert_array_equal(decoding._stable_head(keys, reach), want)

    @pytest.mark.parametrize("high", [3, 1000])
    def test_head_of_random_keys(self, high):
        # few distinct values tie at the cut; many leave it clear
        keys = np.random.default_rng(28).integers(0, high, size=(6, 500)).astype(np.float32)
        for reach in (1, 6, 10, 499):
            want = np.argsort(keys, axis=1, kind="stable")[:, :reach]
            np.testing.assert_array_equal(decoding._stable_head(keys, reach), want)


class TestGivenMemory:
    """``rollout(..., memory=m)`` decodes from ``m`` and never encodes."""

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_skips_encode_and_matches_encoding_rollout(self, mode, monkeypatch):
        gen = TestFullRecomputeReference.generator()
        c = gen.config
        rng = np.random.default_rng(23)
        features = rng.standard_normal((4, 9, c.feat_dim))
        feat_lengths = np.array([9, 6, 8, 4])
        z = rng.standard_normal((4, c.noise_dim))
        want = rollout(gen, features, feat_lengths, z, mode,
                       rng=np.random.default_rng(5), max_length=c.t_max)
        memory = gen.encode(features, feat_lengths, z)
        encodes = []
        real = gen.encode
        monkeypatch.setattr(gen, "encode", lambda *a: encodes.append(a) or real(*a))
        got = rollout(gen, features, feat_lengths, z, mode,
                      rng=np.random.default_rng(5), max_length=c.t_max, memory=memory)
        assert encodes == []
        assert got == want  # bit-identical captions and log-probs


class TestDiverseSet:
    def test_gan_mode_counts(self):
        gen = tiny_generator()
        rng = np.random.default_rng(5)
        features, feat_lengths, _, _ = tiny_inputs(rng, batch=1)
        config = DecodeConfig(beam_size=2, n_captions=5)
        seqs, scores, flagged = generate_diverse_set(
            gen, features, feat_lengths, config, np.random.default_rng(0), mode="gan"
        )
        assert len(seqs) == 5 and len(scores) == 5
        assert not flagged

    def test_gan_mode_is_one_grouped_search(self, monkeypatch):
        gen = TestFullRecomputeReference.generator()
        c = gen.config
        rng = np.random.default_rng(25)
        features = rng.standard_normal((1, 9, c.feat_dim))
        feat_lengths = np.array([7])
        config = DecodeConfig(beam_size=5, n_captions=5)
        # reference: one single-noise beam search per caption, noise drawn
        # as n (1, noise_dim) rows from the same seeded stream
        ref_rng = np.random.default_rng(42)
        want = []
        for _ in range(config.n_captions):
            z = ref_rng.standard_normal((1, c.noise_dim))
            [ranked] = beam_decode(gen, features, feat_lengths, z, beam_size=config.beam_size,
                                   max_length=c.t_max, n_best=1)
            want.append(ranked[0])

        beams, encodes = [], []
        real_beam, real_encode = decoding.beam_decode, gen.encode
        monkeypatch.setattr(decoding, "beam_decode",
                            lambda *a, **k: beams.append(a[3].shape) or real_beam(*a, **k))
        monkeypatch.setattr(gen, "encode", lambda *a: encodes.append(a) or real_encode(*a))
        seqs, scores, flagged = generate_diverse_set(
            gen, features, feat_lengths, config, np.random.default_rng(42), mode="gan"
        )
        assert beams == [(config.n_captions, c.noise_dim)]
        assert len(encodes) == 1
        assert not flagged
        assert seqs == [t for t, _ in want]
        np.testing.assert_allclose(scores, [s for _, s in want], rtol=0, atol=1e-5)

    def test_mle_mode_distinct_and_deterministic(self):
        gen = tiny_generator()
        rng = np.random.default_rng(6)
        features, feat_lengths, _, _ = tiny_inputs(rng, batch=1)
        config = DecodeConfig(beam_size=5, n_captions=5)
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
        config = DecodeConfig(beam_size=2, n_captions=3)
        s1, _, _ = generate_diverse_set(
            gen, features, feat_lengths, config, np.random.default_rng(42), mode="gan"
        )
        s2, _, _ = generate_diverse_set(
            gen, features, feat_lengths, config, np.random.default_rng(42), mode="gan"
        )
        assert s1 == s2


class TestNonFiniteLogits:
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("decoder", ["greedy", "sample", "beam"])
    def test_refused(self, decoder, value):
        # finite at the first step; every row's second step holds the value
        tables = {1: [NEG, NEG, NEG, 1.0, 0.5, 0.2]}
        tables.update({k: [NEG, NEG, 0.0, value, 0.0, 0.0] for k in (3, 4, 5)})
        model = ToyModel(tables)
        features, lens, z = toy_inputs()
        with pytest.raises(Diverged, match="non-finite at step 1"):
            if decoder == "beam":
                beam_decode(model, features, lens, z, beam_size=2, max_length=5, n_best=1)
            else:
                rollout(model, features, lens, z, decoder, rng=np.random.default_rng(0),
                        max_length=5)


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

    def test_refuses_a_nan_score(self, tmp_path):
        path = tmp_path / "captions.jsonl"
        rows = [{"clip_id": "c1", "captions": ["a dog barks"], "scores": [-0.5]},
                {"clip_id": "c2", "captions": ["wind blows"], "scores": [float("nan")]}]
        with pytest.raises(ValueError):
            write_captions(path, rows)
        assert not path.exists()
