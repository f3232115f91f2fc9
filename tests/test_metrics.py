import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capgan import metrics
from capgan.metrics import (
    build_doc_freq,
    cider,
    corpus_bleu,
    div_n,
    evaluate_captions,
    mbleu,
    vocab_size,
)

from oracle_metrics import oracle_cider, oracle_corpus_bleu, oracle_doc_freq, oracle_evaluate

WORDS = ["a", "the", "dog", "cat", "rain", "wind", "falls", "blows", "softly", "loud"]


def random_tiny_corpus(rng, max_clips=5, max_len=6):
    n_clips = rng.integers(1, max_clips + 1)
    corpus = []
    for _ in range(n_clips):
        refs = [
            [WORDS[rng.integers(len(WORDS))] for _ in range(rng.integers(1, max_len + 1))]
            for _ in range(rng.integers(1, 4))
        ]
        cand = [WORDS[rng.integers(len(WORDS))] for _ in range(rng.integers(1, max_len + 1))]
        corpus.append((cand, refs))
    return corpus


class TestBleu:
    def test_identity(self):
        ref = ["rain", "falls", "softly", "in", "the", "night"]
        assert corpus_bleu([ref], [[list(ref)]], n=4) == pytest.approx(1.0)

    def test_disjoint(self):
        for n in range(1, 5):
            assert corpus_bleu([["x", "y", "z", "w"]], [[["a", "b", "c", "d"]]], n=n) == 0.0

    def test_clipping_hand_case(self):
        # clipped unigram precision: "the" appears twice in the reference
        cand = ["the"] * 7
        refs = [["the", "cat", "is", "on", "the", "mat"]]
        assert corpus_bleu([cand], [refs], n=1) == pytest.approx(2 / 7 * min(1, np.e ** (1 - 6 / 7)))
        # the candidate is longer than its reference, so the brevity
        # penalty is 1 and the score is the clipped precision alone
        assert corpus_bleu([cand], [refs], n=1) == 2 / 7

    def test_empty_candidate_set(self):
        with pytest.raises(ValueError):
            corpus_bleu([], [])

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            corpus = random_tiny_corpus(rng)
            cands = [c for c, _ in corpus]
            refs = [r for _, r in corpus]
            for n in range(1, 5):
                mine = corpus_bleu(cands, refs, n=n)
                oracle = oracle_corpus_bleu(cands, refs, n)
                assert mine == pytest.approx(oracle, abs=1e-9)


class TestDocFreq:
    def test_single_clip(self):
        table = build_doc_freq([[["a", "dog"]]])
        assert table.df[1][("a", "dog")] == 1
        assert table.corpus_size == 1

    def test_counts_clips_not_references(self):
        refs = [
            [["a", "dog"], ["a", "dog"]],  # twice within one clip counts once
            [["a", "dog"]],
            [["a", "cat"]],
            [["the", "sun"]],
            [["a", "dog"]],
        ]
        table = build_doc_freq(refs)
        assert table.df[1][("a", "dog")] == 3

    def test_df_bounded_by_corpus_size(self):
        rng = np.random.default_rng(1)
        corpus = random_tiny_corpus(rng, max_clips=5)
        table = build_doc_freq([r for _, r in corpus])
        for per_order in table.df:
            for count in per_order.values():
                assert 1 <= count <= table.corpus_size


class TestCider:
    def test_identity_is_ten(self):
        # 2 clips so idf of clip-specific grams is positive at every order
        refs_a = [["a", "dog", "barks", "at", "night"]]
        refs_b = [["the", "cat", "sleeps", "all", "day"]]
        table = build_doc_freq([refs_a, refs_b])
        assert cider(refs_a[0], refs_a, table) == pytest.approx(10.0)

    def test_disjoint_is_zero(self):
        refs_a = [["a", "dog", "barks"]]
        refs_b = [["the", "cat", "sleeps"]]
        table = build_doc_freq([refs_a, refs_b])
        assert cider(["wind", "blows", "hard"], refs_a, table) == 0.0

    def test_two_clip_hand_case(self):
        refs_a = [["a", "dog", "barks"], ["the", "dog", "barks"]]
        refs_b = [["a", "cat", "sleeps"], ["the", "cat", "sleeps"]]
        table = build_doc_freq([refs_a, refs_b])
        # hand-computed: order sims (1, 0.75, 0.5, 0) -> 10 * 2.25/4
        assert cider(["a", "dog", "barks"], refs_a, table) == pytest.approx(5.625, abs=1e-9)
        # hand-computed: order sims (0.5, 0.25, 0, 0)
        assert cider(["the", "dog", "sleeps"], refs_a, table) == pytest.approx(1.875, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            corpus = random_tiny_corpus(rng)
            table = build_doc_freq([r for _, r in corpus])
            for cand, refs in corpus:
                assert 0.0 <= cider(cand, refs, table) <= 10.0

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(120):
            corpus = random_tiny_corpus(rng)
            refs_list = [r for _, r in corpus]
            table = build_doc_freq(refs_list)
            odf, osize = oracle_doc_freq(refs_list)
            for cand, refs in corpus:
                mine = cider(cand, refs, table)
                oracle = oracle_cider(cand, refs, odf, osize)
                assert mine == pytest.approx(oracle, abs=1e-9)


class TestDiversity:
    def test_vocab_size(self):
        assert vocab_size([["a", "b"], ["a", "c"]]) == 3

    def test_vocab_size_monotone(self):
        base = [["a", "b"]]
        assert vocab_size(base + [["c", "d"]]) >= vocab_size(base)

    def test_mbleu_identical(self):
        caption = ["rain", "falls", "softly", "on", "the", "roof"]
        assert mbleu([list(caption) for _ in range(5)]) == pytest.approx(1.0)

    def test_mbleu_disjoint(self):
        captions = [[f"w{i}{j}" for j in range(6)] for i in range(5)]
        assert mbleu(captions) == 0.0

    def test_mbleu_needs_two(self):
        with pytest.raises(ValueError):
            mbleu([["a"]])

    def test_mbleu_permutation_invariant(self):
        captions = [
            ["rain", "falls", "softly", "here"],
            ["rain", "falls", "loudly", "here"],
            ["wind", "blows", "softly", "here"],
        ]
        a = mbleu(captions, n=1)
        b = mbleu(captions[::-1], n=1)
        assert a == pytest.approx(b)

    def test_div1_hand_case(self):
        assert div_n([["a", "a"], ["a", "a"]], 1) == pytest.approx(0.25)

    def test_div1_all_distinct(self):
        assert div_n([["a", "b"], ["c", "d"]], 1) == 1.0

    def test_div2_single_word(self):
        assert div_n([["a"]], 2) == 0.0


class TestReport:
    def test_report_fields_and_ranges(self):
        generated = {
            "c1": [["a", "dog", "barks"], ["the", "dog", "barks"]],
            "c2": [["the", "cat", "sleeps"], ["a", "cat", "rests"]],
        }
        references = {
            "c1": [["a", "dog", "barks"], ["a", "dog", "howls"]],
            "c2": [["the", "cat", "sleeps"], ["a", "cat", "naps"]],
        }
        report = evaluate_captions(generated, references)
        d = report.to_dict()
        assert d["spider"] is None
        assert 0 <= d["bleu_4"] <= 1 and 0 <= d["mbleu_4"] <= 1
        assert 0 <= d["cider"] <= 10
        assert d["vocab_size"] == vocab_size([c for v in generated.values() for c in v])
        table = report.to_table()
        assert table.splitlines()[0].split() == [
            "BLEU_4", "CIDEr", "SPIDEr", "vocab", "size", "mBLEU_4", "div-1", "div-2",
        ]

    def test_json_keys(self):
        report = evaluate_captions({"c1": [["a", "dog"]]}, {"c1": [["a", "dog"]]})
        assert sorted(json.loads(report.to_json())) == [
            "bleu_1", "bleu_2", "bleu_3", "bleu_4", "bleu_4_all", "cider", "cider_all",
            "div_1", "div_2", "mbleu_4", "n_clips", "smoothing", "spider", "vocab_size",
        ]

    def test_clip_reorder_invariant(self):
        rng = np.random.default_rng(5)
        corpus = random_tiny_corpus(rng, max_clips=5)
        generated = {f"c{i}": [cand, cand] for i, (cand, _) in enumerate(corpus)}
        references = {f"c{i}": refs for i, (_, refs) in enumerate(corpus)}
        r1 = evaluate_captions(generated, references)
        r2 = evaluate_captions(
            dict(reversed(generated.items())), dict(reversed(references.items()))
        )
        assert r1.to_dict() == r2.to_dict()

    def test_unknown_clip_id(self):
        with pytest.raises(ValueError, match="cX"):
            evaluate_captions({"cX": [["a"]]}, {"c1": [["a"]]})

    def test_per_clip_csv(self, tmp_path):
        generated = {"c1": [["a", "dog"], ["a", "cat"]]}
        references = {"c1": [["a", "dog"]]}
        report = evaluate_captions(generated, references)
        path = tmp_path / "per_clip.csv"
        report.write_per_clip_csv(path)
        assert path.read_text().splitlines()[0].startswith("clip_id")



# drawn corpora: captions of 1-7 words, so many are shorter than 4; some
# drawn only from words no reference uses; clips of one caption; repeats
REF_WORDS = ["a", "the", "dog", "rain", "falls", "softly"]
UNSEEN_WORDS = ["x", "y", "z"]


def _words(pool):
    return st.lists(st.sampled_from(pool), min_size=1, max_size=7)


@st.composite
def corpora(draw):
    generated, references = {}, {}
    for i in range(draw(st.integers(1, 4))):
        clip = f"c{i}"
        references[clip] = draw(st.lists(_words(REF_WORDS), min_size=1, max_size=3))
        captions = draw(st.lists(st.one_of(_words(REF_WORDS), _words(UNSEEN_WORDS)),
                                 min_size=1, max_size=4))
        if draw(st.booleans()):
            captions.append(list(draw(st.sampled_from(captions))))
        generated[clip] = captions
    return generated, references


def composed_report(generated, references):
    """The report's fields and per-clip rows from the public metric
    functions, one call per score."""
    clip_ids = sorted(generated)
    refs = [references[c] for c in clip_ids]
    top1 = [generated[c][0] for c in clip_ids]
    every = [caption for c in clip_ids for caption in generated[c]]
    every_refs = [references[c] for c in clip_ids for _ in generated[c]]
    df = build_doc_freq(refs)
    ciders = {c: [cider(caption, references[c], df) for caption in generated[c]]
              for c in clip_ids}
    rows = [
        (c, ciders[c][0], mbleu(generated[c]) if len(generated[c]) > 1 else 1.0,
         div_n(generated[c], 1), div_n(generated[c], 2))
        for c in clip_ids
    ]
    fields = {f"bleu_{n}": corpus_bleu(top1, refs, n=n) for n in range(1, 5)}
    fields.update(
        bleu_4_all=corpus_bleu(every, every_refs, n=4),
        cider=sum(row[1] for row in rows) / len(rows),
        cider_all=sum(s for c in clip_ids for s in ciders[c]) / len(every),
        vocab_size=vocab_size(every),
        mbleu_4=sum(row[2] for row in rows) / len(rows),
        div_1=sum(row[3] for row in rows) / len(rows),
        div_2=sum(row[4] for row in rows) / len(rows),
        n_clips=len(clip_ids),
    )
    return fields, rows


def test_evaluate_counts_each_caption_and_reference_once(monkeypatch):
    calls = []
    count = metrics.ngram_counts

    def spy(seq, n):
        calls.append((tuple(seq), n))
        return count(seq, n)

    monkeypatch.setattr(metrics, "ngram_counts", spy)
    generated = {"c0": [["a", "dog"], ["the", "cat", "falls"]], "c1": [["rain", "falls"]]}
    references = {"c0": [["a", "dog", "barks"], ["the", "dog"]],
                  "c1": [["rain", "falls", "softly"]]}
    report = evaluate_captions(generated, references)
    # orders 1-4 of 3 captions and 3 references, each counted once
    assert len(calls) == len(set(calls)) == 4 * (3 + 3)
    assert report.per_clip[1][1] == cider(["rain", "falls"], references["c1"],
                                         build_doc_freq(list(references.values())))


@settings(max_examples=150, deadline=None)
@given(corpora())
@example((
    {"c0": [["dog"]],
     "c1": [["x", "y", "z", "x"], ["x", "y", "z", "x"], ["rain", "falls"]]},
    {"c0": [["a", "dog", "barks", "loud"]],
     "c1": [["rain", "falls", "softly", "now"], ["the", "rain"]]},
))
def test_evaluate_equals_oracle_and_public_functions(corpus):
    generated, references = corpus
    report = evaluate_captions(generated, references)
    got = report.to_dict()
    fields, rows = oracle_evaluate(generated, references)
    for key, value in fields.items():
        if isinstance(value, int):
            assert got[key] == value, key
        else:
            assert got[key] == pytest.approx(value, abs=1e-9), key
    assert [row[0] for row in report.per_clip] == [row[0] for row in rows]
    for mine, oracle in zip(report.per_clip, rows):
        assert mine[1:] == pytest.approx(oracle[1:], abs=1e-9)
    # the one-pass report scores exactly as the public functions do
    fields, rows = composed_report(generated, references)
    assert {key: got[key] for key in fields} == fields
    assert report.per_clip == rows
