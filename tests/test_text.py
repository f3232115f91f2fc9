import pytest
from hypothesis import given
from hypothesis import strategies as st

from capgan.text import EOS, SOS, UNK, EmptyCaptionError, Vocabulary, normalize_and_tokenize

words = st.lists(st.text("abcdefgh", min_size=1, max_size=6), min_size=1, max_size=10)


class TestTokenize:
    def test_punctuation_removed(self):
        assert normalize_and_tokenize("A man, walking!") == ["a", "man", "walking"]

    def test_identity(self):
        assert normalize_and_tokenize("dog") == ["dog"]

    def test_whitespace_runs_and_dashes(self):
        assert normalize_and_tokenize("  Rain -- falls. ") == ["rain", "falls"]

    def test_apostrophe_kept(self):
        assert normalize_and_tokenize("the man's dog") == ["the", "man's", "dog"]

    def test_empty_result(self):
        with pytest.raises(EmptyCaptionError):
            normalize_and_tokenize("!!! ...")

    @given(words)
    def test_idempotent(self, tokens):
        once = normalize_and_tokenize(" ".join(tokens))
        assert normalize_and_tokenize(" ".join(once)) == once


class TestVocabulary:
    def test_build_counts(self):
        vocab = Vocabulary.build([["a", "b"], ["a"]], min_count=1)
        assert len(vocab) == 6

    def test_min_count_filter(self):
        vocab = Vocabulary.build([["a", "b"], ["a"]], min_count=2)
        assert len(vocab) == 5
        assert "b" not in vocab.token_to_id

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            Vocabulary.build([[], []])

    def test_round_trip(self):
        vocab = Vocabulary.build([["a", "man"]])
        assert vocab.decode(vocab.encode(["a", "man"])) == ["a", "man"]

    def test_unknown_word(self):
        vocab = Vocabulary.build([["a"]])
        assert vocab.encode(["zzz"]) == [SOS, UNK, EOS]

    def test_markers(self):
        vocab = Vocabulary.build([["a"]])
        ids = vocab.encode(["a"])
        assert ids[0] == SOS and ids[-1] == EOS
        assert vocab.decode(ids) == ["a"]

    def test_decode_range_error(self):
        vocab = Vocabulary.build([["a"]])
        with pytest.raises(IndexError):
            vocab.decode([99])

    def test_deterministic_order(self):
        corpus = [["c", "b", "b"], ["a", "a", "c"]]
        v1 = Vocabulary.build(corpus)
        v2 = Vocabulary.build(list(corpus))
        assert v1.id_to_token == v2.id_to_token
        # count desc then lexicographic: a(2), b(2), c(2) -> alphabetical
        assert v1.id_to_token[4:] == ["a", "b", "c"]

    def test_save_load_round_trip(self, tmp_path):
        vocab = Vocabulary.build([["rain", "falls", "rain"]])
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        again = Vocabulary.load(path)
        assert again.id_to_token == vocab.id_to_token
        assert again.token_to_id == vocab.token_to_id
