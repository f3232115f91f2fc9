import json

import numpy as np
import pytest

from capgan.corpus import (
    ClipRecord,
    CorpusError,
    DatasetSplit,
    build_vocabulary,
    epoch_batches,
    generate_synthetic_corpus,
    load_dataset,
    read_features,
    save_dataset,
    write_features,
)
from capgan.seeding import substream
from capgan.training import teacher_forcing


def small_corpus(seed=7, n_clips=20, n_classes=4, feat_dim=8):
    return generate_synthetic_corpus(seed, n_clips, n_classes, feat_dim=feat_dim)


class TestFeatureFiles:
    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((12, 6)).astype(np.float32)
        p1, p2 = tmp_path / "a.feat", tmp_path / "b.feat"
        write_features(p1, feats)
        write_features(p2, read_features(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.feat"
        path.write_bytes(b"NOTAFEAT" + b"\x00" * 16)
        with pytest.raises(CorpusError):
            read_features(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.feat"
        write_features(path, np.ones((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CorpusError):
            read_features(path)

    @pytest.mark.parametrize("size", [8, 12, 15])
    def test_cut_inside_the_header(self, size, tmp_path):
        # the 16-byte header is the magic and two u32: frames, feat_dim
        path = tmp_path / "t.feat"
        write_features(path, np.ones((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(CorpusError, match="t.feat: truncated feature file"):
            read_features(path)


class TestLoader:
    def test_happy_path(self, tmp_path):
        train, _ = small_corpus(n_clips=10)
        split = DatasetSplit("train", train.records[:2])
        manifest = save_dataset(split, tmp_path)
        loaded = load_dataset(manifest)
        assert len(loaded.records) == 2

    def test_round_trip_equal(self, tmp_path):
        train, _ = small_corpus(n_clips=10)
        manifest = save_dataset(train, tmp_path)
        loaded = load_dataset(manifest)
        for a, b in zip(train.records, loaded.records):
            assert a.clip_id == b.clip_id
            assert a.references == b.references
            np.testing.assert_array_equal(a.features, b.features)

    def test_manifest_round_trip_byte_identical(self, tmp_path):
        train, _ = small_corpus(n_clips=10)
        m1 = save_dataset(train, tmp_path / "one")
        m2 = save_dataset(load_dataset(m1), tmp_path / "two")
        assert m1.read_bytes() == m2.read_bytes()

    def test_wrong_reference_count(self, tmp_path):
        train, _ = small_corpus(n_clips=10)
        manifest = save_dataset(DatasetSplit("train", train.records[:1]), tmp_path)
        entries = json.loads(manifest.read_text())
        entries[0]["captions"] = entries[0]["captions"][:4]
        manifest.write_text(json.dumps(entries))
        with pytest.raises(CorpusError, match="clip_0000"):
            load_dataset(manifest)

    @pytest.mark.parametrize(
        ("key", "value", "named"),
        [
            ("captions", ["!!!", "a", "b", "c", "d"], "empty after normalization"),
            ("captions", [7, "a", "b", "c", "d"], "list of strings"),
            ("captions", "abcde", "list of strings"),
            ("feature_file", 7, "feature_file must be a string"),
        ],
        ids=["caption without words", "caption not a string", "captions a string",
             "feature_file not a string"],
    )
    def test_bad_entry_value_names_the_clip(self, key, value, named, tmp_path):
        train, _ = small_corpus(n_clips=10)
        manifest = save_dataset(DatasetSplit("train", train.records[:1]), tmp_path)
        entries = json.loads(manifest.read_text())
        entries[0][key] = value
        manifest.write_text(json.dumps(entries))
        with pytest.raises(CorpusError, match=f"clip_0000.*{named}"):
            load_dataset(manifest)

    def test_clip_id_not_a_string_names_the_entry(self, tmp_path):
        train, _ = small_corpus(n_clips=10)
        manifest = save_dataset(DatasetSplit("train", train.records[:2]), tmp_path)
        entries = json.loads(manifest.read_text())
        entries[1]["clip_id"] = 7
        manifest.write_text(json.dumps(entries))
        with pytest.raises(CorpusError, match="entry 1: clip_id must be a string, got 7"):
            load_dataset(manifest)

    def test_nan_features(self, tmp_path):
        train, _ = small_corpus(n_clips=10)
        record = train.records[0]
        bad = record.features.copy()
        bad[0, 0] = np.nan
        split = DatasetSplit("train", [ClipRecord(record.clip_id, bad, record.references)])
        manifest = save_dataset(split, tmp_path)
        with pytest.raises(CorpusError, match="non-finite"):
            load_dataset(manifest)

    def test_clip_of_another_width_names_the_clip(self, tmp_path):
        train, _ = small_corpus(n_clips=10)
        manifest = save_dataset(DatasetSplit("train", train.records[:3]), tmp_path)
        write_features(tmp_path / "features" / "clip_0001.feat", np.ones((6, 3), np.float32))
        with pytest.raises(CorpusError, match="clip 'clip_0001': 3 features per frame, "
                                              "but clip 'clip_0000' has 8"):
            load_dataset(manifest)

    def test_missing_feature_file(self, tmp_path):
        train, _ = small_corpus(n_clips=10)
        manifest = save_dataset(DatasetSplit("train", train.records[:1]), tmp_path)
        (tmp_path / "features" / "clip_0000.feat").unlink()
        with pytest.raises(CorpusError, match="missing feature file"):
            load_dataset(manifest)


class TestSynthetic:
    def test_deterministic(self):
        t1, e1 = small_corpus(seed=7)
        t2, e2 = small_corpus(seed=7)
        for a, b in zip(t1.records + e1.records, t2.records + e2.records):
            assert a.clip_id == b.clip_id
            assert a.references == b.references
            assert np.array_equal(a.features, b.features)

    def test_references_not_all_identical(self):
        train, _ = small_corpus()
        for record in train.records:
            assert len({" ".join(r) for r in record.references}) >= 2

    def test_caption_lengths(self):
        train, _ = small_corpus()
        for record in train.records:
            for ref in record.references:
                assert 4 <= len(ref) <= 14

    def test_class_separability(self):
        train, evaluation = generate_synthetic_corpus(3, 80, 4, feat_dim=16)
        records = train.records + evaluation.records
        labels = np.array([int(r.clip_id.split("_")[1]) % 4 for r in records])
        means = np.stack([r.features.mean(axis=0) for r in records])
        centroids = np.stack([means[labels == k].mean(axis=0) for k in range(4)])
        pred = np.argmin(
            np.linalg.norm(means[:, None, :] - centroids[None], axis=-1), axis=1
        )
        assert (pred == labels).mean() >= 0.95

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(0, 5, 4)
        with pytest.raises(ValueError):
            generate_synthetic_corpus(0, 20, 1)


class TestBatches:
    def test_sizes(self):
        train, _ = small_corpus(n_clips=14)  # 10 train + 4 eval (25%)
        vocab = build_vocabulary(train)
        batches = epoch_batches(train, vocab, 4, substream(0, "batch"), t_max=22)
        assert [len(b.clip_ids) for b in batches] == [4, 4, 2]

    def test_epoch_covers_each_record_once(self):
        train, _ = small_corpus()
        vocab = build_vocabulary(train)
        batches = epoch_batches(train, vocab, 4, substream(0, "batch"), t_max=22)
        seen = [cid for b in batches for cid in b.clip_ids]
        assert sorted(seen) == sorted(r.clip_id for r in train.records)

    def test_mask_complements_padding(self):
        train, _ = small_corpus()
        vocab = build_vocabulary(train)
        for batch in epoch_batches(train, vocab, 4, substream(0, "batch"), t_max=22):
            _, _, mask = teacher_forcing(batch.captions, batch.caption_lengths)
            assert mask.sum() == (batch.caption_lengths - 1).sum()
            # padded caption positions are exactly the zeros
            for b in range(len(batch.clip_ids)):
                length = batch.caption_lengths[b]
                assert np.all(batch.captions[b, length:] == 0)
                assert np.all(batch.captions[b, :length] != 0) or batch.captions[b, 0] == 1

    @pytest.mark.parametrize("t_max", [22, 5])
    def test_width_is_the_longest_caption(self, t_max):
        train, _ = small_corpus()
        vocab = build_vocabulary(train)
        for batch in epoch_batches(train, vocab, 4, substream(0, "batch"), t_max=t_max):
            rows, longest = len(batch.clip_ids), batch.caption_lengths.max()
            assert longest <= t_max + 2
            assert batch.captions.shape == (rows, longest)
            _, _, mask = teacher_forcing(batch.captions, batch.caption_lengths)
            assert mask.shape == (rows, longest - 1)
            predicted = np.arange(longest - 1)[None, :] < (batch.caption_lengths - 1)[:, None]
            np.testing.assert_array_equal(mask, predicted)

    def test_every_reference_used_over_epochs(self):
        train, _ = small_corpus(n_clips=10)
        vocab = build_vocabulary(train)
        rng = substream(0, "refs")
        target = train.records[0]
        ref_strings = {" ".join(r) for r in target.references}
        seen = set()
        for _ in range(100):
            for batch in epoch_batches(train, vocab, 4, rng, t_max=22):
                if target.clip_id in batch.clip_ids:
                    i = batch.clip_ids.index(target.clip_id)
                    length = batch.caption_lengths[i]
                    tokens = vocab.decode(batch.captions[i, :length])
                    seen.add(" ".join(tokens))
        assert seen == ref_strings
