import json
from pathlib import Path

import numpy as np
import pytest

from capgan import cli, files
from capgan.corpus import generate_synthetic_corpus, save_dataset, write_features
from capgan.decoding import write_captions
from capgan.metrics import evaluate_captions
from capgan.models import save_checkpoint
from capgan.text import Vocabulary
from capgan.training import TrainLog

from test_models import tiny_generator


def tiny_splits():
    return generate_synthetic_corpus(0, n_clips=12, n_classes=2, feat_dim=5)


def tiny_log():
    log = TrainLog()
    for epoch in (1, 2):
        log.append(epoch=epoch, g_loss=0.5 / epoch, mean_n=0.25, mean_s=0.5, mean_c=0.125,
                   mean_reward=0.375)
    return log


def write_checkpoint(out_dir):
    path = out_dir / "gen.ckpt"
    save_checkpoint(path, tiny_generator(dtype=np.float32, seed=7), {"epoch": 2})
    return path


def write_feature_file(out_dir):
    path = out_dir / "clip.feat"
    write_features(path, np.random.default_rng(0).standard_normal((6, 5)))
    return path


def write_manifest(out_dir):
    train, _ = tiny_splits()
    return save_dataset(train, out_dir, "train.json")


def write_vocabulary(out_dir):
    path = out_dir / "vocab.txt"
    Vocabulary.build([["a", "dog", "barks"], ["rain", "falls"]]).save(path)
    return path


def write_log(out_dir):
    path = out_dir / "train_log.jsonl"
    tiny_log().save_jsonl(path)
    return path


def write_rewards(out_dir):
    path = out_dir / "rewards.csv"
    tiny_log().save_reward_csv(path)
    return path


def write_caption_file(out_dir):
    path = out_dir / "captions.jsonl"
    write_captions(path, [{"clip_id": "c1", "captions": ["a dog barks"], "scores": [-0.5]},
                          {"clip_id": "c2", "captions": ["rain falls"], "scores": [-1.25]}])
    return path


def write_per_clip(out_dir):
    _, evaluation = tiny_splits()
    references = {r.clip_id: r.references for r in evaluation.records}
    report = evaluate_captions({k: refs[:2] for k, refs in references.items()}, references)
    path = out_dir / "per_clip.csv"
    report.write_per_clip_csv(path)
    return path


def write_config(out_dir):
    cli._write_merged_config(dict(cli.DEFAULTS), out_dir)
    return out_dir / "config.yaml"


def write_report(out_dir):
    _, evaluation = tiny_splits()
    data = out_dir / "data"
    save_dataset(evaluation, data, "evaluation.json")
    captions = out_dir / "captions.jsonl"
    captions.write_text("".join(json.dumps({"clip_id": r.clip_id, "captions": ["a dog barks"]})
                                + "\n" for r in evaluation.records))
    path = out_dir / "report.json"
    assert cli.main(["evaluate", "--captions", str(captions), "--data", str(data),
                     "--out-json", str(path)]) == 0
    return path


# every writer of a file a command leaves: a function that writes its file
# into a directory and returns the file's path
WRITERS = {
    "checkpoint": write_checkpoint,
    "feature file": write_feature_file,
    "dataset manifest": write_manifest,
    "vocabulary": write_vocabulary,
    "training log": write_log,
    "reward csv": write_rewards,
    "caption file": write_caption_file,
    "per-clip csv": write_per_clip,
    "config.yaml": write_config,
    "evaluate --out-json": write_report,
}


class FullDisk:
    """A file that takes ``budget`` bytes (or characters), then fails part
    way into the write that would pass it."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        if len(data) > self.budget:
            self.fh.write(data[: self.budget])
            raise OSError(28, "No space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_leaves_the_old_file(writer, tmp_path, monkeypatch):
    write = WRITERS[writer]
    whole = write(tmp_path / "whole")
    path = tmp_path / "target" / whole.relative_to(tmp_path / "whole")
    path.parent.mkdir(parents=True)
    old = b"the bytes an earlier run left\n"
    path.write_bytes(old)
    tmp = path.with_name(path.name + ".tmp")
    real_open = open
    cut = []

    def full_disk_open(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        if Path(file) != tmp:
            return fh
        cut.append(FullDisk(fh, len(whole.read_bytes()) // 2))
        return cut[-1]

    monkeypatch.setattr(files, "open", full_disk_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        write(tmp_path / "target")
    assert len(cut) == 1 and cut[0].budget > 0  # it failed part way into the file
    assert path.read_bytes() == old
    assert not [p for p in tmp_path.rglob("*.tmp")]


def test_replaced_makes_missing_directories_and_leaves_no_tmp(tmp_path):
    path = tmp_path / "a" / "b" / "out.bin"
    with files.replaced(path, binary=True) as fh:
        fh.write(b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"
    assert sorted(p.name for p in path.parent.iterdir()) == ["out.bin"]


def test_an_exception_in_the_block_leaves_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(KeyError):
        with files.replaced(path) as fh:
            fh.write("new\n")
            raise KeyError("stop")
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
