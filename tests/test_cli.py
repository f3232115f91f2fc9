import contextlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import yaml

import capgan
from capgan import cli, files
from capgan.cli import EXIT_CODES, main
from capgan.corpus import generate_synthetic_corpus, save_dataset, write_features
from capgan.decoding import read_captions
from capgan.models import (
    CheckpointError,
    DiscriminatorConfig,
    Generator,
    GeneratorConfig,
    SemanticEvaluatorConfig,
    config_from_checkpoint,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from capgan.text import Vocabulary
from capgan.training import TrainConfig


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL_MODEL = {
    "d_model": 8, "n_layers": 1, "n_heads": 2, "d_ff": 12, "noise_dim": 4,
    "dropout": 0.0, "d_embed_dim": 4, "d_hidden_dim": 6, "se_embed_dim": 4,
    "se_hidden_dim": 6, "se_out_dim": 8, "t_max": 12, "batch_size": 4,
    "learning_rate": 0.001,
}


@pytest.fixture
def data_dir(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, err = run(
        [
            "prepare-data", "--out", str(out), "--synthetic", "--seed", "0",
            "--clips", "12", "--classes", "2", "--feat-dim", "5",
        ],
        capsys,
    )
    assert code == 0, err
    return out


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(yaml.safe_dump(SMALL_MODEL))
    return path


@pytest.fixture
def pretrained(data_dir, config_file, tmp_path, capsys):
    run_dir = tmp_path / "run"
    code, _, err = run(
        [
            "pretrain", "--data", str(data_dir), "--run", str(run_dir),
            "--config", str(config_file), "--epochs", "2",
        ],
        capsys,
    )
    assert code == 0, err
    return run_dir


class TestPrepareData:
    def test_writes_both_manifests(self, data_dir):
        assert (data_dir / "train.json").exists()
        assert (data_dir / "evaluation.json").exists()
        assert (data_dir / "features").is_dir()

    def test_refuses_overwrite_without_force(self, data_dir, capsys):
        code, _, err = run(
            ["prepare-data", "--out", str(data_dir), "--synthetic",
             "--clips", "12", "--classes", "2"],
            capsys,
        )
        assert code != 0
        assert "category=usage" in err

    def test_force_overwrites(self, data_dir, capsys):
        code, _, _ = run(
            ["prepare-data", "--out", str(data_dir), "--synthetic", "--force",
             "--clips", "12", "--classes", "2", "--feat-dim", "5"],
            capsys,
        )
        assert code == 0

    def test_synthetic_defaults_are_the_corpus_functions(self, tmp_path, capsys):
        # no --feat-dim or --eval-fraction: generate_synthetic_corpus's
        # defaults apply, so the files equal those of the function's output
        out = tmp_path / "cli"
        code, _, err = run(["prepare-data", "--out", str(out), "--synthetic", "--seed", "1",
                            "--clips", "12", "--classes", "2"], capsys)
        assert code == 0, err
        want = tmp_path / "direct"
        train, evaluation = generate_synthetic_corpus(seed=1, n_clips=12, n_classes=2)
        save_dataset(train, want, "train.json")
        save_dataset(evaluation, want, "evaluation.json")
        files = sorted(p.relative_to(want) for p in want.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        assert all((out / f).read_bytes() == (want / f).read_bytes() for f in files)

    def test_import_round_trip(self, data_dir, tmp_path, capsys):
        out = tmp_path / "imported"
        code, _, err = run(
            [
                "prepare-data", "--out", str(out),
                "--import-train", str(data_dir / "train.json"),
                "--import-eval", str(data_dir / "evaluation.json"),
            ],
            capsys,
        )
        assert code == 0, err
        original = json.loads((data_dir / "train.json").read_text())
        imported = json.loads((out / "train.json").read_text())
        assert original == imported


class TestPretrain:
    def test_artifacts(self, pretrained):
        assert (pretrained / "generator_mle_final.ckpt").exists()
        assert (pretrained / "generator_mle_best.ckpt").exists()
        assert (pretrained / "vocab.txt").exists()
        assert (pretrained / "mle_log.jsonl").exists()
        cfg = yaml.safe_load((pretrained / "config.yaml").read_text())
        assert cfg["mle_epochs"] == 2  # flag override recorded
        assert cfg["d_model"] == 8  # config-file value recorded

    def test_flag_beats_config_file(self, data_dir, tmp_path, capsys):
        config = dict(SMALL_MODEL, mle_epochs=7)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(config))
        run_dir = tmp_path / "run2"
        code, _, _ = run(
            ["pretrain", "--data", str(data_dir), "--run", str(run_dir),
             "--config", str(path), "--epochs", "1"],
            capsys,
        )
        assert code == 0
        merged = yaml.safe_load((run_dir / "config.yaml").read_text())
        assert merged["mle_epochs"] == 1

    def test_unknown_config_key_rejected(self, data_dir, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"nonsense_knob": 3}))
        code, _, err = run(
            ["pretrain", "--data", str(data_dir), "--run", str(tmp_path / "r"),
             "--config", str(path)],
            capsys,
        )
        assert code != 0
        assert "category=config" in err
        assert "nonsense_knob" in err

    def test_resume_continues_epoch_numbering(self, pretrained, data_dir, config_file, capsys):
        code, _, err = run(
            ["pretrain", "--data", str(data_dir), "--run", str(pretrained),
             "--config", str(config_file), "--epochs", "4", "--resume"],
            capsys,
        )
        assert code == 0, err
        _, meta = load_checkpoint(pretrained / "generator_mle_final.ckpt")
        assert meta["epoch"] == 4
        log = [json.loads(l) for l in (pretrained / "mle_log.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in log] == [1, 2, 3, 4]

    def test_resume_keeps_the_best_score(self, pretrained, data_dir, config_file, capsys):
        # an earlier epoch no resumed epoch can beat: the best checkpoint stays
        log_path = pretrained / "mle_log.jsonl"
        log = [json.loads(l) for l in log_path.read_text().splitlines()]
        log[0]["eval_cider"] = 99.0
        log_path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in log))
        best = (pretrained / "generator_mle_best.ckpt").read_bytes()
        code, _, err = run(
            ["pretrain", "--data", str(data_dir), "--run", str(pretrained),
             "--config", str(config_file), "--epochs", "3", "--resume"],
            capsys,
        )
        assert code == 0, err
        assert (pretrained / "generator_mle_best.ckpt").read_bytes() == best
        resumed = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert resumed[:2] == log and resumed[2]["epoch"] == 3

    def test_resume_refuses_an_unreadable_log(self, pretrained, data_dir, config_file):
        log_path = pretrained / "mle_log.jsonl"
        log_path.write_text(log_path.read_text()[:20])  # cut mid-record
        before = snapshot(pretrained)
        code, err = run_process(["pretrain", "--data", str(data_dir), "--run", str(pretrained),
                                 "--config", str(config_file), "--epochs", "3", "--resume"])
        assert code == EXIT_CODES["checkpoint"], err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: category=checkpoint: "), err
        assert "mle_log.jsonl" in lines[0]
        # no checkpoint, log, vocabulary or config.yaml written
        assert snapshot(pretrained) == before

    def test_resume_without_checkpoint_fails(self, data_dir, config_file, tmp_path, capsys):
        code, _, err = run(
            ["pretrain", "--data", str(data_dir), "--run", str(tmp_path / "fresh"),
             "--config", str(config_file), "--resume"],
            capsys,
        )
        assert code != 0
        assert "category=usage" in err

    def test_missing_data_dir(self, config_file, tmp_path, capsys):
        code, _, err = run(
            ["pretrain", "--data", str(tmp_path / "nope"), "--run", str(tmp_path / "r"),
             "--config", str(config_file)],
            capsys,
        )
        assert code != 0
        assert "category=corpus" in err


class TestPretrainJudges:
    def test_discriminator(self, pretrained, data_dir, config_file, capsys):
        code, _, err = run(
            ["pretrain-d", "--data", str(data_dir), "--run", str(pretrained),
             "--config", str(config_file), "--epochs", "1"],
            capsys,
        )
        assert code == 0, err
        _, meta = load_checkpoint(
            pretrained / "discriminator_pretrained.ckpt", expected_kind="discriminator"
        )
        assert meta["stage"] == "d-pretrain"
        assert (pretrained / "d_log.jsonl").exists()

    def test_semantic(self, pretrained, data_dir, config_file, capsys):
        code, _, err = run(
            ["pretrain-se", "--data", str(data_dir), "--run", str(pretrained),
             "--config", str(config_file), "--epochs", "1"],
            capsys,
        )
        assert code == 0, err
        load_checkpoint(pretrained / "semantic_evaluator.ckpt", expected_kind="semantic")
        assert (pretrained / "se_log.jsonl").exists()

    def test_semantic_resume_keeps_the_log(self, pretrained, data_dir, config_file, capsys):
        for epochs in (["--epochs", "1"], ["--epochs", "2", "--resume"]):
            code, _, err = run(
                ["pretrain-se", "--data", str(data_dir), "--run", str(pretrained),
                 "--config", str(config_file), *epochs],
                capsys,
            )
            assert code == 0, err
        log = [json.loads(l) for l in (pretrained / "se_log.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in log] == [1, 2]
        _, meta = load_checkpoint(pretrained / "semantic_evaluator.ckpt")
        assert meta["epoch"] == 2

    def test_train_gan_requires_all_checkpoints(self, pretrained, data_dir, config_file, capsys):
        code, _, err = run(
            ["train-gan", "--data", str(data_dir), "--run", str(pretrained),
             "--config", str(config_file), "--epochs", "1"],
            capsys,
        )
        assert code != 0
        assert "category=checkpoint" in err


@pytest.fixture
def full_run(pretrained, data_dir, config_file, capsys):
    for cmd in ("pretrain-d", "pretrain-se"):
        code, _, err = run(
            [cmd, "--data", str(data_dir), "--run", str(pretrained),
             "--config", str(config_file), "--epochs", "1"],
            capsys,
        )
        assert code == 0, err
    return pretrained


class TestTrainGan:
    def test_single_lambda_run(self, full_run, data_dir, config_file, capsys):
        code, out, err = run(
            ["train-gan", "--data", str(data_dir), "--run", str(full_run),
             "--config", str(config_file), "--epochs", "1", "--lambda", "0.7"],
            capsys,
        )
        assert code == 0, err
        gan_dir = full_run / "gan" / "lambda_0.7"
        assert (gan_dir / "generator_adv_final.ckpt").exists()
        assert (gan_dir / "train_log.jsonl").exists()
        assert (gan_dir / "rewards.csv").exists()
        merged = yaml.safe_load((gan_dir / "config.yaml").read_text())
        assert merged["lam"] == 0.7

    def test_lambda_zero_notes_pure_rl(self, full_run, data_dir, config_file, capsys):
        code, out, err = run(
            ["train-gan", "--data", str(data_dir), "--run", str(full_run),
             "--config", str(config_file), "--epochs", "1", "--lambda", "0.0"],
            capsys,
        )
        assert code == 0, err
        assert "never queried" in out
        log = [
            json.loads(l)
            for l in (full_run / "gan" / "lambda_0" / "train_log.jsonl").read_text().splitlines()
        ]
        assert log[0]["d_queries"] == 0 and log[0]["se_queries"] == 0

    def test_lambda_sweep_creates_run_dirs(self, full_run, data_dir, config_file, capsys):
        code, _, err = run(
            ["train-gan", "--data", str(data_dir), "--run", str(full_run),
             "--config", str(config_file), "--epochs", "1",
             "--lambda-sweep", "1.0,0.5"],
            capsys,
        )
        assert code == 0, err
        assert (full_run / "gan" / "lambda_1").is_dir()
        assert (full_run / "gan" / "lambda_0.5").is_dir()

    def test_ablation_run_dir(self, full_run, data_dir, config_file, capsys):
        code, _, err = run(
            ["train-gan", "--data", str(data_dir), "--run", str(full_run),
             "--config", str(config_file), "--epochs", "1", "--ablation", "nd"],
            capsys,
        )
        assert code == 0, err
        gan_dir = full_run / "gan" / "ablation_nd"
        merged = yaml.safe_load((gan_dir / "config.yaml").read_text())
        assert merged["lam"] == 1.0  # single-judge ablation pins lambda
        log = [json.loads(l) for l in (gan_dir / "train_log.jsonl").read_text().splitlines()]
        assert log[0]["se_queries"] == 0 and log[0]["d_queries"] > 0


    def test_ablation_accepts_its_own_lambda(self, full_run, data_dir, config_file, capsys):
        code, _, err = run(
            ["train-gan", "--data", str(data_dir), "--run", str(full_run),
             "--config", str(config_file), "--epochs", "1", "--ablation", "le",
             "--lambda", "0"],
            capsys,
        )
        assert code == 0, err
        merged = yaml.safe_load((full_run / "gan" / "ablation_le" / "config.yaml").read_text())
        assert merged["lam"] == 0.0


@pytest.mark.parametrize(("command", "fresh"), [
    ("pretrain-d", ["discriminator-init"]), ("train-gan", []), ("generate", []),
])
def test_restored_models_skip_their_init_draws(command, fresh, full_run, data_dir, config_file,
                                               tmp_path, capsys, monkeypatch):
    # a model that a checkpoint overwrites draws nothing from its init stream
    drawn = []
    real = cli.substream

    def spy(seed, name):
        drawn.append(name)
        return real(seed, name)

    monkeypatch.setattr(cli, "substream", spy)
    argv = [command, "--data", str(data_dir), "--run", str(full_run)]
    if command == "generate":
        argv += ["--n", "2", "--out", str(tmp_path / "captions.jsonl")]
    else:
        argv += ["--config", str(config_file), "--epochs", "1"]
    code, _, err = run(argv, capsys)
    assert code == 0, err
    assert [name for name in drawn if name.endswith("-init")] == fresh


class TestGenerateEvaluate:
    def test_generate_and_evaluate(self, pretrained, data_dir, tmp_path, capsys):
        out_file = tmp_path / "captions.jsonl"
        code, out, err = run(
            ["generate", "--data", str(data_dir), "--run", str(pretrained),
             "--mode", "gan", "--n", "3", "--beam-size", "2", "--seed", "1",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 0, err
        rows = read_captions(out_file)
        assert len(rows) == 3  # 12 clips, 25% evaluation split
        assert all(len(r["captions"]) == 3 for r in rows)

        json_out = tmp_path / "report.json"
        csv_out = tmp_path / "per_clip.csv"
        code, out, err = run(
            ["evaluate", "--captions", str(out_file), "--data", str(data_dir),
             "--out-json", str(json_out), "--per-clip-csv", str(csv_out)],
            capsys,
        )
        assert code == 0, err
        assert "BLEU_4" in out and "mBLEU_4" in out
        report = json.loads(json_out.read_text())
        assert set(report) >= {"bleu_4", "cider", "vocab_size", "div_1", "div_2"}
        assert csv_out.read_text().splitlines()[0].startswith("clip_id,")

    def test_generate_deterministic_same_seed(self, pretrained, data_dir, tmp_path, capsys):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            code, _, err = run(
                ["generate", "--data", str(data_dir), "--run", str(pretrained),
                 "--mode", "gan", "--n", "2", "--beam-size", "2", "--seed", "7",
                 "--out", str(path)],
                capsys,
            )
            assert code == 0, err
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_mle_mode_ignores_seed(self, pretrained, data_dir, tmp_path, capsys):
        outs = []
        for name, seed in (("a.jsonl", "1"), ("b.jsonl", "2")):
            path = tmp_path / name
            code, _, _ = run(
                ["generate", "--data", str(data_dir), "--run", str(pretrained),
                 "--mode", "mle", "--n", "2", "--beam-size", "3", "--seed", seed,
                 "--out", str(path)],
                capsys,
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_clip_ids_listed(self, pretrained, data_dir, tmp_path, capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text(
            json.dumps({"clip_id": "clip_9999", "captions": ["a dog barks"], "scores": [0.0]})
            + "\n"
        )
        code, _, err = run(
            ["evaluate", "--captions", str(bogus), "--data", str(data_dir)],
            capsys,
        )
        assert code != 0
        assert "category=evaluation" in err
        assert "clip_9999" in err


def run_process(argv):
    """The CLI in a process of its own, so an uncaught exception would
    show as a traceback: (exit code, stderr)."""
    path = [str(Path(capgan.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "capgan.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stderr


TRAIN_GAN = ["train-gan", "--data", "{data}", "--run", "{run}", "--config", "{config}",
             "--epochs", "1"]
GENERATE = ["generate", "--data", "{data}", "--run", "{run}"]
# argv, then a path the command must not have written
REJECTED_VALUES = {
    "prepare-data --clips 3": (
        ["prepare-data", "--out", "{tmp}/fresh", "--synthetic", "--clips", "3"], "{tmp}/fresh"),
    "prepare-data --import-eval without --import-train": (
        ["prepare-data", "--out", "{tmp}/fresh", "--import-eval", "{data}/evaluation.json"],
        "{tmp}/fresh"),
    "prepare-data --synthetic --import-train": (
        ["prepare-data", "--out", "{tmp}/fresh", "--synthetic",
         "--import-train", "{data}/train.json"], "{tmp}/fresh"),
    "pretrain --epochs 0": (
        ["pretrain", "--data", "{data}", "--run", "{tmp}/fresh", "--config", "{config}",
         "--epochs", "0"], "{tmp}/fresh"),
    "pretrain-d --epochs 0": (
        ["pretrain-d", "--data", "{data}", "--run", "{tmp}/fresh", "--config", "{config}",
         "--epochs", "0"], "{tmp}/fresh"),
    "pretrain-se --epochs 0": (
        ["pretrain-se", "--data", "{data}", "--run", "{tmp}/fresh", "--config", "{config}",
         "--epochs", "0"], "{tmp}/fresh"),
    "pretrain-se --batch-size 1": (
        ["pretrain-se", "--data", "{data}", "--run", "{tmp}/fresh", "--config", "{config}",
         "--batch-size", "1"], "{tmp}/fresh"),
    "train-gan --epochs 0": (TRAIN_GAN + ["--epochs", "0"], "{run}/gan"),
    "pretrain --batch-size 0": (
        ["pretrain", "--data", "{data}", "--run", "{tmp}/fresh", "--config", "{config}",
         "--batch-size", "0"], "{tmp}/fresh"),
    "pretrain --learning-rate -1": (
        ["pretrain", "--data", "{data}", "--run", "{tmp}/fresh", "--config", "{config}",
         "--learning-rate", "-1"], "{tmp}/fresh"),
    "pretrain --learning-rate 0": (
        ["pretrain", "--data", "{data}", "--run", "{tmp}/fresh", "--config", "{config}",
         "--learning-rate", "0"], "{tmp}/fresh"),
    "pretrain --t-max 0": (
        ["pretrain", "--data", "{data}", "--run", "{tmp}/fresh", "--config", "{config}",
         "--t-max", "0"], "{tmp}/fresh"),
    "prepare-data --eval-fraction 2.0": (
        ["prepare-data", "--out", "{tmp}/fresh", "--synthetic", "--eval-fraction", "2.0"],
        "{tmp}/fresh"),
    "prepare-data --eval-fraction 0": (
        ["prepare-data", "--out", "{tmp}/fresh", "--synthetic", "--eval-fraction", "0"],
        "{tmp}/fresh"),
    "prepare-data --eval-fraction 0.96 --clips 10 (no train clips)": (
        ["prepare-data", "--out", "{tmp}/fresh", "--synthetic", "--clips", "10",
         "--eval-fraction", "0.96"], "{tmp}/fresh"),
    "train-gan --lambda 2": (TRAIN_GAN + ["--lambda", "2"], "{run}/gan"),
    "train-gan --lambda-sweep 0.5,2": (
        TRAIN_GAN + ["--lambda-sweep", "0.5,2"], "{run}/gan/lambda_0.5"),
    "train-gan --lambda-sweep ,": (TRAIN_GAN + ["--lambda-sweep", ","], "{run}/gan"),
    "train-gan --lambda-sweep ''": (TRAIN_GAN + ["--lambda-sweep", ""], "{run}/gan"),
    "train-gan --lambda 0.5 --ablation nd": (
        TRAIN_GAN + ["--lambda", "0.5", "--ablation", "nd"], "{run}/gan"),
    "train-gan --lambda 1 --ablation le": (
        TRAIN_GAN + ["--lambda", "1", "--ablation", "le"], "{run}/gan"),
    "train-gan --lambda-sweep --ablation nd": (
        TRAIN_GAN + ["--lambda-sweep", "--ablation", "nd"], "{run}/gan"),
    "generate --beam-size 0": (GENERATE + ["--beam-size", "0"], "{run}/captions_gan.jsonl"),
    "generate -n 0": (GENERATE + ["-n", "0"], "{run}/captions_gan.jsonl"),
    "generate -n -1": (GENERATE + ["-n", "-1"], "{run}/captions_gan.jsonl"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_VALUES))
def test_rejected_value_is_a_usage_error(case, full_run, data_dir, config_file, tmp_path):
    argv, unwritten = REJECTED_VALUES[case]
    paths = {"tmp": tmp_path, "data": data_dir, "run": full_run, "config": config_file}
    code, err = run_process([arg.format(**paths) for arg in argv])
    assert code == 2, err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: category=usage: "), err
    assert not Path(unwritten.format(**paths)).exists()


# a config value of the wrong type: YAML text, then the field it names
WRONG_TYPES = {
    "int field, quoted number": ('batch_size: "8"\n', "batch_size"),
    "int field, bool": ("batch_size: true\n", "batch_size"),
    "int field, float": ("mle_epochs: 2.0\n", "mle_epochs"),
    "float field, str": ("learning_rate: 1e-4\n", "learning_rate"),  # YAML reads a string
    "float field, bool": ("dropout: false\n", "dropout"),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_config_value_of_wrong_type_is_a_config_error(case, data_dir, tmp_path):
    text, key = WRONG_TYPES[case]
    config = tmp_path / "typed.yaml"
    config.write_text(text)
    run_dir = tmp_path / "fresh"
    code, err = run_process(
        ["pretrain", "--data", str(data_dir), "--run", str(run_dir), "--config", str(config)]
    )
    assert code == 2, err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: category=config: "), err
    assert key in lines[0]
    assert not run_dir.exists()


# a config value its config class rejects: the command, the settings that
# differ from the test config, then what the line names
OUT_OF_RANGE = {
    "n_heads not dividing d_model": ("pretrain", {"n_heads": 3}, "divisible"),
    "negative d_model": ("pretrain", {"d_model": -4}, "GeneratorConfig.d_model"),
    "dropout above 1": ("pretrain", {"dropout": 1.5}, "GeneratorConfig.dropout"),
    "negative dropout": ("pretrain", {"dropout": -0.1}, "GeneratorConfig.dropout"),
    "zero d_hidden_dim": ("pretrain-d", {"d_hidden_dim": 0}, "DiscriminatorConfig.hidden_dim"),
    "zero se_out_dim": ("pretrain-se", {"se_out_dim": 0}, "SemanticEvaluatorConfig.out_dim"),
    # each training command checks the settings of the models it does not build
    "n_heads through pretrain-se": ("pretrain-se", {"n_heads": 3}, "divisible"),
    "zero d_hidden_dim through pretrain": (
        "pretrain", {"d_hidden_dim": 0}, "DiscriminatorConfig.hidden_dim"),
    "zero se_out_dim through pretrain-d": (
        "pretrain-d", {"se_out_dim": 0}, "SemanticEvaluatorConfig.out_dim"),
    # before any checkpoint: this run has no discriminator or evaluator yet
    "zero se_out_dim through train-gan": (
        "train-gan", {"se_out_dim": 0}, "SemanticEvaluatorConfig.out_dim"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_config_value_out_of_range_is_a_usage_error(case, pretrained, data_dir, tmp_path):
    command, changed, named = OUT_OF_RANGE[case]
    config = tmp_path / "ranged.yaml"
    config.write_text(yaml.safe_dump(dict(SMALL_MODEL, **changed)))
    before = snapshot(pretrained)
    code, err = run_process([command, "--data", str(data_dir), "--run", str(pretrained),
                             "--config", str(config), "--epochs", "1"])
    assert code == 2, err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: category=usage: "), err
    assert named in lines[0]
    assert snapshot(pretrained) == before


# each run setting and its default
SETTINGS = {
    "adversarial_epochs": 30, "batch_size": 32, "d_embed_dim": 64, "d_ff": 256,
    "d_hidden_dim": 128, "d_model": 128, "d_pretrain_epochs": 5, "dropout": 0.1, "lam": 0.5,
    "learning_rate": 1e-4, "min_count": 1, "mle_epochs": 25, "n_heads": 4, "n_layers": 2,
    "noise_dim": 64, "se_embed_dim": 64, "se_hidden_dim": 128, "se_out_dim": 128,
    "se_pretrain_epochs": 25, "seed": 0, "t_max": 22,
}
# the config class each setting is a field of, and the prefix of its name
OWNERS = {TrainConfig: "", GeneratorConfig: "", DiscriminatorConfig: "d_",
          SemanticEvaluatorConfig: "se_"}


def typed(settings: dict) -> dict:
    return {key: (type(value), value) for key, value in settings.items()}


def test_default_run_records_every_setting(data_dir, tmp_path, capsys):
    run_dir = tmp_path / "run"
    code, _, err = run(["pretrain", "--data", str(data_dir), "--run", str(run_dir),
                        "--epochs", "1"], capsys)
    assert code == 0, err
    recorded = yaml.safe_load((run_dir / "config.yaml").read_text())
    assert typed(recorded) == typed(dict(SETTINGS, mle_epochs=1))


def test_every_setting_reaches_its_config_field(tmp_path):
    # a valid value other than the default for each setting
    values = {key: value / 2 if isinstance(value, float) else 2 * value or 1
              for key, value in SETTINGS.items()}
    path = tmp_path / "settings.yaml"
    path.write_text(yaml.safe_dump(values))
    args = cli.build_parser().parse_args(
        ["pretrain", "--data", "data", "--run", "run", "--config", str(path)])
    cfg = cli._resolve_config(args)
    vocab = Vocabulary.build([["a", "dog", "barks"]])
    built = [
        cli._config(TrainConfig, cfg),
        *cli._model_configs(vocab, cfg, 5),
    ]
    reached = {"min_count": cfg["min_count"]}
    for config in built:
        reached.update({OWNERS[type(config)] + key: value
                        for key, value in asdict(config).items()
                        if key not in ("vocab_size", "feat_dim", "ablation")})
    assert typed(reached) == typed(values)


# a value read from a file: the setting, the value, whether a setting of
# that type takes it
TYPED_VALUES = {
    "int setting, bool": ("n_heads", True, False),
    "int setting, str": ("n_heads", "2", False),
    "int setting, float": ("n_heads", 2.0, False),
    "int setting, int": ("n_heads", 2, True),
    "float setting, bool": ("dropout", False, False),
    "float setting, int": ("dropout", 0, True),
    "float setting, float": ("dropout", 0.0, True),
}


@pytest.mark.parametrize("case", sorted(TYPED_VALUES))
def test_config_file_and_checkpoint_take_the_same_types(case, tmp_path):
    """A ``--config`` file and a checkpoint's recorded config accept and
    refuse the same values."""
    key, value, taken = TYPED_VALUES[case]
    path = tmp_path / "typed.yaml"
    path.write_text(yaml.safe_dump({key: value}))
    args = cli.build_parser().parse_args(
        ["pretrain", "--data", "data", "--run", "run", "--config", str(path)])
    try:
        cli._resolve_config(args)
        from_file = True
    except cli.CliError as exc:
        assert exc.category == "config" and key in str(exc)
        from_file = False
    gen = Generator(GeneratorConfig(vocab_size=5, feat_dim=5, d_model=8, n_layers=1, n_heads=2,
                                    d_ff=12, noise_dim=4, t_max=12, dropout=0.0),
                    np.random.default_rng(0))
    ckpt = tmp_path / "typed.ckpt"
    save_checkpoint(ckpt, gen, {"config": dict(asdict(gen.config), **{key: value})})
    _, meta = load_checkpoint(ckpt, "generator")
    try:
        config_from_checkpoint(GeneratorConfig, meta, ckpt)
        from_checkpoint = True
    except CheckpointError as exc:
        assert key in str(exc)
        from_checkpoint = False
    assert from_file == from_checkpoint == taken


def test_config_float_field_accepts_an_int(data_dir, tmp_path, capsys):
    config = tmp_path / "int_rate.yaml"
    config.write_text(yaml.safe_dump(dict(SMALL_MODEL, learning_rate=1, dropout=0)))
    run_dir = tmp_path / "run"
    code, _, err = run(
        ["pretrain", "--data", str(data_dir), "--run", str(run_dir), "--config", str(config),
         "--epochs", "1"],
        capsys,
    )
    assert code == 0, err
    assert yaml.safe_load((run_dir / "config.yaml").read_text())["learning_rate"] == 1


def test_evaluate_rejects_a_clip_without_captions(data_dir, tmp_path, capsys):
    clip_id = json.loads((data_dir / "evaluation.json").read_text())[0]["clip_id"]
    empty = tmp_path / "empty.jsonl"
    empty.write_text(json.dumps({"clip_id": clip_id, "captions": [], "scores": []}) + "\n")
    code, _, err = run(["evaluate", "--captions", str(empty), "--data", str(data_dir)], capsys)
    assert code == 2
    assert err.startswith("error: category=evaluation: ") and clip_id in err


# a command per error category: argv, then the exit code that category gives
CATEGORY_COMMANDS = {
    "usage": (["pretrain", "--data", "{data}", "--run", "{tmp}/fresh", "--config", "{config}",
               "--batch-size", "0"], 2),
    "config": (["pretrain", "--data", "{data}", "--run", "{tmp}/fresh",
                "--config", "{tmp}/unknown_key.yaml"], 2),
    "evaluation": (["evaluate", "--captions", "{tmp}/unknown_clip.jsonl", "--data", "{data}"], 2),
    "corpus": (["pretrain", "--data", "{tmp}/nope", "--run", "{tmp}/fresh",
                "--config", "{config}"], 3),
    "checkpoint": (TRAIN_GAN, 4),
    "diverged": (["pretrain", "--data", "{data}", "--run", "{tmp}/fresh", "--config", "{config}",
                  "--epochs", "2", "--learning-rate", "1e30"], 5),
}


@pytest.mark.parametrize("category", sorted(CATEGORY_COMMANDS))
def test_each_error_category_has_its_exit_code(category, pretrained, data_dir, config_file,
                                               tmp_path):
    (tmp_path / "unknown_key.yaml").write_text("nonsense_knob: 3\n")
    (tmp_path / "unknown_clip.jsonl").write_text(
        json.dumps({"clip_id": "clip_9999", "captions": ["a dog barks"]}) + "\n")
    argv, exit_code = CATEGORY_COMMANDS[category]
    paths = {"tmp": tmp_path, "data": data_dir, "run": pretrained, "config": config_file}
    code, err = run_process([arg.format(**paths) for arg in argv])
    assert code == exit_code, err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: category={category}: "), err


def _bad_manifest(data_dir, tmp_path, edit):
    """A copy of the dataset whose train manifest is ``edit(manifest text)``."""
    bad = tmp_path / "bad_data"
    shutil.copytree(data_dir, bad)
    (bad / "train.json").write_text(edit((bad / "train.json").read_text()))
    return bad


def _without(key):
    def edit(text):
        entries = json.loads(text)
        del entries[0][key]
        return json.dumps(entries)
    return edit


def _with_first(key, value):
    def edit(text):
        entries = json.loads(text)
        entries[0][key] = value
        return json.dumps(entries)
    return edit


# a malformed input: the command that reads it, the caption file's text or
# an edit of the train manifest, the category it fails with, what the line names
MALFORMED_INPUTS = {
    "caption line not JSON": ("evaluate", '{"clip_id": "clip_0009", "captions": [\n',
                              "evaluation", "line 1"),
    "caption row without clip_id": ("evaluate", json.dumps({"captions": ["a dog barks"]}) + "\n",
                                    "evaluation", "clip_id"),
    "manifest not JSON": ("pretrain", lambda text: "[{", "corpus", "train.json"),
    "manifest with no clips": ("pretrain", lambda text: "[]", "corpus", "train.json"),
    "manifest entry without clip_id": ("pretrain", _without("clip_id"), "corpus", "clip_id"),
    "manifest entry without feature_file": (
        "pretrain", _without("feature_file"), "corpus", "feature_file"),
    "manifest entry without captions": ("pretrain", _without("captions"), "corpus", "captions"),
    "manifest caption without words": (
        "pretrain", _with_first("captions", ["!!!", "a", "b", "c", "d"]), "corpus", "clip_0000"),
    "manifest caption not a string": (
        "pretrain", _with_first("captions", [7, "a", "b", "c", "d"]), "corpus", "clip_0000"),
    "manifest captions a string": (
        "pretrain", _with_first("captions", "abcde"), "corpus", "clip_0000"),
    "manifest feature_file not a string": (
        "pretrain", _with_first("feature_file", 7), "corpus", "clip_0000"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_one_error_line(case, data_dir, config_file, tmp_path):
    command, content, category, named = MALFORMED_INPUTS[case]
    if command == "evaluate":
        captions = tmp_path / "captions.jsonl"
        captions.write_text(content)
        unwritten = tmp_path / "report.json"
        argv = ["evaluate", "--captions", str(captions), "--data", str(data_dir),
                "--out-json", str(unwritten)]
    else:
        unwritten = tmp_path / "fresh"
        argv = ["pretrain", "--data", str(_bad_manifest(data_dir, tmp_path, content)),
                "--run", str(unwritten), "--config", str(config_file)]
    code, err = run_process(argv)
    assert code == EXIT_CODES[category], err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: category={category}: "), err
    assert named in lines[0]
    assert not unwritten.exists()


# a command that reads the train manifest besides pretrain (see MALFORMED_INPUTS),
# then the path it must not write
READS_THE_TRAIN_MANIFEST = {
    "evaluate --split train": (
        ["evaluate", "--captions", "{tmp}/captions.jsonl", "--data", "{data}", "--split", "train",
         "--out-json", "{tmp}/report.json"], "{tmp}/report.json"),
    "prepare-data --import-train": (
        ["prepare-data", "--out", "{tmp}/fresh", "--import-train", "{data}/train.json"],
        "{tmp}/fresh"),
}


@pytest.mark.parametrize("command", sorted(READS_THE_TRAIN_MANIFEST))
def test_manifest_caption_without_words_is_a_corpus_error(command, data_dir, tmp_path):
    bad = _bad_manifest(data_dir, tmp_path, _with_first("captions", ["!!!", "a", "b", "c", "d"]))
    (tmp_path / "captions.jsonl").write_text(
        json.dumps({"clip_id": "clip_0000", "captions": ["a dog barks"]}) + "\n")
    argv, unwritten = READS_THE_TRAIN_MANIFEST[command]
    paths = {"tmp": tmp_path, "data": bad}
    code, err = run_process([arg.format(**paths) for arg in argv])
    assert code == EXIT_CODES["corpus"], err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: category=corpus: "), err
    assert "clip_0000" in lines[0]
    assert not Path(unwritten.format(**paths)).exists()


@pytest.fixture
def short_run(data_dir, config_file, tmp_path, capsys):
    """Generator, discriminator and semantic evaluator all trained with
    --t-max 6, where the config file says 12."""
    run_dir = tmp_path / "short"
    for cmd in ("pretrain", "pretrain-d", "pretrain-se"):
        code, _, err = run(
            [cmd, "--data", str(data_dir), "--run", str(run_dir), "--config", str(config_file),
             "--epochs", "1", "--t-max", "6"],
            capsys,
        )
        assert code == 0, err
    return run_dir


def snapshot(run_dir: Path) -> dict:
    return {p.relative_to(run_dir): p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}


# a command whose settings differ from its run's checkpoints, then the field
MISMATCHED_SETTINGS = {
    "pretrain-d without --t-max": (
        ["pretrain-d", "--data", "{data}", "--run", "{run}", "--config", "{config}",
         "--epochs", "1"], "t_max"),
    "train-gan without --t-max": (TRAIN_GAN, "t_max"),
    "pretrain --resume with other n_heads": (
        ["pretrain", "--data", "{data}", "--run", "{run}", "--config", "{tmp}/one_head.yaml",
         "--t-max", "6", "--epochs", "2", "--resume"], "n_heads"),
}


@pytest.mark.parametrize("case", sorted(MISMATCHED_SETTINGS))
def test_checkpoint_of_other_settings_is_refused(case, short_run, data_dir, config_file,
                                                 tmp_path):
    (tmp_path / "one_head.yaml").write_text(yaml.safe_dump(dict(SMALL_MODEL, n_heads=1)))
    argv, field = MISMATCHED_SETTINGS[case]
    paths = {"tmp": tmp_path, "data": data_dir, "run": short_run, "config": config_file}
    before = snapshot(short_run)
    code, err = run_process([arg.format(**paths) for arg in argv])
    assert code == 4, err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: category=checkpoint: "), err
    assert field in lines[0]
    # no checkpoint, log or config.yaml written, nothing under gan/
    assert snapshot(short_run) == before


RUN_ARGS = ["--data", "{data}", "--run", "{run}", "--config", "{config}"]
# a --resume the command refuses: its argv on a run of 2 MLE epochs and one
# discriminator and one semantic-evaluator epoch
REFUSED_RESUMES = {
    "pretrain at the last epoch": ["pretrain", *RUN_ARGS, "--epochs", "2", "--resume"],
    "pretrain past the last epoch": ["pretrain", *RUN_ARGS, "--epochs", "1", "--resume"],
    "pretrain-d at the last epoch": ["pretrain-d", *RUN_ARGS, "--epochs", "1", "--resume"],
    "pretrain-se at the last epoch": ["pretrain-se", *RUN_ARGS, "--epochs", "1", "--resume"],
    "train-gan": TRAIN_GAN + ["--lambda", "0", "--resume"],
}


@pytest.mark.parametrize("case", sorted(REFUSED_RESUMES))
def test_refused_resume_leaves_the_run_directory_unchanged(case, full_run, data_dir,
                                                           config_file):
    paths = {"data": data_dir, "run": full_run, "config": config_file}
    before = snapshot(full_run)
    code, err = run_process([arg.format(**paths) for arg in REFUSED_RESUMES[case]])
    assert code == 2, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: category=usage: "), err
    assert "--resume" in lines[0]
    assert snapshot(full_run) == before


# an edit of the MLE generator checkpoint's metadata that --resume refuses
UNRESUMABLE_METADATA = {
    "saved without metadata": lambda meta: None,
    "epoch a string": lambda meta: dict(meta, epoch="1"),
    "another stage": lambda meta: dict(meta, stage="adversarial"),
}


@pytest.mark.parametrize("case", sorted(UNRESUMABLE_METADATA))
def test_resume_refuses_a_checkpoint_it_cannot_continue(case, pretrained, data_dir, config_file):
    ckpt = pretrained / "generator_mle_final.ckpt"
    arrays, meta = load_checkpoint(ckpt, "generator")
    gen = Generator(GeneratorConfig(**meta["config"]), np.random.default_rng(0))
    restore_model(gen, arrays)
    save_checkpoint(ckpt, gen, UNRESUMABLE_METADATA[case](meta))
    before = snapshot(pretrained)
    code, err = run_process(["pretrain", "--data", str(data_dir), "--run", str(pretrained),
                             "--config", str(config_file), "--epochs", "3", "--resume"])
    assert code == EXIT_CODES["checkpoint"], err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: category=checkpoint: "), err
    assert "generator_mle_final.ckpt" in lines[0]
    assert snapshot(pretrained) == before


def test_evaluate_writes_into_missing_directories(data_dir, tmp_path, capsys):
    captions = tmp_path / "captions.jsonl"
    captions.write_text("".join(
        json.dumps({"clip_id": entry["clip_id"], "captions": ["a dog barks"]}) + "\n"
        for entry in json.loads((data_dir / "evaluation.json").read_text())
    ))
    report, per_clip = tmp_path / "a" / "report.json", tmp_path / "b" / "c" / "per_clip.csv"
    code, _, err = run(["evaluate", "--captions", str(captions), "--data", str(data_dir),
                        "--out-json", str(report), "--per-clip-csv", str(per_clip)], capsys)
    assert code == 0, err
    assert json.loads(report.read_text())["n_clips"] == 3
    assert per_clip.read_text().startswith("clip_id,")


def test_every_file_the_pipeline_leaves_goes_through_replaced(tmp_path, config_file,
                                                               monkeypatch, capsys):
    written = []
    real = files.replaced

    @contextlib.contextmanager
    def spy(path, binary=False):
        written.append(Path(path))
        with real(path, binary) as fh:
            yield fh

    monkeypatch.setattr(files, "replaced", spy)
    data, run_dir = tmp_path / "data", tmp_path / "run"
    train = ["--data", data, "--run", run_dir, "--config", config_file, "--epochs", "1"]
    for argv in (
        ["prepare-data", "--out", data, "--synthetic", "--seed", "0", "--clips", "12",
         "--classes", "2", "--feat-dim", "5"],
        ["pretrain", *train],
        ["pretrain-d", *train],
        ["pretrain-se", *train],
        ["train-gan", *train, "--lambda-sweep", "1,0"],
        ["generate", "--data", data, "--run", run_dir, "--n", "2", "--beam-size", "2"],
        ["evaluate", "--captions", run_dir / "captions_gan.jsonl", "--data", data,
         "--out-json", run_dir / "report.json", "--per-clip-csv", run_dir / "per_clip.csv"],
    ):
        code, _, err = run([str(arg) for arg in argv], capsys)
        assert code == 0, err
    left = {p for root in (data, run_dir) for p in root.rglob("*") if p.is_file()}
    assert {p.name for p in left} >= {"train.json", "vocab.txt", "config.yaml", "rewards.csv",
                                      "captions_gan.jsonl", "report.json", "per_clip.csv"}
    assert left <= set(written)
    assert not [p for p in left if p.suffix == ".tmp"]


def test_evaluate_refuses_a_clip_listed_twice(data_dir, tmp_path):
    clip_id = json.loads((data_dir / "evaluation.json").read_text())[0]["clip_id"]
    captions = tmp_path / "twice.jsonl"
    captions.write_text("".join(
        json.dumps({"clip_id": clip_id, "captions": [text]}) + "\n"
        for text in ("a dog barks", "rain falls")
    ))
    report, per_clip = tmp_path / "report.json", tmp_path / "per_clip.csv"
    code, err = run_process(["evaluate", "--captions", str(captions), "--data", str(data_dir),
                             "--out-json", str(report), "--per-clip-csv", str(per_clip)])
    assert code == EXIT_CODES["evaluation"], err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: category=evaluation: "), err
    assert clip_id in lines[0]
    assert not report.exists() and not per_clip.exists()


def _edit_recorded_config(edit):
    def rewrite(path):
        arrays, meta = load_checkpoint(path, "generator")
        gen = Generator(GeneratorConfig(**meta["config"]), np.random.default_rng(0))
        restore_model(gen, arrays)
        meta["config"] = edit(dict(meta["config"]))
        save_checkpoint(path, gen, meta)
    return rewrite


# an edit of the generator checkpoint's recorded config, then what the line names
BAD_RECORDED_CONFIGS = {
    "unknown field": (lambda c: dict(c, extra=1), "extra"),
    "missing field": (lambda c: {k: v for k, v in c.items() if k != "noise_dim"}, "noise_dim"),
    "wrong type": (lambda c: dict(c, n_heads="2"), "n_heads"),
    "d_model not divisible by n_heads": (lambda c: dict(c, n_heads=3), "divisible"),
    "zero noise_dim": (lambda c: dict(c, noise_dim=0), "noise_dim"),
    "dropout of 1": (lambda c: dict(c, dropout=1.0), "dropout"),
}


@pytest.mark.parametrize("case", sorted(BAD_RECORDED_CONFIGS))
def test_generate_refuses_a_bad_recorded_config(case, pretrained, data_dir, tmp_path):
    edit, named = BAD_RECORDED_CONFIGS[case]
    ckpt = tmp_path / "edited.ckpt"
    shutil.copy(pretrained / "generator_mle_final.ckpt", ckpt)
    _edit_recorded_config(edit)(ckpt)
    out = tmp_path / "captions.jsonl"
    code, err = run_process(["generate", "--data", str(data_dir), "--run", str(pretrained),
                             "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == EXIT_CODES["checkpoint"], err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: category=checkpoint: "), err
    assert named in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain-d", "train-gan", "generate"])
def test_missing_checkpoint_leaves_the_run_directory_unchanged(command, data_dir, config_file,
                                                               tmp_path):
    run_dir = tmp_path / "r2"
    run_dir.mkdir()
    if command == "generate":
        # generate reads the run's vocabulary before its checkpoint
        Vocabulary.build([["a", "dog", "barks"]]).save(run_dir / "vocab.txt")
        argv = ["generate", "--data", str(data_dir), "--run", str(run_dir),
                "--checkpoint", str(tmp_path / "missing.ckpt")]
    else:
        argv = [command, "--data", str(data_dir), "--run", str(run_dir),
                "--config", str(config_file), "--epochs", "1"]
    before = snapshot(run_dir)
    code, err = run_process(argv)
    assert code == EXIT_CODES["checkpoint"], err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: category=checkpoint: "), err
    assert "missing checkpoint" in lines[0]
    assert snapshot(run_dir) == before


# a command that reads the run's MLE generator checkpoint, in its argv
READS_THE_GENERATOR = {
    "generate": ["generate", "--data", "{data}", "--run", "{run}", "--checkpoint", "{ckpt}"],
    "pretrain-d --generator": ["pretrain-d", *RUN_ARGS, "--epochs", "1", "--generator", "{ckpt}"],
    "train-gan": TRAIN_GAN,
    "pretrain --resume": ["pretrain", *RUN_ARGS, "--epochs", "3", "--resume"],
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("command", sorted(READS_THE_GENERATOR))
def test_non_finite_checkpoint_is_refused(command, value, full_run, data_dir, config_file):
    ckpt = full_run / "generator_mle_final.ckpt"
    arrays, meta = load_checkpoint(ckpt, "generator")
    gen = Generator(GeneratorConfig(**meta["config"]), np.random.default_rng(0))
    restore_model(gen, arrays)
    gen.params["dec.out.b"].data[0] = value
    save_checkpoint(ckpt, gen, meta)
    paths = {"data": data_dir, "run": full_run, "config": config_file, "ckpt": ckpt}
    before = snapshot(full_run)
    code, err = run_process([arg.format(**paths) for arg in READS_THE_GENERATOR[command]])
    assert code == EXIT_CODES["checkpoint"], err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: category=checkpoint: "), err
    assert "non-finite" in lines[0] and "dec.out.b" in lines[0]
    assert snapshot(full_run) == before


def test_generate_refuses_logits_that_overflow(pretrained, data_dir, tmp_path):
    """A finite checkpoint whose output weights are all 3e38: the logits
    overflow, and the decode stops before a caption file is written."""
    ckpt = tmp_path / "overflow.ckpt"
    arrays, meta = load_checkpoint(pretrained / "generator_mle_final.ckpt", "generator")
    gen = Generator(GeneratorConfig(**meta["config"]), np.random.default_rng(0))
    restore_model(gen, arrays)
    gen.params["dec.out.w"].data[...] = 3e38
    save_checkpoint(ckpt, gen, meta)
    out = tmp_path / "captions.jsonl"
    code, err = run_process(["generate", "--data", str(data_dir), "--run", str(pretrained),
                             "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == EXIT_CODES["diverged"], err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: category=diverged: "), err
    assert not out.exists()


def test_generate_refuses_a_clip_id_that_is_not_a_string(pretrained, data_dir, tmp_path):
    """A manifest clip_id of 7 is refused before any caption is written,
    rather than copied into the caption file for ``evaluate`` to reject."""
    bad = tmp_path / "bad_data"
    shutil.copytree(data_dir, bad)
    manifest = bad / "evaluation.json"
    manifest.write_text(_with_first("clip_id", 7)(manifest.read_text()))
    out = tmp_path / "captions.jsonl"
    code, err = run_process(["generate", "--data", str(bad), "--run", str(pretrained),
                             "--n", "2", "--beam-size", "2", "--out", str(out)])
    assert code == EXIT_CODES["corpus"], err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: category=corpus: "), err
    assert "entry 0: clip_id must be a string" in lines[0]
    assert not out.exists()


def test_checkpoint_with_a_config_hash_still_restores(pretrained, data_dir, tmp_path, capsys):
    """Checkpoints once recorded a ``config_hash`` beside their config; one
    that still carries it restores, and new ones leave it out."""
    ckpt = pretrained / "generator_mle_final.ckpt"
    arrays, meta = load_checkpoint(ckpt, "generator")
    assert "config_hash" not in meta
    gen = Generator(GeneratorConfig(**meta["config"]), np.random.default_rng(0))
    restore_model(gen, arrays)
    save_checkpoint(ckpt, gen, dict(meta, config_hash="0123456789abcdef"))
    restored = Generator(GeneratorConfig(**meta["config"]), np.random.default_rng(1))
    assert cli._restore_into(restored, ckpt)["config_hash"] == "0123456789abcdef"
    for name, tensor in restored.params.items():
        np.testing.assert_array_equal(tensor.data, arrays[name])
    code, _, err = run(["generate", "--data", str(data_dir), "--run", str(pretrained),
                        "--n", "2", "--beam-size", "2", "--out", str(tmp_path / "c.jsonl")],
                       capsys)
    assert code == 0, err


def _rewidth(*clip_ids):
    """An edit of a dataset copy: the feature files of ``clip_ids``
    rewritten with 3 features per frame, where the dataset has 5."""
    def edit(data):
        for clip_id in clip_ids:
            write_features(data / "features" / f"{clip_id}.feat", np.ones((6, 3), np.float32))
    return edit


def _cut_header(data):
    """An edit of a dataset copy: a feature file cut inside its 16-byte header."""
    path = data / "features" / "clip_0000.feat"
    path.write_bytes(path.read_bytes()[:12])


def _zero_width(data):
    """An edit of a dataset copy: every feature file rewritten with 0
    features per frame."""
    for path in (data / "features").glob("*.feat"):
        write_features(path, np.ones((7, 0), np.float32))


EVAL_CLIPS = ("clip_0009", "clip_0010", "clip_0011")
PRETRAIN_BAD = ["pretrain", "--data", "{bad}", "--run", "{tmp}/fresh", "--config", "{config}"]
# the edit of a dataset copy, the argv that reads it, the path it must not
# write, and what the error line names
BAD_FEATURES = {
    "train clip of another width": (
        _rewidth("clip_0003"), PRETRAIN_BAD, "{tmp}/fresh",
        "clip 'clip_0003': 3 features per frame, but clip 'clip_0000' has 5"),
    "evaluation split of another width": (
        _rewidth(*EVAL_CLIPS), PRETRAIN_BAD, "{tmp}/fresh",
        "clip 'clip_0009': 3 features per frame, but the train split has 5"),
    "prepare-data --import-eval of another width": (
        _rewidth(*EVAL_CLIPS),
        ["prepare-data", "--out", "{tmp}/fresh", "--import-train", "{data}/train.json",
         "--import-eval", "{bad}/evaluation.json"], "{tmp}/fresh",
        "clip 'clip_0009': 3 features per frame, but the train split has 5"),
    "generate on another width": (
        _rewidth(*EVAL_CLIPS),
        ["generate", "--data", "{bad}", "--run", "{run}", "--out", "{tmp}/captions.jsonl"],
        "{tmp}/captions.jsonl",
        "clip 'clip_0009': 3 features per frame, but checkpoint"),
    "feature file cut inside its header": (
        _cut_header, PRETRAIN_BAD, "{tmp}/fresh", "clip_0000.feat: truncated feature file"),
    "every clip 0 features wide": (
        _zero_width, PRETRAIN_BAD, "{tmp}/fresh", "clip 'clip_0000': bad feature shape (7, 0)"),
}


@pytest.mark.parametrize("case", sorted(BAD_FEATURES))
def test_bad_features_are_refused_before_anything_is_written(case, data_dir, config_file,
                                                             tmp_path, request):
    edit, argv, unwritten, named = BAD_FEATURES[case]
    bad = tmp_path / "bad_data"
    shutil.copytree(data_dir, bad)
    edit(bad)
    run_dir = request.getfixturevalue("pretrained") if case.startswith("generate") else None
    paths = {"tmp": tmp_path, "data": data_dir, "bad": bad, "config": config_file,
             "run": run_dir}
    code, err = run_process([arg.format(**paths) for arg in argv])
    assert code == EXIT_CODES["corpus"], err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: category=corpus: "), err
    assert named in lines[0]
    assert not Path(unwritten.format(**paths)).exists()


def test_pretrain_without_an_eval_split_writes_no_best_checkpoint(data_dir, config_file,
                                                                  tmp_path, capsys):
    train_only = tmp_path / "train_only"
    run_dir = tmp_path / "run"
    for argv in (["prepare-data", "--out", str(train_only),
                  "--import-train", str(data_dir / "train.json")],
                 ["pretrain", "--data", str(train_only), "--run", str(run_dir),
                  "--config", str(config_file), "--epochs", "2"]):
        code, _, err = run(argv, capsys)
        assert code == 0, err
    assert (run_dir / "generator_mle_final.ckpt").exists()
    assert not (run_dir / "generator_mle_best.ckpt").exists()
