import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import capgan
from capgan.cli import EXIT_CODES, main
from capgan.decoding import read_captions
from capgan.models import (
    Generator,
    GeneratorConfig,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)


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
        assert [r["epoch"] for r in log] == [3, 4]

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
    "pretrain --batch-size 0": (
        ["pretrain", "--data", "{data}", "--run", "{tmp}/fresh", "--config", "{config}",
         "--batch-size", "0"], "{tmp}/fresh"),
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


# a malformed input: the command that reads it, the caption file's text or
# an edit of the train manifest, the category it fails with, what the line names
MALFORMED_INPUTS = {
    "caption line not JSON": ("evaluate", '{"clip_id": "clip_0009", "captions": [\n',
                              "evaluation", "line 1"),
    "caption row without clip_id": ("evaluate", json.dumps({"captions": ["a dog barks"]}) + "\n",
                                    "evaluation", "clip_id"),
    "manifest not JSON": ("pretrain", lambda text: "[{", "corpus", "train.json"),
    "manifest entry without clip_id": ("pretrain", _without("clip_id"), "corpus", "clip_id"),
    "manifest entry without feature_file": (
        "pretrain", _without("feature_file"), "corpus", "feature_file"),
    "manifest entry without captions": ("pretrain", _without("captions"), "corpus", "captions"),
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


@pytest.mark.parametrize("command", ["pretrain-d", "train-gan"])
def test_missing_checkpoint_leaves_the_run_directory_unchanged(command, data_dir, config_file,
                                                               tmp_path):
    run_dir = tmp_path / "r2"
    run_dir.mkdir()
    code, err = run_process([command, "--data", str(data_dir), "--run", str(run_dir),
                             "--config", str(config_file), "--epochs", "1"])
    assert code == EXIT_CODES["checkpoint"], err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: category=checkpoint: "), err
    assert list(run_dir.iterdir()) == []
