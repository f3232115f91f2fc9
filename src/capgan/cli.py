"""Command-line interface.

Subcommands cover the full workflow: prepare-data, pretrain (generator
MLE), pretrain-d, pretrain-se, train-gan, generate, evaluate. Options
resolve as command-line flags over a YAML config file over ``DEFAULTS``,
which reads each setting's default from the config class that owns it;
every training command writes the merged configuration back into its run
directory so a run is reproducible from its artifacts alone.

Errors exit nonzero with a single machine-parseable line on stderr:
``error: category=<category>: <message>``, with each category's exit code
in ``EXIT_CODES``. Training refuses checkpoints of other model settings.
"""
from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import yaml

from . import files
from .corpus import (
    CorpusError,
    build_vocabulary,
    generate_synthetic_corpus,
    load_dataset,
    save_dataset,
)
from .decoding import DecodeConfig, generate_diverse_set, read_captions, write_captions
from .metrics import evaluate_captions
from .models import (
    CheckpointError,
    Discriminator,
    DiscriminatorConfig,
    Generator,
    GeneratorConfig,
    SemanticEvaluator,
    SemanticEvaluatorConfig,
    config_from_checkpoint,
    fits_type,
    load_checkpoint,
    restore_model,
)
from .seeding import substream
from .tensor import Diverged, quiet_numerics
from .text import EmptyCaptionError, Vocabulary, normalize_and_tokenize
from .training import (
    ABLATION_LAMBDA,
    TrainConfig,
    adversarial_train,
    check_semantic_batches,
    d_pretrain,
    mle_pretrain,
    resumed_records,
    semantic_pretrain,
)

# every run setting but min_count is a config field: the discriminator's
# under d_, the semantic evaluator's under se_, every other under its own name
SETTING_PREFIX = {TrainConfig: "", GeneratorConfig: "", DiscriminatorConfig: "d_",
                  SemanticEvaluatorConfig: "se_"}
# fields set by the data (vocab_size, feat_dim) or by a flag (ablation)
NOT_SETTINGS = ("vocab_size", "feat_dim", "ablation")


def _settings(cls) -> dict:
    """``cls``'s run settings: setting name -> field."""
    return {SETTING_PREFIX[cls] + f.name: f for f in fields(cls) if f.name not in NOT_SETTINGS}


DEFAULTS = {
    "min_count": 1,  # the vocabulary's minimum word count
    **{key: f.default for cls in SETTING_PREFIX for key, f in _settings(cls).items()},
}

LAMBDA_SWEEP_DEFAULT = "1.0,0.7,0.5,0.3,0.0"

EXIT_CODES = {
    "usage": 2, "config": 2, "evaluation": 2, "corpus": 3, "checkpoint": 4, "diverged": 5,
}


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


# -- config plumbing ----------------------------------------------------------


def _resolve_config(args) -> dict:
    """flags > YAML config file > defaults."""
    cfg = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = yaml.safe_load(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, yaml.YAMLError) as exc:
            raise CliError("config", f"cannot read config {config_path}: {exc}")
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise CliError("config", f"{config_path}: top level must be a mapping")
        unknown = sorted(set(loaded) - set(DEFAULTS))
        if unknown:
            raise CliError("config", f"{config_path}: unknown keys {unknown}")
        for key, value in sorted(loaded.items()):
            if not fits_type(value, type(DEFAULTS[key])):
                raise CliError("config", f"{config_path}: {key} must be "
                                         f"{type(DEFAULTS[key]).__name__}, got {value!r}")
        cfg.update(loaded)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _write_merged_config(cfg: dict, run_dir: Path) -> None:
    files.write_text(run_dir / "config.yaml", yaml.safe_dump(cfg, sort_keys=True))


def _checked(make, **kwargs):
    """``make(**kwargs)``, with a value it rejects reported as a usage error."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise CliError("usage", str(exc))


def _config(cls, cfg: dict, **given):
    """A ``cls`` built from the run settings ``cfg`` and the ``given``
    fields, with a value it rejects reported as a usage error."""
    settings = {f.name: cfg[key] for key, f in _settings(cls).items()}
    return _checked(cls, **{**settings, **given})


# -- shared loading -----------------------------------------------------------


def _load_split(data_dir, name: str):
    """The "train" or "evaluation" split of a dataset directory."""
    manifest = Path(data_dir) / f"{name}.json"
    if not manifest.exists():
        raise CliError("corpus", f"no {name} split in {data_dir}")
    return load_dataset(manifest, name)


def _load_splits(data_dir) -> tuple:
    """The train split, and the evaluation split or None if there is none."""
    train = _load_split(data_dir, "train")
    if not (Path(data_dir) / "evaluation.json").exists():
        return train, None
    evaluation = _load_split(data_dir, "evaluation")
    evaluation.check_feat_dim(train.feat_dim, "the train split")
    return train, evaluation


def _load_or_build_vocab(run_dir: Path, train, min_count: int) -> Vocabulary:
    """The run's vocabulary, or one built from the train split if the run
    has none yet; ``_save_vocab`` writes it once the command's inputs are
    checked."""
    vocab_path = run_dir / "vocab.txt"
    if vocab_path.exists():
        return Vocabulary.load(vocab_path)
    return build_vocabulary(train, min_count=min_count)


def _save_vocab(vocab: Vocabulary, run_dir: Path) -> None:
    vocab_path = run_dir / "vocab.txt"
    if not vocab_path.exists():
        vocab.save(vocab_path)


def _model_configs(vocab, cfg: dict, feat_dim: int) -> tuple:
    """The generator, discriminator and semantic-evaluator configs of the
    run. Every training command builds all three, so it refuses a model
    setting that a later command of the run would refuse, before it writes
    anything."""
    return (
        _config(GeneratorConfig, cfg, vocab_size=len(vocab), feat_dim=feat_dim),
        _config(DiscriminatorConfig, cfg, vocab_size=len(vocab)),
        _config(SemanticEvaluatorConfig, cfg, vocab_size=len(vocab), feat_dim=feat_dim),
    )


def _build(cls, config, seed: int | None):
    """A fresh ``cls`` model, initialized from its kind's substream of
    ``seed``; with no seed, all zeros, for a checkpoint to overwrite."""
    return cls(config, None if seed is None else substream(seed, f"{cls.kind}-init"))


def _restore_into(model, path) -> dict:
    """Restore the checkpoint at ``path`` into ``model``, built from the run
    config; a checkpoint recorded with other model settings is refused."""
    arrays, meta = load_checkpoint(path, expected_kind=model.kind)
    recorded = asdict(config_from_checkpoint(type(model.config), meta, path))
    differ = [f"{key} {recorded[key]!r} (run: {value!r})"
              for key, value in asdict(model.config).items() if recorded[key] != value]
    if differ:
        raise CheckpointError(f"{path} was trained with other settings: {', '.join(differ)}")
    restore_model(model, arrays)
    return meta


def _start_epoch(model, stage: str, path: Path, resume: bool, epochs: int) -> int:
    """1, or with ``--resume`` one past the epoch of the checkpoint at
    ``path``, restored into ``model``. Refused before anything is written: a
    checkpoint that records no epoch >= 1 of ``stage``, or one at ``epochs``
    or past it (nothing to train), and a ``stage`` log that cannot be read."""
    if not resume:
        return 1
    if not path.exists():
        raise CliError("usage", f"--resume: no checkpoint at {path}")
    meta = _restore_into(model, path)
    done, recorded = meta.get("epoch"), meta.get("stage", stage)
    if not (fits_type(done, int) and done >= 1 and recorded == stage):
        raise CheckpointError(f"{path}: no {stage} epoch to resume (epoch {done!r} of {recorded})")
    if done >= epochs:
        raise CliError("usage", f"--resume: {path} is at epoch {done}, so --epochs {epochs} "
                                "leaves nothing to train")
    resumed_records(stage, path.parent, done + 1)
    return done + 1


# -- subcommands --------------------------------------------------------------


def cmd_prepare_data(args) -> int:
    if args.synthetic and args.import_train:
        raise CliError("usage", "--synthetic generates a corpus; it cannot run with "
                                "--import-train")
    if args.import_eval and not args.import_train:
        raise CliError("usage", "--import-eval needs --import-train")
    out_dir = Path(args.out)
    train_manifest = out_dir / "train.json"
    if train_manifest.exists() and not args.force:
        raise CliError(
            "usage", f"{train_manifest} exists; pass --force to overwrite"
        )
    if args.import_train:
        train = load_dataset(args.import_train, "train")
        evaluation = None
        if args.import_eval:
            evaluation = load_dataset(args.import_eval, "evaluation")
            evaluation.check_feat_dim(train.feat_dim, "the train split")
    else:
        train, evaluation = _checked(
            generate_synthetic_corpus,
            seed=args.seed if args.seed is not None else DEFAULTS["seed"],
            n_clips=args.clips,
            n_classes=args.classes,
            feat_dim=args.feat_dim,
            eval_fraction=args.eval_fraction,
        )
    save_dataset(train, out_dir, "train.json")
    if evaluation is not None:
        save_dataset(evaluation, out_dir, "evaluation.json")
    n_eval = len(evaluation.records) if evaluation is not None else 0
    print(f"wrote {len(train.records)} train / {n_eval} evaluation clips to {out_dir}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _resolve_config(args)
    config = _config(TrainConfig, cfg)
    run_dir = Path(args.run)
    train, evaluation = _load_splits(args.data)
    vocab = _load_or_build_vocab(run_dir, train, cfg["min_count"])
    gen_config, _, _ = _model_configs(vocab, cfg, train.feat_dim)
    gen = _build(Generator, gen_config, cfg["seed"])
    start_epoch = _start_epoch(gen, "mle", run_dir / "generator_mle_final.ckpt", args.resume,
                               config.mle_epochs)
    _save_vocab(vocab, run_dir)
    _write_merged_config(cfg, run_dir)
    log = mle_pretrain(
        gen, train, evaluation, vocab, config, out_dir=run_dir,
        start_epoch=start_epoch,
    )
    print(
        f"mle pretraining done: epochs {start_epoch}..{config.mle_epochs}, "
        f"final loss {log.records[-1]['mle_loss']:.4f}"
    )
    return 0


def cmd_pretrain_d(args) -> int:
    cfg = _resolve_config(args)
    config = _config(TrainConfig, cfg)
    run_dir = Path(args.run)
    train, _ = _load_splits(args.data)
    vocab = _load_or_build_vocab(run_dir, train, cfg["min_count"])
    gen_config, d_config, _ = _model_configs(vocab, cfg, train.feat_dim)
    gen_ckpt = Path(args.generator) if args.generator else run_dir / "generator_mle_final.ckpt"
    gen = _build(Generator, gen_config, None)
    _restore_into(gen, gen_ckpt)
    d = _build(Discriminator, d_config, cfg["seed"])
    d_ckpt = run_dir / "discriminator_pretrained.ckpt"
    start_epoch = _start_epoch(d, "d-pretrain", d_ckpt, args.resume, config.d_pretrain_epochs)
    _save_vocab(vocab, run_dir)
    _write_merged_config(cfg, run_dir)
    log = d_pretrain(d, gen, train, vocab, config, out_dir=run_dir, start_epoch=start_epoch)
    print(f"discriminator pretraining done: loss {log.records[-1]['d_loss']:.4f}")
    return 0


def cmd_pretrain_se(args) -> int:
    cfg = _resolve_config(args)
    config = _config(TrainConfig, cfg)
    run_dir = Path(args.run)
    train, _ = _load_splits(args.data)
    _checked(check_semantic_batches, train_split=train, config=config)
    vocab = _load_or_build_vocab(run_dir, train, cfg["min_count"])
    _, _, se_config = _model_configs(vocab, cfg, train.feat_dim)
    se = _build(SemanticEvaluator, se_config, cfg["seed"])
    se_ckpt = run_dir / "semantic_evaluator.ckpt"
    start_epoch = _start_epoch(se, "se-pretrain", se_ckpt, args.resume,
                               config.se_pretrain_epochs)
    _save_vocab(vocab, run_dir)
    _write_merged_config(cfg, run_dir)
    log = semantic_pretrain(se, train, vocab, config, cfg["t_max"], out_dir=run_dir,
                            start_epoch=start_epoch)
    print(f"semantic evaluator pretraining done: loss {log.records[-1]['se_loss']:.4f}")
    return 0


def cmd_train_gan(args) -> int:
    if args.resume:
        raise CliError("usage", "train-gan cannot --resume; rerun it from the pretrained models")
    cfg = _resolve_config(args)
    if args.ablation and args.lam is not None and args.lam != ABLATION_LAMBDA[args.ablation]:
        raise CliError("usage", f"--ablation {args.ablation} fixes lambda at "
                                f"{ABLATION_LAMBDA[args.ablation]:g}, not {args.lam:g}")
    if args.lambda_sweep is not None:
        if args.ablation:
            # the ablation pins lambda, so every sweep run would be the same
            raise CliError("usage", f"--ablation {args.ablation} fixes lambda; "
                                    "it cannot run with --lambda-sweep")
        try:
            lambdas = [float(v) for v in args.lambda_sweep.split(",") if v.strip()]
        except ValueError:
            lambdas = []
        if not lambdas:
            raise CliError("usage", f"bad --lambda-sweep value {args.lambda_sweep!r}")
    else:
        lambdas = [cfg["lam"]]
    # every lambda is checked before the first one trains
    configs = [_config(TrainConfig, cfg, lam=lam, ablation=args.ablation) for lam in lambdas]
    run_dir = Path(args.run)
    train, evaluation = _load_splits(args.data)
    vocab = _load_or_build_vocab(run_dir, train, cfg["min_count"])
    gen_config, d_config, se_config = _model_configs(vocab, cfg, train.feat_dim)
    gen_ckpt = Path(args.generator) if args.generator else run_dir / "generator_mle_final.ckpt"
    d_ckpt = Path(args.discriminator) if args.discriminator else run_dir / "discriminator_pretrained.ckpt"
    se_ckpt = Path(args.semantic) if args.semantic else run_dir / "semantic_evaluator.ckpt"

    def restored():
        gen = _build(Generator, gen_config, None)
        d = _build(Discriminator, d_config, None)
        se = _build(SemanticEvaluator, se_config, None)
        for model, path in ((gen, gen_ckpt), (d, d_ckpt), (se, se_ckpt)):
            _restore_into(model, path)
        return gen, d, se

    # every checkpoint is checked before anything is written
    first = restored()
    _save_vocab(vocab, run_dir)
    for i, (lam, config) in enumerate(zip(lambdas, configs)):
        tag = f"ablation_{args.ablation}" if args.ablation else f"lambda_{lam:g}"
        out_dir = run_dir / "gan" / tag
        # fresh copies per lambda so sweep runs are independent
        gen, d, se = first if i == 0 else restored()
        run_cfg = dict(cfg, lam=config.lam)
        _write_merged_config(run_cfg, out_dir)
        log, _ = adversarial_train(
            gen, d, se, train, evaluation, vocab, config, out_dir=out_dir
        )
        note = ""
        if config.lam == 0.0:
            note = " (conventional RL: discriminator and semantic evaluator never queried)"
        print(
            f"{tag}: {config.adversarial_epochs} epochs, "
            f"mean reward {log.records[-1]['mean_reward']:.4f}{note}"
        )
    return 0


@quiet_numerics
def cmd_generate(args) -> int:
    run_dir = Path(args.run)
    vocab_path = run_dir / "vocab.txt"
    if not vocab_path.exists():
        raise CliError("usage", f"no vocabulary at {vocab_path}; run pretrain first")
    vocab = Vocabulary.load(vocab_path)
    ckpt = Path(args.checkpoint) if args.checkpoint else run_dir / "generator_mle_final.ckpt"
    arrays, meta = load_checkpoint(ckpt, expected_kind=Generator.kind)
    gen = _build(Generator, config_from_checkpoint(GeneratorConfig, meta, ckpt), None)
    restore_model(gen, arrays)
    split = _load_split(args.data, args.split)
    split.check_feat_dim(gen.config.feat_dim, f"checkpoint {ckpt}")
    decode = _checked(DecodeConfig, beam_size=args.beam_size, n_captions=args.n)
    rng = substream(args.seed if args.seed is not None else 0, "generate-noise")
    rows = []
    underfilled = 0
    for record in split.records:
        features = record.features[None]
        feat_lengths = np.array([record.features.shape[0]])
        seqs, scores, flagged = generate_diverse_set(
            gen, features, feat_lengths, decode, rng, mode=args.mode
        )
        underfilled += bool(flagged)
        rows.append(
            {
                "clip_id": record.clip_id,
                "captions": [" ".join(vocab.decode(s)) for s in seqs],
                "scores": [round(float(s), 6) for s in scores],
            }
        )
    out_path = Path(args.out) if args.out else run_dir / f"captions_{args.mode}.jsonl"
    write_captions(out_path, rows)
    note = f" ({underfilled} clips underfilled)" if underfilled else ""
    print(f"wrote {len(rows)} clips x {args.n} captions to {out_path}{note}")
    return 0


def cmd_evaluate(args) -> int:
    split = _load_split(args.data, args.split)
    references = {r.clip_id: r.references for r in split.records}
    try:
        rows = read_captions(args.captions)
    except ValueError as exc:  # also bad UTF-8
        raise CliError("evaluation", f"{args.captions}: {exc}")
    generated = {}
    for row in rows:
        if row["clip_id"] in generated:
            raise CliError("evaluation", f"{args.captions}: clip {row['clip_id']} has more "
                                         "than one row")
        try:
            generated[row["clip_id"]] = [
                normalize_and_tokenize(c) for c in row["captions"]
            ]
        except EmptyCaptionError as exc:
            raise CliError("evaluation", f"clip {row['clip_id']}: {exc}")
    try:
        report = evaluate_captions(generated, references)
    except ValueError as exc:
        raise CliError("evaluation", str(exc))
    print(report.to_table(), end="")
    if args.out_json:
        files.write_text(args.out_json, report.to_json())
    if args.per_clip_csv:
        report.write_per_clip_csv(args.per_clip_csv)
    return 0


# -- parser -------------------------------------------------------------------


def _add_train_options(p, epochs_dest: str):
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--run", required=True, help="run directory for artifacts")
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--epochs", type=int, dest=epochs_dest, help="epoch count override")
    p.add_argument("--seed", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--t-max", type=int, dest="t_max")
    p.add_argument("--resume", action="store_true", help="continue from the saved checkpoint")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capgan",
        description="Conditional-GAN audio captioning: data, training, decoding, metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare-data", help="create or import a dataset directory")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--synthetic", action="store_true", help="generate a synthetic corpus (default)")
    p.add_argument("--import-train", help="existing train manifest to import")
    p.add_argument("--import-eval", help="existing evaluation manifest to import")
    p.add_argument("--seed", type=int)
    p.add_argument("--clips", type=int, default=60)
    p.add_argument("--classes", type=int, default=4)
    corpus_params = inspect.signature(generate_synthetic_corpus).parameters
    p.add_argument("--feat-dim", type=int, default=corpus_params["feat_dim"].default,
                   dest="feat_dim")
    p.add_argument("--eval-fraction", type=float, default=corpus_params["eval_fraction"].default,
                   dest="eval_fraction")
    p.set_defaults(func=cmd_prepare_data)

    p = sub.add_parser("pretrain", help="MLE pretraining of the caption generator")
    _add_train_options(p, "mle_epochs")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("pretrain-d", help="pretrain the discriminator")
    _add_train_options(p, "d_pretrain_epochs")
    p.add_argument("--generator", help="generator checkpoint (default: run dir MLE final)")
    p.set_defaults(func=cmd_pretrain_d)

    p = sub.add_parser("pretrain-se", help="pretrain the semantic evaluator")
    _add_train_options(p, "se_pretrain_epochs")
    p.set_defaults(func=cmd_pretrain_se)

    p = sub.add_parser("train-gan", help="adversarial training with self-critical updates")
    _add_train_options(p, "adversarial_epochs")
    p.add_argument("--lambda", type=float, dest="lam", help="reward mixing weight")
    p.add_argument(
        "--lambda-sweep", nargs="?", const=LAMBDA_SWEEP_DEFAULT, dest="lambda_sweep",
        help=f"comma-separated lambdas, one run per value (default {LAMBDA_SWEEP_DEFAULT})",
    )
    p.add_argument("--ablation", choices=("nd", "se", "le"))
    p.add_argument("--generator", help="generator checkpoint")
    p.add_argument("--discriminator", help="discriminator checkpoint")
    p.add_argument("--semantic", help="semantic evaluator checkpoint")
    p.set_defaults(func=cmd_train_gan)

    p = sub.add_parser("generate", help="decode captions for a split")
    p.add_argument("--data", required=True)
    p.add_argument("--run", required=True)
    p.add_argument("--checkpoint", help="generator checkpoint (default: run dir MLE final)")
    p.add_argument("--split", choices=("train", "evaluation"), default="evaluation")
    p.add_argument("--mode", choices=("mle", "gan"), default="gan")
    p.add_argument("-n", "--n", type=int, default=DecodeConfig.n_captions,
                   help="captions per clip")
    p.add_argument("--beam-size", type=int, default=DecodeConfig.beam_size, dest="beam_size")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output JSONL path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="accuracy and diversity metrics for generated captions")
    p.add_argument("--captions", required=True, help="JSONL from the generate command")
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "evaluation"), default="evaluation")
    p.add_argument("--out-json", dest="out_json", help="write the metric report as JSON")
    p.add_argument("--per-clip-csv", dest="per_clip_csv", help="write per-clip metrics as CSV")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        category, message = exc.category, str(exc)
    except CorpusError as exc:
        category, message = "corpus", str(exc)
    except CheckpointError as exc:
        category, message = "checkpoint", str(exc)
    except Diverged as exc:
        category, message = "diverged", str(exc)
    except FileNotFoundError as exc:
        category, message = "usage", str(exc)
    print(f"error: category={category}: {message}", file=sys.stderr)
    return EXIT_CODES[category]


if __name__ == "__main__":
    sys.exit(main())
