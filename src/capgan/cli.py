"""Command-line interface.

Subcommands cover the full workflow: prepare-data, pretrain (generator
MLE), pretrain-d, pretrain-se, train-gan, generate, evaluate. Options
resolve as command-line flags over a YAML config file over built-in
defaults; every training command writes the merged configuration back
into its run directory so a run is reproducible from its artifacts alone.

Errors exit nonzero with a single machine-parseable line on stderr:
``error: category=<category>: <message>``, with each category's exit code
in ``EXIT_CODES``. Training refuses checkpoints of other model settings.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import yaml

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
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from .seeding import substream
from .text import EmptyCaptionError, Vocabulary, normalize_and_tokenize
from .training import (
    ABLATION_LAMBDA,
    TrainConfig,
    TrainingDiverged,
    adversarial_train,
    d_pretrain,
    mle_pretrain,
    semantic_pretrain,
)

DEFAULTS = {
    "seed": 0,
    "batch_size": 32,
    "learning_rate": 1e-4,
    "lam": 0.5,
    "mle_epochs": 25,
    "d_pretrain_epochs": 5,
    "se_pretrain_epochs": 25,
    "adversarial_epochs": 30,
    "t_max": 22,
    "min_count": 1,
    "d_model": 128,
    "n_layers": 2,
    "n_heads": 4,
    "d_ff": 256,
    "noise_dim": 64,
    "dropout": 0.1,
    "d_embed_dim": 64,
    "d_hidden_dim": 128,
    "se_embed_dim": 64,
    "se_hidden_dim": 128,
    "se_out_dim": 128,
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


def _has_default_type(value, default) -> bool:
    """An int field takes only ints; a float field takes floats and ints;
    bools are neither."""
    if isinstance(value, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


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
            if not _has_default_type(value, DEFAULTS[key]):
                raise CliError(
                    "config",
                    f"{config_path}: {key} must be {type(DEFAULTS[key]).__name__}, "
                    f"got {value!r}",
                )
        cfg.update(loaded)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _write_merged_config(cfg: dict, run_dir: Path) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.yaml").write_text(
        yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8"
    )


def _checked(make, **kwargs):
    """``make(**kwargs)``, with a value it rejects reported as a usage error."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise CliError("usage", str(exc))


def _train_config(cfg: dict, **overrides) -> TrainConfig:
    fields = (
        "lam", "mle_epochs", "d_pretrain_epochs", "se_pretrain_epochs",
        "adversarial_epochs", "batch_size", "learning_rate", "seed",
    )
    kwargs = {f: cfg[f] for f in fields}
    kwargs.update(overrides)
    return _checked(TrainConfig, **kwargs)


# -- shared loading -----------------------------------------------------------


def _load_split(data_dir, name: str):
    """The "train" or "evaluation" split of a dataset directory."""
    manifest = Path(data_dir) / f"{name}.json"
    if not manifest.exists():
        raise CliError("corpus", f"no {name} split in {data_dir}")
    return load_dataset(manifest, name)


def _load_splits(data_dir) -> tuple:
    """The train split, and the evaluation split or None if there is none."""
    has_eval = (Path(data_dir) / "evaluation.json").exists()
    return (_load_split(data_dir, "train"),
            _load_split(data_dir, "evaluation") if has_eval else None)


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
        run_dir.mkdir(parents=True, exist_ok=True)
        vocab.save(vocab_path)


def _data_feat_dim(train) -> int:
    return train.records[0].features.shape[1]


def _build_generator(vocab, cfg: dict, feat_dim: int) -> Generator:
    config = GeneratorConfig(
        vocab_size=len(vocab), feat_dim=feat_dim, d_model=cfg["d_model"],
        n_layers=cfg["n_layers"], n_heads=cfg["n_heads"], d_ff=cfg["d_ff"],
        noise_dim=cfg["noise_dim"], t_max=cfg["t_max"], dropout=cfg["dropout"],
    )
    return Generator(config, substream(cfg["seed"], "generator-init"))


def _build_discriminator(vocab, cfg: dict) -> Discriminator:
    config = DiscriminatorConfig(
        vocab_size=len(vocab), embed_dim=cfg["d_embed_dim"],
        hidden_dim=cfg["d_hidden_dim"],
    )
    return Discriminator(config, substream(cfg["seed"], "discriminator-init"))


def _build_semantic(vocab, cfg: dict, feat_dim: int) -> SemanticEvaluator:
    config = SemanticEvaluatorConfig(
        vocab_size=len(vocab), feat_dim=feat_dim, embed_dim=cfg["se_embed_dim"],
        hidden_dim=cfg["se_hidden_dim"], out_dim=cfg["se_out_dim"],
    )
    return SemanticEvaluator(config, substream(cfg["seed"], "semantic-init"))


def _restore_into(model, path, kind: str) -> dict:
    """Restore the checkpoint at ``path`` into ``model``, built from the run
    config; a checkpoint recorded with other model settings is refused."""
    if not Path(path).exists():
        raise CliError("checkpoint", f"missing checkpoint {path}")
    arrays, meta = load_checkpoint(path, expected_kind=kind)
    recorded = asdict(config_from_checkpoint(type(model.config), meta, path))
    differ = [f"{key} {recorded[key]!r} (run: {value!r})"
              for key, value in asdict(model.config).items() if recorded[key] != value]
    if differ:
        raise CheckpointError(f"{path} was trained with other settings: {', '.join(differ)}")
    restore_model(model, arrays)
    return meta


def _start_epoch(model, path: Path, kind: str, resume: bool) -> int:
    """1, or with ``--resume`` one past the epoch of the checkpoint at
    ``path``, restored into ``model``."""
    if not resume:
        return 1
    if not path.exists():
        raise CliError("usage", f"--resume: no checkpoint at {path}")
    return _restore_into(model, path, kind)["epoch"] + 1


# -- subcommands --------------------------------------------------------------


def cmd_prepare_data(args) -> int:
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
        evaluation = load_dataset(args.import_eval, "evaluation") if args.import_eval else None
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
    config = _train_config(cfg)
    run_dir = Path(args.run)
    train, evaluation = _load_splits(args.data)
    vocab = _load_or_build_vocab(run_dir, train, cfg["min_count"])
    gen = _build_generator(vocab, cfg, _data_feat_dim(train))
    start_epoch = _start_epoch(gen, run_dir / "generator_mle_final.ckpt", "generator",
                               args.resume)
    _save_vocab(vocab, run_dir)
    _write_merged_config(cfg, run_dir)
    log = mle_pretrain(
        gen, train, evaluation, vocab, config, out_dir=run_dir,
        start_epoch=start_epoch,
    )
    log.save_jsonl(run_dir / "mle_log.jsonl")
    last = log.records[-1] if log.records else {}
    print(
        f"mle pretraining done: epochs {start_epoch}..{config.mle_epochs}, "
        f"final loss {last.get('mle_loss', float('nan')):.4f}"
    )
    return 0


def cmd_pretrain_d(args) -> int:
    cfg = _resolve_config(args)
    config = _train_config(cfg)
    run_dir = Path(args.run)
    train, _ = _load_splits(args.data)
    vocab = _load_or_build_vocab(run_dir, train, cfg["min_count"])
    gen_ckpt = Path(args.generator) if args.generator else run_dir / "generator_mle_final.ckpt"
    gen = _build_generator(vocab, cfg, _data_feat_dim(train))
    _restore_into(gen, gen_ckpt, "generator")
    d = _build_discriminator(vocab, cfg)
    d_ckpt = run_dir / "discriminator_pretrained.ckpt"
    start_epoch = _start_epoch(d, d_ckpt, "discriminator", args.resume)
    _save_vocab(vocab, run_dir)
    _write_merged_config(cfg, run_dir)
    log = d_pretrain(d, gen, train, vocab, config, start_epoch=start_epoch)
    save_checkpoint(d_ckpt, d, {"epoch": config.d_pretrain_epochs, "seed": cfg["seed"],
                                "stage": "d-pretrain"})
    log.save_jsonl(run_dir / "d_log.jsonl")
    last = log.records[-1] if log.records else {}
    print(f"discriminator pretraining done: loss {last.get('d_loss', float('nan')):.4f}")
    return 0


def cmd_pretrain_se(args) -> int:
    cfg = _resolve_config(args)
    config = _train_config(cfg)
    run_dir = Path(args.run)
    train, _ = _load_splits(args.data)
    vocab = _load_or_build_vocab(run_dir, train, cfg["min_count"])
    se = _build_semantic(vocab, cfg, _data_feat_dim(train))
    se_ckpt = run_dir / "semantic_evaluator.ckpt"
    start_epoch = _start_epoch(se, se_ckpt, "semantic", args.resume)
    _save_vocab(vocab, run_dir)
    _write_merged_config(cfg, run_dir)
    log = semantic_pretrain(se, train, vocab, config, cfg["t_max"], start_epoch=start_epoch)
    save_checkpoint(se_ckpt, se, {"epoch": config.se_pretrain_epochs, "seed": cfg["seed"],
                                  "stage": "se-pretrain"})
    log.save_jsonl(run_dir / "se_log.jsonl")
    last = log.records[-1] if log.records else {}
    print(f"semantic evaluator pretraining done: loss {last.get('se_loss', float('nan')):.4f}")
    return 0


def cmd_train_gan(args) -> int:
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
    configs = [_train_config(cfg, lam=lam, ablation=args.ablation) for lam in lambdas]
    run_dir = Path(args.run)
    train, evaluation = _load_splits(args.data)
    vocab = _load_or_build_vocab(run_dir, train, cfg["min_count"])
    feat_dim = _data_feat_dim(train)
    gen_ckpt = Path(args.generator) if args.generator else run_dir / "generator_mle_final.ckpt"
    d_ckpt = Path(args.discriminator) if args.discriminator else run_dir / "discriminator_pretrained.ckpt"
    se_ckpt = Path(args.semantic) if args.semantic else run_dir / "semantic_evaluator.ckpt"

    def restored():
        gen = _build_generator(vocab, cfg, feat_dim)
        _restore_into(gen, gen_ckpt, "generator")
        d = _build_discriminator(vocab, cfg)
        _restore_into(d, d_ckpt, "discriminator")
        se = _build_semantic(vocab, cfg, feat_dim)
        _restore_into(se, se_ckpt, "semantic")
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
        log, oracles = adversarial_train(
            gen, d, se, train, evaluation, vocab, config, out_dir=out_dir
        )
        log.save_jsonl(out_dir / "train_log.jsonl")
        log.save_reward_csv(out_dir / "rewards.csv")
        last = log.records[-1] if log.records else {}
        note = ""
        if config.lam == 0.0:
            note = " (conventional RL: discriminator and semantic evaluator never queried)"
        print(
            f"{tag}: {config.adversarial_epochs} epochs, "
            f"mean reward {last.get('mean_reward', float('nan')):.4f}{note}"
        )
    return 0


def cmd_generate(args) -> int:
    run_dir = Path(args.run)
    vocab_path = run_dir / "vocab.txt"
    if not vocab_path.exists():
        raise CliError("usage", f"no vocabulary at {vocab_path}; run pretrain first")
    vocab = Vocabulary.load(vocab_path)
    ckpt = Path(args.checkpoint) if args.checkpoint else run_dir / "generator_mle_final.ckpt"
    arrays, meta = load_checkpoint(ckpt, expected_kind="generator")
    gen = Generator(config_from_checkpoint(GeneratorConfig, meta, ckpt),
                    substream(0, "generator-init"))
    restore_model(gen, arrays)
    split = _load_split(args.data, args.split)
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
    out_path.parent.mkdir(parents=True, exist_ok=True)
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
        Path(args.out_json).write_text(report.to_json(), encoding="utf-8")
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
    p.add_argument("--feat-dim", type=int, default=64, dest="feat_dim")
    p.add_argument("--eval-fraction", type=float, default=0.25, dest="eval_fraction")
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
    p.add_argument("-n", "--n", type=int, default=5, help="captions per clip")
    p.add_argument("--beam-size", type=int, default=5, dest="beam_size")
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
    except TrainingDiverged as exc:
        category, message = "diverged", str(exc)
    except FileNotFoundError as exc:
        category, message = "usage", str(exc)
    print(f"error: category={category}: {message}", file=sys.stderr)
    return EXIT_CODES[category]


if __name__ == "__main__":
    sys.exit(main())
