"""Training procedures: MLE pretraining of the generator, discriminator
and semantic-evaluator pretraining, and the adversarial loop with the
self-critical policy-gradient generator update.

The generator's adversarial reward mixes three signals per complete
caption: the discriminator's naturalness probability n, the semantic
evaluator's cosine s, and the CIDEr score c, combined as
``lam * (n + s) + (1 - lam) * c``. The greedy rollout's reward serves as
the baseline, so only sampled captions that beat greedy decoding push
their token probabilities up.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import files
from .corpus import DatasetSplit, epoch_batches
from .decoding import rollout
from .metrics import DocFreqTable, build_doc_freq, cider, reference_vectors
from .models import (
    CheckpointError,
    Discriminator,
    Generator,
    SemanticEvaluator,
    pad,
    save_checkpoint,
)
from .seeding import substream
from .tensor import Adam, Diverged, Tensor, cross_entropy, no_grad, quiet_numerics


# the lam each ablation pins, so its reward is exactly one term:
# the discriminator (nd), the semantic evaluator (se) or CIDEr (le)
ABLATION_LAMBDA = {"nd": 1.0, "se": 1.0, "le": 0.0}

# the semantic evaluator's ranking margin
SE_MARGIN = 0.2

# each stage's log file in its output directory
LOG_FILES = {"mle": "mle_log.jsonl", "d-pretrain": "d_log.jsonl",
             "se-pretrain": "se_log.jsonl", "adversarial": "train_log.jsonl"}

# the checkpoint each pretraining stage writes in its output directory
CHECKPOINTS = {"mle": "generator_mle_final.ckpt", "d-pretrain": "discriminator_pretrained.ckpt",
               "se-pretrain": "semantic_evaluator.ckpt"}

# each stage's substream, which orders its batches
DATA_STREAMS = {"mle": "mle-data", "d-pretrain": "d-data",
                "se-pretrain": "se-data", "adversarial": "adv-data"}


@dataclass
class TrainConfig:
    lam: float = 0.5
    mle_epochs: int = 25
    d_pretrain_epochs: int = 5
    se_pretrain_epochs: int = 25
    adversarial_epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-4
    seed: int = 0
    ablation: str | None = None  # nd | se | le

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must be in [0, 1]")
        self.lam = abs(self.lam)  # -0.0 would name its run directory lambda_-0
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for name in ("mle_epochs", "d_pretrain_epochs", "se_pretrain_epochs",
                     "adversarial_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.ablation not in (None, *ABLATION_LAMBDA):
            raise ValueError(f"unknown ablation {self.ablation!r}")
        if self.ablation is not None:
            self.lam = ABLATION_LAMBDA[self.ablation]


@dataclass
class RewardBreakdown:
    n: float  # discriminator naturalness
    s: float  # semantic cosine
    c: float  # CIDEr
    lam: float
    total: float = field(init=False)

    def __post_init__(self):
        self.total = self.lam * (self.n + self.s) + (1.0 - self.lam) * self.c


@dataclass
class TrainLog:
    records: list[dict] = field(default_factory=list)

    def append(self, **record) -> None:
        if self.records and record["epoch"] <= self.records[-1]["epoch"]:
            raise ValueError("epoch index must be strictly increasing")
        self.records.append(record)

    def save_jsonl(self, path) -> None:
        files.write_jsonl(path, self.records)

    def save_reward_csv(self, path) -> None:
        keys = ["epoch", "mean_n", "mean_s", "mean_c", "mean_reward"]
        files.write_csv(path, keys, ([record.get(k, "") for k in keys] for record in self.records))


def resumed_records(stage: str, out_dir, start_epoch: int) -> list[dict]:
    """The records of the epochs before ``start_epoch`` in ``stage``'s log
    file in ``out_dir``; none when the stage starts at epoch 1 or has no
    log file. A log that cannot be read is a ``CheckpointError``."""
    path = Path(out_dir) / LOG_FILES[stage]
    if start_epoch <= 1 or not path.exists():
        return []
    try:
        records = map(json.loads, path.read_text(encoding="utf-8").splitlines())
        return [r for r in records if r["epoch"] < start_epoch]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"cannot resume from log {path}: {exc!r}") from None


@quiet_numerics
def run_stage(stage: str, split: DatasetSplit, vocab, config: TrainConfig, t_max: int,
              epochs: int, step, end_epoch, out_dir=None, start_epoch: int = 1) -> TrainLog:
    """Trains ``stage`` for epochs ``start_epoch``..``epochs``: ``step(batch)``
    on each of an epoch's batches, then ``end_epoch(epoch, the steps' results,
    log)`` gives the epoch's record and its ``(file name, model)``
    checkpoints. The record is logged; with an ``out_dir`` the log file is
    written there, and each checkpoint, stamped with the epoch, the seed and
    the stage. A resumed stage keeps its log file's records of the epochs
    before ``start_epoch``."""
    log = TrainLog()
    if out_dir is not None:
        out_dir = Path(out_dir)
        log.records = resumed_records(stage, out_dir, start_epoch)
    data_rng = substream(config.seed, DATA_STREAMS[stage])
    for epoch in range(start_epoch, epochs + 1):
        results = [step(batch) for batch in
                   epoch_batches(split, vocab, config.batch_size, data_rng, t_max=t_max)]
        record, checkpoints = end_epoch(epoch, results, log)
        log.append(**record)
        if out_dir is not None:
            log.save_jsonl(out_dir / LOG_FILES[stage])
            if stage == "adversarial":
                log.save_reward_csv(out_dir / "rewards.csv")
            meta = {"epoch": epoch, "seed": config.seed, "stage": stage}
            for name, model in checkpoints:
                save_checkpoint(out_dir / name, model, meta)
    return log


class RewardOracles:
    """Scores complete captions; counts queries so degenerate modes can
    prove they never touched a frozen judge.

    Each judge in use runs once per ``score`` call over all its captions,
    without a tape. The evaluator's audio embedding and the CIDEr
    reference vectors are computed once per clip, on its first use, so
    the evaluator must stay frozen while the oracles are in use.
    """

    def __init__(self, discriminator, evaluator, df_table: DocFreqTable, vocab):
        self.discriminator = discriminator
        self.evaluator = evaluator
        self.df_table = df_table
        self.vocab = vocab
        self.d_queries = 0
        self.se_queries = 0
        self._audio: dict[str, np.ndarray] = {}
        self._refs: dict[str, list] = {}

    def _audio_embedding(self, record) -> np.ndarray:
        # the clip alone, at its own length: a padded batch would see the
        # conv's padding at the clip's last frame
        if record.clip_id not in self._audio:
            features = record.features
            with no_grad():
                audio = self.evaluator.embed_audio(features[None], np.array([len(features)]))
            self._audio[record.clip_id] = audio.data[0]
        return self._audio[record.clip_id]

    def _reference_vectors(self, record) -> list:
        if record.clip_id not in self._refs:
            self._refs[record.clip_id] = reference_vectors(record.references, self.df_table)
        return self._refs[record.clip_id]

    def score(self, seqs: list[list[int]], records: list,
              config: TrainConfig) -> list[RewardBreakdown]:
        """One reward per caption; ``seqs[i]`` is scored for ``records[i]``'s clip."""
        lam = config.lam
        n = s = c = [0.0] * len(seqs)
        if lam > 0.0 and config.ablation != "se":
            self.d_queries += len(seqs)
            n = self.discriminator.score(seqs).tolist()
        if lam > 0.0 and config.ablation != "nd":
            self.se_queries += len(seqs)
            audio = np.stack([self._audio_embedding(r) for r in records])
            s = self.evaluator.score(audio, seqs).tolist()
        if lam < 1.0:
            c = [
                cider(self.vocab.decode(seq), r.references, self.df_table,
                      self._reference_vectors(r))
                for seq, r in zip(seqs, records)
            ]
        return [RewardBreakdown(n=n_i, s=s_i, c=c_i, lam=lam) for n_i, s_i, c_i in zip(n, s, c)]


def _optimize(opt: Adam, loss: Tensor, what: str) -> float:
    """One update down a loss, refused if the loss is non-finite;
    returns the loss value. The loss's graph is released by its backward,
    and the gradients are dropped after the step, so neither outlives the
    update into the next forward."""
    value = loss.item()
    if not np.isfinite(value):
        raise Diverged(f"{what} became non-finite ({value})")
    loss.backward()
    opt.step()
    opt.zero_grad()
    return value


# -- MLE pretraining ----------------------------------------------------------


def teacher_forcing(tokens: np.ndarray, lengths: np.ndarray):
    """The teacher-forced split of padded captions [B, L] (sos ... eos,
    then padding) of ``lengths``: the decoder inputs [B, L-1], the targets
    [B, L-1] they predict, and the float64 mask [B, L-1] of the targets
    that are real, not padding."""
    predicted = np.arange(tokens.shape[1] - 1)[None, :] < (lengths - 1)[:, None]
    return tokens[:, :-1], tokens[:, 1:], predicted.astype(np.float64)


def _eval_greedy_cider(gen, split: DatasetSplit, ref_vecs: list, vocab, df_table) -> float:
    """Mean CIDEr of the zero-noise greedy captions of a split, decoded in
    one rollout, against ``ref_vecs``, each clip's ``reference_vectors``.
    Each clip is encoded alone, at its own length: a padded batch would
    see the conv's padding at the clip's last frame. The decoder masks the
    zero frames padded onto the shorter memories."""
    records = split.records
    features, lengths = pad([r.features for r in records])
    z = np.zeros((len(records), gen.config.noise_dim))
    with no_grad():
        memory, _ = pad([
            gen.encode(r.features[None], lengths[i : i + 1], z[i : i + 1]).data[0]
            for i, r in enumerate(records)
        ])
    seqs, _ = rollout(gen, features, lengths, z, "greedy", max_length=gen.config.t_max,
                      memory=Tensor(memory))
    scores = [cider(vocab.decode(seq), r.references, df_table, vecs)
              for seq, r, vecs in zip(seqs, records, ref_vecs)]
    return float(np.mean(scores))


def _eval_references(split: DatasetSplit | None, df_table) -> list:
    """Each eval clip's ``reference_vectors``, computed once per run; empty
    when there is no eval split."""
    records = split.records if split is not None else []
    return [reference_vectors(r.references, df_table) for r in records]


def mle_pretrain(
    gen: Generator,
    train_split: DatasetSplit,
    eval_split: DatasetSplit | None,
    vocab,
    config: TrainConfig,
    out_dir=None,
    start_epoch: int = 1,
) -> TrainLog:
    """Teacher-forced cross-entropy training; noise held at zero. With an
    eval split, the best checkpoint follows the highest eval CIDEr in the
    log, resumed or not; without one there is no best checkpoint."""
    opt = Adam(gen.store.tensors(), lr=config.learning_rate)
    drop_rng = substream(config.seed, "mle-dropout")
    df_table = build_doc_freq([r.references for r in train_split.records])
    eval_refs = _eval_references(eval_split, df_table)

    def step(batch):
        z = np.zeros((len(batch.clip_ids), gen.config.noise_dim))
        inputs, targets, mask = teacher_forcing(batch.captions, batch.caption_lengths)
        logits = gen.forward(batch.features, batch.feature_lengths, z, inputs, drop_rng=drop_rng)
        return _optimize(opt, cross_entropy(logits, targets, mask), "MLE loss")

    def end_epoch(epoch, losses, log):
        record = {"epoch": epoch, "mle_loss": float(np.mean(losses))}
        checkpoints = [(CHECKPOINTS["mle"], gen)]
        if eval_refs:
            record["eval_cider"] = _eval_greedy_cider(gen, eval_split, eval_refs, vocab, df_table)
            best = max((r.get("eval_cider", -1.0) for r in log.records), default=-1.0)
            if record["eval_cider"] >= best:
                checkpoints.append(("generator_mle_best.ckpt", gen))
        return record, checkpoints

    return run_stage("mle", train_split, vocab, config, gen.config.t_max, config.mle_epochs,
                     step, end_epoch, out_dir, start_epoch)


# -- discriminator ------------------------------------------------------------


def discriminator_loss(d: Discriminator, real_tokens, real_lengths,
                       fake_tokens, fake_lengths) -> Tensor:
    """Negated adversarial objective: -E log D(real) - E log(1 - D(fake))."""
    eps = 1e-12
    real = d.forward(real_tokens, real_lengths)
    fake = d.forward(fake_tokens, fake_lengths)
    loss_real = -(real + eps).log().mean()
    loss_fake = -((1.0 - fake) + eps).log().mean()
    return loss_real + loss_fake


def discriminator_step(d: Discriminator, opt: Adam, gen: Generator, batch,
                       fake_rng: np.random.Generator) -> float:
    """One update on ``batch``'s references against captions ``gen`` samples
    for its clips with ``fake_rng``; returns the loss."""
    z = fake_rng.standard_normal((len(batch.clip_ids), gen.config.noise_dim))
    fakes, _ = rollout(
        gen, batch.features, batch.feature_lengths, z, "sample",
        rng=fake_rng, max_length=gen.config.t_max,
    )
    fake_tokens, fake_lengths = pad(fakes)
    loss = discriminator_loss(d, batch.captions, batch.caption_lengths, fake_tokens, fake_lengths)
    return _optimize(opt, loss, "discriminator loss")


def d_pretrain(
    d: Discriminator,
    gen: Generator,
    train_split: DatasetSplit,
    vocab,
    config: TrainConfig,
    out_dir=None,
    start_epoch: int = 1,
) -> TrainLog:
    """Real references vs. captions sampled from the current generator."""
    opt = Adam(d.store.tensors(), lr=config.learning_rate)
    fake_rng = substream(config.seed, "d-fakes")
    return run_stage(
        "d-pretrain", train_split, vocab, config, gen.config.t_max, config.d_pretrain_epochs,
        lambda batch: discriminator_step(d, opt, gen, batch, fake_rng),
        lambda epoch, losses, log: ({"epoch": epoch, "d_loss": float(np.mean(losses))},
                                    [(CHECKPOINTS["d-pretrain"], d)]),
        out_dir, start_epoch)


def discriminator_accuracy(d, real_seqs, fake_seqs) -> float:
    real = d.score(real_seqs)
    fake = d.score(fake_seqs)
    correct = (real > 0.5).sum() + (fake <= 0.5).sum()
    return float(correct / (len(real_seqs) + len(fake_seqs)))


# -- semantic evaluator -------------------------------------------------------


def semantic_hinge_loss(se: SemanticEvaluator, batch, margin: float) -> Tensor:
    """Bidirectional in-batch ranking loss over the pairwise cosine matrix."""
    b = len(batch.clip_ids)
    audio = se.embed_audio(batch.features, batch.feature_lengths)
    caption = se.embed_caption(batch.captions, batch.caption_lengths)
    sims = audio @ caption.transpose()  # [B, B], diagonal holds the true pairs
    idx = np.arange(b)
    pos = sims[idx, idx]
    off_diag = Tensor(1.0 - np.eye(b, dtype=audio.dtype))
    pos_col = pos.reshape(b, 1).broadcast_to((b, b))
    pos_row = pos.reshape(1, b).broadcast_to((b, b))
    audio_anchored = ((sims - pos_col + margin).relu() * off_diag).sum()
    caption_anchored = ((sims - pos_row + margin).relu() * off_diag).sum()
    denom = max(1, b * (b - 1))
    return (audio_anchored + caption_anchored) * (1.0 / denom)


def check_semantic_batches(train_split: DatasetSplit, config: TrainConfig) -> None:
    """Refuses a run in which no batch holds two clips: the hinge loss ranks
    each clip against the others in its batch."""
    n_clips = len(train_split.records)
    if min(n_clips, config.batch_size) < 2:
        raise ValueError(f"semantic-evaluator pretraining needs 2 clips per batch, got "
                         f"batch_size {config.batch_size} and {n_clips} train clips")


def semantic_pretrain(
    se: SemanticEvaluator,
    train_split: DatasetSplit,
    vocab,
    config: TrainConfig,
    t_max: int,
    out_dir=None,
    start_epoch: int = 1,
) -> TrainLog:
    check_semantic_batches(train_split, config)
    opt = Adam(se.store.tensors(), lr=config.learning_rate)

    def step(batch):
        if len(batch.clip_ids) < 2:
            return None  # hinge loss needs in-batch negatives
        return _optimize(opt, semantic_hinge_loss(se, batch, SE_MARGIN), "semantic loss")

    def end_epoch(epoch, losses, log):
        se_loss = float(np.mean([loss for loss in losses if loss is not None]))
        return {"epoch": epoch, "se_loss": se_loss}, [(CHECKPOINTS["se-pretrain"], se)]

    return run_stage("se-pretrain", train_split, vocab, config, t_max,
                     config.se_pretrain_epochs, step, end_epoch, out_dir, start_epoch)


def semantic_gap(se: SemanticEvaluator, split: DatasetSplit, vocab, t_max: int) -> float:
    """Mean paired-minus-unpaired cosine over a split (unpaired = shifted)."""
    with no_grad():
        audio = se.embed_audio(*pad([r.features for r in split.records])).data
    seqs = [vocab.encode(r.references[0][:t_max]) for r in split.records]
    paired = se.score(audio, seqs)
    unpaired = se.score(audio, seqs[-1:] + seqs[:-1])
    return float(paired.mean() - unpaired.mean())


# -- SCST ---------------------------------------------------------------------


def scst_surrogate_loss(gen: Generator, batch, memory: Tensor,
                        sampled: list[list[int]], advantages: np.ndarray) -> Tensor:
    """-(1/B) sum_b adv_b * sum_t log pi(w_t); advantages held constant.
    ``memory`` is the batch's taped encoder memory, which the loss
    backpropagates through. The samples are padded only to the longest
    of them."""
    inputs, targets, mask = teacher_forcing(*pad(sampled))
    logits = gen.forward(batch.features, batch.feature_lengths, None, inputs, memory=memory)
    log_probs = logits.log_softmax(axis=-1)
    onehot = np.zeros(log_probs.shape, dtype=log_probs.dtype)
    np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
    picked = (log_probs * Tensor(onehot)).sum(axis=-1)  # [B, T]
    # in the log-probs' dtype, so the [B, T, V] backward stays float32
    weights = (mask * advantages[:, None]).astype(log_probs.dtype)
    weighted = picked * Tensor(weights)
    return -weighted.sum() * (1.0 / len(sampled))


def scst_generator_step(
    gen: Generator,
    opt: Adam,
    batch,
    records_by_id: dict,
    oracles: RewardOracles,
    config: TrainConfig,
    z_rng: np.random.Generator,
    sample_rng: np.random.Generator,
):
    """One policy-gradient update; returns (loss, the sampled captions'
    reward breakdowns, their advantages over the greedy baseline).

    The batch is encoded once, on the tape: both rollouts decode from that
    memory without recording, and the surrogate loss backpropagates
    through it."""
    z = z_rng.standard_normal((len(batch.clip_ids), gen.config.noise_dim))
    memory = gen.encode(batch.features, batch.feature_lengths, z)
    sampled, _ = rollout(
        gen, batch.features, batch.feature_lengths, z, "sample",
        rng=sample_rng, max_length=gen.config.t_max, memory=memory,
    )
    greedy, _ = rollout(
        gen, batch.features, batch.feature_lengths, z, "greedy",
        max_length=gen.config.t_max, memory=memory,
    )
    records = [records_by_id[clip_id] for clip_id in batch.clip_ids]
    rewards = oracles.score(sampled + greedy, records + records, config)
    breakdowns, baselines = rewards[: len(sampled)], rewards[len(sampled):]
    advantages = np.array([r.total - b.total for r, b in zip(breakdowns, baselines)])
    loss = scst_surrogate_loss(gen, batch, memory, sampled, advantages)
    return _optimize(opt, loss, "SCST loss"), breakdowns, advantages


# -- adversarial loop ---------------------------------------------------------


def _digests(model) -> dict:
    """Each parameter's shape, dtype and SHA-256 of its bytes: what a frozen
    model is checked against, without a copy of its parameters."""
    return {name: (p.data.shape, p.data.dtype.str,
                   hashlib.sha256(np.ascontiguousarray(p.data)).digest())
            for name, p in model.params.items()}


def adversarial_train(
    gen: Generator,
    d: Discriminator,
    se: SemanticEvaluator,
    train_split: DatasetSplit,
    eval_split: DatasetSplit | None,
    vocab,
    config: TrainConfig,
    out_dir=None,
) -> tuple[TrainLog, RewardOracles]:
    """Alternating one discriminator step and one generator SCST step per
    batch. The semantic evaluator stays frozen; with lam=0 the loop is
    conventional reward-only RL and the discriminator is never touched."""
    # reward CIDEr uses training references; the eval table would leak
    df_table = build_doc_freq([r.references for r in train_split.records])
    oracles = RewardOracles(d, se, df_table, vocab)
    eval_refs = _eval_references(eval_split, df_table)
    train_d = config.lam > 0.0 and config.ablation != "se"
    gen_opt = Adam(gen.store.tensors(), lr=config.learning_rate)
    d_opt = Adam(d.store.tensors(), lr=config.learning_rate) if train_d else None
    fake_rng = substream(config.seed, "adv-fakes")
    z_rng = substream(config.seed, "adv-z")
    sample_rng = substream(config.seed, "adv-sample")
    records_by_id = {r.clip_id: r for r in train_split.records}
    se_before = _digests(se)

    def step(batch):
        d_loss = discriminator_step(d, d_opt, gen, batch, fake_rng) if train_d else None
        return (d_loss, *scst_generator_step(gen, gen_opt, batch, records_by_id, oracles,
                                             config, z_rng, sample_rng))

    def end_epoch(epoch, results, log):
        d_losses, g_losses, breakdowns, advantages = zip(*results)
        rewards = [r for batch_rewards in breakdowns for r in batch_rewards]
        advantages = np.concatenate(advantages)
        record = {
            "epoch": epoch,
            "g_loss": float(np.mean(g_losses)),
            "d_loss": float(np.mean(d_losses)) if train_d else None,
            "mean_n": float(np.mean([r.n for r in rewards])),
            "mean_s": float(np.mean([r.s for r in rewards])),
            "mean_c": float(np.mean([r.c for r in rewards])),
            "mean_reward": float(np.mean([r.total for r in rewards])),
            # SCST health: sampled captions' reward over their greedy baselines
            "adv_mean": float(np.mean(advantages)),
            "adv_std": float(np.std(advantages)),
            "adv_pos_frac": float(np.mean(advantages > 0.0)),
            "d_queries": oracles.d_queries,
            "se_queries": oracles.se_queries,
        }
        if eval_refs:
            record["eval_cider"] = _eval_greedy_cider(gen, eval_split, eval_refs, vocab, df_table)
        return record, [("generator_adv_final.ckpt", gen), ("discriminator_adv_final.ckpt", d)]

    log = run_stage("adversarial", train_split, vocab, config, gen.config.t_max,
                    config.adversarial_epochs, step, end_epoch, out_dir)
    if _digests(se) != se_before:
        raise RuntimeError("semantic evaluator changed during adversarial training")
    return log, oracles
