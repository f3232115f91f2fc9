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

import csv
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import DatasetSplit, epoch_batches
from .decoding import rollout
from .metrics import DocFreqTable, build_doc_freq, cider, reference_vectors
from .models import (
    Discriminator,
    Generator,
    SemanticEvaluator,
    pad_frames,
    pad_sequences,
    save_checkpoint,
)
from .seeding import substream
from .tensor import Adam, Tensor, cross_entropy, no_grad


class TrainingDiverged(RuntimeError):
    pass


# the lam each ablation pins, so its reward is exactly one term:
# the discriminator (nd), the semantic evaluator (se) or CIDEr (le)
ABLATION_LAMBDA = {"nd": 1.0, "se": 1.0, "le": 0.0}

# the semantic evaluator's ranking margin
SE_MARGIN = 0.2


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
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
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
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    def save_reward_csv(self, path) -> None:
        keys = ["epoch", "mean_n", "mean_s", "mean_c", "mean_reward"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(keys)
            for record in self.records:
                writer.writerow([record.get(k, "") for k in keys])


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
    returns the loss value."""
    value = loss.item()
    if not np.isfinite(value):
        raise TrainingDiverged(f"{what} became non-finite ({value})")
    opt.zero_grad()
    loss.backward()
    opt.step()
    return value


def _quiet_numerics(loop):
    """Runs a training loop with numpy's floating-point warnings off, so a
    diverging run is reported once, by ``_optimize``'s non-finite check."""
    @functools.wraps(loop)
    def run(*args, **kwargs):
        with np.errstate(all="ignore"):
            return loop(*args, **kwargs)
    return run


# -- MLE pretraining ----------------------------------------------------------


def _eval_greedy_cider(gen, split: DatasetSplit, ref_vecs: list, vocab, df_table) -> float:
    """Mean CIDEr of the zero-noise greedy captions of a split, decoded in
    one rollout, against ``ref_vecs``, each clip's ``reference_vectors``.
    Each clip is encoded alone, at its own length: a padded batch would
    see the conv's padding at the clip's last frame. The decoder masks the
    zero frames padded onto the shorter memories."""
    records = split.records
    features, lengths = pad_frames([r.features for r in records])
    z = np.zeros((len(records), gen.config.noise_dim))
    with no_grad():
        memory, _ = pad_frames([
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


@_quiet_numerics
def mle_pretrain(
    gen: Generator,
    train_split: DatasetSplit,
    eval_split: DatasetSplit | None,
    vocab,
    config: TrainConfig,
    out_dir=None,
    start_epoch: int = 1,
) -> TrainLog:
    """Teacher-forced cross-entropy training; noise held at zero."""
    opt = Adam(gen.store.tensors(), lr=config.learning_rate)
    data_rng = substream(config.seed, "mle-data")
    drop_rng = substream(config.seed, "mle-dropout")
    log = TrainLog()
    df_table = build_doc_freq([r.references for r in train_split.records])
    eval_refs = _eval_references(eval_split, df_table)
    best_cider = -1.0
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    for epoch in range(start_epoch, config.mle_epochs + 1):
        losses = []
        for batch in epoch_batches(train_split, vocab, config.batch_size, data_rng,
                                   t_max=gen.config.t_max):
            z = np.zeros((len(batch.clip_ids), gen.config.noise_dim))
            logits = gen.forward(
                batch.features, batch.feature_lengths, z,
                batch.targets[:, :-1], drop_rng=drop_rng,
            )
            loss = cross_entropy(logits, batch.targets[:, 1:], batch.mask)
            losses.append(_optimize(opt, loss, "MLE loss"))
        record = {"epoch": epoch, "mle_loss": float(np.mean(losses))}
        if eval_refs:
            record["eval_cider"] = _eval_greedy_cider(gen, eval_split, eval_refs, vocab, df_table)
        log.append(**record)
        if out_dir is not None:
            save_checkpoint(out_dir / "generator_mle_final.ckpt", gen,
                            {"epoch": epoch, "seed": config.seed, "stage": "mle"})
            if record.get("eval_cider", 0.0) >= best_cider:
                best_cider = record.get("eval_cider", 0.0)
                save_checkpoint(out_dir / "generator_mle_best.ckpt", gen,
                                {"epoch": epoch, "seed": config.seed, "stage": "mle"})
    return log


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


def _sample_fakes(gen: Generator, batch, rng) -> list[list[int]]:
    z = rng.standard_normal((len(batch.clip_ids), gen.config.noise_dim))
    seqs, _ = rollout(
        gen, batch.features, batch.feature_lengths, z, "sample",
        rng=rng, max_length=gen.config.t_max,
    )
    return seqs


def discriminator_step(d, opt: Adam, real_tokens, real_lengths,
                       fake_tokens, fake_lengths) -> float:
    loss = discriminator_loss(d, real_tokens, real_lengths, fake_tokens, fake_lengths)
    return _optimize(opt, loss, "discriminator loss")


@_quiet_numerics
def d_pretrain(
    d: Discriminator,
    gen: Generator,
    train_split: DatasetSplit,
    vocab,
    config: TrainConfig,
    start_epoch: int = 1,
) -> TrainLog:
    """Real references vs. captions sampled from the current generator."""
    opt = Adam(d.store.tensors(), lr=config.learning_rate)
    data_rng = substream(config.seed, "d-data")
    fake_rng = substream(config.seed, "d-fakes")
    log = TrainLog()
    for epoch in range(start_epoch, config.d_pretrain_epochs + 1):
        losses = []
        for batch in epoch_batches(train_split, vocab, config.batch_size, data_rng,
                                   t_max=gen.config.t_max):
            real_tokens = batch.targets
            real_lengths = batch.target_lengths
            fakes = _sample_fakes(gen, batch, fake_rng)
            fake_tokens, fake_lengths = pad_sequences(fakes)
            losses.append(
                discriminator_step(d, opt, real_tokens, real_lengths,
                                   fake_tokens, fake_lengths)
            )
        log.append(epoch=epoch, d_loss=float(np.mean(losses)))
    return log


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
    caption = se.embed_caption(batch.targets, batch.target_lengths)
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


@_quiet_numerics
def semantic_pretrain(
    se: SemanticEvaluator,
    train_split: DatasetSplit,
    vocab,
    config: TrainConfig,
    t_max: int,
    start_epoch: int = 1,
) -> TrainLog:
    opt = Adam(se.store.tensors(), lr=config.learning_rate)
    data_rng = substream(config.seed, "se-data")
    log = TrainLog()
    for epoch in range(start_epoch, config.se_pretrain_epochs + 1):
        losses = []
        for batch in epoch_batches(train_split, vocab, config.batch_size, data_rng,
                                   t_max=t_max):
            if len(batch.clip_ids) < 2:
                continue  # hinge loss needs in-batch negatives
            loss = semantic_hinge_loss(se, batch, SE_MARGIN)
            losses.append(_optimize(opt, loss, "semantic loss"))
        log.append(epoch=epoch, se_loss=float(np.mean(losses)) if losses else 0.0)
    return log


def semantic_gap(se: SemanticEvaluator, split: DatasetSplit, vocab, t_max: int) -> float:
    """Mean paired-minus-unpaired cosine over a split (unpaired = shifted)."""
    features, feat_lengths = pad_frames([r.features for r in split.records])
    tokens, lengths = pad_sequences(
        [vocab.encode(r.references[0][:t_max]) for r in split.records]
    )
    paired = se.scores(features, feat_lengths, tokens, lengths).data
    rolled = np.roll(np.arange(len(split.records)), 1)
    unpaired = se.scores(features, feat_lengths, tokens[rolled], lengths[rolled]).data
    return float(paired.mean() - unpaired.mean())


# -- SCST ---------------------------------------------------------------------


def scst_surrogate_loss(gen: Generator, batch, z: np.ndarray,
                        sampled: list[list[int]], advantages: np.ndarray) -> Tensor:
    """-(1/B) sum_b adv_b * sum_t log pi(w_t); advantages held constant.
    The samples are padded only to the longest of them."""
    tokens, lengths = pad_sequences(sampled)
    inputs = tokens[:, :-1]
    targets = tokens[:, 1:]
    mask = (np.arange(targets.shape[1])[None, :] < (lengths - 1)[:, None]).astype(float)
    logits = gen.forward(batch.features, batch.feature_lengths, z, inputs)
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
    reward breakdowns, their advantages over the greedy baseline)."""
    z = z_rng.standard_normal((len(batch.clip_ids), gen.config.noise_dim))
    with no_grad():
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
    loss = scst_surrogate_loss(gen, batch, z, sampled, advantages)
    return _optimize(opt, loss, "SCST loss"), breakdowns, advantages


# -- adversarial loop ---------------------------------------------------------


@_quiet_numerics
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
    gen_opt = Adam(gen.store.tensors(), lr=config.learning_rate)
    d_opt = Adam(d.store.tensors(), lr=config.learning_rate)
    data_rng = substream(config.seed, "adv-data")
    fake_rng = substream(config.seed, "adv-fakes")
    z_rng = substream(config.seed, "adv-z")
    sample_rng = substream(config.seed, "adv-sample")
    records_by_id = {r.clip_id: r for r in train_split.records}
    se_before = {k: v.data.copy() for k, v in se.params.items()}
    log = TrainLog()
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    train_d = config.lam > 0.0 and config.ablation != "se"

    for epoch in range(1, config.adversarial_epochs + 1):
        d_losses, g_losses, rewards, advantages = [], [], [], []
        for batch in epoch_batches(train_split, vocab, config.batch_size, data_rng,
                                   t_max=gen.config.t_max):
            if train_d:
                fakes = _sample_fakes(gen, batch, fake_rng)
                fake_tokens, fake_lengths = pad_sequences(fakes)
                d_losses.append(
                    discriminator_step(d, d_opt, batch.targets, batch.target_lengths,
                                       fake_tokens, fake_lengths)
                )
            g_loss, breakdowns, batch_advantages = scst_generator_step(
                gen, gen_opt, batch, records_by_id, oracles, config,
                z_rng, sample_rng,
            )
            g_losses.append(g_loss)
            rewards.extend(breakdowns)
            advantages.extend(batch_advantages)
        record = {
            "epoch": epoch,
            "g_loss": float(np.mean(g_losses)),
            "d_loss": float(np.mean(d_losses)) if d_losses else None,
            "mean_n": float(np.mean([r.n for r in rewards])),
            "mean_s": float(np.mean([r.s for r in rewards])),
            "mean_c": float(np.mean([r.c for r in rewards])),
            "mean_reward": float(np.mean([r.total for r in rewards])),
            # SCST health: sampled captions' reward over their greedy baselines
            "adv_mean": float(np.mean(advantages)),
            "adv_std": float(np.std(advantages)),
            "adv_pos_frac": float(np.mean(np.array(advantages) > 0.0)),
            "d_queries": oracles.d_queries,
            "se_queries": oracles.se_queries,
        }
        if eval_refs:
            record["eval_cider"] = _eval_greedy_cider(gen, eval_split, eval_refs, vocab, df_table)
        log.append(**record)
        if out_dir is not None:
            save_checkpoint(out_dir / f"generator_adv_epoch{epoch:03d}.ckpt", gen,
                            {"epoch": epoch, "seed": config.seed, "stage": "adversarial"})
            save_checkpoint(out_dir / "generator_adv_final.ckpt", gen,
                            {"epoch": epoch, "seed": config.seed, "stage": "adversarial"})
            save_checkpoint(out_dir / "discriminator_adv_final.ckpt", d,
                            {"epoch": epoch, "seed": config.seed, "stage": "adversarial"})

    for name, before in se_before.items():
        if not np.array_equal(before, se.params[name].data):
            raise RuntimeError("semantic evaluator changed during adversarial training")
    return log, oracles
