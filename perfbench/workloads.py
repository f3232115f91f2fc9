"""Workloads, output checks and report of the capgan benchmark.

Every workload makes a synthetic corpus from the workload seed, sets up
(deterministic pretraining where the workload needs trained models), then
repeats one fixed cycle of ``capgan`` commands, each cycle in a fresh run
directory, until the measuring time is used. All commands go through
``capgan.cli.main`` in this process.
"""
from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import capgan.cli
from capgan.corpus import load_dataset
from capgan.decoding import read_captions, rollout
from capgan.metrics import NGRAM_BACKEND, build_doc_freq, cider
from capgan.models import Generator, GeneratorConfig, load_checkpoint, restore_model
from capgan.seeding import substream
from capgan.text import Vocabulary

from tracer import Patches, Tracer, install_clocks

# Set-up pretraining, through the CLI's own flags; package defaults stay.
# At the shipped defaults (lr 1e-4, batch 32) the generator still emits
# degenerate captions after 25 epochs (eval CIDEr 0.000 on seed 0).
SETUP_FLAGS = ("--learning-rate", "2e-3", "--batch-size", "8")
MLE_EPOCHS = 10
D_EPOCHS = 1
SE_EPOCHS = 5
ADV_EPOCHS = 2
N_CAPTIONS = 5
EVALUATE_REPEATS = 5
SETUP_REPEATS = 3
# The first cycle in a process can run slower; the second is the untraced
# reference that traced cycles are compared against.
UNTRACED_FIRST = 2

SETUP_SETTINGS = {
    "corpus": "prepare-data --synthetic --seed <workload seed> (60 clips, 4 classes)",
    "pretrain_flags": " ".join(SETUP_FLAGS),
    "mle_epochs": MLE_EPOCHS,
    "d_epochs": D_EPOCHS,
    "se_epochs": SE_EPOCHS,
    "eval_split_in_setup": False,
}

# Spans each workload must record calls for, and spans it must never call.
ADV_CALLED = (
    "cli.main", "corpus.epoch_batches", "decoding.rollout", "models.encode",
    "models.gen_forward", "models.step_logits", "models.save_checkpoint",
    "models.load_checkpoint", "training.adversarial_train", "training.scst_step",
    "training.oracle_score", "training.surrogate", "metrics.cider",
    "metrics.ngram_counts", "tensor.backward", "tensor.adam_step",
)
JUDGES = (
    "models.d_forward", "models.d_score", "models.se_embed_audio",
    "models.se_embed_caption", "models.se_score", "training.d_step",
)
GENERATE = ("decoding.beam_decode", "decoding.generate_diverse_set", "metrics.evaluate")
EXPECTED_SPANS = {
    "pretrain": (
        (
            "cli.main", "corpus.epoch_batches", "decoding.rollout", "models.encode",
            "models.gen_forward", "models.step_logits", "models.d_forward",
            "models.se_embed_audio", "models.se_embed_caption", "models.save_checkpoint",
            "models.load_checkpoint", "training.d_step", "metrics.cider",
            "metrics.ngram_counts", "tensor.backward", "tensor.adam_step",
        ),
        GENERATE + ("training.scst_step", "training.oracle_score", "models.d_score",
                    "models.se_score"),
    ),
    "adv-gan": (ADV_CALLED + JUDGES, GENERATE),
    "adv-rl": (ADV_CALLED, GENERATE + JUDGES),
    "decode": (
        GENERATE + ("cli.main", "models.encode", "models.gen_forward",
                    "models.step_logits", "models.load_checkpoint", "metrics.cider",
                    "metrics.ngram_counts"),
        ("tensor.backward", "tensor.adam_step", "decoding.rollout",
         "corpus.epoch_batches", "models.save_checkpoint", "training.scst_step")
        + JUDGES,
    ),
}


class Abort(Exception):
    """A command failed, so the rest of the workload cannot run."""


def median(values) -> float:
    return float(statistics.median(values))


def tail(values):
    """Highest percentile with at least ten samples above it, or None."""
    ordered = sorted(values)
    index = len(ordered) - 11
    if index < 0:
        return None
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def digest(path: Path) -> str:
    """sha256 over every file below ``path``: relative name and bytes."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


class Run:
    """Runs commands, counts operations and records failed checks."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.patches = Patches()
        self.clocks = install_clocks(self.patches)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def cli(self, *argv) -> None:
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        self.clocks.begin()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = capgan.cli.main(argv)
        except Exception:  # the program crashed: report it as a failed command
            code = "exception"
            err.write(traceback.format_exc())
        if not self.check(code == 0, f"capgan {' '.join(argv)}: exit {code}: "
                                     f"{err.getvalue().strip()[-500:]}"):
            raise Abort(self.failures[-1])

    # -- output checks -------------------------------------------------------

    def check_log(self, path: Path, epochs: int) -> list[dict]:
        """One operation per epoch record: every number in it is finite."""
        records = [json.loads(line) for line in path.read_text().splitlines() if line]
        self.check(len(records) == epochs, f"{path.name}: {len(records)} records, "
                                           f"expected {epochs}")
        for record in records:
            bad = [k for k, v in record.items()
                   if isinstance(v, (int, float)) and not math.isfinite(v)]
            self.check(not bad, f"{path.name} epoch {record.get('epoch')}: "
                                f"non-finite {bad}")
        return records

    def check_rewards(self, path: Path) -> None:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = [row for row in rows if not all(math.isfinite(float(v)) for v in row.values())]
        self.check(bool(rows) and not bad, f"{path.name}: non-finite rows {bad[:3]}")

    def check_captions(self, path: Path, n: int) -> None:
        """One operation per clip: n non-empty captions."""
        for row in read_captions(path):
            caps = row["captions"]
            self.check(len(caps) == n and all(c.strip() for c in caps),
                       f"{path.name} {row['clip_id']}: {len(caps)} captions {caps}")

    def check_report(self, path: Path) -> dict:
        report = json.loads(path.read_text())
        bad = [k for k, v in report.items()
               if isinstance(v, (int, float)) and not math.isfinite(v)]
        self.check(not bad, f"{path.name}: non-finite {bad}")
        return report


# -- set-up ------------------------------------------------------------------


def make_corpus(run: Run, work: Path) -> Path:
    data = work / "data"
    run.cli("prepare-data", "--out", data, "--synthetic", "--seed", run.seed)
    return data


def pretrain_models(run: Run, data: Path, run_dir: Path, judges: bool) -> None:
    """Set-up pretraining on the train split only: no per-epoch eval pass."""
    train_only = run_dir.parent / "train_only"
    run.cli("prepare-data", "--out", train_only, "--import-train", data / "train.json")
    common = ("--data", train_only, "--run", run_dir) + SETUP_FLAGS
    run.cli("pretrain", *common, "--epochs", MLE_EPOCHS)
    if judges:
        run.cli("pretrain-d", *common, "--epochs", D_EPOCHS)
        run.cli("pretrain-se", *common, "--epochs", SE_EPOCHS)


def greedy_eval(run_dir: Path, data: Path) -> dict:
    """Greedy eval-split CIDEr and caption length of the MLE generator, as
    the pretrain command's eval pass computes them."""
    arrays, meta = load_checkpoint(run_dir / "generator_mle_final.ckpt", "generator")
    gen = Generator(GeneratorConfig(**meta["config"]), substream(0, "generator-init"))
    restore_model(gen, arrays)
    vocab = Vocabulary.load(run_dir / "vocab.txt")
    train = load_dataset(data / "train.json", "train")
    evaluation = load_dataset(data / "evaluation.json", "evaluation")
    df_table = build_doc_freq([r.references for r in train.records])
    scores, lengths = [], []
    for r in evaluation.records:
        seqs, _ = rollout(gen, r.features[None], np.array([r.features.shape[0]]),
                          np.zeros((1, gen.config.noise_dim)), "greedy",
                          max_length=gen.config.t_max)
        words = vocab.decode(seqs[0])
        lengths.append(len(words))
        scores.append(cider(words, r.references, df_table))
    return {"greedy_eval_cider": float(np.mean(scores)),
            "greedy_caption_len_mean": float(np.mean(lengths))}


def setup_properties(setup: Path) -> dict:
    """Corpus sizes and the set-up generator's greedy eval results."""
    data, run_dir = setup / "data", setup / "run"
    train = load_dataset(data / "train.json", "train")
    evaluation = load_dataset(data / "evaluation.json", "evaluation")
    clips = train.records + evaluation.records
    return greedy_eval(run_dir, data) | {
        "train_clips": len(train.records),
        "eval_clips": len(evaluation.records),
        "frames_per_clip_mean": float(np.mean([r.features.shape[0] for r in clips])),
        "vocab_size": len(Vocabulary.load(run_dir / "vocab.txt")),
        "reference_len_mean": float(np.mean([len(ref) for r in clips for ref in r.references])),
    }


# -- workloads ---------------------------------------------------------------


class Pretrain:
    """pretrain, pretrain-d, pretrain-se from fresh models, with the eval
    split present so every MLE epoch ends with its greedy eval pass. The
    eval pass must not change training: the MLE checkpoint has to equal
    the set-up generator's byte for byte."""

    judges = False
    step = "mle_epoch_s"

    def cycle(self, run: Run, setup: Path, out: Path) -> dict:
        data = setup / "data"
        common = ("--data", data, "--run", out) + SETUP_FLAGS
        run.cli("pretrain", *common, "--epochs", MLE_EPOCHS)
        mle = run.clocks.epoch_seconds()
        run.cli("pretrain-d", *common, "--epochs", D_EPOCHS)
        d = run.clocks.epoch_seconds()
        run.cli("pretrain-se", *common, "--epochs", SE_EPOCHS)
        se = run.clocks.epoch_seconds()
        return {"mle_epoch_s": mle, "d_epoch_s": d, "se_epoch_s": se}

    def check(self, run: Run, setup: Path, out: Path) -> dict:
        mle = run.check_log(out / "mle_log.jsonl", MLE_EPOCHS)
        run.check_log(out / "d_log.jsonl", D_EPOCHS)
        run.check_log(out / "se_log.jsonl", SE_EPOCHS)
        ckpt = "generator_mle_final.ckpt"
        run.check((out / ckpt).read_bytes() == (setup / "run" / ckpt).read_bytes(),
                  f"{ckpt} differs from the set-up generator's")
        return {"eval_cider": mle[-1]["eval_cider"]}

    def describe(self, setup: Path, out: Path) -> dict:
        return setup_properties(setup)


class Adversarial:
    """train-gan from the set-up checkpoints at one reward weight."""

    judges = True
    step = "adv_epoch_s"

    def __init__(self, lam: float):
        self.lam = lam

    def cycle(self, run: Run, setup: Path, out: Path) -> dict:
        models = setup / "run"
        run.cli(
            "train-gan", "--data", setup / "data", "--run", out, "--lambda", self.lam,
            "--epochs", ADV_EPOCHS,
            "--generator", models / "generator_mle_final.ckpt",
            "--discriminator", models / "discriminator_pretrained.ckpt",
            "--semantic", models / "semantic_evaluator.ckpt",
        )
        return {"adv_epoch_s": run.clocks.epoch_seconds()}

    def check(self, run: Run, setup: Path, out: Path) -> dict:
        lam_dir = out / "gan" / f"lambda_{self.lam:g}"
        records = run.check_log(lam_dir / "train_log.jsonl", ADV_EPOCHS)
        run.check_rewards(lam_dir / "rewards.csv")
        if self.lam == 0.0:
            queries = [(r["d_queries"], r["se_queries"]) for r in records]
            run.check(all(q == (0, 0) for q in queries),
                      f"lambda 0 queried the judges: {queries}")
        return {"eval_cider": records[-1]["eval_cider"]}

    def describe(self, setup: Path, out: Path) -> dict:
        return setup_properties(setup)


class Decode:
    """generate --mode gan, generate --mode mle, then evaluate (repeated)."""

    judges = False
    step = "gan_clip_s"

    def cycle(self, run: Run, setup: Path, out: Path) -> dict:
        data, models = setup / "data", setup / "run"
        common = ("--data", data, "--run", models, "--n", N_CAPTIONS,
                  "--checkpoint", models / "generator_mle_final.ckpt")
        out.mkdir(parents=True)
        run.cli("generate", *common, "--mode", "gan", "--out", out / "captions_gan.jsonl")
        gan = run.clocks.clip_seconds
        run.cli("generate", *common, "--mode", "mle", "--out", out / "captions_mle.jsonl")
        mle = run.clocks.clip_seconds
        evaluate = []
        for _ in range(EVALUATE_REPEATS):
            start = time.perf_counter()
            run.cli("evaluate", "--captions", out / "captions_gan.jsonl", "--data", data,
                    "--out-json", out / "report_gan.json")
            evaluate.append(time.perf_counter() - start)
        return {"gan_clip_s": gan, "mle_clip_s": mle, "evaluate_s": evaluate}

    def check(self, run: Run, setup: Path, out: Path) -> dict:
        run.check_captions(out / "captions_gan.jsonl", N_CAPTIONS)
        run.check_captions(out / "captions_mle.jsonl", N_CAPTIONS)
        report = run.check_report(out / "report_gan.json")
        return {"cider_top1": report["cider"], "mbleu_4": report["mbleu_4"]}

    def describe(self, setup: Path, out: Path) -> dict:
        props = setup_properties(setup)
        for mode in ("gan", "mle"):
            caps = [c for row in read_captions(out / f"captions_{mode}.jsonl")
                    for c in row["captions"]]
            props[f"{mode}_caption_len_mean"] = float(np.mean([len(c.split()) for c in caps]))
        return props


WORKLOADS = {
    "pretrain": Pretrain(),
    "adv-gan": Adversarial(1.0),
    "adv-rl": Adversarial(0.0),
    "decode": Decode(),
}


# -- machine -----------------------------------------------------------------


def blas_threads():
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    for f in sorted((root / "src" / "capgan").glob("*.py")):
        sources.update(f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ngram_backend": NGRAM_BACKEND,
        "git_commit": git_commit(root),
        "capgan_sources_sha256": sources.hexdigest()[:16],
    }


# -- running a workload ------------------------------------------------------


def set_up(run: Run, workload, work: Path, repeats: int) -> tuple[Path, list[float]]:
    """Runs the set-up ``repeats`` times; every set-up must give identical files."""
    seconds, digests = [], []
    for i in range(repeats):
        setup = work / f"setup{i}"
        start = time.perf_counter()
        data = make_corpus(run, setup)
        pretrain_models(run, data, setup / "run", workload.judges)
        seconds.append(time.perf_counter() - start)
        digests.append(digest(setup))
        if i:
            shutil.rmtree(setup)
            run.check(digests[i] == digests[0], f"set-up {i} differs from set-up 0")
    return work / "setup0", seconds


def measure(run: Run, workload, setup: Path, work: Path, seconds: float,
            tracer: Tracer | None) -> dict:
    """Repeats the cycle while another one would end closer to ``seconds``
    than stopping does (at least one cycle). A traced measurement runs
    UNTRACED_FIRST untraced cycles first, the last of them the reference
    for the tracing overhead; every cycle must write the same bytes, so
    traced and untraced outputs are compared here."""
    samples, durations, traced_durations, digests = {}, [], [], []
    results, props = {}, {}
    start = time.perf_counter()
    k = 0
    while True:
        out = work / f"cycle{k}"
        traced = tracer is not None and k >= UNTRACED_FIRST
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            cycle_samples = workload.cycle(run, setup, out)
        finally:
            took = time.perf_counter() - t0
            if traced:
                tracer.remove()
        (traced_durations if traced else durations).append(took)
        for name, values in cycle_samples.items():
            samples.setdefault(name, []).extend(values)
        try:
            results = workload.check(run, setup, out)
            if k == 0:
                props = workload.describe(setup, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            run.check(False, f"cycle {k} outputs unreadable: {exc!r}")
        digests.append(digest(out))
        shutil.rmtree(out)
        if k:
            kind = "traced" if traced else "untraced"
            run.check(digests[k] == digests[0],
                      f"cycle {k} ({kind}) wrote different bytes from cycle 0")
        k += 1
        if tracer is not None and not traced_durations:
            continue  # a traced run measures at least one traced cycle
        elapsed = time.perf_counter() - start
        if elapsed + median(traced_durations or durations) / 2 > seconds:
            break
    return {"samples": samples, "durations": durations, "traced": traced_durations,
            "results": results, "properties": props, "digest": digests[0][:16]}


def layer_checks(run: Run, name: str, tracer: Tracer) -> None:
    called, never = EXPECTED_SPANS[name]
    for span in called:
        run.check(tracer.calls[span] > 0, f"traced {name}: {span} recorded no calls")
    for span in never:
        run.check(tracer.calls[span] == 0,
                  f"traced {name}: {span} called {tracer.calls[span]} times")
    if name == "adv-rl":
        queries = (tracer.counts["d_queries"], tracer.counts["se_queries"])
        run.check(queries == (0, 0), f"traced adv-rl: judge queries {queries}")


def emit(line: str) -> None:
    print(line, flush=True)


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    workload = WORKLOADS[name]
    work = root / "perfbench" / "work" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Run(seed)
    tracer = Tracer() if trace else None
    metrics, report = {}, {}
    emit(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    emit("machine " + json.dumps(machine(root), sort_keys=True))
    try:
        repeats = 1 if trace else SETUP_REPEATS
        setup, setup_seconds = set_up(bench, workload, work, repeats)
        m = measure(bench, workload, setup, work, seconds, tracer)
    except Abort:
        m = None
    finally:
        bench.patches.restore()
        shutil.rmtree(work, ignore_errors=True)
    if m is not None:
        props = dict(m["properties"], setup=SETUP_SETTINGS, adv_epochs=ADV_EPOCHS,
                     cycles=len(m["durations"]) + len(m["traced"]), outputs_sha256=m["digest"])
        emit("properties " + json.dumps(props, sort_keys=True))
        if trace:
            layer_checks(bench, name, tracer)
            overhead = median(m["traced"]) / m["durations"][-1] - 1.0
            metrics = tracer.metrics(per=len(m["traced"]))
            metrics["trace.overhead"] = (overhead, "ratio")
            report = dict(metrics)
        else:
            step = m["samples"][workload.step]
            metrics = {
                "setup_s": (median(setup_seconds), "s"),
                "step_s": (median(step), "s"),
                "cycle_s": (median(m["durations"]), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            report = dict(metrics)
            for stage, values in m["samples"].items():
                report[stage] = (median(values), "s")
            found = tail(m["samples"][workload.step])
            if found is not None:
                value, pct, n = found
                report[f"{workload.step}_tail"] = (value, f"s (p{pct:.0f} of {n})")
            for key, value in m["results"].items():
                report[key] = (float(value), "CIDEr" if "cider" in key else "ratio")
    failed = len(bench.failures)
    report["error_rate"] = (failed / max(1, bench.attempted), f"ratio ({failed}/{bench.attempted})")
    for key, (value, unit) in report.items():
        emit(f"metric {key} {value:.6g} {unit}")
    for failure in bench.failures:
        emit(f"FAILED {failure}")
    result = {
        "correct": failed == 0,
        "attempted": max(1, bench.attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    emit(json.dumps(result))
    return 0 if failed == 0 else 1
