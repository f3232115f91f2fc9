"""Accuracy metrics (BLEU, CIDEr) and diversity metrics (vocab size,
mBLEU, div-n) over tokenized captions.

All functions take captions as plain lists of word tokens (markers already
stripped).
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

# n-gram counting is plain Python; the benchmark's machine block reports
# this name
NGRAM_BACKEND = "python"


def ngram_counts(seq, n):
    """Count the n-grams of a token sequence. Returns tuple -> count."""
    counts = {}
    for i in range(len(seq) - n + 1):
        key = tuple(seq[i : i + n])
        counts[key] = counts.get(key, 0) + 1
    return counts


# -- BLEU ---------------------------------------------------------------------


def _closest_ref_length(cand_len: int, references) -> int:
    return min((abs(len(r) - cand_len), len(r)) for r in references)[1]


def _clipped_matches(candidate, references, n):
    """(clipped match count, candidate n-gram count) for one order."""
    cand_counts = ngram_counts(candidate, n)
    total = max(0, len(candidate) - n + 1)
    if not cand_counts:
        return 0, total
    max_ref = {}
    for ref in references:
        for gram, count in ngram_counts(ref, n).items():
            if count > max_ref.get(gram, 0):
                max_ref[gram] = count
    clipped = sum(min(count, max_ref.get(gram, 0)) for gram, count in cand_counts.items())
    return clipped, total


def corpus_bleu(candidates, references_list, n: int = 4) -> float:
    """Corpus-level BLEU_n: clipped precisions pooled over the corpus,
    geometric mean, times brevity penalty."""
    if not 1 <= n <= 4:
        raise ValueError("n must be in 1..4")
    if not candidates or len(candidates) != len(references_list):
        raise ValueError("need one reference set per candidate")
    matches = [0] * n
    totals = [0] * n
    cand_len_sum = 0
    ref_len_sum = 0
    for candidate, references in zip(candidates, references_list):
        if not references:
            raise ValueError("every candidate needs at least one reference")
        cand_len_sum += len(candidate)
        ref_len_sum += _closest_ref_length(len(candidate), references)
        for order in range(1, n + 1):
            m, t = _clipped_matches(candidate, references, order)
            matches[order - 1] += m
            totals[order - 1] += t
    if any(t == 0 or m == 0 for m, t in zip(matches, totals)):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matches, totals)) / n
    bp = min(1.0, math.exp(1.0 - ref_len_sum / cand_len_sum)) if cand_len_sum else 0.0
    return bp * math.exp(log_precision)


def sentence_bleu(candidate, references, n: int = 4) -> float:
    return corpus_bleu([candidate], [references], n=n)


# -- CIDEr --------------------------------------------------------------------


@dataclass
class DocFreqTable:
    """Per-order document frequencies: df[n-1][gram] = number of clips
    whose reference set contains the gram."""

    df: list[dict]
    corpus_size: int
    nmax: int = 4

    def idf(self, gram, n: int) -> float:
        # unseen grams are clamped to df=1, as in the original metric
        return math.log(self.corpus_size / max(1, self.df[n - 1].get(gram, 0)))


def build_doc_freq(references_list, nmax: int = 4) -> DocFreqTable:
    if not references_list:
        raise ValueError("empty reference corpus")
    df = [{} for _ in range(nmax)]
    for references in references_list:
        seen = [set() for _ in range(nmax)]
        for ref in references:
            for i in range(nmax):
                seen[i].update(ngram_counts(ref, i + 1))
        for i in range(nmax):
            for gram in seen[i]:
                df[i][gram] = df[i].get(gram, 0) + 1
    return DocFreqTable(df, len(references_list), nmax)


def _tfidf_vector(tokens, df_table: DocFreqTable, n: int) -> dict:
    return {
        gram: count * df_table.idf(gram, n)
        for gram, count in ngram_counts(tokens, n).items()
    }


def _norm(vec: dict) -> float:
    return math.sqrt(sum(x * x for x in vec.values()))


def _cosine(u: dict, nu: float, v: dict, nv: float) -> float:
    if nu == 0.0 or nv == 0.0:
        return 0.0
    dot = sum(x * v[g] for g, x in u.items() if g in v)
    return dot / (nu * nv)


def reference_vectors(references, df_table: DocFreqTable) -> list:
    """Each order's reference TF-IDF vectors with their norms,
    ``[order - 1][ref] -> (vector, norm)``. They depend only on the
    references and the table, so a caller that scores many candidates
    against one clip computes them once."""
    orders = []
    for n in range(1, df_table.nmax + 1):
        vecs = [_tfidf_vector(ref, df_table, n) for ref in references]
        orders.append([(vec, _norm(vec)) for vec in vecs])
    return orders


def cider(candidate, references, df_table: DocFreqTable, ref_vectors: list | None = None) -> float:
    """TF-IDF n-gram cosine consensus, averaged over orders and references,
    scaled to [0, 10]. ``ref_vectors`` are the references'
    ``reference_vectors``, if the caller has them already."""
    if ref_vectors is None:
        ref_vectors = reference_vectors(references, df_table)
    per_order = []
    for n, refs in enumerate(ref_vectors, start=1):
        cand_vec = _tfidf_vector(candidate, df_table, n)
        nu = _norm(cand_vec)
        sims = [_cosine(cand_vec, nu, vec, nv) for vec, nv in refs]
        per_order.append(sum(sims) / len(sims))
    return 10.0 * sum(per_order) / len(per_order)


# -- diversity ----------------------------------------------------------------


def vocab_size(captions) -> int:
    """Distinct content words across all generated captions."""
    return len({tok for caption in captions for tok in caption})


def mbleu(captions_per_clip, n: int = 4) -> float:
    """Mutual BLEU among one clip's captions; lower means more diverse."""
    if len(captions_per_clip) < 2:
        raise ValueError("mbleu needs at least 2 captions per clip")
    scores = []
    for i, caption in enumerate(captions_per_clip):
        rest = [c for j, c in enumerate(captions_per_clip) if j != i]
        scores.append(sentence_bleu(caption, rest, n=n))
    return sum(scores) / len(scores)


def div_n(captions_per_clip, n: int) -> float:
    """Distinct n-grams over total words in one clip's caption set."""
    distinct = set()
    total_words = 0
    for caption in captions_per_clip:
        distinct.update(ngram_counts(caption, n))
        total_words += len(caption)
    if total_words == 0:
        return 0.0
    return len(distinct) / total_words


# -- report -------------------------------------------------------------------


@dataclass
class MetricReport:
    """Table-style metric summary plus a per-clip breakdown.

    Accuracy metrics are reported under two protocols: ``top1`` scores
    only the first caption per clip; ``all`` scores every generated
    caption against the clip's references.
    """

    bleu: dict  # {"bleu_1".."bleu_4": float} top-1 protocol
    bleu_4_all: float
    cider_top1: float
    cider_all: float
    spider: None  # SPICE is out of scope, so SPIDEr is not computed
    vocab_size: int
    mbleu_4: float
    div_1: float
    div_2: float
    n_clips: int
    smoothing: str = "none (zero precision -> zero score)"
    per_clip: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "bleu_1": self.bleu["bleu_1"],
            "bleu_2": self.bleu["bleu_2"],
            "bleu_3": self.bleu["bleu_3"],
            "bleu_4": self.bleu["bleu_4"],
            "bleu_4_all": self.bleu_4_all,
            "cider": self.cider_top1,
            "cider_all": self.cider_all,
            "spider": None,
            "vocab_size": self.vocab_size,
            "mbleu_4": self.mbleu_4,
            "div_1": self.div_1,
            "div_2": self.div_2,
            "n_clips": self.n_clips,
            "smoothing": self.smoothing,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_table(self) -> str:
        # column order mirrors the accuracy-then-diversity reporting layout
        headers = ["BLEU_4", "CIDEr", "SPIDEr", "vocab size", "mBLEU_4", "div-1", "div-2"]
        values = [
            f"{self.bleu['bleu_4']:.3f}",
            f"{self.cider_top1:.3f}",
            "n/a",
            str(self.vocab_size),
            f"{self.mbleu_4:.3f}",
            f"{self.div_1:.3f}",
            f"{self.div_2:.3f}",
        ]
        widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
        head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
        row = "  ".join(v.rjust(w) for v, w in zip(values, widths))
        return head + "\n" + row + "\n"

    def write_per_clip_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["clip_id", "cider_top1", "mbleu_4", "div_1", "div_2"])
            for row in self.per_clip:
                writer.writerow(row)


def evaluate_captions(generated: dict, references: dict) -> MetricReport:
    """Full metric suite.

    generated: clip_id -> list of caption token lists (>= 1 per clip).
    references: clip_id -> list of reference token lists.
    """
    missing = sorted(set(generated) - set(references))
    if missing:
        raise ValueError(f"captions for unknown clip ids: {missing}")
    if not generated:
        raise ValueError("no generated captions to evaluate")
    empty = sorted(c for c, captions in generated.items() if not captions)
    if empty:
        raise ValueError(f"no captions for clip ids: {empty}")
    clip_ids = sorted(generated)

    df_table = build_doc_freq([references[c] for c in clip_ids])
    top1 = [generated[c][0] for c in clip_ids]
    refs = [references[c] for c in clip_ids]
    bleu_scores = {f"bleu_{n}": corpus_bleu(top1, refs, n=n) for n in range(1, 5)}

    all_cands, all_refs = [], []
    for c in clip_ids:
        for caption in generated[c]:
            all_cands.append(caption)
            all_refs.append(references[c])
    bleu_4_all = corpus_bleu(all_cands, all_refs, n=4)

    ciders = {
        c: [cider(caption, references[c], df_table) for caption in generated[c]]
        for c in clip_ids
    }
    cider_top1 = sum(ciders[c][0] for c in clip_ids) / len(clip_ids)
    cider_all = sum(score for c in clip_ids for score in ciders[c]) / len(all_cands)

    per_clip = []
    mbleus, div1s, div2s = [], [], []
    for c in clip_ids:
        captions = generated[c]
        clip_mbleu = mbleu(captions) if len(captions) >= 2 else 1.0
        clip_div1 = div_n(captions, 1)
        clip_div2 = div_n(captions, 2)
        mbleus.append(clip_mbleu)
        div1s.append(clip_div1)
        div2s.append(clip_div2)
        per_clip.append(
            (c, ciders[c][0], clip_mbleu, clip_div1, clip_div2)
        )

    return MetricReport(
        bleu=bleu_scores,
        bleu_4_all=bleu_4_all,
        cider_top1=cider_top1,
        cider_all=cider_all,
        spider=None,
        vocab_size=vocab_size(all_cands),
        mbleu_4=sum(mbleus) / len(mbleus),
        div_1=sum(div1s) / len(div1s),
        div_2=sum(div2s) / len(div2s),
        n_clips=len(clip_ids),
        per_clip=per_clip,
    )
