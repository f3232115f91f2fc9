"""Accuracy metrics (BLEU, CIDEr) and diversity metrics (vocab size,
mBLEU, div-n) over tokenized captions.

All functions take captions as plain lists of word tokens (markers already
stripped). ``evaluate_captions`` counts each caption and reference once per
n-gram order and scores every metric from those count tables; the public
per-metric functions count their inputs and call the same scoring code.
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
    for key in zip(*(seq[i:] for i in range(n))):
        counts[key] = counts.get(key, 0) + 1
    return counts


NMAX = 4  # highest n-gram order of BLEU, CIDEr and the report


def _count(tokens, nmax: int = NMAX) -> list:
    """A caption's count tables, ``[order - 1] -> gram -> count``."""
    return [ngram_counts(tokens, n) for n in range(1, nmax + 1)]


# -- BLEU ---------------------------------------------------------------------


def _ceiling(tables) -> list:
    """Per order, each gram's largest count in any of ``tables`` (count
    tables of the references): the most matches BLEU credits it with."""
    ceiling = []
    for order_tables in zip(*tables):
        top = {}
        for counts in order_tables:
            for gram, count in counts.items():
                if count > top.get(gram, 0):
                    top[gram] = count
        ceiling.append(top)
    return ceiling


def _bleu_stats(tables, length: int, ceiling, ref_lengths) -> tuple:
    """One candidate's BLEU tallies from its count tables: clipped matches
    and n-gram totals per order, its length, its closest reference length
    (the shorter one on a tie)."""
    matches = tuple(
        sum(min(count, top.get(gram, 0)) for gram, count in counts.items())
        for counts, top in zip(tables, ceiling)
    )
    totals = tuple(max(0, length - k) for k in range(len(matches)))
    closest = min((abs(r - length), r) for r in ref_lengths)[1]
    return matches, totals, length, closest


def _bleu(stats, n: int) -> float:
    """BLEU_n over candidates' ``_bleu_stats``: clipped precisions pooled
    over them, geometric mean, times brevity penalty."""
    matches = [0] * n
    totals = [0] * n
    cand_len_sum = 0
    ref_len_sum = 0
    for m, t, length, closest in stats:
        for k in range(n):
            matches[k] += m[k]
            totals[k] += t[k]
        cand_len_sum += length
        ref_len_sum += closest
    if any(t == 0 or m == 0 for m, t in zip(matches, totals)):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matches, totals)) / n
    bp = min(1.0, math.exp(1.0 - ref_len_sum / cand_len_sum)) if cand_len_sum else 0.0
    return bp * math.exp(log_precision)


def corpus_bleu(candidates, references_list, n: int = 4) -> float:
    """Corpus-level BLEU_n: clipped precisions pooled over the corpus,
    geometric mean, times brevity penalty."""
    if not 1 <= n <= NMAX:
        raise ValueError("n must be in 1..4")
    if not candidates or len(candidates) != len(references_list):
        raise ValueError("need one reference set per candidate")
    stats = []
    for candidate, references in zip(candidates, references_list):
        if not references:
            raise ValueError("every candidate needs at least one reference")
        ceiling = _ceiling([_count(ref, n) for ref in references])
        stats.append(_bleu_stats(_count(candidate, n), len(candidate), ceiling,
                                 [len(ref) for ref in references]))
    return _bleu(stats, n)


# -- CIDEr --------------------------------------------------------------------


@dataclass
class DocFreqTable:
    """Per-order document frequencies: df[n-1][gram] = number of clips
    whose reference set contains the gram. Read-only once built: each
    gram's idf is taken when the table is made."""

    df: list[dict]
    corpus_size: int
    nmax: int = NMAX

    def __post_init__(self):
        # each gram's idf, taken once; unseen grams are clamped to df=1, as
        # in the original metric
        self._idf = [
            {gram: math.log(self.corpus_size / max(1, count)) for gram, count in df.items()}
            for df in self.df
        ]
        self._idf_unseen = math.log(self.corpus_size / 1)

    def idf(self, gram, n: int) -> float:
        return self._idf[n - 1].get(gram, self._idf_unseen)


def _doc_freq(ref_tables_list, nmax: int) -> DocFreqTable:
    """The table over clips given as their references' count tables."""
    if not ref_tables_list:
        raise ValueError("empty reference corpus")
    df = [{} for _ in range(nmax)]
    for ref_tables in ref_tables_list:
        for i in range(nmax):
            for gram in set().union(*(tables[i] for tables in ref_tables)):
                df[i][gram] = df[i].get(gram, 0) + 1
    return DocFreqTable(df, len(ref_tables_list), nmax)


def build_doc_freq(references_list, nmax: int = NMAX) -> DocFreqTable:
    return _doc_freq([[_count(ref, nmax) for ref in refs] for refs in references_list], nmax)


def _tfidf_vector(counts: dict, df_table: DocFreqTable, n: int) -> dict:
    return {gram: count * df_table.idf(gram, n) for gram, count in counts.items()}


def _norm(vec: dict) -> float:
    return math.sqrt(sum(x * x for x in vec.values()))


def _cosine(u: dict, nu: float, v: dict, nv: float) -> float:
    if nu == 0.0 or nv == 0.0:
        return 0.0
    dot = sum(x * v[g] for g, x in u.items() if g in v)
    return dot / (nu * nv)


def _reference_vectors(ref_tables, df_table: DocFreqTable) -> list:
    orders = []
    for n in range(1, df_table.nmax + 1):
        vecs = [_tfidf_vector(tables[n - 1], df_table, n) for tables in ref_tables]
        orders.append([(vec, _norm(vec)) for vec in vecs])
    return orders


def reference_vectors(references, df_table: DocFreqTable) -> list:
    """Each order's reference TF-IDF vectors with their norms,
    ``[order - 1][ref] -> (vector, norm)``. They depend only on the
    references and the table, so a caller that scores many candidates
    against one clip computes them once."""
    return _reference_vectors([_count(ref, df_table.nmax) for ref in references], df_table)


def cider(candidate, references, df_table: DocFreqTable, ref_vectors: list | None = None) -> float:
    """TF-IDF n-gram cosine consensus, averaged over orders and references,
    scaled to [0, 10]. ``ref_vectors`` are the references'
    ``reference_vectors``, if the caller has them already."""
    if ref_vectors is None:
        ref_vectors = reference_vectors(references, df_table)
    per_order = []
    for n, refs in enumerate(ref_vectors, start=1):
        cand_vec = _tfidf_vector(ngram_counts(candidate, n), df_table, n)
        nu = _norm(cand_vec)
        sims = [_cosine(cand_vec, nu, vec, nv) for vec, nv in refs]
        per_order.append(sum(sims) / len(sims))
    return 10.0 * sum(per_order) / len(per_order)


# -- diversity ----------------------------------------------------------------


def vocab_size(captions) -> int:
    """Distinct content words across all generated captions."""
    return len({tok for caption in captions for tok in caption})


def _mbleu(tables, lengths, n: int) -> float:
    """Mean BLEU_n of each caption, given as count tables and length,
    against the clip's other captions."""
    scores = []
    for i, (own, length) in enumerate(zip(tables, lengths)):
        others = [j for j in range(len(tables)) if j != i]
        ceiling = _ceiling([tables[j] for j in others])
        stats = _bleu_stats(own, length, ceiling, [lengths[j] for j in others])
        scores.append(_bleu([stats], n))
    return sum(scores) / len(scores)


def mbleu(captions_per_clip, n: int = 4) -> float:
    """Mutual BLEU among one clip's captions; lower means more diverse."""
    if len(captions_per_clip) < 2:
        raise ValueError("mbleu needs at least 2 captions per clip")
    return _mbleu([_count(c, n) for c in captions_per_clip],
                  [len(c) for c in captions_per_clip], n)


def _distinct_ratio(count_tables, total_words: int) -> float:
    if total_words == 0:
        return 0.0
    return len(set().union(*count_tables)) / total_words


def div_n(captions_per_clip, n: int) -> float:
    """Distinct n-grams over total words in one clip's caption set."""
    return _distinct_ratio([ngram_counts(c, n) for c in captions_per_clip],
                           sum(len(c) for c in captions_per_clip))


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
    if any(not references[c] for c in clip_ids):
        raise ValueError("every candidate needs at least one reference")

    # every reference and caption is counted once; all scores read the tables
    ref_tables = {c: [_count(ref) for ref in references[c]] for c in clip_ids}
    df_table = _doc_freq([ref_tables[c] for c in clip_ids], NMAX)
    top1_stats, all_stats, ciders, per_clip = [], [], [], []
    for c in clip_ids:
        captions = generated[c]
        tables = [_count(caption) for caption in captions]
        lengths = [len(caption) for caption in captions]
        ceiling = _ceiling(ref_tables[c])
        ref_lengths = [len(ref) for ref in references[c]]
        stats = [_bleu_stats(t, length, ceiling, ref_lengths) for t, length in zip(tables, lengths)]
        top1_stats.append(stats[0])
        all_stats.extend(stats)
        ref_vecs = _reference_vectors(ref_tables[c], df_table)
        clip_ciders = [cider(caption, references[c], df_table, ref_vecs) for caption in captions]
        ciders.extend(clip_ciders)
        words = sum(lengths)
        per_clip.append((
            c,
            clip_ciders[0],
            _mbleu(tables, lengths, 4) if len(captions) >= 2 else 1.0,
            _distinct_ratio([t[0] for t in tables], words),
            _distinct_ratio([t[1] for t in tables], words),
        ))

    return MetricReport(
        bleu={f"bleu_{n}": _bleu(top1_stats, n) for n in range(1, 5)},
        bleu_4_all=_bleu(all_stats, 4),
        cider_top1=sum(row[1] for row in per_clip) / len(clip_ids),
        cider_all=sum(ciders) / len(ciders),
        spider=None,
        vocab_size=vocab_size(caption for c in clip_ids for caption in generated[c]),
        mbleu_4=sum(row[2] for row in per_clip) / len(clip_ids),
        div_1=sum(row[3] for row in per_clip) / len(clip_ids),
        div_2=sum(row[4] for row in per_clip) / len(clip_ids),
        n_clips=len(clip_ids),
        per_clip=per_clip,
    )
