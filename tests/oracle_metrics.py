"""Naive, definition-level recomputation of BLEU and CIDEr.

Written independently of capgan.metrics, straight from the metric
definitions, to serve as the oracle in equivalence tests. Clarity over
speed everywhere.
"""
import math
from collections import Counter


def ngrams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def oracle_corpus_bleu(candidates, references_list, n):
    match_by_order = Counter()
    total_by_order = Counter()
    c_total = 0
    r_total = 0
    for cand, refs in zip(candidates, references_list):
        c_total += len(cand)
        # closest reference length, shorter wins ties
        best = None
        for ref in refs:
            key = (abs(len(ref) - len(cand)), len(ref))
            if best is None or key < best:
                best = key
        r_total += best[1]
        for order in range(1, n + 1):
            cand_counter = Counter(ngrams(cand, order))
            for gram, count in cand_counter.items():
                best_ref = max(Counter(ngrams(ref, order))[gram] for ref in refs)
                match_by_order[order] += min(count, best_ref)
            total_by_order[order] += max(0, len(cand) - order + 1)
    precisions = []
    for order in range(1, n + 1):
        if total_by_order[order] == 0:
            return 0.0
        precisions.append(match_by_order[order] / total_by_order[order])
    if min(precisions) == 0.0:
        return 0.0
    geo_mean = math.exp(sum(math.log(p) for p in precisions) / n)
    if c_total == 0:
        return 0.0
    brevity_penalty = min(1.0, math.exp(1.0 - r_total / c_total))
    return brevity_penalty * geo_mean


def oracle_doc_freq(references_list, nmax=4):
    df = [Counter() for _ in range(nmax)]
    for refs in references_list:
        for order in range(1, nmax + 1):
            present = set()
            for ref in refs:
                present.update(ngrams(ref, order))
            for gram in present:
                df[order - 1][gram] += 1
    return df, len(references_list)


def oracle_cider(candidate, references, df, corpus_size, nmax=4):
    order_means = []
    for order in range(1, nmax + 1):
        def tfidf(tokens):
            vec = {}
            for gram, count in Counter(ngrams(tokens, order)).items():
                idf = math.log(corpus_size / max(1, df[order - 1][gram]))
                vec[gram] = count * idf
            return vec

        cand_vec = tfidf(candidate)
        sims = []
        for ref in references:
            ref_vec = tfidf(ref)
            dot = sum(cand_vec.get(g, 0.0) * ref_vec[g] for g in ref_vec)
            norm_c = math.sqrt(sum(v * v for v in cand_vec.values()))
            norm_r = math.sqrt(sum(v * v for v in ref_vec.values()))
            sims.append(dot / (norm_c * norm_r) if norm_c > 0 and norm_r > 0 else 0.0)
        order_means.append(sum(sims) / len(sims))
    return 10.0 * sum(order_means) / nmax


def oracle_mbleu(captions, n=4):
    """Each caption's BLEU_n against the clip's other captions, averaged."""
    scores = []
    for i, caption in enumerate(captions):
        others = captions[:i] + captions[i + 1 :]
        scores.append(oracle_corpus_bleu([caption], [others], n))
    return sum(scores) / len(scores)


def oracle_div_n(captions, n):
    """Distinct n-grams of the caption set per word of it."""
    distinct = set()
    for caption in captions:
        distinct.update(ngrams(caption, n))
    words = sum(len(caption) for caption in captions)
    return len(distinct) / words if words else 0.0


def oracle_evaluate(generated, references):
    """The report's fields and per-clip rows (clip id, top-1 CIDEr,
    mBLEU_4, div-1, div-2), clips in sorted order. A clip with one
    caption has mBLEU 1."""
    clip_ids = sorted(generated)
    refs = [references[c] for c in clip_ids]
    top1 = [generated[c][0] for c in clip_ids]
    every = [(caption, references[c]) for c in clip_ids for caption in generated[c]]
    df, corpus_size = oracle_doc_freq(refs)
    ciders = {
        c: [oracle_cider(caption, references[c], df, corpus_size) for caption in generated[c]]
        for c in clip_ids
    }
    rows = []
    for c in clip_ids:
        captions = generated[c]
        mutual = oracle_mbleu(captions) if len(captions) > 1 else 1.0
        rows.append((c, ciders[c][0], mutual, oracle_div_n(captions, 1),
                     oracle_div_n(captions, 2)))
    report = {f"bleu_{n}": oracle_corpus_bleu(top1, refs, n) for n in range(1, 5)}
    report.update(
        bleu_4_all=oracle_corpus_bleu([c for c, _ in every], [r for _, r in every], 4),
        cider=sum(ciders[c][0] for c in clip_ids) / len(clip_ids),
        cider_all=sum(s for c in clip_ids for s in ciders[c]) / len(every),
        vocab_size=len({tok for caption, _ in every for tok in caption}),
        mbleu_4=sum(row[2] for row in rows) / len(rows),
        div_1=sum(row[3] for row in rows) / len(rows),
        div_2=sum(row[4] for row in rows) / len(rows),
        n_clips=len(clip_ids),
    )
    return report, rows
