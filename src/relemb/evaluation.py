"""Scoring and analysis of label indices: official relation scoring,
bootstrap intervals, and top-n-gram inspection.

Labels are indices into :data:`relemb.corpus.ALL_LABELS`, whose layout puts
family f's two directions at 2f and 2f + 1 and Other last.  The relation
scorer follows the SemEval-2010 Task 8 official protocol: a prediction is a
true positive only when relation family and argument direction both match;
per-family precision/recall aggregate both directions; the macro-F1
averages the family F1 values with Other excluded from the average (but
counted in the denominators).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import ALL_LABELS, FAMILIES, ConfigError, neighbor_slot_rows
from .features import between_slice, ngram_embedding

__all__ = [
    "EvalReport",
    "score_semeval",
    "bootstrap_ci",
    "top_ngrams",
    "format_report",
    "report_kv",
    "write_predictions",
]

_N_LABELS = len(ALL_LABELS)
_N_FAMILIES = len(FAMILIES)   # family f holds labels 2f and 2f + 1


@dataclass
class EvalReport:
    per_family: dict[str, dict[str, float]]   # precision/recall/f1/gold/pred/tp
    macro_f1: float                           # percent
    accuracy: float                           # percent
    confusion: np.ndarray                     # (19, 19), rows = gold
    n: int
    bootstrap: tuple[float, float, float] | None = None   # (lower, upper, level)


def _label_indices(labels):
    """`labels`, a sequence of label indices, as an int64 array; raises
    ValueError naming the first value that is not an index 0..18."""
    labels = np.asarray(labels)
    if labels.size and labels.dtype.kind not in "iu":
        raise ValueError(f"label indices must be integers, got {labels.dtype}")
    bad = labels[(labels < 0) | (labels >= _N_LABELS)]
    if bad.size:
        raise ValueError(f"label index {bad[0]} outside 0..{_N_LABELS - 1}")
    return labels.astype(np.int64, copy=False)


def _cell_codes(gold, pred):
    """Each instance's confusion cell, ``19 * gold + predicted`` label
    index."""
    if len(gold) != len(pred):
        raise ValueError(f"length mismatch: {len(gold)} gold vs "
                         f"{len(pred)} predicted")
    return _label_indices(gold) * _N_LABELS + _label_indices(pred)


def _cell_roles(cells):
    """The ``(len(cells), 27)`` 0/1 matrix that takes counts of confusion
    `cells` to per-family counts, ``tp``, ``gold`` and ``pred`` side by
    side: column f marks the cells that are true positives of family f
    (label and direction both match), column 9 + f those whose gold label
    is in family f, and column 18 + f those whose predicted label is.
    Other is in no family."""
    gold, pred = np.divmod(cells[:, None], _N_LABELS)
    families = np.arange(_N_FAMILIES)
    in_gold, in_pred = gold // 2 == families, pred // 2 == families
    return np.concatenate([in_gold & (gold == pred), in_gold, in_pred],
                          axis=1).astype(np.int64)


def _family_scores(tp, gold_n, pred_n):
    """Per-family precision, recall and F1 (fractions) from per-family
    counts (arrays ``(..., 9)``), and the official macro-F1 (percent) of
    each row: ``(macro, precision, recall, f1)``.

    Family F1s are added one family at a time, in family order.  Families
    absent from both gold and predictions do not enter the average, which
    reduces to the usual 9-family mean on full data.
    """
    count = ((gold_n > 0) | (pred_n > 0)).sum(axis=-1)
    total = np.zeros(count.shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(pred_n > 0, tp / pred_n, 0.0)
        recall = np.where(gold_n > 0, tp / gold_n, 0.0)
        f1 = np.where(precision + recall > 0, 2 * precision * recall
                      / (precision + recall), 0.0)
        for f in range(_N_FAMILIES):
            total += f1[..., f]           # 0.0 for an absent family
        macro = np.where(count > 0, 100.0 * total / count, 0.0)
    return macro, precision, recall, f1


def score_semeval(gold, pred):
    """Score predicted label indices against gold ones; returns an
    EvalReport."""
    confusion = np.bincount(_cell_codes(gold, pred),
                            minlength=_N_LABELS * _N_LABELS)
    tp, gold_n, pred_n = np.split(
        confusion @ _cell_roles(np.arange(len(confusion))), 3)
    macro, precision, recall, f1 = _family_scores(tp, gold_n, pred_n)
    columns = {"precision": 100.0 * precision, "recall": 100.0 * recall,
               "f1": 100.0 * f1, "gold": gold_n, "pred": pred_n, "tp": tp}
    columns = {key: value.tolist() for key, value in columns.items()}
    per_family = {fam: {key: values[f] for key, values in columns.items()}
                  for f, fam in enumerate(FAMILIES)}
    confusion = confusion.reshape(_N_LABELS, _N_LABELS)
    accuracy = (100.0 * float(np.trace(confusion)) / len(gold) if len(gold)
                else 0.0)
    return EvalReport(per_family, macro.item(), accuracy, confusion, len(gold))


# Resampled instances one block draws and counts; bounds a block's memory.
_BOOTSTRAP_BLOCK = 1 << 15


def bootstrap_ci(gold, pred, iterations=1000, level=0.95, seed=1):
    """Percentile bootstrap interval for the official macro-F1 of label
    indices `pred` against `gold`.

    Instances are resampled with replacement `iterations` times, each
    resample the stream of one ``rng.integers(0, n, n)`` draw; returns the
    ((1-level)/2, (1+level)/2) percentiles of the resampled scores.

    The work is done per block of resamples, ``_BOOTSTRAP_BLOCK // n`` of
    them (at least one), so memory stays bounded whatever `iterations` is:
    one ``(k, n)`` draw gives the block's k resamples; each instance is
    mapped to the index of its confusion cell among the m distinct cells
    the data holds, and one bincount counts the block's ``(k, m)`` cells;
    one product with :func:`_cell_roles` turns them into per-family counts,
    which are scored as :func:`score_semeval` scores them.
    """
    if iterations < 100:
        raise ConfigError("iterations must be >= 100")
    if not 0 < level < 1:
        raise ConfigError("level must be between 0 and 1")
    # each instance's index among the distinct cells (np.unique without
    # return_inverse would import numpy.ma)
    cells, local = np.unique(_cell_codes(gold, pred), return_inverse=True)
    roles = _cell_roles(cells)
    n, m = len(local), len(cells)
    rng = np.random.default_rng(seed)
    scores = np.empty(iterations)
    per_block = max(1, _BOOTSTRAP_BLOCK // max(n, 1))
    for lo in range(0, iterations, per_block):
        k = min(per_block, iterations - lo)
        drawn = local[rng.integers(0, n, (k, n))]
        drawn += m * np.arange(k)[:, None]
        counts = np.bincount(drawn.ravel(), minlength=k * m).reshape(k, m)
        scores[lo:lo + k] = _family_scores(
            *np.split(counts @ roles, 3, axis=1))[0]
    lo, hi = _percentiles(scores, [50 * (1 - level), 50 * (1 + level)])
    return lo, hi


def _percentiles(values, percents):
    """``np.percentile(values, percents)`` of 1-D float `values` at its
    default (linear) method, bit for bit, as floats: the sorted values at
    index ``(n - 1) * p / 100``, interpolated as numpy does.  It sorts
    instead of calling np.percentile, whose partition step imports
    numpy.ma through np.unique."""
    ordered = np.sort(values)
    last = len(ordered) - 1
    out = []
    for p in percents:
        index = last * (p / 100)
        if index >= last:
            out.append(float(ordered[-1]))
            continue
        lo = math.floor(index)
        a, b, t = ordered[lo], ordered[lo + 1], index - lo
        out.append(float(b - (b - a) * (1 - t) if t >= 0.5
                         else a + (b - a) * t))
    return out


# --- n-gram inspection -------------------------------------------------------

def top_ngrams(softmax_params, embed_params, opts, contexts, label, n,
               top_k=5, vocab=None):
    """Highest-scoring n-grams from the training set for class `label`, a
    label index.

    Every length-`n` window over the between-words of `contexts` (center
    word plus (n-1)/2 neighbors each side, NULL past the span) is embedded
    like a full n-gram with the out-of-window neighbor slots masked to NULL,
    then scored by dot product with the class's between-block rows of the
    softmax weights.  Returns ``top_k`` ``(words, score)`` pairs,
    deduplicated by surface form; `words` are id tuples, or rendered
    surfaces when `vocab` is given.
    """
    if not opts.include_between or opts.bow_between:
        raise ConfigError("classifier has no order-aware between block")
    if n < 1 or n % 2 == 0 or n > 2 * embed_params.window + 1:
        raise ConfigError(
            f"n must be odd and within 1..{2 * embed_params.window + 1}")
    if top_k < 1:
        raise ConfigError("top_k must be >= 1")
    half = (n - 1) // 2
    c = embed_params.window
    (label,) = _label_indices([label])
    class_row = softmax_params.weights[label,
                                       between_slice(embed_params, opts)]

    seen = {}
    order = []
    for ctx in contexts:
        slots = neighbor_slot_rows(ctx.w_in, (0, ctx.m_in), c, half)
        for i, row in enumerate(slots.tolist(), 1):
            words = (*reversed(row[:half]), ctx.w_in[i - 1], *row[c:c + half])
            if words in seen:
                continue
            h = ngram_embedding(ctx, i, embed_params, mask_beyond=half,
                                slots=slots)
            seen[words] = float(class_row @ h)
            order.append(words)
    ranked = sorted(order, key=lambda w: -seen[w])[:top_k]
    if vocab is not None:
        return [(tuple(vocab.word_surface(w) for w in words), seen[words])
                for words in ranked]
    return [(words, seen[words]) for words in ranked]


# --- rendering ---------------------------------------------------------------

def format_report(report):
    """Aligned text table of an EvalReport."""
    lines = []
    lines.append(f"{'family':<22}{'P':>8}{'R':>8}{'F1':>8}{'gold':>7}{'pred':>7}")
    for fam in FAMILIES:
        s = report.per_family[fam]
        lines.append(f"{fam:<22}{s['precision']:>8.2f}{s['recall']:>8.2f}"
                     f"{s['f1']:>8.2f}{s['gold']:>7}{s['pred']:>7}")
    lines.append("")
    lines.append(f"official macro-F1: {report.macro_f1:.2f}")
    lines.append(f"accuracy (19-way): {report.accuracy:.2f}")
    if report.bootstrap is not None:
        lo, hi, level = report.bootstrap
        lines.append(f"bootstrap {100 * level:.0f}% interval: ({lo:.1f}, {hi:.1f})")
    return "\n".join(lines)


def report_kv(report):
    """Machine-readable key=value lines."""
    lines = [f"n={report.n}",
             f"macro_f1={report.macro_f1:.4f}",
             f"accuracy={report.accuracy:.4f}"]
    for fam in FAMILIES:
        s = report.per_family[fam]
        key = fam.lower().replace("-", "_")
        lines.append(f"{key}_f1={s['f1']:.4f}")
    if report.bootstrap is not None:
        lo, hi, level = report.bootstrap
        lines.append(f"bootstrap_lower={lo:.4f}")
        lines.append(f"bootstrap_upper={hi:.4f}")
        lines.append(f"bootstrap_level={level}")
    return "\n".join(lines)


def write_predictions(ids, labels, path):
    """Prediction file: ``id<TAB>label surface`` per line, for label
    indices `labels`."""
    labels = _label_indices(labels).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for i, lab in zip(ids, labels):
            fh.write(f"{i}\t{ALL_LABELS[lab]}\n")
