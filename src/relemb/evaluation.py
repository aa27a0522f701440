"""Scoring and analysis: official relation scoring, bootstrap intervals,
word-similarity correlation, ablation runs, and top-n-gram inspection.

The relation scorer follows the SemEval-2010 Task 8 official protocol: a
prediction is a true positive only when relation family and argument
direction both match; per-family precision/recall aggregate both directions;
the macro-F1 averages the family F1 values with Other excluded from the
average (but counted in the denominators).
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass

import numpy as np

from .corpus import ALL_LABELS, FAMILIES, ConfigError, label_index, \
    neighbor_slot_rows, not_utf8
from .classifier import cross_validate
from .features import FeatureOptions, between_slice, ngram_embedding

logger = logging.getLogger(__name__)

__all__ = [
    "EvalReport",
    "WordSimResult",
    "score_semeval",
    "bootstrap_ci",
    "read_wordsim",
    "spearman_wordsim",
    "top_ngrams",
    "ABLATION_SETTINGS",
    "run_ablations",
    "format_report",
    "report_kv",
    "write_predictions",
]

_N_LABELS = len(ALL_LABELS)

# family -> label indices (e1,e2 first), plus Other at the end
_FAMILY_SLOTS = {fam: (2 * i, 2 * i + 1) for i, fam in enumerate(FAMILIES)}
_OTHER_INDEX = _N_LABELS - 1


@dataclass
class EvalReport:
    per_family: dict[str, dict[str, float]]   # precision/recall/f1/gold/pred/tp
    macro_f1: float                           # percent
    accuracy: float                           # percent
    confusion: np.ndarray                     # (19, 19), rows = gold
    n: int
    bootstrap: tuple[float, float, float] | None = None   # (lower, upper, level)


def _macro_from_confusion(confusion):
    """Official macro-F1 (percent) from a 19x19 gold-by-predicted matrix,
    or from each of a stack of them (shape ``(..., 19, 19)``), and the
    per-family scores, in arrays over the stack.

    Family F1s are added one family at a time, in family order.  Families
    absent from both gold and predictions do not enter the average, which
    reduces to the usual 9-family mean on full data.
    """
    confusion = np.asarray(confusion)
    per_family = {}
    total = np.zeros(confusion.shape[:-2])
    count = np.zeros(confusion.shape[:-2], np.int64)
    for fam, (a, b) in _FAMILY_SLOTS.items():
        tp = confusion[..., a, a] + confusion[..., b, b]
        gold_n = confusion[..., [a, b], :].sum(axis=(-2, -1))
        pred_n = confusion[..., :, [a, b]].sum(axis=(-2, -1))
        with np.errstate(invalid="ignore", divide="ignore"):
            precision = np.where(pred_n > 0, tp / pred_n, 0.0)
            recall = np.where(gold_n > 0, tp / gold_n, 0.0)
            f1 = np.where(precision + recall > 0, 2 * precision * recall
                          / (precision + recall), 0.0)
        per_family[fam] = {
            "precision": 100.0 * precision,
            "recall": 100.0 * recall,
            "f1": 100.0 * f1,
            "gold": gold_n,
            "pred": pred_n,
            "tp": tp,
        }
        present = (gold_n > 0) | (pred_n > 0)
        total += np.where(present, f1, 0.0)
        count += present
    with np.errstate(invalid="ignore", divide="ignore"):
        macro = np.where(count > 0, 100.0 * total / count, 0.0)
    return macro, per_family


def score_semeval(gold, pred):
    """Score predicted labels against gold labels; returns an EvalReport."""
    if len(gold) != len(pred):
        raise ValueError(f"length mismatch: {len(gold)} gold vs {len(pred)} predicted")
    confusion = np.zeros((_N_LABELS, _N_LABELS), dtype=np.int64)
    for g, p in zip(gold, pred):
        confusion[label_index(g), label_index(p)] += 1
    macro, per_family = _macro_from_confusion(confusion)
    per_family = {fam: {key: value.item() for key, value in scores.items()}
                  for fam, scores in per_family.items()}
    accuracy = 100.0 * float(np.trace(confusion)) / len(gold) if gold else 0.0
    return EvalReport(per_family, macro.item(), accuracy, confusion, len(gold))


# Resampled instances one bincount counts; bounds the memory of a block.
_BOOTSTRAP_BLOCK = 1 << 15


def bootstrap_ci(gold, pred, iterations=1000, level=0.95, seed=1):
    """Percentile bootstrap interval for the official macro-F1.

    Instances are resampled with replacement `iterations` times, one
    ``rng.integers(0, n, n)`` draw each; returns the ((1-level)/2,
    (1+level)/2) percentiles of the resampled scores.  The confusion
    matrices of a block of resamples are counted with one bincount.
    """
    if iterations < 100:
        raise ConfigError("iterations must be >= 100")
    if not 0 < level < 1:
        raise ConfigError("level must be between 0 and 1")
    if len(gold) != len(pred):
        raise ValueError(f"length mismatch: {len(gold)} gold vs "
                         f"{len(pred)} predicted")
    cells = _N_LABELS * _N_LABELS
    pairs = np.array([label_index(g) * _N_LABELS + label_index(p)
                      for g, p in zip(gold, pred)], np.int64)
    n = len(pairs)
    rng = np.random.default_rng(seed)
    scores = np.empty(iterations)
    per_block = max(1, _BOOTSTRAP_BLOCK // max(n, 1))
    for lo in range(0, iterations, per_block):
        hi = min(lo + per_block, iterations)
        codes = np.concatenate([pairs[rng.integers(0, n, n)] + it * cells
                                for it in range(hi - lo)])
        confusion = np.bincount(codes, minlength=(hi - lo) * cells)
        scores[lo:hi] = _macro_from_confusion(
            confusion.reshape(hi - lo, _N_LABELS, _N_LABELS))[0]
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


# --- word similarity ---------------------------------------------------------

@dataclass
class WordSimResult:
    rho: float
    n_pairs: int
    oov_pairs: list[tuple[str, str]]


def read_wordsim(source):
    """Read ``word1,word2,score`` pairs (comma- or tab-separated, optional
    header line)."""
    if isinstance(source, str) or hasattr(source, "__fspath__"):
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError:
            raise not_utf8(source) from None
    else:
        text = source.read()
    pairs = []
    for row in csv.reader(io.StringIO(text),
                          delimiter="\t" if "\t" in text else ","):
        if not row or len(row) < 3:
            continue
        try:
            score = float(row[2])
        except ValueError:
            continue   # header
        pairs.append((row[0].strip(), row[1].strip(), score))
    return pairs


def _average_ranks(values):
    """Ranks 1..n of `values`, each run of ties given the mean of the ranks
    it spans."""
    _, inverse, counts = np.unique(values, return_inverse=True,
                                   return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman_wordsim(pairs, params, vocab, matrix="noun"):
    """Spearman rank correlation between human scores and cosine
    similarities under the selected embedding matrix ("noun" or "word").

    Out-of-vocabulary words fall back to their UNK embedding and the pair is
    reported in the result.  When every similarity or every human score is
    the same, rho is undefined: it is NaN, and a warning names the
    constant side.
    """
    if matrix == "noun":
        vecs, lookup, unk = params.noun_vecs, vocab.noun_id, 0
    elif matrix == "word":
        from .corpus import UNK_WORD
        vecs, lookup, unk = params.word_vecs, vocab.word_id, UNK_WORD
    else:
        raise ConfigError("matrix must be 'noun' or 'word'")
    human = []
    sims = []
    oov = []
    for w1, w2, score in pairs:
        i1, i2 = lookup(w1), lookup(w2)
        if i1 == unk or i2 == unk:
            oov.append((w1, w2))
        v1, v2 = vecs[i1], vecs[i2]
        denom = np.linalg.norm(v1) * np.linalg.norm(v2)
        sims.append(float(v1 @ v2 / denom) if denom > 0 else 0.0)
        human.append(score)
    constant = [side for side, values in (("human scores", human),
                                          ("cosine similarities", sims))
                if len(set(values)) < 2]
    if constant:
        logger.warning("wordsim: all %d %s are equal, so Spearman's rho is "
                       "undefined (NaN)", len(pairs), " and all ".join(constant))
        return WordSimResult(float("nan"), len(pairs), oov)
    rho = float(np.corrcoef(_average_ranks(human), _average_ranks(sims))[0, 1])
    return WordSimResult(rho, len(pairs), oov)


# --- n-gram inspection -------------------------------------------------------

def top_ngrams(softmax_params, embed_params, opts, contexts, label, n,
               top_k=5, vocab=None):
    """Highest-scoring n-grams from the training set for one class.

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
    class_row = softmax_params.weights[label_index(label),
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


# --- ablations ---------------------------------------------------------------

ABLATION_SETTINGS = (
    ("nouns", FeatureOptions(True, False, False)),
    ("between", FeatureOptions(False, True, False)),
    ("between-bow", FeatureOptions(False, True, False, bow_between=True)),
    ("nouns+between", FeatureOptions(True, True, False)),
    ("nouns+between+outside", FeatureOptions(True, True, True)),
)


def run_ablations(data, embed_params, config, **split):
    """Cross-validate the five feature-block combinations on one shared fold
    split, made by :func:`relemb.classifier.cross_validate` from its
    ``folds`` and ``seed`` in `split` (its defaults where absent); returns
    ``[(name, mean_f1, fold_scores), ...]``."""
    settings = [(name, config, opts) for name, opts in ABLATION_SETTINGS]
    return cross_validate(data, embed_params, settings, **split)


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
    """Prediction file: ``id<TAB>label`` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, lab in zip(ids, labels):
            fh.write(f"{i}\t{lab.surface()}\n")
