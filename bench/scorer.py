"""Independent SemEval-2010 Task 8 scorer for the benchmark's output checks.

It shares no code with ``relemb.evaluation``, so the reported ``macro_f1``
never rests only on the code under test.  Official rules: a prediction is
correct only when family and direction both match; per-family precision and
recall pool both directions; Other counts in every denominator but is left
out of the average.  As in ``relemb``, a family absent from both gold and
predictions does not enter the average (on full data this is the usual mean
over the nine families).
"""

from __future__ import annotations

import re

_SENTENCE_LINE = re.compile(r'^(\d+)\t"')


def _family(label):
    return label.split("(", 1)[0]


def macro_f1(pairs):
    """Official macro-F1 in percent over ``(gold, predicted)`` label pairs."""
    gold_n, pred_n, correct = {}, {}, {}
    for gold, pred in pairs:
        gf, pf = _family(gold), _family(pred)
        gold_n[gf] = gold_n.get(gf, 0) + 1
        pred_n[pf] = pred_n.get(pf, 0) + 1
        if gold == pred:
            correct[gf] = correct.get(gf, 0) + 1
    f1s = []
    for fam in sorted((set(gold_n) | set(pred_n)) - {"Other"}):
        tp = correct.get(fam, 0)
        precision = tp / pred_n[fam] if pred_n.get(fam) else 0.0
        recall = tp / gold_n[fam] if gold_n.get(fam) else 0.0
        f1s.append(2 * precision * recall / (precision + recall)
                   if precision + recall else 0.0)
    return 100.0 * sum(f1s) / len(f1s) if f1s else 0.0


def read_gold(path):
    """``{id: label}`` from a SemEval-format file: an ``id<TAB>"sentence"``
    line followed by its label on the next non-blank line."""
    gold = {}
    pending = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            text = line.strip()
            if not text:
                continue
            m = _SENTENCE_LINE.match(line)
            if m is not None and pending is None:
                pending = int(m.group(1))
            elif pending is not None:
                gold[pending] = text
                pending = None
    return gold


def read_predictions(path):
    """``{id: label}`` from an ``id<TAB>label`` prediction file."""
    pred = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                iid, label = line.rstrip("\n").split("\t")
                pred[int(iid)] = label
    return pred


def score_files(gold_path, pred_path):
    """Macro-F1 of a prediction file; raises ValueError unless it covers
    exactly the gold instances."""
    gold = read_gold(gold_path)
    pred = read_predictions(pred_path)
    if set(gold) != set(pred):
        raise ValueError(f"{pred_path}: {len(pred)} predictions for "
                         f"{len(gold)} gold instances")
    return macro_f1((gold[i], pred[i]) for i in gold)
