"""Synthetic corpora with planted pair->word patterns.

Each relation class plants a three-slot signature between its noun pair.
Every slot draws from a synonym pool under a Zipf-like distribution, so one
class has hundreds of surface trigrams sharing the same underlying pattern
and the rare synonyms show up only a handful of times in any labeled split,
while the pretraining corpus covers them all.  The two directions of a
family use the same slot pools in reversed order: bag-of-words features can
recover the family but not the direction, while order-aware n-gram features
can.  A class-correlated cue word tends to precede the first noun (signal
for the outside windows) and noun choices are biased per class so the noun
block is informative but not sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import ALL_LABELS, OTHER, parse_label

__all__ = ["PatternSpec", "default_patterns", "SyntheticData",
           "make_synthetic_data"]


def _pool(first, stem, size):
    return (first,) + tuple(f"{stem}{i:02d}" for i in range(1, size))


# Direction is carried by two tiny outer sets shared across families (which
# side of the middle word each set lands on); the family is carried only by
# the middle word, drawn from a large heavy-tailed pool.  Rare middle words
# are thus decisive yet nearly absent from any labeled split.
_OUTER_A = ("was", "got")
_OUTER_B = ("by", "from")
_MIDDLE_SIZE = 12
_CE_MIDDLE = _pool("caused", "cause", _MIDDLE_SIZE)
_CC_MIDDLE = _pool("inside", "contain", _MIDDLE_SIZE)


def _slot_cum(pool):
    if len(pool) <= 3:
        weights = np.ones(len(pool))
    else:
        weights = 1.0 / (1.0 + np.arange(len(pool)))
    return np.cumsum(weights / weights.sum())


@dataclass
class PatternSpec:
    label: int                           # label index
    slots: tuple[tuple[str, ...], ...]   # synonym pool per trigram slot
    cue: str                             # tends to precede the first noun
    noun_bias: tuple[int, int]           # preferred slice of the noun list

    def __post_init__(self):
        self._cums = [_slot_cum(s) for s in self.slots]

    def realize(self, rng):
        return [s[np.searchsorted(cum, rng.random(), side="right")]
                for s, cum in zip(self.slots, self._cums)]


def default_patterns():
    # Cues mark the family only; direction is readable from word order alone.
    return [
        PatternSpec(parse_label("Cause-Effect(e1,e2)"),
                    (_OUTER_A, _CE_MIDDLE, _OUTER_B), "reportedly", (0, 30)),
        PatternSpec(parse_label("Cause-Effect(e2,e1)"),
                    (_OUTER_B, _CE_MIDDLE, _OUTER_A), "reportedly", (10, 40)),
        PatternSpec(parse_label("Content-Container(e1,e2)"),
                    (_OUTER_A, _CC_MIDDLE, _OUTER_B), "quietly", (20, 50)),
        PatternSpec(parse_label("Content-Container(e2,e1)"),
                    (_OUTER_B, _CC_MIDDLE, _OUTER_A), "quietly", (30, 60)),
    ]


_FILLERS = ["soon", "often", "then", "later", "again", "once", "still",
            "maybe", "somehow", "quite", "rather", "almost"]
_NOUN_COUNT = 60


@dataclass
class SyntheticData:
    tagged_text: str                 # pretraining corpus, tagged format
    train_text: str                  # labeled data, SemEval format
    test_text: str
    patterns: list[PatternSpec] = field(default_factory=list)


def _sentence_tokens(rng, pattern, nouns, noise_rate):
    lo, hi = pattern.noun_bias
    n1 = nouns[rng.integers(lo, hi)] if rng.random() < 0.5 \
        else nouns[rng.integers(0, len(nouns))]
    n2 = nouns[rng.integers(0, len(nouns))]
    trigram = pattern.realize(rng)
    if rng.random() < noise_rate:
        trigram = [_FILLERS[rng.integers(0, len(_FILLERS))] for _ in range(3)]
    cue = pattern.cue if rng.random() < 0.7 \
        else _FILLERS[rng.integers(0, len(_FILLERS))]
    prefix = [_FILLERS[rng.integers(0, len(_FILLERS))]
              for _ in range(rng.integers(1, 3))] + [cue]
    suffix = [_FILLERS[rng.integers(0, len(_FILLERS))]
              for _ in range(rng.integers(2, 4))]
    return prefix, n1, trigram, n2, suffix


def _tagged(prefix, n1, trigram, n2, suffix):
    lines = []
    for w in prefix:
        lines.append(f"{w}\tRB")
    lines.append(f"{n1}\tNN")
    for w in trigram:
        lines.append(f"{w}\tVBD")
    lines.append(f"{n2}\tNN")
    for w in suffix:
        lines.append(f"{w}\tRB")
    return "\n".join(lines) + "\n\n"


def _labeled(instance_id, prefix, n1, trigram, n2, suffix, label):
    words = (prefix + [f"<e1>{n1}</e1>"] + trigram
             + [f"<e2>{n2}</e2>"] + suffix)
    return (f'{instance_id}\t"{" ".join(words)}"\n{ALL_LABELS[label]}\n\n')


def make_synthetic_data(n_pretrain=8000, n_train_per_class=150,
                        n_test_per_class=50, noise_rate=0.05,
                        label_flip_rate=0.0, seed=7, patterns=None):
    """Generate a pretraining corpus plus labeled train/test splits.

    `noise_rate` is the fraction of sentences whose planted trigram is
    replaced by random fillers (their label keeps only the noun/cue signal);
    `label_flip_rate` flips the direction of that fraction of *training*
    labels (Other has none), leaving the test labels clean.
    """
    rng = np.random.default_rng(seed)
    patterns = patterns or default_patterns()
    nouns = [f"noun{i:02d}" for i in range(_NOUN_COUNT)]

    tagged = []
    for _ in range(n_pretrain):
        pat = patterns[rng.integers(0, len(patterns))]
        tagged.append(_tagged(*_sentence_tokens(rng, pat, nouns, noise_rate)))

    def labeled_block(count_per_class, start_id, flip_rate):
        chunks = []
        iid = start_id
        order = []
        for pat in patterns:
            order += [pat] * count_per_class
        order = [order[i] for i in rng.permutation(len(order))]
        for pat in order:
            prefix, n1, trigram, n2, suffix = _sentence_tokens(
                rng, pat, nouns, noise_rate)
            label = pat.label
            if flip_rate and rng.random() < flip_rate and label != OTHER:
                label ^= 1
            chunks.append(_labeled(iid, prefix, n1, trigram, n2, suffix, label))
            iid += 1
        return "".join(chunks), iid

    train_text, next_id = labeled_block(n_train_per_class, 1, label_flip_rate)
    test_text, _ = labeled_block(n_test_per_class, next_id, 0.0)
    return SyntheticData("".join(tagged), train_text, test_text,
                         list(patterns))
