"""Classification feature vectors built from trained embedding parameters.

A context's feature vector is the gather of one id table (see
:func:`relemb.embed_train.gather_table`), and its gradient the scatter over
the same table.  Three blocks are table segments, in fixed order:

- nouns: the two noun rows, one ``noun_vecs`` segment of 2 slots;
- between: the mean n-gram embedding over the words between the pair, a
  ``word_vecs`` segment of 2c neighbor slots and a ``pred_vecs`` segment of
  the word itself, both pooled over the span (one ``word_vecs`` slot, the
  word itself, in the bag-of-words variant); an empty span gives zeros;
- outside: the before and after windows, one ``word_vecs`` slot each,
  pooled over the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import NULL_WORD, UNK_NOUN, ConfigError, NounPairContext, \
    neighbor_slot_rows
from .embed_train import gather_table, scatter_table

__all__ = [
    "FeatureOptions",
    "feature_table",
    "feature_tables",
    "ngram_embedding",
    "assemble_features",
    "feature_dim",
    "between_slice",
    "scatter_feature_grad",
]


@dataclass(frozen=True)
class FeatureOptions:
    """Which feature blocks to build.

    ``m_out`` trims both outside windows to their nearest `m_out` tokens;
    None keeps the width the contexts were extracted with.  ``bow_between``
    replaces the order-aware between block with its bag-of-words variant.
    """

    include_nouns: bool = True
    include_between: bool = True
    include_outside: bool = True
    bow_between: bool = False
    m_out: int | None = None

    def validate(self):
        if not (self.include_nouns or self.include_between or self.include_outside):
            raise ConfigError("at least one feature block must be enabled")
        if self.m_out is not None and self.m_out < 1:
            raise ConfigError("m_out override must be >= 1")
        return self

    def flags(self):
        toks = []
        if self.include_nouns:
            toks.append("nouns")
        if self.include_between:
            toks.append("between_bow" if self.bow_between else "between")
        if self.include_outside:
            toks.append("outside")
        if self.m_out is not None:
            toks.append(f"m_out={self.m_out}")
        return ",".join(toks)

    @classmethod
    def from_flags(cls, text):
        kwargs = dict(include_nouns=False, include_between=False,
                      include_outside=False, bow_between=False, m_out=None)
        for tok in text.split(","):
            tok = tok.strip()
            if tok == "nouns":
                kwargs["include_nouns"] = True
            elif tok == "between":
                kwargs["include_between"] = True
            elif tok == "between_bow":
                kwargs["include_between"] = True
                kwargs["bow_between"] = True
            elif tok == "outside":
                kwargs["include_outside"] = True
            elif tok.startswith("m_out=") and tok[6:].isdecimal():
                kwargs["m_out"] = int(tok[6:])
            elif tok:
                raise ConfigError(f"unknown feature flag: {tok!r}")
        return cls(**kwargs).validate()


def _ngram_table(ctx, positions, c, reach=None, slots=None):
    """Row ids and segments of the mean n-gram embedding over
    between-`positions` (1-based).  `slots` holds the context's
    :func:`~relemb.corpus.neighbor_slot_rows` when the caller has them."""
    rows = [i - 1 for i in positions]
    if not all(0 <= r < ctx.m_in for r in rows):
        raise ValueError(f"positions {list(positions)} outside 1..{ctx.m_in}")
    if slots is None:
        slots = neighbor_slot_rows(ctx.w_in, (0, ctx.m_in), c, reach)
    ids = slots[rows].ravel().tolist() + [ctx.w_in[r] for r in rows]
    m = len(positions)
    return ids, [("word_vecs", 2 * c, m), ("pred_vecs", 1, m)]


def ngram_embedding(ctx, i, params, mask_beyond=None, slots=None):
    """Order-aware n-gram embedding for between-word position `i` (1-based).

    Concatenates the word embeddings of the `window` neighbors on each side
    with the prediction vector of the word itself; out-of-span slots use the
    NULL embedding.  `mask_beyond` additionally NULLs neighbor slots more
    than that many positions away (used to score short n-grams against the
    same weights as full ones).  `slots` holds the context's
    :func:`~relemb.corpus.neighbor_slot_rows` with reach `mask_beyond` when
    the caller has them.
    """
    return gather_table(params, *_ngram_table(ctx, [i], params.window,
                                              mask_beyond, slots))


def _trim_outside(ctx, m_out):
    if m_out is None:
        return ctx.w_bef, ctx.w_aft
    if m_out > ctx.m_out:
        raise ValueError(
            f"m_out override {m_out} exceeds extracted window {ctx.m_out}")
    # Nearest-token slices: w_bef is nearest-last, w_aft nearest-first.
    return ctx.w_bef[len(ctx.w_bef) - m_out:], ctx.w_aft[:m_out]


def feature_table(ctx, params, opts=FeatureOptions(), slots=None):
    """Id table ``(ids, segments)`` of the enabled blocks of `ctx`, in fixed
    order (nouns, between, outside); see
    :func:`relemb.embed_train.gather_table`.  `slots` holds the context's
    neighbour slots when the caller has them (see :func:`feature_tables`)."""
    ids = []
    segments = []
    if opts.include_nouns:
        ids += (ctx.n1, ctx.n2)
        segments.append(("noun_vecs", 2, 1))
    if opts.include_between:
        if opts.bow_between:
            # each word's embedding, then each word's prediction vector
            ids += ctx.w_in + ctx.w_in
            segments += [("word_vecs", 1, ctx.m_in), ("pred_vecs", 1, ctx.m_in)]
        else:
            gram_ids, gram_segments = _ngram_table(
                ctx, range(1, ctx.m_in + 1), params.window, slots=slots)
            ids += gram_ids
            segments += gram_segments
    if opts.include_outside:
        bef, aft = _trim_outside(ctx, opts.m_out)
        ids += bef + aft
        segments += [("word_vecs", 1, len(bef)), ("word_vecs", 1, len(aft))]
    return np.array(ids, dtype=np.intp), segments


def feature_tables(contexts, params, opts=FeatureOptions()):
    """:func:`feature_table` of each of `contexts`, their neighbour slots
    read with one :func:`~relemb.corpus.neighbor_slot_rows` call."""
    contexts = list(contexts)
    offsets = np.cumsum([0] + [ctx.m_in for ctx in contexts])
    slots = neighbor_slot_rows(
        np.fromiter(chain.from_iterable(ctx.w_in for ctx in contexts),
                    np.int64, offsets[-1]), offsets, params.window)
    return [feature_table(ctx, params, opts, slots[lo:hi])
            for ctx, lo, hi in zip(contexts, offsets, offsets[1:])]


def assemble_features(ctx, params, opts=FeatureOptions(), table=None):
    """The feature vector of `ctx`: the gather of its :func:`feature_table`,
    which callers already holding it pass as `table`."""
    opts.validate()
    if table is None:
        table = feature_table(ctx, params, opts)
    return gather_table(params, *table)


def _probe(m_out):
    """A context with one between word and outside windows of width
    `m_out`."""
    return NounPairContext(UNK_NOUN, UNK_NOUN, (NULL_WORD,),
                           (NULL_WORD,) * m_out, (NULL_WORD,) * m_out)


def _widths(params, opts):
    """Segments of a one-word context and the width each fills; widths do
    not depend on the span lengths, so they hold for every context."""
    segments = feature_table(_probe(opts.m_out or 1), params, opts)[1]
    return segments, [k * getattr(params, name).shape[1]
                      for name, k, _ in segments]


def feature_dim(params, opts=FeatureOptions()):
    """Length of the assembled vector for these parameters and options."""
    opts.validate()
    return sum(_widths(params, opts)[1])


def between_slice(params, opts=FeatureOptions()):
    """Where the order-aware between block lies in the assembled vector:
    the segments a one-position n-gram table fills.  Raises ValueError when
    the options build no such block."""
    segments, widths = _widths(params, opts)
    gram = _ngram_table(_probe(1), [1], params.window)[1]
    j = segments.index(gram[0])
    start = sum(widths[:j])
    return slice(start, start + sum(widths[j:j + len(gram)]))


def scatter_feature_grad(grad_e, ctx, params, opts=FeatureOptions(),
                         table=None):
    """Distribute a gradient w.r.t. the assembled vector back onto the
    parameter rows it was built from: the scatter over the same
    :func:`feature_table`, which callers already holding it pass as
    `table`.

    Returns the gradient in the form of
    :func:`relemb.embed_train.sum_rows`, keyed by ``noun_vecs``,
    ``word_vecs`` and ``pred_vecs``; rows appearing in several slots
    accumulate.  Blocks no row contributes to are left out.
    """
    if table is None:
        table = feature_table(ctx, params, opts)
    return scatter_table(grad_e, params, *table)
