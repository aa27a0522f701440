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

:func:`feature_table` builds one context's table and is the reference;
:func:`pack_tables` builds the tables of many contexts at once, packed into
flat arrays, for the classifier's training epochs and its scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import NULL_WORD, UNK_NOUN, ConfigError, NounPairContext, \
    _spans, neighbor_slot_rows
from .embed_train import gather_table, scatter_table

__all__ = [
    "FeatureOptions",
    "feature_table",
    "PackedTables",
    "pack_tables",
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


def feature_table(ctx, params, opts=FeatureOptions()):
    """Id table ``(ids, segments)`` of the enabled blocks of `ctx`, in fixed
    order (nouns, between, outside); see
    :func:`relemb.embed_train.gather_table`.  This is the per-context
    reference of :func:`pack_tables`."""
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
                ctx, range(1, ctx.m_in + 1), params.window)
            ids += gram_ids
            segments += gram_segments
    if opts.include_outside:
        bef, aft = _trim_outside(ctx, opts.m_out)
        ids += bef + aft
        segments += [("word_vecs", 1, len(bef)), ("word_vecs", 1, len(aft))]
    return np.array(ids, dtype=np.intp), segments


@dataclass
class PackedTables:
    """The :func:`feature_table` of each of n contexts, packed into flat
    arrays.  Every table has the segments ``(name, k)``; ``m[i, s]`` is
    context i's pooled-row count in segment s, and its entries are
    ``ids[starts[i]:starts[i + 1]]``, segment after segment, each segment
    its ``m`` rows of ``k`` slots."""

    segments: list[tuple[str, int]]
    m: np.ndarray
    starts: np.ndarray
    ids: np.ndarray

    def table(self, i):
        """Context i's :func:`feature_table`."""
        return (self.ids[self.starts[i]:self.starts[i + 1]],
                [(name, k, m) for (name, k), m in zip(self.segments,
                                                      self.m[i].tolist())])


def _ragged(contexts, name):
    """Attribute `name` of every context, one flat int64 array, and each
    context's count of ids."""
    lengths = np.array([len(getattr(ctx, name)) for ctx in contexts],
                       np.int64)
    return np.fromiter(chain.from_iterable(getattr(ctx, name)
                                           for ctx in contexts),
                       np.int64, lengths.sum()), lengths


def _segment_columns(contexts, params, opts):
    """The segments of the tables of `contexts` in table order, each as
    ``(name, k, m, ids)``: per-context pooled-row counts and the flat ids
    of all contexts, context after context."""
    n = len(contexts)
    columns = []
    if opts.include_nouns:
        nouns = np.array([(ctx.n1, ctx.n2) for ctx in contexts], np.int64)
        columns.append(("noun_vecs", 2, np.ones(n, np.int64), nouns.ravel()))
    if opts.include_between:
        w_in, m_in = _ragged(contexts, "w_in")
        if opts.bow_between:
            columns.append(("word_vecs", 1, m_in, w_in))
        else:
            c = params.window
            offsets = np.concatenate(([0], np.cumsum(m_in)))
            columns.append(("word_vecs", 2 * c, m_in,
                            neighbor_slot_rows(w_in, offsets, c).ravel()))
        columns.append(("pred_vecs", 1, m_in, w_in))
    if opts.include_outside:
        for name in ("w_bef", "w_aft"):
            ids, lengths = _ragged(contexts, name)
            if opts.m_out is not None:
                short = np.flatnonzero(lengths < opts.m_out)
                if len(short):
                    raise ValueError(
                        f"m_out override {opts.m_out} exceeds extracted "
                        f"window {lengths[short[0]]}")
                # the nearest tokens: w_bef is nearest-last, w_aft
                # nearest-first
                at = np.arange(len(ids)) - np.repeat(
                    np.cumsum(lengths) - lengths, lengths)
                keep = (at >= np.repeat(lengths - opts.m_out, lengths)
                        if name == "w_bef" else at < opts.m_out)
                ids, lengths = ids[keep], np.full(n, opts.m_out, np.int64)
            columns.append(("word_vecs", 1, lengths, ids))
    return columns


def pack_tables(contexts, params, opts=FeatureOptions()):
    """The :class:`PackedTables` of `contexts`, built with numpy over all
    of them at once: table i equals ``feature_table(contexts[i], params,
    opts)``."""
    contexts = list(contexts)
    columns = _segment_columns(contexts, params, opts)
    m = np.zeros((len(contexts), len(columns)), np.int64)
    for s, (_, _, rows, _) in enumerate(columns):
        m[:, s] = rows
    sizes = m * [k for _, k, _, _ in columns]
    starts = np.zeros(len(contexts) + 1, np.int64)
    np.cumsum(sizes.sum(axis=1), out=starts[1:])
    ids = np.empty(starts[-1], np.int64)
    lo = starts[:-1].copy()
    for (_, _, _, flat), size in zip(columns, sizes.T):
        ids[_spans(lo, size)] = flat
        lo += size
    return PackedTables([(name, k) for name, k, _, _ in columns], m, starts,
                        ids)


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
