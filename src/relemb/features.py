"""Classification feature vectors built from trained embedding parameters.

Three blocks are concatenated in fixed order: the noun-pair embeddings, the
averaged order-aware n-gram embeddings of the words between the pair (or
their bag-of-words simplification), and the averaged outside windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import neighbor_slots
from .embed_train import sum_rows

__all__ = [
    "FeatureOptions",
    "FeatureVector",
    "noun_pair_features",
    "ngram_embedding",
    "between_features",
    "between_features_bow",
    "outside_features",
    "assemble_features",
    "feature_dim",
    "scatter_feature_grad",
    "dump_features",
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
            raise ValueError("at least one feature block must be enabled")
        if self.m_out is not None and self.m_out < 1:
            raise ValueError("m_out override must be >= 1")
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
            elif tok.startswith("m_out="):
                kwargs["m_out"] = int(tok.split("=", 1)[1])
            elif tok:
                raise ValueError(f"unknown feature flag: {tok!r}")
        return cls(**kwargs).validate()


@dataclass
class FeatureVector:
    vector: np.ndarray
    blocks: dict[str, tuple[int, int]]   # name -> (offset, length)


def noun_pair_features(ctx, params):
    """Concatenated embeddings of the two nouns, length 2*dim."""
    return np.concatenate([params.noun_vecs[ctx.n1], params.noun_vecs[ctx.n2]])


def ngram_embedding(ctx, i, params, mask_beyond=None):
    """Order-aware n-gram embedding for between-word position `i` (1-based).

    Concatenates the word embeddings of the `window` neighbors on each side
    with the prediction vector of the word itself; out-of-span slots use the
    NULL embedding.  `mask_beyond` additionally NULLs neighbor slots more
    than that many positions away (used to score short n-grams against the
    same weights as full ones).
    """
    slots = neighbor_slots(ctx, i, params.window, mask_beyond)
    return np.concatenate([
        params.word_vecs[slots].reshape(-1),
        params.pred_vecs[ctx.w_in[i - 1]],
    ])


def _between_slots(ctx, c):
    """Neighbor-slot ids of every between-position, one row per position."""
    return [neighbor_slots(ctx, i, c) for i in range(1, ctx.m_in + 1)]


def between_features(ctx, params):
    """Mean n-gram embedding over the words between the pair; zeros when
    there are none."""
    m_in = ctx.m_in
    if m_in == 0:
        return np.zeros(2 * params.window * params.dim + params.pred_dim)
    # one n-gram embedding per row; numpy sums a C-contiguous block along
    # axis 0 row by row, so the mean is the sequential one
    grams = np.concatenate([
        params.word_vecs[_between_slots(ctx, params.window)].reshape(m_in, -1),
        params.pred_vecs[list(ctx.w_in)],
    ], axis=1)
    return grams.sum(axis=0) / m_in


def between_features_bow(ctx, params):
    """Bag-of-words variant: mean of [word embedding; prediction vector]."""
    if ctx.m_in == 0:
        return np.zeros(params.dim + params.pred_dim)
    ids = list(ctx.w_in)
    return np.concatenate([
        params.word_vecs[ids].mean(axis=0),
        params.pred_vecs[ids].mean(axis=0),
    ])


def _trim_outside(ctx, m_out):
    if m_out is None:
        return ctx.w_bef, ctx.w_aft
    if m_out > ctx.m_out:
        raise ValueError(
            f"m_out override {m_out} exceeds extracted window {ctx.m_out}")
    # Nearest-token slices: w_bef is nearest-last, w_aft nearest-first.
    return ctx.w_bef[len(ctx.w_bef) - m_out:], ctx.w_aft[:m_out]


def outside_features(ctx, params, m_out=None):
    """Concatenated means of the before/after windows, length 2*dim."""
    bef, aft = _trim_outside(ctx, m_out)
    return np.concatenate([
        params.word_vecs[list(bef)].mean(axis=0),
        params.word_vecs[list(aft)].mean(axis=0),
    ])


def assemble_features(ctx, params, opts=FeatureOptions()):
    """Concatenate the enabled blocks in fixed order (nouns, between,
    outside) and record their offsets."""
    opts.validate()
    parts = []
    blocks = {}
    off = 0
    if opts.include_nouns:
        v = noun_pair_features(ctx, params)
        blocks["nouns"] = (off, len(v))
        off += len(v)
        parts.append(v)
    if opts.include_between:
        v = between_features_bow(ctx, params) if opts.bow_between \
            else between_features(ctx, params)
        blocks["between"] = (off, len(v))
        off += len(v)
        parts.append(v)
    if opts.include_outside:
        v = outside_features(ctx, params, opts.m_out)
        blocks["outside"] = (off, len(v))
        off += len(v)
        parts.append(v)
    return FeatureVector(np.concatenate(parts), blocks)


def feature_dim(params, opts=FeatureOptions()):
    """Length of the assembled vector for these parameters and options."""
    opts.validate()
    n = 0
    if opts.include_nouns:
        n += 2 * params.dim
    if opts.include_between:
        n += (params.dim if opts.bow_between
              else 2 * params.window * params.dim) + params.pred_dim
    if opts.include_outside:
        n += 2 * params.dim
    return n


def scatter_feature_grad(grad_e, ctx, params, opts=FeatureOptions()):
    """Distribute a gradient w.r.t. the assembled vector back onto the
    parameter rows it was built from.

    Returns the gradient in the form of
    :func:`relemb.embed_train.sum_rows`, keyed by ``noun_vecs``,
    ``word_vecs`` and ``pred_vecs``; rows appearing in several slots
    accumulate.  Blocks no row contributes to are left out.
    """
    d = params.dim
    c = params.window
    grads = {}
    word_ids = []
    word_rows = []
    off = 0
    if opts.include_nouns:
        grads["noun_vecs"] = sum_rows([ctx.n1, ctx.n2],
                                      grad_e[off:off + 2 * d].reshape(2, d))
        off += 2 * d
    if opts.include_between:
        m_in = ctx.m_in
        span = d if opts.bow_between else 2 * c * d
        blk = span + params.pred_dim
        if m_in > 0:
            g = grad_e[off:off + blk] / m_in
            if opts.bow_between:
                word_ids += ctx.w_in
                word_rows += [g[:d]] * m_in
            else:
                for slots in _between_slots(ctx, c):
                    word_ids += slots
                word_rows += list(g[:span].reshape(2 * c, d)) * m_in
            grads["pred_vecs"] = sum_rows(ctx.w_in, [g[span:]] * m_in)
        off += blk
    if opts.include_outside:
        bef, aft = _trim_outside(ctx, opts.m_out)
        word_ids += bef + aft
        word_rows += ([grad_e[off:off + d] / len(bef)] * len(bef)
                      + [grad_e[off + d:off + 2 * d] / len(aft)] * len(aft))
    if word_ids:
        grads["word_vecs"] = sum_rows(word_ids, word_rows)
    return grads


def dump_features(instances, params, opts, fh):
    """Debug dump, one instance per line: ``id<TAB>label<TAB>v1,v2,...``."""
    for inst in instances:
        vec = assemble_features(inst.context, params, opts).vector
        fh.write(f"{inst.id}\t{inst.label.surface()}\t"
                 + ",".join(f"{x:.6g}" for x in vec) + "\n")
