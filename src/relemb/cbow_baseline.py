"""CBOW baseline: the noun-pair trainer's parameters and step, over sentence
windows.

Standard continuous-bag-of-words with negative sampling: the mean word
vector of a symmetric context window predicts the center word against its
prediction vector, with no bias.  It trains the
:class:`~relemb.embed_train.EmbeddingParams` it returns, whose prediction
vectors are ``dim`` wide, through the negative-sampling step and the walk
loop of :mod:`relemb.embed_train`.  Subsampling and the linear
learning-rate schedule match the noun-pair trainer.  After training, each
noun row is its surface's word row, so the classifier reads the baseline
as it reads pretrained parameters.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .corpus import UNK_WORD
from .embed_train import (EmbeddingParams, TrainingLog, _Draws,
                          _objective_and_grad, _walk, aligned_copy,
                          apply_row_grads)

__all__ = [
    "cbow_objective_and_grad",
    "train_cbow",
]


def cbow_objective_and_grad(window_ids, center, noise_ids, params):
    """One CBOW sample: objective value plus gradients in the form of
    :func:`relemb.embed_train.sum_rows`, keyed ``word_vecs`` and
    ``pred_vecs``.  The prediction input is the gather of a one-segment id
    table, the window's word rows pooled to their mean, scored with no
    bias."""
    table = (np.array(window_ids, dtype=np.intp),
             (("word_vecs", 1, len(window_ids)),))
    words = np.concatenate(([center], noise_ids)).astype(np.intp)
    return _objective_and_grad(params, table, words, bias=False)


def _corpus_ids(corpus, vocab):
    """Word ids of every token of the
    :class:`~relemb.corpus.TaggedCorpusReader` `corpus`, read once as its
    blocks: a flat array, and the offsets of the sentences in it (length:
    sentences + 1)."""
    ids, offsets = [np.zeros(0, np.int64)], [np.zeros(1, np.int64)]
    n = 0
    for block in corpus.blocks():
        ids.append(block.word_ids(vocab))
        offsets.append(block.offsets[1:] + n)
        n += len(block.ids)
    return np.concatenate(ids), np.concatenate(offsets)


def _numpy_sentences(params, ids, offsets, draws, progress):
    """The CBOW walk of :mod:`relemb.kernels` in numpy steps, its
    reference: over the sentences of the flat `ids` from ``progress.at``,
    drawing as the run's ``embed_train._Draws`` `draws` gives and counting
    into `progress` as the compiled walk does.  Returns True after the
    first sentence that leaves ``progress.done`` at or past
    ``progress.next_report``."""
    c, cfg, rng = params.window, draws.cfg, draws.rng
    while progress.at < len(offsets) - 1:
        lo, hi = offsets[progress.at:progress.at + 2].tolist()
        progress.at += 1
        lr = draws.rate(progress.done)
        sent = ids[lo:hi]
        # a token is discarded iff its discard probability exceeds its
        # uniform draw
        dropped = draws.words.discard_probs[sent] > rng.random(hi - lo)
        n_dropped = int(np.count_nonzero(dropped))
        progress.done += hi - lo
        progress.targets_discarded += n_dropped
        # a step needs a non-empty window, so two kept tokens
        kept = sent[~dropped].tolist() if hi - lo - n_dropped > 1 else []
        for t, center in enumerate(kept):
            window = kept[max(0, t - c):t] + kept[t + 1:t + 1 + c]
            value, grads = cbow_objective_and_grad(
                window, center, draws.noise.sample(cfg.negatives, rng,
                                                   exclude=center), params)
            apply_row_grads(params, grads, lr)
            progress.win_sum += value
            progress.win_count += 1
            progress.steps += 1
        if progress.done >= progress.next_report:
            return True
    return False


def train_cbow(corpus, vocab, config):
    """Train CBOW embedding parameters over one read of the
    :class:`~relemb.corpus.TaggedCorpusReader` `corpus`, with the settings
    of a :class:`~relemb.embed_train.PretrainConfig`.

    Word vectors start Gaussian(0, 1/dim), prediction vectors (``dim``
    wide) and biases at zero, all float32; the bias is never trained.
    Subsampling removes tokens from the sequence before windowing: each
    sentence draws one uniform per token, and then the noise of its steps.
    The learning rate decays linearly over ``epochs * total tokens``.  After
    training, each noun row is the word row of its surface, UNK's for the
    UNK noun and for a surface outside the word inventory.  Seeded runs are
    deterministic.  The compiled CBOW walk of :mod:`relemb.kernels` makes
    the same draws in the same order when a C compiler is found.  A corpus
    with no tokens raises its
    :meth:`~relemb.corpus.TaggedCorpusReader.empty_error`.  Returns
    ``(params, log)``.
    """
    cfg = config.validate()
    ids, offsets = _corpus_ids(corpus, vocab)
    if len(ids) == 0:
        raise corpus.empty_error()

    rng = np.random.default_rng(cfg.seed)
    std = 1.0 / math.sqrt(cfg.dim)
    params = EmbeddingParams(
        noun_vecs=kernels.aligned((vocab.n_nouns, cfg.dim), kernels.FLOAT),
        word_vecs=aligned_copy(rng.normal(0.0, std,
                                          size=(vocab.n_words, cfg.dim)),
                               kernels.FLOAT),
        pred_vecs=kernels.aligned((vocab.n_words, cfg.dim), kernels.FLOAT),
        pred_bias=kernels.aligned(vocab.n_words, kernels.FLOAT),
        dim=cfg.dim,
        window=cfg.window,
    )
    draws = _Draws(cfg, vocab, cfg.epochs * len(ids), rng, pairs=False)

    compiled = kernels.load()
    walk = _numpy_sentences if compiled is None else compiled.cbow_sentences
    log = TrainingLog()
    _walk(walk, [(params, ids, offsets, draws)] * cfg.epochs, log, "cbow",
          draws)
    params.noun_vecs[0] = params.word_vecs[UNK_WORD]
    params.noun_vecs[1:] = params.word_vecs[
        vocab.word_ids(vocab.noun_surfaces[1:])]
    params.check_finite()
    return params, log
