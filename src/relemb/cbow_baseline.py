"""CBOW baseline trainer used as an alternative embedding initialization.

Standard continuous-bag-of-words with negative sampling: the mean input
vector of a symmetric context window predicts the center word against its
output vector.  Subsampling and the linear learning-rate schedule match the
noun-pair trainer; the trained input/output vectors can replace the
noun/word embeddings and prediction vectors of an
:class:`~relemb.embed_train.EmbeddingParams`, shrinking the prediction-vector
dimension to ``dim``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .corpus import UNK_WORD, TaggedCorpusReader, token_blocks
from .embed_train import (EmbeddingParams, NoiseSampler, SubsamplingFilter,
                          TrainingLog, aligned_copy, apply_row_grads,
                          gather_table, log_sigmoid, scatter_table, sigmoid,
                          sum_rows)

logger = logging.getLogger(__name__)

__all__ = [
    "CbowModel",
    "cbow_objective_and_grad",
    "train_cbow",
    "import_as_initialization",
]


@dataclass
class CbowModel:
    in_vecs: np.ndarray    # (n_words, dim) context/input vectors
    out_vecs: np.ndarray   # (n_words, dim) target/output vectors
    dim: int
    window: int

    def check_finite(self):
        if not (np.isfinite(self.in_vecs).all() and np.isfinite(self.out_vecs).all()):
            raise FloatingPointError("non-finite CBOW parameters")


def cbow_objective_and_grad(window_ids, center, noise_ids, model):
    """One CBOW sample: objective value plus gradients in the form of
    :func:`relemb.embed_train.sum_rows`, keyed ``in_vecs`` and
    ``out_vecs``.  The context vector is the gather of a one-segment id
    table, the window's input rows pooled to their mean."""
    table = (np.array(window_ids, dtype=np.intp),
             (("in_vecs", 1, len(window_ids)),))
    ctx = gather_table(model, *table)
    words = np.concatenate(([center], noise_ids)).astype(np.intp)
    out = model.out_vecs[words]
    z = out @ ctx
    labels = np.zeros(len(words))
    labels[0] = 1.0
    value = float(log_sigmoid(z[0]) + log_sigmoid(-z[1:]).sum())
    errs = labels - sigmoid(z)
    grads = scatter_table(errs @ out, model, *table)
    grads["out_vecs"] = sum_rows(words.tolist(), np.outer(errs, ctx))
    return value, grads


def _corpus_ids(sentences, vocab):
    """Word ids of every token of `sentences`, read once as
    :func:`~relemb.corpus.token_blocks`: a flat array, and the offsets of
    the sentences in it (length: sentences + 1)."""
    ids, offsets = [np.zeros(0, np.int64)], [np.zeros(1, np.int64)]
    n = 0
    for block in token_blocks(sentences):
        ids.append(block.word_ids(vocab))
        offsets.append(block.offsets[1:] + n)
        n += len(block.ids)
    return np.concatenate(ids), np.concatenate(offsets)


def _report(log, processed, planned, win_sum, win_count):
    log.record(processed, win_sum, win_count)
    logger.info("cbow: %d/%d tokens, window objective %.4f", processed,
                planned, win_sum / win_count if win_count else float("nan"))


def _train_numpy(model, ids, offsets, discard_probs, sampler, cfg, planned,
                 rng, log):
    """The epochs of :func:`train_cbow` in numpy steps, the reference for
    the compiled walk, which makes the same draws in the same order."""
    processed = 0
    win_sum, win_count, next_report = 0.0, 0, cfg.report_every
    c = cfg.window
    bounds = offsets.tolist()
    for _ in range(cfg.epochs):
        for lo, hi in zip(bounds, bounds[1:]):
            lr = cfg.alpha * (1.0 - processed / planned)
            sent = ids[lo:hi]
            # a token is discarded iff its discard probability exceeds its
            # uniform draw
            dropped = discard_probs[sent] > rng.random(hi - lo)
            n_dropped = int(np.count_nonzero(dropped))
            processed += hi - lo
            log.targets_seen += hi - lo
            log.targets_discarded += n_dropped
            # a step needs a non-empty window, so two kept tokens
            kept = (sent[~dropped].tolist()
                    if hi - lo - n_dropped > 1 else [])
            for t, center in enumerate(kept):
                window = kept[max(0, t - c):t] + kept[t + 1:t + 1 + c]
                noise = sampler.sample(cfg.negatives, rng, exclude=center)
                value, grads = cbow_objective_and_grad(window, center, noise, model)
                apply_row_grads(model, grads, lr)
                win_sum += value
                win_count += 1
                log.steps_taken += 1
            if processed >= next_report:
                _report(log, processed, planned, win_sum, win_count)
                win_sum, win_count = 0.0, 0
                next_report += cfg.report_every
    log.record(processed, win_sum, win_count)


def train_cbow(sentences, vocab, config):
    """Train a CbowModel over one read of a tagged corpus: a
    :class:`~relemb.corpus.TaggedCorpusReader` or an iterable of tagged
    sentences, with the settings of a
    :class:`~relemb.embed_train.PretrainConfig`.

    Input vectors start Gaussian(0, 1/dim), output vectors at zero.
    Subsampling removes tokens from the sequence before windowing: each
    sentence draws one uniform per token, and then the noise of its steps.
    The learning rate decays linearly over ``epochs * total tokens``.
    Seeded runs are deterministic.  The compiled CBOW walk of
    :mod:`relemb.kernels` makes the same draws in the same order when a C
    compiler is found.  Returns ``(model, log)``.
    """
    cfg = config.validate()
    ids, offsets = _corpus_ids(sentences, vocab)
    total_tokens = len(ids)
    if total_tokens == 0:
        if isinstance(sentences, TaggedCorpusReader):
            raise sentences.empty_error()
        raise ValueError("sentence stream is empty")
    planned = cfg.epochs * total_tokens

    rng = np.random.default_rng(cfg.seed)
    std = 1.0 / math.sqrt(cfg.dim)
    model = CbowModel(
        in_vecs=aligned_copy(rng.normal(0.0, std,
                                        size=(vocab.n_words, cfg.dim))),
        out_vecs=kernels.aligned((vocab.n_words, cfg.dim)),
        dim=cfg.dim,
        window=cfg.window,
    )
    sampler = NoiseSampler(vocab.word_counts)
    discard_probs = SubsamplingFilter(vocab.word_counts,
                                      cfg.subsample).discard_probs

    log = TrainingLog()
    compiled = kernels.load()
    if compiled is None:
        _train_numpy(model, ids, offsets, discard_probs, sampler, cfg,
                     planned, rng, log)
    else:
        progress = kernels.Progress(next_report=cfg.report_every)
        for _ in range(cfg.epochs):
            progress.at = 0
            while compiled.cbow_sentences(
                    model, ids, offsets, discard_probs, sampler,
                    cfg.negatives, cfg.alpha, planned, rng, progress):
                _report(log, progress.done, planned, progress.win_sum,
                        progress.win_count)
                progress.win_sum, progress.win_count = 0.0, 0
                progress.next_report += cfg.report_every
        log.targets_seen = progress.done
        log.steps_taken = progress.steps
        log.targets_discarded = progress.targets_discarded
        log.record(progress.done, progress.win_sum, progress.win_count)
    model.check_finite()
    return model, log


def import_as_initialization(model, vocab):
    """Build embedding parameters from a trained CbowModel.

    Noun embeddings copy the input vectors of the noun surfaces (UNK's
    vector when a noun surface is missing from the word inventory), word
    embeddings copy the input vectors, and the output vectors stand in for
    the prediction vectors, so the prediction dimension becomes ``dim`` and
    downstream feature dimensions shrink accordingly.
    """
    if model.in_vecs.shape[0] != vocab.n_words:
        raise ValueError(
            f"vocabulary mismatch: model has {model.in_vecs.shape[0]} rows, "
            f"vocabulary has {vocab.n_words} words")
    noun_vecs = np.empty((vocab.n_nouns, model.dim), dtype=model.in_vecs.dtype)
    for nid in range(vocab.n_nouns):
        surface = vocab.noun_surface(nid)
        wid = vocab.word_id(surface) if nid != 0 else UNK_WORD
        noun_vecs[nid] = model.in_vecs[wid]
    return EmbeddingParams(
        noun_vecs=noun_vecs,
        word_vecs=model.in_vecs.copy(),
        pred_vecs=model.out_vecs.copy(),
        pred_bias=np.zeros(vocab.n_words, dtype=model.in_vecs.dtype),
        dim=model.dim,
        window=model.window,
    )

