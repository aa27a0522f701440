"""Softmax relation classifier with dropout, L2, and AdaGrad.

Training maximizes the regularized log-likelihood with single-instance
updates.  Dropout uses inverted scaling (surviving feature elements are
doubled at train time) so prediction needs no adjustment.  When embedding
fine-tuning is enabled, gradients flow through the feature blocks back to
the embedding rows; L2 is applied lazily, only to rows touched by the
current instance.

Training reads labelled instances as :class:`~relemb.corpus.LabelledContexts`
and prediction reads :class:`~relemb.corpus.ContextArrays`.  Every
instance's feature table is built once, before the first epoch, by
:func:`relemb.features.pack_tables`.  Each epoch draws its permutation in
Python and takes its updates in one call to the compiled classifier epoch
of :mod:`relemb.kernels`, which draws each update's dropout mask from the
same generator, when a C compiler is found; otherwise it draws all its
masks in Python and takes the numpy steps
(:func:`supervised_objective_and_grad` and :func:`adagrad_update`), which
stay the reference.  Both draw the same stream.  The compiled epoch splits
each update's label rows between the calling thread and a helper thread
when two CPUs are available (see :mod:`relemb.kernels`), with the same
bytes as on one thread.

The softmax weights and bias, and every AdaGrad accumulator, are float32
as the embeddings are, in memory and in the classifier file; the numpy
steps take the dtype of the parameters they are given.

Prediction scores every instance from projected rows: for each segment and
slot of the packed tables, the distinct parameter rows it reads times
that slot's columns of the weights, pooled per instance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .corpus import ALL_LABELS, ArtifactError, ConfigError, _header_dims, \
    _spans, read_blob_file, write_blob_file
from .embed_train import _check_ids
from .features import FeatureOptions, assemble_features, feature_dim, \
    pack_tables, scatter_feature_grad

logger = logging.getLogger(__name__)

ADAGRAD_EPS = 1e-6

# The most entries (pooled rows of one segment) that _scores pools at once;
# an instance with more gets a chunk of its own.
_SCORE_CHUNK = 1024

__all__ = [
    "SoftmaxParams",
    "SupervisedConfig",
    "AdaGradState",
    "apply_dropout",
    "adagrad_update",
    "supervised_objective_and_grad",
    "train_classifier",
    "predict_many",
    "make_folds",
    "cross_validate",
    "save_classifier",
    "load_classifier",
]


@dataclass
class SoftmaxParams:
    weights: np.ndarray   # (n_labels, feature_dim)
    bias: np.ndarray      # (n_labels,)

    @property
    def n_labels(self):
        return self.weights.shape[0]

    @classmethod
    def zeros(cls, n_labels, dim, dtype=kernels.FLOAT):
        return cls(kernels.aligned((n_labels, dim), dtype),
                   kernels.aligned(n_labels, dtype))

    def check_finite(self):
        for name in ("weights", "bias"):
            if not np.isfinite(getattr(self, name)).all():
                raise FloatingPointError(f"non-finite entries in {name}")


@dataclass
class SupervisedConfig:
    eta: float = 0.1            # AdaGrad base learning rate
    l2: float = 1e-4
    epochs: int = 20
    dropout: bool = True        # rate fixed at 0.5
    fine_tune: bool = True
    seed: int = 1

    def validate(self):
        if not self.eta > 0:
            raise ConfigError("eta must be > 0")
        if not self.l2 >= 0:
            raise ConfigError("l2 must be >= 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        return self


def apply_dropout(e, rng):
    """Inverted dropout at rate 0.5 for vector `e`: a 0/1 mask that zeroes
    half the elements in expectation.  The dropped-out vector is
    ``e * mask * 2.0``, which doubles the survivors."""
    return (rng.random(e.shape[0]) < 0.5).astype(e.dtype)


def adagrad_update(param, grad, accum, eta, eps=ADAGRAD_EPS):
    """In-place AdaGrad ascent step on one parameter array."""
    accum += grad * grad
    param += eta * grad / (np.sqrt(accum) + eps)


class AdaGradState:
    """Squared-gradient accumulators: one per softmax element and one per
    element of every embedding row a training table touches.  The tables
    are fixed before training, so the row accumulators are compact:
    ``rows[name][j]`` belongs to row ``touched[name][j]`` (sorted ids) of
    the block `name`."""

    def __init__(self, softmax_params, embed_params, touched):
        self.weights = kernels.aligned(softmax_params.weights.shape,
                                       softmax_params.weights.dtype)
        self.bias = kernels.aligned(softmax_params.bias.shape,
                                    softmax_params.bias.dtype)
        self.touched = touched
        self.rows = {name: kernels.aligned(
                         (len(ids), getattr(embed_params, name).shape[1]),
                         embed_params.dtype)
                     for name, ids in touched.items()}

    def step_rows(self, embed_params, name, ids, grads, eta):
        """One AdaGrad step on each of the distinct rows `ids` of the block
        `name`; elementwise, so the same as one step per row."""
        block, acc = getattr(embed_params, name), self.rows[name]
        slots = np.searchsorted(self.touched[name], ids)
        rows, accum = block[ids], acc[slots]
        adagrad_update(rows, grads, accum, eta)
        block[ids], acc[slots] = rows, accum


def supervised_objective_and_grad(ctx, label, embed_params, softmax_params,
                                  l2, mask=None, opts=FeatureOptions(),
                                  fine_tune=True, table=None):
    """Objective value and gradients for `ctx` with label index `label`.

    The value is ``log p(label | e) - (l2/2) * ||theta||^2`` where theta
    covers the softmax parameters and, when `fine_tune` is set, the
    embedding rows the instance touches (lazy L2).  `mask` is a dropout
    mask from :func:`apply_dropout`, or None for no dropout.  `table` is
    the context's :func:`relemb.features.feature_table`, for callers that
    already hold it.

    Returns ``(value, loglik, softmax_grads, row_grads)``: `loglik` is the
    log-likelihood term of the value alone, ``softmax_grads =
    (grad_weights, grad_bias)``, and ``row_grads`` has the form of
    :func:`relemb.features.scatter_feature_grad`.
    """
    W, b = softmax_params.weights, softmax_params.bias
    e = assemble_features(ctx, embed_params, opts, table)
    if mask is not None:
        e = e * mask * 2.0
    o = W @ e + b
    o = o - o.max()
    logz = np.log(np.exp(o).sum())
    loglik = float(o[label] - logz)
    g_o = -np.exp(o - logz)   # gradient w.r.t. the scores, so the bias's
    g_o[label] += 1.0
    g_W, g_b = np.outer(g_o, e), g_o
    row_grads = {}
    if fine_tune:
        g_e = W.T @ g_o
        if mask is not None:
            g_e = g_e * mask * 2.0
        row_grads = scatter_feature_grad(g_e, ctx, embed_params, opts,
                                         table)
    value = loglik
    if l2 > 0:
        value -= 0.5 * l2 * (float(np.vdot(W, W)) + float(b @ b))
        g_W -= l2 * W
        g_b -= l2 * b
        for name, (ids, rows) in row_grads.items():
            touched = getattr(embed_params, name)[ids]
            value -= 0.5 * l2 * float(np.vdot(touched, touched))
            row_grads[name] = (ids, rows - l2 * touched)
    return value, loglik, (g_W, g_b), row_grads


@dataclass
class ClassifierLog:
    epoch_objective: list[float] = field(default_factory=list)


class _Tables:
    """The feature tables of the training instances, packed once by
    :func:`relemb.features.pack_tables` (``segments``, ``m``, ``starts``,
    ``ids`` and ``table(i)``), with what the compiled epoch needs besides.

    ``firsts[q]`` is where in its own table the first entry of q's block
    and row lies, so repeated rows are summed before their step, and
    ``slots[q]`` is the row's accumulator row in the compact layout over
    ``touched``, the sorted rows each block's entries read (empty unless
    `fine_tune`).  Every id is checked against its block here, before
    either backend reads it.
    """

    def __init__(self, data, params, opts, fine_tune):
        self.labels = data.labels
        packed = pack_tables(data.contexts, params, opts)
        self.segments, self.m, self.starts, self.ids = (
            packed.segments, packed.m, packed.starts, packed.ids)
        self.table = packed.table
        lengths = np.diff(self.starts)

        names = sorted({name for name, _ in self.segments})
        blocks = np.array([names.index(name) for name, _ in self.segments])
        k = np.array([k for _, k in self.segments])
        block = np.repeat(np.tile(blocks, len(lengths)),
                          (self.m * k).ravel())
        self.slots = np.zeros_like(self.ids)
        self.touched = {}
        for b, name in enumerate(names):
            ids = self.ids[block == b]
            _check_ids(ids, getattr(params, name).shape[0], name)
            if fine_tune:
                # with an inverse, np.unique does not import numpy.ma
                self.touched[name], self.slots[block == b] = np.unique(
                    ids, return_inverse=True)
        owner = np.repeat(np.arange(len(lengths)), lengths)
        key = ((owner * len(names) + block) * (self.ids.max(initial=0) + 1)
               + self.ids)
        _, first, inverse = np.unique(key, return_index=True,
                                      return_inverse=True)
        self.firsts = first[inverse] - self.starts[owner]


def train_classifier(data, embed_params, config, opts=FeatureOptions()):
    """Train softmax parameters (and optionally fine-tune the embeddings)
    on :class:`~relemb.corpus.LabelledContexts` `data`.

    Runs `config.epochs` passes of shuffled single-instance AdaGrad steps on
    the gradient of :func:`supervised_objective_and_grad`; the logged
    objective is the mean log-likelihood without the L2 term.  Returns
    ``(softmax_params, embed_params_out, log)``; when fine-tuning is
    disabled the input embedding parameters are returned untouched.
    Raises FloatingPointError when a returned array holds a non-finite
    entry.

    The numpy steps train at the dtype of `embed_params`.  The compiled
    epoch takes float32 only, so it reads embeddings of another dtype
    through a float32 copy.
    """
    cfg = config.validate()
    opts.validate()
    if not len(data):
        raise ValueError("no training instances")

    compiled = kernels.load()
    dtype = embed_params.dtype if compiled is None else kernels.FLOAT
    params = (embed_params.copy(dtype)
              if cfg.fine_tune or embed_params.dtype != dtype
              else embed_params)
    dim = feature_dim(params, opts)
    softmax = SoftmaxParams.zeros(len(ALL_LABELS), dim, dtype)
    tables = _Tables(data, params, opts, cfg.fine_tune)
    state = AdaGradState(softmax, params, tables.touched)
    if compiled is None:
        logger.info("train: taking numpy steps")
    else:
        threads = kernels._threads()
        logger.info("train: taking compiled steps on %d threads", threads)
    rng = np.random.default_rng(cfg.seed)

    log = ClassifierLog()
    n = len(data)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        if compiled is None:
            # one draw for the epoch: the stream of n apply_dropout calls
            masks = rng.random((n, dim)) < 0.5 if cfg.dropout else None
            logliks = []
            for t, idx in enumerate(order.tolist()):
                mask = None if masks is None else masks[t].astype(dtype)
                _, loglik, (g_W, g_b), rows = supervised_objective_and_grad(
                    data.contexts.context(idx), tables.labels[idx], params,
                    softmax, cfg.l2, mask, opts, cfg.fine_tune,
                    tables.table(idx))
                logliks.append(loglik)
                adagrad_update(softmax.weights, g_W, state.weights, cfg.eta)
                adagrad_update(softmax.bias, g_b, state.bias, cfg.eta)
                for name, (ids, grads) in rows.items():
                    state.step_rows(params, name, ids, grads, cfg.eta)
        else:
            logliks, took_back = compiled.classifier_epoch(
                tables, order, rng, softmax, state, params, cfg,
                ADAGRAD_EPS, threads)
            logliks = logliks.tolist()
            if took_back:
                # the same bytes at either thread count
                threads = 1
                logger.info("train: the two threads did not run at once; "
                            "taking the remaining epochs on 1 thread")
        # sequential, as the per-update sum was (from Python 3.12 the
        # builtin sum() compensates)
        total = 0.0
        for loglik in logliks:
            total += loglik
        log.epoch_objective.append(total / n)
        logger.debug("classifier epoch %d: mean log-likelihood %.4f",
                     epoch + 1, total / n)
    softmax.check_finite()
    if not cfg.fine_tune:
        return softmax, embed_params, log
    params.check_finite()
    return softmax, params, log


def _scores(contexts, softmax_params, embed_params, opts):
    """The class scores ``W e + b`` of each of `contexts`, an (n, labels)
    array built from projected rows: the bias plus, for each segment of
    the packed tables, each instance's pooled (mean) projected rows, where
    a slot's projected rows are the distinct parameter rows it reads times
    its columns of the weights.  The cost grows with the tokens read, not
    with the vocabulary.  A segment's entries (the rows each instance
    pools) are summed in chunks of whole instances, at most `_SCORE_CHUNK`
    entries each, so the transient memory does not grow with the tokens
    either; an instance sums the same values in the same order in any
    chunk."""
    tables = pack_tables(contexts, embed_params, opts)
    W = softmax_params.weights
    n = len(tables.m)
    # labels by instances, so that each label's sums run along a row
    scores = np.repeat(softmax_params.bias[:, None], n, axis=1)
    lo, col = tables.starts[:-1].copy(), 0
    for s, (name, k) in enumerate(tables.segments):
        block = getattr(embed_params, name)
        width, m = block.shape[1], tables.m[:, s]
        entries = tables.ids[_spans(lo, k * m)].reshape(-1, k)
        projected = []
        for j in range(k):
            rows, inverse = np.unique(entries[:, j], return_inverse=True)
            _check_ids(rows, len(block), name)
            projected.append((W[:, col:col + width] @ block[rows].T, inverse))
            col += width
        ends = np.cumsum(m)
        i = 0
        while i < n:
            a = ends[i] - m[i]
            stop = max(int(np.searchsorted(ends, a + _SCORE_CHUNK, "right")),
                       i + 1)
            b = ends[stop - 1]
            pooled = np.zeros((len(W), b - a), scores.dtype)
            for proj, inverse in projected:
                pooled += proj[:, inverse[a:b]]
            read = i + np.flatnonzero(m[i:stop])
            if len(read):
                scores[:, read] += (np.add.reduceat(
                    pooled, ends[read] - m[read] - a, axis=1)
                    / m[read].astype(scores.dtype))
            i = stop
        lo += k * m
    return scores.T


def predict_many(contexts, softmax_params, embed_params, opts=FeatureOptions()):
    """The index of the most probable label of each of `contexts`, a
    ContextArrays, as an int64 array (no dropout; ties break toward the
    lowest index)."""
    opts.validate()
    return _scores(contexts, softmax_params, embed_params, opts).argmax(axis=1)


def make_folds(n, folds, seed):
    """Seeded partition of range(n) into `folds` near-equal, non-empty
    validation sets."""
    if folds < 2:
        raise ConfigError("folds must be >= 2")
    if folds > n:
        raise ConfigError(f"{folds} folds need at least {folds} instances, "
                          f"got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def cross_validate(data, embed_params, settings, folds=10, seed=1):
    """Mean official macro-F1 per setting under one shared fold split of
    :class:`~relemb.corpus.LabelledContexts` `data`.

    `settings` is a list of ``(name, SupervisedConfig, FeatureOptions)``.
    Returns a list of ``(name, mean, fold_scores)``.
    """
    from .evaluation import score_semeval   # evaluation imports this module
    n = len(data)
    splits = [(data.take(np.delete(np.arange(n), held)), data.take(held))
              for held in make_folds(n, folds, seed)]
    results = []
    for name, config, opts in settings:
        fold_scores = []
        for train, test in splits:
            softmax, tuned, _ = train_classifier(train, embed_params, config, opts)
            pred = predict_many(test.contexts, softmax, tuned, opts)
            fold_scores.append(score_semeval(test.labels, pred).macro_f1)
        results.append((name, float(np.mean(fold_scores)), fold_scores))
        logger.info("cv %s: %.2f", name, results[-1][1])
    return results


def save_classifier(softmax_params, opts, path):
    """Classifier file: header ``relemb-clf v1 L= dim= opts=<feature
    flags> dtype=float32``, then the float32 weights and bias."""
    header = (f"relemb-clf v1 L={softmax_params.n_labels} "
              f"dim={softmax_params.weights.shape[1]} opts={opts.flags()}")
    write_blob_file(path, header,
                    (softmax_params.weights, softmax_params.bias),
                    kernels.FLOAT)


def _classifier_shapes(kv):
    n_labels, dim = _header_dims(kv, ("L", "dim"))
    if n_labels != len(ALL_LABELS):
        raise ValueError(f"L={n_labels}, the label inventory has "
                         f"{len(ALL_LABELS)}")
    return [(n_labels, dim), (n_labels,)]


def load_classifier(path):
    """Returns ``(softmax_params, opts)``."""
    kv, (weights, bias) = read_blob_file(path, "relemb-clf",
                                         ("L", "dim", "opts"),
                                         _classifier_shapes, kernels.FLOAT)
    try:
        opts = FeatureOptions.from_flags(kv["opts"])
    except ConfigError as exc:
        raise ArtifactError(f"{path}: {exc}") from None
    return SoftmaxParams(weights, bias), opts
