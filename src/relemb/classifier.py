"""Softmax relation classifier with dropout, L2, and AdaGrad.

Training maximizes the regularized log-likelihood with single-instance
updates.  Dropout uses inverted scaling (surviving feature elements are
doubled at train time) so prediction needs no adjustment.  When embedding
fine-tuning is enabled, gradients flow through the feature blocks back to
the embedding rows; L2 is applied lazily, only to rows touched by the
current instance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import ALL_LABELS, label_index
from .embed_train import read_blob_file, write_blob_file
from .features import FeatureOptions, assemble_features, feature_dim, \
    feature_table, scatter_feature_grad

logger = logging.getLogger(__name__)

ADAGRAD_EPS = 1e-6

__all__ = [
    "SoftmaxParams",
    "SupervisedConfig",
    "AdaGradState",
    "softmax_forward",
    "apply_dropout",
    "adagrad_update",
    "supervised_objective_and_grad",
    "train_classifier",
    "predict",
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
    def zeros(cls, n_labels, dim):
        return cls(np.zeros((n_labels, dim)), np.zeros(n_labels))

    def copy(self):
        return SoftmaxParams(self.weights.copy(), self.bias.copy())


@dataclass
class SupervisedConfig:
    eta: float = 0.1            # AdaGrad base learning rate
    l2: float = 1e-4
    epochs: int = 20
    dropout: bool = True        # rate fixed at 0.5
    fine_tune: bool = True
    seed: int = 1
    folds: int = 10

    def validate(self):
        if not self.eta > 0:
            raise ValueError("eta must be > 0")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        return self


def softmax_forward(e, weights, bias):
    """Class probabilities softmax(weights @ e + bias), max-shifted."""
    o = weights @ e + bias
    o = o - o.max()
    p = np.exp(o)
    return p / p.sum()


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
    """Per-element squared-gradient accumulators; embedding-row accumulators
    are allocated lazily per touched row to bound memory."""

    def __init__(self, softmax_params):
        self.weights = np.zeros_like(softmax_params.weights)
        self.bias = np.zeros_like(softmax_params.bias)
        self.rows: dict = {}

    def row(self, key, size):
        acc = self.rows.get(key)
        if acc is None:
            acc = np.zeros(size)
            self.rows[key] = acc
        return acc


def supervised_objective_and_grad(inst, embed_params, softmax_params, l2,
                                  mask=None, opts=FeatureOptions(),
                                  fine_tune=True, e=None, table=None):
    """Objective value and gradients for one labeled instance.

    The value is ``log p(label | e) - (l2/2) * ||theta||^2`` where theta
    covers the softmax parameters and, when `fine_tune` is set, the
    embedding rows the instance touches (lazy L2).  `mask` is a dropout
    mask from :func:`apply_dropout`, or None for no dropout.  `e` is the
    instance's assembled vector, for callers that already hold it; by
    default it is assembled from `embed_params`.  `table` is the instance's
    :func:`relemb.features.feature_table`, for callers that already hold
    it.

    Returns ``(value, loglik, softmax_grads, row_grads)``: `loglik` is the
    log-likelihood term of the value alone, ``softmax_grads =
    (grad_weights, grad_bias)``, and ``row_grads`` has the form of
    :func:`relemb.features.scatter_feature_grad`.
    """
    W, b = softmax_params.weights, softmax_params.bias
    if e is None:
        e = assemble_features(inst.context, embed_params, opts, table)
    if mask is not None:
        e = e * mask * 2.0
    o = W @ e + b
    o = o - o.max()
    logz = np.log(np.exp(o).sum())
    li = label_index(inst.label)
    loglik = float(o[li] - logz)
    g_o = -np.exp(o - logz)   # gradient w.r.t. the scores, so the bias's
    g_o[li] += 1.0
    g_W, g_b = np.outer(g_o, e), g_o
    row_grads = {}
    if fine_tune:
        g_e = W.T @ g_o
        if mask is not None:
            g_e = g_e * mask * 2.0
        row_grads = scatter_feature_grad(g_e, inst.context, embed_params,
                                         opts, table)
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


def train_classifier(instances, embed_params, config, opts=FeatureOptions()):
    """Train softmax parameters (and optionally fine-tune the embeddings).

    Runs `config.epochs` passes of shuffled single-instance AdaGrad steps on
    the gradient of :func:`supervised_objective_and_grad`; the logged
    objective is the mean log-likelihood without the L2 term.  Returns
    ``(softmax_params, embed_params_out, log)``; when fine-tuning is
    disabled the input embedding parameters are returned untouched and
    per-instance features are computed once up front.
    """
    cfg = config.validate()
    opts.validate()
    if not instances:
        raise ValueError("no training instances")
    for inst in instances:
        label_index(inst.label)

    params = embed_params.copy() if cfg.fine_tune else embed_params
    dim = feature_dim(params, opts)
    softmax = SoftmaxParams.zeros(len(ALL_LABELS), dim)
    state = AdaGradState(softmax)
    rng = np.random.default_rng(cfg.seed)

    cached = None
    if not cfg.fine_tune:
        cached = np.stack([assemble_features(inst.context, params, opts)
                           for inst in instances])

    log = ClassifierLog()
    n = len(instances)
    for epoch in range(cfg.epochs):
        total = 0.0
        for idx in rng.permutation(n):
            inst = instances[idx]
            if cached is not None:
                e, table = cached[idx], None
            else:
                table = feature_table(inst.context, params, opts)
                e = assemble_features(inst.context, params, opts, table)
            mask = apply_dropout(e, rng) if cfg.dropout else None
            _, loglik, (g_W, g_b), rows = supervised_objective_and_grad(
                inst, params, softmax, cfg.l2, mask, opts, cfg.fine_tune, e=e,
                table=table)
            total += loglik
            adagrad_update(softmax.weights, g_W, state.weights, cfg.eta)
            adagrad_update(softmax.bias, g_b, state.bias, cfg.eta)
            for name, (ids, grads) in rows.items():
                block = getattr(params, name)
                for ridx, g in zip(ids.tolist(), grads):
                    adagrad_update(block[ridx], g,
                                   state.row((name, ridx), g.shape), cfg.eta)
        log.epoch_objective.append(total / n)
        logger.debug("classifier epoch %d: mean log-likelihood %.4f",
                     epoch + 1, total / n)
    return softmax, params, log


def predict(ctx, softmax_params, embed_params, opts=FeatureOptions()):
    """Most probable label for a context (no dropout; ties break toward the
    lowest class index)."""
    e = assemble_features(ctx, embed_params, opts)
    probs = softmax_forward(e, softmax_params.weights, softmax_params.bias)
    return ALL_LABELS[int(np.argmax(probs))]


def predict_many(contexts, softmax_params, embed_params, opts=FeatureOptions()):
    return [predict(ctx, softmax_params, embed_params, opts) for ctx in contexts]


def make_folds(n, folds, seed):
    """Seeded partition of range(n) into `folds` near-equal validation sets."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def cross_validate(instances, embed_params, settings, folds=10, seed=1,
                   scorer=None):
    """Mean cross-validation score per setting under one shared fold split.

    `settings` is a list of ``(name, SupervisedConfig, FeatureOptions)``;
    `scorer` maps (gold labels, predicted labels) to a float and defaults to
    the official macro-F1.  Returns a list of ``(name, mean, fold_scores)``.
    """
    if scorer is None:
        from .evaluation import score_semeval
        scorer = lambda gold, pred: score_semeval(gold, pred).macro_f1
    n = len(instances)
    splits = make_folds(n, folds, seed)
    results = []
    for name, config, opts in settings:
        fold_scores = []
        for held_out in splits:
            held = set(int(i) for i in held_out)
            train = [inst for i, inst in enumerate(instances) if i not in held]
            test = [instances[int(i)] for i in held_out]
            softmax, tuned, _ = train_classifier(train, embed_params, config, opts)
            pred = predict_many([t.context for t in test], softmax, tuned, opts)
            gold = [t.label for t in test]
            fold_scores.append(scorer(gold, pred))
        results.append((name, float(np.mean(fold_scores)), fold_scores))
        logger.info("cv %s: %.2f", name, results[-1][1])
    return results


def save_classifier(softmax_params, opts, path):
    """Classifier file: header ``relemb-clf v1 L= dim= opts=<feature
    flags>``, then the weights and the bias."""
    header = (f"relemb-clf v1 L={softmax_params.n_labels} "
              f"dim={softmax_params.weights.shape[1]} opts={opts.flags()}")
    write_blob_file(path, header, (softmax_params.weights, softmax_params.bias))


def _classifier_shapes(kv):
    n_labels, dim = int(kv["L"]), int(kv["dim"])
    return [(n_labels, dim), (n_labels,)]


def load_classifier(path):
    """Returns ``(softmax_params, opts)``."""
    kv, (weights, bias) = read_blob_file(path, "relemb-clf",
                                         ("L", "dim", "opts"),
                                         _classifier_shapes)
    try:
        opts = FeatureOptions.from_flags(kv["opts"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return SoftmaxParams(weights, bias), opts
