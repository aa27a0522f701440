"""Noun-pair embedding pretraining with negative sampling.

Each word between a noun pair is predicted from the pair embeddings, its
local window, and the averaged outside windows.  A per-word logistic
regression discriminates the true target from ``k`` noise words drawn from a
count^0.75 unigram distribution; frequent targets and frequent noun pairs
are stochastically discarded before training.

Training walks the contexts in order.  Per context it draws the pair's two
subsampling uniforms; per target of a kept pair it sets the linear rate,
draws the target's subsampling uniform, then its noise (clashes with the
target drawn again), and takes the step.  When a C compiler is found, that
walk runs in the compiled pretraining entry point of :mod:`relemb.kernels`,
over blocks of contexts read from :class:`~relemb.corpus.ContextArrays`:
C makes the same draws in the same order from the run's own generator,
through numpy's ``bitgen_t``, and returns to Python at each progress
record.  Otherwise the numpy loop (:func:`pretrain_step`, built on
:func:`pretrain_objective_and_grad` and :func:`apply_row_grads`) runs; it
stays the reference.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .corpus import (ArtifactError, ConfigError, ContextFile,
                     neighbor_slot_rows, neighbor_slots, not_utf8)

logger = logging.getLogger(__name__)

__all__ = [
    "EmbeddingParams",
    "PretrainConfig",
    "NoiseSampler",
    "SubsamplingFilter",
    "TrainingLog",
    "initial_params",
    "sigmoid",
    "log_sigmoid",
    "pair_discard",
    "pretrain_table",
    "build_feature_vector",
    "pretrain_objective_and_grad",
    "sum_rows",
    "gather_table",
    "scatter_table",
    "apply_row_grads",
    "pretrain_step",
    "train_embeddings",
    "save_model",
    "load_model",
    "write_blob_file",
    "read_blob_file",
    "write_text_vectors",
    "read_text_vectors",
]


@dataclass
class EmbeddingParams:
    """The four learned parameter blocks, stored rows-per-word.

    ``noun_vecs`` and ``word_vecs`` are ``dim``-dimensional embeddings for
    the noun and word inventories; ``pred_vecs``/``pred_bias`` hold the
    per-word logistic-regression weights used to score prediction targets.
    For natively pretrained parameters each prediction vector has length
    ``2*dim*(2+window)``; imported bag-of-words baselines use length ``dim``.
    """

    noun_vecs: np.ndarray   # (n_nouns, dim)
    word_vecs: np.ndarray   # (n_words, dim)
    pred_vecs: np.ndarray   # (n_words, pred_dim)
    pred_bias: np.ndarray   # (n_words,)
    dim: int
    window: int

    @property
    def n_nouns(self):
        return self.noun_vecs.shape[0]

    @property
    def n_words(self):
        return self.word_vecs.shape[0]

    @property
    def pred_dim(self):
        return self.pred_vecs.shape[1]

    @property
    def pretrain_feature_dim(self):
        return 2 * self.dim * (2 + self.window)

    def copy(self):
        return EmbeddingParams(
            self.noun_vecs.copy(), self.word_vecs.copy(),
            self.pred_vecs.copy(), self.pred_bias.copy(),
            self.dim, self.window,
        )

    def check_finite(self):
        for name in ("noun_vecs", "word_vecs", "pred_vecs", "pred_bias"):
            arr = getattr(self, name)
            if not np.isfinite(arr).all():
                raise FloatingPointError(f"non-finite entries in {name}")


def initial_params(n_nouns, n_words, dim, window, rng):
    """Gaussian(0, 1/dim) noun/word embeddings, zero prediction weights."""
    if dim < 1 or window < 1:
        raise ConfigError("dim and window must be >= 1")
    std = 1.0 / math.sqrt(dim)
    return EmbeddingParams(
        noun_vecs=rng.normal(0.0, std, size=(n_nouns, dim)),
        word_vecs=rng.normal(0.0, std, size=(n_words, dim)),
        pred_vecs=np.zeros((n_words, 2 * dim * (2 + window))),
        pred_bias=np.zeros(n_words),
        dim=dim,
        window=window,
    )


@dataclass
class PretrainConfig:
    """Hyperparameters of both embedding trainers: noun-pair pretraining
    (:func:`train_embeddings`) and the CBOW baseline
    (:func:`relemb.cbow_baseline.train_cbow`).  A progress record is
    logged every `report_every` targets (tokens, for CBOW).

    Defaults follow the best grid setting (window 3, dim 100, 25 negatives,
    initial rate 0.025, subsample threshold 1e-5).
    """

    dim: int = 100
    window: int = 3
    negatives: int = 25
    alpha: float = 0.025
    subsample: float = 1e-5
    epochs: int = 1
    seed: int = 1
    report_every: int = 100_000

    def validate(self):
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.negatives < 1:
            raise ConfigError("negatives must be >= 1")
        if not self.alpha > 0:
            raise ConfigError("alpha must be > 0")
        if not self.subsample > 0:
            raise ConfigError("subsample threshold must be > 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.report_every < 1:
            raise ConfigError("report_every must be >= 1")
        return self


class SubsamplingFilter:
    """Per-id discard probabilities ``max(0, 1 - sqrt(t / p))`` over one
    inventory, where ``p`` is the id's share of all counts.

    Ids with zero count (NULL, or UNK when nothing fell out of vocabulary)
    are never discarded.
    """

    def __init__(self, counts, t):
        counts = np.asarray(counts, dtype=np.float64)
        total = counts.sum()
        if total <= 0:
            raise ValueError("inventory has no occurrence counts")
        probs = np.zeros_like(counts)
        nz = counts > 0
        probs[nz] = 1.0 - np.sqrt(t * total / counts[nz])
        self.discard_probs = np.clip(probs, 0.0, 1.0)

    def should_discard(self, wid, rng):
        # discard iff P_d(w) > r for r ~ U(0,1)
        return self.discard_probs[wid] > rng.random()


def pair_discard(n1, n2, noun_filter, rng):
    """Noun-pair subsampling: two independent uniforms, discard if either
    noun's discard probability exceeds its draw."""
    r1 = rng.random()
    r2 = rng.random()
    return noun_filter.discard_probs[n1] > r1 or noun_filter.discard_probs[n2] > r2


class NoiseSampler:
    """Unigram noise distribution weighted by count^0.75: ``probs`` per
    id, and their running sums ``cum``, whose last entry is exactly 1."""

    def __init__(self, counts):
        weights = np.asarray(counts, dtype=np.float64) ** 0.75
        total = weights.sum()
        if total <= 0:
            raise ValueError("noise distribution has no mass")
        self.probs = weights / total
        self.cum = np.cumsum(self.probs)
        self.cum[-1] = 1.0

    def sample(self, k, rng, exclude=None):
        """Draw `k` ids; draws equal to `exclude` are re-drawn while an
        alternative exists."""
        draws = np.searchsorted(self.cum, rng.random(k), side="right")
        if exclude is not None and self.probs[exclude] < 1.0:
            clash = draws == exclude
            while clash.any():
                draws[clash] = np.searchsorted(
                    self.cum, rng.random(int(clash.sum())), side="right")
                clash = draws == exclude
        return draws


def sum_rows(ids, rows):
    """Gradient of one parameter block: ``(unique ids, summed rows)``.

    `rows` is a sequence holding the contribution of each occurrence to row
    ``ids[j]`` (array rows, or numbers for a 1-D block).  Ids keep the order
    of their first occurrence, and repeats are added in order of occurrence,
    so each sum is the sequential sum a per-row accumulator would give.
    Every gradient in the package is a dict from a parameter attribute name
    to such a pair.
    """
    sums = {}
    for idx, row in zip(ids, rows):
        acc = sums.get(idx)
        sums[idx] = row if acc is None else acc + row
    return np.fromiter(sums, np.intp, len(sums)), np.array(list(sums.values()))


# An id table describes one feature vector built from parameter rows: a flat
# int array of row ids and a list of segments ``(name, k, m)``.  Segment `j`
# reads the next ``k * m`` ids, m pooled rows of k slots each, from the 2-D
# parameter attribute `name`, and fills ``k * width`` entries of the vector:
# each slot's rows summed over the m pooled rows, divided by m when m > 1.
# An empty segment (m = 0) fills zeros.

def gather_table(params, ids, segments):
    """The feature vector of an id table: its segments concatenated."""
    parts = []
    pos = 0
    for name, k, m in segments:
        arr = getattr(params, name)
        end = pos + k * m
        if m == 1:
            parts.append(arr[ids[pos:end]].reshape(-1))
        elif m:
            # numpy sums a C-contiguous block along axis 0 row by row, so
            # the mean is the sequential one
            parts.append(arr[ids[pos:end]].reshape(m, -1).sum(axis=0) / m)
        else:
            parts.append(np.zeros(k * arr.shape[1]))
        pos = end
    return np.concatenate(parts)


def scatter_table(grad, params, ids, segments):
    """Transpose of :func:`gather_table`: the gradient `grad` w.r.t. the
    feature vector, carried back onto the rows of `params` it was read from.

    Each slot's gradient, divided by m, goes to the slot's row in every
    pooled row, in table order.  Returns the gradient in the form of
    :func:`sum_rows`; attributes no row is read from are left out.
    """
    ids = ids.tolist()
    occurrences = {}
    pos = off = 0
    for name, k, m in segments:
        width = k * getattr(params, name).shape[1]
        end = pos + k * m
        if m:
            g = grad[off:off + width]
            if m > 1:
                g = g / m
            slot_ids, rows = occurrences.setdefault(name, ([], []))
            slot_ids += ids[pos:end]
            rows += (list(g.reshape(k, -1)) if k > 1 else [g]) * m
        pos = end
        off += width
    return {name: sum_rows(slot_ids, rows)
            for name, (slot_ids, rows) in occurrences.items()}


def _pretrain_segments(c, m_bef, m_aft):
    return (("noun_vecs", 2, 1), ("word_vecs", 2 * c, 1),
            ("word_vecs", 1, m_bef), ("word_vecs", 1, m_aft))


def pretrain_table(ctx, i, c, slots=None):
    """Id table of the prediction input for target position `i` (1-based)
    of ``ctx.w_in``: both nouns, the `c` word neighbors on each side of the
    target (NULL beyond the between-words span), and the two outside
    windows, each pooled to its mean.  `slots` holds the target's row of
    :func:`~relemb.corpus.neighbor_slot_rows` when the caller has it."""
    if slots is None:
        slots = neighbor_slots(ctx, i, c)
    ids = [ctx.n1, ctx.n2, *slots, *ctx.w_bef, *ctx.w_aft]
    return (np.array(ids, dtype=np.intp),
            _pretrain_segments(c, len(ctx.w_bef), len(ctx.w_aft)))


def build_feature_vector(ctx, i, params):
    """Prediction input for target position `i` of `ctx`, length
    ``2*dim*(2+window)``: the gather of its :func:`pretrain_table`."""
    return gather_table(params, *pretrain_table(ctx, i, params.window))


def sigmoid(x):
    """Logistic function ``1/(1+exp(-x))``; exp's overflow for x below
    about -709 gives the exact limit 0, so it is not reported."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def log_sigmoid(x):
    """``log sigmoid(x) = -log(1+exp(-x))``, finite for every finite x."""
    return -np.logaddexp(0.0, -x)


def pretrain_objective_and_grad(ctx, i, params, noise_ids, slots=None):
    """Objective term and gradients for one (context, target) sample.

    Returns ``(value, grads)`` where value is
    ``log p(target|f) + sum_j log(1 - p(noise_j|f))`` and grads is the
    gradient of the value in the form of :func:`sum_rows`, keyed by
    ``noun_vecs``, ``word_vecs``, ``pred_vecs`` and ``pred_bias``.
    Duplicate rows (repeated noise draws, shared window/outside words,
    n1 == n2) accumulate.  `slots` is as for :func:`pretrain_table`.
    """
    words = np.concatenate(([ctx.w_in[i - 1]], noise_ids)).astype(np.intp)
    return _objective_and_grad(
        params, pretrain_table(ctx, i, params.window, slots), words)


def _objective_and_grad(params, table, words):
    """:func:`pretrain_objective_and_grad` of the step whose prediction
    input is the id table `table` and whose scored words are `words`, the
    target first."""
    f = gather_table(params, *table)
    pred = params.pred_vecs[words]
    z = pred @ f + params.pred_bias[words]
    labels = np.zeros(len(words))
    labels[0] = 1.0
    value = float(log_sigmoid(z[0]) + log_sigmoid(-z[1:]).sum())
    errs = labels - sigmoid(z)
    grads = scatter_table(errs @ pred, params, *table)
    scored = words.tolist()
    grads["pred_vecs"] = sum_rows(scored, np.outer(errs, f))
    grads["pred_bias"] = sum_rows(scored, errs)
    return value, grads


def apply_row_grads(params, grads, lr):
    """Gradient-ascent step: add ``lr`` times each summed row of `grads`
    (see :func:`sum_rows`) to the row of `params` it addresses."""
    for name, (ids, rows) in grads.items():
        getattr(params, name)[ids] += lr * rows


def pretrain_step(ctx, i, params, lr, k, sampler, rng, slots=None):
    """Draw noise, take one ascent step, return the pre-update objective.
    `slots` is as for :func:`pretrain_table`."""
    target = ctx.w_in[i - 1]
    noise = sampler.sample(k, rng, exclude=target)
    value, grads = pretrain_objective_and_grad(ctx, i, params, noise, slots)
    apply_row_grads(params, grads, lr)
    return value


@dataclass
class TrainingLog:
    """Progress report: windowed mean objective plus totals."""

    windows: list[tuple[int, float]] = field(default_factory=list)
    targets_seen: int = 0
    steps_taken: int = 0
    pairs_discarded: int = 0
    targets_discarded: int = 0

    def record(self, processed, total, count):
        if count:
            self.windows.append((processed, total / count))


def _check_ids(ids, bound, what):
    bad = (ids < 0) | (ids >= bound)
    if bad.any():
        raise ValueError(f"{what} id {ids[bad][0]} outside [0, {bound})")


def _context_fault(ctx, vocab):
    """Which id of a context that failed the range checks of
    :func:`_checked_arrays` lies outside the vocabulary."""
    for ids, bound, what in (
            ((ctx.n1, ctx.n2), vocab.n_nouns, "noun"),
            (ctx.w_in + ctx.w_bef + ctx.w_aft, vocab.n_words, "word")):
        bad = [x for x in ids if not 0 <= x < bound]
        if bad:
            return f"{what} id {bad[0]} outside [0, {bound})"


def _checked_arrays(arrays, vocab):
    """Check :class:`~relemb.corpus.ContextArrays` `arrays` before
    pretraining, in order: outside windows at least 1 wide; every context
    with words between the pair and its ids in the vocabulary's range; then
    the fault the arrays end on.  A fault in arrays read from a file raises
    :class:`ArtifactError` naming ``path:line``."""
    if arrays.m_out < 1:
        raise ValueError("pretraining contexts need outside windows of 1 "
                         "or more ids")
    n_nouns, n_words = vocab.n_nouns, vocab.n_words

    def out_of_range(ids, bound):
        return (ids < 0) | (ids >= bound)

    empty = arrays.offsets[1:] == arrays.offsets[:-1]
    bad = (empty | out_of_range(arrays.n1, n_nouns)
           | out_of_range(arrays.n2, n_nouns)
           | out_of_range(arrays.w_bef, n_words).any(axis=1)
           | out_of_range(arrays.w_aft, n_words).any(axis=1))
    words = np.flatnonzero(out_of_range(arrays.w_in, n_words))
    bad[np.searchsorted(arrays.offsets, words, side="right") - 1] = True
    if bad.any():
        r = int(bad.argmax())
        raise arrays.error(r, "no words between the pair" if empty[r]
                           else _context_fault(arrays.context(r), vocab))
    if arrays.fault is not None:
        raise arrays.fault
    return arrays


# Targets a block of contexts holds for one compiled call (one context may
# exceed it); at d=100, c=3 its neighbour slots take 200 kB.
_BATCH_STEPS = 4096


class _Draws:
    """What a pretraining run draws from: the noise sampler and the pair
    and target subsampling filters, the rate schedule, and the generator."""

    def __init__(self, cfg, vocab, planned, rng):
        self.cfg = cfg
        self.planned = planned
        self.rng = rng
        self.noise = NoiseSampler(vocab.word_counts)
        self.words = SubsamplingFilter(vocab.word_counts, cfg.subsample)
        self.nouns = SubsamplingFilter(vocab.noun_counts, cfg.subsample)

    def rate(self, done):
        return self.cfg.alpha * (1.0 - done / self.planned)


def _report(log, done, draws, win_sum, win_count):
    log.record(done, win_sum, win_count)
    logger.info("pretrain: %d/%d targets, window objective %.4f, lr %.5f",
                done, draws.planned,
                win_sum / win_count if win_count else float("nan"),
                draws.rate(min(done, draws.planned)))


def _blocks(arrays, c):
    """`arrays` in blocks of at most ``_BATCH_STEPS`` targets (one context
    may exceed it), each with the :func:`neighbor_slot_rows` of its
    targets for window `c`."""
    offsets = arrays.offsets
    lo = 0
    while lo < len(arrays):
        hi = max(lo + 1, int(np.searchsorted(
            offsets, offsets[lo] + _BATCH_STEPS, side="right")) - 1)
        block = arrays.take(np.arange(lo, hi))
        yield block, neighbor_slot_rows(block.w_in, block.offsets, c)
        lo = hi


def _train_epoch(arrays, params, draws, done, log):
    """One sequential pass of numpy steps over the contexts; `done` is the
    number of targets already passed in the linear learning-rate schedule.
    Returns the updated count."""
    cfg, rng = draws.cfg, draws.rng
    win_sum = 0.0
    win_count = 0
    next_report = done + cfg.report_every
    for block, slots in _blocks(arrays, cfg.window):
        slots = slots.tolist()
        for ctx, first in zip(block, block.offsets.tolist()):
            if pair_discard(ctx.n1, ctx.n2, draws.nouns, rng):
                done += ctx.m_in
                log.targets_seen += ctx.m_in
                log.pairs_discarded += 1
                continue
            for i in range(1, ctx.m_in + 1):
                lr = draws.rate(done)
                done += 1
                log.targets_seen += 1
                if draws.words.should_discard(ctx.w_in[i - 1], rng):
                    log.targets_discarded += 1
                    continue
                win_sum += pretrain_step(ctx, i, params, lr, cfg.negatives,
                                         draws.noise, rng,
                                         slots[first + i - 1])
                win_count += 1
                log.steps_taken += 1
            if done >= next_report:
                _report(log, done, draws, win_sum, win_count)
                win_sum = 0.0
                win_count = 0
                next_report += cfg.report_every
    log.record(done, win_sum, win_count)
    return done


def _compiled_epoch(kernel, arrays, params, draws, done, log):
    """:func:`_train_epoch` through the compiled walk, which makes the same
    draws in the same order and takes each step right after them, over
    blocks of at most ``_BATCH_STEPS`` targets."""
    cfg = draws.cfg
    progress = kernels.Progress(done=done, next_report=done + cfg.report_every)
    for block, slots in _blocks(arrays, cfg.window):
        progress.at = 0
        while kernel(params, block, slots, draws.nouns.discard_probs,
                     draws.words.discard_probs, draws.noise, cfg.negatives,
                     cfg.alpha, draws.planned, draws.rng, progress):
            _report(log, progress.done, draws, progress.win_sum,
                    progress.win_count)
            progress.win_sum = 0.0
            progress.win_count = 0
            progress.next_report += cfg.report_every
    log.targets_seen += progress.done - done
    log.steps_taken += progress.steps
    log.pairs_discarded += progress.pairs_discarded
    log.targets_discarded += progress.targets_discarded
    log.record(progress.done, progress.win_sum, progress.win_count)
    return progress.done


def train_embeddings(contexts, vocab, config):
    """Train embedding parameters over a :class:`~relemb.corpus.ContextFile`
    or :class:`~relemb.corpus.ContextArrays`, which accept the same
    contexts.

    Returns ``(params, log)``.  The run is deterministic for a fixed seed.
    """
    cfg = config.validate()
    if isinstance(contexts, ContextFile):
        contexts = contexts.arrays
    arrays = _checked_arrays(contexts, vocab)
    total_targets = int(arrays.offsets[-1])
    if total_targets == 0:
        if arrays.path is not None:
            raise ArtifactError(f"{arrays.path}: no contexts")
        raise ValueError("context stream is empty")

    rng = np.random.default_rng(cfg.seed)
    params = initial_params(vocab.n_nouns, vocab.n_words, cfg.dim, cfg.window,
                            rng)
    draws = _Draws(cfg, vocab, cfg.epochs * total_targets, rng)

    compiled = kernels.load()
    logger.info("pretrain: taking %s steps",
                "numpy" if compiled is None else "compiled")
    log = TrainingLog()
    done = 0
    for _ in range(cfg.epochs):
        if compiled is None:
            done = _train_epoch(arrays, params, draws, done, log)
        else:
            done = _compiled_epoch(compiled.pretrain_contexts, arrays, params,
                                   draws, done, log)
    params.check_finite()
    return params, log


# --- persistence ------------------------------------------------------------

def write_blob_file(path, header, arrays):
    """Binary artifact: the ASCII `header` line, then each array as
    little-endian float64, in order."""
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_blob_file(path, magic, required, shapes):
    """Read a file written by :func:`write_blob_file` whose header is
    ``<magic> v1 key=value ...``.

    `shapes` maps the header dict to the shapes of the stored arrays.  The
    magic, the `required` keys and the exact byte length are checked, and
    every error names `path`.  Returns ``(header dict, arrays)``.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", "replace").split()
        blob = fh.read()
    if header[:2] != [magic, "v1"]:
        raise ArtifactError(f"not a {magic} file: {path}")
    kv = dict(tok.partition("=")[::2] for tok in header[2:])
    missing = [key for key in required if key not in kv]
    if missing:
        raise ArtifactError(f"{path}: header lacks {', '.join(missing)}")
    try:
        dims = shapes(kv)
    except ValueError as exc:
        raise ArtifactError(f"{path}: bad header value: {exc}") from None
    sizes = [math.prod(shape) for shape in dims]
    if len(blob) != 8 * sum(sizes):
        raise ArtifactError(f"{path}: header implies {8 * sum(sizes)} data bytes, "
                         f"file holds {len(blob)}")
    arrays = []
    offset = 0
    for shape, size in zip(dims, sizes):
        arrays.append(np.frombuffer(blob, dtype="<f8", count=size,
                                    offset=offset * 8).reshape(shape).copy())
        offset += size
    return kv, arrays


def save_model(params, path):
    """Model file: header ``relemb-model v1 d= c= nwords= nnouns= [wdim=]``,
    then matrices noun_vecs, word_vecs, pred_vecs, pred_bias."""
    header = (f"relemb-model v1 d={params.dim} c={params.window} "
              f"nwords={params.n_words} nnouns={params.n_nouns}")
    if params.pred_dim != params.pretrain_feature_dim:
        header += f" wdim={params.pred_dim}"
    write_blob_file(path, header, (params.noun_vecs, params.word_vecs,
                                   params.pred_vecs, params.pred_bias))


def _header_dims(kv, keys):
    """The values of `keys` in header dict `kv` as integers; raises
    ValueError unless each is 1 or more."""
    dims = [int(kv[key]) for key in keys]
    for key, dim in zip(keys, dims):
        if dim < 1:
            raise ValueError(f"{key}={dim} is below 1")
    return dims


def _model_shapes(kv):
    d, c, n_words, n_nouns = _header_dims(kv, ("d", "c", "nwords", "nnouns"))
    pred_dim = (_header_dims(kv, ("wdim",))[0] if "wdim" in kv
                else 2 * d * (2 + c))
    return [(n_nouns, d), (n_words, d), (n_words, pred_dim), (n_words,)]


def load_model(path):
    kv, arrays = read_blob_file(path, "relemb-model",
                                ("d", "c", "nwords", "nnouns"), _model_shapes)
    return EmbeddingParams(*arrays, int(kv["d"]), int(kv["c"]))


def write_text_vectors(surfaces, matrix, path):
    """Interchange text format: ``word v1 v2 ... vd`` per row."""
    matrix = np.asarray(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        for surface, row in zip(surfaces, matrix):
            fh.write(surface + " " + " ".join(f"{x:.6g}" for x in row) + "\n")


def read_text_vectors(path):
    """Read the interchange text format; returns (surfaces, matrix).

    Blank lines are skipped.  Every other line must hold a word and as many
    numbers as the first such line, and every byte must be UTF-8, or
    :class:`ArtifactError` names ``path:line``.
    """
    try:
        return _read_text_vectors(path)
    except UnicodeDecodeError:
        raise not_utf8(path) from None


def _read_text_vectors(path):
    surfaces = []
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(" ")
            try:
                row = [float(x) for x in parts[1:]]
            except ValueError:
                row = []
            width = len(rows[0]) if rows else len(row)
            if not row or len(row) != width:
                raise ArtifactError(
                    f"{path}:{lineno}: expected a word and "
                    f"{width or 'one or more'} numbers")
            surfaces.append(parts[0])
            rows.append(row)
    if not rows:
        raise ArtifactError(f"{path}: no vectors")
    return surfaces, np.asarray(rows, dtype=np.float64)
