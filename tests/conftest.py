import numpy as np
import pytest

from relemb.corpus import (ContextArrays, LabelledContexts, NounPairContext,
                           Vocabulary, label_index)
from relemb.embed_train import EmbeddingParams


def make_vocab(word_counts, noun_counts, lowercase=True):
    """Vocabulary from explicit {surface: count} dicts (insertion order is
    the tie-break order)."""
    ranked_w = sorted(word_counts.items(), key=lambda kv: -kv[1])
    ranked_n = sorted(noun_counts.items(), key=lambda kv: -kv[1])
    return Vocabulary(
        word_surfaces=["<NULL>", "<UNK>"] + [s for s, _ in ranked_w],
        noun_surfaces=["<UNK>"] + [s for s, _ in ranked_n],
        word_counts=[0, 0] + [c for _, c in ranked_w],
        noun_counts=[0] + [c for _, c in ranked_n],
        lowercase=lowercase,
    )


def rand_params(rng, dim, window, n_nouns=6, n_words=12, pred_dim=None,
                scale=0.5):
    """Random parameters with nonzero prediction weights, for exercising
    every feature block."""
    if pred_dim is None:
        pred_dim = 2 * dim * (2 + window)
    return EmbeddingParams(
        noun_vecs=rng.normal(0, scale, (n_nouns, dim)),
        word_vecs=rng.normal(0, scale, (n_words, dim)),
        pred_vecs=rng.normal(0, scale, (n_words, pred_dim)),
        pred_bias=rng.normal(0, scale, n_words),
        dim=dim,
        window=window,
    )


def rand_ctx(rng, m_in, m_out, n_nouns=6, n_words=12):
    return NounPairContext(
        n1=int(rng.integers(0, n_nouns)),
        n2=int(rng.integers(0, n_nouns)),
        w_in=tuple(int(x) for x in rng.integers(0, n_words, m_in)),
        w_bef=tuple(int(x) for x in rng.integers(0, n_words, m_out)),
        w_aft=tuple(int(x) for x in rng.integers(0, n_words, m_out)),
    )


def pack(contexts, m_out=None):
    """The ContextArrays of a list of contexts, whose outside windows are
    all `m_out` wide (by default as wide as the first context's)."""
    contexts = list(contexts)
    if m_out is None:
        m_out = len(contexts[0].w_bef) if contexts else 1
    return ContextArrays.pack(contexts, m_out)


def labelled(contexts, labels, ids=None, m_out=None):
    """The LabelledContexts of a list of contexts and their RelationLabels,
    with ids 1..n unless `ids` are given."""
    contexts = list(contexts)
    if ids is None:
        ids = range(1, len(contexts) + 1)
    return LabelledContexts(np.array(list(ids), np.int64),
                            np.array([label_index(lab) for lab in labels],
                                     np.int64),
                            pack(contexts, m_out))


def rel_err(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)


def check_row_grads(value_fn, params, grads, step=1e-5, tol=1e-4):
    """Central finite differences against block-form analytic gradients.

    `grads` maps an array attribute of `params` to ``(ids, rows)``, the form
    of :func:`relemb.embed_train.sum_rows`; the ids of a block must be
    unique.  `value_fn` re-evaluates the objective from the (mutated)
    arrays.
    """
    worst = 0.0
    for name, (ids, rows) in grads.items():
        arr = getattr(params, name)
        ids = [int(i) for i in ids]
        assert len(set(ids)) == len(ids), f"repeated row ids in {name}: {ids}"
        for idx, grad in zip(ids, rows):
            grad = np.atleast_1d(np.asarray(grad, dtype=float))
            for pos in range(grad.size):
                if arr.ndim == 1:
                    orig = arr[idx]
                    arr[idx] = orig + step
                    hi = value_fn()
                    arr[idx] = orig - step
                    lo = value_fn()
                    arr[idx] = orig
                else:
                    orig = arr[idx, pos]
                    arr[idx, pos] = orig + step
                    hi = value_fn()
                    arr[idx, pos] = orig - step
                    lo = value_fn()
                    arr[idx, pos] = orig
                fd = (hi - lo) / (2 * step)
                err = rel_err(fd, grad[pos])
                worst = max(worst, err)
                assert err < tol, (
                    f"grad mismatch at {name}[{idx}][{pos}]: "
                    f"analytic {grad[pos]:.8g} vs fd {fd:.8g} (rel err {err:.2e})")
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
