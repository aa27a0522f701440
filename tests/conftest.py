import math

import numpy as np
import pytest

from relemb import kernels
from relemb.corpus import (NOUN_TAGS, ContextArrays, LabelledContexts,
                           NounPairContext, TaggedCorpusReader, Vocabulary,
                           build_vocabulary)
from relemb.embed_train import EmbeddingParams
from relemb.synthetic import _FILLERS


def block_sentences(blocks):
    """``(words, noun flags)`` of every sentence of `blocks`, checking that
    each block lists distinct surfaces in first-occurrence order."""
    out = []
    for block in blocks:
        ids = block.ids.tolist()
        assert sorted(set(ids)) == list(range(len(block.surfaces)))
        assert [ids.index(i) for i in range(len(block.surfaces))] == sorted(
            ids.index(i) for i in range(len(block.surfaces)))
        assert len(set(block.surfaces)) == len(block.surfaces)
        bounds = block.offsets.tolist()
        assert bounds[0] == 0 and bounds[-1] == len(ids)
        for lo, hi in zip(bounds, bounds[1:]):
            assert hi > lo
            out.append((tuple(block.surfaces[i] for i in ids[lo:hi]),
                        tuple(block.noun[lo:hi].tolist())))
    return out


def on_both_routes(read):
    """``read()`` on the compiled scan of a tagged corpus, then with
    ``kernels.load`` patched to None, so that the reader's per-line loop
    runs: the two results must be equal, and the first is returned.  With
    no C compiler both runs take the per-line loop."""
    want = read()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "load", lambda: None)
        assert read() == want
    return want


class CorpusFiles:
    """Input text written to files under `root`, which every reader of
    ``relemb.corpus`` takes; tagged-corpus text is read on both routes of
    :func:`on_both_routes`."""

    def __init__(self, root):
        self.root = root
        self.written = 0

    def path(self, text):
        """A new file under the root holding `text` as UTF-8, its line
        ends as written."""
        self.written += 1
        path = self.root / f"input{self.written}.txt"
        path.write_bytes(text.encode("utf-8"))
        return path

    def reader(self, *texts):
        """A TaggedCorpusReader over one new file per text."""
        return TaggedCorpusReader(*map(self.path, texts))

    def read(self, *texts):
        """The sentences of `texts`, one file each, from the reader's
        per-line loop, and the reader.  Its blocks, on both routes, must
        hold the same words and noun flags and leave the same counts."""
        reader = self.reader(*texts)
        sents = list(reader)
        want = ([(s.words, tuple(t in NOUN_TAGS for t in s.tags))
                 for s in sents],
                reader.skipped_lines, reader.sentences_read)
        assert on_both_routes(lambda: (
            block_sentences(reader.blocks()), reader.skipped_lines,
            reader.sentences_read)) == want
        return sents, reader

    def vocabulary(self, text, *args, **kwargs):
        """build_vocabulary over `text`, the same on both routes."""
        reader = self.reader(text)
        return on_both_routes(lambda: build_vocabulary(reader, *args,
                                                       **kwargs))


@pytest.fixture
def files(tmp_path):
    return CorpusFiles(tmp_path)


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


def float32_rtol(n):
    """The relative tolerance between two float32 computations of `n`
    steps (updates of a training run, or terms of a sum) that round in
    different orders: a few dozen roundings of one float32 epsilon each per
    step, adding up like a random walk, so 32 epsilons times the square
    root of `n`."""
    return 32 * float(np.finfo(np.float32).eps) * math.sqrt(n)


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
    """The LabelledContexts of a list of contexts and their label indices,
    with ids 1..n unless `ids` are given."""
    contexts = list(contexts)
    if ids is None:
        ids = range(1, len(contexts) + 1)
    return LabelledContexts(np.array(list(ids), np.int64),
                            np.array(list(labels), np.int64),
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


def make_single_pattern_corpus(n_sentences=3000, seed=3):
    """Corpus where the word between the pair (alpha, beta) is always
    ``caused``; other pairs carry unrelated words to populate the noise
    distribution.  Returns tagged-format text."""
    rng = np.random.default_rng(seed)
    others = [("gamma", "likes", "delta"), ("epsilon", "sees", "zeta"),
              ("eta", "finds", "theta"), ("iota", "meets", "kappa")]
    chunks = []
    for _ in range(n_sentences):
        if rng.random() < 0.5:
            n1, mid, n2 = "alpha", "caused", "beta"
        else:
            n1, mid, n2 = others[rng.integers(0, len(others))]
        filler = _FILLERS[rng.integers(0, len(_FILLERS))]
        chunks.append(f"{filler}\tRB\n{n1}\tNN\n{mid}\tVBD\n{n2}\tNN\n"
                      f"{filler}\tRB\n\n")
    return "".join(chunks)


def make_collocation_corpus(n_groups=6, repeats=400, seed=5):
    """Sentences pairing two probe words with a shared anchor, so each
    probe's nearest neighbor should be the other probe of its group.

    Returns ``(tagged text, [(probe_a, probe_b), ...])``."""
    rng = np.random.default_rng(seed)
    groups = [(f"probea{i}", f"anchor{i}", f"probeb{i}") for i in range(n_groups)]
    chunks = []
    for _ in range(repeats):
        for a, mid, b in groups:
            first = a if rng.random() < 0.5 else b
            chunks.append(f"{first}\tNN\n{mid}\tNN\n\n")
    pairs = [(a, b) for a, _, b in groups]
    return "".join(chunks), pairs
