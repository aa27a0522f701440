import dataclasses
import math

import numpy as np
import pytest

from relemb import cbow_baseline as cb
from relemb import corpus as cp
from relemb import embed_train as et
from relemb import kernels
from relemb.features import feature_dim
from relemb.synthetic import make_synthetic_data
from conftest import (check_row_grads, float32_rtol, make_collocation_corpus,
                      make_vocab)


def _vocab_from(files, text):
    """A reader over a file of `text`, and its vocabulary."""
    corpus = files.reader(text)
    return corpus, cp.build_vocabulary(corpus, 500, 500)


def _cbow_params(word_vecs, pred_vecs, window):
    """CBOW parameters: the given word and prediction vectors, one zero
    noun row and zero biases."""
    n_words, dim = word_vecs.shape
    return et.EmbeddingParams(np.zeros((1, dim)), word_vecs, pred_vecs,
                              np.zeros(n_words), dim, window)


class TestCbowObjective:
    def test_zero_output_vectors_probability_half(self, rng):
        params = _cbow_params(rng.normal(size=(8, 4)), np.zeros((8, 4)), 2)
        params.pred_bias[:] = 5.0     # the CBOW step reads no bias
        value, grads = cb.cbow_objective_and_grad([2, 3], 5, np.array([6, 7]),
                                                  params)
        assert value == pytest.approx(3 * math.log(0.5))
        assert sorted(grads) == ["pred_vecs", "word_vecs"]
        out = dict(zip(*grads["pred_vecs"]))
        np.testing.assert_allclose(out[5],
                                   0.5 * params.word_vecs[[2, 3]].mean(axis=0))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            params = _cbow_params(rng.normal(0, 0.5, (9, 5)),
                                  rng.normal(0, 0.5, (9, 5)), 2)
            window = [int(x) for x in rng.integers(0, 9, int(rng.integers(1, 5)))]
            center = int(rng.integers(0, 9))
            noise = rng.integers(0, 9, 3)
            _, grads = cb.cbow_objective_and_grad(window, center, noise,
                                                  params)
            check_row_grads(
                lambda: cb.cbow_objective_and_grad(window, center, noise,
                                                   params)[0],
                params, grads)

    def test_duplicate_window_words_accumulate(self):
        rng = np.random.default_rng(3)
        params = _cbow_params(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)),
                              2)
        window = [2, 2, 4]
        noise = np.array([5, 5])   # duplicate noise draws as well
        _, grads = cb.cbow_objective_and_grad(window, 1, noise, params)
        check_row_grads(
            lambda: cb.cbow_objective_and_grad(window, 1, noise, params)[0],
            params, grads)


class TestTrainCbow:
    def test_empty_stream_rejected(self, files):
        vocab = make_vocab({"a": 1}, {"a": 1})
        path = files.path("")
        with pytest.raises(cp.ArtifactError, match=f"^{path}: no tokens$"):
            cb.train_cbow(cp.TaggedCorpusReader(path), vocab,
                          et.PretrainConfig(dim=2))

    def test_report_every_zero_rejected(self, files):
        text, _ = make_collocation_corpus(n_groups=3, repeats=5)
        corpus, vocab = _vocab_from(files, text)
        with pytest.raises(cp.ConfigError, match="report_every"):
            cb.train_cbow(corpus, vocab, et.PretrainConfig(report_every=0))

    def test_seeded_bit_reproducibility(self, files):
        text, _ = make_collocation_corpus(n_groups=3, repeats=40)
        corpus, vocab = _vocab_from(files, text)
        cfg = et.PretrainConfig(dim=6, window=2, negatives=4, alpha=0.05,
                                subsample=1.0, epochs=2, seed=13)
        p1, _ = cb.train_cbow(corpus, vocab, cfg)
        p2, _ = cb.train_cbow(corpus, vocab, cfg)
        for name in ("noun_vecs", "word_vecs", "pred_vecs", "pred_bias"):
            assert (getattr(p1, name).tobytes()
                    == getattr(p2, name).tobytes()), name

    def test_collocates_become_nearest_neighbors(self, files):
        text, pairs = make_collocation_corpus(n_groups=6, repeats=400, seed=5)
        corpus, vocab = _vocab_from(files, text)
        cfg = et.PretrainConfig(dim=12, window=2, negatives=5, alpha=0.1,
                                subsample=1.0, epochs=4, seed=2)
        params, log = cb.train_cbow(corpus, vocab, cfg)
        assert log.steps_taken > 0

        normed = params.word_vecs / np.maximum(
            np.linalg.norm(params.word_vecs, axis=1, keepdims=True), 1e-12)
        hits = 0
        for a, b in pairs:
            wa, wb = vocab.word_ids([a])[0], vocab.word_ids([b])[0]
            sims = normed @ normed[wa]
            sims[wa] = -np.inf
            sims[:2] = -np.inf    # specials carry no usable vector
            if int(np.argmax(sims)) == wb:
                hits += 1
        assert hits >= len(pairs) - 1

    def test_objective_improves(self, files):
        text, _ = make_collocation_corpus(n_groups=4, repeats=200, seed=8)
        corpus, vocab = _vocab_from(files, text)
        cfg = et.PretrainConfig(dim=8, window=2, negatives=5, alpha=0.08,
                                subsample=1.0, epochs=3, seed=1,
                                report_every=800)
        _, log = cb.train_cbow(corpus, vocab, cfg)
        means = [m for _, m in log.windows]
        assert means[-1] > means[0]


def _per_token_cbow(sentences, vocab, cfg):
    """train_cbow before it read its corpus once: the token count from a
    first pass, then per token one id lookup and one subsampling draw."""
    total_tokens = sum(len(s) for s in sentences)
    planned = cfg.epochs * total_tokens
    rng = np.random.default_rng(cfg.seed)
    std = 1.0 / math.sqrt(cfg.dim)
    # float32, as train_cbow's
    word_vecs = rng.normal(0.0, std, size=(vocab.n_words, cfg.dim))
    params = _cbow_params(word_vecs.astype(np.float32),
                          np.zeros((vocab.n_words, cfg.dim), np.float32),
                          cfg.window)
    sampler = et.NoiseSampler(vocab.word_counts)
    word_filter = et.SubsamplingFilter(vocab.word_counts, cfg.subsample)
    log = et.TrainingLog()
    processed = 0
    win_sum, win_count, next_report = 0.0, 0, cfg.report_every
    c = cfg.window
    for _ in range(cfg.epochs):
        for sent in sentences:
            ids = [vocab.word_ids([w])[0] for w in sent.words]
            lr = cfg.alpha * (1.0 - processed / planned)
            kept = []
            for wid in ids:
                processed += 1
                log.targets_seen += 1
                if word_filter.should_discard(wid, rng):
                    log.targets_discarded += 1
                else:
                    kept.append(wid)
            for t, center in enumerate(kept):
                window = kept[max(0, t - c):t] + kept[t + 1:t + 1 + c]
                if not window:
                    continue
                noise = sampler.sample(cfg.negatives, rng, exclude=center)
                value, grads = cb.cbow_objective_and_grad(window, center,
                                                          noise, params)
                et.apply_row_grads(params, grads, lr)
                win_sum += value
                win_count += 1
                log.steps_taken += 1
            if processed >= next_report:
                log.record(processed, win_sum, win_count)
                win_sum, win_count = 0.0, 0
                next_report += cfg.report_every
    log.record(processed, win_sum, win_count)
    return params, log


def _one_read_and_per_token(files):
    data = make_synthetic_data(n_pretrain=300, n_train_per_class=1,
                               n_test_per_class=1, seed=4)
    corpus, vocab = _vocab_from(files, data.tagged_text)
    cfg = et.PretrainConfig(dim=6, window=2, negatives=4, alpha=0.05,
                            subsample=2e-3, epochs=2, seed=9, report_every=700)
    params, log = cb.train_cbow(corpus, vocab, cfg)
    want, want_log = _per_token_cbow(list(corpus), vocab, cfg)
    assert 0 < log.targets_discarded < log.targets_seen
    assert log.steps_taken > 0 and len(log.windows) > 2
    assert not params.pred_bias.any()
    return params, log, want, want_log


def test_one_read_matches_per_token_subsampling(monkeypatch, files):
    monkeypatch.setattr(kernels, "load", lambda: None)
    params, log, want, want_log = _one_read_and_per_token(files)
    assert log == want_log
    assert np.array_equal(params.word_vecs, want.word_vecs)
    assert np.array_equal(params.pred_vecs, want.pred_vecs)


def test_one_read_matches_per_token_subsampling_compiled(files):
    # the compiled steps sum in another order: the same draws and counts,
    # values and parameters within the float32 tolerance of the run
    if kernels.load() is None:
        pytest.skip("no C compiler found; training takes the numpy steps")
    params, log, want, want_log = _one_read_and_per_token(files)
    assert dataclasses.replace(log, windows=[]) == dataclasses.replace(
        want_log, windows=[])
    assert [n for n, _ in log.windows] == [n for n, _ in want_log.windows]
    rtol = float32_rtol(log.steps_taken)
    np.testing.assert_allclose([v for _, v in log.windows],
                               [v for _, v in want_log.windows], rtol=rtol)
    for name in ("word_vecs", "pred_vecs"):
        ref = getattr(want, name)
        np.testing.assert_allclose(getattr(params, name), ref, rtol=rtol,
                                   atol=rtol * np.abs(ref).max())


class TestTrainedParams:
    """What :func:`train_cbow` returns is what ``cbow`` saves."""

    def _trained(self, files):
        # four words in the inventory: the probes of the three groups fall
        # outside it, but stay nouns
        text, _ = make_collocation_corpus(n_groups=3, repeats=30)
        corpus = files.reader(text)
        vocab = cp.build_vocabulary(corpus, 4, 500)
        cfg = et.PretrainConfig(dim=4, window=3, negatives=3, alpha=0.05,
                                subsample=1.0, epochs=1, seed=6)
        params, _ = cb.train_cbow(corpus, vocab, cfg)
        return params, vocab

    def test_noun_rows_are_word_rows(self, files):
        params, vocab = self._trained(files)
        inside = {nid: vocab.word_surfaces.index(surface)
                  for nid, surface in enumerate(vocab.noun_surfaces)
                  if nid and surface in vocab.word_surfaces}
        outside = [nid for nid in range(1, vocab.n_nouns) if nid not in inside]
        assert inside and outside
        for nid, wid in inside.items():
            np.testing.assert_array_equal(params.noun_vecs[nid],
                                          params.word_vecs[wid])
        for nid in [cp.UNK_NOUN, *outside]:
            np.testing.assert_array_equal(params.noun_vecs[nid],
                                          params.word_vecs[cp.UNK_WORD])

    def test_no_bias_and_dim_wide_prediction_vectors(self, files):
        # prediction vectors are dim-d, so |e| = (2c+5)*d
        params, _ = self._trained(files)
        assert not params.pred_bias.any()
        assert params.pred_dim == params.dim == 4
        assert feature_dim(params) == (2 * 3 + 5) * 4

    def test_params_round_trip_model_file(self, tmp_path, files):
        params, _ = self._trained(files)
        path = tmp_path / "cbow.bin"
        et.save_model(params, path)
        loaded = et.load_model(path)
        assert (loaded.dim, loaded.window, loaded.pred_dim) == (4, 3, 4)
        for name in ("noun_vecs", "word_vecs", "pred_vecs", "pred_bias"):
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(params, name), name)
