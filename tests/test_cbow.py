import dataclasses
import io
import math

import numpy as np
import pytest

from relemb import cbow_baseline as cb
from relemb import corpus as cp
from relemb import embed_train as et
from relemb import kernels
from relemb.features import feature_dim
from relemb.synthetic import make_synthetic_data
from conftest import check_row_grads, make_collocation_corpus, make_vocab


def _vocab_from(text):
    sents = list(cp.parse_tagged_corpus(io.StringIO(text)))
    return sents, cp.build_vocabulary(sents, 500, 500)


class TestCbowObjective:
    def test_zero_output_vectors_probability_half(self, rng):
        model = cb.CbowModel(rng.normal(size=(8, 4)), np.zeros((8, 4)), 4, 2)
        value, grads = cb.cbow_objective_and_grad([2, 3], 5, np.array([6, 7]),
                                                  model)
        assert value == pytest.approx(3 * math.log(0.5))
        out = dict(zip(*grads["out_vecs"]))
        np.testing.assert_allclose(out[5],
                                   0.5 * model.in_vecs[[2, 3]].mean(axis=0))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            model = cb.CbowModel(rng.normal(0, 0.5, (9, 5)),
                                 rng.normal(0, 0.5, (9, 5)), 5, 2)
            window = [int(x) for x in rng.integers(0, 9, int(rng.integers(1, 5)))]
            center = int(rng.integers(0, 9))
            noise = rng.integers(0, 9, 3)
            _, grads = cb.cbow_objective_and_grad(window, center, noise, model)
            check_row_grads(
                lambda: cb.cbow_objective_and_grad(window, center, noise,
                                                   model)[0],
                model, grads)

    def test_duplicate_window_words_accumulate(self):
        rng = np.random.default_rng(3)
        model = cb.CbowModel(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)),
                             3, 2)
        window = [2, 2, 4]
        noise = np.array([5, 5])   # duplicate noise draws as well
        _, grads = cb.cbow_objective_and_grad(window, 1, noise, model)
        check_row_grads(
            lambda: cb.cbow_objective_and_grad(window, 1, noise, model)[0],
            model, grads)


class TestTrainCbow:
    def test_empty_stream_rejected(self):
        vocab = make_vocab({"a": 1}, {"a": 1})
        with pytest.raises(ValueError):
            cb.train_cbow([], vocab, et.PretrainConfig(dim=2))

    def test_report_every_zero_rejected(self):
        text, _ = make_collocation_corpus(n_groups=3, repeats=5)
        sents, vocab = _vocab_from(text)
        with pytest.raises(cp.ConfigError, match="report_every"):
            cb.train_cbow(sents, vocab, et.PretrainConfig(report_every=0))

    def test_seeded_bit_reproducibility(self):
        text, _ = make_collocation_corpus(n_groups=3, repeats=40)
        sents, vocab = _vocab_from(text)
        cfg = et.PretrainConfig(dim=6, window=2, negatives=4, alpha=0.05,
                                subsample=1.0, epochs=2, seed=13)
        m1, _ = cb.train_cbow(sents, vocab, cfg)
        m2, _ = cb.train_cbow(sents, vocab, cfg)
        assert m1.in_vecs.tobytes() == m2.in_vecs.tobytes()
        assert m1.out_vecs.tobytes() == m2.out_vecs.tobytes()

    def test_collocates_become_nearest_neighbors(self):
        text, pairs = make_collocation_corpus(n_groups=6, repeats=400, seed=5)
        sents, vocab = _vocab_from(text)
        cfg = et.PretrainConfig(dim=12, window=2, negatives=5, alpha=0.1,
                                subsample=1.0, epochs=4, seed=2)
        model, log = cb.train_cbow(sents, vocab, cfg)
        assert log.steps_taken > 0

        normed = model.in_vecs / np.maximum(
            np.linalg.norm(model.in_vecs, axis=1, keepdims=True), 1e-12)
        hits = 0
        for a, b in pairs:
            wa, wb = vocab.word_id(a), vocab.word_id(b)
            sims = normed @ normed[wa]
            sims[wa] = -np.inf
            sims[:2] = -np.inf    # specials carry no usable vector
            if int(np.argmax(sims)) == wb:
                hits += 1
        assert hits >= len(pairs) - 1

    def test_objective_improves(self):
        text, _ = make_collocation_corpus(n_groups=4, repeats=200, seed=8)
        sents, vocab = _vocab_from(text)
        cfg = et.PretrainConfig(dim=8, window=2, negatives=5, alpha=0.08,
                                subsample=1.0, epochs=3, seed=1,
                                report_every=800)
        _, log = cb.train_cbow(sents, vocab, cfg)
        means = [m for _, m in log.windows]
        assert means[-1] > means[0]


def _per_token_cbow(sentences, vocab, cfg):
    """train_cbow before it read its corpus once: the token count from a
    first pass, then per token one id lookup and one subsampling draw."""
    total_tokens = sum(len(s) for s in sentences)
    planned = cfg.epochs * total_tokens
    rng = np.random.default_rng(cfg.seed)
    std = 1.0 / math.sqrt(cfg.dim)
    model = cb.CbowModel(rng.normal(0.0, std, size=(vocab.n_words, cfg.dim)),
                         np.zeros((vocab.n_words, cfg.dim)), cfg.dim,
                         cfg.window)
    sampler = et.NoiseSampler(vocab.word_counts)
    word_filter = et.SubsamplingFilter(vocab.word_counts, cfg.subsample)
    log = et.TrainingLog()
    processed = 0
    win_sum, win_count, next_report = 0.0, 0, cfg.report_every
    c = cfg.window
    for _ in range(cfg.epochs):
        for sent in sentences:
            ids = [vocab.word_id(w) for w in sent.words]
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
                                                          noise, model)
                et.apply_row_grads(model, grads, lr)
                win_sum += value
                win_count += 1
                log.steps_taken += 1
            if processed >= next_report:
                log.record(processed, win_sum, win_count)
                win_sum, win_count = 0.0, 0
                next_report += cfg.report_every
    log.record(processed, win_sum, win_count)
    return model, log


def _one_read_and_per_token():
    data = make_synthetic_data(n_pretrain=300, n_train_per_class=1,
                               n_test_per_class=1, seed=4)
    sents, vocab = _vocab_from(data.tagged_text)
    cfg = et.PretrainConfig(dim=6, window=2, negatives=4, alpha=0.05,
                            subsample=2e-3, epochs=2, seed=9, report_every=700)
    model, log = cb.train_cbow(cp.parse_tagged_corpus(
        io.StringIO(data.tagged_text)), vocab, cfg)
    want_model, want_log = _per_token_cbow(sents, vocab, cfg)
    assert 0 < log.targets_discarded < log.targets_seen
    assert log.steps_taken > 0 and len(log.windows) > 2
    return model, log, want_model, want_log


def test_one_read_matches_per_token_subsampling(monkeypatch):
    monkeypatch.setattr(kernels, "load", lambda: None)
    model, log, want_model, want_log = _one_read_and_per_token()
    assert log == want_log
    assert np.array_equal(model.in_vecs, want_model.in_vecs)
    assert np.array_equal(model.out_vecs, want_model.out_vecs)


def test_one_read_matches_per_token_subsampling_compiled():
    # the compiled steps sum in another order: the same draws and counts,
    # values and parameters within 1e-9
    if kernels.load() is None:
        pytest.skip("no C compiler found; training takes the numpy steps")
    model, log, want_model, want_log = _one_read_and_per_token()
    assert dataclasses.replace(log, windows=[]) == dataclasses.replace(
        want_log, windows=[])
    assert [n for n, _ in log.windows] == [n for n, _ in want_log.windows]
    np.testing.assert_allclose([v for _, v in log.windows],
                               [v for _, v in want_log.windows], rtol=1e-9)
    for got, want in ((model.in_vecs, want_model.in_vecs),
                      (model.out_vecs, want_model.out_vecs)):
        np.testing.assert_allclose(got, want, rtol=1e-9,
                                   atol=1e-9 * np.abs(want).max())


class TestImportAsInitialization:
    def _trained_pair(self):
        text, _ = make_collocation_corpus(n_groups=3, repeats=30)
        sents, vocab = _vocab_from(text)
        cfg = et.PretrainConfig(dim=4, window=3, negatives=3, alpha=0.05,
                                subsample=1.0, epochs=1, seed=6)
        model, _ = cb.train_cbow(sents, vocab, cfg)
        return model, vocab

    def test_noun_rows_copy_input_vectors(self):
        model, vocab = self._trained_pair()
        params = cb.import_as_initialization(model, vocab)
        surface = vocab.noun_surfaces[2]
        np.testing.assert_array_equal(
            params.noun_vecs[vocab.noun_id(surface)],
            model.in_vecs[vocab.word_id(surface)])
        np.testing.assert_array_equal(params.word_vecs, model.in_vecs)
        np.testing.assert_array_equal(params.pred_vecs, model.out_vecs)

    def test_feature_dimension_shrinks(self):
        # prediction vectors are dim-d, so |e| = (2c+5)*d
        model, vocab = self._trained_pair()
        params = cb.import_as_initialization(model, vocab)
        assert params.pred_dim == 4
        assert feature_dim(params) == (2 * 3 + 5) * 4

    def test_vocabulary_mismatch_rejected(self):
        model, vocab = self._trained_pair()
        other = make_vocab({"x": 1, "y": 1}, {"x": 1})
        with pytest.raises(ValueError, match="mismatch"):
            cb.import_as_initialization(model, other)

    def test_imported_params_round_trip_model_file(self, tmp_path):
        model, vocab = self._trained_pair()
        params = cb.import_as_initialization(model, vocab)
        path = tmp_path / "cbow.bin"
        et.save_model(params, path)
        loaded = et.load_model(path)
        assert loaded.pred_dim == 4
        np.testing.assert_array_equal(loaded.pred_vecs, params.pred_vecs)

