import dataclasses
import functools
import logging
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relemb import corpus as cp
from relemb import embed_train as et
from relemb import kernels
from conftest import (CorpusFiles, make_vocab, pack, rand_params, rand_ctx,
                      check_row_grads, make_single_pattern_corpus)


def target_probability(f, wid, params):
    """sigma(pred_vecs[wid] . f + pred_bias[wid]): the probability the
    pretraining objective gives word `wid` for prediction input `f`."""
    return float(et.sigmoid(params.pred_vecs[wid] @ f + params.pred_bias[wid]))


def discard_prob(count, total, t):
    """Discard probability of an id with `count` of `total` occurrences."""
    return et.SubsamplingFilter([count, total - count], t).discard_probs[0]


class TestSubsampleDiscardProb:
    def test_at_threshold_zero(self):
        # p(w) = t  ->  1 - sqrt(1) = 0
        assert discard_prob(4, 400, t=0.01) == 0.0

    def test_four_times_threshold_half(self):
        # p(w) = 4t  ->  1 - sqrt(1/4) = 0.5
        assert discard_prob(16, 400, t=0.01) == pytest.approx(0.5)

    def test_below_threshold_clamped(self):
        # p(w) = t/4: raw value 1 - 2 = -1, clamped to 0
        assert discard_prob(1, 400, t=0.01) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            et.SubsamplingFilter([0, 0], t=0.01)

    def test_monotone_in_frequency(self):
        counts = [1, 5, 50, 500]
        probs = et.SubsamplingFilter(counts + [1000 - sum(counts)],
                                     1e-3).discard_probs[:4]
        assert list(probs) == sorted(probs)


class TestSubsamplingFilter:
    def test_matches_scalar_formula(self):
        counts = [0, 3, 7, 90]
        filt = et.SubsamplingFilter(counts, t=0.01)
        for wid, c in enumerate(counts):
            if c > 0:
                assert filt.discard_probs[wid] == pytest.approx(
                    max(0.0, 1.0 - math.sqrt(0.01 * sum(counts) / c)))
        assert filt.discard_probs[0] == 0.0   # zero-count id never discarded

    def test_probability_bounds(self):
        filt = et.SubsamplingFilter([1, 10, 100, 100000], t=1e-4)
        assert np.all(filt.discard_probs >= 0)
        assert np.all(filt.discard_probs <= 1)

    def test_empirical_rate_within_three_se(self):
        # P_d = 0.5 exactly: t*total/count = 1/4 with counts [4,4,8], t=1/16
        filt = et.SubsamplingFilter([4, 4, 8], t=1 / 16)
        assert filt.discard_probs[0] == pytest.approx(0.5)
        rng = np.random.default_rng(7)
        n = 1_000_000
        rate = sum(bool(filt.should_discard(0, rng)) for _ in range(n)) / n
        se = math.sqrt(0.5 * 0.5 / n)
        assert abs(rate - 0.5) < 3 * se


class TestPairDiscard:
    def test_never_discarded_at_zero_prob(self):
        filt = et.SubsamplingFilter([4, 4], t=100.0)   # P_d = 0 everywhere
        rng = np.random.default_rng(0)
        assert not any(et.pair_discard(0, 1, filt, rng) for _ in range(1000))

    def test_always_discarded_at_prob_one(self):
        # count so dominant that P_d ~ 1: need sqrt(t*total/count) ~ 0
        filt = et.SubsamplingFilter([10**12, 1], t=1e-12)
        assert filt.discard_probs[0] >= 0.999999
        rng = np.random.default_rng(0)
        assert all(et.pair_discard(0, 0, filt, rng) for _ in range(1000))

    def test_keep_rate_quarter(self):
        filt = et.SubsamplingFilter([4, 4, 8], t=1 / 16)
        rng = np.random.default_rng(11)
        n = 1_000_000
        kept = sum(not et.pair_discard(0, 1, filt, rng) for _ in range(n)) / n
        se = math.sqrt(0.25 * 0.75 / n)
        assert abs(kept - 0.25) < 3 * se

    def test_consumes_two_draws(self):
        # both uniforms are always drawn, keeping streams reproducible
        filt = et.SubsamplingFilter([10**12, 1], t=1e-12)
        r1 = np.random.default_rng(5)
        et.pair_discard(0, 0, filt, r1)
        r2 = np.random.default_rng(5)
        r2.random(2)
        assert r1.random() == r2.random()


class TestNoiseSampler:
    def test_power_weighting_exact(self):
        # 16^0.75 = 8 exactly: probs 8/9 and 1/9
        sampler = et.NoiseSampler([16, 1])
        assert sampler.probs[0] == pytest.approx(8 / 9)
        assert sampler.probs[1] == pytest.approx(1 / 9)

    def test_single_word_inventory(self):
        sampler = et.NoiseSampler([5])
        rng = np.random.default_rng(0)
        draws = sampler.sample(20, rng, exclude=0)
        assert np.all(draws == 0)

    def test_exclude_target(self):
        sampler = et.NoiseSampler([10, 10, 10])
        rng = np.random.default_rng(0)
        draws = sampler.sample(5000, rng, exclude=1)
        assert not np.any(draws == 1)

    def test_empirical_frequencies(self):
        counts = np.array([100, 50, 20, 5])
        sampler = et.NoiseSampler(counts)
        rng = np.random.default_rng(3)
        n = 1_000_000
        draws = sampler.sample(n, rng)
        freq = np.bincount(draws, minlength=4) / n
        for p, f in zip(sampler.probs, freq):
            se = math.sqrt(p * (1 - p) / n)
            assert abs(f - p) < 3 * se

    def test_seeded_determinism(self):
        sampler = et.NoiseSampler([3, 2, 1])
        a = sampler.sample(100, np.random.default_rng(9))
        b = sampler.sample(100, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_zero_count_ids_never_drawn(self):
        sampler = et.NoiseSampler([0, 10, 10])
        draws = sampler.sample(10000, np.random.default_rng(1))
        assert not np.any(draws == 0)


class TestBuildFeatureVector:
    def test_dimension_default_setting(self, rng):
        params = rand_params(rng, dim=100, window=3)
        ctx = rand_ctx(rng, m_in=4, m_out=5)
        f = et.build_feature_vector(ctx, 2, params)
        assert f.shape == (1000,)   # 2*100*(2+3)

    def test_short_span_uses_null_everywhere(self, rng):
        params = rand_params(rng, dim=3, window=2)
        ctx = rand_ctx(rng, m_in=1, m_out=2)
        f = et.build_feature_vector(ctx, 1, params)
        d = 3
        null = params.word_vecs[cp.NULL_WORD]
        for slot in range(4):   # 2 left + 2 right neighbor slots
            np.testing.assert_array_equal(f[2 * d + slot * d:2 * d + (slot + 1) * d],
                                          null)

    def test_hand_computed_scalar_case(self):
        # dim 1, window 1: f = [N1, N2, W(left), W(right), mean bef, mean aft]
        params = et.EmbeddingParams(
            noun_vecs=np.array([[10.0], [20.0]]),
            word_vecs=np.array([[0.5], [1.0], [2.0], [3.0], [4.0]]),
            pred_vecs=np.zeros((5, 6)),
            pred_bias=np.zeros(5),
            dim=1, window=1)
        ctx = cp.NounPairContext(n1=0, n2=1, w_in=(2, 3), w_bef=(0, 4),
                                 w_aft=(3, 3))
        f1 = et.build_feature_vector(ctx, 1, params)
        # target w_in[0]=2: left out of span -> NULL (0.5), right -> 3.0
        np.testing.assert_allclose(f1, [10, 20, 0.5, 3.0, 2.25, 3.0])
        f2 = et.build_feature_vector(ctx, 2, params)
        np.testing.assert_allclose(f2, [10, 20, 2.0, 0.5, 2.25, 3.0])

    def test_out_of_range_index_rejected(self, rng):
        params = rand_params(rng, dim=2, window=1)
        ctx = rand_ctx(rng, m_in=2, m_out=1)
        with pytest.raises(ValueError):
            et.build_feature_vector(ctx, 0, params)
        with pytest.raises(ValueError):
            et.build_feature_vector(ctx, 3, params)

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("c", range(1, 5))
    def test_dimension_sweep(self, d, c):
        rng = np.random.default_rng(d * 10 + c)
        params = rand_params(rng, dim=d, window=c)
        ctx = rand_ctx(rng, m_in=3, m_out=2)
        f = et.build_feature_vector(ctx, 2, params)
        assert f.shape == (2 * d * (2 + c),)
        assert params.pred_vecs.shape[1] == f.shape[0]


class TestTargetProbability:
    def test_zero_initialized_half(self, rng):
        params = rand_params(rng, dim=2, window=1)
        params.pred_vecs[:] = 0.0
        params.pred_bias[:] = 0.0
        ctx = rand_ctx(rng, m_in=2, m_out=2)
        f = et.build_feature_vector(ctx, 1, params)
        for w in range(params.n_words):
            assert target_probability(f, w, params) == pytest.approx(0.5)

    def test_log_three_gives_three_quarters(self, rng):
        params = rand_params(rng, dim=2, window=1)
        params.pred_vecs[4] = 0.0
        params.pred_bias[4] = math.log(3)
        f = et.build_feature_vector(rand_ctx(rng, 2, 2), 1, params)
        assert target_probability(f, 4, params) == pytest.approx(0.75)

    def test_monotone_in_bias(self, rng):
        params = rand_params(rng, dim=2, window=1)
        ctx = rand_ctx(rng, m_in=2, m_out=2)
        f = et.build_feature_vector(ctx, 1, params)
        last = -1.0
        for b in (-2.0, 0.0, 1.0, 4.0):
            params.pred_bias[3] = b
            p = target_probability(f, 3, params)
            assert p > last
            last = p

    def test_stable_for_large_inputs(self, rng):
        params = rand_params(rng, dim=2, window=1)
        params.pred_vecs[2] = 0.0
        ctx = rand_ctx(rng, 2, 2)
        f = et.build_feature_vector(ctx, 1, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params.pred_bias[2] = 1000.0
            assert target_probability(f, 2, params) == 1.0
            params.pred_bias[2] = -1000.0
            assert target_probability(f, 2, params) == 0.0


class TestSigmoidForms:
    """The numpy forms against scipy's, which is only a test reference."""

    @staticmethod
    def _points():
        return np.concatenate((np.random.default_rng(3).normal(size=100_000),
                               [1000.0, -1000.0, 745.0, -745.0, 710.0, -710.0]))

    def test_sigmoid_matches_expit(self):
        expit = pytest.importorskip("scipy.special").expit
        x = self._points()
        np.testing.assert_allclose(et.sigmoid(x), expit(x), rtol=4.4e-16,
                                   atol=0.0)

    def test_log_sigmoid_equals_log_expit(self):
        log_expit = pytest.importorskip("scipy.special").log_expit
        x = self._points()
        np.testing.assert_array_equal(et.log_sigmoid(x), log_expit(x))


class TestPretrainObjectiveAndGrad:
    def test_zero_init_bias_gradients(self, rng):
        params = rand_params(rng, dim=3, window=1)
        params.pred_vecs[:] = 0.0
        params.pred_bias[:] = 0.0
        ctx = cp.NounPairContext(0, 1, w_in=(5, 6), w_bef=(2,), w_aft=(3,))
        value, grads = et.pretrain_objective_and_grad(ctx, 1, params,
                                                      noise_ids=np.array([7, 8]))
        bias = dict(zip(*grads["pred_bias"]))
        assert bias[5] == pytest.approx(0.5)     # 1 - sigma(0)
        assert bias[7] == pytest.approx(-0.5)
        assert bias[8] == pytest.approx(-0.5)
        assert value == pytest.approx(3 * math.log(0.5))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            params = rand_params(rng, dim=3, window=2, n_nouns=4, n_words=9)
            m_in = int(rng.integers(1, 5))
            ctx = rand_ctx(rng, m_in=m_in, m_out=2, n_nouns=4, n_words=9)
            i = int(rng.integers(1, m_in + 1))
            noise = rng.integers(0, 9, 3)
            _, grads = et.pretrain_objective_and_grad(ctx, i, params, noise)
            check_row_grads(
                lambda: et.pretrain_objective_and_grad(ctx, i, params, noise)[0],
                params, grads)

    def test_duplicate_rows_accumulate(self, rng):
        # n1 == n2: the shared noun row must receive both block gradients
        params = rand_params(rng, dim=2, window=1, n_nouns=3, n_words=8)
        ctx = cp.NounPairContext(1, 1, w_in=(4,), w_bef=(2, 3), w_aft=(5, 6))
        noise = np.array([7])
        _, grads = et.pretrain_objective_and_grad(ctx, 1, params, noise)
        check_row_grads(
            lambda: et.pretrain_objective_and_grad(ctx, 1, params, noise)[0],
            params, grads)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_numpy_steps_keep_the_parameters_dtype(dtype):
    """The pretraining and CBOW steps build every array at the dtype of
    their parameters: feature vector, gradients and moved rows."""
    from relemb import cbow_baseline as cb
    rng = np.random.default_rng(3)
    params = rand_params(rng, dim=3, window=2, n_nouns=4,
                         n_words=9).copy(dtype)
    ctx = cp.NounPairContext(1, 2, w_in=(3, 4, 5), w_bef=(6, 7), w_aft=(8, 0))
    assert et.build_feature_vector(ctx, 2, params).dtype == dtype
    value, grads = et.pretrain_objective_and_grad(ctx, 2, params,
                                                  np.array([4, 6, 6]))
    assert isinstance(value, float)
    assert sorted(grads) == ["noun_vecs", "pred_bias", "pred_vecs",
                             "word_vecs"]
    assert {rows.dtype for _, rows in grads.values()} == {np.dtype(dtype)}
    cbow = rand_params(rng, dim=3, window=2, n_nouns=4, n_words=9,
                       pred_dim=3).copy(dtype)
    _, grads = cb.cbow_objective_and_grad([3, 5], 4, np.array([6, 7]), cbow)
    assert {rows.dtype for _, rows in grads.values()} == {np.dtype(dtype)}
    sampler = et.NoiseSampler(np.arange(1, 10))
    et.pretrain_step(ctx, 2, params, 0.1, 3, sampler, rng)
    assert {getattr(params, name).dtype for name in (
        "noun_vecs", "word_vecs", "pred_vecs", "pred_bias")} == {
        np.dtype(dtype)}


class TestPretrainStep:
    def test_target_probability_increases(self, rng):
        params = rand_params(rng, dim=4, window=2, n_nouns=4, n_words=10)
        ctx = rand_ctx(rng, m_in=3, m_out=2, n_nouns=4, n_words=10)
        sampler = et.NoiseSampler(np.arange(1, 11))
        target = ctx.w_in[1]
        before = target_probability(
            et.build_feature_vector(ctx, 2, params), target, params)
        et.pretrain_step(ctx, 2, params, lr=0.1, k=3, sampler=sampler,
                         rng=np.random.default_rng(0))
        after = target_probability(
            et.build_feature_vector(ctx, 2, params), target, params)
        assert after > before

    def test_returns_pre_update_objective(self, rng):
        params = rand_params(rng, dim=3, window=1)
        params.pred_vecs[:] = 0.0
        params.pred_bias[:] = 0.0
        ctx = rand_ctx(rng, m_in=2, m_out=2)
        value = et.pretrain_step(ctx, 1, params, lr=0.5, k=4,
                                 sampler=et.NoiseSampler(np.arange(1, 13)),
                                 rng=np.random.default_rng(1))
        assert value == pytest.approx(5 * math.log(0.5))

    def test_step_moves_each_row_by_lr_times_checked_gradient(self):
        # a 6-word inventory and n1 == n2 force repeated noise draws and
        # shared rows, so the summed rows are exercised too
        rng = np.random.default_rng(8)
        params = rand_params(rng, dim=3, window=2, n_nouns=3, n_words=6)
        ctx = cp.NounPairContext(2, 2, w_in=(3, 4, 3), w_bef=(5, 3),
                                 w_aft=(4, 0))
        sampler = et.NoiseSampler(np.arange(1, 7))
        i, lr, k = 2, 0.3, 8
        noise = sampler.sample(k, np.random.default_rng(4),
                               exclude=ctx.w_in[i - 1])
        assert len(set(noise.tolist())) < k
        _, grads = et.pretrain_objective_and_grad(ctx, i, params, noise)
        before = params.copy()
        et.pretrain_step(ctx, i, params, lr, k, sampler,
                         np.random.default_rng(4))
        assert grads.keys() == {"noun_vecs", "word_vecs", "pred_vecs",
                                "pred_bias"}
        for name, (ids, rows) in grads.items():
            expected = getattr(before, name).copy()
            expected[ids] += lr * rows
            assert getattr(params, name).tobytes() == expected.tobytes(), name


@functools.cache
def _pattern_setup():
    """The vocabulary and the contexts (m_out 2, a tuple, so that no test
    changes them for the others) of one synthetic corpus, built once."""
    with tempfile.TemporaryDirectory() as root:
        corpus = CorpusFiles(Path(root)).reader(
            make_single_pattern_corpus(n_sentences=2500, seed=3))
        vocab = cp.build_vocabulary(corpus, 100, 100)
        contexts = tuple(
            ctx for block in corpus.blocks()
            for ctx in cp.extract_noun_pair_contexts(block, vocab, 2))
    return vocab, contexts


class TestTrainEmbeddings:
    """Runs on the compiled steps; TestTrainEmbeddingsNumpy repeats every
    case on the numpy steps."""

    @pytest.fixture(autouse=True)
    def backend(self):
        if kernels.load() is None:
            pytest.skip("no C compiler found; training takes the numpy steps")

    def test_empty_stream_rejected(self):
        vocab = make_vocab({"a": 3}, {"a": 3})
        with pytest.raises(ValueError):
            et.train_embeddings(pack([]), vocab,
                                et.PretrainConfig(dim=2, window=1))

    def test_single_thread_seeded_bit_reproducible(self):
        vocab, contexts = _pattern_setup()
        cfg = et.PretrainConfig(dim=8, window=2, negatives=5, alpha=0.05,
                                subsample=1.0, epochs=1, seed=11,
                                report_every=2000)
        p1, _ = et.train_embeddings(pack(contexts[:400]), vocab, cfg)
        p2, _ = et.train_embeddings(pack(contexts[:400]), vocab, cfg)
        assert p1.noun_vecs.tobytes() == p2.noun_vecs.tobytes()
        assert p1.word_vecs.tobytes() == p2.word_vecs.tobytes()
        assert p1.pred_vecs.tobytes() == p2.pred_vecs.tobytes()
        assert p1.pred_bias.tobytes() == p2.pred_bias.tobytes()

    def test_planted_word_dominates_and_objective_improves(self):
        vocab, contexts = _pattern_setup()
        n_targets = sum(c.m_in for c in contexts)
        cfg = et.PretrainConfig(dim=16, window=2, negatives=5, alpha=0.08,
                                subsample=1.0, epochs=3, seed=1,
                                report_every=max(200, (3 * n_targets) // 25))
        params, log = et.train_embeddings(pack(contexts), vocab, cfg)
        params.check_finite()

        # last-decile windowed objective beats the first decile
        means = [m for _, m in log.windows]
        tenth = max(1, len(means) // 10)
        assert np.mean(means[-tenth:]) > np.mean(means[:tenth])

        # held-out (alpha, beta) contexts: 'caused' beats every other word
        caused = vocab.word_ids(["caused"])[0]
        n1, n2 = vocab.noun_ids(["alpha"])[0], vocab.noun_ids(["beta"])[0]
        rng = np.random.default_rng(5)
        others = [w for w in range(2, vocab.n_words) if w != caused]
        wins = 0
        trials = 100
        for _ in range(trials):
            bef = tuple(int(x) for x in rng.integers(2, vocab.n_words, 2))
            aft = tuple(int(x) for x in rng.integers(2, vocab.n_words, 2))
            ctx = cp.NounPairContext(n1, n2, (caused,), bef, aft)
            f = et.build_feature_vector(ctx, 1, params)
            p_target = target_probability(f, caused, params)
            if all(p_target > target_probability(f, w, params)
                   for w in others):
                wins += 1
        assert wins >= 0.99 * trials

    def test_learning_rate_schedule_counts_discarded_targets(self):
        # with an aggressive threshold everything is discarded, but the
        # schedule still advances over all planned targets
        vocab, contexts = _pattern_setup()
        cfg = et.PretrainConfig(dim=4, window=1, negatives=2, alpha=0.05,
                                subsample=1e-12, epochs=2, seed=1,
                                report_every=10_000)
        params, log = et.train_embeddings(pack(contexts[:200]), vocab, cfg)
        assert log.targets_seen == 2 * sum(c.m_in for c in contexts[:200])
        assert log.steps_taken == 0

    def test_warns_once_when_subsampling_discards_nearly_everything(
            self, caplog):
        # at the default threshold every pair of this 10-noun corpus is
        # kept with probability below 0.001; at t=1 none is discarded
        vocab, contexts = _pattern_setup()
        for t, warns in ((1e-5, True), (1.0, False)):
            cfg = et.PretrainConfig(dim=4, window=1, negatives=2,
                                    subsample=t, epochs=1, seed=1)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="relemb"):
                _, log = et.train_embeddings(pack(contexts[:1000]), vocab,
                                             cfg)
            messages = [r.getMessage() for r in caplog.records]
            if warns:
                assert log.pairs_discarded > 990
                assert messages == [
                    f"pretrain: subsampling at t={t:g} discarded "
                    f"{log.pairs_discarded} of 1000 pairs and "
                    f"{log.targets_seen - log.steps_taken} of "
                    f"{log.targets_seen} targets"]
            else:
                assert log.pairs_discarded == 0 and messages == []

    def test_batch_cap_does_not_change_the_run(self, monkeypatch):
        vocab, contexts = _pattern_setup()
        cfg = et.PretrainConfig(dim=6, window=2, negatives=4, alpha=0.05,
                                subsample=1e-3, epochs=2, seed=3,
                                report_every=500)
        p1, log1 = et.train_embeddings(pack(contexts[:300]), vocab, cfg)
        monkeypatch.setattr(et, "_BATCH_STEPS", 7)
        p2, log2 = et.train_embeddings(pack(contexts[:300]), vocab, cfg)
        assert log1 == log2
        assert 0 < log1.targets_discarded < log1.targets_seen
        for name in ("noun_vecs", "word_vecs", "pred_vecs", "pred_bias"):
            assert getattr(p1, name).tobytes() == getattr(p2, name).tobytes()

    @pytest.mark.parametrize("where,bad", [("w_in", 9999), ("w_aft", -1),
                                           ("n2", 9999), ("n1", -1)])
    def test_out_of_range_id_rejected_before_training(self, where, bad):
        vocab, contexts = _pattern_setup()
        contexts = list(contexts[:50])
        old = getattr(contexts[30], where)
        new = bad if where in ("n1", "n2") else old[:-1] + (bad,)
        contexts[30] = dataclasses.replace(contexts[30], **{where: new})
        cfg = et.PretrainConfig(dim=4, window=1, negatives=2, subsample=1.0)
        with pytest.raises(ValueError, match=f"context 30: .* id {bad} "):
            et.train_embeddings(pack(contexts), vocab, cfg)

    def test_zero_width_and_empty_span_rejected(self):
        # arrays accept what a context file does: outside windows at least
        # 1 wide and words between every pair
        vocab, contexts = _pattern_setup()
        cfg = et.PretrainConfig(dim=4, window=1, negatives=2, subsample=1.0)
        narrow = [dataclasses.replace(ctx, w_bef=(), w_aft=())
                  for ctx in contexts[:9]]
        with pytest.raises(ValueError, match="outside windows of 1 or more"):
            et.train_embeddings(pack(narrow, 0), vocab, cfg)
        empty = dataclasses.replace(contexts[3], w_in=())
        with pytest.raises(ValueError,
                           match="context 3: no words between the pair"):
            et.train_embeddings(pack([*contexts[:3], empty, *contexts[4:9]]),
                                vocab, cfg)


class TestContextFileInput:
    """train_embeddings over a context file: one read, the checks of
    arrays, faults named by the file and the context."""

    _CFG = et.PretrainConfig(dim=4, window=1, negatives=2, subsample=1.0)

    def _file(self, tmp_path, contexts, bad=None):
        """A context file of `contexts`, with context ``r`` replaced by
        ``(n1, n2, w_in)`` and NULL outside windows for each item of
        `bad`."""
        contexts = list(contexts)
        for row, (n1, n2, w_in) in (bad or {}).items():
            contexts[row] = cp.NounPairContext(n1, n2, w_in, (0, 0), (0, 0))
        path = tmp_path / "ctx.txt"
        cp.write_contexts(cp.ContextArrays.pack(contexts, 2), 2, path)
        return path

    def test_two_epochs_parse_the_file_once(self, tmp_path, monkeypatch):
        vocab, contexts = _pattern_setup()
        path = self._file(tmp_path, contexts[:300])
        calls = []
        read = cp.read_blob_file
        monkeypatch.setattr(cp, "read_blob_file",
                            lambda *a: calls.append(a) or read(*a))
        cfg = et.PretrainConfig(dim=6, window=2, negatives=4, alpha=0.05,
                                subsample=1e-3, epochs=2, seed=3,
                                report_every=500)
        p1, log1 = et.train_embeddings(cp.ContextFile(path).arrays, vocab,
                                       cfg)
        assert len(calls) == 1
        p2, log2 = et.train_embeddings(pack(contexts[:300]), vocab, cfg)
        assert log1 == log2 and log1.steps_taken > 0
        for name in ("noun_vecs", "word_vecs", "pred_vecs", "pred_bias"):
            assert getattr(p1, name).tobytes() == getattr(p2, name).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(row=st.integers(0, 29), slot=st.integers(0, 7),
           excess=st.integers(0, 2 ** 30))
    def test_out_of_range_id_names_path_and_line(self, tmp_path_factory, row,
                                                 slot, excess):
        vocab, contexts = _pattern_setup()
        ctx = contexts[row]
        ids = [ctx.n1, ctx.n2, *ctx.w_in, *ctx.w_bef, *ctx.w_aft]
        slot %= len(ids)
        what, bound = (("noun", vocab.n_nouns) if slot < 2
                       else ("word", vocab.n_words))
        ids[slot] = bound + excess
        bad = cp.NounPairContext(ids[0], ids[1], tuple(ids[2:-4]),
                                 tuple(ids[-4:-2]), tuple(ids[-2:]))
        path = self._file(tmp_path_factory.mktemp("ctx"),
                          [*contexts[:row], bad, *contexts[row + 1:30]])
        with pytest.raises(cp.ArtifactError) as err:
            et.train_embeddings(cp.ContextFile(path).arrays, vocab,
                                self._CFG)
        assert str(err.value) == (f"{path}: context {row}: {what} id "
                                  f"{bound + excess} outside [0, {bound})")

    @pytest.mark.parametrize("range_row,format_row,row", [
        (3, 7, 3), (7, 3, 3)], ids=["range_first", "format_first"])
    def test_first_faulty_line_is_named(self, tmp_path, range_row, format_row,
                                        row):
        """A range fault and a context with no words between its pair: the
        earlier context is named, as a context-by-context reader would."""
        vocab, contexts = _pattern_setup()
        path = self._file(tmp_path, contexts[:10], {
            range_row: (1, 2, (9999,)), format_row: (1, 2, ())})
        with pytest.raises(cp.ArtifactError, match=f"{path}: context {row}: "):
            et.train_embeddings(cp.ContextFile(path).arrays, vocab,
                                self._CFG)


class TestTrainEmbeddingsNumpy(TestTrainEmbeddings):
    """Every TestTrainEmbeddings case on the numpy steps."""

    @pytest.fixture(autouse=True)
    def backend(self, monkeypatch):
        monkeypatch.setattr(kernels, "load", lambda: None)


def test_kernel_and_numpy_runs_agree(monkeypatch):
    if kernels.load() is None:
        pytest.skip("no C compiler found; training takes the numpy steps")
    vocab, contexts = _pattern_setup()
    cfg = et.PretrainConfig(dim=8, window=3, negatives=6, alpha=0.05,
                            subsample=1e-3, epochs=1, seed=4,
                            report_every=300)
    p1, log1 = et.train_embeddings(pack(contexts[:400]), vocab, cfg)
    monkeypatch.setattr(kernels, "load", lambda: None)
    p2, log2 = et.train_embeddings(pack(contexts[:400]), vocab, cfg)
    assert (log1.targets_seen, log1.steps_taken, log1.pairs_discarded,
            log1.targets_discarded) == (
        log2.targets_seen, log2.steps_taken, log2.pairs_discarded,
        log2.targets_discarded)
    assert [n for n, _ in log1.windows] == [n for n, _ in log2.windows]
    np.testing.assert_allclose([m for _, m in log1.windows],
                               [m for _, m in log2.windows], rtol=1e-9)
    for name in ("noun_vecs", "word_vecs", "pred_vecs", "pred_bias"):
        want = getattr(p2, name)
        np.testing.assert_allclose(getattr(p1, name), want, rtol=1e-9,
                                   atol=1e-9 * np.abs(want).max())


class TestModelIO:
    def test_round_trip(self, tmp_path, rng):
        params = rand_params(rng, dim=5, window=2, n_nouns=4, n_words=9)
        path = tmp_path / "model.bin"
        et.save_model(params, path)
        loaded = et.load_model(path)
        assert loaded.dim == 5 and loaded.window == 2
        # float64 parameters are stored as their float32 roundings
        for name in ("noun_vecs", "word_vecs", "pred_vecs", "pred_bias"):
            assert getattr(loaded, name).dtype == np.float32, name
            np.testing.assert_array_equal(
                getattr(loaded, name),
                getattr(params, name).astype(np.float32), err_msg=name)

    def test_round_trip_with_reduced_pred_dim(self, tmp_path, rng):
        params = rand_params(rng, dim=5, window=2, n_nouns=4, n_words=9,
                             pred_dim=5)
        path = tmp_path / "model.bin"
        et.save_model(params, path)
        loaded = et.load_model(path)
        assert loaded.pred_dim == 5
        np.testing.assert_array_equal(loaded.pred_vecs,
                                      params.pred_vecs.astype(np.float32))

    def test_initial_params_statistics(self):
        rng = np.random.default_rng(0)
        params = et.initial_params(200, 300, dim=50, window=2, rng=rng)
        assert params.pred_vecs.shape == (300, 2 * 50 * 4)
        assert np.all(params.pred_vecs == 0) and np.all(params.pred_bias == 0)
        # variance 1/d
        assert params.word_vecs.var() == pytest.approx(1 / 50, rel=0.1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            et.PretrainConfig(epochs=0).validate()
        with pytest.raises(ValueError):
            et.PretrainConfig(dim=0).validate()
        with pytest.raises(ValueError):
            et.PretrainConfig(alpha=0.0).validate()
        with pytest.raises(ValueError):
            et.PretrainConfig(subsample=0.0).validate()
