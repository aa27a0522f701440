import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relemb import classifier as cl
from relemb import kernels
from relemb.corpus import ALL_LABELS, ConfigError, NounPairContext
from relemb.features import FeatureOptions, assemble_features, feature_dim
from conftest import check_row_grads, labelled, pack, rand_params, rand_ctx


class TestSoftmaxForward:
    def test_zero_params_uniform(self, rng):
        e = rng.normal(size=10)
        p = cl.softmax_forward(e, np.zeros((19, 10)), np.zeros(19))
        np.testing.assert_allclose(p, np.full(19, 1 / 19))

    def test_sums_to_one(self, rng):
        for _ in range(20):
            e = rng.normal(size=8) * 10
            W = rng.normal(size=(19, 8)) * 5
            b = rng.normal(size=19)
            assert abs(cl.softmax_forward(e, W, b).sum() - 1.0) < 1e-12

    def test_two_class_closed_form(self):
        # o = (ln 3, 0) -> probabilities (0.75, 0.25)
        p = cl.softmax_forward(np.zeros(4), np.zeros((2, 4)),
                               np.array([math.log(3), 0.0]))
        np.testing.assert_allclose(p, [0.75, 0.25], atol=1e-12)

    def test_stable_for_large_scores(self):
        p = cl.softmax_forward(np.array([1000.0]), np.array([[1.0], [2.0]]),
                               np.zeros(2))
        assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12


def _instances(rng, n, params, n_labels=4):
    contexts, labels = [], []
    for k in range(n):
        contexts.append(rand_ctx(rng, m_in=int(rng.integers(0, 4)), m_out=2,
                                 n_nouns=params.n_nouns,
                                 n_words=params.n_words))
        labels.append(ALL_LABELS[int(rng.integers(0, n_labels))])
    return labelled(contexts, labels)


def _pairs(data):
    """Each instance of `data` as ``(context, label index)``."""
    return list(zip(data.contexts, data.labels.tolist()))


class TestSupervisedObjective:
    def test_zero_params_uniform_loglik(self, rng):
        params = rand_params(rng, dim=3, window=1)
        params.noun_vecs[:] = 0
        params.word_vecs[:] = 0
        params.pred_vecs[:] = 0
        ((ctx, label),) = _pairs(_instances(rng, 1, params))
        softmax = cl.SoftmaxParams.zeros(19, feature_dim(params))
        value, loglik, _, _ = cl.supervised_objective_and_grad(
            ctx, label, params, softmax, l2=0.0, fine_tune=False)
        assert value == pytest.approx(-math.log(19))
        assert loglik == value

    @pytest.mark.parametrize("l2,dropout", [(0.0, False), (0.05, False),
                                            (0.05, True)])
    def test_gradients_match_finite_differences(self, l2, dropout):
        rng = np.random.default_rng(99)
        params = rand_params(rng, dim=4, window=1, n_nouns=4, n_words=9)
        softmax = cl.SoftmaxParams(
            rng.normal(0, 0.3, (19, feature_dim(params))),
            rng.normal(0, 0.3, 19))
        for ctx, label in _pairs(_instances(rng, 2, params)):
            mask = None
            if dropout:
                mask = (rng.random(feature_dim(params)) < 0.5).astype(float)

            def value():
                return cl.supervised_objective_and_grad(
                    ctx, label, params, softmax, l2, mask, fine_tune=True)[0]

            _, _, (g_W, g_b), row_grads = cl.supervised_objective_and_grad(
                ctx, label, params, softmax, l2, mask, fine_tune=True)
            check_row_grads(value, params, row_grads)
            rows = np.arange(19)
            check_row_grads(value, softmax,
                            {"weights": (rows, g_W), "bias": (rows, g_b)})

    def test_l2_term_is_linear_in_params(self, rng):
        params = rand_params(rng, dim=3, window=1)
        softmax = cl.SoftmaxParams(rng.normal(size=(19, feature_dim(params))),
                                   rng.normal(size=19))
        lam = 0.3
        for ctx, label in _pairs(_instances(rng, 2, params)):
            _, _, (gw0, gb0), _ = cl.supervised_objective_and_grad(
                ctx, label, params, softmax, 0.0, fine_tune=False)
            _, _, (gw1, gb1), _ = cl.supervised_objective_and_grad(
                ctx, label, params, softmax, lam, fine_tune=False)
            np.testing.assert_allclose(gw1 - gw0, -lam * softmax.weights)
            np.testing.assert_allclose(gb1 - gb0, -lam * softmax.bias)


class TestDropout:
    def test_inverted_dropout_expectation(self, rng):
        e = rng.normal(size=12) + 0.5
        n = 100_000
        acc = np.zeros_like(e)
        for _ in range(n):
            acc += e * cl.apply_dropout(e, rng) * 2.0
        mean = acc / n
        se = np.abs(e) / math.sqrt(n)
        assert np.all(np.abs(mean - e) <= 3 * se + 1e-12)

    def test_masked_values_are_zero_or_doubled(self, rng):
        e = rng.normal(size=50) + 1.0
        mask = cl.apply_dropout(e, rng)
        masked = e * mask * 2.0
        assert set(np.unique(mask)) <= {0.0, 1.0}
        zero = mask == 0
        assert np.all(masked[zero] == 0)
        np.testing.assert_allclose(masked[~zero], 2 * e[~zero])

    def test_extreme_masks(self, rng):
        e = rng.normal(size=6)
        np.testing.assert_allclose(e * np.ones(6) * 2.0, 2 * e)
        np.testing.assert_allclose(e * np.zeros(6) * 2.0, np.zeros(6))


class TestAdagrad:
    def test_first_step_is_signed_eta(self):
        param = np.zeros(4)
        grad = np.array([0.5, -2.0, 1e-3, 0.0])
        accum = np.zeros(4)
        cl.adagrad_update(param, grad, accum, eta=0.1)
        expected = 0.1 * grad / (np.abs(grad) + cl.ADAGRAD_EPS)
        np.testing.assert_allclose(param, expected)
        assert abs(param[0] - 0.1) < 1e-4
        assert abs(param[1] + 0.1) < 1e-6

    def test_step_magnitude_strictly_decreasing(self):
        param = np.zeros(1)
        accum = np.zeros(1)
        grad = np.array([0.7])
        steps = []
        prev = 0.0
        for _ in range(5):
            before = param[0]
            cl.adagrad_update(param, grad, accum, eta=0.1)
            steps.append(param[0] - before)
        assert all(a > b > 0 for a, b in zip(steps, steps[1:]))

    def test_zero_gradient_no_change(self):
        param = np.array([1.0, -2.0])
        accum = np.array([0.5, 0.5])
        cl.adagrad_update(param, np.zeros(2), accum, eta=0.1)
        np.testing.assert_array_equal(param, [1.0, -2.0])

    def test_accumulator_non_decreasing(self, rng):
        param = np.zeros(3)
        accum = np.zeros(3)
        prev = accum.copy()
        for _ in range(10):
            cl.adagrad_update(param, rng.normal(size=3), accum, eta=0.1)
            assert np.all(accum >= prev)
            prev = accum.copy()

    def test_pure_decay_shrinks_norm(self):
        param = np.array([3.0, -4.0])
        accum = np.zeros(2)
        lam = 0.1
        before = np.linalg.norm(param)
        cl.adagrad_update(param, -lam * param, accum, eta=0.05)
        assert np.linalg.norm(param) < before


def _separable_setup(rng, n=48):
    """Labels determined by the first noun id: separable on noun features."""
    params = rand_params(rng, dim=6, window=1, n_nouns=5, n_words=10)
    contexts, labels = [], []
    for k in range(n):
        n1 = int(rng.integers(1, 5))
        contexts.append(NounPairContext(n1, int(rng.integers(1, 5)),
                                        w_in=(int(rng.integers(2, 10)),),
                                        w_bef=(3,), w_aft=(4,)))
        labels.append(ALL_LABELS[n1 - 1])
    return params, labelled(contexts, labels, ids=range(n))


@pytest.fixture
def numpy_backend(monkeypatch):
    """Train through the numpy steps, whose arithmetic a test replays
    exactly."""
    monkeypatch.setattr(kernels, "load", lambda: None)


class TestTrainClassifier:
    """Runs on the compiled epoch; TestTrainClassifierNumpy repeats every
    case on the numpy steps."""

    @pytest.fixture(autouse=True)
    def backend(self):
        if kernels.load() is None:
            pytest.skip("no C compiler found; training takes the numpy steps")

    def test_separable_reaches_full_training_accuracy(self, rng):
        params, instances = _separable_setup(rng)
        config = cl.SupervisedConfig(eta=0.2, l2=0.0, epochs=50, dropout=False,
                                     fine_tune=False, seed=4)
        opts = FeatureOptions(True, False, False)
        softmax, tuned, _ = cl.train_classifier(instances, params, config, opts)
        pred = cl.predict_many(instances.contexts, softmax, tuned, opts)
        acc = np.mean([p == g for p, g in zip(pred, instances.gold())])
        assert acc == 1.0

    def test_seeded_reproducibility(self, rng):
        params, instances = _separable_setup(rng)
        config = cl.SupervisedConfig(eta=0.1, l2=1e-4, epochs=5, dropout=True,
                                     fine_tune=True, seed=9)
        s1, p1, _ = cl.train_classifier(instances, params, config)
        s2, p2, _ = cl.train_classifier(instances, params, config)
        assert s1.weights.tobytes() == s2.weights.tobytes()
        assert s1.bias.tobytes() == s2.bias.tobytes()
        assert p1.word_vecs.tobytes() == p2.word_vecs.tobytes()
        assert p1.pred_vecs.tobytes() == p2.pred_vecs.tobytes()

    def test_fine_tune_off_leaves_embeddings_bit_identical(self, rng):
        params, instances = _separable_setup(rng)
        before = {name: getattr(params, name).tobytes()
                  for name in ("noun_vecs", "word_vecs", "pred_vecs", "pred_bias")}
        config = cl.SupervisedConfig(eta=0.1, epochs=3, dropout=True,
                                     fine_tune=False, seed=1)
        _, tuned, _ = cl.train_classifier(instances, params, config)
        for name, blob in before.items():
            assert getattr(params, name).tobytes() == blob
            assert getattr(tuned, name).tobytes() == blob

    def test_fine_tune_on_changes_embeddings_but_not_input(self, rng):
        params, instances = _separable_setup(rng)
        before = params.noun_vecs.tobytes()
        config = cl.SupervisedConfig(eta=0.1, epochs=3, dropout=False,
                                     fine_tune=True, seed=1)
        _, tuned, _ = cl.train_classifier(instances, params, config)
        assert params.noun_vecs.tobytes() == before      # caller copy untouched
        assert tuned.noun_vecs.tobytes() != before

    def test_objective_improves_with_and_without_dropout(self, rng):
        params, instances = _separable_setup(rng)
        for dropout in (False, True):
            config = cl.SupervisedConfig(eta=0.2, l2=0.0, epochs=25,
                                         dropout=dropout, fine_tune=False, seed=2)
            _, _, log = cl.train_classifier(
                instances, params, config, FeatureOptions(True, False, False))
            assert log.epoch_objective[-1] > log.epoch_objective[0]

    def test_larger_l2_yields_smaller_norms(self, rng):
        params, instances = _separable_setup(rng)
        norms = []
        for lam in (1e-3, 1e-2):
            config = cl.SupervisedConfig(eta=0.2, l2=lam, epochs=30,
                                         dropout=False, fine_tune=False, seed=3)
            softmax, _, _ = cl.train_classifier(
                instances, params, config, FeatureOptions(True, False, False))
            norms.append(np.linalg.norm(softmax.weights))
        assert norms[1] < norms[0]

    @pytest.mark.parametrize("fine_tune", [False, True])
    def test_one_epoch_is_one_adagrad_step_on_checked_gradient(
            self, rng, fine_tune, numpy_backend):
        params = rand_params(rng, dim=3, window=1, n_nouns=4, n_words=9)
        ctx = NounPairContext(2, 2, w_in=(5, 6, 5), w_bef=(3, 5), w_aft=(6, 0))
        opts = FeatureOptions()
        config = cl.SupervisedConfig(eta=0.1, l2=0.01, epochs=1, dropout=True,
                                     fine_tune=fine_tune, seed=5)
        before = params.copy()
        softmax, tuned, log = cl.train_classifier(
            labelled([ctx], [ALL_LABELS[3]]), params, config, opts)

        # replay the trainer's draws: the epoch's permutation, then the mask
        replay = np.random.default_rng(config.seed)
        replay.permutation(1)
        dim = feature_dim(params, opts)
        mask = cl.apply_dropout(np.ones(dim), replay)
        start = cl.SoftmaxParams.zeros(len(ALL_LABELS), dim)
        _, loglik, (g_W, g_b), row_grads = cl.supervised_objective_and_grad(
            ctx, 3, before, start, config.l2, mask, opts, fine_tune)
        assert (len(row_grads) > 0) == fine_tune

        expected = start.copy()
        cl.adagrad_update(expected.weights, g_W, np.zeros_like(g_W), config.eta)
        cl.adagrad_update(expected.bias, g_b, np.zeros_like(g_b), config.eta)
        for name, (ids, rows) in row_grads.items():
            block = getattr(before, name)
            for idx, g in zip(ids, rows):
                cl.adagrad_update(block[idx], g, np.zeros_like(g), config.eta)
        assert softmax.weights.tobytes() == expected.weights.tobytes()
        assert softmax.bias.tobytes() == expected.bias.tobytes()
        for name in ("noun_vecs", "word_vecs", "pred_vecs", "pred_bias"):
            assert getattr(tuned, name).tobytes() == \
                getattr(before, name).tobytes(), name
        assert log.epoch_objective == [loglik]

    def test_empty_and_config_validation(self, rng):
        params, instances = _separable_setup(rng)
        with pytest.raises(ValueError):
            cl.train_classifier(labelled([], []), params,
                                cl.SupervisedConfig())
        with pytest.raises(ValueError):
            cl.SupervisedConfig(epochs=0).validate()
        with pytest.raises(ValueError):
            cl.SupervisedConfig(eta=0.0).validate()

    @pytest.mark.parametrize("fine_tune", [False, True])
    def test_non_finite_result_raises(self, rng, fine_tune):
        params, instances = _separable_setup(rng)
        params.noun_vecs[instances.contexts.n1[0], 0] = 1e308
        config = cl.SupervisedConfig(eta=0.1, epochs=2, dropout=True,
                                     fine_tune=fine_tune, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError,
                               match="non-finite entries in weights"):
                cl.train_classifier(instances, params, config)

    @pytest.mark.parametrize("where,bad", [("w_in", 9999), ("w_aft", -1),
                                           ("n2", 9999), ("n1", -1)])
    def test_out_of_range_id_rejected_before_training(self, rng, where, bad):
        params, instances = _separable_setup(rng)
        contexts = list(instances.contexts)
        ctx = contexts[7]
        new = bad if where in ("n1", "n2") else getattr(ctx, where)[:-1] + (bad,)
        contexts[7] = dataclasses.replace(ctx, **{where: new})
        instances = labelled(contexts, instances.gold(), instances.ids)
        before = params.copy()
        config = cl.SupervisedConfig(epochs=1, fine_tune=True)
        with pytest.raises(ValueError, match=f" id {bad} outside"):
            cl.train_classifier(instances, params, config)
        assert params.word_vecs.tobytes() == before.word_vecs.tobytes()


class TestTrainClassifierNumpy(TestTrainClassifier):
    """Every TestTrainClassifier case on the numpy steps."""

    @pytest.fixture(autouse=True)
    def backend(self, monkeypatch):
        monkeypatch.setattr(kernels, "load", lambda: None)


def _epoch_setup(rng, n=14, m_out=3):
    """Short contexts over 3 nouns and 7 words: repeated rows within a
    table, n1 == n2 and NULL neighbour slots all occur."""
    params = rand_params(rng, dim=3, window=2, n_nouns=3, n_words=7)
    contexts, labels = [], []
    for k in range(n):
        ctx = rand_ctx(rng, int(rng.integers(0, 5)), m_out, 3, 7)
        if k % 4 == 0:
            ctx = dataclasses.replace(ctx, n2=ctx.n1)
        contexts.append(ctx)
        labels.append(ALL_LABELS[int(rng.integers(0, len(ALL_LABELS)))])
    return params, labelled(contexts, labels, ids=range(n))


_OPTIONS = {
    "default": FeatureOptions(),
    "bow_between": FeatureOptions(bow_between=True),
    "nouns": FeatureOptions(True, False, False),
    "between": FeatureOptions(False, True, False),
    "outside": FeatureOptions(False, False, True),
    "m_out": FeatureOptions(m_out=2),
}


@pytest.mark.parametrize("options", list(_OPTIONS))
@pytest.mark.parametrize("l2", [0.0, 0.01])
@pytest.mark.parametrize("dropout", [False, True])
@pytest.mark.parametrize("fine_tune", [False, True])
def test_kernel_matches_numpy_epochs(monkeypatch, fine_tune, dropout, l2,
                                     options):
    compiled = kernels.load()
    if compiled is None:
        pytest.skip("no C compiler found; training takes the numpy steps")
    rng = np.random.default_rng(7)
    params, instances = _epoch_setup(rng)
    contexts = list(instances.contexts)
    assert any(ctx.n1 == ctx.n2 for ctx in contexts)
    assert any(len(set(ctx.w_in + ctx.w_bef + ctx.w_aft))
               < len(ctx.w_in + ctx.w_bef + ctx.w_aft) for ctx in contexts)
    # every span's edge positions have NULL neighbour slots
    assert any(ctx.m_in for ctx in contexts)
    assert any(not ctx.m_in for ctx in contexts)
    opts = _OPTIONS[options]
    config = cl.SupervisedConfig(eta=0.1, l2=l2, epochs=4, dropout=dropout,
                                 fine_tune=fine_tune, seed=3)
    got_softmax, got, got_log = cl.train_classifier(instances, params, config,
                                                    opts)
    monkeypatch.setattr(kernels, "load", lambda: None)
    want_softmax, want, want_log = cl.train_classifier(instances, params,
                                                       config, opts)
    np.testing.assert_allclose(got_log.epoch_objective,
                               want_log.epoch_objective, rtol=1e-9)
    pairs = [(getattr(got_softmax, name), getattr(want_softmax, name), name)
             for name in ("weights", "bias")]
    pairs += [(getattr(got, name), getattr(want, name), name)
              for name in ("noun_vecs", "word_vecs", "pred_vecs", "pred_bias")]
    for actual, desired, name in pairs:
        np.testing.assert_allclose(actual, desired, rtol=1e-9,
                                   atol=1e-9 * np.abs(desired).max(),
                                   err_msg=name)
    tuned = [name for name in ("noun_vecs", "word_vecs", "pred_vecs")
             if getattr(got, name).tobytes() != getattr(params, name).tobytes()]
    assert bool(tuned) == fine_tune


def _predict_one(ctx, softmax, params):
    return cl.predict_many(pack([ctx]), softmax, params)[0]


class TestPredict:
    def test_zero_model_ties_break_to_first_class(self, rng):
        params = rand_params(rng, dim=3, window=1)
        softmax = cl.SoftmaxParams.zeros(19, feature_dim(params))
        label = _predict_one(rand_ctx(rng, 2, 2), softmax, params)
        assert label == ALL_LABELS[0]

    def test_shift_invariance(self, rng):
        params = rand_params(rng, dim=3, window=1)
        softmax = cl.SoftmaxParams(rng.normal(size=(19, feature_dim(params))),
                                   rng.normal(size=19))
        ctx = rand_ctx(rng, 2, 2)
        before = _predict_one(ctx, softmax, params)
        softmax.bias += 123.45
        assert _predict_one(ctx, softmax, params) == before

    def test_hand_built_two_class_decision(self, rng):
        params = rand_params(rng, dim=2, window=1)
        ctx = rand_ctx(rng, 2, 2)
        e = assemble_features(ctx, params)
        softmax = cl.SoftmaxParams.zeros(19, len(e))
        softmax.weights[5] = e / (e @ e)      # o[5] = 1 for this instance
        assert _predict_one(ctx, softmax, params) == ALL_LABELS[5]

    def test_prediction_deterministic(self, rng):
        params = rand_params(rng, dim=3, window=1)
        softmax = cl.SoftmaxParams(rng.normal(size=(19, feature_dim(params))),
                                   rng.normal(size=19))
        ctx = rand_ctx(rng, 3, 2)
        assert (_predict_one(ctx, softmax, params)
                == _predict_one(ctx, softmax, params))


# Every FeatureOptions variant: each block alone and together, the
# bag-of-words between block, and outside windows trimmed.
_PREDICT_OPTIONS = [
    FeatureOptions(), FeatureOptions(bow_between=True),
    FeatureOptions(True, False, False), FeatureOptions(False, True, False),
    FeatureOptions(False, False, True), FeatureOptions(True, False, True),
    FeatureOptions(False, True, False, bow_between=True),
    FeatureOptions(m_out=1), FeatureOptions(m_out=2),
    FeatureOptions(False, False, True, m_out=1),
]


@st.composite
def _scored_contexts(draw):
    """Parameters, softmax weights and contexts over small inventories, so
    rows repeat and the UNK and NULL ids 0 and 1 occur; between spans of
    0-5 words and outside windows 2-4 wide (2 when trimmed), one width per
    example."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    opts = draw(st.sampled_from(_PREDICT_OPTIONS))
    params = rand_params(rng, dim=draw(st.integers(1, 3)),
                         window=draw(st.integers(1, 3)), n_nouns=3, n_words=6)
    width = 2 if opts.m_out else draw(st.integers(2, 4))
    contexts = pack([rand_ctx(rng, draw(st.integers(0, 5)), width, 3, 6)
                     for _ in range(draw(st.integers(0, 12)))], width)
    dim = feature_dim(params, opts)
    softmax = cl.SoftmaxParams(rng.normal(size=(19, dim)),
                               rng.normal(size=19))
    if draw(st.booleans()):
        softmax.weights[draw(st.integers(0, 18))] *= 0   # a bias-only class
    return params, softmax, contexts, opts


@settings(max_examples=300, deadline=None)
@given(case=_scored_contexts())
def test_predict_many_matches_per_instance_reference(case):
    """Scores from projected rows equal each instance's gather, scored; the
    labels equal the argmax of ``softmax_forward`` wherever its top two
    scores are more than 1e-9 apart."""
    params, softmax, contexts, opts = case
    got = cl._scores(contexts, softmax, params, opts)
    labels = cl.predict_many(contexts, softmax, params, opts)
    assert got.shape == (len(contexts), 19) and len(labels) == len(contexts)
    for ctx, scores, label in zip(contexts, got, labels):
        e = assemble_features(ctx, params, opts)
        want = softmax.weights @ e + softmax.bias
        np.testing.assert_allclose(scores, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())
        top = np.sort(want)
        if top[-1] - top[-2] > 1e-9:
            probs = cl.softmax_forward(e, softmax.weights, softmax.bias)
            assert label == ALL_LABELS[int(np.argmax(probs))]


@pytest.mark.parametrize("limit", [1, 3, 10_000])
def test_predict_many_matches_reference_in_chunks(monkeypatch, limit):
    """The reference test again with the scoring chunk patched: one entry,
    a few, and more than any case holds."""
    monkeypatch.setattr(cl, "_SCORE_CHUNK", limit)
    test_predict_many_matches_per_instance_reference()


@settings(max_examples=100, deadline=None)
@given(case=_scored_contexts(), limit=st.integers(1, 40))
def test_chunk_limit_leaves_every_score_bit_identical(case, limit):
    """Each instance sums the same values in the same order in any chunk."""
    params, softmax, contexts, opts = case
    whole = cl._scores(contexts, softmax, params, opts)
    with mock.patch.object(cl, "_SCORE_CHUNK", limit):
        chunked = cl._scores(contexts, softmax, params, opts)
    assert whole.tobytes() == chunked.tobytes()


def test_scoring_memory_does_not_grow_with_tokens_per_instance(rng):
    """Outside windows of 40 ids, not 1, raise predict_many's traced peak
    by less than one (labels x entries one window adds) float64 array."""
    params = rand_params(rng, dim=2, window=1, n_nouns=6, n_words=12)
    softmax = cl.SoftmaxParams(rng.normal(size=(19, feature_dim(params))),
                               rng.normal(size=19))
    n = 400
    cores = [(int(n1), int(n2), tuple(rng.integers(0, 12, 3).tolist()))
             for n1, n2 in rng.integers(0, 6, (n, 2))]
    peaks = []
    for width in (1, 40):
        contexts = pack([NounPairContext(
            n1, n2, w_in, tuple(rng.integers(0, 12, width).tolist()),
            tuple(rng.integers(0, 12, width).tolist()))
            for n1, n2, w_in in cores])
        tracemalloc.start()
        try:
            cl.predict_many(contexts, softmax, params)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 19 * n * (40 - 1) * 8


def test_predict_many_names_an_id_outside_its_block(rng):
    params = rand_params(rng, dim=2, window=1, n_nouns=3, n_words=6)
    softmax = cl.SoftmaxParams.zeros(19, feature_dim(params))
    ctx = NounPairContext(1, 2, (3, 6), (1,), (2,))
    with pytest.raises(ValueError, match="word_vecs id 6 outside"):
        cl.predict_many(pack([ctx]), softmax, params)


@pytest.mark.parametrize("fine_tune", [False, True])
def test_compiled_masks_leave_the_generator_as_numpy_s(monkeypatch,
                                                       fine_tune):
    """The compiled epoch draws each dropout mask from the generator; it
    ends where the numpy loop, which draws every epoch's masks at once,
    leaves it, and the two train alike."""
    if kernels.load() is None:
        pytest.skip("no C compiler found; training takes the numpy steps")
    params, instances = _epoch_setup(np.random.default_rng(11))
    config = cl.SupervisedConfig(epochs=3, dropout=True, fine_tune=fine_tune,
                                 seed=5)
    default_rng, generators = np.random.default_rng, []

    def tracked(seed):
        generators.append(default_rng(seed))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", tracked)
    runs = [cl.train_classifier(instances, params, config)]
    monkeypatch.setattr(kernels, "load", lambda: None)
    runs.append(cl.train_classifier(instances, params, config))
    got, want = (gen.bit_generator.state for gen in generators)
    assert got == want
    (got_softmax, got_params, _), (want_softmax, want_params, _) = runs
    for actual, desired in [(got_softmax.weights, want_softmax.weights),
                            (got_softmax.bias, want_softmax.bias),
                            (got_params.word_vecs, want_params.word_vecs)]:
        np.testing.assert_allclose(actual, desired, rtol=1e-9,
                                   atol=1e-9 * np.abs(desired).max())


class TestCrossValidation:
    def test_folds_partition(self):
        splits = cl.make_folds(8000, 10, seed=1)
        assert [len(s) for s in splits] == [800] * 10
        seen = np.concatenate(splits)
        assert len(seen) == 8000
        assert len(np.unique(seen)) == 8000

    def test_more_folds_than_instances_rejected(self):
        with pytest.raises(ConfigError, match="12 folds need at least 12"):
            cl.make_folds(8, 12, seed=1)
        assert [len(s) for s in cl.make_folds(8, 8, seed=1)] == [1] * 8

    def test_fold_split_depends_only_on_seed(self):
        a = cl.make_folds(100, 5, seed=3)
        b = cl.make_folds(100, 5, seed=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_single_setting_equals_direct_evaluation(self, rng):
        from relemb.evaluation import score_semeval
        params, instances = _separable_setup(rng, n=30)
        config = cl.SupervisedConfig(eta=0.2, l2=0.0, epochs=10, dropout=False,
                                     fine_tune=False, seed=5)
        opts = FeatureOptions(True, False, False)
        (result,) = cl.cross_validate(instances, params,
                                      [("only", config, opts)], folds=3, seed=8)
        name, mean, fold_scores = result
        manual = []
        contexts, gold = list(instances.contexts), instances.gold()
        for held in cl.make_folds(len(instances), 3, seed=8):
            held_set = set(int(i) for i in held)
            rest = [i for i in range(len(instances)) if i not in held_set]
            train = labelled([contexts[i] for i in rest],
                             [gold[i] for i in rest])
            test = [int(i) for i in held]
            softmax, tuned, _ = cl.train_classifier(train, params, config, opts)
            pred = cl.predict_many(pack([contexts[i] for i in test]), softmax,
                                   tuned, opts)
            manual.append(score_semeval([gold[i] for i in test],
                                        pred).macro_f1)
        assert fold_scores == manual
        assert mean == pytest.approx(np.mean(manual))


class TestClassifierIO:
    def test_round_trip(self, tmp_path, rng):
        softmax = cl.SoftmaxParams(rng.normal(size=(19, 40)), rng.normal(size=19))
        opts = FeatureOptions(True, True, False, bow_between=True, m_out=4)
        path = tmp_path / "clf.bin"
        cl.save_classifier(softmax, opts, path)
        loaded, loaded_opts = cl.load_classifier(path)
        np.testing.assert_array_equal(loaded.weights, softmax.weights)
        np.testing.assert_array_equal(loaded.bias, softmax.bias)
        assert loaded_opts == opts
