import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relemb import evaluation as ev
from relemb.classifier import SoftmaxParams
from relemb.corpus import FAMILIES, OTHER, NounPairContext, parse_label
from relemb.features import FeatureOptions, feature_dim, ngram_embedding
from conftest import pack, rand_params, rand_ctx


def family(label):
    """The family of label index `label`; Other is in none of FAMILIES."""
    return FAMILIES[label // 2] if label != OTHER else "Other"


def brute_force_scores(gold, pred):
    """Independent tally of the official protocol, kept deliberately plain."""
    f1s = []
    for fam in FAMILIES:
        tp = 0
        gold_n = 0
        pred_n = 0
        for g, p in zip(gold, pred):
            if family(g) == fam:
                gold_n += 1
            if family(p) == fam:
                pred_n += 1
            if family(g) == fam and g == p:
                tp += 1
        if gold_n == 0 and pred_n == 0:
            continue
        precision = tp / pred_n if pred_n else 0.0
        recall = tp / gold_n if gold_n else 0.0
        f1 = 2 * precision * recall / (precision + recall) \
            if precision + recall else 0.0
        f1s.append(f1)
    macro = 100.0 * sum(f1s) / len(f1s) if f1s else 0.0
    correct = sum(1 for g, p in zip(gold, pred) if g == p)
    accuracy = 100.0 * correct / len(gold) if len(gold) else 0.0
    return macro, accuracy


CE12 = parse_label("Cause-Effect(e1,e2)")
CE21 = parse_label("Cause-Effect(e2,e1)")
MT12 = parse_label("Message-Topic(e1,e2)")


class TestScoreSemeval:
    def test_perfect_predictions(self):
        gold = [CE12, CE21, MT12, OTHER] * 3
        report = ev.score_semeval(gold, list(gold))
        assert report.macro_f1 == 100.0
        assert report.accuracy == 100.0

    def test_all_other_predictions(self):
        gold = [CE12, CE21, MT12, OTHER]
        pred = [OTHER] * 4
        report = ev.score_semeval(gold, pred)
        assert report.macro_f1 == 0.0
        assert report.accuracy == 25.0

    def test_hand_computed_six_instance_case(self):
        # 1: CE12 right, 2: CE12 as CE21 (direction error), 3: CE21 right,
        # 4: MT12 missed as Other, 5: Other predicted MT12, 6: Other right.
        gold = [CE12, CE12, CE21, MT12, OTHER, OTHER]
        pred = [CE12, CE21, CE21, OTHER, MT12, OTHER]
        report = ev.score_semeval(gold, pred)
        ce = report.per_family["Cause-Effect"]
        assert ce["tp"] == 2 and ce["gold"] == 3 and ce["pred"] == 3
        assert ce["f1"] == pytest.approx(100 * 2 / 3)
        mt = report.per_family["Message-Topic"]
        assert mt["f1"] == 0.0 and mt["gold"] == 1 and mt["pred"] == 1
        # macro over the two present families: (2/3 + 0) / 2
        assert report.macro_f1 == pytest.approx(100 / 3)
        assert report.accuracy == pytest.approx(50.0)

    def test_direction_error_is_not_a_true_positive(self):
        report = ev.score_semeval([CE12], [CE21])
        assert report.per_family["Cause-Effect"]["tp"] == 0
        assert report.accuracy == 0.0

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            gold = rng.integers(0, 19, 50).tolist()
            pred = rng.integers(0, 19, 50).tolist()
            report = ev.score_semeval(gold, pred)
            macro, acc = brute_force_scores(gold, pred)
            assert report.macro_f1 == macro
            assert report.accuracy == acc

    def test_order_invariance(self):
        rng = np.random.default_rng(5)
        gold = rng.integers(0, 19, 60).tolist()
        pred = rng.integers(0, 19, 60).tolist()
        base = ev.score_semeval(gold, pred)
        perm = rng.permutation(60)
        shuffled = ev.score_semeval([gold[i] for i in perm],
                                    [pred[i] for i in perm])
        assert shuffled.macro_f1 == base.macro_f1
        assert shuffled.accuracy == base.accuracy

    def test_confusion_row_sums_equal_gold_counts(self):
        rng = np.random.default_rng(6)
        gold = rng.integers(0, 19, 40).tolist()
        pred = rng.integers(0, 19, 40).tolist()
        report = ev.score_semeval(gold, pred)
        row_sums = report.confusion.sum(axis=1)
        for lab in range(19):
            assert row_sums[lab] == sum(1 for g in gold if g == lab)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ev.score_semeval([CE12], [CE12, OTHER])

    def test_arrays_score_as_lists(self):
        rng = np.random.default_rng(8)
        gold, pred = rng.integers(0, 19, (2, 70))
        want = ev.score_semeval(gold.tolist(), pred.tolist())
        got = ev.score_semeval(gold, pred)
        assert (got.macro_f1, got.accuracy) == (want.macro_f1, want.accuracy)
        assert got.per_family == want.per_family
        assert ev.score_semeval(np.array([], np.int64), []).accuracy == 0.0

    def test_per_family_counts_match_a_plain_tally(self):
        rng = np.random.default_rng(7)
        gold = rng.integers(0, 19, 80).tolist()
        pred = rng.integers(0, 19, 80).tolist()
        report = ev.score_semeval(gold, pred)
        for fam in FAMILIES:
            want = {"gold": sum(family(g) == fam for g in gold),
                    "pred": sum(family(p) == fam for p in pred),
                    "tp": sum(g == p and family(g) == fam
                              for g, p in zip(gold, pred))}
            got = {key: report.per_family[fam][key] for key in want}
            assert got == want
            assert all(type(value) is int for value in got.values())


# A label index outside 0..18, or a label that is not an index, is
# rejected before anything is counted or written: -1 must not wrap around
# to Other.
@pytest.mark.parametrize("bad", [19, -1, "Other", 1.0])
@pytest.mark.parametrize("call", ["score_gold", "score_pred",
                                  "bootstrap_gold", "bootstrap_pred",
                                  "write"])
def test_labels_outside_the_inventory_rejected(tmp_path, call, bad):
    labels = [CE12, bad, OTHER]
    good = [CE12, CE21, OTHER]
    path = tmp_path / "pred.txt"
    calls = {
        "score_gold": lambda: ev.score_semeval(labels, good),
        "score_pred": lambda: ev.score_semeval(good, labels),
        "bootstrap_gold": lambda: ev.bootstrap_ci(labels, good, 100),
        "bootstrap_pred": lambda: ev.bootstrap_ci(good, labels, 100),
        "write": lambda: ev.write_predictions([1, 2, 3], labels, path),
    }
    message = (f"label index {bad} outside 0..18" if isinstance(bad, int)
               else "label indices must be integers")
    with pytest.raises(ValueError, match=message):
        calls[call]()
    assert not path.exists()


class TestBootstrap:
    def test_identical_gold_pred(self):
        gold = [CE12, CE21, MT12, OTHER] * 10
        lo, hi = ev.bootstrap_ci(gold, list(gold), iterations=200, seed=3)
        assert (lo, hi) == (100.0, 100.0)

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(9)
        gold = rng.integers(0, 19, 100).tolist()
        pred = rng.integers(0, 19, 100).tolist()
        a = ev.bootstrap_ci(gold, pred, iterations=300, seed=17)
        b = ev.bootstrap_ci(gold, pred, iterations=300, seed=17)
        assert a == b

    def test_interval_contains_point_estimate(self):
        rng = np.random.default_rng(31)
        contained = 0
        trials = 40
        for _ in range(trials):
            gold = rng.integers(0, 19, 150).tolist()
            pred = [g if rng.random() < 0.7 else int(rng.integers(0, 19))
                    for g in gold]
            point = ev.score_semeval(gold, pred).macro_f1
            lo, hi = ev.bootstrap_ci(gold, pred, iterations=300,
                                     seed=int(rng.integers(1 << 30)))
            if lo <= point <= hi:
                contained += 1
        assert contained >= 0.95 * trials

    def test_iteration_floor(self):
        with pytest.raises(ValueError):
            ev.bootstrap_ci([CE12], [CE12], iterations=10)

    @pytest.mark.parametrize("seed", [1, 8])
    @pytest.mark.parametrize("level", [0.9, 0.95])
    @pytest.mark.parametrize("n", [1, 2, 37, 150])
    def test_matches_per_iteration_loop(self, monkeypatch, n, level, seed):
        # gold never holds the last four families and predictions never
        # the first two, so some families are absent from one or both
        rng = np.random.default_rng(n + seed)
        gold = rng.choice([*range(10), 18], n).tolist()
        pred = rng.integers(4, 19, n).tolist()
        monkeypatch.setattr(ev, "_BOOTSTRAP_BLOCK", 300)   # blocks of 2-300
        want = _per_iteration_bootstrap(gold, pred, 130, level, seed)
        assert ev.bootstrap_ci(gold, pred, 130, level, seed) == want

    # 7: one block of all 1000 resamples; 1600: blocks of 20, the last
    # one partial; past the block size: one resample per block
    @pytest.mark.parametrize("n, iterations", [
        (7, 1000), (1600, 130), (ev._BOOTSTRAP_BLOCK + 1, 100)])
    def test_matches_per_iteration_loop_at_the_default_block(
            self, n, iterations):
        rng = np.random.default_rng(n)
        gold = rng.integers(0, 19, n).tolist()
        pred = [g if rng.random() < 0.8 else int(rng.integers(0, 19))
                for g in gold]
        want = _per_iteration_bootstrap(gold, pred, iterations, 0.95, 5)
        assert ev.bootstrap_ci(gold, pred, iterations, 0.95, 5) == want

    def test_memory_is_bounded_by_the_block(self):
        """A block draws ``_BOOTSTRAP_BLOCK`` int64 indices (256 KiB) and
        maps them to cells (another 256 KiB); the peak stays near that,
        however many resamples run.  Twice the block reads ~1.7 MiB."""
        rng = np.random.default_rng(11)
        gold = rng.integers(0, 19, 1600).tolist()
        pred = [g if rng.random() < 0.8 else int(rng.integers(0, 19))
                for g in gold]
        ev.bootstrap_ci(gold, pred, 1000)       # first-call set-up
        tracemalloc.start()
        try:
            ev.bootstrap_ci(gold, pred, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2 ** 20

    def test_empty_data_scores_zero(self):
        assert ev.bootstrap_ci([], [], 100) == (0.0, 0.0)


def _per_iteration_bootstrap(gold, pred, iterations, level, seed):
    """bootstrap_ci before it counted every resample at once: one
    resample and one score at a time."""
    rng = np.random.default_rng(seed)
    n = len(gold)
    scores = []
    for _ in range(iterations):
        idx = rng.integers(0, n, n)
        scores.append(brute_force_scores([gold[i] for i in idx],
                                         [pred[i] for i in idx])[0])
    lo, hi = np.percentile(scores, [50 * (1 - level), 50 * (1 + level)])
    return float(lo), float(hi)


# -0.0 is left out: numpy's partition and a sort may order it and 0.0
# differently, and bootstrap scores are never -0.0.
@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(
           st.floats(-1e6, 1e6).filter(lambda x: math.copysign(1, x) > 0
                                        or x != 0),
           st.sampled_from([0.0, 1.0, 50.0, 100.0])),
           min_size=1, max_size=60),
       percents=st.lists(st.one_of(st.floats(0, 100),
                                   st.sampled_from([0.0, 2.5, 5.0, 50.0,
                                                    95.0, 97.5, 100.0])),
                         min_size=1, max_size=4))
# halfway between two values numpy interpolates down from the upper one,
# which here rounds otherwise than up from the lower one
@example(values=[-46.043, 27.392], percents=[50.0])
def test_percentiles_equal_numpy_s_bit_for_bit(values, percents):
    got = ev._percentiles(np.array(values), percents)
    want = np.percentile(np.array(values), percents)
    assert np.array(got).tobytes() == want.tobytes()
    assert all(type(x) is float for x in got)


class TestTopNgrams:
    def _fixture(self, rng, zero_weights=False):
        params = rand_params(rng, dim=3, window=2, n_nouns=4, n_words=12)
        opts = FeatureOptions()
        weights = np.zeros((19, feature_dim(params, opts))) if zero_weights \
            else rng.normal(size=(19, feature_dim(params, opts)))
        softmax = SoftmaxParams(weights, np.zeros(19))
        instances = pack([rand_ctx(rng, m_in=int(rng.integers(1, 5)), m_out=2,
                                   n_words=12)
                          for k in range(8)])
        return params, opts, softmax, instances

    def test_zero_weights_scores_zero_in_first_seen_order(self, rng):
        params, opts, softmax, instances = self._fixture(rng, zero_weights=True)
        ranked = ev.top_ngrams(softmax, params, opts, instances, CE12, 3, top_k=4)
        assert all(score == 0.0 for _, score in ranked)
        again = ev.top_ngrams(softmax, params, opts, instances, CE12, 3, top_k=4)
        assert ranked == again

    def test_scores_linear_in_weights(self, rng):
        params, opts, softmax, instances = self._fixture(rng)
        base = ev.top_ngrams(softmax, params, opts, instances, CE12, 3, top_k=6)
        softmax.weights *= 2.5
        scaled = ev.top_ngrams(softmax, params, opts, instances, CE12, 3, top_k=6)
        assert [w for w, _ in base] == [w for w, _ in scaled]
        for (_, s0), (_, s1) in zip(base, scaled):
            assert s1 == pytest.approx(2.5 * s0)

    def test_score_equals_manual_dot_product(self, rng):
        params, opts, softmax, instances = self._fixture(rng)
        (words, score), *_ = ev.top_ngrams(softmax, params, opts, instances,
                                           CE12, 3, top_k=1)
        # find an occurrence and recompute its masked embedding by hand
        found = None
        for ctx in instances:
            for i in range(1, ctx.m_in + 1):
                w = tuple(ctx.w_in[i + o - 1] if 1 <= i + o <= ctx.m_in else 0
                          for o in (-1, 0, 1))
                if w == words:
                    found = (ctx, i)
                    break
            if found:
                break
        ctx, i = found
        h = ngram_embedding(ctx, i, params, mask_beyond=1)
        d = params.dim
        off = 2 * d
        blk = 2 * params.window * d + params.pred_dim
        expected = softmax.weights[CE12, off:off + blk] @ h
        assert score == pytest.approx(expected)

    def test_unigram_masking(self, rng):
        params, opts, softmax, instances = self._fixture(rng)
        ranked = ev.top_ngrams(softmax, params, opts, instances, CE12, 1, top_k=3)
        assert all(len(words) == 1 for words, _ in ranked)

    def test_requires_order_aware_between_block(self, rng):
        params, opts, softmax, instances = self._fixture(rng)
        with pytest.raises(ValueError):
            ev.top_ngrams(softmax, params, FeatureOptions(True, False, True),
                          instances, CE12, 3)
        with pytest.raises(ValueError):
            ev.top_ngrams(softmax, params,
                          FeatureOptions(True, True, True, bow_between=True),
                          instances, CE12, 3)

    def test_invalid_n_rejected(self, rng):
        params, opts, softmax, instances = self._fixture(rng)
        for bad in (0, 2, 7):   # window 2 allows odd n up to 5
            with pytest.raises(ValueError):
                ev.top_ngrams(softmax, params, opts, instances, CE12, bad)

    def test_label_outside_the_inventory_rejected(self, rng):
        params, opts, softmax, instances = self._fixture(rng)
        for bad in (19, -1):
            with pytest.raises(ValueError, match=f"label index {bad} "):
                ev.top_ngrams(softmax, params, opts, instances, bad, 3)

    def test_dedupes_by_surface_form(self, rng):
        params, opts, softmax, _ = self._fixture(rng)
        ctx = NounPairContext(1, 2, (5, 6, 5, 6), (3, 3), (4, 4))
        instances = pack([ctx, ctx])
        ranked = ev.top_ngrams(softmax, params, opts, instances, CE12, 3,
                               top_k=50)
        words = [w for w, _ in ranked]
        assert len(words) == len(set(words))


class TestAblations:
    def test_nouns_only_dimension(self, rng):
        params = rand_params(rng, dim=9, window=2)
        opts = FeatureOptions(True, False, False)
        assert feature_dim(params, opts) == 18


class TestRendering:
    def test_format_report_and_kv(self):
        gold = [CE12, CE21, MT12, OTHER]
        pred = [CE12, CE12, MT12, OTHER]
        report = ev.score_semeval(gold, pred)
        report.bootstrap = (55.0, 80.0, 0.95)
        text = ev.format_report(report)
        assert "Cause-Effect" in text and "official macro-F1" in text
        assert "bootstrap 95% interval" in text
        kv = ev.report_kv(report)
        assert f"macro_f1={report.macro_f1:.4f}" in kv
        assert "cause_effect_f1=" in kv

    def test_write_predictions(self, tmp_path):
        path = tmp_path / "pred.txt"
        ev.write_predictions([8001, 8002], [CE12, OTHER], path)
        assert path.read_text() == "8001\tCause-Effect(e1,e2)\n8002\tOther\n"
        ev.write_predictions([8001, 8002], np.array([CE21, OTHER]), path)
        assert path.read_text() == "8001\tCause-Effect(e2,e1)\n8002\tOther\n"
