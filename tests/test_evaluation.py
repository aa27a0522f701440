import io
import logging
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from relemb import evaluation as ev
from relemb.classifier import SoftmaxParams, SupervisedConfig
from relemb.corpus import (ALL_LABELS, FAMILIES, NounPairContext, RelationLabel,
                           parse_label)
from relemb.features import FeatureOptions, feature_dim, ngram_embedding
from conftest import labelled, pack, rand_params, rand_ctx


def brute_force_scores(gold, pred):
    """Independent tally of the official protocol, kept deliberately plain."""
    f1s = []
    for fam in FAMILIES:
        tp = 0
        gold_n = 0
        pred_n = 0
        for g, p in zip(gold, pred):
            if g.family == fam:
                gold_n += 1
            if p.family == fam:
                pred_n += 1
            if g.family == fam and p.family == fam and g.direction == p.direction:
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
    accuracy = 100.0 * correct / len(gold) if gold else 0.0
    return macro, accuracy


CE12 = parse_label("Cause-Effect(e1,e2)")
CE21 = parse_label("Cause-Effect(e2,e1)")
MT12 = parse_label("Message-Topic(e1,e2)")
OTHER = parse_label("Other")


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
            gold = [ALL_LABELS[i] for i in rng.integers(0, 19, 50)]
            pred = [ALL_LABELS[i] for i in rng.integers(0, 19, 50)]
            report = ev.score_semeval(gold, pred)
            macro, acc = brute_force_scores(gold, pred)
            assert report.macro_f1 == macro
            assert report.accuracy == acc

    def test_order_invariance(self):
        rng = np.random.default_rng(5)
        gold = [ALL_LABELS[i] for i in rng.integers(0, 19, 60)]
        pred = [ALL_LABELS[i] for i in rng.integers(0, 19, 60)]
        base = ev.score_semeval(gold, pred)
        perm = rng.permutation(60)
        shuffled = ev.score_semeval([gold[i] for i in perm],
                                    [pred[i] for i in perm])
        assert shuffled.macro_f1 == base.macro_f1
        assert shuffled.accuracy == base.accuracy

    def test_confusion_row_sums_equal_gold_counts(self):
        rng = np.random.default_rng(6)
        gold = [ALL_LABELS[i] for i in rng.integers(0, 19, 40)]
        pred = [ALL_LABELS[i] for i in rng.integers(0, 19, 40)]
        report = ev.score_semeval(gold, pred)
        from relemb.corpus import label_index
        row_sums = report.confusion.sum(axis=1)
        for lab in ALL_LABELS:
            assert row_sums[label_index(lab)] == sum(1 for g in gold if g == lab)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ev.score_semeval([CE12], [CE12, OTHER])


class TestBootstrap:
    def test_identical_gold_pred(self):
        gold = [CE12, CE21, MT12, OTHER] * 10
        lo, hi = ev.bootstrap_ci(gold, list(gold), iterations=200, seed=3)
        assert (lo, hi) == (100.0, 100.0)

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(9)
        gold = [ALL_LABELS[i] for i in rng.integers(0, 19, 100)]
        pred = [ALL_LABELS[i] for i in rng.integers(0, 19, 100)]
        a = ev.bootstrap_ci(gold, pred, iterations=300, seed=17)
        b = ev.bootstrap_ci(gold, pred, iterations=300, seed=17)
        assert a == b

    def test_interval_contains_point_estimate(self):
        rng = np.random.default_rng(31)
        contained = 0
        trials = 40
        for _ in range(trials):
            gold = [ALL_LABELS[i] for i in rng.integers(0, 19, 150)]
            pred = [g if rng.random() < 0.7 else ALL_LABELS[rng.integers(0, 19)]
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
        gold = [ALL_LABELS[i] for i in rng.choice([*range(10), 18], n)]
        pred = [ALL_LABELS[i] for i in rng.integers(4, 19, n)]
        monkeypatch.setattr(ev, "_BOOTSTRAP_BLOCK", 300)   # blocks of 2-300
        want = _per_iteration_bootstrap(gold, pred, 130, level, seed)
        assert ev.bootstrap_ci(gold, pred, 130, level, seed) == want


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


def _pair_embeddings(sims):
    """Word vectors for pairs (a_i, b_i) whose cosines equal `sims`."""
    surfaces = []
    rows = []
    for i, s in enumerate(sims):
        theta = math.acos(s)
        surfaces += [f"a{i}", f"b{i}"]
        rows += [[1.0, 0.0], [math.cos(theta), math.sin(theta)]]
    return surfaces, np.array(rows)


def _wordsim_fixture(sims):
    from conftest import make_vocab
    from relemb.embed_train import EmbeddingParams
    surfaces, rows = _pair_embeddings(sims)
    vocab = make_vocab({s: 1 for s in surfaces}, {s: 1 for s in surfaces})
    word_vecs = np.zeros((vocab.n_words, 2))
    noun_vecs = np.zeros((vocab.n_nouns, 2))
    for s, row in zip(surfaces, rows):
        word_vecs[vocab.word_id(s)] = row
        noun_vecs[vocab.noun_id(s)] = row
    params = EmbeddingParams(noun_vecs, word_vecs,
                             np.zeros((vocab.n_words, 2)),
                             np.zeros(vocab.n_words), dim=2, window=1)
    return vocab, params


class TestWordSim:
    def test_identical_ranking_gives_one(self):
        sims = [0.1, 0.2, 0.3, 0.4, 0.5]
        vocab, params = _wordsim_fixture(sims)
        pairs = [(f"a{i}", f"b{i}", float(i)) for i in range(5)]
        result = ev.spearman_wordsim(pairs, params, vocab, "word")
        assert result.rho == pytest.approx(1.0)

    def test_reversed_ranking_gives_minus_one(self):
        sims = [0.5, 0.4, 0.3, 0.2, 0.1]
        vocab, params = _wordsim_fixture(sims)
        pairs = [(f"a{i}", f"b{i}", float(i)) for i in range(5)]
        result = ev.spearman_wordsim(pairs, params, vocab, "word")
        assert result.rho == pytest.approx(-1.0)

    def test_tied_scores_hand_value(self):
        # human [1, 2, 2, 4, 5] (tie), cosine ranks [1, 3, 2, 5, 4]:
        # average-rank Spearman = 8.5 / sqrt(95)
        sims = [0.1, 0.3, 0.2, 0.5, 0.4]
        vocab, params = _wordsim_fixture(sims)
        pairs = [(f"a{i}", f"b{i}", h) for i, h in enumerate([1.0, 2.0, 2.0,
                                                              4.0, 5.0])]
        result = ev.spearman_wordsim(pairs, params, vocab, "word")
        assert result.rho == pytest.approx(8.5 / math.sqrt(95), abs=1e-12)

    @pytest.mark.parametrize("constant", ["cosine similarities",
                                          "human scores"])
    def test_constant_side_warns_and_gives_nan(self, caplog, constant):
        if constant == "human scores":
            sims, human = [0.1, 0.3, 0.2], [2.0, 2.0, 2.0]
        else:
            sims, human = [0.3, 0.3, 0.3], [1.0, 2.0, 3.0]
        vocab, params = _wordsim_fixture(sims)
        pairs = [(f"a{i}", f"b{i}", h) for i, h in enumerate(human)]
        with caplog.at_level(logging.WARNING, logger="relemb.evaluation"):
            result = ev.spearman_wordsim(pairs, params, vocab, "word")
        assert math.isnan(result.rho)
        assert f"all 3 {constant} are equal" in caplog.text

    def test_pair_order_invariance(self):
        sims = [0.1, 0.3, 0.2, 0.5, 0.4]
        vocab, params = _wordsim_fixture(sims)
        pairs = [(f"a{i}", f"b{i}", h) for i, h in enumerate([1, 2, 2, 4, 5])]
        rho1 = ev.spearman_wordsim(pairs, params, vocab, "word").rho
        rho2 = ev.spearman_wordsim(pairs[::-1], params, vocab, "word").rho
        assert rho1 == pytest.approx(rho2)

    def test_oov_pairs_reported(self):
        vocab, params = _wordsim_fixture([0.1, 0.2])
        params.word_vecs[1] = [1.0, 0.0]     # give UNK a usable vector
        pairs = [("a0", "b0", 1.0), ("a1", "b1", 2.0), ("zzz", "b0", 3.0)]
        result = ev.spearman_wordsim(pairs, params, vocab, "word")
        assert result.oov_pairs == [("zzz", "b0")]
        assert result.n_pairs == 3
        assert np.isfinite(result.rho)

    def test_noun_and_word_selectors_differ(self):
        vocab, params = _wordsim_fixture([0.1, 0.5])
        params.noun_vecs[:] = 1.0            # degenerate noun space
        pairs = [("a0", "b0", 1.0), ("a1", "b1", 2.0)]
        r_word = ev.spearman_wordsim(pairs, params, vocab, "word")
        assert r_word.rho == pytest.approx(1.0)
        with pytest.raises(ValueError):
            ev.spearman_wordsim(pairs, params, vocab, "embedding")

    @staticmethod
    def _check_against_spearmanr(human, grid):
        """rho over pairs whose cosines are ``k/1000`` for k in `grid`:
        distinct k keep distinct, equally ordered cosines, so scipy's rho on
        (human, grid) is the reference."""
        spearmanr = pytest.importorskip("scipy.stats").spearmanr
        vocab, params = _wordsim_fixture([k / 1000 for k in grid])
        pairs = [(f"a{i}", f"b{i}", h) for i, h in enumerate(human)]
        rho = ev.spearman_wordsim(pairs, params, vocab, "word").rho
        assert rho == pytest.approx(spearmanr(human, grid).statistic,
                                    rel=0.0, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rho_matches_spearmanr(self, data):
        pytest.importorskip("scipy.stats")
        n = data.draw(st.integers(3, 60), label="n")
        tied = data.draw(st.booleans(), label="tied")
        humans = (st.sampled_from([0.0, 1.5, 2.0, 7.25]) if tied
                  else st.floats(-10.0, 10.0, allow_nan=False))
        ks = st.integers(-3, 3) if tied else st.integers(-999, 999)
        human = data.draw(st.lists(humans, min_size=n, max_size=n),
                          label="human")
        grid = data.draw(st.lists(ks, min_size=n, max_size=n), label="grid")
        assume(len(set(human)) > 1 and len(set(grid)) > 1)
        self._check_against_spearmanr(human, grid)

    @pytest.mark.parametrize("human, grid", [
        ([1.0, 2.0, 3.0], [10, 30, 20]),
        ([1.0, 1.0, 3.0], [10, 30, 20]),
        ([1.0, 2.0, 3.0], [20, 20, 10]),
        ([2.0, 1.0, 2.0], [5, 5, -5]),
    ])
    def test_rho_matches_spearmanr_with_three_pairs(self, human, grid):
        self._check_against_spearmanr(human, grid)

    def test_read_wordsim_formats(self, tmp_path):
        comma = tmp_path / "c.csv"
        comma.write_text("Word 1,Word 2,Human (mean)\nlove,sex,6.77\ncar,auto,8.94\n")
        assert ev.read_wordsim(comma) == [("love", "sex", 6.77),
                                          ("car", "auto", 8.94)]
        tab = tmp_path / "t.tsv"
        tab.write_text("love\tsex\t6.77\n")
        assert ev.read_wordsim(tab) == [("love", "sex", 6.77)]


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
        from relemb.corpus import label_index
        expected = softmax.weights[label_index(CE12), off:off + blk] @ h
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

    def test_dedupes_by_surface_form(self, rng):
        params, opts, softmax, _ = self._fixture(rng)
        ctx = NounPairContext(1, 2, (5, 6, 5, 6), (3, 3), (4, 4))
        instances = pack([ctx, ctx])
        ranked = ev.top_ngrams(softmax, params, opts, instances, CE12, 3,
                               top_k=50)
        words = [w for w, _ in ranked]
        assert len(words) == len(set(words))


class TestAblations:
    def test_five_settings_cover_table_columns(self):
        names = [name for name, _ in ev.ABLATION_SETTINGS]
        assert names == ["nouns", "between", "between-bow", "nouns+between",
                         "nouns+between+outside"]

    def test_nouns_only_dimension(self, rng):
        params = rand_params(rng, dim=9, window=2)
        _, opts = ev.ABLATION_SETTINGS[0]
        assert feature_dim(params, opts) == 18

    def test_run_ablations_shape(self, rng):
        from conftest import rand_params
        params = rand_params(rng, dim=3, window=1, n_nouns=5, n_words=10)
        contexts, labels = [], []
        for k in range(12):
            contexts.append(rand_ctx(rng, m_in=2, m_out=2, n_nouns=5,
                                     n_words=10))
            labels.append(ALL_LABELS[int(rng.integers(0, 3))])
        instances = labelled(contexts, labels, ids=range(12))
        config = SupervisedConfig(eta=0.2, l2=0.0, epochs=2, dropout=False,
                                  fine_tune=False, seed=1)
        results = ev.run_ablations(instances, params, config, folds=2, seed=4)
        assert len(results) == 5
        assert all(np.isfinite(mean) for _, mean, _ in results)


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
