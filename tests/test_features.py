import numpy as np
import pytest

from relemb import features as ft
from relemb.corpus import NULL_WORD, NounPairContext
from conftest import check_row_grads, pack, rand_params, rand_ctx


# Each block is a slice of the vector assembled with every block enabled;
# the widths are written out here so the tests check the layout as well.

def nouns_block(ctx, params):
    return ft.assemble_features(ctx, params)[:2 * params.dim]


def between_block(ctx, params, bow=False):
    d = params.dim
    width = (d if bow else 2 * params.window * d) + params.pred_dim
    v = ft.assemble_features(ctx, params, ft.FeatureOptions(bow_between=bow))
    assert v.shape == (2 * d + width + 2 * d,)
    return v[2 * d:2 * d + width]


def outside_block(ctx, params, m_out=None):
    v = ft.assemble_features(ctx, params, ft.FeatureOptions(m_out=m_out))
    return v[len(v) - 2 * params.dim:]


class TestNounPairBlock:
    def test_concatenation(self, rng):
        params = rand_params(rng, dim=2, window=1)
        params.noun_vecs[1] = [1.0, 0.0]
        params.noun_vecs[2] = [0.0, 1.0]
        ctx = NounPairContext(1, 2, (3,), (4,), (5,))
        np.testing.assert_array_equal(nouns_block(ctx, params),
                                      [1, 0, 0, 1])

    def test_same_noun_twice(self, rng):
        params = rand_params(rng, dim=3, window=1)
        ctx = NounPairContext(2, 2, (3,), (4,), (5,))
        v = nouns_block(ctx, params)
        np.testing.assert_array_equal(v[:3], v[3:])

    def test_unknown_noun_uses_unk_row(self, rng):
        params = rand_params(rng, dim=2, window=1)
        ctx = NounPairContext(0, 1, (3,), (4,), (5,))   # id 0 is the noun UNK
        v = nouns_block(ctx, params)
        np.testing.assert_array_equal(v[:2], params.noun_vecs[0])


class TestNgramEmbedding:
    def test_dimension_default_setting(self, rng):
        params = rand_params(rng, dim=100, window=3)
        ctx = rand_ctx(rng, m_in=5, m_out=2)
        h = ft.ngram_embedding(ctx, 3, params)
        assert h.shape == (1600,)   # 4*100*(1+3)

    def test_single_between_word_all_null_neighbors(self, rng):
        params = rand_params(rng, dim=4, window=2)
        ctx = rand_ctx(rng, m_in=1, m_out=2)
        h = ft.ngram_embedding(ctx, 1, params)
        null = params.word_vecs[NULL_WORD]
        for slot in range(4):
            np.testing.assert_array_equal(h[slot * 4:(slot + 1) * 4], null)
        np.testing.assert_array_equal(h[16:], params.pred_vecs[ctx.w_in[0]])

    def test_hand_computed_scalar_case(self):
        from relemb.embed_train import EmbeddingParams
        params = EmbeddingParams(
            noun_vecs=np.zeros((2, 1)),
            word_vecs=np.array([[0.5], [1.0], [2.0], [3.0]]),
            pred_vecs=np.array([[0.0, 0.0], [10.0, 11.0], [20.0, 21.0],
                                [30.0, 31.0]]),
            pred_bias=np.zeros(4),
            dim=1, window=1)
        ctx = NounPairContext(0, 1, w_in=(2, 3), w_bef=(1,), w_aft=(1,))
        # i=1: left NULL (0.5), right w=3 (3.0), pred of w=2
        np.testing.assert_allclose(ft.ngram_embedding(ctx, 1, params),
                                   [0.5, 3.0, 20.0, 21.0])
        np.testing.assert_allclose(ft.ngram_embedding(ctx, 2, params),
                                   [2.0, 0.5, 30.0, 31.0])

    def test_out_of_range_rejected(self, rng):
        params = rand_params(rng, dim=2, window=1)
        with pytest.raises(ValueError):
            ft.ngram_embedding(rand_ctx(rng, 2, 1), 3, params)

    def test_mask_beyond_nulls_outer_slots(self, rng):
        params = rand_params(rng, dim=3, window=3)
        ctx = rand_ctx(rng, m_in=7, m_out=1)
        h = ft.ngram_embedding(ctx, 4, params, mask_beyond=1)
        null = params.word_vecs[NULL_WORD]
        d = 3
        # slots j=2,3 on both sides are masked
        for slot in (1, 2, 4, 5):
            np.testing.assert_array_equal(h[slot * d:(slot + 1) * d], null)
        np.testing.assert_array_equal(h[0:d], params.word_vecs[ctx.w_in[2]])


def _brute_between(ctx, params):
    """Independent re-computation of the averaged n-gram embeddings."""
    c, d = params.window, params.dim
    total = None
    for i in range(1, ctx.m_in + 1):
        parts = []
        for j in range(1, c + 1):
            w = ctx.w_in[i - j - 1] if i - j >= 1 else NULL_WORD
            parts.extend(float(x) for x in params.word_vecs[w])
        for j in range(1, c + 1):
            w = ctx.w_in[i + j - 1] if i + j <= ctx.m_in else NULL_WORD
            parts.extend(float(x) for x in params.word_vecs[w])
        parts.extend(float(x) for x in params.pred_vecs[ctx.w_in[i - 1]])
        total = parts if total is None else [a + b for a, b in zip(total, parts)]
    return np.array([x / ctx.m_in for x in total])


class TestBetweenBlock:
    def test_single_word_equals_ngram(self, rng):
        params = rand_params(rng, dim=3, window=2)
        ctx = rand_ctx(rng, m_in=1, m_out=2)
        np.testing.assert_array_equal(between_block(ctx, params),
                                      ft.ngram_embedding(ctx, 1, params))

    def test_empty_span_zero_vector(self, rng):
        params = rand_params(rng, dim=3, window=2)
        ctx = NounPairContext(1, 2, (), (3, 4), (5, 6))
        v = between_block(ctx, params)
        assert v.shape == (2 * 2 * 3 + params.pred_dim,)
        assert np.all(v == 0)

    def test_two_word_mean(self, rng):
        params = rand_params(rng, dim=2, window=1)
        ctx = rand_ctx(rng, m_in=2, m_out=1)
        expected = (ft.ngram_embedding(ctx, 1, params)
                    + ft.ngram_embedding(ctx, 2, params)) / 2
        np.testing.assert_allclose(between_block(ctx, params), expected)

    def test_matches_independent_recomputation(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 5))
            c = int(rng.integers(1, 4))
            params = rand_params(rng, dim=d, window=c)
            ctx = rand_ctx(rng, m_in=int(rng.integers(1, 7)), m_out=2)
            got = between_block(ctx, params)
            expected = _brute_between(ctx, params)
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_invariant_to_outside_windows(self, rng):
        params = rand_params(rng, dim=3, window=2)
        base = rand_ctx(rng, m_in=3, m_out=2)
        other = NounPairContext(base.n1, base.n2, base.w_in,
                                (7, 8, 9, 10), (1, 2, 3, 4))
        np.testing.assert_array_equal(between_block(base, params),
                                      between_block(other, params))


class TestBetweenBowBlock:
    def test_single_word(self, rng):
        params = rand_params(rng, dim=3, window=2)
        ctx = rand_ctx(rng, m_in=1, m_out=1)
        w = ctx.w_in[0]
        expected = np.concatenate([params.word_vecs[w], params.pred_vecs[w]])
        np.testing.assert_array_equal(between_block(ctx, params, bow=True),
                                      expected)

    def test_empty_span_zero_vector(self, rng):
        params = rand_params(rng, dim=3, window=2)
        ctx = NounPairContext(1, 2, (), (3,), (5,))
        v = between_block(ctx, params, bow=True)
        assert v.shape == (3 + params.pred_dim,)
        assert np.all(v == 0)

    def test_word_order_invariance(self, rng):
        params = rand_params(rng, dim=3, window=2)
        a = NounPairContext(1, 2, (3, 4, 5), (6,), (7,))
        b = NounPairContext(1, 2, (5, 3, 4), (6,), (7,))
        np.testing.assert_allclose(between_block(a, params, bow=True),
                                   between_block(b, params, bow=True))

    def test_order_changes_full_between_block(self, rng):
        params = rand_params(rng, dim=3, window=1)
        a = NounPairContext(1, 2, (3, 4), (6,), (7,))
        b = NounPairContext(1, 2, (4, 3), (6,), (7,))
        assert not np.allclose(between_block(a, params),
                               between_block(b, params))


class TestOutsideBlock:
    def test_all_null_before_window(self, rng):
        params = rand_params(rng, dim=3, window=1)
        ctx = NounPairContext(1, 2, (3,), (NULL_WORD, NULL_WORD), (4, 5))
        v = outside_block(ctx, params)
        np.testing.assert_array_equal(v[:3], params.word_vecs[NULL_WORD])

    def test_width_one_windows(self, rng):
        params = rand_params(rng, dim=2, window=1)
        ctx = NounPairContext(1, 2, (3,), (4,), (5,))
        v = outside_block(ctx, params)
        np.testing.assert_array_equal(v[:2], params.word_vecs[4])
        np.testing.assert_array_equal(v[2:], params.word_vecs[5])

    def test_width_two_hand_means(self, rng):
        params = rand_params(rng, dim=2, window=1)
        ctx = NounPairContext(1, 2, (3,), (4, 6), (5, 7))
        v = outside_block(ctx, params)
        np.testing.assert_allclose(
            v[:2], (params.word_vecs[4] + params.word_vecs[6]) / 2)
        np.testing.assert_allclose(
            v[2:], (params.word_vecs[5] + params.word_vecs[7]) / 2)

    def test_invariant_to_between_words(self, rng):
        params = rand_params(rng, dim=3, window=2)
        base = rand_ctx(rng, m_in=3, m_out=2)
        other = NounPairContext(base.n1, base.n2, (9, 9, 9),
                                base.w_bef, base.w_aft)
        np.testing.assert_array_equal(outside_block(base, params),
                                      outside_block(other, params))

    def test_m_out_override_matches_narrow_extraction(self, rng):
        params = rand_params(rng, dim=2, window=1)
        wide = NounPairContext(1, 2, (3,), (NULL_WORD, 4, 6), (5, 7, NULL_WORD))
        narrow = NounPairContext(1, 2, (3,), (4, 6), (5, 7))
        np.testing.assert_array_equal(
            outside_block(wide, params, m_out=2),
            outside_block(narrow, params))

    def test_override_larger_than_window_rejected(self, rng):
        params = rand_params(rng, dim=2, window=1)
        ctx = NounPairContext(1, 2, (3,), (4,), (5,))
        with pytest.raises(ValueError):
            outside_block(ctx, params, m_out=3)


class TestAssembly:
    def test_full_vector_dimension(self, rng):
        params = rand_params(rng, dim=100, window=3)
        ctx = rand_ctx(rng, m_in=4, m_out=3)
        v = ft.assemble_features(ctx, params)
        assert v.shape == (2000,)    # 4*100*(2+3)
        only = {"nouns": ft.FeatureOptions(True, False, False),
                "between": ft.FeatureOptions(False, True, False),
                "outside": ft.FeatureOptions(False, False, True)}
        spans = {"nouns": (0, 200), "between": (200, 1600),
                 "outside": (1800, 200)}
        for name, (off, length) in spans.items():
            block = ft.assemble_features(ctx, params, only[name])
            assert block.shape == (length,)
            np.testing.assert_array_equal(v[off:off + length], block)
        assert ft.between_slice(params) == slice(200, 1800)

    def test_nouns_only(self, rng):
        params = rand_params(rng, dim=7, window=2)
        opts = ft.FeatureOptions(True, False, False)
        v = ft.assemble_features(rand_ctx(rng, 2, 2), params, opts)
        assert v.shape == (14,)

    def test_nouns_plus_between(self, rng):
        params = rand_params(rng, dim=5, window=2)
        opts = ft.FeatureOptions(True, True, False)
        v = ft.assemble_features(rand_ctx(rng, 2, 2), params, opts)
        assert v.shape == (2 * 5 + 4 * 5 * 3,)

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("c", range(1, 5))
    def test_dimension_formulas_sweep(self, d, c):
        rng = np.random.default_rng(100 * d + c)
        params = rand_params(rng, dim=d, window=c)
        ctx = rand_ctx(rng, m_in=3, m_out=2)
        assert ft.ngram_embedding(ctx, 1, params).shape == (4 * d * (1 + c),)
        assert ft.assemble_features(ctx, params).shape == (4 * d * (2 + c),)
        assert ft.feature_dim(params) == 4 * d * (2 + c)

    def test_pure_function(self, rng):
        params = rand_params(rng, dim=4, window=2)
        ctx = rand_ctx(rng, m_in=3, m_out=2)
        a = ft.assemble_features(ctx, params)
        b = ft.assemble_features(ctx, params)
        np.testing.assert_array_equal(a, b)

    def test_no_blocks_rejected(self):
        with pytest.raises(ValueError):
            ft.FeatureOptions(False, False, False).validate()

    def test_flags_round_trip(self):
        for opts in (ft.FeatureOptions(),
                     ft.FeatureOptions(True, True, False, bow_between=True),
                     ft.FeatureOptions(False, True, True, m_out=4)):
            assert ft.FeatureOptions.from_flags(opts.flags()) == opts

    def test_feature_dim_matches_assembly_for_bow(self, rng):
        params = rand_params(rng, dim=3, window=2)
        opts = ft.FeatureOptions(True, True, True, bow_between=True)
        v = ft.assemble_features(rand_ctx(rng, 3, 2), params, opts)
        assert v.shape == (ft.feature_dim(params, opts),)


class TestScatterFeatureGrad:
    @pytest.mark.parametrize("opts", [
        ft.FeatureOptions(),
        ft.FeatureOptions(True, True, True, bow_between=True),
        ft.FeatureOptions(True, False, False),
        ft.FeatureOptions(False, True, False),
        ft.FeatureOptions(False, False, True),
        ft.FeatureOptions(True, True, True, m_out=2),
    ])
    def test_matches_finite_differences(self, opts):
        rng = np.random.default_rng(17)
        params = rand_params(rng, dim=3, window=2, n_nouns=4, n_words=9)
        ctx = rand_ctx(rng, m_in=3, m_out=3, n_nouns=4, n_words=9)
        g_e = rng.normal(size=ft.feature_dim(params, opts))
        grads = ft.scatter_feature_grad(g_e, ctx, params, opts)

        def value():
            return float(g_e @ ft.assemble_features(ctx, params, opts))

        check_row_grads(value, params, grads)

    def test_empty_between_span_scatters_nothing_for_block(self, rng):
        params = rand_params(rng, dim=2, window=1)
        ctx = NounPairContext(1, 2, (), (3,), (4,))
        opts = ft.FeatureOptions(False, True, False)
        g_e = rng.normal(size=ft.feature_dim(params, opts))
        assert ft.scatter_feature_grad(g_e, ctx, params, opts) == {}


@pytest.mark.parametrize("opts", [
    ft.FeatureOptions(), ft.FeatureOptions(bow_between=True),
    ft.FeatureOptions(True, False, False),
    ft.FeatureOptions(False, True, False),
    ft.FeatureOptions(False, False, True), ft.FeatureOptions(m_out=1),
    ft.FeatureOptions(m_out=2, bow_between=True)])
def test_packed_tables_equal_per_context_tables(rng, opts):
    params = rand_params(rng, dim=2, window=2)
    width = 2 if opts.m_out else int(rng.integers(2, 5))
    contexts = [rand_ctx(rng, int(rng.integers(0, 5)), width)
                for _ in range(20)]
    packed = ft.pack_tables(pack(contexts), params, opts)
    assert packed.ids.dtype == np.int64
    for i, ctx in enumerate(contexts):
        ids, segments = packed.table(i)
        want_ids, want_segments = ft.feature_table(ctx, params, opts)
        assert ids.tolist() == want_ids.tolist()
        assert segments == want_segments
    assert len(ft.pack_tables(pack([], width), params, opts).ids) == 0


def test_packed_tables_reject_a_trim_wider_than_a_window(rng):
    params = rand_params(rng, dim=2, window=1)
    contexts = pack([rand_ctx(rng, 2, 1), rand_ctx(rng, 2, 1)])
    with pytest.raises(ValueError, match="m_out override 2 exceeds "
                                         "extracted window 1"):
        ft.pack_tables(contexts, params, ft.FeatureOptions(m_out=2))
