import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from relemb import corpus as cp, embed_train as et, kernels
from conftest import (CorpusFiles, block_sentences, make_vocab,
                      on_both_routes)


class TestTaggedParsing:
    """Each text is read from a file: the per-line loop of iteration is
    checked here, and ``files.read`` checks the blocks of both routes
    against it."""

    def test_two_token_sentence(self, files):
        sents, reader = files.read("conflicts\tNNS\nare\tVBP\n\n")
        assert len(sents) == 1
        assert sents[0].words == ("conflicts", "are")
        assert sents[0].tags == ("NNS", "VBP")
        assert reader.skipped_lines == 0

    def test_blank_leading_lines_ignored(self, files):
        sents, _ = files.read("\n\nconflicts\tNNS\nare\tVBP\n\n")
        assert len(sents) == 1
        assert sents[0].words == ("conflicts", "are")

    def test_one_column_line_skipped_with_warning(self, files):
        sents, reader = files.read("oops\nfine\tNN\n\n")
        assert reader.skipped_lines == 1
        assert sents[0].words == ("fine",)

    def test_empty_fields_skipped(self, files):
        sents, reader = files.read("\tNN\nword\t\nok\tNN\n\n")
        assert reader.skipped_lines == 2
        assert sents[0].words == ("ok",)

    def test_empty_file_yields_nothing(self, files):
        sents, reader = files.read("")
        assert sents == [] and reader.sentences_read == 0

    def test_missing_trailing_blank_line(self, files):
        sents, _ = files.read("a\tNN\nb\tNN")
        assert len(sents) == 1 and len(sents[0]) == 2


class TestVocabulary:
    """``files.vocabulary`` builds each vocabulary from a file on both
    routes, which must agree."""

    def test_top_k_and_unk(self, files):
        text = ("a\tDT\n" * 5) + ("b\tDT\n" * 3) + ("c\tDT\n" * 1) + "\n"
        vocab = files.vocabulary(text, max_words=2, max_nouns=1)
        assert vocab.word_ids(["a"])[0] != cp.UNK_WORD
        assert vocab.word_ids(["b"])[0] != cp.UNK_WORD
        assert vocab.word_ids(["c"])[0] == cp.UNK_WORD
        # ranked section ordered by count, ids dense from 2
        assert vocab.word_surfaces[2] == "a"
        assert vocab.word_counts[2] == 5
        assert vocab.total_token_count == 9   # UNK slot absorbs c's count

    def test_noun_counting_restricted_to_noun_tags(self, files):
        text = "cause\tVB\ncause\tNN\ncause\tNN\nthing\tNN\n\n"
        vocab = files.vocabulary(text, 10, 10)
        wid = vocab.word_ids(["cause"])[0]
        nid = vocab.noun_ids(["cause"])[0]
        assert vocab.word_counts[wid] == 3       # all occurrences
        assert vocab.noun_counts[nid] == 2       # NN occurrences only
        assert vocab.total_noun_count == 3

    def test_tie_break_first_seen_wins(self, files):
        text = "a\tDT\nb\tDT\na\tDT\nb\tDT\n\n"
        vocab = files.vocabulary(text, max_words=1, max_nouns=1)
        assert vocab.word_ids(["a"])[0] == 2
        assert vocab.word_ids(["b"])[0] == cp.UNK_WORD

    def test_lowercase_flag(self, files):
        text = "Cause\tNN\ncause\tNN\n\n"
        v1 = files.vocabulary(text, 10, 10, lowercase=True)
        assert v1.word_counts[v1.word_ids(["CAUSE"])[0]] == 2
        v2 = files.vocabulary(text, 10, 10, lowercase=False)
        assert v2.word_ids(["Cause"])[0] != v2.word_ids(["cause"])[0]

    def test_lookup_total_and_unk_rate_deterministic(self, files):
        text = "a\tNN\nb\tDT\n\n"
        vocab = files.vocabulary(text, 1, 1)
        held_out, _ = files.read("a\tNN\nzzz\tDT\nqqq\tDT\n\n")
        for surface in ("a", "b", "zzz", "", "???"):
            assert isinstance(vocab.word_ids([surface])[0], int)
        # two of the three held-out tokens fall out of vocabulary
        ids = [vocab.word_ids([w])[0] for s in held_out for w in s.words]
        # one surface at a time, as a sentence at a time
        assert ids == [i for s in held_out for i in vocab.word_ids(s.words)]
        assert ids.count(cp.UNK_WORD) == 2 and len(ids) == 3

    def test_rank_order_non_increasing(self, files):
        text = ("x\tDT\n" * 4 + "y\tDT\n" * 7 + "z\tDT\n" * 2) + "\n"
        vocab = files.vocabulary(text, 10, 10)
        ranked = vocab.word_counts[2:]
        assert ranked == sorted(ranked, reverse=True)

    def test_save_load_round_trip(self, tmp_path, files):
        text = "cause\tNN\neffect\tNN\nof\tIN\n\n"
        vocab = files.vocabulary(text, 2, 2)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = cp.Vocabulary.load(path)
        assert loaded.word_surfaces == vocab.word_surfaces
        assert loaded.word_counts == vocab.word_counts
        assert loaded.noun_surfaces == vocab.noun_surfaces
        assert loaded.noun_counts == vocab.noun_counts
        assert loaded.lowercase == vocab.lowercase
        assert loaded.word_ids(["cause"])[0] == vocab.word_ids(["cause"])[0]

    @pytest.mark.parametrize("case,line", [
        ("magic", 1), ("header_count", 1), ("lowercase_flag", 1),
        ("lowercase_flag_2", 1), ("lowercase_flag_-1", 1),
        ("no_reserved_words", 1), ("no_reserved_nouns", 1),
        ("repeated_flag", 1),
        ("truncated", 6), ("extra_line", 8), ("no_tab", 3),
        ("negative_count", 4), ("non_integer_count", 5), ("empty_surface", 2),
    ])
    def test_malformed_file_names_file_and_line(self, tmp_path, case, line):
        vocab = make_vocab({"cause": 3, "of": 2}, {"effect": 4})
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        lines = path.read_text().splitlines(True)
        assert len(lines) == 7      # header, 4 words, 2 nouns
        lines[0] = {
            "magic": "relemb-vocabulary v1 4 2 lowercase=1\n",
            "header_count": "relemb-vocab v1 4 two lowercase=1\n",
            "lowercase_flag": "relemb-vocab v1 4 2 lowercase=yes\n",
            "lowercase_flag_2": "relemb-vocab v1 4 2 lowercase=2\n",
            "lowercase_flag_-1": "relemb-vocab v1 4 2 lowercase=-1\n",
            "no_reserved_words": "relemb-vocab v1 1 2 lowercase=1\n",
            "no_reserved_nouns": "relemb-vocab v1 4 0 lowercase=1\n",
            "repeated_flag": "relemb-vocab v1 4 2 lowercase=1 lowercase=0\n",
        }.get(case, lines[0])
        edits = {"truncated": lines[:5], "extra_line": lines + ["more\t1\n"]}
        lines = edits.get(case, lines)
        bad = {"no_tab": "<UNK> 0\n", "negative_count": "cause\t-3\n",
               "non_integer_count": "of\t2.0\n", "empty_surface": "\t0\n"}
        if case in bad:
            lines[line - 1] = bad[case]
        path.write_text("".join(lines))
        with pytest.raises(cp.ArtifactError, match=f"^{path}:{line}: "):
            cp.Vocabulary.load(path)


    def test_repeated_surface_within_an_inventory_rejected(self, tmp_path):
        vocab = make_vocab({"cause": 3, "of": 2}, {"effect": 4, "cause": 1})
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        lines = path.read_text().splitlines(True)
        # a surface in both inventories is fine
        assert cp.Vocabulary.load(path).noun_ids(["cause"])[0] == 2
        for line, repeat, message in ((5, "cause\t2\n", "word 'cause'"),
                                      (8, "effect\t1\n", "noun 'effect'")):
            edited = lines.copy()
            edited[line - 1] = repeat
            path.write_text("".join(edited))
            with pytest.raises(cp.ArtifactError,
                               match=f"^{path}:{line}: {message} repeats "
                                     f"line {line - 1}$"):
                cp.Vocabulary.load(path)

    def test_ranked_surface_equal_to_a_reserved_one_loads(self, tmp_path,
                                                           files):
        vocab = files.vocabulary("<UNK>\tNN\na\tNN\n\n", 5, 5,
                                 lowercase=False)
        assert vocab.word_surfaces.count("<UNK>") == 2
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        assert cp.Vocabulary.load(path).word_ids(["<UNK>"])[0] == \
            vocab.word_ids(["<UNK>"])[0]

    def test_all_zero_word_counts_rejected(self, tmp_path):
        """A vocabulary that counted no token is no vocabulary: training
        on it would fail without naming the file."""
        path = tmp_path / "vocab.txt"
        make_vocab({"a": 0, "b": 0}, {"a": 0}).save(path)
        with pytest.raises(cp.ArtifactError,
                           match=f"^{path}: every word count is 0$"):
            cp.Vocabulary.load(path)
        make_vocab({"a": 0, "b": 1}, {"a": 0}).save(path)
        assert cp.Vocabulary.load(path).total_token_count == 1

    def test_corpus_without_tokens_rejected(self, files):
        """Blank and skipped lines only: an error naming every file, on
        both routes."""
        paths = [files.path("x y\n"), files.path("\n\n")]

        def error():
            with pytest.raises(cp.ArtifactError) as err:
                cp.build_vocabulary(cp.TaggedCorpusReader(*paths), 5, 5)
            return str(err.value)

        assert on_both_routes(error) == f"{paths[0]}, {paths[1]}: no tokens"


def _tagged_block(words, noun_positions):
    """A block of one sentence, tagged NN at `noun_positions`."""
    tags = tuple("NN" if i in noun_positions else "DT"
                 for i in range(len(words)))
    return cp.TokenBlock.of_sentences([cp.TaggedSentence(tuple(words), tags)])


def _grid_vocab(n=40):
    words = {f"w{i}": n - i for i in range(n)}
    nouns = {f"w{i}": n - i for i in range(n)}
    return make_vocab(words, nouns)


class TestExtraction:
    def test_pair_beyond_max_between_omitted(self):
        words = [f"w{i}" for i in range(13)]
        sent = _tagged_block(words, {0, 12})   # 11 words between
        assert len(cp.extract_noun_pair_contexts(sent, _grid_vocab(), 3)) == 0

    def test_adjacent_pair_omitted(self):
        sent = _tagged_block(["w0", "w1"], {0, 1})
        assert len(cp.extract_noun_pair_contexts(sent, _grid_vocab(), 3)) == 0

    def test_three_nouns_three_ordered_pairs(self):
        words = [f"w{i}" for i in range(10)]
        sent = _tagged_block(words, {1, 4, 8})
        ctxs = cp.extract_noun_pair_contexts(sent, _grid_vocab(), 2)
        assert len(ctxs) == 3
        pairs = {(c.n1, c.n2) for c in ctxs}
        vocab = _grid_vocab()
        assert pairs == {
            (vocab.noun_ids(["w1"])[0], vocab.noun_ids(["w4"])[0]),
            (vocab.noun_ids(["w1"])[0], vocab.noun_ids(["w8"])[0]),
            (vocab.noun_ids(["w4"])[0], vocab.noun_ids(["w8"])[0]),
        }

    def test_windows_and_between_content(self):
        vocab = _grid_vocab()
        words = [f"w{i}" for i in range(8)]
        sent = _tagged_block(words, {2, 5})
        (ctx,) = cp.extract_noun_pair_contexts(sent, vocab, m_out=3)
        wid = lambda s: vocab.word_ids([s])[0]
        assert ctx.w_in == (wid("w3"), wid("w4"))
        # two real tokens left of w2, NULL-padded at the far side
        assert ctx.w_bef == (cp.NULL_WORD, wid("w0"), wid("w1"))
        assert ctx.w_aft == (wid("w6"), wid("w7"), cp.NULL_WORD)

    def test_fewer_than_two_nouns(self):
        sent = _tagged_block(["w0", "w1", "w2"], {1})
        assert len(cp.extract_noun_pair_contexts(sent, _grid_vocab(), 2)) == 0

    def test_pair_count_matches_brute_force(self):
        rng = np.random.default_rng(0)
        vocab = _grid_vocab()
        for _ in range(200):
            n = int(rng.integers(2, 31))
            noun_pos = {int(i) for i in rng.choice(n, rng.integers(0, n), replace=False)}
            sent = _tagged_block([f"w{i % 40}" for i in range(n)], noun_pos)
            got = cp.extract_noun_pair_contexts(sent, vocab, 2, max_between=10)
            expected = sum(
                1
                for i in sorted(noun_pos)
                for j in sorted(noun_pos)
                if i < j and 1 <= j - i - 1 <= 10
            )
            assert len(got) == expected

    def test_invariants_on_random_sentences(self):
        rng = np.random.default_rng(1)
        vocab = _grid_vocab()
        for _ in range(100):
            n = int(rng.integers(2, 25))
            noun_pos = {int(i) for i in rng.choice(n, rng.integers(2, n + 1) - 1,
                                                   replace=False)}
            sent = _tagged_block([f"w{i % 40}" for i in range(n)], noun_pos)
            for ctx in cp.extract_noun_pair_contexts(sent, vocab, m_out=4):
                assert 1 <= ctx.m_in <= 10
                assert len(ctx.w_bef) == 4 and len(ctx.w_aft) == 4


class TestRelationLabels:
    def test_codec_round_trips_all_19(self):
        assert len(cp.ALL_LABELS) == len(set(cp.ALL_LABELS)) == 19
        for i, surface in enumerate(cp.ALL_LABELS):
            assert cp.parse_label(surface) == i
            assert cp.parse_label(f" {surface}\n") == i
        # family f's two directions are labels 2f and 2f + 1
        for i, surface in enumerate(cp.ALL_LABELS[:-1]):
            direction = ("e1,e2", "e2,e1")[i % 2]
            assert surface == f"{cp.FAMILIES[i // 2]}({direction})"

    def test_other_has_no_direction(self):
        other = cp.parse_label("Other")
        assert other == cp.OTHER == len(cp.ALL_LABELS) - 1
        assert cp.ALL_LABELS[other] == "Other"
        with pytest.raises(ValueError):
            cp.parse_label("Other(e1,e2)")

    def test_unknown_label_rejected(self):
        for text in ("Cause-Effect(e3,e1)", "Nonsense", "cause-effect(e1,e2)"):
            with pytest.raises(ValueError, match=re.escape(
                    f"unknown relation label: {text!r}")):
                cp.parse_label(text)


SEMEVAL_SAMPLE = '''1\t"Financial <e1>stress</e1> is one of the main causes of <e2>divorce</e2>"
Cause-Effect(e1,e2)

2\t"The <e1>burst</e1> has been caused by water hammer <e2>pressure</e2>"
Cause-Effect(e2,e1)
Comment: example with a trailing comment

3\t"A <e1>word embedding</e1> maps into a <e2>vector space</e2>"
Other
'''


def _semeval_vocab():
    words = {w: 2 for w in ("financial stress is one of the main causes divorce "
                            "burst has been caused by water hammer pressure a "
                            "word embedding maps into vector space").split()}
    nouns = {w: 2 for w in ("stress", "divorce", "burst", "pressure",
                            "embedding", "space")}
    return make_vocab(words, nouns)


class TestSemEvalParsing:
    def test_example_sentences(self, files):
        vocab = _semeval_vocab()
        instances = cp.parse_semeval(files.path(SEMEVAL_SAMPLE), vocab,
                                     m_out=5)
        assert instances.ids.tolist() == [1, 2, 3]
        labels = instances.labels.tolist()
        assert labels == [0, 1, cp.OTHER]
        a = instances.contexts.context(0)
        assert cp.ALL_LABELS[labels[0]] == "Cause-Effect(e1,e2)"
        assert a.n1 == vocab.noun_ids(["stress"])[0]
        assert a.n2 == vocab.noun_ids(["divorce"])[0]
        expected_in = tuple(vocab.word_ids([w])[0] for w in
                            ("is", "one", "of", "the", "main", "causes", "of"))
        assert a.w_in == expected_in

        b = instances.contexts.context(1)
        assert cp.ALL_LABELS[labels[1]] == "Cause-Effect(e2,e1)"
        assert b.n1 == vocab.noun_ids(["burst"])[0]

    def test_multi_token_entity_head_is_last_token(self, files):
        vocab = _semeval_vocab()
        instances = cp.parse_semeval(files.path(SEMEVAL_SAMPLE), vocab,
                                     m_out=5)
        c = instances.contexts.context(2)
        assert c.n1 == vocab.noun_ids(["embedding"])[0]
        assert c.n2 == vocab.noun_ids(["space"])[0]
        # 'vector', the non-head token of e2, lands in w_in
        assert vocab.word_ids(["vector"])[0] in c.w_in

    def test_outside_windows_padded(self, files):
        vocab = _semeval_vocab()
        instances = cp.parse_semeval(files.path(SEMEVAL_SAMPLE), vocab,
                                     m_out=5)
        a = instances.contexts.context(0)
        assert len(a.w_bef) == 5 and len(a.w_aft) == 5
        assert a.w_bef[-1] == vocab.word_ids(["financial"])[0]
        assert a.w_bef[0] == cp.NULL_WORD     # sentence boundary padding
        assert all(w == cp.NULL_WORD for w in a.w_aft)

    def test_adjacent_entities_allowed(self, files):
        text = '7\t"The <e1>tank</e1> <e2>crew</e2> left"\nOther\n'
        vocab = make_vocab({"the": 1, "tank": 1, "crew": 1, "left": 1},
                           {"tank": 1, "crew": 1})
        (ctx,) = cp.parse_semeval(files.path(text), vocab, m_out=2).contexts
        assert ctx.m_in == 0

    def test_missing_markup_error_carries_id(self, files):
        path = files.path('9\t"no entities here"\nOther\n')
        with pytest.raises(cp.SemEvalFormatError,
                           match=f"^{path}:1: instance 9: missing <e1>"):
            cp.parse_semeval(path, _semeval_vocab(), 2)

    def test_unknown_label_error_carries_id(self, files):
        path = files.path('4\t"<e1>a</e1> x <e2>b</e2>"\nMade-Up(e1,e2)\n')
        with pytest.raises(cp.SemEvalFormatError,
                           match=f"^{path}:2: instance 4: unknown relation"):
            cp.parse_semeval(path, _semeval_vocab(), 2)

    @settings(max_examples=500, deadline=None)
    @given(sentence=st.one_of(
        st.lists(st.sampled_from(["<e1>", "</e1>", "<e2>", "</e2>", "<e1",
                                  "/e1>", "</", "e2>", "<", ">", "a", "b c",
                                  " ", "\n"]),
                 max_size=14).map("".join),
        st.text(st.sampled_from("<>/e12 a\n"), max_size=30)))
    @example(sentence="<e1>a</e1> b <e2>c</e2> d")
    @example(sentence="<e1><e2>a</e1>b</e2>")              # nested
    @example(sentence="<e2>a</e2> <e1>b</e1>")              # out of order
    @example(sentence="<e1>a<e1>b</e1>c</e1><e2></e2>")     # repeated
    @example(sentence="<e1>a</e1> <e2>b")                   # unclosed
    @example(sentence="</e1><e1>x</e2><e2>")                # close first
    def test_entity_spans_match_the_regex_search(self, sentence):
        def outcome(spans):
            try:
                return spans(sentence)
            except ValueError as exc:
                return str(exc)
        assert outcome(cp._entity_spans) == outcome(_regex_entity_spans)


def _regex_entity_spans(sentence):
    """The entity spans as two non-greedy ``re.search`` calls found them:
    the reference for ``cp._entity_spans``."""
    m1 = re.search(r"<e1>(.*?)</e1>", sentence, flags=re.S)
    m2 = re.search(r"<e2>(.*?)</e2>", sentence, flags=re.S)
    if m1 is None or m2 is None:
        raise ValueError("missing <e1>/<e2> markup")
    if m1.start() > m2.start():
        raise ValueError("entity markup out of order")
    return (sentence[:m1.start()], m1.group(1), sentence[m1.end():m2.start()],
            m2.group(1), sentence[m2.end():])


class TestContextFile:
    def test_round_trip(self, tmp_path):
        vocab = _grid_vocab()
        sent = _tagged_block([f"w{i}" for i in range(9)], {1, 4, 7})
        ctxs = cp.extract_noun_pair_contexts(sent, vocab, m_out=3)
        path = tmp_path / "ctx.txt"
        n = cp.write_contexts(ctxs, 3, path)
        assert n == len(ctxs)
        reader = cp.ContextFile(path)
        assert reader.m_out == 3
        loaded = list(reader)
        assert [(c.n1, c.n2, c.w_in, c.w_bef, c.w_aft) for c in loaded] == \
            [(c.n1, c.n2, c.w_in, c.w_bef, c.w_aft) for c in ctxs]
        # re-iterable
        assert len(list(reader)) == len(ctxs)

    def test_no_contexts_round_trip(self, tmp_path):
        """A corpus with no pairs writes a file that loads."""
        path = tmp_path / "ctx.txt"
        assert cp.write_contexts(iter(()), 3, path) == 0
        reader = cp.ContextFile(path)
        assert reader.m_out == 3 and list(reader) == []


class TestContextFileFormat:
    def test_small_ids_stored_as_int32(self, tmp_path):
        path = tmp_path / "ctx.txt"
        cp.write_contexts(cp.ContextArrays.pack([cp.NounPairContext(
            3, 4, (5, 6), (0, 0, 0, 7, 8), (9, 10, 0, 0, 0))], 5), 5, path)
        assert path.read_bytes().startswith(
            b"relemb-contexts v1 m_out=5 n=1 nin=2 dtype=int32\n")
        arrays = cp.ContextFile(path).arrays
        for name in ("n1", "n2", "w_in", "w_bef", "w_aft"):
            assert getattr(arrays, name).dtype == np.int32, name
        assert arrays.offsets.tolist() == [0, 2]
        assert arrays.w_bef.tolist() == [[0, 0, 0, 7, 8]]

    def test_ids_beyond_int32_rejected(self, tmp_path):
        """An id int32 cannot hold is never wrapped: the write fails and
        leaves no file."""
        path = tmp_path / "ctx.txt"
        ctx = cp.NounPairContext(1, 2, (3, 2 ** 31), (0,), (0,))
        with pytest.raises(ValueError, match="3 .. 2147483648 do not all "
                                             "fit int32"):
            cp.write_contexts(cp.ContextArrays.pack([ctx], 1), 1, path)
        assert list(tmp_path.iterdir()) == []


# --- property tests --------------------------------------------------------

def _reference_reader(lines):
    """The per-line body of the tagged-corpus reader before its partition
    fast path: ``(sentences as (words, tags), skipped lines)``."""
    sents, skipped, words, tags = [], 0, [], []
    for line in lines:
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            if words:
                sents.append((tuple(words), tuple(tags)))
                words, tags = [], []
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            skipped += 1
            continue
        words.append(parts[0])
        tags.append(parts[1])
    if words:
        sents.append((tuple(words), tuple(tags)))
    return sents, skipped


def _reference_vocabulary(sents, max_words, max_nouns, lowercase):
    """build_vocabulary's counting before it used Counter.update: one
    increment per token, ties ranked by first occurrence."""
    words, nouns = {}, {}
    for sent_words, sent_tags in sents:
        for surface, tag in zip(sent_words, sent_tags):
            key = surface.lower() if lowercase else surface
            words[key] = words.get(key, 0) + 1
            if tag in cp.NOUN_TAGS:
                nouns[key] = nouns.get(key, 0) + 1
    ranked_w = sorted(words.items(), key=lambda kv: -kv[1])[:max_words]
    ranked_n = sorted(nouns.items(), key=lambda kv: -kv[1])[:max_nouns]
    return ([s for s, _ in ranked_w], [c for _, c in ranked_w],
            [s for s, _ in ranked_n], [c for _, c in ranked_n])


_SURFACES = st.sampled_from(["a", "B", "b", "Cat", "cat", "dog", "x y",
                             "é", "Ünit", " ", "zz"])
_TAGS = st.sampled_from(["NN", "NNS", "NNP", "NNPS", "VB", "DT", "NN ", " "])
_ODD_LINES = st.sampled_from([
    "", " ", "\t", " \t ", "\r", "  \r", "oops", "a\tb\tc", "\tNN", "w\t",
    "w\t\r", "\t\t", "cat\tNN\r", "dog\tVB\r\r", "x\t \r"])
_LINES = st.lists(st.one_of(
    st.builds(lambda w, t: f"{w}\t{t}", _SURFACES, _TAGS), _ODD_LINES),
    max_size=40)


@settings(max_examples=200, deadline=None)
@given(lines=_LINES, final_newline=st.booleans(), lowercase=st.booleans(),
       max_words=st.integers(1, 8), max_nouns=st.integers(1, 8))
def test_reader_vocabulary_and_id_map_match_references(
        lines, final_newline, lowercase, max_words, max_nouns,
        tmp_path_factory):
    """The text is read from a file, as universal newlines read it; the
    vocabulary is built on both routes."""
    text = "\n".join(lines) + ("\n" if final_newline else "")
    files = CorpusFiles(tmp_path_factory.mktemp("tag"))
    sents, reader = files.read(text)
    want, skipped = _reference_reader(io.StringIO(text, newline=None))
    assert [(s.words, s.tags) for s in sents] == want
    assert reader.skipped_lines == skipped
    assert reader.sentences_read == len(want)
    if not sents:
        return

    vocab = on_both_routes(lambda: cp.build_vocabulary(
        reader, max_words, max_nouns, lowercase))
    words, word_counts, nouns, noun_counts = _reference_vocabulary(
        want, max_words, max_nouns, lowercase)
    assert vocab.word_surfaces[2:] == words
    assert vocab.word_counts[2:] == word_counts
    assert vocab.noun_surfaces[1:] == nouns
    assert vocab.noun_counts[1:] == noun_counts

    word_table = {s: i for i, s in enumerate(vocab.word_surfaces) if i >= 2}
    noun_table = {s: i for i, s in enumerate(vocab.noun_surfaces) if i >= 1}

    def key(surface):
        return surface.lower() if lowercase else surface

    for sent in sents:
        assert vocab.word_ids(sent.words) == [
            word_table.get(key(w), cp.UNK_WORD) for w in sent.words]
        assert vocab.word_ids(sent.words) == [vocab.word_ids([w])[0]
                                              for w in sent.words]
        assert vocab.noun_ids(sent.words) == [
            noun_table.get(key(w), cp.UNK_NOUN) for w in sent.words]


def test_reader_over_several_sources(files):
    # the first file has no closing blank line
    sents, reader = files.read("a\tNN\nbad\nb\tNN", "e\tNN\n",
                               "c\tNN\n\nd\tVB\n\n")
    assert [s.words for s in sents] == [("a", "b"), ("e",), ("c",), ("d",)]
    assert (reader.sentences_read, reader.skipped_lines) == (4, 1)
    # a second pass re-reads the files and restarts the counts
    assert [s.words for s in reader] == [("a", "b"), ("e",), ("c",), ("d",)]
    assert (reader.sentences_read, reader.skipped_lines) == (4, 1)


_CONTEXTS = st.integers(1, 4).flatmap(lambda m_out: st.tuples(
    st.just(m_out),
    st.lists(st.builds(
        cp.NounPairContext,
        st.integers(0, 2 ** 31 - 1), st.integers(0, 300),
        st.lists(st.integers(0, 300), min_size=1, max_size=5).map(tuple),
        st.lists(st.integers(0, 300), min_size=m_out,
                 max_size=m_out).map(tuple),
        st.lists(st.integers(-2 ** 31, 2 ** 31 - 1), min_size=m_out,
                 max_size=m_out).map(tuple)),
        max_size=12)))


@settings(max_examples=150, deadline=None)
@given(data=_CONTEXTS)
def test_context_file_round_trip(data, tmp_path_factory):
    m_out, contexts = data
    path = tmp_path_factory.mktemp("ctx") / "ctx.txt"
    assert cp.write_contexts(cp.ContextArrays.pack(contexts, m_out), m_out,
                             path) == len(contexts)
    reader = cp.ContextFile(path)
    assert list(reader) == contexts
    arrays = reader.arrays
    assert len(arrays) == len(contexts)
    assert [arrays.context(r) for r in range(len(contexts))] == contexts
    assert arrays.offsets[-1] == sum(c.m_in for c in contexts)


# contexts whose ids all fit int32, as a context file then stores them
_SMALL_CONTEXTS = st.integers(1, 4).flatmap(lambda m_out: st.tuples(
    st.just(m_out),
    st.lists(st.builds(
        cp.NounPairContext, st.integers(0, 300), st.integers(0, 300),
        *(st.lists(st.integers(0, 300), min_size=lo, max_size=hi).map(tuple)
          for lo, hi in ((1, 5), (m_out, m_out), (m_out, m_out)))),
        max_size=12)))


@settings(max_examples=100, deadline=None)
@given(data=_SMALL_CONTEXTS, picks=st.lists(st.integers(0, 11), max_size=16),
       ids=st.lists(st.integers(0, 10 ** 18), min_size=12, max_size=12))
def test_take_equals_packing_the_selected_contexts(data, picks, ids,
                                                   tmp_path_factory):
    """``take(rows)``, rows in any order and repeated, of packed arrays and
    of the int32 arrays read from a file, equals packing the contexts at
    `rows`; LabelledContexts.take takes the ids and labels alike."""
    m_out, contexts = data
    rows = [p % len(contexts) for p in picks] if contexts else []
    want = cp.ContextArrays.pack([contexts[r] for r in rows], m_out)
    path = tmp_path_factory.mktemp("ctx") / "ctx.txt"
    cp.write_contexts(cp.ContextArrays.pack(contexts, m_out), m_out, path)
    read = cp.ContextFile(path).arrays
    assert read.w_in.dtype == np.int32
    for arrays in (cp.ContextArrays.pack(contexts, m_out), read):
        got = arrays.take(np.array(rows, np.int64))
        for name in ("n1", "n2", "offsets", "w_in", "w_bef", "w_aft"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == np.int64 and a.flags.c_contiguous, name
            assert a.shape == b.shape and (a == b).all(), name
    labels = [i % len(cp.ALL_LABELS) for i in ids][:len(contexts)]
    instances = cp.LabelledContexts(np.array(ids[:len(contexts)], np.int64),
                                    np.array(labels, np.int64), read)
    taken = instances.take(rows)
    assert taken.ids.tolist() == [ids[r] for r in rows]
    assert taken.labels.tolist() == [labels[r] for r in rows]
    assert list(taken.contexts) == [contexts[r] for r in rows]


@settings(max_examples=100, deadline=None)
@given(data=_SMALL_CONTEXTS, row=st.integers(0, 11), pick=st.integers(0, 100),
       kind=st.sampled_from(["negative_id", "between", "negative_count"]))
def test_corrupt_context_names_path_and_context(data, row, pick, kind,
                                                tmp_path_factory):
    """A context file with one bad context: a negative id in any field or
    no words between the pair (checked with the vocabulary), or a negative
    between-word count (checked on opening); the error names the file and
    the context."""
    m_out, contexts = data
    assume(contexts)
    row %= len(contexts)
    path = tmp_path_factory.mktemp("ctx") / "ctx.txt"
    vocab = make_vocab({f"w{i}": 1 for i in range(300)},
                       {f"n{i}": 1 for i in range(300)})
    ctx = contexts[row]
    fields = [[ctx.n1, ctx.n2], list(ctx.w_in), list(ctx.w_bef),
              list(ctx.w_aft)]
    if kind == "negative_id":
        f = pick % 4
        fields[f][(pick // 4) % len(fields[f])] = -7
        message = f"{'noun' if f == 0 else 'word'} id -7 outside"
    elif kind == "between":
        fields[1] = []
        message = "no words between the pair"
    contexts[row] = cp.NounPairContext(*fields[0], *map(tuple, fields[1:]))
    cp.write_contexts(cp.ContextArrays.pack(contexts, m_out), m_out, path)
    if kind == "negative_count":
        data = bytearray(path.read_bytes())
        at = data.index(b"\n") + 1 + 4 * (2 * len(contexts) + row)
        data[at:at + 4] = np.int32(-1).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(cp.ArtifactError) as err:
            cp.ContextFile(path)
        message = "negative count -1 of words between the pair"
    else:
        with pytest.raises(cp.ArtifactError) as err:
            et._checked_arrays(cp.ContextFile(path).arrays, vocab)
    assert str(err.value).startswith(f"{path}: context {row}: {message}")


def _reference_slots(w_in, i, c, reach):
    """neighbor_slots before the array form: one list per position."""
    m_in = len(w_in)
    limit = c if reach is None else min(c, reach)
    left = [w_in[i - j - 1] if j <= limit and i - j >= 1 else cp.NULL_WORD
            for j in range(1, c + 1)]
    right = [w_in[i + j - 1] if j <= limit and i + j <= m_in else cp.NULL_WORD
             for j in range(1, c + 1)]
    return left + right


@settings(max_examples=200, deadline=None)
@given(spans=st.lists(st.lists(st.integers(2, 50), min_size=1, max_size=8),
                      min_size=1, max_size=6),
       c=st.integers(1, 4),
       reach=st.one_of(st.none(), st.integers(0, 5)),
       cut=st.data())
def test_neighbor_slot_rows_match_per_context_form(spans, c, reach, cut):
    w_in = np.array([w for span in spans for w in span], np.int32)
    offsets = np.cumsum([0] + [len(span) for span in spans])
    want = [_reference_slots(span, i, c, reach)
            for span in spans for i in range(1, len(span) + 1)]
    rows = cp.neighbor_slot_rows(w_in, offsets, c, reach)
    assert rows.dtype == np.int64 and rows.tolist() == want
    # a block of the contexts, read from the whole array
    lo = cut.draw(st.integers(0, len(spans) - 1))
    hi = cut.draw(st.integers(lo + 1, len(spans)))
    assert (cp.neighbor_slot_rows(w_in, offsets[lo:hi + 1], c, reach).tolist()
            == want[offsets[lo]:offsets[hi]])
    for span in spans:
        ctx = cp.NounPairContext(0, 0, tuple(span), (0,), (0,))
        for i in range(1, len(span) + 1):
            assert (cp.neighbor_slots(ctx, i, c, reach)
                    == _reference_slots(span, i, c, reach))


# --- the block reader and the array stages -----------------------------------

# Fields of tagged lines: whitespace in and out of ASCII (\x0b, \x1c, \xa0,
# U+3000), a surface whose lower() is longer (İx), the noun tags and near
# misses.
_FIELDS = st.sampled_from([
    "a", "A", "cat", "Cat", "İx", "ǅ", "é", "x y", "a\x00", "\xa0", "\x1c",
    "\x0b", " ", "　", "", "NN", "NNS", "NNP", "NNPS", "NNPSX", "NX",
    "VB", "NN ", "N\xa0"])
_RAW_LINES = st.one_of(
    st.builds(lambda w, t: f"{w}\t{t}", _FIELDS, _FIELDS),
    st.sampled_from(["", " ", "\t", "\xa0\t\xa0", "\xa0", "\x1c", "oops",
                     "a\tb\tc", "\tNN", "w\t", "\t\t", "é", "　 ",
                     "x\tNN\t", "\x1c\tNN"]))
_SOURCES = st.lists(
    st.tuples(st.lists(st.tuples(_RAW_LINES,
                                 st.sampled_from(["\n", "\r\n", "\r"])),
                       max_size=25),
              st.booleans()),
    min_size=1, max_size=3)


def _write_sources(root, sources):
    paths = []
    for n, (lines, final_end) in enumerate(sources):
        text = "".join(line + end for line, end in lines)
        if lines and not final_end:
            text = text[:-len(lines[-1][1])]
        path = root / f"part{n}.tag"
        path.write_bytes(text.encode("utf-8"))
        paths.append(path)
    return paths


@settings(max_examples=300, deadline=None)
@given(sources=_SOURCES, block=st.integers(1, 48))
def test_block_reader_matches_per_line_loop(sources, block, tmp_path_factory):
    """Blocks a few bytes long, so lines, CRLF pairs and sentences straddle
    them: the token arrays and counts equal the per-line loop's."""
    paths = _write_sources(tmp_path_factory.mktemp("tag"), sources)
    reader = cp.TaggedCorpusReader(*paths)
    sents = list(reader)
    want = (reader.skipped_lines, reader.sentences_read)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "_TAGGED_BLOCK", block)
        got = block_sentences(reader.blocks())
    assert got == [(s.words, tuple(t in cp.NOUN_TAGS for t in s.tags))
                   for s in sents]
    assert (reader.skipped_lines, reader.sentences_read) == want
    assert want[1] == len(sents)


def test_byte_path_reads_line_ends_whitespace_and_utf8(tmp_path,
                                                       monkeypatch):
    """The compiled scan settles these lines by itself: the per-line loop
    never runs."""
    if kernels.load() is None:
        pytest.skip("no C compiler found: there is no compiled scan, and "
                    "the per-line loop reads every line")
    path = tmp_path / "c.tag"
    path.write_bytes("a\tNN\r\nİb\tVB\rc\tNN\t\n\x1c\t \x0b\n\xa0\tNNS\n"
                     "\n\r\n \r\nd e\tNNP\n\tNN\nf\t\nz\tNNPS".encode())
    reader = cp.TaggedCorpusReader(path)
    want = [(s.words, s.tags) for s in reader]
    counts = (reader.skipped_lines, reader.sentences_read)
    assert want == [(("a", "İb"), ("NN", "VB")), (("\xa0",), ("NNS",)),
                    (("d e", "z"), ("NNP", "NNPS"))]
    assert counts == (3, 3)

    def per_line_loop(self, lines):
        raise AssertionError("the per-line loop ran")

    monkeypatch.setattr(cp.TaggedCorpusReader, "_sentences", per_line_loop)
    assert block_sentences(reader.blocks()) == [
        (words, tuple(t in cp.NOUN_TAGS for t in tags))
        for words, tags in want]
    assert (reader.skipped_lines, reader.sentences_read) == counts


@pytest.mark.parametrize("line", ["\xa0\t\xa0", "　", "é\t "])
def test_unsettled_block_goes_through_per_line_loop(tmp_path, line):
    path = tmp_path / "c.tag"
    path.write_text(f"a\tNN\n{line}\nb\tNN\n\nc\tVB\n", encoding="utf-8")
    reader = cp.TaggedCorpusReader(path)
    want = [(s.words, tuple(t in cp.NOUN_TAGS for t in s.tags))
            for s in reader]
    counts = (reader.skipped_lines, reader.sentences_read)
    assert block_sentences(reader.blocks()) == want
    assert (reader.skipped_lines, reader.sentences_read) == counts


def test_surfaces_in_one_bucket_are_told_apart(tmp_path, monkeypatch):
    """With a hash multiplier of 0 every surface hashes alike, so each new
    surface probes past all the earlier ones and only the byte comparison
    tells them apart: same length, same first or last bytes, a prefix."""
    monkeypatch.setattr(kernels, "_SURFACE_HASH", 0)
    words = ["abcdefghij", "zzzzzzzzij", "abcdefghij", "abcdefghik", "a",
             "ab", "b", "a", "İ", "I", "zzzzzzzzij"]
    path = tmp_path / "c.tag"
    path.write_text("".join(f"{w}\t{'NN' if i % 2 else 'VB'}\n"
                            for i, w in enumerate(words)), encoding="utf-8")
    (block,) = cp.TaggedCorpusReader(path).blocks()
    assert block.surfaces == list(dict.fromkeys(words))
    assert [block.surfaces[i] for i in block.ids] == words
    assert block.noun.tolist() == [bool(i % 2) for i in range(len(words))]


@settings(max_examples=100, deadline=None)
@given(sources=_SOURCES, block=st.integers(1, 48))
def test_block_reader_with_every_surface_in_one_bucket(sources, block,
                                                       tmp_path_factory):
    paths = _write_sources(tmp_path_factory.mktemp("tag"), sources)
    reader = cp.TaggedCorpusReader(*paths)
    want = [(s.words, tuple(t in cp.NOUN_TAGS for t in s.tags))
            for s in reader]
    counts = (reader.skipped_lines, reader.sentences_read)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "_TAGGED_BLOCK", block)
        mp.setattr(kernels, "_SURFACE_HASH", 0)
        assert block_sentences(reader.blocks()) == want
    assert (reader.skipped_lines, reader.sentences_read) == counts


@settings(max_examples=100, deadline=None)
@given(sources=_SOURCES, block=st.integers(1, 48))
def test_no_compiler_reads_paths_through_per_line_loop(sources, block,
                                                       tmp_path_factory):
    """Without the compiled scan, :meth:`blocks` reads each path as text
    through the per-line loop: the same sentences and counts."""
    paths = _write_sources(tmp_path_factory.mktemp("tag"), sources)
    reader = cp.TaggedCorpusReader(*paths)

    def read():
        sentences = block_sentences(reader.blocks())
        return sentences, reader.skipped_lines, reader.sentences_read

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "_TAGGED_BLOCK", block)
        want = read()
        mp.setattr(kernels, "load", lambda: None)
        assert read() == want


def test_long_words_read_in_bounded_memory(tmp_path):
    """Words of many KiB among thousands of short tokens: the surfaces
    equal the per-line loop's, and the scan's arrays grow with the bytes
    of the words, not with their number times the longest word."""
    long = "x" * (16 << 10)
    lines = [f"w{i % 300}\t{'NN' if i % 3 else 'VB'}" for i in range(4000)]
    lines[10:10] = [f"{long}\tNN", f"{long[:-1]}y\tNN", f"{long}\tVB",
                    f"y{long}\tNNS", f"{long}é\tNN"]
    for i in range(len(lines) - 7, 0, -7):
        lines.insert(i, "")
    path = tmp_path / "c.tag"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    reader = cp.TaggedCorpusReader(path)
    want = [(s.words, tuple(t in cp.NOUN_TAGS for t in s.tags))
            for s in reader]
    tracemalloc.start()
    try:
        blocks = list(reader.blocks())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block_sentences(blocks) == want
    assert peak < 8 << 20


@pytest.mark.parametrize("block", [16, 1 << 16])
def test_block_reader_names_the_line_of_a_bad_byte(tmp_path, monkeypatch,
                                                   block):
    monkeypatch.setattr(cp, "_TAGGED_BLOCK", block)
    path = tmp_path / "c.tag"
    path.write_bytes(b"a\tNN\nb\tNN\n\n" * 5 + b"c\t\xffNN\n")
    reader = cp.TaggedCorpusReader(path)
    with pytest.raises(cp.ArtifactError, match=f"^{path}:16: not UTF-8"):
        list(reader.blocks())


def test_bad_byte_found_in_bounded_memory(tmp_path):
    """The search for a bad byte reads one line at a time: 6.5 MB of lines
    of multi-byte characters before it cost under 1 MiB."""
    path = tmp_path / "c.tag"
    path.write_bytes(("é" * 30 + "\tNN\n").encode() * 100_000
                     + b"x\xff\tNN\n")
    tracemalloc.start()
    try:
        err = cp.not_utf8(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err) == f"{path}:100001: not UTF-8: byte 0xff"
    assert peak < 1 << 20


def _reference_extract(sentence, vocab, m_out, max_between):
    """extract_noun_pair_contexts before the array form: one sentence, one
    pair at a time."""
    positions = [i for i, t in enumerate(sentence.tags) if t in cp.NOUN_TAGS]
    word_ids = vocab.word_ids(sentence.words)
    noun_ids = vocab.noun_ids([sentence.words[p] for p in positions])
    out = []
    for a in range(len(positions) - 1):
        for b in range(a + 1, len(positions)):
            p1, p2 = positions[a], positions[b]
            if not 1 <= p2 - p1 - 1 <= max_between:
                continue
            bef = word_ids[max(0, p1 - m_out):p1]
            aft = word_ids[p2 + 1:p2 + 1 + m_out]
            out.append(cp.NounPairContext(
                noun_ids[a], noun_ids[b], tuple(word_ids[p1 + 1:p2]),
                (cp.NULL_WORD,) * (m_out - len(bef)) + tuple(bef),
                tuple(aft) + (cp.NULL_WORD,) * (m_out - len(aft))))
    return out


def _counter_vocabulary(sentences, max_words, max_nouns, lowercase):
    """build_vocabulary before the array form: Counter.update per
    sentence, ranked by a stable sort on count."""
    from collections import Counter

    words, nouns = Counter(), Counter()
    for sent in sentences:
        keys = [w.lower() for w in sent.words] if lowercase else sent.words
        words.update(keys)
        nouns.update([k for k, t in zip(keys, sent.tags) if t in cp.NOUN_TAGS])
    ranked_w = sorted(words.items(), key=lambda kv: -kv[1])[:max_words]
    ranked_n = sorted(nouns.items(), key=lambda kv: -kv[1])[:max_nouns]
    return cp.Vocabulary(
        ["<NULL>", "<UNK>"] + [s for s, _ in ranked_w],
        ["<UNK>"] + [s for s, _ in ranked_n],
        [0, sum(words.values()) - sum(c for _, c in ranked_w)]
        + [c for _, c in ranked_w],
        [sum(nouns.values()) - sum(c for _, c in ranked_n)]
        + [c for _, c in ranked_n], lowercase)


@st.composite
def _tagged_sentences(draw):
    """Sentences of 1-14 tokens with 0-6 nouns, edges included."""
    sents = []
    for _ in range(draw(st.integers(1, 10))):
        n = draw(st.integers(1, 14))
        nouns = draw(st.sets(st.integers(0, n - 1), max_size=6))
        words = draw(st.lists(st.sampled_from(
            ["a", "A", "b", "B", "cat", "Cat", "dog", "x", "İ", "é"]),
            min_size=n, max_size=n))
        tags = [draw(st.sampled_from(sorted(cp.NOUN_TAGS))) if i in nouns
                else draw(st.sampled_from(["DT", "VB", "NNX", "N"]))
                for i in range(n)]
        sents.append(cp.TaggedSentence(tuple(words), tuple(tags)))
    return sents


@settings(max_examples=200, deadline=None)
@given(sents=_tagged_sentences(), cuts=st.lists(st.integers(0, 10),
                                                max_size=2),
       block=st.integers(1, 64), max_between=st.integers(1, 12),
       m_out=st.integers(1, 6), max_words=st.integers(1, 12),
       max_nouns=st.integers(1, 8), lowercase=st.booleans())
def test_extraction_and_counting_match_per_sentence_references(
        sents, cuts, block, max_between, m_out, max_words, max_nouns,
        lowercase, tmp_path_factory):
    root = tmp_path_factory.mktemp("arrays")
    bounds = [0, *sorted(c % (len(sents) + 1) for c in cuts), len(sents)]
    paths = []
    for n, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        paths.append(root / f"part{n}.tag")
        paths[-1].write_text("".join(
            "".join(f"{w}\t{t}\n" for w, t in zip(s.words, s.tags)) + "\n"
            for s in sents[lo:hi]), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "_TAGGED_BLOCK", block)
        want = _counter_vocabulary(sents, max_words, max_nouns, lowercase)
        want.save(root / "want.txt")
        reader = cp.TaggedCorpusReader(*paths)

        def saved():
            vocab = cp.build_vocabulary(reader, max_words, max_nouns,
                                        lowercase)
            vocab.save(root / "vocab.txt")
            return vocab, (root / "vocab.txt").read_bytes()

        vocab, saved_bytes = on_both_routes(saved)
        assert saved_bytes == (root / "want.txt").read_bytes()

        reference = [ctx for s in sents for ctx in _reference_extract(
            s, vocab, m_out, max_between)]
        contexts = (cp.extract_noun_pair_contexts(b, vocab, m_out, max_between)
                    for b in cp.TaggedCorpusReader(*paths).blocks())
        assert cp.write_contexts(contexts, m_out, root / "c.txt") == len(
            reference)
    assert list(cp.ContextFile(root / "c.txt")) == reference
    assert [ctx for s in sents for ctx in cp.extract_noun_pair_contexts(
        cp.TokenBlock.of_sentences([s]), vocab, m_out, max_between)
    ] == reference
    assert not (root / "c.txt.part").exists()
