import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from relemb import corpus as cp, kernels
from conftest import make_vocab


class TestTaggedParsing:
    def test_two_token_sentence(self):
        reader = cp.parse_tagged_corpus(io.StringIO("conflicts\tNNS\nare\tVBP\n\n"))
        sents = list(reader)
        assert len(sents) == 1
        assert sents[0].words == ("conflicts", "are")
        assert sents[0].tags == ("NNS", "VBP")
        assert reader.skipped_lines == 0

    def test_blank_leading_lines_ignored(self):
        text = "\n\nconflicts\tNNS\nare\tVBP\n\n"
        sents = list(cp.parse_tagged_corpus(io.StringIO(text)))
        assert len(sents) == 1
        assert sents[0].words == ("conflicts", "are")

    def test_one_column_line_skipped_with_warning(self):
        reader = cp.parse_tagged_corpus(io.StringIO("oops\nfine\tNN\n\n"))
        sents = list(reader)
        assert reader.skipped_lines == 1
        assert sents[0].words == ("fine",)

    def test_empty_fields_skipped(self):
        reader = cp.parse_tagged_corpus(io.StringIO("\tNN\nword\t\nok\tNN\n\n"))
        sents = list(reader)
        assert reader.skipped_lines == 2
        assert sents[0].words == ("ok",)

    def test_empty_file_yields_nothing(self):
        assert list(cp.parse_tagged_corpus(io.StringIO(""))) == []

    def test_missing_trailing_blank_line(self):
        sents = list(cp.parse_tagged_corpus(io.StringIO("a\tNN\nb\tNN")))
        assert len(sents) == 1 and len(sents[0]) == 2


def _sentences(text):
    return list(cp.parse_tagged_corpus(io.StringIO(text)))


class TestVocabulary:
    def test_top_k_and_unk(self):
        text = ("a\tDT\n" * 5) + ("b\tDT\n" * 3) + ("c\tDT\n" * 1) + "\n"
        vocab = cp.build_vocabulary(_sentences(text), max_words=2, max_nouns=1)
        assert vocab.word_id("a") != cp.UNK_WORD
        assert vocab.word_id("b") != cp.UNK_WORD
        assert vocab.word_id("c") == cp.UNK_WORD
        # ranked section ordered by count, ids dense from 2
        assert vocab.word_surfaces[2] == "a"
        assert vocab.word_counts[2] == 5
        assert vocab.total_token_count == 9   # UNK slot absorbs c's count

    def test_noun_counting_restricted_to_noun_tags(self):
        text = "cause\tVB\ncause\tNN\ncause\tNN\nthing\tNN\n\n"
        vocab = cp.build_vocabulary(_sentences(text), 10, 10)
        wid = vocab.word_id("cause")
        nid = vocab.noun_id("cause")
        assert vocab.word_counts[wid] == 3       # all occurrences
        assert vocab.noun_counts[nid] == 2       # NN occurrences only
        assert vocab.total_noun_count == 3

    def test_tie_break_first_seen_wins(self):
        text = "a\tDT\nb\tDT\na\tDT\nb\tDT\n\n"
        vocab = cp.build_vocabulary(_sentences(text), max_words=1, max_nouns=1)
        assert vocab.word_id("a") == 2
        assert vocab.word_id("b") == cp.UNK_WORD

    def test_lowercase_flag(self):
        text = "Cause\tNN\ncause\tNN\n\n"
        v1 = cp.build_vocabulary(_sentences(text), 10, 10, lowercase=True)
        assert v1.word_counts[v1.word_id("CAUSE")] == 2
        v2 = cp.build_vocabulary(_sentences(text), 10, 10, lowercase=False)
        assert v2.word_id("Cause") != v2.word_id("cause")

    def test_lookup_total_and_unk_rate_deterministic(self):
        text = "a\tNN\nb\tDT\n\n"
        vocab = cp.build_vocabulary(_sentences(text), 1, 1)
        held_out = _sentences("a\tNN\nzzz\tDT\nqqq\tDT\n\n")
        for surface in ("a", "b", "zzz", "", "???"):
            assert isinstance(vocab.word_id(surface), int)
        # two of the three held-out tokens fall out of vocabulary
        ids = [vocab.word_id(w) for s in held_out for w in s.words]
        assert ids == [vocab.word_id(w) for s in held_out for w in s.words]
        assert ids.count(cp.UNK_WORD) == 2 and len(ids) == 3

    def test_rank_order_non_increasing(self):
        text = ("x\tDT\n" * 4 + "y\tDT\n" * 7 + "z\tDT\n" * 2) + "\n"
        vocab = cp.build_vocabulary(_sentences(text), 10, 10)
        ranked = vocab.word_counts[2:]
        assert ranked == sorted(ranked, reverse=True)

    def test_save_load_round_trip(self, tmp_path):
        text = "cause\tNN\neffect\tNN\nof\tIN\n\n"
        vocab = cp.build_vocabulary(_sentences(text), 2, 2)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = cp.Vocabulary.load(path)
        assert loaded.word_surfaces == vocab.word_surfaces
        assert loaded.word_counts == vocab.word_counts
        assert loaded.noun_surfaces == vocab.noun_surfaces
        assert loaded.noun_counts == vocab.noun_counts
        assert loaded.lowercase == vocab.lowercase
        assert loaded.word_id("cause") == vocab.word_id("cause")

    @pytest.mark.parametrize("case,line", [
        ("magic", 1), ("header_count", 1), ("lowercase_flag", 1),
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
        assert cp.Vocabulary.load(path).noun_id("cause") == 2
        for line, repeat, message in ((5, "cause\t2\n", "word 'cause'"),
                                      (8, "effect\t1\n", "noun 'effect'")):
            edited = lines.copy()
            edited[line - 1] = repeat
            path.write_text("".join(edited))
            with pytest.raises(cp.ArtifactError,
                               match=f"^{path}:{line}: {message} repeats "
                                     f"line {line - 1}$"):
                cp.Vocabulary.load(path)

    def test_ranked_surface_equal_to_a_reserved_one_loads(self, tmp_path):
        vocab = cp.build_vocabulary(_sentences("<UNK>\tNN\na\tNN\n\n"), 5, 5,
                                    lowercase=False)
        assert vocab.word_surfaces.count("<UNK>") == 2
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        assert cp.Vocabulary.load(path).word_id("<UNK>") == \
            vocab.word_id("<UNK>")


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
            (vocab.noun_id("w1"), vocab.noun_id("w4")),
            (vocab.noun_id("w1"), vocab.noun_id("w8")),
            (vocab.noun_id("w4"), vocab.noun_id("w8")),
        }

    def test_windows_and_between_content(self):
        vocab = _grid_vocab()
        words = [f"w{i}" for i in range(8)]
        sent = _tagged_block(words, {2, 5})
        (ctx,) = cp.extract_noun_pair_contexts(sent, vocab, m_out=3)
        wid = lambda s: vocab.word_id(s)
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
        assert len(cp.ALL_LABELS) == 19
        for lab in cp.ALL_LABELS:
            assert cp.parse_label(lab.surface()) == lab
        assert sorted({cp.label_index(l) for l in cp.ALL_LABELS}) == list(range(19))

    def test_other_has_no_direction(self):
        other = cp.parse_label("Other")
        assert other.direction is None
        assert other.surface() == "Other"

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            cp.parse_label("Cause-Effect(e3,e1)")
        with pytest.raises(ValueError):
            cp.parse_label("Nonsense")


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
    def test_example_sentences(self):
        vocab = _semeval_vocab()
        instances = cp.parse_semeval(io.StringIO(SEMEVAL_SAMPLE), vocab, m_out=5)
        assert instances.ids.tolist() == [1, 2, 3]
        labels = instances.gold()
        a = instances.contexts.context(0)
        assert labels[0] == cp.RelationLabel("Cause-Effect", "e1,e2")
        assert a.n1 == vocab.noun_id("stress")
        assert a.n2 == vocab.noun_id("divorce")
        expected_in = tuple(vocab.word_id(w) for w in
                            ("is", "one", "of", "the", "main", "causes", "of"))
        assert a.w_in == expected_in

        b = instances.contexts.context(1)
        assert labels[1] == cp.RelationLabel("Cause-Effect", "e2,e1")
        assert b.n1 == vocab.noun_id("burst")

    def test_multi_token_entity_head_is_last_token(self):
        vocab = _semeval_vocab()
        instances = cp.parse_semeval(io.StringIO(SEMEVAL_SAMPLE), vocab, m_out=5)
        c = instances.contexts.context(2)
        assert c.n1 == vocab.noun_id("embedding")
        assert c.n2 == vocab.noun_id("space")
        # 'vector', the non-head token of e2, lands in w_in
        assert vocab.word_id("vector") in c.w_in

    def test_outside_windows_padded(self):
        vocab = _semeval_vocab()
        instances = cp.parse_semeval(io.StringIO(SEMEVAL_SAMPLE), vocab, m_out=5)
        a = instances.contexts.context(0)
        assert len(a.w_bef) == 5 and len(a.w_aft) == 5
        assert a.w_bef[-1] == vocab.word_id("financial")
        assert a.w_bef[0] == cp.NULL_WORD     # sentence boundary padding
        assert all(w == cp.NULL_WORD for w in a.w_aft)

    def test_adjacent_entities_allowed(self):
        text = '7\t"The <e1>tank</e1> <e2>crew</e2> left"\nOther\n'
        vocab = make_vocab({"the": 1, "tank": 1, "crew": 1, "left": 1},
                           {"tank": 1, "crew": 1})
        (ctx,) = cp.parse_semeval(io.StringIO(text), vocab, m_out=2).contexts
        assert ctx.m_in == 0

    def test_missing_markup_error_carries_id(self):
        text = '9\t"no entities here"\nOther\n'
        with pytest.raises(cp.SemEvalFormatError, match="9"):
            cp.parse_semeval(io.StringIO(text), _semeval_vocab(), 2)

    def test_unknown_label_error_carries_id(self):
        text = '4\t"<e1>a</e1> x <e2>b</e2>"\nMade-Up(e1,e2)\n'
        with pytest.raises(cp.SemEvalFormatError, match="4"):
            cp.parse_semeval(io.StringIO(text), _semeval_vocab(), 2)


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

    @pytest.mark.parametrize("line,message", [
        ("3 4\t5 -1\t0 0 0 7 8\t9 10 0 0 0", "negative id"),
        ("3 4\t5 6\t0 0 7 8\t9 10 0 0 0", "outside windows of 4 and 5"),
        ("3 4\t5 6\t0 0 0 7 8", "3 tab-separated fields"),
        ("3 4\t5 x\t0 0 0 7 8\t9 10 0 0 0", "non-integer id"),
        ("3\t5 6\t0 0 0 7 8\t9 10 0 0 0", "1 noun ids"),
    ], ids=["negative", "short_window", "fields", "non_integer", "one_noun"])
    def test_malformed_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "ctx.txt"
        path.write_text("relemb-contexts v1 m_out=5\n"
                        "3 4\t5 6\t0 0 0 7 8\t9 10 0 0 0\n" + line + "\n")
        reader = cp.ContextFile(path)
        with pytest.raises(cp.ArtifactError, match=f"{path}:3: {message}"):
            list(reader)


class TestContextFileFormat:
    def _write(self, tmp_path, body, m_out=5):
        path = tmp_path / "ctx.txt"
        path.write_bytes(b"relemb-contexts v1 m_out=%d\n" % m_out + body)
        return path

    def test_crlf_and_unterminated_last_line(self, tmp_path):
        path = self._write(tmp_path, b"3 4\t5 6\t0 0 0 7 8\t9 10 0 0 0\r\n"
                                     b"1 2\t3\t0 0 0 0 0\t0 0 0 0 0")
        loaded = list(cp.ContextFile(path))
        assert [(c.n1, c.w_in, c.w_aft) for c in loaded] == [
            (3, (5, 6), (9, 10, 0, 0, 0)), (1, (3,), (0, 0, 0, 0, 0))]

    def test_blank_line_is_malformed(self, tmp_path):
        path = self._write(tmp_path, b"3 4\t5 6\t0 0 0 7 8\t9 10 0 0 0\n\n")
        with pytest.raises(cp.ArtifactError,
                           match=f"{path}:3: 1 tab-separated fields"):
            list(cp.ContextFile(path))

    def test_ids_too_long_for_int64_rejected(self, tmp_path):
        line = b"1 2\t%s\t0 0 0 0 0\t0 0 0 0 0\n"
        path = self._write(tmp_path, line % (b"9" * 18) + line % (b"9" * 19))
        reader = cp.ContextFile(path)
        with pytest.raises(cp.ArtifactError,
                           match=f"{path}:3: id 9{{19}} has more than 18"):
            list(reader)
        # the 18-digit id before it is read exactly, as int64
        assert reader.arrays.w_in.tolist() == [10 ** 18 - 1]
        assert reader.arrays.w_in.dtype == np.int64

    def test_small_ids_stored_as_int32(self, tmp_path):
        path = self._write(tmp_path, b"3 4\t5 6\t0 0 0 7 8\t9 10 0 0 0\n")
        arrays = cp.ContextFile(path).arrays
        assert arrays.w_bef.dtype == np.int32
        assert arrays.offsets.tolist() == [0, 2]

    def test_non_ascii_and_plus_signs_are_not_ids(self, tmp_path):
        for bad, shown in [("٣", "٣"), ("+5", "+5"), ("1_0", "1_0")]:
            path = self._write(tmp_path, f"3 4\t{bad}\t0 0 0 0 0\t0 0 0 0 0\n"
                               .encode())
            with pytest.raises(cp.ArtifactError,
                               match=re.escape(f"{path}:2: non-integer id "
                                               f"'{shown}'")):
                list(cp.ContextFile(path))


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
        lines, final_newline, lowercase, max_words, max_nouns):
    text = "\n".join(lines) + ("\n" if final_newline else "")
    reader = cp.parse_tagged_corpus(io.StringIO(text))
    sents = list(reader)
    want, skipped = _reference_reader(io.StringIO(text))
    assert [(s.words, s.tags) for s in sents] == want
    assert reader.skipped_lines == skipped
    assert reader.sentences_read == len(want)
    if not sents:
        return

    vocab = cp.build_vocabulary(sents, max_words, max_nouns, lowercase)
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
        assert vocab.word_ids(sent.words) == [vocab.word_id(w)
                                              for w in sent.words]
        assert vocab.noun_ids(sent.words) == [
            noun_table.get(key(w), cp.UNK_NOUN) for w in sent.words]


def test_reader_over_several_sources(tmp_path):
    first, second = tmp_path / "a.tag", tmp_path / "b.tag"
    first.write_text("a\tNN\nbad\nb\tNN")            # no closing blank line
    second.write_text("c\tNN\n\nd\tVB\n\n")
    reader = cp.parse_tagged_corpus(first, io.StringIO("e\tNN\n"), second)
    sents = [s.words for s in reader]
    assert sents == [("a", "b"), ("e",), ("c",), ("d",)]
    assert (reader.sentences_read, reader.skipped_lines) == (4, 1)
    # a second pass re-reads the files (the stream is spent) and restarts
    # the counts
    assert [s.words for s in reader] == [("a", "b"), ("c",), ("d",)]
    assert (reader.sentences_read, reader.skipped_lines) == (3, 1)


_CONTEXTS = st.integers(1, 4).flatmap(lambda m_out: st.tuples(
    st.just(m_out),
    st.lists(st.builds(
        cp.NounPairContext,
        st.integers(0, 10 ** 18 - 1), st.integers(0, 300),
        st.lists(st.integers(0, 300), min_size=1, max_size=5).map(tuple),
        st.lists(st.integers(0, 300), min_size=m_out,
                 max_size=m_out).map(tuple),
        st.lists(st.integers(0, 2 ** 31), min_size=m_out,
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
    assert len(arrays) == len(contexts) and arrays.fault is None
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
    assert taken.gold() == [cp.ALL_LABELS[labels[r]] for r in rows]
    assert list(taken.contexts) == [contexts[r] for r in rows]


def _corrupt(fields, kind, pick):
    """Fields of a context line, changed to break one rule; returns the
    fields and the message the reader must give."""
    m_out = len(fields[2])
    if kind == "fields":
        return fields[:3], "3 tab-separated fields, expected 4"
    if kind == "extra_field":
        return fields + [["7"]], "5 tab-separated fields, expected 4"
    if kind in ("negative", "non_integer"):
        f = pick % 4
        slot = (pick // 4) % len(fields[f])
        tok = "-7" if kind == "negative" else "7x"
        fields[f][slot] = tok
        name = "negative id" if kind == "negative" else "non-integer id"
        return fields, f"{name} '{tok}'"
    if kind == "window":
        side = 2 + pick % 2
        fields[side] = fields[side][1:]
        widths = [len(fields[2]), len(fields[3])]
        return fields, (f"outside windows of {widths[0]} and {widths[1]} "
                        f"ids, header has m_out={m_out}")
    if kind == "between":
        fields[1] = []
        return fields, "no words between the pair"
    if kind == "nouns":
        fields[0] = fields[0][:1]
        return fields, "1 noun ids, expected 2"
    raise AssertionError(kind)


@settings(max_examples=150, deadline=None)
@given(data=_CONTEXTS, row=st.integers(0, 11), pick=st.integers(0, 100),
       kind=st.sampled_from(["fields", "extra_field", "negative",
                             "non_integer", "window", "between", "nouns"]))
def test_corrupt_line_names_path_and_line(data, row, pick, kind,
                                          tmp_path_factory):
    m_out, contexts = data
    assume(contexts)
    row %= len(contexts)
    lines = []
    for ctx in contexts:
        lines.append([[str(x) for x in ids] for ids in (
            (ctx.n1, ctx.n2), ctx.w_in, ctx.w_bef, ctx.w_aft)])
    lines[row], message = _corrupt(lines[row], kind, pick)
    path = tmp_path_factory.mktemp("ctx") / "ctx.txt"
    path.write_text(f"relemb-contexts v1 m_out={m_out}\n" + "".join(
        "\t".join(" ".join(f) for f in fields) + "\n" for fields in lines))
    seen = []
    with pytest.raises(cp.ArtifactError) as err:
        for ctx in cp.ContextFile(path):
            seen.append(ctx)
    assert str(err.value) == f"{path}:{row + 2}: {message}"
    assert seen == contexts[:row]


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

def _block_sentences(blocks):
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
    reader = cp.parse_tagged_corpus(*paths)
    sents = list(reader)
    want = (reader.skipped_lines, reader.sentences_read)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "_TAGGED_BLOCK", block)
        got = _block_sentences(reader.blocks())
    assert got == [(s.words, tuple(t in cp.NOUN_TAGS for t in s.tags))
                   for s in sents]
    assert (reader.skipped_lines, reader.sentences_read) == want
    assert want[1] == len(sents)


def test_byte_path_reads_line_ends_whitespace_and_utf8(tmp_path,
                                                       monkeypatch):
    """The compiled scan settles these lines by itself: the per-line loop
    never runs."""
    path = tmp_path / "c.tag"
    path.write_bytes("a\tNN\r\nİb\tVB\rc\tNN\t\n\x1c\t \x0b\n\xa0\tNNS\n"
                     "\n\r\n \r\nd e\tNNP\n\tNN\nf\t\nz\tNNPS".encode())
    reader = cp.parse_tagged_corpus(path)
    want = [(s.words, s.tags) for s in reader]
    counts = (reader.skipped_lines, reader.sentences_read)
    assert want == [(("a", "İb"), ("NN", "VB")), (("\xa0",), ("NNS",)),
                    (("d e", "z"), ("NNP", "NNPS"))]
    assert counts == (3, 3)

    def per_line_loop(self, lines):
        raise AssertionError("the per-line loop ran")

    monkeypatch.setattr(cp.TaggedCorpusReader, "_sentences", per_line_loop)
    assert _block_sentences(reader.blocks()) == [
        (words, tuple(t in cp.NOUN_TAGS for t in tags))
        for words, tags in want]
    assert (reader.skipped_lines, reader.sentences_read) == counts


@pytest.mark.parametrize("line", ["\xa0\t\xa0", "　", "é\t "])
def test_unsettled_block_goes_through_per_line_loop(tmp_path, line):
    path = tmp_path / "c.tag"
    path.write_text(f"a\tNN\n{line}\nb\tNN\n\nc\tVB\n", encoding="utf-8")
    reader = cp.parse_tagged_corpus(path)
    want = [(s.words, tuple(t in cp.NOUN_TAGS for t in s.tags))
            for s in reader]
    counts = (reader.skipped_lines, reader.sentences_read)
    assert _block_sentences(reader.blocks()) == want
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
    (block,) = cp.parse_tagged_corpus(path).blocks()
    assert block.surfaces == list(dict.fromkeys(words))
    assert [block.surfaces[i] for i in block.ids] == words
    assert block.noun.tolist() == [bool(i % 2) for i in range(len(words))]


@settings(max_examples=100, deadline=None)
@given(sources=_SOURCES, block=st.integers(1, 48))
def test_block_reader_with_every_surface_in_one_bucket(sources, block,
                                                       tmp_path_factory):
    paths = _write_sources(tmp_path_factory.mktemp("tag"), sources)
    reader = cp.parse_tagged_corpus(*paths)
    want = [(s.words, tuple(t in cp.NOUN_TAGS for t in s.tags))
            for s in reader]
    counts = (reader.skipped_lines, reader.sentences_read)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "_TAGGED_BLOCK", block)
        mp.setattr(kernels, "_SURFACE_HASH", 0)
        assert _block_sentences(reader.blocks()) == want
    assert (reader.skipped_lines, reader.sentences_read) == counts


@settings(max_examples=100, deadline=None)
@given(sources=_SOURCES, block=st.integers(1, 48))
def test_no_compiler_reads_paths_through_per_line_loop(sources, block,
                                                       tmp_path_factory):
    """Without the compiled scan, :meth:`blocks` cuts each path at the same
    blank lines and reads every block through the per-line loop: the same
    blocks and counts."""
    paths = _write_sources(tmp_path_factory.mktemp("tag"), sources)
    reader = cp.parse_tagged_corpus(*paths)

    def read():
        blocks = [(b.surfaces, b.ids.tolist(), b.noun.tolist(),
                   b.offsets.tolist()) for b in reader.blocks()]
        return blocks, reader.skipped_lines, reader.sentences_read

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
    reader = cp.parse_tagged_corpus(path)
    want = [(s.words, tuple(t in cp.NOUN_TAGS for t in s.tags))
            for s in reader]
    tracemalloc.start()
    try:
        blocks = list(reader.blocks())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _block_sentences(blocks) == want
    assert peak < 8 << 20


@pytest.mark.parametrize("block", [16, 1 << 16])
def test_block_reader_names_the_line_of_a_bad_byte(tmp_path, monkeypatch,
                                                   block):
    monkeypatch.setattr(cp, "_TAGGED_BLOCK", block)
    path = tmp_path / "c.tag"
    path.write_bytes(b"a\tNN\nb\tNN\n\n" * 5 + b"c\t\xffNN\n")
    reader = cp.parse_tagged_corpus(path)
    with pytest.raises(cp.ArtifactError, match=f"^{path}:16: not UTF-8"):
        list(reader.blocks())


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


def _reference_context_text(contexts, m_out):
    """write_contexts before the array form, as text."""
    return f"relemb-contexts v1 m_out={m_out}\n" + "".join(
        "{} {}\t{}\t{}\t{}\n".format(
            c.n1, c.n2, " ".join(map(str, c.w_in)),
            " ".join(map(str, c.w_bef)), " ".join(map(str, c.w_aft)))
        for c in contexts)


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
        for source in (cp.parse_tagged_corpus(*paths), sents):
            vocab = cp.build_vocabulary(source, max_words, max_nouns,
                                        lowercase)
            vocab.save(root / "vocab.txt")
            assert ((root / "vocab.txt").read_bytes()
                    == (root / "want.txt").read_bytes())

        reference = [ctx for s in sents for ctx in _reference_extract(
            s, vocab, m_out, max_between)]
        contexts = (cp.extract_noun_pair_contexts(b, vocab, m_out, max_between)
                    for b in cp.parse_tagged_corpus(*paths).blocks())
        assert cp.write_contexts(contexts, m_out, root / "c.txt") == len(
            reference)
    assert (root / "c.txt").read_text() == _reference_context_text(
        reference, m_out)
    assert [ctx for s in sents for ctx in cp.extract_noun_pair_contexts(
        cp.TokenBlock.of_sentences([s]), vocab, m_out, max_between)
    ] == reference
    assert not (root / "c.txt.part").exists()
