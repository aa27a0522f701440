"""Corpus ingestion: POS-tagged text, vocabularies, and noun-pair contexts.

The tagged-corpus format is one token per line as ``surface<TAB>POS`` with a
blank line terminating each sentence.  Labeled relation data uses the
SemEval-2010 Task 8 distribution format.

A tagged corpus is read once, as :class:`TokenBlock` arrays: each path in
bounded byte blocks, each read in one pass of the compiled scan of
:mod:`relemb.kernels`; any block that scan does not settle, every block
when no C compiler is found, and every stream go through the reader's
per-line loop, which stays the reference.  Counting
(:func:`build_vocabulary`), pair extraction
(:func:`extract_noun_pair_contexts`, into :class:`ContextArrays`), writing
(:func:`write_contexts`) and the CBOW baseline's id arrays work on those
arrays.
"""

from __future__ import annotations

import io
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from . import kernels

__all__ = [
    "NOUN_TAGS",
    "NULL_WORD",
    "UNK_WORD",
    "UNK_NOUN",
    "FAMILIES",
    "ALL_LABELS",
    "TaggedSentence",
    "TaggedCorpusReader",
    "Vocabulary",
    "NounPairContext",
    "neighbor_slots",
    "neighbor_slot_rows",
    "RelationLabel",
    "SemEvalInstance",
    "SemEvalFormatError",
    "ArtifactError",
    "ConfigError",
    "not_utf8",
    "parse_tagged_corpus",
    "build_vocabulary",
    "check_extract_settings",
    "extract_noun_pair_contexts",
    "TokenBlock",
    "token_blocks",
    "parse_semeval",
    "parse_label",
    "label_index",
    "tokenize",
    "write_contexts",
    "ContextArrays",
    "ContextFile",
]

# Penn Treebank tags that mark a token as a noun-pair candidate.
NOUN_TAGS = frozenset({"NN", "NNS", "NNP", "NNPS"})

# Reserved ids.  The word inventory carries both specials, the noun
# inventory only UNK.
NULL_WORD = 0
UNK_WORD = 1
UNK_NOUN = 0

_NULL_SURFACE = "<NULL>"
_UNK_SURFACE = "<UNK>"


@dataclass
class TaggedSentence:
    """One sentence as parallel surface/POS sequences."""

    words: tuple[str, ...]
    tags: tuple[str, ...]

    def __len__(self):
        return len(self.words)


def _is_path(source):
    return isinstance(source, str) or hasattr(source, "__fspath__")


class TaggedCorpusReader:
    """Read ``surface<TAB>POS`` sentences from paths, text streams or
    iterables of lines, one source after another; the end of a source ends
    its last sentence.

    A line is a token if its one tab splits it into two non-empty fields
    that are not both whitespace.  Any other line that is not whitespace
    only is skipped and counted in ``skipped_lines``.  Whitespace-only
    lines separate sentences; leading and repeated ones are ignored.  Paths
    are read as UTF-8 with universal newlines, and bytes that are not UTF-8
    raise :class:`ArtifactError` naming ``path:line``.  Each pass re-reads
    the path sources and restarts ``skipped_lines`` and ``sentences_read``.

    Iterating yields :class:`TaggedSentence` objects from the per-line loop,
    the reference for these rules.  :meth:`blocks` yields the same
    sentences as :class:`TokenBlock` arrays.  It reads each path in bounded
    byte blocks, each read in one pass of the compiled scan, which finds
    the line ends, tabs and blank lines, maps each word to its surface id
    through a hash table that compares the bytes exactly, and checks the
    noun tags; Python decodes only each block's distinct surfaces.  A block
    the scan does not settle (it has a line of multi-byte characters and
    whitespace only) goes through the per-line loop, as does every block
    when no C compiler is found (cut at the same blank lines), and every
    stream and line iterable.
    """

    def __init__(self, *sources):
        self._sources = sources
        self.skipped_lines = 0
        self.sentences_read = 0

    def __iter__(self):
        self.skipped_lines = self.sentences_read = 0
        for source in self._sources:
            if _is_path(source):
                try:
                    with open(source, encoding="utf-8") as fh:
                        yield from self._sentences(fh)
                except UnicodeDecodeError:
                    raise not_utf8(source) from None
            else:
                yield from self._sentences(source)

    def blocks(self):
        """One pass over the sources as :class:`TokenBlock` objects, each
        holding whole sentences."""
        self.skipped_lines = self.sentences_read = 0
        for source in self._sources:
            if _is_path(source):
                try:
                    yield from self._path_blocks(source)
                except UnicodeDecodeError:
                    raise not_utf8(source) from None
            else:
                yield from _sentence_blocks(self._sentences(source))

    def empty_error(self):
        """The error for a pass that read no tokens: :class:`ArtifactError`
        naming the path sources, or ValueError when none is a path."""
        paths = [str(s) for s in self._sources if _is_path(s)]
        if paths:
            return ArtifactError(f"{', '.join(paths)}: no tokens")
        return ValueError("sentence stream is empty")

    def _path_blocks(self, path):
        compiled = kernels.load()
        with open(path, "rb") as fh:
            data = b""
            while True:
                # a sentence longer than a block grows the next read
                chunk = fh.read(max(_TAGGED_BLOCK, len(data)))
                final = not chunk
                data += chunk
                if not data:
                    return
                if compiled is None:
                    scan, used = None, _blank_cut(data, final)
                else:
                    scan = compiled.scan_tagged(data, final)
                    used = scan.used
                if used:
                    kept = data[:used]
                    if scan is None or scan.unsettled is not None:
                        # the per-line loop counts its own lines
                        block = TokenBlock.of_sentences(list(self._sentences(
                            io.TextIOWrapper(io.BytesIO(kept),
                                             encoding="utf-8"))))
                    else:
                        if scan.multi_byte is not None:
                            kept[scan.multi_byte:].decode("utf-8")  # checks
                        spans = scan.spans.tolist()
                        block = TokenBlock(
                            [kept[i:j].decode("utf-8")
                             for i, j in zip(spans[::2], spans[1::2])],
                            scan.ids, scan.noun, scan.offsets)
                        self.skipped_lines += scan.skipped
                        self.sentences_read += len(block.offsets) - 1
                    if len(block.ids):
                        yield block
                    data = data[used:]
                if final:
                    return

    def _sentences(self, lines):
        words, tags = [], []
        for line in lines:
            # A token line splits at its one tab into two fields, neither
            # empty and not both whitespace, once the trailing newlines and
            # then carriage returns are stripped.
            word, _, tag = line.partition("\t")
            tag = tag.rstrip("\n").rstrip("\r")
            if (word and tag and "\t" not in tag
                    and not (word.isspace() and tag.isspace())):
                words.append(word)
                tags.append(tag)
            elif line.strip():
                self.skipped_lines += 1
            elif words:
                self.sentences_read += 1
                yield TaggedSentence(tuple(words), tuple(tags))
                words, tags = [], []
        if words:
            self.sentences_read += 1
            yield TaggedSentence(tuple(words), tuple(tags))


def parse_tagged_corpus(*sources):
    """Return a :class:`TaggedCorpusReader` over paths, file objects, or
    iterables of lines."""
    return TaggedCorpusReader(*sources)


@dataclass
class TokenBlock:
    """Whole sentences as token arrays.  Token ``j`` has surface
    ``surfaces[ids[j]]`` and is tagged NN, NNS, NNP or NNPS when
    ``noun[j]``; sentence ``s`` holds tokens ``offsets[s]`` ..
    ``offsets[s + 1] - 1``.  ``surfaces`` are distinct, in the order of
    their first occurrence."""

    surfaces: list[str]
    ids: np.ndarray
    noun: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of_sentences(cls, sentences):
        index = {}
        ids = [index.setdefault(w, len(index))
               for sent in sentences for w in sent.words]
        noun = [t in NOUN_TAGS for sent in sentences for t in sent.tags]
        offsets = np.zeros(len(sentences) + 1, np.int64)
        offsets[1:] = np.cumsum([len(sent) for sent in sentences])
        return cls(list(index), np.array(ids, np.int64), np.array(noun, bool),
                   offsets)

    def word_ids(self, vocab):
        """The word id of every token, an int64 array."""
        return np.array(vocab.word_ids(self.surfaces), np.int64)[self.ids]


def _sentence_blocks(sentences):
    """:class:`TokenBlock` objects of about 16k tokens of `sentences`."""
    batch, n = [], 0
    for sent in sentences:
        batch.append(sent)
        n += len(sent)
        if n >= 1 << 14:
            yield TokenBlock.of_sentences(batch)
            batch, n = [], 0
    if batch:
        yield TokenBlock.of_sentences(batch)


def token_blocks(sentences):
    """`sentences` as :class:`TokenBlock` objects: the blocks of a
    :class:`TaggedCorpusReader`, else those of an iterable of
    :class:`TaggedSentence`."""
    if isinstance(sentences, TaggedCorpusReader):
        return sentences.blocks()
    return _sentence_blocks(sentences)


# Bytes of a tagged-corpus path read at a time.  A block holds the bytes up
# to its last blank line, and the rest starts the next one.
_TAGGED_BLOCK = 1 << 16


# A line of ASCII whitespace only, with its end: a blank line as the
# compiled scan reads it.  The \n of a \r\n starts no line.
_BLANK_LINE = re.compile(
    rb"(?:\A|(?<=\n)|(?<=\r)(?!\n))[\t\x0b\x0c\x1c-\x1f ]*(?:\r\n|\r|\n)")


def _blank_cut(data, final):
    """Where the compiled scan cuts tagged-corpus bytes `data`: after all of
    them when `final`, else after their last blank line (0 when there is
    none)."""
    if final:
        return len(data)
    last = None
    for last in _BLANK_LINE.finditer(data):
        pass
    return last.end() if last else 0


def _spans(starts, lengths):
    """The positions ``starts[r] .. starts[r] + lengths[r] - 1``, row after
    row, as one array."""
    first = np.cumsum(lengths) - lengths
    return np.repeat(starts - first, lengths) + np.arange(lengths.sum())


@dataclass
class Vocabulary:
    """Frequency-ranked word and noun inventories with UNK/NULL handling.

    Word ids: ``NULL_WORD`` (0), ``UNK_WORD`` (1), then ranked surfaces from
    id 2 by non-increasing count (ties: first occurrence).  Noun ids:
    ``UNK_NOUN`` (0), then ranked noun surfaces from id 1.  The UNK slots
    carry the aggregate count of all out-of-inventory occurrences, so the
    per-inventory counts sum to the corpus totals.
    """

    word_surfaces: list[str]          # id -> surface, including specials
    noun_surfaces: list[str]
    word_counts: list[int]            # id -> corpus count (NULL: 0, UNK: aggregate)
    noun_counts: list[int]
    lowercase: bool = True
    _word_ids: dict[str, int] = field(default_factory=dict, repr=False)
    _noun_ids: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._word_ids:
            self._word_ids = {s: i for i, s in enumerate(self.word_surfaces) if i >= 2}
            self._noun_ids = {s: i for i, s in enumerate(self.noun_surfaces) if i >= 1}

    @property
    def n_words(self):
        return len(self.word_surfaces)

    @property
    def n_nouns(self):
        return len(self.noun_surfaces)

    @property
    def total_token_count(self):
        return sum(self.word_counts)

    @property
    def total_noun_count(self):
        return sum(self.noun_counts)

    def _ids(self, table, unk, surfaces):
        """The one surface -> id map: ids in `table` of the normalised
        `surfaces`, `unk` for those outside it, as a list."""
        keys = map(str.lower, surfaces) if self.lowercase else surfaces
        return list(map(table.get, keys, repeat(unk)))

    def word_ids(self, surfaces):
        return self._ids(self._word_ids, UNK_WORD, surfaces)

    def noun_ids(self, surfaces):
        return self._ids(self._noun_ids, UNK_NOUN, surfaces)

    def word_id(self, surface):
        return self.word_ids((surface,))[0]

    def noun_id(self, surface):
        return self.noun_ids((surface,))[0]

    def word_surface(self, wid):
        if wid == NULL_WORD:
            return "NULL"
        if wid == UNK_WORD:
            return "UNK"
        return self.word_surfaces[wid]

    def noun_surface(self, nid):
        if nid == UNK_NOUN:
            return "UNK"
        return self.noun_surfaces[nid]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                f"relemb-vocab v1 {self.n_words} {self.n_nouns} "
                f"lowercase={int(self.lowercase)}\n"
            )
            for surface, count in zip(self.word_surfaces, self.word_counts):
                fh.write(f"{surface}\t{count}\n")
            for surface, count in zip(self.noun_surfaces, self.noun_counts):
                fh.write(f"{surface}\t{count}\n")

    @classmethod
    def load(cls, path):
        """Read a file written by :meth:`save`.  A malformed file raises
        :class:`ArtifactError` naming ``path:line``: a bad magic or header,
        a line that is not ``surface<TAB>count`` with a non-negative integer
        count, other than the announced number of lines, or bytes that are
        not UTF-8."""
        try:
            return cls._load(path)
        except UnicodeDecodeError:
            raise not_utf8(path) from None

    @classmethod
    def _load(cls, path):
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
            if header[:2] != ["relemb-vocab", "v1"]:
                raise ArtifactError(f"{path}:1: not a relemb-vocab file")
            try:
                n_words, n_nouns = int(header[2]), int(header[3])
                flags = dict(tok.split("=", 1) for tok in header[4:])
                lowercase = bool(int(flags.get("lowercase", 1)))
            except (IndexError, ValueError):
                n_words = n_nouns = -1
            if n_words < 0 or n_nouns < 0:
                raise ArtifactError(
                    f"{path}:1: header needs non-negative integer word and "
                    f"noun counts and an integer lowercase flag")
            surfaces, counts = [], []
            for lineno, line in enumerate(fh, 2):
                if len(surfaces) == n_words + n_nouns:
                    raise ArtifactError(
                        f"{path}:{lineno}: more lines than the header's "
                        f"{n_words} words and {n_nouns} nouns")
                parts = line.rstrip("\n").split("\t")
                try:
                    count = int(parts[1]) if len(parts) == 2 and parts[0] else -1
                except ValueError:
                    count = -1
                if count < 0:
                    raise ArtifactError(
                        f"{path}:{lineno}: expected surface<TAB>count with a "
                        f"non-negative integer count")
                surfaces.append(parts[0])
                counts.append(count)
        if len(surfaces) < n_words + n_nouns:
            raise ArtifactError(
                f"{path}:{len(surfaces) + 2}: file ends after {len(surfaces)} "
                f"of the header's {n_words} words and {n_nouns} nouns")
        return cls(surfaces[:n_words], surfaces[n_words:], counts[:n_words],
                   counts[n_words:], lowercase)


def _rank(counter, limit):
    # Stable sort on count keeps first-occurrence order for ties, because
    # Counter preserves insertion order.
    ranked = sorted(counter.items(), key=lambda kv: -kv[1])
    return ranked[:limit]


def build_vocabulary(sentences, max_words, max_nouns, lowercase=True):
    """Count `sentences` and build the two frequency-ranked inventories.

    The word inventory keeps the `max_words` most frequent surface forms of
    all tokens; the noun inventory keeps the `max_nouns` most frequent
    surfaces among tokens tagged NN/NNS/NNP/NNPS.  Out-of-inventory mass is
    folded into the UNK slots.  `sentences` is read once, as
    :func:`token_blocks`.
    """
    if max_words < 1 or max_nouns < 1:
        raise ConfigError("max_words and max_nouns must be >= 1")
    # Counter keeps first-occurrence order, which breaks count ties.
    word_counter: Counter = Counter()
    noun_counter: Counter = Counter()
    for block in token_blocks(sentences):
        keys = ([s.lower() for s in block.surfaces] if lowercase
                else block.surfaces)
        # a block's surfaces are in first-occurrence order; its nouns' are
        # the noun tokens' ids in first-occurrence order
        counts = np.bincount(block.ids, minlength=len(keys)).tolist()
        for key, n in zip(keys, counts):
            word_counter[key] += n
        nouns = block.ids[block.noun]
        counts = np.bincount(nouns, minlength=len(keys)).tolist()
        for i in dict.fromkeys(nouns.tolist()):
            noun_counter[keys[i]] += counts[i]
    total_tokens = sum(word_counter.values())
    total_nouns = sum(noun_counter.values())

    ranked_words = _rank(word_counter, max_words)
    ranked_nouns = _rank(noun_counter, max_nouns)
    word_unk = total_tokens - sum(c for _, c in ranked_words)
    noun_unk = total_nouns - sum(c for _, c in ranked_nouns)

    word_surfaces = [_NULL_SURFACE, _UNK_SURFACE] + [s for s, _ in ranked_words]
    word_counts = [0, word_unk] + [c for _, c in ranked_words]
    noun_surfaces = [_UNK_SURFACE] + [s for s, _ in ranked_nouns]
    noun_counts = [noun_unk] + [c for _, c in ranked_nouns]
    return Vocabulary(word_surfaces, noun_surfaces, word_counts, noun_counts, lowercase)


@dataclass
class NounPairContext:
    """A noun pair with the words between it and fixed outside windows.

    ``w_bef`` holds the tokens immediately left of the first noun in
    sentence order (nearest last) and ``w_aft`` the tokens right of the
    second noun (nearest first); both are NULL-padded at the far end to
    exactly the extraction window width.
    """

    n1: int
    n2: int
    w_in: tuple[int, ...]
    w_bef: tuple[int, ...]
    w_aft: tuple[int, ...]

    @property
    def m_in(self):
        return len(self.w_in)

    @property
    def m_out(self):
        return len(self.w_bef)


def neighbor_slot_rows(w_in, offsets, c, reach=None):
    """The neighbour slots of every target of the contexts whose words
    between the pair are ``w_in[offsets[r]:offsets[r + 1]]``, in order:
    an int64 array with one row of ``2*c`` word ids per target of
    ``w_in[offsets[0]:offsets[-1]]``.  A row holds the left neighbours
    nearest first, then the right neighbours nearest first.  Slots beyond
    the target's between-words span, or more than `reach` positions away
    when `reach` is given, hold ``NULL_WORD``.  This is the one definition
    of the slot layout.
    """
    w_in = np.asarray(w_in, np.int64)
    offsets = np.asarray(offsets, np.int64)
    steps = np.array([*range(-1, -c - 1, -1), *range(1, c + 1)])
    near = np.arange(offsets[0], offsets[-1])[:, None] + steps
    m_in = offsets[1:] - offsets[:-1]
    inside = ((near >= np.repeat(offsets[:-1], m_in)[:, None])
              & (near < np.repeat(offsets[1:], m_in)[:, None]))
    if reach is not None:
        inside &= abs(steps) <= reach
    return np.where(inside, w_in.take(near, mode="clip"), NULL_WORD)


def neighbor_slots(ctx, i, c, reach=None):
    """Word ids of the `c` neighbors on each side of between-position `i`
    (1-based into ``ctx.w_in``): row ``i - 1`` of
    :func:`neighbor_slot_rows` of the one context, as a list."""
    m_in = len(ctx.w_in)
    if not 1 <= i <= m_in:
        raise ValueError(f"position {i} outside 1..{m_in}")
    return neighbor_slot_rows(ctx.w_in, (0, m_in), c, reach)[i - 1].tolist()


def _outside_windows(word_ids, left_pos, right_pos, m_out):
    bef = word_ids[max(0, left_pos - m_out):left_pos]
    bef = (NULL_WORD,) * (m_out - len(bef)) + tuple(bef)
    aft = word_ids[right_pos + 1:right_pos + 1 + m_out]
    aft = tuple(aft) + (NULL_WORD,) * (m_out - len(aft))
    return bef, aft


def check_extract_settings(m_out, max_between):
    """Raise :class:`ConfigError` unless the settings of
    :func:`extract_noun_pair_contexts` are valid."""
    if m_out < 1 or max_between < 1:
        raise ConfigError("m_out and max_between must be >= 1")


def extract_noun_pair_contexts(tokens, vocab, m_out, max_between=10):
    """Every ordered noun pair of each sentence of :class:`TokenBlock`
    `tokens` with 1..`max_between` intervening tokens, as the
    :class:`ContextArrays` of pretraining contexts: sentence by sentence,
    by first noun, then by second noun.

    Pairs with zero words between them carry no prediction target and are
    omitted, as are pairs further apart than `max_between`.
    """
    check_extract_settings(m_out, max_between)
    pos = np.flatnonzero(tokens.noun)
    sentence = np.searchsorted(tokens.offsets, pos, side="right") - 1
    # pairs (a, a + k) of nouns k apart in noun order; such a pair spans at
    # least k - 1 words, so k stops growing once no pair is near enough
    firsts = []
    for k in range(1, len(pos)):
        a = np.arange(len(pos) - k)
        between = pos[a + k] - pos[a] - 1
        if not (between <= max_between).any():
            break
        firsts.append(a[(sentence[a] == sentence[a + k]) & (between >= 1)
                        & (between <= max_between)])
    a = np.concatenate([np.zeros(0, np.int64), *firsts])
    b = a + np.repeat(np.arange(1, len(firsts) + 1), list(map(len, firsts)))
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    p1, p2, sentence = pos[a], pos[b], sentence[a]

    word_ids = tokens.word_ids(vocab)
    noun_ids = np.array(vocab.noun_ids(tokens.surfaces), np.int64)
    offsets = np.zeros(len(a) + 1, np.int64)
    offsets[1:] = np.cumsum(p2 - p1 - 1)
    bef = p1[:, None] - m_out + np.arange(m_out)
    aft = p2[:, None] + 1 + np.arange(m_out)
    return ContextArrays(
        noun_ids[tokens.ids[p1]], noun_ids[tokens.ids[p2]], offsets,
        word_ids[_spans(p1 + 1, p2 - p1 - 1)],
        np.where(bef >= tokens.offsets[sentence][:, None],
                 word_ids.take(bef, mode="clip"), NULL_WORD),
        np.where(aft < tokens.offsets[sentence + 1][:, None],
                 word_ids.take(aft, mode="clip"), NULL_WORD))


def write_contexts(contexts, m_out, path):
    """Extracted-context file: header ``relemb-contexts v1 m_out=<m>`` then
    one tab-separated line of id lists per context.  `contexts` is a
    :class:`ContextArrays` or an iterable of them.  The file is written
    beside `path` and moved there once complete, so an error while
    `contexts` are read leaves `path` as it was.  Returns the number of
    contexts written."""
    if isinstance(contexts, ContextArrays):
        contexts = (contexts,)
    part = f"{os.fspath(path)}.part"
    n = 0
    try:
        with open(part, "w", encoding="utf-8") as fh:
            fh.write(f"relemb-contexts v1 m_out={m_out}\n")
            for arrays in contexts:
                fh.write(_context_lines(arrays))
                n += len(arrays)
        os.replace(part, path)
    except BaseException:
        if os.path.exists(part):
            os.remove(part)
        raise
    return n


def _context_lines(arrays):
    """The context-file lines of `arrays`, as one string: every id written
    once per distinct id, then joined with the separator after it."""
    m_out = arrays.m_out
    m_in = np.diff(arrays.offsets)
    width = 2 + m_in + 2 * m_out
    line = np.cumsum(width) - width               # each line's first id
    ids = np.empty(int(width.sum()), np.int64)
    seps = np.zeros(len(ids), np.int64)           # 0: " ", 1: tab, 2: newline
    outside = (line + 2 + m_in)[:, None] + np.arange(m_out)
    ids[line] = arrays.n1
    ids[line + 1] = arrays.n2
    ids[_spans(line + 2, m_in)] = arrays.w_in
    ids[outside] = arrays.w_bef
    ids[outside + m_out] = arrays.w_aft
    seps[line + 1] = seps[line + 1 + m_in] = seps[line + 1 + m_in + m_out] = 1
    seps[line + width - 1] = 2
    distinct, index = np.unique(ids, return_inverse=True)
    table = [f"{i}{sep}" for i in distinct.tolist() for sep in " \t\n"]
    return "".join(map(table.__getitem__, (index * 3 + seps).tolist()))


class ArtifactError(ValueError):
    """A malformed input file; the message names the file, and the line
    where there is one."""


def not_utf8(path):
    """The :class:`ArtifactError` for text file `path`, a read of which
    raised UnicodeDecodeError, naming ``path:line`` of its first byte that
    is not UTF-8.  The file is read again as bytes, because the offset a
    text-mode read reports counts from the start of its decode chunk."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return ArtifactError(f"{path}:{line}: not UTF-8: byte "
                             f"0x{data[exc.start]:02x}")
    return ArtifactError(f"{path}: not UTF-8")


class ConfigError(ValueError):
    """An invalid setting: a configuration value or an argument outside the
    range its function accepts."""


@dataclass
class ContextArrays:
    """Contexts packed into flat id arrays, in order.

    Context ``r`` has nouns ``n1[r]`` and ``n2[r]``, the words between them
    ``w_in[offsets[r]:offsets[r + 1]]``, and outside windows ``w_bef[r]``
    and ``w_aft[r]`` (shape ``(n, m_out)``).  ``path`` names the context
    file the arrays were read from, if any.  ``fault``, when set, is the
    error the input ended on: it held a malformed context right after the
    last packed one.  Iterating yields the contexts, then raises ``fault``.
    """

    n1: np.ndarray
    n2: np.ndarray
    offsets: np.ndarray
    w_in: np.ndarray
    w_bef: np.ndarray
    w_aft: np.ndarray
    path: object = None
    fault: Exception | None = None

    @classmethod
    def pack(cls, contexts, m_out):
        """Arrays of a list of contexts whose outside windows are all
        `m_out` wide."""
        n = len(contexts)
        offsets = np.zeros(n + 1, np.int64)
        offsets[1:] = np.cumsum([len(c.w_in) for c in contexts])
        return cls(
            np.array([c.n1 for c in contexts], np.int64),
            np.array([c.n2 for c in contexts], np.int64),
            offsets,
            np.fromiter(chain.from_iterable(c.w_in for c in contexts),
                        np.int64, offsets[-1]),
            np.array([c.w_bef for c in contexts], np.int64).reshape(n, m_out),
            np.array([c.w_aft for c in contexts], np.int64).reshape(n, m_out))

    def __len__(self):
        return len(self.n1)

    @property
    def m_out(self):
        return self.w_bef.shape[1]

    def block(self, lo, hi):
        """Contexts `lo` .. `hi` - 1 as int64 arrays of their own, their
        offsets from 0."""
        off = self.offsets[lo:hi + 1]
        return ContextArrays(
            *(np.ascontiguousarray(a, np.int64) for a in (
                self.n1[lo:hi], self.n2[lo:hi], off - off[0],
                self.w_in[off[0]:off[-1]], self.w_bef[lo:hi],
                self.w_aft[lo:hi])))

    def context(self, r):
        return NounPairContext(
            int(self.n1[r]), int(self.n2[r]),
            tuple(self.w_in[self.offsets[r]:self.offsets[r + 1]].tolist()),
            tuple(self.w_bef[r].tolist()), tuple(self.w_aft[r].tolist()))

    def error(self, r, message):
        """The error for a fault in context `r`: :class:`ArtifactError`
        naming ``path:line`` for arrays read from a file, else ValueError
        naming the context's index."""
        if self.path is None:
            return ValueError(f"pretraining context {r}: {message}")
        # the header is line 1
        return ArtifactError(f"{self.path}:{r + 2}: {message}")

    def __iter__(self):
        # Python ints, converted a block of contexts at a time
        for lo in range(0, len(self), 1024):
            hi = min(lo + 1024, len(self))
            off = self.offsets[lo:hi + 1]
            w_in = self.w_in[off[0]:off[-1]].tolist()
            off = (off - off[0]).tolist()
            for j, (n1, n2, bef, aft) in enumerate(zip(
                    self.n1[lo:hi].tolist(), self.n2[lo:hi].tolist(),
                    self.w_bef[lo:hi].tolist(), self.w_aft[lo:hi].tolist())):
                yield NounPairContext(n1, n2, tuple(w_in[off[j]:off[j + 1]]),
                                      tuple(bef), tuple(aft))
        if self.fault is not None:
            raise self.fault


class ContextFile:
    """Reader for the extracted-context file format.

    The header's ``m_out`` must be a positive integer.  Each line must hold
    four tab-separated fields of space-separated ids, each written in at
    most 18 ASCII digits: two nouns, one or more words between them, and
    the two outside windows of exactly ``m_out`` ids each.  Newlines are
    read as in text mode.  The body is read once, at first use, into
    :attr:`arrays`; iterating yields its contexts, and after them raises
    :class:`ArtifactError` naming ``path:line`` of the first line that
    breaks a rule.
    """

    def __init__(self, path):
        self.path = path
        try:
            with open(path, encoding="utf-8") as fh:
                header = fh.readline().split()
        except UnicodeDecodeError:
            raise not_utf8(path) from None
        if header[:2] != ["relemb-contexts", "v1"]:
            raise ArtifactError(f"not a relemb-contexts file: {path}")
        try:
            self.m_out = int(dict(t.split("=", 1) for t in header[2:])["m_out"])
        except (KeyError, ValueError):
            self.m_out = 0
        if self.m_out < 1:
            raise ArtifactError(f"{path}:1: header lacks a positive integer "
                                f"m_out")

    @cached_property
    def arrays(self):
        try:
            with open(self.path, encoding="utf-8") as fh:
                fh.readline()
                return _parse_context_body(fh, self.m_out, self.path)
        except UnicodeDecodeError:
            raise not_utf8(self.path) from None

    def __iter__(self):
        return iter(self.arrays)


# Ids longer than this could overflow int64.
_MAX_DIGITS = 18

# Byte classes of a context-file body: the ids' digits, the whitespace
# between ids (the bytes ``bytes.split`` splits on, less tab and newline),
# the tab between fields and the newline ending a line.  Any other byte
# makes its line malformed.
_OTHER, _DIGIT, _SPACE, _TAB, _NEWLINE = range(5)
_BYTE_CLASS = np.full(256, _OTHER, np.uint8)
_BYTE_CLASS[np.frombuffer(b"0123456789", np.uint8)] = _DIGIT
_BYTE_CLASS[np.frombuffer(b" \x0b\x0c", np.uint8)] = _SPACE
_BYTE_CLASS[ord("\t")] = _TAB
_BYTE_CLASS[ord("\n")] = _NEWLINE


def _line_blocks(fh):
    """The rest of text file `fh` as UTF-8 bytes, in blocks of whole
    lines (about 256k characters each), each ending in a newline; the last
    block may be empty."""
    tail = ""
    while text := fh.read(1 << 18):
        cut = text.rfind("\n") + 1
        if cut:
            yield (tail + text[:cut]).encode()
            tail = text[cut:]
        else:
            tail += text
    yield (tail + "\n").encode() if tail else b""


def _parse_context_body(fh, m_out, path):
    """:class:`ContextArrays` of the lines of a context file after its
    header, read from `fh` in one pass of :func:`_parse_lines` blocks.  The
    arrays stop at the first malformed line, and its :func:`_line_fault`
    becomes their fault.  Ids are stored as int32 when they fit."""
    parts, bad_line = [], None
    for block in _line_blocks(fh):
        parsed, bad_line = _parse_lines(block, m_out)
        parts.append(parsed)
        if bad_line is not None:
            break
    n1, n2, m_in, w_in, w_bef, w_aft = map(np.concatenate, zip(*parts))
    offsets = np.zeros(len(n1) + 1, np.int64)
    offsets[1:] = np.cumsum(m_in)
    arrays = ContextArrays(n1, n2, offsets, w_in, w_bef, w_aft, path)
    if bad_line is not None:
        arrays.fault = arrays.error(len(n1), _line_fault(bad_line, m_out))
    return arrays


def _parse_lines(block, m_out):
    """Parse `block`, context-file lines as bytes each ending in a newline,
    with every check run over the whole block at once.  Returns the columns
    ``(n1, n2, m_in, w_in, w_bef, w_aft)`` of the lines before the first
    that fails a check, and that line (without its newline) or None."""
    cls = _BYTE_CLASS[np.frombuffer(block, np.uint8)]
    line_end = np.flatnonzero(cls == _NEWLINE)
    line_start = np.concatenate(([0], line_end + 1))
    n = len(line_end)
    digit = cls == _DIGIT
    id_start = digit.copy()
    id_start[1:] &= ~digit[:-1]
    id_start = np.flatnonzero(id_start)
    long_id = digit.copy()    # where a digit has _MAX_DIGITS more after it
    for k in range(1, _MAX_DIGITS + 1):
        long_id[:-k] &= digit[k:]
    tabs = np.flatnonzero(cls == _TAB)

    def line_of(pos):
        return np.searchsorted(line_end, pos)

    bad = np.bincount(line_of(tabs), minlength=n) != 3
    bad[line_of(np.flatnonzero(cls == _OTHER))] = True
    bad[line_of(np.flatnonzero(long_id[:-_MAX_DIGITS]))] = True
    good = int(bad.argmax()) if bad.any() else n
    # the lines before `good` hold three tabs each: count each field's ids
    bounds = np.column_stack((line_start[:good],
                              tabs[:3 * good].reshape(good, 3),
                              line_end[:good]))
    counts = np.diff(np.searchsorted(id_start, bounds), axis=1)
    bad = ((counts[:, 0] != 2) | (counts[:, 1] < 1) | (counts[:, 2] != m_out)
           | (counts[:, 3] != m_out))
    if bad.any():
        good = int(bad.argmax())

    ids = np.fromstring(block[:line_start[good]], np.int64, sep=" ")
    if not ids.size or ids.max() <= np.iinfo(np.int32).max:
        ids = ids.astype(np.int32)
    m_in = counts[:good, 1]
    first = np.zeros(good, np.int64)
    first[1:] = np.cumsum(2 + m_in + 2 * m_out)[:-1]
    w_in = (np.repeat(first + 2 + m_in - np.cumsum(m_in), m_in)
            + np.arange(m_in.sum()))
    outside = (first + 2 + m_in)[:, None] + np.arange(m_out)
    columns = (ids[first], ids[first + 1], m_in, ids[w_in], ids[outside],
               ids[outside + m_out])
    return columns, (block[line_start[good]:line_end[good]] if good < n
                     else None)


def _line_fault(line, m_out):
    """What is wrong with `line`, a context-file line (bytes, without its
    newline) that failed a check of :func:`_parse_lines`."""
    fields = [field.split() for field in line.split(b"\t")]
    if len(fields) != 4:
        return f"{len(fields)} tab-separated fields, expected 4"
    for tok in chain.from_iterable(fields):
        text = tok.decode("utf-8", "replace")
        if tok.startswith(b"-"):
            return f"negative id {text!r}"
        if not tok.isdigit():
            return f"non-integer id {text!r}"
        if len(tok) > _MAX_DIGITS:
            return f"id {text} has more than {_MAX_DIGITS} digits"
    if len(fields[0]) != 2:
        return f"{len(fields[0])} noun ids, expected 2"
    if not fields[1]:
        return "no words between the pair"
    return (f"outside windows of {len(fields[2])} and {len(fields[3])} "
            f"ids, header has m_out={m_out}")


# --- relation labels -------------------------------------------------------

FAMILIES = (
    "Cause-Effect",
    "Component-Whole",
    "Content-Container",
    "Entity-Destination",
    "Entity-Origin",
    "Instrument-Agency",
    "Member-Collection",
    "Message-Topic",
    "Product-Producer",
)

_DIRECTIONS = ("e1,e2", "e2,e1")


@dataclass(frozen=True)
class RelationLabel:
    """A relation family plus argument direction; Other carries none."""

    family: str
    direction: str | None = None

    def surface(self):
        if self.family == "Other":
            return "Other"
        return f"{self.family}({self.direction})"

    def __str__(self):
        return self.surface()


ALL_LABELS = tuple(
    [RelationLabel(f, d) for f in FAMILIES for d in _DIRECTIONS]
    + [RelationLabel("Other")]
)

_LABEL_INDEX = {lab: i for i, lab in enumerate(ALL_LABELS)}
_SURFACE_INDEX = {lab.surface(): lab for lab in ALL_LABELS}


def parse_label(text):
    """Parse a label surface form such as ``Cause-Effect(e1,e2)`` or ``Other``."""
    lab = _SURFACE_INDEX.get(text.strip())
    if lab is None:
        raise ValueError(f"unknown relation label: {text!r}")
    return lab


def label_index(label):
    try:
        return _LABEL_INDEX[label]
    except KeyError:
        raise ValueError(f"label outside the 19-class inventory: {label}") from None


# --- SemEval-2010 Task 8 format --------------------------------------------

_TOKEN_RE = re.compile(r"\w+(?:['’-]\w+)*")


def tokenize(text):
    """Word tokens of `text`; punctuation is dropped."""
    return _TOKEN_RE.findall(text)


class SemEvalFormatError(ArtifactError):
    """A malformed labeled instance.  The message names the instance id,
    after ``path:line: `` when the instances are read from a file."""

    def __init__(self, instance_id, message, where):
        super().__init__(f"{where}instance {instance_id}: {message}")
        self.instance_id = instance_id


@dataclass
class SemEvalInstance:
    id: int
    context: NounPairContext
    label: RelationLabel


_SENT_LINE_RE = re.compile(r"^(\d+)\t\"(.*)\"\s*$")


def _entity_spans(sentence):
    m1 = re.search(r"<e1>(.*?)</e1>", sentence, flags=re.S)
    m2 = re.search(r"<e2>(.*?)</e2>", sentence, flags=re.S)
    if m1 is None or m2 is None:
        raise ValueError("missing <e1>/<e2> markup")
    if m1.start() > m2.start():
        raise ValueError("entity markup out of order")
    before = sentence[:m1.start()]
    e1 = m1.group(1)
    middle = sentence[m1.end():m2.start()]
    e2 = m2.group(1)
    after = sentence[m2.end():]
    return before, e1, middle, e2, after


def _instance_context(sentence, vocab, m_out):
    before, e1, middle, e2, after = _entity_spans(sentence)
    toks_before = tokenize(before)
    toks_e1 = tokenize(e1)
    toks_middle = tokenize(middle)
    toks_e2 = tokenize(e2)
    toks_after = tokenize(after)
    if not toks_e1 or not toks_e2:
        raise ValueError("empty entity span")
    tokens = toks_before + toks_e1 + toks_middle + toks_e2 + toks_after
    # Multi-token entities are reduced to their last (head) token.
    p1 = len(toks_before) + len(toks_e1) - 1
    p2 = len(toks_before) + len(toks_e1) + len(toks_middle) + len(toks_e2) - 1
    word_ids = vocab.word_ids(tokens)
    n1, n2 = vocab.noun_ids((tokens[p1], tokens[p2]))
    bef, aft = _outside_windows(word_ids, p1, p2, m_out)
    return NounPairContext(
        n1=n1,
        n2=n2,
        w_in=tuple(word_ids[p1 + 1:p2]),
        w_bef=bef,
        w_aft=aft,
    )


def parse_semeval(source, vocab, m_out):
    """Parse a labeled SemEval-2010 Task 8 file into instances.

    `source` may be a path, an open text file, or an iterable of lines.
    Unlike pretraining extraction, adjacent entities (no words between) are
    allowed and there is no distance cut-off.  A malformed instance raises
    :class:`SemEvalFormatError`, naming ``path:line`` when `source` is a
    path.
    """
    named = isinstance(source, str) or hasattr(source, "__fspath__")
    if named:
        try:
            with open(source, encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError:
            raise not_utf8(source) from None
    else:
        lines = list(source)

    def fault(i, instance_id, message):
        where = f"{source}:{i + 1}: " if named else ""
        return SemEvalFormatError(instance_id, message, where)

    instances = []
    i = 0
    n = len(lines)
    while i < n:
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        m = _SENT_LINE_RE.match(lines[i].rstrip("\n"))
        if m is None:
            raise fault(i, len(instances) + 1,
                        f"expected '<id>\\t\"<sentence>\"', got {line!r}")
        instance_id = int(m.group(1))
        sentence = m.group(2)
        sentence_line = i
        i += 1
        while i < n and not lines[i].strip():
            i += 1
        if i >= n:
            raise fault(sentence_line, instance_id, "missing label line")
        try:
            label = parse_label(lines[i])
        except ValueError as exc:
            raise fault(i, instance_id, str(exc)) from None
        i += 1
        if i < n and lines[i].strip().startswith("Comment"):
            i += 1
        try:
            ctx = _instance_context(sentence, vocab, m_out)
        except ValueError as exc:
            raise fault(sentence_line, instance_id, str(exc)) from None
        instances.append(SemEvalInstance(instance_id, ctx, label))
    return instances
