"""Corpus ingestion: POS-tagged text, vocabularies, and noun-pair contexts.

The tagged-corpus format is one token per line as ``surface<TAB>POS`` with a
blank line terminating each sentence.  Labeled relation data uses the
SemEval-2010 Task 8 distribution format.

Every reader takes paths: :class:`TaggedCorpusReader` the files of a
tagged corpus, :func:`parse_semeval` one SemEval file.  A tagged corpus is
read once, as :class:`TokenBlock` arrays: each file in bounded byte
blocks, each read in one pass of the compiled scan of
:mod:`relemb.kernels`.  Any block that scan does not settle, and every
file when no C compiler is found, goes through the reader's per-line
loop, which stays the reference.  Counting (:func:`build_vocabulary`),
pair extraction (:func:`extract_noun_pair_contexts`, into
:class:`ContextArrays`), writing (:func:`write_contexts`) and the CBOW
baseline's id arrays work on those arrays.

Every stage holds noun-pair contexts as :class:`ContextArrays`, labelled
ones inside the :class:`LabelledContexts` of :func:`parse_semeval`;
:class:`NounPairContext` is the view of one context that reference code
reads.

Every binary artifact, the extracted contexts, the models and the
classifier, is one ASCII header line and then its arrays, written by
:func:`write_blob_file` and read and checked by :func:`read_blob_file`.
"""

from __future__ import annotations

import io
import math
import os
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
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
    "OTHER",
    "TaggedSentence",
    "TaggedCorpusReader",
    "Vocabulary",
    "NounPairContext",
    "neighbor_slots",
    "neighbor_slot_rows",
    "LabelledContexts",
    "SemEvalFormatError",
    "ArtifactError",
    "ConfigError",
    "not_utf8",
    "reading_utf8",
    "write_blob_file",
    "read_blob_file",
    "build_vocabulary",
    "check_extract_settings",
    "extract_noun_pair_contexts",
    "TokenBlock",
    "parse_semeval",
    "parse_label",
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


class TaggedCorpusReader:
    """Read ``surface<TAB>POS`` sentences from the files at `paths`, one
    after another; the end of a file ends its last sentence.

    A line is a token if its one tab splits it into two non-empty fields
    that are not both whitespace.  Any other line that is not whitespace
    only is skipped and counted in ``skipped_lines``.  Whitespace-only
    lines separate sentences; leading and repeated ones are ignored.  Files
    are read as UTF-8 with universal newlines, and bytes that are not UTF-8
    raise :class:`ArtifactError` naming ``path:line``.  Each pass re-reads
    the files and restarts ``skipped_lines`` and ``sentences_read``.

    Iterating yields :class:`TaggedSentence` objects from the per-line loop,
    the reference for these rules.  :meth:`blocks` yields the same
    sentences as :class:`TokenBlock` arrays.  It reads each file in bounded
    byte blocks, each read in one pass of the compiled scan, which finds
    the line ends, tabs and blank lines, maps each word to its surface id
    through a hash table that compares the bytes exactly, and checks the
    noun tags; Python decodes only each block's distinct surfaces.  A block
    the scan does not settle (it has a line of multi-byte characters and
    whitespace only) goes through the per-line loop, as does every file
    when no C compiler is found.
    """

    def __init__(self, *paths):
        self._paths = paths
        self.skipped_lines = 0
        self.sentences_read = 0

    def __iter__(self):
        self.skipped_lines = self.sentences_read = 0
        for path in self._paths:
            with reading_utf8(path), open(path, encoding="utf-8") as fh:
                yield from self._sentences(fh)

    def blocks(self):
        """One pass over the files as :class:`TokenBlock` objects, each
        holding whole sentences."""
        compiled = kernels.load()
        if compiled is None:
            yield from _sentence_blocks(iter(self))
            return
        self.skipped_lines = self.sentences_read = 0
        for path in self._paths:
            with reading_utf8(path):
                yield from self._path_blocks(compiled, path)

    def empty_error(self):
        """The :class:`ArtifactError`, naming the files, for a pass that
        read no tokens."""
        return ArtifactError(f"{', '.join(map(str, self._paths))}: no tokens")

    def _path_blocks(self, compiled, path):
        with open(path, "rb") as fh:
            data = b""
            while True:
                # a sentence longer than a block grows the next read
                chunk = fh.read(max(_TAGGED_BLOCK, len(data)))
                final = not chunk
                data += chunk
                if not data:
                    return
                scan = compiled.scan_tagged(data, final)
                if scan.used:
                    kept = data[:scan.used]
                    if scan.unsettled is not None:
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
                    data = data[scan.used:]
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
    """:class:`TokenBlock` objects of whole `sentences`, each cut once its
    token lines hold ``_TAGGED_BLOCK`` characters, as the compiled route
    cuts its blocks at about as many bytes."""
    batch, n = [], 0
    for sent in sentences:
        batch.append(sent)
        # each token line: surface, tab, tag and line end
        n += (sum(map(len, sent.words)) + sum(map(len, sent.tags))
              + 2 * len(sent))
        if n >= _TAGGED_BLOCK:
            yield TokenBlock.of_sentences(batch)
            batch, n = [], 0
    if batch:
        yield TokenBlock.of_sentences(batch)


# Bytes of a tagged-corpus path read at a time.  A block holds the bytes up
# to its last blank line, and the rest starts the next one.
_TAGGED_BLOCK = 1 << 16


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

    def word_surface(self, wid):
        if wid == NULL_WORD:
            return "NULL"
        if wid == UNK_WORD:
            return "UNK"
        return self.word_surfaces[wid]

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
        count, a ranked surface repeated within its inventory, other than
        the announced number of lines, or bytes that are not UTF-8.  The
        header must count the reserved ids (2 words, 1 noun) and name each
        flag once.  A file whose word counts are all 0 counted no corpus,
        and raises :class:`ArtifactError` naming the file."""
        with reading_utf8(path), open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
            if header[:2] != ["relemb-vocab", "v1"]:
                raise ArtifactError(f"{path}:1: not a relemb-vocab file")
            try:
                n_words, n_nouns = int(header[2]), int(header[3])
                flags = _header_dict((tok.split("=", 1) for tok in header[4:]),
                                     f"{path}:1")
                flag = flags.get("lowercase", "1")
                if flag not in ("0", "1"):
                    raise ValueError(flag)
                lowercase = flag == "1"
            except ArtifactError:
                raise
            except (IndexError, ValueError):
                n_words = n_nouns = -1
            if n_words < 2 or n_nouns < 1:
                raise ArtifactError(
                    f"{path}:1: header needs integer counts of at least 2 "
                    f"words and 1 noun (the reserved ids) and a lowercase "
                    f"flag of 0 or 1")
            surfaces, counts = [], []
            # ranked surface -> its line, per inventory; the reserved ids
            # (2 words, 1 noun) are never looked up, so they may repeat
            seen = {"word": {}, "noun": {}}
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
                kind, rank = (("word", len(surfaces)) if len(surfaces) < n_words
                              else ("noun", len(surfaces) - n_words))
                if rank >= (2 if kind == "word" else 1):
                    first = seen[kind].setdefault(parts[0], lineno)
                    if first != lineno:
                        raise ArtifactError(
                            f"{path}:{lineno}: {kind} {parts[0]!r} repeats "
                            f"line {first}")
                surfaces.append(parts[0])
                counts.append(count)
        if len(surfaces) < n_words + n_nouns:
            raise ArtifactError(
                f"{path}:{len(surfaces) + 2}: file ends after {len(surfaces)} "
                f"of the header's {n_words} words and {n_nouns} nouns")
        if not any(counts[:n_words]):
            raise ArtifactError(f"{path}: every word count is 0")
        return cls(surfaces[:n_words], surfaces[n_words:], counts[:n_words],
                   counts[n_words:], lowercase)


def _rank(counter, limit):
    # Stable sort on count keeps first-occurrence order for ties, because
    # Counter preserves insertion order.
    ranked = sorted(counter.items(), key=lambda kv: -kv[1])
    return ranked[:limit]


def build_vocabulary(corpus, max_words, max_nouns, lowercase=True):
    """Count the :class:`TaggedCorpusReader` `corpus`, read once as its
    :meth:`~TaggedCorpusReader.blocks`, and build the two frequency-ranked
    inventories.

    The word inventory keeps the `max_words` most frequent surface forms of
    all tokens; the noun inventory keeps the `max_nouns` most frequent
    surfaces among tokens tagged NN/NNS/NNP/NNPS.  Out-of-inventory mass is
    folded into the UNK slots.  A corpus with no tokens raises its
    :meth:`~TaggedCorpusReader.empty_error`.
    """
    if max_words < 1 or max_nouns < 1:
        raise ConfigError("max_words and max_nouns must be >= 1")
    # Counter keeps first-occurrence order, which breaks count ties.
    word_counter: Counter = Counter()
    noun_counter: Counter = Counter()
    for block in corpus.blocks():
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
    if total_tokens == 0:
        raise corpus.empty_error()
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
    return _pair_contexts(tokens, vocab, pos[a], pos[b], sentence[a], m_out)


def _pair_contexts(tokens, vocab, p1, p2, sentence, m_out):
    """The :class:`ContextArrays` of the noun pairs at token positions
    ``p1[r] < p2[r]`` of :class:`TokenBlock` `tokens`, pair ``r`` lying in
    sentence ``sentence[r]``: the nouns, the words between them, and the
    outside windows `m_out` wide, NULL-padded past the sentence's ends.
    The one builder of contexts from tokens."""
    word_ids = tokens.word_ids(vocab)
    noun_ids = np.array(vocab.noun_ids(tokens.surfaces), np.int64)
    offsets = np.zeros(len(p1) + 1, np.int64)
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
    """Write the extracted-context file: header ``relemb-contexts v1
    m_out=<m> n=<contexts> nin=<words between> dtype=int32``, then int32
    arrays of the first nouns, the second nouns, each context's number of
    words between the pair, those words, and the two outside windows, each
    ``(n, m)``.
    `contexts` is a :class:`ContextArrays` or an iterable of them, all read,
    and held as int32, before the file is written by
    :func:`write_blob_file`, so an error while they are read leaves `path`
    as it was.  An id that int32 cannot hold raises ValueError.  Returns
    the number of contexts written."""
    if isinstance(contexts, ContextArrays):
        contexts = (contexts,)
    parts = [_int32_columns(arrays, path)
             for arrays in chain((ContextArrays.pack([], m_out),), contexts)]
    n = sum(len(part[0]) for part in parts)
    n_in = sum(len(part[3]) for part in parts)
    write_blob_file(path, f"relemb-contexts v1 m_out={m_out} n={n} "
                    f"nin={n_in}", map(np.concatenate, zip(*parts)), "<i4")
    return n


def _int32_columns(arrays, path):
    """The six arrays of :class:`ContextArrays` `arrays` that a contexts
    file stores, as int32; an id int32 cannot hold raises ValueError."""
    columns = (arrays.n1, arrays.n2, np.diff(arrays.offsets), arrays.w_in,
               arrays.w_bef, arrays.w_aft)
    limits = np.iinfo(np.int32)
    for ids in columns:
        if ids.size and not limits.min <= ids.min() <= ids.max() <= limits.max:
            raise ValueError(f"{path}: context ids {ids.min()} .. {ids.max()} "
                             f"do not all fit int32")
    return [ids.astype("<i4") for ids in columns]


class ArtifactError(ValueError):
    """A malformed input file; the message names the file, and the line or
    the context where there is one."""


def not_utf8(path):
    """The :class:`ArtifactError` for file `path`, a decode of which
    raised UnicodeDecodeError, naming ``path:line`` of its first byte that
    is not UTF-8.  The file is read again as bytes, line by line, because
    the offset a text-mode read reports counts from the start of its decode
    chunk; no UTF-8 sequence holds a newline byte, so each line decodes on
    its own."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ArtifactError(f"{path}:{lineno}: not UTF-8: byte "
                                     f"0x{line[exc.start]:02x}")
    return ArtifactError(f"{path}: not UTF-8")


@contextmanager
def reading_utf8(path):
    """Raise :func:`not_utf8` of `path` for a UnicodeDecodeError raised
    inside, as a read of `path` decodes it."""
    try:
        yield
    except UnicodeDecodeError:
        raise not_utf8(path) from None


class ConfigError(ValueError):
    """An invalid setting: a configuration value or an argument outside the
    range its function accepts."""


# --- header-and-blob artifacts ----------------------------------------------

def write_blob_file(path, header, arrays, dtype):
    """Binary artifact: the ASCII `header` line, ending ``dtype=`` and the
    name of `dtype`, then each array as little-endian `dtype`, in order.
    The file is written beside `path` and moved there once complete, so
    `path` is either whole or as it was."""
    stored = np.dtype(dtype).newbyteorder("<")
    part = f"{os.fspath(path)}.part"
    try:
        with open(part, "wb") as fh:
            fh.write(f"{header} dtype={stored.name}\n".encode("ascii"))
            for arr in arrays:
                fh.write(np.ascontiguousarray(arr, dtype=stored))
        os.replace(part, path)
    except BaseException:
        if os.path.exists(part):
            os.remove(part)
        raise


# Values checked for being finite at a time: the check's temporary
# array takes 128 KiB whatever the artifact's size.
_FINITE_CHUNK = 1 << 17


def _check_finite(path, k, arr):
    """Raise :class:`ArtifactError` naming `path` at the first NaN or
    infinity of `arr`, the `k`-th array stored there (from 1)."""
    flat = arr.reshape(-1)
    for lo in range(0, flat.size, _FINITE_CHUNK):
        finite = np.isfinite(flat[lo:lo + _FINITE_CHUNK])
        if not finite.all():
            at = lo + int(finite.argmin())
            raise ArtifactError(
                f"{path}: non-finite value {flat[at]} in stored array {k} "
                f"at index {tuple(map(int, np.unravel_index(at, arr.shape)))}")


def _header_dict(pairs, where):
    """The header's ``(key, value)`` `pairs` as a dict; raises
    :class:`ArtifactError` naming `where` when a key repeats."""
    kv = {}
    for key, value in pairs:
        if key in kv:
            raise ArtifactError(f"{where}: header repeats {key}")
        kv[key] = value
    return kv


def _header_dims(kv, keys, least=1):
    """The values of `keys` in header dict `kv` as integers; raises
    ValueError unless each is `least` or more."""
    dims = [int(kv[key]) for key in keys]
    for key, dim in zip(keys, dims):
        if dim < least:
            raise ValueError(f"{key}={dim} is below {least}")
    return dims


# The longest header line read.  Every header written is under 100 bytes
# (a classifier's, with its feature flags, is the longest), so a file with
# no line end this far in is not an artifact, and is not read further.
_HEADER_MAX = 4096


def read_blob_file(path, magic, required, shapes, dtype):
    """Read a file written by :func:`write_blob_file` whose header is
    ``<magic> v1 key=value ...`` and whose arrays are `dtype`.

    `shapes` maps the header dict to the shapes of the stored arrays.  The
    magic, the `required` keys, the element type the header's ``dtype``
    states (a file that states another, or none, is rejected) and the
    exact byte length are checked before any array is read, and every
    value of a float `dtype` is checked to be finite; every error names
    `path`.  Each array is read straight into an array of its own.  Returns
    ``(header dict, arrays)``.
    """
    stored = np.dtype(dtype).newbyteorder("<")
    with open(path, "rb") as fh:
        line = fh.readline(_HEADER_MAX)
        whole = len(line) < _HEADER_MAX or line.endswith(b"\n")
        with reading_utf8(path):
            header = line.decode("utf-8").split() if whole else []
        if header[:2] != [magic, "v1"]:
            raise ArtifactError(f"not a {magic} file: {path}")
        kv = _header_dict((tok.partition("=")[::2] for tok in header[2:]),
                          path)
        missing = [key for key in (*required, "dtype") if key not in kv]
        if missing:
            raise ArtifactError(f"{path}: header lacks {', '.join(missing)}")
        if kv["dtype"] != stored.name:
            raise ArtifactError(f"{path}: element type {kv['dtype']}, "
                                f"expected {stored.name}")
        try:
            dims = shapes(kv)
        except ValueError as exc:
            raise ArtifactError(f"{path}: bad header value: {exc}") from None
        want = stored.itemsize * sum(map(math.prod, dims))
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if held != want:
            raise ArtifactError(f"{path}: header implies {want} data bytes, "
                                f"file holds {held}")
        arrays = []
        for k, shape in enumerate(dims, 1):
            arr = kernels.aligned(shape, stored)
            if fh.readinto(arr) != arr.nbytes:
                raise ArtifactError(f"{path}: file ends inside stored array "
                                    f"{k}")
            if arr.dtype.kind == "f":
                _check_finite(path, k, arr)
            arrays.append(arr)
    return kv, arrays


@dataclass
class ContextArrays:
    """Contexts packed into flat id arrays, in order.

    Context ``r`` has nouns ``n1[r]`` and ``n2[r]``, the words between them
    ``w_in[offsets[r]:offsets[r + 1]]``, and outside windows ``w_bef[r]``
    and ``w_aft[r]`` (shape ``(n, m_out)``).  ``path`` names the context
    file the arrays were read from, if any.  Iterating yields the contexts.
    """

    n1: np.ndarray
    n2: np.ndarray
    offsets: np.ndarray
    w_in: np.ndarray
    w_bef: np.ndarray
    w_aft: np.ndarray
    path: object = None

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

    def take(self, rows):
        """Contexts `rows` (indices, in the order given) as int64 arrays of
        their own, their offsets from 0."""
        rows = np.asarray(rows, np.int64)
        first = self.offsets[rows]
        m_in = self.offsets[rows + 1] - first
        offsets = np.zeros(len(rows) + 1, np.int64)
        np.cumsum(m_in, out=offsets[1:])
        return ContextArrays(
            *(a.astype(np.int64, copy=False) for a in (
                self.n1[rows], self.n2[rows], offsets,
                self.w_in[_spans(first, m_in)], self.w_bef[rows],
                self.w_aft[rows])))

    def context(self, r):
        return NounPairContext(
            int(self.n1[r]), int(self.n2[r]),
            tuple(self.w_in[self.offsets[r]:self.offsets[r + 1]].tolist()),
            tuple(self.w_bef[r].tolist()), tuple(self.w_aft[r].tolist()))

    def error(self, r, message):
        """The error for a fault in context `r` (from 0):
        :class:`ArtifactError` naming the file for arrays read from one,
        else ValueError."""
        if self.path is None:
            return ValueError(f"pretraining context {r}: {message}")
        return ArtifactError(f"{self.path}: context {r}: {message}")

    def __iter__(self):
        return map(self.context, range(len(self)))


class ContextFile:
    """An extracted-context file, written by :func:`write_contexts`, read
    whole through :func:`read_blob_file` and checked when opened.

    The header's ``m_out`` must be 1 or more and its ``n`` and ``nin`` 0 or
    more; the between-word counts must be 0 or more and add up to ``nin``;
    the file must hold exactly the bytes the header implies.  Any fault
    raises :class:`ArtifactError` naming the file.  :attr:`arrays` holds
    the contexts as int32 :class:`ContextArrays`; iterating yields them.
    That the ids lie in a vocabulary, and that each context has words
    between its pair, is checked before pretraining, where the vocabulary
    is known.
    """

    def __init__(self, path):
        self.path = path
        _, (n1, n2, m_in, w_in, w_bef, w_aft) = read_blob_file(
            path, "relemb-contexts", ("m_out", "n", "nin"), _context_shapes,
            "<i4")
        offsets = np.zeros(len(n1) + 1, np.int64)
        np.cumsum(m_in, out=offsets[1:])
        self.arrays = ContextArrays(n1, n2, offsets, w_in, w_bef, w_aft, path)
        self.m_out = self.arrays.m_out
        if (m_in < 0).any():
            r = int((m_in < 0).argmax())
            raise self.arrays.error(r, f"negative count {m_in[r]} of words "
                                       f"between the pair")
        if offsets[-1] != len(w_in):
            raise ArtifactError(f"{path}: between-word counts add up to "
                                f"{offsets[-1]}, the header has "
                                f"nin={len(w_in)}")

    def __iter__(self):
        return iter(self.arrays)


def _context_shapes(kv):
    (m_out,) = _header_dims(kv, ("m_out",))
    n, n_in = _header_dims(kv, ("n", "nin"), least=0)
    return [(n,), (n,), (n,), (n_in,), (n, m_out), (n, m_out)]


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

# A relation label is its index into ALL_LABELS everywhere inside relemb;
# the surface forms appear only where a file or stdout is read or written.
# Family f's two directions are labels 2f (e1,e2) and 2f + 1 (e2,e1), so
# ``i // 2`` is a label's family and ``i ^ 1`` its reverse; Other is last.
ALL_LABELS = tuple([f"{f}({d})" for f in FAMILIES for d in _DIRECTIONS]
                   + ["Other"])
OTHER = len(ALL_LABELS) - 1

_SURFACE_INDEX = {surface: i for i, surface in enumerate(ALL_LABELS)}


def parse_label(text):
    """The index of a label surface form such as ``Cause-Effect(e1,e2)`` or
    ``Other``."""
    i = _SURFACE_INDEX.get(text.strip())
    if i is None:
        raise ValueError(f"unknown relation label: {text!r}")
    return i


# --- SemEval-2010 Task 8 format --------------------------------------------

_TOKEN_RE = re.compile(r"\w+(?:['’-]\w+)*")


def tokenize(text):
    """Word tokens of `text`; punctuation is dropped."""
    return _TOKEN_RE.findall(text)


class SemEvalFormatError(ArtifactError):
    """A malformed labeled instance.  The message names ``path:line`` and
    the instance id."""

    def __init__(self, instance_id, message, where):
        super().__init__(f"{where}: instance {instance_id}: {message}")
        self.instance_id = instance_id


@dataclass
class LabelledContexts:
    """Labelled instances, in order: instance ``r`` has id ``ids[r]``, gold
    label index ``labels[r]`` and context ``contexts.context(r)``."""

    ids: np.ndarray
    labels: np.ndarray
    contexts: ContextArrays

    def __len__(self):
        return len(self.ids)

    def take(self, rows):
        """Instances `rows` (indices, in the order given)."""
        return LabelledContexts(self.ids[rows], self.labels[rows],
                                self.contexts.take(rows))


# ids of up to 18 digits fit int64
_SENT_LINE_RE = re.compile(r"^(\d{1,18})\t\"(.*)\"\s*$")


def _entity_spans(sentence):
    """``(before, e1, middle, e2, after)``: the text of `sentence` around
    and inside its ``<e1>...</e1>`` and ``<e2>...</e2>`` spans.

    Each span runs from the first opening tag to the first closing tag
    after it, as the non-greedy ``re.search(r"<e1>(.*?)</e1>", sentence,
    flags=re.S)`` would match it; the tags are found with ``str.find``.
    Raises ValueError when a span is missing, or when ``<e1>`` opens after
    ``<e2>``.  Overlapping spans leave `middle` empty.
    """
    spans = []
    for open_tag, close_tag in (("<e1>", "</e1>"), ("<e2>", "</e2>")):
        start = sentence.find(open_tag)
        end = sentence.find(close_tag, start + 4) if start >= 0 else -1
        if end < 0:
            raise ValueError("missing <e1>/<e2> markup")
        spans.append((start, end))
    (s1, t1), (s2, t2) = spans
    if s1 > s2:
        raise ValueError("entity markup out of order")
    return (sentence[:s1], sentence[s1 + 4:t1], sentence[t1 + 5:s2],
            sentence[s2 + 4:t2], sentence[t2 + 5:])


def _instance_tokens(sentence):
    """The tokens of a marked-up instance sentence and the positions of
    its two entities' heads, each entity's last token."""
    before, e1, middle, e2, after = map(tokenize, _entity_spans(sentence))
    if not e1 or not e2:
        raise ValueError("empty entity span")
    p1 = len(before) + len(e1) - 1
    return before + e1 + middle + e2 + after, p1, p1 + len(middle) + len(e2)


def parse_semeval(path, vocab, m_out):
    """Parse the labeled SemEval-2010 Task 8 file at `path` into
    :class:`LabelledContexts`, with outside windows `m_out` wide.

    The instances' tokens form one :class:`TokenBlock`, one sentence per
    instance, whose pairs are the two entity heads.  Unlike pretraining
    extraction, adjacent entities (no words between) are allowed and there
    is no distance cut-off.  A malformed instance raises
    :class:`SemEvalFormatError`, naming ``path:line``.
    """
    with reading_utf8(path), open(path, encoding="utf-8") as fh:
        lines = fh.readlines()

    def fault(i, instance_id, message):
        return SemEvalFormatError(instance_id, message, f"{path}:{i + 1}")

    ids, labels, heads, offsets = [], [], [], [0]
    index, token_ids = {}, []       # surface -> its id; each token's id
    i = 0
    n = len(lines)
    while i < n:
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        m = _SENT_LINE_RE.match(lines[i].rstrip("\n"))
        if m is None:
            raise fault(i, len(ids) + 1,
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
            labels.append(parse_label(lines[i]))
        except ValueError as exc:
            raise fault(i, instance_id, str(exc)) from None
        i += 1
        if i < n and lines[i].strip().startswith("Comment"):
            i += 1
        try:
            tokens, p1, p2 = _instance_tokens(sentence)
        except ValueError as exc:
            raise fault(sentence_line, instance_id, str(exc)) from None
        ids.append(instance_id)
        heads.append((len(token_ids) + p1, len(token_ids) + p2))
        token_ids += [index.setdefault(w, len(index)) for w in tokens]
        offsets.append(len(token_ids))
    p1, p2 = np.array(heads, np.int64).reshape(-1, 2).T
    noun = np.zeros(len(token_ids), bool)
    noun[p1] = noun[p2] = True
    block = TokenBlock(list(index), np.array(token_ids, np.int64), noun,
                       np.array(offsets, np.int64))
    return LabelledContexts(
        np.array(ids, np.int64), np.array(labels, np.int64),
        _pair_contexts(block, vocab, p1, p2, np.arange(len(ids)), m_out))
