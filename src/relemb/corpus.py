"""Corpus ingestion: POS-tagged text, vocabularies, and noun-pair contexts.

The tagged-corpus format is one token per line as ``surface<TAB>POS`` with a
blank line terminating each sentence.  Labeled relation data uses the
SemEval-2010 Task 8 distribution format.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

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
    "RelationLabel",
    "SemEvalInstance",
    "SemEvalFormatError",
    "ArtifactError",
    "ConfigError",
    "parse_tagged_corpus",
    "build_vocabulary",
    "extract_noun_pair_contexts",
    "parse_semeval",
    "parse_label",
    "label_index",
    "tokenize",
    "write_contexts",
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

    def noun_positions(self):
        return [i for i, t in enumerate(self.tags) if t in NOUN_TAGS]


class TaggedCorpusReader:
    """Iterate ``surface<TAB>POS`` sentences from a text stream or path.

    Malformed lines (wrong column count, empty fields) are skipped and
    counted in ``skipped_lines``.  Blank lines separate sentences; leading
    and repeated blanks are ignored.  Iterating a path-backed reader twice
    re-reads the file.
    """

    def __init__(self, source):
        self._source = source
        self.skipped_lines = 0
        self.sentences_read = 0

    def _lines(self):
        if isinstance(self._source, (str,)) or hasattr(self._source, "__fspath__"):
            with open(self._source, encoding="utf-8") as fh:
                yield from fh
        else:
            yield from self._source

    def __iter__(self):
        words, tags = [], []
        for line in self._lines():
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                if words:
                    self.sentences_read += 1
                    yield TaggedSentence(tuple(words), tuple(tags))
                    words, tags = [], []
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                self.skipped_lines += 1
                continue
            words.append(parts[0])
            tags.append(parts[1])
        if words:
            self.sentences_read += 1
            yield TaggedSentence(tuple(words), tuple(tags))


def parse_tagged_corpus(source):
    """Return a :class:`TaggedCorpusReader` over a path, file object, or lines."""
    return TaggedCorpusReader(source)


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

    def _norm(self, surface):
        return surface.lower() if self.lowercase else surface

    def word_id(self, surface):
        return self._word_ids.get(self._norm(surface), UNK_WORD)

    def noun_id(self, surface):
        return self._noun_ids.get(self._norm(surface), UNK_NOUN)

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
        count, or other than the announced number of lines."""
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
    folded into the UNK slots.
    """
    if max_words < 1 or max_nouns < 1:
        raise ConfigError("max_words and max_nouns must be >= 1")
    word_counter: Counter = Counter()
    noun_counter: Counter = Counter()
    for sent in sentences:
        for surface, tag in zip(sent.words, sent.tags):
            key = surface.lower() if lowercase else surface
            word_counter[key] += 1
            if tag in NOUN_TAGS:
                noun_counter[key] += 1
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


def neighbor_slots(ctx, i, c, reach=None):
    """Word ids of the `c` neighbors on each side of between-position `i`.

    `i` is 1-based into ``ctx.w_in``.  Returns ``2*c`` ids: the left
    neighbors nearest first, then the right neighbors nearest first.  Slots
    beyond the between-words span, or more than `reach` positions away when
    `reach` is given, hold ``NULL_WORD``.
    """
    w_in = ctx.w_in
    m_in = len(w_in)
    if not 1 <= i <= m_in:
        raise ValueError(f"position {i} outside 1..{m_in}")
    limit = c if reach is None else min(c, reach)
    left = [w_in[i - j - 1] if j <= limit and i - j >= 1 else NULL_WORD
            for j in range(1, c + 1)]
    right = [w_in[i + j - 1] if j <= limit and i + j <= m_in else NULL_WORD
             for j in range(1, c + 1)]
    return left + right


def _outside_windows(word_ids, left_pos, right_pos, m_out):
    bef = word_ids[max(0, left_pos - m_out):left_pos]
    bef = (NULL_WORD,) * (m_out - len(bef)) + tuple(bef)
    aft = word_ids[right_pos + 1:right_pos + 1 + m_out]
    aft = tuple(aft) + (NULL_WORD,) * (m_out - len(aft))
    return bef, aft


def extract_noun_pair_contexts(sentence, vocab, m_out, max_between=10):
    """Emit every ordered noun pair of `sentence` with 1..`max_between`
    intervening tokens, as pretraining contexts.

    Pairs with zero words between them carry no prediction target and are
    omitted, as are pairs further apart than `max_between`.
    """
    if m_out < 1 or max_between < 1:
        raise ConfigError("m_out and max_between must be >= 1")
    positions = sentence.noun_positions()
    if len(positions) < 2:
        return []
    word_ids = [vocab.word_id(w) for w in sentence.words]
    out = []
    for a in range(len(positions) - 1):
        for b in range(a + 1, len(positions)):
            p1, p2 = positions[a], positions[b]
            between = p2 - p1 - 1
            if between < 1 or between > max_between:
                continue
            bef, aft = _outside_windows(word_ids, p1, p2, m_out)
            out.append(NounPairContext(
                n1=vocab.noun_id(sentence.words[p1]),
                n2=vocab.noun_id(sentence.words[p2]),
                w_in=tuple(word_ids[p1 + 1:p2]),
                w_bef=bef,
                w_aft=aft,
            ))
    return out


def write_contexts(contexts, m_out, path):
    """Extracted-context file: header ``relemb-contexts v1 m_out=<m>`` then
    one tab-separated line of id lists per context."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"relemb-contexts v1 m_out={m_out}\n")
        n = 0
        for ctx in contexts:
            fh.write("{} {}\t{}\t{}\t{}\n".format(
                ctx.n1, ctx.n2,
                " ".join(map(str, ctx.w_in)),
                " ".join(map(str, ctx.w_bef)),
                " ".join(map(str, ctx.w_aft))))
            n += 1
    return n


class ArtifactError(ValueError):
    """A malformed input file; the message names the file, and the line
    where there is one."""


class ConfigError(ValueError):
    """An invalid setting: a configuration value or an argument outside the
    range its function accepts."""


class ContextFile:
    """Re-iterable reader for the extracted-context file format.

    The header's ``m_out`` must be a positive integer.  Each line must hold
    four tab-separated fields of non-negative integer ids: two nouns, one or
    more words between them, and the two outside windows of exactly
    ``m_out`` ids each.  A file that does not raises :class:`ArtifactError`
    naming ``path:line``.
    """

    def __init__(self, path):
        self.path = path
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
        if header[:2] != ["relemb-contexts", "v1"]:
            raise ArtifactError(f"not a relemb-contexts file: {path}")
        try:
            self.m_out = int(dict(t.split("=", 1) for t in header[2:])["m_out"])
        except (KeyError, ValueError):
            self.m_out = 0
        if self.m_out < 1:
            raise ArtifactError(f"{path}:1: header lacks a positive integer "
                                f"m_out")

    def __iter__(self):
        m_out = self.m_out
        with open(self.path, encoding="utf-8") as fh:
            fh.readline()
            for lineno, line in enumerate(fh, 2):
                try:
                    pair, w_in, w_bef, w_aft = [
                        tuple(map(int, field.split()))
                        for field in line.rstrip("\n").split("\t")]
                except ValueError:
                    pair = None
                if (pair is None or len(pair) != 2 or not w_in
                        or len(w_bef) != m_out or len(w_aft) != m_out
                        or "-" in line):
                    raise ArtifactError(
                        f"{self.path}:{lineno}: {self._fault(line)}")
                yield NounPairContext(pair[0], pair[1], w_in, w_bef, w_aft)

    def _fault(self, line):
        """What is wrong with a line that failed the checks of
        :meth:`__iter__`."""
        fields = [field.split() for field in line.rstrip("\n").split("\t")]
        if len(fields) != 4:
            return f"{len(fields)} tab-separated fields, expected 4"
        for tok in sum(fields, []):
            if tok.startswith("-"):
                return f"negative id {tok!r}"
            try:
                int(tok)
            except ValueError:
                return f"non-integer id {tok!r}"
        if len(fields[0]) != 2:
            return f"{len(fields[0])} noun ids, expected 2"
        if not fields[1]:
            return "no words between the pair"
        return (f"outside windows of {len(fields[2])} and {len(fields[3])} "
                f"ids, header has m_out={self.m_out}")


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
    word_ids = [vocab.word_id(w) for w in tokens]
    bef, aft = _outside_windows(word_ids, p1, p2, m_out)
    return NounPairContext(
        n1=vocab.noun_id(tokens[p1]),
        n2=vocab.noun_id(tokens[p2]),
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
        with open(source, encoding="utf-8") as fh:
            lines = fh.readlines()
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
