"""Every ``relemb`` name the traced benchmark run wraps still exists.

``bench/spans.py`` wraps functions by name and reports the names it cannot
find as ``trace_missing``, whose per-layer metrics then read 0.  This test
reads its three target lists and makes the same lookup, so a rename in
``src/`` fails here first.  Nothing under ``bench/`` is run or written.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

from relemb import cli, corpus
from relemb.synthetic import make_synthetic_data

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_name_exists():
    spans = _load_spans()
    targets = ([(mod, cls, attr) for mod, cls, attr, _, _ in spans.FUNCTIONS]
               + [(mod, cls, "__iter__") for mod, cls, _ in spans.ITERATORS]
               + [(mod, cls, attr) for mod, cls, attr, _ in spans.CLASSMETHODS])
    assert len(targets) > 20
    missing = []
    for mod, cls, attr in targets:
        owner = importlib.import_module(mod)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{mod}.{cls + '.' if cls else ''}{attr}")
    assert missing == []


def test_traced_pair_count_equals_printed_pairs(tmp_path, monkeypatch):
    """The traced run counts ``len()`` of every result of
    ``corpus.extract_noun_pair_contexts`` as the pairs the CLI extracts;
    over several blocks of a corpus, the sum must equal ``pairs:``."""
    spans = _load_spans()
    (observe,) = [obs for mod, _, attr, _, obs in spans.FUNCTIONS
                  if (mod, attr) == ("relemb.corpus",
                                     "extract_noun_pair_contexts")]
    tracer = spans.Tracer()
    monkeypatch.setattr(corpus, "extract_noun_pair_contexts", tracer.wrap(
        "corpus.extract_noun_pair_contexts",
        corpus.extract_noun_pair_contexts, observe))
    monkeypatch.setattr(corpus, "_TAGGED_BLOCK", 1 << 12)
    data = make_synthetic_data(n_pretrain=400, n_train_per_class=2,
                               n_test_per_class=2, seed=3)
    path = tmp_path / "corpus.tag"
    path.write_text(data.tagged_text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["build-vocab", "--corpus", str(path),
                         "--out", str(tmp_path / "vocab.txt")]) == 0
        assert cli.main(["extract", "--corpus", str(path),
                         "--vocab", str(tmp_path / "vocab.txt"),
                         "--out", str(tmp_path / "contexts.txt")]) == 0
    printed = [line for line in out.getvalue().splitlines()
               if line.startswith("pairs: ")]
    assert printed == ["pairs: 400"]
    assert tracer.stats["corpus.extract_noun_pair_contexts"].calls > 1
    assert tracer.counts["corpus.pairs"] == 400
