"""Every ``relemb`` name the traced benchmark run wraps still exists.

``bench/spans.py`` wraps functions by name and reports the names it cannot
find as ``trace_missing``, whose per-layer metrics then read 0.  This test
reads its three target lists and makes the same lookup, so a rename in
``src/`` fails here first.  Nothing under ``bench/`` is run or written.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
