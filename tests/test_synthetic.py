import hashlib

import pytest

from relemb.corpus import ALL_LABELS, OTHER, parse_semeval
from relemb.synthetic import PatternSpec, default_patterns, make_synthetic_data
from conftest import make_vocab


def _digest(data):
    text = "\0".join((data.tagged_text, data.train_text, data.test_text))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("kwargs,digest", [
    (dict(seed=501), "130afde9abc5b4ee"),
    (dict(label_flip_rate=0.3, seed=733), "67045f736902b602"),
])
def test_generated_text_is_pinned(kwargs, digest):
    """The generator's output, flipped training labels included, stays
    byte for byte what it was when labels were objects."""
    assert _digest(make_synthetic_data(200, 10, 10, **kwargs)) == digest


def _labels(files, text):
    vocab = make_vocab({}, {})
    return parse_semeval(files.path(text), vocab, 1).labels.tolist()


def test_flipping_reverses_the_direction_and_keeps_other(files):
    ce12, _, cc12, _ = default_patterns()
    other = PatternSpec(OTHER, ce12.slots, "plainly", (0, 60))
    data = make_synthetic_data(50, 5, 5, label_flip_rate=1.0, seed=3,
                               patterns=[ce12, cc12, other])
    train, test = (_labels(files, data.train_text),
                   _labels(files, data.test_text))
    assert sorted(set(test)) == [ce12.label, cc12.label, OTHER]
    assert sorted(set(train)) == [ce12.label ^ 1, cc12.label ^ 1, OTHER]
    assert [ALL_LABELS[i] for i in sorted(set(train))] == [
        "Cause-Effect(e2,e1)", "Content-Container(e2,e1)", "Other"]
