"""The paper's claim on the synthetic task, as a gate for changes that alter
outputs: a classifier over pretrained embeddings beats the same classifier
over random ones.

Each seed runs the whole chain through ``cli.main``: ``build-vocab``,
``extract``, ``pretrain --t 1``, then ``train --fine-tune 0`` twice, once
from the pretrained ``model.bin`` and once from ``--init rand`` (whose
embeddings ``--out-model`` saves for ``eval``), and ``eval`` on each.
"""

import pytest

from relemb import cli
from relemb.synthetic import make_synthetic_data

# The least gain of macro-F1, in points, that pretraining must give.  At the
# seeds below the gains were 6.00 and 6.75 points when the gate was set.
_MARGIN = 4.0


def _macro_f1(report):
    values = dict(line.split("=", 1) for line in report.read_text().split())
    return float(values["macro_f1"])


def _run(*argv):
    assert cli.main([str(a) for a in argv]) == 0, argv


@pytest.mark.parametrize("seed", [501, 733])
def test_pretrained_embeddings_beat_random_ones(tmp_path, seed):
    data = make_synthetic_data(n_pretrain=20000, n_train_per_class=50,
                               n_test_per_class=100, seed=seed)
    corpus, train, test = (tmp_path / name for name in
                           ("corpus.tag", "train.txt", "test.txt"))
    corpus.write_text(data.tagged_text)
    train.write_text(data.train_text)
    test.write_text(data.test_text)
    vocab, contexts = tmp_path / "vocab.txt", tmp_path / "contexts.txt"
    _run("build-vocab", "--corpus", corpus, "--out", vocab)
    _run("extract", "--corpus", corpus, "--vocab", vocab, "--out", contexts)
    _run("pretrain", "--contexts", contexts, "--vocab", vocab,
         "--out", tmp_path / "model.bin", "--t", "1")
    scores = {}
    for name, source in (("relemb", ["--model", tmp_path / "model.bin"]),
                         ("random", ["--init", "rand",
                                     "--out-model", tmp_path / "rand.bin"])):
        clf, report = tmp_path / f"{name}.clf", tmp_path / f"{name}.txt"
        _run("train", "--train", train, "--vocab", vocab, "--out", clf,
             "--fine-tune", "0", *source)
        model = tmp_path / ("model.bin" if name == "relemb" else "rand.bin")
        _run("eval", "--test", test, "--vocab", vocab, "--model", model,
             "--clf", clf, "--report", report)
        scores[name] = _macro_f1(report)
    assert scores["relemb"] >= scores["random"] + _MARGIN, scores
