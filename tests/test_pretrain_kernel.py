"""The compiled pretraining and CBOW walks against the numpy loops they
replace, and the build of the compiled object in :mod:`relemb.kernels`."""

import dataclasses
import logging
import os
import subprocess

import numpy as np
import pytest

from relemb import cbow_baseline as cb
from relemb import embed_train as et
from relemb import kernels
from relemb.corpus import (ContextArrays, NounPairContext, TaggedSentence,
                           neighbor_slot_rows)
from conftest import make_vocab, rand_ctx, rand_params


@pytest.fixture
def kernel():
    compiled = kernels.load()
    if compiled is None:
        pytest.skip("no C compiler found; training takes the numpy steps")
    return compiled


def _on_both_backends(monkeypatch, train, *args):
    """`train(*args)` on the compiled walk, then on the numpy loop; each
    result with the state its generator ended in, to pin the draws it
    consumed.  `train` makes one generator with ``default_rng``."""
    runs = []
    for backend in ("compiled", "numpy"):
        made = []
        real = np.random.default_rng

        def recording(*a, **kw):
            made.append(real(*a, **kw))
            return made[-1]

        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", recording)
            if backend == "numpy":
                patch.setattr(kernels, "load", lambda: None)
            result = train(*args)
        (rng,) = made
        runs.append((result, rng.bit_generator.state))
    return runs


def _assert_same_run(runs, names):
    """The compiled and numpy runs made the same draws and counts, and
    agree on window objectives and parameters to 1e-9."""
    ((got, got_log), got_state), ((want, want_log), want_state) = runs
    assert got_state == want_state
    counts = ("targets_seen", "steps_taken", "pairs_discarded",
              "targets_discarded")
    assert ([getattr(got_log, c) for c in counts]
            == [getattr(want_log, c) for c in counts])
    assert [n for n, _ in got_log.windows] == [n for n, _ in want_log.windows]
    np.testing.assert_allclose([v for _, v in got_log.windows],
                               [v for _, v in want_log.windows], rtol=1e-9)
    for name in names:
        ref = getattr(want, name)
        np.testing.assert_allclose(getattr(got, name), ref, rtol=1e-9,
                                   atol=1e-9 * np.abs(ref).max(),
                                   err_msg=name)


def _random_contexts(rng, n, m_out, n_nouns, n_words, p_words=None):
    """The ContextArrays of `n` contexts of 1-4 words between the pair,
    drawn with `p_words`; one in five has n1 == n2."""
    contexts = []
    for _ in range(n):
        ctx = NounPairContext(
            int(rng.integers(0, n_nouns)), int(rng.integers(0, n_nouns)),
            tuple(rng.choice(n_words, int(rng.integers(1, 5)), p=p_words)
                  .tolist()),
            tuple(rng.integers(0, n_words, m_out).tolist()),
            tuple(rng.integers(0, n_words, m_out).tolist()))
        if rng.random() < 0.2:
            ctx = dataclasses.replace(ctx, n2=ctx.n1)
        contexts.append(ctx)
    return ContextArrays.pack(contexts, m_out)


_PARAMS = ("noun_vecs", "word_vecs", "pred_vecs", "pred_bias")


@pytest.mark.parametrize("m_out", [1, 3])
@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("d", [1, 3])
def test_kernel_matches_numpy_steps(kernel, monkeypatch, d, c, m_out):
    rng = np.random.default_rng(100 * d + 10 * c + m_out)
    vocab = make_vocab({f"w{i}": i + 1 for i in range(5)},
                       {"x": 3, "y": 2})
    contexts = _random_contexts(rng, 400, m_out, vocab.n_nouns, vocab.n_words)
    cfg = et.PretrainConfig(dim=d, window=c, negatives=8, alpha=0.1,
                            subsample=1.0, report_every=97)
    runs = _on_both_backends(monkeypatch, et.train_embeddings, contexts,
                             vocab, cfg)
    assert runs[0][0][1].steps_taken == sum(x.m_in for x in contexts)
    _assert_same_run(runs, _PARAMS)


# one word with ~90% of the noise mass, so that noise draws clash with it
_HEAVY = {"heavy": 3 * 10 ** 6, **{f"w{i}": 10 ** 4 for i in range(6)}}

# name: word counts, noun counts, subsampling threshold, report_every, and
# the share of targets that are the first word
_SCENARIOS = {
    "forced_clashes": (_HEAVY, {"x": 5, "y": 5}, 1.0, 1000, 0.6),
    "one_word_noise": ({"only": 7}, {"x": 5, "y": 5}, 1.0, 1000, 1.0),
    "pairs_and_targets_discarded": (
        {"a": 900, "b": 50, "c": 40, "d": 30}, {"x": 800, "y": 3, "z": 2},
        2e-2, 1000, None),
    # a report point every few contexts: discarded pairs pass over some
    "reports_straddle_discards": (
        {"a": 900, "b": 50, "c": 40, "d": 30}, {"x": 800, "y": 3, "z": 2},
        2e-2, 7, None),
}


def _scenario_vocab(name):
    words, nouns, t, report_every, heavy = _SCENARIOS[name]
    vocab = make_vocab(words, nouns)
    if heavy is None:
        p_words = None
    else:
        p_words = np.full(vocab.n_words,
                          (1 - heavy) / max(vocab.n_words - 3, 1))
        p_words[:2] = 0.0
        p_words[2] = heavy
    return vocab, p_words, t, report_every


@pytest.mark.parametrize("name", list(_SCENARIOS))
def test_pretraining_walk_draws_as_numpy(kernel, monkeypatch, name):
    vocab, p_words, t, report_every = _scenario_vocab(name)
    rng = np.random.default_rng(len(name))
    contexts = _random_contexts(rng, 300, 2, vocab.n_nouns, vocab.n_words,
                                p_words)
    cfg = et.PretrainConfig(dim=3, window=2, negatives=6, alpha=0.1,
                            subsample=t, epochs=2, seed=7,
                            report_every=report_every)
    # blocks of a few targets, so that report points also fall inside them
    monkeypatch.setattr(et, "_BATCH_STEPS", 5)
    runs = _on_both_backends(monkeypatch, et.train_embeddings, contexts,
                             vocab, cfg)
    log = runs[0][0][1]
    assert log.steps_taken > 0
    if name == "forced_clashes":
        assert et.NoiseSampler(vocab.word_counts).probs[2] > 0.85
    if t < 1.0:
        assert log.pairs_discarded > 0
        assert 0 < log.targets_discarded
    _assert_same_run(runs, _PARAMS)


@pytest.mark.parametrize("name", list(_SCENARIOS))
def test_cbow_walk_draws_as_numpy(kernel, monkeypatch, name):
    vocab, p_words, t, report_every = _scenario_vocab(name)
    rng = np.random.default_rng(len(name))
    sentences = [
        TaggedSentence(words, ("NN",) * len(words)) for words in (
            tuple(vocab.word_surfaces[i] for i in rng.choice(
                np.arange(2, vocab.n_words), int(rng.integers(1, 9)),
                p=None if p_words is None else p_words[2:]))
            for _ in range(200))]
    cfg = et.PretrainConfig(dim=3, window=2, negatives=6, alpha=0.1,
                            subsample=t, epochs=2, seed=7,
                            report_every=report_every)
    runs = _on_both_backends(monkeypatch, cb.train_cbow, sentences, vocab,
                             cfg)
    log = runs[0][0][1]
    assert log.steps_taken > 0
    if t < 1.0:
        assert 0 < log.targets_discarded < log.targets_seen
    _assert_same_run(runs, ("in_vecs", "out_vecs"))


def test_kernel_source_builds_without_warnings(tmp_path):
    gcc = kernels.shutil.which("gcc")
    if gcc is None:
        pytest.skip("no C compiler found")
    build = subprocess.run(
        [gcc, *kernels.FLAGS, "-Wall", "-Wextra", "-Werror", "-x", "c", "-",
         "-o", str(tmp_path / "kernels.so"), "-lm"],
        input=kernels.SOURCE, capture_output=True, text=True)
    assert build.returncode == 0, build.stderr


def test_kernel_keeps_subnormals(kernel):
    # an object built with -ffast-math turns on flush-to-zero for the whole
    # process when it is loaded
    assert (np.array([3e-308]) / 100 != 0).all()


def test_build_is_cached_and_reused(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    if kernels.load.__wrapped__() is None:
        pytest.skip("no C compiler found")
    assert [p.suffix for p in (tmp_path / "relemb").iterdir()] == [".so"]

    def no_compile(gcc, path):
        raise AssertionError("compiled again")

    monkeypatch.setattr(kernels, "_compile", no_compile)
    assert kernels.load.__wrapped__() is not None


def test_warm_load_starts_no_process(tmp_path, monkeypatch):
    """Once built, the object is found again without running a process;
    its key follows the size and the mtime of the compiler on ``PATH``."""
    gcc = kernels.shutil.which("gcc")
    if gcc is None:
        pytest.skip("no C compiler found")
    wrapper = tmp_path / "bin" / "gcc"
    wrapper.parent.mkdir()
    wrapper.write_text(f'#!/bin/sh\nexec "{gcc}" "$@"\n')
    wrapper.chmod(0o755)
    monkeypatch.setenv("PATH", f"{wrapper.parent}{os.pathsep}"
                               f"{os.environ.get('PATH', '')}")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    kernels.load.cache_clear()
    try:
        assert kernels.load() is not None
        kernels.load.cache_clear()

        def no_process(*args, **kwargs):
            raise AssertionError("started a process")

        monkeypatch.setattr(subprocess, "run", no_process)
        monkeypatch.setattr(subprocess, "Popen", no_process)
        assert kernels.load() is not None
    finally:
        kernels.load.cache_clear()
    built = kernels._cache_path(str(wrapper))
    assert built.exists() and built.parent == tmp_path / "cache" / "relemb"
    with wrapper.open("a") as fh:
        fh.write("# one byte more\n")
    resized = kernels._cache_path(str(wrapper))
    stat = wrapper.stat()
    os.utime(wrapper, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
    assert len({built, resized, kernels._cache_path(str(wrapper))}) == 3


def test_unwritable_cache_builds_for_this_process(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    compiled = kernels.load.__wrapped__()
    if compiled is None:
        pytest.skip("no C compiler found")
    params = rand_params(np.random.default_rng(0), 2, 1, n_nouns=3, n_words=7)
    block = ContextArrays.pack([NounPairContext(1, 2, (3, 4), (5,), (6,))], 1)
    progress = kernels.Progress(next_report=100)
    compiled.pretrain_contexts(
        params, block, neighbor_slot_rows(block.w_in, block.offsets, 1),
        np.zeros(3), np.zeros(7), et.NoiseSampler(np.arange(1, 8)), 2, 0.1,
        10, np.random.default_rng(0), progress)
    assert (progress.at, progress.steps) == (1, 2)
    params.check_finite()
    assert [p.name for p in tmp_path.iterdir()] == ["not-a-directory"]


def test_failed_build_falls_back_with_a_warning(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(kernels, "SOURCE", "this is not C")
    if kernels.shutil.which("gcc") is None:
        pytest.skip("no C compiler found")
    with caplog.at_level(logging.WARNING, logger="relemb.kernels"):
        assert kernels.load.__wrapped__() is None
    assert "failed" in caplog.text
    assert list((tmp_path / "relemb").iterdir()) == []


def test_no_compiler_means_numpy_steps(monkeypatch, caplog):
    monkeypatch.setattr(kernels.shutil, "which", lambda name: None)
    monkeypatch.setattr(kernels, "load", kernels.load.__wrapped__)
    vocab = make_vocab({"a": 5, "b": 4, "c": 3}, {"x": 6})
    ctx = rand_ctx(np.random.default_rng(1), 3, 2, n_nouns=2, n_words=5)
    cfg = et.PretrainConfig(dim=2, window=1, negatives=2, subsample=1.0)
    with caplog.at_level(logging.INFO, logger="relemb.embed_train"):
        _, log = et.train_embeddings(ContextArrays.pack([ctx], 2), vocab,
                                     cfg)
    assert "numpy steps" in caplog.text
    assert log.steps_taken == 3
