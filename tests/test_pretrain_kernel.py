"""The compiled pretraining and CBOW walks against their numpy twins, and
the build of the compiled object in :mod:`relemb.kernels`."""

import dataclasses
import inspect
import logging
import os
import subprocess

import numpy as np
import pytest

from relemb import cbow_baseline as cb
from relemb import embed_train as et
from relemb import kernels
from relemb.corpus import ContextArrays, NounPairContext, neighbor_slot_rows
from conftest import float32_rtol, make_vocab, rand_ctx, rand_params


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
    agree on window objectives and parameters within the float32 tolerance
    of the run's steps."""
    ((got, got_log), got_state), ((want, want_log), want_state) = runs
    assert got_state == want_state
    counts = ("targets_seen", "steps_taken", "pairs_discarded",
              "targets_discarded")
    assert ([getattr(got_log, c) for c in counts]
            == [getattr(want_log, c) for c in counts])
    assert [n for n, _ in got_log.windows] == [n for n, _ in want_log.windows]
    rtol = float32_rtol(got_log.steps_taken)
    np.testing.assert_allclose([v for _, v in got_log.windows],
                               [v for _, v in want_log.windows], rtol=rtol)
    for name in names:
        ref = getattr(want, name)
        assert getattr(got, name).dtype == ref.dtype == kernels.FLOAT, name
        np.testing.assert_allclose(getattr(got, name), ref, rtol=rtol,
                                   atol=rtol * np.abs(ref).max(),
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


def _scenario_corpus(files, rng, vocab, p_words):
    """A reader over a file of 200 sentences of 1-8 words drawn with
    `p_words`, each tagged NN."""
    return files.reader("".join(
        "".join(f"{vocab.word_surfaces[i]}\tNN\n" for i in rng.choice(
            np.arange(2, vocab.n_words), int(rng.integers(1, 9)),
            p=None if p_words is None else p_words[2:])) + "\n"
        for _ in range(200)))


@pytest.mark.parametrize("name", list(_SCENARIOS))
def test_cbow_walk_draws_as_numpy(kernel, monkeypatch, files, name):
    vocab, p_words, t, report_every = _scenario_vocab(name)
    rng = np.random.default_rng(len(name))
    corpus = _scenario_corpus(files, rng, vocab, p_words)
    cfg = et.PretrainConfig(dim=3, window=2, negatives=6, alpha=0.1,
                            subsample=t, epochs=2, seed=7,
                            report_every=report_every)
    runs = _on_both_backends(monkeypatch, cb.train_cbow, corpus, vocab,
                             cfg)
    log = runs[0][0][1]
    assert log.steps_taken > 0
    if t < 1.0:
        assert 0 < log.targets_discarded < log.targets_seen
    assert not runs[0][0][0].pred_bias.any()
    _assert_same_run(runs, _PARAMS)


def test_compiled_walks_take_their_numpy_twins_parameters(kernel):
    """Each walk is chosen as ``_numpy_walk if compiled is None else
    compiled.walk``, so both take the same arguments."""
    for compiled, twin in ((kernel.pretrain_contexts, et._numpy_contexts),
                           (kernel.cbow_sentences, cb._numpy_sentences)):
        assert inspect.signature(compiled) == inspect.signature(twin)


def _shifted_aligned(offset, aligned=kernels.aligned):
    """:func:`kernels.aligned` with each array starting `offset` bytes
    past a 64-byte line."""
    def shifted(shape, dtype=np.float64):
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        buf = aligned(nbytes + 64, np.uint8)
        return buf[offset:][:nbytes].view(dtype).reshape(shape)

    return shifted


@pytest.mark.parametrize("name", ["forced_clashes", "one_word_noise"])
@pytest.mark.parametrize("d", [1, 3, 7, 100])
def test_walks_give_the_same_bytes_at_any_offset(kernel, monkeypatch, files,
                                                 d, name):
    """The pretraining and CBOW walks leave the same bytes whether their
    parameter and work arrays start on a 64-byte line or 8, 16 or 32 bytes
    into one, also where one step scores a row at several positions."""
    vocab, p_words, t, report_every = _scenario_vocab(name)
    rng = np.random.default_rng(d)
    contexts = _random_contexts(rng, 100, 2, vocab.n_nouns, vocab.n_words,
                                p_words)
    corpus = _scenario_corpus(files, rng, vocab, p_words)
    cfg = et.PretrainConfig(dim=d, window=3, negatives=6, alpha=0.1,
                            subsample=t, seed=7, report_every=report_every)
    runs = []
    for offset in (0, 8, 16, 32):
        monkeypatch.setattr(kernels, "aligned", _shifted_aligned(offset))
        params, _ = et.train_embeddings(contexts, vocab, cfg)
        cbow, _ = cb.train_cbow(corpus, vocab, cfg)
        arrays = [getattr(p, field) for p in (params, cbow)
                  for field in _PARAMS]
        assert [a.ctypes.data % 64 for a in arrays] == [offset] * 8
        runs.append([a.tobytes() for a in arrays])
    assert all(run == runs[0] for run in runs[1:])


@pytest.mark.parametrize("shape,dtype", [
    ((0,), np.float64), (5, np.float64), ((0, 4), np.float64),
    ((3, 7), "<i4"), ((2, 3, 4), np.int64)])
def test_aligned_arrays_start_on_a_line(shape, dtype):
    arr = kernels.aligned(shape, dtype)
    assert arr.shape == np.empty(shape).shape
    assert arr.dtype == np.dtype(dtype)
    assert arr.flags.c_contiguous and arr.flags.writeable
    assert arr.ctypes.data % 64 == 0
    assert not arr.any()


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
    params = rand_params(np.random.default_rng(0), 2, 1, n_nouns=3,
                         n_words=7).copy(kernels.FLOAT)
    block = ContextArrays.pack([NounPairContext(1, 2, (3, 4), (5,), (6,))], 1)
    vocab = make_vocab({f"w{i}": i + 1 for i in range(5)}, {"x": 2, "y": 1})
    draws = et._Draws(et.PretrainConfig(dim=2, window=1, negatives=2,
                                        alpha=0.1, subsample=1.0),
                      vocab, 10, np.random.default_rng(0))
    progress = kernels.Progress(next_report=100)
    compiled.pretrain_contexts(
        params, block, neighbor_slot_rows(block.w_in, block.offsets, 1),
        draws, progress)
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
