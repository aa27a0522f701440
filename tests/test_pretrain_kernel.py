"""The compiled pretraining steps against the numpy reference, and the
build of the compiled object in :mod:`relemb.kernels`."""

import dataclasses
import logging

import numpy as np
import pytest

from relemb import embed_train as et
from relemb import kernels
from conftest import make_vocab, rand_ctx, rand_params


@pytest.fixture
def kernel():
    compiled = kernels.load()
    if compiled is None:
        pytest.skip("no C compiler found; training takes the numpy steps")
    return compiled.pretrain_steps


def _drawn_steps(rng, c, m_out, k, n_steps, n_nouns=3, n_words=7):
    """`n_steps` queued steps over random short contexts: 3 nouns make
    n1 == n2 common, spans of 1-3 words leave NULL neighbour slots, and k
    noise draws from 7 words repeat ids."""
    sampler = et.NoiseSampler(np.arange(1, n_words + 1))
    steps = []
    while len(steps) < n_steps:
        ctx = rand_ctx(rng, int(rng.integers(1, 4)), m_out, n_nouns, n_words)
        if rng.random() < 0.2:
            ctx = dataclasses.replace(ctx, n2=ctx.n1)
        for i in range(1, ctx.m_in + 1):
            target = ctx.w_in[i - 1]
            noise = sampler.sample(k, rng, exclude=target)
            steps.append((et.pretrain_table(ctx, i, c)[0], target, noise,
                          0.1 * rng.random()))
    return steps


def _take(params, cfg, steps, kernel):
    batch = et._StepBatch(params, cfg, kernel)
    total = 0.0
    for step in steps:
        if batch.add(*step):
            total = batch.take(total)
    return batch.take(total)


@pytest.mark.parametrize("m_out", [1, 3])
@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("d", [1, 3])
def test_kernel_matches_numpy_steps(kernel, d, c, m_out):
    rng = np.random.default_rng(100 * d + 10 * c + m_out)
    k = 8
    cfg = et.PretrainConfig(dim=d, window=c, negatives=k, m_out=m_out)
    steps = _drawn_steps(rng, c, m_out, k, n_steps=1200)
    assert any(ids[0] == ids[1] for ids, *_ in steps)
    assert any(len(set(noise.tolist())) < k for _, _, noise, _ in steps)
    assert any((ids[2:2 + 2 * c] == 0).any() for ids, *_ in steps)

    ref = rand_params(rng, d, c, n_nouns=3, n_words=7)
    got = ref.copy()
    ref_total = _take(ref, cfg, steps, None)
    got_total = _take(got, cfg, steps, kernel)
    ref.check_finite()
    assert got_total == pytest.approx(ref_total, rel=1e-9)
    for name in ("noun_vecs", "word_vecs", "pred_vecs", "pred_bias"):
        want = getattr(ref, name)
        np.testing.assert_allclose(getattr(got, name), want, rtol=1e-9,
                                   atol=1e-9 * np.abs(want).max(), err_msg=name)


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


def test_unwritable_cache_builds_for_this_process(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    compiled = kernels.load.__wrapped__()
    if compiled is None:
        pytest.skip("no C compiler found")
    params = rand_params(np.random.default_rng(0), 2, 1, n_nouns=3, n_words=7)
    ids = np.zeros((1, 6), np.int64)
    words = np.array([[1, 2, 3]], np.int64)
    assert np.isfinite(compiled.pretrain_steps(params, ids, words,
                                              np.array([0.1]), 1)).all()
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
    cfg = et.PretrainConfig(dim=2, window=1, negatives=2, m_out=2,
                            subsample=1.0)
    with caplog.at_level(logging.INFO, logger="relemb.embed_train"):
        _, log = et.train_embeddings([ctx], vocab, cfg)
    assert "numpy steps" in caplog.text
    assert log.steps_taken == 3
