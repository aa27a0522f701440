"""Corruption cases of the three header-and-blob artifact formats."""

import os
import re
import tracemalloc

import numpy as np
import pytest

from relemb import classifier as cl
from relemb import corpus as cp
from relemb import embed_train as et
from relemb.features import FeatureOptions
from conftest import rand_ctx, rand_params


def _write_model(path, rng):
    et.save_model(rand_params(rng, dim=3, window=1, n_nouns=4, n_words=5), path)
    return et.load_model


def _write_classifier(path, rng):
    softmax = cl.SoftmaxParams(rng.normal(size=(19, 6)), rng.normal(size=19))
    cl.save_classifier(softmax, FeatureOptions(), path)
    return cl.load_classifier


def _write_contexts(path, rng):
    contexts = [rand_ctx(rng, m_in, 2) for m_in in (3, 1, 4)]
    cp.write_contexts(cp.ContextArrays.pack(contexts, 2), 2, path)
    return cp.ContextFile


# format -> (writer returning the loader, a required header key, whether the
# stored arrays are float)
FORMATS = {"model": (_write_model, "c", True),
           "clf": (_write_classifier, "dim", True),
           "contexts": (_write_contexts, "nin", False)}


def _trailing_bytes(data, key):
    return data + np.float64(1.0).tobytes()


def _truncated(data, key):
    return data[:-8]


def _missing_key(data, key):
    header, _, blob = data.partition(b"\n")
    kept = [tok for tok in header.split() if not tok.startswith(f"{key}=".encode())]
    assert len(kept) == len(header.split()) - 1
    return b" ".join(kept) + b"\n" + blob


def _nan_last(data, key):
    return data[:-8] + np.float64(np.nan).tobytes()


_CORRUPTIONS = {"trailing_bytes": _trailing_bytes, "truncated": _truncated,
                "missing_key": _missing_key, "nan_last": _nan_last}


@pytest.mark.parametrize("fmt,corrupt", [
    pytest.param(fmt, corrupt, id=f"{fmt}-{name}")
    for fmt, (_, _, floats) in sorted(FORMATS.items())
    for name, corrupt in _CORRUPTIONS.items()
    if floats or name != "nan_last"])
def test_corrupt_file_rejected_with_its_name(tmp_path, rng, fmt, corrupt):
    write, key, _ = FORMATS[fmt]
    path = tmp_path / f"{fmt}.bin"
    load = write(path, rng)
    load(path)   # the intact file loads
    path.write_bytes(corrupt(path.read_bytes(), key))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load(path)


@pytest.mark.parametrize("fmt,key", [
    ("model", "d"), ("model", "c"), ("model", "nwords"), ("model", "nnouns"),
    ("model", "wdim"), ("clf", "L"), ("clf", "dim"), ("contexts", "m_out")])
@pytest.mark.parametrize("value", [0, -2])
def test_header_dimension_below_1_rejected(tmp_path, rng, fmt, key, value):
    write, _, _ = FORMATS[fmt]
    path = tmp_path / f"{fmt}.bin"
    load = write(path, rng)
    header, _, blob = path.read_bytes().partition(b"\n")
    if key == "wdim":
        header += b" wdim=1"
    header = re.sub(rf" {key}=-?\d+".encode(), f" {key}={value}".encode(),
                    header)
    path.write_bytes(header + b"\n" + blob)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: bad header value: {key}={value} is below 1")):
        load(path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_repeated_header_key_rejected(tmp_path, rng, fmt):
    """A header key given twice is rejected, even with the same value: no
    value silently wins."""
    write, key, _ = FORMATS[fmt]
    path = tmp_path / f"{fmt}.bin"
    load = write(path, rng)
    header, _, blob = path.read_bytes().partition(b"\n")
    (token,) = [tok for tok in header.split()
                if tok.startswith(f"{key}=".encode())]
    path.write_bytes(header + b" " + token + b"\n" + blob)
    with pytest.raises(cp.ArtifactError, match=re.escape(
            f"{path}: header repeats {key}")):
        load(path)


def test_header_read_is_bounded(tmp_path):
    """A file with no line end in its first few KiB, such as 20 MiB of zero
    bytes given as a model, is rejected without being read whole."""
    path = tmp_path / "zeros.bin"
    with open(path, "wb") as fh:
        fh.truncate(20 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(cp.ArtifactError, match=re.escape(
                f"not a relemb-model file: {path}")):
            et.load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_model_arrays_read_onto_cache_lines(tmp_path, rng):
    path = tmp_path / "model.bin"
    params = _write_model(path, rng)(path)
    for name in ("noun_vecs", "word_vecs", "pred_vecs", "pred_bias"):
        assert getattr(params, name).ctypes.data % 64 == 0, name


def test_finite_check_reads_in_bounded_chunks():
    """The check's temporary memory stays under 1 MiB for a 16 MB array,
    and it finds a value past its first chunk at the right index."""
    arr = np.zeros((2000, 1000))
    arr[1500, 7] = -np.inf
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                "x.bin: non-finite value -inf in stored array 2 at index "
                "(1500, 7)")):
            cp._check_finite("x.bin", 2, arr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("count,message", [
    (2, "between-word counts add up to 9, the header has nin=8"),
    (-1, "context 1: negative count -1 of words between the pair")],
    ids=["sum", "negative"])
def test_context_counts_checked(tmp_path, rng, count, message):
    """Between-word counts of the right length that do not add up to the
    header's ``nin``, or that hold a negative count, are rejected."""
    path = tmp_path / "contexts.bin"
    arrays = _write_contexts(path, rng)(path).arrays
    m_in = np.diff(arrays.offsets)
    m_in[1] = count
    cp.write_blob_file(
        path, f"relemb-contexts v1 m_out=2 n=3 nin={len(arrays.w_in)}",
        (arrays.n1, arrays.n2, m_in, arrays.w_in, arrays.w_bef,
         arrays.w_aft), "<i4")
    with pytest.raises(cp.ArtifactError, match=re.escape(f"{path}: {message}")):
        cp.ContextFile(path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_failed_write_leaves_previous_file(tmp_path, rng, monkeypatch, fmt):
    """A write that fails part-way, after its first array, leaves the
    earlier file whole and no part file behind."""
    write = FORMATS[fmt][0]
    path = tmp_path / f"{fmt}.bin"
    load = write(path, rng)
    before = path.read_bytes()
    convert = np.ascontiguousarray
    calls = []

    def failing(arr, dtype=None):
        calls.append(arr)
        if len(calls) == 2:
            assert os.path.exists(f"{path}.part")
            raise OSError("No space left on device")
        return convert(arr, dtype=dtype)

    monkeypatch.setattr(np, "ascontiguousarray", failing)
    with pytest.raises(OSError, match="No space left"):
        write(path, np.random.default_rng(7))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [path.name]
    load(path)
