"""Corruption cases of the two header-and-blob artifact formats."""

import re

import numpy as np
import pytest

from relemb import classifier as cl
from relemb import embed_train as et
from relemb.features import FeatureOptions
from conftest import rand_params


def _write_model(path, rng):
    et.save_model(rand_params(rng, dim=3, window=1, n_nouns=4, n_words=5), path)
    return et.load_model


def _write_classifier(path, rng):
    softmax = cl.SoftmaxParams(rng.normal(size=(19, 6)), rng.normal(size=19))
    cl.save_classifier(softmax, FeatureOptions(), path)
    return cl.load_classifier


# format -> (writer returning the loader, a required header key)
FORMATS = {"model": (_write_model, "c"), "clf": (_write_classifier, "dim")}


def _trailing_bytes(data, key):
    return data + np.float64(1.0).tobytes()


def _truncated(data, key):
    return data[:-8]


def _missing_key(data, key):
    header, _, blob = data.partition(b"\n")
    kept = [tok for tok in header.split() if not tok.startswith(f"{key}=".encode())]
    assert len(kept) == len(header.split()) - 1
    return b" ".join(kept) + b"\n" + blob


@pytest.mark.parametrize("corrupt", [_trailing_bytes, _truncated, _missing_key],
                         ids=["trailing_bytes", "truncated", "missing_key"])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_corrupt_file_rejected_with_its_name(tmp_path, rng, fmt, corrupt):
    write, key = FORMATS[fmt]
    path = tmp_path / f"{fmt}.bin"
    load = write(path, rng)
    load(path)   # the intact file loads
    path.write_bytes(corrupt(path.read_bytes(), key))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load(path)


@pytest.mark.parametrize("fmt,key", [
    ("model", "d"), ("model", "c"), ("model", "nwords"), ("model", "nnouns"),
    ("model", "wdim"), ("clf", "L"), ("clf", "dim")])
@pytest.mark.parametrize("value", [0, -2])
def test_header_dimension_below_1_rejected(tmp_path, rng, fmt, key, value):
    write, _ = FORMATS[fmt]
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
