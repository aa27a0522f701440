"""Compiled negative-sampling steps over pretraining id tables.

:func:`load` compiles the C source below with the system ``gcc`` at its
first call, caches the shared object out of tree and binds it through
``ctypes``.  Nothing is compiled or loaded at import.  The compiled steps
take the same arithmetic as ``embed_train``'s numpy steps, which stay the
reference and the fallback when no compiler is found.

The flags leave out ``-ffast-math``: an object linked with it as
``-shared`` pulls in ``crtfastmath.o``, whose constructor turns on
flush-to-zero for the whole process, numpy included, and it would also drop
inf/NaN semantics.  ``-fassociative-math`` (with the flags it needs) is
what lets the dot products vectorize.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

__all__ = ["SOURCE", "FLAGS", "load"]

SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

static double log_sigmoid(double x)
{
    return x >= 0.0 ? -log1p(exp(-x)) : x - log1p(exp(x));
}

static double sigmoid(double x)
{
    if (x >= 0.0)
        return 1.0 / (1.0 + exp(-x));
    double e = exp(x);
    return e / (1.0 + e);
}

/* dst = mean of the m rows `ids` of vecs, summed row by row and then
   divided by m; zeros when m == 0. */
static void pool(double *restrict dst, const double *vecs,
                 const int64_t *ids, int64_t m, int64_t d)
{
    if (m == 0) {
        memset(dst, 0, d * sizeof *dst);
        return;
    }
    memcpy(dst, vecs + ids[0] * d, d * sizeof *dst);
    for (int64_t r = 1; r < m; r++) {
        const double *row = vecs + ids[r] * d;
        for (int64_t x = 0; x < d; x++)
            dst[x] += row[x];
    }
    if (m > 1)
        for (int64_t x = 0; x < d; x++)
            dst[x] /= m;
}

/* Each of the m rows `ids` of vecs += lr * (g / m). */
static void spread(double *vecs, const int64_t *ids, int64_t m, int64_t d,
                   double lr, const double *restrict g)
{
    for (int64_t r = 0; r < m; r++) {
        double *row = vecs + ids[r] * d;
        for (int64_t x = 0; x < d; x++)
            row[x] += lr * (g[x] / m);
    }
}

/* Steps s = 0..n-1, in order.  Row s of `ids` is the step's pretraining
   table: 2 noun ids, 2c neighbour word ids, then two outside windows of m
   word ids each.  Row s of `words` is the target, then k noise ids.  Every
   id must be in range.  `work` holds 2p + k1 doubles. */
void relemb_pretrain_steps(int64_t n, int64_t d, int64_t c, int64_t m,
                           int64_t k1, const int64_t *ids,
                           const int64_t *words, const double *lrs,
                           double *noun_vecs, double *word_vecs,
                           double *pred_vecs, double *pred_bias,
                           double *values, double *work)
{
    const int64_t width = 2 + 2 * c + 2 * m, p = 2 * d * (2 + c);
    double *restrict f = work, *restrict g = work + p,
           *restrict err = work + 2 * p;
    for (int64_t s = 0; s < n; s++) {
        const int64_t *row = ids + s * width, *scored = words + s * k1;
        const int64_t *outside = row + 2 + 2 * c;
        const double lr = lrs[s];

        /* f: the gather of the table */
        for (int64_t j = 0; j < 2; j++)
            memcpy(f + j * d, noun_vecs + row[j] * d, d * sizeof *f);
        for (int64_t j = 2; j < 2 + 2 * c; j++)
            memcpy(f + j * d, word_vecs + row[j] * d, d * sizeof *f);
        pool(f + (2 + 2 * c) * d, word_vecs, outside, m, d);
        pool(f + (3 + 2 * c) * d, word_vecs, outside + m, m, d);

        /* scores, errs and g = errs @ pred, all from the pre-update rows */
        double target_term = 0.0, noise_terms = 0.0;
        memset(g, 0, p * sizeof *g);
        for (int64_t j = 0; j < k1; j++) {
            const double *w = pred_vecs + scored[j] * p;
            double z = 0.0;
            for (int64_t x = 0; x < p; x++)
                z += w[x] * f[x];
            z += pred_bias[scored[j]];
            if (j == 0)
                target_term = log_sigmoid(z);
            else
                noise_terms += log_sigmoid(-z);
            err[j] = (j == 0) - sigmoid(z);
            for (int64_t x = 0; x < p; x++)
                g[x] += err[j] * w[x];
        }
        values[s] = target_term + noise_terms;

        for (int64_t j = 0; j < k1; j++) {
            double *w = pred_vecs + scored[j] * p;
            for (int64_t x = 0; x < p; x++)
                w[x] += lr * (err[j] * f[x]);
            pred_bias[scored[j]] += lr * err[j];
        }

        /* the scatter of lr * g back through the table */
        for (int64_t j = 0; j < 2 + 2 * c; j++)
            spread(j < 2 ? noun_vecs : word_vecs, row + j, 1, d, lr,
                   g + j * d);
        spread(word_vecs, outside, m, d, lr, g + (2 + 2 * c) * d);
        spread(word_vecs, outside + m, m, d, lr, g + (3 + 2 * c) * d);
    }
}
"""

FLAGS = ("-O3", "-march=native", "-fno-math-errno", "-fno-trapping-math",
         "-fassociative-math", "-fno-signed-zeros", "-shared", "-fPIC")

_IDS = np.ctypeslib.ndpointer(np.int64, ndim=2, flags="C_CONTIGUOUS")


def _doubles(ndim):
    return np.ctypeslib.ndpointer(np.float64, ndim=ndim, flags="C_CONTIGUOUS")


def _cpu_flags():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return line
    except OSError:
        pass
    return platform.machine() + " " + platform.processor()


def _cache_path(gcc):
    """Where the object built by `gcc` from this source and these flags
    for this CPU is cached."""
    version = subprocess.run([gcc, "--version"], capture_output=True,
                             text=True, check=True).stdout
    key = hashlib.sha256("\0".join(
        (SOURCE, " ".join(FLAGS), version, _cpu_flags())).encode()).hexdigest()
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "relemb" / f"pretrain-{key[:20]}.so"


def _compile(gcc, path):
    """Build the object at `path` through a temporary file beside it, so
    that no reader sees a partial object."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([gcc, *FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                       input=SOURCE, capture_output=True, text=True, check=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _bind(lib):
    fn = lib.relemb_pretrain_steps
    fn.argtypes = ([ctypes.c_int64] * 5 + [_IDS, _IDS, _doubles(1)]
                   + [_doubles(2)] * 3 + [_doubles(1)] * 3)
    fn.restype = None

    def steps(params, ids, words, lrs, m_out):
        """Take the steps of one batch in order and return their pre-update
        objective values.  `ids` holds one pretraining table per row (its
        outside windows `m_out` wide), `words` the target then the noise
        ids, `lrs` the rates.  The caller has checked that every id is in
        range; shapes are checked here."""
        n, k1 = words.shape
        d, c = params.dim, params.window
        p = 2 * d * (2 + c)
        if (ids.shape != (n, 2 + 2 * c + 2 * m_out) or lrs.shape != (n,)
                or params.noun_vecs.shape[1] != d
                or params.word_vecs.shape[1] != d
                or params.pred_vecs.shape != (params.n_words, p)
                or params.pred_bias.shape != (params.n_words,)):
            raise ValueError("pretrain kernel: inconsistent batch or "
                             "parameter shapes")
        values = np.empty(n)
        fn(n, d, c, m_out, k1, ids, words, lrs, params.noun_vecs,
           params.word_vecs, params.pred_vecs, params.pred_bias, values,
           np.empty(2 * p + k1))
        return values

    steps.library = lib   # keeps the object loaded while `steps` lives
    return steps


@functools.cache
def load():
    """The compiled steps, built at the first call; None when no ``gcc``
    is found or the build fails, so the numpy steps run instead.

    The object is cached under ``$XDG_CACHE_HOME/relemb`` (default
    ``~/.cache/relemb``), keyed by a hash of the source, the flags, the
    compiler version and the CPU flags.  When that directory cannot be
    written it is built in a temporary directory removed after loading.
    """
    gcc = shutil.which("gcc")
    if gcc is None:
        return None
    try:
        path = _cache_path(gcc)
        if not path.exists():
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
            except OSError:
                pass
            if not os.access(path.parent, os.W_OK):
                with tempfile.TemporaryDirectory(prefix="relemb-") as tmp:
                    local = Path(tmp) / path.name
                    _compile(gcc, local)
                    return _bind(ctypes.CDLL(str(local)))
            _compile(gcc, path)
        return _bind(ctypes.CDLL(str(path)))
    except subprocess.CalledProcessError as exc:
        logger.warning("pretrain kernel: %s failed: %s", gcc,
                       exc.stderr.strip() or exc)
        return None
