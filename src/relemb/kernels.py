"""Compiled loops: noun-pair pretraining and CBOW, each drawing and
stepping in one C loop, whole epochs of the softmax classifier, and the
one-pass scan of a tagged-corpus byte block.

:func:`load` compiles the C source below with the system ``gcc`` at its
first call, caches the shared object out of tree under a key that names
the compiler by its binary (so a warm load starts no process) and binds
the entry points through ``ctypes``.  Nothing is compiled or loaded at
import.  The compiled code takes the same arithmetic as the numpy steps of
``embed_train``, ``cbow_baseline`` and ``classifier``, and reads the same
tokens as the per-line loop of ``corpus.TaggedCorpusReader``; those stay
the reference and the fallback when no compiler is found.

The pretraining and CBOW walks and the classifier epoch's dropout masks
make every random draw of the numpy loops, in the same order, from the
caller's ``numpy.random.Generator``: its
``bit_generator.ctypes.bit_generator`` is numpy's ``bitgen_t``, whose
``next_double`` is one ``Generator.random()`` draw, so the stream stays
bit-identical and the generator ends where the numpy loop leaves it.  The
generator's lock is held for each call.  Each walk's binding takes the
arguments of its numpy twin (``embed_train._numpy_contexts``,
``cbow_baseline._numpy_sentences``), counts into the same
:class:`Progress` and returns at the same report points, so the walk loop
of ``embed_train`` runs either and logs the same windows.  Both walks
train the ``EmbeddingParams`` of ``embed_train`` and draw from the run's
``embed_train._Draws``.

Every parameter block, AdaGrad accumulator and work buffer is C's
``float`` (:data:`FLOAT`, numpy's float32): the embedding and prediction
rows, the softmax weights and bias, the gathered inputs ``f`` and ``e``,
their gradients ``g`` and ``g_e``, the dropout masks, the scores and the
fine-tuning row sums.  What stays ``double``: the random draws, the noise
and subsampling tables, the learning rate as the schedule computes it, each
score's sigmoid and log-sigmoid, the softmax's exponentials, and the
objective sums (``win_sum``, the log-likelihoods).  The per-element loops
call the float functions, ``sqrtf`` and float literals such as ``2.0f``: a
``double`` operand would promote each element to double and back, and the
loop would run no faster than at float64.

A pretraining or CBOW step reads each scored prediction row once: one pass
adds the row's share of the input gradient, moves the row, and sums the
next row's score, whose single accumulator then runs beside the
throughput-bound pass instead of alone.  A row scored at several positions
of one step moves only at its last, by each position's move in order, so
every read sees the row as it was before the step, as in the numpy step.
Each of these loops is a ``noinline`` function of its own, so the
pretraining and CBOW walks run one compiled copy of it.  The parameter
blocks and work buffers the compiled loops stream are allocated by
:func:`aligned` on 64-byte lines; numpy's own large arrays start 16 bytes
into one, so a row's vector loads would split two lines.  The C code reads
arrays at any offset with the same bytes, and asks nothing of alignment.

A classifier epoch runs on the calling thread and, when the process may run
on two CPUs (:func:`_threads`), one helper thread started and joined within
the call.  The two split the label rows of the weights and their
accumulators: the calling thread, which also makes every draw and gather,
takes 4 of the 19 rows, and the helper the rest.  At float32 a row's AdaGrad
step costs about a fourth of its float64 one, and the 2,000 or so dropout
draws of an update became the calling thread's largest task: with 3 to 5
rows the in-process ``train`` stage took 6-8% less time than with 8 on both
workloads (2-vCPU Xeon, 11 rounds).  A split by columns would
have each thread's next scores read rows the other has just written; by
rows, each thread's rows stay in its own core's cache.  Every row's
arithmetic is the one of a single thread, and the fine-tuning gradient is
summed over the rows in their order, so the bytes are the same at either
thread count.  The threads meet through two counters that only grow, one
per thread: a wait spins with ``pause`` for a bounded count, then yields the
CPU at each look, since on one CPU the other thread can only run if the
waiting one gives way.  When the calling thread keeps having to yield, the
threads are not running at once, and it takes every row back for the rest
of the epoch; the epoch reports it, and the caller runs its later epochs on
one thread.  The calling thread draws the next update's dropout mask while
the helper finishes its rows, and the draws keep their order.  The row
functions the two threads share are ``noinline``: each thread then runs
the one compiled copy, where a copy inlined into the calling thread's loop
could reduce in another order under ``-fassociative-math``.

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
from typing import NamedTuple

import numpy as np

logger = logging.getLogger(__name__)

__all__ = ["SOURCE", "FLAGS", "FLOAT", "Kernels", "Progress", "Scan",
           "aligned", "load"]

SOURCE = r"""
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
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

/* dst = the k slots of the m pooled rows `ids` of vecs (row r, slot j at
   ids[r * k + j]), each slot summed over the pooled rows row by row and
   then divided by m: k * w entries, zeros when m == 0. */
static void gather(float *restrict dst, const float *vecs,
                   const int64_t *ids, int64_t k, int64_t m, int64_t w)
{
    if (m == 0) {
        memset(dst, 0, k * w * sizeof *dst);
        return;
    }
    for (int64_t j = 0; j < k; j++)
        memcpy(dst + j * w, vecs + ids[j] * w, w * sizeof *dst);
    for (int64_t r = 1; r < m; r++)
        for (int64_t j = 0; j < k; j++) {
            const float *row = vecs + ids[r * k + j] * w;
            for (int64_t x = 0; x < w; x++)
                dst[j * w + x] += row[x];
        }
    if (m > 1)
        for (int64_t x = 0; x < k * w; x++)
            dst[x] /= m;
}

/* Each of the m rows `ids` of vecs += lr * (g / m). */
static void spread(float *vecs, const int64_t *ids, int64_t m, int64_t d,
                   float lr, const float *restrict g)
{
    for (int64_t r = 0; r < m; r++) {
        float *row = vecs + ids[r] * d;
        for (int64_t x = 0; x < d; x++)
            row[x] += lr * (g[x] / m);
    }
}

/* numpy's bitgen_t (numpy/random/bitgen.h): next_double(state) is one
   Generator.random() draw. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *);
    uint32_t (*next_uint32)(void *);
    double (*next_double)(void *);
    uint64_t (*next_raw)(void *);
} bitgen_t;

/* Where a walk stands, shared with Python: the next context or sentence,
   the targets passed in the rate schedule, the next report point, the
   log's counts and the open window's objective sum and step count. */
typedef struct {
    int64_t at, done, next_report, steps, pairs_discarded,
        targets_discarded, win_count;
    double win_sum;
} progress_t;

/* The noise inventory: cum[i] is the cumulative probability of ids 0..i
   (cum[n - 1] == 1), probs[i] that of id i. */
typedef struct {
    const double *cum, *probs;
    int64_t n;
} noise_t;

static double uniform(bitgen_t *bg)
{
    return bg->next_double(bg->state);
}

/* One noise id: the first i with cum[i] > a uniform draw, as
   searchsorted(side="right"). */
static int64_t draw_id(bitgen_t *bg, const noise_t *noise)
{
    const double u = uniform(bg);
    int64_t lo = 0, hi = noise->n;
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (noise->cum[mid] > u)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* words[1..k]: k noise ids for the target words[0], drawn in order; while
   the target has a rival, every position that drew it draws again, in
   ascending order, round after round until none does. */
static void draw_noise(bitgen_t *bg, const noise_t *noise, int64_t k,
                       int64_t *words)
{
    for (int64_t j = 1; j <= k; j++)
        words[j] = draw_id(bg, noise);
    if (!(noise->probs[words[0]] < 1.0))
        return;
    for (int clash = 1; clash;) {
        clash = 0;
        for (int64_t j = 1; j <= k; j++)
            if (words[j] == words[0]) {
                words[j] = draw_id(bg, noise);
                clash = 1;
            }
    }
}

/* The dot product of row w and f: one accumulator, in x order. */
static __attribute__((noinline)) float dot(const float *restrict w,
                                           const float *restrict f,
                                           int64_t p)
{
    float z = 0.0f;
    for (int64_t x = 0; x < p; x++)
        z += w[x] * f[x];
    return z;
}

/* One pass over the scored row w: g += err * w, then, when `moved`,
   w += lr * (move * f) after its read; returns the dot product of the
   next row and f, summed as dot() sums it.  next != w whenever moved. */
static __attribute__((noinline)) float pass_row(
    float *restrict g, float err, float *restrict w, int moved,
    float move, float lr, const float *restrict next,
    const float *restrict f, int64_t p)
{
    float z = 0.0f;
    for (int64_t x = 0; x < p; x++) {
        g[x] += err * w[x];
        if (moved)
            w[x] += lr * (move * f[x]);
        z += next[x] * f[x];
    }
    return z;
}

/* w += lr * (move * f): a further move of a row scored more than once. */
static __attribute__((noinline)) void move_row(float *restrict w,
                                               float move, float lr,
                                               const float *restrict f,
                                               int64_t p)
{
    for (int64_t x = 0; x < p; x++)
        w[x] += lr * (move * f[x]);
}

/* The negative-sampling step on the prediction input f (p entries) for
   the k1 rows `scored` of pred, target first, with bias when not NULL.
   Returns log sigma(z_0) + sum_j log sigma(-z_j); leaves in g the
   errors times the pre-update rows, summed; moves each scored row by
   lr * err_j * f (and its bias by lr * err_j).  err holds k1 floats.
   Each score z_j is summed in float, and its sigmoid and log-sigmoid are
   taken in double.

   Each row is read once, in one pass that adds its share of g, moves it
   and sums the next row's score.  A row scored at several positions moves
   only at its last one, by each position's move in position order, so no
   row moves before its last read. */
static double score(const float *restrict f, int64_t p,
                    const int64_t *scored, int64_t k1, float *pred,
                    float *bias, float lr, float *restrict g,
                    float *restrict err)
{
    double target_term = 0.0, noise_terms = 0.0;
    memset(g, 0, p * sizeof *g);
    float z = dot(pred + scored[0] * p, f, p);
    for (int64_t j = 0; j < k1; j++) {
        const int64_t id = scored[j];
        if (bias)
            z += bias[id];
        if (j == 0)
            target_term = log_sigmoid(z);
        else
            noise_terms += log_sigmoid(-z);
        err[j] = (j == 0) - sigmoid(z);
        /* the row moves here if no later position scores it, from its
           first position's move on */
        int moved = 1;
        int64_t first = j;
        for (int64_t i = j + 1; i < k1; i++)
            moved &= scored[i] != id;
        for (int64_t i = j - 1; i >= 0; i--)
            if (scored[i] == id)
                first = i;
        /* the last row has no next one: its pass sums f . f, unused */
        const float *next = j + 1 < k1 ? pred + scored[j + 1] * p : f;
        float *w = pred + id * p;
        z = pass_row(g, err[j], w, moved, err[first], lr, next, f, p);
        for (int64_t i = first + 1; moved && i <= j; i++)
            if (scored[i] == id)
                move_row(w, err[i], lr, f, p);
    }
    for (int64_t j = 0; bias && j < k1; j++)
        bias[scored[j]] += lr * err[j];
    return target_term + noise_terms;
}

/* One pretraining step: its table is the nouns, the 2c neighbour `slots`
   and the outside windows `bef` and `aft` of m ids each; `scored` holds
   the target then the noise ids.  `work` holds 2p + k1 floats. */
static double pretrain_step(int64_t d, int64_t c, int64_t m, int64_t k1,
                            const int64_t *nouns, const int64_t *slots,
                            const int64_t *bef, const int64_t *aft,
                            const int64_t *scored, float lr,
                            float *noun_vecs, float *word_vecs,
                            float *pred_vecs, float *pred_bias,
                            float *work)
{
    const int64_t p = 2 * d * (2 + c);
    float *restrict f = work, *restrict g = work + p;

    /* f: the gather of the table */
    gather(f, noun_vecs, nouns, 2, 1, d);
    gather(f + 2 * d, word_vecs, slots, 2 * c, 1, d);
    gather(f + (2 + 2 * c) * d, word_vecs, bef, 1, m, d);
    gather(f + (3 + 2 * c) * d, word_vecs, aft, 1, m, d);

    const double value = score(f, p, scored, k1, pred_vecs, pred_bias, lr,
                               g, work + 2 * p);

    /* the scatter of lr * g back through the table */
    spread(noun_vecs, nouns, 1, d, lr, g);
    spread(noun_vecs, nouns + 1, 1, d, lr, g + d);
    for (int64_t j = 0; j < 2 * c; j++)
        spread(word_vecs, slots + j, 1, d, lr, g + (2 + j) * d);
    spread(word_vecs, bef, m, d, lr, g + (2 + 2 * c) * d);
    spread(word_vecs, aft, m, d, lr, g + (3 + 2 * c) * d);
    return value;
}

/* Pretraining over contexts pr->at .. n-1, in order, drawing as the numpy
   loop does.  Context r has nouns n1[r] and n2[r], targets w_in[offsets[r]
   .. offsets[r + 1] - 1] with neighbour slots 2c per target in `slots`,
   and outside windows bef and aft, m ids per context.  Per context: two
   pair draws, both taken, and the pair is discarded if either noun's
   discard probability exceeds its draw.  Per target of a kept pair: the
   rate alpha * (1 - done / planned), one discard draw, then k noise draws
   and the step.  Returns 1 after the first kept context that leaves done
   at or past pr->next_report, 0 at the end.  Every id must be in range;
   `work` holds 2p + k + 1 floats and `words` k + 1 ids. */
int64_t relemb_pretrain_contexts(
    int64_t n, int64_t d, int64_t c, int64_t m, int64_t k,
    const int64_t *n1, const int64_t *n2, const int64_t *offsets,
    const int64_t *w_in, const int64_t *slots, const int64_t *bef,
    const int64_t *aft, const double *noun_discard,
    const double *word_discard, const double *cum, const double *probs,
    int64_t n_words, double alpha, int64_t planned, float *noun_vecs,
    float *word_vecs, float *pred_vecs, float *pred_bias,
    progress_t *pr, float *work, int64_t *words, bitgen_t *bg)
{
    const noise_t noise = {cum, probs, n_words};
    while (pr->at < n) {
        const int64_t r = pr->at++, first = offsets[r], last = offsets[r + 1];
        const int64_t nouns[2] = {n1[r], n2[r]};
        const double u1 = uniform(bg), u2 = uniform(bg);
        if (noun_discard[nouns[0]] > u1 || noun_discard[nouns[1]] > u2) {
            pr->done += last - first;
            pr->pairs_discarded++;
            continue;
        }
        for (int64_t t = first; t < last; t++) {
            const float lr = alpha * (1.0 - (double)pr->done / planned);
            pr->done++;
            if (word_discard[w_in[t]] > uniform(bg)) {
                pr->targets_discarded++;
                continue;
            }
            words[0] = w_in[t];
            draw_noise(bg, &noise, k, words);
            pr->win_sum += pretrain_step(d, c, m, k + 1, nouns,
                                         slots + t * 2 * c, bef + r * m,
                                         aft + r * m, words, lr, noun_vecs,
                                         word_vecs, pred_vecs, pred_bias,
                                         work);
            pr->win_count++;
            pr->steps++;
        }
        if (pr->done >= pr->next_report)
            return 1;
    }
    return 0;
}

/* CBOW over sentences pr->at .. n-1 of the flat `ids` (sentence s is
   ids[offsets[s] .. offsets[s + 1] - 1]), drawing as the numpy loop does.
   Per sentence: the rate alpha * (1 - done / planned), one discard draw
   per token, and, when at least two tokens are kept, per kept centre in
   turn k noise draws and the step, whose input is the mean of the
   word_vecs of the c kept tokens on each side, scored against pred_vecs
   (d wide) with no bias.  Returns 1 after the first sentence that leaves
   done at or past pr->next_report, 0 at the end.  `work` holds 2d + k + 1
   floats, and `scratch` k + 1 + 2c ids plus the longest sentence's. */
int64_t relemb_cbow_sentences(
    int64_t n, int64_t d, int64_t c, int64_t k, const int64_t *offsets,
    const int64_t *ids, const double *discard, const double *cum,
    const double *probs, int64_t n_words, double alpha, int64_t planned,
    float *word_vecs, float *pred_vecs, progress_t *pr, float *work,
    int64_t *scratch, bitgen_t *bg)
{
    const noise_t noise = {cum, probs, n_words};
    float *restrict f = work, *restrict g = work + d;
    int64_t *words = scratch, *window = words + k + 1, *kept = window + 2 * c;
    while (pr->at < n) {
        const int64_t s = pr->at++, first = offsets[s], last = offsets[s + 1];
        const float lr = alpha * (1.0 - (double)pr->done / planned);
        int64_t n_kept = 0;
        for (int64_t t = first; t < last; t++)
            if (!(discard[ids[t]] > uniform(bg)))
                kept[n_kept++] = ids[t];
        pr->done += last - first;
        pr->targets_discarded += last - first - n_kept;
        for (int64_t t = 0; n_kept > 1 && t < n_kept; t++) {
            int64_t m = 0;
            for (int64_t j = t > c ? t - c : 0; j < t; j++)
                window[m++] = kept[j];
            for (int64_t j = t + 1; j <= t + c && j < n_kept; j++)
                window[m++] = kept[j];
            words[0] = kept[t];
            draw_noise(bg, &noise, k, words);
            gather(f, word_vecs, window, 1, m, d);
            pr->win_sum += score(f, d, words, k + 1, pred_vecs, NULL, lr, g,
                                 work + 2 * d);
            spread(word_vecs, window, m, d, lr, g);
            pr->win_count++;
            pr->steps++;
        }
        if (pr->done >= pr->next_report)
            return 1;
    }
    return 0;
}

/* One AdaGrad ascent step on the n entries of param, whose gradient is g
   less l2 times param when l2 > 0.  sqrtf, not sqrt: sqrt would take each
   accumulator to double and back. */
static void adagrad(float *restrict param, float *restrict acc,
                    const float *restrict g, int64_t n, float l2,
                    float eta, float eps)
{
    for (int64_t x = 0; x < n; x++) {
        const float gx = l2 > 0.0f ? g[x] - l2 * param[x] : g[x];
        acc[x] += gx * gx;
        param[x] += eta * gx / (sqrtf(acc[x]) + eps);
    }
}

/* The row functions below are noinline: the helper thread and the calling
   thread then run one compiled copy of each, so no copy can reduce in
   another order (-fassociative-math lets two copies differ). */

/* The scores of label rows lo .. hi - 1: s[l] = W[l] . e + bias[l]. */
static __attribute__((noinline)) void forward(
    const float *W, const float *bias, const float *restrict e,
    float *restrict s, int64_t lo, int64_t hi, int64_t dim)
{
    for (int64_t l = lo; l < hi; l++) {
        const float *w = W + l * dim;
        float o = 0.0f;
        for (int64_t x = 0; x < dim; x++)
            o += w[x] * e[x];
        s[l] = o + bias[l];
    }
}

/* g_o: the gradient w.r.t. the scores s of the log-likelihood of label li
   under the max-shifted softmax, which is returned.  The shifted scores are
   float, their exponentials and logarithms double. */
static __attribute__((noinline)) double softmax_grad(
    const float *restrict s, int64_t n_labels, int64_t li,
    float *restrict g_o)
{
    float top = -INFINITY;
    double z = 0.0;
    for (int64_t l = 0; l < n_labels; l++) {
        g_o[l] = s[l];
        if (g_o[l] > top)
            top = g_o[l];
    }
    for (int64_t l = 0; l < n_labels; l++) {
        g_o[l] -= top;
        z += exp(g_o[l]);
    }
    const double logz = log(z), loglik = g_o[li] - logz;
    for (int64_t l = 0; l < n_labels; l++)
        g_o[l] = (float)-exp(g_o[l] - logz);
    g_o[li] += 1.0f;
    return loglik;
}

/* g_e += W[l] g_o[l] for the label rows lo .. hi - 1, in row order. */
static __attribute__((noinline)) void sum_rows(
    const float *W, const float *restrict g_o, float *restrict g_e,
    int64_t lo, int64_t hi, int64_t dim)
{
    for (int64_t l = lo; l < hi; l++) {
        const float *w = W + l * dim;
        const float go = g_o[l];
        for (int64_t x = 0; x < dim; x++)
            g_e[x] += w[x] * go;
    }
}

/* The AdaGrad steps on the label rows lo .. hi - 1 of W, row l's gradient
   g_o[l] e less l2 W[l] when l2 > 0; when g_e is not NULL, each row adds
   its pre-update W[l] g_o[l] to g_e first, as sum_rows does. */
static __attribute__((noinline)) void step_rows(
    float *W, float *acc_W, const float *restrict e,
    const float *restrict g_o, float *restrict g_e, int64_t lo,
    int64_t hi, int64_t dim, float l2, float eta, float eps)
{
    for (int64_t l = lo; l < hi; l++) {
        float *w = W + l * dim, *acc = acc_W + l * dim;
        const float go = g_o[l];
        for (int64_t x = 0; x < dim; x++) {
            float g = go * e[x];
            if (g_e)
                g_e[x] += w[x] * go;
            if (l2 > 0.0f)
                g -= l2 * w[x];
            acc[x] += g * g;
            w[x] += eta * g / (sqrtf(acc[x]) + eps);
        }
    }
}

/* A wait spins for SPINS pauses (~57 us at ~14 ns a pause on a 2-vCPU
   Xeon), longer than a thread waits for the other when both have a CPU,
   and then yields the CPU at each look: the other thread may be waiting for
   it.  When the calling thread has had to yield LATE_MAX times in one
   epoch, the threads are not running at once (one CPU, or one taken by a
   busy process, where each yield can cost a scheduler slice), and it takes
   every row back for the rest of the epoch. */
#define SPINS 4096
#define LATE_MAX 16

/* A dropout mask of dim entries: 1 where a draw is below 0.5, else 0.
   The dim double draws go to `draws` first: a compare beside each call
   would branch, and rounded to float, a draw just below 0.5 would read
   0.5. */
static void draw_mask(bitgen_t *bg, double *restrict draws,
                      float *restrict mask, int64_t dim)
{
    for (int64_t x = 0; x < dim; x++)
        draws[x] = uniform(bg);
    for (int64_t x = 0; x < dim; x++)
        mask[x] = draws[x] < 0.5;
}

/* What the two threads of a classifier epoch share.  Each posts in its own
   counter how far it has got: stage 4t + 1 when e of update t is ready
   (calling thread only), 4t + 2 when its rows' scores are written, 4t + 3
   when its rows' share of g_e is summed (fine-tuning only).  The counters
   only grow, and each sits on a cache line of its own.  The helper stops
   before update `last`. */
typedef struct {
    _Alignas(64) int64_t caller;
    _Alignas(64) int64_t helper;
    _Alignas(64) int64_t n, last, n_labels, dim, split, fine_tune;
    float eta, eps, l2;
    const int64_t *order, *labels;
    float *W, *bias, *acc_W, *e[2], *scores, *g_o, *g_e;
} team_t;

static void post(int64_t *counter, int64_t stage)
{
    __atomic_store_n(counter, stage, __ATOMIC_RELEASE);
}

/* Wait until `counter` reaches `stage`; returns whether it had to yield. */
static int await_stage(const int64_t *counter, int64_t stage)
{
    int64_t spins = 0;
    for (; __atomic_load_n(counter, __ATOMIC_ACQUIRE) < stage; spins++)
        if (spins < SPINS) {
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#endif
        } else {
            sched_yield();
        }
    return spins > SPINS;
}

/* The helper thread: label rows split .. n_labels - 1 of every update. */
static void *helper_epoch(void *arg)
{
    team_t *tm = arg;
    const int64_t L = tm->n_labels, dim = tm->dim;
    float *g_o = tm->g_o + L;
    for (int64_t t = 0; t < tm->n; t++) {
        const float *e = tm->e[t & 1];
        float *s = tm->scores + (t & 1) * L;
        await_stage(&tm->caller, 4 * t + 1);
        if (t == tm->last)
            break;
        forward(tm->W, tm->bias, e, s, tm->split, L, dim);
        post(&tm->helper, 4 * t + 2);
        await_stage(&tm->caller, 4 * t + 2);
        softmax_grad(s, L, tm->labels[tm->order[t]], g_o);
        if (tm->fine_tune)
            await_stage(&tm->caller, 4 * t + 3);
        step_rows(tm->W, tm->acc_W, e, g_o, tm->fine_tune ? tm->g_e : NULL,
                  tm->split, L, dim, tm->l2, tm->eta, tm->eps);
        if (tm->fine_tune)
            post(&tm->helper, 4 * t + 3);
    }
    return NULL;
}

/* One epoch of the softmax classifier: update t = 0..n-1 trains on
   instance order[t].  Instance i's feature table is entries starts[i] ..
   starts[i + 1] - 1 of ids, firsts and slots; its n_seg segments read the
   parameter block segs[2s] (0 noun, 1 word, 2 prediction vectors) with
   segs[2s + 1] slots, over ms[i * n_seg + s] pooled rows.  firsts[q] is
   where in its table the first entry of q's block and row lies, and
   slots[q] is that row's accumulator row.  Every id and slot must be in
   range.

   Per update: gather e and, when dropout, apply its mask, one draw per
   entry kept when below 0.5, as rng.random((n, dim)) < 0.5 draws row t;
   write the log-likelihood of labels[i] under the max-shifted softmax to
   logliks[t]; take the L2-regularised AdaGrad step
   on W and bias, with g_e = W^T g_o (masked) read from the pre-update W;
   when fine-tuning, sum each row's shares of g_e in table order and take
   one AdaGrad step per row, with lazy L2.

   With threads == 2 a helper thread, started here and joined before the
   return, takes the scores and steps of the last n_labels - split label
   rows; the calling thread keeps the first split rows, every draw, the
   gathers, the bias step and the fine-tuning steps.  Each row's arithmetic
   is the same at either thread count, and g_e is summed in row order:
   first the calling thread's rows, then the helper's, in its steps; so
   the calling thread can take the helper's rows back before any update
   (see LATE_MAX) with the same bytes.  Update t + 1's mask is drawn, into
   the other of two mask buffers, once the calling thread has taken its own
   steps of update t and before it waits for the helper's: the draws keep
   their order.  Returns 1 when the helper's rows were taken back, else 0.
   `work` holds 5 dim + 4 n_labels + len * max(d, pred_w) floats, len the
   longest table, and `draws` dim doubles. */
int64_t relemb_classifier_epoch(
    int64_t n, int64_t n_labels, int64_t dim, int64_t n_seg,
    const int64_t *segs, const int64_t *ms, const int64_t *starts,
    const int64_t *ids, const int64_t *firsts, const int64_t *slots,
    const int64_t *order, const int64_t *labels, int64_t dropout,
    int64_t fine_tune, float eta, float eps, float l2, float *W,
    float *bias, float *acc_W, float *acc_b, int64_t d, int64_t pred_w,
    float *noun_vecs, float *word_vecs, float *pred_vecs,
    float *acc_noun, float *acc_word, float *acc_pred, double *logliks,
    float *work, double *draws, int64_t threads, bitgen_t *bg)
{
    float *const vecs[3] = {noun_vecs, word_vecs, pred_vecs},
          *const accs[3] = {acc_noun, acc_word, acc_pred};
    const int64_t widths[3] = {d, d, pred_w}, w_max = d > pred_w ? d : pred_w;
    float *restrict g_e = work + 2 * dim, *const masks[2] = {
              work + 3 * dim, work + 4 * dim},
          *restrict g_o = work + 5 * dim + 2 * n_labels,
          *restrict sums = g_o + 2 * n_labels;
    /* the calling thread also gathers and draws each update's 2,000 or so
       mask entries, which outweigh a float row's AdaGrad step, so it takes
       few rows: 4 of the 19 relation labels */
    team_t tm = {.n = n, .last = n, .n_labels = n_labels, .dim = dim,
                 .split = threads > 1 ? n_labels * 4 / 19 : n_labels,
                 .fine_tune = fine_tune, .eta = eta, .eps = eps, .l2 = l2,
                 .order = order, .labels = labels, .W = W, .bias = bias,
                 .acc_W = acc_W, .e = {work, work + dim},
                 .scores = work + 5 * dim, .g_o = g_o, .g_e = g_e};
    pthread_t helper;
    int helped = 0, late = 0, took_back = 0;
    if (tm.split < n_labels && n > 0) {
        /* the helper takes no signal: Python's handlers run on this thread */
        sigset_t all, old;
        sigfillset(&all);
        pthread_sigmask(SIG_SETMASK, &all, &old);
        helped = !pthread_create(&helper, NULL, helper_epoch, &tm);
        pthread_sigmask(SIG_SETMASK, &old, NULL);
        if (!helped)
            tm.split = n_labels;
    }
    float *fused = fine_tune && !helped ? g_e : NULL;
    if (dropout && n > 0)
        draw_mask(bg, draws, masks[0], dim);
    for (int64_t t = 0; t < n; t++) {
        if (helped && late >= LATE_MAX) {      /* take every row back */
            tm.last = t;
            post(&tm.caller, 4 * t + 1);
            pthread_join(helper, NULL);
            helped = 0;
            took_back = 1;
            tm.split = n_labels;
            fused = fine_tune ? g_e : NULL;
        }
        const int64_t i = order[t], *m = ms + i * n_seg, li = labels[i];
        const int64_t *row_ids = ids + starts[i], *first = firsts + starts[i],
                      *slot = slots + starts[i];
        float *restrict e = tm.e[t & 1], *restrict mask = masks[t & 1];
        float *sc = tm.scores + (t & 1) * n_labels;

        /* e: the gather of the table, then the dropout mask */
        for (int64_t s = 0, q = 0, off = 0; s < n_seg; s++) {
            const int64_t b = segs[2 * s], k = segs[2 * s + 1];
            gather(e + off, vecs[b], row_ids + q, k, m[s], widths[b]);
            q += k * m[s];
            off += k * widths[b];
        }
        if (dropout)
            for (int64_t x = 0; x < dim; x++)
                e[x] = e[x] * mask[x] * 2.0f;
        if (helped)
            post(&tm.caller, 4 * t + 1);

        /* the scores, then g_o: the gradient of the log-likelihood w.r.t.
           the scores */
        forward(W, bias, e, sc, 0, tm.split, dim);
        if (helped) {
            post(&tm.caller, 4 * t + 2);
            late += await_stage(&tm.helper, 4 * t + 2);
        }
        logliks[t] = softmax_grad(sc, n_labels, li, g_o);

        /* g_e from the pre-update W, then the steps on W and bias */
        if (fine_tune)
            memset(g_e, 0, dim * sizeof *g_e);
        if (fine_tune && helped) {
            sum_rows(W, g_o, g_e, 0, tm.split, dim);
            post(&tm.caller, 4 * t + 3);
        }
        step_rows(W, acc_W, e, g_o, fused, 0, tm.split, dim, l2, eta, eps);
        adagrad(bias, acc_b, g_o, n_labels, l2, eta, eps);
        if (dropout && t + 1 < n)
            draw_mask(bg, draws, masks[(t + 1) & 1], dim);
        if (!fine_tune)
            continue;
        if (helped)
            late += await_stage(&tm.helper, 4 * t + 3);

        /* the scatter: each entry's share of g_e, divided by m, summed
           into the sum of its row's first entry in table order; then one
           step per row */
        if (dropout)
            for (int64_t x = 0; x < dim; x++)
                g_e[x] = g_e[x] * mask[x] * 2.0f;
        for (int64_t s = 0, q = 0, off = 0; s < n_seg; s++) {
            const int64_t b = segs[2 * s], k = segs[2 * s + 1], w = widths[b];
            for (int64_t r = 0; r < m[s]; r++)
                for (int64_t j = 0; j < k; j++, q++) {
                    float *sum = sums + first[q] * w_max;
                    const float *g = g_e + off + j * w;
                    if (first[q] == q)
                        for (int64_t x = 0; x < w; x++)
                            sum[x] = g[x] / m[s];
                    else
                        for (int64_t x = 0; x < w; x++)
                            sum[x] += g[x] / m[s];
                }
            off += k * w;
        }
        for (int64_t s = 0, q = 0; s < n_seg; s++) {
            const int64_t b = segs[2 * s], w = widths[b];
            for (const int64_t end = q + segs[2 * s + 1] * m[s]; q < end; q++)
                if (first[q] == q)
                    adagrad(vecs[b] + row_ids[q] * w, accs[b] + slot[q] * w,
                            sums + q * w_max, w, l2, eta, eps);
        }
    }
    if (helped)
        pthread_join(helper, NULL);
    return took_back;
}

/* Byte classes of tagged-corpus text: ASCII that is not whitespace in
   str.isspace terms, the whitespace other than line ends and tab, tab,
   line ends, and the bytes of multi-byte characters. */
enum { SOLID, SPACE, TAB, LF, CR, MULTI };

static int byte_class(uint8_t b)
{
    if (b >= 0x80)
        return MULTI;
    if (b == '\t')
        return TAB;
    if (b == '\n')
        return LF;
    if (b == '\r')
        return CR;
    return b == ' ' || b == 0x0b || b == 0x0c || (b >= 0x1c && b <= 0x1f)
        ? SPACE : SOLID;
}

/* Whether a tag is one of NN, NNS, NNP and NNPS (corpus.NOUN_TAGS). */
static int noun_tag(const uint8_t *t, int64_t len)
{
    if (len < 2 || len > 4 || t[0] != 'N' || t[1] != 'N')
        return 0;
    if (len == 2)
        return 1;
    if (len == 3)
        return t[2] == 'S' || t[2] == 'P';
    return t[2] == 'P' && t[3] == 'S';
}

/* The id of the surface data[lo .. hi - 1]: the surfaces are numbered in
   order of first occurrence, found through the open-addressing table of
   mask + 1 entries (-1 for empty), probed linearly from the surface's hash
   and compared byte for byte; surface s first occurs at bytes spans[2s] ..
   spans[2s + 1] - 1.  `mult` is the hash's multiplier. */
static int64_t surface_id(const uint8_t *data, int64_t lo, int64_t hi,
                          uint64_t mult, int64_t *table, uint64_t mask,
                          int64_t *spans, int64_t *n_surfaces)
{
    uint64_t h = 14695981039346656037ULL;
    for (int64_t i = lo; i < hi; i++)
        h = (h ^ data[i]) * mult;
    for (uint64_t at = (h ^ h >> 32) & mask;; at = (at + 1) & mask) {
        const int64_t s = table[at];
        if (s < 0) {
            spans[2 * *n_surfaces] = lo;
            spans[2 * *n_surfaces + 1] = hi;
            return table[at] = (*n_surfaces)++;
        }
        if (spans[2 * s + 1] - spans[2 * s] == hi - lo
                && !memcmp(data + spans[2 * s], data + lo, hi - lo))
            return s;
    }
}

/* Tagged-corpus bytes data[0 .. n - 1], from a line start, in one pass.
   Lines end at \n, \r\n or a lone \r.  A line of ASCII whitespace only is
   blank and ends the sentence; a line with an ASCII byte that is not
   whitespace is a token when one tab splits it into two non-empty fields,
   and is skipped otherwise; any other line (multi-byte characters and
   whitespace) is unsettled.  Unless `final`, the scan keeps the lines up
   to the last blank one and leaves the rest for the next call; when final,
   it keeps every line, the last one with or without its end.

   Token t of the kept lines has surface ids[t] (see surface_id; `table`
   holds mask + 1 entries, more than the tabs of data) and noun[t] set when
   its tag is a noun tag; sentence s holds tokens offsets[s] ..
   offsets[s + 1] - 1.  ids, noun and spans hold one entry (spans two) per
   tab of data, offsets one more.  out receives the bytes kept, the
   tokens, sentences, surfaces and skipped lines among them, and where the
   first unsettled line and the first byte of a multi-byte character lie
   among them (n when none). */
void relemb_scan_tagged(const uint8_t *data, int64_t n, int64_t final,
                        uint64_t mult, int64_t *table, uint64_t mask,
                        int64_t *ids, uint8_t *noun, int64_t *offsets,
                        int64_t *spans, int64_t *out)
{
    int64_t tokens = 0, sentences = 0, surfaces = 0, skipped = 0;
    int64_t unsettled = n, multi = n;
    int64_t kept[5] = {0, 0, 0, 0, 0};   /* the counts at the last cut */
    memset(table, 0xff, (mask + 1) * sizeof *table);
    offsets[0] = 0;
    for (int64_t lo = 0; lo < n;) {
        int64_t i = lo, tabs = 0, tab = -1, solid = 0, has_multi = 0;
        for (; i < n; i++) {
            const int c = byte_class(data[i]);
            if (c == LF || c == CR)
                break;
            if (c == TAB && !tabs++)
                tab = i;
            solid |= c == SOLID;
            has_multi |= c == MULTI;
        }
        if (i == n && !final)
            break;                       /* the line may go on */
        const int64_t next = i + (i < n && data[i] == '\r' && i + 1 < n
                                  && data[i + 1] == '\n') + (i < n);
        if (has_multi && multi == n)
            multi = lo;
        if (solid) {
            if (tabs == 1 && tab > lo && i > tab + 1) {
                ids[tokens] = surface_id(data, lo, tab, mult, table, mask,
                                         spans, &surfaces);
                noun[tokens++] =
                    (uint8_t)noun_tag(data + tab + 1, i - tab - 1);
            } else {
                skipped++;
            }
        } else if (has_multi) {
            if (unsettled == n)
                unsettled = lo;
        } else {
            if (tokens > offsets[sentences])
                offsets[++sentences] = tokens;
            kept[0] = next;
            kept[1] = tokens;
            kept[2] = sentences;
            kept[3] = surfaces;
            kept[4] = skipped;
        }
        lo = next;
    }
    if (final) {
        if (tokens > offsets[sentences])
            offsets[++sentences] = tokens;
        kept[0] = n;
        kept[1] = tokens;
        kept[2] = sentences;
        kept[3] = surfaces;
        kept[4] = skipped;
    }
    memcpy(out, kept, sizeof kept);
    out[5] = unsettled < kept[0] ? unsettled : n;
    out[6] = multi < kept[0] ? multi : n;
}
"""

FLAGS = ("-O3", "-march=native", "-fno-math-errno", "-fno-trapping-math",
         "-fassociative-math", "-fno-signed-zeros", "-shared", "-fPIC",
         "-pthread")

_IDS = np.ctypeslib.ndpointer(np.int64, ndim=2, flags="C_CONTIGUOUS")
_INTS = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
_FLAGS = np.ctypeslib.ndpointer(np.bool_, ndim=1, flags="C_CONTIGUOUS")

# The multiplier of the tagged-corpus scan's surface hash (64-bit FNV-1a's).
# Any value gives the same scan; 0 puts every surface in one bucket.
_SURFACE_HASH = 0x100000001B3

# The element type of every parameter block, AdaGrad accumulator and work
# buffer of the compiled loops: C's float.
FLOAT = np.dtype(np.float32)

# The parameter blocks a classifier table reads, numbered as in the C code.
_BLOCKS = ("noun_vecs", "word_vecs", "pred_vecs")


# A cache line: an array that starts on one never has a vector load split
# across two lines.
_LINE = 64


def aligned(shape, dtype):
    """A zero-filled C-contiguous array of `shape` and `dtype` whose data
    starts on a 64-byte line.  numpy's own large arrays start 16 bytes into
    one (past the allocator's chunk header), so every row a compiled loop
    streams would split a line at each 64-byte load."""
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    buf = np.zeros(nbytes + _LINE, np.uint8)
    # an empty slice keeps its base's address: move the start first
    return buf[-buf.ctypes.data % _LINE:][:nbytes].view(dtype).reshape(shape)


def _doubles(ndim):
    return np.ctypeslib.ndpointer(np.float64, ndim=ndim, flags="C_CONTIGUOUS")


def _floats(ndim):
    return np.ctypeslib.ndpointer(FLOAT, ndim=ndim, flags="C_CONTIGUOUS")


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
    for this CPU is cached.  The compiler is known by its binary's resolved
    path, size and mtime, so naming the object starts no process; the key
    is hashed with CPython's own BLAKE2b, not OpenSSL's code."""
    binary = Path(gcc).resolve()
    stat = binary.stat()
    key = hashlib.blake2b("\0".join(
        (SOURCE, " ".join(FLAGS), str(binary), str(stat.st_size),
         str(stat.st_mtime_ns), _cpu_flags())).encode(),
        digest_size=10).hexdigest()
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "relemb" / f"kernels-{key}.so"


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


class Progress(ctypes.Structure):
    """Where a compiled walk stands, read and written by C: the next
    context or sentence (``at``), the targets passed in the rate schedule
    (``done``), the next report point, the log's counts, and the open
    window's objective sum and step count.  A walk returns at each report
    point; the caller records the window, resets it, moves
    ``next_report`` on and calls again."""

    _fields_ = [(name, ctypes.c_int64) for name in (
        "at", "done", "next_report", "steps", "pairs_discarded",
        "targets_discarded", "win_count")] + [("win_sum", ctypes.c_double)]


class Kernels(NamedTuple):
    """The four entry points of one loaded object."""

    pretrain_contexts: object
    cbow_sentences: object
    classifier_epoch: object
    scan_tagged: object


def _threads():
    """The threads a classifier epoch runs on: two when this process may
    run on two or more CPUs, else one."""
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


def _check_draws(draws, n_words, progress, n):
    """Raise ValueError unless the noise tables and the word discard
    probabilities of ``embed_train._Draws`` `draws` cover the `n_words`
    ids, a draw cannot search past the last id, the schedule plans a
    target, and `progress` lies within the `n` contexts or sentences."""
    noise = draws.noise
    if (noise.cum.shape != (n_words,) or noise.probs.shape != (n_words,)
            or draws.words.discard_probs.shape != (n_words,)
            or not noise.cum[-1] == 1.0
            or not 0 <= progress.at <= n or draws.planned < 1):
        raise ValueError("kernel: inconsistent noise, discard or progress")


def _call(fn, rng, *args):
    """`fn` on `args` and, last, `rng`'s bit generator, held for the
    call."""
    bitgen = rng.bit_generator
    with bitgen.lock:
        return bool(fn(*args, bitgen.ctypes.bit_generator))


def _bind_pretrain(lib):
    fn = lib.relemb_pretrain_contexts
    fn.argtypes = ([ctypes.c_int64] * 5 + [_INTS] * 4 + [_IDS, _IDS, _IDS]
                   + [_doubles(1)] * 4
                   + [ctypes.c_int64, ctypes.c_double, ctypes.c_int64]
                   + [_floats(2)] * 3
                   + [_floats(1), ctypes.POINTER(Progress), _floats(1),
                      _INTS, ctypes.c_void_p])
    fn.restype = ctypes.c_int64

    def contexts(params, block, slots, draws, progress):
        """Pretrain over the contexts of `block` (int64
        :class:`~relemb.corpus.ContextArrays` with offsets from 0) from
        ``progress.at``, as the numpy walk does.  `slots` holds each
        target's neighbour slots; `draws` is the run's
        ``embed_train._Draws``: its settings ``cfg``, rate schedule
        ``planned``, generator ``rng``, noise tables ``noise.cum`` and
        ``noise.probs``, and noun and word discard probabilities.  Returns
        True when it stopped at a report point.  The caller has checked
        that every id is in range; shapes are checked here."""
        n, (d, c) = len(block.n1), (params.dim, params.window)
        p, k = params.pretrain_feature_dim, draws.cfg.negatives
        noun_discard = draws.nouns.discard_probs
        word_discard = draws.words.discard_probs
        if (block.n2.shape != (n,) or block.offsets.shape != (n + 1,)
                or block.offsets[0] != 0
                or (np.diff(block.offsets) < 0).any()
                or block.w_in.shape != (block.offsets[-1],)
                or slots.shape != (len(block.w_in), 2 * c)
                or block.w_bef.shape != block.w_aft.shape
                or len(block.w_bef) != n
                or noun_discard.shape != (params.n_nouns,)
                or params.noun_vecs.shape[1] != d
                or params.word_vecs.shape[1] != d
                or params.pred_vecs.shape != (params.n_words, p)
                or params.pred_bias.shape != (params.n_words,)):
            raise ValueError("pretrain kernel: inconsistent block or "
                             "parameter shapes")
        _check_draws(draws, params.n_words, progress, n)
        return _call(fn, draws.rng, n, d, c, block.w_bef.shape[1], k,
                     block.n1, block.n2, block.offsets, block.w_in, slots,
                     block.w_bef, block.w_aft, noun_discard, word_discard,
                     draws.noise.cum, draws.noise.probs, params.n_words,
                     draws.cfg.alpha, draws.planned, params.noun_vecs,
                     params.word_vecs, params.pred_vecs, params.pred_bias,
                     ctypes.byref(progress), aligned(2 * p + k + 1, FLOAT),
                     np.empty(k + 1, np.int64))

    contexts.library = lib   # keeps the object loaded while it lives
    return contexts


def _bind_cbow(lib):
    fn = lib.relemb_cbow_sentences
    fn.argtypes = ([ctypes.c_int64] * 4 + [_INTS] * 2 + [_doubles(1)] * 3
                   + [ctypes.c_int64, ctypes.c_double, ctypes.c_int64]
                   + [_floats(2)] * 2
                   + [ctypes.POINTER(Progress), _floats(1), _INTS,
                      ctypes.c_void_p])
    fn.restype = ctypes.c_int64

    def sentences(params, ids, offsets, draws, progress):
        """Train CBOW on the ``word_vecs`` and ``pred_vecs`` of `params`
        over the sentences of the flat int64 `ids` (sentence s is
        ``ids[offsets[s]:offsets[s + 1]]``) from ``progress.at``, as the
        numpy walk does.  `draws` is the run's ``embed_train._Draws``: its
        settings ``cfg``, rate schedule ``planned``, generator ``rng``,
        noise tables and word discard probabilities.  Returns True when it
        stopped at a report point.  Ids must be in range; shapes are
        checked here."""
        n, (n_words, d) = len(offsets) - 1, params.word_vecs.shape
        c, k, noise = params.window, draws.cfg.negatives, draws.noise
        lengths = np.diff(offsets)
        if (n < 0 or offsets[0] != 0 or (lengths < 0).any()
                or ids.shape != (offsets[-1],)
                or params.pred_vecs.shape != (n_words, d)):
            raise ValueError("cbow kernel: inconsistent sentence or "
                             "parameter shapes")
        _check_draws(draws, n_words, progress, n)
        longest = int(lengths.max(initial=0))
        return _call(fn, draws.rng, n, d, c, k, offsets, ids,
                     draws.words.discard_probs, noise.cum, noise.probs,
                     n_words, draws.cfg.alpha, draws.planned,
                     params.word_vecs, params.pred_vecs,
                     ctypes.byref(progress), aligned(2 * d + k + 1, FLOAT),
                     np.empty(k + 1 + 2 * c + longest, np.int64))

    sentences.library = lib
    return sentences


def _bind_classifier(lib):
    fn = lib.relemb_classifier_epoch
    fn.argtypes = ([ctypes.c_int64] * 4 + [_IDS, _IDS] + [_INTS] * 6
                   + [ctypes.c_int64] * 2 + [ctypes.c_float] * 3
                   + [_floats(2), _floats(1), _floats(2), _floats(1)]
                   + [ctypes.c_int64] * 2 + [_floats(2)] * 6
                   + [_doubles(1), _floats(1), _doubles(1), ctypes.c_int64,
                      ctypes.c_void_p])
    fn.restype = ctypes.c_int64

    def epoch(tables, order, rng, softmax, state, params, cfg, eps, threads):
        """Take one epoch of classifier updates, on the instances in
        `order`.  Returns each update's log-likelihood, and whether the
        calling thread took the helper's rows back because the two threads
        were not running at once.

        `tables` holds the packed feature tables: ``segments`` (name, k)
        shared by every table, per-instance pooled-row counts ``m`` and
        table ``starts``, per-entry ``ids``, ``firsts`` and ``slots``, and
        ``labels``.  When ``cfg.dropout``, each update's mask is drawn from
        `rng` as ``rng.random((len(order), dim)) < 0.5`` draws its row.
        `softmax`, its accumulators `state` (whose ``rows`` hold the
        compact row accumulators of the blocks the tables read) and, when
        ``cfg.fine_tune``, `params` are updated in place, on `threads`
        threads (1 or 2, see :func:`_threads`) with the same bytes.  The
        caller has checked every id and slot; shapes are checked here."""
        n = len(order)
        d, pred_w = params.word_vecs.shape[1], params.pred_vecs.shape[1]
        widths = {"noun_vecs": d, "word_vecs": d, "pred_vecs": pred_w}
        segs = np.array([(_BLOCKS.index(name), k)
                         for name, k in tables.segments], np.int64)
        dim = int(sum(k * widths[name] for name, k in tables.segments))
        n_labels = softmax.bias.shape[0]
        total = int(tables.starts[-1])
        accs = [state.rows.get(name, np.zeros((0, widths[name]), FLOAT))
                for name in _BLOCKS]
        if (tables.m.shape != (n, len(segs)) or tables.starts.shape != (n + 1,)
                or tables.labels.shape != (n,)
                or any(a.shape != (total,) for a in
                       (tables.ids, tables.firsts, tables.slots))
                or softmax.weights.shape != (n_labels, dim)
                or state.weights.shape != (n_labels, dim)
                or state.bias.shape != (n_labels,)
                or params.noun_vecs.shape[1] != d
                or any(a.shape[1] != widths[name]
                       for a, name in zip(accs, _BLOCKS))):
            raise ValueError("classifier kernel: inconsistent table or "
                             "parameter shapes")
        if not ((0 <= order) & (order < n)).all() or not (
                (0 <= tables.labels) & (tables.labels < n_labels)).all():
            raise ValueError("classifier kernel: order or label out of range")
        longest = int(np.diff(tables.starts).max())
        logliks = np.empty(n)
        took_back = _call(fn, rng, n, n_labels, dim, len(segs), segs, tables.m,
              tables.starts, tables.ids, tables.firsts, tables.slots, order,
              tables.labels, cfg.dropout, cfg.fine_tune, cfg.eta, eps, cfg.l2,
              softmax.weights, softmax.bias, state.weights, state.bias, d,
              pred_w, params.noun_vecs, params.word_vecs, params.pred_vecs,
              *accs, logliks,
              aligned(5 * dim + 4 * n_labels + longest * max(d, pred_w),
                      FLOAT), aligned(dim, np.float64), threads)
        return logliks, took_back

    epoch.library = lib
    return epoch


class Scan(NamedTuple):
    """What the ``scan_tagged`` entry point read of a byte block: the bytes
    kept (``used``), the token arrays of their lines, each surface's first
    ``(start, end)`` byte offsets, flattened, in ``spans``, the skipped
    lines, and where the first unsettled line and the first multi-byte
    character lie among the kept bytes (None when there is none)."""

    used: int
    ids: np.ndarray
    noun: np.ndarray
    offsets: np.ndarray
    spans: np.ndarray
    skipped: int
    unsettled: int | None
    multi_byte: int | None


def _bind_scan(lib):
    fn = lib.relemb_scan_tagged
    fn.argtypes = [ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64,
                   ctypes.c_uint64, _INTS, ctypes.c_uint64, _INTS, _FLAGS,
                   _INTS, _INTS, _INTS]
    fn.restype = None

    def scan_tagged(data, final):
        """Read the lines of `data`, tagged-corpus bytes from a line start,
        in one pass, as :class:`Scan`.  Unless `final`, the scan keeps the
        lines up to the last one of ASCII whitespace only (none when there
        is no such line) and leaves the rest for the next call."""
        tabs = data.count(b"\t")
        table = np.empty(1 << (2 * tabs + 1).bit_length(), np.int64)
        ids, noun = np.empty(tabs, np.int64), np.empty(tabs, bool)
        offsets, spans = np.empty(tabs + 1, np.int64), np.empty(2 * tabs,
                                                                np.int64)
        out = np.empty(7, np.int64)
        fn(data, len(data), final, _SURFACE_HASH, table, len(table) - 1, ids,
           noun, offsets, spans, out)
        used, tokens, sentences, surfaces, skipped, unsettled, multi = (
            out.tolist())
        return Scan(used, ids[:tokens], noun[:tokens],
                    offsets[:sentences + 1], spans[:2 * surfaces],
                    skipped, None if unsettled == len(data) else unsettled,
                    None if multi == len(data) else multi)

    scan_tagged.library = lib
    return scan_tagged


def _bind(lib):
    return Kernels(_bind_pretrain(lib), _bind_cbow(lib), _bind_classifier(lib),
                   _bind_scan(lib))


@functools.cache
def load():
    """The compiled entry points as :class:`Kernels`, built at the first
    call; None when no ``gcc`` is found or the build fails, so the numpy
    steps run instead.

    The object is cached under ``$XDG_CACHE_HOME/relemb`` (default
    ``~/.cache/relemb``), keyed by a hash of the source, the flags, the
    compiler binary's resolved path, size and mtime and the CPU flags, so a
    warm load starts no process.  When that directory cannot be written it
    is built in a temporary directory removed after loading.
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
        logger.warning("kernels: %s failed: %s", gcc,
                       exc.stderr.strip() or exc)
        return None
