"""Command-line pipeline: build-vocab, extract, pretrain, cbow, train, cv,
eval, wordsim, ngrams.

Every subcommand accepts ``--config FILE`` with ``key = value`` lines;
explicit command-line flags override file values, unknown keys are rejected,
and the fully resolved configuration is logged before the run.  Exit codes:
0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import logging
import os
import sys

import numpy as np

from . import corpus as cp
from . import embed_train as et
from . import cbow_baseline as cb
from . import classifier as cl
from . import evaluation as ev
from .features import FeatureOptions, feature_dim

logger = logging.getLogger("relemb")

# Labeled data is always parsed with this outside-window width; the
# feature options trim it down, so saved classifiers stay self-describing.
PARSE_M_OUT = 10


class UsageError(Exception):
    pass


def _require_files(*paths):
    for p in paths:
        if p is None:
            continue
        if not os.path.exists(p):
            raise UsageError(f"input path does not exist: {p}")


def _read_config_file(path):
    _require_files(path)
    values = {}
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{ln}: expected 'key = value'")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def _resolve(args, schema):
    """Merge defaults, config-file values, and explicit flags; log result."""
    file_values = {}
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)
        unknown = set(file_values) - set(schema)
        if unknown:
            raise UsageError("unknown config keys: " + ", ".join(sorted(unknown)))
    resolved = {}
    for key, (typ, default) in schema.items():
        value = default
        if key in file_values:
            try:
                value = typ(file_values[key])
            except ValueError:
                raise UsageError(f"bad value for config key {key}: "
                                 f"{file_values[key]!r}") from None
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            value = cli_value
        resolved[key] = value
    logger.info("resolved config: %s",
                " ".join(f"{k}={v}" for k, v in sorted(resolved.items())))
    return resolved


def _corpus_stream(paths):
    class _Multi:
        def __init__(self, paths):
            self.paths = paths
            self.readers = []

        def __iter__(self):
            self.readers = [cp.parse_tagged_corpus(p) for p in self.paths]
            for r in self.readers:
                yield from r

        @property
        def skipped_lines(self):
            return sum(r.skipped_lines for r in self.readers)

    return _Multi(paths)


def _int_bool(text):
    return bool(int(text))


# --- subcommands -------------------------------------------------------------

def cmd_build_vocab(args):
    schema = {
        "max_words": (int, 300_000),
        "max_nouns": (int, 300_000),
        "lowercase": (_int_bool, True),
    }
    cfg = _resolve(args, schema)
    _require_files(*args.corpus)
    stream = _corpus_stream(args.corpus)
    vocab = cp.build_vocabulary(stream, cfg["max_words"], cfg["max_nouns"],
                                cfg["lowercase"])
    vocab.save(args.out)
    n_sentences = sum(r.sentences_read for r in stream.readers)
    print(f"sentences: {n_sentences}")
    print(f"tokens: {vocab.total_token_count}")
    print(f"noun tokens: {vocab.total_noun_count}")
    print(f"word inventory: {vocab.n_words} (incl NULL, UNK)")
    print(f"noun inventory: {vocab.n_nouns} (incl UNK)")
    print(f"skipped lines: {stream.skipped_lines}")
    return 0


def cmd_extract(args):
    schema = {
        "m_out": (int, 5),
        "max_between": (int, 10),
    }
    cfg = _resolve(args, schema)
    _require_files(*args.corpus, args.vocab)
    vocab = cp.Vocabulary.load(args.vocab)
    stream = _corpus_stream(args.corpus)
    stats = {"sentences": 0, "targets": 0}

    def gen():
        for n, sent in enumerate(stream):
            stats["sentences"] += 1
            for ctx in cp.extract_noun_pair_contexts(
                    sent, vocab, cfg["m_out"], cfg["max_between"],
                    sentence_ref=n):
                stats["targets"] += ctx.m_in
                yield ctx

    n_pairs = cp.write_contexts(gen(), cfg["m_out"], args.out)
    print(f"sentences: {stats['sentences']}")
    print(f"pairs: {n_pairs}")
    print(f"targets: {stats['targets']}")
    return 0


_PRETRAIN_SCHEMA = {
    "d": (int, 100),
    "c": (int, 3),
    "k": (int, 25),
    "alpha": (float, 0.025),
    "t": (float, 1e-5),
    "epochs": (int, 1),
    "seed": (int, 1),
    "report_every": (int, 100_000),
}


def cmd_pretrain(args):
    cfg = _resolve(args, _PRETRAIN_SCHEMA)
    _require_files(args.contexts, args.vocab)
    vocab = cp.Vocabulary.load(args.vocab)
    contexts = cp.ContextFile(args.contexts)
    try:
        config = et.PretrainConfig(
            dim=cfg["d"], window=cfg["c"], negatives=cfg["k"],
            alpha=cfg["alpha"], m_out=contexts.m_out, subsample=cfg["t"],
            epochs=cfg["epochs"], seed=cfg["seed"],
            report_every=cfg["report_every"]).validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    params, log = et.train_embeddings(contexts, vocab, config)
    et.save_model(params, args.out)
    print(f"targets seen: {log.targets_seen}")
    print(f"updates: {log.steps_taken}")
    print(f"pairs discarded: {log.pairs_discarded}")
    print(f"model: {args.out}")
    return 0


def cmd_cbow(args):
    schema = {
        "d": (int, 100),
        "c": (int, 3),
        "k": (int, 25),
        "alpha": (float, 0.025),
        "t": (float, 1e-5),
        "epochs": (int, 1),
        "seed": (int, 1),
    }
    cfg = _resolve(args, schema)
    _require_files(*args.corpus, args.vocab)
    vocab = cp.Vocabulary.load(args.vocab)
    stream = _corpus_stream(args.corpus)
    try:
        config = cb.CbowConfig(
            dim=cfg["d"], window=cfg["c"], negatives=cfg["k"],
            alpha=cfg["alpha"], subsample=cfg["t"], epochs=cfg["epochs"],
            seed=cfg["seed"]).validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    model, log = cb.train_cbow(stream, vocab, config)
    params = cb.import_as_initialization(model, vocab)
    et.save_model(params, args.out)
    if args.export_text:
        surfaces = [vocab.word_surface(i) for i in range(vocab.n_words)]
        et.write_text_vectors(surfaces, model.in_vecs, args.export_text + ".in.txt")
        et.write_text_vectors(surfaces, model.out_vecs, args.export_text + ".out.txt")
    print(f"tokens seen: {log.targets_seen}")
    print(f"updates: {log.steps_taken}")
    print(f"model: {args.out}")
    return 0


_TRAIN_SCHEMA = {
    "eta": (float, 0.1),
    "l2": (float, 1e-4),
    "epochs": (int, 20),
    "dropout": (_int_bool, True),
    "fine_tune": (_int_bool, True),
    "m_out": (int, 5),
    "seed": (int, 1),
    "features": (str, "nouns,between,outside"),
    "d": (int, 100),
    "c": (int, 3),
}


def _load_embeddings(args, cfg, vocab):
    """Pretrained model file, random initialization, or imported vectors."""
    if args.model:
        _require_files(args.model)
        return et.load_model(args.model)
    if args.init == "rand":
        rng = np.random.default_rng(cfg["seed"])
        return et.initial_params(vocab.n_nouns, vocab.n_words,
                                 cfg["d"], cfg["c"], rng)
    if args.init == "w2v":
        if not (args.vectors_in and args.vectors_out):
            raise UsageError("--init w2v needs --vectors-in and --vectors-out")
        _require_files(args.vectors_in, args.vectors_out)
        s_in, m_in = et.read_text_vectors(args.vectors_in)
        s_out, m_out = et.read_text_vectors(args.vectors_out)
        in_aligned, missing = cb.align_text_vectors(s_in, m_in, vocab)
        out_aligned, _ = cb.align_text_vectors(s_out, m_out, vocab)
        if missing:
            logger.info("imported vectors: %d words fall back to UNK", len(missing))
        model = cb.CbowModel(in_aligned, out_aligned, m_in.shape[1], cfg["c"])
        return cb.import_as_initialization(model, vocab)
    raise UsageError("provide --model FILE or --init rand|w2v")


def _feature_options(cfg):
    try:
        base = FeatureOptions.from_flags(cfg["features"])
        if cfg["m_out"] > PARSE_M_OUT:
            raise ValueError(f"m_out must be <= {PARSE_M_OUT}")
        return FeatureOptions(base.include_nouns, base.include_between,
                              base.include_outside, base.bow_between,
                              m_out=cfg["m_out"]).validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_train(args):
    cfg = _resolve(args, _TRAIN_SCHEMA)
    _require_files(args.train, args.vocab)
    vocab = cp.Vocabulary.load(args.vocab)
    instances = cp.parse_semeval(args.train, vocab, PARSE_M_OUT)
    params = _load_embeddings(args, cfg, vocab)
    opts = _feature_options(cfg)
    try:
        config = cl.SupervisedConfig(
            eta=cfg["eta"], l2=cfg["l2"], epochs=cfg["epochs"],
            dropout=cfg["dropout"], fine_tune=cfg["fine_tune"],
            seed=cfg["seed"]).validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    softmax, tuned, log = cl.train_classifier(instances, params, config, opts)
    cl.save_classifier(softmax, opts, args.out)
    if args.out_model:
        et.save_model(tuned, args.out_model)
    print(f"instances: {len(instances)}")
    print(f"final mean log-likelihood: {log.epoch_objective[-1]:.4f}")
    print(f"classifier: {args.out}")
    return 0


def _float_list(text):
    return [float(x) for x in text.split(",") if x]


def _int_list(text):
    return [int(x) for x in text.split(",") if x]


def cmd_cv(args):
    schema = dict(_TRAIN_SCHEMA)
    schema.update({
        "folds": (int, 10),
        "eta": (_float_list, [0.1]),
        "l2": (_float_list, [1e-4]),
        "epochs": (_int_list, [20]),
        "m_out": (_int_list, [5]),
        "dropout": (str, "1"),
    })
    cfg = _resolve(args, schema)
    _require_files(args.train, args.vocab)
    vocab = cp.Vocabulary.load(args.vocab)
    instances = cp.parse_semeval(args.train, vocab, PARSE_M_OUT)
    params = _load_embeddings(args, cfg, vocab)
    try:
        base = FeatureOptions.from_flags(cfg["features"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    dropouts = [bool(int(x)) for x in str(cfg["dropout"]).split(",") if x != ""]
    settings = []
    for eta, l2, epochs, m_out, dropout in itertools.product(
            cfg["eta"], cfg["l2"], cfg["epochs"], cfg["m_out"], dropouts):
        if m_out > PARSE_M_OUT:
            raise UsageError(f"m_out must be <= {PARSE_M_OUT}")
        name = f"eta={eta} l2={l2} epochs={epochs} m_out={m_out} dropout={int(dropout)}"
        config = cl.SupervisedConfig(eta=eta, l2=l2, epochs=epochs,
                                     dropout=dropout,
                                     fine_tune=cfg["fine_tune"],
                                     seed=cfg["seed"], folds=cfg["folds"])
        opts = FeatureOptions(base.include_nouns, base.include_between,
                              base.include_outside, base.bow_between,
                              m_out=m_out)
        settings.append((name, config, opts))
    results = cl.cross_validate(instances, params, settings,
                                folds=cfg["folds"], seed=cfg["seed"])
    width = max(len(name) for name, _, _ in results)
    print(f"{'setting':<{width}}  mean F1")
    for name, mean, _ in results:
        print(f"{name:<{width}}  {mean:7.2f}")
    best = max(results, key=lambda r: r[1])
    print(f"best: {best[0]} ({best[1]:.2f})")
    return 0


def _load_model_and_classifier(args):
    """The model and classifier files, checked to agree on the feature
    dimension: ``(embed_params, softmax_params, feature_options)``."""
    params = et.load_model(args.model)
    softmax, opts = cl.load_classifier(args.clf)
    expected = feature_dim(params, opts)
    if expected != softmax.weights.shape[1]:
        raise RuntimeError(
            f"dimension mismatch: model features have dim {expected}, "
            f"classifier expects dim {softmax.weights.shape[1]}")
    return params, softmax, opts


def cmd_eval(args):
    schema = {
        "bootstrap": (int, 0),
        "level": (float, 0.95),
        "seed": (int, 1),
    }
    cfg = _resolve(args, schema)
    _require_files(args.test, args.vocab, args.model, args.clf)
    vocab = cp.Vocabulary.load(args.vocab)
    params, softmax, opts = _load_model_and_classifier(args)
    instances = cp.parse_semeval(args.test, vocab, PARSE_M_OUT)
    pred = cl.predict_many([i.context for i in instances], softmax, params, opts)
    gold = [i.label for i in instances]
    report = ev.score_semeval(gold, pred)
    if cfg["bootstrap"]:
        lo, hi = ev.bootstrap_ci(gold, pred, cfg["bootstrap"], cfg["level"],
                                 cfg["seed"])
        report.bootstrap = (lo, hi, cfg["level"])
    print(ev.format_report(report))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(ev.report_kv(report) + "\n")
    if args.pred:
        ev.write_predictions([i.id for i in instances], pred, args.pred)
    return 0


def cmd_wordsim(args):
    schema = {"matrix": (str, "noun")}
    cfg = _resolve(args, schema)
    _require_files(args.pairs, args.vocab, args.model)
    vocab = cp.Vocabulary.load(args.vocab)
    params = et.load_model(args.model)
    pairs = ev.read_wordsim(args.pairs)
    result = ev.spearman_wordsim(pairs, params, vocab, cfg["matrix"])
    print(f"pairs: {result.n_pairs}")
    print(f"oov pairs: {len(result.oov_pairs)}")
    print(f"spearman rho: {result.rho:.4f}")
    return 0


def cmd_ngrams(args):
    schema = {
        "n": (_int_list, [1, 3]),
        "top": (int, 5),
    }
    cfg = _resolve(args, schema)
    _require_files(args.train, args.vocab, args.model, args.clf)
    vocab = cp.Vocabulary.load(args.vocab)
    params, softmax, opts = _load_model_and_classifier(args)
    instances = cp.parse_semeval(args.train, vocab, PARSE_M_OUT)
    labels = [cp.parse_label(text) for text in args.label] if args.label \
        else [lab for lab in cp.ALL_LABELS if lab.family != "Other"]
    for label in labels:
        print(f"== {label.surface()}")
        for n in cfg["n"]:
            try:
                ranked = ev.top_ngrams(softmax, params, opts, instances,
                                       label, n, cfg["top"], vocab=vocab)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
            for words, score in ranked:
                print(f"  {n}-gram  {' '.join(words):<40} {score:9.4f}")
    return 0


# --- parser ------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="relemb",
        description="relation-classification embeddings: pretraining, "
                    "classification, and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key = value configuration file")
        return p

    p = add("build-vocab", cmd_build_vocab, help="count a tagged corpus")
    p.add_argument("--corpus", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-words", dest="max_words", type=int)
    p.add_argument("--max-nouns", dest="max_nouns", type=int)
    p.add_argument("--lowercase", type=_int_bool)

    p = add("extract", cmd_extract, help="extract noun-pair contexts")
    p.add_argument("--corpus", nargs="+", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--m-out", dest="m_out", type=int)
    p.add_argument("--max-between", dest="max_between", type=int)

    p = add("pretrain", cmd_pretrain, help="train noun-pair embeddings")
    p.add_argument("--contexts", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--report-every", dest="report_every", type=int)

    p = add("cbow", cmd_cbow, help="train the CBOW baseline embeddings")
    p.add_argument("--corpus", nargs="+", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--export-text", dest="export_text")
    p.add_argument("--d", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)

    def add_embed_source(p):
        p.add_argument("--model")
        p.add_argument("--init", choices=("rand", "w2v"))
        p.add_argument("--vectors-in", dest="vectors_in")
        p.add_argument("--vectors-out", dest="vectors_out")
        p.add_argument("--d", type=int)
        p.add_argument("--c", type=int)

    p = add("train", cmd_train, help="train the relation classifier")
    p.add_argument("--train", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--out-model", dest="out_model")
    add_embed_source(p)
    p.add_argument("--features")
    p.add_argument("--eta", type=float)
    p.add_argument("--l2", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--dropout", type=_int_bool)
    p.add_argument("--fine-tune", dest="fine_tune", type=_int_bool)
    p.add_argument("--m-out", dest="m_out", type=int)
    p.add_argument("--seed", type=int)

    p = add("cv", cmd_cv, help="cross-validate a hyperparameter grid")
    p.add_argument("--train", required=True)
    p.add_argument("--vocab", required=True)
    add_embed_source(p)
    p.add_argument("--features")
    p.add_argument("--folds", type=int)
    p.add_argument("--eta", type=_float_list)
    p.add_argument("--l2", type=_float_list)
    p.add_argument("--epochs", type=_int_list)
    p.add_argument("--m-out", dest="m_out", type=_int_list)
    p.add_argument("--dropout")
    p.add_argument("--fine-tune", dest="fine_tune", type=_int_bool)
    p.add_argument("--seed", type=int)

    p = add("eval", cmd_eval, help="score a labeled test file")
    p.add_argument("--test", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--clf", required=True)
    p.add_argument("--pred")
    p.add_argument("--report")
    p.add_argument("--bootstrap", type=int)
    p.add_argument("--level", type=float)
    p.add_argument("--seed", type=int)

    p = add("wordsim", cmd_wordsim, help="word-similarity correlation")
    p.add_argument("--pairs", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--matrix", choices=("noun", "word"))

    p = add("ngrams", cmd_ngrams, help="top n-grams per relation class")
    p.add_argument("--train", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--clf", required=True)
    p.add_argument("--label", action="append")
    p.add_argument("--n", type=_int_list)
    p.add_argument("--top", type=int)

    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO,
                        format="[%(asctime)s] %(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (UsageError, cp.ArtifactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
