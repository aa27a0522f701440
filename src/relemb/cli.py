"""Command-line pipeline: build-vocab, extract, pretrain, cbow, train, cv,
eval, ngrams.

Every subcommand accepts ``--config FILE`` with ``key = value`` lines;
explicit command-line flags override file values, unknown keys are rejected,
and the fully resolved configuration is logged before the run.  Exit codes:
0 success; 2 for a usage error, a bad setting (:class:`relemb.corpus.ConfigError`)
or a missing or malformed input file (:class:`relemb.corpus.ArtifactError`,
naming the file and, where there is one, the line); 1 for any other failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
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
from .corpus import ConfigError
from .features import FeatureOptions, feature_dim

logger = logging.getLogger("relemb")

# Labeled data is always parsed with this outside-window width; the
# feature options trim it down, so saved classifiers stay self-describing.
PARSE_M_OUT = 10


def _int_bool(text):
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


def _list_of(item):
    """Type of a non-empty comma-separated list of `item` values."""
    def parse(text):
        values = [item(x) for x in text.split(",") if x]
        if not values:
            raise ValueError("empty list")
        return values
    parse.__name__ = f"{item.__name__}_list"
    return parse


def _option(default):
    """The option ``(type, default)`` of a setting, typed as its default."""
    return (_int_bool if isinstance(default, bool) else type(default)), default


def _options(config, fields):
    """Options for the settings of dataclass instance `config` named by
    `fields` (config key -> field): each typed as, and defaulting to, the
    field's value."""
    return {key: _option(getattr(config, name))
            for key, name in fields.items()}


def _keyword_options(fn, *names):
    """Options for the keyword parameters `names` of library function
    `fn`: each typed as, and defaulting to, the parameter's default."""
    parameters = inspect.signature(fn).parameters
    return {name: _option(parameters[name].default) for name in names}


def _config(cls, fields, cfg):
    """The `cls` config of the resolved settings `cfg`, validated: each
    field of `fields` (config key -> field) that `cfg` holds; the others
    keep their defaults."""
    return cls(**{name: cfg[key] for key, name in fields.items()
                  if key in cfg}).validate()


# Config keys of the settings of both embedding trainers (cbow has no
# report_every), and of the classifier's.
_PRETRAIN_FIELDS = {"d": "dim", "c": "window", "k": "negatives",
                    "alpha": "alpha", "t": "subsample", "epochs": "epochs",
                    "seed": "seed", "report_every": "report_every"}
_SUPERVISED_FIELDS = {key: key for key in (
    "eta", "l2", "epochs", "dropout", "fine_tune", "seed")}

# Every setting of every subcommand: config key -> (type, default).  Each
# key is also the flag ``--key``, with ``_`` written as ``-``.  A flag
# overrides the config file, which overrides the default; flag and file
# values go through the same type.  Defaults a config class or a library
# function's keyword parameter declares are read from there.
_PRETRAIN_OPTIONS = _options(et.PretrainConfig(), _PRETRAIN_FIELDS)
_TRAIN_OPTIONS = {
    **_options(cl.SupervisedConfig(), _SUPERVISED_FIELDS),
    "m_out": (int, 5),
    "features": (str, FeatureOptions().flags()),
    "d": _PRETRAIN_OPTIONS["d"],
    "c": _PRETRAIN_OPTIONS["c"],
}
# cv searches the grid of these train settings, each given as a list.
_GRID = ("eta", "l2", "epochs", "m_out", "dropout")

OPTIONS = {
    "build-vocab": {
        "max_words": (int, 300_000),
        "max_nouns": (int, 300_000),
        **_keyword_options(cp.build_vocabulary, "lowercase"),
    },
    # contexts are extracted as wide as the classifier trims them by default
    "extract": {"m_out": _TRAIN_OPTIONS["m_out"],
                **_keyword_options(cp.extract_noun_pair_contexts,
                                   "max_between")},
    "pretrain": _PRETRAIN_OPTIONS,
    "cbow": {key: option for key, option in _PRETRAIN_OPTIONS.items()
             if key != "report_every"},
    "train": _TRAIN_OPTIONS,
    "cv": {**_TRAIN_OPTIONS,
           **_keyword_options(cl.cross_validate, "folds", "seed"),
           **{key: (_list_of(_TRAIN_OPTIONS[key][0]), [_TRAIN_OPTIONS[key][1]])
              for key in _GRID}},
    "eval": {"bootstrap": (int, 0),
             **_keyword_options(ev.bootstrap_ci, "level", "seed")},
    "ngrams": {"n": (_list_of(int), [1, 3]), "top": (int, 5)},
}


def _require_files(*paths):
    for p in filter(None, paths):
        if not os.path.exists(p):
            raise ConfigError(f"input path does not exist: {p}")
        if os.path.isdir(p):
            raise ConfigError(f"input path is a directory: {p}")


def _instances(path, vocab):
    """The :class:`~relemb.corpus.LabelledContexts` of SemEval file `path`,
    of which there must be at least one."""
    instances = cp.parse_semeval(path, vocab, PARSE_M_OUT)
    if not instances:
        raise cp.ArtifactError(f"{path}: no labelled instances")
    return instances


def _read_config_file(path, options):
    """The ``key = value`` lines of `path`, each value through its key's
    type in `options`."""
    _require_files(path)
    values = {}
    with cp.reading_utf8(path), open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, text = (part.strip() for part in line.partition("="))
            if not eq:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            if key not in options:
                raise ConfigError(f"{path}:{ln}: unknown config key {key!r}")
            try:
                values[key] = options[key][0](text)
            except ValueError:
                raise ConfigError(f"{path}:{ln}: bad value for config key "
                                  f"{key}: {text!r}") from None
    return values


def _given(args):
    """The settings given explicitly: config-file values, then flags."""
    options = OPTIONS[args.command]
    given = _read_config_file(args.config, options) if args.config else {}
    for key in options:
        if getattr(args, key) is not None:
            given[key] = getattr(args, key)
    return given


def _resolve(args):
    """The subcommand's settings: defaults, then config-file values, then
    explicit flags; the result is logged."""
    options = OPTIONS[args.command]
    resolved = {key: default for key, (_, default) in options.items()}
    resolved.update(_given(args))
    logger.info("resolved config: %s",
                " ".join(f"{k}={v}" for k, v in sorted(resolved.items())))
    return resolved


# --- subcommands -------------------------------------------------------------

def cmd_build_vocab(args):
    cfg = _resolve(args)
    _require_files(*args.corpus)
    corpus = cp.TaggedCorpusReader(*args.corpus)
    vocab = cp.build_vocabulary(corpus, cfg["max_words"], cfg["max_nouns"],
                                cfg["lowercase"])
    vocab.save(args.out)
    print(f"sentences: {corpus.sentences_read}")
    print(f"tokens: {vocab.total_token_count}")
    print(f"noun tokens: {vocab.total_noun_count}")
    print(f"word inventory: {vocab.n_words} (incl NULL, UNK)")
    print(f"noun inventory: {vocab.n_nouns} (incl UNK)")
    print(f"skipped lines: {corpus.skipped_lines}")
    return 0


def cmd_extract(args):
    cfg = _resolve(args)
    cp.check_extract_settings(cfg["m_out"], cfg["max_between"])
    _require_files(*args.corpus, args.vocab)
    vocab = cp.Vocabulary.load(args.vocab)
    corpus = cp.TaggedCorpusReader(*args.corpus)
    targets = 0

    def contexts():
        nonlocal targets
        for block in corpus.blocks():
            arrays = cp.extract_noun_pair_contexts(
                block, vocab, cfg["m_out"], cfg["max_between"])
            targets += int(arrays.offsets[-1])
            yield arrays

    n_pairs = cp.write_contexts(contexts(), cfg["m_out"], args.out)
    print(f"sentences: {corpus.sentences_read}")
    print(f"pairs: {n_pairs}")
    print(f"targets: {targets}")
    print(f"skipped lines: {corpus.skipped_lines}")
    return 0


def cmd_pretrain(args):
    cfg = _resolve(args)
    _require_files(args.contexts, args.vocab)
    vocab = cp.Vocabulary.load(args.vocab)
    config = _config(et.PretrainConfig, _PRETRAIN_FIELDS, cfg)
    params, log = et.train_embeddings(cp.ContextFile(args.contexts).arrays,
                                      vocab, config)
    et.save_model(params, args.out)
    print(f"targets seen: {log.targets_seen}")
    print(f"updates: {log.steps_taken}")
    print(f"pairs discarded: {log.pairs_discarded}")
    print(f"model: {args.out}")
    return 0


def cmd_cbow(args):
    cfg = _resolve(args)
    _require_files(*args.corpus, args.vocab)
    vocab = cp.Vocabulary.load(args.vocab)
    corpus = cp.TaggedCorpusReader(*args.corpus)
    config = _config(et.PretrainConfig, _PRETRAIN_FIELDS, cfg)
    params, log = cb.train_cbow(corpus, vocab, config)
    et.save_model(params, args.out)
    print(f"tokens seen: {log.targets_seen}")
    print(f"updates: {log.steps_taken}")
    print(f"skipped lines: {corpus.skipped_lines}")
    print(f"model: {args.out}")
    return 0


def _load_embeddings(args, cfg, vocab):
    """Pretrained model file or random initialization.  A `d` or `c` given
    explicitly (flag or config key) must match the model file's."""
    if args.model and args.init:
        raise ConfigError(f"--model {args.model} and --init {args.init} "
                          f"both give the embeddings: give one")
    if args.model:
        _require_files(args.model)
        params = et.load_model(args.model)
        given = _given(args)
        for key, value in (("d", params.dim), ("c", params.window)):
            if key in given and given[key] != value:
                raise ConfigError(f"{args.model}: the model has {key}={value}"
                                  f", but {key}={given[key]} was given")
        return params
    if args.init == "rand":
        rng = np.random.default_rng(cfg["seed"])
        return et.initial_params(vocab.n_nouns, vocab.n_words,
                                 cfg["d"], cfg["c"], rng)
    raise ConfigError("provide --model FILE or --init rand")


def _feature_options(features, m_out):
    """The blocks named by `features`, with outside windows `m_out` wide;
    the width is set by `m_out` alone, never by `features`."""
    if m_out > PARSE_M_OUT:
        raise ConfigError(f"m_out must be <= {PARSE_M_OUT}")
    opts = FeatureOptions.from_flags(features)
    if opts.m_out is not None:
        raise ConfigError(f"features {features!r} sets m_out; give the "
                          f"outside window width with --m-out instead")
    return dataclasses.replace(opts, m_out=m_out).validate()


def cmd_train(args):
    cfg = _resolve(args)
    opts = _feature_options(cfg["features"], cfg["m_out"])
    config = _config(cl.SupervisedConfig, _SUPERVISED_FIELDS, cfg)
    _require_files(args.train, args.vocab)
    vocab = cp.Vocabulary.load(args.vocab)
    instances = _instances(args.train, vocab)
    params = _load_embeddings(args, cfg, vocab)
    softmax, tuned, log = cl.train_classifier(instances, params, config, opts)
    cl.save_classifier(softmax, opts, args.out)
    if args.out_model:
        et.save_model(tuned, args.out_model)
    print(f"instances: {len(instances)}")
    print(f"final mean log-likelihood: {log.epoch_objective[-1]:.4f}")
    print(f"classifier: {args.out}")
    return 0


def cmd_cv(args):
    cfg = _resolve(args)
    settings = []
    for values in itertools.product(*(cfg[key] for key in _GRID)):
        point = {**cfg, **dict(zip(_GRID, values))}
        name = (f"eta={point['eta']} l2={point['l2']} "
                f"epochs={point['epochs']} m_out={point['m_out']} "
                f"dropout={int(point['dropout'])}")
        config = _config(cl.SupervisedConfig, _SUPERVISED_FIELDS, point)
        settings.append((name, config,
                         _feature_options(cfg["features"], point["m_out"])))
    _require_files(args.train, args.vocab)
    vocab = cp.Vocabulary.load(args.vocab)
    instances = _instances(args.train, vocab)
    params = _load_embeddings(args, cfg, vocab)
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
    dimension, and the classifier to trim no wider than labelled data is
    parsed: ``(embed_params, softmax_params, feature_options)``."""
    params = et.load_model(args.model)
    softmax, opts = cl.load_classifier(args.clf)
    if opts.m_out is not None and opts.m_out > PARSE_M_OUT:
        raise cp.ArtifactError(
            f"{args.clf}: m_out={opts.m_out} exceeds the outside window of "
            f"{PARSE_M_OUT} that labelled data is parsed with")
    expected = feature_dim(params, opts)
    if expected != softmax.weights.shape[1]:
        raise cp.ArtifactError(
            f"{args.clf}: dimension mismatch: the classifier expects dim "
            f"{softmax.weights.shape[1]}, model {args.model} gives features "
            f"of dim {expected}")
    return params, softmax, opts


def cmd_eval(args):
    cfg = _resolve(args)
    _require_files(args.test, args.vocab, args.model, args.clf)
    vocab = cp.Vocabulary.load(args.vocab)
    params, softmax, opts = _load_model_and_classifier(args)
    instances = _instances(args.test, vocab)
    pred = cl.predict_many(instances.contexts, softmax, params, opts)
    report = ev.score_semeval(instances.labels, pred)
    if cfg["bootstrap"]:
        lo, hi = ev.bootstrap_ci(instances.labels, pred, cfg["bootstrap"],
                                 cfg["level"], cfg["seed"])
        report.bootstrap = (lo, hi, cfg["level"])
    print(ev.format_report(report))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(ev.report_kv(report) + "\n")
    if args.pred:
        ev.write_predictions(instances.ids.tolist(), pred, args.pred)
    return 0


def cmd_ngrams(args):
    cfg = _resolve(args)
    _require_files(args.train, args.vocab, args.model, args.clf)
    vocab = cp.Vocabulary.load(args.vocab)
    params, softmax, opts = _load_model_and_classifier(args)
    instances = _instances(args.train, vocab)
    for label in args.label or range(cp.OTHER):
        print(f"== {cp.ALL_LABELS[label]}")
        for n in cfg["n"]:
            ranked = ev.top_ngrams(softmax, params, opts, instances.contexts,
                                   label, n, cfg["top"], vocab=vocab)
            for words, score in ranked:
                print(f"  {n}-gram  {' '.join(words):<40} {score:9.4f}")
    return 0


# --- parser ------------------------------------------------------------------

_REQUIRED = {"required": True}
_INPUTS = {"nargs": "+", "required": True}
_EMBED_SOURCE = {"model": {}, "init": {"choices": ("rand",)}}

# Each subcommand's function, help line, and the arguments that are not
# settings (file paths, the embedding source, ngrams' labels) with their
# ``add_argument`` keywords.
COMMANDS = {
    "build-vocab": (cmd_build_vocab, "count a tagged corpus",
                    {"corpus": _INPUTS, "out": _REQUIRED}),
    "extract": (cmd_extract, "extract noun-pair contexts",
                {"corpus": _INPUTS, "vocab": _REQUIRED, "out": _REQUIRED}),
    "pretrain": (cmd_pretrain, "train noun-pair embeddings",
                 {"contexts": _REQUIRED, "vocab": _REQUIRED, "out": _REQUIRED}),
    "cbow": (cmd_cbow, "train the CBOW baseline embeddings",
             {"corpus": _INPUTS, "vocab": _REQUIRED, "out": _REQUIRED}),
    "train": (cmd_train, "train the relation classifier",
              {"train": _REQUIRED, "vocab": _REQUIRED, "out": _REQUIRED,
               "out_model": {}, **_EMBED_SOURCE}),
    "cv": (cmd_cv, "cross-validate a hyperparameter grid",
           {"train": _REQUIRED, "vocab": _REQUIRED, **_EMBED_SOURCE}),
    "eval": (cmd_eval, "score a labeled test file",
             {"test": _REQUIRED, "vocab": _REQUIRED, "model": _REQUIRED,
              "clf": _REQUIRED, "pred": {}, "report": {}}),
    "ngrams": (cmd_ngrams, "top n-grams per relation class",
               {"train": _REQUIRED, "vocab": _REQUIRED, "model": _REQUIRED,
                "clf": _REQUIRED,
                "label": {"action": "append", "type": cp.parse_label}}),
}


def _flag(key):
    return "--" + key.replace("_", "-")


def build_parser(command=None):
    """The ``relemb`` argument parser.  It holds only the subparser of
    `command` when that names a subcommand, which is all that parsing a
    command line that starts with it needs; otherwise (no command, an
    option such as ``--help``, an unknown name) every subparser, so that
    help lists every subcommand and an unknown one is rejected.  The usage
    line names every subcommand either way."""
    parser = argparse.ArgumentParser(
        prog="relemb",
        description="relation-classification embeddings: pretraining, "
                    "classification, and evaluation")
    one = command in COMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(COMMANDS) + "}" if one else None)
    for name in [command] if one else COMMANDS:
        func, help_line, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key = value configuration file")
        for key, kwargs in arguments.items():
            p.add_argument(_flag(key), **kwargs)
        for key, (typ, _) in OPTIONS[name].items():
            p.add_argument(_flag(key), type=typ)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO,
                        format="[%(asctime)s] %(levelname)s %(message)s")
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, cp.ArtifactError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
