"""Span timing for the traced benchmark run.

The tracer wraps public ``relemb`` functions from the outside, at the name
their caller looks up at call time, and aggregates per span name: calls,
inclusive time, time spent in nested wrapped spans, and items yielded (for
iterators).  Self time is inclusive time minus nested time.  Nothing under
``src/`` is modified; `install` only rebinds module and class attributes in
the process that runs the traced chain.
"""

from __future__ import annotations

import functools
import importlib
import time


class Stat:
    __slots__ = ("calls", "total", "child", "items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.items = 0

    @property
    def self_time(self):
        return self.total - self.child

    def as_dict(self):
        return {"calls": self.calls, "total": self.total,
                "self": self.self_time, "items": self.items}


class Tracer:
    """Nested span timer; `clock` is injectable so tests need no timing."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, float] = {}
        # One cell per open span, accumulating the time of its children.
        self._stack: list[list[float]] = []

    def stat(self, name):
        return self.stats.setdefault(name, Stat())

    def _enter(self):
        cell = [0.0]
        self._stack.append(cell)
        return cell, self.clock()

    def _leave(self, stat, cell, t0):
        dt = self.clock() - t0
        self._stack.pop()
        stat.total += dt
        stat.child += cell[0]
        if self._stack:
            self._stack[-1][0] += dt

    def wrap(self, name, fn, observe=None):
        """Time every call of `fn` as span `name`; `observe(tracer, args,
        kwargs, result)` reads counts from the arguments and result."""
        stat = self.stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            cell, t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(stat, cell, t0)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def wrap_iter(self, name, iter_method):
        """Wrap an ``__iter__`` method: each pass counts as a call and each
        ``next`` as a span, so the consumer's self time excludes the
        producer's work."""
        stat = self.stat(name)
        tracer = self

        class _Timed:
            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                cell, t0 = tracer._enter()
                try:
                    item = next(self.inner)
                finally:
                    tracer._leave(stat, cell, t0)
                stat.items += 1
                return item

        @functools.wraps(iter_method)
        def __iter__(obj):
            stat.calls += 1
            return _Timed(iter_method(obj))

        return __iter__

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def set(self, key, value):
        self.counts[key] = value

    def dump(self):
        return {"stats": {k: s.as_dict() for k, s in self.stats.items()},
                "counts": dict(self.counts)}


# --- what the traced run wraps -----------------------------------------------

def _pairs(tr, args, kwargs, result):
    tr.add("corpus.pairs", len(result))


def _instances_parsed(tr, args, kwargs, result):
    tr.add("corpus.parse_semeval.instances", len(result))


def _pretrain_log(tr, args, kwargs, result):
    log = result[1]
    tr.add("embed_train.targets_seen", log.targets_seen)
    tr.add("embed_train.steps", log.steps_taken)
    tr.add("embed_train.pairs_discarded", log.pairs_discarded)
    tr.add("embed_train.targets_discarded", log.targets_discarded)


def _cbow_log(tr, args, kwargs, result):
    log = result[1]
    tr.add("cbow_baseline.tokens_seen", log.targets_seen)
    tr.add("cbow_baseline.steps", log.steps_taken)


def _feature_dim(tr, args, kwargs, result):
    tr.set("features.feature_dim", result)


def _final_objective(tr, args, kwargs, result):
    tr.set("classifier.final_objective", result[2].epoch_objective[-1])


def _predicted(tr, args, kwargs, result):
    tr.add("classifier.predict_many.instances", len(result))


def _bootstrap_iterations(tr, args, kwargs, result):
    iterations = args[2] if len(args) > 2 else kwargs.get("iterations", 1000)
    tr.add("evaluation.bootstrap_ci.iterations", iterations)


# (module, class or None, attribute, span name, observer).  The module is the
# one whose namespace the caller reads: the CLI calls ``cp.build_vocabulary``
# and friends through module attributes, while ``classifier`` imports
# ``assemble_features`` and the other feature functions by name.  Calls that
# cost about a microsecond (``should_discard``, ``pair_discard``) stay
# unwrapped and fold into their caller's self time.
FUNCTIONS = [
    ("relemb.corpus", None, "build_vocabulary", "corpus.build_vocabulary", None),
    ("relemb.corpus", None, "extract_noun_pair_contexts",
     "corpus.extract_noun_pair_contexts", _pairs),
    ("relemb.corpus", None, "write_contexts", "corpus.write_contexts", None),
    ("relemb.corpus", None, "parse_semeval", "corpus.parse_semeval",
     _instances_parsed),
    ("relemb.embed_train", None, "train_embeddings",
     "embed_train.train_embeddings", _pretrain_log),
    ("relemb.embed_train", None, "pretrain_step", "embed_train.pretrain_step",
     None),
    ("relemb.embed_train", None, "pretrain_objective_and_grad",
     "embed_train.pretrain_objective_and_grad", None),
    ("relemb.embed_train", None, "build_feature_vector",
     "embed_train.build_feature_vector", None),
    ("relemb.embed_train", None, "apply_row_grads",
     "embed_train.apply_row_grads", None),
    ("relemb.embed_train", "NoiseSampler", "sample",
     "embed_train.NoiseSampler.sample", None),
    ("relemb.embed_train", None, "save_model", "embed_train.save_model", None),
    ("relemb.embed_train", None, "load_model", "embed_train.load_model", None),
    ("relemb.cbow_baseline", None, "train_cbow", "cbow_baseline.train_cbow",
     _cbow_log),
    ("relemb.classifier", None, "assemble_features",
     "features.assemble_features", None),
    ("relemb.classifier", None, "scatter_feature_grad",
     "features.scatter_feature_grad", None),
    ("relemb.classifier", None, "feature_dim", "features.feature_dim",
     _feature_dim),
    ("relemb.classifier", None, "train_classifier",
     "classifier.train_classifier", _final_objective),
    ("relemb.classifier", None, "adagrad_update", "classifier.adagrad_update",
     None),
    ("relemb.classifier", None, "apply_dropout", "classifier.apply_dropout",
     None),
    ("relemb.classifier", None, "predict_many", "classifier.predict_many",
     _predicted),
    ("relemb.evaluation", None, "score_semeval", "evaluation.score_semeval",
     None),
    ("relemb.evaluation", None, "bootstrap_ci", "evaluation.bootstrap_ci",
     _bootstrap_iterations),
]

# Iterators whose passes and items are counted: the tagged-corpus reader and
# the extracted-context file.
ITERATORS = [
    ("relemb.corpus", "TaggedCorpusReader", "corpus.parse_tagged"),
    ("relemb.corpus", "ContextFile", "corpus.ContextFile"),
]

# ``Vocabulary.load`` is a classmethod; the CLI calls it on the class.
CLASSMETHODS = [
    ("relemb.corpus", "Vocabulary", "load", "corpus.Vocabulary.load"),
]


def install(tracer):
    """Rebind every traced name in the current process to its wrapper.

    Returns the names not found, whose metrics then read 0, so a change
    that removes or renames a function still gets a traced run."""
    missing = []

    def owner_of(module_name, cls_name, attr):
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{cls_name + '.' if cls_name else ''}"
                           f"{attr}")
            return None
        return owner

    for module_name, cls_name, attr, name, observe in FUNCTIONS:
        owner = owner_of(module_name, cls_name, attr)
        if owner is not None:
            setattr(owner, attr,
                    tracer.wrap(name, getattr(owner, attr), observe))
    for module_name, cls_name, name in ITERATORS:
        cls = owner_of(module_name, cls_name, "__iter__")
        if cls is not None:
            cls.__iter__ = tracer.wrap_iter(name, cls.__iter__)
    for module_name, cls_name, attr, name in CLASSMETHODS:
        cls = owner_of(module_name, cls_name, attr)
        if cls is not None:
            func = cls.__dict__[attr].__func__
            setattr(cls, attr, classmethod(tracer.wrap(name, func)))
    return missing
