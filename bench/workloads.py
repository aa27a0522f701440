"""The benchmark's workloads: generator sizes, CLI flags and output floors.

Each workload is a seeded ``relemb.synthetic.make_synthetic_data`` input and
the CLI chain ``build-vocab -> extract -> pretrain [-> cbow] -> train ->
eval``.  The benchmark seed selects the generated inputs only; the program
keeps its own default seeds.  Only the flags listed here are passed, so a
later change to a CLI default (threads, for example) is measured by the same
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# Each synthetic sentence holds one noun pair with a planted trigram between.
TARGETS_PER_PAIR = 3
N_CLASSES = 4           # labelled classes the default synthetic patterns plant
PRETRAIN_DIM, PRETRAIN_WINDOW, PRETRAIN_NEGATIVES = 100, 3, 25


@dataclass(frozen=True)
class Workload:
    name: str
    n_pretrain: int                 # synthetic pretraining sentences
    train_per_class: int
    test_per_class: int
    macro_f1_floor: float           # percent; set below every seed seen
    pretrain_flags: tuple = ()
    train_flags: tuple = ()
    eval_flags: tuple = ()
    cbow: bool = False
    tiny: dict = field(default_factory=dict)   # overrides for --size tiny

    def _train_flag(self, flag, default):
        flags = list(self.train_flags)
        return flags[flags.index(flag) + 1] if flag in flags else default

    @property
    def epochs(self):
        return int(self._train_flag("--epochs", "20"))    # CLI default

    @property
    def fine_tune(self):
        return self._train_flag("--fine-tune", "1") != "0"  # CLI default

    def generator_args(self, seed):
        return {"n_pretrain": self.n_pretrain,
                "n_train_per_class": self.train_per_class,
                "n_test_per_class": self.test_per_class,
                "seed": seed}

    @property
    def n_train(self):
        return self.train_per_class * N_CLASSES

    @property
    def n_test(self):
        return self.test_per_class * N_CLASSES

    def stages(self, inputs, out):
        """``[(stage, argv), ...]`` with inputs read from directory `inputs`
        and outputs written under directory `out`."""
        corpus, vocab = f"{inputs}/corpus.tag", f"{out}/vocab.txt"
        model = f"{out}/model.bin"
        clf_model = f"{out}/tuned.bin" if self.fine_tune else model
        stages = [
            ("build_vocab", ["build-vocab", "--corpus", corpus, "--out", vocab]),
            ("extract", ["extract", "--corpus", corpus, "--vocab", vocab,
                         "--out", f"{out}/contexts.txt"]),
            ("pretrain", ["pretrain", "--contexts", f"{out}/contexts.txt",
                          "--vocab", vocab, "--out", model,
                          "--d", str(PRETRAIN_DIM), "--c", str(PRETRAIN_WINDOW),
                          "--k", str(PRETRAIN_NEGATIVES),
                          *self.pretrain_flags]),
        ]
        if self.cbow:
            stages.append(("cbow", ["cbow", "--corpus", corpus, "--vocab", vocab,
                                    "--out", f"{out}/cbow.bin"]))
        train = ["train", "--train", f"{inputs}/train.txt", "--vocab", vocab,
                 "--model", model, "--out", f"{out}/clf.bin"]
        if self.fine_tune:
            train += ["--out-model", clf_model]
        stages.append(("train", train + list(self.train_flags)))
        stages.append(("eval", ["eval", "--test", f"{inputs}/test.txt",
                                "--vocab", vocab, "--model", clf_model,
                                "--clf", f"{out}/clf.bin",
                                "--report", f"{out}/report.txt",
                                "--pred", f"{out}/pred.txt",
                                *self.eval_flags]))
        return stages

    def sized(self, size):
        """This workload at `size` ``full`` or ``tiny`` (smoke tests)."""
        if size == "full":
            return self
        if size == "tiny":
            return replace(self, **self.tiny)
        raise ValueError(f"unknown size {size!r}")


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {w.name: w for w in [
    Workload(
        name="pretrain",
        n_pretrain=3000, train_per_class=25, test_per_class=200,
        macro_f1_floor=75.0,
        pretrain_flags=("--t", "1"),
        tiny={"n_pretrain": 200, "train_per_class": 10, "test_per_class": 10,
              "macro_f1_floor": 40.0, "train_flags": ("--epochs", "2")}),
    Workload(
        name="ingest",
        n_pretrain=20000, train_per_class=50, test_per_class=400,
        macro_f1_floor=75.0,
        train_flags=("--fine-tune", "0"),
        eval_flags=("--bootstrap", "1000"),
        cbow=True,
        tiny={"n_pretrain": 300, "train_per_class": 10, "test_per_class": 20,
              "macro_f1_floor": 30.0, "eval_flags": ("--bootstrap", "100")}),
]}
