import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from relemb import cli
from relemb.synthetic import make_synthetic_data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic corpus plus a trained pipeline laid out as files."""
    root = tmp_path_factory.mktemp("cli")
    data = make_synthetic_data(n_pretrain=1500, n_train_per_class=30,
                               n_test_per_class=10, noise_rate=0.0, seed=21)
    (root / "corpus.tagged").write_text(data.tagged_text)
    (root / "train.txt").write_text(data.train_text)
    (root / "test.txt").write_text(data.test_text)

    assert cli.main(["build-vocab", "--corpus", str(root / "corpus.tagged"),
                     "--out", str(root / "vocab.txt")]) == 0
    assert cli.main(["extract", "--corpus", str(root / "corpus.tagged"),
                     "--vocab", str(root / "vocab.txt"),
                     "--out", str(root / "contexts.txt"),
                     "--m-out", "3"]) == 0
    assert cli.main(["pretrain", "--contexts", str(root / "contexts.txt"),
                     "--vocab", str(root / "vocab.txt"),
                     "--out", str(root / "model.bin"),
                     "--d", "12", "--c", "2", "--k", "5", "--alpha", "0.06",
                     "--t", "1", "--epochs", "2", "--seed", "5",
                     "--report-every", "2000"]) == 0
    assert cli.main(["train", "--train", str(root / "train.txt"),
                     "--vocab", str(root / "vocab.txt"),
                     "--model", str(root / "model.bin"),
                     "--out", str(root / "clf.bin"),
                     "--out-model", str(root / "tuned.bin"),
                     "--eta", "0.1", "--l2", "0.0001", "--epochs", "25",
                     "--m-out", "3", "--seed", "2"]) == 0
    return root


class TestPipeline:
    def test_build_vocab_prints_counts(self, workdir, capsys):
        cli.main(["build-vocab", "--corpus", str(workdir / "corpus.tagged"),
                  "--out", str(workdir / "vocab2.txt")])
        out = capsys.readouterr().out
        assert "sentences: 1500" in out
        assert "skipped lines: 0" in out

    def test_extract_prints_pairs_and_targets(self, workdir, capsys):
        cli.main(["extract", "--corpus", str(workdir / "corpus.tagged"),
                  "--vocab", str(workdir / "vocab.txt"),
                  "--out", str(workdir / "contexts2.txt"), "--m-out", "3"])
        out = capsys.readouterr().out
        assert "pairs: 1500" in out       # one noun pair per synthetic sentence
        assert "targets: 4500" in out

    def test_eval_reports_scores(self, workdir, capsys):
        code = cli.main(["eval", "--test", str(workdir / "test.txt"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--model", str(workdir / "tuned.bin"),
                         "--clf", str(workdir / "clf.bin"),
                         "--pred", str(workdir / "pred.txt"),
                         "--report", str(workdir / "report.txt"),
                         "--bootstrap", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "official macro-F1" in out
        kv = (workdir / "report.txt").read_text()
        macro = float([ln for ln in kv.splitlines()
                       if ln.startswith("macro_f1=")][0].split("=")[1])
        assert macro >= 95.0
        pred_lines = (workdir / "pred.txt").read_text().splitlines()
        assert len(pred_lines) == 40
        assert "\t" in pred_lines[0]

    def test_eval_on_training_data_near_perfect(self, workdir, capsys):
        code = cli.main(["eval", "--test", str(workdir / "train.txt"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--model", str(workdir / "tuned.bin"),
                         "--clf", str(workdir / "clf.bin")])
        assert code == 0
        out = capsys.readouterr().out
        macro = float([ln for ln in out.splitlines()
                       if "official macro-F1" in ln][0].split(":")[1])
        assert macro == 100.0

    def test_wordsim_command(self, workdir, capsys):
        pairs = workdir / "pairs.csv"
        pairs.write_text("word1,word2,score\nnoun01,noun02,5.0\n"
                         "noun03,noun04,3.0\nsoon,often,1.0\n")
        code = cli.main(["wordsim", "--pairs", str(pairs),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--model", str(workdir / "model.bin"),
                         "--matrix", "word"])
        assert code == 0
        out = capsys.readouterr().out
        assert "spearman rho:" in out
        assert "pairs: 3" in out

    def test_ngrams_command_lists_planted_trigram(self, workdir, capsys):
        code = cli.main(["ngrams", "--train", str(workdir / "train.txt"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--model", str(workdir / "tuned.bin"),
                         "--clf", str(workdir / "clf.bin"),
                         "--label", "Cause-Effect(e1,e2)", "--n", "1,3",
                         "--top", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== Cause-Effect(e1,e2)" in out
        assert "3-gram" in out and "1-gram" in out
        three_gram_lines = [l for l in out.splitlines() if "3-gram" in l]
        assert any("was caused by" in l for l in three_gram_lines)

    def test_cv_command_grid(self, workdir, capsys):
        code = cli.main(["cv", "--train", str(workdir / "train.txt"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--model", str(workdir / "model.bin"),
                         "--folds", "2", "--eta", "0.1", "--l2", "0,0.001",
                         "--epochs", "8", "--m-out", "3", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l.startswith("eta=")]
        assert len(rows) == 2            # two l2 values
        assert "best:" in out

    def test_cbow_command(self, workdir, capsys):
        code = cli.main(["cbow", "--corpus", str(workdir / "corpus.tagged"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--out", str(workdir / "cbow.bin"),
                         "--export-text", str(workdir / "cbow"),
                         "--d", "8", "--c", "2", "--k", "4", "--t", "1",
                         "--epochs", "1", "--seed", "4"])
        assert code == 0
        assert (workdir / "cbow.in.txt").exists()
        assert (workdir / "cbow.out.txt").exists()
        # imported-vector initialization path
        code = cli.main(["train", "--train", str(workdir / "train.txt"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--init", "w2v",
                         "--vectors-in", str(workdir / "cbow.in.txt"),
                         "--vectors-out", str(workdir / "cbow.out.txt"),
                         "--c", "2",
                         "--out", str(workdir / "clf_w2v.bin"),
                         "--epochs", "5", "--m-out", "3"])
        assert code == 0

    def test_rand_init_training(self, workdir):
        code = cli.main(["train", "--train", str(workdir / "train.txt"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--init", "rand", "--d", "10", "--c", "2",
                         "--out", str(workdir / "clf_rand.bin"),
                         "--epochs", "5", "--m-out", "3", "--seed", "9"])
        assert code == 0


class TestDeterminismAndConfig:
    def test_pretrain_identical_with_same_seed(self, workdir):
        args = ["pretrain", "--contexts", str(workdir / "contexts.txt"),
                "--vocab", str(workdir / "vocab.txt"),
                "--d", "6", "--c", "1", "--k", "3", "--t", "1",
                "--epochs", "1", "--seed", "7"]
        cli.main(args + ["--out", str(workdir / "m1.bin")])
        cli.main(args + ["--out", str(workdir / "m2.bin")])
        assert (workdir / "m1.bin").read_bytes() == (workdir / "m2.bin").read_bytes()

    def test_config_file_and_flag_override(self, workdir, caplog):
        cfg = workdir / "pretrain.cfg"
        cfg.write_text("d = 6\nc = 1\nk = 3\nt = 1\nepochs = 1\nseed = 7\n")
        with caplog.at_level(logging.INFO, logger="relemb"):
            code = cli.main(["pretrain", "--config", str(cfg),
                             "--contexts", str(workdir / "contexts.txt"),
                             "--vocab", str(workdir / "vocab.txt"),
                             "--out", str(workdir / "m3.bin"),
                             "--seed", "8"])
        assert code == 0
        resolved = [r.message for r in caplog.records
                    if "resolved config" in r.message]
        assert resolved and "seed=8" in resolved[0] and "d=6" in resolved[0]
        # same settings as m1/m2 except the seed, so bytes must differ
        assert (workdir / "m3.bin").read_bytes() != (workdir / "m1.bin").read_bytes()

    def test_unknown_config_key_rejected(self, workdir):
        cfg = workdir / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        code = cli.main(["pretrain", "--config", str(cfg),
                        "--contexts", str(workdir / "contexts.txt"),
                        "--vocab", str(workdir / "vocab.txt"),
                        "--out", str(workdir / "m4.bin")])
        assert code == 2

    def test_config_round_trip_reproduces_output(self, workdir):
        cfg = workdir / "full.cfg"
        cfg.write_text("d = 6\nc = 1\nk = 3\nalpha = 0.025\nt = 1\n"
                       "epochs = 1\nseed = 7\n"
                       "report_every = 100000\n")
        code = cli.main(["pretrain", "--config", str(cfg),
                         "--contexts", str(workdir / "contexts.txt"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--out", str(workdir / "m5.bin")])
        assert code == 0
        assert (workdir / "m5.bin").read_bytes() == (workdir / "m1.bin").read_bytes()


class TestExitCodes:
    def test_missing_input_path_exit_2(self, workdir):
        assert cli.main(["extract", "--corpus", str(workdir / "nope.tagged"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--out", str(workdir / "x.txt")]) == 2

    def test_zero_epochs_rejected_exit_2(self, workdir):
        assert cli.main(["pretrain", "--contexts", str(workdir / "contexts.txt"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--out", str(workdir / "x.bin"),
                         "--epochs", "0"]) == 2

    def test_usage_error_exit_2(self):
        assert cli.main(["no-such-command"]) == 2
        assert cli.main(["pretrain"]) == 2   # missing required args

    def test_truncated_model_exit_2(self, workdir, capsys):
        bad = workdir / "truncated.bin"
        bad.write_bytes((workdir / "tuned.bin").read_bytes()[:-8])
        code = cli.main(["eval", "--test", str(workdir / "test.txt"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--model", str(bad),
                         "--clf", str(workdir / "clf.bin")])
        assert code == 2
        assert str(bad) in capsys.readouterr().err

    def test_bad_classifier_opts_exit_2(self, workdir, capsys):
        bad = workdir / "bad_opts.bin"
        blob = (workdir / "clf.bin").read_bytes()
        assert b"opts=nouns," in blob
        bad.write_bytes(blob.replace(b"opts=nouns,", b"opts=nounz,", 1))
        code = cli.main(["eval", "--test", str(workdir / "test.txt"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--model", str(workdir / "tuned.bin"),
                         "--clf", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "nounz" in err

    def test_truncated_vocab_exit_2(self, workdir, capsys):
        bad = workdir / "truncated_vocab.txt"
        lines = (workdir / "vocab.txt").read_text().splitlines(True)
        bad.write_text("".join(lines[:-1]) + lines[-1].split("\t")[0])
        code = cli.main(["eval", "--test", str(workdir / "test.txt"),
                         "--vocab", str(bad),
                         "--model", str(workdir / "tuned.bin"),
                         "--clf", str(workdir / "clf.bin")])
        assert code == 2
        assert f"{bad}:{len(lines)}: " in capsys.readouterr().err

    def test_bad_context_line_exit_2(self, workdir, capsys):
        bad = workdir / "bad_contexts.txt"
        lines = (workdir / "contexts.txt").read_text().splitlines(True)
        bad.write_text("".join(lines[:5]) + "1 2\t3 -4\t0 0 0\t0 0 0\n")
        code = cli.main(["pretrain", "--contexts", str(bad),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--out", str(workdir / "never.bin"),
                         "--d", "4", "--c", "1", "--k", "2", "--t", "1"])
        assert code == 2
        assert f"{bad}:6: negative id" in capsys.readouterr().err
        assert not (workdir / "never.bin").exists()

    @pytest.mark.parametrize("command,data_flag", [("eval", "--test"),
                                                   ("ngrams", "--train")],
                             ids=["eval", "ngrams"])
    def test_dimension_mismatch_exit_1(self, workdir, capsys, command,
                                       data_flag):
        # classifier trained against the pretrained model, used with a
        # differently sized one
        cli.main(["pretrain", "--contexts", str(workdir / "contexts.txt"),
                  "--vocab", str(workdir / "vocab.txt"),
                  "--out", str(workdir / "small.bin"),
                  "--d", "4", "--c", "1", "--k", "2", "--t", "1",
                  "--epochs", "1"])
        code = cli.main([command, data_flag, str(workdir / "test.txt"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--model", str(workdir / "small.bin"),
                         "--clf", str(workdir / "clf.bin")])
        assert code == 1
        err = capsys.readouterr().err
        assert "dimension mismatch" in err
        assert "48" in err        # 4*4*(2+1): features of the small model
        assert "192" in err       # 4*12*(2+2): dim the classifier expects


def test_import_does_not_load_scipy():
    """A CLI process imports no scipy: the runtime does not use it, and
    importing it would cost most of each process's start-up time."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import relemb.cli; import sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
