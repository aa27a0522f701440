import argparse
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from relemb import cli
from relemb import corpus as cp
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

    @pytest.mark.parametrize("command", ["extract", "cbow"])
    def test_skipped_lines_reported(self, workdir, tmp_path, capsys, command):
        corpus = tmp_path / "corpus.tagged"
        lines = (workdir / "corpus.tagged").read_text().splitlines(True)
        corpus.write_text("".join(lines[:40]) + "no tab here\n"
                          + "".join(lines[40:400]))
        extra = (["--d", "4", "--c", "1", "--k", "2", "--t", "1"]
                 if command == "cbow" else [])
        code = cli.main([command, "--corpus", str(corpus),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--out", str(tmp_path / "out"), *extra])
        assert code == 0
        assert "skipped lines: 1\n" in capsys.readouterr().out

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
                         "--d", "8", "--c", "2", "--k", "4", "--t", "1",
                         "--epochs", "1", "--seed", "4"])
        assert code == 0
        # the CBOW baseline initialises the classifier from its model file
        code = cli.main(["train", "--train", str(workdir / "train.txt"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--model", str(workdir / "cbow.bin"),
                         "--out", str(workdir / "clf_cbow.bin"),
                         "--out-model", str(workdir / "tuned_cbow.bin"),
                         "--epochs", "5", "--m-out", "3"])
        assert code == 0
        code = cli.main(["eval", "--test", str(workdir / "test.txt"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--model", str(workdir / "tuned_cbow.bin"),
                         "--clf", str(workdir / "clf_cbow.bin")])
        assert code == 0
        assert "official macro-F1" in capsys.readouterr().out

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

    def test_usage_error_exit_2(self, workdir, tmp_path, capsys):
        assert cli.main(["no-such-command"]) == 2
        assert cli.main(["pretrain"]) == 2   # missing required args
        # two embedding sources
        model = str(workdir / "model.bin")
        for command, out in (("train", ["--out", str(tmp_path / "c.bin")]),
                             ("cv", [])):
            capsys.readouterr()
            assert cli.main([command, "--train", str(workdir / "train.txt"),
                             "--vocab", str(workdir / "vocab.txt"),
                             "--model", model, "--init", "rand", *out]) == 2
            err = capsys.readouterr().err
            assert f"--model {model}" in err and "--init rand" in err
        assert not (tmp_path / "c.bin").exists()

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

    @pytest.mark.parametrize("command,data_flag", [("eval", "--test"),
                                                   ("ngrams", "--train")],
                             ids=["eval", "ngrams"])
    def test_classifier_wider_than_parse_exit_2(self, workdir, tmp_path,
                                                capsys, monkeypatch, command,
                                                data_flag):
        """A classifier trimming the outside windows wider than labelled
        data is parsed exits 2, naming the file and the setting, before
        any instance is parsed."""
        bad = tmp_path / "wide.bin"
        blob = (workdir / "clf.bin").read_bytes()
        assert b",m_out=3 " in blob
        bad.write_bytes(blob.replace(b",m_out=3 ", b",m_out=12 ", 1))

        def parsed(*args):
            raise AssertionError("labelled data parsed")

        monkeypatch.setattr(cli, "_instances", parsed)
        code = cli.main([command, data_flag, str(workdir / "test.txt"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--model", str(workdir / "tuned.bin"),
                         "--clf", str(bad)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"{bad}: m_out=12 exceeds" in err

    # reader: (the pipeline file to corrupt, the command that reads it)
    _NON_FINITE = {
        "train": ("model.bin", ["train", "--train", "{w}/train.txt",
                                "--model", "{bad}", "--out", "{tmp}/clf.bin",
                                "--epochs", "1", "--m-out", "3"]),
        "eval": ("tuned.bin", ["eval", "--test", "{w}/test.txt",
                               "--model", "{bad}", "--clf", "{w}/clf.bin"]),
        "eval_clf": ("clf.bin", ["eval", "--test", "{w}/test.txt",
                                 "--model", "{w}/tuned.bin", "--clf",
                                 "{bad}"]),
        "ngrams": ("tuned.bin", ["ngrams", "--train", "{w}/train.txt",
                                 "--model", "{bad}", "--clf", "{w}/clf.bin"]),
    }

    @pytest.mark.parametrize("reader", list(_NON_FINITE))
    def test_non_finite_artifact_exit_2(self, workdir, tmp_path, capsys,
                                        reader):
        """A model with NaN noun vectors, or a classifier with an infinite
        weight, exits 2 naming the file, before anything is printed."""
        source, argv = self._NON_FINITE[reader]
        header, _, blob = (workdir / source).read_bytes().partition(b"\n")
        values = np.frombuffer(blob, dtype="<f4").copy()
        if source == "clf.bin":
            values[7] = np.inf
        else:   # noun_vecs lead the blob: n_nouns rows of d values
            kv = dict(t.split(b"=") for t in header.split()[2:])
            values[:int(kv[b"nnouns"]) * int(kv[b"d"])] = np.nan
        bad = tmp_path / f"bad-{source}"
        bad.write_bytes(header + b"\n" + values.tobytes())
        code = cli.main([arg.format(bad=bad, tmp=tmp_path, w=workdir)
                         for arg in argv]
                        + ["--vocab", str(workdir / "vocab.txt")])
        out, err = capsys.readouterr()
        assert code == 2, err
        assert f"{bad}: non-finite value" in err
        assert out == ""

    @pytest.mark.parametrize("stated", ["float64", None])
    @pytest.mark.parametrize("reader", ["train", "eval_clf"])
    def test_float64_artifact_exit_2(self, workdir, tmp_path, capsys, reader,
                                     stated):
        """A model or a classifier stored as float64, with its header
        stating so or, as written before headers stated an element type,
        stating none, exits 2 naming the file and what its header says."""
        source, argv = self._NON_FINITE[reader]
        header, _, blob = (workdir / source).read_bytes().partition(b"\n")
        tokens = header.decode().split()
        assert tokens[-1] == "dtype=float32"
        tokens[-1:] = [] if stated is None else [f"dtype={stated}"]
        bad = tmp_path / f"f8-{source}"
        bad.write_bytes(" ".join(tokens).encode() + b"\n"
                        + np.frombuffer(blob, "<f4").astype("<f8").tobytes())
        code = cli.main([arg.format(bad=bad, tmp=tmp_path, w=workdir)
                         for arg in argv]
                        + ["--vocab", str(workdir / "vocab.txt")])
        out, err = capsys.readouterr()
        assert code == 2, err
        assert (f"{bad}: header lacks dtype" if stated is None else
                f"{bad}: element type float64, expected float32") in err
        assert out == ""

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

    @pytest.mark.parametrize("case", ["clf_L25", "clf_L3", "model_dims_below_0",
                                      "model_d0", "vocab_repeated_word"])
    def test_bad_header_or_inventory_exit_2(self, workdir, tmp_path, capsys,
                                            case):
        """A classifier of other than 19 labels, a model header dimension
        below 1 and a vocabulary listing a word twice each exit 2, naming
        the file."""
        files = {key: workdir / name for key, name in (
            ("vocab", "vocab.txt"), ("model", "tuned.bin"),
            ("clf", "clf.bin"))}
        bad = tmp_path / "bad"
        header = files["clf"].read_bytes().split(b"\n", 1)[0].decode()
        dim = int(dict(t.split("=", 1) for t in header.split()[2:])["dim"])
        vocab = files["vocab"].read_text().splitlines(True)
        n_words, n_nouns = map(int, vocab[0].split()[2:4])
        if case.startswith("clf"):
            n = int(case[5:])
            bad.write_bytes(header.replace("L=19", f"L={n}").encode() + b"\n"
                            + bytes(4 * n * (dim + 1)))
            files["clf"], snippet = bad, f"L={n}"
        elif case == "model_dims_below_0":
            # the 45 float32s this header's shapes multiply out to
            bad.write_bytes(b"relemb-model v1 d=-2 c=1 nwords=-3 nnouns=-3 "
                            b"dtype=float32\n" + bytes(4 * 45))
            files["model"], snippet = bad, "d=-2"
        elif case == "model_d0":
            bad.write_bytes(f"relemb-model v1 d=0 c=1 nwords={n_words} "
                            f"nnouns={n_nouns} dtype=float32\n".encode()
                            + bytes(4 * n_words))
            files["model"], snippet = bad, "d=0"
        else:
            vocab[5] = vocab[4]          # word ids 3 and 4 share a surface
            bad.write_text("".join(vocab))
            files["vocab"], snippet = bad, f"{bad}:6: word"
        if case.startswith("model"):
            argv = ["train", "--train", str(workdir / "train.txt"),
                    "--out", str(tmp_path / "clf.bin"), "--epochs", "1"]
        else:
            argv = ["eval", "--test", str(workdir / "test.txt"),
                    "--clf", str(files["clf"])]
        code = cli.main([*argv, "--vocab", str(files["vocab"]),
                         "--model", str(files["model"])])
        err = capsys.readouterr().err
        assert code == 2, err
        assert str(bad) in err and snippet in err

    @pytest.mark.parametrize("flag", ["--m-out", "--max-between"])
    def test_extract_bad_setting_leaves_no_file(self, workdir, tmp_path,
                                                flag):
        out = tmp_path / "contexts.txt"
        code = cli.main(["extract", "--corpus", str(workdir / "corpus.tagged"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--out", str(out), flag, "0"])
        assert code == 2
        assert not out.exists()

    def test_cv_more_folds_than_instances_exit_2(self, workdir, capsys):
        code = cli.main(["cv", "--train", str(workdir / "train.txt"),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--model", str(workdir / "model.bin"),
                         "--folds", "1000", "--epochs", "1", "--m-out", "3"])
        assert code == 2
        assert "1000 folds need at least 1000 instances" in \
            capsys.readouterr().err

    # An empty file, a contexts file with only its header, or a directory,
    # given to each command that reads such an input.
    _EMPTY = {
        "eval": ["eval", "--test", "{bad}", "--vocab", "{w}/vocab.txt",
                 "--model", "{w}/tuned.bin", "--clf", "{w}/clf.bin",
                 "--bootstrap", "1000"],
        "ngrams": ["ngrams", "--train", "{bad}", "--vocab", "{w}/vocab.txt",
                   "--model", "{w}/tuned.bin", "--clf", "{w}/clf.bin"],
        "train": ["train", "--train", "{bad}", "--vocab", "{w}/vocab.txt",
                  "--model", "{w}/model.bin", "--out", "{tmp}/clf.bin"],
        "cv": ["cv", "--train", "{bad}", "--vocab", "{w}/vocab.txt",
               "--model", "{w}/model.bin"],
        "pretrain": ["pretrain", "--contexts", "{bad}", "--vocab",
                     "{w}/vocab.txt", "--out", "{tmp}/model.bin"],
        "cbow": ["cbow", "--corpus", "{bad}", "--vocab", "{w}/vocab.txt",
                 "--out", "{tmp}/cbow.bin"],
        "build-vocab": ["build-vocab", "--corpus", "{bad}", "--out",
                        "{tmp}/vocab.txt"],
    }

    @pytest.mark.parametrize("command,kind", [
        *((command, "empty") for command in _EMPTY),
        ("eval", "directory"), ("build-vocab", "directory"),
    ])
    def test_empty_or_directory_input_exit_2(self, workdir, tmp_path, capsys,
                                             command, kind):
        """No instances, pairs, contexts or tokens to work on, or a
        directory for a file: exit 2, naming the input."""
        bad = tmp_path / "input"
        if kind == "directory":
            bad.mkdir()
        elif command == "pretrain":
            bad.write_text("relemb-contexts v1 m_out=3 dtype=int32\n")
        else:
            bad.write_text("")
        argv = self._EMPTY[command]
        code = cli.main([a.format(bad=bad, w=workdir, tmp=tmp_path)
                         for a in argv])
        out, err = capsys.readouterr()
        assert code == 2
        assert str(bad) in err
        assert "nan" not in out and "F1" not in out

    @pytest.mark.parametrize("command", ["build-vocab", "cbow"])
    def test_corpus_of_skipped_lines_exit_2(self, workdir, tmp_path, capsys,
                                            command):
        """A corpus whose one line is not a token has no tokens: exit 2,
        naming it, and no output file."""
        corpus = tmp_path / "corpus.tagged"
        corpus.write_text("x y\n")
        out = tmp_path / "out"
        argv = [command, "--corpus", str(corpus), "--out", str(out)]
        if command == "cbow":
            argv += ["--vocab", str(workdir / "vocab.txt")]
        assert cli.main(argv) == 2
        assert f"{corpus}: no tokens" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build-vocab", "extract"])
    def test_corpus_without_nouns_prints_zero_counts(self, workdir, tmp_path,
                                                     capsys, command):
        corpus = tmp_path / "corpus.tagged"
        corpus.write_text("the\tDT\ncat\tVB\n\n")
        argv = [command, "--corpus", str(corpus), "--out",
                str(tmp_path / "out")]
        if command == "extract":
            argv += ["--vocab", str(workdir / "vocab.txt")]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert ("noun tokens: 0\n" if command == "build-vocab"
                else "pairs: 0\n") in out

    # reader: (the pipeline file or the text a byte 0xff is written into,
    # the line it goes on, the command that reads it); a text-mode read
    # decodes the first lines of a file with its header, and a binary
    # artifact's header is its first line
    _NOT_UTF8 = {
        "corpus": ("corpus.tagged", 3, ["build-vocab", "--corpus", "{bad}",
                                        "--out", "{tmp}/v.txt"]),
        "vocab": ("vocab.txt", 3, [
            "extract", "--corpus", "{w}/corpus.tagged", "--vocab", "{bad}",
            "--out", "{tmp}/c.txt"]),
        "contexts_header": ("contexts.txt", 1, [
            "pretrain", "--contexts", "{bad}", "--vocab", "{w}/vocab.txt",
            "--out", "{tmp}/m.bin"]),
        "semeval": ("train.txt", 3, ["eval", "--test", "{bad}",
                                     "--vocab", "{w}/vocab.txt",
                                     "--model", "{w}/tuned.bin",
                                     "--clf", "{w}/clf.bin"]),
        "config": ("d = 4\n# comment\nc = 1\n", 3, [
            "pretrain", "--contexts", "{w}/contexts.txt",
            "--vocab", "{w}/vocab.txt", "--out", "{tmp}/m.bin",
            "--config", "{bad}"]),
    }

    @pytest.mark.parametrize("reader", list(_NOT_UTF8))
    def test_non_utf8_input_exit_2(self, workdir, tmp_path, capsys, reader):
        source, line, argv = self._NOT_UTF8[reader]
        text = ((workdir / source).read_bytes() if "\n" not in source
                else source.encode())
        lines = text.splitlines(True)
        lines[line - 1] = b"\xff" + lines[line - 1]
        bad = tmp_path / f"bad-{reader}"
        bad.write_bytes(b"".join(lines))
        code = cli.main([arg.format(bad=bad, tmp=tmp_path, w=workdir)
                         for arg in argv])
        assert code == 2
        assert f"{bad}:{line}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("existing", [False, True])
    def test_extract_fault_after_written_blocks_keeps_out(
            self, workdir, tmp_path, capsys, monkeypatch, existing):
        """A bad byte read after earlier blocks gave contexts: exit 2, and
        `--out` is left as it was, absent or whole."""
        monkeypatch.setattr(cli.cp, "_TAGGED_BLOCK", 1 << 12)
        lines = (workdir / "corpus.tagged").read_bytes().splitlines(True)
        bad = tmp_path / "bad.tag"
        bad.write_bytes(b"".join(lines[:2000]) + b"\xff\tNN\n")
        out = tmp_path / "contexts.txt"
        if existing:
            out.write_bytes(b"earlier contexts\n")
        code = cli.main(["extract", "--corpus", str(bad),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--out", str(out)])
        assert code == 2
        assert f"{bad}:2001: not UTF-8" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["bad.tag", "contexts.txt"] if existing else ["bad.tag"])
        if existing:
            assert out.read_bytes() == b"earlier contexts\n"

    @staticmethod
    def _contexts_with(workdir, path, n1, n2, w_in):
        """The workdir's contexts with context 4 replaced by one of nouns
        `n1`, `n2`, words `w_in` between them and NULL outside windows,
        written to `path`."""
        contexts = list(cp.ContextFile(workdir / "contexts.txt"))[:10]
        contexts[4] = cp.NounPairContext(n1, n2, w_in, (0, 0, 0), (0, 0, 0))
        cp.write_contexts(cp.ContextArrays.pack(contexts, 3), 3, path)

    def test_bad_context_line_exit_2(self, workdir, capsys):
        bad = workdir / "bad_contexts.txt"
        self._contexts_with(workdir, bad, 1, 2, (3, -4))
        code = cli.main(["pretrain", "--contexts", str(bad),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--out", str(workdir / "never.bin"),
                         "--d", "4", "--c", "1", "--k", "2", "--t", "1"])
        assert code == 2
        assert (f"{bad}: context 4: word id -4 outside"
                in capsys.readouterr().err)
        assert not (workdir / "never.bin").exists()

    @pytest.mark.parametrize("command,data_flag", [("eval", "--test"),
                                                   ("ngrams", "--train")],
                             ids=["eval", "ngrams"])
    def test_dimension_mismatch_exit_2(self, workdir, capsys, command,
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
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {workdir / 'clf.bin'}: dimension mismatch" in err
        assert str(workdir / "small.bin") in err
        assert "48" in err        # 4*4*(2+1): features of the small model
        assert "192" in err       # 4*12*(2+2): dim the classifier expects

    @pytest.mark.parametrize("argv,config", [
        (["cv", "--train", "{train}", "--model", "{model}", "--epochs", "0"],
         None),
        (["cv", "--train", "{train}", "--model", "{model}", "--folds", "1"],
         None),
        (["cv", "--train", "{train}", "--model", "{model}", "--eta", "0"],
         None),
        (["cv", "--train", "{train}", "--model", "{model}", "--dropout", "x"],
         None),
        (["extract", "--corpus", "{corpus}", "--out", "{out}", "--m-out", "0"],
         None),
        (["build-vocab", "--corpus", "{corpus}", "--out", "{out}",
          "--max-words", "0"], None),
        (["eval", "--test", "{test}", "--model", "{model}", "--clf", "{clf}",
          "--bootstrap", "5"], None),
        (["eval", "--test", "{test}", "--model", "{model}", "--clf", "{clf}",
          "--bootstrap", "100", "--level", "2"], None),
        (["train", "--train", "{train}", "--model", "{model}", "--out",
          "{out}", "--features", "nounz"], None),
        (["ngrams", "--train", "{train}", "--model", "{model}", "--clf",
          "{clf}", "--n", "2"], None),
    ], ids=["cv_epochs", "cv_folds", "cv_eta",
            "cv_dropout", "extract_m_out", "build_vocab_max_words",
            "eval_bootstrap", "eval_level", "train_features", "ngrams_n"])
    def test_bad_setting_exit_2(self, workdir, tmp_path, capsys, argv,
                                config):
        paths = {"model": workdir / "tuned.bin",
                 "train": workdir / "train.txt", "test": workdir / "test.txt",
                 "clf": workdir / "clf.bin",
                 "corpus": workdir / "corpus.tagged", "out": tmp_path / "out"}
        argv = [a.format(**paths) for a in argv]
        if argv[0] != "build-vocab":
            argv += ["--vocab", str(workdir / "vocab.txt")]
        if config is not None:
            (tmp_path / "bad.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "bad.cfg")]
        assert cli.main(argv) == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "cv"])
    @pytest.mark.parametrize("given", [["--d", "7"], ["--c", "5"], "d = 7\n",
                                       "c = 5\n"],
                             ids=["d_flag", "c_flag", "d_key", "c_key"])
    def test_d_or_c_unlike_the_model_exit_2(self, workdir, tmp_path, capsys,
                                            command, given):
        """A `d` or `c` given with `--model` must match the file's header
        (d=12, c=2); their defaults (100 and 3) are not checked."""
        argv = [command, "--train", str(workdir / "train.txt"),
                "--vocab", str(workdir / "vocab.txt"),
                "--model", str(workdir / "model.bin"), "--epochs", "1",
                "--m-out", "3"]
        if command == "train":
            argv += ["--out", str(tmp_path / "clf.bin")]
        else:
            argv += ["--folds", "2"]
        if isinstance(given, str):
            (tmp_path / "run.cfg").write_text(given)
            given = ["--config", str(tmp_path / "run.cfg")]
        assert cli.main(argv + given) == 2
        err = capsys.readouterr().err
        assert f"error: {workdir / 'model.bin'}: the model has " in err
        assert not (tmp_path / "clf.bin").exists()
        assert cli.main(argv + ["--d", "12", "--c", "2"]) == 0

    @pytest.mark.parametrize("command", ["train", "cv"])
    @pytest.mark.parametrize("given", ["flag", "key"])
    def test_m_out_in_features_exit_2(self, workdir, tmp_path, capsys,
                                      command, given):
        """An ``m_out=`` token in `features` would be overridden by
        ``--m-out``; it is rejected, naming that flag, before any work."""
        features = "nouns,between,outside,m_out=2"
        argv = [command, "--train", str(workdir / "train.txt"),
                "--vocab", str(workdir / "vocab.txt"),
                "--model", str(workdir / "model.bin"), "--epochs", "1"]
        if command == "train":
            argv += ["--out", str(tmp_path / "clf.bin")]
        else:
            argv += ["--folds", "2"]
        if given == "flag":
            argv += ["--features", features]
        else:
            (tmp_path / "run.cfg").write_text(f"features = {features}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert "sets m_out; give the outside window width with --m-out" in err
        assert out == ""
        assert not (tmp_path / "clf.bin").exists()

    @pytest.mark.parametrize("context,message", [
        ((1, 2, (3, 9999)), "context 4: word id 9999 outside"),
        ((9999, 2, (3, 4)), "context 4: noun id 9999 outside"),
        ((1, 2, ()), "context 4: no words between the pair"),
        (None, "bad header value: m_out=0 is below 1"),
        ("truncated", "header implies"),
    ], ids=["w_in", "n1", "empty_between", "m_out_0", "truncated"])
    def test_bad_context_file_exit_2(self, workdir, tmp_path, capsys, context,
                                     message):
        """A bad context 4 of the context file, (None) a header m_out of 0,
        or a file cut short."""
        bad = tmp_path / "contexts.txt"
        if context is None:
            cp.write_contexts([], 0, bad)
        elif context == "truncated":
            bad.write_bytes((workdir / "contexts.txt").read_bytes()[:-4])
        else:
            self._contexts_with(workdir, bad, *context)
        code = cli.main(["pretrain", "--contexts", str(bad),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--out", str(tmp_path / "never.bin"),
                         "--d", "4", "--c", "1", "--k", "2", "--t", "1"])
        assert code == 2
        assert f"{bad}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "never.bin").exists()

    def test_malformed_semeval_exit_2(self, workdir, tmp_path, capsys):
        bad = tmp_path / "test.txt"
        text = (workdir / "test.txt").read_text()
        bad.write_text(text + '9999\t"no entity markup"\nOther\n')
        code = cli.main(["eval", "--test", str(bad),
                         "--vocab", str(workdir / "vocab.txt"),
                         "--model", str(workdir / "tuned.bin"),
                         "--clf", str(workdir / "clf.bin")])
        assert code == 2
        lineno = len(text.splitlines()) + 1
        assert f"{bad}:{lineno}: instance 9999: " in capsys.readouterr().err


# Every subcommand's flags; each flag's dest is its name with ``-`` as ``_``.
SURFACE = {
    "build-vocab": "--config --corpus --out --max-words --max-nouns "
                   "--lowercase",
    "extract": "--config --corpus --vocab --out --m-out --max-between",
    "pretrain": "--config --contexts --vocab --out --d --c --k --alpha --t "
                "--epochs --seed --report-every",
    "cbow": "--config --corpus --vocab --out --d --c --k --alpha --t "
            "--epochs --seed",
    "train": "--config --train --vocab --out --out-model --model --init --d "
             "--c --features --eta --l2 --epochs --dropout --fine-tune "
             "--m-out --seed",
    "cv": "--config --train --vocab --model --init --d --c --features "
          "--folds --eta --l2 --epochs --m-out --dropout --fine-tune --seed",
    "eval": "--config --test --vocab --model --clf --pred --report "
            "--bootstrap --level --seed",
    "ngrams": "--config --train --vocab --model --clf --label --n --top",
}


def _subparsers(parser=None):
    (action,) = [a for a in (parser or cli.build_parser())._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_cli_surface_is_pinned():
    expected = {(command, flag, flag[2:].replace("-", "_"))
                for command, flags in SURFACE.items() for flag in flags.split()}
    actual = {(command, flag, action.dest)
              for command, parser in _subparsers().items()
              for action in parser._actions for flag in action.option_strings
              if flag not in ("-h", "--help")}
    assert len(expected) == 86
    assert actual == expected


def _actions(parser):
    return [(type(a), a.option_strings, a.dest, a.type, a.nargs, a.required,
             a.choices, a.default) for a in parser._actions]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_a_subparser_built_alone_is_the_one_in_the_full_parser(command):
    """``main`` builds only the subparser its command line names; that
    parser, and the usage line errors print, are those of the full one."""
    parser = cli.build_parser(command)
    (alone,) = _subparsers(parser).values()
    full = cli.build_parser()
    assert list(_subparsers(parser)) == [command]
    assert _actions(alone) == _actions(_subparsers(full)[command])
    assert alone.format_help() == _subparsers(full)[command].format_help()
    assert parser.format_usage() == full.format_usage()


def test_help_lists_every_subcommand(capsys):
    assert cli.main(["--help"]) == 0
    listed = capsys.readouterr().out
    assert all(f"    {name} " in listed for name in cli.COMMANDS)
    assert len(cli.COMMANDS) == 8


# The default of every setting of every subcommand.
DEFAULTS = {
    "build-vocab": {"max_words": 300_000, "max_nouns": 300_000,
                    "lowercase": True},
    "extract": {"m_out": 5, "max_between": 10},
    "pretrain": {"d": 100, "c": 3, "k": 25, "alpha": 0.025, "t": 1e-5,
                 "epochs": 1, "seed": 1, "report_every": 100_000},
    "cbow": {"d": 100, "c": 3, "k": 25, "alpha": 0.025, "t": 1e-5,
             "epochs": 1, "seed": 1},
    "train": {"eta": 0.1, "l2": 1e-4, "epochs": 20, "dropout": True,
              "fine_tune": True, "m_out": 5, "seed": 1,
              "features": "nouns,between,outside", "d": 100, "c": 3},
    "cv": {"eta": [0.1], "l2": [1e-4], "epochs": [20], "dropout": [True],
           "fine_tune": True, "m_out": [5], "seed": 1,
           "features": "nouns,between,outside", "d": 100, "c": 3,
           "folds": 10},
    "eval": {"bootstrap": 0, "level": 0.95, "seed": 1},
    "ngrams": {"n": [1, 3], "top": 5},
}


def test_cli_defaults_are_pinned():
    """Defaults read from the config classes stay those of the CLI; repr
    tells ``True`` from ``1`` and ``1`` from ``1.0``."""
    actual = {(command, key): repr(default)
              for command, options in cli.OPTIONS.items()
              for key, (_, default) in options.items()}
    assert actual == {(command, key): repr(default)
                      for command, defaults in DEFAULTS.items()
                      for key, default in defaults.items()}


# A value other than the default for every setting, valid for both the
# scalar (train) and list (cv) forms of a key.
SAMPLES = {
    "max_words": "7", "max_nouns": "7", "lowercase": "0", "m_out": "3",
    "max_between": "4", "d": "8", "c": "2", "k": "4", "alpha": "0.5",
    "t": "0.5", "epochs": "3", "seed": "9", "report_every": "50",
    "eta": "0.5", "l2": "0.5", "dropout": "0", "fine_tune": "0",
    "features": "nouns,outside", "folds": "3", "bootstrap": "200",
    "level": "0.9", "n": "3", "top": "2",
}


@pytest.mark.parametrize("command,key", [
    (command, key) for command, options in cli.OPTIONS.items()
    for key in options])
def test_config_value_equals_flag_value(tmp_path, command, key):
    """``key = v`` in a config file resolves to the same value as
    ``--key v``."""
    required = []
    for action in _subparsers()[command]._actions:
        if action.required:
            required += [action.option_strings[0], "x"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {SAMPLES[key]}\n")
    parser = cli.build_parser()
    from_flag = cli._resolve(parser.parse_args(
        [command, *required, "--" + key.replace("_", "-"), SAMPLES[key]]))
    from_file = cli._resolve(parser.parse_args(
        [command, *required, "--config", str(cfg)]))
    assert from_file == from_flag
    assert from_flag[key] != cli.OPTIONS[command][key][1]


def test_import_does_not_load_scipy():
    """A CLI process imports no scipy: the runtime does not use it, and
    importing it would cost most of each process's start-up time."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import relemb.cli; import sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["train", "--train", "{root}/train.txt", "--vocab", "{root}/vocab.txt",
     "--model", "{root}/model.bin", "--out", "{tmp}/clf.bin",
     "--out-model", "{tmp}/tuned.bin", "--fine-tune", "1", "--epochs", "2",
     "--m-out", "3"],
    ["eval", "--test", "{root}/test.txt", "--vocab", "{root}/vocab.txt",
     "--model", "{root}/tuned.bin", "--clf", "{root}/clf.bin",
     "--bootstrap", "100"],
], ids=["train_fine_tune", "eval_bootstrap"])
def test_stage_does_not_import_numpy_ma(workdir, tmp_path, argv):
    """Importing numpy.ma costs a process ~13 ms; plain ``np.unique`` and
    ``np.percentile`` import it, and no stage calls them."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = [arg.format(root=workdir, tmp=tmp_path) for arg in argv]
    code = ("import sys; from relemb import cli; "
            f"assert cli.main({argv!r}) == 0; "
            "assert 'numpy.ma' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
