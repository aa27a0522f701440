"""relemb benchmark: seeded synthetic workloads through the CLI chain.

    python3 bench/run.py --workload pretrain|ingest|all \\
        --seed N --seconds S --trace 0|1 [--size full|tiny]

``src/`` next to this directory must hold the ``relemb`` package.  For one
workload and seed the benchmark

1. generates the inputs with ``relemb.synthetic.make_synthetic_data`` in a
   separate process, once per (size, workload, seed, source digest), and
   reuses them from ``.bench_work/inputs``;
2. with ``--trace 0``, times fresh ``import relemb.cli`` processes
   (``setup_s``), then repeats the CLI chain, each in a single-threaded
   process forked from one that imported ``relemb.cli``, while the next
   repetition still fits in ``--seconds``, and reports medians;
3. with ``--trace 1``, alternates untraced and traced chains and reports the
   per-layer metrics plus the tracing overhead;
4. checks every output (see `check_rep`), counting each stage and each check
   as one operation.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names, units and directions live in
``BENCHMARK.json`` at the checkout root; bench/README.md maps each layer
metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import scorer
from child import OUT, sha256
from workloads import (PRETRAIN_DIM, PRETRAIN_NEGATIVES,
                       PRETRAIN_WINDOW, TARGETS_PER_PAIR, WORKLOADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = BENCH_DIR / "child.py"

RUN_LIMIT_S = 170        # every run must end within 180 s
SETUP_SAMPLES = 5        # timed fresh imports per run, after one warm-up
MAX_CACHED_INPUTS = 12
F1_AGREEMENT = 1e-4      # report_kv prints macro_f1 with 4 decimals
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


# --- environment --------------------------------------------------------------

def child_env():
    env = dict(os.environ, PYTHONHASHSEED="0", **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def source_digest():
    """SHA-256 over the program and benchmark sources: the code identity
    that reproducibility records are keyed by (a checkout need not be a git
    repository)."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _child(args, timeout):
    """Run ``child.py`` with `args` in its own process group, so that a
    timeout also ends the chains it forked; raise RuntimeError with its
    stderr if it fails."""
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"child {args[0]} timed out after {timeout:.0f} s"
                           ) from None
    finally:
        if proc.returncode is None:     # timed out or interrupted
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}:\n"
                           + err[-2000:])


# --- inputs -------------------------------------------------------------------

def ensure_inputs(workload, seed, size, digest):
    """Directory of generated inputs plus their metadata; generates them in
    a separate process on first use, so generator time and memory stay out
    of every measured process."""
    inputs = WORK / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    final = inputs / f"{size}-{workload.name}-{seed}-{digest[:16]}"
    if not final.exists():
        tmp = inputs / f".tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        _child(["gen", str(tmp), json.dumps(workload.generator_args(seed))],
               timeout=120)
        try:
            os.rename(tmp, final)
        except OSError:           # another run generated it first
            shutil.rmtree(tmp, ignore_errors=True)
    os.utime(final)
    cached = sorted((p for p in inputs.iterdir() if not p.name.startswith(".")),
                    key=lambda p: p.stat().st_mtime)
    for old in cached[:-MAX_CACHED_INPUTS]:
        shutil.rmtree(old, ignore_errors=True)
    meta = json.loads((final / "meta.json").read_text())
    return final, meta


# --- measurement --------------------------------------------------------------

def measure_setup():
    """Median wall time of a fresh interpreter importing ``relemb.cli``,
    after one untimed warm-up import (page cache, bytecode)."""
    cmd = [sys.executable, "-c", "import relemb.cli"]
    env = child_env()
    times = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=60)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def run_chains(workload, inputs, run_dir, seconds, trace, deadline):
    """Chains from one ``child.py chains`` process: untraced ones, or with
    `trace` alternating untraced and traced ones."""
    run_dir.mkdir(parents=True)
    request = run_dir / "request.json"
    request.write_text(json.dumps({
        "stages": workload.stages(os.path.relpath(inputs, ROOT), OUT),
        "modes": [False, True] if trace else [False],
        "seconds": seconds,
        "run_dir": os.path.relpath(run_dir, ROOT),
    }))
    result = run_dir / "result.json"
    _child(["chains", str(request), str(result)],
           timeout=max(1.0, deadline - time.monotonic()))
    data = json.loads(result.read_text())
    for chain in data["chains"]:
        chain["dir"] = ROOT / chain["dir"]
    return data["chains"], data["versions"]


# --- checks -------------------------------------------------------------------

def parse_counts(stdout):
    """``key: number`` lines of a stage's stdout as numbers."""
    counts = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if not sep or not value:
            continue
        token = value.split()[0]
        try:
            counts[key.strip()] = int(token)
        except ValueError:
            try:
                counts[key.strip()] = float(token)
            except ValueError:
                pass
    return counts


def read_report(path):
    values = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition("=")
        values[key] = float(value)
    return values


def _finite_model(path):
    from relemb.embed_train import load_model
    p = load_model(path)
    return all(np.isfinite(a).all()
               for a in (p.noun_vecs, p.word_vecs, p.pred_vecs, p.pred_bias))


def _finite_classifier(path):
    from relemb.classifier import load_classifier
    softmax, _ = load_classifier(path)
    return bool(np.isfinite(softmax.weights).all()
                and np.isfinite(softmax.bias).all())


def exact_counts(rep):
    """Counts a seeded single-thread run must repeat exactly."""
    by = {s["stage"]: parse_counts(s["stdout"]) for s in rep["stages"]}
    pre = by["pretrain"]
    counts = {
        "updates": pre["updates"],
        "pairs_discarded": pre["pairs discarded"],
        # Every synthetic pair holds TARGETS_PER_PAIR targets, so the word
        # filter discarded what neither the pair filter nor a step took.
        "targets_discarded": pre["targets seen"]
        - TARGETS_PER_PAIR * pre["pairs discarded"] - pre["updates"],
        "macro_f1": rep["macro_f1"],
    }
    if "cbow" in by:
        counts["cbow_updates"] = by["cbow"]["updates"]
    return counts


def check_rep(workload, meta, rep):
    """``[(check, ok, detail), ...]`` for one chain; each entry is one
    operation, and so is each stage that ran or should have run."""
    checks = []
    planned = [name for name, _ in workload.stages(".", ".")]
    ran = {s["stage"]: s for s in rep["stages"]}
    for name in planned:
        s = ran.get(name)
        checks.append((f"stage {name} exits 0", s is not None and s["exit"] == 0,
                       "not run" if s is None else f"exit {s['exit']}"))
    if not all(ok for _, ok, _ in checks):
        return checks
    by = {name: parse_counts(s["stdout"]) for name, s in ran.items()}
    out = rep["dir"]
    n = workload.n_pretrain

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    bv, ex, pre = by["build_vocab"], by["extract"], by["pretrain"]
    check("build-vocab sentences = n_pretrain", bv.get("sentences") == n,
          bv.get("sentences"))
    check("build-vocab tokens = generated tokens",
          bv.get("tokens") == meta["tokens"], bv.get("tokens"))
    check("extract sentences = n_pretrain", ex.get("sentences") == n,
          ex.get("sentences"))
    check("pairs = sentences", ex.get("pairs") == ex.get("sentences"),
          ex.get("pairs"))
    check("targets = 3 x pairs",
          ex.get("targets") == TARGETS_PER_PAIR * ex.get("pairs", -1),
          ex.get("targets"))
    check("targets seen = targets (one epoch)",
          pre.get("targets seen") == ex.get("targets"), pre.get("targets seen"))
    check("train instances = train split",
          by["train"].get("instances") == workload.n_train,
          by["train"].get("instances"))
    if workload.cbow:
        check("cbow tokens seen = generated tokens",
              by["cbow"].get("tokens seen") == meta["tokens"],
              by["cbow"].get("tokens seen"))
    models = ["model.bin"] + (["tuned.bin"] if workload.fine_tune else []) \
        + (["cbow.bin"] if workload.cbow else [])
    for name, finite in [(m, _finite_model) for m in models] \
            + [("clf.bin", _finite_classifier)]:
        try:
            ok, detail = finite(out / name), ""
        except (OSError, ValueError, KeyError) as exc:
            ok, detail = False, repr(exc)
        check(f"{name} loads and is finite", ok, detail)

    report = read_report(out / "report.txt")
    check("eval n = test split", report.get("n") == workload.n_test,
          report.get("n"))
    try:
        f1 = scorer.score_files(Path(rep["inputs"]) / "test.txt",
                                out / "pred.txt")
    except (OSError, ValueError) as exc:
        f1 = float("nan")
        check("independent scorer reads predictions", False, repr(exc))
    rep["macro_f1"] = f1
    check("independent macro-F1 agrees with eval report",
          abs(f1 - report.get("macro_f1", math.inf)) <= F1_AGREEMENT,
          f"{f1:.6f} vs {report.get('macro_f1')}")
    check(f"macro-F1 >= floor {workload.macro_f1_floor}",
          f1 >= workload.macro_f1_floor, f"{f1:.4f}")
    if rep["trace_on"]:
        counts = rep["trace"]["counts"]
        check("traced targets_discarded = derived count",
              counts.get("embed_train.targets_discarded")
              == exact_counts(rep)["targets_discarded"],
              counts.get("embed_train.targets_discarded"))
        check("traced pairs = extract pairs",
              counts.get("corpus.pairs") == ex.get("pairs"),
              counts.get("corpus.pairs"))
    return checks


def check_records(key, digests, counts):
    """Compare with the record of an earlier run of the same code, workload
    and seed, or write the first record."""
    path = WORK / "records" / f"{key}.json"
    record = {"sha256": digests, "counts": counts}
    if path.exists():
        old = json.loads(path.read_text())
        return [("input digests match earlier runs",
                 old["sha256"] == digests, ""),
                ("exact counts match earlier runs",
                 old["counts"] == counts, f"{old['counts']} vs {counts}")]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return []


# --- metrics ------------------------------------------------------------------

def stage_seconds(rep, name):
    for s in rep["stages"]:
        if s["stage"] == name:
            return s["seconds"]
    return 0.0


def end_to_end(workload, rep):
    by = {s["stage"]: parse_counts(s["stdout"]) for s in rep["stages"]}
    return {
        "pipeline_s": rep["pipeline_s"],
        "pretrain_targets_per_s": by["pretrain"]["targets seen"]
        / stage_seconds(rep, "pretrain"),
        "train_updates_per_s": workload.n_train * workload.epochs
        / stage_seconds(rep, "train"),
        "macro_f1": rep["macro_f1"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def step_flops(d=PRETRAIN_DIM, c=PRETRAIN_WINDOW, k=PRETRAIN_NEGATIVES):
    """Computed dense floating-point operations of one pretraining step.

    With feature length F = 2d(2+c) and k+1 scored words: the scores
    (2(k+1)F), the outer product of errors and features ((k+1)F), the
    feature gradient (2(k+1)F) and the scaled row updates (2(k+1)F).  The
    O(d) noun/window/outside row terms are left out."""
    return 7 * (k + 1) * 2 * d * (2 + c)


def layer_metrics(rep):
    """Per-layer metrics of one traced chain."""
    stats, counts = rep["trace"]["stats"], rep["trace"]["counts"]

    def st(name):
        return stats.get(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                "items": 0})

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call_us(name, key="total"):
        return 1e6 * ratio(st(name)[key], st(name)["calls"])

    m = {f"cli.{name}.s": stage_seconds(rep, name)
         for name in ("build_vocab", "extract", "pretrain", "cbow", "train",
                      "eval")}
    m.update({
        "corpus.parse_tagged.sentences_per_s":
            ratio(st("corpus.parse_tagged")["items"],
                  st("corpus.parse_tagged")["self"]),
        "corpus.build_vocabulary.s": st("corpus.build_vocabulary")["total"],
        "corpus.extract_noun_pair_contexts.self_s":
            st("corpus.extract_noun_pair_contexts")["self"],
        "corpus.pairs": counts.get("corpus.pairs", 0),
        "corpus.write_contexts.s": st("corpus.write_contexts")["total"],
        "corpus.write_contexts.self_s": st("corpus.write_contexts")["self"],
        "corpus.ContextFile.contexts_per_s":
            ratio(st("corpus.ContextFile")["items"],
                  st("corpus.ContextFile")["self"]),
        "corpus.ContextFile.passes": st("corpus.ContextFile")["calls"],
        "corpus.parse_semeval.instances_per_s":
            ratio(counts.get("corpus.parse_semeval.instances", 0),
                  st("corpus.parse_semeval")["total"]),
        "corpus.Vocabulary.load.s": st("corpus.Vocabulary.load")["total"],
        "embed_train.train_embeddings.s":
            st("embed_train.train_embeddings")["total"],
        "embed_train.pretrain_step.calls": st("embed_train.pretrain_step")["calls"],
        "embed_train.pretrain_step.self_us":
            per_call_us("embed_train.pretrain_step", "self"),
        "embed_train.pretrain_objective_and_grad.self_us":
            per_call_us("embed_train.pretrain_objective_and_grad", "self"),
        "embed_train.build_feature_vector.us":
            per_call_us("embed_train.build_feature_vector"),
        "embed_train.apply_row_grads.us": per_call_us("embed_train.apply_row_grads"),
        "embed_train.NoiseSampler.sample.us":
            per_call_us("embed_train.NoiseSampler.sample"),
        "embed_train.steps_per_target":
            ratio(counts.get("embed_train.steps", 0),
                  counts.get("embed_train.targets_seen", 0)),
        "embed_train.pairs_discarded": counts.get("embed_train.pairs_discarded", 0),
        "embed_train.targets_discarded":
            counts.get("embed_train.targets_discarded", 0),
        "embed_train.step_flops": step_flops(),
        "embed_train.save_model.s": st("embed_train.save_model")["total"],
        "embed_train.load_model.s": st("embed_train.load_model")["total"],
        "cbow_baseline.train_cbow.s": st("cbow_baseline.train_cbow")["total"],
        "cbow_baseline.tokens_per_s":
            ratio(counts.get("cbow_baseline.tokens_seen", 0),
                  st("cbow_baseline.train_cbow")["total"]),
        "cbow_baseline.steps_per_token":
            ratio(counts.get("cbow_baseline.steps", 0),
                  counts.get("cbow_baseline.tokens_seen", 0)),
        "features.assemble_features.calls": st("features.assemble_features")["calls"],
        "features.assemble_features.us": per_call_us("features.assemble_features"),
        "features.scatter_feature_grad.calls":
            st("features.scatter_feature_grad")["calls"],
        "features.scatter_feature_grad.us":
            per_call_us("features.scatter_feature_grad"),
        "features.feature_dim": counts.get("features.feature_dim", 0),
        "classifier.train_classifier.s": st("classifier.train_classifier")["total"],
        "classifier.train_classifier.self_s":
            st("classifier.train_classifier")["self"],
        "classifier.adagrad_update.calls": st("classifier.adagrad_update")["calls"],
        "classifier.adagrad_update.us": per_call_us("classifier.adagrad_update"),
        "classifier.apply_dropout.us": per_call_us("classifier.apply_dropout"),
        "classifier.predict_many.instances_per_s":
            ratio(counts.get("classifier.predict_many.instances", 0),
                  st("classifier.predict_many")["total"]),
        "classifier.final_objective": counts.get("classifier.final_objective", 0.0),
        "evaluation.score_semeval.s": st("evaluation.score_semeval")["total"],
        "evaluation.bootstrap_ci.iterations_per_s":
            ratio(counts.get("evaluation.bootstrap_ci.iterations", 0),
                  st("evaluation.bootstrap_ci")["total"]),
        "proc.cpu_s": rep["cpu_s"],
        "proc.busy_ratio": ratio(rep["cpu_s"], rep["pipeline_s"]),
        "trace.pipeline_s": rep["pipeline_s"],
    })
    return m


def median_metrics(per_rep):
    return {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}


# --- one workload -------------------------------------------------------------

def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(name, seed, seconds, trace, size):
    workload = WORKLOADS[name].sized(size)
    deadline = time.monotonic() + RUN_LIMIT_S
    digest = source_digest()
    inputs, meta = ensure_inputs(workload, seed, size, digest)
    digests = {name: sha256(inputs / name) for name in meta["sha256"]}
    checks = [("cached inputs match their generation digests",
               digests == meta["sha256"], "")]

    setup = None
    if not trace:
        try:
            setup = measure_setup()
        except subprocess.CalledProcessError as exc:
            checks.append(("fresh interpreter imports relemb.cli", False,
                           str(exc)))
    run_dir = WORK / "runs" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    reps, versions, counts, ok_reps = [], None, None, False
    try:
        try:
            reps, versions = run_chains(workload, inputs, run_dir, seconds,
                                        trace, deadline)
        except RuntimeError as exc:
            checks.append(("chain process completes", False, str(exc)))
        for rep in reps:
            rep["inputs"] = inputs
            checks += check_rep(workload, meta, rep)
        ok_reps = bool(reps) and all(ok for _, ok, _ in checks)
        if ok_reps:
            counts = exact_counts(reps[0])
            for i, rep in enumerate(reps[1:], 1):
                checks.append((f"chain {i} repeats the exact counts of chain 0",
                               exact_counts(rep) == counts, ""))
            checks += check_records(f"{digest[:16]}/{size}-{name}-{seed}",
                                    digests, counts)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics, per_chain = {}, []
    if ok_reps:
        per_chain = [end_to_end(workload, r) for r in reps if not r["trace_on"]]
        metrics = median_metrics(per_chain)
        if trace:
            metrics.update(median_metrics(
                [layer_metrics(r) for r in reps if r["trace_on"]]))
            metrics["trace.overhead_pct"] = 100.0 * (
                metrics["trace.pipeline_s"] / metrics["pipeline_s"] - 1.0)
        else:
            metrics["setup_s"] = setup[0]

    manifest = {
        "commit": git_commit(),
        "source_sha256": digest,
        "workload": name,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "generator": workload.generator_args(seed),
        "input_sha256": digests,
        "exact_counts": counts,
        "versions": versions,
        "blas_threads": BLAS_ENV,
        "nproc": os.cpu_count(),
        "untraced_chains": per_chain,
        "trace_missing": sorted({m for r in reps if r["trace_on"]
                                 for m in r["trace"]["missing"]}),
        "setup_samples_s": setup[1] if setup else None,
        "stages": [argv for _, argv in workload.stages("INPUTS", "OUT")],
    }
    return {"checks": checks, "metrics": metrics, "manifest": manifest}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes, not for measurement")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so no child process outlives the benchmark.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "relemb" / "cli.py").is_file():
        print(f"error: no relemb program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))     # output checks load the program's files
    e2e_units, layer_units = load_spec()
    units = {**e2e_units, **layer_units}
    reported = layer_units if args.trace else e2e_units
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]

    attempted = failed = 0
    metrics = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           args.size)
        bad = [c for c in res["checks"] if not c[1]]
        attempted += len(res["checks"])
        failed += len(bad)
        print(f"== {name}: ops_attempted {len(res['checks'])} "
              f"ops_failed {len(bad)}")
        for check, _, detail in bad:
            print(f"FAILED {check}: {detail}")
        for key, value in res["metrics"].items():
            print(f"{name}.{key} = {value:.6g} {units[key]}")
        print("manifest: " + json.dumps(res["manifest"], sort_keys=True))
        if bad:
            continue
        missing = set(reported) - set(res["metrics"])
        if missing:
            raise RuntimeError(f"metrics named in BENCHMARK.json but not "
                               f"computed: {sorted(missing)}")
        prefix = f"{name}." if len(names) > 1 else ""
        for key, unit in reported.items():
            metrics[prefix + key] = {"value": res["metrics"][key], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
