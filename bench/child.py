"""Child processes of the benchmark.

``child.py gen OUT ARGS_JSON``      generate one workload's inputs into OUT.
``child.py chains REQUEST RESULT``  run repeated CLI chains; see `run_chains`.

``relemb`` is imported from ``PYTHONPATH``, which the parent sets.  Both
modes write JSON and print nothing of their own, so the parent reads results
from files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

INPUT_FILES = ("corpus.tag", "train.txt", "test.txt")
OUT = "{out}"           # stands for a chain's output directory in stage argv


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def generate(out, gen_args):
    from relemb.synthetic import make_synthetic_data

    data = make_synthetic_data(**gen_args)
    os.makedirs(out)
    texts = dict(zip(INPUT_FILES, (data.tagged_text, data.train_text,
                                   data.test_text)))
    for name, text in texts.items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    meta = {
        "generator": gen_args,
        "sha256": {name: sha256(os.path.join(out, name)) for name in texts},
        "tokens": sum(1 for line in data.tagged_text.splitlines() if line),
    }
    with open(os.path.join(out, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)


def _versions():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_chain(stages, trace):
    """Run `stages` through ``relemb.cli.main`` in this process."""
    import relemb.cli as cli

    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        missing = spans.install(tracer)
    done = []
    cpu0 = time.process_time()
    t_first = time.perf_counter()
    for name, argv in stages:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        done.append({"stage": name, "exit": code,
                     "seconds": time.perf_counter() - t0,
                     "stdout": out.getvalue()})
        if code != 0:
            break
    result = {
        "stages": done,
        "pipeline_s": time.perf_counter() - t_first,
        "cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = dict(tracer.dump(), missing=missing)
    return result


def _forked_chain(stages, trace, result_path):
    """Run one chain in a forked child, so every chain starts from the same
    state: ``relemb.cli`` imported, nothing run, no tracer installed."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            with open(result_path, "w", encoding="utf-8") as fh:
                json.dump(run_chain(stages, trace), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"chain process exited with status {status}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_chains(request):
    """Repeat the chain while the next repetition is expected to end within
    ``request["seconds"]``, at least once.

    Each repetition is a list of chains, one per entry of
    ``request["modes"]`` (False: untraced, True: traced).  Importing
    ``relemb.cli`` once here and forking each chain keeps interpreter
    start-up, which ``setup_s`` measures, out of the time a run spends."""
    import relemb.cli  # noqa: F401  (inherited by every forked chain)

    chains = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for trace in request["modes"]:
            out = os.path.join(request["run_dir"], f"rep{len(chains)}")
            os.makedirs(out)
            stages = [(name, [a.replace(OUT, out) for a in argv])
                      for name, argv in request["stages"]]
            chain = _forked_chain(stages, trace,
                                  os.path.join(out, "result.json"))
            chain.update(trace_on=trace, dir=out)
            chains.append(chain)
            if any(s["exit"] != 0 for s in chain["stages"]):
                return chains
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > request["seconds"]:
            return chains


def main(argv):
    mode = argv[0]
    if mode == "gen":
        generate(argv[1], json.loads(argv[2]))
        return 0
    if mode == "chains":
        with open(argv[1], encoding="utf-8") as fh:
            request = json.load(fh)
        result = {"chains": run_chains(request), "versions": _versions()}
        with open(argv[2], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
