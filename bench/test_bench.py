"""Timing-free tests of the benchmark's own code.

    python3 -m pytest -q bench

The smoke tests run every workload end to end at ``--size tiny`` and take
about a minute on a 2-core machine.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import scorer
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

CE12, CE21 = "Cause-Effect(e1,e2)", "Cause-Effect(e2,e1)"
CC12, CC21 = "Content-Container(e1,e2)", "Content-Container(e2,e1)"

# Cause-Effect: gold 3, predicted 3, correct 2 -> P = R = F1 = 2/3.
# Content-Container: gold 2 (one predicted Other), predicted 2 (one from a
# gold Other), correct 1 -> P = R = F1 = 1/2.  Other is left out of the mean.
HAND_PAIRS = [
    (CE12, CE12), (CE12, CE12), (CE12, CE21),
    (CC12, CC12), ("Other", CC21), (CC21, "Other"), ("Other", "Other"),
]
HAND_MACRO = 100 * (2 / 3 + 1 / 2) / 2


def test_scorer_matches_hand_computed_confusion():
    assert scorer.macro_f1(HAND_PAIRS) == pytest.approx(HAND_MACRO, abs=1e-12)


def test_scorer_counts_a_swapped_direction_as_wrong():
    swapped = [(CE12, CE21), (CE21, CE12), (CC12, CC21)]
    assert scorer.macro_f1(swapped) == 0.0
    # The same predictions with the direction right score perfectly.
    assert scorer.macro_f1([(g, g) for g, _ in swapped]) == 100.0


def test_scorer_agrees_with_program_scorer():
    sys.path.insert(0, str(ROOT / "src"))
    from relemb.corpus import parse_label
    from relemb.evaluation import score_semeval

    gold = [parse_label(g) for g, _ in HAND_PAIRS]
    pred = [parse_label(p) for _, p in HAND_PAIRS]
    assert score_semeval(gold, pred).macro_f1 == pytest.approx(HAND_MACRO)


def test_score_files_reads_semeval_and_prediction_files(tmp_path):
    gold = tmp_path / "test.txt"
    gold.write_text(
        '7\t"the <e1>virus</e1> caused the <e2>flu</e2>"\n'
        f"{CE12}\nComment: planted\n\n"
        '8\t"a <e1>box</e1> held <e2>coins</e2>"\n'
        f"{CC21}\n\n")
    pred = tmp_path / "pred.txt"
    pred.write_text(f"7\t{CE12}\n8\t{CC12}\n")
    assert scorer.score_files(gold, pred) == pytest.approx(50.0)
    pred.write_text(f"7\t{CE12}\n")
    with pytest.raises(ValueError):
        scorer.score_files(gold, pred)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_excludes_nested_spans():
    tracer = spans.Tracer(clock=FakeClock([0, 1, 3, 4, 7, 10]))
    inner = tracer.wrap("inner", lambda: None)

    def outer_body():
        inner()
        inner()

    tracer.wrap("outer", outer_body)()
    stats = tracer.dump()["stats"]
    assert stats["outer"] == {"calls": 1, "total": 10, "self": 5, "items": 0}
    assert stats["inner"] == {"calls": 2, "total": 5, "self": 5, "items": 0}


def test_iterator_spans_count_passes_and_items():
    class Reader:
        def __iter__(self):
            yield from "ab"

    # consume: enter 0; next 1-2 (a), next 3-5 (b), next 6-7 (stop); leave 9
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 5, 6, 7, 9]))
    Reader.__iter__ = tracer.wrap_iter("reader", Reader.__iter__)
    seen = []
    tracer.wrap("consume", lambda: seen.extend(Reader()))()
    stats = tracer.dump()["stats"]
    assert seen == ["a", "b"]
    assert stats["reader"] == {"calls": 1, "total": 4, "self": 4, "items": 2}
    assert stats["consume"]["self"] == 5


def test_observer_reads_counts_from_results():
    tracer = spans.Tracer(clock=FakeClock(range(10)))
    f = tracer.wrap("f", lambda n: list(range(n)),
                    observe=lambda tr, args, kwargs, result:
                    tr.add("items", len(result)))
    f(3)
    f(4)
    assert tracer.dump()["counts"] == {"items": 7}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    manifest = next(json.loads(line[len("manifest: "):]) for line in lines
                    if line.startswith("manifest: "))
    return json.loads(lines[-1]), manifest


@pytest.mark.parametrize("workload", ["pretrain", "ingest"])
def test_tiny_traced_run_passes_every_check(workload):
    result, manifest = _run(workload, trace=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert manifest["trace_missing"] == []


def test_tiny_untraced_run_reports_end_to_end_metrics():
    result, _ = _run("pretrain", trace=0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
