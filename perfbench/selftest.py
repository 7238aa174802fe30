"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py            # from the repository root
    python3 -m pytest perfbench/selftest.py  # the same checks under pytest

Runs every workload with ``--small`` (grid 201, 1e6 pairs, the minimum
number of passes) with tracing off and on, and checks that

* every metric named in BENCHMARK.json is printed, with its unit;
* recorded spans nest inside their parents;
* the self times of a traced pass sum to no more than its wall time;
* a tampered copy of an output table is counted as a failed operation.

The file name keeps it out of the repository's default pytest run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run          # noqa: E402
import tracing      # noqa: E402

SEED = 7
_RESULTS = {}


def _bench(workload, trace):
    """Run the benchmark once per (workload, trace); returns its last stdout line."""
    key = (workload, trace)
    if key not in _RESULTS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", str(SEED),
                             "--seconds", "0.1", "--trace", str(trace), "--small"])
        assert code == 0, f"{workload} trace={trace} exited {code}"
        line = json.loads(out.getvalue().strip().splitlines()[-1])
        with open(os.path.join(run.WORK_DIR, workload, "run.json"), encoding="utf-8") as fh:
            record = json.load(fh)
        spans = None
        if trace:
            with open(os.path.join(run.WORK_DIR, workload, "spans.json"),
                      encoding="utf-8") as fh:
                spans = json.load(fh)["spans"]
        tampered = None
        if workload == "reference-suite" and not trace:
            tampered = _copy_reference(workload)
        _RESULTS[key] = (line, record, spans, tampered)
    return _RESULTS[key]


def _copy_reference(workload):
    """Copy of the reference pass's outputs, kept apart from later runs."""
    src = os.path.join(run.WORK_DIR, workload, "pass0")
    dst = os.path.join(run.WORK_DIR, "selftest", "pass0")
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


def _declared():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_metrics_printed_with_units():
    doc = _declared()
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.workloads.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in doc[key]}
        for workload in run.workloads.WORKLOADS:
            line, record, _, _ = _bench(workload, trace)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["failed"] == 0, record["failures"]
            assert line["correct"] is True and line["attempted"] >= 1
            printed = {name: m["unit"] for name, m in line["metrics"].items()}
            assert printed == declared, (workload, trace)
            for name, m in line["metrics"].items():
                assert isinstance(m["value"], (int, float)), name


def test_spans_nest_and_self_times_fit_wall():
    for workload in run.workloads.WORKLOADS:
        _, record, spans, _ = _bench(workload, 1)
        walls = {p["pass_id"]: p["wall_s"] for p in record["passes"] if p["traced"]}
        assert walls
        for pass_id, wall in walls.items():
            own = [tuple(s[:4]) for s in spans if s[4] == pass_id]
            assert own, pass_id
            tracing.check_nesting(own)
            total_self = sum(t for _, t in tracing.self_times(own).values())
            assert total_self <= wall, (workload, pass_id, total_self, wall)


def test_tampered_output_is_a_failed_operation():
    _, _, _, copy = _bench("reference-suite", 0)
    runner = run.Runner("reference-suite", SEED, small=True)
    steps = [dict(s, out=os.path.join(copy, os.path.basename(s["out"])))
             for s in run.workloads.steps("reference-suite", SEED, "unused", small=True)]
    ok = [{"exit": 0, "error": None} for _ in steps]
    assert runner.judge(steps, ok) == []

    table = os.path.join(steps[1]["out"], "difference_distribution.dat")
    assert steps[1]["name"] == "fcurve"
    with open(table, encoding="utf-8") as fh:
        lines = fh.readlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    for i in data:                       # scale the exact column by 1 + 1e-4
        cols = lines[i].split()
        cols[1] = f"{float(cols[1]) * 1.0001:.12e}"
        lines[i] = " ".join(cols) + "\n"
    with open(table, "w", encoding="utf-8") as fh:
        fh.writelines(lines)

    before = len(runner.failures)
    failures = runner.judge(steps, ok)
    assert len(failures) == 1 and "differ" in failures[0], failures
    assert len(runner.failures) == before + 1
    assert runner.attempted == 2 * len(steps)

    # the content check alone also rejects it, with no reference to compare
    fresh = run.Runner("reference-suite", SEED, small=True)
    failures = fresh.judge(steps, ok)
    assert len(failures) == 1 and "oracle" in failures[0], failures


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
