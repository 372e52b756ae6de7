"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run

run.prepare_environment()

import ncphase  # noqa: E402
import ncphase.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RUN_PY = str(Path(run.__file__).resolve())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = workloads.WORKLOADS[name]
    assert workload.generate(7) == workload.generate(7)
    assert workload.generate(7) != workload.generate(8)
    golden = workload.load_golden()
    for op in workload.generate(7):
        workload.expected(op, golden)  # a golden result exists


def test_benchmark_json_lists_the_metrics_the_run_reports():
    spec = json.loads((Path(RUN_PY).parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert all(m["unit"] == run.END_TO_END[m["name"]] for m in spec["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_pool_operation_has_a_golden_result():
    for workload in workloads.WORKLOADS.values():
        assert {op.key for op in workload.pool()} == set(workload.load_golden())


def _light_symbolic_ops():
    workload = workloads.WORKLOADS["symbolic-exact"]
    light = [op for op in workload.pool() if op.key.split("#")[0] in ("Y*Px*Y", "Px*Px*Y")]
    return workload, light[:3] + [op for op in workload.pool() if op.key == "verify"]


def test_corrupted_golden_entry_is_counted_as_failed_without_crashing():
    workload, ops = _light_symbolic_ops()
    golden = workload.load_golden()
    corrupted = dict(golden)
    corrupted[ops[0].key] = dict(golden[ops[0].key], substitute="0" * 16)
    verify = json.loads(json.dumps(golden["verify"]))
    verify["checks"][0]["residual"] = "not the recorded residual"
    corrupted["verify"] = verify
    del corrupted[ops[1].key]

    passes = [run.run_pass(workload, ops, corrupted)]
    attempted, failed = run.tally(passes)
    assert (attempted, failed) == (len(ops), 3)
    assert run.run_pass(workload, ops, golden).failed == 0


def test_crashing_operation_is_counted_as_failed():
    workload, ops = _light_symbolic_ops()
    broken = [workloads.Op(ops[0].key, ("1 + ", "X"))] + ops[1:]  # a parse error
    assert run.run_pass(workload, broken, workload.load_golden()).failed == 1


def test_level_tables_compare_labels_exactly_and_numbers_within_tolerance():
    workload = workloads.WORKLOADS["spectrum-large"]
    golden = [workload.load_golden()["N16"]]
    nudged = [row[:2] + [v * (1 + 1e-12) for v in row[2:]] for row in golden[0]]
    assert workload.matches([nudged], golden)
    moved = [row[:2] + [row[2] + 1e-6] + row[3:] for row in golden[0]]
    assert not workload.matches([moved], golden)
    relabelled = [list(golden[0][1][:2]) + golden[0][0][2:]] + golden[0][1:]
    assert not workload.matches([relabelled], golden)


@pytest.mark.parametrize(
    "n, value, percentile, beyond",
    [(100, 90, 90.0, 10), (1000, 990, 99.0, 10), (22, 12, 12 / 22 * 100, 10), (20, 11, 55.0, 9),
     (15, 8, 8 / 15 * 100, 7), (1, 1, 100.0, 0)],
)
def test_tail_picks_highest_percentile_with_ten_samples_beyond(n, value, percentile, beyond):
    latencies = [float(k) for k in range(n, 0, -1)]
    got = run.tail(latencies)
    assert got[0] == value and got[1] == pytest.approx(percentile) and got[2] == beyond
    assert sum(x > got[0] for x in latencies) == got[2]


def test_self_and_inclusive_times_from_spans():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["a", 2.0, 3.0, 1, 0],  # nested a: counted once inclusively
        ["c", 5.0, 9.0, 0, 0],
    ]
    assert tracing.inclusive_times(spans) == Counter({"a": 10.0, "b": 3.0, "c": 4.0})
    assert tracing.self_times(spans) == Counter({"a": 3.0 + 1.0, "b": 2.0, "c": 4.0})


def test_wrappers_reach_names_bound_by_import_and_are_removed_after():
    original = ncphase.fock.spectrum
    assert ncphase.cli.spectrum is original
    tracer = tracing.Tracer()
    with tracer.installed():
        assert ncphase.cli.spectrum is ncphase.fock.spectrum is ncphase.spectrum
        assert ncphase.cli.spectrum.__wrapped__ is original
        workloads.run_cli(["spectrum", "--cutoff", "4"])
    assert ncphase.cli.spectrum is original and ncphase.spectrum is original
    names = [span[0] for span in tracer.spans]
    for name in ("cli.main", "cli.cmd_spectrum", "hamiltonian.build_hamiltonian",
                 "fock.spectrum", "fock.evaluate", "fock.diagonalize", "fock.classify",
                 "fock.level_table_csv", "maps.substitute", "algebra.normal_order"):
        assert name in names
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["fock.dimension"] == 15 and metrics["fock.evaluate_calls"] == 1


def _traced_counts(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, env=env, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(tracing.PER_LAYER)
    return {name: result["metrics"][name]["value"] for name in tracing.EXACT_COUNTS}


@pytest.mark.parametrize("name", ["sweep-small", "uncertainty-scan", "symbolic-exact"])
def test_per_layer_counts_repeat_exactly_across_runs(name):
    first = _traced_counts(name, 5, "1")
    assert first == _traced_counts(name, 5, "2")
    used = {
        "sweep-small": ("fock.dimension", "fock.matrix_nnz"),
        "uncertainty-scan": ("uncertainty.rho_inner_calls",),
        "symbolic-exact": ("algebra.normal_order_calls", "maps.substitute_terms_out"),
    }[name]
    assert all(first[count] > 0 for count in used)


def test_refuses_to_run_without_the_package_source(tmp_path):
    root = Path(RUN_PY).parent.parent
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
