"""Tests of the benchmark itself: short runs of every workload, and checks
that reject corrupted outputs.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nssgate import NodeSet, scan_nodes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def result_of(out) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_reports_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    ops = workloads.WORKLOADS[workload](3).ops
    kept = sum(getattr(op, "kept", False) for op in ops)
    assert result["attempted"] % len(ops) == 0
    assert result["failed"] * len(ops) <= kept * result["attempted"]


def test_traced_runs_repeat_their_counts():
    counts = []
    for _ in range(2):
        result = result_of(bench("--workload", "general-gates", "--seed", "5", "--seconds", "1", "--trace", "1"))
        assert result["correct"] is True
        metrics = result["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["fock_oracle.apply_gate.calls"] > 0
    assert counts[0]["gate_solver.find_transmission.det_evals"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = bench("--workload", "identities", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout


@pytest.fixture(scope="module")
def sweep_doc():
    out = workloads.run_cli(["sweep", "--n-min", "1", "--n-max", "6"])
    assert out.code == 0
    return json.loads(out.text)


def test_sweep_check_passes_the_program(sweep_doc):
    assert checks.check_sweep(sweep_doc, 6) == []


@pytest.mark.parametrize(
    "field,corrupt",
    [("T_re", lambda v: v + 1e-9), ("p", lambda v: v * (1 + 1e-6))],
    ids=["T_shifted_1e-9", "p_scaled_1e-6"],
)
def test_sweep_check_rejects_corruption(sweep_doc, field, corrupt):
    doc = json.loads(json.dumps(sweep_doc))
    doc["rows"][3][field] = corrupt(doc["rows"][3][field])
    assert checks.check_sweep(doc, 6)


def test_sweep_check_rejects_missing_row(sweep_doc):
    doc = json.loads(json.dumps(sweep_doc))
    del doc["rows"][-1]
    assert checks.check_sweep(doc, 6)


@pytest.fixture(scope="module")
def gate():
    return scan_nodes(NodeSet((0, 2, 3, 7))).best.solution


def test_gate_checks_pass_the_program(gate):
    gg = workloads.GeneralGates(seed=1)
    op = workloads.GateOp((0, 2, 3, 7), workloads._signals(random.Random(2), 4, 3), kept=False)
    assert gg.check(op, gg.run(op)) == (False, [])
    assert checks.check_gate(gate.nodes, complex(gate.T).real, gate.alphas, gate.gammas, gate.p) == []


def test_gate_check_rejects_flipped_amplitude(gate):
    alphas = list(gate.alphas)
    alphas[1] = -alphas[1]
    assert checks.check_gate(gate.nodes, complex(gate.T).real, alphas, gate.gammas, gate.p)


def test_gate_check_rejects_scaled_p(gate):
    assert checks.check_gate(gate.nodes, complex(gate.T).real, gate.alphas, gate.gammas, gate.p * (1 + 1e-6))


def test_gate_check_rejects_shifted_T(gate):
    assert checks.check_gate(gate.nodes, complex(gate.T).real + 1e-9, gate.alphas, gate.gammas, gate.p)


def test_signal_check_rejects_flipped_output_amplitude():
    c = workloads._signals(random.Random(3), 4, 1)[0]
    good = list(c[:-1]) + [-c[-1]]
    assert checks.check_signal(c, good, 0.25, 0.25) == []
    bad = list(good)
    bad[0] = -bad[0]
    assert checks.check_signal(c, bad, 0.25, 0.25)
    assert checks.check_signal(c, good, 0.25 * (1 + 1e-6), 0.25)


def test_kept_sets_count_bad_outputs_as_failed_and_check_good_ones():
    gg = workloads.GeneralGates(seed=1)
    good = workloads.GateOp((0, 2, 3, 7), workloads._signals(random.Random(2), 4, 3), kept=False)
    sol, outs = gg.run(good)
    kept = workloads.GateOp(good.nodes, good.signals, kept=True)
    assert gg.check(kept, (sol, outs)) == (False, [])
    assert gg.gates[kept.nodes] is sol
    first, prob = outs[0]
    flipped = [([-first[0], *first[1:]], prob)] + outs[1:]
    assert gg.check(kept, (sol, flipped)) == (True, [])
    assert gg.check(kept, (sol, "post-selection never succeeds")) == (True, [])
    failed, problems = gg.check(good, (sol, flipped))
    assert failed and problems


def test_kept_brackets_hold():
    for nodes, (lo, hi) in workloads.KEPT_FAILING.items():
        assert checks.check_bracket(nodes, lo, hi) == []
        assert checks.check_bracket(nodes, lo - Fraction(1, 10), lo)


@pytest.fixture(scope="module")
def identities():
    wl = workloads.Identities(seed=4)
    return wl, wl.ops[0], wl.run(wl.ops[0])


def test_identities_checks_pass_the_program(identities):
    wl, op, out = identities
    assert wl.check(op, out) == (False, [])
    assert wl.final_problems() == []


@pytest.mark.parametrize("corruption", ["instances", "residual", "pass"])
def test_identities_check_rejects_corruption(identities, corruption):
    wl, op, out = identities
    doc = json.loads(out.text)
    first = doc["suites"]["c"][0]
    if corruption == "instances":
        first["instances"] -= 1
    elif corruption == "residual":
        doc["suites"]["b"][0]["max_residual"] = 1e-6
    else:
        doc["pass"] = False
    failed, problems = wl.check(op, workloads.CliOutput(0, json.dumps(doc)))
    assert failed and problems


def test_spans_give_self_time_and_nested_counts():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    tracer.wrap("outer", outer)()
    assert tracer.drain(inside="outer", counted="leaf") == 2
    stats = tracer.totals
    assert stats["leaf"]["calls"] == 2 and stats["outer"]["calls"] == 1
    assert stats["outer"]["self_s"] == pytest.approx(stats["outer"]["time_s"] - stats["leaf"]["time_s"], abs=1e-12)
    assert stats["leaf"]["self_s"] == stats["leaf"]["time_s"]
    traced_leaf()
    assert tracer.drain(inside="outer", counted="leaf") == 0
    assert stats["leaf"]["calls"] == 3 and stats["outer"]["calls"] == 1
    assert stats["leaf"]["self_s"] == stats["leaf"]["time_s"]
