"""Tests of the benchmark itself: every check rejects a wrong output, a small
round of every workload passes its checks, traced call counts repeat, and
the command fails without the program's sources.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads as w
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent


def _round(plan: w.Plan, trace: bool = False, oracle: bool = True) -> dict:
    return run.run_round(plan, commands=True, trace=trace, oracle=oracle, spans_out=None,
                         deadline=time.perf_counter() + 170)


def _outputs(plan: w.Plan, reply: dict) -> list:
    assert all(c["rc"] == 0 for c in reply["commands"])
    return [w.parse_output(plan.workload, c["out"]) for c in reply["commands"]]


def _small_inert_plan() -> w.Plan:
    plan = w.Plan("selrank-inert", ["selrank", "--disc", "-3", "--b", "17"], [])
    for D, b in ((-3, 23), (-11, -7), (-19, 13), (-43, -5)):
        plan.commands.append(["selrank", "--disc", str(D), "--b", str(b)])
        plan.meta.append({"D": D, "b": b})
    return plan


@pytest.fixture(scope="module")
def smoke() -> dict:
    """One small round of every workload, run through the benchmark's worker."""
    plans = {
        "selrank-split": w.plan_selrank_split(1, triples=1),
        "selrank-inert": _small_inert_plan(),
        "congruent-scan": w.plan_congruent_scan(1, top=110, jitter=50),
        "verify-oracle": w.plan_verify_oracle(1, bmax=4),
    }
    out = {}
    for name, plan in plans.items():
        reply = _round(plan)
        dims = {int(b): d for b, d in reply["oracle_dims"].items()}
        out[name] = (plan, _outputs(plan, reply), dims)
    return out


def test_smoke_rounds_pass_their_checks(smoke):
    for name, (plan, outs, dims) in smoke.items():
        assert w.check_round(plan, outs, dims) == [], name
    assert smoke["selrank-split"][2], "the oracle recomputed no curve"


def test_plans_repeat_by_seed_and_cover_the_fields():
    for name, make in w.PLANS.items():
        a, b = make(7), make(7)
        assert (a.commands, a.oracle_curves) == (b.commands, b.oracle_curves), name
        assert a.commands != make(8).commands or name == "verify-oracle", name
    split = w.plan_selrank_split(7)
    # every -4b curve is tied by the swap to a b curve the oracle recomputes
    assert {b for _, b in split.oracle_curves} == {m["partner"] for m in split.meta if m["b"] % 4 == 0}
    inert = w.plan_selrank_inert(3)
    assert {m["D"] for m in inert.meta} == set(w.DISCS)
    assert len({(m["D"], abs(m["b"])) for m in inert.meta}) == len(inert.meta)
    assert {abs(m["b"]) for m in inert.meta} == set(w.inert_primes())


def test_split_check_rejects_a_rank_off_by_one(smoke):
    plan, outs, dims = smoke["selrank-split"]
    bad = copy.deepcopy(outs)
    bad[0]["dim_phi"] += 1
    bad[0]["sel_rank2"] += 1
    assert any("swapped" in e for e in w.check_round(plan, bad, dims))
    wrong_oracle = {b: [d[0] + 1, d[1]] for b, d in dims.items()}
    assert any("oracle" in e for e in w.check_round(plan, outs, wrong_oracle))


def test_inert_check_rejects_a_rank_off_by_one(smoke):
    plan, outs, dims = smoke["selrank-inert"]
    bad = copy.deepcopy(outs)
    bad[1]["dim_phihat"] -= 1
    bad[1]["sel_rank2"] -= 1
    assert any("closed form" in e for e in w.check_round(plan, bad, dims))
    bad = copy.deepcopy(outs)
    bad[2]["sel_rank2"] += 1
    assert w.check_round(plan, bad, dims)


def test_scan_check_rejects_a_dropped_n_and_flipped_verdicts(smoke):
    plan, outs, dims = smoke["congruent-scan"]
    i = next(k for k, m in enumerate(plan.meta) if m["D"] == -3)
    dropped = copy.deepcopy(outs)
    del dropped[i][5]
    assert any("missing" in e for e in w.check_round(plan, dropped, dims))

    flipped = copy.deepcopy(outs)
    ten = next(v for v in flipped[i] if v["n"] == 10)
    ten["k_status"] = "UndeterminedK"
    errs = w.check_round(plan, flipped, dims)
    assert any("n=10" in e for e in errs)

    off = copy.deepcopy(outs)
    ranked = next(v for v in off[i] if v["sel_rank"] is not None)
    ranked["sel_rank"] += 1
    assert w.check_round(plan, off, dims)

    # 5 is congruent (the 3-4-5 triangle halved), so Tunnell's equality holds
    false_claim = copy.deepcopy(outs)
    five = next(v for v in false_claim[i] if v["n"] == 5)
    five["q_status"] = "NotCongruentQ"
    assert any("Tunnell" in e for e in w.check_round(plan, false_claim, dims))

    rank_outside = copy.deepcopy(outs)
    inapplicable = next(v for v in rank_outside[i] if v["k_status"] == "Inapplicable")
    inapplicable["sel_rank"] = 2
    assert w.check_round(plan, rank_outside, dims)


def test_tunnell_counts_match_known_congruent_numbers():
    t = w.Tunnell(200)
    congruent = {5, 6, 7, 13, 14, 15, 21, 22, 23, 29, 30, 31, 34, 37, 38, 39, 41, 46, 47}
    for n in range(1, 48):
        if w.squarefree(n):
            assert t.equality_holds(n) == (n in congruent), n


def test_oracle_check_rejects_a_failed_sweep_and_a_wrong_count(smoke):
    plan, outs, dims = smoke["verify-oracle"]
    bad = copy.deepcopy(outs)
    bad[0]["pass"] = False
    assert w.check_round(plan, bad, dims)
    bad = copy.deepcopy(outs)
    bad[3]["spaces"] -= 2
    assert any("spaces" in e for e in w.check_round(plan, bad, dims))


def test_traced_call_counts_repeat_and_cover_every_metric():
    plan = w.plan_verify_oracle(2, bmax=3)
    first, second = (_round(plan, trace=True, oracle=False)["totals"] for _ in range(2))
    names = {name for name, _ in PER_LAYER}
    assert names <= set(first)
    calls = {k: v for k, v in first.items() if k.endswith((".calls", ".items", ".instances"))}
    assert calls == {k: second[k] for k in calls}
    assert first["localsolve.oracle_search.calls"] > 0
    assert first["cli.main.calls"] == len(plan.commands)


def test_times_are_scaled_by_the_kernel_runs_beside_them():
    ref = run.REFERENCE_S
    refs = [ref, 3 * ref, 2 * ref, 4 * ref]
    per_command, setup = run.speed_scale({"commands": [{}, {}, {}], "refs": refs})
    assert per_command == pytest.approx([1 / 2, 1 / 2.5, 1 / 3])
    assert setup == pytest.approx(1 / 2.5)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "selrank-split", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_result_line_has_the_benchmark_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in PER_LAYER]
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [x["name"] for x in spec["workloads"]] == list(w.WORKLOADS)
