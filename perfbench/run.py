"""Benchmark of iqselmer: four workloads, timed end to end and, traced, per layer.

    python3 perfbench/run.py --workload selrank-split --seed 1 --seconds 15 --trace 0

Each round of a workload runs in a fresh interpreter (perfbench/worker.py)
with SELMER_THREADS=1: it imports iqselmer.cli from ./src, runs one warm-up
command, then the round's seeded commands one after another through
iqselmer.cli.main.  Rounds repeat until the commands have used --seconds of
CPU time.  Every time reported is CPU time of the worker, scaled to a
fixed speed of the machine: the worker times a fixed reference kernel after
the warm-up and after every command, and each time is multiplied by
REFERENCE_S / (the kernel's time around it), see speed_scale.
Every output is checked by perfbench/workloads.py.  The last line of stdout
is one JSON object: correct, attempted, failed and the metrics, end-to-end
ones with --trace 0 and per-layer ones with --trace 1.  Exit code 0 when
every check passes, 1 when one fails, 2 when the benchmark cannot run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER
from workloads import PLANS, WORKLOADS, Plan, check_round, parse_output, units_of_work

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
RUN_BUDGET_S = 165  # a run ends within 180 s: no round starts that would pass this
SETUP_SAMPLES = 5
# CPU seconds of worker.reference() on the machine at its fastest; times are
# reported as if the kernel had taken this long beside them (see speed_scale)
REFERENCE_S = 0.04
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_s", "s"),
    ("curves_per_s", "1/s"),
)


class BenchError(Exception):
    pass


def reference_loop() -> str:
    """CPU and wall seconds of a fixed pure-Python loop; printed to tell machine drift from program change."""
    c0, w0 = time.process_time(), time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return f"{time.process_time() - c0:.4f} s CPU, {time.perf_counter() - w0:.4f} s wall"


def call_worker(warmup: list[str], commands: list[list[str]], *, timeout: float, trace: bool = False,
                oracle_curves: list = (), spans_out: Path | None = None, stderr=None,
                preexec_fn=None) -> tuple[int, str, str]:
    """Run perfbench/worker.py once and wait for it; (exit code, stdout, stderr).

    Raises subprocess.TimeoutExpired after killing a worker that outlives timeout."""
    env = dict(os.environ, SELMER_THREADS="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    req = {
        "src": str(SRC),
        "warmup": warmup,
        "commands": commands,
        "trace": trace,
        "oracle_curves": list(oracle_curves),
        "spans_out": str(spans_out) if spans_out else None,
    }
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=stderr,
        cwd=ROOT,
        env=env,
        text=True,
        preexec_fn=preexec_fn,
    )
    try:
        out, err = proc.communicate(json.dumps(req), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out, err or ""


def speed_scale(reply: dict) -> tuple[list[float], float]:
    """Factors that turn a round's CPU times into times at the reference speed:
    one per command, from the median of the four kernel runs nearest to it
    (two before, two after; fewer at the ends of the round), and one for the
    set-up, from the median kernel run of the round."""
    refs = reply["refs"]  # refs[i] runs just before command i, refs[i + 1] just after
    per_command = [REFERENCE_S / statistics.median(refs[max(0, i - 1) : i + 3]) for i in range(len(reply["commands"]))]
    return per_command, REFERENCE_S / statistics.median(refs)


def run_round(plan: Plan, *, commands: bool, trace: bool, oracle: bool, spans_out: Path | None, deadline: float) -> dict:
    """One round in a fresh worker (or, without commands, one set-up sample)."""
    try:
        rc, out, _ = call_worker(
            plan.warmup,
            plan.commands if commands else [],
            timeout=max(1.0, deadline - time.perf_counter()),
            trace=trace,
            oracle_curves=plan.oracle_curves if oracle else [],
            spans_out=spans_out,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a round ran past the run's time budget") from None
    if rc != 0 or not out.strip():
        raise BenchError(f"worker exited with code {rc}")
    return json.loads(out.splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    if not (SRC / "iqselmer" / "cli.py").is_file():
        raise BenchError(f"no iqselmer sources under {SRC}")
    deadline = time.perf_counter() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    plan = PLANS[workload](seed)
    log(f"{workload} seed={seed}: {len(plan.commands)} commands per round; reference loop {reference_loop()}")

    rounds: list[tuple[bool, dict]] = []  # (traced, reply)
    timed = 0.0
    while True:
        traced = trace and len(rounds) % 2 == 1  # traced runs alternate plain and traced rounds
        t0 = time.perf_counter()
        reply = run_round(plan, commands=True, trace=traced, oracle=not rounds, deadline=deadline,
                          spans_out=OUT / f"{workload}-s{seed}-spans.json.gz" if traced else None)
        rounds.append((traced, reply))
        timed += sum(c["s"] for c in reply["commands"])
        wall = time.perf_counter() - t0
        if timed >= seconds and (not trace or len(rounds) >= 2):
            break
        if time.perf_counter() + 1.5 * wall > deadline:
            log(f"stopping after {len(rounds)} rounds ({timed:.1f} s of commands) to stay within the time budget")
            break
    setups = [r["setup_s"] * speed_scale(r)[1] for _, r in rounds]
    while len(setups) < SETUP_SAMPLES and time.perf_counter() + 5 < deadline:
        r = run_round(plan, commands=False, trace=False, oracle=False, spans_out=None, deadline=deadline)
        setups.append(r["setup_s"] * speed_scale(r)[1])

    # outputs: every round must repeat the first byte for byte; the first is checked
    first = rounds[0][1]["commands"]
    problems: list[str] = []
    parsed = []
    for i, c in enumerate(first):
        if c["rc"] != 0:
            parsed.append(None)
            continue
        try:
            parsed.append(parse_output(workload, c["out"]))
        except ValueError:
            problems.append(f"command {plan.commands[i]} printed no JSON")
            parsed.append(None)
    for _, r in rounds[1:]:
        for i, c in enumerate(r["commands"]):
            if (c["rc"], c["out"]) != (first[i]["rc"], first[i]["out"]):
                problems.append(f"command {plan.commands[i]} gave another output in a later round")
    oracle_dims = {int(b): dims for b, dims in rounds[0][1]["oracle_dims"].items()}
    problems += rounds[0][1]["oracle_errors"] + check_round(plan, parsed, oracle_dims)
    attempted = sum(len(r["commands"]) for _, r in rounds)
    failed = sum(c["rc"] != 0 for _, r in rounds for c in r["commands"])

    plain = [r for traced, r in rounds if not traced]
    # scaled[k][i]: command i of plain round k, in seconds at the reference speed
    scaled = [[c["s"] * f for c, f in zip(r["commands"], speed_scale(r)[0])] for r in plain]
    times = [t for r, ts in zip(plain, scaled) for c, t in zip(r["commands"], ts) if c["rc"] == 0]
    busy = sum(times)
    # each command's latency is its median over the rounds; the p50 is taken
    # over the round's distinct commands, whose costs differ by input
    per_command = [
        statistics.median(ts[i] for ts in scaled)
        for i, out in enumerate(parsed) if out is not None
    ]
    work = units_of_work(plan, parsed)
    n_rounds = len(plain)
    ends = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "latency_p50_s": statistics.median(per_command) if per_command else 0.0,
        "curves_per_s": work["curves"] * n_rounds / busy if busy else 0.0,
    }
    busy_cpu = sum(c["s"] for r in plain for c in r["commands"] if c["rc"] == 0)
    busy_wall = sum(c["wall_s"] for r in plain for c in r["commands"] if c["rc"] == 0)
    refs = [x for r in plain for x in r["refs"]]
    notes = [f"{len(times)} timed commands in {n_rounds} rounds: {busy:.3f} s at the reference speed, "
             f"{busy_cpu:.3f} s CPU, {busy_wall:.3f} s wall; reference kernel median {statistics.median(refs):.4f} s "
             f"(REFERENCE_S {REFERENCE_S}); {len(setups)} set-up samples"]
    if "n" in work and busy:
        notes.append(f"n_per_s {work['n'] * n_rounds / busy:.2f}")
    if "place_checks" in work and busy:
        notes.append(f"place_checks_per_s {work['place_checks'] * n_rounds / busy:.2f}")
    if len(times) >= 100:
        notes.append(f"latency_p90_s {statistics.quantiles(times, n=10)[-1]:.4f}")

    if trace:
        traced_rounds = [r for t, r in rounds if t]
        n_cmds = sum(len(r["commands"]) for r in traced_rounds)
        totals: dict[str, float] = {}
        for r in traced_rounds:
            for k, v in r["totals"].items():
                totals[k] = totals.get(k, 0) + v
        per_cmd = {name: totals.get(name, 0) / n_cmds for name, _ in PER_LAYER}
        traced_busy = sum(c["s"] * f for r in traced_rounds for c, f in zip(r["commands"], speed_scale(r)[0]))
        overhead = (traced_busy / n_cmds) / (busy / len(times)) - 1 if times else 0.0
        notes.append(f"tracing overhead {100 * overhead:+.1f}% per command against the plain rounds of this run")
        metrics = {name: {"value": per_cmd[name], "unit": unit} for name, unit in PER_LAYER}
        summary = {"workload": workload, "seed": seed, "per_command": per_cmd, "totals": totals,
                   "traced_commands": n_cmds, "tracing_overhead": overhead, "end_to_end": ends}
        (OUT / f"{workload}-s{seed}-trace.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    else:
        metrics = {name: {"value": ends[name], "unit": unit} for name, unit in END_TO_END}
    log(f"reference loop {reference_loop()}; " + "; ".join(notes))
    for p in problems[:20]:
        log(f"CHECK FAILED: {p}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, problems


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="command CPU time to measure per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from traced rounds")
    args = ap.parse_args(argv)
    try:
        result, problems = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        log(f"benchmark failed: {exc}")
        return 2
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
