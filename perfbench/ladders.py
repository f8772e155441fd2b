"""Growth ladders of selrank over Q(sqrt(-3)): reference figures, not metrics.

    python3 perfbench/ladders.py

Two ladders, each rung one `selrank` in its own worker process with a
wall-clock timeout of 60 s and an address-space limit of 2 GiB set on that
child:

* inert: b = the smallest prime >= 10^k inert in Q(sqrt(-3)), k = 2..5
  (101, 1013, 10007, 100019; 100003 splits there);
* split: b = the product of the first k split primes (7, 13, 19, ...), k = 3..8.

A rung records its CPU time and peak memory, or "timeout" or "memory" when
it exceeds a limit.  The results are printed as JSON and written to
perfbench/out/ladders.json.
"""
from __future__ import annotations

import json
import resource
import subprocess
import sys
from math import prod

from run import OUT, call_worker
from workloads import is_prime, place_kind

D = -3
TIMEOUT_S = 60
MEMORY_BYTES = 2 << 30


def inert_rungs() -> list[int]:
    out = []
    for k in range(2, 6):
        p = 10**k
        while not (is_prime(p) and place_kind(p, D) == "inert"):
            p += 1
        out.append(p)
    return out


def split_rungs() -> list[int]:
    primes = [p for p in range(3, 100) if is_prime(p) and place_kind(p, D) == "split"]
    return [prod(primes[:k]) for k in range(3, 9)]


def run_rung(b: int) -> dict:
    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))

    argv = ["selrank", "--disc", str(D), "--b", str(b)]
    try:
        rc, out, err = call_worker(["selrank", "--disc", str(D), "--b", "17"], [argv], timeout=TIMEOUT_S,
                                   stderr=subprocess.PIPE, preexec_fn=limit)
    except subprocess.TimeoutExpired:
        return {"b": b, "result": "timeout"}
    if "MemoryError" in err:
        return {"b": b, "result": "memory"}
    if rc != 0:
        return {"b": b, "result": f"worker exited {rc}", "stderr": err[-500:]}
    cmd = json.loads(out.splitlines()[-1])["commands"][0]
    if cmd["rc"] != 0:
        return {"b": b, "result": f"selrank exited {cmd['rc']}", "stderr": err[-500:]}
    report = json.loads(cmd["out"])
    peak = json.loads(out.splitlines()[-1])["peak_rss_mb"]
    return {"b": b, "result": "ok", "seconds": cmd["s"], "peak_rss_mb": peak, "sel_rank2": report["sel_rank2"]}


def main() -> int:
    ladders = {"inert": inert_rungs(), "split": split_rungs()}
    results: dict[str, list[dict]] = {}
    for name, rungs in ladders.items():
        results[name] = []
        for b in rungs:
            row = run_rung(b)
            print(f"{name} b={b}: {row}", file=sys.stderr, flush=True)
            results[name].append(row)
    doc = {"disc": D, "timeout_s": TIMEOUT_S, "memory_mb": MEMORY_BYTES >> 20, "ladders": results}
    OUT.mkdir(exist_ok=True)
    (OUT / "ladders.json").write_text(json.dumps(doc, indent=1))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
