"""One round of a workload in a fresh interpreter.

Reads a JSON request on stdin, imports ``iqselmer.cli`` from the checkout's
``src``, runs the warm-up command, then runs the round's commands one after
another through ``iqselmer.cli.main(argv)`` with stdout captured (one client,
closed loop).  Writes one JSON object to stdout: set-up time, the time, exit
code and output of every command, peak resident memory and, when traced, the
per-layer totals.  Started by run.py; not meant to be run by hand.

Times are CPU seconds of this process (user + system), not wall time: the
worker is single-threaded, so its CPU time is the program's work, while wall
time also counts the moments the machine gives the core to someone else.
CPU time still follows the speed of the core, which on a shared machine
changes from second to second with what runs beside it, so the worker also
times a fixed reference kernel after the warm-up and after every command;
run.py divides each command's time by that of the kernel runs around it.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter, process_time


def reference() -> float:
    """CPU seconds of a fixed kernel of the work iqselmer does: small-integer
    arithmetic in a Python loop, trial division, and sets and dicts of residue
    pairs (as in the square sets of F_{p^2}).  It allocates under 1 MB."""
    t0 = process_time()
    acc = 0
    for i in range(150_000):
        acc = (acc + i * i) % 1_000_003
    for n in range(1_000_003, 1_000_003 + 1000):
        d = 2
        while d * d <= n:
            while n % d == 0:
                n //= d
            d += 1
    p = 127
    for _ in range(3):
        squares = {((x * x - 3 * y * y) % p, 2 * x * y % p) for x in range(p) for y in range(p)}
        counts: dict[int, int] = {}
        for x, y in squares:
            counts[x] = counts.get(x, 0) + y
    return process_time() - t0


def _run(main, argv: list[str]) -> tuple[int, str, float, float]:
    buf = io.StringIO()
    t0, w0 = process_time(), perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash counts as a failed command; the round goes on
        traceback.print_exc(file=sys.stderr)
        rc = -1
    return rc, buf.getvalue(), process_time() - t0, perf_counter() - w0


def _oracle_dims(D: int, b: int) -> list[int]:
    """dim S^(phi), dim S^(phihat) with every candidate decided by the search
    oracle at every bad place instead of by the predicates."""
    from iqselmer.localsolve import HomSpace, VerdictTag, bad_places, oracle_search
    from iqselmer.quadfield import Side, make_field, selmer_candidates

    F = make_field(D)
    dims = []
    for side in (Side.PHI, Side.PHIHAT):
        solvable = 0
        for c in selmer_candidates(b, side, F):
            space = HomSpace(a=F.of(0), b1=c.b1, b2=c.b2, side=side)
            verdicts = (oracle_search(space, pl).tag for pl in bad_places(space, F))
            for tag in verdicts:
                if tag is VerdictTag.Unknown:
                    raise RuntimeError(f"oracle undecided for b={b}, class {c.b1}")
                if tag is VerdictTag.Insolvable:
                    break
            else:
                solvable += 1
        dim = solvable.bit_length() - 1
        if solvable != 1 << dim:
            raise RuntimeError(f"b={b}: {solvable} solvable classes is not a power of 2")
        dims.append(dim)
    return dims


def main() -> int:
    req = json.loads(sys.stdin.read())
    src = os.path.realpath(req["src"])
    sys.path.insert(0, src)
    import iqselmer.cli as cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"iqselmer imported from {cli.__file__}, not from {src}")
    rc, out, _, _ = _run(cli.main, req["warmup"])
    if rc != 0:
        raise SystemExit(f"warm-up {req['warmup']} exited {rc}: {out[-500:]}")
    setup_s = process_time()  # since the interpreter started
    refs = [reference() for _ in range(1 if req["commands"] else 3)]

    tracer = None
    if req["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    for i, argv in enumerate(req["commands"]):
        if tracer is not None:
            tracer.current_command = i
        results.append(_run(cli.main, argv))
        refs.append(reference())
    if tracer is not None:
        tracer.uninstall()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    oracle, oracle_errors = {}, []
    for D, b in req["oracle_curves"]:
        try:
            oracle[str(b)] = _oracle_dims(D, b)
        except RuntimeError as exc:
            oracle_errors.append(str(exc))
    reply = {
        "setup_s": setup_s,
        "refs": refs,  # refs[i] and refs[i + 1] bracket command i
        "peak_rss_mb": peak_rss_kb / 1024,
        "commands": [{"rc": rc, "out": out, "s": s, "wall_s": w} for rc, out, s, w in results],
        "oracle_dims": oracle,
        "oracle_errors": oracle_errors,
    }
    if tracer is not None:
        reply["totals"] = tracer.totals()
        if req.get("spans_out"):
            tracer.write(req["spans_out"], {"commands": req["commands"]})
    sys.stdout.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
