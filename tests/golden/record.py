"""Record the CLI outputs that tests/test_cli.py compares byte for byte.

Run from the repository root, on a tree whose outputs are known to be right:

    PYTHONPATH=src python tests/golden/record.py

It rewrites tests/golden/cli_outputs.json with the exit code and stdout of
every command below, on all six fields.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from iqselmer.cli import main
from iqselmer.quadfield import SUPPORTED_DISCS

GOLDEN = Path(__file__).with_name("cli_outputs.json")

# inert, split and ramified primes of every field, powers of 2, negative
# squares, a fourth power to strip and products of three split primes; b
# divisible by the ramified prime |D| (12, 15 and -33 on D = -3, -33 on -11,
# -1729 and 6916 on -19) is ranked like every other b
SELRANK_B = (1, -1, 2, -4, 12, 17, -5, 13, -25, 15, -33, 405, -1729, 6916)

# every k_reason form (inert, split and ramified factors, gcd with D) and
# the NotSquarefree errors for 0 and 12
CONGRUENT_N = (1, 2, 5, 7, 15, 82, 170, 0, 12)


def commands() -> list[list[str]]:
    out: list[list[str]] = []
    for D in SUPPORTED_DISCS:
        d = str(D)
        out += [["selrank", "--disc", d, "--b", str(b), "--show-generators"] for b in SELRANK_B]
        out.append(["congruent", "scan", "--disc", d, "--max", "600"])
        out.append(["verify", "theorems", "--disc", d, "--pmax", "60"])
        out.append(["verify", "oracle", "--disc", d, "--bmax", "8"])
        out += [["congruent", "check", "--disc", d, "--n", str(n)] for n in CONGRUENT_N]
    out.append(["selrank", "--disc", "-3", "--b", "-1729", "--table", "--show-generators"])
    # deeper sweeps: more inert places for the oracle, more curves per family
    out += [["verify", "oracle", "--disc", d, "--bmax", "20"] for d in ("-3", "-19", "-11", "-43", "-67", "-163")]
    out.append(["verify", "theorems", "--disc", "-3", "--pmax", "150"])
    return out


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def record() -> None:
    rows = []
    for argv in commands():
        code, out = run(argv)
        rows.append({"argv": argv, "exit": code, "stdout": out})
    GOLDEN.write_text(json.dumps(rows, indent=0) + "\n")


if __name__ == "__main__":
    record()
