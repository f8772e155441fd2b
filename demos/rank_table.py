#!/usr/bin/env python3
"""Tabulate 2-Selmer ranks of y^2 = x^3 + b*x across all six fields.

One row per coefficient b, one column per discriminant; every b is ranked,
those divisible by the ramified prime |D| included.  Whenever a closed-form
theorem covers b the script asserts the pipeline reproduces it, so every
printed rank on such a family is doubly derived.
"""

from __future__ import annotations

import argparse

from iqselmer.descent import closed_form_rank, selmer_rank2
from iqselmer.quadfield import SUPPORTED_DISCS, curve_spec, make_field


def cell(b: int, D: int) -> str:
    spec = curve_spec(b, make_field(D))
    rank = selmer_rank2(spec).sel_rank2
    closed = closed_form_rank(spec)
    assert closed is None or closed == rank, (b, D)
    return str(rank)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bmax", type=int, default=20, help="tabulate |b| up to this bound (default 20)")
    args = ap.parse_args()

    bs = [s * n for n in range(1, args.bmax + 1) for s in (1, -1)]
    rows = [(b, [cell(b, D) for D in SUPPORTED_DISCS]) for b in bs]

    header = ["b".rjust(5)] + [f"D={D}".rjust(7) for D in SUPPORTED_DISCS]
    print("  ".join(header))
    for b, cells in rows:
        print("  ".join([str(b).rjust(5)] + [c.rjust(7) for c in cells]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
