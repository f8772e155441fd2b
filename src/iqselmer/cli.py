"""Command-line surface: ranks, congruent-number scans, verification suites.

Every subcommand prints one JSON object with sorted keys, except
``congruent scan``, which streams one JSON object per line so large scans
can be consumed incrementally.  Exit codes: 0 on success, 1 on a domain
error (a structured ``{"error": ...}`` object is printed), 2 on a usage
error (argparse).  Output is byte-identical across runs for identical
inputs.
"""

from __future__ import annotations

import argparse
import json
from functools import lru_cache

from . import arith
from .charsums import MAX_DEGREE, default_field, exception_scan
from .congruent import (
    CongruentVerdict,
    congruent_verdict,
    iter_verdicts,
    rank_formula_obstruction,
)
from .descent import closed_form_rank, selmer_rank2
from .errors import DomainError, InternalInconsistency
from .localsolve import VerdictTag, bad_places, everywhere_verdicts, oracle_search
from .quadfield import (
    CurveSpec,
    FieldCtx,
    Place,
    PlaceKind,
    Side,
    curve_spec,
    make_field,
    selmer_candidates,
    splitting_type,
    squarefree_factors,
)
from .residue2adic import (
    FOURTH_POWERS_MOD8,
    UNIT_SQUARES_MOD8,
    R8Elem,
    embed_mod8,
    pair_charpoly_mod8,
)


# json.dumps(payload, sort_keys=True) builds an encoder per call; a scan
# prints one line per n
_ENCODER = json.JSONEncoder(sort_keys=True)


def _emit(payload: dict) -> None:
    print(_ENCODER.encode(payload))


def _field_name(F: FieldCtx) -> str:
    return f"Q(sqrt({F.D}))"


def _place_label(pl: Place) -> str:
    return f"{pl.kind.value}@{pl.p}"


# ---------------------------------------------------------------------------
# selrank


def _cmd_selrank(args: argparse.Namespace) -> int:
    F = make_field(args.disc)
    spec = curve_spec(args.b, F)
    rep = selmer_rank2(spec)

    if args.table:
        rows = [
            ("curve", f"y^2 = x^3 + ({spec.b})*x over {_field_name(F)}"),
            ("b (as given)", str(args.b)),
            ("dim S^(phi)", str(rep.dim_phi)),
            ("dim S^(phihat)", str(rep.dim_phihat)),
            ("2-Selmer rank", str(rep.sel_rank2)),
            ("full 2-torsion", str(rep.torsion_full)),
            ("cases fired", ", ".join(rep.cases_fired)),
        ]
        if args.show_generators:
            # a trailing * marks the class of a rational 2-torsion point
            def fmt(gens) -> str:
                return ", ".join(str(g.b1) + ("*" if g.torsion else "") for g in gens)

            rows.insert(4, ("S^(phi) basis", fmt(rep.gens_phi)))
            rows.insert(5, ("S^(phihat) basis", fmt(rep.gens_phihat)))
        width = max(len(k) for k, _ in rows)
        for k, v in rows:
            print(f"{k:<{width}}  {v}")
        return 0

    payload = {
        "command": "selrank",
        "disc": F.D,
        "field": _field_name(F),
        "b": args.b,
        "b_reduced": spec.b,
        "dim_phi": rep.dim_phi,
        "dim_phihat": rep.dim_phihat,
        "sel_rank2": rep.sel_rank2,
        "torsion_full": rep.torsion_full,
        "cases_fired": list(rep.cases_fired),
    }
    if args.show_generators:
        payload["generators_phi"] = [{"rep": str(g.b1), "torsion": g.torsion} for g in rep.gens_phi]
        payload["generators_phihat"] = [
            {"rep": str(g.b1), "torsion": g.torsion} for g in rep.gens_phihat
        ]
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# congruent


def _verdict_payload(v: CongruentVerdict) -> dict:
    return {
        "n": v.n,
        "q_status": v.q_status.value,
        "q_criterion": None if v.q_criterion is None else v.q_criterion.value,
        "k_status": v.k_status.value,
        "k_reason": v.k_reason,
        "sel_rank": v.sel_rank,
        "k": v.k,
        "conditional_on": v.conditional_on,
        "text": str(v),
    }


def _cmd_congruent_check(args: argparse.Namespace) -> int:
    F = make_field(args.disc)
    payload = {"command": "congruent check", "disc": F.D, "field": _field_name(F)}
    payload.update(_verdict_payload(congruent_verdict(args.n, F)))
    _emit(payload)
    return 0


# largest --max: the scan factors every n up to it, about 9 s at 10^5
MAX_SCAN = 10**6


def _cmd_congruent_scan(args: argparse.Namespace) -> int:
    if args.max > MAX_SCAN:
        raise DomainError(f"--max must be at most {MAX_SCAN}, got {args.max}")
    F = make_field(args.disc)
    for v in iter_verdicts(args.max, F, only_new=args.only_new):
        _emit(_verdict_payload(v))
    return 0


# ---------------------------------------------------------------------------
# verify suites


def _cmd_verify_squares(_args: argparse.Namespace) -> int:
    # recompute: square all units of O/8 through the ring arithmetic
    units = [R8Elem(c0, c1) for c0 in range(8) for c1 in range(8) if R8Elem(c0, c1).is_unit()]
    if len(units) != 48:  # 64 residues minus the 16 with both coords even
        raise InternalInconsistency(f"{len(units)} units in O/8, not 48")
    squares = {u * u for u in units}
    fourths = {u**4 for u in units}
    payload = {
        "command": "verify squares-mod8",
        "expected": 6,
        "found": len(squares),
        "fourth_expected": 3,
        "fourth_found": len(fourths),
        "squares": sorted(str(r) for r in squares),
        "fourth_powers": sorted(str(r) for r in fourths),
        "pass": squares == set(UNIT_SQUARES_MOD8) and fourths == set(FOURTH_POWERS_MOD8),
    }
    _emit(payload)
    return 0


def _odd_prime_powers(lo: int, hi: int) -> list[int]:
    return [q for q in range(lo, hi + 1) if q % 2 == 1 and len(arith.factorint(q)) == 1]


def _degree4_exceptions_q9() -> tuple:
    # F_9^* is cyclic of order 8, so c*x^4 + d only takes d and d +/- c; with d
    # a nonsquare and c = +/-d these are d, -d and 0, and -d is a nonsquare too
    F9 = default_field(9)
    nonsquares = [x for x in F9.elements() if F9.chi(x) == -1]
    return tuple(sorted((c, d) for d in nonsquares for c in (d, F9.neg(d))))


# every (c, d) pair with q >= 5 where the degree-4 existence claim fails: four
# over F_5 and eight over F_9.  No other q has any: for q = 3 mod 4 the fourth
# powers are the squares (degree 2, exception-free for q > 3), and for
# q = 1 mod 4, q >= 13, Hasse-Weil on y^2 = c*x^4 + d gives a point with y != 0.
_DEGREE4_EXCEPTIONS = {5: ((1, 2), (2, 3), (3, 2), (4, 3)), 9: _degree4_exceptions_q9()}


def _cmd_verify_charsum(args: argparse.Namespace) -> int:
    # fail before scanning: 3^(MAX_DEGREE + 1) is the least odd prime power
    # whose residue field has a degree above MAX_DEGREE
    first_unsupported = 3 ** (MAX_DEGREE + 1)
    if args.qmax >= first_unsupported:
        raise DomainError(
            f"--qmax must be below {first_unsupported} = 3^{MAX_DEGREE + 1}: "
            f"residue fields of degree above {MAX_DEGREE} are not supported"
        )
    qs = _odd_prime_powers(5, args.qmax)
    rows = [(q, exception_scan(args.degree, q)) for q in qs]
    expected = _DEGREE4_EXCEPTIONS if args.degree == 4 else {}
    mismatches = [q for q, found in rows if tuple(found) != expected.get(q, ())]
    payload = {
        "command": "verify charsum",
        "degree": args.degree,
        "qmax": args.qmax,
        "prime_powers_scanned": len(qs),
        "exceptions": {str(q): [list(cd) for cd in found] for q, found in rows if found},
        "mismatches": mismatches,
        "pass": not mismatches,
    }
    _emit(payload)
    return 0


# largest trace-lemma --pmax: the sweep sieves every prime up to it
MAX_TRACE_PMAX = 10**6


def _cmd_verify_trace(args: argparse.Namespace) -> int:
    if args.pmax > MAX_TRACE_PMAX:
        raise DomainError(f"--pmax must be at most {MAX_TRACE_PMAX}, got {args.pmax}")
    F = make_field(args.disc)
    split = [p for p in arith.primes_upto(args.pmax) if p > 2 and splitting_type(p, F).kind is PlaceKind.SPLIT]
    one, two = R8Elem(1, 0), R8Elem(2, 0)

    def check(p: int) -> tuple[int, bool, str, str]:
        s = splitting_type(p, F)
        a8 = embed_mod8(s.alpha, F)
        c8 = embed_mod8(s.alpha.conj(), F)
        minus = pair_charpoly_mod8(a8, c8, "-")  # (x - a^3)(x - abar^3)
        plus = pair_charpoly_mod8(a8, c8, "+")  # (x - a^3)(x + abar^3)
        square = a8 in UNIT_SQUARES_MOD8
        identity = minus.t == two and minus.s == one  # charpoly x^2 - 2x + 1
        ok = minus.member and plus.member and square == identity
        return p, ok, str(minus.t), str(minus.s)

    rows = [check(p) for p in split]
    exceptions = [{"p": p, "s": s_, "t": t} for p, ok, t, s_ in rows if not ok]
    payload = {
        "command": "verify trace-lemma",
        "disc": F.D,
        "pmax": args.pmax,
        "split_primes_checked": len(split),
        "exceptions": exceptions,
        "pass": not exceptions,
    }
    _emit(payload)
    return 0


# largest --bmax: the sweep factors every n up to it before the first search
MAX_BMAX = 10**4


def _cmd_verify_oracle(args: argparse.Namespace) -> int:
    if not 1 <= args.bmax <= MAX_BMAX:
        # a sweep over no b makes no check, so it cannot pass
        raise DomainError(f"--bmax must be from 1 to {MAX_BMAX}, got {args.bmax}")
    F = make_field(args.disc)
    specs = []
    for n in range(1, args.bmax + 1):
        fac = squarefree_factors(n)
        if fac is not None:
            specs += [CurveSpec(s * n, F, tuple(sorted(fac.items()))) for s in (1, -1)]

    def sweep(spec: CurveSpec) -> tuple[int, int, list[dict], list[dict]]:
        spaces = checks = 0
        undecided: list[dict] = []
        disagreements: list[dict] = []
        places = bad_places(spec.odd_primes, F)  # those of every space of b
        for space in (s for side in Side for s in selmer_candidates(spec, side)):
            spaces += 1
            for pl, pred in everywhere_verdicts(space, F, places):
                orc = oracle_search(space, pl, max_precision=args.precision)
                checks += 1
                if VerdictTag.Unknown in (pred.tag, orc.tag):
                    failed = undecided
                elif pred.tag is not orc.tag:
                    failed = disagreements
                else:
                    continue  # a row is built only for a failed check
                failed.append({
                    "b": spec.b,
                    "side": space.side.value,
                    "b1": str(space.b1),
                    "place": _place_label(pl),
                    "predicate": pred.tag.value,
                    "oracle": orc.tag.value,
                })
        return spaces, checks, undecided, disagreements

    rows = [sweep(spec) for spec in specs]
    undecided = [d for row in rows for d in row[2]]
    disagreements = [d for row in rows for d in row[3]]
    payload = {
        "command": "verify oracle",
        "disc": F.D,
        "bmax": args.bmax,
        "precision": args.precision,
        "b_values": len(specs),
        "spaces": sum(r[0] for r in rows),
        "place_checks": sum(r[1] for r in rows),
        "undecided": undecided,
        "disagreements": disagreements,
        "pass": not undecided and not disagreements,
    }
    _emit(payload)
    return 0


# largest theorems --pmax: one curve per pair of inert primes up to it, so
# the sweep's cost grows about as pmax^3 (about 6 s at 300)
MAX_THEOREMS_PMAX = 1000


def _cmd_verify_theorems(args: argparse.Namespace) -> int:
    if args.pmax > MAX_THEOREMS_PMAX:
        raise DomainError(f"--pmax must be at most {MAX_THEOREMS_PMAX}, got {args.pmax}")
    F = make_field(args.disc)
    odd_primes = [p for p in arith.primes_upto(args.pmax) if p > 2]
    inert = [p for p in odd_primes if splitting_type(p, F).kind is PlaceKind.INERT]
    split = [p for p in odd_primes if splitting_type(p, F).kind is PlaceKind.SPLIT]

    # each curve is built with the factorization it was made from
    specs: list[tuple[str, CurveSpec]] = []

    def both_signs(family: str, b: int, factors: tuple[tuple[int, int], ...]) -> None:
        specs.extend((family, CurveSpec(sign * b, F, factors)) for sign in (1, -1))

    for p in inert:
        both_signs("inert-products", p, ((p, 1),))
    for i, p in enumerate(inert):
        for q in inert[i + 1 :]:
            both_signs("inert-products", p * q, ((p, 1), (q, 1)))
    for p in split:
        both_signs("split-prime", p, ((p, 1),))
    for n in range(1, args.pmax + 1):
        fac = squarefree_factors(n)
        if fac is not None and rank_formula_obstruction(n, fac, F) is None:
            factors = tuple((p, 2) for p in sorted(fac))
            specs.append(("negative-square", CurveSpec(-n * n, F, factors)))

    def check(item: tuple[str, CurveSpec]) -> tuple[str, int, int, int]:
        family, spec = item
        want = closed_form_rank(spec)
        if want is None:
            raise InternalInconsistency(f"{family} curve b={spec.b} has no closed form")
        return family, spec.b, want, selmer_rank2(spec).sel_rank2

    rows = [check(item) for item in specs]
    mismatches = [
        {"b": b, "closed_form": want, "family": fam, "pipeline": got}
        for fam, b, want, got in rows
        if want != got
    ]
    families: dict[str, int] = {}
    for fam, _ in specs:
        families[fam] = families.get(fam, 0) + 1
    payload = {
        "command": "verify theorems",
        "disc": F.D,
        "pmax": args.pmax,
        "curves_checked": len(rows),
        "families": families,
        "mismatches": mismatches,
        "pass": not mismatches,
    }
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# parser


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was
    ap = argparse.ArgumentParser(
        prog="iqselmer",
        description=(
            "2-Selmer ranks of y^2 = x^3 + b*x over the six imaginary quadratic "
            "fields of class number one in which 2 stays prime "
            "(D = -3, -11, -19, -43, -67, -163)."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sel = sub.add_parser("selrank", help="Selmer group dimensions and the 2-Selmer rank of one curve")
    sel.add_argument("--disc", type=int, required=True, help="field discriminant D")
    sel.add_argument("--b", type=int, required=True, help="curve coefficient b")
    fmt = sel.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--table", action="store_true", help="aligned text table")
    sel.add_argument("--show-generators", action="store_true", help="include basis classes of both groups")
    sel.set_defaults(fn=_cmd_selrank)

    cong = sub.add_parser("congruent", help="congruent-number verdicts over Q and over K")
    csub = cong.add_subparsers(dest="action", required=True)
    scan = csub.add_parser("scan", help="verdicts for every squarefree n up to a bound (JSON lines)")
    scan.add_argument("--disc", type=int, required=True)
    scan.add_argument("--max", type=int, required=True)
    scan.add_argument(
        "--only-new",
        action="store_true",
        help="only n that are not congruent over Q yet conditionally congruent over K",
    )
    scan.set_defaults(fn=_cmd_congruent_scan)
    chk = csub.add_parser("check", help="verdict for a single n")
    chk.add_argument("--disc", type=int, required=True)
    chk.add_argument("--n", type=int, required=True)
    chk.set_defaults(fn=_cmd_congruent_check)

    ver = sub.add_parser("verify", help="self-verification suites")
    vsub = ver.add_subparsers(dest="suite", required=True)
    sq = vsub.add_parser("squares-mod8", help="recount square and fourth-power unit classes of O/8")
    sq.set_defaults(fn=_cmd_verify_squares)
    ch = vsub.add_parser("charsum", help="character-sum existence scan over residue fields")
    ch.add_argument("--degree", type=int, choices=(2, 4), required=True)
    ch.add_argument("--qmax", type=int, required=True)
    ch.set_defaults(fn=_cmd_verify_charsum)
    tr = vsub.add_parser("trace-lemma", help="cube charpolys mod 8 for split primes")
    tr.add_argument("--disc", type=int, required=True)
    tr.add_argument("--pmax", type=int, required=True)
    tr.set_defaults(fn=_cmd_verify_trace)
    orc = vsub.add_parser("oracle", help="decision procedure vs brute-force local search")
    orc.add_argument("--disc", type=int, required=True)
    orc.add_argument("--bmax", type=int, required=True)
    orc.add_argument("--precision", type=int, default=None, help="oracle search depth cap")
    orc.set_defaults(fn=_cmd_verify_oracle)
    th = vsub.add_parser("theorems", help="descent pipeline vs closed-form ranks")
    th.add_argument("--disc", type=int, required=True)
    th.add_argument("--pmax", type=int, required=True)
    th.set_defaults(fn=_cmd_verify_theorems)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        _emit({"error": {"message": str(exc), "type": type(exc).__name__}})
        return 1
