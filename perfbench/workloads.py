"""Seeded inputs of the four benchmark workloads and the checks on their outputs.

Nothing here imports iqselmer: primality, factorization, splitting types and
Tunnell's representation counts are recomputed from scratch, so a check
cannot share a fault with the program it checks.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import gcd, isqrt, prod

DISCS = (-3, -11, -19, -43, -67, -163)
WORKLOADS = ("selrank-split", "selrank-inert", "congruent-scan", "verify-oracle")

# selrank-split: two disjoint triples of split primes of Q(sqrt(-3)) below
# 200, each summing to a value in SPLIT_SUM.  The time of a curve grows with
# the sum of its primes (by about a third from 7*61*67 to 73*103*193), and
# triples taken one prime from each third of the primes moved the median
# latency by 7% between seeds; within SPLIT_SUM every curve costs about the same.
SPLIT_PRIMES_BELOW = 200
SPLIT_SUM = (280, 300)
SPLIT_TRIPLES = 2
# selrank-inert: twelve primes at fixed positions from 150 to about 400 (the
# first prime at or above each position), two per field.
# The time of an inert curve grows as p^2 (the squares of F_{p^2} are
# enumerated), so the primes stay fixed and the seed picks the field each
# prime is inert in and the sign of b.
INERT_LOW, INERT_HIGH, INERT_COUNT = 150, 400, 12
# congruent-scan: one scan per field, in seeded order, each to its own seeded
# bound N in (SCAN_MAX - SCAN_JITTER, SCAN_MAX].  The time of a scan grows with
# N and differs between fields, so the bounds stay close: bounds 3500..5000
# dealt to the fields moved the median latency by 10% between seeds.
SCAN_MAX, SCAN_JITTER = 4400, 200
# verify-oracle: one sweep per field.  The sweep is fixed by (D, B), and its
# cost differs threefold between fields, so a seeded B per field moved the
# median latency by 8% between seeds; B is fixed and the seed orders the fields.
ORACLE_BMAX = 15


# ---------------------------------------------------------------------------
# arithmetic, independent of the program


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, isqrt(n) + 1, 2))


def factor(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree(n: int) -> bool:
    return all(e == 1 for e in factor(n).values())


def legendre(a: int, p: int) -> int:
    """(a/p) for an odd prime p, by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def place_kind(p: int, D: int) -> str:
    """How the prime p decomposes in Q(sqrt(D)); 2 is inert in all six fields."""
    if p == 2:
        return "inert"
    if D % p == 0:
        return "ramified"
    return "split" if legendre(D, p) == 1 else "inert"


def inert_rank(b: int) -> int:
    """2-Selmer rank of y^2 = x^3 + b*x for b = +-p, p an odd inert prime."""
    if b % 8 == 1:
        return 3
    if b % 4 == 3:
        return 2
    return 1


def generator_count(b: int, D: int) -> int:
    """-1, 2, then two prime elements per odd split prime of b, one otherwise."""
    return 2 + sum(2 if place_kind(p, D) == "split" else 1 for p in factor(abs(b)) if p != 2)


def _binary_form_counts(a: int, limit: int) -> list[int]:
    """r[m] = #{(x, y) in Z^2 : x^2 + a*y^2 = m} for 0 <= m <= limit."""
    r = [0] * (limit + 1)
    for x in range(-isqrt(limit), isqrt(limit) + 1):
        for y in range(-isqrt(limit // a), isqrt(limit // a) + 1):
            m = x * x + a * y * y
            if m <= limit:
                r[m] += 1
    return r


class Tunnell:
    """Tunnell's counts; a congruent n has A(n) = 2B(n) (odd n), C(n) = 2D(n) (even n)."""

    def __init__(self, limit: int):
        self.limit = limit
        self._r2 = _binary_form_counts(2, limit)
        self._r4 = _binary_form_counts(4, limit)

    def _ternary(self, r: list[int], c: int, m: int) -> int:
        return sum(
            r[m - c * z * z] * (1 if z == 0 else 2) for z in range(isqrt(m // c) + 1)
        )

    def equality_holds(self, n: int) -> bool:
        if n > self.limit:
            raise ValueError(f"n = {n} beyond the table limit {self.limit}")
        if n % 2:
            return self._ternary(self._r2, 8, n) == 2 * self._ternary(self._r2, 32, n)
        m = n // 2
        return self._ternary(self._r4, 8, m) == 2 * self._ternary(self._r4, 32, m)


# ---------------------------------------------------------------------------
# plans


@dataclass
class Plan:
    """One round of a workload: the commands in order, and what checks need."""

    workload: str
    warmup: list[str]
    commands: list[list[str]]
    meta: list[dict] = field(default_factory=list)  # one entry per command
    oracle_curves: list[tuple[int, int]] = field(default_factory=list)  # (D, b)


def _selrank(D: int, b: int) -> list[str]:
    return ["selrank", "--disc", str(D), "--b", str(b)]


def plan_selrank_split(seed: int, triples: int = SPLIT_TRIPLES) -> Plan:
    rng = random.Random(f"selrank-split/{seed}")
    primes = [p for p in range(3, SPLIT_PRIMES_BELOW) if is_prime(p) and place_kind(p, -3) == "split"]
    pool = [t for t in combinations(primes, 3) if SPLIT_SUM[0] <= sum(t) <= SPLIT_SUM[1]]
    chosen: list[tuple[int, ...]] = []
    for t in rng.sample(pool, len(pool)):
        if len(chosen) < triples and not any(set(t) & set(c) for c in chosen):
            chosen.append(t)
    plan = Plan("selrank-split", _selrank(-3, 7 * 13), [])
    for t in chosen:
        b = rng.choice((1, -1)) * prod(t)
        # the pair (b, -4b) is swapped by the 2-isogeny: the check compares them
        for x in (b, -4 * b):
            plan.commands.append(_selrank(-3, x))
            plan.meta.append({"D": -3, "b": x, "partner": -4 * b if x == b else b})
    # the oracle recomputes every b curve (~2 s each; a -4b curve would take
    # ~15 s); the swap carries its answer to the -4b curve
    plan.oracle_curves = [(-3, m["b"]) for m in plan.meta[::2]]
    return plan


def inert_primes() -> list[int]:
    """INERT_COUNT primes spread over [INERT_LOW, INERT_HIGH], each inert in two fields or more."""
    out: list[int] = []
    for i in range(INERT_COUNT):
        p = INERT_LOW + (INERT_HIGH - INERT_LOW) * i // (INERT_COUNT - 1)
        while not (is_prime(p) and p not in out and sum(place_kind(p, D) == "inert" for D in DISCS) >= 2):
            p += 1
        out.append(p)
    return out


def plan_selrank_inert(seed: int) -> Plan:
    rng = random.Random(f"selrank-inert/{seed}")
    primes = inert_primes()
    per_field = len(primes) // len(DISCS)
    while True:  # a seeded assignment, each field taking per_field primes inert in it
        order = rng.sample(primes, len(primes))
        load = {D: 0 for D in DISCS}
        pairs = []
        for p in order:
            fields = [D for D in DISCS if load[D] < per_field and place_kind(p, D) == "inert"]
            if not fields:
                break
            D = rng.choice(fields)
            load[D] += 1
            pairs.append((p, D))
        else:
            break
    # in increasing p whatever the seed: the program keeps the square sets of
    # F_{p^2} it builds, so each command meets the same heap on every seed
    plan = Plan("selrank-inert", _selrank(-3, 17), [])
    for p, D in sorted(pairs):
        b = rng.choice((1, -1)) * p
        plan.commands.append(_selrank(D, b))
        plan.meta.append({"D": D, "b": b})
    return plan


def plan_congruent_scan(seed: int, top: int = SCAN_MAX, jitter: int = SCAN_JITTER) -> Plan:
    rng = random.Random(f"congruent-scan/{seed}")
    plan = Plan("congruent-scan", ["congruent", "scan", "--disc", "-3", "--max", "60"], [])
    for D in rng.sample(DISCS, len(DISCS)):
        N = top - rng.randrange(jitter)
        plan.commands.append(["congruent", "scan", "--disc", str(D), "--max", str(N)])
        plan.meta.append({"D": D, "N": N})
    return plan


def plan_verify_oracle(seed: int, bmax: int = ORACLE_BMAX) -> Plan:
    rng = random.Random(f"verify-oracle/{seed}")
    plan = Plan("verify-oracle", ["verify", "oracle", "--disc", "-3", "--bmax", "3"], [])
    for D in rng.sample(DISCS, len(DISCS)):
        plan.commands.append(["verify", "oracle", "--disc", str(D), "--bmax", str(bmax)])
        plan.meta.append({"D": D, "B": bmax})
    return plan


PLANS = {
    "selrank-split": plan_selrank_split,
    "selrank-inert": plan_selrank_inert,
    "congruent-scan": plan_congruent_scan,
    "verify-oracle": plan_verify_oracle,
}


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is right


def _selrank_basics(meta: dict, out: dict) -> list[str]:
    errs = []
    if out.get("b") != meta["b"] or out.get("b_reduced") != meta["b"] or out.get("disc") != meta["D"]:
        errs.append(f"selrank echoes the wrong curve: {meta} -> b={out.get('b')}, disc={out.get('disc')}")
    if out.get("sel_rank2") != out.get("dim_phi", 0) + out.get("dim_phihat", 0) - 2:
        errs.append(f"b={meta['b']}: sel_rank2 is not dim_phi + dim_phihat - 2")
    return errs


def check_selrank_inert(meta: dict, out: dict) -> list[str]:
    D, b = meta["D"], meta["b"]
    p = abs(b)
    if not (is_prime(p) and p % 2 and place_kind(p, D) == "inert"):
        return [f"b={b} is not +-an odd prime inert in Q(sqrt({D}))"]
    errs = _selrank_basics(meta, out)
    want = inert_rank(b)
    if out.get("sel_rank2") != want:
        errs.append(f"D={D}, b={b}: sel_rank2 {out.get('sel_rank2')}, closed form {want}")
    return errs


def check_selrank_split(metas: list[dict], outs: list[dict], oracle_dims: dict[int, list[int]]) -> list[str]:
    errs = []
    by_b = {m["b"]: o for m, o in zip(metas, outs)}
    for meta, out in zip(metas, outs):
        errs += _selrank_basics(meta, out)
        partner = by_b.get(meta["partner"])
        if partner is not None and (out.get("dim_phi"), out.get("dim_phihat")) != (
            partner.get("dim_phihat"),
            partner.get("dim_phi"),
        ):
            errs.append(f"b={meta['b']} and {meta['partner']}: dimensions not swapped by the isogeny")
        dims = oracle_dims.get(meta["b"])
        if dims is not None and [out.get("dim_phi"), out.get("dim_phihat")] != dims:
            errs.append(f"b={meta['b']}: dimensions {out.get('dim_phi')}, {out.get('dim_phihat')}, oracle gives {dims}")
    return errs


def check_congruent_scan(meta: dict, lines: list[dict], tunnell: Tunnell) -> list[str]:
    D, N = meta["D"], meta["N"]
    errs = []
    ns = [v.get("n") for v in lines]
    want = [n for n in range(1, N + 1) if squarefree(n)]
    if ns != want:
        missing = sorted(set(want) - set(ns))[:5]
        extra = sorted(set(ns) - set(want), key=str)[:5]
        errs.append(f"D={D}, N={N}: n list differs from the squarefree n <= N (missing {missing}, extra {extra})")
    for v in lines:
        n = v.get("n")
        if not isinstance(n, int) or not 1 <= n <= N:
            continue
        fac = factor(n)
        applies = gcd(n, abs(D)) == 1 and all(place_kind(p, D) == "inert" for p in fac if p != 2)
        if applies:
            k = len(fac)
            rank = 2 * k if n % 2 else 2 * k - 1
            status = "CongruentConditionalK" if rank % 2 else "UndeterminedK"
            if (v.get("sel_rank"), v.get("k"), v.get("k_status")) != (rank, k, status):
                errs.append(f"D={D}, n={n}: sel_rank/k/k_status {v.get('sel_rank')}/{v.get('k')}/{v.get('k_status')}, want {rank}/{k}/{status}")
        elif v.get("sel_rank") is not None or v.get("k_status") != "Inapplicable":
            errs.append(f"D={D}, n={n}: a rank is given where the closed form does not apply")
        if v.get("q_status") == "NotCongruentQ" and tunnell.equality_holds(n):
            errs.append(f"n={n} is called not congruent over Q but satisfies Tunnell's equality")
    if D == -3 and N >= 10:
        ten = [v for v in lines if v.get("n") == 10]
        if not ten or (ten[0].get("q_status"), ten[0].get("k_status")) != ("NotCongruentQ", "CongruentConditionalK"):
            errs.append("D=-3: n=10 is not reported as not congruent over Q yet conditionally congruent over K")
    return errs


def check_verify_oracle(meta: dict, out: dict) -> list[str]:
    D, B = meta["D"], meta["B"]
    bs = [s * n for n in range(1, B + 1) if squarefree(n) for s in (1, -1)]
    spaces = sum(2 * 2 ** generator_count(b, D) for b in bs)
    errs = []
    if out.get("pass") is not True or out.get("undecided") or out.get("disagreements"):
        errs.append(f"D={D}, B={B}: the sweep does not pass")
    if out.get("b_values") != len(bs) or out.get("spaces") != spaces:
        errs.append(f"D={D}, B={B}: {out.get('b_values')} b and {out.get('spaces')} spaces, want {len(bs)} and {spaces}")
    if not isinstance(out.get("place_checks"), int) or out["place_checks"] < spaces:
        errs.append(f"D={D}, B={B}: fewer place checks than spaces")
    return errs


def parse_output(workload: str, text: str):
    """A command's stdout as JSON: a list of objects for a scan, else one object."""
    if workload == "congruent-scan":
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def check_round(plan: Plan, outputs: list, oracle_dims: dict[int, list[int]], tunnell: Tunnell | None = None) -> list[str]:
    """Problems in one round; outputs[i] is the parsed output of command i, None if it failed."""
    ok = [(m, o) for m, o in zip(plan.meta, outputs) if o is not None]
    if plan.workload == "selrank-split":
        return check_selrank_split([m for m, _ in ok], [o for _, o in ok], oracle_dims)
    if plan.workload == "selrank-inert":
        return [e for m, o in ok for e in check_selrank_inert(m, o)]
    if plan.workload == "congruent-scan":
        tunnell = tunnell or Tunnell(max(m["N"] for m in plan.meta))
        return [e for m, o in ok for e in check_congruent_scan(m, o, tunnell)]
    return [e for m, o in ok for e in check_verify_oracle(m, o)]


def units_of_work(plan: Plan, outputs: list) -> dict[str, int]:
    """Curves answered, and the workload's own unit (n given a verdict, place checks)."""
    done = [(m, o) for m, o in zip(plan.meta, outputs) if o is not None]
    if plan.workload == "congruent-scan":
        n = sum(len(o) for _, o in done)
        return {"curves": n, "n": n}
    if plan.workload == "verify-oracle":
        return {"curves": sum(o["b_values"] for _, o in done), "place_checks": sum(o["place_checks"] for _, o in done)}
    return {"curves": len(done)}
