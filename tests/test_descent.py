"""Selmer group assembly and the closed-form rank formulas."""
from __future__ import annotations

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

import iqselmer
from iqselmer import arith
from iqselmer.descent import (
    closed_form_rank,
    full_two_torsion,
    selmer_group,
    selmer_rank2,
)
from iqselmer.errors import DomainError, ZeroCoefficient
from iqselmer.localsolve import bad_places, everywhere_verdicts
from iqselmer.quadfield import (
    SUPPORTED_DISCS,
    CurveSpec,
    PlaceKind,
    Side,
    curve_spec,
    descent_generators,
    make_field,
    places_above,
    selmer_candidates,
    splitting_type,
    squarefree_factors,
)

F3 = make_field(-3)
F11 = make_field(-11)


def test_selmer_group_b17():
    spec = curve_spec(17, F3)
    dim, gens, _ = selmer_group(spec, Side.PHI)
    assert dim == 3
    assert [str(g.b1) for g in gens] == ["-1", "2", "17"]
    assert not any(g.torsion for g in gens)

    dim, gens, _ = selmer_group(spec, Side.PHIHAT)
    assert dim == 2
    assert [str(g.b1) for g in gens] == ["-1", "17"]
    # the class of b itself is the torsion class on this side
    assert [g.torsion for g in gens] == [False, True]


def test_selmer_group_b5():
    dim, _, _ = selmer_group(curve_spec(5, F3), Side.PHI)
    assert dim == 2


def test_selmer_rank2_frozen_values():
    assert selmer_rank2(curve_spec(17, F3)).sel_rank2 == 3
    assert selmer_rank2(curve_spec(-5, F3)).sel_rank2 == 2
    assert selmer_rank2(curve_spec(13, F3)).sel_rank2 == 1
    assert selmer_rank2(curve_spec(-25, F3)).sel_rank2 == 2
    assert selmer_rank2(curve_spec(-7, F3)).sel_rank2 == 1


def test_report_fields():
    rep = selmer_rank2(curve_spec(17, F3))
    assert rep.b == 17 and rep.D == -3
    assert rep.dim_phi == 3 and rep.dim_phihat == 2
    assert rep.sel_rank2 == rep.dim_phi + rep.dim_phihat - 2
    assert not rep.torsion_full

    rep = selmer_rank2(curve_spec(-25, F3))
    assert rep.torsion_full  # -b = 25 is a rational square


def test_full_two_torsion():
    assert full_two_torsion(-4, -3)
    assert full_two_torsion(-1, -163)
    assert not full_two_torsion(17, -3)
    # b*|D| square: x^3 + 3x factors over Q(sqrt(-3))
    assert full_two_torsion(3, -3)
    assert not full_two_torsion(3, -11)


def test_ramified_coefficients_are_ranked():
    # b divisible by the ramified prime |D| goes through the one descent:
    # sqrt(D) is a generator and the ramified place is a bad place
    spec = curve_spec(15, F3)
    assert [str(g) for g in descent_generators(spec)] == ["-1", "2", "-1+2*w", "5"]
    assert bad_places(spec.odd_primes, F3)[1].kind is PlaceKind.RAMIFIED  # (sqrt(-3)) over 3
    dim, gens, _ = selmer_group(spec, Side.PHI)
    assert dim == 2
    assert [str(g.b1) for g in gens] == ["2", "5"]

    rep = selmer_rank2(curve_spec(-33, F11))
    assert (rep.dim_phi, rep.dim_phihat, rep.sel_rank2) == (2, 1, 1)
    assert [str(g.b1) for g in rep.gens_phihat] == ["3"]
    assert rep.gens_phihat[0].torsion
    # the closed forms simply decline such b
    assert closed_form_rank(curve_spec(15, F3)) is None


def test_ramified_isogeny_swaps_the_dimensions():
    # E: y^2 = x^3 + b*x and E': y^2 = x^3 - 4b*x are 2-isogenous, and E'' is
    # E again (16b = b mod fourth powers), so the phi side of one curve is
    # the phihat side of the other; b = |D|*k, 1 <= |k| <= 20, six fields
    curves = [(make_field(D), abs(D) * k) for D in SUPPORTED_DISCS for k in range(-20, 21) if k]
    for F, b in curves:
        rep, partner = selmer_rank2(curve_spec(b, F)), selmer_rank2(curve_spec(-4 * b, F))
        assert (rep.dim_phi, rep.dim_phihat) == (partner.dim_phihat, partner.dim_phi), (b, F.D)


def _root_number(m: int) -> int:
    # w(E_m/Q) for squarefree m > 0: +1 exactly when m = 1, 2 or 3 mod 8
    return 1 if m % 8 in (1, 2, 3) else -1


def test_ramified_congruent_curves_match_root_number_parity():
    # sel_rank2(E_n/K) is odd exactly when w(E_n) * w(E_{|D|n}) = -1 (Monsky's
    # parity over Q for E_n and its twist by D); for |D| | n the twist is
    # E_{n/|D|}.  Every squarefree n <= 1000 divisible by |D|, six fields.
    checked = 0
    for D in SUPPORTED_DISCS:
        F = make_field(D)
        for n in range(abs(D), 1001, abs(D)):
            if squarefree_factors(n) is None:
                continue
            rank = selmer_rank2(curve_spec(-n * n, F)).sel_rank2
            assert rank % 2 == (_root_number(n) * _root_number(n // abs(D)) == -1), (n, D)
            checked += 1
    assert checked == 263


def test_closed_form_rank_shapes():
    # product of two inert primes, 391 = 17*23 = 7 mod 8
    assert closed_form_rank(curve_spec(391, F3)) == 4
    # split prime rows
    assert closed_form_rank(curve_spec(-7, F3)) == 1
    assert closed_form_rank(curve_spec(13, F3)) == 1
    # negative square
    assert closed_form_rank(curve_spec(-25, F3)) == 2
    assert closed_form_rank(curve_spec(-4, F3)) == 1
    # shapes outside the three families
    assert closed_form_rank(curve_spec(2, F3)) is None
    assert closed_form_rank(curve_spec(35, F3)) is None  # 5 inert, 7 split


def test_fourth_power_invariance():
    rng = random.Random(20260815)
    for _ in range(20):
        b = rng.randint(2, 120) * rng.choice((1, -1))
        spec = curve_spec(b, F3)
        base = selmer_rank2(spec).sel_rank2
        for c in (2, 3):
            scaled = curve_spec(b * c**4, F3)
            assert scaled.b == spec.b
            assert selmer_rank2(scaled).sel_rank2 == base


def test_curve_spec_validation():
    with pytest.raises(DomainError):
        CurveSpec(16, F3)  # not fourth-power-free
    with pytest.raises(ZeroCoefficient):
        CurveSpec(0, F3)
    assert curve_spec(16, F3).b == 1
    assert curve_spec(-48, F3).b == -3


@pytest.mark.parametrize("D", sorted(SUPPORTED_DISCS))
def test_pipeline_matches_closed_form(D):
    F = make_field(D)
    checked = 0
    for b in list(range(-60, 0)) + list(range(1, 61)):
        spec_b = None
        try:
            spec_b = curve_spec(b, F)
        except Exception:
            continue
        if spec_b.b != b:
            continue  # scan each class once
        cf = closed_form_rank(spec_b)
        if cf is None:
            continue
        assert selmer_rank2(spec_b).sel_rank2 == cf, (b, D)
        checked += 1
    assert checked >= 15


def test_square_shape_parity():
    for n in (1, 2, 5, 7, 10, 11):
        spec = curve_spec(-n * n, F3)
        cf = closed_form_rank(spec)
        if cf is None:
            continue
        rep = selmer_rank2(spec)
        assert rep.sel_rank2 == cf
        assert rep.sel_rank2 % 2 == (1 if n % 2 == 0 else 0)


def _recounted_cases(b: int, F) -> tuple[str, ...]:
    # a separate pass: every candidate space of both sides decided afresh,
    # each at its own bad places, which must be the places of the curve: the
    # 2-adic place and the places over the odd primes of b
    curve_places = places_above(2, F) + tuple(
        pl for p in sorted(sympy.factorint(abs(b))) if p != 2 for pl in places_above(p, F)
    )
    labels: set[str] = set()
    for side in (Side.PHI, Side.PHIHAT):
        for space in selmer_candidates(CurveSpec(b, F), side):
            places = bad_places(space, F)  # from N(b1*b2), not from the curve
            assert places == curve_places, (b, F.D, side, space.mask)
            labels.update(v.reason for _, v in everywhere_verdicts(space, F, places) if v.reason)
    return tuple(sorted(labels))


def test_cases_fired_matches_a_separate_pass():
    curves = [
        (make_field(D), s * n)
        for D in SUPPORTED_DISCS
        for n in range(1, 61)
        if all(e == 1 for e in sympy.factorint(n).values())
        for s in (1, -1)
    ]
    curves += [(F3, 7 * 13 * 19), (F3, -7 * 13 * 19)]
    for F, b in curves:
        rep = selmer_rank2(curve_spec(b, F))
        assert rep.cases_fired == _recounted_cases(b, F), (b, F.D)

    assert selmer_rank2(curve_spec(17, F3)).cases_fired == (
        "odd:square-unit-coefficient",
        "two:matched-valuations",
        "two:no-square-combination",
        "two:square-unit-coefficient",
    )


_OPTIMIZED_CHECKS = """
import iqselmer.arith as arith
import iqselmer.cli as cli
import iqselmer.congruent as congruent
import iqselmer.descent as descent
from iqselmer.charsums import ResidueField, chi_exists, default_field, exception_scan
from iqselmer.errors import DomainError, InternalInconsistency, InvalidModulus, ZeroCoefficient
from iqselmer.localsolve import HomSpace, _chi_unit, everywhere_verdicts
import iqselmer.quadfield as quadfield
from iqselmer.quadfield import (
    CurveSpec, QuadInt, Side, canonical_associate, make_field, places_above, residue_image, splitting_type,
    val_unit,
)
from iqselmer.residue2adic import R8Elem, embed_pair, pair_charpoly_mod8, zpow

F = make_field(-3)
F11 = make_field(-11)
(inert5,) = places_above(5, F)
split7 = places_above(7, F)[0]


def wrong_closed_form_rank():
    saved = congruent.closed_form_rank
    congruent.closed_form_rank = lambda spec: -1
    try:
        congruent.k_congruence(5, F)  # 5 is inert in Q(sqrt(-3))
    finally:
        congruent.closed_form_rank = saved


def unclosed_selmer_group():
    # b = 17, side phi: candidates come in mask order and the torsion masks
    # are 0 and 5 (-4b = -1 * 2^2 * 17); keep masks 0, 1 and 5, so 1 ^ 5 = 4
    # is missing and the xor-closure check must fire
    order = iter(range(8))
    saved = descent.all_solvable
    descent.all_solvable = lambda verdicts: next(order) in (0, 1, 5)
    try:
        descent.selmer_group(CurveSpec(17, F), Side.PHI)
    except InternalInconsistency as exc:
        if "not closed" not in str(exc):
            raise SystemExit(f"another self-check fired: {exc}")
        raise
    finally:
        descent.all_solvable = saved


def split_prime_without_square_root():
    saved = arith.sqrt_mod
    arith.sqrt_mod = lambda a, p: None
    try:
        splitting_type.__wrapped__(31, F)  # 31 splits in Q(sqrt(-3))
    finally:
        arith.sqrt_mod = saved


def split_prime_with_a_wrong_norm():
    saved = quadfield._norm_equation_lattice
    quadfield._norm_equation_lattice = lambda p, F: F.of(2)  # norm 4, not p
    try:
        splitting_type.__wrapped__(31, F)
    finally:
        quadfield._norm_equation_lattice = saved


def theorems_without_closed_form():
    saved = cli.closed_form_rank
    cli.closed_form_rank = lambda spec: None
    try:
        args = cli._build_parser().parse_args(["verify", "theorems", "--disc", "-3", "--pmax", "5"])
        args.fn(args)
    finally:
        cli.closed_form_rank = saved


cases = [
    (lambda: splitting_type(1, F), InvalidModulus),
    (lambda: splitting_type(15, F), InvalidModulus),
    (lambda: CurveSpec(272, F), DomainError),  # 272 = 2^4 * 17
    (lambda: CurveSpec(-405, F, ((3, 4), (5, 1))), DomainError),  # 405 = 3^4 * 5
    (lambda: CurveSpec(15, F, ((3, 1),)), DomainError),  # factors of 3, not 15
    (lambda: CurveSpec(0, F), ZeroCoefficient),
    (lambda: ResidueField(3, 5), InvalidModulus),
    (lambda: ResidueField(5, 2, modulus=(1, 0, 0, 2)), InvalidModulus),
    (lambda: HomSpace.make(0, 3, F), ZeroCoefficient),
    (lambda: exception_scan(3, 7), DomainError),
    (lambda: chi_exists(1, 1, 3, default_field(7)), DomainError),
    (lambda: default_field(12), InvalidModulus),
    (lambda: default_field(1), InvalidModulus),
    (lambda: everywhere_verdicts(HomSpace.make(1, 3, F, a=1), F, ()), DomainError),
    (wrong_closed_form_rank, InternalInconsistency),
    (unclosed_selmer_group, InternalInconsistency),
    (theorems_without_closed_form, InternalInconsistency),
    (split_prime_without_square_root, InternalInconsistency),  # an assert, gone under -O
    (split_prime_with_a_wrong_norm, InternalInconsistency),  # an assert, gone under -O
    (lambda: residue_image(F.of(1), inert5), DomainError),  # an assert, gone under -O
    # arithmetic guards: without them -O hangs or answers wrongly
    (lambda: val_unit(F.of(0), inert5, F), ZeroCoefficient),  # looped forever
    (lambda: QuadInt(7, 0, 1).divide_exact(2), DomainError),  # gave 3
    (lambda: QuadInt(7, 0, 1).divide_exact(0), ZeroCoefficient),
    (lambda: F.of(1) * F11.of(2), DomainError),  # gave 2
    (lambda: F.of(F11.of(2)), DomainError),
    (lambda: _chi_unit(F.of(7), split7), DomainError),  # gave 0
    (lambda: _chi_unit(F.of(5), inert5), DomainError),
    (lambda: F.omega() ** -1, DomainError),  # looped forever
    (lambda: default_field(9).pow((1, 1), -1), DomainError),  # looped forever
    (lambda: default_field(9).inv((0, 0)), ZeroCoefficient),  # gave 0
    (lambda: zpow((1, 1), -1, 32), DomainError),  # looped forever
    (lambda: default_field(9).chi((1, 2, 3)), DomainError),  # gave -1
    (lambda: default_field(7).chi((1, 2)), DomainError),
    (lambda: embed_pair(F.omega(), F, 64), DomainError),  # the seed fixes only mod 32
    (lambda: pair_charpoly_mod8(R8Elem(1, 0), R8Elem(1, 0), "*"), DomainError),  # taken as "+"
    (lambda: canonical_associate(F.of(0), F), ZeroCoefficient),  # bare ValueError
]
for i, (call, want) in enumerate(cases):
    try:
        call()
    except want:
        continue
    raise SystemExit(f"case {i}: no {want.__name__}")
"""


def test_input_checks_survive_python_O():
    # python -O strips assert statements; the input checks must not be asserts
    src = str(Path(iqselmer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
        capture_output=True,
        text=True,
        timeout=120,  # a guard that falls back to an endless loop fails, not hangs
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_no_assert_in_the_package():
    # python -O strips assert statements, so no check in src/ may be one
    found = []
    for path in sorted(Path(iqselmer.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_selrank_factors_b_once(monkeypatch, capsys):
    from iqselmer.cli import main

    calls: list[int] = []
    real = arith.factorint

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "factorint", counting)
    # split, inert, ramified and 2-power factors, a fourth power to strip
    for b in (17, -6916, 16 * 91, -25, 15):
        calls.clear()
        main(["selrank", "--disc", "-3", "--b", str(b), "--show-generators"])
        assert calls == [abs(b)], b
    capsys.readouterr()

    # the verify sweeps factor each n up to their bound once, and build every
    # curve from that factorization or from primes they already know
    for argv in (["oracle", "--bmax", "12"], ["theorems", "--pmax", "40"]):
        for D in ("-3", "-19"):
            calls.clear()
            main(["verify", *argv, "--disc", D])
            assert calls == list(range(1, int(argv[-1]) + 1)), (argv, D)
    capsys.readouterr()

    specs = [curve_spec(b, make_field(D)) for D in SUPPORTED_DISCS for b in (-1, 13, -25, 17, -4, 91)]
    calls.clear()
    for spec in specs:
        closed_form_rank(spec)
    assert calls == []
