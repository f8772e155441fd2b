"""Command-line interface: exit codes, JSON shape, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import iqselmer
from iqselmer.charsums import default_field
from iqselmer.cli import main
from iqselmer.congruent import SHA_HYPOTHESIS

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_selrank_reference_output(capsys):
    code, out = run_cli(capsys, "selrank", "--disc", "-3", "--b", "17")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_phi"] == 3
    assert payload["dim_phihat"] == 2
    assert payload["sel_rank2"] == 3
    assert payload["disc"] == -3
    assert payload["cases_fired"] == [
        "odd:square-unit-coefficient",
        "two:matched-valuations",
        "two:no-square-combination",
        "two:square-unit-coefficient",
    ]


def test_selrank_generators(capsys):
    code, out = run_cli(capsys, "selrank", "--disc", "-3", "--b", "17", "--show-generators")
    assert code == 0
    payload = json.loads(out)
    assert [g["rep"] for g in payload["generators_phi"]] == ["-1", "2", "17"]
    assert [g["rep"] for g in payload["generators_phihat"]] == ["-1", "17"]
    assert [g["torsion"] for g in payload["generators_phihat"]] == [False, True]


def test_selrank_table_mode(capsys):
    code, out = run_cli(capsys, "selrank", "--disc", "-3", "--b", "17", "--table", "--show-generators")
    assert code == 0
    assert "2-Selmer rank" in out
    assert "17*" in out  # torsion class marker
    assert "{" not in out


def test_selrank_unsupported_field(capsys):
    code, out = run_cli(capsys, "selrank", "--disc", "-7", "--b", "5")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["type"] == "UnsupportedField"


def test_selrank_ramified_coefficient(capsys):
    # 3 ramifies in Q(sqrt(-3)); b = 15 is ranked like any other b
    code, out = run_cli(capsys, "selrank", "--disc", "-3", "--b", "15")
    assert code == 0
    payload = json.loads(out)
    assert (payload["dim_phi"], payload["dim_phihat"], payload["sel_rank2"]) == (2, 1, 1)


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selrank", "--disc", "-3"])  # --b missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["selrank", "--disc", "-3", "--b", "17", "--json", "--table"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_verify_squares_reference_output(capsys):
    code, out = run_cli(capsys, "verify", "squares-mod8")
    assert code == 0
    payload = json.loads(out)
    assert payload["expected"] == 6
    assert payload["found"] == 6
    assert payload["pass"] is True
    assert payload["fourth_found"] == 3


def test_congruent_check_carries_hypothesis(capsys):
    code, out = run_cli(capsys, "congruent", "check", "--disc", "-3", "--n", "82")
    assert code == 0
    payload = json.loads(out)
    assert payload["q_criterion"] == "Bastien"
    assert payload["k_status"] == "CongruentConditionalK"
    assert payload["conditional_on"] == SHA_HYPOTHESIS
    assert payload["sel_rank"] == 3


def test_congruent_check_not_squarefree(capsys):
    code, out = run_cli(capsys, "congruent", "check", "--disc", "-3", "--n", "12")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NotSquarefree"


def test_congruent_scan_json_lines(capsys):
    code, out = run_cli(capsys, "congruent", "scan", "--disc", "-3", "--max", "30")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    ns = [r["n"] for r in rows]
    assert ns == sorted(ns)
    assert 10 in ns and 12 not in ns  # squarefree n only
    for r in rows:
        if r["k_status"] == "CongruentConditionalK":
            assert r["conditional_on"] == SHA_HYPOTHESIS
        else:
            assert r["conditional_on"] is None


def test_congruent_scan_only_new_subset(capsys):
    code, full = run_cli(capsys, "congruent", "scan", "--disc", "-3", "--max", "100")
    assert code == 0
    code, new = run_cli(capsys, "congruent", "scan", "--disc", "-3", "--max", "100", "--only-new")
    assert code == 0
    assert set(new.splitlines()) <= set(full.splitlines())
    ns = [json.loads(line)["n"] for line in new.splitlines()]
    assert 10 in ns and 82 in ns


def test_verify_charsum_clean_range(capsys):
    code, out = run_cli(capsys, "verify", "charsum", "--degree", "2", "--qmax", "30")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["exceptions"] == {}


def test_verify_charsum_degree4_known_exceptions(capsys):
    code, out = run_cli(capsys, "verify", "charsum", "--degree", "4", "--qmax", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["exceptions"] == {"5": [[1, 2], [2, 3], [3, 2], [4, 3]]}
    # q = 9 carries eight genuine exceptions, (c, d) = (+/-d, d) with d a nonsquare
    F9 = default_field(9)
    nonsquares = [x for x in F9.elements() if F9.chi(x) == -1]
    want_q9 = sorted([list(c), list(d)] for d in nonsquares for c in (d, F9.neg(d)))
    assert len(want_q9) == 8
    code, out = run_cli(capsys, "verify", "charsum", "--degree", "4", "--qmax", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["mismatches"] == []
    assert payload["exceptions"] == {"5": [[1, 2], [2, 3], [3, 2], [4, 3]], "9": want_q9}


@pytest.mark.parametrize("qmax", ["243", "1000000000"])
def test_verify_charsum_rejects_degree_above_4(capsys, qmax):
    # 243 = 3^5 is the least odd prime power of degree 5; no scan may start
    code, out = run_cli(capsys, "verify", "charsum", "--degree", "2", "--qmax", qmax)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("precision", ["0", "-1"])
def test_verify_oracle_rejects_nonpositive_precision(capsys, precision):
    code, out = run_cli(
        capsys, "verify", "oracle", "--disc", "-11", "--bmax", "3", "--precision", precision
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("bmax", ["0", "-1"])
def test_verify_oracle_rejects_an_empty_sweep(capsys, bmax):
    # no b, no check: a sweep that searched nothing must not read "pass"
    code, out = run_cli(capsys, "verify", "oracle", "--disc", "-3", "--bmax", bmax)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("precision,undecided", [("1", 24), ("2", 8), ("3", 8), ("4", 0), ("5", 0)])
def test_verify_oracle_precision_leaves_few_classes_undecided(capsys, precision, undecided):
    # a residue class is decided once the Taylor bound pins f on it as far
    # as the verdict needs: its valuation alone when the total valuation is
    # odd, and at 2 two digits of a unit that is no square mod 4; every
    # search left undecided is 2-adic, and no verdict disagrees
    code, out = run_cli(
        capsys, "verify", "oracle", "--disc", "-3", "--bmax", "12", "--precision", precision
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["place_checks"] == 544
    assert len(payload["undecided"]) == undecided
    assert payload["disagreements"] == []
    assert payload["pass"] is (undecided == 0)


def _count_evaluations(monkeypatch, adapter) -> list[int]:
    # counts the evaluations of f by every quartic the adapter class builds
    count = [0]
    quartic = adapter.quartic

    def counted(self, c4, c2, c0):
        f = quartic(self, c4, c2, c0)

        def f_counted(x):
            count[0] += 1
            return f(x)

        return f_counted

    monkeypatch.setattr(adapter, "quartic", counted)
    return count


def _benchmark_round(capsys):
    # verify oracle --bmax 15 on all six fields: one benchmark round
    for disc in ("-3", "-11", "-19", "-43", "-67", "-163"):
        code, out = run_cli(capsys, "verify", "oracle", "--disc", disc, "--bmax", "15")
        assert code == 0 and json.loads(out)["pass"] is True, disc


def test_verify_oracle_two_adic_work(capsys, monkeypatch):
    # the 2-adic searches of one benchmark round evaluate f 11689 times
    # (14607 before the class of 0 was read from the coefficients at every
    # depth): a guard on the work that the graded certificate saves, as no
    # verdict shows it
    from iqselmer import localsolve

    count = _count_evaluations(monkeypatch, localsolve._TwoAdicLocal)
    _benchmark_round(capsys)
    assert 0 < count[0] <= 11800, count[0]


def test_verify_oracle_split_work(capsys, monkeypatch):
    # the split-place searches of one benchmark round evaluate f 2304 times
    # (6144 with every search made and f evaluated at every class of 0):
    # half of them are answered by the search at the conjugate place
    from iqselmer import localsolve

    monkeypatch.setattr(localsolve, "_SPLIT_MEMO", {})
    count = _count_evaluations(monkeypatch, localsolve._SplitLocal)
    _benchmark_round(capsys)
    assert 0 < count[0] <= 2400, count[0]


def test_split_memo_matches_the_searches_it_skips(capsys, monkeypatch):
    # every search of verify oracle --bmax 30 on all six fields, with the
    # memo of split-place verdicts and with it patched out: the same (tag,
    # reason, witness) everywhere, exactly half of the split searches
    # answered by the memo, and the memo empty when each sweep over one b
    # starts and when each command ends
    from iqselmer import cli, localsolve

    class CountingMemo(dict):
        hits = 0

        def pop(self, key, default=None):
            self.hits += key in self
            return super().pop(key, default)

    search, places = localsolve.oracle_search, localsolve.bad_places
    runs = {}

    def sweep_all(memo):
        monkeypatch.setattr(localsolve, "_SPLIT_MEMO", memo)
        out = runs["off" if memo is None else "on"] = []

        def recorded(s, pl, max_precision=None):
            v = search(s, pl, max_precision)
            out.append((str(s.b1), str(pl), pl.kind, v.tag, v.reason, v.witness))
            return v

        def sweep_start(*args):
            assert not memo
            return places(*args)

        monkeypatch.setattr(cli, "oracle_search", recorded)
        monkeypatch.setattr(cli, "bad_places", sweep_start)
        for disc in ("-3", "-11", "-19", "-43", "-67", "-163"):
            code, _ = run_cli(capsys, "verify", "oracle", "--disc", disc, "--bmax", "30")
            assert code == 0 and not memo, disc

    memo = CountingMemo()
    sweep_all(memo)
    sweep_all(None)
    assert len(runs["off"]) == 16384 and runs["on"] == runs["off"]
    split = sum(row[2] is localsolve.PlaceKind.SPLIT for row in runs["off"])
    assert split > 0 and 2 * memo.hits == split, (memo.hits, split)


def test_verify_trace_lemma(capsys):
    code, out = run_cli(capsys, "verify", "trace-lemma", "--disc", "-11", "--pmax", "150")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["split_primes_checked"] > 5
    assert payload["exceptions"] == []


def test_verify_oracle_small_sweep(capsys):
    code, out = run_cli(capsys, "verify", "oracle", "--disc", "-3", "--bmax", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["undecided"] == [] and payload["disagreements"] == []
    assert payload["place_checks"] > 50


def test_verify_theorems_small_sweep(capsys):
    code, out = run_cli(capsys, "verify", "theorems", "--disc", "-19", "--pmax", "25")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["mismatches"] == []
    assert payload["curves_checked"] == sum(payload["families"].values())


def test_selrank_refuses_an_inert_prime_too_large_to_enumerate(capsys):
    # b = 1000000000039 * 1000000000061, both inert in Q(sqrt(-11)): the
    # predicate's F_{p^2} would hold about 10^24 elements
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "selrank", "--disc", "-11", "--b", "1000000000100000000002379")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"
    assert time.perf_counter() - t0 < 10


def test_outputs_match_golden_file(capsys):
    # exit code and stdout of every recorded command, byte for byte; the
    # commands and how to re-record them are in tests/golden/record.py
    rows = json.loads(GOLDEN.read_text())
    assert len(rows) == 164
    changed = []
    for row in rows:
        code, out = run_cli(capsys, *row["argv"])
        if (code, out) != (row["exit"], row["stdout"]):
            changed.append(" ".join(row["argv"]))
    assert not changed, changed


def test_console_entry_point_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "iqselmer", "selrank", "--disc", "-3", "--b", "17"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["sel_rank2"] == 3
    proc = subprocess.run(
        [sys.executable, "-m", "iqselmer", "selrank", "--disc", "-7", "--b", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    proc = subprocess.run(
        [sys.executable, "-m", "iqselmer", "nope"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


# one command of each kind; b = 1013 is inert and 122899 split in Q(sqrt(-3))
_WITHOUT_SYMPY = """
import contextlib, io, sys
from iqselmer.cli import main

for argv in (
    ["selrank", "--disc", "-3", "--b", "1013", "--show-generators"],
    ["selrank", "--disc", "-3", "--b", "-122899", "--show-generators"],
    ["congruent", "scan", "--disc", "-11", "--max", "300"],
    ["verify", "oracle", "--disc", "-3", "--bmax", "8"],
    ["verify", "theorems", "--disc", "-19", "--pmax", "60"],
    ["verify", "charsum", "--degree", "4", "--qmax", "81"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv) != 0:
            raise SystemExit(f"{argv} failed")
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "sympy")
if loaded:
    raise SystemExit(f"sympy was imported: {loaded[:5]}")
"""


def test_commands_run_without_importing_sympy():
    # sympy is a reference for integers past arith.PROVEN_BOUND only
    src = str(Path(iqselmer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SYMPY],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
