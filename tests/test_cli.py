from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from kleinhorn import cli, cone
from kleinhorn.cli import main
from kleinhorn.oracle import WitnessChain, chain_is_valid

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lr(capsys):
    code, out, _ = run(capsys, "lr", "2,1", "2,1", "3,2,1")
    assert code == 0 and out == "2\n"
    code, out, _ = run(capsys, "lr", "1", "1", "2")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "lr", "", "", "")
    assert code == 0 and out == "1\n"


def test_lr_rejects_garbage(capsys):
    code, _, err = run(capsys, "lr", "1,2", "1", "2,1")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "lr", "x", "1", "1")
    assert code == 2 and "error:" in err


def test_kostka(capsys):
    code, out, _ = run(capsys, "kostka", "2,1", "1,1,1")
    assert code == 0 and out == "2\n"
    code, _, err = run(capsys, "kostka", "2,1", "1,-1")
    assert code == 2 and "error:" in err


def test_kostka_long_shape(capsys):
    column = ",".join(["1"] * 1200)
    code, out, _ = run(capsys, "kostka", column, "1200")
    assert code == 0 and out == "0\n"
    code, out, _ = run(capsys, "kostka", column, column)
    assert code == 0 and out == "1\n"


def test_genlr(capsys):
    code, out, _ = run(capsys, "genlr", "", "2,1", "2,1", "", "")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "genlr", "", "2,1", "", "2,1", "")
    assert code == 0 and out == "0\n"
    code, _, err = run(capsys, "genlr", "1", "1")
    assert code == 2 and err == "error: need m >= 3, got 2\n"


def test_snm_text(capsys):
    code, out, _ = run(capsys, "snm", "-n", "2", "-m", "3")
    assert code == 0
    assert out.splitlines() == [
        "({},{},{})",
        "({1},{1},{1})",
        "({1},{2},{2})",
        "({2},{2},{1})",
    ]


def test_snm_json(capsys):
    code, out, _ = run(capsys, "snm", "-n", "2", "-m", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 2,
        "m": 3,
        "count": 4,
        "tuples": [
            [[], [], []],
            [[1], [1], [1]],
            [[1], [2], [2]],
            [[2], [2], [1]],
        ],
    }


@pytest.mark.parametrize("n,m,count", [(4, 5, 1614), (2, 9, 1134), (3, 7, 3067), (2, 11, 7121)])
def test_snm_json_counts_larger_shapes(capsys, n, m, count):
    code, out, _ = run(capsys, "snm", "-n", str(n), "-m", str(m), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == count == len(payload["tuples"])


# sha256 of the exact stdout, recorded before the bucketed search ((5,5),
# (8,3)) and before the half-tuple join ((4,7), (3,9)); pins the tuple order
# at shapes the brute-force filter cannot reach
@pytest.mark.parametrize(
    "n,m,digest",
    [
        (5, 5, "11915f7460f9dd459a79bbd03d294e016086933a6787bfbf11acd5839129bd70"),
        (8, 3, "06715797f64a5836e6e720c032a0340c526693ab494ef9eee75705ec1d6c419e"),
        (4, 7, "03c06b493c9dfdb87df1aa7e2a3032600b3d4d7bb2af993b13a904ad87e4b11a"),
        (3, 9, "d391592bee73a7611f273ca50fd3d259686defb06856198007d71d909273c12d"),
    ],
    ids=["n5-m5", "n8-m3", "n4-m7", "n3-m9"],
)
def test_snm_json_digest_larger_shapes(capsys, n, m, digest):
    code, out, _ = run(capsys, "snm", "-n", str(n), "-m", str(m), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_snm_even_m_unsupported(capsys):
    code, _, err = run(capsys, "snm", "-n", "2", "-m", "4")
    assert code == 3 and "error:" in err


def test_ineqs_text(capsys):
    code, out, _ = run(capsys, "ineqs", "-n", "1", "-m", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("trace level=0:")
    assert lines[-1] == "# suppressed trivial: 1"
    code, out, _ = run(capsys, "ineqs", "-n", "2", "-m", "3")
    assert code == 0
    assert "horn level=0 I=({1},{2},{2}): -l1_1 +l2_2 -l3_2 <= 0" in out.splitlines()


def test_ineqs_json_matches_golden(capsys):
    for n, m in [(1, 3), (2, 3), (2, 5), (3, 5), (2, 7)]:
        code, out, _ = run(capsys, "ineqs", "-n", str(n), "-m", str(m), "--json")
        assert code == 0
        assert out.strip() == (GOLDEN / f"ineqs_n{n}_m{m}.json").read_text().strip()


def test_ineqs_json_builds_no_inequality_system(capsys, monkeypatch):
    def refuse(n, m):
        raise AssertionError("ineqs --json built the inequality system")

    monkeypatch.setattr(cone, "inequality_system", refuse)
    code, out, err = run(capsys, "ineqs", "-n", "2", "-m", "5", "--json")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "ineqs_n2_m5.json").read_text()


def test_ineqs_json_builds_no_index_set(capsys, monkeypatch):
    def refuse(n, m):
        raise AssertionError("ineqs --json built the index set")

    monkeypatch.setattr(cone, "horn_index_set", refuse)
    for n, m in [(2, 5), (3, 5)]:
        code, out, err = run(capsys, "ineqs", "-n", str(n), "-m", str(m), "--json")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"ineqs_n{n}_m{m}.json").read_text()


def test_ineqs_json_runs_one_half_search(capsys, monkeypatch):
    calls = []
    build = cone._horn_levels

    def counted(n, m):
        calls.append((n, m))
        return build(n, m)

    monkeypatch.setattr(cone, "_horn_levels", counted)
    code, out, err = run(capsys, "ineqs", "-n", "2", "-m", "9", "--json")
    assert (code, err) == (0, "")
    # every level, 9 down to 3, comes from the one search
    assert calls == [(2, 9)]
    assert out.count('"origin":"trace"') == 4


@pytest.fixture
def half_searches(monkeypatch):
    """The (n, m) of each _horn_levels call, with horn_index_set refused and member_cone's memos cleared."""
    calls = []
    build = cone._horn_levels

    def counted(n, m):
        calls.append((n, m))
        return build(n, m)

    def refuse(n, m):
        raise AssertionError("horn_index_set was called")

    monkeypatch.setattr(cone, "_horn_levels", counted)
    monkeypatch.setattr(cone, "horn_index_set", refuse)
    cone._level_masks.cache_clear()
    cone._certificate.cache_clear()
    return calls


@pytest.mark.parametrize("n,m,types", [(2, 7, "1;2;1,1;;;;"), (3, 5, "1;;2;1,1;1")])
def test_decide_runs_one_half_search(capsys, half_searches, n, m, types):
    # the certificate is a level-1 row, read back from masks of the one search
    code, out, err = run(capsys, "decide", "-n", str(n), "-m", str(m), "--json", types)
    assert (code, err) == (1, "")
    assert half_searches == [(n, m)]
    cert = json.loads(out)["certificate"]
    assert (cert["origin"], cert["level"]) == ("horn", 1)
    assert json.dumps(cert) in {json.dumps(iq.to_json_dict()) for iq in cone.inequality_system(n, m)}


def test_text_ineqs_and_interior_point_run_one_half_search(capsys, half_searches):
    code, out, err = run(capsys, "ineqs", "-n", "2", "-m", "9")
    assert (code, err) == (0, "")
    assert out.count("trace level=") == 4
    assert half_searches == [(2, 9)]
    assert cone.interior_point(2, 9) == ((2, 1),) * 9
    assert half_searches == [(2, 9)] * 2


def test_ineqs_json_crash_part_way_is_internal(capsys, monkeypatch):
    def crash(n, m):
        raise RuntimeError("boom")

    monkeypatch.setattr(cone, "_domain_rows", crash)
    code, out, err = run(capsys, "ineqs", "-n", "2", "-m", "3", "--json")
    assert code == 4 and err == "error: internal: RuntimeError: boom\n"
    # the rows written before the crash stay on stdout, with no closing bracket
    assert out.startswith('{"n":2,"m":3,"suppressed_trivial":1,"inequalities":[{"origin":"trace"')
    assert not out.endswith("]}\n")


# sha256 of the exact stdout; the (4,5) and (2,9) digests are also the ones
# perfbench/reference.json records for the index-build workload; (1,9) and
# (5,5) were recorded while each row was still built as its own list
@pytest.mark.parametrize(
    "n,m,digest",
    [
        (1, 9, "d1e63f8460b90bf69c4828c647a8000fc429c162f6503c125bc602267ccfa619"),
        (4, 5, "51af8db3552c20844b9727c55a036858d3c47b7e074e8adbb75a220861e748f1"),
        (5, 5, "6b6d5c3fb1754fb42636ed3f4a0bac2e767bfc026ed3dff6c7cd5d70e96558e2"),
        (3, 7, "f24e780006fed9d495da61bf011a1752574f4b31bef71afa044af059b208635d"),
        (2, 9, "4be806af91f13a85e4be386d7a80ddf3fc870f99760dcfb0ecd7614a7d1c84e7"),
    ],
    ids=["n1-m9", "n4-m5", "n5-m5", "n3-m7", "n2-m9"],
)
def test_ineqs_json_digest_larger_shapes(capsys, n, m, digest):
    code, out, _ = run(capsys, "ineqs", "-n", str(n), "-m", str(m), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ineqs_even_m_unsupported(capsys):
    for flags in ((), ("--json",)):
        code, out, err = run(capsys, "ineqs", "-n", "1", "-m", "4", *flags)
        assert (code, out) == (3, "") and "error:" in err


def test_decide_member(capsys):
    code, out, _ = run(capsys, "decide", "-n", "1", "-m", "3", "1;2;1")
    assert code == 0
    assert out.splitlines()[0] == "member"
    assert out.splitlines()[1].startswith("witness: ")


def test_decide_non_member_certificate(capsys):
    code, out, _ = run(capsys, "decide", "-n", "2", "-m", "3", "1;3;1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "not a member"
    assert lines[1].startswith("violated: trace") and "(value 1)" in lines[1]
    assert "no witness chain exists" in lines[2]
    code, out, _ = run(capsys, "decide", "-n", "2", "-m", "3", ";1,1;2")
    assert code == 1
    assert out.splitlines()[1] == "violated: horn level=0 I=({1},{2},{2}): -l1_1 +l2_2 -l3_2 <= 0 (value 1)"


def test_decide_even_m_witness(capsys):
    code, out, _ = run(capsys, "decide", "-n", "1", "-m", "4", "3;3;1;2")
    assert code == 0
    assert "witness: [];[3];[];[1];[1]" in out


def test_decide_even_m_alt_certificate(capsys):
    code, out, _ = run(capsys, "decide", "-n", "1", "-m", "4", "1;3;1;1")
    assert code == 1
    assert "violated: alt" in out


def test_decide_rational(capsys):
    code, out, _ = run(capsys, "decide", "-n", "1", "-m", "3", "1/2;1;1/2")
    assert code == 0
    assert "witness: [];[1];[1];[] (after scaling by 2)" in out
    code, out, _ = run(capsys, "decide", "-n", "1", "-m", "3", "1/2;3/2;1/2")
    assert code == 1
    assert "(value 1/2)" in out  # the certificate is evaluated on the unscaled rows


def test_decide_method_ineq_only(capsys):
    code, out, _ = run(capsys, "decide", "-n", "1", "-m", "3", "--method", "ineq", "1;2;1")
    assert code == 0 and out == "member\n"
    code, _, err = run(capsys, "decide", "-n", "2", "-m", "4", "--method", "ineq", "1;1;1;1")
    assert code == 3 and "use --method oracle" in err


def test_decide_method_oracle_only(capsys):
    code, out, _ = run(capsys, "decide", "-n", "2", "-m", "4", "--method", "oracle", "1;1;1;1")
    assert code == 0 and out.splitlines()[0] == "member"


def test_decide_json_schema(capsys):
    code, out, _ = run(capsys, "decide", "-n", "2", "-m", "3", "--json", "1;3;1")
    assert code == 1
    payload = json.loads(out)
    assert payload["member"] is False
    assert payload["method"] == "both"
    assert payload["route"] == "inequality-system"
    assert payload["certificate"]["origin"] == "trace"
    assert payload["witness"] is None
    assert payload["scale"] == 1
    # |mu(2)| = 3 - |mu(1)| >= 2 exceeds |lam(3)| = 1: no |mu(0)| is admissible
    assert payload["explored"] == 0
    code, out, _ = run(capsys, "decide", "-n", "1", "-m", "3", "--json", "1;2;1")
    payload = json.loads(out)
    assert code == 0 and payload["member"] is True
    assert payload["route"] == "single-row"  # the closed form decides n = 1 first
    assert payload["certificate"] is None
    assert payload["witness"] == [[], [1], [1], []]


def test_decide_usage_errors(capsys):
    code, _, err = run(capsys, "decide", "-n", "1", "-m", "3", "1;2")
    assert code == 2 and "expected m = 3 rows" in err
    code, _, err = run(capsys, "decide", "-n", "1", "-m", "3", "1;x;1")
    assert code == 2
    code, _, err = run(capsys, "decide", "-n", "1", "-m", "3", "1;2;-1")
    assert code == 2
    code, _, err = run(capsys, "decide", "-n", "1", "-m", "2", "1;1")
    assert code == 2 and "m >= 3" in err
    code, _, err = run(capsys, "decide", "-n", "1", "-m", "3", "1,1;2;1")
    assert code == 2 and "more than n = 1" in err


@pytest.mark.parametrize("verb", ["decide", "witness"])
def test_trailing_zeros_are_not_parts(capsys, verb):
    # "2,0" is the partition (2), as lr, kostka and genlr read it
    plain = run(capsys, verb, "-n", "1", "-m", "3", "2;1;1")
    padded = run(capsys, verb, "-n", "1", "-m", "3", "2,0;1;1")
    assert padded[:2] == plain[:2]
    assert plain[0] == 0
    code, _, _ = run(capsys, verb, "-n", "1", "-m", "3", "0,0;0;0")
    assert code == 0


# n < 1, m < 3 and a negative grid bound are usage errors whichever route would run
BAD_SIZE_CASES = [
    pytest.param(("decide", "-n", "0", "-m", "3", ";;"), "need n >= 1, got 0", id="decide-n0"),
    pytest.param(
        ("decide", "-n", "0", "-m", "3", "--method", "oracle", ";;"), "need n >= 1, got 0", id="oracle-n0"
    ),
    pytest.param(("decide", "-n", "0", "-m", "4", ";;;"), "need n >= 1, got 0", id="even-m-n0"),
    pytest.param(("witness", "-n", "0", "-m", "3", ";;"), "need n >= 1, got 0", id="witness-n0"),
    pytest.param(("decide", "-n", "-2", "-m", "3", ";;"), "need n >= 1, got -2", id="decide-n-2"),
    # sizes are checked before the row count
    pytest.param(("decide", "-n", "0", "-m", "3", ";"), "need n >= 1, got 0", id="decide-n0-short"),
    pytest.param(("witness", "-n", "0", "-m", "3", "1,1"), "need n >= 1, got 0", id="witness-n0-short"),
    pytest.param(("ineqs", "-n", "0", "-m", "4"), "need n >= 1, got 0", id="ineqs-n0"),
    pytest.param(("ineqs", "-n", "0", "-m", "4", "--json"), "need n >= 1, got 0", id="ineqs-n0-json"),
    pytest.param(("crosscheck", "-n", "0", "-m", "4", "--bound", "1"), "need n >= 1, got 0", id="crosscheck-n0"),
    pytest.param(
        ("crosscheck", "-n", "1", "-m", "3", "--bound", "-1"), "need bound >= 0, got -1", id="crosscheck-bound-1"
    ),
    pytest.param(("snm", "-n", "2", "-m", "1"), "need m >= 3, got 1", id="snm-m1"),
    pytest.param(("ineqs", "-n", "2", "-m", "2"), "need m >= 3, got 2", id="ineqs-m2"),
    pytest.param(("ineqs", "-n", "2", "-m", "2", "--json"), "need m >= 3, got 2", id="ineqs-m2-json"),
    pytest.param(("crosscheck", "-n", "2", "-m", "2", "--bound", "1"), "need m >= 3, got 2", id="crosscheck-m2"),
    pytest.param(("crosscheck", "-n", "1", "-m", "-1", "--bound", "2"), "need m >= 3, got -1", id="crosscheck-m-1"),
    pytest.param(("decide", "-n", "2", "-m", "2", ";"), "need m >= 3, got 2", id="decide-m2"),
    pytest.param(("decide", "-n", "2", "-m", "2", "--method", "ineq", ";"), "need m >= 3, got 2", id="ineq-m2"),
    pytest.param(("witness", "-n", "1", "-m", "2", "1;1"), "need m >= 3, got 2", id="witness-m2"),
    pytest.param(("witness", "-n", "1", "-m", "0", ""), "need m >= 3, got 0", id="witness-m0"),
]


@pytest.mark.parametrize("argv,message", BAD_SIZE_CASES)
def test_bad_size_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_decide_large_single_part(capsys):
    # a 1500-cell row once overflowed the recursion limit and exited 1
    code, out, _ = run(capsys, "decide", "-n", "1", "-m", "3", "1500;1500;0")
    assert code == 0
    assert out == "member\nwitness: [];[1500];[];[]\n"
    code, out, _ = run(capsys, "decide", "-n", "1", "-m", "3", "--json", "1500;1500;0")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True and payload["witness"] == [[], [1500], [], []]


def test_decide_huge_part_within_memory_limit():
    # 10^20-cell rows: the LR listing's cost and memory follow letters per row, not cells
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))

    argv = ["decide", "-n", "1", "-m", "3", "1/99999999999999999999;1;1", "--method", "oracle", "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "kleinhorn.cli", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert '"witness":[[],[1],[99999999999999999998],[1]]' in proc.stdout


def test_ineqs_large_system_within_memory_limit():
    # 51,074 inequalities from shared coefficient rows, written as tuples
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (120 * 2**20, 120 * 2**20))

    proc = subprocess.run(
        [sys.executable, "-m", "kleinhorn.cli", "ineqs", "-n", "3", "-m", "9", "--json"],
        capture_output=True, timeout=120, preexec_fn=limit_memory,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    digest = "6caeec19d58b04f04f0a8cef1d49a8b386a5ea2b0634fd075f5643438dc421ee"
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_unexpected_exception_is_internal(capsys, monkeypatch):
    def crash(*partitions):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "lr_coefficient", crash)
    code, out, err = run(capsys, "lr", "1", "1", "2")
    assert code == 4 and out == ""
    assert err == "error: internal: RuntimeError: boom\n"


def _flip_member_cone(monkeypatch):
    real = cone.member_cone

    def flipped(lams, n, m):
        verdict = real(lams, n, m)
        return replace(verdict, member=not verdict.member)

    monkeypatch.setattr(cone, "member_cone", flipped)


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_decide_route_disagreement_is_internal(capsys, monkeypatch, fmt):
    _flip_member_cone(monkeypatch)
    code, out, err = run(capsys, "decide", "-n", "2", "-m", "3", *fmt, "1;2;1")
    assert code == 4 and out == ""
    assert "internal disagreement" in err


def _decided(n, m, member, route, certificate, witness, explored):
    return {"n": n, "m": m, "member": member, "method": "both", "route": route, "certificate": certificate,
            "scale": 1, "witness": witness, "explored": explored}


@pytest.mark.parametrize(
    "n,m,types,payload",
    [
        pytest.param(1, 5, "1;1;1;1;1", _decided(1, 5, True, "single-row", None, [[], [1]] * 3, 5), id="5"),
        pytest.param(1, 31, ";".join(["1"] * 31), _decided(1, 31, True, "single-row", None, [[], [1]] * 16, 31),
                     id="31"),
        pytest.param(2, 5, "2;2;3,3;3,3;3,1",
                     _decided(2, 5, True, "inequality-system", None, [[], [2], [], [3, 3], [], [3, 1]], 5),
                     id="n2-m5-member"),
        pytest.param(2, 5, "3,2;2,2;3;;2,2",
                     _decided(2, 5, False, "inequality-system",
                              {"origin": "horn", "level": 1, "subsets": [[1], [1], [1]], "position": None,
                               "coeffs": [[0, 0], [-1, 0], [1, 0], [-1, 0], [0, 0]]}, None, 2),
                     id="n2-m5-horn"),
    ],
)
def test_decide_n1_needs_no_inequality_system(capsys, monkeypatch, n, m, types, payload):
    # the single-row closed form decides n = 1, where building the odd-m system
    # takes over a minute at m = 31; at n >= 2 member_cone reads the index set
    # itself, and its certificate is the system's row all the same
    def refuse(*args):
        raise RuntimeError("the inequality system was built")

    monkeypatch.setattr(cone, "inequality_system", refuse)
    monkeypatch.setattr(cone, "system_rows", refuse)
    code, out, _ = run(capsys, "decide", "-n", str(n), "-m", str(m), "--json", types)
    assert code == (0 if payload["member"] else 1)
    assert json.loads(out) == payload


def test_crosscheck_reports_disagreements(capsys, monkeypatch):
    _flip_member_cone(monkeypatch)
    code, out, _ = run(capsys, "crosscheck", "-n", "1", "-m", "3", "--bound", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].endswith("disagreements=8")  # every one of the 2^3 tuples
    assert lines[1] == "  disagree [inequality] on ';;': oracle=True other=False"
    assert len(lines) == 9 and all(line.startswith("  disagree [inequality] on ") for line in lines[1:])
    code, out, _ = run(capsys, "crosscheck", "-n", "1", "-m", "3", "--bound", "1", "--json")
    assert code == 1
    found = json.loads(out)["disagreements"]
    assert len(found) == 8 and {d["route"] for d in found} == {"inequality"}
    assert found[0] == {"types": [[], [], []], "oracle": True, "other": False, "route": "inequality"}


def test_witness_text_and_json(capsys):
    code, out, _ = run(capsys, "witness", "-n", "1", "-m", "4", "3;3;1;2")
    assert code == 0 and out == "[];[3];[];[1];[1]\n"
    code, out, _ = run(capsys, "witness", "-n", "1", "-m", "4", "--json", "3;3;1;2")
    assert code == 0
    assert json.loads(out) == {"exists": True, "chain": [[], [3], [], [1], [1]]}
    code, out, _ = run(capsys, "witness", "-n", "1", "-m", "3", "--json", "1;3;1")
    assert code == 1
    payload = json.loads(out)
    assert payload == {"exists": False, "search_space": 0}
    code, out, _ = run(capsys, "witness", "-n", "1", "-m", "3", "1;3;1")
    assert code == 1 and out == "no witness chain exists (explored 0 states)\n"


def test_witness_many_parts(capsys):
    # mu_0 = 1^1200 once overflowed the recursion limit and exited 4
    lams = [(1,) * 1200, (), ()]
    types = ";".join(",".join(map(str, lam)) for lam in lams)
    code, out, _ = run(capsys, "witness", "-n", "1200", "-m", "3", "--json", types)
    assert code == 0
    chain = [tuple(mu) for mu in json.loads(out)["chain"]]
    assert chain[0] == (1,) * 1200
    assert chain_is_valid(WitnessChain(tuple(chain)), lams)


def test_witness_large_parts_small_intersection(capsys):
    # lam_1 and lam_2 share one box, so mu(0) is tried from two candidates only
    code, out, _ = run(capsys, "witness", "-n", "3", "-m", "3", "60,60,60;1;90,90,1", "--json")
    assert code == 0
    assert json.loads(out) == {"exists": True, "chain": [[60, 60, 59], [1], [], [90, 90, 1]]}


def test_witness_rejects_rationals(capsys):
    code, _, err = run(capsys, "witness", "-n", "1", "-m", "3", "1/2;1;1/2")
    assert code == 2 and "use decide" in err
    # a member by decide, and still no witness: the search takes integers only
    assert run(capsys, "decide", "-n", "1", "-m", "4", "1/2;1/2;1/2;0")[0] == 0
    code, out, err = run(capsys, "witness", "-n", "1", "-m", "4", "1/2;1/2;1/2;0")
    assert code == 2 and out == "" and "use decide" in err


def test_witness_reads_integer_rationals_as_ints(capsys):
    ints = run(capsys, "witness", "-n", "1", "-m", "4", "3;3;1;2")
    assert run(capsys, "witness", "-n", "1", "-m", "4", "6/2;3;1;4/2") == ints


# One parts grammar on every verb: an optional sign, ASCII digits, optionally /q
BAD_PART_FORMS = [("1_0", "underscore"), ("\u0661", "arabic-indic-digit"), ("1.5", "decimal"), ("1e3", "exponent")]
BAD_PART_VERBS = [
    ("lr", lambda part: ("lr", part, "1", "1")),
    ("kostka-shape", lambda part: ("kostka", part, "1")),
    ("kostka-content", lambda part: ("kostka", "1", part)),
    ("genlr", lambda part: ("genlr", part, "1", "1")),
    ("decide", lambda part: ("decide", "-n", "1", "-m", "3", f"{part};1;1")),
    ("witness", lambda part: ("witness", "-n", "1", "-m", "3", f"{part};1;1")),
]


@pytest.mark.parametrize(
    "part,argv",
    [
        pytest.param(part, make(part), id=f"{verb}-{form}")
        for part, form in BAD_PART_FORMS
        for verb, make in BAD_PART_VERBS
    ],
)
def test_part_grammar_rejects_other_number_forms(capsys, part, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(part) in err


def test_integer_valued_fraction_reads_as_integer(capsys):
    assert run(capsys, "lr", "2/2", "1", "4/2") == run(capsys, "lr", "1", "1", "2")
    assert run(capsys, "lr", "2/2", "1", "4/2")[:2] == (0, "1\n")
    assert run(capsys, "kostka", "4/2,2/2", "1,2/2,1")[:2] == (0, "2\n")
    code, out, err = run(capsys, "lr", "1/2", "1", "1")
    assert (code, out) == (2, "") and err.count("\n") == 1


def test_decide_long_chain_integer_and_halved_parts(capsys):
    # lam_i = mu_(i-1) + mu_i links consecutive single rows: a member of length 1200
    rng = random.Random(1)
    mus = [rng.randint(0, 30) for _ in range(1201)]
    lams = [(mus[i] + mus[i + 1],) for i in range(1200)]
    argv = ("decide", "-n", "1", "-m", "1200", "--method", "oracle", "--json")
    code, out, _ = run(capsys, *argv, ";".join(str(lam[0]) for lam in lams))
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True and payload["scale"] == 1
    chain = tuple(tuple(mu) for mu in payload["witness"])
    assert chain_is_valid(WitnessChain(chain), lams)
    code, out, _ = run(capsys, *argv, ";".join(f"{lam[0]}/2" for lam in lams))
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True and payload["scale"] == 2


def test_crosscheck_text(capsys):
    code, out, _ = run(capsys, "crosscheck", "-n", "1", "-m", "3", "--bound", "2")
    assert code == 0
    assert "9 tuples" not in out  # 3 partitions in the box, cubed
    assert "27 tuples" in out
    assert "routes=[single-row,inequality]" in out
    assert "disagreements=0" in out


def test_crosscheck_json(capsys):
    code, out, _ = run(capsys, "crosscheck", "-n", "2", "-m", "3", "--bound", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 2,
        "m": 3,
        "bound": 1,
        "total": 27,
        "routes": ["inequality"],
        "disagreements": [],
    }


def test_crosscheck_unroutable(capsys):
    code, out, err = run(capsys, "crosscheck", "-n", "2", "-m", "4", "--bound", "1")
    assert (code, out) == (3, "")
    assert err == (
        "error: no finite description to compare against for n=2, m=4; "
        "only the witness search covers this case\n"
    )


def test_json_output_is_byte_stable(capsys):
    first = run(capsys, "decide", "-n", "2", "-m", "5", "--json", "2,1;2,1;;;")
    second = run(capsys, "decide", "-n", "2", "-m", "5", "--json", "2,1;2,1;;;")
    assert first == second
    a = run(capsys, "ineqs", "-n", "2", "-m", "5", "--json")
    b = run(capsys, "ineqs", "-n", "2", "-m", "5", "--json")
    assert a == b


def test_help_and_usage_exit_codes(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "decide", "-n", "1")[0] == 2
    # -n, -m and --json come from one parent parser, attached to exactly these verbs
    sized = {"snm", "ineqs", "decide", "witness", "crosscheck"}
    for verb in ("lr", "kostka", "genlr", *sized):
        code, out, _ = run(capsys, verb, "--help")
        assert code == 0
        words = {word.strip("[],") for word in out.split()}
        assert {option in words for option in ("-n", "-m", "--json")} == {verb in sized}, verb


def test_parser_is_built_once(capsys, monkeypatch):
    assert run(capsys, "lr", "1", "1", "2")[:2] == (0, "1\n")

    def rebuild():
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    assert run(capsys, "witness", "-n", "1", "-m", "4", "3;3;1;2")[:2] == (0, "[];[3];[];[1];[1]\n")


# Each golden under tests/golden/cli_<name>.json is the exact stdout of the
# listed command.  A deliberate change to the output or a printed count
# re-records them all with `PYTHONPATH=src python scripts/export_goldens.py`,
# which reads this list; review the diff before committing.
CLI_GOLDEN_CASES = [
    ("snm_n2_m3", ["snm", "-n", "2", "-m", "3", "--json"], 0),
    ("decide_member", ["decide", "-n", "2", "-m", "3", "--json", "2,1;1;2,1"], 0),
    ("decide_horn_certificate", ["decide", "-n", "2", "-m", "3", "--json", ";1,1;2"], 1),
    ("decide_rational_scale6", ["decide", "-n", "2", "-m", "3", "--json", "1/2,1/3;1/2,1/3;1/3"], 0),
    ("decide_single_row", ["decide", "-n", "1", "-m", "4", "--json", "3;3;1;2"], 0),
    ("decide_single_row_certificate", ["decide", "-n", "1", "-m", "4", "--json", "1;3;1;1"], 1),
    ("decide_oracle_only", ["decide", "-n", "2", "-m", "4", "--method", "oracle", "--json", "1/2,1/3;1/2;1/3;1/2,1/3"], 0),
    ("decide_no_route", ["decide", "-n", "2", "-m", "4", "--json", "2,1;2,1;1;1"], 0),
    ("decide_no_route_none", ["decide", "-n", "2", "-m", "4", "--json", "1;3;1;1"], 1),
    ("decide_ineq_only", ["decide", "-n", "2", "-m", "5", "--method", "ineq", "--json", "2,1;2,1;;;"], 0),
    ("witness_chain", ["witness", "-n", "2", "-m", "3", "--json", "2,1;1;2,1"], 0),
    ("witness_none", ["witness", "-n", "1", "-m", "3", "--json", "1;3;1"], 1),
    ("witness_none_n3_m5", ["witness", "-n", "3", "-m", "5", "--json", "19,15,14;20,15,11;11,3,3;19,13,3;13,4,1"], 1),
    ("crosscheck_n1_m3", ["crosscheck", "-n", "1", "-m", "3", "--bound", "2", "--json"], 0),
]


@pytest.mark.parametrize("name,argv,code", CLI_GOLDEN_CASES, ids=[c[0] for c in CLI_GOLDEN_CASES])
def test_cli_json_matches_golden(capsys, name, argv, code):
    assert run(capsys, *argv)[:2] == (code, (GOLDEN / f"cli_{name}.json").read_text())
