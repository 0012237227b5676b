from __future__ import annotations

import json
from pathlib import Path

import pytest

from kleinhorn.cli import main

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


def test_genlr(capsys):
    code, out, _ = run(capsys, "genlr", "", "2,1", "2,1", "", "")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "genlr", "", "2,1", "", "2,1", "")
    assert code == 0 and out == "0\n"
    code, _, err = run(capsys, "genlr", "1", "1")
    assert code == 2 and "at least three" in err


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


def test_snm_even_m_unsupported(capsys):
    code, _, err = run(capsys, "snm", "-n", "2", "-m", "4")
    assert code == 3 and "error:" in err


def test_ineqs_text(capsys):
    code, out, _ = run(capsys, "ineqs", "-n", "1", "-m", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("trace level=0:")
    assert lines[-1] == "# suppressed trivial: 1"


def test_ineqs_json_matches_golden(capsys):
    for n, m in [(1, 3), (2, 3), (2, 5)]:
        code, out, _ = run(capsys, "ineqs", "-n", str(n), "-m", str(m), "--json")
        assert code == 0
        assert out.strip() == (GOLDEN / f"ineqs_n{n}_m{m}.json").read_text().strip()


def test_ineqs_even_m_unsupported(capsys):
    code, _, err = run(capsys, "ineqs", "-n", "1", "-m", "4")
    assert code == 3 and "error:" in err


def test_decide_member(capsys):
    code, out, _ = run(capsys, "decide", "-n", "1", "-m", "3", "1;2;1")
    assert code == 0
    assert out.splitlines()[0] == "member"
    assert out.splitlines()[1].startswith("witness: ")


def test_decide_non_member_certificate(capsys):
    code, out, _ = run(capsys, "decide", "-n", "1", "-m", "3", "1;3;1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "not a member"
    assert lines[1].startswith("violated: trace") and "(value 1)" in lines[1]
    assert "no witness chain exists" in lines[2]


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
    code, _, _ = run(capsys, "decide", "-n", "1", "-m", "3", "1/2;3/2;1/2")
    assert code == 1


def test_decide_method_ineq_only(capsys):
    code, out, _ = run(capsys, "decide", "-n", "1", "-m", "3", "--method", "ineq", "1;2;1")
    assert code == 0 and out == "member\n"
    code, _, err = run(capsys, "decide", "-n", "2", "-m", "4", "--method", "ineq", "1;1;1;1")
    assert code == 3 and "use --method oracle" in err


def test_decide_method_oracle_only(capsys):
    code, out, _ = run(capsys, "decide", "-n", "2", "-m", "4", "--method", "oracle", "1;1;1;1")
    assert code == 0 and out.splitlines()[0] == "member"


def test_decide_json_schema(capsys):
    code, out, _ = run(capsys, "decide", "-n", "1", "-m", "3", "--json", "1;3;1")
    assert code == 1
    payload = json.loads(out)
    assert payload["member"] is False
    assert payload["method"] == "both"
    assert payload["route"] == "inequality-system"
    assert payload["certificate"]["origin"] == "trace"
    assert payload["witness"] is None
    assert payload["scale"] == 1
    assert payload["explored"] >= 1
    code, out, _ = run(capsys, "decide", "-n", "1", "-m", "3", "--json", "1;2;1")
    payload = json.loads(out)
    assert code == 0 and payload["member"] is True
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


def test_witness_text_and_json(capsys):
    code, out, _ = run(capsys, "witness", "-n", "1", "-m", "4", "3;3;1;2")
    assert code == 0 and out == "[];[3];[];[1];[1]\n"
    code, out, _ = run(capsys, "witness", "-n", "1", "-m", "4", "--json", "3;3;1;2")
    assert code == 0
    assert json.loads(out) == {"exists": True, "chain": [[], [3], [], [1], [1]]}
    code, out, _ = run(capsys, "witness", "-n", "1", "-m", "3", "--json", "1;3;1")
    assert code == 1
    payload = json.loads(out)
    assert payload["exists"] is False and payload["search_space"] >= 1


def test_witness_rejects_rationals(capsys):
    code, _, err = run(capsys, "witness", "-n", "1", "-m", "3", "1/2;1;1/2")
    assert code == 2 and "use decide" in err


def test_crosscheck_text(capsys):
    code, out, _ = run(capsys, "crosscheck", "-n", "1", "-m", "3", "--bound", "2")
    assert code == 0
    assert "9 tuples" not in out  # 3 partitions in the box, cubed
    assert "27 tuples" in out
    assert "routes=[inequality,single-row]" in out
    assert "disagreements=0" in out


def test_crosscheck_json_and_threads(capsys):
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
    code, _, err = run(capsys, "crosscheck", "-n", "2", "-m", "4", "--bound", "1")
    assert code == 3 and "error:" in err


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


# Each golden under tests/golden/cli_<name>.json is the exact stdout of the
# listed command.  A deliberate format change re-records it by running the
# command and writing its stdout to the file; review the diff before committing.
CLI_GOLDEN_CASES = [
    ("snm_n2_m3", ["snm", "-n", "2", "-m", "3", "--json"], 0),
    ("decide_member", ["decide", "-n", "2", "-m", "3", "--json", "2,1;1;2,1"], 0),
    ("decide_horn_certificate", ["decide", "-n", "2", "-m", "3", "--json", ";1,1;2"], 1),
    ("decide_rational_scale6", ["decide", "-n", "2", "-m", "3", "--json", "1/2,1/3;1/2,1/3;1/3"], 0),
    ("decide_single_row", ["decide", "-n", "1", "-m", "4", "--json", "3;3;1;2"], 0),
    ("decide_single_row_certificate", ["decide", "-n", "1", "-m", "4", "--json", "1;3;1;1"], 1),
    ("decide_oracle_only", ["decide", "-n", "2", "-m", "4", "--method", "oracle", "--json", "1/2,1/3;1/2;1/3;1/2,1/3"], 0),
    ("decide_ineq_only", ["decide", "-n", "2", "-m", "5", "--method", "ineq", "--json", "2,1;2,1;;;"], 0),
    ("witness_chain", ["witness", "-n", "2", "-m", "3", "--json", "2,1;1;2,1"], 0),
    ("witness_none", ["witness", "-n", "1", "-m", "3", "--json", "1;3;1"], 1),
    ("crosscheck_n1_m3", ["crosscheck", "-n", "1", "-m", "3", "--bound", "2", "--json"], 0),
]


@pytest.mark.parametrize("name,argv,code", CLI_GOLDEN_CASES, ids=[c[0] for c in CLI_GOLDEN_CASES])
def test_cli_json_matches_golden(capsys, name, argv, code):
    assert run(capsys, *argv)[:2] == (code, (GOLDEN / f"cli_{name}.json").read_text())
