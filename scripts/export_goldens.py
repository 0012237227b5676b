"""Regenerate the golden JSON files under tests/golden/.

The ineqs_* and quiver_* files are serialized directly; each cli_<name>.json
is the stdout of the command listed under that name in CLI_GOLDEN_CASES of
tests/test_cli.py, which must exit with the code listed there.  Run after any
deliberate change to the serialization format or to a printed count, then
review the diff before committing:

    PYTHONPATH=src python scripts/export_goldens.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path

from kleinhorn.cli import main as cli_main
from kleinhorn.cone import system_json
from kleinhorn.partitions import to_json
from kleinhorn.quiver import build_star, quiver_to_json_dict

TESTS = Path(__file__).resolve().parent.parent / "tests"
GOLDEN = TESTS / "golden"

INEQ_CASES = [(1, 3), (2, 3), (2, 5), (3, 5), (2, 7)]
QUIVER_CASES = [(1, 3), (2, 3)]


def cli_cases() -> list:
    """The (name, argv, code) literals of CLI_GOLDEN_CASES in tests/test_cli.py."""
    tree = ast.parse((TESTS / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CLI_GOLDEN_CASES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("CLI_GOLDEN_CASES not found in tests/test_cli.py")


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for n, m in INEQ_CASES:
        path = GOLDEN / f"ineqs_n{n}_m{m}.json"
        path.write_text("".join(system_json(n, m)) + "\n")
        print(f"wrote {path}")
    for n, m in QUIVER_CASES:
        path = GOLDEN / f"quiver_n{n}_m{m}.json"
        path.write_text(to_json(quiver_to_json_dict(build_star(n, m))) + "\n")
        print(f"wrote {path}")
    for name, argv, code in cli_cases():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            got = cli_main(argv)
        if got != code:
            print(f"cli_{name}: exit {got}, CLI_GOLDEN_CASES lists {code}; not written", file=sys.stderr)
            return 1
        path = GOLDEN / f"cli_{name}.json"
        path.write_text(out.getvalue())
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
