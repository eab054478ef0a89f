"""Source-level guards on the latq package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "latq"


def test_cross_checks_survive_optimised_mode():
    # `python -O` strips assert statements, which would silently drop the
    # cross-checks behind the CLI's exit code 3; checks raise explicitly
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
