"""Every test the architecture's cross-layer invariants cite exists.

``docs/architecture.md`` names, for each cross-layer invariant, the test
files that enforce it, and for some the class or test id.  A renamed or
deleted test would leave its invariant unchecked without notice; this
test fails instead.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOC = ROOT / "docs" / "architecture.md"

#: A cited test in backticks: a ``test_*.py`` file of ``tests/``, or a
#: path under ``tests/`` or ``benchmarks/``, then any ``::Class`` or
#: ``::Class::test`` parts.
CITATION = re.compile(r"`((?:tests/|benchmarks/)[\w/.]*|test_\w+\.py)((?:::\w+)*)`")


def _invariants() -> list:
    """The numbered items of the "Cross-layer invariants" section."""
    text = DOC.read_text()
    start = text.index("## Cross-layer invariants")
    section = text[start : text.index("\n## ", start)]
    return re.split(r"\n(?=\d+\. \*\*)", section)[1:]


INVARIANTS = _invariants()
CITATIONS = sorted({match.group(0).strip("`") for item in INVARIANTS
                    for match in CITATION.finditer(item)})


def _names(scope) -> dict:
    """Classes and functions defined directly in ``scope``, by name."""
    return {
        node.name: node
        for node in scope.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_every_invariant_cites_a_test():
    assert len(INVARIANTS) == 16
    for item in INVARIANTS:
        assert CITATION.search(item), item.splitlines()[0]


@pytest.mark.parametrize("citation", CITATIONS)
def test_cited_test_exists(citation):
    path, *parts = citation.split("::")
    if "/" not in path:
        path = f"tests/{path}"
    target = ROOT / path
    assert target.exists(), f"{citation}: no {path}"
    scope = ast.parse(target.read_text()) if parts else None
    for part in parts:
        names = _names(scope)
        assert part in names, f"{citation}: no {part} in {path}"
        scope = names[part]
