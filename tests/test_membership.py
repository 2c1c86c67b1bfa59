"""One place decides whether operands live over the same algebroid.

Each module under ``src/jacv`` is parsed with ``ast``.  Outside
``calculus._check_over``, no comparison (``is``, ``is not``, ``==`` or
``!=``) may take an ``.algebroid`` attribute as an operand, and no
``raise`` may word a refusal that mentions a different algebroid: every
such decision and its message go through ``_check_over``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src/jacv").glob("*.py"))
COMPARISONS = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)


def _outside_check_over(source, owner):
    """``(line, what)`` of each algebroid comparison and each raise naming
    a different algebroid, except inside ``_check_over`` of the module
    that owns it."""
    tree = ast.parse(source)
    inside = set()
    if owner:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_check_over":
                inside.update(id(n) for n in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Compare) and any(
            isinstance(op, COMPARISONS) for op in node.ops
        ):
            if any(
                isinstance(operand, ast.Attribute) and operand.attr == "algebroid"
                for operand in (node.left, *node.comparators)
            ):
                found.append((node.lineno, "comparison"))
        if isinstance(node, ast.Raise) and node.exc is not None:
            if any(
                isinstance(part, ast.Constant)
                and isinstance(part.value, str)
                and "different algebroid" in part.value
                for part in ast.walk(node.exc)
            ):
                found.append((node.lineno, "raise"))
    return sorted(found)


def test_the_scan_sees_a_membership_test_of_its_own():
    source = (
        "def _check_over(A, *values):\n"
        "    for value in values:\n"
        "        if value.algebroid != A:\n"
        "            raise E('operands live over different algebroids')\n"
        "def wedge(u, v):\n"
        "    if u.algebroid is not v.algebroid:\n"
        "        raise E(f'{u} lives over a different algebroid')\n"
        "    if u.algebroid.rank == v.algebroid.rank:\n"
        "        return A == x.algebroid\n"
    )
    assert _outside_check_over(source, owner=True) == [
        (6, "comparison"), (7, "raise"), (9, "comparison"),
    ]
    assert _outside_check_over(source, owner=False) == [
        (3, "comparison"), (4, "raise"), (6, "comparison"), (7, "raise"),
        (9, "comparison"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_check_over_compares_algebroids(path):
    source = path.read_text(encoding="utf-8")
    assert _outside_check_over(source, owner=path.name == "calculus.py") == []
