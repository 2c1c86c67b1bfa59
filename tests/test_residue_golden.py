"""Failing residues of the twisted calculus, pinned as text.

The batch is ``tests.gen.residue_batch``: d_phi d_phi w and twisted
Schouten brackets over the action algebroids and their lifts, with twists
that are not closed, so every residue is nonzero.  Their coefficients hold
exp weights, powers of t and Fractions, so the text pins the canonical
order of monomials, weights and signs that a ``fail`` witness prints.  To
write ``tests/golden/residues.txt`` again:

    PYTHONPATH=src python -c "from tests.test_residue_golden import render; \\
        print(render(), end='')" > tests/golden/residues.txt
"""

from pathlib import Path

from tests.gen import RESIDUE_KINDS, residue_batch

GOLDEN = Path(__file__).resolve().parent / "golden" / "residues.txt"
SEED = 23
COUNT = 18


def render():
    return "".join(
        f"{n} | {kind} | {residue}\n"
        for n, (kind, residue) in enumerate(residue_batch(SEED, COUNT))
    )


def test_residues_match_the_golden_copy():
    text = render()
    assert text == GOLDEN.read_text(encoding="utf-8")
    rows = [line.split(" | ") for line in text.splitlines()]
    assert len(rows) == COUNT and {row[1] for row in rows} == set(RESIDUE_KINDS)
    for piece in ("exp(t)", "exp(-t)", "*t^", "/"):
        assert piece in text, piece
