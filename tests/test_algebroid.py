import random

import pytest

from jacv import calculus
from jacv.algebroid import (
    AlgebroidPatch,
    JacobiAlgebroidData,
    Patch,
    _frame_residues,
    extend_with_R,
    lift_bar,
    lift_hat,
    make_explicit,
    make_tangent,
    make_trivial,
    validate_algebroid,
)
from jacv.calculus import (
    Form,
    MismatchError,
    MultiVector,
    differential,
    phi0_schouten,
    schouten,
)
from jacv.coeff import ExpPoly, VariableSetMismatch
from jacv.structures import make_standard_bialgebroid
from tests.gen import (
    action_algebroids,
    bracketed_frame_residues,
    rand_form,
    rand_scalar,
    record_products,
)


def test_patch_basics():
    p = Patch(("x", "y"))
    assert p.variables == ("x", "y", "t")
    assert p.anchor_coords == ("x", "y")
    q = Patch(("x", "y"), has_time=True)
    assert q.anchor_coords == ("x", "y", "t")
    assert str(p.coord("x")) == "x"


def test_patch_rejects_bad_names():
    with pytest.raises(ValueError):
        Patch(("x", "t"))
    with pytest.raises(ValueError):
        Patch(("x", "x"))
    with pytest.raises(ValueError):
        Patch(("2bad",))
    # a point base is fine: no coordinates, just the reserved t
    assert Patch(()).variables == ("t",)


def test_tangent_validates_and_anchors_identically():
    p = Patch(("x", "y", "z"))
    A = make_tangent(p)
    assert A.rank == 3
    assert validate_algebroid(A).ok
    # anchor of the i-th frame element is the i-th coordinate derivation
    e0 = MultiVector.frame(A, 0)
    e1 = MultiVector.frame(A, 1)
    assert schouten(e0, e1).is_zero


def test_trivial_validates():
    p = Patch(("x",))
    A = make_trivial(p, 3)
    assert A.rank == 3
    assert validate_algebroid(A).ok


def test_explicit_solvable_bracket():
    p = Patch(("q",))
    zero, one = p.zero(), p.const(1)
    A = make_explicit(p, 2, ((zero, zero),), {(0, 1): (zero, one)})
    assert validate_algebroid(A).ok
    e1, e2 = MultiVector.frame(A, 0), MultiVector.frame(A, 1)
    assert schouten(e1, e2) == e2
    assert schouten(e2, e1) == -e2


def test_jacobi_identity_failure_is_reported():
    # [e1,e2] = e2, [e2,e3] = e1 has a nonzero Jacobiator
    p = Patch(("q",))
    zero, one = p.zero(), p.const(1)
    A = make_explicit(
        p,
        3,
        ((zero, zero, zero),),
        {(0, 1): (zero, one, zero), (1, 2): (one, zero, zero)},
    )
    report = validate_algebroid(A)
    assert not report.ok
    assert "jacobi" in report.witness.lower()


def test_anchor_compatibility_failure_is_reported():
    # identity bracket data but a coordinate-dependent anchor twist
    p = Patch(("x", "y"))
    zero, one = p.zero(), p.const(1)
    anchor = ((p.coord("y"), zero), (zero, one))
    A = make_explicit(p, 2, anchor, {})
    report = validate_algebroid(A)
    assert not report.ok


def test_extension_shape_and_twist():
    p = Patch(("x", "y"))
    A = make_tangent(p)
    C = extend_with_R(A)
    ext = C.algebroid
    assert ext.rank == A.rank + 1
    assert ext.frame_labels[-1] == "ehat"
    assert ext.coframe_labels[-1] == "epshat"
    assert ext.ext_base is A
    assert C.phi0 == Form.coframe(ext, ext.rank - 1)
    assert validate_algebroid(ext).ok
    assert validate_algebroid(C).ok


def test_validate_algebroid_rejects_nonclosed_twist():
    p = Patch(("x", "y"))
    A = make_tangent(p)
    # x dy is not closed on the tangent algebroid
    twist = p.coord("x") * Form.coframe(A, 1)
    J = JacobiAlgebroidData(A, twist)
    assert not differential(A, twist).is_zero
    assert not validate_algebroid(J).ok
    assert validate_algebroid(A).ok


def test_lift_bar_structure():
    p = Patch(("x", "y"))
    A = make_tangent(p)
    J = JacobiAlgebroidData(A, Form.coframe(A, 0))
    up = lift_bar(J)
    assert up.patch.has_time
    assert up.rank == A.rank
    assert validate_algebroid(up).ok
    # each anchor column gains the t-entry pairing the twist against the frame
    one = up.patch.const(1)
    assert up.anchor == ((("x", one), ("t", one)), (("y", one),))
    assert up.brackets == {}


def test_lift_hat_structure():
    p = Patch(("x", "y"))
    A = make_tangent(p)
    J = JacobiAlgebroidData(A, Form.coframe(A, 0))
    up = lift_hat(J)
    assert up.patch.has_time
    assert validate_algebroid(up).ok
    emt = up.patch.const(1).times_exp(-1)
    assert up.anchor == ((("x", emt), ("t", emt)), (("y", emt),))
    # twist enters the lifted bracket: [e1, e2]^ = -phi(e1) e2 scaled by e^{-t}
    e1, e2 = MultiVector.frame(up, 0), MultiVector.frame(up, 1)
    got = schouten(e1, e2)
    assert got == -emt * e2
    # every ordered pair, on a base with structure functions and a twist with
    # two nonzero components:
    #   [e_i, e_j]^ = e^{-t} sum_k (c_ij^k - delta_jk phi_i + delta_ik phi_j) e_k
    q = Patch(("q",))
    zero, one, x = q.zero(), q.const(1), q.coord("q")
    table = {(0, 1): (zero, one, zero), (1, 2): (x, zero, one)}
    base = make_explicit(q, 3, ((zero, zero, zero),), table)
    phi = (q.const(2), zero, x)
    twist = Form(base, 1, {(k,): c for k, c in enumerate(phi)})
    up = lift_hat(JacobiAlgebroidData(base, twist))
    emt = q.const(1).times_exp(-1)

    def c(i, j, k):
        if (i, j) in table:
            return table[i, j][k]
        if (j, i) in table:
            return -table[j, i][k]
        return zero

    for i in range(3):
        for j in range(3):
            want = {}
            for k in range(3):
                value = c(i, j, k)
                if j == k:
                    value = value - phi[i]
                if i == k:
                    value = value + phi[j]
                want[k,] = emt * value
            got = schouten(MultiVector.frame(up, i), MultiVector.frame(up, j))
            assert got == MultiVector(up, 1, want), (i, j)


def _sparse_examples():
    p = Patch(("x", "y"))
    A = make_tangent(p)
    x = p.coord("x")
    twist = x * Form.coframe(A, 1) + Form.coframe(A, 0)
    J = JacobiAlgebroidData(A, twist)
    q = Patch(("q",))
    zero, one = q.zero(), q.const(1)
    explicit = make_explicit(
        q, 3, ((zero, one, zero),), {(0, 1): (zero, one, zero), (0, 2): (zero, zero, zero)}
    )
    ext = extend_with_R(explicit).algebroid
    twisted = JacobiAlgebroidData(ext, Form.coframe(ext, 3) + Form.coframe(ext, 1))
    return (
        A, make_trivial(p, 3), explicit, ext, lift_bar(J), lift_hat(J),
        lift_bar(twisted), lift_hat(twisted), make_standard_bialgebroid(J).Astar,
    )


def test_frame_data_is_stored_sparsely():
    examples = _sparse_examples()
    for A in examples:
        names = A.patch.anchor_coords
        assert len(A.anchor) == A.rank
        for column in A.anchor:
            coords = [name for name, _ in column]
            assert coords == sorted(set(coords), key=names.index)
            assert all(not c.is_zero and c.vars == A.patch.variables for _, c in column)
        for (i, j), row in A.brackets.items():
            assert 0 <= i < j < A.rank and row
            ks = [k for k, _ in row]
            assert ks == sorted(set(ks)) and all(0 <= k < A.rank for k in ks)
            assert all(not c.is_zero and c.vars == A.patch.variables for _, c in row)
    # zeros given to the constructors are dropped
    explicit = examples[2]
    one = explicit.scalar(1)
    assert explicit.anchor == ((), (("q", one),), ())
    assert explicit.brackets == {(0, 1): ((1, one),)}


def test_frame_data_rejects_bad_keys_coordinates_and_variables():
    p = Patch(("x", "y"))
    one = p.const(1)
    foreign = Patch(("u",)).const(1)
    empty = ((), (), ())
    for anchor, brackets in [
        (empty, {(1, 0): ((0, one),)}),  # i > j
        (empty, {(1, 1): ((0, one),)}),  # i == j
        (empty, {(0, 3): ((0, one),)}),  # j out of range
        (empty, {(0, 1): ((3, one),)}),  # k out of range
        (empty, {(0, 1): ((0, one), (0, one))}),  # repeated k
        (empty, {(0, 1): ((0, foreign),)}),  # wrong variables
        (((("z", one),), (), ()), {}),  # unknown coordinate
        (((("t", one),), (), ()), {}),  # t is no coordinate without has_time
        (((("x", one), ("x", one)), (), ()), {}),  # repeated coordinate
        (((("x", foreign),), (), ()), {}),  # wrong variables
        (((), ()), {}),  # one column short
    ]:
        with pytest.raises(ValueError):
            AlgebroidPatch(p, 3, anchor, brackets)
    with pytest.raises(ValueError):
        make_explicit(p, 2, ((one, one), (one, one)), {(0, 1): (one,)})
    with pytest.raises(ValueError, match="rank must not be negative, got -1"):
        make_trivial(p, -1)


def test_explicit_requires_consistent_shapes():
    p = Patch(("x",))
    zero = p.zero()
    with pytest.raises(ValueError):
        make_explicit(p, 2, ((zero,),), {})  # anchor row too short


def _rho_by_diff(A, i, f):
    """Oracle: rho(e_i) f as the sum of entry * df/dx over the anchor
    entries of e_i, one ``diff`` per entry."""
    total = A.zero_scalar()
    for name, entry in A.anchor[i]:
        total = total + entry * f.diff(name)
    return total


def _assert_anchor_derivs(A, f):
    got = A.anchor_derivs(f)
    assert set(got) <= set(range(A.rank))
    for i in range(A.rank):
        expected = _rho_by_diff(A, i, f)
        if expected.is_zero:
            assert i not in got, (i, f)
        else:
            assert got[i] == expected, (i, f)


def test_anchor_derivs_match_one_diff_per_entry():
    p = Patch(("x", "y"))
    x, y, one = p.coord("x"), p.coord("y"), p.const(1)
    TA = make_tangent(p)
    # a twist with non-constant components, so each lifted column has two
    # entries (bar) or two entries weighted by e^{-t} (hat)
    J = JacobiAlgebroidData(TA, differential(TA, Form(TA, 0, {(): x * y})))
    bar, hat = lift_bar(J), lift_hat(J)
    assert all(len(column) == 2 for column in bar.anchor + hat.anchor)
    assert all(
        {weight for weight, _, _ in entry.monomials()} == {-1}
        for column in hat.anchor
        for _, entry in column
    )
    # column 0 is d/dx - d/dy, which cancels on x + y; column 1 is x d/dy
    cancel = make_explicit(p, 2, ((one, p.zero()), (-one, x)), {})
    assert cancel.anchor_derivs(x + y) == {1: x}
    algebroids = [TA, bar, hat, cancel]
    algebroids += [data.algebroid for data in action_algebroids()]
    for A in algebroids:
        for seed in range(15):
            r = random.Random(seed)
            f = rand_scalar(r, A.patch, max_degree=3, terms=3, with_t=True, exp_range=2)
            _assert_anchor_derivs(A, f)
        _assert_anchor_derivs(A, x + y)


def test_unit_anchor_entries_are_found_once(monkeypatch):
    # every entry of a tangent or extension frame is 1: anchor_derivs adds
    # its derivative with no value comparison, and the kernel forms no
    # product with it, while an entry -1 or x is multiplied
    p = Patch(("x", "y"))
    x, y, one = p.coord("x"), p.coord("y"), p.const(1)
    TA = make_tangent(p)
    mixed = make_explicit(p, 2, ((one, -one), (x, one)), {})
    f = x * x * y + y.times_exp(1)
    expected = {
        TA: {0: 2 * x * y, 1: x * x + ExpPoly.exp(p.variables, 1)},
        mixed: {0: 2 * x * y + x * (x * x + ExpPoly.exp(p.variables, 1)),
                1: -2 * x * y + x * x + ExpPoly.exp(p.variables, 1)},
    }
    compared = []
    eq = ExpPoly.__eq__

    def counting_eq(a, b):
        compared.append((a, b))
        return eq(a, b)

    monkeypatch.setattr(ExpPoly, "__eq__", counting_eq)
    products = record_products(monkeypatch)
    ext = extend_with_R(TA).algebroid
    derivs, counts = {}, {}
    for A in (TA, ext, mixed):
        del compared[:], products[:]
        derivs[A] = A.anchor_derivs(f)
        counts[A] = len(compared), len(products)
    monkeypatch.undo()
    assert counts[TA] == counts[ext] == (0, 0) and counts[mixed][1] == 2
    assert derivs == {TA: expected[TA], ext: expected[TA], mixed: expected[mixed]}


def test_anchor_derivs_and_brackets_refuse_foreign_operands():
    p = Patch(("x", "y"))
    A = make_tangent(p)
    ddx = MultiVector.frame(A, 0)
    # x over (y, x, t): read by position it would be y
    x_swapped = ExpPoly.var(("y", "x", "t"), "x")
    with pytest.raises(VariableSetMismatch):
        A.anchor_derivs(x_swapped)
    assert A.anchor_derivs(p.coord("x")) == {0: p.const(1)}
    # sections over two algebroids on one patch whose data differ do not
    # bracket, and the twisted bracket over A refuses sections over another
    # algebroid
    other = make_trivial(p, 2)
    foreign = MultiVector.frame(other, 0), MultiVector.frame(other, 1)
    with pytest.raises(MismatchError):
        schouten(ddx, foreign[1])
    J = JacobiAlgebroidData(A, Form.coframe(A, 0))
    with pytest.raises(MismatchError):
        phi0_schouten(J, *foreign)
    with pytest.raises(MismatchError):
        phi0_schouten(J, ddx, foreign[1])


def test_unit_components_that_are_not_the_shared_one_form_no_product(monkeypatch):
    # A.scalar(1) is a fresh 1, not the patch's shared object: the kernel,
    # which compares stored terms, skips it all the same, so the bracket of
    # two such sections forms no product, f g = 1 included
    for J in action_algebroids():
        A = J.algebroid
        units = [MultiVector(A, 1, {(i,): A.scalar(1)}) for i in range(A.rank)]
        frames = [MultiVector.frame(A, i) for i in range(A.rank)]
        assert units[0].components[(0,)] is not A.patch.one()
        for i in range(A.rank):
            for j in range(i + 1, A.rank):
                with monkeypatch.context() as patched:
                    products = record_products(patched)
                    bracket = schouten(units[i], units[j])
                assert products == [], (A.rank, i, j)
                assert bracket == schouten(frames[i], frames[j])


def _random_explicit(r, has_time=None):
    """Random frame data: rank 0-4 over one or two coordinates, sparse
    anchor entries with exp weights, and with or without brackets."""
    if has_time is None:
        has_time = r.random() < 0.5
    patch = Patch(("x", "y")[: r.randint(1, 2)], has_time=has_time)
    rank = r.randint(0, 4)
    zero = patch.zero()

    def entry(density):
        if r.random() >= density:
            return zero
        return rand_scalar(
            r, patch, max_degree=r.randint(0, 1), terms=r.randint(1, 2),
            with_t=has_time, exp_range=r.choice((0, 0, 1)),
        )

    anchor = [[entry(0.4) for _ in range(rank)] for _ in patch.anchor_coords]
    brackets = {}
    if r.random() < 0.6:
        for i in range(rank):
            for j in range(i + 1, rank):
                if r.random() < 0.5:
                    brackets[i, j] = [entry(0.4) for _ in range(rank)]
    return make_explicit(patch, rank, anchor, brackets)


def _nonzero(residues):
    return [(label, str(residue), residue) for label, residue in residues
            if not residue.is_zero]


def test_closed_form_frame_residues_agree_with_bracketed_frames():
    # every nonzero (label, residue), not only the first failure, is that
    # of bracketing frame sections and applying anchors to coordinates
    r = random.Random(28)
    cases = []
    for _ in range(200):
        A = _random_explicit(r)
        twist = rand_form(r, A, 1, max_degree=1, terms=1) if r.random() < 0.3 else None
        cases.append((A, twist))
    for _ in range(40):
        A = _random_explicit(r, has_time=False)
        J = JacobiAlgebroidData(A, rand_form(r, A, 1, max_degree=1, terms=1, exp_range=1))
        cases += [(lift_bar(J), None), (lift_hat(J), None), (A, J.phi0)]
    cases += [(J.algebroid, J.phi0) for J in action_algebroids()]
    cases += [(lift_bar(J), None) for J in action_algebroids() if not J.algebroid.patch.has_time]
    seen = set()
    for n, (A, twist) in enumerate(cases):
        got = _nonzero(_frame_residues(A, twist))
        assert got == _nonzero(bracketed_frame_residues(A, twist)), n
        failed = {label.split("(")[0] for label, _, _ in got}
        seen |= failed or {"pass"}
        if A.rank >= 3 and A.brackets and "jacobi" not in failed:
            seen.add("jacobi holds")
    # every identity fails somewhere, and the Jacobi identity also holds
    # on bracketed data
    assert seen == {"pass", "anchor", "jacobi", "d", "jacobi holds"}


def test_an_algebroid_with_no_bracket_has_no_jacobi_residue(monkeypatch):
    # every Jacobi term has a factor c, so no Jacobi residue is yielded, and
    # the anchor residues take no section bracket
    def no_bracket(*args):
        raise AssertionError("a section bracket was taken")

    monkeypatch.setattr(calculus, "schouten", no_bracket)
    p = Patch(("x", "y"), has_time=True)
    x, one = p.coord("x"), p.const(1)
    A = make_explicit(p, 3, ((one, x, p.zero()), (x, one, x), (one, one, one)), {})
    labels = [label for label, _ in _frame_residues(A)]
    assert labels == [
        f"anchor([e{i},e{j}]) on {v}: " for i, j in ((1, 2), (1, 3), (2, 3)) for v in "xyt"
    ]
    assert not validate_algebroid(A).ok
    assert validate_algebroid(make_tangent(p)).ok
