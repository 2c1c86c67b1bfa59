import pytest

from jacv.algebroid import (
    AlgebroidPatch,
    JacobiAlgebroidData,
    Patch,
    bracket_sections,
    extend_with_R,
    lift_bar,
    lift_hat,
    make_explicit,
    make_tangent,
    make_trivial,
    validate_algebroid,
    validate_jacobi,
)
from jacv.calculus import Form, MultiVector, differential
from jacv.structures import make_standard_bialgebroid


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
    assert bracket_sections(A, e0, e1).is_zero


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
    assert bracket_sections(A, e1, e2) == e2
    assert bracket_sections(A, e2, e1) == -e2


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
    assert validate_jacobi(C).ok


def test_validate_jacobi_rejects_nonclosed_twist():
    p = Patch(("x", "y"))
    A = make_tangent(p)
    # x dy is not closed on the tangent algebroid
    twist = p.coord("x") * Form.coframe(A, 1)
    J = JacobiAlgebroidData(A, twist)
    assert not differential(A, twist).is_zero
    assert not validate_jacobi(J).ok


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
    got = bracket_sections(up, e1, e2)
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
            got = bracket_sections(up, MultiVector.frame(up, i), MultiVector.frame(up, j))
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
