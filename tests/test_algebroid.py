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
    # the added anchor row pairs the twist against the frame
    t_row = up.anchor[-1]
    assert t_row[0] == up.patch.const(1)
    assert t_row[1] == up.patch.zero()


def test_lift_hat_structure():
    p = Patch(("x", "y"))
    A = make_tangent(p)
    J = JacobiAlgebroidData(A, Form.coframe(A, 0))
    up = lift_hat(J)
    assert up.patch.has_time
    assert validate_algebroid(up).ok
    emt = up.patch.const(1).times_exp(-1)
    assert up.anchor[0][0] == emt
    # twist enters the lifted bracket: [e1, e2]^ = -phi(e1) e2 scaled by e^{-t}
    e1, e2 = MultiVector.frame(up, 0), MultiVector.frame(up, 1)
    got = bracket_sections(up, e1, e2)
    assert got == -emt * e2


def test_explicit_requires_consistent_shapes():
    p = Patch(("x",))
    zero = p.zero()
    with pytest.raises(ValueError):
        make_explicit(p, 2, ((zero,),), {})  # anchor row too short
