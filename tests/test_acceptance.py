"""End-to-end checks for the assembled package.

Everything here runs on exact rational/exponential-polynomial arithmetic;
every equality is literal equality of canonical forms, never numerical.
"""

import json
import random
from fractions import Fraction

from jacv import cli
from jacv.algebroid import (
    JacobiAlgebroidData,
    Patch,
    extend_with_R,
    make_tangent,
)
from jacv.calculus import (
    Form,
    MultiVector,
    contract,
    differential,
    merge,
    phi0_schouten,
    schouten,
    split,
    wedge,
    wedge_power,
)
from jacv.dirac import (
    GraphRelation,
    dirac_pair_check,
    jacobi_pair_check,
    jomega_check,
    omegan_check,
    torsion_tensor_check,
)
from jacv.lift import (
    lift_bialgebroid,
    lift_instance,
    lift_section,
    theorem_main1_crosscheck,
    verify_bracket_scaling,
    verify_hat_bar_differentials,
)
from jacv.structures import (
    flat_map,
    graph_closure_check,
    jacobi_bracket,
    jacobi_check,
    make_standard_bialgebroid,
    maurer_cartan_check,
    nondegenerate_check,
    pi_from_omega,
    presymplectic_check,
    sharp_map,
)
from tests.gen import (
    closed_twist,
    contact,
    rand_form,
    rand_graph_section,
    rand_multivector,
    rand_scalar,
    rand_unit_bivector,
    rand_unit_two_form,
    small_tangent,
)


# -- the differential of the line extension acts as a pair formula -----------

def test_extension_differential_pair_formula_on_the_contact_patch():
    c = contact()
    for seed in range(10):
        r = random.Random(seed)
        alpha = rand_form(r, c.TA, 1, max_degree=2, terms=2)
        scalar = rand_scalar(r, c.p, max_degree=2, terms=2)
        beta = Form(c.TA, 0, {} if scalar.is_zero else {(): scalar})
        got = differential(c.C, merge(c.ext, alpha, beta))
        want = merge(
            c.ext,
            differential(c.J, alpha),
            alpha - differential(c.J, beta),
        )
        assert got == want, f"seed={seed}: alpha={alpha}, beta={beta}"


def test_merged_contact_two_form_is_closed_upstairs():
    c = contact()
    assert c.Om == merge(c.ext, differential(c.J, c.b_O), c.b_O)
    assert differential(c.C, c.Om).is_zero


# -- the family of merged two-forms and their recursion maps -----------------

def test_merged_two_form_family():
    c = contact()
    for om in (c.Om, c.wH, c.wE, c.wP):
        report = presymplectic_check(c.C, om)
        assert report.ok, report.witness
    top = wedge_power(c.Om, 3)
    assert not top.is_zero
    assert wedge_power(c.wP, 3).is_zero
    assert (wedge_power(c.wH, 3) + top).is_zero
    assert wedge_power(c.wE, 3) == top


def test_recursion_maps_are_torsion_free():
    c = contact()
    for N in (c.NH, c.NE, c.NP):
        report = torsion_tensor_check(N)
        assert report.ok, report.witness


def test_two_form_pairs_are_compatible_as_graphs():
    c = contact()
    for om in (c.wH, c.wE, c.wP):
        verdict = dirac_pair_check(
            c.C,
            GraphRelation.of_two_form(c.Om),
            GraphRelation.of_two_form(om),
        )
        assert verdict.ok, verdict.witness


# -- the inverse bivector and its coupled structures -------------------------

def test_inverse_bivector_and_coupled_structures():
    c = contact()
    assert nondegenerate_check(flat_map(c.Om)).ok
    assert pi_from_omega(c.C, c.Om) == c.Pi
    assert jacobi_check(c.C, c.Pi).ok
    for om in (c.wH, c.wE, c.wP):
        report = jomega_check(c.C, c.Pi, om)
        assert report.ok, report.witness
    for N in (c.NH, c.NE, c.NP):
        report = omegan_check(c.C, c.Om, N)
        assert report.ok, report.witness


# -- the contact bivector-vector pair, downstairs and merged -----------------

def test_contact_pair_self_bracket_vanishes_upstairs():
    c = contact()
    u = merge(c.ext, c.Lam, c.Ez)
    assert phi0_schouten(c.C, u, u).is_zero
    assert jacobi_check(c.C, u).ok


def test_contact_pair_identities_downstairs():
    c = contact()
    assert (schouten(c.Lam, c.Lam) + Fraction(2) * wedge(c.Ez, c.Lam)).is_zero
    assert schouten(c.Ez, c.Lam).is_zero


def test_merged_self_bracket_splits_into_the_two_identities():
    # the upstairs equation is equivalent to the pair of downstairs ones
    c = contact()
    for seed in range(5):
        r = random.Random(seed)
        L = rand_multivector(r, c.TA, 2, max_degree=2, terms=2)
        E = rand_multivector(r, c.TA, 1, max_degree=2, terms=2)
        u = merge(c.ext, L, E)
        P, Q = split(phi0_schouten(c.C, u, u))
        assert P == schouten(L, L) + Fraction(2) * wedge(E, L), f"seed={seed}"
        assert Q == Fraction(2) * schouten(E, L), f"seed={seed}"


# -- weighted lifts on random instances --------------------------------------

def test_lift_identities_on_random_instances():
    names = [("x", "y"), ("x", "y", "z"), ("x1", "x2", "x3", "x4")]
    for seed in range(20):
        r = random.Random(seed)
        p = Patch(names[seed % 3])
        A = make_tangent(p)
        J = JacobiAlgebroidData(A, closed_twist(r, A))
        sections = [
            rand_multivector(r, A, 2, max_degree=2, terms=2),
            rand_form(r, A, 2, max_degree=2, terms=2),
        ]
        report = verify_bracket_scaling(lift_instance(J), sections)
        assert report.ok, f"seed={seed}: {report.witness}"
        scalar = rand_scalar(r, p, max_degree=2, terms=2, with_t=True, exp_range=1)
        cosection = rand_form(r, A, 1, max_degree=2, terms=2, with_t=True, exp_range=1)
        report = verify_hat_bar_differentials(J, scalar, cosection)
        assert report.ok, f"seed={seed}: {report.witness}"


# -- deformation equation against graph closure ------------------------------

def test_deformation_equation_matches_graph_closure():
    c = contact()
    B = make_standard_bialgebroid(c.C)
    for seed in range(20):
        r = random.Random(seed)
        kind = "sharp" if seed % 2 == 0 else "flat"
        s = rand_graph_section(r, c.ext, kind)
        mc = maurer_cartan_check(B, s)
        cl = graph_closure_check(B, s)
        assert mc.status == cl.status, (
            f"seed={seed}: section={s}, "
            f"deformation={mc.status}, closure={cl.status}"
        )


# -- pair verdicts transport to the product line -----------------------------

def test_verdict_transport_on_the_contact_instances():
    c = contact()
    cases = (
        (GraphRelation.of_two_form(c.Om), GraphRelation.of_two_form(c.wH)),
        (GraphRelation.of_bivector(c.Pi), GraphRelation.of_two_form(c.wE)),
        (GraphRelation.of_bivector(c.Pi), GraphRelation.of_bivector(c.Pi)),
    )
    for left, right in cases:
        report = theorem_main1_crosscheck(c.C, left, right)
        assert report.ok, report.witness


def test_verdict_transport_on_random_unit_instances():
    p = Patch(("x1", "x2", "x3", "x4"))
    A = make_tangent(p)
    for seed in range(10):
        r = random.Random(seed)
        J = JacobiAlgebroidData(A, closed_twist(r, A))
        shape = seed % 3
        if shape == 0:
            left = GraphRelation.of_bivector(rand_unit_bivector(r, A))
            right = GraphRelation.of_bivector(rand_unit_bivector(r, A))
        elif shape == 1:
            left = GraphRelation.of_two_form(rand_unit_two_form(r, A))
            right = GraphRelation.of_two_form(rand_unit_two_form(r, A))
        else:
            left = GraphRelation.of_bivector(rand_unit_bivector(r, A))
            right = GraphRelation.of_two_form(rand_unit_two_form(r, A))
        report = theorem_main1_crosscheck(J, left, right)
        assert report.status == "pass", f"seed={seed}: {report.witness}"


def test_untwisted_pair_verdicts_match_their_trivial_extensions():
    p = Patch(("x1", "x2", "x3", "x4"))
    A = make_tangent(p)
    J0 = JacobiAlgebroidData(A, Form.zero(A, 1))
    C = extend_with_R(A)
    ext = C.algebroid
    std = MultiVector(A, 2, {(0, 1): p.const(1), (2, 3): p.const(1)})
    instances = [(std, std)]
    for seed in range(9):
        r = random.Random(seed)
        instances.append((rand_unit_bivector(r, A), rand_unit_bivector(r, A)))
    zero_tail = MultiVector.zero(A, 1)
    seen = set()
    for index, (pi1, pi2) in enumerate(instances):
        down = jacobi_pair_check(J0, pi1, pi2)
        up = jacobi_pair_check(
            C,
            merge(ext, pi1, zero_tail),
            merge(ext, pi2, zero_tail),
        )
        assert down.status == up.status, (
            f"instance={index}: downstairs {down.status}, upstairs {up.status}"
        )
        seen.add(down.status)
    assert "pass" in seen and "fail" in seen


# -- calculus property suite --------------------------------------------------

def test_differential_squares_to_zero():
    _, A = small_tangent()
    c = contact()
    plain = JacobiAlgebroidData(A, Form.zero(A, 1))
    for seed in range(25):
        r = random.Random(seed)
        for J, alg in ((plain, A), (c.C, c.ext)):
            w = rand_form(r, alg, seed % 3, max_degree=2, terms=2)
            dd = differential(J, differential(J, w))
            assert dd.is_zero, f"seed={seed}: w={w}, dd={dd}"


def test_twisted_differential_squares_to_zero_for_closed_twists():
    _, A = small_tangent()
    for seed in range(25):
        r = random.Random(seed)
        J = JacobiAlgebroidData(A, closed_twist(r, A))
        w = rand_form(r, A, seed % 3, max_degree=2, terms=2)
        dd = differential(J, differential(J, w))
        assert dd.is_zero, f"seed={seed}: twist={J.phi0}, w={w}, dd={dd}"


def test_bracket_graded_antisymmetry_and_leibniz():
    c = contact()
    A = c.TA
    for seed in range(25):
        r = random.Random(seed)
        p_deg = 1 + seed % 2
        q_deg = 1 + (seed // 2) % 2
        P = rand_multivector(r, A, p_deg, max_degree=1, terms=2)
        Q = rand_multivector(r, A, q_deg, max_degree=1, terms=2)
        R = rand_multivector(r, A, 1, max_degree=1, terms=2)
        sign = (-1) ** ((p_deg - 1) * (q_deg - 1) + 1)
        assert schouten(P, Q) == Fraction(sign) * schouten(Q, P), (
            f"seed={seed}: P={P}, Q={Q}"
        )
        lhs = schouten(P, wedge(Q, R))
        rhs = wedge(schouten(P, Q), R) + Fraction((-1) ** ((p_deg - 1) * q_deg)) * wedge(
            Q, schouten(P, R)
        )
        assert lhs == rhs, f"seed={seed}: P={P}, Q={Q}, R={R}"


def test_self_bracket_pairing_oracle():
    _, A = small_tangent()
    for seed in range(25):
        r = random.Random(seed)
        J = JacobiAlgebroidData(A, closed_twist(r, A))
        pi = rand_multivector(r, A, 2, max_degree=1, terms=1)
        xi = rand_form(r, A, 1, max_degree=1, terms=1)
        eta = rand_form(r, A, 1, max_degree=1, terms=1)
        sh = sharp_map(pi)
        lhs = Fraction(1, 2) * contract(eta, contract(xi, phi0_schouten(J, pi, pi)))
        rhs = schouten(sh.apply(xi), sh.apply(eta)) - sh.apply(
            jacobi_bracket(J, pi, xi, eta)
        )
        assert lhs == rhs, f"seed={seed}: pi={pi}, xi={xi}, eta={eta}"


# -- negative controls --------------------------------------------------------

def test_non_closed_twist_breaks_square_zero():
    p, A = small_tangent()
    bad = JacobiAlgebroidData(A, Form(A, 1, {(1,): p.coord("x")}))
    one = Form(A, 0, {(): p.const(1)})
    dd = differential(bad, differential(bad, one))
    assert not dd.is_zero
    # the defect is exactly the non-closedness of the twist
    assert dd == differential(A, bad.phi0)


def test_perturbed_form_fails_at_both_levels_simultaneously():
    c = contact()
    bad = c.wH + Form(c.ext, 2, {(0, 1): c.p.coord("x1")})
    down = presymplectic_check(c.C, bad)
    assert down.status == "fail"
    up = lift_bialgebroid(c.C)
    lifted = lift_section(up.A, bad)
    assert not differential(up.a_side, lifted).is_zero
    assert maurer_cartan_check(up, lifted).status == "fail"


# -- the command-line interface ----------------------------------------------

def test_shipped_script_runs_clean_and_deterministically(capsys):
    outputs = []
    for _ in range(2):
        code = cli.main(["check", "scripts/paper.jac", "--json"])
        outputs.append(capsys.readouterr().out)
        assert code == 0
    assert outputs[0] == outputs[1]
    data = json.loads(outputs[0])
    summary = data["summary"]
    assert summary["fail"] == 0
    assert summary["error"] == 0
    assert summary["not_decided"] == 0
    assert summary["pass"] == len(data["checks"]) >= 40


def test_exit_code_contract(tmp_path, capsys):
    def run(text, *flags):
        path = tmp_path / "case.jac"
        path.write_text(text, encoding="utf-8")
        code = cli.main(["check", str(path), *flags])
        capsys.readouterr()
        return code

    prologue = "patch p = (x)\nalgebroid A = tangent(p)\n"
    assert run(prologue + "check algebroid A\n") == 0
    assert run(prologue + "scalar c = 1\ncheck zero c\n") == 1
    assert run("not a script\n") == 2
    assert run(prologue + "check zero missing\n") == 2
    undecided = prologue + "section P = zero_section(A, 2)\ncheck condition31 P P\n"
    assert run(undecided) == 0
    assert run(undecided, "--strict") == 3
