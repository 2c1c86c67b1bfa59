import hashlib
import json
import math
import re
import sys
from pathlib import Path

import pytest

from jacv import calculus, cli, dsl
from jacv.algebroid import JacobiAlgebroidData, Patch, make_tangent
from jacv.calculus import Form, MultiVector
from jacv.lift import lift_bialgebroid

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

ROUND_TRIP = [
    "patch p = (x1, x2, y1, y2, z)",
    "algebroid TA = tangent(p)",
    "jacobi J = (TA, 0)",
    "form bO = -(y1*dx1) - (y2*dx2) + dz",
    "jacobi C = extend(TA)",
    "form Om = merge(C, (d(J, bO), bO))",
    "scalar f = 1/2",
    "section Ez = ddz",
    "map NH = inverse(flat(Om)) . flat(wH)",
    "bialgebroid B = standard(C)",
    "lift L = jacobize(C)",
    "let pr = split(C, Om)",
    "check algebroid TA",
    "check presymplectic C Om",
    "check zero (first(pr))",
    "check equal (wH^3) -(Om^3)",
    "check dirac_pair C (flat Om) (flat wH) strategy=auto",
    "check main1 C (sharp Pi) (flat wE)",
    "check lift_scaling L Pi Om",
    "check omegan C Om NH weak=true",
]

PARSE_ERRORS = [
    ("scalar q = 1/0", "zero denominator"),
    ("check equal a strategy=auto b", "positional argument after options"),
    ("frobnicate x", "unknown statement"),
    ("let a = (1 +", "unexpected end of line"),
    ("let a = 1 ? 2", "unexpected character"),
    ("check", "expected 'name'"),
    ("patch p = x", "expected '('"),
    ("let = 3", "expected 'name'"),
]


def test_parse_render_round_trip():
    for line in ROUND_TRIP:
        first = dsl.parse(line)
        again = dsl.parse(dsl.render(first))
        assert again == first, line


def test_parse_error_messages():
    for text, fragment in PARSE_ERRORS:
        with pytest.raises(dsl.ScriptError) as err:
            dsl.parse(text)
        assert fragment in str(err.value), text


def test_call_requires_adjacent_paren_in_check_args():
    tight = dsl.parse("check zero f(x)").statements[0]
    assert len(tight.args) == 1
    assert isinstance(tight.args[0], dsl.Call)
    spaced = dsl.parse("check zero f (x)").statements[0]
    assert len(spaced.args) == 2
    assert isinstance(spaced.args[0], dsl.Name)


PASSING = """\
patch p = (x, y)
algebroid A = tangent(p)
check algebroid A
check equal e1 ddx
check equal (pair(dx, ddx)) 1
check equal (1/2 + x) (x + 1/2)
check equal (1 - x) -(x - 1)
check equal (1/2*x) (x*1/2)
jacobi C = extend(A)
check equal ehat e3
check equal epshat eps3
form w = eps1^eps3 + x*(eps2^eps3)
check zero (w^50)
form f = iota(e1, (1 + x)*eps1)
check equal (f^4) (f^f^f^f)
"""


def _run(tmp_path, capsys, text, *flags):
    path = tmp_path / "case.jac"
    path.write_text(text, encoding="utf-8")
    code = cli.main(["check", str(path), *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exit_zero_and_plain_text_output(tmp_path, capsys):
    code, out, err = _run(tmp_path, capsys, PASSING)
    assert code == 0
    assert err == ""
    assert "pass" in out
    assert "\x1b[" not in out  # no colors without a terminal
    assert "[L3]" in out  # records carry their source line


def test_exit_one_on_failing_check(tmp_path, capsys):
    text = PASSING + "scalar c = 1\ncheck zero c\n"
    code, out, _ = _run(tmp_path, capsys, text)
    assert code == 1
    assert "fail" in out


def test_exit_two_on_parse_error(tmp_path, capsys):
    code, out, err = _run(tmp_path, capsys, "garbage !!\n")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_exit_two_on_declaration_error(tmp_path, capsys):
    code, _, err = _run(tmp_path, capsys, "patch p = (t, x)\n")
    assert code == 2
    assert "reserved" in err


def test_jacobize_of_lifted_data_fails_at_the_declaration():
    # no script can name data with a time coordinate, so it is bound directly
    TA = make_tangent(Patch(("x", "y")))
    interp = cli.Interpreter()
    interp.env["U"] = lift_bialgebroid(JacobiAlgebroidData(TA, Form.zero(TA, 1)))
    with pytest.raises(dsl.ScriptError) as err:  # exit code 2 from cli.main
        interp.run(dsl.parse("lift L = jacobize(U)"))
    assert err.value.line == 1
    assert "already has a time coordinate" in err.value.message


def test_exit_two_on_missing_file(tmp_path, capsys):
    code = cli.main(["check", str(tmp_path / "absent.jac")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_exit_two_on_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.jac"
    path.write_bytes(b"# caf\xe9\npatch p = (x, y)\n")
    code = cli.main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert "Traceback" not in captured.out + captured.err


MALFORMED_PROLOGUE = """\
patch p = (x, y)
algebroid A = tangent(p)
jacobi J = (A, 0)
form w = dx^dy
map N = id(A)
section P = zero_section(A, 2)
"""

SUM = "+".join(["x"] * 3000)

# After the prologue, each line below makes `jacv check` exit with code 2.
MALFORMED = [
    "check presymplectic A x",
    "check jacobi A 3",
    "check mc J 3",
    "check hamiltonian_pair J 3 w",
    "check lift_formulas J x 3",
    "check zero A",
    "check algebroid A foo=bar",
    "check omegan J w N weak=yes",
    "check omegan J w N weak=true weak=false",
    "check symplectic_pair J w w strategy=auto",
    "form z = iota(A, 3)",
    "form z = bivector_of(3)",
    "check jacobi_pair J P P strategy=auto",
    "algebroid T = trivial(p, -1)",
    # a rank too large for an index, and a sum of two tuples
    "algebroid T = trivial(p, 100000000000000000000)",
    "let a = (x, y) + (x, y)",
    "form z = zero_form(A, -1)",
    "section z = zero_section(A, -1)",
    # too deep for the recursive parser, printer or evaluator
    "scalar s = " + "(" * 1200 + "x" + ")" * 1200,
    "scalar s = " + "-" * 3000 + "x",
    "scalar s = " + SUM,
    f"check zero ({SUM})",
    # over the interpreter's digit limit, or a digit int() rejects
    "scalar s = " + "9" * 5000,
    "scalar s = 1/" + "9" * 5000,
    "check zero " + "9" * 5000,
    "scalar s = \u00b2",
]


def _line_id(line):
    return line if len(line) <= 80 else f"{line[:16]}...({len(line)} chars)"


@pytest.mark.parametrize("line", MALFORMED, ids=_line_id)
def test_malformed_line_exits_two_with_its_location(tmp_path, capsys, line):
    code, out, err = _run(tmp_path, capsys, MALFORMED_PROLOGUE + line + "\n")
    where = MALFORMED_PROLOGUE.count("\n") + 1
    assert code == 2
    assert f"[L{where}]" in out or f"line {where}" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("algebroid", ["trivial(p, 0)", "tangent(p)"])
def test_torsion_of_a_flat_map_exits_two_at_low_rank(tmp_path, capsys, algebroid):
    # rank 0 and 1 have no frame pair, and the side check still runs
    text = (
        f"patch p = (x)\nalgebroid A = {algebroid}\n"
        "form w = zero_form(A, 2)\nmap M = flat(w)\ncheck torsion M\n"
    )
    code, out, _ = _run(tmp_path, capsys, text)
    assert code == 2
    assert "torsion needs an endomorphism of the algebroid side" in out


def test_omegan_of_a_map_out_of_the_dual_side_is_an_error(tmp_path, capsys):
    # omegan shares the side check of torsion, message included
    text = (
        "patch p = (x, y)\nalgebroid A = tangent(p)\njacobi C = extend(A)\n"
        "form w = eps1^eps3\nsection s = e1^e3\nmap M = sharp(s)\ncheck omegan C w M\n"
    )
    code, out, _ = _run(tmp_path, capsys, text, "--json")
    assert code == 2
    (record,) = json.loads(out)["checks"]
    assert record["status"] == "error"
    assert record["witness"] == "torsion needs an endomorphism of the algebroid side"


def test_check_errors_are_recorded_and_run_continues(tmp_path, capsys):
    text = PASSING + "check zero nosuchname\ncheck algebroid A\n"
    code, out, _ = _run(tmp_path, capsys, text, "--json")
    assert code == 2
    data = json.loads(out)
    statuses = [rec["status"] for rec in data["checks"]]
    assert "error" in statuses
    assert statuses[-1] == "pass"  # the run kept going past the bad check
    assert data["summary"]["error"] == 1


def test_condition31_over_two_algebroids_is_an_error(tmp_path, capsys):
    # both sharps have unit determinant, each over its own algebroid
    text = (
        "patch p = (x, y)\nalgebroid A = tangent(p)\nsection a = ddx^ddy\n"
        "patch q = (u, v)\nalgebroid B = tangent(q)\nsection b = ddu^ddv\n"
        "check condition31 a b\n"
    )
    code, out, _ = _run(tmp_path, capsys, text, "--json")
    assert code == 2
    (record,) = json.loads(out)["checks"]
    assert record["status"] == "error"
    assert "different algebroids" in record["witness"]


TANGENT_XY = "patch p = (x, y)\nalgebroid A = tangent(p)\n"


@pytest.mark.parametrize(
    "twist, status, witness, exit_code",
    [("x*dy", "fail", "d(phi0): 1*dx^dy", 1), ("dx", "pass", None, 0)],
)
def test_check_algebroid_checks_that_the_twist_is_closed(
    tmp_path, capsys, twist, status, witness, exit_code
):
    text = TANGENT_XY + f"jacobi J = (A, {twist})\ncheck algebroid J\n"
    code, out, _ = _run(tmp_path, capsys, text, "--json")
    (record,) = json.loads(out)["checks"]
    assert (record["status"], record["strategy"], record.get("witness")) == (
        status, "frame identities", witness,
    )
    assert code == exit_code


def test_a_rational_next_to_a_ring_element_fails_with_their_difference(tmp_path, capsys):
    code, out, _ = _run(tmp_path, capsys, TANGENT_XY + "check equal 1/2 x\n", "--json")
    (record,) = json.loads(out)["checks"]
    assert (record["status"], record["strategy"], record["witness"]) == (
        "fail", "exact difference", "difference = -x + 1/2",
    )
    assert code == 1


OPERATORS = [
    # a scalar times a map, on either side, scales the map
    ("check equal (2*flat(w)) (flat(2*w))", "pass", None),
    ("check equal (flat(w)*x) (flat(x*w))", "pass", None),
    (
        "check equal (flat(w)*2) (flat(w))",
        "fail",
        "difference = A->A* [[0, -1]; [1, 0]]",
    ),
    (
        "check equal (x*sharp(ddx^ddy)) (sharp(ddx^ddy))",
        "fail",
        "difference = A*->A [[0, -x + 1]; [x - 1, 0]]",
    ),
    # a section times a scalar on the right
    ("check equal (dx*2) (2*dx)", "pass", None),
    ("check equal (dx*x) (dy*x)", "fail", "difference = x*dx + -x*dy"),
    ("check zero (dx*dy)", "error", "* needs a scalar on one side"),
    # t is the ring's own variable wherever an algebroid is declared
    ("check zero t", "fail", "value = t"),
    # tuples compare slot by slot, and their lengths first
    ("check equal (1, x) (1, x)", "pass", None),
    ("check equal (1, x) (1, y)", "fail", "slot 1: difference = -y + x"),
    (
        "check equal (1, (x, dx)) (1, (x, dy))",
        "fail",
        "slot 1: slot 1: difference = 1*dx + -1*dy",
    ),
    ("check equal (1, x) (1, x, 2)", "fail", "tuple lengths differ: 2 vs 3"),
]


@pytest.mark.parametrize(
    "line, status, witness", OPERATORS, ids=[line for line, _, _ in OPERATORS]
)
def test_scalar_products_tuples_and_t_from_a_script(
    tmp_path, capsys, line, status, witness
):
    text = TANGENT_XY + "form w = dx^dy\n" + line + "\n"
    code, out, _ = _run(tmp_path, capsys, text, "--json")
    (record,) = json.loads(out)["checks"]
    assert (record["status"], record.get("witness")) == (status, witness)
    assert code == {"pass": 0, "fail": 1, "error": 2}[status]


OVER_TWO_ALGEBROIDS = """\
patch p = (x, y, z, w)
algebroid TA = tangent(p)
form Z = dx^dy
form Om = dx^dy + dz^dw
section Bad = z*(ddx^ddy) + ddz^ddw
map N = sharp(Bad) . flat(Om)
jacobi C = extend(TA)
section Good = ddx^ddy + ddz^ddw
form OmC = dx^dy + dz^dw
"""


@pytest.mark.parametrize(
    "line",
    [
        "check symplectic_pair C Z Om",
        "check hamiltonian_pair TA Bad Good",
        "check omegan C Om N",
        "check jomega TA Bad OmC",
    ],
)
def test_inputs_over_another_algebroid_are_an_error(tmp_path, capsys, line):
    # Z, Om, Bad and N live over TA, Good and OmC over the extension; each
    # line is an error whichever input the check would have computed on first
    code, out, _ = _run(tmp_path, capsys, OVER_TWO_ALGEBROIDS + line + "\n", "--json")
    (record,) = json.loads(out)["checks"]
    assert record["status"] == "error"
    assert "different algebroid" in record["witness"]
    assert code == 2


def test_check_algebroid_of_a_number_is_an_argument_error(tmp_path, capsys):
    code, out, _ = _run(tmp_path, capsys, TANGENT_XY + "check algebroid 3\n", "--json")
    assert code == 2
    (record,) = json.loads(out)["checks"]
    assert record["status"] == "error"
    assert record["witness"] == "check algebroid: argument 1 must be an algebroid"


def test_check_errors_read_as_bare_messages(tmp_path, capsys):
    # an interpreter error, a library error and a dispatch error alike: the
    # line is in the record's name, the witness is the message alone
    text = TANGENT_XY + (
        "check zero (dx*dy)\n"
        "check dirac_pair A (sharp dx^dy) (flat dx^dy)\n"
        "check frob A\n"
    )
    code, out, _ = _run(tmp_path, capsys, text, "--json")
    assert code == 2
    records = json.loads(out)["checks"]
    assert [(r["name"][:5], r["status"], r["witness"]) for r in records] == [
        ("[L3] ", "error", "* needs a scalar on one side"),
        ("[L4] ", "error", "a sharp graph needs a bivector"),
        ("[L5] ", "error", "unknown check 'frob'"),
    ]


# two of the corpus's contact forms and the deformation map between them
OMEGAN = """\
patch p = (x1, x2, y1, y2, z)
algebroid TA = tangent(p)
jacobi J = (TA, 0)
form bO = -y1*dx1 - y2*dx2 + dz
form bH = -y1*dx1 + y2*dx2 + dz
jacobi C = extend(TA)
form Om = merge(C, (d(J, bO), bO))
form wH = merge(C, (d(J, bH), bH))
map NH = inverse(flat(Om)) . flat(wH)
check omegan C Om NH weak=true
check omegan C Om NH weak=false
"""


def test_the_weak_option_reaches_omegan(tmp_path, capsys):
    code, out, _ = _run(tmp_path, capsys, OMEGAN, "--json")
    assert code == 0
    records = json.loads(out)["checks"]
    assert [(r["status"], r["strategy"]) for r in records] == [
        ("pass", "weak commutation/torsion/closedness"),
        ("pass", "commutation/torsion/closedness"),
    ]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the test family pairs a scaled frame only with plain frames",
)
def test_coupled_tangent_pair_fails_from_a_script(tmp_path, capsys):
    # couple(J, J) is the (TM, T*M) pair with identity dual anchor of
    # tests/test_structures.py::test_tangent_pair_with_identity_dual_anchor_fails
    text = (
        "patch p = (x, y, z)\nalgebroid A = tangent(p)\njacobi J = (A, 0)\n"
        "bialgebroid B = couple(J, J)\ncheck bialgebroid B\n"
    )
    code, out, _ = _run(tmp_path, capsys, text, "--json")
    (record,) = json.loads(out)["checks"]
    assert record["status"] == "fail"
    assert code == 1


NOT_DECIDED = """\
patch p = (x, y)
algebroid A = tangent(p)
section P = zero_section(A, 2)
check condition31 P P
"""


POWERS = """\
patch p = (x, y)
algebroid A = tangent(p)
form f = iota(e1, x*eps1)
"""


def test_a_high_power_keeps_its_value_in_the_witness(tmp_path, capsys):
    code, out, _ = _run(tmp_path, capsys, POWERS + "check zero (f^200)\n")
    assert code == 1
    assert "fail  [L4] zero (f ^ 200)" in out and "value = x^200\n" in out


@pytest.mark.parametrize("line", ["check zero (g^200)", "form h = g^200"])
def test_a_power_past_the_exponent_field_exits_two_with_its_line(
    tmp_path, capsys, monkeypatch, line
):
    wedges = []
    counted = calculus.wedge

    def counting(u, v):
        wedges.append((u, v))
        return counted(u, v)

    monkeypatch.setattr(calculus, "wedge", counting)
    # x^40000 does not fit the 15 bits a packed exponent may use
    code, out, err = _run(tmp_path, capsys, POWERS + "form g = f^200\n" + line + "\n")
    assert code == 2
    if line.startswith("check "):
        assert "error  [L5] zero (g ^ 200)" in out
        assert "\n       the power of x exceeds 32767\n" in out
    else:
        assert err.startswith("error: line 5: the power of x exceeds 32767")
    assert "Traceback" not in out + err
    # both powers square: at most 2 * log2(200) wedges each
    assert len(wedges) <= 4 * math.log2(200)


RANK_1200 = """\
patch p = (x)
algebroid T = trivial(p, 1200)
check nondegenerate id(T)
"""


def test_a_pfaffian_deeper_than_the_recursion_limit_is_decided(tmp_path, capsys):
    # the block matrix of id(T) expands through 1200 nested sub-Pfaffians
    code, out, err = _run(tmp_path, capsys, RANK_1200)
    assert (code, err) == (0, "")
    assert out.startswith("pass  [L3] nondegenerate id(T)  [unit determinant]\n")


def test_strict_turns_not_decided_into_exit_three(tmp_path, capsys):
    code, out, _ = _run(tmp_path, capsys, NOT_DECIDED, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["not_decided"] == 1
    assert data["checks"][0]["status"] == "not-decided"
    code2, _, _ = _run(tmp_path, capsys, NOT_DECIDED, "--strict")
    assert code2 == 3


def test_json_output_is_byte_stable(tmp_path, capsys):
    code1, out1, _ = _run(tmp_path, capsys, PASSING, "--json")
    code2, out2, _ = _run(tmp_path, capsys, PASSING, "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["version"] == 1
    for rec in data["checks"]:
        assert set(rec) >= {"name", "status", "strategy"}
    summary = data["summary"]
    assert set(summary) == {"pass", "fail", "not_decided", "error"}
    assert summary["pass"] == len(data["checks"])


def test_shipped_script_is_all_green(tmp_path, capsys):
    code = cli.main(["check", "scripts/paper.jac", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    # the benchmark's recorded hash pins every byte of the document, labels included
    recorded = re.search(
        r'^CORPUS_SHA256 = "([0-9a-f]{64})"$',
        (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"),
        re.M,
    ).group(1)
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == recorded
    data = json.loads(captured.out)
    summary = data["summary"]
    assert summary["fail"] == 0
    assert summary["error"] == 0
    assert summary["not_decided"] == 0
    assert summary["pass"] >= 40


def test_shipped_script_text_matches_the_golden_copy(capsys):
    # the hash above pins only the JSON document; this pins the text table
    code = cli.main(["check", str(ROOT / "scripts" / "paper.jac")])
    captured = capsys.readouterr()
    assert code == 0
    golden = (ROOT / "tests" / "golden" / "paper.txt").read_text(encoding="utf-8")
    assert captured.out == golden


def test_env_names_shadow_frame_tokens():
    report = cli.run_text(
        "patch p = (x)\n"
        "algebroid A = tangent(p)\n"
        "scalar c = 5\n"
        "let dx = c\n"
        "check equal dx 5\n"
    )
    assert report.counts() == {"pass": 1, "fail": 0, "not_decided": 0, "error": 0}


def test_names_bind_once():
    with pytest.raises(dsl.ScriptError) as err:
        cli.run_text(
            "patch p = (x)\n"
            "algebroid A = tangent(p)\n"
            "scalar c = 5\n"
            "scalar c = 6\n"
        )
    assert "already" in str(err.value)


def test_frame_tokens_need_an_ambient():
    with pytest.raises(dsl.ScriptError):
        cli.run_text("patch p = (x)\nlet v = ddx\n")


def _ambient(text):
    interp = cli.Interpreter()
    interp.run(dsl.parse(text))
    return interp


@pytest.mark.parametrize(
    "algebroid", ["tangent(p)", "extend(tangent(p))", "extend(trivial(p, 2))"]
)
def test_every_printed_label_names_its_element(algebroid):
    interp = _ambient(f"patch p = (x, y, z)\nalgebroid A = {algebroid}\n")
    A = interp.ambient
    for labels, element, prefix in ((A.frame_labels, MultiVector.frame, "e"),
                                    (A.coframe_labels, Form.coframe, "eps")):
        for i, label in enumerate(labels):
            value = interp.lookup(label)
            assert value == element(A, i) and value.algebroid is A, label
            # the positional name of the same element
            assert interp.lookup(f"{prefix}{i + 1}") == value, label


def test_a_repeated_label_names_the_last_element():
    # a double extension prints ehat and epshat twice; each names the newest
    interp = _ambient(
        "patch p = (x)\nalgebroid A = tangent(p)\njacobi C = extend(A)\n"
        "jacobi D = extend(C)\n"
    )
    A = interp.ambient
    assert A.frame_labels == ("ddx", "ehat", "ehat")
    assert interp.lookup("ehat") == MultiVector.frame(A, 2)
    assert interp.lookup("epshat") == Form.coframe(A, 2)
    assert interp.lookup("e2") == MultiVector.frame(A, 1)


FRAME_NAMES = """\
patch p = (x, y)
algebroid T = trivial(p, 2)
"""


@pytest.mark.parametrize(
    "line, witness",
    [
        # dd<x>/d<x> are tangent labels; a trivial frame prints e<i>/eps<i>
        ("check zero ddx", "unknown name 'ddx'"),
        ("check zero dy", "unknown name 'dy'"),
        ("check zero e3", "unknown name 'e3'"),
        ("check zero eps0", "unknown name 'eps0'"),
        ("check zero e" + "1" * 5000, "unknown name 'e" + "1" * 5000 + "'"),
        ("check zero e2", "value = 1*e2"),
        ("check zero eps1", "value = 1*eps1"),
        # a printed index has no leading zero, also where the rank has two digits
        ("algebroid U = trivial(p, 10)\ncheck equal e01 e1", "unknown name 'e01'"),
        ("algebroid U = trivial(p, 10)\ncheck zero eps09", "unknown name 'eps09'"),
        ("algebroid U = trivial(p, 10)\ncheck zero e10", "value = 1*e10"),
    ],
    ids=lambda v: v[:24],
)
def test_frame_names_are_the_printed_labels(tmp_path, capsys, line, witness):
    code, out, _ = _run(tmp_path, capsys, FRAME_NAMES + line + "\n", "--json")
    (record,) = json.loads(out)["checks"]
    assert record["witness"] == witness
    assert record["status"] == ("fail" if code == 1 else "error")


@pytest.mark.parametrize(
    "line, message",
    [
        ("let v = eps¹", "unknown name 'eps¹'"),
        (
            "let a = (x, y) + (x, y)",
            "+ and - join two scalars, or two sections or maps of one kind\n",
        ),
        ("let a = (x, y) - 1", "+ and - join two scalars"),
        ("let a = p + p", "+ and - join two scalars"),
        ("let a = (sharp ddx^ddy) + (sharp ddx^ddy)", "+ and - join two scalars"),
        ("let a = dx + ddx", "+ and - join two scalars"),
        ("let a = (sharp dx^dy)", "a sharp graph needs a bivector"),
        ("let a = (flat ddx^ddy)", "a flat graph needs a two-form"),
        ("algebroid T = trivial(p, 100000000000000000000)", "trivial: "),
        ("let a = -p", "cannot negate this value"),
        ("let a = dx^0", "wedge power needs a positive integer"),
        ("let a = x^2", "wedge power needs a section"),
    ],
)
def test_declaration_errors_name_their_line(tmp_path, capsys, line, message):
    code, out, err = _run(tmp_path, capsys, TANGENT_XY + line + "\n")
    assert code == 2 and out == ""
    assert err.startswith(f"error: line 3: {message}")
    assert "Traceback" not in err


DEPTH = sys.getrecursionlimit()


@pytest.mark.parametrize(
    "line, parses",
    [
        # the parser takes several frames for each parenthesis
        ("let a = " + "(" * (DEPTH // 2) + "x" + ")" * (DEPTH // 2), False),
        # the parser takes one frame for each minus, and the printer of the
        # check's name two
        ("check zero (" + "-" * (DEPTH * 3 // 4) + "x)", True),
    ],
    ids=["parser", "printer"],
)
def test_a_line_nested_too_deeply_exits_two_with_its_line(tmp_path, capsys, line, parses):
    text = TANGENT_XY + line + "\n"
    try:
        dsl.parse(text)
        parsed = True
    except dsl.ScriptError:
        parsed = False
    assert parsed is parses
    code, out, err = _run(tmp_path, capsys, text)
    assert (code, out) == (2, "")
    assert err == f"error: line 3: {dsl.TOO_DEEP}\n"


def test_the_parser_and_the_interpreter_know_the_same_declarations():
    assert set(dsl.DECL_KEYWORDS) == set(cli.DECLARATIONS)


def _readme_names(label):
    paragraph = re.search(rf"^{label}: (.*?)\.$", README.read_text(), re.M | re.S)
    return set(re.findall(r"`(\w+)`", paragraph.group(1)))


def test_readme_lists_exactly_the_signature_table():
    checks = {k[len("check "):] for k in cli.SIGNATURES if k.startswith("check ")}
    functions = {k for k in cli.SIGNATURES if not k.startswith("check ")}
    assert _readme_names("Functions") == functions
    assert _readme_names("Checks") == checks
    documented = {
        key: set(values.split("|"))
        for key, values in re.findall(r"\(`(\w+)=([\w|]+)`\)", README.read_text())
    }
    accepted = {
        key: set(allowed)
        for sig in cli.SIGNATURES.values()
        for key, allowed in sig.options.items()
    }
    assert documented == accepted
    assert [name for name, sig in cli.SIGNATURES.items() if sig.options] == [
        "check omegan"
    ]
