import hashlib
import json
import re
from pathlib import Path

import pytest

from jacv import cli, dsl
from jacv.algebroid import JacobiAlgebroidData, Patch, make_tangent
from jacv.calculus import Form
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
    "check symplectic_pair J w w strategy=auto",
    "form z = iota(A, 3)",
    "form z = bivector_of(3)",
    "check jacobi_pair J P P strategy=auto",
    "algebroid T = trivial(p, -1)",
    # too deep for the recursive parser, printer or evaluator
    "scalar s = " + "(" * 1200 + "x" + ")" * 1200,
    "scalar s = " + "-" * 3000 + "x",
    "scalar s = " + SUM,
    f"check zero ({SUM})",
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


def test_check_errors_are_recorded_and_run_continues(tmp_path, capsys):
    text = PASSING + "check zero nosuchname\ncheck algebroid A\n"
    code, out, _ = _run(tmp_path, capsys, text, "--json")
    assert code == 2
    data = json.loads(out)
    statuses = [rec["status"] for rec in data["checks"]]
    assert "error" in statuses
    assert statuses[-1] == "pass"  # the run kept going past the bad check
    assert data["summary"]["error"] == 1


NOT_DECIDED = """\
patch p = (x, y)
algebroid A = tangent(p)
section P = zero_section(A, 2)
check condition31 P P
"""


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
