"""Mutation fuzzing of the script language.

Every line of ``scripts/paper.jac``, and of the malformed scripts in
``test_cli.py``, is mutated by dropping one token, duplicating one token or
truncating the line.  Each mutant runs in process after the declarations that
precede its line.  It must end in a report or a ``ScriptError``, that is in
exit code 0-3 and never in a traceback.  The mutants are enumerated, not
sampled, so the test is deterministic.
"""

from pathlib import Path

from jacv import cli, dsl
from tests.test_cli import MALFORMED, MALFORMED_PROLOGUE

ROOT = Path(__file__).resolve().parent.parent

# longer lines (the deep-expression inputs) run unmutated
MAX_MUTATED_TOKENS = 40


def _mutants(line):
    tokens = dsl._tokenize_line(line)
    yield line
    if len(tokens) > MAX_MUTATED_TOKENS:
        return
    for tok in tokens:
        start, end = tok.column, tok.column + len(tok.text)
        yield line[:start] + line[end:]
        yield line[:end] + " " + tok.text + line[end:]
        if start:
            yield line[:start]


def _exit_code(interp, text):
    """What ``jacv check`` returns for ``text`` run after ``interp``'s state."""
    run = cli.Interpreter()
    run.env = dict(interp.env)
    run.ambient = interp.ambient
    try:
        report = run.run(dsl.parse(text))
    except dsl.ScriptError:
        return 2
    cli.emit_text(report)
    cli.emit_json(report)
    return report.exit_code(strict=True)


def _fuzz(script):
    """Exit codes of every mutant of every statement line of ``script``."""
    interp = cli.Interpreter()
    codes = []
    for line in script.splitlines():
        if not dsl._tokenize_line(line):
            continue
        for mutant in dict.fromkeys(_mutants(line)):
            codes.append(_exit_code(interp, mutant))
        if line.startswith("check "):
            continue
        try:
            interp.run(dsl.parse(line))
        except dsl.ScriptError:
            pass  # a malformed declaration binds nothing
    return codes


def test_mutated_scripts_end_in_an_exit_code():
    scripts = [(ROOT / "scripts" / "paper.jac").read_text(encoding="utf-8")]
    scripts.append(MALFORMED_PROLOGUE + "\n".join(MALFORMED))
    codes = [code for script in scripts for code in _fuzz(script)]
    assert len(codes) > 1000
    assert set(codes) <= {0, 1, 2, 3}
