"""Problem-file parsing, dispatch, determinism, and exit codes."""

import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ovc.cli import emit_report, run_command
from ovc.errors import OvcError, ParseError, RangeError, UndefinedNameError
from ovc.problems import _KINDS, _TABLES, parse_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

MINIMAL = """version 1
p 3
M 10
ring W tate vars x window 0:10
matrix Z W 1 1
end
module M1 ring W rank 1 gamma x Z
command cohomology M1
"""


# d/dx + x^9 on a window that stops at x^6: the term cannot be kept
OUT_OF_WINDOW = """version 1
p 3
M 10
ring W tate vars x window 0:6
series f W
  term 9 1
end
matrix G W 1 1
  entry 1 1 f
end
module M1 ring W rank 1 gamma x G
command cohomology M1
"""

# a constant entry of a robba ring whose window leaves out exponent 0
CONSTANT_OUT_OF_WINDOW = """version 1
p 3
M 10
ring R robba vars t window 2:6 slope 1
matrix N R 1 1
  entry 1 1 5
end
module M1 ring R rank 1 connection N
command cohomology M1
"""


def test_parse_minimal():
    pf = parse_problem(MINIMAL)
    assert pf.p == 3 and pf.M == 10 and pf.q == 3
    assert pf.command[0] == "cohomology"
    assert "M1" in pf.modules


def test_parse_range_errors():
    with pytest.raises(RangeError):
        parse_problem(MINIMAL.replace("window 0:10", "window 0:1000000"))
    # each header field's error names its own line
    for old, new, line in (("M 10", "M 400", 3), ("p 3", "p 6", 2),
                           ("M 10", "M 10\nq 0", 4), ("M 10", "M 10\nq 1", 4)):
        with pytest.raises(RangeError) as exc:
            parse_problem(MINIMAL.replace(old, new))
        assert exc.value.line == line
    # q = 1 = p^0 is refused also when no ring line would read it
    with pytest.raises(RangeError):
        parse_problem("version 1\np 3\nM 10\nq 1\ncommand selftest\n")
    assert parse_problem(MINIMAL.replace("M 10", "M 10\nq 9")).q == 9
    # an input term or constant outside its ring's window is refused on its
    # own line, not dropped
    for text in (OUT_OF_WINDOW, CONSTANT_OUT_OF_WINDOW):
        with pytest.raises(RangeError) as exc:
            parse_problem(text)
        assert exc.value.line == 6
    assert parse_problem(OUT_OF_WINDOW.replace("term 9 1", "term 6 1"))


def test_parse_undefined_name():
    with pytest.raises(UndefinedNameError):
        parse_problem(MINIMAL.replace("gamma x Z", "gamma x U"))


def test_parse_syntax_error_carries_line():
    bad = MINIMAL.replace("ring W tate vars x window 0:10",
                          "ring W tate vars x")
    with pytest.raises(ParseError) as exc:
        parse_problem(bad)
    assert "line 4" in str(exc.value)


@pytest.mark.parametrize("name, old, new, line", [
    ("annulus_dlog_half.ovc", "window -30:30", "window -30:3O", 5),
    ("groebner_reduce.ovc", "decay 1", "decay one", 5),
    ("annulus_dlog_half.ovc", "term 0 1/2", "term 0.5 1/2", 7),
    ("annulus_dlog_half.ovc", "matrix N R 1 1", "matrix N R x 1", 9),
    ("annulus_dlog_half.ovc", "entry 1 1 a", "entry 1 i a", 10),
    ("horizontal_rank2.ovc", "comp 2 1", "comp two 1", 11),
    ("annulus_dlog_half.ovc", "rank 1", "rank 1.0", 12),
])
def test_bad_integer_tokens_are_parse_errors(name, old, new, line):
    text = (PROBLEMS / name).read_text()
    assert old in text
    with pytest.raises(ParseError) as exc:
        parse_problem(text.replace(old, new, 1))
    assert exc.value.line == line


def test_cli_bad_integer_token_exits_2(tmp_path):
    # a matrix size that is not an integer used to end in a ValueError
    # traceback with exit 1
    lines = (PROBLEMS / "annulus_dlog_half.ovc").read_text().splitlines()
    assert lines[8] == "matrix N R 1 1"
    lines[8] = "matrix N R x 1"
    prob = tmp_path / "bad.ovc"
    prob.write_text("\n".join(lines) + "\n")
    proc = _run(["cohomology", str(prob)])
    assert proc.returncode == 2
    assert b"parse error [cli.parse]: line 9:" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_series_and_scalars():
    text = """version 1
p 3
M 8
ring R robba vars t window -6:6 slope 1
series f R
  term -1 2
  term 0 4*p^1@8
end
matrix N R 1 1
  entry 1 1 f
end
module M1 ring R rank 1 connection N
command cohomology M1
"""
    pf = parse_problem(text)
    f = pf.series["f"]
    assert f.coeff((-1,)).unit == 2
    assert f.coeff((0,)).val == 1


def test_run_command_dims():
    pf = parse_problem(MINIMAL)
    report = run_command(pf)
    data = dict(report.records)
    assert data["h0.dim"] == "1" and data["h1.dim"] == "0"


def test_run_pushforward_dims():
    pf = parse_problem((PROBLEMS / "pushforward_trivial.ovc").read_text())
    data = dict(run_command(pf).records)
    assert [data[k + ".dim"] for k in
            ("r0f", "r1f", "r0loc", "r1loc", "r1shriek", "r2shriek")] == \
        ["1", "0", "1", "1", "0", "1"]
    assert all(data[f"snake.{n}"] == "exact" for n in
               ("r0f", "r0loc", "r1shriek", "r1f", "r1loc", "r2shriek"))


def test_emit_deterministic():
    pf = parse_problem(MINIMAL)
    a = emit_report(run_command(pf), "structured")
    b = emit_report(run_command(parse_problem(MINIMAL)), "structured")
    assert a == b
    text = emit_report(run_command(pf), "text").decode()
    assert "precision-floor" in text


def _run(args, **kw):
    return subprocess.run([sys.executable, "-m", "ovc.cli", *args],
                          capture_output=True, **kw)


def test_cli_exit_codes(tmp_path):
    good = tmp_path / "ok.ovc"
    good.write_text(MINIMAL)
    proc = _run(["cohomology", str(good)])
    assert proc.returncode == 0
    assert b"h0.dim" in proc.stdout or b"h0" in proc.stdout
    assert b"wall-time" in proc.stderr

    bad = tmp_path / "bad.ovc"
    bad.write_text(MINIMAL.replace("window 0:10", "window 0:99999"))
    assert _run(["cohomology", str(bad)]).returncode == 2

    for q in (0, 1):
        bad.write_text(MINIMAL.replace("M 10", f"M 10\nq {q}"))
        proc = _run(["cohomology", str(bad)])
        assert proc.returncode == 2
        assert b"parse error [cli.range]: line 4:" in proc.stderr

    for text in (OUT_OF_WINDOW, CONSTANT_OUT_OF_WINDOW):
        bad.write_text(text)
        proc = _run(["cohomology", str(bad)])
        assert proc.returncode == 2
        assert b"parse error [cli.range]: line 6:" in proc.stderr

    mismatch = _run(["factor", str(good)])
    assert mismatch.returncode == 2

    engine = tmp_path / "engine.ovc"
    engine.write_text("""version 1
p 3
M 8
ring R robba vars t window -6:6 slope 1
matrix U R 2 2
  entry 1 1 1
  entry 1 2 1
  entry 2 1 1
  entry 2 2 1
end
command factor U
""")
    proc = _run(["factor", str(engine)])
    assert proc.returncode == 1     # singular input is an engine error


def test_failing_selftest_prints_its_report_then_exits_1(monkeypatch,
                                                         capsys):
    from ovc import acceptance
    from ovc.cli import main

    def passing():
        return acceptance.CriterionResult(1, True, "fine")

    def failing():
        return acceptance.CriterionResult(2, False, "broken")

    monkeypatch.setattr(acceptance, "CRITERIA", [passing, failing])
    code = main(["selftest", str(PROBLEMS / "selftest.ovc"),
                 "--format", "structured"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert "criterion.01=pass (fine)" in out
    assert "criterion.02=FAIL (broken)" in out
    assert "failures=1" in out


def test_cli_output_file(tmp_path):
    good = tmp_path / "ok.ovc"
    good.write_text(MINIMAL)
    out = tmp_path / "report.txt"
    proc = _run(["cohomology", str(good), "--out", str(out),
                 "--format", "structured"])
    assert proc.returncode == 0
    assert out.read_bytes().startswith(b"command=cohomology")


def test_cli_unwritable_output_exits_2(tmp_path):
    # the report is computed, then cannot be written: an error line, no
    # traceback
    problem = str(PROBLEMS / "mw_line_trivial.ovc")
    for out in (tmp_path, tmp_path / "missing" / "report.txt"):
        proc = _run(["cohomology", problem, "--out", str(out)])
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error:")
        assert b"Traceback" not in proc.stderr


def test_cli_runs_byte_identical(tmp_path):
    good = tmp_path / "ok.ovc"
    good.write_text(MINIMAL)
    outs = []
    for _ in range(2):
        proc = _run(["cohomology", str(good), "--format", "structured"])
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command, name, block", [
    # the z option is missing
    ("groebner-reduce", "groebner_reduce.ovc",
     "command groebner-reduce basis g1 y yv"),
    # the base variable is missing
    ("leray", "leray_plane.ovc", "command leray M1 x"),
    # the base is not a variable of the ring
    ("leray", "leray_plane.ovc", "command leray M1 x q"),
    # fiber and base are the same variable
    ("leray", "leray_plane.ovc", "command leray M1 x x"),
    # option values the option does not take
    ("pushforward", "pushforward_trivial.ovc",
     "command pushforward M1 robba R unipotent maybe"),
    ("factor", "factor_diag.ovc", "command factor U bound x"),
    ("horizontal", "horizontal_rank2.ovc", "command horizontal M1 w w L abc"),
    # an option the command does not know
    ("pushforward", "pushforward_trivial.ovc",
     "command pushforward M1 robba R window 3"),
    ("factor", "factor_diag.ovc", "command factor U scale 2"),
    # an option without a value, and a repeated option
    ("horizontal", "horizontal_rank2.ovc", "command horizontal M1 w w L"),
    ("factor", "factor_diag.ovc", "command factor U bound 4 bound 5"),
    # the module or matrix the command runs on is missing
    ("cohomology", "mw_line_trivial.ovc", "command cohomology"),
    ("compact-supports", "compact_plane_trivial.ovc",
     "command compact-supports"),
    ("pushforward", "pushforward_trivial.ovc", "command pushforward"),
    ("factor", "factor_diag.ovc", "command factor"),
    ("unipotent-basis", "unipotent_rank2.ovc", "command unipotent-basis"),
    ("horizontal", "horizontal_rank2.ovc", "command horizontal"),
    ("pairing", "pairing_plane.ovc", "command pairing"),
])
def test_cli_bad_command_arguments_are_parse_errors(tmp_path, command, name,
                                                    block):
    text = (PROBLEMS / name).read_text()
    text = text[:text.index("command ")] + block + "\n"
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert exc.value.line == len(text.splitlines())
    prob = tmp_path / name
    prob.write_text(text)
    proc = _run([command, str(prob)])
    assert proc.returncode == 2
    assert b"parse error" in proc.stderr
    assert b"engine.internal" not in proc.stderr


NON_FLAT_PLANE = """version 1
p 3
M 12
ring W tate vars x,y window 0:10,0:10
series s W
  term 0 1 1
end
matrix Gx W 1 1
  entry 1 1 s
end
matrix Zy W 1 1
end
module M1 ring W rank 1 gamma x Gx gamma y Zy
command cohomology M1
"""

INCOMPATIBLE_FROBENIUS = """version 1
p 3
M 8
ring R robba vars t window -6:6 slope 1
series t R
  term 1 1
end
matrix N R 1 1
end
matrix F R 1 1
  entry 1 1 t
end
module M1 ring R rank 1 connection N frobenius F
command cohomology M1
"""


def test_cli_invalid_modules_are_parse_errors(tmp_path):
    # Gamma_x = y, Gamma_y = 0 has curvature -1; the zero connection with
    # Frobenius t fails N Phi + t dPhi/dt = q Phi phi(N)
    for text, reason in ((NON_FLAT_PLANE, b"not integrable"),
                         (INCOMPATIBLE_FROBENIUS, b"frobenius")):
        line = next(n for n, ln in enumerate(text.splitlines(), 1)
                    if ln.startswith("module"))
        with pytest.raises(ParseError) as exc:
            parse_problem(text)
        assert exc.value.line == line
        prob = tmp_path / "p.ovc"
        prob.write_text(text)
        proc = _run(["cohomology", str(prob)])
        assert proc.returncode == 2
        assert f"parse error [cli.parse]: line {line}".encode() in proc.stderr
        assert reason in proc.stderr
    # Gamma_x = y, Gamma_y = x is flat, though each Gamma_i depends on the
    # other variable, so it reaches the curvature check and passes it
    flat = NON_FLAT_PLANE.replace(
        "matrix Zy W 1 1\nend", "series r W\n  term 1 0 1\nend\n"
        "matrix Gy W 1 1\n  entry 1 1 r\nend").replace("gamma y Zy",
                                                     "gamma y Gy")
    assert "M1" in parse_problem(flat).modules


def test_pushforward_unipotent_no_uses_window_linear_algebra():
    text = (PROBLEMS / "pushforward_trivial.ovc").read_text()
    assert "unipotent yes" in text
    notes = {}
    for flag in ("yes", "no"):
        pf = parse_problem(text.replace("unipotent yes", f"unipotent {flag}"))
        notes[flag] = [v for k, v in run_command(pf).records if k == "note"]
    assert notes == {
        "yes": ["local terms from a unipotent certificate"],
        "no": ["local terms from window linear algebra (no certificate)"]}


# a rank-1 line whose connecting map delta does not land in its target
# classes; ranking delta anyway used to end as engine.internal
DELTA_UNLANDED = "\n".join([
    "version 1", "p 3", "M 8",
    "ring W tate vars x window 0:5",
    "ring R robba vars t window -16:16 slope 1",
    "series g W", "  term 1 1/3", "end",
    "matrix G W 1 1", "  entry 1 1 g", "end",
    "module M1 ring W rank 1 gamma x G",
    "command pushforward M1 robba R"]) + "\n"


def test_pushforward_with_unlanded_delta_reports_fail(tmp_path):
    prob = tmp_path / "delta.ovc"
    prob.write_text(DELTA_UNLANDED)
    proc = _run(["pushforward", str(prob), "--format", "structured"])
    assert proc.returncode == 0, proc.stderr
    data = dict(line.split("=", 1)
                for line in proc.stdout.decode().splitlines())
    assert data["r1prim.dim"] == "FAIL"
    assert [v for k, v in data.items() if k.startswith("snake.")] == [
        "FAIL (a chain map failed to land in its target classes at "
        "precision)"] * 6


def test_shipped_problems_run():
    for name, cmd in (("mw_line_trivial.ovc", "cohomology"),
                      ("compact_plane_trivial.ovc", "compact-supports"),
                      ("annulus_dlog_half.ovc", "cohomology"),
                      ("factor_diag.ovc", "factor"),
                      ("unipotent_rank2.ovc", "unipotent-basis"),
                      ("pairing_plane.ovc", "pairing")):
        pf = parse_problem((PROBLEMS / name).read_text())
        assert pf.command[0] == cmd
        report = run_command(pf)
        assert report.records


def test_internal_errors_do_not_traceback(tmp_path):
    # a module reference that parses but explodes downstream must surface a
    # coded engine error, never a traceback
    prob = tmp_path / "p.ovc"
    prob.write_text("""version 1
p 3
M 8
ring R robba vars t window -6:6 slope 1
matrix N R 1 1
end
module M1 ring R rank 1 connection N
command horizontal M1 w missing L 4
""")
    proc = _run(["horizontal", str(prob)])
    assert proc.returncode == 2      # missing vector is a usage error
    prob2 = tmp_path / "q.ovc"
    prob2.write_text("""version 1
p 3
M 8
ring W tate vars x window 0:6
matrix Z W 1 1
end
module M1 ring W rank 1 gamma x Z
command unipotent-basis M1
""")
    proc2 = _run(["unipotent-basis", str(prob2)])
    assert proc2.returncode == 1
    assert b"Traceback" not in proc2.stderr
    assert b"engine error" in proc2.stderr
    # a generator that vanishes at the working precision (3 at M = 1)
    prob3 = tmp_path / "g.ovc"
    prob3.write_text((PROBLEMS / "groebner_reduce.ovc").read_text()
                     .replace("M 10", "M 1").replace("basis g1", "basis yv"))
    proc3 = _run(["groebner-reduce", str(prob3)])
    assert proc3.returncode == 1
    assert b"engine error [engine.precision-exhausted]" in proc3.stderr


@pytest.mark.parametrize("command, name, old, new, line", [
    # values their reader rejects
    ("cohomology", "annulus_dlog_half.ovc", "slope 1", "slope 1/0", 5),
    ("cohomology", "annulus_dlog_half.ovc", "slope 1", "slope abc", 5),
    ("cohomology", "annulus_dlog_half.ovc", "term 0 1/2", "term 0 1/0", 7),
    ("cohomology", "annulus_dlog_half.ovc", "entry 1 1 a", "entry 1 1 1/0",
     10),
    ("horizontal", "horizontal_rank2.ovc", "comp 2 1", "comp 1 abc", 11),
    # options without their value
    ("cohomology", "annulus_dlog_half.ovc", "connection N", "connection",
     12),
    ("cohomology", "mw_line_trivial.ovc", "gamma x Z", "gamma x", 8),
    # a command line without its command
    ("cohomology", "mw_line_trivial.ovc", "command cohomology M1", "command",
     9),
    # an unknown and a repeated ring option, an overlong header line
    ("cohomology", "mw_line_trivial.ovc", "window 0:60", "window 0:60 bogus 3",
     5),
    ("cohomology", "mw_line_trivial.ovc", "window 0:60",
     "window 0:60 window 0:30", 5),
    ("cohomology", "mw_line_trivial.ovc", "p 3", "p 3 5", 3),
    # extra positionals, an undefined filtration matrix
    ("cohomology", "mw_line_trivial.ovc", "command cohomology M1",
     "command cohomology M1 junk 3", 9),
    ("unipotent-basis", "unipotent_rank2.ovc", "command unipotent-basis M1",
     "command unipotent-basis M1 NOPE", 13),
    # a matrix to factor that is not square
    ("factor", "factor_diag.ovc", "matrix U R 2 2", "matrix U R 3 2", 13),
    # a connection matrix that is not rank x rank
    ("cohomology", "annulus_dlog_half.ovc", "rank 1", "rank 2", 12),
    # ring options the kind has no use for
    ("cohomology", "mw_line_trivial.ovc", "window 0:60",
     "window 0:60 slope 1/2", 5),
    ("cohomology", "annulus_dlog_half.ovc", "slope 1", "slope 1 decay 1", 5),
    # a connection on a Tate module (C = x^3), a gamma on a Robba module
    ("cohomology", "mw_line_trivial.ovc", "module M1 ring W rank 1 gamma x Z",
     "series c W\n  term 3 1\nend\nmatrix C W 1 1\n  entry 1 1 c\nend\n"
     "module M1 ring W rank 1 gamma x Z connection C", 14),
    ("cohomology", "annulus_dlog_half.ovc", "connection N",
     "connection N gamma t N", 12),
    # a ring has no coefficient ring
    ("cohomology", "annulus_dlog_half.ovc",
     "ring R robba vars t window -30:30 slope 1",
     "ring W tate vars x window 0:4\n"
     "ring R robba vars t window -30:30 slope 1 coeff W", 6),
])
def test_cli_malformed_lines_exit_2_with_line(tmp_path, command, name, old,
                                              new, line):
    text = (PROBLEMS / name).read_text()
    assert old in text
    prob = tmp_path / name
    prob.write_text(text.replace(old, new, 1))
    proc = _run([command, str(prob)])
    assert proc.returncode == 2
    assert b"parse error" in proc.stderr
    assert f"line {line}:".encode() in proc.stderr
    assert b"engine.internal" not in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_cli_non_utf8_file_is_a_parse_error(tmp_path):
    prob = tmp_path / "latin1.ovc"
    prob.write_bytes(MINIMAL.encode().replace(b"tate", b"t\xe2te"))
    proc = _run(["cohomology", str(prob)])
    assert proc.returncode == 2
    assert b"parse error" in proc.stderr
    assert b"line 4:" in proc.stderr
    assert b"Traceback" not in proc.stderr


SHIPPED = tuple(p.read_text() for p in sorted(PROBLEMS.glob("*.ovc")))
POOL = ("1/0", "abc", "0", "-1", "2", "0:5", "1:2:3", "M1", "R", "W", "N",
        "Z", "x", "t", "end", "term", "entry", "comp", "gamma", "ring", "rank",
        "vars", "window", "slope", "connection", "command", "module", "series",
        "matrix", "vector", "cohomology", "robba", "tate", "w", "L", "p", "M")


def _swap_sites(text):
    """[(line, position, other tokens of the same shape)] over a problem's
    tokens.  A shape is an integer, a scalar, a lo:hi window, or a name the
    file defines, by what it names (a ring variable, a ring, a series, ...);
    directives and option keys have none."""
    lines = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
    shapes = {}
    for toks in lines:
        if len(toks) > 1 and toks[0] in _TABLES:
            shapes[toks[1]] = toks[0]
            if "vars" in toks[:-1]:
                shapes.update(dict.fromkeys(
                    toks[toks.index("vars") + 1].split(","), "variable"))

    def shape(tok):
        if re.fullmatch(r"-?\d+", tok):
            return "integer"
        if re.fullmatch(r"-?\d+:-?\d+(,-?\d+:-?\d+)*", tok):
            return "window"
        if re.fullmatch(r"[-+*/^@()\dpO]*\d[-+*/^@()\dpO]*", tok):
            return "scalar"
        return shapes.get(tok)

    pools = {}
    for toks in lines:
        for tok in toks[1:]:
            pools.setdefault(shape(tok), set()).add(tok)
    return [(ln, k, others) for ln, toks in enumerate(lines)
            for k, tok in enumerate(toks) if k and shape(tok)
            if (others := sorted(pools[shape(tok)] - {tok}))]


SWAP_SITES = {text: _swap_sites(text) for text in SHIPPED}


def _mutant(data) -> str:
    """A shipped problem with one to three tokens swapped for another token
    of the same shape from the same file, or with one to three tokens
    deleted, replaced or inserted from ``POOL``.  Swaps keep the grammar
    far more often, so half the mutants swap."""
    text = data.draw(st.sampled_from(SHIPPED))
    lines = [raw.split() for raw in text.splitlines()]
    swap = data.draw(st.booleans())
    for _ in range(data.draw(st.integers(1, 3))):
        if swap:
            ln, k, others = data.draw(st.sampled_from(SWAP_SITES[text]))
            lines[ln][k] = data.draw(st.sampled_from(others))
            continue
        toks = lines[data.draw(st.integers(0, len(lines) - 1))]
        at = data.draw(st.integers(0, len(toks)))
        op = data.draw(st.sampled_from(("delete", "replace", "insert")))
        if op == "insert" or not toks:
            toks.insert(at, data.draw(st.sampled_from(POOL)))
        elif op == "replace":
            toks[min(at, len(toks) - 1)] = data.draw(st.sampled_from(POOL))
        else:
            del toks[min(at, len(toks) - 1)]
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_mutated_problems_parse_or_raise_parse_error(data):
    try:
        parse_problem(_mutant(data))
    except ParseError as ex:
        assert ex.line is not None


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.data())
def test_mutated_problems_run_to_a_report_or_an_ovc_error(data):
    # no token of POOL enlarges a window, and a swap only moves a file's own
    # values: every window, precision, rank and size of a mutant is one its
    # shipped problem already holds, so every mutant runs quickly
    try:
        pf = parse_problem(_mutant(data))
    except ParseError:
        return
    if pf.command[0] == "selftest":
        return
    try:
        emit_report(run_command(pf))
    except OvcError:
        pass


# -- engine commands on coefficients with p in the denominator ------------------

SWEEP_COEFFS = ("1/3", "1/9", "2/3")

# rank-2 connection shapes: (row, col, exponent, coefficient or "c")
LINE_SHAPES = {
    "nilpotent": ((1, 2, 0, "c"),),
    "nilpotent-x": ((1, 2, 1, "c"), (1, 2, 0, "1")),
    "triangular": ((1, 1, 1, "c"), (1, 2, 0, "2")),
    "diagonal": ((1, 1, 0, "c"), (2, 2, 1, "c")),
}


def _rank2_matrix(name, ring, shape, c, nvars=1):
    """A 2x2 matrix block with one single-term series per entry record."""
    lines, entries = [], []
    for k, (i, j, e, coeff) in enumerate(shape):
        exps = " ".join([str(e)] + ["0"] * (nvars - 1))
        lines += [f"series {name}s{k} {ring}",
                  f"  term {exps} {c if coeff == 'c' else coeff}", "end"]
        entries.append(f"  entry {i} {j} {name}s{k}")
    return lines + [f"matrix {name} {ring} 2 2", *entries, "end"]


def _sweep_problems():
    head = ["version 1", "p 3", "M 8"]
    for c in SWEEP_COEFFS:
        for shape_name, shape in LINE_SHAPES.items():
            body = head + ["ring W tate vars x window 0:6",
                           "ring R robba vars t window -8:8 slope 1",
                           *_rank2_matrix("G", "W", shape, c),
                           "module M1 ring W rank 2 gamma x G"]
            for label, command in (
                    ("cohomology", "cohomology M1"),
                    ("compact-supports", "compact-supports M1"),
                    ("pairing", "pairing M1"),
                    ("pushforward", "pushforward M1 robba R"),
                    ("pushforward-unipotent",
                     "pushforward M1 robba R unipotent yes")):
                yield f"{label}-{shape_name}-{c}", body + [
                    f"command {command}"]
            robba = head + ["ring R robba vars t window -8:8 slope 1",
                            *_rank2_matrix("N", "R", shape, c),
                            "module M1 ring R rank 2 connection N"]
            yield f"unipotent-basis-{shape_name}-{c}", robba + [
                "command unipotent-basis M1"]
        for gy in ("1", "3", c):
            yield f"leray-{c}-{gy}", head + [
                "ring W tate vars x,y window 0:5,0:5",
                "series fx W", f"  term 1 0 {c}", "end",
                "series fy W", f"  term 0 1 {gy}", "end",
                "matrix Gx W 1 1", "  entry 1 1 fx", "end",
                "matrix Gy W 1 1", "  entry 1 1 fy", "end",
                "module M1 ring W rank 1 gamma x Gx gamma y Gy",
                "command leray M1 x y"]
    yield "pushforward-delta-unlanded", DELTA_UNLANDED.splitlines()


@pytest.mark.parametrize("text", [
    pytest.param("\n".join(lines) + "\n", id=key)
    for key, lines in _sweep_problems()])
def test_engine_commands_report_or_raise_ovc_error(text):
    # what escapes run_command other than an OvcError is what the CLI
    # prints as engine.internal
    pf = parse_problem(text)
    try:
        report = run_command(pf)
    except OvcError:
        return
    assert report.records


# -- every ring-kind spelling through the engine --------------------------------

KIND_COMMANDS = ("cohomology M1", "unipotent-basis M1", "horizontal M1 w w L 4",
                 "factor U", "groebner-reduce basis g y y z s")


def _kind_problem(kind: str, command: str) -> str:
    """A rank-2 module D w2 = t w1 (gamma t N off the robba kinds), a factor
    matrix diag(p, 1) and a division z = t against (t - p) on one ring."""
    robba = "robba" in kind
    window = "-6:6" if kind in ("robba", "multi-robba") else "0:6"
    option = " slope 1" if robba else " decay 1" if "dagger" in kind else ""
    return "\n".join([
        "version 1", "p 3", "M 8",
        f"ring R {kind} vars t window {window}{option}",
        "series s R", "  term 1 1", "end",
        "series g R", "  term 1 1", "  term 0 -3", "end",
        "series y R", "  term 0 3", "end",
        "matrix N R 2 2", "  entry 1 2 s", "end",
        "matrix U R 2 2", "  entry 1 1 y", "  entry 2 2 1", "end",
        "module M1 ring R rank 2 " + ("connection N" if robba else "gamma t N"),
        "vector w M1", "  comp 2 1", "end",
        f"command {command}"]) + "\n"


@pytest.mark.parametrize("command", KIND_COMMANDS,
                         ids=lambda c: c.split()[0])
@pytest.mark.parametrize("kind", tuple(_KINDS))
def test_every_ring_kind_runs_to_a_report_or_an_ovc_error(kind, command):
    pf = parse_problem(_kind_problem(kind, command))
    try:
        report = run_command(pf)
    except OvcError:
        return
    assert emit_report(report)


def test_multi_robba_is_robba():
    text = (PROBLEMS / "annulus_dlog_half.ovc").read_text()
    multi = text.replace(" robba ", " multi-robba ", 1)
    assert multi != text
    assert emit_report(run_command(parse_problem(multi))) == \
        emit_report(run_command(parse_problem(text)))
