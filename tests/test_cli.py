"""Problem-file parsing, dispatch, determinism, and exit codes."""

import subprocess
import sys
from pathlib import Path

import pytest

from ovc.cli import emit_report, run_command
from ovc.errors import ParseError, RangeError, UndefinedNameError
from ovc.problems import parse_problem

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


def test_parse_minimal():
    pf = parse_problem(MINIMAL)
    assert pf.p == 3 and pf.M == 10 and pf.q == 3
    assert pf.command[0] == "cohomology"
    assert "M1" in pf.modules


def test_parse_range_errors():
    with pytest.raises(RangeError):
        parse_problem(MINIMAL.replace("window 0:10", "window 0:1000000"))
    with pytest.raises(RangeError):
        parse_problem(MINIMAL.replace("M 10", "M 400"))
    with pytest.raises(RangeError):
        parse_problem(MINIMAL.replace("p 3", "p 6"))


def test_parse_undefined_name():
    with pytest.raises(UndefinedNameError):
        parse_problem(MINIMAL.replace("gamma x Z", "gamma x U"))


def test_parse_syntax_error_carries_line():
    bad = MINIMAL.replace("ring W tate vars x window 0:10",
                          "ring W tate vars x")
    with pytest.raises(ParseError) as exc:
        parse_problem(bad)
    assert "line 4" in str(exc.value)


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


def test_cli_output_file(tmp_path):
    good = tmp_path / "ok.ovc"
    good.write_text(MINIMAL)
    out = tmp_path / "report.txt"
    proc = _run(["cohomology", str(good), "--out", str(out),
                 "--format", "structured"])
    assert proc.returncode == 0
    assert out.read_bytes().startswith(b"command=cohomology")


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
])
def test_cli_bad_command_arguments_are_parse_errors(tmp_path, command, name,
                                                    block):
    text = (PROBLEMS / name).read_text()
    text = text[:text.index("command ")] + block + "\n"
    with pytest.raises(ParseError):
        run_command(parse_problem(text))
    prob = tmp_path / name
    prob.write_text(text)
    proc = _run([command, str(prob)])
    assert proc.returncode == 2
    assert b"parse error" in proc.stderr
    assert b"engine.internal" not in proc.stderr


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
