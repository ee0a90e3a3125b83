"""Problem files: a small line-oriented format with a versioned header.

    version 1
    p 3
    M 20
    ring R robba vars t window -30:30 slope 1
    ring W tate vars x window 0:60
    series f R
      term -1 1
      term 0 4*p^1@20
    end
    matrix N R 1 1
      entry 1 1 f
    end
    module M1 ring R rank 1 connection N
    command cohomology M1

Scalars serialize as "u*p^v@M" (plain integers and fractions n/d accepted);
a series is a list of term records (exponents then the scalar).  Every name
must be defined before use; header parameters are range-checked so reports
stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError, RangeError, UndefinedNameError
from .modules import SeriesMatrix, SigmaNablaModule
from .padics import is_prime, parse_scalar
from .series import (
    DAGGER,
    MULTI_ROBBA,
    ROBBA,
    ROBBA_PLUS,
    TATE,
    RingDescriptor,
    Series,
)

_KINDS = {"tate": TATE, "dagger": DAGGER, "dagger-fringe": DAGGER,
          "robba": ROBBA, "robba-plus": ROBBA_PLUS, "multi-robba": MULTI_ROBBA}

MAX_PRECISION = 256
MAX_WINDOW = 10 ** 4


@dataclass
class ProblemFile:
    version: int
    p: int
    M: int
    q: int
    rings: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    matrices: dict = field(default_factory=dict)
    modules: dict = field(default_factory=dict)
    vectors: dict = field(default_factory=dict)
    command: tuple = ()          # (name, args dict)


def _tokens(line: str) -> list[str]:
    return line.split()


def _int(tok: str, what: str, ln: int) -> int:
    """An integer token; anything else is a parse error on line ``ln``."""
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"{what} must be an integer, not {tok!r}", ln) \
            from None


def parse_problem(text: str) -> ProblemFile:
    lines = text.splitlines()
    header = {"version": None, "p": None, "M": None, "q": None}
    pf = None
    i = 0

    def err(msg, ln):
        raise ParseError(msg, ln + 1)

    # header pass
    while i < len(lines):
        raw = lines[i]
        line = raw.split("#", 1)[0].strip()
        if not line:
            i += 1
            continue
        toks = _tokens(line)
        if toks[0] in header and header[toks[0]] is None and pf is None:
            try:
                header[toks[0]] = int(toks[1])
            except (IndexError, ValueError):
                err(f"malformed header line {raw!r}", i)
            i += 1
            continue
        if pf is None:
            for key in ("version", "p", "M"):
                if header[key] is None:
                    err(f"missing header field {key}", i)
            if header["version"] != 1:
                raise RangeError(f"unsupported version {header['version']}", i + 1)
            if not is_prime(header["p"]):
                raise RangeError(f"p = {header['p']} is not prime", i + 1)
            if not 1 <= header["M"] <= MAX_PRECISION:
                raise RangeError(f"M = {header['M']} out of [1, {MAX_PRECISION}]",
                                 i + 1)
            q = header["q"] if header["q"] else header["p"]
            qq = q
            while qq > 1 and qq % header["p"] == 0:
                qq //= header["p"]
            if qq != 1:
                raise RangeError(f"q = {q} is not a power of p", i + 1)
            pf = ProblemFile(1, header["p"], header["M"], q)
        i = _parse_body_line(pf, lines, i)
    if pf is None:
        raise ParseError("empty problem file", 1)
    if not pf.command:
        raise ParseError("no command block", len(lines))
    return pf


def _parse_body_line(pf: ProblemFile, lines: list[str], i: int) -> int:
    raw = lines[i]
    line = raw.split("#", 1)[0].strip()
    toks = _tokens(line)
    kw = toks[0]
    ln = i + 1
    if kw == "ring":
        _parse_ring(pf, toks, ln)
        return i + 1
    if kw == "series":
        return _parse_series(pf, lines, i)
    if kw == "matrix":
        return _parse_matrix(pf, lines, i)
    if kw == "vector":
        return _parse_vector(pf, lines, i)
    if kw == "module":
        _parse_module(pf, toks, ln)
        return i + 1
    if kw == "command":
        if pf.command:
            raise ParseError("multiple command blocks", ln)
        pf.command = (toks[1], tuple(toks[2:]))
        return i + 1
    raise ParseError(f"unknown directive {kw!r}", ln)


def _keyed(toks: list[str], ln: int) -> dict:
    out = {}
    k = 0
    while k + 1 < len(toks):
        out[toks[k]] = toks[k + 1]
        k += 2
    if k < len(toks):
        out[toks[k]] = ""
    return out


def _parse_ring(pf: ProblemFile, toks: list[str], ln: int):
    if len(toks) < 3:
        raise ParseError("ring needs a name and kind", ln)
    name, kind = toks[1], toks[2]
    if kind not in _KINDS:
        raise ParseError(f"unknown ring kind {kind!r}", ln)
    opts = _keyed(toks[3:], ln)
    if "vars" not in opts or "window" not in opts:
        raise ParseError("ring needs vars and window", ln)
    variables = tuple(opts["vars"].split(","))
    windows = []
    for piece in opts["window"].split(","):
        bounds = piece.split(":")
        if len(bounds) != 2:
            raise ParseError(f"malformed window {piece!r}", ln)
        lo, hi = (_int(b, "window bound", ln) for b in bounds)
        if hi - lo > MAX_WINDOW:
            raise RangeError(f"window size {hi - lo} exceeds {MAX_WINDOW}", ln)
        windows.append((lo, hi))
    decay = _int(opts["decay"], "decay", ln) if "decay" in opts else None
    slope = Fraction(opts["slope"]) if "slope" in opts else None
    coeff = None
    if "coeff" in opts:
        if opts["coeff"] not in pf.rings:
            raise UndefinedNameError(f"coefficient ring {opts['coeff']!r}", ln)
        coeff = pf.rings[opts["coeff"]]
    try:
        pf.rings[name] = RingDescriptor(
            _KINDS[kind], variables, tuple(windows), pf.p, pf.M, q=pf.q,
            decay=decay, slope=slope, coeff=coeff)
    except ValueError as ex:
        raise ParseError(str(ex), ln)


def _parse_series(pf: ProblemFile, lines: list[str], i: int):
    toks = _tokens(lines[i].split("#", 1)[0])
    if len(toks) != 3:
        raise ParseError("series needs a name and a ring", i + 1)
    name, ring = toks[1], toks[2]
    if ring not in pf.rings:
        raise UndefinedNameError(f"ring {ring!r}", i + 1)
    desc = pf.rings[ring]
    nvars = len(desc.variables)
    terms = {}
    j = i + 1
    while j < len(lines):
        line = lines[j].split("#", 1)[0].strip()
        if not line:
            j += 1
            continue
        toks = _tokens(line)
        if toks[0] == "end":
            pf.series[name] = Series.make(desc, terms)
            return j + 1
        if toks[0] != "term" or len(toks) != 2 + nvars:
            raise ParseError("expected 'term <exponents...> <scalar>'", j + 1)
        exp = tuple(_int(t, "exponent", j + 1) for t in toks[1:1 + nvars])
        scalar = parse_scalar(toks[-1], pf.p, pf.M)
        terms[exp] = terms[exp].add(scalar) if exp in terms else scalar
        j += 1
    raise ParseError("series block missing 'end'", i + 1)


def _parse_matrix(pf: ProblemFile, lines: list[str], i: int):
    toks = _tokens(lines[i].split("#", 1)[0])
    if len(toks) != 5:
        raise ParseError("matrix needs name, ring, rows, cols", i + 1)
    name, ring = toks[1], toks[2]
    if ring not in pf.rings:
        raise UndefinedNameError(f"ring {ring!r}", i + 1)
    desc = pf.rings[ring]
    nrows, ncols = (_int(t, "matrix size", i + 1) for t in toks[3:5])
    rows = [[Series.zero(desc) for _ in range(ncols)] for _ in range(nrows)]
    j = i + 1
    while j < len(lines):
        line = lines[j].split("#", 1)[0].strip()
        if not line:
            j += 1
            continue
        toks = _tokens(line)
        if toks[0] == "end":
            pf.matrices[name] = SeriesMatrix.make(desc, rows)
            return j + 1
        if toks[0] != "entry" or len(toks) != 4:
            raise ParseError("expected 'entry <row> <col> <series-or-scalar>'",
                             j + 1)
        r, c = (_int(t, "entry index", j + 1) - 1 for t in toks[1:3])
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise RangeError("entry indices out of range", j + 1)
        ref = toks[3]
        if ref in pf.series:
            val = pf.series[ref]
            if val.descriptor != desc:
                raise ParseError(f"series {ref!r} lives in another ring", j + 1)
        else:
            try:
                val = Series.make(desc, {desc.zero_exp():
                                         parse_scalar(ref, pf.p, pf.M)})
            except (ValueError, ParseError):
                raise UndefinedNameError(f"series {ref!r}", j + 1)
        rows[r][c] = val
        j += 1
    raise ParseError("matrix block missing 'end'", i + 1)


def _parse_vector(pf: ProblemFile, lines: list[str], i: int):
    toks = _tokens(lines[i].split("#", 1)[0])
    if len(toks) != 3:
        raise ParseError("vector needs a name and a module", i + 1)
    name, modname = toks[1], toks[2]
    if modname not in pf.modules:
        raise UndefinedNameError(f"module {modname!r}", i + 1)
    module = pf.modules[modname]
    comps = [Series.zero(module.ring) for _ in range(module.rank)]
    j = i + 1
    while j < len(lines):
        line = lines[j].split("#", 1)[0].strip()
        if not line:
            j += 1
            continue
        toks = _tokens(line)
        if toks[0] == "end":
            from .modules import ModuleVector
            pf.vectors[name] = ModuleVector(module, tuple(comps))
            return j + 1
        if toks[0] != "comp" or len(toks) != 3:
            raise ParseError("expected 'comp <index> <series-or-scalar>'", j + 1)
        k = _int(toks[1], "component index", j + 1) - 1
        if not 0 <= k < module.rank:
            raise RangeError("component index out of range", j + 1)
        ref = toks[2]
        if ref in pf.series:
            comps[k] = pf.series[ref]
        else:
            comps[k] = Series.make(module.ring,
                                   {module.ring.zero_exp():
                                    parse_scalar(ref, pf.p, pf.M)})
        j += 1
    raise ParseError("vector block missing 'end'", i + 1)


def _parse_module(pf: ProblemFile, toks: list[str], ln: int):
    if len(toks) < 2:
        raise ParseError("module needs a name", ln)
    name = toks[1]
    opts_list = toks[2:]
    ring = None
    rank = None
    connection = None
    frobenius = None
    gammas = []
    k = 0
    while k < len(opts_list):
        key = opts_list[k]
        if key == "gamma":
            var, mat = opts_list[k + 1], opts_list[k + 2]
            if mat not in pf.matrices:
                raise UndefinedNameError(f"matrix {mat!r}", ln)
            gammas.append((var, pf.matrices[mat]))
            k += 3
            continue
        val = opts_list[k + 1]
        if key == "ring":
            if val not in pf.rings:
                raise UndefinedNameError(f"ring {val!r}", ln)
            ring = pf.rings[val]
        elif key == "rank":
            rank = _int(val, "rank", ln)
        elif key == "connection":
            if val not in pf.matrices:
                raise UndefinedNameError(f"matrix {val!r}", ln)
            connection = pf.matrices[val]
        elif key == "frobenius":
            if val not in pf.matrices:
                raise UndefinedNameError(f"matrix {val!r}", ln)
            frobenius = pf.matrices[val]
        else:
            raise ParseError(f"unknown module option {key!r}", ln)
        k += 2
    if ring is None or rank is None:
        raise ParseError("module needs ring and rank", ln)
    try:
        pf.modules[name] = SigmaNablaModule(
            ring, rank, connection=connection, gammas=tuple(gammas),
            frobenius=frobenius)
    except (ValueError, Exception) as ex:
        if isinstance(ex, (ParseError,)):
            raise
        raise ParseError(f"module construction failed: {ex}", ln)
