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

After the header every line is a directive: a keyword, its positional
operands, then ``key value`` options in any order.  Ring, module and command
lines read their options by one rule: an unknown or repeated key, a key
without its value, a missing required key and a value the key does not take
are parse errors.  ``gamma <var> <matrix>`` is the one key that takes two
operands and may repeat.  ``series``, ``matrix`` and ``vector`` open a block
of records closed by ``end``.

A ring line reads ``ring <name> <kind> vars <v,...> window <lo:hi,...>``
plus the options of its kind and no others: ``tate``; ``dagger`` or
``dagger-fringe`` (two spellings of one kind) with ``decay D``; ``robba`` or
``multi-robba`` (two spellings of one kind) with ``slope r``; ``robba-plus``
with ``slope r`` and a window from 0, as for ``tate`` and ``dagger``.  A
``tate`` and a ``dagger`` window assemble the same complex, so a dim
certified on a ``tate`` ring is a claim about the weakly complete (dagger)
algebra, not the Tate algebra.
Coefficients are p-adic scalars: a ring has no coefficient ring.

Scalars serialize as "u*p^v@M" (plain integers and fractions n/d accepted);
a series is a list of term records (exponents then the scalar).  A term
outside its ring's window, or a constant entry of a ring whose window leaves
out exponent 0, is a range error, not a silent drop.  Every name
must be defined before use, command arguments included, and an undefined one
is reported with its line number; ``COMMANDS`` holds each command's
arguments.  Header parameters are range-checked so reports stay
reproducible.  Malformed input raises ParseError carrying the line.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import OvcError, ParseError, RangeError, UndefinedNameError
from .modules import (
    ModuleVector,
    SeriesMatrix,
    SigmaNablaModule,
    check_frobenius_compat,
    check_integrability,
)
from .padics import is_power, is_prime, parse_scalar
from .series import (
    DAGGER,
    ROBBA,
    ROBBA_PLUS,
    TATE,
    RingDescriptor,
    Series,
)

_KINDS = {"tate": TATE, "dagger": DAGGER, "dagger-fringe": DAGGER,
          "robba": ROBBA, "robba-plus": ROBBA_PLUS, "multi-robba": ROBBA}

MAX_PRECISION = 256
MAX_WINDOW = 10 ** 4

# name kind -> the ProblemFile table its names resolve in
_TABLES = {"ring": "rings", "series": "series", "matrix": "matrices",
           "module": "modules", "vector": "vectors"}


def _window(tok: str) -> tuple:
    lo, hi = map(int, tok.split(":"))       # ValueError unless "lo:hi"
    return lo, hi


# Option tables map a key to how its value is read (see ``_value``); a tuple
# marks a key with several operands that may repeat.
_RING = {"vars": [str], "window": [_window], "decay": int, "slope": Fraction}
_MODULE = {"ring": "ring", "rank": int, "connection": "matrix",
           "frobenius": "matrix", "gamma": (str, "matrix")}


class Command(NamedTuple):
    """A command block's schema: how each positional argument is read (the
    last ``optional`` of them may be left out), its option table and the
    options it cannot do without."""

    args: tuple = ()
    options: dict = {}
    required: tuple = ()
    optional: int = 0


COMMANDS = {
    "cohomology": Command(("module",)),
    "compact-supports": Command(("module",)),
    "pushforward": Command(("module",), {
        "robba": "ring", "unipotent": {"yes": True, "no": False}.__getitem__},
        ("robba",)),
    "factor": Command(("matrix",), {"bound": int}),
    "unipotent-basis": Command(("module", "matrix"), optional=1),
    "horizontal": Command(("module",), {"w": "vector", "L": int}, ("w",)),
    "pairing": Command(("module",)),
    "groebner-reduce": Command((), {
        "basis": ["series"], "y": "series", "z": "series"},
        ("basis", "y", "z")),
    "selftest": Command(),
    "leray": Command(("module", str, str)),
}


class ProblemFile:
    """The header values and, filled in by the parser, the name tables and
    the command."""
    __slots__ = ("p", "M", "q", "rings", "series", "matrices", "modules",
                 "vectors", "command")

    def __init__(self, p: int, M: int, q: int):
        self.p, self.M, self.q = p, M, q
        self.rings, self.series, self.matrices = {}, {}, {}
        self.modules, self.vectors = {}, {}
        self.command = ()       # (name, resolved args, resolved options)


# -- token readers ------------------------------------------------------------

def _int(tok: str, what: str, ln: int) -> int:
    """An integer token; anything else is a parse error on line ``ln``."""
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"{what} must be an integer, not {tok!r}", ln) \
            from None


def _scalar(pf: ProblemFile, tok: str, ln: int):
    try:
        return parse_scalar(tok, pf.p, pf.M)
    except (ArithmeticError, ValueError, OvcError):
        raise ParseError(f"malformed scalar {tok!r}", ln) from None


def _named(pf: ProblemFile, kind: str, name: str, ln: int):
    table = getattr(pf, _TABLES[kind])
    if name not in table:
        raise UndefinedNameError(f"{kind} {name!r}", ln)
    return table[name]


def _element(pf: ProblemFile, ring: RingDescriptor, tok: str, ln: int):
    """A series of ``ring`` named by ``tok``, or a constant scalar."""
    if tok in pf.series:
        if pf.series[tok].descriptor != ring:
            raise ParseError(f"series {tok!r} lives in another ring", ln)
        return pf.series[tok]
    try:
        scalar = _scalar(pf, tok, ln)
    except ParseError:
        raise UndefinedNameError(f"series {tok!r}", ln) from None
    if not ring.in_window(ring.zero_exp()):
        raise RangeError(f"constant {tok} outside its ring's window", ln)
    return Series.make(ring, {ring.zero_exp(): scalar})


def _value(pf: ProblemFile, kind, tok: str, what: str, ln: int):
    """``tok`` read as ``kind``: a name kind of ``_TABLES`` resolves in
    ``pf``, ``[kind]`` reads a comma-separated list, and any other kind is a
    converter whose ArithmeticError, KeyError or ValueError is a parse
    error."""
    if isinstance(kind, str):
        return _named(pf, kind, tok, ln)
    if isinstance(kind, list):
        return [_value(pf, kind[0], t, what, ln) for t in tok.split(",")]
    try:
        return kind(tok)
    except (ArithmeticError, KeyError, ValueError):
        raise ParseError(f"{what}: bad value {tok!r}", ln) from None


# -- line readers -------------------------------------------------------------

def _options(pf: ProblemFile, what: str, toks: list, table: dict, ln: int,
             required: tuple = ()) -> dict:
    """The ``key value`` options in ``toks``, each value read by
    ``table[key]``.  A key whose entry is a tuple reads one operand per
    element, may repeat, and collects its operand tuples in a list.  An
    unknown or repeated key, a missing operand or required key and a value
    its reader rejects are parse errors on line ``ln``."""
    opts: dict = {}
    k = 0
    while k < len(toks):
        key = toks[k]
        kinds = table.get(key)
        many = isinstance(kinds, tuple)
        if kinds is None or (key in opts and not many):
            raise ParseError(f"{what}: unknown or repeated option {key!r}", ln)
        kinds = kinds if many else (kinds,)
        operands = toks[k + 1:k + 1 + len(kinds)]
        if len(operands) < len(kinds):
            raise ParseError(f"{what}: option {key!r} needs "
                             f"{len(kinds)} value(s)", ln)
        vals = tuple(_value(pf, kind, tok, f"{what} {key}", ln)
                     for kind, tok in zip(kinds, operands))
        if many:
            opts.setdefault(key, []).append(vals)
        else:
            opts[key] = vals[0]
        k += 1 + len(kinds)
    for key in required:
        if key not in opts:
            raise ParseError(f"{what} needs '{key} <value>'", ln)
    return opts


def _fields(pf: ProblemFile, what: str, toks: list, kinds: tuple,
            table: dict, ln: int, required: tuple = (),
            optional: int = 0) -> tuple:
    """A directive's operands: one positional value per entry of ``kinds``
    (the last ``optional`` of them may be left out and read as None), then
    its options."""
    n = min(len(toks), len(kinds))
    if n < len(kinds) - optional:
        raise ParseError(f"{what} needs {len(kinds) - optional} operand(s), "
                         f"got {n}", ln)
    args = tuple(_value(pf, kind, tok, what, ln)
                 for kind, tok in zip(kinds, toks))
    return (args + (None,) * (len(kinds) - n),
            _options(pf, what, toks[n:], table, ln, required))


def _block(recs: list, k: int, record: str, width: int) -> tuple:
    """The records of the block opened at ``recs[k]``, as (line, operands)
    pairs, and the index of its ``end``.  Every record is ``record`` and
    ``width`` operands."""
    for j in range(k + 1, len(recs)):
        ln, toks = recs[j]
        if toks == ["end"]:
            return [(r, t[1:]) for r, t in recs[k + 1:j]], j
        if toks[0] != record or len(toks) != 1 + width:
            raise ParseError(f"expected 'end' or '{record}' with {width} "
                             f"operands", ln)
    raise ParseError(f"{recs[k][1][0]} block missing 'end'", recs[k][0])


# -- the file -----------------------------------------------------------------

def parse_problem(text: str) -> ProblemFile:
    lines = text.splitlines()
    recs = [(ln, toks) for ln, raw in enumerate(lines, 1)
            if (toks := raw.split("#", 1)[0].split())]
    if not recs:
        raise ParseError("empty problem file", 1)
    header, at = {}, {}        # field -> value, field -> its line
    k = 0
    while k < len(recs) and recs[k][1][0] in ("version", "p", "M", "q") \
            and recs[k][1][0] not in header:
        ln, toks = recs[k]
        if len(toks) != 2:
            raise ParseError(f"malformed header line {' '.join(toks)!r}", ln)
        header[toks[0]], at[toks[0]] = _int(toks[1], toks[0], ln), ln
        k += 1
    pf = _problem_file(header, at, recs[k][0] if k < len(recs) else len(lines))
    command = None
    while k < len(recs):
        ln, toks = recs[k]
        kw, ops = toks[0], toks[1:]
        if kw == "ring":
            _parse_ring(pf, ops, ln)
        elif kw == "module":
            _parse_module(pf, ops, ln)
        elif kw == "series":
            (name, ring), _ = _fields(pf, kw, ops, (str, "ring"), {}, ln)
            body, k = _block(recs, k, "term", len(ring.variables) + 1)
            pf.series[name] = _series(pf, ring, body)
        elif kw == "matrix":
            (name, ring, nrows, ncols), _ = _fields(
                pf, kw, ops, (str, "ring", int, int), {}, ln)
            if nrows < 1 or ncols < 1:
                raise RangeError(f"matrix size {nrows}x{ncols}", ln)
            body, k = _block(recs, k, "entry", 3)
            pf.matrices[name] = _matrix(pf, ring, nrows, ncols, body)
        elif kw == "vector":
            (name, module), _ = _fields(pf, kw, ops, (str, "module"), {}, ln)
            body, k = _block(recs, k, "comp", 2)
            pf.vectors[name] = _vector(pf, module, body)
        elif kw == "command":
            if command:
                raise ParseError("multiple command blocks", ln)
            command = (ops, ln)
        else:
            raise ParseError(f"unknown directive {kw!r}", ln)
        k += 1
    if command is None:
        raise ParseError("no command block", len(lines))
    pf.command = _command(pf, *command)
    return pf


def _problem_file(header: dict, at: dict, ln: int) -> ProblemFile:
    """The header: a missing field fails at ``ln``, a bad one at its line."""
    for key in ("version", "p", "M"):
        if key not in header:
            raise ParseError(f"missing header field {key}", ln)
    p, M = header["p"], header["M"]
    if header["version"] != 1:
        raise RangeError(f"unsupported version {header['version']}", at["version"])
    if not is_prime(p):
        raise RangeError(f"p = {p} is not prime", at["p"])
    if not 1 <= M <= MAX_PRECISION:
        raise RangeError(f"M = {M} out of [1, {MAX_PRECISION}]", at["M"])
    q = header.get("q", p)
    if not is_power(q, p):
        raise RangeError(f"q = {q} is not p^f with f >= 1", at["q"])
    return ProblemFile(p, M, q)


def _parse_ring(pf: ProblemFile, ops: list, ln: int):
    (name, kind), opts = _fields(pf, "ring", ops, (str, _KINDS.__getitem__),
                                 _RING, ln, ("vars", "window"))
    for lo, hi in opts["window"]:
        if hi - lo > MAX_WINDOW:
            raise RangeError(f"window size {hi - lo} exceeds {MAX_WINDOW}", ln)
    try:
        pf.rings[name] = RingDescriptor(
            kind, tuple(opts["vars"]), tuple(opts["window"]), pf.p, pf.M,
            q=pf.q, decay=opts.get("decay"), slope=opts.get("slope"))
    except ValueError as ex:
        raise ParseError(str(ex), ln) from None


def _separated(module: SigmaNablaModule) -> bool:
    """Whether the module has rank one and each Gamma_i depends on x_i
    alone: then every curvature term vanishes identically."""
    variables = module.ring.variables
    return module.rank == 1 and all(
        not any(e for k, e in enumerate(exp) if k != variables.index(v))
        for v, g in module.gammas for exp, _ in g.rows[0][0].terms)


def _parse_module(pf: ProblemFile, ops: list, ln: int):
    """A module must be integrable and, with a ``frobenius`` matrix, have a
    Frobenius structure compatible with its connection N, both at the
    working precision; a module that fails is a parse error on its line."""
    (name,), opts = _fields(pf, "module", ops, (str,), _MODULE, ln,
                            ("ring", "rank"))
    try:
        module = SigmaNablaModule(
            opts["ring"], opts["rank"], connection=opts.get("connection"),
            gammas=tuple(opts.get("gamma", ())),
            frobenius=opts.get("frobenius"))
        flat = _separated(module) or check_integrability(module)
        compat = module.frobenius is None or (
            module.connection is not None
            and check_frobenius_compat(module))
    except Exception as ex:  # noqa: BLE001 - any failure is the line's fault
        raise ParseError(f"module construction failed: {ex}", ln) from None
    if not flat:
        raise ParseError("module is not integrable: its curvature does not "
                         "vanish at precision", ln)
    if not compat:
        raise ParseError("frobenius needs a connection N with N Phi + "
                         "t dPhi/dt = q Phi phi(N) at precision", ln)
    pf.modules[name] = module


def _series(pf: ProblemFile, ring: RingDescriptor, body: list) -> Series:
    terms: dict = {}
    for ln, ops in body:
        exp = tuple(_int(t, "exponent", ln) for t in ops[:-1])
        if not ring.in_window(exp):
            raise RangeError(f"term exponent {' '.join(ops[:-1])} outside "
                             "its ring's window", ln)
        scalar = _scalar(pf, ops[-1], ln)
        terms[exp] = terms[exp].add(scalar) if exp in terms else scalar
    return Series.make(ring, terms)


def _matrix(pf: ProblemFile, ring: RingDescriptor, nrows: int, ncols: int,
            body: list) -> SeriesMatrix:
    rows = [[Series.zero(ring) for _ in range(ncols)] for _ in range(nrows)]
    for ln, (r, c, ref) in body:
        r, c = (_int(t, "entry index", ln) - 1 for t in (r, c))
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise RangeError("entry indices out of range", ln)
        rows[r][c] = _element(pf, ring, ref, ln)
    return SeriesMatrix.make(ring, rows)


def _vector(pf: ProblemFile, module: SigmaNablaModule,
            body: list) -> ModuleVector:
    comps = [Series.zero(module.ring) for _ in range(module.rank)]
    for ln, (k, ref) in body:
        k = _int(k, "component index", ln) - 1
        if not 0 <= k < module.rank:
            raise RangeError("component index out of range", ln)
        comps[k] = _element(pf, module.ring, ref, ln)
    return ModuleVector(module, tuple(comps))


def _command(pf: ProblemFile, ops: list, ln: int) -> tuple:
    """The command block checked against its schema in ``COMMANDS``."""
    name = ops[0] if ops else ""
    if name not in COMMANDS:
        raise ParseError(f"unknown command {name!r}", ln)
    spec = COMMANDS[name]
    args, opts = _fields(pf, name, ops[1:], spec.args, spec.options, ln,
                         spec.required, spec.optional)
    if name == "leray" and (args[1] == args[2] or not
                            {args[1], args[2]} <= set(args[0].ring.variables)):
        raise ParseError("leray needs a fiber and a base that are two "
                         "different variables of the module's ring", ln)
    if name == "factor" and args[0].nrows != args[0].ncols:
        raise ParseError("factor needs a square matrix", ln)
    return name, args, opts
