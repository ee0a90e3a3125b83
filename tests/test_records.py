"""ovc's records are ``NamedTuple`` classes or plain classes, so importing it
generates no record code: no module of ``src/ovc`` imports ``dataclasses``.
The records that validate check every construction, ``_replace`` included,
and the immutable ones refuse attribute assignment."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ovc.acceptance import CriterionResult, kummer_module, trivial_module
from ovc.cohomology import (
    ChainSpace,
    ChainVector,
    CohomologyReport,
    DegreeData,
)
from ovc.errors import NotARecognizedUnitError
from ovc.factor import ElementaryOp, FactorResult
from ovc.groebner import HadamardResult, LeadingDatum
from ovc.modules import ModuleVector, SeriesMatrix, SigmaNablaModule
from ovc.padics import PadicApprox
from ovc.pairing import NondegeneracyReport, PairingBlock
from ovc.pushforward import LerayReport
from ovc.series import (
    DAGGER,
    ROBBA,
    TATE,
    NormResult,
    RingDescriptor,
    Series,
)
from ovc.unipotent import IterationLog, UnipotentData

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# -- no import-time record generation -----------------------------------------

@pytest.mark.parametrize("module", ["ovc.cli", "ovc.acceptance"])
def test_importing_ovc_leaves_dataclasses_unloaded(module):
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print(sorted({{'dataclasses', '{module}'}}"
         " & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, check=True)
    assert proc.stdout.split("\n")[0] == repr([module])


def _dataclass_uses(path):
    """Lines of a file that import ``dataclasses`` or decorate a class with
    ``dataclass``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[0] == "dataclasses"
                      for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").split(".")[0] == "dataclasses"
        elif isinstance(node, ast.ClassDef):
            hit = any("dataclass" in ast.unparse(d)
                      for d in node.decorator_list)
        else:
            continue
        if hit:
            out.append(f"{path.name}:{node.lineno}")
    return out


def test_no_module_of_ovc_uses_dataclasses():
    assert [hit for path in sorted((SRC / "ovc").glob("*.py"))
            for hit in _dataclass_uses(path)] == []


def test_dataclass_check_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import dataclasses\n"
                    "from dataclasses import field\n"
                    "@dataclasses.dataclass(frozen=True)\n"
                    "class A: pass\n"
                    "@dataclass\n"
                    "class B: pass\n"
                    "class C(tuple): pass\n")
    assert _dataclass_uses(path) == [
        "sample.py:1", "sample.py:2", "sample.py:4", "sample.py:6"]


# -- validation on every construction path ------------------------------------

P, M = 3, 8
TATE_RING = RingDescriptor(TATE, ("x",), ((0, 5),), P, M)
ROBBA_RING = RingDescriptor(ROBBA, ("t",), ((-4, 4),), P, M,
                            slope=Fraction(1))
DAGGER_RING = RingDescriptor(DAGGER, ("x",), ((0, 5),), P, M, decay=2)
LINE = trivial_module(1, P, M, 5)
KUMMER = kummer_module(Fraction(1, 2), P, M, 4)
ONE = PadicApprox(P, 2, 0, 4)
ZERO_1x1 = SeriesMatrix.zero(LINE.ring, 1)

# (valid record, changed fields, exception type, message) per rejection; the
# messages are the ones the records gave when they were dataclasses
REJECTIONS = [
    (ONE, {"val": None}, ValueError, "zero element must have unit 0"),
    (ONE, {"prec": 0}, ValueError, "precision must be >= 1"),
    (ONE, {"unit": 6}, ValueError, "unit residue divisible by p"),
    (ONE, {"unit": 82}, ValueError, "unit residue out of range"),
    (TATE_RING, {"kind": "disc"}, ValueError, "unknown ring kind 'disc'"),
    (TATE_RING, {"variables": (), "window": ()}, ValueError,
     "a ring needs at least one variable"),
    (TATE_RING, {"window": ((0, 5), (0, 5))}, ValueError,
     "window/variable arity mismatch"),
    (TATE_RING, {"prime": 4}, ValueError, "4 is not prime"),
    (TATE_RING, {"precision": 0}, ValueError, "precision must be >= 1"),
    (TATE_RING, {"window": ((0, -1),)}, ValueError, "empty window"),
    (TATE_RING, {"window": ((-1, 5),)}, ValueError,
     "tate window must start at 0"),
    (TATE_RING, {"slope": Fraction(1)}, ValueError,
     "a tate ring has no slope"),
    (TATE_RING, {"decay": 2}, ValueError, "a tate ring has no decay"),
    (TATE_RING, {"q": 6}, ValueError, "q must be a power of p"),
    (ROBBA_RING, {"slope": None}, ValueError,
     "robba kinds need a positive slope"),
    (ROBBA_RING, {"slope": Fraction(-1)}, ValueError,
     "robba kinds need a positive slope"),
    (DAGGER_RING, {"decay": 0}, ValueError, "decay must be >= 1"),
    (LINE, {"rank": 2}, ValueError, "gamma x is 1x1, not 2x2"),
    (LINE, {"connection": ZERO_1x1}, ValueError,
     "a tate module takes no connection"),
    (LINE, {"gammas": (("y", ZERO_1x1),)}, ValueError, "unknown variable y"),
    (LINE, {"frobenius": ZERO_1x1}, NotARecognizedUnitError, None),
    (KUMMER, {"connection": None}, ValueError,
     "robba-kind module needs the dlog matrix N"),
    (KUMMER, {"gammas": (("t", KUMMER.connection),)}, ValueError,
     "a robba-kind module takes no gamma"),
]


@pytest.mark.parametrize("good, changes, error, message", REJECTIONS,
                         ids=[f"{type(g).__name__}-{'-'.join(c)}"
                              for g, c, _, _ in REJECTIONS])
def test_validated_records_check_construction_and_replace(good, changes,
                                                          error, message):
    with pytest.raises(error) as direct:
        type(good)(**{**good._asdict(), **changes})
    with pytest.raises(error) as replaced:
        good._replace(**changes)
    assert str(direct.value) == str(replaced.value)
    if message is not None:
        assert str(direct.value) == message


def test_replace_keeps_the_validated_class():
    assert type(ONE._replace(unit=1)) is PadicApprox
    ring = TATE_RING._replace(variables=("y",))
    assert type(ring) is RingDescriptor and ring.variables == ("y",)
    dual = LINE.dual()
    assert type(dual) is SigmaNablaModule and dual == LINE
    with pytest.raises(TypeError):
        ONE._replace(exponent=1)


# -- immutability -------------------------------------------------------------

def _frozen_records():
    """One instance of every record class that is immutable."""
    series = Series.one(TATE_RING)
    space = ChainSpace(((0,), (1,)), ((),), 1)
    placeholders = [
        NormResult, SeriesMatrix, ModuleVector, ChainVector, DegreeData,
        CohomologyReport, ElementaryOp, FactorResult, LeadingDatum,
        HadamardResult, PairingBlock, NondegeneracyReport, LerayReport,
        UnipotentData, IterationLog, CriterionResult]
    return [ONE, TATE_RING, LINE, series, space] + [
        cls._make([None] * len(cls._fields)) for cls in placeholders]


@pytest.mark.parametrize("record", _frozen_records(),
                         ids=lambda r: type(r).__name__)
def test_immutable_records_refuse_assignment(record):
    fields = getattr(record, "_fields", ("exps", "forms", "rank"))
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        del record.extra


def test_chain_space_compares_by_fields_and_caches():
    a = ChainSpace(((0,), (1,)), ((), (0,)), 2)
    b = ChainSpace(((0,), (1,)), ((), (0,)), 2)
    assert a == b and hash(a) == hash(b) and a != ChainSpace((), (), 2)
    assert a.__eq__(((0,), (1,))) is NotImplemented
    assert repr(a) == ("ChainSpace(exps=((0,), (1,)), forms=((), (0,)), "
                       "rank=2)")
    assert a.labels is a.labels and a.index(a.label(5)) == 5
    with pytest.raises(AttributeError):
        del a.rank
