"""Span recorder for the traced benchmark run.

The program is not edited: ``installed`` rebinds the public entry points of
the ovc modules to recording wrappers at run time and restores them on exit.
A function imported with ``from .linalg import sparse_snf`` is a separate
binding in every importing module, so each target is rebound wherever an
ovc module holds it, not only where it is defined.

Each call records one span: name, layer, start, end and the index of the
enclosing span.  A layer's self time is a span's duration minus the part of
its interval covered by its child spans.  ``padics``, ``series`` and
``modules`` are not wrapped, because their call counts would swamp the
trace; their time lands in the self time of whichever caller is wrapped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None          # index of the enclosing span, None at a root
    counts: dict = field(default_factory=dict)


class Tracer:
    """Keeps the spans of the current pass in memory.

    Wrappers record only while ``recording`` is set, so oracle checks that
    call into the engine between timed runs leave no spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self._stack: list[int] = []

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    def wrap(self, fn, name: str, layer: str, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = Span(name, layer, 0.0, 0.0, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced


# -- counts read at layer boundaries ---------------------------------------------

def _complex_counts(args, cdata):
    return {"cells": sum(s.dim for s in cdata.spaces),
            "entries": sum(len(m) for m in cdata.matrices)}


def _engine_counts(args, cc):
    degrees = cc.report.degrees.values()
    return {"raw_classes": sum(d.raw_dim for d in degrees),
            "excluded_classes": sum(d.edge_excluded for d in degrees),
            "maps": len(cc.cdata.matrices)}


def _snf_counts(args, snf):
    return {"nnz": len(args[2]), "pivots": len(snf.pivots),
            "row_ops": len(snf.row_ops), "col_ops": len(snf.col_ops)}


def _report_bytes(args, payload):
    return {"bytes": len(payload)}


_TRANSFORMS = ("materialize_Uinv", "materialize_V_cols", "kernel_basis",
               "coker_reps", "solve", "apply_U", "apply_Uinv", "apply_V")

# (module, attribute or Class.method, layer, counter)
TARGETS = (
    [("ovc.cohomology", f, "cohomology.assemble", _complex_counts)
     for f in ("mw_complex", "compact_complex", "local_complex")]
    + [("ovc.pushforward", "quotient_complex", "cohomology.assemble",
        _complex_counts),
       ("ovc.cohomology", "complex_cohomology", "cohomology.engine",
        _engine_counts),
       ("ovc.linalg", "sparse_snf", "linalg.snf", _snf_counts)]
    + [("ovc.linalg", f"SnfResult.{m}", "linalg.transform", None)
       for m in _TRANSFORMS]
    + [("ovc.pushforward", "leray_assemble", "pushforward.leray", None),
       ("ovc.pushforward", "pushforward_complex", "pushforward.bundle", None),
       ("ovc.pushforward", "snake_check", "pushforward.snake", None),
       ("ovc.pairing", "pairing_nondegeneracy_check", "pairing.check", None),
       ("ovc.pairing", "residue_pairing", "pairing.check", None),
       ("ovc.problems", "parse_problem", "problems.parse", None),
       ("ovc.cli", "run_command", "cli.run", None),
       ("ovc.cli", "emit_report", "cli.emit", _report_bytes),
       ("ovc.groebner", "complete_leading_basis", "groebner.reduce", None),
       ("ovc.groebner", "reduce_element", "groebner.reduce", None),
       ("ovc.factor", "factor_plus", "factor.factor", None),
       ("ovc.unipotent", "strongly_unipotent_basis", "unipotent.basis", None),
       ("ovc.unipotent", "h0_h1_unipotent", "unipotent.basis", None),
       ("ovc.unipotent", "horizontal_iterate", "unipotent.horizontal", None),
       ("ovc.unipotent", "bounddenom", "unipotent.bounddenom", None)]
)

LAYERS = tuple(dict.fromkeys(t[2] for t in TARGETS))


@contextmanager
def installed(tracer: Tracer):
    """Rebind every target in every loaded ovc module (methods on their
    class) to a wrapper of ``tracer``; restore the originals on exit."""
    patched = []
    try:
        for module_name, qualname, layer, counter in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            name = f"{module_name.removeprefix('ovc.')}.{qualname}"
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                setattr(owner, attr,
                        tracer.wrap(original, name, layer, counter))
                patched.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(original, name, layer, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "ovc"
                                       or mod_name.startswith("ovc.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# -- self time and per-layer aggregation -----------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return [s.end - s.start
            - _covered([(c.start, c.end) for c in kids], s.start, s.end)
            for s, kids in zip(spans, children)]


def layer_metrics(spans: list[Span], pass_s: float) -> dict:
    """Per-layer numbers of one traced pass that took ``pass_s`` seconds."""
    out = {f"{layer}_s": 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        out[f"{span.layer}_s"] = out.get(f"{span.layer}_s", 0.0) + own
    total: dict[str, int] = {}
    for span in spans:
        for key, value in span.counts.items():
            key = f"{span.layer}.{key}"
            total[key] = total.get(key, 0) + value
    snf = [s for s in spans if s.layer == "linalg.snf"]
    in_engine = sum(1 for s in snf if s.parent is not None
                    and spans[s.parent].layer == "cohomology.engine")
    maps = total.get("cohomology.engine.maps", 0)
    raw = total.get("cohomology.engine.raw_classes", 0)
    excluded = total.get("cohomology.engine.excluded_classes", 0)
    out.update({
        "cohomology.cells": total.get("cohomology.assemble.cells", 0),
        "cohomology.entries": total.get("cohomology.assemble.entries", 0),
        "cohomology.raw_classes": raw,
        "cohomology.excluded_classes": excluded,
        # no raw classes means nothing was thrown away
        "cohomology.kept_frac": (raw - excluded) / raw if raw else 1.0,
        "linalg.snf_calls": len(snf),
        "linalg.snf_nnz": total.get("linalg.snf.nnz", 0),
        "linalg.pivots": total.get("linalg.snf.pivots", 0),
        "linalg.row_ops": total.get("linalg.snf.row_ops", 0),
        "linalg.col_ops": total.get("linalg.snf.col_ops", 0),
        "linalg.snf_per_map": in_engine / maps if maps else 0.0,
        "cli.report_bytes": total.get("cli.emit.bytes", 0),
        "trace.pass_s": pass_s,
        "trace.unwrapped_s": pass_s - sum(s.end - s.start for s in spans
                                          if s.parent is None),
    })
    return out
