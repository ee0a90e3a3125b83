"""Every printed generator checked against its complex (ROADMAP item 16).

The oracle reads the structured report only.  Each ``hj.genk.*`` record is
parsed back into a chain vector of its degree's space; the assembled d_j
must send it to zero at its printed precision, and the printed generators
stacked on the columns of d_(j-1) must raise a rank-only ``sparse_snf`` rank
by exactly ``hj.dim``.  Neither check depends on the elimination order that
picked the representatives.
"""

import random
from pathlib import Path

import pytest

from ovc.cli import emit_report, run_command
from ovc.cohomology import compact_complex, local_complex, mw_complex
from ovc.linalg import Entries, sparse_snf
from ovc.padics import parse_scalar
from ovc.problems import parse_problem
from test_closed_forms import DWORK_RUNS, dwork_text

ROOT = Path(__file__).resolve().parent.parent / "problems"
SHIPPED = sorted(p.name for p in ROOT.glob("*.ovc")
                 if any(line.startswith(("command cohomology",
                                         "command compact-supports"))
                        for line in p.read_text().splitlines()))


def _text(p, M, body, command):
    return "\n".join(["version 1", f"p {p}", f"M {M}", *body,
                      f"command {command} M1"]) + "\n"


def _matrix(name, ring, rows, fmt):
    """A matrix block over ``ring`` with the series blocks of its nonzero
    entries before it; ``rows`` holds {exponent: coefficient} dicts."""
    series, entries = [], []
    for a, row in enumerate(rows):
        for b, terms in enumerate(row):
            if terms:
                series += [f"series {name}{a}{b} {ring}"] + [
                    f"  term {fmt(e)} {c}" for e, c in sorted(terms.items())
                ] + ["end"]
                entries.append(f"  entry {a + 1} {b + 1} {name}{a}{b}")
    return series + [f"matrix {name} {ring} {len(rows)} {len(rows)}",
                     *entries, "end"]


def _tate(names, window, gammas):
    """A Tate module M1 on [0, window]^n whose dx_v connection matrix is
    ``gammas[v]``, keyed by exponent tuples."""
    rank = len(next(iter(gammas.values())))
    body = [f"ring W tate vars {','.join(names)} "
            f"window {','.join([f'0:{window}'] * len(names))}"]
    for v in names:
        body += _matrix(f"G{v}", "W", gammas[v],
                        lambda e: " ".join(map(str, e)))
    return body + [f"module M1 ring W rank {rank} "
                   + " ".join(f"gamma {v} G{v}" for v in names)]


def _robba(window, rows):
    """t d/dt + N on the Robba window -window..window, slope 1."""
    return [f"ring R robba vars t window {-window}:{window} slope 1",
            *_matrix("N", "R", rows, str),
            f"module M1 ring R rank {len(rows)} connection N"]


def _seeded_texts(seed=16):
    """Line, plane and Robba modules whose reports print generators: p-adic
    constants and polynomials on lines, f(x) dx + g(y) dy on planes (flat by
    construction), nilpotent rank-2 lines and t d/dt + a for integers a."""
    rng = random.Random(seed)
    out = []
    for _ in range(4):
        c = rng.choice((9, 18, 27, -9, -54))
        poly = {(0,): c, (rng.randint(1, 3),): rng.choice((27, -27, 81))}
        W = rng.randint(8, 14)
        for cmd in ("cohomology", "compact-supports"):
            out.append(_text(3, 8, _tate("x", W, {"x": [[poly]]}), cmd))
    for _ in range(2):
        b = rng.choice((1, 2, 3))
        nil = [[{}, {(0,): b}], [{}, {}]]
        for cmd in ("cohomology", "compact-supports"):
            out.append(_text(3, 8, _tate("x", rng.randint(9, 13),
                                         {"x": nil}), cmd))
    for _ in range(3):
        f = {(0, 0): rng.choice((27, 54)), (1, 0): rng.choice((81, -81))}
        g = {(0, 0): rng.choice((27, -27)), (0, 2): rng.choice((81, 243))}
        W = rng.randint(4, 6)
        for cmd in ("cohomology", "compact-supports"):
            out.append(_text(3, 8, _tate("xy", W, {"x": [[f]], "y": [[g]]}),
                             cmd))
    for a in (rng.randint(-5, 5), 3, -6):
        out.append(_text(3, 8, _robba(8, [[{0: a}]]), "cohomology"))
    out.append(_text(3, 8, _robba(7, [[{0: -2}, {0: 3}], [{}, {0: 1}]]),
                     "cohomology"))
    return out


def _printed(text):
    """(module, command, {degree: dim}, {degree: [{label: PadicApprox}]})
    read off the structured report of a problem text."""
    pf = parse_problem(text)
    lines = emit_report(run_command(pf)).decode().splitlines()
    dims, gens = {}, {}
    for line in lines:
        key, val = line.split("=", 1)
        if key.endswith(".dim"):
            dims[int(key[1:-4])] = int(val)
        elif ".gen" in key:
            h, g, a, js, exps = key.split(".", 4)
            J = tuple(int(v) - 1 for v in js.split("dx")[1:])
            label = (int(a[1:]), J, tuple(int(e) for e in exps.split(",")))
            vecs = gens.setdefault(int(h[1:]), {})
            vecs.setdefault(int(g[3:]), {})[label] = parse_scalar(
                val, pf.p, pf.M)
    return (pf.command[1][0], pf.command[0], dims,
            {d: [v[k] for k in sorted(v)] for d, v in gens.items()})


def _complex(module, command):
    if module.ring.is_robba():
        return local_complex(module), 0
    if command == "compact-supports":
        return compact_complex(module), len(module.ring.variables)
    return mw_complex(module), 0


def _vanishes(cdata, j, vec):
    """Whether d_j sends {index: PadicApprox} to zero at the precision its
    inputs fix the image to: the coordinates are known mod p^A and the map's
    values, of valuation >= -shift, mod p^M, so an image coordinate is known
    mod p^min(A - shift, M + v), v the least valuation of the vector.  The
    image is taken on the integers the map stores, values times p^shift,
    with the vector scaled by p^s to integers."""
    (_, shift), m, p = cdata.scalings[j], cdata.matrices[j], cdata.p
    A = min(c.abs_prec() for c in vec.values())
    v = min(c.val for c in vec.values())
    s = max(0, -v)
    image = {}
    for r, c, x in zip(m.rows, m.cols, m.vals):
        if c in vec:
            u = vec[c].unit * p ** (vec[c].val + s)
            image[r] = image.get(r, 0) + x * u
    mod = p ** (min(A - shift, cdata.M + v) + shift + s)
    return all(y % mod == 0 for y in image.values())


def _rank(cdata, nrows, columns, N):
    return sparse_snf(nrows, len(columns), Entries.of_columns(columns),
                      cdata.p, N, logs=None).rank()


def _check(text):
    module, command, dims, gens = _printed(text)
    cdata, offset = _complex(module, command)
    p, M = cdata.p, cdata.M
    checked = 0
    for deg, dim in dims.items():
        vecs = gens.get(deg, [])
        assert len(vecs) == dim, (deg, text)
        if not vecs:
            continue
        j = deg - offset
        space = cdata.spaces[j]
        chains = [{space.index(lbl): c for lbl, c in v.items()} for v in vecs]
        if j < len(cdata.matrices):
            for v in chains:
                assert _vanishes(cdata, j, v), (deg, text)
        # one scale S for the boundaries and the generators: every value
        # times p^S is integral, and the ranks are read mod p^(M + S)
        low = min(c.val for v in vecs for c in v.values())
        sh = cdata.scalings[j - 1][1] if j else 0
        S = max(sh, -low, 0)
        cols = []
        if j:
            m = cdata.matrices[j - 1]
            cols = [{} for _ in range(cdata.spaces[j - 1].dim)]
            for r, c, x in zip(m.rows, m.cols, m.vals):
                cols[c][r] = x * p ** (S - sh)
        gcols = [{i: c.residue(M + S, S) for i, c in v.items()}
                 for v in chains]
        assert _rank(cdata, space.dim, cols + gcols, M + S) \
            - _rank(cdata, space.dim, cols, M + S) == len(vecs), (deg, text)
        checked += len(vecs)
    return checked


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_generators_are_independent_cycles(name):
    _check((ROOT / name).read_text(encoding="utf-8"))


def test_seeded_generators_are_independent_cycles():
    texts = _seeded_texts()
    counts = [_check(t) for t in texts]
    # the draws print generators on lines, planes and Robba windows, for
    # both commands
    assert sum(counts) >= 20
    assert all(counts[-4:])
    assert any(n and "vars x,y" in t for n, t in zip(counts, texts))
    assert any(n and "compact-supports" in t for n, t in zip(counts, texts))


# ROADMAP item 17's family: connections that raise the exponent, whose
# certified dims flip with the parity of W
EXPONENT_RAISING = ({(1,): 1}, {(1,): 3}, {(2,): 9}, {(0,): 1, (1,): 1},
                    {(0,): 3, (2,): 9})


def test_exponent_raising_generators_are_independent_cycles():
    counts = [_check(_text(3, 8, _tate("x", W, {"x": [[poly]]}), cmd))
              for poly in EXPONENT_RAISING for W in range(10, 14)
              for cmd in ("cohomology", "compact-supports")]
    assert len(counts) == 40 and sum(counts) >= 15


def test_dwork_generators_are_independent_cycles():
    # ROADMAP item 20's lines d + pi d(x^d) at p = 2, f = x^d, the runs of
    # tests/test_closed_forms.py under both ring kinds: their dims miss the
    # closed form for d = 3 and 5, yet every generator they print passes
    counts = {d: sum(_check(dwork_text(kind, d, M, W, cmd))
                     for kind in ("tate", "dagger") for M, W in DWORK_RUNS
                     for cmd in ("cohomology", "compact-supports"))
              for d in (1, 3, 5)}
    assert counts[1] == 0 and counts[3] >= 40 and counts[5] >= 40
