"""Windowed de Rham complexes and their certified cohomology.

One builder, ``_assemble``, makes every complex the engine reduces.  It lays
out the labels (a, J, I) of each degree in order and emits each differential
once, as integers mod p^N with its scaling (N, shift).  Its callers differ
only in the exponent box of each degree, the derivative action, the sign of
the connection's exponent shift and what happens at the box edge:

* ``mw_complex``       - a module over a Tate/dagger window, dx gauge;
* ``compact_complex``  - the quotient complex on strictly positive annulus
                         exponents computing compact supports of affine space
                         (written in inverted coordinates, dx gauge);
* ``local_complex``    - the dlog operator D on a one-variable Robba window;
* ``pushforward.quotient_complex`` and ``pushforward._vertical_ranks``.

Dimensions come from p-adic Smith normal form ranks.  Hard windows create
boundary artifacts (classes that exist only because the window cut the
complex); every reported generator is therefore reduced to a representative
and discarded as uncertified when its entire support hugs the window edge
within the operator's shift reach.  Certified dimensions exclude those
classes; raw counts and the exclusion tally stay in the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product

from .errors import DescriptorMismatchError
from .linalg import SnfResult, sparse_snf
from .modules import SigmaNablaModule
from .padics import PadicApprox, int_valuation
from .report import CohomologyReport, DegreeData
from .series import _loss_min

Label = tuple  # (component, forms J as sorted tuple of var indices, exponent I)


@dataclass(frozen=True)
class ChainSpace:
    """Labels (a, J, I) ordered by exponent I (in the order of ``exps``),
    then by form J (in combinations order), then by component a."""
    degree: int
    exps: tuple
    forms: tuple
    rank: int

    @property
    def dim(self) -> int:
        return len(self.exps) * len(self.forms) * self.rank

    def label(self, idx: int) -> Label:
        e, rest = divmod(idx, len(self.forms) * self.rank)
        f, a = divmod(rest, self.rank)
        return (a, self.forms[f], self.exps[e])

    def index(self, label: Label) -> int:
        a, J, I = label
        return ((self._exp_index[I] * len(self.forms) + self.forms.index(J))
                * self.rank + a)

    @cached_property
    def labels(self) -> tuple:
        return tuple((a, J, I) for I in self.exps for J in self.forms
                     for a in range(self.rank))

    @cached_property
    def _exp_index(self) -> dict:
        return {I: e for e, I in enumerate(self.exps)}


@dataclass(frozen=True)
class ChainVector:
    """Sparse vector in a chain space: label -> PadicApprox."""
    space: ChainSpace
    data: dict

    def records(self):
        return tuple((l, self.data[l].serialize())
                     for l in sorted(self.data, key=self.space.index))

    def support_exponents(self):
        return [l[2] for l in self.data]


@dataclass
class ComplexData:
    spaces: list            # ChainSpace per degree
    matrices: list          # {(row, col): int mod p^N} per map
    scalings: list          # (N, shift) per map: entries are values * p^shift
    floors: list            # per map: least precision of a vanished entry
    loss: Fraction | None   # least value of the terms the window dropped
    p: int
    M: int
    band: tuple             # per-variable edge-band width
    window_hi: tuple        # per-variable top (for edge detection)
    window_lo: tuple
    two_sided: bool         # robba windows get bands at both ends
    slope: Fraction | None = None   # annulus slope; enables divergence checks


def _insert_sign(i: int, J: tuple) -> int:
    """dx_i wedged onto dx_J, reordered into sorted position."""
    return -1 if sum(1 for k in J if k < i) % 2 else 1


def _terms(matrix):
    """[(b, a, E, coeff)] for a connection matrix."""
    return [(b, a, E, c) for b, row in enumerate(matrix.rows)
            for a, s in enumerate(row) for E, c in s.terms]


def _shift_bound(terms, nvars: int) -> tuple:
    bound = [0] * nvars
    for _, _, E, _ in terms:
        for v in range(nvars):
            bound[v] = max(bound[v], abs(E[v]))
    return tuple(bound)


# -- the complex builder ---------------------------------------------------------

# Derivative actions, as (sign of the coefficient I_i, step of the exponent).
D_X = (1, -1)       # d/dx_i x^I = I_i x^(I - e_i)
D_INV = (-1, 1)     # the same in t_i = 1/x_i: -I_i t^(I + e_i)
D_LOG = (1, 0)      # t_i d/dt_i t^I = I_i t^I


def _box_layout(lo, hi, frame_lo, widths, strides, deglex):
    """A box's exponents in label order, their frame codes, and the map from
    frame code to exponent rank (-1 outside the box)."""
    exps = list(product(*(range(l, h + 1) for l, h in zip(lo, hi))))
    codes = [0]
    for l, h, f, s in zip(lo, hi, frame_lo, strides):
        codes = [c + (x - f) * s for c in codes for x in range(l, h + 1)]
    if deglex:
        # the order of groebner.deglex_key: total degree, then descending lex
        order = sorted(zip(map(sum, exps), range(len(exps), 0, -1),
                           exps, codes))
        exps = [t[2] for t in order]
        codes = [t[3] for t in order]
    where = [-1] * (strides[0] * widths[0])
    for r, c in enumerate(codes):
        where[c] = r
    return tuple(exps), codes, where


def _lands(E, exp_sign, src, dst) -> bool:
    """Whether some exponent of the src box moves by exp_sign * E into the
    dst box."""
    return all(max(sl + exp_sign * e, dl) <= min(sh + exp_sign * e, dh)
               for e, sl, sh, dl, dh in zip(E, *src, *dst))


def _assemble(ring, rank: int, boxes: list, acting: tuple, terms: dict,
              deriv: tuple, exp_sign: int, kill_below: bool,
              deglex: bool = True) -> tuple:
    """Chain spaces and differentials of nabla = d + sum Gamma_i dx_i.

    ``boxes[j]`` is the exponent box (lo, hi) of degree j; the forms of
    degree j are the j-subsets of the ``acting`` variables.  ``terms[i]``
    lists (b, a, E, c): a connection term of variable i sends component a
    at exponent I to component b at I + exp_sign * E with coefficient c.
    ``deriv`` is D_X, D_INV or D_LOG.  A target outside the box is dropped
    and its coefficient's value (plus slope times its degree) recorded as
    loss, except that with ``kill_below`` a target below the box in any
    variable is killed exactly.  Exponents run in deglex order, or in
    ``product`` order when ``deglex`` is false.

    Each map is emitted once as {(row, col): int mod p^N} with N = M + shift,
    shift undoing the most negative valuation among the terms that land.
    Entries, their insertion order, the scaling, the floor (least precision
    of an entry that vanished at precision) and the loss are those of
    summing PadicApprox entries and scaling them to integers afterwards.

    Returns (spaces, matrices, scalings, floors, loss).
    """
    p, M = ring.prime, ring.precision
    slope = Fraction(ring.slope or 0)
    coeff_sign, step = deriv
    n = len(boxes[0][0])
    all_terms = [t for ts in terms.values() for t in ts]
    # One mixed-radix frame holds every box, padded so that each target has
    # a cell.  A shift wider than the frame is clamped: its target is then
    # outside every box, on the same side.
    frame_lo, pad, widths = [], [], []
    for v in range(n):
        lo = min(b[0][v] for b in boxes)
        hi = max(b[1][v] for b in boxes)
        reach = max([abs(step) if v in acting else 0]
                    + [abs(E[v]) for _, _, E, _ in all_terms])
        pad.append(min(reach, hi - lo + 1))
        frame_lo.append(lo - pad[v])
        widths.append(hi - lo + 1 + 2 * pad[v])
    strides = [1] * n
    for v in range(n - 2, -1, -1):
        strides[v] = strides[v + 1] * widths[v + 1]

    def offset(E):
        return sum(max(-d, min(d, exp_sign * e)) * s
                   for e, d, s in zip(E, pad, strides))

    layouts = {}
    for box in boxes:
        if box not in layouts:
            layouts[box] = _box_layout(box[0], box[1], frame_lo, widths,
                                       strides, deglex)
    spaces = [ChainSpace(j, layouts[box][0], tuple(combinations(acting, j)),
                         rank) for j, box in enumerate(boxes)]

    matrices, scalings, floors, loss = [], [], [], None
    for j in range(len(boxes) - 1):
        src, dst = spaces[j], spaces[j + 1]
        codes = layouts[boxes[j]][1]
        where = layouts[boxes[j + 1]][2]
        dst_lo = boxes[j + 1][0]
        vals = [c.val for _, _, E, c in all_terms if c.val is not None
                and _lands(E, exp_sign, boxes[j], boxes[j + 1])]
        shift = max(0, -min(vals)) if vals else 0
        N = M + shift
        mod, ps = p ** N, p ** shift

        # per source form, per acting variable outside it: the derivative's
        # scaled sign, frame offset and row offset, then per source
        # component the connection terms with their integers and the term
        # (if any) that lands on the derivative's entry
        dst_form = {J: f for f, J in enumerate(dst.forms)}
        plan = []
        for J in src.forms:
            fplan = []
            for i in acting:
                if i in J:
                    continue
                sign = _insert_sign(i, J)
                roff = dst_form[tuple(sorted(J + (i,)))] * rank
                by_a = [[] for _ in range(rank)]
                merge = [None] * rank
                for b, a, E, c in terms.get(i, ()):
                    # a term whose valuation the shift does not cover never
                    # lands; a limited zero has no integer
                    cc = c if sign > 0 else c.neg()
                    x = None
                    if c.val is not None and c.val + shift >= 0:
                        x = cc.unit * p ** (c.val + shift) % mod
                    t = (offset(E), roff + b, x, cc, E)
                    by_a[a].append(t)
                    if b == a and all(exp_sign * e == (step if v == i else 0)
                                      for v, e in enumerate(E)):
                        merge[a] = t
                ds = sign * coeff_sign
                fplan.append((i, ds, ds * ps, step * strides[i], roff, by_a,
                              merge))
            plan.append(fplan)

        entries: dict = {}
        floor = None
        W2 = len(dst.forms) * rank
        col = 0
        for I, code in zip(src.exps, codes):
            for fplan in plan:
                for a in range(rank):
                    for i, ds, dk, doff, roff, by_a, merge in fplan:
                        skip = None
                        k = I[i]
                        if k:
                            r = where[code + doff]
                            if r >= 0:
                                t = merge[a]
                                key = (r * W2 + roff + a, col)
                                if t is None:
                                    x = dk * k % mod
                                    if x:
                                        entries[key] = x
                                else:
                                    # the sum truncates as PadicApprox
                                    # addition does; it may vanish there
                                    skip, c, x = t, t[3], t[2] or 0
                                    digits = min(c.abs_prec(), c.prec
                                                 + int_valuation(k, p))
                                    x = (ds * k * ps + x) % p ** min(
                                        digits + shift, N)
                                    if x:
                                        entries[key] = x
                                    else:
                                        floor = _loss_min(floor, digits)
                            else:   # above the box: dropped at value 0
                                loss = _loss_min(loss, Fraction(0))
                        for t in by_a[a]:
                            if t is skip:
                                continue
                            off, radd, x, c, E = t
                            r = where[code + off]
                            if r >= 0:
                                if x is None:
                                    floor = _loss_min(floor, c.prec)
                                else:
                                    entries[(r * W2 + radd, col)] = x
                                continue
                            I2 = [x + exp_sign * e for x, e in zip(I, E)]
                            killed = kill_below and any(
                                x < l for x, l in zip(I2, dst_lo))
                            if not killed and c.val is not None:
                                loss = _loss_min(loss, c.val + slope * sum(I2))
                    col += 1
        matrices.append(entries)
        scalings.append((N, shift))
        floors.append(floor)
    return spaces, matrices, scalings, floors, loss


def _tate_complex(module, name, low, deriv, exp_sign, kill_below):
    ring = module.ring
    if ring.is_robba():
        raise DescriptorMismatchError(f"{name} needs a tate/dagger module")
    n = len(ring.variables)
    his = tuple(hi for _, hi in ring.window)
    terms = {v: _terms(module.gamma(ring.variables[v])) for v in range(n)}
    band = tuple(1 + b for b in _shift_bound(
        [t for ts in terms.values() for t in ts], n))
    built = _assemble(ring, module.rank, [((low,) * n, his)] * (n + 1),
                      tuple(range(n)), terms, deriv, exp_sign, kill_below)
    return ComplexData(*built, ring.prime, ring.precision, band, his,
                       (low,) * n, False, Fraction(0))


def mw_complex(module: SigmaNablaModule) -> ComplexData:
    """The de Rham complex of a module over a Tate/dagger window, dx gauge."""
    return _tate_complex(module, "mw_complex", 0, D_X, 1, False)


def compact_complex(module: SigmaNablaModule) -> ComplexData:
    """The strictly-positive quotient complex computing compact supports of
    affine n-space for a module over the Tate window, written in inverted
    coordinates: the coordinate derivative acts by t^I -> -I_i t^(I+e_i) and
    connection entries act through negated exponents.  Exponents leaving the
    strictly positive region are killed by the quotient (exactly), exponents
    above the window top are tracked loss."""
    return _tate_complex(module, "compact_complex", 1, D_INV, -1, True)


def local_complex(module: SigmaNablaModule) -> ComplexData:
    """D = t d/dt + N on a one-variable Robba window (dlog gauge): the two
    terms of the local complex share the same label set."""
    ring = module.ring
    if not ring.is_robba() or len(ring.variables) != 1:
        raise DescriptorMismatchError("local_complex needs a one-variable robba module")
    lo, hi = ring.window[0]
    terms = _terms(module.connection)
    shifts = _shift_bound(terms, 1)
    band = (0,) if shifts == (0,) else (1 + shifts[0],)
    built = _assemble(ring, module.rank, [((lo,), (hi,))] * 2, (0,),
                      {0: terms}, D_LOG, 1, False)
    return ComplexData(*built, ring.prime, ring.precision, band, (hi,),
                       (lo,), True, ring.slope)


# -- the engine -----------------------------------------------------------------

@dataclass
class ComplexCohomology:
    report: CohomologyReport
    cdata: ComplexData
    snfs: list              # SnfResult per map, at the map's scaling


def _edge_supported(vec: dict, space: ChainSpace, cdata: ComplexData) -> bool:
    """True when every term of the vector sits within the band of the window
    edge in some variable: a window artifact, not a certified class."""
    if all(b == 0 for b in cdata.band):
        return False
    for idx in vec:
        a, J, I = space.label(idx)
        near = False
        for v, x in enumerate(I):
            if x > cdata.window_hi[v] - cdata.band[v]:
                near = True
            if cdata.two_sided and x < cdata.window_lo[v] + cdata.band[v]:
                near = True
        if not near:
            return False
    return True


def _slope_edge_limited(vec: dict, space: ChainSpace, cdata: ComplexData,
                        p: int) -> bool:
    """Divergence suspect on an annulus window: every slope-minimizing term
    of the representative sits at a window edge, so the trend says the
    defining series keeps losing value beyond the cut."""
    if cdata.slope is None:
        return False
    best, argmin = None, []
    for idx in sorted(vec):
        x = vec[idx]
        _, _, I = space.label(idx)
        key = (Fraction(int_valuation(x, p))
               + sum(Fraction(cdata.slope) * e for e in I))
        if best is None or key < best:
            best, argmin = key, [I]
        elif key == best:
            argmin.append(I)
    if not argmin:
        return False

    def at_edge(I):
        for e, lo, hi in zip(I, cdata.window_lo, cdata.window_hi):
            if e == hi:
                return True
            if cdata.two_sided and e == lo:
                return True
        return False

    return all(at_edge(I) for I in argmin)


def _int_vec_to_chain(vec: dict, space: ChainSpace, p: int, N: int,
                      shift: int, M: int) -> ChainVector:
    data = {}
    for idx, x in vec.items():
        x %= p ** N
        if not x:
            continue
        v = int_valuation(x, p)
        x //= p ** v
        val = v - shift
        prec = min(N - v, M - val) if M - val > 0 else N - v
        prec = max(prec, 1)
        data[space.label(idx)] = PadicApprox(p, x % p ** prec, val, prec)
    return ChainVector(space, data)


def complex_cohomology(cdata: ComplexData, label: str,
                       want_generators: bool = True) -> ComplexCohomology:
    p, M = cdata.p, cdata.M
    scalings = cdata.scalings
    snfs = [sparse_snf(cdata.spaces[j + 1].dim, cdata.spaces[j].dim,
                       cdata.matrices[j], p, scalings[j][0])
            for j in range(len(cdata.matrices))]

    degrees = {}
    gap = min((s.certification_gap() - sc[1] for s, sc in zip(snfs, scalings)),
              default=M)
    top = len(cdata.spaces) - 1
    for j, space in enumerate(cdata.spaces):
        rank_out = snfs[j].rank() if j < top else 0
        rank_in = snfs[j - 1].rank() if j >= 1 else 0
        raw = space.dim - rank_out - rank_in
        gens, excluded = (), 0
        if want_generators and raw > 0:
            vecs, sidx = _extract_generators(cdata, snfs, j, raw)
            N, shift = scalings[sidx] if scalings else (M, 0)
            kept = []
            for v in vecs:
                if _edge_supported(v, space, cdata) or \
                        _slope_edge_limited(v, space, cdata, p):
                    excluded += 1
                else:
                    kept.append(_int_vec_to_chain(v, space, p, N, shift, M))
            gens = tuple(kept)
        degrees[j] = DegreeData(raw - excluded, gens, raw, excluded)
    report = CohomologyReport(label, degrees, gap, cdata.loss)
    return ComplexCohomology(report, cdata, snfs)


def _extract_generators(cdata: ComplexData, snfs, j: int, count: int):
    """Representatives of ker(d_j)/im(d_(j-1)) as sparse integer vectors,
    plus the index of the scaling they are expressed under."""
    top = len(cdata.spaces) - 1
    dim_j = cdata.spaces[j].dim
    if j >= 1 and snfs[j - 1].rank() > 0:
        prev = snfs[j - 1]
        uinv_rows = prev.materialize_Uinv()
        # columns of Uinv at non-pivot coordinates span the quotient
        pivot_rows = {r for r, _, e in prev.pivots if e < prev.N}
        nonpivot = [r for r in range(dim_j) if r not in pivot_rows]
        uinv_cols: dict[int, dict[int, int]] = {}
        for r in range(dim_j):
            row = uinv_rows.get(r, {r: 1})
            for c, x in row.items():
                if x:
                    uinv_cols.setdefault(c, {})[r] = x
        if j < top:
            # induced map on the quotient: d_j composed with Uinv columns
            N2 = cdata.scalings[j][0]
            by_col: dict[int, dict[int, int]] = {}
            for (r, c), x in cdata.matrices[j].items():
                by_col.setdefault(c, {})[r] = x
            mod2 = cdata.p ** N2
            bent = {}
            for qi, q in enumerate(nonpivot):
                for mid, xm in uinv_cols.get(q, {q: 1}).items():
                    for r, x in by_col.get(mid, {}).items():
                        key = (r, qi)
                        bent[key] = (bent.get(key, 0) + x * xm) % mod2
            bent = {k: v for k, v in bent.items() if v}
            bsnf = sparse_snf(cdata.spaces[j + 1].dim, len(nonpivot),
                              bent, cdata.p, N2)
            out = []
            for k in bsnf.kernel_basis()[: count]:
                vec: dict[int, int] = {}
                for qi, x in k.items():
                    for r, y in uinv_cols.get(nonpivot[qi], {nonpivot[qi]: 1}).items():
                        vec[r] = vec.get(r, 0) + x * y
                out.append({r: v for r, v in vec.items() if v})
            return out, j - 1
        # top degree: the quotient itself is the cohomology
        return [uinv_cols.get(q, {q: 1}) for q in nonpivot][: count], j - 1
    # no incoming boundaries: kernel of the outgoing map (or everything)
    if j < top:
        return snfs[j].kernel_basis()[: count], j
    return [{i: 1} for i in range(dim_j)][: count], max(j - 1, 0)


# -- public operations -----------------------------------------------------------

def mw_cohomology(module: SigmaNablaModule) -> ComplexCohomology:
    """Kernels and cokernels of the truncated de Rham complex over the Tate
    window, with certified ranks and edge-artifact exclusion."""
    return complex_cohomology(mw_complex(module), "mw-cohomology")


def compact_support_cohomology(module: SigmaNablaModule) -> ComplexCohomology:
    """H^(n+j)_c of affine n-space with coefficients in the module: the j-th
    cohomology of the strictly-positive quotient complex."""
    cc = complex_cohomology(compact_complex(module), "compact-supports")
    n = len(module.ring.variables)
    shifted = {n + j: dd for j, dd in cc.report.degrees.items()}
    rep = CohomologyReport(cc.report.label, shifted, cc.report.precision_gap,
                           cc.report.truncation, cc.report.notes)
    return ComplexCohomology(rep, cc.cdata, cc.snfs)


def local_cohomology(module: SigmaNablaModule) -> ComplexCohomology:
    """H^0/H^1 of D on a one-variable Robba window."""
    return complex_cohomology(local_complex(module), "local-cohomology")


# -- the dlog-diagonal twisted family ---------------------------------------------

@dataclass(frozen=True)
class TwistedReport:
    dims: dict
    zero_modes: tuple
    worst_unit_valuation: int


def twisted_diagonal_cohomology(a: Fraction, n: int, window_hi: int,
                                p: int, M: int,
                                strictly_positive: bool) -> TwistedReport:
    """Diagonal model for the rank-one dlog twist by a on affine n-space.

    In the dlog form basis the differential is mode-by-mode multiplication by
    I_i + a, so cohomology is carried by modes where every factor vanishes:
    each such mode contributes a full exterior algebra.  The compact-supports
    side runs over strictly positive modes.  This doubles as the independent
    oracle for the windowed engines on the twist family."""
    from math import comb

    a = Fraction(a)
    dims = {j: 0 for j in range(n + 1)}
    zero_modes = []
    worst = 0
    lo = 1 if strictly_positive else 0
    for I in product(*(range(lo, window_hi + 1) for _ in range(n))):
        lam = [Fraction(I[i]) + a for i in range(n)]
        if any(l != 0 for l in lam):
            for l in lam:
                if l != 0:
                    worst = max(worst, int_valuation(l.numerator, p)
                                - int_valuation(l.denominator, p))
            continue
        zero_modes.append(I)
        for j in range(n + 1):
            dims[j] += comb(n, j)
    return TwistedReport(dims, tuple(zero_modes), worst)
