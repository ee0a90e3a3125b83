"""Windowed de Rham complexes and their certified cohomology.

One builder, ``_assemble``, makes every complex the engine reduces.  It lays
out the labels (a, J, I) of each degree in one order, exponents in deglex
(total degree, then descending lex), and emits each differential once, as
integers mod p^N with its scaling (N, shift), together with the window edge
data that artifact detection reads.  Each cell emits the derivative's entry,
from a table k -> integer into which a connection term on the same entry
(t d/dt + c in the dlog gauge) is folded, then its other terms.  A map is
held as ``linalg.Entries``: parallel row, column and value lists, column by
column, the form ``sparse_snf`` takes.  The builder's callers differ only
in the exponent box of each degree, the derivative action and what happens
at the box edge:

* ``mw_complex``       - a module over a Tate/dagger window, dx gauge;
* ``compact_complex``  - the quotient complex on strictly positive annulus
                         exponents computing compact supports of affine space
                         (written in inverted coordinates, dx gauge);
* ``local_complex``    - the dlog operator D on a one-variable Robba window;
* ``quotient_complex`` - the local complex of the annulus modulo the line
                         side, in pushforward bundles.

``complex_cohomology`` reads dimensions off p-adic Smith normal form ranks
in three passes:

* reduce (``_reduce``): each map once, rank-only unless some degree surely
  has a class, map 0 and the top map mod the largest p^K that fits one
  machine digit, the top map also without the columns the map below pairs
  off with a unit pivot; a cut result that falls short is replaced by the
  map reduced tracked, in full, mod p^N.  The ranks give raw dimensions,
  the pivots' distance to the ceiling the gap;
* extract (``_extract_generators``): the generators of a degree j with raw
  classes, from a tracked reduction.  With incoming boundaries they are the
  free rows of d_(j-1), whose unit vectors U^-1 fixes and which span the
  quotient by the image up to torsion, cut down to the kernel of d_j; no
  transform is materialized.  Only kernels are read through a transform,
  so the row log is never kept, and the column log only for map 0, a map
  whose map below has rank 0 (``_kernel_read``) and the restricted map;
* certify: hard windows create boundary artifacts (classes that exist only
  because the window cut the complex), so a generator is excluded when a
  rule of ``RULES`` flags it: its support hugs the window edge within the
  operator's shift reach, or its slope minimum sits at the edge.  Certified
  dimensions exclude those classes; raw counts and the exclusion tally stay
  in the report.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, product
from typing import NamedTuple

from .errors import DescriptorMismatchError
from .linalg import Entries, digit_precision, sparse_snf
from .modules import SigmaNablaModule
from .padics import from_residue, int_valuation, integral_shift
from .series import _lowest

Label = tuple  # (component, forms J as sorted tuple of var indices, exponent I)


class ChainSpace:
    """Labels (a, J, I) ordered by exponent I (in the order of ``exps``),
    then by form J (in combinations order), then by component a.  Its three
    fields are frozen; the cached properties fill the instance dict."""

    def __init__(self, exps: tuple, forms: tuple, rank: int):
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError(f"ChainSpace is frozen: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ChainSpace is frozen: cannot delete {name!r}")

    def __repr__(self):
        return (f"ChainSpace(exps={self.exps!r}, forms={self.forms!r}, "
                f"rank={self.rank!r})")

    def __eq__(self, other):
        if other.__class__ is not ChainSpace:
            return NotImplemented
        return (self.exps, self.forms, self.rank) == (other.exps, other.forms,
                                                      other.rank)

    def __hash__(self):
        return hash((self.exps, self.forms, self.rank))

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


class ChainVector(NamedTuple):
    """Sparse vector in a chain space: label -> PadicApprox."""
    space: ChainSpace
    data: dict

    def records(self):
        return tuple((l, self.data[l].serialize())
                     for l in sorted(self.data, key=self.space.index))


class ComplexData:
    """A truncated complex as ``sparse_snf`` reads it, with the window data
    that edge exclusion needs."""
    __slots__ = ("spaces", "matrices", "scalings", "floors", "loss", "p", "M",
                 "band", "window_hi", "window_lo", "two_sided", "slope")

    def __init__(self, spaces: list, matrices: list, scalings: list,
                 floors: list, loss: Fraction | None, p: int, M: int,
                 band: tuple, window_hi: tuple, window_lo: tuple,
                 two_sided: bool, slope: Fraction):
        self.spaces = spaces  # ChainSpace per degree
        self.matrices = matrices  # per map: Entries of ints mod p^N, by column
        self.scalings = scalings  # per map (N, shift): entry = value * p^shift
        self.floors = floors  # per map: least precision of a vanished entry
        self.loss = loss  # least value of the terms the window dropped
        self.p = p
        self.M = M
        self.band = band  # per-variable edge-band width
        self.window_hi = window_hi  # per-variable top (for edge detection)
        self.window_lo = window_lo
        self.two_sided = two_sided  # robba windows get bands at both ends
        self.slope = slope  # annulus slope (0 off the robba kinds)

    def column(self, j: int, c: int) -> list:
        """Column c of map j as (row, int) pairs in stored order: a slice of
        the stored lists, whose column indices never decrease."""
        m = self.matrices[j]
        lo, hi = bisect_left(m.cols, c), bisect_right(m.cols, c)
        return list(zip(m.rows[lo:hi], m.vals[lo:hi]))


def _shuffle_sign(J: tuple, Jp: tuple) -> int:
    """Sign of dx_J wedge dx_Jp against the full ordered top form."""
    inversions = sum(1 for a in J for b in Jp if a > b)
    return -1 if inversions % 2 else 1


def _terms(matrix):
    """[(b, a, E, coeff)] for a connection matrix."""
    return [(b, a, E, c) for b, row in enumerate(matrix.rows)
            for a, s in enumerate(row) for E, c in s.terms]


# -- the complex builder ---------------------------------------------------------

# Derivative actions, as (sign of the coefficient I_i, step of the exponent).
D_X = (1, -1)       # d/dx_i x^I = I_i x^(I - e_i)
D_INV = (-1, 1)     # the same in t_i = 1/x_i: -I_i t^(I + e_i)
D_LOG = (1, 0)      # t_i d/dt_i t^I = I_i t^I


def _box_layout(lo, hi, frame_lo, widths, strides):
    """A box's exponents in label order, their frame codes, and the map from
    frame code to exponent rank (-1 outside the box)."""
    exps = list(product(*(range(l, h + 1) for l, h in zip(lo, hi))))
    codes = [0]
    for l, h, f, s in zip(lo, hi, frame_lo, strides):
        codes = [c + (x - f) * s for c in codes for x in range(l, h + 1)]
    # the order of groebner.deglex_key: total degree, then descending lex,
    # the reverse of product's order, which a stable sort keeps on a tie
    degree = list(map(sum, exps))
    order = sorted(range(len(exps) - 1, -1, -1), key=degree.__getitem__)
    exps = [exps[k] for k in order]
    codes = [codes[k] for k in order]
    where = [-1] * (strides[0] * widths[0])
    for r, c in enumerate(codes):
        where[c] = r
    return tuple(exps), codes, where


def _loss_min(a, b):
    """The least of two values, None being +infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _lands(E, exp_sign, src, dst) -> bool:
    """Whether some exponent of the src box moves by exp_sign * E into the
    dst box."""
    return all(max(sl + exp_sign * e, dl) <= min(sh + exp_sign * e, dh)
               for e, sl, sh, dl, dh in zip(E, *src, *dst))


def _assemble(ring, rank: int, boxes: list, acting: tuple, terms: dict,
              deriv: tuple, kill_below: bool) -> ComplexData:
    """Chain spaces and differentials of nabla = d + sum Gamma_i dx_i.

    ``boxes[j]`` is the exponent box (lo, hi) of degree j; the forms of
    degree j are the j-subsets of the ``acting`` variables.  ``terms[i]``
    lists (b, a, E, c): a connection term of variable i sends component a
    at exponent I to component b at I + exp_sign * E with coefficient c.
    ``deriv`` is D_X, D_INV or D_LOG, and exp_sign is its coefficient sign:
    inverted coordinates negate both the derivative's coefficient and the
    exponents of the connection terms.  A target outside the box is dropped
    and its coefficient's value (plus slope times its degree) recorded as
    loss, except that with ``kill_below`` a target below the box in any
    variable is killed exactly; a derivative target outside the box is
    dropped at value 0.  Exponents run in deglex order, so the total degree
    never falls from one cell to the next, and slopes are >= 0: each
    connection term's loss is therefore taken once per map, at the first
    cell it drops from, which gives its least value.

    Each map is emitted once, as ``Entries`` of ints mod p^N with N = M +
    shift, shift the ``integral_shift`` of the terms that land.  Entries go
    column by column, columns in increasing order; no (row, col) pair
    repeats and no value is zero.  Each map's emission plan is built once,
    as one list per (source form J, component a) in label order, so a cell
    (a, J, I) reads only its own list: one item per acting variable i
    outside J, holding the derivative's frame offset, its row base within a
    target exponent, its table and floor digits, and component a's
    connection terms.  An item emits the derivative's entry, then its
    connection terms in order.  The derivative's entry is read from a table
    k -> dk * k mod p^N per (form, variable, component), dk = ±p^shift.
    A connection term that lands on that entry (only t d/dt + c does) is
    folded in: k -> (dk * k + c p^shift) mod p^min(abs_prec(c) + shift, N),
    the digits PadicApprox addition keeps for a sum whose k is exact, and a
    vanished entry records abs_prec(c) as the floor.  The entries, the
    scaling, the floor (least precision of an entry that vanished at
    precision) and the loss are those of summing PadicApprox entries and
    scaling them to integers afterwards.

    The edge data come from the same inputs: the window is the hull of the
    boxes; the band is one past the largest connection shift in each
    variable, or nothing when neither the derivative nor a connection term
    moves an exponent; robba windows have two edges unless the quotient
    kills the lower one.
    """
    p, M = ring.prime, ring.precision
    slope = ring.weight
    coeff_sign, step = deriv
    exp_sign = coeff_sign
    n = len(boxes[0][0])
    all_terms = [t for ts in terms.values() for t in ts]
    # One mixed-radix frame holds every box, padded so that each target has
    # a cell.  A shift wider than the frame is clamped: its target is then
    # outside every box, on the same side.
    window_lo = tuple(min(b[0][v] for b in boxes) for v in range(n))
    window_hi = tuple(max(b[1][v] for b in boxes) for v in range(n))
    bound = [max([0] + [abs(E[v]) for _, _, E, _ in all_terms])
             for v in range(n)]
    frame_lo, pad, widths = [], [], []
    for v, (lo, hi) in enumerate(zip(window_lo, window_hi)):
        reach = max(abs(step) if v in acting else 0, bound[v])
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
                                       strides)
    spaces = [ChainSpace(layouts[box][0], tuple(combinations(acting, j)),
                         rank) for j, box in enumerate(boxes)]

    matrices, scalings, floors, loss = [], [], [], None
    for j in range(len(boxes) - 1):
        src, dst = spaces[j], spaces[j + 1]
        codes = layouts[boxes[j]][1]
        where = layouts[boxes[j + 1]][2]
        dst_lo = boxes[j + 1][0]
        shift = integral_shift(c for _, _, E, c in all_terms
                               if _lands(E, exp_sign, boxes[j], boxes[j + 1]))
        N = M + shift
        mod, ps = p ** N, p ** shift

        # per source form J and component a, in the order of the labels, one
        # item per acting variable i outside J: the frame offset of the
        # derivative's target, its row base within a target exponent, the
        # table k -> integer of its entry, the floor a vanished entry
        # records, and component a's other connection terms with their
        # integers
        dst_form = {J: f for f, J in enumerate(dst.forms)}
        plan = []
        unrecorded = []     # per connection term: its loss is still open
        for J in src.forms:
            fplan = []
            for i in acting:
                if i in J:
                    continue
                sign = _shuffle_sign((i,), J)
                roff = dst_form[tuple(sorted(J + (i,)))] * rank
                dk = sign * coeff_sign * ps
                lo, hi = boxes[j][0][i], boxes[j][1][i]
                tabs = [({k: dk * k % mod for k in range(lo, hi + 1)},
                         None)] * rank
                by_a = [[] for _ in range(rank)]
                for b, a, E, c in terms.get(i, ()):
                    cc = c if sign > 0 else c.neg()
                    if b == a and all(exp_sign * e == (step if v == i else 0)
                                      for v, e in enumerate(E)):
                        # lands on the derivative's entry: the sum keeps
                        # the digits PadicApprox addition gives it, k exact
                        digits = c.abs_prec()
                        x = cc.residue(N, shift)
                        m = p ** min(digits + shift, N)
                        tabs[a] = ({k: (dk * k + x) % m
                                    for k in range(lo, hi + 1)}, digits)
                        continue
                    # a term whose valuation the shift does not cover never
                    # lands; a limited zero has no integer
                    x = None
                    if c.val is not None and c.val + shift >= 0:
                        x = cc.residue(N, shift)
                    by_a[a].append((offset(E), roff + b, x, cc, E,
                                    len(unrecorded)))
                    unrecorded.append(c.val is not None)
                fplan.append((i, step * strides[i], roff, tabs, by_a))
            plan += [[(i, doff, roff + a, *tabs[a], by_a[a])
                      for i, doff, roff, tabs, by_a in fplan]
                     for a in range(rank)]

        rows, cols, vals = [], [], []
        add_row, add_col, add_val = rows.append, cols.append, vals.append
        floor = None
        above = False       # a derivative target left the box
        W2 = len(dst.forms) * rank
        col = 0
        for I, code in zip(src.exps, codes):
            for items in plan:
                for i, doff, rbase, tab, digits, conn in items:
                    r = where[code + doff]
                    if r >= 0:
                        x = tab[I[i]]
                        if x:
                            add_row(r * W2 + rbase)
                            add_col(col)
                            add_val(x)
                        elif digits is not None:
                            floor = _loss_min(floor, digits)
                    elif I[i]:  # above the box: dropped at value 0
                        above = True
                    for off, radd, x, c, E, tk in conn:
                        r = where[code + off]
                        if r >= 0:
                            if x is None:
                                floor = _loss_min(floor, c.prec)
                            else:
                                add_row(r * W2 + radd)
                                add_col(col)
                                add_val(x)
                        elif unrecorded[tk]:
                            I2 = [x + exp_sign * e for x, e in zip(I, E)]
                            if not (kill_below and any(
                                    x < l for x, l in zip(I2, dst_lo))):
                                loss = _loss_min(
                                    loss, c.val + slope * sum(I2))
                                unrecorded[tk] = False
                col += 1
        if above:
            loss = _loss_min(loss, Fraction(0))
        matrices.append(Entries(rows, cols, vals))
        scalings.append((N, shift))
        floors.append(floor)
    band = (0,) * n if step == 0 and not any(bound) else \
        tuple(1 + b for b in bound)
    two_sided = ring.is_robba() and not kill_below
    return ComplexData(spaces, matrices, scalings, floors, loss, p, M, band,
                       window_hi, window_lo, two_sided, slope)


def _tate_complex(module, compact: bool):
    name, low, deriv = ("compact_complex", 1, D_INV) if compact else \
        ("mw_complex", 0, D_X)
    ring = module.ring
    if ring.is_robba():
        raise DescriptorMismatchError(f"{name} needs a tate/dagger module")
    n = len(ring.variables)
    his = tuple(hi for _, hi in ring.window)
    terms = {v: _terms(module.gamma(ring.variables[v])) for v in range(n)}
    return _assemble(ring, module.rank, [((low,) * n, his)] * (n + 1),
                     tuple(range(n)), terms, deriv, compact)


def mw_complex(module: SigmaNablaModule) -> ComplexData:
    """The de Rham complex of a module over a Tate/dagger window, dx gauge.
    Both kinds assemble this same complex, so its certified dims are claims
    about the weakly complete (dagger) algebra, not the Tate algebra."""
    return _tate_complex(module, False)


def compact_complex(module: SigmaNablaModule) -> ComplexData:
    """The strictly-positive quotient complex computing compact supports of
    affine n-space for a module over the Tate window, written in inverted
    coordinates: the coordinate derivative acts by t^I -> -I_i t^(I+e_i) and
    connection entries act through negated exponents.  Exponents leaving the
    strictly positive region are killed by the quotient (exactly), exponents
    above the window top are tracked loss."""
    return _tate_complex(module, True)


def local_complex(module: SigmaNablaModule) -> ComplexData:
    """D = t d/dt + N on a one-variable Robba window (dlog gauge): the two
    terms of the local complex share the same label set."""
    ring = module.ring
    if not ring.is_robba() or len(ring.variables) != 1:
        raise DescriptorMismatchError("local_complex needs a one-variable robba module")
    lo, hi = ring.window[0]
    return _assemble(ring, module.rank, [((lo,), (hi,))] * 2, (0,),
                     {0: _terms(module.connection)}, D_LOG, False)


def quotient_complex(loc_module: SigmaNablaModule) -> ComplexData:
    """The induced map on (annulus)/(line side): source on strictly positive
    exponents, target on nonnegative dlog exponents; components falling to
    the line side are killed by the quotient (exactly)."""
    hi = loc_module.ring.window[0][1]
    return _assemble(loc_module.ring, loc_module.rank,
                     [((1,), (hi,)), ((0,), (hi,))], (0,),
                     {0: _terms(loc_module.connection)}, D_LOG, True)


# -- the engine -----------------------------------------------------------------

class DegreeData(NamedTuple):
    generators: tuple        # engine-specific representatives
    raw_dim: int             # before window-artifact exclusion
    edge_excluded: int = 0   # classes whose every representative hugs the edge

    @property
    def dim(self) -> int:
        """The certified dimension."""
        return self.raw_dim - self.edge_excluded


class CohomologyReport(NamedTuple):
    degrees: dict            # degree -> DegreeData
    precision_gap: int       # distance of the largest divisor to the ceiling
    truncation: Fraction | None = None

    def dims(self) -> dict:
        return {d: dd.dim for d, dd in sorted(self.degrees.items())}

    def generators(self, degree: int):
        dd = self.degrees.get(degree)
        return dd.generators if dd else ()


class ComplexCohomology:
    """The report of a complex together with the complex it was read from."""
    __slots__ = ("report", "cdata")

    def __init__(self, report: CohomologyReport, cdata: ComplexData):
        self.report, self.cdata = report, cdata


def _has_structural_class(cdata: ComplexData) -> bool:
    """Whether some degree has a class whatever the entries' values: its
    dimension exceeds the nonzero columns of the outgoing map plus the
    nonzero rows of the incoming map, which bound the two ranks."""
    maps = cdata.matrices
    for j, space in enumerate(cdata.spaces):
        cols = len(set(maps[j].cols)) if j < len(maps) else 0
        rows = len(set(maps[j - 1].rows)) if j >= 1 else 0
        if space.dim > cols + rows:
            return True
    return False


def _paired_columns(below) -> set:
    """The cells a reduced map pairs off with a unit pivot: its level-0
    pivot rows, which are columns of the map above it."""
    return {r for r, _, e in below.pivots if e == 0}


def _kernel_read(snfs, j: int) -> bool:
    """Whether map j's kernel can be read for degree j's generators: j is 0
    or the map below has rank 0, the source rule of
    ``_extract_generators``.  A tracked run of map j keeps its column log
    only then."""
    return j == 0 or snfs[j - 1].rank() == 0


def _reduce(cdata: ComplexData):
    """The SNF of every map and the certification gap of the complex.

    When some degree certainly has a class (``_has_structural_class``), every
    map is reduced tracked, in full, mod p^N.  Otherwise map j is reduced
    once, rank-only, with what can be cut from it: map 0 and the top map go
    mod p^K, K the ``digit_precision`` of their N, and the top map drops the
    columns the map below pairs off (``_paired_columns``) when the rest still
    meet as many rows and columns as it has rows.  Mod p^K the divisors are
    min(e_i, K), so a cut result with a pivot in every row or every column
    has the pivot levels and ranks of the map mod p^N, and stands, its gap
    read N - K above its own; a pruned one also needs a gap term no lower
    than the maps' below, as the full map's cokernel is then a quotient of
    the pruned one's of the same rank at a max pivot level no higher.  A
    cut result that does not stand is replaced by the map reduced tracked,
    in full, mod p^N; an uncut one is exact.  A tracked run keeps the
    column log when ``_kernel_read`` says the map's kernel can be read, and
    no log otherwise."""
    p = cdata.p
    tracked = _has_structural_class(cdata)
    last = len(cdata.matrices) - 1
    snfs, gaps = [], []
    for j, whole in enumerate(cdata.matrices):
        N, shift = cdata.scalings[j]
        logs = "V" if _kernel_read(snfs, j) else ""
        entries, K, pruned = whole, N, False
        if not tracked and j in (0, last):
            K = digit_precision(p, N)
            if j:       # the top map, with a map below it
                paired = _paired_columns(snfs[-1])
                keep = [c not in paired for c in whole.cols]
                cut = Entries(list(compress(whole.rows, keep)),
                              list(compress(whole.cols, keep)),
                              list(compress(whole.vals, keep)))
                pruned = len(cut) < len(whole) and cdata.spaces[-1].dim \
                    <= min(len(set(cut.rows)), len(set(cut.cols)))
                entries = cut if pruned else whole
        res = sparse_snf(cdata.spaces[j + 1].dim, cdata.spaces[j].dim,
                         entries, p, K, logs=logs if tracked else None)
        if (K < N or pruned) and (
                len(res.pivots) < min(res.nrows, res.ncols) or pruned
                and res.certification_gap() + N - K - shift < min(gaps)):
            res = sparse_snf(res.nrows, res.ncols, whole, p, N, logs=logs)
        snfs.append(res)
        gaps.append(res.certification_gap() + N - res.N - shift)
    return snfs, min(gaps)


def _near_edge(I: tuple, cdata: ComplexData, band: tuple) -> bool:
    """True when the exponent sits within ``band`` (per variable) of the
    window top, or of its bottom on a two-sided window."""
    return any(x > hi - b or (cdata.two_sided and x < lo + b)
               for x, lo, hi, b in zip(I, cdata.window_lo, cdata.window_hi,
                                       band))


def _edge_supported(vec: dict, space: ChainSpace, cdata: ComplexData) -> bool:
    """True when every term of the vector sits within the band of the window
    edge in some variable: a window artifact, not a certified class."""
    return all(_near_edge(space.label(idx)[2], cdata, cdata.band)
               for idx in vec)


def _slope_edge_limited(vec: dict, space: ChainSpace,
                        cdata: ComplexData) -> bool:
    """Divergence suspect on an annulus window: every slope-minimizing term
    of the representative sits at a window edge, so the trend says the
    defining series keeps losing value beyond the cut.  Every exponent lies
    inside the window, so band 1 means on the edge itself."""
    _, argmin = _lowest(((space.label(idx)[2], int_valuation(x, cdata.p))
                         for idx, x in vec.items()), cdata.slope)
    return all(_near_edge(I, cdata, (1,) * len(I)) for I in argmin)


# The rules that exclude a class as a window artifact, in the order tried.
RULES = (_edge_supported, _slope_edge_limited)


def _extract_generators(cdata: ComplexData, snfs, j: int, count: int):
    """Representatives of ker(d_j)/im(d_(j-1)) as sparse integer vectors,
    plus the scaling (N, shift) they are expressed under.

    They are read from the kernel of the outgoing map when
    ``_kernel_read`` says so and j is below the top degree, else from the
    incoming map.  A rank-only result of the map read from is replaced in
    ``snfs`` by the map reduced tracked, in full, mod p^N.

    With incoming boundaries, the quotient is spanned by the columns of
    U^-1 (from U d_(j-1) V = D) at the free rows of d_(j-1).  Every logged
    row op has a pivot row as its source, so U^-1 fixes the unit vector of
    each free row: those columns are the unit vectors e_q themselves.  The
    induced map on the quotient is then d_j restricted to the free rows'
    columns, and its kernel vectors are read back coordinate by
    coordinate.  ``_assemble`` stores every map column by column, in
    increasing column order, so one keep-mask over d_j's entries hands those
    columns to ``sparse_snf`` in column order, each column's entries in
    their stored order.  Only the kernels are read through a transform, so
    every SNF here keeps the column log alone, or no log."""
    top = len(cdata.spaces) - 1
    src = j if j < top and _kernel_read(snfs, j) else j - 1
    res = snfs[src]
    if res.logs is None:
        res = snfs[src] = sparse_snf(res.nrows, res.ncols,
                                     cdata.matrices[src], cdata.p,
                                     cdata.scalings[src][0],
                                     logs="V" if src == j else "")
    if src == j:
        return res.kernel_basis()[: count], cdata.scalings[j]
    if j == top:
        # top degree: the quotient itself is the cohomology
        return res.coker_reps()[: count], cdata.scalings[src]
    free = res.free_rows
    qis = {q: qi for qi, q in enumerate(free)}
    dj = cdata.matrices[j]
    keep = [q in qis for q in dj.cols]
    bent = Entries(list(compress(dj.rows, keep)),
                   [qis[q] for q in compress(dj.cols, keep)],
                   list(compress(dj.vals, keep)))
    bsnf = sparse_snf(cdata.spaces[j + 1].dim, len(free), bent, cdata.p,
                      cdata.scalings[j][0], logs="V")
    return [{free[qi]: x for qi, x in k.items()}
            for k in bsnf.kernel_basis()[: count]], cdata.scalings[src]


def _int_vec_to_chain(vec: dict, space: ChainSpace, cdata: ComplexData,
                      N: int, shift: int) -> ChainVector:
    data = {}
    for idx, x in vec.items():
        c = from_residue(x, cdata.p, N, shift, cdata.M)
        if c.val is not None:
            data[space.label(idx)] = c
    return ChainVector(space, data)


def complex_cohomology(cdata: ComplexData) -> ComplexCohomology:
    """Certified dimensions, with generators read from tracked SNFs: the maps
    are reduced (``_reduce``), then each degree with raw classes has its
    generators extracted (``_extract_generators``), and a generator that
    some rule of ``RULES`` flags is excluded.  Every SNF of the complex runs
    inside this call, in that order."""
    snfs, gap = _reduce(cdata)
    degrees = {}
    for j, space in enumerate(cdata.spaces):
        raw = space.dim - sum(snfs[k].rank() for k in (j - 1, j)
                              if 0 <= k < len(snfs))
        gens, excluded = (), 0
        if raw > 0:
            vecs, (N, shift) = _extract_generators(cdata, snfs, j, raw)
            kept = [v for v in vecs
                    if not any(rule(v, space, cdata) for rule in RULES)]
            excluded = len(vecs) - len(kept)
            gens = tuple(_int_vec_to_chain(v, space, cdata, N, shift)
                         for v in kept)
        degrees[j] = DegreeData(gens, raw, excluded)
    report = CohomologyReport(degrees, gap, cdata.loss)
    return ComplexCohomology(report, cdata)


# -- public operations -----------------------------------------------------------

def mw_cohomology(module: SigmaNablaModule) -> ComplexCohomology:
    """Kernels and cokernels of the truncated de Rham complex over the Tate
    window, with certified ranks and edge-artifact exclusion."""
    return complex_cohomology(mw_complex(module))


def compact_support_cohomology(module: SigmaNablaModule) -> ComplexCohomology:
    """H^(n+j)_c of affine n-space with coefficients in the module: the j-th
    cohomology of the strictly-positive quotient complex."""
    cc = complex_cohomology(compact_complex(module))
    n = len(module.ring.variables)
    shifted = {n + j: dd for j, dd in cc.report.degrees.items()}
    return ComplexCohomology(cc.report._replace(degrees=shifted), cc.cdata)


def local_cohomology(module: SigmaNablaModule) -> ComplexCohomology:
    """H^0/H^1 of D on a one-variable Robba window."""
    return complex_cohomology(local_complex(module))
