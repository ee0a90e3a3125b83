"""Windowed de Rham complexes and their certified cohomology.

Three complex builders share one engine:

* ``mw_complex``       - a module over a Tate/dagger window, dx gauge;
* ``compact_complex``  - the quotient complex on strictly positive annulus
                         exponents computing compact supports of affine space
                         (written in inverted coordinates, dx gauge);
* ``local_complex``    - the dlog operator D on a one-variable Robba window.

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
from itertools import combinations, product

from .errors import DescriptorMismatchError
from .groebner import deglex_key
from .linalg import SnfResult, sparse_snf
from .modules import SigmaNablaModule
from .padics import PadicApprox, int_valuation
from .report import CohomologyReport, DegreeData
from .series import coeff_value

Label = tuple  # (component, forms J as sorted tuple of var indices, exponent I)


@dataclass(frozen=True)
class ChainSpace:
    degree: int
    labels: tuple
    pos: dict

    @staticmethod
    def build(rank: int, nvars: int, degree: int, exp_range) -> "ChainSpace":
        """exp_range(J) yields the exponent iterator for a form subset J."""
        labels = []
        for J in combinations(range(nvars), degree):
            for I in exp_range(J):
                for a in range(rank):
                    labels.append((a, J, tuple(I)))
        labels.sort(key=lambda l: (sum(l[2]), deglex_key(l[2]), l[1], l[0]))
        return ChainSpace(degree, tuple(labels),
                          {l: i for i, l in enumerate(labels)})

    @property
    def dim(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class ChainVector:
    """Sparse vector in a chain space: label -> PadicApprox."""
    space: ChainSpace
    data: dict

    def records(self):
        return tuple((l, self.data[l].serialize())
                     for l in sorted(self.data, key=lambda l: self.space.pos[l]))

    def support_exponents(self):
        return [l[2] for l in self.data]


@dataclass
class ComplexData:
    spaces: list            # ChainSpace per degree
    matrices: list          # entries {(row,col): PadicApprox} per map
    p: int
    M: int
    band: tuple             # per-variable edge-band width
    window_hi: tuple        # per-variable top (for edge detection)
    window_lo: tuple
    two_sided: bool         # robba windows get bands at both ends
    loss: Fraction | None = None
    slope: Fraction | None = None   # annulus slope; enables divergence checks


def _acc(entries: dict, key, val):
    """Accumulate an entry; plain ints are kept as ints until conversion."""
    if key in entries:
        old = entries[key]
        if isinstance(old, int) and isinstance(val, int):
            entries[key] = old + val
        else:
            if isinstance(old, int):
                old = _promote(old, val.prime, val.prec)
            if isinstance(val, int):
                val = _promote(val, old.prime, old.prec)
            entries[key] = old.add(val)
    else:
        entries[key] = val


def _promote(k: int, p: int, M: int) -> PadicApprox:
    from .padics import make_scalar
    return make_scalar(k, p, M)


def _insert_sign(i: int, J: tuple) -> int:
    """dx_i wedged onto dx_J, reordered into sorted position."""
    return -1 if sum(1 for k in J if k < i) % 2 else 1


def _gamma_terms(module: SigmaNablaModule, var: str):
    """[(b, a, E, coeff)] for the dx_var connection matrix."""
    g = module.gamma(var)
    out = []
    for b in range(module.rank):
        for a in range(module.rank):
            for E, c in g.rows[b][a].terms:
                out.append((b, a, E, c))
    return out


def _shift_bound(terms, nvars: int) -> tuple:
    bound = [0] * nvars
    for _, _, E, _ in terms:
        for v in range(nvars):
            bound[v] = max(bound[v], abs(E[v]))
    return tuple(bound)


# -- complex builders ----------------------------------------------------------


def mw_complex(module: SigmaNablaModule) -> ComplexData:
    """The de Rham complex of a module over a Tate/dagger window, dx gauge."""
    ring = module.ring
    if ring.is_robba():
        raise DescriptorMismatchError("mw_complex needs a tate/dagger module")
    n = len(ring.variables)
    his = tuple(hi for _, hi in ring.window)
    rank = module.rank

    def exp_range(_J):
        return product(*(range(0, h + 1) for h in his))

    spaces = [ChainSpace.build(rank, n, j, exp_range) for j in range(n + 1)]
    gterms = {v: _gamma_terms(module, ring.variables[v]) for v in range(n)}
    band = tuple(1 + b for b in _shift_bound(
        [t for ts in gterms.values() for t in ts], n))

    loss = None
    matrices = []
    for j in range(n):
        src, dst = spaces[j], spaces[j + 1]
        entries: dict = {}
        for col, (a, J, I) in enumerate(src.labels):
            for i in range(n):
                if i in J:
                    continue
                sign = _insert_sign(i, J)
                J2 = tuple(sorted(J + (i,)))
                if I[i] > 0:
                    I2 = I[:i] + (I[i] - 1,) + I[i + 1:]
                    _acc(entries, (dst.pos[(a, J2, I2)], col), I[i] * sign)
                for (b, aa, E, c) in gterms[i]:
                    if aa != a:
                        continue
                    I2 = tuple(x + e for x, e in zip(I, E))
                    cc = c if sign > 0 else c.neg()
                    if all(0 <= x <= h for x, h in zip(I2, his)):
                        _acc(entries, (dst.pos[(b, J2, I2)], col), cc)
                    else:
                        v = coeff_value(c)
                        if v is not None:
                            loss = v if loss is None else min(loss, Fraction(v))
        matrices.append(entries)
    return ComplexData(spaces, matrices, ring.prime, ring.precision,
                       band, his, (0,) * n, False, loss, Fraction(0))


def compact_complex(module: SigmaNablaModule) -> ComplexData:
    """The strictly-positive quotient complex computing compact supports of
    affine n-space for a module over the Tate window, written in inverted
    coordinates: the coordinate derivative acts by t^I -> -I_i t^(I+e_i) and
    connection entries act through negated exponents.  Exponents leaving the
    strictly positive region are killed by the quotient (exactly), exponents
    above the window top are tracked loss."""
    ring = module.ring
    if ring.is_robba():
        raise DescriptorMismatchError("compact_complex needs a tate/dagger module")
    n = len(ring.variables)
    his = tuple(hi for _, hi in ring.window)
    rank = module.rank

    def exp_range(_J):
        return product(*(range(1, h + 1) for h in his))

    spaces = [ChainSpace.build(rank, n, j, exp_range) for j in range(n + 1)]
    gterms = {v: _gamma_terms(module, ring.variables[v]) for v in range(n)}
    band = tuple(1 + b for b in _shift_bound(
        [t for ts in gterms.values() for t in ts], n))

    loss = None
    matrices = []
    for j in range(n):
        src, dst = spaces[j], spaces[j + 1]
        entries: dict = {}
        for col, (a, J, I) in enumerate(src.labels):
            for i in range(n):
                if i in J:
                    continue
                sign = _insert_sign(i, J)
                J2 = tuple(sorted(J + (i,)))
                # d/dx on t^I: -I_i t^(I+e_i)
                I2 = I[:i] + (I[i] + 1,) + I[i + 1:]
                if I2[i] <= his[i]:
                    _acc(entries, (dst.pos[(a, J2, I2)], col), -I[i] * sign)
                else:
                    loss = Fraction(0) if loss is None else min(loss, Fraction(0))
                for (b, aa, E, c) in gterms[i]:
                    if aa != a:
                        continue
                    # x^E multiplies as t^(-E)
                    I3 = tuple(x - e for x, e in zip(I, E))
                    if any(x < 1 for x in I3):
                        continue          # exact quotient projection
                    cc = c if sign > 0 else c.neg()
                    if all(x <= h for x, h in zip(I3, his)):
                        _acc(entries, (dst.pos[(b, J2, I3)], col), cc)
                    else:
                        v = coeff_value(c)
                        if v is not None:
                            loss = v if loss is None else min(loss, Fraction(v))
        matrices.append(entries)
    return ComplexData(spaces, matrices, ring.prime, ring.precision,
                       band, his, (1,) * n, False, loss, Fraction(0))


def local_complex(module: SigmaNablaModule) -> ComplexData:
    """D = t d/dt + N on a one-variable Robba window (dlog gauge): the two
    terms of the local complex share the same label set."""
    ring = module.ring
    if not ring.is_robba() or len(ring.variables) != 1:
        raise DescriptorMismatchError("local_complex needs a one-variable robba module")
    lo, hi = ring.window[0]
    rank = module.rank

    def exp_range(_J):
        return ((i,) for i in range(lo, hi + 1))

    spaces = [ChainSpace.build(rank, 1, j, exp_range) for j in range(2)]
    nterms = []
    for b in range(rank):
        for a in range(rank):
            for E, c in module.connection.rows[b][a].terms:
                nterms.append((b, a, E, c))
    shifts = _shift_bound(nterms, 1)
    band = (0,) if shifts == (0,) else (1 + shifts[0],)

    src, dst = spaces
    entries: dict = {}
    loss = None
    for col, (a, J, I) in enumerate(src.labels):
        if I[0] != 0:
            _acc(entries, (dst.pos[(a, (0,), I)], col), I[0])
        for (b, aa, E, c) in nterms:
            if aa != a:
                continue
            i2 = I[0] + E[0]
            if lo <= i2 <= hi:
                _acc(entries, (dst.pos[(b, (0,), (i2,))], col), c)
            else:
                v = coeff_value(c)
                if v is not None:
                    vv = Fraction(v) + Fraction(ring.slope) * i2
                    loss = vv if loss is None else min(loss, vv)
    return ComplexData(spaces, [entries], ring.prime, ring.precision,
                       band, (hi,), (lo,), True, loss, ring.slope)


# -- the engine -----------------------------------------------------------------

def _to_int_entries(entries: dict, p: int, M: int):
    """Entries (ints or PadicApprox) -> integers mod p^N with a global shift."""
    vals = [c.val for c in entries.values()
            if not isinstance(c, int) and c.val is not None]
    shift = -min(vals) if vals and min(vals) < 0 else 0
    N = M + shift
    mod = p ** N
    out = {}
    floor = None
    for key, c in entries.items():
        if isinstance(c, int):
            x = c * p ** shift % mod
            if x:
                out[key] = x
            continue
        if c.val is None:
            if c.limited:
                floor = c.prec if floor is None else min(floor, c.prec)
            continue
        out[key] = c.unit * p ** (c.val + shift) % mod
    return out, N, shift, floor


@dataclass
class ComplexCohomology:
    report: CohomologyReport
    cdata: ComplexData
    snfs: list              # SnfResult per map (same scaling data attached)
    scalings: list          # (N, shift) per map

    def boundary_solver(self, degree: int):
        """SNF of the incoming map at a degree (None at the bottom)."""
        return self.snfs[degree - 1] if degree >= 1 else None


def _edge_supported(vec: dict, space: ChainSpace, cdata: ComplexData) -> bool:
    """True when every term of the vector sits within the band of the window
    edge in some variable: a window artifact, not a certified class."""
    if all(b == 0 for b in cdata.band):
        return False
    for idx in vec:
        a, J, I = space.labels[idx]
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
        _, _, I = space.labels[idx]
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
        data[space.labels[idx]] = PadicApprox(p, x % p ** prec, val, prec)
    return ChainVector(space, data)


def complex_cohomology(cdata: ComplexData, label: str,
                       want_generators: bool = True) -> ComplexCohomology:
    p, M = cdata.p, cdata.M
    snfs, scalings = [], []
    for idx, entries in enumerate(cdata.matrices):
        ints, N, shift, floor = _to_int_entries(entries, p, M)
        snfs.append(sparse_snf(cdata.spaces[idx + 1].dim,
                               cdata.spaces[idx].dim, ints, p, N))
        scalings.append((N, shift))

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
    return ComplexCohomology(report, cdata, snfs, scalings)


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
            dints, N2, shift2, _ = _to_int_entries(cdata.matrices[j],
                                                   cdata.p, cdata.M)
            by_col: dict[int, dict[int, int]] = {}
            for (r, c), x in dints.items():
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
                           cc.report.truncation, cc.report.reliable,
                           cc.report.notes)
    return ComplexCohomology(rep, cc.cdata, cc.snfs, cc.scalings)


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
