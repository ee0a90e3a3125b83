"""Pushforward bundles for a module on the affine line over a base, the
six-term snake sequence linking them, and the Leray assembly for a module on
the affine plane split as a family of lines.

The line embeds into the annulus by inverting the coordinate, so the module's
chain spaces sit inside the local (Robba-window) chain spaces at nonpositive
exponents; the quotient complex lives on strictly positive exponents (and on
nonnegative dlog exponents for one-forms).  All six kernels/cokernels are
computed by the windowed engine; with ``unipotent=True`` the local terms come
from the constant-matrix kernel and cokernel of a unipotent certificate
instead, which is exact.

Each of the six nodes is a class space: its generators are stored once as
integers mod p^N at the scaling of its incoming boundary map, and the SNF
that expresses a vector as a class is built on first use and kept with the
node.  The five snake maps act on those integers directly, relabelling each
coordinate into the target node and reducing mod the target's p^N.  The
negative control copies the bundle around one new generator and leaves the
original as it was.

``snake_check`` and ``leray_assemble`` judge exactness node by node with one
``Verdict`` type: the node, whether it passed and a detail line.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .cohomology import (
    ChainVector,
    ComplexData,
    complex_cohomology,
    local_complex,
    mw_cohomology,
    quotient_complex,
)
from .errors import BadCertificateError, DescriptorMismatchError, WindowError
from .linalg import Entries, sparse_snf
from .modules import SeriesMatrix, SigmaNablaModule
from .padics import from_residue, integral_shift
from .series import RingDescriptor, Series
from .unipotent import h0_h1_unipotent, strongly_unipotent_basis


# -- class spaces: generators + boundary solver -----------------------------------

class ClassSpace:
    """A computed cohomology node: generator vectors in ambient coordinates
    plus the incoming boundary matrix, packaged so that arbitrary ambient
    vectors can be expressed as classes."""

    def __init__(self, ambient_dim: int, generators: list, p: int, N: int,
                 shift: int, boundary_cols: Entries):
        self.ambient_dim = ambient_dim
        self.generators = generators  # sparse int vectors {row: value * p^shift}
        self.p, self.N, self.shift = p, N, shift
        # the incoming map as stored, column by column
        self.boundary_cols = boundary_cols

    @cached_property
    def _solver(self):
        """The SNF of the generators followed by the boundary's columns,
        which are offset by the generator count and keep their order."""
        entries = Entries.of_columns(self.generators)
        g = self.dim
        b = self.boundary_cols
        entries.rows += b.rows
        entries.cols += [c + g for c in b.cols]
        entries.vals += b.vals
        return sparse_snf(self.ambient_dim,
                          g + (b.cols[-1] + 1 if b.cols else 0),
                          entries, self.p, self.N)

    def class_coords(self, vec: dict):
        """Coordinates of a vector's class in the generator basis, or None
        when it is not a combination of generators and boundaries."""
        sol = self._solver.solve(dict(vec))
        if sol is None:
            return None
        return tuple(sol.get(c, 0) for c in range(self.dim))

    @property
    def dim(self):
        return len(self.generators)


def _class_space(gens: list, space, p: int, M: int,
                 boundary: ComplexData | None = None) -> ClassSpace:
    """The classes of chain vectors modulo the first map of ``boundary``
    (none when omitted), as integers mod that map's p^N.  The generators
    are stored times p^shift, the map's shift or more when they need it to
    be integral (classes are only defined up to a scalar)."""
    N, least = boundary.scalings[0] if boundary else (M, 0)
    shift = integral_shift((c for g in gens for c in g.data.values()), least)
    ints = [{space.index(label): c.residue(N, shift)
             for label, c in g.data.items() if not c.is_zero()} for g in gens]
    cols = boundary.matrices[0] if boundary else Entries([], [], [])
    return ClassSpace(space.dim, ints, p, N, shift, cols)


# -- the bundle --------------------------------------------------------------------

class PushforwardBundle:
    __slots__ = ("module", "nodes", "maps", "r1prim_dim", "note")

    def __init__(self, module: SigmaNablaModule, nodes: dict, maps: dict,
                 r1prim_dim: int | None, note: str):
        self.module = module
        self.nodes = nodes    # name -> ClassSpace
        self.maps = maps      # name -> small int matrix as list of columns
        # rank of maps["delta"] if it landed, else None
        self.r1prim_dim = r1prim_dim
        self.note = note

    def dims(self) -> dict:
        order = ("r0f", "r1f", "r0loc", "r1loc", "r1shriek", "r2shriek")
        return {k: self.nodes[k].dim for k in order}


def robba_side_module(module: SigmaNablaModule,
                      robba_ring: RingDescriptor) -> SigmaNablaModule:
    """Transport the dx-gauge connection through x -> 1/t into the dlog
    gauge: a term c x^k of the x-connection becomes -c t^(-k-1)."""
    ring = module.ring
    if ring.is_robba() or len(ring.variables) != 1:
        raise DescriptorMismatchError("need a one-variable tate/dagger module")
    gam = module.gamma(ring.variables[0]).map(lambda s: Series.make(
        robba_ring, {(-k - 1,): c.neg() for (k,), c in s.terms}))
    return SigmaNablaModule(robba_ring, module.rank,
                            connection=SeriesMatrix(robba_ring, gam.rows))


def pushforward_complex(module: SigmaNablaModule,
                        robba_ring: RingDescriptor,
                        unipotent: bool = False) -> PushforwardBundle:
    """All six kernels/cokernels of the vertical connection on the module,
    its annulus extension, and the quotient, with the class-space plumbing
    the snake check needs.

    ``unipotent=True`` certifies the local terms through the constant-matrix
    route; otherwise they come from window linear algebra and the report
    carries a reliability note.
    """
    ring = module.ring
    p, M = ring.prime, ring.precision
    hx = ring.window[0][1]
    lo, hi = robba_ring.window[0]
    if lo > -hx or hi < 1:
        raise WindowError("annulus window must cover the inverted line window")

    mwc = mw_cohomology(module)
    loc_mod = robba_side_module(module, robba_ring)
    loc = local_complex(loc_mod)

    if unipotent:
        urep = h0_h1_unipotent(strongly_unipotent_basis(loc_mod))
        note = "local terms from a unipotent certificate"
        loc_gens = [_unipotent_chain_gens(urep, j, loc.spaces[j])
                    for j in (0, 1)]
    else:
        note = "local terms from window linear algebra (no certificate)"
        locc = complex_cohomology(loc)
        loc_gens = [list(locc.report.generators(j)) for j in (0, 1)]
    quc = complex_cohomology(quotient_complex(loc_mod))

    # degree 1 of each complex is taken modulo the image of degree 0
    nodes = {}
    for cdata, gens, names in (
            (mwc.cdata, [mwc.report.generators(j) for j in (0, 1)],
             ("r0f", "r1f")),
            (loc, loc_gens, ("r0loc", "r1loc")),
            (quc.cdata, [quc.report.generators(j) for j in (0, 1)],
             ("r1shriek", "r2shriek"))):
        for j in (0, 1):
            nodes[names[j]] = _class_space(gens[j], cdata.spaces[j], p, M,
                                           cdata if j else None)
    maps = _snake_maps(mwc.cdata, loc, quc.cdata, nodes)
    delta = maps["delta"]
    r1prim = None if delta is None else _matrix_rank(delta, p, M)
    return PushforwardBundle(module, nodes, maps, r1prim, note)


def _unipotent_chain_gens(urep, degree, space):
    J = (0,) if degree == 1 else ()
    return [ChainVector(space, {(a, J, I): coeff
                                for a, c in enumerate(mv.coords)
                                for I, coeff in c.terms})
            for mv in urep.generators(degree)]


def _snake_maps(line, loc, quot, nodes):
    """The five maps of the six-term sequence as small class matrices.  Each
    sends the integer coordinates of its source node's generators to target
    labels, times a sign (and p^shift for the local lift), mod p^N."""
    p = line.p
    x0, x1 = line.spaces
    loc0, loc1 = loc.spaces
    qu0, qu1 = quot.spaces

    def relabel(src, dst, to, scale=1):
        """Coordinate at (a, J, (i,)) of src goes to label to(a, i) of dst,
        or is dropped when that is None."""
        def apply(vec, N):
            out = {}
            for idx, x in vec.items():
                a, _, (i,) = src.label(idx)
                label = to(a, i)
                if x and label is not None:
                    out[dst.index(label)] = scale * x % p ** N
            return out
        return apply

    # delta: lift a quotient kernel class, apply the local operator, read the
    # result on the line side (t^j dt/t = -x^(-j-1) dx for j <= -1)
    Nl, shiftl = loc.scalings[0]
    lift = relabel(qu0, loc0, lambda a, i: (a, (), (i,)), p ** shiftl)
    read = relabel(loc1, x1, lambda a, j: (a, (0,), (-j - 1,)) if j < 0
                   else None, -1)

    def delta(vec, N):
        image: dict[int, int] = {}
        for idx, x in lift(vec, Nl).items():
            for r, y in loc.column(0, idx):
                image[r] = (image.get(r, 0) + x * y) % p ** Nl
        return read(image, N)

    table = (
        # iota0: line-side functions into the annulus, x^k = t^(-k)
        ("incl_loc", "r0f", "r0loc",
         relabel(x0, loc0, lambda a, k: (a, (), (-k,)))),
        # pi0: annulus functions onto strictly positive exponents
        ("to_shriek", "r0loc", "r1shriek",
         relabel(loc0, qu0, lambda a, i: (a, (), (i,)) if i >= 1 else None)),
        ("delta", "r1shriek", "r1f", delta),
        # iota1: line-side one-forms into dlog forms, x^k dx = -t^(-k-1) dt/t
        ("to_loc1", "r1f", "r1loc",
         relabel(x1, loc1, lambda a, k: (a, (0,), (-k - 1,)), -1)),
        # pi1: annulus dlog forms onto nonnegative exponents
        ("to_shriek2", "r1loc", "r2shriek",
         relabel(loc1, qu1, lambda a, i: (a, (0,), (i,)) if i >= 0
                 else None)),
    )
    maps = {}
    for name, src, tgt, fn in table:
        target = nodes[tgt]
        cols = [target.class_coords(fn(g, target.N))
                for g in nodes[src].generators]
        maps[name] = None if None in cols else cols
    return maps


def _matrix_rank(cols, p, M) -> int:
    entries = Entries.of_columns(dict(enumerate(col)) for col in cols)
    if not entries:
        return 0
    return sparse_snf(1 + max(entries.rows), len(cols), entries, p, M,
                      logs=None).rank()


def perturb_r1f(bundle: PushforwardBundle) -> PushforwardBundle:
    """Negative control: inject a spurious generator into the middle node
    (the top-edge one-form class, never a boundary on the window), padding
    the incoming map with zero coordinates and the outgoing map with the
    zero column its image happens to have.  The input bundle is left as
    it was."""
    r1f = bundle.nodes["r1f"]
    # ambient index of the top-degree monomial form on the last component
    nodes = dict(bundle.nodes, r1f=ClassSpace(
        r1f.ambient_dim, r1f.generators + [{r1f.ambient_dim - 1: 1}], r1f.p,
        r1f.N, r1f.shift, r1f.boundary_cols))
    maps = dict(bundle.maps)
    if maps["delta"] is not None:
        maps["delta"] = [tuple(col) + (0,) for col in maps["delta"]]
    if maps["to_loc1"] is not None:
        maps["to_loc1"] = maps["to_loc1"] + [(0,) * nodes["r1loc"].dim]
    return PushforwardBundle(bundle.module, nodes, maps, bundle.r1prim_dim,
                             bundle.note)


class Verdict(NamedTuple):
    """Exactness at one node of a long exact sequence."""
    node: str
    passed: bool
    detail: str


def snake_check(bundle: PushforwardBundle) -> list[Verdict]:
    """Exactness at the six nodes: image rank equals kernel dimension at each
    interior node, injectivity at the head, surjectivity at the tail."""
    p = bundle.module.ring.prime
    M = bundle.module.ring.precision
    names = ["r0f", "r0loc", "r1shriek", "r1f", "r1loc", "r2shriek"]
    mapseq = ["incl_loc", "to_shriek", "delta", "to_loc1", "to_shriek2"]
    dims = [bundle.nodes[n].dim for n in names]
    verdicts = []

    mats = [bundle.maps[m] for m in mapseq]
    if any(m is None for m in mats):
        return [Verdict(n, False, "a chain map failed to land in its "
                        "target classes at precision") for n in names]
    ranks = [bundle.r1prim_dim if name == "delta" else _matrix_rank(m, p, M)
             for name, m in zip(mapseq, mats)]

    # head: injectivity
    verdicts.append(Verdict(names[0], ranks[0] == dims[0],
                            f"rank {ranks[0]} of {dims[0]}"))
    for k in range(1, 5):
        ker = dims[k] - ranks[k]
        verdicts.append(Verdict(
            names[k], ker == ranks[k - 1],
            f"ker(out) {ker} vs im(in) {ranks[k - 1]}"))
    verdicts.append(Verdict(names[5], ranks[4] == dims[5],
                            f"im(in) {ranks[4]} of {dims[5]}"))
    return verdicts


# -- Leray assembly over a one-variable base -----------------------------------

class LerayReport(NamedTuple):
    fiber_kernel_rank: int        # rank of P over the base
    fiber_coker_rank: int         # rank of Q over the base
    dims_P: dict
    dims_Q: dict
    dims_M: dict
    euler_ok: bool
    node_verdicts: tuple          # Verdict per node


def leray_assemble(module: SigmaNablaModule, fiber: str, base: str
                   ) -> LerayReport:
    """Split a module on the plane into a family of lines over the base
    variable, build the kernel P and cokernel Q of the vertical connection as
    modules over the base, and check the induced long exact sequence against
    the direct computation.

    The vertical connection matrix must not involve the base variable; the
    horizontal matrix is unrestricted.  Once that holds, the vertical complex
    on the plane window is hy + 1 copies of the fiber line's complex, one per
    base power y^j, with the same terms, shift and precision.  So P and Q are
    free over the base on the fiber's generators, and the fiber slice is
    computed once, over the base field.
    """
    ring = module.ring
    if ring.is_robba() or len(ring.variables) != 2:
        raise DescriptorMismatchError("leray_assemble needs a two-variable module")
    fi = ring.var_index(fiber)
    bi = ring.var_index(base)
    gam_f = module.gamma(fiber)
    if any(E[bi] for row in gam_f.rows for s in row for E in s.support()):
        raise BadCertificateError(
            "vertical connection involves the base variable; "
            "the fiber-slice splitting does not apply")

    # fiber-line module over the base field
    hx = ring.window[fi][1]
    hy = ring.window[bi][1]
    fiber_ring = ring._replace(variables=(fiber,), window=((0, hx),))

    def restrict(s: Series) -> Series:
        return Series.make(fiber_ring,
                           {(E[fi],): c for E, c in s.terms})

    gam_line = SeriesMatrix(fiber_ring, gam_f.map(restrict).rows)
    line_module = SigmaNablaModule(fiber_ring, module.rank,
                                   gammas=((fiber, gam_line),))
    fib = mw_cohomology(line_module)

    # P (j = 0) and Q (j = 1), both built before either is reduced
    base_ring = ring._replace(variables=(base,), window=((0, hy),))
    induced = [_induced_base_module(module, fi, bi, fib, j, base_ring)
               for j in (0, 1)]
    dims_P, dims_Q = [mw_cohomology(m).report.dims() if m else {0: 0, 1: 0}
                      for m in induced]
    dims_M = mw_cohomology(module).report.dims()

    def chi(dims):
        return sum((-1) ** i * d for i, d in dims.items())

    euler_ok = chi(dims_M) == chi(dims_P) - chi(dims_Q)

    # long exact sequence 0 -> H0(P) -> H0(M) -> 0 -> H1(P) -> H1(M)
    #                        -> H0(Q) -> 0 -> H2(M) -> H1(Q) -> 0
    verdicts = []
    h0P, h1P = dims_P.get(0, 0), dims_P.get(1, 0)
    h0Q, h1Q = dims_Q.get(0, 0), dims_Q.get(1, 0)
    h0M, h1M, h2M = dims_M.get(0, 0), dims_M.get(1, 0), dims_M.get(2, 0)
    verdicts.append(Verdict("H0(P)->H0(M) iso", h0P == h0M,
                            f"{h0P} vs {h0M}"))
    # exactness of H1(P) -> H1(M) -> H0(Q) -> 0 -> H2(M) -> H1(Q) -> 0:
    # rank arithmetic forces h1M = h1P + rank(edge) and h0Q = rank(edge) +
    # dim ker(delta2) with delta2 landing in H2(P) = 0, so h0Q - (h1M - h1P)
    # must vanish.
    mid_ok = (h1M - h1P >= 0) and (h0Q == h1M - h1P)
    verdicts.append(Verdict("H1 block", mid_ok,
                            f"H1(M)={h1M}, H1(P)={h1P}, H0(Q)={h0Q}"))
    verdicts.append(Verdict("H2(M) ~ H1(Q)", h2M == h1Q, f"{h2M} vs {h1Q}"))

    return LerayReport(*(len(fib.report.generators(j)) for j in (0, 1)),
                       dims_P, dims_Q, dims_M, euler_ok, tuple(verdicts))


def _induced_base_module(module, fi, bi, fib, j, base_ring):
    """Connection of the base module induced on the fiber's degree-j
    generators (j = 0 the kernel P, j = 1 the cokernel Q): apply the
    horizontal part and re-express in the generators."""
    gens = fib.report.generators(j)
    if not gens:
        return None
    ring = module.ring
    gam_b = module.gamma(ring.variables[bi])
    J_target = (0,) if j else ()

    # horizontal action: d/dy contributes nothing on y-free generators, so
    # the image is Gamma_y applied to the generator lifted into the plane,
    # split by its y-degree
    cols = []
    for g in gens:
        coords = [{} for _ in range(module.rank)]
        for (a, _J, (i,)), c in g.data.items():
            coords[a][(i, 0) if fi == 0 else (0, i)] = c
        img_by_ydeg: dict[int, dict] = {}
        image = gam_b.apply([Series.make(ring, v) for v in coords])
        for b, s in enumerate(image):
            for E, c in s.terms:
                img_by_ydeg.setdefault(E[bi], {})[(b, J_target, (E[fi],))] = c
        cols.append(img_by_ydeg)

    # solve each y-degree slice against the generator classes
    cdata = fib.cdata
    p, M = cdata.p, cdata.M
    space = cdata.spaces[j]
    cs = _class_space(gens, space, p, M, cdata if j else None)
    rank_g = len(gens)
    conn_terms = [[dict() for _ in range(rank_g)] for _ in range(rank_g)]
    for k, img in enumerate(cols):
        for ydeg, vec in img.items():
            # the image is encoded at t >= shift: a coordinate x then
            # stands for x / p^(t - shift) against the generators
            t = integral_shift(vec.values(), cs.shift)
            coords = cs.class_coords({space.index(lbl): c.residue(cs.N, t)
                                      for lbl, c in vec.items()
                                      if not c.is_zero()})
            if coords is None:
                raise BadCertificateError(
                    "horizontal action leaves the generator span at precision")
            for l, x in enumerate(coords):
                conn_terms[l][k][(ydeg,)] = from_residue(x, p, cs.N,
                                                      t - cs.shift, M)
    rows = [tuple(Series.make(base_ring, conn_terms[l][k])
                  for k in range(rank_g)) for l in range(rank_g)]
    return SigmaNablaModule(base_ring, rank_g,
                            gammas=((base_ring.variables[0],
                                     SeriesMatrix.make(base_ring, rows)),))
