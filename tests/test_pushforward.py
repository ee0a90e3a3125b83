"""Pushforward bundles, the six-term sequence, and the Leray assembly."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_cohomology import _vertical_ranks

from ovc.acceptance import trivial_module, unit_constant_module
from ovc.cohomology import mw_cohomology, mw_complex
from ovc.errors import BadCertificateError, WindowError
from ovc.modules import SeriesMatrix, SigmaNablaModule
from ovc.padics import make_scalar
from ovc.pushforward import (
    LerayReport,
    leray_assemble,
    perturb_r1f,
    pushforward_complex,
    robba_side_module,
    snake_check,
)
from ovc.linalg import sparse_snf
from ovc.series import DAGGER, ROBBA, TATE, RingDescriptor, Series

P, M = 3, 12
R = RingDescriptor(ROBBA, ("t",), ((-16, 16),), P, M, slope=Fraction(1))


def test_trivial_bundle_dims():
    bundle = pushforward_complex(trivial_module(1, P, M, 12), R)
    assert bundle.dims() == {"r0f": 1, "r1f": 0, "r0loc": 1, "r1loc": 1,
                             "r1shriek": 0, "r2shriek": 1}
    assert bundle.r1prim_dim == 0
    assert all(v.passed for v in snake_check(bundle))


def test_trivial_bundle_with_certificate():
    bundle = pushforward_complex(trivial_module(1, P, M, 12), R,
                                 unipotent=True)
    assert bundle.dims() == {"r0f": 1, "r1f": 0, "r0loc": 1, "r1loc": 1,
                             "r1shriek": 0, "r2shriek": 1}
    assert "certificate" in bundle.note
    assert all(v.passed for v in snake_check(bundle))


def test_fallback_note_without_certificate():
    bundle = pushforward_complex(trivial_module(1, P, M, 12), R)
    assert "window linear algebra" in bundle.note


def test_twisted_bundle_all_zero():
    bundle = pushforward_complex(unit_constant_module(P, M, 12), R)
    assert all(v == 0 for v in bundle.dims().values())
    assert all(v.passed for v in snake_check(bundle))


def test_negative_control_fails_at_middle_node():
    bundle = pushforward_complex(trivial_module(1, P, M, 12), R)
    verdicts = snake_check(perturb_r1f(bundle))
    assert [v.node for v in verdicts if not v.passed] == ["r1f"]


@pytest.mark.parametrize("name", ["trivial", "rank2-diag"])
def test_negative_control_leaves_its_input_unchanged(name):
    robba = RingDescriptor(ROBBA, ("t",), ((-16, 16),), P, 8,
                           slope=Fraction(1))
    bundle = pushforward_complex(_bundle_modules(8)[name], robba)
    nodes, maps = dict(bundle.nodes), dict(bundle.maps)
    generators = {k: [dict(g) for g in cs.generators]
                  for k, cs in nodes.items()}
    columns = {k: list(m) for k, m in maps.items()}
    verdicts = snake_check(bundle)
    bad = perturb_r1f(bundle)
    assert bad.nodes["r1f"].dim == nodes["r1f"].dim + 1
    assert all(bundle.nodes[k] is cs for k, cs in nodes.items())
    assert all(bundle.maps[k] is m for k, m in maps.items())
    assert bundle.nodes.keys() == nodes.keys() \
        and bundle.maps.keys() == maps.keys()
    assert {k: cs.generators for k, cs in nodes.items()} == generators
    assert maps == columns
    assert snake_check(bundle) == verdicts
    assert all(v.passed for v in verdicts) == (name == "trivial")


def test_window_compatibility_enforced():
    small = RingDescriptor(ROBBA, ("t",), ((-4, 4),), P, M, slope=Fraction(1))
    with pytest.raises(WindowError):
        pushforward_complex(trivial_module(1, P, M, 12), small)


def test_robba_side_transport():
    mod = unit_constant_module(P, M, 8)
    loc = robba_side_module(mod, R)
    # Gamma = 1 transports to -t^(-1) in the dlog gauge
    ((e, c),) = loc.connection.rows[0][0].terms
    assert e == (-1,) and c.unit == P ** M - 1


def test_identity_pullback_bundle_matches_trivial():
    mod = trivial_module(1, P, M, 12)
    b1 = pushforward_complex(mod, R)
    b2 = pushforward_complex(mod, R)
    assert b1.dims() == b2.dims()


def test_leray_trivial():
    rep = leray_assemble(trivial_module(2, P, M, 10), "x", "y")
    assert rep.fiber_kernel_rank == 1 and rep.fiber_coker_rank == 0
    assert rep.dims_P == {0: 1, 1: 0} and rep.dims_Q == {0: 0, 1: 0}
    assert rep.dims_M == {0: 1, 1: 0, 2: 0}
    assert rep.euler_ok and all(ok for _, ok, _ in rep.node_verdicts)


def test_leray_twisted_fiber():
    rep = leray_assemble(unit_constant_module(P, M, 10, nvars=2), "x", "y")
    assert rep.fiber_kernel_rank == 0 and rep.fiber_coker_rank == 0
    assert rep.dims_M == {0: 0, 1: 0, 2: 0}
    assert rep.euler_ok and all(ok for _, ok, _ in rep.node_verdicts)


def test_leray_matches_direct():
    for mod in (trivial_module(2, P, M, 8),
                unit_constant_module(P, M, 8, nvars=2)):
        rep = leray_assemble(mod, "x", "y")
        assert rep.dims_M == mw_cohomology(mod).report.dims()


def test_leray_degenerate_fiberwise_only():
    # base variable appearing in the vertical matrix is rejected
    ring = trivial_module(2, P, M, 8).ring
    gy = SeriesMatrix.make(ring, [[Series.monomial(ring, (0, 1))]])
    z = SeriesMatrix.zero(ring, 1)
    mod = SigmaNablaModule(ring, 1, gammas=(("x", gy), ("y", z)))
    with pytest.raises(BadCertificateError):
        leray_assemble(mod, "x", "y")


def test_leray_euler_identity_values():
    rep = leray_assemble(trivial_module(2, P, M, 10), "x", "y")
    chi_M = sum((-1) ** i * d for i, d in rep.dims_M.items())
    chi_P = sum((-1) ** i * d for i, d in rep.dims_P.items())
    chi_Q = sum((-1) ** i * d for i, d in rep.dims_Q.items())
    assert chi_M == chi_P - chi_Q == 1


# -- pinned bundle and Leray output -------------------------------------------

def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _line_rank2(M, entries):
    """A rank-2 module on the line window [0, 12]: entries maps (i, j) to
    {exponent: rational} terms of Gamma_x."""
    ring = RingDescriptor(TATE, ("x",), ((0, 12),), P, M)
    rows = [[Series.make(ring, {(k,): make_scalar(c, P, M)
                                for k, c in entries.get((i, j), {}).items()})
             for j in range(2)] for i in range(2)]
    return SigmaNablaModule(ring, 2,
                            gammas=(("x", SeriesMatrix.make(ring, rows)),))


def _bundle_modules(M):
    third = Fraction(1, 3)
    return {
        "trivial": trivial_module(1, P, M, 12),
        "unit-constant": unit_constant_module(P, M, 12),
        "rank2": _line_rank2(M, {(0, 0): {1: third}, (0, 1): {0: 2}}),
        "rank2-diag": _line_rank2(M, {(0, 0): {1: third}, (1, 1): {1: third},
                                      (0, 1): {0: 2}}),
        "nilpotent": _line_rank2(M, {(0, 1): {0: 2}}),
    }


def _column_dicts(entries) -> list:
    """The nonempty columns of stored entries as {row: value} dicts, in
    column order: the form the pinned digests were taken over."""
    cols: dict = {}
    for r, c, x in zip(entries.rows, entries.cols, entries.vals):
        cols.setdefault(c, {})[r] = x
    return list(cols.values())


def _bundle_digest(bundle) -> str:
    nodes = {name: (cs.ambient_dim, cs.generators, cs.N,
                    _column_dicts(cs.boundary_cols))
             for name, cs in bundle.nodes.items()}
    verdicts = [tuple((v.node, v.passed, v.detail) for v in snake_check(b))
                for b in (bundle, perturb_r1f(bundle))]
    return _digest((nodes, bundle.maps, bundle.r1prim_dim, (bundle.note,),
                    verdicts))


PINNED_BUNDLE_DIGESTS = {
    "trivial-M8":
        "8d5fa957734b99f6b3d3d70eba8bd68dbbf989e6306ad1bcf7037ac93d8f984e",
    "trivial-M8-unipotent":
        "21616d6ef09a9ffe04cce9004b80c7e3da18ba7ee117bffcc79278870958c80f",
    "unit-constant-M8":
        "70fe9eb39fd274a589c061409fb298b1b5a8546c5835e107dd5d79cbc48c10bf",
    "rank2-M8":
        "9e433ffd4e51bd13eb92bb51e6cd503f0290b17f3d4a42a57c0c89ca2686d03a",
    "rank2-diag-M8":
        "ccf5bb7f933a3d2488df2734637b9db75f9ee8a9372a6dd4af672b6ad78352d2",
    "nilpotent-M8":
        "3a37ce63b57d1f41b2489226b4c4c49628b90924cd65e1f440023bc03530f4f3",
    "nilpotent-M8-unipotent":
        "ddefb2a6753a9ff72802f79b0fd633a9d21860ed2cc9a9bf858e1cc673697a00",
    "trivial-M12":
        "98ca4c2c7cb965ed2cc439faaf262f450e7a2143fc966948b8ec0508c33cfc67",
    "trivial-M12-unipotent":
        "d005881a435a6c88686ee4a80dbf9e5e84dddc295d45a72e407bbf36f26dfd64",
    "unit-constant-M12":
        "e02af528fcaf18d53edc6ad9abc1d7eee0e12a84109f28cb4d8b1253fb8971fe",
    "rank2-M12":
        "b9a046761891cda4ae050231d3f73d1d2ad680a3248853b7098ffd9a41e5a1fc",
    "rank2-diag-M12":
        "76a766578098dbba2581be54a59cce973a1c511d97ca55b446670caac4175184",
    "nilpotent-M12":
        "df0109da779ed5e7a7ea6d5f2777b0ef90d1c91e6e8775b779661550b5070079",
    "nilpotent-M12-unipotent":
        "1d86f768ae5ca10b4cea0bc20e488f6ed7ed602be54f7bab9fa148fc259a4d39",
}


def _bundle_cases():
    for M in (8, 12):
        robba = RingDescriptor(ROBBA, ("t",), ((-16, 16),), P, M,
                               slope=Fraction(1))
        for name, mod in _bundle_modules(M).items():
            yield f"{name}-M{M}", mod, robba, False
            if name in ("trivial", "nilpotent"):
                yield f"{name}-M{M}-unipotent", mod, robba, True


def test_pinned_bundle_output():
    got = {key: _bundle_digest(pushforward_complex(mod, robba,
                                                   unipotent=uni))
           for key, mod, robba, uni in _bundle_cases()}
    assert got == PINNED_BUNDLE_DIGESTS


def test_rank2_bundle_delta_has_image():
    robba = RingDescriptor(ROBBA, ("t",), ((-16, 16),), P, 8,
                           slope=Fraction(1))
    bundle = pushforward_complex(_bundle_modules(8)["rank2-diag"], robba)
    assert bundle.r1prim_dim == 2 and len(bundle.maps["delta"]) == 2


def _plane(gx, gy):
    """A rank-one module on [0, 8]^2 with Gamma_x = gx and Gamma_y = gy,
    each a monomial (exponent, rational) or None."""
    ring = RingDescriptor(TATE, ("x", "y"), ((0, 8), (0, 8)), P, M)

    def mat(term):
        if term is None:
            return SeriesMatrix.zero(ring, 1)
        return SeriesMatrix.make(ring, [[Series.monomial(ring, *term)]])

    return SigmaNablaModule(ring, 1, gammas=(("x", mat(gx)), ("y", mat(gy))))


# every case has a fiber cokernel, so Q's connection is solved against the
# cokernel classes
LERAY_PLANES = {
    "x": (((1, 0), 1), None),
    "x-1": (((1, 0), 1), ((0, 0), 1)),
    "x-y": (((1, 0), 1), ((0, 1), 1)),
    "x/3": (((1, 0), Fraction(1, 3)), None),
    "x/3-y": (((1, 0), Fraction(1, 3)), ((0, 1), 1)),
}

PINNED_LERAY_DIGESTS = {
    "x":
        "f415d225533c337f56f685c549aab967873d2af25fde3c393b036169347bd0e4",
    "x-1":
        "c8bfc17f1177c38617ca5b8a1d68d9356b8b3d31221a43cb1b5e188025f81f73",
    "x-y":
        "4ae535d48f0e24534b85364ad1f0e911113305e4abd6ad80d8e897724e103938",
    "x/3":
        "dabedc188009be8606ae9ff29dc3995b700bc915a25bfe6d4ee5238ddb6356cb",
    "x/3-y":
        "427a7df1700b824b61b173dae60e8bcb9fd70bf4a5ae18a0f5cfd81975f71b80",
}


def _leray_outcome(module):
    try:
        return leray_assemble(module, "x", "y")
    except BadCertificateError as ex:
        return ("BadCertificateError", str(ex))


def test_pinned_leray_output():
    outcomes = {key: _leray_outcome(_plane(*spec))
                for key, spec in LERAY_PLANES.items()}
    assert all(rep.fiber_coker_rank == 1 for rep in outcomes.values()
               if isinstance(rep, LerayReport))
    # the pins were taken with each verdict a plain (node, passed, detail)
    plain = {key: rep._replace(node_verdicts=tuple(map(tuple,
                                                      rep.node_verdicts)))
             if isinstance(rep, LerayReport) else rep
             for key, rep in outcomes.items()}
    assert {key: _digest(rep) for key, rep in plain.items()} \
        == PINNED_LERAY_DIGESTS


def _induced_Q_connection(monkeypatch, module):
    """The connection leray_assemble induces on the fiber cokernel Q, as
    {exponent: serialized coefficient}."""
    from ovc import pushforward

    induced = {}
    real = pushforward._induced_base_module

    def spy(mod, fi, bi, fib, j, base_ring):
        out = real(mod, fi, bi, fib, j, base_ring)
        induced[j] = out
        return out

    monkeypatch.setattr(pushforward, "_induced_base_module", spy)
    leray_assemble(module, "x", "y")
    Q = induced[1]
    assert Q.rank == 1
    return {E: c.serialize() for E, c in Q.gamma("y").rows[0][0].terms}


def test_leray_reads_coordinates_at_the_generator_scale(monkeypatch):
    # Gamma_y = 3y acts on the cokernel class by 3y whatever the fiber
    # connection's denominators; with Gamma_x = x/3 the cokernel generator
    # is stored at p^1, which the solved coordinates must undo
    plain = _induced_Q_connection(monkeypatch,
                                  _plane(((1, 0), 1), ((0, 1), 3)))
    third = _induced_Q_connection(
        monkeypatch, _plane(((1, 0), Fraction(1, 3)), ((0, 1), 3)))
    assert plain == third == {(1,): "1*p^1@11"}


# -- the fiber splitting behind Leray -----------------------------------------
#
# leray_assemble reads P and Q off one fiber line because a vertical
# connection free of the base variable acts on each base power y^j alone:
# the plane's vertical complex is hy + 1 copies of the fiber's.

def _fiber_line(module):
    """The fiber line module leray_assemble builds for fiber x."""
    ring = module.ring
    line = RingDescriptor(ring.kind, ("x",), (ring.window[0],), ring.prime,
                          ring.precision, decay=ring.decay)
    gam = SeriesMatrix.make(line, [
        [Series.make(line, {(E[0],): c for E, c in s.terms}) for s in row]
        for row in module.gamma("x").rows])
    return SigmaNablaModule(line, module.rank, gammas=(("x", gam),))


@st.composite
def _base_free_planes(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    kind = draw(st.sampled_from((TATE, DAGGER)))
    rank = draw(st.integers(1, 2))
    hx, hy = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    prec = draw(st.integers(4, 10))
    ring = RingDescriptor(kind, ("x", "y"), ((0, hx), (0, hy)), p, prec,
                          decay=1 if kind == DAGGER else None)
    coeffs = st.sampled_from((1, 2, -1, p, Fraction(1, p), Fraction(-2, p**2)))
    terms = st.dictionaries(st.integers(0, hx), coeffs, max_size=2)
    rows = [[Series.make(ring, {(e, 0): make_scalar(c, p, prec)
                                for e, c in draw(terms).items()})
             for _ in range(rank)] for _ in range(rank)]
    return SigmaNablaModule(ring, rank, gammas=(
        ("x", SeriesMatrix.make(ring, rows)),
        ("y", SeriesMatrix.zero(ring, rank))))


def _assert_plane_is_copies_of_fiber(module):
    hy = module.ring.window[1][1]
    line = _fiber_line(module)
    fiber = mw_complex(line)
    (src, dst), (N, _) = fiber.spaces, fiber.scalings[0]
    rank = sparse_snf(dst.dim, src.dim, fiber.matrices[0], fiber.p, N,
                      logs=None).rank()
    raw = mw_cohomology(line).report.degrees
    vrank, vker, _, vdim1 = _vertical_ranks(module, 0)
    assert vrank == (hy + 1) * rank
    assert vker == (hy + 1) * raw[0].raw_dim
    assert vdim1 - vrank == (hy + 1) * raw[1].raw_dim


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_base_free_planes())
def test_plane_vertical_complex_is_copies_of_the_fiber(module):
    _assert_plane_is_copies_of_fiber(module)


def test_leray_planes_vertical_complex_is_copies_of_the_fiber():
    for spec in LERAY_PLANES.values():
        _assert_plane_is_copies_of_fiber(_plane(*spec))
