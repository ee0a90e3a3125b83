"""The windowed cohomology engines against dense oracles and known answers."""

import hashlib
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ovc import cohomology
from ovc.cohomology import (
    ChainVector,
    compact_complex,
    compact_support_cohomology,
    local_cohomology,
    local_complex,
    mw_cohomology,
    mw_complex,
)
from ovc.acceptance import trivial_module, unit_constant_module
from ovc.groebner import deglex_key
from ovc.linalg import digit_precision, sparse_snf
from ovc.modules import SeriesMatrix, SigmaNablaModule
from ovc.padics import make_scalar, parse_scalar
from ovc.pairing import apply_complex_map
from ovc.pushforward import quotient_complex, robba_side_module
from ovc.series import ROBBA, TATE, RingDescriptor, Series
from test_linalg import dense_divisors, triples

P = 3


def test_mw_dims_match_dense_oracle_small():
    for nvars in (1, 2):
        mod = trivial_module(nvars, P, 8, 5)
        cdata = mw_complex(mod)
        dims = mw_cohomology(mod).report
        ranks = []
        for ints, (N, _) in zip(cdata.matrices, cdata.scalings):
            A = [[0] * (1 + max(ints.cols)) for _ in range(1 + max(ints.rows))]
            for r, c, x in zip(ints.rows, ints.cols, ints.vals):
                A[r][c] = x
            ranks.append(sum(d < N for d in dense_divisors(A, P, N)))
        for j, space in enumerate(cdata.spaces):
            r_out = ranks[j] if j < len(ranks) else 0
            r_in = ranks[j - 1] if j >= 1 else 0
            assert dims.degrees[j].raw_dim == space.dim - r_out - r_in


def test_mw_known_answers():
    assert mw_cohomology(trivial_module(1, P, 10, 30)).report.dims() == \
        {0: 1, 1: 0}
    assert mw_cohomology(trivial_module(2, P, 10, 9)).report.dims() == \
        {0: 1, 1: 0, 2: 0}
    assert mw_cohomology(unit_constant_module(P, 10, 30)).report.dims() == \
        {0: 0, 1: 0}


def test_mw_h0_generator_is_constant():
    cc = mw_cohomology(trivial_module(1, P, 10, 30))
    ((lbl, val),) = cc.report.generators(0)[0].records()
    assert lbl == (0, (), (0,)) and val == "1*p^0@10"


def _snf_calls(monkeypatch, force_track=False, entries=None,
               precisions=None, shapes=None, logs=None, all_logs=False):
    """Record whether every SNF the engine runs is tracked (its ``logs``
    not None), into ``entries`` its entry count, into ``precisions`` its N,
    into ``shapes`` its (rows, columns) and into ``logs`` the op logs its
    result keeps; with ``force_track`` every map is reduced tracked, in full
    and mod p^N, as when some degree has a structural class, and with
    ``all_logs`` every tracked run keeps both op logs."""
    calls, snf = [], cohomology.sparse_snf

    def spy(*args, **kwargs):
        tracked = kwargs.get("logs", "UV") is not None
        calls.append(tracked)
        if entries is not None:
            entries.append(len(args[2]))
        if precisions is not None:
            precisions.append(args[4])
        if shapes is not None:
            shapes.append(args[:2])
        if all_logs and tracked:
            kwargs["logs"] = "UV"
        res = snf(*args, **kwargs)
        if logs is not None:
            logs.append(res.logs)
        return res

    monkeypatch.setattr(cohomology, "sparse_snf", spy)
    if force_track:
        monkeypatch.setattr(cohomology, "_has_structural_class",
                            lambda _: True)
    return calls


def test_tracked_runs_keep_only_the_logs_generators_read(monkeypatch):
    # generators are read through the column log of map 0 and of the
    # restricted maps alone: the maps above map 0 have an incoming map of
    # positive rank, so their kernels are never read, and no reader in the
    # engine takes a row log.  Keeping every log changes no report
    for engine, build, nvars, window in (
            (mw_cohomology, mw_complex, 2, 12),
            (mw_cohomology, mw_complex, 3, 5),
            (compact_support_cohomology, compact_complex, 2, 8)):
        mod = trivial_module(nvars, P, 20, window)
        cdata = build(mod)
        maps = [(cdata.spaces[j + 1].dim, cdata.spaces[j].dim)
                for j in range(len(cdata.matrices))]
        kept, shapes = [], []
        calls = _snf_calls(monkeypatch, logs=kept, shapes=shapes)
        got = repr(engine(mod).report)
        monkeypatch.undo()
        _snf_calls(monkeypatch, all_logs=True)
        want = repr(engine(mod).report)
        monkeypatch.undo()
        assert got == want
        # every map once, tracked, in order, then the restricted maps
        assert all(calls) and shapes[:len(maps)] == maps
        assert kept[:len(maps)] == ["V"] + [""] * (len(maps) - 1)
        assert len(kept) > len(maps)
        assert kept[len(maps):] == ["V"] * (len(kept) - len(maps))


def _line_with_precision_class():
    # d + 3 dx on the line window [0, 12] at p = 3, M = 8: both maps' rank
    # bounds leave no class, yet one degree-0 class survives at precision
    ring = trivial_module(1, P, 8, 12).ring
    gam = SeriesMatrix.make(ring, [[Series.from_ints(ring, {(0,): 3})]])
    return SigmaNablaModule(ring, 1, gammas=(("x", gam),))


def test_rank_only_pass_reruns_the_generator_source(monkeypatch):
    mod = _line_with_precision_class()
    calls = _snf_calls(monkeypatch)
    cc = mw_cohomology(mod)
    # map 0 runs rank-only, then again tracked for degree 0's generators
    assert calls == [False, True]
    assert cc.report.degrees[0].raw_dim == 1
    monkeypatch.undo()
    _snf_calls(monkeypatch, force_track=True)
    assert repr(mw_cohomology(mod).report) == repr(cc.report)


def _constant_plane(ring, f, g):
    return SigmaNablaModule(ring, 1, gammas=tuple(
        (v, SeriesMatrix.make(ring, [[Series.from_ints(ring, c)]]))
        for v, c in (("x", f), ("y", g))))


def test_rank_only_plane_without_classes(monkeypatch):
    rng = random.Random(7)
    ring = RingDescriptor(TATE, ("x", "y"), ((0, 10),) * 2, P, 20)
    f = {(i, 0): rng.choice([1, 2, 4, 5, 7, 8]) for i in range(3)}
    g = {(0, i): rng.choice([1, 2, 4, 5, 7, 8]) for i in range(3)}
    mod = _constant_plane(ring, f, g)
    entries, precisions = [], []
    calls = _snf_calls(monkeypatch, entries=entries, precisions=precisions)
    cc = mw_cohomology(mod)
    assert calls == [False, False]     # no map is ever reduced tracked
    assert cc.report.dims() == {0: 0, 1: 0, 2: 0}
    # the top map is reduced without the cells d_0 pairs off, and certifies
    assert entries[0] == len(cc.cdata.matrices[0])
    assert entries[1] < len(cc.cdata.matrices[1])
    # both reach full rank mod 3^18, the largest power of 3 in one digit
    assert [N for N, _ in cc.cdata.scalings] == [20, 20]
    assert precisions == [digit_precision(P, 20)] * 2
    monkeypatch.undo()
    _snf_calls(monkeypatch, force_track=True)
    assert repr(mw_cohomology(mod).report) == repr(cc.report)


def test_rank_only_plane_with_classes(monkeypatch):
    # d + 3 dx + 3 dy on the plane window [0, 40] at p = 3, M = 20: no
    # structural class, yet one degree-0 class survives at precision.  Map
    # 0 falls short of full rank mod 3^18 and is reduced tracked mod 3^20
    # at once, the rerun its degree-0 generator needs anyway; the pruned
    # top map falls short too, and is replaced the same way, so the top
    # degree reads its generator without a rerun
    ring = RingDescriptor(TATE, ("x", "y"), ((0, 40),) * 2, P, 20)
    mod = _constant_plane(ring, {(0, 0): 3}, {(0, 0): 3})
    precisions = []
    calls = _snf_calls(monkeypatch, precisions=precisions)
    cc = mw_cohomology(mod)
    assert cc.report.dims() == {0: 1, 1: 0, 2: 0}
    assert [cc.report.degrees[j].raw_dim for j in range(3)] == [1, 2, 1]
    K = digit_precision(P, 20)
    # map 0 at K, then tracked; the top map pruned at K, then tracked; the
    # restricted map degree 1's generators are read from
    assert list(zip(calls, precisions)) == [
        (False, K), (True, 20), (False, K), (True, 20), (True, 20)]
    monkeypatch.undo()
    _snf_calls(monkeypatch, force_track=True)
    assert repr(mw_cohomology(mod).report) == repr(cc.report)


def test_rank_only_divisor_between_one_digit_and_full_precision(monkeypatch):
    # t d/dt + 3^18 on the Robba window -5..5 at p = 3, M = 20: the divisor
    # 3^18 at t^0 vanishes mod 3^18, the one-digit precision, so map 0 misses
    # full rank there and is reduced tracked mod 3^20, where it reaches it
    ring = RingDescriptor(ROBBA, ("t",), ((-5, 5),), P, 20,
                          slope=Fraction(1))
    conn = SeriesMatrix.make(ring, [[Series.from_ints(ring, {(0,): 3 ** 18})]])
    mod = SigmaNablaModule(ring, 1, connection=conn)
    precisions = []
    calls = _snf_calls(monkeypatch, precisions=precisions)
    cc = local_cohomology(mod)
    assert cc.report.dims() == {0: 0, 1: 0}
    assert cc.report.precision_gap == 2
    assert digit_precision(P, 20) == 18
    assert list(zip(calls, precisions)) == [(False, 18), (True, 20)]
    monkeypatch.undo()
    _snf_calls(monkeypatch, force_track=True)
    assert repr(local_cohomology(mod).report) == repr(cc.report)


# -- the top map of a rank-only complex, pruned -------------------------------

PRUNE_POOL = (1, 2, -1, 4, 5, 3, 6, "1/3", "-2/9", "O(p^2)")
PAST_ONE_DIGIT = {2: 30, 3: 19, 5: 13}     # the least M with p^M past it


def _pruning_module(seed, past_digit=False):
    """(module, flat): a seeded module on a 2- or 3-variable Tate window at
    p = 2, 3 or 5, with 1/3, -2/9 and O(p^2) among its coefficients.  Half
    are rank one with Gamma_v a series in x_v alone, which is flat; the
    rest are rank one or two with terms in every variable, in general not
    flat.  With ``past_digit``, M is up to two past the least M whose p^M
    does not fit one machine digit."""
    rng = random.Random(seed)
    p, n, M = rng.choice((2, 3, 5)), rng.choice((2, 2, 3)), rng.randint(6, 10)
    if past_digit:
        M = PAST_ONE_DIGIT[p] + rng.randint(0, 2)
    window = [rng.randint(3, 6) if n == 2 else rng.randint(2, 3)
              for _ in range(n)]
    ring = RingDescriptor(TATE, tuple("xyz"[:n]),
                          tuple((0, h) for h in window), p, M)
    flat = rng.random() < 0.5
    rank = 1 if flat else rng.choice((1, 2))

    def series(v):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            E = tuple(rng.randint(0, h) if u == v or not flat else 0
                      for u, h in enumerate(window))
            terms[E] = parse_scalar(str(rng.choice(PRUNE_POOL)), p, M)
        return Series.make(ring, terms)

    return SigmaNablaModule(ring, rank, gammas=tuple(
        (name, SeriesMatrix.make(ring, [[series(v) for _ in range(rank)]
                                        for _ in range(rank)]))
        for v, name in enumerate(ring.variables))), flat


def _top_map_outcome(cdata):
    """How the engine reduces the top map, recomputed from the complex:
    "tracked" (some degree has a structural class), "whole" (no map
    below, or it pairs off no column the top map has) or "precheck" (the
    pruned entries meet fewer rows or columns than the map has rows), when
    the map is reduced in full mod p^K, K the one-digit precision; "rank"
    or "gap" (the pruned result misses full row rank mod p^K, or its gap
    term is below the least of the maps below), when the map is reduced
    again, tracked, in full, mod p^N; or "pruned" (the pruned result
    stands).  The map below pairs off the level-0 pivot rows of its
    reduction: map 0 is reduced mod p^K, and tracked mod p^N when it misses
    full rank there."""
    if cohomology._has_structural_class(cdata):
        return "tracked"
    maps, spaces, p = cdata.matrices, cdata.spaces, cdata.p
    if len(maps) < 2:
        return "whole"
    exact = [sparse_snf(spaces[j + 1].dim, spaces[j].dim, maps[j], p, N,
                        logs=None)
             for j, (N, _) in enumerate(cdata.scalings[:-1])]
    gap = min(s.certification_gap() - shift
              for s, (_, shift) in zip(exact, cdata.scalings))
    if len(exact) == 1:
        N = cdata.scalings[0][0]
        first = sparse_snf(spaces[1].dim, spaces[0].dim, maps[0], p,
                           digit_precision(p, N), logs=None)
        if len(first.pivots) == min(spaces[1].dim, spaces[0].dim):
            exact[0] = first
        else:
            exact[0] = sparse_snf(spaces[1].dim, spaces[0].dim, maps[0], p,
                                  N)
    paired = {r for r, _, e in exact[-1].pivots if e == 0}
    top = maps[-1]
    kept = {(r, c): x for r, c, x in zip(top.rows, top.cols, top.vals)
            if c not in paired}
    if len(kept) == len(top):
        return "whole"
    target = spaces[-1].dim
    if len({r for r, _ in kept}) < target or len({c for _, c in kept}) \
            < target:
        return "precheck"
    N, shift = cdata.scalings[-1]
    K = digit_precision(p, N)
    pruned = sparse_snf(target, spaces[-2].dim, triples(kept), p, K,
                        logs=None)
    if pruned.rank() < target:
        return "rank"
    return "gap" if pruned.certification_gap() + N - K - shift < gap \
        else "pruned"


def test_pruned_top_map_gives_the_reports_of_full_reductions(monkeypatch):
    # the reference reduces every map tracked, in full, mod p^N; the cuts
    # must change no byte of any report, and each map is reduced at most
    # twice, at most once tracked.  The maps are told apart by shape, which
    # the restricted maps generators are read from do not share.  Some
    # seeds take M past one machine digit, where map 0 and the top map are
    # first reduced at a lower precision than the others
    seen = {}
    for seed in range(90):
        past_digit = seed >= 60
        mod, flat = _pruning_module(seed, past_digit)
        for engine, build in ((mw_cohomology, mw_complex),
                              (compact_support_cohomology, compact_complex)):
            cdata = build(mod)
            outcome = _top_map_outcome(cdata)
            seen.setdefault(outcome, set()).add(
                (len(mod.ring.variables), flat, past_digit))
            maps = [(cdata.spaces[j + 1].dim, cdata.spaces[j].dim)
                    for j in range(len(cdata.matrices))]
            assert len(set(maps)) == len(maps), seed
            shapes = []
            calls = _snf_calls(monkeypatch, shapes=shapes)
            got = repr(engine(mod).report).encode()
            monkeypatch.undo()
            _snf_calls(monkeypatch, force_track=True)
            want = repr(engine(mod).report).encode()
            monkeypatch.undo()
            assert got == want, (seed, engine.__name__, outcome)
            for shape in maps:
                tracks = [t for t, s in zip(calls, shapes) if s == shape]
                assert len(tracks) <= 2 and sum(tracks) <= 1, \
                    (seed, engine.__name__, outcome, shape)
    assert {"pruned", "rank", "precheck", "gap"} <= set(seen)
    assert {(n, flat) for n, flat, _ in seen["pruned"]} \
        >= {(2, True), (2, False), (3, True), (3, False)}
    assert {past for _, _, past in seen["pruned"] | seen["rank"]} \
        == {False, True}


def test_compact_known_answers():
    c1 = compact_support_cohomology(trivial_module(1, P, 10, 40))
    assert c1.report.dims() == {1: 0, 2: 1}
    gen = c1.report.generators(2)[0]
    ((lbl, _),) = gen.records()
    assert lbl == (0, (0,), (1,))          # the dlog volume class
    c2 = compact_support_cohomology(trivial_module(2, P, 10, 12))
    assert c2.report.dims() == {2: 0, 3: 0, 4: 1}
    ((lbl2, _),) = c2.report.generators(4)[0].records()
    assert lbl2 == (0, (0, 1), (1, 1))


def test_compact_berthelot_shape():
    # trivial module: nonzero only in the top degree across n..2n
    for n, w in ((1, 30), (2, 10)):
        cc = compact_support_cohomology(trivial_module(n, P, 10, w))
        dims = cc.report.dims()
        assert dims == {n + j: (1 if j == n else 0) for j in range(n + 1)}


def test_local_divergent_solution_not_certified():
    # t d/dt - 1/t has the divergent formal solution exp(-1/t): it fills the
    # window but its slope trend keeps falling at the edge, so the class is
    # a window artifact and must not be certified
    ring = RingDescriptor(ROBBA, ("t",), ((-12, 12),), P, 10,
                          slope=Fraction(1))
    conn = SeriesMatrix.make(ring, [[Series.monomial(ring, (-1,), -1)]])
    mod = SigmaNablaModule(ring, 1, connection=conn)
    rep = local_cohomology(mod).report
    assert rep.dims() == {0: 0, 1: 0}
    assert rep.degrees[0].raw_dim == 1 and rep.degrees[0].edge_excluded == 1



def _rule_inputs(window=6):
    """The trivial plane's mw complex on 0..window (band 1, top edge only)
    and the local complex of t d/dt - 1/t on -window..window (band 2, both
    edges), each with a builder of degree-0 vectors from {exponent: int}."""
    mw = mw_complex(trivial_module(2, P, 8, window))
    ring = RingDescriptor(ROBBA, ("t",), ((-window, window),), P, 10,
                          slope=Fraction(1))
    conn = SeriesMatrix.make(ring, [[Series.monomial(ring, (-1,), -1)]])
    loc = local_complex(SigmaNablaModule(ring, 1, connection=conn))
    out = []
    for cdata in (mw, loc):
        sp = cdata.spaces[0]
        out.append((cdata, sp, lambda terms, sp=sp: {
            sp.index((0, (), I)): x for I, x in terms.items()}))
    return out


def test_edge_rule_on_hand_built_vectors():
    edge = cohomology._edge_supported
    (mw, sp, vec), (loc, lsp, lvec) = _rule_inputs()
    assert mw.band == (1, 1) and not mw.two_sided
    assert edge(vec({(6, 0): 1, (2, 6): 1}), sp, mw)
    # one term off the band certifies the class
    assert not edge(vec({(6, 0): 1, (2, 3): 1}), sp, mw)
    # a Tate window has no lower edge
    assert not edge(vec({(0, 3): 1}), sp, mw)
    # a Robba window has both: -5 is within 2 of -6, -4 is not
    assert loc.band == (2,) and loc.two_sided
    assert edge(lvec({(-6,): 1, (-5,): 1, (6,): 1}), lsp, loc)
    assert not edge(lvec({(-6,): 1, (-4,): 1}), lsp, loc)
    # a constant connection moves no exponent: band 0, no edge at all
    flat = local_complex(_constant_robba("1/2"))
    fsp = flat.spaces[0]
    assert flat.band == (0,)
    assert not edge({fsp.index((0, (), (5,))): 1}, fsp, flat)


def test_slope_rule_on_hand_built_vectors():
    limited = cohomology._slope_edge_limited
    (mw, sp, vec), (loc, lsp, lvec) = _rule_inputs()
    # slope 0 on a Tate window: the least valuation, at the top edge or not
    assert limited(vec({(6, 2): 1, (0, 3): 3}), sp, mw)
    assert not limited(vec({(6, 2): 3, (0, 3): 1}), sp, mw)
    # slope 1 on a Robba window: the least v_p(x) + I at the lower edge,
    # inside, or tied between the top edge and the inside
    assert limited(lvec({(-6,): 1, (0,): 1}), lsp, loc)
    assert not limited(lvec({(-6,): 3 ** 3, (-5,): 1}), lsp, loc)
    assert not limited(lvec({(6,): 1, (0,): 3 ** 6}), lsp, loc)

def test_rank_one_gamma_module():
    # Gamma = x: kernel empty, cokernel empty on the window at precision
    ring = trivial_module(1, P, 10, 24).ring
    gam = SeriesMatrix.make(ring, [[Series.monomial(ring, (1,))]])
    mod = SigmaNablaModule(ring, 1, gammas=(("x", gam),))
    dims = mw_cohomology(mod).report.dims()
    assert dims[0] == 0


def test_truncation_loss_recorded():
    ring = trivial_module(1, P, 10, 6).ring
    gam = SeriesMatrix.make(ring, [[Series.monomial(ring, (5,))]])
    mod = SigmaNablaModule(ring, 1, gammas=(("x", gam),))
    cdata = mw_complex(mod)
    assert cdata.loss is not None


# -- pinned builder output ----------------------------------------------------
#
# The SNF inputs, and through them every pivot, generator and report, are read
# off the assembled complexes.  The digests below pin the exact output of every
# complex builder: labels in order, the integer entries mod p^N in insertion
# order, (N, shift), the precision floor, the loss and the window data.

PM = 8


def _tok(text):
    return parse_scalar(str(text), P, PM)


PLAIN = (1, 2, 4, 5, 7, 8, 3, 6, 9, -1, -2)
NEGVAL = PLAIN + ("1/3", "2*p^-1")
LIMITED = PLAIN + ("5*p^0@3", "O(p^2)")


def _poly(ring, rng, pool, nterms, lo, hi, forced=()):
    terms = {tuple(rng.randint(lo, hi) for _ in ring.variables):
             _tok(rng.choice(pool)) for _ in range(nterms)}
    for tok in forced:
        terms[tuple(rng.randint(lo, hi) for _ in ring.variables)] = _tok(tok)
    return Series.make(ring, terms)


def _tate_module(seed, window, rank, pool, forced=()):
    rng = random.Random(seed)
    names = "xyz"[:len(window)]
    ring = RingDescriptor(TATE, tuple(names), tuple((0, h) for h in window),
                          P, PM)
    gammas = []
    for v, h in zip(names, window):
        rows = [[_poly(ring, rng, pool, 2, 0, h,
                       forced if (a, b, v) == (0, rank - 1, names[0]) else ())
                 for b in range(rank)] for a in range(rank)]
        gammas.append((v, SeriesMatrix.make(ring, rows)))
    return SigmaNablaModule(ring, rank, gammas=tuple(gammas))


def _robba_module(seed, window, rank, pool, forced=(), slope=1, lo=-3):
    rng = random.Random(seed)
    ring = RingDescriptor(ROBBA, ("t",), (window,), P, PM,
                          slope=Fraction(slope))
    rows = [[_poly(ring, rng, pool, 3, lo, 3,
                   forced if (a, b) == (0, rank - 1) else ())
             for b in range(rank)] for a in range(rank)]
    return SigmaNablaModule(ring, rank,
                            connection=SeriesMatrix.make(ring, rows))


def _constant_robba(coeff, window=(-5, 5)):
    ring = RingDescriptor(ROBBA, ("t",), (window,), P, PM, slope=Fraction(1))
    conn = SeriesMatrix.make(ring, [[Series.make(ring, {(0,): _tok(coeff)})]])
    return SigmaNablaModule(ring, 1, connection=conn)


def _tate_modules():
    return [
        _tate_module(1, (4, 3), 2, PLAIN),              # off-diagonal Gamma
        _tate_module(2, (2, 3, 2), 1, PLAIN),           # three variables
        _tate_module(3, (3, 3), 2, NEGVAL, ("1/3", "2*p^-1")),
        _tate_module(4, (3, 4), 2, LIMITED, ("5*p^0@3", "O(p^2)")),
        _tate_module(5, (5,), 2, NEGVAL, ("1/3", "2*p^-1")),
        _tate_module(6, (5,), 2, LIMITED, ("5*p^0@3", "O(p^2)")),
    ]


def _robba_modules():
    return [
        _robba_module(7, (-5, 5), 2, PLAIN),
        _robba_module(8, (-4, 6), 2, NEGVAL, ("1/3", "2*p^-1"),
                      Fraction(1, 2)),
        _robba_module(9, (-5, 5), 2, LIMITED, ("5*p^0@3", "O(p^2)")),
        _constant_robba(-1),            # cancels against t d/dt at t^1
        _constant_robba("-3/2"),
        _constant_robba("5*p^0@3"),
        _constant_robba("O(p^2)"),
        _constant_robba("1/3"),
    ]


def _line_side_modules():
    """Annulus-side transports of line modules, as the pushforward builds
    them; the narrow annulus drops the high line exponents."""
    out = []
    for mod in _tate_modules()[4:]:
        for window in ((-7, 7), (-6, 2)):
            ring = RingDescriptor(ROBBA, ("t",), (window,), P, PM,
                                  slope=Fraction(1))
            out.append(robba_side_module(mod, ring))
    line = _tate_module(10, (5,), 2, PLAIN)
    out.append(robba_side_module(line, RingDescriptor(
        ROBBA, ("t",), ((-6, 6),), P, PM, slope=Fraction(1))))
    # a negative-valuation term that never lands leaves the shift at 0
    ring = RingDescriptor(TATE, ("x",), ((0, 5),), P, PM)
    gam = SeriesMatrix.make(ring, [[Series.make(
        ring, {(0,): _tok(2), (5,): _tok("1/3")})]])
    out.append(robba_side_module(
        SigmaNablaModule(ring, 1, gammas=(("x", gam),)),
        RingDescriptor(ROBBA, ("t",), ((-6, 2),), P, PM, slope=Fraction(1))))
    # positive exponents reach above the window and record loss
    out += [_robba_module(11, (-5, 5), 2, PLAIN, lo=1),
            _robba_module(12, (-5, 4), 2, NEGVAL, ("1/3", "2*p^-1"), lo=1)]
    return out


def _emitted(cdata):
    """(integer entries in order, N, shift, floor) of each differential."""
    return [([((r, c), x) for r, c, x in zip(ints.rows, ints.cols, ints.vals)],
             N, shift, floor) for ints, (N, shift), floor
            in zip(cdata.matrices, cdata.scalings, cdata.floors)]


def _complex_digest(cdata) -> str:
    payload = ([s.labels for s in cdata.spaces], _emitted(cdata),
               str(cdata.loss), cdata.band, cdata.window_hi, cdata.window_lo,
               cdata.two_sided, str(cdata.slope), cdata.p, cdata.M)
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


PINNED_BUILDER_DIGESTS = {
    "mw": [
        "ca30a8b79240b98398c00379d7b6bc8d7b4d246189987a59c7175812dbe03c4f",
        "d25cebdb818b98435a12422f104a60ffeca3a9c0254c4904554e9c75d895ddfc",
        "57dcc7e8f9cd86ac9c63efe5196feb895bd4c65c8892a91aa2c3e93a323d0936",
        "e5afda0b8fbb4abdc3a0b7f3db6aa88dc6761bd6fa9a83c8c282621b1b4ad5cb",
        "0fa5600fc1360269d71fbd508466d67bc314039a466ee51410238aa1de4b931a",
        "c3578975354d7031c9cd43af99078222bc87c5cf861caac2a613ac202995df35",
    ],
    "compact": [
        "8556d6d2fa1d9fc14abf8b60eccfdcdbda918fa71322c2743e0c98222637faaa",
        "c04deb1773a2b73ed7bd3d130d7a264c3b6a2853fb2f751746baf9f110b4e928",
        "8b91af2836f5ff5516c6f3740256e3feaa1513b7ce1a31877ce8376ffd1b1e37",
        "7bbd28df202412a13f175eadfb7c44a9fcf8baf6e32ab180083a306301e80b3e",
        "08b46e7055f6371faa6ea82637984f023192ad8bc12f84a675e4e3f5b83950fc",
        "c5e4906d80937b7f98490efb8c1e3c6593ac0918aee814f3c3e1ac21f74ff930",
    ],
    "local": [
        "6345622627046c2b9d2cc2dbd02e99e47c251709bdf110b8a122d0d1d8ef4411",
        "3063f5129ddbcf98a41112eab13a5c5220d8c221b021451c06c6fe6d5d085033",
        "ecc11fcf9d76153c87e14b67ef5658e544d0679209805ad0a6ac1276ec8e7bf3",
        "f1ddea56ecee357e9ebabecb95d0218146de1967b62a18ddb947a9a56e9380fe",
        "96bb567767bb369aef58b6ccd11e27f47cf6577399ad61bfdaa8ec8fb4124089",
        "9b6f7e0dc4bee6d8a99848e34c733a7c3f75a1b7662983b01ab730352f38bf63",
        "4ab11dcf81968c65da72939e800c3f5749d9f652eb67c42ddad2a4d29f92be30",
        "0b293bd6444c50ff289f695d6eeccedce15f8f6aa47b0488d0a45d4750fcea1f",
    ],
    "quotient": [
        "c81a64d5d7d60a9b4aa9b4a25608e51597054907ae31295c05c84cf0751b9ee7",
        "4aa82f6f9d7b3cafa1fa958fce8b584705cbc7dfc7e4136213473cede7ee436a",
        "2482dd258e2f6da3f8b8c162a9909aab20bdb0fe17e100af4d6404207284efca",
        "bd1c5fa80641769f27728c33c5528130ed2dcd5cbd8622ea317d93e3068a1ece",
        "e7b0cb77d9a3b0243ca555b24e095b15b9cf3d14c2a7503b6b08c181265edae9",
        "90c02a1dd30fa1c5bc540288bec529516729dcc1d9fcf5c0c8a89e9a84d89a1f",
        "585a23116dc4139c91898505be582337653ab0f6baae55eecc9436c06d3b7602",
        "0114e2a23de169516f3099e2e86cb67515fd976e02f2b3053450a20ef6fa7ee6",
    ],
    "vertical":
        "12bad3ea03c2342a35aa45809e7a3746ea932fed2d7d79138413a0782ae2a07e",
}


def _vertical_ranks(module, fi):
    """(rank, kernel dim, source dim, target dim) of the plane's vertical
    map, on which only the fiber variable x_fi acts."""
    ring = module.ring
    box = ((0,) * len(ring.window), tuple(hi for _, hi in ring.window))
    cdata = cohomology._assemble(
        ring, module.rank, [box, box], (fi,),
        {fi: cohomology._terms(module.gamma(ring.variables[fi]))},
        cohomology.D_X, False)
    src, dst = cdata.spaces
    r = sparse_snf(dst.dim, src.dim, cdata.matrices[0], cdata.p,
                   cdata.scalings[0][0], logs=None).rank()
    return r, src.dim - r, src.dim, dst.dim


def _builder_digests():
    tate, robba, line = _tate_modules(), _robba_modules(), _line_side_modules()
    return {
        "mw": [_complex_digest(mw_complex(m)) for m in tate],
        "compact": [_complex_digest(compact_complex(m)) for m in tate],
        "local": [_complex_digest(local_complex(m)) for m in robba],
        "quotient": [_complex_digest(quotient_complex(m)) for m in line],
        "vertical": _digest([_vertical_ranks(m, fi) for m in tate
                             if len(m.ring.variables) == 2 for fi in (0, 1)]),
    }


def test_pinned_builder_output():
    assert _builder_digests() == PINNED_BUILDER_DIGESTS


def _run_shipped():
    """Run every shipped problem, the acceptance battery (selftest) left
    out."""
    from ovc.cli import run_command
    from ovc.problems import parse_problem

    root = Path(__file__).resolve().parent.parent / "problems"
    for path in sorted(root.glob("*.ovc")):
        text = path.read_text(encoding="utf-8")
        if "\ncommand selftest" not in "\n" + text:
            run_command(parse_problem(text))


def _shipped_complexes(monkeypatch):
    """Every complex ``_assemble`` builds while the shipped problems run."""
    built, assemble = [], cohomology._assemble

    def spy(*args):
        built.append(assemble(*args))
        return built[-1]

    monkeypatch.setattr(cohomology, "_assemble", spy)
    _run_shipped()
    monkeypatch.undo()
    return built


def test_assembled_maps_meet_the_snf_precondition(monkeypatch):
    # sparse_snf files the entries in list order, and a repeated (row, col)
    # pair would overwrite the earlier value there; it files them in lists
    # indexed by position, where a negative index would wrap silently; the
    # maps also hold no zero and go column by column, so the kernel looks
    # each column up once and ComplexData.column reads a column as a slice
    shipped = _shipped_complexes(monkeypatch)
    tate, robba, line = _tate_modules(), _robba_modules(), _line_side_modules()
    complexes = shipped + [build(m) for m in tate
                           for build in (mw_complex, compact_complex)] \
        + [local_complex(m) for m in robba] \
        + [quotient_complex(m) for m in line]
    assert len(shipped) >= 10
    assert {m.rank for m in tate + robba + line} == {1, 2}
    for cdata in complexes:
        for m in cdata.matrices:
            assert len(m.rows) == len(m.cols) == len(m.vals) == len(m)
            assert len(set(zip(m.rows, m.cols))) == len(m)
            assert all(m.vals)
            assert all(a <= b for a, b in zip(m.cols, m.cols[1:]))
        for j, m in enumerate(cdata.matrices):
            nrows, ncols = cdata.spaces[j + 1].dim, cdata.spaces[j].dim
            assert all(0 <= r < nrows for r in m.rows)
            assert all(0 <= c < ncols for c in m.cols)
            for c in range(ncols):
                assert cdata.column(j, c) == [
                    (r, x) for r, cc, x in zip(m.rows, m.cols, m.vals)
                    if cc == c]


def test_every_engine_snf_call_meets_the_index_precondition(monkeypatch):
    # sparse_snf does not scan its indices, so every caller must keep 0 <=
    # row < nrows and 0 <= col < ncols.  The spy sits in every module that
    # holds the kernel, while the shipped problems run, together with seeded
    # modules whose top map is reduced pruned of its paired columns and a
    # line whose rank-only map 0 is reduced again for its generators
    snf, sites, bad = sparse_snf, Counter(), []

    def spy(nrows, ncols, entries, *args, **kwargs):
        caller = sys._getframe(1)
        site = caller.f_code.co_name
        if entries is caller.f_locals.get("cut"):
            site = "pruned cut"
        elif entries is caller.f_locals.get("bent"):
            site = "free-row restriction"
        sites[site] += 1
        if not (all(0 <= r < nrows for r in entries.rows)
                and all(0 <= c < ncols for c in entries.cols)):
            bad.append(site)
        return snf(nrows, ncols, entries, *args, **kwargs)

    holders = [m for name, m in sys.modules.items()
               if name.startswith("ovc.") and
               getattr(m, "sparse_snf", None) is snf]
    for module in holders:
        monkeypatch.setattr(module, "sparse_snf", spy)
    _run_shipped()
    for seed in range(12):
        mod, _ = _pruning_module(seed)
        mw_cohomology(mod)
        compact_support_cohomology(mod)
    mw_cohomology(_line_with_precision_class())
    assert {m.__name__ for m in holders} >= {
        "ovc.cohomology", "ovc.pairing", "ovc.pushforward", "ovc.unipotent"}
    assert set(sites) >= {"_reduce", "pruned cut", "_extract_generators",
                          "free-row restriction", "_solver", "_matrix_rank",
                          "pairing_nondegeneracy_check", "h0_h1_unipotent"}
    assert bad == []


def test_box_layout_orders_a_box_by_deglex():
    # seeded boxes of 1 to 3 variables, with negative (Robba) lows, inside a
    # padded frame: the exponents come out in deglex order, and the map from
    # frame code to rank inverts the codes and is -1 on every other cell
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 3)
        lo = [rng.randint(-4, 3) for _ in range(n)]
        hi = [l + rng.randint(0, 4) for l in lo]
        pad = [rng.randint(0, 2) for _ in range(n)]
        frame_lo = [l - d for l, d in zip(lo, pad)]
        widths = [h - l + 1 + 2 * d for l, h, d in zip(lo, hi, pad)]
        strides = [1] * n
        for v in range(n - 2, -1, -1):
            strides[v] = strides[v + 1] * widths[v + 1]
        exps, codes, where = cohomology._box_layout(
            tuple(lo), tuple(hi), frame_lo, widths, strides)
        box = list(product(*(range(l, h + 1) for l, h in zip(lo, hi))))
        assert list(exps) == sorted(box, key=deglex_key)
        assert codes == [sum((x - f) * w for x, f, w in
                             zip(I, frame_lo, strides)) for I in exps]
        assert len(where) == strides[0] * widths[0]
        assert all(where[c] == r for r, c in enumerate(codes))
        assert sum(1 for r in where if r != -1) == len(codes)


# -- the truncation loss, cell by cell -----------------------------------------

def _loss_oracle(ring, rank, boxes, acting, terms, deriv, kill_below):
    """The loss of ``_assemble``'s inputs, taken over every dropped target:
    a connection term adds c.val + slope * (its target's total degree) unless
    ``kill_below`` kills a target below the box, and a derivative target
    outside the box adds 0."""
    slope = Fraction(ring.slope or 0)
    exp_sign, step = deriv
    losses = []

    def inside(I, box):
        return all(lo <= x <= hi for x, lo, hi in zip(I, *box))

    for j in range(len(boxes) - 1):
        src, dst = boxes[j], boxes[j + 1]
        for I in product(*(range(lo, hi + 1) for lo, hi in zip(*src))):
            for J in combinations(acting, j):
                for i in acting:
                    if i in J:
                        continue
                    target = [x + (step if v == i else 0)
                              for v, x in enumerate(I)]
                    if I[i] and not inside(target, dst):
                        losses.append(Fraction(0))
                    for _, _, E, c in terms.get(i, ()):
                        I2 = [x + exp_sign * e for x, e in zip(I, E)]
                        if inside(I2, dst) or c.val is None:
                            continue
                        if kill_below and any(x < lo
                                              for x, lo in zip(I2, dst[0])):
                            continue
                        losses.append(c.val + slope * sum(I2))
    return min(losses) if losses else None


def test_loss_matches_the_cell_by_cell_oracle(monkeypatch):
    # the builder records each term's loss at its first drop; the oracle
    # takes every drop, so the two agree only if the first is the least
    seen = []
    original = cohomology._assemble

    def recording(*args):
        cdata = original(*args)
        seen.append((str(cdata.loss), str(_loss_oracle(*args))))
        return cdata

    monkeypatch.setattr(cohomology, "_assemble", recording)
    tate = _tate_modules() + [
        _tate_module(seed, window, 2, pool, forced)
        for seed, window in ((20, (3, 3)), (21, (4, 2)), (22, (2, 2, 2)))
        for pool, forced in ((NEGVAL, ("1/3",)),
                             (LIMITED, ("O(p^2)", "5*p^0@3")))]
    robba = _robba_modules() + [
        _robba_module(seed, window, 2, pool, forced, slope, lo=1)
        for seed, window in ((30, (-5, 5)), (31, (-4, 6)))
        for slope in (1, Fraction(1, 2))
        for pool, forced in ((PLAIN, ()), (NEGVAL, ("1/3",)),
                             (LIMITED, ("5*p^0@3", "O(p^2)")))]
    for m in tate:
        mw_complex(m)
        compact_complex(m)
    for m in robba:
        local_complex(m)
    for m in robba + _line_side_modules():
        quotient_complex(m)
    assert len(seen) == 2 * len(tate) + len(robba) \
        + len(robba + _line_side_modules())
    assert [got for got, _ in seen] == [want for _, want in seen]
    # the cases reach dropped terms at several degrees and slopes
    losses = {got for got, _ in seen}
    assert "None" in losses and "0" in losses
    assert any("/" in x for x in losses) and any(x.startswith("-")
                                                 for x in losses)


# -- d o d = 0, checked by Freivalds' method ----------------------------------

def _apply(matrix, vec):
    out = {}
    for r, c, x in zip(matrix.rows, matrix.cols, matrix.vals):
        if c in vec:
            out[r] = out.get(r, 0) + x * vec[c]
    return out


def _dd_images(cdata, seed):
    """d_(j+1) d_j of a seeded random integer vector for each j, mod p^M,
    zeros left out (Freivalds, "Probabilistic machines can use less running
    time", IFIP Congress 1977).  Each map holds its values times p^shift
    known modulo p^(M+shift), so a flat complex is only promised a product
    divisible by p^M: with shifts 2 and 2 at M = 12 it can have valuation
    13."""
    rng = random.Random(seed)
    mod = cdata.p ** cdata.M
    out = []
    for j in range(len(cdata.matrices) - 1):
        vec = {c: rng.randrange(mod) for c in range(cdata.spaces[j].dim)}
        image = _apply(cdata.matrices[j + 1], _apply(cdata.matrices[j], vec))
        out.append({r: x % mod for r, x in image.items() if x % mod})
    return out


def _split_plane(f, g, M=12, window=6):
    """Rank one, Gamma_x = f(x) and Gamma_y = g(y): the curvature
    d_x g - d_y f + [f, g] vanishes."""
    ring = RingDescriptor(TATE, ("x", "y"), ((0, window),) * 2, P, M)

    def gamma(terms, exp):
        return SeriesMatrix.make(ring, [[Series.make(ring, {
            exp(e): parse_scalar(str(c), P, M) for e, c in terms.items()})]])

    return SigmaNablaModule(ring, 1, gammas=(
        ("x", gamma(f, lambda e: (e, 0))), ("y", gamma(g, lambda e: (0, e)))))


FLAT = (trivial_module(2, P, 20, 8), trivial_module(3, P, 20, 4),
        unit_constant_module(P, 20, 8, nvars=2),
        _split_plane({0: 1, 1: "1/3"}, {0: 2, 2: "1/9"}))
ONE_VAR = st.dictionaries(st.integers(0, 2),
                          st.sampled_from((1, 2, -1, 5, "1/3", "-2/3", "1/9")),
                          max_size=3)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(ONE_VAR, ONE_VAR, st.integers(0, 2 ** 32 - 1))
def test_d_squared_vanishes_on_flat_modules(f, g, seed):
    for mod in FLAT + (_split_plane(f, g),):
        for build in (mw_complex, compact_complex):
            images = _dd_images(build(mod), seed)
            assert images == [{}] * len(images)


def test_d_squared_detects_curvature():
    # Gamma_x = y, Gamma_y = 0 has curvature -1
    ring = RingDescriptor(TATE, ("x", "y"), ((0, 6),) * 2, P, 12)
    mod = SigmaNablaModule(ring, 1, gammas=(
        ("x", SeriesMatrix.make(ring, [[Series.monomial(ring, (0, 1))]])),
        ("y", SeriesMatrix.zero(ring, 1))))
    for build in (mw_complex, compact_complex):
        assert any(_dd_images(build(mod), 1))


# -- generator extraction ----------------------------------------------------

SMALL = (3, 6, 9, 27, -3, "1/3")
DEEP = (9, 27, 18, 81, -9, 3)


def _extraction_oracle(cdata, snfs, j, count):
    """Degree-j generators read through U^-1 of d_(j-1), replayed column by
    column: the quotient is spanned by the U^-1 columns at the non-pivot
    rows, and d_j composed with those columns is reduced for its kernel."""
    prev = snfs[j - 1]
    pivot_rows = {r for r, _, e in prev.pivots if e < prev.N}
    nonpivot = [r for r in range(cdata.spaces[j].dim) if r not in pivot_rows]
    uinv = {q: prev.apply_Uinv({q: 1}) for q in nonpivot}
    if j == len(cdata.spaces) - 1:
        return [uinv[q] for q in nonpivot][: count]
    N2 = cdata.scalings[j][0]
    bent = {}
    for qi, q in enumerate(nonpivot):
        for mid, xm in uinv[q].items():
            for r, x in cdata.column(j, mid):
                bent[(r, qi)] = (bent.get((r, qi), 0) + x * xm) % P ** N2
    bent = {k: v for k, v in bent.items() if v}
    bsnf = sparse_snf(cdata.spaces[j + 1].dim, len(nonpivot), triples(bent),
                      P, N2)
    out = []
    for k in bsnf.kernel_basis()[: count]:
        vec = {}
        for qi, x in k.items():
            for r, y in uinv[nonpivot[qi]].items():
                vec[r] = vec.get(r, 0) + x * y
        out.append({r: v for r, v in vec.items() if v})
    return out


def test_extraction_matches_uinv_oracle():
    complexes = [
        ("mw", _tate_module(21, (6,), 2, SMALL)),
        ("mw", trivial_module(1, P, 8, 12)),
        ("mw", trivial_module(2, P, 8, 6)),
        ("mw", trivial_module(3, P, 8, 3)),
        ("compact", _tate_module(20, (6,), 2, SMALL)),
        ("compact", _tate_module(37, (4, 3), 1, SMALL)),
        ("compact", _tate_module(40, (2, 2, 2), 1, DEEP)),
    ]
    seen = set()
    for kind, mod in complexes:
        cdata = (mw_complex if kind == "mw" else compact_complex)(mod)
        snfs = [sparse_snf(cdata.spaces[j + 1].dim, cdata.spaces[j].dim,
                           ints, P, N)
                for j, (ints, (N, _)) in enumerate(zip(cdata.matrices,
                                                       cdata.scalings))]
        top = len(cdata.spaces) - 1
        for j in range(1, top + 1):
            raw = (cdata.spaces[j].dim - snfs[j - 1].rank()
                   - (snfs[j].rank() if j < top else 0))
            if raw <= 0 or snfs[j - 1].rank() == 0:
                continue
            vecs, scaling = cohomology._extract_generators(cdata, snfs, j,
                                                           raw)
            want = _extraction_oracle(cdata, snfs, j, raw)
            assert scaling == cdata.scalings[j - 1]
            assert [list(v.items()) for v in vecs] \
                == [list(v.items()) for v in want]
            seen.add((kind, len(mod.ring.variables), j == top))
    assert seen == {(kind, n, at_top) for kind in ("mw", "compact")
                    for n in (1, 2, 3) for at_top in (False, True)
                    if n > 1 or at_top}


def test_top_generators_over_a_zero_map():
    # the trivial line on the window 0:0: d/dx kills the constant, so the
    # only map is zero and every row of it is free
    cdata = mw_complex(trivial_module(1, P, 8, 0))
    snfs, _ = cohomology._reduce(cdata)
    assert len(cdata.matrices[0]) == 0 and snfs[0].rank() == 0
    assert cohomology._extract_generators(cdata, snfs, 1, 1) \
        == ([{0: 1}], cdata.scalings[0])


def _criterion_4_images():
    """apply_complex_map on the inputs of acceptance criterion 4."""
    rng = random.Random(20240)
    out = []
    for n, window in ((1, 10), (2, 6)):
        mod = trivial_module(n, 3, 14, window)
        cc = compact_support_cohomology(mod)
        mwd = mw_cohomology(mod.dual())
        his = (window,) * n
        for i in range(n):
            csp, wsp = cc.cdata.spaces[i], mwd.cdata.spaces[n - i - 1]
            cl = [l for l in csp.labels
                  if all(1 <= x <= h - 1 for x, h in zip(l[2], his))]
            wl = [l for l in wsp.labels
                  if all(x <= h - 1 for x, h in zip(l[2], his))]
            for _ in range(334 if n == 1 else 167):
                v = ChainVector(csp, {
                    lbl: make_scalar(rng.randint(1, 50), 3, 14)
                    for lbl in rng.sample(cl, k=min(4, len(cl)))})
                w = ChainVector(wsp, {
                    lbl: make_scalar(rng.randint(1, 50), 3, 14)
                    for lbl in rng.sample(wl, k=min(4, len(wl)))})
                out.append(apply_complex_map(mwd, n - i - 1, w).records())
                out.append(apply_complex_map(cc, i, v).records())
    return out


PINNED_PAIRING_DIGEST = (
    "c74ac45ca841a5fef5fe8d8bf6d7c920d869314d9524da5a40be3061f685fa1b")


def test_pinned_apply_complex_map():
    assert _digest(_criterion_4_images()) == PINNED_PAIRING_DIGEST


def test_quotient_and_local_sum_alike():
    # t d/dt t^I and a constant connection term land on one entry; the
    # quotient and local complexes truncate that sum by the same rule
    for coeff in ("-3/2", "6", "5*p^0@3", "O(p^2)", "1/3", -1):
        mod = _constant_robba(coeff)
        loc, quo = local_complex(mod), quotient_complex(mod)
        assert loc.scalings == quo.scalings
        (lsrc, _), (qsrc, _) = loc.spaces, quo.spaces
        (lmap,), (qmap,) = loc.matrices, quo.matrices
        lent = {lsrc.label(c): x for c, x in zip(lmap.cols, lmap.vals)}
        qent = {qsrc.label(c): x for c, x in zip(qmap.cols, qmap.vals)}
        assert qent == {l: x for l, x in lent.items() if l[2][0] >= 1}


def test_folded_constant_is_the_padic_sum():
    # t d/dt + c at t^k is the PadicApprox sum k + c with k exact: t d/dt -
    # 3/2 keeps all eight digits of -1/2 at t^1, 3280 rather than 3280 mod
    # 3^7, and a sum that vanishes records its absolute precision as floor
    for coeff in ("-3/2", "6", "5*p^0@3", "O(p^2)", "1/3", -1):
        loc = local_complex(_constant_robba(coeff))
        (src, _), (m,), ((N, shift),) = loc.spaces, loc.matrices, \
            loc.scalings
        want, floor = {}, None
        for k in range(-5, 6):
            s = make_scalar(k, P, 2 * N).add(_tok(coeff))
            if s.is_zero():
                floor = s.prec if floor is None else min(floor, s.prec)
            else:
                want[k] = s.residue(N, shift)
        assert {src.label(c)[2][0]: x for c, x in zip(m.cols, m.vals)} \
            == want, coeff
        assert loc.floors == [floor], coeff
        if coeff == "-3/2":
            assert want[1] == 3280 == -pow(2, -1, 3 ** 8) % 3 ** 8
