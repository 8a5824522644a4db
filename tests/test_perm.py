import hashlib
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from paigeloops import (DomainError, LimitError, PermGroup, Permutation,
                        kernel_backend, multiplication_group, perm)
from paigeloops._backend import kernels as active_kernels
from paigeloops import _kernels_py
from paigeloops.config import MAX_PERM_DEGREE
from paigeloops.triality import build_triality


def P(*images):
    return Permutation(list(images))


def test_composition_applies_left_factor_first():
    p = P(1, 0, 2)
    q = P(0, 2, 1)
    r = p * q
    for x in range(3):
        assert r(x) == q(p(x))


def test_identity_inverse_pow():
    e = Permutation.identity(5)
    p = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    assert p * p.inverse() == e
    assert p.inverse() * p == e
    assert p ** 5 == e
    assert p ** -2 == (p ** 2).inverse()
    assert p ** 0 == e
    assert e.is_identity() and not p.is_identity()


def test_order_and_cycles():
    p = Permutation.from_cycles(7, [(0, 1), (2, 3, 4)])
    assert p.order() == 6
    assert p.cycles() == [(0, 1), (2, 3, 4)]
    q = Permutation.from_text(p.to_text())
    assert q == p
    assert Permutation.identity(4).cycles() == []


def test_permutation_validation():
    with pytest.raises(DomainError):
        Permutation([0, 0, 1])
    with pytest.raises(DomainError):
        Permutation([0, 3, 1])
    with pytest.raises(DomainError):
        Permutation([])
    with pytest.raises(DomainError):
        P(0, 1) * P(0, 1, 2)


def test_symmetric_and_alternating_orders():
    s5 = PermGroup([Permutation.from_cycles(5, [(0, 1)]),
                    Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    assert s5.order == 120
    a5 = PermGroup([Permutation.from_cycles(5, [(0, 1, 2)]),
                    Permutation.from_cycles(5, [(2, 3, 4)])])
    assert a5.order == 60
    assert len(s5.orbit(0)) == len(a5.orbit(0)) == 5
    odd = Permutation.from_cycles(5, [(0, 1)])
    assert odd in s5 and odd not in a5


def test_dihedral_and_cyclic():
    rot = Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    flip = Permutation.from_cycles(6, [(1, 5), (2, 4)])
    d6 = PermGroup([rot, flip])
    assert d6.order == 12
    c6 = PermGroup([rot])
    assert c6.order == 6


def test_empty_and_trivial_groups():
    g = PermGroup([], degree=4)
    assert g.order == 1
    assert Permutation.identity(4) in g
    assert P(1, 0, 2, 3) not in g
    with pytest.raises(DomainError):
        PermGroup([])
    t = PermGroup([Permutation.identity(3)])
    assert t.order == 1


def test_base_and_orbit_sizes_multiply_to_order():
    g = PermGroup([Permutation.from_cycles(6, [(0, 1)]),
                   Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
    assert g.order == 720
    sizes = g.basic_orbit_sizes()
    prod = 1
    for s in sizes:
        prod *= s
    assert prod == 720
    assert len(g.base()) == len(sizes)


def test_point_stabilizer():
    s5 = PermGroup([Permutation.from_cycles(5, [(0, 1)]),
                    Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    for pt in (0, 3):
        stab = s5.point_stabilizer(pt)
        assert stab.order == 24
        for g in stab.generators:
            assert g(pt) == pt
    with pytest.raises(DomainError):
        s5.point_stabilizer(9)


def test_strong_generators_regenerate():
    g = PermGroup([Permutation.from_cycles(7, [(0, 1, 2)]),
                   Permutation.from_cycles(7, [(0, 1, 2, 3, 4, 5, 6)])])
    sg = g.strong_generators()
    assert PermGroup(sg, degree=7).order == g.order == 2520


def test_derived_subgroup_series():
    s4 = PermGroup([Permutation.from_cycles(4, [(0, 1)]),
                    Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    a4 = s4.derived_subgroup()
    assert a4.order == 12
    v4 = a4.derived_subgroup()
    assert v4.order == 4
    assert v4.derived_subgroup().order == 1
    c5 = PermGroup([Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    assert c5.derived_subgroup().order == 1


def test_normal_closure():
    s4 = PermGroup([Permutation.from_cycles(4, [(0, 1)]),
                    Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    cyc = lambda *c: Permutation.from_cycles(4, list(c))
    assert s4.normal_closure([cyc((0, 1, 2))]).order == 12
    assert s4.normal_closure([cyc((0, 1), (2, 3))]).order == 4
    assert s4.normal_closure([cyc((2, 3))]).order == 24
    assert s4.normal_closure([Permutation.identity(4)]).order == 1
    # the closure under a subgroup that does not normalize <(0 1)(2 3)>
    # inside S4 is still a subgroup of S4: V4 under <(0 1 2)> is V4
    c3 = PermGroup([cyc((0, 1, 2))])
    v = c3.normal_closure([cyc((0, 1), (2, 3))])
    assert v.order == 4
    assert all(g in v for g in (cyc((0, 2), (1, 3)), cyc((0, 3), (1, 2))))


def test_elements_iteration():
    g = PermGroup([Permutation.from_cycles(4, [(0, 1, 2)]),
                   Permutation.from_cycles(4, [(1, 2, 3)])])
    elems = list(g.elements())
    assert len(elems) == g.order == 12
    assert len({e.images.tobytes() for e in elems}) == 12
    for e in elems:
        assert e in g


def _listing_groups():
    return [PermGroup([Permutation.from_cycles(4, [(0, 1, 2)]),
                       Permutation.from_cycles(4, [(1, 2, 3)])]),
            PermGroup(_a6()),
            PermGroup([Permutation.from_cycles(7, [(0, 1), (2, 3)]),
                       Permutation.from_cycles(7, [(1, 4, 5, 6)])]),
            PermGroup([Permutation.from_cycles(6, [(0, 1, 2), (3, 4, 5)])]),
            PermGroup([Permutation.identity(3)])]


@pytest.mark.parametrize("k", range(5))
def test_element_array_is_the_transversal_product(k):
    """Row u_{L-1} * ... * u_0, the deepest level's orbit position slowest
    and level 0's fastest: the order the recursive listing gave."""
    g = _listing_groups()[k]
    ch = g._build()
    want = []
    levels = range(ch.nlevels() - 1, -1, -1)
    for posis in itertools.product(*(range(ch.norbits[l]) for l in levels)):
        t = np.arange(g.degree, dtype=np.int32)
        for l, posi in zip(levels, posis):
            t = ch.transversal_elem(l, posi)[t]
        want.append(t)
    got = g.element_array()
    assert got.dtype == np.int32 and got.flags.c_contiguous
    assert got.shape == (g.order, g.degree)
    assert (got == np.array(want)).all()
    assert len(np.unique(got, axis=0)) == g.order
    assert all(row in g for row in got)
    assert all((p.images == row).all() for p, row in zip(g.elements(), got))
    assert len(list(g.elements())) == g.order


def test_element_array_refuses_before_it_allocates(monkeypatch):
    g = PermGroup(_a6())
    g._build()

    def no_fill(*args):
        raise AssertionError("a transversal was filled")

    monkeypatch.setattr(perm.config, "MAX_TABLE_CELLS", 360 * 6 - 1)
    monkeypatch.setattr(_kernels_py, "transversal_fill", no_fill)
    with pytest.raises(LimitError):
        g.element_array()
    with pytest.raises(LimitError):
        next(g.elements())
    monkeypatch.undo()
    monkeypatch.setattr(perm.config, "MAX_TABLE_CELLS", 360 * 6)
    assert g.element_array().shape == (360, 6)


def test_membership_rejects_degree_mismatch():
    g = PermGroup([Permutation.from_cycles(4, [(0, 1)])])
    with pytest.raises(DomainError):
        g.contains(P(1, 0, 2))
    with pytest.raises(DomainError):
        PermGroup([P(1, 0), P(0, 2, 1)])


def test_orbits():
    g = PermGroup([Permutation.from_cycles(6, [(0, 1, 2)]),
                   Permutation.from_cycles(6, [(4, 5)])])
    assert list(g.orbit(0)) == [0, 1, 2]
    assert list(g.orbit(3)) == [3]
    assert list(g.orbit(5)) == [4, 5]


@pytest.mark.parametrize("name", ["S6", "A6", "Gamma0"])
def test_orbit_of_points_is_the_union_of_their_orbits(name, tri2):
    G = {"S6": lambda: PermGroup(_s6()), "A6": lambda: PermGroup(_a6()),
         "Gamma0": lambda: tri2().gamma0}[name]()
    rng = np.random.default_rng(3)
    for k in (1, 2, 5):
        pts = rng.choice(G.degree, size=k, replace=False)
        union = np.unique(np.concatenate([G.orbit(int(p)) for p in pts]))
        assert (G.orbit(pts) == union).all()
    assert (G.orbit(np.array([0])) == G.orbit(0)).all()
    with pytest.raises(DomainError):
        G.orbit([0, G.degree])


def test_degree_limit():
    big = Permutation.identity(MAX_PERM_DEGREE + 1)
    with pytest.raises(LimitError):
        PermGroup([big])


def test_order_matches_bfs_closure_on_random_groups(bfs_order):
    rng = np.random.default_rng(7)
    for _ in range(6):
        degree = int(rng.integers(4, 8))
        gens = [Permutation(rng.permutation(degree).astype(np.int32))
                for _ in range(2)]
        g = PermGroup(gens)
        assert g.order == bfs_order([p.images for p in gens])


def test_random_elements_are_deterministic_members():
    g = PermGroup([Permutation.from_cycles(5, [(0, 1)]),
                   Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    a = g.random_elements(20, seed=3)
    b = g.random_elements(20, seed=3)
    assert a == b
    assert g.random_elements(20, seed=4) != a
    for p in a:
        assert p in g


def test_small_group_sampler_hits_every_element():
    rot = Permutation.from_cycles(3, [(0, 1, 2)])
    flip = Permutation.from_cycles(3, [(0, 1)])
    s3 = PermGroup([rot, flip])
    draws = s3.random_elements(600, seed=0)
    counts = {}
    for p in draws:
        counts[p.images.tobytes()] = counts.get(p.images.tobytes(), 0) + 1
    assert len(counts) == 6
    assert min(counts.values()) > 40


# -- chain invariants --------------------------------------------------------


def _s6():
    return [Permutation.from_cycles(6, [(0, 1)]),
            Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])]


def _a6():
    return [Permutation.from_cycles(6, [(0, 1, 2)]),
            Permutation.from_cycles(6, [(1, 2, 3, 4, 5)])]


def _built_chain(monkeypatch, gens):
    """PermGroup(gens)'s chain, with the sifted residue of each input that
    grew the group."""
    grew = []
    add = perm._Chain.add_input_generator

    def recording(ch, images):
        h = np.array(images, dtype=np.int32)[None]
        _kernels_py.sift_run(h, 0, ch.bases, ch.cache(), ch.poss)
        if add(ch, images):
            grew.append(h[0])
            return True
        return False

    monkeypatch.setattr(perm._Chain, "add_input_generator", recording)
    return PermGroup(gens)._build(), grew


@pytest.mark.parametrize("name", ["S6", "A6", "Mlt(M*(2))"])
def test_chain_levels(name, monkeypatch, paige2):
    """A generator installed at level m fixes bases[0..m-1] and lies in
    the group generated at level m-1; level 0 holds the sifted words and
    inputs that grew the group and nothing else."""
    gens = {"S6": _s6, "A6": _a6,
            "Mlt(M*(2))": lambda: multiplication_group(paige2).generators}
    ch, grew = _built_chain(monkeypatch, gens[name]())
    assert ch.order() == {"S6": 720, "A6": 360,
                          "Mlt(M*(2))": 174_182_400}[name]
    level0 = ch.genstacks[0][::2]
    assert len(level0) == len(grew)
    assert all((a == b).all() for a, b in zip(level0, grew))
    for m in range(1, ch.nlevels()):
        gs = ch.genstacks[m]
        assert gs.shape[0] > 0
        assert (gs[:, ch.bases[:m]] == ch.bases[:m]).all()
        h = gs[::2].copy()
        assert _kernels_py.sift_run(h, m - 1, ch.bases, ch.cache(),
                                    ch.poss) == (len(h), ch.nlevels())
    if name == "A6":
        assert not ch.is_member(Permutation.from_cycles(6, [(0, 1)]).images)


def test_mlt_paige2_chain(monkeypatch, paige2):
    """Residues of level-l Schreier generators go to levels l+1.. only,
    which sifts fewer than half the 3,582 Schreier generators of a chain
    that installs them at every level."""
    sifted = []
    sweep = _kernels_py.sweep_gen

    def counted(lev, gi, startpos, *rest):
        posi, residue = sweep(lev, gi, startpos, *rest)
        sifted.append(posi - startpos + (residue is not None))
        return posi, residue

    monkeypatch.setattr(_kernels_py, "sweep_gen", counted)
    G = multiplication_group(paige2)
    assert G.order == 174_182_400
    assert G.basic_orbit_sizes() == [120, 63, 30, 12, 8, 4, 2]
    assert sum(sifted) < 3582 // 2
    assert all(p in G for p in G.random_elements(10, seed=5))


def _chain_digest(ch):
    """SHA-256 of a chain's bases, basic orbits and generator stacks."""
    h = hashlib.sha256(np.array(ch.bases, dtype=np.int64).tobytes())
    for orbit, n in zip(ch.orbits, ch.norbits):
        h.update(orbit[:n].tobytes())
    for gs in ch.genstacks:
        h.update(gs.tobytes())
    return h.hexdigest()


def test_mlt_paige2_chain_digest(paige2):
    """The chain of Mlt(M*(2)), byte for byte.  It starts from the two
    words of its 240 inputs, so its generators differ from those of the
    chain grown from the inputs alone (digest 76e2e449...); its bases and
    basic orbits are the same."""
    ch = multiplication_group(paige2)._build()
    assert _chain_digest(ch) == (
        "0f43d027fbae2595870e38ebaaab684418eb061171527585dd400d10adb9edf4")


def _sigma_rho(tri2):
    T = tri2()
    return [T.sigma, T.rho]


@pytest.mark.parametrize("name, digest", [
    ("<sigma, rho>",
     "5eb766653d4ed79a1588d97f641f6565f37e7f4934d9bb2add41bfc092777dc0"),
    ("S6", "08b26b103814c32e47cbaad944130105cd3aafd14c7e04f1e23f3eac2005b325"),
    ("A6", "704e3bec7d1aaefc07267c8e9b3532fc3438704c33c283e277afdce43af4086e"),
    ("C7", "c1b58247426f2020283da161ab15172a3d7c0854e0fb394d2f86864e8a7f3a8e"),
])
def test_one_or_two_inputs_are_their_own_words(name, digest, tri2):
    """With one or two inputs the words are the inputs, in order, so the
    chain is the one grown from the inputs alone (digests pinned before
    the words were added)."""
    gens = {"<sigma, rho>": lambda: _sigma_rho(tri2), "S6": _s6, "A6": _a6,
            "C7": lambda: [Permutation.from_cycles(7, [tuple(range(7))])]}
    rows = [g.images for g in gens[name]()]
    words, _ = perm._words(rows)
    assert len(words) == len(rows)
    assert all((w == r).all() for w, r in zip(words, rows))
    assert _chain_digest(PermGroup(gens[name]())._build()) == digest


@pytest.mark.parametrize("name", ["S6", "A6", "Mlt(M*(2))", "Gamma0"])
def test_word_start_keeps_every_input_and_the_order(name, paige2, net2):
    """The words are products of inputs, so they lie in the group, and
    every input is still sifted afterwards: each one is a member, and the
    order and basic orbits are those of the inputs alone."""
    G, orbits = {
        "S6": lambda: (PermGroup(_s6()), [6, 5, 4, 3, 2]),
        "A6": lambda: (PermGroup(_a6()), [6, 5, 4, 3]),
        "Mlt(M*(2))": lambda: (multiplication_group(paige2),
                               [120, 63, 30, 12, 8, 4, 2]),
        "Gamma0": lambda: (build_triality(net2).gamma0,
                           [3, 2, 120, 120, 63, 24, 8])}[name]()
    assert G.basic_orbit_sizes() == orbits
    assert all(g in G for g in G.generators)
    rows = [g.images for g in G.generators]
    assert all(w in G for w in perm._words(rows)[0])


def test_word_start_sifts_fewer_rows(monkeypatch, paige2, net2):
    """Started from the two words, most inputs sift as members: the chains
    of Mlt(M*(2)) and Gamma0 at q = 2 sift 715 and 658 rows, where the
    chains grown from the inputs alone sifted 994 and 1,077."""
    counts = {"rows": 0, "calls": 0}
    sift = _kernels_py.sift_run

    def counted(h, *rest):
        counts["rows"] += len(h) if h.ndim == 2 else 1
        counts["calls"] += 1
        return sift(h, *rest)

    monkeypatch.setattr(_kernels_py, "sift_run", counted)
    assert multiplication_group(paige2).order == 174_182_400
    assert (counts["rows"], counts["calls"]) == (715, 42)
    counts.update(rows=0, calls=0)
    assert build_triality(net2).gamma0.order == 1_045_094_400
    assert (counts["rows"], counts["calls"]) == (658, 47)


@pytest.mark.parametrize("name", ["S6", "A6", "Mlt(M*(2))"])
def test_blocks_of_one_row_give_the_same_chain(name, monkeypatch, paige2):
    gens = {"S6": _s6, "A6": _a6,
            "Mlt(M*(2))": lambda: multiplication_group(paige2).generators}
    rows = []
    sift = _kernels_py.sift_run

    def counted(h, *rest):
        rows.append(len(h) if h.ndim == 2 else 0)
        return sift(h, *rest)

    monkeypatch.setattr(_kernels_py, "sift_run", counted)
    default = _chain_digest(PermGroup(gens[name]())._build())
    assert max(rows) > 1
    rows.clear()
    monkeypatch.setattr(_kernels_py, "_BLOCK_BYTES", 1)
    assert _chain_digest(PermGroup(gens[name]())._build()) == default
    assert max(rows) == 1


def test_sweep_hands_no_tree_edge_to_the_sift(monkeypatch, paige2):
    """u_p s u_{s(p)}^{-1} is the identity when s(p) is labelled by s or p
    by s^{-1}, and for an involution s it is the inverse of the generator
    at s(p): the sweep builds none of the first kind, none of the second
    whose partner comes first, and every other one."""
    sweep = _kernels_py.sweep_gen
    sift = _kernels_py.sift_run
    swept = []      # (level, generator, stack) of the open sweep
    handed = []     # the points p of the rows u_p s it sifted
    skipped = {"edge": 0, "mirror": 0}

    def counted_sweep(lev, gi, startpos, bases, svs, genstacks, uinvs, poss,
                      orbits, norbits):
        swept.append((lev, gi, genstacks[lev]))
        handed.clear()
        posi, residue = sweep(lev, gi, startpos, bases, svs, genstacks,
                              uinvs, poss, orbits, norbits)
        swept.pop()
        s, sv, pos = genstacks[lev][2 * gi], svs[lev], poss[lev]
        ps = orbits[lev][startpos:posi + (residue is not None)]
        edge = (sv[s[ps]] == 2 * gi) | (sv[ps] == 2 * gi + 1)
        mirror = ~edge & (pos[s[ps]] < pos[ps])
        if not (s == genstacks[lev][2 * gi + 1]).all():
            mirror[:] = False
        skipped["edge"] += int(edge.sum())
        skipped["mirror"] += int(mirror.sum())
        assert not set(handed) & set(ps[edge | mirror].tolist())
        assert set(ps[~(edge | mirror)].tolist()) <= set(handed)
        return posi, residue

    def counted_sift(h, start, bases, *rest):
        if swept:
            lev, gi, gs = swept[-1]
            # row u_p s maps the base to s(p)
            sinv = gs[2 * gi + 1]
            handed.extend(sinv[h[:, bases[lev]]].tolist())
        return sift(h, start, bases, *rest)

    monkeypatch.setattr(_kernels_py, "sweep_gen", counted_sweep)
    monkeypatch.setattr(_kernels_py, "sift_run", counted_sift)
    assert multiplication_group(paige2).order == 174_182_400
    assert skipped["edge"] > 0 and skipped["mirror"] > 0


# -- kernels -----------------------------------------------------------------


@pytest.mark.parametrize("name", ["S6", "A6", "Mlt(M*(2))"])
@pytest.mark.parametrize("dtype", [np.int16, np.int32],
                         ids=["int16", "int32"])
def test_transversal_fill_inverts_the_tree_walks(dtype, name, paige2):
    """Each row of a filled level, built a tree layer at a time in either
    cache dtype, is the inverse of the transversal element walked from
    the Schreier tree: the edge labels from the point back to the base,
    applied from the base out."""
    gens = {"S6": _s6, "A6": _a6,
            "Mlt(M*(2))": lambda: multiplication_group(paige2).generators}
    ch = PermGroup(gens[name]())._build()
    ident = np.arange(ch.d)
    for l in range(ch.nlevels()):
        gs, sv, base = ch.genstacks[l], ch.svs[l], ch.bases[l]
        rows = ch.norbits[l]
        uinv = np.empty((rows, ch.d), dtype=dtype)
        _kernels_py.transversal_fill(gs, sv, ch.poss[l], ch.orbits[l], rows,
                                     base, uinv)
        for posi in range(rows):
            x = int(ch.orbits[l][posi])
            path = []
            while x != base:
                path.append(int(sv[x]))
                x = int(gs[sv[x] ^ 1][x])
            u = ident
            for er in reversed(path):
                u = gs[er][u]
            assert u[base] == ch.orbits[l][posi]
            assert (uinv[posi][u] == ident).all()
            assert (ch.transversal_elem(l, posi) == u).all()


def _two_point_orbits(d):
    """Two commuting transpositions of degree d: a chain of two levels
    with two-point orbits, so its cache has 4 rows of d points."""
    return [Permutation.from_cycles(d, [(0, 1)]),
            Permutation.from_cycles(d, [(2, 3)])]


def test_chain_cache_is_int16_on_mlt_paige3(mlt3):
    ch = mlt3()._build()
    try:
        dtypes = {u.dtype for u in ch.cache()}
    finally:
        ch.release_caches()
    assert ch.d == 1080 and dtypes == {np.dtype(np.int16)}


@pytest.mark.parametrize("d, dtype", [(32_767, np.int16),
                                      (32_768, np.int32),
                                      (40_000, np.int32)])
def test_cache_dtype_and_int32_elements(d, dtype):
    """The cache holds points in int16 up to degree 32,767 and in int32
    above; the transversal elements, the random elements and the listing
    are int32 image rows at either dtype."""
    G = PermGroup(_two_point_orbits(d))
    ch = G._build()
    assert ch.norbits == [2, 2]
    assert [u.dtype for u in ch.cache()] == [dtype, dtype]
    moved = Permutation.from_cycles(d, [(2, 3)]).images
    for l in range(2):
        for posi in range(2):
            u = ch.transversal_elem(l, posi)
            assert u.dtype == np.int32
            assert u[ch.bases[l]] == ch.orbits[l][posi]
    assert (ch.transversal_elem(1, 1) == moved).all()
    t = ch.random_element(np.random.default_rng(5))
    assert t.dtype == np.int32 and Permutation(t) in G
    E = G.element_array()
    assert E.dtype == np.int32 and E.shape == (4, d)
    assert len({row.tobytes() for row in E}) == 4
    assert all(Permutation(row) in G for row in E)


def _tree_depth(ch, l):
    """Deepest point of level l's Schreier tree, walked edge by edge."""
    gs, sv, base = ch.genstacks[l], ch.svs[l], ch.bases[l]
    deepest = 0
    for x in ch.orbits[l][:ch.norbits[l]]:
        depth = 0
        while x != base:
            x = gs[sv[x] ^ 1][x]
            depth += 1
        deepest = max(deepest, depth)
    return deepest


def _rotation(n, k):
    return (np.arange(n) + k) % n


def test_schreier_trees_deeper_than_twenty():
    """Trees that once were rebuilt past depth 20 sift through the cache
    like any other: <(0 1 ... 100)> (depth 50), and the dihedral group of
    the 300-gon from r^6, r^10, r^15 and a reflection, whose level-0
    orbit grows from 50 to 150 to 300 points under a tree already 25
    deep."""
    cyc = PermGroup([Permutation.from_cycles(101, [tuple(range(101))])])
    ch = perm._Chain(300)
    ch.add_level(0)
    grown = []
    for row in (_rotation(300, 6), _rotation(300, 10), _rotation(300, 15),
                -np.arange(300) % 300):
        assert ch.add_input_generator(row)
        grown.append(ch.norbits[0])
    assert grown == [50, 150, 300, 300]
    ch.release_caches()
    dih = PermGroup([], degree=300, _chain=ch)
    assert _tree_depth(cyc._build(), 0) == 50
    assert _tree_depth(ch, 0) > 25
    for G, order in ((cyc, 101), (dih, 600)):
        assert G.order == order
        rows = G.element_array()
        assert len(np.unique(rows, axis=0)) == order
        assert all(row in G for row in rows)
        assert Permutation.from_cycles(G.degree, [(0, 1)]) not in G
        assert all(p in G for p in G.random_elements(20, seed=2))


def test_chain_cache_refuses_before_it_allocates(monkeypatch, paige2):
    """The transversal cache of Mlt(M*(2)) ends at 239 rows of 120 cells,
    one per point of its basic orbits.  One cell fewer and the build
    raises LimitError at the fill that would pass the bound, having made
    every fill before it; at the exact bound it builds."""
    gens = multiplication_group(paige2).generators
    fills = []
    fill = _kernels_py.transversal_fill

    def counted(*args):
        fills.append(args[-1].shape)
        return fill(*args)

    monkeypatch.setattr(_kernels_py, "transversal_fill", counted)
    monkeypatch.setattr(perm.config, "MAX_TABLE_CELLS", 239 * 120 - 1)
    with pytest.raises(LimitError) as err:
        PermGroup(gens)._build()
    assert err.value.bound == 239 * 120 - 1
    refused = list(fills)
    fills.clear()
    monkeypatch.setattr(perm.config, "MAX_TABLE_CELLS", 239 * 120)
    G = PermGroup(gens)
    assert G.order == 174_182_400
    assert sum(G.basic_orbit_sizes()) == 239
    assert refused == fills[:-1]


def test_active_backend_reported():
    assert kernel_backend() == "py"
    assert active_kernels is _kernels_py


def test_compose_into_may_alias_first_argument():
    rng = np.random.default_rng(1)
    p = rng.permutation(300).astype(np.int32)
    q = rng.permutation(300).astype(np.int32)
    want = _kernels_py.compose(p.copy(), q)
    buf = p.copy()
    _kernels_py.compose_into(buf, q, buf)
    assert (buf == want).all()


def test_pure_python_backend_selectable_by_env():
    code = ("import paigeloops\n"
            "from paigeloops import PermGroup, Permutation\n"
            "print(paigeloops.kernel_backend())\n"
            "g = PermGroup([Permutation.from_cycles(5, [(0, 1)]),\n"
            "               Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])\n"
            "print(g.order)\n"
            "print(g.point_stabilizer(2).order)\n")
    out = subprocess.run([sys.executable, "-c", code],
                         env={"PATH": "/usr/bin",
                              "PYTHONPATH": os.environ.get("PYTHONPATH", "")},
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["py", "120", "24"]


def test_stabilizer_route_imports_no_masked_arrays():
    """A plain np.unique imports numpy.ma on its first call in a process
    (numpy 2.4), 15-19 ms; the orbit searches, the chain and the
    collineation check find sets by boolean masks and never call it."""
    code = ("import sys\n"
            "import paigeloops as P\n"
            "L = P.paige_loop(2)\n"
            "T = P.build_triality(P.net_from_loop(L))\n"
            "print(P.origin_stabilizer_automorphisms(T).count)\n"
            "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code],
                         env={"PATH": "/usr/bin",
                              "PYTHONPATH": os.environ.get("PYTHONPATH", "")},
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["12096", "False"]
