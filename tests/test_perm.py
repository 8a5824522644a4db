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
    assert s5.is_transitive() and a5.is_transitive()
    odd = Permutation.from_cycles(5, [(0, 1)])
    assert odd in s5 and odd not in a5


def test_dihedral_and_cyclic():
    rot = Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    flip = Permutation.from_cycles(6, [(1, 5), (2, 4)])
    d6 = PermGroup([rot, flip])
    assert d6.order == 12
    c6 = PermGroup([rot])
    assert c6.order == 6
    assert not PermGroup([flip]).is_transitive()


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


def test_elements_iteration():
    g = PermGroup([Permutation.from_cycles(4, [(0, 1, 2)]),
                   Permutation.from_cycles(4, [(1, 2, 3)])])
    elems = list(g.elements())
    assert len(elems) == g.order == 12
    assert len({e.images.tobytes() for e in elems}) == 12
    for e in elems:
        assert e in g


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
    assert not g.is_transitive()


def test_degree_limit():
    big = Permutation.identity(MAX_PERM_DEGREE + 1)
    with pytest.raises(LimitError):
        PermGroup([big])
    g = PermGroup([big], override_limits=True)
    assert g.order == 1


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
    assert g.random_uniform(11) == g.random_elements(1, 11)[0]


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
        h = np.array(images, dtype=np.int32)
        _kernels_py.sift_run(h, 0, ch.bases, ch.svs, ch.genstacks, ch.uinvs,
                             ch.poss)
        if add(ch, images):
            grew.append(h)
            return True
        return False

    monkeypatch.setattr(perm._Chain, "add_input_generator", recording)
    return PermGroup(gens)._build(), grew


@pytest.mark.parametrize("name", ["S6", "A6", "Mlt(M*(2))"])
def test_chain_levels(name, monkeypatch, paige2):
    """A generator installed at level m fixes bases[0..m-1] and lies in
    the group generated at level m-1; level 0 holds the sifted inputs that
    grew the group and nothing else."""
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
        for g in gs[::2]:
            h = g.copy()
            stop = _kernels_py.sift_run(h, m - 1, ch.bases, ch.svs,
                                        ch.genstacks, ch.uinvs, ch.poss)
            assert stop == ch.nlevels() and _kernels_py.is_identity(h)
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


# -- kernels -----------------------------------------------------------------


def test_sweep_with_and_without_transversal_cache(monkeypatch, paige2):
    """The numpy sweep scatters u_p s from a cached u_p^{-1} or walks the
    Schreier tree; both give the same chain."""
    walks = []
    walk = _kernels_py._transversal_elem

    def counted(*args):
        walks.append(1)
        return walk(*args)

    def chain():
        walks.clear()
        G = multiplication_group(paige2)
        return G.order, G.base(), G.basic_orbit_sizes()

    monkeypatch.setattr(_kernels_py, "_transversal_elem", counted)
    cached = chain()
    assert not walks
    monkeypatch.setattr(perm, "_UINV_LEVEL_CAP", 0)
    assert chain() == cached
    assert walks
    assert cached[0] == 174_182_400


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
