import dataclasses
import hashlib

import numpy as np
import pytest

from paigeloops import (CorrespondenceError, DomainError, LimitError,
                        NotMoufangNetError, PermGroup, Permutation,
                        all_bol_reflections, config,
                        induced_automorphism_check, is_collineation,
                        is_loop_automorphism, net_from_loop,
                        origin_stabilizer_automorphisms, triality)
from paigeloops.autos import aut_backtrack
from paigeloops.triality import build_triality, verify_triality_axioms


@pytest.fixture(scope="module")
def tri_s3(s3):
    return build_triality(net_from_loop(s3))


@pytest.fixture(scope="module")
def tri_c4(c4):
    return build_triality(net_from_loop(c4))


@pytest.fixture(scope="module")
def reflections2(net2):
    """All 360 Bol reflections of M*(2)'s net, each checked directly, as
    permutations of the lines and classes, in line order."""
    verdicts = [is_collineation(net2, r) for r in all_bol_reflections(net2)]
    assert all(verdicts)
    return [triality._line_permutation(v, net2.n) for v in verdicts]


def counted_checks(monkeypatch):
    calls = []
    check = triality.is_collineation

    def counted(net, p):
        calls.append(1)
        return check(net, p)

    monkeypatch.setattr(triality, "is_collineation", counted)
    return calls


def test_group_net_orders(tri_s3, tri_c4):
    assert tri_s3.orders() == (648, 108, 6)
    assert tri_c4.orders() == (96, 16, 6)
    for T in (tri_s3, tri_c4):
        n = T.net.n
        assert T.gamma.degree == T.gamma0.degree == 3 * n + 3
        # the class points first, then the origin's lines 0 and n; Gamma
        # is the tail below the class points
        assert T.gamma0.base()[:4] == [3 * n, 3 * n + 1, 0, n]
        assert T.gamma0.basic_orbit_sizes()[:4] == [3, 2, n, n]
        assert T.gamma.base()[:2] == [0, n]


def test_oversized_net_refused_before_any_reflection(s3, monkeypatch):
    def no_reflection(net, line):
        raise AssertionError("a reflection was built")

    monkeypatch.setattr(config, "MAX_PERM_DEGREE", 35)
    monkeypatch.setattr(triality, "bol_reflection", no_reflection)
    with pytest.raises(LimitError):
        build_triality(net_from_loop(s3))


def test_generator_check_rejects_mixed_class_maps(tri_s3):
    n = tri_s3.net.n
    # class-1 lines 1 and 2 swapped, every other line fixed: it fixes the
    # origin's lines, but its class-1 and class-2 maps differ
    bad = Permutation.from_cycles(3 * n + 3, [(1, 2)])
    gamma = PermGroup(list(tri_s3.gamma.generators) + [bad])
    T = dataclasses.replace(tri_s3, gamma=gamma)
    with pytest.raises(CorrespondenceError):
        origin_stabilizer_automorphisms(T)


def test_sigma_rho_generate_s3_pattern(tri_s3):
    sigma, rho = tri_s3.sigma, tri_s3.rho
    assert (sigma * sigma).is_identity()
    assert (rho * rho * rho).is_identity()
    assert not rho.is_identity()
    assert PermGroup([sigma, rho]).order == 6


def test_gamma_is_normal_in_gamma0(tri_s3):
    gamma, gamma0 = tri_s3.gamma, tri_s3.gamma0
    for g in gamma.generators:
        assert g in gamma0
    for s in tri_s3.S_gens:
        sinv = s.inverse()
        for g in gamma.generators:
            assert sinv * g * s in gamma


def test_axioms_on_group_nets(tri_s3, tri_c4):
    for T in (tri_s3, tri_c4):
        for entry in verify_triality_axioms(T, samples=300, seed=0):
            assert entry["failures"] == 0, entry


def test_commutator_axiom_does_not_depend_on_the_generating_set(
        tri2, reflections2):
    """[Gamma, S] = Gamma must hold for any generating set of Gamma.  At
    q = 2 two random words in pairs of same-class Bol reflections generate
    Gamma, but their commutators with sigma and rho alone generate a
    subgroup of order 768."""
    T = tri2()
    n = T.net.n
    refl = reflections2
    rng = np.random.default_rng(9)

    def word():
        w = None
        for _ in range(3):
            c = int(rng.integers(3))
            x, y = (int(v) for v in rng.integers(n, size=2))
            p = refl[c * n + x] * refl[c * n + y]
            w = p if w is None else w * p
        return w

    gamma = PermGroup([word(), word()])
    assert gamma.order == 174_182_400
    T2 = dataclasses.replace(T, gamma=gamma)
    for entry in verify_triality_axioms(T2, samples=20, seed=0):
        assert entry["failures"] == 0, entry


def test_commutator_axiom_fails_off_the_kernel(tri_s3):
    # Gamma0 is not generated by its own commutators with S
    T = dataclasses.replace(tri_s3, gamma=tri_s3.gamma0)
    span = verify_triality_axioms(T, samples=10, seed=0)[2]
    assert span["axiom"] == "gamma_commutator_span"
    assert span["failures"] == 1


def test_axiom_report_shape(tri_s3):
    report = verify_triality_axioms(tri_s3, samples=50, seed=1)
    names = [e["axiom"] for e in report]
    assert names == ["s_subgroup", "triality_equation",
                     "gamma_commutator_span"]
    assert report[1]["checked"] == 50 + len(tri_s3.gamma.generators)


def test_stabilizer_automorphisms_s3(tri_s3, s3):
    sc = origin_stabilizer_automorphisms(tri_s3)
    assert sc.count == 3
    assert sc.group.order == 3
    for alpha in sc.alphas:
        assert is_loop_automorphism(s3, alpha)
    # inner automorphisms by 3-cycles only; Aut(S3) has order 6
    full = aut_backtrack(s3)
    assert full.order == 6
    for alpha in sc.alphas:
        assert Permutation(alpha) in full


def test_every_s3_automorphism_passes_the_forward_check(tri_s3, s3):
    full = aut_backtrack(s3)
    passed = 0
    in_gamma = 0
    n = len(s3)
    for a in full.elements():
        report = induced_automorphism_check(tri_s3, a.images)
        assert report["passed"], report
        passed += 1
        lines = np.concatenate([a.images, a.images + n, a.images + 2 * n,
                                [3 * n, 3 * n + 1, 3 * n + 2]])
        if Permutation(lines) in tri_s3.gamma:
            in_gamma += 1
    assert passed == 6
    # only the inner automorphisms by squares are products of Bol
    # reflections; conjugation by a transposition never is
    assert in_gamma == 3


def test_stabilizer_automorphisms_c4(tri_c4, c4):
    sc = origin_stabilizer_automorphisms(tri_c4)
    assert sc.count == 1
    assert aut_backtrack(c4).order == 2


def test_forward_check_validates_input(tri_s3):
    with pytest.raises(DomainError):
        induced_automorphism_check(tri_s3, np.zeros(6, dtype=np.int64))
    with pytest.raises(DomainError):
        induced_automorphism_check(tri_s3, np.arange(5))
    # a bijection that is not multiplicative
    bad = np.array([0, 2, 1, 3, 4, 5])
    if not is_loop_automorphism(tri_s3.net.loop, bad):
        with pytest.raises(DomainError):
            induced_automorphism_check(tri_s3, bad)


def test_nonmoufang_net_rejected(loop5):
    with pytest.raises(NotMoufangNetError):
        build_triality(net_from_loop(loop5))


def test_build_validates_origin(s3):
    net = net_from_loop(s3)
    with pytest.raises(DomainError):
        build_triality(net, origin=36)
    # the collineation groups do not depend on the chosen origin
    T = build_triality(net, origin=7)
    assert T.orders() == (648, 108, 6)
    # but the automorphism correspondence needs the identity-point basing
    with pytest.raises(DomainError):
        origin_stabilizer_automorphisms(T)


def test_paige_triality_smoke(tri2, paige2):
    T = tri2()
    assert T.orders() == (1_045_094_400, 174_182_400, 6)
    assert T.gamma0.basic_orbit_sizes() == [3, 2, 120, 120, 63, 24, 8]
    sc = origin_stabilizer_automorphisms(T)
    assert sc.count == sc.group.order
    for alpha in sc.alphas[:3]:
        assert is_loop_automorphism(paige2, alpha)
    # the 12,096 maps, sorted by row here, byte for byte
    assert sc.alphas.shape == (12096, 120) and sc.alphas.dtype == np.int32
    rows = sc.alphas[np.lexsort(sc.alphas.T[::-1])]
    assert hashlib.sha256(rows.tobytes()).hexdigest() == (
        "487f5438c1e542e5ddf24f432514d778eb6d781cfc09e6080719a9ae5a07f743")


def test_stabilizer_listing_holds_little_beyond_its_rows(tri2,
                                                         traced_peak):
    """Listing the 12,096 x 120 stabilizer (5.5 MiB) takes no second copy
    of its rows; the chain's caches are filled by the first listing."""
    group = origin_stabilizer_automorphisms(tri2()).group
    out_mib = group.order * group.degree * 4 / 2**20
    assert traced_peak(group.element_array) < 1.2 * out_mib


def test_only_unreached_reflections_are_checked(net2, monkeypatch):
    calls = counted_checks(monkeypatch)
    T = build_triality(net2)
    assert 3 <= len(calls) <= 12
    assert T.orders() == (1_045_094_400, 174_182_400, 6)


def test_one_orbit_search_per_checked_reflection(net2, monkeypatch):
    """Seven reflections are checked at q = 2, and each one costs a
    single search for the orbits of all checked axes."""
    calls = counted_checks(monkeypatch)
    searches = []
    orbit = PermGroup.orbit

    def counted(G, pts):
        searches.append(pts)
        return orbit(G, pts)

    monkeypatch.setattr(PermGroup, "orbit", counted)
    T = build_triality(net2)
    assert len(calls) == len(searches) == 7
    assert T.orders() == (1_045_094_400, 174_182_400, 6)


def test_every_reflection_lies_in_gamma0(tri2, reflections2):
    # the skipped reflections too: each is a collineation (checked in the
    # fixture) and a member of the group the checked ones generate
    T = tri2()
    assert len(reflections2) == 360
    assert all(r in T.gamma0 for r in reflections2)


def test_paige3_triality_by_default(paige3, monkeypatch):
    calls = counted_checks(monkeypatch)
    T = build_triality(net_from_loop(paige3()))
    assert len(calls) == 6
    assert T.orders() == (29_713_078_886_400, 4_952_179_814_400, 6)
    assert T.gamma0.basic_orbit_sizes()[:4] == [3, 2, 1080, 1080]
    for entry in verify_triality_axioms(T, samples=100, seed=0):
        assert entry["failures"] == 0, entry
    # the order is read from the stabilizer's generators; listing the
    # 4,245,696 automorphisms would take 4.6 * 10^9 cells
    sc = origin_stabilizer_automorphisms(T)
    assert sc.count == sc.group.order == 4_245_696
    with pytest.raises(LimitError):
        sc.alphas
