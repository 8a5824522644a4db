import dataclasses

import numpy as np
import pytest

from paigeloops import (CorrespondenceError, DomainError, LimitError,
                        NotMoufangNetError, PermGroup, Permutation,
                        central_elements, config, induced_automorphism_check,
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


def test_group_net_orders(tri_s3, tri_c4):
    assert tri_s3.orders() == (648, 108, 6)
    assert tri_c4.orders() == (96, 16, 6)
    for T in (tri_s3, tri_c4):
        assert T.gamma.degree == T.gamma0.degree == 3 * T.net.n


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
    bad = Permutation.from_cycles(3 * n, [(1, 2)])
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
        lines = np.concatenate([a.images, a.images + n, a.images + 2 * n])
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


def test_central_elements():
    rot = Permutation.from_cycles(4, [(0, 1, 2, 3)])
    flip = Permutation.from_cycles(4, [(1, 3)])
    d4 = PermGroup([rot, flip])
    zs = central_elements(d4)
    assert len(zs) == 1
    assert zs[0] == rot * rot
    c5 = PermGroup([Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    assert len(central_elements(c5)) == 4
    with pytest.raises(DomainError):
        central_elements(PermGroup([Permutation.from_cycles(4, [(0, 1)])]))


def test_paige_triality_smoke(tri2, paige2):
    T = tri2()
    o0, og, idx = T.orders()
    assert idx == 6
    assert og == o0 // 6
    sc = origin_stabilizer_automorphisms(T)
    assert sc.count == sc.group.order
    for alpha in sc.alphas[:3]:
        assert is_loop_automorphism(paige2, alpha)
