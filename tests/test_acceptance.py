"""One test per numbered release criterion, in order.  Each test computes
everything first, records a single PASS/FAIL line (printed in the terminal
summary), then asserts, so a red criterion still reports its measurements.

Two criteria are known to fail and are kept failing on purpose, because the
weaker true statements are not what the release gate asks for:

* criterion 8 expects conjugation by octonion units to produce all 12,096
  automorphisms of the order-120 loop.  Conjugation x -> u x u^-1 is an
  automorphism exactly for the units u whose cube is central, and over
  GF(2) only 57 of the 120 norm-one classes qualify; they generate the
  index-2 derived subgroup, order 6,048.  The backtracking and stabilizer
  counts (12,096 each) and the remaining legs hold.
* criterion 11 expects the six automorphisms of S3 to exhaust the origin
  stabilizer of the reflection-generated collineation group of its net.
  All six induced maps are direction-preserving collineations, but only
  the three conjugations by squares are products of Bol reflections, so
  the stabilizer has order 3 and the set equality fails.

The unit test files pin the true values; these two tests assert the gate's
literal claims.
"""

import math
import time

import numpy as np
import pytest

from paigeloops import (Permutation, all_bol_reflections, aut_backtrack,
                        check_composition, check_moufang,
                        check_two_unit_decomposition, conjugation_autos,
                        field, g2_order, induced_automorphism_check,
                        is_collineation, is_loop_automorphism, is_simple,
                        loop_center, net_from_loop, paige_loop,
                        paige_order_enumerated, paige_order_formula,
                        unit_loop)
from paigeloops.perm import PermGroup
from paigeloops.triality import (build_triality,
                                 origin_stabilizer_automorphisms,
                                 verify_triality_axioms)


def _record(lines, num, ok, elapsed, detail):
    word = "PASS" if ok else "FAIL"
    lines.append(f"criterion {num:02d}: {word} ({elapsed:6.1f}s)  {detail}")


def _d4_order(q):
    return (q**12 * (q**6 - 1) * (q**4 - 1)**2 * (q**2 - 1)
            // math.gcd(4, q**4 - 1))


def test_criterion_01_loop_orders(acceptance_lines):
    t0 = time.perf_counter()
    problems = []
    want = {2: 120, 3: 1080, 4: 16320}
    for q, expect in want.items():
        enum = paige_order_enumerated(q)
        form = paige_order_formula(q)
        if not enum == form == expect:
            problems.append(f"q={q}: enumerated {enum}, formula {form}, "
                            f"expected {expect}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 10
    _record(acceptance_lines, 1, ok, elapsed,
            "|M*(2)| = 120, |M*(3)| = 1080, |M*(4)| = 16320, enumeration "
            "and formula agree")
    assert not problems, "; ".join(problems)
    assert elapsed < 10


def test_criterion_02_composition_law(acceptance_lines):
    t0 = time.perf_counter()
    problems = []
    passed, count, ce = check_composition(field(2), mode="full")
    if not passed or count != 65536:
        problems.append(f"GF(2) full sweep: {count} pairs, "
                        f"counterexample {ce}")
    for q in (3, 5):
        passed, count, ce = check_composition(field(q), mode="sample",
                                              n_samples=1_000_000, seed=0)
        if not passed or count != 1_000_000:
            problems.append(f"GF({q}) sample: counterexample {ce}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 10
    _record(acceptance_lines, 2, ok, elapsed,
            "N(xy) = N(x)N(y) on 65,536 GF(2) pairs and 10^6 samples at "
            "q = 3, 5")
    assert not problems, "; ".join(problems)
    assert elapsed < 10


@pytest.mark.slow
def test_criterion_03_moufang_identities(acceptance_lines, paige2, paige3,
                                        paige4):
    t0 = time.perf_counter()
    problems = []
    v = check_moufang(paige2, mode="full")
    if not v.passed or v.triples_checked != 4 * 120**3:
        problems.append(f"q=2 full sweep failed at {v.counterexample}")
    for q, L in ((3, paige3()), (4, paige4())):
        vs = check_moufang(L, mode="sample", n_samples=1_000_000, seed=0)
        if not vs.passed:
            problems.append(f"q={q} sample failed at {vs.counterexample}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60
    _record(acceptance_lines, 3, ok, elapsed,
            "four identities over all 120^3 triples at q = 2; 10^6 "
            "sampled triples each at q = 3, 4")
    assert not problems, "; ".join(problems)
    assert elapsed < 60


def test_criterion_04_center_and_simplicity(acceptance_lines, paige2,
                                            paige3, mlt3):
    t0 = time.perf_counter()
    problems = []
    z3 = loop_center(unit_loop(3))
    if len(z3) != 2:
        problems.append(f"center of the norm-one loop at q=3 has size "
                        f"{len(z3)}, expected 2")
    z2 = loop_center(paige2)
    if list(z2) != [0]:
        problems.append(f"center of M*(2) is {list(z2)}, expected trivial")
    if not is_simple(paige2).simple:
        problems.append("M*(2) reported non-simple")
    if not is_simple(paige3(), mlt=mlt3()).simple:
        problems.append("M*(3) reported non-simple")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 600
    _record(acceptance_lines, 4, ok, elapsed,
            "Z(M(3)) = {1, -1}; Z(M*(2)) trivial; M*(2) and M*(3) simple")
    assert not problems, "; ".join(problems)
    assert elapsed < 600


def test_criterion_05_multiplication_group_orders(acceptance_lines, mlt2,
                                                  mlt3):
    t0 = time.perf_counter()
    problems = []
    o2 = mlt2().order
    o3 = mlt3().order
    if o2 != 174_182_400 or o2 != _d4_order(2):
        problems.append(f"|Mlt(M*(2))| = {o2}")
    if o3 != 4_952_179_814_400 or o3 != _d4_order(3):
        problems.append(f"|Mlt(M*(3))| = {o3}")
    elapsed = time.perf_counter() - t0
    build2 = mlt2.seconds
    build3 = mlt3.seconds
    ok = (not problems and build2 < 120 and build3 < 1800)
    _record(acceptance_lines, 5, ok, elapsed + build2 + build3,
            f"|Mlt| = 174,182,400 and 4,952,179,814,400, the split D4 "
            f"orders (chains built in {build2:.0f}s / {build3:.0f}s)")
    assert not problems, "; ".join(problems)
    assert build2 < 120 and build3 < 1800


def test_criterion_06_bol_reflections(acceptance_lines, net2, loop5):
    t0 = time.perf_counter()
    problems = []
    refl = all_bol_reflections(net2)
    if len(refl) != 360:
        problems.append(f"{len(refl)} reflections, expected 360")
    bad = sum(1 for r in refl if not is_collineation(net2, r).ok)
    if bad:
        problems.append(f"{bad} reflections of the M*(2) net are not "
                        "collineations")
    net5 = net_from_loop(loop5)
    bad5 = sum(1 for r in all_bol_reflections(net5)
               if not is_collineation(net5, r).ok)
    if bad5 == 0:
        problems.append("every reflection of the order-5 loop net is a "
                        "collineation, expected at least one failure")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 120
    _record(acceptance_lines, 6, ok, elapsed,
            f"all 360 reflections at q = 2 are collineations; the order-5 "
            f"control has {bad5} non-collineations")
    assert not problems, "; ".join(problems)
    assert elapsed < 120


def test_criterion_07_triality(acceptance_lines, tri2):
    t0 = time.perf_counter()
    problems = []
    T = tri2()
    o0, og, idx = T.orders()
    if (o0, og, idx) != (1_045_094_400, 174_182_400, 6):
        problems.append(f"orders ({o0}, {og}, index {idx})")
    report = verify_triality_axioms(T, samples=1000, seed=0)
    for entry in report:
        if entry["failures"]:
            problems.append(f"axiom {entry['axiom']}: "
                            f"{entry['failures']} failures")
    eq = [e for e in report if e["axiom"] == "triality_equation"][0]
    if eq["checked"] < 1000 + len(T.gamma.generators):
        problems.append("triality equation undersampled")
    elapsed = time.perf_counter() - t0
    total = elapsed + tri2.seconds
    ok = not problems and total < 3600
    _record(acceptance_lines, 7, ok, total,
            "|Gamma0| = 1,045,094,400 = 6 x |Gamma|; <sigma, rho> = S3; "
            "triality equation and [Gamma, S] = Gamma verified")
    assert not problems, "; ".join(problems)
    assert total < 3600


def test_criterion_08_main_theorem_q2(acceptance_lines, tri2, aut2, conj2):
    t0 = time.perf_counter()
    problems = []
    sc = origin_stabilizer_automorphisms(tri2())
    a = aut2()
    c = conj2()
    target = g2_order(2) * 1    # |G2(2)| x |Aut(GF(2))|
    if sc.count != 12096 or sc.count != target:
        problems.append(f"stabilizer count {sc.count}")
    if a.order != 12096:
        problems.append(f"backtracking count {a.order}")
    if c.order != 12096:
        problems.append(
            f"conjugation count {c.order}: only the 57 units of cube "
            "order act as automorphisms over GF(2), and they generate "
            "the index-2 derived subgroup")
    stab_group = sc.group
    pairs = (("stabilizer", stab_group, "backtracking", a),
             ("backtracking", a, "conjugation", c),
             ("conjugation", c, "stabilizer", stab_group))
    for name1, g1, name2, g2 in pairs:
        if not all(p in g2 for p in g1.generators):
            problems.append(f"{name1} group is not contained in the "
                            f"{name2} group")
        if not all(p in g1 for p in g2.generators):
            problems.append(f"{name2} group is not contained in the "
                            f"{name1} group")
    elapsed = time.perf_counter() - t0
    total = elapsed + tri2.seconds + aut2.seconds + conj2.seconds
    ok = not problems and total < 1800
    _record(acceptance_lines, 8, ok, total,
            f"stabilizer {sc.count}, backtracking {a.order}, conjugation "
            f"{c.order}; target 12,096 = |G2(2)|; set equality "
            f"{'holds' if not problems else 'fails on the conjugation leg'}")
    assert not problems, "; ".join(problems)
    assert total < 1800


def test_criterion_09_main_theorem_q3(acceptance_lines):
    t0 = time.perf_counter()
    problems = []
    order = conjugation_autos(field(3)).order
    if order != 4_245_696 or order != g2_order(3) * 1:
        problems.append(f"conjugation count {order}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 3600
    _record(acceptance_lines, 9, ok, elapsed,
            "conjugation automorphisms at q = 3 number 4,245,696 = |G2(3)|")
    assert not problems, "; ".join(problems)
    assert elapsed < 3600


def test_criterion_10_derived_subgroup_index_two(acceptance_lines, aut2):
    t0 = time.perf_counter()
    problems = []
    g = aut2()
    d = g.derived_subgroup()
    if d.order != 6048:
        problems.append(f"derived subgroup order {d.order}")
    if g.order != 2 * d.order:
        problems.append(f"index {g.order // d.order}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 600
    _record(acceptance_lines, 10, ok, elapsed,
            "Aut(M*(2))' has order 6,048, index exactly 2: the "
            "automorphism group is not simple in characteristic 2")
    assert not problems, "; ".join(problems)
    assert elapsed < 600


def test_criterion_11_s3_stabilizer_correspondence(acceptance_lines, s3):
    t0 = time.perf_counter()
    problems = []
    T = build_triality(net_from_loop(s3))
    full = aut_backtrack(s3)
    if full.order != 6:
        problems.append(f"|Aut(S3)| = {full.order}")
    alphas_full = sorted(tuple(int(x) for x in p.images)
                         for p in full.elements())
    for alpha in alphas_full:
        rep = induced_automorphism_check(T, np.array(alpha))
        if not rep["passed"]:
            problems.append(f"forward check failed for {alpha}: {rep}")
    sc = origin_stabilizer_automorphisms(T)
    for alpha in sc.alphas:
        if not is_loop_automorphism(s3, alpha):
            problems.append("a stabilizer-extracted map is not an "
                            "automorphism")
    alphas_stab = sorted(tuple(int(x) for x in a) for a in sc.alphas)
    if alphas_full != alphas_stab:
        problems.append(
            f"the 6 induced maps all pass the forward check, but the "
            f"origin stabilizer extracted from the reflection-generated "
            f"group contains only {len(alphas_stab)} of them: "
            "conjugation by a transposition is a direction-preserving "
            "collineation yet not a product of Bol reflections")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 600
    _record(acceptance_lines, 11, ok, elapsed,
            f"{len(alphas_full)} automorphisms pass the forward check; "
            f"stabilizer yields {len(alphas_stab)}; set equality "
            f"{'holds' if alphas_full == alphas_stab else 'fails'}")
    assert not problems, "; ".join(problems)
    assert elapsed < 600


def test_criterion_12_two_unit_sums(acceptance_lines):
    t0 = time.perf_counter()
    problems = []
    for q, total in ((2, 256), (3, 6561)):
        passed, count, missing = check_two_unit_decomposition(field(q))
        if not passed or count != total:
            problems.append(f"q={q}: {missing} has no two-unit sum")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 30
    _record(acceptance_lines, 12, ok, elapsed,
            "all 256 + 6,561 octonions are sums of two norm-one elements")
    assert not problems, "; ".join(problems)
    assert elapsed < 30


def test_criterion_13_engine_oracles(acceptance_lines, bfs_order):
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(2024)
    for i in range(20):
        degree = int(rng.integers(4, 9))
        k = int(rng.integers(1, 4))
        gens = [Permutation(rng.permutation(degree).astype(np.int32))
                for _ in range(k)]
        got = PermGroup(gens).order
        want = bfs_order([g.images for g in gens], cap=100_000)
        if got != want:
            problems.append(f"group {i}: chain order {got}, closure {want}")
    s3g = PermGroup([Permutation.from_cycles(3, [(0, 1, 2)]),
                     Permutation.from_cycles(3, [(0, 1)])])
    draws = s3g.random_elements(6000, seed=0)
    counts = {}
    for p in draws:
        key = tuple(int(x) for x in p.images)
        counts[key] = counts.get(key, 0) + 1
    expected = 1000.0
    sigma = math.sqrt(6000 * (1 / 6) * (5 / 6))
    worst = 0.0
    for key in counts:
        worst = max(worst, abs(counts[key] - expected))
    if len(counts) != 6:
        problems.append(f"sampler hit only {len(counts)} of 6 elements")
    if worst > 5 * sigma:
        problems.append(f"worst deviation {worst:.1f} exceeds 5 sigma "
                        f"({5 * sigma:.1f})")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 600
    _record(acceptance_lines, 13, ok, elapsed,
            f"20 random groups: chain order = closure count; sampler "
            f"worst deviation {worst:.1f} of {5 * sigma:.1f} allowed")
    assert not problems, "; ".join(problems)
    assert elapsed < 600
