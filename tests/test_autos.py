import json

import numpy as np
import pytest

from paigeloops import _kernels_py, autos, config, loops
from paigeloops import (DomainError, FiniteLoop, LimitError,
                        LoopAutomorphism, Permutation, aut_backtrack,
                        aut_summary, conjugation_autos, field,
                        frobenius_on_paige, g2_order, is_loop_automorphism,
                        loop_from_table, paige_representatives)
from paigeloops._kernels_py import _digit_matrices, _linear_images
from paigeloops.loops import _rep_address
from paigeloops.zorn import oct_canonical, oct_conj, oct_mul, oct_norm


def test_g2_orders():
    assert g2_order(2) == 12096
    assert g2_order(3) == 4245696
    assert g2_order(4) == 251596800
    assert g2_order(5) == 5859000000


def test_is_loop_automorphism(s3, paige2):
    n = len(s3)
    assert is_loop_automorphism(s3, np.arange(n))
    assert not is_loop_automorphism(s3, np.zeros(n, dtype=int))
    assert not is_loop_automorphism(s3, np.arange(n)[::-1].copy())
    # a left translation is a bijection but not multiplicative
    assert not is_loop_automorphism(paige2, paige2.table[1])


def test_validator_chunks_agree(monkeypatch, conj2, paige2):
    """Row blocks below n give the one-block verdict, on the conjugation
    generators and on a generator with two images swapped."""
    maps = [p.images for p in conj2().generators]
    swapped = maps[0].copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    maps.append(swapped)
    n = len(paige2)
    verdicts = []
    for rows in (n, 7):
        # a row of the check costs 16 bytes a cell
        monkeypatch.setattr(_kernels_py, "_BLOCK_BYTES", rows * 16 * n)
        verdicts.append([is_loop_automorphism(paige2, m) for m in maps])
    assert verdicts[0] == verdicts[1] == [True] * (len(maps) - 1) + [False]


def test_validator_reads_the_last_block(monkeypatch, conj2, paige2):
    """A product broken only in the table's last row is found when that
    row is a block of its own."""
    n = len(paige2)
    g = conj2().point_stabilizer(n - 1).generators[0].images
    c = int(np.flatnonzero(g != np.arange(n))[0])
    table = paige2.table.copy()
    # g fixes n - 1, so only row n - 1 reads the changed cell, and there
    # g(T'[n-1, c]) = g(T[n-1, 0]) != g(T[n-1, c]) = T'[n-1, g(c)]
    table[n - 1, c] = table[n - 1, 0]
    bent = FiniteLoop(table, _validated=True)
    monkeypatch.setattr(_kernels_py, "_BLOCK_BYTES", (n - 1) * 16 * n)
    assert is_loop_automorphism(paige2, g)
    assert not is_loop_automorphism(bent, g)


def test_validator_rejects_malformed_maps(paige2):
    n = len(paige2)
    ident = np.arange(n)
    assert is_loop_automorphism(paige2, ident)
    assert not is_loop_automorphism(paige2, ident[:-1])
    assert not is_loop_automorphism(paige2, np.append(ident, 0))
    for bad in (-1, n, 5 + 65536):
        # 5 + 65536 wraps to 5 in the table's int16
        assert not is_loop_automorphism(paige2, np.where(ident == 5, bad,
                                                         ident))
    assert not is_loop_automorphism(paige2, np.where(ident == 5, 6, ident))


def test_loop_automorphism_wrapper(s3):
    a = LoopAutomorphism(Permutation.identity(6))
    assert a.order == 1
    assert a(3) == 3


def c2_5():
    return loop_from_table([[a ^ b for b in range(32)] for a in range(32)])


def s3_s3(s3):
    t = s3.table
    return loop_from_table([[6 * t[a // 6, b // 6] + t[a % 6, b % 6]
                             for b in range(36)] for a in range(36)])


def test_aut_of_small_groups(s3, c4, klein):
    assert aut_backtrack(s3).order == 6
    assert aut_backtrack(c4).order == 2
    # Aut(C2 x C2) permutes the three involutions freely
    assert aut_backtrack(klein).order == 6
    one = loop_from_table([[0]])
    assert aut_backtrack(one).order == 1
    # C2^5 needs five generators; Aut(C2^5) = GL(5, 2)
    assert aut_backtrack(c2_5()).order == 9999360
    # Aut(S3 x S3) = (S3 x S3) : C2; here a candidate image whose first
    # extension over the deeper generators fails has a later one
    assert aut_backtrack(s3_s3(s3)).order == 72


# A loop of order 7 where 1 (1 1) = 1 2 = 6: a round must multiply the
# points of the rounds before by the new ones, or <1> stops at {0, 1, 2}.
RAGGED7 = [[0, 1, 2, 3, 4, 5, 6], [1, 2, 6, 5, 3, 4, 0],
           [2, 0, 1, 6, 5, 3, 4], [3, 6, 4, 2, 0, 1, 5],
           [4, 5, 0, 1, 2, 6, 3], [5, 4, 3, 0, 6, 2, 1],
           [6, 3, 5, 4, 1, 0, 2]]


def test_programs_reach_each_subloop(monkeypatch, s3, paige2):
    """Each round multiplies points known before it, adds only new
    points, and the rounds of level l end at <g0..gl>, with blocks of
    the default size and of two cells (16 bytes each)."""
    for budget in (_kernels_py._BLOCK_BYTES, 2 * 16):
        monkeypatch.setattr(_kernels_py, "_BLOCK_BYTES", budget)
        for L in (c2_5(), s3_s3(s3), paige2, loop_from_table(RAGGED7)):
            T = L.table
            orders = np.array([loops.element_order(L, x)
                               for x in range(len(L))])
            gens, subloops, programs = autos._greedy_generators(L, orders)
            assert len(subloops) == len(programs) + 1 == len(gens) + 1
            assert subloops[-1].tolist() == list(range(len(L)))
            for l, rounds in enumerate(programs):
                known = np.zeros(len(L), dtype=bool)
                known[subloops[l]] = known[gens[l]] = True
                for x, a, b in rounds:
                    assert known[a].all() and known[b].all()
                    assert not known[x].any() and len(np.unique(x)) == len(x)
                    assert (T[a, b] == x).all()
                    known[x] = True
                assert np.array_equal(np.flatnonzero(known), subloops[l + 1])
                assert np.array_equal(subloops[l + 1], loops.subloop_closure(
                    L, gens[:l + 1]))


def test_search_in_small_blocks(monkeypatch, s3, paige2):
    """Closure rounds split across blocks of a few cells, and product
    checks of one row per block that stop at the first bad one, give the
    same group: the same order and each side's generators in the other."""
    for L in (c2_5(), s3_s3(s3), paige2):
        want = aut_backtrack(L)
        with monkeypatch.context() as m:
            # three cells of 16 bytes: one row of every check, and closure
            # blocks of three products when a round multiplies by one point
            m.setattr(_kernels_py, "_BLOCK_BYTES", 3 * 16)
            got = aut_backtrack(L)
        assert got.order == want.order
        assert all(p in want for p in got.generators)
        assert all(p in got for p in want.generators)


def test_aut_elements_are_automorphisms(s3):
    g = aut_backtrack(s3)
    for p in g.elements():
        assert is_loop_automorphism(s3, p.images)


def test_aut_backtrack_respects_cap(monkeypatch, paige2):
    """The search closes subloops under the product alone and builds no
    division table, so a table-cell bound that refuses one does not stop
    it."""
    monkeypatch.setattr(config, "MAX_TABLE_CELLS", 120**2 - 1)
    fresh = FiniteLoop(paige2.table, _validated=True)
    assert aut_backtrack(fresh).order == 12096
    assert fresh._ldiv is None and fresh._rdiv is None
    with pytest.raises(LimitError):
        fresh.ldiv_table


def test_aut_paige2(monkeypatch, paige2, bfs_order):
    """The search fully checks only the maps it returns, and they generate
    all 12,096 automorphisms."""
    calls = []
    check = autos.is_loop_automorphism

    def counted(L, images):
        calls.append(1)
        return check(L, images)

    monkeypatch.setattr(autos, "is_loop_automorphism", counted)
    g = aut_backtrack(paige2)
    assert g.order == 12096 == g2_order(2)
    assert len(calls) == len(g.generators)
    for p in g.generators:
        assert check(paige2, p.images)
    assert bfs_order([p.images for p in g.generators]) == 12096


def test_aut_paige3_matches_conjugation(paige3):
    """The search reaches |G2(3)|, and its group and the conjugation
    group contain each other's generators.  The table check stays the
    reference for the conjugation route's four generators."""
    L = paige3()
    g = aut_backtrack(L)
    assert g.order == g2_order(3)
    c = conjugation_autos(field(3))
    assert len(c.generators) == 4
    assert all(is_loop_automorphism(L, p.images) for p in c.generators)
    assert all(p in c for p in g.generators)
    assert all(p in g for p in c.generators)


@pytest.mark.slow
def test_aut_paige4_is_g2_by_frobenius(paige4):
    """The paper's theorem at the first q with a nontrivial Aut(F):
    |Aut(M*(4))| = 2 |G2(4)|, and the field Frobenius lies in it."""
    g = aut_backtrack(paige4())
    assert g.order == 2 * g2_order(4)
    assert frobenius_on_paige(4).perm in g


def test_aut_paige2_is_not_simple(aut2):
    d = aut2().derived_subgroup()
    assert d.order == 6048
    assert aut2().order // d.order == 2


def test_conjugation_subgroup_at_q2(conj2, aut2, paige2):
    """Conjugation x -> u x u^-1 by norm-one-squared units realizes only
    the derived subgroup at q = 2: the 57 units of cube order give 6048
    distinct automorphisms, half of the full group."""
    c = conj2()
    assert c.order == 6048
    g = aut2()
    for p in c.generators:
        assert p in g
    assert g.order == 2 * c.order
    d = g.derived_subgroup()
    assert d.order == c.order
    for p in d.generators:
        assert p in c
    for p in c.generators[:20]:
        assert is_loop_automorphism(paige2, p.images)


def test_conjugation_rejects_large_fields(monkeypatch):
    """The table-cell bound refuses q = 5 before the q^8 unit scan."""
    calls = []
    scan = loops.norm_one_array

    def counted(F):
        calls.append(F.q)
        return scan(F)

    monkeypatch.setattr(loops, "norm_one_array", counted)
    with pytest.raises(LimitError):
        conjugation_autos(field(5))
    assert calls == []


@pytest.mark.slow
def test_conjugation_group_at_q4_builds_no_table(monkeypatch, paige4):
    """The unit conjugations generate G2(4) with no Cayley table built,
    and the table check, run afterwards, accepts every generator."""
    built = []
    build = loops._build_table

    def counted(F, reps):
        built.append(F.q)
        return build(F, reps)

    monkeypatch.setattr(loops, "_build_table", counted)
    c = conjugation_autos(field(4))
    assert built == []
    assert c.order == g2_order(4)
    L = paige4()
    assert all(is_loop_automorphism(L, p.images) for p in c.generators)


def test_algebra_check_equals_the_full_check_at_q2(paige2):
    """On all 120 conjugation maps of M*(2), the algebra check and the
    n^2 table check give the same verdict, and 57 maps pass."""
    F = field(2)
    mats, reps, addr = autos._conjugation_setup(F)
    maps = _linear_images(F, mats, reps, addr)
    assert len(np.unique(maps, axis=0)) == len(maps) == 120
    full = np.array([is_loop_automorphism(paige2, m) for m in maps])
    algebra = autos._algebra_automorphisms(F, mats)
    assert full.sum() == 57
    assert (algebra == full).all()


def test_algebra_check_rejects_every_one_digit_change():
    """Each of the 729 conjugation matrices that pass at q = 3 fails
    once any one of its 64 digits is changed to either other value."""
    F = field(3)
    mats = autos._conjugation_setup(F)[0]
    good = mats[autos._algebra_automorphisms(F, mats)]
    assert len(good) == 729
    bent = np.repeat(good[:, None], 2 * 64, axis=1).reshape(-1, 64)
    cell = np.tile(np.repeat(np.arange(64), 2), len(good))
    shift = np.tile([1, 2], 64 * len(good))
    rows = np.arange(len(bent))
    bent[rows, cell] = (bent[rows, cell] + shift) % 3
    assert not autos._algebra_automorphisms(F, bent.reshape(-1, 8, 8)).any()


@pytest.mark.parametrize("q", [2, 3])
def test_conjugation_matrices_match_the_zorn_product(q):
    """x @ M is (u x) u^{-1} for every scanned unit u and representative
    x, so the algebra check and the images it gates are those of the
    conjugation itself."""
    F = field(q)
    mats, reps, addr = autos._conjugation_setup(F)
    grid = np.indices((q,) * 8).reshape(8, -1).T.astype(np.int16)
    lead = grid[np.arange(len(grid)), np.argmax(grid != 0, axis=1)]
    units = grid[(lead == 1) & (oct_norm(F, grid) != 0)]
    assert len(units) == len(mats)
    uinvs = F.mul_table[F.inv_table[oct_norm(F, units)][:, None],
                        oct_conj(F, units)]
    for s in range(0, len(units), 60):
        u, ui = units[s:s + 60, None], uinvs[s:s + 60, None]
        want = oct_canonical(F, oct_mul(F, oct_mul(F, u, reps[None]), ui))
        got = _linear_images(F, mats[s:s + 60], reps, addr)
        assert (got == addr[_rep_address(q, want)]).all()


def _int64_images(F, mats, X, addr):
    """addr at the keys of the digits of x @ M mod p, computed in int64 and
    turned back into coordinates, for each M of mats (rows) and each x
    of X (columns)."""
    p, k = F.p, F.k
    D = F.digits[X].reshape(len(X), 8 * k).astype(np.int64)
    z = np.matmul(D, mats.astype(np.int64)) % p
    coords = z.reshape(len(mats), len(X), 8, k) @ p ** np.arange(k)
    return addr[_rep_address(F.q, coords)]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_float32_images_match_an_int64_reference(q):
    """The float32 images of the scanned units' maps, of the fill's left
    multiplications (every one at q = 2, 3 and every 97th at q = 4) and
    of the Frobenius equal the int64 reference; the Frobenius images are
    also those of the entrywise x -> x^p."""
    F = field(q)
    reps = paige_representatives(q)
    addr = loops._address_book(F, reps)
    every = 1 if q < 4 else 97
    X = reps[::every, None]
    frob = _digit_matrices(F, lambda B: F.frob_table[B])
    stacks = [_digit_matrices(F, lambda B: oct_mul(F, X, B)), frob,
              autos._conjugation_setup(F)[0][::every]]
    step = max(1, (1 << 17) // len(reps))
    for mats in stacks:
        for s in range(0, len(mats), step):
            M = mats[s:s + step]
            assert np.array_equal(_linear_images(F, M, reps, addr),
                                  _int64_images(F, M, reps, addr))
    assert np.array_equal(_linear_images(F, frob, reps, addr)[0],
                          addr[_rep_address(q, F.frob_table[reps])])


def test_conjugation_full_checks_only_growing_maps(monkeypatch, conj2):
    """The conjugation route makes no table check at all, and its
    generators are those of the session's group."""
    calls = []
    check = autos.is_loop_automorphism

    def counted(L, images):
        calls.append(1)
        return check(L, images)

    monkeypatch.setattr(autos, "is_loop_automorphism", counted)
    c = conjugation_autos(field(2))
    assert calls == []
    assert [p.images.tolist() for p in c.generators] == \
        [p.images.tolist() for p in conj2().generators]


def test_conjugation_progress_per_chunk(monkeypatch, paige2):
    # 16 units a chunk, each costing its row of int32 images
    monkeypatch.setattr(_kernels_py, "_BLOCK_BYTES", 16 * 4 * len(paige2))
    seen = []
    c = conjugation_autos(field(2),
                          progress=lambda done, total: seen.append(
                              (done, total)))
    assert c.order == 6048
    assert len(seen) == 8
    assert all(t == 120 for _, t in seen)
    done = [d for d, _ in seen]
    assert done == sorted(done) and len(set(done)) == len(done)
    assert done[-1] == 120


def test_aut_summary_builds_the_loop_once(monkeypatch):
    built = []
    build = autos.paige_loop

    def counted(q):
        built.append(q)
        return build(q)

    monkeypatch.setattr(autos, "paige_loop", counted)
    s = aut_summary(2, methods=["conjugation", "stabilizer"])
    assert s["computed"] == "12096" and s["match"] is True
    assert built == [2]


def test_frobenius_trivial_on_prime_fields():
    a2 = frobenius_on_paige(2)
    assert a2.order == 1
    a3 = frobenius_on_paige(3)
    assert a3.order == 1


def test_frobenius_on_gf4_builds_no_table(monkeypatch):
    built = []
    build = loops._build_table

    def counted(F, reps):
        built.append(F.q)
        return build(F, reps)

    monkeypatch.setattr(loops, "_build_table", counted)
    assert frobenius_on_paige(4).order == 2
    assert built == []


@pytest.mark.slow
def test_frobenius_on_gf4_has_order_two(monkeypatch, paige4):
    """No table check runs inside the call; the table check, run
    afterwards, accepts the map."""
    calls = []
    check = autos.is_loop_automorphism

    def counted(L, images):
        calls.append(1)
        return check(L, images)

    monkeypatch.setattr(autos, "is_loop_automorphism", counted)
    a = frobenius_on_paige(4)
    assert a.order == 2
    assert a(0) == 0
    assert calls == []
    assert check(paige4(), a.perm.images)


def test_frobenius_bounds():
    with pytest.raises(LimitError):
        frobenius_on_paige(9)
    with pytest.raises(DomainError):
        frobenius_on_paige(16)


def test_aut_summary_exact_q2(aut2, conj2):
    s = aut_summary(2)
    assert s == {"q": 2, "computed": "12096", "predicted": "12096",
                 "methods": ["backtrack", "conjugation"], "match": True}
    assert list(s) == ["q", "computed", "predicted", "methods", "match"]
    json.dumps(s)


def test_frobenius_refuses_before_the_scan(monkeypatch):
    """The table-cell bound refuses q = 5 and 9 before the q^8 norm-one
    scan runs."""
    calls = []
    scan = loops.norm_one_array

    def counted(F):
        calls.append(F.q)
        return scan(F)

    monkeypatch.setattr(loops, "norm_one_array", counted)
    for q in (5, 9):
        with pytest.raises(LimitError):
            frobenius_on_paige(q)
    assert calls == []


def test_aut_summary_exact_q3(paige3):
    paige3()    # held, so aut_summary shares the session's M*(3)
    s = aut_summary(3)
    assert s == {"q": 3, "computed": "4245696", "predicted": "4245696",
                 "methods": ["backtrack", "conjugation"], "match": True}


def test_aut_summary_conjugation_builds_no_loop(monkeypatch):
    """The conjugation route reads no table, so asking for it alone
    builds no Cayley table and asks for no loop, whether or not one is
    held."""
    built, asked = [], []
    build, loop = loops._build_table, autos.paige_loop

    def counted_build(F, reps):
        built.append(F.q)
        return build(F, reps)

    def counted_loop(q):
        asked.append(q)
        return loop(q)

    monkeypatch.setattr(loops, "_build_table", counted_build)
    monkeypatch.setattr(autos, "paige_loop", counted_loop)
    s = aut_summary(3, methods=["conjugation"])
    assert s == {"q": 3, "computed": "4245696", "predicted": "4245696",
                 "methods": ["conjugation"], "match": True}
    assert built == [] and asked == []


def test_aut_summary_single_method(conj2):
    s = aut_summary(2, methods=["conjugation"])
    assert s["computed"] == "6048"
    assert s["match"] is False


def test_aut_summary_formula_only():
    s = aut_summary(5)
    assert s == {"q": 5, "computed": None, "predicted": "5859000000",
                 "methods": [], "match": None}
    s8 = aut_summary(8)
    assert s8["predicted"] == str(g2_order(8) * 3)
    with pytest.raises(DomainError):
        aut_summary(16)
    with pytest.raises(DomainError):
        aut_summary(5, methods=["conjugation"])
    # an empty or repeated method list is refused before any route runs
    for methods in (["guesswork"], [], ["backtrack", "backtrack"]):
        with pytest.raises(DomainError):
            aut_summary(2, methods=methods)
