import gc
import hashlib
import weakref

import numpy as np
import pytest

from paigeloops import _kernels_py, autos, loops
from paigeloops import (DomainError, InternalError, LimitError,
                        MalformedTableError,
                        NoIdentityAtZeroError, NotLatinError, check_moufang,
                        element_order, field, first_nonassociative_triple,
                        is_simple, load_tbl, loop_center, loop_divide,
                        loop_from_table, multiplication_group,
                        paige_loop, paige_order_enumerated,
                        paige_order_formula, paige_representatives,
                        save_tbl, subloop_closure, unit_loop)
from paigeloops.zorn import Octonion, oct_canonical, oct_mul, oct_neg


def test_table_validation():
    with pytest.raises(MalformedTableError):
        loop_from_table([[0, 1], [1, 0], [0, 1]])
    with pytest.raises(MalformedTableError):
        loop_from_table([[0, 2], [2, 0]])
    with pytest.raises(NotLatinError):
        loop_from_table([[0, 1], [0, 1]])
    with pytest.raises(NoIdentityAtZeroError):
        loop_from_table([[1, 0, 2], [0, 2, 1], [2, 1, 0]])
    with pytest.raises(MalformedTableError):
        loop_from_table([[0, 1], [1, 0]], labels=["e"])


def test_division(s3):
    for a in range(6):
        for b in range(6):
            assert s3.mul(a, s3.ldiv(a, b)) == b
            assert s3.mul(s3.rdiv(a, b), b) == a
            assert loop_divide(s3, "left", a, s3.mul(a, b)) == b
            assert loop_divide(s3, "right", b, s3.mul(a, b)) == a
    with pytest.raises(DomainError):
        loop_divide(s3, "middle", 0, 1)


def test_division_tables_on_paige2(paige2, paige3, loop5):
    for L in (paige2, paige3(), loop5):
        T = L.table
        ldiv, rdiv = L.ldiv_table, L.rdiv_table
        assert ldiv.dtype == rdiv.dtype == T.dtype
        assert not ldiv.flags.writeable and not rdiv.flags.writeable
        rows = np.arange(len(L))[:, None]
        assert (T[rows, ldiv] == np.arange(len(L))).all()
        assert (T[rdiv, rows] == np.arange(len(L))).all()


def test_paige_loop_is_shared_while_held(monkeypatch):
    monkeypatch.setattr(loops, "_LIVE", weakref.WeakValueDictionary())
    L = paige_loop(2)
    assert paige_loop(2) is L
    with pytest.raises(ValueError):
        L.table[1, 1] = 0
    with pytest.raises(ValueError):
        L.ldiv_table[1, 1] = 0
    # the bounds hold although M*(2) is live
    with monkeypatch.context() as m:
        m.setattr(loops.config, "MAX_TABLE_CELLS", 100)
        with pytest.raises(LimitError):
            paige_loop(2)
    old = weakref.ref(L)
    del L
    gc.collect()
    assert old() is None and 2 not in loops._LIVE
    fresh = paige_loop(2)
    assert loops._LIVE[2] is fresh and len(fresh) == 120


def test_translations(s3):
    for a in range(6):
        lt = s3.left_translation(a)
        rt = s3.right_translation(a)
        for x in range(6):
            assert lt(x) == s3.mul(a, x)
            assert rt(x) == s3.mul(x, a)


def test_paige_orders():
    assert paige_order_formula(2) == 120
    assert paige_order_formula(3) == 1080
    assert paige_order_formula(4) == 16320
    assert paige_order_formula(5) == 39000
    for q in (2, 3, 4):
        assert paige_order_enumerated(q) == paige_order_formula(q)


def test_paige_loop_basics(paige2):
    assert len(paige2) == 120
    assert paige2.labels is not None and len(paige2.labels) == 120
    # identity label is the diagonal (1, 1) Zorn matrix
    assert paige2.labels[0].startswith("1")


def test_paige_representatives_are_canonical():
    q = 3
    F = field(q)
    reps = paige_representatives(q)
    assert len(reps) == 1080
    assert (oct_canonical(F, reps) == reps).all()
    neg = oct_neg(F, reps)
    as_set = {tuple(int(c) for c in r) for r in reps}
    for row in neg[1:]:
        assert tuple(int(c) for c in row) not in as_set


def test_quotient_is_well_defined():
    # the product of classes {x, -x} {y, -y} does not depend on the
    # representatives chosen
    q = 3
    F = field(q)
    reps = paige_representatives(q)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, len(reps), size=(200, 2))
    X = reps[idx[:, 0]]
    Y = reps[idx[:, 1]]
    base = oct_canonical(F, oct_mul(F, X, Y))
    for sx in (1, -1):
        for sy in (1, -1):
            Xs = X if sx == 1 else oct_neg(F, X)
            Ys = Y if sy == 1 else oct_neg(F, Y)
            assert (oct_canonical(F, oct_mul(F, Xs, Ys)) == base).all()


def test_moufang_paige_full(paige2):
    v = check_moufang(paige2, mode="full")
    assert v
    assert v.passed and v.counterexample is None
    assert v.triples_checked == 4 * 120**3


def test_moufang_sampled_catches_loop5(loop5):
    v = check_moufang(loop5, mode="full")
    assert not v.passed
    v2 = check_moufang(loop5, mode="sample", n_samples=4000, seed=1)
    assert not v2.passed
    assert check_moufang(loop5, mode="sample", n_samples=10, seed=1) == \
        check_moufang(loop5, mode="sample", n_samples=10, seed=1)
    with pytest.raises(DomainError):
        check_moufang(loop5, mode="exhaustive")
    # no sample passes vacuously with 0 triples checked
    for n in (0, -1):
        with pytest.raises(DomainError):
            check_moufang(loop5, mode="sample", n_samples=n)


def test_moufang_full_counterexample_is_least(loop5):
    """Full mode reports the least (identity, x, y, z) that a plain sweep
    of the four identities, written out here, finds."""
    rows = loop5.table.tolist()

    def m(a, b):
        return rows[a][b]

    sides = {
        1: lambda x, y, z: (m(m(m(x, y), x), z), m(x, m(y, m(x, z)))),
        2: lambda x, y, z: (m(m(m(z, x), y), x), m(z, m(x, m(y, x)))),
        3: lambda x, y, z: (m(m(x, y), m(z, x)), m(x, m(m(y, z), x))),
        4: lambda x, y, z: (m(m(x, y), m(z, x)), m(m(x, m(y, z)), x)),
    }
    n = len(loop5)
    bad = [(idn, x, y, z) for idn in (1, 2, 3, 4)
           for x in range(n) for y in range(n) for z in range(n)
           if len(set(sides[idn](x, y, z))) == 2]
    assert check_moufang(loop5, mode="full").counterexample == bad[0]
    # every identity, in the full mode's shapes and the sample mode's
    T = loop5.table
    col = np.arange(n)[:, None]
    xs, ys, zs = (a.ravel() for a in np.indices((n, n, n)))
    full = {idn: set() for idn in (1, 2, 3, 4)}
    for x in range(n):
        for idn, lhs, rhs in loops._moufang_sides(T, x, col, col.T):
            full[idn] |= {(x, int(y), int(z))
                          for y, z in np.argwhere(lhs != rhs)}
    sample = {}
    for idn, lhs, rhs in loops._moufang_sides(T, xs, ys, zs):
        sample[idn] = {(int(xs[i]), int(ys[i]), int(zs[i]))
                       for i in np.flatnonzero(lhs != rhs)}
    for idn in (1, 2, 3, 4):
        want = {c[1:] for c in bad if c[0] == idn}
        assert full[idn] == sample[idn] == want


def _first_sample_failures(L, n_samples, seed):
    """Sample mode's draws, and the first failing sample of each identity,
    from all draws at once with 2-D indexing."""
    T = L.table.astype(np.int64)
    rng = np.random.default_rng(seed)
    x, y, z = (rng.integers(0, L.n, size=n_samples) for _ in range(3))
    sides = [(T[T[T[x, y], x], z], T[x, T[y, T[x, z]]]),
             (T[T[T[z, x], y], x], T[z, T[x, T[y, x]]]),
             (T[T[x, y], T[z, x]], T[x, T[T[y, z], x]]),
             (T[T[x, y], T[z, x]], T[T[x, T[y, z]], x])]
    first = {idn: int(np.flatnonzero(lhs != rhs)[0])
             for idn, (lhs, rhs) in enumerate(sides, 1) if (lhs != rhs).any()}
    return (x, y, z), first


def _unblocked_counterexample(L, n_samples, seed):
    """The first failing sample of the least identity that fails."""
    (x, y, z), first = _first_sample_failures(L, n_samples, seed)
    if not first:
        return None
    idn = min(first)
    i = first[idn]
    return (idn, int(x[i]), int(y[i]), int(z[i]))


def test_moufang_sample_blocks_keep_the_first_failure(loop5, monkeypatch):
    n = 70_000      # more than one block
    assert n > loops._SAMPLE_BLOCK
    for seed in range(3):
        v = check_moufang(loop5, mode="sample", n_samples=n, seed=seed)
        assert v.counterexample == _unblocked_counterexample(loop5, n, seed)
        assert v.triples_checked == 4 * n
    # tiny blocks, where the least failing identity often first fails in a
    # later block than another identity does
    later_wins = 0
    for block in (1, 2, 3):
        monkeypatch.setattr(loops, "_SAMPLE_BLOCK", block)
        for seed in range(20):
            v = check_moufang(loop5, mode="sample", n_samples=40, seed=seed)
            assert v.counterexample == _unblocked_counterexample(loop5, 40,
                                                                 seed)
            first = _first_sample_failures(loop5, 40, seed)[1]
            later_wins += first[min(first)] // block > min(
                first.values()) // block
    assert later_wins


def test_moufang_sample_draws_keep_their_triples(paige3, monkeypatch):
    """The blocks handed to _moufang_sides join up to the three single
    int64 draws, in the table's dtype, over an uneven last block."""
    L = paige3()
    n_samples = 3 * loops._SAMPLE_BLOCK + 17
    seen = []
    sides = loops._moufang_sides

    def recorded(T, x, y, z):
        seen.append((x.copy(), y.copy(), z.copy()))
        return sides(T, x, y, z)

    monkeypatch.setattr(loops, "_moufang_sides", recorded)
    assert check_moufang(L, mode="sample", n_samples=n_samples, seed=11)
    assert [len(b[0]) for b in seen] == [loops._SAMPLE_BLOCK] * 3 + [17]
    rng = np.random.default_rng(11)
    for k in range(3):
        got = np.concatenate([b[k] for b in seen])
        assert got.dtype == L.table.dtype
        want = rng.integers(0, L.n, size=n_samples)
        assert want.dtype == np.int64 and (got == want).all()


def test_sampled_moufang_transients_stay_small(paige3, traced_peak):
    """10^6 triples of M*(3) in int16 (5.7 MiB) and one block's gathers;
    three int64 draws alone would take 22.9 MiB."""
    L = paige3()
    assert traced_peak(lambda: check_moufang(L, mode="sample")) < 10


def test_moufang_full_mode_bounded(paige3):
    with pytest.raises(LimitError):
        check_moufang(paige3(), mode="full")
    v = check_moufang(paige3(), mode="sample", n_samples=50000, seed=0)
    assert v.passed


def test_groups_are_moufang(s3, c4):
    assert check_moufang(s3, mode="full").passed
    assert check_moufang(c4, mode="full").passed


def test_first_nonassociative_triple(s3, paige2, loop5):
    assert first_nonassociative_triple(s3) is None
    t = first_nonassociative_triple(paige2)
    assert t is not None
    x, y, z = t
    T = paige2.table
    assert T[T[x, y], z] != T[x, T[y, z]]
    assert first_nonassociative_triple(loop5) is not None


def test_element_orders(paige2, c4):
    assert element_order(paige2, 0) == 1
    for x in range(1, 120):
        o = element_order(paige2, x)
        assert o in (2, 3)    # unipotent or order-3 torus classes at q = 2
        assert len(subloop_closure(paige2, [x])) == o
    assert sorted(element_order(c4, x) for x in range(4)) == [1, 2, 4, 4]
    with pytest.raises(DomainError):
        element_order(c4, 4)


def test_subloop_closure(paige2, s3):
    whole = subloop_closure(s3, [1, 3])
    assert len(whole) in (3, 6)
    sub = subloop_closure(paige2, [1])
    T = paige2.table
    inside = np.zeros(120, dtype=bool)
    inside[sub] = True
    assert inside[T[np.ix_(sub, sub)]].all()


def _closure_three_tables(tables, seed):
    """Reference closure under the product and both divisions."""
    mask = np.zeros(len(tables[0]), dtype=bool)
    mask[0] = True
    mask[seed] = True
    while True:
        ix = np.nonzero(mask)[0]
        for t in tables:
            mask[t[np.ix_(ix, ix)]] = True
        if np.count_nonzero(mask) == len(ix):
            return ix


@pytest.mark.parametrize("name", ["M*(2)", "M*(3)", "loop5", "S3"])
def test_subloop_closure_by_product_alone(name, paige2, paige3, loop5, s3):
    """Closing under the product alone gives the closure under all three
    operations, and builds no division table."""
    L = {"M*(2)": lambda: paige2, "M*(3)": paige3, "loop5": lambda: loop5,
         "S3": lambda: s3}[name]()
    fresh = loops.FiniteLoop(L.table, _validated=True)
    T = L.table
    # row a of argsort(T) is a \ -, column b of argsort(T, axis=0) is - / b
    tables = (T, np.argsort(T, axis=1), np.argsort(T, axis=0))
    rng = np.random.default_rng(11)
    for _ in range(40):
        seed = rng.integers(0, L.n, size=int(rng.integers(1, 4)))
        want = _closure_three_tables(tables, seed)
        assert np.array_equal(subloop_closure(fresh, seed), want)
    assert fresh._ldiv is None and fresh._rdiv is None


def test_centers(paige2, s3, c4, klein):
    assert list(loop_center(paige2)) == [0]
    assert list(loop_center(s3)) == [0]
    assert list(loop_center(c4)) == [0, 1, 2, 3]
    assert list(loop_center(klein)) == [0, 1, 2, 3]


def test_center_of_norm_one_loop_gf3():
    M = unit_loop(3)
    assert len(M) == 2160
    z = loop_center(M)
    assert len(z) == 2
    # the nontrivial central element is -1, which squares to 1
    other = int(z[1])
    assert M.mul(other, other) == 0


def _center_by_definition(L):
    T = L.table.astype(np.int64)
    return [x for x in range(L.n)
            if (T[x] == T[:, x]).all()
            and (T[T[x]] == T[x][T]).all()
            and (T[T[:, x]] == T[:, T[x]]).all()
            and (T[:, x][T] == T[:, T[:, x]]).all()]


def test_center_blocks_of_one_row_give_the_same_centers(monkeypatch, s3, c4,
                                                        klein, loop5,
                                                        paige2):
    """The commutation scan and the association checks, in blocks of one
    row, give the centers of the definition; the unit loop of GF(3)
    octonions is checked against {1, -1}."""
    loops_ = {"s3": s3, "c4": c4, "klein": klein, "loop5": loop5,
              "M*(2)": paige2}
    want = {k: _center_by_definition(L) for k, L in loops_.items()}
    assert want["c4"] == want["klein"] == [0, 1, 2, 3]
    M = unit_loop(3)
    minus_one = int(loop_center(M)[1])
    rows = []
    blocks = _kernels_py._blocks

    def counted(lo, hi, d):
        for a, b in blocks(lo, hi, d):
            rows.append(b - a)
            yield a, b

    monkeypatch.setattr(_kernels_py, "_blocks", counted)
    monkeypatch.setattr(loops, "_LATIN_CELLS", 1)
    monkeypatch.setattr(_kernels_py, "_BLOCK_CELLS", 1)
    for k, L in loops_.items():
        assert loop_center(L).tolist() == want[k]
    assert loop_center(M).tolist() == [0, minus_one]
    assert rows and set(rows) == {1}
    assert M.mul(minus_one, minus_one) == 0
    assert all(M.mul(minus_one, x) == M.mul(x, minus_one) != x
               for x in range(M.n))


@pytest.mark.slow
def test_center_of_paige4_stays_near_a_block(paige4, traced_peak):
    """The commutation scan of the 16,320 x 16,320 table runs in 128-row
    blocks; comparing it with its transpose whole held 1,270 MiB."""
    L = paige4()
    got = []
    assert traced_peak(lambda: got.append(loop_center(L))) < 16
    assert got[0].tolist() == [0]


def test_simplicity(paige2, s3, c4, loop5):
    assert is_simple(paige2).simple
    v = is_simple(s3)
    assert not v.simple
    assert len(v.witness) == 3    # the rotation subgroup
    assert not is_simple(c4).simple
    assert is_simple(loop5).simple


def test_paige3_is_simple_in_four_closures(monkeypatch, paige3, mlt3):
    """Each Inn-closure stops once it is all of M*(3)."""
    calls = []
    closure = loops.subloop_closure

    def counted(L, seed):
        calls.append(1)
        return closure(L, seed)

    monkeypatch.setattr(loops, "subloop_closure", counted)
    assert is_simple(paige3(), mlt=mlt3()).simple
    assert len(calls) == 4


def test_multiplication_group_of_groups(s3, c4, klein):
    # for a group G, |Mlt(G)| = |G|^2 / |Z(G)|
    assert multiplication_group(s3).order == 36
    assert multiplication_group(c4).order == 4
    assert multiplication_group(klein).order == 4
    trivial = multiplication_group(loop_from_table([[0]]))
    assert trivial.order == 1 and trivial.generators == []


@pytest.mark.parametrize("name", ["s3", "M*(2)"])
def test_mlt_generators_are_the_translations(name, s3, paige2):
    """The chain, the orbits and the repr read the table's rows and
    columns; .generators makes the left then the right translations on
    first read, and the row sequence's slices are those rows in int32."""
    L = {"s3": s3, "M*(2)": paige2}[name]
    G = multiplication_group(L)
    assert len(G.orbit(0)) == L.n
    assert "ngens=%d" % (2 * L.n - 2) in repr(G)
    assert G.order == {"s3": 36, "M*(2)": 174_182_400}[name]
    assert G._gens is None
    want = ([L.left_translation(a) for a in range(1, L.n)]
            + [L.right_translation(a) for a in range(1, L.n)])
    assert G.generators == want
    assert G.generators is G.generators
    stacked = np.array([p.images for p in want])
    rows = G._rows
    for key in (slice(0, 3), slice(L.n - 3, L.n + 2), slice(None, None, 2),
                slice(1, None, 2), slice(-2, None)):
        assert rows[key].dtype == np.int32
        assert (rows[key] == stacked[key]).all()
    assert all((rows[i] == stacked[i]).all() and rows[i].dtype == np.int32
               for i in (0, L.n - 2, L.n - 1, -1))


def test_mlt_chain_reads_a_block_of_rows_at_a_time(monkeypatch, paige2):
    """No read of the translations asks for more than one sift block, here
    16 rows of M*(2)."""
    monkeypatch.setattr(_kernels_py, "_BLOCK_CELLS", 16 * 120)
    asked = []
    getitem = loops._Translations.__getitem__

    def counted(self, key):
        out = getitem(self, key)
        asked.append(len(out) if out.ndim == 2 else 1)
        return out

    monkeypatch.setattr(loops._Translations, "__getitem__", counted)
    G = multiplication_group(paige2)
    assert G.order == 174_182_400
    assert len(G.orbit(0)) == 120
    assert max(asked) == 16
    assert G._gens is None


def test_mlt_paige3_chain_stays_near_its_cache(paige3, traced_peak):
    """|Mlt(M*(3))| is built from the table's rows and columns: the peak
    is the transversal cache of its chain, one row per basic-orbit point
    (7.24 MiB), and a few blocks, where 2,158 int32 translation copies
    took it to 18.0 MiB."""
    L = paige3()
    got = []
    peak = traced_peak(lambda: got.append(multiplication_group(L).order))
    assert got == [4_952_179_814_400]
    cache = sum([1080, 351, 224, 60, 27, 12, 3]) * L.n * 4 / 2**20
    assert peak < cache + 2


def test_save_load_roundtrip(tmp_path, paige2, loop5):
    p = tmp_path / "m2.tbl"
    save_tbl(paige2, p)
    back = load_tbl(p)
    assert (back.table == paige2.table).all()
    assert back.labels == paige2.labels
    p5 = tmp_path / "l5.tbl"
    save_tbl(loop5, p5)
    assert (load_tbl(p5).table == loop5.table).all()


def test_load_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("garbage\n")
    with pytest.raises(MalformedTableError):
        load_tbl(bad)
    bad.write_text("2\n0 1\n0 1\n")
    with pytest.raises(NotLatinError):
        load_tbl(bad)
    bad.write_text("3\n0 1 2\n1 2 0\n")
    with pytest.raises(MalformedTableError):
        load_tbl(bad)


def test_paige_q_validation():
    with pytest.raises(DomainError):
        paige_representatives(6)
    with pytest.raises(LimitError):
        paige_representatives(16)


# SHA-256 of the int16 tables: M*(2) and M*(3) from a fill that
# multiplied every cell with oct_mul and relabelled it with
# oct_canonical, M*(4) from the fill that built each block of rows' left
# multiplications with its own oct_mul and looked them up block by block
_TABLE_SHA256 = {
    2: "749811eea7d7ed36934a5b922a72f924cbb539e9de697b941839c45618f3dbdc",
    3: "a4ee2ee6fa8faf05570163265ed5cbb1bc65ffce6cc184e8c1a9077b67e20f73",
    4: "76948cc161dac6242ee56fd7fa8175eea9ccc669b3774586a34cba83cfe073bc",
}


@pytest.mark.parametrize("q", [2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_paige_table_is_pinned(q, paige4):
    T = (paige4() if q == 4 else paige_loop(q)).table
    assert T.dtype == np.int16 and T.flags.c_contiguous
    # hashed in place: a copy of M*(4)'s table would take 508 MiB more
    assert hashlib.sha256(memoryview(T).cast("B")).hexdigest() == \
        _TABLE_SHA256[q]


def _label_coords(F, labels):
    return np.array([Octonion.from_text(F, s).coords for s in labels],
                    dtype=np.int16)


@pytest.mark.parametrize("build,q,cells", [
    (paige_loop, 2, None), (unit_loop, 2, None),
    (paige_loop, 3, 20_000), (unit_loop, 3, 20_000)])
def test_table_cells_are_zorn_products(build, q, cells):
    """Each checked cell T[i, j] is the label of the Zorn product of the
    labels of i and j (or of its negative, in M*(q)); all cells when
    cells is None, else a seeded sample."""
    F = field(q)
    L = build(q)
    C = _label_coords(F, L.labels)
    n = len(L)
    if cells is None:
        I, J = (a.ravel() for a in np.indices((n, n)))
    else:
        I, J = np.random.default_rng(q).integers(0, n, size=(2, cells))
    Z = oct_mul(F, C[I], C[J])
    got = C[L.table[I, J]]
    same = (got == Z).all(axis=1)
    if build is paige_loop:
        same |= (got == oct_neg(F, Z)).all(axis=1)
    assert same.all()


def test_labels_match_octonion_text():
    for q in (2, 3):
        F = field(q)
        reps = paige_representatives(q)
        want = [Octonion(F, row).to_text() for row in reps]
        assert paige_loop(q).labels == want
    assert loops._labels(field(4), np.array([[0, 1, 2, 3, 0, 1, 2, 3]])) \
        == ["0,0;1,0;0,1;1,1;0,0;1,0;0,1;1,1"]


def test_address_book_looks_up_both_signs():
    for q in (3, 2):
        F = field(q)
        reps = paige_representatives(q)
        addr = loops._address_book(F, reps)
        rows = np.arange(len(reps))
        assert (addr[loops._rep_address(q, reps)] == rows).all()
        assert (addr[loops._rep_address(q, oct_neg(F, reps))] == rows).all()
        assert np.count_nonzero(addr >= 0) == len(reps) * (2 if q == 3 else 1)
    # the unit loop holds x and -x apart: each key maps to its own row
    F = field(3)
    units = loops._identity_to_front(loops.norm_one_array(F))
    addr = loops._address_book(F, units)
    assert (addr[loops._rep_address(3, units)] ==
            np.arange(len(units))).all()


def test_missing_product_raises(monkeypatch):
    F = field(3)
    reps = paige_representatives(3)
    book = loops._address_book

    def holed(F, reps):
        addr = book(F, reps).copy()
        x = reps[5:6]
        addr[loops._rep_address(F.q, x)] = -1
        addr[loops._rep_address(F.q, oct_neg(F, x))] = -1
        return addr

    monkeypatch.setattr(loops, "_address_book", holed)
    with pytest.raises(InternalError):
        loops._build_table(F, reps)
    # the conjugation images go through the same kernel; the identity
    # unit alone maps reps[5] into the hole
    monkeypatch.setattr(autos, "_address_book", holed)
    mats, _, addr = autos._conjugation_setup(F)
    with pytest.raises(InternalError):
        _kernels_py._linear_images(F, mats, reps, addr)


def test_fill_transients_stay_near_a_block(traced_peak):
    """The M*(3) fill allocates its table and a few ~1 MiB blocks."""
    F = field(3)
    reps = paige_representatives(3)
    addr = loops._address_book(F, reps)
    n = len(reps)

    def fill():
        _kernels_py.paige_table(F, reps, addr,
                                np.empty((n, n), dtype=np.int16))

    assert traced_peak(fill) < n * n * 2 / 2**20 + 4


def test_fill_over_gf4_matches_zorn_products():
    """The digit layout of a degree-2 field, on a block of M*(4) rows:
    each cell is looked up in the book of all 16,320 classes."""
    F = field(4)
    reps = paige_representatives(4)
    addr = loops._address_book(F, reps)
    sub = reps[::97]
    out = np.empty((len(sub), len(sub)), dtype=np.int32)
    _kernels_py.paige_table(F, sub, addr, out)
    want = addr[loops._rep_address(4, oct_mul(F, sub[:, None], sub[None]))]
    assert (out == want).all()


@pytest.mark.parametrize("q,want", [
    (2, [[0], [1]]), (3, [[0], [1], [2]]),
    (4, [[0, 0], [1, 0], [0, 1], [1, 1]]),
    (9, [[v % 3, v // 3] for v in range(9)])])
def test_field_digits(q, want):
    assert _kernels_py._field_digits(field(q)).tolist() == want
