import gc
import weakref

import numpy as np
import pytest

from paigeloops import loops
from paigeloops import (DomainError, LimitError, MalformedTableError,
                        NoIdentityAtZeroError, NotLatinError, check_moufang,
                        element_order, field, first_nonassociative_triple,
                        is_simple, load_tbl, loop_center, loop_divide,
                        loop_from_table, multiplication_group,
                        paige_loop, paige_order_enumerated,
                        paige_order_formula, paige_representatives,
                        save_tbl, subloop_closure, unit_loop)
from paigeloops.zorn import oct_canonical, oct_mul, oct_neg


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
        m.setenv("PAIGE_MAX_Q", "1")
        with pytest.raises(LimitError):
            paige_loop(2)
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
    idn, x, y, z = v.counterexample
    assert idn in (1, 2, 3, 4)
    # replay the first reported identity on the reported triple
    T = loop5.table
    if idn == 1:
        assert T[T[T[x, y], x], z] != T[x, T[y, T[x, z]]]
    v2 = check_moufang(loop5, mode="sample", n_samples=4000, seed=1)
    assert not v2.passed
    assert check_moufang(loop5, mode="sample", n_samples=10, seed=1) == \
        check_moufang(loop5, mode="sample", n_samples=10, seed=1)
    with pytest.raises(DomainError):
        check_moufang(loop5, mode="exhaustive")


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
