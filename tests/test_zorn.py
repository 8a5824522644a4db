import numpy as np
import pytest

from paigeloops import (DomainError, LimitError, Octonion, check_composition,
                        check_two_unit_decomposition, field, norm_one_array,
                        norm_one_count_formula, norm_one_elements,
                        two_unit_decompose)
from paigeloops import _kernels_py, zorn
from paigeloops.zorn import (oct_add, oct_canonical, oct_conj, oct_mul,
                             oct_neg, oct_norm, oct_sub)


def _random_coords(q, n, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, q, size=(n, 8)).astype(np.int16)


def test_bulk_matches_object_arithmetic():
    F = field(3)
    X = _random_coords(3, 200, 1)
    Y = _random_coords(3, 200, 2)
    P = oct_mul(F, X, Y)
    S = oct_add(F, X, Y)
    D = oct_sub(F, X, Y)
    for i in range(len(X)):
        x = Octonion(F, X[i])
        y = Octonion(F, Y[i])
        assert (x * y).coords == tuple(int(c) for c in P[i])
        assert (x + y).coords == tuple(int(c) for c in S[i])
        assert (x - y).coords == tuple(int(c) for c in D[i])
        assert x.norm() == int(oct_norm(F, X[i]))
        assert (-x).coords == tuple(int(c) for c in oct_neg(F, X[i]))
        assert x.conjugate().coords == tuple(int(c) for c in oct_conj(F, X[i]))


def test_identity_and_zero():
    F = field(5)
    e = Octonion.identity(F)
    z = Octonion.zero(F)
    X = _random_coords(5, 50, 3)
    for row in X:
        x = Octonion(F, row)
        assert e * x == x
        assert x * e == x
        assert x + z == x
        assert (x - x) == z
    assert e.norm() == 1
    assert z.norm() == 0


def test_algebra_is_not_commutative_and_not_associative():
    F = field(2)
    b = Octonion.basis(F)
    pairs = [(x, y) for x in b for y in b]
    assert any(x * y != y * x for x, y in pairs)
    triples = [(x, y, z) for x in b for y in b for z in b]
    assert any((x * y) * z != x * (y * z) for x, y, z in triples)


def test_alternative_laws_sampled():
    # x(xy) = (xx)y and (yx)x = y(xx)
    F = field(4)
    X = _random_coords(4, 4000, 4)
    Y = _random_coords(4, 4000, 5)
    assert (oct_mul(F, X, oct_mul(F, X, Y)) ==
            oct_mul(F, oct_mul(F, X, X), Y)).all()
    assert (oct_mul(F, oct_mul(F, Y, X), X) ==
            oct_mul(F, Y, oct_mul(F, X, X))).all()


def test_conjugation_is_an_antiautomorphism():
    F = field(3)
    X = _random_coords(3, 3000, 6)
    Y = _random_coords(3, 3000, 7)
    assert (oct_conj(F, oct_mul(F, X, Y)) ==
            oct_mul(F, oct_conj(F, Y), oct_conj(F, X))).all()
    assert (oct_conj(F, oct_conj(F, X)) == X).all()


def test_norm_via_conjugate():
    # x x* = N(x) 1
    F = field(5)
    X = _random_coords(5, 2000, 8)
    prod = oct_mul(F, X, oct_conj(F, X))
    norms = oct_norm(F, X)
    assert (prod[:, 0] == norms).all()
    assert (prod[:, 1] == norms).all()
    assert (prod[:, 2:] == 0).all()


def test_zero_divisors_exist():
    F = field(3)
    e11 = Octonion.from_blocks(F, 1, (0, 0, 0), (0, 0, 0), 0)
    e22 = Octonion.from_blocks(F, 0, (0, 0, 0), (0, 0, 0), 1)
    assert e11 * e22 == Octonion.zero(F)
    assert e11 * e11 == e11
    assert e11.norm() == 0


def test_composition_full_gf2():
    passed, checked, ce = check_composition(field(2), mode="full")
    assert passed and checked == 65536 and ce is None


def test_composition_sampled():
    for q in (3, 5):
        passed, checked, ce = check_composition(field(q), mode="sample",
                                                n_samples=20000, seed=0)
        assert passed and checked == 20000 and ce is None
    with pytest.raises(LimitError):
        check_composition(field(3), mode="full")
    with pytest.raises(DomainError):
        check_composition(field(3), mode="everything")
    for n in (0, -1):
        with pytest.raises(DomainError):
            check_composition(field(3), mode="sample", n_samples=n)


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_composition_draws_in_blocks(q, monkeypatch):
    """Sample mode draws X and then Y three rows a block (8 int64 draws a
    row), over an uneven last block, and multiplies four pairs a block
    (48 bytes a pair): the pairs multiplied are the two one-shot draws."""
    seen = []
    mul = zorn.oct_mul

    def recorded(F, x, y):
        seen.append((x.copy(), y.copy()))
        return mul(F, x, y)

    monkeypatch.setattr(zorn, "oct_mul", recorded)
    monkeypatch.setattr(_kernels_py, "_BLOCK_BYTES", 3 * 64)
    assert check_composition(field(q), mode="sample", n_samples=10,
                             seed=7) == (True, 10, None)
    assert [len(x) for x, _ in seen] == [4, 4, 2]
    rng = np.random.default_rng(7)
    for k in range(2):
        got = np.concatenate([pair[k] for pair in seen])
        assert got.dtype == np.int16
        assert (got == rng.integers(0, q, size=(10, 8))).all()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_norm_one_count(q):
    F = field(q)
    arr = norm_one_array(F)
    assert len(arr) == norm_one_count_formula(q) == q**3 * (q**4 - 1)
    assert (oct_norm(F, arr) == 1).all()


def test_norm_one_array_sorted_unique():
    arr = norm_one_array(field(3))
    as_tuples = [tuple(int(c) for c in row) for row in arr]
    assert as_tuples == sorted(set(as_tuples))
    objs = norm_one_elements(field(3))
    assert objs[0].norm() == 1
    assert len(objs) == len(arr)


def test_canonical_picks_sign_representative():
    F = field(3)
    X = _random_coords(3, 500, 9)
    C = oct_canonical(F, X)
    N = oct_neg(F, X)
    for i in range(len(X)):
        lo = min(tuple(int(c) for c in X[i]), tuple(int(c) for c in N[i]))
        assert tuple(int(c) for c in C[i]) == lo


def test_two_unit_decompose():
    F = field(3)
    for coords in ((0,) * 8, (1, 1, 0, 0, 0, 0, 0, 0), (2, 1, 0, 2, 1, 0, 1, 2)):
        u, z = two_unit_decompose(F, coords)
        assert u.norm() == 1 and z.norm() == 1
        assert (u + z).coords == coords
    u, z = two_unit_decompose(F, Octonion.zero(F))
    assert (u + z) == Octonion.zero(F)
    with pytest.raises(DomainError):
        two_unit_decompose(F, (0, 0, 0))


@pytest.mark.parametrize("q", [2, 3])
def test_two_unit_decomposition_sweep(q):
    passed, checked, missing = check_two_unit_decomposition(field(q))
    assert passed and checked == q**8 and missing is None


def test_octonion_text_roundtrip():
    F = field(9)
    rng = np.random.default_rng(10)
    for _ in range(20):
        x = Octonion(F, rng.integers(0, 9, size=8))
        assert Octonion.from_text(F, x.to_text()) == x


def test_octonion_is_immutable_and_hashable():
    F = field(2)
    x = Octonion.identity(F)
    with pytest.raises(AttributeError):
        x.coords = (0,) * 8
    assert len({x, Octonion.identity(F), Octonion.zero(F)}) == 2


def test_mixed_field_operands_rejected():
    x = Octonion.identity(field(2))
    y = Octonion.identity(field(3))
    with pytest.raises(DomainError):
        x * y
    with pytest.raises(DomainError):
        Octonion(field(2), (0, 1, 2, 0, 0, 0, 0, 0))
