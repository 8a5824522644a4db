import itertools

import numpy as np
import pytest

from paigeloops import (DomainError, LimitError, check_composition,
                        check_two_unit_decomposition, field, norm_one_array,
                        norm_one_count_formula)
from paigeloops import _kernels_py, zorn
from paigeloops.zorn import (oct_add, oct_canonical, oct_conj, oct_mul,
                             oct_neg, oct_norm, oct_sub)


def _random_coords(q, n, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, q, size=(n, 8)).astype(np.int16)


def test_bulk_matches_scalar_field_arithmetic():
    """The coordinatewise bulk operations against the field's scalar
    operations, the independent reference, coordinate by coordinate."""
    F = field(9)
    X = _random_coords(9, 200, 1)
    Y = _random_coords(9, 200, 2)
    S, D = oct_add(F, X, Y), oct_sub(F, X, Y)
    N, C = oct_neg(F, X), oct_conj(F, X)
    for out in (S, D, N, C):
        assert out.dtype == np.int16
    for i in range(len(X)):
        x, y = X[i].tolist(), Y[i].tolist()
        assert S[i].tolist() == [F.add(a, b) for a, b in zip(x, y)]
        assert D[i].tolist() == [F.sub(a, b) for a, b in zip(x, y)]
        assert N[i].tolist() == [F.neg(a) for a in x]
        # (a, b, v, w) -> (b, a, -v, -w)
        assert C[i].tolist() == [x[1], x[0]] + [F.neg(a) for a in x[2:]]


def test_identity_and_zero():
    F = field(5)
    e = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=np.int16)
    z = np.zeros(8, dtype=np.int16)
    X = _random_coords(5, 50, 3)
    assert (oct_mul(F, e, X) == X).all()
    assert (oct_mul(F, X, e) == X).all()
    assert (oct_add(F, X, z) == X).all()
    assert (oct_sub(F, X, X) == 0).all()
    assert oct_norm(F, e) == 1
    assert oct_norm(F, z) == 0


def test_algebra_is_not_commutative_and_not_associative():
    F = field(2)
    b = np.eye(8, dtype=np.int16)
    x, y = b[:, None], b[None, :]
    assert (oct_mul(F, x, y) != oct_mul(F, y, x)).any()
    x, y, z = b[:, None, None], b[None, :, None], b[None, None, :]
    assert (oct_mul(F, oct_mul(F, x, y), z)
            != oct_mul(F, x, oct_mul(F, y, z))).any()


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
    # the diagonal idempotents (a, b) = (1, 0) and (0, 1)
    e11, e22 = np.eye(8, dtype=np.int16)[:2]
    assert (oct_mul(F, e11, e22) == 0).all()
    assert (oct_mul(F, e11, e11) == e11).all()
    assert oct_norm(F, e11) == 0


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
    """Sample mode streams X and Y three pairs a block (48 bytes of
    scratch and 16 int64 draws a pair), over an uneven last block: the
    pairs multiplied are the two one-shot draws, kept in int64."""
    seen = []
    mul = zorn.oct_mul

    def recorded(F, x, y):
        seen.append((x.copy(), y.copy()))
        return mul(F, x, y)

    monkeypatch.setattr(zorn, "oct_mul", recorded)
    monkeypatch.setattr(_kernels_py, "_BLOCK_BYTES", 3 * (48 + 16 * 8))
    assert check_composition(field(q), mode="sample", n_samples=10,
                             seed=7) == (True, 10, None)
    assert [len(x) for x, _ in seen] == [3, 3, 3, 1]
    rng = np.random.default_rng(7)
    for k in range(2):
        got = np.concatenate([pair[k] for pair in seen])
        assert got.dtype == np.int64
        assert (got == rng.integers(0, q, size=(10, 8))).all()


def test_sampled_composition_transients_stay_small(traced_peak):
    """10^6 pairs at q = 3 streamed a block at a time, where the two
    (10^6, 8) draws alone would take 122 MiB in int64 and 30.5 MiB in
    int16."""
    F = field(3)
    assert traced_peak(lambda: check_composition(F, mode="sample")) < 3


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


def test_canonical_picks_sign_representative():
    F = field(3)
    X = _random_coords(3, 500, 9)
    C = oct_canonical(F, X)
    N = oct_neg(F, X)
    for i in range(len(X)):
        lo = min(tuple(int(c) for c in X[i]), tuple(int(c) for c in N[i]))
        assert tuple(int(c) for c in C[i]) == lo


@pytest.mark.parametrize("q", [2, 3])
def test_two_unit_decomposition_sweep(q):
    passed, checked, missing = check_two_unit_decomposition(field(q))
    assert passed and checked == q**8 and missing is None


def test_two_unit_scan_stops_once_every_key_is_hit(monkeypatch):
    """At q = 3 the sums of the first 469 of the 2,160 units with every
    unit already cover all 6,561 octonions."""
    calls = []
    add = zorn.oct_add

    def counted(F, X, Y):
        calls.append(1)
        return add(F, X, Y)

    monkeypatch.setattr(zorn, "oct_add", counted)
    assert check_two_unit_decomposition(field(3)) == (True, 3 ** 8, None)
    assert len(calls) == 469


def test_two_unit_scan_names_the_least_missing_octonion(monkeypatch):
    """With only five units the scan fails, and its counterexample is the
    least coordinate tuple that no sum of two of them reaches."""
    F = field(3)
    units = norm_one_array(F)[:5]
    monkeypatch.setattr(zorn, "norm_one_array", lambda F: units)
    sums = {tuple(F.add(a, b) for a, b in zip(u, z))
            for u in units.tolist() for z in units.tolist()}
    least = next(x for x in itertools.product(range(3), repeat=8)
                 if x not in sums)
    assert check_two_unit_decomposition(F) == (False, 3 ** 8, least)


@pytest.mark.parametrize("q", [2, 3])
def test_keys_are_tuple_order_and_invert(q):
    """_oct_keys numbers all q^8 octonions 0..q^8-1 in coordinate-tuple
    order, and _oct_from_keys gives them back from their keys."""
    X = np.array(list(itertools.product(range(q), repeat=8)), dtype=np.int16)
    keys = np.arange(q ** 8)
    assert np.array_equal(zorn._oct_keys(q, X), keys)
    back = zorn._oct_from_keys(q, keys)
    assert back.dtype == np.int16 and np.array_equal(back, X)
    assert zorn._oct_from_keys(q, 5).tolist() == list(X[5])
