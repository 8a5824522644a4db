import hashlib
import time

import numpy as np
import pytest

from paigeloops import DomainError, Field, LimitError, field
from paigeloops.config import FIELD_MAX_Q

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25]

# SHA-256 of the int16 add, sub, mul, neg, inv and frob tables, and the
# modulus, of GF(q) as built by trial division of the candidate moduli
FIELD_DIGESTS = {
    2: ("307ac21939d2e11d0907b1e6d843748d714b2a1abb82db7bbbdf1ed0ed22204f",
        None),
    3: ("67339796c19c4cf6ba312f390853de071c38ce8194c24530108f83429395ff92",
        None),
    4: ("971bb1a136d00532acdbd0a0f93eea46a5b8a33ab4aaa5ca913d9700aab6c617",
        (1, 1, 1)),
    5: ("903c7fa21bd95198f92fb54bf3e0cda94865dbc454b9e705c4219cd55092e41d",
        None),
    7: ("62c44c38015f0ad87f03af040bdc34aeb8238faf173ea3f10769f2402def0aa7",
        None),
    8: ("373394c2fe3a2a7b4679228684d9874fe26596533bd4e8d4daab352f2462b66c",
        (1, 0, 1, 1)),
    9: ("9323a1a40caeb3777591ac671e0db730e2510b4d923fa99bded96dbe05159dee",
        (1, 0, 1)),
    11: ("339b844e55269637db6015e0eb6416b58b1a98026579af0ff776cec68aa86657",
         None),
    13: ("dffad3671074a6cb0f831f1908c488bb381d5f148353163f062d6819ed6d7f9f",
         None),
    16: ("096773cc0542a76922909218b6c66b9710fc96d756b3fa254e7871b5c0755922",
         (1, 0, 0, 1, 1)),
    25: ("a48dc5dc1f967dd46ac19fb39a77f80925d01c5279f21e20dd0fedbba0588bbf",
         (1, 1, 1)),
}


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_pinned_fields(q):
    """Every table and the modulus, byte for byte."""
    F = Field(q)
    h = hashlib.sha256()
    for t in (F.add_table, F.sub_table, F.mul_table, F.neg_table,
              F.inv_table, F.frob_table):
        assert t.dtype == np.int16
        h.update(t.tobytes())
    assert (h.hexdigest(), F.modulus) == FIELD_DIGESTS[q]


@pytest.mark.parametrize("q,want", [
    (2, [[0], [1]]), (3, [[0], [1], [2]]),
    (4, [[0, 0], [1, 0], [0, 1], [1, 1]]),
    (9, [[v % 3, v // 3] for v in range(9)])])
def test_field_digits(q, want):
    F = field(q)
    assert F.digits.dtype == np.int16
    assert F.digits.tolist() == want
    assert [F.coeffs(a) for a in F.elements()] == [tuple(w) for w in want]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_field_axioms(q):
    F = field(q)
    a = np.repeat(np.arange(q), q * q)
    b = np.tile(np.repeat(np.arange(q), q), q)
    c = np.tile(np.arange(q), q * q)
    add, mul = F.add_table, F.mul_table
    assert (add[a, b] == add[b, a]).all()
    assert (mul[a, b] == mul[b, a]).all()
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
    assert (add[np.arange(q), 0] == np.arange(q)).all()
    assert (mul[np.arange(q), 1] == np.arange(q)).all()


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_inverses_and_negation(q):
    F = field(q)
    x = np.arange(q)
    assert (F.add_table[x, F.neg_table[x]] == 0).all()
    nz = x[1:]
    assert (F.mul_table[nz, F.inv_table[nz]] == 1).all()
    assert F.sub_table[3 % q, 3 % q] == 0
    with pytest.raises(DomainError):
        F.inv(0)


def test_prime_field_is_integers_mod_p():
    F = field(7)
    for a in range(7):
        for b in range(7):
            assert F.add(a, b) == (a + b) % 7
            assert F.mul(a, b) == (a * b) % 7


def _pow_by_squaring(F, a, n):
    """a^n for n >= 0 by square-and-multiply on the mul table."""
    acc = 1
    while n:
        if n & 1:
            acc = F.mul(acc, a)
        a, n = F.mul(a, a), n >> 1
    return acc


def test_gf4_structure():
    # the only irreducible quadratic over GF(2) is x^2 + x + 1
    F = field(4)
    assert F.p == 2 and F.k == 2
    assert F.mul(2, 2) == 3
    assert F.mul(2, 3) == 1
    assert F.add(2, 3) == 1
    assert _pow_by_squaring(F, 2, 3) == 1


@pytest.mark.parametrize("q,p,k", [(2, 2, 1), (8, 2, 3), (9, 3, 2),
                                   (25, 5, 2)])
def test_prime_power_factoring(q, p, k):
    F = field(q)
    assert (F.p, F.k) == (p, k)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25])
def test_frobenius(q):
    F = field(q)
    x = np.arange(q)
    assert (F.frob_table == [_pow_by_squaring(F, int(a), F.p)
                             for a in x]).all()
    y = x.copy()
    for _ in range(F.k):
        y = F.frob_table[y]
    assert (y == x).all()
    # additivity distinguishes Frobenius from a generic power map
    for a in range(q):
        for b in range(q):
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a),
                                                     F.frobenius(b))


@pytest.mark.parametrize("q", [2, 4, 8, 9])
def test_automorphism_group_is_cyclic_of_degree_k(q):
    F = field(q)
    autos = F.automorphisms()
    assert len(autos) == F.k
    seen = {tuple(a) for a in autos}
    assert len(seen) == F.k
    assert tuple(range(q)) in seen
    frob = np.asarray(autos[1] if F.k > 1 else autos[0])
    cur = np.arange(q)
    for _ in range(F.k):
        cur = frob[cur]
    assert (cur == np.arange(q)).all()


def test_element_text_roundtrip():
    F = field(9)
    for a in range(9):
        assert F.parse_element(F.format_element(a)) == a
    F2 = field(5)
    assert F2.parse_element("3") == 3
    with pytest.raises(DomainError):
        F2.parse_element("7")


def test_coeff_roundtrip():
    F = field(8)
    for a in range(8):
        assert F.from_coeffs(F.coeffs(a)) == a


@pytest.mark.parametrize("coeffs", [(1.5, 0, 0), (1.0, 0, 0), ("1", 0, 0),
                                    (0, 2, 0), (0, -1, 0), (1, 0)])
def test_from_coeffs_refuses_non_digits(coeffs):
    """A coefficient is an int in 0..p-1, by the rule check applies to
    elements."""
    with pytest.raises(DomainError):
        field(8).from_coeffs(coeffs)
    assert field(8).from_coeffs((np.int16(1), 0, np.int64(1))) == 5


def test_rejects_non_prime_powers():
    for q in (0, 1, 6, 10, 12, 15, 18):
        with pytest.raises(DomainError):
            field(q)


def test_field_size_limit():
    with pytest.raises(LimitError):
        field(FIELD_MAX_Q + 2)
    assert field(FIELD_MAX_Q).q == FIELD_MAX_Q


def test_size_bound_is_checked_before_factoring():
    """A prime near 10^12 is refused at once, where trial division up to
    it would take minutes; a non-prime-power past the bound is refused by
    the bound too."""
    t0 = time.perf_counter()
    with pytest.raises(LimitError):
        field(999_999_999_989)
    assert time.perf_counter() - t0 < 0.1
    with pytest.raises(LimitError):
        field(26)


def test_field_cache_and_equality():
    assert field(3) is field(3)
    assert field(3) == Field(3)
    assert field(3) != field(5)
