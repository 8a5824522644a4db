"""Exact arithmetic in GF(p^k) for small q.

Elements are plain ints 0..q-1.  Field.digits[a] holds the base-p digits
(c0, ..., c_{k-1}) of a, least significant first, a = c0 + c1*p + ... +
c_{k-1}*p^(k-1): the coefficients of its representative c0 + c1 t + ... +
c_{k-1} t^(k-1) in GF(p)[t]/(f).  So 0 is the additive and 1 the
multiplicative identity and the natural int order is the canonical element
order.  On prime fields the int is just the residue.

The modulus f = c0 + ... + c_{k-1} t^(k-1) + t^k is the least candidate,
(c0, ..., c_{k-1}) compared low-degree-first, whose residue ring
GF(p)[t]/(f) has no zero divisors: a finite ring without zero divisors is
a field, and this one is exactly when f is irreducible.  All arithmetic
goes through precomputed numpy tables so bulk code can gather straight
from them.
"""

import functools
import itertools

import numpy as np

from .config import FIELD_MAX_Q
from .errors import DomainError, InternalError, LimitError


def _factor_prime_power(q):
    """Return (p, k) with q = p^k, or raise DomainError."""
    if q < 2:
        raise DomainError(f"q = {q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise DomainError(f"q = {q} is not a prime power")
            return p, k
    raise DomainError(f"q = {q} is not a prime power")


def _is_index(a, n):
    """Whether a is an int (Python or numpy) in 0..n-1."""
    return isinstance(a, (int, np.integer)) and 0 <= a < n


def _residue_ring(digits, p, lower):
    """The add and mul tables of GF(p)[t]/(f), f = lower + t^k, on the
    elements whose (q, k) digit vectors are digits: a b is the sum of
    a_i (t^i b), and multiplying by t shifts the digits up one place,
    the t^k that falls out coming back as -lower (the companion matrix
    of f)."""
    k = digits.shape[1]
    D = digits.astype(np.int64)
    C = np.eye(k, k, 1, dtype=np.int64)
    C[-1] -= lower
    prod = np.zeros((len(D), len(D), k), dtype=np.int64)
    tb = D
    for i in range(k):
        prod += D[:, i, None, None] * tb
        tb = tb @ C % p
    weights = p ** np.arange(k)
    add = (D[:, None] + D[None]) % p @ weights
    return add, prod % p @ weights


class Field:
    """GF(q) with all unary/binary operations tabulated.

    digits is the (q, k) int16 array of the base-p digits of each element,
    least significant first: the coefficients of its representative in
    GF(p)[t]/(modulus).  modulus is the least monic degree-k candidate
    whose residue ring has no zero divisors (see the module docstring), as
    a low-degree-first coefficient tuple, or None on a prime field.
    Tables (numpy, int16): add/sub/mul are (q, q); neg/inv/frob are (q,).
    inv[0] is -1 and guarded in inv().
    """

    def __init__(self, q):
        p, k = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        self.digits = (np.arange(q)[:, None] // p ** np.arange(k)
                       % p).astype(np.int16)
        for lower in itertools.product(range(p), repeat=k):
            add, mul = _residue_ring(self.digits, p, lower)
            if mul[1:, 1:].all():
                break
        else:
            raise InternalError(
                f"no irreducible polynomial of degree {k} over GF({p})")
        self.modulus = None if k == 1 else lower + (1,)
        self.add_table = add.astype(np.int16)
        self.mul_table = mul.astype(np.int16)
        self.neg_table = (self.add_table == 0).argmax(axis=1).astype(np.int16)
        self.sub_table = self.add_table[:, self.neg_table]
        self.inv_table = (self.mul_table == 1).argmax(axis=1).astype(np.int16)
        self.inv_table[0] = -1
        # frobenius x -> x^p
        x = np.arange(q)
        frob = np.ones(q, dtype=np.int16)
        for _ in range(p):
            frob = self.mul_table[frob, x]
        self.frob_table = frob

    # -- scalar operations ---------------------------------------------------

    def check(self, a):
        if not _is_index(a, self.q):
            raise DomainError(f"{a!r} is not an element of GF({self.q})")
        return int(a)

    def add(self, a, b):
        return int(self.add_table[self.check(a), self.check(b)])

    def sub(self, a, b):
        return int(self.sub_table[self.check(a), self.check(b)])

    def mul(self, a, b):
        return int(self.mul_table[self.check(a), self.check(b)])

    def neg(self, a):
        return int(self.neg_table[self.check(a)])

    def inv(self, a):
        a = self.check(a)
        if a == 0:
            raise DomainError("0 has no multiplicative inverse")
        return int(self.inv_table[a])

    def frobenius(self, a):
        return int(self.frob_table[self.check(a)])

    # -- structure -----------------------------------------------------------

    def elements(self):
        return range(self.q)

    def coeffs(self, a):
        """Little-endian coefficient tuple of a (length k): digits[a]."""
        return tuple(self.digits[self.check(a)].tolist())

    def from_coeffs(self, coeffs):
        """The element whose digits are coeffs, each an int in 0..p-1."""
        if len(coeffs) != self.k or not all(_is_index(c, self.p)
                                            for c in coeffs):
            raise DomainError(f"bad coefficient vector {coeffs!r} for GF({self.q})")
        return sum(int(c) * self.p ** i for i, c in enumerate(coeffs))

    def automorphisms(self):
        """The k powers of Frobenius, each as a length-q image array."""
        maps = []
        cur = np.arange(self.q, dtype=np.int16)
        for _ in range(self.k):
            maps.append(cur.copy())
            cur = self.frob_table[cur]
        return maps

    # -- text encoding ---------------------------------------------------------

    def format_element(self, a):
        a = self.check(a)
        if self.k == 1:
            return str(a)
        return ",".join(str(c) for c in self.coeffs(a))

    def parse_element(self, text):
        parts = text.strip().split(",")
        try:
            vals = [int(t) for t in parts]
        except ValueError:
            raise DomainError(f"cannot parse {text!r} as a GF({self.q}) element")
        if self.k == 1:
            if len(vals) != 1:
                raise DomainError(f"cannot parse {text!r} as a GF({self.q}) element")
            return self.check(vals[0])
        return self.from_coeffs(vals)

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.q})"
        mod = "+".join(
            f"{c}*t^{i}" if i else str(c)
            for i, c in enumerate(self.modulus)
            if c
        )
        return f"GF({self.q})=GF({self.p})[t]/({mod})"

    def __eq__(self, other):
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self):
        return hash(("Field", self.q))


@functools.lru_cache(maxsize=None)
def field(q):
    """Shared Field instance for GF(q); DomainError if q is not a prime power,
    LimitError above the configured bound."""
    if isinstance(q, bool) or not isinstance(q, int):
        raise DomainError(f"q must be an int, got {q!r}")
    p, k = _factor_prime_power(q)
    if q > FIELD_MAX_Q:
        raise LimitError(f"q = {q} exceeds the field bound {FIELD_MAX_Q}",
                         bound=FIELD_MAX_Q)
    return Field(q)
