"""Split octonions over GF(q) as Zorn vector matrices.

An element is a 2x2 block matrix (a, v; w, b) with a, b scalars and v, w
3-vectors over the field.  The canonical flat encoding used everywhere is the
8-tuple (a, b, v1, v2, v3, w1, w2, w3), compared lexicographically.

Product:  (a1, v1; w1, b1)(a2, v2; w2, b2) =
    (a1*a2 + v1.w2,  a1*v2 + b2*v1 - w1 x w2;
     a2*w1 + b1*w2 + v1 x v2,  b1*b2 + w1.v2)
Norm (the quadratic form the algebra composes with): N = a*b - v.w.
Conjugate: (b, a, -v, -w).

Bulk functions act on int16 arrays of shape (..., 8) and gather from the
field's operation tables; the scalar Octonion class rides on top of them.
"""

import numpy as np

from . import config
from .config import NORM_ONE_MAX_Q
from .errors import DomainError, InternalError, LimitError
from .gf import field

A_, B_ = 0, 1
V_ = slice(2, 5)
W_ = slice(5, 8)


def _dot(F, V, W):
    M, A = F.mul_table, F.add_table
    acc = M[V[..., 0], W[..., 0]]
    acc = A[acc, M[V[..., 1], W[..., 1]]]
    return A[acc, M[V[..., 2], W[..., 2]]]


def _cross(F, V, W):
    M, S = F.mul_table, F.sub_table
    c0 = S[M[V[..., 1], W[..., 2]], M[V[..., 2], W[..., 1]]]
    c1 = S[M[V[..., 2], W[..., 0]], M[V[..., 0], W[..., 2]]]
    c2 = S[M[V[..., 0], W[..., 1]], M[V[..., 1], W[..., 0]]]
    return np.stack([c0, c1, c2], axis=-1)


def oct_mul(F, X, Y):
    X, Y = np.broadcast_arrays(np.asarray(X), np.asarray(Y))
    M, A, S = F.mul_table, F.add_table, F.sub_table
    a1, b1, v1, w1 = X[..., A_], X[..., B_], X[..., V_], X[..., W_]
    a2, b2, v2, w2 = Y[..., A_], Y[..., B_], Y[..., V_], Y[..., W_]
    out = np.empty(X.shape, dtype=np.int16)
    out[..., A_] = A[M[a1, a2], _dot(F, v1, w2)]
    out[..., B_] = A[M[b1, b2], _dot(F, w1, v2)]
    out[..., V_] = S[A[M[a1[..., None], v2], M[b2[..., None], v1]],
                     _cross(F, w1, w2)]
    out[..., W_] = A[A[M[a2[..., None], w1], M[b1[..., None], w2]],
                     _cross(F, v1, v2)]
    return out


def oct_norm(F, X):
    X = np.asarray(X)
    return F.sub_table[F.mul_table[X[..., A_], X[..., B_]],
                       _dot(F, X[..., V_], X[..., W_])]


def oct_add(F, X, Y):
    return F.add_table[np.asarray(X), np.asarray(Y)].astype(np.int16, copy=False)


def oct_sub(F, X, Y):
    return F.sub_table[np.asarray(X), np.asarray(Y)].astype(np.int16, copy=False)


def oct_neg(F, X):
    return F.neg_table[np.asarray(X)].astype(np.int16, copy=False)


def oct_conj(F, X):
    X = np.asarray(X)
    out = np.empty(X.shape, dtype=np.int16)
    out[..., A_] = X[..., B_]
    out[..., B_] = X[..., A_]
    out[..., V_] = F.neg_table[X[..., V_]]
    out[..., W_] = F.neg_table[X[..., W_]]
    return out


def oct_canonical(F, X):
    """Rowwise lexicographic min of X and -X (the {x, -x} coset label)."""
    X = np.asarray(X)
    if F.p == 2:
        return X.astype(np.int16, copy=False)
    N = oct_neg(F, X)
    # lexicographic compare along the last axis
    take_neg = np.zeros(X.shape[:-1], dtype=bool)
    undecided = np.ones(X.shape[:-1], dtype=bool)
    for i in range(8):
        lt = undecided & (N[..., i] < X[..., i])
        gt = undecided & (N[..., i] > X[..., i])
        take_neg |= lt
        undecided &= ~(lt | gt)
    return np.where(take_neg[..., None], N, X).astype(np.int16, copy=False)


class Octonion:
    """One Zorn vector matrix; immutable; ordered by its 8-tuple."""

    __slots__ = ("field", "coords")

    def __init__(self, F, coords):
        coords = tuple(int(c) for c in coords)
        if len(coords) != 8:
            raise DomainError(f"need 8 coordinates, got {len(coords)}")
        for c in coords:
            F.check(c)
        object.__setattr__(self, "field", F)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("Octonion is immutable")

    @classmethod
    def from_blocks(cls, F, a, v, w, b):
        return cls(F, (a, b) + tuple(v) + tuple(w))

    @classmethod
    def zero(cls, F):
        return cls(F, (0,) * 8)

    @classmethod
    def identity(cls, F):
        return cls(F, (1, 1, 0, 0, 0, 0, 0, 0))

    @classmethod
    def basis(cls, F):
        """The 8 unit vectors in canonical coordinate order."""
        out = []
        for i in range(8):
            c = [0] * 8
            c[i] = 1
            out.append(cls(F, c))
        return out

    @property
    def a(self):
        return self.coords[0]

    @property
    def b(self):
        return self.coords[1]

    @property
    def v(self):
        return self.coords[2:5]

    @property
    def w(self):
        return self.coords[5:8]

    def _coerce(self, other):
        if not isinstance(other, Octonion):
            raise DomainError(f"cannot combine Octonion with {other!r}")
        if other.field != self.field:
            raise DomainError("octonions live in different fields")
        return other

    def __mul__(self, other):
        other = self._coerce(other)
        r = oct_mul(self.field, np.array(self.coords, dtype=np.int16),
                    np.array(other.coords, dtype=np.int16))
        return Octonion(self.field, r)

    def __add__(self, other):
        other = self._coerce(other)
        F = self.field
        return Octonion(F, (F.add(x, y) for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other):
        other = self._coerce(other)
        F = self.field
        return Octonion(F, (F.sub(x, y) for x, y in zip(self.coords, other.coords)))

    def __neg__(self):
        F = self.field
        return Octonion(F, (F.neg(x) for x in self.coords))

    def scale(self, c):
        F = self.field
        return Octonion(F, (F.mul(c, x) for x in self.coords))

    def norm(self):
        return int(oct_norm(self.field, np.array(self.coords, dtype=np.int16)))

    def conjugate(self):
        F = self.field
        return Octonion.from_blocks(
            F, self.b, [F.neg(x) for x in self.v], [F.neg(x) for x in self.w], self.a
        )

    def canonical(self):
        """Lexicographically smaller of self and -self."""
        n = -self
        return n if n.coords < self.coords else self

    def __eq__(self, other):
        return (isinstance(other, Octonion) and other.field == self.field
                and other.coords == self.coords)

    def __lt__(self, other):
        return self.coords < self._coerce(other).coords

    def __hash__(self):
        return hash((self.field.q, self.coords))

    def to_text(self):
        F = self.field
        return ";".join(F.format_element(c) for c in self.coords)

    @classmethod
    def from_text(cls, F, text):
        parts = text.strip().split(";")
        if len(parts) != 8:
            raise DomainError(f"octonion text needs 8 fields, got {len(parts)}")
        return cls(F, (F.parse_element(t) for t in parts))

    def __repr__(self):
        return f"Octonion({self.field!r}, {self.coords})"


def _coord_block(q, first):
    """All q^7 tails (b, v1..v3, w1..w3) in lexicographic order, prefixed by
    the fixed first coordinate."""
    n = q**7
    idx = np.arange(n, dtype=np.int64)
    out = np.empty((n, 8), dtype=np.int16)
    out[:, 0] = first
    for j in range(7):
        out[:, 1 + j] = (idx // q ** (6 - j)) % q
    return out


def norm_one_array(F):
    """All norm-one elements as an (N, 8) int16 array in canonical order."""
    if F.q > NORM_ONE_MAX_Q:
        raise LimitError(
            f"norm-one enumeration capped at q = {NORM_ONE_MAX_Q}, got {F.q}",
            bound=NORM_ONE_MAX_Q,
        )
    chunks = []
    for a in range(F.q):
        block = _coord_block(F.q, a)
        keep = oct_norm(F, block) == 1
        chunks.append(block[keep])
    return np.concatenate(chunks, axis=0)


def norm_one_elements(F):
    """Norm-one elements as Octonion objects, canonically ordered."""
    return [Octonion(F, row) for row in norm_one_array(F)]


def norm_one_count_formula(q):
    """Unit count q^3 (q^4 - 1), the independent cross-check for the scan."""
    return q**3 * (q**4 - 1)


def two_unit_decompose(F, x):
    """First (u, z) in canonical u-order with N(u) = N(z) = 1 and u + z = x."""
    if isinstance(x, Octonion):
        if x.field != F:
            raise DomainError("octonion belongs to a different field")
        coords = np.array(x.coords, dtype=np.int16)
    else:
        coords = np.array([F.check(c) for c in x], dtype=np.int16)
        if coords.shape != (8,):
            raise DomainError("need 8 coordinates")
    units = norm_one_array(F)
    rest = oct_sub(F, coords[None, :], units)
    hits = np.nonzero(oct_norm(F, rest) == 1)[0]
    if not len(hits):
        raise InternalError(f"no two-unit decomposition found for {coords}")
    i = int(hits[0])
    return Octonion(F, units[i]), Octonion(F, rest[i])


def check_composition(F, mode="full", n_samples=1_000_000, seed=0):
    """Sweep N(xy) = N(x) N(y) over pairs of octonions.

    Full mode covers all q^16 pairs (bounded to q <= 2); sample mode draws
    the coordinates of X and then of Y from a seeded generator, each in
    one rng.integers(0, q, size=(n_samples, 8)) draw kept in int16, and
    raises LimitError before drawing when their 16 n_samples cells would
    pass MAX_TABLE_CELLS.  The pairs are multiplied a block at a time, a
    pair costing 48 bytes of products, norms and gather indices.  Returns
    (passed, pairs_checked, counterexample) where the counterexample is
    the coordinate pair (x, y) of the first failing pair, or None.
    """
    # _kernels_py imports this module
    from ._kernels_py import _blocks, _draw_samples

    if mode not in ("full", "sample"):
        raise DomainError(f"unknown mode {mode!r}")
    if mode == "sample" and n_samples < 1:
        raise DomainError("n_samples must be positive")
    q = F.q
    if mode == "full":
        if q > 2:
            raise LimitError("full composition sweep runs at q = 2 only; "
                             "use sample mode", bound=2)
        grid = np.indices((q,) * 8).reshape(8, -1).T.astype(np.int16)
        m = len(grid)
        X = np.repeat(grid, m, axis=0)
        Y = np.tile(grid, (m, 1))
    else:
        if 16 * n_samples > config.MAX_TABLE_CELLS:
            raise LimitError(
                f"{n_samples} sampled pairs need {16 * n_samples} cells, "
                f"over {config.MAX_TABLE_CELLS}",
                bound=config.MAX_TABLE_CELLS)
        rng = np.random.default_rng(seed)
        X = _draw_samples(rng, q, (n_samples, 8), np.int16)
        Y = _draw_samples(rng, q, (n_samples, 8), np.int16)
    for lo, hi in _blocks(0, len(X), 48):
        x, y = X[lo:hi], Y[lo:hi]
        lhs = oct_norm(F, oct_mul(F, x, y))
        rhs = F.mul_table[oct_norm(F, x), oct_norm(F, y)]
        bad = np.flatnonzero(lhs != rhs)
        if len(bad):
            i = lo + int(bad[0])
            return False, len(X), (tuple(int(c) for c in X[i]),
                                   tuple(int(c) for c in Y[i]))
    return True, len(X), None


def check_two_unit_decomposition(F):
    """Verify every one of the q^8 octonions is a sum of two norm-one
    elements.  Returns (passed, count_checked, counterexample)."""
    q = F.q
    units = norm_one_array(F)
    # every sum u + z of two units, marked in one q^8 hit table
    m = len(units)
    hit = np.zeros(q ** 8, dtype=bool)
    weights = q ** np.arange(7, -1, -1, dtype=np.int64)
    for i in range(m):
        s = oct_add(F, units[i][None, :], units)
        hit[s.astype(np.int64) @ weights] = True
    missing = np.nonzero(~hit)[0]
    if len(missing):
        val = int(missing[0])
        coords = []
        for w in weights:
            coords.append(int(val // w))
            val %= int(w)
        return False, q ** 8, tuple(coords)
    return True, q ** 8, None
