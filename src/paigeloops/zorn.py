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
field's operation tables.
"""

import numpy as np

from . import config
from .config import NORM_ONE_MAX_Q
from .errors import DomainError, LimitError

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


def norm_one_count_formula(q):
    """Unit count q^3 (q^4 - 1), the independent cross-check for the scan."""
    return q**3 * (q**4 - 1)


def check_composition(F, mode="full", n_samples=1_000_000, seed=0):
    """Sweep N(xy) = N(x) N(y) over pairs of octonions.

    Full mode covers all q^16 pairs (bounded to q <= 2) a block at a
    time, a pair costing 48 bytes of products, norms and gather indices.
    Sample mode draws the coordinates of X and then of Y from a seeded
    generator, in two rng.integers(0, q, size=(n_samples, 8)) draws,
    streamed a block at a time by _kernels_py._sample_blocks, whose
    prepass finds where the Y draw starts; a pair costs those 48 bytes
    and its 16 int64 draws, and n_samples must be an integer >= 1 and
    seed one >= 0.  Sample mode raises LimitError before drawing when
    16 n_samples would pass MAX_TABLE_CELLS (1.875 * 10^7 pairs), a cap
    on its time.  Returns (passed, pairs_checked, counterexample)
    where the counterexample is the coordinate pair (x, y) of the first
    failing pair, or None.
    """
    # _kernels_py imports this module
    from ._kernels_py import _blocks, _sample_args, _sample_blocks

    if mode not in ("full", "sample"):
        raise DomainError(f"unknown mode {mode!r}")
    q = F.q
    if mode == "full":
        if q > 2:
            raise LimitError("full composition sweep runs at q = 2 only; "
                             "use sample mode", bound=2)
        grid = np.indices((q,) * 8).reshape(8, -1).T.astype(np.int16)
        m = len(grid)
        X = np.repeat(grid, m, axis=0)
        Y = np.tile(grid, (m, 1))
        count = len(X)
        pairs = ((X[lo:hi], Y[lo:hi]) for lo, hi in _blocks(0, count, 48))
    else:
        count, seed = _sample_args(n_samples, seed)
        if 16 * count > config.MAX_TABLE_CELLS:
            raise LimitError(
                f"{count} sampled pairs are over the cap of "
                f"{config.MAX_TABLE_CELLS // 16}",
                bound=config.MAX_TABLE_CELLS)
        pairs = (xy for _, _, xy in _sample_blocks(
            np.random.default_rng(seed), q, count, 2, 48 + 16 * 8, (8,)))
    for x, y in pairs:
        lhs = oct_norm(F, oct_mul(F, x, y))
        rhs = F.mul_table[oct_norm(F, x), oct_norm(F, y)]
        bad = np.flatnonzero(lhs != rhs)
        if len(bad):
            i = int(bad[0])
            return False, count, (tuple(int(c) for c in x[i]),
                                  tuple(int(c) for c in y[i]))
    return True, count, None


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
