"""Numpy kernels for the permutation engine and the Paige table fill.

Data layout shared with the stabilizer-chain driver, C-contiguous and
int32 but for the transversal caches, which hold points in the point
dtype (_point_dtype):

- a permutation is an image array p with p[i] = image of point i;
  compose(p, q) applies p first, then q.
- per chain level: a generator stack gs of shape (2m, d) whose row 2i is
  generator i at that level and row 2i+1 its inverse; a Schreier vector sv
  with sv[x] = -1 (unreached), -2 (root) or the gs row index er that mapped
  the parent to x, so gs[er ^ 1] steps from x back toward the root; pos
  mapping point -> stable position in the append-only orbit array, or -1
  for a point outside the orbit; the orbit array itself with norbit valid
  entries; and the transversal-inverse cache uinv, whose row pos[x] holds
  u_x^{-1} (u_x maps the base to x).

Sifting works on blocks: a (b, d) int32 array whose rows are b
permutations, reduced level by level together.  At each level, row r is
composed with row pos[x_r] of uinv, x_r its image of the base, in one
flat gather from uinv.ravel() at h[r] + pos[x_r] * d.  A row that sticks
at a level, or ends reduced but not the identity, is the block's answer,
and the rows after it are dropped.  A sift row costs _sift_row_bytes(d):
the row, its int32 indices, their intp copy and the gather in the cache's
dtype, 18 d bytes below 32,768 points (53 rows a block at d = 1,080) and
20 d above.  A sweep stops early only at a residue, which happens a few dozen
times a chain at most, so few rows are sifted in vain.  A single row is
a block of one.

Orbit positions are stable: orbit extension appends new points and never
relabels old ones, so sweep cursors and cached rows stay valid.

Every GF(p)-linear map of the split octonions over GF(p^k) reaches a
loop through one kernel, _linear_images: the map is its 8k x 8k matrix
on base-p digits (_digit_matrices), applied to many octonions at once as
an exact float32 product, reduced mod p and looked up by key
(zorn._oct_keys).  The Paige table's rows (left multiplications) are
such maps, and so are the unit conjugations and the Frobenius of autos.

One budget, _BLOCK_BYTES, bounds every bulk step here and in loops,
zorn, autos and perm: each takes its rows from _blocks(lo, hi,
row_bytes), _BLOCK_BYTES // row_bytes rows a block (at least one).  A
site's row_bytes is what one row of its block holds at once: the
copies, gathers and masks made for it at their dtypes' sizes, and the
intp indices built for np.take or a flat gather, 8 bytes a cell (fancy
indexing casts smaller index arrays through fixed buffers); a step that
makes nothing per row counts the row it reads.  No answer depends on
the block size.

The sampled checks stream their seeded draws through _sample_blocks, a
block of each draw at a time, in int64, the draws counted in the row's
bytes; a prepass finds where each later draw starts, so the samples are
those of the one-shot draws, whatever the block size.
"""

import copy

import numpy as np

from .errors import DomainError, InternalError
from .zorn import _oct_keys, oct_mul


def _point_dtype(n):
    """The dtype that holds the points 0..n-1 of a table or a transversal
    cache: int16 up to n = 32,767, int32 above."""
    return np.int16 if n <= 32767 else np.int32


def _sift_row_bytes(d):
    """What one row of a sift block holds at degree d (see above)."""
    return (16 + np.dtype(_point_dtype(d)).itemsize) * d


def compose(p, q):
    """Permutation applying p first, then q."""
    return q[p]


def compose_into(p, q, out):
    """out[:] = compose(p, q); out may alias p but never q."""
    np.take(q, p, out=out)
    return out


def invert(p):
    out = np.empty_like(p)
    out[p] = np.arange(len(p), dtype=p.dtype)
    return out


def orbit_update(gs, sv, pos, orbit, norbit, base):
    """Extend the orbit/tree of base under gs rows; returns the new norbit.

    Every existing label is kept and newly reached points are appended.
    """
    if norbit == 0:
        sv[base] = -2
        pos[base] = 0
        orbit[0] = base
        norbit = 1
    frontier = orbit[:norbit].copy()
    while len(frontier):
        nxt = []
        for er in range(gs.shape[0]):
            ys = gs[er][frontier]
            new = ys[sv[ys] == -1]
            if len(new):
                # each child has a unique parent under gs[er], so the label
                # is unambiguous, and gs[er] is a bijection on distinct
                # frontier points, so new holds no repeats; the sort only
                # fixes the append order
                new.sort()
                sv[new] = er
                pos[new] = np.arange(norbit, norbit + len(new),
                                     dtype=np.int32)
                orbit[norbit:norbit + len(new)] = new
                norbit += len(new)
                nxt.append(new)
        frontier = np.concatenate(nxt) if nxt else frontier[:0]
    return norbit


# Bytes of scratch that one block of a bulk step holds.
_BLOCK_BYTES = 1 << 20


def _blocks(lo, hi, row_bytes):
    """Consecutive ranges (a, b) covering lo..hi, each of
    _BLOCK_BYTES // row_bytes rows (at least one) but the last."""
    k = max(1, _BLOCK_BYTES // row_bytes)
    for a in range(lo, hi, k):
        yield a, min(a + k, hi)


def _sample_args(n_samples, seed):
    """A sampled check's n_samples and seed as Python ints, or DomainError
    unless n_samples is an integer >= 1 and seed an integer >= 0 (a
    numpy integer counts, a bool does not)."""
    for name, v, least in (("n_samples", n_samples, 1), ("seed", seed, 0)):
        if (isinstance(v, bool) or not isinstance(v, (int, np.integer))
                or v < least):
            raise DomainError(f"{name} must be an integer >= {least}, "
                              f"got {v!r}")
    return int(n_samples), int(seed)


def _sample_blocks(rng, n, count, k, row_bytes, width=()):
    """Yield (lo, hi, draws) over _blocks(0, count, row_bytes), where
    draws[j] is rows lo..hi of the j-th of k successive
    rng.integers(0, n, size=(count,) + width) draws, in int64; row_bytes
    counts a row's k draws, 8 bytes a cell.

    Below 2^32 a draw takes the bit generator's buffered 32-bit outputs,
    a data-dependent number of them a cell (Lemire's rejection), so the
    blocks of a draw join up to it, but where a later draw starts is
    known only once the earlier ones are made.  A prepass makes draws
    0..k-2 a block at a time and drops them, copying rng before each (its
    bit generator's state, buffered half-output included); the k - 1
    copies and rng itself then draw in lockstep, and rng ends where the
    k draws leave it."""
    gens = []
    for _ in range(k - 1):
        gens.append(copy.deepcopy(rng))
        for lo, hi in _blocks(0, count, row_bytes):
            rng.integers(0, n, size=(hi - lo,) + width)
    gens.append(rng)
    for lo, hi in _blocks(0, count, row_bytes):
        yield lo, hi, [g.integers(0, n, size=(hi - lo,) + width)
                       for g in gens]


def transversal_fill(gs, sv, pos, orbit, norbit, base, uinv):
    """Fill uinv so that row pos[x] = u_x^{-1} for every orbit point x.

    u_y^{-1} is g_edge^{-1} then u_parent^{-1}, so a point's row is a
    gather of its parent's row.  The tree is filled a layer at a time,
    each point once its parent is, in blocks of rows that are one flat
    gather each, a row costing its int32 edge row, its intp indices and
    the gather in uinv's dtype."""
    d = len(sv)
    uinv[pos[base]] = np.arange(d, dtype=np.int32)
    pts = orbit[:norbit]
    todo = pts[pts != base]
    if (sv[todo] < 0).any():
        raise RuntimeError("disconnected Schreier tree")
    parent = np.zeros(d, dtype=np.int32)
    parent[todo] = gs[sv[todo] ^ 1, todo]
    filled = np.zeros(d, dtype=bool)
    filled[base] = True
    flat = uinv.ravel()
    while len(todo):
        ready = todo[filled[parent[todo]]]
        if not len(ready):
            raise RuntimeError("disconnected Schreier tree")
        for lo, hi in _blocks(0, len(ready), (12 + uinv.itemsize) * d):
            ys = ready[lo:hi]
            # row y[j] = row parent(y)[g_edge^{-1}(j)]
            idx = gs[sv[ys] ^ 1] + (pos[parent[ys]].astype(np.intp)
                                    * d)[:, None]
            uinv[pos[ys]] = flat.take(idx)
        filled[ready] = True
        todo = todo[~filled[todo]]


def sift_run(h, start, bases, uinvs, poss):
    """Reduce the (b, d) block h in place through levels start..

    Returns (i, level) for the first row i that does not sift to the
    identity, stuck at level or reduced everywhere (level = the number of
    levels) but not the identity; row i then holds exactly the residue of
    the row's own sift.  Rows after i are left partly reduced.  When every
    row sifts to the identity it returns (b, number of levels)."""
    nlev = len(bases)
    b, d = h.shape
    live = b                    # rows 0..live-1 are still being reduced
    stuck = (b, nlev)
    for lev in range(start, nlev):
        pos = poss[lev][h[:live, bases[lev]]]
        unreached = np.flatnonzero(pos < 0)
        if len(unreached):
            # a stuck row is a residue; the rows after it cannot matter
            live = int(unreached[0])
            stuck = (live, lev)
            pos = pos[:live]
        if not live:
            break
        # row r becomes h[r] then u_x^{-1} (u_base^{-1} is the identity);
        # a cache has under 2^31 cells, so the int32 indices are in range
        # and "clip" only skips the bounds check; take(out=) refuses an
        # int32 out for an int16 cache, so the gather is copied into h
        idx = h[:live] + (pos * d)[:, None]
        h[:live] = uinvs[lev].ravel().take(idx, mode="clip")
    moved = np.flatnonzero(
        (h[:live] != np.arange(d, dtype=h.dtype)).any(axis=1))
    if len(moved):
        return int(moved[0]), nlev
    return stuck


def sweep_gen(lev, gi, startpos, bases, svs, genstacks, uinvs, poss, orbits,
              norbits):
    """Sift the Schreier generators u_p s u_{s(p)}^{-1} for s = generator gi
    of level lev and orbit positions startpos.. in order.

    Sifting t = u_p s from level lev absorbs the trailing u_{s(p)}^{-1} as
    the level-lev reduction step.  Positions are taken in blocks (see
    _blocks) and each block's rows t are sifted as one.  Two kinds of
    generator are not built, since the sift would find them in the group
    of the levels below:
    - on a Schreier-tree edge, where s(p) is labelled by s or p by
      s^{-1}, u_p s = u_{s(p)} and the generator is the identity;
    - for an involution s, the generator at p is the inverse of the one
      at s(p), so when s(p) has the earlier position, that one has been
      swept before p is reached and found in that group, which only
      grows.
    t = u_p s is scattered from the cached u_p^{-1} without inverting it:
    t[u_p^{-1}(y)] = s(y), its indices made and freed before the sift, so
    a row costs a sift row.  Returns (next position, None) when the run
    completes, or (failing position, residue) at the first nontrivial
    residue.
    """
    srow = genstacks[lev][2 * gi]
    d = len(srow)
    sv = svs[lev]
    pos = poss[lev]
    orbit = orbits[lev]
    u = uinvs[lev]
    nstop = norbits[lev]
    involution = bool((srow == genstacks[lev][2 * gi + 1]).all())
    for lo, hi in _blocks(startpos, nstop, _sift_row_bytes(d)):
        ps = orbit[lo:hi]
        sps = srow[ps]
        build = (sv[sps] != 2 * gi) & (sv[ps] != 2 * gi + 1)
        if involution:
            build &= pos[sps] >= np.arange(lo, hi)
        keep = lo + np.flatnonzero(build)
        k = len(keep)
        if not k:
            continue
        # one flat scatter: t[r, u_p^{-1}(y)] = s(y) for row r of p
        # (the int16 rows of a cache widen to int32 in the sum)
        t = np.empty((k, d), dtype=np.int32)
        t.ravel()[u[keep] + (np.arange(k, dtype=np.int32) * d)[:, None]] = \
            np.broadcast_to(srow, (k, d))
        i, _ = sift_run(t, lev, bases, uinvs, poss)
        if i < k:
            return int(keep[i]), t[i].copy()
    return nstop, None


def _digit_basis(F):
    """The (8k, 8) int16 octonions of the GF(p) basis of octonions over
    GF(p^k), each 8k base-p digits, k per coordinate (F.digits): row r
    has digit r equal to 1 and every other digit 0."""
    return (np.eye(8, dtype=np.int16)[:, None]
            * F.p ** np.arange(F.k, dtype=np.int16)[:, None]).reshape(-1, 8)


def _digit_matrices(F, f):
    """The (b, 8k, 8k) int8 stack of the GF(p) matrices of b GF(p)-linear
    maps of octonions over GF(p^k): f takes the (8k, 8) digit basis
    (_digit_basis) and returns its (b, 8k, 8) images, or (8k, 8) for one
    map.  Row r of a matrix M holds the digits of the image of basis row
    r, so x maps to x @ M."""
    m = 8 * F.k
    return F.digits.astype(np.int8)[f(_digit_basis(F))].reshape(-1, m, m)


def _floor_mod(P, p):
    """P mod p in place, exact for float32 integers 0..8k (p - 1)^2: the
    quotient by p is correctly rounded and floors to the integer one."""
    Q = P / p
    P -= np.multiply(np.floor(Q, out=Q), p, out=Q)
    return P


def _linear_images(F, mats, X, addr, out=None):
    """out[i, j] = addr[key of X[j] @ mats[i]], the loop index of Zorn
    matrix X[j] under map i of a _digit_matrices stack, with out made in
    addr's dtype if not given; returns out, or raises InternalError when
    an image's key (zorn._oct_keys) is not in addr.

    Maps are taken in _blocks; one image costs its unreduced digits and
    their quotients by p in float32, and its key and value, 8 (8k + 2)
    bytes, so a block is 12 maps of M*(3) and 1 of M*(4).  The float32
    arithmetic is exact: a digit of X[j] @ mats[i] before reduction is an
    integer of at most 8k (p - 1)^2, reduced by _floor_mod, and the keys,
    below q^8, are summed in float32 up to q = 8 and in float64 above."""
    p, k = F.p, F.k
    n, m = len(X), 8 * k
    if out is None:
        out = np.empty((len(mats), n), dtype=addr.dtype)
    # the key of x is the sum of its digits times the basis keys
    weights = _oct_keys(F.q, _digit_basis(F)).astype(
        np.float32 if F.q ** 8 <= 1 << 24 else np.float64)
    R = F.digits.astype(np.float32).take(X, axis=0).reshape(n, m)
    for i0, i1 in _blocks(0, len(mats), 8 * n * (m + 2)):
        M = mats[i0:i1]
        b = i1 - i0
        # P[j, (i, d)] is digit d of X[j] @ M[i] before reduction mod p
        P = R @ M.transpose(1, 0, 2).reshape(m, b * m).astype(np.float32)
        keys = (_floor_mod(P, p).reshape(n * b, m) @ weights).astype(np.intp)
        vals = addr[keys].reshape(n, b)
        if (vals < 0).any():
            raise InternalError("an image fell outside the element list")
        out[i0:i1] = vals.T
    return out


def paige_table(F, reps, addr, out):
    """Fill out[i, j] = addr[key of reps[i] * reps[j]] and return out.
    The Zorn product is GF(p)-bilinear, so row i is the images of reps
    under left multiplication by reps[i]; the stack of those maps is
    built one oct_mul per block of reps, 64 bytes a product coordinate."""
    n, m = len(reps), 8 * F.k
    Ls = np.empty((n, m, m), dtype=np.int8)
    for i0, i1 in _blocks(0, n, 64 * m):
        X = reps[i0:i1, None]
        Ls[i0:i1] = _digit_matrices(F, lambda B: oct_mul(F, X, B))
    return _linear_images(F, Ls, reps, addr, out)
