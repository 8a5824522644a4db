"""Numpy kernels for the permutation engine and the Paige table fill.

Data layout shared with the stabilizer-chain driver, all int32 and
C-contiguous:

- a permutation is an image array p with p[i] = image of point i;
  compose(p, q) applies p first, then q.
- per chain level: a generator stack gs of shape (2m, d) whose row 2i is
  generator i at that level and row 2i+1 its inverse; a Schreier vector sv
  with sv[x] = -1 (unreached), -2 (root) or the gs row index er that mapped
  the parent to x, so gs[er ^ 1] walks from x back toward the root; a depth
  array dep (tree depth per reached point); pos mapping point -> stable
  position in the append-only orbit array; the orbit array itself with
  norbit valid entries; and an optional transversal-inverse cache uinv
  where row pos[x] holds u_x^{-1} (u_x maps the base to x).

Orbit positions are stable: orbit extension appends new points and never
relabels old ones, so sweep cursors stay valid.  A fresh rebuild (used when
the tree grows too deep) relabels the tree but keeps positions; the caller
must then reset that level's sweep cursors.

The Paige table fill works on the base-p digits of Zorn coordinates over
GF(p^k): each row of the table is one GF(p)-linear map, the left
multiplication by that row's representative, applied to all
representatives at once as a float32 matrix product of small integers
(exact), reduced mod p and looked up by base-q key.
"""

import numpy as np

from .zorn import oct_mul


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


def is_identity(p):
    return bool((p == np.arange(len(p), dtype=p.dtype)).all())


def orbit_update(gs, sv, dep, pos, orbit, norbit, base, fresh):
    """Extend (or rebuild, if fresh) the orbit/tree of base under gs rows.

    Returns (new norbit, max tree depth).  Extension keeps every existing
    label and appends newly reached points; rebuild relabels the whole tree
    from scratch but keeps orbit positions.
    """
    if fresh or norbit == 0:
        sv.fill(-1)
        dep.fill(0)
        sv[base] = -2
        if pos[base] < 0:
            pos[base] = norbit
            orbit[norbit] = base
            norbit += 1
        frontier = np.array([base], dtype=np.int32)
    else:
        frontier = orbit[:norbit].copy()
    maxdep = int(dep[orbit[:norbit]].max()) if norbit else 0
    while len(frontier):
        nxt = []
        for er in range(gs.shape[0]):
            ys = gs[er][frontier]
            new = ys[sv[ys] == -1]
            if len(new):
                # each child has a unique parent under gs[er], so the label
                # is unambiguous; np.unique only fixes the append order
                new = np.unique(new)
                sv[new] = er
                dep[new] = dep[gs[er ^ 1][new]] + 1
                app = new[pos[new] < 0]
                if len(app):
                    pos[app] = np.arange(norbit, norbit + len(app),
                                         dtype=np.int32)
                    orbit[norbit:norbit + len(app)] = app
                    norbit += len(app)
                nxt.append(new)
        if nxt:
            frontier = np.concatenate(nxt)
            m = int(dep[frontier].max())
            if m > maxdep:
                maxdep = m
        else:
            frontier = frontier[:0]
    return norbit, maxdep


def transversal_fill(gs, sv, pos, orbit, norbit, base, uinv):
    """Fill uinv so that row pos[x] = u_x^{-1} for every orbit point x."""
    d = len(sv)
    filled = np.zeros(d, dtype=bool)
    uinv[pos[base]] = np.arange(d, dtype=np.int32)
    filled[base] = True
    for k in range(norbit):
        x = int(orbit[k])
        if filled[x]:
            continue
        path = []
        while not filled[x]:
            path.append(x)
            er = int(sv[x])
            if er < 0:
                raise RuntimeError("disconnected Schreier tree")
            x = int(gs[er ^ 1][x])
        for y in reversed(path):
            er = int(sv[y])
            parent = int(gs[er ^ 1][y])
            # u_y^{-1} = g_edge^{-1} then u_parent^{-1}
            uinv[pos[y]] = uinv[pos[parent]][gs[er ^ 1]]
            filled[y] = True


def _reduce_at(h, lev, bases, svs, genstacks, uinvs, poss):
    """One level of sifting; returns True if reduced, False if stuck."""
    b = bases[lev]
    x = int(h[b])
    if x == b:
        return True
    sv = svs[lev]
    if sv[x] == -1:
        return False
    u = uinvs[lev]
    # the ndarray method, not np.take: its wrapper costs ~2 us a call here
    if u is not None:
        u[poss[lev][x]].take(h, out=h)
        return True
    gs = genstacks[lev]
    while x != b:
        er = int(sv[x])
        gs[er ^ 1].take(h, out=h)
        x = int(h[b])
    return True


def sift_run(h, start, bases, svs, genstacks, uinvs, poss):
    """Reduce h in place through levels start..; return stuck level or the
    number of levels if it reduced everywhere."""
    nlev = len(bases)
    for lev in range(start, nlev):
        if not _reduce_at(h, lev, bases, svs, genstacks, uinvs, poss):
            return lev
    return nlev


def _transversal_elem(lev, posi, bases, svs, genstacks, uinvs, poss, orbits):
    """u_p for the orbit point at position posi (maps base -> p)."""
    d = len(svs[lev])
    u = uinvs[lev]
    if u is not None:
        return invert(u[posi])
    gs = genstacks[lev]
    sv = svs[lev]
    x = int(orbits[lev][posi])
    b = bases[lev]
    path = []
    while x != b:
        er = int(sv[x])
        path.append(er)
        x = int(gs[er ^ 1][x])
    t = np.arange(d, dtype=np.int32)
    for er in reversed(path):
        gs[er].take(t, out=t)
    return t


def sweep_gen(lev, gi, startpos, bases, svs, genstacks, uinvs, poss, orbits,
              norbits):
    """Sift the Schreier generators u_p s u_{s(p)}^{-1} for s = generator gi
    of level lev and orbit positions startpos.. in order.

    Sifting t = u_p s from level lev absorbs the trailing u_{s(p)}^{-1} as
    the level-lev reduction step.  With the level's transversal cached,
    t = u_p s is scattered from the cached u_p^{-1} without inverting it:
    t[u_p^{-1}(y)] = s(y).  Returns (next position, None) when the run
    completes, or (failing position, residue) at the first nontrivial
    residue.
    """
    srow = genstacks[lev][2 * gi]
    nstop = norbits[lev]
    ident = np.arange(len(srow), dtype=np.int32)
    u = uinvs[lev]
    for posi in range(startpos, nstop):
        if u is not None:
            t = np.empty_like(srow)
            t[u[posi]] = srow
        else:
            t = _transversal_elem(lev, posi, bases, svs, genstacks, uinvs,
                                  poss, orbits)
            srow.take(t, out=t)
        stop = sift_run(t, lev, bases, svs, genstacks, uinvs, poss)
        if stop < len(bases) or not (t == ident).all():
            return posi, t
    return nstop, None


def _field_digits(F):
    """(q, k) array of the base-p digits of each element of GF(q), q = p^k,
    least significant first: the coefficients that gf encodes it by."""
    return np.arange(F.q)[:, None] // F.p ** np.arange(F.k) % F.p


# Float32 entries of one block's products (8 MiB): the rows of a block
# times n columns times 8k digits.
_FILL_ENTRIES = 1 << 21


def paige_table(F, reps, addr, out):
    """Fill out[i, j] = addr[key of reps[i] * reps[j]].  Returns 0, or -1
    if a product key is missing from addr.

    Over q = p^k each coordinate is k base-p digits, so an octonion is a
    vector of 8k digits over GF(p), and its base-q key is the base-p
    number of those digits.  The Zorn product is GF(p)-bilinear in them,
    so left multiplication by x is an 8k x 8k matrix L_x over GF(p): row
    r holds the digits of x * e_r for the r-th digit basis octonion e_r.
    One oct_mul per block of rows builds the block's matrices, and row i
    is the keys of (R @ L_x) mod p for R the n x 8k digit matrix of reps.

    The arithmetic is float32 and exact: an entry of R @ L_x is an integer
    of at most 8k (p - 1)^2, so its quotient by p is correctly rounded
    and floors to the integer quotient, and the keys, below q^8, are
    summed in float32 up to q = 8 and in float64 above."""
    p, k = F.p, F.k
    n, m = reps.shape[0], 8 * k
    digits = _field_digits(F)
    basis = (np.eye(8, dtype=np.int16)[:, None]
             * p ** np.arange(k, dtype=np.int16)[:, None]).reshape(m, 8)
    weights = (F.q ** np.arange(7, -1, -1)[:, None]
               * p ** np.arange(k)).ravel()
    weights = weights.astype(np.float32 if F.q ** 8 <= 1 << 24
                             else np.float64)
    R = digits[reps].reshape(n, m).astype(np.float32)
    block = max(1, min(n, _FILL_ENTRIES // (n * m)))
    for i0 in range(0, n, block):
        X = reps[i0:i0 + block]
        b = len(X)
        Lx = digits[oct_mul(F, X[:, None], basis[None])].reshape(b, m, m)
        # P[j, (x, d)] is digit d of x * reps[j] before reduction mod p
        P = R @ Lx.transpose(1, 0, 2).reshape(m, b * m).astype(np.float32)
        Q = P / p
        np.floor(Q, out=Q)
        Q *= p
        P -= Q
        keys = (P.reshape(n * b, m) @ weights).astype(np.int32)
        vals = addr[keys].reshape(n, b)
        if (vals < 0).any():
            return -1
        out[i0:i0 + b] = vals.T
    return 0
