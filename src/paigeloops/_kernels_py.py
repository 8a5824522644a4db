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
"""

import numpy as np

from .zorn import oct_canonical, oct_mul


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
    if u is not None:
        np.take(u[poss[lev][x]], h, out=h)
        return True
    gs = genstacks[lev]
    while x != b:
        er = int(sv[x])
        np.take(gs[er ^ 1], h, out=h)
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
        np.take(gs[er], t, out=t)
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
            np.take(srow, t, out=t)
        stop = sift_run(t, lev, bases, svs, genstacks, uinvs, poss)
        if stop < len(bases) or not (t == ident).all():
            return posi, t
    return nstop, None


def paige_table(F, reps, addr, out, canonicalize):
    """Fill out[i, j] = addr[key of reps[i] * reps[j]], the product taken
    with zorn.oct_mul and, when canonicalize, relabelled by
    zorn.oct_canonical.  Returns 0, or -1 if a product key is missing from
    addr."""
    n = reps.shape[0]
    key_w = F.q ** np.arange(7, -1, -1, dtype=np.int64)
    block = max(1, min(n, 4_000_000 // n))
    for i0 in range(0, n, block):
        Z = oct_mul(F, reps[i0:i0 + block, None], reps[None])
        if canonicalize:
            Z = oct_canonical(F, Z)
        vals = addr[Z.astype(np.int64) @ key_w]
        if (vals < 0).any():
            return -1
        out[i0:i0 + block] = vals
    return 0
