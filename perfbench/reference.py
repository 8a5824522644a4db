"""Checks made apart from the program under test.

Nothing here calls into paigeloops: the orders come from the Chevalley
formulas, products of loop elements are recomputed from their labels with
a Zorn product written out over the integers mod p, and automorphisms are
checked cell by cell against the Cayley table.  The benchmark compares the
program's answers with these values, so a fast but wrong program fails the
run instead of improving it.
"""

from math import gcd

import numpy as np


# -- Chevalley orders ---------------------------------------------------------


def g2_order(q):
    """|G2(q)| = q^6 (q^6 - 1)(q^2 - 1), the order of Aut(M*(p)) at prime p."""
    return q**6 * (q**6 - 1) * (q**2 - 1)


def d4_order(q):
    """|D4(q)| = q^12 (q^2 - 1)(q^4 - 1)^2 (q^6 - 1) / gcd(4, q^4 - 1), the
    order of Mlt(M*(q)) and of the direction-preserving collineation group
    of its 3-net."""
    return (q**12 * (q**2 - 1) * (q**4 - 1) ** 2 * (q**6 - 1)
            // gcd(4, q**4 - 1))


def paige_order(q):
    """|M*(q)| = q^3 (q^4 - 1) / gcd(2, q - 1)."""
    return q**3 * (q**4 - 1) // gcd(2, q - 1)


# -- Zorn vector matrices mod p -----------------------------------------------
#
# An element is (a, b, v1, v2, v3, w1, w2, w3) for the matrix (a, v; w, b), and
#   (a1, v1; w1, b1)(a2, v2; w2, b2) =
#       (a1 a2 + v1.w2,  a1 v2 + b2 v1 - w1 x w2;
#        a2 w1 + b1 w2 + v1 x v2,  b1 b2 + w1.v2).


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def zorn_mul(x, y, p):
    a1, b1, v1, w1 = x[0], x[1], x[2:5], x[5:8]
    a2, b2, v2, w2 = y[0], y[1], y[2:5], y[5:8]
    a = a1 * a2 + sum(s * t for s, t in zip(v1, w2))
    b = b1 * b2 + sum(s * t for s, t in zip(w1, v2))
    wx = _cross(w1, w2)
    vx = _cross(v1, v2)
    v = [a1 * v2[i] + b2 * v1[i] - wx[i] for i in range(3)]
    w = [a2 * w1[i] + b1 * w2[i] + vx[i] for i in range(3)]
    return tuple(c % p for c in [a, b] + v + w)


def zorn_norm(x, p):
    """N(a, v; w, b) = a b - v.w."""
    return (x[0] * x[1] - sum(s * t for s, t in zip(x[2:5], x[5:8]))) % p


def coset_label(x, p):
    """The lexicographically smaller of x and -x: the name of the coset
    {x, -x} in M*(p).  At p = 2, x = -x."""
    neg = tuple((-c) % p for c in x)
    return min(x, neg)


def parse_labels(labels):
    """Loop labels 'a;b;v1;v2;v3;w1;w2;w3' over a prime field, as tuples."""
    out = [tuple(int(t) for t in lab.split(";")) for lab in labels]
    if any(len(x) != 8 for x in out):
        raise ValueError("a label does not have 8 coordinates")
    return out


def check_labels(elems, p):
    """Every label is a norm-one coset name and no two coincide; returns a
    list of problems (empty when the labels are right)."""
    problems = []
    if len(set(elems)) != len(elems):
        problems.append("two elements share a label")
    if elems and elems[0] != (1, 1, 0, 0, 0, 0, 0, 0):
        problems.append("element 0 is not the identity matrix")
    for i, x in enumerate(elems):
        if zorn_norm(x, p) != 1:
            problems.append(f"element {i} does not have norm one")
            break
        if coset_label(x, p) != x:
            problems.append(f"element {i} is not the name of its coset")
            break
    return problems


def sample_cells(n, count, rng):
    """count table cells (i, j) drawn from rng."""
    return rng.integers(0, n, size=count), rng.integers(0, n, size=count)


def zorn_cell_mismatches(table, elems, p, rows, cols):
    """Cells (i, j) among rows x cols whose entry is not the coset of
    elems[i] * elems[j]; empty when the table agrees with the Zorn product."""
    index = {x: k for k, x in enumerate(elems)}
    bad = []
    for i, j in zip(rows.tolist(), cols.tolist()):
        want = index.get(coset_label(zorn_mul(elems[i], elems[j], p), p))
        if want is None or int(table[i, j]) != want:
            bad.append((i, j))
    return bad


# -- automorphisms ------------------------------------------------------------


def preserves_table(table, phi):
    """True when phi is a bijection of 0..n-1 with phi(xy) = phi(x) phi(y)
    for every cell of the Cayley table."""
    T = np.asarray(table, dtype=np.int64)
    n = T.shape[0]
    phi = np.asarray(phi, dtype=np.int64)
    if phi.shape != (n,) or phi.min() < 0 or phi.max() >= n:
        return False
    if len(np.unique(phi)) != n:
        return False
    return bool((phi[T] == T[phi][:, phi]).all())


def maps_preserving_table(table, maps, chunk=512):
    """How many rows of maps preserve the table, checked in chunks; rows
    must be bijections of 0..n-1 (rows that are not count as failing)."""
    T = np.asarray(table, dtype=np.int64)
    n = T.shape[0]
    maps = np.asarray(maps, dtype=np.int64)
    ok = 0
    for lo in range(0, len(maps), chunk):
        A = maps[lo:lo + chunk]
        bij = (np.sort(A, axis=1) == np.arange(n)).all(axis=1)
        # lhs[k, x, y] = A_k(xy), rhs[k, x, y] = A_k(x) A_k(y)
        lhs = np.take_along_axis(A, T.reshape(1, -1).repeat(len(A), 0), 1)
        rhs = T[A[:, :, None], A[:, None, :]].reshape(len(A), -1)
        ok += int((bij & (lhs == rhs).all(axis=1)).sum())
    return ok


def closure_count(gens, cap):
    """Order of the group generated by image arrays gens, by breadth-first
    closure under composition; stops and returns cap + 1 past cap."""
    gens = [np.asarray(g, dtype=np.int32) for g in gens]
    ident = np.arange(len(gens[0]), dtype=np.int32)
    seen = {ident.tobytes()}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = g[x]
                key = y.tobytes()
                if key not in seen:
                    seen.add(key)
                    nxt.append(y)
                    if len(seen) > cap:
                        return cap + 1
        frontier = nxt
    return len(seen)


# -- Moufang identities -------------------------------------------------------


def moufang_violation(table):
    """First triple (x, y, z) breaking ((xy)x)z = x(y(xz)), or None; a
    full sweep, meant for small loops."""
    T = np.asarray(table, dtype=np.int64)
    n = T.shape[0]
    for x in range(n):
        lhs = T[T[T[x], x]]                  # [y, z] -> ((xy)x)z
        rhs = T[x][T[:, T[x]]]               # [y, z] -> x(y(xz))
        bad = np.argwhere(lhs != rhs)
        if len(bad):
            return (x, int(bad[0][0]), int(bad[0][1]))
    return None


def central_candidates(table):
    """Elements x != 0 that commute with every a and satisfy (xa)b = x(ab)
    for every a, b.  The center minus the identity lies inside this list,
    so an empty list shows the center is trivial."""
    T = np.asarray(table, dtype=np.int64)
    central = []
    commuting = np.nonzero((T == T.T).all(axis=1))[0]
    for x in commuting.tolist():
        if x == 0:
            continue
        if (T[T[x]] == T[x][T]).all():
            central.append(x)
    return central
