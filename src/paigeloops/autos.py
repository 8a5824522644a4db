"""Automorphism groups of finite loops.

Three independent generator supplies: exhaustive backtracking over the
Cayley table, the entrywise field Frobenius on Zorn representatives, and
conjugation by octonion units.  The backtracking search keeps one map
per new orbit point of a greedy generating sequence and refutes every
other candidate image, so it returns generators of the whole group, and
|Aut| is the product of its orbit sizes; it never lists the group.  It
computes a candidate's map with straight-line programs recorded once
per loop, and it forms products in blocks of rows from _blocks, so it
allocates no n x n array beside the table and runs at q = 2, 3
and 4.  Every map returned by any of them is validated directly by
is_loop_automorphism, the package's one automorphism validator (the
triality correspondence uses it too); nothing is trusted on the
strength of a theorem.  The Frobenius and the conjugations by units are
GF(p)-linear maps of the algebra, so each is applied as its digit matrix
by the table fill's kernel, _kernels_py._linear_images.  The conjugation
scan rejects a unit only on a witness cell T[a, b] that its map breaks,
and accepts a map either by the full n^2 check or as a member of the
group generated by maps that passed it.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels_py import _blocks, _digit_matrices, _linear_images
from .errors import DomainError, InternalError, LimitError
from .gf import _factor_prime_power, field
from .loops import (
    _address_book,
    element_order,
    paige_loop,
    paige_representatives,
)
from .perm import Permutation, PermGroup, _Chain
from .zorn import oct_conj, oct_mul, oct_norm

__all__ = [
    "LoopAutomorphism",
    "aut_backtrack",
    "aut_summary",
    "conjugation_autos",
    "frobenius_on_paige",
    "g2_order",
    "is_loop_automorphism",
]


def g2_order(q):
    """|G2(q)| = q^6 (q^6 - 1)(q^2 - 1)."""
    return q**6 * (q**6 - 1) * (q**2 - 1)


def _embeds(T, phi, S=None):
    """Whether phi is injective on S, a sorted index array (0..n-1 if
    None), and phi(T[a, b]) == T[phi(a), phi(b)] for all a, b in S; both
    sides are gathered in the table's dtype, a block of rows at a time
    (16 bytes a cell: int64 flat indices and a gather), up to the first
    block holding a broken product."""
    n = len(T)
    flat = T.ravel()
    fs = phi if S is None else phi[S]
    seen = np.zeros(n, dtype=bool)
    seen[fs] = True
    if np.count_nonzero(seen) < len(fs):
        return False
    pt = phi.astype(T.dtype)
    for lo, hi in _blocks(0, len(fs), 16 * len(fs)):
        ab = T[lo:hi] if S is None else flat.take(S[lo:hi, None] * n + S)
        if not (pt.take(ab) == flat.take(fs[lo:hi, None] * n + fs)).all():
            return False
    return True


def is_loop_automorphism(L, images):
    """Full check: a bijection phi on 0..n-1 with
    phi(T[a, b]) == T[phi(a), phi(b)] for all n^2 cells."""
    phi = np.asarray(images, dtype=np.int64).reshape(-1)
    if len(phi) != len(L) or phi.min() < 0 or phi.max() >= len(L):
        return False
    return _embeds(L.table, phi)


@dataclass(frozen=True)
class LoopAutomorphism:
    """A verified automorphism, stored as its permutation of 0..n-1."""

    perm: Permutation

    @property
    def order(self):
        return self.perm.order()

    def __call__(self, x):
        return self.perm(x)


# -- exhaustive backtracking -------------------------------------------------


def _greedy_generators(L, orders):
    """g0, g1, ...: each the first element of largest order outside the
    subloop S_(l-1) the ones before it generate; with the subloops
    [{e}, S_0, S_1, ...] as sorted index arrays, and per level l the
    straight-line program that closes S_(l-1) + gl to S_l under the
    product (enough, see subloop_closure).  It is a list of rounds
    (x, a, b) of index arrays, x = a b, where a and b were reached before
    the round, one of them in the round before, and each x is new.  The
    products are formed in blocks of rows a, 16 bytes a product."""
    n = len(L)
    flat = L.table.ravel()
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    gens, subloops, programs = [], [np.zeros(1, dtype=np.int64)], []
    while not mask.all():
        g = int(np.argmax(np.where(mask, 0, orders)))
        gens.append(g)
        mask[g] = True
        old, new = subloops[-1], np.array([g])
        rounds = []
        while len(new) and not mask.all():
            ix = np.flatnonzero(mask)
            got = []
            for A, B in ((new, ix), (old, new)):
                for lo, hi in _blocks(0, len(A), 16 * len(B)):
                    a = A[lo:hi]
                    ab = flat.take((a[:, None] * n + B).ravel())
                    pos = np.flatnonzero(~mask[ab])
                    x, first = np.unique(ab[pos], return_index=True)
                    i, j = np.divmod(pos[first], len(B))
                    mask[x] = True
                    got.append((x.astype(np.int64), a[i], B[j]))
            x, a, b = (np.concatenate(c) for c in zip(*got))
            if len(x):
                rounds.append((x, a, b))
            old, new = ix, x
        programs.append(rounds)
        subloops.append(np.flatnonzero(mask))
    return gens, subloops, programs


def aut_backtrack(L):
    """The automorphism group of L by exhaustive search, as generators.

    A map is fixed by its images of the greedy generators g0, g1, ....
    Candidate images of gl must match its element order and the orders
    of its products with the assigned generators; the level's program
    then gives the map on S_l = <g0..gl>, refuted if it is not injective
    there or breaks a product there.  That is exact: an automorphism
    agreeing with it on g0..gl agrees with the program on S_l.  The last
    S_l is L, where the check is is_loop_automorphism, so each map
    returned is fully checked once.  Levels are searched deepest first:
    at level l, with g0..g(l-1) fixed, each candidate outside the orbit
    of gl under the maps found so far yields one automorphism, extended
    over the deeper generators, or is refuted by exhausting them.  Each
    orbit is then complete, and |Aut|, the product of their sizes, must
    be the order of the group the maps found generate.
    """
    n = len(L)
    T = L.table
    flat = T.ravel()
    orders = np.array([element_order(L, x) for x in range(n)])
    gens, subloops, programs = _greedy_generators(L, orders)
    last = len(gens) - 1

    def candidates(i, phi):
        g = gens[i]
        free = np.ones(n, dtype=bool)
        free[phi[phi >= 0]] = False
        cands = np.flatnonzero((orders == orders[g]) & free)
        for h in gens[:i]:
            fh = phi[h]
            cands = cands[orders[T[fh, cands]] == orders[T[h, g]]]
            cands = cands[orders[T[cands, fh]] == orders[T[g, h]]]
        return cands

    def search(i, c, phi):
        """An automorphism extending phi, which is defined on S_(i-1),
        with gi -> c, or None."""
        phi = phi.copy()
        phi[gens[i]] = c
        for x, a, b in programs[i]:
            phi[x] = flat.take(phi[a] * n + phi[b])
        if i == last:
            return phi if is_loop_automorphism(L, phi) else None
        if _embeds(T, phi, subloops[i + 1]):
            for d in candidates(i + 1, phi):
                full = search(i + 1, d, phi)
                if full is not None:
                    return full
        return None

    found = []
    order = 1
    for l in reversed(range(len(gens))):
        phi = np.full(n, -1, dtype=np.int64)
        phi[subloops[l]] = subloops[l]
        orbit = np.zeros(n, dtype=bool)
        orbit[PermGroup(found, degree=n).orbit(gens[l])] = True
        for c in candidates(l, phi):
            if orbit[c]:
                continue
            full = search(l, c, phi)
            if full is None:
                continue
            found.append(Permutation(full, _checked=True))
            orbit[PermGroup(found, degree=n).orbit(gens[l])] = True
        order *= int(np.count_nonzero(orbit))
    G = PermGroup(found, degree=n)
    if G.order != order:
        raise InternalError("the maps found do not generate a group of the "
                            "searched order")
    return G


# -- semilinear and linear generators on Paige loops -------------------------


def frobenius_on_paige(q):
    """The map of M*(q) induced by the field Frobenius x -> x^p applied
    entrywise to canonical Zorn representatives, checked on all n^2
    products.  Its GF(p)-linear images are looked up in the address book
    of +-x keys, so they need no canonical form."""
    p, k = _factor_prime_power(q)
    if q > 9:
        raise DomainError("supported up to q = 9")
    F = field(q)
    L = paige_loop(q)    # the table-cell bound refuses q >= 5 before the scan
    reps = paige_representatives(q)
    images = _linear_images(F, _digit_matrices(F, lambda B: F.frob_table[B]),
                            reps, _address_book(F, reps))[0]
    if not is_loop_automorphism(L, images):
        raise InternalError("Frobenius map failed the automorphism check")
    perm = Permutation(images, _checked=True)
    o = perm.order()
    if k % o != 0 or (k > 1 and o != k):
        raise InternalError("Frobenius permutation order does not match "
                            "the field extension degree")
    return LoopAutomorphism(perm)


# Screen cells: the products T[a, b] for a in _SCREEN_A and b in _SCREEN_B.
_SCREEN_A = np.arange(1, 5)
_SCREEN_B = np.arange(1, 33)


def _conjugation_setup(F):
    """(matrices, representatives, address book) for the unit scan.

    One unit per scalar class: u and c*u induce the same conjugation, so
    only the Zorn matrices of nonzero norm whose first nonzero coordinate
    is 1 are kept.  The Zorn product is bilinear, so x -> (u x) u^{-1} is
    GF(p)-linear, with its digit matrix built by oct_mul.  addr maps the
    base-q key of x or -x to the loop index of the class {x, -x}."""
    q = F.q
    grid = np.indices((q,) * 8).reshape(8, -1).T.astype(np.int16)
    lead = grid[np.arange(len(grid)), np.argmax(grid != 0, axis=1)]
    units = grid[(lead == 1) & (oct_norm(F, grid) != 0)]
    inv_norms = F.inv_table[oct_norm(F, units)]
    uinvs = F.mul_table[inv_norms[:, None], oct_conj(F, units)]
    mats = _digit_matrices(F, lambda B: oct_mul(
        F, oct_mul(F, units[:, None], B), uinvs[:, None]))
    reps = paige_representatives(q)
    return mats, reps, _address_book(F, reps)


def _screen(F, T, mats, reps, addr):
    """Mask of the units whose conjugation phi keeps
    phi(T[a, b]) == T[phi(a), phi(b)] on every screen cell.  A unit that
    fails has a witness cell, so its map is no automorphism; a unit that
    passes is only a candidate."""
    A, B = _SCREEN_A, _SCREEN_B
    cells = T[np.ix_(A, B)]
    S, pos = np.unique(np.concatenate([A, B, cells.ravel()]),
                       return_inverse=True)
    img = _linear_images(F, mats, reps[S], addr)
    fa = img[:, pos[:len(A)], None]
    fb = img[:, None, pos[len(A):len(A) + len(B)]]
    fab = img[:, pos[len(A) + len(B):].reshape(cells.shape)]
    return (fab == T[fa, fb]).all(axis=(1, 2))


def conjugation_autos(F, L=None, progress=None):
    """The group generated by the conjugations x -> (u x) u^{-1} of M*(q),
    for units u of the split octonions, that are loop automorphisms.

    One unit per scalar class is scanned, in chunks from _blocks, a unit
    costing the row of its map's images.  Each conjugation is
    GF(p)-linear, since the Zorn product is bilinear, and is applied as
    its digit matrix by _linear_images, at any q.  A unit is
    rejected when its map breaks a product on one of the screen cells;
    that cell is a witness.  The maps of the other units are induced in
    full and sifted into the group built so far.  A member is a product of
    checked automorphisms and is skipped; a non-member is added only if it
    passes the full n^2 check.  The returned generators are the maps that
    grew the group.  L, if given, must be paige_loop(F.q); progress(done,
    total) is called once per chunk with the number of units scanned."""
    q = F.q
    if q not in (2, 3):
        raise LimitError("unit scan supported at q in {2, 3}", bound=3)
    mats, reps, addr = _conjugation_setup(F)
    n = len(reps)
    if L is None:
        L = paige_loop(q)
    elif len(L) != n:
        raise DomainError(f"the loop has {len(L)} elements, M*({q}) has {n}")
    T = L.table
    m = len(mats)
    ch = _Chain(n)
    added = []
    for start, stop in _blocks(0, m, n * addr.itemsize):
        M = mats[start:stop]
        keep = _screen(F, T, M, reps, addr)
        rows = _linear_images(F, M[keep], reps, addr)
        i = ch.first_nonmember(rows)
        while i < len(rows):
            if is_loop_automorphism(L, rows[i]):
                ch.add_input_generator(rows[i])
                added.append(rows[i].copy())
            i = ch.first_nonmember(rows, i + 1)
        if progress is not None:
            progress(stop, m)
    ch.release_caches()
    if not added:
        raise InternalError("no conjugation validated as an automorphism")
    return PermGroup([Permutation(a, _checked=True) for a in added],
                     degree=n, _chain=ch)


# -- summary ------------------------------------------------------------


def aut_summary(q, methods=None):
    """Computed vs predicted |Aut(M*(q))|.

    Computed mode runs at q in {2, 3}; elsewhere the report carries the
    prediction |G2(q)| * k alone, with computed and match left null.
    Every method yields a verified subgroup of the automorphism group, so
    "computed" reports the largest order found; it is exact whenever the
    exhaustive backtrack is among the methods, as it is by default.  At
    q = 2 the conjugation supply alone generates only an index-2 subgroup.
    """
    p, k = _factor_prime_power(q)
    if q > 9:
        raise DomainError("supported up to q = 9")
    predicted = g2_order(q) * k
    if q not in (2, 3):
        if methods is not None:
            raise DomainError("computed mode runs at q in {2, 3} only")
        return {"q": q, "computed": None, "predicted": str(predicted),
                "methods": [], "match": None}
    methods = (["backtrack", "conjugation"] if methods is None
               else list(methods))
    if not methods or len(set(methods)) < len(methods):
        raise DomainError("methods must be one or more distinct names")
    for m in methods:
        if m not in ("backtrack", "conjugation", "stabilizer"):
            raise DomainError(f"unknown method {m!r}")
    L = paige_loop(q)
    values = {}
    for m in methods:
        if m == "backtrack":
            values[m] = aut_backtrack(L).order
        elif m == "conjugation":
            values[m] = conjugation_autos(field(q), L).order
        else:
            from .nets import net_from_loop
            from .triality import build_triality, \
                origin_stabilizer_automorphisms
            T = build_triality(net_from_loop(L))
            values[m] = origin_stabilizer_automorphisms(T).group.order
    computed = max(values.values())
    return {"q": q, "computed": str(computed), "predicted": str(predicted),
            "methods": methods, "match": computed == predicted}
