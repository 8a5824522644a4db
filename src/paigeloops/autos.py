"""Automorphism groups of finite loops.

Three independent generator supplies: exhaustive backtracking over the
Cayley table, the entrywise field Frobenius on Zorn representatives, and
conjugation by octonion units.  The backtracking search keeps one map
per new orbit point of a greedy generating sequence and refutes every
other candidate image, so it returns generators of the whole group, and
|Aut| is the product of its orbit sizes; it never lists the group.  It
runs up to config.MAX_AUT_BACKTRACK_N elements (q = 2), and at q = 3
with override_limits.  Every map returned by any of them is
validated as a loop automorphism directly by is_loop_automorphism, the
package's one automorphism validator (the triality correspondence uses
it too); nothing is trusted on the strength of a theorem.  The
conjugation scan applies each unit's map as an 8x8 matrix over GF(p),
built with oct_mul (the Zorn product is bilinear, so the map is
linear).  It rejects a unit only on a witness cell T[a, b] that its map
breaks, and accepts a map either by the full n^2 check or as a member of
the group generated by maps that passed it.
"""

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import DomainError, InternalError, LimitError
from .gf import _factor_prime_power, field
from .loops import (
    _address_book,
    _rep_address,
    element_order,
    paige_loop,
    paige_representatives,
    subloop_closure,
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


# Table rows compared per step of the full check: a block at q = 4 holds
# 256 x 16,320 cells (8 MiB in int16), and a map that breaks a product
# stops at the first block holding it.
_CHECK_ROWS = 256


def is_loop_automorphism(L, images):
    """Full check: a bijection phi on 0..n-1 with
    phi(T[a, b]) == T[phi(a), phi(b)] for all n^2 cells.

    The cells are compared in the table's dtype, _CHECK_ROWS rows of the
    table at a time, and the check stops at the first block holding a
    broken product."""
    T = L.table
    n = len(L)
    phi = np.asarray(images, dtype=np.int64).reshape(-1)
    if len(phi) != n or phi.min() < 0 or phi.max() >= n:
        return False
    seen = np.zeros(n, dtype=bool)
    seen[phi] = True
    if not seen.all():
        return False
    phi = phi.astype(T.dtype)
    for lo in range(0, n, _CHECK_ROWS):
        rows = slice(lo, lo + _CHECK_ROWS)
        if not (phi[T[rows]] == T[np.ix_(phi[rows], phi)]).all():
            return False
    return True


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
    subloop generated by the ones before it."""
    gens = []
    inside = subloop_closure(L, gens)
    while len(inside) < len(L):
        outside = orders.copy()
        outside[inside] = 0
        gens.append(int(np.argmax(outside)))
        inside = subloop_closure(L, gens)
    return gens


def _propagate(T, phi, pinv, known, queue):
    """Extend a partial automorphism by closing products of known points.

    phi/pinv are mutated in place; returns False on any conflict (value
    clash or injectivity failure).  When the queued points generate the
    loop, success leaves phi a total map checked on every pair.
    """
    while queue:
        x = queue.pop()
        ka = np.array(known, dtype=np.int64)
        fx = phi[x]
        P = np.concatenate((T[x, ka], T[ka, x], T[x, x][None]))
        V = np.concatenate((T[fx, phi[ka]], T[phi[ka], fx], T[fx, fx][None]))
        cur = phi[P]
        if ((cur != -1) & (cur != V)).any():
            return False
        fresh = np.flatnonzero(cur == -1)
        for i in fresh:
            t, v = int(P[i]), int(V[i])
            if phi[t] == -1:
                if pinv[v] != -1:
                    return False
                phi[t] = v
                pinv[v] = t
                queue.append(t)
            elif phi[t] != v:
                return False
        known.append(x)
    return True


def aut_backtrack(L, override_limits=False):
    """The automorphism group of L by exhaustive search, as generators.

    A map is fixed by its images of a greedy generating sequence g0, g1,
    ... and is closed from them by _propagate.  Candidate images pass one
    filter: element order, and the orders of products with the assigned
    generators.  Levels are searched deepest first.  At level l, with
    g0..g(l-1) fixed, each candidate c outside the orbit of g(l) under
    the maps found so far either yields one automorphism with g(l) -> c,
    found by extending over the deeper generators, or is refuted by
    exhausting every extension.  Each orbit is then complete, |Aut| is
    the product of the orbit sizes, and the group generated by the maps
    found, each passed by is_loop_automorphism, must have that order.
    """
    n = len(L)
    if n > config.MAX_AUT_BACKTRACK_N and not override_limits:
        raise LimitError(
            f"exhaustive search capped at {config.MAX_AUT_BACKTRACK_N} "
            "elements; pass override_limits=True to force",
            bound=config.MAX_AUT_BACKTRACK_N)
    T = L.table
    orders = np.array([element_order(L, x) for x in range(n)])
    gens = _greedy_generators(L, orders)

    def candidates(i, state):
        phi, pinv, _ = state
        g = gens[i]
        cands = np.flatnonzero((orders == orders[g]) & (pinv == -1))
        for h in gens[:i]:
            fh = phi[h]
            cands = cands[orders[T[fh, cands]] == orders[T[h, g]]]
            cands = cands[orders[T[cands, fh]] == orders[T[g, h]]]
        return cands

    def search(i, c, state):
        """A total map extending state with gens[i] -> c, or None."""
        phi, pinv, known = (x.copy() for x in state)
        phi[gens[i]] = c
        pinv[c] = gens[i]
        if not _propagate(T, phi, pinv, known, [gens[i]]):
            return None
        if i + 1 == len(gens):
            return phi
        for d in candidates(i + 1, (phi, pinv, known)):
            full = search(i + 1, d, (phi, pinv, known))
            if full is not None:
                return full
        return None

    found = []
    order = 1
    for l in reversed(range(len(gens))):
        phi = np.full(n, -1, dtype=np.int64)
        phi[[0] + gens[:l]] = [0] + gens[:l]
        state = (phi, phi.copy(), [0])
        _propagate(T, *state, gens[:l])
        orbit = np.zeros(n, dtype=bool)
        orbit[PermGroup(found, degree=n).orbit(gens[l])] = True
        for c in candidates(l, state):
            if orbit[c]:
                continue
            full = search(l, c, state)
            if full is None:
                continue
            if not is_loop_automorphism(L, full):
                raise InternalError("backtracking produced a "
                                    "non-automorphism")
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
    products.  An image is looked up in the address book of +-x keys, so
    it needs no canonical form."""
    p, k = _factor_prime_power(q)
    if q > 9:
        raise DomainError("supported up to q = 9")
    F = field(q)
    reps = paige_representatives(q)
    L = paige_loop(q)
    images = _address_book(F, reps)[_rep_address(q, F.frob_table[reps])]
    if images.min() < 0:
        raise InternalError("Frobenius image left the representative set")
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
# (unit, element) pairs induced in one batch; bounds the temporaries, which
# unchunked at q = 3 would hold 2,160 x 1,080 x 8 coordinates each.
_CHUNK_CELLS = 1 << 16


def _conjugation_setup(F):
    """(matrices, representatives, address book) for the unit scan.

    One unit per scalar class: u and c*u induce the same conjugation, so
    only the Zorn matrices of nonzero norm whose first nonzero coordinate
    is 1 are kept.  The Zorn product is bilinear, so x -> (u x) u^{-1} is
    linear; row i of a unit's 8x8 matrix is the image of the i-th basis
    vector, computed with oct_mul, and x maps to x @ M.  addr maps the
    base-q key of x or -x to the loop index of the class {x, -x}."""
    q = F.q
    grid = np.indices((q,) * 8).reshape(8, -1).T.astype(np.int16)
    lead = grid[np.arange(len(grid)), np.argmax(grid != 0, axis=1)]
    units = grid[(lead == 1) & (oct_norm(F, grid) != 0)]
    inv_norms = F.inv_table[oct_norm(F, units)]
    uinvs = F.mul_table[inv_norms[:, None], oct_conj(F, units)]
    basis = np.eye(8, dtype=np.int16)
    mats = oct_mul(F, oct_mul(F, units[:, None], basis[None]),
                   uinvs[:, None])
    reps = paige_representatives(q)
    return mats, reps, _address_book(F, reps)


def _images(F, mats, X, addr):
    """Loop index of x @ M for each conjugation matrix M (rows) and each
    Zorn representative x in X (columns).  Exact mod p: the scan runs over
    prime fields only, whose elements are the integers 0..p-1."""
    z = np.matmul(X, mats) % F.p
    img = addr[_rep_address(F.q, z)]
    if img.size and img.min() < 0:
        raise InternalError("conjugation image left the representative set")
    return img


def _screen(F, T, mats, reps, addr):
    """Mask of the units whose conjugation phi keeps
    phi(T[a, b]) == T[phi(a), phi(b)] on every screen cell.  A unit that
    fails has a witness cell, so its map is no automorphism; a unit that
    passes is only a candidate."""
    A, B = _SCREEN_A, _SCREEN_B
    cells = T[np.ix_(A, B)]
    S, pos = np.unique(np.concatenate([A, B, cells.ravel()]),
                       return_inverse=True)
    img = _images(F, mats, reps[S], addr)
    fa = img[:, pos[:len(A)], None]
    fb = img[:, None, pos[len(A):len(A) + len(B)]]
    fab = img[:, pos[len(A) + len(B):].reshape(cells.shape)]
    return (fab == T[fa, fb]).all(axis=(1, 2))


def conjugation_autos(F, L=None, progress=None):
    """The group generated by the conjugations x -> (u x) u^{-1} of M*(q),
    for units u of the split octonions, that are loop automorphisms.

    One unit per scalar class is scanned, in chunks.  Each conjugation is
    linear, since the Zorn product is bilinear, and is applied as its 8x8
    matrix over GF(p), built from oct_mul on the basis vectors.  A unit is
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
    step = max(1, _CHUNK_CELLS // n)
    ch = _Chain(n)
    added = []
    for start in range(0, m, step):
        M = mats[start:start + step]
        keep = _screen(F, T, M, reps, addr)
        for row in _images(F, M[keep], reps, addr):
            if ch.is_member(row):
                continue
            if is_loop_automorphism(L, row):
                ch.add_input_generator(row)
                added.append(row.copy())
        if progress is not None:
            progress(min(start + step, m), m)
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
    exhaustive backtrack is among the methods.  At q = 2 the conjugation
    supply alone generates only an index-2 subgroup.
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
    if methods is None:
        methods = ["backtrack", "conjugation"] if q == 2 else ["conjugation"]
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
            "methods": list(methods), "match": computed == predicted}
