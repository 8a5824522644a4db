"""Finite loops as Cayley tables; Paige loops M*(q) built from norm-one
Zorn matrices.

Element 0 is always the two-sided identity.  Paige loop elements are the
cosets {x, -x} of norm-one Zorn matrices, labeled by the lexicographically
smaller representative; elements are sorted by representative and the
identity coset is then swapped to index 0.
"""

import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import config
from . import _kernels_py as _kernels
from .errors import (DomainError, InternalError, LimitError,
                     MalformedTableError, NoIdentityAtZeroError,
                     NotLatinError)
from .gf import field
from .perm import PermGroup, Permutation
from .zorn import Octonion, norm_one_array, oct_canonical

_LATIN_CHUNK = 2048
_DIV_ROWS = 256


def _check_latin(table):
    n = table.shape[0]
    want = np.arange(n, dtype=table.dtype)
    for lo in range(0, n, _LATIN_CHUNK):
        hi = min(lo + _LATIN_CHUNK, n)
        if not (np.sort(table[lo:hi], axis=1) == want).all():
            raise NotLatinError("a row is not a permutation of 0..n-1")
        block = np.ascontiguousarray(table[:, lo:hi].T)
        if not (np.sort(block, axis=1) == want).all():
            raise NotLatinError("a column is not a permutation of 0..n-1")


class FiniteLoop:
    """A loop given by its Cayley table (row = left factor)."""

    def __init__(self, table, labels=None, _validated=False):
        table = np.asarray(table)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise MalformedTableError("table must be square")
        n = table.shape[0]
        if n == 0:
            raise MalformedTableError("empty table")
        if table.size and (table.min() < 0 or table.max() >= n):
            raise MalformedTableError("entry out of range")
        dtype = np.int16 if n <= 32767 else np.int32
        table = np.ascontiguousarray(table, dtype=dtype)
        if not _validated:
            _check_latin(table)
            rng = np.arange(n, dtype=dtype)
            if not ((table[0] == rng).all() and (table[:, 0] == rng).all()):
                raise NoIdentityAtZeroError("index 0 is not the identity")
        if labels is not None:
            labels = list(labels)
            if len(labels) != n:
                raise MalformedTableError("label count does not match order")
        self.n = n
        self.table = table
        self.labels = labels
        self._ldiv = None
        self._rdiv = None

    # -- arithmetic ------------------------------------------------------

    def mul(self, a, b):
        return int(self.table[a, b])

    @property
    def ldiv_table(self):
        """ldiv_table[a, b] = the x with a*x = b (read-only)."""
        if self._ldiv is None:
            self._ldiv = self._division(self.table)
        return self._ldiv

    @property
    def rdiv_table(self):
        """rdiv_table[a, b] = the x with x*a = b (read-only)."""
        if self._rdiv is None:
            self._rdiv = self._division(self.table.T)
        return self._rdiv

    def _division(self, rows):
        """out[a, rows[a, b]] = b, scattered _DIV_ROWS rows at a time in the
        table's dtype; read-only."""
        n = self.n
        out = np.empty((n, n), dtype=self.table.dtype)
        cols = np.arange(n, dtype=self.table.dtype)
        for a0 in range(0, n, _DIV_ROWS):
            blk = rows[a0:a0 + _DIV_ROWS]
            out[a0:a0 + len(blk)][np.arange(len(blk))[:, None], blk] = cols
        out.flags.writeable = False
        return out

    def ldiv(self, a, b):
        """a \\ b: the x with a*x = b."""
        return int(self.ldiv_table[a, b])

    def rdiv(self, a, b):
        """a / b: the x with x*b = a."""
        return int(self.rdiv_table[b, a])

    def left_translation(self, a):
        """x |-> a*x as a Permutation."""
        return Permutation(self.table[a].astype(np.int32), _checked=True)

    def right_translation(self, a):
        """x |-> x*a as a Permutation."""
        return Permutation(
            np.ascontiguousarray(self.table[:, a], dtype=np.int32),
            _checked=True)

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"FiniteLoop(n={self.n})"


def loop_from_table(table, labels=None):
    """Validate a Cayley table (Latin, identity at index 0)."""
    return FiniteLoop(table, labels=labels)


def loop_divide(L, side, a, b):
    """Solve a*x = b (side='left') or x*a = b (side='right')."""
    if side == "left":
        return L.ldiv(a, b)
    if side == "right":
        return L.rdiv(b, a)
    raise DomainError(f"side must be 'left' or 'right', got {side!r}")


# -- Paige loops ---------------------------------------------------------


def _rep_address(q, reps):
    """Big-endian base-q key for each representative row."""
    weights = q ** np.arange(7, -1, -1, dtype=np.int64)
    return reps.astype(np.int64) @ weights


def _identity_to_front(reps):
    """Swap the identity row (1,1,0,...,0) to index 0."""
    idrow = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=reps.dtype)
    hits = np.nonzero((reps == idrow).all(axis=1))[0]
    if len(hits) != 1:
        raise InternalError("identity representative not found")
    i0 = int(hits[0])
    reps = reps.copy()
    reps[[0, i0]] = reps[[i0, 0]]
    return reps


def _check_table_cells(n):
    if n * n > config.MAX_TABLE_CELLS:
        raise LimitError(
            f"table would have {n * n} cells, over {config.MAX_TABLE_CELLS}",
            bound=config.MAX_TABLE_CELLS)


def _address_book(q, reps):
    """addr[key] = row of reps whose base-q key is key, else -1; an int32
    array over all q^8 keys."""
    addr = np.full(q ** 8, -1, dtype=np.int32)
    addr[_rep_address(q, reps)] = np.arange(len(reps), dtype=np.int32)
    return addr


def _build_table(F, reps, canonicalize):
    n = len(reps)
    _check_table_cells(n)
    dtype = np.int16 if n <= 32767 else np.int32
    out = np.empty((n, n), dtype=dtype)
    rc = _kernels.paige_table(F, reps, _address_book(F.q, reps), out,
                              canonicalize)
    if rc != 0:
        raise InternalError("a product fell outside the element list")
    return out


def _check_loop_q(q):
    bound = min(config.loop_max_q(), 9)
    if q > bound:
        raise LimitError(
            f"loop construction capped at q = {bound} "
            "(PAIGE_MAX_Q overrides up to 9)", bound=bound)


def paige_representatives(q):
    """Canonical coset representatives of M*(q): the lex-min of each
    {x, -x} pair of norm-one Zorn matrices, identity first."""
    _check_loop_q(q)
    F = field(q)
    units = norm_one_array(F)
    units = units[(oct_canonical(F, units) == units).all(axis=1)]
    return _identity_to_front(units)


# M*(q) by q while some caller holds it; nothing here keeps a loop alive.
_LIVE = weakref.WeakValueDictionary()


def paige_loop(q):
    """The simple Moufang loop M*(q): norm-one Zorn matrices over GF(q)
    modulo the center {1, -1}.

    The loop is shared: while any caller holds M*(q), this returns that
    same object, and a new one is built only once the last reference is
    gone.  Its table, like its lazily built division tables, is
    read-only.  The size bounds are checked on every call."""
    F = field(q)
    _check_loop_q(q)
    _check_table_cells(paige_order_formula(q))
    L = _LIVE.get(q)
    if L is None:
        reps = paige_representatives(q)
        table = _build_table(F, reps, canonicalize=(F.p != 2))
        table.flags.writeable = False
        labels = [Octonion(F, row).to_text() for row in reps]
        L = FiniteLoop(table, labels=labels)
        _LIVE[q] = L
    return L


def unit_loop(q):
    """The loop M(q) of all norm-one Zorn matrices, before the quotient."""
    _check_loop_q(q)
    F = field(q)
    reps = _identity_to_front(norm_one_array(F))
    table = _build_table(F, reps, canonicalize=False)
    labels = [Octonion(F, row).to_text() for row in reps]
    return FiniteLoop(table, labels=labels)


def paige_order_formula(q):
    """|M*(q)| = q^3 (q^4 - 1) / gcd(2, q - 1)."""
    return q**3 * (q**4 - 1) // math.gcd(2, q - 1)


def paige_order_enumerated(q):
    """|M*(q)| by enumerating norm-one elements and pairing x with -x."""
    F = field(q)
    return len(norm_one_array(F)) // math.gcd(2, q - 1)


# -- loop computations -----------------------------------------------------


def element_order(L, x):
    """Least k >= 1 with x^k = e, powers left-bracketed (x^(k+1) = x*x^k)."""
    if not 0 <= x < L.n:
        raise DomainError("element out of range")
    k = 1
    p = x
    while p != 0:
        p = int(L.table[x, p])
        k += 1
    return k


def subloop_closure(L, seed):
    """Least subset containing seed and e, closed under multiplication and
    both divisions.  Returns a sorted array of element indices."""
    n = L.n
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    for x in seed:
        if not 0 <= x < n:
            raise DomainError("element out of range")
        mask[x] = True
    tables = (L.table, L.ldiv_table, L.rdiv_table)
    while True:
        ix = np.nonzero(mask)[0]
        cells = np.ix_(ix, ix)
        for t in tables:
            mask[t[cells]] = True
        if np.count_nonzero(mask) == len(ix):
            return ix


def loop_center(L):
    """Elements commuting and associating with everything; sorted array."""
    T = L.table
    n = L.n
    candidates = np.nonzero((T == T.T).all(axis=1))[0]
    out = []
    for x in candidates:
        x = int(x)
        # (xa)b == x(ab), (ax)b == a(xb), (ab)x == a(bx) for all a, b
        if not (T[T[x, :], :] == T[x, T]).all():
            continue
        if not (T[T[:, x], :] == T[:, T[x, :]]).all():
            continue
        if not (T[:, x][T] == T[:, T[:, x]]).all():
            continue
        out.append(x)
    return np.array(out, dtype=np.int64)


_MOUFANG_IDS = (1, 2, 3, 4)


@dataclass(frozen=True)
class MoufangVerdict:
    passed: bool
    counterexample: tuple | None    # (identity_id, x, y, z)
    triples_checked: int
    mode: str

    def __bool__(self):
        return self.passed


def _moufang_pair(T, idn, x):
    """For identity idn and fixed x, (lhs, rhs) as (n, n) arrays indexed
    [y, z]."""
    Tx = T[x]                           # x*y as a vector over y
    if idn == 1:
        # ((x y) x) z = x (y (x z))
        return T[T[Tx, x], :], Tx[T[:, Tx]]
    if idn == 2:
        # ((z x) y) x = z (x (y x))
        return T[T[T[:, x], :], x].T, T[:, T[x, T[:, x]]].T
    zx = T[:, x]
    lhs = T[np.ix_(Tx, zx)]             # (x y)(z x)
    if idn == 3:
        # (x y) (z x) = x ((y z) x)
        return lhs, Tx[T[T, x]]
    # 4: (x y) (z x) = (x (y z)) x
    return lhs, T[T[x, T], x]


def check_moufang(L, mode="full", n_samples=1_000_000, seed=0):
    """Check the four Moufang identities:

      1: ((x y) x) z = x (y (x z))
      2: ((z x) y) x = z (x (y x))
      3: (x y) (z x) = x ((y z) x)
      4: (x y) (z x) = (x (y z)) x

    full mode sweeps every triple and reports the lexicographically least
    counterexample as (identity_id, x, y, z); sample mode draws n_samples
    triples from a seeded generator.
    """
    # entries are only ever used as indices, so the table dtype is kept;
    # upcasting would quadruple the footprint at q = 4
    T = np.ascontiguousarray(L.table)
    n = L.n
    if mode == "full":
        if n**3 > config.MAX_FULL_TRIPLES:
            raise LimitError(
                f"{n}^3 triples exceed {config.MAX_FULL_TRIPLES}; "
                "use sample mode", bound=config.MAX_FULL_TRIPLES)
        for idn in _MOUFANG_IDS:
            for x in range(n):
                lhs, rhs = _moufang_pair(T, idn, x)
                bad = lhs != rhs
                if bad.any():
                    flat = int(np.argmax(bad.ravel()))
                    y, z = divmod(flat, n)
                    return MoufangVerdict(False, (idn, x, y, z),
                                          4 * n**3, "full")
        return MoufangVerdict(True, None, 4 * n**3, "full")
    if mode == "sample":
        rng = np.random.default_rng(seed)
        xs = rng.integers(0, n, size=n_samples)
        ys = rng.integers(0, n, size=n_samples)
        zs = rng.integers(0, n, size=n_samples)
        pairs = (
            (T[T[T[xs, ys], xs], zs], T[xs, T[ys, T[xs, zs]]]),
            (T[T[T[zs, xs], ys], xs], T[zs, T[xs, T[ys, xs]]]),
            (T[T[xs, ys], T[zs, xs]], T[xs, T[T[ys, zs], xs]]),
            (T[T[xs, ys], T[zs, xs]], T[T[xs, T[ys, zs]], xs]),
        )
        for idn, (lhs, rhs) in zip(_MOUFANG_IDS, pairs):
            bad = np.nonzero(lhs != rhs)[0]
            if len(bad):
                i = int(bad[0])
                return MoufangVerdict(
                    False, (idn, int(xs[i]), int(ys[i]), int(zs[i])),
                    4 * n_samples, "sample")
        return MoufangVerdict(True, None, 4 * n_samples, "sample")
    raise DomainError(f"mode must be 'full' or 'sample', got {mode!r}")


def first_nonassociative_triple(L):
    """Lexicographically least (x, y, z) with (xy)z != x(yz), or None."""
    T = np.ascontiguousarray(L.table)
    n = L.n
    if n**3 > config.MAX_FULL_TRIPLES:
        raise LimitError(
            f"{n}^3 triples exceed {config.MAX_FULL_TRIPLES}",
            bound=config.MAX_FULL_TRIPLES)
    for x in range(n):
        lhs = T[T[x, :], :]
        rhs = T[x, T]
        bad = lhs != rhs
        if bad.any():
            flat = int(np.argmax(bad.ravel()))
            y, z = divmod(flat, n)
            return (x, y, z)
    return None


def multiplication_group(L):
    """Mlt(L): the permutation group generated by all left and right
    translations."""
    gens = [L.left_translation(a) for a in range(1, L.n)]
    gens += [L.right_translation(a) for a in range(1, L.n)]
    return PermGroup(gens, degree=L.n)


@dataclass(frozen=True)
class SimplicityVerdict:
    simple: bool
    witness: np.ndarray | None    # proper nontrivial normal subloop

    def __bool__(self):
        return self.simple


def is_simple(L, mlt=None):
    """Simplicity via inner mappings: Inn(L) is the stabilizer of e in
    Mlt(L); L is simple iff for every x != e the least Inn-invariant
    subloop containing x is all of L."""
    if L.n > 2000:
        raise LimitError("simplicity check capped at order 2000", bound=2000)
    if L.n == 1:
        return SimplicityVerdict(True, None)
    if mlt is None:
        mlt = multiplication_group(L)
    inn = mlt.point_stabilizer(0)
    inn_rows = [g.images for g in inn.generators]
    if not inn_rows:
        inn_rows = [np.arange(L.n, dtype=np.int32)]
    # orbit ids under Inn
    orbit_id = np.full(L.n, -1, dtype=np.int32)
    norb = 0
    for start in range(L.n):
        if orbit_id[start] >= 0:
            continue
        orbit_id[start] = norb
        frontier = [start]
        while frontier:
            nxt = []
            for p in frontier:
                for row in inn_rows:
                    q = int(row[p])
                    if orbit_id[q] < 0:
                        orbit_id[q] = norb
                        nxt.append(q)
            frontier = nxt
        norb += 1
    reps = [int(np.argmax(orbit_id == k)) for k in range(norb)]
    for x in reps:
        if x == 0:
            continue
        members = np.zeros(L.n, dtype=bool)
        members[[0, x]] = True
        while True:
            closed = subloop_closure(L, np.nonzero(members)[0])
            # close under Inn-orbits
            hit = np.zeros(norb, dtype=bool)
            hit[orbit_id[closed]] = True
            grown = hit[orbit_id]
            done = (grown == members).all()
            members = grown
            if done or members.all():
                break
        if not members.all():
            return SimplicityVerdict(False, np.nonzero(members)[0])
    return SimplicityVerdict(True, None)


# -- file formats ----------------------------------------------------------


def save_tbl(L, path):
    """Write the `.tbl` format (line 1 = n, then n rows of indices); a
    `.lab` sidecar with element labels is written when labels exist."""
    path = str(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{L.n}\n")
        for row in L.table:
            fh.write(" ".join(str(int(v)) for v in row))
            fh.write("\n")
    if L.labels is not None:
        lab = _lab_path(path)
        with open(lab, "w", encoding="utf-8") as fh:
            fh.write("\n".join(L.labels) + "\n")


def _lab_path(path):
    path = str(path)
    return (path[:-4] if path.endswith(".tbl") else path) + ".lab"


def load_tbl(path):
    """Read a `.tbl` file; attaches a `.lab` sidecar when present."""
    import os

    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().split("\n")
    lines = [ln for ln in (s.strip() for s in raw) if ln]
    if not lines:
        raise MalformedTableError("empty table file")
    try:
        n = int(lines[0])
    except ValueError:
        raise MalformedTableError("first line must be the order") from None
    if n <= 0 or len(lines) != n + 1:
        raise MalformedTableError(
            f"expected {max(n, 0)} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(t) for t in ln.split()]
        except ValueError:
            raise MalformedTableError("non-integer table entry") from None
        if len(row) != n:
            raise MalformedTableError("row length does not match order")
        rows.append(row)
    labels = None
    lab = _lab_path(path)
    if os.path.exists(lab):
        with open(lab, "r", encoding="utf-8") as fh:
            labels = [ln for ln in fh.read().split("\n") if ln]
        if len(labels) != n:
            raise MalformedTableError("label count does not match order")
    return FiniteLoop(np.array(rows), labels=labels)


def bundled_loop5():
    """The shipped order-5 nonassociative (hence non-Moufang) loop."""
    from importlib import resources

    ref = resources.files("paigeloops").joinpath("data/loop5.tbl")
    with resources.as_file(ref) as p:
        return load_tbl(p)
