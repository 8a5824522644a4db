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
from .perm import PermGroup
from .zorn import (norm_one_array, norm_one_count_formula, oct_canonical,
                   oct_neg)


def _check_latin(table):
    """Rows, then columns, of a block sorted and compared with 0..n-1; a
    row of the block costs its sorted row and column copies and a mask."""
    n = table.shape[0]
    want = np.arange(n, dtype=table.dtype)
    for lo, hi in _kernels._blocks(0, n, n * (2 * table.itemsize + 1)):
        if not (np.sort(table[lo:hi], axis=1) == want).all():
            raise NotLatinError("a row is not a permutation of 0..n-1")
        block = np.ascontiguousarray(table[:, lo:hi].T)
        block.sort(axis=1)
        if not (block == want).all():
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
        dtype = _kernels._point_dtype(n)
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
        """out[a, rows[a, b]] = b, scattered a block of rows at a time in
        the table's dtype; read-only.  The scatter makes no copy of its
        indices, so a row costs the n entries it reads.  The table-cell
        bound is checked first."""
        n = self.n
        _check_table_cells(n)
        out = np.empty((n, n), dtype=self.table.dtype)
        cols = np.arange(n, dtype=self.table.dtype)
        for a0, a1 in _kernels._blocks(0, n, n * rows.itemsize):
            out[a0:a1][np.arange(a1 - a0)[:, None], rows[a0:a1]] = cols
        out.flags.writeable = False
        return out

    def ldiv(self, a, b):
        """a \\ b: the x with a*x = b."""
        return int(self.ldiv_table[a, b])

    def rdiv(self, a, b):
        """a / b: the x with x*b = a."""
        return int(self.rdiv_table[b, a])

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"FiniteLoop(n={self.n})"


def loop_from_table(table, labels=None):
    """Validate a Cayley table (Latin, identity at index 0)."""
    return FiniteLoop(table, labels=labels)


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


def _address_book(F, reps):
    """addr[key] = row of reps whose base-q key is key, or whose negative
    has that key, else -1; an int32 array over all q^8 keys.

    The keys of -x are written first and those of x last, so a key that is
    itself a representative maps to its own row: M*(q) looks up x and -x
    alike with no canonical form, and the unit loop, whose reps hold both
    signs, looks up each element exactly."""
    q = F.q
    addr = np.full(q ** 8, -1, dtype=np.int32)
    rows = np.arange(len(reps), dtype=np.int32)
    addr[_rep_address(q, oct_neg(F, reps))] = rows
    addr[_rep_address(q, reps)] = rows
    return addr


def _build_table(F, reps):
    n = len(reps)
    _check_table_cells(n)
    return _kernels.paige_table(F, reps, _address_book(F, reps),
                                np.empty((n, n),
                                         dtype=_kernels._point_dtype(n)))


def _labels(F, reps):
    """The text of each representative: each coordinate's
    Field.format_element, joined by ';'."""
    text = [F.format_element(c) for c in range(F.q)]
    return [";".join([text[c] for c in row]) for row in reps.tolist()]


def paige_representatives(q):
    """Canonical coset representatives of M*(q): the lex-min of each
    {x, -x} pair of norm-one Zorn matrices, identity first."""
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
    read-only.  The table-cell bound is checked on every call, before any
    scan."""
    F = field(q)
    _check_table_cells(paige_order_formula(q))
    L = _LIVE.get(q)
    if L is None:
        reps = paige_representatives(q)
        table = _build_table(F, reps)
        table.flags.writeable = False
        L = FiniteLoop(table, labels=_labels(F, reps))
        _LIVE[q] = L
    return L


def unit_loop(q):
    """The loop M(q) of all norm-one Zorn matrices, before the quotient."""
    F = field(q)
    _check_table_cells(norm_one_count_formula(q))
    reps = _identity_to_front(norm_one_array(F))
    return FiniteLoop(_build_table(F, reps), labels=_labels(F, reps))


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
    both divisions.  Returns a sorted array of element indices.

    Closing under the product alone is enough, so no division table is
    built.  Let S be finite, contain e and be closed under the product.
    For a in S, x -> a x maps S into S and is injective (L is a loop),
    hence onto S, so a \\ b lies in S for every b in S; likewise
    x -> x a gives b / a in S.  Each round multiplies the k elements
    found so far a block of left factors at a time, a row costing the k
    intp indices of its products and the products."""
    n = L.n
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    for x in seed:
        if not 0 <= x < n:
            raise DomainError("element out of range")
        mask[x] = True
    flat = L.table.ravel()
    while True:
        ix = np.nonzero(mask)[0]
        if len(ix) == n:
            return ix
        for lo, hi in _kernels._blocks(0, len(ix),
                                       len(ix) * (8 + flat.itemsize)):
            mask[flat.take(ix[lo:hi, None] * n + ix)] = True
        if np.count_nonzero(mask) == len(ix):
            return ix


def loop_center(L):
    """Elements commuting and associating with everything; sorted array.

    The identity is central by the loop axioms and is taken unscanned.
    Row x of the table is compared with column x a block of rows at a
    time (a row costs its mask), and each other element that commutes
    with everything is checked for the three associations in blocks of
    rows a (a row costs two gathers and a mask), the first failing block
    ending the check."""
    T = L.table
    n = L.n
    commutes = np.zeros(n, dtype=bool)
    for lo, hi in _kernels._blocks(1, n, n):
        commutes[lo:hi] = (T[lo:hi] == T[:, lo:hi].T).all(axis=1)
    out = [0]
    for x in np.flatnonzero(commutes).tolist():
        row, col = T[x], T[:, x]
        # (x a) b = x (a b), (a x) b = a (x b), (a b) x = a (b x) for the
        # rows a of a block and every b
        if all((T[row[a:b]] == row[T[a:b]]).all()
               and (T[col[a:b]] == T[a:b][:, row]).all()
               and (col[T[a:b]] == T[a:b][:, col]).all()
               for a, b in _kernels._blocks(0, n,
                                            n * (2 * T.itemsize + 1))):
            out.append(x)
    return np.array(out, dtype=np.int64)


@dataclass(frozen=True)
class MoufangVerdict:
    passed: bool
    counterexample: tuple | None    # (identity_id, x, y, z)
    triples_checked: int
    mode: str

    def __bool__(self):
        return self.passed


def _moufang_sides(T, x, y, z):
    """Yield (idn, lhs, rhs) for identities 1..4 in turn at index arrays
    x, y, z, which broadcast against each other.  Each pair is gathered
    when it is asked for, and x y, z x, y z and (x y)(z x), the left side
    of 3 and 4, once each: 18 gathers for all four.  Products are
    gathered from the flat table, cheaper than 2-D fancy indexing."""
    flat = T.ravel()
    n = T.shape[1]

    def m(a, b):
        # a n + b in one intp array when a and b have one shape
        i = np.multiply(a, n, dtype=np.intp)
        return flat.take(np.add(i, b, out=i) if i.shape == np.shape(b)
                         else i + b)

    xy = m(x, y)
    yield 1, m(m(xy, x), z), m(x, m(y, m(x, z)))
    zx = m(z, x)
    yield 2, m(m(zx, y), x), m(z, m(x, m(y, x)))
    yz = m(y, z)
    lhs = m(xy, zx)
    yield 3, lhs, m(x, m(yz, x))
    yield 4, lhs, m(m(x, yz), x)


def check_moufang(L, mode="full", n_samples=1_000_000, seed=0):
    """Check the four Moufang identities:

      1: ((x y) x) z = x (y (x z))
      2: ((z x) y) x = z (x (y x))
      3: (x y) (z x) = x ((y z) x)
      4: (x y) (z x) = (x (y z)) x

    full mode sweeps every triple and reports the lexicographically least
    counterexample as (identity_id, x, y, z); sample mode draws n_samples
    triples from a seeded generator and reports the first failing sample
    of the first failing identity.  The samples are the x, y and z of
    three rng.integers(0, n, size=n_samples) draws in turn, streamed a
    block at a time by _kernels_py._sample_blocks, whose prepass finds
    where the y and z draws start; n_samples must be an integer >= 1 and
    seed one >= 0.  A triple of a block costs 56 bytes: its three int64
    draws, the intp indices of a gather, the products kept for the later
    identities and a mask.  So the memory does not grow with n_samples,
    but the time does, and sample mode raises LimitError before drawing
    when 3 n_samples would pass MAX_TABLE_CELLS (10^8 triples).
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
        # one x at a time; per identity the first failing x is its least
        first = {}
        ys = np.arange(n)[:, None]
        for x in range(n):
            for idn, lhs, rhs in _moufang_sides(T, x, ys, ys.T):
                bad = lhs != rhs
                if idn not in first and bad.any():
                    y, z = divmod(int(np.argmax(bad.ravel())), n)
                    first[idn] = (idn, x, y, z)
            if 1 in first:
                break
        if first:
            return MoufangVerdict(False, min(first.values()), 4 * n**3,
                                  "full")
        return MoufangVerdict(True, None, 4 * n**3, "full")
    if mode == "sample":
        n_samples, seed = _kernels._sample_args(n_samples, seed)
        if 3 * n_samples > config.MAX_TABLE_CELLS:
            raise LimitError(
                f"{n_samples} sampled triples are over the cap of "
                f"{config.MAX_TABLE_CELLS // 3}",
                bound=config.MAX_TABLE_CELLS)
        rng = np.random.default_rng(seed)
        # blocks in sample order; once an identity fails, later blocks
        # check only the identities before it
        found = None
        for _, _, (xs, ys, zs) in _kernels._sample_blocks(
                rng, n, n_samples, 3, 56):
            for idn, lhs, rhs in _moufang_sides(T, xs, ys, zs):
                if found is not None and idn >= found[0]:
                    break
                bad = np.flatnonzero(lhs != rhs)
                if len(bad):
                    i = int(bad[0])
                    found = (idn, int(xs[i]), int(ys[i]), int(zs[i]))
                    break
            if found is not None and found[0] == 1:
                break
        return MoufangVerdict(found is None, found, 4 * n_samples,
                              "sample")
    raise DomainError(f"mode must be 'full' or 'sample', got {mode!r}")


class _Translations:
    """The nonidentity translations of a loop, read off its table T as a
    row sequence: L_a = T[a] for a = 1..n-1, then R_a = T[:, a] for
    a = 1..n-1.  It has len(), and int and slice indexing, which return
    int32 copies of just the rows asked for, read as basic slices of T."""

    def __init__(self, table):
        self.table = table
        self.m = len(table) - 1

    def __len__(self):
        return 2 * self.m

    def __getitem__(self, key):
        T, m = self.table, self.m
        if not isinstance(key, slice):
            i = range(2 * m)[key]
            return (T[1 + i] if i < m else T[:, 1 + i - m]).astype(np.int32)
        r = range(2 * m)[key]
        # the indices on r[0]'s side of m lead r: r[:k] is on one side and
        # r[k:] on the other, and each is one basic slice of T
        k = len(range(r.start, min(r.stop, m) if r.step > 0
                      else max(r.stop, m - 1), r.step))
        out = np.empty((len(r), len(T)), dtype=np.int32)
        for a, b in ((0, k), (k, len(r))):
            s = r[a:b]
            if not s:
                continue
            off = 1 if s[0] < m else 1 - m
            # off + s[-1] >= 1, so the stop is never a negative index
            cut = slice(off + s[0], off + s[-1] + (1 if s.step > 0 else -1),
                        s.step)
            out[a:b] = T[cut] if s[0] < m else T[:, cut].T
        return out


def multiplication_group(L):
    """Mlt(L): the permutation group generated by all left and right
    translations, L_a for a = 1..n-1 and then R_a for a = 1..n-1.  The
    chain reads them as rows and columns of the table, a block of rows at
    a time, and .generators makes them Permutations only when read."""
    return PermGroup._from_rows(_Translations(L.table), L.n)


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
    if L.n > config.MAX_MLT_LOOP_ORDER:
        raise LimitError("simplicity check capped at order "
                         f"{config.MAX_MLT_LOOP_ORDER}",
                         bound=config.MAX_MLT_LOOP_ORDER)
    if L.n == 1:
        return SimplicityVerdict(True, None)
    if mlt is None:
        mlt = multiplication_group(L)
    inn = mlt.point_stabilizer(0)
    # orbit ids under Inn, numbered by least member
    orbit_id = np.full(L.n, -1, dtype=np.int32)
    reps = []
    for x in range(L.n):
        if orbit_id[x] < 0:
            orbit_id[inn.orbit(x)] = len(reps)
            reps.append(x)
    norb = len(reps)
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
    """Read a `.tbl` file; attaches a `.lab` sidecar when present.  The
    order is checked against the table-cell bound before any row is
    read, and the rows are parsed one line at a time into the table."""
    import os

    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = (ln for ln in (s.strip() for s in fh) if ln)
        first = next(lines, None)
        if first is None:
            raise MalformedTableError("empty table file")
        try:
            n = int(first)
        except ValueError:
            raise MalformedTableError("first line must be the order") from None
        if n > 0:
            _check_table_cells(n)
        table = np.empty((max(n, 0),) * 2, dtype=_kernels._point_dtype(n))
        found = 0
        for ln in lines:
            if found < n:
                try:
                    row = np.array(ln.split(), dtype=np.int64)
                except ValueError:
                    raise MalformedTableError(
                        "non-integer table entry") from None
                except OverflowError:
                    raise MalformedTableError("entry out of range") from None
                if len(row) != n:
                    raise MalformedTableError(
                        "row length does not match order")
                if row.min() < 0 or row.max() >= n:
                    raise MalformedTableError("entry out of range")
                table[found] = row
            found += 1
    if n <= 0 or found != n:
        raise MalformedTableError(f"expected {max(n, 0)} rows, found {found}")
    labels = None
    lab = _lab_path(path)
    if os.path.exists(lab):
        with open(lab, "r", encoding="utf-8") as fh:
            labels = [ln for ln in fh.read().split("\n") if ln]
        if len(labels) != n:
            raise MalformedTableError("label count does not match order")
    return FiniteLoop(table, labels=labels)


def bundled_loop5():
    """The shipped order-5 nonassociative (hence non-Moufang) loop."""
    from importlib import resources

    ref = resources.files("paigeloops").joinpath("data/loop5.tbl")
    with resources.as_file(ref) as p:
        return load_tbl(p)
