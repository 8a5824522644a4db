"""Permutations and permutation groups with deterministic stabilizer chains.

Composition convention: (p * q) applies p first, then q, i.e.
(p * q)(x) = q(p(x)).  All orders are exact Python integers.

The chain is built by a deterministic Schreier-Sims.  Write H^(m) for the
group generated by the generators installed at level m.  Invariant: every
generator installed at level m lies in H^(m-1), so H^(0) >= H^(1) >= ...,
and the chain is complete once every Schreier generator of H^(m) for the
orbit of bases[m] sifts to the identity through levels m+1.. (Holt, Eick
and O'Brien, Handbook of Computational Group Theory, 2005, 4.4).  An input
generator's residue, stuck at level j, is installed at levels 0..j.  The
residue of a Schreier generator of level l, stuck at level j > l, is
installed at levels l+1..j only: it already lies in H^(l) and so in every
H^(i) with i <= l, where it would add no element and no orbit point but
|O_i| more Schreier generators, each sifting to the identity.  Orbits
extend without relabeling existing points, so per-generator sweep cursors
stay valid and each Schreier generator is swept exactly once.  Every sift
reads the transversal-inverse cache u_p^{-1}, filled a level at a time
from the Schreier tree when that level's orbit has grown, in the point
dtype (int16 up to degree 32,767, int32 above), while generators, orbits
and sifted rows stay int32; a fill that would take the chain's cache
past MAX_TABLE_CELLS cells raises LimitError before it allocates.  A
Schreier generator u_p s u_{s(p)}^{-1} on an edge of the Schreier tree
is the identity by construction and is skipped, and so is, for an
involution s, one whose inverse, the generator at s(p), was swept first;
every other one is sifted once, in blocks of rows that give each row
exactly the residue of its own sift, and a sweep stops at the first
nontrivial residue in orbit-position order.  A chain built from inputs
first installs two words, the product of the inputs at even positions
and that of the inputs at odd positions, each in input order, and then
sifts every input in blocks: members are skipped, and the first
non-member is installed before the rest are sifted.  The answer stays
exact: each word is a product of inputs, so it lies in <inputs>, and
every input is still sifted and installed if it is not a member, so the
chain's group is <inputs> whether or not the words generate it.  The
words only make it likely that most inputs sift as members, which saves
the Schreier generators each installed input would bring (the random
subproduct idea of Babai, Cooperman, Finkelstein, Luks and Seress, JCSS
50, 1995, made deterministic).  With one or two inputs the words are the
inputs themselves, in order.  The inputs are read as rows, one block of
rows (see _kernels_py._blocks) at a time, by the words together with the
scan for the first base point, by the orbit search and by the member
sifts, each counting a sift row (_kernels_py._sift_row_bytes, 18 d bytes
below degree 32,768) as the sifts do, so inputs that are a loop's table
rows and columns, as for Mlt(L), are never all copied at once.
Base points: level 0 uses the least point moved by any input generator
(or a caller-forced point for stabilizer base changes); each deeper level
uses the least point moved by the residue that created it.
"""

import math

import numpy as np

from . import _kernels_py as _kernels
from . import config
from .errors import DomainError, InternalError, LimitError


class Permutation:
    """A permutation of {0..d-1} stored as an image array."""

    __slots__ = ("images",)

    def __init__(self, images, _checked=False):
        arr = np.ascontiguousarray(images, dtype=np.int32)
        if arr.ndim != 1:
            raise DomainError("permutation images must be a 1-d sequence")
        if not _checked:
            d = len(arr)
            if d == 0:
                raise DomainError("empty permutation")
            if arr.min() < 0 or arr.max() >= d:
                raise DomainError("image out of range")
            seen = np.zeros(d, dtype=bool)
            seen[arr] = True
            if not seen.all():
                raise DomainError("images are not a bijection")
        object.__setattr__(self, "images", arr)

    def __setattr__(self, *a):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, degree):
        return cls(np.arange(degree, dtype=np.int32), _checked=True)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return int(self.images[point])

    def __mul__(self, other):
        if self.degree != other.degree:
            raise DomainError("degree mismatch")
        return Permutation(other.images[self.images], _checked=True)

    def inverse(self):
        out = np.empty_like(self.images)
        out[self.images] = np.arange(self.degree, dtype=np.int32)
        return Permutation(out, _checked=True)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        r = Permutation.identity(self.degree)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def is_identity(self):
        return bool((self.images == np.arange(self.degree,
                                              dtype=np.int32)).all())

    def order(self):
        return math.lcm(*map(len, self.cycles()))

    def cycles(self):
        """Nontrivial cycles as tuples, each starting at its least point."""
        seen = np.zeros(self.degree, dtype=bool)
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = int(self.images[j])
            out.append(tuple(cyc))
        return out

    @classmethod
    def from_cycles(cls, degree, cycles):
        arr = np.arange(degree, dtype=np.int32)
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                arr[a] = b
        return cls(arr)

    def to_text(self):
        return " ".join(str(int(x)) for x in self.images)

    @classmethod
    def from_text(cls, line):
        try:
            vals = [int(t) for t in line.split()]
        except ValueError as e:
            raise DomainError(f"bad permutation text: {e}") from None
        return cls(vals)

    def __eq__(self, other):
        return (isinstance(other, Permutation)
                and self.degree == other.degree
                and bool((self.images == other.images).all()))

    def __hash__(self):
        return hash(self.images.tobytes())

    def __repr__(self):
        if self.degree <= 64:
            cyc = self.cycles()
            if not cyc:
                return f"Permutation(identity, degree={self.degree})"
            body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
            return f"Permutation({body}, degree={self.degree})"
        return f"Permutation(degree={self.degree})"


def _words(rows):
    """The product of rows[0::2] and the product of rows[1::2], each
    composed in input order, one composition per row of a block of rows
    read at once, an empty product left out; and the least point any
    row moves, or None.  With one or two rows the words are the rows
    themselves."""
    words = []
    d = len(rows[0]) if len(rows) else 1
    moved = np.zeros(d, dtype=bool)
    for lo, hi in _kernels._blocks(0, len(rows),
                                   _kernels._sift_row_bytes(d)):
        block = np.asarray(rows[lo:hi], dtype=np.int32)
        moved |= (block != np.arange(d)).any(axis=0)
        for i, r in enumerate(block, lo):
            if i < 2:
                words.append(r.copy())
            else:
                _kernels.compose_into(words[i % 2], r, words[i % 2])
    return words, int(moved.argmax()) if moved.any() else None


class _Chain:
    """Mutable stabilizer-chain state; see module docstring."""

    def __init__(self, degree):
        self.d = degree
        self.bases = []
        self.genstacks = []
        self.svs = []
        self.poss = []
        self.orbits = []
        self.norbits = []
        self.uinvs = []
        self.done = []

    # -- structure -----------------------------------------------------

    def nlevels(self):
        return len(self.bases)

    def add_level(self, base):
        d = self.d
        self.bases.append(int(base))
        self.genstacks.append(np.empty((0, d), dtype=np.int32))
        self.svs.append(np.full(d, -1, dtype=np.int32))
        self.poss.append(np.full(d, -1, dtype=np.int32))
        self.orbits.append(np.empty(d, dtype=np.int32))
        self.norbits.append(0)
        self.uinvs.append(None)
        self.done.append([])
        self._extend_orbit(self.nlevels() - 1)

    def _extend_orbit(self, l):
        norbit = _kernels.orbit_update(
            self.genstacks[l], self.svs[l], self.poss[l], self.orbits[l],
            self.norbits[l], self.bases[l])
        if norbit != self.norbits[l]:
            self.norbits[l] = norbit
            self.uinvs[l] = None

    def cache(self, start=0):
        """The transversal-inverse caches, with levels start.. filled:
        row pos[x] of uinvs[l] is u_x^{-1}, in the point dtype of the
        degree (_kernels_py._point_dtype).  Raises LimitError before
        allocating a level that would take the chain's cache past
        MAX_TABLE_CELLS cells."""
        for l in range(start, self.nlevels()):
            if self.uinvs[l] is not None:
                continue
            rows = self.norbits[l]
            cells = rows * self.d + sum(u.size for u in self.uinvs
                                        if u is not None)
            if cells > config.MAX_TABLE_CELLS:
                raise LimitError(
                    f"the transversal cache of a chain of degree {self.d} "
                    f"needs {cells} cells, over {config.MAX_TABLE_CELLS}",
                    bound=config.MAX_TABLE_CELLS)
            u = np.empty((rows, self.d), dtype=_kernels._point_dtype(self.d))
            _kernels.transversal_fill(self.genstacks[l], self.svs[l],
                                      self.poss[l], self.orbits[l], rows,
                                      self.bases[l], u)
            self.uinvs[l] = u
        return self.uinvs

    def release_caches(self):
        self.uinvs = [None] * self.nlevels()

    # -- construction ---------------------------------------------------

    def _stuck_level(self, r):
        for m, b in enumerate(self.bases):
            if r[b] != b:
                return m
        return self.nlevels()

    def insert_gen(self, r, j, lo=0):
        """Install residue r (fixing bases[0..j-1]) at levels lo..j; r must
        lie in H^(lo-1) when lo > 0."""
        if j == self.nlevels():
            moved = np.nonzero(r != np.arange(self.d, dtype=np.int32))[0]
            self.add_level(int(moved[0]))
        rinv = _kernels.invert(r)
        two = np.stack([r, rinv]).astype(np.int32, copy=False)
        for l in range(lo, j + 1):
            gs = self.genstacks[l]
            self.genstacks[l] = np.concatenate([gs, two]) if gs.size else \
                np.ascontiguousarray(two)
            self.done[l].append(0)
            self._extend_orbit(l)

    def sweep_level(self, l):
        """Sweep all pending Schreier generators of level l; return the
        first nontrivial residue, or None when the level is finished."""
        self.cache(l)
        while True:
            progressed = False
            for gi in range(len(self.done[l])):
                start = self.done[l][gi]
                if start >= self.norbits[l]:
                    continue
                progressed = True
                posi, residue = _kernels.sweep_gen(
                    l, gi, start, self.bases, self.svs, self.genstacks,
                    self.uinvs, self.poss, self.orbits, self.norbits)
                self.done[l][gi] = posi
                if residue is not None:
                    return residue
            if not progressed:
                return None

    def complete_build(self):
        l = self.nlevels() - 1
        while l >= 0:
            residue = self.sweep_level(l)
            if residue is None:
                l -= 1
            else:
                j = self._stuck_level(residue)
                self.insert_gen(residue, j, lo=l + 1)
                l = min(j, self.nlevels() - 1)

    def add_input_generator(self, images):
        """Sift one input generator; extend the chain unless it is already
        a member.  Returns True if the group grew."""
        h = np.array(images, dtype=np.int32)[None]
        i, j = _kernels.sift_run(h, 0, self.bases, self.cache(), self.poss)
        if i:
            return False
        self.insert_gen(h[0], j)
        self.complete_build()
        return True

    def add_inputs(self, rows):
        """Install the two words of rows (see _words), on a first level
        at the least point that rows move if the chain has no level,
        then add_input_generator for each of rows in turn, with the
        members between two non-members skipped by block sifts.  rows is
        read by index and by blocks of rows, never whole."""
        words, first = _words(rows)
        if not self.nlevels() and first is not None:
            self.add_level(first)
        for w in words:
            self.add_input_generator(w)
        i = self.first_nonmember(rows)
        while i < len(rows):
            self.add_input_generator(rows[i])
            i = self.first_nonmember(rows, i + 1)

    # -- queries ----------------------------------------------------------

    def first_nonmember(self, rows, start=0):
        """Index of the first of rows[start:] outside the group, or
        len(rows).  Copies of the rows are sifted in blocks."""
        uinvs = self.cache()
        for lo, hi in _kernels._blocks(start, len(rows),
                                         _kernels._sift_row_bytes(self.d)):
            h = np.array(rows[lo:hi], dtype=np.int32)
            i, _ = _kernels.sift_run(h, 0, self.bases, uinvs, self.poss)
            if i < len(h):
                return lo + i
        return len(rows)

    def order(self):
        out = 1
        for n in self.norbits:
            out *= int(n)
        return out

    def is_member(self, images):
        return self.first_nonmember([images]) == 1

    def transversal_elem(self, l, posi):
        """u: bases[l] -> orbit point at position posi, as an int32 image
        array."""
        return _kernels.invert(self.cache(l)[l][posi].astype(np.int32))

    def random_element(self, rng):
        """One uniform element, an int32 image array, drawn from rng."""
        t = None
        for l in range(self.nlevels() - 1, -1, -1):
            posi = int(rng.integers(0, self.norbits[l]))
            u = self.transversal_elem(l, posi)
            t = u if t is None else _kernels.compose(t, u)
        if t is None:
            t = np.arange(self.d, dtype=np.int32)
        return t

    def element_array(self):
        """All group elements as one (order, d) int32 array of image rows.

        The group is the product U_{L-1} ... U_0 of its transversals
        (Holt, Eick and O'Brien, 4.4).  Row i is u_{L-1} * ... * u_0 (left
        factor applied first), each u_l running over level l's transversal
        in orbit-position order, the deepest level slowest and level 0
        fastest.  Each level's transversal is one matrix U, row j the
        inverse of cache row j, made by one scatter, and the rows so far,
        E, are composed with it into the level's preallocated output,
        new[i * rows + j] = U[j][E[i]], deepest level first, one gather
        per transversal element and block of rows of E, a row costing its
        intp indices and one gather of them.  Besides the output, a level
        holds only E, 1/rows of it, U and one block, so LimitError, raised
        before allocating when order * d exceeds MAX_TABLE_CELLS, bounds
        the whole listing's memory."""
        d = self.d
        order = self.order()
        if order * d > config.MAX_TABLE_CELLS:
            raise LimitError(
                f"listing {order} elements of degree {d} needs "
                f"{order * d} cells, over {config.MAX_TABLE_CELLS}",
                bound=config.MAX_TABLE_CELLS)
        E = np.arange(d, dtype=np.int32)[None]
        for uinv in reversed(self.cache()):
            rows = len(uinv)
            U = np.empty((rows, d), dtype=np.int32)
            U[np.arange(rows)[:, None], uinv] = np.arange(d, dtype=np.int32)
            out = np.empty((len(E), rows, d), dtype=np.int32)
            for a, b in _kernels._blocks(0, len(E), 12 * d):
                idx = E[a:b].astype(np.intp)
                for j in range(rows):
                    out[a:b, j] = U[j].take(idx)
            E = out.reshape(-1, d)
        return E

    def tail(self):
        """The chain for levels 1.. (the stabilizer of bases[0]); shares
        the underlying arrays.  Valid while this chain stays unmodified."""
        t = _Chain(self.d)
        t.bases = self.bases[1:]
        t.genstacks = self.genstacks[1:]
        t.svs = self.svs[1:]
        t.poss = self.poss[1:]
        t.orbits = self.orbits[1:]
        t.norbits = self.norbits[1:]
        t.uinvs = [None] * len(t.bases)
        t.done = [list(x) for x in self.done[1:]]
        return t


class PermGroup:
    """Permutation group defined by generators, with a lazily built
    deterministic stabilizer chain.  The chain reads the generators as a
    row sequence: rows[i] and rows[lo:hi] give image rows, and len(rows)
    their number."""

    def __init__(self, generators, degree=None, base_hint=None,
                 _chain=None):
        gens = []
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            gens.append(g)
        if degree is None:
            if not gens:
                raise DomainError("degree required for an empty generator "
                                  "set")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise DomainError("generator degree mismatch")
        if degree > config.MAX_PERM_DEGREE:
            raise LimitError(
                f"degree {degree} exceeds {config.MAX_PERM_DEGREE}",
                bound=config.MAX_PERM_DEGREE)
        self.degree = degree
        self._gens = gens
        self._rows = [g.images for g in gens]
        self._base_hint = list(base_hint) if base_hint else []
        for b in self._base_hint:
            if not 0 <= b < degree:
                raise DomainError("base hint point out of range")
        self._chain = _chain

    @classmethod
    def _from_rows(cls, rows, degree):
        """The group generated by a read-only row sequence, trusted to
        hold permutations of degree `degree` and read as is: len(rows),
        and rows[i] and rows[lo:hi], int32 copies of just the rows asked
        for."""
        G = cls([], degree=degree)
        G._rows, G._gens = rows, None
        return G

    @property
    def generators(self):
        """The input generators as Permutations, for a group made from a
        row sequence built on first read."""
        if self._gens is None:
            self._gens = [Permutation(self._rows[i], _checked=True)
                          for i in range(len(self._rows))]
        return self._gens

    # -- chain ----------------------------------------------------------

    def _build(self):
        if self._chain is not None:
            return self._chain
        ch = _Chain(self.degree)
        for b in self._base_hint:
            ch.add_level(b)
        # an identity input sifts to the identity and is skipped
        ch.add_inputs(self._rows)
        ch.release_caches()
        self._chain = ch
        return ch

    @property
    def order(self):
        return self._build().order()

    def contains(self, p):
        if isinstance(p, Permutation):
            if p.degree != self.degree:
                raise DomainError("degree mismatch")
            p = p.images
        elif len(p) != self.degree:
            raise DomainError("degree mismatch")
        return self._build().is_member(p)

    def __contains__(self, p):
        return self.contains(p)

    def base(self):
        return list(self._build().bases)

    def basic_orbit_sizes(self):
        return list(self._build().norbits)

    def strong_generators(self):
        ch = self._build()
        seen = set()
        out = []
        for gs in ch.genstacks:
            for i in range(0, gs.shape[0], 2):
                key = gs[i].tobytes()
                if key not in seen:
                    seen.add(key)
                    out.append(Permutation(gs[i].copy(), _checked=True))
        return out

    # -- queries ----------------------------------------------------------

    def orbit(self, pts):
        """Orbit of a point, or the union of the orbits of an array of
        points, under the input generators (sorted points); one search
        from all the points at once, the generators read a block of rows
        at a time."""
        pts = np.asarray(pts, dtype=np.int64)
        if pts.size and not (0 <= pts.min() and pts.max() < self.degree):
            raise DomainError("point out of range")
        d = self.degree
        reached = np.zeros(d, dtype=bool)
        reached[pts] = True
        frontier = np.flatnonzero(reached)
        while len(frontier):
            hit = np.zeros(d, dtype=bool)
            for lo, hi in _kernels._blocks(0, len(self._rows),
                                             _kernels._sift_row_bytes(d)):
                hit[np.asarray(self._rows[lo:hi])[:, frontier]] = True
            frontier = np.flatnonzero(hit & ~reached)
            reached |= hit
        return np.nonzero(reached)[0]

    def point_stabilizer(self, pt):
        if not 0 <= pt < self.degree:
            raise DomainError("point out of range")
        ch = self._build()
        if ch.nlevels() == 0 or ch.bases[0] == pt:
            tail = ch.tail() if ch.nlevels() else ch
            return self._wrap_tail(tail)
        re = _Chain(self.degree)
        re.add_level(pt)
        re.add_inputs([g.images for g in self.strong_generators()])
        re.release_caches()
        if re.order() != self.order:
            raise InternalError("base change produced a different order")
        orbit_len = re.norbits[0] if re.nlevels() else 1
        stab = self._wrap_tail(re.tail() if re.nlevels() else re)
        if orbit_len * stab.order != self.order:
            raise InternalError("orbit-stabilizer identity failed")
        return stab

    def _wrap_tail(self, tail):
        gens = []
        if tail.nlevels():
            gs = tail.genstacks[0]
            for i in range(0, gs.shape[0], 2):
                gens.append(Permutation(gs[i].copy(), _checked=True))
        return PermGroup(gens, degree=self.degree, _chain=tail)

    def random_stream(self, count, seed):
        """count iid uniform elements from one seeded stream, drawn one at
        a time, so that only the current one is held."""
        rng = np.random.default_rng(seed)
        ch = self._build()
        for _ in range(count):
            yield Permutation(ch.random_element(rng), _checked=True)

    def random_elements(self, count, seed):
        """random_stream's elements as a list."""
        return list(self.random_stream(count, seed))

    def element_array(self):
        """All elements as one (order, degree) int32 array of image rows,
        in the chain's deterministic order, composed block by block into
        the output; raises LimitError when it would have more than
        MAX_TABLE_CELLS cells, which bounds the listing's memory."""
        return self._build().element_array()

    def elements(self):
        """Iterator over all elements, the rows of element_array."""
        for row in self.element_array():
            yield Permutation(row, _checked=True)

    def normal_closure(self, elements):
        """The smallest subgroup containing `elements` that every generator
        of this group normalizes.  Each element that joins the chain has
        its conjugates by the generators sifted in turn; the subgroup only
        grows, so once every joined element has been conjugated, each
        generator maps the subgroup into itself, and in a finite group onto
        itself."""
        ch = _Chain(self.degree)
        conj = [(_kernels.invert(g.images), g.images)
                for g in self.generators]
        pending = [e.images for e in elements]
        added = []
        while pending:
            h = pending.pop()
            if ch.add_input_generator(h):
                added.append(h)
                pending += [_kernels.compose(_kernels.compose(gi, h), g)
                            for gi, g in conj]
        ch.release_caches()
        return PermGroup([Permutation(a, _checked=True) for a in added],
                         degree=self.degree, _chain=ch)

    def derived_subgroup(self):
        """Commutator subgroup: the normal closure of the pairwise
        generator commutators."""
        gens = self.generators
        return self.normal_closure(
            [a.inverse() * b.inverse() * a * b
             for i, a in enumerate(gens) for b in gens[i + 1:]])

    def __repr__(self):
        built = "built" if self._chain is not None else "lazy"
        return (f"PermGroup(degree={self.degree}, "
                f"ngens={len(self._rows)}, {built})")

