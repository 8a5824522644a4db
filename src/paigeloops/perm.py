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
extend without relabeling existing points (so per-generator sweep cursors
stay valid and each Schreier generator is sifted exactly once), and a tree
that grows too deep is rebuilt fresh at the cost of resetting that level's
cursors.  Base points: level 0 uses the least point moved by any input
generator (or a caller-forced point for stabilizer base changes); each
deeper level uses the least point moved by the residue that created it.
"""

import numpy as np

from . import _kernels_py as _kernels
from . import config
from .errors import DomainError, InternalError, LimitError

_DEPTH_LIMIT = 20
_UINV_LEVEL_CAP = 220_000_000    # transversal-cache cells for one level
_UINV_TOTAL_CAP = 340_000_000    # cells across all levels of one chain


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
        seen = np.zeros(self.degree, dtype=bool)
        out = 1
        for i in range(self.degree):
            if seen[i]:
                continue
            ln = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = int(self.images[j])
                ln += 1
            out = _lcm(out, ln)
        return out

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


def _lcm(a, b):
    import math
    return a // math.gcd(a, b) * b


class _Chain:
    """Mutable stabilizer-chain state; see module docstring."""

    def __init__(self, degree):
        self.d = degree
        self.bases = []
        self.genstacks = []
        self.svs = []
        self.deps = []
        self.poss = []
        self.orbits = []
        self.norbits = []
        self.uinvs = []
        self.done = []
        self.complete = False
        self._ucells = 0

    # -- structure -----------------------------------------------------

    def nlevels(self):
        return len(self.bases)

    def add_level(self, base):
        d = self.d
        self.bases.append(int(base))
        self.genstacks.append(np.empty((0, d), dtype=np.int32))
        self.svs.append(np.full(d, -1, dtype=np.int32))
        self.deps.append(np.zeros(d, dtype=np.int32))
        self.poss.append(np.full(d, -1, dtype=np.int32))
        self.orbits.append(np.empty(d, dtype=np.int32))
        self.norbits.append(0)
        self.uinvs.append(None)
        self.done.append([])
        self._extend_orbit(self.nlevels() - 1)

    def _free_uinv(self, l):
        if self.uinvs[l] is not None:
            self._ucells -= self.uinvs[l].size
            self.uinvs[l] = None

    def _extend_orbit(self, l):
        old = self.norbits[l]
        norbit, maxdep = _kernels.orbit_update(
            self.genstacks[l], self.svs[l], self.deps[l], self.poss[l],
            self.orbits[l], self.norbits[l], self.bases[l], 0)
        rebuilt = False
        if maxdep > _DEPTH_LIMIT and self.genstacks[l].shape[0] > 2:
            norbit, maxdep = _kernels.orbit_update(
                self.genstacks[l], self.svs[l], self.deps[l], self.poss[l],
                self.orbits[l], norbit, self.bases[l], 1)
            self.done[l] = [0] * (self.genstacks[l].shape[0] // 2)
            rebuilt = True
        self.norbits[l] = norbit
        if rebuilt or norbit != old:
            self._free_uinv(l)

    def _ensure_uinv(self, l):
        if self.uinvs[l] is not None:
            return
        rows = self.norbits[l]
        cells = rows * self.d
        if rows < 2 or cells > _UINV_LEVEL_CAP:
            return
        if self._ucells + cells > _UINV_TOTAL_CAP:
            return
        u = np.empty((rows, self.d), dtype=np.int32)
        _kernels.transversal_fill(self.genstacks[l], self.svs[l],
                                  self.poss[l], self.orbits[l], rows,
                                  self.bases[l], u)
        self.uinvs[l] = u
        self._ucells += cells

    def release_caches(self):
        for l in range(self.nlevels()):
            self._free_uinv(l)

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
        self.complete = False

    def sweep_level(self, l):
        """Sweep all pending Schreier generators of level l; return the
        first nontrivial residue, or None when the level is finished."""
        for m in range(l, self.nlevels()):
            self._ensure_uinv(m)
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
        self.complete = True

    def add_input_generator(self, images):
        """Sift one input generator; extend the chain unless it is already
        a member.  Returns True if the group grew."""
        h = np.array(images, dtype=np.int32, copy=True)
        stuck = _kernels.sift_run(h, 0, self.bases, self.svs,
                                  self.genstacks, self.uinvs, self.poss)
        if stuck == self.nlevels() and _kernels.is_identity(h):
            return False
        if self.nlevels() == 0:
            moved = np.nonzero(h != np.arange(self.d, dtype=np.int32))[0]
            self.add_level(int(moved[0]))
        j = self._stuck_level(h)
        self.insert_gen(h, j)
        self.complete_build()
        return True

    # -- queries ----------------------------------------------------------

    def order(self):
        out = 1
        for n in self.norbits:
            out *= int(n)
        return out

    def is_member(self, images):
        h = np.array(images, dtype=np.int32, copy=True)
        stuck = _kernels.sift_run(h, 0, self.bases, self.svs,
                                  self.genstacks, self.uinvs, self.poss)
        return stuck == self.nlevels() and _kernels.is_identity(h)

    def transversal_elem(self, l, posi):
        """u: bases[l] -> orbit point at position posi, as an image array."""
        return _kernels._transversal_elem(l, posi, self.bases, self.svs,
                                          self.genstacks, self.uinvs,
                                          self.poss, self.orbits)

    def random_element(self, rng):
        t = None
        for l in range(self.nlevels() - 1, -1, -1):
            posi = int(rng.integers(0, self.norbits[l]))
            u = self.transversal_elem(l, posi)
            t = u if t is None else _kernels.compose(t, u)
        if t is None:
            t = np.arange(self.d, dtype=np.int32)
        return t

    def iter_elements(self):
        """All group elements, deepest-level transversal first; the order
        is deterministic.  Yields image arrays owned by the caller."""
        L = self.nlevels()
        if L == 0:
            yield np.arange(self.d, dtype=np.int32)
            return

        def rec(l, prefix):
            for posi in range(self.norbits[l]):
                u = self.transversal_elem(l, posi)
                cur = u if prefix is None else _kernels.compose(prefix, u)
                if l == 0:
                    yield cur
                else:
                    yield from rec(l - 1, cur)

        yield from rec(L - 1, None)

    def tail(self):
        """The chain for levels 1.. (the stabilizer of bases[0]); shares
        the underlying arrays.  Valid while this chain stays unmodified."""
        t = _Chain(self.d)
        t.bases = self.bases[1:]
        t.genstacks = self.genstacks[1:]
        t.svs = self.svs[1:]
        t.deps = self.deps[1:]
        t.poss = self.poss[1:]
        t.orbits = self.orbits[1:]
        t.norbits = self.norbits[1:]
        t.uinvs = [None] * len(t.bases)
        t.done = [list(x) for x in self.done[1:]]
        t.complete = True
        return t


class PermGroup:
    """Permutation group defined by generators, with a lazily built
    deterministic stabilizer chain."""

    def __init__(self, generators, degree=None, override_limits=False,
                 base_hint=None, _chain=None):
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
        if degree > config.MAX_PERM_DEGREE and not override_limits:
            raise LimitError(
                f"degree {degree} exceeds {config.MAX_PERM_DEGREE}; pass "
                "override_limits=True to force", bound=config.MAX_PERM_DEGREE)
        self.degree = degree
        self.generators = gens
        self._base_hint = list(base_hint) if base_hint else []
        for b in self._base_hint:
            if not 0 <= b < degree:
                raise DomainError("base hint point out of range")
        self._chain = _chain

    # -- chain ----------------------------------------------------------

    def _build(self):
        if self._chain is not None:
            return self._chain
        ch = _Chain(self.degree)
        nontrivial = [g for g in self.generators if not g.is_identity()]
        for b in self._base_hint:
            ch.add_level(b)
        if not ch.nlevels() and nontrivial:
            first = min(int(np.nonzero(
                g.images != np.arange(self.degree, dtype=np.int32))[0][0])
                for g in nontrivial)
            ch.add_level(first)
        for g in nontrivial:
            ch.add_input_generator(g.images)
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

    def orbit(self, pt):
        """Orbit of pt under the input generators (sorted points)."""
        if not 0 <= pt < self.degree:
            raise DomainError("point out of range")
        reached = np.zeros(self.degree, dtype=bool)
        reached[pt] = True
        frontier = np.array([pt], dtype=np.int32)
        rows = [g.images for g in self.generators]
        while len(frontier):
            nxt = []
            for row in rows:
                ys = row[frontier]
                new = ys[~reached[ys]]
                if len(new):
                    new = np.unique(new)
                    reached[new] = True
                    nxt.append(new)
            frontier = np.concatenate(nxt) if nxt else frontier[:0]
        return np.nonzero(reached)[0]

    def is_transitive(self):
        return len(self.orbit(0)) == self.degree

    def point_stabilizer(self, pt):
        if not 0 <= pt < self.degree:
            raise DomainError("point out of range")
        ch = self._build()
        if ch.nlevels() == 0 or ch.bases[0] == pt:
            tail = ch.tail() if ch.nlevels() else ch
            return self._wrap_tail(tail)
        re = _Chain(self.degree)
        re.add_level(pt)
        for g in self.strong_generators():
            re.add_input_generator(g.images)
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
        return PermGroup(gens, degree=self.degree, override_limits=True,
                         _chain=tail)

    def random_uniform(self, seed):
        """One exactly uniform element, deterministic for a given seed."""
        rng = np.random.default_rng(seed)
        return Permutation(self._build().random_element(rng), _checked=True)

    def random_elements(self, count, seed):
        """count iid uniform elements from one seeded stream."""
        rng = np.random.default_rng(seed)
        ch = self._build()
        return [Permutation(ch.random_element(rng), _checked=True)
                for _ in range(count)]

    def elements(self):
        """Iterator over all elements; intended for small groups."""
        ch = self._build()
        for arr in ch.iter_elements():
            yield Permutation(arr, _checked=True)

    def derived_subgroup(self):
        """Commutator subgroup: pairwise generator commutators closed under
        normal closure."""
        self._build()
        ch = _Chain(self.degree)
        gens = [g.images for g in self.generators]
        ginv = [_kernels.invert(g) for g in gens]
        added = []

        def feed(images):
            if ch.add_input_generator(images):
                added.append(images)
                return True
            return False

        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                c = _kernels.compose(_kernels.compose(_kernels.compose(
                    ginv[i], ginv[j]), gens[i]), gens[j])
                feed(c)
        changed = True
        while changed:
            changed = False
            for h in list(added):
                for g, gi in zip(gens, ginv):
                    c = _kernels.compose(_kernels.compose(gi, h), g)
                    if not ch.is_member(c):
                        feed(c)
                        changed = True
        ch.release_caches()
        out = PermGroup([Permutation(a, _checked=True) for a in added],
                        degree=self.degree, override_limits=True,
                        _chain=ch)
        return out

    def __repr__(self):
        built = "built" if self._chain is not None else "lazy"
        return (f"PermGroup(degree={self.degree}, "
                f"ngens={len(self.generators)}, {built})")


def bsgs_build(generators, degree=None, override_limits=False):
    """Build a PermGroup and force chain construction."""
    G = PermGroup(generators, degree=degree, override_limits=override_limits)
    G._build()
    return G
