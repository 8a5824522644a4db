"""The 3-net of a loop, Bol reflections and collineation testing.

Points of the net of a loop of order n are the pairs (i, j), indexed
i*n + j.  Lines come in three classes:

  class 1, value c: {(c, y) : y}        (fixed first coordinate)
  class 2, value c: {(x, c) : x}        (fixed second coordinate)
  class 3, value c: {(x, y) : x*y = c}  (fixed product)

Line id = (class - 1)*n + value.

bol_reflection and is_collineation gather from the loop's tables in
their own dtype (int16 up to n = 32,767), and widen to int32 only where
a point id i*n + j is formed: at q = 3 the ids pass 32,767.  Neither
copies a table.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .loops import FiniteLoop
from .perm import Permutation


@dataclass(frozen=True)
class LineRef:
    cls: int      # 1, 2 or 3
    value: int


@dataclass(frozen=True)
class CollineationVerdict:
    ok: bool
    # class i maps to direction_action[i-1]
    direction_action: tuple | None
    # per class, array mapping line value -> image line value
    value_maps: tuple | None
    failing_line: LineRef | None

    def __bool__(self):
        return self.ok

    @property
    def direction_preserving(self):
        return self.ok and self.direction_action == (1, 2, 3)


class Net3:
    """The 3-net of a finite loop."""

    def __init__(self, loop):
        if not isinstance(loop, FiniteLoop):
            raise DomainError("net_from_loop needs a FiniteLoop")
        self.loop = loop
        self.n = loop.n
        self.num_points = loop.n * loop.n
        self.num_lines = 3 * loop.n

    def point(self, i, j):
        return i * self.n + j

    def point_coords(self, p):
        return divmod(int(p), self.n)

    def point_lines(self, p):
        """The three lines through a point, one per class."""
        i, j = self.point_coords(p)
        return (LineRef(1, i), LineRef(2, j),
                LineRef(3, int(self.loop.table[i, j])))

    def line_points(self, line):
        """Sorted point indices of a line."""
        n = self.n
        c = line.value
        if not 0 <= c < n:
            raise DomainError("line value out of range")
        ar = np.arange(n, dtype=np.int64)
        if line.cls == 1:
            return c * n + ar
        if line.cls == 2:
            return ar * n + c
        if line.cls == 3:
            # (x, x \ c) over all x
            return np.sort(ar * n +
                           self.loop.ldiv_table[:, c].astype(np.int64))
        raise DomainError("line class must be 1, 2 or 3")

    def lines(self):
        for cls in (1, 2, 3):
            for c in range(self.n):
                yield LineRef(cls, c)

    def __repr__(self):
        return f"Net3(n={self.n})"


def net_from_loop(L):
    return Net3(L)


def bol_reflection(net, axis):
    """The Bol reflection with the given axis line: each point P is sent to
    the far corner of the little quadrilateral spanned by the two non-axis
    lines through P and their intersections with the axis.  Always a
    permutation, always an involution, fixes the axis pointwise."""
    L = net.loop
    n = net.n
    c = axis.value
    if not 0 <= c < n:
        raise DomainError("axis value out of range")
    T, LD, RD = L.table, L.ldiv_table, L.rdiv_table
    X, Y = np.divmod(np.arange(n * n, dtype=np.int32), n)
    if axis.cls == 1:
        # (x, y) -> ((c y) / (c \ (x y)), c \ (x y))
        yp = LD[c, T[X, Y]]
        xp = RD[yp, T[c, Y]]
    elif axis.cls == 2:
        # (x, y) -> ((x y) / c, ((x y) / c) \ (x c))
        xp = RD[c, T[X, Y]]
        yp = LD[xp, T[X, c]]
    elif axis.cls == 3:
        # (x, y) -> (c / y, x \ c)
        xp = RD[Y, c]
        yp = LD[X, c]
    else:
        raise DomainError("axis class must be 1, 2 or 3")
    # int32 before the multiply: x * n overflows int16 once n > 181
    return Permutation(xp.astype(np.int32) * n + yp, _checked=True)


def all_bol_reflections(net):
    """The 3n Bol reflections in line order (class 1 values, class 2,
    class 3)."""
    return [bol_reflection(net, line) for line in net.lines()]


def is_collineation(net, p):
    """Does p map lines to lines?  On success reports the induced
    permutation of the three line classes and the per-class value maps."""
    n = net.n
    if isinstance(p, Permutation):
        s = p.images
    else:
        s = np.asarray(p, dtype=np.int32)
    if len(s) != n * n:
        raise DomainError(f"degree {len(s)} does not match {n * n} points")
    if n == 1:
        z = np.zeros(1, dtype=np.int64)
        return CollineationVerdict(True, (1, 2, 3), (z, z, z), None)
    T, LD = net.loop.table, net.loop.ldiv_table
    ar = np.arange(n, dtype=np.int32)
    # row c of each matrix = images of the points of line (cls, c)
    mats = (
        s.reshape(n, n),                      # class 1
        s.reshape(n, n).T,                    # class 2
        s[(ar * n)[None, :] + LD.T],          # class 3: row c -> (x, x\c)
    )
    # a point's id x n + y is its cell in the flat table, so the image
    # line values per class are id // n, id % n and T.ravel()[id]
    values = (lambda M: M // n, lambda M: M % n, T.ravel().take)
    action = []
    vmaps = []
    for cls, M in zip((1, 2, 3), mats):
        # the classes are tried in turn until one holds every line
        same = []
        for a, value in enumerate(values, 1):
            V = value(M)
            same.append((V == V[:, :1]).all(axis=1))
            if same[-1].all():
                action.append(a)
                vmap = V[:, 0]
                break
        else:
            bad = np.nonzero(~np.logical_or.reduce(same))[0]
            line = LineRef(cls, int(bad[0])) if len(bad) else LineRef(cls, 0)
            return CollineationVerdict(False, None, None, line)
        onto = np.zeros(n, dtype=bool)
        onto[vmap] = True
        if not onto.all():
            return CollineationVerdict(False, None, None, LineRef(cls, -1))
        vmaps.append(vmap.astype(np.int64))
    if sorted(action) != [1, 2, 3]:
        return CollineationVerdict(False, None, None, None)
    return CollineationVerdict(True, tuple(action), tuple(vmaps), None)


def line_image(verdict, line):
    """gamma(line) for a verified collineation verdict."""
    if not verdict.ok:
        raise DomainError("not a collineation")
    return LineRef(verdict.direction_action[line.cls - 1],
                   int(verdict.value_maps[line.cls - 1][line.value]))
