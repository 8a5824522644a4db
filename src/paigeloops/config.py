"""Size bounds.

Everything here is exact computation, so the only thing stopping a user from
asking for M*(9) is time and memory; these bounds make the failure mode an
explicit LimitError instead of an OOM kill.  Each bounds the allocation or
the scan it names, not the q it is asked at.
"""

# Largest q for which fields are constructed at all (octonion-only work).
FIELD_MAX_Q = 25

# Largest q for norm-one enumeration / two-unit decomposition (q^8 scan).
NORM_ONE_MAX_Q = 9

# Largest table, in cells: an n x n Cayley or division table of a loop
# (q=4 fits, q=5 not), built or loaded from a file, a group listing of
# order x degree cells, a chain's transversal cache of (sum of basic
# orbits) x degree cells (84.6 M at Aut(M*(4)), 161 MiB).  Tables and
# caches hold a point in int16 up to 32,767 points and in int32 above.
# It also caps the samples of a sampled check, at 3 cells a Moufang
# triple and 16 an octonion pair: their draws are streamed a block at a
# time, so this bounds the check's time, not its memory.
MAX_TABLE_CELLS = 300_000_000

# Largest permutation degree, and most points in a net that build_triality
# takes.  The q=3 net has 1_166_400 points, and one Bol reflection check on
# it peaks at about 30 MiB of numpy arrays; the q=4 net has 266_342_400.
MAX_PERM_DEGREE = 10_000_000

# Largest loop order that is_simple takes, a cap on the time to build the
# multiplication group; `report all` leaves out `mlt order` and `net bol`
# past it too, where they would take minutes.
MAX_MLT_LOOP_ORDER = 2000

# Full n^3 triple sweeps (Moufang / associativity) above this need sampling.
MAX_FULL_TRIPLES = 1_000_000_000
