"""Size bounds.

Everything here is exact computation, so the only thing stopping a user from
asking for M*(9) is time and memory; these bounds make the failure mode an
explicit LimitError instead of an OOM kill.  PAIGE_MAX_Q in the environment
overrides the loop-construction bound.
"""

import os

# Largest q for which fields are constructed at all (octonion-only work).
FIELD_MAX_Q = 25

# Largest q for norm-one enumeration / two-unit decomposition (q^8 scan).
NORM_ONE_MAX_Q = 9

# Default largest q for Paige loop construction. M*(8) has ~2.1e6 elements
# and is already index-only territory; M*(9) is beyond desk scale.
DEFAULT_LOOP_MAX_Q = 8

# Cayley tables above this many cells need override_limits (q=4 fits, q=5 not).
MAX_TABLE_CELLS = 300_000_000

# Permutation actions above this degree, and nets with more points than this,
# need override_limits (the q=3 net has 1_166_400 points and is out of default
# scope).
MAX_PERM_DEGREE = 100_000

# Full n^3 triple sweeps (Moufang / associativity) above this need sampling.
MAX_FULL_TRIPLES = 1_000_000_000

# largest loop aut_backtrack will search exhaustively
MAX_AUT_BACKTRACK_N = 200


def loop_max_q():
    raw = os.environ.get("PAIGE_MAX_Q")
    if raw is None:
        return DEFAULT_LOOP_MAX_Q
    try:
        return int(raw)
    except ValueError:
        return DEFAULT_LOOP_MAX_Q
