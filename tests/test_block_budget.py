"""One block budget: every bulk step takes its rows from
_kernels_py._blocks, so a budget of one byte, one row a block
everywhere, must give the answers of the default budget."""

import hashlib

import numpy as np
import pytest

from paigeloops import (NotLatinError, _kernels_py, aut_backtrack,
                        check_composition, check_moufang, conjugation_autos,
                        field, loop_center, multiplication_group,
                        origin_stabilizer_automorphisms, paige_loop,
                        paige_representatives)
from paigeloops.loops import FiniteLoop, _build_table, _check_latin
from paigeloops.nets import net_from_loop
from paigeloops.triality import build_triality


def _answers(loop5):
    """Every bulk step's answer, as plain values and digests."""
    out = {}
    for q in (2, 3):
        T = _build_table(field(q), paige_representatives(q))
        out[f"M*({q}) table"] = hashlib.sha256(T.tobytes()).hexdigest()
    M3 = paige_loop(3)
    T = M3.table.copy()
    _check_latin(T)
    T[5, [7, 9]] = T[5, [9, 7]]    # row 5 stays a permutation
    with pytest.raises(NotLatinError, match="column"):
        _check_latin(T)
    fresh = FiniteLoop(M3.table, _validated=True)
    out["divisions"] = hashlib.sha256(
        fresh.ldiv_table.tobytes() + fresh.rdiv_table.tobytes()).hexdigest()
    out["center"] = loop_center(M3).tolist()
    M2 = paige_loop(2)
    out["moufang"] = [check_moufang(L, mode="sample", n_samples=2_000,
                                    seed=3) for L in (M2, loop5)]
    out["composition"] = check_composition(field(3), mode="sample",
                                           n_samples=2_000, seed=3)
    A = aut_backtrack(M2)
    out["search"] = (A.order, [p.images.tobytes() for p in A.generators])
    out["conjugation"] = [p.images.tobytes()
                          for p in conjugation_autos(field(2)).generators]
    ch = multiplication_group(M2)._build()
    h = hashlib.sha256(np.array(ch.bases, dtype=np.int64).tobytes())
    for orbit, n in zip(ch.orbits, ch.norbits):
        h.update(orbit[:n].tobytes())
    for gs in ch.genstacks:
        h.update(gs.tobytes())
    out["Mlt(M*(2)) chain"] = h.hexdigest()
    sc = origin_stabilizer_automorphisms(build_triality(net_from_loop(M2)))
    out["stabilizer listing"] = hashlib.sha256(sc.alphas.tobytes()).hexdigest()
    return out


def test_one_byte_budget_gives_the_default_answers(monkeypatch, loop5):
    want = _answers(loop5)
    assert not want["moufang"][1] and want["moufang"][0]
    assert want["search"][0] == 12_096 and want["center"] == [0]
    rows = []
    blocks = _kernels_py._blocks

    def counted(lo, hi, row_bytes):
        for a, b in blocks(lo, hi, row_bytes):
            rows.append(b - a)
            yield a, b

    monkeypatch.setattr(_kernels_py, "_blocks", counted)
    monkeypatch.setattr(_kernels_py, "_BLOCK_BYTES", 1)
    assert _answers(loop5) == want
    assert rows and set(rows) == {1}
