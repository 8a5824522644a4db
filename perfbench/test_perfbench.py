"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
from worker import WORKLOADS  # noqa: E402

import paigeloops as P  # noqa: E402

# the per-layer metrics the benchmark is specified to report
SPECIFIED_PER_LAYER = [
    "kernels.sweep_gen.self_s", "kernels.sift_run.self_s",
    "kernels.invert.calls", "kernels.invert.self_s",
    "kernels.transversal_fill.self_s", "kernels.orbit_update.self_s",
    "kernels.schreier_gens", "kernels.residues", "kernels.residue_ratio",
    "kernels.paige_table.self_s",
    "perm.self_s", "perm.chains_built", "perm.strong_gens",
    "perm.point_stabilizer.s", "perm.elements.s", "perm.reduced.s",
    "autos.aut_backtrack.self_s", "autos.conjugation_autos.self_s",
    "autos.is_loop_automorphism.calls", "autos.is_loop_automorphism.self_s",
    "autos.maps_kept", "autos.kept_ratio",
    "zorn.oct_mul.calls", "zorn.oct_mul.self_s", "zorn.oct_canonical.self_s",
    "zorn.norm_one_array.self_s", "gf.field.self_s",
    "loops.paige_loop.calls", "loops.paige_loop.self_s",
    "loops.subloop_closure.calls", "loops.subloop_closure.self_s",
    "loops.check_moufang.self_s", "loops.loop_center.self_s",
    "loops.is_simple.self_s",
    "nets.bol_reflection.calls", "nets.bol_reflection.self_s",
    "nets.is_collineation.calls", "nets.is_collineation.self_s",
    "triality.build_triality.self_s",
    "triality.origin_stabilizer_automorphisms.self_s",
]


@pytest.fixture(scope="module")
def loop2():
    return P.paige_loop(2)


def test_formula_orders():
    assert ref.g2_order(2) == 12_096
    assert ref.g2_order(3) == 4_245_696
    assert ref.d4_order(2) == 174_182_400
    assert ref.d4_order(3) == 4_952_179_814_400
    assert [ref.paige_order(q) for q in (2, 3, 4)] == [120, 1080, 16320]


def test_zorn_product_is_a_composition_algebra():
    rng = np.random.default_rng(0)
    one = (1, 1, 0, 0, 0, 0, 0, 0)
    for _ in range(500):
        x = tuple(int(c) for c in rng.integers(0, 3, size=8))
        y = tuple(int(c) for c in rng.integers(0, 3, size=8))
        assert ref.zorn_mul(one, x, 3) == x == ref.zorn_mul(x, one, 3)
        assert (ref.zorn_norm(ref.zorn_mul(x, y, 3), 3)
                == ref.zorn_norm(x, 3) * ref.zorn_norm(y, 3) % 3)


def test_coset_label_picks_lex_min():
    assert ref.coset_label((2, 2, 0, 0, 0, 0, 0, 0), 3) == (1, 1, 0, 0, 0,
                                                             0, 0, 0)
    assert ref.coset_label((0, 1, 2, 0, 0, 0, 0, 0), 3) == (0, 1, 2, 0, 0,
                                                             0, 0, 0)


def test_table_matches_zorn_product_and_corrupt_cell_is_rejected(loop2):
    elems = ref.parse_labels(loop2.labels)
    assert ref.check_labels(elems, 2) == []
    rows, cols = np.divmod(np.arange(loop2.n ** 2), loop2.n)
    assert ref.zorn_cell_mismatches(loop2.table, elems, 2, rows, cols) == []

    bad = loop2.table.copy()
    bad[5, 7] = (bad[5, 7] + 1) % loop2.n
    assert ref.zorn_cell_mismatches(bad, elems, 2, rows, cols) == [(5, 7)]


def test_labels_off_the_norm_one_quadric_are_rejected():
    elems = [(1, 1, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0)]
    assert ref.check_labels(elems, 3)
    assert ref.check_labels([(1, 1, 0, 0, 0, 0, 0, 0)] * 2, 3)


def test_non_automorphisms_are_rejected(loop2):
    n = loop2.n
    ident = np.arange(n)
    swapped = ident.copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    assert ref.preserves_table(loop2.table, ident)
    assert not ref.preserves_table(loop2.table, swapped)
    assert not ref.preserves_table(loop2.table, np.zeros(n, dtype=int))
    assert ref.maps_preserving_table(loop2.table, [ident, swapped]) == 1


def test_program_automorphisms_pass_the_own_check(loop2):
    gens = [g.images for g in P.conjugation_autos(P.field(2)).generators]
    assert ref.maps_preserving_table(loop2.table, gens, chunk=3) == len(gens)


def test_closure_count():
    s3 = [np.array([1, 0, 2]), np.array([1, 2, 0])]
    assert ref.closure_count(s3, cap=10) == 6
    assert ref.closure_count(s3, cap=4) == 5


def test_moufang_and_center_references(loop2):
    assert ref.moufang_violation(P.bundled_loop5().table) is not None
    assert ref.moufang_violation(loop2.table) is None
    assert ref.central_candidates(loop2.table) == []
    z2 = np.array([[0, 1], [1, 0]])
    assert ref.central_candidates(z2) == [1]


def test_per_layer_names_match_specification_and_benchmark_json():
    names = [name for name, _, _ in tracing.PER_LAYER]
    assert names == SPECIFIED_PER_LAYER
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == tracing.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)


def test_tracer_self_time_and_counters():
    tr = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    inner_w = tr.wrap("x.inner", inner)

    def outer():
        time.sleep(0.01)
        inner_w()
        inner_w()

    tr.wrap("x.outer", outer)()
    calls, incl, self_s = tr.stats["x.outer"]
    assert calls == 1 and tr.stats["x.inner"][0] == 2
    assert incl == pytest.approx(self_s + tr.stats["x.inner"][1])

    tr._after_sweep_gen((0, 0, 5), (9, None))      # 4 sifted, no residue
    tr._after_sweep_gen((0, 0, 9), (12, object()))  # 4 sifted, 1 residue
    layer = tr.per_layer()
    assert set(layer) == set(SPECIFIED_PER_LAYER)
    assert layer["kernels.schreier_gens"] == 8
    assert layer["kernels.residue_ratio"] == pytest.approx(1 / 8)


INSTALL_PROBE = """
import json, paigeloops as P, tracing
tr = tracing.Tracer()
tracing.install(tr)
L = P.paige_loop(2)
P.multiplication_group(L).order
P.conjugation_autos(P.field(2))
print(json.dumps(tr.per_layer()))
"""


def test_install_reaches_calls_through_imported_names():
    # in a fresh process: install() rewires the package for good
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(HERE.parent / "src"), str(HERE)]))
    proc = subprocess.run([sys.executable, "-c", INSTALL_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    layer = json.loads(proc.stdout.strip().splitlines()[-1])
    # once directly, once as autos.paige_loop inside conjugation_autos
    assert layer["loops.paige_loop.calls"] == 2
    # two products per unit; GF(2) octonions have 120 units, 120 maps
    assert layer["zorn.oct_mul.calls"] == 2 * 120
    assert layer["autos.is_loop_automorphism.calls"] == 120
    # Mlt, the conjugation group, and its regeneration in reduced()
    assert layer["perm.chains_built"] == 3
    assert layer["kernels.schreier_gens"] > 0
    assert layer["kernels.paige_table.self_s"] > 0
    assert layer["perm.reduced.s"] > 0


def test_generator_spans_exclude_the_consumer():
    tr = tracing.Tracer()

    def gen():
        for i in range(3):
            time.sleep(0.005)
            yield i

    out = []
    for v in tr.wrap_generator("x.gen", gen)():
        time.sleep(0.02)
        out.append(v)
    assert out == [0, 1, 2]
    assert tr.stats["x.gen"][1] < 0.05
