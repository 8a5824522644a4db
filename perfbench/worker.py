"""One round of one workload, in the fresh process run.py starts for it.

    python3 perfbench/worker.py --workload NAME --seed N --round K \
        --trace 0|1 --t0 T [--setup-only]

T is the parent's time.perf_counter() taken just before it started this
process; perf_counter reads the system-wide monotonic clock, so setup_s
covers interpreter start, the package import, the field tables, the
norm-one enumeration and the Cayley table fill.  The last line of standard
output is one JSON object with the round's figures and the problems the
checks found.
"""

import argparse
import json
import resource
import time

import numpy as np

import reference as ref

ZORN_CELLS = 20_000          # table cells recomputed with the Zorn product
MOUFANG_SAMPLES = 1_000_000  # triples for the program's sampled check
OWN_MOUFANG_SAMPLES = 200_000


class Ops:
    """Times the program calls of one round; a call that raises counts as
    failed and ends the round."""

    def __init__(self, names):
        self.names = names
        self.elapsed = 0.0
        self.done = 0
        self.error = None

    def run(self, fn):
        t0 = time.perf_counter()
        try:
            return fn()
        except Exception as e:  # any raise is a failed operation
            self.error = f"{self.names[self.done]}: {type(e).__name__}: {e}"
            raise
        finally:
            self.elapsed += time.perf_counter() - t0
            if self.error is None:
                self.done += 1

    @property
    def failed(self):
        return len(self.names) - self.done


# -- workloads ----------------------------------------------------------------
#
# Each solve function makes the program calls through ops.run and returns
# what the checks need; each check function returns a list of problems.


def solve_stabilizer(P, L, ops, rng):
    T = ops.run(lambda: P.build_triality(P.net_from_loop(L)))
    S = ops.run(lambda: P.origin_stabilizer_automorphisms(T))
    gamma = ops.run(lambda: T.gamma.order)
    return {"maps": S.alphas,
            "gens": [g.images for g in S.group.generators],
            "count": S.count, "group_order": S.group.order,
            "gamma_order": gamma}


def check_stabilizer(L, out, rng):
    q = 2
    want = ref.g2_order(q)
    problems = []
    if out["count"] != want or out["group_order"] != want:
        problems.append(f"{out['count']} maps, group order "
                        f"{out['group_order']}, expected |G2({q})| = {want}")
    if out["gamma_order"] != ref.d4_order(q):
        problems.append(f"|Gamma| = {out['gamma_order']}, expected "
                        f"|D4({q})| = {ref.d4_order(q)}")
    maps = out["maps"]
    if len(np.unique(maps, axis=0)) != len(maps):
        problems.append("the stabilizer returned a map twice")
    kept = ref.maps_preserving_table(L.table, maps)
    if kept != len(maps):
        problems.append(f"{len(maps) - kept} returned maps break the table")
    problems += _closure_problems(out["gens"], want)
    return problems


def solve_backtrack(P, L, ops, rng):
    G = ops.run(lambda: P.aut_backtrack(L))
    return {"gens": [g.images for g in G.generators], "order": G.order}


def check_backtrack(L, out, rng):
    want = ref.g2_order(2)
    problems = []
    if out["order"] != want:
        problems.append(f"|Aut| = {out['order']}, expected {want}")
    kept = ref.maps_preserving_table(L.table, out["gens"])
    if kept != len(out["gens"]):
        problems.append("a returned generator breaks the table")
    problems += _closure_problems(out["gens"], want)
    return problems


def solve_battery(P, L, ops, rng):
    moufang_seed = int(rng.integers(2**32))
    verdict = ops.run(lambda: P.check_moufang(
        L, mode="sample", n_samples=MOUFANG_SAMPLES, seed=moufang_seed))
    center = ops.run(lambda: P.loop_center(L))

    def mlt_order():
        M = P.multiplication_group(L)
        return M, M.order

    mlt, mlt_ord = ops.run(mlt_order)
    simple = ops.run(lambda: P.is_simple(L, mlt=mlt))
    A = ops.run(lambda: P.conjugation_autos(P.field(3)))
    return {"moufang": verdict.passed, "triples": verdict.triples_checked,
            "center": [int(x) for x in center], "mlt_order": mlt_ord,
            "simple": simple.simple, "order": A.order,
            "gens": [g.images for g in A.generators]}


def check_battery(L, out, rng):
    q = 3
    problems = []
    if not out["moufang"] or out["triples"] != 4 * MOUFANG_SAMPLES:
        problems.append("the sampled Moufang check did not pass in full")
    T = L.table.astype(np.int64)
    x, y, z = (rng.integers(0, L.n, size=OWN_MOUFANG_SAMPLES)
               for _ in range(3))
    if (T[T[T[x, y], x], z] != T[x, T[y, T[x, z]]]).any():
        problems.append("((xy)x)z = x(y(xz)) fails on a sampled triple")
    if out["center"] != [0] or ref.central_candidates(L.table):
        problems.append(f"center {out['center']}, expected the identity alone")
    if out["mlt_order"] != ref.d4_order(q):
        problems.append(f"|Mlt| = {out['mlt_order']}, expected "
                        f"|D4({q})| = {ref.d4_order(q)}")
    if not out["simple"]:
        problems.append("M*(3) reported not simple")
    if out["order"] != ref.g2_order(q):
        problems.append(f"conjugation group order {out['order']}, expected "
                        f"|G2({q})| = {ref.g2_order(q)}")
    kept = ref.maps_preserving_table(L.table, out["gens"])
    if kept != len(out["gens"]):
        problems.append("a returned generator breaks the table")
    return problems


def _closure_problems(gens, want):
    got = ref.closure_count(gens, cap=want)
    if got != want:
        return [f"closure of the returned generators has {got} elements, "
                f"expected {want}"]
    return []


WORKLOADS = {
    "aut-stabilizer-q2": (2, ("build_triality",
                              "origin_stabilizer_automorphisms",
                              "gamma_order"),
                          solve_stabilizer, check_stabilizer),
    "battery-q3": (3, ("check_moufang", "loop_center", "mlt_order",
                       "is_simple", "conjugation_autos"),
                   solve_battery, check_battery),
    "aut-backtrack-q2": (2, ("aut_backtrack",),
                         solve_backtrack, check_backtrack),
}


# -- checks every workload shares ---------------------------------------------


def check_loop(L, q, rng):
    """The input loop against the formulas and the benchmark's own Zorn
    product on a sample of cells."""
    problems = []
    if L.n != ref.paige_order(q):
        problems.append(f"|M*({q})| = {L.n}, expected {ref.paige_order(q)}")
    elems = ref.parse_labels(L.labels)
    problems += ref.check_labels(elems, q)
    rows, cols = ref.sample_cells(L.n, ZORN_CELLS, rng)
    bad = ref.zorn_cell_mismatches(L.table, elems, q, rows, cols)
    if bad:
        problems.append(f"{len(bad)} sampled cells disagree with the Zorn "
                        f"product, first {bad[0]}")
    return problems


def negative_controls(P, L, out, q, rng):
    """Show the checks can fail: each of these must be rejected."""
    problems = []
    loop5 = P.bundled_loop5()
    if P.check_moufang(loop5).passed:
        problems.append("control: bundled_loop5 passed the Moufang check")
    if ref.moufang_violation(loop5.table) is None:
        problems.append("control: bundled_loop5 passed the own Moufang check")

    phi = np.array(out["gens"][0], dtype=np.int64)
    i, j = rng.choice(np.arange(1, L.n), size=2, replace=False)
    phi[[i, j]] = phi[[j, i]]
    if ref.preserves_table(L.table, phi):
        problems.append("control: a map with two images swapped passed")

    elems = ref.parse_labels(L.labels)
    bad_table = L.table.copy()
    r, c = (int(v) for v in rng.integers(1, L.n, size=2))
    bad_table[r, c] = (bad_table[r, c] + 1) % L.n
    if not ref.zorn_cell_mismatches(bad_table, elems, q,
                                    np.array([r]), np.array([c])):
        problems.append("control: a corrupted table cell passed")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    q, names, solve, check = WORKLOADS[args.workload]

    import paigeloops as P
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    L = P.paige_loop(q)
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    rng = np.random.default_rng([args.seed, args.round])
    ops = Ops(names)
    try:
        out = solve(P, L, ops, rng)
    except Exception:
        if ops.error is None:   # a fault of the benchmark, not the program
            raise
        out = None              # a failed operation ends the round
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the checks below call the program too; keep them out of the trace
    per_layer = tracer.per_layer() if tracer else None
    spans = tracer.spans() if tracer else None

    problems = check_loop(L, q, rng)
    if out is not None:
        problems += check(L, out, rng)
        problems += negative_controls(P, L, out, q, rng)
    print(json.dumps({
        "backend": P.kernel_backend(),
        "setup_s": setup_s,
        "solve_s": ops.elapsed,
        "peak_rss_mib": peak_rss_mib,
        "attempted": len(names),
        "failed": ops.failed,
        "error": ops.error,
        "problems": problems,
        "per_layer": per_layer,
        "spans": spans,
    }))


if __name__ == "__main__":
    main()
