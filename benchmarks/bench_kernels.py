"""Compare the compiled permutation kernels against the pure-numpy
fallback on the operations that dominate real workloads.

Run from a checkout with the package installed:

    python benchmarks/bench_kernels.py [--quick]

Both backends are imported directly, so the comparison is in-process and
unaffected by PAIGELOOPS_BACKEND.  If the compiled extension is missing,
only the fallback column is reported.
"""

import argparse
import time

import numpy as np

from paigeloops import _kernels_py, kernel_backend
from paigeloops.autos import conjugation_autos
from paigeloops.gf import field
from paigeloops.loops import (_rep_address, multiplication_group,
                              paige_loop, paige_representatives)

try:
    from paigeloops import _kernels
except ImportError:
    _kernels = None


def _best_of(repeat, fn):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _random_perms(rng, count, degree):
    return [rng.permutation(degree).astype(np.int32) for _ in range(count)]


def bench_micro(kern, rng, degree, count, repeat):
    ps = _random_perms(rng, count, degree)
    qs = _random_perms(rng, count, degree)
    out = np.empty(degree, dtype=np.int32)

    def run_compose():
        for p, q in zip(ps, qs):
            kern.compose(p, q)

    def run_invert():
        for p in ps:
            kern.invert(p)

    def run_into():
        for p, q in zip(ps, qs):
            kern.compose_into(p, q, out)

    return {
        f"compose      deg {degree:>5} x{count}": _best_of(repeat, run_compose),
        f"invert       deg {degree:>5} x{count}": _best_of(repeat, run_invert),
        f"compose_into deg {degree:>5} x{count}": _best_of(repeat, run_into),
    }


def bench_paige_table(kern, q, repeat):
    F = field(q)
    reps = np.ascontiguousarray(paige_representatives(q), dtype=np.int16)
    n = len(reps)
    addr = np.full(F.q ** 8, -1, dtype=np.int32)
    addr[_rep_address(F.q, reps)] = np.arange(n, dtype=np.int32)
    out = np.empty((n, n), dtype=np.int16)

    def run():
        rc = kern.paige_table(reps, F.mul_table, F.add_table, F.sub_table,
                              F.neg_table, addr, out, 1 if F.p != 2 else 0)
        assert rc == 0

    return {f"paige_table  q = {q} ({n} elements)": _best_of(repeat, run)}


def bench_bsgs(kern, q, order, repeat):
    L = paige_loop(q)

    def run():
        G = multiplication_group(L, kernels=kern)
        assert G.order == order

    return {f"bsgs Mlt(M*({q})) deg {L.n}": _best_of(repeat, run)}


def bench_conjugation(repeat):
    """The conjugation route at q = 3 with M*(3) already built and held,
    so the shared loop is reused and only the unit scan is timed."""
    F = field(3)
    L = paige_loop(3)   # held, so conjugation_autos(F) reuses it

    def run():
        assert conjugation_autos(F).order == 4_245_696

    return {"conjugation_autos q = 3 (loop held)": _best_of(repeat, run)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller batches, single repeat")
    ap.add_argument("--repeat", type=int, default=3,
                    help="repeats per measurement, best is kept")
    args = ap.parse_args()
    repeat = 1 if args.quick else args.repeat
    scale = 10 if args.quick else 1

    backends = [("py", _kernels_py)]
    if _kernels is not None:
        backends.append(("c", _kernels))
    else:
        print("compiled extension not available; timing the fallback only")

    results = {}
    for name, kern in backends:
        rng = np.random.default_rng(0)
        rows = {}
        for degree, count in ((120, 20000 // scale),
                              (1000, 5000 // scale),
                              (14400, 500 // scale)):
            rows.update(bench_micro(kern, rng, degree, count, repeat))
        rows.update(bench_paige_table(kern, 3, repeat))
        rows.update(bench_bsgs(kern, 2, 174_182_400, repeat))
        if not args.quick:
            rows.update(bench_bsgs(kern, 3, 4_952_179_814_400, repeat))
        results[name] = rows
    # the route calls the active backend only, so it gets one column
    conj = bench_conjugation(repeat)

    labels = list(results[backends[0][0]])
    width = max(len(s) for s in labels + list(conj))
    if _kernels is not None:
        print(f"{'workload':<{width}}  {'py (s)':>10}  {'c (s)':>10}  speedup")
        for lab in labels:
            tp = results["py"][lab]
            tc = results["c"][lab]
            print(f"{lab:<{width}}  {tp:>10.4f}  {tc:>10.4f}  "
                  f"{tp / tc:>6.1f}x")
    else:
        print(f"{'workload':<{width}}  {'py (s)':>10}")
        for lab in labels:
            print(f"{lab:<{width}}  {results['py'][lab]:>10.4f}")
    for lab, t in conj.items():
        print(f"{lab:<{width}}  {t:>10.4f}  (backend {kernel_backend()})")


if __name__ == "__main__":
    main()
