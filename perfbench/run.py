"""The paigeloops benchmark: time to a verified answer on M*(q).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from its
`src/` directory.  Each round is one fresh worker process that builds the
input loop, makes the workload's program calls one at a time (one caller,
closed loop) and checks every answer against perfbench/reference.py.
Rounds repeat until S seconds have passed, at least one.  setup_s is the
median over the rounds and extra set-up-only processes, at least
SETUP_SAMPLES in all.

With --trace 0 the last line of standard output is the JSON result with the
end-to-end metrics; with --trace 1 the public functions of every layer are
wrapped (see tracing.py) and the result carries the per-layer metrics.
The lines before it give the kernel backend and the figures per round, and
the full record is written to perfbench/out/.  The exit code is 0 only when
every round ran to its end.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7
DEADLINE_S = 175        # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def spawn(args, deadline):
    """Run worker.py with args; return its JSON result line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    budget = deadline - time.perf_counter()
    if budget <= 0:
        raise BenchError("out of time before the next round")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)],
            env=env, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        raise BenchError("a worker ran past the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    deadline = time.perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(spawn(base + ["--round", str(len(rounds))], deadline))
    setups = [r["setup_s"] for r in rounds]
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            extra = spawn(base + ["--round", str(len(setups)),
                                  "--setup-only"], deadline)
            setups.append(extra["setup_s"])
    return rounds, setups


def summarize(workload, seed, trace, rounds, setups):
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = [p for r in rounds for p in r["problems"]]
    errors = [r["error"] for r in rounds if r["error"]]
    med = statistics.median
    if trace:
        metrics = {name: {"value": med(r["per_layer"][name] for r in rounds),
                          "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": med(setups), "unit": "s"},
            "solve_s": {"value": med(r["solve_s"] for r in rounds),
                        "unit": "s"},
            "peak_rss_mib": {"value": med(r["peak_rss_mib"] for r in rounds),
                             "unit": "MiB"},
        }
    lines = [f"workload {workload}  seed {seed}  trace {trace}  "
             f"backend {rounds[0]['backend']}  rounds {len(rounds)}"]
    for i, r in enumerate(rounds):
        lines.append(f"  round {i}: setup_s {r['setup_s']:.4f}  "
                     f"solve_s {r['solve_s']:.4f}  "
                     f"peak_rss_mib {r['peak_rss_mib']:.1f}")
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']} {m['unit']}")
    lines.append(f"attempted {attempted}  failed {failed}")
    lines += [f"failed operation: {e}" for e in errors]
    lines += [f"check failed: {p}" for p in problems]
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "paigeloops" / "__init__.py").is_file():
        sys.exit(f"run.py: no paigeloops sources under {SRC}")
    if args.seconds < 1:
        sys.exit("run.py: --seconds must be at least 1")

    try:
        rounds, setups = measure(args.workload, args.seed, args.seconds,
                                 args.trace)
    except BenchError as e:
        sys.exit(f"run.py: {e}")
    lines, result = summarize(args.workload, args.seed, args.trace, rounds,
                              setups)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "setup_samples": setups,
                                  "rounds": rounds, "result": result},
                                 indent=1))
    print("\n".join(lines))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
