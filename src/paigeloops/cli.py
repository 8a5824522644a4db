"""Command-line driver.

Every verb calls one library operation and formats its outcome; no
computation happens here.  Exit codes: 0 all checks passed, 1 a check
found a mathematical counterexample, 2 usage error (including unreadable
or corrupt table files), 3 a size limit in config was hit.  No limit
can be lifted from here.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass

from . import config
from .autos import aut_backtrack, aut_summary, conjugation_autos
from .errors import DomainError, InternalError, LimitError, \
    MalformedTableError, NotMoufangNetError
from .gf import field
from .loops import (
    check_moufang,
    is_simple,
    load_tbl,
    loop_center,
    multiplication_group,
    paige_loop,
    paige_order_formula,
    save_tbl,
)
from .nets import bol_reflection, is_collineation, net_from_loop
from .triality import (
    build_triality,
    origin_stabilizer_automorphisms,
    verify_triality_axioms,
)
from .zorn import check_composition, check_two_unit_decomposition

__all__ = ["RunConfig", "main", "run", "write_report"]


@dataclass(frozen=True)
class RunConfig:
    """Validated flags for one invocation."""

    command: tuple
    q: int = None
    table: str = None
    mode: str = None
    samples: int = 1_000_000
    seed: int = 0
    out: str = None
    json: bool = False
    no_timing: bool = False
    method: str = None
    methods: tuple = None

    def __post_init__(self):
        if self.mode not in (None, "full", "sample"):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.samples < 1:
            raise DomainError("samples must be positive")


def _result(check, parameters, passed, value=None, witness=None, started=None,
            cfg=None):
    elapsed = 0
    if started is not None and not (cfg and cfg.no_timing):
        elapsed = int(round((time.perf_counter() - started) * 1000))
    return {"check": check, "parameters": parameters,
            "result": "pass" if passed else "fail",
            "value": None if value is None else str(value),
            "witness": None if witness is None else str(witness),
            "elapsed_ms": elapsed}


def write_report(results, as_json, out=None):
    """Emit results sorted by check name then parameters; JSON mode keeps
    the exact key order of each object, text mode aligns columns."""
    rows = sorted(results, key=lambda r: (r["check"],
                                          json.dumps(r["parameters"],
                                                     sort_keys=True)))
    if as_json:
        text = json.dumps(rows, indent=2) + "\n"
    else:
        cells = [["check", "parameters", "result", "value", "witness", "ms"]]
        for r in rows:
            cells.append([r["check"], json.dumps(r["parameters"],
                                                 sort_keys=True),
                          r["result"], str(r["value"]), str(r["witness"]),
                          str(r["elapsed_ms"])])
        widths = [max(len(row[i]) for row in cells)
                  for i in range(len(cells[0]))]
        lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                 for row in cells]
        text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise MalformedTableError(f"cannot write {out}: {e}")


def _load_loop(cfg):
    if (cfg.q is None) == (cfg.table is None):
        raise DomainError("exactly one of --q and --table is required")
    if cfg.table is not None:
        return load_tbl(cfg.table), {"table": cfg.table}
    return paige_loop(cfg.q), {"q": cfg.q}


def _auto_mode(cfg, full_ok):
    if cfg.mode is not None:
        return cfg.mode
    return "full" if full_ok else "sample"


# -- verb handlers ------------------------------------------------------


def _cmd_loop_build(cfg):
    if cfg.q is None:
        raise DomainError("--q is required")
    L = paige_loop(cfg.q)
    if len(L) != paige_order_formula(cfg.q):
        raise InternalError("enumerated order disagrees with the formula")
    if cfg.out:
        save_tbl(L, cfg.out)
    print(len(L))
    return []


def _cmd_loop_check(cfg):
    L, params = _load_loop(cfg)
    what = cfg.command[-1]
    t0 = time.perf_counter()
    if what == "moufang":
        mode = _auto_mode(cfg, L.n ** 3 <= config.MAX_FULL_TRIPLES)
        v = check_moufang(L, mode=mode, n_samples=cfg.samples, seed=cfg.seed)
        params = dict(params, mode=mode)
        if mode == "sample":
            params.update(samples=cfg.samples, seed=cfg.seed)
        wit = None
        if v.counterexample:
            idn, x, y, z = v.counterexample
            wit = f"identity {idn} fails at (x, y, z) = ({x}, {y}, {z})"
        return [_result("loop_moufang", params, v.passed,
                        value=v.triples_checked, witness=wit, started=t0,
                        cfg=cfg)]
    if what == "simple":
        v = is_simple(L)
        wit = None
        if not v.simple:
            wit = f"proper normal subloop {v.witness.tolist()}"
        return [_result("loop_simple", params, v.simple, value=L.n,
                        witness=wit, started=t0, cfg=cfg)]
    center = loop_center(L)
    wit = None
    if len(center) > 1:
        wit = f"nontrivial central element {int(center[1])}"
    return [_result("loop_center", params, len(center) == 1,
                    value=len(center), witness=wit, started=t0, cfg=cfg)]


def _cmd_octonion_check(cfg):
    if cfg.q is None:
        raise DomainError("--q is required")
    F = field(cfg.q)
    what = cfg.command[-1]
    t0 = time.perf_counter()
    if what == "composition":
        mode = _auto_mode(cfg, cfg.q == 2)
        params = {"q": cfg.q, "mode": mode}
        if mode == "sample":
            params.update(samples=cfg.samples, seed=cfg.seed)
        ok, count, bad = check_composition(F, mode=mode,
                                           n_samples=cfg.samples,
                                           seed=cfg.seed)
        wit = None if bad is None else f"x = {bad[0]}, y = {bad[1]}"
        return [_result("composition_law", params, ok, value=count,
                        witness=wit, started=t0, cfg=cfg)]
    ok, count, bad = check_two_unit_decomposition(F)
    wit = None if bad is None else f"element {bad}"
    return [_result("two_unit_decompose", {"q": cfg.q}, ok, value=count,
                    witness=wit, started=t0, cfg=cfg)]


def _cmd_mlt_order(cfg):
    L, _ = _load_loop(cfg)
    print(multiplication_group(L).order)
    return []


def _cmd_net_bol(cfg):
    L, params = _load_loop(cfg)
    net = net_from_loop(L)
    t0 = time.perf_counter()
    checked = 0
    failing = None
    for line in net.lines():
        v = is_collineation(net, bol_reflection(net, line))
        checked += 1
        if not v.ok:
            failing = line
            break
    wit = None
    if failing is not None:
        wit = f"class {failing.cls} value {failing.value}"
    return [_result("net_bol", params, failing is None, value=checked,
                    witness=wit, started=t0, cfg=cfg)]


def _cmd_triality_verify(cfg):
    L, params = _load_loop(cfg)
    net = net_from_loop(L)
    t0 = time.perf_counter()
    try:
        T = build_triality(net)
    except NotMoufangNetError as e:
        return [_result("triality_orders", params, False, witness=str(e),
                        started=t0, cfg=cfg)]
    o0, o, idx = T.orders()
    out = [_result("triality_orders", params, idx == 6,
                   value=f"{o0} = {idx} * {o}", started=t0, cfg=cfg)]
    t0 = time.perf_counter()
    axioms = verify_triality_axioms(T, samples=cfg.samples, seed=cfg.seed)
    for rep in axioms:
        out.append(_result(
            "triality_axiom_" + rep["axiom"],
            dict(params, samples=cfg.samples, seed=cfg.seed),
            rep["failures"] == 0, value=rep["checked"],
            witness=None if rep["failures"] == 0
            else f"{rep['failures']} failures", started=t0, cfg=cfg))
    return out


def _cmd_aut_count(cfg):
    method = cfg.method or "backtrack"
    if method == "conjugation":
        if cfg.q is None:
            raise DomainError("the conjugation method needs --q")
        order = conjugation_autos(field(cfg.q)).order
    elif method == "backtrack":
        L, _ = _load_loop(cfg)
        order = aut_backtrack(L).order
    else:
        L, _ = _load_loop(cfg)
        T = build_triality(net_from_loop(L))
        order = origin_stabilizer_automorphisms(T).group.order
    print(order)
    return []


def _cmd_aut_summary(cfg):
    if cfg.q is None:
        raise DomainError("--q is required")
    methods = list(cfg.methods) if cfg.methods else None
    print(json.dumps(aut_summary(cfg.q, methods=methods)))
    return []


def _cmd_report_all(cfg):
    """Battery of checks within the default limits for this q.

    Oversized sections are left out rather than aborting the run: the
    simplicity and triality rows when is_simple or build_triality raises
    LimitError (past order 2,000, and past the permutation-degree bound,
    which the q = 4 net exceeds), and `mlt order` and `net bol` past
    order 2,000, where they would take minutes.  The Moufang check falls
    back to sample mode past the triple bound.
    """
    if cfg.q is None:
        raise DomainError("--q is required")
    q = cfg.q
    results = []

    t0 = time.perf_counter()
    L = paige_loop(q)
    results.append(_result("loop_build", {"q": q},
                           len(L) == paige_order_formula(q), value=len(L),
                           started=t0, cfg=cfg))

    sub = RunConfig(command=("loop", "check", "moufang"), q=q, mode=cfg.mode,
                    samples=cfg.samples, seed=cfg.seed,
                    no_timing=cfg.no_timing)
    results += _cmd_loop_check(sub)
    results += _cmd_loop_check(RunConfig(command=("loop", "check", "center"),
                                         q=q, no_timing=cfg.no_timing))
    try:
        results += _cmd_loop_check(RunConfig(
            command=("loop", "check", "simple"), q=q,
            no_timing=cfg.no_timing))
    except LimitError:
        pass    # is_simple refused the loop before any work

    results += _cmd_octonion_check(RunConfig(
        command=("octonion", "check", "composition"), q=q, mode=cfg.mode,
        samples=cfg.samples, seed=cfg.seed, no_timing=cfg.no_timing))
    results += _cmd_octonion_check(RunConfig(
        command=("octonion", "check", "decompose"), q=q,
        no_timing=cfg.no_timing))

    if L.n <= 2000:
        t0 = time.perf_counter()
        results.append(_result("mlt_order", {"q": q}, True,
                               value=multiplication_group(L).order,
                               started=t0, cfg=cfg))
        results += _cmd_net_bol(RunConfig(command=("net", "bol"), q=q,
                                          no_timing=cfg.no_timing))

    try:
        results += _cmd_triality_verify(RunConfig(
            command=("triality", "verify"), q=q, samples=min(cfg.samples,
                                                             1000),
            seed=cfg.seed, no_timing=cfg.no_timing))
    except LimitError:
        pass    # build_triality refused the net before any reflection

    t0 = time.perf_counter()
    summary = aut_summary(q)
    results.append(_result("aut_summary", {"q": q},
                           summary["match"] is not False,
                           value=summary["computed"] or summary["predicted"],
                           witness=json.dumps(summary), started=t0, cfg=cfg))
    return results


_HANDLERS = {
    ("loop", "build"): _cmd_loop_build,
    ("loop", "check", "moufang"): _cmd_loop_check,
    ("loop", "check", "simple"): _cmd_loop_check,
    ("loop", "check", "center"): _cmd_loop_check,
    ("octonion", "check", "composition"): _cmd_octonion_check,
    ("octonion", "check", "decompose"): _cmd_octonion_check,
    ("mlt", "order"): _cmd_mlt_order,
    ("net", "bol"): _cmd_net_bol,
    ("triality", "verify"): _cmd_triality_verify,
    ("aut", "count"): _cmd_aut_count,
    ("aut", "summary"): _cmd_aut_summary,
    ("report", "all"): _cmd_report_all,
}


def _add_common(p, q=True, table=False, mode=False, sampling=False,
                out=False, report=False, method=False, methods=False):
    if q:
        p.add_argument("--q", type=int)
    if table:
        p.add_argument("--table")
    if mode:
        p.add_argument("--mode", choices=["full", "sample"])
    if sampling:
        p.add_argument("--samples", type=int, default=1_000_000)
        p.add_argument("--seed", type=int, default=0)
    if out:
        p.add_argument("--out")
    if report:
        p.add_argument("--json", action="store_true")
        p.add_argument("--out")
        p.add_argument("--no-timing", action="store_true")
    if method:
        p.add_argument("--method",
                       choices=["backtrack", "conjugation", "stabilizer"])
    if methods:
        p.add_argument("--methods",
                       help="comma-separated subset of "
                            "backtrack,conjugation,stabilizer")


def _build_parser():
    top = argparse.ArgumentParser(
        prog="paigeloops",
        description="Exact checks on Paige loops, their 3-nets, and their "
                    "collineation and automorphism groups.")
    sub = top.add_subparsers(dest="verb", required=True)

    loop = sub.add_parser("loop").add_subparsers(dest="action", required=True)
    _add_common(loop.add_parser("build"), out=True)
    lc = loop.add_parser("check")
    lc.add_argument("what", choices=["moufang", "simple", "center"])
    _add_common(lc, table=True, mode=True, sampling=True, report=True)

    on = sub.add_parser("octonion").add_subparsers(dest="action",
                                                   required=True)
    oc = on.add_parser("check")
    oc.add_argument("what", choices=["composition", "decompose"])
    _add_common(oc, mode=True, sampling=True, report=True)

    mlt = sub.add_parser("mlt").add_subparsers(dest="action", required=True)
    _add_common(mlt.add_parser("order"), table=True)

    net = sub.add_parser("net").add_subparsers(dest="action", required=True)
    _add_common(net.add_parser("bol"), table=True, report=True)

    tri = sub.add_parser("triality").add_subparsers(dest="action",
                                                    required=True)
    tv = tri.add_parser("verify")
    _add_common(tv, table=True, sampling=True, report=True)
    tv.set_defaults(samples=1000)

    aut = sub.add_parser("aut").add_subparsers(dest="action", required=True)
    _add_common(aut.add_parser("count"), table=True, method=True)
    _add_common(aut.add_parser("summary"), methods=True)

    rep = sub.add_parser("report").add_subparsers(dest="action",
                                                  required=True)
    _add_common(rep.add_parser("all"), mode=True, sampling=True, report=True)
    return top


def _config_from_args(ns):
    command = (ns.verb, ns.action) if hasattr(ns, "action") else (ns.verb,)
    if hasattr(ns, "what"):
        command = command + (ns.what,)
    methods = None
    if getattr(ns, "methods", None):
        methods = tuple(m.strip() for m in ns.methods.split(",") if m.strip())
    return RunConfig(
        command=command,
        q=getattr(ns, "q", None),
        table=getattr(ns, "table", None),
        mode=getattr(ns, "mode", None),
        samples=getattr(ns, "samples", 1_000_000),
        seed=getattr(ns, "seed", 0),
        out=getattr(ns, "out", None),
        json=getattr(ns, "json", False),
        no_timing=getattr(ns, "no_timing", False),
        method=getattr(ns, "method", None),
        methods=methods)


def run(argv=None):
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 0
    try:
        cfg = _config_from_args(ns)
        results = _HANDLERS[cfg.command](cfg)
        if results:
            write_report(results, cfg.json, cfg.out)
        if any(r["result"] == "fail" for r in results):
            return 1
        return 0
    except SystemExit as e:
        return e.code if e.code is not None else 0
    except LimitError as e:
        print(f"limit: {e}", file=sys.stderr)
        return 3
    except (MalformedTableError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
