"""Command-line driver.

Every verb calls one library operation and formats its outcome; no
computation happens here.  Exit codes: 0 all checks passed, 1 a check
found a mathematical counterexample, 2 usage error (including unreadable
or corrupt table files), 3 a size limit in config was hit.  No limit
can be lifted from here.

The parsed argparse namespace is the run's only configuration.  A verb
is one _leaf call, whose set_defaults(handler=...) names the function
that takes the namespace and returns report rows (or prints its answer
and returns []).  A flag is one add_argument call, with its default
given there once.
"""

import argparse
import json
import sys
import time

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

__all__ = ["main", "run", "write_report"]


def _result(cfg, started, check, parameters, passed, value=None,
            witness=None):
    elapsed = 0
    if not cfg.no_timing:
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
    t0 = time.perf_counter()
    if cfg.what == "moufang":
        mode = _auto_mode(cfg, L.n ** 3 <= config.MAX_FULL_TRIPLES)
        v = check_moufang(L, mode=mode, n_samples=cfg.samples, seed=cfg.seed)
        params = dict(params, mode=mode)
        if mode == "sample":
            params.update(samples=cfg.samples, seed=cfg.seed)
        wit = None
        if v.counterexample:
            idn, x, y, z = v.counterexample
            wit = f"identity {idn} fails at (x, y, z) = ({x}, {y}, {z})"
        return [_result(cfg, t0, "loop_moufang", params, v.passed,
                        value=v.triples_checked, witness=wit)]
    if cfg.what == "simple":
        v = is_simple(L)
        wit = None
        if not v.simple:
            wit = f"proper normal subloop {v.witness.tolist()}"
        return [_result(cfg, t0, "loop_simple", params, v.simple, value=L.n,
                        witness=wit)]
    center = loop_center(L)
    wit = None
    if len(center) > 1:
        wit = f"nontrivial central element {int(center[1])}"
    return [_result(cfg, t0, "loop_center", params, len(center) == 1,
                    value=len(center), witness=wit)]


def _cmd_octonion_check(cfg):
    if cfg.q is None:
        raise DomainError("--q is required")
    F = field(cfg.q)
    t0 = time.perf_counter()
    if cfg.what == "composition":
        mode = _auto_mode(cfg, cfg.q == 2)
        params = {"q": cfg.q, "mode": mode}
        if mode == "sample":
            params.update(samples=cfg.samples, seed=cfg.seed)
        ok, count, bad = check_composition(F, mode=mode,
                                           n_samples=cfg.samples,
                                           seed=cfg.seed)
        wit = None if bad is None else f"x = {bad[0]}, y = {bad[1]}"
        return [_result(cfg, t0, "composition_law", params, ok, value=count,
                        witness=wit)]
    ok, count, bad = check_two_unit_decomposition(F)
    wit = None if bad is None else f"element {bad}"
    return [_result(cfg, t0, "two_unit_decompose", {"q": cfg.q}, ok,
                    value=count, witness=wit)]


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
    return [_result(cfg, t0, "net_bol", params, failing is None,
                    value=checked, witness=wit)]


def _cmd_triality_verify(cfg):
    L, params = _load_loop(cfg)
    net = net_from_loop(L)
    t0 = time.perf_counter()
    try:
        T = build_triality(net)
    except NotMoufangNetError as e:
        return [_result(cfg, t0, "triality_orders", params, False,
                        witness=str(e))]
    o0, o, idx = T.orders()
    out = [_result(cfg, t0, "triality_orders", params, idx == 6,
                   value=f"{o0} = {idx} * {o}")]
    t0 = time.perf_counter()
    axioms = verify_triality_axioms(T, samples=cfg.samples, seed=cfg.seed)
    for rep in axioms:
        out.append(_result(
            cfg, t0, "triality_axiom_" + rep["axiom"],
            dict(params, samples=cfg.samples, seed=cfg.seed),
            rep["failures"] == 0, value=rep["checked"],
            witness=None if rep["failures"] == 0
            else f"{rep['failures']} failures"))
    return out


def _cmd_aut_count(cfg):
    if cfg.method == "conjugation":
        if cfg.q is None:
            raise DomainError("the conjugation method needs --q")
        if cfg.table is not None:
            raise DomainError("exactly one of --q and --table is required")
        order = conjugation_autos(field(cfg.q)).order
    elif cfg.method == "backtrack":
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
    methods = None
    if cfg.methods is not None:
        methods = [m.strip() for m in cfg.methods.split(",") if m.strip()]
    print(json.dumps(aut_summary(cfg.q, methods=methods)))
    return []


def _cmd_report_all(cfg):
    """Battery of checks within the default limits for this q.

    Each section is its verb's handler, run on a copy of this namespace
    with only `what` (and triality's sample count) changed.  Oversized
    sections are left out rather than aborting the run: the simplicity
    and triality rows when is_simple or build_triality raises LimitError
    (past config.MAX_MLT_LOOP_ORDER, and past the permutation-degree
    bound, which the q = 4 net exceeds), and `mlt order` and `net bol`
    past config.MAX_MLT_LOOP_ORDER, where they would take minutes.  The
    Moufang check falls back to sample mode past the triple bound.
    """
    if cfg.q is None:
        raise DomainError("--q is required")
    q = cfg.q

    def section(handler, **changes):
        return handler(argparse.Namespace(**dict(vars(cfg), **changes)))

    t0 = time.perf_counter()
    L = paige_loop(q)
    results = [_result(cfg, t0, "loop_build", {"q": q},
                       len(L) == paige_order_formula(q), value=len(L))]
    results += section(_cmd_loop_check, what="moufang")
    results += section(_cmd_loop_check, what="center")
    try:
        results += section(_cmd_loop_check, what="simple")
    except LimitError:
        pass    # is_simple refused the loop before any work
    results += section(_cmd_octonion_check, what="composition")
    results += section(_cmd_octonion_check, what="decompose")

    if L.n <= config.MAX_MLT_LOOP_ORDER:
        t0 = time.perf_counter()
        results.append(_result(cfg, t0, "mlt_order", {"q": q}, True,
                               value=multiplication_group(L).order))
        results += section(_cmd_net_bol)

    try:
        results += section(_cmd_triality_verify,
                           samples=min(cfg.samples, 1000))
    except LimitError:
        pass    # build_triality refused the net before any reflection

    t0 = time.perf_counter()
    summary = aut_summary(q)
    results.append(_result(cfg, t0, "aut_summary", {"q": q},
                           summary["match"] is not False,
                           value=summary["computed"] or summary["predicted"],
                           witness=json.dumps(summary)))
    return results


def _leaf(parent, name, handler, table=False, mode=False, samples=None,
          out=False, report=False):
    """The verb `name` under `parent`, run by handler, with its flags;
    `samples` is the default of --samples, which comes with --seed."""
    p = parent.add_parser(name)
    p.set_defaults(handler=handler)
    p.add_argument("--q", type=int)
    if table:
        p.add_argument("--table")
    if mode:
        p.add_argument("--mode", choices=["full", "sample"])
    if samples:
        p.add_argument("--samples", type=int, default=samples)
        p.add_argument("--seed", type=int, default=0)
    if out:
        p.add_argument("--out")
    if report:
        p.add_argument("--json", action="store_true")
        p.add_argument("--out")
        p.add_argument("--no-timing", action="store_true")
    return p


def _build_parser():
    top = argparse.ArgumentParser(
        prog="paigeloops",
        description="Exact checks on Paige loops, their 3-nets, and their "
                    "collineation and automorphism groups.")
    sub = top.add_subparsers(dest="verb", required=True)

    def actions(name):
        return sub.add_parser(name).add_subparsers(dest="action",
                                                   required=True)

    loop = actions("loop")
    _leaf(loop, "build", _cmd_loop_build, out=True)
    _leaf(loop, "check", _cmd_loop_check, table=True, mode=True,
          samples=1_000_000, report=True).add_argument(
        "what", choices=["moufang", "simple", "center"])
    _leaf(actions("octonion"), "check", _cmd_octonion_check, mode=True,
          samples=1_000_000, report=True).add_argument(
        "what", choices=["composition", "decompose"])
    _leaf(actions("mlt"), "order", _cmd_mlt_order, table=True)
    _leaf(actions("net"), "bol", _cmd_net_bol, table=True, report=True)
    _leaf(actions("triality"), "verify", _cmd_triality_verify, table=True,
          samples=1000, report=True)

    aut = actions("aut")
    _leaf(aut, "count", _cmd_aut_count, table=True).add_argument(
        "--method", default="backtrack",
        choices=["backtrack", "conjugation", "stabilizer"])
    _leaf(aut, "summary", _cmd_aut_summary).add_argument(
        "--methods",
        help="comma-separated subset of backtrack,conjugation,stabilizer")

    # every section builds M*(q), so the loop is never read from a table
    _leaf(actions("report"), "all", _cmd_report_all, mode=True,
          samples=1_000_000, report=True).set_defaults(table=None)
    return top


def run(argv=None):
    try:
        ns = _build_parser().parse_args(argv)
        if getattr(ns, "samples", 1) < 1:
            raise DomainError("samples must be positive")
        if getattr(ns, "seed", 0) < 0:
            raise DomainError("seed must be non-negative")
        results = ns.handler(ns)
        if results:
            write_report(results, ns.json, ns.out)
        return 1 if any(r["result"] == "fail" for r in results) else 0
    except SystemExit as e:
        return e.code if e.code is not None else 0
    except LimitError as e:
        print(f"limit: {e}", file=sys.stderr)
        return 3
    except (DomainError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
