"""Per-layer spans recorded from outside the package.

The package binds names with `from .x import f`, so a wrapper only sees the
calls made through the name it replaces.  `install` therefore wraps each
public function of a layer everywhere a paigeloops module holds it (for
example both `paigeloops.loops.paige_loop` and `paigeloops.autos.paige_loop`),
the public functions of the active kernel module on the module object itself
(the stabilizer-chain code calls them as `self.kern.f`, and the numpy
kernels call each other through their module globals), and the public
methods of `PermGroup`.  Private helpers stay in their caller's self time.

Spans are aggregated in memory per name: calls, inclusive time of the
outermost span of that name, and self time (duration minus the time of the
wrapped spans nested inside it).  Call `install` once per process; the
wrappers stay in place until it exits.
"""

import functools
import inspect
import sys
import time

# (name, unit, better); the names are the per-layer metrics of the traced run
PER_LAYER = [
    ("kernels.sweep_gen.self_s", "s", "lower"),
    ("kernels.sift_run.self_s", "s", "lower"),
    ("kernels.invert.calls", "count", "lower"),
    ("kernels.invert.self_s", "s", "lower"),
    ("kernels.transversal_fill.self_s", "s", "lower"),
    ("kernels.orbit_update.self_s", "s", "lower"),
    ("kernels.schreier_gens", "count", "lower"),
    ("kernels.residues", "count", "lower"),
    ("kernels.residue_ratio", "ratio", "higher"),
    ("kernels.paige_table.self_s", "s", "lower"),
    ("perm.self_s", "s", "lower"),
    ("perm.chains_built", "count", "lower"),
    ("perm.strong_gens", "count", "lower"),
    ("perm.point_stabilizer.s", "s", "lower"),
    ("perm.elements.s", "s", "lower"),
    ("perm.reduced.s", "s", "lower"),
    ("autos.aut_backtrack.self_s", "s", "lower"),
    ("autos.conjugation_autos.self_s", "s", "lower"),
    ("autos.is_loop_automorphism.calls", "count", "lower"),
    ("autos.is_loop_automorphism.self_s", "s", "lower"),
    ("autos.maps_kept", "count", "lower"),
    ("autos.kept_ratio", "ratio", "higher"),
    ("zorn.oct_mul.calls", "count", "lower"),
    ("zorn.oct_mul.self_s", "s", "lower"),
    ("zorn.oct_canonical.self_s", "s", "lower"),
    ("zorn.norm_one_array.self_s", "s", "lower"),
    ("gf.field.self_s", "s", "lower"),
    ("loops.paige_loop.calls", "count", "lower"),
    ("loops.paige_loop.self_s", "s", "lower"),
    ("loops.subloop_closure.calls", "count", "lower"),
    ("loops.subloop_closure.self_s", "s", "lower"),
    ("loops.check_moufang.self_s", "s", "lower"),
    ("loops.loop_center.self_s", "s", "lower"),
    ("loops.is_simple.self_s", "s", "lower"),
    ("nets.bol_reflection.calls", "count", "lower"),
    ("nets.bol_reflection.self_s", "s", "lower"),
    ("nets.is_collineation.calls", "count", "lower"),
    ("nets.is_collineation.self_s", "s", "lower"),
    ("triality.build_triality.self_s", "s", "lower"),
    ("triality.origin_stabilizer_automorphisms.self_s", "s", "lower"),
]

LAYER_MODULES = ("gf", "zorn", "loops", "nets", "perm", "triality", "autos")


class Tracer:
    """Span and counter store shared by every wrapper of one process."""

    def __init__(self):
        self._stack = []        # child time accumulated by each open span
        self._depth = {}        # open spans per name, for inclusive time
        self.stats = {}         # name -> [calls, inclusive_s, self_s]
        self.counts = {"schreier_gens": 0, "residues": 0, "maps_kept": 0,
                       "chains_built": 0, "strong_gens": 0}

    def _enter(self, name):
        self._stack.append(0.0)
        self._depth[name] = self._depth.get(name, 0) + 1
        return time.perf_counter()

    def _leave(self, name, t0):
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        self._depth[name] -= 1
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[2] += dt - child
        if self._depth[name] == 0:
            st[1] += dt
        if self._stack:
            self._stack[-1] += dt

    def wrap(self, name, fn, after=None):
        """fn recorded as span `name`; after(args, result) may count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, t0)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap_generator(self, name, fn):
        """A generator function whose every resumption is one span, so the
        consumer's work between items is not counted."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(name, t0)
                yield item

        return wrapper

    # -- counters read off call arguments and results -------------------------

    def _after_sweep_gen(self, args, result):
        startpos = args[2]
        posi, residue = result
        hit = residue is not None
        self.counts["schreier_gens"] += posi - startpos + (1 if hit else 0)
        self.counts["residues"] += 1 if hit else 0

    def _after_is_loop_automorphism(self, args, result):
        self.counts["maps_kept"] += 1 if result else 0

    def _count_chain(self, chain):
        # every chain build ends with release_caches; level 0 holds every
        # strong generator (and its inverse)
        self.counts["chains_built"] += 1
        if chain.genstacks:
            self.counts["strong_gens"] += chain.genstacks[0].shape[0] // 2

    # -- metrics ------------------------------------------------------------

    def _stat(self, name, field):
        st = self.stats.get(name)
        return 0 if st is None else st[field]

    def per_layer(self):
        """Every PER_LAYER metric as {name: value}."""
        out = {}
        for name, _, _ in PER_LAYER:
            span, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self._stat(span, 0)
            elif kind == "self_s":
                out[name] = float(self._stat(span, 2))
            elif kind == "s":
                out[name] = float(self._stat(span, 1))
        out["perm.self_s"] = float(sum(st[2] for k, st in self.stats.items()
                                       if k.startswith("perm.")))
        c = self.counts
        out["kernels.schreier_gens"] = c["schreier_gens"]
        out["kernels.residues"] = c["residues"]
        out["kernels.residue_ratio"] = (c["residues"] / c["schreier_gens"]
                                        if c["schreier_gens"] else 0.0)
        out["perm.chains_built"] = c["chains_built"]
        out["perm.strong_gens"] = c["strong_gens"]
        validated = self._stat("autos.is_loop_automorphism", 0)
        out["autos.maps_kept"] = c["maps_kept"]
        out["autos.kept_ratio"] = (c["maps_kept"] / validated
                                   if validated else 0.0)
        return out

    def spans(self):
        """The aggregated span table, for the trace output file."""
        return {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                for k, v in sorted(self.stats.items())}


def _public_functions(mod):
    return {k: v for k, v in vars(mod).items()
            if not k.startswith("_") and callable(v)
            and not isinstance(v, type)
            and getattr(v, "__module__", None) == mod.__name__}


def install(tracer):
    """Wrap the layers of the imported paigeloops package."""
    from paigeloops import _backend, perm

    after = {"kernels.sweep_gen": tracer._after_sweep_gen,
             "autos.is_loop_automorphism": tracer._after_is_loop_automorphism}
    layers = {k: sys.modules[f"paigeloops.{k}"] for k in LAYER_MODULES}
    layers["kernels"] = _backend.kernels
    replace = {}
    for layer, mod in layers.items():
        for k, fn in _public_functions(mod).items():
            name = f"{layer}.{k}"
            replace[id(fn)] = tracer.wrap(name, fn, after.get(name))
    # the kernel module is among these, so its own globals are replaced too
    modules = [m for n, m in list(sys.modules.items())
               if n == "paigeloops" or n.startswith("paigeloops.")]
    for mod in modules:
        for k, v in list(vars(mod).items()):
            w = replace.get(id(v))
            if w is not None:
                setattr(mod, k, w)

    PG = perm.PermGroup
    for k, v in list(vars(PG).items()):
        name = f"perm.{k}"
        if k.startswith("_"):
            continue
        if isinstance(v, property):
            setattr(PG, k, property(tracer.wrap(name, v.fget), doc=v.__doc__))
        elif inspect.isgeneratorfunction(v):
            setattr(PG, k, tracer.wrap_generator(name, v))
        elif callable(v):
            setattr(PG, k, tracer.wrap(name, v))

    release = perm._Chain.release_caches

    def release_caches(chain):
        tracer._count_chain(chain)
        return release(chain)

    perm._Chain.release_caches = tracer.wrap("perm.release_caches",
                                             release_caches)
