"""Collineation groups of a Moufang 3-net and the triality axioms.

Gamma0 is generated by all Bol reflections; the class action maps each
collineation to its permutation of the three line classes; Gamma is the
kernel (the direction-preserving part).  S is generated by the reflections
in the three lines through a chosen origin, sigma = the class-1 one, and
rho = sigma_1 * sigma_2 (left-to-right composition).

Gamma0, Gamma and the reflections act on the net's 3n lines, with line id
(class - 1)*n + value as in `nets`.  The action is faithful: a point is the
meet of its class-1 and class-2 lines, so a collineation fixing every line
fixes every point.  The origin (i0, j0) is the meet of lines i0 and n + j0,
and these two lines are the first base points of Gamma's chain.

Conventions (order-sensitive): (p * q)(x) = q(p(x)), x^rho = rho^-1 x rho,
and [g, s] = g^-1 s^-1 g s.
"""

from dataclasses import dataclass

import numpy as np

from . import config
from .autos import is_loop_automorphism
from .errors import (CorrespondenceError, DomainError, InternalError,
                     LimitError, NotMoufangNetError)
from .nets import bol_reflection, is_collineation, line_image
from .perm import PermGroup, Permutation

# the six class actions as one-line maps {1,2,3} -> {1,2,3}
_ID3 = (1, 2, 3)


def _compose_action(a, b):
    """Class action of (gamma then delta) from their actions a, b."""
    return tuple(b[a[i - 1] - 1] for i in (1, 2, 3))


def _line_permutation(verdict, n):
    """The permutation of the 3n line ids induced by a verified
    collineation."""
    return Permutation(np.concatenate(
        [(a - 1) * n + m for a, m in zip(verdict.direction_action,
                                         verdict.value_maps)]
    ).astype(np.int32), _checked=True)


@dataclass(frozen=True)
class TrialitySetup:
    net: object
    origin: int            # a point id i*n + j
    gamma0: PermGroup
    gamma: PermGroup
    # class action of each gamma0 input generator, aligned by index
    gen_actions: tuple
    S_gens: tuple          # reflections at the origin's three lines
    sigma: Permutation
    rho: Permutation

    def orders(self):
        """(|Gamma0|, |Gamma|, index)."""
        o0 = self.gamma0.order
        og = self.gamma.order
        if og == 0 or o0 % og:
            raise InternalError("kernel order does not divide group order")
        return o0, og, o0 // og


def build_triality(net, origin=0, override_limits=False):
    """Construct Gamma0, Gamma, and the origin reflections for a Moufang
    net, all acting on its lines; raises NotMoufangNetError when any Bol
    reflection fails to be a collineation."""
    n = net.n
    if n * n > config.MAX_PERM_DEGREE and not override_limits:
        raise LimitError(
            f"the net has {n * n} points, above {config.MAX_PERM_DEGREE}; "
            "pass override_limits=True to force",
            bound=config.MAX_PERM_DEGREE)
    if n < 2:
        raise DomainError("net too small for a triality setup")
    if not 0 <= origin < n * n:
        raise DomainError("origin out of range")
    i0, j0 = divmod(int(origin), n)

    reflections = []
    actions = []
    seen = set()
    origin_lines = net.point_lines(origin)
    origin_refs = {}
    for line in net.lines():
        v = is_collineation(net, bol_reflection(net, line))
        if not v.ok:
            raise NotMoufangNetError(
                f"Bol reflection at class {line.cls} value {line.value} "
                "is not a collineation")
        act = v.direction_action
        if sorted(act) != [1, 2, 3] or act == _ID3:
            raise InternalError("reflection class action is not a "
                                "transposition")
        r = _line_permutation(v, n)
        if line in origin_lines:
            origin_refs[line.cls] = r
        key = r.images.tobytes()
        if key not in seen:
            seen.add(key)
            reflections.append(r)
            actions.append(act)

    d = 3 * n
    base = [i0, n + j0]
    gamma0 = PermGroup(reflections, degree=d,
                       override_limits=override_limits, base_hint=base)

    s1 = origin_refs[1]
    s2 = origin_refs[2]
    s3 = origin_refs[3]
    a1 = (1, 3, 2)
    a2 = (3, 2, 1)
    # transversal of the class-action kernel: 1, s1, s2, s1s2, s2s1, s1s2s1
    trans = {
        _ID3: Permutation.identity(d),
        a1: s1,
        a2: s2,
        _compose_action(a1, a2): s1 * s2,
        _compose_action(a2, a1): s2 * s1,
        _compose_action(_compose_action(a1, a2), a1): s1 * s2 * s1,
    }
    if len(trans) != 6:
        raise InternalError("transversal does not cover S3")

    kern_gens = []
    kseen = set()
    for t_act, t in trans.items():
        for g, g_act in zip(reflections, actions):
            prod_act = _compose_action(t_act, g_act)
            rep = trans[prod_act]
            k = t * g * rep.inverse()
            key = k.images.tobytes()
            if not k.is_identity() and key not in kseen:
                kseen.add(key)
                kern_gens.append(k)
    gamma = PermGroup(kern_gens, degree=d,
                      override_limits=override_limits, base_hint=base)

    return TrialitySetup(net=net, origin=int(origin), gamma0=gamma0,
                         gamma=gamma, gen_actions=tuple(actions),
                         S_gens=(s1, s2, s3), sigma=s1, rho=s1 * s2)


def _commutator(g, s):
    """[g, s] = g^-1 s^-1 g s."""
    return g.inverse() * s.inverse() * g * s


def verify_triality_axioms(T, samples=1000, seed=0):
    """Check the triality axioms on the setup; returns a list of report
    entries {"axiom": ..., "checked": ..., "failures": ...}.

    Axioms: the origin reflections generate a group of order 6 with
    sigma^2 = rho^3 = 1; [g, sigma] [g, sigma]^rho [g, sigma]^(rho^2) = 1
    for the generators of Gamma and uniformly sampled elements; and the
    commutators [Gamma, {sigma, rho}] generate all of Gamma.
    """
    report = []
    sigma = T.sigma
    rho = T.rho
    d = sigma.degree

    # (a) <sigma, rho> is S3
    failures = 0
    if not (sigma * sigma).is_identity():
        failures += 1
    if not (rho * rho * rho).is_identity():
        failures += 1
    if sigma * rho == rho * sigma:
        failures += 1
    els = {Permutation.identity(d)}
    frontier = [Permutation.identity(d)]
    while frontier and len(els) <= 8:
        nxt = []
        for p in frontier:
            for g in (sigma, rho):
                q = p * g
                if q not in els:
                    els.add(q)
                    nxt.append(q)
        frontier = nxt
    if len(els) != 6:
        failures += 1
    report.append({"axiom": "s_subgroup", "checked": 4,
                   "failures": failures})

    # (b) triality equation on generators + uniform samples
    rinv = rho.inverse()
    rho2 = rho * rho
    r2inv = rho2.inverse()

    def equation_holds(g):
        c = _commutator(g, sigma)
        cr = rinv * c * rho
        crr = r2inv * c * rho2
        return (c * cr * crr).is_identity()

    failures = 0
    checked = 0
    for g in T.gamma.generators:
        checked += 1
        if not equation_holds(g):
            failures += 1
    for g in T.gamma.random_elements(samples, seed=seed):
        checked += 1
        if not equation_holds(g):
            failures += 1
    report.append({"axiom": "triality_equation", "checked": checked,
                   "failures": failures})

    # (c) [Gamma, S] = Gamma by order equality
    comm_gens = []
    for g in T.gamma.generators:
        for s in (sigma, rho):
            comm_gens.append(_commutator(g, s))
    H = PermGroup(comm_gens, degree=d, override_limits=True)
    ok = H.order == T.gamma.order
    report.append({"axiom": "gamma_commutator_span",
                   "checked": len(comm_gens), "failures": 0 if ok else 1})
    return report


@dataclass(frozen=True)
class StabilizerCorrespondence:
    group: PermGroup              # the automorphisms alpha, acting on L
    alphas: np.ndarray            # (m, n) image arrays, sorted lexicographically

    @property
    def count(self):
        return len(self.alphas)


def origin_stabilizer_automorphisms(T):
    """Read Stab_Gamma(origin) as loop automorphisms.

    The origin (0, 0) is the meet of lines 0 and n.  Each generator of their
    joint stabilizer must act on all three line classes by one map alpha,
    so that it sends the point (x, y) to (alpha(x), alpha(y)), and alpha
    must pass is_loop_automorphism, the package's one automorphism
    validator.  The elements passing both checks form a subgroup, so
    checking the generators covers the whole stabilizer.
    Returns the group of the alphas with all its elements as image
    arrays."""
    net = T.net
    n = net.n
    if T.origin != 0:
        raise DomainError(
            "the correspondence reads maps in the loop's own coordinates, "
            "which requires the setup based at the identity point (0, 0); "
            "coordinatize at the other origin with coordinate_loop first")
    stab1 = T.gamma.point_stabilizer(0)
    stab = stab1.point_stabilizer(n)
    # the first two basic orbit sizes of a chain based at lines 0 and n
    if (T.gamma.order // stab1.order, stab1.order // stab.order) != (n, n):
        raise DomainError("Gamma is not transitive on the net's points")
    shift = (np.arange(3, dtype=np.int64) * n)[:, None]
    gens = []
    for g in stab.generators:
        img = g.images.astype(np.int64).reshape(3, n)
        alpha = img[0]
        if not (img == alpha + shift).all():
            raise CorrespondenceError(
                "a stabilizer generator acts by different maps on the "
                "three line classes")
        if not is_loop_automorphism(net.loop, alpha):
            raise CorrespondenceError(
                "an induced map is not multiplicative")
        gens.append(Permutation(alpha, _checked=True))
    group = PermGroup(gens, degree=n)
    if group.order != stab.order:
        raise InternalError("alpha group order mismatch")
    arr = np.array([p.images for p in group.elements()], dtype=np.int32)
    arr = arr[np.lexsort(arr.T[::-1])]
    return StabilizerCorrespondence(group=group, alphas=arr)


def induced_automorphism_check(T, alpha):
    """For a loop automorphism alpha, build (x, y) -> (alpha(x), alpha(y))
    and report whether it is a direction-preserving collineation fixing
    the origin's three lines and centralizing their Bol reflections.
    alpha itself must pass is_loop_automorphism."""
    net = T.net
    n = net.n
    alpha = np.asarray(alpha, dtype=np.int64)
    if alpha.shape != (n,):
        raise DomainError("alpha must be a length-n image array")
    if not is_loop_automorphism(net.loop, alpha):
        raise DomainError("alpha is not a loop automorphism")

    sharp = ((alpha * n)[:, None] + alpha[None, :]).ravel()
    v = is_collineation(net, sharp)
    fixes_lines = bool(v.ok) and all(
        line_image(v, l) == l for l in net.point_lines(T.origin))
    centralizes = False
    if v.ok:
        g = _line_permutation(v, n)
        ginv = g.inverse()
        centralizes = all(g * s * ginv == s for s in T.S_gens)
    report = {
        "collineation": bool(v.ok),
        "direction_preserving": bool(v.ok) and v.direction_action == _ID3,
        "fixes_origin_lines": fixes_lines,
        "centralizes_origin_reflections": bool(centralizes),
    }
    report["passed"] = all(report.values())
    return report


def central_elements(G, chunk=2048):
    """Nontrivial central elements of a transitive permutation group,
    by semiregular propagation: a central element is determined by the
    image of the first base point; propagate each candidate image along
    the level-0 Schreier tree and keep those commuting with every
    generator."""
    if not G.is_transitive():
        raise DomainError("central_elements needs a transitive group")
    ch = G._build()
    if ch.nlevels() == 0:
        return []
    d = G.degree
    base = ch.bases[0]
    sv = ch.svs[0]
    gs = ch.genstacks[0]
    orbit = ch.orbits[0][:ch.norbits[0]]
    if ch.norbits[0] != d:
        raise InternalError("chain orbit disagrees with transitivity")
    gens = [g.images for g in G.generators]
    out = []
    for lo in range(0, d, chunk):
        cand = np.arange(lo, min(lo + chunk, d), dtype=np.int32)
        m = len(cand)
        # Z[c, v] = image of point v under the candidate centralizer
        # sending base -> cand[c]
        Z = np.full((m, d), -1, dtype=np.int32)
        Z[:, base] = cand
        for v in orbit[1:]:
            er = int(sv[v])
            parent = int(gs[er ^ 1][v])
            Z[:, v] = gs[er][Z[:, parent]]
        alive = np.ones(m, dtype=bool)
        for g in gens:
            if not alive.any():
                break
            rows = np.nonzero(alive)[0]
            bad = (Z[rows][:, g] != g[Z[rows]]).any(axis=1)
            alive[rows[bad]] = False
        for r in np.nonzero(alive)[0]:
            z = Z[r].astype(np.int32)
            if (z != np.arange(d, dtype=np.int32)).any():
                out.append(Permutation(z, _checked=True))
    return out
