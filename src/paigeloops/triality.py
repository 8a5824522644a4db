"""Collineation groups of a Moufang 3-net and the triality axioms.

Gamma0 is generated by all Bol reflections, and Gamma is its
direction-preserving part, the kernel of the action on the three line
classes.  build_triality checks only the reflections whose axes the
group generated so far does not reach (its docstring gives the
argument): 7 of 360 at q = 2 and 6 of 3,240 at q = 3.  S is generated by
the reflections in the three lines through a chosen origin, sigma = the
class-1 one, and rho = sigma_1 * sigma_2 (left-to-right composition).

Gamma0, Gamma and the reflections act on the net's 3n lines, with line id
(class - 1)*n + value as in `nets`, and on the three parallel classes, the
net's points at infinity, as points 3n, 3n + 1 and 3n + 2.  The action is
faithful: a point is the meet of its class-1 and class-2 lines, so a
collineation fixing every line fixes every point.  The origin (i0, j0) is
the meet of lines i0 and n + j0.  Gamma0's one chain has the base
3n, 3n + 1, i0, n + j0, ...: Gamma is the stabilizer of the class points,
two levels down, and the origin stabilizer in Gamma is two levels below
that; both are tails of the chain, read without a base change.

Conventions (order-sensitive): (p * q)(x) = q(p(x)), x^rho = rho^-1 x rho,
and [g, s] = g^-1 s^-1 g s.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import config
from .autos import is_loop_automorphism
from .errors import (CorrespondenceError, DomainError, InternalError,
                     LimitError, NotMoufangNetError)
from .nets import bol_reflection, is_collineation, line_image
from .perm import PermGroup, Permutation


def _line_permutation(verdict, n):
    """The permutation of the 3n line ids and the 3 class points 3n..3n+2
    induced by a verified collineation."""
    act = np.asarray(verdict.direction_action, dtype=np.int32) - 1
    return Permutation(np.concatenate(
        [a * n + m for a, m in zip(act, verdict.value_maps)]
        + [3 * n + act]).astype(np.int32), _checked=True)


@dataclass(frozen=True)
class TrialitySetup:
    net: object
    origin: int            # a point id i*n + j
    gamma0: PermGroup
    gamma: PermGroup
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


def build_triality(net, origin=0):
    """Construct Gamma0, Gamma, and the origin reflections for a Moufang
    net, all acting on its lines and line classes; raises
    NotMoufangNetError when a checked Bol reflection fails to be a
    collineation.

    Only some of the 3n reflections are built and checked, each with
    bol_reflection and is_collineation on the net's points: first the
    three at the origin's lines, which S needs, then, walking the other
    lines in order, each line that lies outside the orbits of the checked
    axes under the group generated by the reflections checked so far.
    The package takes the rest as following from the definition.  A Bol
    reflection is defined by incidence and line class alone, so
    g sigma_l g^-1 = sigma_g(l) for every collineation g.  A skipped axis
    m = g(l), with l checked and g in the group, therefore has a
    reflection that is a collineation and already lies in the group, so
    the group is Gamma0.  A reflection that fails is never skipped: were
    its axis g(l), it would be g sigma_l g^-1, a collineation.  `net bol`
    still checks every line directly."""
    n = net.n
    if n * n > config.MAX_PERM_DEGREE:
        raise LimitError(
            f"the net has {n * n} points, above {config.MAX_PERM_DEGREE}",
            bound=config.MAX_PERM_DEGREE)
    if n < 2:
        raise DomainError("net too small for a triality setup")
    if not 0 <= origin < n * n:
        raise DomainError("origin out of range")
    i0, j0 = divmod(int(origin), n)

    c = 3 * n
    origin_lines = net.point_lines(origin)
    reflections = []
    covered = np.zeros(c + 3, dtype=bool)
    for line in origin_lines + tuple(l for l in net.lines()
                                     if l not in origin_lines):
        axis = (line.cls - 1) * n + line.value
        if covered[axis] and line not in origin_lines:
            continue
        v = is_collineation(net, bol_reflection(net, line))
        if not v.ok:
            raise NotMoufangNetError(
                f"Bol reflection at class {line.cls} value {line.value} "
                "is not a collineation")
        if v.direction_preserving:
            raise InternalError("reflection class action is not a "
                                "transposition")
        reflections.append(_line_permutation(v, n))
        # the old cover is a union of orbits of checked axes, so its
        # orbits under the larger group are those of all checked axes
        covered[axis] = True
        covered[PermGroup(reflections, degree=c + 3).orbit(
            np.flatnonzero(covered))] = True

    gamma0 = PermGroup(reflections, degree=c + 3,
                       base_hint=[c, c + 1, i0, n + j0])
    if gamma0.basic_orbit_sizes()[:2] != [3, 2]:
        raise InternalError("the reflections do not act as S3 on the "
                            "line classes")
    gamma = gamma0.point_stabilizer(c).point_stabilizer(c + 1)
    s1, s2, s3 = reflections[:3]
    return TrialitySetup(net=net, origin=int(origin), gamma0=gamma0,
                         gamma=gamma, S_gens=(s1, s2, s3), sigma=s1,
                         rho=s1 * s2)


def _commutator(g, s):
    """[g, s] = g^-1 s^-1 g s."""
    return g.inverse() * s.inverse() * g * s


def verify_triality_axioms(T, samples=1000, seed=0):
    """Check the triality axioms on the setup; returns a list of report
    entries {"axiom": ..., "checked": ..., "failures": ...}.

    Axioms: the origin reflections generate a group of order 6 with
    sigma^2 = rho^3 = 1; [g, sigma] [g, sigma]^rho [g, sigma]^(rho^2) = 1
    for the generators of Gamma and uniformly sampled elements; and the
    commutators [Gamma, {sigma, rho}], closed under conjugation by Gamma
    and S, generate all of Gamma.
    """
    report = []
    sigma = T.sigma
    rho = T.rho

    # (a) <sigma, rho> is S3
    failures = 0
    if not (sigma * sigma).is_identity():
        failures += 1
    if not (rho * rho * rho).is_identity():
        failures += 1
    if sigma * rho == rho * sigma:
        failures += 1
    if PermGroup([sigma, rho]).order != 6:
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

    # (c) [Gamma, S] = Gamma by order equality.  [Gamma, S] is the normal
    # closure in <Gamma, S> of the commutators of their generators; it lies
    # in Gamma only when S normalizes Gamma, so membership is checked too.
    comm_gens = [_commutator(g, s) for g in T.gamma.generators
                 for s in (sigma, rho)]
    H = PermGroup(list(T.gamma.generators)
                  + [sigma, rho]).normal_closure(comm_gens)
    ok = H.order == T.gamma.order and all(h in T.gamma
                                          for h in H.generators)
    report.append({"axiom": "gamma_commutator_span",
                   "checked": len(comm_gens), "failures": 0 if ok else 1})
    return report


@dataclass(frozen=True)
class StabilizerCorrespondence:
    """The origin stabilizer read as loop automorphisms: the group of the
    alphas, its order, and all its elements, listed on first read."""

    group: PermGroup              # the automorphisms alpha, acting on L

    @functools.cached_property
    def alphas(self):
        """(m, n) image arrays, one per element, in the order
        group.element_array() lists them; raises LimitError before it
        allocates when the listing would pass MAX_TABLE_CELLS cells, as
        at q = 3 (4,245,696 maps of 1,080 points)."""
        return self.group.element_array()

    @property
    def count(self):
        return self.group.order


def origin_stabilizer_automorphisms(T):
    """Read Stab_Gamma(origin) as loop automorphisms.

    The origin (0, 0) is the meet of lines 0 and n, so in the setup's
    chain its stabilizer is the tail two levels below Gamma.  Each
    generator of the stabilizer must fix the three class points and act on
    all three line classes by one map alpha, so that it sends the point
    (x, y) to (alpha(x), alpha(y)), and alpha must pass
    is_loop_automorphism, the package's one automorphism validator.  The
    elements passing both checks form a subgroup, so checking the
    generators covers the whole stabilizer.  Returns the group of the
    alphas; its elements are listed only when .alphas is read."""
    net = T.net
    n = net.n
    if T.origin != 0:
        raise DomainError(
            "the correspondence reads maps in the loop's own coordinates, "
            "which requires the setup based at the identity point (0, 0); "
            "coordinatize at the other origin with coordinate_loop first")
    stab = T.gamma.point_stabilizer(0).point_stabilizer(n)
    if T.gamma.order != n * n * stab.order:
        raise DomainError("Gamma is not transitive on the net's points")
    shift = (np.arange(3, dtype=np.int64) * n)[:, None]
    classes = np.arange(3 * n, 3 * n + 3)
    gens = []
    for g in stab.generators:
        img = g.images.astype(np.int64)
        alpha = img[:n]
        if not ((img[:3 * n].reshape(3, n) == alpha + shift).all()
                and (img[3 * n:] == classes).all()):
            raise CorrespondenceError(
                "a stabilizer generator moves a line class or acts by "
                "different maps on the three classes")
        if not is_loop_automorphism(net.loop, alpha):
            raise CorrespondenceError(
                "an induced map is not multiplicative")
        gens.append(Permutation(alpha, _checked=True))
    group = PermGroup(gens, degree=n)
    if group.order != stab.order:
        raise InternalError("alpha group order mismatch")
    return StabilizerCorrespondence(group=group)


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
        "direction_preserving": v.direction_preserving,
        "fixes_origin_lines": fixes_lines,
        "centralizes_origin_reflections": bool(centralizes),
    }
    report["passed"] = all(report.values())
    return report

