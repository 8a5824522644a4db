import numpy as np
import pytest

from paigeloops import (DomainError, LineRef, Permutation, all_bol_reflections,
                        bol_reflection, check_moufang, is_collineation,
                        line_image, net_from_loop)


@pytest.fixture(scope="module")
def net_s3(s3):
    return net_from_loop(s3)


@pytest.fixture(scope="module")
def net5(loop5):
    return net_from_loop(loop5)


def test_incidence_axioms(net_s3):
    n = net_s3.n
    assert net_s3.num_points == n * n
    assert net_s3.num_lines == 3 * n
    lines = list(net_s3.lines())
    assert len(lines) == 3 * n
    # every point lies on one line of each class
    for p in range(n * n):
        through = net_s3.point_lines(p)
        assert tuple(l.cls for l in through) == (1, 2, 3)
        for l in through:
            assert p in net_s3.line_points(l)
    # same-class lines are disjoint, cross-class lines meet exactly once
    pts = {(l.cls, l.value): set(int(x) for x in net_s3.line_points(l))
           for l in lines}
    for a in lines:
        for b in lines:
            if (a.cls, a.value) >= (b.cls, b.value):
                continue
            common = pts[(a.cls, a.value)] & pts[(b.cls, b.value)]
            assert len(common) == (0 if a.cls == b.cls else 1)


def test_line_points_match_table(net_s3, s3):
    n = net_s3.n
    for c in range(n):
        for p in net_s3.line_points(LineRef(3, c)):
            i, j = net_s3.point_coords(p)
            assert s3.mul(i, j) == c
    with pytest.raises(DomainError):
        net_s3.line_points(LineRef(4, 0))
    with pytest.raises(DomainError):
        net_s3.line_points(LineRef(1, n))


def test_reflections_are_involutions_fixing_axis(net_s3):
    for line in net_s3.lines():
        r = bol_reflection(net_s3, line)
        assert (r * r).is_identity()
        for p in net_s3.line_points(line):
            assert r(int(p)) == int(p)


def test_reflection_swaps_other_classes(net_s3):
    # axis of class 3: classes 1 and 2 are exchanged
    r = bol_reflection(net_s3, LineRef(3, 0))
    v = is_collineation(net_s3, r)
    assert v.ok
    assert v.direction_action == (2, 1, 3)
    assert not v.direction_preserving
    assert line_image(v, LineRef(3, 0)) == LineRef(3, 0)


def test_group_net_reflections_are_collineations(net_s3):
    refl = all_bol_reflections(net_s3)
    assert len(refl) == 18
    for r in refl:
        assert is_collineation(net_s3, r).ok


def test_paige_net_reflection_sample(net2):
    # the full 360-reflection sweep is exercised by the acceptance suite
    for line in (LineRef(1, 0), LineRef(2, 5), LineRef(3, 37)):
        r = bol_reflection(net2, line)
        assert (r * r).is_identity()
        assert is_collineation(net2, r).ok


def test_nonmoufang_net_has_noncollinear_reflection(net5, loop5):
    assert not check_moufang(loop5, mode="full").passed
    verdicts = [is_collineation(net5, r) for r in all_bol_reflections(net5)]
    bad = [v for v in verdicts if not v.ok]
    assert len(bad) >= 1
    assert bad[0].failing_line is not None


def test_identity_is_direction_preserving(net_s3):
    v = is_collineation(net_s3, Permutation.identity(36))
    assert v.ok and v.direction_preserving
    for line in net_s3.lines():
        assert line_image(v, line) == line


def test_transposition_is_not_a_collineation(net_s3):
    img = np.arange(36, dtype=np.int32)
    img[[0, 7]] = img[[7, 0]]
    assert not is_collineation(net_s3, img).ok


def test_collineation_degree_checked(net_s3):
    with pytest.raises(DomainError):
        is_collineation(net_s3, Permutation.identity(35))


@pytest.mark.parametrize("axis", [LineRef(1, 7), LineRef(2, 500),
                                  LineRef(3, 1079)])
def test_paige3_net_reflections(paige3, axis):
    """On the net of M*(3), whose point ids pass 32,767, each class's Bol
    reflection is an involution that fixes its axis pointwise and sends
    lines to lines."""
    net = net_from_loop(paige3())
    assert net.num_points == 1080 ** 2
    r = bol_reflection(net, axis)
    assert r.images.max() == net.num_points - 1
    assert (r * r).is_identity()
    on_axis = net.line_points(axis)
    assert (r.images[on_axis] == on_axis).all()
    v = is_collineation(net, r)
    assert v.ok and line_image(v, axis) == axis
    # (x, y) -> (c / y, x \ c) for a class-3 axis, read off scalar divisions
    if axis.cls == 3:
        L, c = paige3(), axis.value
        for x, y in ((1079, 1078), (500, 3), (2, 1000)):
            assert net.point_coords(r(net.point(x, y))) == \
                (L.rdiv(c, y), L.ldiv(x, c))
