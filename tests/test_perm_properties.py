"""Property tests for permutation products and stabilizer chains; skipped
without hypothesis."""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oligorep.permgrp import (  # noqa: E402
    PermGroup,
    compose,
    cycle_type,
    identity,
    inverse,
    pack,
    perm_order,
    table,
    unpack,
)

MAX_DEGREE = 9


@st.composite
def perms(draw, count):
    degree = draw(st.integers(min_value=1, max_value=MAX_DEGREE))
    return [tuple(draw(st.permutations(range(degree))))
            for _ in range(count)]


@hypothesis.given(perms(3))
def test_compose_is_associative(triple):
    a, b, c = triple
    assert compose(a, compose(b, c)) == compose(compose(a, b), c)


@hypothesis.given(perms(1))
def test_inverse_is_two_sided(single):
    (g,) = single
    assert compose(g, inverse(g)) == identity(len(g))
    assert compose(inverse(g), g) == identity(len(g))


@hypothesis.given(perms(2))
def test_one_pass_conjugation(pair):
    s, g = pair
    hypothesis.assume(s != identity(len(s)))
    ((s_packed, s_inv),) = PermGroup(len(s), [s])._conjugators()
    assert (s_inv.translate(table(pack(g).translate(table(s_packed))))
            == pack(compose(s, compose(g, inverse(s)))))


@st.composite
def boundary_perms(draw, count):
    """Permutations on 1-40 or on 250-300 points, on both sides of the
    switch from bytes to code points at 256."""
    degree = draw(st.one_of(st.integers(min_value=1, max_value=40),
                            st.integers(min_value=250, max_value=300)))
    return [tuple(draw(st.permutations(range(degree))))
            for _ in range(count)]


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(boundary_perms(3))
def test_packing_at_the_byte_boundary(triple):
    g, x, y = triple
    assert pack(x).translate(table(pack(g))) == pack(compose(g, x))
    assert unpack(pack(g)) == g
    # a neighbour sharing all but the last two points with g
    near = g[:-2] + g[:-3:-1]
    perms = [g, x, y, near]
    assert [unpack(p) for p in sorted(map(pack, perms))] == sorted(perms)


def closure(degree, gens):
    """Every product of the generators, by breadth-first search."""
    elems = {identity(degree)}
    queue = list(elems)
    for x in queue:
        for g in gens:
            y = compose(g, x)
            if y not in elems:
                elems.add(y)
                queue.append(y)
    return elems


def greedy_reduced(degree, gens):
    """Reference: keep each generator outside the group of those kept before,
    rebuilding that group after every generator kept."""
    kept = []
    for g in gens:
        if g not in PermGroup(degree, kept):
            kept.append(g)
    return tuple(kept)


@st.composite
def generator_lists(draw):
    degree = draw(st.integers(min_value=1, max_value=6))
    count = draw(st.integers(min_value=0, max_value=5))
    return degree, [tuple(draw(st.permutations(range(degree))))
                    for _ in range(count)]


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(generator_lists())
def test_chain_matches_brute_closure(case):
    degree, gens = case
    G = PermGroup(degree, gens)
    elems = closure(degree, gens)
    assert G.order == len(elems)
    assert G.elements() == tuple(sorted(elems))
    for p in itertools.permutations(range(degree)):
        assert (p in G) == (p in elems)
    assert G.reduced_generators == greedy_reduced(degree, gens)


def brute_class_index(degree, gens):
    """Class of each element, by conjugating each class's least member with
    every element; classes ranked by (size, order, cycle type, least)."""
    elems = sorted(closure(degree, gens))
    taken, classes = set(), []
    for g in elems:
        if g not in taken:
            members = {compose(x, compose(g, inverse(x))) for x in elems}
            taken |= members
            classes.append(members)
    classes.sort(key=lambda c: (
        len(c), perm_order(min(c)), cycle_type(min(c)), min(c)))
    return classes, {g: i for i, c in enumerate(classes) for g in c}


def shift(g, degree):
    """g moved onto the top len(g) of ``degree`` points, fixing the rest."""
    low = degree - len(g)
    return tuple(range(low)) + tuple(low + x for x in g)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(generator_lists())
def test_classes_match_brute_conjugation(case):
    degree, gens = case
    G = PermGroup(degree, gens)
    expected, where = brute_class_index(degree, gens)
    classes, index = G.class_data()
    assert [c.rep for c in classes] == [min(c) for c in expected]
    assert [c.size for c in classes] == [len(c) for c in expected]
    assert index == {pack(g): t for g, t in where.items()}
    # bytes up to 256 points, code points past that: both sides of the
    # switch give the same classes
    for big in (200, 256, 257, 300):
        H = PermGroup(big, [shift(g, big) for g in gens])
        big_classes, big_index = H.class_data()
        assert [c.rep for c in big_classes] == [
            shift(c.rep, big) for c in classes]
        assert [(c.size, c.order) for c in big_classes] == [
            (c.size, c.order) for c in classes]
        assert [c.cycle_type for c in big_classes] == [
            c.cycle_type + (1,) * (big - degree) for c in classes]
        assert big_index == {pack(shift(g, big)): t
                             for g, t in where.items()}
