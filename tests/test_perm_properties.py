"""Property tests for permutation products and stabilizer chains; skipped
without hypothesis."""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oligorep.permgrp import PermGroup, compose, identity, inverse  # noqa: E402

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
    ((s_at, s_inv),) = PermGroup(len(s), [s])._conjugators()
    assert (tuple(map(s_at, map(g.__getitem__, s_inv)))
            == compose(s, compose(g, inverse(s))))


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
