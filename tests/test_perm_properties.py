"""Property tests for permutation products; skipped without hypothesis."""

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
