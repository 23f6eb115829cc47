"""Property tests for cyclotomic arithmetic and the shared ``decompose``;
skipped without hypothesis."""

import math
from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oligorep.chartab import (  # noqa: E402
    Cyc,
    character_table,
    symmetric_character_table,
)
from oligorep.permgrp import PermGroup, from_cycles, symmetric_group  # noqa: E402

MAX_ORDER = 30


@st.composite
def cycs(draw, count):
    """``count`` elements of one Z[zeta_e], each a short sum of roots."""
    e = draw(st.integers(min_value=1, max_value=MAX_ORDER))
    out = []
    for _ in range(count):
        x = Cyc.from_int(e, 0)
        for k, c in draw(st.lists(st.tuples(st.integers(0, e - 1),
                                            st.integers(-5, 5)),
                                  max_size=5)):
            x = x + Cyc.root(e, k) * c
        out.append(x)
    return out


@hypothesis.given(cycs(3))
def test_addition_is_associative_and_commutative(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a - b) + b == a


@hypothesis.given(cycs(3))
def test_multiplication_is_associative_and_commutative(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@hypothesis.given(cycs(3))
def test_multiplication_distributes_over_addition(triple):
    a, b, c = triple
    assert a * (b + c) == a * b + a * c


@hypothesis.given(cycs(1))
def test_conj_is_an_involution(single):
    (a,) = single
    assert a.conj().conj() == a


@hypothesis.given(cycs(2), st.integers(min_value=1, max_value=2 * MAX_ORDER))
def test_galois_is_a_ring_homomorphism(pair, j):
    a, b = pair
    hypothesis.assume(math.gcd(j, a.e) == 1)
    assert (a * b).galois(j) == a.galois(j) * b.galois(j)
    assert (a + b).galois(j) == a.galois(j) + b.galois(j)


@pytest.mark.parametrize("e", range(1, MAX_ORDER + 1))
def test_roots_of_unity(e):
    z = Cyc.root(e, 1)
    power = Cyc.from_int(e, 1)
    total = Cyc.from_int(e, 0)
    for _ in range(e):
        total = total + power
        power = power * z
    assert power == 1
    assert total == (1 if e == 1 else 0)


@lru_cache(maxsize=None)
def _table(name):
    if name == "S4":
        return character_table(symmetric_group(4))
    if name == "C5":
        return character_table(PermGroup(5, [from_cycles(5, [tuple(range(5))])]))
    return symmetric_character_table(6)


@hypothesis.given(st.sampled_from(["S4", "C5", "sym6"]), st.data())
def test_decompose_inverts_row_combinations(name, data):
    t = _table(name)
    mults = tuple(data.draw(st.lists(st.integers(0, 6), min_size=t.num_classes,
                                     max_size=t.num_classes)))
    values = tuple(
        sum((t.value(i, c) * m for i, m in enumerate(mults)), 0)
        for c in range(t.num_classes))
    assert t.decompose(values) == mults
