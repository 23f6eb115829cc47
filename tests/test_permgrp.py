import itertools

import pytest

from oligorep.errors import InvalidPermutation, NotASubgroup, SizeLimitExceeded
from oligorep.finstruct import get_class
from oligorep.permgrp import (
    CosetAction,
    PermGroup,
    compose,
    cycle_type,
    from_cycles,
    identity,
    inverse,
    perm_order,
    power,
    symmetric_group,
    trivial_group,
    validate_perm,
)


def brute_closure(degree, gens):
    """Independent oracle: naive closure by repeated multiplication."""
    elems = {identity(degree)}
    frontier = set(gens)
    elems |= frontier
    while frontier:
        new = set()
        for g in frontier:
            for h in list(elems):
                for p in (compose(g, h), compose(h, g)):
                    if p not in elems:
                        new.add(p)
        elems |= new
        frontier = new
    return elems


def test_compose_convention():
    g = (1, 2, 0)   # 0 -> 1 -> 2 -> 0
    h = (1, 0, 2)   # swap 0, 1
    # (g h)(0) = g(h(0)) = g(1) = 2
    assert compose(g, h) == (2, 1, 0)
    assert compose(h, g) == (0, 2, 1)


def test_inverse_power():
    g = (1, 2, 3, 0)
    assert compose(g, inverse(g)) == identity(4)
    assert power(g, 4) == identity(4)
    assert power(g, -1) == inverse(g)
    assert power(g, 0) == identity(4)
    assert power(g, 5) == g


def test_cycle_type_and_order():
    assert cycle_type(identity(4)) == (1, 1, 1, 1)
    assert cycle_type((1, 0, 3, 2)) == (2, 2)
    assert cycle_type((1, 2, 3, 0)) == (4,)
    assert perm_order((1, 2, 3, 0)) == 4
    assert perm_order((1, 0, 3, 2)) == 2
    assert perm_order(identity(5)) == 1


def test_from_cycles():
    assert from_cycles(4, [(0, 1, 2)]) == (1, 2, 0, 3)
    assert from_cycles(3, [(0, 1), (2,)]) == (1, 0, 2)
    assert from_cycles(5, [(0, 1), (2, 3)]) == (1, 0, 3, 2, 4)


def test_validate_perm():
    assert validate_perm([1, 0], 2) == (1, 0)
    with pytest.raises(InvalidPermutation):
        validate_perm((0, 0), 2)
    with pytest.raises(InvalidPermutation):
        validate_perm((0, 1), 3)


def test_symmetric_group_orders():
    for n in range(1, 7):
        assert symmetric_group(n).order == __import__("math").factorial(n)
    assert trivial_group(4).order == 1


def test_elements_match_brute_closure():
    gens = [from_cycles(4, [(0, 1, 2)]), from_cycles(4, [(1, 2, 3)])]
    G = PermGroup(4, gens)
    assert G.order == 12  # alternating group
    assert set(G.elements()) == brute_closure(4, gens)

    gens = [from_cycles(5, [(0, 1, 2, 3, 4)]), from_cycles(5, [(0, 1)])]
    G = PermGroup(5, gens)
    assert set(G.elements()) == brute_closure(5, gens)
    assert G.elements() == tuple(sorted(G.elements()))


def test_membership():
    G = symmetric_group(4)
    A = PermGroup(4, [from_cycles(4, [(0, 1, 2)]), from_cycles(4, [(1, 2, 3)])])
    assert from_cycles(4, [(0, 1)]) in G
    assert from_cycles(4, [(0, 1)]) not in A
    assert from_cycles(4, [(0, 1), (2, 3)]) in A
    assert (0, 1) not in A  # wrong degree


def test_elements_limit_guard():
    G = symmetric_group(6)
    with pytest.raises(SizeLimitExceeded):
        G.elements(limit=100)


def test_orbit():
    G = PermGroup(5, [from_cycles(5, [(0, 1, 2)])])
    assert G.orbit(0) == (0, 1, 2)
    assert G.orbit(3) == (3,)


def test_pointwise_stabilizer():
    G = symmetric_group(4)
    S = G.pointwise_stabilizer([0])
    assert S.order == 6
    assert all(g[0] == 0 for g in S.elements())
    S2 = G.pointwise_stabilizer([0, 1])
    assert S2.order == 2
    S3 = G.pointwise_stabilizer([0, 1, 2])
    assert S3.order == 1


def test_conjugacy_classes_s3():
    G = symmetric_group(3)
    classes = G.conjugacy_classes()
    assert [c.size for c in classes] == [1, 2, 3]
    assert [c.order for c in classes] == [1, 3, 2]
    assert classes[0].rep == identity(3)
    assert sum(c.size for c in classes) == 6


def test_conjugacy_classes_s4():
    G = symmetric_group(4)
    classes = G.conjugacy_classes()
    # sorted by (size, element order, cycle type, rep)
    assert [c.size for c in classes] == [1, 3, 6, 6, 8]
    assert [c.cycle_type for c in classes] == [
        (1, 1, 1, 1),
        (2, 2),
        (2, 1, 1),
        (4,),
        (3, 1),
    ]


def test_class_index_consistent():
    G = symmetric_group(4)
    classes, index = G.class_data()
    for i, c in enumerate(classes):
        assert index[c.rep] == i
    counts = [0] * len(classes)
    for g in G.elements():
        counts[index[g]] += 1
    assert counts == [c.size for c in classes]


def test_subgroups_s3():
    G = symmetric_group(3)
    subs = G.subgroups_up_to_conjugacy()
    # trivial, <(01)>, <(012)>, S3
    assert sorted(H.order for H in subs) == [1, 2, 3, 6]


def test_subgroups_a4():
    A = PermGroup(4, [from_cycles(4, [(0, 1, 2)]), from_cycles(4, [(1, 2, 3)])])
    subs = A.subgroups_up_to_conjugacy()
    # trivial, C2, C3, V4, A4; note V4 is not generated by any single element
    # yet must be found (it is generated by two elements of order 2)
    assert sorted(H.order for H in subs) == [1, 2, 3, 4, 12]


def test_subgroups_s4():
    G = symmetric_group(4)
    subs = G.subgroups_up_to_conjugacy()
    assert len(subs) == 11
    assert sorted(H.order for H in subs) == [1, 2, 2, 3, 4, 4, 4, 6, 8, 12, 24]


def test_subgroups_order_guard():
    G = symmetric_group(7)
    with pytest.raises(SizeLimitExceeded):
        G.subgroups_up_to_conjugacy(limit=2000)


def test_coset_action():
    G = symmetric_group(3)
    K = PermGroup(3, [from_cycles(3, [(0, 1)])])
    act = CosetAction(G, K)
    assert act.size == 3
    assert act.act(identity(3)) == (0, 1, 2)
    # the action is by permutations and multiplicative
    g = from_cycles(3, [(0, 1, 2)])
    h = from_cycles(3, [(0, 1)])
    pg, ph = act.act(g), act.act(h)
    assert act.act(compose(g, h)) == compose(pg, ph)
    assert act.character_value(identity(3)) == 3


def test_coset_action_character_is_fixed_points():
    G = symmetric_group(4)
    K = G.pointwise_stabilizer([0])
    act = CosetAction(G, K)
    assert act.size == 4
    # G/Stab(0) is the natural action: fixed cosets = fixed points
    for g in G.elements():
        assert act.character_value(g) == sum(1 for i in range(4) if g[i] == i)


def test_coset_action_rejects_non_subgroup():
    G = PermGroup(4, [from_cycles(4, [(0, 1, 2)]), from_cycles(4, [(1, 2, 3)])])
    K = PermGroup(4, [from_cycles(4, [(0, 1)])])
    with pytest.raises(NotASubgroup):
        CosetAction(G, K)


def test_chain_deterministic():
    gens = [from_cycles(5, [(0, 1, 2, 3, 4)]), from_cycles(5, [(0, 1)])]
    G1 = PermGroup(5, gens)
    G2 = PermGroup(5, gens)
    assert G1._base == G2._base
    assert G1._transversals == G2._transversals
    assert G1.elements() == G2.elements()


def test_all_subgroup_reps_are_subgroups():
    G = symmetric_group(4)
    for H in G.subgroups_up_to_conjugacy():
        for g in H.elements():
            assert g in G
        # closure sanity
        elems = set(H.elements())
        for a, b in itertools.product(list(elems)[:6], repeat=2):
            assert compose(a, b) in elems


def dihedral_group(n):
    """Symmetries of the n-gon on its vertices, of order 2n."""
    rotation = from_cycles(n, [tuple(range(n))])
    reflection = tuple((-i) % n for i in range(n))
    return PermGroup(n, [rotation, reflection])


SMALL_GROUPS = {
    "S4": lambda: symmetric_group(4),
    "A4": lambda: PermGroup(4, [from_cycles(4, [(0, 1, 2)]),
                                from_cycles(4, [(1, 2, 3)])]),
    "D5": lambda: dihedral_group(5),
}


def conjugate_set(x, elems):
    x_inv = inverse(x)
    return frozenset(compose(x, compose(g, x_inv)) for g in elems)


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_subgroup_reps_match_brute_closure(name):
    G = SMALL_GROUPS[name]()
    for H in G.subgroups_up_to_conjugacy():
        elems = set(H.elements())
        assert elems == brute_closure(G.degree, H.generators)
        assert elems <= set(G.elements())


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_subgroup_reps_are_least_in_their_class(name):
    G = SMALL_GROUPS[name]()
    subs = G.subgroups_up_to_conjugacy()
    classes = set()
    for H in subs:
        elems = frozenset(H.elements())
        conjugates = frozenset(conjugate_set(x, elems) for x in G.elements())
        assert min(conjugates, key=sorted) == elems
        classes.add(conjugates)
    assert len(classes) == len(subs)


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_subgroup_classes_match_brute_force(name):
    # every subgroup of these groups is generated by two elements
    G = SMALL_GROUPS[name]()
    elems = G.elements()
    subgroups = {frozenset(brute_closure(G.degree, pair))
                 for pair in itertools.combinations_with_replacement(elems, 2)}
    reps = {min((conjugate_set(x, H) for x in elems), key=sorted)
            for H in subgroups}
    expected = sorted((tuple(sorted(r)) for r in reps),
                      key=lambda rep: (len(rep), rep))
    assert [H.elements() for H in G.subgroups_up_to_conjugacy()] == expected


def test_subgroups_d5():
    subs = dihedral_group(5).subgroups_up_to_conjugacy()
    assert [H.order for H in subs] == [1, 2, 5, 10]


def test_subgroups_s5():
    subs = symmetric_group(5).subgroups_up_to_conjugacy()
    assert len(subs) == 19  # OEIS A000638
    assert [H.order for H in subs] == [
        1, 2, 2, 3, 4, 4, 4, 5, 6, 6, 6, 8, 10, 12, 12, 20, 24, 60, 120]


def test_subgroups_gl32():
    cls = get_class("vector_space")
    base = next(b for b in cls.enumerate_class(3) if cls.size(b) == 3)
    G = cls.automorphisms(base)
    assert G.order == 168
    subs = G.subgroups_up_to_conjugacy()
    assert len(subs) == 15
    assert [H.order for H in subs] == [
        1, 2, 3, 4, 4, 4, 6, 7, 8, 12, 12, 21, 24, 24, 168]
