import ast
import itertools
import math
import random
from pathlib import Path

import pytest

from oligorep import permgrp
from oligorep.acceptance import CLASS_IDS

from oligorep.chartab import character_table

from oligorep.errors import (
    InvalidPermutation,
    InvariantViolation,
    NotASubgroup,
    SizeLimitExceeded,
)
from oligorep.finstruct import get_class
from oligorep.limits import get_limits
from oligorep.permgrp import (
    CosetAction,
    PermGroup,
    compose,
    cycle_type,
    from_cycles,
    identity,
    inverse,
    pack,
    perm_order,
    power,
    symmetric_group,
    unpack,
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
    assert PermGroup(4, []).order == 1


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


def test_elements_limit_guard(monkeypatch):
    # the table bound refuses S6 by its order, before any element is built
    monkeypatch.setenv("OLIGOREP_LIMITS", '{"table_order": 100}')
    G = symmetric_group(6)
    with pytest.raises(SizeLimitExceeded):
        character_table(G)
    assert G._packed is None


def test_a_corrupted_transversal_fails_the_element_count():
    # one coset rep replaced by another's repeats products, so the packed
    # list has fewer distinct elements than the order says
    G = symmetric_group(4)
    trans = G._transversals[0]
    first, second = list(trans)[1:3]
    trans[second] = trans[first]
    assert G.order == 24
    with pytest.raises(InvariantViolation):
        G.elements()


def stabilizer_of_0(n):
    """The stabilizer of 0 in S_n, n >= 3, as Sym({1, ..., n-1})."""
    return PermGroup(n, [from_cycles(n, [tuple(range(1, n))]),
                         from_cycles(n, [(1, 2)])])


def test_point_stabilizers_by_generators():
    S4 = symmetric_group(4).elements()
    S = stabilizer_of_0(4)
    assert S.order == 6
    assert set(S.elements()) == {g for g in S4 if g[0] == 0}
    S2 = PermGroup(4, [from_cycles(4, [(2, 3)])])
    assert set(S2.elements()) == {g for g in S4 if g[:2] == (0, 1)}
    S3 = PermGroup(4, [])
    assert set(S3.elements()) == {g for g in S4 if g[:3] == (0, 1, 2)}


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
        assert index[pack(c.rep)] == i
    counts = [0] * len(classes)
    for g in G.elements():
        counts[index[pack(g)]] += 1
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


def test_subgroups_order_guard(monkeypatch):
    monkeypatch.delenv("OLIGOREP_LIMITS", raising=False)
    with pytest.raises(SizeLimitExceeded):
        symmetric_group(7).subgroups_up_to_conjugacy()
    # the bound is read on each call, and refuses before any element is built
    monkeypatch.setenv("OLIGOREP_LIMITS", '{"subgroup_order": 23}')
    G = symmetric_group(4)
    with pytest.raises(SizeLimitExceeded):
        G.subgroups_up_to_conjugacy()
    assert G._packed is None
    monkeypatch.setenv("OLIGOREP_LIMITS", '{"subgroup_order": 24}')
    assert len(G.subgroups_up_to_conjugacy()) == 11


def test_coset_action():
    G = symmetric_group(3)
    K = PermGroup(3, [from_cycles(3, [(0, 1)])])
    act = CosetAction(G, K)
    assert act.size == 3
    assert act.character_value(identity(3)) == 3


def test_coset_action_character_is_fixed_points():
    G = symmetric_group(4)
    K = stabilizer_of_0(4)
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


def shift(g, degree):
    """g moved onto the top len(g) of ``degree`` points, fixing the rest."""
    low = degree - len(g)
    return tuple(range(low)) + tuple(low + x for x in g)


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_shifted_lattice_crosses_the_byte_boundary(name):
    # packed elements are bytes up to 256 points and code points past that;
    # the closures, conjugate orbits and coset skips must agree on both
    G = SMALL_GROUPS[name]()
    expected = [H.elements() for H in G.subgroups_up_to_conjugacy()]
    for big in (200, 256, 257, 300):
        shifted = PermGroup(big, [shift(g, big) for g in G.generators])
        assert [H.elements() for H in shifted.subgroups_up_to_conjugacy()] == [
            tuple(shift(g, big) for g in elems) for elems in expected]


def test_subgroups_d5():
    subs = dihedral_group(5).subgroups_up_to_conjugacy()
    assert [H.order for H in subs] == [1, 2, 5, 10]


def test_subgroups_s5():
    subs = symmetric_group(5).subgroups_up_to_conjugacy()
    assert len(subs) == 19  # OEIS A000638
    assert [H.order for H in subs] == [
        1, 2, 2, 3, 4, 4, 4, 5, 6, 6, 6, 8, 10, 12, 12, 20, 24, 60, 120]


def test_subgroups_s6():
    subs = symmetric_group(6).subgroups_up_to_conjugacy()
    assert len(subs) == 56  # OEIS A000638
    assert [H.order for H in subs] == [
        1, 2, 2, 2, 3, 3, 4, 4, 4, 4, 4, 4, 4, 5, 6, 6, 6, 6, 6, 6, 8, 8, 8,
        8, 8, 8, 8, 9, 10, 12, 12, 12, 12, 16, 18, 18, 18, 20, 24, 24, 24, 24,
        24, 24, 36, 36, 36, 48, 48, 60, 60, 72, 120, 120, 360, 720]


def test_s5_lattice_extends_once_per_normalizer_orbit(monkeypatch):
    # one closure per orbit of N(H) on the cosets gH of each class: 83,
    # where one per coset gH took 472
    calls = 0
    closure = permgrp._closure

    def counted(subgroup, gens):
        nonlocal calls
        calls += 1
        return closure(subgroup, gens)

    monkeypatch.setattr(permgrp, "_closure", counted)
    assert len(symmetric_group(5).subgroups_up_to_conjugacy()) == 19
    assert 0 < calls <= 83


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS) + ["S5"])
def test_normalizers_match_brute_force(name):
    G = SMALL_GROUPS[name]() if name in SMALL_GROUPS else symmetric_group(5)
    elems = G.elements()
    for H in G.subgroups_up_to_conjugacy():
        sub = frozenset(H.elements())
        norm = G._normalizer(frozenset(map(pack, sub)),
                             tuple(map(pack, H.reduced_generators)))
        assert len(norm) == len(set(norm))
        assert set(map(unpack, norm)) == {
            x for x in elems if conjugate_set(x, sub) == sub}
        conjugates = {conjugate_set(x, sub) for x in elems}
        assert G.order // len(norm) == len(conjugates)


def test_subgroups_gl32():
    cls = get_class("vector_space")
    base = next(b for b in cls.enumerate_class(3) if cls.size(b) == 3)
    G = cls.automorphisms(base)
    assert G.order == 168
    subs = G.subgroups_up_to_conjugacy()
    assert len(subs) == 15
    assert [H.order for H in subs] == [
        1, 2, 3, 4, 4, 4, 6, 7, 8, 12, 12, 21, 24, 24, 168]


def test_strong_generators_each_double_their_level():
    # a sifted residue lies outside its level's group, so each strong
    # generator at least doubles it: at most log2 of its order per level
    graph = get_class("graph")
    G = graph.automorphisms(graph.make(range(7), frozenset()))
    assert G.order == 5040
    for i, gens in enumerate(G._strong_gens):
        level_order = math.prod(len(t) for t in G._transversals[i:])
        assert len(gens) <= level_order.bit_length() - 1, i


# -- classes on the reduced generating set -------------------------------------

def vector_space_group(class_id, dim):
    cls = get_class(class_id)
    base = next(b for b in cls.enumerate_class(dim) if cls.size(b) == dim)
    return cls.automorphisms(base)


def class_check_groups():
    """Graph automorphism groups come with every element as a generator."""
    graph = get_class("graph")
    groups = {f"graph {b.points} {sorted(b.data)}": graph.automorphisms(b)
              for b in graph.enumerate_class(5)}
    groups["S5"] = symmetric_group(5)
    groups["GL(3,2)"] = vector_space_group("vector_space", 3)
    groups["GL(2,3)"] = vector_space_group("vector_space_q3", 2)
    return groups


def brute_classes(G):
    """Conjugacy classes by conjugating with every element of G."""
    elems = G.elements()
    pairs = [(x, inverse(x)) for x in elems]
    taken, classes = set(), []
    for g in elems:
        if g not in taken:
            members = frozenset(compose(x, compose(g, x_inv))
                                for x, x_inv in pairs)
            taken |= members
            classes.append(members)
    return sorted(classes, key=lambda c: (
        len(c), perm_order(min(c)), cycle_type(min(c)), min(c)))


def test_class_data_matches_brute_force():
    for name, G in class_check_groups().items():
        reduced = G.reduced_generators
        assert set(reduced) <= set(G.generators), name
        assert PermGroup(G.degree, reduced).order == G.order, name
        assert len(reduced) <= G.order.bit_length() - 1, name
        expected = brute_classes(G)
        classes, index = G.class_data()
        assert [c.rep for c in classes] == [min(m) for m in expected], name
        assert [c.size for c in classes] == [len(m) for m in expected], name
        assert [c.order for c in classes] == [
            perm_order(c.rep) for c in classes], name
        assert [c.cycle_type for c in classes] == [
            cycle_type(c.rep) for c in classes], name
        assert index == {pack(g): i for i, m in enumerate(expected)
                         for g in m}, name


def test_reduced_generators_keep_order_and_drop_redundant():
    t, c = from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])
    G = PermGroup(4, [identity(4), t, compose(t, t), c, compose(c, t), t])
    assert G.reduced_generators == (t, c)
    assert G.generators[0] == identity(4) and len(G.generators) == 6
    assert PermGroup(3, [identity(3)]).reduced_generators == ()


def two_generators(G):
    """The least pair of elements, in sorted order, that generates G."""
    elems = G.elements()
    return next([a, b] for a, b in itertools.combinations(elems, 2)
                if PermGroup(G.degree, [a, b]).order == G.order)


@pytest.mark.parametrize("name", ["S5", "GL(3,2)"])
def test_results_do_not_depend_on_generating_set(name):
    G = (symmetric_group(5) if name == "S5"
         else vector_space_group("vector_space", 3))
    every = PermGroup(G.degree, G.elements())
    pair = PermGroup(G.degree, two_generators(G))
    assert len(every.generators) == G.order and len(pair.generators) == 2

    def table_data(H):
        t = character_table(H)
        return t.exponent, t.prime, t.classes, t.degrees, t.rows

    assert table_data(every) == table_data(pair)
    assert ([H.elements() for H in every.subgroups_up_to_conjugacy()]
            == [H.elements() for H in pair.subgroups_up_to_conjugacy()])


# -- classes under the reduced generators ---------------------------------------

def catalog_groups():
    """Aut(B) of every nonempty base of the six default catalogs, one group
    per element set."""
    groups = {}
    for class_id in CLASS_IDS:
        cls = get_class(class_id)
        for base in cls.enumerate_class(get_limits().base_limit(class_id)):
            if base.points and not cls.is_fixed_only(base):
                G = cls.automorphisms(base)
                groups.setdefault((G.degree, tuple(G.packed_elements())), G)
    return list(groups.values())


def random_s6_subgroups(count=30):
    """Groups on 3 to 5 random elements of S6, each keeping a random
    partition of the points into blocks (one block: all of S6)."""
    rng = random.Random(6)
    groups = []
    for _ in range(count):
        points = rng.sample(range(6), 6)
        cuts = sorted(rng.sample(range(1, 6), rng.randint(0, 3)))
        blocks = [points[a:b] for a, b in zip([0] + cuts, cuts + [6])]
        gens = []
        for _ in range(rng.randint(3, 5)):
            g = list(range(6))
            for block in blocks:
                for x, y in zip(block, rng.sample(block, len(block))):
                    g[x] = y
            gens.append(tuple(g))
        groups.append(PermGroup(6, gens))
    return groups


def classes_under(G, gens):
    """Class data of a fresh copy of G closed under conjugation by ``gens``."""
    H = PermGroup(G.degree, G.generators)
    H._conjugators = lambda: [(pack(s), pack(inverse(s))) for s in gens]
    return H.class_data()


def test_conjugators_are_the_reduced_generators_and_give_the_classes():
    c2_cubed = PermGroup(6, [from_cycles(6, [(i, i + 1)]) for i in (0, 2, 4)])
    groups = catalog_groups() + random_s6_subgroups() + [c2_cubed]
    for G in groups:
        conjugators = [unpack(s) for s, _ in G._conjugators()]
        assert conjugators == list(G.reduced_generators)
        assert PermGroup(G.degree, conjugators).order == G.order
        classes, index = G.class_data()
        assert (classes, index) == classes_under(G, G.reduced_generators)
        if G.order <= 120:
            expected = brute_classes(G)
            assert [c.rep for c in classes] == [min(m) for m in expected]
            assert [c.size for c in classes] == [len(m) for m in expected]
            assert index == {pack(g): i for i, m in enumerate(expected)
                             for g in m}
    assert len(c2_cubed.reduced_generators) == len(c2_cubed._conjugators()) == 3


def elementary_generators(cls, dim):
    """Every elementary transvection I + E_ij and, over GF(3),
    diag(2, 1, ..., 1), as permutations of the canonical space: a
    generating set of GL(dim, q) other than the class's own two matrices."""
    mats = []
    for i, j in itertools.permutations(range(dim), 2):
        m = [[int(r == c) for c in range(dim)] for r in range(dim)]
        m[i][j] = 1
        mats.append(m)
    if cls.q > 2:
        m = [[int(r == c) for c in range(dim)] for r in range(dim)]
        m[0][0] = cls.q - 1
        mats.append(m)
    return [cls._matrix_perm(m, dim) for m in mats]


@pytest.mark.parametrize("class_id, dim, num_classes", [
    ("vector_space", 4, 14), ("vector_space_q3", 3, 24)])
def test_general_linear_classes_close_under_two_generators(
        class_id, dim, num_classes):
    # the largest tables' groups, GL(4,2) and GL(3,3), close their classes
    # under two matrices and get the data every elementary transvection
    # gives
    cls = get_class(class_id)
    G = vector_space_group(class_id, dim)
    assert len(G.reduced_generators) == len(G._conjugators()) == 2
    classes, index = G.class_data()
    assert len(classes) == num_classes
    assert (classes, index) == classes_under(G, elementary_generators(cls, dim))


def test_s4_on_three_transpositions_closes_its_classes_under_all_three():
    # conjugation by the S3 fixing point 3 alone would split the classes
    G = PermGroup(4, [from_cycles(4, [(i, i + 1)]) for i in range(3)])
    assert len(G.reduced_generators) == 3
    conjugators = [unpack(s) for s, _ in G._conjugators()]
    assert conjugators == list(G.reduced_generators)
    expected = brute_classes(G)
    assert [c.size for c in G.conjugacy_classes()] == [1, 3, 6, 6, 8]
    assert G.class_data()[1] == {pack(g): i for i, m in enumerate(expected)
                                 for g in m}


@pytest.mark.parametrize("module", ["permgrp", "chartab", "finstruct", "oligo"])
def test_the_group_and_table_layers_import_nothing_from_random(module):
    # catalogs, tables and lattices are reproducible because nothing in
    # these modules is drawn at random
    path = Path(permgrp.__file__).with_name(f"{module}.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "random" not in imported
