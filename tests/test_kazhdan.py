import ast
import itertools
import random
import sys
import time
import tracemalloc
from array import array
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

import pytest

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # the property test below is skipped
    hypothesis = None

from oligorep import kazhdan
from oligorep.errors import (
    FreenessViolation,
    InvariantViolation,
    MalformedStructure,
    NoAlgebraicityRequired,
    SizeLimitExceeded,
    SupportOutsideEnumeration,
)
from oligorep.kazhdan import (
    ClopenF2Action,
    _LinearRealizer,
    _realizer_for,
    Distribution,
    RadoF2Action,
    VectorSpaceF2Action,
    build_tree,
    cayley_edge_invariance,
    cayley_extension_check,
    _extension_witnessed,
    f2_embedding,
    freeness_check,
    greedy_witness,
    l1_displacement,
    l1_l2_transfer,
    marginal_check,
    order_axioms_check,
    partial_displacement,
    random_distribution,
)
from oligorep.words import (
    EMPTY, _mix_lanes, ball, inv, mult, word_int, word_key)


def seeded_distribution(seed, points=range(6), max_support=4):
    """A distribution on at most ``max_support`` of ``points``, drawn as
    ``random_distribution`` draws one on all of them."""
    rng = random.Random(seed)
    support = rng.sample(list(points), rng.randint(1, max_support))
    raw = [rng.randint(1, 16) for _ in support]
    return Distribution({p: Fraction(k, sum(raw))
                         for p, k in zip(support, raw)})


def test_distribution_validation():
    d = Distribution({0: Fraction(1, 2), 3: Fraction(1, 2)})
    assert d[0] == Fraction(1, 2)
    assert d[1] == 0
    assert d.support() == {0, 3}
    with pytest.raises(MalformedStructure):
        Distribution({0: Fraction(1, 2)})
    with pytest.raises(MalformedStructure):
        Distribution({0: Fraction(3, 2), 1: Fraction(-1, 2)})


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
def test_distributions_keep_mass_one():
    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.integers(min_value=0, max_value=10 ** 6),
                      st.integers(min_value=1, max_value=8),
                      st.lists(st.integers(min_value=0, max_value=20),
                               min_size=1, max_size=6))
    def check(seed, n_points, raw):
        d = random_distribution(random.Random(seed), range(n_points))
        assert sum(d.weights.values()) == 1
        assert d.support() <= set(range(n_points))
        total = sum(raw)
        if total:
            Distribution({i: Fraction(k, total) for i, k in enumerate(raw)})
        skewed = {i: Fraction(k, total + 1) for i, k in enumerate(raw)}
        with pytest.raises(MalformedStructure):
            Distribution(skewed)
    check()


def test_displacement_helpers():
    f = Distribution({0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert partial_displacement(f, {0: 0, 1: 1}) == 0
    assert partial_displacement(f, {0: 5}) == Fraction(1, 2)
    g = {(0, 1): Fraction(1)}
    assert l1_displacement(g, {0: 0, 1: 1}) == 0
    assert l1_displacement(g, {0: 1, 1: 0}) == 2


# --- the back-and-forth trees -----------------------------------------------


def test_tree_level_sizes_without_reuse():
    # fresh witness points never collide with the enumeration, so no node
    # ever persists and every level splits fully
    tree = build_tree("pure_set", 6)
    assert tree.level_sizes() == [1, 4, 16, 128, 1024, 16384]
    assert tree.node_count == 17557
    tree = build_tree("graph", 4)
    assert tree.level_sizes() == [1, 4, 16, 128]
    assert tree.enumeration == [0, 1]


def test_tree_verification_all_relational_classes():
    for cls in ("pure_set", "linear_order", "graph"):
        tree = build_tree(cls, 6)
        report = tree.verify()
        assert report["ok"], (cls, report)
        assert report["1_root"]
        assert report["2_unique_parent"]
        assert report["3_covers_enumeration"]
        assert report["4_intersection_bound"]
        assert report["5_range_splitting"]
        assert report["6_domain_splitting"]
        assert report["partial_automorphisms"]


def test_tree_interleaved_realization_persists_nodes():
    tree = build_tree("pure_set", 6, interleave=True)
    report = tree.verify()
    assert report["ok"], report
    # witness points drawn from the enumeration make some extensions
    # trivial, so the interleaved tree is strictly smaller
    assert tree.node_count < 17557
    assert tree.level_sizes()[:3] == [1, 4, 16]


def test_tree_needs_no_algebraicity():
    for cls in ("vector_space", "vector_space_q3", "boolean_algebra"):
        with pytest.raises(NoAlgebraicityRequired):
            build_tree(cls, 4)


def test_tree_input_validation(monkeypatch):
    with pytest.raises(MalformedStructure):
        build_tree("pure_set", 0)
    with pytest.raises(MalformedStructure):
        build_tree("linear_order", 4, interleave=True)
    monkeypatch.setenv("OLIGOREP_LIMITS", '{"tree_nodes": 100}')
    with pytest.raises(SizeLimitExceeded):
        build_tree("pure_set", 6)


@pytest.fixture
def built(monkeypatch):
    """The parents of the tree nodes built while the test runs."""
    parents = []

    class CountingNode(kazhdan._TreeNode):
        __slots__ = ()

        def __init__(self, parent, pair=None):
            parents.append(parent)
            super().__init__(parent, pair)

    monkeypatch.setattr(kazhdan, "_TreeNode", CountingNode)
    return parents


def test_tree_budget_refuses_within_one_parent(monkeypatch, built):
    # the budget is checked against the closed-form count before the
    # first node: level 5 takes the total to 1173 nodes, past 200
    monkeypatch.setenv("OLIGOREP_LIMITS", '{"tree_nodes": 200}')
    with pytest.raises(SizeLimitExceeded):
        build_tree("pure_set", 8)
    assert built == []


def closed_form_sizes(depth):
    """Level k of a tree without interleaving multiplies the level above by
    2^(k//2+1): 2^(n+1) children at a_n, n = k // 2, on either side."""
    sizes = [1]
    for k in range(2, depth + 1):
        sizes.append(sizes[-1] * 2 ** (k // 2 + 1))
    return sizes


def test_level_sizes_follow_the_closed_form():
    # exact without interleaving, an upper bound with it; the count here is
    # made apart from build_tree's own
    assert list(itertools.accumulate(closed_form_sizes(8))) == [
        1, 5, 21, 149, 1173, 17557, 279701, 8668309]
    for cls in ("pure_set", "linear_order", "graph"):
        for depth in range(1, 7):
            assert build_tree(cls, depth).level_sizes() == \
                closed_form_sizes(depth), (cls, depth)
    sizes = build_tree("pure_set", 6, interleave=True).level_sizes()
    bounds = closed_form_sizes(6)
    assert len(sizes) == len(bounds)
    assert all(got <= bound for got, bound in zip(sizes, bounds))
    assert sum(sizes) == 8382 < sum(bounds)


@pytest.mark.parametrize("cls, interleave", [
    ("pure_set", False), ("linear_order", False), ("graph", False),
    ("pure_set", True)])
def test_depth_eight_is_refused_before_any_node(monkeypatch, built, cls,
                                                interleave):
    # 279 701 nodes through level 7 fit the default budget, 8 668 309
    # through level 8 do not; no node is built to find that out
    def refusal_seconds():
        start = time.perf_counter()
        with pytest.raises(SizeLimitExceeded) as info:
            build_tree(cls, 8, interleave)
        assert str(info.value) == ("tree would exceed 400000 nodes at "
                                   "level 8; lower the depth")
        return time.perf_counter() - start

    monkeypatch.delenv("OLIGOREP_LIMITS", raising=False)
    assert min(refusal_seconds() for _ in range(3)) < 0.01
    assert built == []


def _items(node):
    return frozenset(node.mapping.items())


def _is_partial_automorphism(cls, realizer, mapping):
    if len(set(mapping.values())) != len(mapping):
        return False
    if cls == "linear_order":
        pairs = sorted(mapping.items())
        return all(p[1] < q[1] for p, q in zip(pairs, pairs[1:]))
    if cls == "graph":
        adjacent = realizer.adjacent
        return all(adjacent(x, y) == adjacent(mapping[x], mapping[y])
                   for x, y in itertools.combinations(mapping, 2))
    return True


# -2, -7/4, ..., 2 as Fractions and as the dense order's scaled ints
_QUARTER = _LinearRealizer(stages=3).unit // 4
_QUARTERS = [[Fraction(k, 4) for k in range(-8, 9)],
             [k * _QUARTER for k in range(-8, 9)]]
_EXTENSION_POINTS = {
    "pure_set": [list(range(10))],
    "linear_order": _QUARTERS,
    "graph": [list(range(16))],
}


@pytest.mark.parametrize("cls", sorted(_EXTENSION_POINTS))
def test_extends_at_matches_the_pairwise_rule(cls):
    # the one-sided test of each realizer, both ways round, against the
    # reference rule on the extended map; parents are random partial
    # automorphisms, and a may already lie on its side
    for points in _EXTENSION_POINTS[cls]:
        _check_extends_at(cls, points)


def _check_extends_at(cls, points):
    realizer = _realizer_for(cls, False)
    rng = random.Random(cls)

    def extends(mapping, x, y):
        return x not in mapping and _is_partial_automorphism(
            cls, realizer, {**mapping, x: y})

    outcomes = {True: set(), False: set()}
    for _ in range(1500):
        mapping = {}
        for x in rng.sample(points, rng.randint(0, 5)):
            y = rng.choice(points)
            if extends(mapping, x, y):
                mapping[x] = y
        a = rng.choice(points)
        for even in (True, False):
            fits = realizer.extends_at(mapping, a, even)
            for b in rng.sample(points, 4):
                expected = extends(mapping, *((a, b) if even else (b, a)))
                assert fits(b) == expected, (mapping, a, b, even)
                outcomes[even].add(expected)
    assert outcomes == {True: {True, False}, False: {True, False}}


def _all_pairs_rule(mapping, x, y):
    # x -> y keeps the order with every pair of mapping, pair by pair
    return x not in mapping and all(
        v < y if u < x else v > y for u, v in mapping.items())


def _order_preserving_mapping(rng, points):
    domain = sorted(rng.sample(points, rng.randint(0, 5)))
    return dict(zip(domain, sorted(rng.sample(points, len(domain)))))


def test_linear_extends_matches_the_all_pairs_rule():
    # the gap rule against the rule it replaced, both ways round, on
    # order-preserving mappings and new pairs that may reuse either end
    for points in _QUARTERS:
        _check_linear_extends(points)


def _check_linear_extends(points):
    rng = random.Random(7)
    realizer = _LinearRealizer()
    outcomes = set()
    for _ in range(3000):
        mapping = _order_preserving_mapping(rng, points)
        x, y = rng.choice(points), rng.choice(points)
        expected = _all_pairs_rule(mapping, x, y)
        assert realizer.extends_at(mapping, x, True)(y) == expected, (
            mapping, x, y)
        assert realizer.extends_at(mapping, y, False)(x) == expected, (
            mapping, x, y)
        outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("even", [True, False])
def test_linear_extends_at_matches_extends_on_order_preserving_parents(even):
    # one gap per parent, tested on several new ends b of a pair at a
    # (a -> b when even, b -> a otherwise), against the all-pairs rule
    for points in _QUARTERS:
        _check_linear_extends_at(points, even)


def _check_linear_extends_at(points, even):
    rng = random.Random(even)
    realizer = _LinearRealizer()
    outcomes = set()
    for _ in range(3000):
        mapping = _order_preserving_mapping(rng, points)
        a = rng.choice(points)
        fits = realizer.extends_at(mapping, a, even)
        for _ in range(5):
            b = rng.choice(points)
            x, y = (a, b) if even else (b, a)
            expected = _all_pairs_rule(mapping, x, y)
            assert fits(b) == expected, (mapping, a, b)
            outcomes.add(expected)
    assert outcomes == {True, False}


def _exhaustive_splitting_ok(tree, even):
    enum = tree.enumeration
    for i in range(1, len(tree.levels)):
        number = i + 1
        if (number % 2 == 0) != even:
            continue
        n = number // 2
        a = enum[n - 1]
        children = {}
        for node in tree.levels[i]:
            children.setdefault(id(node.parent), []).append(node)
        for parent in tree.levels[i - 1]:
            kids = children.get(id(parent), [])
            mapping = parent.mapping
            ran = set(mapping.values())
            present = a in mapping if even else a in ran
            if present:
                if len(kids) != 1 or kids[0].mapping != mapping:
                    return False
                continue
            if len(kids) != 2 ** (n + 1):
                return False
            core = ran if even else set(mapping)
            for kid in kids:
                if not _items(kid) >= _items(parent):
                    return False
            for k1, k2 in itertools.combinations(kids, 2):
                s1 = set(k1.mapping.values()) if even else set(k1.mapping)
                s2 = set(k2.mapping.values()) if even else set(k2.mapping)
                if s1 & s2 != core:
                    return False
    return True


def exhaustive_verify(tree):
    """The six conditions and validity checked pair by pair over whole
    levels, every subset of every node searched for parents: the reference
    for the parent-relative ``KazhdanTree.verify``."""
    enum = tree.enumeration
    report = {}
    report["1_root"] = (
        len(tree.levels[0]) == 1 and tree.levels[0][0].mapping == {})
    report["partial_automorphisms"] = all(
        _is_partial_automorphism(tree.class_id, tree._realizer, node.mapping)
        for level in tree.levels for node in level)

    unique = True
    for i in range(1, len(tree.levels)):
        prev_sets = {}
        for node in tree.levels[i - 1]:
            prev_sets.setdefault(len(node.mapping), set()).add(_items(node))
        for node in tree.levels[i]:
            if _items(node.parent) > _items(node):
                unique = False
            items = sorted(node.mapping.items())
            found = 0
            for size, pool in prev_sets.items():
                if size > len(items):
                    continue
                for subset in itertools.combinations(items, size):
                    if frozenset(subset) in pool:
                        found += 1
            if found != 1:
                unique = False
    report["2_unique_parent"] = unique

    covers = True
    bounded = True
    for i, level in enumerate(tree.levels):
        number = i + 1
        head = set(enum[:number // 2])
        for node in level:
            dom = set(node.mapping)
            ran = set(node.mapping.values())
            if not head <= (dom if number % 2 == 0 else ran):
                covers = False
            if not dom & ran <= head:
                bounded = False
    report["3_covers_enumeration"] = covers
    report["4_intersection_bound"] = bounded
    report["5_range_splitting"] = _exhaustive_splitting_ok(tree, even=True)
    report["6_domain_splitting"] = _exhaustive_splitting_ok(tree, even=False)
    report["ok"] = all(report.values())
    report["node_count"] = tree.node_count
    report["level_sizes"] = tree.level_sizes()
    return report


@pytest.mark.parametrize("cls,depth,interleave", [
    (cls, depth, False)
    for cls in ("pure_set", "linear_order", "graph")
    for depth in (1, 2, 3, 4)] + [("pure_set", 4, True)])
def test_tree_verify_matches_exhaustive_reference(cls, depth, interleave):
    tree = build_tree(cls, depth, interleave=interleave)
    report = tree.verify()
    assert report["ok"], report
    assert report == exhaustive_verify(tree)


def test_interleaved_reference_tree_has_persisting_nodes():
    tree = build_tree("pure_set", 4, interleave=True)
    assert tree.level_sizes() == [1, 4, 16, 107]
    persisting = [node for node in tree.levels[-1]
                  if node.mapping == node.parent.mapping]
    assert persisting


def _node(mapping, parent):
    """A node given a mapping of its own, as malformed trees are built."""
    node = kazhdan._TreeNode(parent)
    node.mapping = mapping
    return node


def _last_child(tree, level=-1):
    """A node of the level and a copy of its parent's dict."""
    node = tree.levels[level][0]
    return node, dict(node.parent.mapping)


def _second_root(tree):
    # a second root equal to a node of level 1, which then has two parents
    node = tree.levels[1][0]
    tree.levels[0].append(_node(dict(node.mapping), None))


def _orphan(mapping, stray_mapping):
    """Append to the last level a node whose parent is outside the tree."""
    def mutate(tree):
        node = tree.levels[-1][0]
        stray = _node(stray_mapping(node), None)
        tree.levels[-1].append(_node(mapping(node), stray))
    return mutate


def _orphan_above(tree):
    # a copy of a level-1 node put in level 2 with a parent outside the
    # tree: the nodes below its twin then hold two nodes of level 2
    twin = tree.levels[1][0]
    stray = _node({}, None)
    tree.levels[2].append(_node(dict(twin.mapping), stray))


def _two_parents(tree):
    # {0: c, d: 0} plus a sibling's d2 -> 0 holds two nodes of the level above
    node, mapping = _last_child(tree)
    sibling = next(q for q in tree.levels[-2] if q is not node.parent
                   and q.parent is node.parent.parent)
    mapping.update(sibling.mapping)
    node.mapping = mapping


def _held_with_sibling(sibling_mapping):
    """Give a level-2 node new pairs compatible with its siblings' and drop
    its children; a child of a sibling then takes on those pairs too."""
    def mutate(tree):
        node = tree.levels[-1][0]
        parent = node.parent
        sibling = next(q for q in tree.levels[-2] if q is not parent
                       and q.parent is parent.parent)
        sibling.mapping = sibling_mapping(parent.parent.mapping)
        tree.levels[-1][:] = [
            q for q in tree.levels[-1] if q.parent is not sibling]
        node.mapping = {**parent.mapping, **sibling.mapping}
    return mutate


def _second_child_of_persisting(tree):
    # a node that persists unchanged gains a sibling that extends it; a
    # child of that sibling then holds both
    node = next(q for q in tree.levels[3] if q.mapping == q.parent.mapping)
    sibling = _node({**node.mapping, 901: 902}, node.parent)
    tree.levels[3].append(sibling)
    tree.levels[4].append(_node({**sibling.mapping, 903: 1}, sibling))


def _rekeyed_new_pair(tree):
    # 1 -> e becomes 999 -> e: the level no longer covers enumeration point 1
    node, mapping = _last_child(tree)
    mapping[999] = node.mapping[1]
    node.mapping = mapping


def _image_in_domain(tree):
    # 1 -> d, d the preimage of 0: d lies in domain and range
    node, mapping = _last_child(tree)
    mapping[1] = next(x for x, y in mapping.items() if y == 0)
    node.mapping = mapping


def _sibling_image(tree):
    # two children of one parent send 1 to the same new point
    node, mapping = _last_child(tree)
    mapping[1] = tree.levels[-1][1].mapping[1]
    node.mapping = mapping


def _sibling_preimage(tree):
    # two children of one parent take the same new point to 1
    node, mapping = _last_child(tree)
    sibling = tree.levels[-1][1]
    mapping[next(reversed(sibling.mapping))] = 1
    node.mapping = mapping


def _duplicate_image(tree):
    node, mapping = _last_child(tree)
    mapping[1] = mapping[0]
    node.mapping = mapping


def _order_swap(tree):
    # 0 < 1 but the new image of 1 falls below the image of 0
    node, mapping = _last_child(tree)
    mapping[1] = mapping[0] - Fraction(1, 2)
    node.mapping = mapping


def _swapped_images(tree):
    # enumeration points 0 and 1 trade images; 1 is held at the tree's scale
    x, y = tree.enumeration[:2]
    node = tree.levels[-1][0]
    mapping = node.mapping
    mapping[x], mapping[y] = mapping[y], mapping[x]
    node.mapping = mapping


def _adjacency_break(tree):
    # 1 is adjacent to 0, the fresh image of 1 is isolated
    node, mapping = _last_child(tree)
    mapping[1] = 1 << 30
    node.mapping = mapping


@pytest.mark.parametrize("flag,shape,mutate", [
    ("1_root", ("pure_set", 4), _second_root),
    # a valid, covering node whose pairs hold no node of the level above
    ("2_unique_parent", ("pure_set", 4),
     _orphan(lambda node: {0: 999, 998: 0, 1: 997}, lambda node: {})),
    # a node that holds one node of the level above, inside its parent
    ("2_unique_parent", ("pure_set", 4),
     _orphan(lambda node: dict(node.parent.mapping),
             lambda node: dict(node.mapping))),
    ("2_unique_parent", ("pure_set", 4), _orphan_above),
    ("2_unique_parent", ("pure_set", 4), _two_parents),
    ("2_unique_parent", ("pure_set", 5, True), _second_child_of_persisting),
    # the sibling adds 777 -> 778, not a point taken to 0
    ("2_unique_parent", ("pure_set", 4),
     _held_with_sibling(lambda above: {**above, 777: 778})),
    # the sibling no longer holds its parent
    ("2_unique_parent", ("pure_set", 4),
     _held_with_sibling(lambda above: {777: 778})),
    ("3_covers_enumeration", ("pure_set", 4), _rekeyed_new_pair),
    ("4_intersection_bound", ("pure_set", 4), _image_in_domain),
    ("5_range_splitting", ("pure_set", 4), _sibling_image),
    ("5_range_splitting", ("pure_set", 4), lambda t: t.levels[-1].pop()),
    ("6_domain_splitting", ("pure_set", 5), _sibling_preimage),
    ("partial_automorphisms", ("pure_set", 4), _duplicate_image),
    ("partial_automorphisms", ("pure_set", 4),
     _orphan(lambda node: {0: 999, 998: 0, 1: 999}, lambda node: {})),
    ("partial_automorphisms", ("linear_order", 4), _order_swap),
    ("partial_automorphisms", ("linear_order", 4), _swapped_images),
    ("partial_automorphisms", ("graph", 4), _adjacency_break),
])
def test_each_tree_condition_can_fail(flag, shape, mutate):
    tree = build_tree(*shape)
    mutate(tree)
    report = tree.verify()
    assert not report[flag]
    assert not report["ok"]
    assert report == exhaustive_verify(tree)


def test_tree_checker_catches_tampering():
    tree = build_tree("pure_set", 4)
    tree.levels[-1].pop()
    report = tree.verify()
    assert not report["5_range_splitting"]
    assert not report["ok"]

    tree = build_tree("pure_set", 4)
    node = tree.levels[-1][0]
    x = next(iter(node.mapping))
    other = [y for y in node.mapping if y != x][0]
    mapping = node.mapping
    mapping[x] = mapping[other]
    node.mapping = mapping
    report = tree.verify()
    assert not report["partial_automorphisms"]
    assert not report["ok"]


def _random_mutation(tree, rng):
    levels = tree.levels
    i = rng.randrange(1, len(levels))
    node = rng.choice(levels[i])
    points = sorted({p for level in levels for q in level
                     for p in itertools.chain(*q.mapping.items())}) + [999]
    kind = rng.randrange(8)
    mapping = dict(node.mapping)
    if kind == 0:
        levels[i].remove(node)
    elif kind == 1:
        levels[i].append(rng.choice([node, _node(mapping, node.parent)]))
    elif kind == 2 and mapping:
        mapping[rng.choice(list(mapping))] = rng.choice(points)
    elif kind == 3 and mapping:
        del mapping[rng.choice(list(mapping))]
    elif kind == 4:
        mapping[rng.choice(points)] = rng.choice(points)
    elif kind == 5:
        node.parent = rng.choice(levels[i - 1] + levels[i])
    elif kind == 6 and len(mapping) > 1:
        x, y = rng.sample(list(mapping), 2)
        mapping[x], mapping[y] = mapping[y], mapping[x]
    elif kind == 7:
        mapping = dict(reversed(mapping.items()))
    node.mapping = mapping


@pytest.mark.parametrize("cls,interleave", [
    ("pure_set", False), ("pure_set", True), ("linear_order", False),
    ("graph", False)])
def test_tree_verify_matches_reference_on_random_mutations(cls, interleave):
    rng = random.Random(cls)
    failed = set()
    for trial in range(150):
        tree = build_tree(cls, 3 + trial % 2, interleave=interleave)
        for _ in range(1 + trial % 3):
            _random_mutation(tree, rng)
        report = tree.verify()
        assert report == exhaustive_verify(tree), trial
        failed |= {flag for flag, value in report.items() if value is False}
    assert len(failed) >= 5, failed


def reference_tree(cls, depth, interleave=False, realizer=None):
    """The tree built with a copy of its parent's dict in every child, on
    a fresh realizer unless one is given: the reference for
    ``build_tree``'s chain nodes."""
    stages = max(depth // 2, 1)
    realizer = realizer or _realizer_for(cls, interleave, stages)
    enum = realizer.enumeration(stages)
    enum_set = set(enum) if not interleave else set()
    levels = [[_node({}, None)]]
    for number in range(2, depth + 1):
        n, even = number // 2, number % 2 == 0
        a = enum[n - 1]
        new_level = []
        for parent in levels[-1]:
            mapping = parent.mapping
            ran = set(mapping.values())
            if a in (mapping if even else ran):
                new_level.append(_node(dict(mapping), parent))
            else:
                banned = set(mapping) | ran | {a} | enum_set
                stream = (realizer.images if even else realizer.preimages)(
                    mapping, a, banned)
                for c in itertools.islice(stream, 2 ** (n + 1)):
                    child = {**mapping, a: c} if even else {**mapping, c: a}
                    new_level.append(_node(child, parent))
        levels.append(new_level)
    return kazhdan.KazhdanTree(cls, enum, levels, realizer)


@pytest.mark.parametrize("cls,depth,interleave", [
    (cls, depth, False)
    for cls in ("pure_set", "linear_order", "graph")
    for depth in range(1, 7)] + [("pure_set", 6, True)])
def test_tree_matches_the_dict_copy_reference(cls, depth, interleave):
    # the reference's nodes all hold dicts, so its verify checks every
    # node from scratch, where the built tree's reads the pairs
    tree = build_tree(cls, depth, interleave=interleave)
    reference = reference_tree(cls, depth, interleave)
    assert ([[node.mapping for node in level] for level in tree.levels]
            == [[node.mapping for node in level]
                for level in reference.levels])
    assert tree.verify() == reference.verify()
    assert not any(isinstance(getattr(node, slot), dict)
                   for level in tree.levels for node in level
                   for slot in kazhdan._TreeNode.__slots__)


class FractionLinearRealizer(kazhdan._Realizer):
    """The dense order on ``Fraction`` points, as it was before its points
    became ints at a dyadic scale: the reference for ``_LinearRealizer``."""

    def __init__(self, interleave=False, stages=1):
        super().__init__(interleave, stages)
        self._high = Fraction(kazhdan._SPREAD_BASE)

    def enumeration(self, m):
        return [Fraction(i) for i in range(m)]

    def enumeration_index(self, point):
        try:
            value = Fraction(point)
        except (TypeError, ValueError):
            return None
        if value.denominator == 1 and 0 <= value < kazhdan._SPREAD_BASE:
            return int(value) + 1
        return None

    def images(self, mapping, a, banned):
        lo, hi = self.gap(mapping, a)
        if lo is None and hi is None:
            while True:
                self._high += 1
                yield self._high
        if hi is None:
            top = max([lo] + [b for b in banned if b > lo])
            while True:
                top += 1
                yield top
        if lo is None:
            bottom = min([hi] + [b for b in banned if b < hi])
            while True:
                bottom -= 1
                yield bottom
        denom = 2
        while True:
            for j in range(1, denom, 2):
                candidate = lo + (hi - lo) * Fraction(j, denom)
                if candidate not in banned:
                    yield candidate
            denom *= 2

    gap = _LinearRealizer.gap
    _fits = _LinearRealizer._fits


@pytest.mark.parametrize("depth", range(1, 7))
def test_linear_tree_matches_the_fraction_reference(depth):
    # node by node once the ints leave their scale, types included
    tree = build_tree("linear_order", depth)
    reference = reference_tree("linear_order", depth,
                               realizer=FractionLinearRealizer())
    point = tree._realizer.point
    scaled = [[{point(x): point(y) for x, y in node.mapping.items()}
               for node in level] for level in tree.levels]
    expected = [[node.mapping for node in level] for level in reference.levels]
    assert scaled == expected
    assert repr(scaled) == repr(expected)
    assert [point(a) for a in tree.enumeration] == reference.enumeration
    assert tree.verify() == reference.verify()


def test_linear_walks_match_the_fraction_reference(monkeypatch):
    walks = [greedy_witness("linear_order", random_distribution(
        random.Random(seed), range(6))) for seed in range(1000)]
    monkeypatch.setitem(kazhdan._REALIZERS, "linear_order",
                        FractionLinearRealizer)
    for seed, walk in enumerate(walks):
        expected = greedy_witness("linear_order", random_distribution(
            random.Random(seed), range(6)))
        assert walk == expected, seed
        assert repr(walk) == repr(expected), seed


def test_linear_gaps_run_out_of_room_below_the_needed_scale(monkeypatch):
    # a depth-7 tree's finest point is j/2^9: at scale 8 a gap has no
    # room for it, and the realizer raises rather than round
    monkeypatch.setattr(_LinearRealizer, "_scale", staticmethod(lambda s: 9))
    build_tree("linear_order", 7)
    monkeypatch.setattr(_LinearRealizer, "_scale", staticmethod(lambda s: 8))
    with pytest.raises(InvariantViolation, match="no room at scale 2\\^-8"):
        build_tree("linear_order", 7)


def test_linear_scale_holds_the_largest_tree_and_walk():
    # the node budget allows a depth-7 tree and a walk of 17 stages, whose
    # 2^18 candidates at its last stage are the most it may branch
    tree = build_tree("linear_order", 7)
    assert tree.verify()["ok"]
    assert tree.node_count == 279701
    with pytest.raises(SizeLimitExceeded):
        greedy_witness("linear_order", {17: 1})
    rng = random.Random(17)
    for f in ({16: 1}, random_distribution(rng, range(17)),
              seeded_distribution(17, range(17), 17)):
        report = greedy_witness("linear_order", f)
        assert report["stages"] == 17
        assert report["ok"]


def _range_point_first(images, realizer, mapping, a, banned):
    # a -> c with c already in the range
    yield from itertools.islice(mapping.values(), 1)
    yield from images(realizer, mapping, a, banned)


def _outside_gap_first(images, realizer, mapping, a, banned):
    # a -> b with b below the image of a point below a
    lo, hi = realizer.gap(mapping, a)
    if lo is not None:
        yield lo - Fraction(1, 2)
    yield from images(realizer, mapping, a, banned)


def _missing_edge_first(images, realizer, mapping, a, banned):
    # a fresh id that declares no edge to the image of one neighbour of a
    neighbours = [x for x in mapping if realizer.adjacent(a, x)]
    if neighbours:
        fewer = {x: y for x, y in mapping.items() if x != neighbours[0]}
        yield next(images(realizer, fewer, a, banned))
    yield from images(realizer, mapping, a, banned)


def _domain_point_first(images, realizer, mapping, a, banned):
    # a -> d with d in the domain but not the range: d joins dom & ran
    yield from itertools.islice(
        (x for x in mapping if x not in mapping.values()), 1)
    yield from images(realizer, mapping, a, banned)


def _first_point_twice(images, realizer, mapping, a, banned):
    stream = images(realizer, mapping, a, banned)
    first = next(stream)
    yield from (first, first)
    yield from stream


def _patch_images(monkeypatch, cls, stream):
    """Have trees and walks draw the images of ``cls`` from ``stream``,
    given the realizer's own ``images``; preimages keep their stream."""
    kind = type(_realizer_for(cls, False))
    images = kind.images
    monkeypatch.setattr(kind, "images",
                        lambda self, *args: stream(images, self, *args))
    monkeypatch.setattr(kind, "preimages", lambda self, mapping, a, banned:
                        images(self, {y: x for x, y in mapping.items()},
                               a, banned))


@pytest.mark.parametrize("flag,cls,stream", [
    ("partial_automorphisms", "pure_set", _range_point_first),
    ("partial_automorphisms", "linear_order", _outside_gap_first),
    ("partial_automorphisms", "graph", _missing_edge_first),
    ("4_intersection_bound", "pure_set", _domain_point_first),
    ("5_range_splitting", "pure_set", _first_point_twice)])
def test_built_nodes_with_a_bad_end_fail(monkeypatch, flag, cls, stream):
    # build_tree itself makes the bad pairs, so the nodes have no mapping
    # of their own and verify reads each pair on the sound path
    _patch_images(monkeypatch, cls, stream)
    tree = build_tree(cls, 4)
    report = tree.verify()
    assert not report[flag]
    assert report == exhaustive_verify(tree)


def test_built_node_equal_to_its_parent_must_cover():
    # a node with neither a pair nor a mapping of its own reads as its
    # parent, which lacks enumeration point 1: found on the sound path
    tree = build_tree("pure_set", 4)
    tree.levels[-1][0] = kazhdan._TreeNode(tree.levels[-1][0].parent)
    report = tree.verify()
    assert not report["3_covers_enumeration"]
    assert report == exhaustive_verify(tree)


# --- the greedy walk --------------------------------------------------------


def test_greedy_witness_single_point():
    report = greedy_witness("pure_set", {0: 1})
    assert report["stages"] == 1
    assert report["displacement"] >= report["required"] == Fraction(3, 4)
    assert report["ok"]


def test_greedy_witness_seeded_all_classes():
    for cls in ("pure_set", "linear_order", "graph"):
        for seed in range(120):
            f = seeded_distribution(seed)
            report = greedy_witness(cls, f)
            assert report["displacement"] >= Fraction(1, 2), (cls, seed)
            assert report["displacement"] >= report["required"]
            assert report["ok"]


def test_greedy_witness_certificates_one_per_stage():
    f = seeded_distribution(11)
    report = greedy_witness("linear_order", f)
    certs = report["certificates"]
    assert [c["stage"] for c in certs] == list(range(1, report["stages"] + 1))
    for c in certs:
        assert c["value"] <= c["bound"] == Fraction(1, 2 ** (c["stage"] + 1))
    points = [c["point"] for c in certs]
    assert len(points) == len(set(points))


def test_greedy_witness_interleaved_uses_preimage_steps():
    rng = random.Random(7)
    seen_preimage = False
    for _ in range(60):
        points = rng.sample(range(8), rng.randint(1, 5))
        raw = [rng.randint(1, 9) for _ in points]
        total = sum(raw)
        f = {p: Fraction(k, total) for p, k in zip(points, raw)}
        report = greedy_witness("pure_set", f, interleave=True)
        assert report["displacement"] >= Fraction(1, 2)
        if any(c["side"] == "preimage" for c in report["certificates"]):
            seen_preimage = True
    assert seen_preimage


def test_greedy_witness_support_validation():
    with pytest.raises(SupportOutsideEnumeration):
        greedy_witness("pure_set", {-1: 1})
    with pytest.raises(SupportOutsideEnumeration):
        greedy_witness("linear_order", {Fraction(1, 2): 1})
    with pytest.raises(SupportOutsideEnumeration):
        greedy_witness("graph", {"a": 1})
    # a string or a float is no point of any class, even when it reads as
    # an enumeration point
    for cls in ("pure_set", "linear_order", "graph"):
        for point in ("0", 0.0):
            with pytest.raises(SupportOutsideEnumeration):
                greedy_witness(cls, {point: 1})


@pytest.fixture
def walked(monkeypatch):
    """``greedy_witness`` that also gives the realizer the walk used and
    its final mapping, read where the walk measures its displacement."""
    seen = {}
    realizer_for, displacement = _realizer_for, partial_displacement

    def keep_realizer(*args):
        seen["realizer"] = realizer_for(*args)
        return seen["realizer"]

    def keep_mapping(weight, mapping):
        seen["mapping"] = dict(mapping)
        return displacement(weight, mapping)

    monkeypatch.setattr(kazhdan, "_realizer_for", keep_realizer)
    monkeypatch.setattr(kazhdan, "partial_displacement", keep_mapping)

    def walk(cls, f, interleave=False):
        report = greedy_witness(cls, f, interleave)
        return report, seen["realizer"], seen["mapping"]
    return walk


@pytest.mark.parametrize("cls", ["pure_set", "linear_order", "graph"])
def test_clean_walks_end_on_partial_automorphisms(walked, cls):
    for seed in range(300):
        f = random_distribution(random.Random(seed), range(6))
        _, realizer, mapping = walked(cls, f)
        assert _is_partial_automorphism(cls, realizer, mapping), seed


@pytest.mark.parametrize("cls,interleave", [("linear_order", False),
                                            ("pure_set", True)])
@pytest.mark.parametrize("stages", [1, 2])
def test_walks_stay_on_their_tree(walked, cls, interleave, stages):
    # the realizers whose points depend on the mapping alone: a walk of s
    # stages ends on a node of the last level of the depth-2s+1 tree
    tree = build_tree(cls, 2 * stages + 1, interleave)
    point = tree._realizer.point
    last = {frozenset((point(x), point(y)) for x, y in node.mapping.items())
            for node in tree.levels[-1]}
    ends = set()
    for seed in range(200):
        rng = random.Random(seed)
        raw = [rng.randint(0, 9) for _ in range(stages - 1)]
        raw.append(rng.randint(1, 9))
        f = {p: Fraction(k, sum(raw)) for p, k in enumerate(raw)}
        report, realizer, mapping = walked(cls, f, interleave)
        assert report["stages"] == stages
        end = frozenset((realizer.point(x), realizer.point(y))
                        for x, y in mapping.items())
        assert end in last, seed
        ends.add(end)
    # f is 0 at every candidate of a walk that bans the enumeration, and
    # one stage's f is {0: 1}: only interleaved walks of two stages may
    # pass over a child where f is large
    assert len(ends) == (2 if interleave and stages == 2 else 1)


@pytest.mark.parametrize("cls", ["pure_set", "linear_order", "graph"])
def test_walk_below_the_guaranteed_bound_raises(monkeypatch, cls):
    monkeypatch.setattr(kazhdan, "partial_displacement",
                        lambda f, mapping: Fraction(0))
    with pytest.raises(InvariantViolation, match=(
            "certified displacement 0 below the guaranteed bound 5/8")):
        greedy_witness(cls, {0: Fraction(1, 2), 1: Fraction(1, 2)})


def test_walk_with_no_small_image_raises(monkeypatch):
    # every interleaved image is a itself, where f is 1
    monkeypatch.setattr(kazhdan._PureRealizer, "images",
                        lambda self, mapping, a, banned: itertools.repeat(a))
    with pytest.raises(InvariantViolation,
                       match="no small image among the branch candidates"):
        greedy_witness("pure_set", {0: 1}, True)


@pytest.mark.parametrize("cls", ["linear_order", "graph"])
def test_walk_pairs_that_fail_the_extension_test_raise(monkeypatch, cls):
    # every stream puts a point of the range first: preimages, drawn as
    # images of the inverse map, start at a point of the domain, which
    # each walk's first stage takes
    kind = type(_realizer_for(cls, False))
    images = kind.images
    monkeypatch.setattr(kind, "images", lambda self, *args:
                        _range_point_first(images, self, *args))
    for seed in range(300):
        f = random_distribution(random.Random(seed), range(6))
        with pytest.raises(InvariantViolation,
                           match="fails the extension test"):
            greedy_witness(cls, f)


@pytest.mark.parametrize("cls", ["linear_order", "graph"])
def test_walk_images_that_fail_the_extension_test_raise(monkeypatch, cls):
    # images alone start at a point of the range, where f is 0, so the
    # image step of every stage after the first takes it
    _patch_images(monkeypatch, cls, _range_point_first)
    for seed in range(300):
        f = random_distribution(random.Random(seed), range(6))
        if max(f.support()) == 0:
            assert greedy_witness(cls, f)["stages"] == 1
            continue
        with pytest.raises(InvariantViolation,
                           match=r"the pair 1 -> .* fails the extension"):
            greedy_witness(cls, f)


# --- norm inequalities ------------------------------------------------------


def test_marginal_contraction_seeded():
    for seed in range(400):
        report = marginal_check(seed)
        assert report["lhs"] <= report["rhs"]
        assert report["ok"]


def test_l1_l2_transfer_seeded():
    for seed in range(400):
        report = l1_l2_transfer(seed)
        assert report["ok"], (seed, report)
        assert report["isometry_ok"], (seed, report)


def _fraction_translate_pairs(f, perm):
    inverse = {v: k for k, v in perm.items()}
    moved = {tuple(perm.get(x, x) for x in xs) for xs in f}
    zero = Fraction(0)
    return [(f.get(tuple(inverse.get(x, x) for x in xs), zero),
             f.get(xs, zero)) for xs in set(f) | moved]


def _fraction_l1(f, perm):
    return sum((abs(a - b) for a, b in _fraction_translate_pairs(f, perm)),
               Fraction(0))


def fraction_marginal_check(seed):
    """``marginal_check`` in ``Fraction`` arithmetic throughout."""
    rng = random.Random(seed)
    points = list(range(6))
    images = points[:]
    rng.shuffle(images)
    perm = dict(zip(points, images))
    f = {}
    while len(f) < 5:
        f[tuple(rng.choice(points) for _ in range(3))] = rng.randint(1, 16)
    total = sum(f.values())
    f = {xs: Fraction(v, total) for xs, v in f.items()}
    marginal = {}
    for xs, v in f.items():
        marginal[xs[:-1]] = marginal.get(xs[:-1], Fraction(0)) + v
    lhs, rhs = _fraction_l1(marginal, perm), _fraction_l1(f, perm)
    return {"seed": seed, "lhs": lhs, "rhs": rhs, "ok": lhs <= rhs}


def fraction_l1_l2_transfer(seed):
    """``l1_l2_transfer`` in ``Fraction`` arithmetic throughout."""
    rng = random.Random(seed)
    points = list(range(6))
    images = points[:]
    rng.shuffle(images)
    perm = dict(zip(points, images))
    f = {}
    while len(f) < 5:
        xs = tuple(rng.choice(points) for _ in range(2))
        num = rng.randint(-12, 12) or 1
        f[xs] = Fraction(num, rng.randint(1, 9))
    lhs = _fraction_l1({xs: v * v for xs, v in f.items()}, perm)
    pairs = _fraction_translate_pairs(f, perm)
    diff_sq = sum(((a - b) ** 2 for a, b in pairs), Fraction(0))
    norm_sq = sum((v * v for v in f.values()), Fraction(0))
    return {
        "seed": seed,
        "lhs": lhs,
        "diff_sq": diff_sq,
        "norm_sq": norm_sq,
        "ok": lhs * lhs <= 4 * diff_sq * norm_sq,
        "isometry_ok": (sum((a * a for a, _ in pairs), Fraction(0))
                        == sum((b * b for _, b in pairs), Fraction(0))
                        == norm_sq),
    }


def test_norm_checks_match_the_fraction_reference():
    # the integer checks report the same Fractions as the reference
    for seed in range(2000):
        for check, reference in ((marginal_check, fraction_marginal_check),
                                 (l1_l2_transfer, fraction_l1_l2_transfer)):
            report, expected = check(seed), reference(seed)
            assert report == expected, (check.__name__, seed)
            assert repr(report) == repr(expected), (check.__name__, seed)


def test_scalar_square_inequality():
    # |a - b|^2 <= |a^2 - b^2| for nonnegative a, b
    rng = random.Random(0)
    for _ in range(300):
        a = Fraction(rng.randint(0, 40), rng.randint(1, 9))
        b = Fraction(rng.randint(0, 40), rng.randint(1, 9))
        assert (a - b) ** 2 <= abs(a * a - b * b)


# --- free actions -----------------------------------------------------------


def test_freeness_translation_actions():
    for cls in ("pure_set", "linear_order", "graph"):
        report = freeness_check(cls, word_len=6)
        assert report["ok"]
        assert report["words_checked"] == 1456


def test_freeness_linear_actions():
    for cls in ("vector_space", "vector_space_q3", "boolean_algebra"):
        report = freeness_check(cls, word_len=4)
        assert report["ok"]
        assert report["words_checked"] == 160


def test_freeness_violation_is_detected():
    class Abelianized:
        class_id = "pure_set"

        def act(self, w, point):
            a = sum(1 for ltr in w if ltr == 1) - sum(
                1 for ltr in w if ltr == -1)
            b = sum(1 for ltr in w if ltr == 2) - sum(
                1 for ltr in w if ltr == -2)
            return (point[0] + a, point[1] + b)

    # the commutator acts trivially through the abelianization
    with pytest.raises(FreenessViolation):
        freeness_check(Abelianized(), word_len=4, points=[(0, 0)])


def test_a_wrong_mult_fails_the_shared_translation_sweep(monkeypatch):
    commutator = (1, 2, -1, -2)

    def broken(u, v):
        return v if u == commutator else mult(u, v)

    monkeypatch.setattr(kazhdan, "join", broken)
    kazhdan._translation_sweep.cache_clear()
    for cls in ("pure_set", "linear_order"):
        with pytest.raises(FreenessViolation) as info:
            freeness_check(cls, word_len=4)
        # the first fixed pair, words outside and points inside, is named
        assert str(info.value) == (
            "word (1, 2, -1, -2) fixes point () in pure_set")
    # a failed sweep is not cached, so it fails again on the next call
    assert kazhdan._translation_sweep.cache_info().currsize == 0


def test_only_words_calls_mult():
    # the sweep and the actions multiply through ``kazhdan.join``, the
    # product the mutant above patches; ``mult`` reduces letter by letter
    # and stays in ``words``, so no caller can route around that product
    callers = []
    for path in sorted(Path(kazhdan.__file__).parent.glob("*.py")):
        if path.stem == "words":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and any(alias.name == "mult" for alias in node.names)
                    or isinstance(node, ast.Attribute) and node.attr == "mult"
                    or isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "mult"):
                callers.append(f"{path.stem}:{node.lineno}")
    assert callers == []


def test_vector_action_is_linear():
    for q in (2, 3):
        action = VectorSpaceF2Action(q)
        rng = random.Random(q)
        points = action.sample_points(rng, 12)
        w = (1, 2, -1)
        for u, v in zip(points[:6], points[6:]):
            left = action.act(w, action.add(u, v))
            right = action.add(action.act(w, u), action.act(w, v))
            assert left == right
    assert VectorSpaceF2Action(3).vector({EMPTY: 3}) == frozenset()
    with pytest.raises(MalformedStructure):
        VectorSpaceF2Action(5)


def test_clopen_canonical_form():
    action = ClopenF2Action()
    w1, w2 = (1,), (2,)
    # membership ignores the second coordinate here, so it is dropped
    assert action.clopen([w1, w2], {0b00, 0b10}) == action.clopen([w1], {0})
    assert action.clopen([w1], set()) == ((), frozenset())
    assert action.clopen([w1, w2], {0, 1, 2, 3}) == ((), frozenset({0}))
    assert action.is_trivial(action.clopen([w1], {0, 1}))
    with pytest.raises(MalformedStructure):
        action.clopen([w1], {2})


def test_clopen_action_composition():
    action = ClopenF2Action()
    rng = random.Random(5)
    points = action.sample_points(rng, 10)
    u, v = (1, 2), (2, -1, -2)
    for point in points:
        assert action.act(u, action.act(v, point)) == action.act(
            mult(u, v), point)
        assert action.act(EMPTY, point) == point


def test_clopen_action_matches_pointwise_shift():
    # w.C = {w.s : s in C} for subsets s of the group; check on all
    # assignments over the joint support
    action = ClopenF2Action()
    point = action.clopen([(1,), (2,)], {0b01, 0b11})
    w = (2, 1)
    moved = action.act(w, point)

    def member(clopen_set, subset):
        support, masks = clopen_set
        mask = 0
        for i, h in enumerate(support):
            if h in subset:
                mask |= 1 << i
        return mask in masks

    joint = set(point[0]) | {mult(inv(w), h) for h in moved[0]}
    for bits in range(1 << len(joint)):
        subset = {h for i, h in enumerate(sorted(joint))
                  if bits >> i & 1}
        shifted = {mult(w, h) for h in subset}
        assert member(moved, shifted) == member(point, subset)


def test_order_axioms_hold():
    report = order_axioms_check(word_len=5, max_degree=10, trials=1500,
                                seed=2)
    assert report["failures"] == 0
    assert report["undecided"] == 0
    assert report["density_checked"] > 100
    assert report["ok"]


def test_order_axioms_count_an_undecided_density_comparison():
    # through degree 1 the identity and a commutator cannot be told apart
    report = order_axioms_check(max_degree=1, trials=50)
    assert report["undecided"] > 0
    assert report["ok"] is False


def shortlex_compare(u, v, max_degree=10):
    """Compare by ``word_key``: a total order, but not bi-invariant."""
    return "=" if u == v else "<" if word_key(u) < word_key(v) else ">"


def always_less(u, v, max_degree=10):
    return "<"


def cyclic_in_length(u, v, max_degree=10):
    """Lengths 0 < 1 < 2 < 0 mod 3, shortlex within a residue: not
    transitive."""
    step = (len(u) - len(v)) % 3
    return shortlex_compare(u, v) if step == 0 else "<" if step == 2 else ">"


@pytest.mark.parametrize("compare", [shortlex_compare, always_less,
                                     cyclic_in_length],
                         ids=lambda compare: compare.__name__)
def test_order_axioms_fail_on_a_wrong_order(monkeypatch, compare):
    # shortlex breaks invariance, an order that always answers "<" breaks
    # antisymmetry, and a cycle through the lengths breaks transitivity
    monkeypatch.setattr(kazhdan, "magnus_compare", compare)
    report = order_axioms_check(trials=200)
    assert report["failures"] > 0
    assert report["ok"] is False


def test_cayley_edges_are_translation_invariant():
    report = cayley_edge_invariance(seed=3, trials=800)
    assert report["ok"]
    action = f2_embedding("graph", seed=3)
    x, y, w = (1,), (2, 2), (-1, 2)
    assert action.adjacent(x, y) == action.adjacent(mult(w, x), mult(w, y))
    assert not action.adjacent(x, x)
    assert action.adjacent(x, y) == action.adjacent(y, x)


def test_cayley_extension_small_radius():
    report = cayley_extension_check(r=3, t=2, seeds=2)
    assert report["ball_inner"] == 17
    assert report["ball_outer"] == 53
    assert len(report["per_seed"]) == 2
    for row in report["per_seed"]:
        assert 0 <= row["rate"] <= 1
    assert report["all_witnessed"]
    assert report["mean_rate"] == 1


def ball_masks(r, seed):
    """Bit k of mask x: is x in ball(r-1) adjacent to word k of ball(r)
    under ``RadoF2Action(seed)``?  The masks ``cayley_extension_check`` reads."""
    return next(kazhdan._cayley_masks(r, [seed]))[1]


def brute_masks(r, seed):
    """Adjacency of every ball(r-1) vertex to every ball(r) vertex, pair by
    pair."""
    action = RadoF2Action(seed)
    outer = ball(r)
    return [sum(1 << k for k, z in enumerate(outer) if action.adjacent(x, z))
            for x in ball(r - 1)]


def brute_witnessed(masks, n_outer, t):
    """Every prescription materialised and tested by AND/ANDNOT: the number
    of prescriptions, of those witnessed, and of the witnesses of the
    must-link ones."""
    full = (1 << n_outer) - 1
    vertices = range(len(masks))
    configs = [((i,), ()) for i in vertices] + [((), (i,)) for i in vertices]
    if t == 2:
        for i, j in itertools.combinations(vertices, 2):
            configs += [((i, j), ()), ((), (i, j)), ((i,), (j,)),
                        ((j,), (i,))]
    witnessed = witnesses = 0
    for link, avoid in configs:
        m = full
        for i in link:
            m &= masks[i]
        for i in avoid:
            m &= ~masks[i]
        for i in link + avoid:
            m &= ~(1 << i)
        witnessed += bool(m & full)
        witnesses += (m & full).bit_count() if not avoid else 0
    return len(configs), witnessed, witnesses


def brute_extension(r, t, seeds):
    n_outer = len(ball(r))
    results = []
    for seed in seeds:
        total, witnessed, witnesses = brute_witnessed(
            brute_masks(r, seed), n_outer, t)
        results.append({"seed": seed, "configs": total,
                        "witnessed": witnessed, "witnesses": witnesses,
                        "rate": Fraction(witnessed, total)})
    return {
        "r": r,
        "t": t,
        "ball_inner": len(ball(r - 1)),
        "ball_outer": n_outer,
        "per_seed": results,
        "mean_rate": sum(row["rate"] for row in results) / len(results),
        "all_witnessed": all(
            row["witnessed"] == row["configs"] for row in results),
    }


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_cayley_masks_match_pairwise_adjacency(r):
    for seed in range(5):
        assert ball_masks(r, seed) == brute_masks(r, seed)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_cayley_masks_reduce_the_seed_mod_two_to_the_64(r):
    # pair_coin sees only seed mod 2**64, and so do the lanes
    for seed, residue in ((-3, 2**64 - 3), (2**64 + 5, 5)):
        masks = ball_masks(r, seed)
        assert masks == brute_masks(r, seed) == brute_masks(r, residue)


def pairwise_lane_masks(r, seeds):
    """``kazhdan._cayley_masks`` as it was built pair by pair: the reference
    for the masks drawn with one coin per group element.

    x ~ z is the coin of min(c, c'), c = word_int(x^-1 z) and c' =
    word_int(z^-1 x).  If x and z share a prefix of length p exactly,
    c = (word_int(x[p:]^-1) - word_int(x[:p])) 4^(|z|-p) + word_int(z) and
    c' = word_int(z[p:]^-1) 4^(|x|-p) + word_int(x[p:]), and ball(r) holds
    the words of one length that begin with x[:p] in one run.  A row of
    codes, last word first, goes into the 128-bit lanes of one int, where
    ``_mix_lanes`` takes the inner ``_splitmix64`` of all of them at once,
    for all seeds.  Per seed, each row xors in the seed mod 2**64, mixes
    again and keeps bit 0 of each lane as the row's mask.  x, the k-th word
    of both balls, meets itself at code 0 in row k; that bit is cleared.
    """
    outer = ball(r)
    codes = [word_int(z) for z in outer]
    tails = [[word_int(inv(z[p:])) for z in outer] for p in range(r + 1)]

    n = len(outer)
    ones = kazhdan._lanes([1] * n)
    mixed = array("Q")   # the inner mix of each row's codes, row by row
    for x in ball(r - 1):
        row = [0] * n
        for m in range(r + 1):
            cut = None   # the run of x[:p+1], done before that of x[:p]
            for p in range(min(len(x), m), -1, -1):
                # length m, prefix x[:p]: the 4^(m-p) codes from low
                k = 4 ** (m - p)
                low = word_int(x[:p]) * k + (k - 1) // 3
                lo, hi = bisect_left(codes, low), bisect_left(codes, low + k)
                base = (word_int(inv(x[p:])) - word_int(x[:p])) * k
                s, rest = 2 * (len(x) - p), word_int(x[p:])
                parts = [(lo, cut[0]), (cut[1], hi)] if cut else [(lo, hi)]
                for a, b in parts:
                    row[a:b] = [
                        c if (c := base + w) < (d := (v << s) + rest) else d
                        for w, v in zip(codes[a:b], tails[p][a:b])]
                cut = lo, hi
        lanes = _mix_lanes(kazhdan._lanes(row[::-1]), ones).to_bytes(
            16 * n, "little")
        mixed += array("Q", lanes)[::2]   # the low half of each lane
    if sys.byteorder == "big":
        mixed.byteswap()

    for seed in seeds:
        key = (seed & 0xFFFF_FFFF_FFFF_FFFF) * ones
        masks = []
        for i in range(0, len(mixed), n):
            z = _mix_lanes(kazhdan._lanes(mixed[i:i + n]) ^ key, ones)
            bits = z.to_bytes(16 * n, "little")[::16].translate(
                bytes(48 + (byte & 1) for byte in range(256)))
            masks.append(int(bits, 2) & ~(1 << len(masks)))
        yield seed, masks


@pytest.mark.parametrize("r", range(7))
def test_cayley_masks_match_the_pairwise_lanes(r):
    seeds = [0, 1, 19, -3, 2**64 + 5]
    assert list(kazhdan._cayley_masks(r, seeds)) == list(
        pairwise_lane_masks(r, seeds))


def test_cayley_masks_peak_memory_at_radius_six():
    # the inner mixes, 8 bytes for each of the 354 293 words of ball(11),
    # take 2.8 MB; the pairwise lanes kept 706 645 and peaked near 7 MB
    tracemalloc.start()
    try:
        next(kazhdan._cayley_masks(6, [0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_extension_check_raises_on_a_sampled_bit_off_the_edge_rule(
        monkeypatch):
    # the bit the audit of seed 3 draws first, row then column
    rng = random.Random(3)
    i, k = rng.randrange(5), rng.randrange(17)
    masks_of = kazhdan._cayley_masks

    def flipped(r, seeds):
        for seed, masks in masks_of(r, seeds):
            if seed == 3:
                masks[i] ^= 1 << k
            yield seed, masks

    monkeypatch.setattr(kazhdan, "_cayley_masks", flipped)
    with pytest.raises(InvariantViolation, match=f"seed 3: bit {k} of mask "
                                                 f"{i} is not the adjacency"):
        cayley_extension_check(r=2, t=2, seeds=[2, 3])


@pytest.mark.parametrize("t", [1, 2])
def test_extension_check_raises_on_a_witness_total_off_its_recount(
        monkeypatch, t):
    def one_more(masks, n_outer, t):
        witnessed, witnesses = _extension_witnessed(masks, n_outer, t)
        return witnessed, witnesses + 1

    report = cayley_extension_check(r=3, t=t, seeds=[4])
    monkeypatch.setattr(kazhdan, "_extension_witnessed", one_more)
    with pytest.raises(InvariantViolation, match=(
            f"seed 4: {report['per_seed'][0]['witnesses'] + 1} witnesses, "
            f"{report['per_seed'][0]['witnesses']} recounted by columns")):
        cayley_extension_check(r=3, t=t, seeds=[4])


@pytest.mark.parametrize("r,t", itertools.product([0, 1, 2, 3], [1, 2]))
def test_cayley_extension_matches_materialised_configs(r, t):
    seeds = range(5)
    assert cayley_extension_check(r=r, t=t, seeds=seeds) == brute_extension(
        r, t, seeds)


@pytest.mark.parametrize("density", [0.1, 0.5, 0.9])
def test_extension_counts_match_materialised_configs_on_random_graphs(
        density):
    # small dense and sparse graphs reach the edge cases of the counting
    # (a neighbourhood inside another plus the vertex itself, a pair
    # covering the whole ball) that random Cayley balls rarely do
    rng = random.Random(density)
    for _ in range(200):
        n_outer = rng.randint(1, 7)
        n_inner = rng.randint(1, n_outer)
        adjacency = [[False] * n_outer for _ in range(n_outer)]
        for i, j in itertools.combinations(range(n_outer), 2):
            adjacency[i][j] = adjacency[j][i] = rng.random() < density
        masks = [sum(1 << k for k in range(n_outer) if adjacency[i][k])
                 for i in range(n_inner)]
        for t in (1, 2):
            assert _extension_witnessed(masks, n_outer, t) == brute_witnessed(
                masks, n_outer, t)[1:]


def test_cayley_extension_rate_can_fall_below_one():
    row = cayley_extension_check(r=2, t=2, seeds=[2])["per_seed"][0]
    assert (row["configs"], row["witnessed"]) == (50, 46)
    assert row["rate"] < 1


def test_cayley_extension_pinned_rates_and_witnesses():
    report = cayley_extension_check(r=2, t=2, seeds=20)
    assert [row["rate"] * 50 for row in report["per_seed"]] == [
        50, 50, 46, 50, 50, 49, 49, 48, 50, 48,
        49, 49, 50, 49, 50, 49, 50, 50, 50, 50]
    assert report["mean_rate"] == Fraction(493, 500)
    # at r = 6 every prescription is witnessed, so the rate cannot show a
    # wrong mask; the witness totals can
    report = cayley_extension_check(r=6, t=2, seeds=20)
    assert report["all_witnessed"]
    assert [row["witnesses"] for row in report["per_seed"]] == [
        43808057, 43061600, 43669469, 43051831, 43452249,
        43398841, 43600962, 43387210, 42833069, 42978996,
        43234652, 43712921, 42382104, 42531084, 42895533,
        44030609, 42982536, 43056207, 43899859, 42887193]


def test_cayley_extension_rejects_t_outside_one_two():
    for t in (0, 3):
        with pytest.raises(MalformedStructure):
            cayley_extension_check(r=3, t=t, seeds=1)
    report = cayley_extension_check(r=3, t=1, seeds=1)
    assert report["per_seed"][0]["configs"] == 2 * 17


@pytest.mark.parametrize("seeds", [0, [], -3])
def test_cayley_extension_rejects_no_seeds_before_any_work(monkeypatch, seeds):
    # the mean rate over no seeds would divide by zero
    def refuse(*args):
        raise AssertionError("built the ball before checking the seeds")

    monkeypatch.setattr(kazhdan, "ball", refuse)
    monkeypatch.setattr(kazhdan, "_cayley_masks", refuse)
    with pytest.raises(MalformedStructure):
        cayley_extension_check(r=2, t=2, seeds=seeds)


def test_embedding_factory():
    for cls_id in ("pure_set", "linear_order", "graph", "vector_space",
                   "vector_space_q3", "boolean_algebra"):
        assert f2_embedding(cls_id).class_id == cls_id
    assert f2_embedding("vector_space").q == 2
    assert f2_embedding("vector_space_q3").q == 3
    assert f2_embedding("graph", seed=5).seed == 5
    with pytest.raises(MalformedStructure,
                       match="no free action registered for 'no_such_class'"):
        f2_embedding("no_such_class")
