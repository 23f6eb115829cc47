import ast
import itertools
import json
import math
import random
import time
from collections import Counter, namedtuple
from pathlib import Path

import pytest

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # the property test below is skipped
    hypothesis = None

from oligorep import finstruct
from oligorep.errors import (
    MalformedStructure,
    SizeLimitExceeded,
)
from oligorep.finstruct import (
    FinStructure,
    _byte_tables,
    _lex_index,
    _lex_vector,
    _read_mask,
    _read_masks,
    _rref,
    get_class,
    set_partitions,
    structure_to_json,
)
from oligorep.limits import DEFAULT_MAX_BASE
from oligorep.oligo import make_open_subgroup
from oligorep.permgrp import PermGroup


def relabeled(cls, s, perm):
    """Rename point i to position perm[i], transporting the payload."""
    n = len(s.points)
    points = [None] * n
    for i in range(n):
        points[perm[i]] = s.points[i]
    if s.cls == "pure_set":
        data = None
    elif s.cls == "linear_order":
        ranks = [0] * n
        for i in range(n):
            ranks[perm[i]] = s.data[i]
        data = tuple(ranks)
    elif s.cls == "graph":
        data = frozenset(frozenset(perm[v] for v in e) for e in s.data)
    elif s.cls in ("vector_space", "vector_space_q3"):
        q, vectors = s.data
        moved = [None] * n
        for i in range(n):
            moved[perm[i]] = vectors[i]
        data = (q, tuple(moved))
    else:
        n_atoms, masks = s.data
        moved = [None] * n
        for i in range(n):
            moved[perm[i]] = masks[i]
        data = (n_atoms, tuple(moved))
    return cls.make(points, data)


def graph_on(n, edges):
    return get_class("graph").make(
        tuple(range(n)), frozenset(frozenset(e) for e in edges))


def brute_automorphisms(cls, s):
    """Filter all position permutations that preserve the payload."""
    n = len(s.points)
    count = 0
    for perm in itertools.permutations(range(n)):
        if s.cls == "linear_order":
            ok = all(
                (s.data[i] < s.data[j]) == (s.data[perm[i]] < s.data[perm[j]])
                for i in range(n) for j in range(n))
        elif s.cls == "graph":
            ok = all(
                (frozenset((i, j)) in s.data)
                == (frozenset((perm[i], perm[j])) in s.data)
                for i in range(n) for j in range(i + 1, n))
        elif s.cls in ("vector_space", "vector_space_q3"):
            q, vectors = s.data
            index = {v: k for k, v in enumerate(vectors)}
            ok = True
            for i in range(n):
                for j in range(n):
                    total = tuple((a + b) % q for a, b in zip(vectors[i], vectors[j]))
                    if perm[index[total]] != index[
                            tuple((a + b) % q for a, b in zip(
                                vectors[perm[i]], vectors[perm[j]]))]:
                        ok = False
                        break
                if not ok:
                    break
        else:
            n_atoms, masks = s.data
            index = {m: k for k, m in enumerate(masks)}
            full = (1 << n_atoms) - 1
            ok = all(
                perm[index[masks[i] & masks[j]]]
                == index[masks[perm[i]] & masks[perm[j]]]
                for i in range(n) for j in range(n)) and all(
                perm[index[masks[i] ^ full]] == index[masks[perm[i]] ^ full]
                for i in range(n))
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# validation and membership


def test_validate_rejects_malformed():
    pure = get_class("pure_set")
    with pytest.raises(MalformedStructure):
        pure.make((0, 0), None)
    with pytest.raises(MalformedStructure):
        pure.make((0, 1), frozenset())
    order = get_class("linear_order")
    with pytest.raises(MalformedStructure):
        order.make((0, 1), (0, 2))
    graph = get_class("graph")
    with pytest.raises(MalformedStructure):
        graph.make((0, 1), frozenset({frozenset({0})}))
    with pytest.raises(MalformedStructure):
        graph.make((0, 1), frozenset({frozenset({0, 5})}))
    vs = get_class("vector_space")
    with pytest.raises(MalformedStructure):
        vs.make((0,), (3, ((0,),)))
    with pytest.raises(MalformedStructure):
        vs.make((0, 1), (2, ((0,), (0,))))
    boolean = get_class("boolean_algebra")
    with pytest.raises(MalformedStructure):
        boolean.make((0, 1), (1, (0, 5)))


def test_membership_requires_closure():
    vs = get_class("vector_space")
    no_zero = vs.make((0,), (2, ((1,),)))
    assert not vs.is_member(no_zero)
    closed = vs.make((0, 1), (2, ((0,), (1,))))
    assert vs.is_member(closed)
    not_closed = vs.make((0, 1, 2), (2, ((0, 0), (1, 0), (0, 1))))
    assert not vs.is_member(not_closed)
    boolean = get_class("boolean_algebra")
    assert boolean.is_member(boolean.canonical_algebra(2))
    missing = boolean.make((0, 1, 2), (2, (0, 1, 3)))
    assert not boolean.is_member(missing)
    assert vs.is_member(vs.empty())
    assert boolean.is_member(boolean.empty())


def test_every_class_accepts_empty():
    for class_id in ("pure_set", "linear_order", "graph",
                     "vector_space", "vector_space_q3", "boolean_algebra"):
        cls = get_class(class_id)
        e = cls.empty()
        assert cls.is_member(e)
        assert cls.size(e) == 0
        assert cls.acl(e, ()) == ()


# ---------------------------------------------------------------------------
# canonical forms


def test_four_vertex_graphs_have_eleven_codes():
    graph = get_class("graph")
    pairs = list(itertools.combinations(range(4), 2))
    codes = set()
    for mask in range(1 << 6):
        edges = [pairs[i] for i in range(6) if mask >> i & 1]
        codes.add(graph.canonical_code(graph_on(4, edges)))
    assert len(codes) == 11


def test_codes_separate_same_degree_graphs():
    graph = get_class("graph")
    path = graph_on(4, [(0, 1), (1, 2), (2, 3)])
    star = graph_on(4, [(0, 1), (0, 2), (0, 3)])
    assert graph.canonical_code(path) != graph.canonical_code(star)


def test_canonical_code_invariant_under_relabeling():
    rng = random.Random(17)
    samples = []
    graph = get_class("graph")
    samples.append((graph, graph_on(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])))
    samples.append((graph, graph_on(6, [(0, 1), (2, 3), (4, 5), (1, 2)])))
    order = get_class("linear_order")
    samples.append((order, order.make((10, 11, 12, 13), (2, 0, 3, 1))))
    vs = get_class("vector_space")
    samples.append((vs, vs.canonical_space(2)))
    boolean = get_class("boolean_algebra")
    samples.append((boolean, boolean.canonical_algebra(3)))
    for cls, s in samples:
        base_code = cls.canonical_code(s)
        n = len(s.points)
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            other = relabeled(cls, s, tuple(perm))
            assert cls.canonical_code(other) == base_code
            assert cls.automorphisms(other).order == cls.automorphisms(s).order


def _random_structure(cls, data):
    """A hypothesis-drawn member of ``cls``: any structure on at most six
    points for the relational classes, a canonical space or algebra for the
    others."""
    if cls.id == "vector_space":
        return cls.canonical_space(data.draw(st.integers(0, 3)))
    if cls.id == "vector_space_q3":
        return cls.canonical_space(data.draw(st.integers(0, 2)))
    if cls.id == "boolean_algebra":
        return cls.canonical_algebra(data.draw(st.integers(1, 3)))
    n = data.draw(st.integers(0, 6))
    if cls.id == "pure_set":
        return cls.make(tuple(range(n)), None)
    if cls.id == "linear_order":
        return cls.make(tuple(range(n)),
                        tuple(data.draw(st.permutations(range(n)))))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                                max_size=len(pairs)))
    return graph_on(n, [p for p, keep in zip(pairs, chosen) if keep])


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
@pytest.mark.parametrize("cls_id", [
    "pure_set", "linear_order", "graph",
    "vector_space", "vector_space_q3", "boolean_algebra",
])
def test_canonical_code_invariant_under_random_relabeling(cls_id):
    cls = get_class(cls_id)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        s = _random_structure(cls, data)
        perm = tuple(data.draw(st.permutations(range(len(s.points)))))
        assert cls.canonical_code(relabeled(cls, s, perm)) == \
            cls.canonical_code(s)

    check()


def test_canonical_relabel_is_an_isomorphism():
    graph = get_class("graph")
    s = graph_on(5, [(0, 2), (2, 4), (4, 1), (1, 3)])
    canon, rel = graph.canonical(s)
    for e in s.data:
        a, b = tuple(e)
        assert frozenset((rel[a], rel[b])) in canon.data
    assert len(canon.data) == len(s.data)


def test_vector_space_code_ignores_ambient_coordinates():
    vs = get_class("vector_space")
    plane = vs.make(
        ("o", "a", "b", "c"),
        (2, ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1))))
    assert vs.is_member(plane)
    assert vs.canonical_code(plane) == vs.canonical_code(vs.canonical_space(2))
    canon, rel = vs.canonical(plane)
    assert sorted(rel) == [0, 1, 2, 3]


def test_boolean_code_counts_atoms():
    boolean = get_class("boolean_algebra")
    sub = boolean.make(
        ("bot", "x", "y", "top"), (3, (0, 3, 4, 7)))
    assert boolean.is_member(sub)
    assert boolean.canonical_code(sub) == boolean.canonical_code(
        boolean.canonical_algebra(2))
    assert boolean.size(sub) == 2


# ---------------------------------------------------------------------------
# automorphisms


def test_automorphism_orders_match_brute_force():
    graph = get_class("graph")
    cases = [
        (graph, graph_on(3, [(0, 1)])),
        (graph, graph_on(3, [(0, 1), (1, 2), (0, 2)])),
        (graph, graph_on(4, [(0, 1), (1, 2), (2, 3), (0, 3)])),
        (graph, graph_on(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])),
        (get_class("linear_order"), get_class("linear_order").make(
            (0, 1, 2), (1, 2, 0))),
        (get_class("vector_space"), get_class("vector_space").canonical_space(2)),
        (get_class("boolean_algebra"),
         get_class("boolean_algebra").canonical_algebra(2)),
        (get_class("boolean_algebra"),
         get_class("boolean_algebra").canonical_algebra(3)),
    ]
    for cls, s in cases:
        assert cls.automorphisms(s).order == brute_automorphisms(cls, s)


def test_all_four_vertex_graph_automorphisms():
    graph = get_class("graph")
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(1 << 6):
        s = graph_on(4, [pairs[i] for i in range(6) if mask >> i & 1])
        assert graph.automorphisms(s).order == brute_automorphisms(graph, s)


def test_general_linear_group_orders():
    vs2 = get_class("vector_space")
    assert vs2.automorphisms(vs2.canonical_space(1)).order == 1
    assert vs2.automorphisms(vs2.canonical_space(2)).order == 6
    assert vs2.automorphisms(vs2.canonical_space(3)).order == 168
    assert vs2.automorphisms(vs2.canonical_space(4)).order == 20160
    vs3 = get_class("vector_space_q3")
    assert vs3.automorphisms(vs3.canonical_space(1)).order == 2
    assert vs3.automorphisms(vs3.canonical_space(2)).order == 48
    assert vs3.automorphisms(vs3.canonical_space(3)).order == 11232


@pytest.mark.parametrize("class_id, dim", [
    *(("vector_space", d) for d in range(7)),
    *(("vector_space_q3", d) for d in range(5))])
def test_two_matrices_generate_the_general_linear_group(class_id, dim):
    # the transvection and the scaled cycle generate GL(dim, q), and
    # neither alone does
    cls = get_class(class_id)
    degree, gens = cls.q ** dim, cls._space_gens(dim)
    group = PermGroup(degree, gens)
    assert len(gens) <= 2
    assert group.order == math.prod(
        cls.q ** dim - cls.q ** i for i in range(dim))
    if len(gens) == 2:
        assert all(PermGroup(degree, [g]).order < group.order for g in gens)


def test_symmetric_groups_on_points_and_atoms():
    pure = get_class("pure_set")
    five = pure.make(tuple(range(5)), None)
    assert pure.automorphisms(five).order == 120
    boolean = get_class("boolean_algebra")
    assert boolean.automorphisms(boolean.canonical_algebra(4)).order == 24
    order = get_class("linear_order")
    chain = order.make(tuple(range(4)), (0, 1, 2, 3))
    assert order.automorphisms(chain).order == 1


def scoped_nodes(node, scope=""):
    """(dotted name of the innermost enclosing class or function, node)
    for every node below ``node``."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield from scoped_nodes(child, inner)


def test_atoms_are_read_through_one_class_hook():
    # how Aut(base) acts on the points of its table is the class's
    # cell_group; atomic is left where the table is chosen and where the
    # table's class representatives are lifted to masks; no per-element
    # cell hook is left beside it
    hooks, cell_names, atomic_reads, atom_calls = set(), set(), set(), set()
    for path in sorted(Path(finstruct.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for scope, node in scoped_nodes(ast.parse(text)):
            name = getattr(node, "name", None) or getattr(
                node, "attr", None) or getattr(node, "id", None)
            if isinstance(name, str) and name.startswith("cell_"):
                cell_names.add(name)
            if isinstance(node, ast.FunctionDef) and node.name == "cell_group":
                hooks.add(scope)
            elif (isinstance(node, ast.Attribute) and node.attr == "atomic"
                  and isinstance(node.ctx, ast.Load)):
                atomic_reads.add(f"{path.stem}.{scope}")
            elif isinstance(node, ast.Call) and "atom_perm" in (
                    getattr(node.func, "attr", None),
                    getattr(node.func, "id", None)):
                atom_calls.add(scope.split(".")[0])
    assert cell_names == {"cell_group"}
    assert hooks == {"FraisseClass", "BooleanAlgebraClass"}
    assert atomic_reads == {"oligo.base_table", "acceptance._subgroup_sweep"}
    assert atom_calls == {"BooleanAlgebraClass"}


# ---------------------------------------------------------------------------
# algebraic closure


def test_acl_identity_for_relational_classes():
    graph = get_class("graph")
    s = graph_on(4, [(0, 1), (2, 3)])
    assert graph.acl(s, (1, 3)) == (1, 3)
    assert get_class("pure_set").acl(
        get_class("pure_set").make((0, 1, 2), None), (2,)) == (2,)


def test_acl_spans_vector_spaces():
    vs = get_class("vector_space")
    space = vs.canonical_space(2)
    v10 = space.data[1].index((1, 0))
    closure = vs.acl(space, (v10,))
    got = {space.data[1][p] for p in closure}
    assert got == {(0, 0), (1, 0)}
    both = vs.acl(space, (1, 2))
    assert both == (0, 1, 2, 3)
    assert vs.acl(space, ()) == ()


def test_acl_generates_boolean_subalgebras():
    boolean = get_class("boolean_algebra")
    algebra = boolean.canonical_algebra(3)
    closure = boolean.acl(algebra, (3,))
    masks = {algebra.data[1][p] for p in closure}
    assert masks == {0, 3, 4, 7}
    assert boolean.acl(algebra, ()) == ()
    assert boolean.acl(algebra, (1, 2)) == tuple(range(8))


def test_acl_is_idempotent_and_member():
    vs = get_class("vector_space_q3")
    space = vs.canonical_space(2)
    closure = vs.acl(space, (4,))
    again = vs.acl(space, closure)
    assert closure == again
    assert vs.is_member(vs.induced(space, closure))


# the pairwise and fixed-point closures and the per-vector solve: the
# references for the span and the blocks


def reference_is_closed(cls, s):
    """Membership by pairwise sums, or by meets and complements."""
    if cls.id == "boolean_algebra":
        n_atoms, masks = s.data
        if not masks:
            return True
        full = (1 << n_atoms) - 1
        present = set(masks)
        return (n_atoms > 0 and {0, full} <= present
                and all(a ^ full in present for a in masks)
                and all(a & b in present for a in masks for b in masks))
    q, vectors = s.data
    if not vectors:
        return True
    present = set(vectors)
    return ((0,) * len(vectors[0]) in present
            and all(tuple((a + b) % q for a, b in zip(u, v)) in present
                    for u in vectors for v in vectors))


def reference_close(cls, s, positions):
    """acl by adding sums, or meets and complements, until nothing changes."""
    if not positions:
        return ()
    if cls.id == "boolean_algebra":
        n_atoms, elements = s.data
        full = (1 << n_atoms) - 1
        closure = {0, full}

        def moves(a, b):
            return (a & b, a ^ full)
    else:
        q, elements = s.data
        closure = {(0,) * len(elements[0])}

        def moves(u, v):
            return (tuple((a + b) % q for a, b in zip(u, v)),)
    closure |= {elements[p] for p in positions}
    while True:
        new = {w for a in closure for b in closure for w in moves(a, b)}
        if new <= closure:
            break
        closure |= new
    lookup = {e: i for i, e in enumerate(elements)}
    return tuple(sorted(lookup[e] for e in closure))


def reference_solve(basis, v, q):
    """The coordinates of v over basis, by one augmented row reduction."""
    if not basis:
        return ()
    width = len(v)
    rows = [list(b) + [int(i == j) for j in range(len(basis))]
            for i, b in enumerate(basis)]
    reduced, pivots = _rref(rows, q)
    residue = list(v)
    coeffs = [0] * len(basis)
    for row, p in zip(reduced, pivots):
        if p < width and residue[p]:
            c = residue[p]
            residue = [(a - c * b) % q for a, b in zip(residue, row[:width])]
            coeffs = [(x + c * y) % q for x, y in zip(coeffs, row[width:])]
    assert not any(residue), "vector outside the span of the basis"
    return tuple(coeffs)


def reference_vector_canonical(cls, s):
    """The greedy basis over the lex-sorted vectors, one rank test per
    vector, and each point's coordinates by ``reference_solve``."""
    q, vectors = s.data
    if not vectors:
        return cls.empty(), ()
    basis = []
    for v in sorted(vectors):
        if len(_rref(basis + [v], q)[0]) > len(basis):
            basis.append(v)
    rel = tuple(_lex_index(reference_solve(basis, v, q), q) for v in vectors)
    return cls.canonical_space(len(basis)), rel


def every_subset(cls, dim):
    """Every set of elements of the ambient space GF(q)^dim, or of the
    algebra on dim atoms, once in lex order and once shuffled."""
    if cls.id == "boolean_algebra":
        elements, tag = list(range(1 << dim)), dim
    else:
        elements = [_lex_vector(i, cls.q, dim) for i in range(cls.q ** dim)]
        tag = cls.q
    rng = random.Random(dim)
    for bits in range(1 << len(elements)):
        subset = [e for k, e in enumerate(elements) if bits >> k & 1]
        for order in (subset, rng.sample(subset, len(subset))):
            yield cls.make(tuple(range(len(order))), (tag, tuple(order)))


@pytest.mark.parametrize("class_id, dim", [
    ("vector_space", d) for d in range(4)] + [
    ("vector_space_q3", d) for d in range(3)] + [
    ("boolean_algebra", m) for m in range(4)])
def test_generated_closures_match_the_pairwise_reference(class_id, dim):
    # every subset: is_member; every member: acl of every position subset,
    # and the canonical form and relabeling of vector spaces
    cls = get_class(class_id)
    if class_id == "boolean_algebra":
        closed_sets = 1 + (bell_numbers(dim)[dim] if dim else 0)
    else:
        closed_sets = 1 + sum(gaussian_binomial(dim, k, cls.q)
                              for k in range(dim + 1))
    members = 0
    for s in every_subset(cls, dim):
        member = reference_is_closed(cls, s)
        assert cls.is_member(s) == member, s
        if not member:
            with pytest.raises(MalformedStructure):
                cls.canonical(s)
            continue
        members += 1
        for bits in range(1 << len(s.points)):
            positions = tuple(p for p in range(len(s.points)) if bits >> p & 1)
            assert cls.acl(s, positions) == reference_close(cls, s, positions), (
                s, positions)
        if class_id != "boolean_algebra":
            assert cls.canonical(s) == reference_vector_canonical(cls, s), s
    assert members == 2 * closed_sets


def test_large_rank_non_members_are_refused_without_their_span():
    # the span of 24 unit vectors has 2**24 vectors, and 30 singletons
    # generate 2**30 masks; neither is built
    vs = get_class("vector_space")
    units = tuple(tuple(int(i == j) for j in range(24)) for i in range(24))
    boolean = get_class("boolean_algebra")
    singletons = tuple(1 << i for i in range(30))
    top = (1 << 30) - 1
    cases = [(vs, (2, extra + units)) for extra in ((), ((0,) * 24,))]
    cases += [(boolean, (30, extra + singletons))
              for extra in ((), (0,), (top,), (0, top))]
    for cls, data in cases:
        s = cls.make(tuple(range(len(data[1]))), data)
        start = time.perf_counter()
        assert not cls.is_member(s)
        assert time.perf_counter() - start < 1.0, data


def fixed_point_indices(cls, s):
    """Positions of points fixed by every automorphism of the ambient
    limit, every point scanned: the reference for ``is_fixed_only``."""
    return tuple(filter(cls._fixes(s), range(len(s.points))))


def test_fixed_points():
    vs = get_class("vector_space")
    space = vs.canonical_space(2)
    assert fixed_point_indices(vs, space) == (0,)
    boolean = get_class("boolean_algebra")
    algebra = boolean.canonical_algebra(2)
    assert fixed_point_indices(boolean, algebra) == (0, 3)
    assert boolean.is_fixed_only(boolean.canonical_algebra(1))
    assert not boolean.is_fixed_only(algebra)
    assert not vs.is_fixed_only(vs.empty())
    assert vs.is_fixed_only(vs.induced(space, (0,)))
    assert fixed_point_indices(get_class("graph"), graph_on(3, [(0, 1)])) == ()


@pytest.mark.parametrize("class_id", sorted(DEFAULT_MAX_BASE))
def test_is_fixed_only_agrees_with_the_full_scan(class_id):
    # is_fixed_only stops at the first moving point; fixed_point_indices
    # scans every point
    cls = get_class(class_id)
    structures = cls.enumerate_class(DEFAULT_MAX_BASE[class_id])
    for n in range(4):
        for x0_only in (False, True):
            structures += [hull for hull, _ in
                           cls.tuple_hulls(n, x0_only).values()]
    verdicts = set()
    for s in structures:
        points = range(len(s.points))
        full_scan = (len(points) > 0
                     and fixed_point_indices(cls, s) == tuple(points))
        assert cls.is_fixed_only(s) == full_scan, s
        verdicts.add(full_scan)
    assert verdicts == ({False, True} if class_id in (
        "vector_space", "vector_space_q3", "boolean_algebra") else {False})


# ---------------------------------------------------------------------------
# enumeration of structures


def test_enumerate_pure_sets():
    pure = get_class("pure_set")
    reps = pure.enumerate_class(3)
    assert len(reps) == 4
    assert [pure.size(r) for r in reps] == [0, 1, 2, 3]


def test_enumerate_linear_orders():
    order = get_class("linear_order")
    assert len(order.enumerate_class(5)) == 6


def test_enumerate_graphs():
    graph = get_class("graph")
    reps = graph.enumerate_class(6)
    by_size = {}
    for r in reps:
        by_size[len(r.points)] = by_size.get(len(r.points), 0) + 1
    assert [by_size.get(n, 0) for n in range(7)] == [1, 1, 2, 4, 11, 34, 156]
    codes = [graph.canonical_code(r) for r in reps]
    assert len(set(codes)) == len(reps)


def test_enumerate_vector_spaces():
    vs = get_class("vector_space")
    reps = vs.enumerate_class(3)
    assert len(reps) == 5
    assert sorted(len(r.points) for r in reps) == [0, 1, 2, 4, 8]
    vs3 = get_class("vector_space_q3")
    reps3 = vs3.enumerate_class(2)
    assert sorted(len(r.points) for r in reps3) == [0, 1, 3, 9]


def test_enumerate_boolean_algebras():
    boolean = get_class("boolean_algebra")
    reps = boolean.enumerate_class(3)
    assert len(reps) == 4
    assert [boolean.size(r) for r in reps] == [0, 1, 2, 3]
    assert [len(r.points) for r in reps] == [0, 2, 4, 8]


@pytest.mark.parametrize("class_id", sorted(DEFAULT_MAX_BASE))
def test_enumerate_class_refuses_a_negative_size(class_id):
    with pytest.raises(MalformedStructure):
        get_class(class_id).enumerate_class(-1)


@pytest.mark.parametrize("class_id, top", [("pure_set", 5),
                                            ("linear_order", 5),
                                            ("graph", 5),
                                            ("vector_space", 3),
                                            ("vector_space_q3", 2)])
def test_max_aut_order_is_the_largest_group(class_id, top):
    cls = get_class(class_id)
    for n in range(top + 1):
        assert cls.max_aut_order(n) == max(
            cls.automorphisms(b).order for b in cls.enumerate_class(n))


@pytest.mark.parametrize("class_id", sorted(DEFAULT_MAX_BASE))
def test_enumerated_bases_are_their_own_canonical_forms(class_id):
    # irrep_catalog reads each enumerated base's code without a search
    cls = get_class(class_id)
    for k in range(DEFAULT_MAX_BASE[class_id] + 1):
        for rep in cls.enumerate_class(k):
            assert cls.canonical(rep)[0] == rep
            assert cls.canonical_code(rep) == cls._code_of_canonical(rep)


# Reference graph search without pruning: every order compatible with the
# stable refinement, every order reaching the least code as a generator, and
# every extension mask of every graph canonicalized.

def reference_search(s):
    graph = get_class("graph")
    n = len(s.points)
    adj = graph._adjacency(s)
    best, orders = None, []
    for pieces in itertools.product(*[itertools.permutations(c) for c in
                                      graph._stable_cells(n, adj)]):
        order = tuple(itertools.chain.from_iterable(pieces))
        code = sum(1 << bit for bit, (i, j) in enumerate(
            itertools.combinations(range(n), 2))
            if adj[order[i]] >> order[j] & 1)
        if best is None or code < best:
            best, orders = code, [order]
        elif code == best:
            orders.append(order)
    return best or 0, orders


def reference_canonical(s):
    n = len(s.points)
    code, orders = reference_search(s)
    rel = [0] * n
    for new, old in enumerate(orders[0]):
        rel[old] = new
    edges = [pair for bit, pair in enumerate(
        itertools.combinations(range(n), 2)) if code >> bit & 1]
    return graph_on(n, edges), tuple(rel)


def reference_automorphisms(s):
    n = len(s.points)
    _, orders = reference_search(s)
    gens = []
    for other in orders:
        g = [0] * n
        for k in range(n):
            g[orders[0][k]] = other[k]
        gens.append(tuple(g))
    return PermGroup(n, gens)


def reference_enumeration(k):
    graph = get_class("graph")
    reps, level = [], [graph.empty()]
    for n in range(1, k + 1):
        seen = {}
        for prev in level:
            for mask in range(1 << (n - 1)):
                edges = set(prev.data) | {frozenset((v, n - 1))
                                          for v in range(n - 1)
                                          if mask >> v & 1}
                canon, _ = reference_canonical(graph_on(n, edges))
                seen.setdefault(graph._code_of_canonical(canon), canon)
        level = [seen[c] for c in sorted(seen)]
        reps.extend(level)
    return reps


def test_graph_enumeration_matches_the_unpruned_reference():
    graph = get_class("graph")
    reference = reference_enumeration(6)
    for k in range(7):
        expected = [graph.empty()] + [r for r in reference
                                      if len(r.points) <= k]
        expected.sort(key=lambda r: (len(r.points),
                                     graph._code_of_canonical(r)))
        assert graph.enumerate_class(k) == expected


def test_graph_canonical_forms_match_the_unpruned_reference():
    # every labelled graph on at most 5 points, and random relabellings of
    # the 156 graphs on 6
    graph = get_class("graph")
    cases = []
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        cases += [graph_on(n, [p for i, p in enumerate(pairs)
                               if mask >> i & 1])
                  for mask in range(1 << len(pairs))]
    rng = random.Random(24)
    six = [s for s in graph.enumerate_class(6) if len(s.points) == 6]
    assert len(six) == 156
    for s in six:
        perm = list(range(6))
        rng.shuffle(perm)
        cases.append(relabeled(graph, s, tuple(perm)))
    for s in cases:
        assert graph.canonical(s) == reference_canonical(s)
        assert graph.automorphisms(s).order == reference_automorphisms(s).order


def test_graph_automorphism_generators_match_the_unpruned_reference():
    # the kept generators are the reference group's reduced generators, so
    # the group and the conjugators built from them are unchanged
    graph = get_class("graph")
    cases = graph.enumerate_class(6) + [graph_on(7, [])]
    assert len(cases) == 210
    for s in cases:
        group, reference = graph.automorphisms(s), reference_automorphisms(s)
        assert group.generators == group.reduced_generators
        assert group.reduced_generators == reference.reduced_generators
        assert group.elements() == reference.elements()
    assert len(graph.automorphisms(graph_on(7, [])).generators) == 6


def test_carried_graph_generators_generate_the_reference_group():
    # the generators the enumeration carries per representative, and those
    # _canonical moves into canonical positions from a shuffled labelling,
    # generate Aut(rep) itself, element for element
    graph = get_class("graph")
    pairs = graph._enumerate(6)
    assert [rep for rep, _ in pairs] == graph.enumerate_class(6)
    empty = graph_on(7, [])
    cases = pairs + [(empty, graph._canonical(empty)[2])]
    assert len(cases) == 210
    rng = random.Random(33)
    for rep, gens in cases:
        n = len(rep.points)
        reference = set(reference_automorphisms(rep).elements())
        assert set(PermGroup(n, gens).elements()) == reference
        perm = list(range(n))
        rng.shuffle(perm)
        canon, _, moved = graph._canonical(relabeled(graph, rep, tuple(perm)))
        assert canon == rep
        assert set(PermGroup(n, moved).elements()) == reference


def test_each_graph_is_searched_once(monkeypatch):
    # every enumeration candidate is searched once; a parent's generators,
    # a hull's group and Aut of an open subgroup's base come from a search
    # already made, so none is searched again
    graph = get_class("graph")
    path = relabeled(graph, graph_on(4, [(0, 1), (1, 2), (2, 3)]),
                     (2, 0, 3, 1))
    calls, search = [], finstruct.GraphClass._search
    monkeypatch.setattr(finstruct.GraphClass, "_search",
                        lambda self, adj: calls.append(adj) or search(self, adj))
    for call, searches in (
            (lambda: graph.enumerate_class(6), 663),
            (lambda: graph.enumerate_class(4), 29),
            (lambda: graph.tuple_hulls(5), 119),
            (lambda: graph.tuple_hulls(0), 0),
            (lambda: make_open_subgroup("graph", path), 1)):
        calls.clear()
        result = call()
        assert len(calls) == searches, searches
    assert result.aut.order == 2 and result.base == graph.canonical(path)[0]
    empty = graph.empty()
    assert graph.tuple_hulls(0) == {
        graph._code_of_canonical(empty): (empty, 1)}


# ---------------------------------------------------------------------------
# tuple types


def bell_numbers(limit):
    table = [[1]]
    for n in range(1, limit + 1):
        row = [table[-1][-1]]
        for entry in table[-1]:
            row.append(row[-1] + entry)
        table.append(row)
    return [table[n][0] for n in range(limit + 1)]


def ordered_bell(limit):
    from math import comb
    values = [1]
    for n in range(1, limit + 1):
        values.append(sum(comb(n, k) * values[n - k] for k in range(1, n + 1)))
    return values


def stirling_table(limit):
    table = [[1] + [0] * limit]
    for n in range(1, limit + 1):
        row = [0] * (limit + 1)
        for k in range(1, n + 1):
            row[k] = table[n - 1][k - 1] + k * table[n - 1][k]
        table.append(row)
    return table


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_partition_generator_matches_bell():
    bells = bell_numbers(6)
    for n in range(7):
        assert sum(1 for _ in set_partitions(n)) == bells[n]
    # every block labelling of range(n), blocks sorted, ordered by least
    # element, each partition once
    for n in range(6):
        expected = set()
        for labels in itertools.product(range(n), repeat=n):
            blocks = {}
            for i, b in enumerate(labels):
                blocks.setdefault(b, []).append(i)
            expected.add(tuple(sorted(tuple(b) for b in blocks.values())))
        got = list(set_partitions(n))
        assert len(got) == len(set(got))
        assert set(got) == expected


# -- the test-side listing of vector and Boolean tuple types, which the
# classes count per hull in closed form and do not list


ListedType = namedtuple("ListedType", "n data")


def cell_by_cell(pmask, n):
    """Whether some entry of the Boolean tuple type ``pmask`` is the same,
    bottom or top, in every realized cell, its columns formed cell by
    cell."""
    for i in range(n):
        column = 0
        for cell in range(1 << n):
            if pmask >> cell & 1 and cell >> i & 1:
                column |= 1 << cell
        if pmask & column in (0, pmask):
            return True
    return False


def listed_tuple_types(cls, n, x0_only=False):
    """The orbits of n-tuples, with x0_only dropping those that touch a
    fixed element: the relational ``enumerate_tuple_types``, which touch
    none; the relation spaces of a vector space, in reduced echelon form;
    the nonempty sets of realized cells of a Boolean algebra, as masks."""
    if cls.relational:
        return cls.enumerate_tuple_types(n)
    if cls.id == "boolean_algebra":
        return [ListedType(n, pmask) for pmask in range(1, 1 << (1 << n))
                if not (x0_only and cell_by_cell(pmask, n))]
    return [ListedType(n, rows)
            for rows in finstruct._relation_spaces(n, cls.q)
            if not (x0_only and reference_touches_fixed(cls, rows, n))]


@pytest.mark.parametrize("cls_id", ["vector_space", "vector_space_q3",
                                    "boolean_algebra"])
def test_only_relational_classes_list_tuple_types(cls_id):
    with pytest.raises(NotImplementedError):
        get_class(cls_id).enumerate_tuple_types(2)


def test_pure_set_tuple_type_counts():
    pure = get_class("pure_set")
    bells = bell_numbers(5)
    for n in range(6):
        types = pure.enumerate_tuple_types(n)
        assert len(types) == bells[n]
    # no relational class has a fixed element to drop
    for cls_id in ("pure_set", "linear_order", "graph"):
        cls = get_class(cls_id)
        for n in range(5):
            assert cls.tuple_hulls(n, True) == cls.tuple_hulls(n, False)


def test_linear_order_tuple_type_counts():
    order = get_class("linear_order")
    expected = ordered_bell(5)
    for n in range(6):
        assert len(order.enumerate_tuple_types(n)) == expected[n]


def test_graph_tuple_type_counts():
    graph = get_class("graph")
    stirling = stirling_table(5)
    for n in range(6):
        expected = sum(
            stirling[n][k] * 2 ** (k * (k - 1) // 2) for k in range(n + 1))
        assert len(graph.enumerate_tuple_types(n)) == expected
    assert len(graph.enumerate_tuple_types(2)) == 3
    assert len(graph.enumerate_tuple_types(4)) == 127


def test_vector_space_tuple_type_counts():
    vs = get_class("vector_space")
    for n in range(5):
        expected = sum(gaussian_binomial(n, k, 2) for k in range(n + 1))
        assert len(listed_tuple_types(vs, n)) == expected
    vs3 = get_class("vector_space_q3")
    for n in range(5):
        expected = sum(gaussian_binomial(n, k, 3) for k in range(n + 1))
        assert len(listed_tuple_types(vs3, n)) == expected
    assert len(listed_tuple_types(vs, 1)) == 2
    assert len(listed_tuple_types(vs, 1, x0_only=True)) == 1
    assert len(listed_tuple_types(vs, 2, x0_only=True)) == 2


def test_boolean_tuple_type_counts():
    boolean = get_class("boolean_algebra")
    for n in range(4):
        assert len(listed_tuple_types(boolean, n)) == 2 ** (2 ** n) - 1
    assert len(listed_tuple_types(boolean, 1, x0_only=True)) == 1
    brute = 0
    for pattern in range(1, 16):
        cells = [c for c in range(4) if pattern >> c & 1]
        constant = False
        for i in range(2):
            bits = {c >> i & 1 for c in cells}
            if len(bits) == 1:
                constant = True
        if not constant:
            brute += 1
    assert len(listed_tuple_types(boolean, 2, x0_only=True)) == brute
    with pytest.raises(SizeLimitExceeded):
        boolean.enumerate_tuple_types(5)


@pytest.mark.parametrize("bits", [0, 8, 9, 24, 81])
def test_byte_tables_match_a_bit_by_bit_permutation(bits):
    rng = random.Random(bits)
    perm = list(range(bits))
    rng.shuffle(perm)
    moves = _byte_tables([1 << p for p in perm], 0)
    decode = _byte_tables([(k,) for k in range(bits)], ())
    assert len(moves) == max(1, -(-bits // 8))
    masks = [0, (1 << bits) - 1] + [rng.getrandbits(bits) for _ in range(300)]
    for mask in masks:
        set_bits = tuple(k for k in range(bits) if mask >> k & 1)
        assert _read_mask(moves, mask) == sum(1 << perm[k] for k in set_bits)
        assert _read_mask(decode, mask) == set_bits


@pytest.mark.parametrize("bits", [*range(13), 20])
def test_bulk_reading_matches_one_mask_at_a_time(bits):
    # every mask over up to 12 bits (one and two bytes); over 20 bits, three
    # bytes, which no criterion or workload reaches, the single bits, the
    # full mask and seeded masks
    rng = random.Random(bits)
    perm = list(range(bits))
    rng.shuffle(perm)
    if bits <= 12:
        masks = range(1 << bits)
    else:
        masks = ([1 << k for k in range(bits)] + [(1 << bits) - 1]
                 + [rng.getrandbits(bits) for _ in range(5000)])
    for tables in (_byte_tables([1 << p for p in perm], 0),
                   _byte_tables([(k,) for k in range(bits)], ())):
        assert len(tables) == max(1, -(-bits // 8))
        assert list(_read_masks(tables, masks)) == [
            _read_mask(tables, mask) for mask in masks]


# -- the per-type reference for tuple hulls: every tuple type read through
# its own marked core, as decompose_power did before classes counted
# orbits per closed hull


def relational_marked_core(cls, t):
    """Canonical hull of a relational tuple type and each entry's position
    in it."""
    blocks, core = t.data
    canon, rel = cls.canonical(
        FinStructure(cls.id, tuple(range(len(blocks))), core))
    block_of = {c: b for b, members in enumerate(blocks) for c in members}
    return canon, tuple(rel[block_of[c]] for c in range(t.n))


def boolean_marked_core(cls, t):
    """The algebra whose atoms are the realized cells of a Boolean tuple
    type, and each entry's mask over those atoms."""
    cells = [c for c in range(1 << t.n) if t.data >> c & 1]
    marked = tuple(sum(1 << k for k, cell in enumerate(cells) if cell >> i & 1)
                   for i in range(t.n))
    return cls.canonical_algebra(len(cells)), marked


def vector_marked_core(cls, t):
    """The canonical span of a vector tuple type's entries, and each
    entry's position in it: its coordinates over the free columns of the
    relation space."""
    reduced, pivots = _rref(t.data, cls.q)
    free = [c for c in range(t.n) if c not in pivots]
    marked = []
    for i in range(t.n):
        e = tuple(1 if j == i else 0 for j in range(t.n))
        residue = reference_residue(e, reduced, pivots, cls.q)
        marked.append(_lex_index(tuple(residue[c] for c in free), cls.q))
    return cls.canonical_space(len(free)), tuple(marked)


def stabilizer_is_trivial(cls, base, marked):
    """Whether only the identity of Aut(base) fixes every marked position:
    a relational base must be exactly the marked points, and marked vectors
    must span the space."""
    if cls.relational:
        return set(marked) == set(range(len(base)))
    vectors = [base.data[1][p] for p in marked]
    return len(_rref(vectors, cls.q)[0]) == cls.size(base)


def reference_tuple_hulls(cls, n, x0_only):
    """Canonical code -> (hull, orbit count), one tuple type at a time.

    Relational and vector hulls are canonicalized again.  A Boolean type
    is counted by its number of cells, the atoms of its hull, since
    canonicalizing an algebra on 2**16 points would not finish.
    """
    types = listed_tuple_types(cls, n, x0_only)
    if cls.id == "boolean_algebra":
        atoms = Counter(bin(t.data).count("1") for t in types)
        return {cls.code_for_atoms(m): (cls.canonical_algebra(m), count)
                for m, count in atoms.items()}
    hulls = {}
    for t in types:
        hull, marked = (relational_marked_core(cls, t) if cls.relational
                        else vector_marked_core(cls, t))
        assert stabilizer_is_trivial(cls, hull, marked)
        code = cls.canonical_code(hull)
        hulls[code] = (hull, hulls.get(code, (hull, 0))[1] + 1)
    return hulls


HULL_RANGES = {"pure_set": 5, "linear_order": 5, "graph": 5,
               "vector_space": 3, "vector_space_q3": 2, "boolean_algebra": 4}


@pytest.mark.parametrize("cls_id", sorted(HULL_RANGES))
def test_tuple_hulls_match_the_per_type_reference(cls_id):
    cls = get_class(cls_id)
    for n in range(HULL_RANGES[cls_id] + 1):
        for x0_only in (False, True):
            hulls = cls.tuple_hulls(n, x0_only)
            assert hulls == reference_tuple_hulls(cls, n, x0_only), (n, x0_only)
            assert (sum(count for _, count in hulls.values())
                    == len(listed_tuple_types(cls, n, x0_only)))
            for hull, _ in hulls.values():
                if cls.relational:
                    assert cls.canonical(hull)[0] == hull


def test_boolean_tuple_hulls_visit_no_cell_masks():
    # the counts are closed: the class keeps no listing of cell masks
    boolean = get_class("boolean_algebra")
    for n in range(5):
        full = boolean.tuple_hulls(n)
        punctured = boolean.tuple_hulls(n, x0_only=True)
        assert sum(count for _, count in full.values()) == (1 << (1 << n)) - 1
        assert all(count > 0 for _, count in punctured.values())


# the minimal masks, the residue test, the listed hull counts and the
# filtered joint configurations: the references for the blocks, the vector
# tuple listing, the Gaussian binomials and the generated configurations


def reference_atoms(masks):
    """The minimal nonzero masks: the atoms of a member."""
    nonzero = [m for m in masks if m]
    return sorted(m for m in nonzero
                  if not any(o != m and o & m == o for o in nonzero))


def reference_residue(vec, rref_rows, pivots, q):
    """``vec`` reduced by the rows of a reduced echelon form."""
    v = list(vec)
    for row, p in zip(rref_rows, pivots):
        if v[p]:
            c = v[p]
            v = [(a - c * b) % q for a, b in zip(v, row)]
    return tuple(v)


def reference_touches_fixed(cls, rows, n):
    """Whether some unit vector e_i reduces to zero by the relations."""
    if not rows:
        return False
    _, pivots = _rref(rows, cls.q)
    return any(not any(reference_residue(
        tuple(int(i == j) for j in range(n)), rows, pivots, cls.q))
        for i in range(n))


def reference_vector_hulls(cls, n, x0_only):
    """Hull code -> (hull, count), counting every relation space's rank."""
    dims = Counter(n - len(rows) for rows in finstruct._relation_spaces(n, cls.q)
                   if not (x0_only and reference_touches_fixed(cls, rows, n)))
    return {cls.canonical_code(cls.canonical_space(d)):
            (cls.canonical_space(d), count) for d, count in dims.items()}


def reference_joint_configs(q, dB, dC):
    """The relation spaces of GF(q)^(dB + dC), filtered to those whose rows
    stay independent on either half."""
    return {("space", rows) for rows in finstruct._relation_spaces(dB + dC, q)
            if len(_rref([r[:dB] for r in rows], q)[0]) == len(rows)
            and len(_rref([r[dB:] for r in rows], q)[0]) == len(rows)}


def algebra_members(m):
    """Every member of the algebra on m atoms, the unions of the blocks of
    each partition of the atoms, in increasing order and once shuffled."""
    boolean = get_class("boolean_algebra")
    rng = random.Random(m)
    yield boolean.empty()
    if not m:
        # on no atoms the top is the bottom, and no nonempty set is closed
        return
    for blocks in set_partitions(m):
        unions = [0]
        for block in blocks:
            bits = sum(1 << a for a in block)
            unions += [u | bits for u in unions]
        for order in (sorted(unions), rng.sample(unions, len(unions))):
            yield boolean.make(tuple(range(len(order))), (m, tuple(order)))


def test_boolean_blocks_match_the_minimal_masks_on_members():
    boolean = get_class("boolean_algebra")
    for m in range(5):
        members = 0
        for s in algebra_members(m):
            assert boolean.is_member(s)
            atoms = reference_atoms(s.data[1])
            assert boolean.size(s) == len(atoms)
            relabel = tuple(sum(1 << k for k, atom in enumerate(atoms)
                                if atom & mask == atom)
                            for mask in s.data[1])
            canon = boolean.canonical_algebra(len(atoms)) if atoms else (
                boolean.empty())
            assert boolean.canonical(s) == (canon, relabel), s
            members += 1
        assert members == (1 + 2 * bell_numbers(m)[m] if m else 1)


def test_boolean_size_counts_the_atoms_of_the_closure():
    # a non-member's size is that of the algebra it generates, as a set of
    # vectors has the rank of its span
    boolean = get_class("boolean_algebra")
    assert boolean.size(boolean.make((0, 1, 2), (2, (0, 1, 3)))) == 2
    for m in range(4):
        full = boolean.make(tuple(range(1 << m)), (m, tuple(range(1 << m))))
        for bits in range(1 << (1 << m)):
            positions = tuple(p for p in range(1 << m) if bits >> p & 1)
            closure = reference_close(boolean, full, positions)
            s = boolean.make(positions, (m, positions))
            assert boolean.size(s) == len(reference_atoms(closure)), s


@pytest.mark.parametrize("class_id, top", [("vector_space", 5),
                                           ("vector_space_q3", 4)])
def test_vector_unit_rows_and_closed_counts_match_the_listing(class_id, top):
    cls = get_class(class_id)
    for n in range(top + 1):
        for x0_only in (False, True):
            assert (cls.tuple_hulls(n, x0_only)
                    == reference_vector_hulls(cls, n, x0_only)), (n, x0_only)


@pytest.mark.parametrize("q, top", [(2, 3), (3, 2)])
def test_vector_joint_configs_match_the_filtered_listing(q, top):
    for dB in range(top + 1):
        for dC in range(top + 1):
            configs = finstruct.VectorSpaceClass._joint_configs(q, dB, dC)
            assert len(set(configs)) == len(configs)
            assert set(configs) == reference_joint_configs(q, dB, dC), (dB, dC)


@pytest.mark.parametrize("class_id", ["vector_space", "vector_space_q3"])
def test_vector_tuple_hulls_list_no_relation_space(class_id, monkeypatch):
    cls = get_class(class_id)

    def refuse(*args):
        raise AssertionError("listed the relation spaces")

    monkeypatch.setattr(finstruct, "_relation_spaces", refuse)
    for n in range(cls.max_tuple_len + 1):
        for x0_only in (False, True):
            hulls = cls.tuple_hulls(n, x0_only)
            assert all(count > 0 for _, count in hulls.values())
        assert (sum(count for _, count in cls.tuple_hulls(n).values())
                == sum(gaussian_binomial(n, k, cls.q) for k in range(n + 1)))


def test_graph_hull_counts_follow_orbit_stabilizer():
    # the k!/|Aut(B)| labelled cores of a k-point hull B each carry the
    # S(n, k) partitions of the coordinates into k blocks
    graph = get_class("graph")
    stirling = stirling_table(6)
    for n in range(7):
        for hull, count in graph.tuple_hulls(n).values():
            k = len(hull.points)
            edges = {tuple(sorted(e)) for e in hull.data}
            aut = sum(1 for p in itertools.permutations(range(k))
                      if {tuple(sorted((p[a], p[b]))) for a, b in edges}
                      == edges)
            assert count * aut == stirling[n][k] * math.factorial(k)


def test_linear_order_hull_counts_sum_to_weak_orders():
    # a chain has no automorphism but the identity, so a k-point hull is
    # the hull of all S(n, k) k! orbits of maps onto it; the orbit of n
    # rationals is the weak order they put on the coordinates
    order = get_class("linear_order")
    stirling = stirling_table(6)
    for n in range(7):
        hulls = order.tuple_hulls(n)
        assert ({len(hull): count for hull, count in hulls.values()}
                == {k: stirling[n][k] * math.factorial(k)
                    for k in range(n + 1) if stirling[n][k]})
        weak_orders = {tuple(sorted(set(w)).index(x) for x in w)
                       for w in itertools.product(range(n), repeat=n)}
        assert (sum(count for _, count in hulls.values())
                == len(weak_orders) == [1, 1, 3, 13, 75, 541, 4683][n])


@pytest.mark.parametrize("cls_id", sorted(HULL_RANGES))
def test_tuple_hulls_refuse_bad_lengths(cls_id):
    cls = get_class(cls_id)
    with pytest.raises(MalformedStructure):
        cls.tuple_hulls(-1)
    with pytest.raises(SizeLimitExceeded):
        cls.tuple_hulls(cls.max_tuple_len + 1, x0_only=True)


def test_canonical_algebras_carry_the_code_for_their_atoms():
    boolean = get_class("boolean_algebra")
    assert boolean.canonical_algebra(0) == boolean.empty()
    for m in range(5):
        algebra = boolean.canonical_algebra(m)
        assert boolean.canonical_code(algebra) == boolean.code_for_atoms(m)
    assert (boolean.canonical_code(boolean.canonical_algebra(0))
            == boolean.canonical_code(boolean.empty()))


def test_marked_cores_pure_set():
    pure = get_class("pure_set")
    types = pure.enumerate_tuple_types(2)
    cores = {relational_marked_core(pure, t)[1] for t in types}
    assert cores == {(0, 0), (0, 1)}


def test_marked_cores_vector_space():
    vs = get_class("vector_space")
    for t in listed_tuple_types(vs, 2):
        base, marked = vector_marked_core(vs, t)
        assert vs.is_member(base)
        dim = vs.size(base)
        span = vs.acl(base, marked) if marked else ()
        if dim:
            assert len(span) == 2 ** dim
    zero_type = [t for t in listed_tuple_types(vs, 1)
                 if reference_touches_fixed(vs, t.data, t.n)]
    base, marked = vector_marked_core(vs, zero_type[0])
    assert vs.size(base) == 0
    assert marked == (0,)


def test_marked_cores_boolean():
    boolean = get_class("boolean_algebra")
    for t in listed_tuple_types(boolean, 2):
        base, marked = boolean_marked_core(boolean, t)
        assert boolean.is_member(base)
        assert boolean.acl(base, marked) == tuple(range(len(base.points)))
        for m in marked:
            assert 0 <= m < len(base.points)


def test_marked_cores_generate_relational():
    graph = get_class("graph")
    for t in graph.enumerate_tuple_types(3):
        base, marked = relational_marked_core(graph, t)
        assert set(marked) == set(range(len(base.points)))


def test_marked_cores_pin_every_automorphism_brute_force():
    # the marked points of a tuple hull pin every automorphism
    graph = get_class("graph")
    for t in graph.enumerate_tuple_types(3):
        base, marked = relational_marked_core(graph, t)
        n = len(base.points)
        fixers = []
        for perm in itertools.permutations(range(n)):
            if any(perm[p] != p for p in marked):
                continue
            moved = frozenset(
                frozenset({perm[a], perm[b]}) for a, b in
                (tuple(e) for e in base.data))
            if moved == base.data:
                fixers.append(perm)
        assert fixers == [tuple(range(n))]

    boolean = get_class("boolean_algebra")
    for t in listed_tuple_types(boolean, 2):
        base, marked = boolean_marked_core(boolean, t)
        m = boolean.size(base)
        if m <= 1:
            continue
        fixers = []
        for sigma in itertools.permutations(range(m)):
            def move(mask):
                return sum(1 << sigma[k] for k in range(m) if mask >> k & 1)
            if all(move(mk) == mk for mk in marked):
                fixers.append(sigma)
        assert fixers == [tuple(range(m))]


def test_hull_stabilizers_are_trivial_brute_force():
    # the marked vectors of a tuple hull pin every automorphism
    for cls_id in ("vector_space", "vector_space_q3"):
        vcls = get_class(cls_id)
        q = vcls.q
        for t in listed_tuple_types(vcls, 2):
            base, marked = vector_marked_core(vcls, t)
            dim = vcls.size(base)
            if dim == 0:
                continue
            vectors = [base.data[1][p] for p in marked]
            fixing = 0
            for cols in itertools.product(
                    itertools.product(range(q), repeat=dim), repeat=dim):
                image = {}
                for v in base.data[1]:
                    img = tuple(
                        sum(cols[j][r] * v[j] for j in range(dim)) % q
                        for r in range(dim))
                    image[v] = img
                if len(set(image.values())) != len(image):
                    continue
                if all(image[v] == v for v in vectors):
                    fixing += 1
            assert fixing == 1


# ---------------------------------------------------------------------------
# hereditarity and serialization


def test_induced_substructures_stay_in_class():
    graph = get_class("graph")
    s = graph_on(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    for k in range(6):
        for subset in itertools.combinations(range(5), k):
            assert graph.is_member(graph.induced(s, subset))
    vs = get_class("vector_space")
    space = vs.canonical_space(3)
    closure = vs.acl(space, (1, 2))
    assert vs.is_member(vs.induced(space, closure))


def test_structure_to_json():
    cases = [
        (get_class("pure_set").make((0, 1, 2), None), {}),
        (get_class("linear_order").make(("a", "b"), (1, 0)),
         {"ranks": [1, 0]}),
        (graph_on(3, [(0, 2)]), {"edges": [[0, 2]]}),
        (get_class("vector_space").canonical_space(2),
         {"q": 2, "vectors": [[0, 0], [0, 1], [1, 0], [1, 1]]}),
        (get_class("boolean_algebra").canonical_algebra(2),
         {"atoms": 2, "masks": [0, 1, 2, 3]}),
    ]
    for s, data in cases:
        doc = json.loads(json.dumps(structure_to_json(s)))
        assert doc == {"class": s.cls, "points": list(s.points), "data": data}
    malformed = FinStructure("linear_order", (0, 1), (0, 0))
    with pytest.raises(MalformedStructure):
        structure_to_json(malformed)
