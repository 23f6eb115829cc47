"""Open subgroups, catalogs, decompositions, and double cosets."""

import dataclasses
import itertools
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest

import oligorep
from oligorep import acceptance, cli, finstruct, oligo
from oligorep.acceptance import CLASS_IDS, PROFILE_BASE
from oligorep.chartab import character_table
from oligorep.errors import (
    BaseNotAclClosed,
    InvariantViolation,
    MalformedStructure,
    NotASubgroup,
    SizeLimitExceeded,
)
from oligorep.finstruct import (
    FinStructure,
    FraisseClass,
    _lex_vector,
    _rref,
    get_class,
)
from oligorep.limits import get_limits
from oligorep.oligo import (
    IrrepLabel,
    commensurator,
    decompose_power,
    decompose_quasiregular,
    double_coset_profile,
    enumerate_open_subgroups,
    finitely_many_left_cosets,
    induced_equivalent,
    irrep_catalog,
    label_values,
    make_open_subgroup,
    tensor_recursion_check,
    trivial_label,
)
from oligorep.permgrp import PermGroup, from_cycles, identity, inverse


def stirling2(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def delannoy(i, j):
    if i == 0 or j == 0:
        return 1
    return delannoy(i - 1, j) + delannoy(i, j - 1) + delannoy(i - 1, j - 1)


def pure_base(n):
    return get_class("pure_set").make(tuple(range(n)), None)


def chain(n):
    return get_class("linear_order").make(tuple(range(n)), tuple(range(n)))


def graph_on(edges, n):
    payload = frozenset(frozenset(e) for e in edges)
    return get_class("graph").make(tuple(range(n)), payload)


def test_make_open_subgroup_canonicalizes_base():
    pure = get_class("pure_set")
    v = make_open_subgroup("pure_set", pure.make((5, 9), None), [(1, 0)])
    assert v.base.points == (0, 1)
    assert v.group.order == 2
    assert v.index == 1


def test_fixed_only_bases_normalize_to_empty():
    vs = get_class("vector_space")
    zero_only = vs.make((0,), (2, ((0, 0),)))
    v = make_open_subgroup("vector_space", zero_only)
    assert v.base_size == 0
    assert len(v.base.points) == 0
    assert v.group.degree == 0
    dec = decompose_quasiregular(v)
    assert dec.terms == {trivial_label("vector_space"): 1}

    boo = get_class("boolean_algebra")
    bounds = boo.make((0, 1), (1, (0, 1)))
    w = make_open_subgroup("boolean_algebra", bounds)
    assert len(w.base.points) == 0


def test_base_must_be_closed():
    vs = get_class("vector_space")
    open_pair = vs.make((0, 1), (2, ((1, 0), (0, 1))))
    with pytest.raises(BaseNotAclClosed):
        make_open_subgroup("vector_space", open_pair)
    boo = get_class("boolean_algebra")
    missing_complement = boo.make((0, 1, 3), (2, (0, 1, 3)))
    with pytest.raises(BaseNotAclClosed):
        make_open_subgroup("boolean_algebra", missing_complement)


def shuffled(base, rng):
    """``base`` with its points in a seeded order, renamed."""
    order = rng.sample(range(len(base.points)), len(base.points))
    where = {old: new for new, old in enumerate(order)}
    if base.cls == "graph":
        data = frozenset(frozenset(where[v] for v in e) for e in base.data)
    elif base.cls == "pure_set":
        data = None
    elif base.cls == "linear_order":
        data = tuple(base.data[old] for old in order)
    else:
        tag, elements = base.data
        data = (tag, tuple(elements[old] for old in order))
    return FinStructure(base.cls, tuple(f"p{old}" for old in order), data)


def test_open_subgroup_bases_are_canonical_so_their_codes_need_no_search():
    # every constructor passes a canonical base, so the code read off it
    # is the code a canonical search would give
    rng = random.Random(0)
    for class_id in CLASS_IDS:
        cls = get_class(class_id)
        max_base = PROFILE_BASE[class_id]
        subgroups = enumerate_open_subgroups(class_id, max_base)
        subgroups += [commensurator(v) for v in subgroups]
        subgroups += [v for v, _ in
                      acceptance._subgroup_sweep(class_id, max_base)]
        for base in cls.enumerate_class(max_base):
            moved = shuffled(base, rng)
            subgroups.append(make_open_subgroup(class_id, moved))
            subgroups.append(make_open_subgroup(
                class_id, moved, cls.automorphisms(moved).generators))
        for v in subgroups:
            assert cls.canonical(v.base)[0] == v.base, v
            assert v.base_code == cls.canonical_code(v.base), v


def test_no_sweep_searches_a_base_again(monkeypatch):
    # the sweeps, the catalogs and their decompositions take Aut(B) from
    # the enumeration that found B, and so does a table lookup that misses
    # the cache: no base is searched once more
    callers = []
    searched = FraisseClass.automorphisms

    def recording(self, s):
        callers.append(sys._getframe(1).f_code.co_name)
        return searched(self, s)

    monkeypatch.setattr(FraisseClass, "automorphisms", recording)
    monkeypatch.setattr(oligo, "_TABLES", {})
    for class_id in CLASS_IDS:
        irrep_catalog(class_id)
        for v in enumerate_open_subgroups(class_id, PROFILE_BASE[class_id]):
            decompose_quasiregular(v)
        for v, _ in acceptance._subgroup_sweep(
                class_id, acceptance.SWEEP_BASE[class_id]):
            decompose_quasiregular(v)
    acceptance.criterion_9()
    assert callers == []


@pytest.mark.parametrize("class_id", CLASS_IDS)
def test_swept_generators_generate_the_searched_automorphism_group(class_id):
    cls = get_class(class_id)
    for base, gens in oligo.sweep_bases(class_id,
                                        acceptance.SWEEP_BASE[class_id]):
        group = PermGroup(len(base.points), gens)
        aut = cls.automorphisms(base)
        assert group.order == aut.order, base
        if group.order <= 2000:
            assert set(group.elements()) == set(aut.elements()), base


def test_generators_must_preserve_base():
    path = graph_on([(0, 1), (1, 2)], 3)
    with pytest.raises(NotASubgroup):
        make_open_subgroup("graph", path, [(1, 0, 2)])
    v = make_open_subgroup("graph", path, [(2, 1, 0)])
    assert v.group.order == 2


def test_enumerate_open_subgroups_counts():
    assert len(enumerate_open_subgroups("pure_set", 2)) == 4
    assert len(enumerate_open_subgroups("linear_order", 2)) == 3
    assert len(enumerate_open_subgroups("graph", 2)) == 6
    # S3 has four subgroups up to conjugacy, plus 2 for the smaller bases
    # and 2 for the empty and one-point bases
    assert len(enumerate_open_subgroups("pure_set", 3)) == 8


def test_catalog_counts():
    assert len(irrep_catalog("pure_set", 2)) == 4
    assert len(irrep_catalog("linear_order", 4)) == 5
    assert len(irrep_catalog("linear_order", 5)) == 6
    assert len(irrep_catalog("graph", 2)) == 6
    assert len(irrep_catalog("boolean_algebra", 3)) == 6
    # 1 + k(GL(d,2)) for d = 1..4: 1 + 1 + 3 + 6 + 14
    assert len(irrep_catalog("vector_space", 4)) == 25
    # 1 + k(GL(1,3)) + k(GL(2,3)) = 1 + 2 + 8
    assert len(irrep_catalog("vector_space_q3", 2)) == 11


def test_table_bound_holds_for_cached_tables(monkeypatch):
    # S5's table, cached under the default bound, is refused once the
    # bound drops below 120; symmetric tables on atoms stay unbounded
    monkeypatch.delenv("OLIGOREP_LIMITS", raising=False)
    assert len(irrep_catalog("pure_set", 5)) == 19
    monkeypatch.setenv("OLIGOREP_LIMITS", '{"table_order": 100}')
    with pytest.raises(SizeLimitExceeded):
        irrep_catalog("pure_set", 5)
    assert len(irrep_catalog("pure_set", 4)) == 12
    algebra = get_class("boolean_algebra").canonical_algebra(5)
    assert oligo.base_table("boolean_algebra", algebra, None).group_order == 120


def test_table_bound_holds_before_and_behind_the_group_key(monkeypatch):
    # the empty and complete graphs on 4 vertices and the 4-point set share
    # S4 as a set of elements, so one table serves all three codes; below
    # the bound, a cached code is refused by the table's order and a new
    # one by the group's, before its elements form the group key
    monkeypatch.delenv("OLIGOREP_LIMITS", raising=False)
    monkeypatch.setattr(oligo, "_TABLES", {})
    code = get_class("graph").canonical_code
    empty = graph_on([], 4)
    full = graph_on(itertools.combinations(range(4), 2), 4)
    table = oligo.base_table("graph", empty, code(empty))
    assert oligo.base_table("graph", full, code(full)) is table
    cached = len(oligo._TABLES)
    real = PermGroup.packed_elements

    def bounded(group):
        if group.order > 20:
            raise AssertionError("elements built above the table bound")
        return real(group)

    monkeypatch.setattr(PermGroup, "packed_elements", bounded)
    monkeypatch.setenv("OLIGOREP_LIMITS", '{"table_order": 20}')
    pure_code = get_class("pure_set").canonical_code(pure_base(4))
    for class_id, base, base_code in (("graph", empty, code(empty)),
                                      ("graph", full, code(full)),
                                      ("pure_set", pure_base(4), pure_code)):
        with pytest.raises(SizeLimitExceeded):
            oligo.base_table(class_id, base, base_code)
    assert len(oligo._TABLES) == cached
    monkeypatch.setattr(PermGroup, "packed_elements", real)
    monkeypatch.setenv("OLIGOREP_LIMITS", '{"table_order": 24}')
    assert oligo.base_table("pure_set", pure_base(4), pure_code) is table


def test_base_tables_are_shared_by_equal_groups_and_match_fresh_ones(
        monkeypatch):
    # every generic table of the six default catalogs equals one built from
    # the base's own group, and bases whose groups have equal element sets
    # share one table: 227 codes, 95 groups
    monkeypatch.delenv("OLIGOREP_LIMITS", raising=False)
    monkeypatch.setattr(oligo, "_TABLES", {})
    by_group, codes = {}, 0
    for class_id in CLASS_IDS:
        cls = get_class(class_id)
        if cls.atomic:
            continue
        for base in cls.enumerate_class(get_limits().base_limit(class_id)):
            if not base.points or cls.is_fixed_only(base):
                continue
            code = cls.canonical_code(base)
            table = oligo.base_table(class_id, base, code)
            group = cls.automorphisms(base)
            fresh = character_table(group)
            assert fresh.classes == table.classes
            assert fresh.class_reps == table.class_reps
            assert fresh.degrees == table.degrees
            for i, degree in enumerate(table.degrees):
                label = IrrepLabel(class_id, code, cls.size(base), i,
                                   degree, table)
                assert label_values(label) == label_values(
                    dataclasses.replace(label, table=fresh))
            key = (group.degree, tuple(group.packed_elements()))
            assert by_group.setdefault(key, table) is table
            codes += 1
    assert codes == 227
    assert len(by_group) == len({id(t) for t in by_group.values()}) == 95
    assert len(oligo._TABLES) == codes + 95


def test_catalog_contains_unique_trivial_label():
    for cls_id in ("pure_set", "linear_order", "graph",
                   "vector_space", "boolean_algebra"):
        labels = irrep_catalog(cls_id, 2)
        trivials = [lab for lab in labels if lab.is_trivial()]
        assert trivials == [trivial_label(cls_id)]
        assert len(set(labels)) == len(labels)


def empty_base_values(class_id):
    """Catalog, quasi-regular and power decompositions that carry the
    trivial label, as JSON; the n = 1 powers of the classes with fixed
    elements have fixed-only hulls."""
    whole = make_open_subgroup(class_id, get_class(class_id).empty())
    values = [[label.to_json() for label in irrep_catalog(class_id, 2)],
              decompose_quasiregular(whole).to_json(),
              decompose_power(class_id, 0).to_json()]
    if get_class(class_id).num_fixed_elements:
        values += [decompose_power(class_id, 1, x0_only=x0).to_json()
                   for x0 in (False, True)]
    return values


def test_the_trivial_label_is_computed_like_every_other(monkeypatch):
    expected = {c: empty_base_values(c) for c in CLASS_IDS}
    for c in CLASS_IDS:
        trivial = trivial_label(c).to_json()
        catalog, quasiregular, power = expected[c][:3]
        assert catalog[0] == trivial
        assert quasiregular == power == [dict(trivial, multiplicity=1)]
    assert [len(v) for v in expected.values()] == [3, 3, 3, 5, 5, 5]

    def refused(class_id):
        raise AssertionError("the trivial label is written by hand")

    monkeypatch.setattr(oligo, "trivial_label", refused)
    assert {c: empty_base_values(c) for c in CLASS_IDS} == expected


def test_the_empty_base_checks_its_index(monkeypatch):
    # a permutation character of 2 on the one-row table is a decomposition
    # of degree 2, against the index 1 of the whole group
    coset_character = oligo.coset_character

    def doubled(table, sub):
        return (2,) if table.num_classes == 1 else coset_character(table, sub)

    monkeypatch.setattr(oligo, "coset_character", doubled)
    for c in CLASS_IDS:
        whole = make_open_subgroup(c, get_class(c).empty())
        with pytest.raises(InvariantViolation, match="dimension 2 != index 1"):
            decompose_quasiregular(whole)


def test_quasiregular_two_point_pointwise_stabilizer():
    v = make_open_subgroup("pure_set", pure_base(2))
    dec = decompose_quasiregular(v)
    assert v.index == 2
    assert sorted(m for _, m in dec.items()) == [1, 1]
    assert dec.total_degree() == 2
    sigmas = sorted(lab.sigma_index for lab, _ in dec.items())
    assert sigmas == [0, 1]


def test_quasiregular_trivial_k_gives_regular_character():
    # K = 1 on a three point set: multiplicities are the S3 degrees
    v = make_open_subgroup("pure_set", pure_base(3))
    dec = decompose_quasiregular(v)
    assert v.index == 6
    mults = [m for _, m in dec.items()]
    degs = [lab.degree for lab, _ in dec.items()]
    assert mults == degs
    assert dec.total_degree() == 6


def test_quasiregular_cyclic_subgroup_of_s3():
    v = make_open_subgroup("pure_set", pure_base(3), [(1, 2, 0)])
    dec = decompose_quasiregular(v)
    assert v.index == 2
    # cosets of the rotation group: trivial plus sign, no standard part
    by_sigma = {lab.sigma_index: m for lab, m in dec.items()}
    degrees = {lab.sigma_index: lab.degree for lab, _ in dec.items()}
    assert all(d == 1 for d in degrees.values())
    assert sorted(by_sigma.values()) == [1, 1]


def test_quasiregular_dimension_bookkeeping():
    for v in enumerate_open_subgroups("graph", 2):
        assert decompose_quasiregular(v).total_degree() == v.index
    for v in enumerate_open_subgroups("boolean_algebra", 3):
        assert decompose_quasiregular(v).total_degree() == v.index


@pytest.mark.parametrize("swap, message", [
    ((3, 5), "atom action lost part of the subgroup"),
    ((1, 3), "automorphism does not permute atoms"),
    ((0, 1), "automorphism does not permute atoms")])
def test_atom_action_refuses_a_mask_swap_that_is_no_automorphism(
        swap, message):
    # the swap of masks 3 and 5 fixes every atom, so its atom group is
    # trivial; those of 1 and 3, and of 0 and 1, send atom 1 off the atoms
    boo = get_class("boolean_algebra")
    base = boo.canonical_algebra(3)
    bad = PermGroup(8, [from_cycles(8, [swap])])
    v = oligo.OpenSubgroup("boolean_algebra", base, bad,
                           boo.automorphisms(base))
    for call in (lambda: boo.cell_group(bad, base),
                 lambda: decompose_quasiregular(v),
                 lambda: double_coset_profile(v)):
        with pytest.raises(InvariantViolation, match=message):
            call()


def test_power_pure_set_small():
    d2 = decompose_power("pure_set", 2)
    assert {(lab.base_size, lab.sigma_index): m for lab, m in d2.items()} == {
        (1, 0): 1,
        (2, 0): 1,
        (2, 1): 1,
    }
    d3 = decompose_power("pure_set", 3)
    got = {(lab.base_size, lab.sigma_index): m for lab, m in d3.items()}
    assert got == {
        (1, 0): 1,
        (2, 0): 3,
        (2, 1): 3,
        (3, 0): 1,
        (3, 1): 1,
        (3, 2): 2,
    }


def test_power_pure_multiplicity_law():
    # multiplicity of a k point label in the n-th power is S(n,k) * degree
    for n in range(1, 5):
        dec = decompose_power("pure_set", n)
        for lab, mult in dec.items():
            assert mult == stirling2(n, lab.base_size) * lab.degree
        assert all(not lab.is_trivial() for lab, _ in dec.items())


def test_power_boolean_one():
    dec = decompose_power("boolean_algebra", 1)
    got = {(lab.base_size, lab.sigma_index): m for lab, m in dec.items()}
    # 0 and 1 each contribute a trivial copy; proper elements give the
    # two atom algebra with the regular S2 character
    assert got == {(0, 0): 2, (2, 0): 1, (2, 1): 1}
    punctured = decompose_power("boolean_algebra", 1, x0_only=True)
    got0 = {(lab.base_size, lab.sigma_index): m for lab, m in punctured.items()}
    assert got0 == {(2, 0): 1, (2, 1): 1}


def test_power_boolean_two():
    dec = decompose_power("boolean_algebra", 2)
    by_atoms = {}
    for lab, mult in dec.items():
        by_atoms.setdefault(lab.base_size, []).append((lab.degree, mult))
    # type counts by hull size: C(4,m) cell subsets of the 4 cells
    assert sum(m for _, m in by_atoms[0]) == 4
    for atoms, pairs in by_atoms.items():
        if atoms == 0:
            continue
        count = [4, 6, 4, 1][atoms - 1]
        for degree, mult in pairs:
            assert mult == count * degree
    assert sorted(by_atoms) == [0, 2, 3, 4]


def test_power_vector_space_small():
    d1 = decompose_power("vector_space", 1)
    got = {(lab.base_size, lab.sigma_index): m for lab, m in d1.items()}
    assert got == {(0, 0): 1, (1, 0): 1}
    d2 = decompose_power("vector_space", 2)
    got = {(lab.base_size, lab.sigma_index): m for lab, m in d2.items()}
    # three pair types span a line: (v,0), (0,v), (v,v)
    assert got[(1, 0)] == 3
    assert got[(0, 0)] == 1
    degrees = {lab.sigma_index: lab.degree
               for lab, _ in d2.items() if lab.base_size == 2}
    assert sorted(degrees.values()) == [1, 1, 2]
    for lab, mult in d2.items():
        if lab.base_size == 2:
            assert mult == lab.degree


def test_power_x0_only_is_noop_without_fixed_elements():
    for cls_id in ("pure_set", "linear_order", "graph"):
        full = decompose_power(cls_id, 2)
        punctured = decompose_power(cls_id, 2, x0_only=True)
        assert full == punctured


def test_tensor_recursion_all_classes():
    cases = [
        ("pure_set", 3),
        ("linear_order", 3),
        ("graph", 2),
        ("vector_space", 2),
        ("vector_space_q3", 2),
        ("boolean_algebra", 2),
    ]
    for cls_id, k in cases:
        for j in range(k + 1):
            report = tensor_recursion_check(cls_id, j)
            assert report["ok"], (cls_id, j, report)
            assert report["max_abs_residual"] == 0


@pytest.mark.parametrize("cls_id", ["pure_set", "linear_order", "graph"])
def test_tensor_recursion_forms_one_power_without_fixed_elements(
        cls_id, monkeypatch):
    # with no fixed elements the punctured (k+1)-st power is the (k+1)-st
    # power, so the check reuses it and is an identity
    calls = []

    def counting(class_id, n, x0_only=False):
        calls.append((n, x0_only))
        return decompose_power(class_id, n, x0_only)

    monkeypatch.setattr(oligo, "decompose_power", counting)
    for k in range(4):
        calls.clear()
        report = tensor_recursion_check(cls_id, k)
        assert calls == [(k + 1, False)]
        assert (report["fixed_part_size"], report["max_abs_residual"],
                report["ok"]) == (0, 0, True)


@pytest.mark.parametrize("cls_id", ["vector_space", "boolean_algebra"])
def test_tensor_recursion_fails_on_a_dropped_orbit(cls_id, monkeypatch,
                                                    capsys):
    # one orbit missing from a punctured power must show as a residual
    cls = get_class(cls_id)
    hulls = cls.tuple_hulls

    def dropping(n, x0_only=False):
        counted = hulls(n, x0_only)
        if x0_only and counted:
            code = max(counted, key=lambda c: counted[c][1])
            hull, count = counted[code]
            counted[code] = (hull, count - 1)
        return counted

    monkeypatch.setattr(cls, "tuple_hulls", dropping)
    report = tensor_recursion_check(cls_id, 2)
    assert report["max_abs_residual"] > 0
    assert report["ok"] is False
    assert cli.main(["decompose", "--class", cls_id, "--n", "2"]) == 3
    assert capsys.readouterr().out == ""


def test_power_labels_appear_in_catalog():
    pairs = [
        ("pure_set", 3, 3),
        ("graph", 2, 2),
        ("vector_space", 2, 2),
        ("boolean_algebra", 2, 4),
    ]
    for cls_id, n, max_base in pairs:
        catalog = set(irrep_catalog(cls_id, max_base))
        power = decompose_power(cls_id, n)
        assert set(power.terms) <= catalog


def test_double_coset_profile_pure():
    v1 = make_open_subgroup("pure_set", pure_base(1))
    v2 = make_open_subgroup("pure_set", pure_base(2))
    assert double_coset_profile(v1).count == 2
    assert double_coset_profile(v2).count == 7
    # pointwise stabilizers: sum over t of C(nB,t) C(nC,t) t!
    v3 = make_open_subgroup("pure_set", pure_base(3))
    expected = sum(
        len(list(itertools.combinations(range(3), t))) ** 2
        * len(list(itertools.permutations(range(t))))
        for t in range(4))
    assert double_coset_profile(v3).count == expected == 34
    assert double_coset_profile(v1, v2).count == 3
    # marking the two point side up to its full symmetry halves the tail
    v2s = make_open_subgroup("pure_set", pure_base(2), [(1, 0)])
    assert double_coset_profile(v1, v2s).count == 2


def test_double_coset_profile_linear_is_delannoy():
    stabs = {n: make_open_subgroup("linear_order", chain(n))
             for n in range(1, 4)}
    for i in range(1, 4):
        for j in range(1, 4):
            profile = double_coset_profile(stabs[i], stabs[j])
            assert profile.count == delannoy(i, j), (i, j)


def test_double_coset_profile_graph_edge():
    edge = graph_on([(0, 1)], 2)
    ve = make_open_subgroup("graph", edge, [(1, 0)])
    assert double_coset_profile(ve).count == 10
    vp = make_open_subgroup("graph", edge)
    assert double_coset_profile(vp).count == 26
    nonedge = graph_on([], 2)
    vn = make_open_subgroup("graph", nonedge, [(1, 0)])
    assert double_coset_profile(vn).count == 10
    # an edge copy and a nonedge copy can never be glued on both points
    assert double_coset_profile(ve, vn).count == 9


def test_double_coset_profile_vector_space():
    vs = get_class("vector_space")
    line = make_open_subgroup("vector_space", vs.canonical_space(1))
    profile = double_coset_profile(line)
    assert profile.count == 2
    assert ("space", ()) in profile.configs
    plane = make_open_subgroup("vector_space", vs.canonical_space(2))
    # relations between two marked planes are graphs of partial
    # isomorphisms: rank 0 (one), rank 1 (9), rank 2 (6 bijections)
    assert double_coset_profile(plane).count == 16
    # remarking by the full GL(2,2) on both sides leaves one orbit per rank
    assert double_coset_profile(commensurator(plane)).count == 3


def test_double_coset_profile_boolean():
    boo = get_class("boolean_algebra")
    m2 = boo.canonical_algebra(2)
    free = make_open_subgroup("boolean_algebra", m2)
    assert double_coset_profile(free).count == 7
    marked = make_open_subgroup("boolean_algebra", m2, [(0, 2, 1, 3)])
    assert double_coset_profile(marked).count == 3


# -- the test-only reference for double cosets: each class's action on
# configuration payloads, independent of the cell masks the classes use


def _relabel_pairs(pairs, g1, g2):
    return tuple(sorted((g1[i], g2[j]) for i, j in pairs))


def _move_ranks(ranks, g):
    moved = [0] * len(ranks)
    for i, r in enumerate(ranks):
        moved[g[i]] = r
    return tuple(moved)


def payload_action(cls, base_b, base_c):
    """``act(config, g1, g2)``: remark one configuration by g1 in
    Aut(base_b) and g2 in Aut(base_c), acting on its payload."""
    if cls.id == "pure_set":
        return lambda c, g1, g2: ("match", _relabel_pairs(c[1], g1, g2))
    if cls.id == "linear_order":
        return lambda c, g1, g2: (
            "ranks", _move_ranks(c[1], g1), _move_ranks(c[2], g2))
    if cls.id == "graph":
        return lambda c, g1, g2: ("cross", _relabel_pairs(c[1], g1, g2),
                                  _relabel_pairs(c[2], g1, g2))
    if cls.id == "boolean_algebra":
        m1, m2 = cls.size(base_b), cls.size(base_c)
        return lambda c, g1, g2: ("cells", _relabel_pairs(
            c[1], cls.atom_perm(g1, m1), cls.atom_perm(g2, m2)))
    q, dB, dC = cls.q, cls.size(base_b), cls.size(base_c)

    @lru_cache(maxsize=None)
    def linear_map(g, dim):
        # the point permutation inverse(g), on coordinate vectors; the one
        # vector of GF(q)^0 has no point, and is mapped to itself
        if dim == 0:
            return {(): ()}
        g = inverse(g)
        return {_lex_vector(i, q, dim): _lex_vector(g[i], q, dim)
                for i in range(q ** dim)}

    def act(config, g1, g2):
        m1, m2 = linear_map(g1, dB), linear_map(g2, dC)
        moved = [m1[r[:dB]] + m2[r[dB:]] for r in config[1]]
        return ("space", _rref(moved, q)[0])

    return act


def reference_reps(v, w):
    """The least configuration of each orbit of K_V x K_W, orbits closed
    under the payload action, sorted."""
    cls = get_class(v.cls)
    act = payload_action(cls, v.base, w.base)
    one_b, one_c = identity(len(v.base)), identity(len(w.base))
    gens = ([(g, one_c) for g in v.group.generators]
            + [(one_b, g) for g in w.group.generators])
    seen = set()
    reps = []
    for config in cls.joint_configs(v.base, w.base):
        if config in seen:
            continue
        orbit = {config}
        frontier = [config]
        while frontier:
            current = frontier.pop()
            for g1, g2 in gens:
                moved = act(current, g1, g2)
                if moved not in orbit:
                    orbit.add(moved)
                    frontier.append(moved)
        seen |= orbit
        reps.append(min(orbit))
    return sorted(reps)


def test_double_coset_counts_match_burnside():
    # orbits of K_B x K_C on the raw configurations, counted by Burnside's
    # lemma from the fixed points of every pair, independently of the
    # orbit search in double_coset_profile; inversion maps V\G/W onto
    # W\G/V, so swapping the sides keeps the count
    cases = [
        ("pure_set", (3, 3), (2, 2)),
        ("linear_order", (3, 1), (2, 1)),
        ("graph", (3, 3), (3, 2)),
        ("graph", (4, 2), (2, 2)),
        ("graph", (4, 2), (3, 2)),
        ("vector_space", (2, 3), (2, 2)),
        ("vector_space_q3", (1, 2), (1, 1)),
        ("boolean_algebra", (2, 2), (2, 1)),
    ]
    for cls_id, (size_b, order_b), (size_c, order_c) in cases:
        cls = get_class(cls_id)
        subs = enumerate_open_subgroups(cls_id, max(size_b, size_c))
        v, w = (next(u for u in subs if cls.size(u.base) == size
                     and u.group.order == order)
                for size, order in ((size_b, order_b), (size_c, order_c)))
        raw = cls.joint_configs(v.base, w.base)
        assert len(set(raw)) == len(raw)
        act = payload_action(cls, v.base, w.base)
        fixed = sum(1 for g1 in v.group.elements()
                    for g2 in w.group.elements()
                    for config in raw if act(config, g1, g2) == config)
        orbits = Fraction(fixed, v.group.order * w.group.order)
        assert orbits.denominator == 1, cls_id
        assert double_coset_profile(v, w).count == orbits, cls_id
        assert double_coset_profile(w, v).count == orbits, cls_id


class TwoTagGraph(finstruct.GraphClass):
    """Graphs with cells for the orbit closure every class inherits, which
    their own two-stage search replaces: tag 0 holds a configuration's
    matching and tag 1 its cross edges, each a set of pairs (x, y)."""

    def config_cells(self, base_b, base_c):
        nb, nc = len(base_b), len(base_c)
        cells = [(t, x, y) for t in range(2)
                 for x in range(nb) for y in range(nc)]

        def mask_of(config):
            return sum(1 << ((t * nb + x) * nc + y)
                       for t, pairs in enumerate(config[1:])
                       for x, y in pairs)

        return cells, mask_of


def reference_class(cls_id):
    """The class whose inherited orbit closure is the reference path."""
    return TwoTagGraph() if cls_id == "graph" else get_class(cls_id)


def _closure_reps(v, w):
    """The orbit closure every class inherits, as the reference path."""
    return sorted(FraisseClass.double_coset_reps(
        reference_class(v.cls), v.base, v.group, w.base, w.group))


def test_graph_profiles_match_the_orbit_closure():
    # graph witnesses are held as packed cross masks and decoded on read,
    # so every way of reading them is checked against the reference path
    subs = enumerate_open_subgroups("graph", 3)
    for v, w in itertools.product(subs, repeat=2):
        expected = _closure_reps(v, w)
        configs = double_coset_profile(v, w).configs
        n = len(expected)
        assert len(configs) == n, (v, w)
        assert configs[0] == expected[0] and configs[-1] == expected[-1]
        assert [configs[i] for i in range(n)] == expected, (v, w)
        with pytest.raises(IndexError):
            configs[n]
        first, second = list(configs), list(configs)
        assert first == second == expected, (v, w)
        assert all(config in configs for config in expected[::7])
        assert ("cross", ((9, 9),), ()) not in configs
        assert configs == expected and expected == configs
        assert configs == tuple(expected) and tuple(expected) == configs
        assert configs != expected[:-1] and configs != expected + [None]
        again = double_coset_profile(v, w)
        assert again == double_coset_profile(v, w)
        assert hash(again) == hash(double_coset_profile(v, w))


def test_graph_profile_witnesses_stay_packed(monkeypatch):
    # the trivial group on the path P4 has 74 338 witnesses; held as
    # decoded tuples they retained 13.2 MB, as cross masks with their
    # decode tables 0.7 MB.  Counting the finite ones through the runs
    # decodes the first mask of each matching's block and no other
    type(get_class("graph"))._layouts.cache_clear()
    v = make_open_subgroup("graph", graph_on([(0, 1), (1, 2), (2, 3)], 4))
    assert v.group.order == 1
    tracemalloc.start()
    try:
        profile = double_coset_profile(v)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.count == 74338
    assert retained < 2_000_000, retained
    read_mask = finstruct._read_mask
    calls = []

    def counted(tables, mask):
        calls.append(mask)
        return read_mask(tables, mask)

    monkeypatch.setattr(finstruct, "_read_mask", counted)
    finite = sum(n for config, n in profile.runs()
                 if finitely_many_left_cosets(v, config))
    blocks = len(profile.configs._blocks)
    assert len(calls) <= blocks < profile.count
    assert finite == 2 == acceptance._double_coset_count(v.aut, v.group)


def test_runs_are_as_finite_as_their_witnesses():
    # each run is its first witness and the witnesses after it, all finite
    # alike on both sides; so the left and right sums over the runs are
    # those over the witnesses, on equal and unequal bases
    pairs = 0
    for cls_id, max_base in {"pure_set": 3, "linear_order": 3, "graph": 3,
                             "vector_space": 2, "vector_space_q3": 1,
                             "boolean_algebra": 3}.items():
        cls = get_class(cls_id)
        subs = enumerate_open_subgroups(cls_id, max_base)
        for v, w in itertools.product(subs, repeat=2):
            profile = double_coset_profile(v, w)
            finiteness = [cls.config_finiteness(config, v.base, w.base)
                          for config in profile.configs]
            runs = list(profile.runs())
            start = 0
            for first, n in runs:
                assert first == profile.configs[start], (v, w)
                assert set(finiteness[start:start + n]) == {
                    cls.config_finiteness(first, v.base, w.base)}, (v, w)
                start += n
            assert start == profile.count, (v, w)
            for side in (0, 1):
                assert sum(n for first, n in runs if cls.config_finiteness(
                    first, v.base, w.base)[side]) == sum(
                    1 for pair in finiteness if pair[side]), (v, w)
            pairs += 1
    assert pairs == 498


@pytest.mark.parametrize("edges, flip, count", [
    ([], (1, 0, 3, 2), None),
    ([(0, 3), (1, 2)], (1, 0, 3, 2), None),
    ([(0, 1), (1, 2), (2, 3)], (3, 2, 1, 0), 18781),
    ([(0, 1), (1, 2), (0, 2), (2, 3)], (1, 0, 2, 3), 21221),
], ids=["empty", "2K2", "P4", "paw"])
def test_graph_profiles_match_the_orbit_closure_on_four_points(
        edges, flip, count):
    # the witness is the least configuration of the orbit, so its matching
    # is the least of its matching orbit, not the first one enumerated;
    # no subgroup of three points or fewer, against itself, tells them apart.
    # P4 and the paw under their flips are the cosets benchmark's: order-2
    # stabilizers on 16 cross pairs, whose marking leaves out the identity
    v = make_open_subgroup("graph", graph_on(edges, 4), [flip])
    assert v.group.order == 2
    got = list(double_coset_profile(v).configs)
    assert got == _closure_reps(v, v)
    if count is not None:
        assert len(got) == count


@pytest.mark.parametrize("cls_id", ["vector_space", "vector_space_q3"])
def test_vector_profiles_match_the_payload_action(cls_id):
    for v in enumerate_open_subgroups(cls_id, PROFILE_BASE[cls_id]):
        assert list(double_coset_profile(v).configs) == reference_reps(v, v)


@pytest.mark.parametrize("cls_id, dims", [
    ("vector_space", (1, 2)),
    ("vector_space", (2, 3)),
    ("vector_space_q3", (1, 2)),
    ("vector_space", (0, 1)),
    ("vector_space", (0, 2)),
    ("vector_space_q3", (0, 1)),
])
def test_vector_profiles_on_unequal_bases(cls_id, dims):
    cls = get_class(cls_id)
    subs = enumerate_open_subgroups(cls_id, max(dims))
    small, large = ([v for v in subs if cls.size(v.base) == d] for d in dims)
    assert small and large
    for v, w in itertools.product(small, large):
        for a, b in ((v, w), (w, v)):
            got = list(double_coset_profile(a, b).configs)
            assert got == reference_reps(a, b), (a, b)


@pytest.mark.parametrize("cls_id, max_base", [
    ("pure_set", 3),
    ("graph", 3),
    ("vector_space", 2),
    ("vector_space_q3", 2),
    ("boolean_algebra", 3),
])
def test_cell_masks_are_injective_and_closed(cls_id, max_base):
    # the closure is exact when distinct configurations get distinct masks
    # and every automorphism maps the set of masks onto itself; the images
    # here are formed bit by bit, not through byte tables.  For graphs this
    # checks the reference cells of TwoTagGraph
    cls = reference_class(cls_id)
    subs = enumerate_open_subgroups(cls_id, max_base)
    for v in subs:
        reps = cls.double_coset_reps(v.base, v.group, v.base, v.group)
        assert reps == sorted(reps)
    commensurators = {v.base_code: commensurator(v) for v in subs}
    for v, w in itertools.product(commensurators.values(), repeat=2):
        cells, mask_of = cls.config_cells(v.base, w.base)
        index = {cell: k for k, cell in enumerate(cells)}
        raw = cls.joint_configs(v.base, w.base)
        masks = {mask_of(config) for config in raw}
        assert len(masks) == len(raw), (v, w)
        assert all(mask < 1 << len(cells) for mask in masks)
        for side, base, group in ((1, v.base, v.group), (2, w.base, w.group)):
            for p in cls.cell_group(group, base).generators:
                for mask in masks:
                    image = 0
                    for k, cell in enumerate(cells):
                        if mask >> k & 1:
                            cell = list(cell)
                            cell[side] = p[cell[side]]
                            image |= 1 << index[tuple(cell)]
                    assert image in masks, (v, w)


@pytest.mark.parametrize("cls_id, max_base", [
    ("pure_set", 3),
    ("linear_order", 3),
    ("vector_space", 2),
    ("vector_space_q3", 2),
    ("boolean_algebra", 3),
])
def test_trivial_group_profiles_build_no_cells(cls_id, max_base, monkeypatch):
    # with no generator on either side each configuration is its own
    # orbit; a chain is rigid, so every linear-order profile is of this kind
    cls = get_class(cls_id)
    trivial = [v for v in enumerate_open_subgroups(cls_id, max_base)
               if v.group.order == 1 and v.base.points]
    assert len(trivial) >= 2
    expected = {(v, w): reference_reps(v, w)
                for v, w in itertools.product(trivial, repeat=2)}

    def refuse(*args):
        raise AssertionError("built the cells of a trivial-group profile")

    monkeypatch.setattr(type(cls), "config_cells", refuse)
    for (v, w), reps in expected.items():
        assert list(double_coset_profile(v, w).configs) == reps, (v, w)
        assert len(reps) == len(cls.joint_configs(v.base, w.base))


def test_graph_profiles_keep_the_size_guard():
    # 25 cross pairs between two unmatched five-point bases
    v = make_open_subgroup("graph", graph_on([], 5))
    with pytest.raises(SizeLimitExceeded):
        double_coset_profile(v)
    with pytest.raises(SizeLimitExceeded):
        get_class("graph").joint_configs(v.base, v.base)


def test_double_coset_profile_rejects_mixed_classes():
    v = make_open_subgroup("pure_set", pure_base(1))
    w = make_open_subgroup("linear_order", chain(1))
    with pytest.raises(MalformedStructure):
        double_coset_profile(v, w)


def test_finitely_many_left_cosets():
    v2 = make_open_subgroup("pure_set", pure_base(2))
    profile = double_coset_profile(v2)
    finite = [c for c in profile.configs if finitely_many_left_cosets(v2, c)]
    assert len(finite) == 2

    l2 = make_open_subgroup("linear_order", chain(2))
    finite = [c for c in double_coset_profile(l2).configs
              if finitely_many_left_cosets(l2, c)]
    assert len(finite) == 1

    vs = get_class("vector_space")
    line = make_open_subgroup("vector_space", vs.canonical_space(1))
    finite = [c for c in double_coset_profile(line).configs
              if finitely_many_left_cosets(line, c)]
    assert len(finite) == 1

    boo = get_class("boolean_algebra")
    free = make_open_subgroup("boolean_algebra", boo.canonical_algebra(2))
    finite = [c for c in double_coset_profile(free).configs
              if finitely_many_left_cosets(free, c)]
    assert len(finite) == 2


@pytest.mark.parametrize("cls_id", ["pure_set", "graph"])
def test_matching_finiteness_counts_pairs(cls_id):
    # reference rule: every point of a base is an end of some pair
    cls = get_class(cls_id)
    checked = 0
    for v in enumerate_open_subgroups(cls_id, PROFILE_BASE[cls_id]):
        for config in double_coset_profile(v).configs:
            matching = config[1]
            expected = (len({j for _, j in matching}) == len(v.base.points),
                        len({i for i, _ in matching}) == len(v.base.points))
            assert cls.config_finiteness(config, v.base, v.base) == expected
            checked += 1
    assert checked > 0


def test_finiteness_disagreement_on_equal_bases_raises(monkeypatch):
    # the bases are compared only after left and right differ, and the
    # check still runs then
    v = enumerate_open_subgroups("graph", 2)[-1]
    config = double_coset_profile(v).configs[0]
    monkeypatch.setattr(type(get_class("graph")), "config_finiteness",
                        lambda self, payload, base_b, base_c: (True, False))
    with pytest.raises(InvariantViolation):
        finitely_many_left_cosets(v, config)
    w = make_open_subgroup("graph", get_class("graph").empty())
    assert finitely_many_left_cosets(v, config, w) is True


@pytest.mark.parametrize("cls_id", sorted(PROFILE_BASE))
def test_empty_base_against_a_nonempty_one(cls_id):
    # one double coset in both orders; the nonempty copy lies in the hull
    # of the empty one only from its own side
    cls = get_class(cls_id)
    whole = make_open_subgroup(cls_id, cls.empty())
    v = enumerate_open_subgroups(cls_id, 2)[-1]
    assert len(v.base.points) > 0
    for first, second, left in ((whole, v, False), (v, whole, True)):
        profile = double_coset_profile(first, second)
        assert profile.count == 1
        config = profile.configs[0]
        assert finitely_many_left_cosets(first, config, second) is left
        assert (get_class(cls_id).config_finiteness(
            config, first.base, second.base) == (left, not left))


def test_whole_group_as_open_subgroup():
    v = make_open_subgroup("pure_set", get_class("pure_set").empty())
    assert v.index == 1
    profile = double_coset_profile(v)
    assert profile.count == 1
    assert finitely_many_left_cosets(v, profile.configs[0])
    assert decompose_quasiregular(v).terms == {trivial_label("pure_set"): 1}


def test_commensurator():
    v = make_open_subgroup("pure_set", pure_base(3), [(1, 0, 2)])
    c = commensurator(v)
    assert c.group.order == 6
    assert v.index == 3
    assert c.index == 1
    assert commensurator(c) == c
    assert c.base == v.base


def test_induced_equivalent():
    a = make_open_subgroup("pure_set", pure_base(3), [(1, 0, 2)])
    b = make_open_subgroup("pure_set", pure_base(3), [(0, 2, 1)])
    rot = make_open_subgroup("pure_set", pure_base(3), [(1, 2, 0)])
    assert induced_equivalent(a, b)
    assert not induced_equivalent(a, rot)
    assert not induced_equivalent(a, make_open_subgroup("pure_set", pure_base(2)))
    assert induced_equivalent(a, a)


def test_label_values():
    labels = irrep_catalog("pure_set", 3)
    std = [lab for lab in labels if lab.base_size == 3 and lab.degree == 2]
    assert len(std) == 1
    assert label_values(std[0]) == [2, -1, 0]
    assert label_values(trivial_label("graph")) == [1]


def test_label_values_in_a_fresh_interpreter():
    # a label carries its table, so no earlier call in the process is needed
    label = next(lab for lab in irrep_catalog("graph", 3)
                 if lab.base_size == 3)
    script = ("import pickle, sys\n"
              "from oligorep.oligo import label_values\n"
              "print(label_values(pickle.load(sys.stdin.buffer)))\n")
    src = os.path.dirname(os.path.dirname(oligorep.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script],
                          input=pickle.dumps(label), capture_output=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().strip() == str(label_values(label))


def test_open_subgroup_json():
    v = make_open_subgroup("pure_set", pure_base(2), [(1, 0)])
    doc = v.to_json()
    assert doc["k_order"] == 2
    assert doc["index_in_commensurator"] == 1
    dec = decompose_quasiregular(v)
    rows = dec.to_json()
    assert all(set(r) == {"base_code", "base_size", "sigma_index",
                          "sigma_degree", "multiplicity"} for r in rows)
    profile = double_coset_profile(v)
    pdoc = profile.to_json()
    assert pdoc["count"] == len(pdoc["witnesses"])
