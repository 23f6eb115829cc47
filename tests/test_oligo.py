"""Open subgroups, catalogs, decompositions, and double cosets."""

import itertools
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import oligorep
from oligorep.errors import (
    BaseNotAclClosed,
    MalformedStructure,
    NotASubgroup,
)
from oligorep.finstruct import get_class
from oligorep.oligo import (
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


def test_catalog_contains_unique_trivial_label():
    for cls_id in ("pure_set", "linear_order", "graph",
                   "vector_space", "boolean_algebra"):
        labels = irrep_catalog(cls_id, 2)
        trivials = [lab for lab in labels if lab.is_trivial()]
        assert trivials == [trivial_label(cls_id)]
        assert len(set(labels)) == len(labels)


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


def test_hull_stabilizers_are_trivial_brute_force():
    # the marked points of a tuple hull pin every automorphism
    gcls = get_class("graph")
    for t in gcls.enumerate_tuple_types(3):
        base, marked = gcls.marked_core(t)
        n = len(base.points)
        if n == 0:
            continue
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

    for cls_id in ("vector_space", "vector_space_q3"):
        vcls = get_class(cls_id)
        q = vcls.q
        for t in vcls.enumerate_tuple_types(2):
            base, marked = vcls.marked_core(t)
            dim = vcls.size(base)
            if dim == 0:
                continue
            vectors = [base.data[1][p] for p in marked]
            fixing = 0
            for cols in itertools.product(
                    itertools.product(range(q), repeat=dim), repeat=dim):
                image = {}
                ok = True
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

    boo = get_class("boolean_algebra")
    for t in boo.enumerate_tuple_types(2):
        base, marked = boo.marked_core(t)
        m = boo.size(base)
        if m <= 1:
            continue
        fixers = []
        for sigma in itertools.permutations(range(m)):
            def move(mask):
                out = 0
                for k in range(m):
                    if mask >> k & 1:
                        out |= 1 << sigma[k]
                return out
            if all(move(mk) == mk for mk in marked):
                fixers.append(sigma)
        assert fixers == [tuple(range(m))]


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
    payloads = [c.payload for c in profile.configs]
    assert ("space", ()) in payloads
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


def test_double_coset_counts_match_burnside():
    # orbits of K_B x K_C on the raw configurations, counted by Burnside's
    # lemma from the fixed points of every pair, independently of the
    # orbit search in double_coset_profile; inversion maps V\G/W onto
    # W\G/V, so swapping the sides keeps the count
    cases = [
        ("pure_set", (3, 3), (2, 2)),
        ("linear_order", (3, 1), (2, 1)),
        ("graph", (3, 3), (3, 2)),
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
        act = cls.config_action(v.base, w.base)
        fixed = sum(1 for g1 in v.group.elements()
                    for g2 in w.group.elements()
                    for config in raw if act(config, g1, g2) == config)
        orbits = Fraction(fixed, v.group.order * w.group.order)
        assert orbits.denominator == 1, cls_id
        assert double_coset_profile(v, w).count == orbits, cls_id
        assert double_coset_profile(w, v).count == orbits, cls_id


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
