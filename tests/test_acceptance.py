"""One test per acceptance criterion, each printing its pass/fail line,
plus the sweep's probes of base groups above the subgroup bound."""

import itertools
import json
import math
import random

import pytest

from oligorep import acceptance, cli, finstruct, kazhdan, oligo
from oligorep.chartab import symmetric_character_table
from oligorep.errors import FreenessViolation, InvariantViolation
from oligorep.finstruct import _gaussian_binomial, get_class
from oligorep.oligo import decompose_quasiregular
from oligorep.permgrp import cycle_type
from oligorep.words import ball


@pytest.mark.parametrize("cid", [row[0] for row in acceptance.CRITERIA])
def test_criterion(cid):
    report = acceptance.run_criterion(cid)
    verdict = "PASS" if report["passed"] else "FAIL"
    print(f"criterion {report['id']}: {verdict} "
          f"({report['elapsed']}s / budget {report['budget']}s) - "
          f"{report['desc']}")
    assert report["passed"], report


def test_sweep_probes_a_seven_atom_boolean_algebra(monkeypatch):
    # |Aut| = 7! is above the subgroup bound, so the sweep probes the base
    # with the trivial group, one cyclic group per class of S7 and S7 itself;
    # the small bound only keeps the smaller bases cheap
    monkeypatch.setenv("OLIGOREP_LIMITS", '{"subgroup_order": 24}')
    boo = get_class("boolean_algebra")
    probes = [v for v, is_probe in acceptance._subgroup_sweep(
        "boolean_algebra", 7) if is_probe and boo.size(v.base) == 7]
    table = symmetric_character_table(7)
    assert [v.group.order for v in probes] == [1, *table.class_orders[1:],
                                               5040]
    cyclic = [boo.atom_perm(v.group.generators[0], 7) for v in probes[1:-1]]
    assert [cycle_type(g) for g in cyclic] == list(table.class_partitions[1:])
    for v in probes:
        assert decompose_quasiregular(v).total_degree() == v.index


def test_criterion_3_fails_on_a_hull_count_off_by_one(monkeypatch):
    # one orbit too many on one graph hull must show against the formula
    graph = get_class("graph")
    hulls = graph.tuple_hulls

    def off_by_one(n, x0_only=False):
        counted = hulls(n, x0_only)
        code = max(counted)
        hull, count = counted[code]
        counted[code] = (hull, count + 1)
        return counted

    assert acceptance.criterion_3()[0]
    monkeypatch.setattr(graph, "tuple_hulls", off_by_one)
    ok, details = acceptance.criterion_3()
    assert ok is False
    assert details == {"counts": [1, 3, 15, 127]}


@pytest.mark.parametrize("criterion, class_id", [
    (acceptance.criterion_2, "pure_set"),
    (acceptance.criterion_3, "graph"),
])
def test_criteria_2_and_3_fail_on_a_dropped_tuple_type(
        monkeypatch, criterion, class_id):
    # the listing is read only here; one orbit missing must show against
    # the brute-force equality patterns
    cls = get_class(class_id)
    listing = cls.enumerate_tuple_types

    def dropping(n):
        return listing(n)[:-1]

    assert criterion()[0] is True
    monkeypatch.setattr(cls, "enumerate_tuple_types", dropping)
    assert criterion()[0] is False


def swapping_equal_degrees(v):
    """``oligo.decompose_quasiregular`` with the multiplicities of the first
    two rows of equal degree and different multiplicities swapped."""
    decomposition = decompose_quasiregular(v)
    labels = oligo._labels_for_base(v.cls, v.base, v.base_code,
                                    v.aut.generators)
    mults = [decomposition[label] for label in labels]
    for i, j in itertools.combinations(range(len(labels)), 2):
        if labels[i].degree == labels[j].degree and mults[i] != mults[j]:
            mults[i], mults[j] = mults[j], mults[i]
            break
    return oligo.Decomposition(dict(zip(labels, mults)))


def test_criterion_4_fails_on_swapped_multiplicities_of_equal_degree(
        monkeypatch):
    # the swap keeps the total degree, and the regular case, where each
    # multiplicity is its degree, has nothing to swap; only the cross-check
    # through the coset action sees it
    details = {"subgroups": 196, "probe_only": 40, "regular_cases": 36,
               "cross_checked": 149}
    assert acceptance.criterion_4() == (True, details)
    # S3 by a transposition: trivial and sign rows swap, (1, 0, 1) to
    # (0, 1, 1)
    v = next(v for v, _ in acceptance._subgroup_sweep("pure_set", 3)
             if len(v.base.points) == 3 and v.group.order == 2)
    labels = oligo._labels_for_base("pure_set", v.base, v.base_code,
                                    v.aut.generators)
    assert [decompose_quasiregular(v)[label] for label in labels] == [1, 0, 1]
    assert [swapping_equal_degrees(v)[label] for label in labels] == [0, 1, 1]
    monkeypatch.setattr(oligo, "decompose_quasiregular",
                        swapping_equal_degrees)
    assert acceptance.criterion_4() == (False, details)


def test_criterion_5_fails_on_a_run_one_witness_short(monkeypatch):
    # on equal graph bases the longest matching of a profile is a full one,
    # whose run is finite; one witness short there must show against the
    # brute-force count of K\Aut(B)/K
    runs = finstruct._CrossWitnesses.runs

    def one_short(self):
        listed = list(runs(self))
        k = max(range(len(listed)), key=lambda i: len(listed[i][0][1]))
        config, n = listed[k]
        listed[k] = (config, n - 1)
        return iter(listed)

    monkeypatch.setattr(finstruct._CrossWitnesses, "runs", one_short)
    # one finite witness short in each of the 80 graph profiles
    assert acceptance.criterion_5() == (False, {
        "subgroups": 151, "configs_checked": 1383278, "finite_configs": 741})


@pytest.mark.parametrize("dropped", [0, -1])
def test_criterion_1_fails_on_a_catalog_missing_one_label(
        monkeypatch, dropped):
    catalog = oligo.irrep_catalog

    def missing_one(class_id, max_base=None):
        labels = catalog(class_id, max_base)
        del labels[dropped]
        return labels

    monkeypatch.setattr(oligo, "irrep_catalog", missing_one)
    ok, details = acceptance.criterion_1()
    assert ok is False
    assert details["labels"] == 5


def test_criterion_6_fails_on_an_interleaved_image_in_the_range(monkeypatch):
    # interleaved pure-set walks go below displacement 2, so the bound can
    # bind; an image already in the range breaks the interleaved tree's
    # partial automorphisms and the walks' certified bound
    ok, details = acceptance.criterion_6()
    assert ok is True
    assert {key: details["pure_set"][key] for key in (
        "interleaved_nodes", "interleaved_min_displacement")} == {
        "interleaved_nodes": 8382, "interleaved_min_displacement": "32/45"}
    images = kazhdan._PureRealizer.images

    def in_the_range(self, mapping, a, banned):
        if self.interleave and mapping:
            yield min(mapping.values())
        yield from images(self, mapping, a, banned)

    monkeypatch.setattr(kazhdan._PureRealizer, "images", in_the_range)
    tree = kazhdan.build_tree("pure_set", 6, interleave=True)
    assert tree.verify()["partial_automorphisms"] is False
    assert kazhdan.build_tree("pure_set", 6).verify()["ok"] is True
    ok, details = acceptance.criterion_6()
    assert ok is False
    assert details["pure_set"]["interleaved_conditions_ok"] is False
    assert details["pure_set"]["conditions_ok"] is True


class OneValueOff:
    """A character table that reads its last value one too high and
    otherwise is the table it wraps, which stays as it was."""

    def __init__(self, table):
        self.table = table

    def __getattr__(self, name):
        return getattr(self.table, name)

    def value(self, i, t):
        last = self.table.num_classes - 1
        return self.table.value(i, t) + ((i, t) == (last, last))


def test_criterion_9_fails_on_one_wrong_table_value(monkeypatch):
    # one entry of the S3 table off by one breaks both orthogonality
    # relations, though the degrees still square up to the order
    lookup = oligo.base_table

    def off(class_id, base, code, gens):
        table = lookup(class_id, base, code, gens)
        if class_id == "pure_set" and len(base.points) == 3:
            return OneValueOff(table)
        return table

    assert acceptance.criterion_9() == (True, {"tables": 34, "max_order": 168})
    monkeypatch.setattr(oligo, "base_table", off)
    assert acceptance.criterion_9() == (False,
                                        {"tables": 34, "max_order": 168})
    monkeypatch.undo()
    assert acceptance.criterion_9()[0] is True


def skipping_neighbours(masks, n_outer, t):
    """``kazhdan._extension_witnessed`` with a pair loop that skips
    j = i + 1."""
    sizes = [m.bit_count() for m in masks]
    witnessed = sum((size > 0) + (size + 1 < n_outer) for size in sizes)
    witnesses = sum(sizes)
    if t == 2:
        for i, a in enumerate(masks):
            for j in range(i + 2, len(masks)):
                common = (a & masks[j]).bit_count()
                adj = a >> j & 1
                witnesses += common
                witnessed += (
                    (common > 0)
                    + (sizes[i] + sizes[j] - common + 2 * (1 - adj) < n_outer)
                    + (sizes[i] - common - adj > 0)
                    + (sizes[j] - common - adj > 0))
    return witnessed, witnesses


def test_criterion_8_fails_on_a_pair_loop_that_skips_neighbours(
        monkeypatch):
    # the recount of seed 0's witnesses by columns sees the missing pairs
    # before the rate does, and the criterion stops there
    monkeypatch.setattr(kazhdan, "_extension_witnessed", skipping_neighbours)
    report = acceptance.run_criterion("8")
    assert report["passed"] is False
    assert report["details"] == {"error": (
        "seed 0: 43629367 witnesses, 43808057 recounted by columns")}


def test_criterion_8_fails_on_one_flipped_mask_bit(monkeypatch):
    # the first bit that the audit of seed 0 samples, row then column; the
    # recount reads the same masks as the pair loop and agrees with it
    masks_of = kazhdan._cayley_masks
    rng = random.Random(0)
    i, k = rng.randrange(len(ball(5))), rng.randrange(len(ball(6)))

    def flipped(r, seeds):
        for seed, masks in masks_of(r, seeds):
            if seed == 0:
                masks[i] ^= 1 << k
            yield seed, masks

    monkeypatch.setattr(kazhdan, "_cayley_masks", flipped)
    report = acceptance.run_criterion("8")
    assert report["passed"] is False
    assert list(report["details"]) == ["error"]
    assert report["details"]["error"].startswith(
        f"seed 0: bit {k} of mask {i} is not the adjacency of ")


@pytest.mark.parametrize("certificate, error", [
    ("cayley_edge_invariance", InvariantViolation(
        "translation by (1,) broke the edge ((), (2,))")),
    ("freeness_check", FreenessViolation(
        "word (1,) fixes point () in vector_space")),
], ids=["edge_invariance", "freeness"])
def test_a_certificate_that_raises_fails_criterion_8_and_the_rest_run(
        monkeypatch, capsys, certificate, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(kazhdan, certificate, broken)
    ran = []

    def stub(num):
        def run():
            ran.append(num)
            return True, {}
        return run

    monkeypatch.setattr(acceptance, "CRITERIA", tuple(
        (num, desc, budget, func if num == "8" else stub(num))
        for num, desc, budget, func in acceptance.CRITERIA))
    # run_all's report of criterion 8 is the one run_criterion("8") returns
    reports = acceptance.run_all()
    assert [report["id"] for report in reports] == [
        str(n) for n in range(1, 11)]
    assert [report["passed"] for report in reports] == (
        [True] * 7 + [False] + [True] * 2)
    assert reports[7]["details"] == {"error": str(error)}
    assert ran == ["1", "2", "3", "4", "5", "6", "7", "9", "10"]
    capsys.readouterr()

    assert cli.main(["selftest"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert [row["passed"] for row in report["criteria"]] == (
        [True] * 7 + [False] + [True] * 2)
    assert report["criteria"][7]["details"] == {"error": str(error)}


def support_only_pairs(f, perm):
    """``kazhdan._translate_pairs`` over the support of f only, missing the
    tuples where only the translate is nonzero."""
    moved = {tuple(perm.get(x, x) for x in xs): v for xs, v in f.items()}
    for xs, v in f.items():
        yield moved.get(xs, 0), v


def test_criterion_7_fails_on_pairs_over_the_support_only(monkeypatch):
    # the squared transfer passes these pairs on every seed, the isometry
    # of translation does not
    monkeypatch.setattr(kazhdan, "_translate_pairs", support_only_pairs)
    reports = [kazhdan.l1_l2_transfer(seed) for seed in range(200)]
    assert all(report["ok"] for report in reports)
    assert not all(report["isometry_ok"] for report in reports)
    assert acceptance.criterion_7() == (False, {"instances": 20000})


def test_criterion_7_fails_on_every_pair_twice(monkeypatch):
    pairs = kazhdan._translate_pairs

    def doubled(f, perm):
        listed = list(pairs(f, perm))
        return listed + listed

    monkeypatch.setattr(kazhdan, "_translate_pairs", doubled)
    assert not any(kazhdan.l1_l2_transfer(seed)["isometry_ok"]
                   for seed in range(200))
    assert acceptance.criterion_7() == (False, {"instances": 20000})


def test_criterion_10_fails_on_doubled_boolean_counts(monkeypatch):
    # the recursion is linear in the counts, so doubling every count, full
    # and punctured, leaves its residuals at zero; the orbit totals see it
    boo = get_class("boolean_algebra")
    hulls = boo._hull_orbits

    def doubled(n, x0_only):
        return ((code, hull, gens, 2 * count)
                for code, hull, gens, count in hulls(n, x0_only))

    ok, details = acceptance.criterion_10()
    assert ok is True
    assert details["orbit_totals"] == {"vector_space": [2, 5, 16, 67],
                                       "boolean_algebra": [3, 15, 255, 65535]}
    monkeypatch.setattr(boo, "_hull_orbits", doubled)
    ok, details = acceptance.criterion_10()
    assert ok is False
    assert details["boolean_algebra"] == [0, 0, 0]
    assert details["orbit_totals"]["boolean_algebra"] == [6, 30, 510, 131070]


def test_criterion_10_fails_without_the_second_inclusion_exclusion_term(
        monkeypatch):
    # punctured vector counts without the s = 2 term of their
    # inclusion-exclusion must show in every recursion residual
    vs = get_class("vector_space")
    hulls = vs._hull_orbits

    def without_s2(n, x0_only):
        if not x0_only or n < 2:
            return hulls(n, x0_only)
        by_dim = {vs.size(hull): count
                  for _, hull, _, count in hulls(n, x0_only)}
        mutant = []
        for d in range(n + 1):
            count = (by_dim.get(d, 0)
                     - math.comb(n, 2) * _gaussian_binomial(n - 2, d, 2))
            if count:
                hull = vs.canonical_space(d)
                mutant.append((vs.canonical_code(hull), hull,
                               vs._space_gens(d), count))
        return iter(mutant)

    monkeypatch.setattr(vs, "_hull_orbits", without_s2)
    for k in range(1, 4):
        assert oligo.tensor_recursion_check("vector_space", k)["ok"] is False
    ok, details = acceptance.criterion_10()
    assert ok is False
    assert all(residual > 0 for residual in details["vector_space"])
