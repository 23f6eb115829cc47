"""The four workloads: inputs made from a seed, operations, and checks.

A workload object is built during set-up from ``(seed, size)``.  Its
``run(recorder)`` makes the public calls inside the timed region through
``recorder.call``, which keeps every result and the check that judges it;
the checks run after the timed region and compare the results with
values from ``reference`` or with properties the method must have.

Entry points are read off their modules (``oligo.double_coset_profile``)
at call time, so a traced round sees the wrappers ``tracing`` installs.

``size`` is ``"full"`` for the benchmark and ``"tiny"`` for its tests.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import tempfile
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from oligorep import cli, kazhdan, oligo
from oligorep.finstruct import FinStructure, get_class

import reference as ref

CLASSES = ("pure_set", "linear_order", "graph", "vector_space",
           "vector_space_q3", "boolean_algebra")


class Recorder:
    """Makes the calls of one round and keeps what the checks need."""

    def __init__(self):
        self.records = []    # (name, result, check, error)

    def call(self, name, func, *args, check, **kwargs):
        try:
            result = func(*args, **kwargs)
        except Exception:  # one failed call must not stop the round
            self.records.append((name, None, None, traceback.format_exc()))
            return None
        self.records.append((name, result, check, None))
        return result

    def judge(self):
        """Run every check; return (attempted, failed, problems).

        An operation fails when its call raises or its check finds a wrong
        value: several entry points report a broken invariant only by
        raising, and a call that raises leaves the calls that need its
        result unattempted."""
        failed = 0
        problems = []
        for name, result, check, error in self.records:
            if error is not None:
                failed += 1
                problems.append(f"{name}: raised\n{error}")
                continue
            try:
                found = check(result)
            except Exception:
                found = [f"check raised\n{traceback.format_exc()}"]
            if found:
                failed += 1
                problems.extend(f"{name}: {p}" for p in found)
        return len(self.records), failed, problems


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _relabel(rng, n):
    """A random relabeling of range(n): new position of each old one."""
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _conjugate(perm, g):
    """g moved along the relabeling: perm g perm^-1."""
    out = [0] * len(g)
    for i, gi in enumerate(g):
        out[perm[i]] = perm[gi]
    return tuple(out)


def _aut_order(cls_id, base):
    """|Aut(B)| by closed formula, or by brute force for graphs."""
    size = get_class(cls_id).size(base)
    if cls_id in ("pure_set", "boolean_algebra"):
        return math.factorial(size)
    if cls_id == "linear_order":
        return 1
    if cls_id == "vector_space":
        return ref.gl_order(size, 2)
    if cls_id == "vector_space_q3":
        return ref.gl_order(size, 3)
    return ref.graph_automorphism_count(len(base.points), base.data)


def _group_elements(group, degree):
    return ref.closure(group.generators, degree)


# -- catalog --------------------------------------------------------------------


class Catalog:
    """``oligorep catalog`` for every class and ``oligorep decompose`` with
    its recursion check, through the CLI entry point, reports to files."""

    DECOMPOSE_N = {"pure_set": 4, "linear_order": 4, "graph": 4,
                   "vector_space": 3, "vector_space_q3": 2,
                   "boolean_algebra": 3}

    def __init__(self, seed, size, scratch):
        tiny = size == "tiny"
        self.dir = Path(tempfile.mkdtemp(prefix="catalog-", dir=scratch))
        argvs = []
        for cls_id in CLASSES:
            argvs.append(["catalog", "--class", cls_id]
                         + (["--max-base", "2"] if tiny else []))
            for n in range(1, (2 if tiny else self.DECOMPOSE_N[cls_id]) + 1):
                argvs.append(["decompose", "--class", cls_id, "--n", str(n)])
        self.argvs = [argv + ["--out", str(self.dir / f"{i}.json")]
                      for i, argv in enumerate(argvs)]

    def run(self, recorder):
        for argv in self.argvs:
            check = (self.check_catalog if argv[0] == "catalog"
                     else self.check_decompose)
            recorder.call(" ".join(argv[:-2]), cli.main, argv,
                         check=lambda rc, out=argv[-1], c=check: c(rc, out))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    @staticmethod
    def _report(rc, out, problems):
        _expect(problems, "exit code", rc, 0)
        return json.loads(Path(out).read_text()) if rc == 0 else None

    def check_catalog(self, rc, out):
        problems = []
        report = self._report(rc, out, problems)
        if report is None:
            return problems
        cls_id, max_base, labels = (report["class"], report["max_base"],
                                    report["labels"])
        _expect(problems, "count", report["count"], len(labels))
        degrees = defaultdict(lambda: defaultdict(list))
        for label in labels:
            degrees[label["base_size"]][label["base_code"]].append(
                label["sigma_degree"])
        sizes = set(range(max_base + 1))
        if cls_id == "boolean_algebra":
            sizes.discard(1)    # the two-element algebra is fixed pointwise
        _expect(problems, "base sizes", set(degrees), sizes)
        if cls_id == "graph":
            aut = {}
            for base in get_class("graph").enumerate_class(max_base):
                aut[get_class("graph").canonical_code(base)] = (
                    ref.graph_automorphism_count(len(base.points), base.data))
        for k in sorted(sizes & set(degrees)):
            codes = degrees[k]
            if cls_id == "graph":
                _expect(problems, f"graphs on {k} vertices", len(codes),
                        ref.GRAPHS_ON_N_VERTICES[k])
                squares = {code: sum(d * d for d in ds)
                           for code, ds in codes.items()}
                for code, total in squares.items():
                    _expect(problems, f"sum of squared degrees, {code}",
                            total, aut.get(code))
                # each isomorphism class has k!/|Aut| labelings
                labelings = sum(Fraction(math.factorial(k), s)
                                for s in squares.values())
                _expect(problems, f"labeled graphs on {k} vertices",
                        labelings, 2 ** math.comb(k, 2))
                continue
            _expect(problems, f"bases of size {k}", len(codes), 1)
            ds = next(iter(codes.values()))
            if cls_id in ("pure_set", "boolean_algebra"):
                count, order = ref.partitions(k), math.factorial(k)
            elif cls_id == "linear_order":
                count, order = 1, 1
            elif cls_id == "vector_space":
                count, order = ref.GL2_CLASSES[k], ref.gl_order(k, 2)
            else:
                count, order = ref.GL3_CLASSES[k], ref.gl_order(k, 3)
            _expect(problems, f"labels of size {k}", len(ds), count)
            _expect(problems, f"sum of squared degrees, size {k}",
                    sum(d * d for d in ds), order)
        return problems

    def check_decompose(self, rc, out):
        problems = []
        report = self._report(rc, out, problems)
        if report is None:
            return problems
        recursion = report["recursion"]
        _expect(problems, "recursion ok", recursion["ok"], True)
        _expect(problems, "recursion residual",
                recursion["max_abs_residual"], 0)
        terms = report["terms"]
        _expect(problems, "total degree", report["total_degree"],
                sum(t["multiplicity"] * t["sigma_degree"] for t in terms))
        n = report["n"]
        if report["class"] == "pure_set":
            for t in terms:
                _expect(problems, f"multiplicity of ({t['base_size']}, "
                        f"{t['sigma_index']})", t["multiplicity"],
                        ref.stirling2(n, t["base_size"]) * t["sigma_degree"])
            _expect(problems, "orbit count", sum(
                t["multiplicity"] for t in terms if t["sigma_index"] == 0),
                sum(ref.stirling2(n, k) for k in range(1, n + 1)))
        return problems


# -- lattice ----------------------------------------------------------------------


class Lattice:
    """Open subgroups up to conjugacy, each decomposed quasi-regularly."""

    FULL = {"pure_set": 5, "linear_order": 3, "graph": 4, "vector_space": 2,
            "vector_space_q3": 2, "boolean_algebra": 3}
    TINY = {"pure_set": 3, "linear_order": 2, "graph": 2, "vector_space": 1,
            "vector_space_q3": 1, "boolean_algebra": 2}
    BRUTE_FORCE_ORDER = 48

    def __init__(self, seed, size, scratch):
        sweep = self.TINY if size == "tiny" else self.FULL
        self.sweep = list(sweep.items())
        self._orders = {}

    def run(self, recorder):
        for cls_id, max_base in self.sweep:
            subgroups = recorder.call(
                f"enumerate {cls_id} {max_base}",
                oligo.enumerate_open_subgroups, cls_id, max_base,
                check=lambda subs, c=cls_id, m=max_base: self.check_lattice(
                    c, m, subs))
            for v in subgroups or ():
                recorder.call(f"quasiregular {v!r}", oligo.decompose_quasiregular,
                             v, check=lambda dec, v=v: self.check_quasi(v, dec))

    def close(self):
        pass

    def aut_order(self, v):
        key = (v.cls, v.base_code)
        if key not in self._orders:
            self._orders[key] = _aut_order(v.cls, v.base)
        return self._orders[key]

    def check_lattice(self, cls_id, max_base, subgroups):
        problems = []
        by_base = defaultdict(list)
        for v in subgroups:
            by_base[v.base_code].append(v)
        sizes = defaultdict(int)
        for code, subs in by_base.items():
            v = subs[0]
            k = get_class(cls_id).size(v.base)
            sizes[k] += 1
            degree = len(v.base.points)
            if degree == 0:
                _expect(problems, "subgroups of the empty base", len(subs), 1)
                continue
            elements = _group_elements(v.aut, degree)
            _expect(problems, f"|Aut| of {cls_id} base {code}",
                    len(elements), self.aut_order(v))
            known = None
            if cls_id in ("pure_set", "boolean_algebra"):
                known = ref.SUBGROUP_CLASSES_SYMMETRIC[k]
            elif cls_id == "vector_space_q3" and k == 2:
                known = ref.GL23_SUBGROUP_CLASSES
            if known is not None:
                _expect(problems, f"subgroup classes of {cls_id} base {k}",
                        len(subs), known)
            if len(elements) <= self.BRUTE_FORCE_ORDER:
                _expect(problems, f"subgroup classes of {cls_id} base {code}",
                        len(subs), ref.subgroup_classes(elements))
        if cls_id == "graph":
            for k in range(max_base + 1):
                _expect(problems, f"graphs on {k} vertices", sizes[k],
                        ref.GRAPHS_ON_N_VERTICES[k])
        return problems

    def check_quasi(self, v, dec):
        problems = []
        terms = list(dec.items())
        if not v.base.points:
            _expect(problems, "empty base", [(lb.is_trivial(), m)
                                             for lb, m in terms], [(True, 1)])
            return problems
        order = self.aut_order(v)
        k_order = len(_group_elements(v.group, len(v.base.points)))
        _expect(problems, "sum of degree x multiplicity",
                sum(lb.degree * m for lb, m in terms), order // k_order)
        if k_order == 1:
            for lb, m in terms:
                _expect(problems, f"regular multiplicity of {lb.sigma_index}",
                        m, lb.degree)
        if k_order == order:
            _expect(problems, "terms of the full group",
                    [(m, lb.degree) for lb, m in terms], [(1, 1)])
            values = oligo.label_values(terms[0][0])
            _expect(problems, "character of the full group",
                    set(values), {1})
        return problems


# -- cosets -----------------------------------------------------------------------


def _graph_input(rng, edges, n, generators):
    perm = _relabel(rng, n)
    base = FinStructure("graph", tuple(f"v{i}" for i in range(n)),
                        frozenset(frozenset((perm[a], perm[b]))
                                  for a, b in edges))
    return base, [_conjugate(perm, g) for g in generators]


def _vector_input(rng, q, d, matrices):
    """GF(q)^d with its vectors in seeded order, and matrices as
    permutations of those positions."""
    vectors = list(itertools.product(range(q), repeat=d))
    rng.shuffle(vectors)
    index = {v: i for i, v in enumerate(vectors)}
    gens = []
    for m in matrices:
        gens.append(tuple(
            index[tuple(sum(m[r][c] * v[c] for c in range(d)) % q
                        for r in range(d))]
            for v in vectors))
    cls_id = "vector_space" if q == 2 else "vector_space_q3"
    base = FinStructure(cls_id, tuple(f"x{i}" for i in range(len(vectors))),
                        (q, tuple(vectors)))
    return base, gens


class Cosets:
    """Double-coset profiles and coset finiteness over open subgroups of
    every class."""

    P4 = ((0, 1), (1, 2), (2, 3))
    PAW = ((0, 1), (1, 2), (0, 2), (2, 3))
    P3 = ((0, 1), (1, 2))

    def __init__(self, seed, size, scratch):
        rng = random.Random(seed)
        tiny = size == "tiny"
        self.enumerated = ([("pure_set", 2), ("linear_order", 2),
                            ("boolean_algebra", 2)] if tiny else
                           [("pure_set", 4), ("linear_order", 4),
                            ("boolean_algebra", 3)])
        graphs = ([(self.P3, 3, (2, 1, 0))] if tiny else
                  [(self.P4, 4, (3, 2, 1, 0)), (self.PAW, 4, (1, 0, 2, 3))])
        self.explicit = []     # (class, base, generators)
        for edges, n, flip in graphs:
            for gens in ([], [flip]):
                self.explicit.append(
                    ("graph", *_graph_input(rng, edges, n, gens)))
        for q in (2, 3):
            for d in ((1,) if tiny else (1, 2)):
                for matrices in self._matrix_groups(q, d):
                    base, gens = _vector_input(rng, q, d, matrices)
                    self.explicit.append((base.cls, base, gens))

    @staticmethod
    def _matrix_groups(q, d):
        """Generators of the trivial group, a Borel subgroup, and GL(d, q)."""
        if d == 1:
            return [[]] + ([[[[q - 1]]]] if q > 2 else [])
        upper = [[1, 1], [0, 1]]
        lower = [[1, 0], [1, 1]]
        diag = [[[q - 1, 0], [0, 1]], [[1, 0], [0, q - 1]]] if q > 2 else []
        return [[], [upper] + diag, [upper, lower] + diag[:1]]

    def run(self, recorder):
        subgroups = []
        for cls_id, max_base in self.enumerated:
            subs = recorder.call(f"enumerate {cls_id} {max_base}",
                                oligo.enumerate_open_subgroups, cls_id,
                                max_base, check=lambda subs: [])
            subgroups.extend(subs or ())
        for cls_id, base, gens in self.explicit:
            v = recorder.call(f"make {cls_id}", oligo.make_open_subgroup,
                             cls_id, base, gens, check=lambda v: [])
            if v is not None:
                subgroups.append(v)
        for v in subgroups:
            profile = recorder.call(
                f"profile {v!r}", oligo.double_coset_profile, v,
                check=lambda p, v=v: self.check_profile(v, p))
            if profile is not None:
                recorder.call(f"finiteness {v!r}", self.finite_configs, v,
                             profile, check=lambda n, v=v: self.check_finite(
                                 v, n))

    def close(self):
        pass

    @staticmethod
    def finite_configs(v, profile):
        finite = oligo.finitely_many_left_cosets
        return sum(1 for config in profile.configs if finite(v, config))

    @staticmethod
    def check_profile(v, profile):
        problems = []
        n = len(v.base.points)
        k = get_class(v.cls).size(v.base)
        trivial = v.group.order == 1
        if v.cls == "pure_set" and trivial:
            want = ref.partial_matchings(n)
        elif v.cls == "pure_set" and v.group.order == v.aut.order:
            want = n + 1
        elif v.cls == "linear_order":
            want = ref.central_delannoy(n)
        elif v.cls == "graph" and trivial:
            want = ref.graph_joint_configs(n, v.base.data)
        elif v.cls == "boolean_algebra" and trivial:
            want = ref.covering_matrices(k, k)
        elif v.cls.startswith("vector_space") and trivial:
            want = ref.partial_linear_isos(k, get_class(v.cls).q)
        else:
            want = None
        if want is not None:
            _expect(problems, "profile count", profile.count, want)
        if profile.count < 1:
            problems.append("empty profile")
        return problems

    @staticmethod
    def check_finite(v, finite):
        degree = len(v.base.points)
        if degree == 0:
            return [] if finite == 1 else [f"empty base: {finite} finite"]
        problems = []
        _expect(problems, "finite configs", finite, ref.double_cosets(
            _group_elements(v.aut, degree), _group_elements(v.group, degree)))
        return problems


# -- kazhdan ----------------------------------------------------------------------


class Kazhdan:
    """Cayley masks, free actions, order axioms, trees and walks."""

    RELATIONAL = ("pure_set", "linear_order", "graph")

    def __init__(self, seed, size, scratch):
        tiny = size == "tiny"
        self.seed = seed
        self.radius = 3 if tiny else 6
        self.trials = 100 if tiny else 2000
        self.depth = 4 if tiny else 6
        self.freeness = {c: (3 if tiny else n) for c, n in (
            ("pure_set", 8), ("linear_order", 8), ("vector_space", 4),
            ("vector_space_q3", 4), ("boolean_algebra", 4))}
        rng = random.Random(seed)
        stages = self.depth // 2
        self.walks = []
        for cls_id in self.RELATIONAL:
            for _ in range(5 if tiny else 100):
                support = rng.sample(range(stages), rng.randint(1, stages))
                weights = [rng.randint(1, 16) for _ in support]
                total = sum(weights)
                self.walks.append((cls_id, {p: Fraction(w, total) for p, w
                                            in zip(support, weights)}))

    def run(self, recorder):
        r = self.radius
        recorder.call(f"cayley_extension r={r}", kazhdan.cayley_extension_check,
                     r=r, t=2, seeds=[self.seed], check=self.check_cayley)
        recorder.call("cayley_edge_invariance", kazhdan.cayley_edge_invariance,
                     seed=self.seed, trials=self.trials, rng_seed=self.seed,
                     check=lambda rep: [] if rep["ok"] else ["not invariant"])
        recorder.call("order_axioms", kazhdan.order_axioms_check, word_len=6,
                     max_degree=10, trials=self.trials, seed=self.seed,
                     check=self.check_order)
        for cls_id, length in self.freeness.items():
            recorder.call(f"freeness {cls_id}", kazhdan.freeness_check, cls_id,
                         word_len=length, seed=self.seed,
                         check=lambda rep, n=length: self.check_freeness(
                             rep, n))
        for cls_id in self.RELATIONAL:
            tree = recorder.call(f"build_tree {cls_id}", kazhdan.build_tree,
                                cls_id, self.depth, check=self.check_tree)
            if tree is not None:
                recorder.call(f"verify {cls_id}", tree.verify,
                             check=self.check_verdict)
        for cls_id, weights in self.walks:
            recorder.call(f"walk {cls_id}", kazhdan.greedy_witness, cls_id,
                         weights, interleave=cls_id == "pure_set",
                         check=self.check_walk)

    def close(self):
        pass

    def check_cayley(self, report):
        problems = []
        _expect(problems, "inner ball", report["ball_inner"],
                2 * 3 ** (self.radius - 1) - 1)
        _expect(problems, "outer ball", report["ball_outer"],
                2 * 3 ** self.radius - 1)
        _expect(problems, "configs", report["per_seed"][0]["configs"],
                ref.cayley_configs(self.radius))
        return problems

    @staticmethod
    def check_order(report):
        problems = []
        _expect(problems, "failures", report["failures"], 0)
        _expect(problems, "undecided", report["undecided"], 0)
        return problems

    @staticmethod
    def check_freeness(report, length):
        problems = []
        _expect(problems, "ok", report["ok"], True)
        _expect(problems, "words checked", report["words_checked"],
                ref.nonidentity_words(length))
        return problems

    def check_tree(self, tree):
        problems = []
        _expect(problems, "level sizes", tree.level_sizes(),
                ref.tree_level_sizes(self.depth))
        return problems

    @staticmethod
    def check_verdict(verdict):
        return [] if verdict["ok"] else [f"conditions failed: {verdict}"]

    @staticmethod
    def check_walk(walk):
        problems = []
        if walk["displacement"] < Fraction(1, 2):
            problems.append(f"displacement {walk['displacement']} < 1/2")
        _expect(problems, "ok", walk["ok"], True)
        return problems


WORKLOADS = {"catalog": Catalog, "lattice": Lattice, "cosets": Cosets,
             "kazhdan": Kazhdan}
