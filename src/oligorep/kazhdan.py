"""Displacement witnesses: back-and-forth trees, inequalities, free actions.

Three independent certificate families live here.

Back-and-forth trees: leveled families of finite partial automorphisms of a
relational limit structure (pure set, dense order, random graph) whose
branches assemble into automorphisms moving every normalized nonnegative
weight function by at least 1/2 in the l1 norm.  The tree can be
materialized and its conditions checked, a parent's children together.
The greedy walk takes one child per level by the tree's rule, ``_level``,
tests each pair it adds, and certifies its bound exactly, on integer
weights over one denominator.  The dense order's points are ints, dyadic
rationals at a scale fixed per tree or walk, ``Fraction``s only in the
walk's certificates; every random-graph edge is declared by its newer end.

Norm inequalities: the marginal contraction for diagonal actions on tuple
spaces and the l1/l2 transfer that converts displacement bounds into
Kazhdan-type estimates, both checked on seeded random instances.

Free actions: five embeddings of the free group on two generators, one per
built-in class, acting freely on the moving part of the respective limit
structure.  Freeness and invariance are checked exactly on word balls; the
random Cayley graph additionally reports an extension-property satisfaction
rate, which is a finite stand-in for an almost-sure asymptotic statement.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from array import array
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

from .errors import (
    FreenessViolation,
    InvariantViolation,
    MalformedStructure,
    NoAlgebraicityRequired,
    SizeLimitExceeded,
    SupportOutsideEnumeration,
    UndecidedComparison,
)
from .limits import get_limits
from .words import (
    EMPTY,
    LETTERS,
    _mix_lanes,
    ball,
    inv,
    join,
    magnus_compare,
    pair_coin,
    random_word,
    word_int,
    word_key,
)

__all__ = [
    "Distribution",
    "random_distribution",
    "partial_displacement",
    "l1_displacement",
    "marginal_check",
    "l1_l2_transfer",
    "KazhdanTree",
    "build_tree",
    "greedy_witness",
    "f2_embedding",
    "freeness_check",
    "order_axioms_check",
    "cayley_edge_invariance",
    "cayley_extension_check",
]


# ---------------------------------------------------------------------------
# distributions and displacement


class Distribution:
    """Finitely supported nonnegative weights of total mass one, exact."""

    __slots__ = ("weights",)
    _zero = Fraction(0)   # the weight off the support, made once

    def __init__(self, weights):
        self.weights = {}
        for point, value in dict(weights).items():
            value = Fraction(value)
            if value.numerator < 0:
                raise MalformedStructure(f"negative weight at {point!r}")
            if value.numerator:
                self.weights[point] = value
        scale = math.lcm(*(v.denominator for v in self.weights.values()))
        if sum(v.numerator * (scale // v.denominator)
               for v in self.weights.values()) != scale:   # in integers
            raise MalformedStructure("weights must sum to exactly 1")

    def __getitem__(self, point):
        return self.weights.get(point, self._zero)

    def support(self):
        return set(self.weights)

    def items(self):
        return sorted(self.weights.items())

    def __repr__(self):
        inner = ", ".join(f"{p!r}: {v}" for p, v in self.items())
        return f"Distribution({{{inner}}})"


def random_distribution(rng, points):
    """Random element of the normalized nonnegative weights on ``points``."""
    points = list(points)
    support = rng.sample(points, rng.randint(1, len(points)))
    raw = [rng.randint(1, 16) for _ in support]
    total = sum(raw)
    return Distribution({p: Fraction(k, total) for p, k in zip(support, raw)})


def partial_displacement(f, mapping):
    """Sum of |f(x) - f(gx)| over the domain of a partial map.

    Every total extension of the map displaces ``f``, a ``Distribution``
    or int weights that read 0 off their support, by at least this much (a
    ``Fraction`` or an int), since the missing terms are nonnegative.
    """
    return sum((abs(f[x] - f[y]) for x, y in mapping.items()),
               Fraction(0) if isinstance(f, Distribution) else 0)


def _translate_pairs(f, perm):
    """(f(g^-1 xs), f(xs)) over every tuple xs where f or its translate
    g f is nonzero, ``perm`` acting diagonally and fixing missing points."""
    moved = {tuple(perm.get(x, x) for x in xs): v for xs, v in f.items()}
    for xs in f.keys() | moved.keys():
        yield moved.get(xs, 0), f.get(xs, 0)


def l1_displacement(f, perm):
    """l1 distance between f and its translate under a full permutation.

    ``f`` maps tuples to rationals or integers; ``perm`` is a point
    permutation acting diagonally.  Points missing from ``perm`` are fixed.
    """
    return sum(abs(a - b) for a, b in _translate_pairs(f, perm))


def _seeded_permutation(seed):
    """The generator of a norm check's instance and the permutation of six
    points that it draws first."""
    rng = random.Random(seed)
    images = list(range(6))
    rng.shuffle(images)
    return rng, dict(enumerate(images))


def marginal_check(seed):
    """Marginals contract displacement: |g f~ - f~|_1 <= |g f - f|_1.

    ``f~`` integrates out the last coordinate.  Checked exactly on five
    seeded random triples of six points; returns the norms and the verdict.
    The weights stay integers until the norms are divided by their total.
    """
    rng, perm = _seeded_permutation(seed)
    f = {}
    while len(f) < 5:
        f[tuple(rng.choice(range(6)) for _ in range(3))] = rng.randint(1, 16)
    total = sum(f.values())
    marginal = {}
    for xs, v in f.items():
        marginal[xs[:-1]] = marginal.get(xs[:-1], 0) + v
    lhs = l1_displacement(marginal, perm)
    rhs = l1_displacement(f, perm)
    return {"seed": seed, "lhs": Fraction(lhs, total),
            "rhs": Fraction(rhs, total), "ok": lhs <= rhs}


def l1_l2_transfer(seed):
    """Squared form of |g f~ - f~|_1 <= 2 |g f - f|_2 |f|_2 with f~ = f^2.

    ``f`` takes signed rational values on five pairs of six points, held
    times 2520 = lcm(1, ..., 9) to compare integers.  Also checks that
    translation is an isometry: over the pairs (a, b) that the norms read,
    sum a^2 = sum b^2 = |f|_2^2.  The squared check passes any pairs whose
    a's and b's are each values of f at distinct tuples, by Cauchy-Schwarz,
    so pairs that miss or repeat a tuple show only here.
    """
    rng, perm = _seeded_permutation(seed)
    f = {}
    while len(f) < 5:
        xs = tuple(rng.choice(range(6)) for _ in range(2))
        num = rng.randint(-12, 12) or 1
        f[xs] = num * (2520 // rng.randint(1, 9))
    lhs = l1_displacement({xs: v * v for xs, v in f.items()}, perm)
    pairs = list(_translate_pairs(f, perm))
    diff_sq = sum((a - b) ** 2 for a, b in pairs)
    norm_sq = sum(v * v for v in f.values())
    scale = 2520 ** 2
    return {
        "seed": seed,
        "lhs": Fraction(lhs, scale),
        "diff_sq": Fraction(diff_sq, scale),
        "norm_sq": Fraction(norm_sq, scale),
        "ok": lhs * lhs <= 4 * diff_sq * norm_sq,
        "isometry_ok": (sum(a * a for a, _ in pairs)
                        == sum(b * b for _, b in pairs) == norm_sq),
    }


# ---------------------------------------------------------------------------
# ground structures for the back-and-forth trees

_SPREAD_BASE = 1 << 20


class _Realizer:
    """A countable ground structure, enumerated by the small integers.

    ``images(mapping, a, banned)`` yields, in order of preference,
    distinct points outside ``banned`` that a partial automorphism
    ``mapping`` may send ``a`` to; ``preimages`` does the same for points
    sent to ``a``.  ``_fits(mapping, a)`` is the one extension test: a
    test of b that says whether the partial automorphism ``mapping``,
    ``a`` outside its domain, stays one when the pair a -> b is added.
    ``extends_at`` turns it around for pairs b -> a.  Only the dense
    order reads ``stages``, the walk's length or the tree's depth // 2.
    """

    interleaves = False
    unit = 1   # the int that holds the point 1

    def __init__(self, interleave=False, stages=1):
        if interleave and not self.interleaves:
            raise MalformedStructure(
                "interleaved realization is only available for the pure set")
        self.interleave = interleave
        self._next = _SPREAD_BASE

    def enumeration(self, m):
        return [i * self.unit for i in range(m)]

    def enumeration_index(self, point):
        if isinstance(point, int) and 0 <= point < _SPREAD_BASE:
            return point + 1
        return None

    def point(self, x):
        """``x`` as reports show it."""
        return x

    def preimages(self, mapping, a, banned):
        return self.images({y: x for x, y in mapping.items()}, a, banned)

    def extends_at(self, mapping, a, even):
        """A test of b: is ``mapping`` plus a -> b (``even``), or plus
        b -> a, a partial automorphism?  Exact when ``mapping`` is one;
        b -> a is tested as a -> b in the inverse map, and a pair at an
        ``a`` already on that side never fits."""
        side = mapping if even else {v: u for u, v in mapping.items()}
        if a in side:
            return lambda b: False
        return self._fits(side, a)


class _PureRealizer(_Realizer):
    """Countable set with no structure; extensions pick unused points."""

    interleaves = True

    def images(self, mapping, a, banned):
        if not self.interleave:
            while True:
                while self._next in banned:
                    self._next += 1
                self._next += 1
                yield self._next - 1
        used = set(mapping) | set(mapping.values()) | banned
        point = 0
        while True:
            while point in used:
                point += 1
            yield point
            point += 1

    def _fits(self, mapping, a):
        ran = set(mapping.values())
        return lambda b: b not in ran


class _LinearRealizer(_Realizer):
    """The rationals; enumeration on the integers, extensions in gaps.

    A point is an int, the dyadic rational x held as x * 2**scale for a
    scale fixed by ``stages``.  A gap with no room at that scale raises
    ``InvariantViolation``; nothing is rounded.  ``point`` gives back the
    ``Fraction`` that reports show."""

    def __init__(self, interleave=False, stages=1):
        super().__init__(interleave, stages)
        self.scale = self._scale(stages)
        self.unit = 1 << self.scale

    @staticmethod
    def _scale(stages):
        """Bits enough for a walk of ``stages`` stages or a tree of depth
        2 * stages + 1: level k takes one of the first 2^(n+1) points of
        its stream, n = k // 2, and in its gap at most k - 2 points of the
        parent, a and the enumeration are banned, while the splits of the
        gap down to j/2^m hold 2^m - 1 points."""
        return sum((2 ** (k // 2 + 1) + k - 1 + stages).bit_length()
                   for k in range(2, 2 * stages + 2))

    def enumeration_index(self, point):
        if isinstance(point, Fraction) and point.denominator == 1:
            point = point.numerator
        return super().enumeration_index(point)

    def point(self, x):
        return Fraction(x, self.unit)

    def images(self, mapping, a, banned):
        """Points between the images of ``a``'s neighbours in ``mapping``,
        outside ``banned``; the gap is found once for the whole stream."""
        lo, hi = self.gap(mapping, a)
        if lo is None and hi is None:   # an empty mapping: any point fits
            lo = _SPREAD_BASE << self.scale
        if hi is None:
            top = max([lo] + [b for b in banned if b > lo])
            while True:
                top += self.unit
                yield top
        if lo is None:
            bottom = min([hi] + [b for b in banned if b < hi])
            while True:
                bottom -= self.unit
                yield bottom
        for k in itertools.count(1):
            step, rest = divmod(hi - lo, 1 << k)
            if rest:
                raise InvariantViolation(
                    f"the gap ({self.point(lo)}, {self.point(hi)}) has no "
                    f"room at scale 2^-{self.scale}")
            for j in range(1, 1 << k, 2):
                candidate = lo + step * j
                if candidate not in banned:
                    yield candidate

    def gap(self, mapping, a):
        """Greatest image of a point below ``a``, least of the others."""
        lo = hi = None
        for u, v in mapping.items():
            if u < a:
                if lo is None or v > lo:
                    lo = v
            elif hi is None or v < hi:
                hi = v
        return lo, hi

    def _fits(self, mapping, a):
        """a -> b keeps the order with every pair iff b lies in a's gap."""
        lo, hi = self.gap(mapping, a)
        return lambda b: (lo is None or lo < b) and (hi is None or b < hi)


class _RadoRealizer(_Realizer):
    """The random graph, materialized lazily around a bit-graph core.

    Enumeration points are the small nonnegative integers with the bit
    graph adjacency (i < j are adjacent iff bit i of j is set).  Witness
    points get fresh ids above the spread base, which only grow.  Each
    point of an ``images`` stream is adjacent to its prescription
    P = {m(u) : u ~ a}, one frozenset shared by the stream, and to no other
    older point; as every edge is declared by its newer end, no answer is
    ever contradicted, and the maps built here are partial automorphisms.
    """

    def __init__(self, interleave=False, stages=1):
        super().__init__(interleave, stages)
        self._declared, self._last = {}, (None, None, None)

    def adjacent(self, i, j):
        lo, hi = (i, j) if i < j else (j, i)
        if hi < _SPREAD_BASE:
            return bool(hi >> lo & 1)   # hi >> hi is 0
        return lo in self._declared.get(hi, ())   # the newer end declares

    def _prescription(self, mapping, a):
        """P = {m(u) : u ~ a}, the last one kept for the walk's test of b."""
        if self._last[:2] != (a, mapping):
            self._last = a, dict(mapping), frozenset(
                [v for u, v in mapping.items() if self.adjacent(u, a)])
        return self._last[2]

    def images(self, mapping, a, banned):
        prescribed = self._prescription(mapping, a)
        while True:
            point = self._next
            while point in banned:
                point += 1
            self._next = point + 1
            self._declared[point] = prescribed
            yield point

    def _fits(self, mapping, a):
        """b is off the range and its neighbours there are P: a point made
        after the range declares them, so one AND reads them."""
        ran, want = frozenset(mapping.values()), self._prescription(mapping, a)
        declared, top = self._declared, max(ran, default=-1)
        return lambda b: b not in ran and want == (
            declared[b] & ran if b > top and b in declared
            else {v for v in ran if self.adjacent(v, b)})


_REALIZERS = {
    "pure_set": _PureRealizer,
    "linear_order": _LinearRealizer,
    "graph": _RadoRealizer,
}


def _realizer_for(class_id, interleave, stages=1):
    maker = _REALIZERS.get(class_id)
    if maker is None:
        raise NoAlgebraicityRequired(
            f"displacement trees need a relational class with no "
            f"algebraicity; {class_id!r} does not qualify")
    return maker(interleave, stages)


# ---------------------------------------------------------------------------
# the tree


class _TreeNode:
    """A node of a back-and-forth tree: its ``parent`` and the one
    ``pair`` it adds, or None when it equals its parent.  ``mapping`` is
    the dict of its chain of pairs, built on each read, unless one was
    assigned (as in malformed trees): then the chains below start there."""

    __slots__ = ("parent", "pair", "_mapping")

    def __init__(self, parent, pair=None):
        self.parent = parent
        self.pair = pair
        self._mapping = None

    @property
    def mapping(self):
        if self._mapping is not None:
            return self._mapping
        mapping = dict(self.parent.mapping) if self.parent else {}
        if self.pair:
            mapping[self.pair[0]] = self.pair[1]
        return mapping

    @mapping.setter
    def mapping(self, mapping):
        self._mapping = mapping


class KazhdanTree:
    """Materialized levels of the back-and-forth family, plus the checker.

    Level 2n extends domains by the n-th enumeration point, level 2n+1
    extends ranges, each with 2^(n+1)-fold splitting whose new points are
    pairwise disjoint outside the parent.
    """

    def __init__(self, class_id, enumeration, levels, realizer):
        self.class_id = class_id
        self.enumeration = enumeration
        self.levels = levels
        self._realizer = realizer

    @property
    def node_count(self):
        return sum(len(level) for level in self.levels)

    def level_sizes(self):
        return [len(level) for level in self.levels]

    def verify(self):
        """Check the six defining conditions and validity on every node,
        a parent's children together, level by level; a parent's mapping
        is built from its chain when its children are checked, then freed.

        A level is *separated* if no partial injection holds two of its
        nodes with different pairs.  The root level of one node is, and so
        is a level whose built children are all *sound*: the level above is
        separated, and either a_n is on the level's side of their parent
        and its one child equals it, or each child adds one pair at a_n
        whose far end b is new to its side.  The conditions of sound
        children follow from their parent's and their b's, read once:

        - validity: a valid parent plus a pair is a partial automorphism
          iff the test ``extends_at(parent, a_n, even)``, made once per
          parent and mapped over the b's, passes b; an invalid parent
          already fails validity;
        - 3: the grandparent covers the first n - 1 enumeration points on
          the same side, and a sound child adds a_n or has a parent that
          holds it;
        - 4: dom & ran gains at most a_n and b, so a b on a_n's side of
          the parent must be a head point;
        - 5 and 6: the children are counted, and their b's must differ;
        - 2: if a valid node N held its parent P and another node Q of the
          level above, the partial injection N would hold both, so Q has
          P's pairs, the level above being separated.

        The children of any other parent are checked from scratch, each
        pair against the pairs before it and its parent by the subsets of
        its pairs, so the report is the one ``exhaustive_verify`` in
        ``tests/test_kazhdan.py`` gives, on malformed trees too.
        """
        realizer = self._realizer
        enum, levels = self.enumeration, self.levels
        report = {"1_root": len(levels[0]) == 1 and levels[0][0].mapping == {}}
        valid = unique = covers = bounded = True
        splitting = {True: True, False: True}
        pools = {}

        def from_scratch(node, head, even):
            nonlocal valid, covers, bounded
            items = list(node.mapping.items())
            valid &= all(realizer.extends_at(dict(items[:k]), x, True)(y)
                         for k, (x, y) in enumerate(items))
            dom, ran = set(node.mapping), set(node.mapping.values())
            covers &= head <= (dom if even else ran)
            bounded &= dom & ran <= head

        def unique_parent(node, i):
            if i not in pools:
                pools[i] = {}
                for q in levels[i - 1]:
                    pools[i].setdefault(len(q.mapping), set()).add(
                        frozenset(q.mapping.items()))
            items = node.mapping.items()
            if node.parent is not None and node.parent.mapping.items() > items:
                return False
            return 1 == sum(
                frozenset(subset) in pool for size, pool in pools[i].items()
                for subset in itertools.combinations(items, size))

        for node in levels[0]:
            from_scratch(node, set(), False)
        separated = len(levels[0]) == 1
        for i in range(1, len(levels)):
            n, even = (i + 1) // 2, i % 2 == 1
            a, head = enum[n - 1], set(enum[:n])
            children = {id(node): [] for node in levels[i - 1]}
            orphans = []
            for node in levels[i]:
                children.get(id(node.parent), orphans).append(node)
            for node in orphans:
                from_scratch(node, head, even)
                unique &= unique_parent(node, i)
            trusted, separated = separated, separated and not orphans
            for parent in levels[i - 1]:
                pmap = parent.mapping
                ran = set(pmap.values())
                side, core = (pmap, ran) if even else (ran, pmap)
                present = a in side
                kids = children[id(parent)]
                split = len(kids) == (1 if present else 2 ** (n + 1))
                pairs = [kid.pair for kid in kids if kid._mapping is None]
                ends = [p[even] for p in pairs
                        if p and p[not even] == a and p[even] not in core]
                sound = pairs == [None] if present else len(ends) == len(kids)
                if trusted and len(pairs) == len(kids) and sound:
                    new = set(ends)
                    valid &= all(map(realizer.extends_at(pmap, a, even), ends))
                    bounded &= new.intersection(side) <= head
                    split &= len(new) == len(ends)
                    if not valid:
                        unique &= all(unique_parent(kid, i) for kid in kids)
                else:
                    separated = False
                    maps = [kid.mapping for kid in kids]
                    points = [set(m.values() if even else m).difference(
                        core) for m in maps]
                    split &= (maps == [pmap] if present else all(
                        m.items() >= pmap.items() for m in maps) and len(
                        set().union(*points)) == sum(map(len, points)))
                    for kid in kids:
                        from_scratch(kid, head, even)
                        unique &= unique_parent(kid, i)
                splitting[even] &= split
        report.update({
            "partial_automorphisms": valid,
            "2_unique_parent": unique,
            "3_covers_enumeration": covers,
            "4_intersection_bound": bounded,
            "5_range_splitting": splitting[True],
            "6_domain_splitting": splitting[False],
        })
        report["ok"] = all(report.values())
        report["node_count"] = self.node_count
        report["level_sizes"] = self.level_sizes()
        return report


def _level(realizer, enum, reserved, mapping, number):
    """Level ``number``'s rule below a node holding ``mapping``: (a, even,
    points), a = a_n for n = number // 2, paired in the domain if ``even``
    and else in the range.  ``points`` is None if a is there already, so
    the node persists, else it lazily yields the first 2^(n+1) candidates
    of that side's stream outside the mapping, a and ``reserved``."""
    n, even = number // 2, number % 2 == 0
    a = enum[n - 1]
    ran = set(mapping.values())
    if a in (mapping if even else ran):
        return a, even, None
    stream = (realizer.images if even else realizer.preimages)(
        mapping, a, ran.union(mapping, reserved, [a]))
    return a, even, itertools.islice(stream, 2 ** (n + 1))


def build_tree(class_id, depth, interleave=False):
    """Materialize levels 1..depth of the back-and-forth tree.  A child
    holds its parent and one pair; a parent's mapping is built from its
    chain when its children are made, and not kept.  A depth is refused
    before any node is built if its count, 2^(k//2+1) children per parent
    on level k (a bound when ``interleave`` lets nodes persist), exceeds
    ``tree_nodes``."""
    if depth < 1:
        raise MalformedStructure("depth must be at least 1")
    stages = max(depth // 2, 1)
    realizer = _realizer_for(class_id, interleave, stages)
    budget = get_limits().tree_nodes
    total = size = 1
    for number in range(2, depth + 1):
        size <<= number // 2 + 1
        total += size
        if total > budget:
            raise SizeLimitExceeded(
                f"tree would exceed {budget} nodes at level "
                f"{number}; lower the depth")
    enum = realizer.enumeration(stages)
    reserved = set() if interleave else set(enum)
    levels = [[_TreeNode(None)]]
    for number in range(2, depth + 1):
        new_level = []
        for parent in levels[-1]:
            a, even, points = _level(realizer, enum, reserved,
                                     parent.mapping, number)
            new_level += [_TreeNode(parent)] if points is None else [
                _TreeNode(parent, (a, c) if even else (c, a)) for c in points]
        levels.append(new_level)
    return KazhdanTree(class_id, enum, levels, realizer)


# ---------------------------------------------------------------------------
# the greedy walk


@lru_cache(maxsize=64)
def _stage_bound(n):   # 2^-(n+1), most f weighs where stage n certifies
    return Fraction(1, 2 ** (n + 1))


def greedy_witness(class_id, f, interleave=False):
    """Walk one branch of the tree; certify displacement >= 1/2 for ``f``.

    Stage n takes one child on each of levels 2n and 2n+1, testing its
    pair with the realizer's ``extends_at``: if a_n has no image, the
    first candidate where ``f`` is small, then the first preimage; else
    the first preimage where ``f`` is small.  The walk's displacement,
    exact on integer numerators of ``f`` over one denominator, bounds that
    of every automorphism extending it.  A failed test, or a walk below
    ``required``, which exceeds 1/2, raises ``InvariantViolation``, so the
    ``ok`` it returns is always True; the key stays for the reports.
    """
    realizer = _realizer_for(class_id, interleave)
    if not isinstance(f, Distribution):
        f = Distribution(f)

    stage_of = {}
    for point in f.support():
        index = realizer.enumeration_index(point)
        if index is None:
            raise SupportOutsideEnumeration(
                f"point {point!r} is not in the standard enumeration of "
                f"{class_id}")
        stage_of[point] = index
    stages = max(stage_of.values())
    budget = get_limits().tree_nodes
    if 2 ** (stages + 1) > budget:
        raise SizeLimitExceeded(
            f"stage {stages} could branch {2 ** (stages + 1)} ways, beyond "
            f"the {budget} node budget")

    realizer = _realizer_for(class_id, interleave, stages)
    enum = realizer.enumeration(stages)
    reserved = set() if interleave else set(enum)
    scale = math.lcm(*(v.denominator for v in f.weights.values()))
    weight = defaultdict(int, {enum[i - 1]: f[p].numerator * (
        scale // f[p].denominator) for p, i in stage_of.items()})
    mapping, certificates, certified = {}, [], set()

    def take(number, side=None):
        """Add the pair of level ``number`` at its first candidate or, if
        the level certifies a ``side``, at its first candidate where ``f``
        is at most the stage's bound; False if the node persists."""
        a, even, points = _level(realizer, enum, reserved, mapping, number)
        if points is None:
            return False
        n = number // 2
        b = next((c for c in points
                  if not side or weight[c] << (n + 1) <= scale), None)
        if b is None:
            raise InvariantViolation(f"no small {side} among the branch "
                                     "candidates; mass accounting broken")
        x, y = (a, b) if even else (b, a)
        if not realizer.extends_at(mapping, a, even)(b):
            raise InvariantViolation(
                f"the pair {realizer.point(x)} -> {realizer.point(y)} fails "
                "the extension test of the walk's map")
        mapping[x] = y
        if side:
            point = realizer.point(x)
            if x in certified:
                raise InvariantViolation(f"point {point!r} certified twice; "
                                         "bound accounting broken")
            certified.add(x)
            certificates.append({"stage": n, "side": side, "point": point,
                                 "value": Fraction(weight[b], scale)
                                 if weight[b] else f._zero,
                                 "bound": _stage_bound(n)})
        return True

    for n in range(1, stages + 1):
        if take(2 * n, "image"):
            take(2 * n + 1)
        elif enum[n - 1] in mapping.values():
            raise InvariantViolation(
                f"{realizer.point(enum[n - 1])!r} in both domain and range "
                "before its stage")
        else:
            take(2 * n + 1, "preimage")

    displacement = Fraction(partial_displacement(weight, mapping), scale)
    required = _stage_bound(0) + _stage_bound(stages)   # 1 - 2^-2 - 2^-3 ...
    if displacement < required:
        raise InvariantViolation(
            f"certified displacement {displacement} below the guaranteed "
            f"bound {required}")
    return {
        "class": class_id,
        "interleave": interleave,
        "stages": stages,
        "support_size": len(f.weights),
        "domain_size": len(mapping),
        "displacement": displacement,
        "required": required,
        "ok": displacement >= _stage_bound(0),
        "certificates": certificates,
    }


# ---------------------------------------------------------------------------
# free actions of the rank-two free group


class PureSetF2Action:
    """Left multiplication on the group itself, acting on reduced words."""

    class_id = "pure_set"

    def act(self, w, point):
        return join(w, point)


class LinearOrderF2Action(PureSetF2Action):
    """Left multiplication, order-preserving for the series ordering.

    The ordering compares the first differing homogeneous component of the
    series expansion, is invariant on both sides, and is dense without
    endpoints, so the ordered orbit is a copy of the rationals.
    """

    class_id = "linear_order"


class VectorSpaceF2Action:
    """Permutation of a basis labeled by reduced words, extended linearly.

    Vectors are frozensets of (basis word, coefficient) pairs; the zero
    vector is the empty frozenset and is excluded from freeness checks.
    """

    def __init__(self, q):
        if q not in (2, 3):
            raise MalformedStructure("only q = 2 and q = 3 are built in")
        self.q = q
        self.class_id = "vector_space" if q == 2 else "vector_space_q3"

    def vector(self, items):
        out = {}
        for word, coeff in dict(items).items():
            coeff %= self.q
            if coeff:
                out[word] = coeff
        return frozenset(out.items())

    def add(self, u, v):
        out = dict(u)
        for word, coeff in v:
            out[word] = out.get(word, 0) + coeff
        return self.vector(out)

    def act(self, w, point):
        return frozenset((join(w, b), c) for b, c in point)

    def sample_points(self, rng, count):
        out = []
        while len(out) < count:
            size = rng.randint(1, 3)
            words = rng.sample(ball(2), size)
            vec = self.vector({b: rng.randint(1, self.q - 1) for b in words})
            if vec:
                out.append(vec)
        return out


class ClopenF2Action:
    """Shift action on the Cantor space of subsets of the group.

    A clopen set is stored as (support, masks): a sorted tuple of reduced
    words and the set of restrictions (as bitmasks over the support) that
    belong to the set.  The support is minimal: no coordinate can be
    dropped.  The empty set and the full space have empty support and are
    the excluded fixed points.
    """

    class_id = "boolean_algebra"

    def clopen(self, support, masks):
        support = sorted(set(support), key=word_key)
        masks = set(masks)
        for mask in masks:
            if not 0 <= mask < 1 << len(support):
                raise MalformedStructure("mask outside the support cube")
        while True:
            for i in range(len(support)):
                if masks == {m ^ (1 << i) for m in masks}:
                    low = (1 << i) - 1
                    masks = {(m >> (i + 1)) << i | (m & low) for m in masks}
                    support = support[:i] + support[i + 1:]
                    break
            else:
                break
        return (tuple(support), frozenset(masks))

    def is_trivial(self, point):
        return not point[0]

    def act(self, w, point):
        support, masks = point
        moved = [join(w, h) for h in support]
        order = sorted(range(len(moved)), key=lambda i: word_key(moved[i]))
        return (tuple(moved[i] for i in order), frozenset(
            sum(1 << pos for pos, i in enumerate(order) if mask >> i & 1)
            for mask in masks))

    def sample_points(self, rng, count):
        out = []
        while len(out) < count:
            size = rng.randint(1, 3)
            support = rng.sample(ball(2), size)
            full = 1 << size
            masks = {m for m in range(full) if rng.random() < 0.5}
            if not masks or len(masks) == full:
                continue
            point = self.clopen(support, masks)
            if not self.is_trivial(point):
                out.append(point)
        return out


class RadoF2Action(PureSetF2Action):
    """Left multiplication on a random right Cayley graph of the group.

    The symmetric connection set is sampled by a deterministic fair coin on
    inverse pairs, so the graph is reproducible from the seed.  Left
    translations preserve x^-1 y exactly, hence act by graph isomorphisms.
    """

    class_id = "graph"

    def __init__(self, seed=0):
        self.seed = seed

    def adjacent(self, x, y):
        return x != y and pair_coin(self.seed, join(inv(x), y))


def _cayley_masks(r, seeds):
    """Yield (seed, masks) for each seed: bit k of mask x says whether x in
    ball(r-1) is adjacent to word k of ball(r) under ``RadoF2Action(seed)``.

    x ~ z is the coin of g = x^-1 z, so one coin is drawn per word g of
    length n <= 2r - 1, in ball order.  With g = u w, |w| = min(n, r), the
    codes of g and g^-1 for all w of a run of ball(r) sit in the 128-bit
    lanes of one int, where the lesser is kept and ``_mix_lanes`` takes its
    inner ``_splitmix64``, once for all seeds; per seed, the outer one
    follows the seed mod 2**64 xored in.  If z = x[:p] c y with c not x[p],
    g = x[p:]^-1 c y, so the z and the g that continue x[:p] c and x[p:]^-1 c
    to one length fill runs of one size: a row is a join of runs of coins,
    in the order of their z.  Bit k of row k, x against itself, is cleared.
    """
    outer, inner = ball(r), ball(r - 1)
    # first[n]: where the words of length n begin in ball order
    first = [0] + [2 * 3 ** k - 1 for k in range(2 * r + 1)]
    rank = {z: i - first[len(z)] for i, z in enumerate(outer)}   # by length

    mixed = array("Q")   # the inner mix of each word's code, in ball order
    for b in range(r + 1):   # g = u w with |w| = b, and u = 1 unless b = r
        run = outer[first[b]:first[b + 1]]
        q = len(run) // 4
        # the lanes of the w that u w keeps reduced, by the last letter of u
        kept = {0: run} | ({-e: run[:i * q] + run[i * q + q:]
                            for i, e in enumerate(LETTERS)} if b == r else {})
        lanes = {a: (_lanes([word_int(z) for z in ws]),
                     _lanes([word_int(inv(z)) for z in ws]),
                     _lanes([1] * len(ws)), len(ws)) for a, ws in kept.items()}
        for u in inner if b == r else [()]:
            w, w_inv, ones, n = lanes[u[-1] if u else 0]
            c = w + (word_int(u) << 2 * b) * ones
            d = (w_inv << 2 * len(u)) + word_int(inv(u)) * ones
            use_d = ((c | ones << 64) - d >> 64 & ones) * 0xFFFF_FFFF_FFFF_FFFF
            mixed += array("Q", _mix_lanes(c ^ (c ^ d) & use_d, ones).to_bytes(
                16 * n, "little"))[::2]   # the low half of each lane
    if sys.byteorder == "big":
        mixed.byteswap()

    rows = []   # per x, (start, end) of each run of its coins in ``mixed``
    for x, xi in zip(inner, map(inv, inner)):
        # z = q y and g = h y for |q y| <= last; prefixes of x stop at q
        heads = [(x[:m], xi[:len(x) - m], m) for m in range(len(x) + 1)]
        heads += [(x[:p] + (c,), xi[:len(x) - p] + (c,), r)
                  for p in range(len(x) + 1) for c in LETTERS
                  if x[p - 1:p] != (-c,) and x[p:p + 1] != (c,)]
        # the z and g of length m that continue q and h begin at these places
        runs = sorted((first[m] + rank[q] * (s := 3 ** (m - len(q))),
                       first[len(h) + m - len(q)] + rank[h] * s, s)
                      for q, h, last in heads for m in range(len(q), last + 1))
        rows.append(array("I", [i for _, a, s in runs for i in (a, a + s)]))

    ones = _lanes([1] * 1024)
    for seed in seeds:
        key = (seed & 0xFFFF_FFFF_FFFF_FFFF) * ones
        coins = bytearray(len(mixed))   # b"0" or b"1" per word
        for i in range(0, len(mixed), 1024):
            z = _mix_lanes(_lanes(mixed[i:i + 1024]) ^ key, ones)
            coins[i:i + 1024] = (z & ones | ones * 48).to_bytes(
                1 << 14, "little")[::16]
        yield seed, [int(b"".join([coins[a:b] for a, b in zip(
            cuts[::2], cuts[1::2])])[::-1], 2) & ~(1 << i)
            for i, cuts in enumerate(rows)]


def _lanes(values):
    """One int holding ``values``, each below 2**64, in 128-bit lanes, the
    first lowest."""
    buf = array("Q", bytes(16 * len(values)))
    buf[::2] = array("Q", values)
    if sys.byteorder == "big":
        buf.byteswap()
    return int.from_bytes(buf, "little")


_F2_ACTIONS = {
    "pure_set": lambda seed: PureSetF2Action(),
    "linear_order": lambda seed: LinearOrderF2Action(),
    "vector_space": lambda seed: VectorSpaceF2Action(2),
    "vector_space_q3": lambda seed: VectorSpaceF2Action(3),
    "boolean_algebra": lambda seed: ClopenF2Action(),
    "graph": RadoF2Action,
}


def f2_embedding(class_id, seed=0):
    """The built-in free action for one of the six classes."""
    maker = _F2_ACTIONS.get(class_id)
    if maker is None:
        raise MalformedStructure(f"no free action registered for {class_id!r}")
    return maker(seed)


def freeness_check(action, word_len=8, seed=0, points=None):
    """Every nonidentity word of length <= word_len moves every test point.

    ``action`` is a class id or an action object.  Raises on the first
    fixed point found; otherwise reports what was checked.  Left
    multiplication is free by the group axioms (w p = p forces w = 1): on
    the default points the actions that inherit it share one cached sweep,
    which only a wrong ``join`` can fail, and fails on every call, as
    exceptions are not cached.  The default vector and clopen points have
    supports in ball(2), and supp(w p) = w supp(p), so a w fixing p permutes
    supp(p): w = s s0^-1 for some s, s0 in it, and |w| <= 4.  At those
    points a sweep of length 4 thus covers every word.  A word length whose
    ball, 2*3^word_len - 1 words, exceeds ``ball_words`` is refused before
    any word is built.
    """
    budget = get_limits().ball_words
    # past bit_length() letters the ball exceeds any budget: the cap keeps
    # a huge word_len from building a huge power of 3
    if 2 * 3 ** min(word_len, budget.bit_length()) - 1 > budget:
        raise SizeLimitExceeded(
            f"ball({word_len}) would hold 2*3^{word_len} - 1 words, beyond "
            f"the {budget} word budget; lower the word length")
    if isinstance(action, str):
        action = f2_embedding(action, seed=seed)
    if points is None and type(action).act is PureSetF2Action.act:
        return {**_translation_sweep(word_len), "class": action.class_id}
    if points is None:
        points = (action.sample_points(random.Random(seed), 30)
                  if isinstance(action, (VectorSpaceF2Action, ClopenF2Action))
                  else ball(2))
    words = ball.__wrapped__(word_len)[1:]   # read once: not kept in cache
    for w in words:
        for point in points:
            if action.act(w, point) == point:
                raise FreenessViolation(
                    f"word {w!r} fixes point {point!r} in "
                    f"{action.class_id}")
    return {
        "class": action.class_id,
        "word_len": word_len,
        "words_checked": len(words),
        "points_checked": len(points),
        "ok": True,
    }


@lru_cache(maxsize=32)
def _translation_sweep(word_len):
    """The report of left multiplication on ball(2): one ``join`` pass over
    the words per point, and on a hit the loop of ``freeness_check``."""
    words, points = ball.__wrapped__(word_len)[1:], ball(2)
    if any(p in map(join, words, itertools.repeat(p)) for p in points):
        return freeness_check(PureSetF2Action(), word_len, points=points)
    return {"class": "pure_set", "word_len": word_len,
            "words_checked": len(words), "points_checked": len(points),
            "ok": True}


def order_axioms_check(word_len=6, max_degree=10, trials=10000, seed=0):
    """Totality, antisymmetry, transitivity, bi-invariance, and density.

    Samples word triples and counts failures; a correct order returns zero
    failures and zero undecided comparisons.  Density witnesses use the
    conjugation trick: some conjugate of a positive word sits strictly
    between the identity and the word.
    """
    rng = random.Random(seed)
    failures = 0
    undecided = 0
    density_checked = 0
    for _ in range(trials):
        u, v, w = (random_word(rng, word_len) for _ in range(3))
        try:
            uv = magnus_compare(u, v, max_degree)
            vu = magnus_compare(v, u, max_degree)
            if {uv, vu} not in ({"="}, {"<", ">"}) or (uv == "=") != (u == v):
                failures += 1
            if uv == "<":
                if magnus_compare(join(w, u), join(w, v), max_degree) != "<":
                    failures += 1
                if magnus_compare(join(u, w), join(v, w), max_degree) != "<":
                    failures += 1
            vw = magnus_compare(v, w, max_degree)
            if uv == "<" and vw == "<":
                if magnus_compare(u, w, max_degree) != "<":
                    failures += 1
            if u and magnus_compare(EMPTY, u, max_degree) == "<":
                z = _density_witness(u, max_degree)
                if z is not None:
                    density_checked += 1
                    if not (magnus_compare(EMPTY, z, max_degree) == "<"
                            and magnus_compare(z, u, max_degree) == "<"):
                        failures += 1
        except UndecidedComparison:
            undecided += 1
    return {
        "trials": trials,
        "word_len": word_len,
        "max_degree": max_degree,
        "failures": failures,
        "undecided": undecided,
        "density_checked": density_checked,
        "ok": failures == 0 and undecided == 0,
    }


def _density_witness(u, max_degree):
    """A word strictly between the identity and a positive ``u``, if the
    conjugation trick applies within the degree bound."""
    for y in ((1,), (2,), (1, 2)):
        if join(u, y) == join(y, u):
            continue
        for t in (y, inv(y)):
            z = join(join(t, u), inv(t))
            if z == u:
                continue
            try:
                if magnus_compare(z, u, max_degree) == "<":
                    return z
            except UndecidedComparison:
                continue
        return None
    return None


def cayley_edge_invariance(seed=0, trials=2000, rng_seed=0):
    """Left translations preserve adjacency in the random Cayley graph.

    This is an exact identity (adjacency depends on x^-1 y only); the check
    exercises the implementation on triples of random words of length <= 5.
    """
    action = RadoF2Action(seed)
    rng = random.Random(rng_seed)
    for _ in range(trials):
        x, y, w = (random_word(rng, 5) for _ in range(3))
        if x == y:
            continue
        if action.adjacent(x, y) != action.adjacent(join(w, x), join(w, y)):
            raise InvariantViolation(
                f"translation by {w!r} broke the edge ({x!r}, {y!r})")
    return {"seed": seed, "trials": trials, "ok": True}


def cayley_extension_check(r=6, t=2, seeds=20):
    """Fraction of small adjacency prescriptions realized inside a ball.

    For every configuration of at most ``t`` vertices in the radius r-1
    ball split into must-link and must-avoid parts, look for a witness in
    the radius r ball.  The almost-sure statement this stands in for is
    asymptotic; the finite rate is reported, not asserted.  It is 1 from
    r = 3 on for the seeds tried, so each seed also reports ``witnesses``,
    the must-link prescriptions' witnesses summed: one flipped bit moves it.
    They are counted by row covers and bit-sliced column degrees, and
    ``_audit_masks`` recounts the witnesses and samples the mask bits.
    """
    if t not in (1, 2):
        raise MalformedStructure(f"t must be 1 or 2, not {t!r}")
    seeds = range(seeds) if isinstance(seeds, int) else list(seeds)
    if not seeds:
        raise MalformedStructure("the check needs at least one seed")
    n_inner, n_outer = len(ball(r - 1)), len(ball(r))
    total = 2 * n_inner + (2 * n_inner * (n_inner - 1) if t == 2 else 0)
    results = []
    for seed, masks in _cayley_masks(r, seeds):
        witnessed, witnesses = _extension_witnessed(masks, n_outer, t)
        _audit_masks(r, t, seed, masks, witnesses)
        results.append({
            "seed": seed,
            "configs": total,
            "witnessed": witnessed,
            "witnesses": witnesses,
            "rate": Fraction(witnessed, total),
        })
    return {
        "r": r,
        "t": t,
        "ball_inner": n_inner,
        "ball_outer": n_outer,
        "per_seed": results,
        "mean_rate": sum(row["rate"] for row in results) / len(results),
        "all_witnessed": all(
            row["witnessed"] == row["configs"] for row in results),
    }


EDGE_SAMPLES = 64   # mask bits per seed compared with the edge rule


def _audit_masks(r, t, seed, masks, witnesses):
    """Raise ``InvariantViolation`` unless ``witnesses`` equals its recount
    by columns and ``EDGE_SAMPLES`` bits of ``masks`` follow the edge rule.

    The witnesses number sum_k C(d_k, 1) + ... + C(d_k, t) over the column
    degrees d_k, read here from the masks as strings, code apart from the
    bit slices of ``_extension_witnessed``, so a fault in either raises.
    Each sampled bit, at inner index i then outer index k drawn from
    ``random.Random(seed)``, must equal ``RadoF2Action(seed)``'s adjacency
    of the two words, as a wrong mask moves both counts alike.  A sample of
    64 of the 706 645 bits at r = 6 can miss one; the pinned totals cannot.
    """
    outer, inner = ball(r), ball(r - 1)
    rows, n = "".join(format(m, f"0{len(outer)}b") for m in masks), len(outer)
    degrees = [rows[j::n].count("1") for j in range(n)]   # column j, strided
    recount = sum(math.comb(d, j) for d in degrees for j in range(1, t + 1))
    if recount != witnesses:
        raise InvariantViolation(
            f"seed {seed}: {witnesses} witnesses, {recount} recounted by "
            "columns")
    rng, action = random.Random(seed), RadoF2Action(seed)
    for _ in range(EDGE_SAMPLES):
        i, k = rng.randrange(len(inner)), rng.randrange(len(outer))
        if masks[i] >> k & 1 != action.adjacent(inner[i], outer[k]):
            raise InvariantViolation(
                f"seed {seed}: bit {k} of mask {i} is not the adjacency of "
                f"{inner[i]!r} and {outer[k]!r}")


def _extension_witnessed(masks, n_outer, t):
    """Witnessed prescriptions on at most ``t`` of the first len(masks)
    vertices of a symmetric irreflexive graph on ``n_outer`` vertices, and
    the number of witnesses summed over the must-link prescriptions.

    With N(v) the neighbours of v and N'(v) its non-neighbours but v,
    prescription (X, Y) on i < j, each N or N', is witnessed iff some k is
    in X(i) & Y(j): row i's witnessed j are an OR over k in X(i) of the
    columns {j : k in Y(j)}, stopped once it covers every j > i and exact
    otherwise.  Inner columns are masks cut to the inner prefix, outer ones
    transposed.  Must-link pairs have sum_k C(d_k, 2) witnesses over column
    degrees d_k, and sum_k d_k^2 = sum_{b,c} 2^(b+c) |s_b & s_c| by slices.
    """
    sizes = [m.bit_count() for m in masks]
    witnessed = sum((size > 0) + (size + 1 < n_outer) for size in sizes)
    witnesses = sum(sizes)
    if t == 1:
        return witnessed, witnesses
    slices = []   # bit b of the degrees, one ripple adder for all columns
    for carry in masks:
        for b, s in enumerate(slices):
            slices[b], carry = s ^ carry, s & carry
        if carry:
            slices.append(carry)
    witnesses += (sum((s & u).bit_count() << b + c for b, s in enumerate(
        slices) for c, u in enumerate(slices)) - witnesses) // 2
    inner, everyone = (1 << len(masks)) - 1, (1 << n_outer) - 1
    for i, row in enumerate(masks):
        above = inner >> i + 1 << i + 1
        for ks in (row, everyone & ~row & ~(1 << i)):   # N(i), then N'(i)
            link = avoid = 0   # j linked to some k, or avoiding it
            while ks and link & avoid & above != above:
                k = (ks & -ks).bit_length() - 1
                ks &= ks - 1
                column = masks[k] & inner if k < len(masks) else sum(
                    (m >> k & 1) << j for j, m in enumerate(masks))
                link |= column
                avoid |= inner & ~column & ~(1 << k)
            witnessed += ((link & above).bit_count()
                          + (avoid & above).bit_count())
    return witnessed, witnesses
