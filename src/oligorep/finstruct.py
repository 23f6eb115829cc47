"""Finite members of the built-in amalgamation classes.

A :class:`FinStructure` is an immutable, positional description of a finite
structure: ``points`` holds the point names and ``data`` describes the
relations or coordinates by position.  The payload shape depends on the
class:

* ``pure_set``: ``None``;
* ``linear_order``: a tuple ``ranks`` with ``ranks[i]`` the position of
  point ``i`` in the order (a permutation of ``range(n)``);
* ``graph``: a frozenset of two-element frozensets of positions;
* ``vector_space`` / ``vector_space_q3``: a pair ``(q, vectors)`` where
  ``vectors[i]`` is the coordinate tuple of point ``i`` over GF(q), all in
  a common ambient dimension;
* ``boolean_algebra``: a pair ``(n_atoms, masks)`` where ``masks[i]`` is
  the bitmask of point ``i`` over the ambient atoms.

Each class plugs in validation, membership, closure (``acl``) and
enumeration of structures, and one ``_canonical`` hook: the canonical form,
the relabeling onto it and generators of its automorphism group, which for
graphs one search gives.  ``automorphisms`` moves those generators back
onto a structure's positions, and the enumeration carries each
representative's.  The relational classes also list tuple types.  Each
class also owns everything else that reads its payload:

* ``joint_configs(base_b, base_c)``: the raw joint configurations of two
  bases, one tagged tuple each (``"match"``, ``"ranks"``, ``"cross"``,
  ``"space"`` or ``"cells"``);
* ``config_cells(base_b, base_c)``: the cells ``(tag, x, y)`` a joint
  configuration can occupy, and a function from a configuration to its
  cell mask; sets of pairs by default, a subspace's vectors for vector
  spaces;
* ``cell_group(group, base)``: ``group`` <= Aut(base) as it permutes the
  cell coordinates, which are also the points of the base's character
  table: ``group`` itself by default, its action on the atoms for Boolean
  algebras;
* ``double_coset_reps(base_b, group_b, base_c, group_c)``: the least
  configuration of each orbit of the two groups, sorted, by closing orbits
  of cell masks under the reduced generators, or every configuration when
  neither group has one; graphs override it with a two-stage search and
  return the witnesses as a read-only sequence that holds one packed cross
  mask per witness and decodes the configuration when it is read, and
  whose ``runs()`` gives each matching's first witness and witness count;
* ``config_finiteness(payload, base_b, base_c)``: the pair (left, right)
  of whether the second copy lies in the hull of the first and back;
* ``tuple_hulls(n, x0_only)``: canonical code -> (canonical closed hull,
  number of orbits of n-tuples whose hull it is), by a closed count per
  class: Gaussian binomials for vector spaces, which list no relation
  space;
* ``_data_to_json``: the ``data`` object of a structure document.

Boolean algebras set ``atomic``: Aut(base) is the symmetric group on its
atoms, whose table ``oligo.base_table`` reads from partitions.  Canonical
codes are short lowercase hex strings; two structures get the same code
exactly when they are isomorphic.  The empty structure is a member of
every class and is its own closure; for the linear-algebraic classes the
closure of any nonempty set contains the fixed elements (the zero vector,
the top and bottom of an algebra).  These closures are generated, not
iterated: the closure of a set of vectors is their span (``_span``), and
that of a set of masks is the unions of the blocks into which the masks
cut the top (``_blocks``).  So a set is closed when it has q**rank
vectors, or 2**blocks masks.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import operator
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvariantViolation, MalformedStructure, SizeLimitExceeded
from .permgrp import PermGroup, compose, inverse, symmetric_gens

__all__ = [
    "FinStructure",
    "TupleType",
    "FraisseClass",
    "REGISTRY",
    "get_class",
    "structure_to_json",
]


@dataclass(frozen=True)
class FinStructure:
    """One finite structure; equality is positional, not isomorphism."""

    cls: str
    points: tuple
    data: object

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class TupleType:
    """Orbit of an n-tuple in a relational class, described by a canonical
    marked payload ``(blocks, core)``: ``blocks`` partitions the coordinates
    (ordered by least element) and ``core`` is the induced structure on the
    blocks.  Equal payloads mean equal orbits, so dataclass equality is
    orbit equality.  The other classes count their orbits per hull
    (``tuple_hulls``) and list none.
    """

    cls: str
    n: int
    data: object


def _digest(*parts):
    text = "|".join(str(p) for p in parts)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _relabel(pairs, g1, g2):
    """Sorted pairs (i, j) moved to (g1[i], g2[j])."""
    return tuple(sorted((g1[i], g2[j]) for i, j in pairs))


def _byte_tables(values, zero):
    """One table per byte of a mask over ``len(values)`` bits, each mapping
    a byte to ``zero`` plus the values of its set bits in order.

    Values are ints with one bit each (a bit permutation) or 1-tuples
    (decoding); ``_read_mask`` adds up one entry per byte, ``_read_masks``
    does so for many masks at once.
    """
    tables = []
    for start in range(0, max(len(values), 1), 8):
        table = [zero]
        for value in values[start:start + 8]:
            table += [entry + value for entry in table]
        tables.append(table)
    return tables


@lru_cache(maxsize=None)
def _lex_masks(n):
    """Every mask over n bits, ordered as the sorted tuples of their set bits;
    cached by width (n <= 20 by ``_MAX_CONFIGS``) and shared, so read-only."""
    order = [0]
    for bit in reversed(range(n)):
        order = [0] + [(1 << bit) | mask for mask in order] + order[1:]
    return array("I", order)


def _read_mask(tables, mask):
    value = tables[0][mask & 255]
    for table in tables[1:]:
        mask >>= 8
        value += table[mask & 255]
    return value


def _read_masks(tables, masks):
    """``_read_mask`` of each mask of the sequence ``masks``, in order, as
    one lazy chain of ``map``s, a pass over ``masks`` per byte.  The masks
    fit the tables, so their top byte needs no ``& 255``."""
    values = None
    for k, table in enumerate(tables):
        byte = map((8 * k).__rrshift__, masks) if k else masks
        if k < len(tables) - 1:
            byte = map((255).__and__, byte)
        read = map(table.__getitem__, byte)
        values = map(operator.add, values, read) if k else read
    return values


def _mark_orbit(mask, moves, seen):
    """Add the orbit of ``mask`` under the bit permutations ``moves``, each
    as ``_byte_tables``, to the set ``seen``."""
    seen.add(mask)
    frontier = [mask]
    while frontier:
        current = frontier.pop()
        for tables in moves:
            moved = _read_mask(tables, current)
            if moved not in seen:
                seen.add(moved)
                frontier.append(moved)


# ---------------------------------------------------------------------------
# small GF(q) helpers, q prime


def _rref(rows, q):
    """Reduced row echelon form over GF(q), q prime; returns (rows, pivot
    columns), both tuples, and stops once every row has a pivot."""
    mat = [list(r) for r in rows]
    pivots = []
    row = 0
    width = len(mat[0]) if mat else 0
    for col in range(width):
        pivot = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = pow(mat[row][col], q - 2, q)
        mat[row] = [(x * inv) % q for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                c = mat[r][col]
                mat[r] = [(a - c * b) % q for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    reduced = tuple(tuple(r) for r in mat[:row])
    return reduced, tuple(pivots)


def _span(rows, q, width):
    """Each vector of the span of ``rows``, vectors of length ``width`` over
    GF(q), mapped to its coordinates over the rows that enlarge the span, in
    order: the greedy basis."""
    span = {(0,) * width: ()}
    for row in rows:
        if row not in span:
            span = {tuple((a + c * b) % q for a, b in zip(v, row)): x + (c,)
                    for v, x in span.items() for c in range(q)}
    return span


def _gaussian_binomial(n, k, q):
    """The number of k-dimensional subspaces of GF(q)^n."""
    if k > n:
        return 0
    return (math.prod(q ** (n - i) - 1 for i in range(k))
            // math.prod(q ** (i + 1) - 1 for i in range(k)))


def _lex_index(coords, q):
    idx = 0
    for c in coords:
        idx = idx * q + c
    return idx


def _lex_vector(idx, q, dim):
    coords = []
    for _ in range(dim):
        coords.append(idx % q)
        idx //= q
    return tuple(reversed(coords))


# ---------------------------------------------------------------------------
# set partitions


def set_partitions(n):
    """Yield partitions of range(n) as block tuples ordered by least element:
    each partition of range(n - 1) with n - 1 added to one of its blocks or
    as a block of its own.  Public API, pinned by the original tests."""
    if n == 0:
        yield ()
        return
    for blocks in set_partitions(n - 1):
        for i in range(len(blocks)):
            yield blocks[:i] + (blocks[i] + (n - 1,),) + blocks[i + 1:]
        yield blocks + ((n - 1,),)


_MAX_CONFIGS = 2_000_000


class FraisseClass:
    """Shared behavior for one amalgamation class; subclasses fill in payloads."""

    id = ""
    relational = True
    atomic = False
    max_tuple_len = 8
    num_fixed_elements = 0

    # -- construction and checking

    def make(self, points, data):
        s = FinStructure(self.id, tuple(points), data)
        self.validate(s)
        return s

    def empty(self):
        return self.make((), self._empty_data())

    def validate(self, s):
        if s.cls != self.id:
            raise MalformedStructure(f"structure tagged {s.cls!r}, expected {self.id!r}")
        if len(set(s.points)) != len(s.points):
            raise MalformedStructure("duplicate point names")
        self._validate_data(s)

    def is_member(self, s):
        try:
            self.validate(s)
        except MalformedStructure:
            return False
        return self._is_closed(s)

    def size(self, s):
        """Size in the class's own units (points, dimension, or atoms)."""
        return len(s.points)

    # -- substructures and closure

    def induced(self, s, positions):
        """The substructure of ``s`` on ``positions``.  Public API, pinned
        by the original tests."""
        positions = tuple(sorted(set(positions)))
        for p in positions:
            if not 0 <= p < len(s.points):
                raise MalformedStructure(f"position {p} out of range")
        points = tuple(s.points[p] for p in positions)
        return FinStructure(self.id, points, self._restrict_data(s, positions))

    def acl(self, s, positions):
        """Positions of the closure of ``positions`` inside the member ``s``:
        the positions themselves for relational classes, their span for
        vector spaces, and the unions of their blocks for Boolean algebras.
        Public API, pinned by the original tests."""
        if not self.is_member(s):
            raise MalformedStructure("acl needs a class member")
        positions = tuple(sorted(set(positions)))
        for p in positions:
            if not 0 <= p < len(s.points):
                raise MalformedStructure(f"position {p} out of range")
        return self._close(s, positions)

    def is_fixed_only(self, s):
        """Whether ``s`` has points and all are fixed; stops at the first
        moving point."""
        return len(s.points) > 0 and all(map(self._fixes(s), range(len(s.points))))

    def _fixes(self, s):
        """The test of a position of ``s`` for a fixed point."""
        return lambda p: False

    # -- canonical forms

    def canonical(self, s):
        """Return ``(canon, relabel)`` with ``relabel[i]`` the new position of ``i``."""
        self.validate(s)
        return self._canonical(s)[:2]

    def canonical_code(self, s):
        canon, _ = self.canonical(s)
        return self._code_of_canonical(canon)

    def automorphisms(self, s):
        """Automorphism group of ``s`` as permutations of its positions: the
        generators of Aut(canon) that ``_canonical`` gives, moved back."""
        self.validate(s)
        _, rel, gens = self._canonical(s)
        rel_inv = inverse(rel)
        return PermGroup(len(s.points),
                         [compose(rel_inv, compose(g, rel)) for g in gens])

    # -- enumeration

    def enumerate_class(self, k):
        """One canonical representative per isomorphism class of size <= k."""
        return [rep for rep, _ in self._enumerate(k)]

    def _enumerate(self, k):
        """(canonical representative, generators of its automorphism group)
        per isomorphism class of size <= k, by size and code."""
        if k < 0:
            raise MalformedStructure(f"size bound {k} is negative")
        pairs = [(self.empty(), [])] + self._enumerate_nonempty(k)
        pairs.sort(key=lambda pair: (self.size(pair[0]),
                                     self._code_of_canonical(pair[0])))
        return pairs

    def enumerate_tuple_types(self, n):
        """Orbits of n-tuples as :class:`TupleType`; only the relational
        classes, which have no fixed elements, list them.  Public API,
        pinned by the original tests."""
        self._check_tuple_len(n)
        return self._tuple_types(n)

    def max_aut_order(self, n):
        """The largest order of Aut(B) over members B of size at most n, or
        None when the class's character tables do not grow with Aut(B)."""
        return None

    def _check_tuple_len(self, n):
        if n < 0:
            raise MalformedStructure("tuple length must be nonnegative")
        if n > self.max_tuple_len:
            raise SizeLimitExceeded(
                f"tuple length {n} beyond desk scale for {self.id}")

    def tuple_hulls(self, n, x0_only=False):
        """Closed hulls of the orbits of n-tuples, optionally dropping tuples
        touching fixed elements.

        Returns a dict mapping canonical code to ``(hull, count)``: the
        canonical hull and the number of orbits whose hull it is.  Raises
        ``MalformedStructure`` for n < 0 and ``SizeLimitExceeded`` above
        ``max_tuple_len``.
        """
        raise NotImplementedError

    # -- hooks

    def _empty_data(self):
        raise NotImplementedError

    def _validate_data(self, s):
        raise NotImplementedError

    def _is_closed(self, s):
        return True

    def _restrict_data(self, s, positions):
        raise NotImplementedError

    def _close(self, s, positions):
        return positions

    def _canonical(self, s):
        """``(canon, relabel, gens)``: ``canonical`` and generators of
        Aut(canon) as permutations of its positions."""
        raise NotImplementedError

    def _code_of_canonical(self, canon):
        raise NotImplementedError

    def _enumerate_nonempty(self, k):
        """``_enumerate``'s pairs but the empty structure's, in any order."""
        raise NotImplementedError

    def _tuple_types(self, n):
        raise NotImplementedError

    def _data_to_json(self, data):
        raise NotImplementedError

    # -- double cosets and tuple hulls

    def joint_configs(self, base_b, base_c):
        """Every way a copy of ``base_c`` can sit relative to ``base_b``."""
        raise NotImplementedError

    def config_cells(self, base_b, base_c):
        """``(cells, mask_of)``: the cells ``(tag, x, y)`` a joint
        configuration can occupy, and a function from a configuration to its
        cell mask, bit k standing for ``cells[k]``.

        The masks are injective on ``joint_configs`` and their set is closed
        under the cell permutations of every pair of automorphisms.  By
        default a configuration is ``(kind, pairs)``: a set of pairs (x, y)
        with tag 0, x counting ``size(base_b)`` and y ``size(base_c)``.
        """
        nc = self.size(base_c)
        cells = [(0, x, y) for x in range(self.size(base_b))
                 for y in range(nc)]

        def mask_of(config):
            return sum(1 << (x * nc + y) for x, y in config[1])

        return cells, mask_of

    def cell_group(self, group, base):
        """``group`` <= Aut(base) as it permutes the cell coordinates, x of
        the cells (tag, x, y) for the first base and y for the second; these
        are also the points of the base's character table."""
        return group

    def config_finiteness(self, payload, base_b, base_c):
        """(left, right): the ``base_c`` copy lies in the hull of the other, and back."""
        raise NotImplementedError

    def double_coset_reps(self, base_b, group_b, base_c, group_c):
        """The least member of each orbit of ``group_b`` x ``group_c`` on the
        joint configurations of the two bases, sorted.

        Each reduced generator permutes the cells of ``config_cells`` and so
        acts on cell masks through byte tables.  The configurations are
        visited in sorted order and the orbit of each new one's mask is
        closed and marked, so the first configuration met in an orbit is its
        least.  Where neither group has a reduced generator, each
        configuration is its own orbit and no cell or mask is built.
        """
        configs = sorted(self.joint_configs(base_b, base_c))
        if not (group_b.reduced_generators or group_c.reduced_generators):
            return configs
        cells, mask_of = self.config_cells(base_b, base_c)
        index = {cell: k for k, cell in enumerate(cells)}
        moves = [_byte_tables([1 << index[t, p[x], y] for t, x, y in cells], 0)
                 for p in self.cell_group(group_b, base_b).reduced_generators]
        moves += [_byte_tables([1 << index[t, x, p[y]] for t, x, y in cells], 0)
                  for p in self.cell_group(group_c, base_c).reduced_generators]
        seen = set()
        reps = []
        for config in configs:
            mask = mask_of(config)
            if mask in seen:
                continue
            _mark_orbit(mask, moves, seen)
            reps.append(config)
        return reps


# ---------------------------------------------------------------------------
# relational classes


class _RelationalClass(FraisseClass):
    """Relational classes: bases are glued along a partial matching.

    The configuration hooks here are the pure-set ones, a bare matching;
    graphs extend them with the cross edges between unmatched points.
    """

    @staticmethod
    def _matchings(nB, nC):
        for t in range(min(nB, nC) + 1):
            for bsub in itertools.combinations(range(nB), t):
                for cimg in itertools.permutations(range(nC), t):
                    yield tuple(sorted(zip(bsub, cimg)))

    def joint_configs(self, base_b, base_c):
        return [("match", m) for m in self._matchings(len(base_b), len(base_c))]

    def config_finiteness(self, payload, base_b, base_c):
        # a matching's pairs have distinct ends on both sides
        matched = len(payload[1])
        return matched == len(base_c.points), matched == len(base_b.points)

    def _tuple_types(self, n):
        types = []
        for blocks in set_partitions(n):
            for core in self._block_cores(len(blocks)):
                types.append(TupleType(self.id, n, (blocks, core)))
        return types

    def _block_cores(self, k):
        """All payloads the class allows on k labeled points."""
        raise NotImplementedError

    def max_aut_order(self, n):
        # a set of n points, or the empty graph on them
        return math.factorial(n)

    def tuple_hulls(self, n, x0_only=False):
        # The hull of a tuple is the structure on its entries, and Aut(B)
        # acts freely on the S(n, k) k! maps of the coordinates onto the k
        # points of B, so B is the hull of S(n, k) k! / |Aut(B)| orbits.
        # No entry is a fixed element.
        self._check_tuple_len(n)
        stirling = Counter(len(blocks) for blocks in set_partitions(n))
        hulls = {}
        for hull, gens in self._enumerate(n):
            k = len(hull)
            if k in stirling:
                aut = PermGroup(k, gens).order
                hulls[self._code_of_canonical(hull)] = (
                    hull, stirling[k] * math.factorial(k) // aut)
        return hulls


class PureSetClass(_RelationalClass):
    id = "pure_set"

    def _empty_data(self):
        return None

    def _validate_data(self, s):
        if s.data is not None:
            raise MalformedStructure("pure sets carry no relation payload")

    def _restrict_data(self, s, positions):
        return None

    def _canonical(self, s):
        n = len(s.points)
        points = tuple(range(n))
        return FinStructure(self.id, points, None), points, symmetric_gens(n)

    def _code_of_canonical(self, canon):
        return _digest(self.id, len(canon.points))

    def _enumerate_nonempty(self, k):
        return [(FinStructure(self.id, tuple(range(n)), None),
                 symmetric_gens(n)) for n in range(1, k + 1)]

    def _block_cores(self, k):
        return [None]

    def _data_to_json(self, data):
        return {}


class LinearOrderClass(_RelationalClass):
    id = "linear_order"

    def _empty_data(self):
        return ()

    def _validate_data(self, s):
        ranks = s.data
        n = len(s.points)
        if not isinstance(ranks, tuple) or sorted(ranks) != list(range(n)):
            raise MalformedStructure("ranks must be a permutation of range(n)")

    def _restrict_data(self, s, positions):
        sub = [s.data[p] for p in positions]
        order = sorted(range(len(sub)), key=lambda i: sub[i])
        ranks = [0] * len(sub)
        for r, i in enumerate(order):
            ranks[i] = r
        return tuple(ranks)

    def _canonical(self, s):
        n = len(s.points)
        canon = FinStructure(self.id, tuple(range(n)), tuple(range(n)))
        return canon, tuple(s.data), []

    def _code_of_canonical(self, canon):
        return _digest(self.id, len(canon.points))

    def _enumerate_nonempty(self, k):
        return [(FinStructure(self.id, tuple(range(n)), tuple(range(n))), [])
                for n in range(1, k + 1)]

    def _block_cores(self, k):
        return [tuple(p) for p in itertools.permutations(range(k))]

    def max_aut_order(self, n):
        return 1

    def _data_to_json(self, data):
        return {"ranks": list(data)}

    def joint_configs(self, base_b, base_c):
        # the two chains merged into n ranks, matched points sharing one;
        # chains are rigid, so each is its own double coset
        nB, nC = len(base_b), len(base_c)
        return [("ranks", rb, rc)
                for n in range(max(nB, nC), nB + nC + 1)
                for rb in itertools.combinations(range(n), nB)
                for rc in itertools.combinations(range(n), nC)
                if len(set(rb + rc)) == n]

    def config_finiteness(self, payload, base_b, base_c):
        rb, rc = set(payload[1]), set(payload[2])
        return rc <= rb, rb <= rc


class GraphClass(_RelationalClass):
    id = "graph"

    def _empty_data(self):
        return frozenset()

    def _validate_data(self, s):
        n = len(s.points)
        edges = s.data
        if not isinstance(edges, frozenset):
            raise MalformedStructure("edges must be a frozenset")
        for e in edges:
            if not isinstance(e, frozenset) or len(e) != 2:
                raise MalformedStructure("each edge joins two distinct positions")
            if not all(isinstance(v, int) and 0 <= v < n for v in e):
                raise MalformedStructure("edge endpoint out of range")

    def _restrict_data(self, s, positions):
        index = {p: i for i, p in enumerate(positions)}
        kept = set(positions)
        return frozenset(
            frozenset(index[v] for v in e) for e in s.data if e <= kept)

    # The canonical form minimizes the adjacency bit code over all orders
    # compatible with the stable degree refinement.  The refinement is an
    # isomorphism invariant, so two graphs get the same minimum exactly when
    # they are isomorphic, and the orders achieving the minimum are the
    # first one moved by each automorphism.  Of those automorphisms only the
    # ones that enlarge the group of the ones kept before them are kept as
    # generators, at most log2 |Aut|, so one search gives the canonical form
    # and its group.  Enumeration is by orbit-pruned augmentation: each
    # graph on n - 1 points gets a last point joined to the least subset of
    # each orbit of its automorphisms on subsets, and duplicates are dropped
    # by integer code before any graph is built; the search that meets a
    # code first gives that code's generators.

    def _adjacency(self, s):
        n = len(s.points)
        adj = [0] * n
        for e in s.data:
            a, b = tuple(e)
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return adj

    def _stable_cells(self, n, adj):
        colors = [bin(adj[i]).count("1") for i in range(n)]
        while True:
            keys = []
            for i in range(n):
                neigh = tuple(sorted(colors[j] for j in range(n) if adj[i] >> j & 1))
                keys.append((colors[i], neigh))
            ranking = {k: r for r, k in enumerate(sorted(set(keys)))}
            fresh = [ranking[k] for k in keys]
            if fresh == colors:
                break
            colors = fresh
        cells = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        return [tuple(cells[c]) for c in sorted(cells)]

    def _search(self, adj):
        """(least code, the orders reaching it in lexicographic order) of the
        graph with adjacency rows ``adj``."""
        n = len(adj)
        cells = self._stable_cells(n, adj)
        best_code = None
        best_orders = []
        for pieces in itertools.product(*[itertools.permutations(c) for c in cells]):
            order = tuple(itertools.chain.from_iterable(pieces))
            code = 0
            bit = 0
            for i in range(n):
                for j in range(i + 1, n):
                    if adj[order[i]] >> order[j] & 1:
                        code |= 1 << bit
                    bit += 1
            if best_code is None or code < best_code:
                best_code = code
                best_orders = [order]
            elif code == best_code:
                best_orders.append(order)
        return best_code or 0, best_orders

    def _canonical(self, s):
        code, orders = self._search(self._adjacency(s))
        return (self._from_code(len(s.points), code), inverse(orders[0]),
                self._aut_gens(orders))

    def _from_code(self, n, code):
        """The canonical graph on n points with least code ``code``."""
        pairs = itertools.combinations(range(n), 2)
        return FinStructure(self.id, tuple(range(n)), frozenset(
            frozenset(p) for bit, p in enumerate(pairs) if code >> bit & 1))

    def _code_of_canonical(self, canon):
        pairs = sorted(tuple(sorted(e)) for e in canon.data)
        return _digest(self.id, len(canon.points), pairs)

    @staticmethod
    def _aut_gens(orders):
        """Generators of the automorphism group of the canonical form, from
        the orders of a ``_search``, in canonical positions.

        Each order reaching the least code is g(base) for one automorphism
        g, base being the first, and inverse(base) g base, which is
        inverse(base) other, is g in canonical positions.  The orders are
        sorted, so the g that fix base[:i] and move base[i] form one block,
        right after the stabilizer S of base[:i + 1], whose order is the
        block's start.  The group H of the g before a block member holds S
        and fixes base[:i], so it holds the member iff the member maps i,
        in canonical positions, into the orbit of i under H.  The g outside
        H are kept and generate H, which is Aut once |S| |orbit| is |Aut|.
        """
        base = orders[0]
        base_inv = inverse(base)
        gens, level = [], None
        for index, other in enumerate(orders[1:], 1):
            i = next(k for k, x in enumerate(other) if x != base[k])
            if i != level:
                level, start, orbit = i, index, [i]
            if base_inv[other[i]] not in orbit:
                gens.append(compose(base_inv, other))
                orbit = [i]
                for x in orbit:
                    orbit += {g[x] for g in gens} - set(orbit)
                if start * len(orbit) == len(orders):
                    break
        return gens

    def _enumerate_nonempty(self, k):
        # subsets in one orbit of Aut(prev) give isomorphic graphs, and no
        # graph is searched twice: a parent's generators come from the
        # search that met its code first
        pairs = []
        level = [(self.empty(), [])]
        for n in range(1, k + 1):
            found = {}
            for prev, gens in level:
                adj = self._adjacency(prev)
                moves = [_byte_tables([1 << v for v in g], 0) for g in gens]
                done = set()
                for mask in range(1 << (n - 1)):
                    if mask in done:
                        continue
                    _mark_orbit(mask, moves, done)
                    code, orders = self._search(
                        [row | (mask >> v & 1) << (n - 1)
                         for v, row in enumerate(adj)] + [mask])
                    if code not in found:
                        found[code] = self._aut_gens(orders)
            level = [(self._from_code(n, code), found[code])
                     for code in sorted(found)]
            pairs.extend(level)
        return pairs

    def _block_cores(self, k):
        pairs = list(itertools.combinations(range(k), 2))
        cores = []
        for mask in range(1 << len(pairs)):
            cores.append(frozenset(
                frozenset(pairs[i]) for i in range(len(pairs)) if mask >> i & 1))
        return cores

    def _data_to_json(self, data):
        return {"edges": sorted(sorted(e) for e in data)}

    # A configuration is ("cross", matching, cross): an edge-compatible
    # matching plus the cross edges among the sorted pairs of unmatched
    # points.  Bit i of a cross mask stands for pair i.

    @staticmethod
    @lru_cache(maxsize=32)
    def _layouts(base_b, base_c):
        """Per edge-compatible matching, in sorted order: (matching, cross
        pairs, decode tables, every cross mask in the order of the decoded
        tuples)."""
        eb, ec = base_b.data, base_c.data
        nB, nC = len(base_b), len(base_c)
        layouts = []
        for matching in sorted(_RelationalClass._matchings(nB, nC)):
            if any((frozenset((i1, i2)) in eb) != (frozenset((j1, j2)) in ec)
                   for (i1, j1), (i2, j2)
                   in itertools.combinations(matching, 2)):
                continue
            free_b = [i for i in range(nB) if i not in {m[0] for m in matching}]
            free_c = [j for j in range(nC) if j not in {m[1] for m in matching}]
            cross_pairs = tuple((b, c) for b in free_b for c in free_c)
            n = len(cross_pairs)
            if 1 << n > _MAX_CONFIGS:
                raise SizeLimitExceeded(
                    "too many joint configurations; shrink the bases")
            decode = _byte_tables([(p,) for p in cross_pairs], ())
            layouts.append((matching, cross_pairs, decode, _lex_masks(n)))
        return tuple(layouts)

    def joint_configs(self, base_b, base_c):
        return [("cross", matching, cross)
                for matching, cross_pairs, decode, _
                in self._layouts(base_b, base_c)
                for cross in _read_masks(decode, range(1 << len(cross_pairs)))]

    def double_coset_reps(self, base_b, group_b, base_c, group_c):
        """Orbit minima in two stages, without acting on whole configurations.

        The least configurations of an orbit carry the least matching m0 of
        its orbit under K_B x K_C, so stage one visits matchings in sorted
        order and takes the stabilizer of each new one.  Stage two visits
        the cross masks over m0's pairs in the order of their decoded
        tuples, so the first mask met in an orbit of the stabilizer is its
        witness, and marks its images under the stabilizer, each element
        acting on masks through byte tables.  Each mask is visited once, so
        the elements that fix every cross mask, the identity among them,
        mark nothing and are left out.  The witnesses come out sorted.

        They are returned packed (``_CrossWitnesses``): per matching, the
        witness masks as an ``array("I")``, decoded only when read.  Where
        no element is left to mark, every mask is a witness and the cached
        lex ``order`` array itself is kept.
        """
        kk = [(g1, g2) for g1 in group_b.elements()
              for g2 in group_c.elements()]
        seen = set()
        blocks = []
        for matching, cross_pairs, decode, order in self._layouts(
                base_b, base_c):
            if matching in seen:
                continue
            index = {pair: i for i, pair in enumerate(cross_pairs)}
            moves = set()
            for g1, g2 in kk:
                image = _relabel(matching, g1, g2)
                seen.add(image)
                if image == matching:
                    moves.add(tuple(1 << index[g1[b], g2[c]]
                                    for b, c in cross_pairs))
            moves.discard(tuple(1 << i for i in range(len(cross_pairs))))
            if not moves:
                # the stabilizer fixes every cross mask: all are witnesses
                blocks.append((matching, decode, order))
                continue
            # cross masks fit in three bytes (_MAX_CONFIGS), read inline
            moves = [[_byte_tables(bits[start:start + 8], 0)[0]
                      for start in (0, 8, 16)] for bits in moves]
            done = bytearray(1 << len(cross_pairs))
            masks = array("I")
            for mask in order:
                if done[mask]:
                    continue
                for low, mid, high in moves:
                    done[low[mask & 255] + mid[mask >> 8 & 255]
                         + high[mask >> 16]] = 1
                masks.append(mask)
            blocks.append((matching, decode, masks))
        return _CrossWitnesses(blocks)


class _CrossWitnesses(Sequence):
    """Graph double-coset witnesses, held packed and decoded on read.

    ``blocks`` lists, per witnessed matching in sorted order, ``(matching,
    decode tables, cross masks)``: the masks of its witnesses as an
    ``array("I")``, in the order of their decoded tuples.  Indexing and
    iteration decode ``("cross", matching, cross)`` with the tables
    ``GraphClass._layouts`` caches, so a witness costs four bytes and is
    decoded afresh each time it is read; iteration decodes a block at a
    time (``_read_masks``).  Equal to a list or tuple of the same witnesses
    in order.
    """

    def __init__(self, blocks):
        self._blocks = blocks
        self._starts = list(itertools.accumulate(
            (len(masks) for _, _, masks in blocks), initial=0))

    def __len__(self):
        return self._starts[-1]

    def __getitem__(self, i):
        k = range(len(self))[i]  # a negative i counts from the end
        b = bisect.bisect_right(self._starts, k) - 1
        matching, decode, masks = self._blocks[b]
        return ("cross", matching,
                _read_mask(decode, masks[k - self._starts[b]]))

    def __iter__(self):
        return itertools.chain.from_iterable(
            zip(itertools.repeat("cross"), itertools.repeat(matching),
                _read_masks(decode, masks))
            for matching, decode, masks in self._blocks)

    def runs(self):
        """(first witness, number of witnesses) per matching, decoding one
        mask each: graph ``config_finiteness`` reads only the matching."""
        for matching, decode, masks in self._blocks:
            yield ("cross", matching, _read_mask(decode, masks[0])), len(masks)

    def __eq__(self, other):
        if not isinstance(other, (list, tuple, _CrossWitnesses)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self):
        return hash(tuple(self))


# ---------------------------------------------------------------------------
# vector spaces over GF(q)


class VectorSpaceClass(FraisseClass):
    relational = False
    num_fixed_elements = 1

    def __init__(self, q, class_id):
        self.q = q
        self.id = class_id

    def _empty_data(self):
        return (self.q, ())

    def _validate_data(self, s):
        if not (isinstance(s.data, tuple) and len(s.data) == 2):
            raise MalformedStructure("payload must be (q, vectors)")
        q, vectors = s.data
        if q != self.q:
            raise MalformedStructure(f"field size {q}, expected {self.q}")
        if len(vectors) != len(s.points):
            raise MalformedStructure("one coordinate vector per point")
        if len(set(vectors)) != len(vectors):
            raise MalformedStructure("coordinate vectors must be distinct")
        widths = {len(v) for v in vectors}
        if len(widths) > 1:
            raise MalformedStructure("vectors must share an ambient dimension")
        for v in vectors:
            if not all(isinstance(x, int) and 0 <= x < q for x in v):
                raise MalformedStructure("entries must lie in range(q)")

    def _is_closed(self, s):
        # distinct vectors, all in their span of q**rank vectors
        _, vectors = s.data
        return not vectors or len(vectors) == self.q ** self.size(s)

    def size(self, s):
        _, vectors = s.data
        rows, _ = _rref(vectors, self.q)
        return len(rows)

    def _restrict_data(self, s, positions):
        _, vectors = s.data
        return (self.q, tuple(vectors[p] for p in positions))

    def _close(self, s, positions):
        _, vectors = s.data
        if not positions:
            return ()
        lookup = {v: i for i, v in enumerate(vectors)}
        span = _span([vectors[p] for p in positions], self.q, len(vectors[0]))
        return tuple(sorted(lookup[v] for v in span))

    def _fixes(self, s):
        _, vectors = s.data
        return lambda p: not any(vectors[p])

    def _canonical(self, s):
        if not self._is_closed(s):
            raise MalformedStructure("canonical form needs a closed structure")
        _, vectors = s.data
        if not vectors:
            return self.empty(), (), []
        coords = _span(sorted(vectors), self.q, len(vectors[0]))
        rel = tuple(_lex_index(coords[v], self.q) for v in vectors)
        dim = len(coords[vectors[0]])
        return self.canonical_space(dim), rel, self._space_gens(dim)

    def canonical_space(self, dim):
        vectors = tuple(_lex_vector(i, self.q, dim) for i in range(self.q ** dim))
        return FinStructure(self.id, tuple(range(self.q ** dim)), (self.q, vectors))

    def _code_of_canonical(self, canon):
        return _digest(self.id, self.size(canon), len(canon.points))

    def _space_gens(self, dim):
        """Generators of GL(dim, q) as permutations of the canonical space."""
        return [self._matrix_perm(m, dim) for m in self._matrix_gens(dim)]

    def _matrix_gens(self, dim):
        """Two matrices generating GL(dim, q), q prime: the transvection
        I + E_01 and the dim-cycle e_k -> e_{k+1} (indices mod dim) with
        row 0 scaled by (q - 1)(-1)^(dim - 1), so of determinant q - 1.

        Conjugating I + E_01 by powers of the cycle gives the transvections
        I + cE_{k,k+1}, c != 0, and their powers every multiple, q being
        prime.  For dim >= 3 the commutators [I + aE_ij, I + bE_jk] =
        I + abE_ik give every elementary transvection, and these generate
        SL(dim, q) (Taylor, *The Geometry of the Classical Groups*, 1992);
        for dim = 2, I + E_01 and I + cE_10 generate SL(2, q).  q - 1
        generates GF(q)^* for q in {2, 3}, so the cycle's determinant
        takes SL to GL.  Dimension 0 has no generator, nor has dimension 1
        over GF(2)."""
        if dim < 2:
            return [[[self.q - 1]]] if dim and self.q > 2 else []
        cycle = [[int(r == (c + 1) % dim) for c in range(dim)]
                 for r in range(dim)]
        cycle[0][dim - 1] = (self.q - 1) * (-1) ** (dim - 1) % self.q
        transvection = [[int(r == c) for c in range(dim)] for r in range(dim)]
        transvection[0][1] = 1
        return [transvection, cycle]

    def _matrix_perm(self, m, dim):
        images = []
        for idx in range(self.q ** dim):
            v = _lex_vector(idx, self.q, dim)
            mv = tuple(sum(m[r][c] * v[c] for c in range(dim)) % self.q
                       for r in range(dim))
            images.append(_lex_index(mv, self.q))
        return tuple(images)

    def _enumerate_nonempty(self, k):
        return [(self.canonical_space(d), self._space_gens(d))
                for d in range(k + 1)]

    def max_aut_order(self, n):
        # |GL(n, q)|, the group of the space of dimension n
        return math.prod(self.q ** n - self.q ** i for i in range(n))

    def tuple_hulls(self, n, x0_only=False):
        # The entries of a tuple whose relation space has rank r span a
        # space of dimension d = n - r, so [n, d]_q orbits (Gaussian
        # binomials) have a hull of dimension d.  With x0_only,
        # inclusion-exclusion runs over the s entries that are zero: the
        # relation spaces holding s given unit vectors number [n - s, d]_q,
        # as subspaces of the quotient by them.  A d with no orbit is left
        # out.
        self._check_tuple_len(n)
        hulls = {}
        for d in range(n + 1):
            count = sum((-1) ** s * math.comb(n, s)
                        * _gaussian_binomial(n - s, d, self.q)
                        for s in range(n + 1 if x0_only else 1))
            if count:
                hull = self.canonical_space(d)
                hulls[self._code_of_canonical(hull)] = (hull, count)
        return hulls

    def _data_to_json(self, data):
        q, vectors = data
        return {"q": q, "vectors": [list(v) for v in vectors]}

    def joint_configs(self, base_b, base_c):
        return self._joint_configs(self.q, self.size(base_b),
                                   self.size(base_c))

    @staticmethod
    @lru_cache(maxsize=32)
    def _joint_configs(q, dB, dC):
        """The relation spaces of GF(q)^(dB + dC) whose rows stay independent
        on either half, built once per pair of dimensions: each reduced left
        half of rank r beside each right half of rank r.  Every pivot lies
        on the left, so the rows are already in reduced echelon form."""
        vectors = list(itertools.product(range(q), repeat=dC))
        return tuple(("space", tuple(a + b for a, b in zip(left, right)))
                     for left in _relation_spaces(dB, q)
                     for right in itertools.product(vectors, repeat=len(left))
                     if len(_rref(right, q)[0]) == len(left))

    def config_cells(self, base_b, base_c):
        # a configuration is the set of its subspace's vectors (x, y) of
        # V_B + V_C, each half a point of its canonical space
        q, dB, dC = self.q, self.size(base_b), self.size(base_c)
        cells = [(0, x, y) for x in range(q ** dB) for y in range(q ** dC)]

        def mask_of(config):
            return sum(1 << _lex_index(v, q) for v in _span(config[1], q, dB + dC))

        return cells, mask_of

    def config_finiteness(self, payload, base_b, base_c):
        rows = payload[1]
        dB = self.size(base_b)
        rank_left = len(_rref([r[:dB] for r in rows], self.q)[0])
        rank_right = len(_rref([r[dB:] for r in rows], self.q)[0])
        return rank_right == self.size(base_c), rank_left == dB


def _relation_spaces(n, q):
    """All subspaces of GF(q)^n in reduced row echelon form."""
    spaces = []
    for r in range(n + 1):
        for pivots in itertools.combinations(range(n), r):
            free = [(i, c)
                    for i, p in enumerate(pivots)
                    for c in range(p + 1, n) if c not in pivots]
            for values in itertools.product(range(q), repeat=len(free)):
                rows = [[0] * n for _ in range(r)]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, c), val in zip(free, values):
                    rows[i][c] = val
                spaces.append(tuple(tuple(row) for row in rows))
    return spaces


# ---------------------------------------------------------------------------
# Boolean algebras


class BooleanAlgebraClass(FraisseClass):
    id = "boolean_algebra"
    relational = False
    atomic = True
    max_tuple_len = 4
    num_fixed_elements = 2

    def code_for_atoms(self, n_atoms):
        """Canonical code of the full algebra on n_atoms atoms."""
        return _digest(self.id, n_atoms)

    def _empty_data(self):
        return (0, ())

    def _validate_data(self, s):
        if not (isinstance(s.data, tuple) and len(s.data) == 2):
            raise MalformedStructure("payload must be (n_atoms, masks)")
        n_atoms, masks = s.data
        if not isinstance(n_atoms, int) or n_atoms < 0:
            raise MalformedStructure("atom count must be a nonnegative integer")
        if len(masks) != len(s.points):
            raise MalformedStructure("one mask per point")
        if len(set(masks)) != len(masks):
            raise MalformedStructure("masks must be distinct")
        for m in masks:
            if not isinstance(m, int) or not 0 <= m < (1 << n_atoms):
                raise MalformedStructure("mask out of range for the ambient atoms")

    def _is_closed(self, s):
        # distinct masks, all among the 2**blocks unions of blocks; on no
        # atoms the top is the bottom, and no nonempty set is closed
        n_atoms, masks = s.data
        if not masks:
            return True
        blocks = self._blocks(masks, (1 << n_atoms) - 1)
        return n_atoms > 0 and len(masks) == 1 << len(blocks)

    def size(self, s):
        n_atoms, masks = s.data
        if not masks:
            return 0
        if len(masks) == 1 << n_atoms:
            # distinct masks in range: every one of them
            return n_atoms
        return len(self._blocks(masks, (1 << n_atoms) - 1))

    @staticmethod
    def _blocks(masks, full):
        """The atoms of the subalgebra of ``full`` that ``masks`` generate:
        the top cut by each mask and its complement."""
        blocks = [full]
        for m in masks:
            blocks = [part for b in blocks for part in (b & m, b & ~m) if part]
        return blocks

    def _restrict_data(self, s, positions):
        n_atoms, masks = s.data
        return (n_atoms, tuple(masks[p] for p in positions))

    def _close(self, s, positions):
        n_atoms, masks = s.data
        if not positions:
            return ()
        lookup = {m: i for i, m in enumerate(masks)}
        unions = [0]
        for b in self._blocks([masks[p] for p in positions], (1 << n_atoms) - 1):
            unions += [u | b for u in unions]
        return tuple(sorted(lookup[u] for u in unions))

    def _fixes(self, s):
        n_atoms, masks = s.data
        fixed = (0, (1 << n_atoms) - 1)
        return lambda p: masks[p] in fixed

    def _canonical(self, s):
        if not self._is_closed(s):
            raise MalformedStructure("canonical form needs a closed structure")
        n_atoms, masks = s.data
        if not masks:
            return self.empty(), (), []
        # each mask is a union of atoms, so it holds those it meets
        atoms = sorted(self._blocks(masks, (1 << n_atoms) - 1))
        rel = tuple(sum(1 << k for k, atom in enumerate(atoms) if atom & m)
                    for m in masks)
        m = len(atoms)
        return self.canonical_algebra(m), rel, self._algebra_gens(m)

    def canonical_algebra(self, n_atoms):
        masks = tuple(range(1 << n_atoms)) if n_atoms else ()
        return FinStructure(self.id, masks, (n_atoms, masks))

    def _code_of_canonical(self, canon):
        return _digest(self.id, self.size(canon))

    def _algebra_gens(self, m):
        """Generators of the atom permutations, on the canonical algebra."""
        return [self.mask_perm(sigma, m) for sigma in symmetric_gens(m)]

    def _enumerate_nonempty(self, k):
        return [(self.canonical_algebra(m), self._algebra_gens(m))
                for m in range(1, k + 1)]

    def tuple_hulls(self, n, x0_only=False):
        # An orbit is a set of realized cells among the 2**n sign patterns,
        # the atoms of its hull.  With x0_only, inclusion-exclusion runs over
        # the s entries that are bottom or top (2 ways) in every such cell.
        self._check_tuple_len(n)
        counts = {m: sum((-2) ** s * math.comb(n, s) * math.comb(1 << (n - s), m)
                         for s in range(n + 1 if x0_only else 1))
                  for m in range(1, (1 << n) + 1)}
        return {self.code_for_atoms(m): (self.canonical_algebra(m), count)
                for m, count in counts.items() if count}

    def _data_to_json(self, data):
        n_atoms, masks = data
        return {"atoms": n_atoms, "masks": list(masks)}

    @staticmethod
    def mask_perm(sigma, m):
        """The automorphism of the canonical algebra on m atoms, as a
        permutation of its 2**m masks, that permutes the atoms by sigma."""
        return tuple(sum(1 << sigma[k] for k in range(m) if mask >> k & 1)
                     for mask in range(1 << m))

    @staticmethod
    def atom_perm(point_perm, m):
        """Convert an automorphism on the 2**m element masks to an atom permutation."""
        sigma = []
        for k in range(m):
            img = point_perm[1 << k]
            if img.bit_count() != 1:
                raise InvariantViolation("automorphism does not permute atoms")
            sigma.append(img.bit_length() - 1)
        return tuple(sigma)

    def joint_configs(self, base_b, base_c):
        m1 = self.size(base_b)
        m2 = self.size(base_c)
        if not (m1 and m2):
            # an empty copy has no atoms to cover or to be covered
            return [("cells", ())]
        if 1 << (m1 * m2) > _MAX_CONFIGS:
            raise SizeLimitExceeded(
                "too many joint configurations; shrink the bases")
        pairs = [(i, j) for i in range(m1) for j in range(m2)]
        configs = []
        for mask in range(1 << len(pairs)):
            chosen = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            rows = {i for i, _ in chosen}
            cols = {j for _, j in chosen}
            if len(rows) == m1 and len(cols) == m2:
                configs.append(("cells", tuple(sorted(chosen))))
        return configs

    def cell_group(self, group, base):
        m = self.size(base)
        atoms = PermGroup(m, [self.atom_perm(g, m)
                              for g in group.reduced_generators])
        if atoms.order != group.order:
            raise InvariantViolation("atom action lost part of the subgroup")
        return atoms

    def config_finiteness(self, payload, base_b, base_c):
        # left: every atom of the first copy meets one atom of the second;
        # with no cells one copy is empty and lies in the hull of the other
        cells = payload[1]
        if not cells:
            return not base_c.points, not base_b.points
        return (len({i for i, _ in cells}) == len(cells),
                len({j for _, j in cells}) == len(cells))


# ---------------------------------------------------------------------------
# registry and serialization

REGISTRY = {cls_obj.id: cls_obj for cls_obj in (
    PureSetClass(), LinearOrderClass(), GraphClass(),
    VectorSpaceClass(2, "vector_space"), VectorSpaceClass(3, "vector_space_q3"),
    BooleanAlgebraClass())}


def get_class(class_id):
    if class_id not in REGISTRY:
        raise MalformedStructure(f"unknown class {class_id!r}")
    return REGISTRY[class_id]


def structure_to_json(s):
    cls = get_class(s.cls)
    cls.validate(s)
    return {"class": s.cls, "points": list(s.points),
            "data": cls._data_to_json(s.data)}
