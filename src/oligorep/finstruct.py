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

Each class plugs in validation, membership, closure (``acl``), canonical
forms with relabeling maps, automorphism groups, and enumeration of both
structures and tuple types.  It also owns everything else that reads its
payload:

* ``joint_configs(base_b, base_c)``: the raw joint configurations of two
  bases, one tagged tuple each (``"match"``, ``"ranks"``, ``"cross"``,
  ``"space"`` or ``"cells"``);
* ``config_action(base_b, base_c)``: a function ``act(config, g1, g2)``
  remarking one configuration by automorphisms of the two bases (``None``
  for the identity);
* ``config_finiteness(payload, base_b, base_c)``: the pair (left, right)
  of whether the second copy lies in the hull of the first and back;
* ``stabilizer_is_trivial(base, marked)``: whether only the identity of
  ``Aut(base)`` fixes every marked position;
* ``_data_to_json`` / ``_data_from_json``: the ``data`` object of a
  structure document.

Boolean algebras set ``atomic``: the automorphism group of a base is the
symmetric group on its atoms.  Canonical codes are short lowercase hex
strings; two structures get the same code exactly when they are
isomorphic.  The empty structure is a member of every class and is its
own closure; for the linear-algebraic classes the closure of any nonempty
set contains the fixed elements (the zero vector, the top and bottom of an
algebra).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from .errors import InvariantViolation, MalformedStructure, SizeLimitExceeded
from .permgrp import PermGroup, compose, inverse

__all__ = [
    "FinStructure",
    "TupleType",
    "FraisseClass",
    "REGISTRY",
    "get_class",
    "empty_structure",
    "structure_to_json",
    "structure_from_json",
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
    """Orbit of an n-tuple, described by a canonical marked payload.

    For the relational classes the payload is ``(blocks, core)`` where
    ``blocks`` partitions the coordinates (ordered by least element) and
    ``core`` is the induced structure on the blocks.  For vector spaces it
    is the reduced row echelon form of the space of linear relations among
    the entries.  For Boolean algebras it is the bitmask of realized sign
    patterns (cells).  Equal payloads mean equal orbits, so dataclass
    equality is orbit equality.
    """

    cls: str
    n: int
    data: object


def _digest(*parts):
    text = "|".join(str(p) for p in parts)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _identity_relabel(n):
    return tuple(range(n))


def _relabel(pairs, g1, g2):
    """Sorted pairs (i, j) moved to (g1[i], g2[j]); ``None`` is the identity."""
    return tuple(sorted(
        (g1[i] if g1 else i, g2[j] if g2 else j) for i, j in pairs))


# ---------------------------------------------------------------------------
# small GF(q) helpers, q prime


def _vec_add(u, v, q):
    return tuple((a + b) % q for a, b in zip(u, v))


def _rref(rows, q):
    """Reduced row echelon form; returns (rows, pivot columns)."""
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
    reduced = tuple(tuple(r) for r in mat[:row])
    return reduced, tuple(pivots)


def _residue(vec, rref_rows, pivots, q):
    v = list(vec)
    for row, p in zip(rref_rows, pivots):
        if v[p]:
            c = v[p]
            v = [(a - c * b) % q for a, b in zip(v, row)]
    return tuple(v)


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
# set partitions as restricted growth strings


def set_partitions(n):
    """Yield partitions of range(n) as block tuples ordered by least element."""
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def blocks_of(code):
        k = max(code) + 1
        blocks = [[] for _ in range(k)]
        for i, b in enumerate(code):
            blocks[b].append(i)
        return tuple(tuple(b) for b in blocks)

    while True:
        yield blocks_of(rgs)
        i = n - 1
        while i > 0:
            if rgs[i] <= max(rgs[:i]):
                break
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        for j in range(i + 1, n):
            rgs[j] = 0


_MAX_CONFIGS = 2_000_000


class FraisseClass:
    """Shared behavior for one amalgamation class; subclasses fill in payloads."""

    id = ""
    relational = True
    no_algebraicity = True
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
        positions = tuple(sorted(set(positions)))
        for p in positions:
            if not 0 <= p < len(s.points):
                raise MalformedStructure(f"position {p} out of range")
        points = tuple(s.points[p] for p in positions)
        return FinStructure(self.id, points, self._restrict_data(s, positions))

    def acl(self, s, positions):
        """Positions of the closure of ``positions`` inside the member ``s``."""
        if not self.is_member(s):
            raise MalformedStructure("acl needs a class member")
        positions = tuple(sorted(set(positions)))
        for p in positions:
            if not 0 <= p < len(s.points):
                raise MalformedStructure(f"position {p} out of range")
        return self._close(s, positions)

    def fixed_point_indices(self, s):
        """Positions of points fixed by every automorphism of the ambient limit."""
        return ()

    def is_fixed_only(self, s):
        fixed = set(self.fixed_point_indices(s))
        return len(s.points) > 0 and all(p in fixed for p in range(len(s.points)))

    # -- canonical forms

    def canonical(self, s):
        """Return ``(canon, relabel)`` with ``relabel[i]`` the new position of ``i``."""
        self.validate(s)
        return self._canonical(s)

    def canonical_code(self, s):
        canon, _ = self.canonical(s)
        return self._code_of_canonical(canon)

    def automorphisms(self, s):
        """Automorphism group of ``s`` as permutations of its positions."""
        self.validate(s)
        return self._automorphisms(s)

    # -- enumeration

    def enumerate_class(self, k):
        """One canonical representative per isomorphism class of size <= k."""
        reps = [self.empty()] + self._enumerate_nonempty(k)
        reps.sort(key=lambda r: (self.size(r), self._code_of_canonical(r)))
        return reps

    def enumerate_tuple_types(self, n, x0_only=False):
        """Orbits of n-tuples, optionally dropping tuples touching fixed elements."""
        if n < 0:
            raise MalformedStructure("tuple length must be nonnegative")
        if n > self.max_tuple_len:
            raise SizeLimitExceeded(
                f"tuple length {n} beyond desk scale for {self.id}")
        types = self._tuple_types(n)
        if x0_only:
            types = [t for t in types if not self._touches_fixed(t)]
        return types

    def marked_core(self, t):
        """Canonical closed hull of a tuple type plus the marked positions.

        Returns ``(base, marked)`` where ``base`` is the canonical structure
        generated by the tuple entries and ``marked[i]`` is the position of
        entry ``i`` inside it.
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
        raise NotImplementedError

    def _code_of_canonical(self, canon):
        raise NotImplementedError

    def _automorphisms(self, s):
        canon, rel = self.canonical(s)
        gens = [
            compose(inverse(rel), compose(g, rel))
            for g in self._canonical_aut_gens(canon)
        ]
        return PermGroup(len(s.points), gens)

    def _canonical_aut_gens(self, canon):
        raise NotImplementedError

    def _enumerate_nonempty(self, k):
        raise NotImplementedError

    def _tuple_types(self, n):
        raise NotImplementedError

    def _touches_fixed(self, t):
        return False

    def _data_to_json(self, data):
        raise NotImplementedError

    def _data_from_json(self, payload):
        raise NotImplementedError

    # -- double cosets and tuple hulls

    def joint_configs(self, base_b, base_c):
        """Every way a copy of ``base_c`` can sit relative to ``base_b``."""
        raise NotImplementedError

    def config_action(self, base_b, base_c):
        """``act(config, g1, g2)``: remark by g1 on ``base_b``, g2 on ``base_c``."""
        raise NotImplementedError

    def config_finiteness(self, payload, base_b, base_c):
        """(left, right): the ``base_c`` copy lies in the hull of the other, and back."""
        raise NotImplementedError

    def stabilizer_is_trivial(self, base, marked):
        """Whether only the identity of Aut(base) fixes every marked position."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# relational classes


def _move_ranks(ranks, g):
    if not g:
        return ranks
    moved = [0] * len(ranks)
    for i, r in enumerate(ranks):
        moved[g[i]] = r
    return tuple(moved)


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

    def config_action(self, base_b, base_c):
        return self._act_on_match

    @staticmethod
    def _act_on_match(config, g1, g2):
        return ("match", _relabel(config[1], g1, g2))

    def config_finiteness(self, payload, base_b, base_c):
        matching = payload[1]
        return (len({j for _, j in matching}) == len(base_c),
                len({i for i, _ in matching}) == len(base_b))

    def stabilizer_is_trivial(self, base, marked):
        # relational bases are exactly the marked points
        return set(marked) == set(range(len(base)))

    def _tuple_types(self, n):
        types = []
        for blocks in set_partitions(n):
            for core in self._block_cores(len(blocks)):
                types.append(TupleType(self.id, n, (blocks, core)))
        return types

    def _block_cores(self, k):
        """All payloads the class allows on k labeled points."""
        raise NotImplementedError

    def marked_core(self, t):
        blocks, core = t.data
        k = len(blocks)
        block_structure = FinStructure(self.id, tuple(range(k)), core)
        canon, rel = self.canonical(block_structure)
        block_of = {}
        for b, members in enumerate(blocks):
            for coord in members:
                block_of[coord] = b
        marked = tuple(rel[block_of[c]] for c in range(t.n))
        return canon, marked


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
        return FinStructure(self.id, tuple(range(n)), None), _identity_relabel(n)

    def _code_of_canonical(self, canon):
        return _digest(self.id, len(canon.points))

    def _canonical_aut_gens(self, canon):
        n = len(canon.points)
        return _symmetric_gens(n)

    def _enumerate_nonempty(self, k):
        return [self._canonical(FinStructure(self.id, tuple(range(n)), None))[0]
                for n in range(1, k + 1)]

    def _block_cores(self, k):
        return [None]

    def _data_to_json(self, data):
        return {}

    def _data_from_json(self, payload):
        return None


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
        return canon, tuple(s.data)

    def _code_of_canonical(self, canon):
        return _digest(self.id, len(canon.points))

    def _canonical_aut_gens(self, canon):
        return []

    def _enumerate_nonempty(self, k):
        return [FinStructure(self.id, tuple(range(n)), tuple(range(n)))
                for n in range(1, k + 1)]

    def _block_cores(self, k):
        return [tuple(p) for p in itertools.permutations(range(k))]

    def _data_to_json(self, data):
        return {"ranks": list(data)}

    def _data_from_json(self, payload):
        return tuple(payload.get("ranks", ()))

    def joint_configs(self, base_b, base_c):
        nB, nC = len(base_b), len(base_c)
        configs = []
        for t in range(min(nB, nC) + 1):
            for bsub in itertools.combinations(range(nB), t):
                for csub in itertools.combinations(range(nC), t):
                    matching = dict(zip(bsub, csub))
                    partner = {c: b for b, c in matching.items()}
                    out = []

                    def rec(i, j, rank, rb, rc):
                        if i == nB and j == nC:
                            out.append(("ranks", tuple(rb), tuple(rc)))
                            return
                        if i < nB and i not in matching:
                            rec(i + 1, j, rank + 1, rb + [rank], rc)
                        if j < nC and j not in partner:
                            rec(i, j + 1, rank + 1, rb, rc + [rank])
                        if i < nB and matching.get(i) == j:
                            rec(i + 1, j + 1, rank + 1, rb + [rank], rc + [rank])

                    rec(0, 0, 0, [], [])
                    configs.extend(out)
        return configs

    def config_action(self, base_b, base_c):
        return self._act_on_ranks

    @staticmethod
    def _act_on_ranks(config, g1, g2):
        return ("ranks", _move_ranks(config[1], g1), _move_ranks(config[2], g2))

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
    # they are isomorphic, and the orders achieving the minimum give the
    # full automorphism group.

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

    def _search(self, s):
        n = len(s.points)
        adj = self._adjacency(s)
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
        n = len(s.points)
        code, orders = self._search(s)
        order = orders[0]
        rel = [0] * n
        for new, old in enumerate(order):
            rel[old] = new
        edges = set()
        bit = 0
        for i in range(n):
            for j in range(i + 1, n):
                if code >> bit & 1:
                    edges.add(frozenset((i, j)))
                bit += 1
        canon = FinStructure(self.id, tuple(range(n)), frozenset(edges))
        return canon, tuple(rel)

    def _code_of_canonical(self, canon):
        pairs = sorted(tuple(sorted(e)) for e in canon.data)
        return _digest(self.id, len(canon.points), pairs)

    def _automorphisms(self, s):
        n = len(s.points)
        _, orders = self._search(s)
        base = orders[0]
        gens = []
        for other in orders:
            g = [0] * n
            for k in range(n):
                g[base[k]] = other[k]
            gens.append(tuple(g))
        return PermGroup(n, gens)

    def _canonical_aut_gens(self, canon):
        return self._automorphisms(canon).generators

    def _enumerate_nonempty(self, k):
        reps = []
        level = [self.empty()]
        for n in range(1, k + 1):
            seen = {}
            for prev in level:
                for mask in range(1 << (n - 1)):
                    edges = set(prev.data)
                    for v in range(n - 1):
                        if mask >> v & 1:
                            edges.add(frozenset((v, n - 1)))
                    candidate = FinStructure(
                        self.id, tuple(range(n)), frozenset(edges))
                    canon, _ = self._canonical(candidate)
                    seen.setdefault(self._code_of_canonical(canon), canon)
            level = [seen[c] for c in sorted(seen)]
            reps.extend(level)
        return reps

    def _block_cores(self, k):
        pairs = list(itertools.combinations(range(k), 2))
        cores = []
        for mask in range(1 << len(pairs)):
            cores.append(frozenset(
                frozenset(pairs[i]) for i in range(len(pairs)) if mask >> i & 1))
        return cores

    def _data_to_json(self, data):
        return {"edges": sorted(sorted(e) for e in data)}

    def _data_from_json(self, payload):
        return frozenset(frozenset(e) for e in payload.get("edges", ()))

    def joint_configs(self, base_b, base_c):
        eb, ec = base_b.data, base_c.data
        nB, nC = len(base_b), len(base_c)
        configs = []
        for matching in self._matchings(nB, nC):
            ok = True
            for (i1, j1), (i2, j2) in itertools.combinations(matching, 2):
                if (frozenset((i1, i2)) in eb) != (frozenset((j1, j2)) in ec):
                    ok = False
                    break
            if not ok:
                continue
            free_b = [i for i in range(nB) if i not in {m[0] for m in matching}]
            free_c = [j for j in range(nC) if j not in {m[1] for m in matching}]
            cross_pairs = [(b, c) for b in free_b for c in free_c]
            if 1 << len(cross_pairs) > _MAX_CONFIGS:
                raise SizeLimitExceeded(
                    "too many joint configurations; shrink the bases")
            for mask in range(1 << len(cross_pairs)):
                cross = tuple(cross_pairs[i] for i in range(len(cross_pairs))
                              if mask >> i & 1)
                configs.append(("cross", matching, cross))
        return configs

    def config_action(self, base_b, base_c):
        return self._act_on_cross

    @staticmethod
    def _act_on_cross(config, g1, g2):
        return ("cross", _relabel(config[1], g1, g2),
                _relabel(config[2], g1, g2))


# ---------------------------------------------------------------------------
# vector spaces over GF(q)


def _symmetric_gens(n):
    if n < 2:
        return []
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    cycle = tuple(range(1, n)) + (0,)
    gens = [tuple(swap)]
    if n > 2:
        gens.append(cycle)
    return gens


class VectorSpaceClass(FraisseClass):
    relational = False
    no_algebraicity = False
    num_fixed_elements = 1

    def __init__(self, q, class_id):
        self.q = q
        self.id = class_id

    def code_for_dim(self, dim):
        """Canonical code of the dim-dimensional space, no points needed."""
        return _digest(self.id, dim, self.q ** dim)

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
        _, vectors = s.data
        if not vectors:
            return True
        present = set(vectors)
        width = len(vectors[0])
        if tuple([0] * width) not in present:
            return False
        for u in vectors:
            for v in vectors:
                if _vec_add(u, v, self.q) not in present:
                    return False
        return True

    def size(self, s):
        _, vectors = s.data
        if not vectors:
            return 0
        rows, _ = _rref(vectors, self.q)
        return len(rows)

    def _restrict_data(self, s, positions):
        _, vectors = s.data
        return (self.q, tuple(vectors[p] for p in positions))

    def _close(self, s, positions):
        _, vectors = s.data
        if not positions:
            return ()
        width = len(vectors[0])
        lookup = {v: i for i, v in enumerate(vectors)}
        closure = {tuple([0] * width)}
        frontier = [vectors[p] for p in positions]
        closure.update(frontier)
        while frontier:
            u = frontier.pop()
            for v in list(closure):
                w = _vec_add(u, v, self.q)
                if w not in closure:
                    closure.add(w)
                    frontier.append(w)
        return tuple(sorted(lookup[v] for v in closure))

    def fixed_point_indices(self, s):
        _, vectors = s.data
        if not vectors:
            return ()
        zero = tuple([0] * len(vectors[0]))
        return tuple(i for i, v in enumerate(vectors) if v == zero)

    def _basis_coords(self, s):
        """Greedy basis over lex-sorted vectors, then coordinates per point."""
        _, vectors = s.data
        order = sorted(range(len(vectors)), key=lambda i: vectors[i])
        basis = []
        for i in order:
            trial = basis + [vectors[i]]
            rows, _ = _rref(trial, self.q)
            if len(rows) == len(trial):
                basis.append(vectors[i])
        coords = []
        for v in vectors:
            coords.append(self._solve(basis, v))
        return basis, coords

    def _solve(self, basis, v):
        if not basis:
            return ()
        width = len(v)
        rows = [list(b) + [0] * len(basis) for b in basis]
        for i in range(len(basis)):
            rows[i][width + i] = 1
        reduced, pivots = _rref(rows, self.q)
        residue = list(v)
        coeffs = [0] * len(basis)
        for row, p in zip(reduced, pivots):
            if p < width and residue[p]:
                c = residue[p]
                residue = [(a - c * b) % self.q for a, b in zip(residue, row[:width])]
                coeffs = [(x + c * y) % self.q for x, y in zip(coeffs, row[width:])]
        if any(residue):
            raise MalformedStructure("vector outside the span of the basis")
        return tuple(coeffs)

    def _canonical(self, s):
        if not self._is_closed(s):
            raise MalformedStructure("canonical form needs a closed structure")
        _, vectors = s.data
        if not vectors:
            return self.empty(), ()
        _, coords = self._basis_coords(s)
        dim = len(coords[0]) if coords[0] != () else 0
        canon = self.canonical_space(dim)
        rel = tuple(_lex_index(c, self.q) for c in coords)
        return canon, rel

    def canonical_space(self, dim):
        vectors = tuple(_lex_vector(i, self.q, dim) for i in range(self.q ** dim))
        return FinStructure(self.id, tuple(range(self.q ** dim)), (self.q, vectors))

    def _code_of_canonical(self, canon):
        return _digest(self.id, self.size(canon), len(canon.points))

    def _canonical_aut_gens(self, canon):
        dim = self.size(canon)
        return [self._matrix_perm(m, dim) for m in self._matrix_gens(dim)]

    def _matrix_gens(self, dim):
        gens = []
        for i in range(dim):
            for j in range(dim):
                if i == j:
                    continue
                m = [[1 if a == b else 0 for b in range(dim)] for a in range(dim)]
                m[i][j] = 1
                gens.append(m)
        if self.q > 2 and dim >= 1:
            m = [[1 if a == b else 0 for b in range(dim)] for a in range(dim)]
            m[0][0] = self.q - 1
            gens.append(m)
        return gens

    def _matrix_perm(self, m, dim):
        images = []
        for idx in range(self.q ** dim):
            v = _lex_vector(idx, self.q, dim)
            mv = tuple(sum(m[r][c] * v[c] for c in range(dim)) % self.q
                       for r in range(dim))
            images.append(_lex_index(mv, self.q))
        return tuple(images)

    def _enumerate_nonempty(self, k):
        return [self.canonical_space(d) for d in range(k + 1)]

    def _tuple_types(self, n):
        types = []
        for rows in _relation_spaces(n, self.q):
            types.append(TupleType(self.id, n, rows))
        return types

    def _touches_fixed(self, t):
        rows = t.data
        if not rows:
            return False
        _, pivots = _rref(rows, self.q)
        for i in range(t.n):
            e = tuple(1 if j == i else 0 for j in range(t.n))
            if not any(_residue(e, rows, pivots, self.q)):
                return True
        return False

    def marked_core(self, t):
        rows = t.data
        reduced, pivots = _rref(rows, self.q) if rows else ((), ())
        free = [c for c in range(t.n) if c not in pivots]
        dim = len(free)
        base = self.canonical_space(dim)
        marked = []
        for i in range(t.n):
            e = tuple(1 if j == i else 0 for j in range(t.n))
            residue = _residue(e, reduced, pivots, self.q)
            coords = tuple(residue[c] for c in free)
            marked.append(_lex_index(coords, self.q))
        return base, tuple(marked)

    def _data_to_json(self, data):
        q, vectors = data
        return {"q": q, "vectors": [list(v) for v in vectors]}

    def _data_from_json(self, payload):
        return (payload.get("q"),
                tuple(tuple(v) for v in payload.get("vectors", ())))

    def joint_configs(self, base_b, base_c):
        dB = self.size(base_b)
        q = self.q
        configs = []
        for rows in _relation_spaces(dB + self.size(base_c), q):
            if not rows:
                configs.append(("space", rows))
                continue
            left = [r[:dB] for r in rows]
            right = [r[dB:] for r in rows]
            if len(_rref(left, q)[0]) != len(rows):
                continue
            if len(_rref(right, q)[0]) != len(rows):
                continue
            configs.append(("space", rows))
        return configs

    def config_action(self, base_b, base_c):
        q = self.q
        dB = self.size(base_b)
        dC = self.size(base_c)

        def act(config, g1, g2):
            rows = config[1]
            m1 = self._perm_matrix(inverse(g1), dB) if g1 else None
            m2 = self._perm_matrix(inverse(g2), dC) if g2 else None
            moved = []
            for r in rows:
                c, d = list(r[:dB]), list(r[dB:])
                if m1:
                    c = [sum(m1[a][b] * c[b] for b in range(dB)) % q
                         for a in range(dB)]
                if m2:
                    d = [sum(m2[a][b] * d[b] for b in range(dC)) % q
                         for a in range(dC)]
                moved.append(tuple(c) + tuple(d))
            return ("space", _rref(moved, q)[0])

        return act

    def _perm_matrix(self, perm, dim):
        """Matrix of a point permutation of the canonical space, column per basis."""
        cols = []
        for i in range(dim):
            e = tuple(1 if j == i else 0 for j in range(dim))
            image = perm[_lex_index(e, self.q)]
            cols.append(_lex_vector(image, self.q, dim))
        return [[cols[j][r] for j in range(dim)] for r in range(dim)]

    def config_finiteness(self, payload, base_b, base_c):
        rows = payload[1]
        dB = self.size(base_b)
        rank_left = len(_rref([r[:dB] for r in rows], self.q)[0])
        rank_right = len(_rref([r[dB:] for r in rows], self.q)[0])
        return rank_right == self.size(base_c), rank_left == dB

    def stabilizer_is_trivial(self, base, marked):
        # marked vectors pin every automorphism exactly when they span
        vectors = [base.data[1][p] for p in marked]
        return len(_rref(vectors, self.q)[0]) == self.size(base)


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
    no_algebraicity = False
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
        n_atoms, masks = s.data
        if not masks:
            return True
        if n_atoms == 0:
            return False
        present = set(masks)
        full = (1 << n_atoms) - 1
        if 0 not in present or full not in present:
            return False
        for a in masks:
            if a ^ full not in present:
                return False
            for b in masks:
                if a & b not in present:
                    return False
        return True

    def size(self, s):
        n_atoms, masks = s.data
        if not masks:
            return 0
        if masks == tuple(range(1 << n_atoms)):
            return n_atoms
        return len(self._atoms(masks))

    @staticmethod
    def _atoms(masks):
        nonzero = [m for m in masks if m]
        atoms = []
        for m in nonzero:
            if not any(o != m and o & m == o for o in nonzero):
                atoms.append(m)
        return sorted(atoms)

    def _restrict_data(self, s, positions):
        n_atoms, masks = s.data
        return (n_atoms, tuple(masks[p] for p in positions))

    def _close(self, s, positions):
        n_atoms, masks = s.data
        if not positions:
            return ()
        lookup = {m: i for i, m in enumerate(masks)}
        full = (1 << n_atoms) - 1
        closure = {0, full}
        closure.update(masks[p] for p in positions)
        changed = True
        while changed:
            changed = False
            current = list(closure)
            for a in current:
                if a ^ full not in closure:
                    closure.add(a ^ full)
                    changed = True
                for b in current:
                    if a & b not in closure:
                        closure.add(a & b)
                        changed = True
        return tuple(sorted(lookup[m] for m in closure))

    def fixed_point_indices(self, s):
        n_atoms, masks = s.data
        full = (1 << n_atoms) - 1
        return tuple(i for i, m in enumerate(masks) if m == 0 or m == full)

    def _canonical(self, s):
        if not self._is_closed(s):
            raise MalformedStructure("canonical form needs a closed structure")
        _, masks = s.data
        if not masks:
            return self.empty(), ()
        atoms = self._atoms(masks)
        canon = self.canonical_algebra(len(atoms))
        rel = []
        for m in masks:
            new = 0
            for k, atom in enumerate(atoms):
                if atom & m == atom:
                    new |= 1 << k
            rel.append(new)
        return canon, tuple(rel)

    def canonical_algebra(self, n_atoms):
        masks = tuple(range(1 << n_atoms))
        return FinStructure(self.id, masks, (n_atoms, masks))

    def _code_of_canonical(self, canon):
        return _digest(self.id, self.size(canon))

    def _canonical_aut_gens(self, canon):
        m = self.size(canon)
        gens = []
        for sigma in _symmetric_gens(m):
            images = []
            for mask in range(1 << m):
                new = 0
                for k in range(m):
                    if mask >> k & 1:
                        new |= 1 << sigma[k]
                images.append(new)
            gens.append(tuple(images))
        return gens

    def _enumerate_nonempty(self, k):
        return [self.canonical_algebra(m) for m in range(1, k + 1)]

    def _tuple_types(self, n):
        return [TupleType(self.id, n, pmask)
                for pmask in range(1, 1 << (1 << n))]

    def _touches_fixed(self, t):
        pmask = t.data
        for i in range(t.n):
            column = 0
            for cell in range(1 << t.n):
                if pmask >> cell & 1 and cell >> i & 1:
                    column |= 1 << cell
            slice_ = pmask & column
            if slice_ == 0 or slice_ == pmask:
                return True
        return False

    def marked_core(self, t):
        pmask = t.data
        cells = [c for c in range(1 << t.n) if pmask >> c & 1]
        base = self.canonical_algebra(len(cells))
        marked = []
        for i in range(t.n):
            mask = 0
            for k, cell in enumerate(cells):
                if cell >> i & 1:
                    mask |= 1 << k
            marked.append(mask)
        return base, tuple(marked)

    def _data_to_json(self, data):
        n_atoms, masks = data
        return {"atoms": n_atoms, "masks": list(masks)}

    def _data_from_json(self, payload):
        return (payload.get("atoms", 0), tuple(payload.get("masks", ())))

    @staticmethod
    def atom_perm(point_perm, m):
        """Convert an automorphism on the 2**m element masks to an atom permutation."""
        sigma = []
        for k in range(m):
            img = point_perm[1 << k]
            if img & (img - 1):
                raise InvariantViolation("automorphism does not permute atoms")
            sigma.append(img.bit_length() - 1)
        return tuple(sigma)

    def joint_configs(self, base_b, base_c):
        m1 = self.size(base_b)
        m2 = self.size(base_c)
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

    def config_action(self, base_b, base_c):
        m1 = self.size(base_b)
        m2 = self.size(base_c)

        def act(config, g1, g2):
            s1 = self.atom_perm(g1, m1) if g1 else None
            s2 = self.atom_perm(g2, m2) if g2 else None
            return ("cells", _relabel(config[1], s1, s2))

        return act

    def config_finiteness(self, payload, base_b, base_c):
        # left: every atom of the first copy meets one atom of the second
        cells = payload[1]
        return (len({i for i, _ in cells}) == len(cells),
                len({j for _, j in cells}) == len(cells))

    def stabilizer_is_trivial(self, base, marked):
        # marked masks pin every atom permutation exactly when they separate atoms
        m = self.size(base)
        columns = {tuple((mask >> k) & 1 for mask in marked) for k in range(m)}
        return len(columns) == m


# ---------------------------------------------------------------------------
# registry and serialization

REGISTRY = {}


def _register(cls_obj):
    if not cls_obj.relational and cls_obj.no_algebraicity:
        raise MalformedStructure(
            f"{cls_obj.id}: algebraic closure must be trivial in relational "
            "classes only")
    REGISTRY[cls_obj.id] = cls_obj
    return cls_obj


_register(PureSetClass())
_register(LinearOrderClass())
_register(GraphClass())
_register(VectorSpaceClass(2, "vector_space"))
_register(VectorSpaceClass(3, "vector_space_q3"))
_register(BooleanAlgebraClass())


def get_class(class_id):
    if class_id not in REGISTRY:
        raise MalformedStructure(f"unknown class {class_id!r}")
    return REGISTRY[class_id]


def empty_structure(class_id):
    return get_class(class_id).empty()


def structure_to_json(s):
    cls = get_class(s.cls)
    cls.validate(s)
    return {"class": s.cls, "points": list(s.points),
            "data": cls._data_to_json(s.data)}


def structure_from_json(doc):
    try:
        class_id = doc["class"]
        points = tuple(doc["points"])
        payload = doc["data"]
    except (KeyError, TypeError) as exc:
        raise MalformedStructure(f"bad structure document: {exc}")
    cls = get_class(class_id)
    return cls.make(points, cls._data_from_json(payload))
