"""Reference values computed apart from oligorep.

Every function here uses only the standard library and its own
permutation arithmetic, so a fault shared with the program cannot hide
itself.  Permutations are tuples ``p`` with ``p[i]`` the image of ``i``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

# OEIS A000088: graphs on n unlabeled vertices.
GRAPHS_ON_N_VERTICES = (1, 1, 2, 4, 11, 34, 156, 1044)
# OEIS A000638: conjugacy classes of subgroups of S_n.
SUBGROUP_CLASSES_SYMMETRIC = (1, 1, 2, 4, 11, 19, 56)
# Conjugacy classes of GL(d, 2) and GL(d, 3), d = 0, 1, ...
GL2_CLASSES = (1, 1, 3, 6, 14)
GL3_CLASSES = (1, 2, 8, 24)
# Conjugacy classes of subgroups of GL(2, 3).
GL23_SUBGROUP_CLASSES = 16


@lru_cache(maxsize=None)
def partitions(n: int) -> int:
    """p(n), by the recurrence over the largest part."""
    def count(m, cap):
        if m == 0:
            return 1
        return sum(count(m - k, k) for k in range(1, min(m, cap) + 1))
    return count(n, n)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if n == 0 or k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def gl_order(d: int, q: int) -> int:
    return math.prod(q ** d - q ** i for i in range(d))


def central_delannoy(n: int) -> int:
    """D(n, n) = sum_k C(n, k) C(n + k, k)."""
    return sum(math.comb(n, k) * math.comb(n + k, k) for k in range(n + 1))


def partial_matchings(n: int) -> int:
    """Injective partial maps between two n-sets: sum_t C(n, t)^2 t!."""
    return sum(math.comb(n, t) ** 2 * math.factorial(t)
               for t in range(n + 1))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    num = math.prod(q ** (n - i) - 1 for i in range(k))
    den = math.prod(q ** (i + 1) - 1 for i in range(k))
    return num // den


def partial_linear_isos(d: int, q: int) -> int:
    """Isomorphisms between a subspace of one GF(q)^d and one of another:
    sum_t [d, t]_q^2 |GL(t, q)|."""
    return sum(gaussian_binomial(d, t, q) ** 2 * gl_order(t, q)
               for t in range(d + 1))


def covering_matrices(m1: int, m2: int) -> int:
    """0/1 matrices of shape m1 x m2 with no empty row or column,
    by inclusion-exclusion over the empty rows and columns."""
    return sum((-1) ** (i + j) * math.comb(m1, i) * math.comb(m2, j)
               * 2 ** ((m1 - i) * (m2 - j))
               for i in range(m1 + 1) for j in range(m2 + 1))


def graph_joint_configs(n: int, edges) -> int:
    """Ways two copies of one graph can sit together in the random graph.

    Sum over partial matchings between the copies that respect adjacency
    of 2 ** (number of cross pairs between unmatched points), each of which
    may or may not be an edge.
    """
    adjacent = {frozenset(e) for e in edges}
    total = 0
    for t in range(n + 1):
        for left in itertools.combinations(range(n), t):
            for right in itertools.permutations(range(n), t):
                pairs = list(zip(left, right))
                if all((frozenset((a, b)) in adjacent)
                       == (frozenset((c, d)) in adjacent)
                       for (a, c), (b, d) in itertools.combinations(pairs, 2)):
                    total += 2 ** ((n - t) * (n - t))
    return total


def cayley_configs(r: int) -> int:
    """Prescriptions of at most two vertices of the radius r-1 ball."""
    inner = 2 * 3 ** (r - 1) - 1
    return 2 * inner + 4 * math.comb(inner, 2)


def nonidentity_words(length: int) -> int:
    """Nontrivial reduced words of length at most ``length`` in F_2."""
    return 2 * 3 ** length - 2


def tree_level_sizes(depth: int) -> list:
    """Level k of the back-and-forth tree splits 2^(k//2 + 1) ways."""
    sizes = [1]
    for k in range(2, depth + 1):
        sizes.append(sizes[-1] * 2 ** (k // 2 + 1))
    return sizes


# -- permutation groups -------------------------------------------------------


def compose(a: tuple, b: tuple) -> tuple:
    """a after b."""
    return tuple(a[x] for x in b)


def closure(generators, degree: int) -> frozenset:
    """All elements of the group generated, by orbit of the identity."""
    ident = tuple(range(degree))
    elements = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in generators]
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = compose(s, g)
            if h not in elements:
                elements.add(h)
                frontier.append(h)
    return frozenset(elements)


def graph_automorphism_count(n: int, edges) -> int:
    """|Aut| of a graph on range(n), by brute force over S_n."""
    edge_set = {frozenset(e) for e in edges}
    return sum(
        1 for p in itertools.permutations(range(n))
        if all(frozenset((p[a], p[b])) in edge_set for a, b in map(tuple, edge_set)))


def subgroup_classes(elements: frozenset) -> int:
    """Conjugacy classes of subgroups of a finite permutation group.

    Every subgroup is a join of cyclic subgroups, so joining until nothing
    new appears finds them all; classes are orbits under conjugation.
    """
    degree = len(next(iter(elements)))
    subgroups = {closure([g], degree) for g in elements}
    fresh = set(subgroups)
    while fresh:
        grown = set()
        for a in fresh:
            for b in subgroups:
                j = closure(a | b, degree) if not (a <= b or b <= a) else None
                if j is not None and j not in subgroups:
                    grown.add(j)
        subgroups |= grown
        fresh = grown
    classes = 0
    seen = set()
    for h in sorted(subgroups, key=lambda s: (len(s), sorted(s))):
        if h in seen:
            continue
        classes += 1
        for g in elements:
            g_inv = tuple(sorted(range(degree), key=lambda i: g[i]))
            seen.add(frozenset(compose(g, compose(x, g_inv)) for x in h))
    return classes


def double_cosets(group: frozenset, sub: frozenset) -> int:
    """|K \\ G / K|, counting orbits of K x K on G."""
    left = set(group)
    count = 0
    while left:
        g = left.pop()
        count += 1
        for a in sub:
            ag = compose(a, g)
            for b in sub:
                left.discard(compose(ag, b))
    return count


# -- regeneration of the stored constants ---------------------------------------


def _graph_classes(n: int) -> int:
    """Graphs on n unlabeled vertices, by canonical forms over S_n."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        seen.add(min(tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges))
                     for p in perms))
    return len(seen)


def _rank(rows, q):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], q - 2, q)
        rows[rank] = [x * inv % q for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(x - c * y) % q for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _gl_generators(d, q):
    """Elementary transvections and one diagonal matrix generate GL(d, q)."""
    gens = []
    for i in range(d):
        for j in range(d):
            if i != j:
                gens.append(tuple(tuple(int(a == b or (a, b) == (i, j))
                                        for b in range(d)) for a in range(d)))
    if q > 2 and d:
        gens.append(tuple(tuple((q - 1 if a == b == 0 else int(a == b))
                                for b in range(d)) for a in range(d)))
    return gens


def _matmul(a, b, q):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % q
                       for col in zip(*b)) for row in a)


def _gl_classes(d: int, q: int) -> int:
    """Conjugacy classes of GL(d, q), by orbits of conjugation."""
    if d == 0:
        return 1
    elements = [m for m in (tuple(tuple(flat[r * d:(r + 1) * d])
                                  for r in range(d))
                            for flat in itertools.product(range(q),
                                                          repeat=d * d))
                if _rank(m, q) == d]
    gens = [(g, next(h for h in elements
                     if _matmul(g, h, q) == tuple(tuple(int(a == b)
                                                        for b in range(d))
                                                  for a in range(d))))
            for g in _gl_generators(d, q)]
    left = set(elements)
    classes = 0
    while left:
        classes += 1
        frontier = [left.pop()]
        while frontier:
            m = frontier.pop()
            for g, g_inv in gens:
                c = _matmul(_matmul(g, m, q), g_inv, q)
                if c in left:
                    left.discard(c)
                    frontier.append(c)
    return classes


def _gl_as_permutations(d, q):
    vectors = list(itertools.product(range(q), repeat=d))
    index = {v: i for i, v in enumerate(vectors)}
    return [tuple(index[tuple(sum(m[r][c] * v[c] for c in range(d)) % q
                              for r in range(d))] for v in vectors)
            for m in _gl_generators(d, q)], len(vectors)


def regenerate():
    """Recompute the stored constants that brute force reaches quickly."""
    checks = [
        ("GRAPHS_ON_N_VERTICES[:6]", GRAPHS_ON_N_VERTICES[:6],
         tuple(_graph_classes(n) for n in range(6))),
        ("SUBGROUP_CLASSES_SYMMETRIC[:5]", SUBGROUP_CLASSES_SYMMETRIC[:5],
         tuple(subgroup_classes(closure(
             [tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))]
             if n > 1 else [], max(n, 1))) for n in range(5))),
        ("GL23_SUBGROUP_CLASSES", GL23_SUBGROUP_CLASSES,
         subgroup_classes(closure(*_gl_as_permutations(2, 3)))),
        ("GL2_CLASSES", GL2_CLASSES, tuple(_gl_classes(d, 2) for d in range(5))),
        ("GL3_CLASSES", GL3_CLASSES, tuple(_gl_classes(d, 3) for d in range(4))),
    ]
    ok = True
    for name, stored, computed in checks:
        ok = ok and stored == computed
        print(f"{name}: stored {stored}, computed {computed}")
    return ok


if __name__ == "__main__":
    raise SystemExit(0 if regenerate() else 1)
