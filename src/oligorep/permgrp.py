"""Deterministic finite permutation groups.

A permutation on n points is a tuple p of length n with p[i] the image of
i.  Composition is (g * h)(i) = g(h(i)), i.e. h acts first.

A group materializes its elements once, packed (``pack``): a sorted list
of ``bytes`` up to 256 points, of code-point ``str`` past that, which sort
as the tuples do.  For either type p * x is ``x.translate(table(p))``, so
only generators, transversal and coset reps and conjugators become
tables, and each product is a left product in one C-level ``map``
(``left_multiply``).  Classes, their index (keyed by the packed elements)
and the subgroup lattice work on that list, closing orbits a level at a
time (``_orbit``) and subgroups a left coset at a time (``_closure``);
``elements()`` and class reps are tuples.

The stabilizer chain comes from one incremental Schreier–Sims pass (Sims
1970; Seress, *Permutation Group Algorithms*, 2003).  Each generator, in
order, is sifted through the chain; a residue other than the identity
becomes a strong generator on every level from the one it was sifted from
down to the one where it dropped out, past the last level opening a new
one whose base point is the least point the residue moves.  Those levels'
orbits grow, and their new Schreier generators are sifted the same way.
Everything is taken in a fixed order and nothing is drawn at random, so
two runs over the same generators produce identical data.  That
determinism is load-bearing for reproducible catalogs, which is why this
module exists instead of leaning on a library with randomized internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, filterfalse, repeat
from math import lcm, prod
from operator import add

from .errors import (InvalidPermutation, InvariantViolation, NotASubgroup,
                     SizeLimitExceeded)
from .limits import get_limits


def identity(degree: int) -> tuple:
    return tuple(range(degree))


def compose(g: tuple, h: tuple) -> tuple:
    """g after h."""
    return tuple(map(g.__getitem__, h))


_BYTES = bytes(range(256))


def pack(g) -> bytes | str:
    """g with one byte per point up to 256 points, else one code point per
    point (points above 255 fit no byte); either sorts as the tuples do."""
    return bytes(g) if len(g) <= 256 else "".join(map(chr, g))


def unpack(g: bytes | str) -> tuple:
    return tuple(g) if isinstance(g, bytes) else tuple(map(ord, g))


def table(p: bytes | str) -> bytes | str:
    """The translate table of packed p, so x.translate(table(p)) is p * x:
    bytes padded to 256 with the identity, a ``str`` as it is."""
    return p + _BYTES[len(p):] if isinstance(p, bytes) else p


def left_multiply(t: bytes | str, xs):
    """p * x for each packed x in xs, t = table(p), as one C-level map."""
    return map(type(t).translate, xs, repeat(t))


def inverse(g: tuple) -> tuple:
    out = [0] * len(g)
    for i, x in enumerate(g):
        out[x] = i
    return tuple(out)


def power(g: tuple, n: int) -> tuple:
    if n < 0:
        return power(inverse(g), -n)
    result = identity(len(g))
    base = g
    while n:
        if n & 1:
            result = compose(base, result)
        base = compose(base, base)
        n >>= 1
    return result


def cycle_type(g: tuple) -> tuple:
    """Cycle lengths sorted descending, fixed points included."""
    seen = [False] * len(g)
    lengths = []
    for start in range(len(g)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = g[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def perm_order(g: tuple) -> int:
    return lcm(*cycle_type(g)) if g else 1


def from_cycles(degree: int, cycles) -> tuple:
    out = list(range(degree))
    for cyc in cycles:
        for i, point in enumerate(cyc):
            out[point] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def validate_perm(p, degree: int) -> tuple:
    p = tuple(p)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise InvalidPermutation(f"not a permutation of {degree} points: {p!r}")
    return p


@dataclass(frozen=True)
class ConjClass:
    rep: tuple
    size: int
    order: int
    cycle_type: tuple


class PermGroup:
    """Group generated by permutations, with a deterministic BSGS.

    The chain is complete after each generator, so ``reduced_generators``,
    those whose sift left a residue, are the generators outside the group
    of those before them: at most log2 |G| of them, generating G.
    """

    def __init__(self, degree: int, generators) -> None:
        self.degree = degree
        self.generators = tuple(
            validate_perm(g, degree) for g in generators
        )
        self._identity = identity(degree)
        self._base: list = []
        self._transversals: list = []  # dicts point -> coset rep^-1
        self._strong_gens: list = []   # per level
        self.reduced_generators = tuple(
            g for g in self.generators if self._add(g, 0))
        self._packed: list | None = None
        self._elements: tuple | None = None
        self._classes: tuple | None = None
        self._class_index: dict | None = None

    # -- stabilizer chain ---------------------------------------------------

    def _sift(self, g: tuple, level: int = 0) -> tuple:
        """(residue, level) of g sifted through the chain from ``level``
        on: the residue is the identity iff g lies in that level's group,
        else it fixes the base points before the level it stopped at."""
        for i in range(level, len(self._base)):
            rep_inv = self._transversals[i].get(g[self._base[i]])
            if rep_inv is None:
                return g, i
            g = compose(rep_inv, g)
        return g, len(self._base)

    def _add(self, g: tuple, level: int) -> bool:
        """Extend the chain from ``level`` on by g, which fixes the base
        points before ``level``; False iff g already lies in the group of
        that level."""
        h, stop = self._sift(g, level)
        if h == self._identity:
            return False
        if stop == len(self._base):
            point = next(i for i, x in enumerate(h) if i != x)
            self._base.append(point)
            self._transversals.append({point: self._identity})
            self._strong_gens.append([])
        for i in range(stop, level - 1, -1):
            self._grow(i, h)
        return True

    def _grow(self, i: int, new: tuple) -> None:
        """Add the strong generator ``new`` on level i, extend its orbit and
        sift each Schreier generator not met before into level i + 1."""
        gens = self._strong_gens[i]
        gens.append(new)
        trans = self._transversals[i]
        fresh: list = []  # (point, coset rep) of the points the orbit gains

        def visit(x, u, s):
            v = compose(s, u)
            y = s[x]
            if y in trans:
                self._add(compose(trans[y], v), i + 1)
            else:
                trans[y] = inverse(v)
                fresh.append((y, v))

        for x in list(trans):
            visit(x, inverse(trans[x]), new)
        for x, u in fresh:
            for s in gens:
                visit(x, u, s)

    def __contains__(self, g) -> bool:
        g = tuple(g)
        if len(g) != self.degree:
            return False
        return self._sift(g)[0] == self._identity

    @property
    def order(self) -> int:
        return prod(len(trans) for trans in self._transversals)

    def _conjugators(self) -> list:
        """(s, s^-1) packed per reduced generator s, as ``_conjugation``
        takes them.  Orbits under G do not depend on the generating set,
        and each level costs a product per generator, so the classes keep
        the sets they make small (GL(d, q) from two matrices)."""
        return [(pack(s), pack(inverse(s))) for s in self.reduced_generators]

    # -- element and class data ----------------------------------------------

    def packed_elements(self) -> list:
        """All elements packed, sorted, built on the first call; callers
        bound the order first (``table_order``, ``subgroup_order``)."""
        if self._packed is None:
            # a sift writes g as t_0 t_1 ... t_{k-1}, t_i a coset rep of
            # level i, so g^-1 runs over the products of their inverses
            elems = [pack(self._identity)]
            for trans in self._transversals:
                elems = list(chain.from_iterable(
                    left_multiply(table(pack(v)), elems)
                    for v in trans.values()))
            if len(set(elems)) != self.order:
                raise InvariantViolation(f"{len(set(elems))} distinct "
                                         f"elements, order {self.order}")
            elems.sort()
            self._packed = elems
        return self._packed

    def elements(self) -> tuple:
        """All elements as tuples, sorted."""
        packed = self.packed_elements()
        if self._elements is None:
            self._elements = tuple(map(unpack, packed))
        return self._elements

    def conjugacy_classes(self) -> tuple:
        """ConjClass records sorted by (size, order, cycle_type, rep).

        Each class is closed a level at a time under conjugation by
        ``_conjugators``, the reduced generators.  Its rep is its least
        member: the first element of the sorted element list that no
        earlier class took, so it does not depend on the generators."""
        if self._classes is None:
            conjugations = [_conjugation(*c) for c in self._conjugators()]
            index: dict = {}  # packed element -> class number
            raw = []
            for rep in self.packed_elements():
                if rep in index:
                    continue
                members = _orbit({rep}, lambda level: chain.from_iterable(
                    conj(level) for conj in conjugations))
                index.update(dict.fromkeys(members, len(raw)))
                rep = unpack(rep)
                raw.append(ConjClass(rep, len(members), perm_order(rep),
                                     cycle_type(rep)))
            ranked = sorted(range(len(raw)), key=lambda k: (
                raw[k].size, raw[k].order, raw[k].cycle_type, raw[k].rep))
            position = {k: idx for idx, k in enumerate(ranked)}
            for g, k in index.items():
                index[g] = position[k]
            self._classes = tuple(raw[k] for k in ranked)
            self._class_index = index
        return self._classes

    def class_data(self):
        """(classes, index): index maps each packed element to its class."""
        classes = self.conjugacy_classes()
        return classes, self._class_index

    # -- subgroup enumeration --------------------------------------------------

    def subgroups_up_to_conjugacy(self) -> tuple:
        """One representative per conjugacy class of subgroups.

        Neubüser's cyclic extension method (Holt, Eick and O'Brien,
        *Handbook of Computational Group Theory*, 2005).  A class enters
        with one member H, the elements it was grown from and its
        normalizer N (``_normalizer``); its conjugates, one x H x^-1 per
        left coset xN, mark the class as seen.  H is extended by an element
        g of prime power order, closing under left multiplication by H's
        generators and g only, in O(|result| * |gens|) products, for one g
        per orbit of N on the cosets gH by conjugation: <H, gh> = <H, g>
        for h in H, and <H, n g n^-1> = n <H, g> n^-1 for n in N.  This is
        complete: a subgroup K > 1 is generated by its prime power
        elements, so K = <M, g> for a maximal subgroup M of K and some such
        g outside M, and by induction on |K| a conjugate c M c^-1 entered
        and an orbit of c g c^-1 H was tried.  The number of extensions
        still grows with the lattice; a group above ``subgroup_order`` is
        refused first.  The ``sorted``-least member represents its class.
        """
        bound = get_limits().subgroup_order
        if self.order > bound:
            raise SizeLimitExceeded(
                f"subgroup enumeration limited to order {bound}, "
                f"group has order {self.order}"
            )
        elems = self.packed_elements()
        pp_elems = [g for g in elems
                    if _is_prime_power(perm_order(unpack(g)))]
        one = pack(self._identity)
        seen_sets: set = set()
        found, frontier = [], []

        def enter(sub: frozenset, gens: tuple) -> None:
            norm = self._normalizer(sub, gens)
            orbit, covered = set(), set()
            for x in filterfalse(covered.__contains__, elems):
                covered.update(left_multiply(table(x), norm))
                # maketrans(x, 1) is table(x^-1), as in ``_normalizer``
                x_inv = one.translate(type(x).maketrans(x, one))
                orbit.add(frozenset(_conjugation(x, x_inv)(sub)))
            seen_sets.update(orbit)
            found.append(min(orbit, key=sorted))
            frontier.append((sub, gens, norm))

        enter(frozenset({one}), ())
        for current, gens, norm in frontier:  # enter appends: breadth first
            # n^-1 g n in two translates
            inv_tables = [type(n).maketrans(n, one) for n in norm]
            covered = set(current)  # one g per N-orbit of cosets gH
            for g in filterfalse(covered.__contains__, pp_elems):
                for y in set(map(type(g).translate,
                                 left_multiply(table(g), norm), inv_tables)):
                    if y not in covered:
                        covered.update(left_multiply(table(y), current))
                grown_gens = gens + (g,)
                grown = _closure(current, grown_gens)
                if grown not in seen_sets:
                    enter(grown, grown_gens)
        reps = [sorted(s) for s in found]
        reps.sort(key=lambda s: (len(s), s))
        return tuple(
            PermGroup(self.degree, [unpack(g) for g in rep if g != one]
                      or [self._identity])
            for rep in reps
        )

    def _normalizer(self, sub: frozenset, gens: tuple) -> list:
        """N(H), packed, for the packed subgroup H = ``sub`` generated by
        the packed ``gens``.  N(H) is a union of left cosets xH, and x lies
        in it iff x^-1 s x lies in H for each generator s, so one x per
        coset decides: x^-1 s x is x.translate(table(s)) translated by
        maketrans(x, 1), which maps x[i] to i and so is table(x^-1)."""
        one = pack(self._identity)
        tables = [table(s) for s in gens]
        norm, covered = [], set()
        for x in filterfalse(covered.__contains__, self.packed_elements()):
            coset = list(left_multiply(table(x), sub))
            covered.update(coset)
            x_inv = type(x).maketrans(x, one)
            if all(x.translate(t).translate(x_inv) in sub for t in tables):
                norm += coset
        return norm

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def _is_prime_power(n: int) -> bool:
    for p in range(2, n + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return False


def _closure(subgroup: frozenset, gens: tuple) -> frozenset:
    """The packed group generated by `gens` over its subgroup `subgroup`.

    A set holding the identity and closed under left multiplication by
    the generators is the group they generate: in a finite group every
    inverse is a positive power.  Over the subgroup H such a set is a union
    of left cosets, s xH being the coset of s x, so the closure runs on
    coset reps a level at a time and takes in each new coset whole."""
    tables = [table(s) for s in gens]
    elems, level = set(subgroup), gens  # the images of 1, H's rep
    while level:
        fresh = []
        for x in filterfalse(elems.__contains__, level):
            elems.update(left_multiply(table(x), subgroup))
            fresh.append(x)
        level = list(chain.from_iterable(
            left_multiply(t, fresh) for t in tables))
    return frozenset(elems)


def _orbit(start, step) -> set:
    """The closure of the set ``start`` under ``step``, which maps a level
    (a set) to the images of its members, built a level at a time."""
    seen = level = set(start)
    while level:
        level = set(filterfalse(seen.__contains__, step(level)))
        seen |= level
    return seen


def _conjugation(s, s_inv):
    """The map from packed xs to s x s^-1 for each x in xs, computed as
    s_inv.translate(table(s x)): table(y) is y + pad for every y of the
    degree, so each per-element call is C-level."""
    t = table(s)
    pad = repeat(t[len(s):])
    return lambda xs: map(s_inv.translate, map(add, left_multiply(t, xs), pad))


class CosetAction:
    """Action of G on left cosets gK, with deterministic coset numbering.

    Cosets are numbered by their minimal element (as a tuple), sorted; the
    action permutation of g sends the index of hK to that of (gh)K.
    """

    def __init__(self, group: PermGroup, sub: PermGroup):
        if sub.degree != group.degree:
            raise NotASubgroup("degree mismatch")
        for g in sub.generators:
            if g not in group:
                raise NotASubgroup(f"generator {g!r} lies outside the group")
        self.group = group
        self.sub = sub
        elems = group.elements()
        sub_elems = set(sub.elements())
        assigned: dict = {}
        reps = []
        for g in elems:  # sorted, so the first of each coset is minimal
            if g in assigned:
                continue
            idx = len(reps)
            reps.append(g)
            for k in sub_elems:
                assigned[compose(g, k)] = idx
        self.reps = tuple(reps)
        self._coset_of = assigned
        self.size = len(reps)

    def character_value(self, g: tuple) -> int:
        return sum(
            1 for i, rep in enumerate(self.reps)
            if self._coset_of[compose(g, rep)] == i
        )


def symmetric_gens(n: int) -> list:
    """The transposition (0 1) and the n-cycle i -> i + 1, which generate
    S_n: only the transposition for n = 2, nothing for n < 2."""
    if n < 2:
        return []
    swap = (1, 0) + tuple(range(2, n))
    return [swap, tuple(range(1, n)) + (0,)] if n > 2 else [swap]


def symmetric_group(n: int) -> PermGroup:
    return PermGroup(max(n, 1), symmetric_gens(n))
