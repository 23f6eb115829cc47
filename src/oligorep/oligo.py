"""Open subgroups, induced-representation labels, and decompositions.

The ambient group is the automorphism group of the countable limit of one
of the built-in classes.  An open subgroup is described symbolically by a
pair ``(B, K)``: a canonical algebraically closed finite structure ``B``
and a permutation group ``K`` between the pointwise and the setwise
stabilizer of ``B``.  Irreducible representations are labeled ``(B, i)``
with ``i`` a row index into the character table of ``Aut(B)``; the trivial
representation is row 0 of the empty base's one-row table.  Bases all of
whose points are fixed elements describe the same subgroup as the empty
base and are replaced by it where they enter.

Decompositions of quasi-regular representations and of powers of the
natural action reduce to finite character theory over ``Aut(B)``.  For
Boolean algebras the table is the symmetric group table on atoms, computed
lazily, so bases far beyond the generic table limit stay cheap.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .chartab import (
    _check_table_order,
    _serialize_value,
    character_table,
    coset_character,
    symmetric_character_table,
)
from .errors import (
    BaseNotAclClosed,
    InvariantViolation,
    MalformedStructure,
    NotASubgroup,
    SizeLimitExceeded,
)
from .finstruct import REGISTRY, get_class, structure_to_json
from .limits import get_limits
from .permgrp import PermGroup, compose, inverse, validate_perm

__all__ = [
    "OpenSubgroup",
    "IrrepLabel",
    "Decomposition",
    "DoubleCosetProfile",
    "make_open_subgroup",
    "commensurator",
    "induced_equivalent",
    "enumerate_open_subgroups",
    "irrep_catalog",
    "trivial_label",
    "label_values",
    "decompose_quasiregular",
    "decompose_power",
    "tensor_recursion_check",
    "double_coset_profile",
    "finitely_many_left_cosets",
]

# ---------------------------------------------------------------------------
# open subgroups


class OpenSubgroup:
    """Symbolic open subgroup (B, K) with B canonical and K <= Aut(B)."""

    __slots__ = ("cls", "base", "group", "aut", "base_code", "_elements")

    def __init__(self, cls_id, base, group, aut):
        self.cls = cls_id
        self.base = base
        self.group = group
        self.aut = aut
        # every caller passes a canonical base, whose code needs no search
        self.base_code = get_class(cls_id)._code_of_canonical(base)
        self._elements = None

    @property
    def base_size(self):
        return get_class(self.cls).size(self.base)

    @property
    def index(self):
        """Index of K inside the full automorphism group of the base."""
        return self.aut.order // self.group.order

    def element_set(self):
        if self._elements is None:
            self._elements = frozenset(self.group.elements())
        return self._elements

    def __eq__(self, other):
        if not isinstance(other, OpenSubgroup):
            return NotImplemented
        if (self.cls, self.base_code) != (other.cls, other.base_code):
            return False
        if self.base != other.base:
            return False
        if self.group.order != other.group.order:
            return False
        if self.group.generators == other.group.generators:
            return True
        return self.element_set() == other.element_set()

    def __hash__(self):
        return hash((self.cls, self.base_code, self.group.order))

    def __repr__(self):
        return (f"OpenSubgroup({self.cls}, base_size={self.base_size}, "
                f"k_order={self.group.order})")

    def to_json(self):
        return {
            "class": self.cls,
            "base": structure_to_json(self.base),
            "base_code": self.base_code,
            "k_order": self.group.order,
            "k_generators": [list(g) for g in self.group.generators],
            "aut_order": self.aut.order,
            "index_in_commensurator": self.index,
        }


def make_open_subgroup(class_id, base, generators=()):
    """Validate, canonicalize, and normalize a symbolic open subgroup.

    ``generators`` are permutations of the positions of ``base``.  A base
    consisting entirely of fixed elements is the same subgroup as the empty
    base, and comes back normalized to it.
    """
    cls = get_class(class_id)
    cls.validate(base)
    if not cls.is_member(base):
        raise BaseNotAclClosed(
            f"base is not algebraically closed in {class_id}")
    n = len(base.points)
    for g in generators:
        validate_perm(g, n)
    canon, rel, aut_gens = cls._canonical(base)
    moved = [compose(rel, compose(tuple(g), inverse(rel))) for g in generators]
    aut = PermGroup(n, aut_gens)
    for g in moved:
        if g not in aut:
            raise NotASubgroup(
                "generator does not preserve the base structure")
    if cls.is_fixed_only(canon):
        return make_open_subgroup(class_id, cls.empty())
    return OpenSubgroup(class_id, canon, PermGroup(n, moved), aut)


def commensurator(v):
    """The commensurator of (B, K) is (B, Aut(B)); idempotent by construction."""
    return OpenSubgroup(v.cls, v.base, v.aut, v.aut)


def induced_equivalent(v, w):
    """Whether two open subgroups induce equivalent quasi-regular representations.

    True exactly when the bases are isomorphic and the finite parts are
    conjugate inside the automorphism group of the common base.
    """
    if v.cls != w.cls or v.base_code != w.base_code:
        return False
    if v.group.order != w.group.order:
        return False
    target = w.element_set()
    if frozenset(v.group.elements()) == target:
        return True
    for g in v.aut.elements():
        if all(compose(compose(g, k), inverse(g)) in target
               for k in v.group.generators):
            return True
    return False


def sweep_bases(class_id, max_base=None):
    """(canonical base, generators of Aut(B) as its enumeration found them)
    per base of size at most ``max_base`` (by default the class's limit) but
    the fixed-only ones, which give the empty base's subgroup."""
    cls = get_class(class_id)
    if max_base is None:
        max_base = get_limits().base_limit(class_id)
    return [(base, gens) for base, gens in cls._enumerate(max_base)
            if not cls.is_fixed_only(base)]


def enumerate_open_subgroups(class_id, max_base=None):
    """All open subgroups with base size at most ``max_base``, up to conjugacy."""
    out = []
    for base, gens in sweep_bases(class_id, max_base):
        aut = PermGroup(len(base.points), gens)
        subs = aut.subgroups_up_to_conjugacy() if base.points else (aut,)
        out.extend(OpenSubgroup(class_id, base, sub, aut) for sub in subs)
    return out


# ---------------------------------------------------------------------------
# labels and tables


@dataclass(frozen=True)
class IrrepLabel:
    """Induced representation label: canonical base plus a table row index.

    ``table`` is the character table the row index points into; it takes no
    part in equality, hashing or JSON.
    """

    cls: str
    base_code: str
    base_size: int
    sigma_index: int
    degree: int = field(compare=False)
    table: object = field(default=None, compare=False, repr=False)

    def is_trivial(self):
        return self.base_size == 0 and self.sigma_index == 0

    def to_json(self):
        return {
            "base_code": self.base_code,
            "base_size": self.base_size,
            "sigma_index": self.sigma_index,
            "sigma_degree": self.degree,
        }


def trivial_label(class_id):
    """The trivial representation: row 0 of the empty base's one-row table."""
    cls = get_class(class_id)
    empty = cls.empty()
    return _labels_for_base(class_id, empty, cls._code_of_canonical(empty),
                            [])[0]


_TABLES = {}


def base_table(class_id, base, code, gens):
    """Character table used for labels over this base of canonical ``code``.

    Symmetric-group tables (on atoms) for Boolean algebras, read from
    partitions: tensor-power hulls reach 16 atoms, and S_16 is far beyond
    Dixon's method, so the table is chosen here by ``atomic``, and ``gens``
    is not read.  Generic exact tables for everything else, built once per
    group: a new code builds Aut(B) from ``gens``, its generators on the
    positions of ``base``, and finds its table by the degree and sorted
    packed elements.  A group beyond the ``table_order`` bound is refused
    on every lookup, a new one before its elements are built.
    """
    cls = get_class(class_id)
    if cls.atomic:
        return _atom_table(cls.size(base))
    key = (class_id, code)
    if key not in _TABLES:
        group = PermGroup(len(base.points), gens)
        _check_table_order(group.order)
        packed = group.packed_elements()  # bytes, or str past 256 points
        elements = (group.degree, packed[0][:0].join(packed))
        if elements not in _TABLES:
            _TABLES[elements] = character_table(group)
        _TABLES[key] = _TABLES[elements]
    table = _TABLES[key]
    _check_table_order(table.group_order)
    return table


def _atom_table(m):
    key = ("boolean_algebra", m)
    if key not in _TABLES:
        _TABLES[key] = symmetric_character_table(m)
    return _TABLES[key]


def _labels_for_base(class_id, base, code, gens):
    """Labels over one normalized base, in table row order."""
    table = base_table(class_id, base, code, gens)
    size = get_class(class_id).size(base)
    return [IrrepLabel(class_id, code, size, i, table.degrees[i], table)
            for i in range(table.num_classes)]


def irrep_catalog(class_id, max_base=None):
    """All irreducible-representation labels with base size at most max_base."""
    cls = get_class(class_id)
    labels = []
    # swept bases are canonical forms, whose codes need no search
    for base, gens in sweep_bases(class_id, max_base):
        labels.extend(_labels_for_base(class_id, base,
                                       cls._code_of_canonical(base), gens))
    return labels


def label_values(label):
    """Character value vector of the finite part, JSON-ready."""
    table = label.table
    return [_serialize_value(table.value(label.sigma_index, t))
            for t in range(table.num_classes)]


# ---------------------------------------------------------------------------
# decompositions


class Decomposition:
    """Multiset of labels with multiplicities; supports exact comparison."""

    def __init__(self, terms=None):
        self.terms = {}
        for label, mult in (terms or {}).items():
            if mult:
                self.terms[label] = mult

    def __getitem__(self, label):
        return self.terms.get(label, 0)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Decomposition):
            return NotImplemented
        return self.terms == other.terms

    def __iter__(self):
        return iter(self.items())

    def items(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (kv[0].base_size, kv[0].base_code, kv[0].sigma_index))

    def add(self, label, mult):
        if mult:
            self.terms[label] = self.terms.get(label, 0) + mult

    def total_degree(self):
        return sum(label.degree * mult for label, mult in self.terms.items())

    def to_json(self):
        return [
            dict(label.to_json(), multiplicity=mult)
            for label, mult in self.items()
        ]

    def __repr__(self):
        inner = ", ".join(
            f"({label.base_size},{label.sigma_index})x{mult}"
            for label, mult in self.items())
        return f"Decomposition({inner})"


def decompose_quasiregular(v):
    """Decompose the quasi-regular representation attached to (B, K).

    The multiplicity of (B, sigma) is the multiplicity of sigma in the
    permutation character of Aut(B) acting on the cosets of K; nothing with
    a different base occurs.  K is read on the points of the table
    (``cell_group``): the atoms, for Boolean algebras.
    """
    dec = Decomposition()
    sub = get_class(v.cls).cell_group(v.group, v.base)
    labels = _labels_for_base(v.cls, v.base, v.base_code, v.aut.generators)
    table = labels[0].table
    char = coset_character(table, sub)
    for label, mult in zip(labels, table.decompose(char)):
        dec.add(label, mult)
    if dec.total_degree() != v.index:
        raise InvariantViolation(
            f"decomposition dimension {dec.total_degree()} != index {v.index}")
    return dec


def check_power(class_id, n):
    """Refuse an n-th power whose tuple length is beyond desk scale or whose
    hull groups are beyond the table bound, before any tuple is counted."""
    cls = get_class(class_id)
    cls._check_tuple_len(n)
    order, bound = cls.max_aut_order(n), get_limits().table_order
    if order is not None and order > bound:
        raise SizeLimitExceeded(
            f"{class_id} hulls of {n}-tuples have groups of order up to "
            f"{order}, beyond the table bound {bound}")


def decompose_power(class_id, n, x0_only=False):
    """Decompose the n-th power of the natural (or punctured) action.

    Every orbit of n-tuples contributes the full regular character of the
    automorphism group of its closed hull, because the tuple entries
    generate the hull and therefore have trivial stabilizer inside its
    automorphism group.  The class counts the orbits per canonical hull by
    a closed rule (``_hull_orbits``; Cameron for the relational classes)
    and hands over generators of Aut(B), so no hull is searched again for
    its table.  A hull of fixed elements is
    replaced by the empty base, whose regular character is the trivial
    label.  A tuple length beyond desk scale, or a hull group beyond the
    table bound, is refused before any tuple is counted.
    """
    cls = get_class(class_id)
    check_power(class_id, n)
    dec = Decomposition()
    for code, hull, gens, count in cls._hull_orbits(n, x0_only):
        if cls.is_fixed_only(hull):
            hull, gens = cls.empty(), []
            code = cls._code_of_canonical(hull)
        for label in _labels_for_base(class_id, hull, code, gens):
            dec.add(label, count * label.degree)
    return dec


def tensor_recursion_check(class_id, k):
    """Compare the (k+1)-st power against the binomial expansion over X0.

    The natural domain splits into the fixed elements Y and the moving part
    X0, so the (k+1)-st power decomposition must equal the sum over j of
    C(k+1, j) * |Y|**(k+1-j) copies of the j-th punctured power.  Returns a
    report with the largest residual over all labels.

    With Y empty (pure set, linear order, graph) only j = k+1 survives, and
    the (k+1)-st power, formed once, is both sides: the check is an identity
    and can fail only for vector spaces and Boolean algebras.
    """
    y = get_class(class_id).num_fixed_elements
    lhs = decompose_power(class_id, k + 1)
    rhs = Decomposition()
    for j in range(k + 2):
        coeff = math.comb(k + 1, j) * y ** (k + 1 - j)
        if coeff:
            part = (lhs if y == 0 else
                    decompose_power(class_id, j, x0_only=True))
            for label, mult in part.terms.items():
                rhs.add(label, coeff * mult)
    labels = set(lhs.terms) | set(rhs.terms)
    max_abs = max((abs(lhs[lb] - rhs[lb]) for lb in labels), default=0)
    return {
        "class": class_id,
        "k": k,
        "fixed_part_size": y,
        "labels_checked": len(labels),
        "max_abs_residual": max_abs,
        "ok": max_abs == 0,
    }


# ---------------------------------------------------------------------------
# double cosets


def _payload_json(value):
    if isinstance(value, tuple):
        return [_payload_json(v) for v in value]
    return value


@dataclass(frozen=True)
class DoubleCosetProfile:
    """V\\G/W: ``configs`` holds the payload of one joint configuration per
    double coset, sorted, as a read-only sequence.

    For graphs that sequence keeps each witness as a packed cross mask and
    decodes its payload when it is indexed or iterated; for the other
    classes it is a tuple.  Either way it equals the tuple of its payloads.
    ``runs()`` covers it in order by (first witness, count) runs of equally
    finite witnesses: one run per matching for graphs, else one per witness.
    """

    cls: str
    configs: Sequence

    @property
    def count(self):
        return len(self.configs)

    def runs(self):
        if hasattr(self.configs, "runs"):
            return self.configs.runs()
        return ((config, 1) for config in self.configs)

    def to_json(self):
        return {
            "class": self.cls,
            "count": self.count,
            "witnesses": [{"class": self.cls, "payload": _payload_json(c)}
                          for c in self.configs],
        }


def double_coset_profile(v, w=None):
    """Enumerate V\\G/W as joint configurations of the two bases.

    Raw configurations describe how a copy of W's base can sit relative to
    V's base inside the limit structure; the finite parts act by remarking
    and orbits under that action are exactly the double cosets.  The class
    finds the orbits (``double_coset_reps``); each double coset is witnessed
    by the least configuration of its orbit, and the class returns the
    witnesses sorted.  A list of witnesses is frozen into a tuple; graph
    witnesses come as a packed sequence, kept as it is and decoded on read.
    """
    w = w or v
    if v.cls != w.cls:
        raise MalformedStructure("profiles need subgroups of the same group")
    reps = get_class(v.cls).double_coset_reps(v.base, v.group, w.base, w.group)
    return DoubleCosetProfile(
        v.cls, tuple(reps) if isinstance(reps, list) else reps)


def finitely_many_left_cosets(v, config, w=None):
    """Whether the double coset of ``config``, a payload of
    ``double_coset_profile(v, w).configs``, meets finitely many cosets.

    That happens exactly when the second marked copy sits inside the closed
    hull of the first; on equal bases the copies then coincide, on unequal
    ones they need not.  Left and right are computed separately and must
    agree on equal bases.
    """
    w = w or v
    # v.cls was checked when v was built
    left, right = REGISTRY[v.cls].config_finiteness(config, v.base, w.base)
    if left != right and v.base == w.base:
        raise InvariantViolation(
            "left and right coset finiteness disagree on equal bases")
    return left
