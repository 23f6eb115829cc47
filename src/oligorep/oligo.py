"""Open subgroups, induced-representation labels, and decompositions.

The ambient group is the automorphism group of the countable limit of one
of the built-in classes.  An open subgroup is described symbolically by a
pair ``(B, K)``: a canonical algebraically closed finite structure ``B``
and a permutation group ``K`` between the pointwise and the setwise
stabilizer of ``B``.  Irreducible representations are labeled ``(B, i)``
with ``i`` a row index into the character table of ``Aut(B)``; the label
``(empty, 0)`` is the trivial representation.  Bases all of whose points
are fixed elements describe the same subgroup as the empty base and are
normalized away on construction.

Decompositions of quasi-regular representations and of powers of the
natural action reduce to finite character theory over ``Aut(B)``.  For
Boolean algebras the table is the symmetric group table on atoms, computed
lazily, so bases far beyond the generic table limit stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .chartab import (
    _serialize_value,
    character_table,
    symmetric_character_table,
)
from .errors import (
    BaseNotAclClosed,
    InvariantViolation,
    MalformedStructure,
    NotASubgroup,
)
from .finstruct import get_class, structure_to_json
from .limits import get_limits
from .permgrp import (
    CosetAction,
    PermGroup,
    compose,
    inverse,
    symmetric_group,
    validate_perm,
)

__all__ = [
    "OpenSubgroup",
    "IrrepLabel",
    "Decomposition",
    "JointConfig",
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
        self.base_code = get_class(cls_id).canonical_code(base)
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
    canon, rel = cls.canonical(base)
    moved = [compose(rel, compose(tuple(g), inverse(rel))) for g in generators]
    aut = cls.automorphisms(canon)
    for g in moved:
        if g not in aut:
            raise NotASubgroup(
                "generator does not preserve the base structure")
    if cls.is_fixed_only(canon):
        empty = cls.empty()
        trivial = PermGroup(0, [])
        return OpenSubgroup(class_id, empty, trivial, PermGroup(0, []))
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


def enumerate_open_subgroups(class_id, max_base=None, limits=None):
    """All open subgroups with base size at most ``max_base``, up to conjugacy."""
    limits = limits or get_limits()
    cls = get_class(class_id)
    if max_base is None:
        max_base = limits.base_limit(class_id)
    out = []
    for base in cls.enumerate_class(max_base):
        if cls.is_fixed_only(base):
            continue
        if len(base.points) == 0:
            out.append(make_open_subgroup(class_id, base))
            continue
        aut = cls.automorphisms(base)
        for sub in aut.subgroups_up_to_conjugacy(limits.subgroup_order):
            out.append(OpenSubgroup(class_id, base, sub, aut))
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
    cls = get_class(class_id)
    return IrrepLabel(class_id, cls.canonical_code(cls.empty()), 0, 0, 1)


_TABLES = {}


def base_table(class_id, base, limits=None):
    """Character table used for labels over this base.

    Symmetric-group tables (on atoms) for Boolean algebras, generic exact
    tables for everything else.
    """
    limits = limits or get_limits()
    cls = get_class(class_id)
    if cls.atomic:
        return _atom_table(cls.size(base))
    key = (class_id, cls.canonical_code(base))
    if key not in _TABLES:
        aut = cls.automorphisms(base)
        _TABLES[key] = character_table(aut, limits.table_order)
    return _TABLES[key]


def _atom_table(m):
    key = ("boolean_algebra", m)
    if key not in _TABLES:
        _TABLES[key] = symmetric_character_table(m)
    return _TABLES[key]


def _labels_for_base(class_id, base, limits):
    """Labels over one nonempty normalized base, in table row order."""
    cls = get_class(class_id)
    table = base_table(class_id, base, limits)
    code = cls.canonical_code(base)
    size = cls.size(base)
    return [IrrepLabel(class_id, code, size, i, table.degrees[i], table)
            for i in range(table.num_classes)]


def irrep_catalog(class_id, max_base=None, limits=None):
    """All irreducible-representation labels with base size at most max_base."""
    limits = limits or get_limits()
    cls = get_class(class_id)
    if max_base is None:
        max_base = limits.base_limit(class_id)
    labels = []
    for base in cls.enumerate_class(max_base):
        if cls.is_fixed_only(base):
            continue
        if len(base.points) == 0:
            labels.append(trivial_label(class_id))
            continue
        labels.extend(_labels_for_base(class_id, base, limits))
    return labels


def label_values(label):
    """Character value vector of the finite part, JSON-ready."""
    if label.base_size == 0:
        return [1]
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


def decompose_quasiregular(v, limits=None):
    """Decompose the quasi-regular representation attached to (B, K).

    The multiplicity of (B, sigma) is the multiplicity of sigma in the
    permutation character of Aut(B) acting on the cosets of K; nothing with
    a different base occurs.
    """
    limits = limits or get_limits()
    dec = Decomposition()
    if len(v.base.points) == 0:
        dec.add(trivial_label(v.cls), 1)
        return dec
    cls = get_class(v.cls)
    if cls.atomic:
        m = cls.size(v.base)
        table = _atom_table(m)
        parent = symmetric_group(m)
        sub = PermGroup(m, [cls.atom_perm(g, m) for g in v.group.generators])
        if v.group.order != sub.order:
            raise InvariantViolation("atom action lost part of the subgroup")
        index = parent.order // sub.order
        if sub.order == parent.order:
            char = table.perm_character(_TrivialAction(parent))
        elif sub.order == 1:
            char = _regular_character(table)
        else:
            char = table.perm_character(CosetAction(parent, sub))
    else:
        table = base_table(v.cls, v.base, limits)
        index = v.index
        if v.group.order == v.aut.order:
            char = table.perm_character(_TrivialAction(v.aut))
        elif v.group.order == 1:
            char = _regular_character(table)
        else:
            char = table.perm_character(CosetAction(v.aut, v.group))
    mults = table.decompose(char)
    labels = _labels_for_base(v.cls, v.base, limits)
    for label, mult in zip(labels, mults):
        dec.add(label, mult)
    if dec.total_degree() != index:
        raise InvariantViolation(
            f"decomposition dimension {dec.total_degree()} != index {index}")
    return dec


class _TrivialAction:
    """Coset action of a group on itself: one point, everything fixed."""

    def __init__(self, group):
        self.degree = 1

    def character_value(self, g):
        return 1


def _regular_character(table):
    values = [0] * table.num_classes
    values[0] = table.group_order
    return tuple(values)


def decompose_power(class_id, n, x0_only=False, limits=None):
    """Decompose the n-th power of the natural (or punctured) action.

    Every orbit of n-tuples contributes the full regular character of the
    automorphism group of its closed hull, because the tuple entries
    generate the hull and therefore have trivial stabilizer inside its
    automorphism group.  Orbits whose hull consists of fixed elements
    contribute one copy of the trivial label each.
    """
    limits = limits or get_limits()
    cls = get_class(class_id)
    types = cls.enumerate_tuple_types(n, x0_only=x0_only)
    dec = Decomposition()
    if cls.atomic:
        counts = {}
        for t in types:
            m = bin(t.data).count("1")
            counts[m] = counts.get(m, 0) + 1
        for m, count in sorted(counts.items()):
            if m <= 1:
                dec.add(trivial_label(class_id), count)
                continue
            table = _atom_table(m)
            code = cls.code_for_atoms(m)
            for i in range(table.num_classes):
                dec.add(IrrepLabel(class_id, code, m, i, table.degrees[i],
                                   table),
                        count * table.degrees[i])
        return dec
    counts = {}
    sample = {}
    for t in types:
        base, marked = cls.marked_core(t)
        if len(base.points) == 0 or cls.is_fixed_only(base):
            dec.add(trivial_label(class_id), 1)
            continue
        # The marked points generate the base by construction, which pins
        # every automorphism; the premise is cheap to verify, so verify it.
        if not cls.stabilizer_is_trivial(base, marked):
            raise InvariantViolation(
                "tuple entries do not generate their closed hull")
        code = cls.canonical_code(base)
        counts[code] = counts.get(code, 0) + 1
        sample[code] = base
    for code in sorted(counts):
        base = sample[code]
        labels = _labels_for_base(class_id, base, limits)
        for label in labels:
            dec.add(label, counts[code] * label.degree)
    return dec


def tensor_recursion_check(class_id, k, limits=None):
    """Compare the (k+1)-st power against the binomial expansion over X0.

    The natural domain splits into the fixed elements Y and the moving part
    X0, so the (k+1)-st power decomposition must equal the sum over j of
    C(k+1, j) * |Y|**(k+1-j) copies of the j-th punctured power.  Returns a
    report with per-label residuals.
    """
    limits = limits or get_limits()
    cls = get_class(class_id)
    y = cls.num_fixed_elements
    lhs = decompose_power(class_id, k + 1, limits=limits)
    rhs = Decomposition()
    for j in range(k + 2):
        coeff = math.comb(k + 1, j) * y ** (k + 1 - j)
        if coeff == 0:
            continue
        part = decompose_power(class_id, j, x0_only=True, limits=limits)
        for label, mult in part.terms.items():
            rhs.add(label, coeff * mult)
    labels = set(lhs.terms) | set(rhs.terms)
    residuals = {label: lhs[label] - rhs[label] for label in labels}
    max_abs = max((abs(r) for r in residuals.values()), default=0)
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


@dataclass(frozen=True)
class JointConfig:
    """One double coset: the relative position of two marked base copies."""

    cls: str
    payload: tuple

    def to_json(self):
        return {"class": self.cls, "payload": _payload_json(self.payload)}


def _payload_json(value):
    if isinstance(value, (tuple, frozenset)):
        items = sorted(value) if isinstance(value, frozenset) else value
        return [_payload_json(v) for v in items]
    return value


@dataclass(frozen=True)
class DoubleCosetProfile:
    cls: str
    configs: tuple

    @property
    def count(self):
        return len(self.configs)

    def to_json(self):
        return {
            "class": self.cls,
            "count": self.count,
            "witnesses": [c.to_json() for c in self.configs],
        }


def double_coset_profile(v, w=None, limits=None):
    """Enumerate V\\G/W as joint configurations of the two bases.

    Raw configurations describe how a copy of W's base can sit relative to
    V's base inside the limit structure; the finite parts act by remarking
    and orbits under that action are exactly the double cosets.
    """
    limits = limits or get_limits()
    w = w or v
    if v.cls != w.cls:
        raise MalformedStructure("profiles need subgroups of the same group")
    cls = get_class(v.cls)
    raw = cls.joint_configs(v.base, w.base)
    act = cls.config_action(v.base, w.base)
    gens = ([(g, None) for g in v.group.generators]
            + [(None, g) for g in w.group.generators])
    seen = set()
    reps = []
    for config in raw:
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
    return DoubleCosetProfile(v.cls, tuple(
        JointConfig(v.cls, payload) for payload in sorted(reps)))


def finitely_many_left_cosets(v, config, w=None):
    """Whether the double coset of this configuration meets finitely many cosets.

    That happens exactly when the second marked copy sits inside the closed
    hull of the first, which for these classes means the copies coincide.
    The left and the right criteria are computed separately and must agree.
    """
    w = w or v
    left, right = get_class(v.cls).config_finiteness(
        config.payload, v.base, w.base)
    if v.base == w.base and left != right:
        raise InvariantViolation(
            "left and right coset finiteness disagree on equal bases")
    return left
