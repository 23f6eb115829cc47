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

import itertools
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
    SizeLimitExceeded,
)
from .finstruct import _rref, get_class
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

_MAX_CONFIGS = 2_000_000


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
        from .finstruct import structure_to_json

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
    """Induced representation label: canonical base plus a table row index."""

    cls: str
    base_code: str
    base_size: int
    sigma_index: int
    degree: int = field(compare=False)

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
_BASES = {}


def _register_base(class_id, base):
    cls = get_class(class_id)
    code = cls.canonical_code(base)
    _BASES.setdefault((class_id, code), base)
    return code


def base_table(class_id, base, limits=None):
    """Character table used for labels over this base.

    Symmetric-group tables (on atoms) for Boolean algebras, generic exact
    tables for everything else.
    """
    limits = limits or get_limits()
    cls = get_class(class_id)
    if class_id == "boolean_algebra":
        m = cls.size(base)
        key = (class_id, m)
        if key not in _TABLES:
            _TABLES[key] = symmetric_character_table(m)
        return _TABLES[key]
    code = _register_base(class_id, base)
    key = (class_id, code)
    if key not in _TABLES:
        aut = cls.automorphisms(base)
        _TABLES[key] = character_table(aut, limits.table_order)
    return _TABLES[key]


def _atom_table(m):
    key = ("boolean_algebra", m)
    if key not in _TABLES:
        _TABLES[key] = symmetric_character_table(m)
    return _TABLES[key]


def _atom_perm(point_perm, m):
    """Convert an automorphism on the 2**m element masks to an atom permutation."""
    sigma = []
    for k in range(m):
        img = point_perm[1 << k]
        if img & (img - 1):
            raise InvariantViolation("automorphism does not permute atoms")
        sigma.append(img.bit_length() - 1)
    return tuple(sigma)


def _labels_for_base(class_id, base, limits):
    """Labels over one nonempty normalized base, in table row order."""
    cls = get_class(class_id)
    table = base_table(class_id, base, limits)
    code = _register_base(class_id, base)
    size = cls.size(base)
    return [IrrepLabel(class_id, code, size, i, table.degrees[i])
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


def label_values(label, limits=None):
    """Character value vector of the finite part, JSON-ready."""
    limits = limits or get_limits()
    if label.base_size == 0:
        return [1]
    if label.cls == "boolean_algebra":
        table = _atom_table(label.base_size)
    else:
        base = _BASES.get((label.cls, label.base_code))
        if base is None:
            raise MalformedStructure(
                f"no registered base with code {label.base_code}")
        table = base_table(label.cls, base, limits)
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
    if v.cls == "boolean_algebra":
        m = cls.size(v.base)
        table = _atom_table(m)
        parent = symmetric_group(m)
        sub = PermGroup(m, [_atom_perm(g, m) for g in v.group.generators])
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


def _stabilizer_in_base_is_trivial(cls, t, base, marked):
    """Check that only the identity of Aut(B) fixes every marked point.

    The marked points generate the base by construction, which pins every
    automorphism: relational bases are exactly the marked points, marked
    vectors span, and marked masks separate atoms.  The premises are cheap
    to verify, so verify them rather than trust the construction.
    """
    if cls.relational:
        return set(marked) == set(range(len(base.points)))
    if cls.id in ("vector_space", "vector_space_q3"):
        dim = cls.size(base)
        vectors = [base.data[1][p] for p in marked]
        rank = len(_rref(vectors, cls.q)[0]) if vectors else 0
        return rank == dim
    m = cls.size(base)
    columns = set()
    for k in range(m):
        columns.add(tuple((mask >> k) & 1 for mask in marked))
    return len(columns) == m


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
    if class_id == "boolean_algebra":
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
                dec.add(IrrepLabel(class_id, code, m, i, table.degrees[i]),
                        count * table.degrees[i])
        return dec
    counts = {}
    sample = {}
    for t in types:
        base, marked = cls.marked_core(t)
        if len(base.points) == 0 or cls.is_fixed_only(base):
            dec.add(trivial_label(class_id), 1)
            continue
        if not _stabilizer_in_base_is_trivial(cls, t, base, marked):
            raise InvariantViolation(
                "tuple entries do not generate their closed hull")
        code = _register_base(class_id, base)
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
    raw, act = _raw_configs(cls, v, w)
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


def _raw_configs(cls, v, w):
    nB = len(v.base.points)
    nC = len(w.base.points)
    if cls.id == "pure_set":
        return _pure_configs(nB, nC), _relational_action(cls)
    if cls.id == "linear_order":
        return _linear_configs(nB, nC), _relational_action(cls)
    if cls.id == "graph":
        return (_graph_configs(v.base, w.base, nB, nC),
                _relational_action(cls))
    if cls.id in ("vector_space", "vector_space_q3"):
        return _vector_configs(cls, v, w), _vector_action(cls, v, w)
    return _boolean_configs(cls, v, w), _boolean_action(cls, v, w)


def _matchings(nB, nC):
    for t in range(min(nB, nC) + 1):
        for bsub in itertools.combinations(range(nB), t):
            for cimg in itertools.permutations(range(nC), t):
                yield tuple(sorted(zip(bsub, cimg)))


def _pure_configs(nB, nC):
    return [("match", m) for m in _matchings(nB, nC)]


def _linear_configs(nB, nC):
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


def _graph_configs(base_b, base_c, nB, nC):
    eb = base_b.data
    ec = base_c.data
    configs = []
    for matching in _matchings(nB, nC):
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


def _relational_action(cls):
    def act(config, g1, g2):
        kind = config[0]
        if kind == "match":
            matching = config[1]
            moved = tuple(sorted(
                (g1[i] if g1 else i, g2[j] if g2 else j)
                for i, j in matching))
            return ("match", moved)
        if kind == "ranks":
            rb, rc = config[1], config[2]
            if g1:
                new_rb = [0] * len(rb)
                for i, r in enumerate(rb):
                    new_rb[g1[i]] = r
                rb = tuple(new_rb)
            if g2:
                new_rc = [0] * len(rc)
                for j, r in enumerate(rc):
                    new_rc[g2[j]] = r
                rc = tuple(new_rc)
            return ("ranks", rb, rc)
        matching, cross = config[1], config[2]
        moved = tuple(sorted(
            (g1[i] if g1 else i, g2[j] if g2 else j)
            for i, j in matching))
        moved_cross = tuple(sorted(
            (g1[b] if g1 else b, g2[c] if g2 else c)
            for b, c in cross))
        return ("cross", moved, moved_cross)

    return act


def _perm_matrix(cls, perm, dim):
    """Matrix of a point permutation of the canonical space, column per basis."""
    from .finstruct import _lex_index, _lex_vector

    cols = []
    for i in range(dim):
        e = tuple(1 if j == i else 0 for j in range(dim))
        image = perm[_lex_index(e, cls.q)]
        cols.append(_lex_vector(image, cls.q, dim))
    return [[cols[j][r] for j in range(dim)] for r in range(dim)]


def _vector_configs(cls, v, w):
    from .finstruct import _relation_spaces

    dB = cls.size(v.base)
    dC = cls.size(w.base)
    q = cls.q
    configs = []
    for rows in _relation_spaces(dB + dC, q):
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


def _vector_action(cls, v, w):
    from .finstruct import _lex_index

    q = cls.q
    dB = cls.size(v.base)
    dC = cls.size(w.base)

    def act(config, g1, g2):
        rows = config[1]
        m1 = _perm_matrix(cls, inverse(g1), dB) if g1 else None
        m2 = _perm_matrix(cls, inverse(g2), dC) if g2 else None
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


def _boolean_configs(cls, v, w):
    m1 = cls.size(v.base)
    m2 = cls.size(w.base)
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


def _boolean_action(cls, v, w):
    m1 = cls.size(v.base)
    m2 = cls.size(w.base)

    def act(config, g1, g2):
        s1 = _atom_perm(g1, m1) if g1 else None
        s2 = _atom_perm(g2, m2) if g2 else None
        moved = tuple(sorted(
            (s1[i] if s1 else i, s2[j] if s2 else j)
            for i, j in config[1]))
        return ("cells", moved)

    return act


def finitely_many_left_cosets(v, config, w=None):
    """Whether the double coset of this configuration meets finitely many cosets.

    That happens exactly when the second marked copy sits inside the closed
    hull of the first, which for these classes means the copies coincide.
    The left and the right criteria are computed separately and must agree.
    """
    w = w or v
    cls = get_class(v.cls)
    nB = len(v.base.points)
    nC = len(w.base.points)
    payload = config.payload
    kind = payload[0]
    if kind == "match" or kind == "cross":
        matching = payload[1]
        left = len({j for _, j in matching}) == nC
        right = len({i for i, _ in matching}) == nB
    elif kind == "ranks":
        rb, rc = payload[1], payload[2]
        left = set(rc) <= set(rb)
        right = set(rb) <= set(rc)
    elif kind == "space":
        rows = payload[1]
        dB = cls.size(v.base)
        dC = cls.size(w.base)
        q = cls.q
        rank_right = len(_rref([r[dB:] for r in rows], q)[0]) if rows else 0
        rank_left = len(_rref([r[:dB] for r in rows], q)[0]) if rows else 0
        left = rank_right == dC
        right = rank_left == dB
    else:
        cells = payload[1]
        fibers_i = {}
        fibers_j = {}
        for i, j in cells:
            fibers_i.setdefault(i, []).append(j)
            fibers_j.setdefault(j, []).append(i)
        left = all(len(js) == 1 for js in fibers_i.values())
        right = all(len(bs) == 1 for bs in fibers_j.values())
    if v.base == w.base and left != right:
        raise InvariantViolation(
            "left and right coset finiteness disagree on equal bases")
    return left
