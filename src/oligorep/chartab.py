"""Exact character tables of finite groups.

Dixon's modular method (Dixon 1967): compute the table of a permutation
group over a prime field F_p with p = 1 (mod group exponent), split the
class algebra into common eigenvectors of class matrices 1, 2, ... (class 0
is the identity, whose matrix is I), each characteristic polynomial from a
Hessenberg form mod p, read off degrees and character values mod p, and
lift to exact cyclotomic integers through eigenvalue multiplicities.  The
split reads class matrix r only in the rows at the pivots of the spaces it
has not yet cut into lines, so only those rows are built (Schneider 1990,
"Dixon's character table algorithm revisited"): row s costs |C_r| products,
since counting the triples xy = z two ways gives |C_t| a[r][s][t] = |C_s|
#{x in C_r : x rep_s in C_t}.  Classes, rows and coset characters read the
group's packed elements (``permgrp``), so each product is one ``translate``
of a packed element.  Each exact value of the lift and each row
orthogonality sum (the column relations follow) is added up in one exponent
dict by ``_mul_acc``, as in ``Cyc.__mul__``, with no Cyc per term.  A table
failing them is a bug, hence InvariantViolation.

Symmetric groups additionally get an independent construction from
partition combinatorics (hook lengths, Murnaghan-Nakayama border strips)
whose values are computed lazily; it scales far past the point where
materializing group elements stops being reasonable.

The number theory is exact and small: p is the least prime found by trial
division on the progression 1 + e*n above the bounds, its least primitive
root is checked against the prime factors of p - 1, and Phi_e is the
product of (x^d - 1)^mu(e/d) over the divisors d of e, divided exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvariantViolation, NotACharacter, SizeLimitExceeded
from .finstruct import _rref
from .limits import get_limits
from .permgrp import (PermGroup, cycle_type, inverse, left_multiply, pack,
                      power, table, unpack)


# ---------------------------------------------------------------------------
# Cyclotomic integers
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n, increasing, by trial division."""
    factors, q = [], 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return factors + [n] if n > 1 else factors


def _primitive_root(p: int) -> int:
    """Least generator of the multiplicative group of the prime field F_p."""
    factors = _prime_factors(p - 1)
    return next(g for g in range(1, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def _times_binomial(poly: list, d: int) -> list:
    """poly * (x^d - 1), coefficients constant term first."""
    return [b - a for a, b in zip(poly + [0] * d, [0] * d + poly)]


@lru_cache(maxsize=None)
def _cyclotomic(e: int) -> tuple:
    """Integer coefficients of Phi_e, constant term first.

    Phi_e is the product of (x^d - 1)^mu(e/d) over d = e / (a product of
    distinct primes of e), the divisors where mu is not 0: multiply by the
    binomials of mu = +1, then divide exactly by those of mu = -1, in
    O(tau(e) e) operations.
    """
    primes = _prime_factors(e)
    num, dens = [1], []
    for r in range(len(primes) + 1):
        for divisor in itertools.combinations(primes, r):
            d = e // math.prod(divisor)
            if r % 2:
                dens.append(d)
            else:
                num = _times_binomial(num, d)
    for d in dens:
        # num = quot * (x^d - 1) reads num[i] = quot[i - d] - quot[i]
        quot = []
        for i in range(len(num) - d):
            quot.append((quot[i - d] if i >= d else 0) - num[i])
        if _times_binomial(quot, d) != num:
            raise InvariantViolation(f"Phi_{e}: x^{d} - 1 leaves a remainder")
        num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _phi_data(e: int):
    """Degree of the e-th cyclotomic polynomial and reduction rows.

    rows[j] expresses zeta_e^j in the power basis 1, zeta, ..., zeta^(d-1)
    as a sparse {exponent: coeff} dict, for 0 <= j <= 2e - 2 (enough for
    products of reduced elements and for Galois twists).
    """
    coeffs = _cyclotomic(e)
    deg = len(coeffs) - 1
    rows = [{j: 1} for j in range(deg)]
    rows.append({k: -c for k, c in enumerate(coeffs[:-1]) if c})
    while len(rows) < 2 * e - 1:  # zeta^j = zeta^(j-1) * zeta
        acc = _mul_acc({}, rows[-1].items(), ((1, 1),), 1, deg, rows)
        rows.append({k: v for k, v in acc.items() if v})
    return deg, tuple(rows)


def _make_cyc(e: int, acc: dict) -> "Cyc":
    return Cyc(e, tuple(sorted((k, v) for k, v in acc.items() if v)))


def _mul_acc(acc: dict, xs, ys, c: int, deg: int, rows) -> dict:
    """acc += c * x * y, returning acc, for x and y given by (exponent,
    coefficient) terms and acc an exponent dict in the power basis of
    degree deg, with rows = _phi_data(e)[1] reducing every exponent sum."""
    for e1, c1 in xs:
        for e2, c2 in ys:
            s, v = e1 + e2, c * c1 * c2
            if s < deg:
                acc[s] = acc.get(s, 0) + v
            else:
                for k, r in rows[s].items():
                    acc[k] = acc.get(k, 0) + v * r
    return acc


@dataclass(frozen=True)
class Cyc:
    """Element of Z[zeta_e] in the power basis, stored sparsely.

    terms is a sorted tuple of (exponent, coefficient) pairs with exponent
    below deg(Phi_e) and nonzero integer coefficients.
    """

    e: int
    terms: tuple

    @staticmethod
    def from_int(e: int, n: int) -> "Cyc":
        return Cyc(e, ((0, n),) if n else ())

    @staticmethod
    def root(e: int, k: int) -> "Cyc":
        """zeta_e^k, reduced.  Public API, pinned by the original tests."""
        return _make_cyc(e, _phi_data(e)[1][k % e])

    def _coerce(self, other):
        if isinstance(other, int):
            return Cyc.from_int(self.e, other)
        if isinstance(other, Cyc):
            if other.e != self.e:
                raise ValueError("mixed cyclotomic orders")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        acc = dict(self.terms)
        for k, v in other.terms:
            acc[k] = acc.get(k, 0) + v
        return _make_cyc(self.e, acc)

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.e, tuple((k, -v) for k, v in self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Cyc(self.e, ())
            return Cyc(self.e, tuple((k, v * other) for k, v in self.terms))
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return _make_cyc(self.e, _mul_acc({}, self.terms, other.terms, 1,
                                          *_phi_data(self.e)))

    __rmul__ = __mul__

    def galois(self, j: int) -> "Cyc":
        """Apply zeta -> zeta^j; j must be prime to e for an automorphism."""
        terms = [(exp * j % self.e, c) for exp, c in self.terms]
        return _make_cyc(self.e, _mul_acc({}, terms, ((0, 1),), 1,
                                          *_phi_data(self.e)))

    def conj(self) -> "Cyc":
        return self.galois(self.e - 1)

    def is_int(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == 0)

    def as_int(self) -> int:
        if not self.terms:
            return 0
        if len(self.terms) == 1 and self.terms[0][0] == 0:
            return self.terms[0][1]
        raise ValueError(f"not a rational integer: {self!r}")

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_int() and self.as_int() == other
        if isinstance(other, Cyc):
            return self.e == other.e and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        if self.is_int():
            return hash(self.as_int())
        return hash((self.e, self.terms))

    def __repr__(self):
        if self.is_int():
            return f"Cyc({self.as_int()})"
        body = " + ".join(f"{c}*z{self.e}^{k}" for k, c in self.terms)
        return f"Cyc({body})"


def value_sort_key(v) -> tuple:
    """Total order on table values: descending in leading coefficients so
    the all-ones (trivial) row precedes the sign row among equal degrees."""
    if isinstance(v, int):
        v = Cyc.from_int(1, v)
    return tuple((exp, -c) for exp, c in v.terms)


def _serialize_value(v):
    if isinstance(v, int):
        return v
    if v.is_int():
        return v.as_int()
    deg, _ = _phi_data(v.e)
    dense = [0] * deg
    for k, c in v.terms:
        dense[k] = c
    return {"order": v.e, "coeffs": dense}


# ---------------------------------------------------------------------------
# Mod-p linear algebra
# ---------------------------------------------------------------------------

def _charpoly_modp(b, p):
    """Monic characteristic polynomial of b over F_p, highest coefficient
    first, in O(d^3): b is brought to upper Hessenberg form h by
    similarities, then the leading i x i blocks' polynomials follow from
    the subdiagonal recurrence (Cohen, A Course in Computational Algebraic
    Number Theory, 2.2)."""
    d = len(b)
    h = [[x % p for x in row] for row in b]
    for m in range(1, d - 1):
        i = next((i for i in range(m, d) if h[i][m - 1]), None)
        if i is None:
            continue
        h[i], h[m] = h[m], h[i]
        for row in h:
            row[i], row[m] = row[m], row[i]
        inv = pow(h[m][m - 1], p - 2, p)
        for i in range(m + 1, d):
            u = h[i][m - 1] * inv % p
            if u:  # row i -= u row m, then column m += u column i
                h[i] = [(x - u * y) % p for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
    # polys[i]: the leading i x i block's polynomial, constant term first
    polys = [[1]]
    for m in range(d):
        nxt = [0] + polys[m]
        for j, c in enumerate(polys[m]):
            nxt[j] -= h[m][m] * c
        t = 1
        for i in range(1, m + 1):
            t = t * h[m - i + 1][m - i] % p
            if not t:
                break
            coeff = h[m - i][m] * t
            for j, c in enumerate(polys[m - i]):
                nxt[j] -= coeff * c
        polys.append([c % p for c in nxt])
    return polys[d][::-1]


def _poly_roots_modp(cs, p):
    roots = []
    for lam in range(p):
        acc = 0
        for c in cs:
            acc = (acc * lam + c) % p
        if acc == 0:
            roots.append(lam)
    return roots


def _nullspace_modp(mat, p):
    rows, pivots = _rref(mat, p)
    m = len(mat[0])
    pivset = set(pivots)
    basis = []
    for c in range(m):
        if c in pivset:
            continue
        v = [0] * m
        v[c] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-rows[i][c]) % p
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Dixon's method
# ---------------------------------------------------------------------------

def _choose_prime(order: int, exponent: int, num_classes: int) -> int:
    # p = 1 (mod e) so F_p contains the needed roots of unity; p > 2*sqrt(|G|)
    # so degrees and multiplicities lift uniquely.  The Hessenberg charpoly
    # divides by no k, but the floor p > k stays: it chose the primes that
    # tables report as ``prime``, and a lower one would change them.
    floor = max(math.isqrt(4 * order) + 1, num_classes + 1, 3)
    p = exponent + 1
    while p < floor or not _is_prime(p):
        p += exponent
    return p


class _Table:
    """What both table types share: ``num_classes``, ``group_order``,
    ``class_sizes``, ``class_reps``, ``value(i, t)``, ``class_of_packed(g)``
    and ``_tstar[t]``, the class of the inverses of class t's members."""

    def perm_character(self, action) -> tuple:
        """Fixed-point counts of class representatives under a CosetAction."""
        return tuple(action.character_value(g) for g in self.class_reps)

    def decompose(self, values) -> tuple:
        """Multiplicity of each row in the class function ``values``."""
        if len(values) != self.num_classes:
            raise NotACharacter(
                f"expected {self.num_classes} class values, got {len(values)}"
            )
        order, tstar, sizes = self.group_order, self._tstar, self.class_sizes
        mults = []
        for i in range(self.num_classes):
            acc = 0
            for t, v in enumerate(values):
                if v != 0:
                    acc = acc + self.value(i, tstar[t]) * v * sizes[t]
            if isinstance(acc, Cyc):
                if not acc.is_int():
                    raise NotACharacter(f"inner product with row {i} is irrational")
                acc = acc.as_int()
            if acc % order:
                raise NotACharacter(
                    f"multiplicity of row {i} is {acc}/{order}, not integral"
                )
            m = acc // order
            if m < 0:
                raise NotACharacter(f"multiplicity of row {i} is negative: {m}")
            mults.append(m)
        return tuple(mults)


class CharacterTable(_Table):
    """Exact character table with deterministic class and row order.

    Classes sorted by (size, element order, cycle type, representative);
    rows by (degree, value vector) under value_sort_key.  Values are Cyc
    over Q(zeta_e), e the group exponent.  ``class_reps[t]`` is a member
    of class t, as both table types list their classes.
    """

    def __init__(self, group: PermGroup, classes, class_index, exponent,
                 prime, degrees, rows):
        self.classes = classes
        self.class_index = class_index
        self.exponent = exponent
        self.prime = prime
        self.degrees = degrees
        self.rows = rows
        self.group_order = group.order
        self.num_classes = len(classes)
        self.class_sizes = tuple(c.size for c in classes)
        self.class_orders = tuple(c.order for c in classes)
        self.class_reps = tuple(c.rep for c in classes)
        self._tstar = tuple(class_index[pack(inverse(c.rep))] for c in classes)

    def value(self, i: int, t: int) -> Cyc:
        return self.rows[i][t]

    def class_of_packed(self, g: bytes | str) -> int:
        return self.class_index[g]


def _class_matrix_row(members_r, rep_s, size_s, class_index, sizes) -> list:
    """Row s of class matrix r: a[r][s][t] = #{(x, y) in C_r x C_s : xy =
    rep_t} for every t, as |C_s| #{x in C_r : x rep_s in C_t} / |C_t|, all
    packed.  It counts rep_s x, a left product by one table, in place of
    x rep_s: rep_s x = rep_s (x rep_s) rep_s^-1 lies in the same class, so
    every count is the same."""
    counts = [0] * len(sizes)
    for t in map(class_index.__getitem__,
                 left_multiply(table(rep_s), members_r)):
        counts[t] += 1
    row = []
    for count, size in zip(counts, sizes):
        a, rem = divmod(count * size_s, size)
        if rem:
            raise InvariantViolation(
                f"class multiplication count {count * size_s}/{size} "
                "is not an integer")
        row.append(a)
    return row


def _check_table_order(order: int) -> None:
    """Refuse a group of this order above the ``table_order`` limit."""
    bound = get_limits().table_order
    if order > bound:
        raise SizeLimitExceeded(
            f"table of a group of order {order} is beyond the table bound "
            f"{bound}")


def character_table(group: PermGroup) -> CharacterTable:
    """Exact character table by Dixon's modular method.  A group above the
    ``table_order`` limit is refused by its order, before any element."""
    order = group.order
    _check_table_order(order)
    classes, class_index = group.class_data()
    k = len(classes)
    if classes[0].order != 1:
        raise InvariantViolation("identity class did not sort first")
    exponent = math.lcm(*(c.order for c in classes))
    p = _choose_prime(order, exponent, k)
    z = _primitive_root(p)

    reps = [pack(c.rep) for c in classes]
    sizes = [c.size for c in classes]
    members = [[] for _ in range(k)]
    for g, t in class_index.items():
        members[t].append(g)

    # split F_p^k into common eigenvectors of class matrices r = 1, 2, ...
    # (class 0's is I and splits nothing); a space's restriction is read off
    # the rows of r at its pivots, which are the only rows built (Schneider
    # 1990), each once per r
    spaces = [_rref([[int(i == j) for j in range(k)] for i in range(k)], p)]
    for r in range(1, k):
        if all(len(rows) == 1 for rows, _ in spaces):
            break
        a_rows: dict = {}
        nxt = []
        for rows, pivots in spaces:
            d = len(rows)
            if d == 1:
                nxt.append((rows, pivots))
                continue
            for s in pivots:
                if s not in a_rows:
                    a_rows[s] = [x % p for x in _class_matrix_row(
                        members[r], reps[s], sizes[s], class_index, sizes)]
            b = [[sum(map(int.__mul__, a_rows[s], w)) % p for w in rows]
                 for s in pivots]
            split_dim = 0
            for lam in _poly_roots_modp(_charpoly_modp(b, p), p):
                shifted = [[(x - lam * (i == j)) % p for j, x in enumerate(bi)]
                           for i, bi in enumerate(b)]
                block = _nullspace_modp(shifted, p)
                if not block:
                    continue
                lifted = [[sum(cv * w[c] for cv, w in zip(coords, rows)) % p
                           for c in range(k)] for coords in block]
                nxt.append(_rref(lifted, p))
                split_dim += len(block)
            if split_dim != d:
                raise InvariantViolation(
                    "class matrix restriction is not diagonalizable")
        spaces = nxt
    if any(len(rows) != 1 for rows, _ in spaces):
        raise InvariantViolation("class algebra did not split into lines")

    omegas = []
    for rows, _ in spaces:
        v = rows[0]
        if v[0] == 0:
            raise InvariantViolation("eigenvector vanishes at the identity class")
        inv0 = pow(v[0], p - 2, p)
        omegas.append([x * inv0 % p for x in v])

    tstar = [class_index[pack(inverse(c.rep))] for c in classes]
    inv_sizes = [pow(n, p - 2, p) for n in sizes]

    chars_p = []
    degrees = []
    for w in omegas:
        s = sum(w[t] * w[tstar[t]] % p * inv_sizes[t] for t in range(k)) % p
        dsq = order % p * pow(s, p - 2, p) % p
        d = next((x for x in range(p // 2 + 1) if x * x % p == dsq), None)
        if d is None:
            raise InvariantViolation("degree is not a square mod p")
        degrees.append(d)
        chars_p.append([d * w[t] % p * inv_sizes[t] % p for t in range(k)])
    if sum(d * d for d in degrees) != order:
        raise InvariantViolation("degrees fail sum-of-squares identity")

    # lift to Z[zeta_e]: chi(g) = sum_j m_j zeta_o^j with m_j the eigenvalue
    # multiplicities, recovered by discrete Fourier inversion mod p
    pow_classes = [[class_index[pack(power(c.rep, l))] for l in range(c.order)]
                   for c in classes]
    z_e = pow(z, (p - 1) // exponent, p)
    # zeta_o^m mod p for 0 <= m < o, one list per element order o
    z_pows = {o: [pow(z, (p - 1) // o * m, p) for m in range(o)]
              for o in {c.order for c in classes}}

    rows_exact = []
    for i in range(k):
        chi = chars_p[i]
        row = []
        for t, c in enumerate(classes):
            o, zo_pow, inv_o = c.order, z_pows[c.order], pow(c.order, p - 2, p)
            ms = [sum(chi[x] * zo_pow[-j * l % o]
                      for l, x in enumerate(pow_classes[t])) * inv_o % p
                  for j in range(o)]
            if sum(ms) != degrees[i]:
                raise InvariantViolation(
                    "eigenvalue multiplicities do not sum to the degree")
            # sum_j m_j zeta_e^(j e/o), added up in one exponent dict
            terms = [(j * (exponent // o), m) for j, m in enumerate(ms) if m]
            val = _make_cyc(exponent, _mul_acc({}, terms, ((0, 1),), 1,
                                               *_phi_data(exponent)))
            if sum(a * pow(z_e, exp, p) for exp, a in val.terms) % p != chi[t]:
                raise InvariantViolation("cyclotomic lift disagrees mod p")
            row.append(val)
        rows_exact.append(row)

    order_idx = sorted(
        range(k),
        key=lambda i: (degrees[i], tuple(value_sort_key(v) for v in rows_exact[i])),
    )
    degrees = tuple(degrees[i] for i in order_idx)
    rows_exact = tuple(tuple(rows_exact[i]) for i in order_idx)

    table = CharacterTable(group, classes, class_index, exponent, p,
                           degrees, rows_exact)
    _verify_orthogonality(table)
    return table


def _verify_orthogonality(table: CharacterTable) -> None:
    """Check the row orthogonality relations of a square table exactly.

    The column relations follow.  With D = diag(|C_t|) and Y[j][t] =
    X[j][t*], the row relations say X D Y^T = |G| I (pairs i <= j suffice:
    t -> t* keeps |C_t| and swaps the two sides).  A square X then has the
    inverse D Y^T / |G|, which is also a left inverse, so Y^T X = |G| D^-1,
    and transposing gives X^T Y = |G| D^-1: the column relations, exactly,
    since the values lie in a field.
    """
    k = table.num_classes
    order = table.group_order
    rows = table.rows
    sizes = table.class_sizes
    tstar = table._tstar
    if len(rows) != k or any(len(row) != k for row in rows):
        raise InvariantViolation(
            f"character table is not square: {len(rows)} rows, {k} classes")
    phi = _phi_data(table.exponent)
    for i in range(k):
        for j in range(i, k):
            acc: dict = {}
            for t in range(k):
                _mul_acc(acc, rows[i][t].terms, rows[j][tstar[t]].terms,
                         sizes[t], *phi)
            value = _make_cyc(table.exponent, acc)
            if value != (order if i == j else 0):
                raise InvariantViolation(
                    f"row orthogonality fails at ({i}, {j}): {value!r}"
                )


# ---------------------------------------------------------------------------
# Symmetric groups via partitions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def partitions_of(m: int) -> tuple:
    """All partitions of m as descending tuples, lexicographically descending."""
    if m == 0:
        return ((),)
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(m, m, ())
    return tuple(out)


def _z_lambda(lam: tuple) -> int:
    return math.prod(k ** lam.count(k) * math.factorial(lam.count(k))
                     for k in set(lam))


def _conjugate(lam: tuple) -> tuple:
    if not lam:
        return ()
    return tuple(
        sum(1 for part in lam if part > j) for j in range(lam[0])
    )


def hook_degree(lam: tuple) -> int:
    m = sum(lam)
    conj = _conjugate(lam)
    prod = 1
    for i, li in enumerate(lam):
        for j in range(li):
            prod *= li - j + conj[j] - i - 1
    return math.factorial(m) // prod


@lru_cache(maxsize=None)
def mn_value(lam: tuple, mu: tuple) -> int:
    """Character value chi_lam(mu) by border-strip removal on beta numbers."""
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    n = len(lam)
    beta = [lam[i] + n - 1 - i for i in range(n)]
    bset = set(beta)
    total = 0
    for b in beta:
        c = b - k
        if c < 0 or c in bset:
            continue
        height = sum(1 for x in beta if c < x < b)
        nb = sorted((x if x != b else c for x in beta), reverse=True)
        nlam = tuple(
            part for part in (nb[i] - (n - 1 - i) for i in range(n)) if part
        )
        total += (-1) ** height * mn_value(nlam, rest)
    return total


class SymmetricCharacterTable(_Table):
    """Character table of S_m indexed by partitions, values computed lazily.

    Same class ordering convention as CharacterTable; rows are ordered by
    (degree, partition descending) instead of full value vectors so that
    a row's identity never forces evaluating the whole table.
    ``class_reps[t]`` is a permutation of range(m) of cycle type
    ``class_partitions[t]``.
    """

    def __init__(self, m: int):
        self.m = m
        self.group_order = math.factorial(m)
        parts = partitions_of(m)
        # each partition's class size, order and degree, computed once
        self.class_sizes, self.class_orders, classes = zip(*sorted(
            (self.group_order // _z_lambda(lam), math.lcm(*lam), lam)
            for lam in parts))
        self.class_partitions = classes
        self.class_reps = tuple(_partition_rep(m, lam) for lam in classes)
        self._class_idx = {lam: i for i, lam in enumerate(classes)}
        self.degrees, _, self.irrep_partitions = zip(*sorted(
            (hook_degree(lam), tuple(-p for p in lam), lam) for lam in parts))
        self.num_classes = len(classes)
        # every class of S_m is closed under inversion
        self._tstar = tuple(range(self.num_classes))

    def value(self, i: int, t: int) -> int:
        return mn_value(self.irrep_partitions[i], self.class_partitions[t])

    def class_of_packed(self, g: bytes | str) -> int:
        return self._class_idx[cycle_type(unpack(g))]


def _partition_rep(m: int, lam: tuple) -> tuple:
    out = list(range(m))
    start = 0
    for part in lam:
        for i in range(part):
            out[start + i] = start + (i + 1) % part
        start += part
    return tuple(out)


def symmetric_character_table(m: int) -> SymmetricCharacterTable:
    return SymmetricCharacterTable(m)


def coset_character(table, sub: PermGroup) -> tuple:
    """Permutation character of G on the cosets of ``sub``, by class counting.

    ``table`` is either table type of G and ``sub`` a subgroup of G on the
    points of the table's class representatives.  Frobenius' formula gives
    the value on the class C_t as |G| |sub & C_t| / (|sub| |C_t|), so only
    the elements of ``sub`` are enumerated, never the cosets.
    """
    if sub.order == table.group_order:
        # One coset.  Decided before enumerating: a symmetric table's S_m is
        # not bounded by the table order limit, so sub could be all of it.
        return (1,) * table.num_classes
    counts = [0] * table.num_classes
    for g in sub.packed_elements():
        counts[table.class_of_packed(g)] += 1
    values = []
    for count, size in zip(counts, table.class_sizes):
        value, rem = divmod(table.group_order * count, sub.order * size)
        if rem:
            raise InvariantViolation(
                f"coset character value {table.group_order * count}/"
                f"{sub.order * size} is not an integer")
        values.append(value)
    return tuple(values)
