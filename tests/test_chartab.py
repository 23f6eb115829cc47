import copy
import itertools
import json
import math
import os
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from oligorep import chartab, oligo
from oligorep.acceptance import CLASS_IDS
from oligorep.chartab import (
    Cyc,
    CharacterTable,
    SymmetricCharacterTable,
    _cyclotomic,
    _is_prime,
    _primitive_root,
    _serialize_value,
    character_table,
    coset_character,
    hook_degree,
    mn_value,
    partitions_of,
    symmetric_character_table,
)
from oligorep.errors import (InvariantViolation, NotACharacter,
                             SizeLimitExceeded)
from oligorep.finstruct import get_class
from oligorep.permgrp import (
    CosetAction,
    PermGroup,
    compose,
    from_cycles,
    identity,
    inverse,
    pack,
    symmetric_group,
)


def stabilizer_of_0(n):
    """The stabilizer of 0 in S_n, n >= 3, as Sym({1, ..., n-1})."""
    K = PermGroup(n, [from_cycles(n, [tuple(range(1, n))]),
                      from_cycles(n, [(1, 2)])])
    assert set(K.elements()) == {
        g for g in symmetric_group(n).elements() if g[0] == 0}
    return K


# -- cyclotomic arithmetic ----------------------------------------------------

def test_cyc_basics():
    z4 = Cyc.root(4, 1)
    assert z4 * z4 == -1
    assert z4 * z4 * z4 * z4 == 1
    assert z4.conj() == -z4
    assert (z4 + 1) - z4 == 1
    assert Cyc.from_int(4, 0).is_int()
    assert Cyc.from_int(4, 0).as_int() == 0


def test_cyc_third_roots():
    z = Cyc.root(3, 1)
    assert z + Cyc.root(3, 2) + 1 == 0
    assert z * z == Cyc.root(3, 2)
    assert (z * z.conj()) == 1
    assert not z.is_int()
    with pytest.raises(ValueError):
        z.as_int()


def test_cyc_norm_of_gauss_sum():
    # (z5 + z5^4) * (z5^2 + z5^3) = z5 + z5^2 + z5^3 + z5^4 = -1
    a = Cyc.root(5, 1) + Cyc.root(5, 4)
    b = Cyc.root(5, 2) + Cyc.root(5, 3)
    assert a * b == -1
    assert a + b == -1


# -- number theory ------------------------------------------------------------

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _mult_order(g, p):
    k, x = 1, g % p
    while x != 1:
        k, x = k + 1, x * g % p
    return k


def test_is_prime_agrees_with_a_sieve():
    n = 10**4
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, n, i))
    assert [m for m in range(n) if _is_prime(m)] == [
        m for m in range(n) if sieve[m]]


def test_primitive_root_is_the_least_generator():
    for p in filter(_is_prime, range(2000)):
        g = _primitive_root(p)
        assert _mult_order(g, p) == p - 1, p
        assert all(_mult_order(h, p) < p - 1 for h in range(1, g)), p


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    for n in range(1, 121):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul(prod, _cyclotomic(d))
        assert prod == [-1] + [0] * (n - 1) + [1], n


def test_first_cyclotomic_coefficient_outside_plus_minus_one():
    assert all(set(_cyclotomic(n)) <= {-1, 0, 1} for n in range(1, 105))
    assert -2 in _cyclotomic(105)


def test_number_theory_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory.residue_ntheory import primitive_root

    x = sympy.Symbol("x")
    for e in range(1, 121):
        coeffs = sympy.Poly(sympy.cyclotomic_poly(e, x), x).all_coeffs()
        assert list(_cyclotomic(e)) == [int(c) for c in reversed(coeffs)], e
    for n in range(5000):
        assert _is_prime(n) == sympy.isprime(n), n
        if _is_prime(n):
            assert _primitive_root(n) == primitive_root(n), n


@lru_cache(maxsize=None)
def _reference_cyclotomic(e):
    """Phi_e as x^e - 1 divided exactly by Phi_d for every proper divisor d
    of e, recursively: an independent reference for ``_cyclotomic``."""
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d:
            continue
        den = _reference_cyclotomic(d)
        m = len(den) - 1
        terms = [(j, dj) for j, dj in enumerate(den) if dj]
        quot = [0] * (len(num) - m)
        for i in range(len(quot) - 1, -1, -1):
            c = quot[i] = num[i + m]
            if c:
                for j, dj in terms:
                    num[i + j] -= c * dj
        assert not any(num), (d, e)
        num = quot
    return tuple(num)


def test_cyclotomic_matches_the_recursive_division():
    for e in range(1, 1001):
        assert _cyclotomic(e) == _reference_cyclotomic(e), e


def test_a_cyclotomic_division_with_a_remainder_fails_loudly(monkeypatch):
    # with 2 read as a double prime factor of 12 the binomials are
    # (x^12 - 1)(x^3 - 1) over (x^6 - 1)^2, and x^6 - 1 does not divide
    # (x^6 + 1)(x^3 - 1)
    monkeypatch.setattr(chartab, "_prime_factors", lambda n: [2, 2])
    chartab._cyclotomic.cache_clear()
    try:
        with pytest.raises(InvariantViolation):
            _cyclotomic(12)
    finally:
        chartab._cyclotomic.cache_clear()


def test_a_wrong_primitive_root_fails_loudly(monkeypatch):
    monkeypatch.setattr(chartab, "_primitive_root", lambda p: p - 1)
    with pytest.raises(InvariantViolation):
        character_table(symmetric_group(4))


def test_package_imports_without_sympy():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = ("import sys; sys.modules['sympy'] = None; "
            "import oligorep.cli, oligorep.acceptance")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# -- Dixon tables -------------------------------------------------------------

def test_trivial_group_table():
    t = character_table(PermGroup(1, []))
    assert t.degrees == (1,)
    assert t.rows[0][0] == 1


def test_c2_table():
    t = character_table(PermGroup(2, [(1, 0)]))
    assert t.degrees == (1, 1)
    assert [[v.as_int() for v in row] for row in t.rows] == [[1, 1], [1, -1]]


def test_s3_table_frozen():
    t = character_table(symmetric_group(3))
    assert t.degrees == (1, 1, 2)
    assert t.class_sizes == (1, 2, 3)
    assert t.class_orders == (1, 3, 2)
    assert [[v.as_int() for v in row] for row in t.rows] == [
        [1, 1, 1],
        [1, 1, -1],
        [2, -1, 0],
    ]


def test_s3_perm_character_and_decompose():
    G = symmetric_group(3)
    t = character_table(G)
    act = CosetAction(G, stabilizer_of_0(G.degree))
    chi = t.perm_character(act)
    assert chi == (3, 0, 1)
    assert t.decompose(chi) == (1, 0, 1)
    regular = t.perm_character(CosetAction(G, PermGroup(3, [])))
    assert regular == (6, 0, 0)
    assert t.decompose(regular) == (1, 1, 2)


def test_c2_regular_character():
    G = PermGroup(2, [(1, 0)])
    t = character_table(G)
    chi = t.perm_character(CosetAction(G, PermGroup(2, [])))
    assert chi == (2, 0)
    assert t.decompose(chi) == (1, 1)


def test_s4_table():
    G = symmetric_group(4)
    t = character_table(G)
    assert t.degrees == (1, 1, 2, 3, 3)
    assert sum(d * d for d in t.degrees) == 24
    act = CosetAction(G, stabilizer_of_0(G.degree))
    chi = t.perm_character(act)
    assert chi == (4, 0, 2, 0, 1)
    assert t.decompose(chi) == (1, 0, 0, 1, 0)


def test_c6_table():
    G = PermGroup(6, [from_cycles(6, [tuple(range(6))])])
    t = character_table(G)
    assert t.degrees == (1,) * 6
    assert t.num_classes == 6
    # the order-6 generator column carries all sixth roots of unity
    gen = t.class_of_packed(pack(from_cycles(6, [tuple(range(6))])))
    gen_col = sorted(str(t.rows[i][gen]) for i in range(6))
    assert len(set(gen_col)) == 6


def test_gl22_is_s3():
    # GL(2,2) permuting the 3 nonzero vectors 01, 10, 11
    a = (1, 0, 2)  # swap e1, e2
    b = (2, 1, 0)  # e1 -> e1+e2 fixing e2: 01->01? mapping on {01,10,11}
    G = PermGroup(3, [a, b])
    assert G.order == 6
    t = character_table(G)
    assert t.degrees == (1, 1, 2)


def test_decompose_rejects_non_characters():
    t = character_table(symmetric_group(3))
    with pytest.raises(NotACharacter):
        t.decompose((1, 1, 0))  # non-integral multiplicities
    with pytest.raises(NotACharacter):
        t.decompose((1, 1, -3))  # negative multiplicity of sign character
    with pytest.raises(NotACharacter):
        t.decompose((1, 1))


def test_decompose_random_combinations_roundtrip():
    import random

    t = character_table(symmetric_group(4))
    rng = random.Random(5)
    for _ in range(20):
        mults = tuple(rng.randrange(4) for _ in range(t.num_classes))
        values = []
        for c in range(t.num_classes):
            acc = Cyc.from_int(t.exponent, 0)
            for i, m in enumerate(mults):
                acc = acc + t.rows[i][c] * m
            values.append(acc)
        assert t.decompose(values) == mults


def test_burnside_and_degree_sum():
    for G in (symmetric_group(3), symmetric_group(4)):
        t = character_table(G)
        assert sum(d * d for d in t.degrees) == G.order
        for K in G.subgroups_up_to_conjugacy():
            act = CosetAction(G, K)
            mults = t.decompose(t.perm_character(act))
            assert mults[0] == 1  # coset actions are transitive
            assert sum(m * d for m, d in zip(mults, t.degrees)) == act.size


def test_frobenius_reciprocity_small_groups():
    # multiplicity of chi in the G/K permutation character equals the
    # average of chi over K
    for G in (symmetric_group(3), symmetric_group(4)):
        t = character_table(G)
        for K in G.subgroups_up_to_conjugacy():
            mults = t.decompose(t.perm_character(CosetAction(G, K)))
            for i in range(t.num_classes):
                acc = Cyc.from_int(t.exponent, 0)
                for x in K.elements():
                    acc = acc + t.rows[i][t.class_of_packed(pack(x))]
                assert acc == mults[i] * K.order


def _gl32():
    cls = get_class("vector_space")
    base = next(b for b in cls.enumerate_class(3) if cls.size(b) == 3)
    return cls.automorphisms(base)


@pytest.mark.parametrize("make_group", [lambda: symmetric_group(4), _gl32],
                         ids=["S4", "GL32"])
def test_coset_character_matches_the_coset_action(make_group):
    G = make_group()
    t = character_table(G)
    for K in G.subgroups_up_to_conjugacy():
        assert coset_character(t, K) == t.perm_character(CosetAction(G, K))


def test_coset_character_on_atoms_matches_the_coset_action():
    # a Boolean algebra's automorphisms, read on its atoms, against the
    # partition table of S_4
    cls = get_class("boolean_algebra")
    base = next(b for b in cls.enumerate_class(4) if cls.size(b) == 4)
    sym = symmetric_character_table(4)
    S4 = symmetric_group(4)
    subgroups = cls.automorphisms(base).subgroups_up_to_conjugacy()
    assert len(subgroups) == 11
    for K in subgroups:
        atoms = PermGroup(4, [cls.atom_perm(g, 4) for g in K.generators])
        assert atoms.order == K.order
        assert coset_character(sym, atoms) == sym.perm_character(
            CosetAction(S4, atoms))


def test_coset_character_rejects_a_fractional_value():
    t = character_table(symmetric_group(3))
    C3 = PermGroup(3, [from_cycles(3, [(0, 1, 2)])])
    assert coset_character(t, C3) == (2, 2, 0)
    t.class_sizes = (1, 3, 2)   # the 3-cycles miscounted
    with pytest.raises(InvariantViolation):
        coset_character(t, C3)


def test_export_is_json_ready():
    # table values as catalogs print them: ints, or {"order", "coeffs"}
    t = character_table(symmetric_group(3))
    assert json.loads(json.dumps([_serialize_value(v) for v in t.rows[-1]])
                      ) == [2, -1, 0]
    t6 = character_table(PermGroup(6, [from_cycles(6, [tuple(range(6))])]))
    data6 = json.loads(json.dumps(
        [[_serialize_value(v) for v in row] for row in t6.rows]))
    nonint = [
        v for row in data6 for v in row if isinstance(v, dict)
    ]
    assert nonint and all(set(v) == {"order", "coeffs"} for v in nonint)


def test_table_bound_holds_once_classes_are_built(monkeypatch):
    # S5's classes, built before the call, do not let its table past the
    # bound; the refusal reads the order off the stabilizer chain
    monkeypatch.setenv("OLIGOREP_LIMITS", '{"table_order": 100}')
    S5 = symmetric_group(5)
    S5.conjugacy_classes()
    with pytest.raises(SizeLimitExceeded):
        character_table(S5)
    monkeypatch.setenv("OLIGOREP_LIMITS", '{"table_order": 120}')
    assert character_table(S5).num_classes == 7


# -- class matrices -----------------------------------------------------------

def _reference_charpoly(b, p):
    """Monic characteristic polynomial of b over F_p by Faddeev-LeVerrier,
    highest coefficient first, a reference for ``_charpoly_modp``: c_k =
    -tr(b M_k) / k, so it needs p > dim."""
    d = len(b)
    cs = [1]
    mk = [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        am = [[sum(b[i][r] * mk[r][j] for r in range(d)) % p
               for j in range(d)] for i in range(d)]
        ck = -sum(am[i][i] for i in range(d)) * pow(k, p - 2, p) % p
        cs.append(ck)
        mk = [[(am[i][j] + (ck if i == j else 0)) % p for j in range(d)]
              for i in range(d)]
    return cs


def _random_matrix(rng, d, p):
    # zeros are common, so the Hessenberg pivot search and swaps are met
    return [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(d)]
            for _ in range(d)]


def test_charpoly_matches_faddeev_leverrier():
    rng = random.Random(0)
    primes = [p for p in range(3, 100) if _is_prime(p)]
    for _ in range(1000):
        d = rng.randint(1, 9)
        p = rng.choice([p for p in primes if p > d])
        b = _random_matrix(rng, d, p)
        assert chartab._charpoly_modp(b, p) == _reference_charpoly(b, p), b


def _det_modp(m, p):
    """det m mod p by the Leibniz sum over all permutations."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        sign = (-1) ** sum(perm[i] > perm[j] for i, j in
                           itertools.combinations(range(len(m)), 2))
        total += sign * math.prod(m[i][perm[i]] for i in range(len(m)))
    return total % p


def test_charpoly_roots_are_the_zeros_of_det_when_p_is_small():
    # for p <= dim Faddeev-LeVerrier divides by zero; the Hessenberg
    # polynomial still vanishes exactly where det(lam I - b) does
    rng = random.Random(1)
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        d = rng.randint(p, 6)
        b = _random_matrix(rng, d, p)
        cs = chartab._charpoly_modp(b, p)
        assert len(cs) == d + 1 and cs[0] == 1
        dets = [_det_modp([[(lam * (i == j) - x) % p for j, x in enumerate(row)]
                           for i, row in enumerate(b)], p) for lam in range(p)]
        assert chartab._poly_roots_modp(cs, p) == [
            lam for lam in range(p) if dets[lam] == 0], (b, p)


def _class_members(G):
    classes, class_index = G.class_data()
    members = [[] for _ in classes]
    for g, t in class_index.items():
        members[t].append(g)
    return classes, class_index, members


def _reference_class_matrices(G):
    """a[r][s][t] = #{(x, y) in C_r x C_s : xy = rep_t} by one pass over G,
    the partner y = x^-1 rep_t of each x forced: |G| k products."""
    classes, class_index = G.class_data()
    k = len(classes)
    a = [[[0] * k for _ in range(k)] for _ in range(k)]
    for x in G.elements():
        xi = inverse(x)
        for t, c in enumerate(classes):
            a[class_index[pack(x)]][class_index[pack(compose(xi, c.rep))]][t] += 1
    return a


def _gl23():
    cls = get_class("vector_space_q3")
    return cls.automorphisms(cls.canonical_space(2))


def _graph_groups():
    cls = get_class("graph")
    return [cls.automorphisms(b) for b in cls.enumerate_class(5)]


@pytest.mark.parametrize("make_groups", [
    lambda: [symmetric_group(4)], lambda: [symmetric_group(5)],
    lambda: [_gl32()], lambda: [_gl23()], _graph_groups,
], ids=["S4", "S5", "GL32", "GL23", "graphs<=5"])
def test_class_matrix_rows_match_the_full_count(make_groups):
    for G in make_groups():
        classes, class_index, members = _class_members(G)
        sizes = [c.size for c in classes]
        ref = _reference_class_matrices(G)
        for r in range(len(classes)):
            for s, c in enumerate(classes):
                assert chartab._class_matrix_row(
                    members[r], pack(c.rep), c.size, class_index,
                    sizes) == ref[r][s]


@pytest.mark.parametrize("make_group", [lambda: symmetric_group(4), _gl32],
                         ids=["S4", "GL32"])
def test_a_wrong_structure_constant_fails_loudly(make_group, monkeypatch):
    # the first row built of class matrix 1 is read against the whole
    # space F_p^k, so each of its constants reaches the split
    G = make_group()
    real = chartab._class_matrix_row
    for t in range(len(G.class_data()[0])):
        built = []

        def off_by_one(members, rep, size, class_index, sizes):
            row = real(members, rep, size, class_index, sizes)
            if len(members) > 1 and not built:
                row[t] += 1
                built.append(row)
            return row

        monkeypatch.setattr(chartab, "_class_matrix_row", off_by_one)
        with pytest.raises(InvariantViolation):
            character_table(G)
        assert built


@pytest.mark.parametrize("make_group", [lambda: symmetric_group(4), _gl32],
                         ids=["S4", "GL32"])
def test_a_corrupted_entry_fails_the_row_relations(make_group):
    # only the row relations are checked; each single corrupted entry
    # breaks one of them, as the column relations they imply would show
    t = character_table(make_group())
    chartab._verify_orthogonality(t)
    k = t.num_classes
    for i in range(k):
        for s in range(k):
            bad = copy.copy(t)
            bad.rows = tuple(
                tuple(value + 1 if (r, c) == (i, s) else value
                      for c, value in enumerate(row))
                for r, row in enumerate(t.rows))
            with pytest.raises(InvariantViolation):
                chartab._verify_orthogonality(bad)
    short = copy.copy(t)
    short.rows = t.rows[:-1]
    with pytest.raises(InvariantViolation):
        chartab._verify_orthogonality(short)


def test_a_partial_class_fails_the_divisibility_check():
    # S3: the transposition rep and one other, times rep, give the identity
    # once and a 3-cycle once, and 1 * 3 is not divisible by the two 3-cycles
    classes, class_index, members = _class_members(symmetric_group(3))
    sizes = [c.size for c in classes]
    assert sizes == [1, 2, 3]
    rep = pack(classes[2].rep)
    part = [rep, next(x for x in members[2] if x != rep)]
    with pytest.raises(InvariantViolation):
        chartab._class_matrix_row(part, rep, 3, class_index, sizes)


def test_the_split_builds_no_row_of_the_identity_class(monkeypatch):
    # class 0 is the identity, whose class matrix is I and splits nothing;
    # every generic group of the six default catalogs, built once each
    real = chartab._class_matrix_row
    built = []

    def recording(members, rep, size, class_index, sizes):
        built.append(members)
        return real(members, rep, size, class_index, sizes)

    monkeypatch.setattr(chartab, "_class_matrix_row", recording)
    groups = {}
    for class_id in CLASS_IDS:
        if get_class(class_id).atomic:
            continue
        for base, gens in oligo.sweep_bases(class_id):
            if base.points:
                G = PermGroup(len(base.points), gens)
                groups.setdefault((G.degree, tuple(G.packed_elements())), G)
    assert len(groups) == 95
    for G in groups.values():
        built.clear()
        character_table(G)
        assert all(pack(identity(G.degree)) not in members
                   for members in built)
        assert built or len(G.class_data()[0]) == 1


def test_catalog_gl_tables_have_the_known_degrees():
    # GL(4,2) is A8; GL(3,3) = SL(3,3) x C2 lists each SL(3,3) degree twice
    cls = get_class("vector_space")
    gl42 = character_table(cls.automorphisms(cls.canonical_space(4)))
    assert gl42.degrees == (1, 7, 14, 20, 21, 21, 21, 28, 35, 45, 45, 56, 64,
                            70)
    cls = get_class("vector_space_q3")
    gl33 = character_table(cls.automorphisms(cls.canonical_space(3)))
    sl33 = (1, 12, 13, 16, 16, 16, 16, 26, 26, 26, 27, 39)
    assert gl33.degrees == tuple(sorted(sl33 * 2))


# -- symmetric group tables ---------------------------------------------------

def test_partitions():
    assert partitions_of(0) == ((),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions_of(6)) == 11
    assert len(partitions_of(16)) == 231


def test_hook_degrees():
    assert hook_degree((3,)) == 1
    assert hook_degree((1, 1, 1)) == 1
    assert hook_degree((2, 1)) == 2
    assert hook_degree((3, 1)) == 3
    assert hook_degree((2, 2)) == 2
    assert hook_degree((3, 2)) == 5
    assert hook_degree((4, 2)) == 9


def test_symmetric_table_computes_each_degree_once(monkeypatch):
    # the rows are sorted by degree and the degrees kept from one call per
    # partition
    calls = []

    def counted(lam):
        calls.append(lam)
        return hook_degree(lam)

    monkeypatch.setattr(chartab, "hook_degree", counted)
    for m in range(9):
        calls.clear()
        sym = SymmetricCharacterTable(m)
        assert sorted(calls) == sorted(partitions_of(m))
        assert sym.degrees == tuple(map(hook_degree, sym.irrep_partitions))
        assert sum(sym.class_sizes) == sym.group_order


def test_mn_values():
    # chi_(2,1): degree 2, vanishes on transpositions, -1 on 3-cycles
    assert mn_value((2, 1), (1, 1, 1)) == 2
    assert mn_value((2, 1), (2, 1)) == 0
    assert mn_value((2, 1), (3,)) == -1
    # trivial and sign rows
    for mu in partitions_of(5):
        assert mn_value((5,), mu) == 1
        assert mn_value((1, 1, 1, 1, 1), mu) == (-1) ** (5 - len(mu))


def test_mn_degrees_match_hooks():
    for m in range(1, 8):
        ones = (1,) * m
        for lam in partitions_of(m):
            assert mn_value(lam, ones) == hook_degree(lam)


def test_symmetric_table_matches_dixon():
    for m in (2, 3, 4, 5, 6, 7):
        sym = symmetric_character_table(m)
        dix = character_table(symmetric_group(m))
        assert sym.degrees == dix.degrees
        assert sym.class_sizes == dix.class_sizes
        assert sym.class_orders == dix.class_orders
        # class t of the symmetric table is the cycle-type class of dix
        assert tuple(c.cycle_type for c in dix.classes) == sym.class_partitions
        for i in range(sym.num_classes):
            for t in range(sym.num_classes):
                assert dix.rows[i][t] == sym.value(i, t)


def test_symmetric_table_s6():
    sym = symmetric_character_table(6)
    assert sym.num_classes == 11
    assert sum(d * d for d in sym.degrees) == 720
    assert sym.degrees[0] == 1
    assert sym.irrep_partitions[0] == (6,)  # trivial first


def test_symmetric_table_large_is_lazy():
    import time

    start = time.monotonic()
    sym = symmetric_character_table(16)
    assert sym.num_classes == 231
    assert sum(d * d for d in sym.degrees) == math.factorial(16)
    regular = [0] * sym.num_classes
    regular[0] = sym.group_order
    assert sym.decompose(regular) == sym.degrees
    assert time.monotonic() - start < 5.0


def test_symmetric_decompose():
    sym = symmetric_character_table(4)
    natural = []
    for lam in sym.class_partitions:
        natural.append(sum(1 for part in lam if part == 1))
    mults = sym.decompose(tuple(natural))
    assert mults == (1, 0, 0, 1, 0)
    with pytest.raises(NotACharacter):
        sym.decompose((1, 0, 0, 0, 1))
    # values are summed as given, so a class function with irrational
    # inner products is refused rather than rounded
    z3 = Cyc.root(3, 1)
    with pytest.raises(NotACharacter):
        sym.decompose((z3 * 24, 0, 0, 0, 0))
    assert sym.decompose((Cyc.from_int(3, 24), 0, 0, 0, 0)) == sym.degrees


def test_symmetric_class_of_perm():
    sym = symmetric_character_table(4)
    assert sym.class_of_packed(pack(identity(4))) == 0
    i = sym.class_of_packed(pack(from_cycles(4, [(0, 1)])))
    assert sym.class_partitions[i] == (2, 1, 1)
    # a partition's class index does not depend on the order of its parts
    assert sym.class_partitions.index(
        tuple(sorted((1, 2, 1), reverse=True))) == i


@pytest.mark.parametrize("make_table", [
    lambda: character_table(symmetric_group(4)),
    lambda: character_table(get_class("vector_space").automorphisms(
        get_class("vector_space").canonical_space(3))),
    lambda: symmetric_character_table(7),
], ids=["S4", "GL32", "sym7"])
def test_class_reps_lie_in_their_classes(make_table):
    table = make_table()
    assert len(table.class_reps) == table.num_classes
    assert ([table.class_of_packed(pack(g)) for g in table.class_reps]
            == list(range(table.num_classes)))
