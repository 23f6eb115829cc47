import itertools
import random

import pytest

from oligorep.errors import UndecidedComparison
from oligorep import words
from oligorep.words import (
    EMPTY,
    LETTERS,
    ball,
    inv,
    join,
    magnus_compare,
    magnus_component,
    mult,
    pair_coin,
    word_int,
    word_key,
)

X, Xi, Y, Yi = 1, -1, 2, -2


def test_mult_reduces():
    assert mult((X,), (Xi,)) == EMPTY
    assert mult((X, Y), (Yi, Xi)) == EMPTY
    assert mult((X, Y), (Y,)) == (X, Y, Y)
    # cascade: x y y^-1 x^-1 collapses step by step
    assert mult((X, Y, Yi), (Xi,)) == EMPTY


def test_inv():
    w = (X, Y, Xi, Y)
    assert mult(w, inv(w)) == EMPTY
    assert mult(inv(w), w) == EMPTY
    assert inv(EMPTY) == EMPTY


def test_ball_sizes():
    # 4 * 3^(r-1) words of length exactly r, so |B(r)| = 2*3^r - 1.
    for r in range(5):
        assert len(ball(r)) == 2 * 3**r - 1
        sphere = [w for w in ball(r) if len(w) == r]
        assert len(sphere) == (1 if r == 0 else 4 * 3 ** (r - 1))
    # no letter is followed by its inverse
    assert all(a != -b for w in ball(4) for a, b in zip(w, w[1:]))
    assert len(set(ball(4))) == len(ball(4))


def test_ball_deterministic_order():
    b = ball(2)
    assert b[0] == EMPTY
    assert list(b) == sorted(b, key=word_key)
    assert ball(2) == ball(2)


def test_random_word_reduced():
    rng = random.Random(7)
    for _ in range(200):
        w = words.random_word(rng, 8)
        assert all(a != -b for a, b in zip(w, w[1:]))
        assert len(w) <= 8


def listed_random_word(rng, max_len):
    """``random_word`` with the options for each letter listed afresh: the
    same ``randrange`` calls must draw the same words."""
    n = rng.randrange(max_len + 1)
    out = []
    for _ in range(n):
        options = [letter for letter in LETTERS
                   if not (out and out[-1] == -letter)]
        out.append(options[rng.randrange(len(options))])
    return tuple(out)


def test_random_word_draws_the_words_of_the_listed_options():
    for seed in range(5):
        for max_len in range(9):
            ours, listed = random.Random(seed), random.Random(seed)
            assert ([words.random_word(ours, max_len) for _ in range(200)]
                    == [listed_random_word(listed, max_len)
                        for _ in range(200)])
            assert ours.getstate() == listed.getstate()


# Sanov's matrices generate a free subgroup of SL(2, Z), so a word's matrix
# checks its reduction by a route that shares no code with ``mult``
SANOV = {X: ((1, 2), (0, 1)), Xi: ((1, -2), (0, 1)),
         Y: ((1, 0), (2, 1)), Yi: ((1, 0), (-2, 1))}
IDENTITY = ((1, 0), (0, 1))


def matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


def sanov_matrix(word):
    m = IDENTITY
    for letter in word:
        m = matmul(m, SANOV[letter])
    return m


def test_mult_agrees_with_the_sanov_representation():
    rng = random.Random(11)
    for _ in range(500):
        u = words.random_word(rng, 8)
        v = words.random_word(rng, 8)
        if rng.random() < 0.5:  # unreduced inputs are allowed too
            u = tuple(rng.choice(LETTERS) for _ in range(rng.randrange(9)))
        if rng.random() < 0.5:  # v starts by undoing a tail of u
            tail = u[rng.randrange(len(u) + 1):]
            v = tuple(-letter for letter in reversed(tail)) + v
        w = mult(u, v)
        assert all(a != -b for a, b in zip(w, w[1:])), (u, v, w)
        assert sanov_matrix(w) == matmul(sanov_matrix(u), sanov_matrix(v))


def reduced(w):
    return all(a != -b for a, b in zip(w, w[1:]))


def test_join_is_mult_on_products_of_balls():
    # long by short is the shape of the translation sweep and of the
    # actions on ball(2); short by long is its mirror
    for us, vs in ((ball(4), ball(4)), (ball(6), ball(2)), (ball(2), ball(6))):
        for u, v in itertools.product(us, vs):
            assert join(u, v) == mult(u, v), (u, v)


def test_join_cancels_a_random_tail_of_u():
    rng = random.Random(13)
    for _ in range(5000):
        u = words.random_word(rng, 6)
        undo = inv(u[rng.randrange(len(u) + 1):])
        v = undo + words.random_word(rng, 6 - len(undo))
        while not reduced(v):
            v = undo + words.random_word(rng, 6 - len(undo))
        w = join(u, v)
        assert w == mult(u, v), (u, v)
        assert reduced(w), (u, v, w)
        assert sanov_matrix(w) == matmul(sanov_matrix(u), sanov_matrix(v))


def test_sanov_representation_is_faithful_on_the_ball():
    assert all(sanov_matrix(w) != IDENTITY for w in ball(6) if w)


def test_pair_coin_symmetric():
    rng = random.Random(3)
    heads = 0
    for _ in range(400):
        w = EMPTY
        while w == EMPTY:
            w = words.random_word(rng, 6)
        assert pair_coin(11, w) == pair_coin(11, inv(w))
        heads += pair_coin(11, w)
    # fair-ish coin; the PRF is deterministic so this is a frozen check
    assert 120 < heads < 280
    w = (X, Y)
    assert pair_coin(1, w) != pair_coin(4, w) or pair_coin(1, w) != pair_coin(9, w)


def test_pair_coin_is_the_coin_of_the_least_member_of_the_pair():
    for seed in (0, 5, 2**40 + 3):
        for u in ball(5):
            rep = min(u, inv(u), key=word_key)
            expected = words._splitmix64(
                seed ^ words._splitmix64(word_int(rep))) & 1
            assert pair_coin(seed, u) == bool(expected)


def test_mix_lanes_is_splitmix64_in_every_lane():
    rng = random.Random(5)
    values = [0, 1, 2**64 - 1] + [rng.getrandbits(64) for _ in range(500)]
    ones = sum(1 << 128 * i for i in range(len(values)))
    lanes = sum(v << 128 * i for i, v in enumerate(values))
    mixed = words._mix_lanes(lanes, ones)
    assert [mixed >> 128 * i & (1 << 128) - 1
            for i in range(len(values))] == list(map(words._splitmix64, values))
    assert mixed >> 128 * len(values) == 0


def test_magnus_generator_components():
    # x -> 1 + X: degree 1 component is {X: 1}, nothing at degree 2
    assert magnus_component((X,), 1) == {(0,): 1}
    assert magnus_component((X,), 2) == {}
    # x^-1 -> 1 - X + X^2 - ...
    assert magnus_component((Xi,), 1) == {(0,): -1}
    assert magnus_component((Xi,), 2) == {(0, 0): 1}
    assert magnus_component((Y,), 1) == {(1,): 1}


def test_magnus_commutator():
    # [x, y] = 1 + (XY - YX) + higher order terms
    comm = (X, Y, Xi, Yi)
    assert magnus_component(comm, 1) == {}
    assert magnus_component(comm, 2) == {(0, 1): 1, (1, 0): -1}


def test_magnus_product_identity():
    # expansion is a homomorphism: check on u * v by direct expansion
    u, v = (X, Y), (Yi, X, X)
    w = mult(u, v)
    for d in range(4):
        cu = {m: c for m, c in magnus_component(w, d).items()}
        acc: dict = {}
        for j in range(d + 1):
            for m1, c1 in magnus_component(u, j).items():
                for m2, c2 in magnus_component(v, d - j).items():
                    key = m1 + m2
                    acc[key] = acc.get(key, 0) + c1 * c2
        acc = {m: c for m, c in acc.items() if c}
        assert cu == acc


def test_compare_basic():
    comm = (X, Y, Xi, Yi)
    assert magnus_compare(EMPTY, comm) == "<"
    assert magnus_compare(comm, EMPTY) == ">"
    assert magnus_compare(comm, comm) == "="
    assert magnus_compare((X,), (X,)) == "="


def test_compare_total_on_ball():
    seen = ball(3)
    for u in seen[:20]:
        for v in seen[:20]:
            r = magnus_compare(u, v)
            assert r in ("<", ">", "=")
            assert (r == "=") == (u == v)
            flipped = {"<": ">", ">": "<", "=": "="}[r]
            assert magnus_compare(v, u) == flipped


def test_compare_bi_invariant():
    rng = random.Random(19)
    for _ in range(60):
        u = words.random_word(rng, 4)
        v = words.random_word(rng, 4)
        w = words.random_word(rng, 4)
        r = magnus_compare(u, v)
        assert magnus_compare(mult(w, u), mult(w, v)) == r
        assert magnus_compare(mult(u, w), mult(v, w)) == r


def test_compare_transitive():
    rng = random.Random(23)
    sample = [words.random_word(rng, 5) for _ in range(30)]
    ordered = sorted(set(sample), key=_order_key(sample))
    for a, b in zip(ordered, ordered[1:]):
        assert magnus_compare(a, b) == "<"


def _order_key(sample):
    import functools

    def cmp(a, b):
        r = magnus_compare(a, b)
        return {"<": -1, "=": 0, ">": 1}[r]

    return functools.cmp_to_key(cmp)


def expanded_low_degrees(word):
    one, two = magnus_component(word, 1), magnus_component(word, 2)
    return (one.get((0,), 0), one.get((1,), 0), two.get((0, 0), 0),
            two.get((0, 1), 0), two.get((1, 0), 0), two.get((1, 1), 0))


def test_low_degrees_are_the_expansion_through_degree_two():
    assert words._low_degrees((X, Y, Xi, Yi)) == (0, 0, 0, 1, -1, 0)
    assert words._low_degrees((Xi, Xi)) == (-2, 0, 3, 0, 0, 0)
    for w in ball(5):
        assert words._low_degrees(w) == expanded_low_degrees(w), w
    # the expansion is a homomorphism, so unreduced words count too
    rng = random.Random(29)
    for _ in range(2000):
        w = tuple(rng.choice(LETTERS) for _ in range(rng.randrange(13)))
        assert words._low_degrees(w) == expanded_low_degrees(w), w


def compare_by_degree(u, v, max_degree):
    """``magnus_compare`` with every degree read from the expanded series."""
    if u == v:
        return "="
    for degree in range(1, max_degree + 1):
        cu = magnus_component(u, degree)
        cv = magnus_component(v, degree)
        for mono in sorted(set(cu) | set(cv)):
            diff = cv.get(mono, 0) - cu.get(mono, 0)
            if diff:
                return "<" if diff > 0 else ">"
    return "undecided"


def compare_or_undecided(u, v, max_degree):
    try:
        return magnus_compare(u, v, max_degree)
    except UndecidedComparison as exc:
        assert str(exc) == (
            f"words agree through degree {max_degree}: {u!r} vs {v!r}")
        return "undecided"


@pytest.mark.parametrize("max_degree", [1, 2, 3, 10])
def test_compare_matches_the_series_read_degree_by_degree(max_degree):
    rng = random.Random(31 + max_degree)
    pairs = list(itertools.product(ball(3), repeat=2))
    pairs += [(words.random_word(rng, 7), words.random_word(rng, 7))
              for _ in range(5000)]
    verdicts = [compare_or_undecided(u, v, max_degree) for u, v in pairs]
    assert verdicts == [compare_by_degree(u, v, max_degree) for u, v in pairs]
    assert len(set(verdicts)) == (4 if max_degree < 3 else 3)


def test_compare_undecided():
    # force a tiny degree bound so a deep commutator cannot be resolved
    comm = (X, Y, Xi, Yi)
    with pytest.raises(UndecidedComparison):
        magnus_compare(EMPTY, comm, max_degree=1)


def test_word_int_injective_on_ball():
    codes = [words.word_int(w) for w in ball(5)]
    assert len(set(codes)) == len(codes)


def test_magnus_cache_is_bounded():
    from oligorep.kazhdan import order_axioms_check

    words._expand.cache_clear()
    report = order_axioms_check(trials=2000)
    assert report["ok"]
    info = words._expand.cache_info()
    assert info.maxsize == words.MAGNUS_CACHE_SIZE
    assert 0 < info.currsize <= words.MAGNUS_CACHE_SIZE


def test_the_order_check_expands_only_pairs_that_agree_through_degree_two():
    from oligorep.kazhdan import order_axioms_check

    words._expand.cache_clear()
    report = order_axioms_check(word_len=6, max_degree=10, trials=10000,
                                seed=0)
    assert report["density_checked"] == 4263
    assert words._expand.cache_info().currsize <= 300


@pytest.mark.parametrize("seed, density_checked",
                         [(0, 850), (1, 859), (2, 840)])
def test_order_axioms_reports_are_pinned(seed, density_checked):
    from oligorep.kazhdan import order_axioms_check

    assert order_axioms_check(trials=2000, seed=seed) == {
        "trials": 2000, "word_len": 6, "max_degree": 10, "failures": 0,
        "undecided": 0, "density_checked": density_checked, "ok": True}


def test_compare_does_not_depend_on_the_cache():
    pairs = list(itertools.combinations(ball(2), 2))
    warm = [magnus_compare(u, v) for u, v in pairs]
    cold = []
    for u, v in pairs:
        words._expand.cache_clear()
        cold.append(magnus_compare(u, v))
    assert cold == warm
