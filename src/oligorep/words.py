"""Reduced words in the free group on two generators.

A word is a tuple of nonzero ints: 1 = x, -1 = x^-1, 2 = y, -2 = y^-1,
always freely reduced.  ``join`` multiplies two reduced words by cancelling
only where they meet; ``mult`` also reduces a product of unreduced words,
one letter at a time.  This module also hosts the Magnus power-series
machinery used for the bi-invariant order: x maps to 1 + X, y to 1 + Y in
noncommuting formal variables, inverses expand as geometric series, and
words are compared by the first differing coefficient in graded
lexicographic monomial order (X before Y within a degree).  Degrees 1 and
2 are read in closed form, as exponent sums and signed pair counts; only
words that agree through degree 2 are expanded as series.

All coefficients are exact integers.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import UndecidedComparison

EMPTY: tuple = ()
LETTERS = (1, -1, 2, -2)


def mult(u: tuple, v: tuple) -> tuple:
    """Concatenate and freely reduce.  Inputs need not be reduced; for
    reduced inputs ``join`` gives the same word faster."""
    out: list = []
    for letter in (*u, *v):
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def join(u: tuple, v: tuple) -> tuple:
    """The product of reduced words: u's tail cancels against v's head."""
    if u and v and u[-1] == -v[0]:
        k, n = 1, min(len(u), len(v))
        while k < n and u[-1 - k] == -v[k]:
            k += 1
        return u[:-k] + v[k:]
    return u + v


def inv(u: tuple) -> tuple:
    return tuple(-letter for letter in reversed(u))


def word_key(u: tuple) -> tuple:
    """Sort key: by length, then by letter sequence."""
    return (len(u), tuple(LETTERS.index(letter) for letter in u))


@lru_cache(maxsize=32)
def ball(radius: int) -> tuple:
    """All reduced words of length <= radius, deterministic order."""
    words = [EMPTY]
    frontier = [EMPTY]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for letter in LETTERS:
                if w and w[-1] == -letter:
                    continue
                nxt.append(w + (letter,))
        words.extend(nxt)
        frontier = nxt
    return tuple(words)


# the letters that may follow each letter in a reduced word, 0 at the start
_SUCCESSORS = {0: LETTERS, **{a: tuple(b for b in LETTERS if b != -a)
                              for a in LETTERS}}


def random_word(rng, max_len: int) -> tuple:
    """Uniform length in [0, max_len], then a uniform reduced word."""
    out: list = []
    options = _SUCCESSORS[0]
    for _ in range(rng.randrange(max_len + 1)):
        out.append(options[rng.randrange(len(options))])
        options = _SUCCESSORS[out[-1]]
    return tuple(out)


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _mix_lanes(z: int, ones: int) -> int:
    """``_splitmix64`` of every 128-bit lane of ``z`` at once.

    ``ones`` holds 1 in each lane and every lane of ``z`` is below 2**64.
    A lane holds a full 64 x 64-bit product, so no carry crosses into the
    next one; what a right shift brings down from the lane above is masked
    off before it is multiplied.
    """
    mask = ones * 0xFFFF_FFFF_FFFF_FFFF
    z = (z + ones * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ z >> 30) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ z >> 27) & mask) * 0x94D049BB133111EB & mask
    return (z ^ z >> 31) & mask


def word_int(u: tuple) -> int:
    """Injective encoding of a reduced word as a nonnegative int."""
    code = 0
    for letter in u:
        code = code * 4 + LETTERS.index(letter) + 1
    return code


def pair_coin(seed: int, u: tuple) -> bool:
    """Deterministic Bernoulli(1/2) draw attached to the pair {u, u^-1}.

    The pair is represented by its ``word_key``-least member.  Two reduced
    words of the same length compare under ``word_key`` exactly as their
    ``word_int`` codes do, so the representative is the integer
    min(word_int(u), word_int(u^-1)).  Used to sample symmetric generating
    sets lazily: materializing a radius-12 ball just to flip coins is out
    of the question.
    """
    code = min(word_int(u), word_int(inv(u)))
    return bool(_splitmix64(seed ^ _splitmix64(code)) & 1)


# ---------------------------------------------------------------------------
# Magnus expansion
# ---------------------------------------------------------------------------
# Monomials in X, Y are tuples over {0, 1} (0 = X, 1 = Y).  A series is held
# as a list of per-degree dicts {monomial: int}; degree 0 is always {(): 1}
# for the series we build (group elements are units of the form 1 + higher).

_VAR_OF_GEN = {1: 0, 2: 1}


def _letter_component(letter: int, degree: int) -> int:
    """Coefficient of V^degree in the expansion of the letter, where V is the
    letter's variable.  Positive letters give 1 + V; inverses expand as the
    geometric series 1 - V + V^2 - ..."""
    if degree == 0:
        return 1
    if letter > 0:
        return 1 if degree == 1 else 0
    return (-1) ** degree


# A comparison expands both words degree by degree from degree 3 on, and
# only pairs that agree through degree 2 get there; ``order_axioms_check``
# at 10 000 trials leaves about 215 expansions in the cache.
MAGNUS_CACHE_SIZE = 4096


@lru_cache(maxsize=MAGNUS_CACHE_SIZE)
def _expand(word: tuple, max_degree: int) -> list:
    comps: list = [{(): 1}]
    comps.extend({} for _ in range(max_degree))
    for letter in word:
        var = _VAR_OF_GEN[abs(letter)]
        new: list = [dict() for _ in range(max_degree + 1)]
        for d in range(max_degree + 1):
            acc = new[d]
            for j in range(d + 1):
                coeff = _letter_component(letter, j)
                if coeff == 0:
                    continue
                tail = (var,) * j
                for mono, c in comps[d - j].items():
                    key = mono + tail
                    val = acc.get(key, 0) + c * coeff
                    if val:
                        acc[key] = val
                    elif key in acc:
                        del acc[key]
        comps = new
    return comps


def magnus_component(word: tuple, degree: int) -> dict:
    """Homogeneous degree-d part of the Magnus expansion."""
    return _expand(word, degree)[degree]


def _low_degrees(word: tuple) -> tuple:
    """The coefficients of X, Y, XX, XY, YX and YY in the expansion: the
    exponent sums sx and sy, and pair counts.  A letter x^e adds e * sx to
    XX and e * sy to YX, with sx and sy summed over the letters before it,
    and x^-1 adds the 1 of X^2 in (1 + X)^-1; y^e likewise for XY and YY."""
    sx = sy = xx = xy = yx = yy = 0
    for letter in word:
        if letter == 1:
            sx, xx, yx = sx + 1, xx + sx, yx + sy
        elif letter == -1:
            sx, xx, yx = sx - 1, xx - sx + 1, yx - sy
        elif letter == 2:
            sy, xy, yy = sy + 1, xy + sx, yy + sy
        else:
            sy, xy, yy = sy - 1, xy - sx, yy - sy + 1
    return sx, sy, xx, xy, yx, yy


def magnus_compare(u: tuple, v: tuple, max_degree: int = 10) -> str:
    """Compare u and v in the bi-invariant order.

    Returns "<", ">" or "=".  "=" only for equal reduced words.  Degrees 1
    and 2 are read in closed form (``_low_degrees``), the rest from the
    series.  If the expansions agree through max_degree (impossible for
    distinct words once the degree is large enough, but we never search
    past the bound), raises UndecidedComparison instead of guessing.
    """
    if u == v:
        return "="
    if max_degree >= 1:
        cu, cv = _low_degrees(u), _low_degrees(v)
        for a, b in zip(cu, cv if max_degree > 1 else cv[:2]):
            if a != b:
                return "<" if a < b else ">"
    for degree in range(3, max_degree + 1):
        cu = magnus_component(u, degree)
        cv = magnus_component(v, degree)
        if cu == cv:
            continue
        monos = sorted(set(cu) | set(cv))
        for mono in monos:
            diff = cv.get(mono, 0) - cu.get(mono, 0)
            if diff > 0:
                return "<"
            if diff < 0:
                return ">"
    raise UndecidedComparison(
        f"words agree through degree {max_degree}: {u!r} vs {v!r}"
    )
