"""Words of int letters against a frozen copy of the (generator, +-1) pairs.

A letter was once a pair (g, s), s = +1 for generator g and -1 for its
inverse.  It is now one int x, 2g for g and 2g + 1 for its inverse, so that
x ^ 1 is the inverse of x.  ``free_reduce``, ``_parse_term`` and
``render_word`` on pairs are copied here as oracles.  Mapped through
(g, s) <-> 2g + (s < 0), both encodings must give the same reductions, the
same rendered text and the same parsed relators, with the same warnings
and errors.
"""

import random
import warnings

from permutoid_lab.errors import ParseError
from permutoid_lab.groups import _parse_term, free_reduce, parse_presentation, render_word

NAMES = ("a", "b", "c", "d")


# -- the frozen pair encoding -----------------------------------------------------

def pair_free_reduce(word):
    stack = []
    for g, s in word:
        if stack and stack[-1][0] == g and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((g, s))
    return tuple(stack)


def pair_parse_term(term, gen_index):
    name, caret, exponent = term.partition("^")
    if name not in gen_index:
        raise ParseError("UnknownGenerator", f"unknown generator {name!r}", token=term)
    if not caret:
        return [(gen_index[name], 1)]
    try:
        k = int(exponent)
    except ValueError:
        raise ParseError("BadExponent", f"bad exponent in {term!r}", token=term) from None
    sign = 1 if k >= 0 else -1
    return [(gen_index[name], sign)] * abs(k)


def pair_render_word(word, names):
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        g, s = word[i]
        j = i
        while j < len(word) and word[j] == (g, s):
            j += 1
        k = s * (j - i)
        parts.append(names[g] if k == 1 else f"{names[g]}^{k}")
        i = j
    return " ".join(parts)


def as_ints(word):
    return tuple(2 * g + (s < 0) for g, s in word)


def outcome(parse, term, gen_index):
    try:
        return ("letters", parse(term, gen_index))
    except ParseError as exc:
        return ("error", exc.code, str(exc), exc.details)


# -- the pool ---------------------------------------------------------------------

def random_pair_word(rng, rank):
    """Runs of one letter, each 1-4 long, so powers and negative exponents
    are common; a third of the draws mix in single letters, so inverse
    pairs meet and cancel."""
    word = []
    for _ in range(rng.randint(0, 6)):
        g, s = rng.randrange(rank), rng.choice((1, -1))
        word += [(g, s)] * (1 if rng.random() < 0.33 else rng.randint(1, 4))
    return tuple(word)


def random_term(rng, rank):
    """A term in presentation text, sometimes with an unknown name or a
    bad exponent."""
    name = NAMES[rank] if rng.random() < 0.05 else NAMES[rng.randrange(rank)]
    form = rng.randrange(6)
    if form == 0:
        return name
    if form == 5:
        return f"{name}^{rng.choice(('x', '', '1.5', '--1'))}"
    return f"{name}^{rng.choice(('', '+', '-'))}{rng.randint(0, 5)}"


POOL = [
    (rank, random_pair_word(rng, rank))
    for rng in [random.Random(22)]
    for rank in [rng.randint(1, 4) for _ in range(1200)]
]


class TestAgainstPairEncoding:
    def test_pool_has_runs_inverses_and_cancellations(self):
        assert len(POOL) >= 1000
        assert sum(any(s < 0 for _, s in w) for _, w in POOL) > 500
        assert sum(any(w[i] == w[i + 1] for i in range(len(w) - 1)) for _, w in POOL) > 500
        assert sum(pair_free_reduce(w) != w for _, w in POOL) > 200
        assert sum(not w for _, w in POOL) > 10

    def test_free_reduce(self):
        for _, word in POOL:
            assert free_reduce(as_ints(word)) == as_ints(pair_free_reduce(word)), word

    def test_render_word(self):
        for rank, word in POOL:
            names = NAMES[:rank]
            assert render_word(as_ints(word), names) == pair_render_word(word, names), word

    def test_parse_term(self):
        rng = random.Random(23)
        kinds = set()
        for _ in range(2000):
            rank = rng.randint(1, 3)
            gen_index = {name: i for i, name in enumerate(NAMES[:rank])}
            term = random_term(rng, rank)
            expected = outcome(pair_parse_term, term, gen_index)
            if expected[0] == "letters":
                expected = ("letters", list(as_ints(expected[1])))
            assert outcome(_parse_term, term, gen_index) == expected, term
            kinds.add(expected[0] if expected[0] == "letters" else expected[1])
        assert kinds == {"letters", "UnknownGenerator", "BadExponent"}

    def test_parsed_relators(self):
        # the pool's words, written out as rendered runs or as single
        # letters, parse to the words the pairs reduce to; words that
        # reduce to nothing are dropped with one warning each
        rng = random.Random(24)
        for start in range(0, len(POOL), 8):
            chunk = POOL[start:start + 8]
            rank = max(rank for rank, _ in chunk)
            names = NAMES[:rank]
            texts = []
            for _, word in chunk:
                if not word:
                    texts.append(f"{names[0]}^0")
                elif rng.random() < 0.5:
                    texts.append(" ".join(names[g] if s > 0 else f"{names[g]}^-1" for g, s in word))
                else:
                    texts.append(pair_render_word(word, names))
            text = f"gens: {', '.join(names)}\nrels: {', '.join(texts)}\n"
            gen_index = {name: i for i, name in enumerate(names)}
            reduced = [
                pair_free_reduce([l for term in t.split() for l in pair_parse_term(term, gen_index)])
                for t in texts
            ]
            with warnings.catch_warnings(record=True) as caught:
                p = parse_presentation(text)
            assert p.relators == tuple(as_ints(w) for w in reduced if w), text
            assert len(caught) == sum(not w for w in reduced), text
