"""Coset enumeration and ``todd_coxeter`` against a frozen earlier engine.

An earlier HLT enumeration is copied here as an oracle: the
``_Enumeration`` class, which on a full table compressed its rows and
restarted from coset 0 after each lookahead, and ``todd_coxeter``'s
multiplication table rebuilt by tracing each coset's representative word.
The engine under test, ``enumerate_cosets``, is one function that resumes
at the coset where the cap stopped it, renumbers only once and stops early
once every live row is full and the table verifies, and
``RealizedGroup.table`` builds the multiplication table column by column
from the coset table.  Both must return the same tables, or raise the same
exceptions, on every presentation and cap.
"""

import random
import sys
from collections import Counter, deque

import pytest

from permutoid_lab import coset
from permutoid_lab.coset import enumerate_cosets
from permutoid_lab.errors import OutOfBounds, ParseError, PermutoidLabError, RelatorNotKilled
from permutoid_lab.groups import (
    Presentation,
    cameron_permutoid,
    free_reduce,
    parse_presentation,
    todd_coxeter,
    universal_group,
)

from conftest import POOL_PRESENTATIONS

# the finite groups of the balls benchmark workload
BENCH_PRESENTATIONS = {
    "s4": "gens: a, b\nrels: a^2, b^3, a b a b a b a b",
    "a5": "gens: a, b\nrels: a^2, b^3, a b a b a b a b a b",
    "psl27": "gens: a, b\nrels: a^2, b^3, a b a b a b a b a b a b a b, "
    + " ".join(["a^-1 b^-1 a b"] * 4),
}

# presentations whose enumeration runs into the definitions bound, the
# second after 13 lookaheads
ABANDONING = [
    (2, [[3, 1, 2, 1, 3, 0, 2]], 350),
    (2, [[0, 1], [1, 0], [0, 2, 0, 3, 0, 1, 1]], 200),
]

# presentations whose table is once complete while a relator does not
# close: the early finish is refused, and a coincidence follows.  The
# third's relators are the Schreier generators of a subgroup of index 4
# whose normalizer holds coset 1, so after row 0 builds its Schreier graph,
# row 1 closes every relator too and a retried finish would run again
# before the coincidence at row 2.
REFUSING = [
    (3, [[2, 3, 0, 2, 1], [0, 2, 4], [0, 4, 1, 2, 2, 3, 2, 4], [1, 0, 2, 2, 5, 4, 0, 1, 5, 1], [1, 3, 0, 5, 5]]),
    (2, [[1, 0, 3, 1, 2, 3, 2], [2, 2, 3, 0, 2], [1, 1]]),
    (2, [[2, 2], [0, 0, 3], [0, 2, 1], [2, 0, 0], [1, 2, 0]]),
]

# the saturated balls of the balls benchmark workload whose universal group
# it enumerates
SATURATED_BALLS = [("s4", rho) for rho in range(3, 7)] + [("a5", 5), ("a5", 10)]


def universal_relators(name, rho):
    """(num_gens, relators) of the universal group of a saturated ball."""
    group = todd_coxeter(parse_presentation(BENCH_PRESENTATIONS[name]), 1000)
    P = cameron_permutoid(group, rho).permutoid
    assert P.ground_size == group.order
    u = universal_group(P)
    return len(u.generators), [list(r) for r in u.relators]


class _TableFull(Exception):
    pass


class _OracleEnumeration:
    """The earlier engine, unchanged but for the ``lookaheads`` count."""

    def __init__(self, num_gens, relators, max_cosets, max_definitions):
        self.width = 2 * num_gens
        self.relators = relators
        self.max_cosets = max_cosets
        self.max_definitions = max_definitions
        self.table = [[None] * self.width]
        self.p = [0]
        self.live = 1
        self.definitions = 0
        self.lookaheads = 0

    def rep(self, k):
        l = k
        p = self.p
        while p[l] != l:
            l = p[l]
        while p[k] != l:
            p[k], k = l, p[k]
        return l

    def merge(self, k, lam, queue):
        phi, psi = self.rep(k), self.rep(lam)
        if phi != psi:
            mu, nu = min(phi, psi), max(phi, psi)
            self.p[nu] = mu
            self.live -= 1
            queue.append(nu)

    def coincidence(self, alpha, beta):
        queue = deque()
        self.merge(alpha, beta, queue)
        table = self.table
        while queue:
            gamma = queue.popleft()
            for x in range(self.width):
                delta = table[gamma][x]
                if delta is None:
                    continue
                table[delta][x ^ 1] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if table[mu][x] is not None:
                    self.merge(nu, table[mu][x], queue)
                elif table[nu][x ^ 1] is not None:
                    self.merge(mu, table[nu][x ^ 1], queue)
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu

    def define(self, alpha, x):
        if self.live >= self.max_cosets:
            raise _TableFull
        self.definitions += 1
        if self.definitions > self.max_definitions:
            raise OutOfBounds(
                f"abandoned after {self.definitions} coset definitions",
                definitions=self.definitions,
            )
        beta = len(self.table)
        self.p.append(beta)
        self.table.append([None] * self.width)
        self.live += 1
        self.table[alpha][x] = beta
        self.table[beta][x ^ 1] = alpha

    def scan(self, alpha, word, fill):
        table = self.table
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and table[b][word[j] ^ 1] is not None:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if i == j:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            if not fill:
                return
            self.define(f, word[i])

    def lookahead(self):
        self.lookaheads += 1
        for gamma in range(len(self.table)):
            if self.p[gamma] != gamma:
                continue
            for rel in self.relators:
                self.scan(gamma, rel, fill=False)
                if self.p[gamma] != gamma:
                    break

    def compress(self):
        new_of = {}
        for gamma in range(len(self.table)):
            if self.p[gamma] == gamma:
                new_of[gamma] = len(new_of)
        table = []
        for gamma in range(len(self.table)):
            if self.p[gamma] != gamma:
                continue
            table.append(
                [None if v is None else new_of[self.rep(v)] for v in self.table[gamma]]
            )
        self.table = table
        self.p = list(range(len(table)))

    def run(self):
        while True:
            alpha = 0
            restarted = False
            while alpha < len(self.table):
                if self.p[alpha] == alpha:
                    try:
                        for rel in self.relators:
                            self.scan(alpha, rel, fill=True)
                            if self.p[alpha] != alpha:
                                break
                        if self.p[alpha] == alpha:
                            for x in range(self.width):
                                if self.table[alpha][x] is None:
                                    self.define(alpha, x)
                    except _TableFull:
                        before = self.live
                        self.lookahead()
                        if self.live >= self.max_cosets or self.live >= before:
                            raise OutOfBounds(
                                f"coset enumeration exceeded {self.max_cosets} live cosets",
                                max_cosets=self.max_cosets,
                            ) from None
                        self.compress()
                        restarted = True
                        break
                alpha += 1
            if not restarted:
                break
        self.compress()
        self._standardize()
        self._verify()

    def _standardize(self):
        n = len(self.table)
        new_of = {0: 0}
        order = [0]
        for gamma in order:
            for x in range(self.width):
                beta = self.table[gamma][x]
                if beta not in new_of:
                    new_of[beta] = len(new_of)
                    order.append(beta)
        if len(new_of) != n:
            raise OutOfBounds(
                f"coset table has {n - len(new_of)} cosets unreachable from coset 0",
                unreachable=n - len(new_of),
            )
        table = [[None] * self.width for _ in range(n)]
        for gamma in range(n):
            for x in range(self.width):
                table[new_of[gamma]][x] = new_of[self.table[gamma][x]]
        self.table = table

    def _verify(self):
        for gamma, row in enumerate(self.table):
            if None in row:
                raise OutOfBounds(f"coset {gamma} has an undefined image", coset=gamma)
        for gamma in range(len(self.table)):
            for r, rel in enumerate(self.relators):
                delta = gamma
                for x in rel:
                    delta = self.table[delta][x]
                if delta != gamma:
                    raise RelatorNotKilled(
                        f"relator {r} does not close at coset {gamma}", relator=r, coset=gamma
                    )


def oracle_enumerate(num_gens, relators, max_cosets):
    """(outcome, lookaheads): outcome is ("table", table) or
    ("error", type, message, details)."""
    enum = _OracleEnumeration(num_gens, relators, max_cosets, 20 * max_cosets + 1000)
    try:
        enum.run()
    except (PermutoidLabError, IndexError) as exc:
        return _error(exc), enum.lookaheads
    return ("table", enum.table), enum.lookaheads


def enumerate_outcome(num_gens, relators, max_cosets):
    try:
        return ("table", enumerate_cosets(num_gens, relators, max_cosets))
    except (PermutoidLabError, IndexError) as exc:
        return _error(exc)


def _error(exc):
    # a relator letter past the last column raises IndexError from both
    return ("error", type(exc), str(exc), getattr(exc, "details", None))


def oracle_multiplication(table, num_gens):
    """The earlier rebuild: trace each coset's representative word."""
    n = len(table)
    reps = [None] * n
    reps[0] = []
    for alpha in range(n):
        for x in range(2 * num_gens):
            beta = table[alpha][x]
            if reps[beta] is None:
                reps[beta] = reps[alpha] + [x]

    def trace(start, word):
        for x in word:
            start = table[start][x]
        return start

    return tuple(tuple(trace(i, reps[j]) for j in range(n)) for i in range(n))


def random_presentation(rng):
    """(num_gens, relators) with up to three generators and freely reduced
    relators; half the draws give each generator a power relator, so that
    small finite groups (and caps just below their order) are common."""
    num_gens = rng.randint(1, 3)
    words = []
    if rng.random() < 0.5:
        words += [(2 * g,) * rng.randint(2, 6) for g in range(num_gens)]
    for _ in range(rng.randint(1, 3)):
        # generator, then sign: letter 2g for g, 2g + 1 for its inverse
        letters = [2 * rng.randrange(num_gens) + (rng.choice((1, -1)) == -1)
                   for _ in range(rng.randint(2, 8))]
        words.append(free_reduce(letters))
    return num_gens, [list(w) for w in words if w]


def _outcome_kind(outcome, lookaheads):
    if outcome[0] == "table":
        return "completed after a lookahead" if lookaheads else "completed"
    message = outcome[2]
    return "exceeded" if message.endswith(" live cosets") else message.split()[0]


class TestAgainstEarlierEngine:
    def test_random_presentations_and_caps(self):
        rng = random.Random(15)
        cases = [(*random_presentation(rng), rng.randint(1, 100)) for _ in range(3000)]
        kinds = Counter()
        for num_gens, relators, cap in cases + ABANDONING:
            expected, lookaheads = oracle_enumerate(num_gens, relators, cap)
            assert enumerate_outcome(num_gens, relators, cap) == expected, (relators, cap)
            kinds[_outcome_kind(expected, lookaheads)] += 1
            if expected[0] == "table":
                p = Presentation(tuple("abc"[:num_gens]), tuple(map(tuple, relators)))
                group = todd_coxeter(p, cap)
                assert group.table == oracle_multiplication(expected[1], num_gens), (relators, cap)
        assert set(kinds) == {
            "completed", "completed after a lookahead", "exceeded", "abandoned"
        }, kinds

    @pytest.mark.parametrize("name, rho", SATURATED_BALLS)
    def test_universal_groups_of_saturated_balls(self, name, rho):
        num_gens, relators = universal_relators(name, rho)
        # caps below, at and above the orders 24 and 60
        for cap in (5, 23, 24, 59, 60, 10_000):
            expected, _ = oracle_enumerate(num_gens, relators, cap)
            assert enumerate_outcome(num_gens, relators, cap) == expected, cap
        assert expected[0] == "table"

    @pytest.mark.parametrize("num_gens, relators", REFUSING)
    def test_refused_finishes(self, num_gens, relators):
        for cap in (3, 4, 5, 10, 100, 10_000):
            expected, _ = oracle_enumerate(num_gens, relators, cap)
            assert enumerate_outcome(num_gens, relators, cap) == expected, cap

    @pytest.mark.parametrize("relators", [[[0]], [[]], []], ids=["letter", "empty-word", "none"])
    def test_no_generators(self, relators):
        # with no column, the table is complete before row 0 is closed: a
        # finish tried then would return [[]] for the relator [0], which
        # names a column that does not exist; the oracle meets that letter
        # as an IndexError, and the engine refuses it before enumerating
        for cap in (1, 5):
            expected, _ = oracle_enumerate(0, relators, cap)
            if relators == [[0]]:
                assert expected[1] is IndexError
                expected = ("error", ParseError, "letter 0 out of range", {})
            assert enumerate_outcome(0, relators, cap) == expected, cap

    @pytest.mark.parametrize("name", [*POOL_PRESENTATIONS, *BENCH_PRESENTATIONS])
    def test_todd_coxeter_tables(self, name):
        p = parse_presentation({**POOL_PRESENTATIONS, **BENCH_PRESENTATIONS}[name])
        group = todd_coxeter(p, 1000)
        relators = [list(r) for r in p.relators]
        (kind, table), _ = oracle_enumerate(len(p.generators), relators, 1000)
        assert kind == "table"
        assert group.table == oracle_multiplication(table, len(p.generators))
        assert group.generator_images == tuple(table[0][2 * g] for g in range(len(p.generators)))


def _calls(code_names, run):
    """How often each named function of ``coset`` (``enumerate_cosets``'s
    local functions included) is entered while ``run()`` runs."""
    local = {k.co_name: k for k in enumerate_cosets.__code__.co_consts if hasattr(k, "co_name")}
    codes = {(local.get(name) or getattr(coset, name).__code__): name for name in code_names}
    counts = dict.fromkeys(code_names, 0)

    def tracer(frame, event, arg):
        name = codes.get(frame.f_code)
        if name is not None:
            counts[name] += 1
        return None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return counts, result


class TestEarlyFinish:
    """A table whose live rows are all full is standardized and verified
    at once, dead rows or none; when every relator closes, the loop's
    remaining rows would change nothing, so they are not closed."""

    def test_a5_universal_group_closes_one_row(self):
        num_gens, relators = universal_relators("a5", 10)
        counts, table = _calls(
            ("close_row", "_verify"), lambda: enumerate_cosets(num_gens, relators, 10_000)
        )
        assert len(table) == 60
        # without the finish, the loop closes all 60 rows
        assert counts == {"close_row": 1, "_verify": 1}

    def test_a5_universal_group_finishes_after_a_coincidence(self):
        # two cosets merge through coincidences; the finish fires all the same
        num_gens, relators = universal_relators("a5", 5)
        counts, table = _calls(
            ("close_row", "_verify", "coincidence"),
            lambda: enumerate_cosets(num_gens, relators, 10_000),
        )
        assert len(table) == 60 and counts["coincidence"] > 0
        assert counts["close_row"] < 60 and counts["_verify"] == 1

    @pytest.mark.parametrize("name, order", [("s4", 24), ("a5", 60), ("psl27", 168)])
    def test_base_groups_close_fewer_rows_than_their_order(self, name, order):
        p = parse_presentation(BENCH_PRESENTATIONS[name])
        relators = [list(r) for r in p.relators]
        counts, table = _calls(
            ("close_row", "_verify"), lambda: enumerate_cosets(len(p.generators), relators, 1000)
        )
        assert len(table) == order
        assert counts["close_row"] < order and counts["_verify"] == 1

    @pytest.mark.parametrize("num_gens, relators", REFUSING)
    def test_a_refused_finish_is_tried_once(self, num_gens, relators):
        for cap in (5, 100):
            counts, table = _calls(
                ("_verify",), lambda: enumerate_cosets(num_gens, relators, cap)
            )
            # one refused finish, then the check at the loop's end
            assert counts == {"_verify": 2}, cap
            assert len(table) == 2
