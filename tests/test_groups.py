"""Words, presentations, coset enumeration, Cayley balls."""

import dataclasses
import random

import pytest

from permutoid_lab.coset import _verify, enumerate_cosets
from permutoid_lab.errors import OutOfBounds, ParseError, RelatorNotKilled, UsageError
from permutoid_lab.groups import (
    FreeGroup,
    Presentation,
    RealizedGroup,
    Word,
    cayley_ball,
    format_presentation,
    free_reduce,
    parse_presentation,
    render_word,
    todd_coxeter,
)

from conftest import POOL_PRESENTATIONS, saturating_radius


class TestFreeReduce:
    def test_cancels_adjacent_inverse_pair(self):
        w = Word(((0, 1), (0, -1), (1, 1)))
        assert free_reduce(w).letters == ((1, 1),)

    def test_empty_stays_empty(self):
        assert free_reduce(Word(())).letters == ()

    def test_nested_cancellation(self):
        w = Word(((0, 1), (1, 1), (1, -1), (0, -1)))
        assert free_reduce(w).letters == ()

    def test_idempotent(self):
        w = Word(((0, 1), (0, 1), (1, -1)))
        assert free_reduce(free_reduce(w)) == free_reduce(w)


class TestParsePresentation:
    def test_single_generator_power(self):
        p = parse_presentation("gens: a\nrels: a^5")
        assert p.generators == ("a",)
        assert len(p.relators) == 1
        assert p.relators[0].length == 5

    def test_three_relators(self):
        p = parse_presentation("gens: a,b\nrels: a^2, b^3, a b a b")
        assert [r.length for r in p.relators] == [2, 3, 4]

    def test_reducible_relator_dropped_with_warning(self):
        with pytest.warns(UserWarning):
            p = parse_presentation("gens: a\nrels: a a^-1")
        assert p.relators == ()

    def test_unknown_generator(self):
        with pytest.raises(ParseError) as ei:
            parse_presentation("gens: a\nrels: b^2")
        assert ei.value.code == "UnknownGenerator"

    def test_bad_exponent(self):
        with pytest.raises(ParseError) as ei:
            parse_presentation("gens: a\nrels: a^x")
        assert ei.value.code == "BadExponent"

    def test_empty_generator_list(self):
        with pytest.raises(ParseError) as ei:
            parse_presentation("rels: a^2")
        assert ei.value.code == "EmptyGeneratorList"

    def test_negative_exponent(self):
        p = parse_presentation("gens: a, b\nrels: a b^-2")
        assert p.relators[0].letters == ((0, 1), (1, -1), (1, -1))

    def test_comments_and_blank_lines(self):
        p = parse_presentation("# cyclic\n\ngens: a\nrels: a^3\n")
        assert p.generators == ("a",)

    def test_round_trip(self):
        text = "gens: a, b\nrels: a^2, b^3, a b a b\n"
        assert format_presentation(parse_presentation(text)) == text

    def test_render_word_collapses_runs(self):
        assert render_word(Word(((0, 1), (0, 1), (1, -1))), ("a", "b")) == "a^2 b^-1"
        assert render_word(Word(()), ("a",)) == "1"


class TestToddCoxeter:
    def test_z5_table_is_modular_addition(self, pool_groups):
        g = pool_groups["z5"]
        assert g.order == 5
        # oracle: index each element by its power of the generator, then the
        # table must agree with addition mod 5 under that indexing
        a = g.generator_images[0]
        power = {0: 0}
        x, k = a, 1
        while x != 0:
            power[x] = k
            x, k = g.table[x][a], k + 1
        assert len(power) == 5
        for i in range(5):
            for j in range(5):
                assert power[g.table[i][j]] == (power[i] + power[j]) % 5

    def test_s3_order_census(self, pool_groups):
        g = pool_groups["s3"]
        assert g.order == 6

        def elt_order(i):
            o, x = 1, i
            while x != 0:
                x, o = g.table[x][i], o + 1
            return o

        census = sorted(elt_order(i) for i in range(6))
        assert census == [1, 2, 2, 2, 3, 3]

    def test_free_group_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            todd_coxeter(parse_presentation("gens: a"), 100)

    def test_trivial_group(self):
        g = todd_coxeter(parse_presentation("gens: a\nrels: a"), 100)
        assert g.order == 1

    def test_deterministic_tables(self):
        p = parse_presentation("gens: a, b\nrels: a^2, b^3, a b a b")
        assert todd_coxeter(p, 100) == todd_coxeter(p, 100)

    def test_identity_row_and_column(self, pool_groups):
        g = pool_groups["q8"]
        assert all(g.table[0][j] == j for j in range(g.order))
        assert all(g.table[i][0] == i for i in range(g.order))

    def test_bad_cap(self):
        with pytest.raises(UsageError):
            todd_coxeter(parse_presentation("gens: a\nrels: a^2"), 0)

    def test_enumerate_cosets_bad_cap_is_usage_error(self):
        with pytest.raises(UsageError) as ei:
            enumerate_cosets(1, [], 0)
        assert str(ei.value) == "max_cosets must be >= 1"

    def test_lookahead_recovers_space_on_collapsing_presentation(self):
        # a classic trivial-group presentation whose enumeration overshoots
        # before collapsing: a tight cap forces the lookahead phase
        p = parse_presentation("gens: a, b\nrels: b^-1 a b a^-2, a^-1 b a b^-2")
        with pytest.raises(OutOfBounds):
            todd_coxeter(p, 8)
        assert todd_coxeter(p, 10).order == 1

    def test_tight_cap_gives_identical_table(self, pool_presentations):
        p = pool_presentations["s3"]
        assert todd_coxeter(p, 7) == todd_coxeter(p, 1000)


SYMPY_PRESENTATIONS = dict(
    POOL_PRESENTATIONS,
    s4="gens: a, b\nrels: a^2, b^3, a b a b a b a b",
    a5="gens: a, b\nrels: a^2, b^3, a b a b a b a b a b",
)


class TestAgainstSympy:
    @pytest.mark.parametrize("name", sorted(SYMPY_PRESENTATIONS))
    def test_order_matches_sympy_coset_enumeration(self, name):
        free_groups = pytest.importorskip("sympy.combinatorics.free_groups")
        fp_groups = pytest.importorskip("sympy.combinatorics.fp_groups")
        p = parse_presentation(SYMPY_PRESENTATIONS[name])
        F, *gens = free_groups.free_group(", ".join(p.generators))
        relators = []
        for r in p.relators:
            w = F.identity
            for g, s in r.letters:
                w *= gens[g] ** s
            relators.append(w)
        assert todd_coxeter(p, 1000).order == fp_groups.FpGroup(F, relators).order()


class TestRealizedGroupChecks:
    def test_rejects_broken_associativity(self):
        # Latin square with identity that is not a group table
        table = (
            (0, 1, 2, 3, 4),
            (1, 0, 3, 4, 2),
            (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1),
            (4, 3, 1, 2, 0),
        )
        with pytest.raises(UsageError):
            RealizedGroup(5, table, (1,))

    def test_rejects_non_generating_images(self):
        table = tuple(
            tuple((i + j) % 4 for j in range(4)) for i in range(4)
        )
        with pytest.raises(UsageError):
            RealizedGroup(4, table, (2,))

    def test_accepts_z4_with_generator(self):
        table = tuple(
            tuple((i + j) % 4 for j in range(4)) for i in range(4)
        )
        g = RealizedGroup(4, table, (1,))
        assert g.inverses == (0, 3, 2, 1)

    def test_rejects_z400_with_a_swapped_intercalate(self):
        # Z400's table stays a Latin square with identity and inverses when
        # the intercalate on rows and columns 1 and 201 (entries 2 and 202)
        # is swapped, and 1 still generates it; it is no longer associative
        n = 400
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        for i, j in ((1, 1), (1, 201), (201, 1), (201, 201)):
            table[i][j] = (table[i][j] + 200) % n
        with pytest.raises(UsageError, match=r"associativity fails at \(1,1,2\)"):
            RealizedGroup(n, tuple(map(tuple, table)), (1,))

    def test_agrees_with_brute_force_on_perturbed_tables(self):
        rng = random.Random(1729)
        kinds = {"accepted": 0, "not associative": 0, "other": 0}
        for text in SMALL_GROUPS:
            group = todd_coxeter(parse_presentation(text), 1000)
            n = group.order
            for _ in range(12):
                table = perturbed(rng, [list(row) for row in group.table])
                images = tuple(rng.randrange(n) for _ in range(rng.randint(1, 3)))
                expected = brute_force_is_group(table, images)
                try:
                    RealizedGroup(n, tuple(map(tuple, table)), images)
                    accepted = True
                except UsageError:
                    accepted = False
                assert accepted == expected, (text, table, images)
                if accepted:
                    kinds["accepted"] += 1
                elif is_latin_with_identity(table) and generates(table, images):
                    kinds["not associative"] += 1
                else:
                    kinds["other"] += 1
        assert min(kinds.values()) >= 20, kinds


SMALL_GROUPS = [f"gens: a\nrels: a^{n}" for n in range(1, 17)] + [
    "gens: a, b\nrels: a^2, b^2, a b a^-1 b^-1",  # Klein four
    "gens: a, b\nrels: a^2, b^3, a b a b",  # S3
    "gens: a, b\nrels: a^4, b^2, a b a b",  # D4
    "gens: a, b\nrels: a^4, a^2 b^-2, b^-1 a b a",  # Q8
    "gens: a, b\nrels: a^2, b^3, a b a b a b",  # A4
    "gens: a, b\nrels: a^6, b^2, a b a b",  # D6
    "gens: a, b\nrels: a^8, b^2, a b a b",  # D8
    "gens: a, b\nrels: a^4, b^4, a b a^-1 b^-1",  # Z4 x Z4
]


def intercalates(table):
    """2x2 Latin subsquares away from the identity's row and column."""
    n = len(table)
    return [
        (r1, r2, c1, c2)
        for r1 in range(1, n)
        for r2 in range(r1 + 1, n)
        for c1 in range(1, n)
        for c2 in range(c1 + 1, n)
        if table[r1][c1] == table[r2][c2] and table[r1][c2] == table[r2][c1]
    ]


def perturbed(rng, table):
    """The table after a few random intercalate swaps, a relabelling that
    fixes 0, or a corrupted cell."""
    n = len(table)
    kind = rng.choice(("none", "relabel", "swap", "swap", "swap", "corrupt"))
    if kind == "relabel":
        sigma = [0] + rng.sample(range(1, n), n - 1)
        out = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                out[sigma[i]][sigma[j]] = sigma[table[i][j]]
        return out
    if kind == "swap":
        for _ in range(rng.randint(1, 2)):
            found = intercalates(table)
            if found:
                r1, r2, c1, c2 = rng.choice(found)
                table[r1][c1], table[r1][c2] = table[r1][c2], table[r1][c1]
                table[r2][c1], table[r2][c2] = table[r2][c2], table[r2][c1]
    if kind == "corrupt" and n > 1:
        table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    return table


def is_latin_with_identity(table):
    n = len(table)
    symbols = list(range(n))
    return (
        all(table[0][i] == i and table[i][0] == i for i in range(n))
        and all(sorted(row) == symbols for row in table)
        and all(sorted(row[j] for row in table) == symbols for j in range(n))
    )


def generates(table, images):
    reached, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for g in images:
            if table[x][g] not in reached:
                reached.add(table[x][g])
                frontier.append(table[x][g])
    return len(reached) == len(table)


def brute_force_is_group(table, images):
    """A Latin square with identity 0 that is associative on all n^3
    triples is a group; in a finite group the images generate when their
    right multiplications reach every element."""
    n = len(table)
    return (
        is_latin_with_identity(table)
        and all(
            table[table[a][b]][c] == table[a][table[b][c]]
            for a in range(n) for b in range(n) for c in range(n)
        )
        and generates(table, images)
    )


class TestCayleyBall:
    def test_infinite_cyclic_ball_sizes(self):
        fg = FreeGroup(1)
        assert cayley_ball(fg, 1).size == 3
        assert cayley_ball(fg, 2).size == 5

    def test_z3_saturates(self, pool_groups):
        assert cayley_ball(pool_groups["z3"], 2).size == 3

    def test_trivial_group_ball(self):
        g = todd_coxeter(parse_presentation("gens: a\nrels: a"), 10)
        for r in (1, 2, 3):
            assert cayley_ball(g, r).size == 1

    def test_nesting(self, pool_groups):
        g = pool_groups["s3"]
        b2, b3 = cayley_ball(g, 2), cayley_ball(g, 3)
        assert set(b2.handles) <= set(b3.handles)
        # breadth-first prefix ordering agrees between radii
        assert b3.handles[: b2.size] == b2.handles

    def test_inverse_closure(self, pool_groups):
        for name in ("z6", "s3", "q8"):
            ball = cayley_ball(pool_groups[name], 2)
            for i in range(ball.size):
                j = ball.inverse_position(i)
                assert ball.distances[j] <= ball.distances[i]

    def test_geodesic_lengths_match_bfs_depth(self, pool_groups):
        for group in (pool_groups["q8"], FreeGroup(2)):
            ball = cayley_ball(group, 2)
            for i in range(ball.size):
                assert ball.words[i].length == ball.distances[i]

    def test_prefix_size(self, pool_groups):
        ball = cayley_ball(pool_groups["z6"], 4)
        assert ball.prefix_size(1) == 3
        assert ball.prefix_size(2) == 5
        assert ball.prefix_size(3) == 6

    def test_saturating_radius_helper(self, pool_groups):
        from conftest import POOL_ORDERS

        for name, group in pool_groups.items():
            r = saturating_radius(group)
            assert cayley_ball(group, r).size == POOL_ORDERS[name]


class TestBrokenInvariantsRaise:
    """Checks that once were ``assert`` statements raise typed errors."""

    def test_coset_verify_rejects_a_corrupted_table(self):
        # Z2's complete table, checked against a^3 instead of a^2
        with pytest.raises(RelatorNotKilled) as ei:
            _verify([[1, 1], [0, 0]], [[0, 0, 0]])
        assert ei.value.details == {"relator": 0, "coset": 0}
        with pytest.raises(OutOfBounds):
            _verify([[1, None], [0, 0]], [[0, 0, 0]])

    def test_ball_missing_an_inverse(self):
        ball = cayley_ball(FreeGroup(1), 1)  # a^0, a, a^-1
        cut = dataclasses.replace(
            ball, handles=ball.handles[:2], words=ball.words[:2], distances=ball.distances[:2]
        )
        assert cut.inverse_position(0) == 0
        with pytest.raises(UsageError, match="inverse of ball element 1"):
            cut.inverse_position(1)
