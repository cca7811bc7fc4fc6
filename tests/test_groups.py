"""Words, presentations, coset enumeration, Cayley balls."""

import random

import pytest

from permutoid_lab.coset import _verify, enumerate_cosets
from permutoid_lab.errors import OutOfBounds, ParseError, RelatorNotKilled, UsageError
from permutoid_lab.groups import (
    FreeGroup,
    Presentation,
    RealizedGroup,
    cameron_permutoid,
    cayley_ball,
    format_presentation,
    free_reduce,
    group_from_table,
    parse_presentation,
    realize_backend,
    render_word,
    todd_coxeter,
)

from conftest import POOL_PRESENTATIONS, saturating_radius


class TestFreeReduce:
    def test_cancels_adjacent_inverse_pair(self):
        w = (0, 1, 2)
        assert free_reduce(w) == (2,)

    def test_empty_stays_empty(self):
        assert free_reduce(()) == ()

    def test_nested_cancellation(self):
        w = (0, 2, 3, 1)
        assert free_reduce(w) == ()

    def test_same_generator_same_sign_does_not_cancel(self):
        assert free_reduce((0, 0, 3, 3)) == (0, 0, 3, 3)
        assert free_reduce((1, 2)) == (1, 2)

    def test_idempotent(self):
        w = (0, 0, 3)
        assert free_reduce(free_reduce(w)) == free_reduce(w)


class TestParsePresentation:
    def test_single_generator_power(self):
        p = parse_presentation("gens: a\nrels: a^5")
        assert p.generators == ("a",)
        assert len(p.relators) == 1
        assert len(p.relators[0]) == 5

    def test_three_relators(self):
        p = parse_presentation("gens: a,b\nrels: a^2, b^3, a b a b")
        assert [len(r) for r in p.relators] == [2, 3, 4]

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
        assert p.relators[0] == (0, 3, 3)

    @pytest.mark.parametrize(
        "text, code",
        [("gens: a\ngens: b", "DuplicateGensLine"), ("gens: a\nrelators: a^2", "BadLine")],
        ids=["DuplicateGensLine", "BadLine"],
    )
    def test_rejects_lines(self, text, code):
        with pytest.raises(ParseError) as ei:
            parse_presentation(text)
        assert ei.value.code == code

    @pytest.mark.parametrize(
        "generators, relators, code",
        [
            ((), (), "EmptyGeneratorList"),
            (("a", "a"), (), "DuplicateGenerator"),
            (("a", "2b"), (), "BadGeneratorName"),
            # a name that is not a str, which the name pattern cannot read
            ((1,), (), "BadGeneratorName"),
            # nor hash: refused before the duplicate check
            (([1],), (), "BadGeneratorName"),
            # two bad str names are duplicates first
            (("2b", "2b"), (), "DuplicateGenerator"),
            # letter 2 is a second generator's
            (("a",), ((2,),), "UnknownGenerator"),
            (("a",), ((0, -1),), "UnknownGenerator"),
            # a (generator, sign) pair is not a letter
            (("a", "b"), (((0, 1),),), "BadLetter"),
            # True == 1 would pass the range test as a's inverse
            (("a", "b"), ((True,),), "BadLetter"),
            (("a",), ((0.0,),), "BadLetter"),
        ],
        ids=["EmptyGeneratorList", "DuplicateGenerator", "BadGeneratorName", "BadGeneratorName-int",
             "BadGeneratorName-list", "DuplicateGenerator-bad-names", "UnknownGenerator",
             "UnknownGenerator-negative", "BadLetter-pair", "BadLetter-bool-index",
             "BadLetter-float"],
    )
    def test_direct_construction_rejects(self, generators, relators, code):
        with pytest.raises(ParseError) as ei:
            Presentation(generators, relators)
        assert ei.value.code == code

    def test_comments_and_blank_lines(self):
        p = parse_presentation("# cyclic\n\ngens: a\nrels: a^3\n")
        assert p.generators == ("a",)

    def test_round_trip(self):
        text = "gens: a, b\nrels: a^2, b^3, a b a b\n"
        assert format_presentation(parse_presentation(text)) == text

    def test_render_word_collapses_runs(self):
        assert render_word((0, 0, 3), ("a", "b")) == "a^2 b^-1"
        assert render_word((1, 0, 2, 2, 2), ("a", "b")) == "a^-1 a b^3"
        assert render_word((), ("a",)) == "1"


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

    @pytest.mark.parametrize("cap", [2.5, True, "9"], ids=["float", "bool", "str"])
    def test_enumerate_cosets_non_int_cap(self, cap):
        # True would pass as a cap of one coset, "9" would break the comparison
        with pytest.raises(UsageError) as ei:
            enumerate_cosets(1, [], cap)
        assert str(ei.value) == f"max_cosets must be an int, got {cap!r}"

    @pytest.mark.parametrize(
        "num_gens, relators, code, message",
        [
            # -1 would be read as column 1 and give Z3's table
            (1, [[-1, -1, -1]], "UnknownGenerator", "letter -1 out of range"),
            (1, [[2]], "UnknownGenerator", "letter 2 out of range"),
            (0, [[0]], "UnknownGenerator", "letter 0 out of range"),
            # True == 1, so the values alone would take it for letter 1
            (1, [[0, 0], [1, True]], "BadLetter", "letter True is not an int"),
            (1, [[1.0, 1.0]], "BadLetter", "letter 1.0 is not an int"),
            (1, [[[0]]], "BadLetter", "letter [0] is not an int"),
        ],
        ids=["negative", "past-the-columns", "no-columns", "bool", "float", "list"],
    )
    def test_enumerate_cosets_rejects_bad_letters(self, num_gens, relators, code, message):
        with pytest.raises(ParseError) as ei:
            enumerate_cosets(num_gens, relators, 10)
        assert (ei.value.code, str(ei.value)) == (code, message)

    @pytest.mark.parametrize("cap, message", [
        (0, "max_cosets must be >= 1"),
        (-5, "max_cosets must be >= 1"),
        (2.5, "max_cosets must be an int, got 2.5"),
        (True, "max_cosets must be an int, got True"),
    ])
    @pytest.mark.parametrize("text", ["gens: a, b", "gens: a\nrels: a^3"], ids=["free", "z3"])
    def test_realize_backend_checks_the_cap_first(self, text, cap, message):
        # a presentation without relators needs no coset enumeration, and
        # its bad cap is refused all the same
        with pytest.raises(UsageError) as ei:
            realize_backend(parse_presentation(text), cap)
        assert str(ei.value) == message

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
            for x in r:
                w *= gens[x >> 1] ** (-1 if x & 1 else 1)
            relators.append(w)
        assert todd_coxeter(p, 1000).order == fp_groups.FpGroup(F, relators).order()


class TestRealizedGroupChecks:
    """``group_from_table`` checks an explicit multiplication table."""

    def test_list_inputs_stored_as_tuples(self):
        steps = [[1, 1], [0, 0]]
        g = RealizedGroup(steps)
        assert hash(g) == hash(RealizedGroup(((1, 1), (0, 0))))
        steps[0][0] = 0
        assert g.steps == ((1, 1), (0, 0))
        rows, images = [[0, 1], [1, 0]], [1]
        h = group_from_table(2, rows, images)
        rows[0][1], rows[1][1], images[0] = 0, 1, 0
        assert h == g and h.table == ((0, 1), (1, 0)) and h.generator_images == (1,)
        assert (h.step(0, 0), h.step(1, 0)) == (1, 0)

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
            group_from_table(5, table, (1,))

    @pytest.mark.parametrize(
        "order, table, images, message",
        [
            (2, ((0, 1),), (1,), "not 2x2"),
            (2, ((0, 1), (1,)), (1,), "not 2x2"),
            (2, ((0, 1), (1, 0)), (2,), "generator image out of range"),
            (2.0, ((0, 1), (1, 0)), (1,), "order must be an int"),
            # a bool order would pass the shape checks as 1
            (True, ((0,),), (), "order must be an int"),
        ],
        ids=["too-few-rows", "short-row", "image-out-of-range", "float-order", "bool-order"],
    )
    def test_rejects_malformed_input(self, order, table, images, message):
        with pytest.raises(UsageError, match=message):
            group_from_table(order, table, images)

    @pytest.mark.parametrize(
        "table, images, message",
        [
            (((False, True), (True, False)), (1,), "row 0 is not a permutation"),
            (((0, 1), (1.0, 0)), (1,), "row 1 is not a permutation"),
            (((0, 1), (1, 0)), (True,), "generator image out of range"),
        ],
        ids=["bool-entries", "float-entry", "bool-image"],
    )
    def test_rejects_non_int_entries(self, table, images, message):
        # True == 1 and 1.0 == 1, so only the type tells these from Z2's table
        group_from_table(2, ((0, 1), (1, 0)), (1,))
        with pytest.raises(UsageError, match=message):
            group_from_table(2, table, images)

    def test_rejects_non_generating_images(self):
        table = tuple(
            tuple((i + j) % 4 for j in range(4)) for i in range(4)
        )
        with pytest.raises(UsageError, match="generator images do not generate the group"):
            group_from_table(4, table, (2,))

    def test_accepts_z4_with_generator(self):
        table = tuple(
            tuple((i + j) % 4 for j in range(4)) for i in range(4)
        )
        g = group_from_table(4, table, (1,))
        assert g.inverses == (0, 3, 2, 1)
        assert g.steps == ((1, 3), (2, 0), (3, 1), (0, 2))

    def test_rejects_z400_with_a_swapped_intercalate(self):
        # Z400's table stays a Latin square with identity and inverses when
        # the intercalate on rows and columns 1 and 201 (entries 2 and 202)
        # is swapped, and 1 still generates it; it is no longer associative
        n = 400
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        for i, j in ((1, 1), (1, 201), (201, 1), (201, 201)):
            table[i][j] = (table[i][j] + 200) % n
        with pytest.raises(UsageError, match=r"associativity fails at \(1,1,2\)"):
            group_from_table(n, tuple(map(tuple, table)), (1,))

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
                    group_from_table(n, tuple(map(tuple, table)), images)
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


class TestRegularAction:
    """``RealizedGroup`` checks that its generator columns act regularly."""

    @pytest.mark.parametrize(
        "steps, message",
        [
            # S3 on 3 points, a = (0 1) and b = (0 1 2): transitive, order 6
            (((1, 1, 1, 2), (0, 0, 2, 0), (2, 2, 0, 1)),
             "the group does not act regularly: generator 1 at element 0 "
             "gives a non-trivial Schreier generator"),
            # Z2 on two orbits of two points
            (((1, 1), (0, 0), (3, 3), (2, 2)), "generator images do not generate the group"),
            # Z3 whose inverse column repeats the generator's
            (((1, 1), (2, 2), (0, 0)), "step column 1 is not the inverse of column 0"),
            (((True, 1), (0, 0)), "step column 0 is not a permutation"),
            (((1, 1.0), (0, 0)), "step column 1 is not a permutation"),
            (((1, 1), (0,)), "step table rows do not share one even width"),
            (((0,),), "step table rows do not share one even width"),
            ((), "step table rows do not share one even width"),
        ],
        ids=["s3-on-3-points", "intransitive", "not-the-inverse", "bool-entry", "float-entry",
             "ragged", "odd-width", "no-rows"],
    )
    def test_rejects(self, steps, message):
        with pytest.raises(UsageError) as ei:
            RealizedGroup(steps)
        assert str(ei.value) == message

    def test_a_later_element_breaks_regularity(self):
        # D4 on 4 points, a = (0 1)(2 3) and b = (0 2): every tree edge out
        # of element 0 holds, and b at element 1 fixes 1 where a does not
        a, b = (1, 0, 3, 2), (2, 1, 0, 3)
        with pytest.raises(UsageError, match="generator 1 at element 1 "):
            RealizedGroup(tuple((a[h], a[h], b[h], b[h]) for h in range(4)))

    def test_trivial_group_without_generators(self):
        g = RealizedGroup(((),))
        assert (g.order, g.num_generators, g.generator_images, g.table) == (1, 0, (), ((0,),))

    @pytest.mark.parametrize("name", sorted(POOL_PRESENTATIONS))
    def test_the_table_reduces_to_the_steps(self, name):
        g = todd_coxeter(parse_presentation(POOL_PRESENTATIONS[name]), 1000)
        assert "table" not in vars(g) and "inverses" not in vars(g)
        assert group_from_table(g.order, g.table, g.generator_images).steps == g.steps
        assert "table" in vars(g)


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


def words_and_distances(ball):
    """Each element's geodesic word and distance, read off its parent."""
    words, distances = [()], [0]
    for p, x in ball.parents[1:]:
        words.append(words[p] + (x,))
        distances.append(distances[p] + 1)
    return words, distances


def frozen_cayley_ball(group, radius):
    """The breadth-first search of ``cayley_ball`` as it was when the ball
    also stored words and distances: (handles, words, distances, edges,
    parents)."""
    columns = range(2 * group.num_generators)
    handles = [group.identity_handle]
    index = {handles[0]: 0}
    words = [()]
    dist = [0]
    parents = [None]
    edges = []
    for i, h in enumerate(handles):
        if dist[i] == radius:
            break
        row = []
        for x in columns:
            t = group.step(h, x)
            j = index.get(t)
            if j is None:
                j = index[t] = len(handles)
                handles.append(t)
                words.append(words[i] + (x,))
                dist.append(dist[i] + 1)
                parents.append((i, x))
            row.append(j)
        edges.append(tuple(row))
    return tuple(handles), words, dist, tuple(edges), tuple(parents)


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
        # a smaller ball is a prefix of a larger one, which radius_extension's
        # initial-segment maps rest on
        cases = [(g, range(1, saturating_radius(g) + 2)) for g in pool_groups.values()]
        cases += [(FreeGroup(k), range(1, 7 - k)) for k in (1, 2, 3)]
        for group, radii in cases:
            balls = [cayley_ball(group, r) for r in radii]
            for i, small in enumerate(balls):
                small_words, small_distances = words_and_distances(small)
                for big in balls[i + 1:]:
                    big_words, big_distances = words_and_distances(big)
                    assert big.handles[: small.size] == small.handles
                    assert big_words[: small.size] == small_words
                    assert big_distances[: small.size] == small_distances
                    assert big.parents[: small.size] == small.parents
                    assert big.edges[: len(small.edges)] == small.edges

    def test_inverse_closure(self, pool_groups):
        # the inverted geodesic word of each element walks, along the
        # ball's edges, to that element's inverse
        for name in ("z6", "s3", "q8"):
            group = pool_groups[name]
            ball = cayley_ball(group, 2)
            words, distances = words_and_distances(ball)
            for i in range(ball.size):
                j = 0
                for x in reversed(words[i]):
                    j = ball.edges[j][x ^ 1]
                assert group.table[ball.handles[i]][ball.handles[j]] == 0
                assert distances[j] <= distances[i]

    def test_geodesic_lengths_match_bfs_depth(self, pool_groups):
        for group in (pool_groups["q8"], FreeGroup(2)):
            ball = cayley_ball(group, 2)
            words, distances = words_and_distances(ball)
            depths = frozen_cayley_ball(group, 2)[2]
            for i in range(ball.size):
                assert len(words[i]) == distances[i] == depths[i]

    def test_matches_the_frozen_search(self, pool_groups):
        # the ball stores handles, edges and parents only; words, distances,
        # prefix sizes and labels read off the parents are the old ones
        cases = [(g, range(1, saturating_radius(g) + 2)) for g in pool_groups.values()]
        cases += [(FreeGroup(k), range(1, 7 - k)) for k in (1, 2, 3)]
        cases.append((RealizedGroup(((),)), range(1, 4)))
        for group, radii in cases:
            for radius in radii:
                ball = cayley_ball(group, radius)
                handles, words, distances, edges, parents = frozen_cayley_ball(group, radius)
                assert (ball.radius, ball.handles, ball.edges, ball.parents) == (
                    radius, handles, edges, parents
                )
                assert words_and_distances(ball) == (words, distances)
                for r in range(-2, radius + 4):
                    assert ball.prefix_size(r) == sum(d <= r for d in distances), (group, radius, r)
                if radius % 2 == 0:
                    names = ["a%d" % g for g in range(group.num_generators)]
                    inner = sum(d <= radius // 2 for d in distances)
                    labels = tuple(render_word(w, names) for w in words[:inner])
                    assert cameron_permutoid(group, radius // 2).labels == labels

    def test_bad_radius(self):
        with pytest.raises(UsageError, match="radius must be >= 1"):
            cayley_ball(FreeGroup(1), 0)

    @pytest.mark.parametrize("radius", [2.0, True, "2"], ids=["float", "bool", "str"])
    def test_non_int_radius(self, radius):
        with pytest.raises(UsageError, match=f"radius must be an int, got {radius!r}"):
            cayley_ball(FreeGroup(1), radius)

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
