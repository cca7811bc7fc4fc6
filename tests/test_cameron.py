"""Ball permutoids, radius extensions, triangulation, universal groups."""

from dataclasses import dataclass

import pytest

from permutoid_lab import groups
from permutoid_lab.core import (
    is_rigid_permutoid,
    validate_morphism,
    validate_permutoid,
)
from permutoid_lab.errors import (
    ClosureCapExceeded,
    MorphismError,
    OutOfBounds,
    PreconditionRadius,
    RelatorNotKilled,
    UsageError,
)
from permutoid_lab.groups import (
    FreeGroup,
    Presentation,
    cameron_permutoid,
    cayley_ball,
    format_presentation,
    free_reduce,
    parse_presentation,
    radius_extension,
    render_word,
    todd_coxeter,
    triangulate,
    universal_group,
    verify_quotient_hom,
)

from conftest import POOL_ORDERS, saturating_radius


class TestCameronPermutoid:
    def test_z3_saturated(self, pool_groups):
        cam = cameron_permutoid(pool_groups["z3"], 2)
        assert cam.permutoid.ground_size == 3
        assert len(cam.permutoid.elements) == 3
        assert all(e.is_full() for e in cam.permutoid.elements)

    def test_free_group_radius_one(self):
        cam = cameron_permutoid(FreeGroup(1), 1)
        P = cam.permutoid
        assert P.ground_size == 5
        assert len(P.elements) == 3
        assert P.identity_index == 0
        # the identity acts on the whole carrier ball, the others on the
        # inner ball only
        assert len(P.elements[0].pairs) == 5
        assert len(P.elements[1].pairs) == 3
        assert len(P.elements[2].pairs) == 3
        assert set(cam.labels) == {"1", "a0", "a0^-1"}

    def test_trivial_group_gives_trivial_permutoid(self):
        g = todd_coxeter(parse_presentation("gens: a\nrels: a"), 10)
        for rho in (1, 2, 3):
            cam = cameron_permutoid(g, rho)
            assert cam.permutoid.ground_size == 1
            assert cam.permutoid.is_trivial

    def test_pool_validity_and_rigidity(self, pool_groups):
        # every ball permutoid in the pool validates and is rigid
        for group in pool_groups.values():
            for rho in (1, 2, 3):
                cam = cameron_permutoid(group, rho)
                validate_permutoid(
                    cam.permutoid.ground_size, cam.permutoid.elements
                )
                assert is_rigid_permutoid(cam.permutoid)

    def test_saturated_balls_give_full_permutations(self, pool_groups):
        for name, group in pool_groups.items():
            rho = saturating_radius(group)
            cam = cameron_permutoid(group, rho)
            assert cam.permutoid.ground_size == POOL_ORDERS[name]
            assert all(e.is_full() for e in cam.permutoid.elements)

    def test_element_for_generator_handles_dead_generator(self):
        g = todd_coxeter(parse_presentation("gens: a\nrels: a"), 10)
        cam = cameron_permutoid(g, 1)
        assert cam.element_for_generator(0) == cam.permutoid.identity_index

    def test_bad_radius(self, pool_groups):
        with pytest.raises(UsageError):
            cameron_permutoid(pool_groups["z2"], 0)

    @pytest.mark.parametrize("rho", [1.5, 1.0, True], ids=["float", "whole-float", "bool"])
    def test_non_int_radius(self, rho):
        with pytest.raises(UsageError, match=f"rho must be an int, got {rho!r}"):
            cameron_permutoid(FreeGroup(1), rho)


class TestRadiusExtension:
    def test_free_group_one_to_two(self):
        m = radius_extension(FreeGroup(1), 1, 2)
        kind = validate_morphism(m)
        assert kind.is_extension
        assert len(set(m.point_map)) == 5

    def test_saturated_is_isomorphism(self, pool_groups):
        m = radius_extension(pool_groups["z2"], 1, 2)
        assert validate_morphism(m).is_isomorphism

    def test_equal_radii_rejected(self, pool_groups):
        with pytest.raises(PreconditionRadius):
            radius_extension(pool_groups["z2"], 2, 2)

    @pytest.mark.parametrize("name", [*POOL_ORDERS, "f1", "f2", "f3"])
    def test_maps_match_handle_lookup(self, pool_groups, name):
        group = pool_groups[name] if name in pool_groups else FreeGroup(int(name[1:]))
        # F3's radius-3 permutoid has a 23,437-point carrier ball
        radii = [(1, 2)] if name == "f3" else [(1, 2), (1, 3), (2, 3)]
        for rho_small, rho_big in radii:
            m = radius_extension(group, rho_small, rho_big)
            assert (m.point_map, m.element_map) == parent_radius_maps(group, rho_small, rho_big)


def parent_radius_maps(group, rho_small, rho_big):
    """``radius_extension``'s maps as the package once found them, by
    looking each small-ball handle up in the big ball; kept as the oracle."""
    small = cameron_permutoid(group, rho_small)
    big = cameron_permutoid(group, rho_big)
    position = {h: i for i, h in enumerate(big.ball.handles)}
    point_map = []
    for h in small.ball.handles:
        pos = position.get(h)
        if pos is None:
            raise MorphismError("BadPointMap", "a point of the small ball is missing from the big ball")
        point_map.append(pos)
    element_map = []
    for i in range(len(small.permutoid.elements)):
        pos = position.get(small.ball.handles[i])
        if pos is None or pos >= len(big.permutoid.elements):
            raise MorphismError(
                "BadElementMap", f"element {i} of the small ball permutoid has no image", element=i
            )
        element_map.append(pos)
    return tuple(point_map), tuple(element_map)


class TestTriangulate:
    def test_z3_contains_aaa_and_presents_z3(self, pool_presentations):
        t = triangulate(pool_presentations["z3"], 2)
        # symbol for the group element a is the ball position of a
        g = todd_coxeter(pool_presentations["z3"], 100)
        a_pos = cayley_ball(g, 2).handles.index(g.generator_images[0])
        aaa = (2 * a_pos,) * 3
        assert aaa in t.relators
        assert len(t.generators) == 3
        assert todd_coxeter(t, 1000).order == 3

    def test_s3_presents_s3(self, pool_presentations):
        t = triangulate(pool_presentations["s3"], 3)
        assert len(t.generators) == 6
        assert todd_coxeter(t, 1000).order == 6

    def test_trivial_group(self):
        t = triangulate(parse_presentation("gens: a\nrels: a"), 1)
        assert len(t.generators) == 1
        assert todd_coxeter(t, 100).order == 1

    def test_radius_precondition(self, pool_presentations):
        # longest relator of s3 has length 4, so m must exceed 2
        with pytest.raises(PreconditionRadius):
            triangulate(pool_presentations["s3"], 2)

    def test_relators_have_length_at_most_three(self, pool_presentations):
        t = triangulate(pool_presentations["z4"], 3)
        assert all(1 <= len(r) <= 3 for r in t.relators)


class TestUniversalGroup:
    def test_z3_saturated_realizes_order_three(self, pool_groups):
        cam = cameron_permutoid(pool_groups["z3"], 2)
        pres = universal_group(cam.permutoid)
        assert len(pres.generators) == 3
        assert todd_coxeter(pres, 10_000).order == 3

    def test_trivial_permutoid(self):
        T = validate_permutoid(1, [[(0, 0)]])
        pres = universal_group(T)
        assert format_presentation(pres) == "gens: p0\nrels: p0\n"
        assert todd_coxeter(pres, 100).order == 1

    def test_remark_permutoid_is_infinite_cyclic(self):
        R = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)], [(1, 0)]])
        pres = universal_group(R)
        # relations pair the two restrictions into mutual inverses
        rendered = format_presentation(pres)
        assert "p1 p2 p0^-1" in rendered and "p2 p1 p0^-1" in rendered
        with pytest.raises(OutOfBounds):
            todd_coxeter(pres, 100)
        # the mod-2 image kills every relation and is non-trivial
        ev = verify_quotient_hom(
            pres, {"p0": [0, 1], "p1": [1, 0], "p2": [1, 0]}
        )
        assert ev.group_order == 2 and ev.nontrivial

    def test_epimorphism_direction_on_pool(self, pool_groups):
        # sending each universal generator to its ball element kills every
        # universal relation inside the realized group, at any radius; the
        # images generate, so the universal group surjects onto the group
        for name in ("z4", "s3", "q8"):
            group = pool_groups[name]
            for rho in (1, 2):
                cam = cameron_permutoid(group, rho)
                uni = universal_group(cam.permutoid)
                handles = [
                    cam.ball.handles[i] for i in range(len(cam.permutoid.elements))
                ]
                for rel in uni.relators:
                    img = 0
                    for x in rel:
                        h = group.inverses[handles[x >> 1]] if x & 1 else handles[x >> 1]
                        img = group.table[img][h]
                    assert img == 0
                ball_gens = set(handles)
                reached = {0}
                frontier = [0]
                while frontier:
                    x = frontier.pop()
                    for h in ball_gens:
                        for y in (group.table[x][h], group.table[x][group.inverses[h]]):
                            if y not in reached:
                                reached.add(y)
                                frontier.append(y)
                assert len(reached) == group.order


class TestVerifyQuotientHom:
    def test_five_cycle(self, pool_presentations):
        ev = verify_quotient_hom(pool_presentations["z5"], {"a": [1, 2, 3, 4, 0]})
        assert ev.group_order == 5 and ev.nontrivial

    def test_identity_image_trivial(self, pool_presentations):
        ev = verify_quotient_hom(pool_presentations["z5"], {"a": [0, 1, 2, 3, 4]})
        assert ev.group_order == 1 and not ev.nontrivial

    def test_transposition_fails(self, pool_presentations):
        with pytest.raises(RelatorNotKilled):
            verify_quotient_hom(pool_presentations["z5"], {"a": [1, 0, 2, 3, 4]})

    def test_inverse_letters_read_as_inverses(self):
        # the affine group x -> 4^j x + i of order 21; reading every letter
        # as its inverse would turn b^-1 a b = a^2 into b a b^-1 = a^2, which
        # holds for b: x -> 2x instead of x -> 4x
        p = parse_presentation("gens: a, b\nrels: a^7, b^3, b^-1 a b a^-2")
        a = [(x + 1) % 7 for x in range(7)]
        ev = verify_quotient_hom(p, {"a": a, "b": [4 * x % 7 for x in range(7)]})
        assert ev.group_order == 21
        with pytest.raises(RelatorNotKilled, match="relator b\\^-1 a b a\\^-2 maps"):
            verify_quotient_hom(p, {"a": a, "b": [2 * x % 7 for x in range(7)]})

    def test_missing_image(self, pool_presentations):
        with pytest.raises(UsageError):
            verify_quotient_hom(pool_presentations["s3"], {"a": [0, 1]})

    def test_degree_from_first_generator(self):
        # an image for a name outside the presentation does not set the degree
        p = parse_presentation("gens: a\nrels: a^2")
        ev = verify_quotient_hom(p, {"b": [0, 1, 2], "a": [1, 0]})
        assert (ev.degree, ev.images, ev.group_order) == (2, ((1, 0),), 2)

    def test_not_a_permutation(self, pool_presentations):
        with pytest.raises(UsageError):
            verify_quotient_hom(pool_presentations["z5"], {"a": [0, 0, 1, 2, 3]})

    @pytest.mark.parametrize(
        "image", [(True, False), (1.0, 0), (1, False)], ids=["bools", "float", "mixed"]
    )
    def test_non_int_points_rejected(self, image):
        # True == 1 and 1.0 == 1, so only the type tells these from (1, 0)
        with pytest.raises(UsageError, match="image of 'a' is not a permutation of 2 points"):
            verify_quotient_hom(parse_presentation("gens: a\nrels: a^2"), {"a": image})

    def test_degree_zero_images(self):
        ev = verify_quotient_hom(parse_presentation("gens: a"), {"a": ()})
        assert (ev.degree, ev.images, ev.group_order) == (0, ((),), 1)

    @pytest.mark.parametrize("cap", [1, 4])
    def test_closure_cap(self, pool_presentations, cap, monkeypatch):
        monkeypatch.setattr(groups, "CLOSURE_CAP", cap)
        with pytest.raises(ClosureCapExceeded) as ei:
            verify_quotient_hom(pool_presentations["z5"], {"a": [1, 2, 3, 4, 0]})
        assert str(ei.value) == f"subgroup closure exceeded cap {cap}"
        monkeypatch.setattr(groups, "CLOSURE_CAP", 5)
        ev = verify_quotient_hom(pool_presentations["z5"], {"a": [1, 2, 3, 4, 0]})
        assert ev.group_order == 5


# -- the ball permutoid against the product-per-entry construction ---------------

def _oracle_arithmetic(group):
    """Multiplication, inversion and generator elements of a backend, as the
    ball permutoid was once built from: a table lookup on realized groups,
    reduction of the concatenated words on free groups."""
    if isinstance(group, FreeGroup):
        return (
            lambda a, b: free_reduce(a + b),
            lambda a: tuple(x ^ 1 for x in reversed(a)),
            lambda g: (2 * g,),
            group.num_generators,
        )
    return (
        lambda a, b: group.table[a][b],
        lambda a: group.inverses[a],
        lambda g: group.generator_images[g],
        len(group.generator_images),
    )


def oracle_cameron(group, rho):
    """The ball permutoid's graphs, labels and generator elements, each
    product looked up in the carrier ball by its handle."""
    mul, inv, gen, k = _oracle_arithmetic(group)
    handles, words, dist = [group.identity_handle], [()], [0]
    index = {handles[0]: 0}
    frontier = [0]
    for d in range(1, 2 * rho + 1):
        next_frontier = []
        for i in frontier:
            for g in range(k):
                for s in (1, -1):
                    h = mul(handles[i], gen(g) if s == 1 else inv(gen(g)))
                    if h not in index:
                        index[h] = len(handles)
                        handles.append(h)
                        words.append(words[i] + (2 * g + (s == -1),))
                        dist.append(d)
                        next_frontier.append(index[h])
        if not next_frontier:
            break
        frontier = next_frontier
    inner = sum(1 for d in dist if d <= rho)
    names = ["a%d" % g for g in range(k)]
    graphs = [tuple((x, x) for x in range(len(handles)))]
    for b in range(1, inner):
        graphs.append(tuple((x, index[mul(handles[b], handles[x])]) for x in range(inner)))
    labels = tuple(render_word(w, names) for w in words[:inner])
    return graphs, labels, [index[gen(g)] for g in range(k)]


def oracle_triangulate(p, m):
    group = todd_coxeter(p, 10_000)
    mul, inv, _, _ = _oracle_arithmetic(group)
    handles = cayley_ball(group, m).handles
    signed = [(2 * i + (s == -1), h if s == 1 else inv(h))
              for i, h in enumerate(handles) for s in (1, -1)]
    relators, seen = [], set()
    for x1, h1 in signed:
        for x2, h2 in signed:
            for x3, h3 in signed:
                if mul(mul(h1, h2), h3) == 0:
                    w = free_reduce((x1, x2, x3))
                    if w and w not in seen:
                        seen.add(w)
                        relators.append(w)
    return format_presentation(Presentation(tuple("b%d" % i for i in range(len(handles))), tuple(relators)))


# the free balls of the benchmark's balls workload, and F1 up to radius 4
FREE_BALLS = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]


class TestBallPermutoidAgainstProducts:
    def _assert_agrees(self, group, rho):
        cam = cameron_permutoid(group, rho)
        graphs, labels, generators = oracle_cameron(group, rho)
        assert [e.pairs for e in cam.permutoid.elements] == graphs
        assert cam.labels == labels
        assert [cam.element_for_generator(g) for g in range(len(generators))] == generators

    @pytest.mark.parametrize("rho", [1, 2, 3])
    def test_pool_groups(self, pool_groups, rho):
        for group in pool_groups.values():
            self._assert_agrees(group, rho)

    def test_group_where_inverting_the_generators_is_no_automorphism(self):
        # on the pool groups, a backend that swaps the columns of a generator
        # and its inverse builds the same permutoids; here it would not
        group = todd_coxeter(parse_presentation("gens: a, b\nrels: a^7, b^3, b^-1 a b a^-2"), 100)
        assert group.order == 21
        for rho in (1, 2, 3):
            self._assert_agrees(group, rho)

    @pytest.mark.parametrize("rank,rho", FREE_BALLS, ids=[f"f{k}-rho{r}" for k, r in FREE_BALLS])
    def test_free_groups(self, rank, rho):
        self._assert_agrees(FreeGroup(rank), rho)

    def test_triangulate(self, pool_presentations):
        for name in ("z3", "z5", "s3", "q8"):
            p = pool_presentations[name]
            m = p.max_relator_length // 2 + 1
            assert format_presentation(triangulate(p, m)) == oracle_triangulate(p, m)


@dataclass(frozen=True)
class CyclicBackend:
    """Z/n on the integers 0..n-1: the least a ball needs of a backend."""

    n: int
    num_generators = 1
    identity_handle = 0

    def step(self, h, x):
        return (h + (-1 if x & 1 else 1)) % self.n


@pytest.mark.parametrize("n", range(1, 8))
def test_minimal_backend_builds_the_same_ball_permutoid(n):
    realized = todd_coxeter(parse_presentation(f"gens: a\nrels: a^{n}"), 100)
    for rho in (1, 2, 3, 4):
        mine, theirs = cameron_permutoid(CyclicBackend(n), rho), cameron_permutoid(realized, rho)
        assert mine.permutoid.elements == theirs.permutoid.elements
        assert mine.labels == theirs.labels
        assert mine.element_for_generator(0) == theirs.element_for_generator(0)
