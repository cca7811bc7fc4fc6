"""Pseudogroup generation, rigidity, and rigid developments."""

import dataclasses
import itertools
import math
import random

import pytest

from permutoid_lab.core import (
    PartialPermutation,
    canonical_form,
    identity_map,
    validate_morphism,
    validate_permutoid,
)
from permutoid_lab import pseudogroup
from permutoid_lab.develop import (
    BudgetExceeded,
    DevelopmentProblem,
    ExhaustedUpTo,
    Found,
    _first_certified,
    verify_development,
)
from permutoid_lab.errors import (
    DevelopmentError,
    GroundSetMismatch,
    NotAnAction,
    NotFree,
    NotRigid,
    PseudogroupError,
    UsageError,
    ValidationError,
)
from permutoid_lab.groups import _generated_group, cameron_permutoid, parse_presentation, todd_coxeter
from permutoid_lab.pseudogroup import (
    Pseudogroup,
    RigidDevelopment,
    check_pseudogroup,
    extend_to_maximal,
    generate_pseudogroup,
    group_action_pseudogroup,
    is_rigid_pseudogroup,
    maximal_permutoid,
    search_rigid_development,
    verify_rigid_development,
)

from conftest import saturating_radius


def pp(n, pairs):
    return PartialPermutation.from_pairs(n, pairs)


def all_members(H):
    """Materialized downward closure: every non-empty restriction."""
    seen = set()
    for m in H.maximal_elements:
        pairs = m.pairs
        for size in range(1, len(pairs) + 1):
            for sub in itertools.combinations(pairs, size):
                seen.add(sub)
    return [PartialPermutation(H.ground_size, s) for s in sorted(seen)]


class TestGeneratePseudogroup:
    def test_single_arrow(self):
        H = generate_pseudogroup(3, [pp(3, [(0, 1)])])
        assert [m.pairs for m in H.maximal_elements] == [
            ((0, 0), (1, 1), (2, 2)),
            ((0, 1),),
            ((1, 0),),
        ]
        check_pseudogroup(H)

    def test_cameron_generators_close_into_left_multiplications(self, pool_groups):
        group = pool_groups["z4"]
        cam = cameron_permutoid(group, saturating_radius(group))
        H = generate_pseudogroup(4, cam.permutoid.elements)
        assert len(H.maximal_elements) == 4
        assert all(m.is_full() for m in H.maximal_elements)

    def test_no_generators(self):
        H = generate_pseudogroup(3, [])
        assert [m.pairs for m in H.maximal_elements] == [((0, 0), (1, 1), (2, 2))]

    def test_ground_mismatch(self):
        with pytest.raises(GroundSetMismatch):
            generate_pseudogroup(3, [pp(2, [(0, 1)])])

    @pytest.mark.parametrize("gens", [[((0, 1),)], [pp(3, [(0, 1)]), ((0, 1),)]], ids=["first", "later"])
    def test_generator_that_is_not_a_map(self, gens):
        with pytest.raises(UsageError, match=r"generator \(\(0, 1\),\) is not a PartialPermutation"):
            generate_pseudogroup(3, gens)

    @pytest.mark.parametrize(
        "n, error, message",
        [
            (2.0, UsageError, "ground_size must be an int"),
            (True, UsageError, "ground_size must be an int"),
            ("2", UsageError, "ground_size must be an int"),
            (0, ValidationError, "ground_size must be >= 1"),
            (-1, ValidationError, "ground_size must be >= 1"),
        ],
        ids=["float", "bool", "str", "zero", "negative"],
    )
    def test_bad_ground_size(self, n, error, message):
        with pytest.raises(error, match=message):
            generate_pseudogroup(n, [])

    def test_regeneration_fixpoint(self):
        # generating from the maximal elements reproduces them exactly
        rng = random.Random(55)
        for _ in range(100):
            n = rng.randint(2, 5)
            gens = []
            for _ in range(rng.randint(1, 3)):
                size = rng.randint(1, n)
                xs = rng.sample(range(n), size)
                ys = rng.sample(range(n), size)
                gens.append(pp(n, list(zip(xs, ys))))
            H = generate_pseudogroup(n, gens)
            H2 = generate_pseudogroup(n, H.maximal_elements)
            assert {m.pairs for m in H.maximal_elements} == {
                m.pairs for m in H2.maximal_elements
            }


class TestMembership:
    def test_restrictions_of_generators(self):
        H = generate_pseudogroup(3, [pp(3, [(0, 1)])])
        assert H.member(pp(3, [(0, 1)]))
        assert H.member(identity_map(3))
        assert H.member(pp(3, [(1, 1)]))

    def test_mixed_left_multiplications_rejected(self, pool_groups):
        group = pool_groups["z4"]
        cam = cameron_permutoid(group, saturating_radius(group))
        H = generate_pseudogroup(4, cam.permutoid.elements)
        # a map sending the identity point along one multiplication and
        # another point along a different one is not a restriction
        m1, m2 = H.maximal_elements[1], H.maximal_elements[2]
        mixed = pp(4, [m1.pairs[0], m2.pairs[1]])
        assert not H.member(mixed)

    def test_downward_closure(self):
        H = generate_pseudogroup(4, [pp(4, [(0, 1), (1, 2), (2, 3)])])
        for member in all_members(H):
            assert H.member(member)

    def test_empty_antichain_has_no_members(self):
        assert not Pseudogroup(3, ()).member(pp(3, [(0, 1)]))

    def test_map_on_another_ground_set_rejected(self):
        H = generate_pseudogroup(3, [pp(3, [(0, 1)])])
        with pytest.raises(GroundSetMismatch):
            H.member(pp(4, [(0, 1)]))

    def test_argument_that_is_not_a_map(self):
        H = generate_pseudogroup(3, [pp(3, [(0, 1)])])
        with pytest.raises(UsageError, match=r"member takes a PartialPermutation, got \(\(0, 1\),\)"):
            H.member(((0, 1),))

    def test_a_pair_no_member_holds(self):
        H = generate_pseudogroup(3, [pp(3, [(0, 1)])])
        assert not H.member(pp(3, [(0, 0), (2, 1)]))
        assert not H.member(pp(3, [(2, 0)]))


class TestRigidity:
    def test_single_arrow_rigid(self):
        H = generate_pseudogroup(3, [pp(3, [(0, 1)])])
        assert is_rigid_pseudogroup(H)

    def test_agreeing_generators_not_rigid(self):
        H = generate_pseudogroup(4, [pp(4, [(0, 1), (1, 0)]), pp(4, [(0, 1), (2, 3)])])
        maxima = {m.pairs for m in H.maximal_elements}
        assert ((0, 1), (1, 0)) in maxima and ((0, 1), (2, 3)) in maxima
        assert not is_rigid_pseudogroup(H)

    def test_cameron_pseudogroups_rigid_at_saturation(self, pool_groups):
        # at saturating radius the closure is the regular left action, and
        # group cancellation forbids two left multiplications agreeing
        for name in ("z2", "z3", "z4", "z5", "z6", "s3", "q8"):
            group = pool_groups[name]
            cam = cameron_permutoid(group, saturating_radius(group))
            H = generate_pseudogroup(
                cam.permutoid.ground_size, cam.permutoid.elements
            )
            assert is_rigid_pseudogroup(H)

    def test_unsaturated_closure_can_lose_rigidity(self, pool_groups):
        # without the gluing axiom, distinct fragments of the same left
        # multiplication stay separately maximal and agree on overlaps
        cam = cameron_permutoid(pool_groups["z4"], 1)
        H = generate_pseudogroup(cam.permutoid.ground_size, cam.permutoid.elements)
        assert not is_rigid_pseudogroup(H)

    @staticmethod
    def rigid_by_unique_maximal_extension(H):
        return all(
            sum(1 for m in H.maximal_elements if m.extends(f)) == 1
            for f in all_members(H)
        )

    @staticmethod
    def rigid_by_agreeing_unions(H):
        members = all_members(H)
        member_graphs = {m.pairs for m in members}
        for f, g in itertools.combinations(members, 2):
            fm, gm = f.mapping, g.mapping
            if not any(fm.get(x) == y for x, y in gm.items()):
                continue
            union = dict(fm)
            for x, y in gm.items():
                if union.get(x, y) != y:
                    return False  # union not functional
                union[x] = y
            if len(set(union.values())) != len(union):
                return False  # union not injective
            if tuple(sorted(union.items())) not in member_graphs:
                return False
        return True

    def test_three_way_equivalence_exhaustive(self):
        # pools: every single-generator pseudogroup on up to 4 points and
        # every two-generator pseudogroup on up to 3 points
        def injections(n):
            out = []
            for size in range(1, n + 1):
                for xs in itertools.combinations(range(n), size):
                    for ys in itertools.permutations(range(n), size):
                        out.append(pp(n, list(zip(xs, ys))))
            return out

        pools = []
        for n in (2, 3, 4):
            single = injections(n)
            pools.extend((n, [g]) for g in single)
        for n in (2, 3):
            single = injections(n)
            pools.extend((n, [g, h]) for g, h in itertools.combinations(single, 2))

        checked_rigid = checked_not = 0
        for n, gens in pools:
            H = generate_pseudogroup(n, gens)
            a = is_rigid_pseudogroup(H)
            b = self.rigid_by_unique_maximal_extension(H)
            c = self.rigid_by_agreeing_unions(H)
            assert a == b == c, (n, [g.pairs for g in gens])
            if a:
                checked_rigid += 1
            else:
                checked_not += 1
        assert checked_rigid > 100 and checked_not > 100

    def test_three_way_equivalence_sampled_on_four_points(self):
        rng = random.Random(77)
        for _ in range(60):
            gens = []
            for _ in range(rng.randint(2, 3)):
                size = rng.randint(1, 4)
                xs = rng.sample(range(4), size)
                ys = rng.sample(range(4), size)
                gens.append(pp(4, list(zip(xs, ys))))
            H = generate_pseudogroup(4, gens)
            a = is_rigid_pseudogroup(H)
            b = self.rigid_by_unique_maximal_extension(H)
            c = self.rigid_by_agreeing_unions(H)
            assert a == b == c


class TestMaximalPermutoid:
    def test_single_arrow(self):
        H = generate_pseudogroup(3, [pp(3, [(0, 1)])])
        P = maximal_permutoid(H)
        assert len(P.elements) == 3
        # the two arrows compose into restrictions of the identity
        from permutoid_lab.core import witness_triples

        triples = witness_triples(P)
        arrow = next(i for i, e in enumerate(P.elements) if e.pairs == ((0, 1),))
        back = next(i for i, e in enumerate(P.elements) if e.pairs == ((1, 0),))
        assert (arrow, back, P.identity_index) in triples

    def test_not_rigid_rejected(self):
        H = generate_pseudogroup(
            4, [pp(4, [(0, 1), (1, 0)]), pp(4, [(0, 1), (2, 3)])]
        )
        with pytest.raises(NotRigid):
            maximal_permutoid(H)

    def test_cameron_pseudogroup_matches_cameron_permutoid(self, pool_groups):
        group = pool_groups["z3"]
        rho = saturating_radius(group)
        cam = cameron_permutoid(group, rho)
        H = generate_pseudogroup(cam.permutoid.ground_size, cam.permutoid.elements)
        P = maximal_permutoid(H)
        assert canonical_form(P) == canonical_form(cam.permutoid)


class TestExtendToMaximal:
    def test_saturated_cameron_is_isomorphism(self, pool_groups):
        group = pool_groups["z4"]
        cam = cameron_permutoid(group, saturating_radius(group))
        morphism = extend_to_maximal(cam.permutoid)
        kind = validate_morphism(morphism)
        assert kind.is_isomorphism

    def test_two_restrictions_collapse_onto_swap(self):
        # with the pseudogroup generated by the full swap, both restrictions
        # extend into the same maximal element
        Pi = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)], [(1, 0)]])
        H = generate_pseudogroup(2, [pp(2, [(0, 1), (1, 0)])])
        morphism = extend_to_maximal(Pi, H)
        kind = validate_morphism(morphism)
        assert kind.is_extension
        assert morphism.element_map[1] == morphism.element_map[2]

    def test_trivial_permutoid(self):
        T = validate_permutoid(2, [[(0, 0), (1, 1)]])
        morphism = extend_to_maximal(T)
        assert validate_morphism(morphism).is_isomorphism

    def test_element_with_two_maximal_extensions(self):
        # both generators stay maximal and hold 0 -> 1, so H is not rigid
        H = generate_pseudogroup(4, [pp(4, [(0, 1), (1, 0)]), pp(4, [(0, 1), (2, 3)])])
        Pi = validate_permutoid(4, [[(0, 0), (1, 1), (2, 2), (3, 3)], [(0, 1)]])
        with pytest.raises(NotRigid, match="two maximal elements agree at a point"):
            extend_to_maximal(Pi, H)

    def test_smaller_ground_set_is_not_a_member(self):
        # every graph of Pi also lies in a maximal element of H, but on
        # three points rather than two
        Pi = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)], [(1, 0)]])
        H = generate_pseudogroup(3, [pp(3, [(0, 1), (1, 0)])])
        with pytest.raises(PseudogroupError) as ei:
            extend_to_maximal(Pi, H)
        assert ei.value.code == "NotAMember"


class TestGroupActionPseudogroup:
    def test_swap_action_of_z2(self, pool_groups):
        H = group_action_pseudogroup(pool_groups["z2"], [(0, 1), (1, 0)])
        assert [m.pairs for m in H.maximal_elements] == [
            ((0, 0), (1, 1)),
            ((0, 1), (1, 0)),
        ]
        assert is_rigid_pseudogroup(H)

    @pytest.mark.parametrize("swap", [(True, False), (1.0, 0)], ids=["bools", "float"])
    def test_non_int_points_rejected(self, pool_groups, swap):
        with pytest.raises(NotAnAction, match="image of element 1 is not a permutation"):
            group_action_pseudogroup(pool_groups["z2"], [(0, 1), swap])

    def test_trivial_action_not_free(self, pool_groups):
        with pytest.raises(NotFree):
            group_action_pseudogroup(pool_groups["z2"], [(0, 1), (0, 1)])

    def test_regular_action_of_s3(self, pool_groups):
        g = pool_groups["s3"]
        action = [tuple(g.table[i][j] for j in range(6)) for i in range(6)]
        # left translations acting on the right-multiplication table: use
        # row i as the permutation j -> i*j
        H = group_action_pseudogroup(g, action)
        assert len(H.maximal_elements) == 6
        assert is_rigid_pseudogroup(H)

    def test_non_action_rejected(self, pool_groups):
        with pytest.raises(NotAnAction):
            group_action_pseudogroup(pool_groups["z2"], [(0, 1), (1, 0), (0, 1)])

    @pytest.mark.parametrize(
        "action, message",
        [
            ([(0, 1), (1, 1)], "image of element 1 is not a permutation"),
            ([(1, 0), (1, 0)], "identity element must act as the identity"),
            ([(0, 1, 2), (1, 2, 0)], r"action breaks at product \(1,1\)"),
        ],
        ids=["not-a-permutation", "identity-moves", "product-broken"],
    )
    def test_rejects_non_actions(self, pool_groups, action, message):
        with pytest.raises(NotAnAction, match=message):
            group_action_pseudogroup(pool_groups["z2"], action)


class TestSearchRigidDevelopment:
    def test_single_arrow_finds_three_cycle(self):
        H = generate_pseudogroup(3, [pp(3, [(0, 1)])])
        verdict = search_rigid_development(H, 5)
        assert isinstance(verdict, Found)
        rd = verdict.development
        assert rd.ground_size == 3
        assert rd.group_order == 3
        assert rd.group_permutations == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        verify_rigid_development(H, rd)

    def test_z4_cameron_pseudogroup_regular(self, pool_groups):
        group = pool_groups["z4"]
        cam = cameron_permutoid(group, saturating_radius(group))
        H = generate_pseudogroup(4, cam.permutoid.elements)
        verdict = search_rigid_development(H, 6)
        assert isinstance(verdict, Found)
        assert verdict.development.ground_size == 4
        assert verdict.development.group_order == 4

    def test_not_rigid_rejected(self):
        H = generate_pseudogroup(
            4, [pp(4, [(0, 1), (1, 0)]), pp(4, [(0, 1), (2, 3)])]
        )
        with pytest.raises(NotRigid):
            search_rigid_development(H, 6)

    @pytest.mark.parametrize(
        "forge, code",
        [
            (lambda a, arrow: a[:-1], "WrongShape"),
            (lambda a, arrow: a[:arrow] + ((0, 1, 2),) + a[arrow + 1:], "NotExtending"),
        ],
        ids=["WrongShape", "NotExtending"],
    )
    def test_forged_certificates_rejected(self, forge, code):
        H = generate_pseudogroup(3, [pp(3, [(0, 1)])])
        rd = search_rigid_development(H, 5).development
        arrow = [m.pairs for m in H.maximal_elements].index(((0, 1),))
        forged = dataclasses.replace(rd, maps=forge(rd.maps, arrow))
        with pytest.raises(DevelopmentError) as ei:
            verify_rigid_development(H, forged)
        assert ei.value.code == code

    def test_action_pseudogroups_redevelop(self, pool_groups):
        for name in ("z2", "z3", "s3"):
            g = pool_groups[name]
            action = [tuple(g.table[i][j] for j in range(g.order)) for i in range(g.order)]
            H = group_action_pseudogroup(g, action)
            verdict = search_rigid_development(H, g.order)
            assert isinstance(verdict, Found)
            assert verdict.development.ground_size <= g.order

    def test_swap_needs_even_ground(self, pool_groups):
        # a free involution cannot exist on an odd number of points
        H = group_action_pseudogroup(pool_groups["z2"], [(0, 1), (1, 0)])
        verdict = search_rigid_development(H, 2)
        assert isinstance(verdict, Found) and verdict.development.ground_size == 2


# the maps extend the three maximal elements of the arrow 0 -> 1 on four
# points and are free on their own, but generate a group of order 8
FORGED_MAPS = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 0, 3, 1))


class TestVerifyRigidDevelopment:
    """The verifier is ``verify_development`` on the maximal-element
    permutoid, then freeness of the group its maps generate."""

    @pytest.mark.parametrize(
        "n, generators, rd, error, code",
        [
            (3, [[(0, 1)]], RigidDevelopment(3, ((0, 1, 2), (1,), (2, 0, 1))),
             DevelopmentError, "NotAPermutation"),
            (3, [[(0, 1)]], RigidDevelopment(3, ((0, 1, 2), (1.0, 2, 0), (2, 0, 1))),
             DevelopmentError, "NotAPermutation"),
            (3, [[(0, 1)]], RigidDevelopment(2, ((0, 1), (1, 0), (1, 0))),
             DevelopmentError, "WrongShape"),
            (4, [[(0, 1)]], RigidDevelopment(4, FORGED_MAPS),
             DevelopmentError, "CompositionBroken"),
            # a development of the swap on {0, 1} whose group fixes point 2
            (3, [[(0, 1), (1, 0)]], RigidDevelopment(3, ((0, 1, 2), (1, 0, 2))),
             NotFree, "NotFree"),
            (4, [[(0, 1), (1, 0)], [(0, 1), (2, 3)]], RigidDevelopment(4, ()),
             NotRigid, "NotRigid"),
            # each would be the trivial development of the trivial pseudogroup
            # on one point if its ground size were the int 1
            (1, [], RigidDevelopment(True, ((0,),)), DevelopmentError, "WrongShape"),
            (1, [], RigidDevelopment(1.0, ((0,),)), DevelopmentError, "WrongShape"),
            (1, [], RigidDevelopment("1", ((0,),)), DevelopmentError, "WrongShape"),
        ],
        ids=["short-entry", "float-entry", "target-too-small", "forged-group-of-order-8",
             "fixes-a-point", "not-rigid", "bool-size", "float-size", "str-size"],
    )
    def test_coded_errors(self, n, generators, rd, error, code):
        H = generate_pseudogroup(n, [pp(n, g) for g in generators])
        with pytest.raises(error) as ei:
            verify_rigid_development(H, rd)
        assert ei.value.code == code

    @pytest.mark.parametrize(
        "m, maps, error, code",
        [
            (3, ((0, 1, 2), (1,)), DevelopmentError, "NotAPermutation"),
            (3, ((0, 1, 2), (1.0, 2, 0)), DevelopmentError, "NotAPermutation"),
            (3, ((0, 1, 2), (1, 0, 2)), NotFree, "NotFree"),
            # S3 has 6 > 3 elements, so it cannot act freely on three points
            (3, ((0, 1, 2), (1, 0, 2), (0, 2, 1)), NotFree, "NotFree"),
            # True would pass as one point, 3.0 and "3" would break range(m)
            (True, ((0,),), DevelopmentError, "WrongShape"),
            (3.0, ((0, 1, 2), (1, 2, 0)), DevelopmentError, "WrongShape"),
            ("3", ((0, 1, 2), (1, 2, 0)), DevelopmentError, "WrongShape"),
        ],
        ids=["short-entry", "float-entry", "fixes-a-point", "past-the-point-count",
             "bool-size", "float-size", "str-size"],
    )
    def test_group_raises_coded_errors(self, m, maps, error, code):
        # the derived group checks its maps itself, without the verifier
        with pytest.raises(error) as ei:
            RigidDevelopment(m, maps).group_permutations
        assert ei.value.code == code


# -- oracle: the previous rigid search --------------------------------------------

class GroupCapHit(Exception):
    """The oracle's closure of a leaf passed its ``group_cap``."""


def oracle_search_rigid(H, max_ground, node_budget=None, group_cap=math.inf, skipped=None):
    """An earlier ``search_rigid_development``: each leaf's closure is
    scanned for fixed points before the RigidDevelopment is built and
    verified, and the search stops with GroupCapHit when a closure passes
    ``group_cap``.  The certificate's derived group must be the closure,
    listed identity first.  Leaves skipped as not free are counted in
    ``skipped[0]``."""
    target = maximal_permutoid(H)

    def certify(dev):
        closure = _generated_group(dev.maps, dev.ground_size, group_cap)
        if closure is None:
            raise GroupCapHit(group_cap)
        identity = tuple(range(dev.ground_size))
        if any(
            perm != identity and any(perm[y] == y for y in range(dev.ground_size))
            for perm in closure
        ):
            if skipped is not None:
                skipped[0] += 1
            return None
        verify_development(target, dev)
        rd = RigidDevelopment(dev.ground_size, dev.maps)
        assert rd.group_permutations == (identity,) + tuple(
            sorted(p for p in closure if p != identity)
        )
        verify_rigid_development(H, rd)
        return rd

    return _first_certified(DevelopmentProblem(target, max_ground, node_budget), certify)


def random_rigid_pseudogroups(count):
    """Rigid closures of seeded draws of one to three random partial maps on
    2-5 points (the draw of tests/test_saturation.py)."""
    rng = random.Random(2024)
    found = []
    while len(found) < count:
        n = rng.randint(2, 5)
        gens = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, n)
            xs, ys = rng.sample(range(n), size), rng.sample(range(n), size)
            gens.append(pp(n, list(zip(xs, ys))))
        H = generate_pseudogroup(n, gens)
        if is_rigid_pseudogroup(H):
            found.append(H)
    return found


@pytest.fixture(scope="module")
def rigid_search_inputs(pool_groups):
    inputs = random_rigid_pseudogroups(200)
    for name in ("z2", "z3", "z4", "s3"):
        g = pool_groups[name]
        action = [tuple(g.table[i][j] for j in range(g.order)) for i in range(g.order)]
        inputs.append(group_action_pseudogroup(g, action))
    for name in ("z2", "z3", "z4", "z5", "s3"):
        g = pool_groups[name]
        cam = cameron_permutoid(g, saturating_radius(g))
        inputs.append(generate_pseudogroup(g.order, cam.permutoid.elements))
    return inputs


def _summary(verdict):
    if isinstance(verdict, Found):
        return ("found", verdict.nodes_explored, verdict.development)
    if isinstance(verdict, BudgetExceeded):
        return ("budget", verdict.nodes_explored, verdict.size_reached)
    assert isinstance(verdict, ExhaustedUpTo)
    return ("exhausted", verdict.nodes_explored, verdict.max_ground)


class TestRigidSearchAgainstOracle:
    """The search bounds each leaf's closure by its point count and skips
    the leaf past it, or when a non-identity element fixes a point; verdicts
    must equal those of an earlier search that closed every leaf in full."""

    def test_verdicts_and_skipped_leaves_agree(self, rigid_search_inputs, monkeypatch):
        skipped_new = [0]
        past_bound = [0]  # skipped leaves whose closure passed the point count
        first_certified = pseudogroup._first_certified

        def counting_first_certified(prob, certify):
            def counting_certify(dev):
                rd = certify(dev)
                if rd is None:
                    m = dev.ground_size
                    skipped_new[0] += 1
                    past_bound[0] += _generated_group(dev.maps, m, m) is None
                return rd

            return first_certified(prob, counting_certify)

        monkeypatch.setattr(pseudogroup, "_first_certified", counting_first_certified)
        skipped_old = [0]
        kinds = set()
        for H in rigid_search_inputs:
            for extra in (0, 3):
                for budget in (None, 7):
                    max_ground = H.ground_size + extra
                    old = _summary(
                        oracle_search_rigid(H, max_ground, budget, skipped=skipped_old)
                    )
                    new = _summary(search_rigid_development(H, max_ground, budget))
                    assert new == old, (H, max_ground, budget)
                    kinds.add(old[0])
        assert skipped_new == skipped_old
        # some skipped leaves stop at the closure bound, the others fail
        # the fixed-point scan
        assert 0 < past_bound[0] < skipped_new[0]
        assert kinds == {"found", "budget", "exhausted"}

    def test_decides_where_a_group_cap_stopped(self, rigid_search_inputs):
        capped = 0
        for H in rigid_search_inputs:
            max_ground = H.ground_size + 3
            new = _summary(search_rigid_development(H, max_ground))
            assert new == _summary(oracle_search_rigid(H, max_ground)), H
            try:
                oracle_search_rigid(H, max_ground, group_cap=2)
            except GroupCapHit:
                capped += 1
        assert capped > 0


class TestQuotientChain:
    def test_finite_quotient_yields_rigid_development_and_back(self, pool_presentations):
        # a presentation with a non-trivial finite quotient has a ball
        # permutoid quotient whose pseudogroup is rigid and develops; the
        # found development, a permutoid development, verifies
        from permutoid_lab.core import enumerate_quotients
        from permutoid_lab.groups import realize_backend
        from permutoid_lab.pseudogroup import maximal_permutoid

        cam = cameron_permutoid(realize_backend(pool_presentations["z6"]), 4)
        hits = 0
        for quotient, _ in enumerate_quotients(cam.permutoid, nontrivial_only=True):
            H = generate_pseudogroup(quotient.ground_size, quotient.elements)
            if not is_rigid_pseudogroup(H):
                continue
            verdict = search_rigid_development(H, quotient.ground_size + 2)
            if not isinstance(verdict, Found):
                continue
            hits += 1
            rd = verdict.development
            target = maximal_permutoid(H)
            verify_development(target, rd)
        assert hits >= 1


class TestCheckPseudogroup:
    def test_rejects_non_antichain(self):
        with pytest.raises(PseudogroupError) as ei:
            check_pseudogroup(
                Pseudogroup(2, (identity_map(2), pp(2, [(0, 0)])))
            )
        assert ei.value.code == "NotAntichain"

    def test_rejects_missing_identity(self):
        with pytest.raises(PseudogroupError) as ei:
            check_pseudogroup(Pseudogroup(2, (pp(2, [(0, 1), (1, 0)]),)))
        assert ei.value.code == "MissingIdentity"

    def test_rejects_missing_inverse(self):
        with pytest.raises(PseudogroupError) as ei:
            check_pseudogroup(
                Pseudogroup(3, (identity_map(3), pp(3, [(0, 1)])))
            )
        assert ei.value.code == "NotInverseClosed"

    def test_rejects_escaping_composition(self):
        # 0->1 and 1->2 need their composite 0->2 (or an extension of it)
        members = (
            identity_map(3),
            pp(3, [(0, 1)]),
            pp(3, [(1, 0)]),
            pp(3, [(1, 2)]),
            pp(3, [(2, 1)]),
        )
        with pytest.raises(PseudogroupError) as ei:
            check_pseudogroup(Pseudogroup(3, members))
        assert ei.value.code == "NotClosed"

    @pytest.mark.parametrize(
        "members", [(((0, 1),), identity_map(3)), (identity_map(3), ((0, 1),))], ids=["first", "later"]
    )
    def test_member_that_is_not_a_map(self, members):
        # refused on construction, before any routine reads its pairs
        with pytest.raises(UsageError, match=r"Pseudogroup takes PartialPermutation members, got \(\(0, 1\),\)"):
            Pseudogroup(3, members)

    def test_members_stored_as_a_tuple(self):
        H = Pseudogroup(3, [identity_map(3)])
        assert H.maximal_elements == (identity_map(3),)
        assert hash(H) == hash(Pseudogroup(3, (identity_map(3),)))
