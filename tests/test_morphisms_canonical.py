"""Morphism validation, canonical forms, quotient enumeration."""

import itertools
import random

import pytest

from permutoid_lab.core import (
    EMPTY_COMPOSITION,
    Morphism,
    MorphismKind,
    PartialPermutation,
    Permutoid,
    _admissible_partitions,
    canonical_form,
    compose_partial,
    enumerate_quotients,
    quotient_by_partition,
    validate_morphism,
    validate_permutoid,
)
from permutoid_lab.errors import GroundSetTooLarge, MorphismError, ValidationError
from permutoid_lab.groups import (
    FreeGroup,
    cameron_permutoid,
    radius_extension,
    todd_coxeter,
    parse_presentation,
)

REMARK = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)], [(1, 0)]])
SWAP_TARGET = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1), (1, 0)]])


class TestValidateMorphism:
    def test_remark_extension_into_swap(self):
        m = Morphism(REMARK, SWAP_TARGET, (0, 1), (0, 1, 1))
        kind = validate_morphism(m)
        assert kind.is_extension
        assert kind.is_complete_extension
        assert not kind.is_isomorphism
        # element map collapses both restrictions onto the swap
        assert len(set(m.element_map)) < len(m.element_map)

    def test_identity_not_preserved(self):
        m = Morphism(REMARK, SWAP_TARGET, (0, 1), (1, 1, 1))
        with pytest.raises(MorphismError) as ei:
            validate_morphism(m)
        assert ei.value.code == "IdentityNotPreserved"

    @pytest.mark.parametrize(
        "point_map, element_map, code",
        [
            ((0,), (0, 1, 1), "BadPointMap"),
            ((0, 2), (0, 1, 1), "BadPointMap"),
            ((0, 1), (0, 1), "BadElementMap"),
            ((0, 1), (0, 1, 2), "BadElementMap"),
            # entries equal to an int index are not one
            ((0, 1.0), (0, 1, 1), "BadPointMap"),
            ((0, True), (0, 1, 1), "BadPointMap"),
            ((0, 1), (0, 1.0, 1), "BadElementMap"),
            ((0, 1), (False, 1, 1), "BadElementMap"),
        ],
        ids=["point-map-short", "point-out-of-range", "element-map-short", "element-out-of-range",
             "float-point", "bool-point", "float-element", "bool-element"],
    )
    def test_maps_must_be_total(self, point_map, element_map, code):
        with pytest.raises(MorphismError) as ei:
            validate_morphism(Morphism(REMARK, SWAP_TARGET, point_map, element_map))
        assert ei.value.code == code

    def test_bijection_onto_larger_graphs_is_not_isomorphism(self):
        # 0->1 goes to the swap: bijective on points and elements, but the
        # swap's graph holds one more pair
        arrow = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)]])
        kind = validate_morphism(Morphism(arrow, SWAP_TARGET, (0, 1), (0, 1)))
        assert kind.is_quotient and kind.is_extension
        assert not kind.is_isomorphism

    def test_equivariance_violated(self):
        # send the 0->1 restriction to the identity: images stop commuting
        m = Morphism(REMARK, SWAP_TARGET, (0, 1), (0, 0, 1))
        with pytest.raises(MorphismError) as ei:
            validate_morphism(m)
        assert ei.value.code == "EquivarianceViolated"

    def test_composition_not_preserved(self):
        # source with witness triple (1,1,2): shift.shift extends into shift2
        src = validate_permutoid(
            3, [[(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 2)], [(0, 2)]]
        )
        # target forgets the triple: maps shift2 to an element not extending
        tgt = validate_permutoid(
            3,
            [
                [(0, 0), (1, 1), (2, 2)],
                [(0, 1), (1, 2)],
                [(0, 2)],
                [(1, 0)],
            ],
        )
        m = Morphism(src, tgt, (0, 1, 2), (0, 1, 3))
        with pytest.raises(MorphismError) as ei:
            validate_morphism(m)
        assert ei.value.code in ("CompositionNotPreserved", "EquivarianceViolated")

    def test_directly_built_target_checks_unique_extension(self):
        # built without validate_permutoid: (0->1).identity is extended by
        # both (0->1) and the swap, which the first table read reports
        tgt = Permutoid(
            2,
            (
                PartialPermutation(2, ((0, 0), (1, 1))),
                PartialPermutation(2, ((0, 1),)),
                PartialPermutation(2, ((1, 0),)),
                PartialPermutation(2, ((0, 1), (1, 0))),
            ),
        )
        with pytest.raises(ValidationError) as ei:
            validate_morphism(Morphism(REMARK, tgt, (0, 1), (0, 1, 2)))
        assert ei.value.code == "UniqueExtensionViolated"

    def test_radius_extension_morphism(self):
        m = radius_extension(FreeGroup(1), 1, 2)
        kind = validate_morphism(m)
        assert kind.is_extension and not kind.is_quotient
        assert m.source.ground_size == 5 and m.target.ground_size == 9

    def test_radius_extension_saturated_is_isomorphism(self, pool_groups):
        m = radius_extension(pool_groups["z3"], 2, 3)
        kind = validate_morphism(m)
        assert kind.is_isomorphism

    def test_isomorphism_flags(self):
        # conjugating by the point swap turns 0->1 into 1->0 and vice versa
        relabeled = validate_permutoid(2, [[(0, 0), (1, 1)], [(1, 0)], [(0, 1)]])
        m = Morphism(REMARK, relabeled, (1, 0), (0, 1, 2))
        kind = validate_morphism(m)
        assert kind.is_isomorphism and kind.is_quotient and kind.is_extension


def parent_validate_morphism(m):
    """The previous ``validate_morphism``, which builds a PartialPermutation
    for every source witness triple; kept as the oracle."""
    src, tgt = m.source, m.target
    if len(m.point_map) != src.ground_size or any(
        not (0 <= v < tgt.ground_size) for v in m.point_map
    ):
        raise MorphismError("BadPointMap", "point_map is not a total map into the target ground set")
    if len(m.element_map) != len(src.elements) or any(
        not (0 <= v < len(tgt.elements)) for v in m.element_map
    ):
        raise MorphismError("BadElementMap", "element_map is not a total map into the target elements")
    if m.element_map[src.identity_index] != tgt.identity_index:
        raise MorphismError("IdentityNotPreserved", "identity element does not map to the identity")
    for i, p in enumerate(src.elements):
        im = tgt.elements[m.element_map[i]].mapping
        for x, y in p.pairs:
            fx = m.point_map[x]
            if fx not in im or im[fx] != m.point_map[y]:
                raise MorphismError(
                    "EquivarianceViolated",
                    f"element {i} at point {x}: images do not commute",
                    element=i,
                    point=x,
                )
    for (i, j), k in src.witness_table.items():
        if not isinstance(k, int):
            continue
        tp = tgt.elements[m.element_map[i]]
        tq = tgt.elements[m.element_map[j]]
        comp = compose_partial(tp, tq)
        if comp is EMPTY_COMPOSITION or not tgt.elements[m.element_map[k]].extends(comp):
            raise MorphismError(
                "CompositionNotPreserved", f"triple ({i},{j},{k}) is not preserved", p=i, q=j, r=k
            )
    point_injective = len(set(m.point_map)) == src.ground_size
    point_surjective = len(set(m.point_map)) == tgt.ground_size
    elem_surjective = len(set(m.element_map)) == len(tgt.elements)
    elem_injective = len(set(m.element_map)) == len(src.elements)
    is_iso = False
    if point_injective and point_surjective and elem_injective and elem_surjective:
        is_iso = all(
            tgt.elements[m.element_map[i]].pairs
            == tuple(sorted((m.point_map[x], m.point_map[y]) for x, y in p.pairs))
            for i, p in enumerate(src.elements)
        )
    return MorphismKind(
        is_iso,
        point_surjective and elem_surjective,
        point_injective,
        point_injective and all(e.is_full() for e in tgt.elements),
    )


def morphism_outcome(validate, m):
    try:
        return ("kind", validate(m))
    except MorphismError as exc:
        return ("error", exc.code, str(exc), exc.details)


def random_element_lists(rng, count):
    """Seeded element lists: the identity plus one to five random maps on
    two to five points."""
    for _ in range(count):
        n = rng.randint(2, 5)
        graphs = {tuple((x, x) for x in range(n))}
        for _ in range(rng.randint(1, 5)):
            xs = rng.sample(range(n), rng.randint(1, n - 1))
            graphs.add(tuple(sorted(zip(xs, rng.sample(range(n), len(xs))))))
        yield n, sorted(graphs)


def random_extension(rng, n, pairs):
    """``pairs`` plus, with probability 1/2 each, a pair at every free point."""
    image = dict(pairs)
    free_y = [y for y in range(n) if y not in image.values()]
    rng.shuffle(free_y)
    for x, y in zip([x for x in range(n) if x not in image], free_y):
        if rng.random() < 0.5:
            image[x] = y
    return tuple(sorted(image.items()))


class TestCompositionClauseAgainstParent:
    def test_random_extensions(self):
        # each source element maps to a random extension of itself, so
        # clauses 1-2 hold and clause 3 decides
        rng = random.Random(2718)
        outcomes = {"kind": 0, "error": 0}
        for n, graphs in random_element_lists(rng, 1500):
            try:
                src = validate_permutoid(n, graphs)
            except ValidationError:
                continue
            images = [
                p.pairs if p.is_identity() else random_extension(rng, n, p.pairs)
                for p in src.elements
            ]
            target_graphs = sorted(set(images))
            try:
                tgt = validate_permutoid(n, target_graphs)
            except ValidationError:
                continue
            element_map = tuple(target_graphs.index(g) for g in images)
            m = Morphism(src, tgt, tuple(range(n)), element_map)
            expected = morphism_outcome(parent_validate_morphism, m)
            outcomes[expected[0]] += 1
            assert morphism_outcome(validate_morphism, m) == expected
        assert min(outcomes.values()) >= 50, outcomes

    def test_quotient_morphisms_and_their_corruptions(self):
        rng = random.Random(1618)
        codes = {}
        for n, graphs in random_element_lists(rng, 300):
            try:
                P = validate_permutoid(n, graphs)
            except ValidationError:
                continue
            for class_of in _admissible_partitions(P):
                result = quotient_by_partition(P, class_of)
                if result is None:
                    continue
                quotient, m = result
                corrupt = list(m.element_map)
                corrupt[rng.randrange(len(corrupt))] = rng.randrange(len(quotient.elements))
                for cand in (m, Morphism(P, quotient, m.point_map, tuple(corrupt))):
                    expected = morphism_outcome(parent_validate_morphism, cand)
                    key = expected[1] if expected[0] == "error" else "pass"
                    codes[key] = codes.get(key, 0) + 1
                    assert morphism_outcome(validate_morphism, cand) == expected
        assert codes.get("pass", 0) >= 100 and codes.get("EquivarianceViolated", 0) >= 20, codes


def brute_force_isomorphic(P, Q):
    """Oracle: try every point bijection and compare conjugated graphs."""
    if P.ground_size != Q.ground_size or len(P.elements) != len(Q.elements):
        return False
    q_graphs = sorted(el.pairs for el in Q.elements)
    for phi in itertools.permutations(range(P.ground_size)):
        conj = sorted(
            tuple(sorted((phi[x], phi[y]) for x, y in el.pairs)) for el in P.elements
        )
        if conj == q_graphs:
            return True
    return False


def all_small_permutoids(max_ground, max_elements):
    """Exhaustively generate valid permutoids (used by several suites)."""
    out = []
    for n in range(1, max_ground + 1):
        injections = []
        for size in range(1, n + 1):
            for xs in itertools.combinations(range(n), size):
                for ys in itertools.permutations(range(n), size):
                    injections.append(tuple(zip(xs, ys)))
        identity = tuple((x, x) for x in range(n))
        others = [g for g in injections if g != identity]
        for extra in range(max_elements):
            for chosen in itertools.combinations(others, extra):
                try:
                    out.append(validate_permutoid(n, (identity,) + chosen))
                except Exception:
                    continue
    return out


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        key = canonical_form(REMARK)
        for phi in itertools.permutations(range(2)):
            relabeled = validate_permutoid(
                2,
                [
                    tuple((phi[x], phi[y]) for x, y in el.pairs)
                    for el in REMARK.elements
                ],
            )
            assert canonical_form(relabeled) == key

    def test_ground_size_separates(self):
        t2 = validate_permutoid(2, [[(0, 0), (1, 1)]])
        t3 = validate_permutoid(3, [[(0, 0), (1, 1), (2, 2)]])
        assert canonical_form(t2) != canonical_form(t3)

    def test_cap(self):
        big = validate_permutoid(11, [[(x, x) for x in range(11)]])
        with pytest.raises(GroundSetTooLarge):
            canonical_form(big)

    def test_separates_small_permutoids_against_brute_force(self):
        pool = all_small_permutoids(3, 3)
        assert len(pool) > 50
        keys = [canonical_form(P) for P in pool]
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                assert (keys[i] == keys[j]) == brute_force_isomorphic(
                    pool[i], pool[j]
                ), (pool[i], pool[j])


class TestEnumerateQuotients:
    def test_trivial_permutoid_on_two_points(self):
        T = validate_permutoid(2, [[(0, 0), (1, 1)]])
        got = {(q.ground_size, len(q.elements)) for q, _ in enumerate_quotients(T)}
        assert got == {(2, 1), (1, 1)}
        assert enumerate_quotients(T, nontrivial_only=True) == []

    def test_z2_cameron_has_one_nontrivial_class(self, pool_groups):
        cam = cameron_permutoid(pool_groups["z2"], 1)
        quotients = enumerate_quotients(cam.permutoid, nontrivial_only=True)
        assert len(quotients) == 1
        q, m = quotients[0]
        assert canonical_form(q) == canonical_form(cam.permutoid)

    def test_mod3_collapse_appears_for_free_group_ball(self, pool_groups):
        # collapsing the infinite-cyclic ball mod 3 gives the order-3 ball
        cam_free = cameron_permutoid(FreeGroup(1), 1)
        cam_z3 = cameron_permutoid(pool_groups["z3"], 1)
        keys = {
            canonical_form(q)
            for q, _ in enumerate_quotients(cam_free.permutoid, nontrivial_only=True)
        }
        assert canonical_form(cam_z3.permutoid) in keys

    def test_every_morphism_validates_as_quotient(self):
        P = validate_permutoid(3, [[(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 2)]])
        for q, m in enumerate_quotients(P):
            kind = validate_morphism(m)
            assert kind.is_quotient
            # partition-induced: image domains match mapped domains
            for i, p in enumerate(P.elements):
                assert q.elements[m.element_map[i]].domain == frozenset(
                    m.point_map[x] for x in p.domain
                )

    def test_identity_relation_included(self):
        qs = enumerate_quotients(REMARK)
        assert any(
            q.ground_size == 2 and len(q.elements) == 3 for q, _ in qs
        )
