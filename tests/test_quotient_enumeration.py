"""Quotient enumeration by congruence closure against brute-force oracles.

The first oracle filters every set partition by the descent rule; the
second is the eager enumerator that tried every partition and computed a
canonical key for every survivor; the third is the union-find enumerator
that joined every pair of classes of every partition it found.  All are
kept here only as references.
"""

import itertools
import random

import pytest

from permutoid_lab.core import (
    _admissible_partitions,
    canonical_form,
    enumerate_quotients,
    quotient_by_partition,
    validate_permutoid,
)
from permutoid_lab.errors import GroundSetTooLarge, ValidationError
from permutoid_lab.groups import FreeGroup, cameron_permutoid

from conftest import POOL_PRESENTATIONS


def set_partitions(n):
    """All partitions of range(n) as restricted growth strings, in
    lexicographic order (the one-class partition first)."""
    a = [0] * n

    def rec(i, maxi):
        if i == n:
            yield tuple(a)
            return
        for c in range(maxi + 2):
            a[i] = c
            yield from rec(i + 1, max(maxi, c))

    if n == 1:
        yield (0,)
        return
    yield from rec(1, 0)


def descends(P, class_of):
    """Each element induces a well-defined injective map on classes."""
    for el in P.elements:
        img, pre = {}, {}
        for x, y in el.pairs:
            cx, cy = class_of[x], class_of[y]
            if img.setdefault(cx, cy) != cy or pre.setdefault(cy, cx) != cx:
                return False
    return True


def eager_enumerate_quotients(P, nontrivial_only=False):
    """Every set partition in order, one canonical key per survivor."""
    out, seen = [], set()
    for class_of in set_partitions(P.ground_size):
        result = quotient_by_partition(P, class_of)
        if result is None:
            continue
        quotient, morphism = result
        if nontrivial_only and quotient.is_trivial:
            continue
        key = canonical_form(quotient)
        if key not in seen:
            seen.add(key)
            out.append((quotient, morphism))
    return out


def union_find_admissible_partitions(P):
    """Admissible partitions, each found one with every pair of its classes
    joined and closed by union-find propagation."""
    n = P.ground_size
    ops = []
    for el in P.elements:
        if el.is_identity():
            continue
        fwd, inv = [-1] * n, [-1] * n
        for x, y in el.pairs:
            fwd[x] = y
            inv[y] = x
        ops.extend((fwd, inv))

    def close(parent, image, a, b):
        def find(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            x, y = find(x), find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            parent[y] = x
            keep = image[x]
            for i, v in enumerate(image.pop(y)):
                if v == -1:
                    continue
                if keep[i] == -1:
                    keep[i] = v
                else:
                    queue.append((keep[i], v))
        label = {}
        return tuple(label.setdefault(find(x), len(label)) for x in range(n))

    discrete = tuple(range(n))
    found = {discrete}
    stack = [discrete]
    while stack:
        class_of = stack.pop()
        reps = [class_of.index(c) for c in range(max(class_of) + 1)]
        parent = [reps[c] for c in class_of]
        image = {r: [-1] * len(ops) for r in reps}
        for x, root in enumerate(parent):
            row = image[root]
            for i, op in enumerate(ops):
                if row[i] == -1:
                    row[i] = op[x]
        for a, b in itertools.combinations(reps, 2):
            joined = close(parent[:], {r: row[:] for r, row in image.items()}, a, b)
            if joined not in found:
                found.add(joined)
                stack.append(joined)
    return sorted(found)


def random_permutoid(rng, n, k, with_inverses):
    """Identity plus k random partial maps (and their inverses), redrawn
    until the unique-extension clause holds."""
    identity = tuple((x, x) for x in range(n))
    for _ in range(1000):
        graphs = {identity}
        for _ in range(k):
            size = rng.randint(1, n)
            g = tuple(sorted(zip(rng.sample(range(n), size), rng.sample(range(n), size))))
            graphs.add(g)
            if with_inverses:
                graphs.add(tuple(sorted((y, x) for x, y in g)))
        try:
            return validate_permutoid(n, sorted(graphs))
        except ValidationError:
            continue
    raise RuntimeError(f"no permutoid drawn for n={n}, k={k}")


def random_pool(seed, count, max_ground):
    rng = random.Random(seed)
    pool = []
    for i in range(count):
        n = rng.randint(2, max_ground)
        pool.append(random_permutoid(rng, n, rng.randint(1, 3), with_inverses=i % 2 == 0))
    return pool


def ball_pool(pool_groups, max_ground):
    balls = []
    backends = [pool_groups[name] for name in POOL_PRESENTATIONS] + [FreeGroup(1)]
    for group in backends:
        for rho in range(1, 5):
            P = cameron_permutoid(group, rho).permutoid
            if P.ground_size <= max_ground:
                balls.append(P)
    return balls


def as_data(pairs):
    return [
        (q.ground_size, q.identity_index, [e.pairs for e in q.elements], m.point_map, m.element_map)
        for q, m in pairs
    ]


class TestAdmissiblePartitions:
    def test_random_permutoids_match_brute_force(self):
        for P in random_pool(seed=7, count=120, max_ground=8):
            expected = [c for c in set_partitions(P.ground_size) if descends(P, c)]
            assert _admissible_partitions(P) == expected, [e.pairs for e in P.elements]

    def test_pool_balls_match_brute_force(self, pool_groups):
        balls = ball_pool(pool_groups, max_ground=9)
        assert max(P.ground_size for P in balls) == 9
        for P in balls:
            expected = [c for c in set_partitions(P.ground_size) if descends(P, c)]
            assert _admissible_partitions(P) == expected

    def test_partial_maps_join_images_across_merged_classes(self):
        # from the class {0, 4}, joining its representative 0 with 2 must
        # join g(4) = 1 with g(2) = 3, although 0 is outside the domain of g
        P = validate_permutoid(
            5, [[(x, x) for x in range(5)], [(4, 1), (2, 3)], [(1, 4), (3, 2)]]
        )
        found = _admissible_partitions(P)
        assert (0, 1, 2, 3, 0) in found
        assert (0, 1, 0, 1, 0) in found
        assert (0, 1, 0, 2, 0) not in found


class TestAgainstUnionFindEnumeration:
    @pytest.mark.parametrize("with_inverses", [False, True])
    def test_random_permutoids(self, with_inverses):
        rng = random.Random(23 + with_inverses)
        for n in range(2, 10):
            for _ in range(12):
                P = random_permutoid(rng, n, rng.randint(1, 4), with_inverses)
                assert _admissible_partitions(P) == union_find_admissible_partitions(P), [
                    e.pairs for e in P.elements
                ]

    @pytest.mark.parametrize("rho", [1, 2, 3])
    def test_infinite_cyclic_balls(self, rho):
        # rho = 3 gives 13 points, past the brute-force range
        P = cameron_permutoid(FreeGroup(1), rho).permutoid
        assert _admissible_partitions(P) == union_find_admissible_partitions(P)

    def test_property_against_the_descent_rule(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def permutoids(draw):
            n = draw(st.integers(1, 7))
            graphs = {tuple((x, x) for x in range(n))}
            for _ in range(draw(st.integers(0, 3))):
                domain = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
                image = draw(st.permutations(range(n)))[: len(domain)]
                graph = tuple(sorted(zip(domain, image)))
                graphs.add(graph)
                if draw(st.booleans()):
                    graphs.add(tuple(sorted((y, x) for x, y in graph)))
            try:
                return validate_permutoid(n, sorted(graphs))
            except ValidationError:
                hypothesis.reject()

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
        @hypothesis.given(permutoids())
        def admissible_iff_descends(P):
            expected = [c for c in set_partitions(P.ground_size) if descends(P, c)]
            assert _admissible_partitions(P) == expected

        admissible_iff_descends()


class TestAgainstEagerEnumeration:
    @pytest.mark.parametrize("nontrivial_only", [False, True])
    def test_random_permutoids(self, nontrivial_only):
        for P in random_pool(seed=11, count=60, max_ground=7):
            got = enumerate_quotients(P, nontrivial_only=nontrivial_only)
            assert as_data(got) == as_data(eager_enumerate_quotients(P, nontrivial_only))

    @pytest.mark.parametrize("nontrivial_only", [False, True])
    def test_pool_balls(self, pool_groups, nontrivial_only):
        for P in ball_pool(pool_groups, max_ground=7):
            got = enumerate_quotients(P, nontrivial_only=nontrivial_only)
            assert as_data(got) == as_data(eager_enumerate_quotients(P, nontrivial_only))

    def test_refuses_ground_sets_above_the_cap(self):
        with pytest.raises(GroundSetTooLarge) as ei:
            enumerate_quotients(validate_permutoid(11, [[(x, x) for x in range(11)]]))
        assert str(ei.value) == "ground size 11 exceeds canonicalization cap 10"
