"""Development search, verification, and the search-vs-oracle equivalence.

An earlier backtracking engine is copied here as an oracle for verdicts,
node counts and the developments found: the ``_Csp`` class, with its
relabeling rule for fresh points, as ``_OracleCsp``, and the
``_first_certified`` loop over sizes that drove it as ``oracle_search``.
The search under test, ``_first_certified``, is one function that holds the
whole loop.  The oracle files every witness triple, with one rule for
each place of an element in it over separate forward and inverse arrays for
every element, so it also checks the search that stores each map once
(rows 2p and 2q + 1 are one list for every witness triple (p, q, 1)) and
files each triple in six forms over those shared rows.
"""

import hashlib
import itertools
import random
import sys

import pytest

from permutoid_lab.core import (
    PartialPermutation,
    Permutoid,
    identity_map,
    validate_permutoid,
    witness_triples,
)
from permutoid_lab.develop import (
    BudgetExceeded,
    Development,
    DevelopmentProblem,
    ExhaustedUpTo,
    Found,
    _first_certified,
    _rules,
    search_development,
    verify_development,
)
from permutoid_lab.errors import DevelopmentError, UsageError, ValidationError
from permutoid_lab.groups import FreeGroup, cameron_permutoid
from permutoid_lab.pseudogroup import generate_pseudogroup, is_rigid_pseudogroup, maximal_permutoid

from conftest import POOL_ORDERS, saturating_radius
from test_saturation import SATURATED_BALLS, ball_generators, criterion_7_draw

REMARK = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)], [(1, 0)]])


def brute_force_developable(ground_size, graphs, max_ground):
    """Oracle: enumerate every assignment of extending permutations and
    check all composition constraints directly on dicts."""
    maps = [dict(g) for g in graphs]
    identity_idx = next(
        i for i, m in enumerate(maps) if m == {x: x for x in range(ground_size)}
    )
    triples = []
    for i, mp in enumerate(maps):
        for j, mq in enumerate(maps):
            comp = {x: mp[y] for x, y in mq.items() if y in mp}
            if not comp:
                continue
            extensions = [
                k
                for k, mr in enumerate(maps)
                if all(mr.get(x) == v for x, v in comp.items())
            ]
            if len(extensions) == 1:
                triples.append((i, j, extensions[0]))

    for m in range(ground_size, max_ground + 1):
        identity = tuple(range(m))
        options = []
        for e, elem_map in enumerate(maps):
            if e == identity_idx:
                options.append([identity])
                continue
            fixed = sorted(elem_map.items())
            free_args = [y for y in range(m) if y not in elem_map]
            used = set(elem_map.values())
            free_vals = [v for v in range(m) if v not in used]
            perms = []
            for assignment in itertools.permutations(free_vals):
                f = [0] * m
                for x, y in fixed:
                    f[x] = y
                for y, v in zip(free_args, assignment):
                    f[y] = v
                perms.append(tuple(f))
            options.append(perms)
        for assignment in itertools.product(*options):
            ok = True
            for i, j, k in triples:
                fi, fj, fk = assignment[i], assignment[j], assignment[k]
                if any(fi[fj[y]] != fk[y] for y in range(m)):
                    ok = False
                    break
            if ok:
                return m
    return None


class TestSearchDevelopment:
    @pytest.mark.parametrize(
        "n, max_ground",
        [(2, 4), (1, 1), (1, 3), (2, 2)],
        ids=["two-points", "one-point-no-growth", "one-point", "no-growth"],
    )
    def test_trivial_permutoid(self, n, max_ground):
        # the identity's row is full at once, so no cell is left to branch on
        T = validate_permutoid(n, [[(x, x) for x in range(n)]])
        v = search_development(DevelopmentProblem(T, max_ground))
        assert v == Found(Development(n, (tuple(range(n)),)), 0)

    def test_remark_permutoid_found_at_two(self):
        v = search_development(DevelopmentProblem(REMARK, 4))
        assert isinstance(v, Found)
        assert v.development.ground_size == 2
        assert v.development.maps == ((0, 1), (1, 0), (1, 0))

    def test_free_ball_develops_mod_five(self):
        cam = cameron_permutoid(FreeGroup(1), 1)
        v = search_development(DevelopmentProblem(cam.permutoid, 8))
        assert isinstance(v, Found)
        assert v.development.ground_size == 5
        # ball order 1, a, a^-1, a^2, a^-2: translation by one step
        assert v.development.maps[1] == (1, 3, 0, 4, 2)
        assert v.development.maps[2] == (2, 0, 4, 1, 3)

    def test_saturated_pool_found_at_group_order(self, pool_groups):
        for name, group in pool_groups.items():
            cam = cameron_permutoid(group, saturating_radius(group))
            v = search_development(
                DevelopmentProblem(cam.permutoid, POOL_ORDERS[name] + 2)
            )
            assert isinstance(v, Found)
            assert v.development.ground_size == POOL_ORDERS[name]
            verify_development(cam.permutoid, v.development)

    def test_exhausted_up_to(self):
        # two points cannot be enough when an element must move three;
        # a 3-cycle restriction on 4 points with no room in 4 or 5... use a
        # permutoid needing strictly more points than allowed
        P = validate_permutoid(3, [[(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 2)]])
        # p.p extends nothing, p needs a cycle structure reaching past 3
        v3 = search_development(DevelopmentProblem(P, 3))
        assert isinstance(v3, (Found, ExhaustedUpTo))
        # oracle agreement checked separately; here pin the verdict
        expected = brute_force_developable(
            3, [tuple((x, x) for x in range(3)), ((0, 1), (1, 2))], 3
        )
        assert isinstance(v3, Found) == (expected is not None)

    def test_budget_exceeded(self):
        # two free values must be branched before the first solution closes
        P = validate_permutoid(3, [[(0, 0), (1, 1), (2, 2)], [(0, 1)], [(1, 0)]])
        v = search_development(DevelopmentProblem(P, 3, node_budget=1))
        assert isinstance(v, BudgetExceeded)
        assert v.nodes_explored == 2
        assert v.size_reached == 3
        # with room to spare the same instance closes
        assert isinstance(search_development(DevelopmentProblem(P, 3)), Found)

    def test_monotone_in_max_ground(self):
        cam = cameron_permutoid(FreeGroup(1), 1)
        v5 = search_development(DevelopmentProblem(cam.permutoid, 5))
        v8 = search_development(DevelopmentProblem(cam.permutoid, 8))
        assert isinstance(v5, Found) and isinstance(v8, Found)
        assert v8.development == v5.development

    def test_deterministic_reruns_identical(self):
        cam = cameron_permutoid(FreeGroup(1), 1)
        prob = DevelopmentProblem(cam.permutoid, 8)
        assert search_development(prob) == search_development(prob)

    def test_nontrivial_development_generates_nontrivially(self):
        # the permutations assigned to a non-trivial permutoid never all
        # collapse to the identity
        for P in (REMARK, cameron_permutoid(FreeGroup(1), 1).permutoid):
            v = search_development(DevelopmentProblem(P, 8))
            assert isinstance(v, Found)
            identity = tuple(range(v.development.ground_size))
            assert any(m != identity for m in v.development.maps)

    def test_invalid_source_rejected(self):
        # a directly constructed permutoid with duplicate graphs fails the
        # entry revalidation
        valid = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)]])
        bad = valid.__class__(2, valid.elements + (valid.elements[1],))
        with pytest.raises(ValidationError):
            search_development(DevelopmentProblem(bad, 4))

    def test_directly_built_source_with_identity_second(self):
        # the identity index is derived from the elements, so the search
        # fixes the identity's row, not the swap's
        swap = PartialPermutation(2, ((0, 1), (1, 0)))
        P = Permutoid(2, (swap, identity_map(2)))
        assert P.identity_index == 1
        v = search_development(DevelopmentProblem(P, 3))
        assert v == Found(Development(2, ((1, 0), (0, 1))), 0)

    def test_max_ground_below_source_rejected(self):
        with pytest.raises(UsageError):
            DevelopmentProblem(REMARK, 1)

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ((5.0,), "max_ground must be an int, got 5.0"),
            ((True,), "max_ground must be an int, got True"),
            ((3, 2.0), "node_budget must be an int, got 2.0"),
            ((3, False), "node_budget must be an int, got False"),
        ],
        ids=["float-size", "bool-size", "float-budget", "bool-budget"],
    )
    def test_non_int_bounds_rejected(self, bounds, message):
        with pytest.raises(UsageError, match=message):
            DevelopmentProblem(REMARK, *bounds)

    def test_negative_budget_rejected(self):
        with pytest.raises(UsageError):
            DevelopmentProblem(REMARK, 4, -1)
        # a zero budget allows no branch, but propagation alone may finish
        T = validate_permutoid(2, [[(0, 0), (1, 1)]])
        assert search_development(DevelopmentProblem(T, 4, 0)) == Found(Development(2, ((0, 1),)), 0)
        assert search_development(DevelopmentProblem(REMARK, 4, 0)) == BudgetExceeded(1, 2)


class TestDeepSearch:
    """The search depth is not bounded by the interpreter's recursion limit:
    these balls branch about a thousand times on one path."""

    @pytest.mark.parametrize(
        "rank, rho, nodes, maps_sha",
        [(2, 3, 1458, "d4b5e8d63993227c"), (3, 2, 1875, "9334b78edb8dd418")],
        ids=["f2-rho3", "f3-rho2"],
    )
    def test_free_ball_develops_on_itself(self, rank, rho, nodes, maps_sha):
        P = cameron_permutoid(FreeGroup(rank), rho).permutoid
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(120)
        try:
            # the budget is the node count, so a weaker propagation stops
            # at once instead of searching on
            v = search_development(DevelopmentProblem(P, P.ground_size, nodes))
            assert isinstance(v, Found)
            assert (v.development.ground_size, v.nodes_explored) == (P.ground_size, nodes)
            verify_development(P, v.development)
        finally:
            sys.setrecursionlimit(limit)
        # the development the recursive engine found with a raised limit
        assert hashlib.sha256(repr(v.development.maps).encode()).hexdigest()[:16] == maps_sha


class TestNoExceptionsInTheLoop:
    """The search loop finds every next cell and every next free value
    without an exception: each row ends in a sentinel slot that holds -1,
    so an exhausted frame or a full row reads the sentinel's index instead
    of raising from ``list.index``."""

    def test_budget_bound_searches_raise_nothing(self):
        code = _first_certified.__code__
        events = []

        def local(frame, event, arg):
            if event == "exception":
                events.append(arg[0])
            return local

        def tracer(frame, event, arg):
            if frame.f_code is not code:
                return None
            frame.f_trace_lines = False
            return local

        rng = random.Random(20261020)
        verdicts = []
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            for _ in range(40):
                n = rng.randint(5, 7)
                P = random_permutoid(rng, n)
                verdicts.append(search_development(DevelopmentProblem(P, n + 3, 2000)))
        finally:
            sys.settrace(previous)
        assert events == []
        # the searches exhausted frames: they explored thousands of nodes,
        # some up to the budget
        assert sum(v.nodes_explored for v in verdicts) > 2000
        assert any(isinstance(v, BudgetExceeded) for v in verdicts)


class TestVerifyDevelopment:
    def test_found_results_verify(self):
        v = search_development(DevelopmentProblem(REMARK, 4))
        verify_development(REMARK, v.development)

    def test_not_extending(self):
        cam = cameron_permutoid(FreeGroup(1), 1)
        v = search_development(DevelopmentProblem(cam.permutoid, 8))
        maps = list(v.development.maps)
        maps[1] = tuple((x + 2) % 5 for x in range(5))
        with pytest.raises(DevelopmentError) as ei:
            verify_development(cam.permutoid, Development(5, tuple(maps)))
        assert ei.value.code == "NotExtending"

    def test_list_maps_verify(self):
        verify_development(REMARK, Development(2, ([0, 1], [1, 0], [1, 0])))

    def test_identity_not_full(self):
        v = search_development(DevelopmentProblem(REMARK, 4))
        maps = ((1, 0),) + v.development.maps[1:]
        with pytest.raises(DevelopmentError) as ei:
            verify_development(REMARK, Development(2, maps))
        assert ei.value.code == "IdentityNotFull"

    def test_composition_broken(self):
        # extend the remark permutoid at size 4 with maps that extend but
        # break the mutual-inverse constraint outside the original ground set
        maps = (
            (0, 1, 2, 3),
            (1, 0, 3, 2),
            (1, 0, 2, 3),  # wrong: inverse constraint needs (1,0,3,2)
        )
        with pytest.raises(DevelopmentError) as ei:
            verify_development(REMARK, Development(4, maps))
        assert ei.value.code == "CompositionBroken"

    def test_broken_point_is_the_first_in_triple_and_point_order(self):
        rng = random.Random(77)
        P = cameron_permutoid(FreeGroup(2), 1).permutoid
        maps = search_development(DevelopmentProblem(P, P.ground_size)).development.maps
        broken = 0
        for _ in range(60):
            e = rng.choice([e for e in range(len(maps)) if e != P.identity_index])
            free = [y for y in range(P.ground_size) if y not in P.elements[e].mapping]
            y1, y2 = rng.sample(free, 2)
            perm = list(maps[e])
            perm[y1], perm[y2] = perm[y2], perm[y1]
            bad = maps[:e] + (tuple(perm),) + maps[e + 1:]
            expected = next(
                ({"p": i, "q": j, "r": k, "point": y}
                 for i, j, k in witness_triples(P)
                 for y in range(P.ground_size)
                 if bad[i][bad[j][y]] != bad[k][y]),
                None,
            )
            if expected is None:
                verify_development(P, Development(P.ground_size, bad))
                continue
            with pytest.raises(DevelopmentError) as ei:
                verify_development(P, Development(P.ground_size, bad))
            assert (ei.value.code, ei.value.details) == ("CompositionBroken", expected)
            broken += 1
        assert broken > 30

    @pytest.mark.parametrize(
        "dev, message",
        [
            (Development(1, ((0,), (0,), (0,))), "target smaller than the source ground set"),
            (Development(2, ((0, 1), (1, 0))), "one permutation per element required"),
            # each would develop REMARK if its ground size were the int 2; the
            # type is checked before the size, which True < 2 would fail too
            (Development(2.0, ((0, 1), (1, 0), (1, 0))), "ground size 2.0 is not an int"),
            (Development(True, ((0, 1), (1, 0), (1, 0))), "ground size True is not an int"),
            (Development("2", ((0, 1), (1, 0), (1, 0))), "ground size '2' is not an int"),
        ],
        ids=["target-below-source", "map-missing", "float-size", "bool-size", "str-size"],
    )
    def test_wrong_shape(self, dev, message):
        verify_development(REMARK, Development(2, ((0, 1), (1, 0), (1, 0))))
        with pytest.raises(DevelopmentError) as ei:
            verify_development(REMARK, dev)
        assert (ei.value.code, str(ei.value)) == ("WrongShape", message)

    def test_not_a_permutation(self):
        with pytest.raises(DevelopmentError) as ei:
            verify_development(REMARK, Development(2, ((0, 1), (1, 1), (1, 0))))
        assert ei.value.code == "NotAPermutation"

    @pytest.mark.parametrize(
        "swap", [(1.0, 0), (True, False), (1, False), ["1", 0]], ids=["float", "bools", "mixed", "str"]
    )
    def test_non_int_points_rejected(self, swap):
        # True == 1 and 1.0 == 1, so only the type tells these from (1, 0)
        P = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1), (1, 0)]])
        verify_development(P, Development(2, ((0, 1), (1, 0))))
        with pytest.raises(DevelopmentError) as ei:
            verify_development(P, Development(2, ((0, 1), swap)))
        assert (ei.value.code, str(ei.value), ei.value.details) == (
            "NotAPermutation", "map 1 is not a permutation", {"element": 1}
        )


class TestOracleEquivalence:
    def test_randomized_ground_four_instances(self):
        # the exhaustive ground<=3 sweep lives in the acceptance suite; this
        # seeded sweep covers larger instances
        rng = random.Random(424242)
        tested = 0
        while tested < 100:
            graphs = [tuple((x, x) for x in range(4))]
            for _ in range(rng.randint(1, 2)):
                size = rng.randint(1, 4)
                xs = rng.sample(range(4), size)
                ys = rng.sample(range(4), size)
                graphs.append(tuple(zip(xs, ys)))
            try:
                P = validate_permutoid(4, graphs)
            except ValidationError:
                continue
            tested += 1
            expected = brute_force_developable(4, graphs, 5)
            v = search_development(DevelopmentProblem(P, 5))
            if expected is None:
                assert isinstance(v, ExhaustedUpTo), graphs
            else:
                assert isinstance(v, Found), graphs
                assert v.development.ground_size == expected, graphs

    def test_small_instances_against_brute_force(self):
        # spot sample here; the exhaustive sweep lives in the acceptance suite
        cases = [
            (1, [((0, 0),)]),
            (2, [((0, 0), (1, 1)), ((0, 1),)]),
            (2, [((0, 0), (1, 1)), ((0, 1),), ((1, 0),)]),
            (3, [tuple((x, x) for x in range(3)), ((0, 1), (1, 2))]),
            (3, [tuple((x, x) for x in range(3)), ((0, 1), (1, 0))]),
            (3, [tuple((x, x) for x in range(3)), ((0, 1),), ((1, 2),)]),
        ]
        for n, graphs in cases:
            P = validate_permutoid(n, graphs)
            v = search_development(DevelopmentProblem(P, 4))
            expected = brute_force_developable(n, graphs, 4)
            if expected is None:
                assert isinstance(v, ExhaustedUpTo), (n, graphs)
            else:
                assert isinstance(v, Found), (n, graphs)
                assert v.development.ground_size == expected


# -- oracle: the previous search engine ------------------------------------------------

class _OracleBudget(Exception):
    pass


class _OracleConflict(Exception):
    pass


class _OracleCsp:
    """The previous engine: a fresh point may be used only if it is the
    smallest one not yet touched by the partial assignment."""

    def __init__(self, P, triples, m, counter):
        self.m = m
        self.counter = counter
        k = len(P.elements)
        self.k = k
        self.fwd = [[-1] * m for _ in range(k)]
        self.inv = [[-1] * m for _ in range(k)]
        self.touched = [False] * m
        self.trail = []
        self.queue = []
        self.assigned = 0
        self.by_left = [[] for _ in range(k)]
        self.by_mid = [[] for _ in range(k)]
        self.by_right = [[] for _ in range(k)]
        for t in triples:
            p, q, r = t
            self.by_left[p].append(t)
            self.by_mid[q].append(t)
            self.by_right[r].append(t)
        for x in range(P.ground_size):
            self.touched[x] = True
        for y in range(m):
            self._set(P.identity_index, y, y)
        for e, el in enumerate(P.elements):
            for x, y in el.pairs:
                self._set(e, x, y)
        self._propagate()

    def _set(self, e, y, v):
        cur = self.fwd[e][y]
        if cur == v:
            return
        if cur != -1 or self.inv[e][v] != -1:
            raise _OracleConflict
        self.fwd[e][y] = v
        self.inv[e][v] = y
        self.trail.append(("a", e, y, v))
        if not self.touched[v]:
            self.touched[v] = True
            self.trail.append(("t", v))
        self.assigned += 1
        self.queue.append((e, y, v))

    def _propagate(self):
        fwd, inv = self.fwd, self.inv
        while self.queue:
            e, y, v = self.queue.pop()
            for p, q, r in self.by_mid[e]:
                w = fwd[p][v]
                if w != -1:
                    self._set(r, y, w)
                w = fwd[r][y]
                if w != -1:
                    self._set(p, v, w)
            for p, q, r in self.by_left[e]:
                yq = inv[q][y]
                if yq != -1:
                    self._set(r, yq, v)
                yr = inv[r][v]
                if yr != -1:
                    self._set(q, yr, y)
            for p, q, r in self.by_right[e]:
                z = fwd[q][y]
                if z != -1:
                    self._set(p, z, v)
                z = inv[p][v]
                if z != -1:
                    self._set(q, y, z)

    def _undo(self, checkpoint):
        while len(self.trail) > checkpoint:
            tag = self.trail.pop()
            if tag[0] == "a":
                _, e, y, v = tag
                self.fwd[e][y] = -1
                self.inv[e][v] = -1
                self.assigned -= 1
            else:
                self.touched[tag[1]] = False
        self.queue.clear()

    def _pick_variable(self):
        for e in range(self.k):
            row = self.fwd[e]
            for y in range(self.m):
                if row[y] == -1 and self.touched[y]:
                    return e, y
        return None

    def _solve(self):
        if self.assigned == self.k * self.m:
            yield tuple(tuple(row) for row in self.fwd)
            return
        var = self._pick_variable()
        if var is None:
            u = self.touched.index(False)
            self.touched[u] = True
            self.trail.append(("t", u))
            var = self._pick_variable()
            if var is None:
                raise DevelopmentError("NoBranchVariable", "no unassigned variable", point=u)
        e, y = var
        candidates = [v for v in range(self.m) if self.touched[v] and self.inv[e][v] == -1]
        if False in self.touched:
            candidates.append(self.touched.index(False))
        for v in candidates:
            self.counter["nodes"] += 1
            budget = self.counter["budget"]
            if budget is not None and self.counter["nodes"] > budget:
                raise _OracleBudget
            checkpoint = len(self.trail)
            try:
                self._set(e, y, v)
                self._propagate()
            except _OracleConflict:
                self._undo(checkpoint)
                continue
            yield from self._solve()
            self._undo(checkpoint)


def oracle_search(prob, certify=None):
    """The previous ``_first_certified``.  ``certify`` turns a development
    into a certificate, or returns None to skip it; by default it is the
    verifying callback of ``search_development``."""
    P = prob.source

    def verified(dev):
        verify_development(P, dev)
        return dev

    certify = certify or verified
    triples = witness_triples(P)
    counter = {"nodes": 0, "budget": prob.node_budget}
    try:
        for m in range(P.ground_size, prob.max_ground + 1):
            counter["size"] = m
            try:
                csp = _OracleCsp(P, triples, m, counter)
            except _OracleConflict:
                continue
            for maps in csp._solve():
                certificate = certify(Development(m, maps))
                if certificate is not None:
                    return Found(certificate, counter["nodes"])
    except _OracleBudget:
        return BudgetExceeded(counter["nodes"], counter["size"])
    return ExhaustedUpTo(prob.max_ground, counter["nodes"])


def random_permutoid(rng, n):
    """Identity plus two to five random partial maps with fewer than n
    pairs, redrawn until the unique-extension clause holds."""
    while True:
        graphs = [tuple((x, x) for x in range(n))]
        for _ in range(rng.randint(2, 5)):
            size = rng.randint(1, n - 1)
            graphs.append(tuple(zip(rng.sample(range(n), size), rng.sample(range(n), size))))
        try:
            return validate_permutoid(n, graphs)
        except ValidationError:
            continue


def assert_filed_forms_hold(P, dev):
    """f_c = f_a o f_x on ``dev`` for every form (a, c) the search files
    under every row x, the inverse rows read off the development's maps."""
    rows = []
    for f in dev.maps:
        inverse = [0] * len(f)
        for y, v in enumerate(f):
            inverse[v] = y
        rows += [f, tuple(inverse)]
    _, rules = _rules(P)
    for x, filed in enumerate(rules):
        for a, c in filed:
            assert rows[c] == tuple(rows[a][v] for v in rows[x]), (x, a, c)


class TestAgainstPreviousEngine:
    """Verdict class, node count, size reached and the development found
    are the previous engine's, with and without a node budget, and every
    filed form holds on the development found."""

    BUDGETS = (None, 500, 7, 1, 0)

    def same(self, prob):
        # equal dataclasses: class, nodes_explored, size_reached or
        # max_ground, and the development's maps
        verdict = search_development(prob)
        assert verdict == oracle_search(prob), prob
        if isinstance(verdict, Found):
            assert_filed_forms_hold(prob.source, verdict.development)
        return verdict

    def test_random_permutoids(self):
        rng = random.Random(20261018)
        kinds = set()
        for _ in range(150):
            n = rng.randint(3, 7)
            P = random_permutoid(rng, n)
            for budget in self.BUDGETS:
                # unbounded searches get two spare points, so they stay small
                spare = 2 if budget is None else 3
                verdict = self.same(DevelopmentProblem(P, n + spare, budget))
                kinds.add(type(verdict).__name__)
        assert kinds == {"Found", "ExhaustedUpTo", "BudgetExceeded"}, kinds

    def test_pool_balls(self, pool_groups):
        for name, group in sorted(pool_groups.items()):
            for rho in range(1, saturating_radius(group) + 1):
                P = cameron_permutoid(group, rho).permutoid
                for budget in self.BUDGETS:
                    self.same(DevelopmentProblem(P, P.ground_size + 2, budget))

    def test_resumed_after_skipped_developments(self):
        """A certify that skips the first development at each size, as the
        rigid search's leaf filter may: the search resumes past it, and the
        node count of the verdict includes the nodes visited before and
        after the skip."""

        def skip_first():
            sizes = set()

            def certify(dev):
                if dev.ground_size in sizes:
                    return dev
                sizes.add(dev.ground_size)
                return None

            return certify

        rng = random.Random(20261019)
        kinds = set()
        for _ in range(100):
            n = rng.randint(3, 6)
            P = random_permutoid(rng, n)
            for budget in self.BUDGETS:
                prob = DevelopmentProblem(P, n + 2, budget)
                verdict = _first_certified(prob, skip_first())
                assert verdict == oracle_search(prob, skip_first()), prob
                kinds.add(type(verdict).__name__)
        assert kinds == {"Found", "ExhaustedUpTo", "BudgetExceeded"}, kinds


class TestRigidAgainstPreviousEngine:
    """The rigid search's engine, run without its leaf filter on maximal
    permutoids, finds the previous engine's first development with the
    same node count."""

    def same(self, H):
        """The verdicts of all budgets, and the number of row lists."""
        target = maximal_permutoid(H)
        verdicts = []
        for budget in TestAgainstPreviousEngine.BUDGETS:
            prob = DevelopmentProblem(target, H.ground_size + 1, budget)
            verdicts.append(_first_certified(prob, lambda d: d))
            assert verdicts[-1] == oracle_search(prob), (H, budget)
        return verdicts, shared_rows(target)

    @pytest.mark.parametrize("name", sorted(SATURATED_BALLS))
    def test_saturated_ball_pseudogroups(self, name):
        order, elements = ball_generators(SATURATED_BALLS[name])
        H = generate_pseudogroup(order, elements)
        _, lists = self.same(H)
        # each maximal element's inverse is maximal: k maps in k lists
        assert lists == len(maximal_permutoid(H).elements)

    def test_criterion_7_generator_sets(self):
        rng = random.Random(7031)
        kinds, shared = set(), 0
        for _ in range(50):
            while True:
                n = rng.randint(3, 5)
                H = generate_pseudogroup(n, criterion_7_draw(rng, n))
                if is_rigid_pseudogroup(H):
                    break
            verdicts, lists = self.same(H)
            kinds.update(type(v).__name__ for v in verdicts)
            shared += lists < 2 * len(maximal_permutoid(H).elements) - 1
        assert kinds == {"Found", "BudgetExceeded"} and shared > 20, (kinds, shared)


def shared_rows(P):
    """How many lists the search's rows form, after checking the names that
    ``_rules`` gives them: rows joined by the witness triples (p, q, 1)
    (2p with 2q + 1, 2p + 1 with 2q) and by nothing else, each class named
    by its least row and holding one list of rules."""
    names, rules = _rules(P)
    one = P.identity_index
    links = [(2 * p + s, 2 * q + 1 - s) for p, q, r in witness_triples(P) if r == one for s in (0, 1)]
    least = list(range(2 * len(P.elements)))
    changed = True
    while changed:  # the least row reachable over the links
        changed = False
        for a, b in links + [(b, a) for a, b in links]:
            if least[b] < least[a]:
                least[a], changed = least[b], True
    assert names == least
    assert all(names[a] == names[b] for a, b in links)
    assert all(rules[x] is rules[n] for x, n in enumerate(names))
    assert all(len(set(forms)) == len(forms) for forms in rules)
    return len(set(names))


class TestFiledTriples:
    """The search stores each map once, with rows 2p and 2q + 1 sharing one
    list for every witness triple (p, q, 1), and files each form once; it
    still equals the previous engine, which keeps every row apart and files
    every triple."""

    def test_covering_balls_file_one_triple_per_class(self, pool_groups):
        for name, group in sorted(pool_groups.items()):
            for rho in (saturating_radius(group), saturating_radius(group) + 1):
                P = cameron_permutoid(group, rho).permutoid
                # every ball element's inverse is a ball element
                assert shared_rows(P) == len(P.elements), (name, rho)
                # over the shared rows, the six forms of a triple are the
                # triples of its class of cyclic conjugates, so each triple
                # without the identity is one form, not six
                names, rules = _rules(P)
                free = [t for t in witness_triples(P) if P.identity_index not in t]
                assert sum(len(rules[n]) for n in set(names)) == len(free), (name, rho)

    def test_each_class_filed_once(self, pool_groups):
        # skipping a triple whose first form is filed leaves every rule
        # list as filing all six forms of every triple makes it
        def filed_from_every_triple(P, names):
            one = P.identity_index
            filed = {}
            for p, q, r in witness_triples(P):
                if one not in (p, q, r):
                    (p, p1), (q, q1), (r, r1) = (names[2 * e:2 * e + 2] for e in (p, q, r))
                    for form in ((q, p, r), (p, r1, q1), (r, p1, q), (q1, r, p), (p1, q1, r1), (r1, q, p1)):
                        filed[form] = None
            rules = [[] for _ in names]
            for x, a, c in filed:
                rules[x].append((a, c))
            return [rules[n] for n in names]

        rng = random.Random(29)
        permutoids = [random_permutoid(rng, rng.randint(3, 7)) for _ in range(200)]
        for group in pool_groups.values():
            for rho in range(1, saturating_radius(group) + 2):
                permutoids.append(cameron_permutoid(group, rho).permutoid)
        permutoids += [cameron_permutoid(FreeGroup(2), rho).permutoid for rho in (1, 2)]
        for P in permutoids:
            names, rules = _rules(P)
            assert rules == filed_from_every_triple(P, names), P

    @pytest.mark.parametrize(
        "graphs, lists",
        [
            # (2, 1, 0) is a witness triple but (1, 2, 0) is not: 1.2 has
            # no witness
            ([((0, 0), (1, 1), (2, 2), (3, 3)), ((0, 1), (3, 0)), ((1, 0), (2, 3))], 3),
            # (3, 1, 0) and (2, 3, 0) make f_1 and f_2 both the inverse of
            # f_3, so three lists hold eight rows; (1, 3, 0) is not a
            # witness triple
            (
                [
                    ((0, 0), (1, 1), (2, 2), (3, 3)),
                    ((0, 1), (1, 3), (3, 2)),
                    ((0, 1), (3, 0)),
                    ((0, 3), (1, 0)),
                ],
                3,
            ),
        ],
        ids=["one-link", "one-sided-drop"],
    )
    def test_one_sided_links(self, graphs, lists):
        P = validate_permutoid(4, graphs)
        one = P.identity_index
        triples = witness_triples(P)
        links = {(p, q) for p, q, r in triples if r == one and one not in (p, q)}
        assert any((q, p) not in links for p, q in links)
        assert shared_rows(P) == lists
        for max_ground in range(4, 8):
            for budget in (None, 50, 3):
                prob = DevelopmentProblem(P, max_ground, budget)
                assert search_development(prob) == oracle_search(prob), (max_ground, budget)

    @staticmethod
    def assert_start_conflicts(P):
        """Every size and budget fails before its first branch."""
        n = P.ground_size
        for max_ground in range(n, n + 7):
            for budget in (None, 0, 3):
                prob = DevelopmentProblem(P, max_ground, budget)
                verdict = search_development(prob)
                assert verdict == ExhaustedUpTo(max_ground, 0) == oracle_search(prob), prob

    def test_a_clash_at_the_start_of_a_size(self):
        # (2, 1, 1) makes f_2 the inverse of f_1, which sends 1 to 0, and
        # f_2 sends 4 to 0: the graphs clash on a shared row
        P = validate_permutoid(
            5, [tuple((x, x) for x in range(5)), ((0, 1), (2, 3)), ((3, 2), (4, 0))]
        )
        names, _ = _rules(P)
        assert names[4] == names[3]
        self.assert_start_conflicts(P)

    def test_a_conflict_in_the_first_closure(self):
        # only the identity's rows are shared, so the graphs fill cleanly;
        # then (1, 1, 2), f_1 o f_1 = f_2, with f_2(2) = 2 and f_1(2) = 1
        # gives f_1(1) = 2, but f_1(0) = 2
        P = validate_permutoid(
            4, [tuple((x, x) for x in range(4)), ((0, 2), (2, 1)), ((0, 1), (2, 2), (3, 0))]
        )
        assert (1, 1, 2) in witness_triples(P)
        assert shared_rows(P) == 2 * len(P.elements) - 1
        self.assert_start_conflicts(P)

    def test_inverse_closed_permutoids(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        shared = []

        @st.composite
        def inverse_closed(draw):
            n = draw(st.integers(3, 6))
            graphs = {tuple((x, x) for x in range(n))}
            for _ in range(draw(st.integers(1, 3))):
                domain = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
                image = draw(st.permutations(range(n)))[: len(domain)]
                graph = tuple(sorted(zip(domain, image)))
                graphs.add(graph)
                graphs.add(tuple(sorted((y, x) for x, y in graph)))
            try:
                return validate_permutoid(n, sorted(graphs))
            except ValidationError:
                hypothesis.reject()

        @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
        @hypothesis.given(inverse_closed())
        def same_as_previous_engine(P):
            shared.append(shared_rows(P) < 2 * len(P.elements) - 1)
            for budget in (None, 50):
                prob = DevelopmentProblem(P, P.ground_size + 2, budget)
                assert search_development(prob) == oracle_search(prob), budget

        same_as_previous_engine()
        assert sum(shared) > 5, shared
