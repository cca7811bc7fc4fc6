"""Whole-permutation checks against frozen copies of their earlier loops.

``_perm_compose`` composes with one ``itemgetter``, ``coset._verify``
traces each relator through whole columns, Light's test in
``group_from_table`` compares whole rows through one getter per middle
element, and ``verify_development`` composes whole maps.  Each earlier
version, which took one Python step per point, is copied here as an
oracle.  On every input below both must pass, or raise the same exception
type with the same message and details.
"""

import random

import pytest

from permutoid_lab import develop
from permutoid_lab.coset import _verify, enumerate_cosets
from permutoid_lab.core import witness_triples
from permutoid_lab.develop import (
    Development,
    DevelopmentProblem,
    Found,
    search_development,
    verify_development,
)
from permutoid_lab.errors import (
    DevelopmentError,
    OutOfBounds,
    PermutoidLabError,
    RelatorNotKilled,
    UsageError,
)
from permutoid_lab.groups import (
    FreeGroup,
    _perm_compose,
    cameron_permutoid,
    group_from_table,
    parse_presentation,
    todd_coxeter,
)

from conftest import POOL_PRESENTATIONS, saturating_radius
from test_coset import BENCH_PRESENTATIONS, random_presentation
from test_develop import random_permutoid
from test_groups import SMALL_GROUPS, perturbed


# -- the frozen loops ---------------------------------------------------------------

def oracle_compose(f, g):
    return tuple([f[x] for x in g])


def oracle_coset_verify(table, relators):
    for gamma, row in enumerate(table):
        if None in row:
            raise OutOfBounds(f"coset {gamma} has an undefined image", coset=gamma)
    for gamma in range(len(table)):
        for r, rel in enumerate(relators):
            delta = gamma
            for x in rel:
                delta = table[delta][x]
            if delta != gamma:
                raise RelatorNotKilled(
                    f"relator {r} does not close at coset {gamma}", relator=r, coset=gamma
                )


def oracle_realized_group(n, table, generator_images):
    """The construction checks of ``RealizedGroup`` as they were when it
    took a multiplication table; ``group_from_table`` runs them now."""
    if n < 1 or len(table) != n or any(len(row) != n for row in table):
        raise UsageError(f"multiplication table is not {n}x{n}")
    everything = list(range(n))
    for i, column in enumerate(zip(*table)):
        if table[0][i] != i or table[i][0] != i:
            raise UsageError("element 0 is not an identity")
        if sorted(table[i]) != everything:
            raise UsageError(f"row {i} is not a permutation")
        if sorted(column) != everything:
            raise UsageError(f"column {i} is not a permutation")
    for i in range(n):
        j = table[i].index(0)
        if table[j][i] != 0:
            raise UsageError(f"element {i} has mismatched one-sided inverses")
    if any(not (0 <= g < n) for g in generator_images):
        raise UsageError("generator image out of range")
    inverses = tuple(row.index(0) for row in table)
    middles = sorted({h for g in generator_images for h in (g, inverses[g])})
    for a in range(n):
        row = table[a]
        for b in middles:
            left, right = tuple(table[row[b]]), tuple(map(row.__getitem__, table[b]))
            if left != right:
                c = next(c for c in range(n) if left[c] != right[c])
                raise UsageError(f"associativity fails at ({a},{b},{c})")
    reached = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in generator_images:
            for y in (table[x][g], table[x][inverses[g]]):
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
    if len(reached) != n:
        raise UsageError("generator images do not generate the group")


def oracle_verify_development(P, D):
    m = D.ground_size
    if m < P.ground_size:
        raise DevelopmentError("WrongShape", "target smaller than the source ground set")
    if len(D.maps) != len(P.elements):
        raise DevelopmentError("WrongShape", "one permutation per element required")
    for e, perm in enumerate(D.maps):
        if len(perm) != m or sorted(perm) != list(range(m)):
            raise DevelopmentError("NotAPermutation", f"map {e} is not a permutation", element=e)
    identity = tuple(range(m))
    if tuple(D.maps[P.identity_index]) != identity:
        raise DevelopmentError("IdentityNotFull", "identity element must extend to the identity")
    for e, el in enumerate(P.elements):
        for x, y in el.pairs:
            if D.maps[e][x] != y:
                raise DevelopmentError(
                    "NotExtending",
                    f"map {e} does not extend its element at point {x}",
                    element=e,
                    point=x,
                )
    for i, j, k in witness_triples(P):
        fp, fq, fr = D.maps[i], D.maps[j], D.maps[k]
        if [fp[x] for x in fq] == list(fr):
            continue
        y = next(y for y in range(m) if fp[fq[y]] != fr[y])
        raise DevelopmentError(
            "CompositionBroken",
            f"triple ({i},{j},{k}) broken at point {y}",
            p=i,
            q=j,
            r=k,
            point=y,
        )


def outcome(check, *args):
    """None when ``check`` passes, else the error's type, code, message and
    details."""
    try:
        check(*args)
    except PermutoidLabError as exc:
        return type(exc), exc.code, str(exc), exc.details
    return None


def random_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# -- the tests ------------------------------------------------------------------------

class TestPermCompose:
    @pytest.mark.parametrize("degree", range(10))
    def test_against_the_comprehension(self, degree):
        rng = random.Random(degree)
        for _ in range(50):
            f, g = random_perm(rng, degree), random_perm(rng, degree)
            expected = oracle_compose(f, g)
            for a, b in ((f, g), (tuple(f), tuple(g)), (f, tuple(g)), (tuple(f), g)):
                got = _perm_compose(a, b)
                assert type(got) is tuple and got == expected, (a, b)


class TestCosetVerify:
    def test_random_pool_tables_with_one_entry_changed(self):
        rng = random.Random(15)
        kinds = {"passed": 0, "OutOfBounds": 0, "RelatorNotKilled": 0}
        one_coset = 0
        for _ in range(600):
            num_gens, relators = random_presentation(rng)
            try:
                table = enumerate_cosets(num_gens, relators, rng.randint(1, 100))
            except OutOfBounds:
                continue
            assert outcome(_verify, table, relators) is None
            assert outcome(oracle_coset_verify, table, relators) is None
            n = len(table)
            one_coset += n == 1
            for _ in range(3):
                changed = [list(row) for row in table]
                gamma, x = rng.randrange(n), rng.randrange(2 * num_gens)
                changed[gamma][x] = None if rng.random() < 0.1 else rng.randrange(n)
                expected = outcome(oracle_coset_verify, changed, relators)
                assert outcome(_verify, changed, relators) == expected, (changed, relators)
                kinds["passed" if expected is None else expected[1]] += 1
        assert min(kinds.values()) >= 20 and one_coset > 0, (kinds, one_coset)


class TestLightsTest:
    def test_perturbed_tables(self):
        rng = random.Random(1805)
        texts = SMALL_GROUPS + [BENCH_PRESENTATIONS["s4"]]
        kinds = {"accepted": 0, "associativity fails": 0, "other": 0}
        for text in texts:
            group = todd_coxeter(parse_presentation(text), 1000)
            n = group.order
            for _ in range(16):
                table = perturbed(rng, [list(row) for row in group.table])
                if rng.random() < 0.5:
                    table = tuple(map(tuple, table))
                images = tuple(rng.randrange(n) for _ in range(rng.randint(1, 3)))
                expected = outcome(oracle_realized_group, n, table, images)
                assert outcome(group_from_table, n, table, images) == expected, (text, table, images)
                if expected is None:
                    kinds["accepted"] += 1
                elif expected[2].startswith("associativity fails at "):
                    kinds["associativity fails"] += 1
                else:
                    kinds["other"] += 1
        assert min(kinds.values()) >= 20, kinds


def swapped_off_graph(rng, P, dev, e):
    """``dev`` with two values of map e swapped off element e's graph, or
    None when fewer than two points lie off it."""
    free = [y for y in range(dev.ground_size) if y not in P.elements[e].mapping]
    if len(free) < 2:
        return None
    maps = list(dev.maps)
    perm = list(maps[e])
    y1, y2 = rng.sample(free, 2)
    perm[y1], perm[y2] = perm[y2], perm[y1]
    maps[e] = tuple(perm)
    return Development(dev.ground_size, tuple(maps))


def is_implied_form(P, triple):
    """True when another of the triple's six forms, over the inverses its
    identity triples give, is a witness triple earlier in table order."""
    one = P.identity_index
    table = P.witness_table
    inverse = {p: q for (p, q), r in table.items() if r == one}
    if one in triple or any(x not in inverse for x in triple):
        return False
    p, q, r = triple
    p1, q1, r1 = inverse[p], inverse[q], inverse[r]
    order = list(table)
    forms = [(p1, r, q), (r, q1, p), (q, r1, p1), (r1, p, q1), (q1, p1, r1)]
    return any(
        table.get((a, b)) == c and order.index((a, b)) < order.index((p, q)) for a, b, c in forms
    )


def developed_permutoids():
    """(permutoid, development) pairs: ball permutoids of the pool groups
    and of free groups, and random permutoids that develop."""
    out = []
    for text in POOL_PRESENTATIONS.values():
        group = todd_coxeter(parse_presentation(text), 1000)
        for rho in range(1, saturating_radius(group) + 1):
            out.append(cameron_permutoid(group, rho).permutoid)
    out += [cameron_permutoid(FreeGroup(1), rho).permutoid for rho in (1, 2, 3)]
    out.append(cameron_permutoid(FreeGroup(2), 1).permutoid)
    rng = random.Random(4)
    out += [random_permutoid(rng, rng.randint(3, 5)) for _ in range(40)]
    pairs = []
    for P in out:
        verdict = search_development(DevelopmentProblem(P, P.ground_size + 2))
        if isinstance(verdict, Found):
            pairs.append((P, verdict.development))
    return pairs


class TestVerifyDevelopment:
    def test_one_broken_cell(self):
        rng = random.Random(18)
        kinds = {"passed": 0, "CompositionBroken": 0, "NotExtending": 0, "other": 0}
        for P, dev in developed_permutoids():
            assert outcome(verify_development, P, dev) is None
            assert outcome(oracle_verify_development, P, dev) is None
            m = dev.ground_size
            for _ in range(8):
                maps = [list(perm) for perm in dev.maps]
                e = rng.randrange(len(maps))
                perm = maps[e]
                free = [y for y in range(m) if y not in P.elements[e].mapping]
                # mostly off the element's graph, where only compositions see it
                if len(free) > 1 and rng.random() < 0.7:
                    y1, y2 = rng.sample(free, 2)
                else:
                    y1, y2 = rng.randrange(m), rng.randrange(m)
                if rng.random() < 0.85:
                    perm[y1], perm[y2] = perm[y2], perm[y1]
                else:
                    perm[y1] = rng.randrange(m)
                if rng.random() < 0.5:
                    maps = [tuple(perm) for perm in maps]
                broken = Development(m, tuple(maps))
                expected = outcome(oracle_verify_development, P, broken)
                assert outcome(verify_development, P, broken) == expected, (P, broken)
                kind = "passed" if expected is None else expected[1]
                kinds[kind if kind in kinds else "other"] += 1
        assert min(kinds.values()) >= 20, kinds

    def test_broken_cells_on_a_large_ball(self):
        # the 161-point free ball composes well past the small degrees above
        P = cameron_permutoid(FreeGroup(2), 2).permutoid
        dev = search_development(DevelopmentProblem(P, P.ground_size)).development
        rng = random.Random(161)
        broken_count = 0
        for _ in range(30):
            maps = list(dev.maps)
            e = rng.randrange(len(maps))
            perm = list(maps[e])
            y1, y2 = rng.sample(range(P.ground_size), 2)
            perm[y1], perm[y2] = perm[y2], perm[y1]
            maps[e] = tuple(perm)
            broken = Development(P.ground_size, tuple(maps))
            expected = outcome(oracle_verify_development, P, broken)
            assert outcome(verify_development, P, broken) == expected
            broken_count += expected is not None and expected[1] == "CompositionBroken"
        assert broken_count >= 10

    def test_an_inverse_pair_broken(self):
        # one map of an inverse pair changed off its graph: a triple
        # (p, q, 1) is broken, and _broken_triple returns the first broken
        # triple in table order, that one or another
        rng = random.Random(29)
        cases = named_elsewhere = 0
        for P, dev in developed_permutoids():
            one = P.identity_index
            for (p, q), r in P.witness_table.items():
                if r != one or p == q:
                    continue
                broken = swapped_off_graph(rng, P, dev, q)
                if broken is None:
                    continue
                first = develop._broken_triple(P, [tuple(perm) for perm in broken.maps])
                expected = outcome(oracle_verify_development, P, broken)
                assert expected is not None and expected[1] == "CompositionBroken"
                assert first == tuple(expected[3][key] for key in "pqr"), (P, broken)
                assert outcome(verify_development, P, broken) == expected, (P, broken)
                cases += 1
                named_elsewhere += expected[3]["r"] != one
        assert cases >= 30 and named_elsewhere >= 8, (cases, named_elsewhere)

    def test_first_broken_triple_is_an_implied_form(self):
        # the first broken triple in table order is a form of a triple
        # earlier in that order; only a form that holds is marked implied,
        # so _broken_triple composes it and returns it
        rng = random.Random(2)
        implied = 0
        s4 = todd_coxeter(parse_presentation(BENCH_PRESENTATIONS["s4"]), 1000)
        for group, rho in ((FreeGroup(2), 2), (s4, 2), (s4, 3)):
            P = cameron_permutoid(group, rho).permutoid
            dev = search_development(DevelopmentProblem(P, P.ground_size + 2)).development
            for _ in range(4):
                for e in range(len(P.elements)):
                    broken = swapped_off_graph(rng, P, dev, e)
                    if broken is None:
                        continue
                    expected = outcome(oracle_verify_development, P, broken)
                    assert outcome(verify_development, P, broken) == expected, (P, broken)
                    if expected is None or expected[1] != "CompositionBroken":
                        continue
                    named = tuple(expected[3][key] for key in "pqr")
                    if is_implied_form(P, named):
                        maps = [tuple(perm) for perm in broken.maps]
                        assert develop._broken_triple(P, maps) == named
                        implied += 1
        assert implied >= 10, implied

    @pytest.mark.parametrize(
        "name, rho, composed, triples",
        [("s4", 6, 111, 576), ("a5", 10, 637, 3600), ("f2", 2, 27, 109)],
    )
    def test_compositions_per_verify(self, monkeypatch, name, rho, composed, triples):
        # one composition per class of six forms, none for (1, q, q) and (p, 1, p)
        if name == "f2":
            group = FreeGroup(2)
        else:
            group = todd_coxeter(parse_presentation(BENCH_PRESENTATIONS[name]), 1000)
        P = cameron_permutoid(group, rho).permutoid
        dev = search_development(DevelopmentProblem(P, P.ground_size)).development
        calls = []

        def counting(f, g):
            calls.append(None)
            return _perm_compose(f, g)

        monkeypatch.setattr(develop, "_perm_compose", counting)
        verify_development(P, dev)
        assert (len(calls), len(P.witness_table)) == (composed, triples)
