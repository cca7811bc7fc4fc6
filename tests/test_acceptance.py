"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s`` or in captured output) and enforces its wall-clock budget.
Criteria are exercised end to end: realized groups and ball permutoids are
rebuilt inside each criterion's timer rather than taken from fixtures.
"""

import itertools
import random
import time
from contextlib import contextmanager

from permutoid_lab import serialize
from permutoid_lab.core import (
    PartialPermutation,
    is_rigid_permutoid,
    validate_permutoid,
)
from permutoid_lab.develop import (
    DevelopmentProblem,
    ExhaustedUpTo,
    Found,
    probe_finite_quotient,
    search_development,
    verify_development,
)
from permutoid_lab.errors import NotRigid
from permutoid_lab.groups import (
    cameron_permutoid,
    cayley_ball,
    parse_presentation,
    todd_coxeter,
    triangulate,
    universal_group,
    verify_quotient_hom,
)
from permutoid_lab.pseudogroup import (
    generate_pseudogroup,
    is_rigid_pseudogroup,
    search_rigid_development,
)

import test_pseudogroup as pseudogroup_oracles
from test_develop import brute_force_developable
from test_morphisms_canonical import all_small_permutoids

POOL = {
    "z2": "gens: a\nrels: a^2",
    "z3": "gens: a\nrels: a^3",
    "z4": "gens: a\nrels: a^4",
    "z5": "gens: a\nrels: a^5",
    "z6": "gens: a\nrels: a^6",
    "s3": "gens: a, b\nrels: a^2, b^3, a b a b",
    "q8": "gens: a, b\nrels: a^4, a^2 b^-2, b^-1 a b a",
}

POOL_ORDERS = {"z2": 2, "z3": 3, "z4": 4, "z5": 5, "z6": 6, "s3": 6, "q8": 8}


@contextmanager
def criterion(num, name, limit_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{name}]: FAIL")
        raise
    elapsed = time.monotonic() - start
    verdict = "PASS" if elapsed < limit_s else "FAIL"
    print(
        f"ACCEPTANCE {num} [{name}]: {verdict} "
        f"({elapsed:.1f}s / limit {limit_s:.0f}s)"
    )
    assert elapsed < limit_s, f"criterion {num} exceeded its {limit_s}s budget"


def realize_pool():
    return {name: todd_coxeter(parse_presentation(text), 1000) for name, text in POOL.items()}


def saturating_radius(group):
    r = 1
    while cayley_ball(group, r).size < group.order:
        r += 1
    return r


def test_criterion_1_cameron_validity_and_rigidity():
    with criterion(1, "ball permutoid validity & rigidity", 10.0):
        groups = realize_pool()
        for name, group in groups.items():
            for rho in (1, 2, 3):
                cam = cameron_permutoid(group, rho)
                revalidated = validate_permutoid(
                    cam.permutoid.ground_size, cam.permutoid.elements
                )
                assert revalidated == cam.permutoid
                assert is_rigid_permutoid(cam.permutoid), (name, rho)


def test_criterion_2_saturated_balls_develop_at_group_order():
    with criterion(2, "saturated balls develop at group order", 30.0):
        groups = realize_pool()
        for name, group in groups.items():
            cam = cameron_permutoid(group, saturating_radius(group))
            verdict = search_development(
                DevelopmentProblem(cam.permutoid, POOL_ORDERS[name] + 2)
            )
            assert isinstance(verdict, Found), name
            assert verdict.development.ground_size == POOL_ORDERS[name], name
            verify_development(cam.permutoid, verdict.development)


def test_criterion_3_universal_group_isomorphism_regime():
    with criterion(3, "universal group realizes the group", 30.0):
        for text, expected in ((POOL["z5"], 5), (POOL["s3"], 6)):
            pres = parse_presentation(text)
            group = todd_coxeter(pres, 1000)
            cam = cameron_permutoid(group, 3)
            uni = universal_group(cam.permutoid)
            assert todd_coxeter(uni, 10_000).order == expected


def test_criterion_4_triangulation_preserves_the_group():
    with criterion(4, "triangulation preserves the group", 30.0):
        for text, expected in ((POOL["z5"], 5), (POOL["s3"], 6)):
            pres = parse_presentation(text)
            tri = triangulate(pres, 3)
            assert all(len(r) <= 3 for r in tri.relators)
            assert todd_coxeter(tri, 10_000).order == expected


def test_criterion_5_probe_pipeline():
    with criterion(5, "finite-quotient probe pipeline", 60.0):
        z6 = parse_presentation(POOL["z6"])
        report = probe_finite_quotient(z6, rho=4, max_ground=12)
        assert report.verdict == "found-quotient"
        assert report.evidence.group_order > 1
        assert 6 % report.evidence.group_order == 0
        recheck = verify_quotient_hom(
            z6, dict(zip(report.evidence.generators, report.evidence.images))
        )
        assert recheck.group_order == report.evidence.group_order

        free = parse_presentation("gens: a")
        report = probe_finite_quotient(free, rho=1, max_ground=8)
        assert report.verdict == "found-quotient"
        assert report.evidence.group_order > 1

        trivial = parse_presentation("gens: a\nrels: a")
        report = probe_finite_quotient(trivial, rho=1, max_ground=4)
        assert report.verdict == "definitively-none"


def test_criterion_6_search_oracle_equivalence():
    with criterion(6, "search agrees with the brute-force oracle", 300.0):
        pool = all_small_permutoids(3, 3)
        assert len(pool) > 100
        found = exhausted = 0
        for P in pool:
            graphs = [el.pairs for el in P.elements]
            expected = brute_force_developable(P.ground_size, graphs, 4)
            verdict = search_development(DevelopmentProblem(P, 4))
            if expected is None:
                assert isinstance(verdict, ExhaustedUpTo), graphs
                exhausted += 1
            else:
                assert isinstance(verdict, Found), graphs
                assert verdict.development.ground_size == expected, graphs
                found += 1
        assert found > 0 and exhausted > 0


def test_criterion_7_pseudogroup_suite():
    with criterion(7, "pseudogroup suite", 300.0):
        # regeneration fixpoint on randomized generator sets
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(2, 5)
            gens = []
            for _ in range(rng.randint(1, 3)):
                size = rng.randint(1, n)
                xs = rng.sample(range(n), size)
                ys = rng.sample(range(n), size)
                gens.append(PartialPermutation.from_pairs(n, list(zip(xs, ys))))
            H = generate_pseudogroup(n, gens)
            H2 = generate_pseudogroup(n, H.maximal_elements)
            assert {m.pairs for m in H.maximal_elements} == {
                m.pairs for m in H2.maximal_elements
            }

        # three-way rigidity equivalence: exhaustive one-generator pools on
        # 2..4 points and two-generator pools on 2..3 points, plus seeded
        # two/three-generator samples on 4 points
        def injections(n):
            out = []
            for size in range(1, n + 1):
                for xs in itertools.combinations(range(n), size):
                    for ys in itertools.permutations(range(n), size):
                        out.append(PartialPermutation.from_pairs(n, list(zip(xs, ys))))
            return out

        pools = []
        for n in (2, 3, 4):
            pools.extend((n, [g]) for g in injections(n))
        for n in (2, 3):
            pools.extend(
                (n, [g, h]) for g, h in itertools.combinations(injections(n), 2)
            )
        rng = random.Random(1234)
        four = injections(4)
        for _ in range(150):
            pools.append((4, rng.sample(four, rng.randint(2, 3))))
        rigidity = pseudogroup_oracles.TestRigidity
        for n, gens in pools:
            H = generate_pseudogroup(n, gens)
            a = is_rigid_pseudogroup(H)
            b = rigidity.rigid_by_unique_maximal_extension(H)
            c = rigidity.rigid_by_agreeing_unions(H)
            assert a == b == c, [g.pairs for g in gens]

        # the order-3 free development of the single-arrow pseudogroup
        H = generate_pseudogroup(3, [PartialPermutation.from_pairs(3, [(0, 1)])])
        verdict = search_rigid_development(H, 5)
        assert isinstance(verdict, Found)
        assert verdict.development.ground_size == 3
        assert verdict.development.group_order == 3

        # the regular development of the saturated z4 ball pseudogroup
        z4 = todd_coxeter(parse_presentation(POOL["z4"]), 100)
        cam = cameron_permutoid(z4, saturating_radius(z4))
        H4 = generate_pseudogroup(4, cam.permutoid.elements)
        verdict = search_rigid_development(H4, 6)
        assert isinstance(verdict, Found)
        assert verdict.development.ground_size == 4
        assert verdict.development.group_order == 4

        # the non-rigid example is rejected
        Hn = generate_pseudogroup(
            4,
            [
                PartialPermutation.from_pairs(4, [(0, 1), (1, 0)]),
                PartialPermutation.from_pairs(4, [(0, 1), (2, 3)]),
            ],
        )
        try:
            search_rigid_development(Hn, 6)
        except NotRigid:
            pass
        else:
            raise AssertionError("non-rigid pseudogroup was not rejected")


def _criterion_2_bytes():
    groups = realize_pool()
    chunks = []
    for name in sorted(groups):
        group = groups[name]
        cam = cameron_permutoid(group, saturating_radius(group))
        verdict = search_development(
            DevelopmentProblem(cam.permutoid, POOL_ORDERS[name] + 2)
        )
        chunks.append(
            serialize.canonical_json(
                serialize.development_to_obj(verdict.development, cam.labels)
            )
        )
    return "".join(chunks).encode()


def _criterion_4_bytes():
    from permutoid_lab.groups import format_presentation

    chunks = []
    for text in (POOL["z5"], POOL["s3"]):
        tri = triangulate(parse_presentation(text), 3)
        chunks.append(format_presentation(tri))
    return "".join(chunks).encode()


def _criterion_5_bytes():
    chunks = []
    for text, rho, max_ground in ((POOL["z6"], 4, 12), ("gens: a", 1, 8)):
        report = probe_finite_quotient(
            parse_presentation(text), rho=rho, max_ground=max_ground
        )
        chunks.append(serialize.canonical_json(serialize.probe_report_to_obj(report)))
    return "".join(chunks).encode()


def test_criterion_8_determinism():
    with criterion(8, "byte-identical deterministic reruns", 300.0):
        for build in (_criterion_2_bytes, _criterion_4_bytes, _criterion_5_bytes):
            assert build() == build(), build.__name__
