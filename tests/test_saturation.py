"""Differential tests for pseudogroup saturation and its closure check.

The previous ``generate_pseudogroup`` (a naive fixpoint that recomposes
every pair of a snapshot of the antichain each round) and the previous
``check_pseudogroup`` (linear ``extends`` scans) are copied here as oracles.
Work counters of both routines are pinned on the largest closures.
"""

import hashlib
import random
import sys

import pytest

from permutoid_lab.core import (
    EMPTY_COMPOSITION,
    PartialPermutation,
    _ExtenderIndex,
    compose_partial,
    identity_map,
)
from permutoid_lab.errors import GroundSetMismatch, PseudogroupError
from permutoid_lab.groups import cameron_permutoid, parse_presentation, todd_coxeter
from permutoid_lab.pseudogroup import (
    Pseudogroup,
    check_pseudogroup,
    generate_pseudogroup,
    group_action_pseudogroup,
)

from conftest import POOL_PRESENTATIONS, saturating_radius


# -- oracles: the previous routines --------------------------------------------------

def _antichain_insert(chain, f):
    """Insert unless dominated; drop newly dominated members.  True if changed."""
    for m in chain:
        if m.extends(f):
            return False
    chain[:] = [m for m in chain if not f.extends(m)]
    chain.append(f)
    return True


def oracle_generate(ground_size, generators):
    chain = [identity_map(ground_size)]
    for g in generators:
        if g.ground_size != ground_size:
            raise GroundSetMismatch(
                f"generator has ground size {g.ground_size}, expected {ground_size}"
            )
        _antichain_insert(chain, g)
    changed = True
    while changed:
        changed = False
        snapshot = sorted(chain, key=lambda m: m.pairs)
        for m in snapshot:
            if _antichain_insert(chain, m.inverse()):
                changed = True
        for m1 in snapshot:
            for m2 in snapshot:
                comp = compose_partial(m1, m2)
                if comp is EMPTY_COMPOSITION:
                    continue
                if _antichain_insert(chain, comp):
                    changed = True
    return Pseudogroup(ground_size, tuple(sorted(chain, key=lambda m: m.pairs)))


def oracle_check(H):
    members = H.maximal_elements
    graphs = {m.pairs for m in members}
    if len(graphs) != len(members):
        raise PseudogroupError("DuplicateElement", "maximal elements must be distinct")
    if identity_map(H.ground_size).pairs not in graphs:
        raise PseudogroupError("MissingIdentity", "the full identity must be maximal")
    for m in members:
        if m.ground_size != H.ground_size:
            raise PseudogroupError("GroundSetMismatch", "mixed ground sizes")
        if m.inverse().pairs not in graphs:
            raise PseudogroupError("NotInverseClosed", "maximal elements must include inverses")
    for i, m1 in enumerate(members):
        for j, m2 in enumerate(members):
            if i != j and m1.extends(m2):
                raise PseudogroupError("NotAntichain", f"element {j} restricts element {i}")
            comp = compose_partial(m1, m2)
            if comp is EMPTY_COMPOSITION:
                continue
            if not any(m.extends(comp) for m in members):
                raise PseudogroupError(
                    "NotClosed", f"composition of elements {i} and {j} escapes the antichain"
                )


# -- inputs ----------------------------------------------------------------------------

def criterion_7_draw(rng, n):
    """The acceptance-criterion-7 draw: one to three random partial maps."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, n)
        xs, ys = rng.sample(range(n), size), rng.sample(range(n), size)
        gens.append(PartialPermutation.from_pairs(n, list(zip(xs, ys))))
    return gens


def small_draws():
    rng = random.Random(4242)
    return [(n, criterion_7_draw(rng, n)) for n in (rng.randint(2, 4) for _ in range(300))]


def five_point_draws():
    # The oracle needs ~30 s on the largest five-point closures (468
    # maximal elements).  This seed was picked among seeds whose largest
    # closure stays under 200 for the oracle's speed; its largest has 136.
    rng = random.Random(529)
    return [(5, criterion_7_draw(rng, 5)) for _ in range(20)]


# The draws with at least 300 maximal elements among the first 200 of
# criterion_7_draw(random.Random(529), 5): index -> (size, first 16 hex
# digits of the sha256 of the maximal elements' pairs), pinned because the
# oracle is too slow at these sizes.
LARGE_CLOSURES = {
    31: (468, "ee735e03d8b53fb9"),
    46: (576, "6d88ab78f8a87468"),
    49: (474, "92027941efb17a92"),
    59: (468, "530191c25d50a2be"),
    79: (584, "ed66954d51044806"),
    101: (474, "19deceb00e57b040"),
    117: (360, "0d92a5f101b1f589"),
    158: (360, "9b61d2899b382bb4"),
    168: (330, "8d21d7fbb95cd784"),
}


SATURATED_BALLS = {
    **{name: POOL_PRESENTATIONS[name] for name in ("z2", "z3", "z4", "z5", "s3")},
    "k4": "gens: a, b\nrels: a^2, b^2, a b a^-1 b^-1",
}


def pinned_digest(H):
    return hashlib.sha256(repr([m.pairs for m in H.maximal_elements]).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def large_closures():
    """The pinned closures of LARGE_CLOSURES, by draw index."""
    rng = random.Random(529)
    draws = [criterion_7_draw(rng, 5) for _ in range(max(LARGE_CLOSURES) + 1)]
    return {i: generate_pseudogroup(5, draws[i]) for i in LARGE_CLOSURES}


def with_redundant_maps(rng, H, gens):
    """``gens`` with members of H, restrictions of them and the inverses
    of both put at random places before, between and after them.  Each
    added map restricts a word in ``gens``, so the closure stays H."""
    n, members = H.ground_size, H.maximal_elements
    out = list(gens)
    for m in rng.sample(members, min(3, len(members))):
        sub = PartialPermutation(n, tuple(rng.sample(m.pairs, rng.randint(1, len(m.pairs)))))
        for extra in (m, sub, m.inverse(), sub.inverse()):
            out.insert(rng.randint(0, len(out)), extra)
    return out


def ball_generators(text):
    group = todd_coxeter(parse_presentation(text), 1000)
    return group.order, cameron_permutoid(group, saturating_radius(group)).permutoid.elements


def outcome(check, H):
    try:
        check(H)
    except PseudogroupError as exc:
        return (exc.code, str(exc), exc.details)
    return "ok"


# -- generation ------------------------------------------------------------------------

class TestGenerateAgainstOracle:
    def test_small_draws(self):
        for n, gens in small_draws():
            assert generate_pseudogroup(n, gens) == oracle_generate(n, gens), gens

    def test_five_point_draws(self):
        sizes = []
        for n, gens in five_point_draws():
            H = generate_pseudogroup(n, gens)
            assert H == oracle_generate(n, gens), gens
            sizes.append(len(H.maximal_elements))
        assert max(sizes) >= 100, sizes

    @pytest.mark.parametrize("name", sorted(SATURATED_BALLS))
    def test_saturated_ball_generators(self, name):
        n, gens = ball_generators(SATURATED_BALLS[name])
        H = generate_pseudogroup(n, gens)
        assert H == oracle_generate(n, gens)
        assert len(H.maximal_elements) == n and all(m.is_full() for m in H.maximal_elements)

    def test_shuffled_and_duplicated_generators(self):
        rng = random.Random(77)
        for n, gens in small_draws()[:100]:
            expected = generate_pseudogroup(n, gens)
            shuffled = gens + [rng.choice(gens) for _ in range(rng.randint(1, 3))]
            rng.shuffle(shuffled)
            assert generate_pseudogroup(n, shuffled) == expected, gens
            assert generate_pseudogroup(n, iter(shuffled)) == expected

    def test_large_closures_pinned(self):
        rng = random.Random(529)
        large = {}
        for i in range(200):
            H = generate_pseudogroup(5, criterion_7_draw(rng, 5))
            if len(H.maximal_elements) >= 300:
                check_pseudogroup(H)
                large[i] = (len(H.maximal_elements), pinned_digest(H))
        assert large == LARGE_CLOSURES

    def test_maximal_elements_as_generators_are_a_fixpoint(self):
        for n, gens in five_point_draws():
            H = generate_pseudogroup(n, gens)
            assert generate_pseudogroup(n, reversed(H.maximal_elements)) == H

    def test_ground_mismatch_after_valid_generators(self):
        gens = [PartialPermutation.from_pairs(3, [(0, 1)]), PartialPermutation.from_pairs(2, [(0, 1)])]
        with pytest.raises(GroundSetMismatch) as new:
            generate_pseudogroup(3, gens)
        with pytest.raises(GroundSetMismatch) as old:
            oracle_generate(3, gens)
        assert str(new.value) == str(old.value)


class TestRedundantGenerators:
    """A map that a member already extends adds no letter, and the closure
    is the same."""

    def test_members_restrictions_and_inverses_interleaved(self):
        rng = random.Random(2718)
        for n, gens in small_draws()[:150] + five_point_draws()[:8]:
            H = generate_pseudogroup(n, gens)
            mixed = with_redundant_maps(rng, H, gens)
            assert generate_pseudogroup(n, mixed) == H == oracle_generate(n, mixed), mixed

    def test_pinned_closures_from_shuffled_members(self, large_closures):
        # the oracle is too slow at these sizes, so the pins stand in for it
        rng = random.Random(584)
        for i, H in large_closures.items():
            members = list(H.maximal_elements)
            rng.shuffle(members)
            for gens in (members, with_redundant_maps(rng, H, members)):
                again = generate_pseudogroup(5, gens)
                assert (len(again.maximal_elements), pinned_digest(again)) == LARGE_CLOSURES[i]


# -- the closure check -----------------------------------------------------------------

def random_map(rng, n):
    size = rng.randint(1, n)
    return PartialPermutation.from_pairs(n, zip(rng.sample(range(n), size), rng.sample(range(n), size)))


def mutations(rng, H):
    """Named corruptions of a valid antichain (some may still be valid)."""
    n, members = H.ground_size, list(H.maximal_elements)
    identity = identity_map(n)
    others = [m for m in members if m != identity]

    def at_random_place(extra):
        out = members[:]
        for e in extra:
            out.insert(rng.randint(0, len(out)), e)
        return out

    yield "unchanged", members
    if others:
        drop = rng.choice(others)
        yield "drop a member", [m for m in members if m != drop]
        big = [m for m in members if len(m.pairs) >= 2]
        if big:
            m = rng.choice(big)
            sub = rng.sample(m.pairs, rng.randint(1, len(m.pairs) - 1))
            yield "add a restriction", at_random_place([PartialPermutation(n, tuple(sub))])
        asymmetric = [m for m in others if m.inverse() != m]
        if asymmetric:
            inverse = rng.choice(asymmetric).inverse()
            yield "drop an inverse", [m for m in members if m != inverse]
    f = random_map(rng, n)
    yield "add a random map", at_random_place([f])
    yield "add a random map and its inverse", at_random_place([f, f.inverse()])
    yield "duplicate a member", at_random_place([rng.choice(members)])
    yield "drop the identity", [m for m in members if m != identity]


class TestCheckAgainstOracle:
    def test_mutated_antichains(self):
        rng = random.Random(31337)
        seen = {}
        for n, gens in small_draws()[:100] + five_point_draws()[:5]:
            H = generate_pseudogroup(n, gens)
            for name, members in mutations(rng, H):
                mutated = Pseudogroup(n, tuple(members))
                expected = outcome(oracle_check, mutated)
                assert outcome(check_pseudogroup, mutated) == expected, (name, members)
                code = expected if expected == "ok" else expected[0]
                seen[code] = seen.get(code, 0) + 1
        codes = ("ok", "NotAntichain", "NotClosed", "NotInverseClosed", "DuplicateElement",
                 "MissingIdentity")
        assert all(seen.get(code, 0) >= 10 for code in codes), seen

    def test_mixed_ground_sizes(self):
        H = Pseudogroup(2, (identity_map(2), PartialPermutation.from_pairs(3, [(0, 1)])))
        assert outcome(check_pseudogroup, H) == outcome(oracle_check, H)
        assert outcome(check_pseudogroup, H)[0] == "GroundSetMismatch"

    def test_mutated_actions_beyond_64_members(self):
        # the regular action of Z_66: its member masks and composite masks
        # are wider than 64 bits
        n = 66
        group = todd_coxeter(parse_presentation(f"gens: a\nrels: a^{n}"), 1000)
        action = [tuple(group.table[i][x] for x in range(n)) for i in range(n)]
        H = group_action_pseudogroup(group, action)
        members = list(H.maximal_elements)
        half = next(m for m in members if m.pairs[0] != (0, 0) and m.inverse() == m)
        last = next(m for m in reversed(members) if m.inverse() != m)
        sub = PartialPermutation(n, last.pairs[::17])
        rng = random.Random(66)
        with_restriction = members[:]
        for extra in (sub, sub.inverse()):
            with_restriction.insert(rng.randint(60, len(with_restriction)), extra)
        cases = {
            "unchanged": members,
            "drop the self-inverse member": [m for m in members if m != half],
            "add a restriction and its inverse": with_restriction,
            "drop an inverse": [m for m in members if m != last],
        }
        codes = {}
        for name, mutated in cases.items():
            expected = outcome(oracle_check, Pseudogroup(n, tuple(mutated)))
            assert outcome(check_pseudogroup, Pseudogroup(n, tuple(mutated))) == expected, name
            codes[name] = expected if expected == "ok" else expected[0]
        assert codes == {
            "unchanged": "ok",
            "drop the self-inverse member": "NotClosed",
            "add a restriction and its inverse": "NotAntichain",
            "drop an inverse": "NotInverseClosed",
        }


# -- work counters ---------------------------------------------------------------------

# generate_pseudogroup's local insert, the one call per candidate map
INSERT = next(c for c in generate_pseudogroup.__code__.co_consts if getattr(c, "co_name", "") == "insert")


def insert_calls(run):
    """How many times ``run()`` calls ``generate_pseudogroup``'s insert,
    counted by a trace function that sees calls only."""
    calls = 0

    def trace(frame, event, arg):
        nonlocal calls
        calls += frame.f_code is INSERT

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    return calls


# Insert calls of the regeneration fixpoint on each of LARGE_CLOSURES.
REGENERATION_INSERTS = {
    31: 6481, 46: 8339, 49: 7591, 59: 13244, 79: 7776, 101: 4795, 117: 4683, 158: 8355, 168: 4256,
}

# Composite tests of check_pseudogroup on each of LARGE_CLOSURES: M(M+1)/2
# for M members, one per pair up to inversion.
CHECK_COMPOSITES = {
    31: 109746, 46: 166176, 49: 112575, 59: 109746, 79: 170820, 101: 112575, 117: 64980,
    158: 64980, 168: 54615,
}


class TestWorkCounters:
    def test_regeneration_inserts_pinned(self, large_closures):
        counts = {}
        for i, H in large_closures.items():
            counts[i] = insert_calls(lambda: generate_pseudogroup(5, H.maximal_elements))
        assert counts == REGENERATION_INSERTS

    def test_check_composites_pinned(self, large_closures, monkeypatch):
        calls = 0
        composite = _ExtenderIndex.composite

        def counting(index, image, j):
            nonlocal calls
            calls += 1
            return composite(index, image, j)

        monkeypatch.setattr(_ExtenderIndex, "composite", counting)
        counts = {}
        for i, H in large_closures.items():
            calls = 0
            check_pseudogroup(H)
            m = len(H.maximal_elements)
            assert calls <= m * (m + 1) // 2
            counts[i] = calls
        assert counts == CHECK_COMPOSITES
