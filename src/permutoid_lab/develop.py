"""Bounded search for finite developments, and the finite-quotient probe.

A development of a permutoid embeds the ground set X as an identity prefix
of a finite set Y and assigns every element a full permutation of Y that
extends it, such that whenever r is the unique extension of p.q the assigned
permutations satisfy f_p o f_q = f_r.  The search deepens |Y| one point at a
time, so the first development found is one of minimal size in the canonical
order.  An exhausted size bound is never a proof that no development exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Union

from .core import (
    Morphism,
    Permutoid,
    enumerate_quotients,
    witness_triples,
)
from .errors import DevelopmentError, PreconditionRadius, UsageError
from .groups import (
    CameronPermutoid,
    FiniteQuotientEvidence,
    Presentation,
    cameron_permutoid,
    realize_backend,
    verify_quotient_hom,
)


@dataclass(frozen=True)
class DevelopmentProblem:
    source: Permutoid
    max_ground: int
    node_budget: int | None = None

    def __post_init__(self):
        if self.max_ground < self.source.ground_size:
            raise UsageError(
                f"max_ground {self.max_ground} below ground size {self.source.ground_size}"
            )


@dataclass(frozen=True)
class Development:
    """Full permutations of {0,...,ground_size-1}, one per source element;
    the source ground set embeds as the identity prefix."""

    ground_size: int
    maps: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Found:
    development: object  # Development, or RigidDevelopment for rigid search
    nodes_explored: int


@dataclass(frozen=True)
class ExhaustedUpTo:
    max_ground: int
    nodes_explored: int


@dataclass(frozen=True)
class BudgetExceeded:
    nodes_explored: int
    size_reached: int


SearchVerdict = Union[Found, ExhaustedUpTo, BudgetExceeded]


class _BudgetExhausted(Exception):
    pass


class _Conflict(Exception):
    pass


class _Csp:
    """Backtracking state for one target size.

    ``fwd[e]`` and ``inv[e]`` hold element e's permutation of the target and
    its inverse, with -1 where a cell is unassigned.  The identity element
    is assigned on every point and each element on its own graph before the
    first branch.  The search then branches on the first unassigned cell in
    (element, point) order and tries its free values in ascending order, so
    the first development found is the canonical one.  Every assignment is
    propagated through the composition triples and recorded on the trail
    as (e, y, v) for undoing.
    """

    def __init__(self, P: Permutoid, triples, m: int, counter: dict):
        self.m = m
        self.counter = counter
        k = len(P.elements)
        self.fwd = [[-1] * m for _ in range(k)]
        self.inv = [[-1] * m for _ in range(k)]
        self.trail: list[tuple[int, int, int]] = []
        self.queue: list[tuple[int, int, int]] = []
        self.by_left: list[list] = [[] for _ in range(k)]
        self.by_mid: list[list] = [[] for _ in range(k)]
        self.by_right: list[list] = [[] for _ in range(k)]
        for t in triples:
            p, q, r = t
            self.by_left[p].append(t)
            self.by_mid[q].append(t)
            self.by_right[r].append(t)

        for y in range(m):
            self._set(P.identity_index, y, y)
        for e, el in enumerate(P.elements):
            for x, y in el.pairs:
                self._set(e, x, y)
        self._propagate()

    def _set(self, e: int, y: int, v: int):
        cur = self.fwd[e][y]
        if cur == v:
            return
        if cur != -1 or self.inv[e][v] != -1:
            raise _Conflict
        self.fwd[e][y] = v
        self.inv[e][v] = y
        self.trail.append((e, y, v))
        self.queue.append((e, y, v))

    def _propagate(self):
        fwd, inv = self.fwd, self.inv
        while self.queue:
            e, y, v = self.queue.pop()
            # most derived values are already in place; _set only the new ones
            for p, q, r in self.by_mid[e]:
                w = fwd[p][v]
                if w != -1 and fwd[r][y] != w:
                    self._set(r, y, w)
                w = fwd[r][y]
                if w != -1 and fwd[p][v] != w:
                    self._set(p, v, w)
            for p, q, r in self.by_left[e]:
                yq = inv[q][y]
                if yq != -1 and fwd[r][yq] != v:
                    self._set(r, yq, v)
                yr = inv[r][v]
                if yr != -1 and fwd[q][yr] != y:
                    self._set(q, yr, y)
            for p, q, r in self.by_right[e]:
                z = fwd[q][y]
                if z != -1 and fwd[p][z] != v:
                    self._set(p, z, v)
                z = inv[p][v]
                if z != -1 and fwd[q][y] != z:
                    self._set(q, y, z)

    def _undo(self, checkpoint: int):
        while len(self.trail) > checkpoint:
            e, y, v = self.trail.pop()
            self.fwd[e][y] = -1
            self.inv[e][v] = -1
        self.queue.clear()

    def _solve(self) -> Iterator[tuple[tuple[int, ...], ...]]:
        for e, row in enumerate(self.fwd):
            if -1 in row:
                y = row.index(-1)
                break
        else:
            yield tuple(tuple(row) for row in self.fwd)
            return
        free = self.inv[e]
        for v in [v for v in range(self.m) if free[v] == -1]:
            self.counter["nodes"] += 1
            budget = self.counter["budget"]
            if budget is not None and self.counter["nodes"] > budget:
                raise _BudgetExhausted
            checkpoint = len(self.trail)
            try:
                self._set(e, y, v)
                self._propagate()
            except _Conflict:
                self._undo(checkpoint)
                continue
            yield from self._solve()
            self._undo(checkpoint)


def _first_certified(
    prob: DevelopmentProblem, certify: Callable[[Development], object]
) -> SearchVerdict:
    """Run the search over target sizes, smallest first, in the canonical
    backtracking order, and report the first development that ``certify``
    turns into a certificate (it returns None to skip a development)."""
    P = prob.source
    triples = witness_triples(P)
    counter: dict = {"nodes": 0, "budget": prob.node_budget}
    try:
        for m in range(P.ground_size, prob.max_ground + 1):
            counter["size"] = m
            try:
                csp = _Csp(P, triples, m, counter)
            except _Conflict:
                continue
            for maps in csp._solve():
                certificate = certify(Development(m, maps))
                if certificate is not None:
                    return Found(certificate, counter["nodes"])
    except _BudgetExhausted:
        return BudgetExceeded(counter["nodes"], counter["size"])
    return ExhaustedUpTo(prob.max_ground, counter["nodes"])


def search_development(prob: DevelopmentProblem) -> SearchVerdict:
    """First development in the canonical order, or a bound verdict.

    ExhaustedUpTo means no development with at most max_ground points
    exists; BudgetExceeded only means the node budget ran out.
    """

    def verified(dev: Development) -> Development:
        verify_development(prob.source, dev)
        return dev

    return _first_certified(prob, verified)


def verify_development(P: Permutoid, D: Development) -> None:
    """Re-derive every constraint from the graphs and check D against them,
    independently of the search engine.  Raises DevelopmentError."""
    m = D.ground_size
    if m < P.ground_size:
        raise DevelopmentError("WrongShape", "target smaller than the source ground set")
    if len(D.maps) != len(P.elements):
        raise DevelopmentError("WrongShape", "one permutation per element required")
    for e, perm in enumerate(D.maps):
        if len(perm) != m or sorted(perm) != list(range(m)):
            raise DevelopmentError("NotAPermutation", f"map {e} is not a permutation", element=e)
    identity = tuple(range(m))
    if D.maps[P.identity_index] != identity:
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
        for y in range(m):
            if fp[fq[y]] != fr[y]:
                raise DevelopmentError(
                    "CompositionBroken",
                    f"triple ({i},{j},{k}) broken at point {y}",
                    p=i,
                    q=j,
                    r=k,
                    point=y,
                )


# -- the finite-quotient probe --------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProbeReport:
    verdict: str  # "found-quotient" | "definitively-none" | "inconclusive"
    evidence: FiniteQuotientEvidence | None = None
    quotient: Permutoid | None = None
    quotient_morphism: Morphism | None = None
    development: Development | None = None
    statistics: Mapping = field(default_factory=dict)


def _chase_evidence(
    cameron: CameronPermutoid,
    presentation: Presentation,
    morphism: Morphism,
    development: Development,
) -> FiniteQuotientEvidence:
    images = {
        name: development.maps[morphism.element_map[cameron.element_for_generator(g)]]
        for g, name in enumerate(presentation.generators)
    }
    return verify_quotient_hom(presentation, images)


def quotient_evidence(
    presentation: Presentation,
    rho: int,
    morphism: Morphism,
    development: Development,
    max_cosets: int = 10_000,
) -> FiniteQuotientEvidence:
    """Turn a development of a quotient of the ball permutoid into certified
    finite-quotient evidence for the presented group.

    ``morphism`` maps the radius-rho ball permutoid onto the quotient that
    ``development`` develops.  Each generator's element is sent through it
    into the development, and the resulting assignment is verified to kill
    every relator.
    """
    cameron = cameron_permutoid(realize_backend(presentation, max_cosets), rho)
    if morphism.source != cameron.permutoid:
        raise UsageError("morphism does not start at the ball permutoid")
    return _chase_evidence(cameron, presentation, morphism, development)


def probe_finite_quotient(
    presentation: Presentation,
    rho: int,
    max_ground: int,
    node_budget: int | None = None,
    max_cosets: int = 10_000,
) -> ProbeReport:
    """Search for certified evidence that the presented group has a
    non-trivial finite quotient.

    Builds the radius-rho ball permutoid (rho must exceed half the longest
    relator), lists non-trivial quotient classes, and runs the development
    search on each, smallest ground sets first.  The node budget applies to
    each class's search independently.  A found development certifies the
    quotient through verify_quotient_hom; a trivial ball permutoid proves the
    group trivial; anything else is inconclusive, never a negative.
    """
    if 2 * rho <= presentation.max_relator_length:
        raise PreconditionRadius(
            f"need 2*rho > {presentation.max_relator_length}, got rho={rho}"
        )
    backend = realize_backend(presentation, max_cosets)
    cameron = cameron_permutoid(backend, rho)
    stats: dict = {
        "ground_size": cameron.permutoid.ground_size,
        "elements": len(cameron.permutoid.elements),
        "max_ground": max_ground,
        "node_budget": node_budget,
        "quotient_classes": 0,
        "searches_run": 0,
        "nodes_total": 0,
    }
    if cameron.permutoid.is_trivial:
        return ProbeReport(verdict="definitively-none", statistics=stats)

    quotients = enumerate_quotients(cameron.permutoid, nontrivial_only=True)
    quotients.sort(key=lambda qm: qm[0].ground_size)
    stats["quotient_classes"] = len(quotients)
    stats["skipped_too_large"] = 0

    for quotient, morphism in quotients:
        if quotient.ground_size > max_ground:
            stats["skipped_too_large"] += 1
            continue
        prob = DevelopmentProblem(quotient, max_ground, node_budget)
        verdict = search_development(prob)
        stats["searches_run"] += 1
        stats["nodes_total"] += verdict.nodes_explored
        if isinstance(verdict, Found):
            evidence = _chase_evidence(cameron, presentation, morphism, verdict.development)
            if not evidence.nontrivial:
                raise DevelopmentError(
                    "TrivialEvidence", "a development of a non-trivial quotient gave a trivial group"
                )
            return ProbeReport(
                verdict="found-quotient",
                evidence=evidence,
                quotient=quotient,
                quotient_morphism=morphism,
                development=verdict.development,
                statistics=stats,
            )
    return ProbeReport(verdict="inconclusive", statistics=stats)
