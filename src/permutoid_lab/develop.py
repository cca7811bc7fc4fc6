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


class _Csp:
    """Backtracking state for one target size.

    ``fwd[e]`` and ``inv[e]`` hold element e's permutation of the target and
    its inverse, with -1 where a cell is unassigned.  The identity element
    is assigned on every point and each element on its own graph before the
    first branch.  The search then branches on the first unassigned cell in
    (element, point) order and tries its free values in ascending order, so
    the first development found is the canonical one.

    Every assignment (e, y, v) is appended to the trail, which is also the
    propagation queue: ``_propagate`` runs the composition rules on
    ``trail[head:]`` until the head reaches the end, and ``_undo`` truncates
    the trail back to a mark.  The order in which facts are processed cannot
    change a node count: the rules only add facts implied by the facts
    present, so propagation from a consistent state either ends at the one
    least fixpoint or meets a conflict, whichever order it takes, and it
    meets a conflict exactly when that fixpoint assigns a cell or a value
    twice.

    ``_solve`` first propagates the assignments made on construction, and
    yields nothing if they conflict.  It keeps its branches on an explicit
    stack of frames ``[element, point, last value tried, trail mark]``.  A
    frame finds its next value afresh in ``inv[element]`` after undoing to
    its mark, so no frame holds a list of free values, and the search depth
    is not bounded by the interpreter's recursion limit.

    It files one triple per class of cyclic conjugates (``_filed_triples``,
    which proves that the least fixpoint and its conflicts, and so node
    counts and developments, are those of all witness triples).
    """

    def __init__(self, P: Permutoid, triples, m: int, counter: dict):
        self.counter = counter
        k = len(P.elements)
        self.fwd = [[-1] * m for _ in range(k)]
        self.inv = [[-1] * m for _ in range(k)]
        self.trail: list[tuple[int, int, int]] = []
        self.head = 0
        # each triple (p, q, r), f_p o f_q = f_r, under each element with the others
        self.by_left: list[list] = [[] for _ in range(k)]
        self.by_mid: list[list] = [[] for _ in range(k)]
        self.by_right: list[list] = [[] for _ in range(k)]
        one = P.identity_index
        for p, q, r in triples:
            self.by_left[p].append((q, r))
            self.by_mid[q].append((p, r))
            self.by_right[r].append((p, q))

        # each row gets one partial permutation, so these cannot clash
        for e, el in enumerate(P.elements):
            pairs = [(y, y) for y in range(m)] if e == one else el.pairs
            for x, y in pairs:
                self.fwd[e][x] = y
                self.inv[e][y] = x
                self.trail.append((e, x, y))

    def _propagate(self) -> bool:
        """Close the trail under the composition rules; False on a conflict.

        Of the two rules for each triple only the first that applies is
        run: once it has fired, or found its cell already holding the value,
        the second one holds as well.
        """
        fwd, inv, trail = self.fwd, self.inv, self.trail
        by_left, by_mid, by_right = self.by_left, self.by_mid, self.by_right
        head = self.head
        while head < len(trail):
            e, y, v = trail[head]
            head += 1
            for p, r in by_mid[e]:  # f_q(y) = v, so f_r(y) = f_p(v)
                w = fwd[p][v]
                if w != -1:
                    row = fwd[r]
                    cur = row[y]
                    if cur != w:
                        if cur != -1 or inv[r][w] != -1:
                            return False
                        row[y] = w
                        inv[r][w] = y
                        trail.append((r, y, w))
                else:
                    w = fwd[r][y]
                    if w != -1:
                        if inv[p][w] != -1:
                            return False
                        fwd[p][v] = w
                        inv[p][w] = v
                        trail.append((p, v, w))
            for q, r in by_left[e]:  # f_p(y) = v, so f_r(z) = v where f_q(z) = y
                z = inv[q][y]
                if z != -1:
                    row = fwd[r]
                    cur = row[z]
                    if cur != v:
                        if cur != -1 or inv[r][v] != -1:
                            return False
                        row[z] = v
                        inv[r][v] = z
                        trail.append((r, z, v))
                else:
                    z = inv[r][v]
                    if z != -1:
                        row = fwd[q]
                        if row[z] != -1:
                            return False
                        row[z] = y
                        inv[q][y] = z
                        trail.append((q, z, y))
            for p, q in by_right[e]:  # f_r(y) = v, so f_p(f_q(y)) = v
                z = fwd[q][y]
                if z != -1:
                    row = fwd[p]
                    cur = row[z]
                    if cur != v:
                        if cur != -1 or inv[p][v] != -1:
                            return False
                        row[z] = v
                        inv[p][v] = z
                        trail.append((p, z, v))
                else:
                    z = inv[p][v]
                    if z != -1:
                        if inv[q][z] != -1:
                            return False
                        fwd[q][y] = z
                        inv[q][z] = y
                        trail.append((q, y, z))
        self.head = head
        return True

    def _undo(self, mark: int):
        fwd, inv, trail = self.fwd, self.inv, self.trail
        for e, y, v in trail[mark:]:
            fwd[e][y] = -1
            inv[e][v] = -1
        del trail[mark:]
        self.head = mark

    def _next_cell(self, e: int, y: int) -> tuple[int, int] | None:
        """The first unassigned cell at or after (e, y); every cell before
        (e, y) is assigned."""
        fwd = self.fwd
        while e < len(fwd):
            row = fwd[e]
            if -1 in row:
                return e, row.index(-1, y)
            e += 1
            y = 0
        return None

    def _solve(self) -> Iterator[tuple[tuple[int, ...], ...]]:
        fwd, inv, trail = self.fwd, self.inv, self.trail
        counter = self.counter
        budget = counter["budget"]
        if not self._propagate():
            return
        cell = self._next_cell(0, 0)
        if cell is None:
            yield tuple(tuple(row) for row in fwd)
            return
        stack = [[*cell, -1, len(trail)]]
        while stack:
            frame = stack[-1]
            e, y, last, mark = frame
            self._undo(mark)  # the last value's assignments; none on a new frame
            try:
                v = inv[e].index(-1, last + 1)
            except ValueError:
                stack.pop()
                continue
            frame[2] = v
            counter["nodes"] += 1
            if budget is not None and counter["nodes"] > budget:
                raise _BudgetExhausted
            # the cell is unassigned and v is free, so this cannot conflict
            fwd[e][y] = v
            inv[e][v] = y
            trail.append((e, y, v))
            if not self._propagate():
                continue
            cell = self._next_cell(e, y)
            if cell is None:
                yield tuple(tuple(row) for row in fwd)
                continue
            stack.append([*cell, -1, len(trail)])


def _filed_triples(P: Permutoid, triples: list) -> list:
    """The witness triples whose rules ``_Csp`` runs.

    (1, q, q) and (p, 1, p) are left out: they hold once the identity's row
    is full, which it is before the first propagation.  Element q's link
    partner q' is any element with (q', q, 1) a witness triple; links are
    kept.  A triple (p, q, r) without the identity whose elements all have
    partners is dropped when one of its five other forms (r, q', p),
    (p', r, q), (q', p', r'), (r', p, q'), (q, r', p') is a witness triple
    that sorts before it.

    - Link lemma.  Because the identity row is full, one link makes
      (y, v) in f_q and (v, y) in f_q' derive each other in a single
      propagation step (by_mid[q] one way, by_left[q'] the other).
    - Induction on triple order.  An instance of (p, q, r) is the cells
      f_q(y) = v, f_p(v) = w, f_r(y) = w; a form has the same instances
      with some cells read through partners, as (r, q', p) reads f_q'(v) =
      y, f_r(y) = w, f_p(v) = w.  So every rule of a dropped form is a link
      step composed with a rule of a smaller witness form, whose rules hold
      at the filed fixpoint by induction, filed or dropped in turn.
    - Consequence.  The least fixpoint and its conflicts (a cell or value
      assigned twice) are those of all witness triples, and so are node
      counts, developments and bytes.  Only (q', q, 1) is used, so links
      need not be mutual.
    """
    one = P.identity_index
    filed = [t for t in triples if t[0] != one and t[1] != one]
    partner = {q: p for p, q, r in filed if r == one}
    linked = [t for t in filed if t[0] in partner and t[1] in partner and t[2] in partner]
    if not linked:
        return filed
    known, dropped = set(filed), set()
    for p, q, r in linked:
        p1, q1, r1 = partner[p], partner[q], partner[r]
        forms = ((r, q1, p), (p1, r, q), (q1, p1, r1), (r1, p, q1), (q, r1, p1))
        if any(f < (p, q, r) and f in known for f in forms):
            dropped.add((p, q, r))
    return [t for t in filed if t not in dropped]


def _first_certified(
    prob: DevelopmentProblem, certify: Callable[[Development], object]
) -> SearchVerdict:
    """Run the search over target sizes, smallest first, in the canonical
    backtracking order, and report the first development that ``certify``
    turns into a certificate (it returns None to skip a development)."""
    P = prob.source
    triples = _filed_triples(P, witness_triples(P))
    counter: dict = {"nodes": 0, "budget": prob.node_budget}
    try:
        for m in range(P.ground_size, prob.max_ground + 1):
            counter["size"] = m
            for maps in _Csp(P, triples, m, counter)._solve():
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
