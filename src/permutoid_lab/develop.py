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
from typing import Callable, Mapping, Union

from .core import Morphism, Permutoid, enumerate_quotients
from .errors import DevelopmentError, PreconditionRadius, UsageError, require_int
from .groups import (
    MAX_COSETS,
    CameronPermutoid,
    FiniteQuotientEvidence,
    Presentation,
    _is_permutation,
    _perm_compose,
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
        require_int(self.max_ground, "max_ground")
        if self.max_ground < self.source.ground_size:
            raise UsageError(
                f"max_ground {self.max_ground} below ground size {self.source.ground_size}"
            )
        _check_budget(self.node_budget)


def _check_budget(node_budget: int | None) -> None:
    """Raise UsageError unless the node budget is None or an int >= 0."""
    if node_budget is not None:
        require_int(node_budget, "node_budget")
        if node_budget < 0:
            raise UsageError(f"node_budget must be at least 0, got {node_budget}")


@dataclass(frozen=True)
class Development:
    """Full permutations of {0,...,ground_size-1}, one per source element;
    the source ground set embeds as the identity prefix."""

    ground_size: int
    maps: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Found:
    development: Development  # a RigidDevelopment for the rigid search
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


def _rules(P: Permutoid) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """The name of each of the 2k rows of the development search
    (``_first_certified``), and the forms filed under each.

    A witness triple (p, q, 1) makes f_p the inverse of f_q, so rows 2p and
    2q + 1 hold one map, and so do rows 2p + 1 and 2q.  Rows joined so, over
    all such triples, form a class named by its least row, and ``rules[x]``
    is the one list of the class of row x.  The joins run on a union-find
    forest whose links always point to the lesser row, so one relabelling
    pass in row order names every row by the root of its tree.  Every
    witness triple without the identity is filed in its six forms over
    those names, each distinct form once, in the order first filed.
    (1, q, q) and (p, 1, p) hold once the identity's row is full, and
    (p, q, 1) once its rows are shared.

    A form names its class of six.  Joins come in pairs, a with b and
    a ^ 1 with b ^ 1, so the name of row x fixes the class of row x ^ 1
    and so its name: P, the name of row 2p, determines P', that of row
    2p + 1.  The six forms are the orbit of one under rotation and
    inversion of f_p o f_q = f_r (``_first_certified`` lists them), so
    any one of them, read over names, yields the other five.  A triple
    whose first form (Q, P, R) is already filed adds nothing and is
    skipped before its six stores.

    Sharing keeps the least fixpoint and its conflicts, and so node counts
    and developments: with the identity's row full, the forms of (p, q, 1)
    make a cell of row 2p and the mirrored cell of row 2q + 1 derive each
    other in one step, so the two rows agree at every fixpoint, and two
    elements that set a shared cell or value apart meet a conflict that
    closure would reach.
    """
    one = P.identity_index
    names = list(range(2 * len(P.elements)))
    free = []
    for (p, q), r in P.witness_table.items():
        if r == one:  # join rows 2p and 2q + 1, and 2p + 1 and 2q
            p, q = 2 * p, 2 * q
            for a, b in ((p, q + 1), (p + 1, q)):
                while names[a] != a:
                    a = names[a]
                while names[b] != b:
                    b = names[b]
                if a < b:
                    names[b] = a
                else:
                    names[a] = b
        elif p != one and q != one:
            free.append((2 * p, 2 * q, 2 * r))  # the forward rows
    for x, parent in enumerate(names):  # parent <= x, so its name is final
        names[x] = names[parent]
    filed: dict[tuple[int, int, int], None] = {}
    for p, q, r in free:
        (p, p1), (q, q1), (r, r1) = names[p:p + 2], names[q:q + 2], names[r:r + 2]
        if (q, p, r) in filed:  # its class of six is filed
            continue
        filed[q, p, r] = filed[p, r1, q1] = filed[r, p1, q] = None
        filed[q1, r, p] = filed[p1, q1, r1] = filed[r1, q, p1] = None
    rules: list[list[tuple[int, int]]] = [[] for _ in names]
    for x, a, c in filed:
        rules[x].append((a, c))
    return names, [rules[n] for n in names]


def _first_certified(
    prob: DevelopmentProblem, certify: Callable[[Development], object]
) -> SearchVerdict:
    """Run the search over target sizes, smallest first, in the canonical
    backtracking order, and report the first development that ``certify``
    turns into a certificate (it returns None to skip a development).

    At each target size m, ``rows[2e]`` holds element e's permutation of
    the target and ``rows[2e + 1]`` its inverse, with -1 where a cell is
    unassigned, so the inverse of row x is row ``x ^ 1``; rows that
    ``_rules`` gives one name are one list.  Every list has m + 1 slots:
    the m points and, at index m, a sentinel slot that always holds -1.
    The sentinel is never a point.  No fact has it as a point or a value,
    so propagation never reads or writes it, and ``certify`` gets the maps
    cut to their first m slots.  It ends every search for a -1: from any
    y <= m, ``row.index(-1, y)`` is m exactly when the row has no
    unassigned cell from y on, so no search for a cell or a value raises
    or needs a test of its own.

    The start is built once, on the ground size n: the identity element is
    assigned on every point and each element on its own graph, and a cell
    or value that already holds another value, set by an element sharing
    the row, means no size has a development.  Only the graphs go on the
    trail, since no form is filed under the identity's row.  The search
    then branches on the first unassigned cell of the forward rows in
    (element, point) order and tries its free values in ascending order,
    so the first development found is the canonical one.  Every cell before
    the current one is assigned, so the scan for the next cell starts at
    the current cell, not at point 0, and moves to the next forward row
    when it reaches a sentinel; passing the last row's sentinel means the
    assignment is complete.  A frame's next value is the next -1 of the
    inverse row past the last value tried, and the sentinel there means
    every value has been tried.

    ``rules[x]`` lists a pair (a, c) for each form f_a o f_x = f_c filed
    under the name of row x (``_rules`` builds them).  A witness triple
    (p, q, r), f_p o f_q = f_r, is filed in six forms; with P, Q, R the
    names of rows 2p, 2q, 2r and P', Q', R' those of 2p + 1, 2q + 1, 2r + 1:

        under Q: (P, R)          under Q': (R, P)
        under P: (R', Q')        under P': (Q', R')
        under R: (P', Q)         under R': (Q, P')

    These are the triple and its five cyclic conjugates, each filed under
    the row of its middle element: (R, P) under Q' is (r, q^-1, p).  A
    fact f_x(i) = j is also the fact f_x^1(j) = i, and the forms under x and
    x^1 state the same equations, f_c(i) = f_a(j).  So a fact meets every
    instance of every filed triple that holds its element, whichever of its
    two rows it was recorded on.

    Every assignment (x, i, j) is appended to the trail, which is also the
    propagation queue.  One block of the loop closes the trail from
    ``head`` under the rules until it reaches the end: a fact f_x(i) = j
    and a form (a, c) under x give f_c(i) = f_a(j), and only the first
    direction that applies is run, since once it has fired, or found its
    cell already holding the value, the other holds as well.  The order in
    which facts are processed cannot change a node count: the rules only
    add facts implied by the facts present, so propagation from a
    consistent state either ends at the one least fixpoint or meets a
    conflict, whichever order it takes, and it meets a conflict exactly
    when that fixpoint assigns a cell or a value twice.

    The same block closes the start, before the first frame is pushed, and
    a conflict there also holds at every size: every fact of the closure
    lies on the ground set, since the rules read a row only at a point or
    a value of a fact, so the identity's cells past n are never read.  The
    loop runs over an explicit stack of frames ``[row 2e, point, last value
    tried, trail mark]``, so the search depth is not bounded by the
    interpreter's recursion limit.  A frame's mark is the trail's length
    when it was pushed, with every fact before it closed.  Each visit to a
    frame pops the trail down to its mark, which undoes the last value's
    assignments and costs nothing on a frame just pushed, finds the next
    free value afresh in row 2e + 1, so no frame holds a list of free
    values, assigns it and closes from the mark.  A complete assignment
    goes to ``certify``; when that returns None, the loop backtracks from
    it as from a conflict.  The node count is one local across all sizes,
    so every verdict counts the nodes visited before and after a skipped
    development.  A size that ends without a certificate has popped the
    trail back to the closed start, the bottom frame's mark.  The next size
    appends a -1 to every row list: the old sentinel slot becomes the new
    point's cell, free on every row but the identity's, which is assigned
    to the new point, and the appended slot is the new sentinel.  The
    search goes on from there.
    """
    P = prob.source
    names, rules = _rules(P)
    budget = prob.node_budget
    n = P.ground_size
    lists = {k: [-1] * (n + 1) for k in set(names)}
    rows = [lists[k] for k in names]
    # (1, 1, 1) makes the identity's row its inverse's; no form is filed under it
    identity = rows[2 * P.identity_index]
    identity[:n] = range(n)
    trail: list[tuple[int, int, int]] = []
    for e, el in enumerate(P.elements):
        row, inverse = rows[2 * e], rows[2 * e + 1]
        for i, j in el.pairs:
            if row[i] != j:  # not set by an element sharing the row
                if row[i] != -1 or inverse[j] != -1:
                    return ExhaustedUpTo(prob.max_ground, 0)
                row[i] = j
                inverse[j] = i
                trail.append((2 * e, i, j))
    nodes = head = 0
    stack: list[list[int]] = []
    for m in range(n, prob.max_ground + 1):
        x = y = 0
        while True:
            while head < len(trail):  # close the trail from head
                z, i, j = trail[head]
                head += 1
                for a, c in rules[z]:
                    w = rows[a][j]
                    if w != -1:  # f_c(i) = w
                        row = rows[c]
                        cur = row[i]
                        if cur != w:
                            if cur != -1 or rows[c ^ 1][w] != -1:
                                break
                            row[i] = w
                            rows[c ^ 1][w] = i
                            trail.append((c, i, w))
                    else:
                        w = rows[c][i]
                        if w != -1:  # f_a(j) = w, where f_a(j) was unassigned
                            if rows[a ^ 1][w] != -1:
                                break
                            rows[a][j] = w
                            rows[a ^ 1][w] = j
                            trail.append((a, j, w))
                else:
                    continue
                if not stack:  # a conflict in the start holds at every size
                    return ExhaustedUpTo(prob.max_ground, 0)
                break  # a conflict: backtrack
            else:  # closed, with every cell before (x, y) assigned
                for x in range(x, len(rows), 2):
                    y = rows[x].index(-1, y)
                    if y < m:
                        stack.append([x, y, -1, len(trail)])
                        break
                    y = 0
                else:
                    maps = tuple([tuple(row[:m]) for row in rows[::2]])  # cut off the sentinels
                    certificate = certify(Development(m, maps))
                    if certificate is not None:
                        return Found(certificate, nodes)
            while stack:  # the top frame's next value
                frame = stack[-1]
                x, y, last, mark = frame
                while len(trail) > mark:  # the last value's assignments
                    z, i, j = trail.pop()
                    rows[z][i] = -1
                    rows[z ^ 1][j] = -1
                v = rows[x ^ 1].index(-1, last + 1)
                if v < m:
                    break
                stack.pop()
            else:  # this size is exhausted, its trail popped to the closed start
                head = len(trail)
                break
            frame[2] = v
            nodes += 1
            if budget is not None and nodes > budget:
                return BudgetExceeded(nodes, m)
            # the cell is unassigned and v is free, so this cannot conflict
            rows[x][y] = v
            rows[x ^ 1][v] = y
            trail.append((x, y, v))
            head = mark
        for row in lists.values():  # the sentinel slot becomes the new point
            row.append(-1)
        identity[m] = m
    return ExhaustedUpTo(prob.max_ground, nodes)


def search_development(prob: DevelopmentProblem) -> SearchVerdict:
    """First development in the canonical order, or a bound verdict.

    ExhaustedUpTo means no development with at most max_ground points
    exists; BudgetExceeded only means the node budget ran out.
    """

    def verified(dev: Development) -> Development:
        verify_development(prob.source, dev)
        return dev

    return _first_certified(prob, verified)


def _as_permutations(maps, m: int) -> list[tuple[int, ...]]:
    """The maps as tuples, each checked to be a permutation of the m points
    with int entries; DevelopmentError("NotAPermutation") names the first
    that is not."""
    points = set(range(m))
    out = []
    for e, perm in enumerate(maps):
        perm = tuple(perm)
        if not _is_permutation(perm, points):
            raise DevelopmentError("NotAPermutation", f"map {e} is not a permutation", element=e)
        out.append(perm)
    return out


def _broken_triple(P: Permutoid, maps: list[tuple[int, ...]]) -> tuple[int, int, int] | None:
    """A witness triple (p, q, r) with f_p o f_q != f_r, or None when every
    equation holds, given maps that are permutations with the identity's
    map the identity.

    Each equation is composed at most once per class of its six forms
    (see ``_first_certified``), in three steps:

    - Every triple (p, q, 1) is composed.  Once it holds, f_q is the
      inverse of f_p and f_p that of f_q, so p and q have checked inverses.
    - (1, q, q) and (p, 1, p) hold, since f_1 is the identity.
    - Every other triple is composed unless it is marked implied.  When
      (p, q, r) holds and p, q and r have checked inverses p', q' and r',
      its five other forms (p', r, q), (r, q', p), (q, r', p'),
      (r', p, q') and (q', p', r') are marked: each is f_p o f_q = f_r
      rewritten with f_p' = f_p^-1, f_q' = f_q^-1 and f_r' = f_r^-1.

    Returns the first broken triple in table order: the first broken
    (p, q, 1) or, if earlier, the first broken triple of the last step,
    which is composed since a form marked implied holds.
    """
    one = P.identity_index
    identity = maps[one]
    inverse: dict[int, int] = {}  # element -> an element whose map is checked to be its inverse
    first = None  # the first broken (p, q, 1)
    rest = []
    for (p, q), r in P.witness_table.items():
        if r == one:
            if _perm_compose(maps[p], maps[q]) == identity:
                inverse[p], inverse[q] = q, p
            elif first is None:
                first = p, q, r
        elif p != one and q != one:
            rest.append((p, q, r))
    implied: set[tuple[int, int, int]] = set()
    for triple in rest:
        if triple in implied:
            continue
        p, q, r = triple
        if _perm_compose(maps[p], maps[q]) != maps[r]:
            return triple if first is None else min(first, triple)
        if p in inverse and q in inverse and r in inverse:
            p1, q1, r1 = inverse[p], inverse[q], inverse[r]
            implied.update(((p1, r, q), (r, q1, p), (q, r1, p1), (r1, p, q1), (q1, p1, r1)))
    return first


def verify_development(P: Permutoid, D: Development) -> None:
    """Re-derive every constraint from the graphs and check D against them,
    independently of the search engine.  Raises DevelopmentError.

    The clauses are checked in order: shape, permutations, the identity's
    map, extension of each element's graph, then f_p o f_q = f_r for every
    witness triple (p, q, r).  The last clause composes each equation once
    (``_broken_triple``): given checked inverses, the six forms of a
    triple, the triple and its five cyclic conjugates up to inversion, are
    equivalent equations, and the triples (1, q, q) and (p, 1, p) hold once
    f_1 is the identity.  CompositionBroken names the first broken triple
    in table order and its first broken point.
    """
    m = D.ground_size
    if type(m) is not int:
        raise DevelopmentError("WrongShape", f"ground size {m!r} is not an int")
    if m < P.ground_size:
        raise DevelopmentError("WrongShape", "target smaller than the source ground set")
    if len(D.maps) != len(P.elements):
        raise DevelopmentError("WrongShape", "one permutation per element required")
    maps = _as_permutations(D.maps, m)
    identity = tuple(range(m))
    if maps[P.identity_index] != identity:
        raise DevelopmentError("IdentityNotFull", "identity element must extend to the identity")
    for e, el in enumerate(P.elements):
        for x, y in el.pairs:
            if maps[e][x] != y:
                raise DevelopmentError(
                    "NotExtending",
                    f"map {e} does not extend its element at point {x}",
                    element=e,
                    point=x,
                )
    broken = _broken_triple(P, maps)
    if broken is None:
        return
    i, j, k = broken
    fp, fq, fr = maps[i], maps[j], maps[k]
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
    quotient_morphism: Morphism | None = None  # its target is the quotient developed
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


def probe_finite_quotient(
    presentation: Presentation,
    rho: int,
    max_ground: int,
    node_budget: int | None = None,
    max_cosets: int = MAX_COSETS,
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
    _check_budget(node_budget)
    require_int(rho, "rho")
    require_int(max_ground, "max_ground")
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
                quotient_morphism=morphism,
                development=verdict.development,
                statistics=stats,
            )
    return ProbeReport(verdict="inconclusive", statistics=stats)
