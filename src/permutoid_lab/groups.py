"""Marked groups, word-problem backends, and ball-based permutoids.

A word is a tuple of int letters: 2g is generator g and 2g + 1 its
inverse, so x ^ 1 is the inverse of letter x, and x is also the column of
coset tables and ball edges that multiplies by it.  A backend answers one
question: where does an element go when multiplied on the right by letter
x.  A finite group answers it by a lookup in its coset table over the
trivial subgroup, which coset enumeration returns and to which an explicit
multiplication table is reduced; a free group by appending to or
cancelling from a reduced word.  On top of that sit Cayley balls, which
keep only the handles, edges and parents their breadth-first search built,
the permutoids of left multiplications by ball elements, the
triangulation of a presentation, and the universal group of a permutoid.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from operator import countOf, itemgetter
from typing import Mapping, Sequence, Union

from . import coset
from .core import (
    Morphism,
    Permutoid,
    identity_map,
    validate_morphism,
    validate_permutoid,
    witness_triples,
)
from .errors import (
    ClosureCapExceeded,
    ParseError,
    PreconditionRadius,
    RelatorNotKilled,
    UsageError,
    require_int,
)

#: The default live-coset cap of coset enumeration.
MAX_COSETS = 10_000

#: The largest image subgroup ``verify_quotient_hom`` closes before it
#: raises ClosureCapExceeded.
CLOSURE_CAP = 10**6


def free_reduce(word: Sequence[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs until none remain.  Idempotent."""
    stack: list[int] = []
    for x in word:
        if stack and stack[-1] == x ^ 1:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class Presentation:
    """A finite group presentation.  Relators are words, stored freely
    reduced; relators that reduce to the empty word are dropped with a
    warning.  Each letter must be an int x with 0 <= x < 2 * len(generators)
    (2g for generator g, 2g + 1 for its inverse)."""

    generators: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.generators:
            raise ParseError("EmptyGeneratorList", "a presentation needs at least one generator")
        for name in self.generators:  # before the set, which a list name breaks
            if not isinstance(name, str):
                raise ParseError("BadGeneratorName", f"invalid generator name {name!r}")
        if len(set(self.generators)) != len(self.generators):
            raise ParseError("DuplicateGenerator", "generator names must be distinct")
        for name in self.generators:
            if not _NAME_RE.match(name):
                raise ParseError("BadGeneratorName", f"invalid generator name {name!r}")
        kept = []
        width = 2 * len(self.generators)
        for w in self.relators:
            for x in w:
                if type(x) is not int:
                    raise ParseError("BadLetter", f"letter {x!r} is not an int")
                if not 0 <= x < width:
                    raise ParseError("UnknownGenerator", f"letter {x} out of range")
            r = free_reduce(w)
            if not r:
                warnings.warn("dropping relator that freely reduces to the empty word")
                continue
            kept.append(r)
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(kept))

    @property
    def max_relator_length(self) -> int:
        return max(map(len, self.relators), default=0)


def _parse_term(term: str, gen_index: Mapping[str, int]) -> list[int]:
    name, caret, exponent = term.partition("^")
    if name not in gen_index:
        raise ParseError("UnknownGenerator", f"unknown generator {name!r}", token=term)
    if not caret:
        return [2 * gen_index[name]]
    try:
        k = int(exponent)
    except ValueError:
        raise ParseError("BadExponent", f"bad exponent in {term!r}", token=term) from None
    return [2 * gen_index[name] + (k < 0)] * abs(k)


def parse_presentation(text: str) -> Presentation:
    """Parse the line-oriented format::

        gens: a, b
        rels: a^2, b^3, a b a b

    Terms are generator names with optional integer exponents (negative
    allowed); relators are comma-separated words; the rels line may be
    absent.  Blank lines and lines starting with '#' are ignored.
    """
    generators: list[str] | None = None
    relator_chunks: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("gens:"):
            if generators is not None:
                raise ParseError("DuplicateGensLine", "more than one gens: line")
            generators = [t.strip() for t in line[len("gens:"):].split(",") if t.strip()]
        elif line.startswith("rels:"):
            relator_chunks.extend(
                c.strip() for c in line[len("rels:"):].split(",") if c.strip()
            )
        else:
            raise ParseError("BadLine", f"unrecognized line {line!r}")
    if not generators:
        raise ParseError("EmptyGeneratorList", "missing or empty gens: line")
    gen_index = {name: i for i, name in enumerate(generators)}
    relators = []
    for chunk in relator_chunks:
        letters: list[int] = []
        for term in chunk.split():
            letters.extend(_parse_term(term, gen_index))
        relators.append(tuple(letters))
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        return Presentation(tuple(generators), tuple(relators))


def render_word(word: Sequence[int], names: Sequence[str]) -> str:
    """Render with runs collapsed into powers; the empty word is "1"."""
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        x = word[i]
        j = i
        while j < len(word) and word[j] == x:
            j += 1
        k = i - j if x & 1 else j - i
        name = names[x >> 1]
        parts.append(name if k == 1 else f"{name}^{k}")
        i = j
    return " ".join(parts)


def format_presentation(p: Presentation) -> str:
    lines = ["gens: " + ", ".join(p.generators)]
    if p.relators:
        lines.append("rels: " + ", ".join(render_word(r, p.generators) for r in p.relators))
    return "\n".join(lines) + "\n"


# -- realized groups -----------------------------------------------------------

def _perm_compose(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    """(f compose g)(x) = f(g(x)): g is applied first.

    Every whole-permutation composition in the package goes through here,
    or through one ``itemgetter(*g)`` built once for a fixed g.
    ``itemgetter(*g)(f)`` looks up all of g's points in f at C speed: on
    CPython 3.11.7 it composes two degree-60 permutations in 0.85 us,
    against 1.33 us for ``tuple([f[x] for x in g])`` and 3.19 us for
    ``tuple(map(f.__getitem__, g))``; at degree 5 it takes 167 ns against
    284 ns.  An itemgetter of one point returns a bare value instead of a
    1-tuple, and one of no points cannot be built, so degrees 1 and 0 take
    the comprehension.
    """
    if len(g) > 1:
        return itemgetter(*g)(f)
    return tuple([f[x] for x in g])


def _is_permutation(perm: Sequence[int], points: set[int]) -> bool:
    """Whether perm lists every point of ``points`` exactly once, each as
    an int.

    ``points`` is ``set(range(degree))``, built once by the caller.  True ==
    1 and 1.0 == 1, so only the entries' types refuse ``bool`` and
    ``float`` points.  Both tests run at C speed, and together they cost
    about what ``sorted(perm) == list(range(degree))`` alone did.
    """
    return (
        len(perm) == len(points)
        and countOf(map(type, perm), int) == len(perm)
        and set(perm) == points
    )


def _generated_group(gens: Sequence[Sequence[int]], degree: int, cap: int) -> set | None:
    """The permutation group on ``degree`` points generated by ``gens``, or
    None when it has more than ``cap`` elements."""
    identity = tuple(range(degree))
    group = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = _perm_compose(x, g)
            if y not in group:
                if len(group) >= cap:
                    return None
                group.add(y)
                frontier.append(y)
    return group


@dataclass(frozen=True)
class RealizedGroup:
    """A finite group given by its coset table over the trivial subgroup.

    ``steps[h][x]`` is element h times letter x (column 2g is generator g,
    2g + 1 its inverse); element 0 is the identity.  Construction checks,
    exactly, that the rows share one even width, that every column is a
    permutation with int entries, that column 2g + 1 inverts column 2g, and
    that the group G of the generator columns acts regularly: a
    breadth-first search from 0 over them reaches all n points, and at
    every point alpha each generator column x composed after t[alpha] is
    t[alpha * x], where t[beta] composes the columns along the search
    tree's word to beta.  By Schreier's lemma the t[alpha * x]^-1 x t[alpha]
    generate the stabiliser of 0, which is then trivial, so G, transitive,
    is regular of order n.  Element j is t[j], the one member of G taking 0
    to j, and ``table[i][j]`` = i * j is t[j](i).  From coset enumeration
    this certifies a group of order n in which the relators hold, a
    quotient of the presented group; that it is the whole group rests on
    the enumeration.
    """

    steps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # tuples, so the checked table cannot change afterwards and the group hashes
        object.__setattr__(self, "steps", tuple(map(tuple, self.steps)))
        steps, n = self.steps, len(self.steps)
        if len(set(map(len, steps))) != 1 or len(steps[0]) % 2:
            raise UsageError("step table rows do not share one even width")
        columns = list(zip(*steps))
        points = set(range(n))
        for x, column in enumerate(columns):
            if not _is_permutation(column, points):
                raise UsageError(f"step column {x} is not a permutation")
        for x in range(1, len(columns), 2):
            if _perm_compose(columns[x - 1], columns[x]) != tuple(range(n)):
                raise UsageError(f"step column {x} is not the inverse of column {x - 1}")
        reached, _, broken = self._search(columns)
        if len(reached) != n:
            raise UsageError("generator images do not generate the group")
        if broken is not None:
            raise UsageError("the group does not act regularly: generator %d at element %d "
                             "gives a non-trivial Schreier generator" % (broken[1] >> 1, broken[0]))

    def _search(self, columns) -> tuple[list[int], list, tuple[int, int] | None]:
        """Breadth-first search from 0 over the generator columns: the points
        in the order reached, t, and the first (alpha, x) at which column x
        composed after t[alpha] is not t[alpha * x] (None if there is none)."""
        steps = self.steps
        t: list = [None] * len(steps)
        t[0] = tuple(range(len(steps)))
        reached = [0]
        broken = None
        for alpha in reached:
            row = steps[alpha]
            for x in range(0, len(columns), 2):
                moved = _perm_compose(columns[x], t[alpha])
                beta = row[x]
                if t[beta] is None:
                    t[beta] = moved
                    reached.append(beta)
                elif moved != t[beta] and broken is None:
                    broken = alpha, x
        return reached, t, broken

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """``table[i][j]`` is the product i * j: column j is t[j]."""
        return tuple(zip(*self._search(list(zip(*self.steps)))[1]))

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.table)

    @property
    def order(self) -> int:
        return len(self.steps)

    @property
    def num_generators(self) -> int:
        return len(self.steps[0]) // 2

    @property
    def generator_images(self) -> tuple[int, ...]:
        return self.steps[0][0::2]

    @property
    def identity_handle(self) -> int:
        return 0

    def step(self, h: int, x: int) -> int:
        """The element h times column x's letter (handles are element indices)."""
        return self.steps[h][x]


def group_from_table(order: int, table, generator_images) -> RealizedGroup:
    """Check an explicit multiplication table and reduce it to its steps.

    Element 0 is the identity; ``table[i][j]`` is the product i*j.  Every
    entry and generator image must be an int (``bool`` and ``float`` are
    refused), the table a Latin square with two-sided inverses, and
    (a*b)*c = a*(b*c) for every a and c and every b among the generator
    images and their inverses (Light's test, which compares row a*b with
    row a composed with row b through one ``itemgetter`` per b).  The b
    passing it are closed under products, so with :class:`RealizedGroup`'s
    generation check they prove the whole table associative, exactly and in
    O(n^2) per generator.  Row h of the steps is h*g, h*g^-1 per image g.
    """
    require_int(order, "order")
    n, table, images = order, tuple(map(tuple, table)), tuple(generator_images)
    if n < 1 or len(table) != n or any(len(row) != n for row in table):
        raise UsageError(f"multiplication table is not {n}x{n}")
    points = set(range(n))
    for i, column in enumerate(zip(*table)):
        if table[0][i] != i or table[i][0] != i:
            raise UsageError("element 0 is not an identity")
        if not _is_permutation(table[i], points):
            raise UsageError(f"row {i} is not a permutation")
        if set(column) != points:
            raise UsageError(f"column {i} is not a permutation")
    inverses = tuple(row.index(0) for row in table)
    for i, j in enumerate(inverses):
        if table[j][i] != 0:
            raise UsageError(f"element {i} has mismatched one-sided inverses")
    if any(not (type(g) is int and 0 <= g < n) for g in images):
        raise UsageError("generator image out of range")
    middles = sorted({h for g in images for h in (g, inverses[g])})
    # one getter per middle b takes row a to the row of a*(b*c) over c;
    # at n = 1 it would return a bare value, and the table is associative
    getters = [(b, itemgetter(*table[b])) for b in middles] if n > 1 else []
    for a in range(n):
        row = table[a]
        for b, getter in getters:
            # (a*b)*c and a*(b*c) for every c at once
            left, right = tuple(table[row[b]]), getter(row)
            if left != right:
                c = next(c for c in range(n) if left[c] != right[c])
                raise UsageError(f"associativity fails at ({a},{b},{c})")
    letters = [y for g in images for y in (g, inverses[g])]
    return RealizedGroup(tuple(tuple(row[y] for y in letters) for row in table))


@dataclass(frozen=True)
class FreeGroup:
    """Free group backend: handles are freely reduced words."""

    num_generators: int

    @property
    def identity_handle(self) -> tuple:
        return ()

    def step(self, h: tuple, x: int) -> tuple:
        """The reduced word h times letter x."""
        if h and h[-1] == x ^ 1:
            return h[:-1]
        return h + (x,)


Backend = Union[RealizedGroup, FreeGroup]


def todd_coxeter(p: Presentation, max_cosets: int) -> RealizedGroup:
    """Realize the group of a finite presentation by coset enumeration.

    Deterministic (HLT with lookahead, first-in-first-out coset definition
    order).  The standardized coset table, in which every relator closes at
    every coset, is the group's steps, and :class:`RealizedGroup` checks that
    they act regularly: a group of order n in which the relators hold.
    Raises OutOfBounds when enumeration does not complete within
    ``max_cosets`` live cosets -- which is never a proof of infiniteness.
    """
    return RealizedGroup(coset.enumerate_cosets(len(p.generators), p.relators, max_cosets))


def realize_backend(p: Presentation, max_cosets: int = MAX_COSETS) -> Backend:
    """Pick the word-problem backend for a presentation: reduced words when
    there are no relators, coset enumeration otherwise."""
    coset.require_cap(max_cosets)
    if not p.relators:
        return FreeGroup(len(p.generators))
    return todd_coxeter(p, max_cosets)


# -- Cayley balls ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CayleyBall:
    """The ball of a given radius in the word metric of a marked group.

    Elements are listed in breadth-first order, so positions with distance
    <= r form a prefix, and the ball of any smaller radius is a prefix of
    this one (see :func:`radius_extension`).  The ball keeps only what its
    search built: ``edges[i][x]`` is the position of element i times letter
    x, recorded for every element short of the radius, and ``parents[i] =
    (p, x)`` is the first edge that reached element i (None for the
    identity).  So element i lies one step further out than p, and a
    geodesic word for it is one for p plus letter x.
    """

    radius: int
    handles: tuple
    edges: tuple[tuple[int, ...], ...]
    parents: tuple[tuple[int, int] | None, ...]

    @property
    def size(self) -> int:
        return len(self.handles)

    def prefix_size(self, r: int) -> int:
        """Number of elements at distance <= r.  Past the first P_d, those
        within distance d, the elements at d + 1 are the run whose parents
        lie below P_d, since parents arrive in breadth-first order."""
        size = 0 if r < 0 else 1
        for _ in range(min(r, self.radius)):
            end = size
            while end < self.size and self.parents[end][0] < size:
                end += 1
            size = end
        return size


def cayley_ball(group: Backend, radius: int) -> CayleyBall:
    """Breadth-first closure of {1} under right multiplication by the
    generators and their inverses, one ``group.step`` per edge, expanding
    one distance at a time: those elements not yet given edges."""
    require_int(radius, "radius")
    if radius < 1:
        raise UsageError("radius must be >= 1")
    columns = range(2 * group.num_generators)
    handles = [group.identity_handle]
    index = {handles[0]: 0}
    parents: list = [None]
    edges = []
    for _ in range(radius):
        for i in range(len(edges), len(handles)):
            h = handles[i]
            row = []
            for x in columns:
                t = group.step(h, x)
                j = index.get(t)
                if j is None:
                    j = index[t] = len(handles)
                    handles.append(t)
                    parents.append((i, x))
                row.append(j)
            edges.append(tuple(row))
    return CayleyBall(radius, tuple(handles), tuple(edges), tuple(parents))


# -- ball permutoids -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CameronPermutoid:
    """The permutoid of left multiplications by inner-ball elements.

    The ground set is ``ball``, of radius 2*rho (indexed in breadth-first
    order), so rho is ``ball.radius // 2``; element i (for i < |inner
    ball|) is left multiplication by ball element i restricted to the inner
    ball, except element 0 which is the identity on the whole ground set.
    ``labels`` gives a geodesic word per element.
    """

    permutoid: Permutoid
    ball: CayleyBall
    labels: tuple[str, ...]

    def element_for_generator(self, g: int) -> int:
        """Index of the element that is left multiplication by generator g,
        which lies at distance 1 <= rho, so in the inner ball."""
        return self.ball.edges[0][2 * g]


def cameron_permutoid(group: Backend, rho: int) -> CameronPermutoid:
    """Build the radius-rho ball permutoid of a marked group.

    Row b lists b*x for the inner-ball elements x in ball order, read off
    the carrier ball's edges: x's geodesic word is its parent's plus one
    letter, so b*x = (b*parent(x)) * letter, and b*parent(x) lies within
    2*rho - 1 of the identity, where the ball has recorded its edges.

    The output always validates: left multiplication is cancellative, so a
    defined composition has the product as its unique extension when the
    product stays in the inner ball, and none otherwise.
    """
    require_int(rho, "rho")
    if rho < 1:
        raise UsageError("rho must be >= 1")
    ball = cayley_ball(group, 2 * rho)
    inner = ball.prefix_size(rho)
    edges, parents = ball.edges, ball.parents
    words: list[tuple[int, ...]] = [()]
    for p, letter in parents[1:inner]:
        words.append(words[p] + (letter,))
    names = ["a%d" % g for g in range(group.num_generators)]
    labels = tuple(render_word(w, names) for w in words)

    elements: list = [identity_map(ball.size)]
    for b in range(1, inner):
        row = [b]
        for x in range(1, inner):
            p, letter = parents[x]
            row.append(edges[row[p]][letter])
        elements.append(tuple(enumerate(row)))

    # element 0 is the identity, so it is the permutoid's identity index
    return CameronPermutoid(validate_permutoid(ball.size, elements), ball, labels)


def radius_extension(group: Backend, rho_small: int, rho_big: int) -> Morphism:
    """The extension of ball permutoids induced by growing the radius.

    Point i and element i of the small ball permutoid go to point i and
    element i of the big one, because a smaller Cayley ball is a prefix of
    a larger one.  Both breadth-first searches start from the identity and
    expand elements in list order, calling ``group.step`` on the same
    handle with the same columns in the same order, so they append the
    same handles and parents in the same order until the smaller search
    stops after expanding every element inside its radius.  Its list is
    then its whole ball, and the larger search only appends after that.
    Parents, so distances, agree on the prefix, so the inner balls, whose
    elements are the permutoids' elements, are prefixes too.
    :func:`validate_morphism` checks the result.
    """
    if not 0 < rho_small < rho_big:
        raise PreconditionRadius(
            f"need 0 < rho' < rho, got rho'={rho_small}, rho={rho_big}"
        )
    small = cameron_permutoid(group, rho_small)
    big = cameron_permutoid(group, rho_big)
    morphism = Morphism(
        small.permutoid,
        big.permutoid,
        tuple(range(small.ball.size)),
        tuple(range(len(small.permutoid.elements))),
    )
    validate_morphism(morphism)
    return morphism


def triangulate(p: Presentation, m: int, max_cosets: int = MAX_COSETS) -> Presentation:
    """Re-present the same group with one generator per ball element of
    radius m and all length-three relations among them.

    Requires m strictly greater than half the longest relator.  All
    length-three strings over the ball symbols and their inverses whose
    product is the identity are collected (not only freely reduced ones);
    they are stored reduced and deduplicated, which presents the same group.
    """
    if m < 1 or 2 * m <= p.max_relator_length:
        raise PreconditionRadius(
            f"need m > {p.max_relator_length}/2 and m >= 1, got m={m}"
        )
    group = todd_coxeter(p, max_cosets)
    ball = cayley_ball(group, m)
    names = tuple("b%d" % i for i in range(ball.size))
    table = group.table
    # (letter, element): letter 2i is ball element i and 2i + 1 its inverse
    signed = list(enumerate(y for h in ball.handles for y in (h, group.inverses[h])))
    relators = []
    seen = set()
    for x1, h1 in signed:
        for x2, h2 in signed:
            h12 = table[h1][h2]
            for x3, h3 in signed:
                if table[h12][h3] == 0:
                    w = free_reduce((x1, x2, x3))
                    if w and w not in seen:
                        seen.add(w)
                        relators.append(w)
    return Presentation(names, tuple(relators))


def universal_group(P: Permutoid) -> Presentation:
    """The group presented by one generator ``p<i>`` per element i and one
    relation p q = r per derived witness triple (identity triples included)."""
    relators = []
    seen = set()
    for i, j, k in witness_triples(P):
        w = free_reduce((2 * i, 2 * j, 2 * k + 1))
        if w and w not in seen:
            seen.add(w)
            relators.append(w)
    names = tuple("p%d" % i for i in range(len(P.elements)))
    return Presentation(names, tuple(relators))


# -- finite quotient evidence -----------------------------------------------------

@dataclass(frozen=True)
class FiniteQuotientEvidence:
    """Generator images in a finite symmetric group, with every relator
    checked to die and the generated subgroup's order computed by closure."""

    generators: tuple[str, ...]
    images: tuple[tuple[int, ...], ...]
    group_order: int

    @property
    def degree(self) -> int:
        """The points acted on; a presentation has at least one generator."""
        return len(self.images[0])

    @property
    def nontrivial(self) -> bool:
        return self.group_order > 1


def verify_quotient_hom(
    p: Presentation,
    images: Mapping[str, Sequence[int]],
) -> FiniteQuotientEvidence:
    """Certify that generator images define a homomorphism to a permutation
    group, and measure the image subgroup by closure (at most
    ``CLOSURE_CAP`` elements)."""
    missing = [g for g in p.generators if g not in images]
    if missing:
        raise UsageError(f"missing images for generators {missing}")
    degree = len(images[p.generators[0]])
    points = set(range(degree))
    perms: list[tuple[int, ...]] = []
    for name in p.generators:
        perm = tuple(images[name])
        if not _is_permutation(perm, points):
            raise UsageError(f"image of {name!r} is not a permutation of {degree} points")
        perms.append(perm)
    identity = tuple(range(degree))
    # rows[x] is the image of letter x: each generator's, then its inverse
    rows = []
    for perm in perms:
        inverse = [0] * degree
        for x, y in enumerate(perm):
            inverse[y] = x
        rows += [perm, tuple(inverse)]

    for ridx, rel in enumerate(p.relators):
        image = identity
        for x in rel:
            image = _perm_compose(image, rows[x])
        if image != identity:
            raise RelatorNotKilled(
                f"relator {render_word(rel, p.generators)} maps to a non-identity permutation",
                relator=ridx,
                word=render_word(rel, p.generators),
            )

    closure = _generated_group(perms, degree, CLOSURE_CAP)
    if closure is None:
        raise ClosureCapExceeded(f"subgroup closure exceeded cap {CLOSURE_CAP}")
    return FiniteQuotientEvidence(
        generators=p.generators,
        images=tuple(perms),
        group_order=len(closure),
    )
