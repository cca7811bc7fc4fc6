"""Marked groups, word-problem backends, and ball-based permutoids.

Three backends can answer "which short words are equal, and what are their
products": a finite group realized by coset enumeration, a free group using
reduced words, and an explicit multiplication table loaded from a file.  On
top of them sit Cayley balls, the permutoids of left multiplications by ball
elements, the triangulation of a presentation, and the universal group of a
permutoid.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import cached_property
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
    MorphismError,
    ParseError,
    PreconditionRadius,
    RelatorNotKilled,
    UsageError,
    ValidationError,
)

Letter = tuple[int, int]  # (generator index, sign)


@dataclass(frozen=True)
class Word:
    """A word in the generators: a tuple of (generator index, +1 or -1)."""

    letters: tuple[Letter, ...]

    @property
    def length(self) -> int:
        return len(self.letters)


def free_reduce(word: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain.  Idempotent."""
    stack: list[Letter] = []
    for g, s in word.letters:
        if stack and stack[-1][0] == g and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((g, s))
    return Word(tuple(stack))


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class Presentation:
    """A finite group presentation.  Relators are stored freely reduced;
    relators that reduce to the empty word are dropped with a warning."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        if not self.generators:
            raise ParseError("EmptyGeneratorList", "a presentation needs at least one generator")
        if len(set(self.generators)) != len(self.generators):
            raise ParseError("DuplicateGenerator", "generator names must be distinct")
        for name in self.generators:
            if not _NAME_RE.match(name):
                raise ParseError("BadGeneratorName", f"invalid generator name {name!r}")
        kept = []
        for w in self.relators:
            for g, _ in w.letters:
                if not (0 <= g < len(self.generators)):
                    raise ParseError("UnknownGenerator", f"letter index {g} out of range")
            r = free_reduce(w)
            if r.length == 0:
                warnings.warn("dropping relator that freely reduces to the empty word")
                continue
            kept.append(r)
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(kept))

    @property
    def max_relator_length(self) -> int:
        return max((r.length for r in self.relators), default=0)


def _parse_term(term: str, gen_index: Mapping[str, int]) -> list[Letter]:
    name, caret, exponent = term.partition("^")
    if name not in gen_index:
        raise ParseError("UnknownGenerator", f"unknown generator {name!r}", token=term)
    if not caret:
        return [(gen_index[name], 1)]
    try:
        k = int(exponent)
    except ValueError:
        raise ParseError("BadExponent", f"bad exponent in {term!r}", token=term) from None
    sign = 1 if k >= 0 else -1
    return [(gen_index[name], sign)] * abs(k)


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
        letters: list[Letter] = []
        for term in chunk.split():
            letters.extend(_parse_term(term, gen_index))
        relators.append(Word(tuple(letters)))
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        return Presentation(tuple(generators), tuple(relators))


def render_word(word: Word, names: Sequence[str]) -> str:
    """Render with runs collapsed into powers; the empty word is "1"."""
    if not word.letters:
        return "1"
    parts = []
    i = 0
    letters = word.letters
    while i < len(letters):
        g, s = letters[i]
        j = i
        while j < len(letters) and letters[j] == (g, s):
            j += 1
        k = s * (j - i)
        parts.append(names[g] if k == 1 else f"{names[g]}^{k}")
        i = j
    return " ".join(parts)


def format_presentation(p: Presentation) -> str:
    lines = ["gens: " + ", ".join(p.generators)]
    if p.relators:
        lines.append("rels: " + ", ".join(render_word(r, p.generators) for r in p.relators))
    return "\n".join(lines) + "\n"


# -- realized groups -----------------------------------------------------------

def _perm_compose(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    """(f compose g)(x) = f(g(x)): g is applied first."""
    return tuple([f[x] for x in g])


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
    """A finite group given by its full multiplication table.

    Element 0 is the identity; ``table[i][j]`` is the product i*j.
    Construction checks that the table is a Latin square with two-sided
    inverses, that (a*b)*c = a*(b*c) for every a and c and every b among
    the generator images and their inverses (Light's test), and that the
    generator images generate.  The elements b passing Light's test are
    closed under products, so together the last two checks prove the whole
    table associative, exactly and in O(n^2) per generator.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    generator_images: tuple[int, ...]

    def __post_init__(self):
        n = self.order
        if n < 1 or len(self.table) != n or any(len(row) != n for row in self.table):
            raise UsageError(f"multiplication table is not {n}x{n}")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise UsageError("element 0 is not an identity")
            if sorted(self.table[i]) != list(range(n)):
                raise UsageError(f"row {i} is not a permutation")
            if sorted(self.table[j][i] for j in range(n)) != list(range(n)):
                raise UsageError(f"column {i} is not a permutation")
        for i in range(n):
            j = self.table[i].index(0)
            if self.table[j][i] != 0:
                raise UsageError(f"element {i} has mismatched one-sided inverses")
        if any(not (0 <= g < n) for g in self.generator_images):
            raise UsageError("generator image out of range")
        table = self.table
        middles = sorted({h for g in self.generator_images for h in (g, self.inverses[g])})
        for a in range(n):
            row = table[a]
            for b in middles:
                # (a*b)*c and a*(b*c) for every c at once
                left, right = tuple(table[row[b]]), tuple(map(row.__getitem__, table[b]))
                if left != right:
                    c = next(c for c in range(n) if left[c] != right[c])
                    raise UsageError(f"associativity fails at ({a},{b},{c})")
        reached = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in self.generator_images:
                for y in (self.table[x][g], self.table[x][self.inverses[g]]):
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
        if len(reached) != n:
            raise UsageError("generator images do not generate the group")

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.table)

    # handle interface used by CayleyBall (handles are element indices)
    @property
    def identity_handle(self) -> int:
        return 0

    def handle_mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def handle_inv(self, a: int) -> int:
        return self.inverses[a]

    def generator_handle(self, g: int) -> int:
        return self.generator_images[g]


@dataclass(frozen=True)
class FreeGroup:
    """Free group backend: handles are freely reduced letter tuples."""

    num_generators: int

    @property
    def identity_handle(self) -> tuple:
        return ()

    def handle_mul(self, a: tuple, b: tuple) -> tuple:
        return free_reduce(Word(a + b)).letters

    def handle_inv(self, a: tuple) -> tuple:
        return tuple((g, -s) for g, s in reversed(a))

    def generator_handle(self, g: int) -> tuple:
        return ((g, 1),)


Backend = Union[RealizedGroup, FreeGroup]


def _num_generators(group: Backend) -> int:
    if isinstance(group, FreeGroup):
        return group.num_generators
    return len(group.generator_images)


def todd_coxeter(p: Presentation, max_cosets: int) -> RealizedGroup:
    """Realize the group of a finite presentation by coset enumeration.

    Deterministic (HLT with lookahead, first-in-first-out coset definition
    order).  The multiplication table is built column by column in scan
    order: the column of a coset is its parent's column moved by one table
    letter.  Raises OutOfBounds when enumeration does not complete within
    ``max_cosets`` live cosets -- which is never a proof of infiniteness.
    """
    table = coset.enumerate_cosets(
        len(p.generators), [list(r.letters) for r in p.relators], max_cosets
    )
    n = len(table)
    # cols[j][i] is the product i * j; coset j is first reached as alpha * x
    cols: list[list[int] | None] = [None] * n
    cols[0] = list(range(n))
    for alpha in range(n):
        for x in range(2 * len(p.generators)):
            beta = table[alpha][x]
            if cols[beta] is None:
                cols[beta] = [table[i][x] for i in cols[alpha]]
    mult = tuple(zip(*cols))
    images = tuple(table[0][2 * g] for g in range(len(p.generators)))
    return RealizedGroup(n, mult, images)


def realize_backend(p: Presentation, max_cosets: int = 10_000) -> Backend:
    """Pick the word-problem backend for a presentation: reduced words when
    there are no relators, coset enumeration otherwise."""
    if not p.relators:
        return FreeGroup(len(p.generators))
    return todd_coxeter(p, max_cosets)


# -- Cayley balls ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CayleyBall:
    """The ball of a given radius in the word metric of a marked group.

    Elements are listed in breadth-first order, so positions with distance
    <= r form a prefix; each element carries a geodesic representative word.
    """

    group: Backend
    radius: int
    handles: tuple
    words: tuple[Word, ...]
    distances: tuple[int, ...]

    @cached_property
    def index(self) -> dict:
        return {h: i for i, h in enumerate(self.handles)}

    @property
    def size(self) -> int:
        return len(self.handles)

    def prefix_size(self, r: int) -> int:
        """Number of elements at distance <= r."""
        count = 0
        for d in self.distances:
            if d > r:
                break
            count += 1
        return count

    def position(self, handle) -> int | None:
        return self.index.get(handle)

    def product_position(self, i: int, j: int) -> int | None:
        """Position of the product of elements i and j, None if outside."""
        return self.position(self.group.handle_mul(self.handles[i], self.handles[j]))

    def inverse_position(self, i: int) -> int:
        pos = self.position(self.group.handle_inv(self.handles[i]))
        if pos is None:
            raise UsageError(f"the inverse of ball element {i} is not in the ball")
        return pos


def cayley_ball(group: Backend, radius: int) -> CayleyBall:
    """Breadth-first closure of {1} under generator multiplication."""
    if radius < 1:
        raise UsageError("radius must be >= 1")
    k = _num_generators(group)
    start = group.identity_handle
    handles = [start]
    words: list[Word] = [Word(())]
    dist = [0]
    index = {start: 0}
    frontier = [0]
    for d in range(1, radius + 1):
        next_frontier = []
        for i in frontier:
            for g in range(k):
                for s in (1, -1):
                    h = group.handle_mul(
                        handles[i],
                        group.generator_handle(g) if s == 1 else group.handle_inv(group.generator_handle(g)),
                    )
                    if h not in index:
                        index[h] = len(handles)
                        handles.append(h)
                        words.append(Word(words[i].letters + ((g, s),)))
                        dist.append(d)
                        next_frontier.append(index[h])
        if not next_frontier:
            break
        frontier = next_frontier
    return CayleyBall(group, radius, tuple(handles), tuple(words), tuple(dist))


# -- ball permutoids -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CameronPermutoid:
    """The permutoid of left multiplications by inner-ball elements.

    The ground set is the ball of radius 2*rho (indexed in breadth-first
    order); element i (for i < |inner ball|) is left multiplication by ball
    element i restricted to the inner ball, except element 0 which is the
    identity on the whole ground set.  ``labels`` gives a geodesic word per
    element.
    """

    permutoid: Permutoid
    ball: CayleyBall
    rho: int
    labels: tuple[str, ...]

    def element_for_generator(self, g: int) -> int:
        """Index of the element that is left multiplication by generator g."""
        pos = self.ball.position(self.ball.group.generator_handle(g))
        if pos is None or pos >= len(self.permutoid.elements):
            raise UsageError(f"generator {g} is not an element of the ball permutoid")
        return pos


def cameron_permutoid(group: Backend, rho: int) -> CameronPermutoid:
    """Build the radius-rho ball permutoid of a marked group.

    The output always validates: left multiplication is cancellative, so a
    defined composition has the product as its unique extension when the
    product stays in the inner ball, and none otherwise.
    """
    if rho < 1:
        raise UsageError("rho must be >= 1")
    ball = cayley_ball(group, 2 * rho)
    inner = ball.prefix_size(rho)
    ground = ball.size
    names = ["a%d" % g for g in range(_num_generators(group))]

    elements: list = [identity_map(ground)]
    labels = [render_word(ball.words[0], names)]
    for b in range(1, inner):
        pairs = []
        for x in range(inner):
            y = ball.product_position(b, x)
            if y is None:
                raise UsageError(
                    f"product of inner-ball elements {b} and {x} left the carrier ball"
                )
            pairs.append((x, y))
        elements.append(tuple(pairs))
        labels.append(render_word(ball.words[b], names))

    permutoid = validate_permutoid(ground, elements)
    if permutoid.identity_index != 0:
        raise ValidationError("MissingIdentity", "element 0 of a ball permutoid must be the identity")
    return CameronPermutoid(permutoid, ball, rho, tuple(labels))


def radius_extension(group: Backend, rho_small: int, rho_big: int) -> Morphism:
    """The extension of ball permutoids induced by growing the radius."""
    if not 0 < rho_small < rho_big:
        raise PreconditionRadius(
            f"need 0 < rho' < rho, got rho'={rho_small}, rho={rho_big}"
        )
    small = cameron_permutoid(group, rho_small)
    big = cameron_permutoid(group, rho_big)
    point_map = []
    for h in small.ball.handles:
        pos = big.ball.position(h)
        if pos is None:
            raise MorphismError("BadPointMap", "a point of the small ball is missing from the big ball")
        point_map.append(pos)
    element_map = []
    for i in range(len(small.permutoid.elements)):
        pos = big.ball.position(small.ball.handles[i])
        if pos is None or pos >= len(big.permutoid.elements):
            raise MorphismError(
                "BadElementMap", f"element {i} of the small ball permutoid has no image", element=i
            )
        element_map.append(pos)
    morphism = Morphism(small.permutoid, big.permutoid, tuple(point_map), tuple(element_map))
    if not validate_morphism(morphism).is_extension:
        raise MorphismError("NotAnExtension", "the radius inclusion is not an extension")
    return morphism


def triangulate(p: Presentation, m: int, max_cosets: int = 10_000) -> Presentation:
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
    size = ball.size
    names = tuple("b%d" % i for i in range(size))
    signed = []
    for i in range(size):
        signed.append((i, 1, ball.handles[i]))
        signed.append((i, -1, group.handle_inv(ball.handles[i])))
    relators = []
    seen = set()
    for i1, s1, h1 in signed:
        for i2, s2, h2 in signed:
            h12 = group.handle_mul(h1, h2)
            for i3, s3, h3 in signed:
                if group.handle_mul(h12, h3) == group.identity_handle:
                    w = free_reduce(Word(((i1, s1), (i2, s2), (i3, s3))))
                    if w.letters and w.letters not in seen:
                        seen.add(w.letters)
                        relators.append(w)
    return Presentation(names, tuple(relators))


def universal_group(P: Permutoid) -> Presentation:
    """The group presented by one generator ``p<i>`` per element i and one
    relation p q = r per derived witness triple (identity triples included)."""
    relators = []
    seen = set()
    for i, j, k in witness_triples(P):
        w = free_reduce(Word(((i, 1), (j, 1), (k, -1))))
        if w.letters and w.letters not in seen:
            seen.add(w.letters)
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
    degree: int
    group_order: int

    @property
    def nontrivial(self) -> bool:
        return self.group_order > 1


def verify_quotient_hom(
    p: Presentation,
    images: Mapping[str, Sequence[int]],
    closure_cap: int = 10**6,
) -> FiniteQuotientEvidence:
    """Certify that generator images define a homomorphism to a permutation
    group, and measure the image subgroup by closure."""
    missing = [g for g in p.generators if g not in images]
    if missing:
        raise UsageError(f"missing images for generators {missing}")
    degree = len(images[p.generators[0]])
    perms: list[tuple[int, ...]] = []
    for name in p.generators:
        perm = tuple(images[name])
        if len(perm) != degree or sorted(perm) != list(range(degree)):
            raise UsageError(f"image of {name!r} is not a permutation of {degree} points")
        perms.append(perm)
    identity = tuple(range(degree))
    inverses = []
    for perm in perms:
        inverse = [0] * degree
        for x, y in enumerate(perm):
            inverse[y] = x
        inverses.append(tuple(inverse))

    for ridx, rel in enumerate(p.relators):
        image = identity
        for g, s in rel.letters:
            image = _perm_compose(image, perms[g] if s > 0 else inverses[g])
        if image != identity:
            raise RelatorNotKilled(
                f"relator {render_word(rel, p.generators)} maps to a non-identity permutation",
                relator=ridx,
                word=render_word(rel, p.generators),
            )

    closure = _generated_group(perms, degree, closure_cap)
    if closure is None:
        raise ClosureCapExceeded(f"subgroup closure exceeded cap {closure_cap}")
    return FiniteQuotientEvidence(
        generators=p.generators,
        images=tuple(perms),
        degree=degree,
        group_order=len(closure),
    )
