"""Coset enumeration over the trivial subgroup (HLT with lookahead).

Relators are read as given: each is a word of ``groups``, whose letter x
is table column x, 2g for generator g and 2g + 1 for its inverse, so
column x ^ 1 is the inverse of column x.

The strategy is fixed for determinism: relator scans in input order at each
live coset, cosets processed and defined first-in-first-out, lookahead when
the live-coset cap is hit, and a standardization pass at the end so equal
inputs give bit-identical tables.  When a lookahead frees cosets,
processing resumes at the coset where the cap stopped it: every live coset
before it has each relator scanned to completion and its row filled, and a
completed scan stays complete under coincidences.  Dead cosets keep their
rows until the standardization, which is the only renumbering and which
verifies the table it returns.  A relator whose trace from the coset being
closed is already defined and returns to it is passed over without a scan,
since the scan would change nothing.  The table is verified by composing
whole columns, one relator at a time over every coset at once.  That check
runs early, once, when every live row is full, and a table that passes is
returned then: the rows left would each pass over every relator and define
nothing (see ``enumerate_cosets``).  Relator letters are checked once, by
``read_relators``, which ``groups.Presentation`` shares.  Follows the
classical presentation in Holt, Eick & O'Brien, "Handbook of Computational
Group Theory", ch. 5.

Failure to close within the cap is reported as OutOfBounds and means
nothing more than "inconclusive at this bound".
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import OutOfBounds, ParseError, RelatorNotKilled, UsageError, require_int


def _verify(table: list[list[int | None]], relators: Sequence[Sequence[int]]):
    """Check that a table is complete and that every relator closes at
    every coset.

    Each relator is traced from every coset at once, as a composition of
    whole columns: the getter of column x takes the images so far to their
    images under x, so the getters run in reversed relator order.  When
    column x ^ 1 after column x is the identity, both are bijections and
    each is the other's checked inverse; a relator whose last letter has
    one closes at a coset exactly when its other letters compose to it
    there, in L - 2 getters, so the first coset where the two differ is
    the first the relator moves.  Any other relator is traced in full.
    The failure named is the least (coset, relator) over the relators that
    do not close, each at the first coset it moves.  A one-coset table
    passes once complete, since all its entries are 0.
    """
    for gamma, row in enumerate(table):
        if None in row:
            raise OutOfBounds(f"coset {gamma} has an undefined image", coset=gamma)
    if len(table) == 1:  # an itemgetter of one point returns a bare value
        return
    columns = list(zip(*table))
    getters = [itemgetter(*column) for column in columns]
    identity = tuple(range(len(table)))
    inverse: list = [None] * len(columns)
    for x in range(0, len(columns), 2):
        if getters[x](columns[x + 1]) == identity:
            inverse[x], inverse[x + 1] = columns[x + 1], columns[x]
    failures = []
    for r, rel in enumerate(relators):
        if len(rel) > 1 and inverse[rel[-1]] is not None:
            image, target = columns[rel[-2]], inverse[rel[-1]]
            for x in rel[-3::-1]:
                image = getters[x](image)
        else:
            image = target = identity
            for x in reversed(rel):
                image = getters[x](image)
        if image != target:
            failures.append((next(g for g in identity if image[g] != target[g]), r))
    if failures:
        gamma, r = min(failures)
        raise RelatorNotKilled(f"relator {r} does not close at coset {gamma}", relator=r, coset=gamma)


def read_relators(relators: Iterable[Iterable[int]], width: int) -> tuple[tuple[int, ...], ...]:
    """Read relators once, into tuples, and check their letters.

    Raises ParseError BadLetter on the first letter that is not an int (a
    bool is not one), and only then UnknownGenerator on the first letter
    outside ``range(width)``.
    """
    relators = tuple(map(tuple, relators))
    # types first: True == 1 and 1.0 == 1, so the value set would take them
    if not set(map(type, chain.from_iterable(relators))) <= {int}:
        x = next(x for x in chain.from_iterable(relators) if type(x) is not int)
        raise ParseError("BadLetter", f"letter {x!r} is not an int")
    if not set(chain.from_iterable(relators)) <= set(range(width)):
        x = next(x for x in chain.from_iterable(relators) if not 0 <= x < width)
        raise ParseError("UnknownGenerator", f"letter {x} out of range")
    return relators


def require_cap(max_cosets) -> None:
    """Raise UsageError unless the live-coset cap is an int >= 1."""
    require_int(max_cosets, "max_cosets")
    if max_cosets < 1:
        raise UsageError("max_cosets must be >= 1")


def enumerate_cosets(
    num_gens: int,
    relators: Iterable[Iterable[int]],
    max_cosets: int,
) -> list[list[int]]:
    """Run the enumeration; returns the completed coset table.

    Row gamma, column 2g is the action of generator g, column 2g+1 of its
    inverse.  Raises OutOfBounds when the table cannot be completed within
    ``max_cosets`` live cosets, or after 20 * max_cosets + 1000 coset
    definitions, and ParseError from ``read_relators``, as
    ``groups.Presentation`` does, on a relator letter that is not an int (a
    bool is not one) in ``range(2 * num_gens)``, after UsageError on a
    ``num_gens`` that is not an int >= 0.

    Early finish: ``full`` counts the leading rows that are dead or full;
    after each closed row it moves past every such row.  A row it has
    passed stays dead or full.  ``scan`` and ``define`` only fill entries.
    Call an entry active while its row is live, or dead with its
    processing in ``coincidence`` not yet past it; the pair of an active
    entry (``table[a][x] = b`` and ``table[b][x ^ 1] = a``) is active too.
    Processing the entry (gamma, x) = delta of a dying coset retires it
    and clears its pair, and leaves an active entry in letter x in the
    class of gamma (``table[mu][x]``, the pair of ``table[nu][x ^ 1]`` it
    merges with, or the one it sets) and one in letter x ^ 1 in the class
    of delta (the pair of ``table[mu][x]`` it merges with,
    ``table[nu][x ^ 1]``, or the one it sets).  Merges only join classes.
    When ``coincidence`` returns, the active entries of a class are its
    live row's, so a live row holds every letter its class held, and a
    full row stays full until its coset dies.

    So when ``full`` reaches the end, every live row is full, and the
    table is standardized and verified, once; if it passes it is returned,
    for every later close_row would pass over each relator, which closes,
    and find its row full, and dead rows are skipped, so the rest of the
    loop would change nothing, not even the definition count.  The
    standardization reads every entry through its root, so dead rows do
    not change what it returns.
    """
    require_int(num_gens, "num_gens")
    if num_gens < 0:
        raise UsageError("num_gens must be >= 0")
    require_cap(max_cosets)
    width = 2 * num_gens
    relators = read_relators(relators, width)
    max_definitions = 20 * max_cosets + 1000
    table: list[list[int | None]] = [[None] * width]
    p = [0]
    live = 1
    definitions = 0

    # -- union-find on coset numbers (merge keeps the smaller number) --------

    def rep(k: int) -> int:
        l = k
        while p[l] != l:
            l = p[l]
        while p[k] != l:
            p[k], k = l, p[k]
        return l

    def merge(k: int, lam: int, queue: deque):
        nonlocal live
        phi, psi = rep(k), rep(lam)
        if phi != psi:
            mu, nu = min(phi, psi), max(phi, psi)
            p[nu] = mu
            live -= 1
            queue.append(nu)

    def coincidence(alpha: int, beta: int):
        queue: deque = deque()
        merge(alpha, beta, queue)
        while queue:
            gamma = queue.popleft()
            for x in range(width):
                delta = table[gamma][x]
                if delta is None:
                    continue
                table[delta][x ^ 1] = None
                mu, nu = rep(gamma), rep(delta)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x], queue)
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1], queue)
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu

    def define(alpha: int, x: int) -> bool:
        """Add a coset as the image of alpha under column x; False when the
        live-coset cap stops the definition."""
        nonlocal live, definitions
        if live >= max_cosets:
            return False
        definitions += 1
        if definitions > max_definitions:
            raise OutOfBounds(
                f"abandoned after {definitions} coset definitions",
                definitions=definitions,
            )
        beta = len(table)
        p.append(beta)
        table.append([None] * width)
        live += 1
        table[alpha][x] = beta
        table[beta][x ^ 1] = alpha
        return True

    def scan(alpha: int, word: tuple[int, ...], fill: bool) -> bool:
        """Scan word at alpha, defining cosets when fill is set; False when
        the live-coset cap stops a definition."""
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return True
            while j >= i and table[b][word[j] ^ 1] is not None:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return True
            if i == j:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return True
            if not fill:
                return True
            if not define(f, word[i]):
                return False

    def close_row(alpha: int) -> bool:
        """Scan every relator at alpha, then fill its row; False when the
        live-coset cap stops a definition."""
        for rel in relators:
            # A relator whose trace from alpha is defined throughout and
            # returns to alpha already closes: its scan would run forward to
            # the end with f == b, defining nothing and merging nothing, so
            # skipping it leaves the table, p and every count as they were.
            f = alpha
            for x in rel:
                f = table[f][x]
                if f is None:
                    break
            if f == alpha:
                continue
            if not scan(alpha, rel, True):
                return False
            if p[alpha] != alpha:
                return True
        row = table[alpha]
        for x in range(width):
            if row[x] is None and not define(alpha, x):
                return False
        return True

    def standardize() -> list[list[int]]:
        """Renumber live cosets in breadth-first order of (coset, letter),
        and verify the table."""
        root = [rep(k) for k in range(len(table))]
        new_of = [-1] * len(table)
        new_of[0] = 0
        order = [0]
        for gamma in order:
            for beta in table[gamma]:
                beta = root[beta]
                if new_of[beta] < 0:
                    new_of[beta] = len(order)
                    order.append(beta)
        if len(order) != live:
            raise OutOfBounds(
                f"coset table has {live - len(order)} cosets unreachable from coset 0",
                unreachable=live - len(order),
            )
        renumber = [new_of[k] for k in root]
        standard = [[renumber[beta] for beta in table[gamma]] for gamma in order]
        _verify(standard, relators)
        return standard

    alpha = 0
    full = 0  # the leading rows, each dead or full
    refused = False  # whether an early finish was tried and refused
    while alpha < len(table):
        if p[alpha] == alpha and not close_row(alpha):
            for gamma in range(len(table)):
                for rel in relators:
                    if p[gamma] != gamma:
                        break
                    scan(gamma, rel, False)
            # the cap stopped a definition at live == max_cosets, so this
            # asks whether the lookahead freed any coset
            if live >= max_cosets:
                raise OutOfBounds(
                    f"coset enumeration exceeded {max_cosets} live cosets",
                    max_cosets=max_cosets,
                )
            continue  # resume at alpha, which the lookahead may have killed
        while full < len(table) and (p[full] != full or None not in table[full]):
            full += 1
        if full == len(table) and not refused:
            try:
                return standardize()
            except RelatorNotKilled:
                refused = True
        alpha += 1
    return standardize()
