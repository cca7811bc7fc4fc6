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
rows until the standardization, which is the only renumbering.  A relator
whose trace from the coset being closed is already defined and returns to
it is passed over without a scan, since the scan would change nothing.
The table is verified by composing whole columns, one relator at a time
over every coset at once.  That check runs early, once, when the table is
complete with no dead coset, and a table that passes is returned then: the
rows left would each pass over every relator and define nothing (see
``enumerate_cosets``).  Follows the classical presentation in Holt, Eick &
O'Brien, "Handbook of Computational Group Theory", ch. 5.

Failure to close within the cap is reported as OutOfBounds and means
nothing more than "inconclusive at this bound".
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from operator import itemgetter
from typing import Sequence

from .errors import OutOfBounds, ParseError, RelatorNotKilled, UsageError, require_int


def _verify(table: list[list[int | None]], relators: Sequence[Sequence[int]]):
    """Check that a table is complete and that every relator closes at
    every coset.

    Each relator is traced from every coset at once, as a composition of
    whole columns: the getter of column x takes the images so far to their
    images under x, so the getters run in reversed relator order.  The
    failure named is the least (coset, relator) over the relators that do
    not close, each at the first coset it moves.  A one-coset table passes
    once complete, since all its entries are 0.
    """
    for gamma, row in enumerate(table):
        if None in row:
            raise OutOfBounds(f"coset {gamma} has an undefined image", coset=gamma)
    if len(table) == 1:  # an itemgetter of one point returns a bare value
        return
    getters = [itemgetter(*column) for column in zip(*table)]
    identity = tuple(range(len(table)))
    failures = []
    for r, rel in enumerate(relators):
        image = identity
        for x in reversed(rel):
            image = getters[x](image)
        if image != identity:
            failures.append((next(g for g in identity if image[g] != g), r))
    if failures:
        gamma, r = min(failures)
        raise RelatorNotKilled(f"relator {r} does not close at coset {gamma}", relator=r, coset=gamma)


def require_cap(max_cosets) -> None:
    """Raise UsageError unless the live-coset cap is an int >= 1."""
    require_int(max_cosets, "max_cosets")
    if max_cosets < 1:
        raise UsageError("max_cosets must be >= 1")


def enumerate_cosets(
    num_gens: int,
    relators: Sequence[Sequence[int]],
    max_cosets: int,
) -> list[list[int]]:
    """Run the enumeration; returns the completed coset table.

    Row gamma, column 2g is the action of generator g, column 2g+1 of its
    inverse.  Raises OutOfBounds when the table cannot be completed within
    ``max_cosets`` live cosets, or after 20 * max_cosets + 1000 coset
    definitions, and ParseError, as ``groups.Presentation`` does, on a
    relator letter that is not an int (a bool is not one) in
    ``range(2 * num_gens)``.

    Early finish: while no coset has died, ``holes`` counts undefined
    entries.  When a closed row leaves no hole and no dead coset, the table
    is standardized and verified, once; if it passes it is returned, for
    every later close_row would pass over each relator, which closes, and
    find its row full, so the rest of the loop would change nothing, not
    even the definition count.
    """
    require_cap(max_cosets)
    width = 2 * num_gens
    # types first: True == 1 and 1.0 == 1, so the value set would take them
    if not set(map(type, chain.from_iterable(relators))) <= {int}:
        x = next(x for x in chain.from_iterable(relators) if type(x) is not int)
        raise ParseError("BadLetter", f"letter {x!r} is not an int")
    if not set(chain.from_iterable(relators)) <= set(range(width)):
        x = next(x for x in chain.from_iterable(relators) if not 0 <= x < width)
        raise ParseError("UnknownGenerator", f"letter {x} out of range")
    max_definitions = 20 * max_cosets + 1000
    table: list[list[int | None]] = [[None] * width]
    p = [0]
    live = 1
    definitions = 0
    holes = width  # undefined entries, counted while no coset has died

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
        nonlocal live, definitions, holes
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
        holes += width - 2
        table[alpha][x] = beta
        table[beta][x ^ 1] = alpha
        return True

    def scan(alpha: int, word: list[int], fill: bool) -> bool:
        """Scan word at alpha, defining cosets when fill is set; False when
        the live-coset cap stops a definition."""
        nonlocal holes
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
                holes -= 2
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
        """Renumber live cosets in breadth-first order of (coset, letter)."""
        new_of = {0: 0}
        order = [0]
        for gamma in order:
            for x in range(width):
                beta = rep(table[gamma][x])
                if beta not in new_of:
                    new_of[beta] = len(new_of)
                    order.append(beta)
        if len(new_of) != live:
            raise OutOfBounds(
                f"coset table has {live - len(new_of)} cosets unreachable from coset 0",
                unreachable=live - len(new_of),
            )
        return [[new_of[rep(beta)] for beta in table[gamma]] for gamma in order]

    alpha = 0
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
        if not holes and live == len(table) and not refused:
            # tried after a closed row, so a bad letter still fails its scan
            standard = standardize()
            try:
                _verify(standard, relators)
                return standard
            except RelatorNotKilled:
                refused = True
        alpha += 1

    standard = standardize()
    _verify(standard, relators)
    return standard
