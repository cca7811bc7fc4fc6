"""Coset enumeration over the trivial subgroup (HLT with lookahead).

The strategy is fixed for determinism: relator scans in input order at each
live coset, cosets processed and defined first-in-first-out, lookahead when
the live-coset cap is hit, and a standardization pass at the end so equal
inputs give bit-identical tables.  When a lookahead frees cosets,
processing resumes at the coset where the cap stopped it: every live coset
before it has each relator scanned to completion and its row filled, and a
completed scan stays complete under coincidences.  Dead cosets keep their
rows until the standardization, which is the only renumbering.  Follows the
classical presentation in Holt, "Handbook of Computational Group Theory",
ch. 5.

Failure to close within the cap is reported as OutOfBounds and means
nothing more than "inconclusive at this bound".
"""

from __future__ import annotations

from collections import deque

from .errors import OutOfBounds, RelatorNotKilled, UsageError


def _verify(table: list[list[int | None]], relators: list[list[int]]):
    """Check that a table is complete and that every relator closes at
    every coset; relators are lists of table columns."""
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


def enumerate_cosets(
    num_gens: int,
    relators: list[list[tuple[int, int]]],
    max_cosets: int,
) -> list[list[int]]:
    """Run the enumeration; returns the completed coset table.

    Row gamma, column 2g is the action of generator g, column 2g+1 of its
    inverse.  Raises OutOfBounds when the table cannot be completed within
    ``max_cosets`` live cosets, or after 20 * max_cosets + 1000 coset
    definitions.
    """
    if max_cosets < 1:
        raise UsageError("max_cosets must be >= 1")
    width = 2 * num_gens
    relators = [[2 * g if s > 0 else 2 * g + 1 for g, s in rel] for rel in relators]
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

    def scan(alpha: int, word: list[int], fill: bool) -> bool:
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
            if not scan(alpha, rel, True):
                return False
            if p[alpha] != alpha:
                return True
        row = table[alpha]
        for x in range(width):
            if row[x] is None and not define(alpha, x):
                return False
        return True

    alpha = 0
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
        alpha += 1

    # standardize: renumber live cosets in breadth-first order of (coset, letter)
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
    standard = [[new_of[rep(beta)] for beta in table[gamma]] for gamma in order]
    _verify(standard, relators)
    return standard
