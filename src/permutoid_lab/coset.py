"""Coset enumeration over the trivial subgroup (HLT with lookahead).

The strategy is fixed for determinism: relator scans in input order at each
live coset, cosets processed and defined first-in-first-out, lookahead when
the live-coset cap is hit, and a standardization pass at the end so equal
inputs give bit-identical tables.  Follows the classical presentation in
Holt, "Handbook of Computational Group Theory", ch. 5.

Failure to close within the cap is reported as OutOfBounds and means
nothing more than "inconclusive at this bound".
"""

from __future__ import annotations

from collections import deque

from .errors import OutOfBounds, RelatorNotKilled, UsageError


class _TableFull(Exception):
    pass


class _Enumeration:
    def __init__(self, num_gens: int, relators: list[list[int]], max_cosets: int, max_definitions: int):
        self.width = 2 * num_gens
        self.relators = relators
        self.max_cosets = max_cosets
        self.max_definitions = max_definitions
        self.table: list[list[int | None]] = [[None] * self.width]
        self.p = [0]
        self.live = 1
        self.definitions = 0

    # -- union-find on coset numbers (merge keeps the smaller number) --------

    def rep(self, k: int) -> int:
        l = k
        p = self.p
        while p[l] != l:
            l = p[l]
        while p[k] != l:
            p[k], k = l, p[k]
        return l

    def merge(self, k: int, lam: int, queue: deque):
        phi, psi = self.rep(k), self.rep(lam)
        if phi != psi:
            mu, nu = min(phi, psi), max(phi, psi)
            self.p[nu] = mu
            self.live -= 1
            queue.append(nu)

    def coincidence(self, alpha: int, beta: int):
        queue: deque = deque()
        self.merge(alpha, beta, queue)
        table = self.table
        while queue:
            gamma = queue.popleft()
            for x in range(self.width):
                delta = table[gamma][x]
                if delta is None:
                    continue
                table[delta][x ^ 1] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if table[mu][x] is not None:
                    self.merge(nu, table[mu][x], queue)
                elif table[nu][x ^ 1] is not None:
                    self.merge(mu, table[nu][x ^ 1], queue)
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu

    def define(self, alpha: int, x: int):
        if self.live >= self.max_cosets:
            raise _TableFull
        self.definitions += 1
        if self.definitions > self.max_definitions:
            raise OutOfBounds(
                f"abandoned after {self.definitions} coset definitions",
                definitions=self.definitions,
            )
        beta = len(self.table)
        self.p.append(beta)
        self.table.append([None] * self.width)
        self.live += 1
        self.table[alpha][x] = beta
        self.table[beta][x ^ 1] = alpha

    def scan(self, alpha: int, word: list[int], fill: bool):
        table = self.table
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and table[b][word[j] ^ 1] is not None:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if i == j:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            if not fill:
                return
            self.define(f, word[i])

    def lookahead(self):
        for gamma in range(len(self.table)):
            if self.p[gamma] != gamma:
                continue
            for rel in self.relators:
                self.scan(gamma, rel, fill=False)
                if self.p[gamma] != gamma:
                    break

    def compress(self):
        new_of: dict[int, int] = {}
        for gamma in range(len(self.table)):
            if self.p[gamma] == gamma:
                new_of[gamma] = len(new_of)
        table = []
        for gamma in range(len(self.table)):
            if self.p[gamma] != gamma:
                continue
            table.append(
                [None if v is None else new_of[self.rep(v)] for v in self.table[gamma]]
            )
        self.table = table
        self.p = list(range(len(table)))

    def run(self):
        while True:
            alpha = 0
            restarted = False
            while alpha < len(self.table):
                if self.p[alpha] == alpha:
                    try:
                        for rel in self.relators:
                            self.scan(alpha, rel, fill=True)
                            if self.p[alpha] != alpha:
                                break
                        if self.p[alpha] == alpha:
                            for x in range(self.width):
                                if self.table[alpha][x] is None:
                                    self.define(alpha, x)
                    except _TableFull:
                        before = self.live
                        self.lookahead()
                        if self.live >= self.max_cosets or self.live >= before:
                            raise OutOfBounds(
                                f"coset enumeration exceeded {self.max_cosets} live cosets",
                                max_cosets=self.max_cosets,
                            ) from None
                        self.compress()
                        restarted = True
                        break
                alpha += 1
            if not restarted:
                break
        self.compress()
        self._standardize()
        self._verify()

    def _standardize(self):
        """Renumber cosets in breadth-first order of (coset, letter)."""
        n = len(self.table)
        new_of = {0: 0}
        order = [0]
        for gamma in order:
            for x in range(self.width):
                beta = self.table[gamma][x]
                if beta not in new_of:
                    new_of[beta] = len(new_of)
                    order.append(beta)
        if len(new_of) != n:
            raise OutOfBounds(
                f"coset table has {n - len(new_of)} cosets unreachable from coset 0",
                unreachable=n - len(new_of),
            )
        table = [[None] * self.width for _ in range(n)]
        for gamma in range(n):
            for x in range(self.width):
                table[new_of[gamma]][x] = new_of[self.table[gamma][x]]
        self.table = table

    def _verify(self):
        for gamma, row in enumerate(self.table):
            if None in row:
                raise OutOfBounds(f"coset {gamma} has an undefined image", coset=gamma)
        for gamma in range(len(self.table)):
            for r, rel in enumerate(self.relators):
                delta = gamma
                for x in rel:
                    delta = self.table[delta][x]
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
    a_relators = [
        [2 * g if s > 0 else 2 * g + 1 for g, s in rel] for rel in relators
    ]
    enum = _Enumeration(num_gens, a_relators, max_cosets, 20 * max_cosets + 1000)
    enum.run()
    return enum.table
