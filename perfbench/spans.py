"""Span recording around permutoid_lab's public functions.

The tracer replaces a function in every namespace of the package that binds
it, so calls made from inside the library (``validate_permutoid`` is bound in
core, groups, develop and pseudogroup) are recorded as well as the
benchmark's own.  Nothing under ``src/`` is edited: ``install`` patches the
loaded modules and ``uninstall`` puts the originals back.

Calls are recorded only inside a root span opened with ``root``, so gate
checks made between instances stay untraced.  Spans are kept in memory as
(name, start, end, parent) and self time is a span's duration minus the time
its child spans cover; children of one span never overlap because the
benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import cached_property

PACKAGE = "permutoid_lab"
ROOT = "bench.instance"


def _search_counts(c: Counter, verdict) -> None:
    kind = type(verdict).__name__
    c["develop.nodes"] += verdict.nodes_explored
    if kind == "Found":
        c["develop.nodes_found"] += verdict.nodes_explored
    elif kind == "ExhaustedUpTo":
        c["develop.nodes_refute"] += verdict.nodes_explored
    elif kind == "BudgetExceeded":
        c["develop.budget_hits"] += 1


def _rigid_counts(c: Counter, verdict) -> None:
    c["pseudogroup.rigid_nodes"] += verdict.nodes_explored


# (module, attribute, span name, counter hook run on the return value)
TARGETS = (
    ("coset", "enumerate_cosets", "coset.enumerate_cosets",
     lambda c, table: c.update({"coset.cosets": len(table)})),
    ("groups", "todd_coxeter", "groups.todd_coxeter", None),
    ("groups", "cayley_ball", "groups.cayley_ball",
     lambda c, ball: c.update({"groups.ball_points": ball.size})),
    ("groups", "cameron_permutoid", "groups.cameron_permutoid", None),
    ("groups", "universal_group", "groups.universal_group", None),
    ("groups", "verify_quotient_hom", "groups.verify_quotient_hom", None),
    ("core", "validate_permutoid", "core.validate_permutoid", None),
    ("core", "witness_triples", "core.witness_triples", None),
    ("core", "quotient_by_partition", "core.quotient_by_partition", None),
    ("core", "enumerate_quotients", "core.enumerate_quotients",
     lambda c, found: c.update({"core.quotient_classes": len(found)})),
    ("core", "canonical_form", "core.canonical_form", None),
    ("develop", "search_development", "develop.search_development", _search_counts),
    ("develop", "verify_development", "develop.verify_development", None),
    ("develop", "probe_finite_quotient", "develop.probe_finite_quotient", None),
    ("pseudogroup", "generate_pseudogroup", "pseudogroup.generate_pseudogroup",
     lambda c, H: c.update({"pseudogroup.maximal_total": len(H.maximal_elements)})),
    ("pseudogroup", "check_pseudogroup", "pseudogroup.check_pseudogroup", None),
    ("pseudogroup", "is_rigid_pseudogroup", "pseudogroup.is_rigid_pseudogroup", None),
    ("pseudogroup", "search_rigid_development", "pseudogroup.search_rigid_development", _rigid_counts),
    ("serialize", "probe_report_to_obj", "serialize.probe_report_to_obj", None),
    ("serialize", "canonical_json", "serialize.canonical_json",
     lambda c, text: c.update({"serialize.bytes": len(text.encode())})),
)
WITNESS_TABLE = "core.witness_table"  # Permutoid.witness_table, a cached property


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._undo: list = []

    # -- recording ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def root(self, name: str = ROOT):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            tracer.counters[name + ".calls"] += 1
            if hook is not None:
                hook(tracer.counters, result)
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()

    # -- patching ----------------------------------------------------------------

    def _modules(self):
        return [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        modules = self._modules()
        for mod_name, attr, span_name, hook in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            traced = self.wrap(span_name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._undo.append((mod, key, original))
        permutoid = sys.modules[f"{PACKAGE}.core"].Permutoid
        prop = permutoid.__dict__["witness_table"]
        traced_prop = cached_property(self.wrap(WITNESS_TABLE, prop.func))
        traced_prop.__set_name__(permutoid, "witness_table")
        setattr(permutoid, "witness_table", traced_prop)
        self._undo.append((permutoid, "witness_table", prop))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- analysis ----------------------------------------------------------------

    def problems(self, roots: int) -> str:
        """Why the recorded spans are not a well-formed trace of ``roots``
        instances, or an empty string.  Every span must be closed; the root
        spans, and only they, carry the root name; a span must lie inside
        its parent and start after its previous sibling has ended.  Together
        these keep every self time non-negative."""
        if self.stack:
            return f"{len(self.stack)} spans left open"
        last_end: dict[int, float] = {}  # parent index -> end of its latest child
        found_roots = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end is None or end < start:
                return f"span {i} ({name}) is not closed"
            if (parent < 0) != (name == ROOT):
                return f"span {i} ({name}) has parent {parent}"
            if parent >= i:
                return f"span {i} ({name}) comes before its parent {parent}"
            if parent >= 0 and not (self.spans[parent][1] <= start and end <= self.spans[parent][2]):
                return f"span {i} ({name}) is not inside its parent {parent}"
            if start < last_end.get(parent, float("-inf")):
                return f"span {i} ({name}) overlaps its previous sibling"
            last_end[parent] = end
            found_roots += parent < 0
        if found_roots != roots:
            return f"{found_roots} root spans for {roots} instances"
        return ""

    def root_total(self) -> float:
        """The summed duration of the root spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
