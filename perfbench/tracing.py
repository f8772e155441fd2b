"""Spans around calls into iqselmer's layers, recorded from outside the program.

The modules bind names with ``from .x import f``, so a wrapper replaces the
name in every iqselmer module namespace that holds the original function.
Methods (``ResidueField.chi``) are wrapped on the class.  ``sympy.factorint``
is wrapped on the ``sympy`` module, because iqselmer calls it through that
attribute.  A target missing from the program is skipped, and its metrics
read 0.
"""
from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter

# (metric prefix, module, attribute path) of every function given a span
SPANNED = (
    ("cli.main", "iqselmer.cli", "main"),
    ("descent.selmer_group", "iqselmer.descent", "selmer_group"),
    ("descent.closed_form_rank", "iqselmer.descent", "closed_form_rank"),
    ("localsolve.everywhere_verdicts", "iqselmer.localsolve", "everywhere_verdicts"),
    ("localsolve.bad_places", "iqselmer.localsolve", "bad_places"),
    ("localsolve.predicate_odd_place", "iqselmer.localsolve", "predicate_odd_place"),
    ("localsolve.predicate_two_adic", "iqselmer.localsolve", "predicate_two_adic"),
    ("localsolve.oracle_search", "iqselmer.localsolve", "oracle_search"),
    ("quadfield.splitting_type", "iqselmer.quadfield", "splitting_type"),
    ("quadfield.places_above", "iqselmer.quadfield", "places_above"),
    ("quadfield.val_unit", "iqselmer.quadfield", "val_unit"),
    ("quadfield.selmer_candidates", "iqselmer.quadfield", "selmer_candidates"),
    ("sympy.factorint", "sympy", "factorint"),
    ("charsums.ResidueField.chi", "iqselmer.charsums", "ResidueField.chi"),
    ("residue2adic.embed_mod32", "iqselmer.residue2adic", "embed_mod32"),
    ("congruent.congruent_verdict", "iqselmer.congruent", "congruent_verdict"),
    ("congruent.k_congruence", "iqselmer.congruent", "k_congruence"),
    ("par.pmap", "iqselmer._par", "pmap"),
)
RESIDUE_FIELD = ("iqselmer.charsums", "ResidueField")

# The per-layer metrics the benchmark reports, per timed command.  Times are
# reported only for spans that every workload reaches: a layer a workload
# never calls would read 0 s on every run.  The trace summary written next to
# the spans keeps calls, inclusive and self seconds of every span.
PER_LAYER = (
    ("cli.main.s", "s"),
    ("cli.self_s", "s"),
    ("descent.selmer_group.calls", "count"),
    ("descent.closed_form_rank.calls", "count"),
    ("localsolve.everywhere_verdicts.calls", "count"),
    ("localsolve.bad_places.calls", "count"),
    ("localsolve.predicate_odd_place.calls", "count"),
    ("localsolve.predicate_two_adic.calls", "count"),
    ("localsolve.oracle_search.calls", "count"),
    ("quadfield.splitting_type.calls", "count"),
    ("quadfield.splitting_type.s", "s"),
    ("quadfield.places_above.calls", "count"),
    ("quadfield.val_unit.calls", "count"),
    ("quadfield.selmer_candidates.calls", "count"),
    ("sympy.factorint.calls", "count"),
    ("sympy.factorint.s", "s"),
    ("charsums.ResidueField.chi.calls", "count"),
    ("charsums.ResidueField.elements.items", "count"),
    ("charsums.ResidueField.instances", "count"),
    ("residue2adic.embed_mod32.calls", "count"),
    ("congruent.congruent_verdict.calls", "count"),
    ("congruent.k_congruence.calls", "count"),
    ("par.pmap.calls", "count"),
)


class Tracer:
    """Keeps every span in memory: name, start, end, parent span and command."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.command: array = array("i")
        self.outermost: array = array("b")  # no enclosing span of the same name
        self.counts: dict[str, int] = {}
        self.current_command = -1
        self._stack: list[int] = []
        self._active: dict[int, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stack, active = self._stack, self._active
        name_id, start, end, parent, command, outermost = (
            self.name_id, self.start, self.end, self.parent, self.command, self.outermost,
        )

        def spanned(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            command.append(self.current_command)
            depth = active.get(nid, 0)
            outermost.append(depth == 0)
            active[nid] = depth + 1
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                active[nid] = depth

        spanned.__wrapped__ = fn
        return spanned

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for metric, modname, path in SPANNED:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            wrapped = self._span(metric, fn)
            if owner_name:
                self._set(owner, attr, wrapped)
                continue
            # every module namespace that bound the same function object
            for name, other in list(sys.modules.items()):
                if other is None or not (name == modname or name.startswith("iqselmer")):
                    continue
                for key, val in list(vars(other).items()):
                    if val is fn:
                        self._set(other, key, wrapped)
        mod = sys.modules.get(RESIDUE_FIELD[0])
        cls = getattr(mod, RESIDUE_FIELD[1], None) if mod is not None else None
        if cls is not None:
            self._count_residue_field(cls)

    def _count_residue_field(self, cls) -> None:
        counts = self.counts
        counts["charsums.ResidueField.instances"] = 0
        counts["charsums.ResidueField.elements.items"] = 0
        init, elements = cls.__init__, cls.elements

        def counted_init(obj, *args, **kwargs):
            counts["charsums.ResidueField.instances"] += 1
            init(obj, *args, **kwargs)

        def counted_elements(obj):
            n = 0
            try:
                for x in elements(obj):
                    n += 1
                    yield x
            finally:
                counts["charsums.ResidueField.elements.items"] += n

        self._set(cls, "__init__", counted_init)
        self._set(cls, "elements", counted_elements)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- aggregation ----------------------------------------------------

    def totals(self) -> dict[str, float]:
        """calls, inclusive seconds (.s) and self seconds (.self_s) per span name,
        plus <module>.self_s summed over a module's spans and the counters."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for metric, _, _ in SPANNED:
            out[f"{metric}.calls"] = 0
            out[f"{metric}.s"] = 0.0
            out[f"{metric}.self_s"] = 0.0
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            out[f"{name}.calls"] += 1
            if self.outermost[i]:
                out[f"{name}.s"] += dur
            out[f"{name}.self_s"] += dur - child[i]
        for metric, _, _ in SPANNED:
            module = metric.split(".")[0]
            out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + out[f"{metric}.self_s"]
        out.update(self.counts)
        return out

    def write(self, path: str, extra: dict) -> None:
        """Spans as columns, with the totals and whatever the caller adds."""
        doc = {
            "names": self.names,
            "spans": {
                "name": self.name_id.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "command": self.command.tolist(),
            },
            "totals": self.totals(),
            **extra,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
