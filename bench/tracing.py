"""Spans and counts around the public entry points of each oligorep layer.

``Tracer.install`` replaces each entry point by a wrapper wherever it is
looked up (the defining module, the modules that import it by name, and
the package), and ``uninstall`` puts the originals back.  The program's
sources are not touched, and an untraced run installs nothing.

A span is (id, name, start, end, parent).  Spans stay in memory until the
round ends and are then written out as JSON lines.  Entry points called
hundreds of thousands of times per round (``pair_coin``,
``magnus_compare``, ``finitely_many_left_cosets``) are leaves: each call
adds its time and count to the enclosing span and to a total, instead of
storing a span of its own, so the trace stays a few megabytes.

Self time is a span's duration minus the time of its direct children,
leaves included.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from oligorep import chartab, cli, finstruct, kazhdan, oligo, permgrp, words
import oligorep

# (owner, attribute, span name, also looked up in, leaf).  Spans with no
# metric of their own (coset actions, enumeration, catalogs) keep their
# time out of their callers' self time.
_TARGETS = (
    (permgrp.PermGroup, "__init__", "permgrp.chain", (), False),
    (permgrp.PermGroup, "elements", "permgrp.elements", (), False),
    (permgrp.PermGroup, "conjugacy_classes", "permgrp.classes", (), False),
    (permgrp.PermGroup, "subgroups_up_to_conjugacy", "permgrp.subgroups",
     (), False),
    (permgrp.CosetAction, "__init__", "permgrp.coset_action", (), False),
    (chartab, "character_table", "chartab.table", (oligo,), False),
    (chartab, "symmetric_character_table", "chartab.table", (oligo,), False),
    (chartab.CharacterTable, "perm_character", "chartab.decompose", (), False),
    (chartab.CharacterTable, "decompose", "chartab.decompose", (), False),
    (chartab.SymmetricCharacterTable, "perm_character", "chartab.decompose",
     (), False),
    (chartab.SymmetricCharacterTable, "decompose", "chartab.decompose",
     (), False),
    (finstruct.FraisseClass, "canonical", "finstruct.canonical", (), False),
    (finstruct.FraisseClass, "automorphisms", "finstruct.automorphisms",
     (), False),
    (finstruct.FraisseClass, "enumerate_tuple_types", "finstruct.tuple_types",
     (), False),
    (finstruct.FraisseClass, "enumerate_class", "finstruct.enumerate",
     (), False),
    (oligo, "irrep_catalog", "oligo.catalog", (oligorep,), False),
    (oligo, "base_table", "oligo.table_lookup", (), False),
    (oligo, "_atom_table", "oligo.table_lookup", (), False),
    (oligo, "enumerate_open_subgroups", "oligo.enumerate", (oligorep,), False),
    (oligo, "make_open_subgroup", "oligo.make_subgroup", (oligorep,), False),
    (oligo, "decompose_quasiregular", "oligo.quasiregular", (oligorep,),
     False),
    (oligo, "decompose_power", "oligo.power", (oligorep,), False),
    (oligo, "tensor_recursion_check", "oligo.power", (oligorep,), False),
    (oligo, "double_coset_profile", "oligo.profile", (oligorep,), False),
    (oligo, "finitely_many_left_cosets", "oligo.finiteness", (oligorep,),
     True),
    (kazhdan, "cayley_extension_check", "kazhdan.cayley", (oligorep,), False),
    (kazhdan, "cayley_edge_invariance", "kazhdan.cayley", (oligorep,), False),
    (kazhdan, "build_tree", "kazhdan.tree_build", (oligorep,), False),
    (kazhdan.KazhdanTree, "verify", "kazhdan.tree_verify", (), False),
    (kazhdan, "greedy_witness", "kazhdan.walk", (oligorep,), False),
    (kazhdan, "freeness_check", "kazhdan.freeness", (oligorep,), False),
    (kazhdan, "order_axioms_check", "kazhdan.order_axioms", (oligorep,),
     False),
    (words, "pair_coin", "words.pair_coin", (kazhdan,), True),
    (words, "magnus_compare", "words.magnus", (kazhdan,), True),
    (cli, "main", "cli.main", (), False),
)

# Per-layer metrics: name -> (unit, how it is computed from the trace).
PER_LAYER = {
    "permgrp.subgroups_s": ("s", "self", "permgrp.subgroups"),
    "permgrp.subgroup_classes": ("count", "count", "subgroup_classes"),
    "permgrp.classes_s": ("s", "self", "permgrp.classes"),
    "permgrp.elements_s": ("s", "self", "permgrp.elements"),
    "permgrp.chain_s": ("s", "self", "permgrp.chain"),
    "permgrp.groups_built": ("count", "calls", "permgrp.chain"),
    "chartab.table_s": ("s", "self", "chartab.table"),
    "chartab.tables_built": ("count", "calls", "chartab.table"),
    "chartab.decompose_s": ("s", "self", "chartab.decompose"),
    "finstruct.canonical_s": ("s", "self", "finstruct.canonical"),
    "finstruct.canonical_calls": ("count", "calls", "finstruct.canonical"),
    "finstruct.automorphisms_calls": ("count", "calls",
                                      "finstruct.automorphisms"),
    "finstruct.tuple_types_s": ("s", "self", "finstruct.tuple_types"),
    "oligo.profile_s": ("s", "self", "oligo.profile"),
    "oligo.double_cosets": ("count", "count", "double_cosets"),
    "oligo.finiteness_s": ("s", "self", "oligo.finiteness"),
    "oligo.quasiregular_s": ("s", "self", "oligo.quasiregular"),
    "oligo.power_s": ("s", "self", "oligo.power"),
    "oligo.table_lookups": ("count", "calls", "oligo.table_lookup"),
    "oligo.table_hit_ratio": ("ratio", "ratio", "table_hits"),
    "kazhdan.cayley_s": ("s", "self", "kazhdan.cayley"),
    "kazhdan.cayley_configs": ("count", "count", "cayley_configs"),
    "kazhdan.tree_build_s": ("s", "self", "kazhdan.tree_build"),
    "kazhdan.tree_verify_s": ("s", "self", "kazhdan.tree_verify"),
    "kazhdan.tree_nodes": ("count", "count", "tree_nodes"),
    "kazhdan.walk_s": ("s", "self", "kazhdan.walk"),
    "kazhdan.freeness_s": ("s", "self", "kazhdan.freeness"),
    "kazhdan.order_axioms_s": ("s", "self", "kazhdan.order_axioms"),
    "words.pair_coin_s": ("s", "self", "words.pair_coin"),
    "words.pair_coin_calls": ("count", "calls", "words.pair_coin"),
    "words.magnus_s": ("s", "self", "words.magnus"),
    "words.magnus_calls": ("count", "calls", "words.magnus"),
    "cli.self_s": ("s", "self", "cli.main"),
}


def _work_counts(name, result, counts):
    """Counts read off a wrapped call's result: the work it did."""
    if name == "permgrp.subgroups":
        counts["subgroup_classes"] += len(result)
    elif name == "oligo.profile":
        counts["double_cosets"] += result.count
    elif name == "kazhdan.cayley" and "per_seed" in result:
        counts["cayley_configs"] += sum(r["configs"] for r in result["per_seed"])
    elif name == "kazhdan.tree_build":
        counts["tree_nodes"] += result.node_count


class Tracer:
    """Collects spans, leaf totals and work counts for one round."""

    def __init__(self):
        self.spans = []            # [id, name, start, end, parent, child_s]
        self.calls = defaultdict(int)
        self.leaf_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    def _wrap(self, name, func, leaf):
        spans, stack, calls = self.spans, self._stack, self.calls
        leaf_s, counts, clock = self.leaf_s, self.counts, time.perf_counter

        if leaf:
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    took = clock() - start
                    calls[name] += 1
                    leaf_s[name] += took
                    if stack:
                        stack[-1][5] += took
            return wrapper

        lookup = name == "oligo.table_lookup"

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            # a table lookup hits when it adds nothing to the module cache
            tables = len(oligo._TABLES) if lookup else 0
            span = [len(spans), name, clock(), 0.0, parent, 0.0]
            spans.append(span)
            stack.append(span)
            try:
                result = func(*args, **kwargs)
                if lookup:
                    counts["table_hits"] += tables == len(oligo._TABLES)
                _work_counts(name, result, counts)
                return result
            finally:
                stack.pop()
                span[3] = clock()
                calls[name] += 1
                if stack:
                    stack[-1][5] += span[3] - span[2]
        return wrapper

    def install(self):
        for owner, attr, name, also, leaf in _TARGETS:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, leaf)
            for holder in (owner, *also):
                if getattr(holder, attr, None) is original:
                    self._saved.append((holder, attr, original))
                    setattr(holder, attr, wrapped)

    def uninstall(self):
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def self_times(self):
        out = defaultdict(float)
        for _, name, start, end, _, child in self.spans:
            out[name] += (end - start) - child
        for name, took in self.leaf_s.items():
            out[name] += took
        return out

    def metrics(self):
        """Every per-layer metric of the round, by name."""
        selfs = self.self_times()
        out = {}
        for metric, (unit, kind, key) in PER_LAYER.items():
            if kind == "self":
                value = selfs.get(key, 0.0)
            elif kind == "calls":
                value = self.calls.get(key, 0)
            elif kind == "count":
                value = self.counts.get(key, 0)
            else:
                lookups = self.calls.get("oligo.table_lookup", 0)
                value = self.counts["table_hits"] / lookups if lookups else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def layer_self_times(self):
        """Self time summed per module, for the printed table."""
        out = defaultdict(float)
        for name, took in self.self_times().items():
            out[name.split(".")[0]] += took
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, _ in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent}) + "\n")
            for name, took in sorted(self.leaf_s.items()):
                handle.write(json.dumps({"leaf": name, "calls": self.calls[name],
                                         "seconds": took}) + "\n")
