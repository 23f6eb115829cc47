"""Desk-scale resource limits.

Defaults keep every automorphism group small enough for exact character
tables.  Overrides come from the OLIGOREP_LIMITS environment variable, a JSON
object such as

    OLIGOREP_LIMITS='{"max_base": {"graph": 5}, "subgroup_order": 1000}'

Unknown keys or classes, malformed JSON and limits that are not positive
integers raise InvalidLimits, a usage error, so typos fail loudly.

``get_limits`` is the one source of limits: no function takes them as an
argument, and each is read where it binds.  ``max_base`` is the default
base size of ``irrep_catalog``, ``enumerate_open_subgroups`` and
``catalog``.  ``subgroups_up_to_conjugacy`` refuses a group above
``subgroup_order``, and ``acceptance._subgroup_sweep`` probes one instead.
``character_table`` refuses a group above ``table_order`` before it builds
any element, ``base_table`` a new code's group before its elements form
the table key and a cached table on every lookup, and ``decompose_power``
a power whose hull groups may exceed it.  ``build_tree``
refuses a depth whose closed-form node count exceeds ``tree_nodes`` before
it builds a node; ``greedy_witness`` refuses a stage that could branch
more ways.  ``freeness_check`` refuses a word length whose ball of
2*3^n - 1 words exceeds ``ball_words`` before it builds a word.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .errors import InvalidLimits

ENV_VAR = "OLIGOREP_LIMITS"

DEFAULT_MAX_BASE = {
    "pure_set": 6,
    "linear_order": 6,
    "graph": 6,
    "vector_space": 4,
    "vector_space_q3": 3,
    "boolean_algebra": 3,
}


@dataclass
class RunLimits:
    max_base: dict = field(default_factory=lambda: dict(DEFAULT_MAX_BASE))
    subgroup_order: int = 2000
    table_order: int = 25000
    tree_nodes: int = 400000
    ball_words: int = 400000

    def base_limit(self, cls_id: str) -> int:
        return self.max_base[cls_id]


def _positive(name, value) -> int:
    if type(value) is not int or value < 1:
        raise InvalidLimits(
            f"{ENV_VAR}: {name} must be a positive integer, not {value!r}")
    return value


def get_limits() -> RunLimits:
    limits = RunLimits()
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return limits
    try:
        overrides = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidLimits(f"cannot parse {ENV_VAR}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise InvalidLimits(f"{ENV_VAR} must be a JSON object")
    for key, value in overrides.items():
        if key == "max_base":
            if not isinstance(value, dict):
                raise InvalidLimits(f"{ENV_VAR}: max_base must be an object")
            for cls_id, v in value.items():
                if cls_id not in DEFAULT_MAX_BASE:
                    raise InvalidLimits(
                        f"{ENV_VAR}: unknown class {cls_id!r} in max_base")
                limits.max_base[cls_id] = _positive(f"max_base.{cls_id}", v)
        elif key in ("subgroup_order", "table_order", "tree_nodes",
                     "ball_words"):
            setattr(limits, key, _positive(key, value))
        else:
            raise InvalidLimits(f"{ENV_VAR}: unknown limit {key!r}")
    return limits
