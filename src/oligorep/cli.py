"""Command line interface.

One verb per capability: catalog, decompose, cosets, subgroups, kazhdan,
selftest.  Reports are deterministic for a fixed configuration and seed,
and are written atomically (temp file plus rename) when --out is given;
a file that cannot be written exits 1, its temp file removed.

Exit codes: 0 success, 1 usage or malformed input, 2 size limit exceeded,
3 mathematical invariant failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import random
import sys
from fractions import Fraction

from . import kazhdan, oligo
from .errors import InvariantViolation, OligorepError, SizeLimitExceeded
from .finstruct import get_class
from .limits import get_limits


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _text_lines(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in obj:
            value = obj[key]
            if isinstance(value, (dict, list)):
                yield f"{pad}{key}:"
                yield from _text_lines(value, indent + 1)
            else:
                yield f"{pad}{key}: {value}"
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                yield f"{pad}-"
                yield from _text_lines(value, indent + 1)
            else:
                yield f"{pad}- {value}"
    else:
        yield f"{pad}{obj}"


_CSV_ROWS = {"catalog": "labels", "decompose": "terms",
             "subgroups": "subgroups"}


def _render(report, command, fmt):
    report = json.loads(json.dumps(report, default=str))
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if fmt == "text":
        return "\n".join(_text_lines(report))
    rows_key = _CSV_ROWS.get(command)
    if rows_key is None:
        raise OligorepError(
            f"csv output is not available for {command!r}; use json or text")
    rows = report[rows_key]
    buf = io.StringIO()
    fields = sorted({k for row in rows for k in row})
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: json.dumps(v) if isinstance(v, (dict, list))
                         else v for k, v in row.items()})
    return buf.getvalue().rstrip("\n")


def _emit(text, out):
    if out is None:
        sys.stdout.write(text + "\n")
        return
    tmp = f"{out}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        os.replace(tmp, out)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise OligorepError(f"cannot write {out}: {exc.strerror}") from exc


def cmd_catalog(args):
    max_base = (args.max_base if args.max_base is not None
                else get_limits().base_limit(args.class_id))
    labels = oligo.irrep_catalog(args.class_id, max_base)
    return {
        "class": args.class_id,
        "max_base": max_base,
        "count": len(labels),
        "labels": [label.to_json() for label in labels],
    }


def cmd_decompose(args):
    # n itself, then the recursion's (n+1)-st power, is refused before any
    # power is formed
    recursion = None
    if args.n >= 1 and not args.x0:
        oligo.check_power(args.class_id, args.n)
        try:
            recursion = oligo.tensor_recursion_check(args.class_id, args.n)
        except SizeLimitExceeded as exc:
            # n + 1 is 2 to 9, as n passed the tuple length check
            nth = {2: "2nd", 3: "3rd"}.get(args.n + 1, f"{args.n + 1}th")
            raise SizeLimitExceeded(
                f"the recursion check of --n {args.n} forms the {nth} power: "
                f"{exc}; --x0 runs --n {args.n} without it") from exc
        if not recursion["ok"]:
            raise InvariantViolation(
                "tensor power recursion residuals are nonzero")
    decomposition = oligo.decompose_power(args.class_id, args.n,
                                          x0_only=args.x0)
    report = {
        "class": args.class_id,
        "n": args.n,
        "moving_part_only": bool(args.x0),
        "total_degree": decomposition.total_degree(),
        "terms": decomposition.to_json(),
    }
    if recursion is not None:
        report["recursion"] = recursion
    return report


def cmd_subgroups(args):
    max_base = args.max_base if args.max_base is not None else 2
    rows = [v.to_json()
            for v in oligo.enumerate_open_subgroups(args.class_id, max_base)]
    return {
        "class": args.class_id,
        "max_base": max_base,
        "count": len(rows),
        "subgroups": rows,
    }


def cmd_cosets(args):
    max_base = args.max_base if args.max_base is not None else 2
    rows = []
    for v in oligo.enumerate_open_subgroups(args.class_id, max_base):
        profile = oligo.double_coset_profile(v)
        finite = sum(n for config, n in profile.runs()
                     if oligo.finitely_many_left_cosets(v, config))
        rows.append({
            "subgroup": v.to_json(),
            "profile": profile.to_json(),
            "finite_left_classes": finite,
        })
    return {
        "class": args.class_id,
        "max_base": max_base,
        "count": len(rows),
        "pairs": rows,
    }


def cmd_kazhdan(args):
    for name in ("depth", "trials", "words", "degree"):
        value = getattr(args, name)
        if value is not None and value < 1:
            raise OligorepError(f"--{name} must be at least 1")
    cls = args.class_id
    relational = get_class(cls).relational
    report = {"class": cls, "seed": args.seed, "Q": [[1], [2]]}

    if args.words is not None:
        word_len = args.words
    else:
        word_len = 6 if relational else 4
    free = kazhdan.freeness_check(cls, word_len=word_len, seed=args.seed)
    report["freeness"] = {
        "word_len": free["word_len"],
        "words_checked": free["words_checked"],
        "points_checked": free["points_checked"],
        "pass": free["ok"],
    }

    if relational:
        depth = args.depth if args.depth is not None else 5
        tree = kazhdan.build_tree(cls, depth)
        verdict = tree.verify()
        report["tree"] = {
            "depth": depth,
            "node_count": verdict["node_count"],
            "level_sizes": verdict["level_sizes"],
            "conditions_ok": verdict["ok"],
        }
        if not verdict["ok"]:
            raise InvariantViolation("tree conditions failed verification")

        trials = args.trials if args.trials is not None else 200
        stages = len(tree.enumeration)
        rng = random.Random(args.seed)
        minimum = min(kazhdan.greedy_witness(cls, kazhdan.random_distribution(
            rng, range(stages)))["displacement"] for _ in range(trials))
        report["displacement_trials"] = {
            "count": trials,
            "min_value": minimum,
            "at_least_half": minimum >= Fraction(1, 2),
        }

    if cls == "linear_order":
        order = kazhdan.order_axioms_check(
            word_len=word_len,
            max_degree=args.degree if args.degree is not None else 10,
            trials=args.trials if args.trials is not None else 2000,
            seed=args.seed)
        report["order_axioms"] = order
        if not order["ok"]:
            raise InvariantViolation("order axioms failed on a sample")

    if cls == "graph":
        invariance = kazhdan.cayley_edge_invariance(
            seed=args.seed, trials=args.trials if args.trials is not None
            else 1000)
        extension = kazhdan.cayley_extension_check(r=4, t=2,
                                                   seeds=[args.seed])
        report["cayley"] = {
            "edge_invariance": invariance["ok"],
            "extension_rate": extension["mean_rate"],
            "configs": extension["per_seed"][0]["configs"],
            "radius": 4,
        }
    return report


def cmd_selftest(args):
    from . import acceptance
    results = acceptance.run_all()
    criteria = [{k: v for k, v in row.items() if k != "elapsed"}
                for row in results]
    report = {"criteria": criteria,
              "ok": all(row["passed"] for row in results)}
    return report


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argparse tree, built once per process: parsing leaves it as it
    was, so every ``main`` call shares it."""
    parser = _Parser(prog="oligorep")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, needs_class=True):
        p = sub.add_parser(name)
        if needs_class:
            p.add_argument("--class", dest="class_id", required=True)
        p.add_argument("--format", choices=("json", "text", "csv"),
                       default="json")
        p.add_argument("--out")
        p.set_defaults(func=func)
        return p

    p = add("catalog", cmd_catalog)
    p.add_argument("--max-base", type=int)

    p = add("decompose", cmd_decompose)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x0", action="store_true")

    p = add("subgroups", cmd_subgroups)
    p.add_argument("--max-base", type=int)

    p = add("cosets", cmd_cosets)
    p.add_argument("--max-base", type=int)

    p = add("kazhdan", cmd_kazhdan)
    p.add_argument("--depth", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--words", type=int)
    p.add_argument("--degree", type=int)
    p.add_argument("--seed", type=int, default=0)

    add("selftest", cmd_selftest, needs_class=False)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        get_limits()   # a malformed OLIGOREP_LIMITS exits 1 before any work
        if getattr(args, "class_id", None) is not None:
            get_class(args.class_id)
        report = args.func(args)
        _emit(_render(report, args.command, args.format), args.out)
    except (SizeLimitExceeded, MemoryError) as exc:
        print(f"oligorep: size limit: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"oligorep: invariant failure: {exc}", file=sys.stderr)
        return 3
    except (OligorepError, ValueError) as exc:
        print(f"oligorep: error: {exc}", file=sys.stderr)
        return 1
    if args.command == "selftest" and not report["ok"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
