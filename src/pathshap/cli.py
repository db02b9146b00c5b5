"""Command-line front end.

Commands: ``eval`` (Boolean answer of a bound query), ``answers`` (full
answer enumeration), ``shapley`` (contribution report), ``nonzero``
(positivity verdict for one player).  Output is deterministic for identical
inputs, flags and seed.

Exit codes: 0 success, 2 parse/validation error, 3 answer enumeration
overflow, 4 multiplicative approximation requested for an infinite language,
5 search budget exhausted or sampler trial cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

from . import explain, query as query_mod
from .errors import (
    BudgetExceeded,
    EnumerationOverflow,
    InfiniteLanguage,
    PathShapError,
)
from .explain import ExplainRequest
from .game import ShapleyReport
from .graph import load_graph


def _count(text: str) -> int:
    """An option's value that counts something: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pathshap")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("eval", "answers", "shapley", "nonzero"):
        c = sub.add_parser(name)
        c.add_argument("--graph", required=True, help="graph file path")
        c.add_argument("--query", required=True, help="query text")
        if name != "answers":
            c.add_argument("--bind", required=True, help="variable binding, e.g. x=v1,y=v6")
        if name in ("shapley", "nonzero"):
            c.add_argument("--player-kind", choices=("edge", "vertex"), default="edge")
            c.add_argument("--focus", default=None, help="restrict to one player id")
        if name == "shapley":
            c.add_argument(
                "--mode",
                choices=("auto", "exact", "approx-additive", "approx-multiplicative"),
                default="auto",
            )
            c.add_argument("--eps", type=float, default=0.05)
            c.add_argument("--delta", type=float, default=0.01)
            c.add_argument("--seed", type=_count, default=0)
            c.add_argument("--format", choices=("json", "csv", "table"), default="table")
        if name == "answers":
            c.add_argument("--cap", type=_count, default=None,
                           help="most answers (and intermediate join rows) to list")
        if name == "nonzero":
            c.add_argument("--budget", type=_count, default=None, help="lineage search steps")
    return p


def _load_inputs(args, need_binding: bool):
    g = load_graph(Path(args.graph).read_text())
    q = query_mod.compile_crpq(args.query, g.alphabet)
    mu = query_mod.parse_binding(args.bind, q) if need_binding else None
    return g, q, mu


def _ranked(report: ShapleyReport) -> list[tuple]:
    """The report's (player, value) pairs by descending value, then id.
    The sort keys are exact integers, each value times the lcm of the
    values' denominators, so no Fraction is built or compared."""
    exact = [v if isinstance(v, Fraction) else v.value for v in report.values.values()]
    scale = math.lcm(*{v.denominator for v in exact})
    keys = [(-v.numerator * (scale // v.denominator), p) for p, v in zip(report.values, exact)]
    return [item for _, item in sorted(zip(keys, report.values.items()))]


def _write_json(report: ShapleyReport, ranked: list[tuple], out) -> None:
    """The report as ``json.dumps(payload, indent=2, sort_keys=True)``
    writes it, emitted row by row: that call never takes the C encoder,
    which runs only without ``indent``, and builds the whole text first.
    Strings are escaped by the stdlib's ``encode_basestring_ascii`` and
    numbers written by their ``repr``, as the encoder does for ints and
    finite floats."""
    flags = "[\n    " + ",\n    ".join(map(_string, report.flags)) + "\n  ]" if report.flags else "[]"
    out.write(f'{{\n  "flags": {flags},\n  "method": {_string(report.method)},\n  "players": [')
    texts: dict[int, str] = {}  # by the id of a value: players often share one Fraction
    separator = "\n    "
    for player, value in ranked:
        if isinstance(value, Fraction):
            text = texts.get(id(value))
            if text is None:
                text = texts[id(value)] = _string(str(value))
            out.write(f'{separator}{{\n      "id": {_string(player)},\n      "value": {text}\n    }}')
        else:
            out.write(
                f'{separator}{{\n      "delta": {value.delta!r},\n      "eps": {value.eps!r},\n'
                f'      "id": {_string(player)},\n      "samples": {value.samples!r},\n'
                f'      "seed": {value.seed!r},\n      "value": {float(value.value)!r}\n    }}')
        separator = ",\n    "
    out.write("\n  ]\n}\n" if ranked else "]\n}\n")


def _render_report(report: ShapleyReport, fmt: str, out) -> None:
    ranked = _ranked(report)
    if fmt == "json":
        _write_json(report, ranked, out)
        return
    rows = [_cells(player, value, report.method) for player, value in ranked]
    columns = ["id", "value", "method", "eps", "delta", "samples", "seed"]
    if all(len(row) == 3 for row in rows):
        columns = columns[:3]
    if fmt == "csv":
        import csv  # here, not at the top: most requests never write csv, and a process pays its import

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row + [""] * (len(columns) - len(row)))
        for flag in report.flags:
            writer.writerow(["# " + flag])
        return
    out.write("\t".join(columns) + "\n")
    for row in rows:
        out.write("\t".join(map(str, row + ["-"] * (len(columns) - len(row)))) + "\n")
    for flag in report.flags:
        out.write(f"# {flag}\n")


def _cells(player: str, value, method: str) -> list:
    """A csv or table row: id, value and method, then a sampled value's
    eps, delta, samples and seed."""
    if isinstance(value, Fraction):
        return [player, str(value), method]
    return [player, float(value.value), method, value.eps, value.delta, value.samples, value.seed]


def _cmd_eval(args, out) -> int:
    g, q, mu = _load_inputs(args, need_binding=True)
    result = query_mod.eval_crpq_bound(g, q, mu)
    out.write(("1" if result else "0") + "\n")
    return 0


def _cmd_answers(args, out) -> int:
    g, q, _ = _load_inputs(args, need_binding=False)
    for answer in query_mod.enumerate_answers(g, q, cap=args.cap):
        out.write("\t".join(answer) + "\n")
    return 0


def _cmd_shapley(args, out) -> int:
    g, q, mu = _load_inputs(args, need_binding=True)
    req = ExplainRequest(
        graph=g,
        query=q,
        binding=mu,
        player_kind=args.player_kind,
        focus=args.focus,
        mode=args.mode,
        eps=args.eps,
        delta=args.delta,
        seed=args.seed,
    )
    report = explain.solve(req)
    _render_report(report, args.format, out)
    return 0


def _cmd_nonzero(args, out) -> int:
    g, q, mu = _load_inputs(args, need_binding=True)
    if args.focus is None:
        raise PathShapError("nonzero needs --focus <player id>")
    if args.focus not in (g.endo_edges if args.player_kind == "edge" else g.endo_vertices):
        raise PathShapError(f"{args.focus} is not an endogenous {args.player_kind}")
    # a player of a monotone game has a nonzero value iff it lies in a
    # minimal winning coalition, a term of the lineage of the game before
    # the baseline shift; when the exogenous part alone wins, the lineage is
    # [0], which holds no player, and the verdict is false, as in the
    # shifted game
    try:
        supports = explain.candidate_supports(g, q, mu, args.player_kind, args.budget)
        verdict = any(args.focus in support for support in supports)
    except BudgetExceeded:
        out.write("unknown\n")
        return 5
    out.write(("true" if verdict else "false") + "\n")
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "answers": _cmd_answers,
    "shapley": _cmd_shapley,
    "nonzero": _cmd_nonzero,
}


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except EnumerationOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfiniteLanguage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (PathShapError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
