#!/usr/bin/env python3
"""A pinned request corpus: every request's exit code and output bytes.

The requests are built from fixed seeds: random graphs of 3-7 vertices
(exogenous edges, self-loops, vertex lines, a vertex named ``v``), five
of ten queries on each (``{}``, ``.``, two-atom queries, a cycle through x
and y), and per graph and query ``eval``, ``answers`` with or without
``--cap``, ``nonzero`` with or without ``--budget``, and ``shapley`` in all
four modes for both player kinds, in json, csv or table, some with
``--focus``.  Then a graph with no labels, and requests for the error
exits 2-5 on the running example and on malformed graphs.  Each request
runs through ``cli.main`` in-process, and its exit code, stdout and stderr
are hashed; a request that argparse refuses, by its exit code alone.
``tests/corpus.sha256`` holds one line per request: its running id and
the first 8 hex digits of that hash.

Run from anywhere in a checkout; only the standard library is needed::

    python3 tests/corpus.py            # exit 1 and name the first ids that differ
    python3 tests/corpus.py --write    # rewrite tests/corpus.sha256

A change that moves output bytes rewrites the file and names the ids
that moved.  A new request goes at the end, so the ids before it keep
their digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "corpus.sha256"
HEADER = (
    "# tests/corpus.py: one line per request, its id and the first 8 hex digits of the SHA-256\n"
    "# of its exit code, stdout and stderr; a request that argparse refuses hashes its exit code\n"
    "# alone, since argparse's messages may change between Python releases.\n"
    "# Rewrite with: python3 tests/corpus.py --write\n"
)

SEED = 2024
GRAPHS = 108
NAMES = ("v", "w", "p", "q", "r", "s", "t")
QUERIES = (
    ("(x, {}, y)", "xy"),
    ("(x, ., y)", "xy"),
    ("(x, a*, y)", "xy"),
    ("(x, (a|b)* c, y)", "xy"),
    ("(x, a b | c, y)", "xy"),
    ("(x, . .*, y)", "xy"),
    ("(x, @ | a b*, y)", "xy"),
    ("(x, a, y) & (y, b c*, z)", "xyz"),
    ("(x, a*, y) & (x, . b, y)", "xy"),
    ("(x, a b*, y) & (y, c | a, x)", "xy"),
)
MODES = ("auto", "exact", "approx-additive", "approx-multiplicative")
RUNNING = ("v1 a v2 n\nv1 a v3 n\nv3 a v2 n\nv4 a v3 n\nv2 b v4 n\n"
           "v4 b v6 n\nv3 b v5 n\nv2 b v6 n\nv5 c v6 n\n")
MALFORMED = (
    "p a q n\nq b p y\n",           # unknown classification
    "p a q n\np b q n\n",           # parallel edge
    "a->b c d n\na c->b d n\n",     # two pairs with one edge id
    "v p n\nv p x\np a q n\n",      # vertex reclassified
    "v1 a n\n",                     # three fields, not a vertex line
    "p a\n",                        # two fields
    "v p n q\np a q n\nv q\n",      # a vertex line of two fields
    "v p z\n",                      # unknown vertex classification
    "p  q n\n",                     # three fields
)


def random_graph(rng: random.Random) -> tuple[str, list[str], list[str], list[str]]:
    """A graph's text, its vertices, endogenous edge ids and endogenous vertices."""
    names = rng.sample(NAMES, rng.randint(3, 7))
    lines, endo_edges, present = [], [], set()
    for s in names:
        for t in names:
            if rng.random() < (0.15 if s == t else 0.3):
                tag = "x" if rng.random() < 0.2 else "n"
                lines.append(f"{s} {rng.choice('aabbc')} {t} {tag}")
                present.update((s, t))
                if tag == "n":
                    endo_edges.append(f"{s}->{t}")
    classes = {}
    for v in names:
        if rng.random() < 0.3:
            classes[v] = "x" if rng.random() < 0.4 else "n"
            lines.append(f"v {v} {classes[v]}")
            present.add(v)
    rng.shuffle(lines)
    if rng.random() < 0.2:
        lines.insert(rng.randint(0, len(lines)), "  # a comment")
    if rng.random() < 0.2:
        lines.insert(rng.randint(0, len(lines)), "")
    vertices = sorted(present)
    return "\n".join(lines) + "\n", vertices, endo_edges, [v for v in vertices if classes.get(v, "n") == "n"]


def requests() -> tuple[dict[str, str], list[list[str]]]:
    """The graph files by name, and every request's argv; a graph file is
    named by its bare name, which ``run`` resolves."""
    rng = random.Random(SEED)
    graphs: dict[str, str] = {}
    argvs: list[list[str]] = []
    for gi in range(GRAPHS):
        name = f"g{gi:03}.graph"
        text, vertices, endo_edges, endo_vertices = random_graph(rng)
        graphs[name] = text
        vertices = vertices or ["v"]
        for query, variables in rng.sample(QUERIES, 5):
            common = ["--graph", name, "--query", query]
            bind = ["--bind", ",".join(f"{var}={rng.choice(vertices)}" for var in variables)]
            argvs.append(["eval", *common, *bind])
            cap = ["--cap", str(rng.randint(0, 3))] if rng.random() < 0.5 else []
            argvs.append(["answers", *common, *cap])
            kind = rng.choice(("edge", "vertex"))
            focus = rng.choice((endo_edges if kind == "edge" else endo_vertices) or ["v"])
            budget = ["--budget", str(rng.choice((0, 5, 50, 10**6)))] if rng.random() < 0.5 else []
            argvs.append(["nonzero", *common, *bind, "--player-kind", kind, "--focus", focus, *budget])
            for mode in MODES:
                for kind in ("edge", "vertex"):
                    argv = ["shapley", *common, *bind, "--mode", mode, "--player-kind", kind,
                            "--format", rng.choice(("json", "csv", "table"))]
                    players = endo_edges if kind == "edge" else endo_vertices
                    if players and rng.random() < 0.25:
                        argv += ["--focus", rng.choice(players)]
                    if mode == "approx-additive":
                        argv += ["--eps", rng.choice(("0.1", "0.2", "0.3")), "--seed", str(rng.randint(0, 9))]
                    elif mode == "approx-multiplicative":
                        argv += ["--eps", rng.choice(("3", "9")), "--delta", "0.5", "--seed", str(rng.randint(0, 9))]
                    argvs.append(argv)

    # a graph with no labels: an empty alphabet
    graphs["bare.graph"] = "v w n\nv z x\n"
    for query in ("(x, @, y)", "(x, .*, y)", "(x, . .*, y)", "(x, a, y)"):
        common = ["--graph", "bare.graph", "--query", query]
        for bind in ("x=w,y=w", "x=w,y=z"):
            argvs.append(["eval", *common, "--bind", bind])
            for mode in MODES:
                argvs.append(["shapley", *common, "--bind", bind, "--mode", mode, "--player-kind", "vertex"])
        argvs.append(["answers", *common])

    # the error exits, on the running example
    graphs["running.graph"] = RUNNING
    running = ["--graph", "running.graph"]
    abc = [*running, "--query", "(x, a b c, y)"]
    argvs += [
        ["eval", *abc, "--bind", "x=v1"],                                      # 2: unbound variable
        ["eval", *abc, "--bind", "x=v1,y"],                                    # 2: not var=vertex
        ["eval", *abc, "--bind", "x=v1,x=v2,y=v6"],                            # 2: bound twice
        ["eval", *abc, "--bind", "x=v1,y=v99"],                                # 2: unknown vertex
        ["answers", *running, "--query", "(x, a b c, y) &"],                   # 2: trailing &
        ["answers", *running, "--query", "& (x, a, y)"],                       # 2: leading &
        ["answers", *running, "--query", ""],                                  # 2: no atom
        ["answers", *running, "--query", "(x, a b c, y"],                      # 2: unbalanced
        ["answers", *running, "--query", "(x, a [ b, y)"],                     # 2: regex syntax
        ["answers", *running, "--query", "(x, a, 1y)"],                        # 2: variable name
        ["shapley", *abc, "--bind", "x=v1,y=v6", "--focus", "v6->v1"],         # 2: not a player
        ["shapley", *abc, "--bind", "x=v1,y=v6", "--eps", "nan"],              # 2: eps
        ["shapley", *abc, "--bind", "x=v1,y=v6", "--delta", "1"],              # 2: delta
        ["nonzero", *abc, "--bind", "x=v1,y=v6"],                              # 2: no focus
        ["answers", *running, "--query", "(x, .*, y)", "--cap", "2"],          # 3: answers
        ["shapley", *running, "--query", "(x, a*, y)", "--bind", "x=v1,y=v6",
         "--mode", "approx-multiplicative"],                                   # 4: infinite
        ["nonzero", *running, "--query", "(x, .*, y)", "--bind", "x=v1,y=v6",
         "--focus", "v3->v5", "--budget", "3"],                                # 5: budget
        ["shapley", *abc, "--bind", "x=v1,y=v6", "--mode", "approx-additive",
         "--eps", "0.0001"],                                                   # 5: trial cap
        ["shapley", *abc, "--bind", "x=v1,y=v6", "--mode", "approx-multiplicative",
         "--player-kind", "vertex", "--eps", "0.001"],                         # 5: trial cap
        # argparse refusals, exit 2
        ["answers", *running, "--query", "(x, .*, y)", "--cap", "-1"],
        ["nonzero", *abc, "--bind", "x=v1,y=v6", "--focus", "v3->v5", "--cap", "3"],
        ["shapley", *abc, "--bind", "x=v1,y=v6", "--mode", "fast"],
        ["shapley", *abc, "--bind", "x=v1,y=v6", "--seed", "-1"],
        ["eval", "--query", "(x, a, y)", "--bind", "x=v1,y=v2"],
        ["explain", *abc],
    ]
    for i, text in enumerate(MALFORMED):
        graphs[f"bad{i}.graph"] = text
        argvs.append(["eval", "--graph", f"bad{i}.graph", "--query", "(x, a, y)", "--bind", "x=p,y=q"])

    # a word past the recursion limit exits 2, and a delta whose 2/delta
    # overflows samples a finite count
    argvs.append(["eval", *running, "--query", f"(x, {'a' * 3000}, y)", "--bind", "x=v1,y=v6"])
    argvs.append(["shapley", *abc, "--bind", "x=v1,y=v6", "--mode", "approx-additive", "--delta", "1e-308"])
    return graphs, argvs


def digest(code, stdout: str, stderr: str) -> str:
    return hashlib.sha256(f"{code}\0{stdout}\0{stderr}".encode()).hexdigest()[:8]


def run(graphs: dict[str, str], argvs: list[list[str]]) -> list[str]:
    """Every request's digest, in order.  A request that argparse refuses
    is hashed by its exit code alone: argparse's messages may change
    between Python releases."""
    from pathshap import cli

    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in graphs.items():
            Path(tmp, name).write_text(text)
        for argv in argvs:
            argv = [str(Path(tmp, a)) if a in graphs else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv, out=out)
                except SystemExit as exc:
                    digests.append(digest(exc.code, "", ""))
                    continue
            digests.append(digest(code, out.getvalue(), err.getvalue()))
    return digests


def pinned() -> list[str]:
    """The digests of ``tests/corpus.sha256``, in id order."""
    lines = [line.split() for line in PINNED.read_text().splitlines() if not line.startswith("#")]
    assert [int(i) for i, _ in lines] == list(range(len(lines))), "ids must run 0, 1, 2, ..."
    return [d for _, d in lines]


def differences(limit: int = 5) -> list[str]:
    """The first ``limit`` ids whose digest differs from the pinned one,
    each with its argv, and a line for a count that differs."""
    graphs, argvs = requests()
    actual, expected = run(graphs, argvs), pinned()
    found = [f"id {i}: {expected[i] if i < len(expected) else None} -> {d}: {shlex.join(argvs[i])}"
             for i, d in enumerate(actual) if i >= len(expected) or d != expected[i]][:limit]
    if len(actual) != len(expected):
        found.append(f"{len(actual)} requests, {len(expected)} pinned")
    return found


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print("usage: corpus.py [--write]", file=sys.stderr)
        return 2
    if argv:
        digests = run(*requests())
        PINNED.write_text(HEADER + "".join(f"{i} {d}\n" for i, d in enumerate(digests)))
        print(f"wrote {len(digests)} digests to {PINNED}")
        return 0
    found = differences()
    for line in found:
        print(line)
    print("corpus: " + ("differs" if found else "every request keeps its bytes"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
