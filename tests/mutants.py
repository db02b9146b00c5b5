#!/usr/bin/env python3
"""A standing mutation check: each mutant below must fail its tests.

An entry names a file under ``src/``, a text that occurs in it exactly
once, the text that replaces it, and the pytest node ids that must catch
the edit.  For each entry the script copies ``src/`` to a temporary
directory, applies the edit there, and runs ``python -m pytest -x -q`` on
the node ids with the copy first on ``PYTHONPATH``.  The script fails when
a mutant passes its tests, when an old text no longer occurs exactly once,
or when the node ids do not all pass on the unmutated sources (so that a
node id that went missing cannot read as a kill).  Pytest does not collect
this file, since it collects ``test_*.py``.

Run from anywhere in a checkout::

    python3 tests/mutants.py               # every mutant
    python3 tests/mutants.py <name> ...    # the named mutants

A change that makes a mutant by hand to show that its tests bite adds it
here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # node ids relative to the root of the checkout


GRAPH = "pathshap/graph.py"
GAME = "pathshap/game.py"
REGEX = "pathshap/regex.py"
AUTOMATA = "pathshap/automata.py"
TRIMMED = "tests/test_regex.py::test_compiled_automaton_is_trimmed_and_exact"
SHUFFLES = "tests/test_game.py::test_shuffles_draw_the_stdlib_shuffle_stream"
PINNED = "tests/test_game.py::test_lineage_counter_spends_the_pinned_steps"
SUPPORT = "tests/test_game.py::test_support_sampler_matches_the_oracle_over_the_support"
MALFORMED = "tests/test_graph.py::test_malformed_inputs"
PROPERTY = "tests/test_graph.py::test_loader_matches_the_reference_loader"
COLLISION = "tests/test_graph.py::test_an_edge_id_collision_is_not_a_parallel_edge"
CORPUS = "tests/test_corpus.py::test_every_pinned_request_keeps_its_exit_code_and_bytes"

MUTANTS = (
    Mutant(
        "loader: no classification check on edge lines", GRAPH,
        '            src, label, dst, tag = fields\n'
        '            if tag not in ("n", "x"):\n'
        '                raise MalformedGraph(f"line {lineno}: unknown classification {tag!r}")\n',
        '            src, label, dst, tag = fields\n',
        (MALFORMED, PROPERTY),
    ),
    Mutant(
        "loader: no parallel-edge error", GRAPH,
        '                    raise MalformedGraph(f"line {lineno}: parallel edge for pair ({src}, {dst})")\n',
        '                    pass\n',
        (COLLISION, PROPERTY),
    ),
    Mutant(
        "loader: no edge-id collision error", GRAPH,
        '                raise MalformedGraph(f"line {lineno}: pairs ({pair[0]}, {pair[1]}) and ({src}, {dst}) "\n'
        '                                     f"have the same edge id {eid}")\n',
        '                pass\n',
        (COLLISION,),
    ),
    Mutant(
        "loader: no vertex-line field count", GRAPH,
        '''                raise MalformedGraph(f"line {lineno}: vertex line needs 'v <id> <n|x>'")\n''',
        '                pass\n',
        ("tests/test_graph.py::test_vertex_line_errors_keep_their_messages", PROPERTY),
    ),
    Mutant(
        "loader: no classification check on vertex lines", GRAPH,
        '            _, vid, tag = fields\n'
        '            if tag not in ("n", "x"):\n'
        '                raise MalformedGraph(f"line {lineno}: unknown classification {tag!r}")\n',
        '            _, vid, tag = fields\n',
        (MALFORMED, PROPERTY),
    ),
    Mutant(
        "loader: no reclassified-vertex error", GRAPH,
        '                raise MalformedGraph(f"line {lineno}: vertex {vid} reclassified")\n',
        '                pass\n',
        (MALFORMED, PROPERTY),
    ),
    Mutant(
        "loader: no edge-line field count", GRAPH,
        '''            raise MalformedGraph(f"line {lineno}: edge line needs '<src> <label> <dst> <n|x>'")\n''',
        '            pass\n',
        (MALFORMED, PROPERTY),
    ),
    Mutant(
        "loader: the parallel check keyed on the edge id", GRAPH,
        '                if pair == (src, dst):\n',
        '                if pair is not None:\n',
        (COLLISION, "tests/test_graph.py::test_cli_reports_an_edge_id_collision_with_exit_2"),
    ),
    Mutant(
        "loader: a four-field line starting with v read as a vertex line", GRAPH,
        '        if len(fields) == 4:\n',
        '        if len(fields) == 4 and fields[0] != "v":\n',
        ("tests/test_graph.py::test_serialize_round_trip_with_a_vertex_named_v", PROPERTY),
    ),
    Mutant(
        "loader: an indented comment read as a line", GRAPH,
        '        if not fields or fields[0][0] == "#":\n',
        '        if not fields or raw.startswith("#"):\n',
        (PROPERTY,),
    ),
    Mutant(
        "loader: a line whose first field starts with v read as a vertex line, on the CLI path", GRAPH,
        '        elif fields[0] == "v":\n',
        '        elif fields[0].startswith("v"):\n',
        (CORPUS,),
    ),
    Mutant(
        "compile memo: the key without the graph alphabet", "pathshap/query.py",
        '        return _compile(text, frozenset(graph_alphabet))\n',
        '        return _compile(text, compile_crpq.__dict__.setdefault(text, frozenset(graph_alphabet)))\n',
        ("tests/test_query.py::test_compile_crpq_memo_keys_on_the_alphabet",
         "tests/test_cli.py::test_main_compiles_a_query_per_graph_alphabet_as_fresh_processes_do"),
    ),
    Mutant(
        "compile_crpq: a query nested past the recursion limit raises RecursionError", "pathshap/query.py",
        '    except RecursionError:\n'
        '        raise QuerySyntaxError("query nests too deeply") from None\n',
        '    except QuerySyntaxError:\n'
        '        raise\n',
        ("tests/test_cli.py::test_a_query_nested_past_the_recursion_limit_exits_2", CORPUS),
    ),
    Mutant(
        "eval_crpq_bound: edge_ok ignored", "pathshap/query.py",
        '    return holds_on_mask(_filtered(g, edge_ok), bind_atoms(q, mu), 0)\n',
        '    return holds_on_mask(_filtered(g, None), bind_atoms(q, mu), 0)\n',
        ("tests/test_query.py::test_eval_rpq_edge_filter",),
    ),
    Mutant(
        "regex nodes: equality without the type check", REGEX,
        '        if type(other) is not type(self):\n'
        '            return NotImplemented\n',
        '',
        ("tests/test_regex.py::test_nodes_equal_by_type_and_fields",),
    ),
    Mutant(
        "regex nodes: fields assignable", REGEX,
        '    def __setattr__(self, name, value):\n'
        '        raise AttributeError(f"cannot assign to field {name!r}")\n\n',
        '',
        ("tests/test_regex.py::test_nodes_refuse_changes_and_keep_the_dataclass_repr",),
    ),
    Mutant(
        "solve: a negative seed accepted", "pathshap/explain.py",
        '    if req.seed < 0:\n'
        '        raise ValueError(f"seed must be nonnegative, got {req.seed}")\n',
        '',
        ("tests/test_explain.py::test_solve_refuses_a_negative_seed",),
    ),
    Mutant(
        "cli: --seed parsed as any integer", "pathshap/cli.py",
        '            c.add_argument("--seed", type=_count, default=0)\n',
        '            c.add_argument("--seed", type=int, default=0)\n',
        ("tests/test_cli.py::test_negative_seed_is_refused_at_parse_time",),
    ),
    Mutant(
        "sample_count: no fallback where 2/delta overflows", GAME,
        '        spread = math.log(ratio) if ratio < math.inf else math.log(2.0) - math.log(delta)\n',
        '        spread = math.log(ratio)\n',
        ("tests/test_game.py::test_sample_count_past_the_overflow_of_two_over_delta",
         "tests/test_cli.py::test_a_tiny_delta_samples_a_finite_count"),
    ),
    Mutant(
        "sampler: the draws' rejection bound at i", GAME,
        '            while j > i:\n',
        '            while j >= i:\n',
        (SHUFFLES,),
    ),
    Mutant(
        "sampler: the term pivot on any member of a term", GAME,
        '                if t & prefix == t:\n',
        '                if t & prefix:\n',
        (SUPPORT,),
    ),
    Mutant(
        "sampler: every player shuffled instead of the support", GAME,
        '        pivots = Counter(map(pivot, shuffles(bits, seed, trials)))\n',
        '        pivots = Counter(map(pivot, shuffles([1 << i for i in range(len(players))], seed, trials)))\n',
        (SUPPORT,),
    ),
    Mutant(
        "sampler: a one-player support draws its trials", GAME,
        '    if len(bits) > 1:\n',
        '    if bits:\n',
        ("tests/test_game.py::test_one_player_support_pivots_in_every_order_without_a_draw",),
    ),
    Mutant(
        "sampler: the pivot credits the previous arrival", GAME,
        '        return order[lo]\n',
        '        return order[lo - 1]\n',
        ("tests/test_game.py::test_pivot_sampler_matches_linear_scan_oracle",),
    ),
    Mutant(
        "sampler: the permutation read reversed", GAME,
        '            order[i], order[j] = order[j], order[i]\n'
        '        yield order\n',
        '            order[i], order[j] = order[j], order[i]\n'
        '        yield order[::-1]\n',
        (SHUFFLES,),
    ),
    Mutant(
        "sampler: the draws' bit length of i", GAME,
        '    draws = [(i, (i + 1).bit_length()) for i in range(len(order) - 1, 0, -1)]\n',
        '    draws = [(i, i.bit_length()) for i in range(len(order) - 1, 0, -1)]\n',
        (SHUFFLES,),
    ),
    Mutant(
        "solve: the term rule's bound exclusive", "pathshap/explain.py",
        '    if terms is not None and len(terms) <= len(req.graph.edges):\n',
        '    if terms is not None and len(terms) < len(req.graph.edges):\n',
        ("tests/test_explain.py::test_sampler_on_the_lineage_searches_the_product_once",),
    ),
    Mutant(
        "counter: a node's charge without its components", GAME,
        '        spend(budget, (len(terms) + len(groups)) * width)\n',
        '        spend(budget, len(terms) * width)\n',
        (PINNED,),
    ),
    Mutant(
        "counter: ties to the highest bit", GAME,
        '    return 1 << counts.index(max(counts))\n',
        '    return 1 << len(counts) - 1 - counts[::-1].index(max(counts))\n',
        (PINNED,),
    ),
    Mutant(
        "minimal_masks: only the candidate's lowest-bit bucket compared", GAME,
        '        while rest and not covered:\n',
        '        if rest and not covered:\n',
        ("tests/test_game.py::test_minimal_masks_matches_the_scan",),
    ),
    Mutant(
        "term components: a shared player's component not joined", GAME,
        '            parent[root] = t\n',
        '',
        ("tests/test_game.py::test_term_components_matches_the_scan",),
    ),
    Mutant(
        "json report: non-ASCII text left unescaped", "pathshap/cli.py",
        'from json.encoder import encode_basestring_ascii as _string\n',
        'from json.encoder import encode_basestring as _string\n',
        ("tests/test_cli.py::test_json_report_is_json_dumps_byte_for_byte",),
    ),
    Mutant(
        "cli: the sort key without the common denominator", "pathshap/cli.py",
        '    keys = [(-v.numerator * (scale // v.denominator), p) for p, v in zip(report.values, exact)]\n',
        '    keys = [(-v.numerator, p) for p, v in zip(report.values, exact)]\n',
        ("tests/test_cli.py::test_integer_sort_key_orders_rows_like_the_fractions",),
    ),
    Mutant(
        "compile: no backward trim", AUTOMATA,
        '    kept.add(0)\n',
        '    kept.update(moves)\n',
        ("tests/test_regex.py::test_dfa_shapes", TRIMMED),
    ),
    Mutant(
        "language_profile: emptiness read from the start's presence", AUTOMATA,
        '    if not d.accepting:\n',
        '    if d.start not in d.moves:\n',
        ("tests/test_regex.py::test_profile_empty_language", TRIMMED),
    ),
    Mutant(
        "parse_crpq_text: an empty last chunk dropped", "pathshap/query.py",
        '        raise QuerySyntaxError("unbalanced parentheses in query")\n'
        '    atoms = []\n',
        '        raise QuerySyntaxError("unbalanced parentheses in query")\n'
        '    if len(chunks) > 1 and not chunks[-1]:\n'
        '        chunks.pop()\n'
        '    atoms = []\n',
        ("tests/test_query.py::test_parse_crpq_text_rejects", "tests/test_cli.py::test_a_trailing_ampersand_exits_2"),
    ),
)


def run_tests(src: Path, tests, workdir: Path) -> subprocess.CompletedProcess:
    """``pytest -x -q`` on the node ids in ``workdir``, importing pathshap
    from ``src``, under the Hypothesis profile ``mutants`` of
    ``tests/conftest.py``: a property stops at its first failing example."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=mutants",
            *(str(ROOT / node) for node in tests)]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True, timeout=600)


def check(mutant: Mutant, workdir: Path) -> str:
    """'killed', or why the mutant fails the check."""
    src = workdir / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        return f"STALE: the old text occurs {count} times in src/{mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new))
    run = run_tests(src, mutant.tests, workdir)
    if run.returncode == 1:  # pytest's code for failed tests; collection errors and missing ids are others
        return "killed"
    if run.returncode == 0:
        return "SURVIVED: every named test passed"
    return f"ERROR: pytest exited {run.returncode}\n{run.stdout[-2000:]}{run.stderr[-2000:]}"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in chosen}
    if unknown:
        print(f"error: no mutant named {sorted(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tests = tuple(dict.fromkeys(node for m in chosen for node in m.tests))
        start = time.perf_counter()
        baseline = run_tests(ROOT / "src", tests, Path(tmp))
        print(f"unmutated: {len(tests)} node ids, pytest exit {baseline.returncode} "
              f"({time.perf_counter() - start:.1f} s)")
        if baseline.returncode != 0:
            print(baseline.stdout[-3000:] + baseline.stderr[-3000:])
            return 1
        for i, mutant in enumerate(chosen):
            workdir = Path(tmp) / f"mutant-{i}"
            workdir.mkdir()
            start = time.perf_counter()
            verdict = check(mutant, workdir)
            failed += verdict != "killed"
            head, _, detail = verdict.partition("\n")
            print(f"{head}: {mutant.name} ({time.perf_counter() - start:.1f} s)")
            if detail:
                print(detail)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
