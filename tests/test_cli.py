import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathshap import cli, explain, game, query

from helpers import random_labeled_graph, reference_report

try:
    from importlib.resources import files

    SCHEMA = json.loads(
        files("pathshap").joinpath("report_schema.json").read_text()
    )
except FileNotFoundError:  # pragma: no cover
    SCHEMA = None

CHAIN3 = "u1 a u2 n\nu2 b u3 n\nu3 c u4 n\n"


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.graph"
    path.write_text(CHAIN3)
    return str(path)


# --- eval -------------------------------------------------------------------

def test_eval_true_and_false(fig_graph_text):
    code, out = run(
        ["eval", "--graph", str(fig_graph_text), "--query", "(x, a b c, y)", "--bind", "x=v1,y=v6"]
    )
    assert (code, out) == (0, "1\n")
    code, out = run(
        ["eval", "--graph", str(fig_graph_text), "--query", "(x, a b c, y)", "--bind", "x=v3,y=v5"]
    )
    assert (code, out) == (0, "0\n")


def test_eval_crpq_binding(fig_graph_text):
    base = ["eval", "--graph", str(fig_graph_text), "--query", "(x1, a*, x2) & (x2, b*, x3)"]
    assert run(base + ["--bind", "x1=v1,x2=v2,x3=v6"]) == (0, "1\n")
    assert run(base + ["--bind", "x1=v1,x2=v3,x3=v6"]) == (0, "0\n")


def test_eval_errors_exit_2(fig_graph_text):
    code, _ = run(
        ["eval", "--graph", str(fig_graph_text), "--query", "(x, a b c, y)", "--bind", "x=v1"]
    )
    assert code == 2
    code, _ = run(
        ["eval", "--graph", "/nonexistent.graph", "--query", "(x, a, y)", "--bind", "x=v1,y=v2"]
    )
    assert code == 2
    code, _ = run(
        ["eval", "--graph", str(fig_graph_text), "--query", "(x, a(, y)", "--bind", "x=v1,y=v2"]
    )
    assert code == 2


def test_a_trailing_ampersand_exits_2(fig_graph_text, capsys):
    """A query that ends in ``&`` lacks its last atom, as one that starts
    with ``&`` lacks its first."""
    for text in ("(x, a, y) &", "& (x, a, y)"):
        code, out = run(["eval", "--graph", str(fig_graph_text), "--query", text, "--bind", "x=v1,y=v2"])
        assert (code, out) == (2, "")
        assert "atom must be parenthesized: ''" in capsys.readouterr().err


@pytest.mark.parametrize("expr", ["a" * 1000, "(" * 1200 + "a" + ")" * 1200, "a" + "*" * 3000],
                         ids=["a-long-word", "nested-parentheses", "stars"])
def test_a_query_nested_past_the_recursion_limit_exits_2(fig_graph_text, expr, capsys):
    """The parser and the compiler recurse on the tree: a query that nests
    past the recursion limit is a syntax error, not a traceback."""
    code, out = run(["eval", "--graph", str(fig_graph_text), "--query", f"(x, {expr}, y)", "--bind", "x=v1,y=v6"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: query nests too deeply\n"


def test_a_400_letter_word_evaluates(tmp_path):
    path = tmp_path / "chain.graph"
    path.write_text("".join(f"u{i} a u{i + 1} n\n" for i in range(400)))
    argv = ["eval", "--graph", str(path), "--query", f"(x, {'a' * 400}, y)"]
    assert run(argv + ["--bind", "x=u0,y=u400"]) == (0, "1\n")
    assert run(argv + ["--bind", "x=u1,y=u400"]) == (0, "0\n")


def test_eval_on_a_graph_without_labels(tmp_path):
    """A graph of vertex lines only gives an empty alphabet: atoms without
    symbols compile over it, and a vertex answers an atom with the empty word."""
    path = tmp_path / "vertices.graph"
    path.write_text("v w n\nv u n\n")
    for text, bind, answer in (("(x, @, y)", "x=w,y=w", "1"), ("(x, .*, y)", "x=w,y=w", "1"),
                               ("(x, ., y)", "x=w,y=w", "0"), ("(x, @, y)", "x=w,y=u", "0")):
        assert run(["eval", "--graph", str(path), "--query", text, "--bind", bind]) == (0, answer + "\n"), text


def test_parser_rejects_options_a_command_does_not_read(fig_graph_text, capsys):
    base = ["--graph", str(fig_graph_text), "--query", "(x, a, y)"]
    for argv in (
        ["eval", *base, "--bind", "x=v1,y=v2", "--cap", "3"],
        ["eval", *base, "--bind", "x=v1,y=v2", "--budget", "5"],
        ["answers", *base, "--budget", "5"],
        ["nonzero", *base, "--bind", "x=v1,y=v2", "--focus", "v1->v2", "--cap", "3"],
        ["shapley", *base, "--bind", "x=v1,y=v2", "--budget", "5"],
        ["shapley", *base, "--bind", "x=v1,y=v2", "--cap", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv, out=io.StringIO())
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_negative_budget_and_cap_are_refused_at_parse_time(fig_graph_text, capsys):
    """A count option below 0 exits 2 before any search or enumeration
    runs; 0 is a valid count."""
    bound = ["--graph", str(fig_graph_text), "--query", "(x, .*, y)", "--bind", "x=v1,y=v6"]
    nonzero = ["nonzero", *bound, "--focus", "v4->v3", "--budget"]
    answers = ["answers", "--graph", str(fig_graph_text), "--query", "(x, .*, y)", "--cap"]
    for argv in (nonzero + ["-1"], answers + ["-1"], nonzero + ["x"], answers + ["2.5"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv, out=io.StringIO())
        assert exc.value.code == 2, argv
        assert "expected a nonnegative integer, got" in capsys.readouterr().err
    assert run(nonzero + ["0"]) == (5, "unknown\n")
    assert run(answers + ["0"]) == (3, "")
    assert capsys.readouterr().err == "error: more than 0 intermediate rows\n"


def test_negative_seed_is_refused_at_parse_time(fig_graph_text, capsys):
    """``random.Random(-s)`` draws the stream of ``Random(s)``, so
    ``--seed -3`` would print seed -3 beside the estimates of seed 3: it
    exits 2, as a negative ``--cap`` or ``--budget`` does; 0 is a valid
    seed."""
    argv = ["shapley", "--graph", str(fig_graph_text), "--query", "(x, a b c, y)", "--bind", "x=v1,y=v6",
            "--mode", "approx-additive", "--eps", "0.2", "--format", "csv", "--seed"]
    for seed in ("-3", "-1", "3.0"):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [seed], out=io.StringIO())
        assert exc.value.code == 2, seed
        assert f"argument --seed: expected a nonnegative integer, got {seed!r}" in capsys.readouterr().err
    code, out = run(argv + ["0"])
    assert code == 0 and out.splitlines()[1].endswith(",0"), out


def test_unknown_bound_vertex_is_named(fig_graph_text, capsys):
    graph = str(fig_graph_text)
    for argv in (
        ["eval", "--graph", graph, "--query", "(x, a b c, y)", "--bind", "x=v9,y=v6"],
        ["shapley", "--graph", graph, "--query", "(x, a b c, y)", "--bind", "x=v1,y=v9"],
        ["nonzero", "--graph", graph, "--query", "(x, a b c, y)", "--bind", "x=v9,y=v6", "--focus", "v1->v3"],
    ):
        assert run(argv) == (2, ""), argv
        assert capsys.readouterr().err == "error: unknown vertex 'v9'\n", argv


def test_main_behaves_as_a_fresh_process_on_every_call(fig_graph_text, capsys):
    """One process sends two different commands, a bad argv and a good one
    through main; each call answers as it does in a process of its own."""
    graph = str(fig_graph_text)
    argvs = [
        ["eval", "--graph", graph, "--query", "(x, a b c, y)", "--bind", "x=v1,y=v6"],
        ["shapley", "--graph", graph, "--query", "(x, a b c, y)", "--bind", "x=v1,y=v6", "--format", "json"],
        ["nonzero", "--graph", graph, "--query", "(x, .*, y)", "--bind", "x=v1,y=v6", "--cap", "3"],
        ["answers", "--graph", graph, "--query", "(x, a b*, y)"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = "import sys; from pathshap import cli; sys.exit(cli.main())"
    codes = []
    for argv in argvs:
        fresh = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env)
        out = io.StringIO()
        try:
            code = cli.main(argv, out=out)
        except SystemExit as exc:
            code = exc.code
        assert (code, out.getvalue(), capsys.readouterr().err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(code)
    assert codes == [0, 0, 2, 0]


def test_importing_the_cli_loads_no_dataclasses_inspect_or_csv(fig_graph_text):
    """Every command runs in a fresh process, which pays for each module
    that ``from pathshap import cli`` imports: ``dataclasses`` (which
    imports ``inspect``) is not among them, and ``csv`` is imported only
    when a csv report is written."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = ("import io, sys\n"
              "from pathshap import cli\n"
              "loaded = lambda: ' '.join(m for m in ('dataclasses', 'inspect', 'csv') if m in sys.modules)\n"
              "print(loaded())\n"
              "cli.main(sys.argv[1:], out=io.StringIO())\n"
              "print(loaded())\n")
    argv = ["shapley", "--graph", str(fig_graph_text), "--query", "(x, a b c, y)", "--bind", "x=v1,y=v6",
            "--format", "csv"]
    fresh = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, "\ncsv\n", "")


def test_one_parser_answers_every_call_as_a_fresh_process(fig_graph_text, capsys):
    """The parser is built once per process, and a call after one with
    non-default options, or after an argparse error, still answers with the
    defaults, as a process of its own does."""
    assert cli._parser() is cli._parser()
    graph = str(fig_graph_text)
    bound = ["--graph", graph, "--query", "(x, .*, y)", "--bind", "x=v1,y=v6"]
    nonzero = ["nonzero", *bound, "--focus", "v4->v3"]
    answers = ["answers", "--graph", graph, "--query", "(x, .*, y)"]
    argvs = [
        ["shapley", *bound, "--mode", "exact", "--format", "json", "--player-kind", "vertex",
         "--seed", "3", "--eps", "0.2"],
        ["shapley", *bound],
        nonzero + ["--budget", "1"],
        nonzero,
        answers + ["--cap", "1"],
        answers,
        ["eval", *bound, "--cap", "3"],
        ["eval", *bound],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = "import sys; from pathshap import cli; sys.exit(cli.main())"
    codes = []
    for argv in argvs:
        fresh = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env)
        out = io.StringIO()
        try:
            code = cli.main(argv, out=out)
        except SystemExit as exc:
            code = exc.code
        assert (code, out.getvalue(), capsys.readouterr().err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(code)
    assert codes == [0, 0, 5, 0, 3, 0, 2, 0]


def test_main_compiles_a_query_per_graph_alphabet_as_fresh_processes_do(tmp_path, capsys):
    """One process sends the same ``.`` query to two graphs whose alphabets
    differ; each call answers as a process of its own does, although the
    query compiles once per (text, alphabet) in the process."""
    ab = tmp_path / "ab.graph"
    ab.write_text("u a w n\nw b z n\n")
    abc = tmp_path / "abc.graph"
    abc.write_text("u a w n\nw c z n\nz b y n\n")
    argvs = []
    for path in (ab, abc, ab):
        argvs += [["answers", "--graph", str(path), "--query", "(x, . ., y)"],
                  ["shapley", "--graph", str(path), "--query", "(x, . ., y)", "--bind", "x=u,y=z",
                   "--format", "csv"]]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = "import sys; from pathshap import cli; sys.exit(cli.main())"
    outputs = []
    for argv in argvs:
        fresh = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env)
        out = io.StringIO()
        code = cli.main(argv, out=out)
        assert (code, out.getvalue(), capsys.readouterr().err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        outputs.append(out.getvalue())
    assert outputs[0] == "u\tz\n" and outputs[2] == "u\tz\nw\ty\n"
    assert outputs[:2] == outputs[4:]


def test_default_budget_and_cap_are_read_when_the_command_runs(fig_graph_text, monkeypatch):
    graph = str(fig_graph_text)
    nonzero = ["nonzero", "--graph", graph, "--query", "(x, .*, y)", "--bind", "x=v1,y=v6", "--focus", "v4->v3"]
    answers = ["answers", "--graph", graph, "--query", "(x, .*, y)"]
    assert run(nonzero) == (0, "true\n")
    assert run(answers)[0] == 0
    monkeypatch.setattr(explain, "LINEAGE_BUDGET", 1)
    monkeypatch.setattr(query, "ANSWER_CAP", 1)
    assert run(nonzero) == (5, "unknown\n")
    assert run(answers) == (3, "")


# --- answers ----------------------------------------------------------------

def test_answers_sorted_rows(fig_graph_text):
    code, out = run(["answers", "--graph", str(fig_graph_text), "--query", "(x, a b*, y)"])
    assert code == 0
    rows = [tuple(line.split("\t")) for line in out.splitlines()]
    assert ("v1", "v6") in rows and ("v4", "v3") in rows
    assert rows == sorted(rows)


def test_answers_overflow_exit_3(fig_graph_text):
    code, _ = run(
        ["answers", "--graph", str(fig_graph_text), "--query", "(x, .*, y)", "--cap", "3"]
    )
    assert code == 3


def test_answers_default_cap_is_not_the_player_cap(tmp_path):
    # a 10-vertex a-chain has 55 answers of (x, a*, y), more than the
    # 22 players that shapley once capped exact requests at
    path = tmp_path / "chain10.graph"
    path.write_text("".join(f"u{i} a u{i + 1} n\n" for i in range(9)))
    code, out = run(["answers", "--graph", str(path), "--query", "(x, a*, y)"])
    assert code == 0
    assert len(out.splitlines()) == 55


# --- shapley ----------------------------------------------------------------

def test_shapley_table_golden(fig_graph_text):
    code, out = run(
        [
            "shapley",
            "--graph", str(fig_graph_text),
            "--query", "(x, a b c, y)",
            "--bind", "x=v1,y=v6",
        ]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "id\tvalue\tmethod"
    # positive values first (sorted descending), zeros after
    assert lines[1].startswith("v1->v3\t1/3")
    assert lines[2].startswith("v3->v5\t1/3")
    assert lines[3].startswith("v5->v6\t1/3")
    assert all("\t0\t" in line for line in lines[4:])


def test_shapley_json_validates_schema(fig_graph_text):
    code, out = run(
        [
            "shapley",
            "--graph", str(fig_graph_text),
            "--query", "(x, a b*, y)",
            "--bind", "x=v1,y=v6",
            "--format", "json",
        ]
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    values = {row["id"]: row["value"] for row in payload["players"]}
    assert values["v1->v2"] == "7/12"
    assert values["v2->v6"] == "1/4"
    assert values["v2->v4"] == values["v4->v6"] == "1/12"


def test_shapley_sampled_json_validates_schema(chain_file):
    code, out = run(
        [
            "shapley",
            "--graph", chain_file,
            "--query", "(x, a b c, y)",
            "--bind", "x=u1,y=u4",
            "--mode", "approx-additive",
            "--eps", "0.2",
            "--delta", "0.1",
            "--seed", "7",
            "--format", "json",
        ]
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["method"] == "mc-additive"
    for row in payload["players"]:
        assert row["samples"] == 38  # ceil(ln(20) / (2 * 0.04))
        assert row["seed"] == 7
        assert abs(row["value"] - 1 / 3) <= 0.2


def test_shapley_csv_format(chain_file):
    code, out = run(
        [
            "shapley",
            "--graph", chain_file,
            "--query", "(x, a b, y)",
            "--bind", "x=u1,y=u3",
            "--format", "csv",
        ]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "id,value,method"
    assert lines[1] == "u1->u2,1/2,exact-lineage"
    assert lines[2] == "u2->u3,1/2,exact-lineage"


def test_shapley_vertex_kind(chain_file):
    code, out = run(
        [
            "shapley",
            "--graph", chain_file,
            "--query", "(x, a b c, y)",
            "--bind", "x=u1,y=u4",
            "--player-kind", "vertex",
            "--format", "csv",
        ]
    )
    assert code == 0
    lines = out.splitlines()
    assert all(line.endswith("1/4,exact-lineage") for line in lines[1:5])


def test_shapley_multiplicative_infinite_exit_4(fig_graph_text):
    code, _ = run(
        [
            "shapley",
            "--graph", str(fig_graph_text),
            "--query", "(x, a b*, y)",
            "--bind", "x=v1,y=v6",
            "--mode", "approx-multiplicative",
        ]
    )
    assert code == 4


def test_shapley_exact_over_cap_exit_3(monkeypatch, fig_graph_text):
    """Exit 3 is for answers alone: the step budget, not a player cap,
    bounds an exact request, which exits 5 over it."""
    argv = [
        "shapley",
        "--graph", str(fig_graph_text),
        "--query", "(x, a b c, y)",
        "--bind", "x=v1,y=v6",
        "--mode", "exact",
    ]
    assert run(argv)[0] == 0
    monkeypatch.setattr(explain, "LINEAGE_BUDGET", 3)
    assert run(argv) == (5, "")


@pytest.mark.parametrize("mode", ["exact", "approx-additive"])
def test_shapley_nan_eps_exit_2(fig_graph_text, mode, capsys):
    code, out = run(
        [
            "shapley",
            "--graph", str(fig_graph_text),
            "--query", "(x, a b c, y)",
            "--bind", "x=v1,y=v6",
            "--mode", mode,
            "--eps", "nan",
        ]
    )
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: eps must be positive and finite and delta must lie in (0, 1)\n"


def test_a_tiny_delta_samples_a_finite_count(fig_graph_text):
    """2/delta overflows at delta 1e-308, and the count is still ln(2/delta)/(2 eps^2)."""
    code, out = run(["shapley", "--graph", str(fig_graph_text), "--query", "(x, a b c, y)", "--bind", "x=v1,y=v6",
                     "--mode", "approx-additive", "--delta", "1e-308", "--format", "json"])
    assert code == 0
    assert {row["samples"] for row in json.loads(out)["players"]} == {141978}


# --- nonzero ----------------------------------------------------------------

def test_nonzero_verdicts(fig_graph_text):
    base = [
        "nonzero",
        "--graph", str(fig_graph_text),
        "--query", "(x, .*, y)",
        "--bind", "x=v1,y=v6",
    ]
    assert run(base + ["--focus", "v4->v3"]) == (0, "true\n")
    code, out = run(base + ["--focus", "v9->v9"])
    assert code == 2


def test_nonzero_builds_out_lists_once(monkeypatch, fig_graph_text):
    builds = []

    def counted_out_lists(g, need, original=query.out_lists):
        builds.append(g)
        return original(g, need)

    monkeypatch.setattr(explain, "out_lists", counted_out_lists)
    argv = ["nonzero", "--graph", str(fig_graph_text), "--query", "(x, .*, y)", "--bind", "x=v1,y=v6"]
    assert run(argv + ["--focus", "v4->v3"]) == (0, "true\n")
    assert len(builds) == 1


def test_nonzero_false_for_stray_edge(tmp_path):
    path = tmp_path / "stray.graph"
    path.write_text(CHAIN3 + "u5 a u6 n\n")
    code, out = run(
        [
            "nonzero",
            "--graph", str(path),
            "--query", "(x, .*, y)",
            "--bind", "x=u1,y=u4",
            "--focus", "u5->u6",
        ]
    )
    assert (code, out) == (0, "false\n")


def test_shapley_over_trial_cap_exit_5(monkeypatch, tmp_path):
    # auto counts this lineage of 23 players unless its budget is cut
    monkeypatch.setattr(explain, "LINEAGE_BUDGET", 2)
    path = tmp_path / "strays.graph"
    path.write_text(CHAIN3 + "".join(f"w{i} a w{i + 1} n\n" for i in range(20)))
    argv = ["shapley", "--graph", str(path), "--query", "(x, a b c, y)", "--bind", "x=u1,y=u4"]
    code, out = run(argv + ["--mode", "approx-multiplicative"])
    assert (code, out) == (5, "")
    code, out = run(argv + ["--format", "json"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["method"] == "mc-additive"
    assert report["flags"][0].startswith("no-multiplicative-guarantee:trials=")


def test_shapley_short_words_over_the_step_budget_exit_5(monkeypatch, chain_file, capsys):
    # the lineage step budget bounds a request: over it exact exits 5 and
    # auto samples
    argv = ["shapley", "--graph", chain_file, "--query", "(x, a b, y)", "--bind", "x=u1,y=u3", "--format", "csv"]
    monkeypatch.setattr(explain, "LINEAGE_BUDGET", 2)
    assert run(argv + ["--mode", "exact"]) == (5, "")
    assert capsys.readouterr().err.startswith("error: ")
    code, out = run(argv)
    assert code == 0
    assert {line.split(",")[2] for line in out.splitlines()[1:]} == {"mc-multiplicative"}


def test_nonzero_unknown_on_budget_exit_5(fig_graph_text):
    code, out = run(
        [
            "nonzero",
            "--graph", str(fig_graph_text),
            "--query", "(x, .*, y)",
            "--bind", "x=v1,y=v6",
            "--focus", "v4->v3",
            "--budget", "1",
        ]
    )
    assert (code, out) == (5, "unknown\n")


def test_nonzero_default_budget_gives_a_dense_graph_its_verdict(tmp_path):
    """A random 12-vertex 40-edge graph whose lineage search takes about
    2.3 M steps: at the former default of 10^6 steps it prints unknown, at
    the default it gets its verdict."""
    g = random_labeled_graph(random.Random(0), 12, 40, exo_prob=0.0)
    path = tmp_path / "dense.graph"
    path.write_text("".join(f"{e.source} {e.label} {e.target} n\n" for e in g.edges))
    argv = ["nonzero", "--graph", str(path), "--query", "(x, (a|b)* b, y)", "--bind", "x=u0,y=u1",
            "--focus", min(g.endo_edges)]
    assert run(argv) == (0, "false\n")
    assert run(argv + ["--budget", "1000000"]) == (5, "unknown\n")


def test_nonzero_false_for_an_edge_only_on_non_minimal_walks(tmp_path):
    # the b-loop on u2 lies on winning walks, but none of them is minimal
    path = tmp_path / "loop.graph"
    path.write_text(CHAIN3 + "u2 b u2 n\n")
    argv = ["nonzero", "--graph", str(path), "--query", "(x, a b* c, y)", "--bind", "x=u1,y=u4"]
    assert run(argv + ["--focus", "u2->u2"]) == (0, "false\n")
    assert run(argv + ["--focus", "u2->u3"]) == (0, "true\n")


def test_nonzero_false_when_the_exogenous_part_answers(tmp_path):
    # the lineage is [0]: every coalition wins without the focus
    path = tmp_path / "exo.graph"
    path.write_text("u1 a u2 x\nu2 b u3 x\nu1 b u3 n\n")
    argv = ["nonzero", "--graph", str(path), "--query", "(x, a b | b, y)", "--bind", "x=u1,y=u3"]
    assert run(argv + ["--focus", "u1->u3"]) == (0, "false\n")


def test_nonzero_requires_focus(fig_graph_text):
    code, _ = run(
        [
            "nonzero",
            "--graph", str(fig_graph_text),
            "--query", "(x, .*, y)",
            "--bind", "x=v1,y=v6",
        ]
    )
    assert code == 2


# --- determinism ------------------------------------------------------------

def test_sampled_reports_byte_identical(chain_file):
    argv = [
        "shapley",
        "--graph", chain_file,
        "--query", "(x, a b c, y)",
        "--bind", "x=u1,y=u4",
        "--mode", "approx-additive",
        "--eps", "0.2",
        "--delta", "0.1",
        "--seed", "123",
        "--format", "json",
    ]
    assert run(argv) == run(argv)
    different = run(argv[:-3] + ["124", "--format", "json"])
    assert different != run(argv)


# --- the report renderer against json.dumps ------------------------------------

def _report_and_reference(argv, monkeypatch):
    """``shapley --format json``'s output, and the reference rendering of
    the report it printed."""
    reports = []
    render = cli._render_report
    monkeypatch.setattr(cli, "_render_report",
                        lambda report, fmt, out: reports.append(report) or render(report, fmt, out))
    code, out = run(argv + ["--format", "json"])
    assert code == 0
    return out, reference_report(reports[0], "json")


STRAYS = CHAIN3 + "".join(f"w{i} a w{i + 1} n\n" for i in range(20))
QUOTED = 'a"1 a b\\2 n\nb\\2 b \u00fc3 n\n\u00fc3 c \u00e9\u4e2d n\n'


@pytest.mark.parametrize("graph, argv, flags", [
    (None, ["--query", "(x, a b*, y)", "--bind", "x=v1,y=v6"], []),
    (CHAIN3, ["--query", "(x, a b c, y)", "--bind", "x=u1,y=u4", "--mode", "approx-additive",
              "--eps", "0.2", "--delta", "0.1", "--seed", "7"], []),
    # a null player: never a pivot, it reads 0
    (CHAIN3 + "u4 a u5 n\n", ["--query", "(x, a b c, y)", "--bind", "x=u1,y=u4",
                               "--mode", "approx-multiplicative", "--eps", "0.5", "--delta", "0.05"], []),
    (CHAIN3, ["--query", "(x, a b, y)", "--bind", "x=u1,y=u3", "--mode", "approx-additive",
              "--eps", "1.5"], []),
    ("u1 a u2 x\nu2 b u3 x\nu1 b u3 n\n", ["--query", "(x, a b, y)", "--bind", "x=u1,y=u3"],
     ["answer-exogenous"]),
    (None, ["--query", "(x, {}, y)", "--bind", "x=v1,y=v6"], ["empty-language-atom"]),
    # an empty atom empties the lineage beside an infinite one too
    (None, ["--query", "(x, a*, y) & (y, {}, z)", "--bind", "x=v1,y=v2,z=v6", "--mode", "approx-multiplicative"],
     ["empty-language-atom"]),
    (STRAYS, ["--query", "(x, a b c, y)", "--bind", "x=u1,y=u4"], ["no-multiplicative-guarantee:trials="]),
    (None, ["--query", "(x, a b*, y)", "--bind", "x=v1,y=v6", "--focus", "v2->v6"], []),
    (QUOTED, ["--query", "(x, a b c, y)", "--bind", 'x=a"1,y=\u00e9\u4e2d'], []),
    (QUOTED, ["--query", "(x, a b c, y)", "--bind", 'x=a"1,y=\u00e9\u4e2d', "--player-kind", "vertex",
              "--mode", "approx-additive", "--eps", "0.3", "--delta", "0.2"], []),
], ids=["exact", "additive", "multiplicative", "eps-above-one", "answer-exogenous", "empty-language-atom",
        "empty-language-atom-multiplicative", "no-multiplicative-guarantee", "focus", "quoted-ids", "quoted-ids-sampled"])
def test_json_report_is_json_dumps_byte_for_byte(graph, argv, flags, fig_graph_text, tmp_path, monkeypatch):
    if graph == STRAYS:
        # auto counts the strays' lineage of 23 players unless its budget is cut
        monkeypatch.setattr(explain, "LINEAGE_BUDGET", 2)
    path = fig_graph_text
    if graph is not None:
        path = tmp_path / "g.graph"
        path.write_text(graph, encoding="utf-8")
    out, reference = _report_and_reference(["shapley", "--graph", str(path)] + argv, monkeypatch)
    assert out == reference
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert len(report["flags"]) == len(flags)
    assert all(flag.startswith(prefix) for flag, prefix in zip(report["flags"], flags))
    if graph == QUOTED:
        # escaped as json.dumps escapes them: \" and \\, and non-ASCII as \uXXXX
        assert '"a\\"1' in out and "b\\\\2" in out and "\\u00e9\\u4e2d" in out and out.isascii()


def test_report_renderer_writes_a_multiplicative_null_estimate_as_zero():
    values = {
        "e1": game.SampledEstimate(3, 1000, 1.5, 0.05, 4),
        "e2": game.SampledEstimate(997, 1000, 1.5, 0.05, 4),
        "e0": game.SampledEstimate(0, 1000, 1.5, 0.05, 4),
    }
    report = game.ShapleyReport("mc-multiplicative", values, ())
    for fmt in ("json", "csv", "table"):
        out = io.StringIO()
        cli._render_report(report, fmt, out)
        assert out.getvalue() == reference_report(report, fmt)
    rows = json.loads(reference_report(report, "json"))["players"]
    assert [(row["value"], row["eps"]) for row in rows] == [(0.997, 1.5), (0.003, 1.5), (0.0, 1.5)]


@st.composite
def reports(draw):
    """Reports of every method, their values drawn from few fractions so
    that ties are common, their ids any text."""
    method = draw(st.sampled_from(["exact-lineage", "mc-additive", "mc-multiplicative"]))
    ids = draw(st.lists(st.text(max_size=6), unique=True, max_size=12))
    samples = draw(st.integers(1, 12))
    eps, delta, seed = draw(st.floats(1e-6, 1e6)), draw(st.floats(1e-6, 0.99)), draw(st.integers(0, 2**40))
    values = {}
    for player in ids:
        if method == "exact-lineage":
            values[player] = draw(st.fractions(0, 1, max_denominator=6))
            continue
        values[player] = game.SampledEstimate(draw(st.integers(0, samples)), samples, eps, delta, seed)
    flags = draw(st.lists(st.sampled_from(["no-multiplicative-guarantee", "answer-exogenous", "empty-language-atom",
                                           "no-multiplicative-guarantee:trials=inf", 'a "quoted" \\ \u00fc flag']),
                          max_size=3))
    return game.ShapleyReport(method, values, tuple(flags))


@given(reports())
@example(game.ShapleyReport("exact-lineage", {}, ()))
@example(game.ShapleyReport("exact-lineage", {"b": Fraction(1, 3), "a": Fraction(2, 6), "c": Fraction(0)}, ()))
@settings(max_examples=300, deadline=None)
def test_integer_sort_key_orders_rows_like_the_fractions(report):
    """The integer keys rank rows by (-value, id), ties included, and every
    format prints what the reference renderer prints."""
    def exact(value):
        return value if isinstance(value, Fraction) else value.value

    ranked = [player for player, _ in cli._ranked(report)]
    assert ranked == sorted(report.values, key=lambda p: (-exact(report.values[p]), p))
    for fmt in ("json", "csv", "table"):
        out = io.StringIO()
        cli._render_report(report, fmt, out)
        assert out.getvalue() == reference_report(report, fmt)
        if fmt == "json":
            jsonschema.validate(json.loads(out.getvalue()), SCHEMA)
