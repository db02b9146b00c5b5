#!/usr/bin/env python3
"""One-shot timing of the ROADMAP re-anchor table; not a gated workload.

    python3 perfbench/reanchor.py

Times each case once through ``pathshap.cli.main``, checks its report like
the benchmark does, and prints one row per case: the 18-edge exact-subset
run, exact-poly fans of 41, 81 and 161 players (20, 40 and 80 branches, the
closed-form counter), and the cost per Monte-Carlo trial on the running
example.  Takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import io
import random
import sys
import time

import run


SEED = 1


def main() -> int:
    if not (run.SRC / "pathshap" / "__init__.py").is_file():
        print(f"error: no pathshap sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from pathshap import cli
    import checks
    import workloads

    directory = run.WORK / "reanchor"
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"perfbench:reanchor:{SEED}")
    cases = []
    text, mu = workloads.sweep_graph(rng, "edge", 18, 1.0)
    request = workloads.sweep_request("sweep18.graph", "edge", mu, {})
    cases.append(("18-edge random graph, (x, (a|b)* c, y), exact-subset", text, request, None))
    for branches in (20, 40, 80):
        name = f"fan{branches}.graph"
        text = workloads.fan_text(branches, False, [f"m{i}" for i in range(branches)])
        request = workloads.Request(
            workloads.shapley_argv(name, workloads.FAN_QUERY, {"x": "s", "y": "t"},
                                   "--mode", "exact", "--format", "json"),
            name, {"kind": "exact", "sum": 1, "fan": branches})
        cases.append((f"exact-poly fan, {2 * branches + 1} players", text, request, None))
    eps, delta = workloads.MC_ADDITIVE["eps"], workloads.MC_ADDITIVE["delta"]
    request = workloads.Request(
        workloads.shapley_argv("running.graph", "(x, a b c, y)", {"x": "v1", "y": "v6"},
                               "--mode", "approx-additive", "--eps", repr(eps), "--delta", repr(delta),
                               "--seed", str(SEED), "--format", "json"),
        "running.graph", {"kind": "approx-additive", "seed": SEED, **workloads.MC_ADDITIVE})
    trials = 9 * checks.hoeffding_trials(eps, delta)
    cases.append(("MC trial, running example, all 9 players", workloads.RUNNING_EXAMPLE, request, trials))

    checker = checks.Checker(run.load_oracle())
    ok = True
    print(f"{'case':58} {'time':>12}  check")
    for label, text, request, per in cases:
        (directory / request.graph).write_text(text)
        argv = [str(directory / a) if a == request.graph else a for a in request.argv]
        out = io.StringIO()
        start = time.perf_counter()
        code = cli.main(argv, out=out)
        elapsed = time.perf_counter() - start
        problems = [f"exit code {code}"] if code else checker.check(argv, request.check, out.getvalue())
        ok = ok and not problems
        shown = f"{elapsed / per * 1e6:9.1f} us" if per else f"{elapsed:10.3f} s"
        print(f"{label:58} {shown:>12}  {'; '.join(problems) or 'ok'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
