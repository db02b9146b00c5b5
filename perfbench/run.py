#!/usr/bin/env python3
"""Seeded request benchmark for the ``pathshap`` CLI.

One workload per run::

    python3 perfbench/run.py --workload subset-sweep --seed 1 --seconds 28 --trace 0

All four workloads, with a table of every metric by name and unit::

    python3 perfbench/run.py --all --seed 1 [--seconds 28] [--trace 1]

Run from the root of a checkout: the program is imported from ``src/`` and
the inputs are written under ``.perfbench-work/``.  One client in this
process sends requests in a closed loop (the next one only after the
previous one returned), each through ``pathshap.cli.main(argv, out=StringIO)``
on graph files the set-up wrote, so every request crosses every layer the
way a user's request does.  The loop repeats one fixed pass over the
workload's requests until the pass boundary nearest to ``--seconds``.  A
request's latency is the lowest of its passes (see ``README.md``).

``--trace 0`` reports the end-to-end metrics (see ``BENCHMARK.json``);
``--trace 1`` sends every request twice, once untraced and once traced, and
reports the per-layer split (see ``tracing.py`` and ``README.md``).  Outputs
are checked after the timed loop (see ``checks.py``).  The last line of
standard output is one JSON object; the exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 9

# A set-up probe: a fresh interpreter that imports the program and sends the
# warm-up requests listed in a manifest, and nothing else.
PROBE = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
from pathshap import cli
for argv in json.load(open(sys.argv[2])):
    if cli.main(argv, out=io.StringIO()) != 0:
        sys.exit(f"warm-up request failed: {argv}")
"""


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="workload name")
    p.add_argument("--all", action="store_true", help="run every workload and print a table")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def load_oracle():
    """``brute_shapley`` from the test oracles in ``tests/helpers.py``."""
    spec = importlib.util.spec_from_file_location("pathshap_test_helpers", ROOT / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.brute_shapley


# --- set-up --------------------------------------------------------------------

def prepare(workload: str, seed: int, directory: Path, scale: float = 1.0):
    """Generate and write the inputs plus the warm-up manifest.

    Returns the instance set, the manifest path and the timed and check
    request lists with file paths filled in."""
    import workloads

    instances = workloads.generate(workload, seed, scale)
    instances.write(directory)

    def resolve(request):
        return [str(directory / a) if a == request.graph else a for a in request.argv]

    manifest = directory / "warmup.json"
    manifest.write_text(json.dumps([resolve(r) for r in instances.warmup]))
    timed = [(resolve(r), r) for r in instances.requests]
    checks = [(resolve(r), r) for r in instances.checks]
    return instances, manifest, timed, checks


class SetupProbes:
    """Seconds from starting a fresh interpreter until it could send the
    first timed request (import and warm-up), one per probe.

    Called between two requests of the timed loop, it runs a probe when
    ``every`` seconds passed since the last one, so that the probes spread
    over the whole run instead of one moment of the host's load.  A probe
    lies outside every request's latency.  ``speed`` samples the host's
    speed right before and after each probe."""

    def __init__(self, manifest: Path, every: float, speed: calibrate.HostSpeed):
        self.manifest = manifest
        self.every = every
        self.speed = speed
        self.probes: list[tuple[int, int]] = []  # (start ns, ns)
        self._next = 0.0

    def __call__(self) -> None:
        if time.perf_counter() < self._next:
            return
        self.speed.sample()
        start = time.perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(self.manifest)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        elapsed = time.perf_counter_ns() - start
        self.speed.sample()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        self.probes.append((start, elapsed))
        self._next = time.perf_counter() + self.every

    def seconds(self, factor=None) -> list[float]:
        """Each probe's time, multiplied by ``factor(start_ns, end_ns)`` when given."""
        return [elapsed / 1e9 * (factor(start, start + elapsed) if factor else 1.0)
                for start, elapsed in self.probes]


# --- the closed loop -------------------------------------------------------------

EXACT_CHECK = {"kind": "exact"}


def _untimed() -> None:
    pass


class Client:
    """Sends requests one after another, once per mode, and keeps the start
    and latency of every send per mode, the order in which requests were
    sent, and (argv, check, exit code, output, mode) of every send for the
    checks after the loop.

    ``modes`` maps a mode name to (call, install, uninstall); install and
    uninstall run outside the timed region.  With two modes the order
    alternates from one request to the next.  ``between()`` runs before each
    request, outside its latency."""

    def __init__(self, modes: dict, between=_untimed):
        self.modes = modes
        self.between = between
        self.timings: dict[str, list[tuple]] = {name: [] for name in modes}  # (key, start ns, ns)
        self.sent: list[tuple] = []
        self.records: list[tuple] = []
        # one copy of each distinct argv and output, so that memory does not
        # grow with the number of passes
        self._interned: dict = {}

    def send(self, argv, check: dict) -> None:
        self.between()
        key = self._interned.setdefault(tuple(argv), tuple(argv))
        names = list(self.modes)
        if len(self.sent) % 2:
            names.reverse()
        self.sent.append(key)
        for name in names:
            call, install, uninstall = self.modes[name]
            install()
            out = io.StringIO()
            start = time.perf_counter_ns()
            try:
                code = call(argv, out)
            except SystemExit as exc:
                code = f"exit {exc.code}"
            except Exception:
                code = traceback.format_exc(limit=3)
            elapsed = time.perf_counter_ns() - start
            uninstall()
            self.timings[name].append((key, start, elapsed))
            text = self._interned.setdefault(out.getvalue(), out.getvalue())
            self.records.append((key, check, code, text, name))
        if check.get("kind") == "answers" and code == 0:
            # the explain-every-answer flow: one exact report per listed answer
            for line in text.splitlines():
                bind = ",".join(f"{v}={x}" for v, x in zip(check["variables"], line.split("\t")))
                self.send(["shapley"] + argv[1:5] + ["--bind", bind] + check["explain"], EXACT_CHECK)

    def run(self, timed, seconds: float) -> list[tuple]:
        """Repeats the pass over ``timed`` until the pass boundary nearest to
        ``seconds``, assuming each pass as long as the last one, and at least
        twice, so that every request has a second chance at its lowest
        latency; returns the requests of one pass, in the order they were
        sent."""
        start = time.perf_counter()
        passes = 0
        while True:
            pass_start = time.perf_counter()
            first = len(self.sent)
            for argv, request in timed:
                self.send(argv, request.check)
            passes += 1
            now = time.perf_counter()
            if passes >= 2 and now - start + (now - pass_start) / 2 >= seconds:
                return self.sent[first:]

    def latencies_ms(self, mode: str, one_pass: list[tuple], factor=None) -> list[float]:
        """Lowest latency of each request of a pass over all its sends, in
        milliseconds, each send's latency multiplied by
        ``factor(start_ns, end_ns)`` first when given."""
        best: dict[tuple, float] = {}
        for key, start, elapsed in self.timings[mode]:
            ms = elapsed / 1e6 * (factor(start, start + elapsed) if factor else 1.0)
            best[key] = min(ms, best.get(key, ms))
        return [best[key] for key in one_pass]


# --- checks ------------------------------------------------------------------------

def check_records(records, extra_checks) -> tuple[int, int, list[str]]:
    """Checks every recorded output, plus the oracle requests; returns
    (attempted, failed, problems)."""
    import checks
    from pathshap import cli

    checker = checks.Checker(load_oracle())
    client = Client({"check": (lambda argv, out: cli.main(argv, out=out), _untimed, _untimed)})
    for argv, request in extra_checks:
        client.send(argv, request.check)
    all_records = list(records) + client.records
    by_argv: dict[tuple, set[str]] = {}
    for argv, _, code, text, _ in all_records:
        by_argv.setdefault(tuple(argv), set()).add(text)
    verdicts: dict[tuple, list[str]] = {}
    problems = []
    failed = 0
    for argv, check, code, text, _ in all_records:
        key = (tuple(argv), text)
        if key not in verdicts:
            found = [] if code == 0 else [f"exit code {code}"]
            if len(by_argv[tuple(argv)]) > 1:
                found.append("different outputs for identical requests")
            if code == 0:
                found += checker.check(argv, check, text)
            verdicts[key] = found
            problems += [f"{' '.join(argv[:1] + argv[3:])}: {p}" for p in found]
        failed += bool(verdicts[key])
    shares = checker.finish()
    if shares:
        problems += shares
        failed += sum(1 for _, check, _, _, _ in all_records if check.get("kind") in checker.tally)
    return len(all_records), min(failed, len(all_records)), problems


# --- metrics -------------------------------------------------------------------------

def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond
    it, and that percentile."""
    ordered = sorted(latencies_ms)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def timing_metrics(latencies_ms: list[float], setup_seconds: list[float]) -> dict[str, tuple[float, str]]:
    """The timed end-to-end metrics from the latencies of one pass and the
    set-up probes."""
    return {
        "throughput_rps": (1e3 * len(latencies_ms) / sum(latencies_ms), "1/s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_tail_ms": (tail(latencies_ms)[0], "ms"),
        "setup_s": (statistics.median(setup_seconds), "s"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 scale: float = 1.0, probes: int = SETUP_PROBES, log=print) -> dict:
    import pathshap
    from pathshap import cli
    import tracing

    directory = WORK / f"{workload}-{seed}"
    instances, manifest, timed, extra_checks = prepare(workload, seed, directory, scale)
    log(f"# {workload} seed={seed} digest={instances.digest()} requests per pass={len(timed)}")
    for argv in json.loads(manifest.read_text()):
        if cli.main(argv, out=io.StringIO()) != 0:
            raise RuntimeError(f"warm-up request failed: {argv}")

    def call(argv, out):
        return cli.main(argv, out=out)

    if trace == 0:
        speed = calibrate.HostSpeed()
        setup = SetupProbes(manifest, seconds / probes, speed)

        def between():
            speed()
            setup()

        client = Client({"untraced": (call, _untimed, _untimed)}, between)
        one_pass = client.run(timed, seconds)
        speed.sample()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, problems = check_records(client.records, extra_checks)
        latencies = client.latencies_ms("untraced", one_pass, speed.factor)
        metrics = timing_metrics(latencies, setup.seconds(speed.factor))
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        unscaled = timing_metrics(client.latencies_ms("untraced", one_pass), setup.seconds())
        tail_pct = tail(latencies)[1]
        log(f"# {len(client.sent) // len(one_pass)} passes of {len(one_pass)} requests; "
            f"latency_tail_ms is p{tail_pct:.1f} of {len(latencies)}; "
            f"setup probes {[round(t, 3) for t in setup.seconds()]}")
        log(f"# host speed: kernel median {speed.median_ms():.4f} ms over {len(speed.kernels_ns)} samples; "
            "unscaled " + ", ".join(f"{k} {v:.4f}" for k, (v, _) in unscaled.items()))
    else:
        tracer = tracing.Tracer(pathshap)
        client = Client({
            "untraced": (call, _untimed, _untimed),
            "traced": (tracer.call, tracer.install, tracer.uninstall),
        })
        one_pass = client.run(timed, seconds)
        tracer.write(directory / "spans.jsonl")
        attempted, failed, problems = check_records(client.records, extra_checks)
        traced = [text for _, _, _, text, mode in client.records if mode == "traced"]
        fallbacks = sum("non-disjoint-fallback" in text for text in traced)
        metrics = tracer.layer_metrics(len(traced), fallbacks)
        untraced_ms = sum(client.latencies_ms("untraced", one_pass))
        metrics["trace.overhead"] = (untraced_ms / sum(client.latencies_ms("traced", one_pass)), "ratio")
        log(f"# {len(traced)} requests each traced and untraced; spans in {directory / 'spans.jsonl'}")
    for problem in problems[:20]:
        log(f"# CHECK FAILED {problem}")
    log(f"# error_ratio {failed / attempted:.6f} ({failed}/{attempted})")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; prints each metric by name and unit."""
    import workloads

    ok = True
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{workload}: no result (exit code {proc.returncode})")
            ok = False
            continue
        ok = ok and proc.returncode == 0 and result["correct"]
        for name, metric in result["metrics"].items():
            print(f"{workload:16} {name:28} {metric['value']:14.4f} {metric['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{workload:16} {'error_ratio':28} {ratio:14.4f} ratio ({result['failed']}/{result['attempted']})")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "pathshap" / "__init__.py").is_file():
        print(f"error: no pathshap sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
