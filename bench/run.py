"""bva benchmark: times the `bva` commands users run, on two workloads.

One run, from the root of a checkout:

    python3 bench/run.py --workload planted-pa6k --seed 1 --seconds 55 --trace 0

sets the workload's inputs up several times (``setup_s`` is the median),
then runs whole rounds of the workload's command sequence as subprocesses
for at most ``--seconds`` (it starts no round it expects to end later),
and reports the median round. The first round's outputs are checked
against computations made apart from the program (see checks.py); later
rounds must reproduce them byte for byte.
With ``--trace 1`` it runs one untraced round and then the same commands
in-process with every layer call timed (see tracing.py), and reports the
per-layer metrics instead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Every workload, several seeds each, with the spread of every metric:

    python3 bench/run.py --repeat 10 [--workload NAME]

An operation is one `bva` command run, or one community handed to the
walker; a command that exits non-zero or a community that is not connected
counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import (PIPELINE_SEED, WINDOW_SECONDS, WORKLOADS, Inputs, Workload,
                       bva_command, bva_env, set_up)

SETUP_REPEATS = 5
OVERLAP_MAX_K = 200
ROOT = Path.cwd()
WORK = ROOT / ".bench_work"


def commands(w: Workload, inputs: Inputs, out: Path,
             threads: int = 1) -> list[tuple[str, list[str]]]:
    graph = str(inputs.graph)
    seed = str(PIPELINE_SEED)
    cmds = [("pipeline", ["pipeline", "--input", graph, "--out", str(out), "--seed", seed,
                          "--threads", str(threads)])]
    if w.evaluate:
        cmds += [
            ("betweenness", ["betweenness", "--input", graph, "--out", str(out)]),
            ("overlap", ["overlap", "--a", str(out / "scores.csv"),
                         "--b", str(out / "betweenness.csv"),
                         "--max-k", str(OVERLAP_MAX_K), "--out", str(out)]),
            ("temporal", ["temporal", "--input", graph, "--events", str(inputs.events),
                          "--seed", seed, "--window", str(WINDOW_SECONDS), "--out", str(out)]),
        ]
    return cmds


def run_command(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Run one `bva` command; returns wall seconds, the child's peak RSS in MB, exit code."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(bva_command(*argv), env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_round(w: Workload, inputs: Inputs, out: Path, env: dict) -> dict:
    out.mkdir(parents=True)
    times, peaks, codes = {}, [], {}
    start = time.perf_counter()
    for name, argv in commands(w, inputs, out):
        times[name], peak, codes[name] = run_command(argv, env, out.parent / f"{out.name}.log")
        peaks.append(peak)
    return {"run_s": time.perf_counter() - start, "pipeline_s": times["pipeline"],
            "peak_rss_mb": max(peaks), "codes": codes}


def output_digests(out: Path) -> dict[str, str]:
    """sha256 of every output file; the manifest is left out, as it records timings."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def check_outputs(w: Workload, inputs: Inputs, out: Path, report: checks.Report):
    g = checks.read_edges(inputs.graph)
    manifest = json.loads((out / "manifest.json").read_text())
    scores = checks.read_rows(out / "scores.csv")
    labels = checks.by_node(g, checks.read_rows(out / "communities.csv"), 1, int)
    comm = checks.check_communities(g, labels, manifest, report)
    boundary = checks.check_boundary(g, comm, checks.read_rows(out / "boundary.csv"), report)
    checks.check_scores(g, comm, boundary, checks.by_node(g, scores, 1, float), manifest,
                        report)
    if w.evaluate:
        betweenness = checks.by_node(g, checks.read_rows(out / "betweenness.csv"), 1, float)
        checks.check_betweenness(g, betweenness, report)
        checks.check_overlap(g, checks.by_node(g, scores, 2, float), betweenness,
                             checks.read_rows(out / "overlap.csv"), OVERLAP_MAX_K, report)
        checks.check_temporal(g, boundary, inputs.event_stamps, inputs.event_nodes,
                              WINDOW_SECONDS, inputs.burst_windows,
                              checks.read_rows(out / "temporal.csv"),
                              json.loads((out / "spikes.json").read_text()), report)
    report.figures.update({
        "community.disconnected": comm.disconnected,
        "community.fragments": comm.fragments,
        "walker.unconverged": sum(not ok for ok in manifest["converged"].values()),
    })
    return comm


def layer_metrics(tracer: tracing.Tracer, round_s: float, untraced_run_s: float, comm,
                  out: Path) -> dict:
    c = tracer.counts
    m = {name: (tracer.inclusive(spans), "s") for name, spans in tracing.TIMED.items()}
    m.update({
        "graph.load_edges_per_s": (c["graph.load_edges"] / m["graph.load_s"][0]
                                   if m["graph.load_s"][0] else 0.0, "1/s"),
        "community.louvain_passes": (c["community.louvain_passes"], "count"),
        "community.communities": (c["community.communities"], "count"),
        "community.disconnected": (comm.disconnected, "count"),
        "boundary.nodes": (c["boundary.nodes"], "count"),
        "boundary.edges": (c["boundary.edges"], "count"),
        "walker.walks": (c["walker.walks"], "count"),
        "walker.batches": (c["walker.batches"], "count"),
        "walker.unconverged": (c["walker.unconverged"], "count"),
        "walker.walks_per_s": (c["walker.walks"] / m["walker.bva_s"][0]
                               if m["walker.bva_s"][0] else 0.0, "1/s"),
        "walker.psrf_cells": (c["walker.psrf_cells"], "count"),
        "walker.visit_bytes": (c["walker.visit_bytes"], "bytes"),
        "temporal.events": (c["temporal.events"], "count"),
        "pipeline.bytes_written": (sum(p.stat().st_size for p in out.iterdir()), "bytes"),
        "cli.import_s": (c["cli.import_s"], "s"),
        "trace.overhead_s": (round_s - untraced_run_s, "s"),
    })
    return m


def run(w: Workload, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    env = bva_env(ROOT)
    report = checks.Report()
    setups, digests = [], []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = set_up(w, seed, ROOT, work / f"setup{i}")
        setups.append(time.perf_counter() - start)
        digests.append(inputs.digest())
    report.check("set-up gives the same inputs every time", len(set(digests)) == 1)

    rounds = []
    start = time.perf_counter()
    while True:
        out = work / f"round{len(rounds)}"
        rounds.append(run_round(w, inputs, out, env))
        if len(rounds) == 1:
            comm = check_outputs(w, inputs, out, report)
            reference = output_digests(out)
        else:
            rounds[-1]["same"] = output_digests(out) == reference
            shutil.rmtree(out)
        # stop before a round that would likely end past --seconds, so a run
        # measures at most that long and always ends on a whole round
        elapsed = time.perf_counter() - start
        if trace or elapsed + statistics.median(r["run_s"] for r in rounds) > seconds:
            break
    report.check("every command exits 0",
                 all(code == 0 for r in rounds for code in r["codes"].values()),
                 str(rounds[0]["codes"]))
    report.check("every round reproduces the first round's outputs",
                 all(r.get("same", True) for r in rounds), f"{len(rounds)} rounds")

    per_round_ops = len(rounds[0]["codes"]) + len(comm.sizes)
    failed = sum(sum(code != 0 for code in r["codes"].values()) + comm.disconnected
                 for r in rounds)
    if trace:
        traced_out = work / "traced"
        trace_path = WORK / "traces" / f"{w.name}-s{seed}.jsonl"
        tracer, round_s, layers, codes = tracing.traced_run(
            ROOT, ["generate", *w.generate, "--out", str(work / "traced-gen")],
            commands(w, inputs, traced_out), trace_path)
        report.check("traced commands exit 0", all(code == 0 for code in codes), str(codes))
        report.check("traced run (threads 1, in-process) reproduces the CLI outputs",
                     output_digests(traced_out) == reference)
        # the rounds run at --threads 1; the threaded walker path is checked here once
        threaded_out = work / "threads2"
        threaded_out.mkdir()
        _, _, code = run_command(commands(w, inputs, threaded_out, threads=2)[0][1], env,
                                 work / "threads2.log")
        report.check("`bva pipeline --threads 2` exits 0 and gives the bytes of --threads 1",
                     code == 0 and all(reference[name] == digest for name, digest
                                       in output_digests(threaded_out).items()))
        in_round = tracer.self_time_within("bench.round")
        report.check("span self times account for the traced round",
                     abs(in_round - round_s) <= 0.01 * round_s,
                     f"{in_round:.3f} s of {round_s:.3f} s")
        print("layer self times (s): " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        metrics = layer_metrics(tracer, round_s, rounds[0]["run_s"], comm, traced_out)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(r["run_s"] for r in rounds), "s"),
            "pipeline_s": (statistics.median(r["pipeline_s"] for r in rounds), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        }

    print("round run_s: " + " ".join(f"{r['run_s']:.3f}" for r in rounds))
    for name, ok, detail in report.checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    for name, value in report.figures.items():
        print(f"     {name} = {value}")
    print(f"     community sizes {comm.sizes.tolist()}")
    print(f"scores.csv sha256 {reference['scores.csv']} (reference only)")
    expected = {m["name"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    if set(metrics) != expected:
        raise RuntimeError(f"metric names differ from BENCHMARK.json: {set(metrics) ^ expected}")
    return {
        "correct": report.correct,
        "attempted": per_round_ops * len(rounds),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def repeat(names: list[str], runs: int, first_seed: int, seconds: int) -> int:
    """Run each workload ``runs`` times on successive seeds and report the spread."""
    spec = _spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for name in names:
        results = []
        for seed in range(first_seed, first_seed + runs):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            r = json.loads(lines[-1])
            results.append(r)
            print(f"{name} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} " + " ".join(
                      f"{k}={v['value']:.4f}{v['unit']}" for k, v in r["metrics"].items()),
                  flush=True)
        if not results:
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{name}: {len(results)} runs, all correct={all(r['correct'] for r in results)}, "
              f"failed share {sorted(shares)}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            if len(values) < 2:
                print(f"  {metric:12s} {median:10.4f}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = ("steady" if spread <= bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            print(f"  {metric:12s} median {median:10.4f} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"spread {spread:6.3f} bound {bound} {verdict}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run every workload (or --workload) this many times")
    args = parser.parse_args()
    if not (ROOT / "src" / "boundary_vicinity" / "cli.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.repeat:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return repeat(names, args.repeat, args.seed, seconds)
    if args.workload is None:
        parser.error("--workload is required")
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        result = run(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
