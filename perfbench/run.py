#!/usr/bin/env python3
"""End-to-end benchmark of the ``phase`` command-line workflow.

Run from the root of a phase-surrogate checkout:

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0

A run drives the CLI the way a user does: one fresh process per command,
one command at a time (a single closed-loop client), with one BLAS/OpenMP
thread.  It has three parts:

1. Set-up: one pass of the whole pipeline at the workload seed (gen-data,
   build-dataset, train with a fixed epoch budget, eval, restart-check),
   in one child process.
   Its outputs are checked against the simulator's closed-form equilibria
   and supply the quality figures.
2. The timed loop: the workload's own commands, repeated until
   ``--seconds`` of command wall time are measured.  Every repeat must
   write files byte-identical to the set-up pass.
3. With ``--trace 1`` only: one more repeat with every command run under
   ``tracer.py``; its spans give the per-layer metrics.

The last line of stdout is one JSON object holding the metrics that
BENCHMARK.json names (end-to-end ones with ``--trace 0``, per-layer ones
with ``--trace 1``).  The full record, with the thread environment and
versions, goes to ``.perfbench/<workload>-seed<seed>-trace<n>.json`` and
the commands' output to the ``.log`` file beside it.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))

GRID = "coarse"
YEARS = 20
# A short fixed budget keeps a run within the benchmark's time allowance;
# the train workload measures per-epoch work, which does not change.
EPOCHS = 5
RESTART_YEARS = 100
# Every command of a run must end before the run's 180 s limit.
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

SETUP = ("gen-data", "build-dataset", "train", "eval", "restart-check")
WORKLOADS = {
    "worldgen": ("gen-data", "build-dataset"),
    "train": ("train",),
    "inference": ("eval", "restart-check"),
}
# Files and directories each command writes, compared byte for byte.
OUTPUTS = {
    "gen-data": ("world",),
    "build-dataset": ("data",),
    "train": ("model.phm", "model_log.csv"),
    "eval": ("report",),
    "restart-check": ("drift.csv", "drift.phr", "drift_ood.csv"),
}


def command_args(step, seed, fixture, out):
    """CLI arguments of one command.  It reads set-up outputs from
    ``fixture`` and writes into ``out``; gen-data's world feeds
    build-dataset inside ``out``."""
    j = os.path.join
    return {
        "gen-data": ["--seed", str(seed), "--grid", GRID, "--years",
                     str(YEARS), "--out", j(out, "world")],
        "build-dataset": ["--world", j(out, "world"), "--seed", str(seed),
                          "--out", j(out, "data")],
        "train": ["--data", j(fixture, "data"), "--config",
                  j(fixture, "train.json"), "--out", j(out, "model.phm")],
        "eval": ["--model", j(fixture, "model.phm"), "--data",
                 j(fixture, "data"), "--out", j(out, "report")],
        "restart-check": ["--model", j(fixture, "model.phm"), "--world",
                          j(fixture, "world"), "--out", j(out, "drift.csv"),
                          "--years", str(RESTART_YEARS)],
    }[step]


class Runner:
    """Runs CLI commands in fresh processes and records what each cost."""

    def __init__(self, root, log_path, deadline):
        self.root = root
        self.log_path = log_path
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        # Let the first command cache bytecode, as an install would, so
        # timed commands do not recompile the package.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, step, args, spans_path=None, argv=None):
        """Returns {"step", "wall_s", "rss_mb", "code"} for one command:
        ``phase <step> <args>``, traced into ``spans_path`` if given, or
        ``argv + args`` if ``argv`` is given."""
        if argv is not None:
            argv = argv + args
        elif spans_path is None:
            argv = [sys.executable, "-m", "phase_surrogate.cli", step] + args
        else:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"),
                    spans_path, "--", step] + args
        self.attempted += 1
        remaining = self.deadline - time.monotonic()
        with open(self.log_path, "ab") as log:
            log.write(f"$ {' '.join(argv)}\n".encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(remaining, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.fail(f"{step} exited with {proc.returncode} "
                      f"(see {self.log_path})")
        # ru_maxrss is in KiB on Linux: this child's own peak, not the
        # running maximum over all children.
        return {"step": step, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024,
                "code": proc.returncode}

    def fail(self, problem):
        self.failed += 1
        self.problems.append(problem)

    def out_of_time(self):
        return time.monotonic() >= self.deadline


def tree_digest(path):
    """{relative path: sha256} of a file or of every file under a directory."""
    if os.path.isfile(path):
        files = {"": path}
    else:
        files = {}
        for dirpath, _, names in os.walk(path):
            for name in names:
                full = os.path.join(dirpath, name)
                files[os.path.relpath(full, path)] = full
    out = {}
    for rel, full in files.items():
        with open(full, "rb") as fh:
            out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


# Set-up runs its commands in one process, through the CLI's own entry
# point, so that it pays the interpreter start and the imports once.  It
# writes each command's wall time to the JSON file named by argv[2].
SETUP_CHILD = """
import json, sys, time
from phase_surrogate import cli
walls = []
for argv in json.loads(sys.argv[1]):
    start = time.perf_counter()
    code = cli.main(argv)
    walls.append({"step": argv[0], "wall_s": time.perf_counter() - start})
    if code:
        sys.exit(code)
with open(sys.argv[2], "w", encoding="ascii") as fh:
    json.dump(walls, fh)
"""


def set_up(runner, seed, fixture):
    os.makedirs(fixture)
    with open(os.path.join(fixture, "train.json"), "w",
              encoding="ascii") as fh:
        # a fixed epoch budget: patience equal to the budget disables
        # early stopping
        json.dump({"train": {"max_epochs": EPOCHS, "patience": EPOCHS,
                             "seed": seed}}, fh)
    argvs = [[step] + command_args(step, seed, fixture, fixture)
             for step in SETUP]
    walls_path = os.path.join(fixture, "setup_walls.json")
    result = runner.run("set-up", [json.dumps(argvs), walls_path],
                        argv=[sys.executable, "-c", SETUP_CHILD])
    if result["code"] != 0:
        return None
    with open(walls_path, encoding="ascii") as fh:
        commands = json.load(fh)
    return {"setup_s": result["wall_s"], "rss_mb": result["rss_mb"],
            "commands": commands}


def repeat(runner, workload, seed, fixture, out, reference, spans_dir=None):
    """One pass of the workload's commands; checks its outputs."""
    os.makedirs(out)
    commands = []
    for step in WORKLOADS[workload]:
        spans_path = None
        if spans_dir is not None:
            spans_path = os.path.join(spans_dir, f"{step}.json")
        result = runner.run(step, command_args(step, seed, fixture, out),
                            spans_path)
        commands.append(result)
        if result["code"] != 0:
            return None
        for name in OUTPUTS[step]:
            if tree_digest(os.path.join(out, name)) != reference[name]:
                runner.fail(f"{step} wrote {name} differently from set-up")
    shutil.rmtree(out)
    return {"wall_s": sum(c["wall_s"] for c in commands),
            "rss_mb": max(c["rss_mb"] for c in commands),
            "commands": commands}


def tail(values):
    """Highest percentile with at least ten samples above it, as the order
    statistic; with ten samples or fewer there is none and the maximum is
    reported."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def environment(runner):
    return {
        "threads": {v: runner.env[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def train_samples_per_s(workload, setup, reps, figures):
    """Epochs x training-split samples / train wall time: the timed train
    commands on the train workload, the set-up's train elsewhere."""
    if workload == "train":
        walls = [c["wall_s"] for r in reps for c in r["commands"]]
    else:
        walls = [c["wall_s"] for c in setup["commands"]
                 if c["step"] == "train"]
    return EPOCHS * figures["n_train"] / statistics.median(walls)


def end_to_end(setup, reps, figures, runner):
    walls = [r["wall_s"] for r in reps]
    wall = statistics.median(walls)
    return {
        "setup_s": setup["setup_s"],
        "wall_s": wall,
        "wall_s_tail": tail(walls),
        # throughput over the whole timed loop: a mean, which averages over
        # the host's changes of speed where a median picks one of them
        "cells_per_s": figures["n_cells"] * len(reps) / sum(walls),
        "peak_rss_mb": max(r["rss_mb"] for r in reps),
        "spinup_speedup_median": figures["spinup_speedup_median"],
        "success_rate": (runner.attempted - runner.failed) / runner.attempted,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"),
                        help="'all' runs the three in turn, each with its "
                             "own set-up and result line")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # end the running command and remove the work directory when stopped
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "phase_surrogate",
                                       "cli.py")):
        print(f"error: {root} holds no phase-surrogate sources "
              f"(src/phase_surrogate); run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(root, "src"))

    out_dir = os.path.join(root, ".perfbench")
    code = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        work = os.path.join(out_dir, f"work-{os.getpid()}")
        os.makedirs(work)
        name = f"{workload}-seed{args.seed}-trace{args.trace}"
        log_path = os.path.join(out_dir, f"{name}.log")
        open(log_path, "wb").close()
        runner = Runner(root, log_path, time.monotonic() + RUN_DEADLINE_S)
        try:
            code = max(code, measure(workload, args, spec, runner, work,
                                     os.path.join(out_dir, f"{name}.json")))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return code


def measure(workload, args, spec, runner, work, record_path):
    fixture = os.path.join(work, "setup")
    setup = set_up(runner, args.seed, fixture)
    if setup is None:
        print("error: set-up failed: " + "; ".join(runner.problems),
              file=sys.stderr)
        return 1
    import checks  # imports the package under test from the checkout
    problems, figures = checks.check_setup(fixture, EPOCHS)
    for problem in problems:
        runner.fail(problem)
    reference = {name: tree_digest(os.path.join(fixture, name))
                 for step in WORKLOADS[workload]
                 for name in OUTPUTS[step]}

    reps = []
    measured = 0.0
    # Start a repeat only while it is expected to end at most half a repeat
    # past --seconds, so that a run's length stays close to --seconds.
    while not runner.out_of_time():
        if reps and measured + 0.5 * measured / len(reps) > args.seconds:
            break
        rep = repeat(runner, workload, args.seed, fixture,
                     os.path.join(work, f"rep{len(reps)}"), reference)
        if rep is None:
            break
        reps.append(rep)
        measured += rep["wall_s"]
    if not reps:
        print("error: no repeat of the workload succeeded: "
              + "; ".join(runner.problems), file=sys.stderr)
        return 1

    record = {"workload": workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(runner), "epochs": EPOCHS,
              "setup": setup, "repeats": reps, "figures": figures}
    if args.trace:
        spans_dir = os.path.join(work, "spans")
        os.makedirs(spans_dir)
        traced = repeat(runner, workload, args.seed, fixture,
                        os.path.join(work, "traced"), reference, spans_dir)
        if traced is None:
            print("error: traced repeat failed: "
                  + "; ".join(runner.problems), file=sys.stderr)
            return 1
        layers, table = spans.per_layer(traced, spans_dir, figures["n_cells"])
        layers["trace.overhead_s"] = (
            traced["wall_s"] - statistics.median(r["wall_s"] for r in reps))
        layers["train_samples_per_s"] = train_samples_per_s(
            workload, setup, reps, figures)
        for name in ("val_loss", "test_r2", "phys_residual"):
            layers[name] = figures[name]
        metrics, section = layers, "per_layer"
        record["traced"] = traced
        record["self_time"] = table
        print(spans.format_table(table, traced["wall_s"]))
        print("autodiff.lstm_sequence, computed from its call shapes: "
              f"{layers['autodiff.lstm_sequence.flops']:.4g} forward FLOP "
              f"and {layers['autodiff.lstm_sequence.cache_bytes']:.4g} B "
              f"kept for backward per call, over "
              f"{layers['autodiff.lstm_sequence.calls']} calls")
    else:
        metrics = end_to_end(setup, reps, figures, runner)
        section = "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(expected):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(expected))} "
                           f"disagree with BENCHMARK.json {section}")
    if not all(math.isfinite(v) for v in metrics.values()):
        print("error: some metrics are not finite: " + "; ".join(
            runner.problems), file=sys.stderr)
        return 1
    record["metrics"] = metrics
    record["problems"] = runner.problems
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    walls = ", ".join(f"{r['wall_s']:.3f}" for r in reps)
    print(f"workload {workload}, seed {args.seed}: set-up "
          f"{setup['setup_s']:.3f} s, {len(reps)} timed repeats "
          f"(wall s: {walls}); {figures}")
    print(f"environment {record['environment']}")
    for problem in runner.problems:
        print(f"FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": expected[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
