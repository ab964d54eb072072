#!/usr/bin/env python3
"""End-to-end benchmark of the `caya` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `caya` and `caya_layers` from this checkout (under .bench_build/),
then, with --trace 0, runs the workload's commands through `caya` exactly as
a user would, in whole rounds, until S seconds have passed. Each round runs
its commands at --jobs N and again at --jobs 1; the two outputs must be
byte-identical. Every output is checked (checks.py). With --trace 1 it runs
`caya_layers`, which times each library layer's public calls on the same
workload's inputs. The last line of stdout is one JSON object:

    {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}

`--workload all` runs every workload in turn and ends with one object whose
metric names are prefixed with the workload's name.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BIN = BUILD / "bin"

NPROC = len(os.sched_getaffinity(0))
JOBS = max(1, min(4, NPROC))
SETUP_PER_ROUND = 3   # setup reps before each round, spread over the run
SETUP_MIN = 31
CHILD_TIMEOUT_S = 120

# Workload sizes. One round takes 0.1-0.5 s at --jobs 4 and 0.2-1 s at
# --jobs 1 on a 4-core x86 machine.
TABLE2_ROWS = (
    [("china", s) for s in range(0, 9)]
    + [(c, s) for c in ("india", "iran", "turkmenistan") for s in (0, 8)]
    + [("kazakhstan", s) for s in (8, 9, 10, 11)]
)
TABLE2_TRIALS = 200        # per protocol cell, per round
LOSSY_TRIALS = 3000        # caya run trials per round
EVOLVE_POPULATION = 60
EVOLVE_GENS = 6
EVOLVE_FITNESS_TRIALS = 20  # caya evolve's trials per fitness evaluation
EVOLVE_CONFIRM_TRIALS = 200
SERVE_FLOWS = 6000
SERVE_FLIP = 1500
SERVE_TIER_TRIALS = 4000   # caya rates trials behind the tier-rate check
FUZZ_ITERS = 800           # per censor, five censors
FUZZ_CENSORS = 5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """The benchmark cannot run here (no sources, build error, bad args)."""


# ---- building ----------------------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise Failure("no caya sources next to %s" % HERE)
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise Failure("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "caya", "caya_layers",
           "-j", str(JOBS)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise Failure("build failed")


# ---- running children --------------------------------------------------------

class Child:
    """One finished `caya` process: exit code, output, wall time, CPU time
    (user + system) and peak RSS."""

    def __init__(self, argv, workdir):
        out_path = Path(workdir) / "stdout"
        with open(out_path, "w+b") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                    cwd=workdir)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall = time.perf_counter() - start
            killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            self.text = out.read().decode("utf-8", "replace")
        self.code = proc.returncode
        self.rss_mib = usage.ru_maxrss / 1024.0
        self.cpu = usage.ru_utime + usage.ru_stime
        self.argv = argv


def caya(*args):
    return [str(BIN / "caya")] + [str(a) for a in args]


# ---- workloads ---------------------------------------------------------------
#
# A workload turns a round seed into commands and reads their outputs. Every
# round attempts the same `ops_per_round` operations (trials, individuals
# scored, flows or fuzz iterations); `read` records the simulated trials the
# round ran, the operations that failed and any problem its checks found.
# `finish` runs the checks that need the whole run.

class Round:
    def __init__(self):
        self.failed = 0       # operations that failed (timeouts, errors, findings)
        self.trials = 0       # simulated trials run
        self.problems = []


class Table2Rates:
    name = "table2-rates"
    ops_per_round = len(TABLE2_ROWS) * 5 * TABLE2_TRIALS

    def __init__(self):
        self.grid = {}

    def setup(self, seed):
        return caya("rates", "--country", "china", "--trials", 1, "--seed", seed,
                    "--jobs", 1)

    def commands(self, seed, jobs):
        cmds = []
        for country, sid in TABLE2_ROWS:
            argv = caya("rates", "--country", country, "--trials", TABLE2_TRIALS,
                        "--seed", seed, "--jobs", jobs)
            if sid:
                argv += ["--published", str(sid)]
            cmds.append(argv)
        return cmds

    def read(self, seed, children, workdir, rnd):
        for (country, sid), child in zip(TABLE2_ROWS, children):
            rows = checks.parse_rates(child.text)
            rnd.problems += checks.check_rates_shape(rows, TABLE2_TRIALS)
            cell = self.grid.setdefault((country, sid), {p: (0, 0) for p in checks.PROTOCOLS})
            for proto, (ok, n) in rows.items():
                cell[proto] = (cell[proto][0] + ok, cell[proto][1] + n)
        rnd.trials = self.ops_per_round

    def finish(self, seed, workdir):
        return checks.check_table2(self.grid)


class RunLossy:
    name = "run-lossy"
    ops_per_round = LOSSY_TRIALS
    ARGS = ["--country", "china", "--protocol", "http", "--published", "6",
            "--profile", "lossy"]

    def __init__(self):
        self.first = None

    def setup(self, seed):
        return caya("run", *self.ARGS, "--trials", 1, "--seed", seed, "--jobs", 1)

    def commands(self, seed, jobs):
        # `caya rates --seed S` runs HTTP on seeds S + 2000 + i.
        return [caya("run", *self.ARGS, "--trials", LOSSY_TRIALS,
                     "--seed", seed + 2000, "--jobs", jobs)]

    def read(self, seed, children, workdir, rnd):
        run = checks.parse_run(children[0].text)
        if run is None or run[1] != LOSSY_TRIALS:
            rnd.problems.append("caya run printed no result for %d trials" % LOSSY_TRIALS)
        else:
            rnd.failed += run[2]
        if self.first is None:
            self.first = (seed, run)
        rnd.trials = LOSSY_TRIALS

    def finish(self, seed, workdir):
        first_seed, run = self.first
        rates = Child(caya("rates", "--country", "china", "--published", "6",
                           "--profile", "lossy", "--trials", LOSSY_TRIALS,
                           "--seed", first_seed, "--jobs", JOBS), workdir)
        return checks.check_run_matches_rates(run, checks.parse_rates(rates.text))


class Evolve:
    name = "evolve"
    ops_per_round = EVOLVE_POPULATION * EVOLVE_GENS  # individuals scored

    def setup(self, seed):
        return caya("evolve", "--country", "china", "--protocol", "http",
                    "--population", 2, "--gens", 1, "--seed", seed, "--jobs", 1)

    def commands(self, seed, jobs):
        return [caya("evolve", "--country", "china", "--protocol", "http",
                     "--population", EVOLVE_POPULATION, "--gens", EVOLVE_GENS,
                     "--seed", seed, "--jobs", jobs,
                     "--history-out", "history-%d.tsv" % jobs)]

    def read(self, seed, children, workdir, rnd):
        history = (Path(workdir) / ("history-%d.tsv" % JOBS)).read_text()
        serial = (Path(workdir) / "history-1.tsv").read_text()
        if history != serial:
            rnd.problems.append("evolve --history-out differs between --jobs %d and 1" % JOBS)
        rows = checks.parse_history(history)
        rnd.problems += checks.check_history(rows, EVOLVE_GENS, EVOLVE_POPULATION)
        evolve = checks.parse_evolve(children[0].text)
        if evolve is None:
            rnd.problems.append("evolve printed no best strategy")
            return
        confirm = Child(caya("run", "--country", "china", "--protocol", "http",
                             "--strategy", evolve[0], "--trials", evolve[2],
                             "--seed", seed + 777777, "--jobs", JOBS), workdir)
        rnd.problems += checks.check_confirmed(evolve, checks.parse_run(confirm.text))
        rnd.failed += evolve[3]
        evaluations = sum(r[5] for r in rows)
        rnd.trials = evaluations * EVOLVE_FITNESS_TRIALS + EVOLVE_CONFIRM_TRIALS

    def finish(self, seed, workdir):
        return []


class ServeFlip:
    name = "serve-flip"
    ops_per_round = SERVE_FLOWS

    def __init__(self):
        self.tiers = {}

    def setup(self, seed):
        return caya("serve", "--country", "china", "--protocol", "http", "--flows", 1,
                    "--seed", seed, "--jobs", 1)

    def commands(self, seed, jobs):
        return [caya("serve", "--country", "china", "--protocol", "http",
                     "--flows", SERVE_FLOWS, "--regime-flip-at", SERVE_FLIP,
                     "--seed", seed, "--jobs", jobs)]

    def read(self, seed, children, workdir, rnd):
        report = checks.parse_serve(children[0].text)
        rnd.problems += checks.check_serve(report, SERVE_FLOWS, SERVE_FLIP)
        if report is None:
            return
        rnd.trials = report["flows"] + report["waste"]
        for name, served, ok, errors in report["tiers"]:
            rnd.failed += errors
            total = self.tiers.get(name, (0, 0))
            self.tiers[name] = (total[0] + served, total[1] + ok)

    def finish(self, seed, workdir):
        problems = []
        for sid in (6, 2):
            served, ok = self.tiers.get("published %d" % sid, (0, 0))
            if served == 0:
                continue
            rates = Child(caya("rates", "--country", "china", "--published", sid,
                               "--trials", SERVE_TIER_TRIALS, "--seed", seed,
                               "--jobs", JOBS), workdir)
            problems += checks.check_tier_rate("published %d" % sid, served, ok,
                                               checks.parse_rates(rates.text))
        return problems


class FuzzAll:
    name = "fuzz-all"
    ops_per_round = FUZZ_ITERS * FUZZ_CENSORS

    def setup(self, seed):
        return caya("fuzz", "--censor", "all", "--iters", 1, "--seed", seed,
                    "--jobs", 1)

    def commands(self, seed, jobs):
        return [caya("fuzz", "--censor", "all", "--iters", FUZZ_ITERS, "--seed", seed,
                     "--jobs", jobs)]

    def read(self, seed, children, workdir, rnd):
        blocks = checks.parse_fuzz(children[0].text)
        rnd.problems += checks.check_fuzz(blocks, FUZZ_ITERS, FUZZ_CENSORS)
        rnd.failed += sum(b.get("crashes", 0) + b.get("fail-closed", 0) for b in blocks)
        rnd.trials = self.ops_per_round  # one oracle run per iteration

    def finish(self, seed, workdir):
        return []


WORKLOADS = {w.name: w for w in (Table2Rates, RunLossy, Evolve, ServeFlip, FuzzAll)}

END_TO_END_UNITS = {
    "trials_per_s": "trials/cpu-s",
    "trials_per_s_serial": "trials/cpu-s",
    "strategies_per_s": "evals/cpu-s",
    "flows_per_s": "flows/cpu-s",
    "fuzz_iters_per_s": "iters/cpu-s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


FINISH_BLOCK = 500   # seed block of the checks run after the last round
SETUP_BLOCK = 600    # first seed block of the setup commands


def round_seed(seed, block):
    # Disjoint seed blocks per run and per round (blocks 0..499), for the
    # final checks and for the setup commands: every command draws its trial
    # seeds from [base, base + 1e6).
    return seed * 1_000_000_000 + block * 1_000_000


def run_untraced(workload, seed, seconds, workdir):
    """Runs whole rounds of the workload for `seconds`; returns the result.

    Throughput is per CPU-second of the `caya` processes (user + system time
    from wait4): on a shared virtual machine the wall time of a --jobs N
    command swings with the host's load far more than the work it does.
    wall_s is the wall time of a round at --jobs 1, setup_s the wall time of
    one unit of work at --jobs 1, timed a few times before every round; both
    are medians."""
    setup = []

    def time_setup(count):
        for _ in range(count):
            child = Child(workload.setup(round_seed(seed, SETUP_BLOCK + len(setup))), workdir)
            if child.code != 0:
                raise Failure("setup command failed: %s" % " ".join(child.argv))
            setup.append(child.wall)

    attempted = failed = 0
    problems = []
    rates, serial_rates, native_rates, serial_wall = [], [], [], []
    peak = 0.0
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        time_setup(SETUP_PER_ROUND)
        rs = round_seed(seed, r)
        par = [Child(argv, workdir) for argv in workload.commands(rs, JOBS)]
        ser = [Child(argv, workdir) for argv in workload.commands(rs, 1)]
        rnd = Round()
        for p, s in zip(par, ser):
            if p.code != 0 or s.code != 0:
                rnd.problems.append("exit codes %d/%d: %s" % (p.code, s.code, " ".join(p.argv)))
            elif p.text != s.text:
                rnd.problems.append("output differs between --jobs %d and 1: %s"
                                    % (JOBS, " ".join(p.argv)))
        if not rnd.problems:
            workload.read(rs, par, workdir, rnd)
        attempted += workload.ops_per_round
        if rnd.problems:
            problems += rnd.problems
            failed += workload.ops_per_round
        else:
            failed += rnd.failed
        par_cpu = sum(c.cpu for c in par)
        ser_cpu = sum(c.cpu for c in ser)
        rates.append(rnd.trials / par_cpu)
        serial_rates.append(rnd.trials / ser_cpu)
        native_rates.append(workload.ops_per_round / par_cpu)
        serial_wall.append(sum(c.wall for c in ser))
        peak = max([peak] + [c.rss_mib for c in par + ser])
        log("round %d: %d trials; --jobs %d %.4f s wall %.4f s cpu; --jobs 1 %.4f s wall "
            "%.4f s cpu" % (r, rnd.trials, JOBS, sum(c.wall for c in par), par_cpu,
                            serial_wall[-1], ser_cpu))
        r += 1
    time_setup(max(0, SETUP_MIN - len(setup)))
    if not problems:
        problems += workload.finish(round_seed(seed, FINISH_BLOCK), workdir)
    for p in problems:
        log("check failed: %s" % p)
    if problems:
        failed = attempted

    own = statistics.median(native_rates)
    metrics = {
        "trials_per_s": statistics.median(rates),
        "trials_per_s_serial": statistics.median(serial_rates),
        # Each of these three counts its own workload's operations; on the
        # other workloads it repeats that workload's operation rate.
        "strategies_per_s": own,
        "flows_per_s": own,
        "fuzz_iters_per_s": own,
        "wall_s": statistics.median(serial_wall),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak,
    }
    log("%s: %d rounds, %d operations attempted, %d failed (jobs %d, nproc %d)"
        % (workload.name, r, attempted, failed, JOBS, NPROC))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def run_traced(workload, seed, seconds):
    argv = [str(BIN / "caya_layers"), "--workload", workload.name, "--seed", str(seed),
            "--seconds", str(seconds), "--jobs", str(JOBS),
            "--trials-per-cell", str(TABLE2_TRIALS),
            "--ga-population", str(EVOLVE_POPULATION), "--ga-gens", str(EVOLVE_GENS),
            "--serve-flows", str(SERVE_FLOWS), "--serve-flip", str(SERVE_FLIP),
            "--fuzz-iters", str(FUZZ_ITERS)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=seconds + CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise Failure("caya_layers exited %d" % proc.returncode)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def print_table(name, result):
    log("%-12s %-28s %16s  %s" % ("workload", "metric", "value", "unit"))
    for metric, m in result["metrics"].items():
        log("%-12s %-28s %16.6g  %s" % (name, metric, m["value"], m["unit"]))
    log("%-12s attempted %d, failed %d, correct %s"
        % (name, result["attempted"], result["failed"], result["correct"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        raise Failure("--seed must be >= 0 and --seconds > 0")

    build()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    BUILD.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=BUILD)
    try:
        results = {}
        for name in names:
            workload = WORKLOADS[name]()
            if args.trace:
                results[name] = run_traced(workload, args.seed, args.seconds)
            else:
                results[name] = run_untraced(workload, args.seed, args.seconds, workdir)
            print_table(name, results[name])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (n, k): v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)


if __name__ == "__main__":
    try:
        main()
    except Failure as e:
        log("perfbench: %s" % e)
        sys.exit(1)
