#!/usr/bin/env python3
"""Checks the checkers: real `caya` output must pass, and each deliberately
wrong copy of it must be rejected.

    python3 perfbench/selftest.py

Builds like run.py, runs each workload's command once at a small size, then
feeds checks.py the real output and mutated copies: every Table 2 cell of
the paper moved 20 points, a serve tier ledger off by one, strategy 7's
breaker never opening after the flip, strategy 7 carrying every flow, a fuzz decode ledger off by one, a fuzz crash, a fallen GA
best fitness, a confirmed rate off by one point, and a `caya run` result one
success away from the pooled `caya rates` row. Exits 1 if any real output is
rejected or any mutation passes.
"""

import copy
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402

SEED = 4242
failures = []


def caya(*args, cwd=None):
    proc = subprocess.run(run.caya(*args), stdout=subprocess.PIPE, cwd=cwd, check=True)
    return proc.stdout.decode()


def expect(label, problems, rejected):
    ok = bool(problems) == rejected
    print("%-4s %-58s %s" % ("ok" if ok else "FAIL", label,
                             problems[0][:70] if problems else "passes"))
    if not ok:
        failures.append(label)


def table2():
    grid = {}
    for country, sid in run.TABLE2_ROWS:
        args = ["rates", "--country", country, "--trials", 1000, "--seed", SEED]
        if sid:
            args += ["--published", sid]
        grid[(country, sid)] = checks.parse_rates(caya(*args))
    expect("table2: real grid", checks.check_table2(grid), False)
    moved = rejected = 0
    for (country, sid), row in checks.PAPER_TABLE2.items():
        for proto in row:
            ok, n = grid[(country, sid)][proto]
            shift = -0.2 if ok / n >= 0.5 else 0.2
            bad = copy.deepcopy(grid)
            bad[(country, sid)][proto] = (ok + round(shift * n), n)
            moved += 1
            rejected += bool(checks.check_table2(bad))
    expect("table2: %d of %d paper cells moved 20 points are rejected" % (rejected, moved),
           [] if rejected == moved else ["%d moved cells passed" % (moved - rejected)], False)


def serve():
    text = caya("serve", "--country", "china", "--protocol", "http", "--flows", 3000,
                "--regime-flip-at", 800, "--seed", SEED)
    report = checks.parse_serve(text)
    expect("serve: real report", checks.check_serve(report, 3000, 800), False)
    bad = copy.deepcopy(report)
    name, served, ok, errors = bad["tiers"][1]
    bad["tiers"][1] = (name, served + 1, ok, errors)
    expect("serve: tier ledger off by one", checks.check_serve(bad, 3000, 800), True)
    bad = copy.deepcopy(report)
    bad["events"] = [e for e in bad["events"] if e[1] not in ("breaker-trip", "breaker-reopen")]
    expect("serve: strategy 7 never opens after the flip", checks.check_serve(bad, 3000, 800),
           True)
    bad = copy.deepcopy(report)
    bad["tiers"] = [(name, 3000 if name == "published 7" else 0, ok, errors)
                    for name, served, ok, errors in bad["tiers"]]
    expect("serve: strategy 7 carries every flow", checks.check_serve(bad, 3000, 800), True)
    rates = checks.parse_rates(caya("rates", "--country", "china", "--published", 6,
                                    "--trials", 3000, "--seed", SEED))
    tier6 = next(t for t in report["tiers"] if t[0] == "published 6")
    expect("serve: tier 6 rate vs caya rates",
           checks.check_tier_rate(tier6[0], tier6[1], tier6[2], rates), False)
    expect("serve: tier 6 rate moved 20 points",
           checks.check_tier_rate(tier6[0], tier6[1], tier6[2] - round(0.2 * tier6[1]),
                                  rates), True)


def fuzz():
    blocks = checks.parse_fuzz(caya("fuzz", "--censor", "all", "--iters", 300, "--seed", SEED))
    expect("fuzz: real report", checks.check_fuzz(blocks, 300, 5), False)
    bad = copy.deepcopy(blocks)
    bad[2]["decode_ok"] += 1
    expect("fuzz: decode ledger off by one", checks.check_fuzz(bad, 300, 5), True)
    bad = copy.deepcopy(blocks)
    bad[0]["crashes"] = 1
    expect("fuzz: one crash", checks.check_fuzz(bad, 300, 5), True)


def evolve(workdir):
    text = caya("evolve", "--country", "china", "--protocol", "http", "--population", 30,
                "--gens", 4, "--seed", SEED, "--history-out", "h.tsv", cwd=workdir)
    rows = checks.parse_history((Path(workdir) / "h.tsv").read_text())
    expect("evolve: real history", checks.check_history(rows, 4, 30), False)
    bad = copy.deepcopy(rows)
    bad[-1] = (bad[-1][0], bad[-2][1] - 1.0) + bad[-1][2:]
    expect("evolve: best fitness falls", checks.check_history(bad, 4, 30), True)
    result = checks.parse_evolve(text)
    confirm = checks.parse_run(caya("run", "--country", "china", "--protocol", "http",
                                    "--strategy", result[0], "--trials", result[2],
                                    "--seed", SEED + 777777))
    expect("evolve: confirmed rate recomputed", checks.check_confirmed(result, confirm), False)
    bad = (result[0], result[1] + 1) + result[2:]
    expect("evolve: confirmed rate off by one point", checks.check_confirmed(bad, confirm),
           True)


def lossy():
    args = ["--country", "china", "--published", 6, "--profile", "lossy", "--trials", 500]
    result = checks.parse_run(caya("run", "--protocol", "http", *args, "--seed", SEED + 2000))
    rows = checks.parse_rates(caya("rates", *args, "--seed", SEED))
    expect("run-lossy: caya run vs caya rates", checks.check_run_matches_rates(result, rows),
           False)
    bad = (result[0] + 1,) + result[1:]
    expect("run-lossy: one success off", checks.check_run_matches_rates(bad, rows), True)


def main():
    run.build()
    run.BUILD.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.BUILD)
    try:
        table2()
        serve()
        fuzz()
        evolve(workdir)
        lossy()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: %s" % ("%d failures" % len(failures) if failures else "all checks behave"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
