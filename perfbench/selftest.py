#!/usr/bin/env python3
"""Self-tests of the MS2 benchmark itself.

Run from the root of a checkout (builds like run.py on first use):

    python3 perfbench/selftest.py

1. Planted mismatch: each workload runs with one oracle form deliberately
   wrong; the run must report failed > 0, correct false, and exit non-zero.
   This shows the correctness check can fail.
2. Determinism of counts: each workload's traced run is made twice with one
   seed and once with another. The work counters must repeat exactly for
   the same seed and change with the seed, so later changes can cite them
   as counts.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["cold_frontend", "cold_macros", "daemon_mixed"]
# Counters that must repeat for one seed; the first five must also move
# with the seed.
SEEDED = ["lexer.tokens", "expand.invocations", "interp.meta_steps",
          "parser.arena_bytes", "printer.bytes_out"]
REPEATED = SEEDED + ["parser.arena_allocs", "expand.nodes_produced",
                     "expand.arena_bytes", "interp.gensyms", "cache.hits",
                     "cache.misses", "server.reload_rekeyed",
                     "server.reload_invalidated", "incr.clean", "incr.token",
                     "incr.tree", "incr.cold"]


def run(workload, seed, trace, plant=False, seconds=2):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if plant:
        cmd.append("--plant-mismatch")
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result


def main():
    failures = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        code, res = run(w, 1, trace=False, plant=True, seconds=1)
        expect(code != 0 and res is not None and not res["correct"] and
               res["failed"] > 0,
               f"{w}: a planted wrong oracle form is reported as an error")

    for w in WORKLOADS:
        counts = []
        for seed in (1, 1, 2):
            code, res = run(w, seed, trace=True)
            expect(code == 0 and res is not None and res["correct"],
                   f"{w}: traced run with seed {seed} is correct")
            if res is None:
                break
            counts.append({k: res["metrics"][k]["value"] for k in REPEATED})
        if len(counts) != 3:
            continue
        same = [k for k in REPEATED if counts[0][k] != counts[1][k]]
        expect(not same, f"{w}: counters repeat for one seed" +
               (f" (differ: {same})" if same else ""))
        stuck = [k for k in SEEDED if counts[0][k] == counts[2][k]]
        expect(not stuck, f"{w}: counters change with the seed" +
               (f" (unchanged: {stuck})" if stuck else ""))

    print("selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
