#!/usr/bin/env python3
"""Gate a checkout's performance on an interleaved micabench A/B run
against a base revision.

Run from the root of a source checkout:

    python3 tools/micabench_ab.py BASE_REV

The checkout is the head side. BASE_REV is checked out into a git
worktree under .bench_build/ (removed afterwards), and each side runs
its own micabench/run.py, which builds that side's harness and library.

For each workload in the head's BENCHMARK.json, the script runs PAIRS
interleaved pairs of RUN_SECONDS-long `--trace 0` runs. Pair i uses
seed i on both sides, and the side that runs first alternates. For
each workload and end-to-end metric it prints both sides' median and
quartiles, the head/base ratio of the medians and how many pairs head
won. A head median worse than the base's by more than the metric's
`bound` (a fraction of the base median) is a regression. Then one
`--trace 1` run per side gives each per-layer metric's head/base
ratio, largest move first; that table is not gated.

A run that exits nonzero, prints a malformed last line, or reports
`correct: false` or `failed > 0` fails the gate at once, naming the
side, workload and pair.

Exit codes: 0 pass, 1 regression or failed run, 2 usage error.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys

PAIRS = 8
RUN_SECONDS = 5


class RunFailed(Exception):
    pass


def usage(msg):
    print("usage: python3 tools/micabench_ab.py BASE_REV", file=sys.stderr)
    print("micabench_ab: " + msg, file=sys.stderr)
    sys.exit(2)


def git(*args):
    return subprocess.run(["git"] + list(args), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def run(side, root, workload, seed, trace, where):
    """One run.py invocation; @return its metrics as {name: value}."""
    cmd = [sys.executable, os.path.join("micabench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    what = "%s run failed (workload %s, %s)" % (side, workload, where)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-20:]
        raise RunFailed("%s: exit %d\n%s" % (what, proc.returncode,
                                             "\n".join(tail)))
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    try:
        result = json.loads(last)
        metrics = {k: float(v["value"])
                   for k, v in result["metrics"].items()}
        correct, failed = result["correct"], result["failed"]
    except (ValueError, KeyError, TypeError, AttributeError):
        raise RunFailed("%s: malformed last line: %r" % (what, last))
    if correct is not True or failed != 0:
        raise RunFailed("%s: correct=%s, failed=%s"
                        % (what, json.dumps(correct), json.dumps(failed)))
    return metrics


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def table(rows):
    """Print @p rows (lists of cells) in left-aligned columns."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def ratio(head, base):
    if base == 0:
        return 1.0 if head == 0 else math.inf
    return head / base


def end_to_end(roots, workloads, metrics):
    """@return {(workload, metric): {side: [value per pair]}}."""
    values = {}
    for w in workloads:
        for m in metrics:
            values[(w, m["name"])] = {"base": [], "head": []}
        for pair in range(1, PAIRS + 1):
            order = ("base", "head") if pair % 2 else ("head", "base")
            for side in order:
                where = "pair %d" % pair
                got = run(side, roots[side], w, pair, 0, where)
                for m in metrics:
                    if m["name"] not in got:
                        raise RunFailed(
                            "%s run failed (workload %s, %s): no %s"
                            % (side, w, where, m["name"]))
                    values[(w, m["name"])][side].append(got[m["name"]])
                print("[%s %s/%d] %s: %s" % (
                    w, pair, PAIRS, side,
                    " ".join("%s=%.4g" % (m["name"], got[m["name"]])
                             for m in metrics)),
                      file=sys.stderr, flush=True)
    return values


def gate(values, metrics):
    """Print the end-to-end table; @return the regressions found."""
    print("end to end: %d interleaved pairs of %d-s runs per workload "
          "(pair i: seed i on both sides, first side alternating)"
          % (PAIRS, RUN_SECONDS))
    rows = [["workload", "metric", "base median [q1, q3]",
             "head median [q1, q3]", "head/base", "head won", "bound",
             "verdict"]]
    regressions = []
    for (w, name), sides in values.items():
        m = next(x for x in metrics if x["name"] == name)
        lower = m["better"] == "lower"
        med = {s: statistics.median(v) for s, v in sides.items()}
        cells = {}
        for s, v in sides.items():
            q1, q3 = quartiles(v)
            cells[s] = "%.4g [%.4g, %.4g] %s" % (med[s], q1, q3, m["unit"])
        won = sum(1 for b, h in zip(sides["base"], sides["head"])
                  if (h < b if lower else h > b))
        r = ratio(med["head"], med["base"])
        bad = r > 1 + m["bound"] if lower else r < 1 - m["bound"]
        if bad:
            regressions.append("%s/%s: head median %.4g %s vs base %.4g "
                               "(ratio %.3f, bound %g)"
                               % (w, name, med["head"], m["unit"],
                                  med["base"], r, m["bound"]))
        rows.append([w, name, cells["base"], cells["head"], "%.3f" % r,
                     "%d/%d" % (won, PAIRS), "%g" % m["bound"],
                     "REGRESSION" if bad else "ok"])
    table(rows)
    return regressions


def layers(roots, workload, names):
    """One --trace 1 run per side; print the head/base table."""
    got = {side: run(side, roots[side], workload, 1, 1, "--trace 1")
           for side in ("base", "head")}
    moves = []
    for name in names:
        if name in got["base"] and name in got["head"]:
            b, h = got["base"][name], got["head"][name]
            r = ratio(h, b)
            move = abs(math.log(r)) if 0 < r < math.inf else math.inf
            moves.append((move, [name, "%.4g" % b, "%.4g" % h, "%.3f" % r]))
    moves.sort(key=lambda m: -m[0])
    print()
    print("per layer: one --trace 1 run per side (workload %s, seed 1), "
          "not gated" % workload)
    table([["layer", "base", "head", "head/base"]] + [m[1] for m in moves])


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        usage("give exactly one argument, the base revision")
    if not os.path.isfile("BENCHMARK.json") or \
            not os.path.isfile(os.path.join("micabench", "run.py")):
        usage("run from the root of a source checkout "
              "(no BENCHMARK.json or micabench/run.py here)")
    rev = git("rev-parse", "--verify", "--quiet", sys.argv[1] + "^{commit}")
    if rev.returncode != 0:
        usage("unknown revision '%s'" % sys.argv[1])
    base_rev = rev.stdout.strip()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    worktree = os.path.join(".bench_build", "ab-base-%d" % os.getpid())
    os.makedirs(".bench_build", exist_ok=True)
    add = git("worktree", "add", "--detach", worktree, base_rev)
    if add.returncode != 0:
        print("micabench_ab: git worktree add failed:\n" + add.stderr,
              file=sys.stderr)
        return 1
    print("base %s, head the checkout at %s" % (
        base_rev, os.path.abspath(".")))
    try:
        roots = {"base": worktree, "head": "."}
        values = end_to_end(roots, workloads, metrics)
        regressions = gate(values, metrics)
        layers(roots, workloads[0], [m["name"] for m in spec["per_layer"]])
    except RunFailed as e:
        print("micabench_ab: FAIL: %s" % e, flush=True)
        return 1
    finally:
        git("worktree", "remove", "--force", worktree)
        shutil.rmtree(worktree, ignore_errors=True)
        git("worktree", "prune")
    print()
    for r in regressions:
        print("micabench_ab: REGRESSION %s" % r)
    print("micabench_ab: %s" % ("FAIL" if regressions else "pass"))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
