#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Builds the harness (as perfbench/run.py does) and checks:

  selftest     a short pass with a corrupted module, an op whose output is
               wrong and an op that ends on another tier than requested,
               in process and behind the server: exactly the planted ops
               count as failed, and the pass still reports its counts;
  end-to-end   every workload, serve too, one short untraced run: 0 failed
               ops, output correct, every end-to-end metric of
               BENCHMARK.json present with its unit and above 0;
  traced       every workload, one short traced run: every per-layer
               metric present, the Chrome trace accepted by
               scripts/check_trace.py, and on deploy_cold and steady the
               unattributed time below a tenth of the op time.

Exit status 0 when everything holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

FAILURES = []


def check(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        FAILURES.append(what)


def last_json(args):
    p = subprocess.run([run.BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                       text=True)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    run.build()
    out = os.path.relpath(run.OUT, ROOT)
    os.makedirs(run.OUT, exist_ok=True)

    code, res = last_json(["--selftest", "--out-dir", out])
    check(code == 0, "selftest: planted failures counted exactly")
    check(res is not None and res["attempted"] == 6 and res["failed"] == 4,
          "selftest: reports 6 attempted, 4 failed")

    # serve is not in BENCHMARK.json (see README) but stays runnable.
    workloads = [x["name"] for x in bench["workloads"]]
    for w in workloads + [w for w in ["serve"] if w not in workloads]:
        code, res = last_json(["--workload", w, "--seed", "7", "--seconds",
                               "1", "--trace", "0", "--out-dir", out])
        check(code == 0 and res and res["failed"] == 0 and res["correct"],
              "%s: untraced run, 0 failed, correct" % w)
        for m in bench["end_to_end"]:
            got = (res or {}).get("metrics", {}).get(m["name"])
            check(got is not None and got["unit"] == m["unit"] and
                  got["value"] > 0, "%s: %s reported" % (w, m["name"]))

        code, res = last_json(["--workload", w, "--seed", "7", "--seconds",
                               "1", "--trace", "1", "--out-dir", out])
        check(code == 0 and res and res["failed"] == 0 and res["correct"],
              "%s: traced run, 0 failed, correct" % w)
        metrics = (res or {}).get("metrics", {})
        check(all(m["name"] in metrics for m in bench["per_layer"]),
              "%s: every per-layer metric reported" % w)
        trace = os.path.join(run.OUT, "trace-%s-7.json" % w)
        checker = os.path.join(ROOT, "scripts", "check_trace.py")
        if os.path.isfile(checker):
            p = subprocess.run([sys.executable, checker, "--no-drops", trace])
            check(p.returncode == 0, "%s: trace accepted" % w)
        if w != "serve":
            share = metrics.get("vapor.unattributed_share", {}).get("value")
            check(share is not None and abs(share) < 0.1,
                  "%s: unattributed share %s below 0.1" % (w, share))

    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
