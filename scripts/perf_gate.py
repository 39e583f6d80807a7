#!/usr/bin/env python3
"""CI perf gate for the VM dispatch-throughput baseline.

Compares a freshly measured ``vm_throughput --json`` report against the
committed baseline (BENCH_vm.json) and fails when the headline
``ns_per_dispatched_op`` regressed by more than the allowed fraction
(default 15%). Improvements always pass; the committed baseline is only
refreshed deliberately, by re-running the bench and checking the JSON in.

Three modes:

  absolute (default)   current.ns_per_dispatched_op must be at most
                       baseline.ns_per_dispatched_op * (1 + --max-regress).
                       Meaningful on runners comparable to the one that
                       produced the baseline.

  --relative           ignores the baseline's absolute nanoseconds and
                       instead checks an internal invariant of the current
                       report: the fused headline cell must not be slower
                       than its own unfused measurement by more than
                       --max-regress. This is stable under uniform slowdown
                       (sanitizer instrumentation, emulation), which is why
                       the sanitize CI job uses it.

  --obs-overhead       gates the observability layer's ON-but-idle cost:
                       the report's ns_per_op_obs_idle (obs compiled in,
                       no sink installed — the default configuration every
                       run pays) must be at most ns_per_op_obs_off (master
                       switch dark) * (1 + --max-obs-overhead, default 2%).
                       Both numbers come from one interleaved measurement
                       inside the current report, so this mode needs only
                       one report and no baseline:
                       perf_gate.py --obs-overhead vm_current.json

  --native-floor       gates the native tier's payoff from one
                       ``native_throughput --json`` report: the headline
                       cell's native_ns_per_op must be at most
                       vm_ns_per_op * --native-floor-ratio (default 0.5,
                       i.e. native must at least halve the VM's fused
                       dispatch cost). It also holds the saturating-kernel
                       lowering floor: every cell whose kernel carries the
                       "saturating" feature (the striped-DP SSV/Viterbi
                       family) must report packed_ops >= 1 on SIMD
                       targets -- the narrow packed encodings
                       (paddsb/paddsw/paddusb/psubusb/pmaxub/pmaxsw ...)
                       must stay inline, never regress to the all-shim
                       helper path. Reports written on hosts without
                       the native tier carry "native_supported": false;
                       with --allow-missing those pass with a notice --
                       the executor demotes cleanly there, so there is
                       nothing to gate. Without --allow-missing (and
                       always when the key is absent, i.e. the report is
                       corrupt or from the wrong bench) that is a hard
                       failure: a gate that silently stops measuring is
                       worse than no gate:
                       perf_gate.py --native-floor --allow-missing \
                           native_current.json

  --server-floor       gates the execution service's replay report
                       (BENCH_server.json from vapor-replay --json): the
                       load run must be contract-clean (0 failures, 0
                       golden mismatches, 0 unexpected Statuses, 0
                       protocol violations, 0 server aborts), must have
                       completed work (completed > 0, throughput > 0),
                       and the bounded code cache must be earning its
                       keep (cache_hit_rate at least
                       --server-min-hit-rate, default 0.10):
                       perf_gate.py --server-floor BENCH_server.json

  --tiering-floor      gates tiered execution's payoff from one
                       ``tiering_latency --json`` report
                       (BENCH_tiering.json): the geomean cold
                       time-to-first-result speedup over the report's
                       compile-heavy cells must be at least
                       --tiering-cold-floor (default 3.0), there must BE
                       at least one compile-heavy cell (a report that
                       stopped classifying cells is corrupt, not
                       passing), and steady-state tiered throughput must
                       stay within 5% of eager: steady_ratio_geomean at
                       least --tiering-steady-floor (default 0.95) with
                       no single cell below --tiering-steady-cell-min
                       (default 0.85). Every ratio compares two numbers
                       from the same report on the same host, so the
                       gate holds under uniform slowdown (sanitizers):
                       perf_gate.py --tiering-floor BENCH_tiering.json

  --elision-floor      gates proof-carrying check elision from one
                       native_throughput report: the report's
                       geomean_elide_speedup (elision ON vs OFF, native,
                       geomean over every kernel x target cell) must be
                       at least --elision-floor-geomean (default 1.0:
                       elision must never cost throughput on average; a
                       single cell is too noisy to gate, the geomean over
                       the full matrix is stable). Both sides of every
                       ratio come from the same report, so the gate holds
                       under uniform slowdown. With --audit-json the
                       matching ``vapor-crashtest --audit --json`` report
                       must additionally show zero would-have-fired
                       elidable checks and zero failures -- the soundness
                       half of the same contract:
                       perf_gate.py --elision-floor native_current.json \
                           --audit-json audit.json

  --crashtest          checks a ``vapor-crashtest --json`` report
                       (crashtest.json, BENCH_crashtest.json) against the
                       kernel registry: its "kernels" count must equal
                       kernels::ExpectedKernelCount, read from
                       src/kernels/Kernels.h. A report
                       from a sweep that lost or gained kernels describes
                       a different suite, so it fails instead of passing
                       silently:
                       perf_gate.py --crashtest crashtest.json

Exit status: 0 pass, 1 regression, 2 bad input.
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf_gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def native_gate_applies(report, path, allow_missing):
    """Whether a native_throughput gate should run on *report*.

    Returns True when the native tier was measured. Exits instead of
    returning when the report cannot be trusted: an absent
    "native_supported" key means a corrupt or wrong-bench report (hard
    exit 2), and an unsupported host is only waved through when the
    caller explicitly opted in with --allow-missing -- otherwise a runner
    misconfiguration would silently disable the gate forever (exit 1).
    """
    if "native_supported" not in report:
        print(f"perf_gate: {path} has no \"native_supported\" key; the "
              "report is corrupt or not from this bench. Refusing to "
              "treat a broken report as a pass.", file=sys.stderr)
        sys.exit(2)
    if report["native_supported"] is not False:
        return True
    if not allow_missing:
        print("perf_gate: FAIL: the report says the native tier is "
              "unsupported on the measuring host, but --allow-missing "
              "was not given. If this runner is genuinely meant to gate "
              "without the native tier, pass --allow-missing explicitly.",
              file=sys.stderr)
        sys.exit(1)
    print("perf_gate: PASS (notice): native tier unsupported on the "
          f"measuring host (features: {report.get('cpu_features', '?')}); "
          "nothing to gate (--allow-missing)")
    return False


def expected_kernel_count():
    """kernels::ExpectedKernelCount as declared in src/kernels/Kernels.h."""
    header = os.path.join(REPO_ROOT, "src", "kernels", "Kernels.h")
    try:
        with open(header, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        print(f"perf_gate: cannot read {header}: {e}", file=sys.stderr)
        sys.exit(2)
    m = re.search(r"\bExpectedKernelCount\s*=\s*(\d+)\s*;", text)
    if not m:
        print(f"perf_gate: {header} declares no ExpectedKernelCount",
              file=sys.stderr)
        sys.exit(2)
    return int(m.group(1))


def headline_cell(report):
    """The cell the headline metric is measured on (kernel+target keys)."""
    kernel, target = report.get("kernel"), report.get("target")
    for cell in report.get("cells", []):
        if cell.get("kernel") == kernel and cell.get("target") == target:
            return cell
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed BENCH_vm.json (or, with "
                                     "--obs-overhead, the only report)")
    ap.add_argument("current", nargs="?", default=None,
                    help="freshly measured vm_throughput --json (unused "
                         "with --obs-overhead)")
    ap.add_argument("--max-regress", type=float, default=0.15,
                    help="allowed fractional regression (default 0.15)")
    ap.add_argument("--relative", action="store_true",
                    help="gate fused-vs-unfused within the current report "
                         "instead of against the baseline's nanoseconds")
    ap.add_argument("--obs-overhead", action="store_true",
                    help="gate ON-but-idle tracing cost against the dark "
                         "measurement inside one report")
    ap.add_argument("--max-obs-overhead", type=float, default=0.02,
                    help="allowed idle-tracing overhead (default 0.02)")
    ap.add_argument("--native-floor", action="store_true",
                    help="gate the native tier's headline ns/op against "
                         "the VM's fused ns/op inside one "
                         "native_throughput report")
    ap.add_argument("--native-floor-ratio", type=float, default=0.5,
                    help="maximum native/VM ns-per-op ratio (default 0.5)")
    ap.add_argument("--elision-floor", action="store_true",
                    help="gate elided vs unelided native ns/op inside one "
                         "native_throughput report")
    ap.add_argument("--elision-floor-geomean", type=float, default=1.0,
                    help="minimum geomean elision-ON-vs-OFF native speedup "
                         "(default 1.0)")
    ap.add_argument("--audit-json", default=None,
                    help="with --elision-floor: a vapor-crashtest --audit "
                         "--json report that must show zero would-have-"
                         "fired checks and zero failures")
    ap.add_argument("--allow-missing", action="store_true",
                    help="with the native gates: accept a report whose "
                         "\"native_supported\" is exactly false (host "
                         "without the native tier) as a pass-with-notice "
                         "instead of a failure")
    ap.add_argument("--server-floor", action="store_true",
                    help="gate a vapor-replay BENCH_server.json report: "
                         "contract-clean load run, work completed, cache "
                         "hit rate above the floor")
    ap.add_argument("--server-min-hit-rate", type=float, default=0.10,
                    help="minimum cache_hit_rate for --server-floor "
                         "(default 0.10)")
    ap.add_argument("--tiering-floor", action="store_true",
                    help="gate a tiering_latency BENCH_tiering.json "
                         "report: cold TTFR speedup on compile-heavy "
                         "cells and steady-state parity with eager")
    ap.add_argument("--tiering-cold-floor", type=float, default=3.0,
                    help="minimum geomean cold-TTFR speedup over "
                         "compile-heavy cells (default 3.0)")
    ap.add_argument("--tiering-steady-floor", type=float, default=0.95,
                    help="minimum geomean steady-state tiered/eager "
                         "throughput ratio (default 0.95)")
    ap.add_argument("--tiering-steady-cell-min", type=float, default=0.85,
                    help="minimum per-cell steady-state ratio "
                         "(default 0.85)")
    ap.add_argument("--crashtest", action="store_true",
                    help="check a vapor-crashtest --json report's kernel "
                         "count against kernels::ExpectedKernelCount")
    args = ap.parse_args()

    if args.crashtest:
        path = args.current or args.baseline
        report = load(path)
        if report.get("suite") != "vapor-crashtest":
            print(f"perf_gate: {path} is not a vapor-crashtest report",
                  file=sys.stderr)
            sys.exit(2)
        kernels = report.get("kernels")
        if not isinstance(kernels, int) or kernels < 0:
            print(f"perf_gate: {path} has no usable kernel count",
                  file=sys.stderr)
            sys.exit(2)
        want = expected_kernel_count()
        verdict = "PASS" if kernels == want else "FAIL"
        print(f"perf_gate: {verdict}: {path} covers {kernels} kernels "
              f"(ExpectedKernelCount {want}), "
              f"{report.get('cases', '?')} cases")
        if kernels != want:
            print("perf_gate: the crashtest report does not cover the "
                  "kernel registry; regenerate it with the current tree",
                  file=sys.stderr)
            sys.exit(1)
        sys.exit(0)

    if args.tiering_floor:
        path = args.current or args.baseline
        report = load(path)
        if report.get("schema") != "vapor-bench-tiering-v1":
            print(f"perf_gate: {path} is not a tiering_latency report",
                  file=sys.stderr)
            sys.exit(2)
        cold = report.get("cold_speedup_geomean_compile_heavy")
        steady = report.get("steady_ratio_geomean")
        steady_min = report.get("steady_ratio_min")
        heavy = report.get("compile_heavy_cells")
        for name, v in (("cold_speedup_geomean_compile_heavy", cold),
                        ("steady_ratio_geomean", steady),
                        ("steady_ratio_min", steady_min)):
            if not isinstance(v, (int, float)) or v <= 0:
                print(f"perf_gate: {path} has no usable {name}",
                      file=sys.stderr)
                sys.exit(2)
        if not isinstance(heavy, int) or heavy < 0:
            print(f"perf_gate: {path} has no usable compile_heavy_cells",
                  file=sys.stderr)
            sys.exit(2)
        bad = []
        if heavy == 0:
            bad.append("no compile-heavy cells classified (the bench "
                       "stopped measuring what the gate gates)")
        if cold < args.tiering_cold_floor:
            bad.append(f"cold speedup geomean {cold:.2f}x"
                       f"<{args.tiering_cold_floor:.2f}x")
        if steady < args.tiering_steady_floor:
            bad.append(f"steady ratio geomean {steady:.3f}"
                       f"<{args.tiering_steady_floor:.2f}")
        if steady_min < args.tiering_steady_cell_min:
            bad.append(f"steady ratio min {steady_min:.3f}"
                       f"<{args.tiering_steady_cell_min:.2f}")
        # A cell that never converged to the eager tier means promotion
        # itself is broken -- its "steady" numbers measure the wrong tier.
        unconverged = [c.get("kernel", "?") + "/" + c.get("target", "?")
                       for c in report.get("cells", [])
                       if c.get("promote_runs", -1) < 0]
        if unconverged:
            bad.append("promotion never converged on: "
                       + ", ".join(unconverged[:5]))
        verdict = "FAIL" if bad else "PASS"
        print(f"perf_gate: {verdict}: tiered cold-TTFR geomean {cold:.2f}x "
              f"over {heavy} compile-heavy cells "
              f"(floor {args.tiering_cold_floor:.1f}x); steady ratio "
              f"geomean {steady:.3f} min {steady_min:.3f} "
              f"(floors {args.tiering_steady_floor:.2f}/"
              f"{args.tiering_steady_cell_min:.2f})")
        if bad:
            print("perf_gate: tiered execution broke its latency "
                  "contract: " + ", ".join(bad), file=sys.stderr)
            sys.exit(1)
        sys.exit(0)

    if args.server_floor:
        path = args.current or args.baseline
        report = load(path)
        if report.get("schema") != "vapor-bench-server-v1":
            print(f"perf_gate: {path} is not a vapor-replay server report",
                  file=sys.stderr)
            sys.exit(2)
        # Contract counters: every one must be present AND zero. A
        # missing counter is a corrupt report, not a clean run.
        zeros = ("failures", "golden_mismatches", "unexpected_status",
                 "protocol_failures", "server_aborts")
        bad = []
        for key in zeros:
            v = report.get(key)
            if not isinstance(v, int) or v < 0:
                print(f"perf_gate: {path} is missing counter \"{key}\"",
                      file=sys.stderr)
                sys.exit(2)
            if v != 0:
                bad.append(f"{key}={v}")
        completed = report.get("completed")
        rps = report.get("throughput_rps")
        hit = report.get("cache_hit_rate")
        for name, v in (("completed", completed),
                        ("throughput_rps", rps),
                        ("cache_hit_rate", hit)):
            if not isinstance(v, (int, float)):
                print(f"perf_gate: {path} has no usable {name}",
                      file=sys.stderr)
                sys.exit(2)
        if completed <= 0 or rps <= 0:
            bad.append(f"completed={completed} throughput={rps}")
        if hit < args.server_min_hit_rate:
            bad.append(f"cache_hit_rate={hit:.3f}"
                       f"<{args.server_min_hit_rate:.2f}")
        verdict = "FAIL" if bad else "PASS"
        print(f"perf_gate: {verdict}: server replay "
              f"completed={completed} p50={report.get('p50_ms', 0):.2f}ms "
              f"p99={report.get('p99_ms', 0):.2f}ms "
              f"throughput={rps:.1f} req/s hit_rate={hit:.3f} "
              f"evictions={report.get('cache_evictions', '?')}")
        if bad:
            print("perf_gate: the execution service broke its robustness "
                  "contract under load: " + ", ".join(bad), file=sys.stderr)
            sys.exit(1)
        sys.exit(0)

    if args.elision_floor:
        path = args.current or args.baseline
        report = load(path)
        if report.get("bench") != "native_throughput":
            print(f"perf_gate: {path} is not a native_throughput report",
                  file=sys.stderr)
            sys.exit(2)
        if not native_gate_applies(report, path, args.allow_missing):
            sys.exit(0)
        geo = report.get("geomean_elide_speedup")
        if not isinstance(geo, (int, float)) or geo <= 0:
            print(f"perf_gate: {path} has no usable geomean_elide_speedup",
                  file=sys.stderr)
            sys.exit(2)
        verdict = "PASS" if geo >= args.elision_floor_geomean else "FAIL"
        print(f"perf_gate: {verdict}: geomean elision-ON-vs-OFF native "
              f"speedup {geo:.2f}x "
              f"(floor {args.elision_floor_geomean:.2f}x); headline "
              f"elided {report.get('native_ns_per_op_elide', 0):.4f} vs "
              f"unelided {report.get('native_ns_per_op', 0):.4f} ns/op")
        if geo < args.elision_floor_geomean:
            print("perf_gate: certificate-driven check elision no longer "
                  "pays for itself across the matrix; check whether the "
                  "verifier stopped certifying accesses or the native "
                  "emitter stopped honoring the plan's grants",
                  file=sys.stderr)
            sys.exit(1)
        if args.audit_json:
            audit = load(args.audit_json)
            if not audit.get("audit_mode", False):
                print(f"perf_gate: {args.audit_json} was not produced by a "
                      "--audit crashtest sweep", file=sys.stderr)
                sys.exit(2)
            fired = (audit.get("audit_align_fired", -1),
                     audit.get("audit_bounds_fired", -1))
            failures = audit.get("failures", -1)
            if any(not isinstance(v, int) or v < 0
                   for v in (*fired, failures)):
                print(f"perf_gate: {args.audit_json} is missing audit "
                      "counters", file=sys.stderr)
                sys.exit(2)
            if fired != (0, 0) or failures != 0:
                print(f"perf_gate: FAIL: audit sweep saw "
                      f"{fired[0]} align + {fired[1]} bounds "
                      f"would-have-fired elidable checks and "
                      f"{failures} failures (all must be 0); an elided "
                      "check masked a genuine fault", file=sys.stderr)
                sys.exit(1)
            print(f"perf_gate: audit sweep clean: 0 would-have-fired "
                  f"elidable checks across {audit.get('cases', '?')} "
                  f"fault-injected cases")
        sys.exit(0)

    if args.native_floor:
        path = args.current or args.baseline
        report = load(path)
        if report.get("bench") != "native_throughput":
            print(f"perf_gate: {path} is not a native_throughput report",
                  file=sys.stderr)
            sys.exit(2)
        if not native_gate_applies(report, path, args.allow_missing):
            sys.exit(0)
        native = report.get("native_ns_per_op")
        vm = report.get("vm_ns_per_op")
        for name, v in (("native_ns_per_op", native), ("vm_ns_per_op", vm)):
            if not isinstance(v, (int, float)) or v <= 0:
                print(f"perf_gate: {path} has no usable {name}",
                      file=sys.stderr)
                sys.exit(2)
        limit = vm * args.native_floor_ratio
        ratio = native / vm
        verdict = "PASS" if native <= limit else "FAIL"
        print(f"perf_gate: {verdict}: native {native:.4f} vs VM fused "
              f"{vm:.3f} ns/op, ratio {ratio:.2f} "
              f"(limit {args.native_floor_ratio:.2f})")
        if native > limit:
            print("perf_gate: the native tier no longer clears its payoff "
                  "floor against the VM; check the emitter for lost inline "
                  "coverage (ops falling back to ScalarOps shims)",
                  file=sys.stderr)
            sys.exit(1)
        # Saturating-kernel lowering floor: every cell whose kernel
        # carries the "saturating" feature must keep packed SSE lowering
        # (paddsb/psubusw family) on SIMD targets. A report with no such
        # cells came from a bench binary that lost the DP kernels -- that
        # is corrupt input, not a pass.
        sat_cells = [c for c in report.get("cells", [])
                     if c.get("saturating") is True]
        sat_simd = [c for c in sat_cells if c.get("target") != "scalar"]
        if not sat_simd:
            print(f"perf_gate: {path} has no saturating-kernel SIMD cells "
                  f"(bench binary predates the striped-DP kernels, or the "
                  f"kernel registry lost them)", file=sys.stderr)
            sys.exit(2)
        bad = []
        for c in sat_simd:
            packed = c.get("packed_ops")
            if not isinstance(packed, int) or packed < 1:
                bad.append(c)
        if bad:
            names = ", ".join(f"{c.get('kernel')}x{c.get('target')}"
                              for c in bad)
            print(f"perf_gate: FAIL: saturating-kernel cells regressed to "
                  f"an all-shim lowering (packed_ops = 0): {names}; the "
                  f"narrow packed encodings (paddsb/paddsw/paddusb/psubusb "
                  f"...) must stay inline", file=sys.stderr)
            sys.exit(1)
        print(f"perf_gate: PASS: {len(sat_simd)} saturating-kernel SIMD "
              f"cells keep packed inline lowering (min packed_ops "
              f"{min(c['packed_ops'] for c in sat_simd)})")
        sys.exit(0)

    if args.obs_overhead:
        path = args.current or args.baseline
        report = load(path)
        if report.get("bench") != "vm_throughput":
            print(f"perf_gate: {path} is not a vm_throughput report",
                  file=sys.stderr)
            sys.exit(2)
        idle = report.get("ns_per_op_obs_idle")
        off = report.get("ns_per_op_obs_off")
        for name, v in (("ns_per_op_obs_idle", idle),
                        ("ns_per_op_obs_off", off)):
            if not isinstance(v, (int, float)) or v <= 0:
                print(f"perf_gate: {path} has no usable {name} "
                      f"(built with -DVAPOR_OBS=OFF?)", file=sys.stderr)
                sys.exit(2)
        limit = off * (1.0 + args.max_obs_overhead)
        delta = (idle - off) / off
        verdict = "PASS" if idle <= limit else "FAIL"
        print(f"perf_gate: {verdict}: obs idle {idle:.3f} vs dark "
              f"{off:.3f} ns/op, overhead {delta:+.2%} "
              f"(limit +{args.max_obs_overhead:.0%})")
        if idle > limit:
            print("perf_gate: ON-but-idle tracing overhead exceeds the "
                  "budget; a recording site is probably doing work before "
                  "checking obs::tracingActive()/enabled()",
                  file=sys.stderr)
            sys.exit(1)
        sys.exit(0)

    if args.current is None:
        print("perf_gate: baseline and current reports are both required "
              "outside --obs-overhead mode", file=sys.stderr)
        sys.exit(2)

    base = load(args.baseline)
    cur = load(args.current)

    for report, path in ((base, args.baseline), (cur, args.current)):
        if report.get("bench") != "vm_throughput":
            print(f"perf_gate: {path} is not a vm_throughput report",
                  file=sys.stderr)
            sys.exit(2)

    cur_ns = cur.get("ns_per_dispatched_op")
    if not isinstance(cur_ns, (int, float)) or cur_ns <= 0:
        print("perf_gate: current report has no ns_per_dispatched_op",
              file=sys.stderr)
        sys.exit(2)

    if args.relative:
        cell = headline_cell(cur)
        if cell is None:
            print("perf_gate: current report has no headline cell",
                  file=sys.stderr)
            sys.exit(2)
        ref_ns = cell["ns_per_op_unfused"]
        what = (f"fused {cell['ns_per_op_fused']:.3f} vs unfused "
                f"{ref_ns:.3f} ns/op (relative mode)")
        measured = cell["ns_per_op_fused"]
    else:
        ref_ns = base.get("ns_per_dispatched_op")
        if not isinstance(ref_ns, (int, float)) or ref_ns <= 0:
            print("perf_gate: baseline has no ns_per_dispatched_op",
                  file=sys.stderr)
            sys.exit(2)
        what = (f"current {cur_ns:.3f} vs baseline {ref_ns:.3f} "
                f"ns/dispatched-op")
        measured = cur_ns

    limit = ref_ns * (1.0 + args.max_regress)
    delta = (measured - ref_ns) / ref_ns
    verdict = "PASS" if measured <= limit else "FAIL"
    print(f"perf_gate: {verdict}: {what}, delta {delta:+.1%} "
          f"(limit +{args.max_regress:.0%})")
    if measured > limit:
        print("perf_gate: dispatch throughput regressed past the gate; "
              "either fix the regression or deliberately refresh "
              "BENCH_vm.json with the bench's --json output",
              file=sys.stderr)
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
