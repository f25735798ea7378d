"""The Music Data Manager's one benchmark.

    python3 bench/run.py --all --seed 1        every workload, then its traced run
    python3 bench/run.py --all --runs 5 --out A.json   a result set worth comparing
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all --quick         tiny sizes, for the smoke test
    python3 bench/run.py --agree A.json B.json two result sets, metric by metric

A workload runs in a process of its own: set-up (three times, the median
is ``setup_s``), a warm-up, then the measured phase.  Every result is
checked against a reference model the harness keeps; a wrong answer is a
failed op.  The last line printed for one workload is the result object
``BENCHMARK.json``'s driver reads; everything else goes to ``bench/out/``.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(1, os.path.join(ROOT, "src"))

import harness
import metrics as metric_tables

SETUPS = 3
#: Share of ``--seconds`` a traced run spends untraced first, so the
#: tracing overhead is read off the same process and data.
REFERENCE_SHARE = 0.3

FULL = {
    "tracks": 16_000, "point_titles": 4096, "hot_titles": 32,
    "search_pool": 96, "ranked_pool": 8, "similar_pool": 4,
    "measures": 32, "cold_tracks": 20_000, "cold_appends": 200,
}
QUICK = {
    "tracks": 2_000, "point_titles": 512, "hot_titles": 32,
    "search_pool": 24, "ranked_pool": 4, "similar_pool": 2,
    "measures": 4, "cold_tracks": 2_000, "cold_appends": 20,
}
QUICK_SECONDS = 2


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def workload_classes():
    from catalog import CatalogEdit, CatalogLocalSearch, CatalogRemoteRead
    from cold import ColdOpen
    from score import ScoreEdit

    return {cls.name: cls for cls in (
        CatalogRemoteRead, CatalogLocalSearch, CatalogEdit, ScoreEdit, ColdOpen,
    )}


# -- one workload ---------------------------------------------------------------


def run_workload(name, seed, seconds, trace, sizes, sabotage=False):
    """Set up, drive and check one workload; returns its result dict."""
    workload_class = workload_classes()[name]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=name + "-", dir=OUT)
    workload = workload_class(seed, sizes, workdir)
    try:
        calib = [harness.calibrate()]
        setups = []  # (wall s, s at the reference speed)
        for attempt in range(SETUPS):
            setups.append(harness.measure_setup(workload.build))
            if attempt < SETUPS - 1:
                workload.discard()
        workload.prepare()
        if sabotage:
            workload.sabotage()
        drivers = workload.drivers
        harness.run_phase(drivers, harness.WARMUP_S)
        if trace:
            phase, traced = _traced_phases(workload, seconds)
        else:
            phase = harness.Phase(seconds)
            harness.run_phase(drivers, seconds, phase)
        workload.finish()
        calib.append(harness.calibrate())
        result = _class_report(workload, phase)
        if trace:
            facts = traced.pop("facts")
            facts["calib_ms"] = statistics.mean(calib)
            layers = metric_tables.layer_metrics(
                traced["trace_summary"], traced.pop("delta"), facts
            )
            units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
            result["metrics"] = {
                key: {"value": value, "unit": units[key]}
                for key, value in layers.items()
            }
            result.update(traced)
        else:
            result["metrics"] = _end_to_end(workload, phase, setups)
        attempted = sum(d.attempted for d in drivers)
        failed = sum(d.failed for d in drivers)
        result["class_metrics"]["failed_share"] = {
            "value": failed / max(1, attempted), "unit": "ratio",
            "n": attempted,
        }
        result.update({
            "workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "sizes": sizes, "calib_ms": calib,
            "setups_s": setups, "attempted": attempted, "failed": failed,
            "errors": [e for d in drivers for e in d.errors],
            "correct": failed == 0 and attempted > 0,
        })
        return result
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _all_classes(workload):
    return [cls for driver in workload.drivers for cls in driver.counts]


def _end_to_end(workload, phase, setups):
    # A class whose every op failed has no latency; it shows in ``failed``.
    medians = [phase.median_ms([cls]) for cls in _all_classes(workload)]
    medians = [m for m in medians if m is not None]
    rate = phase.ops_per_s()
    if rate is None or not medians:
        raise SystemExit("%s: no op was verified; nothing to report"
                         % workload.name)
    return {
        "setup_s": {
            "value": statistics.median(s for _, s in setups), "unit": "s",
        },
        "ops_per_s": {"value": rate["value"], "unit": "1/s"},
        "class_gmean_ms": {
            "value": harness.geometric_mean([m["value"] for m in medians]),
            "unit": "ms",
        },
        "peak_rss_mb": {"value": workload.peak_rss_mb(), "unit": "MB"},
    }


def _class_report(workload, phase):
    """The latencies by op class, and the metrics named after them."""
    classes = {}
    for cls in _all_classes(workload):
        entry = phase.median_ms([cls])
        if entry is None:
            continue
        for label, q in (("p90_ms", 0.90), ("p99_ms", 0.99)):
            tail = phase.percentile_ms([cls], q)
            if tail is not None:
                entry[label] = tail["value"]
        classes[cls] = entry
    named = {}
    for metric, pooled in workload.class_metrics.items():
        entry = phase.median_ms(pooled)
        if entry is not None:
            named[metric] = entry
    if workload.write_classes:
        tail = phase.percentile_ms(list(workload.write_classes), 0.90)
        if tail is not None:
            named["write_p90_ms"] = tail
    if workload.name == "cold_open" and "open" in classes:
        open_s = classes["open"]["value"] / 1e3
        named["open_s"] = {
            "value": open_s, "unit": "s", "n": classes["open"]["n"],
            "min": classes["open"]["min"] / 1e3,
            "max": classes["open"]["max"] / 1e3,
        }
        named["open_rows_per_s"] = {
            "value": workload.expected_rows / open_s, "unit": "1/s",
            "n": classes["open"]["n"],
        }
    rate = phase.ops_per_s()
    return {"classes": classes, "class_metrics": named, "ops_per_s": rate}


# -- the traced run -------------------------------------------------------------


def _traced_phases(workload, seconds):
    """An untraced reference phase, then the same stream with spans on.

    Returns the traced phase and what else the per-layer metrics need.
    """
    drivers = workload.drivers
    reference = harness.Phase(seconds * REFERENCE_SHARE)
    harness.run_phase(drivers, reference.seconds, reference)
    traced = harness.Phase(seconds * (1.0 - REFERENCE_SHARE))
    written_before = workload.user_bytes_written
    before = metric_tables.read_counters(workload.registries())
    tracer = workload.start_tracing()
    try:
        harness.run_phase(drivers, traced.seconds, traced, tracer)
    finally:
        summary = workload.stop_tracing()
    after = metric_tables.read_counters(workload.registries())
    delta = {name: after[name] - before[name] for name in after}
    facts = dict(workload.facts)
    facts.update(workload.layer_facts(delta))
    facts["user_bytes_written"] = workload.user_bytes_written - written_before
    facts["disk_bytes_per_user_byte"] = (
        workload.disk_bytes_at_start / workload.user_bytes_loaded()
    )
    facts["text_gated_ops"] = len(traced.pooled(workload.text_gated))
    busiest = max(_all_classes(workload), key=lambda c: len(traced.pooled([c])))
    with_spans = traced.median_ms([busiest])
    without = reference.median_ms([busiest])
    if with_spans and without:
        facts["trace_overhead_pct"] = (
            with_spans["value"] / without["value"] - 1.0
        ) * 100.0
    writes = sorted(
        reference.pooled(workload.write_classes)
        + traced.pooled(workload.write_classes)
    )
    if len(writes) >= 1000:  # ten samples beyond the 99th percentile
        facts["write_p99_ms"] = writes[int(len(writes) * 0.99) - 1] * 1e3
    opens = reference.pooled(["open"]) + traced.pooled(["open"])
    if opens:
        facts["open_max_s"] = max(opens)
    extra = {
        "facts": facts, "delta": delta, "trace_summary": summary,
        "overhead_class": busiest,
    }
    if workload.registries():  # the program runs in this process
        plans, facts["rows_visited_per_row"] = _explain(workload)
        extra.update(plans=plans, class_cache=_cache_probe(workload))
    return traced, extra


def _explain(workload):
    """One ``explain analyze`` per read class, along the path the workload
    reads by: the access path each class takes, and the mean over classes
    of rows visited per row returned, as the executor counts them."""
    session = workload.mdm.connect("explain")
    plans = {}
    ratios = []
    for cls, statement in workload.explain_statements().items():
        plan = session.run(
            lambda m, statement=statement: m.retrieve(
                "explain analyze " + statement),
            read_only=workload.read_only_path, timeout=30.0,
        )
        lines = [line.get("plan", "") for line in plan]
        plans[cls] = lines[0] if lines else ""
        counts = {
            key: int(text.split(":")[1]) for text in lines
            for key in ("rows", "rows visited") if text.startswith(key + ":")
        }
        if "rows visited" in counts:
            ratios.append(counts["rows visited"] / max(1, counts.get("rows", 0)))
    return plans, statistics.mean(ratios) if ratios else 0.0


def _cache_probe(workload, per_class=30, budget_s=0.3):
    """Statement- and plan-cache hit ratios by read class, from a short
    run of each class alone after the measured phases."""
    rng = random.Random(workload.seed + 7)
    out = {}
    for driver in workload.drivers:
        for cls in driver.counts:
            if cls in workload.write_classes:
                continue
            before = metric_tables.read_counters(workload.registries())
            deadline = time.perf_counter() + budget_s
            for _ in range(per_class):
                driver.make_op(cls, rng).call()
                if time.perf_counter() > deadline:
                    break
            after = metric_tables.read_counters(workload.registries())
            out[cls] = metric_tables.cache_hit_ratios(
                {k: after[k] - before[k] for k in after})
    return out


# -- printing -------------------------------------------------------------------


def print_result(result):
    name = result["workload"]
    print("== %s  seed %d  %s s  trace %d  (calib %.1f / %.1f ms)" % (
        name, result["seed"], result["seconds"], result["trace"],
        result["calib_ms"][0], result["calib_ms"][1],
    ))
    for metric, entry in result["metrics"].items():
        raw = ""
        if metric == "setup_s":
            raw = "  (unscaled %.4f)" % statistics.median(
                wall for wall, _ in result["setups_s"])
        print("%-34s %14.4f %s%s" % (
            metric, entry["value"], entry["unit"], raw))
    for metric, entry in result["class_metrics"].items():
        spread = ""
        if "min" in entry:
            spread = "  windows %.4f..%.4f" % (entry["min"], entry["max"])
        print("%-34s %14.4f %-5s n=%d%s" % (
            metric, entry["value"], entry["unit"], entry["n"], spread))
    for cls, entry in result["classes"].items():
        tails = "".join(
            "  %s %.3f" % (label[:3], entry[label])
            for label in ("p90_ms", "p99_ms") if label in entry
        )
        print("  class %-14s p50 %10.3f ms  (unscaled %.3f)  n=%d%s" % (
            cls, entry["value"], entry["raw"], entry["n"], tails))
    for cls, entry in result.get("class_cache", {}).items():
        print("  cache %-14s statement %.2f  plan %.2f  %s" % (
            cls, entry["stmt_cache_hit_ratio"], entry["plan_cache_hit_ratio"],
            result["plans"].get(cls, "")))
    if result["trace"]:
        summary = result["trace_summary"]
        print("  spans %d in %d requests; self times sum to %.1f%% of roots" % (
            summary["spans"], summary["requests"],
            100.0 * summary["self_sum_us"] / max(1.0, summary["root_us"])))
        for op, writes in sorted(
                summary.get("ordering_row_writes_by_op", {}).items()):
            print("  ordering rows written per %-16s %.3f" % (
                op, writes / summary["requests_by_op"][op]))
    print("  attempted %d  failed %d" % (result["attempted"], result["failed"]))
    for error in result["errors"]:
        print("  failed op: %s" % error)


def result_path(name, seed, trace):
    return os.path.join(OUT, "%s-seed%d-trace%d.json" % (name, seed, trace))


def _settle():
    """One processor, and a SIGTERM that still cleans up.

    The program's threads take turns at the interpreter lock anyway; spread
    over two processors, which thread wakes first when the lock is dropped
    depends on the host, and ``catalog_edit``'s writer then flips between
    6 ms and 21 ms a write for minutes at a time.  On one processor it does
    not.  Children (``cold_open``) inherit the setting.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


def run_one(args, sizes):
    _settle()
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), sizes,
        sabotage=args.sabotage,
    )
    print_result(result)
    with open(result_path(args.workload, args.seed, result["trace"]), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": result["metrics"],
    }))


# -- every workload ---------------------------------------------------------------


def run_all(args):
    """Each workload untraced (``--runs`` times), then traced, every run in
    a process of its own.  The result set maps ``NAME/traceT`` to its runs."""
    results = {}
    for name in (w["name"] for w in spec()["workloads"]):
        for trace in [0] * args.runs + [1]:
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ] + (["--quick"] if args.quick else [])
            done = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT)
            lines = done.stdout.decode("utf-8").splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0:
                raise SystemExit("%s (trace %d) exited with %d"
                                 % (name, trace, done.returncode))
            with open(result_path(name, args.seed, trace),
                      encoding="utf-8") as handle:
                results.setdefault("%s/trace%d" % (name, trace), []).append(
                    json.load(handle))
    out = args.out or os.path.join(OUT, "results-seed%d.json" % args.seed)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
    failed = sum(run["failed"] for runs in results.values() for run in runs)
    print("wrote %s; %d failed ops" % (os.path.relpath(out, ROOT), failed))
    return 1 if failed else 0


# -- two result sets of one commit -------------------------------------------------


def _medians(runs):
    """metric -> median over *runs* of its value, end-to-end and by class."""
    values = {}
    for run in runs:
        for metric, entry in dict(run["metrics"], **run["class_metrics"]).items():
            values.setdefault(metric, []).append(entry["value"])
    return {metric: statistics.median(v) for metric, v in values.items()}


def agree(path_a, path_b):
    """One row per (workload, metric), each the median over the set's runs;
    non-zero when a pair lies further apart than the metric's bound."""
    with open(path_a, encoding="utf-8") as handle:
        first = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        second = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    bounds.update(
        (name, row[2]) for name, row in metric_tables.CLASS_METRICS.items()
    )
    disagreements = 0
    print("%-22s %-20s %12s %12s %8s %6s" % (
        "workload", "metric", "A", "B", "apart", "bound"))
    for key in sorted(first):
        if not key.endswith("/trace0"):
            continue  # end-to-end numbers come from untraced runs only
        values_a = _medians(first[key])
        values_b = _medians(second.get(key, []))
        for metric in sorted(values_a):
            a, b = values_a[metric], values_b.get(metric)
            if b is None:
                apart, verdict = float("inf"), "MISSING"
            else:
                low, high = sorted((a, b))
                apart = (high - low) / low if low else float(high != low)
                verdict = "" if apart <= bounds[metric] else "DISAGREE"
            if verdict:
                disagreements += 1
            print("%-22s %-20s %12.4f %12s %7.1f%% %5.0f%% %s" % (
                key.split("/")[0], metric, a,
                "-" if b is None else "%.4f" % b,
                apart * 100.0, bounds[metric] * 100.0, verdict))
    print("%d disagreement%s" % (disagreements, "" if disagreements == 1 else "s"))
    return 1 if disagreements else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[
        w["name"] for w in spec()["workloads"]])
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced run")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes and %d s, for the smoke test"
                        % QUICK_SECONDS)
    parser.add_argument("--sabotage", action="store_true",
                        help="make the reference model wrong on purpose")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload under --all; "
                        "--agree compares their medians")
    parser.add_argument("--out", help="where --all writes its result set")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.agree:
        return agree(*args.agree)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else spec()["run_seconds"]
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload NAME, --all or --agree A B")
    run_one(args, QUICK if args.quick else FULL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
