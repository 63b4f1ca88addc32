"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of :data:`WORKLOADS`, or ``all`` to run the three in turn
from this one process.  With ``--trace 0`` the run reports the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` the per-layer ledger.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import checker

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("batch-mined", "serve-inproc", "serve-pool")
#: Cold server starts per untraced serving run; the median is reported and
#: the last server is measured.
SERVE_SETUPS = 3
DUMP_TIMEOUT_S = 20.0

_clock = time.perf_counter


def percentile(values, q):
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


class Result:
    """What one workload run reports."""

    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.correct = True

    def put(self, name, value, unit):
        self.metrics[name] = {"value": float(value), "unit": unit}

    def fault(self, problems):
        """Findings that make the whole run incorrect (not one operation)."""
        if problems:
            self.correct = False
            self.problems.extend(problems)

    def absorb(self, tally):
        self.attempted += tally.attempted
        self.failed += len(tally.failed_ids)
        self.problems.extend(tally.problems)

    def line(self):
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}


# -- batch workloads -----------------------------------------------------------


def run_batch(spec, seed, seconds, trace, work_dir):
    import batch
    import inputs
    from ledger import layer_metrics, ledger_problems

    data = inputs.mined_corpus(seed, work_dir, spec.prompts)
    job = batch.write_job(spec, data, seed, seconds, trace, work_dir)
    # Each set-up runs in a fresh process, so every one starts cold.
    setups = [] if trace else [
        batch.run_program(work_dir, f"setup{i}", setup_only=True)["setup_s"]
        for i in range(batch.SETUPS - 1)
    ]
    out = batch.run_program(work_dir, "run")
    setups.append(out["setup_s"])

    result, tally = Result(), checker.Tally()
    warm = batch.calls_of(out["warm"])
    rounds = [batch.calls_of(calls) for calls in out["rounds"]]
    batch.check_calls(spec, data, warm, tally, "warm")
    for index, calls in enumerate(rounds):
        batch.check_calls(spec, data, calls, tally, f"round{index}")
    timed = [call for calls in rounds for call in calls]

    if not trace:
        for kind, metric in (("impute", "impute_records_per_s"),
                             ("synth", "synth_records_per_s")):
            calls = [c for c in timed if c.kind == kind]
            result.put(metric, sum(len(c.records) for c in calls)
                       / sum(c.latency_s for c in calls), "records/s")
        latencies = [1000.0 * s for c in timed for s in c.record_s]
        result.put("req_p50_ms", percentile(latencies, 0.50), "ms")
        result.put("req_p90_ms", percentile(latencies, 0.90), "ms")
        result.put("served_rps", len(latencies) / out["measured_s"], "1/s")
        result.put("setup_s", statistics.median(setups), "s")
        result.put("peak_rss_mb", out["peak_rss_mb"], "MB")
    else:
        traced_warm = batch.calls_of(out["traced_warm"])
        batch.check_calls(spec, data, traced_warm, tally, "traced-warm")
        batch.compare(tally, "traced-warm", traced_warm,
                      batch.first_values(warm), "the untraced run")
        for index, calls in enumerate(out["traced_rounds"]):
            traced_calls = batch.calls_of(calls)
            batch.check_calls(spec, data, traced_calls, tally, f"traced{index}")
            for plain, traced_call in zip(rounds[index], traced_calls):
                if plain.records != traced_call.records:
                    tally.fail(("traced", index), "traced records differ")
        counts = out["counts"]
        plain_d, traced_d = out["plain_counters"], out["traced_counters"]
        layers = layer_metrics(counts, out["traced_s"])
        put_layers(result, layers)
        result.put("lm.kv_hit_rate", ratio(
            traced_d["lm_hits"], traced_d["lm_hits"] + traced_d["lm_misses"]),
            "ratio")
        result.put("oracle_cache.hit_rate", ratio(
            traced_d["hits"], traced_d["hits"] + traced_d["misses"]), "ratio")
        result.put("mask.hit_rate", ratio(
            traced_d["mask_hits"],
            traced_d["mask_hits"] + traced_d["mask_fallbacks"]), "ratio")
        result.put("mask.live_queries_per_record",
                   traced_d["live"] / counts["records"], "count")
        result.put("mask.compile_ms", 1000.0 * out["compile_s"], "ms")
        servers = [1000.0 * c.engine_s for c in timed]
        fronts = [1000.0 * (c.latency_s - c.engine_s) for c in timed]
        result.put("serve.server_ms_p50", percentile(servers, 0.50), "ms")
        result.put("serve.frontend_ms_p50", percentile(fronts, 0.50), "ms")
        result.put("serve.frontend_ms_p90", percentile(fronts, 0.90), "ms")
        result.put("serve.lane_occupancy", ratio(
            plain_d["lm_rows"], plain_d["lm_calls"] * spec.batch_size), "ratio")
        result.put("serve.oracle_cache_hit_rate", ratio(
            plain_d["hits"], plain_d["hits"] + plain_d["misses"]), "ratio")
        result.put("trace.overhead_pct",
                   100.0 * (out["traced_s"] / out["plain_s"] - 1.0), "%")
        result.fault(ledger_problems(layers))

    # Determinism, outside the timed region: the engine's first call of each
    # kind against the serial enforcer, and mask on vs off.
    batch.compare(tally, "warm", warm, batch.serial_reference(job),
                  "the serial enforcer")
    batch.compare(tally, "warm", warm, batch.mask_off_reference(job),
                  "the mask-off engine")
    result.absorb(tally)
    return result


def put_layers(result, layers):
    for name, value in layers.items():
        unit = "count" if ("calls" in name or "rows" in name) else "ms"
        result.put(name, value, unit)


# -- serving workloads ---------------------------------------------------------


def run_serve(workers, seed, seconds, trace, work_dir):
    import inputs
    import serving
    from ledger import layer_metrics, ledger_problems
    from repro.lm.checkpoint import load_ngram

    data = inputs.mined_corpus(
        seed, work_dir, serving.PROMPTS_PER_PACK * serving.CLIENTS
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result, tally = Result(), checker.Tally()
    replies_all = []

    def start_server(traced, tag, dump_dir=None):
        server = serving.Server(serving.launcher(traced, dump_dir), data,
                                workers, work_dir, env, tag)
        try:
            elapsed = server.start()
        except BaseException:
            server.stop()
            raise
        return server, elapsed

    def measure(server, window_s):
        """Warm-up round, then the timed window with scrapes around it."""
        warm, _ = serving.drive(server.port, data, seed, first_round=0, rounds=1)
        rss_mb = server.peak_rss_mb()  # after fixed work, as for batch runs
        before = server.prometheus()
        replies, wall = serving.drive(server.port, data, seed, first_round=1,
                                      seconds=window_s)
        after = server.prometheus()
        replies_all.extend(warm)
        replies_all.extend(replies)
        return warm, replies, wall, before, after, rss_mb

    if not trace:
        setups = []
        for index in range(SERVE_SETUPS):
            server, elapsed = start_server(False, f"setup{index}")
            setups.append(elapsed)
            if index < SERVE_SETUPS - 1:
                server.stop()
        try:
            warm, replies, wall, _, _, rss = measure(server, seconds)
        finally:
            server.stop()
        served = [r for r in replies if not serving.reply_problems(r, data)]
        for kind, metric in (("impute", "impute_records_per_s"),
                             ("synth", "synth_records_per_s")):
            records = sum(1 for r in served if r.kind == kind)
            result.put(metric, records / wall, "records/s")
        latencies = [1000.0 * r.latency_s for r in replies]
        result.put("req_p50_ms", percentile(latencies, 0.50), "ms")
        result.put("req_p90_ms", percentile(latencies, 0.90), "ms")
        result.put("served_rps", len(replies) / wall, "1/s")
        result.put("setup_s", statistics.median(setups), "s")
        result.put("peak_rss_mb", rss, "MB")
    else:
        # Phase A: the untraced server, for the serve.* figures and the
        # program's own counters; phase B: the traced server, for the ledger.
        server, _ = start_server(False, "plain")
        try:
            warm, replies, wall_a, before, after, _ = measure(server, seconds / 2)
        finally:
            server.stop()
        put_serve_layers(result, [r for r in replies
                                  if not serving.reply_problems(r, data)],
                         before, after, serving.LANES)
        dump_dir = work_dir / "ledger"
        dump_dir.mkdir()
        server, _ = start_server(True, "traced", dump_dir)
        try:
            traced_warm, _ = serving.drive(server.port, data, seed,
                                           first_round=0, rounds=1)
            pids = server.pids()
            start_counts = dump_ledgers(pids, dump_dir, 0)
            traced_replies, wall_b = serving.drive(
                server.port, data, seed, first_round=1, seconds=seconds / 2)
            end_counts = dump_ledgers(pids, dump_dir, 1)
        finally:
            server.stop()
        replies_all.extend(traced_warm + traced_replies)
        counts = {key: sum(end_counts[p][key] - start_counts[p][key] for p in pids)
                  for key in end_counts[pids[0]]}
        layers = layer_metrics(counts, wall_b)
        put_layers(result, layers)
        result.fault(ledger_problems(layers))
        result.put("mask.compile_ms", 1000.0 * sum(
            end_counts[p]["compile.s"] for p in pids), "ms")
        rate_a = len(replies) / wall_a
        rate_b = len(traced_replies) / wall_b
        result.put("trace.overhead_pct", 100.0 * (rate_a / rate_b - 1.0), "%")

    serving.check_replies(replies_all, data, tally)
    # Determinism: the warm-up round of the first server against the serial
    # enforcer on (seed, index 0, pack).
    model = load_ngram(data.model_path)
    for index, reply in enumerate(replies_all[:len(warm)]):
        if reply.status == 200 and reply.body.get("records"):
            if reply.body["records"][0] != serving.serial_reference(data, model, reply):
                tally.fail(("reply", index), "differs from the serial enforcer")
    result.absorb(tally)
    return result


def put_serve_layers(result, served, before, after, lanes):
    """serve.* plus the program-counted cache figures, from phase A.

    ``served`` are the replies that passed every check; ``before`` and
    ``after`` are Prometheus scrapes around the window.
    """
    servers = [r.body["latency_ms"] for r in served]
    fronts = [1000.0 * r.latency_s - r.body["latency_ms"] for r in served]
    result.put("serve.server_ms_p50", percentile(servers, 0.50), "ms")
    result.put("serve.frontend_ms_p50", percentile(fronts, 0.50), "ms")
    result.put("serve.frontend_ms_p90", percentile(fronts, 0.90), "ms")
    def grown(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    result.put("serve.lane_occupancy", ratio(
        grown("repro_serve_lm_rows_total"),
        grown("repro_serve_lm_calls_total") * lanes), "ratio")
    cache_hits = grown("repro_serve_oracle_cache_hits_total")
    cache_rate = ratio(cache_hits,
                       cache_hits + grown("repro_serve_oracle_cache_misses_total"))
    result.put("serve.oracle_cache_hit_rate", cache_rate, "ratio")
    result.put("oracle_cache.hit_rate", cache_rate, "ratio")
    mask_hits = grown("repro_mask_lookup_hits_total")
    result.put("mask.hit_rate", ratio(
        mask_hits, mask_hits + grown("repro_mask_lookup_fallbacks_total")), "ratio")
    result.put("mask.live_queries_per_record", ratio(
        grown("repro_mask_lookup_live_queries_total"),
        grown("repro_enforcer_records_total")), "count")
    lm_hits = grown("repro_lm_cache_hits_total")
    result.put("lm.kv_hit_rate", ratio(
        lm_hits, lm_hits + grown("repro_lm_cache_misses_total")), "ratio")


def dump_ledgers(pids, dump_dir, n):
    """Ask each traced process for its counters; wait for every file."""
    for pid in pids:
        os.kill(pid, signal.SIGUSR1)
    deadline = _clock() + DUMP_TIMEOUT_S
    counts = {}
    for pid in pids:
        path = dump_dir / f"ledger.{pid}.{n}.json"
        while not path.exists():
            if _clock() > deadline:
                raise RuntimeError(f"process {pid} wrote no ledger")
            time.sleep(0.005)
        counts[pid] = json.loads(path.read_text())
    return counts


# -- entry point ---------------------------------------------------------------


def run_workload(name, seed, seconds, trace):
    import batch

    work_dir = WORK_ROOT / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        if name == "batch-mined":
            return run_batch(batch.MINED, seed, seconds, trace, work_dir)
        workers = 0 if name == "serve-inproc" else 1
        return run_serve(workers, seed, seconds, trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def print_result(name, result):
    print(f"workload {name}: attempted {result.attempted} failed "
          f"{result.failed} correct {str(result.correct).lower()}")
    for metric, entry in result.metrics.items():
        print(f"  {metric:36s} {entry['value']:14.4f} {entry['unit']}")
    for problem in result.problems[:10]:
        print(f"  failed: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops its servers and removes its work files.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_result(name, results[name])
    if len(names) == 1:
        line = results[names[0]].line()
    else:
        line = {
            "correct": all(r.correct for r in results.values()),
            "attempted": sum(r.attempted for r in results.values()),
            "failed": sum(r.failed for r in results.values()),
            "metrics": {f"{name}/{metric}": entry
                        for name, r in results.items()
                        for metric, entry in r.metrics.items()},
        }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
