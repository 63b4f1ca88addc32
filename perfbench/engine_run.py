"""The program's part of a batch workload, in a process of its own.

    python3 perfbench/engine_run.py JOB.json OUT.json [--setup-only]

``JOB.json`` is written by the benchmark (:mod:`batch`): the model and pack
files, the enforcer seed, the batch size and the calls of one round.  This
process imports the program, loads the model and packs and builds the two
engines (the set-up), runs one warm-up round, reads its own peak resident
memory, and then runs whole rounds until the job's seconds of round time
have passed.  Everything it saw goes to ``OUT.json``; the benchmark checks
the records there, after this process has ended.

The process starts cold -- no memo of the program is warm -- so its set-up
time is the program's time from cold to ready, and its peak memory is the
program's own: inputs are made and outputs checked by the parent.  With
``--setup-only`` it stops after the set-up and reports only its time.

With ``"trace": true`` it builds a second, traced engine set with the same
seed and alternates untraced and traced rounds (see :mod:`ledger`).
"""

import time

_clock = time.perf_counter
_STARTED = _clock()  # set-up time counts from here: before the program loads

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Optional  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import EnforcementEngine, EnforcerConfig, JitEnforcer  # noqa: E402
from repro.data import TelemetryConfig  # noqa: E402
from repro.lm.checkpoint import load_ngram  # noqa: E402
from repro.rules import domain_bound_rules, zoom2net_manual_rules  # noqa: E402
from repro.rules.io import load_rules  # noqa: E402


@dataclass
class Engines:
    """The program, ready: one enforcer + engine per task."""

    impute: EnforcementEngine
    synth: EnforcementEngine


@dataclass
class Call:
    """One engine call, timed from the call to its return."""

    kind: str  # "impute" | "synth"
    latency_s: float
    engine_s: float  # EngineStats.elapsed gained during the call
    records: list  # per record: its values, or the error it raised (a str)
    record_s: List[float] = field(default_factory=list)  # per record wall_time
    prompts: Optional[list] = None

    def to_json(self) -> dict:
        return {"kind": self.kind, "latency_s": self.latency_s,
                "engine_s": self.engine_s, "records": self.records,
                "record_s": self.record_s, "prompts": self.prompts}


def build(job: dict, mask_table: bool = True, ledger=None, serial: bool = False):
    """Load the model and packs and build the engines (the set-up).

    With ``ledger`` the model is proxied and every oracle tier wrapped.
    With ``serial`` the two bare enforcers are returned instead (the
    determinism reference).
    """
    model = load_ngram(job["model"])
    if ledger is not None:
        model = ledger.wrap_model(model)
    telemetry = TelemetryConfig(**job["telemetry"])
    config = EnforcerConfig(seed=job["seed"], mask_table=mask_table)

    def enforcer(task):
        return JitEnforcer(
            model, load_rules(job["packs"][task]), telemetry, config,
            fallback_rules=[zoom2net_manual_rules(telemetry),
                            domain_bound_rules(telemetry)],
            oracle_wrapper=ledger.wrap_oracle if ledger is not None else None,
        )

    impute, synth = enforcer("impute"), enforcer("synth")
    if serial:
        return impute, synth
    return Engines(
        EnforcementEngine(impute, batch_size=job["batch_size"]),
        EnforcementEngine(synth, batch_size=job["batch_size"]),
    )


def run_call(engines: Engines, kind: str, arg) -> Call:
    engine = engines.impute if kind == "impute" else engines.synth
    before = engine.stats.elapsed
    start = _clock()
    if kind == "impute":
        outcomes = engine.impute_many(arg, return_exceptions=True)
    else:
        outcomes = engine.synthesize_many(arg, return_exceptions=True)
    latency = _clock() - start
    records, record_s = [], []
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            records.append(f"{type(outcome).__name__}: {outcome}")
            record_s.append(0.0)
        else:
            records.append(outcome.values)
            record_s.append(outcome.wall_time)
    return Call(kind, latency, engine.stats.elapsed - before, records, record_s,
                prompts=arg if kind == "impute" else None)


def run_round(engines: Engines, plan) -> List[Call]:
    return [run_call(engines, kind, arg) for kind, arg in plan]


def engine_counters(engines: Engines) -> dict:
    """The program's own counters over both engines."""
    out = {"lm_calls": 0, "lm_rows": 0, "hits": 0, "misses": 0,
           "mask_hits": 0, "mask_fallbacks": 0, "live": 0}
    for engine in (engines.impute, engines.synth):
        out["lm_calls"] += engine.stats.lm_calls
        out["lm_rows"] += engine.stats.lm_rows
        cache = engine.pool.cache_stats()
        out["hits"] += cache["hits"]
        out["misses"] += cache["misses"]
        mask = engine.enforcer.mask_stats
        out["mask_hits"] += mask.hits
        out["mask_fallbacks"] += mask.fallbacks
        out["live"] += mask.live_queries
    lm_stats = engines.impute.enforcer.model.lm_cache_stats()
    out["lm_hits"] = lm_stats["hits"]
    out["lm_misses"] = lm_stats["misses"]
    return out


def _rounds_json(rounds) -> list:
    return [[call.to_json() for call in calls] for calls in rounds]


def measure(job: dict, engines: Engines) -> dict:
    """Warm-up round, peak memory, then whole timed rounds."""
    plan = job["plan"]
    warm = run_round(engines, plan)
    out = {
        "warm": [call.to_json() for call in warm],
        # Read after a fixed amount of work, so that a faster run (more
        # rounds, more cache entries) does not read as more memory.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not job["trace"]:
        rounds, measured = [], 0.0
        while measured < job["seconds"]:
            start = _clock()
            rounds.append(run_round(engines, plan))
            measured += _clock() - start
        out["rounds"] = _rounds_json(rounds)
        out["measured_s"] = measured
        return out

    # Untraced and traced engines (same seed, so the same records) take
    # turns round by round, each going first every other round: the one
    # going second finds the process-wide memos warm.  The ledger is
    # patched in for traced rounds only.
    from ledger import Ledger, delta

    ledger = Ledger()
    with ledger.patched():
        traced = build(job, ledger=ledger)
        out["compile_s"] = ledger.counts["compile.s"]
        out["traced_warm"] = [c.to_json() for c in run_round(traced, plan)]
    plain_before, traced_before = engine_counters(engines), engine_counters(traced)
    ledger_before = ledger.snapshot()
    plain_rounds, traced_rounds = [], []
    plain_s = traced_s = 0.0
    index = 0
    while plain_s + traced_s < job["seconds"]:
        for traced_turn in ((False, True) if index % 2 == 0 else (True, False)):
            start = _clock()
            if traced_turn:
                with ledger.patched():
                    traced_rounds.append(run_round(traced, plan))
                traced_s += _clock() - start
            else:
                plain_rounds.append(run_round(engines, plan))
                plain_s += _clock() - start
        index += 1
    out.update({
        "rounds": _rounds_json(plain_rounds),
        "traced_rounds": _rounds_json(traced_rounds),
        "plain_s": plain_s,
        "traced_s": traced_s,
        "counts": delta(ledger.snapshot(), ledger_before),
        "plain_counters": delta(engine_counters(engines), plain_before),
        "traced_counters": delta(engine_counters(traced), traced_before),
    })
    return out


def main(argv) -> int:
    job = json.loads(Path(argv[0]).read_text())
    engines = build(job)
    out = {"setup_s": _clock() - _STARTED}
    if "--setup-only" not in argv[2:]:
        out.update(measure(job, engines))
    Path(argv[1]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
