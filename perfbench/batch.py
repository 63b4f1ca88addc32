"""The offline batch workload: ``EnforcementEngine`` over files written by
:mod:`inputs`.

The benchmark makes the inputs and writes a job file; the program runs in
fresh child processes (:mod:`engine_run`), so its set-up starts cold and its
peak memory is its own; the records those processes made are checked here,
after they have ended.

A round is two calls: one imputation call with every prompt of the
workload and one synthesis call, each of several times the batch size, so
the engine refills lanes as records finish and a slow record at the end of
a call weighs little.  Imputation and synthesis share every run in the same
ratio.  A request is one record: its latency is the wall time the program
reports for it (session open to outcome, inside its call), which the checks
bound by the call's latency as the benchmark timed it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import checker
import engine_run
import inputs as inputs_mod
from engine_run import Call

#: Cold set-ups per untraced run, the measured process included.
SETUPS = 5
PROGRAM_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class BatchSpec:
    """The shape of a batch workload's round and the packs it runs under."""

    batch_size: int
    prompts: int  # distinct imputation prompts: the records of one call
    synth_records: int  # records of one synthesis call
    impute_pack: str
    synth_pack: str


MINED = BatchSpec(
    batch_size=8,
    prompts=64,
    synth_records=64,
    impute_pack=inputs_mod.MINED_IMPUTATION,
    synth_pack=inputs_mod.MINED_SYNTHESIS,
)


def round_plan(spec: BatchSpec, data):
    """The calls of one round: (kind, prompts or record count)."""
    return [("impute", data.prompts[spec.impute_pack]),
            ("synth", spec.synth_records)]


def write_job(spec: BatchSpec, data, seed: int, seconds: float, trace: bool,
              work_dir: Path) -> dict:
    """The job file the program's process reads; returns the job."""
    config = data.config
    job = {
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "batch_size": spec.batch_size,
        "model": str(data.model_path),
        "packs": {"impute": str(data.pack_paths[spec.impute_pack]),
                  "synth": str(data.pack_paths[spec.synth_pack])},
        "telemetry": dict(vars(config)),
        "plan": round_plan(spec, data),
    }
    (work_dir / "job.json").write_text(json.dumps(job))
    return job


def run_program(work_dir: Path, tag: str, setup_only: bool = False) -> dict:
    """Run :mod:`engine_run` on the job in ``work_dir``; what it wrote."""
    out = work_dir / f"program-{tag}.json"
    command = [sys.executable, str(Path(engine_run.__file__)),
               str(work_dir / "job.json"), str(out)]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(command, cwd=work_dir, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True,
                          timeout=PROGRAM_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"program run {tag} exited with {done.returncode}:\n"
                           + done.stderr[-2000:])
    return json.loads(out.read_text())


def calls_of(entries: List[dict]) -> List[Call]:
    return [Call(**entry) for entry in entries]


def check_calls(spec: BatchSpec, data, calls: List[Call], tally: checker.Tally,
                tag: str) -> None:
    """Run the checker over every record of ``calls``."""
    schema = data.impute_schema()
    for call_index, call in enumerate(calls):
        pack_name = spec.impute_pack if call.kind == "impute" else spec.synth_pack
        pack = data.packs[pack_name]
        paper = data.paper if pack_name == inputs_mod.PAPER_PACK else None
        for i, record in enumerate(call.records):
            tally.attempted += 1
            op_id = (tag, call_index, i)
            if isinstance(record, str):
                tally.fail(op_id, f"raised {record}")
                continue
            prompt = call.prompts[i] if call.prompts is not None else None
            problems = checker.record_problems(
                record, schema, pack, prompt=prompt, paper=paper
            )
            if not 0.0 < call.record_s[i] <= call.latency_s:
                problems.append("record wall time outside its call")
            if problems:
                tally.fail(op_id, "; ".join(problems[:3]))


def sample_plan(job: dict):
    """The determinism sample: the first batch of each call of a round."""
    size = job["batch_size"]
    return [(kind, arg[:size] if kind == "impute" else size)
            for kind, arg in job["plan"]]


def serial_reference(job: dict) -> Dict[str, list]:
    """Record values of the sample, from the serial driver.

    A fresh enforcer's record ``i`` uses the same private stream as an
    engine's record ``i``, so these must equal the first records of the
    engine's first call of each kind.
    """
    impute, synth = engine_run.build(job, serial=True)
    calls = dict(sample_plan(job))
    return {
        "impute": [impute.impute_record(p).values for p in calls["impute"]],
        "synth": [synth.synthesize_record().values
                  for _ in range(calls["synth"])],
    }


def mask_off_reference(job: dict) -> Dict[str, list]:
    """Record values of the sample from an engine with the mask table off."""
    engines = engine_run.build(job, mask_table=False)
    return first_values(engine_run.run_round(engines, sample_plan(job)))


def first_values(calls: List[Call]) -> Dict[str, list]:
    """Record values of the first call of each kind."""
    first: Dict[str, list] = {}
    for call in calls:
        first.setdefault(call.kind, call.records)
    return first


def compare(tally: checker.Tally, tag: str, calls: List[Call], expected: Dict[str, list],
            what: str) -> None:
    """Fail every record of the first call of each kind that differs from
    ``expected``, which holds the first records of that call."""
    seen = set()
    for call_index, call in enumerate(calls):
        if call.kind in seen:
            continue
        seen.add(call.kind)
        got = call.records
        for i, want in enumerate(expected[call.kind]):
            if i >= len(got) or got[i] != want:
                tally.fail((tag, call_index, i), f"differs from {what}")
