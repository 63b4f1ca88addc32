"""Seeded inputs of the benchmark workloads.

Everything a workload feeds the program is made here from ``--seed`` and
written to files under the run's work directory; the program only ever sees
those files and the prompts.  Making the inputs is not part of set-up time.

* The mined corpus (``batch-mined`` and both serving workloads): the
  synthetic fleet of ``build_dataset`` at its default size (16 train racks,
  4 test racks, 120 windows each, window 5) under the fixed
  :data:`CORPUS_SEED`; an order-6 n-gram LM fitted on the train split;
  NetNomos-style packs mined from it with slack 2 (418 imputation rules
  over the full record, 63 synthesis rules over the coarse counters).  The
  fleet is fixed so that every run enforces the same packs with the same
  model: packs mined from other fleets range from about 390 to 460 rules,
  and that alone moved throughput by more than the bounds allow.

``--seed`` chooses the prompts and, through the record seeds, every
record's random stream.  Prompts are test windows whose ground-truth record
satisfies the pack they are imputed under, evaluated by :mod:`checker` --
so every prompt is feasible by a witness computed apart from the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.data import COARSE_FIELDS, TelemetryConfig, build_dataset, fine_field
from repro.lm import NgramLM
from repro.lm.checkpoint import save_ngram
from repro.rules import MinerOptions, RuleSetRegistry, mine_rules, paper_rules
from repro.rules.io import rules_to_json, save_rules

import checker

CORPUS_SEED = 0

#: Registry names under which the serving workloads address the packs.
PAPER_PACK = "paper-R1-R3"
MINED_IMPUTATION = "mined-imputation"
MINED_SYNTHESIS = "mined-synthesis"


@dataclass
class Inputs:
    """Files and prompts of one workload, plus what the checker needs."""

    config: TelemetryConfig
    model_path: Path
    pack_paths: Dict[str, Path]  # pack name -> lejit-rules/1 file
    packs: Dict[str, dict]  # pack name -> the same file, parsed
    prompts: Dict[str, List[Dict[str, int]]]  # pack name -> feasible prompts
    registry_dir: Optional[Path] = None  # serving: the mined synthesis pack

    @property
    def paper(self) -> Dict[str, int]:
        return {"window": self.config.window,
                "bandwidth": self.config.bandwidth}

    def impute_schema(self) -> List[str]:
        return list(COARSE_FIELDS) + [
            fine_field(t) for t in range(self.config.window)
        ]


def _write_pack(rules, path: Path) -> dict:
    save_rules(rules, path)
    return json.loads(rules_to_json(rules))


def _feasible_prompts(windows, pack: dict, count: int, rng) -> List[Dict[str, int]]:
    """``count`` seed-chosen prompts whose true record satisfies ``pack``."""
    chosen = []
    for index in rng.permutation(len(windows)):
        window = windows[index]
        if not checker.pack_violations(pack, window.variables()):
            chosen.append(window.coarse())
            if len(chosen) == count:
                return chosen
    raise RuntimeError(f"only {len(chosen)} feasible prompts for {pack['name']}")


def mined_corpus(seed: int, work_dir: Path, prompts: int) -> Inputs:
    """N-gram LM + mined packs + paper pack over the default fleet."""
    dataset = build_dataset(seed=CORPUS_SEED)
    config = dataset.config
    train = [w.variables() for w in dataset.train_windows()]
    fine = [fine_field(t) for t in range(config.window)]
    options = MinerOptions(slack=2)
    imputation = mine_rules(
        train, list(dataset.variables), options, fine_variables=fine,
        name=MINED_IMPUTATION,
    )
    synthesis = mine_rules(
        [{name: row[name] for name in COARSE_FIELDS} for row in train],
        list(COARSE_FIELDS), options, name=MINED_SYNTHESIS,
    )
    model_path = work_dir / "ngram.json"
    save_ngram(NgramLM(order=6).fit(dataset.train_texts()), model_path)
    paths = {name: work_dir / f"{name}.json"
             for name in (PAPER_PACK, MINED_IMPUTATION, MINED_SYNTHESIS)}
    packs = {
        PAPER_PACK: _write_pack(paper_rules(config), paths[PAPER_PACK]),
        MINED_IMPUTATION: _write_pack(imputation, paths[MINED_IMPUTATION]),
        MINED_SYNTHESIS: _write_pack(synthesis, paths[MINED_SYNTHESIS]),
    }
    registry_dir = work_dir / "registry"
    RuleSetRegistry(root=registry_dir).register(synthesis, name=MINED_SYNTHESIS)
    rng = np.random.default_rng(seed)
    windows = dataset.test_windows()
    return Inputs(
        config=config,
        model_path=model_path,
        pack_paths=paths,
        packs=packs,
        prompts={
            name: _feasible_prompts(windows, packs[name], prompts, rng)
            for name in (PAPER_PACK, MINED_IMPUTATION)
        },
        registry_dir=registry_dir,
    )
