"""Outside-in layer timing for the traced benchmark run.

Every layer is timed from the outside, around calls into its public
functions and seams; nothing in ``src/`` is edited:

* ``lm``: :class:`TimedLM`, a proxy over the ``LanguageModel`` protocol
  (``next_distribution`` / ``next_distributions``);
* ``core.feasible``: :class:`TimedOracle`, installed through
  ``JitEnforcer(oracle_wrapper=...)``.  Like ``repro.testing.FaultyOracle``
  it also wraps the nested ``interval`` and ``smt`` sub-oracles, which the
  session calls directly in the optimistic phase;
* ``core.session``: ``EnforcementSession.start`` / ``step`` (all sampling,
  transition masks and oracle calls of a record happen inside them; the LM
  is called by the driver between steps);
* ``smt``: the outermost ``Solver.check`` / ``minimize`` / ``maximize`` /
  ``feasible_interval`` calls;
* ``rules.compile``: ``compile_rules`` as the enforcer and the registry call
  it.

The class-level patches are installed by :meth:`Ledger.patched` and removed
on exit, so untraced work in the same process runs unpatched code.

The per-record split the traced run reports::

    record_ms = lm_ms + oracle_ms + session_self_ms + unattributed_ms

where ``oracle_ms`` is begin + feasible + confirm + other (fix, forced
models), ``session_self_ms`` is session time minus the oracle time inside
it, and ``unattributed_ms`` is what is left of the record's share of wall
time (driver loops, request handling, idle time while a server waits).
Solver time is part of oracle time and compile time is set-up time; both
are reported but not added again.  :func:`ledger_problems` checks that no
part exceeds what contains it, which is how overlapping or double-counted
timers would show.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, List, Tuple

from repro.core import enforcer as enforcer_module
from repro.core.feasible import FeasibilityOracle
from repro.core.session import EnforcementSession
from repro.rules import registry as registry_module
from repro.smt.solver import Solver

_clock = time.perf_counter

#: Slack for float rounding when one time is compared with another (ms).
EPSILON_MS = 1e-6

#: Counter names; each has a call count ``<name>.n`` and seconds ``<name>.s``.
SECTIONS = (
    "lm", "oracle.begin", "oracle.feasible", "oracle.confirm", "oracle.other",
    "session", "smt", "compile",
)


class Ledger:
    """Call counts and busy seconds per layer, plus LM rows and records."""

    def __init__(self):
        self.counts: Dict[str, float] = {}
        for name in SECTIONS:
            self.counts[name + ".n"] = 0
            self.counts[name + ".s"] = 0.0
        self.counts["lm.rows"] = 0
        self.counts["records"] = 0
        self._smt_depth = 0

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        counts = self.counts
        counts[name + ".n"] += calls
        counts[name + ".s"] += seconds

    def snapshot(self) -> Dict[str, float]:
        return dict(self.counts)

    # -- proxies installed per object ----------------------------------------

    def wrap_model(self, model) -> "TimedLM":
        return TimedLM(model, self)

    def wrap_oracle(self, oracle: FeasibilityOracle) -> "TimedOracle":
        return TimedOracle(oracle, self)

    # -- class-level patches -------------------------------------------------

    @contextlib.contextmanager
    def patched(self) -> Iterator["Ledger"]:
        """Time sessions, outermost solver calls and mask compiles."""
        originals: List[Tuple[object, str, object]] = []

        def patch(owner, name, wrapper):
            original = getattr(owner, name)
            originals.append((owner, name, original))
            setattr(owner, name, wrapper(original))

        def session_timer(original):
            def timed(session, *args, **kwargs):
                start = _clock()
                try:
                    return original(session, *args, **kwargs)
                finally:
                    self.add("session", _clock() - start)
            return timed

        def session_start(original):
            timed = session_timer(original)

            def start(session, *args, **kwargs):
                self.counts["records"] += 1
                return timed(session, *args, **kwargs)
            return start

        def solver_timer(original):
            def timed(solver, *args, **kwargs):
                if self._smt_depth:
                    return original(solver, *args, **kwargs)
                self._smt_depth += 1
                start = _clock()
                try:
                    return original(solver, *args, **kwargs)
                finally:
                    self._smt_depth -= 1
                    self.add("smt", _clock() - start)
            return timed

        def compile_timer(original):
            def timed(*args, **kwargs):
                start = _clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.add("compile", _clock() - start)
            return timed

        patch(EnforcementSession, "start", session_start)
        patch(EnforcementSession, "step", session_timer)
        for name in ("check", "minimize", "maximize", "feasible_interval"):
            patch(Solver, name, solver_timer)
        patch(enforcer_module, "compile_rules", compile_timer)
        patch(registry_module, "compile_rules", compile_timer)
        try:
            yield self
        finally:
            for owner, name, original in reversed(originals):
                setattr(owner, name, original)


class TimedLM:
    """A ``LanguageModel`` proxy that times every distribution call.

    Anything else (tokenizer, KV-cache factory, cache stats) is the wrapped
    model's own, so drivers see the same capabilities as without the proxy.
    """

    def __init__(self, model, ledger: Ledger):
        self._model = model
        self._ledger = ledger
        self.tokenizer = model.tokenizer

    def __getattr__(self, name: str):
        return getattr(self._model, name)

    def next_distribution(self, prefix_ids, **kwargs):
        start = _clock()
        try:
            return self._model.next_distribution(prefix_ids, **kwargs)
        finally:
            self._ledger.add("lm", _clock() - start)
            self._ledger.counts["lm.rows"] += 1

    def next_distributions(self, batch_of_prefix_ids, **kwargs):
        start = _clock()
        try:
            return self._model.next_distributions(batch_of_prefix_ids, **kwargs)
        finally:
            self._ledger.add("lm", _clock() - start)
            self._ledger.counts["lm.rows"] += len(batch_of_prefix_ids)


class TimedOracle(FeasibilityOracle):
    """Times the query methods of one oracle tier (see module docstring)."""

    def __init__(self, oracle: FeasibilityOracle, ledger: Ledger):
        # No super().__init__: state lives in the wrapped oracle and is
        # reached by delegation (the shape of FaultyOracle).
        self._oracle = oracle
        self._ledger = ledger
        for sub in ("interval", "smt"):
            inner = getattr(oracle, sub, None)
            if isinstance(inner, FeasibilityOracle):
                setattr(self, sub, TimedOracle(inner, ledger))

    def __getattr__(self, name: str):
        inner = getattr(self._oracle, name)
        if name != "any_model":
            return inner

        def timed_any_model():
            return self._timed("oracle.other", inner)
        return timed_any_model

    def _timed(self, section: str, call, *args):
        start = _clock()
        try:
            return call(*args)
        finally:
            self._ledger.add(section, _clock() - start)

    def begin_record(self, fixed=None):
        return self._timed("oracle.begin", self._oracle.begin_record, fixed)

    def feasible_set(self, variable):
        return self._timed("oracle.feasible", self._oracle.feasible_set, variable)

    def confirm_status(self, variable, value):
        return self._timed(
            "oracle.confirm", self._oracle.confirm_status, variable, value
        )

    def confirm(self, variable, value):
        return self._timed("oracle.confirm", self._oracle.confirm, variable, value)

    def fix(self, variable, value):
        return self._timed("oracle.other", self._oracle.fix, variable, value)

    def discard_record_state(self):
        # Defined on the base class, so __getattr__ would not delegate it.
        self._oracle.discard_record_state()


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def layer_metrics(counts: Dict[str, float], wall_s: float) -> Dict[str, float]:
    """Per-record layer figures from a counter delta over ``wall_s``.

    Raises ``ValueError`` when no record completed in the window.
    """
    records = counts["records"]
    if records <= 0:
        raise ValueError("no records in the traced window")

    def ms(name):
        return 1000.0 * counts[name + ".s"] / records

    oracle_ms = sum(ms(name) for name in (
        "oracle.begin", "oracle.feasible", "oracle.confirm", "oracle.other"
    ))
    session_self = ms("session") - oracle_ms
    record_ms = 1000.0 * wall_s / records
    lm_ms = ms("lm")
    unattributed = record_ms - lm_ms - oracle_ms - session_self
    return {
        "lm.calls_per_record": counts["lm.n"] / records,
        "lm.rows_per_call": counts["lm.rows"] / max(counts["lm.n"], 1),
        "lm.ms_per_record": lm_ms,
        "oracle.feasible_calls_per_record": counts["oracle.feasible.n"] / records,
        "oracle.feasible_ms_per_record": ms("oracle.feasible"),
        "oracle.confirm_calls_per_record": counts["oracle.confirm.n"] / records,
        "oracle.confirm_ms_per_record": ms("oracle.confirm"),
        "oracle.begin_ms_per_record": ms("oracle.begin"),
        "oracle.other_ms_per_record": ms("oracle.other"),
        "smt.solver_calls_per_record": counts["smt.n"] / records,
        "smt.solver_ms_per_record": ms("smt"),
        "session.self_ms_per_record": session_self,
        "ledger.record_ms": record_ms,
        "ledger.unattributed_ms_per_record": unattributed,
    }


def ledger_problems(metrics: Dict[str, float]) -> List[str]:
    """Ways the layer times contradict each other; empty when they agree.

    The remainder is record time minus the named layers, so the identity
    holds by construction.  What can go wrong is that timers overlap or
    count twice, and that shows as a part larger than what contains it:
    oracle time inside sessions above session time, named layers above
    wall time, or outermost solver time above the oracle time that makes
    those calls.
    """
    oracle_ms = sum(metrics[f"oracle.{part}_ms_per_record"]
                    for part in ("begin", "feasible", "confirm", "other"))
    problems = []
    if metrics["session.self_ms_per_record"] < -EPSILON_MS:
        problems.append("oracle time inside sessions exceeds session time")
    if metrics["ledger.unattributed_ms_per_record"] < -EPSILON_MS:
        problems.append("layer times exceed the record time")
    if metrics["smt.solver_ms_per_record"] > oracle_ms + EPSILON_MS:
        problems.append("solver time exceeds the oracle time that calls it")
    if metrics["lm.rows_per_call"] < 1.0 and metrics["lm.calls_per_record"] > 0:
        problems.append("an LM call served no row")
    return problems
