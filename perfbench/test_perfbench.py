"""Tests of the benchmark's own checks: ``python3 -m pytest perfbench -q``.

They show that the checks count what they should as failed operations --
a tampered record, a dropped or refused reply -- and that overlapping layer
timers make a traced run incorrect.
"""

import http.server
import json
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from repro.data import TelemetryConfig, build_dataset  # noqa: E402
from repro.rules import paper_rules  # noqa: E402
from repro.rules.io import rules_to_json  # noqa: E402

import batch  # noqa: E402
import checker  # noqa: E402
import inputs  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402

CONFIG = TelemetryConfig()
PAPER = json.loads(rules_to_json(paper_rules(CONFIG)))


@pytest.fixture(scope="module")
def window():
    """A ground-truth record that satisfies the paper pack."""
    for candidate in build_dataset(num_train_racks=1, num_test_racks=1,
                                   windows_per_rack=30, seed=3).test_windows():
        if candidate.cong >= 1 and not checker.pack_violations(
            PAPER, candidate.variables()
        ):
            return candidate
    raise AssertionError("no congested feasible window")


def _data():
    return SimpleNamespace(
        config=CONFIG,
        packs={inputs.PAPER_PACK: PAPER},
        paper={"window": CONFIG.window, "bandwidth": CONFIG.bandwidth},
        impute_schema=lambda: ["total", "cong", "retx", "egr"]
        + [f"I{t}" for t in range(CONFIG.window)],
    )


def _paper_spec():
    return batch.BatchSpec(
        batch_size=2, prompts=4, synth_records=4,
        impute_pack=inputs.PAPER_PACK,
        synth_pack=inputs.PAPER_PACK,
    )


# -- the record checker ----------------------------------------------------------


def test_true_record_passes(window):
    values = window.variables()
    assert checker.record_problems(
        values, list(values), PAPER, prompt=window.coarse(),
        paper={"window": CONFIG.window, "bandwidth": CONFIG.bandwidth},
    ) == []


@pytest.mark.parametrize("tamper, expect", [
    (lambda v: v.update(I0=v["I0"] + 1), "R2"),
    (lambda v: v.update(I1=-1, I0=v["I0"] + v["I1"] + 1), "R1[1]"),
    (lambda v: v.update(total=v["total"] + 1), "prompt value total changed"),
])
def test_tampered_record_is_reported(window, tamper, expect):
    values = window.variables()
    tamper(values)
    problems = checker.record_problems(
        values, list(values), PAPER, prompt=window.coarse(),
        paper={"window": CONFIG.window, "bandwidth": CONFIG.bandwidth},
    )
    assert any(expect in p for p in problems), problems


def test_r3_restated_in_plain_arithmetic(window):
    # A congested record with no burst: every fine value below BW/2.
    values = dict(window.variables(), cong=1)
    share = values["total"] // CONFIG.window
    for t in range(CONFIG.window):
        values[f"I{t}"] = min(share, CONFIG.bandwidth // 2 - 1)
    values["total"] = sum(values[f"I{t}"] for t in range(CONFIG.window))
    assert "R3" in checker.paper_violations(values, CONFIG.window, CONFIG.bandwidth)
    assert "R3" in checker.pack_violations(PAPER, values)


def test_tampered_record_counts_as_failed_operation(window):
    good = window.variables()
    bad = window.variables()
    bad["I0"] += 1
    call = batch.Call("impute", 0.1, 0.1, [good, bad, "RuntimeError: boom", good],
                      record_s=[0.05, 0.05, 0.0, 0.2],
                      prompts=[window.coarse()] * 4)
    tally = checker.Tally()
    batch.check_calls(_paper_spec(), _data(), [call], tally, "t")
    assert tally.attempted == 4
    # The last record is right but reports more time than its whole call.
    assert tally.failed_ids == {("t", 0, 1), ("t", 0, 2), ("t", 0, 3)}


def test_determinism_mismatch_counts_as_failed(window):
    values = window.variables()
    call = batch.Call("impute", 0.1, 0.1, [values], record_s=[0.1])
    tally = checker.Tally()
    batch.compare(tally, "t", [call], {"impute": [dict(values, I0=0)]}, "x")
    assert tally.failed_ids == {("t", 0, 0)}


# -- replies ---------------------------------------------------------------------


class _Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    mode = "drop"
    record = None

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers["Content-Length"]))
        if self.mode == "drop":
            self.close_connection = True
            self.connection.shutdown(2)
            return
        status = 503 if self.mode == "refuse" else 200
        body = json.dumps({"status": "done", "records": [self.record],
                           "latency_ms": 1.0}).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("mode, failed", [("drop", 1), ("refuse", 1), ("ok", 0)])
def test_reply_without_one_200_counts_as_failed(window, mode, failed):
    handler = type("Handler", (_Handler,), {"mode": mode,
                                            "record": window.variables()})
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        data = _data()
        data.prompts = {inputs.PAPER_PACK: [window.coarse()] * 10}
        client = serving.Client(0, server.server_address[1], data, seed=1,
                                first_round=0, rounds=1, deadline=None)
        reply = client.send(0, 0)  # ROUND[0] is a paper-pack imputation
        if client.conn is not None:
            client.conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    tally = checker.Tally()
    serving.check_replies([reply], data, tally)
    assert tally.attempted == 1
    assert len(tally.failed_ids) == failed, tally.problems


# -- the ledger ------------------------------------------------------------------


def test_layer_times_and_remainder_add_up_to_record_time():
    counts = ledger.Ledger().snapshot()
    counts.update({"records": 4, "lm.n": 8, "lm.rows": 32, "lm.s": 0.02,
                   "oracle.begin.s": 0.004, "oracle.feasible.n": 12,
                   "oracle.feasible.s": 0.01, "oracle.confirm.s": 0.006,
                   "oracle.other.s": 0.002, "session.s": 0.03})
    layers = ledger.layer_metrics(counts, wall_s=0.1)
    assert layers["ledger.record_ms"] == pytest.approx(25.0)
    assert layers["session.self_ms_per_record"] == pytest.approx(2.0)
    assert layers["ledger.unattributed_ms_per_record"] == pytest.approx(12.5)
    assert layers["lm.rows_per_call"] == pytest.approx(4.0)
    assert ledger.ledger_problems(layers) == []


@pytest.mark.parametrize("overlap, expect", [
    ({"oracle.begin.s": 0.03}, "oracle time inside sessions"),
    ({"lm.s": 0.09}, "layer times exceed the record time"),
    ({"smt.s": 0.05}, "solver time exceeds the oracle time"),
    ({"lm.rows": 4}, "an LM call served no row"),
])
def test_overlapping_timers_make_the_run_incorrect(overlap, expect):
    counts = ledger.Ledger().snapshot()
    counts.update({"records": 4, "lm.n": 8, "lm.rows": 32, "lm.s": 0.02,
                   "oracle.begin.s": 0.004, "oracle.feasible.s": 0.01,
                   "oracle.confirm.s": 0.006, "oracle.other.s": 0.002,
                   "session.s": 0.03, "smt.s": 0.001})
    counts.update(overlap)
    problems = ledger.ledger_problems(ledger.layer_metrics(counts, wall_s=0.1))
    assert len(problems) == 1 and expect in problems[0], problems
    result = run.Result()
    result.fault(problems)
    assert result.correct is False


def test_timed_lm_is_transparent():
    class Model:
        tokenizer = object()
        supports_kv_cache = True

        def next_distributions(self, batch_ids, cache=None, rows=None):
            return [len(ids) for ids in batch_ids]

    book = ledger.Ledger()
    proxy = book.wrap_model(Model())
    assert proxy.supports_kv_cache
    assert proxy.next_distributions([[1], [1, 2]], cache="c", rows=[0, 1]) == [1, 2]
    assert book.counts["lm.n"] == 1 and book.counts["lm.rows"] == 2


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90
    assert run.percentile([7.0], 0.9) == 7.0
