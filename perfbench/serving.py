"""Serving workloads: the HTTP server as its own process, driven by
closed-loop clients from this process.

Each client owns one kept-alive HTTP/1.1 connection and sends its next
request only after the previous reply has been read in full.  A client's
round is :data:`ROUND` -- mostly paper-pack imputation, some mined-pack
imputation named as a second tenant, one single-record synthesis -- and a
run is whole rounds per client.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.core import EnforcerConfig, JitEnforcer
from repro.rules import domain_bound_rules, zoom2net_manual_rules
from repro.rules.io import load_rules
from repro.stream import stream_bounds

import checker
import inputs as inputs_mod

_clock = time.perf_counter

LANES = 4
CLIENTS = 2

#: One client round: (endpoint kind, rule pack, index into that pack's prompts).
ROUND = (
    ("impute", inputs_mod.PAPER_PACK, 0),
    ("impute", inputs_mod.MINED_IMPUTATION, 0),
    ("impute", inputs_mod.PAPER_PACK, 1),
    ("synth", inputs_mod.MINED_SYNTHESIS, None),
    ("impute", inputs_mod.PAPER_PACK, 2),
    ("impute", inputs_mod.MINED_IMPUTATION, 1),
    ("impute", inputs_mod.PAPER_PACK, 3),
    ("impute", inputs_mod.PAPER_PACK, 4),
)
PROMPTS_PER_PACK = 5
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class ServerError(RuntimeError):
    """The server did not start, or did not stop."""


class Server:
    """One ``repro.cli serve`` process and the processes it forks.

    ``launcher`` is the command prefix that runs the CLI: plain
    ``python -m repro.cli`` for untraced runs, or the traced launcher.
    """

    def __init__(self, launcher: List[str], data, workers: int, work_dir: Path,
                 env: Dict[str, str], tag: str):
        self.command = launcher + [
            "serve",
            "--model", str(data.model_path),
            "--rules", str(data.pack_paths[inputs_mod.MINED_IMPUTATION]),
            "--registry-dir", str(data.registry_dir),
            "--mask-table",
            "--lanes", str(LANES),
            "--workers", str(workers),
            "--port", "0",
        ]
        self.workers = workers
        self.env = env
        self.log_path = work_dir / f"serve-{tag}.log"
        self.cwd = work_dir
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> float:
        """Spawn the server and wait until it reports healthy; seconds taken."""
        started = _clock()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                self.command, cwd=self.cwd, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log, start_new_session=True,
            )
        deadline = started + START_TIMEOUT_S
        while self.port is None:
            self._check_alive()
            match = re.search(r"serving host=\S+ port=(\d+)",
                              self.log_path.read_text())
            if match:
                self.port = int(match.group(1))
                break
            if _clock() > deadline:
                raise ServerError("server printed no port")
            time.sleep(0.002)
        while not self._healthy():
            self._check_alive()
            if _clock() > deadline:
                raise ServerError("server never became healthy")
            time.sleep(0.002)
        return _clock() - started

    def _check_alive(self) -> None:
        if self.process.poll() is not None:
            raise ServerError(
                f"server exited with {self.process.returncode}: "
                + self.log_path.read_text()[-2000:]
            )

    def _healthy(self) -> bool:
        try:
            status, body = self.get("/healthz")
        except OSError:
            return False
        if status != 200:
            return False
        health = json.loads(body)
        if health.get("status") != "ok":
            return False
        return self.workers == 0 or health.get("workers_healthy") == self.workers

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the whole group is gone."""
        process = self.process
        if process is None:
            return
        group = process.pid
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait(timeout=STOP_TIMEOUT_S)
        self.process = None
        # Workers are the server's children, reaped by whoever inherits
        # them; wait (bounded) until none of the group is left.
        deadline = _clock() + STOP_TIMEOUT_S
        while _clock() < deadline:
            try:
                os.killpg(group, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)

    # -- observation -----------------------------------------------------------

    def get(self, path: str, accept: str = "application/json"):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path, headers={"Accept": accept})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def prometheus(self) -> Dict[str, float]:
        """Every sample summed over its labels, by metric name."""
        text = self.get("/metrics", accept="text/plain")[1].decode()
        totals: Dict[str, float] = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, _, value = line.rpartition(" ")
            name = name_part.split("{", 1)[0]
            totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    def pids(self) -> List[int]:
        """The server and the workers its ``/healthz`` names."""
        health = json.loads(self.get("/healthz")[1])
        return [self.process.pid] + [
            row["pid"] for row in health.get("worker_states", [])
        ]

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident sets (VmHWM) of the server's processes."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except FileNotFoundError:
                continue
        return total_kb / 1024.0


@dataclass
class Reply:
    """One request as sent, and what came back."""

    kind: str
    pack: str
    prompt: Optional[Dict[str, int]]
    seed: int
    status: int = 0  # 0: no reply
    body: Optional[dict] = None
    latency_s: float = 0.0
    error: Optional[str] = None


def request_seed(seed: int, client: int, round_index: int, position: int) -> int:
    return ((seed * 16 + client) * 100_000 + round_index) * len(ROUND) + position


class Client(threading.Thread):
    """One closed-loop caller on one kept-alive connection."""

    def __init__(self, index: int, port: int, data, seed: int,
                 first_round: int, rounds: Optional[int], deadline: Optional[float]):
        super().__init__(name=f"client-{index}", daemon=True)
        self.index = index
        self.port = port
        self.data = data
        self.seed = seed
        self.first_round = first_round
        self.rounds = rounds
        self.deadline = deadline
        self.replies: List[Reply] = []
        self.conn: Optional[http.client.HTTPConnection] = None

    def run(self) -> None:
        round_index = self.first_round
        try:
            while True:
                for position in range(len(ROUND)):
                    self.replies.append(self.send(round_index, position))
                round_index += 1
                if self.rounds is not None:
                    if round_index - self.first_round >= self.rounds:
                        break
                elif _clock() >= self.deadline:
                    break
        finally:
            if self.conn is not None:
                self.conn.close()

    def send(self, round_index: int, position: int) -> Reply:
        kind, pack, prompt_index = ROUND[position]
        seed = request_seed(self.seed, self.index, round_index, position)
        payload = {"seed": seed, "rule_set": pack}
        prompt = None
        if kind == "impute":
            prompts = self.data.prompts[pack]
            prompt = prompts[(self.index * PROMPTS_PER_PACK + prompt_index)
                             % len(prompts)]
            payload["coarse"] = prompt
            path = "/v1/impute"
        else:
            payload["count"] = 1
            path = "/v1/synthesize"
        reply = Reply(kind, pack, prompt, seed)
        body = json.dumps(payload)
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=60)
        start = _clock()
        try:
            self.conn.request("POST", path, body=body,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            raw = response.read()
            reply.latency_s = _clock() - start
            reply.status = response.status
            reply.body = json.loads(raw)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            reply.latency_s = _clock() - start
            reply.error = f"{type(exc).__name__}: {exc}"
            # The connection is in an unknown state; the next request
            # opens a fresh one.
            self.conn.close()
            self.conn = None
        return reply


def drive(port: int, data, seed: int, first_round: int,
          rounds: Optional[int] = None, seconds: Optional[float] = None):
    """Run :data:`CLIENTS` closed-loop clients; (replies, wall seconds)."""
    if CLIENTS > (os.cpu_count() or 1):
        raise RuntimeError("more client threads than cores")
    start = _clock()
    deadline = start + seconds if seconds is not None else None
    clients = [Client(i, port, data, seed, first_round, rounds, deadline)
               for i in range(CLIENTS)]
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    wall = _clock() - start
    return [r for c in clients for r in c.replies], wall


def reply_problems(reply: Reply, data) -> List[str]:
    """Why a request did not get exactly one correct 200 reply."""
    if reply.error is not None:
        return [reply.error]
    if reply.status != 200:
        return [f"HTTP {reply.status}"]
    body = reply.body if isinstance(reply.body, dict) else {}
    records = body.get("records")
    if body.get("status") != "done" or not isinstance(records, list) \
            or len(records) != 1:
        return ["reply is not exactly one finished record"]
    if not isinstance(body.get("latency_ms"), (int, float)):
        return ["reply has no latency_ms"]
    paper = data.paper if reply.pack == inputs_mod.PAPER_PACK else None
    return checker.record_problems(
        records[0], data.impute_schema(), data.packs[reply.pack],
        prompt=reply.prompt, paper=paper,
    )


def check_replies(replies: List[Reply], data, tally) -> None:
    """Count every request; fail those without exactly one correct reply."""
    for index, reply in enumerate(replies):
        tally.attempted += 1
        problems = reply_problems(reply, data)
        if problems:
            tally.fail(("reply", index), "; ".join(problems[:3]))


def serial_reference(data, model, reply: Reply) -> Dict[str, int]:
    """The record the serial enforcer makes for this request's
    (seed, index 0, pack), with the enforcer built as the CLI builds it."""
    config = data.config
    enforcer = JitEnforcer(
        model, load_rules(data.pack_paths[reply.pack]), config,
        EnforcerConfig(seed=reply.seed),
        fallback_rules=[zoom2net_manual_rules(config), domain_bound_rules(config)],
        bounds=stream_bounds(config),
    )
    if reply.kind == "impute":
        return enforcer.impute_record(reply.prompt).values
    return enforcer.synthesize_record().values


def launcher(traced: bool, dump_dir: Optional[Path] = None) -> List[str]:
    """Command prefix that runs the CLI, untraced or under the ledger."""
    if not traced:
        return [sys.executable, "-m", "repro.cli"]
    script = Path(__file__).with_name("traced_serve.py")
    return [sys.executable, str(script), str(dump_dir)]
