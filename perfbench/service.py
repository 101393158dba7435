"""The service_mix workload: ``repro-campaign serve`` under a closed loop.

The server runs as a child process (``python -m repro.campaign.cli serve``)
in its own process group, so stopping it also stops its worker processes.  Each
client thread submits its next job only after the previous one reached a
terminal state, timed from the submit call to the terminal ``state`` event
of the job's NDJSON stream (``ServiceClient.events``), not by polling.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import workloads
from perfbench.stats import now

TERMINAL = ("done", "failed", "cancelled")
WORKERS = 2
CLIENTS = 2


@dataclass
class JobRecord:
    kind: str  # "fresh" | "repeat"
    payload: Dict
    latency_s: float
    submit_s: float
    state: str
    cells: int
    cache_hits: int
    queue_wait_s: float
    job_run_s: float
    stream_lag_s: float
    summaries: str  # canonical JSON of the results' summaries
    error: Optional[str] = None
    client: int = 0
    #: For a fresh job, which pass of its client's fresh-kind deck it is in.
    deck: Optional[int] = None


@dataclass
class Server:
    process: subprocess.Popen
    url: str
    log: Path

    def client(self, timeout: float = 120.0):
        from repro.service.client import ServiceClient

        return ServiceClient(self.url, timeout=timeout)


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def start_server(root: Path, workdir: Path, env: Dict[str, str],
                 timeout: float = 60.0) -> Server:
    """Boot ``repro-campaign serve`` and wait until ``/healthz`` answers."""
    workdir.mkdir(parents=True, exist_ok=True)
    log = workdir / "server.log"
    with open(log, "wb") as out:
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.campaign.cli", "serve",
                "--port", "0",
                "--workers", str(WORKERS),
                "--worker-mode", "process",
                "--worker-keepalive",
                "--cache-dir", str(workdir / "cache"),
            ],
            cwd=str(root),
            env=env,
            stdout=out,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
    deadline = time.monotonic() + timeout
    url = None
    while url is None:
        if process.poll() is not None:
            raise RuntimeError(f"server exited early:\n{log.read_text()}")
        if time.monotonic() > deadline:
            stop_server(Server(process, "", log))
            raise RuntimeError("server did not report its address in time")
        for line in log.read_text(errors="replace").splitlines():
            if "listening on " in line:
                url = line.split("listening on ", 1)[1].strip()
        if url is None:
            time.sleep(0.01)
    server = Server(process, url, log)
    client = server.client(timeout=5.0)
    from repro.service.client import ServiceUnavailable

    while True:
        try:
            client.healthz()
            return server
        except ServiceUnavailable:
            if time.monotonic() > deadline:
                stop_server(server)
                raise
            time.sleep(0.01)


def stop_server(server: Server, timeout: float = 60.0) -> None:
    """SIGTERM (drains), then make sure nothing of its process group survives."""
    process = server.process
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    process.wait(timeout=timeout)
    # Wait until no process of the group (the workers) is left.
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def run_job(client, payload: Dict, kind: str = "fresh") -> JobRecord:
    """Submit one job and follow its event stream to the terminal state."""
    start = now()
    job = client.submit(payload)
    submitted = now()
    state = None
    for event in client.events(job["id"]):
        if event.get("event") == "state" and event.get("state") in TERMINAL:
            state = event["state"]
            break
    end = now()
    received_wall = time.time()
    final = client.job(job["id"], results=True)
    state = state or final["state"]
    started = final.get("started_at") or final["created_at"]
    finished = final.get("finished_at") or received_wall
    results = final.get("results") or {}
    return JobRecord(
        kind=kind,
        payload=payload,
        latency_s=end - start,
        submit_s=submitted - start,
        state=state,
        cells=int(final.get("cells_total", 0)),
        cache_hits=int(final.get("cache_hits", 0)),
        queue_wait_s=started - final["created_at"],
        job_run_s=finished - started,
        stream_lag_s=received_wall - finished,
        summaries=canonical(results.get("summaries")),
        error=final.get("error"),
    )


def warm_up(server: Server) -> None:
    """One single-cell job per worker, in parallel, so every worker is warm."""
    errors: List[str] = []

    def one(index: int) -> None:
        record = run_job(server.client(), workloads.warmup_job(index))
        if record.state != "done":
            errors.append(f"warm-up job {index}: {record.state} {record.error}")

    threads = [threading.Thread(target=one, args=(i,)) for i in range(WORKERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if errors or any(thread.is_alive() for thread in threads):
        raise RuntimeError("service warm-up failed: " + "; ".join(errors))


@dataclass
class LoopResult:
    records: List[JobRecord] = field(default_factory=list)
    wall_s: float = 0.0
    repeat_mismatches: List[str] = field(default_factory=list)
    client_errors: List[str] = field(default_factory=list)


def closed_loop(server: Server, seed: int, seconds: float) -> LoopResult:
    """``CLIENTS`` closed-loop clients for ``seconds``; in-flight jobs finish."""
    result = LoopResult()
    lock = threading.Lock()
    start = now()
    deadline = start + seconds

    def client_loop(client_id: int) -> None:
        client = server.client()
        first_serving: Dict[str, str] = {}
        fresh = 0
        try:
            for kind, payload in workloads.service_jobs(seed, client_id):
                if now() >= deadline:
                    return
                record = run_job(client, payload, kind)
                record.client = client_id
                if kind == "fresh":
                    record.deck = fresh // len(workloads.FRESH_KINDS)
                    fresh += 1
                key = canonical(payload)
                mismatch = None
                if record.state == "done":
                    if key in first_serving and first_serving[key] != record.summaries:
                        mismatch = (
                            f"client {client_id}: repeated job {payload['name']} "
                            "returned different results than its first serving"
                        )
                    first_serving.setdefault(key, record.summaries)
                with lock:
                    result.records.append(record)
                    if mismatch:
                        result.repeat_mismatches.append(mismatch)
        except Exception as error:  # noqa: BLE001 - reported as a failure
            with lock:
                result.client_errors.append(f"client {client_id}: {error!r}")

    threads = [
        threading.Thread(target=client_loop, args=(i,)) for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
        if thread.is_alive():
            result.client_errors.append("a client did not finish in time")
    result.wall_s = now() - start
    return result


def whole_deck_fresh(records: List[JobRecord]) -> List[JobRecord]:
    """The fresh jobs of each client's complete passes of its fresh-kind deck.

    A pass holds the mix's exact shares (50% SPEC, 30% DTM, 20% chip), and
    SPEC jobs are the fast mode of a bimodal latency: a run's last, partial
    pass would move the fresh median with whichever kinds it happened to
    deal.  Falls back to every fresh job when no client finished a pass.
    """
    fresh = [r for r in records if r.kind == "fresh"]
    passes = {
        client: sum(r.client == client for r in fresh) // len(workloads.FRESH_KINDS)
        for client in {r.client for r in fresh}
    }
    whole = [r for r in fresh if r.deck < passes[r.client]]
    return whole or fresh


def local_equivalence(records: List[JobRecord], seed: int, count: int = 3):
    """Re-run a seeded sample of served jobs with a local serial run_campaign.

    Returns ``(mismatch messages, local outcomes)``.
    """
    import random

    import repro.campaign as api
    from repro.service.codec import campaign_from_payload
    from repro.service.manager import results_payload

    fresh = [r for r in records if r.kind == "fresh" and r.state == "done"]
    rng = random.Random(f"service-check:{seed}")
    # Always include a DTM job when one was served, so the check covers it.
    dtm = [r for r in fresh if r.payload.get("dtm_policies")]
    sample = rng.sample(fresh, min(count, len(fresh)))
    if dtm and not any(r.payload.get("dtm_policies") for r in sample):
        sample[-1] = rng.choice(dtm)
    mismatches = []
    outcomes = []
    for record in sample:
        outcome = api.run_campaign(campaign_from_payload(dict(record.payload)))
        outcomes.append(outcome)
        local = canonical(json.loads(canonical(results_payload(outcome)["summaries"])))
        if local != record.summaries:
            mismatches.append(
                f"job {record.payload['name']} (seed {record.payload['seed']}): "
                "service result differs from a local serial run_campaign"
            )
    return mismatches, outcomes
