"""The ``serve`` workload: a closed-loop client session against ``hsis serve``.

The server runs as its own process (``python -m repro.cli serve --jobs
2``) with a fresh, empty result cache.  ``inputs.CONNECTIONS`` clients each
hold one connection and send their next request only after the previous
reply arrived.  Every reply is checked against ``expected.json``; after
the session the server's ``status`` counters are checked for hygiene.
"""

from __future__ import annotations

import asyncio
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.serve import ServeClient, ServeError

from inputs import Request, ServeStream

#: Worker processes of the server.
SERVER_JOBS = 2
#: Fewest replies per class (computed / cache hit) a session collects.
MIN_SAMPLES = 100
#: A session ends after the round that passes this, even if short of samples.
MAX_SESSION_S = 120.0
#: Seconds a job may run before the server reaps it.
JOB_TIMEOUT_S = 60.0


# -- the server process -------------------------------------------------


class Server:
    """One ``hsis serve`` process, started on an ephemeral port."""

    def __init__(self, root: str, workdir: str) -> None:
        os.makedirs(workdir, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._log = open(os.path.join(workdir, "server.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--jobs", str(SERVER_JOBS), "--cache-dir", os.path.join(workdir, "cache"),
             "--timeout", str(JOB_TIMEOUT_S)],
            cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        self.port = self._read_port(timeout=60.0)

    def _read_port(self, timeout: float) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"hsis serve did not start: {line!r}")
        return int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])

    def worker_pids(self) -> List[int]:
        """Live child processes of the server (its job workers)."""
        pids: List[int] = []
        task_dir = f"/proc/{self.proc.pid}/task"
        for tid in os.listdir(task_dir):
            try:
                with open(os.path.join(task_dir, tid, "children")) as handle:
                    pids.extend(int(pid) for pid in handle.read().split())
            except OSError:  # the thread exited while we listed it
                continue
        return pids

    def stop(self) -> None:
        """Interrupt the server, wait for it, and kill it if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


async def status(port: int) -> Dict[str, Any]:
    async with ServeClient(port=port) as client:
        return await client.status()


def boot(root: str, workdir: str) -> Server:
    """Start a server and wait for its first ``status`` reply."""
    server = Server(root, workdir)
    try:
        asyncio.run(status(server.port))
    except BaseException:
        server.stop()
        raise
    return server


# -- the closed-loop session --------------------------------------------


@dataclass
class Reply:
    """What the client saw of one submission."""

    request: Request
    traced: bool
    #: ``time.perf_counter()`` when the request was sent.
    sent: float = 0.0
    latency: float = 0.0
    cached: Optional[bool] = None
    worker_s: float = 0.0
    queue_wait: Optional[float] = None
    problem: Optional[str] = None


@dataclass
class Round:
    """Every connection sends one deck of its stream, concurrently."""

    traced: bool
    jobs: int
    seconds: float


@dataclass
class Session:
    replies: List[Reply] = field(default_factory=list)
    rounds: List[Round] = field(default_factory=list)
    seconds: float = 0.0


def verify(request: Request, reply: Dict[str, Any], expected: Dict[str, Dict]) -> Optional[str]:
    """Compare one ``result`` line with the known answer."""
    if reply.get("status") != "ok" or not reply.get("ok"):
        return f"status {reply.get('status')}: {reply.get('error')}"
    result = reply["result"]
    if request.kind == "fuzz":
        trials = request.message["knobs"]["trials"]
        if not result["ok"] or result["divergences"] or result["trials"] != trials:
            return f"fuzz sweep not clean: {result['summary']}"
        return None
    want = expected[request.design_key]
    verdicts = {v["name"]: v["holds"] for v in result["verdicts"]}
    if verdicts != want["ctl"]:
        return f"verdicts {verdicts}, expected {want['ctl']}"
    if request.kind == "profile" and result["states"] != want["states"]:
        return f"reached {result['states']} states, expected {want['states']}"
    return None


async def _submit(client: ServeClient, request: Request, traced: bool,
                  expected: Dict[str, Dict]) -> Reply:
    """Send one request and wait for its result line."""
    entry = Reply(request, traced)
    events: Dict[str, float] = {}

    def on_event(line):
        event = line.get("event", {})
        if event.get("name") == "serve.job.start":
            events["start"] = event["ts"]

    start_wall = time.time()
    start = entry.sent = time.perf_counter()
    try:
        reply = await client.submit(
            **request.message, stream=traced, client_id=request.tag,
            on_event=on_event if traced else None,
        )
    except ServeError as exc:
        entry.latency = time.perf_counter() - start
        entry.problem = f"refused: {exc}"
        return entry
    entry.latency = time.perf_counter() - start
    entry.cached = bool(reply.get("cached"))
    entry.worker_s = float(reply.get("seconds") or 0.0)
    if "start" in events:
        entry.queue_wait = max(0.0, events["start"] - start_wall)
    entry.problem = verify(request, reply, expected)
    return entry


async def _deck(client: ServeClient, stream: ServeStream, traced: bool,
                expected: Dict[str, Dict], replies: List[Reply]) -> None:
    for _ in range(stream.period):
        replies.append(await _submit(client, next(stream), traced, expected))


async def _session(port: int, streams: List[ServeStream], seconds: float,
                   trace: bool, expected: Dict[str, Dict]) -> Session:
    session = Session()
    clients = [ServeClient(port=port) for _ in streams]
    for client in clients:
        await client.connect()
    try:
        started = time.perf_counter()
        while True:
            # With --trace 1 rounds alternate untraced / traced.
            traced = trace and len(session.rounds) % 2 == 1
            start = time.perf_counter()
            await asyncio.gather(*[
                _deck(client, stream, traced, expected, session.replies)
                for client, stream in zip(clients, streams)
            ])
            elapsed = time.perf_counter() - start
            session.rounds.append(Round(traced, sum(s.period for s in streams), elapsed))
            now = time.perf_counter()
            computed = sum(1 for r in session.replies if r.cached is False)
            hits = sum(1 for r in session.replies if r.cached is True)
            if now >= started + MAX_SESSION_S or (
                    now >= started + seconds
                    and min(computed, hits) >= MIN_SAMPLES
                    and (not trace or len(session.rounds) >= 2)):
                break
        session.seconds = time.perf_counter() - started
    finally:
        for client in clients:
            await client.close()
    return session


def run_session(port: int, streams: List[ServeStream], seconds: float,
                trace: bool, expected: Dict[str, Dict]) -> Session:
    """Drive one closed-loop client per stream, in rounds of one deck each."""
    return asyncio.run(_session(port, streams, seconds, trace, expected))


def hygiene(server: Server, session: Session, counters: Dict[str, int]) -> List[str]:
    """Invariants of a finished session; returns the violations."""
    problems = []
    sent = len(session.replies)
    answered = sum(1 for r in session.replies if r.cached is not None)
    computed = sum(1 for r in session.replies if r.cached is False)
    hits = sum(1 for r in session.replies if r.cached is True)
    if answered != sent:
        problems.append(f"{sent - answered} of {sent} submissions got no result")
    if counters.get("serve.submitted", 0) + counters.get("serve.cache_hits", 0) != answered:
        problems.append(f"server accepted {counters.get('serve.submitted', 0)} jobs and "
                        f"{counters.get('serve.cache_hits', 0)} hits for {answered} replies")
    jobs = counters.get("serve.jobs", 0)
    by_status = sum(v for k, v in counters.items() if k.startswith("serve.jobs."))
    if not jobs == by_status == computed:
        problems.append(f"serve.jobs {jobs}, serve.jobs.* sum {by_status}, "
                        f"computed replies {computed}")
    if hits != counters.get("serve.cache_hits", 0):
        problems.append(f"{hits} cached replies but serve.cache_hits "
                        f"{counters.get('serve.cache_hits', 0)}")
    if counters.get("serve.coalesced", 0):
        problems.append(f"serve.coalesced {counters['serve.coalesced']}, expected 0")
    misclassified = sum(
        1 for r in session.replies
        if r.cached is not None and r.cached == r.request.fresh
    )
    if misclassified:
        problems.append(f"{misclassified} replies: fresh request cached or repeat computed")
    deadline = time.monotonic() + 5.0
    while server.worker_pids() and time.monotonic() < deadline:
        time.sleep(0.05)
    leftover = server.worker_pids()
    if leftover:
        problems.append(f"worker processes left behind: {leftover}")
    return problems
