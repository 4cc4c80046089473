#!/usr/bin/env python
"""CI smoke test for the serving stack, end to end through the CLI.

One flow with optional stages, selected by scenario name::

    repro serve -> [repro chaos] -> repro loadgen -> [direct STATS +
    SHUTDOWN] -> server exit -> [repro replay]

Every process listens on a loopback port chosen by the OS (``--port
0``); the announce lines are parsed for the real ports.

``plain``
    ``repro loadgen --expect-final --shutdown`` straight at the
    service: zero failed requests, the final counter value equals the
    increments sent, and ``--shutdown`` stops the server (exit 0).
``chaos``
    The load goes through ``repro chaos`` injecting delays, stalls,
    truncations and resets, with ``--retries``: still zero failed
    requests and the exact final value (request-id dedup makes retries
    exactly-once); ``STATS``, asked directly past the proxy, agrees
    (served == OPS); a direct ``SHUTDOWN`` drains the server (exit 0).
``shard``
    ``repro serve --shards 4 --fixture`` behind the proxy, a
    Zipf-keyed load (``--keys``): every key exact, served == OPS over
    4 shards, clean shutdown, and ``repro replay`` re-verifies the
    recorded bundle offline.

Run from the repository root: ``python scripts/serve_smoke.py <scenario>``
(PYTHONPATH=src is set for the subprocesses automatically).
"""

from __future__ import annotations

import os
import pathlib
import re
import select
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
SERVE_ANNOUNCE = re.compile(
    r"^SERVING \S+ n=\d+ (?:shards=\d+ )?(?P<host>[\d.]+):(?P<port>\d+)$"
)
CHAOS_ANNOUNCE = re.compile(
    r"^CHAOS \S+ (?P<host>[\d.]+):(?P<port>\d+) -> [\d.]+:\d+$"
)
START_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Scenario:
    spec: str
    n: int
    ops: int
    rate: float
    serve_args: tuple[str, ...] = ()
    load_args: tuple[str, ...] = ()
    plan: str | None = None  # chaos plan; None = no proxy, loadgen shuts down
    seed: int = 0
    shards: int | None = None  # keyed service: record a bundle and replay it


SCENARIOS = {
    "plain": Scenario(
        spec="ww-tree?interval_mode=wrap", n=27, ops=300, rate=500.0,
    ),
    "chaos": Scenario(
        spec="central", n=8, ops=300, rate=400.0,
        serve_args=("--max-backlog", "128"),
        load_args=(
            "--retries", "8", "--deadline-ms", "500",
            "--backoff-base-ms", "5", "--backoff-max-ms", "50",
        ),
        plan="delay=0.002@0.2,trunc=4@0.1,reset@0.15,stall=0.02@0.1",
        seed=5,
    ),
    "shard": Scenario(
        spec="central", n=4, ops=500, rate=800.0,
        serve_args=("--batch-max", "16", "--max-backlog", "256"),
        load_args=(
            "--keys", "32", "--zipf", "1.1", "--seed", "7",
            "--retries", "8",
            "--backoff-base-ms", "5", "--backoff-max-ms", "50",
        ),
        plan="delay=0.001@0.2,trunc=4@0.08,reset@0.12",
        seed=7,
        shards=4,
    ),
}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    return env


def _spawn(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
        cwd=ROOT,
    )


def _run(tag: str, *args: str) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=180,
        env=_env(),
        cwd=ROOT,
    )
    print(f"[{tag}] {done.stdout.strip()}")
    if done.stderr.strip():
        print(f"[{tag}:err] {done.stderr.strip()}")
    return done


def _read_announce(
    process: subprocess.Popen, pattern: re.Pattern, tag: str
) -> tuple[str, int]:
    """Wait for an announce line (with a deadline) and parse it."""
    assert process.stdout is not None
    deadline = time.monotonic() + START_TIMEOUT_S
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(
                f"{tag} did not announce within {START_TIMEOUT_S}s"
            )
        ready, _, _ = select.select([process.stdout], [], [], remaining)
        if not ready:
            continue
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"{tag} exited before announcing (rc={process.poll()})"
            )
        print(f"[{tag}] {line.rstrip()}")
        match = pattern.match(line.strip())
        if match:
            return match["host"], int(match["port"])


def _ask(host: str, port: int, line: str) -> str:
    """One request/answer round trip on a fresh direct connection."""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(f"{line}\n".encode("ascii"))
        answer = b""
        while not answer.endswith(b"\n"):
            chunk = sock.recv(4096)
            if not chunk:
                break
            answer += chunk
    return answer.decode("ascii").strip()


def smoke(name: str, scenario: Scenario) -> int:
    serve_args = list(scenario.serve_args)
    load_args = list(scenario.load_args)
    load_prints = ["err=0"]
    bundle = None
    if scenario.shards is not None:
        bundle = tempfile.mkdtemp(prefix="serve-smoke-")
        serve_args += ["--shards", str(scenario.shards), "--fixture", bundle]
        load_prints.append("all exact")
    else:
        load_args += ["--expect-final", str(scenario.ops)]
    if scenario.plan is None:
        load_args.append("--shutdown")
    server = _spawn(
        "serve", scenario.spec, "--n", str(scenario.n), "--port", "0",
        *serve_args,
    )
    proxy = None
    try:
        host, port = _read_announce(server, SERVE_ANNOUNCE, "serve")
        target_host, target_port = host, port
        if scenario.plan is not None:
            proxy = _spawn(
                "chaos", "--upstream", f"{host}:{port}", "--port", "0",
                "--plan", scenario.plan, "--seed", str(scenario.seed),
            )
            target_host, target_port = _read_announce(
                proxy, CHAOS_ANNOUNCE, "chaos"
            )
        loadgen = _run(
            "loadgen", "loadgen",
            "--host", target_host, "--port", str(target_port),
            "--ops", str(scenario.ops), "--rate", str(scenario.rate),
            *load_args,
        )
        if loadgen.returncode != 0:
            print(f"FAIL: loadgen exited {loadgen.returncode}")
            return 1
        for text in load_prints:
            if text not in loadgen.stdout:
                print(f"FAIL: loadgen did not report {text!r}")
                return 1

        if scenario.plan is not None:
            # ask the server directly (past the proxy): exactly-once
            # means served landed on OPS even though the wire lost and
            # re-sent requests
            stats_line = _ask(host, port, "STATS")
            print(f"[stats] {stats_line}")
            fields = dict(
                pair.split("=", 1) for pair in stats_line.split()[1:]
            )
            if int(fields["served"]) != scenario.ops:
                print(
                    f"FAIL: server served {fields['served']}, "
                    f"want {scenario.ops}"
                )
                return 1
            if (
                scenario.shards is not None
                and int(fields["shards"]) != scenario.shards
            ):
                print(
                    f"FAIL: {fields['shards']} shards, "
                    f"want {scenario.shards}"
                )
                return 1
            bye = _ask(host, port, "SHUTDOWN")
            if bye != "BYE":
                print(f"FAIL: SHUTDOWN answered {bye!r}")
                return 1
        server_rc = server.wait(timeout=30)
        if server_rc != 0:
            print(f"FAIL: server exited {server_rc} after shutdown")
            return 1

        if bundle is not None:
            # the stopped server wrote the fixture bundle: re-execute
            # the whole run offline and re-verify every increment
            replay = _run("replay", "replay", bundle)
            if replay.returncode != 0 or "REPLAY OK" not in replay.stdout:
                print(f"FAIL: replay exited {replay.returncode}")
                return 1
    finally:
        for process in (proxy, server):
            if process is not None and process.poll() is None:
                process.kill()
                process.wait()
    print(f"OK: {name}: {scenario.ops} increments on {scenario.spec} "
          f"(n={scenario.n}), every check passed, clean shutdown")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in SCENARIOS:
        raise SystemExit(f"usage: serve_smoke.py <{'|'.join(SCENARIOS)}>")
    raise SystemExit(smoke(sys.argv[1], SCENARIOS[sys.argv[1]]))
