#!/usr/bin/env python3
"""CI smoke: the live service survives SIGKILL with a gap-free telemetry
stream.

The end-to-end claim of the service layer: a ``python -m repro serve``
process driven over its control plane — flows submitted, load adjusted,
telemetry streaming — can be killed with SIGKILL mid-run and restarted
from its durability checkpoint, and a client composing the telemetry it
saw before the crash with what the restarted server reports gets one
gap-free, bit-consistent time series.

Procedure:

1. start the server with a checkpoint path; wait for the JSON ready line;
2. drive it: ``submit`` a flow, ``adjust-load``, subscribe to the pushed
   telemetry stream, and poll ``telemetry-rows`` (the composition path);
3. once past a few checkpoint intervals, SIGKILL the server (no cleanup);
   the surviving snapshot is loaded and sized section by section — its
   ``metrics`` must be exactly the scalars, the two sample tallies and
   the ``measuring`` flag: a snapshot is the network's state, not the
   run's history;
4. restart with identical arguments — it must resume from the snapshot;
5. assert: resumed slot > 0, the restored rows re-cover the pre-crash
   rows bit-exactly up to the snapshot, and the composed ``t`` sequence
   has uniform sample-interval spacing (no gaps, no forks);
6. ``drain-and-stop``; the server must exit 0, print a final summary
   line, and remove the checkpoint.

Exit 0 only if every step holds.
"""

import json
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service import SyncServiceClient, wait_for_ready  # noqa: E402
from repro.sim.checkpoint import load_checkpoint  # noqa: E402

SAMPLE_INTERVAL = 50
SERVE_ARGS = [
    "--n", "16", "--seed", "7", "--load", "0.25",
    "--curve", "diurnal", "--period", "8000",
    "--quantum", "200",
    "--sample-interval", str(SAMPLE_INTERVAL),
    "--checkpoint-every", "1000",
]


def _env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _start(checkpoint):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--checkpoint", checkpoint, *SERVE_ARGS],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
    )
    try:
        ready = wait_for_ready(proc.stdout)
    except Exception:
        proc.kill()
        err = proc.stderr.read().decode()
        raise SystemExit(f"server failed to start:\n{err}")
    return proc, ready


def check(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"  ok: {message}")


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="service-smoke-")
    checkpoint = os.path.join(tmp, "service.ckpt")

    print("== start the server ==")
    proc, ready = _start(checkpoint)
    check(ready["ready"] and ready["resumed_from"] is None,
          f"fresh start announced on port {ready['port']}")
    client = SyncServiceClient(ready["host"], ready["port"])

    print("== drive the control plane ==")
    check(client.ping()["ok"], "ping answered")
    check(client.submit([[0, 1, 9, 16, 1024]], late="clamp") == 1,
          "flow submitted")
    check(client.adjust_load(2.0) == 2.0, "load adjusted to 2.0x")
    check(client.stream_telemetry() >= 0, "telemetry stream subscribed")

    # run past several checkpoint intervals so the snapshot is mid-stream
    deadline = time.time() + 60
    status = client.status()
    while status["t"] < 5_000 and time.time() < deadline:
        time.sleep(0.05)
        status = client.status()
    check(status["t"] >= 5_000, f"advanced to t={status['t']}")
    check(status["load_factor"] == 2.0, "adjusted factor visible in status")

    pushed = client.drain_stream()
    check(len(pushed) > 10, f"{len(pushed)} rows arrived over the stream")
    rows_before = client.telemetry_rows(since=0)
    check(len(rows_before) >= len(pushed),
          f"{len(rows_before)} rows via polling (composition path)")

    print("== SIGKILL mid-run ==")
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)
    client.close()
    check(os.path.exists(checkpoint), "durability checkpoint survived")
    snapshot = load_checkpoint(checkpoint)
    sizes = {
        name: len(pickle.dumps(section, pickle.HIGHEST_PROTOCOL))
        for name, section in snapshot.state.items()
    }
    print(f"  snapshot at t={snapshot.t}: "
          f"{os.path.getsize(checkpoint)} bytes on disk; pickled sections:")
    for name, size in sorted(sizes.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<16} {size:>8}")
    # ``metrics`` is counts, not history: four entries, and its only
    # arrays are the two sample tallies
    metrics = snapshot.state["metrics"]
    arrays = sorted(name for name, held in metrics.items()
                    if hasattr(held, "nbytes"))
    check(sorted(metrics) == ["buffer_counts", "measuring", "queue_counts",
                              "scalars"],
          f"metrics holds {sorted(metrics)}")
    check(arrays == ["buffer_counts", "queue_counts"],
          f"metrics arrays are the two tallies ({arrays})")

    print("== restart from the checkpoint ==")
    proc2, ready2 = _start(checkpoint)
    resumed_from = ready2["resumed_from"]
    check(resumed_from and resumed_from > 0,
          f"resumed from slot {resumed_from}")
    client2 = SyncServiceClient(ready2["host"], ready2["port"])
    rows_after = client2.telemetry_rows(since=0)
    check(len(rows_after) > 0, f"{len(rows_after)} rows after restart")

    # the crashed server outlived its last snapshot: only rows up to the
    # snapshot are replayed, and they must be bit-identical
    replayed = [r for r in rows_before if r["t"] < resumed_from]
    check(rows_after[:len(replayed)] == replayed,
          f"{len(replayed)} pre-crash rows re-covered bit-exactly")

    composed = sorted({r["t"] for r in rows_before + rows_after})
    spacing = {b - a for a, b in zip(composed, composed[1:])}
    check(spacing == {SAMPLE_INTERVAL},
          f"composed stream of {len(composed)} rows is gap-free "
          f"(spacing {spacing})")

    print("== drain and stop ==")
    summary = client2.drain_and_stop()
    check(summary["ok"] and summary["completed_flows"] > 0,
          f"drained at t={summary['t']} with "
          f"{summary['completed_flows']} flows completed")
    client2.close()
    out, err = proc2.communicate(timeout=60)
    check(proc2.returncode == 0, "server exited 0 after drain")
    final = json.loads(out.decode().strip().splitlines()[-1])
    check(final.get("finished") is True, "final summary line printed")
    check(not os.path.exists(checkpoint),
          "checkpoint removed on clean completion")

    print("service smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
