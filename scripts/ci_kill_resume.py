#!/usr/bin/env python3
"""CI smoke: SIGKILL a sweep cell mid-run, resume, demand byte-identical output.

The strongest end-to-end claim the checkpoint subsystem makes: a sweep
interrupted by a hard kill (no atexit, no cleanup — SIGKILL) and resumed
from its on-disk snapshots produces artifacts *byte-identical* to an
uninterrupted run — the text report and the deterministic telemetry JSON.

Procedure, for the case named on the command line (default ``fig08``):

1. run the figure cleanly into ``clean/``;
2. run it again into ``resumed/`` with ``--checkpoint-dir``, poll for the
   first ``*.ckpt`` snapshot to appear, then SIGKILL the process;
3. re-run the same command to completion — the interrupted cell must
   resume from its snapshot (asserted via the runtime sidecar);
4. compare ``<fig>.txt`` and ``<fig>.json`` across the two directories.

The ``fig13-slab`` case runs hbh+spray at n=144 on the vector backend —
above the token family's size floor — and additionally demands that every
run manifest, clean and resumed, says ``backend_effective == "vector"``
with no fallback reason: the snapshot was written from the slab's columns
and the resumed run continued on them.

The ``fig08-telemetry`` case kills a victim run *without* ``--telemetry``
and reruns it with ``--telemetry``: a snapshot names the cell's identity,
which includes whether telemetry is captured, so the rerun must not resume
(every ``cell_resume_slot`` null) and its ``fig08.json`` must equal the
clean telemetry run's, series from slot 0.

The ``simulate`` case does the same to one ``simulate()`` call (n=16
hbh+spray, a Poisson workload, ``checkpoint_every`` 2 000, drained, with a
digest) run in a child process: the rerun must report a ``resumed_from``
slot > 0 and the uninterrupted run's digest and summary.

Exit 0 only if everything matches.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

FIG08_ARGS = ["--set", "n=16", "--set", "duration=12000", "--workers", "1"]

#: case -> (figure, runner arguments, the pipeline every run manifest must
#: name as having really run or None to leave it unchecked, whether the
#: victim runs with --telemetry and so must be resumed); small enough for
#: CI, big enough for several snapshots per cell
CASES = {
    "fig08": ("fig08", FIG08_ARGS, None, True),
    "fig13-slab": ("fig13", ["--set", "sizes={2: (144,)}",
                             "--set", "duration=12000",
                             "--backend", "vector", "--workers", "1"],
                   "vector", True),
    "fig08-telemetry": ("fig08", FIG08_ARGS, None, False),
}
CHECKPOINT_EVERY = "2000"
KILL_POLL_SECONDS = 0.05
KILL_TIMEOUT_SECONDS = 300


def _cmd(figure, args, out_dir, ckpt_dir=None, telemetry=True):
    cmd = [sys.executable, "-m", "repro", figure, *args, "--out", str(out_dir)]
    if telemetry:
        cmd += ["--telemetry", str(out_dir)]
    if ckpt_dir is not None:
        cmd += ["--checkpoint-dir", str(ckpt_dir),
                "--checkpoint-every", CHECKPOINT_EVERY]
    return cmd


def _env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _simulate_cmd(ckpt=None):
    """This script as the child that runs the ``simulate`` case's call."""
    return [sys.executable, __file__, "simulate-run",
            "" if ckpt is None else str(ckpt)]


def _simulate_run(ckpt: str) -> int:
    """The ``simulate`` case's call; prints its result as one JSON line."""
    from repro import SimConfig, simulate
    from repro.workloads import ShortFlowDistribution, poisson_workload

    config = SimConfig(n=16, h=2, duration=60_000,
                       congestion_control="hbh+spray")
    flows = poisson_workload(config, ShortFlowDistribution(), load=0.2)
    result = simulate(config, flows, drain=True, digest=True,
                      checkpoint=ckpt or None,
                      checkpoint_every=int(CHECKPOINT_EVERY))
    print(json.dumps({"digest": result.digest, "summary": result.summary,
                      "resumed_from": result.resumed_from},
                     sort_keys=True))
    return 0


def _kill_at_first_snapshot(cmd, ckpts: pathlib.Path) -> bool:
    """Start ``cmd`` and SIGKILL it once a ``*.ckpt`` file appears in
    ``ckpts``; False (with the reason on stderr) if none ever does."""
    print("[2/4] victim run (SIGKILL at first snapshot)", flush=True)
    victim = subprocess.Popen(cmd, env=_env())
    deadline = time.monotonic() + KILL_TIMEOUT_SECONDS
    try:
        while not list(ckpts.glob("*.ckpt")):
            if victim.poll() is not None:
                print("victim finished before any snapshot was written; "
                      "lower the checkpoint interval", file=sys.stderr)
                return False
            if time.monotonic() > deadline:
                print("timed out waiting for a snapshot", file=sys.stderr)
                return False
            time.sleep(KILL_POLL_SECONDS)
    finally:
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
            victim.wait()
    print(f"      killed pid {victim.pid} with "
          f"{len(list(ckpts.glob('*.ckpt')))} snapshot(s) on disk",
          flush=True)
    return True


def _simulate_case() -> int:
    def run(ckpt=None):
        out = subprocess.run(_simulate_cmd(ckpt), check=True, env=_env(),
                             stdout=subprocess.PIPE, text=True).stdout
        return json.loads(out)

    with tempfile.TemporaryDirectory(prefix="kill-resume-") as tmp:
        ckpt = pathlib.Path(tmp) / "run.ckpt"
        print("[1/4] clean run (simulate)", flush=True)
        clean = run()
        if not _kill_at_first_snapshot(_simulate_cmd(ckpt), ckpt.parent):
            return 1
        print("[3/4] resumed run", flush=True)
        resumed = run(ckpt)
        print("[4/4] comparing results", flush=True)
        status = 0
        if resumed["resumed_from"]:
            print(f"      resumed from slot {resumed['resumed_from']}")
        else:
            print("      the rerun did not resume: it started at slot 0",
                  file=sys.stderr)
            status = 1
        for key in ("digest", "summary"):
            same = (json.dumps(clean[key], sort_keys=True)
                    == json.dumps(resumed[key], sort_keys=True))
            print(f"      {key}: {'identical' if same else 'DIFFERS'}",
                  file=sys.stdout if same else sys.stderr)
            status |= not same
        if ckpt.exists():
            print("      the completed run left its checkpoint behind",
                  file=sys.stderr)
            status = 1
        return status


def main(argv) -> int:
    case = argv[0] if argv else "fig08"
    if case == "simulate-run":
        return _simulate_run(argv[1])
    if case == "simulate":
        return _simulate_case()
    if case not in CASES:
        print(f"unknown case {case!r}; one of {sorted(CASES)} or "
              f"'simulate'", file=sys.stderr)
        return 2
    figure, args, effective, resumes = CASES[case]
    with tempfile.TemporaryDirectory(prefix="kill-resume-") as tmp:
        tmp = pathlib.Path(tmp)
        clean = tmp / "clean"
        resumed = tmp / "resumed"
        ckpts = tmp / "ckpts"

        print(f"[1/4] clean run ({case})", flush=True)
        subprocess.run(_cmd(figure, args, clean), check=True, env=_env())

        victim = _cmd(figure, args, resumed, ckpts, telemetry=resumes)
        if not _kill_at_first_snapshot(victim, ckpts):
            return 1

        print("[3/4] resumed run", flush=True)
        subprocess.run(_cmd(figure, args, resumed, ckpts), check=True,
                       env=_env())

        runtime = json.loads(
            (resumed / f"{figure}.runtime.json").read_text())
        slots = [entry["runtime"].get("cell_resume_slot")
                 for entry in runtime["runs"]
                 if isinstance(entry.get("runtime"), dict)]
        resumed_slots = [s for s in slots if s is not None]
        if resumes and not resumed_slots:
            print("no cell reported a resume slot — the resumed run "
                  "recomputed everything from scratch", file=sys.stderr)
            return 1
        if not resumes and resumed_slots:
            print(f"cell(s) resumed a snapshot taken without telemetry, "
                  f"from slot(s) {resumed_slots}", file=sys.stderr)
            return 1
        if resumes:
            print(f"      cell(s) resumed from slot(s) {resumed_slots}",
                  flush=True)
        else:
            print("      no cell resumed a snapshot taken without telemetry",
                  flush=True)

        print("[4/4] comparing artifacts", flush=True)
        status = 0
        for name in (f"{figure}.txt", f"{figure}.json"):
            a = (clean / name).read_bytes()
            b = (resumed / name).read_bytes()
            if a == b:
                print(f"      {name}: identical ({len(a)} bytes)")
            else:
                print(f"      {name}: DIFFERS", file=sys.stderr)
                status = 1
        if effective is not None:
            for out_dir in (clean, resumed):
                payload = json.loads((out_dir / f"{figure}.json").read_text())
                ran = [(run["manifest"]["backend_effective"],
                        run["manifest"]["backend_reason"])
                       for run in payload["runs"]]
                if ran and set(ran) == {(effective, "")}:
                    print(f"      {out_dir.name}: {len(ran)} run(s) on the "
                          f"{effective} pipeline throughout")
                else:
                    print(f"      {out_dir.name}: runs left the {effective} "
                          f"pipeline: {ran}", file=sys.stderr)
                    status = 1
        return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
