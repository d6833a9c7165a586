"""One differential state machine: the vector backend against the object
reference under any interleaving of what a caller can do to an engine.

*Axes* (drawn once per example): every congestion-control mechanism of
``SimConfig.VALID_CC``; ``(n, h)`` on both sides of the token family's real
size floor (``VectorBackend.TOKEN_SLAB_MIN_N``, never patched here) for
h = 1, 2, 3; one to three tokens per header; a propagation delay; failures
(a node crash and a link flap, both healed) on or off.  Half the draws are
states the slab steps.

*Rules* (interleaved): flows scheduled mid-run, ``run`` / ``run_until_
quiescent`` / ``Session.advance`` slices and ``step()`` hand-offs,
snapshot -> file -> restore (into a fresh session, or applied onto the
running engine), ``force_full_scan`` toggles, a digest, a profiler, a
monitor, a telemetry recorder and an event log attached mid-run, draws from
the engine RNG by somebody else, engine-level reads and reads of the object
model.

*Oracle*: one object-backend engine on visit sets, given the same calls —
except the restores, which the oracle never makes, so every resumed state
is checked against the uninterrupted run.  The vector engine starts on the
slab where the eligibility table lets it and on the full scan where it does
not, so its stretches run another pipeline than the oracle's until a rule
moves it.  After every rule both runs' ``run_state`` (clock, RNG, pending
flows, every plain-model table, flows, metrics, digest, failure protocol)
must be equal, and so must the attached observers; every built object model
must keep its counters as caches of its queues; and the vector engine must
have built its object model exactly when a rule read it and report the
pipeline and fallback reason the eligibility table below says.  At teardown
the oracle must equal one plain batch ``run()`` of the recorded flows, cut
only where the digest was enabled or somebody drew from the RNG.
"""

import os
import random
import tempfile

import pytest
from hypothesis import HealthCheck, Phase, event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.api import open_session
from repro.failures.manager import (
    FailureEvent,
    FailureManager,
    LinkFailureEvent,
)
from repro.obs.events import EventLog, RingSink
from repro.obs.timeseries import TimeSeriesRecorder
from repro.sim import tables
from repro.sim.backends.vector import VectorBackend
from repro.sim.checkpoint import (
    apply_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.monitor import RunMonitor
from repro.workloads.generators import permutation_workload

from .equivalence import equal, run_state

pytestmark = pytest.mark.backends

#: (n, h) for h = 1, 2, 3: below the token family's size floor, and above
BELOW = ((16, 1), (16, 2), (27, 3))
ABOVE = ((100, 1), (100, 2), (125, 3))

#: the mechanisms the slab steps itself: cc=none at any n, the token family
#: from the floor up
TOKEN_FAMILY = ("spray-short", "hop-by-hop", "hbh+spray")
SLAB_MECHANISMS = ("none",) + TOKEN_FAMILY

#: (cc, (n, h), failures): half the draws are states the slab steps (the
#: token family twice as often as cc=none), the other half anything
NETWORKS = st.one_of(
    st.tuples(st.sampled_from(SLAB_MECHANISMS + TOKEN_FAMILY),
              st.sampled_from(ABOVE), st.just(False)),
    st.tuples(st.sampled_from(SimConfig.VALID_CC),
              st.sampled_from(BELOW + ABOVE), st.booleans()),
)

#: observers that attach themselves, by the ``Session`` keyword naming them
OBSERVERS = {
    "monitor": lambda: RunMonitor(strict=True),
    "telemetry": TimeSeriesRecorder,
    "events": lambda: EventLog([RingSink()]),
}


def assert_same(state, expected):
    """Two state trees are :func:`equal`; if not, name the keys (a table of
    the plain model, a field of the metrics, ...) that differ."""
    if equal(state, expected):
        return
    differ = []
    for key in sorted(set(state) | set(expected)):
        mine, theirs = state.get(key), expected.get(key)
        if isinstance(mine, dict) and isinstance(theirs, dict):
            differ += [f"{key}.{name}"
                       for name in sorted(set(mine) | set(theirs))
                       if not equal(mine.get(name), theirs.get(name))]
        elif not equal(mine, theirs):
            differ.append(key)
    raise AssertionError("states differ in " + ", ".join(differ))


def _failures(n, h, seed):
    """A node that crashes and recovers, and a link that flaps."""
    r = round(n ** (1 / h))
    node = 1 + seed % (n - 1)
    a = seed % n
    b = a - a % r + (a % r + 1) % r    # a's neighbour along the last digit
    return FailureManager(events=[
        FailureEvent(30, node, failed=True),
        LinkFailureEvent(70, a, b),
        FailureEvent(160, node, failed=False),
        LinkFailureEvent(220, a, b, failed=False),
    ])


class DifferentialMachine(RuleBasedStateMachine):

    # ------------------------------------------------------------------ #
    # the two runs

    @initialize(network=NETWORKS,
                tokens_per_header=st.integers(1, 3),
                delay=st.integers(0, 40),
                seed=st.integers(0, 2**16),
                cells=st.integers(1, 20),
                slots=st.sampled_from([0, 40, 97, 97]))
    def build(self, network, tokens_per_header, delay, seed, cells, slots):
        floor = VectorBackend.TOKEN_SLAB_MIN_N
        assert max(BELOW)[0] < floor <= min(ABOVE)[0]
        cc, (n, h), failures = network
        self.configs = {
            backend: SimConfig(
                n=n, h=h, seed=seed, propagation_delay=delay,
                congestion_control=cc, tokens_per_header=tokens_per_header,
                metrics_sample_interval=10, backend=backend)
            for backend in ("object", "vector")
        }
        self.config = self.configs["vector"]
        self.failures = failures
        self.sessions = {
            backend: open_session(cfg, failures=self.manager())
            for backend, cfg in self.configs.items()
        }
        #: every flow scheduled, in order, and where the batch run must
        #: stop to do what the machine did between slots
        self.flows = []
        self.cuts = []
        self.observed = {}          # observer name -> its factory
        #: whether both engines' profilers were enabled on the same slot
        self.profiled = False
        #: what the vector engine must report: where its nodes and wire
        #: are — "nowhere" yet (it has not run), "parked" on the slab,
        #: "pending" in a restored checkpoint's plain data, or "objects" —
        #: how often those have been built, and why it fell back
        self.model = "nowhere"
        self.syncs = 0
        self.reason = ""
        #: the last rule changed no run state (see ``the_runs_are_equal``)
        self.untouched = False
        # the vector engine starts on a pipeline the oracle does not run:
        # the slab, or else the full scan
        self.subject.force_full_scan = bool(self.expected_reason())
        # traffic from slot 0, one permutation wave, and a first stretch
        self.submit(permutation_workload(self.config, cells))
        if slots:
            self.run(slots)

    def manager(self):
        if not self.failures:
            return None
        return _failures(self.config.n, self.config.h, self.config.seed)

    @property
    def reference(self):
        return self.sessions["object"].engine

    @property
    def subject(self):
        return self.sessions["vector"].engine

    def both(self, act):
        return act(self.reference), act(self.subject)

    # ------------------------------------------------------------------ #
    # what the vector engine must do: the eligibility table

    def expected_reason(self):
        """Why the slab cannot take the next stretch ("" if it can)."""
        cfg = self.config
        if cfg.congestion_control not in SLAB_MECHANISMS:
            return f"congestion_control={cfg.congestion_control!r}"
        if self.failures:
            return "failure manager attached"
        if "monitor" in self.observed:
            return "monitor attached"
        if self.subject.force_full_scan:
            return "force_full_scan=True"
        floor = VectorBackend.TOKEN_SLAB_MIN_N
        if cfg.congestion_control != "none" and cfg.n < floor:
            return f"n={cfg.n} below the token-slab size floor ({floor})"
        return ""

    def model_read(self):
        """Something read the vector engine's nodes or wire: that builds
        them unless they are what holds the state already."""
        if self.model != "objects":
            self.model = "objects"
            self.syncs += 1

    def advanced(self):
        """A stretch ran: on the slab, or on the reference pipeline after
        a read of the object model."""
        reason = self.expected_reason()
        # ``--hypothesis-show-statistics`` lists where the stretches ran
        event(f"{self.config.congestion_control} on the "
              f"{'reference: ' + reason if reason else 'slab'}")
        if not reason:
            self.model = "parked"
            return
        self.model_read()
        self.reason = self.reason or reason

    # ------------------------------------------------------------------ #
    # rules

    def submit(self, flows):
        self.flows.extend(flows)
        for session in self.sessions.values():
            session.submit(flows)

    @rule(count=st.integers(1, 12), cells=st.integers(1, 40),
          spread=st.sampled_from([0, 5, 60]), wave=st.booleans(),
          seed=st.integers(0, 2**16))
    def schedule_flows(self, count, cells, spread, wave, seed):
        """Flows arriving from the current slot on (or from the last
        arrival already queued): a permutation wave, or a few random
        pairs."""
        start = max(self.subject.t, self.flows[-1][0] if self.flows else 0)
        draw = random.Random(seed)
        if wave:
            flows = [(start, *flow[1:]) for flow in permutation_workload(
                self.config, min(cells, 12), rng=draw)]
        else:
            flows = sorted(
                (start + draw.randint(0, spread),
                 *draw.sample(range(self.config.n), 2), cells, cells * 244)
                for _ in range(count))
        self.submit(flows)

    @rule(slots=st.sampled_from([1, 2, 7, 40, 97]))
    def run(self, slots):
        self.both(lambda engine: engine.run(slots))
        self.advanced()

    @rule(slots=st.sampled_from([1, 13, 64]))
    def session_advance(self, slots):
        for session in self.sessions.values():
            session.advance(slots)
        self.advanced()

    @rule(max_extra=st.sampled_from([5, 60, 400]))
    def run_until_quiescent(self, max_extra):
        busy = self.subject.has_pending_work
        self.both(lambda engine: engine.run_until_quiescent(max_extra))
        if busy:
            self.advanced()

    @rule()
    def step(self):
        self.both(lambda engine: engine.step())
        self.model_read()

    @rule(onto_the_engine=st.booleans())
    def restore(self, onto_the_engine):
        """The vector run, saved to a file and restored: applied onto its
        engine (a parked run is dropped, built nodes are shelved), or a
        killed session reopened from the file with its observers.  Either
        way nothing is built until a backend packs the tables or a rule
        reads the objects."""
        if self.model == "nowhere":
            self.model_read()       # a snapshot of an engine that never ran
        fd, path = tempfile.mkstemp(suffix=".ckpt")
        os.close(fd)
        try:
            if onto_the_engine:
                save_checkpoint(self.subject.snapshot(), path)
                apply_checkpoint(self.subject, load_checkpoint(path))
            else:
                self.sessions["vector"].checkpoint_now(path)
                self.the_model_is_built_only_when_read()  # built nothing
                profiled = self.subject.profiler is not None
                observers = {name: make()
                             for name, make in self.observed.items()}
                self.sessions["vector"] = open_session(
                    self.config, checkpoint=path,
                    monitor=observers.get("monitor"),
                    telemetry=observers.get("telemetry"),
                    events=observers.get("events"))
                assert self.sessions["vector"].resumed_from == self.subject.t
                self.syncs, self.reason = 0, ""
                if profiled:
                    self.subject.enable_profiler()
                self.profiled = False
        finally:
            os.unlink(path)
        self.model = "pending"
        # what the cut landed on
        model = self.subject._pending_model
        for table, what in (("wire_tokens", "tokens on the wire"),
                            ("tokens", "tokens owed"),
                            ("ledger", "spent credit")):
            if len(model[table]):
                event(f"restored with {what}")
        if not model["wire"][:, tables.col("wire", "payload")].all():
            event("restored with bare headers on the wire")

    @rule()
    def toggle_full_scan(self):
        """The reference switch for the visit sets: while it is on, the
        vector engine runs the object pipeline offering every live node
        every slot, against the oracle's visit sets."""
        self.subject.force_full_scan = not self.subject.force_full_scan
        self.untouched = True

    @rule(observer=st.sampled_from(
        ["monitor", "telemetry", "events", "profiler", "digest"]))
    def attach(self, observer):
        """An observer attached mid-run on both engines: a strict
        conservation monitor (the slab declines the engine from then on),
        a telemetry recorder or an event log (the slab feeds them), a
        profiler or a digest (pure observers)."""
        if observer == "digest":
            if self.subject.digest is None:
                self.cuts.append((self.subject.t, "digest"))
            self.both(lambda engine: engine.enable_digest())
        elif observer == "profiler":
            self.profiled = True
            self.both(lambda engine: engine.enable_profiler())
        elif observer not in self.observed:
            make = OBSERVERS[observer]
            self.observed[observer] = make
            self.both(lambda engine: make().attach(engine))
        self.untouched = observer != "digest"

    @rule()
    def somebody_draws_from_the_rng(self):
        self.cuts.append((self.subject.t, "draw"))
        drawn = self.both(lambda engine: engine.rng.random())
        assert drawn[0] == drawn[1]

    @rule()
    def engine_level_reads(self):
        """Engine-level reads answer from wherever the state is, and build
        nothing."""
        summaries = self.both(lambda engine: engine.metrics.summary())
        speeds = self.both(lambda engine: engine.throughput())
        statuses = [session.status() for session in self.sessions.values()]
        subject = self.subject
        assert (statuses[1]["backend"], statuses[1]["backend_reason"],
                statuses[1]["model_syncs"]) == (
            subject.backend_effective, subject.backend_reason,
            subject.model_syncs)
        for status in statuses:
            # (a session counts the rows of the recorder it was opened
            # with; the machine attaches its recorders to the engines)
            for key in ("backend", "backend_reason", "model_syncs",
                        "resumed_from", "telemetry_rows"):
                del status[key]
        assert summaries[0] == summaries[1] and speeds[0] == speeds[1]
        assert statuses[0] == statuses[1]
        self.untouched = True

    @rule()
    def read_the_objects(self):
        """The first read of the nodes loads whatever holds the state; a
        loaded model puts exactly its busy nodes on every link's visit
        set."""
        subject = self.subject
        model = subject._plain_model()
        subject.nodes
        if self.model in ("parked", "pending"):
            busy = set(tables.busy_nodes(model))
            assert all(visit == busy for visit in subject._visit)
        self.model_read()

    # ------------------------------------------------------------------ #
    # invariants

    @staticmethod
    def compared(engine):
        state = run_state(engine)
        # the scan is the test's switch, not the run's state
        del state["force_full_scan"]
        return state

    @invariant()
    def the_runs_are_equal(self):
        # (a snapshot of an engine that has not run builds its nodes, which
        # the restore rule covers; a rule that touched no run state skips
        # the encode)
        if self.model != "nowhere" and not self.untouched:
            assert_same(self.compared(self.subject),
                        self.compared(self.reference))
        self.untouched = False
        assert self.subject.t == self.reference.t
        assert self.subject.has_pending_work \
            == self.reference.has_pending_work

    @invariant()
    def the_observers_agree(self):
        reference, subject = self.reference, self.subject
        for name in ("monitor", "telemetry", "events"):
            if name in self.observed:
                assert equal(getattr(subject, name).state_dict(),
                             getattr(reference, name).state_dict()), name
        if self.profiled:
            assert subject.profiler.steps == reference.profiler.steps

    @invariant()
    def the_model_is_built_only_when_read(self):
        subject = self.subject
        assert subject.model_syncs == self.syncs
        assert (subject._parked is not None) == (self.model == "parked")
        assert (subject._pending_model is not None) \
            == (self.model == "pending")
        assert (subject._built_nodes is not None) == (self.model == "objects")
        assert subject.backend_reason == self.reason
        assert subject.backend_effective \
            == ("object" if self.reason else "vector")

    @invariant()
    def counters_are_caches_of_the_queues(self):
        """A snapshot stores no occupancy, owed-token or control count and
        no in-flight count (a load counts them), so in every built object
        model they must be the lengths of what they count."""
        for engine in (self.reference, self.subject):
            for node in engine._built_nodes or ():
                assert node.total_enqueued == sum(map(len, node.link_queues))
                assert node.pending_tokens == sum(
                    map(len, node.token_return.values()))
                assert node.pending_ctrl == sum(
                    map(len, node.ctrl_out.values()))
            if engine._built_nodes is not None:
                assert engine._in_flight_payload == sum(
                    tx.cell is not None for tx in engine._in_flight)

    def teardown(self):
        if not hasattr(self, "sessions"):
            return
        # once read, the objects say what the columns or plain data said
        if self.model != "nowhere":
            before = self.compared(self.subject)
            self.subject.nodes
            assert_same(self.compared(self.subject), before)
        # the slicing, the hand-offs and the observers are invisible: one
        # plain batch run of the recorded flows ends where the oracle is
        batch = Engine(self.configs["object"], workload=self.flows,
                       failure_manager=self.manager())
        for t, cut in self.cuts + [(self.reference.t, None)]:
            batch.run(t - batch.t)
            if cut == "digest":
                batch.enable_digest()
            elif cut == "draw":
                batch.rng.random()
        assert_same(self.compared(batch), self.compared(self.reference))


DifferentialMachine.TestCase.settings = settings(
    # half the active profile's examples: 50 in tier-1, five times as many
    # under ``--hypothesis-profile=ci``
    max_examples=settings.default.max_examples // 2,
    stateful_step_count=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    # a failure is reported once shrunk: replaying each step of it to
    # explain which lines only failing examples ran costs minutes here
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
TestDifferential = DifferentialMachine.TestCase
