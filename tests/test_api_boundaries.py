"""The stabilized public API: ``__all__`` snapshots + boundary lint.

Two guards in one file:

* the cross-package private-access checker
  (``scripts/check_private_access.py``) must pass with the committed
  allowlist — new ``obj._private`` reaches across ``repro.*`` package
  boundaries are an API-review decision, not a drive-by;
* the ``__all__`` of every public package is pinned verbatim.  Removing or
  renaming an export is a breaking change and must update this snapshot
  deliberately (adding is also deliberate — the snapshot is exact).
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


CHECKER = REPO_ROOT / "scripts" / "check_private_access.py"


def test_no_cross_package_private_access():
    proc = subprocess.run(
        [sys.executable, str(CHECKER)], capture_output=True, text=True,
    )
    assert proc.returncode == 0, f"boundary lint failed:\n{proc.stdout}"


def _check_fixture(tmp_path, files, allowlist):
    """Run the checker over a throwaway ``repro`` tree of ``files``."""
    spec = importlib.util.spec_from_file_location("check_private", CHECKER)
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return checker.check(root, allowlist)


def test_lint_flags_unreferenced_private_functions(tmp_path):
    report = _check_fixture(tmp_path, {
        "alpha/one.py": (
            "def _used():\n    pass\n\n"
            "def _dead():\n    pass\n\n"
            "class Thing:\n"
            "    def _called(self):\n        pass\n"
            "    def _orphan(self):\n        pass\n"
            "    def __repr__(self):\n        return ''\n"
        ),
        "alpha/two.py": (
            "from .one import Thing, _used\n\n"
            "def public():\n    return Thing()._called()\n"
        ),
    }, allowlist={})
    assert report.dead == [("repro/alpha/one.py", 4, "_dead"),
                           ("repro/alpha/one.py", 10, "_orphan")]
    assert not report.violations and not report.stale


def test_lint_flags_unused_allowlist_entries(tmp_path):
    report = _check_fixture(tmp_path, {
        "alpha/one.py": (
            "class Thing:\n"
            "    def __init__(self):\n        self._secret = 1\n"
        ),
        "beta/two.py": "def peek(thing):\n    return thing._secret\n",
    }, allowlist={
        ("repro/beta/two.py", "_secret"): "fixture: excused access",
        ("repro/beta/two.py", "_gone"): "fixture: the access was deleted",
    })
    assert report.stale == [("repro/beta/two.py", "_gone")]
    assert [v.name for v, _ in report.allowed] == ["_secret"]
    assert not report.violations and not report.dead


def test_lint_keeps_the_slab_steppers_off_the_object_layout(tmp_path):
    """The steppers exchange plain data with the object model; naming a
    node's, queue's or ledger's private layout from them — same package,
    so the cross-package rule would not see it — is a violation."""
    walker = (
        "class Run:\n"
        "    def __init__(self):\n        self._items = []\n"
        "    def pack(self, node):\n"
        "        return node._spent_map, self._items\n"
    )
    report = _check_fixture(tmp_path, {
        "sim/node.py": (
            "class Node:\n"
            "    def __init__(self):\n        self._spent_map = {}\n"
        ),
        "sim/backends/token_slab.py": walker,
        "sim/backends/object_backend.py": walker,
    }, allowlist={})
    assert [(v.file, v.line, v.name) for v in report.violations] == [
        ("repro/sim/backends/token_slab.py", 5, "_spent_map"),
    ]


def test_engine_effects_have_one_writer():
    """A flow starting, a flow finishing, a cell dropped in a node and a
    sample window closing are written once, under every pipeline: only
    ``Engine`` emits the flow events and folds the drop into the digest,
    and only ``MetricsCollector`` touches the sample tallies — a pipeline
    that grows its own copy again fails here."""
    src = REPO_ROOT / "src" / "repro"
    emits, droppers, samplers = [], set(), set()
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            called = getattr(getattr(node, "func", None), "attr", None)
            if isinstance(node, ast.Call) and called == "emit":
                emits += [
                    (arg.value, rel) for arg in node.args
                    if isinstance(arg, ast.Constant)
                    and arg.value in ("flow_start", "flow_end")
                ]
            elif isinstance(node, ast.Call) and called == "on_drop":
                # ``engine.digest.on_drop(...)`` or a local ``digest``
                receiver = node.func.value
                if "digest" in (getattr(receiver, "attr", None),
                                getattr(receiver, "id", None)):
                    droppers.add(rel)
            elif (isinstance(node, ast.Attribute)
                    and node.attr in ("_buffer_counts", "_queue_counts")):
                samplers.add(rel)
    assert sorted(emits) == [("flow_end", "sim/engine.py"),
                             ("flow_start", "sim/engine.py")]
    assert droppers == {"sim/engine.py"}
    assert samplers == {"sim/metrics.py"}


EXPECTED_ALL = {
    "repro": [
        "Cell", "CoordinateSystem", "Engine", "RunResult", "Session",
        "open_session", "simulate",
        "CompletedFlows", "HeaderCodec", "InterleavedSchedule",
        "MetricsCollector", "MultiClassSimulation", "PieoQueue", "Router",
        "Schedule", "SimConfig", "TimingModel", "Token", "TokenLedger",
        "srrd_schedule", "two_class_interleave", "__version__",
    ],
    "repro.api": ["RunResult", "Session", "open_session", "simulate"],
    "repro.service": [
        "PROTOCOL_VERSION", "ServiceClient", "ServiceError", "ServiceServer",
        "Session", "SyncServiceClient", "VERBS", "wait_for_ready",
    ],
    "repro.sim": [
        "Checkpoint", "CheckpointError", "CheckpointPolicy",
        "CheckpointWriter", "ConservationError", "ControlMessage", "Engine",
        "EngineBackend", "backend_names", "default_backend",
        "set_default_backend",
        "default_policy", "load_checkpoint",
        "load_checkpoint_or_none", "save_checkpoint", "set_default_policy",
        "RunMonitor", "Flow",
        "CompletedFlows", "FlowTable", "MetricsCollector",
        "MultiClassSimulation", "Node", "PAPER_TIMING", "PieoQueue",
        "CellTrace", "CellTracer", "TraceError", "validate_trace",
        "ScheduledFlow", "SimConfig", "TimingModel", "Transmission",
        "percentile", "ReorderBuffer", "ReorderTracker", "default_workers",
        "sweep",
    ],
    "repro.core": [
        "ActiveBucketTracker", "BucketId", "CELL_SIZE_BYTES", "Cell",
        "CoordinateSystem", "DemandAwareSchedule", "HEADER_SIZE_BYTES",
        "HeaderCodec", "InterleavedSchedule", "LaneSchedule",
        "PAYLOAD_SIZE_BYTES", "Router", "RoutingStrategy", "Schedule",
        "ScheduleStrategy", "SemiObliviousRouter", "SlotInfo",
        "SrrdSchedule", "SubScheduleSpec", "TOKEN_INVALIDATE",
        "TOKEN_REGULAR", "TOKEN_REVALIDATE", "Token", "TokenLedger",
        "ValidationError", "audit", "bvn_decomposition", "direct_semi_path",
        "integer_root", "is_perfect_power", "make_router", "make_schedule",
        "optimal_latency_share", "register_routing", "register_schedule",
        "routing_names", "schedule_names", "service_fraction",
        "shared_schedule", "spray_semi_path_lengths", "srrd_schedule",
        "validate_bucket_order", "validate_design",
        "validate_routing_reachability", "validate_schedule",
        "two_class_interleave",
    ],
    "repro.workloads": [
        "FLOW_SIZE_BUCKETS", "EmpiricalCdf", "FixedSizeDistribution",
        "FlowSizeDistribution", "HeavyTailedDistribution", "LoadCurve",
        "OpenLoopSource", "ShortFlowDistribution", "TenantProfile",
        "UniformSizeDistribution",
        "adversarial_permutation_workload", "all_to_all_workload",
        "bucket_label", "bucket_of", "bytes_to_cells", "constant_curve",
        "diurnal_curve",
        "hot_destination_workload", "incast_storm_workload",
        "incast_workload", "overlaid_permutations_workload",
        "permutation_workload", "poisson_workload", "single_flow_workload",
        "read_workload", "split_by_class", "streaming_workload",
        "workload_from_string", "workload_stats",
        "workload_to_string", "write_workload",
    ],
    "repro.obs": [
        "CallbackSink", "EventLog", "FileSink", "RingSink", "StepProfiler",
        "TelemetryCapture", "TimeSeriesRecorder", "canonical_json",
        "current_capture", "encode_event", "run_manifest", "to_jsonable",
    ],
    "repro.scenarios": [
        "FAILURE_PATTERNS", "FailurePattern", "SCORE_WEIGHTS",
        "WORKLOAD_SHAPES", "WorkloadShape", "build_scorecard",
        "format_scorecard", "register_failure_pattern",
        "register_workload_shape", "run_matrix", "scenario_cell_seed",
        "score_cell",
    ],
    "repro.failures": [
        "CorrelatedFaultInjector", "DirectPathTree", "FailureEvent",
        "FailureManager", "FaultInjector", "LinkFailureEvent",
        "direct_next_hop", "invalidated_destinations", "rack_outage_events",
    ],
}


@pytest.mark.parametrize("package", sorted(EXPECTED_ALL))
def test_public_api_snapshot(package):
    module = importlib.import_module(package)
    assert sorted(module.__all__) == sorted(EXPECTED_ALL[package]), (
        f"{package}.__all__ changed — update the snapshot deliberately"
    )


@pytest.mark.parametrize("package", sorted(EXPECTED_ALL))
def test_all_names_importable(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} not importable"


def test_every_run_is_keyword_only_and_grids_take_workers_and_seed():
    """One signature rule for every run(): keyword-only, and an experiment
    with a grid (it calls ``sweep`` or ``run_matrix``) declares ``workers``
    and ``seed``, the two keywords the runner injects where declared."""
    from repro.experiments import ALL_EXPERIMENTS

    for name, module in sorted(ALL_EXPERIMENTS.items()):
        sig = inspect.signature(module.run)
        for param in sig.parameters.values():
            assert param.kind is inspect.Parameter.KEYWORD_ONLY, (
                name, param.name)
        # fig11's run() is fig10's with three defaults bound
        source = inspect.getsource(getattr(module.run, "func", module.run))
        if "sweep(" in source or "run_matrix(" in source:
            for param in ("workers", "seed"):
                assert param in sig.parameters, (name, param)


def test_positional_calls_are_type_errors():
    from repro.experiments import fig01_tradeoff

    with pytest.raises(TypeError):
        fig01_tradeoff.run(1024)
