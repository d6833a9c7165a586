"""Simulation configuration.

All tunables of the paper's evaluation setup live here, with the paper's
values as defaults where they matter and down-scaled defaults where the
paper's values only set wall-clock scale.  The config object is plain data:
constructing one performs validation but has no side effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .flows import is_integer_field

__all__ = ["SimConfig", "TimingModel", "PAPER_TIMING"]


@dataclass(frozen=True)
class TimingModel:
    """Physical timing constants (paper Section 5) for unit conversions.

    The simulator is timeslot-denominated; this model converts slots to
    nanoseconds for reporting.  With eight 50 Gbps lanes running staggered
    schedules, a new timeslot begins every ``slot_ns / lanes`` on average.
    """

    #: usable slot time plus guard band, in nanoseconds
    slot_ns: float = 45.056
    #: guard band within each slot, in nanoseconds
    guard_ns: float = 4.096
    #: parallel lanes per link
    lanes: int = 8
    #: per-lane bandwidth in Gbps
    lane_gbps: float = 50.0

    @property
    def usable_ns(self) -> float:
        """Usable transmission time per slot."""
        return self.slot_ns - self.guard_ns

    @property
    def effective_slot_ns(self) -> float:
        """Mean time between timeslot starts across the staggered lanes."""
        return self.slot_ns / self.lanes

    @property
    def cell_bytes(self) -> int:
        """Cell size implied by usable time x lane rate (256B in the paper)."""
        return round(self.usable_ns * self.lane_gbps / 8)

    @property
    def aggregate_gbps(self) -> float:
        """Total per-node bandwidth."""
        return self.lanes * self.lane_gbps

    def slots_to_ns(self, slots: float) -> float:
        """Convert a timeslot count to nanoseconds."""
        return slots * self.effective_slot_ns

    def ns_to_slots(self, ns: float) -> float:
        """Convert nanoseconds to (fractional) timeslots."""
        return ns / self.effective_slot_ns


#: The exact timing used throughout the paper's evaluation (Section 5).
PAPER_TIMING = TimingModel()


@dataclass
class SimConfig:
    """Configuration for one packet-level simulation run.

    Attributes:
        n: number of nodes; must equal ``r**h`` for integer ``r >= 2``.
        h: Shale tuning parameter (1 == SRRD == RotorNet/Shoal/Sirius).
        propagation_delay: one-way propagation delay in timeslots
            (the paper's datacenter setting is 89 slots = 0.5 us).
        duration: number of timeslots to simulate.
        seed: RNG seed for reproducibility.
        congestion_control: name of the mechanism
            (none | priority | isd | rd | ndp | spray-short | hop-by-hop |
            hbh+spray).
        token_budget: hop-by-hop ``T`` (Appendix D).
        first_hop_token_budget: hop-by-hop ``T_F`` (0 == same as ``T``).
        tokens_per_header: header token slots (paper reserves 2).
        ndp_queue_limit: per-queue cap before trimming (NDP only).
        pull_batch: cells per PULL message (RD/NDP; paper uses 20).
        initial_window: cells a sender may emit before the first PULL
            (RD/NDP).
        isd_rate_factor: the ISD receiver-bandwidth parameter ``R``
            expressed as a multiple of the throughput guarantee ``1/(2h)``
            (paper uses 1.25).
        warmup: timeslots excluded from measurement at the start of a run.
        use_fifo_for_hbh: ablation switch — run hop-by-hop with plain FIFO
            queues instead of PIEO (head-of-line blocking study).
        metrics_sample_interval: timeslots between buffer-occupancy samples.
        schedule: registered connection-schedule strategy name
            (``"ebs"`` | ``"srrd"`` | any name added via
            :func:`repro.core.register_schedule`).
        routing: registered routing strategy name (``"vlb"`` |
            ``"semi_oblivious"`` | any name added via
            :func:`repro.core.register_routing`).
        backend: registered engine backend name (``"object"`` |
            ``"vector"``; see :mod:`repro.sim.backends`).  The empty
            string (the default) resolves to the ambient process default —
            normally ``"object"``, overridable via the runner's
            ``--backend`` — at construction time, so a resolved config
            always names its backend explicitly (cache keys and checkpoint
            validation therefore never mix backends silently).
    """

    n: int = 64
    h: int = 2
    propagation_delay: int = 8
    duration: int = 5_000
    seed: int = 1
    congestion_control: str = "hbh+spray"
    token_budget: int = 1
    first_hop_token_budget: int = 0
    tokens_per_header: int = 2
    ndp_queue_limit: int = 100
    pull_batch: int = 20
    initial_window: int = 40
    isd_rate_factor: float = 1.25
    warmup: int = 0
    use_fifo_for_hbh: bool = False
    metrics_sample_interval: int = 50
    timing: TimingModel = field(default_factory=TimingModel)
    schedule: str = "ebs"
    routing: str = "vlb"
    backend: str = ""

    VALID_CC = (
        "none",
        "priority",
        "isd",
        "rd",
        "ndp",
        "spray-short",
        "hop-by-hop",
        "hbh+spray",
    )

    def __post_init__(self) -> None:
        from ..core.strategies import validate_design
        from .backends import backend_class, default_backend

        # a float would fail mid-run (a slice index, a checkpoint table)
        for name in ("n", "h", "propagation_delay", "duration",
                     "token_budget", "first_hop_token_budget",
                     "tokens_per_header", "ndp_queue_limit", "pull_batch",
                     "initial_window", "warmup", "metrics_sample_interval"):
            if not is_integer_field(getattr(self, name)):
                raise ValueError(
                    f"{name} must be an integer, got {getattr(self, name)!r}")
        # raises with a registry-aware message for unknown strategy names
        # and a strategy-specific one for infeasible (n, h)
        validate_design(self.schedule, self.routing, self.n, self.h)
        if not self.backend:
            self.backend = default_backend()
        backend_class(self.backend)  # registry-aware error for unknown names
        if self.congestion_control not in self.VALID_CC:
            raise ValueError(
                f"unknown congestion control {self.congestion_control!r}; "
                f"expected one of {self.VALID_CC}"
            )
        if self.propagation_delay < 0:
            raise ValueError("propagation delay must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.token_budget < 1:
            raise ValueError("token budget must be >= 1")
        if self.tokens_per_header < 1:
            raise ValueError("need at least one token slot per header")
        if self.metrics_sample_interval < 1:
            raise ValueError(
                f"metrics_sample_interval must be >= 1, "
                f"got {self.metrics_sample_interval}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        # mechanism parameters that would crash or stall a run, not tune it
        for name in ("pull_batch", "initial_window", "ndp_queue_limit"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.first_hop_token_budget < 0:
            raise ValueError(
                f"first_hop_token_budget must be >= 0 (0: same as "
                f"token_budget), got {self.first_hop_token_budget}")
        if not self.isd_rate_factor > 0:  # nan too; inf means uncapped
            raise ValueError(
                f"isd_rate_factor must be > 0, got {self.isd_rate_factor}")

    @property
    def uses_spray_short(self) -> bool:
        """Whether spraying hops pick the shortest queue."""
        return self.congestion_control in ("spray-short", "hbh+spray")

    @property
    def uses_hop_by_hop(self) -> bool:
        """Whether the token protocol is active."""
        return self.congestion_control in ("hop-by-hop", "hbh+spray")
