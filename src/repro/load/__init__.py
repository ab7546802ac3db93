"""Open-loop workload plane: population-scale arrivals in flat memory.

The three layers (see ``docs/architecture.md`` §"Open-loop workload
plane"):

- `repro.load.arrivals` — seeded arrival-process models (Poisson,
  diurnal NHPP by thinning, Markov-modulated bursts, Pareto sessions)
  pre-generating sorted timestamp arrays with vectorised numpy.
- `repro.load.inject` — cohort-batched injection into the bucket-queue
  kernel: one chained timeout, same-timestamp cohorts drained in a
  single agenda bucket.
- `repro.load.stats` / `repro.load.mixer` — streaming per-op
  histograms, per-window counters, order-independent digests, and the
  open-loop request driver that makes `Overloaded` shedding real.
"""

from .arrivals import (
    DiurnalRate,
    MMPPProcess,
    NHPoissonProcess,
    ParetoSessions,
    PoissonProcess,
    StepRate,
    arrival_stream,
)
from .inject import CohortInjector, NaiveInjector, quantize_ticks
from .mixer import OpenLoopDriver, TrafficMix
from .stats import CommutativeDigest, OpStats, StreamStats

__all__ = [
    "arrival_stream",
    "PoissonProcess",
    "DiurnalRate",
    "StepRate",
    "NHPoissonProcess",
    "MMPPProcess",
    "ParetoSessions",
    "CohortInjector",
    "NaiveInjector",
    "quantize_ticks",
    "TrafficMix",
    "OpenLoopDriver",
    "OpStats",
    "StreamStats",
    "CommutativeDigest",
]
