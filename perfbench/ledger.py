"""Per-layer ledger of the traced run.

Two instruments, both applied from the benchmark's own files and only
to the traced rep:

- :class:`CallCounter` wraps a handful of public functions of the
  program in place (kernel process/timer/condition constructors,
  ``Network.call``, ``GlareRDMService.rpc``, the wire-form parsers,
  ``CPU.execute``) and counts calls into them exactly;
- :func:`own_time_by_layer` buckets a cProfile run's own-time by
  top-level ``repro`` package.  Time spent in builtins, the standard
  library, numpy or networkx is charged to the program function that
  called it (through any chain of such calls); such time with no
  program caller at all is the harness's.

:func:`snapshot` reads the program's own counters (messages, bytes,
dispatch tallies, registry cache hits, CPU busy time, transfers, jobs,
spans) so the run phase can be reported as a difference.
"""

from __future__ import annotations

import os
import pstats
import sys
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Tuple

from repro.glare.model import ActivityDeployment, ActivityType
from repro.glare.rdm import GlareRDMService
from repro.glare.registry import ActivityDeploymentRegistry, ActivityTypeRegistry
from repro.gram.service import GramService
from repro.gridftp.service import GridFtpService
from repro.net.network import Network
from repro.simkernel import Simulator
from repro.simkernel.cpu import CPU
from repro.wsrf import xmldoc

#: top-level ``repro`` packages with their own own-time bucket
LAYERS = ("simkernel", "net", "glare", "wsrf", "load", "obs", "site",
          "gridftp", "gram", "mds", "orchestrate")

#: every own-time bucket: the layers, the rest of ``repro`` and the
#: harness (this benchmark's files, plus foreign code no program
#: function called, such as the profiler's own enter and exit)
BUCKETS = LAYERS + ("other", "harness")


class CallCounter:
    """Exact call counts of named public functions, patched in place.

    Use as a context manager; leaving it restores every original.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.cpu_demand = 0.0
        self._undo: List[Tuple[Any, str, Any]] = []

    def _wrap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr]  # the raw attribute, classmethods included
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def _counting(self, key: str) -> Callable[[Any], Any]:
        counts = self.counts

        def make(func):
            def counted(*args, **kwargs):
                counts[key] += 1
                return func(*args, **kwargs)
            return counted
        return make

    def _counting_classmethod(self, key: str) -> Callable[[Any], Any]:
        counting = self._counting(key)
        return lambda original: classmethod(counting(original.__func__))

    def __enter__(self) -> "CallCounter":
        counts = self.counts
        self._wrap(Simulator, "process", self._counting("processes"))
        self._wrap(Simulator, "timeout", self._counting("timeouts"))
        self._wrap(Simulator, "any_of", self._counting("conditions"))
        self._wrap(Simulator, "all_of", self._counting("conditions"))
        self._wrap(GlareRDMService, "rpc", self._counting("fanout_rpcs"))
        self._wrap(ActivityType, "from_xml", self._counting_classmethod("wire_parses"))
        self._wrap(ActivityDeployment, "from_xml",
                   self._counting_classmethod("wire_parses"))

        def make_call(func):
            def call(*args, **kwargs):
                counts["rpcs"] += 1
                retry = kwargs.get("retry", args[8] if len(args) > 8 else None)
                if retry is not None and retry.engaged:
                    counts["deadline_rpcs"] += 1
                return func(*args, **kwargs)
            return call
        self._wrap(Network, "call", make_call)

        def make_execute(func):
            def execute(cpu, demand):
                self.cpu_demand += demand
                return func(cpu, demand)
            return execute
        self._wrap(CPU, "execute", make_execute)

        # parse_xml is imported by name into several modules: patch each
        parse_xml = xmldoc.parse_xml
        counted_parse = self._counting("xml_parses")(parse_xml)
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "parse_xml", None) is parse_xml:
                setattr(module, "parse_xml", counted_parse)
                self._undo.append((module, "parse_xml", parse_xml))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def snapshot(vo) -> Dict[str, Any]:
    """The program's own counters, summed over every node and service."""
    nodes = list(vo.network.nodes.values())
    services = [s for node in nodes for s in node.services.values()]

    def total(kind, attr):
        return sum(getattr(s, attr) for s in services if isinstance(s, kind))

    registries = (ActivityTypeRegistry, ActivityDeploymentRegistry)
    managers = [s.request_manager for s in services if isinstance(s, GlareRDMService)]
    tracer = vo.obs.tracer
    return {
        "now": vo.sim.now,
        "messages": vo.network.total_messages,
        "bytes": sum(node.bytes_out for node in nodes),
        "handled": sum(s.requests_handled for s in services),
        "shed": sum(s.requests_shed for s in services),
        "lookups": total(registries, "lookups"),
        "cache_hits": total(registries, "cache_hits"),
        "resolutions": sum(m.requests for m in managers),
        "resolved_locally": sum(m.resolved_locally for m in managers),
        "busy": {node.name: (node.cpu.busy_time, node.cpu.cores) for node in nodes},
        "transfer_bytes": total(GridFtpService, "bytes_moved"),
        "transfer_retries": total(GridFtpService, "transfer_retries"),
        "gram_jobs": total(GramService, "jobs_submitted"),
        "spans": len(tracer.spans) + getattr(tracer, "dropped_spans", 0),
    }


# ---------------------------------------------------------------------------
# cProfile own-time by layer
# ---------------------------------------------------------------------------


def _bucketer(repro_dir: str, harness_dir: str) -> Callable[[tuple], Any]:
    repro_dir = os.path.join(os.path.realpath(repro_dir), "")
    harness_dir = os.path.join(os.path.realpath(harness_dir), "")
    cache: Dict[str, Any] = {}

    def bucket(key: tuple):
        filename = key[0]
        if filename not in cache:
            path = os.path.realpath(filename) if filename.endswith(".py") else ""
            if path.startswith(repro_dir):
                top = path[len(repro_dir):].split(os.sep, 1)[0]
                cache[filename] = top if top in LAYERS else "other"
            elif path.startswith(harness_dir):
                cache[filename] = "harness"
            else:
                cache[filename] = None  # builtin, stdlib or third-party
        return cache[filename]

    return bucket


def own_time_by_layer(profile, repro_dir: str, harness_dir: str) -> Dict[str, float]:
    """Own-time (s) per bucket.

    A function outside ``repro`` and the harness has its own-time split
    over its callers in proportion to the own-time each caller's calls
    incurred; a caller that is itself outside passes its share on to
    its own callers in proportion to their cumulative time.  A chain
    that reaches the top of the profile without a program or harness
    frame is charged to ``harness``.
    """
    stats = pstats.Stats(profile).stats
    bucket = _bucketer(repro_dir, harness_dir)
    memo: Dict[tuple, Dict[str, float]] = {}

    def split(weights: Dict[tuple, float], seen: frozenset) -> Tuple[Dict[str, float], bool]:
        """Normalised bucket shares of ``weights``; also whether a cycle was cut.

        An edge back into the chain being resolved is a recursion and is
        dropped; a caller all of whose paths are such edges drops out and
        the remaining callers are renormalised.
        """
        out: Dict[str, float] = defaultdict(float)
        cut = False
        for caller, weight in weights.items():
            if weight <= 0.0:
                continue
            owner = bucket(caller)
            if owner is not None:
                out[owner] += weight
            elif caller in seen:
                cut = True
            elif caller in stats:
                shares, caller_cut = caller_shares(caller, seen)
                cut = cut or caller_cut
                for name, part in shares.items():
                    out[name] += part * weight
        total = sum(out.values())
        return {name: part / total for name, part in out.items()}, cut

    def caller_shares(key: tuple, seen: frozenset) -> Tuple[Dict[str, float], bool]:
        """How ``key``'s cumulative time divides over program buckets."""
        if key in memo:
            return memo[key], False
        if not stats[key][4]:  # top of the profile: nothing in the program called it
            return {"harness": 1.0}, False
        shares, cut = split({c: v[3] for c, v in stats[key][4].items()}, seen | {key})
        if not cut:  # a result that depended on the chain is not reusable
            memo[key] = shares
        return shares, cut

    buckets: Dict[str, float] = {name: 0.0 for name in BUCKETS}
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        owner = bucket(key)
        if owner is not None:
            buckets[owner] += tt
            continue
        weights = {c: v[2] for c, v in callers.items()}
        if sum(weights.values()) <= 0.0:
            weights = {c: v[3] for c, v in callers.items()}
        shares, _ = split(weights, frozenset({key}))
        for name, part in (shares or {"harness": 1.0}).items():
            buckets[name] += tt * part
    return buckets
