"""How fast this host runs Python right now, from a fixed reference loop.

The benchmark runs on a few cores of a shared host.  Other tenants slow
it by up to ~40% for minutes at a time, and that slowdown does not show
in process CPU time, so wall and CPU rates drift alike.  The reference
loop below does a fixed amount of interpreter work of the kinds the
simulator does (allocating small objects, scattered reads of a heap too
big for the core's own caches, generator processes resumed from a heap
agenda), with no code from the program under test.  Timed right before and right after a rep, it tells how
slow the host was during that rep.

:func:`host_factor` is the loop's wall time divided by
:data:`REFERENCE_S`, its time on a quiet 2.1 GHz Xeon core.  Dividing a
wall time by the factor gives *reference seconds*: the time the same
work would have taken on that quiet core.  A change to the program
moves reference seconds exactly as it moves wall seconds; host load
moves them much less.
"""

from __future__ import annotations

import gc
import heapq
import time

#: wall time (s) of :func:`reference_loop` on a quiet 2.1 GHz Xeon core
REFERENCE_S = 0.045

#: nodes of the object graph the reference loop builds and walks
NODES = 30_000

#: agenda steps of one reference loop
STEPS = 20_000

#: processes the reference loop interleaves
PROCESSES = 64


def _process(pid: int, nodes: list):
    x = pid
    while True:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        node = nodes[x % len(nodes)]["peers"][x & 1]
        node["hits"] = node.get("hits", 0) + 1
        yield (x % 1000) / 1000.0


def reference_loop() -> float:
    """Wall time (s) of a fixed allocate-and-simulate loop, collector off.

    It builds a graph of small dicts, too big for the core's own caches,
    then runs a heap-agenda loop whose generator processes each touch a
    pseudo-random node: allocation, scattered memory reads and
    interpreter dispatch, in about the mix the simulator has.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        nodes = [{"id": i, "name": f"n{i}", "peers": ()} for i in range(NODES)]
        for i, node in enumerate(nodes):
            node["peers"] = (nodes[(i * 7919) % NODES], nodes[(i * 104729) % NODES])
        agenda = []
        for pid in range(PROCESSES):
            proc = _process(pid, nodes)
            heapq.heappush(agenda, (next(proc), pid, proc))
        seq = PROCESSES
        for _ in range(STEPS):
            now, _, proc = heapq.heappop(agenda)
            seq += 1
            heapq.heappush(agenda, (now + next(proc), seq, proc))
        del nodes, agenda
        return time.perf_counter() - start
    finally:
        gc.enable()


def host_factor() -> float:
    """How many times slower than the quiet reference core the host is now."""
    return reference_loop() / REFERENCE_S
