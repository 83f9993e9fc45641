"""Runtime tuning shims for the pinned Ray version.

``tighten_scheduler_cadence`` — Ray Data's streaming-executor scheduling
loop collects finished tasks with ``ray.wait(..., num_returns=len(active),
timeout=0.1)`` (ray 2.49.2, ``streaming_executor_state.py:499-503``): the
wait returns only when EVERY active task is done or the 0.1 s timeout
fires, so task completions are processed — and successor tasks dispatched —
in 10 Hz bursts. For coarse tasks that cadence is invisible, but a frontier
block at ~0.2-0.6 s/task loses an average ~50 ms of core idle per task slot
per wave boundary, which measured 25-45 % of 32-wide throughput on the
frontier pipeline (6.2 → 11.9 M urls/s at 128 blocks with a 10 ms cadence).

The knob is a literal inside a private Ray module — there is no public
DataContext setting for it — so we interpose on that module's ``ray``
binding and rewrite only the exact call shape the loop uses
(``timeout == 0.1`` with ``fetch_local=False``). Anything else delegates to
real ray untouched. Semantics are unchanged: the loop simply polls
completions at the tighter cadence, spending a little more driver CPU;
correctness is pinned by the frontier distributed-vs-single-process parity
test running under the shim.

Applied explicitly by driver-side entry points (``perfbench/run.py``,
run_frontier_bench, tools/query_stats.py) — never by workers (the executor
only runs on the driver, so the shim is a no-op there anyway). Idempotent;
returns False (and changes nothing) if the pinned internals ever move.
"""

from __future__ import annotations

DEFAULT_CADENCE_S = 0.01

_APPLIED: dict[str, float] = {}


def tighten_scheduler_cadence(timeout_s: float = DEFAULT_CADENCE_S) -> bool:
    """Lower the streaming executor's completion-poll timeout. Returns True
    when the shim is (already) in place, False when Ray's internals don't
    match the pinned shape (in which case nothing is changed)."""
    try:
        import ray
        import ray.data._internal.execution.streaming_executor_state as ses
    except Exception:
        return False
    if _APPLIED.get("cadence") == timeout_s:
        return True
    base = getattr(ses.ray, "_spider_ray_real", ses.ray)
    if not hasattr(base, "wait"):  # internals moved; leave untouched
        return False

    class _RayShim:
        _spider_ray_real = base

        def __getattr__(self, name):
            return getattr(base, name)

        @staticmethod
        def wait(refs, **kwargs):
            if kwargs.get("timeout") == 0.1 and kwargs.get("fetch_local") is False:
                kwargs["timeout"] = timeout_s
            return base.wait(refs, **kwargs)

    ses.ray = _RayShim()
    _APPLIED["cadence"] = timeout_s
    return True
