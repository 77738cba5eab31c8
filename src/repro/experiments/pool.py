"""The one work-unit executor behind the sweep and fleet engines.

:func:`run_units` owns how units run — a window of ``jobs``, fresh pools
after a worker crash, charged and uncharged attempts, bounded retries
and an optional in-order commit with a bounded reorder buffer — so both
engines share one set of fault semantics.  ``docs/architecture.md``
("The work-unit executor") states them.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable, Dict, Optional, Sequence, TypeVar

U = TypeVar("U")

#: Ordered mode dispatches at most this many windows of ``jobs`` units
#: past the commit point (counting the unit at it).
REORDER_WINDOWS = 2


class _Ran:
    """A unit the inline pool ran, read like a finished ``Future``."""

    def __init__(self, work: Callable[[Any], Any], unit: Any) -> None:
        self.error: Optional[Exception] = None
        try:
            self.value = work(unit)
        except Exception as exc:
            self.error = exc

    def result(self) -> Any:
        if self.error is not None:
            raise self.error
        return self.value


class _InlinePool:
    """The ``jobs=1`` pool: runs each unit in-process at submission."""

    submit = _Ran  # pool.submit(work, unit) runs it and returns the _Ran

    def shutdown(self, wait: bool = True) -> None:
        pass


def _open_pool(jobs: int, workers: int) -> Any:
    if jobs == 1:
        return _InlinePool()
    # Imported here so that jobs=1 runs never load multiprocessing.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_all_start_methods, get_context

    # Fork keeps module-level runners defined in caller scripts picklable
    # by reference and inherits sys.path; fall back where absent.
    method = "fork" if "fork" in get_all_start_methods() else None
    return ProcessPoolExecutor(max_workers=workers,
                               mp_context=get_context(method))


def run_units(units: Sequence[U], work: Callable[[U], Any], jobs: int,
              retries: int, done: Callable[[U, Any], Optional[Any]],
              give_up: Callable[[U, int, Any], None],
              started: Optional[Callable[[U, int], None]] = None,
              ordered: bool = False) -> None:
    """Run ``work(unit)`` for every unit, retrying failed attempts.

    ``work`` must be a picklable, module-level callable when
    ``jobs > 1``.  The callbacks run in this process:
    ``started(unit, attempt)`` before every dispatch (again, with the
    same attempt number, for an uncharged resubmission);
    ``done(unit, result)`` per returned result, answering None when the
    unit is settled or a failure value that charges the attempt; and
    ``give_up(unit, attempts, failure)`` when a failed unit has no
    retries left, with what ``done`` answered or a one-line description
    of the exception.  ``give_up`` may raise to abandon the rest.  With
    ``ordered=True``, ``done`` sees results strictly in unit order, and
    units are dispatched only within ``REORDER_WINDOWS × jobs`` of the
    commit point, which bounds the reorder buffer.
    """
    if not units:
        return
    attempts = [0] * len(units)
    queue = list(range(len(units)))  # heap of positions awaiting dispatch
    flying: Dict[Any, int] = {}  # future -> position
    outcomes: Dict[int, tuple] = {}  # (result, failure) not yet settled
    horizon = REORDER_WINDOWS * jobs if ordered else len(units)
    commit_point = 0
    workers = min(jobs, len(units))
    if jobs == 1:
        # Inline futures are done when submitted and the inline pool never
        # breaks: a jobs=1 run needs nothing from concurrent.futures.
        broken_pool, wait_first = (), lambda futures: (futures, ())
    else:
        from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
        broken_pool = BrokenExecutor
        wait_first = partial(wait, return_when=FIRST_COMPLETED)

    def settle(pos: int, result: Any, failure: Any) -> bool:
        """Fold one outcome; False means the unit was requeued."""
        if failure is None:
            failure = done(units[pos], result)
            if failure is None:
                return True
        if attempts[pos] <= retries:
            heapq.heappush(queue, pos)
            return False
        give_up(units[pos], attempts[pos], failure)
        return True

    pool = _open_pool(jobs, workers)
    try:
        while queue or flying:
            while (queue and len(flying) < jobs
                   and queue[0] < commit_point + horizon):
                pos = queue[0]
                attempts[pos] += 1
                if started is not None:
                    started(units[pos], attempts[pos])
                try:
                    future = pool.submit(work, units[pos])
                except broken_pool:
                    # The pool died since the last round; this unit never
                    # reached a worker, so the attempt is uncharged.
                    attempts[pos] -= 1
                    pool.shutdown(wait=False)
                    pool = _open_pool(jobs, workers)
                    continue
                heapq.heappop(queue)
                flying[future] = pos
            if flying:
                finished, _ = wait_first(list(flying))
                broken = False
                for future in finished:
                    pos = flying.pop(future)
                    try:
                        outcomes[pos] = (future.result(), None)
                    except broken_pool as exc:
                        broken = True
                        outcomes[pos] = (None, f"worker process died: {exc}")
                    except Exception as exc:
                        outcomes[pos] = (None, f"{type(exc).__name__}: {exc}")
                if broken:
                    for pos in flying.values():
                        attempts[pos] -= 1  # never completed: uncharged
                        heapq.heappush(queue, pos)
                    flying.clear()
                    pool.shutdown(wait=False)
                    pool = _open_pool(jobs, workers)
            if not ordered:
                for pos in list(outcomes):
                    settle(pos, *outcomes.pop(pos))
                continue
            while commit_point in outcomes:
                if not settle(commit_point, *outcomes.pop(commit_point)):
                    break
                commit_point += 1
    finally:
        pool.shutdown(wait=False)
