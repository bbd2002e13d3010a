"""Open-loop load: requests sent on a fixed schedule, whatever the
service's progress, so a slow service builds a queue instead of
slowing its own load."""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, List, Optional, Sequence

#: The first request is due this long after the call, so it is not
#: already late when the loop starts.
START_DELAY_S = 0.02

clock = time.perf_counter


@dataclass
class Record:
    """One request: when it was due, sent and done, and its outcome."""

    due: float
    sent: float
    done: float
    result: Any = None
    error: Optional[BaseException] = None

    @property
    def latency(self) -> float:
        """Completion minus the time the request was *due*, not sent,
        so a stalled generator's delay counts against every request
        queued behind the stall."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """How late the generator sent this request."""
        return self.sent - self.due


async def open_loop(submit: Callable[[Any], Awaitable[Any]],
                    requests: Sequence[Any],
                    rate_per_s: float) -> List[Record]:
    """Send ``requests[i]`` at ``t0 + i / rate_per_s`` from one task.

    Each request runs in its own task, so an outstanding request never
    holds back the next one.  Errors are recorded, not raised.
    """
    t0 = clock() + START_DELAY_S
    records: List[Optional[Record]] = [None] * len(requests)

    async def one(i: int, due: float, request: Any) -> None:
        sent = clock()
        try:
            result, error = await submit(request), None
        except Exception as exc:  # a failed request is a data point
            result, error = None, exc
        records[i] = Record(due, sent, clock(), result, error)

    tasks = []
    for i, request in enumerate(requests):
        due = t0 + i / rate_per_s
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.get_running_loop().create_task(
            one(i, due, request)))
    await asyncio.gather(*tasks)
    return records
