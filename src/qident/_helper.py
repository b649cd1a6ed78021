"""One helper process, forked to share a queue of work items with its parent.

``Helper(items, work)`` writes tickets for ``items`` to a pipe before anyone
reads it.  Where ``second_cpu()`` allows, entering it forks a helper, which
takes tickets and runs ``work`` on their items until the queue is empty.
The parent takes tickets from the same queue by iterating the ``Helper``.
A pipe read of 2 bytes is atomic, so each item goes to exactly one process.
``results()`` waits for the helper and returns what ``work`` gave for its
items, or nothing if the helper exited with a code other than 0, as it does
when ``work`` raises; the parent then runs those items itself.  Without a
second CPU, or without ``os.fork``, the parent empties the queue alone.
Leaving the ``with`` block reaps the helper, after ``SIGKILL`` if it is
still running.
"""

import marshal
import os
import threading
from collections.abc import Callable, Iterator

# Tickets, 2 bytes each.  A pipe holds at least one page, 4096 bytes, so the
# queue is written whole before anyone reads it; more items than tickets
# share them, several to a ticket.
_TICKETS = 2048


def second_cpu() -> bool:
    """Whether a helper forked from this process can run beside it: the
    platform forks, the process may run on two CPUs or more, and it runs no
    other thread, whose locks a fork would leave held."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


class Helper:
    """A queue of ``items`` and the helper that shares it, for one ``with``
    block; ``work(item)`` returns a tuple that ``marshal`` can write."""

    def __init__(self, items: list[int], work: Callable[[int], tuple]) -> None:
        size = -(-len(items) // _TICKETS) or 1
        self._batches = [items[k:k + size] for k in range(0, len(items), size)]
        self._work = work
        self._pid = 0

    def __enter__(self) -> "Helper":
        self._queue, tickets = os.pipe()
        self._fds = [self._queue]
        os.write(tickets, b"".join(k.to_bytes(2, "little") for k in range(len(self._batches))))
        os.close(tickets)
        if self._batches and second_cpu():
            self._results, sink = os.pipe()
            self._fds += (self._results, sink)
            try:
                self._pid = os.fork()
            except OSError:  # no process to spare: the parent empties the queue alone
                self._pid = 0
            else:
                if not self._pid:
                    self._serve(sink)
            os.close(sink)
            self._fds.remove(sink)
        return self

    def __iter__(self) -> Iterator[int]:
        """The items of each ticket this process takes, until the queue is
        empty."""
        while ticket := os.read(self._queue, 2):
            yield from self._batches[int.from_bytes(ticket, "little")]

    def _serve(self, sink: int) -> None:
        """The helper's whole life: run ``work`` on each item it takes, write
        the list of what it gave to ``sink`` as one ``marshal`` record, and
        leave by ``os._exit``, with code 0 only once the record is written
        whole.  So it never returns into its caller, flushes no stdio buffer
        it inherited and runs no ``atexit`` hook."""
        code = 1
        try:
            record = memoryview(marshal.dumps([self._work(item) for item in self]))
            while record:
                record = record[os.write(sink, record):]
            code = 0
        finally:
            os._exit(code)

    def results(self) -> list:
        """What ``work`` gave for the helper's items, once the helper has
        exited: nothing without a helper, or if it exited with a code other
        than 0."""
        if not self._pid:
            return []
        chunks = []
        while chunk := os.read(self._results, 1 << 16):
            chunks.append(chunk)
        status = os.waitpid(self._pid, 0)[1]
        self._pid = 0
        return marshal.loads(b"".join(chunks)) if status == 0 else []

    def __exit__(self, *exc_info) -> None:
        if self._pid:  # left early, so the helper may still be running
            from signal import SIGKILL

            os.kill(self._pid, SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = 0
        for fd in self._fds:
            os.close(fd)
