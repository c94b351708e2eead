"""A thread-free task channel between one process and its worker processes.

:class:`TaskChannel` is the transport under
:class:`~repro.parallel.multiproc.EnginePool`.  Its workers start, and
run their initializer, before the constructor returns.  Each then
loops: read ``(task_id, fn, args)`` from one shared task pipe, so the
next free worker takes the next task, and write ``(task_id, ok,
value)`` to one result pipe.

No thread in the submitting process relays tasks or results.
:meth:`TaskChannel.submit` pickles and writes from the caller's thread,
and a result is read by whichever thread waits for one: a
:meth:`TaskChannel.wait` call, a future's own ``result()``, or the event
loop given to :meth:`TaskChannel.attach`.  A task handed over is one
pipe write and one pipe read.  Relaying it instead through helper
threads (``ProcessPoolExecutor`` passes each task to a manager thread
and a queue-feeder thread, and each result back through the manager)
adds thread handoffs that, on a host with as many cores as workers,
cost more than searching a fine-grained task.

The channel watches each worker's exit, so a dead worker fails every
outstanding task at once instead of leaving its caller to time out.
"""

from __future__ import annotations

import itertools
import os
import pickle
import select
import threading
import time
from collections import deque
from concurrent.futures import Future
from multiprocessing.connection import Connection
from typing import Any, Callable, Iterable, Optional

from ..errors import SimulationError

__all__ = ["IN_FLIGHT_PER_WORKER", "TaskChannel"]


#: Tasks kept in flight per worker: one running and one queued, so a
#: worker never waits a round trip for its next task while the sender
#: (the multiprocess coordinator's heap) still chooses each task as late
#: as possible.
IN_FLIGHT_PER_WORKER = 2

#: Task id of the message a worker sends once its initializer has run.
_READY = -1

#: Seconds :meth:`TaskChannel.close` lets workers finish their current
#: task and exit before it terminates them.
_STOP_TIMEOUT = 10.0


def _send_reply(results: Connection, lock: Any, task_id: int, ok: bool, value: Any) -> None:
    """Write one ``(task_id, ok, value)`` message to the shared result pipe."""
    try:
        data = pickle.dumps((task_id, ok, value), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # noqa: BLE001 - the caller must hear of it
        data = pickle.dumps(
            (task_id, False, SimulationError(f"task result cannot be pickled: {exc!r}")),
            pickle.HIGHEST_PROTOCOL,
        )
    with lock:
        results.send_bytes(data)


def _worker_main(
    tasks: Connection,
    task_lock: Any,
    results: Connection,
    result_lock: Any,
    initializer: Callable[..., None],
    initargs: tuple[Any, ...],
) -> None:
    """A worker process: initialise, report ready, then run tasks until told to stop.

    Every worker reads the one task pipe under ``task_lock``, so the
    next free worker takes the next task; ``None`` tells it to exit.
    """
    try:
        initializer(*initargs)
    except Exception as exc:  # noqa: BLE001 - reported as a failed start
        _send_reply(results, result_lock, _READY, False, exc)
        return
    _send_reply(results, result_lock, _READY, True, os.getpid())
    while True:
        with task_lock:
            data = tasks.recv_bytes()
        message = pickle.loads(data)
        if message is None:
            return
        task_id, fn, args = message
        try:
            value, ok = fn(*args), True
        except Exception as exc:  # noqa: BLE001 - shipped to the future
            value, ok = exc, False
        _send_reply(results, result_lock, task_id, ok, value)


class _ChannelFuture(Future):  # type: ignore[type-arg]
    """A task's future: blocking on it reads the channel in the caller's thread."""

    def __init__(self, channel: "TaskChannel") -> None:
        super().__init__()
        self._channel = channel

    def result(self, timeout: Optional[float] = None) -> Any:
        if not self.done():
            self._channel.wait((self,), timeout)
        return super().result(timeout=0)

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        if not self.done():
            self._channel.wait((self,), timeout)
        return super().exception(timeout=0)


class TaskChannel:
    """``n_workers`` processes that take tasks from one pipe; no thread of its own.

    The workers start in ``__init__``, each runs ``initializer(*initargs)``,
    and ``__init__`` returns once every one has reported ready (an
    initializer failure raises :class:`SimulationError` from here).
    :meth:`submit` pickles a task and writes it to the shared task pipe
    from the caller's thread; whichever worker is free reads it.

    Results come back on one result pipe, and nothing reads it in the
    background.  A future resolves when some thread reads its result:
    :meth:`wait` (the coordinator's blocking and non-blocking drains),
    the future's own ``result()``, or the event loop given to
    :meth:`attach`.  At most ``IN_FLIGHT_PER_WORKER * n_workers`` tasks
    are in the pipe or running at once; further submissions wait in an
    in-process backlog and are sent as results are read, so writing a
    task never blocks on a pipe that only the writer could drain.  A
    cancelled backlog future is never sent.

    The channel watches each worker's sentinel.  When a worker exits,
    every outstanding future fails with a :class:`SimulationError`
    naming its exit code, and :meth:`submit` raises from then on.

    ``mp_context`` is a :mod:`multiprocessing` context; under ``spawn``
    the initializer must be a module-level function.
    """

    def __init__(
        self,
        n_workers: int,
        mp_context: Any,
        initializer: Callable[..., None],
        initargs: tuple[Any, ...] = (),
    ) -> None:
        self._capacity = IN_FLIGHT_PER_WORKER * n_workers
        self._task_reader, self._task_writer = mp_context.Pipe(duplex=False)
        self._result_reader, self._result_writer = mp_context.Pipe(duplex=False)
        self._result_fd = self._result_reader.fileno()
        # Re-entrant: futures resolve under it, and a done-callback may submit.
        self._lock = threading.RLock()
        self._ids = itertools.count()
        #: Sent tasks whose result has not been read, by task id.
        self._sent: dict[int, Future[Any]] = {}
        self._backlog: deque[tuple[int, Future[Any], Callable[..., Any], tuple[Any, ...]]] = (
            deque()
        )
        self._broken: Optional[str] = None
        self._closed = False
        self._loop: Any = None
        #: One ``(ok, pid or initializer exception)`` per ready message.
        self._ready: list[tuple[bool, Any]] = []
        worker_args = (
            self._task_reader, mp_context.Lock(), self._result_writer, mp_context.Lock(),
            initializer, initargs,
        )
        self._processes = [
            mp_context.Process(target=_worker_main, args=worker_args, daemon=True)
            for _ in range(n_workers)
        ]
        self._poller = select.poll()
        self._poller.register(self._result_fd, select.POLLIN)
        try:
            for process in self._processes:
                process.start()
                self._poller.register(process.sentinel, select.POLLIN)
            self._await_ready()
        except BaseException:
            self.close()
            raise

    def _await_ready(self) -> None:
        while len(self._ready) < len(self._processes):
            self._pump(None)
            for ok, value in self._ready:
                if not ok:
                    raise SimulationError(f"worker initializer failed: {value!r}") from value
            if self._broken is not None:
                raise SimulationError(f"worker process failed to start: {self._broken}")

    @property
    def pids(self) -> tuple[int, ...]:
        """OS pids of the workers, in the order they reported ready."""
        return tuple(value for ok, value in self._ready if ok)

    @property
    def in_flight(self) -> int:
        """Tasks sent to the workers whose results have not been read."""
        return len(self._sent)

    @property
    def backlog(self) -> int:
        """Submitted tasks waiting in this process for a free slot."""
        return len(self._backlog)

    # -- the caller's side ----------------------------------------------------

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Queue ``fn(*args)`` for a worker; returns its future.

        Raises:
            SimulationError: if a worker has exited or the channel is
                closed.
        """
        future = _ChannelFuture(self)
        with self._lock:
            if self._broken is not None:
                raise SimulationError(f"task channel is broken: {self._broken}")
            if self._closed:
                raise SimulationError("task channel is closed")
            task_id = next(self._ids)
            if len(self._sent) < self._capacity:
                future.set_running_or_notify_cancel()
                self._send(task_id, future, fn, args)
            else:
                self._backlog.append((task_id, future, fn, args))
        return future

    def wait(
        self, futures: Iterable["Future[Any]"], timeout: Optional[float] = None
    ) -> list["Future[Any]"]:
        """Read results until one of ``futures`` is done; returns the done ones.

        Reads in the caller's thread.  ``timeout`` is in seconds; ``0``
        reads only what is already in the pipe and ``None`` waits as long
        as it takes.  Results for futures not in ``futures`` are read too
        and resolve their own futures.
        """
        futures = list(futures)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            if self._open():
                self._pump(0.0)
            while futures and self._open() and not any(f.done() for f in futures):
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._pump(remaining)
        return [future for future in futures if future.done()]

    def attach(self, loop: Any) -> None:
        """Resolve futures on ``loop``: read whenever a result or an exit is ready."""
        with self._lock:
            self.detach()
            if not self._open():
                return
            self._loop = loop
            for fd in self._watched_fds():
                loop.add_reader(fd, self._on_readable)

    def detach(self) -> None:
        """Stop reading on the loop given to :meth:`attach`; idempotent."""
        with self._lock:
            loop, self._loop = self._loop, None
            if loop is not None:
                for fd in self._watched_fds():
                    loop.remove_reader(fd)

    def close(self) -> None:
        """Stop the workers and fail what they left unfinished; idempotent.

        Healthy workers finish their current task and exit; their
        results are still read.  After a worker has died, or if one does
        not exit within :data:`_STOP_TIMEOUT`, the rest are terminated.
        """
        with self._lock:
            if self._closed:
                return
            self.detach()
            self._closed = True
            for _, future, _, _ in self._backlog:
                future.cancel()
            self._backlog.clear()
            started = [process for process in self._processes if process.pid is not None]
            if self._broken is None:
                for _ in started:
                    self._task_writer.send_bytes(pickle.dumps(None))
                self._drain_until_exit(started)
            for process in started:
                if process.is_alive():
                    process.terminate()
                process.join()
                process.close()
            self._fail_outstanding("task channel closed before the task finished")
            for connection in (
                self._task_reader, self._task_writer, self._result_reader, self._result_writer
            ):
                connection.close()

    # -- the reading side -------------------------------------------------------

    def _open(self) -> bool:
        return not self._closed and self._broken is None

    def _on_readable(self) -> None:
        with self._lock:
            if self._open():
                self._pump(0.0)

    def _watched_fds(self) -> list[int]:
        return [self._result_fd, *(process.sentinel for process in self._processes)]

    def _send(
        self, task_id: int, future: "Future[Any]", fn: Callable[..., Any], args: tuple[Any, ...]
    ) -> None:
        try:
            data = pickle.dumps((task_id, fn, args), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - the task's own failure
            future.set_exception(exc)
            return
        self._sent[task_id] = future
        self._task_writer.send_bytes(data)

    def _pump(self, timeout: Optional[float]) -> None:
        """Read every ready result, waiting up to ``timeout`` seconds for the first.

        A worker's exit with no result left to read breaks the channel.
        """
        wait_ms = None if timeout is None else timeout * 1000.0
        while True:
            events = self._poller.poll(wait_ms)
            if not events:
                return
            if any(fd == self._result_fd for fd, _ in events):
                self._receive(self._result_reader.recv_bytes())
                wait_ms = 0.0
                continue
            self._break({fd for fd, _ in events})
            return

    def _receive(self, data: bytes) -> None:
        task_id, ok, value = pickle.loads(data)
        if task_id == _READY:
            self._ready.append((ok, value))
            return
        future = self._sent.pop(task_id)
        # Refill the freed slot before any done-callback runs.
        while self._backlog and len(self._sent) < self._capacity:
            next_id, next_future, fn, args = self._backlog.popleft()
            if next_future.set_running_or_notify_cancel():
                self._send(next_id, next_future, fn, args)
        if ok:
            future.set_result(value)
        else:
            future.set_exception(value)

    def _break(self, sentinels: set[int]) -> None:
        """Workers exited: fail every outstanding future with their exit codes."""
        dead = [process for process in self._processes if process.sentinel in sentinels]
        for process in dead:
            # The sentinel closes as the process exits, a moment before
            # its exit code can be collected.
            process.join(1.0)
        self._broken = ", ".join(
            f"worker pid {process.pid} exited with code {process.exitcode}" for process in dead
        )
        self.detach()
        self._fail_outstanding(self._broken)

    def _drain_until_exit(self, processes: list[Any]) -> None:
        """Read results until every process has exited, for up to :data:`_STOP_TIMEOUT`."""
        deadline = time.monotonic() + _STOP_TIMEOUT
        alive = {process.sentinel for process in processes}
        while alive:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            for fd, _ in self._poller.poll(remaining * 1000.0):
                if fd == self._result_fd:
                    self._receive(self._result_reader.recv_bytes())
                elif fd in alive:
                    alive.discard(fd)
                    self._poller.unregister(fd)

    def _fail_outstanding(self, reason: str) -> None:
        futures = [*self._sent.values(), *(entry[1] for entry in self._backlog)]
        self._sent.clear()
        self._backlog.clear()
        for future in futures:
            if not future.done():
                future.set_exception(SimulationError(reason))
