"""Async solve front-end: micro-batching of concurrent solve requests.

FDFD solves against one operator are cheapest in bulk — the direct tier
back-substitutes an entire ``(n_points, n_rhs)`` stack through one LU in a
single ``lu.solve`` call, and even the factorization itself is shared through
the :class:`~repro.fdfd.engine.FactorizationCache`.  But every call site is
synchronous: a fleet of clients querying the same foundry-PDK device each
issue their own ``solve_batch``, and on a cold cache they *race* — N threads
miss simultaneously and N identical factorizations get built (the cache
protects its bookkeeping, deliberately not the build, so one slow client
never serializes unrelated operators).

:class:`SolveService` closes the gap.  Requests are submitted (``submit`` for
a future, ``solve``/``solve_batch`` to block) into an asyncio loop running on
a background thread, grouped by ``(engine fidelity signature, grid, omega,
eps fingerprint)`` — the signature carries everything that shapes results
(tier and convergence tolerance), so an exact ``direct`` request can never
coalesce with an ``rtol``-converged ``recycled`` one, while equal-fidelity
requests coalesce even when issued through distinct engine instances — and
each group is flushed as a *single* ``solve_batch`` call once a
micro-batching window elapses or the group reaches a maximum batch size.
Under concurrent same-operator load this turns N racing factorizations into
one, and N per-request back-substitutions into one stacked one.  Coalescing
is purely an execution-order change: the direct tier's stacked solve is
column-wise bit-identical to per-request solves.

The service plugs in anywhere an engine does: ``Simulation(engine="service")``
builds a :class:`ServiceEngine` routing through the process-wide
:func:`default_solve_service`, and ``Simulation(engine=my_service)`` accepts a
service instance directly (via ``SolveService.as_engine``).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from dataclasses import dataclass

import numpy as np

from repro.fdfd.engine import (
    SolverEngine,
    eps_fingerprint,
    register_engine,
    resolve_engine,
)
from repro.fdfd.grid import Grid

__all__ = [
    "ServiceEngine",
    "ServiceStats",
    "SolveService",
    "SolveTimeoutError",
    "default_solve_service",
]


class SolveTimeoutError(TimeoutError):
    """A solve request's deadline elapsed before its batch completed.

    Only the timed-out request's future fails — coalesced siblings in the
    same batch still complete.  ``group`` is the coalescing key the request
    belonged to: ``(engine fidelity signature, grid, omega, fingerprint)``.
    """

    def __init__(self, group: tuple, timeout: float):
        signature, grid, omega, fingerprint = group
        super().__init__(
            f"solve request timed out after {timeout:.3g}s "
            f"(omega={omega:.6g}, fingerprint={str(fingerprint)[:12]}, "
            f"signature={signature})"
        )
        self.group = group
        self.timeout = timeout


@dataclass
class ServiceStats:
    """What a :class:`SolveService` coalesced, for benchmarks and tests."""

    #: Requests accepted (one ``submit``/``solve``/``solve_batch`` each).
    requests: int = 0
    #: Total right-hand sides across all requests.
    rhs_in: int = 0
    #: ``solve_batch`` calls issued to the backing engine.
    batches: int = 0
    #: Right-hand sides that rode along in a batch started by an earlier
    #: request (``rhs_in - batches``-ish view: the coalescing win).
    coalesced_rhs: int = 0
    #: Largest batch flushed so far.
    max_batch_seen: int = 0
    #: Batches flushed early because they reached ``max_batch``.
    full_flushes: int = 0
    #: Requests failed with :class:`SolveTimeoutError`.
    timeouts: int = 0
    #: Batch re-dispatches after an engine failure (``max_retries``).
    retries: int = 0

    def as_dict(self) -> dict:
        return {k: int(v) for k, v in self.__dict__.items()}


class _PendingBatch:
    """One open coalescing group: requests awaiting a flush."""

    __slots__ = (
        "grid",
        "omega",
        "eps_r",
        "fingerprint",
        "engine",
        "parts",
        "total",
        "handle",
        "attempt",
    )

    def __init__(self, grid, omega, eps_r, fingerprint, engine):
        self.grid = grid
        self.omega = omega
        self.eps_r = eps_r
        self.fingerprint = fingerprint
        self.engine = engine
        #: list of (future, rhs stack, x0 stack or None)
        self.parts: list[tuple[concurrent.futures.Future, np.ndarray, np.ndarray | None]] = []
        self.total = 0
        self.handle = None
        self.attempt = 0


class SolveService:
    """Coalescing async front-end over a :class:`SolverEngine`.

    Parameters
    ----------
    engine:
        Backing engine (name or instance) requests are served with by
        default; ``submit(engine=...)`` overrides per request (names are
        resolved once and reused, so same-named requests share state).
    window:
        Micro-batching window in seconds: a group flushes when its *first*
        request is this old.  Longer windows coalesce more at the cost of
        added per-request latency; ``0`` still coalesces whatever arrives in
        one event-loop turn.
    max_batch:
        A group reaching this many right-hand sides flushes immediately.  A
        single oversized request is never split — the limit only stops
        coalescing from growing batches without bound.
    workers:
        Executor threads running the flushed solves (default 1: solves
        serialize, which maximizes coalescing of whatever arrives while one
        batch is in flight — the right default for the factorize-once
        workloads the service exists for).
    timeout:
        Default per-request deadline in seconds (off by default): a request
        whose batch has not completed in time fails with
        :class:`SolveTimeoutError` — *only* that request's future; coalesced
        siblings still complete.  ``submit(timeout=...)`` overrides per
        request.
    max_retries:
        Re-dispatches allowed when the backing engine raises from a flushed
        batch.  Requests that already settled (e.g. timed out) are dropped
        from the retried batch; the rest get another chance before the error
        is forwarded to every remaining waiter.

    The event loop lives on a daemon thread and starts lazily on first use;
    :meth:`close` (or using the service as a context manager) tears it down.
    """

    def __init__(
        self,
        engine: SolverEngine | str | None = None,
        window: float = 0.002,
        max_batch: int = 64,
        workers: int = 1,
        timeout: float | None = None,
        max_retries: int = 0,
    ):
        if window < 0:
            raise ValueError(f"window must be non-negative, got {window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {max_batch}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive (or None), got {timeout}")
        self.window = float(window)
        self.max_batch = int(max_batch)
        self.timeout = timeout
        self.max_retries = max(int(max_retries), 0)
        self.engine = resolve_engine(engine)
        self.stats = ServiceStats()
        self._engines: dict[str, SolverEngine] = {}
        self._pending: dict[tuple, _PendingBatch] = {}
        #: Every unresolved request future, registered *before* its enqueue
        #: callback is posted to the loop.  close() sweeps this last, so a
        #: submit racing close can never orphan a future (the callback may
        #: land after the loop drained, or never run at all).
        self._inflight: set[concurrent.futures.Future] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, int(workers)), thread_name_prefix="solve-service"
        )
        self._lifecycle = threading.Lock()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------
    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        with self._lifecycle:
            if self._closed:
                raise RuntimeError("SolveService is closed")
            if self._loop is None:
                loop = asyncio.new_event_loop()
                started = threading.Event()

                def run():
                    asyncio.set_event_loop(loop)
                    loop.call_soon(started.set)
                    loop.run_forever()

                self._thread = threading.Thread(
                    target=run, name="solve-service-loop", daemon=True
                )
                self._thread.start()
                started.wait()
                self._loop = loop
            return self._loop

    def close(self) -> None:
        """Stop the loop and release the executor threads; idempotent.

        Every pending future resolves promptly — requests already flushed to
        the executor run to completion (their futures complete normally),
        everything still queued in a micro-batching window is cancelled
        (:class:`concurrent.futures.CancelledError`), and a ``submit`` racing
        ``close`` either raises or has its future cancelled.  No client
        thread blocked on ``.result()`` is ever left hanging.
        """
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            loop, self._loop = self._loop, None
        if loop is not None:
            def drain():
                for batch in self._pending.values():
                    if batch.handle is not None:
                        batch.handle.cancel()
                    for future, _, _ in batch.parts:
                        future.cancel()
                self._pending.clear()
                loop.stop()

            loop.call_soon_threadsafe(drain)
            if self._thread is not None:
                self._thread.join(timeout=5.0)
            loop.close()
        # Wait for in-flight solves so their futures complete rather than
        # dangle behind a dead executor.
        self._executor.shutdown(wait=True)
        # A submit racing close can post its enqueue callback into the same
        # ready cycle as the drain — after it — recreating a _pending entry
        # whose flush timer will never fire on the stopped loop; or the
        # callback may never run at all.  The loop thread is gone, so sweep
        # both places and cancel whatever is left.
        for batch in self._pending.values():
            if batch.handle is not None:
                batch.handle.cancel()
            for future, _, _ in batch.parts:
                future.cancel()
        self._pending.clear()
        for future in list(self._inflight):
            future.cancel()

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request entry -----------------------------------------------------------
    def _resolve(self, engine) -> tuple[str, SolverEngine]:
        if engine is None:
            return ("default", self.engine)
        if isinstance(engine, str):
            resolved = self._engines.get(engine)
            if resolved is None:
                self._engines[engine] = resolved = resolve_engine(engine)
            return (engine, resolved)
        return (f"instance-{id(engine)}", resolve_engine(engine))

    def submit(
        self,
        grid: Grid,
        omega: float,
        eps_r: np.ndarray,
        rhs: np.ndarray,
        fingerprint: str | None = None,
        x0: np.ndarray | None = None,
        engine: SolverEngine | str | None = None,
        timeout: float | None = None,
    ) -> concurrent.futures.Future:
        """Enqueue a solve; the future resolves to the solution stack.

        ``rhs`` may be a single ``(nx, ny)`` right-hand side or a stack
        ``(n, nx, ny)``; the future's result has the same shape.  Requests
        sharing ``(engine fidelity signature, grid, omega, fingerprint)``
        that arrive within the micro-batching window are solved in one
        engine call — the signature includes the tier and its tolerance, so
        exact and converged solves never share a batch.

        ``timeout`` (seconds, default: the service-level setting) bounds how
        long this request may wait end to end; on expiry its future fails
        with :class:`SolveTimeoutError` while batch siblings are unaffected.
        """
        eps_r = np.asarray(eps_r)
        rhs = np.asarray(rhs, dtype=complex)
        single = rhs.ndim == 2
        stack = rhs[None] if single else rhs
        if stack.ndim != 3 or stack.shape[1:] != grid.shape:
            raise ValueError(
                f"rhs must be (nx, ny) or (n, {grid.nx}, {grid.ny}); got {rhs.shape}"
            )
        if fingerprint is None:
            fingerprint = eps_fingerprint(eps_r)
        if x0 is not None:
            x0 = np.asarray(x0, dtype=complex)
            x0 = x0[None] if x0.ndim == 2 else x0
            if x0.shape != stack.shape:
                raise ValueError(f"x0 shape {x0.shape} does not match rhs {stack.shape}")
        _, resolved = self._resolve(engine)
        if timeout is None:
            timeout = self.timeout

        inner: concurrent.futures.Future = concurrent.futures.Future()
        loop = self._ensure_loop()
        self._inflight.add(inner)
        inner.add_done_callback(self._inflight.discard)
        try:
            loop.call_soon_threadsafe(
                self._enqueue,
                (resolved.fidelity_signature, grid, float(omega), fingerprint),
                resolved,
                eps_r,
                stack,
                x0,
                inner,
                timeout,
            )
        except RuntimeError:
            # The loop closed under us (close() racing this submit): the
            # callback was never queued, so resolve the future here.
            inner.cancel()
            raise
        if not single:
            return inner
        outer: concurrent.futures.Future = concurrent.futures.Future()

        def unwrap(done: concurrent.futures.Future) -> None:
            if done.cancelled():
                outer.cancel()
                return
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
            else:
                outer.set_result(done.result()[0])

        inner.add_done_callback(unwrap)
        return outer

    def solve(
        self, grid, omega, eps_r, rhs, fingerprint=None, x0=None, engine=None, timeout=None
    ):
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(
            grid,
            omega,
            eps_r,
            rhs,
            fingerprint=fingerprint,
            x0=x0,
            engine=engine,
            timeout=timeout,
        ).result()

    # Engine-shaped entry: lets the service sit anywhere a SolverEngine does.
    solve_batch = solve

    def as_engine(self) -> "ServiceEngine":
        """This service as a :class:`SolverEngine` (``Simulation(engine=service)``)."""
        return ServiceEngine(service=self)

    # -- loop-side grouping ------------------------------------------------------
    def _enqueue(self, key, engine, eps_r, stack, x0, future, timeout) -> None:
        # Runs on the loop thread: single-threaded access to self._pending.
        if self._closed:
            # This callback landed in the same ready cycle as (but after)
            # close()'s drain: the flush timer created below would never
            # fire on the stopped loop, so resolve the future immediately.
            future.cancel()
            return
        self.stats.requests += 1
        self.stats.rhs_in += stack.shape[0]
        batch = self._pending.get(key)
        if batch is None:
            grid, omega, fingerprint = key[1], key[2], key[3]
            batch = _PendingBatch(grid, omega, eps_r, fingerprint, engine)
            self._pending[key] = batch
            batch.handle = asyncio.get_running_loop().call_later(
                self.window, self._flush, key
            )
        else:
            self.stats.coalesced_rhs += stack.shape[0]
        batch.parts.append((future, stack, x0))
        batch.total += stack.shape[0]
        if timeout is not None:
            # Timers die with the loop; close() then cancels via _inflight,
            # so an expiring request never outlives the service silently.
            asyncio.get_running_loop().call_later(
                timeout, self._expire, future, key, timeout
            )
        if batch.total >= self.max_batch:
            self.stats.full_flushes += 1
            self._flush(key)

    def _expire(self, future, key, timeout) -> None:
        # Runs on the loop thread.  Fails exactly one request: its batch —
        # and every coalesced sibling riding in it — keeps running, and the
        # solver-side loops skip futures that are already done.
        if future.done():
            return
        self.stats.timeouts += 1
        try:
            future.set_exception(SolveTimeoutError(key, timeout))
        except concurrent.futures.InvalidStateError:  # pragma: no cover - lost race
            pass

    def _flush(self, key) -> None:
        batch = self._pending.pop(key, None)
        if batch is None:  # already flushed by the max_batch trigger
            return
        if batch.handle is not None:
            batch.handle.cancel()
        self._dispatch(batch)

    def _dispatch(self, batch: _PendingBatch) -> None:
        # Runs on the loop thread (first flush and every retry re-dispatch).
        try:
            asyncio.get_running_loop().run_in_executor(
                self._executor, self._solve_flushed, batch
            )
        except RuntimeError:
            # Executor already shut down (close() racing a timer flush):
            # the batch cannot run, so its waiters must not hang.
            for future, _, _ in batch.parts:
                future.cancel()

    def _requeue(self, batch: _PendingBatch) -> None:
        # Runs on the loop thread: retry a failed batch minus the requests
        # that already settled (timed out / cancelled) in the meantime.
        batch.parts = [part for part in batch.parts if not part[0].done()]
        batch.total = sum(stack.shape[0] for _, stack, _ in batch.parts)
        if not batch.parts:
            return
        if self._closed:
            for future, _, _ in batch.parts:
                future.cancel()
            return
        self._dispatch(batch)

    # -- executor-side solving ---------------------------------------------------
    def _solve_flushed(self, batch: _PendingBatch) -> None:
        try:
            rhs = np.concatenate([stack for _, stack, _ in batch.parts], axis=0)
            x0 = None
            if any(part_x0 is not None for _, _, part_x0 in batch.parts):
                x0 = np.zeros_like(rhs)
                offset = 0
                for _, stack, part_x0 in batch.parts:
                    if part_x0 is not None:
                        x0[offset : offset + stack.shape[0]] = part_x0
                    offset += stack.shape[0]
            self.stats.batches += 1
            self.stats.max_batch_seen = max(self.stats.max_batch_seen, rhs.shape[0])
            solutions = batch.engine.solve_batch(
                batch.grid,
                batch.omega,
                batch.eps_r,
                rhs,
                fingerprint=batch.fingerprint,
                x0=x0,
            )
        except BaseException as error:  # noqa: BLE001 - forwarded to every waiter
            if (
                batch.attempt < self.max_retries
                and not isinstance(
                    error, (KeyboardInterrupt, SystemExit, concurrent.futures.CancelledError)
                )
                and any(not part[0].done() for part in batch.parts)
            ):
                batch.attempt += 1
                self.stats.retries += 1
                loop = self._loop
                if loop is not None:
                    try:
                        loop.call_soon_threadsafe(self._requeue, batch)
                        return
                    except RuntimeError:  # pragma: no cover - close() raced us
                        pass
            for future, _, _ in batch.parts:
                if not future.done():
                    future.set_exception(error)
            return
        offset = 0
        for future, stack, _ in batch.parts:
            part = solutions[offset : offset + stack.shape[0]]
            offset += stack.shape[0]
            if not future.done():
                future.set_result(np.ascontiguousarray(part))


class ServiceEngine(SolverEngine):
    """A :class:`SolveService` wearing the :class:`SolverEngine` interface.

    ``Simulation(engine="service")`` (or ``FdfdSolver(engine="service")``,
    ``NumericalFieldBackend(engine="service")``, ...) routes every solve of
    that instance through the process-wide :func:`default_solve_service`, so
    independent simulations querying the same operator coalesce.  Constructing
    one with ``engine=...``/``window=...``/``max_batch=...`` spins up a
    dedicated service instead.

    Results are whatever the backing engine produces — for the default direct
    tier, bit-identical to per-request solves — so the fidelity signature
    delegates to the backing engine and cached results interchange freely with
    unserviced solves.
    """

    name = "service"

    def __init__(
        self,
        service: SolveService | None = None,
        engine: SolverEngine | str | None = None,
        window: float | None = None,
        max_batch: int | None = None,
        workers: int | None = None,
    ):
        if service is not None:
            if engine is not None or window is not None or max_batch is not None:
                raise ValueError("pass either a service or its configuration, not both")
            self.service = service
        elif engine is None and window is None and max_batch is None and workers is None:
            self.service = default_solve_service()
        else:
            self.service = SolveService(
                engine=engine,
                window=0.002 if window is None else window,
                max_batch=64 if max_batch is None else max_batch,
                workers=1 if workers is None else workers,
            )

    @property
    def supports_warm_start(self) -> bool:
        return self.service.engine.supports_warm_start

    @property
    def fidelity_signature(self) -> tuple:
        # Coalescing changes execution order, never results: share cached
        # results with the backing tier.
        return self.service.engine.fidelity_signature

    @property
    def cache(self):
        """The backing engine's factorization cache (for eviction plumbing)."""
        return getattr(self.service.engine, "cache", None)

    def solve_batch(self, grid, omega, eps_r, rhs, fingerprint=None, x0=None):
        eps_r, rhs = self._check_batch(grid, eps_r, rhs)
        return self.service.submit(
            grid, omega, eps_r, rhs, fingerprint=fingerprint, x0=x0
        ).result()


_DEFAULT_SERVICE: SolveService | None = None
_DEFAULT_SERVICE_LOCK = threading.Lock()


def default_solve_service() -> SolveService:
    """The process-wide service shared by ``engine="service"`` call sites.

    Created on first use with default settings (direct backing engine, 2 ms
    window).  Like :data:`~repro.fdfd.engine.default_factorization_cache`, it
    is what lets independent call sites coalesce without coordinating.
    """
    global _DEFAULT_SERVICE
    with _DEFAULT_SERVICE_LOCK:
        if _DEFAULT_SERVICE is None or _DEFAULT_SERVICE._closed:
            _DEFAULT_SERVICE = SolveService()
        return _DEFAULT_SERVICE


register_engine("service", ServiceEngine)
