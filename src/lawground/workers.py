"""Forked worker processes that run the chunks of a batch in chunk order.

Training steps and evaluation split their samples into fixed chunks. A pool
of worker processes, forked when the pool opens, runs the chunks, and the
parent takes the results in chunk order, so that what it reduces from them
does not depend on how many workers there are. A worker sees the model as
the parent had it at the fork; values the parent changes later reach it only
through shared memory (`SharedParameters`). Tasks and results cross a pipe,
pickled. The workers are forked, not spawned, because they need the
parent's model, samples and shared mapping as they are; the package starts
no threads that a fork could catch holding a lock (BLAS runs one).
"""

import gc
import mmap
import os
import pickle
import signal
from multiprocessing.connection import Pipe

import numpy as np

from .errors import LawgroundError

# the parent ends of the pipes of every pool this process has open: a worker
# closes its copies, so that a worker's pipe is held open by its parent alone
_parent_ends = set()


def _worker(k, conn, run, on_fork):
    """Worker k: runs `run(task)` for each task read from conn and sends back
    (True, result) or (False, error), until EOF. Never returns."""
    status = 1
    try:
        # the collector skips what the worker inherited: those objects are
        # the parent's to collect, and walking them in every collection cost
        # a B=4 desk64 training worker about 12 ms of CPU a step, forked
        # from a process holding 24,000 objects
        gc.freeze()
        for end in _parent_ends:
            end.close()
        _parent_ends.clear()
        if on_fork is not None:
            on_fork(k)
        while True:
            try:
                task = conn.recv()
            except EOFError:
                break
            try:
                reply = True, run(task)
            except Exception as exc:
                reply = False, exc
            try:
                payload = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                payload = pickle.dumps((False, LawgroundError(
                    f"worker {k} cannot send its "
                    f"{'result' if reply[0] else 'error'} back: {exc}")))
            conn.send_bytes(payload)
        status = 0
    finally:
        # never back into the parent's code: no atexit handlers, no flush
        # of the parent's buffered files
        os._exit(status)


class Workers:
    """`count` forked worker processes, each running `run(task)` for the
    tasks it is sent, one at a time; `on_fork(k)`, if given, runs in worker
    k before its first task.

    Used as a context manager. On exit the workers are reaped: on a normal
    exit they see their pipes close and exit; on an error they are killed.
    A worker whose parent dies sees its pipe close too."""

    def __init__(self, count, run, on_fork=None):
        self._conns, self._pids = [], []
        try:
            for k in range(count):
                ours, theirs = Pipe()
                self._conns.append(ours)
                _parent_ends.add(ours)
                pid = os.fork()
                if pid == 0:
                    _worker(k, theirs, run, on_fork)
                theirs.close()
                self._pids.append(pid)
        except BaseException:
            self.close(kill=True)
            raise

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(kill=exc_type is not None)
        return False

    def in_order(self, tasks):
        """Yield (task, result) for each task, in task order.

        Worker k % count runs task k, and is sent task k + count only after
        the caller has taken result k, so at most one task per worker is in
        flight and the caller may read what that worker left in shared
        memory. A task that raised raises its error here, and a worker that
        died raises LawgroundError naming the task. If the caller does not
        take every result, the pool is closed."""
        n = len(self._conns)
        done = False
        try:
            for k, task in enumerate(tasks[:n]):
                self._send(k, task)
            for k, task in enumerate(tasks):
                ok, result = self._receive(k)
                if not ok:
                    raise result
                yield task, result
                if k + n < len(tasks):
                    self._send(k + n, tasks[k + n])
            done = True
        finally:
            if not done:
                self.close(kill=True)

    def _send(self, k, task):
        try:
            self._conns[k % len(self._conns)].send(task)
        except OSError:
            self._died(k)

    def _receive(self, k):
        try:
            return pickle.loads(self._conns[k % len(self._conns)].recv_bytes())
        except (EOFError, OSError):
            self._died(k)

    def _died(self, k):
        w = k % len(self._conns)
        pid, status = self._pids[w], self._reap(w)
        code = None if status is None else os.waitstatus_to_exitcode(status)
        # a negative code is the signal that killed it
        raise LawgroundError(f"worker process {pid} ended with exit code "
                             f"{code} while running chunk {k}") from None

    def _reap(self, w):
        """Wait for worker w; its wait status (None if already reaped)."""
        pid, self._pids[w] = self._pids[w], None
        if pid is None:
            return None
        try:
            return os.waitpid(pid, 0)[1]
        except ChildProcessError:
            return None

    def close(self, kill=False):
        """Close every pipe and reap every worker, killing them first if
        `kill`. Closing twice is harmless."""
        for conn in self._conns:
            _parent_ends.discard(conn)
            conn.close()
        for w, pid in enumerate(self._pids):
            if pid is not None and kill:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self._reap(w)


def _shared_zeros(n):
    """n float64 zeros in an anonymous mapping that forked children share."""
    return np.frombuffer(mmap.mmap(-1, n * 8), np.float64, n)


class SharedParameters:
    """Parameter values in one shared anonymous mapping, beside one gradient
    slot per worker.

    Made before the workers fork. The parent's optimizer updates the values
    in place, and the workers read them at their next task. In worker k,
    `use_slot(k)` points every parameter's grad into slot k, which the worker
    zeroes before each backward; the parent adds each chunk's slot into its
    own grads, in chunk order (`add_slot`)."""

    def __init__(self, params, slots):
        self.params = list(params)
        # each parameter starts on a 64-byte boundary
        self._offsets, size = [], 0
        for p in self.params:
            self._offsets.append(size)
            size += -(-p.data.size // 8) * 8
        memory = _shared_zeros((slots + 1) * size)
        # per slot: the flat slot, then each parameter's view into it
        self._slots = [(flat, self._views(flat)) for flat in (
            memory[(k + 1) * size:(k + 2) * size] for k in range(slots))]
        for p, view in zip(self.params, self._views(memory[:size])):
            view[...] = p.data
            p.data = view
        self.slot = None  # in a worker, the index of its own slot

    def _views(self, flat):
        return [flat[o:o + p.data.size].reshape(p.data.shape)
                for p, o in zip(self.params, self._offsets)]

    def use_slot(self, k):
        self.slot = k
        for p, view in zip(self.params, self._slots[k][1]):
            p.grad = view

    def zero_slot(self):
        self._slots[self.slot][0][...] = 0.0

    def add_slot(self, k):
        for p, view in zip(self.params, self._slots[k][1]):
            p.grad += view
