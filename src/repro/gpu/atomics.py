"""Spin locks for the simulated device.

The device's atomics exist here only as the locks GPUTx builds from
them -- two flavours, exactly as Appendix C of the paper:

* **Basic 0/1 spin lock** (Figure 10): ``atomicCAS(lock, 0, 1)`` in a
  retry loop. Simple, but execution order is non-deterministic and
  multi-lock transactions can deadlock -- the simulator's scheduler
  detects that and raises :class:`~repro.errors.DeadlockError`.
* **Counter lock** (Figure 11): the lock value is a monotonically
  increasing counter; a thread holding key ``k`` spins until the
  counter equals ``k``. Keys are assigned from T-dependency-graph
  ranks, which simultaneously enforces timestamp order and rules out
  deadlock (the rank order is a DAG order).

Reader runs: consecutive readers of one item share a rank, so they all
carry the same key and pass the gate concurrently (``shared=True``).
The counter must advance only after the *whole* run finishes, so the
lock table keeps a per-``(lock, key)`` countdown initialised to the run
size; the last reader to release advances the counter ("flag == marked"
in Figure 11).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import ConfigError


class LockTable:
    """Spin locks over a dense id space ``[0, n_locks)``.

    One instance serves both flavours: :meth:`try_acquire_basic` is the
    0/1 CAS lock, :meth:`try_pass_counter` / :meth:`release_counter`
    implement the deterministic counter lock.
    """

    def __init__(self, n_locks: int) -> None:
        if n_locks < 0:
            raise ConfigError("lock table size must be >= 0")
        self.n_locks = n_locks
        self.values = np.zeros(n_locks, dtype=np.int64)
        #: Countdown of shared readers still holding (lock, key) runs.
        self._run_remaining: Dict[Tuple[int, int], int] = {}

    # -- basic 0/1 lock (Figure 10) ------------------------------------
    def try_acquire_basic(self, lock_id: int) -> bool:
        """``atomicCAS(lock, 0, 1)``; True when the lock was taken."""
        if self.values[lock_id] == 0:
            self.values[lock_id] = 1
            return True
        return False

    def release_basic(self, lock_id: int) -> None:
        self.values[lock_id] = 0

    # -- counter lock (Figure 11) --------------------------------------
    def set_run_size(self, lock_id: int, key: int, size: int) -> None:
        """Register the size of a shared-reader run at (lock, key)."""
        if size <= 0:
            raise ConfigError("reader run size must be positive")
        self._run_remaining[(lock_id, key)] = size

    def try_pass_counter(self, lock_id: int, key: int) -> bool:
        """True when the lock counter has reached ``key``."""
        return int(self.values[lock_id]) == key

    def release_counter(self, lock_id: int, key: int, shared: bool) -> None:
        """Finish the critical section; maybe advance the counter.

        Exclusive holders (writers) advance unconditionally; shared
        holders decrement the run countdown and the last one advances.
        """
        if shared:
            slot = (lock_id, key)
            remaining = self._run_remaining.get(slot, 1) - 1
            if remaining <= 0:
                self._run_remaining.pop(slot, None)
                self.values[lock_id] += 1
            else:
                self._run_remaining[slot] = remaining
        else:
            self.values[lock_id] += 1
