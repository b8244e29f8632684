"""Unit tests for the two spin-lock flavours."""

import pytest

from repro.errors import ConfigError
from repro.gpu.atomics import LockTable


class TestBasicLock:
    """Figure 10: 0/1 spin lock via atomicCAS."""

    def test_acquire_release_cycle(self):
        locks = LockTable(2)
        assert locks.try_acquire_basic(0)
        assert not locks.try_acquire_basic(0)  # held
        locks.release_basic(0)
        assert locks.try_acquire_basic(0)

    def test_locks_are_independent(self):
        locks = LockTable(2)
        assert locks.try_acquire_basic(0)
        assert locks.try_acquire_basic(1)


class TestCounterLock:
    """Figure 11: deterministic counter lock keyed by T-dep ranks."""

    def test_pass_only_at_matching_key(self):
        locks = LockTable(1)
        assert locks.try_pass_counter(0, 0)
        assert not locks.try_pass_counter(0, 1)

    def test_writer_release_advances(self):
        locks = LockTable(1)
        locks.release_counter(0, 0, shared=False)
        assert locks.try_pass_counter(0, 1)

    def test_reader_run_advances_only_when_all_done(self):
        # Three readers share rank 2 on lock 0 ("flag == marked"
        # semantics: the last finisher bumps the counter).
        locks = LockTable(1)
        locks.set_run_size(0, 2, 3)
        locks.values[0] = 2
        locks.release_counter(0, 2, shared=True)
        assert locks.try_pass_counter(0, 2)      # still at 2
        locks.release_counter(0, 2, shared=True)
        assert locks.try_pass_counter(0, 2)
        locks.release_counter(0, 2, shared=True)
        assert locks.try_pass_counter(0, 3)      # advanced

    def test_invalid_run_size_rejected(self):
        with pytest.raises(ConfigError):
            LockTable(1).set_run_size(0, 0, 0)

    def test_negative_table_size_rejected(self):
        with pytest.raises(ConfigError):
            LockTable(-1)
