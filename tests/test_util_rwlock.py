"""Tests for the reader–writer lock."""

import random
import sys
import threading
import time

import pytest

from repro.util.rwlock import RWLock


class TestBasics:
    def test_read_then_write_sequential(self):
        lock = RWLock()
        with lock.read_locked():
            pass
        with lock.write_locked():
            assert lock.held_for_write()
        assert not lock.held_for_write()
        assert lock.read_acquisitions == 1
        assert lock.write_acquisitions == 1

    def test_reentrant_read(self):
        lock = RWLock()
        with lock.read_locked():
            with lock.read_locked():
                pass
        # Fully released: a writer can proceed.
        with lock.write_locked():
            pass

    def test_reentrant_write(self):
        lock = RWLock()
        with lock.write_locked():
            with lock.write_locked():
                assert lock.held_for_write()
        assert not lock.held_for_write()

    def test_read_inside_write(self):
        lock = RWLock()
        with lock.write_locked():
            with lock.read_locked():
                assert lock.held_for_write()
        with lock.write_locked():
            pass

    def test_upgrade_refused(self):
        lock = RWLock()
        with lock.read_locked():
            with pytest.raises(RuntimeError):
                lock.acquire_write()

    def test_unbalanced_release_refused(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()


class TestExclusion:
    def test_writer_excludes_readers(self):
        lock = RWLock()
        order = []
        ready = threading.Event()
        release = threading.Event()

        def writer():
            with lock.write_locked():
                ready.set()
                release.wait(timeout=5)
                order.append("write-done")

        def reader():
            ready.wait(timeout=5)
            with lock.read_locked():
                order.append("read")

        w = threading.Thread(target=writer)
        r = threading.Thread(target=reader)
        w.start()
        r.start()
        ready.wait(timeout=5)
        release.set()
        w.join(timeout=5)
        r.join(timeout=5)
        assert order == ["write-done", "read"]
        assert lock.stats()["read_contended"] == 1

    def test_readers_share(self):
        lock = RWLock()
        barrier = threading.Barrier(4, timeout=5)

        def reader():
            with lock.read_locked():
                # All four readers must be inside simultaneously to pass
                # the barrier; a mutex here would deadlock (and trip the
                # barrier timeout).
                barrier.wait()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert lock.stats()["read_acquisitions"] == 4

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        in_read = threading.Event()
        release_read = threading.Event()
        order = []

        def holder():
            with lock.read_locked():
                in_read.set()
                release_read.wait(timeout=5)

        def writer():
            with lock.write_locked():
                order.append("writer")

        def late_reader():
            # Started once the writer is queued; write preference makes
            # it wait behind the writer despite an active reader.
            with lock.read_locked():
                order.append("late-reader")

        h = threading.Thread(target=holder)
        h.start()
        in_read.wait(timeout=5)
        w = threading.Thread(target=writer)
        w.start()
        # Poll until the writer is queued on the lock.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            with lock._cond:
                if lock._waiting_writers == 1:
                    break
            time.sleep(0.001)
        late = threading.Thread(target=late_reader)
        late.start()
        release_read.set()
        for t in (h, w, late):
            t.join(timeout=5)
        assert order[0] == "writer"


class TestStats:
    def test_stats_keys(self):
        lock = RWLock()
        stats = lock.stats()
        assert set(stats) == {
            "read_acquisitions",
            "write_acquisitions",
            "read_contended",
            "write_contended",
        }

    def test_write_contention_counted(self):
        lock = RWLock()
        in_read = threading.Event()
        release = threading.Event()

        def holder():
            with lock.read_locked():
                in_read.set()
                release.wait(timeout=5)

        h = threading.Thread(target=holder)
        h.start()
        in_read.wait(timeout=5)

        def writer():
            with lock.write_locked():
                pass

        w = threading.Thread(target=writer)
        w.start()
        release.set()
        h.join(timeout=5)
        w.join(timeout=5)
        assert lock.stats()["write_contended"] == 1


class TestStress:
    """Many more threads than cores, a switch interval short enough to
    preempt inside every critical section, and every kind of holder."""

    THREADS = 8
    ROUNDS = 300

    def test_mixed_holders_keep_the_contract(self):
        lock = RWLock()
        state = threading.Lock()
        holders = {"readers": 0, "writers": 0}
        peak_readers = [0]
        violations = []
        made = [[0, 0] for _ in range(self.THREADS)]  # [reads, writes]

        def enter(kind):
            with state:
                holders[kind] += 1
                if holders["writers"] and (
                    holders["writers"] > 1 or holders["readers"]
                ):
                    violations.append(dict(holders))
                peak_readers[0] = max(peak_readers[0], holders["readers"])

        def leave(kind):
            with state:
                holders[kind] -= 1

        def hold(kind):
            enter(kind)
            time.sleep(0)  # hand the GIL on while held
            leave(kind)

        start = threading.Barrier(self.THREADS, timeout=30)

        def worker(index):
            rng = random.Random(index)
            counts = made[index]
            start.wait()
            for _ in range(self.ROUNDS):
                roll = rng.random()
                if roll < 0.6:
                    with lock.read_locked():
                        counts[0] += 1
                        hold("readers")
                elif roll < 0.8:
                    with lock.read_locked():
                        counts[0] += 1
                        with lock.read_locked():
                            counts[0] += 1
                            hold("readers")
                elif roll < 0.9:
                    with lock.write_locked():
                        counts[1] += 1
                        hold("writers")
                else:
                    # The engine's compound shape: reads nested in a
                    # write (the writer is the only holder throughout).
                    with lock.write_locked():
                        counts[1] += 1
                        with lock.write_locked():
                            counts[1] += 1
                            with lock.read_locked():
                                counts[0] += 1
                                hold("writers")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # Daemons, so a wedged lock fails the test instead of
            # hanging the interpreter at exit.
            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(self.THREADS)
            ]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 60
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "a thread is wedged"
        assert violations == []
        assert peak_readers[0] >= 2, "readers never overlapped"
        stats = lock.stats()
        assert stats["read_acquisitions"] == sum(r for r, _w in made)
        assert stats["write_acquisitions"] == sum(w for _r, w in made)
        assert stats["read_contended"] <= stats["read_acquisitions"]
        assert stats["write_contended"] <= stats["write_acquisitions"]
        # Fully released, and nobody left queued.
        assert lock._readers == {} and lock._writer is None
        assert lock._waiting_writers == 0 and lock._waiting_readers == 0


class TestAbandonedWait:
    def test_readers_queued_behind_a_writer_that_gives_up_get_in(self):
        """A writer whose wait raises (an interrupt while it queues)
        leaves; readers queued behind it must not wait for a release
        that never comes."""
        lock = RWLock()

        class Interrupting(threading.Condition):
            def wait(self, timeout=None):
                if threading.current_thread().name != "writer":
                    return super().wait(timeout)
                deadline = time.monotonic() + 5
                while not lock._waiting_readers and time.monotonic() < deadline:
                    super().wait(0.01)
                raise KeyboardInterrupt

        lock._cond = Interrupting(lock._mutex)
        in_read = threading.Event()
        release = threading.Event()
        writer_failed = []
        entered = threading.Event()

        def holder():
            with lock.read_locked():
                in_read.set()
                release.wait(timeout=10)

        def writer():
            try:
                lock.acquire_write()
            except KeyboardInterrupt:
                writer_failed.append(True)

        def late_reader():
            with lock.read_locked():
                entered.set()

        h = threading.Thread(target=holder, daemon=True)
        h.start()
        in_read.wait(timeout=5)
        w = threading.Thread(target=writer, name="writer", daemon=True)
        w.start()
        deadline = time.monotonic() + 5
        while not lock._waiting_writers and time.monotonic() < deadline:
            time.sleep(0.001)
        late = threading.Thread(target=late_reader, daemon=True)
        late.start()
        # Readers share the lock: the late reader gets in beside the
        # holder once the writer has gone.
        assert entered.wait(timeout=5), "reader stranded behind a gone writer"
        release.set()
        for t in (h, w, late):
            t.join(timeout=5)
        assert not any(t.is_alive() for t in (h, w, late))
        assert writer_failed == [True]
        assert lock._waiting_writers == 0 and lock._writer is None
