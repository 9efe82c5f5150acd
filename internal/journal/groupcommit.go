package journal

import "time"

// flushWindow is the group-commit absorb window: long enough to let a
// burst of concurrent appenders land in one batch. Every batch pays it,
// a lone append included, and pays it as a time.Sleep, which overshoots
// short sleeps: on a 2-vCPU Xeon VM a 200 µs sleep returns after
// ≈ 1.07 ms at the median, and a group-commit append on bench/'s
// tcp-fleet workload reads ≈ 1.25 ms at the median against ≈ 0.31 ms
// without group commit.
const flushWindow = 200 * time.Microsecond

// waitDurable blocks until every record with LSN <= lsn is on stable
// storage. The first waiter to arrive while no flush is running
// becomes the batch leader: it absorbs the flush window (letting
// concurrent appenders write their frames under s.mu), issues ONE fsync
// covering every frame written by then, and wakes all waiters the sync
// covered. Everyone else just waits — N concurrent appenders cost
// ~1 fsync.
func (s *Store) waitDurable(lsn uint64) error {
	s.fmu.Lock()
	for {
		if s.flushErr != nil {
			err := s.flushErr
			s.fmu.Unlock()
			return err
		}
		if s.durableLSN >= lsn {
			s.fmu.Unlock()
			return nil
		}
		if s.flushing {
			s.fcond.Wait()
			continue
		}
		// Become the leader for the next batch.
		s.flushing = true
		s.fmu.Unlock()

		if w := s.window; w > 0 {
			time.Sleep(w)
		}
		var err error
		var target uint64
		s.mu.Lock()
		target = s.lsn
		switch {
		case s.closed:
			err = ErrClosed
		case s.opts.NoSync:
			// Durability is explicitly waived; advance the watermark
			// without touching the disk (tests, benches).
		default:
			err = s.wal.Sync()
			if err == nil {
				s.fsyncs.Add(1)
			}
		}
		s.mu.Unlock()

		s.fmu.Lock()
		s.flushing = false
		if err != nil {
			// After a failed fsync the kernel may have dropped the
			// dirty pages; no later sync can prove these frames ever
			// reached the platter. Fail every current and future
			// waiter rather than pretend.
			s.flushErr = err
		} else if target > s.durableLSN {
			s.durableLSN = target
		}
		s.fcond.Broadcast()
	}
}

// markDurable records that every LSN up to lsn is on stable storage
// (a direct Sync, or a compaction whose snapshot now covers the log)
// and releases group-commit waiters. Caller holds s.mu.
func (s *Store) markDurable(lsn uint64) {
	s.fmu.Lock()
	if lsn > s.durableLSN {
		s.durableLSN = lsn
	}
	s.fcond.Broadcast()
	s.fmu.Unlock()
}
