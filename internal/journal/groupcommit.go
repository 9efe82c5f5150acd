package journal

import "time"

// flushWindow is the group-commit absorb window: long enough to let a
// burst of concurrent appenders land in one batch. Every batch pays it,
// a lone append included, as a time.Sleep that lasts ≈ 1 ms on Linux:
// Go's netpoller rounds a timer shorter than a millisecond up to one
// (runtime/netpoll_epoll.go). The tick's acks and the API's mutations
// batch; the failure path, alone under its group's lock, calls Sync.
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
		s.mu.Lock()
		err := s.syncLocked()
		s.mu.Unlock()

		s.fmu.Lock()
		s.flushing = false
		if err != nil && s.flushErr == nil {
			s.flushErr = err // ErrClosed, which no later flush can clear either
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
