package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitBatchesFsyncs drives N concurrent appenders through a
// group-commit store and asserts the flush leader actually batched:
// far fewer physical fsyncs than appends, with nothing lost.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	s.window = 2 * time.Millisecond
	const writers = 32
	const perWriter = 4
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := Record{
					Kind: RecRetune, VM: fmt.Sprintf("vm-%02d", w),
					Budget: 0.3, MaxPeriodMS: int64(1000 + i),
				}
				if err := s.Append(rec); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	const appends = writers * perWriter
	if got := s.LSN(); got != appends {
		t.Fatalf("LSN = %d, want %d", got, appends)
	}
	syncs := s.Fsyncs()
	if syncs == 0 {
		t.Fatal("no fsync issued at all — records were never made durable")
	}
	// With 32 goroutines in flight every 2 ms flush window absorbs
	// many appends; even on a pathologically scheduled machine the
	// leader can't end up syncing once per append. Half is a very
	// generous bound (a healthy run batches into well under 20 syncs).
	if syncs > appends/2 {
		t.Fatalf("group commit did not batch: %d fsyncs for %d appends", syncs, appends)
	}
	t.Logf("%d appends -> %d fsyncs", appends, syncs)

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rep.TornBytes != 0 {
		t.Fatalf("clean close left a torn tail: %+v", rep)
	}
	if s2.LSN() != appends {
		t.Fatalf("replayed LSN = %d, want %d", s2.LSN(), appends)
	}
}

// TestGroupCommitCrashMidBatch simulates a power cut at every point
// inside a batched WAL: any byte prefix of the log must reopen as a
// clean record prefix — contiguous LSNs from 1, the rest truncated as
// a torn tail, and a second open finding nothing left to repair.
func TestGroupCommitCrashMidBatch(t *testing.T) {
	dir := t.TempDir()
	// NoSync + GroupCommit: frames land back-to-back with no covering
	// sync, the exact on-disk layout of a batch cut down mid-flush.
	s, _, err := Open(dir, Options{GroupCommit: true, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s.compactAt = 0
	const records = 12
	for i := 0; i < records; i++ {
		rec := Record{Kind: RecRetune, VM: fmt.Sprintf("vm-%d", i%3), Budget: 0.5, MaxPeriodMS: int64(100 + i)}
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}

	for cut := len(walMagic); cut <= len(wal); cut += 7 {
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, walName), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, rep, err := Open(crashDir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		lsn := s2.LSN()
		if lsn > records {
			t.Fatalf("cut=%d: replayed %d records from a %d-record prefix", cut, lsn, records)
		}
		if uint64(rep.Replayed) != lsn {
			t.Fatalf("cut=%d: replayed %d but LSN %d", cut, rep.Replayed, lsn)
		}
		s2.Close()
		// Second open: the torn tail was truncated away on the first.
		s3, rep3, err := Open(crashDir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: second open: %v", cut, err)
		}
		if rep3.TornBytes != 0 {
			t.Fatalf("cut=%d: first open left %d torn bytes behind", cut, rep3.TornBytes)
		}
		if s3.LSN() != lsn {
			t.Fatalf("cut=%d: LSN changed across reopen: %d != %d", cut, s3.LSN(), lsn)
		}
		s3.Close()
	}
}

// TestGroupCommitSoloAppend: a lone appender must still commit (the
// leader path with nobody to batch with) and must really fsync.
func TestGroupCommitSoloAppend(t *testing.T) {
	s, _, err := Open(t.TempDir(), Options{GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	s.window = 0
	defer s.Close()
	if err := s.Append(Record{Kind: RecRetune, VM: "solo", Budget: 0.3, MaxPeriodMS: 500}); err != nil {
		t.Fatal(err)
	}
	if s.Fsyncs() != 1 {
		t.Fatalf("Fsyncs = %d, want 1", s.Fsyncs())
	}
}
