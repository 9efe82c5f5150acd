package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
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

// TestSyncIsOneFsyncWithoutTheWindow: Sync makes the records written
// before it durable with one fsync and does not wait for a group-commit
// window, so it costs the same with and without group commit; under
// NoSync it issues none, as a waited Append would not.
func TestSyncIsOneFsyncWithoutTheWindow(t *testing.T) {
	for _, opts := range []Options{{}, {GroupCommit: true}, {NoSync: true}, {NoSync: true, GroupCommit: true}} {
		s, _ := openT(t, t.TempDir(), opts)
		s.window = time.Hour
		for _, rec := range []Record{
			{Kind: RecProtect, VM: "svc", Primary: "xen0", Secondary: "kvm0"},
			{Kind: RecFenceIntent, VM: "svc", Generation: 1, Target: "kvm0", Fence: 1},
		} {
			if err := s.AppendNoWait(rec); err != nil {
				t.Fatal(err)
			}
		}
		want := uint64(1)
		if opts.NoSync {
			want = 0
		}
		if err := s.Sync(); err != nil || s.Fsyncs() != want {
			t.Fatalf("%+v: Sync = %v after %d fsyncs, want nil after %d", opts, err, s.Fsyncs(), want)
		}
		// The watermark covers both records.
		s.fmu.Lock()
		durable := s.durableLSN
		s.fmu.Unlock()
		if durable != 2 {
			t.Fatalf("%+v: durable LSN %d after Sync, want 2", opts, durable)
		}
	}
}

// TestFailedFsyncIsSticky swaps the WAL for the write end of a pipe,
// where writes succeed and fsync fails with EINVAL. Whichever path meets
// the failure first — a plain Append, a group-commit Append or Sync —
// returns it, and every later Append, AppendNoWait and Sync returns it
// too, even once fsync works again: after a failed fsync no later one
// can prove that the frames written before it reached the disk. The
// failed Append's record is in the log, so it is in the state as well.
func TestFailedFsyncIsSticky(t *testing.T) {
	rec := Record{Kind: RecProtect, VM: "svc", Primary: "xen0", Secondary: "kvm0"}
	for _, tc := range []struct {
		name  string
		opts  Options
		first func(*Store) error
	}{
		{"append", Options{}, func(s *Store) error { return s.Append(rec) }},
		{"group-commit-append", Options{GroupCommit: true}, func(s *Store) error { return s.Append(rec) }},
		{"sync", Options{}, func(s *Store) error {
			if err := s.AppendNoWait(rec); err != nil {
				return err
			}
			return s.Sync()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := openT(t, t.TempDir(), tc.opts)
			s.window = 0
			r, w, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			defer w.Close()
			swap := func(f *os.File) *os.File {
				s.mu.Lock()
				defer s.mu.Unlock()
				old := s.wal
				s.wal = f
				return old
			}
			file := swap(w)
			if err := tc.first(s); !errors.Is(err, syscall.EINVAL) {
				t.Fatalf("first call = %v, want the fsync's EINVAL", err)
			}
			if s.State().Protections["svc"] == nil {
				t.Fatal("the record the failed call wrote is in the log but not in the state")
			}
			swap(file) // fsync works again
			for name, call := range map[string]func() error{
				"Append":       func() error { return s.Append(Record{Kind: RecFence, Fence: 1}) },
				"AppendNoWait": func() error { return s.AppendNoWait(Record{Kind: RecFence, Fence: 2}) },
				"Sync":         s.Sync,
			} {
				if err := call(); !errors.Is(err, syscall.EINVAL) {
					t.Fatalf("%s after the failed fsync = %v, want the same EINVAL", name, err)
				}
			}
			if s.Fsyncs() != 0 || s.LSN() != 1 {
				t.Fatalf("%d fsyncs and LSN %d after the failure, want 0 and 1", s.Fsyncs(), s.LSN())
			}
		})
	}
}
