package journal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, dir string, opts Options) (*Store, Report) {
	t.Helper()
	s, rep, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, rep
}

func appendT(t *testing.T, s *Store, rec Record) {
	t.Helper()
	if err := s.Append(rec); err != nil {
		t.Fatalf("Append(%s): %v", rec.Kind, err)
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rep := openT(t, dir, Options{})
	if rep.Clean || rep.Replayed != 0 || rep.SnapshotLSN != 0 {
		t.Fatalf("fresh open report = %+v", rep)
	}
	appendT(t, s, Record{Kind: RecProtect, VM: "svc", EventSeq: 1,
		Spec:    &ProtectionSpec{Name: "svc", MemoryBytes: 1 << 20, VCPUs: 2, Workload: "membench", LoadPercent: 40, Seed: 7},
		Primary: "xen0", Secondary: "kvm0", Budget: 0.3, MaxPeriodMS: 25000})
	appendT(t, s, Record{Kind: RecAck, VM: "svc", Epoch: 3, EventSeq: 2})
	appendT(t, s, Record{Kind: RecRetune, VM: "svc", Budget: 0.5, MaxPeriodMS: 10000, EventSeq: 3})
	appendT(t, s, Record{Kind: RecFence, Fence: 4, EventSeq: 4})
	s.Close()

	s2, rep2 := openT(t, dir, Options{})
	if rep2.Replayed != 4 {
		t.Fatalf("Replayed = %d, want 4", rep2.Replayed)
	}
	st := s2.State()
	p := st.Protections["svc"]
	if p == nil {
		t.Fatal("protection svc lost on replay")
	}
	if p.Spec.Workload != "membench" || p.Spec.Seed != 7 || p.Spec.MemoryBytes != 1<<20 {
		t.Errorf("spec = %+v", p.Spec)
	}
	if p.AckedEpoch != 3 {
		t.Errorf("AckedEpoch = %d, want 3", p.AckedEpoch)
	}
	if p.Budget != 0.5 || p.MaxPeriodMS != 10000 {
		t.Errorf("retune lost: budget=%v maxPeriod=%d", p.Budget, p.MaxPeriodMS)
	}
	if st.Fence != 4 {
		t.Errorf("Fence = %d, want 4", st.Fence)
	}
	if st.EventSeq != 4 {
		t.Errorf("EventSeq = %d, want 4", st.EventSeq)
	}
}

func TestFailoverLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendT(t, s, Record{Kind: RecProtect, VM: "svc", Primary: "xen0", Secondary: "kvm0",
		Spec: &ProtectionSpec{Name: "svc"}})
	appendT(t, s, Record{Kind: RecAck, VM: "svc", Epoch: 9})
	appendT(t, s, Record{Kind: RecFenceIntent, VM: "svc", Generation: 1, Target: "kvm0", Fence: 2})

	st := s.State()
	if p := st.Protections["svc"]; p.Pending == nil || p.Pending.Target != "kvm0" || p.Pending.Fence != 2 {
		t.Fatalf("pending intent = %+v", p.Pending)
	}

	appendT(t, s, Record{Kind: RecFailover, VM: "svc", Generation: 1, Primary: "kvm0", VMName: "svc-g1", Fence: 2})
	st = s.State()
	p := st.Protections["svc"]
	if p.Pending != nil {
		t.Error("failover commit should clear pending intent")
	}
	if p.Generation != 1 || p.Primary != "kvm0" || p.VMName != "svc-g1" {
		t.Errorf("post-failover = %+v", p)
	}
	if p.AckedEpoch != 0 {
		t.Errorf("AckedEpoch = %d, want reset to 0 after failover", p.AckedEpoch)
	}

	// A stale ack from the previous generation must not advance the
	// new generation's cursor.
	appendT(t, s, Record{Kind: RecAck, VM: "svc", Generation: 0, Epoch: 10})
	if got := s.State().Protections["svc"].AckedEpoch; got != 0 {
		t.Errorf("stale-generation ack applied: AckedEpoch = %d", got)
	}
	appendT(t, s, Record{Kind: RecAck, VM: "svc", Generation: 1, Epoch: 2})
	if got := s.State().Protections["svc"].AckedEpoch; got != 2 {
		t.Errorf("current-generation ack ignored: AckedEpoch = %d", got)
	}

	appendT(t, s, Record{Kind: RecReprotect, VM: "svc", Secondary: "xen1"})
	p = s.State().Protections["svc"]
	if p.Secondary != "xen1" || p.AckedEpoch != 0 {
		t.Errorf("reprotect: secondary=%q acked=%d", p.Secondary, p.AckedEpoch)
	}

	appendT(t, s, Record{Kind: RecUnprotect, VM: "svc"})
	if len(s.State().Protections) != 0 {
		t.Error("unprotect did not remove the protection")
	}
}

// TestTornTail crash-truncates the log mid-frame at several points and
// verifies the intact prefix replays and the tail is truncated away.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendT(t, s, Record{Kind: RecProtect, VM: "a", Spec: &ProtectionSpec{Name: "a"}})
	appendT(t, s, Record{Kind: RecProtect, VM: "b", Spec: &ProtectionSpec{Name: "b"}})
	s.Close()

	path := filepath.Join(dir, walName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the second frame one byte into its header, mid-header, at a
	// whole header with no payload, mid-payload and one byte short.
	second := len(walMagic) + frameHeader + int(binary.LittleEndian.Uint32(full[len(walMagic):]))
	payload := len(full) - second - frameHeader
	if payload < 2 {
		t.Fatalf("second frame payload is %d bytes: too short to cut inside", payload)
	}
	for _, cut := range []int{second + 1, second + 4, second + frameHeader, second + frameHeader + payload/2, len(full) - 1} {
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, walName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, rep := openT(t, dir2, Options{})
		if rep.TornBytes == 0 {
			t.Errorf("cut=%d: TornBytes = 0, want > 0", cut)
		}
		st := s2.State()
		if st.Protections["a"] == nil {
			t.Errorf("cut=%d: intact prefix record lost", cut)
		}
		if st.Protections["b"] != nil {
			t.Errorf("cut=%d: torn record silently applied", cut)
		}
		// The truncated log must append cleanly.
		appendT(t, s2, Record{Kind: RecProtect, VM: "c", Spec: &ProtectionSpec{Name: "c"}})
		s2.Close()
		s3, rep3 := openT(t, dir2, Options{})
		if rep3.TornBytes != 0 {
			t.Errorf("cut=%d: tail still torn after truncate+append", cut)
		}
		if s3.State().Protections["c"] == nil {
			t.Errorf("cut=%d: post-truncate append lost", cut)
		}
	}
}

// TestMidLogCorruption flips a byte in the FIRST frame (a fully
// present frame) and expects a typed ErrCorrupt, not silent loss.
func TestMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendT(t, s, Record{Kind: RecProtect, VM: "a", Spec: &ProtectionSpec{Name: "a"}})
	appendT(t, s, Record{Kind: RecProtect, VM: "b", Spec: &ProtectionSpec{Name: "b"}})
	s.Close()

	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(walMagic)+frameHeader+2] ^= 0xFF // payload byte of frame 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt mid-log = %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *CorruptError", err)
	}
	if ce.File != walName {
		t.Errorf("CorruptError.File = %q", ce.File)
	}
}

func TestBadMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), []byte("NOTAWAL!junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic = %v, want ErrCorrupt", err)
	}
}

func TestImpossibleFrameLength(t *testing.T) {
	dir := t.TempDir()
	buf := []byte(walMagic)
	hdr := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(hdr, maxFrameBytes+1)
	buf = append(buf, hdr...)
	// Enough trailing bytes that the frame is not a plausible torn tail.
	buf = append(buf, make([]byte, maxFrameBytes+2)...)
	if err := os.WriteFile(filepath.Join(dir, walName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("impossible length = %v, want ErrCorrupt", err)
	}
}

// TestCompaction verifies auto-compaction snapshots + rotates, that
// replay skips snapshot-covered LSNs, and that state survives.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	s.compactAt = 512
	for i := 0; i < 50; i++ {
		appendT(t, s, Record{Kind: RecAck, VM: "svc", Epoch: uint64(i)})
	}
	appendT(t, s, Record{Kind: RecProtect, VM: "svc", Spec: &ProtectionSpec{Name: "svc"}, Primary: "xen0"})
	appendT(t, s, Record{Kind: RecAck, VM: "svc", Epoch: 99})
	if s.LogSize() >= 512+int64(len(walMagic)) {
		// At least one compaction must have fired along the way.
		t.Fatalf("LogSize = %d, compaction never rotated", s.LogSize())
	}
	lsn := s.LSN()
	s.Close()

	s2, rep := openT(t, dir, Options{})
	if rep.SnapshotLSN == 0 {
		t.Fatal("no snapshot written by compaction")
	}
	if s2.LSN() != lsn {
		t.Errorf("LSN after reopen = %d, want %d", s2.LSN(), lsn)
	}
	p := s2.State().Protections["svc"]
	if p == nil || p.AckedEpoch != 99 {
		t.Fatalf("state after compacted reopen = %+v", p)
	}
}

// TestCleanShutdown verifies Compact-on-shutdown yields a replay-free
// (Clean) next open.
func TestCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendT(t, s, Record{Kind: RecProtect, VM: "svc", Spec: &ProtectionSpec{Name: "svc"}, Primary: "xen0", Secondary: "kvm1"})
	appendT(t, s, Record{Kind: RecAck, VM: "svc", Epoch: 7})
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	s.Close()

	s2, rep := openT(t, dir, Options{})
	if !rep.Clean {
		t.Errorf("report after clean shutdown = %+v, want Clean", rep)
	}
	if rep.Replayed != 0 {
		t.Errorf("Replayed = %d, want 0 (snapshot should cover everything)", rep.Replayed)
	}
	p := s2.State().Protections["svc"]
	if p == nil || p.AckedEpoch != 7 || p.Secondary != "kvm1" {
		t.Fatalf("state after clean reopen = %+v", p)
	}
}

// TestSnapshotPlusFullLog simulates a crash between "snapshot renamed"
// and "log rotated": the log still holds records the snapshot already
// covers, and replay must skip them (LSN dedup), not double-apply.
func TestSnapshotPlusFullLog(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendT(t, s, Record{Kind: RecProtect, VM: "svc", Spec: &ProtectionSpec{Name: "svc"}})
	appendT(t, s, Record{Kind: RecAck, VM: "svc", Epoch: 5})
	s.Close()
	walBytes, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}

	s, _ = openT(t, dir, Options{})
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Undo the rotation: restore the pre-compaction log alongside the
	// new snapshot.
	if err := os.WriteFile(filepath.Join(dir, walName), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rep := openT(t, dir, Options{})
	if rep.Replayed != 0 {
		t.Errorf("Replayed = %d, want 0 (all log LSNs covered by snapshot)", rep.Replayed)
	}
	if p := s2.State().Protections["svc"]; p == nil || p.AckedEpoch != 5 {
		t.Fatalf("state = %+v", p)
	}
}

func TestCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendT(t, s, Record{Kind: RecProtect, VM: "svc", Spec: &ProtectionSpec{Name: "svc"}})
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, snapName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot = %v, want ErrCorrupt", err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	s, _ := openT(t, t.TempDir(), Options{})
	s.Close()
	if err := s.Append(Record{Kind: RecFence, Fence: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

func TestStateCloneIsolation(t *testing.T) {
	s, _ := openT(t, t.TempDir(), Options{})
	appendT(t, s, Record{Kind: RecProtect, VM: "svc", Spec: &ProtectionSpec{Name: "svc"}})
	appendT(t, s, Record{Kind: RecFenceIntent, VM: "svc", Generation: 1, Target: "kvm0", Fence: 1})
	st := s.State()
	st.Protections["svc"].Pending.Fence = 999
	st.Protections["svc"].Generation = 42
	delete(st.Protections, "svc")
	st2 := s.State()
	p := st2.Protections["svc"]
	if p == nil || p.Generation != 0 || p.Pending.Fence != 1 {
		t.Fatalf("mutating a State() copy leaked into the store: %+v", p)
	}
}

// TestAppendNoWaitIsCoveredByTheNextWait: an un-waited append writes its
// frame and folds into the state at once but costs no fsync; the next
// Append's wait — plain or group commit — or a Sync makes both durable
// with one, and a restart replays both.
func TestAppendNoWaitIsCoveredByTheNextWait(t *testing.T) {
	for _, opts := range []Options{{}, {GroupCommit: true}} {
		dir := t.TempDir()
		s, _ := openT(t, dir, opts)
		s.window = 0
		appendT(t, s, Record{Kind: RecProtect, VM: "svc", Primary: "xen0", Secondary: "kvm0"})
		appendT(t, s, Record{Kind: RecFenceIntent, VM: "svc", Generation: 1, Target: "kvm0", Fence: 1})
		base, size := s.Fsyncs(), s.LogSize()
		if err := s.AppendNoWait(Record{Kind: RecFailover, VM: "svc", Generation: 1, Primary: "kvm0", VMName: "svc-g1", Fence: 1}); err != nil {
			t.Fatal(err)
		}
		if p := s.State().Protections["svc"]; s.Fsyncs() != base || s.LogSize() <= size || p.Generation != 1 || p.Pending != nil {
			t.Fatalf("%+v: after the un-waited append: %d fsyncs (was %d), log %d bytes (was %d), state %+v",
				opts, s.Fsyncs(), base, s.LogSize(), size, p)
		}
		appendT(t, s, Record{Kind: RecReprotect, VM: "svc", Secondary: "xen0"})
		if got := s.Fsyncs(); got != base+1 {
			t.Fatalf("%+v: %d fsyncs for the pair, want one", opts, got-base)
		}
		if err := s.AppendNoWait(Record{Kind: RecAck, VM: "svc", Generation: 1, Epoch: 5}); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil || s.Fsyncs() != base+2 {
			t.Fatalf("%+v: Sync after an un-waited append: %v, %d fsyncs", opts, err, s.Fsyncs()-base)
		}
		s.Close()
		s2, rep := openT(t, dir, opts)
		if p := s2.State().Protections["svc"]; rep.Replayed != 5 || p.Primary != "kvm0" || p.Secondary != "xen0" || p.AckedEpoch != 5 {
			t.Fatalf("%+v: replayed %d records into %+v", opts, rep.Replayed, p)
		}
	}
}
