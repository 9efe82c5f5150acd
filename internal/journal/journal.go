// Package journal is the control plane's durability layer: a
// CRC32-framed, fsync-disciplined write-ahead log plus atomic
// (write-temp-then-rename) snapshots of the orchestrated fleet's
// control-plane state — which VMs are protected and on which host
// pair, each protection's period tuning and last-acknowledged epoch,
// the monotone fencing generation, and the event-log sequence.
//
// The daemon appends one Record per mutating operation before
// acknowledging it; a restarted daemon replays snapshot + log and
// re-attaches every protection. The reader tolerates torn tails (a
// partially written final frame is truncated away), reports mid-log
// corruption with typed errors, and the log is compacted into a fresh
// snapshot once it crosses a size threshold.
//
// On-disk layout, inside the state directory:
//
//	snapshot.json   8-byte magic + one CRC32 frame holding the state
//	wal.log         8-byte magic + a sequence of CRC32 frames
//
// Each frame is [len uint32le][crc32(payload) uint32le][payload] with
// a JSON-encoded Record as payload. Every record carries a monotone
// LSN; a snapshot stores the LSN it covers, so replay after a crash
// between "snapshot renamed" and "log rotated" skips the prefix of the
// log the snapshot already contains instead of double-applying it.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// File names inside the state directory.
const (
	walName  = "wal.log"
	snapName = "snapshot.json"
)

// Magic prefixes identifying the two file kinds.
const (
	walMagic  = "HEREWAL1"
	snapMagic = "HERESNP1"
)

// frameHeader is [len uint32le][crc uint32le].
const frameHeader = 8

// maxFrameBytes bounds a single record frame; control-plane records
// are tiny, so a larger length field is corruption, not data.
const maxFrameBytes = 4 << 20

// compactBytes is the log size past which Append compacts the store
// into a fresh snapshot and rotates the log.
const compactBytes = 1 << 20

// Errors reported by the store. CorruptError wraps ErrCorrupt with the
// file, offset and reason, so callers can errors.Is against the
// sentinel and still log the detail.
var (
	ErrCorrupt = errors.New("journal: corrupt")
	ErrClosed  = errors.New("journal: store closed")
)

// CorruptError describes unrecoverable corruption in a journal file:
// a full frame whose checksum does not match, an impossible frame
// length, or a mangled snapshot. A torn tail — the final frame cut
// short by a crash mid-write — is NOT corruption; the reader truncates
// it and reports the fact in Report.TornBytes.
type CorruptError struct {
	File   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: %s: corrupt at offset %d: %s", e.File, e.Offset, e.Reason)
}

// Is makes errors.Is(err, ErrCorrupt) match.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// RecordKind tags a write-ahead record.
type RecordKind string

// Record kinds, one per control-plane mutation.
const (
	// RecProtect registers a protection: spec, host pair, generation.
	RecProtect RecordKind = "protect"
	// RecUnprotect removes a protection.
	RecUnprotect RecordKind = "unprotect"
	// RecAck advances a protection's last-acknowledged checkpoint
	// epoch (scoped to its generation).
	RecAck RecordKind = "ack"
	// RecRetune records a period-controller retune (D, T_max).
	RecRetune RecordKind = "retune"
	// RecFenceIntent is the durable intent to activate the replica:
	// written before activation so a crash mid-failover is resolvable
	// on restart (did the replica come up on the target or not?).
	RecFenceIntent RecordKind = "fence-intent"
	// RecFailover commits a completed failover: new primary, new
	// generation, the replica's VM name.
	RecFailover RecordKind = "failover"
	// RecReprotect records a new secondary after re-pairing.
	RecReprotect RecordKind = "reprotect"
	// RecSecondaryLost records the loss of the replica host.
	RecSecondaryLost RecordKind = "secondary-lost"
	// RecLost records service loss (both hosts gone).
	RecLost RecordKind = "lost"
	// RecRecovery records a recovery-policy retune: the per-protection
	// in-place recovery ladder (deadline, attempt budget, backoff).
	RecRecovery RecordKind = "recovery-policy"
	// RecRebootIntent is the durable intent to recover the failed
	// primary in place (microreboot): appended before the first
	// attempt, so a daemon crash mid-ladder is resolved on restart the
	// same way an in-flight failover is.
	RecRebootIntent RecordKind = "reboot-intent"
	// RecRebooted commits a completed in-place recovery: the primary
	// microrebooted and the protection resumed without a failover.
	RecRebooted RecordKind = "rebooted"
	// RecFence bumps the daemon-wide fencing generation; appended on
	// every restart-recovery so generations strictly increase across
	// restarts and void any pre-crash activation intent.
	RecFence RecordKind = "fence"
)

// ProtectionSpec is the journaled, rebuildable VM spec: enough to
// re-create the VM and its workload after a restart. Opaque in-process
// workloads cannot be journaled; they restore as idle guests.
type ProtectionSpec struct {
	Name        string  `json:"name"`
	MemoryBytes uint64  `json:"memory_bytes"`
	VCPUs       int     `json:"vcpus"`
	Workload    string  `json:"workload,omitempty"`
	LoadPercent float64 `json:"load_percent,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	// Secondaries is the requested replica count (0 means 1); the
	// orchestrator re-plans toward this width after host losses.
	Secondaries int `json:"secondaries,omitempty"`
	// Quorum is the ack quorum committing each epoch (0 = all legs).
	Quorum int `json:"quorum,omitempty"`
}

// FenceIntent is a pending replica activation: the fencing token was
// minted and journaled, but the commit record never made it. Restart
// recovery resolves it by probing the target host for the activated
// replica.
type FenceIntent struct {
	// Generation the activation would establish.
	Generation int `json:"generation"`
	// Target is the host the replica activates on.
	Target string `json:"target"`
	// Fence is the minted fencing token.
	Fence uint64 `json:"fence"`
}

// RebootIntent is a pending in-place recovery: the orchestrator
// journaled its intent to microreboot the failed primary, but neither
// the commit (RecRebooted) nor an escalation (RecFailover) made it.
// Restart recovery resolves it from the primary's observed state: a
// healthy primary still holding the VM resumes in place, a dead one
// escalates to failover. No fencing token is at stake — microreboot
// never activates a second instance, so there is no split-brain arm.
type RebootIntent struct {
	// Target is the host being microrebooted (the failed primary).
	Target string `json:"target"`
	// Generation the protection had when the intent was journaled.
	Generation int `json:"generation"`
}

// RecoveryTuning is the journaled per-protection in-place recovery
// policy. nil means the orchestrator's configured default applies.
type RecoveryTuning struct {
	DeadlineMS  int64   `json:"deadline_ms"`
	MaxAttempts int     `json:"max_attempts"`
	BackoffMS   int64   `json:"backoff_ms"`
	Jitter      float64 `json:"jitter,omitempty"`
}

// Protection is the journaled state of one protected VM.
type Protection struct {
	Spec ProtectionSpec `json:"spec"`
	// Primary and Secondary are host names; Secondary is empty while
	// the VM runs unprotected. With an N-way chain, Secondary is the
	// first (leg 0) entry of Secondaries — kept for compatibility with
	// pre-chain journals.
	Primary   string `json:"primary"`
	Secondary string `json:"secondary,omitempty"`
	// Secondaries is the full replica host list in leg order. Empty in
	// journals written before chains existed; SecondaryList falls back
	// to Secondary then.
	Secondaries []string `json:"secondaries,omitempty"`
	// VMName is the name of the currently active VM instance —
	// "name" for generation 0, "name-gN" after failovers.
	VMName string `json:"vm_name"`
	// Generation counts failovers (the per-VM fencing generation).
	Generation int `json:"generation"`
	// AckedEpoch is the last acknowledged checkpoint epoch of the
	// current generation/pairing — the delta-resync cursor.
	AckedEpoch uint64 `json:"acked_epoch"`
	// Budget and MaxPeriodMS are the period controller's tuning.
	Budget      float64 `json:"budget"`
	MaxPeriodMS int64   `json:"max_period_ms"`
	// Lost marks a service-lost protection.
	Lost bool `json:"lost,omitempty"`
	// Pending is an unresolved activation intent, nil otherwise.
	Pending *FenceIntent `json:"pending,omitempty"`
	// PendingReboot is an unresolved in-place recovery intent, nil
	// otherwise.
	PendingReboot *RebootIntent `json:"pending_reboot,omitempty"`
	// Recovery is the protection's in-place recovery policy override,
	// nil when the daemon default applies.
	Recovery *RecoveryTuning `json:"recovery,omitempty"`
}

// SecondaryList returns the replica host list in leg order, falling
// back to the legacy single Secondary field for journals written
// before chains existed.
func (p *Protection) SecondaryList() []string {
	if len(p.Secondaries) > 0 {
		return append([]string(nil), p.Secondaries...)
	}
	if p.Secondary != "" {
		return []string{p.Secondary}
	}
	return nil
}

// State is the full journaled control-plane state: what a restarted
// daemon rebuilds the fleet from.
type State struct {
	// Fence is the daemon-wide monotone fencing generation.
	Fence uint64 `json:"fence"`
	// EventSeq is the fleet event-log sequence at the last record, so
	// a restarted event log continues monotonically.
	EventSeq uint64 `json:"event_seq"`
	// Protections is keyed by protection (VM spec) name.
	Protections map[string]*Protection `json:"protections"`
}

// Clone deep-copies the state.
func (s *State) Clone() State {
	out := State{
		Fence:       s.Fence,
		EventSeq:    s.EventSeq,
		Protections: make(map[string]*Protection, len(s.Protections)),
	}
	for name, p := range s.Protections {
		cp := *p
		if p.Pending != nil {
			pending := *p.Pending
			cp.Pending = &pending
		}
		if p.PendingReboot != nil {
			reboot := *p.PendingReboot
			cp.PendingReboot = &reboot
		}
		if p.Recovery != nil {
			rec := *p.Recovery
			cp.Recovery = &rec
		}
		cp.Secondaries = append([]string(nil), p.Secondaries...)
		out.Protections[name] = &cp
	}
	return out
}

// Record is one write-ahead log entry. Only the fields relevant to its
// Kind are set; LSN is assigned by Append.
type Record struct {
	LSN  uint64     `json:"lsn"`
	Kind RecordKind `json:"kind"`
	// VM is the protection name (not the generation-suffixed VM
	// instance name).
	VM string `json:"vm,omitempty"`
	// EventSeq is the fleet event sequence when the record was
	// appended.
	EventSeq uint64 `json:"event_seq,omitempty"`

	Spec        *ProtectionSpec `json:"spec,omitempty"`
	Primary     string          `json:"primary,omitempty"`
	Secondary   string          `json:"secondary,omitempty"`
	Secondaries []string        `json:"secondaries,omitempty"`
	VMName      string          `json:"vm_name,omitempty"`
	Target      string          `json:"target,omitempty"`
	Generation  int             `json:"generation,omitempty"`
	Fence       uint64          `json:"fence,omitempty"`
	Epoch       uint64          `json:"epoch,omitempty"`
	Budget      float64         `json:"budget,omitempty"`
	MaxPeriodMS int64           `json:"max_period_ms,omitempty"`
	Recovery    *RecoveryTuning `json:"recovery,omitempty"`
}

// apply folds one record into the state — the replay reducer. Records
// for unknown protections (e.g. an ack racing an unprotect) are
// dropped silently: the WAL is ordered, so that only happens when the
// protection was legitimately removed.
func (s *State) apply(r Record) {
	if r.EventSeq > s.EventSeq {
		s.EventSeq = r.EventSeq
	}
	if r.Fence > s.Fence {
		s.Fence = r.Fence
	}
	switch r.Kind {
	case RecProtect:
		spec := ProtectionSpec{Name: r.VM}
		if r.Spec != nil {
			spec = *r.Spec
		}
		vmName := r.VMName
		if vmName == "" {
			vmName = r.VM
		}
		secondaries := append([]string(nil), r.Secondaries...)
		secondary := r.Secondary
		if len(secondaries) == 0 && secondary != "" {
			secondaries = []string{secondary}
		}
		if len(secondaries) > 0 {
			secondary = secondaries[0]
		}
		s.Protections[r.VM] = &Protection{
			Spec:        spec,
			Primary:     r.Primary,
			Secondary:   secondary,
			Secondaries: secondaries,
			VMName:      vmName,
			Generation:  r.Generation,
			Budget:      r.Budget,
			MaxPeriodMS: r.MaxPeriodMS,
		}
	case RecUnprotect:
		delete(s.Protections, r.VM)
	case RecAck:
		if p := s.Protections[r.VM]; p != nil && r.Generation == p.Generation {
			p.AckedEpoch = r.Epoch
		}
	case RecRetune:
		if p := s.Protections[r.VM]; p != nil {
			p.Budget, p.MaxPeriodMS = r.Budget, r.MaxPeriodMS
		}
	case RecRecovery:
		if p := s.Protections[r.VM]; p != nil && r.Recovery != nil {
			rec := *r.Recovery
			p.Recovery = &rec
		}
	case RecFenceIntent:
		if p := s.Protections[r.VM]; p != nil {
			p.Pending = &FenceIntent{
				Generation: r.Generation, Target: r.Target, Fence: r.Fence,
			}
		}
	case RecRebootIntent:
		if p := s.Protections[r.VM]; p != nil {
			p.PendingReboot = &RebootIntent{Target: r.Target, Generation: r.Generation}
		}
	case RecRebooted:
		if p := s.Protections[r.VM]; p != nil {
			p.PendingReboot = nil
		}
	case RecFailover:
		if p := s.Protections[r.VM]; p != nil {
			p.Generation = r.Generation
			p.Primary = r.Primary
			p.Secondary = ""
			p.Secondaries = nil
			p.VMName = r.VMName
			p.AckedEpoch = 0
			p.Pending = nil
			// An escalation resolves any in-flight in-place recovery.
			p.PendingReboot = nil
		}
	case RecReprotect:
		// Carries the FULL current secondary list (not an increment), so
		// replay converges on the live chain regardless of which legs
		// were dropped or added in between.
		if p := s.Protections[r.VM]; p != nil {
			secondaries := append([]string(nil), r.Secondaries...)
			if len(secondaries) == 0 && r.Secondary != "" {
				secondaries = []string{r.Secondary}
			}
			p.Secondaries = secondaries
			p.Secondary = ""
			if len(secondaries) > 0 {
				p.Secondary = secondaries[0]
			}
			p.AckedEpoch = 0
		}
	case RecSecondaryLost:
		if p := s.Protections[r.VM]; p != nil {
			p.Secondary = ""
			p.Secondaries = nil
		}
	case RecLost:
		if p := s.Protections[r.VM]; p != nil {
			p.Lost = true
			p.Secondary = ""
			p.Secondaries = nil
		}
	case RecFence:
		// A restart voids every unresolved activation intent: recovery
		// resolved them (or found them never-started) before appending
		// this record. In-flight in-place recoveries resolve the same
		// way — from the primary's observed state, not the journal.
		for _, p := range s.Protections {
			p.Pending = nil
			p.PendingReboot = nil
		}
	}
}

// Options tunes a Store.
type Options struct {
	// NoSync skips the per-append fsync (tests; NOT crash-safe).
	NoSync bool
	// GroupCommit batches concurrent appenders behind one fsync: each
	// Append writes its frame under the store lock, then waits for a
	// flush leader to sync the log up to (at least) its LSN. N
	// concurrent writers cost ~1 fsync instead of N — the knob the
	// sharded fleet scheduler turns so per-group pump goroutines don't
	// serialize on the disk.
	GroupCommit bool
}

// Report describes what Open found on disk.
type Report struct {
	// SnapshotLSN is the LSN the loaded snapshot covered (0 if none).
	SnapshotLSN uint64
	// Replayed is the number of log records applied on top of the
	// snapshot. Zero with a snapshot present means the previous run
	// shut down cleanly and replay was skipped.
	Replayed int
	// TornBytes is the size of the torn tail truncated from the log.
	TornBytes int64
	// Clean reports a clean-shutdown start: a snapshot was present and
	// no log records needed replay.
	Clean bool
}

// snapshotDoc is the snapshot file payload.
type snapshotDoc struct {
	LSN   uint64 `json:"lsn"`
	State State  `json:"state"`
}

// Store is the write-ahead journal plus snapshot state for one control
// plane. It is safe for concurrent use; Append durably persists the
// record (frame + fsync) before returning.
type Store struct {
	dir  string
	opts Options
	// compactAt and window are compactBytes and flushWindow, fields only
	// so that the package's tests can change them after Open: a
	// non-positive compactAt never compacts, a non-positive window
	// syncs at once.
	compactAt int64
	window    time.Duration

	mu      sync.Mutex
	wal     *os.File
	walSize int64
	lsn     uint64
	state   State
	closed  bool

	// Group-commit flush state (Options.GroupCommit). Lock order:
	// s.mu before fmu when both are needed; the flush leader never
	// holds fmu while taking s.mu.
	fmu        sync.Mutex
	fcond      *sync.Cond
	flushing   bool   // a leader is absorbing/flushing a batch
	durableLSN uint64 // highest LSN known to be on stable storage
	flushErr   error  // sticky: durability is unknown after a failed sync

	fsyncs atomic.Uint64 // physical WAL fsyncs issued
}

// Open loads (or initializes) the journal in dir: the snapshot is
// read if present, the log replayed on top of it, and a torn tail
// truncated away. Mid-log corruption fails with a *CorruptError
// (errors.Is ErrCorrupt) — nothing is silently dropped.
func Open(dir string, opts Options) (*Store, Report, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Report{}, fmt.Errorf("journal: %w", err)
	}
	s := &Store{
		dir:       dir,
		opts:      opts,
		compactAt: compactBytes,
		window:    flushWindow,
		state: State{
			Protections: make(map[string]*Protection),
		},
	}
	s.fcond = sync.NewCond(&s.fmu)
	var rep Report
	snapLoaded, err := s.loadSnapshot()
	if err != nil {
		return nil, Report{}, err
	}
	rep.SnapshotLSN = s.lsn
	if err := s.replayLog(&rep); err != nil {
		return nil, Report{}, err
	}
	rep.Clean = snapLoaded && rep.Replayed == 0 && rep.TornBytes == 0
	if err := s.openWAL(); err != nil {
		return nil, Report{}, err
	}
	return s, rep, nil
}

// loadSnapshot reads the snapshot file if present, returning whether
// one was loaded.
func (s *Store) loadSnapshot() (bool, error) {
	path := filepath.Join(s.dir, snapName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("journal: %w", err)
	}
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return false, &CorruptError{File: snapName, Offset: 0, Reason: "bad magic"}
	}
	payload, _, err := readFrame(snapName, data[len(snapMagic):], int64(len(snapMagic)))
	if err != nil {
		// A torn snapshot cannot happen under the rename discipline, so
		// any framing failure here is corruption.
		var torn *tornTail
		if errors.As(err, &torn) {
			return false, &CorruptError{File: snapName, Offset: torn.offset, Reason: "truncated snapshot"}
		}
		return false, err
	}
	var doc snapshotDoc
	if err := json.Unmarshal(payload, &doc); err != nil {
		return false, &CorruptError{File: snapName, Offset: int64(len(snapMagic)), Reason: "bad json: " + err.Error()}
	}
	if doc.State.Protections == nil {
		doc.State.Protections = make(map[string]*Protection)
	}
	s.state = doc.State
	s.lsn = doc.LSN
	return true, nil
}

// tornTail marks an incomplete final frame — a crash mid-append.
type tornTail struct{ offset int64 }

func (e *tornTail) Error() string {
	return fmt.Sprintf("journal: torn tail at offset %d", e.offset)
}

// readFrame parses one [len][crc][payload] frame from data, returning
// the payload and total frame size. off is data's offset within the
// file, for error reporting. An incomplete frame returns *tornTail; a
// complete frame with a bad checksum or impossible length returns
// *CorruptError.
func readFrame(file string, data []byte, off int64) (payload []byte, size int64, err error) {
	if len(data) < frameHeader {
		return nil, 0, &tornTail{offset: off}
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	crc := binary.LittleEndian.Uint32(data[4:8])
	if n == 0 || n > maxFrameBytes {
		// An impossible length with the bytes to "cover" it is
		// corruption; if the claimed frame runs past EOF it is
		// indistinguishable from a torn write, so treat it as one only
		// when nothing follows the header.
		if int64(n) > int64(len(data)-frameHeader) {
			return nil, 0, &tornTail{offset: off}
		}
		return nil, 0, &CorruptError{File: file, Offset: off, Reason: fmt.Sprintf("impossible frame length %d", n)}
	}
	if int(n) > len(data)-frameHeader {
		return nil, 0, &tornTail{offset: off}
	}
	payload = data[frameHeader : frameHeader+int(n)]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, &CorruptError{File: file, Offset: off, Reason: "checksum mismatch"}
	}
	return payload, frameHeader + int64(n), nil
}

// replayLog applies the WAL on top of the loaded snapshot, truncating
// a torn tail in place.
func (s *Store) replayLog(rep *Report) error {
	path := filepath.Join(s.dir, walName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if len(data) < len(walMagic) {
		// The magic itself was torn; rewrite the file from scratch.
		rep.TornBytes = int64(len(data))
		return os.Remove(path)
	}
	if string(data[:len(walMagic)]) != walMagic {
		return &CorruptError{File: walName, Offset: 0, Reason: "bad magic"}
	}
	off := int64(len(walMagic))
	for off < int64(len(data)) {
		payload, size, err := readFrame(walName, data[off:], off)
		if err != nil {
			var torn *tornTail
			if errors.As(err, &torn) {
				rep.TornBytes = int64(len(data)) - off
				return os.Truncate(path, off)
			}
			return err
		}
		var rec Record
		if jerr := json.Unmarshal(payload, &rec); jerr != nil {
			return &CorruptError{File: walName, Offset: off, Reason: "bad json: " + jerr.Error()}
		}
		if rec.LSN > s.lsn {
			s.state.apply(rec)
			s.lsn = rec.LSN
			rep.Replayed++
		}
		off += size
	}
	return nil
}

// openWAL opens (creating if needed) the log for appending.
func (s *Store) openWAL() error {
	path := filepath.Join(s.dir, walName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if st.Size() == 0 {
		if _, err := f.Write([]byte(walMagic)); err != nil {
			f.Close()
			return fmt.Errorf("journal: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("journal: %w", err)
		}
		s.walSize = int64(len(walMagic))
	} else {
		if _, err := f.Seek(0, 2); err != nil {
			f.Close()
			return fmt.Errorf("journal: %w", err)
		}
		s.walSize = st.Size()
	}
	s.wal = f
	return nil
}

// State returns a deep copy of the current journaled state.
func (s *Store) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Clone()
}

// LSN reports the last assigned record sequence number.
func (s *Store) LSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lsn
}

// LogSize reports the current WAL size in bytes.
func (s *Store) LogSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walSize
}

// Append durably logs one record: frame, write, fsync (unless
// NoSync), then fold it into the in-memory state. Crossing the
// compaction threshold snapshots and rotates the log before returning.
// With GroupCommit the fsync is deferred to a shared flush leader and
// Append returns once a batched sync has covered its LSN.
func (s *Store) Append(rec Record) error { return s.append(rec, true) }

// AppendNoWait logs one record like Append but returns once the frame is
// written, before it is durable: the next Append (or Sync) covers it,
// and a machine crash before that may lose it, as a torn tail would. Only
// for a record whose loss recovery already resolves.
func (s *Store) AppendNoWait(rec Record) error { return s.append(rec, false) }

func (s *Store) append(rec Record, wait bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.lsn++
	rec.LSN = s.lsn
	payload, err := json.Marshal(rec)
	if err != nil {
		s.lsn--
		s.mu.Unlock()
		return fmt.Errorf("journal: marshal: %w", err)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	if _, err := s.wal.Write(frame); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("journal: append: %w", err)
	}
	if wait && !s.opts.GroupCommit && !s.opts.NoSync {
		if err := s.wal.Sync(); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("journal: fsync: %w", err)
		}
		s.fsyncs.Add(1)
	}
	s.walSize += int64(len(frame))
	s.state.apply(rec)
	if s.compactAt > 0 && s.walSize > s.compactAt {
		// The snapshot write below is itself synced, so the rotation
		// leaves every appended record durable — group-commit waiters
		// included (compactLocked raises the durable watermark).
		err := s.compactLocked()
		s.mu.Unlock()
		return err
	}
	if wait && s.opts.GroupCommit {
		if s.opts.NoSync {
			// Nothing to batch without fsyncs: settle the LSN now
			// instead of paying the flush window per append.
			s.markDurable(s.lsn)
			s.mu.Unlock()
			return nil
		}
		lsn := s.lsn
		s.mu.Unlock()
		return s.waitDurable(lsn)
	}
	s.mu.Unlock()
	return nil
}

// Compact snapshots the current state atomically and rotates the log.
// The daemon calls it on graceful shutdown so the next start skips log
// replay entirely.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

// compactLocked writes snapshot.json via temp-file + rename (durable
// before the log is touched), then truncates the log back to its
// magic. A crash between the two leaves snapshot + full log; replay
// skips records with LSN <= the snapshot's. Caller holds s.mu.
func (s *Store) compactLocked() error {
	doc := snapshotDoc{LSN: s.lsn, State: s.state.Clone()}
	payload, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("journal: snapshot marshal: %w", err)
	}
	buf := make([]byte, len(snapMagic)+frameHeader+len(payload))
	copy(buf, snapMagic)
	binary.LittleEndian.PutUint32(buf[len(snapMagic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[len(snapMagic)+4:], crc32.ChecksumIEEE(payload))
	copy(buf[len(snapMagic)+frameHeader:], payload)

	tmp := filepath.Join(s.dir, snapName+".tmp")
	final := filepath.Join(s.dir, snapName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if !s.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("journal: snapshot fsync: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("journal: snapshot rename: %w", err)
	}
	if !s.opts.NoSync {
		if err := syncDir(s.dir); err != nil {
			return err
		}
	}

	// Snapshot durable; rotate the log.
	if err := s.wal.Truncate(int64(len(walMagic))); err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	if _, err := s.wal.Seek(int64(len(walMagic)), 0); err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	if !s.opts.NoSync {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("journal: rotate fsync: %w", err)
		}
	}
	s.walSize = int64(len(walMagic))
	// Everything appended so far is covered by the synced snapshot:
	// release any group-commit waiters up to the current LSN.
	s.markDurable(s.lsn)
	return nil
}

// syncDir fsyncs the directory entry so a rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: dir fsync: %w", err)
	}
	return nil
}

// Sync forces the log to stable storage (used by NoSync stores at
// quiesce points, e.g. graceful shutdown).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.fsyncs.Add(1)
	s.markDurable(s.lsn)
	return nil
}

// Fsyncs reports how many physical WAL fsyncs the store has issued
// for appended records (group-commit batching makes this far smaller
// than the append count under concurrency).
func (s *Store) Fsyncs() uint64 { return s.fsyncs.Load() }

// Close flushes and closes the store. Further appends fail with
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.wal.Sync(); err != nil {
		s.wal.Close()
		return fmt.Errorf("journal: %w", err)
	}
	s.fsyncs.Add(1)
	// The final sync covered every written frame; release any
	// group-commit waiters racing the shutdown.
	s.markDurable(s.lsn)
	return s.wal.Close()
}
