// Package blockdev implements the PV block device path of HERE's
// device manager: a virtual disk whose writes are journaled per
// checkpoint epoch and replicated to the secondary host alongside
// memory state.
//
// The protocol mirrors the network side's output buffering (§5.2),
// with the direction reversed: network *output* is held back until
// the checkpoint commits (clients must not see uncommitted state),
// while disk writes are applied locally at once (the guest needs its
// own writes) but reach the replica's disk only when their checkpoint
// is acknowledged. On failover the replica disk therefore reflects
// exactly the last acknowledged checkpoint — crash-consistent with
// the replicated memory image.
//
// Only paravirtualized disks can be replicated this way; passthrough
// block devices have no interception point, which is why HERE
// restricts itself to PV devices (§7.3).
package blockdev

import (
	"errors"
	"fmt"
	"sync"
)

// SectorSize is the virtual disk's sector size in bytes.
const SectorSize = 512

// Errors reported by disks.
var (
	ErrOutOfRange = errors.New("blockdev: sector out of range")
	ErrShortData  = errors.New("blockdev: data not sector-aligned")
)

// Disk is a sparse virtual disk. It is safe for concurrent use.
type Disk struct {
	mu      sync.Mutex
	sectors map[uint64][]byte
	n       uint64
}

// NewDisk returns an empty disk with the given capacity in bytes
// (rounded down to whole sectors).
func NewDisk(capacityBytes uint64) *Disk {
	return &Disk{
		sectors: make(map[uint64][]byte),
		n:       capacityBytes / SectorSize,
	}
}

// WriteSector stores one sector.
func (d *Disk) WriteSector(sector uint64, data []byte) error {
	if sector >= d.n {
		return fmt.Errorf("%w: sector %d of %d", ErrOutOfRange, sector, d.n)
	}
	if len(data) != SectorSize {
		return fmt.Errorf("%w: %d bytes", ErrShortData, len(data))
	}
	buf := make([]byte, SectorSize)
	copy(buf, data)
	d.mu.Lock()
	d.sectors[sector] = buf
	d.mu.Unlock()
	return nil
}

// ReadSector reads one sector into dst (zero-filled if never written).
func (d *Disk) ReadSector(sector uint64, dst []byte) error {
	if sector >= d.n {
		return fmt.Errorf("%w: sector %d of %d", ErrOutOfRange, sector, d.n)
	}
	if len(dst) < SectorSize {
		return fmt.Errorf("%w: dst %d bytes", ErrShortData, len(dst))
	}
	d.mu.Lock()
	src := d.sectors[sector]
	d.mu.Unlock()
	if src == nil {
		clear(dst[:SectorSize])
		return nil
	}
	copy(dst, src)
	return nil
}

// Hash returns a content hash over all written, non-zero sectors.
func (d *Disk) Hash() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var h uint64 = 1469598103934665603 // FNV offset basis
	// Order-independent accumulation keyed by sector number.
	for sector, data := range d.sectors {
		var sh uint64 = 1099511628211
		sh ^= sector
		allZero := true
		for _, b := range data {
			sh = (sh ^ uint64(b)) * 1099511628211
			if b != 0 {
				allZero = false
			}
		}
		if !allZero {
			h ^= sh
		}
	}
	return h
}

// write is one journaled sector write.
type write struct {
	sector uint64
	data   []byte
}

// ReplicatedDisk pairs a primary disk with its replica and journals
// the primary's writes per checkpoint epoch. It is safe for
// concurrent use.
type ReplicatedDisk struct {
	primary *Disk
	replica *Disk

	mu      sync.Mutex
	current []write            // writes of the open epoch
	sealed  map[uint64][]write // epoch id → its writes
	nextEp  uint64
	applied uint64 // sector writes applied to the replica
	dropped uint64 // sector writes discarded at failover
}

// NewReplicated returns a replicated disk of the given capacity with
// an empty journal.
func NewReplicated(capacityBytes uint64) *ReplicatedDisk {
	return &ReplicatedDisk{
		primary: NewDisk(capacityBytes),
		replica: NewDisk(capacityBytes),
		sealed:  make(map[uint64][]write),
	}
}

// Primary returns the primary-side disk (the guest's view).
func (r *ReplicatedDisk) Primary() *Disk { return r.primary }

// Replica returns the replica-side disk (the failover target's view).
// Treat as read-only until failover.
func (r *ReplicatedDisk) Replica() *Disk { return r.replica }

// Write applies a guest write to the primary disk immediately and
// journals it for the open epoch.
func (r *ReplicatedDisk) Write(sector uint64, data []byte) error {
	if err := r.primary.WriteSector(sector, data); err != nil {
		return err
	}
	buf := make([]byte, SectorSize)
	copy(buf, data)
	r.mu.Lock()
	r.current = append(r.current, write{sector: sector, data: buf})
	r.mu.Unlock()
	return nil
}

// Read reads from the primary disk (the guest's view).
func (r *ReplicatedDisk) Read(sector uint64, dst []byte) error {
	return r.primary.ReadSector(sector, dst)
}

// SealEpoch closes the open epoch at a checkpoint pause and returns
// its id plus the number of journaled writes (the checkpoint's disk
// payload, for transfer accounting).
func (r *ReplicatedDisk) SealEpoch() (epoch uint64, writes int, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	epoch = r.nextEp
	r.sealed[epoch] = r.current
	writes = len(r.current)
	bytes = int64(writes) * SectorSize
	r.current = nil
	r.nextEp++
	return epoch, writes, bytes
}

// SectorWrite is one journaled write exposed for wire encoding: the
// checkpoint codec frames these alongside the dirtied memory so the
// replica's disk image is rebuilt from the decoded stream.
type SectorWrite struct {
	Sector uint64
	Data   []byte // SectorSize bytes, aliasing the journal's copy
}

// SealedWrites returns the journaled writes of every sealed epoch up
// to and including upTo, in apply order, without removing them. After
// a rollback the still-sealed older epochs ride along with the next
// checkpoint's stream, so the decoded replica disk never misses them.
func (r *ReplicatedDisk) SealedWrites(upTo uint64) []SectorWrite {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SectorWrite
	for e := uint64(0); e <= upTo; e++ {
		for _, w := range r.sealed[e] {
			out = append(out, SectorWrite{Sector: w.sector, Data: w.data})
		}
	}
	return out
}

// MarkCommitted drops sealed epochs up to and including acked from the
// journal, counting their writes as applied externally — by the wire
// decoder on the replica side — rather than copying them here. The
// counterpart of Commit for the decoder-applied path.
func (r *ReplicatedDisk) MarkCommitted(acked uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for e := uint64(0); e <= acked; e++ {
		if ws, ok := r.sealed[e]; ok {
			n += len(ws)
			delete(r.sealed, e)
		}
	}
	r.applied += uint64(n)
	return n
}

// Commit applies all sealed epochs up to and including acked to the
// replica disk, exactly once and in order.
func (r *ReplicatedDisk) Commit(acked uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for e := uint64(0); e <= acked; e++ {
		ws, ok := r.sealed[e]
		if !ok {
			continue
		}
		delete(r.sealed, e)
		for _, w := range ws {
			if err := r.replica.WriteSector(w.sector, w.data); err != nil {
				return fmt.Errorf("blockdev: commit epoch %d: %w", e, err)
			}
			r.applied++
		}
	}
	return nil
}

// DiscardUnacked drops every sealed-but-uncommitted epoch and the open
// epoch at failover time, returning the number of sector writes lost.
// The replica disk stays at the last committed checkpoint.
func (r *ReplicatedDisk) DiscardUnacked() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.current)
	for e, ws := range r.sealed {
		n += len(ws)
		delete(r.sealed, e)
	}
	r.current = nil
	r.dropped += uint64(n)
	return n
}

// Stats reports sector writes applied to the replica and discarded at
// failover.
func (r *ReplicatedDisk) Stats() (applied, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied, r.dropped
}

// Pending reports journaled writes not yet committed to the replica.
func (r *ReplicatedDisk) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.current)
	for _, ws := range r.sealed {
		n += len(ws)
	}
	return n
}
