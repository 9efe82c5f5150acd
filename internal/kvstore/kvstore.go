// Package kvstore implements a key-value store that lives entirely
// inside a VM's guest physical memory — the stand-in for the paper's
// YCSB-on-RocksDB database (§8.6, Table 4).
//
// The store is a chained hash table plus an append-only record log,
// all serialized into guest memory through the VM's write path, so
// every database operation dirties real guest pages and its data
// travels through seeding, checkpoints and failover like any other
// guest state. Attach reopens a store from a replica VM's memory
// after failover — committed records must come back intact.
package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
)

// Store layout constants.
const (
	magic        = 0x48455245_4B560001 // "HEREKV" v1
	headerBytes  = 32                  // magic, buckets, bump, count
	bucketBytes  = 8
	recHdrBytes  = 18 // u32 total, u16 keyLen, u32 valLen, u64 prev
	maxKeyBytes  = 1 << 15
	maxValBytes  = 1 << 24
	MinRegionLen = headerBytes + bucketBytes + recHdrBytes + 16
)

// Errors reported by the store.
var (
	ErrFull     = errors.New("kvstore: region full")
	ErrNotFound = errors.New("kvstore: key not found")
	ErrBadMagic = errors.New("kvstore: region does not contain a store")
)

// Store is a key-value store in guest memory. It is not safe for
// concurrent use (one guest "process" owns it).
type Store struct {
	vm      *hypervisor.VM
	base    memory.Addr
	size    uint64
	buckets uint64
}

// Open formats the region [base, base+size) of vm's memory as an
// empty store with the given bucket count and returns it. The VM must
// be running (formatting writes guest memory).
func Open(vm *hypervisor.VM, base memory.Addr, size uint64, buckets int) (*Store, error) {
	if vm == nil {
		return nil, errors.New("kvstore: nil vm")
	}
	if buckets <= 0 {
		return nil, fmt.Errorf("kvstore: bucket count %d must be positive", buckets)
	}
	if size < uint64(MinRegionLen)+uint64(buckets)*bucketBytes {
		return nil, fmt.Errorf("kvstore: region of %d bytes too small for %d buckets", size, buckets)
	}
	if uint64(base)+size > vm.Memory().SizeBytes() {
		return nil, fmt.Errorf("kvstore: region [%#x,+%d) beyond guest memory", base, size)
	}
	s := &Store{vm: vm, base: base, size: size, buckets: uint64(buckets)}
	hdr := make([]byte, headerBytes)
	binary.LittleEndian.PutUint64(hdr[0:], magic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(buckets))
	binary.LittleEndian.PutUint64(hdr[16:], s.logStart()) // bump pointer
	binary.LittleEndian.PutUint64(hdr[24:], 0)            // record count
	if err := vm.WriteGuest(0, base, hdr); err != nil {
		return nil, fmt.Errorf("kvstore: format: %w", err)
	}
	// Zero the bucket array.
	zeros := make([]byte, uint64(buckets)*bucketBytes)
	if err := vm.WriteGuest(0, base+headerBytes, zeros); err != nil {
		return nil, fmt.Errorf("kvstore: format buckets: %w", err)
	}
	return s, nil
}

// Attach reopens an existing store at base in vm's memory — typically
// on a replica VM after failover. It validates the magic and reads
// the geometry from guest memory.
func Attach(vm *hypervisor.VM, base memory.Addr, size uint64) (*Store, error) {
	if vm == nil {
		return nil, errors.New("kvstore: nil vm")
	}
	hdr := make([]byte, headerBytes)
	if err := vm.ReadGuest(base, hdr); err != nil {
		return nil, fmt.Errorf("kvstore: attach: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != magic {
		return nil, ErrBadMagic
	}
	buckets := binary.LittleEndian.Uint64(hdr[8:])
	if buckets == 0 || size < uint64(MinRegionLen)+buckets*bucketBytes {
		return nil, fmt.Errorf("kvstore: attach: inconsistent geometry (%d buckets)", buckets)
	}
	return &Store{vm: vm, base: base, size: size, buckets: buckets}, nil
}

func (s *Store) logStart() uint64 {
	return uint64(s.base) + headerBytes + s.buckets*bucketBytes
}

func (s *Store) end() uint64 { return uint64(s.base) + s.size }

func (s *Store) bucketAddr(key []byte) memory.Addr {
	h := fnv.New64a()
	h.Write(key)
	return s.base + headerBytes + memory.Addr((h.Sum64()%s.buckets)*bucketBytes)
}

func (s *Store) readU64(a memory.Addr) (uint64, error) {
	var buf [8]byte
	if err := s.vm.ReadGuest(a, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func (s *Store) writeU64(vcpu int, a memory.Addr, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return s.vm.WriteGuest(vcpu, a, buf[:])
}

// Put inserts or updates a key on behalf of the given vCPU. Updates
// append a new version; the chain head always points at the latest.
func (s *Store) Put(vcpu int, key, val []byte) error {
	if len(key) == 0 || len(key) > maxKeyBytes {
		return fmt.Errorf("kvstore: key length %d out of range", len(key))
	}
	if len(val) > maxValBytes {
		return fmt.Errorf("kvstore: value length %d out of range", len(val))
	}
	bump, err := s.readU64(s.base + 16)
	if err != nil {
		return fmt.Errorf("kvstore: put: %w", err)
	}
	total := uint64(recHdrBytes + len(key) + len(val))
	if bump+total > s.end() {
		return ErrFull
	}
	bucket := s.bucketAddr(key)
	prev, err := s.readU64(bucket)
	if err != nil {
		return fmt.Errorf("kvstore: put: %w", err)
	}
	rec := make([]byte, total)
	binary.LittleEndian.PutUint32(rec[0:], uint32(total))
	binary.LittleEndian.PutUint16(rec[4:], uint16(len(key)))
	binary.LittleEndian.PutUint32(rec[6:], uint32(len(val)))
	binary.LittleEndian.PutUint64(rec[10:], prev)
	copy(rec[recHdrBytes:], key)
	copy(rec[recHdrBytes+len(key):], val)
	if err := s.vm.WriteGuest(vcpu, memory.Addr(bump), rec); err != nil {
		return fmt.Errorf("kvstore: put: %w", err)
	}
	if err := s.writeU64(vcpu, bucket, bump); err != nil {
		return fmt.Errorf("kvstore: put: %w", err)
	}
	if err := s.writeU64(vcpu, s.base+16, bump+total); err != nil {
		return fmt.Errorf("kvstore: put: %w", err)
	}
	count, err := s.readU64(s.base + 24)
	if err != nil {
		return fmt.Errorf("kvstore: put: %w", err)
	}
	return s.writeU64(vcpu, s.base+24, count+1)
}

// record reads the record at offset off.
func (s *Store) record(off uint64) (key, val []byte, prev uint64, err error) {
	hdr := make([]byte, recHdrBytes)
	if err := s.vm.ReadGuest(memory.Addr(off), hdr); err != nil {
		return nil, nil, 0, err
	}
	total := binary.LittleEndian.Uint32(hdr[0:])
	keyLen := binary.LittleEndian.Uint16(hdr[4:])
	valLen := binary.LittleEndian.Uint32(hdr[6:])
	prev = binary.LittleEndian.Uint64(hdr[10:])
	if uint64(total) != uint64(recHdrBytes)+uint64(keyLen)+uint64(valLen) {
		return nil, nil, 0, fmt.Errorf("kvstore: corrupt record at %#x", off)
	}
	body := make([]byte, total-recHdrBytes)
	if err := s.vm.ReadGuest(memory.Addr(off+recHdrBytes), body); err != nil {
		return nil, nil, 0, err
	}
	return body[:keyLen], body[keyLen:], prev, nil
}

// Get returns the latest value for key, or ErrNotFound.
func (s *Store) Get(key []byte) ([]byte, error) {
	off, err := s.readU64(s.bucketAddr(key))
	if err != nil {
		return nil, fmt.Errorf("kvstore: get: %w", err)
	}
	for off != 0 {
		k, v, prev, err := s.record(off)
		if err != nil {
			return nil, fmt.Errorf("kvstore: get: %w", err)
		}
		if bytes.Equal(k, key) {
			return v, nil
		}
		off = prev
	}
	return nil, ErrNotFound
}

// Scan reads up to n records from the log starting at the first
// record (an approximation of YCSB's ordered scans over our
// log-structured layout) and returns the keys visited.
func (s *Store) Scan(n int) ([][]byte, error) {
	bump, err := s.readU64(s.base + 16)
	if err != nil {
		return nil, fmt.Errorf("kvstore: scan: %w", err)
	}
	var keys [][]byte
	off := s.logStart()
	for off < bump && len(keys) < n {
		k, _, _, err := s.record(off)
		if err != nil {
			return nil, fmt.Errorf("kvstore: scan: %w", err)
		}
		keys = append(keys, k)
		total := uint64(recHdrBytes + len(k))
		// Re-read total length to advance (value length needed).
		hdr := make([]byte, 4)
		if err := s.vm.ReadGuest(memory.Addr(off), hdr); err != nil {
			return nil, err
		}
		total = uint64(binary.LittleEndian.Uint32(hdr))
		off += total
	}
	return keys, nil
}

// Len reports the number of Put operations recorded (versions, not
// distinct keys).
func (s *Store) Len() (uint64, error) {
	return s.readU64(s.base + 24)
}

// Region reports the store's location in guest memory.
func (s *Store) Region() (base memory.Addr, size uint64) { return s.base, s.size }
