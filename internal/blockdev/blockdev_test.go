package blockdev_test

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/here-ft/here/internal/blockdev"
)

func sector(b byte) []byte {
	s := make([]byte, blockdev.SectorSize)
	for i := range s {
		s[i] = b
	}
	return s
}

func TestDiskReadWrite(t *testing.T) {
	d := blockdev.NewDisk(1 << 20)
	if err := d.WriteSector(7, sector(0xAB)); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, blockdev.SectorSize)
	if err := d.ReadSector(7, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, sector(0xAB)) {
		t.Fatal("read back mismatch")
	}
	// Unwritten sectors read as zero.
	if err := d.ReadSector(8, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, sector(0)) {
		t.Fatal("unwritten sector not zero")
	}
}

func TestDiskBounds(t *testing.T) {
	d := blockdev.NewDisk(10 * blockdev.SectorSize)
	if err := d.WriteSector(10, sector(1)); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if err := d.ReadSector(10, sector(0)); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if err := d.WriteSector(0, []byte{1, 2}); !errors.Is(err, blockdev.ErrShortData) {
		t.Fatalf("err = %v", err)
	}
	if err := d.ReadSector(0, []byte{1}); !errors.Is(err, blockdev.ErrShortData) {
		t.Fatalf("err = %v", err)
	}
}

func TestDiskWriteCopiesData(t *testing.T) {
	d := blockdev.NewDisk(1 << 16)
	buf := sector(0x11)
	if err := d.WriteSector(0, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 0x99 // caller mutates its buffer afterwards
	dst := make([]byte, blockdev.SectorSize)
	if err := d.ReadSector(0, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0x11 {
		t.Fatal("disk shares storage with the caller")
	}
}

func TestDiskHash(t *testing.T) {
	a := blockdev.NewDisk(1 << 16)
	b := blockdev.NewDisk(1 << 16)
	if a.Hash() != b.Hash() {
		t.Fatal("empty disks hash differently")
	}
	if err := a.WriteSector(3, sector(5)); err != nil {
		t.Fatal(err)
	}
	if a.Hash() == b.Hash() {
		t.Fatal("different contents hash equal")
	}
	if err := b.WriteSector(3, sector(5)); err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatal("equal contents hash differently")
	}
	// A materialized all-zero sector does not change the hash.
	if err := b.WriteSector(9, sector(0)); err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatal("zero sector changed the hash")
	}
}

func TestReplicatedEpochFlow(t *testing.T) {
	r := blockdev.NewReplicated(1 << 20)
	if err := r.Write(1, sector(0xA1)); err != nil {
		t.Fatal(err)
	}
	// The guest sees its write immediately...
	dst := make([]byte, blockdev.SectorSize)
	if err := r.Read(1, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0xA1 {
		t.Fatal("primary write not visible to the guest")
	}
	// ...but the replica does not, until the epoch commits.
	if err := r.Replica().ReadSector(1, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0 {
		t.Fatal("replica saw an uncommitted write")
	}
	epoch, writes, bytesN := r.SealEpoch()
	if writes != 1 || bytesN != blockdev.SectorSize {
		t.Fatalf("seal = (%d writes, %d bytes)", writes, bytesN)
	}
	if err := r.Commit(epoch); err != nil {
		t.Fatal(err)
	}
	if err := r.Replica().ReadSector(1, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0xA1 {
		t.Fatal("replica missing the committed write")
	}
	if r.Primary().Hash() != r.Replica().Hash() {
		t.Fatal("disks differ after commit")
	}
}

func TestReplicatedOrderedOverwrites(t *testing.T) {
	r := blockdev.NewReplicated(1 << 20)
	// Two writes to the same sector across two epochs: the replica
	// must end with the later value.
	if err := r.Write(4, sector(0x01)); err != nil {
		t.Fatal(err)
	}
	r.SealEpoch() // epoch 0
	if err := r.Write(4, sector(0x02)); err != nil {
		t.Fatal(err)
	}
	e1, _, _ := r.SealEpoch()
	if err := r.Commit(e1); err != nil { // cumulative commit of 0 and 1
		t.Fatal(err)
	}
	dst := make([]byte, blockdev.SectorSize)
	if err := r.Replica().ReadSector(4, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0x02 {
		t.Fatalf("replica sector = %#x, want the later write", dst[0])
	}
	applied, _ := r.Stats()
	if applied != 2 {
		t.Fatalf("applied = %d", applied)
	}
}

func TestReplicatedDiscardUnacked(t *testing.T) {
	r := blockdev.NewReplicated(1 << 20)
	if err := r.Write(1, sector(0x10)); err != nil {
		t.Fatal(err)
	}
	e0, _, _ := r.SealEpoch()
	if err := r.Commit(e0); err != nil {
		t.Fatal(err)
	}
	committedHash := r.Replica().Hash()

	if err := r.Write(2, sector(0x20)); err != nil {
		t.Fatal(err)
	}
	r.SealEpoch() // sealed, never acked
	if err := r.Write(3, sector(0x30)); err != nil {
		t.Fatal(err)
	}
	if n := r.DiscardUnacked(); n != 2 {
		t.Fatalf("discarded %d writes, want 2", n)
	}
	if r.Pending() != 0 {
		t.Fatal("journal not empty after discard")
	}
	if r.Replica().Hash() != committedHash {
		t.Fatal("replica moved past the last acked checkpoint")
	}
	_, dropped := r.Stats()
	if dropped != 2 {
		t.Fatalf("dropped = %d", dropped)
	}
}

func TestReplicatedCommitIdempotent(t *testing.T) {
	r := blockdev.NewReplicated(1 << 20)
	if err := r.Write(0, sector(1)); err != nil {
		t.Fatal(err)
	}
	e0, _, _ := r.SealEpoch()
	if err := r.Commit(e0); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(e0); err != nil {
		t.Fatal(err)
	}
	applied, _ := r.Stats()
	if applied != 1 {
		t.Fatalf("double commit applied %d writes", applied)
	}
}

// Property: for any sequence of writes with checkpoints, after
// committing the final epoch the replica disk equals the primary, and
// after a discard it equals the primary as of the last commit.
func TestReplicatedConsistencyProperty(t *testing.T) {
	type op struct {
		Sector uint8
		Val    byte
		Seal   bool
	}
	f := func(ops []op) bool {
		r := blockdev.NewReplicated(256 * blockdev.SectorSize)
		for _, o := range ops {
			if err := r.Write(uint64(o.Sector), sector(o.Val)); err != nil {
				return false
			}
			if o.Seal {
				e, _, _ := r.SealEpoch()
				if err := r.Commit(e); err != nil {
					return false
				}
				if r.Primary().Hash() != r.Replica().Hash() {
					return false
				}
			}
		}
		e, _, _ := r.SealEpoch()
		if err := r.Commit(e); err != nil {
			return false
		}
		return r.Primary().Hash() == r.Replica().Hash() && r.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
