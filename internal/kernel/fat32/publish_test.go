// Size publishing on a degraded mount, checked against the on-disk
// image with the external fsck, which imports this package.
package fat32_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"protosim/internal/hw"
	"protosim/internal/kernel/blkq"
	"protosim/internal/kernel/fat32"
	"protosim/internal/kernel/fat32/fatfsck"
	"protosim/internal/kernel/fs"
)

// TestAbandonedFATWritebackBlocksPublish: an append links a new cluster
// in a FAT sector whose writeback the cache then gives up. The cache
// leaves that buffer valid and clean, so fsync's flush of the chain finds
// nothing to write; publishing the size anyway would put a dirent on disk
// whose size exceeds its durable chain. fsync and close must refuse
// instead, latch the mount read-only, and leave an image the post-crash
// checker accepts.
func TestAbandonedFATWritebackBlocksPublish(t *testing.T) {
	rd := fs.NewRamdisk(fat32.SectorSize, 4096)
	if err := fat32.Mkfs(rd); err != nil {
		t.Fatal(err)
	}
	fd := hw.NewFaultDisk(rd, hw.FaultPlan{Seed: 1})
	q := blkq.New(fd, blkq.Options{Async: fd, PlugDelay: -1})
	fd.SetNotify(func() { q.CompletionIRQ() })
	f, err := fat32.Mount(q, nil)
	if err != nil {
		t.Fatal(err)
	}

	ops, err := f.Open(nil, "/f.dat", fs.OCreate|fs.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	of := fs.NewOpenFile(ops, fs.ORdWr)
	if _, err := of.Write(nil, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := of.Sync(nil); err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat(nil, "/f.dat")
	if err != nil {
		t.Fatal(err)
	}
	// The FAT sector holding the first cluster's entry: the append below
	// writes its link to the second cluster there.
	boot := make([]byte, fat32.SectorSize)
	if err := rd.ReadBlocks(0, 1, boot); err != nil {
		t.Fatal(err)
	}
	reserved := int(binary.LittleEndian.Uint16(boot[14:]))
	fd.AddBadSector(reserved + int(st.Inode)*4/fat32.SectorSize)

	if _, err := of.Write(nil, make([]byte, fat32.ClusterSize)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := f.Cache().Flush(nil); !errors.Is(err, fs.ErrBadSector) {
		t.Fatalf("cache flush over the bad FAT sector = %v, want ErrBadSector", err)
	}
	if f.Cache().GiveUps() == 0 {
		t.Fatal("the cache did not give the FAT buffer up")
	}

	if err := of.Sync(nil); err == nil {
		t.Fatal("fsync published a size over an abandoned FAT link")
	}
	if _, ro, cause := f.Health(); !ro || cause == nil {
		t.Fatalf("Health = (ro=%v, cause=%v), want a latched read-only mount", ro, cause)
	}
	if err := of.Close(nil); err == nil {
		t.Fatal("close published a size over an abandoned FAT link")
	}

	rep, err := fatfsck.Check(rd, fatfsck.PostCrash)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("post-crash fsck: %v (%s)", rep.Errors, rep)
	}
}
