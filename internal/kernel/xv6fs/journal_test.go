package xv6fs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"protosim/internal/kernel/bcache"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/jnl"
)

// TestFreedDirBlockSurvivesReplay is the revoke-rule regression: a
// directory block still named by a logged transaction is freed by a later
// one, and a new file is written and fsynced. If the allocator handed the
// freed block to the file, a crash would replay the old directory content
// over the file's fsynced data. Quarantining the block only until its
// freeing transaction commits is not enough — the log still names it.
func TestFreedDirBlockSurvivesReplay(t *testing.T) {
	rd := fs.NewRamdisk(BlockSize, 1024)
	if err := Mkfs(rd, 64); err != nil {
		t.Fatal(err)
	}
	f, err := Mount(rd, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Txn N logs /d's directory block (its "." and ".." entries, then x).
	if err := f.Mkdir(nil, "/d"); err != nil {
		t.Fatal(err)
	}
	x, err := openOF(f, "/d/x", fs.OCreate|fs.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	x.Close(nil)
	// Txn N+1 frees it.
	if err := f.Unlink(nil, "/d/x"); err != nil {
		t.Fatal(err)
	}
	if err := f.Unlink(nil, "/d"); err != nil {
		t.Fatal(err)
	}
	if f.Journal().Stats().Checkpoints != 0 {
		t.Fatal("setup needs the directory's transaction still in the log")
	}
	// A new file's data lands in the lowest free block — the freed
	// directory block, unless the journal still revokes it.
	want := bytes.Repeat([]byte{0xAB}, BlockSize)
	fl, err := openOF(f, "/f", fs.OCreate|fs.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Write(nil, want); err != nil {
		t.Fatal(err)
	}
	if err := fl.Sync(nil); err != nil {
		t.Fatal(err)
	}
	// Crash: boot a copy of the device as it stands, log and all.
	f2, err := Mount(fs.NewRamdiskFromImage(BlockSize, rd.Image()), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := openOF(f2, "/f", fs.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2*BlockSize)
	n, err := got.Read(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], want) {
		t.Fatalf("fsynced data clobbered by replay: read %d bytes, first %#x", n, buf[0])
	}
}

// TestFullVolumeLiftsRevokes pins the allocator's way out on a full
// volume: when the only free block is one the log still names, a write
// must not fail with ErrNoSpace. The write closes its bracket, the log is
// drained (committed and checkpointed), and the retry takes the block —
// safely, since no logged transaction can replay over it any more.
func TestFullVolumeLiftsRevokes(t *testing.T) {
	rd := fs.NewRamdisk(BlockSize, 1024)
	if err := Mkfs(rd, 64); err != nil {
		t.Fatal(err)
	}
	f, err := Mount(rd, nil)
	if err != nil {
		t.Fatal(err)
	}
	blk := bytes.Repeat([]byte{0x5A}, BlockSize)
	spare, err := openOF(f, "/spare", fs.OCreate|fs.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spare.Write(nil, blk); err != nil {
		t.Fatal(err)
	}
	spare.Close(nil)
	// Fill the rest of the volume.
	for i := 0; ; i++ {
		fl, err := openOF(f, fmt.Sprintf("/fill%d", i), fs.OCreate|fs.ORdWr)
		if err != nil {
			t.Fatal(err)
		}
		for err == nil {
			_, err = fl.Write(nil, blk)
		}
		fl.Close(nil)
		if errors.Is(err, fs.ErrNoSpace) {
			break
		}
		if !errors.Is(err, fs.ErrFileTooBig) {
			t.Fatal(err)
		}
	}
	if err := f.Sync(nil); err != nil {
		t.Fatal(err)
	}
	ckpts := f.Journal().Stats().Checkpoints
	// /spare's data block becomes /d's directory block, which the log
	// then names; removing /d frees it again, revoked.
	if err := f.Unlink(nil, "/spare"); err != nil {
		t.Fatal(err)
	}
	if err := f.Mkdir(nil, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := f.Unlink(nil, "/d"); err != nil {
		t.Fatal(err)
	}
	if f.Journal().Stats().Checkpoints != ckpts {
		t.Fatal("setup needs the directory's transaction still in the log")
	}
	fl, err := openOF(f, "/f", fs.OCreate|fs.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Write(nil, blk); err != nil {
		t.Fatalf("write into the only free block: %v", err)
	}
	if f.Journal().Stats().Checkpoints == ckpts {
		t.Fatal("write succeeded without draining the log")
	}
	if err := fl.Sync(nil); err != nil {
		t.Fatal(err)
	}
	// The volume really is full again: the next block is plain ENOSPC.
	if _, err := fl.Write(nil, blk); !errors.Is(err, fs.ErrNoSpace) {
		t.Fatalf("write past a full volume: %v, want ErrNoSpace", err)
	}
	fl.Close(nil)
	// Crash and boot a copy: the fsynced block survives recovery.
	f2, err := Mount(fs.NewRamdiskFromImage(BlockSize, rd.Image()), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := openOF(f2, "/f", fs.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2*BlockSize)
	n, err := got.Read(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], blk) {
		t.Fatalf("fsynced data lost: read %d bytes", n)
	}
}

// TestLogFromLargeCacheBootsUnderXv6Cache pins recovery against the
// disk's geometry: an image whose log a default-cache mount filled past
// what xv6 mode's 30-buffer cache would batch must still boot there. A
// cleanly synced image, in turn, carries an empty log.
func TestLogFromLargeCacheBootsUnderXv6Cache(t *testing.T) {
	rd := fs.NewRamdisk(BlockSize, 2048)
	if err := Mkfs(rd, 128); err != nil {
		t.Fatal(err)
	}
	f, err := Mount(rd, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := f.Mkdir(nil, fmt.Sprintf("/d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	xv6 := bcache.Options{Buffers: bcache.Xv6Buffers, Shards: 1, Readahead: -1,
		Policy: bcache.WritePolicyThrough}
	if logged := loggedSlots(t, rd); logged <= bcache.Xv6Buffers/2 {
		t.Fatalf("setup logged %d slots; want more than an xv6-mode batch", logged)
	}
	// Crash with the log full of committed transactions.
	f2, err := MountWith(fs.NewRamdiskFromImage(BlockSize, rd.Image()), nil, xv6)
	if err != nil {
		t.Fatalf("boot under the xv6 cache: %v", err)
	}
	for i := 0; i < 12; i++ {
		if _, err := f2.Stat(nil, fmt.Sprintf("/d%d", i)); err != nil {
			t.Fatalf("replayed directory /d%d: %v", i, err)
		}
	}
	// A clean sync empties the log.
	if err := f.Sync(nil); err != nil {
		t.Fatal(err)
	}
	if logged := loggedSlots(t, rd); logged != 0 {
		t.Fatalf("synced image still logs %d slots", logged)
	}
}

// loggedSlots decodes how many slots the on-disk log header names.
func loggedSlots(t *testing.T, rd *fs.Ramdisk) int {
	t.Helper()
	blk := make([]byte, BlockSize)
	if err := rd.ReadBlocks(0, 1, blk); err != nil {
		t.Fatal(err)
	}
	var sb Superblock
	sb.decode(blk)
	if err := rd.ReadBlocks(int(sb.LogStart), 1, blk); err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint32(blk[0:]) != jnl.Magic {
		return 0
	}
	return int(binary.LittleEndian.Uint32(blk[4:]))
}
