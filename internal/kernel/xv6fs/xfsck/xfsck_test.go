package xfsck_test

import (
	"encoding/binary"
	"strings"
	"testing"

	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/xv6fs"
	"protosim/internal/kernel/xv6fs/xfsck"
)

// mkVolume builds a small journaled volume with a few files and
// directories, synced clean, and returns its backing ramdisk.
func mkVolume(t *testing.T) *fs.Ramdisk {
	t.Helper()
	rd := fs.NewRamdisk(xv6fs.BlockSize, 1024)
	if err := xv6fs.Mkfs(rd, 64); err != nil {
		t.Fatal(err)
	}
	fsys, err := xv6fs.Mount(rd, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fsys.Mkdir(nil, "/dir"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a.txt", "/dir/b.txt"} {
		ops, err := fsys.Open(nil, p, fs.OCreate|fs.OWrOnly)
		if err != nil {
			t.Fatal(err)
		}
		fl := fs.NewOpenFile(ops, fs.OCreate|fs.OWrOnly)
		if _, err := fl.Write(nil, make([]byte, 3*xv6fs.BlockSize)); err != nil {
			t.Fatal(err)
		}
		fl.Close(nil)
	}
	if err := fsys.Sync(nil); err != nil {
		t.Fatal(err)
	}
	// Zero the log header (block 1): the volume is synced, so the homes
	// are current and the committed transaction is redundant. Without
	// this, the checker's replay overlay would restore clean copies over
	// the surgical corruption the tests below inject.
	if err := rd.WriteBlocks(1, 1, make([]byte, xv6fs.BlockSize)); err != nil {
		t.Fatal(err)
	}
	return rd
}

func check(t *testing.T, rd *fs.Ramdisk, mode xfsck.Mode) *xfsck.Report {
	t.Helper()
	rep, err := xfsck.Check(rd, mode)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// expectError asserts the report flags corruption mentioning want.
func expectError(t *testing.T, rep *xfsck.Report, want string) {
	t.Helper()
	if rep.Clean() {
		t.Fatalf("corruption not detected (wanted %q)", want)
	}
	for _, e := range rep.Errors {
		if strings.Contains(e, want) {
			return
		}
	}
	t.Fatalf("errors %v mention nothing about %q", rep.Errors, want)
}

func TestCleanVolumePasses(t *testing.T) {
	rd := mkVolume(t)
	rep := check(t, rd, xfsck.Strict)
	if !rep.Clean() || len(rep.Warnings) != 0 {
		t.Fatalf("clean volume flagged: %v %v", rep.Errors, rep.Warnings)
	}
	if rep.Inodes != 4 { // root, /dir, two files
		t.Fatalf("saw %d inodes, want 4", rep.Inodes)
	}
}

// patchBlock mutates one on-disk block in place.
func patchBlock(t *testing.T, rd *fs.Ramdisk, lba int, fn func(b []byte)) {
	t.Helper()
	b := make([]byte, xv6fs.BlockSize)
	if err := rd.ReadBlocks(lba, 1, b); err != nil {
		t.Fatal(err)
	}
	fn(b)
	if err := rd.WriteBlocks(lba, 1, b); err != nil {
		t.Fatal(err)
	}
}

// superblock offsets for test surgery.
func superblock(t *testing.T, rd *fs.Ramdisk) (inodeStart, bitmapStart, dataStart int) {
	t.Helper()
	b := make([]byte, xv6fs.BlockSize)
	if err := rd.ReadBlocks(0, 1, b); err != nil {
		t.Fatal(err)
	}
	return int(binary.LittleEndian.Uint32(b[12:])),
		int(binary.LittleEndian.Uint32(b[16:])),
		int(binary.LittleEndian.Uint32(b[20:]))
}

func TestDetectsLeakedBitmapBit(t *testing.T) {
	rd := mkVolume(t)
	_, bitmapStart, _ := superblock(t, rd)
	lba := rd.Blocks() - 2 // a high data block no inode claims
	patchBlock(t, rd, bitmapStart+lba/(xv6fs.BlockSize*8), func(b []byte) {
		bit := lba % (xv6fs.BlockSize * 8)
		b[bit/8] |= 1 << (bit % 8)
	})
	expectError(t, check(t, rd, xfsck.PostCrash), "unreachable")
}

func TestDetectsClaimedBlockMarkedFree(t *testing.T) {
	rd := mkVolume(t)
	inodeStart, bitmapStart, _ := superblock(t, rd)
	// Root's first data block: read root's Addrs[0] from the inode table.
	b := make([]byte, xv6fs.BlockSize)
	if err := rd.ReadBlocks(inodeStart, 1, b); err != nil {
		t.Fatal(err)
	}
	lba := int(binary.LittleEndian.Uint32(b[1*64+8:]))
	patchBlock(t, rd, bitmapStart+lba/(xv6fs.BlockSize*8), func(b []byte) {
		bit := lba % (xv6fs.BlockSize * 8)
		b[bit/8] &^= 1 << (bit % 8)
	})
	expectError(t, check(t, rd, xfsck.PostCrash), "marked free")
}

func TestDetectsDoubleClaimedBlock(t *testing.T) {
	rd := mkVolume(t)
	inodeStart, _, _ := superblock(t, rd)
	// Point inode 3's Addrs[0] at inode 2's Addrs[0].
	patchBlock(t, rd, inodeStart, func(b []byte) {
		stolen := binary.LittleEndian.Uint32(b[2*64+8:])
		binary.LittleEndian.PutUint32(b[3*64+8:], stolen)
	})
	expectError(t, check(t, rd, xfsck.PostCrash), "already claimed")
}

func TestDetectsNlinkDrift(t *testing.T) {
	rd := mkVolume(t)
	inodeStart, _, _ := superblock(t, rd)
	patchBlock(t, rd, inodeStart, func(b []byte) {
		binary.LittleEndian.PutUint16(b[2*64+2:], 7) // inode 2 nlink
	})
	expectError(t, check(t, rd, xfsck.PostCrash), "nlink 7")
}

func TestDetectsBrokenDotEntry(t *testing.T) {
	rd := mkVolume(t)
	inodeStart, _, _ := superblock(t, rd)
	// Find /dir's inode (the only typeDir besides root) and corrupt the
	// "." entry in its first data block.
	b := make([]byte, xv6fs.BlockSize)
	if err := rd.ReadBlocks(inodeStart, 1, b); err != nil {
		t.Fatal(err)
	}
	var data int
	for inum := 2; inum < 16; inum++ {
		if binary.LittleEndian.Uint16(b[inum*64:]) == 1 { // typeDir
			data = int(binary.LittleEndian.Uint32(b[inum*64+8:]))
			break
		}
	}
	if data == 0 {
		t.Fatal("no directory inode found")
	}
	patchBlock(t, rd, data, func(b []byte) {
		b[0] = 9 // "." now names inode 9
	})
	expectError(t, check(t, rd, xfsck.PostCrash), `"."`)
}

func TestOrphanInodeModeSplit(t *testing.T) {
	rd := mkVolume(t)
	inodeStart, _, _ := superblock(t, rd)
	// Zero /a.txt's (inode 3) nlink and remove its dirent from the root:
	// a crashed unlink-while-open. A FILE, deliberately — directories
	// can only be unlinked empty, so an orphaned dir never hides a
	// subtree from the walk.
	patchBlock(t, rd, inodeStart, func(b []byte) {
		binary.LittleEndian.PutUint16(b[3*64+2:], 0)
	})
	b := make([]byte, xv6fs.BlockSize)
	if err := rd.ReadBlocks(inodeStart, 1, b); err != nil {
		t.Fatal(err)
	}
	rootData := int(binary.LittleEndian.Uint32(b[1*64+8:]))
	patchBlock(t, rd, rootData, func(b []byte) {
		for off := 0; off < xv6fs.BlockSize; off += xv6fs.DirentSize {
			if binary.LittleEndian.Uint16(b[off:]) == 3 {
				binary.LittleEndian.PutUint16(b[off:], 0)
			}
		}
	})
	// The unlink transaction also records the inode on the superblock's
	// orphan list (flag word at offset 64, then inum slots) — mount-time
	// recovery is list-driven and reclaims exactly what is listed, not
	// what a whole-array scan would find.
	patchBlock(t, rd, 0, func(b []byte) {
		binary.LittleEndian.PutUint32(b[64+4:], 3)
	})
	if rep := check(t, rd, xfsck.PostCrash); !rep.Clean() {
		t.Fatalf("orphan should be tolerated post-crash: %v", rep.Errors)
	} else if len(rep.Warnings) == 0 {
		t.Fatal("orphan should at least warn")
	}
	expectError(t, check(t, rd, xfsck.Strict), "orphan")

	// A real mount reclaims the orphan; strict passes afterwards.
	fsys, err := xv6fs.Mount(rd, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fsys.Sync(nil); err != nil {
		t.Fatal(err)
	}
	if rep := check(t, rd, xfsck.Strict); !rep.Clean() {
		t.Fatalf("orphan survived mount-time reclaim: %v", rep.Errors)
	}
}

// TestJournalOverlay pins the journal-aware half: a committed
// transaction sitting in the log whose home blocks are stale must count
// as consistent (the overlay replays it), and zeroing the log header
// must expose the stale home blocks as corruption.
func TestJournalOverlay(t *testing.T) {
	rd := mkVolume(t)
	fsys, err := xv6fs.Mount(rd, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An unlink whose transaction commits (the journal's Sync) but is
	// never checkpointed — the volume's Sync would checkpoint it: with
	// the journal header intact the image is consistent via replay;
	// without it, the home copies are a half-applied transaction.
	if err := fsys.Unlink(nil, "/a.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Journal().Sync(nil); err != nil {
		t.Fatal(err)
	}
	rep := check(t, rd, xfsck.Strict)
	if !rep.Clean() {
		t.Fatalf("committed-but-not-checkpointed image flagged: %v", rep.Errors)
	}
	if rep.Replayed == 0 {
		t.Fatal("expected the checker to replay journal slots")
	}
}
