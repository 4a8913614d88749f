// Hostile-image hardening: a corrupt or adversarial superblock or log
// header must fail the mount with a typed error — never panic, hang, or
// size an allocation from an unchecked field.
package xv6fs

import (
	"encoding/binary"
	"errors"
	"testing"

	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/jnl"
)

// hostileImage formats a valid image, then lets corrupt rewrite the
// superblock before the mount attempt.
func hostileImage(t *testing.T, corrupt func(sb *Superblock)) *fs.Ramdisk {
	t.Helper()
	rd := fs.NewRamdisk(BlockSize, 1024)
	if err := Mkfs(rd, 64); err != nil {
		t.Fatal(err)
	}
	blk := make([]byte, BlockSize)
	if err := rd.ReadBlocks(0, 1, blk); err != nil {
		t.Fatal(err)
	}
	var sb Superblock
	sb.decode(blk)
	corrupt(&sb)
	sb.encode(blk)
	if err := rd.WriteBlocks(0, 1, blk); err != nil {
		t.Fatal(err)
	}
	return rd
}

func TestMountRejectsHostileSuperblock(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(sb *Superblock)
	}{
		{"bad magic", func(sb *Superblock) { sb.Magic = 0xDEADBEEF }},
		{"size beyond device", func(sb *Superblock) { sb.Size = 1 << 30 }},
		{"size max uint32", func(sb *Superblock) { sb.Size = 0xFFFFFFFF }},
		{"size tiny", func(sb *Superblock) { sb.Size = 2 }},
		{"no inodes", func(sb *Superblock) { sb.NInodes = 0 }},
		{"one inode", func(sb *Superblock) { sb.NInodes = 1 }},
		{"inode array overruns bitmap", func(sb *Superblock) { sb.NInodes = 1 << 20 }},
		{"inode count max uint32", func(sb *Superblock) { sb.NInodes = 0xFFFFFFFF }},
		{"inode start zero", func(sb *Superblock) { sb.InodeStart = 0 }},
		{"inode start max uint32", func(sb *Superblock) { sb.InodeStart = 0xFFFFFFFF }},
		{"bitmap before inodes", func(sb *Superblock) { sb.BitmapStart = sb.InodeStart - 1 }},
		{"bitmap overruns data", func(sb *Superblock) { sb.DataStart = sb.BitmapStart }},
		{"data beyond volume", func(sb *Superblock) { sb.DataStart = sb.Size }},
		{"data start max uint32", func(sb *Superblock) { sb.DataStart = 0xFFFFFFFF }},
		{"log overlaps inode array", func(sb *Superblock) { sb.LogSize = sb.InodeStart }},
		{"log start zero", func(sb *Superblock) { sb.LogStart = 0 }},
		{"log size max uint32", func(sb *Superblock) { sb.LogSize = 0xFFFFFFFF }},
		{"log single block", func(sb *Superblock) { sb.LogSize = 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rd := hostileImage(t, tc.corrupt)
			if _, err := Mount(rd, nil); !errors.Is(err, ErrBadFS) {
				t.Fatalf("Mount = %v, want ErrBadFS", err)
			}
		})
	}
}

// hostileLogHeader writes an adversarial journal header onto an
// otherwise-valid image: magic plus count, then count home addresses.
func hostileLogHeader(t *testing.T, rd *fs.Ramdisk, count uint32, homes ...uint32) {
	t.Helper()
	blk := make([]byte, BlockSize)
	if err := rd.ReadBlocks(0, 1, blk); err != nil {
		t.Fatal(err)
	}
	var sb Superblock
	sb.decode(blk)
	hdr := make([]byte, BlockSize)
	binary.LittleEndian.PutUint32(hdr[0:], jnl.Magic)
	binary.LittleEndian.PutUint32(hdr[4:], count)
	for i, h := range homes {
		binary.LittleEndian.PutUint32(hdr[8+4*i:], h)
	}
	if err := rd.WriteBlocks(int(sb.LogStart), 1, hdr); err != nil {
		t.Fatal(err)
	}
}

func TestMountRejectsHostileLogHeader(t *testing.T) {
	mk := func(t *testing.T) *fs.Ramdisk {
		rd := fs.NewRamdisk(BlockSize, 1024)
		if err := Mkfs(rd, 64); err != nil {
			t.Fatal(err)
		}
		return rd
	}
	t.Run("count beyond slots", func(t *testing.T) {
		rd := mk(t)
		hostileLogHeader(t, rd, 0xFFFF)
		if _, err := Mount(rd, nil); !errors.Is(err, jnl.ErrBadLog) {
			t.Fatalf("Mount = %v, want ErrBadLog", err)
		}
	})
	t.Run("count one past the region", func(t *testing.T) {
		// Within the header's capacity, so only the region bound refuses it.
		rd := mk(t)
		homes := make([]uint32, DefaultLogBlocks)
		for i := range homes {
			homes[i] = uint32(200 + i)
		}
		hostileLogHeader(t, rd, DefaultLogBlocks, homes...)
		if _, err := Mount(rd, nil); !errors.Is(err, jnl.ErrBadLog) {
			t.Fatalf("Mount = %v, want ErrBadLog", err)
		}
	})
	t.Run("home beyond device", func(t *testing.T) {
		rd := mk(t)
		hostileLogHeader(t, rd, 1, 0xFFFFFF00)
		if _, err := Mount(rd, nil); !errors.Is(err, jnl.ErrBadLog) {
			t.Fatalf("Mount = %v, want ErrBadLog", err)
		}
	})
	t.Run("home inside log region", func(t *testing.T) {
		rd := mk(t)
		hostileLogHeader(t, rd, 1, 2) // slot block, inside [LogStart, +LogSize)
		if _, err := Mount(rd, nil); !errors.Is(err, jnl.ErrBadLog) {
			t.Fatalf("Mount = %v, want ErrBadLog", err)
		}
	})
	t.Run("garbage header mounts clean", func(t *testing.T) {
		// No jnl magic: not a committed transaction, nothing to replay.
		rd := mk(t)
		blk := make([]byte, BlockSize)
		rd.ReadBlocks(0, 1, blk)
		var sb Superblock
		sb.decode(blk)
		junk := make([]byte, BlockSize)
		for i := range junk {
			junk[i] = byte(37 * i)
		}
		if err := rd.WriteBlocks(int(sb.LogStart), 1, junk); err != nil {
			t.Fatal(err)
		}
		if _, err := Mount(rd, nil); err != nil {
			t.Fatalf("Mount = %v, want nil", err)
		}
	})
}

// TestHostileOrphanListIsSweptNotTrusted: an orphan list naming the root
// inode, out-of-range inums, or live files must not reclaim anything it
// shouldn't — entries are validated per-inum and the region is swept.
func TestHostileOrphanList(t *testing.T) {
	rd := fs.NewRamdisk(BlockSize, 1024)
	if err := Mkfs(rd, 64); err != nil {
		t.Fatal(err)
	}
	f, err := Mount(rd, nil)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := openOF(f, "/keep.txt", fs.OCreate|fs.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Write(nil, []byte("live data")); err != nil {
		t.Fatal(err)
	}
	fl.Close(nil)
	if err := f.Sync(nil); err != nil {
		t.Fatal(err)
	}
	// Plant hostile entries directly on disk: root, out-of-range, a live
	// linked file's inum, and garbage.
	st, err := f.Stat(nil, "/keep.txt")
	if err != nil {
		t.Fatal(err)
	}
	blk := make([]byte, BlockSize)
	rd.ReadBlocks(0, 1, blk)
	binary.LittleEndian.PutUint32(blk[orphanOff+4:], rootInum)
	binary.LittleEndian.PutUint32(blk[orphanOff+8:], 0xFFFFFFF0)
	binary.LittleEndian.PutUint32(blk[orphanOff+12:], uint32(st.Inode))
	binary.LittleEndian.PutUint32(blk[orphanOff+16:], 63) // in-range but free
	if err := rd.WriteBlocks(0, 1, blk); err != nil {
		t.Fatal(err)
	}
	f2, err := Mount(rd, nil)
	if err != nil {
		t.Fatalf("Mount with hostile orphan list = %v", err)
	}
	// The live file survived (NLink > 0 protects it).
	got := make([]byte, 16)
	fl2, err := openOF(f2, "/keep.txt", fs.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := fl2.Read(nil, got); err != nil || string(got[:n]) != "live data" {
		t.Fatalf("read after hostile recovery = %q, %v", got[:n], err)
	}
	fl2.Close(nil)
	// The list was swept clean.
	var swept [BlockSize]byte
	if err := f2.readBlock(nil, 0, func(d []byte) { copy(swept[:], d) }); err != nil {
		t.Fatal(err)
	}
	for i := orphanOff; i < BlockSize; i++ {
		if swept[i] != 0 {
			t.Fatalf("orphan region byte %d = %#x after sweep, want 0", i, swept[i])
		}
	}
}
