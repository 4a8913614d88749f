package xv6fs_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/xv6fs"
	"protosim/internal/kernel/xv6fs/xfsck"
)

// fullScan is what the allocators would return scanning from the bottom:
// the lowest free inum, the lowest free data block the journal does not
// revoke, and the lowest clear bitmap bit (revoked or not); -1 for none.
type fullScan struct{ inum, block, clear int }

// scanAndCheckHints brute-forces the volume through the mount's cache and
// fails the test if any inum below the ifree hint or any data block below
// the bfree hint is free.
func scanAndCheckHints(t *testing.T, f *xv6fs.FS, step string) fullScan {
	t.Helper()
	sb := f.Geometry()
	ifree, bfree := f.AllocHints()
	s := fullScan{-1, -1, -1}
	for inum := 1; inum < int(sb.NInodes); inum++ {
		free, err := f.InodeFree(inum)
		if err != nil {
			t.Fatal(err)
		}
		if !free {
			continue
		}
		if inum < ifree {
			t.Fatalf("%s: inum %d is free below the ifree hint %d", step, inum, ifree)
		}
		if s.inum < 0 {
			s.inum = inum
		}
	}
	for lba := int(sb.DataStart); lba < int(sb.Size); lba++ {
		free, revoked, err := f.BlockFree(lba)
		if err != nil {
			t.Fatal(err)
		}
		if !free {
			continue
		}
		if lba < bfree {
			t.Fatalf("%s: block %d is free below the bfree hint %d", step, lba, bfree)
		}
		if s.clear < 0 {
			s.clear = lba
		}
		if !revoked && s.block < 0 {
			s.block = lba
		}
	}
	return s
}

// hintChurn drives one mount through a seeded create/write/truncate/
// unlink mix and checks, after every step, the hints' invariant and that
// each new inode and each new file's first block is exactly what a full
// scan picked.
type hintChurn struct {
	t      *testing.T
	f      *xv6fs.FS
	rng    *rand.Rand
	blk    []byte
	live   []string
	next   int
	lifted int // allocations that had to drain the log for a revoked block
}

func (c *hintChurn) check(step string) fullScan { return scanAndCheckHints(c.t, c.f, step) }

// create makes a new file with one block and, while the volume has room,
// up to extra more. It reports whether the first block fit.
func (c *hintChurn) create(extra int) bool {
	t := c.t
	name := fmt.Sprintf("/c%d", c.next)
	c.next++
	want := c.check("before create " + name)
	fl, err := openFile(c.f, name, fs.OCreate|fs.ORdWr)
	if errors.Is(err, fs.ErrNoSpace) {
		return false
	}
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close(nil)
	st, err := fl.Stat(nil)
	if err != nil {
		t.Fatal(err)
	}
	if int(st.Inode) != want.inum {
		t.Fatalf("create %s got inum %d, a full scan picks %d", name, st.Inode, want.inum)
	}
	c.live = append(c.live, name)
	// The first block: the lowest free one, or — when every free block is
	// revoked — the lowest clear one, once the write has drained the log.
	want = c.check("after create " + name)
	if _, err := fl.Write(nil, c.blk); err != nil {
		if errors.Is(err, fs.ErrNoSpace) && want.clear < 0 {
			return false
		}
		t.Fatalf("first write of %s: %v (full scan: %+v)", name, err, want)
	}
	wantBlock := want.block
	if wantBlock < 0 {
		wantBlock = want.clear
		c.lifted++
	}
	if got, err := c.f.FirstBlock(int(st.Inode)); err != nil || got != wantBlock {
		t.Fatalf("%s's first block is %d (%v), a full scan picks %d", name, got, err, wantBlock)
	}
	for ; extra > 0; extra-- {
		if _, err := fl.Write(nil, c.blk); errors.Is(err, fs.ErrNoSpace) || errors.Is(err, fs.ErrFileTooBig) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	return true
}

// pick removes and returns a random live name.
func (c *hintChurn) pick() string {
	i := c.rng.Intn(len(c.live))
	name := c.live[i]
	c.live = append(c.live[:i], c.live[i+1:]...)
	return name
}

func (c *hintChurn) step() {
	t := c.t
	switch op := c.rng.Intn(10); {
	case len(c.live) == 0 || op < 4:
		c.create(c.rng.Intn(3))
	case op < 6: // truncate
		name := c.live[c.rng.Intn(len(c.live))]
		fl, err := openFile(c.f, name, fs.OTrunc|fs.OWrOnly)
		if err != nil {
			t.Fatal(err)
		}
		fl.Close(nil)
		c.check("truncate " + name)
	case op < 8: // unlink
		name := c.pick()
		if err := c.f.Unlink(nil, name); err != nil {
			t.Fatal(err)
		}
		c.check("unlink " + name)
	default: // unlink while open; the close reclaims
		name := c.pick()
		fl, err := openFile(c.f, name, fs.ORdWr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.f.Unlink(nil, name); err != nil {
			t.Fatal(err)
		}
		c.check("unlink open " + name)
		fl.Close(nil)
		c.check("close unlinked " + name)
	}
}

func openFile(f *xv6fs.FS, path string, flags int) (*fs.OpenFile, error) {
	ops, err := f.Open(nil, path, flags)
	if err != nil {
		return nil, err
	}
	return fs.NewOpenFile(ops, flags), nil
}

func strictFsck(t *testing.T, dev fs.BlockDevice, when string) {
	t.Helper()
	rep, err := xfsck.Check(dev, xfsck.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("strict xfsck %s: %v\n%s", when, rep, strings.Join(rep.Errors, "\n"))
	}
}

// TestAllocHintsMatchFullScan runs a seeded churn on a small volume that
// fills up, takes the revoked-only path out of a full volume, and then
// crashes with an unlinked file still open, so the remount's orphan
// recovery frees through iput. Throughout, every allocation is the one a
// full scan makes, and the hints stay lower bounds.
func TestAllocHintsMatchFullScan(t *testing.T) {
	rd := fs.NewRamdisk(xv6fs.BlockSize, 512)
	if err := xv6fs.Mkfs(rd, 64); err != nil {
		t.Fatal(err)
	}
	f, err := xv6fs.Mount(rd, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := &hintChurn{t: t, f: f, rng: rand.New(rand.NewSource(7)), blk: bytes.Repeat([]byte{0xA5}, xv6fs.BlockSize)}
	for i := 0; i < 400; i++ {
		c.step()
	}

	// Fill the volume with big files around one single-block file. Free
	// that block and turn it into a directory block the log names, then
	// free it again: the only free block on the volume is revoked.
	for len(c.live) > 8 {
		if err := f.Unlink(nil, c.pick()); err != nil {
			t.Fatal(err)
		}
	}
	if !c.create(0) {
		t.Fatal("no room for the single-block file")
	}
	one := c.live[len(c.live)-1]
	c.live = c.live[:len(c.live)-1]
	for c.create(xv6fs.MaxFile) {
	}
	if err := f.Sync(nil); err != nil {
		t.Fatal(err)
	}
	if s := c.check("full volume"); s.clear >= 0 {
		t.Fatalf("volume not full: %+v", s)
	}
	for _, op := range []func() error{
		func() error { return f.Unlink(nil, one) },
		func() error { return f.Mkdir(nil, "/d") },
		func() error { return f.Unlink(nil, "/d") },
	} {
		if err := op(); err != nil {
			t.Fatal(err)
		}
		c.check("revoke setup")
	}
	if s := c.check("revoked-only volume"); s.block >= 0 || s.clear < 0 {
		t.Fatalf("free blocks %+v, want only a revoked one", s)
	}
	lifted := c.lifted
	if !c.create(0) || c.lifted != lifted+1 {
		t.Fatal("create on a volume whose free blocks are all revoked did not take the drain path")
	}

	// Crash with an unlinked file open: the remount reclaims it.
	name := c.pick()
	fl, err := openFile(f, name, fs.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	st, err := fl.Stat(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Unlink(nil, name); err != nil {
		t.Fatal(err)
	}
	crashed := fs.NewRamdiskFromImage(xv6fs.BlockSize, rd.Image())
	fl.Close(nil)
	if err := f.Sync(nil); err != nil {
		t.Fatal(err)
	}
	strictFsck(t, rd, "after the churn")

	f2, err := xv6fs.Mount(crashed, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2 := &hintChurn{t: t, f: f2, rng: rand.New(rand.NewSource(8)), blk: c.blk, live: c.live, next: c.next}
	if s := c2.check("remount"); s.inum > int(st.Inode) {
		t.Fatalf("orphan inum %d not reclaimed at remount (lowest free %d)", st.Inode, s.inum)
	}
	for i := 0; i < 50; i++ {
		c2.step()
	}
	if err := f2.Sync(nil); err != nil {
		t.Fatal(err)
	}
	strictFsck(t, crashed, "after the remount churn")
}

// TestCreateLookupsIndependentOfLiveInodes: one create and one-block
// write costs the same number of buffer-cache lookups on a volume with a
// handful of live inodes as on one with hundreds and most data blocks in
// use. A scan from inum 1 would add one lookup per live inode.
func TestCreateLookupsIndependentOfLiveInodes(t *testing.T) {
	const live = 220
	lookups := func(files int) int64 {
		rd := fs.NewRamdisk(xv6fs.BlockSize, 2048)
		if err := xv6fs.Mkfs(rd, 256); err != nil {
			t.Fatal(err)
		}
		f, err := xv6fs.Mount(rd, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []string{"/fill", "/m"} {
			if err := f.Mkdir(nil, d); err != nil {
				t.Fatal(err)
			}
		}
		data := make([]byte, 8*xv6fs.BlockSize)
		for i := 0; i < files; i++ {
			fl, err := openFile(f, fmt.Sprintf("/fill/%d", i), fs.OCreate|fs.OWrOnly)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fl.Write(nil, data); err != nil {
				t.Fatal(err)
			}
			fl.Close(nil)
		}
		if err := f.Sync(nil); err != nil {
			t.Fatal(err)
		}
		if files == live {
			sb := f.Geometry()
			used := 0
			for lba := int(sb.DataStart); lba < int(sb.Size); lba++ {
				if free, _, _ := f.BlockFree(lba); !free {
					used++
				}
			}
			if total := int(sb.Size - sb.DataStart); used*10 < total*8 {
				t.Fatalf("setup: %d of %d data blocks used, want most", used, total)
			}
		}
		hits, misses, _, _ := f.Cache().Stats()
		fl, err := openFile(f, "/m/x", fs.OCreate|fs.OWrOnly)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fl.Write(nil, data[:xv6fs.BlockSize]); err != nil {
			t.Fatal(err)
		}
		fl.Close(nil)
		hits2, misses2, _, _ := f.Cache().Stats()
		return hits2 - hits + misses2 - misses
	}
	sparse, dense := lookups(2), lookups(live)
	t.Logf("create+write: %d cache lookups with 2 live files, %d with %d", sparse, dense, live)
	if dense != sparse {
		t.Fatalf("create+write costs %d cache lookups with %d live files, %d with 2: the allocators scan what the hints skip", dense, live, sparse)
	}
}
