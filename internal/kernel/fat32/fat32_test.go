package fat32

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"protosim/internal/hw"
	"protosim/internal/kernel/fs"
)

// sdDev adapts hw.SDCard to fs.BlockDevice for tests.
type sdDev struct{ sd *hw.SDCard }

func (d sdDev) BlockSize() int { return hw.SDBlockSize }
func (d sdDev) Blocks() int    { return d.sd.Blocks() }
func (d sdDev) ReadBlocks(lba, n int, dst []byte) error {
	return d.sd.ReadBlocks(lba, n, dst)
}
func (d sdDev) WriteBlocks(lba, n int, src []byte) error {
	return d.sd.WriteBlocks(lba, n, src)
}

func newFS(t *testing.T, blocks int) *FS {
	t.Helper()
	sd := hw.NewSDCard(blocks, hw.NewIRQController(1))
	sd.SetLatencyScale(0)
	dev := sdDev{sd}
	if err := Mkfs(dev); err != nil {
		t.Fatal(err)
	}
	f, err := Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMkfsMount(t *testing.T) {
	f := newFS(t, 4096)
	st, err := f.Stat(nil, "/")
	if err != nil || st.Type != fs.TypeDir {
		t.Fatalf("root = %+v, %v", st, err)
	}
}

func TestMountRejectsGarbage(t *testing.T) {
	sd := hw.NewSDCard(256, hw.NewIRQController(1))
	sd.SetLatencyScale(0)
	if _, err := Mount(sdDev{sd}, nil); !errors.Is(err, ErrBadFS) {
		t.Fatalf("err = %v", err)
	}
}

func TestCreateWriteReadLargeFile(t *testing.T) {
	f := newFS(t, 16384) // 8 MB card
	fl, err := openOF(f, "/doom1.wad", fs.OCreate|fs.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	// A multi-MB file: far beyond xv6fs's 268 KB cap — the whole point of
	// FAT32 in Prototype 5.
	data := make([]byte, 2<<20)
	for i := range data {
		data[i] = byte(i * 2654435761)
	}
	if n, err := fl.Write(nil, data); err != nil || n != len(data) {
		t.Fatalf("write = %d, %v", n, err)
	}
	if _, err := fl.Seek(nil, 0, fs.SeekSet); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	read := 0
	for read < len(got) {
		n, err := fl.Read(nil, got[read:])
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		read += n
	}
	if !bytes.Equal(got, data) {
		t.Fatal("large file round-trip corrupted")
	}
	st, _ := f.Stat(nil, "/doom1.wad")
	if st.Size != int64(len(data)) {
		t.Fatalf("size = %d", st.Size)
	}
}

func TestRangeBypassUsed(t *testing.T) {
	f := newFS(t, 16384)
	fl, _ := openOF(f, "/video.mpv", fs.OCreate|fs.ORdWr)
	data := make([]byte, 512<<10)
	fl.Write(nil, data)
	fl.Seek(nil, 0, fs.SeekSet)
	opsBefore, blocksBefore := f.RangeStats()
	buf := make([]byte, 256<<10)
	if _, err := fl.Read(nil, buf); err != nil {
		t.Fatal(err)
	}
	ops, blocks := f.RangeStats()
	gotOps, gotBlocks := ops-opsBefore, blocks-blocksBefore
	if gotOps == 0 {
		t.Fatal("no range transfers used")
	}
	// A 256 KB aligned read over a freshly-written (contiguous) chain
	// should coalesce into very few commands, not one per sector.
	if gotOps > 8 {
		t.Fatalf("range read used %d commands for %d blocks; coalescing broken", gotOps, gotBlocks)
	}
}

func TestNamesCaseInsensitive83(t *testing.T) {
	f := newFS(t, 4096)
	fl, err := openOF(f, "/Track01.pog", fs.OCreate|fs.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	fl.Write(nil, []byte("audio"))
	fl.Close(nil)
	// Lookup with different case succeeds (FAT is case-insensitive).
	if _, err := f.Stat(nil, "/TRACK01.POG"); err != nil {
		t.Fatalf("uppercase lookup: %v", err)
	}
	if _, err := f.Stat(nil, "/track01.pog"); err != nil {
		t.Fatalf("lowercase lookup: %v", err)
	}
	// ReadDir reports the lowered name.
	d, _ := openOF(f, "/", fs.ORdOnly)
	entries, _ := d.ReadDir(nil)
	if len(entries) != 1 || entries[0].Name != "track01.pog" {
		t.Fatalf("entries = %v", entries)
	}
}

func TestNameRejection(t *testing.T) {
	f := newFS(t, 4096)
	for _, bad := range []string{"/waytoolongbasename.txt", "/file.toolong", "/sp ace.txt"} {
		if _, err := openOF(f, bad, fs.OCreate|fs.OWrOnly); !errors.Is(err, fs.ErrNameTooLong) {
			t.Fatalf("%s: err = %v", bad, err)
		}
	}
}

func TestDirectoriesNested(t *testing.T) {
	f := newFS(t, 4096)
	if err := f.Mkdir(nil, "/photos"); err != nil {
		t.Fatal(err)
	}
	if err := f.Mkdir(nil, "/photos/trip"); err != nil {
		t.Fatal(err)
	}
	fl, err := openOF(f, "/photos/trip/img1.bmp", fs.OCreate|fs.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	fl.Write(nil, []byte("BM"))
	fl.Close(nil)
	st, err := f.Stat(nil, "/photos/trip/img1.bmp")
	if err != nil || st.Size != 2 {
		t.Fatalf("stat = %+v %v", st, err)
	}
}

func TestUnlinkAndSpaceReuse(t *testing.T) {
	f := newFS(t, 2048) // ~1 MB card
	payload := make([]byte, 256<<10)
	for i := 0; i < 4; i++ {
		fl, err := openOF(f, "/big.bin", fs.OCreate|fs.OWrOnly)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if _, err := fl.Write(nil, payload); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		fl.Close(nil)
		if err := f.Unlink(nil, "/big.bin"); err != nil {
			t.Fatalf("iter %d unlink: %v", i, err)
		}
	}
}

func TestUnlinkNonEmptyDir(t *testing.T) {
	f := newFS(t, 4096)
	f.Mkdir(nil, "/d")
	fl, _ := openOF(f, "/d/x.txt", fs.OCreate|fs.OWrOnly)
	fl.Close(nil)
	if err := f.Unlink(nil, "/d"); !errors.Is(err, fs.ErrNotEmpty) {
		t.Fatalf("err = %v", err)
	}
}

func TestTruncReleasesClusters(t *testing.T) {
	f := newFS(t, 2048)
	fl, _ := openOF(f, "/t.bin", fs.OCreate|fs.OWrOnly)
	fl.Write(nil, make([]byte, 128<<10))
	fl.Close(nil)
	fl2, err := openOF(f, "/t.bin", fs.OWrOnly|fs.OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	fl2.Close(nil)
	st, _ := f.Stat(nil, "/t.bin")
	if st.Size != 0 {
		t.Fatalf("size = %d after trunc", st.Size)
	}
}

func TestPseudoInodeLifecycle(t *testing.T) {
	f := newFS(t, 4096)
	fl, _ := openOF(f, "/a.txt", fs.OCreate|fs.OWrOnly)
	fl.Write(nil, []byte("x"))
	if f.PseudoInodes() != 1 {
		t.Fatalf("pseudo inodes = %d", f.PseudoInodes())
	}
	// Second open of the same file shares the pseudo-inode.
	fl2, _ := openOF(f, "/a.txt", fs.ORdOnly)
	if f.PseudoInodes() != 1 {
		t.Fatalf("pseudo inodes = %d after second open", f.PseudoInodes())
	}
	// Both sides see a consistent size.
	st, _ := fl2.Stat(nil)
	if st.Size != 1 {
		t.Fatalf("shared size = %d", st.Size)
	}
	fl.Close(nil)
	fl2.Close(nil)
	if f.PseudoInodes() != 0 {
		t.Fatalf("pseudo inodes leak: %d", f.PseudoInodes())
	}
}

func TestDiskFull(t *testing.T) {
	f := newFS(t, 512) // 256 KB card
	fl, _ := openOF(f, "/fill.bin", fs.OCreate|fs.OWrOnly)
	var err error
	chunk := make([]byte, 64<<10)
	for i := 0; i < 32; i++ {
		if _, err = fl.Write(nil, chunk); err != nil {
			break
		}
	}
	if !errors.Is(err, fs.ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestSDErrorSurfaces(t *testing.T) {
	sd := hw.NewSDCard(4096, hw.NewIRQController(1))
	sd.SetLatencyScale(0)
	dev := sdDev{sd}
	if err := Mkfs(dev); err != nil {
		t.Fatal(err)
	}
	f, err := Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	fl, _ := openOF(f, "/x.bin", fs.OCreate|fs.ORdWr)
	fl.Write(nil, make([]byte, 64<<10))
	fl.Close(nil)
	if err := f.Sync(nil); err != nil {
		t.Fatal(err)
	}
	// Remount for a cold cache: with the data resident, a read would be
	// served from memory and never touch the failing device.
	f2, err := Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	fl2, err := openOF(f2, "/x.bin", fs.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	// The cache retries transient SD errors (bcache read-retry budget), so
	// a persistent fault needs enough injected failures to exhaust every
	// attempt of one read command before the error can surface.
	sd.InjectErrors(3)
	buf := make([]byte, 64<<10)
	if _, err := fl2.Read(nil, buf); err == nil {
		t.Fatal("injected SD error did not surface")
	}
}

func TestMkfsRemountPersistence(t *testing.T) {
	sd := hw.NewSDCard(4096, hw.NewIRQController(1))
	sd.SetLatencyScale(0)
	dev := sdDev{sd}
	Mkfs(dev)
	f, _ := Mount(dev, nil)
	fl, _ := openOF(f, "/save.dat", fs.OCreate|fs.OWrOnly)
	fl.Write(nil, []byte("persistent"))
	fl.Close(nil)
	if err := f.Sync(nil); err != nil {
		t.Fatal(err)
	}
	// Remount from the same card (simulating a reboot).
	f2, err := Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	fl2, err := openOF(f2, "/save.dat", fs.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 32)
	n, _ := fl2.Read(nil, b)
	if string(b[:n]) != "persistent" {
		t.Fatalf("after remount: %q", b[:n])
	}
}

func Test83RoundTripProperty(t *testing.T) {
	// Property: to83/from83 round-trips valid names (lowercased).
	names := []string{"a", "file.txt", "doom1.wad", "track01.pog", "x1234567.abc", "noext"}
	for _, n := range names {
		raw, ok := to83(n)
		if !ok {
			t.Fatalf("to83(%q) rejected", n)
		}
		if got := from83(raw); got != n {
			t.Fatalf("round trip %q -> %q", n, got)
		}
	}
	// Property via quick: any (short alnum base, short alnum ext) survives.
	check := func(b, e uint16) bool {
		base := fmt.Sprintf("f%d", b%9999)
		ext := fmt.Sprintf("e%d", e%99)
		name := base + "." + ext
		raw, ok := to83(name)
		return ok && from83(raw) == name
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAtOffsets(t *testing.T) {
	f := newFS(t, 8192)
	fl, _ := openOF(f, "/rw.bin", fs.OCreate|fs.ORdWr)
	model := make([]byte, 96<<10)
	fl.Write(nil, model) // allocate
	sk := fl
	writes := []struct {
		off int
		val byte
		n   int
	}{
		{0, 1, 100}, {4095, 2, 2}, {4096, 3, 4096}, {50000, 4, 20000}, {95<<10 - 7, 5, 1024 + 7},
	}
	for _, w := range writes {
		data := bytes.Repeat([]byte{w.val}, w.n)
		sk.Seek(nil, int64(w.off), fs.SeekSet)
		if _, err := fl.Write(nil, data); err != nil {
			t.Fatalf("write at %d: %v", w.off, err)
		}
		copy(model[w.off:], data)
	}
	sk.Seek(nil, 0, fs.SeekSet)
	got := make([]byte, len(model)+4096)
	read := 0
	for {
		n, err := fl.Read(nil, got[read:])
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		read += n
	}
	if read < len(model) {
		t.Fatalf("read %d, want >= %d", read, len(model))
	}
	if !bytes.Equal(got[:len(model)], model) {
		t.Fatal("offset writes diverged from model")
	}
}

// --- sharded-cache data path (this replaces the §5.2 bypass) ---

func TestDataFlowsThroughCache(t *testing.T) {
	sd := hw.NewSDCard(4096, hw.NewIRQController(1))
	sd.SetLatencyScale(0)
	dev := sdDev{sd}
	if err := Mkfs(dev); err != nil {
		t.Fatal(err)
	}
	f, err := Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.DataPath() != DataPathRange {
		t.Fatalf("default data path = %v, want range", f.DataPath())
	}
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	fl, err := openOF(f, "/data.bin", fs.OCreate|fs.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Write(nil, payload); err != nil {
		t.Fatal(err)
	}
	ops, blocks := f.RangeStats()
	if ops == 0 || blocks == 0 {
		t.Fatalf("write issued no range transfers (ops=%d blocks=%d)", ops, blocks)
	}
	cro, _, _ := f.Cache().RangeStats()
	if cro == 0 {
		t.Fatal("cache saw no range operations — data is not flowing through it")
	}
	// Warm read: the file was write-allocated, so no device reads happen.
	_, r0, _, _ := sd.Stats()
	fl.Seek(nil, 0, fs.SeekSet)
	got := make([]byte, len(payload))
	if _, err := fl.Read(nil, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("cached read returned wrong data")
	}
	_, r1, _, _ := sd.Stats()
	if r1 != r0 {
		t.Fatalf("warm read hit the device: %d -> %d blocks", r0, r1)
	}
	fl.Close(nil)
}

func TestDataPathModesAgree(t *testing.T) {
	payload := make([]byte, 100<<10) // unaligned tail exercises partials
	for i := range payload {
		payload[i] = byte(i ^ (i >> 8))
	}
	f := newFS(t, 4096)
	fl, err := openOF(f, "/agree.bin", fs.OCreate|fs.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Write(nil, payload); err != nil {
		t.Fatal(err)
	}
	fl.Close(nil)
	if err := f.Sync(nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range []DataPath{DataPathRange, DataPathSingleBlock, DataPathBypass} {
		f.SetDataPath(p)
		fl, err := openOF(f, "/agree.bin", fs.ORdOnly)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		got := make([]byte, len(payload))
		if _, err := fl.Read(nil, got); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("data path %v read different bytes", p)
		}
		fl.Close(nil)
	}
}

func TestRangeWritesCoalesceCommands(t *testing.T) {
	sd := hw.NewSDCard(8192, hw.NewIRQController(1))
	sd.SetLatencyScale(0)
	dev := sdDev{sd}
	if err := Mkfs(dev); err != nil {
		t.Fatal(err)
	}
	f, err := Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := openOF(f, "/big.bin", fs.OCreate|fs.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	c0, _, _, _ := sd.Stats()
	// One 256 KB write over a fresh contiguous chain: the data itself
	// should go out in a handful of multi-block commands, far fewer than
	// the 512 sectors it covers.
	if _, err := fl.Write(nil, make([]byte, 256<<10)); err != nil {
		t.Fatal(err)
	}
	c1, _, _, _ := sd.Stats()
	if cmds := c1 - c0; cmds > 200 {
		t.Fatalf("256 KB write issued %d device commands; range batching missing", cmds)
	}
	fl.Close(nil)
}

// TestLiveSizeBeforePublish: an append leaves its size unpublished until
// the next fsync, close, sync or rename, yet a path Stat and the parent's
// ReadDir already report it. The mount has no dentry cache, so the size
// cannot come from a cached entry.
func TestLiveSizeBeforePublish(t *testing.T) {
	f := newFS(t, 4096)
	if err := f.Mkdir(nil, "/d"); err != nil {
		t.Fatal(err)
	}
	dir, err := f.Stat(nil, "/d")
	if err != nil {
		t.Fatal(err)
	}
	fl, err := openOF(f, "/d/grow.bin", fs.OCreate|fs.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(ClusterSize + 100)
	if _, err := fl.Write(nil, make([]byte, want)); err != nil {
		t.Fatal(err)
	}
	diskSize := func() uint32 {
		t.Helper()
		de, _, err := f.lookup(nil, uint32(dir.Inode), "grow.bin")
		if err != nil {
			t.Fatal(err)
		}
		return de.size
	}
	if got := diskSize(); got != 0 {
		t.Fatalf("dirent size %d before any publish, want 0", got)
	}
	if st, err := f.Stat(nil, "/d/grow.bin"); err != nil || st.Size != want {
		t.Fatalf("stat = %+v, %v; want size %d", st, err, want)
	}
	dfl, err := openOF(f, "/d", fs.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := dfl.ReadDir(nil)
	dfl.Close(nil)
	if err != nil || len(ents) != 1 || !strings.EqualFold(ents[0].Name, "grow.bin") || ents[0].Size != want {
		t.Fatalf("readdir = %+v, %v; want grow.bin of %d bytes", ents, err, want)
	}
	if err := fl.Close(nil); err != nil {
		t.Fatal(err)
	}
	if got := diskSize(); int64(got) != want {
		t.Fatalf("dirent size %d after close, want %d", got, want)
	}
}
