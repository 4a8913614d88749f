// Crash-injection fuzz: run a randomized workload over a Recorder-backed
// volume, then for many crash points — random ones plus a pinned set at
// structurally interesting writes — materialize the post-crash image,
// verify it with the independent fsck checker, run real recovery (a
// mount, plus Repair for FAT32), probe the recovered volume with live
// operations, and fsck again in strict mode.
//
// Every randomized run logs its seed; rerun a failure deterministically
// with CRASH_SEED=<seed> go test ./internal/kernel/crash/. The pinned
// regression seeds below always run. Workloads issue operations from one
// goroutine (the cache's flush daemons are never started), so a given
// seed records an identical write sequence on every run; the concurrent
// variants trade that determinism for coverage of interleaved writes —
// every recorded prefix must still verify, whatever interleaving
// happened.
package crash_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"protosim/internal/kernel/bcache"
	"protosim/internal/kernel/crash"
	"protosim/internal/kernel/dcache"
	"protosim/internal/kernel/fat32"
	"protosim/internal/kernel/fat32/fatfsck"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/xv6fs"
	"protosim/internal/kernel/xv6fs/xfsck"
)

// newDC mints a standalone dentry-cache mount: workload and recovery
// mounts run cached, the way the kernel wires them, so the crash sweeps
// also cover invalidation raced against every crash point.
func newDC() *dcache.Mount { return dcache.New(0, 0).NewMount("/") }

// workloadPaths is the entire namespace the randomized workload can
// touch (crash_test's name() and mkdir ops): the recovery oracle stats
// all of it cold and warm.
func workloadPaths() []string {
	var out []string
	for i := 0; i < 8; i++ {
		out = append(out, fmt.Sprintf("/f%d.dat", i))
	}
	for i := 0; i < 3; i++ {
		d := fmt.Sprintf("/d%d", i)
		out = append(out, d, d+"/in.dat")
	}
	return out
}

// coldWarmCheck stats every workload path twice on a freshly recovered
// mount: the first pass walks the directory blocks and fills the dentry
// cache, the second is served from it. Any divergence means recovery
// left the cache and the on-disk directories telling different stories.
func coldWarmCheck(t *testing.T, fsys fs.FileSystem, m *dcache.Mount, ctx string) {
	t.Helper()
	type ans struct {
		err  error
		size int64
		typ  fs.FileType
	}
	cold := make(map[string]ans)
	for _, p := range workloadPaths() {
		st, err := fsys.Stat(nil, p)
		cold[p] = ans{err, st.Size, st.Type}
	}
	hot0 := m.Stats()
	for _, p := range workloadPaths() {
		st, err := fsys.Stat(nil, p)
		c := cold[p]
		if (err == nil) != (c.err == nil) || (err != nil && !errors.Is(err, c.err)) {
			t.Fatalf("%s: cold/warm divergence at %s: cold err %v, warm err %v", ctx, p, c.err, err)
		}
		if err == nil && (st.Size != c.size || st.Type != c.typ) {
			t.Fatalf("%s: cold/warm divergence at %s: cold (size %d, %v), warm (size %d, %v)",
				ctx, p, c.size, c.typ, st.Size, st.Type)
		}
	}
	hot1 := m.Stats()
	if hot1.Hits+hot1.NegHits <= hot0.Hits+hot0.NegHits {
		t.Fatalf("%s: warm pass never hit the dentry cache", ctx)
	}
}

// regressionSeeds always run: seeds that once exposed bugs (or that the
// suite has simply always run) stay pinned so fixes cannot silently
// regress.
var regressionSeeds = []int64{1, 7, 42}

// seeds returns the seeds for one test: the pinned regression set plus,
// outside -short, one fresh randomized seed (logged for replay) or the
// CRASH_SEED override.
func seeds(t *testing.T) []int64 {
	if env := os.Getenv("CRASH_SEED"); env != "" {
		s, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad CRASH_SEED %q: %v", env, err)
		}
		t.Logf("seed %d (from CRASH_SEED)", s)
		return []int64{s}
	}
	out := regressionSeeds
	if !testing.Short() {
		s := time.Now().UnixNano()
		t.Logf("randomized seed %d (rerun with CRASH_SEED=%d)", s, s)
		out = append(append([]int64{}, out...), s)
	}
	return out
}

// points picks which crash points to verify: the two endpoints, every
// pinned point, and enough random ones to reach n.
func points(rng *rand.Rand, writes, n int, pinned []int) []int {
	seen := map[int]bool{0: true, writes: true}
	out := []int{0, writes}
	for _, p := range pinned {
		if p >= 0 && p <= writes && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for len(out) < n && len(out) < writes+1 {
		p := rng.Intn(writes + 1)
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// tolerable filters workload errors: the randomized ops race each other
// over a small namespace and a small volume, so "not found", "exists",
// "not empty", "no space" and friends are expected outcomes, not bugs.
func tolerable(err error) bool {
	switch err {
	case nil, fs.ErrNotFound, fs.ErrExists, fs.ErrNotEmpty, fs.ErrNoSpace,
		fs.ErrIsDir, fs.ErrNotDir, fs.ErrPerm:
		return true
	}
	return false
}

func openOF(fsys fs.FileSystem, path string, flags int) (*fs.OpenFile, error) {
	ops, err := fsys.Open(nil, path, flags)
	if err != nil {
		return nil, err
	}
	return fs.NewOpenFile(ops, flags), nil
}

// workload runs nOps randomized metadata-heavy operations — create,
// append, overwrite, fsync, unlink, mkdir, rename and rename-replace —
// against any mounted filesystem.
func workload(t *testing.T, fsys fs.FileSystem, rng *rand.Rand, nOps int) {
	t.Helper()
	workloadWith(t, fsys, rng, nOps, tolerable)
}

// workloadWith is workload with a pluggable error filter: the fault-plan
// fuzz reuses the same op mix but must additionally tolerate injected IO
// errors and the read-only latch they leave behind.
func workloadWith(t *testing.T, fsys fs.FileSystem, rng *rand.Rand, nOps int, tol func(error) bool) {
	t.Helper()
	ren, _ := fsys.(fs.Renamer)
	name := func() string { return fmt.Sprintf("/f%d.dat", rng.Intn(8)) }
	payload := func() []byte {
		p := make([]byte, 1+rng.Intn(6000))
		rng.Read(p)
		return p
	}
	for i := 0; i < nOps; i++ {
		var err error
		switch op := rng.Intn(10); op {
		case 0, 1: // create / overwrite
			var fl *fs.OpenFile
			if fl, err = openOF(fsys, name(), fs.OCreate|fs.OWrOnly); err == nil {
				_, err = fl.Write(nil, payload())
				fl.Close(nil)
			}
		case 2, 3: // append
			var fl *fs.OpenFile
			if fl, err = openOF(fsys, name(), fs.OWrOnly|fs.OAppend); err == nil {
				_, err = fl.Write(nil, payload())
				fl.Close(nil)
			}
		case 4: // fsync
			var fl *fs.OpenFile
			if fl, err = openOF(fsys, name(), fs.OWrOnly|fs.OAppend); err == nil {
				if _, err = fl.Write(nil, payload()); err == nil {
					err = fl.Sync(nil)
				}
				fl.Close(nil)
			}
		case 5, 6: // unlink
			err = fsys.Unlink(nil, name())
		case 7: // mkdir + a file inside
			d := fmt.Sprintf("/d%d", rng.Intn(3))
			if err = fsys.Mkdir(nil, d); tol(err) {
				var fl *fs.OpenFile
				if fl, err = openOF(fsys, d+"/in.dat", fs.OCreate|fs.OWrOnly); err == nil {
					_, err = fl.Write(nil, payload())
					fl.Close(nil)
				}
			}
		case 8, 9: // rename, often onto an existing target (replace)
			if ren != nil {
				err = ren.Rename(nil, name(), name())
			}
		}
		if !tol(err) {
			t.Fatalf("workload op %d: %v", i, err)
		}
	}
}

// --- xv6fs ---

const (
	xvBlocks  = 1024
	xvNInodes = 64
)

// xvCache keeps per-point mounts cheap; the journal needs slots ≤ half
// the cache, which 256 buffers comfortably covers.
var xvCache = bcache.Options{Buffers: 256, Shards: 4, Readahead: -1,
	FlushInterval: time.Hour, WritebackRatio: -1}

// recordXv6 formats a volume, wraps it in a Recorder and runs the
// workload on a journaled mount.
func recordXv6(t *testing.T, seed int64, nOps int) *crash.Recorder {
	t.Helper()
	rd := fs.NewRamdisk(xv6fs.BlockSize, xvBlocks)
	if err := xv6fs.Mkfs(rd, xvNInodes); err != nil {
		t.Fatal(err)
	}
	rec := crash.NewRecorder(rd)
	fsys, err := xv6fs.MountWith(rec, nil, xvCache)
	if err != nil {
		t.Fatal(err)
	}
	if fsys.Journal() == nil {
		t.Fatal("volume mounted without a journal")
	}
	fsys.SetDcache(newDC())
	workload(t, fsys, rand.New(rand.NewSource(seed)), nOps)
	return rec
}

// verifyXv6 is the per-crash-point oracle: the image must pass the
// journal-aware checker as-is (orphans tolerated), a real mount must
// recover it, the recovered volume must take live traffic, and after a
// sync it must pass strict fsck.
func verifyXv6(t *testing.T, img *fs.Ramdisk, ctx string) {
	t.Helper()
	rep, err := xfsck.Check(img, xfsck.PostCrash)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if !rep.Clean() {
		t.Fatalf("%s: post-crash fsck: %v (%s)", ctx, rep.Errors, rep)
	}
	fsys, err := xv6fs.MountWith(img, nil, xvCache) // replays the log, reclaims orphans
	if err != nil {
		t.Fatalf("%s: recovery mount: %v", ctx, err)
	}
	dc := newDC()
	fsys.SetDcache(dc)
	probe(t, fsys, ctx)
	coldWarmCheck(t, fsys, dc, ctx)
	if err := fsys.Sync(nil); err != nil {
		t.Fatalf("%s: sync after probe: %v", ctx, err)
	}
	rep, err = xfsck.Check(img, xfsck.Strict)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if !rep.Clean() {
		t.Fatalf("%s: strict fsck after recovery: %v (%s)", ctx, rep.Errors, rep)
	}
}

// probe exercises a recovered volume: create, write, read back, remove.
func probe(t *testing.T, fsys fs.FileSystem, ctx string) {
	t.Helper()
	fl, err := openOF(fsys, "/probe.tmp", fs.OCreate|fs.ORdWr)
	if err != nil {
		t.Fatalf("%s: probe create: %v", ctx, err)
	}
	want := []byte("recovered volume takes traffic")
	if _, err := fl.Write(nil, want); err != nil {
		t.Fatalf("%s: probe write: %v", ctx, err)
	}
	got := make([]byte, len(want))
	if _, err := fl.Pread(nil, got, 0); err != nil || string(got) != string(want) {
		t.Fatalf("%s: probe read: %v (%q)", ctx, err, got)
	}
	fl.Close(nil)
	if err := fsys.Unlink(nil, "/probe.tmp"); err != nil {
		t.Fatalf("%s: probe unlink: %v", ctx, err)
	}
}

// logHeaderPoints pins crash points bracketing every journal-header
// write: just before (committed transaction absent) and just after
// (commit point durable, checkpoint not) — the two halves of the
// write-ahead contract.
func logHeaderPoints(rec *crash.Recorder) []int {
	var out []int
	for i := 0; i < rec.Writes(); i++ {
		if lba, _ := rec.WriteLBA(i); lba == 1 {
			out = append(out, i, i+1)
		}
	}
	return out
}

func TestCrashXv6fs(t *testing.T) {
	nOps, nPoints := 60, 50
	if testing.Short() {
		nOps, nPoints = 25, 8
	}
	for _, seed := range seeds(t) {
		rec := recordXv6(t, seed, nOps)
		rng := rand.New(rand.NewSource(seed + 1))
		for _, k := range points(rng, rec.Writes(), nPoints, logHeaderPoints(rec)) {
			verifyXv6(t, rec.ImageAt(k), fmt.Sprintf("seed %d point %d/%d", seed, k, rec.Writes()))
		}
	}
}

// TestCrashXv6fsFsyncDurability pins the journal's actual promise: after
// an fsync returns, a crash at ANY later point leaves the fsynced bytes
// readable under the fsynced name.
func TestCrashXv6fsFsyncDurability(t *testing.T) {
	rd := fs.NewRamdisk(xv6fs.BlockSize, xvBlocks)
	if err := xv6fs.Mkfs(rd, xvNInodes); err != nil {
		t.Fatal(err)
	}
	rec := crash.NewRecorder(rd)
	fsys, err := xv6fs.MountWith(rec, nil, xvCache)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 3*xv6fs.BlockSize)
	rand.New(rand.NewSource(99)).Read(want)
	fl, err := openOF(fsys, "/durable.dat", fs.OCreate|fs.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Write(nil, want); err != nil {
		t.Fatal(err)
	}
	if err := fl.Sync(nil); err != nil {
		t.Fatal(err)
	}
	fl.Close(nil)
	barrier := rec.Writes()
	// Unrelated traffic after the fsync must not be able to unwrite it.
	workload(t, fsys, rand.New(rand.NewSource(3)), 20)

	for _, k := range []int{barrier, barrier + (rec.Writes()-barrier)/2, rec.Writes()} {
		img := rec.ImageAt(k)
		ctx := fmt.Sprintf("point %d", k)
		verifyXv6(t, img, ctx)
		after, err := xv6fs.MountWith(img, nil, xvCache)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		fl, err := openOF(after, "/durable.dat", fs.ORdOnly)
		if err != nil {
			t.Fatalf("%s: fsynced file lost: %v", ctx, err)
		}
		got := make([]byte, len(want))
		if _, err := fl.Pread(nil, got, 0); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		fl.Close(nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: fsynced byte %d: got %#x want %#x", ctx, i, got[i], want[i])
			}
		}
	}
}

func TestCrashXv6fsConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent crash fuzz skipped in short mode")
	}
	rd := fs.NewRamdisk(xv6fs.BlockSize, 2048)
	if err := xv6fs.Mkfs(rd, xvNInodes); err != nil {
		t.Fatal(err)
	}
	rec := crash.NewRecorder(rd)
	fsys, err := xv6fs.MountWith(rec, nil, xvCache)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workload(t, fsys, rand.New(rand.NewSource(int64(100+w))), 25)
		}(w)
	}
	wg.Wait()
	rng := rand.New(rand.NewSource(4))
	for _, k := range points(rng, rec.Writes(), 12, logHeaderPoints(rec)) {
		verifyXv6(t, rec.ImageAt(k), fmt.Sprintf("concurrent point %d/%d", k, rec.Writes()))
	}
}

// --- FAT32 ---

const fatSectors = 4096 // 2 MB volume

var fatCache = bcache.Options{Buffers: 512, Shards: 4, Readahead: -1,
	FlushInterval: time.Hour, WritebackRatio: -1}

func recordFat(t *testing.T, seed int64, nOps int) *crash.Recorder {
	return recordFatPath(t, seed, nOps, fat32.DataPathRange)
}

// recordFatPath records the workload with file data flowing through the
// given data path (metadata always goes through the cache): the
// single-block and bypass baselines order their device writes
// differently from the default coalesced range path, so each gets its
// own crash sweep.
func recordFatPath(t *testing.T, seed int64, nOps int, dp fat32.DataPath) *crash.Recorder {
	t.Helper()
	rd := fs.NewRamdisk(fat32.SectorSize, fatSectors)
	if err := fat32.Mkfs(rd); err != nil {
		t.Fatal(err)
	}
	rec := crash.NewRecorder(rd)
	fsys, err := fat32.MountWith(rec, nil, fatCache)
	if err != nil {
		t.Fatal(err)
	}
	fsys.SetDataPath(dp)
	fsys.SetDcache(newDC())
	workload(t, fsys, rand.New(rand.NewSource(seed)), nOps)
	return rec
}

// verifyFat is the FAT32 oracle: the crash image must already pass the
// checker with only repairable artifacts, Repair must then make it
// strictly clean, and the repaired volume must mount, take live traffic
// and still be strictly clean after a sync.
func verifyFat(t *testing.T, img *fs.Ramdisk, ctx string) {
	t.Helper()
	rep, err := fatfsck.Check(img, fatfsck.PostCrash)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if !rep.Clean() {
		t.Fatalf("%s: post-crash fsck: %v (%s)", ctx, rep.Errors, rep)
	}
	if rep, err = fatfsck.Repair(img); err != nil || !rep.Clean() {
		t.Fatalf("%s: repair: %v %v", ctx, err, rep.Errors)
	}
	fsys, err := fat32.MountWith(img, nil, fatCache)
	if err != nil {
		t.Fatalf("%s: mount after repair: %v", ctx, err)
	}
	dc := newDC()
	fsys.SetDcache(dc)
	probe(t, fsys, ctx)
	coldWarmCheck(t, fsys, dc, ctx)
	if err := fsys.Sync(nil); err != nil {
		t.Fatalf("%s: sync after probe: %v", ctx, err)
	}
	if rep, err = fatfsck.Check(img, fatfsck.Strict); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if !rep.Clean() {
		t.Fatalf("%s: strict fsck after repair: %v (%s)", ctx, rep.Errors, rep)
	}
}

// direntPoints pins crash points around writes that can publish or
// unpublish directory entries: commands touching the metadata area
// (boot, FSInfo, FAT) or the root directory's cluster — the sectors the
// ordered-writes discipline sequences.
func direntPoints(rec *crash.Recorder, img *fs.Ramdisk) []int {
	boot := make([]byte, fat32.SectorSize)
	if err := img.ReadBlocks(0, 1, boot); err != nil {
		return nil
	}
	reserved := int(binary.LittleEndian.Uint16(boot[14:]))
	dataStart := reserved + int(binary.LittleEndian.Uint32(boot[36:]))
	var out []int
	for i := 0; i < rec.Writes(); i++ {
		if lba, _ := rec.WriteLBA(i); lba < dataStart+fat32.SectorsPerCluster {
			out = append(out, i, i+1)
		}
	}
	return out
}

func TestCrashFAT32(t *testing.T) {
	nOps, nPoints := 60, 50
	if testing.Short() {
		nOps, nPoints = 25, 8
	}
	for _, seed := range seeds(t) {
		rec := recordFat(t, seed, nOps)
		rng := rand.New(rand.NewSource(seed + 1))
		base := rec.ImageAt(0)
		for _, k := range points(rng, rec.Writes(), nPoints, direntPoints(rec, base)) {
			verifyFat(t, rec.ImageAt(k), fmt.Sprintf("seed %d point %d/%d", seed, k, rec.Writes()))
		}
	}
}

// TestCrashFAT32DataPaths sweeps the same crash-point fuzz over the two
// measurement-baseline data paths (single-block cached loop, and direct-
// device bypass). Only the default range path was crash-tested before;
// the baselines put data on the device in a different order relative to
// the ordered metadata writes — the bypass path in particular hits the
// device before any cache flush — and every prefix must still verify,
// repair, and take live traffic.
func TestCrashFAT32DataPaths(t *testing.T) {
	nOps, nPoints := 60, 25
	if testing.Short() {
		nOps, nPoints = 25, 6
	}
	for _, dp := range []fat32.DataPath{fat32.DataPathSingleBlock, fat32.DataPathBypass} {
		for _, seed := range seeds(t) {
			rec := recordFatPath(t, seed, nOps, dp)
			rng := rand.New(rand.NewSource(seed + 2))
			base := rec.ImageAt(0)
			for _, k := range points(rng, rec.Writes(), nPoints, direntPoints(rec, base)) {
				verifyFat(t, rec.ImageAt(k), fmt.Sprintf("path %s seed %d point %d/%d", dp, seed, k, rec.Writes()))
			}
		}
	}
}

func TestCrashFAT32Concurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent crash fuzz skipped in short mode")
	}
	rd := fs.NewRamdisk(fat32.SectorSize, 8192)
	if err := fat32.Mkfs(rd); err != nil {
		t.Fatal(err)
	}
	rec := crash.NewRecorder(rd)
	fsys, err := fat32.MountWith(rec, nil, fatCache)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workload(t, fsys, rand.New(rand.NewSource(int64(200+w))), 25)
		}(w)
	}
	wg.Wait()
	rng := rand.New(rand.NewSource(5))
	for _, k := range points(rng, rec.Writes(), 12, nil) {
		verifyFat(t, rec.ImageAt(k), fmt.Sprintf("concurrent point %d/%d", k, rec.Writes()))
	}
}

// TestCrashFAT32AppendPublishesAtFsync pins where an append's ordering
// barrier now lives: the append itself writes nothing to the device, and
// its fsync makes the chain links and then the size durable. Every crash
// point from the append to the end of the fsync must show either the old
// size or the new one over a chain that backs it; after the fsync the
// image is clean but for the FSInfo free count, which only a volume Sync
// rewrites; and a later unfsynced append reaches the disk at close and
// sync.
func TestCrashFAT32AppendPublishesAtFsync(t *testing.T) {
	rd := fs.NewRamdisk(fat32.SectorSize, fatSectors)
	if err := fat32.Mkfs(rd); err != nil {
		t.Fatal(err)
	}
	rec := crash.NewRecorder(rd)
	fsys, err := fat32.MountWith(rec, nil, fatCache)
	if err != nil {
		t.Fatal(err)
	}
	of, err := openOF(fsys, "/log.bin", fs.OCreate|fs.OWrOnly|fs.OAppend)
	if err != nil {
		t.Fatal(err)
	}
	appendSync := func(n int, sync bool) {
		t.Helper()
		if _, err := of.Write(nil, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if !sync {
			return
		}
		if err := of.Sync(nil); err != nil {
			t.Fatal(err)
		}
	}
	sizeOn := func(img *fs.Ramdisk) int64 {
		t.Helper()
		m, err := fat32.MountWith(img, nil, fatCache)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Stat(nil, "/log.bin")
		if err != nil {
			t.Fatal(err)
		}
		return st.Size
	}

	const head = 100
	appendSync(head, true)
	appended := rec.Writes()
	appendSync(2*fat32.ClusterSize, false)
	if n := rec.Writes() - appended; n != 0 {
		t.Fatalf("an extending append issued %d device writes, want 0", n)
	}
	if err := of.Sync(nil); err != nil {
		t.Fatal(err)
	}
	synced := rec.Writes()
	newSize := int64(head + 2*fat32.ClusterSize)
	for k := appended; k <= synced; k++ {
		img := rec.ImageAt(k)
		rep, err := fatfsck.Check(img, fatfsck.PostCrash)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("point %d/%d: post-crash fsck: %v", k, synced, rep.Errors)
		}
		size := sizeOn(img)
		if k == appended && size != head {
			t.Fatalf("before the fsync the image holds size %d, want %d", size, head)
		}
		if size != head && size != newSize {
			t.Fatalf("point %d/%d: size %d, want %d or %d", k, synced, size, head, newSize)
		}
	}
	img := rec.ImageAt(synced)
	if size := sizeOn(img); size != newSize {
		t.Fatalf("after the fsync the image holds size %d, want %d", size, newSize)
	}
	rep, err := fatfsck.Check(img, fatfsck.Strict)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Errors {
		if !strings.HasPrefix(e, "FSInfo free count") {
			t.Fatalf("after the fsync: strict fsck: %v", rep.Errors)
		}
	}

	// An unfsynced append reaches the disk at close and volume sync.
	appendSync(head, false)
	if err := of.Close(nil); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Sync(nil); err != nil {
		t.Fatal(err)
	}
	img = rec.ImageAt(rec.Writes())
	if rep, err := fatfsck.Check(img, fatfsck.Strict); err != nil || !rep.Clean() {
		t.Fatalf("after close and sync: strict fsck: %v %v", err, rep.Errors)
	}
	if size := sizeOn(img); size != newSize+head {
		t.Fatalf("a fresh mount after close and sync reports size %d, want %d", size, newSize+head)
	}
}

// TestRecorderImageIndependence pins the harness itself: images from
// different crash points are snapshots, not views — mutating one (as
// recovery mounts do) must not bleed into another or into the live
// device.
func TestRecorderImageIndependence(t *testing.T) {
	rd := fs.NewRamdisk(512, 8)
	rec := crash.NewRecorder(rd)
	blk := make([]byte, 512)
	for i := byte(1); i <= 3; i++ {
		blk[0] = i
		if err := rec.WriteBlocks(int(i), 1, blk); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Writes() != 3 {
		t.Fatalf("recorded %d writes, want 3", rec.Writes())
	}
	img1, img2 := rec.ImageAt(1), rec.ImageAt(3)
	got := make([]byte, 512)
	img1.ReadBlocks(2, 1, got)
	if got[0] != 0 {
		t.Fatal("point-1 image contains a later write")
	}
	img2.ReadBlocks(2, 1, got)
	if got[0] != 2 {
		t.Fatal("point-3 image lost a write")
	}
	// Mutating a crash image must not affect the device or other images.
	blk[0] = 0xFF
	img2.WriteBlocks(1, 1, blk)
	rd.ReadBlocks(1, 1, got)
	if got[0] != 1 {
		t.Fatal("crash image mutation bled into the live device")
	}
}
