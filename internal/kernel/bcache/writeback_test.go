package bcache

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"protosim/internal/kernel/blkq"
	"protosim/internal/kernel/fs"
)

// TestWriteBehindDefersDevice pins the write-behind contract: WriteRange
// returns with the device untouched, a read hits the cached copy, and the
// Flush barrier makes it durable.
func TestWriteBehindDefersDevice(t *testing.T) {
	rd := fs.NewRamdisk(512, 64)
	c := NewWithOptions(rd, Options{Buffers: 32, Shards: 4, Readahead: -1})
	if !c.WriteBehind() {
		t.Fatal("write-behind is not the default policy")
	}
	src := make([]byte, 8*512)
	for i := range src {
		src[i] = byte(i * 3)
	}
	if err := c.WriteRange(nil, 4, 8, src); err != nil {
		t.Fatal(err)
	}
	if _, w := rd.Stats(); w != 0 {
		t.Fatalf("write-behind WriteRange issued %d device block writes", w)
	}
	if d := c.DirtyBuffers(); d != 8 {
		t.Fatalf("DirtyBuffers = %d, want 8", d)
	}
	dst := make([]byte, 8*512)
	if err := c.ReadRange(nil, 4, 8, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("cached read after write-behind returned wrong data")
	}
	if err := c.Flush(nil); err != nil {
		t.Fatal(err)
	}
	if d := c.DirtyBuffers(); d != 0 {
		t.Fatalf("DirtyBuffers = %d after Flush, want 0", d)
	}
	raw := make([]byte, 8*512)
	rd.ReadBlocks(4, 8, raw)
	if !bytes.Equal(raw, src) {
		t.Fatal("Flush barrier did not make the write durable")
	}
}

// TestRewriteAbsorbed is the perf contract the write-heavy benchmark
// leans on: rewriting a still-dirty block costs no extra device traffic —
// N overwrites flush as one block write.
func TestRewriteAbsorbed(t *testing.T) {
	rd := fs.NewRamdisk(512, 16)
	c := NewWithOptions(rd, Options{Buffers: 8, Shards: 1, Readahead: -1})
	src := make([]byte, 512)
	for round := 0; round < 10; round++ {
		src[0] = byte(round)
		if err := c.WriteRange(nil, 3, 1, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(nil); err != nil {
		t.Fatal(err)
	}
	if _, w := rd.Stats(); w != 1 {
		t.Fatalf("10 rewrites flushed as %d block writes, want 1", w)
	}
	raw := make([]byte, 512)
	rd.ReadBlocks(3, 1, raw)
	if raw[0] != 9 {
		t.Fatalf("device holds round %d, want the last round 9", raw[0])
	}
}

// flakyRD injects write errors on demand.
type flakyRD struct {
	*fs.Ramdisk
	mu   sync.Mutex
	fail int
}

var errWB = errors.New("flaky: injected writeback error")

func (d *flakyRD) WriteBlocks(lba, n int, src []byte) error {
	d.mu.Lock()
	if d.fail > 0 {
		d.fail--
		d.mu.Unlock()
		return errWB
	}
	d.mu.Unlock()
	return d.Ramdisk.WriteBlocks(lba, n, src)
}

// TestDaemonWritebackErrorSurfacesAtSync is the async error-propagation
// contract: an error in a daemon writeback pass — which no caller waits
// on — must surface at the NEXT Flush (the fsync path), even though the
// retry that Flush performs succeeds; and the failed buffer must stay
// dirty until a writeback lands, so the data is never silently dropped.
func TestDaemonWritebackErrorSurfacesAtSync(t *testing.T) {
	dev := &flakyRD{Ramdisk: fs.NewRamdisk(512, 64)}
	c := NewWithOptions(dev, Options{Buffers: 16, Shards: 2, Readahead: -1,
		FlushInterval: 5 * time.Millisecond})
	go c.RunDaemon(nil, nil)
	defer c.StopDaemon()

	dev.mu.Lock()
	dev.fail = 1
	dev.mu.Unlock()
	src := make([]byte, 512)
	src[0] = 0x5A
	if err := c.WriteRange(nil, 7, 1, src); err != nil {
		t.Fatal(err)
	}
	c.kickDaemon()
	deadline := time.Now().Add(5 * time.Second)
	for !c.WritebackErrPending() {
		if time.Now().After(deadline) {
			t.Fatal("daemon never hit the injected write error")
		}
		time.Sleep(time.Millisecond)
	}
	// The data must still be dirty in the cache (not dropped) until a
	// later pass lands it; the injector is disarmed, so the next Flush
	// retry succeeds — and must STILL report the latched error.
	if err := c.Flush(nil); !errors.Is(err, errWB) {
		t.Fatalf("Flush after daemon write error returned %v, want %v", err, errWB)
	}
	raw := make([]byte, 512)
	dev.Ramdisk.ReadBlocks(7, 1, raw)
	if raw[0] != 0x5A {
		t.Fatal("data lost across the failed daemon writeback")
	}
	// Error reported once: the following Flush is clean.
	if err := c.Flush(nil); err != nil {
		t.Fatalf("second Flush = %v, want nil", err)
	}
}

// lbaFlakyRD injects write errors only for commands overlapping an LBA
// range — the per-owner attribution tests need to fail one file's blocks
// while another's flush cleanly.
type lbaFlakyRD struct {
	*fs.Ramdisk
	mu     sync.Mutex
	lo, hi int
	fail   int
}

func (d *lbaFlakyRD) arm(lo, hi, count int) {
	d.mu.Lock()
	d.lo, d.hi, d.fail = lo, hi, count
	d.mu.Unlock()
}

func (d *lbaFlakyRD) WriteBlocks(lba, n int, src []byte) error {
	d.mu.Lock()
	if d.fail > 0 && lba < d.hi && lba+n > d.lo {
		d.fail--
		d.mu.Unlock()
		return errWB
	}
	d.mu.Unlock()
	return d.Ramdisk.WriteBlocks(lba, n, src)
}

// TestOwnerErrSeqIsolation is the cache-level errseq contract: a daemon
// write failure on owner A's buffers advances A's stream and the
// device-wide stream, never B's. Observation is per-cursor — each
// descriptor-style observer of A's stream reports the failure exactly
// once even though the flush retry succeeds, independently of every
// other observer; so does the device-wide observer (Flush); B stays
// clean throughout.
func TestOwnerErrSeqIsolation(t *testing.T) {
	dev := &lbaFlakyRD{Ramdisk: fs.NewRamdisk(512, 256)}
	c := NewWithOptions(dev, Options{Buffers: 64, Shards: 4, Readahead: -1,
		FlushInterval: 2 * time.Millisecond})
	go c.RunDaemon(nil, nil)
	defer c.StopDaemon()

	var a, b Owner
	// Two "descriptors" on A and one on B, opened before the failure:
	// each samples its own cursor, the way fs.NewOpenFile does.
	ca1, ca2, cb := a.Sample(), a.Sample(), b.Sample()
	blk := make([]byte, 4*512)
	dev.arm(8, 12, 1) // A's range fails once
	if err := c.WriteRangeOwned(nil, 8, 4, blk, &a); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteRangeOwned(nil, 40, 4, blk, &b); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !a.Pending() {
		if time.Now().After(deadline) {
			t.Fatal("daemon never hit the injected error")
		}
		time.Sleep(time.Millisecond)
	}
	if b.Pending() {
		t.Fatal("B's stream advanced on A's failure")
	}
	// B's fsync: flush clean, observation clean.
	if err := c.FlushOwner(nil, &b); err != nil {
		t.Fatalf("B's flush = %v, want nil", err)
	}
	if err := b.Observe(&cb); err != nil {
		t.Fatalf("B's observer = %v, want nil", err)
	}
	// A's fsync via the first descriptor: the flush retry succeeds, the
	// observation still reports the epoch — exactly once.
	if err := c.FlushOwner(nil, &a); err != nil {
		t.Fatalf("A's flush = %v, want nil (retry succeeded)", err)
	}
	if err := a.Observe(&ca1); !errors.Is(err, errWB) {
		t.Fatalf("A's first observer = %v, want %v", err, errWB)
	}
	if err := a.Observe(&ca1); err != nil {
		t.Fatalf("A's first observer again = %v, want nil (exactly-once)", err)
	}
	// The second descriptor's cursor was not consumed by the first.
	if err := a.Observe(&ca2); !errors.Is(err, errWB) {
		t.Fatalf("A's second observer = %v, want %v", err, errWB)
	}
	if err := a.Observe(&ca2); err != nil {
		t.Fatalf("A's second observer again = %v, want nil", err)
	}
	// A descriptor opened AFTER the epoch was reported samples the
	// current position and stays silent.
	late := a.Sample()
	if err := a.Observe(&late); err != nil {
		t.Fatalf("late observer = %v, want nil", err)
	}
	// The device-wide observer is independent: Flush still reports once.
	if err := c.Flush(nil); !errors.Is(err, errWB) {
		t.Fatalf("Flush = %v, want %v", err, errWB)
	}
	if err := c.Flush(nil); err != nil {
		t.Fatalf("second Flush = %v, want nil", err)
	}
	if c.WritebackErrPending() {
		t.Fatal("device stream still pending after its observer reported")
	}
}

// TestFlushOwnerSelective: FlushOwner writes back only the owner's
// buffers plus the caller-named extra blocks, leaving everyone else's
// dirty state for the daemon/Flush.
func TestFlushOwnerSelective(t *testing.T) {
	rd := fs.NewRamdisk(512, 256)
	c := NewWithOptions(rd, Options{Buffers: 64, Shards: 4, Readahead: -1,
		WritebackRatio: -1, FlushInterval: time.Hour})
	var a, b Owner
	blk := bytes.Repeat([]byte{0x11}, 512)
	for lba := 8; lba < 12; lba++ {
		if err := c.WriteRangeOwned(nil, lba, 1, blk, &a); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteRangeOwned(nil, 40, 1, blk, &b); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteRange(nil, 60, 1, blk); err != nil { // unowned "metadata"
		t.Fatal(err)
	}
	if err := c.FlushOwner(nil, &a, 60); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 512)
	for _, lba := range []int{8, 9, 10, 11, 60} {
		rd.ReadBlocks(lba, 1, raw)
		if !bytes.Equal(raw, blk) {
			t.Fatalf("block %d not durable after FlushOwner", lba)
		}
	}
	rd.ReadBlocks(40, 1, raw)
	if bytes.Equal(raw, blk) {
		t.Fatal("FlushOwner flushed B's buffer")
	}
	if d := c.DirtyBuffers(); d != 1 {
		t.Fatalf("DirtyBuffers = %d after owner flush, want 1 (B's)", d)
	}
}

// TestDaemonFlushesByRatio checks the dirty-ratio trigger's contract:
// crossing it wakes the daemon without waiting for the age interval, and
// kicked passes write back until the dirty count is below the trigger.
// Blocks dirtied during a kicked pass after the count has fallen under
// the trigger send no kick; they are the age interval's job, so the test
// does not wait for zero.
func TestDaemonFlushesByRatio(t *testing.T) {
	const buffers, ratio, writes = 32, 25, 16
	const trigger = buffers * ratio / 100
	rd := fs.NewRamdisk(512, 256)
	c := NewWithOptions(rd, Options{Buffers: buffers, Shards: 2, Readahead: -1,
		WritebackRatio: ratio, FlushInterval: time.Hour}) // interval can't fire in-test
	go c.RunDaemon(nil, nil)
	defer c.StopDaemon()

	src := bytes.Repeat([]byte{0x5a}, 512)
	for lba := 0; lba < writes; lba++ { // writes > trigger
		if err := c.WriteRange(nil, lba, 1, src); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	dirty := c.DirtyBuffers()
	for dirty >= trigger {
		if time.Now().After(deadline) {
			t.Fatalf("ratio kick never brought the dirty count under the trigger: %d dirty, trigger %d", dirty, trigger)
		}
		time.Sleep(time.Millisecond)
		dirty = c.DirtyBuffers()
	}
	if c.DaemonFlushes() == 0 {
		t.Fatal("no daemon pass recorded")
	}
	// A block leaves the dirty count only after its write completed, so
	// every block not counted dirty above is on the device now.
	landed := 0
	got := make([]byte, 512)
	for lba := 0; lba < writes; lba++ {
		if err := rd.ReadBlocks(lba, 1, got); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, src) {
			landed++
		}
	}
	if landed < writes-int(dirty) {
		t.Fatalf("%d of %d blocks on the device with %d still dirty", landed, writes, dirty)
	}
}

// TestEvictionHandsDirtyToDaemon: with a daemon attached, a claim that
// finds only dirty victims backs off while the daemon cleans, instead of
// writing inline from the claiming task — and eventually succeeds.
func TestEvictionHandsDirtyToDaemon(t *testing.T) {
	rd := fs.NewRamdisk(512, 256)
	c := NewWithOptions(rd, Options{Buffers: 8, Shards: 1, Readahead: -1,
		WritebackRatio: -1, FlushInterval: 2 * time.Millisecond})
	go c.RunDaemon(nil, nil)
	defer c.StopDaemon()

	src := make([]byte, 512)
	// Dirty the whole pool, then keep claiming fresh blocks: every claim
	// must evict, every victim starts dirty, and progress depends on the
	// daemon cleaning them.
	for lba := 0; lba < 64; lba++ {
		if err := c.WriteRange(nil, lba, 1, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(nil); err != nil {
		t.Fatal(err)
	}
}

// TestWarmRangeReadZeroAllocs asserts the pooled steady-state path: a
// warm ReadRange (claim, copy, release) allocates nothing per call.
func TestWarmRangeReadZeroAllocs(t *testing.T) {
	rd := fs.NewRamdisk(512, 64)
	fillPattern(t, rd)
	c := NewWithOptions(rd, Options{Buffers: 32, Shards: 4, Readahead: -1})
	dst := make([]byte, 16*512)
	if err := c.ReadRange(nil, 0, 16, dst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.ReadRange(nil, 0, 16, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm 16-block ReadRange allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFlushOverQueueMergesAndIsDurable runs the barrier over a real blkq
// request queue: per-block submissions merge into multi-block device
// commands, and the barrier semantics (all durable on return) hold.
func TestFlushOverQueueMergesAndIsDurable(t *testing.T) {
	rd := fs.NewRamdisk(512, 256)
	cdev := &cmdDev{BlockDevice: rd}
	q := blkq.New(cdev, blkq.Options{Depth: 2})
	c := NewWithOptions(q, Options{Buffers: 64, Shards: 4, Readahead: -1})
	src := make([]byte, 512)
	for lba := 10; lba < 42; lba++ { // one contiguous 32-block span
		src[0] = byte(lba)
		if err := c.WriteRange(nil, lba, 1, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(nil); err != nil {
		t.Fatal(err)
	}
	cmds := cdev.writeCmds()
	blocks := 0
	for _, cmd := range cmds {
		blocks += cmd[1]
	}
	if blocks != 32 {
		t.Fatalf("flush moved %d blocks (%v), want 32", blocks, cmds)
	}
	if len(cmds) > 4 {
		t.Fatalf("32 per-block submissions dispatched as %d device commands (%v); elevator merging missing", len(cmds), cmds)
	}
	sub, disp, merged, _, _ := q.Stats()
	if sub != 32 || merged == 0 || disp >= sub {
		t.Fatalf("queue stats submitted=%d dispatched=%d merged=%d; want merging", sub, disp, merged)
	}
	raw := make([]byte, 512)
	for lba := 10; lba < 42; lba++ {
		rd.ReadBlocks(lba, 1, raw)
		if raw[0] != byte(lba) {
			t.Fatalf("block %d not durable after Flush barrier", lba)
		}
	}
}

// gatedDev is an async backend whose completions the test releases by
// hand: every command transfers at once, but the completion of a command
// starting at or above gate is held until open is called. Unheld
// completions are posted at once. Each held block is reported on heldCh.
type gatedDev struct {
	*fs.Ramdisk
	gate   int
	heldCh chan int
	notify func()

	mu     sync.Mutex
	opened bool
	held   []uint64
	done   []uint64
}

func (d *gatedDev) SubmitRead(tag uint64, lba, n int, dst []byte) error {
	return d.complete(tag, d.Ramdisk.ReadBlocks(lba, n, dst), lba, n)
}

func (d *gatedDev) SubmitWrite(tag uint64, lba, n int, src []byte) error {
	return d.complete(tag, d.Ramdisk.WriteBlocks(lba, n, src), lba, n)
}

func (d *gatedDev) complete(tag uint64, err error, lba, n int) error {
	if err != nil {
		return err
	}
	d.mu.Lock()
	hold := lba >= d.gate && !d.opened
	if hold {
		d.held = append(d.held, tag)
	} else {
		d.done = append(d.done, tag)
	}
	d.mu.Unlock()
	if hold {
		for i := 0; i < n; i++ {
			d.heldCh <- lba + i
		}
		return nil
	}
	go d.notify() // the completion IRQ, raised outside the submit path
	return nil
}

// open posts every held completion and stops holding new ones.
func (d *gatedDev) open() {
	d.mu.Lock()
	d.opened = true
	d.done = append(d.done, d.held...)
	d.held = nil
	d.mu.Unlock()
	go d.notify()
}

func (d *gatedDev) PopCompletion() (uint64, error, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.done) == 0 {
		return 0, nil, false
	}
	tag := d.done[0]
	d.done = d.done[1:]
	return tag, nil, true
}

// TestFlushReleasesEachBufferAtItsOwnCompletion: a writeback window that
// holds one low block beside a long run of higher blocks frees the low
// block as soon as its own write completes, so a reader of that block (a
// FAT sector, say) does not wait out the run's much longer command. The
// barrier itself still returns only after every write completed.
func TestFlushReleasesEachBufferAtItsOwnCompletion(t *testing.T) {
	const low, runLo, runN = 2, 40, 32
	dev := &gatedDev{Ramdisk: fs.NewRamdisk(512, 128), gate: runLo, heldCh: make(chan int, runN)}
	q := blkq.New(dev, blkq.Options{Async: dev, Depth: 2, PlugDelay: -1, CmdTimeout: -1})
	dev.notify = q.CompletionIRQ
	defer dev.open() // never leave the flusher waiting on a failed test
	c := NewWithOptions(q, Options{Buffers: 64, Shards: 4, Readahead: -1,
		WritebackRatio: -1, FlushInterval: time.Hour})
	src := make([]byte, 512)
	for _, lba := range append([]int{low}, seq(runLo, runN)...) {
		src[0] = byte(lba)
		if err := c.WriteRange(nil, lba, 1, src); err != nil {
			t.Fatal(err)
		}
	}

	flushed := make(chan error, 1)
	go func() { flushed <- c.Flush(nil) }()
	for i := 0; i < runN; i++ {
		select {
		case <-dev.heldCh:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of the run's %d blocks reached the device", i, runN)
		}
	}

	got := make(chan *Buf, 1)
	go func() {
		b, err := c.Get(nil, low)
		if err != nil {
			t.Error(err)
		}
		got <- b
	}()
	select {
	case b := <-got:
		if b == nil {
			return
		}
		if b.dirty || b.Data[0] != low {
			t.Errorf("block %d after its own completion: dirty=%v data=%d", low, b.dirty, b.Data[0])
		}
		c.Release(b)
	case <-time.After(2 * time.Second):
		t.Fatalf("Get(%d) still blocked while the run's writes are held: the flush keeps a completed buffer locked", low)
	}
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned (%v) before the run's writes completed", err)
	default:
	}

	dev.open()
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush did not return after the run completed")
	}
	if d := c.DirtyBuffers(); d != 0 {
		t.Fatalf("DirtyBuffers = %d after Flush, want 0", d)
	}
	raw := make([]byte, 512)
	for _, lba := range append([]int{low}, seq(runLo, runN)...) {
		dev.ReadBlocks(lba, 1, raw)
		if raw[0] != byte(lba) {
			t.Fatalf("block %d not durable after Flush", lba)
		}
	}
}

// seq returns n consecutive ints starting at lo.
func seq(lo, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = lo + i
	}
	return s
}

// TestOwnerDirtyListTracksState: the per-owner dirty list (what makes
// FlushOwner O(dirty-own) instead of a walk of every shard) must track
// buffer state exactly — grow on owned dirtying, shrink on writeback,
// eviction writeback, and ownership handoff, and ignore unowned metadata.
func TestOwnerDirtyListTracksState(t *testing.T) {
	rd := fs.NewRamdisk(512, 256)
	c := NewWithOptions(rd, Options{Buffers: 64, Shards: 4, Readahead: -1,
		WritebackRatio: -1, FlushInterval: time.Hour})
	var a, b Owner
	blk := bytes.Repeat([]byte{0x22}, 512)
	for lba := 8; lba < 12; lba++ {
		if err := c.WriteRangeOwned(nil, lba, 1, blk, &a); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteRange(nil, 60, 1, blk); err != nil { // unowned
		t.Fatal(err)
	}
	if got := a.DirtyCount(); got != 4 {
		t.Fatalf("A dirty = %d, want 4", got)
	}
	// Rewriting an already-dirty owned block must not double-count.
	if err := c.WriteRangeOwned(nil, 8, 1, blk, &a); err != nil {
		t.Fatal(err)
	}
	if got := a.DirtyCount(); got != 4 {
		t.Fatalf("A dirty after rewrite = %d, want 4", got)
	}
	// Ownership handoff moves the LBA between lists.
	if err := c.WriteRangeOwned(nil, 11, 1, blk, &b); err != nil {
		t.Fatal(err)
	}
	if got, want := a.DirtyCount(), 3; got != want {
		t.Fatalf("A dirty after handoff = %d, want %d", got, want)
	}
	if got := b.DirtyCount(); got != 1 {
		t.Fatalf("B dirty = %d, want 1", got)
	}
	// FlushOwner drains exactly A's list; B's survives.
	if err := c.FlushOwner(nil, &a); err != nil {
		t.Fatal(err)
	}
	if got := a.DirtyCount(); got != 0 {
		t.Fatalf("A dirty after FlushOwner = %d, want 0", got)
	}
	if got := b.DirtyCount(); got != 1 {
		t.Fatalf("B dirty after A's flush = %d, want 1", got)
	}
	// The whole-cache barrier drains the rest.
	if err := c.Flush(nil); err != nil {
		t.Fatal(err)
	}
	if got := b.DirtyCount(); got != 0 {
		t.Fatalf("B dirty after Flush = %d, want 0", got)
	}
}
