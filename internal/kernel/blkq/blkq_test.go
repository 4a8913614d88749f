package blkq

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"protosim/internal/hw"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/sched"
)

// cmdDev records every device command for merge/order assertions.
type cmdDev struct {
	fs.BlockDevice
	mu     sync.Mutex
	reads  [][2]int
	writes [][2]int
}

func (d *cmdDev) ReadBlocks(lba, n int, dst []byte) error {
	d.mu.Lock()
	d.reads = append(d.reads, [2]int{lba, n})
	d.mu.Unlock()
	return d.BlockDevice.ReadBlocks(lba, n, dst)
}

func (d *cmdDev) WriteBlocks(lba, n int, src []byte) error {
	d.mu.Lock()
	d.writes = append(d.writes, [2]int{lba, n})
	d.mu.Unlock()
	return d.BlockDevice.WriteBlocks(lba, n, src)
}

func (d *cmdDev) writeCmds() [][2]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([][2]int(nil), d.writes...)
}

func TestSyncDeviceReadWrite(t *testing.T) {
	rd := fs.NewRamdisk(512, 64)
	q := New(rd, Options{})
	src := make([]byte, 4*512)
	for i := range src {
		src[i] = byte(i * 11)
	}
	if err := q.WriteBlocks(8, 4, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4*512)
	if err := q.ReadBlocks(8, 4, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("queue round-trip corrupted data")
	}
	if err := q.ReadBlocks(-1, 1, dst); err == nil {
		t.Fatal("bad range accepted")
	}
	if err := q.ReadBlocks(0, 1, dst[:10]); err == nil {
		t.Fatal("short buffer accepted")
	}
}

// TestPlugMergesAdjacentWrites: writes submitted under a plug merge into
// one device command, ordered by LBA regardless of submission order.
func TestPlugMergesAdjacentWrites(t *testing.T) {
	dev := &cmdDev{BlockDevice: fs.NewRamdisk(512, 64)}
	q := New(dev, Options{})
	bufs := make([][]byte, 8)
	for i := range bufs {
		bufs[i] = bytes.Repeat([]byte{byte(0x10 + i)}, 512)
	}
	q.Plug(nil)
	var tks []fs.BlockTicket
	for _, i := range []int{5, 2, 7, 0, 3, 6, 1, 4} { // scrambled order
		tk, err := q.SubmitWrite(nil, 10+i, 1, bufs[i])
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	q.Unplug(nil)
	for _, tk := range tks {
		if err := tk.Wait(nil); err != nil {
			t.Fatal(err)
		}
	}
	if cmds := dev.writeCmds(); len(cmds) != 1 || cmds[0] != [2]int{10, 8} {
		t.Fatalf("8 adjacent writes dispatched as %v, want one [10 8] command", cmds)
	}
	raw := make([]byte, 512)
	for i := 0; i < 8; i++ {
		dev.BlockDevice.ReadBlocks(10+i, 1, raw)
		if raw[0] != byte(0x10+i) {
			t.Fatalf("block %d holds %#x after merged write", 10+i, raw[0])
		}
	}
	sub, disp, merged, _, _ := q.Stats()
	if sub != 8 || disp != 1 || merged != 7 {
		t.Fatalf("stats submitted=%d dispatched=%d merged=%d, want 8/1/7", sub, disp, merged)
	}
}

// TestAnticipatoryPlugMergesLoneSubmitter is the lone-sequential-writer
// contract: per-block submissions trickling into an idle queue with no
// explicit plug dispatch solo when anticipatory plugging is off, but
// accumulate in the anticipatory window and go out as one merged command
// when it is on — with the first Wait releasing the window, so the
// submitter never pays the full delay.
func TestAnticipatoryPlugMergesLoneSubmitter(t *testing.T) {
	run := func(delay time.Duration) (cmds int, hits int64) {
		dev := &cmdDev{BlockDevice: fs.NewRamdisk(512, 64)}
		q := New(dev, Options{PlugDelay: delay})
		buf := make([]byte, 512)
		var tks []fs.BlockTicket
		for i := 0; i < 8; i++ {
			tk, err := q.SubmitWrite(nil, 10+i, 1, buf)
			if err != nil {
				t.Fatal(err)
			}
			tks = append(tks, tk)
		}
		for _, tk := range tks {
			if err := tk.Wait(nil); err != nil {
				t.Fatal(err)
			}
		}
		h, _ := q.PlugStats()
		return len(dev.writeCmds()), h
	}
	// Window deliberately enormous: if the waiter-release path were
	// broken, the test would hang instead of silently passing slow.
	plugged, hits := run(time.Minute)
	if plugged != 1 {
		t.Fatalf("anticipatory plug dispatched %d commands for a lone writer's burst, want 1", plugged)
	}
	if hits != 7 {
		t.Fatalf("plug hits = %d, want 7 (every follow-up request rode the window)", hits)
	}
	solo, _ := run(-1)
	if solo != 8 {
		t.Fatalf("disabled plugging dispatched %d commands, want 8 solo (nothing else merges a lone submitter)", solo)
	}
}

// TestWaitingSubmitterOpensNoWindow: ReadBlocks/WriteBlocks sleep on their
// request at once, so at an idle queue they dispatch without arming the
// anticipatory timer (a window would only be armed and cancelled). A
// ticket submitter still opens one, and a waiting submitter that lands
// in it rides it as a plug hit and merges.
func TestWaitingSubmitterOpensNoWindow(t *testing.T) {
	dev := &cmdDev{BlockDevice: fs.NewRamdisk(512, 64)}
	var arms int
	after := func(d time.Duration, fn func()) func() bool {
		arms++ // every call runs under q.mu
		return time.AfterFunc(d, fn).Stop
	}
	q := New(dev, Options{PlugDelay: time.Minute, After: after})
	buf := make([]byte, 512)
	for i := 0; i < 4; i++ {
		if err := q.WriteBlocks(10+i, 1, buf); err != nil {
			t.Fatal(err)
		}
		if err := q.ReadBlocks(10+i, 1, buf); err != nil {
			t.Fatal(err)
		}
	}
	hits, timeouts := q.PlugStats()
	if arms != 0 || hits != 0 || timeouts != 0 {
		t.Fatalf("waiting submitters armed %d windows (hits=%d timeouts=%d), want none", arms, hits, timeouts)
	}
	if n := len(dev.writeCmds()); n != 4 {
		t.Fatalf("4 waited writes dispatched as %d commands, want 4", n)
	}
	tk, err := q.SubmitWrite(nil, 20, 1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.WriteBlocks(21, 1, buf); err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(nil); err != nil {
		t.Fatal(err)
	}
	cmds := dev.writeCmds()
	if arms != 1 || cmds[len(cmds)-1] != [2]int{20, 2} {
		t.Fatalf("ticket window: arms=%d last command %v, want 1 and one merged [20 2]", arms, cmds[len(cmds)-1])
	}
	if hits, _ := q.PlugStats(); hits != 1 {
		t.Fatalf("plug hits = %d, want 1 (the waited write rode the ticket's window)", hits)
	}
}

// TestAnticipatoryPlugTimeout: a lone request whose submitter never waits
// must still dispatch — the window expires on its timer and counts as a
// plug timeout.
func TestAnticipatoryPlugTimeout(t *testing.T) {
	dev := &cmdDev{BlockDevice: fs.NewRamdisk(512, 64)}
	q := New(dev, Options{PlugDelay: 2 * time.Millisecond})
	if _, err := q.SubmitWrite(nil, 5, 1, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(dev.writeCmds()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("window never expired: the fire-and-forget request is stuck")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, timeouts := q.PlugStats(); timeouts != 1 {
		t.Fatalf("plug timeouts = %d, want 1", timeouts)
	}
}

// TestAnticipatoryPlugExpiryAfterMerge: a window that merged traffic but
// was released by its timer (nobody waited) still dispatches one merged
// command, and every expiry counts as a timeout, hits or not.
func TestAnticipatoryPlugExpiryAfterMerge(t *testing.T) {
	dev := &cmdDev{BlockDevice: fs.NewRamdisk(512, 64)}
	q := New(dev, Options{PlugDelay: 2 * time.Millisecond})
	// Two adjacent fire-and-forget writes: the first opens a window, the
	// second rides it; only the timer can release the batch.
	for i := 0; i < 2; i++ {
		if _, err := q.SubmitWrite(nil, 10+i, 1, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(dev.writeCmds()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("window never expired")
		}
		time.Sleep(50 * time.Microsecond)
	}
	if cmds := dev.writeCmds(); len(cmds) != 1 || cmds[0] != [2]int{10, 2} {
		t.Fatalf("expired window dispatched %v, want one merged [10 2] command", cmds)
	}
	if hits, timeouts := q.PlugStats(); hits != 1 || timeouts != 1 {
		t.Fatalf("hits=%d timeouts=%d, want 1/1", hits, timeouts)
	}
}

// TestExplicitPlugBypassesAnticipatoryDelay: a Plug/Unplug bracket is an
// explicit batch — Unplug dispatches it immediately, it never waits out
// PlugDelay (set here to a minute: any accidental wait would hang the
// test), and no anticipatory window opens or expires around it.
func TestExplicitPlugBypassesAnticipatoryDelay(t *testing.T) {
	dev := &cmdDev{BlockDevice: fs.NewRamdisk(512, 64)}
	q := New(dev, Options{PlugDelay: time.Minute})
	buf := make([]byte, 512)
	q.Plug(nil)
	var tks []fs.BlockTicket
	for i := 0; i < 4; i++ {
		tk, err := q.SubmitWrite(nil, 20+i, 1, buf)
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	q.Unplug(nil)
	// Synchronous backend: Unplug's dispatch runs the IO inline, so the
	// command must be on the device before any ticket is waited on.
	if cmds := dev.writeCmds(); len(cmds) != 1 || cmds[0] != [2]int{20, 4} {
		t.Fatalf("explicit batch dispatched %v at Unplug, want one immediate [20 4] command", cmds)
	}
	for _, tk := range tks {
		if err := tk.Wait(nil); err != nil {
			t.Fatal(err)
		}
	}
	hits, timeouts := q.PlugStats()
	if hits != 0 || timeouts != 0 {
		t.Fatalf("explicit batch touched the anticipatory plug: hits=%d timeouts=%d", hits, timeouts)
	}
}

// TestWaitParksExplicitPlug is the schedule()-flushes-the-plug rule: a
// task that waits on its own request while holding an explicit plug would
// deadlock — the plug holds back the very dispatch it sleeps on — so wait
// parks the sleeper's plugs (dispatching the batch) and reinstates them on
// wake, where they keep holding later submissions until the real Unplug.
func TestWaitParksExplicitPlug(t *testing.T) {
	dev := &cmdDev{BlockDevice: fs.NewRamdisk(512, 64)}
	q := New(dev, Options{PlugDelay: -1}) // isolate the explicit plug
	s := sched.New(sched.Config{Cores: 1})
	s.Start()
	defer s.Shutdown(5 * time.Second)

	done := make(chan error, 1)
	s.Go("plugged-writer", 0, func(task *sched.Task) {
		q.Plug(task)
		defer q.Unplug(task)
		tk, err := q.SubmitWrite(task, 10, 1, make([]byte, 512))
		if err != nil {
			done <- err
			return
		}
		// Without parking this sleep never ends: the task's own plug holds
		// the request it is waiting for.
		if err := tk.Wait(task); err != nil {
			done <- err
			return
		}
		if cmds := dev.writeCmds(); len(cmds) != 1 {
			t.Errorf("after parked wait: %v device commands, want the batch dispatched", cmds)
		}
		// The plug survived the sleep: a post-wake submission accumulates
		// again instead of dispatching (sync backend dispatches inline at
		// submit when unplugged, so this check is deterministic).
		if _, err := q.SubmitWrite(task, 20, 1, make([]byte, 512)); err != nil {
			done <- err
			return
		}
		if cmds := dev.writeCmds(); len(cmds) != 1 {
			t.Errorf("post-wake submit dispatched through a reinstated plug: %v", cmds)
		}
		done <- nil
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("plugged waiter deadlocked: wait() did not park the task's plug")
	}
	// The deferred Unplug released the reinstated plug and dispatched the
	// post-wake write.
	deadline := time.Now().Add(5 * time.Second)
	for len(dev.writeCmds()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("final commands = %v, want the post-wake write dispatched at Unplug", dev.writeCmds())
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestNoMergeAcrossGapsOrDirections: non-adjacent writes and mixed
// read/write never share a command.
func TestNoMergeAcrossGapsOrDirections(t *testing.T) {
	dev := &cmdDev{BlockDevice: fs.NewRamdisk(512, 64)}
	q := New(dev, Options{})
	a := make([]byte, 512)
	b := make([]byte, 512)
	r := make([]byte, 512)
	q.Plug(nil)
	t1, _ := q.SubmitWrite(nil, 10, 1, a)
	t2, _ := q.SubmitWrite(nil, 12, 1, b) // gap at 11
	q.Unplug(nil)
	t1.Wait(nil)
	t2.Wait(nil)
	if cmds := dev.writeCmds(); len(cmds) != 2 {
		t.Fatalf("gapped writes merged: %v", cmds)
	}
	if err := q.ReadBlocks(10, 1, r); err != nil {
		t.Fatal(err)
	}
	dev.mu.Lock()
	nr := len(dev.reads)
	dev.mu.Unlock()
	if nr != 1 {
		t.Fatalf("read dispatched %d read commands", nr)
	}
}

// TestOverlappingReadsShareOneCommand: reads covering overlapping spans
// are served by one covering transfer, each getting its own slice.
func TestOverlappingReadsShareOneCommand(t *testing.T) {
	rd := fs.NewRamdisk(512, 64)
	blk := make([]byte, 512)
	for lba := 0; lba < 64; lba++ {
		blk[0] = byte(lba)
		rd.WriteBlocks(lba, 1, blk)
	}
	dev := &cmdDev{BlockDevice: rd}
	q := New(dev, Options{})
	d1 := make([]byte, 4*512)
	d2 := make([]byte, 4*512)
	q.Plug(nil)
	var wg sync.WaitGroup
	var e1, e2 error
	wg.Add(2)
	go func() { defer wg.Done(); e1 = q.ReadBlocks(20, 4, d1) }()
	go func() { defer wg.Done(); e2 = q.ReadBlocks(22, 4, d2) }()
	// Let both submissions land under the plug before releasing.
	for {
		q.mu.Lock(nil)
		n := len(q.pending)
		q.mu.Unlock()
		if n == 2 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	q.Unplug(nil)
	wg.Wait()
	if e1 != nil || e2 != nil {
		t.Fatal(e1, e2)
	}
	dev.mu.Lock()
	reads := append([][2]int(nil), dev.reads...)
	dev.mu.Unlock()
	if len(reads) != 1 || reads[0] != [2]int{20, 6} {
		t.Fatalf("overlapping reads dispatched %v, want one [20 6] command", reads)
	}
	for i := 0; i < 4; i++ {
		if d1[i*512] != byte(20+i) || d2[i*512] != byte(22+i) {
			t.Fatalf("scattered read data wrong at %d: %d %d", i, d1[i*512], d2[i*512])
		}
	}
}

// TestDepthBoundsInflight: a depth-1 queue never has two commands at the
// device at once.
func TestDepthBoundsInflight(t *testing.T) {
	rd := fs.NewRamdisk(512, 64)
	var cur, peak, over int64
	var mu sync.Mutex
	dev := &gateDev{BlockDevice: rd, enter: func() {
		mu.Lock()
		cur++
		if cur > peak {
			peak = cur
		}
		if cur > 1 {
			over++
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		cur--
		mu.Unlock()
	}}
	q := New(dev, Options{Depth: 1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := q.WriteBlocks(i*5, 1, make([]byte, 512)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if over != 0 {
		t.Fatalf("depth-1 queue overlapped commands (peak %d)", peak)
	}
}

type gateDev struct {
	fs.BlockDevice
	enter func()
}

func (d *gateDev) WriteBlocks(lba, n int, src []byte) error {
	d.enter()
	return d.BlockDevice.WriteBlocks(lba, n, src)
}

// TestAsyncSDCompletionViaIRQ drives the split-device path end to end:
// submissions program the card, the DMA completion raises IRQSD, the IRQ
// handler drains completions and wakes the waiter.
func TestAsyncSDCompletionViaIRQ(t *testing.T) {
	ic := hw.NewIRQController(1)
	sd := hw.NewSDCard(64, ic)
	sd.SetLatencyScale(0.01)
	dev := sdDev{sd}
	q := New(dev, Options{Async: dev})
	ic.Register(hw.IRQSD, 0, func(hw.IRQLine, int) { q.CompletionIRQ() })

	src := bytes.Repeat([]byte{0xC3}, 512)
	if err := q.WriteBlocks(7, 1, src); err != nil {
		t.Fatal(err)
	}
	if ic.Count(hw.IRQSD) == 0 {
		t.Fatal("no completion IRQ fired")
	}
	dst := make([]byte, 512)
	if err := q.ReadBlocks(7, 1, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("async round trip corrupted data")
	}
	// Media errors surface in the completion, not the submission — and a
	// single transient failure is absorbed by the retry path, invisibly to
	// the submitter.
	sd.InjectErrors(1)
	if err := q.WriteBlocks(7, 1, src); err != nil {
		t.Fatalf("transient injected error not retried: %v", err)
	}
	if retries, _, _, dead := q.FaultStats(); retries != 1 || dead {
		t.Fatalf("retries=%d dead=%v, want 1 retry and a live device", retries, dead)
	}
	// A burst longer than the retry budget does surface.
	sd.InjectErrors(DefaultMaxRetries + 1)
	if err := q.WriteBlocks(7, 1, src); !errors.Is(err, hw.ErrSDInjected) {
		t.Fatalf("exhausted retries = %v, want ErrSDInjected", err)
	}
}

// TestTaskWaitersSleepOnSimulatedCore: a submitting task must release its
// simulated core while the transfer is in flight — another task gets CPU
// time during the wait.
func TestTaskWaitersSleepOnSimulatedCore(t *testing.T) {
	ic := hw.NewIRQController(1)
	sd := hw.NewSDCard(64, ic)
	sd.SetLatencyScale(0.5) // ~250 µs per single-block command
	dev := sdDev{sd}
	q := New(dev, Options{Async: dev})
	ic.Register(hw.IRQSD, 0, func(hw.IRQLine, int) { q.CompletionIRQ() })

	s := sched.New(sched.Config{Cores: 1})
	s.Start()
	defer s.Shutdown(5 * time.Second)

	progressed := make(chan int, 1)
	stop := make(chan struct{})
	s.Go("cpu-bound", 0, func(task *sched.Task) {
		n := 0
		for {
			select {
			case <-stop:
				progressed <- n
				return
			default:
			}
			n++
			task.Yield()
		}
	})
	done := make(chan error, 1)
	s.Go("io-bound", 0, func(task *sched.Task) {
		var err error
		buf := make([]byte, 512)
		for i := 0; i < 10 && err == nil; i++ {
			err = q.ReadBlocksT(task, i, 1, buf)
		}
		done <- err
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	close(stop)
	if n := <-progressed; n < 100 {
		t.Fatalf("cpu-bound task made %d iterations during IO waits; IO task is hogging the core", n)
	}
}

// TestConcurrentMixedTraffic hammers the queue from many goroutines under
// -race: disjoint write regions, shared read region, final contents exact.
func TestConcurrentMixedTraffic(t *testing.T) {
	rd := fs.NewRamdisk(512, 512)
	q := New(rd, Options{Depth: 3})
	blk := make([]byte, 512)
	for lba := 0; lba < 64; lba++ {
		blk[0] = byte(lba)
		rd.WriteBlocks(lba, 1, blk)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := 64 + w*32
			src := bytes.Repeat([]byte{byte(w + 1)}, 4*512)
			dst := make([]byte, 4*512)
			for r := 0; r < 50; r++ {
				if err := q.WriteBlocks(base+(r%8)*4, 4, src); err != nil {
					t.Error(err)
					return
				}
				lba := (w*7 + r) % 60
				if err := q.ReadBlocks(lba, 4, dst); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 4; i++ {
					if dst[i*512] != byte(lba+i) {
						t.Errorf("read block %d got %d", lba+i, dst[i*512])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	raw := make([]byte, 512)
	for w := 0; w < 8; w++ {
		rd.ReadBlocks(64+w*32, 1, raw)
		if raw[0] != byte(w+1) {
			t.Fatalf("worker %d region corrupted", w)
		}
	}
	if _, _, _, peak, _ := q.Stats(); peak > 3 {
		t.Fatalf("depth peak %d exceeds configured 3", peak)
	}
}

// sdDev adapts hw.SDCard to the queue's device interfaces.
type sdDev struct{ sd *hw.SDCard }

func (d sdDev) BlockSize() int { return hw.SDBlockSize }
func (d sdDev) Blocks() int    { return d.sd.Blocks() }
func (d sdDev) ReadBlocks(lba, n int, dst []byte) error {
	return d.sd.ReadBlocks(lba, n, dst)
}
func (d sdDev) WriteBlocks(lba, n int, src []byte) error {
	return d.sd.WriteBlocks(lba, n, src)
}
func (d sdDev) SubmitRead(tag uint64, lba, n int, dst []byte) error {
	return d.sd.SubmitRead(tag, lba, n, dst)
}
func (d sdDev) SubmitWrite(tag uint64, lba, n int, src []byte) error {
	return d.sd.SubmitWrite(tag, lba, n, src)
}
func (d sdDev) PopCompletion() (uint64, error, bool) { return d.sd.PopCompletion() }
