// Direct-issue tests: a waited request at an idle queue over a
// synchronous device goes straight to the device with no request or
// command object, counts exactly as the elevator would have counted it,
// and fails into the same recovery policy. Anything that makes the queue
// non-idle sends the request through the elevator.
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

// route is what the device saw of the queue while a transfer ran: a
// direct transfer runs with direct == 1 and nothing tracked in inflight,
// an elevator command with its command in inflight.
type route struct {
	lba, direct, inflight int
}

// probeDev records, for every synchronous transfer, how the queue had
// routed it, and can hold one LBA's write at the device until released.
type probeDev struct {
	fs.BlockDevice
	q *Queue

	mu     sync.Mutex
	routes []route

	holdLBA int           // a write at this LBA blocks (0 = none)
	entered chan struct{} // closed when the held write reaches the device
	release chan struct{} // closed to let it finish
}

func newProbe(dev fs.BlockDevice, opts Options) (*probeDev, *Queue) {
	p := &probeDev{BlockDevice: dev}
	p.q = New(p, opts)
	return p, p.q
}

func (p *probeDev) note(lba int) {
	p.q.mu.Lock(nil)
	r := route{lba: lba, direct: p.q.direct, inflight: len(p.q.inflight)}
	p.q.mu.Unlock()
	p.mu.Lock()
	p.routes = append(p.routes, r)
	p.mu.Unlock()
}

func (p *probeDev) ReadBlocks(lba, n int, dst []byte) error {
	p.note(lba)
	return p.BlockDevice.ReadBlocks(lba, n, dst)
}

func (p *probeDev) WriteBlocks(lba, n int, src []byte) error {
	p.note(lba)
	if p.holdLBA != 0 && lba == p.holdLBA {
		close(p.entered)
		<-p.release
	}
	return p.BlockDevice.WriteBlocks(lba, n, src)
}

func (p *probeDev) seen() []route {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]route(nil), p.routes...)
}

// routeOf returns the route the device recorded for lba.
func (p *probeDev) routeOf(t *testing.T, lba int) route {
	t.Helper()
	for _, r := range p.seen() {
		if r.lba == lba {
			return r
		}
	}
	t.Fatalf("device never saw LBA %d (saw %v)", lba, p.seen())
	return route{}
}

type statSnap struct{ sub, disp, merged, depthPeak, queuedPeak, hits, timeouts int64 }

func snap(q *Queue) statSnap {
	var s statSnap
	s.sub, s.disp, s.merged, s.depthPeak, s.queuedPeak = q.Stats()
	s.hits, s.timeouts = q.PlugStats()
	return s
}

// TestDirectIssueIdleSyncQueue: waited reads and writes at an idle
// synchronous queue allocate nothing, reach the device untracked, and
// count one submitted request and one dispatched command each — the
// numbers, peaks included, the elevator would have recorded.
func TestDirectIssueIdleSyncQueue(t *testing.T) {
	q := New(fs.NewRamdisk(512, 64), Options{})
	buf := bytes.Repeat([]byte{0x3C}, 2*512)
	before := snap(q)
	const runs = 100
	w := testing.AllocsPerRun(runs, func() {
		if err := q.WriteBlocksT(nil, 3, 2, buf); err != nil {
			t.Fatal(err)
		}
	})
	r := testing.AllocsPerRun(runs, func() {
		if err := q.ReadBlocksT(nil, 3, 2, buf); err != nil {
			t.Fatal(err)
		}
	})
	if w != 0 || r != 0 {
		t.Fatalf("idle waited write allocates %.0f objects, read %.0f; want 0", w, r)
	}
	after := snap(q)
	const calls = 2 * (runs + 1) // AllocsPerRun adds a warm-up call
	if d := after.sub - before.sub; d != calls {
		t.Fatalf("submitted +%d, want +%d", d, calls)
	}
	if d := after.disp - before.disp; d != calls {
		t.Fatalf("dispatched +%d, want +%d", d, calls)
	}
	if after.merged != 0 || after.depthPeak != 1 || after.queuedPeak != 1 || after.hits != 0 || after.timeouts != 0 {
		t.Fatalf("stats %+v, want merged 0, peaks 1/1, no plug activity", after)
	}

	p, q := newProbe(fs.NewRamdisk(512, 64), Options{})
	if err := q.WriteBlocks(7, 1, buf); err != nil {
		t.Fatal(err)
	}
	if got := p.routeOf(t, 7); got.direct != 1 || got.inflight != 0 {
		t.Fatalf("idle write routed %+v, want direct", got)
	}
}

// TestDirectIssueNotTaken: a plug, an open anticipation window, pending
// requests, requests in flight and an async backend each send a waited
// request through the elevator instead.
func TestDirectIssueNotTaken(t *testing.T) {
	blk := func(b byte) []byte { return bytes.Repeat([]byte{b}, 512) }

	t.Run("plugged", func(t *testing.T) {
		p, q := newProbe(fs.NewRamdisk(512, 64), Options{PlugDelay: -1})
		s := sched.New(sched.Config{Cores: 1})
		s.Start()
		defer s.Shutdown(5 * time.Second)
		done := make(chan error, 1)
		s.Go("plugged", 0, func(task *sched.Task) {
			q.Plug(task)
			defer q.Unplug(task)
			done <- q.WriteBlocksT(task, 10, 1, blk(1))
		})
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if got := p.routeOf(t, 10); got.direct != 0 || got.inflight != 1 {
			t.Fatalf("plugged write routed %+v, want an elevator command", got)
		}
	})

	t.Run("window", func(t *testing.T) {
		p, q := newProbe(fs.NewRamdisk(512, 64), Options{PlugDelay: time.Minute})
		tk, err := q.SubmitWrite(nil, 20, 1, blk(2)) // opens the window
		if err != nil {
			t.Fatal(err)
		}
		before := snap(q)
		if err := q.WriteBlocks(21, 1, blk(3)); err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(nil); err != nil {
			t.Fatal(err)
		}
		after := snap(q)
		if after.hits-before.hits != 1 || after.merged-before.merged != 1 || after.disp-before.disp != 1 {
			t.Fatalf("write into an open window: %+v -> %+v, want one plug hit merged into one command", before, after)
		}
		if got := p.routeOf(t, 20); got.direct != 0 {
			t.Fatalf("window batch routed %+v, want the elevator", got)
		}
	})

	t.Run("pending", func(t *testing.T) {
		_, q := newProbe(fs.NewRamdisk(512, 64), Options{PlugDelay: -1})
		q.Plug(nil)
		tk, err := q.SubmitWrite(nil, 30, 1, blk(4))
		if err != nil {
			t.Fatal(err)
		}
		before := snap(q)
		done := make(chan error, 1)
		go func() { done <- q.WriteBlocks(31, 1, blk(5)) }()
		waitPending(t, q, 2)
		q.Unplug(nil)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(nil); err != nil {
			t.Fatal(err)
		}
		after := snap(q)
		if after.sub-before.sub != 1 || after.disp-before.disp != 1 || after.merged-before.merged != 1 {
			t.Fatalf("write behind a pending request: %+v -> %+v, want it merged into the pending one's command", before, after)
		}
	})

	t.Run("inflight", func(t *testing.T) {
		p, q := newProbe(fs.NewRamdisk(512, 64), Options{PlugDelay: -1})
		p.holdLBA, p.entered, p.release = 40, make(chan struct{}), make(chan struct{})
		held := make(chan error, 1)
		go func() {
			// The sync backend issues inline: this submit blocks at the
			// device until released, with its command in flight.
			tk, err := q.SubmitWrite(nil, 40, 1, blk(6))
			if err == nil {
				err = tk.Wait(nil)
			}
			held <- err
		}()
		<-p.entered
		if err := q.WriteBlocks(50, 1, blk(7)); err != nil {
			t.Fatal(err)
		}
		close(p.release)
		if err := <-held; err != nil {
			t.Fatal(err)
		}
		if got := p.routeOf(t, 50); got.direct != 0 || got.inflight != 2 {
			t.Fatalf("write beside an in-flight command routed %+v, want a second elevator command", got)
		}
	})

	t.Run("async", func(t *testing.T) {
		ic := hw.NewIRQController(1)
		sd := hw.NewSDCard(64, ic)
		sd.SetLatencyScale(0.01)
		dev := &countingSD{sdDev: sdDev{sd}}
		q := New(dev, Options{Async: dev})
		ic.Register(hw.IRQSD, 0, func(hw.IRQLine, int) { q.CompletionIRQ() })
		if err := q.WriteBlocks(7, 1, blk(7)); err != nil {
			t.Fatal(err)
		}
		if err := q.ReadBlocks(7, 1, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
		dev.mu.Lock()
		syncCalls, submits := dev.syncCalls, dev.submits
		dev.mu.Unlock()
		if syncCalls != 0 || submits != 2 {
			t.Fatalf("async queue: %d synchronous transfers, %d submissions; want 0 and 2", syncCalls, submits)
		}
	})
}

// waitPending polls until n requests sit in q's pending list.
func waitPending(t *testing.T, q *Queue, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock(nil)
		got := len(q.pending)
		q.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d, want %d", got, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// countingSD counts which device face the queue used.
type countingSD struct {
	sdDev
	mu                 sync.Mutex
	syncCalls, submits int
}

func (d *countingSD) ReadBlocks(lba, n int, dst []byte) error {
	d.mu.Lock()
	d.syncCalls++
	d.mu.Unlock()
	return d.sdDev.ReadBlocks(lba, n, dst)
}

func (d *countingSD) WriteBlocks(lba, n int, src []byte) error {
	d.mu.Lock()
	d.syncCalls++
	d.mu.Unlock()
	return d.sdDev.WriteBlocks(lba, n, src)
}

func (d *countingSD) SubmitRead(tag uint64, lba, n int, dst []byte) error {
	d.mu.Lock()
	d.submits++
	d.mu.Unlock()
	return d.sdDev.SubmitRead(tag, lba, n, dst)
}

func (d *countingSD) SubmitWrite(tag uint64, lba, n int, src []byte) error {
	d.mu.Lock()
	d.submits++
	d.mu.Unlock()
	return d.sdDev.SubmitWrite(tag, lba, n, src)
}

// TestDirectIssueHoldsDepthSlot: at Depth 1 a direct transfer occupies
// the only device slot, so a ticket submitted while it runs opens no
// anticipation window, waits in the queue, and is dispatched once the
// transfer completes — not alongside it, and not lost.
func TestDirectIssueHoldsDepthSlot(t *testing.T) {
	var arms int
	after := func(d time.Duration, fn func()) func() bool {
		arms++ // every call runs under q.mu
		return time.AfterFunc(d, fn).Stop
	}
	rd := fs.NewRamdisk(512, 64)
	p, q := newProbe(rd, Options{Depth: 1, After: after})
	p.holdLBA, p.entered, p.release = 5, make(chan struct{}), make(chan struct{})
	direct := make(chan error, 1)
	go func() { direct <- q.WriteBlocks(5, 1, make([]byte, 512)) }()
	<-p.entered
	want := bytes.Repeat([]byte{0x77}, 512)
	tk, err := q.SubmitWrite(nil, 20, 1, want)
	if err != nil {
		t.Fatal(err)
	}
	// Dispatch on a sync backend runs inline in the submitter, so had the
	// ticket been issued it would already be on the device.
	if seen := p.seen(); len(seen) != 1 {
		t.Fatalf("device saw %v while the direct transfer held the only slot", seen)
	}
	close(p.release)
	if err := <-direct; err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- tk.Wait(nil) }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ticket queued behind the direct transfer was never dispatched")
	}
	seen := p.seen()
	if len(seen) != 2 || seen[0] != (route{5, 1, 0}) || seen[1] != (route{20, 0, 1}) {
		t.Fatalf("device saw %v, want the direct write at 5, then the ticket's command at 20", seen)
	}
	got := make([]byte, 512)
	if err := rd.ReadBlocks(20, 1, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ticket's data not on the device (err %v)", err)
	}
	if arms != 0 {
		t.Fatalf("ticket behind a direct transfer armed %d anticipation windows, want 0", arms)
	}
	if sub, disp, _, depthPeak, _ := q.Stats(); sub != 2 || disp != 2 || depthPeak != 1 {
		t.Fatalf("submitted=%d dispatched=%d depthPeak=%d, want 2/2/1", sub, disp, depthPeak)
	}
}

// TestDirectIssueFailures: a direct transfer that fails enters the
// recovery policy as its first attempt. A bad sector fails only that
// request, a transient burst gets exactly MaxRetries re-issues, and device
// death latches the queue dead.
func TestDirectIssueFailures(t *testing.T) {
	fd := hw.NewFaultDisk(fs.NewRamdisk(512, 64), hw.FaultPlan{Seed: 1})
	q := New(fd, Options{PlugDelay: -1, MaxRetries: 1})
	buf := make([]byte, 512)

	fd.AddBadSector(10)
	if err := q.WriteBlocks(10, 1, buf); !errors.Is(err, fs.ErrBadSector) {
		t.Fatalf("direct write over a bad sector: %v, want ErrBadSector", err)
	}
	if err := q.WriteBlocks(11, 1, buf); err != nil {
		t.Fatalf("neighbor of a bad sector: %v", err)
	}
	if retries, _, splits, dead := q.FaultStats(); retries != 0 || splits != 0 || dead {
		t.Fatalf("after a bad sector: retries=%d splits=%d dead=%v, want 0/0/live", retries, splits, dead)
	}

	// Two failures against one re-issue: the direct attempt and the retry
	// both fail, and the error surfaces. An extra attempt would heal it.
	fd.InjectTransient(20, 2)
	if err := q.WriteBlocks(20, 1, buf); !errors.Is(err, fs.ErrSDInjected) {
		t.Fatalf("transient burst past the retry budget: %v, want ErrSDInjected", err)
	}
	if retries, _, _, _ := q.FaultStats(); retries != 1 {
		t.Fatalf("retries = %d, want 1 (MaxRetries)", retries)
	}

	fd.Kill()
	if err := q.WriteBlocks(30, 1, buf); !errors.Is(err, fs.ErrDeviceDead) {
		t.Fatalf("direct write to a dead device: %v, want ErrDeviceDead", err)
	}
	if !q.Dead() {
		t.Fatal("device death on the direct path did not latch the queue dead")
	}
	if _, err := q.SubmitWrite(nil, 31, 1, buf); !errors.Is(err, fs.ErrDeviceDead) {
		t.Fatalf("ticket on a dead queue: %v, want ErrDeviceDead", err)
	}
	if sub, disp, _, _, _ := q.Stats(); sub != 4 || disp != 4 {
		t.Fatalf("submitted=%d dispatched=%d, want 4/4 (one per direct attempt; retries are not new commands)", sub, disp)
	}
}
