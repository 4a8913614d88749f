package hw

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// drainNIC collects frames from n's RX ring until want frames arrived or
// the deadline passes, waking on the notify hook.
func drainNIC(t *testing.T, n *NIC, want int, deadline time.Duration) [][]byte {
	t.Helper()
	var got [][]byte
	stop := time.Now().Add(deadline)
	for len(got) < want {
		if f, ok := n.PopRX(); ok {
			got = append(got, f)
			continue
		}
		if time.Now().After(stop) {
			t.Fatalf("drained %d/%d frames before deadline", len(got), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return got
}

func TestNICLinkDeliversFIFO(t *testing.T) {
	a, b := NewLink("a", "b", nil, nil, LinkConfig{})
	defer a.Close()
	defer b.Close()

	const n = 200
	for i := 0; i < n; i++ {
		if err := a.SubmitTX(uint64(i), []byte(fmt.Sprintf("frame-%04d", i))); err != nil {
			t.Fatalf("SubmitTX(%d): %v", i, err)
		}
	}
	got := drainNIC(t, b, n, 5*time.Second)
	for i, f := range got {
		if want := fmt.Sprintf("frame-%04d", i); string(f) != want {
			t.Fatalf("frame %d = %q, want %q (FIFO violated)", i, f, want)
		}
	}

	// Every TX descriptor completes without error.
	comps := 0
	deadline := time.Now().Add(5 * time.Second)
	for comps < n {
		if _, err, ok := a.PopTX(); ok {
			if err != nil {
				t.Fatalf("TX completion error: %v", err)
			}
			comps++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d/%d TX completions", comps, n)
		}
		time.Sleep(100 * time.Microsecond)
	}

	as, bs := a.Stats(), b.Stats()
	if as.TxFrames != n || bs.RxFrames != n || bs.RxDrops != 0 {
		t.Fatalf("stats: tx=%d rx=%d drops=%d, want %d/%d/0", as.TxFrames, bs.RxFrames, bs.RxDrops, n, n)
	}
}

func TestNICRaisesIRQOnActivity(t *testing.T) {
	ic := NewIRQController(1)
	var mu sync.Mutex
	var events []string
	a, b := NewLink("eth0", "peer0", ic, nil, LinkConfig{})
	defer a.Close()
	defer b.Close()
	ic.Register(IRQNIC, 0, func(l IRQLine, _ int) {
		mu.Lock()
		events = append(events, l.String())
		mu.Unlock()
	})
	if !ic.Routed(IRQNIC) {
		t.Fatal("Routed(IRQNIC) = false after Register")
	}

	if err := a.SubmitTX(1, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	drainNIC(t, b, 1, time.Second) // wire delivered to peer
	// a's completion must have raised IRQNIC at least once.
	deadline := time.Now().Add(time.Second)
	for {
		mu.Lock()
		n := len(events)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no IRQNIC raised for TX completion")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, _, ok := a.PopTX(); !ok {
		t.Fatal("no TX completion queued after IRQ")
	}
}

func TestNICNotifyHookFiresWithoutController(t *testing.T) {
	a, b := NewLink("a", "b", nil, nil, LinkConfig{})
	defer a.Close()
	defer b.Close()
	fired := make(chan struct{}, 16)
	b.SetNotify(func() { fired <- struct{}{} })
	if err := a.SubmitTX(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("notify hook never fired on RX delivery")
	}
}

func TestNICSubmitErrors(t *testing.T) {
	a, b := NewLink("a", "b", nil, nil, LinkConfig{})
	defer b.Close()

	if err := a.SubmitTX(0, make([]byte, NICMTU+1)); err != ErrNICFrameTooBig {
		t.Fatalf("oversize frame: %v, want ErrNICFrameTooBig", err)
	}
	a.Close()
	if err := a.SubmitTX(0, []byte("x")); err != ErrNICDown {
		t.Fatalf("submit after close: %v, want ErrNICDown", err)
	}
}

func TestNICTxRingBounded(t *testing.T) {
	// Slow wire: 1 byte frames at 10 bytes/sec never finish serializing
	// inside the test, so descriptors pile up until the ring refuses.
	a, b := NewLink("a", "b", nil, nil, LinkConfig{BandwidthAB: 10})
	defer a.Close()
	defer b.Close()
	full := false
	for i := 0; i < NICTxRing+8; i++ {
		if err := a.SubmitTX(uint64(i), []byte{1}); err == ErrNICTxRingFull {
			full = true
			break
		} else if err != nil {
			t.Fatalf("SubmitTX: %v", err)
		}
	}
	if !full {
		t.Fatalf("submitted %d frames on a stalled wire without ErrNICTxRingFull", NICTxRing+8)
	}
}

func TestNICLinkLatency(t *testing.T) {
	const lat = 20 * time.Millisecond
	a, b := NewLink("a", "b", nil, nil, LinkConfig{LatencyAB: lat})
	defer a.Close()
	defer b.Close()
	start := time.Now()
	if err := a.SubmitTX(0, []byte("timed")); err != nil {
		t.Fatal(err)
	}
	drainNIC(t, b, 1, 5*time.Second)
	if d := time.Since(start); d < lat {
		t.Fatalf("frame arrived after %v, latency floor is %v", d, lat)
	}
}

func TestNICLinkBandwidthSerializes(t *testing.T) {
	// 1000-byte frame at 100 KB/s serializes in 10ms; two frames ≥ 20ms.
	a, b := NewLink("a", "b", nil, nil, LinkConfig{BandwidthAB: 100_000})
	defer a.Close()
	defer b.Close()
	start := time.Now()
	frame := make([]byte, 1000)
	if err := a.SubmitTX(0, frame); err != nil {
		t.Fatal(err)
	}
	if err := a.SubmitTX(1, append([]byte(nil), frame...)); err != nil {
		t.Fatal(err)
	}
	drainNIC(t, b, 2, 5*time.Second)
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("two 1000B frames at 100KB/s arrived in %v, want >= 20ms", d)
	}
}

func TestNICCloseFailsInflightTX(t *testing.T) {
	// Stalled wire, then close: the queued descriptor must complete with
	// ErrNICDown rather than hang forever.
	a, b := NewLink("a", "b", nil, nil, LinkConfig{BandwidthAB: 1})
	defer b.Close()
	if err := a.SubmitTX(7, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if tag, err, ok := a.PopTX(); ok {
			// The descriptor serializing on the wire may still complete
			// successfully; only queued-behind ones fail. Either way it
			// must COMPLETE.
			if tag != 7 {
				t.Fatalf("completion tag = %d, want 7", tag)
			}
			_ = err
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("TX descriptor never completed after Close")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNICRxOverflowDrops(t *testing.T) {
	a, b := NewLink("a", "b", nil, nil, LinkConfig{})
	defer a.Close()
	defer b.Close()
	const extra = 64
	for i := 0; i < NICRxRing+extra; i++ {
		for {
			err := a.SubmitTX(uint64(i), []byte{byte(i)})
			if err == nil {
				break
			}
			if err != ErrNICTxRingFull {
				t.Fatalf("SubmitTX: %v", err)
			}
			for { // drain completions to free descriptors
				if _, _, ok := a.PopTX(); !ok {
					break
				}
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := b.Stats()
		if s.RxFrames+s.RxDrops == NICRxRing+extra {
			if s.RxDrops == 0 {
				t.Fatal("no RX drops despite overflowing the ring")
			}
			if b.RxQueued() > NICRxRing {
				t.Fatalf("RX ring holds %d frames, bound is %d", b.RxQueued(), NICRxRing)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("wire never finished: rx=%d drops=%d", s.RxFrames, s.RxDrops)
		}
		time.Sleep(time.Millisecond)
	}
}

// --- the instant wire ---

// popAllTX drains n's TX completions, failing on any error unless
// allowDown, and returns how many it collected.
func popAllTX(t *testing.T, n *NIC, allowDown bool) int {
	t.Helper()
	got := 0
	for {
		_, err, ok := n.PopTX()
		if !ok {
			return got
		}
		if err != nil && !(allowDown && err == ErrNICDown) {
			t.Fatalf("TX completion error: %v", err)
		}
		got++
	}
}

func TestInstantWireDeliversInSubmitter(t *testing.T) {
	a, b := NewLink("a", "b", nil, nil, LinkConfig{})
	defer a.Close()
	defer b.Close()
	for i := 0; i < 3; i++ {
		if err := a.SubmitTX(uint64(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		// No goroutine hop: completion and delivery happened inside the
		// call.
		if f, ok := b.PopRX(); !ok || f[0] != byte(i) {
			t.Fatalf("frame %d not in the peer's RX ring when SubmitTX returned", i)
		}
		if tag, err, ok := a.PopTX(); !ok || err != nil || tag != uint64(i) {
			t.Fatalf("completion %d = (%d, %v, %v) when SubmitTX returned", i, tag, err, ok)
		}
	}
	a.dir.mu.Lock()
	started := a.dir.started
	a.dir.mu.Unlock()
	if started {
		t.Fatal("instant wire started the device pipeline")
	}
}

func TestInstantWireConcurrentSendersKeepOrder(t *testing.T) {
	a, b := NewLink("a", "b", nil, nil, LinkConfig{})
	defer a.Close()
	defer b.Close()
	const senders, per = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for {
					err := a.SubmitTX(uint64(s*per+i), []byte{byte(s), byte(i), byte(i >> 8)})
					if err == nil {
						break
					}
					if err != ErrNICTxRingFull {
						t.Errorf("sender %d: %v", s, err)
						return
					}
					time.Sleep(10 * time.Microsecond)
				}
			}
		}(s)
	}
	wg.Wait()
	got := drainNIC(t, b, senders*per, time.Second)
	next := make([]int, senders)
	for _, f := range got {
		s, i := int(f[0]), int(f[1])|int(f[2])<<8
		if i != next[s] {
			t.Fatalf("sender %d: frame %d arrived, want %d (lost, duplicated or reordered)", s, i, next[s])
		}
		next[s]++
	}
	if _, ok := b.PopRX(); ok {
		t.Fatal("more frames delivered than submitted")
	}
	if n := popAllTX(t, a, false); n != senders*per {
		t.Fatalf("%d TX completions, want %d", n, senders*per)
	}
}

func TestInstantWireNotifySubmitDoesNotDeadlock(t *testing.T) {
	// A handler that transmits on the NIC whose completion it is handling
	// runs on the drainer's goroutine: its submit must only enqueue.
	a, b := NewLink("a", "b", nil, nil, LinkConfig{})
	defer a.Close()
	defer b.Close()
	var once sync.Once
	a.SetNotify(func() {
		once.Do(func() {
			if err := a.SubmitTX(2, []byte("reply")); err != nil {
				t.Errorf("submit from notify: %v", err)
			}
		})
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := a.SubmitTX(1, []byte("first")); err != nil {
			t.Errorf("SubmitTX: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SubmitTX deadlocked on a notify handler that transmits")
	}
	got := drainNIC(t, b, 2, time.Second)
	if string(got[0]) != "first" || string(got[1]) != "reply" {
		t.Fatalf("delivered %q, %q; want first, reply", got[0], got[1])
	}
}

func TestInstantWireSetFaultsMidStreamKeepsFIFO(t *testing.T) {
	// At the tenth delivery the peer's handler installs a plan and queues
	// three frames behind the running drain: they and everything after
	// them ride the pipeline, behind the frames already delivered.
	a, b := NewLink("a", "b", nil, nil, LinkConfig{})
	defer a.Close()
	defer b.Close()
	const n, switchAt, extra = 40, 10, 3
	deliveries := 0
	b.SetNotify(func() {
		deliveries++
		if deliveries != switchAt {
			return
		}
		a.SetFaults(NetFaultPlan{Seed: 1}) // injects nothing
		for i := 0; i < extra; i++ {
			if err := a.SubmitTX(0, []byte(fmt.Sprintf("handler-%d", i))); err != nil {
				t.Errorf("submit from notify: %v", err)
			}
		}
	})
	var want []string
	for i := 0; i < n; i++ {
		f := fmt.Sprintf("main-%02d", i)
		want = append(want, f)
		if i == switchAt-1 {
			for j := 0; j < extra; j++ {
				want = append(want, fmt.Sprintf("handler-%d", j))
			}
		}
		if err := a.SubmitTX(uint64(i), []byte(f)); err != nil {
			t.Fatal(err)
		}
	}
	got := drainNIC(t, b, len(want), 5*time.Second)
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("frame %d = %q, want %q (FIFO broken across the switch)", i, got[i], want[i])
		}
	}
	if fs := a.FaultStats(); fs.Frames != extra+n-switchAt {
		t.Fatalf("pipeline judged %d frames, want %d", fs.Frames, extra+n-switchAt)
	}
}

func TestInstantWireCloseDuringDrain(t *testing.T) {
	// The peer's handler queues frames behind the running drain and then
	// closes the sender: later submits fail with ErrNICDown, and every
	// accepted descriptor still completes (delivered or ErrNICDown).
	a, b := NewLink("a", "b", nil, nil, LinkConfig{})
	defer b.Close()
	accepted := 0
	var once sync.Once
	b.SetNotify(func() {
		once.Do(func() {
			for i := 0; i < 5; i++ {
				if err := a.SubmitTX(uint64(10+i), []byte{byte(i)}); err != nil {
					t.Errorf("submit behind the drain: %v", err)
				} else {
					accepted++
				}
			}
			a.Close()
			if err := a.SubmitTX(99, []byte{9}); err != ErrNICDown {
				t.Errorf("submit after Close: %v, want ErrNICDown", err)
			}
		})
	})
	if err := a.SubmitTX(1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	accepted++
	if err := a.SubmitTX(2, []byte{2}); err != ErrNICDown {
		t.Fatalf("submit after the drain closed the NIC: %v, want ErrNICDown", err)
	}
	if n := popAllTX(t, a, true); n != accepted {
		t.Fatalf("%d TX completions, want %d", n, accepted)
	}
	a.mu.Lock()
	inflight := a.inflight
	a.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d descriptors still in flight after Close", inflight)
	}
}

// --- ring reuse and the TX-completion interrupt mask ---

func TestNICRingsDoNotAllocateWhenWarm(t *testing.T) {
	a, b := NewLink("a", "b", nil, nil, LinkConfig{})
	defer a.Close()
	defer b.Close()
	frame := []byte("frame")
	rx := func() {
		b.deliverRX(frame)
		b.deliverRX(frame)
		if f, ok := b.PopRX(); !ok || len(f) != len(frame) {
			t.Fatal("PopRX lost a frame")
		}
		if _, ok := b.PopRX(); !ok {
			t.Fatal("PopRX lost a frame")
		}
	}
	tx := func() {
		a.mu.Lock()
		a.inflight++
		a.mu.Unlock()
		a.completeTX(1, nil)
		if _, _, ok := a.PopTX(); !ok {
			t.Fatal("PopTX lost a completion")
		}
	}
	rx()
	tx()
	if n := testing.AllocsPerRun(1000, rx); n != 0 {
		t.Fatalf("deliverRX+PopRX: %v allocations per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, tx); n != 0 {
		t.Fatalf("completeTX+PopTX: %v allocations per run, want 0", n)
	}
}

func TestFIFOKeepsOrderAcrossCompaction(t *testing.T) {
	var q fifo[int]
	next, want := 0, 0
	for round := 0; round < 200; round++ {
		// Push more than is popped so the head is never at the front
		// when the array fills: compaction and growth both happen.
		for i := 0; i < 3+round%5; i++ {
			q.push(next)
			next++
		}
		for i := 0; i < 2+round%4; i++ {
			v, ok := q.pop()
			if !ok {
				break
			}
			if v != want {
				t.Fatalf("popped %d, want %d", v, want)
			}
			want++
		}
		if q.len() != next-want {
			t.Fatalf("len = %d, want %d", q.len(), next-want)
		}
	}
	for {
		v, ok := q.pop()
		if !ok {
			break
		}
		if v != want {
			t.Fatalf("popped %d, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d of %d", want, next)
	}
}

// irqCounter wires a NIC's IRQ controller to a counting handler.
func irqCounter(t *testing.T, cfg LinkConfig) (a, b *NIC, raised func() int) {
	t.Helper()
	ic := NewIRQController(1)
	a, b = NewLink("eth0", "peer0", ic, nil, cfg)
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	var mu sync.Mutex
	n := 0
	ic.Register(IRQNIC, 0, func(IRQLine, int) {
		mu.Lock()
		n++
		mu.Unlock()
	})
	return a, b, func() int {
		mu.Lock()
		defer mu.Unlock()
		return n
	}
}

// waitFor polls cond until it holds, failing after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// wantIRQs checks that a raised exactly want TX-completion interrupts,
// waiting for the controller to dispatch them.
func wantIRQs(t *testing.T, a *NIC, raised func() int, want int) {
	t.Helper()
	if got := a.Stats().TxIRQs; got != uint64(want) {
		t.Fatalf("TxIRQs = %d, want %d", got, want)
	}
	waitFor(t, fmt.Sprintf("%d IRQs dispatched", want), func() bool { return raised() >= want })
	if got := raised(); got != want {
		t.Fatalf("%d IRQs dispatched, want %d", got, want)
	}
}

// inflight reads the NIC's uncompleted descriptor count.
func inflight(n *NIC) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inflight
}

// waitIdle waits until every descriptor n submitted has completed.
func waitIdle(t *testing.T, n *NIC) {
	t.Helper()
	waitFor(t, "every descriptor to complete", func() bool { return inflight(n) == 0 })
}

func TestTxMaskSilencesSuccessfulCompletions(t *testing.T) {
	for name, cfg := range map[string]LinkConfig{
		"instant":  {},
		"modelled": {LatencyAB: 200 * time.Microsecond, BandwidthAB: 10_000_000},
	} {
		t.Run(name, func(t *testing.T) {
			a, b, raised := irqCounter(t, cfg)
			a.MaskTxIRQ()
			const n = 50
			for i := 0; i < n; i++ {
				if err := a.SubmitTX(uint64(i), []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			drainNIC(t, b, n, 5*time.Second)
			waitIdle(t, a)
			if _, _, ok := a.PopTX(); ok {
				t.Fatal("a masked successful completion was queued")
			}
			if got := raised(); got != 0 {
				t.Fatalf("%d IRQs raised for masked completions", got)
			}
			if s := a.Stats(); s.TxIRQs != 0 || s.TxFrames != n {
				t.Fatalf("stats: TxIRQs=%d TxFrames=%d, want 0/%d", s.TxIRQs, s.TxFrames, n)
			}
			if !a.TxRoom() {
				t.Fatal("masked completions did not free their descriptors")
			}
		})
	}
}

// fillStalledRing holds a's wire with a 300-byte frame at 10 kB/s (30 ms)
// and fills every other descriptor behind it.
func fillStalledRing(t *testing.T, a *NIC) {
	t.Helper()
	if err := a.SubmitTX(0, make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < NICTxRing; i++ {
		if err := a.SubmitTX(uint64(i), []byte{0}); err != nil {
			t.Fatalf("filling descriptor %d: %v", i, err)
		}
	}
}

func TestTxMaskRefusedSubmitArmsOneIRQ(t *testing.T) {
	t.Run("stalled", func(t *testing.T) {
		a, _, raised := irqCounter(t, LinkConfig{BandwidthAB: 10_000})
		a.MaskTxIRQ()
		fillStalledRing(t, a)
		for i := 0; i < 3; i++ { // refusals share one armed completion
			if err := a.SubmitTX(999, []byte{1}); err != ErrNICTxRingFull {
				t.Fatalf("submit on a full ring: %v, want ErrNICTxRingFull", err)
			}
		}
		waitIdle(t, a)
		if got := popAllTX(t, a, false); got != 1 {
			t.Fatalf("%d completions queued after a refusal, want 1", got)
		}
		wantIRQs(t, a, raised, 1)
	})
	t.Run("instant", func(t *testing.T) {
		// The peer's handler runs inside the drain and queues a full ring
		// behind it; the refusal that follows arms one completion.
		a, b, raised := irqCounter(t, LinkConfig{})
		a.MaskTxIRQ()
		var once sync.Once
		b.SetNotify(func() {
			once.Do(func() {
				for i := 0; i < NICTxRing; i++ {
					if err := a.SubmitTX(uint64(10+i), []byte{2}); err != nil {
						t.Errorf("queueing behind the drain: %v", err)
					}
				}
				if err := a.SubmitTX(999, []byte{3}); err != ErrNICTxRingFull {
					t.Errorf("submit on a full ring: %v, want ErrNICTxRingFull", err)
				}
			})
		})
		if err := a.SubmitTX(1, []byte{1}); err != nil {
			t.Fatal(err)
		}
		waitIdle(t, a)
		if got := popAllTX(t, a, false); got != 1 {
			t.Fatalf("%d completions queued after a refusal, want 1", got)
		}
		wantIRQs(t, a, raised, 1)
	})
}

func TestTxMaskTxRoomArmsOneIRQ(t *testing.T) {
	// A sleeper's re-check that finds no room arms the next completion on
	// its own: the refusal's armed completion may have gone to a slot
	// another submitter took.
	a, _, raised := irqCounter(t, LinkConfig{BandwidthAB: 10_000})
	a.MaskTxIRQ()
	fillStalledRing(t, a)
	if a.TxRoom() {
		t.Fatal("TxRoom true on a full ring")
	}
	waitIdle(t, a)
	if got := popAllTX(t, a, false); got != 1 {
		t.Fatalf("%d completions queued after TxRoom found no room, want 1", got)
	}
	wantIRQs(t, a, raised, 1)
}

func TestTxMaskWakesSleeperOnFullRing(t *testing.T) {
	// A submitter that finds the ring full registers for the wake-up,
	// re-checks TxRoom, and sleeps: the armed completion's IRQ wakes it.
	ic := NewIRQController(1)
	a, b := NewLink("eth0", "peer0", ic, nil, LinkConfig{BandwidthAB: 10_000})
	defer a.Close()
	defer b.Close()
	a.MaskTxIRQ()
	wake := make(chan struct{}, 1)
	ic.Register(IRQNIC, 0, func(IRQLine, int) {
		for {
			if _, _, ok := a.PopTX(); !ok {
				break
			}
		}
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	fillStalledRing(t, a)
	done := make(chan error, 1)
	go func() {
		for {
			err := a.SubmitTX(999, []byte{9})
			if err != ErrNICTxRingFull {
				done <- err
				return
			}
			if !a.TxRoom() {
				<-wake
			}
		}
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("submit after the wake: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sleeper on a full ring never woke")
	}
	drainNIC(t, b, NICTxRing+1, 5*time.Second)
}

func TestTxMaskErrorCompletionStillRaises(t *testing.T) {
	t.Run("stalled", func(t *testing.T) {
		// The frame on the wire completes cleanly (silent); the one
		// queued behind it fails at Close and is queued and raised.
		a, _, raised := irqCounter(t, LinkConfig{BandwidthAB: 100})
		a.MaskTxIRQ()
		if err := a.SubmitTX(1, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the first frame on the wire", func() bool {
			a.dir.mu.Lock()
			defer a.dir.mu.Unlock()
			return len(a.dir.queue) == 0
		})
		if err := a.SubmitTX(2, []byte{4}); err != nil {
			t.Fatal(err)
		}
		a.Close()
		waitIdle(t, a)
		tag, err, ok := a.PopTX()
		if !ok || tag != 2 || err != ErrNICDown {
			t.Fatalf("completion = (%d, %v, %v), want (2, ErrNICDown, true)", tag, err, ok)
		}
		if _, _, ok := a.PopTX(); ok {
			t.Fatal("the successful completion was queued under the mask")
		}
		wantIRQs(t, a, raised, 1)
	})
	t.Run("instant", func(t *testing.T) {
		// Frames queued behind the drain fail when the handler closes
		// the NIC: each failure is queued and raised.
		a, b, raised := irqCounter(t, LinkConfig{})
		a.MaskTxIRQ()
		var once sync.Once
		b.SetNotify(func() {
			once.Do(func() {
				for i := 0; i < 5; i++ {
					if err := a.SubmitTX(uint64(10+i), []byte{byte(i)}); err != nil {
						t.Errorf("queueing behind the drain: %v", err)
					}
				}
				a.Close()
			})
		})
		if err := a.SubmitTX(1, []byte{1}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			tag, err, ok := a.PopTX()
			if !ok || tag != uint64(10+i) || err != ErrNICDown {
				t.Fatalf("completion %d = (%d, %v, %v), want (%d, ErrNICDown, true)", i, tag, err, ok, 10+i)
			}
		}
		if _, _, ok := a.PopTX(); ok {
			t.Fatal("the successful completion was queued under the mask")
		}
		wantIRQs(t, a, raised, 5)
	})
}

// --- NetFaultPlan ---

func TestNetFaultDropAndDup(t *testing.T) {
	a, b := NewLink("a", "b", nil, nil, LinkConfig{})
	defer a.Close()
	defer b.Close()
	a.SetFaults(NetFaultPlan{Seed: 42, PDrop: 0.2, PDup: 0.2})

	const n = 500
	for i := 0; i < n; i++ {
		for {
			if err := a.SubmitTX(uint64(i), []byte{byte(i), byte(i >> 8)}); err == nil {
				break
			}
			for {
				if _, _, ok := a.PopTX(); !ok {
					break
				}
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	// Wait for the fault layer to have judged every frame.
	deadline := time.Now().Add(10 * time.Second)
	var fs NetFaultStats
	for {
		fs = a.FaultStats()
		if fs.Frames == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fault layer saw %d/%d frames", fs.Frames, n)
		}
		time.Sleep(time.Millisecond)
	}
	if fs.Drops == 0 || fs.Dups == 0 {
		t.Fatalf("seed 42 with p=0.2 injected drops=%d dups=%d over %d frames", fs.Drops, fs.Dups, n)
	}
	// Delivered = sent - drops + dups (ring is large enough not to drop).
	want := n - fs.Drops + fs.Dups
	deadline = time.Now().Add(10 * time.Second)
	for {
		if got := int(b.Stats().RxFrames); got == want {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("delivered %d frames, want %d (drops=%d dups=%d)", got, want, fs.Drops, fs.Dups)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNetFaultDeterministicReplay(t *testing.T) {
	run := func() NetFaultStats {
		a, b := NewLink("a", "b", nil, nil, LinkConfig{})
		defer a.Close()
		defer b.Close()
		a.SetFaults(NetFaultPlan{Seed: 7, PDrop: 0.1, PDup: 0.1, PReorder: 0.1, PLatency: 0.05, LatencySpike: time.Microsecond})
		for i := 0; i < 300; i++ {
			for {
				if err := a.SubmitTX(uint64(i), []byte{byte(i)}); err == nil {
					break
				}
				for {
					if _, _, ok := a.PopTX(); !ok {
						break
					}
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for a.FaultStats().Frames < 300 {
			if time.Now().After(deadline) {
				t.Fatalf("fault layer saw %d/300", a.FaultStats().Frames)
			}
			time.Sleep(time.Millisecond)
		}
		return a.FaultStats()
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Fatalf("same seed, different schedules:\n  %+v\n  %+v", s1, s2)
	}
	if s1.Drops == 0 && s1.Dups == 0 && s1.Reorders == 0 {
		t.Fatalf("seed 7 injected nothing: %+v", s1)
	}
}

func TestNetFaultReorderActuallyReorders(t *testing.T) {
	a, b := NewLink("a", "b", nil, nil, LinkConfig{})
	defer a.Close()
	defer b.Close()
	a.SetFaults(NetFaultPlan{Seed: 3, PReorder: 0.15, ReorderWindow: 3})

	const n = 400
	for i := 0; i < n; i++ {
		for {
			if err := a.SubmitTX(uint64(i), []byte{byte(i), byte(i >> 8)}); err == nil {
				break
			}
			for {
				if _, _, ok := a.PopTX(); !ok {
					break
				}
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	got := drainNIC(t, b, n, 10*time.Second)
	outOfOrder := 0
	prev := -1
	for _, f := range got {
		v := int(f[0]) | int(f[1])<<8
		if v < prev {
			outOfOrder++
		} else {
			prev = v
		}
	}
	if fs := a.FaultStats(); fs.Reorders == 0 {
		t.Fatalf("seed 3 held no frames: %+v", fs)
	} else if outOfOrder == 0 {
		t.Fatalf("%d holds but delivery order was strictly FIFO", fs.Reorders)
	}
}

func TestNetFaultReorderFlushNeverStarves(t *testing.T) {
	// PReorder=1 holds the very first frame; with no follow-up traffic
	// only the flush timer can release it.
	a, b := NewLink("a", "b", nil, nil, LinkConfig{})
	defer a.Close()
	defer b.Close()
	a.SetFaults(NetFaultPlan{Seed: 1, PReorder: 1})
	if err := a.SubmitTX(0, []byte("held")); err != nil {
		t.Fatal(err)
	}
	got := drainNIC(t, b, 1, 5*time.Second)
	if !bytes.Equal(got[0], []byte("held")) {
		t.Fatalf("flushed frame = %q", got[0])
	}
}

func TestNetFaultLatencySpikeDelaysWithoutError(t *testing.T) {
	a, b := NewLink("a", "b", nil, nil, LinkConfig{})
	defer a.Close()
	defer b.Close()
	a.SetFaults(NetFaultPlan{Seed: 9, PLatency: 1, LatencySpike: 15 * time.Millisecond})
	start := time.Now()
	if err := a.SubmitTX(0, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	drainNIC(t, b, 1, 5*time.Second)
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("spiked frame arrived in %v, want >= 15ms", d)
	}
	// The descriptor still completed cleanly: spikes are not errors.
	deadline := time.Now().Add(time.Second)
	for {
		if _, err, ok := a.PopTX(); ok {
			if err != nil {
				t.Fatalf("latency spike surfaced error: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no TX completion")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// --- IRQ line coverage (fail-loudly satellite) ---

// TestIRQLineStringExhaustive walks every discrete line below the
// generic-timer base: each must stringify to a real name. A new line
// added without a String() case falls through to the "irq%d" default and
// fails here — the compile-time-ish guard this simulated world can have.
func TestIRQLineStringExhaustive(t *testing.T) {
	for l := IRQLine(0); l < irqGenericTimerBase; l++ {
		s := l.String()
		if strings.HasPrefix(s, "irq") {
			t.Errorf("IRQLine(%d) stringifies as %q: missing String() case", int(l), s)
		}
	}
	if got := IRQNIC.String(); got != "nic" {
		t.Fatalf("IRQNIC.String() = %q, want \"nic\"", got)
	}
	if got := GenericTimerLine(2).String(); got != "gtimer2" {
		t.Fatalf("GenericTimerLine(2).String() = %q", got)
	}
}

func TestIRQRoutedReportsHandlerPresence(t *testing.T) {
	ic := NewIRQController(1)
	if ic.Routed(IRQNIC) {
		t.Fatal("Routed true before Register")
	}
	ic.Register(IRQNIC, 0, func(IRQLine, int) {})
	if !ic.Routed(IRQNIC) {
		t.Fatal("Routed false after Register")
	}
	ic.Disable(IRQNIC)
	if ic.Routed(IRQNIC) {
		t.Fatal("Routed true after Disable")
	}
}
