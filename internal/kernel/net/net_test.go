package net

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"protosim/internal/hw"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/ktime"
	"protosim/internal/kernel/sched"
)

// twoStacks wires two stacks over a simulated NIC link. All test IO runs
// host-side (t == nil), so blocking paths spin-yield instead of sleeping
// on a scheduler.
func twoStacks(t *testing.T, cfg hw.LinkConfig, opts Options) (*Stack, *Stack) {
	t.Helper()
	nicA, nicB := hw.NewLink("netA", "netB", nil, nil, cfg)
	a := NewStack("A", 1, nicA, opts)
	b := NewStack("B", 2, nicB, opts)
	nicA.SetNotify(a.IRQ)
	nicB.SetNotify(b.IRQ)
	t.Cleanup(func() {
		a.Close()
		b.Close()
		nicA.Close()
		nicB.Close()
	})
	return a, b
}

// dial sets up a listener on srv port and a connected client socket.
func dial(t *testing.T, client, server *Stack, port uint16) (*Socket, *Socket) {
	t.Helper()
	ls := server.NewSocket()
	if err := ls.Bind(nil, port); err != nil {
		t.Fatalf("bind: %v", err)
	}
	if err := ls.Listen(nil, 8); err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ls.Close(nil) })

	cs := client.NewSocket()
	if err := cs.Connect(nil, Addr{Host: server.Host(), Port: port}); err != nil {
		t.Fatalf("connect: %v", err)
	}
	ss, err := ls.Accept(nil)
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	return cs, ss
}

func readFull(t *testing.T, sk *Socket, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	got := 0
	for got < n {
		m, err := sk.Read(nil, buf[got:])
		if err != nil {
			t.Fatalf("read after %d/%d bytes: %v", got, n, err)
		}
		if m == 0 {
			t.Fatalf("unexpected EOF after %d/%d bytes", got, n)
		}
		got += m
	}
	return buf
}

func pattern(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestConnectEchoTeardown(t *testing.T) {
	a, b := twoStacks(t, hw.LinkConfig{}, Options{})
	cs, ss := dial(t, a, b, 80)

	msg := []byte("hello over the wire")
	if n, err := cs.Write(nil, msg); err != nil || n != len(msg) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if got := readFull(t, ss, len(msg)); !bytes.Equal(got, msg) {
		t.Fatalf("server got %q want %q", got, msg)
	}
	// Echo back.
	if _, err := ss.Write(nil, msg); err != nil {
		t.Fatalf("echo write: %v", err)
	}
	if got := readFull(t, cs, len(msg)); !bytes.Equal(got, msg) {
		t.Fatalf("client got %q want %q", got, msg)
	}

	// Orderly close both sides: reader sees EOF, conn table drains.
	cs.Close(nil)
	if n, err := ss.Read(nil, make([]byte, 8)); n != 0 || err != nil {
		t.Fatalf("read after peer close: n=%d err=%v, want EOF", n, err)
	}
	ss.Close(nil)
	waitFor(t, "conn tables empty", func() bool {
		a.mu.Lock()
		na := len(a.conns)
		a.mu.Unlock()
		b.mu.Lock()
		nb := len(b.conns)
		b.mu.Unlock()
		return na == 0 && nb == 0
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLargeTransferBothDirections(t *testing.T) {
	a, b := twoStacks(t, hw.LinkConfig{}, Options{})
	cs, ss := dial(t, a, b, 80)
	defer cs.Close(nil)
	defer ss.Close(nil)

	// Well past the window and the rings, both ways at once.
	const total = 512 * 1024
	up := pattern(total, 1)
	down := pattern(total, 2)

	var wg sync.WaitGroup
	var gotUp, gotDown []byte
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := cs.Write(nil, up); err != nil {
			t.Errorf("client write: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := ss.Write(nil, down); err != nil {
			t.Errorf("server write: %v", err)
		}
	}()
	gotUp = readFull(t, ss, total)
	gotDown = readFull(t, cs, total)
	wg.Wait()

	if !bytes.Equal(gotUp, up) {
		t.Fatal("upstream corrupted")
	}
	if !bytes.Equal(gotDown, down) {
		t.Fatal("downstream corrupted")
	}
}

func TestLoopbackStack(t *testing.T) {
	s := NewStack("lo", 7, nil, Options{})
	defer s.Close()
	cs, ss := dial(t, s, s, 9000)
	defer ss.Close(nil)

	data := pattern(200*1024, 3)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := cs.Write(nil, data); err != nil {
			t.Errorf("write: %v", err)
		}
		cs.Close(nil)
	}()
	got := readFull(t, ss, len(data))
	if !bytes.Equal(got, data) {
		t.Fatal("loopback corrupted")
	}
	if n, err := ss.Read(nil, make([]byte, 1)); n != 0 || err != nil {
		t.Fatalf("want EOF after close, got n=%d err=%v", n, err)
	}
	<-done
}

func TestConnectRefusedNoListener(t *testing.T) {
	a, b := twoStacks(t, hw.LinkConfig{}, Options{})
	_ = b
	cs := a.NewSocket()
	err := cs.Connect(nil, Addr{Host: 2, Port: 4444})
	if !errors.Is(err, ErrConnRefused) {
		t.Fatalf("connect to dead port: %v, want ErrConnRefused", err)
	}
	cs.Close(nil)
}

func TestShutdownWRDeliversEOFThenErrPipe(t *testing.T) {
	a, b := twoStacks(t, hw.LinkConfig{}, Options{})
	cs, ss := dial(t, a, b, 80)
	defer cs.Close(nil)
	defer ss.Close(nil)

	msg := []byte("last words")
	if _, err := cs.Write(nil, msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := cs.Shutdown(nil, ShutWR); err != nil {
		t.Fatalf("shutdown(WR): %v", err)
	}
	// Peer drains the buffered bytes, then a clean EOF.
	if got := readFull(t, ss, len(msg)); !bytes.Equal(got, msg) {
		t.Fatalf("got %q want %q", got, msg)
	}
	if n, err := ss.Read(nil, make([]byte, 8)); n != 0 || err != nil {
		t.Fatalf("after FIN: n=%d err=%v, want EOF", n, err)
	}
	// Local writes now fail with the pipe error.
	if _, err := cs.Write(nil, []byte("x")); !errors.Is(err, fs.ErrPipeClosed) {
		t.Fatalf("write after shutdown(WR): %v, want ErrPipeClosed", err)
	}
	// The other direction still flows.
	if _, err := ss.Write(nil, []byte("reply")); err != nil {
		t.Fatalf("server write after client FIN: %v", err)
	}
	if got := readFull(t, cs, 5); string(got) != "reply" {
		t.Fatalf("half-open read: %q", got)
	}
}

func TestShutdownRDGivesLocalEOF(t *testing.T) {
	s := NewStack("lo", 7, nil, Options{})
	defer s.Close()
	cs, ss := dial(t, s, s, 9000)
	defer cs.Close(nil)
	defer ss.Close(nil)

	if err := cs.Shutdown(nil, ShutRD); err != nil {
		t.Fatalf("shutdown(RD): %v", err)
	}
	if n, err := cs.Read(nil, make([]byte, 8)); n != 0 || err != nil {
		t.Fatalf("read after shutdown(RD): n=%d err=%v, want EOF", n, err)
	}
}

func TestListenerCloseWakesAcceptAndResetsBacklog(t *testing.T) {
	a, b := twoStacks(t, hw.LinkConfig{}, Options{})

	ls := b.NewSocket()
	if err := ls.Bind(nil, 80); err != nil {
		t.Fatal(err)
	}
	if err := ls.Listen(nil, 4); err != nil {
		t.Fatal(err)
	}

	// Park an embryo in the backlog, never accepted.
	cs := a.NewSocket()
	if err := cs.Connect(nil, Addr{Host: 2, Port: 80}); err != nil {
		t.Fatalf("connect: %v", err)
	}

	// A concurrent accept blocks, then the close wakes it.
	acceptErr := make(chan error, 1)
	ls2 := b.NewSocket() // second handle would be via dup in the kernel; here call accept twice on one listener
	_ = ls2
	go func() {
		// Drain the queued embryo first so the next accept really blocks.
		s1, err := ls.Accept(nil)
		if err == nil {
			s1.Close(nil)
			_, err = ls.Accept(nil)
		}
		acceptErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	ls.Close(nil)
	if err := <-acceptErr; !errors.Is(err, ErrListenerClosed) {
		t.Fatalf("accept after close: %v, want ErrListenerClosed", err)
	}
	// The accepted-then-closed conn tears down; client sees EOF or reset.
	waitFor(t, "client conn torn down", func() bool {
		n, err := cs.Read(nil, make([]byte, 1))
		return n == 0 && (err == nil || errors.Is(err, ErrConnReset))
	})
	cs.Close(nil)
}

func TestBacklogOverflowRefuses(t *testing.T) {
	a, b := twoStacks(t, hw.LinkConfig{}, Options{})
	ls := b.NewSocket()
	if err := ls.Bind(nil, 80); err != nil {
		t.Fatal(err)
	}
	if err := ls.Listen(nil, 1); err != nil {
		t.Fatal(err)
	}
	defer ls.Close(nil)

	// First connect fills the backlog of 1.
	c1 := a.NewSocket()
	if err := c1.Connect(nil, Addr{Host: 2, Port: 80}); err != nil {
		t.Fatalf("first connect: %v", err)
	}
	defer c1.Close(nil)
	// Second gets RST.
	c2 := a.NewSocket()
	if err := c2.Connect(nil, Addr{Host: 2, Port: 80}); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("overflow connect: %v, want ErrConnRefused", err)
	}
	c2.Close(nil)
}

func TestPortAccounting(t *testing.T) {
	s := NewStack("lo", 7, nil, Options{})
	defer s.Close()

	s1 := s.NewSocket()
	if err := s1.Bind(nil, 80); err != nil {
		t.Fatal(err)
	}
	s2 := s.NewSocket()
	if err := s2.Bind(nil, 80); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("double bind: %v, want ErrAddrInUse", err)
	}
	s1.Close(nil)
	// Port released: bind works again.
	if err := s2.Bind(nil, 80); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	s2.Close(nil)

	// Ephemeral binds pick distinct ports.
	e1, e2 := s.NewSocket(), s.NewSocket()
	if err := e1.Bind(nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := e2.Bind(nil, 0); err != nil {
		t.Fatal(err)
	}
	if e1.LocalPort() == e2.LocalPort() || e1.LocalPort() < ephemeralBase {
		t.Fatalf("ephemeral ports %d, %d", e1.LocalPort(), e2.LocalPort())
	}
	e1.Close(nil)
	e2.Close(nil)
}

func TestSocketStateErrors(t *testing.T) {
	s := NewStack("lo", 7, nil, Options{})
	defer s.Close()

	sk := s.NewSocket()
	if _, err := sk.Read(nil, make([]byte, 1)); !errors.Is(err, ErrNotConn) {
		t.Fatalf("read unconnected: %v", err)
	}
	if _, err := sk.Write(nil, []byte("x")); !errors.Is(err, ErrNotConn) {
		t.Fatalf("write unconnected: %v", err)
	}
	if _, err := sk.Accept(nil); !errors.Is(err, ErrNotListening) {
		t.Fatalf("accept unlistening: %v", err)
	}
	if err := sk.Listen(nil, 4); !errors.Is(err, ErrNotConn) {
		t.Fatalf("listen unbound: %v", err)
	}
	if err := sk.Shutdown(nil, ShutWR); !errors.Is(err, ErrNotConn) {
		t.Fatalf("shutdown unconnected: %v", err)
	}
	sk.Close(nil)
	if err := sk.Bind(nil, 99); !errors.Is(err, fs.ErrBadFD) {
		t.Fatalf("bind after close: %v", err)
	}
}

func TestFlowControlZeroWindowRecovers(t *testing.T) {
	a, b := twoStacks(t, hw.LinkConfig{}, Options{})
	cs, ss := dial(t, a, b, 80)
	defer cs.Close(nil)
	defer ss.Close(nil)

	// Fill the receiver's ring and then some: the writer must block on
	// the closed window, not lose data.
	data := pattern(3*RingSize, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := cs.Write(nil, data); err != nil {
			t.Errorf("write: %v", err)
		}
	}()

	// Let the window actually close before draining.
	waitFor(t, "receive ring full", func() bool {
		ss.mu.Lock()
		c := ss.c
		ss.mu.Unlock()
		c.mu.Lock()
		full := c.rcvWr-c.rcvRead == RingSize
		c.mu.Unlock()
		return full
	})

	got := readFull(t, ss, len(data))
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted across zero-window stall")
	}
	<-done
}

// TestSendSleepsUntilTxRoom: a task that finds the NIC TX ring full
// sleeps on txWait and resumes once the stalled wire drains the ring.
func TestSendSleepsUntilTxRoom(t *testing.T) {
	// 1000 B/s: the first 300-byte frame holds the wire for 300ms, so the
	// ring fills behind it before any descriptor completes.
	a, _ := twoStacks(t, hw.LinkConfig{BandwidthAB: 1000}, Options{})
	if err := a.nic.SubmitTX(0, make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < hw.NICTxRing; i++ {
		if err := a.nic.SubmitTX(uint64(i), []byte{0}); err != nil {
			t.Fatalf("filling descriptor %d: %v", i, err)
		}
	}
	if a.nic.TxRoom() {
		t.Fatal("TX ring has room after NICTxRing submits")
	}

	s := sched.New(sched.Config{Cores: 1})
	s.Start()
	defer s.Shutdown(5 * time.Second)
	done := make(chan struct{})
	s.Go("sender", 0, func(task *sched.Task) {
		defer close(done)
		a.send(task, []byte{1}, 2)
	})
	waitFor(t, "sender asleep on the full ring", func() bool {
		select {
		case <-done:
			t.Fatal("send returned while the TX ring was full")
		default:
		}
		return a.txWait.Waiting() == 1
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sender never resumed after the ring drained")
	}
	if got := a.nic.Stats().TxFrames; got != hw.NICTxRing+1 {
		t.Fatalf("TxFrames = %d, want %d (the blocked frame went out)", got, hw.NICTxRing+1)
	}
}

// TestDeliverInOrderDataDoesNotAllocate: an in-order data segment — the
// receive-ring copy, the ACK it calls for, marshalled into a pooled frame
// and sent through the loopback queue — allocates nothing once the frame
// pool and the queue are warm. The conn's peer, host 2, does not exist,
// so each ACK ends as a misaddressed segment.
func TestDeliverInOrderDataDoesNotAllocate(t *testing.T) {
	s := NewStack("A", 1, nil, Options{})
	t.Cleanup(s.Close)
	c := newConn(s, Addr{Host: 1, Port: 5000}, Addr{Host: 2, Port: 80}, false)
	payload := pattern(64, 1)
	buf := make([]byte, len(payload))
	wire := uint64(1)
	step := func() {
		c.deliver(seg{flags: flagACK, src: c.remote, dst: c.local, seq: wire, ack: 1, wnd: RingSize, payload: payload})
		wire += uint64(len(payload))
		if n, err := c.read(nil, buf); n != len(payload) || err != nil {
			t.Fatalf("read %d bytes, %v", n, err)
		}
	}
	for i := 0; i < 4; i++ {
		step()
	}
	before := s.Stats().BadSegs
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("%v allocations per in-order segment, want 0", n)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload corrupted on the way through the ring")
	}
	if got := s.Stats().BadSegs - before; got != 201 {
		t.Fatalf("%d ACKs left the conn for 201 segments", got)
	}
}

// exchangeUnderFaults pushes 256 KiB through each direction of a link
// whose A→B wire runs planA and whose B→A wire runs planB, and requires
// every byte to arrive in order. The go-back-N machinery behind the After
// seam is what makes that hold.
func exchangeUnderFaults(t *testing.T, planA, planB hw.NetFaultPlan) (*Stack, *Stack) {
	t.Helper()
	opts := Options{After: ktime.HostAfter, RTO: 5 * time.Millisecond}
	a, b := twoStacks(t, hw.LinkConfig{}, opts)
	a.nic.SetFaults(planA)
	b.nic.SetFaults(planB)

	cs, ss := dial(t, a, b, 80)
	defer cs.Close(nil)
	defer ss.Close(nil)

	const total = 256 * 1024
	up := pattern(total, 5)
	down := pattern(total, 6)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := cs.Write(nil, up); err != nil {
			t.Errorf("client write: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := ss.Write(nil, down); err != nil {
			t.Errorf("server write: %v", err)
		}
	}()
	gotUp := readFull(t, ss, total)
	gotDown := readFull(t, cs, total)
	wg.Wait()

	if !bytes.Equal(gotUp, up) || !bytes.Equal(gotDown, down) {
		t.Fatalf("stream corrupted under %v / %v", planA, planB)
	}
	return a, b
}

func TestFaultPlanConverges(t *testing.T) {
	// A hostile link: drops, dups, reorders, latency spikes, both ways.
	a, b := exchangeUnderFaults(t, hw.NetFaultPlan{
		Seed:          42,
		PDrop:         0.05,
		PDup:          0.05,
		PReorder:      0.05,
		ReorderWindow: 3,
		PLatency:      0.02,
	}, hw.NetFaultPlan{Seed: 43, PDrop: 0.05, PDup: 0.03, PReorder: 0.04})
	// The plan really did bite, and recovery really did run.
	fsA := a.nic.FaultStats()
	if fsA.Drops == 0 {
		t.Fatalf("fault plan injected nothing: %+v", fsA)
	}
	if a.Stats().Retrans == 0 && b.Stats().Retrans == 0 {
		t.Fatal("no retransmissions under a lossy plan")
	}
}

// TestRandomNetPlansConverge runs the same exchange under the seeded
// plans hw.RandomNetPlan derives, so the lazily restarted retransmit
// timer meets every mix of drops, duplicates, reorders and latency
// spikes a seed can name. A failing seed replays with RandomNetPlan(n).
func TestRandomNetPlansConverge(t *testing.T) {
	var retrans uint64
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			a, b := exchangeUnderFaults(t, hw.RandomNetPlan(seed), hw.RandomNetPlan(100+seed))
			retrans += a.Stats().Retrans + b.Stats().Retrans
		})
	}
	if retrans == 0 {
		t.Fatal("no seed made the stacks retransmit")
	}
}

func TestProcTextShowsConnections(t *testing.T) {
	a, b := twoStacks(t, hw.LinkConfig{}, Options{})
	cs, ss := dial(t, a, b, 80)
	defer cs.Close(nil)
	defer ss.Close(nil)

	if _, err := cs.Write(nil, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "server buffered data", func() bool {
		st, _ := ss.Stat(nil)
		return st.Size == 6
	})

	txt := b.ProcText()
	for _, want := range []string{"stack B host 2", "LISTEN 2:80", "ESTABLISHED", "rcvq 6"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("ProcText missing %q:\n%s", want, txt)
		}
	}
	txtA := a.ProcText()
	if !strings.Contains(txtA, "ESTABLISHED") {
		t.Fatalf("client ProcText missing conn:\n%s", txtA)
	}
	// Socket stat names the endpoints.
	st, _ := cs.Stat(nil)
	if !strings.Contains(st.Name, "->2:80") || st.Type != fs.TypeSocket {
		t.Fatalf("stat: %+v", st)
	}
}

func TestSegCodecRoundTrip(t *testing.T) {
	g := seg{
		flags:   flagSYN | flagACK | flagFIN,
		src:     Addr{Host: 1, Port: 2},
		dst:     Addr{Host: 65535, Port: 32768},
		seq:     1 << 40,
		ack:     (1 << 41) + 7,
		wnd:     123456,
		payload: []byte("payload bytes"),
	}
	buf := make([]byte, hw.NICMTU)
	n := g.marshal(buf)
	got, ok := parseSeg(buf[:n])
	if !ok {
		t.Fatal("parse failed")
	}
	if got.flags != g.flags || got.src != g.src || got.dst != g.dst ||
		got.seq != g.seq || got.ack != g.ack || got.wnd != g.wnd ||
		!bytes.Equal(got.payload, g.payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, g)
	}
	if fs := flagString(g.flags); fs != "SAF" {
		t.Fatalf("flagString: %q", fs)
	}

	// Garbage and truncation are rejected, not mis-parsed.
	if _, ok := parseSeg(buf[:HdrSize-1]); ok {
		t.Fatal("short frame parsed")
	}
	buf[0] = 99
	if _, ok := parseSeg(buf[:n]); ok {
		t.Fatal("bad version parsed")
	}
}

func TestManyConcurrentConnsOneStackPair(t *testing.T) {
	a, b := twoStacks(t, hw.LinkConfig{}, Options{})
	ls := b.NewSocket()
	if err := ls.Bind(nil, 80); err != nil {
		t.Fatal(err)
	}
	if err := ls.Listen(nil, 64); err != nil {
		t.Fatal(err)
	}
	defer ls.Close(nil)

	const clients = 32
	const msgSize = 4096

	var wg sync.WaitGroup
	// Server: accept and echo until EOF.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var swg sync.WaitGroup
		for i := 0; i < clients; i++ {
			s, err := ls.Accept(nil)
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			swg.Add(1)
			go func(s *Socket) {
				defer swg.Done()
				defer s.Close(nil)
				buf := make([]byte, 1024)
				for {
					n, err := s.Read(nil, buf)
					if n == 0 || err != nil {
						return
					}
					if _, err := s.Write(nil, buf[:n]); err != nil {
						return
					}
				}
			}(s)
		}
		swg.Wait()
	}()

	var cwg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			cs := a.NewSocket()
			if err := cs.Connect(nil, Addr{Host: 2, Port: 80}); err != nil {
				t.Errorf("client %d connect: %v", i, err)
				return
			}
			defer cs.Close(nil)
			out := pattern(msgSize, int64(100+i))
			go cs.Write(nil, out)
			got := make([]byte, msgSize)
			n := 0
			for n < msgSize {
				m, err := cs.Read(nil, got[n:])
				if err != nil || m == 0 {
					t.Errorf("client %d read: n=%d err=%v", i, m, err)
					return
				}
				n += m
			}
			if !bytes.Equal(got, out) {
				t.Errorf("client %d echo mismatch", i)
			}
		}(i)
	}
	cwg.Wait()
	wg.Wait()
}

func TestStackStatsAndRSTPath(t *testing.T) {
	a, b := twoStacks(t, hw.LinkConfig{}, Options{})
	cs, ss := dial(t, a, b, 80)
	cs.Write(nil, []byte("x"))
	readFull(t, ss, 1)
	if st := a.Stats(); st.SegsOut == 0 || st.SegsIn == 0 {
		t.Fatalf("client stats flat: %+v", st)
	}
	if st := b.Stats(); st.Accepted != 1 {
		t.Fatalf("accepted = %d, want 1", st.Accepted)
	}
	cs.Close(nil)
	ss.Close(nil)

	// A stray data segment at a port with nothing behind it draws a RST.
	before := b.Stats().RstsOut
	a.emit(nil, seg{flags: flagACK, src: Addr{1, 999}, dst: Addr{2, 888}, seq: 1, ack: 1})
	waitFor(t, "RST emitted", func() bool { return b.Stats().RstsOut > before })
}

func ExampleAddr_String() {
	fmt.Println(Addr{Host: 3, Port: 8080})
	// Output: 3:8080
}
