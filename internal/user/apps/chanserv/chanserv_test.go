// Package chanserv_test drives the channel server end to end: a booted
// Prototype 5 system with the NIC pair enabled, chanserv running as a
// kernel process, and host-side clients on a peer stack at the far end
// of the link. Every byte crosses the full column — socket write, conn
// ring, TCP-ish segments, NIC descriptor rings, IRQ, softirq, and back
// up the other side.
package chanserv_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"protosim/internal/core"
	"protosim/internal/kernel"
	"protosim/internal/kernel/ktime"
	"protosim/internal/kernel/net"
	"protosim/internal/user/apps/chanserv"
	"protosim/internal/user/ulib"
)

// netSystem boots a Prototype 5 with the network column enabled and
// returns a host-side peer stack wired to the far end of the NIC link.
func netSystem(t testing.TB) (*core.System, *net.Stack) {
	t.Helper()
	sys, err := core.NewSystem(core.Options{
		Prototype: core.Prototype5,
		MemBytes:  48 << 20,
		FBWidth:   320, FBHeight: 240,
		EnableNet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Machine.SD.SetLatencyScale(0)
	peer := net.NewStack("peer0", kernel.NetPeerHost, sys.Machine.PeerNIC, net.Options{
		After: ktime.HostAfter,
	})
	sys.Machine.PeerNIC.SetNotify(peer.IRQ)
	t.Cleanup(func() {
		peer.Close()
		if err := sys.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return sys, peer
}

// startChanserv spawns the server process and returns its exit-code
// channel plus a watchdog-wrapped wait.
func startChanserv(t testing.TB, sys *core.System) <-chan int {
	t.Helper()
	done := make(chan int, 1)
	sys.Kernel.Spawn("chanserv", 0, func(p *kernel.Proc, argv []string) int {
		c := chanserv.Main(p, argv)
		done <- c
		return c
	}, []string{"chanserv"})
	return done
}

// client is a host-side chanserv client: a peer-stack socket plus frame
// reassembly. Methods return errors so they are safe off the test
// goroutine.
type client struct {
	sk  *net.Socket
	d   ulib.FrameDecoder
	buf []byte
}

// dialChan connects to the server, retrying while the listener is still
// coming up, and sends the join frame for room.
func dialChan(t testing.TB, peer *net.Stack, room string) *client {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		sk := peer.NewSocket()
		err := sk.Connect(nil, net.Addr{Host: kernel.NetLocalHost, Port: chanserv.DefaultPort})
		if err == nil {
			c := &client{sk: sk, buf: make([]byte, 4096)}
			if err := c.send([]byte(room)); err != nil {
				t.Fatalf("join %s: %v", room, err)
			}
			return c
		}
		sk.Close(nil)
		if time.Now().After(deadline) {
			t.Fatalf("connect: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *client) send(payload []byte) error {
	buf := ulib.EncodeFrame(payload)
	for len(buf) > 0 {
		n, err := c.sk.Write(nil, buf)
		if err != nil {
			return err
		}
		buf = buf[n:]
	}
	return nil
}

// next returns the next frame, io.EOF on a clean close.
func (c *client) next() ([]byte, error) {
	for {
		if f, err := c.d.Next(); f != nil || err != nil {
			return f, err
		}
		n, err := c.sk.Read(nil, c.buf)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			if c.d.Pending() {
				return nil, ulib.ErrTruncatedFrame
			}
			return nil, io.EOF
		}
		c.d.Feed(c.buf[:n])
	}
}

// expect reads one frame and requires it to equal want.
func (c *client) expect(t testing.TB, want string) {
	t.Helper()
	f, err := c.next()
	if err != nil {
		t.Fatalf("waiting for %q: %v", want, err)
	}
	if string(f) != want {
		t.Fatalf("got frame %q, want %q", f, want)
	}
}

// joinRoom dials and then confirms membership by broadcasting a sync
// probe and waiting for its own copy: once the probe comes back, the
// server has processed the join, so later broadcasts will reach this
// client. Join clients sequentially and membership order is
// deterministic.
func joinRoom(t testing.TB, peer *net.Stack, room, tag string) *client {
	t.Helper()
	c := dialChan(t, peer, room)
	if err := c.send([]byte(tag)); err != nil {
		t.Fatalf("sync %s: %v", tag, err)
	}
	c.expect(t, tag)
	return c
}

// runRoom joins n clients into room sequentially, has every client
// broadcast one message, and verifies every client sees the full set.
// Returns the clients, still connected.
func runRoom(t testing.TB, peer *net.Stack, room string, n int) []*client {
	t.Helper()
	clients := make([]*client, n)
	for k := 0; k < n; k++ {
		clients[k] = joinRoom(t, peer, room, fmt.Sprintf("sync:%s:%d", room, k))
	}
	// Drain the later joiners' sync probes: client k, a member since join
	// k, saw syncs k+1..n-1 broadcast in order.
	for k, c := range clients {
		for m := k + 1; m < n; m++ {
			c.expect(t, fmt.Sprintf("sync:%s:%d", room, m))
		}
	}
	// Every member broadcasts one message; room-wide the fan-out order is
	// the server's broadcast serialization, identical on every stream.
	for k, c := range clients {
		if err := c.send([]byte(fmt.Sprintf("msg:%s:%d", room, k))); err != nil {
			t.Fatalf("msg %d: %v", k, err)
		}
	}
	var order []string
	for k, c := range clients {
		seen := map[string]bool{}
		var got []string
		for m := 0; m < n; m++ {
			f, err := c.next()
			if err != nil {
				t.Fatalf("client %d msg %d: %v", k, m, err)
			}
			if seen[string(f)] {
				t.Fatalf("client %d got %q twice", k, f)
			}
			seen[string(f)] = true
			got = append(got, string(f))
		}
		for m := 0; m < n; m++ {
			if !seen[fmt.Sprintf("msg:%s:%d", room, m)] {
				t.Fatalf("client %d missed msg %d (got %v)", k, m, got)
			}
		}
		if k == 0 {
			order = got
		} else {
			for i := range order {
				if got[i] != order[i] {
					t.Fatalf("client %d saw order %v, client 0 saw %v", k, got, order)
				}
			}
		}
	}
	return clients
}

func TestChanservBroadcastAndShutdown(t *testing.T) {
	sys, peer := netSystem(t)
	done := startChanserv(t, sys)

	clients := runRoom(t, peer, "lobby", 6)

	// /quit leaves the room: the quitter gets EOF, the survivors still
	// get broadcasts, and the quitter's messages stop counting.
	if err := clients[5].send([]byte("/quit")); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[5].next(); err != io.EOF {
		t.Fatalf("after /quit: %v, want EOF", err)
	}
	// The leave is processed before the handler closes the fd, so once
	// the quitter sees EOF the membership change is visible.
	if err := clients[0].send([]byte("after-quit")); err != nil {
		t.Fatal(err)
	}
	for _, c := range clients[:5] {
		c.expect(t, "after-quit")
	}

	// /shutdown stops the accept loop; the server exits cleanly.
	if err := clients[0].send([]byte("/shutdown")); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("chanserv exit %d", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("chanserv did not exit after /shutdown")
	}
	for _, c := range clients {
		c.sk.Close(nil)
	}
}

func TestChanservRoomsAreIsolated(t *testing.T) {
	sys, peer := netSystem(t)
	startChanserv(t, sys)

	a0 := joinRoom(t, peer, "alpha", "sync:a0")
	a1 := joinRoom(t, peer, "alpha", "sync:a1")
	b0 := joinRoom(t, peer, "beta", "sync:b0")
	a0.expect(t, "sync:a1") // a0 sees alpha's later join, nothing from beta

	if err := b0.send([]byte("beta-only")); err != nil {
		t.Fatal(err)
	}
	b0.expect(t, "beta-only")
	if err := a1.send([]byte("alpha-only")); err != nil {
		t.Fatal(err)
	}
	// Both alpha members get the alpha message; if beta's broadcast had
	// leaked it would have arrived first on these ordered streams.
	a0.expect(t, "alpha-only")
	a1.expect(t, "alpha-only")

	for _, c := range []*client{a0, a1, b0} {
		c.sk.Close(nil)
	}
}

// TestChanservSustains256Clients is the soak gate from the issue: 256
// concurrent connections across 8 rooms, every client broadcasting and
// every client receiving every room message, race-clean.
func TestChanservSustains256Clients(t *testing.T) {
	const rooms = 8
	perRoom := 32
	if testing.Short() {
		perRoom = 4
	}
	sys, peer := netSystem(t)
	done := startChanserv(t, sys)

	var all []*client
	for r := 0; r < rooms; r++ {
		all = append(all, runRoom(t, peer, fmt.Sprintf("room-%d", r), perRoom)...)
	}

	// All rooms live at once: one more broadcast per room with the full
	// population connected.
	for r := 0; r < rooms; r++ {
		if err := all[r*perRoom].send([]byte(fmt.Sprintf("final-%d", r))); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rooms; r++ {
		for _, c := range all[r*perRoom : (r+1)*perRoom] {
			c.expect(t, fmt.Sprintf("final-%d", r))
		}
	}

	if err := all[0].send([]byte("/shutdown")); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("chanserv exit %d", code)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("chanserv did not exit after /shutdown")
	}
	for _, c := range all {
		c.sk.Close(nil)
	}
}
