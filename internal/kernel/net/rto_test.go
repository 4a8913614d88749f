package net

import (
	"testing"
	"time"
)

// manualClock is an After seam the test fires by hand. It records every
// arm; fire runs a callback whether or not it was cancelled, which is how
// a cancel that lost the race with expiry looks to the conn.
type manualClock struct {
	timers []*manualTimer
}

type manualTimer struct {
	fn        func()
	cancelled bool
	fired     bool
}

func (m *manualClock) after(_ time.Duration, fn func()) func() bool {
	tm := &manualTimer{fn: fn}
	m.timers = append(m.timers, tm)
	return func() bool {
		pending := !tm.cancelled && !tm.fired
		tm.cancelled = true
		return pending
	}
}

func (m *manualClock) fire(t *testing.T, i int) {
	t.Helper()
	if i >= len(m.timers) {
		t.Fatalf("timer %d was never armed (%d arms)", i, len(m.timers))
	}
	tm := m.timers[i]
	tm.fired = true
	tm.fn()
}

// live counts timers armed and neither cancelled nor fired.
func (m *manualClock) live() int {
	n := 0
	for _, tm := range m.timers {
		if !tm.cancelled && !tm.fired {
			n++
		}
	}
	return n
}

// scriptedConn opens a client conn on a NIC-less stack whose peer, host
// 2, does not exist: every segment the conn sends is counted in SegsOut
// and then dropped as misaddressed, and the test plays the peer by
// handing segments to deliver. Everything runs on the test goroutine.
// Timer 0 is the SYN's, cancelled by the SYN|ACK carrying window wnd.
func scriptedConn(t *testing.T, wnd uint32) (*conn, *manualClock) {
	t.Helper()
	m := &manualClock{}
	s := NewStack("A", 1, nil, Options{After: m.after, RTO: time.Second})
	t.Cleanup(s.Close)
	c := newConn(s, Addr{Host: 1, Port: 5000}, Addr{Host: 2, Port: 80}, false)
	c.synSent = true
	c.mu.Lock()
	c.armRTOLocked()
	c.mu.Unlock()
	c.deliver(seg{flags: flagSYN | flagACK, src: c.remote, dst: c.local, ack: 1, wnd: wnd})
	if len(m.timers) != 1 || !m.timers[0].cancelled {
		t.Fatalf("handshake left %d arms, SYN timer cancelled=%v", len(m.timers), m.timers[0].cancelled)
	}
	return c, m
}

// peerAck delivers a pure ACK covering stream bytes [0, upto) with
// window wnd.
func peerAck(c *conn, upto uint64, wnd uint32) {
	c.deliver(seg{flags: flagACK, src: c.remote, dst: c.local, seq: 1, ack: upto + 1, wnd: wnd})
}

// rtoState snapshots what the timer tests check.
type rtoState struct {
	sndUna, sndNxt, retrans, segsOut uint64
	armed                            bool
}

func stateOf(c *conn) rtoState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return rtoState{
		sndUna:  c.sndUna,
		sndNxt:  c.sndNxt,
		retrans: c.retrans,
		segsOut: c.stack.Stats().SegsOut,
		armed:   c.rtoCancel != nil,
	}
}

func writeAll(t *testing.T, c *conn, n int) {
	t.Helper()
	if got, err := c.write(nil, pattern(n, int64(n))); err != nil || got != n {
		t.Fatalf("write %d: n=%d err=%v", n, got, err)
	}
}

// TestStaleRTOCallbackIsIgnored: the SYN timer's callback arrives after
// the handshake cancelled it and data armed a new timer. It must neither
// replay nor clear the new timer's handle.
func TestStaleRTOCallbackIsIgnored(t *testing.T) {
	c, m := scriptedConn(t, RingSize)
	writeAll(t, c, 100)
	before := stateOf(c)
	if len(m.timers) != 2 || !before.armed {
		t.Fatalf("data send: %d arms, armed=%v; want 2, true", len(m.timers), before.armed)
	}

	m.fire(t, 0)
	after := stateOf(c)
	if after != before {
		t.Fatalf("stale callback changed the conn: %+v -> %+v", before, after)
	}
	if len(m.timers) != 2 || m.live() != 1 {
		t.Fatalf("stale callback left %d arms, %d live; want 2, 1", len(m.timers), m.live())
	}

	// The live timer still works.
	m.fire(t, 1)
	if s := stateOf(c); s.retrans != 1 || s.segsOut != before.segsOut+1 {
		t.Fatalf("live timer: retrans=%d segs=%d, want 1 and %d", s.retrans, s.segsOut, before.segsOut+1)
	}
}

// TestAckProgressDefersReplay: an ACK that advances snd_una while the
// timer runs neither cancels nor re-arms it; the expiry that follows
// re-arms a full RTO instead of replaying, and the one after that,
// with no progress in between, replays from snd_una.
func TestAckProgressDefersReplay(t *testing.T) {
	c, m := scriptedConn(t, RingSize)
	writeAll(t, c, 3*MSS)
	peerAck(c, MSS, RingSize)
	if len(m.timers) != 2 || m.live() != 1 {
		t.Fatalf("ACK touched the timer: %d arms, %d live; want 2, 1", len(m.timers), m.live())
	}
	before := stateOf(c)

	m.fire(t, 1)
	if s := stateOf(c); s.retrans != 0 || s.segsOut != before.segsOut || !s.armed {
		t.Fatalf("stale expiry: retrans=%d segs %d->%d armed=%v; want a quiet re-arm",
			s.retrans, before.segsOut, s.segsOut, s.armed)
	}
	if len(m.timers) != 3 {
		t.Fatalf("stale expiry made %d arms, want 3", len(m.timers))
	}

	m.fire(t, 2)
	s := stateOf(c)
	if s.retrans != 1 || s.segsOut != before.segsOut+2 || s.sndNxt != 3*MSS || s.sndUna != MSS {
		t.Fatalf("expiry without progress: %+v; want one replay of the two segments past snd_una", s)
	}
}

// TestRTOExpiryWithoutProgressReplays: nothing acknowledged since the
// timer was armed, so its expiry goes back to snd_una at once.
func TestRTOExpiryWithoutProgressReplays(t *testing.T) {
	c, m := scriptedConn(t, RingSize)
	writeAll(t, c, 2*MSS)
	before := stateOf(c)
	m.fire(t, 1)
	s := stateOf(c)
	if s.retrans != 1 || s.segsOut != before.segsOut+2 || s.sndNxt != 2*MSS || !s.armed {
		t.Fatalf("expiry: %+v; want both segments replayed and a new timer", s)
	}
}

// TestFullAckLeavesExpiryIdle: once everything is acknowledged the
// running timer is left to expire, and its expiry does nothing.
func TestFullAckLeavesExpiryIdle(t *testing.T) {
	c, m := scriptedConn(t, RingSize)
	writeAll(t, c, 2*MSS)
	peerAck(c, 2*MSS, RingSize)
	before := stateOf(c)
	m.fire(t, 1)
	s := stateOf(c)
	if s.retrans != 0 || s.segsOut != before.segsOut || s.armed || len(m.timers) != 2 {
		t.Fatalf("expiry after a full ACK: %+v, %d arms; want nothing sent or armed", s, len(m.timers))
	}
}

// TestClosedWindowStillProbes: data queued behind a zero window keeps
// the timer going as the persist timer, even though the ACK that closed
// the window made progress, and a refused probe is not a retransmission.
func TestClosedWindowStillProbes(t *testing.T) {
	c, m := scriptedConn(t, 100)
	writeAll(t, c, 300) // 100 bytes fit the window, 200 wait
	peerAck(c, 100, 0)  // progress, and the window closes
	before := stateOf(c)

	m.fire(t, 1) // stale: re-arm only
	if s := stateOf(c); s.segsOut != before.segsOut || !s.armed {
		t.Fatalf("stale persist expiry: %+v; want a quiet re-arm", s)
	}
	for probe := 1; probe <= 2; probe++ {
		m.fire(t, len(m.timers)-1)
		s := stateOf(c)
		if s.segsOut != before.segsOut+uint64(probe) || s.sndNxt != 101 || s.retrans != 0 || !s.armed {
			t.Fatalf("persist expiry %d: %+v; want a one-byte probe, no retransmission", probe, s)
		}
		peerAck(c, 100, 0) // refused: the probe is rewound
	}

	peerAck(c, 100, RingSize) // the window reopens
	if s := stateOf(c); s.sndNxt != 300 {
		t.Fatalf("reopened window: snd_nxt=%d, want 300", s.sndNxt)
	}
}
