package net

import (
	"sync"

	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/sched"
)

// RingSize is each connection's send and receive ring capacity. It is
// also the largest window a conn ever advertises.
const RingSize = 32 * 1024

// connKey identifies a connection in the stack's table. The local host
// is implicit (the stack's); the local port alone cannot identify a
// conn because every connection accepted from one listener shares the
// listener's port.
type connKey struct {
	localPort  uint16
	remoteHost uint16
	remotePort uint16
}

// conn is one TCP-ish stream. All sequence bookkeeping below is in BYTE
// space: byte 0 is the first payload byte of the stream, and the wire
// sequence of byte b is b+1 (the SYN occupies wire sequence 0, the FIN
// occupies the wire sequence just past the last byte). Both directions
// use the same mapping.
//
// Locking: mu protects every field; no emission (NIC submit or loopback
// enqueue) ever happens with mu held — handlers collect segments under
// mu and send after unlock. pumpMu serializes transmission so data
// segments are SUBMITTED in sequence order even when a writer task and
// the softirq pump concurrently; it never nests inside mu.
type conn struct {
	stack  *Stack
	local  Addr
	remote Addr
	server bool // created by a listener (affects dup-SYN handling)

	mu      sync.Mutex
	synSent bool // client: SYN sent, SYN|ACK not yet received

	// pumping/repump elect a single active transmitter: whoever sets
	// pumping owns submission until the well runs dry, and anyone arriving
	// meanwhile (a writer task, the softirq on an ACK, a loopback
	// delivery re-entering from this very conn's send path) just flags
	// repump and leaves. One submitter keeps data segments in sequence
	// order on the wire, and — unlike a mutex — re-entry cannot deadlock.
	pumping bool
	repump  bool

	// Send side. Ring holds [sndUna, sndEnd); sndNxt is the next byte to
	// transmit. Go-back-N: a retransmit timeout rewinds sndNxt to sndUna.
	sndBuf    []byte
	sndUna    uint64
	sndNxt    uint64
	sndEnd    uint64
	sndLimit  uint64 // peer's flow-control edge, wire space: ack+wnd high-water
	finQueued bool   // stream ended locally: no more writes accepted
	finSent   bool   // FIN transmitted and not rewound by a retransmit
	finAcked  bool
	finWire   uint64 // wire sequence the FIN occupies (sndEnd+1 at queue time)
	probe     bool   // the next data segment is a persist probe past a closed window

	// Receive side. Ring holds [rcvRead, rcvWr).
	rcvBuf  []byte
	rcvRead uint64
	rcvWr   uint64
	peerFIN bool
	zeroWnd bool // last advertised window was 0: reads owe a window update

	rdShut    bool  // shutdown(RD): reads return EOF, arriving data is acked and discarded on read? kept; simple EOF
	resetErr  error // RST received (or sent): ErrConnReset / ErrConnRefused
	ofdClosed bool  // the owning OFD released us; reap when the wire winds down
	reaped    bool  // removed from the table, rings returned

	retrans uint64

	// Retransmit timer, restarted lazily (RFC 6298 5.1-5.3): an ACK that
	// makes progress marks the running timer stale instead of cancelling
	// and re-arming it, and a stale expiry re-arms a full RTO rather than
	// replay. rtoGen names the live arm, so a callback whose cancel lost
	// the race with its firing finds a newer generation and does nothing.
	rtoCancel func() bool
	rtoGen    uint64
	rtoStale  bool

	rwq sched.WaitQueue // blocked readers
	wwq sched.WaitQueue // blocked writers
	cwq sched.WaitQueue // connect() waiting for the handshake
}

func newConn(s *Stack, local, remote Addr, server bool) *conn {
	return &conn{
		stack:  s,
		local:  local,
		remote: remote,
		server: server,
		sndBuf: s.ringPool.Get(),
		rcvBuf: s.ringPool.Get(),
	}
}

func (c *conn) key() connKey {
	return connKey{localPort: c.local.Port, remoteHost: c.remote.Host, remotePort: c.remote.Port}
}

// ringPut copies src into ring at absolute position pos (wrapping).
func ringPut(ring []byte, pos uint64, src []byte) {
	i := int(pos % uint64(len(ring)))
	n := copy(ring[i:], src)
	if n < len(src) {
		copy(ring, src[n:])
	}
}

// ringGet copies len(dst) bytes out of ring from absolute position pos.
func ringGet(ring []byte, pos uint64, dst []byte) {
	i := int(pos % uint64(len(ring)))
	n := copy(dst, ring[i:])
	if n < len(dst) {
		copy(dst[n:], ring[:len(dst)-n])
	}
}

// freeLocked is the receive window to advertise; it records a zero
// advertisement so the next read knows to send a window update.
func (c *conn) freeLocked() uint32 {
	free := uint32(RingSize - (c.rcvWr - c.rcvRead))
	c.zeroWnd = free == 0
	return free
}

// ackWireLocked is the wire sequence we expect next from the peer.
func (c *conn) ackWireLocked() uint64 {
	a := c.rcvWr + 1
	if c.peerFIN {
		a++
	}
	return a
}

// ackSegLocked builds a pure ACK (also the window-update segment).
func (c *conn) ackSegLocked() seg {
	return seg{
		flags: flagACK,
		src:   c.local,
		dst:   c.remote,
		seq:   c.sndNxt + 1,
		ack:   c.ackWireLocked(),
		wnd:   c.freeLocked(),
	}
}

// synSegLocked builds the client SYN (wire sequence 0).
func (c *conn) synSegLocked() seg {
	return seg{flags: flagSYN, src: c.local, dst: c.remote, seq: 0, wnd: c.freeLocked()}
}

// synAckSegLocked builds the server SYN|ACK (its own wire sequence 0,
// acknowledging the client's SYN).
func (c *conn) synAckSegLocked() seg {
	return seg{flags: flagSYN | flagACK, src: c.local, dst: c.remote, seq: 0, ack: 1, wnd: c.freeLocked()}
}

// --- retransmission (the Options.After seam) ---

// armRTOLocked starts the retransmit timer if the seam is wired and no
// timer is pending.
func (c *conn) armRTOLocked() {
	if c.stack.after == nil || c.rtoCancel != nil || c.reaped || c.resetErr != nil {
		return
	}
	c.rtoGen++
	gen := c.rtoGen
	c.rtoStale = false
	c.rtoCancel = c.stack.after(c.stack.rto, func() { c.onRTO(gen) })
}

// cancelRTOLocked stops a pending timer. Its callback may already be on
// its way (the seam popped it before the cancel); onRTO finds no live
// timer of its generation and returns.
func (c *conn) cancelRTOLocked() {
	if c.rtoCancel != nil {
		c.rtoCancel()
		c.rtoCancel = nil
	}
}

// outstandingLocked reports whether the retransmit timer has work: wire
// state awaiting acknowledgement, or data queued behind a closed peer
// window (the persist timer's case).
func (c *conn) outstandingLocked() bool {
	return c.synSent || c.sndNxt > c.sndUna || (c.finSent && !c.finAcked) ||
		c.windowClosedLocked()
}

// windowClosedLocked reports data queued that the peer's window does not
// admit. The window update that would reopen it is a pure ACK, which
// nothing retransmits, so the sender must probe or risk waiting forever.
func (c *conn) windowClosedLocked() bool {
	return c.sndNxt < c.sndEnd && c.sndNxt+1 >= c.sndLimit
}

// onRTO fires on the timer goroutine: go back to the last acknowledged
// byte and replay. SYNs are replayed in place (handshake retransmit). With
// nothing in flight and the peer's window closed, it is the persist
// timer instead: the replay is a one-byte probe past the window edge,
// which the peer either accepts (its window update was lost) or drops
// and answers with its current window. A timer that progress made stale
// re-arms a full RTO instead, so a replay fires between one and two RTOs
// after the last ACK that moved anything.
func (c *conn) onRTO(gen uint64) {
	c.mu.Lock()
	if gen != c.rtoGen || c.rtoCancel == nil {
		// Cancelled or superseded: the live timer, if any, is not ours.
		c.mu.Unlock()
		return
	}
	c.rtoCancel = nil
	if c.reaped || c.resetErr != nil || !c.outstandingLocked() {
		c.mu.Unlock()
		return
	}
	if c.rtoStale {
		c.armRTOLocked()
		c.mu.Unlock()
		return
	}
	if c.synSent {
		c.retrans++
		c.stack.retrans.Add(1)
		g := c.synSegLocked()
		c.armRTOLocked()
		c.mu.Unlock()
		c.stack.emit(nil, g)
		return
	}
	if c.sndNxt > c.sndUna || (c.finSent && !c.finAcked) {
		c.retrans++
		c.stack.retrans.Add(1)
	}
	c.sndNxt = c.sndUna
	c.finSent = false
	c.probe = c.windowClosedLocked()
	c.armRTOLocked()
	c.mu.Unlock()
	c.pump(nil)
}

// --- transmission ---

// pump transmits whatever the window and the ring allow: data in MSS
// chunks, then the FIN once all data is out. The pumping election (see
// the field comment) keeps concurrent pumpers (writer task, softirq on
// ACK, retransmit timer) from interleaving submissions — without it
// go-back-N would see self-inflicted reordering.
func (c *conn) pump(t *sched.Task) {
	c.mu.Lock()
	if c.pumping {
		c.repump = true
		c.mu.Unlock()
		return
	}
	c.pumping = true
	for {
		if c.reaped || c.resetErr != nil || c.synSent {
			break
		}
		wireNxt := c.sndNxt + 1
		var frame []byte
		switch {
		case c.sndNxt < c.sndEnd && (wireNxt < c.sndLimit || c.probe):
			l := min(uint64(MSS), c.sndEnd-c.sndNxt)
			if wireNxt < c.sndLimit {
				l = min(l, c.sndLimit-wireNxt)
			} else {
				l = 1 // persist probe
			}
			c.probe = false
			frame = c.stack.framePool.Get()
			ringGet(c.sndBuf, c.sndNxt, frame[HdrSize:HdrSize+l])
			g := seg{
				flags:   flagACK,
				src:     c.local,
				dst:     c.remote,
				seq:     wireNxt,
				ack:     c.ackWireLocked(),
				wnd:     c.freeLocked(),
				payload: frame[HdrSize : HdrSize+l],
			}
			n := g.marshal(frame) // payload copy is onto itself
			frame = frame[:n]
			c.sndNxt += l
			c.armRTOLocked()
		case c.finQueued && !c.finSent && c.sndNxt == c.sndEnd:
			g := seg{
				flags: flagACK | flagFIN,
				src:   c.local,
				dst:   c.remote,
				seq:   c.finWire,
				ack:   c.ackWireLocked(),
				wnd:   c.freeLocked(),
			}
			frame = c.stack.framePool.Get()
			frame = frame[:g.marshal(frame)]
			c.finSent = true
			c.armRTOLocked()
		default:
			frame = nil
		}
		if frame == nil {
			// Data held back by a closed window arms the persist timer.
			if c.windowClosedLocked() {
				c.armRTOLocked()
			}
			// Nothing sendable right now; one more pass if someone asked
			// for a repump while we were off submitting.
			if c.repump {
				c.repump = false
				continue
			}
			break
		}
		dstHost := c.remote.Host
		c.mu.Unlock()
		c.stack.send(t, frame, dstHost)
		c.mu.Lock()
	}
	c.repump = false
	c.pumping = false
	c.mu.Unlock()
}

// --- input ---

// deliver runs one inbound segment through the state machine, emits any
// responses, pumps if the window moved, and reaps the conn if this
// segment finished tearing it down.
func (c *conn) deliver(g seg) {
	emits, pumpNeeded, reap := c.handleSeg(g)
	for i := range emits.n {
		c.stack.emit(nil, emits.segs[i])
	}
	if pumpNeeded {
		c.pump(nil)
	}
	if reap {
		c.stack.removeConn(c)
	}
}

// ctlSegs holds the control segments one inbound segment calls for — at
// most a SYN|ACK resend and an ACK — in place, so the per-segment path
// allocates nothing.
type ctlSegs struct {
	segs [2]seg
	n    int
}

func (e *ctlSegs) add(g seg) {
	e.segs[e.n] = g
	e.n++
}

// handleSeg applies one segment under the conn lock and returns control
// segments to emit after unlock.
func (c *conn) handleSeg(g seg) (emits ctlSegs, pumpNeeded, reap bool) {
	c.mu.Lock()
	if c.reaped {
		c.mu.Unlock()
		return emits, false, false
	}
	if g.flags&flagRST != 0 {
		if c.resetErr == nil {
			if c.synSent {
				c.resetErr = ErrConnRefused
			} else {
				c.resetErr = ErrConnReset
			}
		}
		c.cancelRTOLocked()
		reap = c.reapableLocked()
		c.mu.Unlock()
		c.rwq.WakeAll()
		c.wwq.WakeAll()
		c.cwq.WakeAll()
		return emits, false, reap
	}
	if c.resetErr != nil {
		c.mu.Unlock()
		return emits, false, false
	}

	needAck := false
	wakeReaders, wakeWriters, wakeConnect := false, false, false

	if g.flags&flagSYN != 0 {
		switch {
		case c.synSent && g.flags&flagACK != 0:
			// SYN|ACK: handshake complete.
			c.synSent = false
			c.cancelRTOLocked()
			if edge := g.ack + uint64(g.wnd); edge > c.sndLimit {
				c.sndLimit = edge
			}
			wakeConnect = true
			needAck = true
			pumpNeeded = true
		case c.server:
			// Duplicate SYN: our SYN|ACK was lost — resend it.
			emits.add(c.synAckSegLocked())
		default:
			// Duplicate SYN|ACK while established: re-acknowledge.
			needAck = true
		}
	}

	if g.flags&flagACK != 0 && !c.synSent {
		if edge := g.ack + uint64(g.wnd); edge > c.sndLimit {
			c.sndLimit = edge
			pumpNeeded = true
		}
		if g.ack >= 1 {
			acked := g.ack - 1
			if acked > c.sndEnd {
				acked = c.sndEnd
			}
			if c.finQueued && g.ack >= c.finWire+1 && !c.finAcked {
				c.finAcked = true
			}
			if acked > c.sndUna {
				c.sndUna = acked
				if c.sndNxt < c.sndUna {
					c.sndNxt = c.sndUna
				}
				wakeWriters = true
				pumpNeeded = true
			}
		}
		// A persist probe past the window edge that this ACK does not
		// cover was refused for want of room, not lost: rewind over it, so
		// the persist timer sends the next probe rather than go-back-N
		// counting a retransmission.
		if edge := c.sndLimit - 1; c.sndNxt > edge && edge >= c.sndUna {
			c.sndNxt = edge
		}
		// Restart the retransmit clock lazily: progress (new data
		// acknowledged or a wider window, both of which set pumpNeeded)
		// marks a running timer stale; with none running, arm one if
		// anything is outstanding. No clock is read here.
		if c.rtoCancel != nil {
			c.rtoStale = c.rtoStale || pumpNeeded
		} else if c.outstandingLocked() {
			c.armRTOLocked()
		}
	}

	if len(g.payload) > 0 && !c.synSent {
		l := uint64(len(g.payload))
		switch {
		case g.seq == c.rcvWr+1 && c.rcvWr+l-c.rcvRead <= RingSize && !c.peerFIN:
			// In order and it fits: the only acceptance go-back-N makes.
			ringPut(c.rcvBuf, c.rcvWr, g.payload)
			c.rcvWr += l
			wakeReaders = true
		default:
			// Duplicate, out of order, or overflow: drop; the ACK below
			// tells the sender where we really are.
		}
		needAck = true
	}

	if g.flags&flagFIN != 0 && !c.synSent {
		finSeq := g.seq + uint64(len(g.payload))
		if finSeq == c.rcvWr+1 && !c.peerFIN {
			c.peerFIN = true
			wakeReaders = true
		}
		needAck = true
	}

	if needAck {
		emits.add(c.ackSegLocked())
	}
	reap = c.reapableLocked()
	c.mu.Unlock()

	if wakeReaders {
		c.rwq.WakeAll()
	}
	if wakeWriters {
		c.wwq.WakeAll()
	}
	if wakeConnect {
		c.cwq.WakeAll()
	}
	return emits, pumpNeeded, reap
}

// reapableLocked: the OFD is gone and the wire has nothing left to say.
func (c *conn) reapableLocked() bool {
	return c.ofdClosed && !c.reaped &&
		(c.resetErr != nil || (c.finAcked && c.peerFIN))
}

// --- the blocking byte-stream face ---

// read copies buffered bytes out, blocking while the stream is open and
// empty. EOF (0, nil) after a peer FIN or a local shutdown(RD); a reset
// surfaces once the buffered data is drained.
func (c *conn) read(t *sched.Task, p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for {
		if t.Killed() {
			t.CheckPreempt() // unwinds
		}
		c.mu.Lock()
		if c.rdShut {
			c.mu.Unlock()
			return 0, nil
		}
		if avail := c.rcvWr - c.rcvRead; avail > 0 {
			n := len(p)
			if uint64(n) > avail {
				n = int(avail)
			}
			ringGet(c.rcvBuf, c.rcvRead, p[:n])
			c.rcvRead += uint64(n)
			// A reader draining a ring we advertised as full owes the
			// peer a window update, or its writer sleeps forever.
			var update seg
			sendUpdate := c.zeroWnd && c.resetErr == nil && !c.reaped
			if sendUpdate {
				update = c.ackSegLocked()
			}
			c.mu.Unlock()
			if sendUpdate {
				c.stack.emit(t, update)
			}
			return n, nil
		}
		if c.peerFIN {
			c.mu.Unlock()
			return 0, nil
		}
		if c.resetErr != nil {
			err := c.resetErr
			c.mu.Unlock()
			return 0, err
		}
		c.mu.Unlock()
		c.rwq.SleepUnless(t, func() bool {
			if t.Killed() {
				return true
			}
			c.mu.Lock()
			d := c.rcvWr > c.rcvRead || c.peerFIN || c.rdShut || c.resetErr != nil
			c.mu.Unlock()
			return d
		})
	}
}

// write queues bytes into the send ring (pumping as it goes), blocking
// while the ring is full. Writing after shutdown(WR), close, or a reset
// is ErrPipeClosed, the EPIPE analogue — after partial progress the
// short count is returned first, like pipes.
func (c *conn) write(t *sched.Task, p []byte) (int, error) {
	written := 0
	for written < len(p) {
		if t.Killed() {
			t.CheckPreempt() // unwinds
		}
		c.mu.Lock()
		if c.resetErr != nil || c.finQueued {
			c.mu.Unlock()
			if written > 0 {
				return written, nil
			}
			return 0, fs.ErrPipeClosed
		}
		if c.synSent {
			// Handshake still in flight (connect returned early only in
			// tests): wait for it below.
		} else if space := RingSize - (c.sndEnd - c.sndUna); space > 0 {
			n := len(p) - written
			if uint64(n) > space {
				n = int(space)
			}
			ringPut(c.sndBuf, c.sndEnd, p[written:written+n])
			c.sndEnd += uint64(n)
			c.mu.Unlock()
			written += n
			c.pump(t)
			continue
		}
		c.mu.Unlock()
		c.wwq.SleepUnless(t, func() bool {
			if t.Killed() {
				return true
			}
			c.mu.Lock()
			d := (!c.synSent && c.sndEnd-c.sndUna < RingSize) || c.finQueued || c.resetErr != nil
			c.mu.Unlock()
			return d
		})
	}
	return written, nil
}

// queueFIN ends the outbound stream (shutdown(WR) and close): the FIN
// takes the wire sequence just past the last queued byte and rides the
// normal pump/retransmit machinery.
func (c *conn) queueFIN(t *sched.Task) {
	c.mu.Lock()
	if c.finQueued || c.resetErr != nil || c.reaped {
		c.mu.Unlock()
		return
	}
	c.finQueued = true
	c.finWire = c.sndEnd + 1
	c.mu.Unlock()
	c.wwq.WakeAll() // blocked writers fail with ErrPipeClosed
	c.pump(t)
}

// shutRD ends the inbound stream locally: blocked and future reads
// return EOF. Nothing is said on the wire.
func (c *conn) shutRD() {
	c.mu.Lock()
	c.rdShut = true
	c.mu.Unlock()
	c.rwq.WakeAll()
}

// close is the OFD release: full shutdown plus reaping once the wire
// winds down (FIN acked and peer FIN seen, or reset).
func (c *conn) close(t *sched.Task) {
	c.mu.Lock()
	c.ofdClosed = true
	c.rdShut = true
	if c.synSent && c.resetErr == nil {
		// Close before the handshake finished: abort silently.
		c.resetErr = ErrConnReset
		c.cancelRTOLocked()
	}
	c.mu.Unlock()
	c.rwq.WakeAll()
	c.wwq.WakeAll()
	c.cwq.WakeAll()
	c.queueFIN(t)
	c.stack.removeConn(c)
}

// abort tears the conn down immediately with an RST to the peer — the
// listener-close path for never-accepted embryos.
func (c *conn) abort() {
	c.mu.Lock()
	if c.reaped || c.resetErr != nil {
		c.mu.Unlock()
		return
	}
	c.resetErr = ErrConnReset
	c.ofdClosed = true
	c.cancelRTOLocked()
	rst := seg{flags: flagRST, src: c.local, dst: c.remote}
	c.mu.Unlock()
	c.rwq.WakeAll()
	c.wwq.WakeAll()
	c.cwq.WakeAll()
	c.stack.emit(nil, rst)
	c.stack.removeConn(c)
}

// stateString renders the conn's TCP-ish state for /proc/net.
func (c *conn) stateString() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.resetErr != nil:
		return "RESET"
	case c.synSent:
		return "SYN_SENT"
	case c.finQueued && c.peerFIN && c.finAcked:
		return "CLOSED"
	case c.finQueued && c.peerFIN:
		return "LAST_ACK"
	case c.finQueued:
		return "FIN_WAIT"
	case c.peerFIN:
		return "CLOSE_WAIT"
	default:
		return "ESTABLISHED"
	}
}
