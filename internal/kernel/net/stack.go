package net

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"protosim/internal/hw"
	"protosim/internal/kernel/bufpool"
	"protosim/internal/kernel/ktime"
	"protosim/internal/kernel/sched"
)

// Transport errors.
var (
	// ErrConnRefused: the peer answered the SYN with a RST (no listener,
	// or its backlog was full).
	ErrConnRefused = errors.New("net: connection refused")
	// ErrConnReset: the peer reset an established connection.
	ErrConnReset = errors.New("net: connection reset by peer")
	// ErrAddrInUse: the requested port already has a listener or
	// connection on it.
	ErrAddrInUse = errors.New("net: address already in use")
	// ErrNotConn: stream IO on a socket with no connection.
	ErrNotConn = errors.New("net: socket is not connected")
	// ErrIsConn: connect/bind/listen on a socket already past that state.
	ErrIsConn = errors.New("net: socket is already connected")
	// ErrNotListening: accept on a socket that isn't a listener.
	ErrNotListening = errors.New("net: socket is not listening")
	// ErrListenerClosed: accept woke because the listener was closed.
	ErrListenerClosed = errors.New("net: listener closed")
	// ErrNoPorts: the ephemeral port range is exhausted.
	ErrNoPorts = errors.New("net: no free ephemeral ports")
)

// ephemeralBase is the first auto-assigned local port for connect.
const ephemeralBase = 32768

// defaultRTO is the retransmit timeout when Options wires the After seam
// without choosing one. Link latencies in tests are sub-millisecond, so
// 20ms is lazy enough to stay quiet on a clean link and fast enough to
// converge under heavy fault plans.
const defaultRTO = 20 * time.Millisecond

// Options configures a Stack.
type Options struct {
	// After is the retransmit-timer seam: schedule fn after d and return
	// a cancel function. nil disables retransmission entirely — correct
	// on a loss-free link, and what most unit tests want (no timers, no
	// nondeterminism). The kernel passes its virtual timers; host-side
	// stacks pass ktime.HostAfter.
	After ktime.AfterFunc
	// RTO overrides the retransmit timeout (default 20ms).
	RTO time.Duration
}

// StackStats is a snapshot of stack-wide counters.
type StackStats struct {
	SegsIn   uint64 // segments accepted from the wire (including loopback)
	SegsOut  uint64 // segments emitted
	BadSegs  uint64 // frames that failed to parse or were misaddressed
	RstsOut  uint64 // RSTs emitted at segments with no home
	Retrans  uint64 // go-back-N replays (data and SYN)
	Accepted uint64 // connections minted by listeners
}

// Stack is one host's transport state: the connection and listener
// tables, the NIC (optional — a nil NIC makes a loopback-only stack),
// and the softirq goroutine that turns NIC interrupts into protocol
// work.
type Stack struct {
	name string
	host uint16
	nic  *hw.NIC

	after ktime.AfterFunc
	rto   time.Duration

	framePool *bufpool.Pool // hw.NICMTU frames, shared across stacks
	ringPool  *bufpool.Pool // RingSize conn rings, shared with nobody else's size class

	mu        sync.Mutex
	conns     map[connKey]*conn
	listeners map[uint16]*listener
	portUse   map[uint16]int // refs per local port: one per listener + one per conn
	nextEphem uint16
	closed    bool

	txWait sched.WaitQueue // tasks blocked on a full NIC TX ring
	tag    atomic.Uint64   // NIC submission tags (debug identity only)

	kick chan struct{}
	stop chan struct{}

	// loopq is the loopback path: segments a stack sends to itself. A
	// single non-reentrant drainer keeps delivery FIFO and bounds stack
	// depth (send → input → send → ... would otherwise recurse). It walks
	// the queue by index and rewinds it once empty, so the backing array
	// is reused.
	loopMu  sync.Mutex
	loopq   [][]byte
	looping bool

	segsIn   atomic.Uint64
	segsOut  atomic.Uint64
	badSegs  atomic.Uint64
	rstsOut  atomic.Uint64
	retrans  atomic.Uint64
	accepted atomic.Uint64
}

// NewStack builds a stack for host addr `host` over nic (nil for
// loopback-only). The caller wires delivery: either register IRQNIC with
// the IRQ controller routing to s.IRQ, or nic.SetNotify(s.IRQ). The stack
// masks the NIC's TX-completion interrupts: it reaps completions only to
// wake tasks waiting for ring room, and send arms the one it needs.
func NewStack(name string, host uint16, nic *hw.NIC, opts Options) *Stack {
	rto := opts.RTO
	if rto <= 0 {
		rto = defaultRTO
	}
	s := &Stack{
		name:      name,
		host:      host,
		nic:       nic,
		after:     opts.After,
		rto:       rto,
		framePool: bufpool.Shared(hw.NICMTU),
		ringPool:  bufpool.Shared(RingSize),
		conns:     make(map[connKey]*conn),
		listeners: make(map[uint16]*listener),
		portUse:   make(map[uint16]int),
		nextEphem: ephemeralBase,
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	if nic != nil {
		nic.MaskTxIRQ()
		go s.softirq()
	}
	return s
}

// Host returns the stack's host address.
func (s *Stack) Host() uint16 { return s.host }

// Stats snapshots the stack-wide counters.
func (s *Stack) Stats() StackStats {
	return StackStats{
		SegsIn:   s.segsIn.Load(),
		SegsOut:  s.segsOut.Load(),
		BadSegs:  s.badSegs.Load(),
		RstsOut:  s.rstsOut.Load(),
		Retrans:  s.retrans.Load(),
		Accepted: s.accepted.Load(),
	}
}

// IRQ is the interrupt hook: register it as the IRQNIC handler (or the
// NIC notify fn). It only kicks the softirq goroutine — never blocks,
// never does protocol work, safe from any goroutine.
func (s *Stack) IRQ() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Close stops the softirq goroutine and aborts every conn and listener.
// The NIC itself belongs to the machine and is closed separately.
func (s *Stack) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]*conn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	ls := make([]*listener, 0, len(s.listeners))
	for _, l := range s.listeners {
		ls = append(ls, l)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.close()
	}
	for _, c := range conns {
		c.abort()
	}
	close(s.stop)
}

// softirq is the NAPI-style bottom half: woken by IRQ(), it drains TX
// completions (armed ones, freeing writers blocked on a full ring) and
// then runs every received frame through the protocol. All protocol work
// happens here or on syscall tasks — never on the device goroutines.
func (s *Stack) softirq() {
	for {
		select {
		case <-s.kick:
		case <-s.stop:
			return
		}
		s.drainNIC()
	}
}

func (s *Stack) drainNIC() {
	if _, _, ok := s.nic.PopTX(); ok {
		for {
			if _, _, ok := s.nic.PopTX(); !ok {
				break
			}
		}
		s.txWait.WakeAll()
	}
	for {
		frame, ok := s.nic.PopRX()
		if !ok {
			return
		}
		s.input(frame)
	}
}

// send transmits one marshalled frame: loopback when the destination is
// this host (or the stack has no NIC), otherwise the NIC TX ring,
// sleeping on txWait when the ring is full. TX-completion interrupts are
// masked, but the refused submit and a TxRoom that answers false each arm
// the next one, and a task registers on txWait before that re-check: the
// softirq's WakeAll after the armed completion finds it on the queue, or
// the re-check finds the room. Tasks sleep. The softirq and timer
// goroutines (t == nil) poll with runtime.Gosched instead, the kernel's
// one wait that does not sleep on a queue: txWait's waker is the softirq
// goroutine itself, which may be the caller, and a sleep there would
// never be woken. The poll stays finite because the NIC frees ring slots
// at serialization time, not at completion-drain time. Running bottom
// halves on the simulated cores, with a task for every caller, removes
// it.
func (s *Stack) send(t *sched.Task, frame []byte, dstHost uint16) {
	s.segsOut.Add(1)
	if s.nic == nil || dstHost == s.host {
		s.loopback(frame)
		return
	}
	for {
		err := s.nic.SubmitTX(s.tag.Add(1), frame)
		switch {
		case err == nil:
			return
		case errors.Is(err, hw.ErrNICTxRingFull):
			if t == nil {
				runtime.Gosched()
				continue
			}
			if t.Killed() {
				// A killed task must not park uninterruptibly here;
				// drop the frame — retransmission (or the peer's RST
				// handling) owns recovery.
				return
			}
			s.txWait.SleepUnless(t, s.nic.TxRoom)
		default:
			// NIC down: drop. Conns wind down via resets/timeouts.
			return
		}
	}
}

// emit marshals a control segment into a pooled frame and sends it.
func (s *Stack) emit(t *sched.Task, g seg) {
	frame := s.framePool.Get()
	frame = frame[:g.marshal(frame)]
	s.send(t, frame, g.dst.Host)
}

// loopback queues a frame to ourselves and drains the queue unless
// another goroutine already is. The single-drainer discipline keeps
// loopback FIFO and prevents input→send→input recursion from nesting
// conn locks across connections.
func (s *Stack) loopback(frame []byte) {
	s.loopMu.Lock()
	s.loopq = append(s.loopq, frame)
	if s.looping {
		s.loopMu.Unlock()
		return
	}
	s.looping = true
	for i := 0; i < len(s.loopq); i++ {
		f := s.loopq[i]
		s.loopq[i] = nil
		s.loopMu.Unlock()
		s.input(f)
		s.loopMu.Lock()
	}
	s.loopq = s.loopq[:0]
	s.looping = false
	s.loopMu.Unlock()
}

// input dispatches one received frame: an existing conn, a listener
// (SYN), or a RST back at the sender. The frame is recycled afterwards —
// handleSeg copies payload bytes into the receive ring, so nothing
// aliases the frame once dispatch returns.
func (s *Stack) input(frame []byte) {
	g, ok := parseSeg(frame)
	if !ok || g.dst.Host != s.host {
		s.badSegs.Add(1)
		s.recycle(frame)
		return
	}
	s.segsIn.Add(1)
	key := connKey{localPort: g.dst.Port, remoteHost: g.src.Host, remotePort: g.src.Port}
	s.mu.Lock()
	c := s.conns[key]
	var l *listener
	if c == nil {
		l = s.listeners[g.dst.Port]
	}
	s.mu.Unlock()
	switch {
	case c != nil:
		c.deliver(g)
	case l != nil && g.flags&flagSYN != 0 && g.flags&flagACK == 0:
		s.handleSYN(l, g)
	case g.flags&flagRST != 0:
		// A RST aimed at nothing: drop silently (never RST a RST).
	default:
		s.emitRST(g)
	}
	s.recycle(frame)
}

// recycle returns a frame to the shared pool if it is pool-shaped. The
// fault layer's duplicated frames are exact-length copies and fall
// through — only true pool buffers (cap == hw.NICMTU) go back.
func (s *Stack) recycle(frame []byte) {
	if cap(frame) == hw.NICMTU {
		s.framePool.Put(frame[:hw.NICMTU])
	}
}

// emitRST answers a segment that reached no conn and no listener.
func (s *Stack) emitRST(g seg) {
	s.rstsOut.Add(1)
	s.emit(nil, seg{
		flags: flagRST,
		src:   g.dst,
		dst:   g.src,
		seq:   g.ack,
		ack:   g.seq + uint64(len(g.payload)),
	})
}

// handleSYN mints an embryo conn for a listener. The conn enters the
// table before the backlog check so a duplicate SYN arriving on another
// goroutine finds it rather than minting a twin.
func (s *Stack) handleSYN(l *listener, g seg) {
	local := Addr{Host: s.host, Port: g.dst.Port}
	c := newConn(s, local, g.src, true)
	c.mu.Lock()
	c.sndLimit = 1 + uint64(g.wnd) // SYN carries the client's opening window
	c.mu.Unlock()

	s.mu.Lock()
	if exist := s.conns[c.key()]; exist != nil {
		s.mu.Unlock()
		s.releaseRings(c)
		exist.deliver(g) // duplicate SYN: the existing conn re-SYN|ACKs
		return
	}
	s.conns[c.key()] = c
	s.portUse[c.local.Port]++
	s.mu.Unlock()

	if !l.enqueue(c) {
		s.removeEmbryo(c)
		s.emitRST(g)
		return
	}
	s.accepted.Add(1)
	c.mu.Lock()
	sa := c.synAckSegLocked()
	c.mu.Unlock()
	s.emit(nil, sa)
}

// removeEmbryo evicts a conn that never reached a backlog (closed or
// full listener): mark it dead and pull it from the table.
func (s *Stack) removeEmbryo(c *conn) {
	c.mu.Lock()
	c.resetErr = ErrConnReset
	c.ofdClosed = true
	c.mu.Unlock()
	s.removeConn(c)
}

// removeConn reaps a conn whose teardown is complete: returns its rings
// to the pool and drops it from the table. Safe to call repeatedly; only
// the first effective call does work. Lock order: conn.mu fully released
// before stack.mu.
func (s *Stack) removeConn(c *conn) {
	c.mu.Lock()
	if !c.reapableLocked() {
		c.mu.Unlock()
		return
	}
	c.reaped = true
	c.cancelRTOLocked()
	c.mu.Unlock()
	s.releaseRings(c)

	s.mu.Lock()
	if s.conns[c.key()] == c {
		delete(s.conns, c.key())
		s.releasePortLocked(c.local.Port)
	}
	s.mu.Unlock()
}

func (s *Stack) releaseRings(c *conn) {
	c.mu.Lock()
	snd, rcv := c.sndBuf, c.rcvBuf
	c.sndBuf, c.rcvBuf = nil, nil
	c.mu.Unlock()
	if snd != nil {
		s.ringPool.Put(snd)
	}
	if rcv != nil {
		s.ringPool.Put(rcv)
	}
}

func (s *Stack) releasePortLocked(port uint16) {
	if n := s.portUse[port]; n <= 1 {
		delete(s.portUse, port)
	} else {
		s.portUse[port] = n - 1
	}
}

// --- binding, listening, connecting ---

// reservePort claims an explicit local port (bind). Port 0 is "any".
func (s *Stack) reservePort(port uint16) (uint16, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if port == 0 {
		return s.allocEphemeralLocked()
	}
	if s.portUse[port] > 0 {
		return 0, ErrAddrInUse
	}
	s.portUse[port] = 1
	return port, nil
}

func (s *Stack) allocEphemeralLocked() (uint16, error) {
	for i := 0; i < 1<<15; i++ {
		p := s.nextEphem
		s.nextEphem++
		if s.nextEphem == 0 {
			s.nextEphem = ephemeralBase
		}
		if p >= ephemeralBase && s.portUse[p] == 0 {
			s.portUse[p] = 1
			return p, nil
		}
	}
	return 0, ErrNoPorts
}

// releasePort drops one reference on a local port (close of a bound but
// never-listening socket, or a failed connect cleanup).
func (s *Stack) releasePort(port uint16) {
	s.mu.Lock()
	s.releasePortLocked(port)
	s.mu.Unlock()
}

// listen installs a listener on an already-reserved port.
func (s *Stack) listen(port uint16, backlog int) (*listener, error) {
	if backlog < 1 {
		backlog = 1
	}
	l := &listener{stack: s, port: port, backlog: backlog}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listeners[port] != nil {
		return nil, ErrAddrInUse
	}
	s.listeners[port] = l
	return l, nil
}

// connect dials remote from an already-reserved local port, blocking
// until the handshake completes or is refused. The conn is inserted in
// the table before the SYN leaves so the SYN|ACK finds it.
func (s *Stack) connect(t *sched.Task, localPort uint16, remote Addr) (*conn, error) {
	local := Addr{Host: s.host, Port: localPort}
	c := newConn(s, local, remote, false)
	c.synSent = true

	s.mu.Lock()
	if s.conns[c.key()] != nil {
		s.mu.Unlock()
		s.releaseRings(c)
		return nil, ErrAddrInUse
	}
	s.conns[c.key()] = c
	s.portUse[localPort]++ // the conn's own ref, alongside the bind ref the socket holds
	s.mu.Unlock()

	c.mu.Lock()
	g := c.synSegLocked()
	c.armRTOLocked()
	c.mu.Unlock()
	s.emit(t, g)

	for {
		if t.Killed() {
			t.CheckPreempt() // unwinds
		}
		c.mu.Lock()
		if c.resetErr != nil {
			err := c.resetErr
			c.ofdClosed = true // make the dead conn reapable, then evict it
			c.mu.Unlock()
			s.removeConn(c)
			return nil, err
		}
		if !c.synSent {
			c.mu.Unlock()
			return c, nil
		}
		c.mu.Unlock()
		c.cwq.SleepUnless(t, func() bool {
			if t.Killed() {
				return true
			}
			c.mu.Lock()
			d := !c.synSent || c.resetErr != nil
			c.mu.Unlock()
			return d
		})
	}
}

// --- listener ---

// listener is one passive port: a bounded backlog of handshake-complete
// conns awaiting accept.
type listener struct {
	stack   *Stack
	port    uint16
	backlog int

	mu     sync.Mutex
	q      []*conn
	closed bool
	wq     sched.WaitQueue
}

// enqueue adds an embryo to the backlog; false when closed or full.
func (l *listener) enqueue(c *conn) bool {
	l.mu.Lock()
	if l.closed || len(l.q) >= l.backlog {
		l.mu.Unlock()
		return false
	}
	l.q = append(l.q, c)
	l.mu.Unlock()
	l.wq.WakeAll()
	return true
}

// accept blocks for the next handshake-complete conn.
func (l *listener) accept(t *sched.Task) (*conn, error) {
	for {
		if t.Killed() {
			t.CheckPreempt() // unwinds
		}
		l.mu.Lock()
		if len(l.q) > 0 {
			c := l.q[0]
			l.q = l.q[1:]
			l.mu.Unlock()
			return c, nil
		}
		if l.closed {
			l.mu.Unlock()
			return nil, ErrListenerClosed
		}
		l.mu.Unlock()
		l.wq.SleepUnless(t, func() bool {
			if t.Killed() {
				return true
			}
			l.mu.Lock()
			d := len(l.q) > 0 || l.closed
			l.mu.Unlock()
			return d
		})
	}
}

// close shuts the listener: pending accepts fail, queued embryos are
// reset (their peers see ErrConnReset), and the port reference drops.
func (l *listener) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	q := l.q
	l.q = nil
	l.mu.Unlock()
	l.wq.WakeAll()
	for _, c := range q {
		c.abort()
	}
	s := l.stack
	s.mu.Lock()
	if s.listeners[l.port] == l {
		delete(s.listeners, l.port)
		s.releasePortLocked(l.port)
	}
	s.mu.Unlock()
}

// --- /proc/net ---

// ProcText renders the stack for /proc/net: one listener line and one
// conn line each, with states, sequence space, and ring occupancy.
func (s *Stack) ProcText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stack %s host %d\n", s.name, s.host)
	st := s.Stats()
	fmt.Fprintf(&b, "  segs in %d out %d bad %d rst %d retrans %d accepted %d\n",
		st.SegsIn, st.SegsOut, st.BadSegs, st.RstsOut, st.Retrans, st.Accepted)
	if s.nic != nil {
		ns := s.nic.Stats()
		fmt.Fprintf(&b, "  nic tx %d frames %d bytes, rx %d frames %d bytes, rxdrops %d\n",
			ns.TxFrames, ns.TxBytes, ns.RxFrames, ns.RxBytes, ns.RxDrops)
	}

	s.mu.Lock()
	ls := make([]*listener, 0, len(s.listeners))
	for _, l := range s.listeners {
		ls = append(ls, l)
	}
	cs := make([]*conn, 0, len(s.conns))
	for _, c := range s.conns {
		cs = append(cs, c)
	}
	s.mu.Unlock()

	sort.Slice(ls, func(i, j int) bool { return ls[i].port < ls[j].port })
	for _, l := range ls {
		l.mu.Lock()
		fmt.Fprintf(&b, "  LISTEN %d:%d backlog %d/%d\n", s.host, l.port, len(l.q), l.backlog)
		l.mu.Unlock()
	}

	sort.Slice(cs, func(i, j int) bool {
		a, z := cs[i], cs[j]
		if a.local.Port != z.local.Port {
			return a.local.Port < z.local.Port
		}
		if a.remote.Host != z.remote.Host {
			return a.remote.Host < z.remote.Host
		}
		return a.remote.Port < z.remote.Port
	})
	for _, c := range cs {
		state := c.stateString()
		c.mu.Lock()
		fmt.Fprintf(&b, "  %s %s -> %s snd %d/%d/%d rcv %d/%d sndq %d rcvq %d retrans %d\n",
			state, c.local, c.remote,
			c.sndUna, c.sndNxt, c.sndEnd, c.rcvRead, c.rcvWr,
			c.sndEnd-c.sndUna, c.rcvWr-c.rcvRead, c.retrans)
		c.mu.Unlock()
	}
	return b.String()
}
