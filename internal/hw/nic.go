package hw

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// NIC ring and framing constants.
const (
	// NICMTU bounds one frame on the wire, header included. The network
	// stack sizes its segments to fit.
	NICMTU = 2048
	// NICTxRing bounds submitted-but-uncompleted TX descriptors. SubmitTX
	// refuses beyond it with ErrNICTxRingFull; the submitter waits for a
	// completion IRQ and retries, exactly like the SD card's queue depth.
	NICTxRing = 256
	// NICRxRing bounds frames delivered but not yet popped. Overflow
	// drops the frame (counted in Stats.RxDrops) — the receive ring of a
	// real controller under an unresponsive driver.
	NICRxRing = 4096
)

// NIC submission errors.
var (
	// ErrNICTxRingFull: every TX descriptor is in flight; pop completions
	// (wait for the IRQ) before submitting more.
	ErrNICTxRingFull = errors.New("nic: tx ring full")
	// ErrNICFrameTooBig: the frame exceeds NICMTU.
	ErrNICFrameTooBig = errors.New("nic: frame exceeds MTU")
	// ErrNICDown: the NIC (or its link) has been closed.
	ErrNICDown = errors.New("nic: interface down")
)

// NICStats counts ring activity for /proc/net and the tests.
type NICStats struct {
	TxFrames uint64
	TxBytes  uint64
	RxFrames uint64
	RxBytes  uint64
	RxDrops  uint64 // RX ring overflow: frame discarded
	TxIRQs   uint64 // completion interrupts raised (masked completions raise none)
	RxIRQs   uint64 // delivery interrupts raised
}

// nicCompletion is one finished TX descriptor awaiting collection.
type nicCompletion struct {
	tag uint64
	err error
}

// NIC models one half of a point-to-point Ethernet-ish device, mirroring
// the split submit/completion design of the SD card's DMA path:
//
//   - SubmitTX programs a TX descriptor and returns immediately. The
//     frame's bytes are latched at submit (the descriptor owns a copy of
//     the slice reference; callers hand ownership over and never reuse the
//     buffer). When the simulated wire accepts the frame, the descriptor
//     is freed, a completion record (tag, error) is queued and IRQNIC
//     fires.
//   - Received frames land in the RX ring; each delivery raises IRQNIC.
//     The IRQ handler drains both rings with PopTX/PopRX until empty —
//     one interrupt may cover several descriptors, as on real hardware.
//
// TX completions are interrupts on demand once the driver masks them
// (MaskTxIRQ, which net.NewStack programs at attach): a successful
// completion then only frees its descriptor, the way virtio-net's
// VRING_AVAIL_F_NO_INTERRUPT or e1000's per-descriptor RS bit leave
// completions to be reaped silently. A driver that needs one to wait
// for ring room gets it: a SubmitTX refused with ErrNICTxRingFull, or a
// TxRoom that answers false, arms the next completion, which is queued
// and raised. Error completions always are. Both rings pop by head
// index and reuse their backing arrays, so a driver that keeps up
// allocates nothing per frame.
//
// Two NICs cross-wired by NewLink form a full-duplex link with
// configurable per-direction latency and bandwidth; each direction is a
// FIFO wire (frames serialize in submit order and deliver in that order
// unless a NetFaultPlan says otherwise). On the instant wire (the zero
// LinkConfig, no fault plan) SubmitTX completes and delivers the frame
// before it returns, unless another submitter is already draining the
// direction; device goroutines exist only for a modelled wire or a
// fault plan (see linkDir).
type NIC struct {
	name string
	ic   *IRQController
	dir  *linkDir // outbound wire owned by this NIC

	mu       sync.Mutex
	notify   func() // completion signal when no IRQ controller is wired
	inflight int    // submitted TX descriptors not yet completed
	rxq      fifo[[]byte]
	txComp   fifo[nicCompletion]
	txMasked bool // driver register: successful completions raise nothing
	txArmed  bool // the next completion is queued and raised even if masked
	closed   bool
	stats    NICStats
}

// Name identifies the interface ("eth0", "peer0") in diagnostics.
func (n *NIC) Name() string { return n.name }

// SetNotify installs a completion signal for NICs without an IRQ
// controller (the test-harness / remote-host side of a link): it fires
// after every TX completion or RX delivery, in place of IRQNIC.
func (n *NIC) SetNotify(fn func()) {
	n.mu.Lock()
	n.notify = fn
	n.mu.Unlock()
}

// MaskTxIRQ programs the TX-completion interrupt mask: from now on a
// successful completion frees its descriptor but queues no record and
// raises no interrupt, unless a refused SubmitTX or a false TxRoom armed
// it. The driver sets it once at attach (net.NewStack); it stays set.
func (n *NIC) MaskTxIRQ() {
	n.mu.Lock()
	n.txMasked = true
	n.mu.Unlock()
}

// raise signals ring activity: IRQNIC when a controller is wired, the
// notify hook fn (read under n.mu by the caller) otherwise. Called with
// n.mu NOT held.
func (n *NIC) raise(fn func()) {
	if n.ic != nil {
		n.ic.Raise(IRQNIC)
	}
	if fn != nil {
		fn()
	}
}

// SubmitTX programs one TX descriptor and returns immediately; the frame
// travels the link and the completion (tag) is collected via PopTX after
// IRQNIC (under MaskTxIRQ, only for an armed or failed completion). The
// NIC takes ownership of the slice — callers must not touch it again (the
// wire delivers the very bytes to the peer's RX ring). A refusal with
// ErrNICTxRingFull arms the next completion before it returns, so a
// submitter that then waits for room is woken.
func (n *NIC) SubmitTX(tag uint64, frame []byte) error {
	if len(frame) > NICMTU {
		return ErrNICFrameTooBig
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrNICDown
	}
	if n.inflight >= NICTxRing {
		n.txArmed = true
		n.mu.Unlock()
		return ErrNICTxRingFull
	}
	n.inflight++
	n.stats.TxFrames++
	n.stats.TxBytes += uint64(len(frame))
	n.mu.Unlock()
	n.dir.submit(txFrame{tag: tag, data: frame, src: n})
	return nil
}

// completeTX frees the descriptor, then queues its completion and raises
// the IRQ unless the completion is masked: successful, with TX interrupts
// masked and none armed. The wire calls it once the frame has serialized
// onto the link.
func (n *NIC) completeTX(tag uint64, err error) {
	n.mu.Lock()
	n.inflight--
	if n.txMasked && !n.txArmed && err == nil {
		n.mu.Unlock()
		return
	}
	n.txArmed = false
	n.txComp.push(nicCompletion{tag: tag, err: err})
	n.stats.TxIRQs++
	fn := n.notify
	n.mu.Unlock()
	n.raise(fn)
}

// deliverRX lands a frame in the RX ring (wire side). A full ring drops
// the frame; recovery is the protocol layer's problem, as in real life.
func (n *NIC) deliverRX(frame []byte) {
	n.mu.Lock()
	if n.closed || n.rxq.len() >= NICRxRing {
		n.stats.RxDrops++
		n.mu.Unlock()
		return
	}
	n.rxq.push(frame)
	n.stats.RxFrames++
	n.stats.RxBytes += uint64(len(frame))
	n.stats.RxIRQs++
	fn := n.notify
	n.mu.Unlock()
	n.raise(fn)
}

// PopTX collects one finished TX descriptor (tag and error), FIFO. The
// IRQNIC handler drains this until ok is false.
func (n *NIC) PopTX() (tag uint64, err error, ok bool) {
	n.mu.Lock()
	c, ok := n.txComp.pop()
	n.mu.Unlock()
	return c.tag, c.err, ok
}

// PopRX collects one received frame, FIFO. The IRQNIC handler drains this
// until ok is false.
func (n *NIC) PopRX() (frame []byte, ok bool) {
	n.mu.Lock()
	f, ok := n.rxq.pop()
	n.mu.Unlock()
	return f, ok
}

// TxRoom reports whether a TX descriptor is free, so SubmitTX would not
// refuse with ErrNICTxRingFull. A task that found the ring full sleeps
// until this holds. A false answer arms the next completion, as a refused
// submit does: a sleeper that registers and then checks is woken even if
// another submitter took the room that the refusal's completion freed.
func (n *NIC) TxRoom() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	room := n.inflight < NICTxRing
	if !room {
		n.txArmed = true
	}
	return room
}

// RxQueued reports frames waiting in the RX ring (diagnostics).
func (n *NIC) RxQueued() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rxq.len()
}

// Stats snapshots the ring counters.
func (n *NIC) Stats() NICStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Close downs the interface: future submits fail, its outbound wire
// stops, queued RX frames are dropped. Closing both NICs of a link stops
// whatever wire goroutines a modelled or faulted link started.
func (n *NIC) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.rxq = fifo[[]byte]{}
	n.mu.Unlock()
	n.dir.close()
}

// fifo is a queue that pops by head index and reuses its backing array:
// it rewinds to the front whenever it empties, and a push that finds the
// array full compacts it instead of growing it once at least half is
// consumed. A queue drained as fast as it fills stops allocating after
// warm-up, and a compaction copies no more elements than the pops that
// made room for it.
type fifo[T any] struct {
	buf  []T // buf[head:] is queued
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() (v T, ok bool) {
	if q.head == len(q.buf) {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v, true
}

// LinkConfig shapes a full-duplex link. The zero value is an instant,
// infinite-bandwidth wire that delivers in the submitter (the kernel's
// board link and most tests); a non-zero field runs the device pipeline.
type LinkConfig struct {
	// LatencyAB / LatencyBA delay delivery per direction (propagation
	// time; overlaps with serialization of later frames).
	LatencyAB, LatencyBA time.Duration
	// BandwidthAB / BandwidthBA serialize frames at bytes/second per
	// direction (0 = infinite). Serialization occupies the wire: frames
	// queue behind each other, which is what makes fan-out bandwidth real.
	BandwidthAB, BandwidthBA int
}

// NewLink mints two cross-wired NICs: a's transmissions deliver to b's RX
// ring and vice versa. Either IRQ controller may be nil (use SetNotify on
// that side). Frames per direction are FIFO unless a NetFaultPlan
// reorders them.
func NewLink(nameA, nameB string, icA, icB *IRQController, cfg LinkConfig) (a, b *NIC) {
	a = &NIC{name: nameA, ic: icA}
	b = &NIC{name: nameB, ic: icB}
	a.dir = newLinkDir(fmt.Sprintf("%s->%s", nameA, nameB), b, cfg.LatencyAB, cfg.BandwidthAB)
	b.dir = newLinkDir(fmt.Sprintf("%s->%s", nameB, nameA), a, cfg.LatencyBA, cfg.BandwidthBA)
	return a, b
}

// txFrame is one frame in flight on a wire.
type txFrame struct {
	tag  uint64
	data []byte
	src  *NIC
}

// linkDir is one direction of a link: a FIFO wire with serialization
// (bandwidth) and propagation (latency) stages.
//
// The instant wire — zero latency, unlimited bandwidth, no fault plan,
// the only shape the kernel boots — has no stage to model, so submit
// delivers in the submitter: it queues the frame and drains the queue
// itself unless another goroutine already is (the single-drainer
// discipline of the stack's loopback queue). The drainer takes the queue
// under mu and calls completeTX and deliverRX with mu dropped, so a
// notify or IRQ handler that transmits on this very direction only
// enqueues: it cannot deadlock, and frames cannot overtake each other.
//
// A modelled wire (latency or bandwidth) or a NetFaultPlan runs the
// pipeline instead: two goroutines, started on first need. The serializer
// occupies the wire per frame and completes the TX descriptor; the
// deliverer sleeps out the propagation delay in FIFO order so a long
// latency never reorders frames, then lands each frame in the peer's RX
// ring. The fault plan sits between the stages. The pipeline starts only
// while no inline drain runs — a drainer that finds a plan installed
// hands its remainder to the pipeline — so FIFO holds across the switch.
type linkDir struct {
	name    string
	dst     *NIC
	latency time.Duration
	bytesNS float64 // nanoseconds per byte (0 = infinite bandwidth)

	mu       sync.Mutex
	queue    []txFrame
	cond     *sync.Cond
	closed   bool
	started  bool      // pipeline goroutines running; the inline path is off for good
	draining bool      // an inline drain owns the queue
	spare    []txFrame // the drainer's other queue buffer
	faults   *netFaultState

	deliver chan delivery
}

// delivery is a frame past serialization, stamped with its arrival time.
// stop is the pipeline-shutdown sentinel: the channel is never closed
// (the fault layer's delayed flush may still send after link close; a
// late frame parks harmlessly in the buffer instead of panicking).
type delivery struct {
	data []byte
	at   time.Time
	stop bool
}

func newLinkDir(name string, dst *NIC, latency time.Duration, bandwidth int) *linkDir {
	d := &linkDir{name: name, dst: dst, latency: latency}
	if bandwidth > 0 {
		d.bytesNS = float64(time.Second) / float64(bandwidth)
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// instantLocked reports whether frames may skip the pipeline: nothing to
// model on the wire, no fault plan, pipeline never started.
func (d *linkDir) instantLocked() bool {
	return !d.started && d.latency == 0 && d.bytesNS == 0 && d.faults == nil
}

// startLocked launches the pipeline goroutines (once). Called with mu
// held and no inline drain running.
func (d *linkDir) startLocked() {
	if d.started {
		return
	}
	d.started = true
	d.deliver = make(chan delivery, NICRxRing)
	go d.serialize()
	go d.propagate()
}

// submit queues a frame for the wire. On the instant wire the first
// submitter to find no drain running becomes the drainer; otherwise the
// pipeline takes the frame (links in NIC-less tests start no goroutine
// until touched).
func (d *linkDir) submit(f txFrame) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		f.src.completeTX(f.tag, ErrNICDown)
		return
	}
	d.queue = append(d.queue, f)
	if d.draining {
		// The running drainer delivers it, or hands it to the pipeline.
		d.mu.Unlock()
		return
	}
	if !d.instantLocked() {
		d.startLocked()
		d.mu.Unlock()
		d.cond.Signal()
		return
	}
	d.draining = true
	for len(d.queue) > 0 && !d.closed && d.instantLocked() {
		// Take the whole queue; submits made meanwhile (a handler
		// transmitting from inside deliverRX) land in the spare.
		batch := d.queue
		d.queue = d.spare
		d.mu.Unlock()
		for i := range batch {
			f := batch[i]
			batch[i] = txFrame{}
			f.src.completeTX(f.tag, nil)
			d.dst.deliverRX(f.data)
		}
		d.mu.Lock()
		d.spare = batch[:0]
	}
	d.draining = false
	if len(d.queue) == 0 {
		d.mu.Unlock()
		return
	}
	if d.closed {
		rest := d.queue
		d.queue = nil
		d.mu.Unlock()
		for _, r := range rest {
			r.src.completeTX(r.tag, ErrNICDown)
		}
		return
	}
	// A fault plan arrived mid-drain: the pipeline takes the remainder,
	// behind everything already delivered.
	d.startLocked()
	d.mu.Unlock()
	d.cond.Signal()
}

func (d *linkDir) close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cond.Broadcast()
}

// serialize is the wire-occupancy stage: one frame at a time, in submit
// order, each charged its serialization time. Completion of the TX
// descriptor fires here — the DMA engine has read the buffer.
func (d *linkDir) serialize() {
	for {
		d.mu.Lock()
		for len(d.queue) == 0 && !d.closed {
			d.cond.Wait()
		}
		if d.closed {
			// Fail whatever is still queued, then stop the pipeline.
			rest := d.queue
			d.queue = nil
			d.mu.Unlock()
			for _, f := range rest {
				f.src.completeTX(f.tag, ErrNICDown)
			}
			d.deliver <- delivery{stop: true}
			return
		}
		f := d.queue[0]
		d.queue = d.queue[1:]
		fp := d.faults
		d.mu.Unlock()

		if d.bytesNS > 0 {
			time.Sleep(time.Duration(d.bytesNS * float64(len(f.data))))
		}
		f.src.completeTX(f.tag, nil)
		if fp != nil {
			fp.emit(f.data, d.deliver)
		} else {
			d.deliver <- delivery{data: f.data, at: time.Now().Add(d.latency)}
		}
	}
}

// propagate is the latency stage: frames sleep until their arrival time
// in FIFO order (arrival times are monotonic for a fixed latency, and a
// fault-plan latency spike delays everything behind it — spikes never
// reorder).
func (d *linkDir) propagate() {
	for dl := range d.deliver {
		if dl.stop {
			return
		}
		if wait := time.Until(dl.at); wait > 0 {
			time.Sleep(wait)
		}
		d.dst.deliverRX(dl.data)
	}
}
