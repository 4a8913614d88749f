package hw

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// NetFaultPlan is the NIC member of the FaultPlan family: a seeded,
// replayable schedule of link misbehaviour. It wraps ONE direction of a
// link (install with NIC.SetFaults on the transmitting side) and draws
// every decision from one rand.Rand seeded with Seed in frame-
// serialization order, so the same frame sequence sees the same faults
// on every run.
//
// Unlike FaultPlan this never surfaces an error to the submitter: frames
// are dropped, duplicated, reordered or delayed silently — the ROADMAP's
// "latency spikes without errors" item, applied where it bites hardest.
// Recovering is the protocol layer's job. Probabilities are per frame;
// zero values inject nothing.
type NetFaultPlan struct {
	// Seed drives every random decision.
	Seed int64
	// PDrop discards the frame after TX completion (the wire ate it).
	PDrop float64
	// PDup delivers the frame twice back to back.
	PDup float64
	// PReorder holds the frame back and re-inserts it after the next
	// ReorderWindow frames have passed (or after a flush timeout if the
	// direction goes quiet, so a held frame is late, never lost).
	PReorder float64
	// ReorderWindow bounds how many frames overtake a held one
	// (default 4).
	ReorderWindow int
	// PLatency delays the frame's arrival by LatencySpike (default 2ms).
	// Later frames queue behind it — a spike delays, it never reorders.
	PLatency     float64
	LatencySpike time.Duration
}

func (p NetFaultPlan) withDefaults() NetFaultPlan {
	if p.ReorderWindow <= 0 {
		p.ReorderWindow = 4
	}
	if p.LatencySpike <= 0 {
		p.LatencySpike = 2 * time.Millisecond
	}
	return p
}

// String prints the knobs that matter for replaying a fuzz failure.
func (p NetFaultPlan) String() string {
	return fmt.Sprintf("netplan{seed=%d drop=%.3f dup=%.3f reorder=%.3f/%d latency=%.3f}",
		p.Seed, p.PDrop, p.PDup, p.PReorder, p.ReorderWindow, p.PLatency)
}

// RandomNetPlan derives a full plan from one seed, like RandomPlan: a
// single integer names the whole misbehaviour schedule (NET_SEED=n
// replays it).
func RandomNetPlan(seed int64) NetFaultPlan {
	rng := rand.New(rand.NewSource(seed))
	return NetFaultPlan{
		Seed:          seed,
		PDrop:         rng.Float64() * 0.05,
		PDup:          rng.Float64() * 0.03,
		PReorder:      rng.Float64() * 0.05,
		ReorderWindow: 1 + rng.Intn(8),
		PLatency:      rng.Float64() * 0.02,
	}
}

// NetFaultStats counts what a plan actually injected.
type NetFaultStats struct {
	Frames   int // frames that reached the fault layer
	Drops    int
	Dups     int
	Reorders int
	Latency  int
}

// netFaultFlush bounds how long a reorder-held frame waits for overtaking
// traffic before it is released anyway.
const netFaultFlush = 10 * time.Millisecond

// netFaultState sits between a linkDir's serialization and propagation
// stages, deciding each frame's fate in serialization order.
type netFaultState struct {
	plan    NetFaultPlan
	latency time.Duration // the direction's base propagation delay

	mu       sync.Mutex
	rng      *rand.Rand
	held     []byte // reorder: the frame waiting to be overtaken
	heldLeft int    // frames still to pass before release
	heldSeq  uint64 // identity of the current hold, for the flush timer
	stats    NetFaultStats
}

// SetFaults installs plan on the NIC's OUTBOUND direction (frames this
// NIC transmits). Wrap both NICs of a link to fault both directions.
// Frames submitted after it returns run the device pipeline and meet the
// plan; on an instant wire that was delivering inline the pipeline takes
// over behind the frames already queued, in FIFO order. Install once: the
// plan cannot be swapped mid-stream.
func (n *NIC) SetFaults(plan NetFaultPlan) {
	plan = plan.withDefaults()
	d := n.dir
	d.mu.Lock()
	d.faults = &netFaultState{
		plan:    plan,
		latency: d.latency,
		rng:     rand.New(rand.NewSource(plan.Seed)),
	}
	d.mu.Unlock()
}

// FaultStats snapshots the injection counters of the NIC's outbound
// fault plan (zero value if SetFaults was never called).
func (n *NIC) FaultStats() NetFaultStats {
	n.dir.mu.Lock()
	s := n.dir.faults
	n.dir.mu.Unlock()
	if s == nil {
		return NetFaultStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// emit decides one serialized frame's fate and forwards the survivors to
// the propagation stage. Called from the direction's serializer, one
// frame at a time.
func (s *netFaultState) emit(frame []byte, out chan<- delivery) {
	s.mu.Lock()
	s.stats.Frames++
	lat := s.latency
	if s.plan.PLatency > 0 && s.rng.Float64() < s.plan.PLatency {
		s.stats.Latency++
		lat += s.plan.LatencySpike
	}
	var sends [][]byte
	switch {
	case s.plan.PDrop > 0 && s.rng.Float64() < s.plan.PDrop:
		s.stats.Drops++
	case s.plan.PDup > 0 && s.rng.Float64() < s.plan.PDup:
		s.stats.Dups++
		// The duplicate is a deep copy: receivers recycle frames after
		// consuming them, and the twin must survive the original's reuse.
		sends = append(sends, frame, append([]byte(nil), frame...))
	case s.held == nil && s.plan.PReorder > 0 && s.rng.Float64() < s.plan.PReorder:
		// Hold this frame; the next ReorderWindow frames overtake it. A
		// flush timer releases it if the direction goes quiet first, so a
		// reorder can starve nothing.
		s.stats.Reorders++
		s.held = frame
		s.heldLeft = s.plan.ReorderWindow
		s.heldSeq++
		seq := s.heldSeq
		time.AfterFunc(netFaultFlush, func() { s.flush(seq, out) })
	default:
		sends = append(sends, frame)
	}
	// Frames that pass count down the hold; release behind the last one.
	if s.held != nil && len(sends) > 0 {
		s.heldLeft -= len(sends)
		if s.heldLeft <= 0 {
			sends = append(sends, s.held)
			s.held = nil
		}
	}
	s.mu.Unlock()
	for _, f := range sends {
		out <- delivery{data: f, at: time.Now().Add(lat)}
	}
}

// flush releases a reorder-held frame whose overtaking traffic never
// arrived. seq identifies the hold: a newer hold means the old frame was
// already released and the timer has nothing to do.
func (s *netFaultState) flush(seq uint64, out chan<- delivery) {
	s.mu.Lock()
	if s.held == nil || s.heldSeq != seq {
		s.mu.Unlock()
		return
	}
	f := s.held
	s.held = nil
	lat := s.latency
	s.mu.Unlock()
	out <- delivery{data: f, at: time.Now().Add(lat)}
}
