package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// A traced run records spans from the benchmark's own code, never from
// inside the kernel: one span per op, one child span per call the op makes
// into a layer (a syscall, or a peer-side Socket.Write/Read), and an
// instant per peer NIC receive notification. Durations are aggregated for
// every op of the window; the first keepSpans spans of each client are
// also kept, and written as Chrome trace events when the run ends.
const (
	keepSpans    = 10000 // per client
	keepInstants = 10000
)

type tracer struct {
	base   time.Time
	on     atomic.Bool  // set for the measured window only
	lastRX atomic.Int64 // ns since base of the latest peer NIC RX notification

	mu      sync.Mutex
	clients []*clientTrace
	rx      []int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// rxNotify wraps the peer NIC's notify hook: it records an instant when the
// notification found frames waiting in the peer's RX ring, then runs next.
func (t *tracer) rxNotify(rxQueued func() int, next func()) func() {
	return func() {
		if t.on.Load() && rxQueued() > 0 {
			at := t.now()
			t.lastRX.Store(at)
			t.mu.Lock()
			if len(t.rx) < keepInstants {
				t.rx = append(t.rx, at)
			}
			t.mu.Unlock()
		}
		next()
	}
}

func (t *tracer) client(id int, name string) *clientTrace {
	ct := &clientTrace{t: t, id: id, name: name, calls: map[string]samples{}}
	t.mu.Lock()
	t.clients = append(t.clients, ct)
	t.mu.Unlock()
	return ct
}

type span struct {
	name, parent string
	op           int64
	start, end   int64 // ns since tracer base
}

// clientTrace is one load loop's span state; only that loop touches it
// until the run ends.
type clientTrace struct {
	t    *tracer
	id   int
	name string

	active  bool // an op span is open
	opName  string
	opID    int64
	opStart int64
	childNs int64

	calls   map[string]samples // call name -> durations
	self    samples            // op duration minus its children
	opNs    int64
	childAt int64 // sum of child durations over all ops
	deliver samples
	spans   []span
}

func (ct *clientTrace) begin(name string) {
	if !ct.t.on.Load() {
		return
	}
	ct.active, ct.opName, ct.childNs = true, name, 0
	ct.opID++
	ct.opStart = ct.t.now()
}

// call opens a child span, returning its start or -1 outside a traced op.
func (ct *clientTrace) call() int64 {
	if !ct.active {
		return -1
	}
	return ct.t.now()
}

func (ct *clientTrace) ret(name string, start int64) {
	if start < 0 {
		return
	}
	end := ct.t.now()
	d := end - start
	ct.childNs += d
	s := ct.calls[name]
	s.add(time.Duration(d))
	ct.calls[name] = s
	if name == "peer.read" {
		// Time from the latest frame landing in the peer RX ring to the
		// read that consumed it returning: softirq plus socket wake-up.
		if rx := ct.t.lastRX.Load(); rx >= start {
			ct.deliver.add(time.Duration(end - rx))
		}
	}
	ct.keep(span{name: name, parent: ct.opName, op: ct.opID, start: start, end: end})
}

func (ct *clientTrace) end() {
	if !ct.active {
		return
	}
	ct.active = false
	end := ct.t.now()
	d := end - ct.opStart
	ct.self.add(time.Duration(d - ct.childNs))
	ct.opNs += d
	ct.childAt += ct.childNs
	ct.keep(span{name: ct.opName, op: ct.opID, start: ct.opStart, end: end})
}

func (ct *clientTrace) keep(s span) {
	if len(ct.spans) < keepSpans {
		ct.spans = append(ct.spans, s)
	}
}

// traceSummary aggregates every client's spans once the load has stopped.
type traceSummary struct {
	calls      map[string]samples
	self       samples
	deliver    samples
	childShare float64 // sum of child span time over sum of op span time
}

func (t *tracer) summary() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := traceSummary{calls: map[string]samples{}}
	var opNs, childNs int64
	for _, ct := range t.clients {
		for name, d := range ct.calls {
			s.calls[name] = append(s.calls[name], d...)
		}
		s.self = append(s.self, ct.self...)
		s.deliver = append(s.deliver, ct.deliver...)
		opNs += ct.opNs
		childNs += ct.childAt
	}
	s.childShare = ratio(float64(childNs), float64(opNs))
	return s
}

// chromeEvent is one Chrome trace-event record (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"` // µs
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// write saves the kept spans and instants of one workload run.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var evs []chromeEvent
	for _, ct := range t.clients {
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Tid: ct.id, Pid: 1,
			Args: map[string]any{"name": ct.name}})
		for _, s := range ct.spans {
			args := map[string]any{"op": s.op}
			if s.parent != "" {
				args["parent"] = s.parent
			}
			evs = append(evs, chromeEvent{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
				Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: ct.id, Args: args})
		}
	}
	for _, at := range t.rx {
		evs = append(evs, chromeEvent{Name: "peer.nic.rx", Ph: "i", Ts: float64(at) / 1e3, Pid: 1, Scope: "p"})
	}
	blob, err := json.Marshal(map[string]any{
		"traceEvents": evs,
		"otherData":   map[string]any{"workload": workload, "seed": seed, "spans_kept_per_client": keepSpans},
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
