// Package kdebug implements Proto's self-hosted debugging support (§5.1):
// an ftrace-like per-core trace ring with timestamped events, a stack
// unwinder that prints raw callsites for offline resolution, a debug
// monitor with breakpoints/watchpoints/single-step over simulated user
// accesses, and the FIQ panic-button dump path.
package kdebug

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceEventRecord is one ring entry.
type TraceEventRecord struct {
	TSMicros int64
	Core     int
	Event    string
	Arg1     int64
	Arg2     int64
}

// ringSize is per-core; old events are overwritten — negligible overhead,
// as the paper requires.
const ringSize = 4096

// coreRing is a single-producer ring (one per core).
type coreRing struct {
	mu    sync.Mutex
	buf   [ringSize]TraceEventRecord
	next  uint64
	epoch time.Time
	lost  uint64
}

// Trace is the all-cores event tracer. It satisfies sched.Tracer.
type Trace struct {
	rings   []*coreRing
	enabled atomic.Bool
	epoch   time.Time
}

// NewTrace creates the tracer for ncores cores (enabled).
func NewTrace(ncores int) *Trace {
	tr := &Trace{epoch: time.Now()}
	for i := 0; i < ncores; i++ {
		tr.rings = append(tr.rings, &coreRing{epoch: tr.epoch})
	}
	tr.enabled.Store(true)
	return tr
}

// SetEnabled toggles tracing.
func (tr *Trace) SetEnabled(on bool) { tr.enabled.Store(on) }

// TraceEvent records one event (implements sched.Tracer).
func (tr *Trace) TraceEvent(core int, event string, a1, a2 int64) {
	if !tr.enabled.Load() {
		return
	}
	if core < 0 || core >= len(tr.rings) {
		core = 0
	}
	r := tr.rings[core]
	r.mu.Lock()
	r.buf[r.next%ringSize] = TraceEventRecord{
		TSMicros: time.Since(tr.epoch).Microseconds(),
		Core:     core,
		Event:    event,
		Arg1:     a1,
		Arg2:     a2,
	}
	r.next++
	r.mu.Unlock()
}

// Dump returns all buffered events merged in timestamp order — the
// on-demand dump used to diagnose scheduler and concurrency issues.
func (tr *Trace) Dump() []TraceEventRecord {
	var all []TraceEventRecord
	for _, r := range tr.rings {
		r.mu.Lock()
		n := r.next
		start := uint64(0)
		if n > ringSize {
			start = n - ringSize
		}
		for i := start; i < n; i++ {
			all = append(all, r.buf[i%ringSize])
		}
		r.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].TSMicros < all[j].TSMicros })
	return all
}

// Count returns the number of recorded (retained) events.
func (tr *Trace) Count() int { return len(tr.Dump()) }

// WriteTo formats the dump like ftrace output.
func (tr *Trace) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, e := range tr.Dump() {
		k, err := fmt.Fprintf(w, "[%8d us] cpu%d %-12s %d %d\n", e.TSMicros, e.Core, e.Event, e.Arg1, e.Arg2)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// --- Stack unwinder ---

// Frame is one callsite: a raw address plus the symbol the offline
// resolver would produce. Tasks push/pop frames at function boundaries in
// app code; the unwinder walks them like Proto's ARMv8 stack tracer walks
// frame pointers.
type Frame struct {
	PC   uint64
	Name string
}

// Unwinder tracks simulated call stacks per task.
type Unwinder struct {
	mu     sync.Mutex
	stacks map[int][]Frame // task ID -> frames
	nextPC uint64
}

// NewUnwinder returns an empty unwinder.
func NewUnwinder() *Unwinder {
	return &Unwinder{stacks: make(map[int][]Frame), nextPC: 0xffff000000080000}
}

// Push records entry into fn for task id.
func (u *Unwinder) Push(taskID int, fn string) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.nextPC += 0x40
	u.stacks[taskID] = append(u.stacks[taskID], Frame{PC: u.nextPC, Name: fn})
}

// Pop records return from the innermost frame.
func (u *Unwinder) Pop(taskID int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	s := u.stacks[taskID]
	if len(s) > 0 {
		u.stacks[taskID] = s[:len(s)-1]
	}
	if len(u.stacks[taskID]) == 0 {
		delete(u.stacks, taskID)
	}
}

// Unwind returns the task's frames, innermost first, as the tracer prints
// them (raw callsite addresses).
func (u *Unwinder) Unwind(taskID int) []Frame {
	u.mu.Lock()
	defer u.mu.Unlock()
	s := u.stacks[taskID]
	out := make([]Frame, len(s))
	for i := range s {
		out[len(s)-1-i] = s[i]
	}
	return out
}

// Format renders an unwind like the kernel's oops output.
func (u *Unwinder) Format(taskID int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "call trace (task %d):\n", taskID)
	for _, f := range u.Unwind(taskID) {
		fmt.Fprintf(&b, "  [<%016x>] %s\n", f.PC, f.Name)
	}
	return b.String()
}

// --- Debug monitor (hardware debug exceptions) ---

// AccessKind classifies a watched access.
type AccessKind int

// Access kinds.
const (
	AccessExec AccessKind = iota
	AccessRead
	AccessWrite
)

// DebugEvent reports a triggered break/watch.
type DebugEvent struct {
	TaskID int
	Addr   uint64
	Kind   AccessKind
}

// Monitor is the 200-LOC debug monitor: breakpoints on PCs, watchpoints on
// data addresses, and single-step. The mm layer and exec path call Check on
// simulated accesses; a hit invokes the registered handler (which typically
// printks a dump and optionally stops the task).
type Monitor struct {
	mu          sync.Mutex
	breakpoints map[uint64]bool
	watchpoints map[uint64]AccessKind
	singleStep  map[int]bool // task ID -> stepping
	handler     func(DebugEvent)
	hits        []DebugEvent
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{
		breakpoints: make(map[uint64]bool),
		watchpoints: make(map[uint64]AccessKind),
		singleStep:  make(map[int]bool),
	}
}

// OnEvent installs the hit handler.
func (m *Monitor) OnEvent(h func(DebugEvent)) {
	m.mu.Lock()
	m.handler = h
	m.mu.Unlock()
}

// SetBreakpoint arms a breakpoint at pc (DBGBCR analogue).
func (m *Monitor) SetBreakpoint(pc uint64) {
	m.mu.Lock()
	m.breakpoints[pc] = true
	m.mu.Unlock()
}

// ClearBreakpoint disarms pc.
func (m *Monitor) ClearBreakpoint(pc uint64) {
	m.mu.Lock()
	delete(m.breakpoints, pc)
	m.mu.Unlock()
}

// SetWatchpoint arms a data watchpoint (DBGWCR analogue).
func (m *Monitor) SetWatchpoint(addr uint64, kind AccessKind) {
	m.mu.Lock()
	m.watchpoints[addr] = kind
	m.mu.Unlock()
}

// SetSingleStep toggles single-stepping for a task.
func (m *Monitor) SetSingleStep(taskID int, on bool) {
	m.mu.Lock()
	if on {
		m.singleStep[taskID] = true
	} else {
		delete(m.singleStep, taskID)
	}
	m.mu.Unlock()
}

// Check tests an access against the armed break/watchpoints; it reports
// whether a debug exception fired.
func (m *Monitor) Check(taskID int, addr uint64, kind AccessKind) bool {
	m.mu.Lock()
	hit := false
	if kind == AccessExec {
		hit = m.breakpoints[addr] || m.singleStep[taskID]
	} else if wk, ok := m.watchpoints[addr]; ok {
		hit = wk == kind || (wk == AccessWrite && kind == AccessWrite) || (wk == AccessRead && kind == AccessRead)
	}
	var h func(DebugEvent)
	var ev DebugEvent
	if hit {
		ev = DebugEvent{TaskID: taskID, Addr: addr, Kind: kind}
		m.hits = append(m.hits, ev)
		h = m.handler
	}
	m.mu.Unlock()
	if hit && h != nil {
		h(ev)
	}
	return hit
}

// Hits returns recorded debug events.
func (m *Monitor) Hits() []DebugEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]DebugEvent, len(m.hits))
	copy(out, m.hits)
	return out
}
