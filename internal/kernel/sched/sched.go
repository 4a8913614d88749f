package sched

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"protosim/internal/kernel/ktime"
)

// RunqueueMode selects the runqueue topology. Prototypes 2–4 use one shared
// runqueue on a single core; Prototype 5 gives each core its own runqueue
// copy (§4.5 modification 3).
type RunqueueMode int

const (
	// RunqueueGlobal: one queue, all cores pull from it.
	RunqueueGlobal RunqueueMode = iota
	// RunqueuePerCore: per-core queues; new tasks are placed round-robin
	// and never migrate (Proto keeps it simple).
	RunqueuePerCore
)

// BusyAccounter receives per-core busy time (the hw.PowerModel implements
// this; tests use lighter fakes).
type BusyAccounter interface {
	AddBusy(core int, d time.Duration)
}

// Tracer observes scheduling events; kdebug's ring buffer implements it.
type Tracer interface {
	TraceEvent(core int, event string, arg1, arg2 int64)
}

// Config sizes the scheduler.
type Config struct {
	Cores    int
	Mode     RunqueueMode
	Quantum  time.Duration             // informational; ticks come from hw timers
	Power    BusyAccounter             // optional
	Tracer   Tracer                    // optional
	After    ktime.AfterFunc           // optional timer source (default ktime.HostAfter)
	OnZombie func(*Task)               // optional: called when a task exits (reaping)
	OnPanic  func(t *Task, reason any) // optional: task body panicked
}

// Scheduler owns the runqueues and the simulated cores.
type Scheduler struct {
	cfg   Config
	mu    sync.Mutex
	cond  *sync.Cond
	runq  [][]*Task // one slice in Global mode, ncores in PerCore mode
	place int       // round-robin placement cursor (PerCore)

	tasks   map[int]*Task
	nextID  atomic.Int64
	stopped bool

	idleWFI atomic.Int64 // times a core entered WFI (empty runqueue)
	running int          // live core loops
	coreWG  sync.WaitGroup

	current []*Task // task currently on each core (for Tick)
}

// New creates a scheduler; Start launches the core loops.
func New(cfg Config) *Scheduler {
	if cfg.Cores <= 0 {
		panic("sched: need at least one core")
	}
	nq := 1
	if cfg.Mode == RunqueuePerCore {
		nq = cfg.Cores
	}
	s := &Scheduler{
		cfg:     cfg,
		runq:    make([][]*Task, nq),
		tasks:   make(map[int]*Task),
		current: make([]*Task, cfg.Cores),
	}
	s.cond = sync.NewCond(&s.mu)
	if s.cfg.After == nil {
		s.cfg.After = ktime.HostAfter
	}
	return s
}

// Cores returns the configured core count.
func (s *Scheduler) Cores() int { return s.cfg.Cores }

// Start launches one scheduling loop per core.
func (s *Scheduler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running > 0 {
		panic("sched: already started")
	}
	s.stopped = false
	s.running = s.cfg.Cores
	for c := 0; c < s.cfg.Cores; c++ {
		s.coreWG.Add(1)
		go s.coreLoop(c)
	}
}

// Go creates and enqueues a task. fn runs when a core first grants the CPU.
func (s *Scheduler) Go(name string, priority int, fn TaskFunc) *Task {
	t := &Task{
		ID:        int(s.nextID.Add(1)),
		Name:      name,
		Priority:  priority,
		sched:     s,
		grant:     make(chan struct{}),
		release:   make(chan releaseReason),
		startedAt: time.Now(),
		done:      make(chan struct{}),
	}
	t.core.Store(-1)
	t.state.Store(int32(StateEmbryo))

	go func() {
		defer close(t.done)
		<-t.grant // first dispatch
		if t.killed.Load() {
			s.finalize(t, nil)
			return
		}
		defer func() {
			r := recover()
			if _, wasKill := r.(killedSentinel); wasKill {
				r = nil
			}
			s.finalize(t, r)
		}()
		fn(t)
	}()

	s.mu.Lock()
	s.tasks[t.ID] = t
	s.enqueueLocked(t)
	s.mu.Unlock()
	s.cond.Broadcast()
	return t
}

// finalize marks the task zombie and tells the granting core it is done.
func (s *Scheduler) finalize(t *Task, panicked any) {
	t.state.Store(int32(StateZombie))
	if panicked != nil && s.cfg.OnPanic != nil {
		s.cfg.OnPanic(t, panicked)
	}
	s.trace(t.Core(), "exit", int64(t.ID), 0)
	t.chargeCPU()
	t.release <- releaseExit
	s.mu.Lock()
	delete(s.tasks, t.ID)
	s.mu.Unlock()
	if s.cfg.OnZombie != nil {
		s.cfg.OnZombie(t)
	}
}

// enqueueLocked places a runnable task on a queue. Caller holds s.mu.
func (s *Scheduler) enqueueLocked(t *Task) {
	t.state.Store(int32(StateRunnable))
	qi := 0
	if s.cfg.Mode == RunqueuePerCore {
		qi = s.place % len(s.runq)
		s.place++
	}
	s.runq[qi] = append(s.runq[qi], t)
}

// enqueue is the unlocked form used by wakers.
func (s *Scheduler) enqueue(t *Task) {
	s.mu.Lock()
	s.enqueueLocked(t)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// wake transitions a sleeping task to runnable; if the task has not
// finished blocking yet the wake is latched in wakePending.
//
// The latch can land too late: the task may mark itself sleeping and
// check wakePending between this wake's failed CAS and its Store. So when
// the task is found asleep after latching, the wake takes the latch back
// and retries the hand-off — unless the task consumed it first, in which
// case it never blocked.
func (s *Scheduler) wake(t *Task) {
	for {
		if t.state.CompareAndSwap(int32(StateSleeping), int32(StateRunnable)) {
			s.enqueue(t)
			return
		}
		t.wakePending.Store(true)
		if t.state.Load() != int32(StateSleeping) || !t.wakePending.CompareAndSwap(true, false) {
			return
		}
	}
}

// dequeue picks the best task for core. Caller holds s.mu. Returns nil when
// the core's queue(s) are empty.
func (s *Scheduler) dequeue(core int) *Task {
	qi := 0
	if s.cfg.Mode == RunqueuePerCore {
		qi = core % len(s.runq)
	}
	q := s.runq[qi]
	if len(q) == 0 {
		return nil
	}
	// Highest priority first; FIFO within a priority (stable scan).
	best := 0
	for i, t := range q {
		if t.Priority > q[best].Priority {
			best = i
		}
		_ = i
	}
	t := q[best]
	s.runq[qi] = append(q[:best], q[best+1:]...)
	return t
}

// coreLoop is one simulated CPU core: pick, grant, wait for release.
func (s *Scheduler) coreLoop(core int) {
	defer s.coreWG.Done()
	for {
		s.mu.Lock()
		var t *Task
		for {
			if s.stopped {
				s.mu.Unlock()
				return
			}
			t = s.dequeue(core)
			if t != nil {
				break
			}
			// Empty runqueue: WFI until someone enqueues (§4.2's power
			// management lesson).
			s.idleWFI.Add(1)
			s.cond.Wait()
		}
		s.current[core] = t
		s.mu.Unlock()

		t.core.Store(int32(core))
		t.state.Store(int32(StateRunning))
		t.switches.Add(1)
		s.trace(core, "switch-in", int64(t.ID), 0)
		start := time.Now()
		t.lastGrant.Store(monoNow())
		t.grant <- struct{}{}
		reason := <-t.release
		busy := time.Since(start)
		if s.cfg.Power != nil {
			s.cfg.Power.AddBusy(core, busy)
		}
		t.core.Store(-1)

		s.mu.Lock()
		s.current[core] = nil
		s.mu.Unlock()

		switch reason {
		case releasePreempt:
			s.enqueue(t)
		case releaseBlocked:
			// a waker requeues it
		case releaseExit:
			// gone
		}
	}
}

// Tick is the per-core generic-timer IRQ handler body: flag the task
// running on that core to reschedule at its next checkpoint.
func (s *Scheduler) Tick(core int) {
	s.mu.Lock()
	t := s.current[core]
	s.mu.Unlock()
	if t != nil {
		t.MarkResched()
	}
	s.trace(core, "tick", 0, 0)
}

// Kill condemns a task: it unwinds at its next checkpoint; if sleeping it
// is woken so the checkpoint arrives.
func (s *Scheduler) Kill(t *Task) {
	t.killed.Store(true)
	t.waitMu.Lock()
	wq := t.waitingOn
	t.waitMu.Unlock()
	if wq != nil {
		wq.remove(waiter{t: t})
	}
	s.wake(t)
}

// Task looks a live task up by ID.
func (s *Scheduler) Task(id int) *Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tasks[id]
}

// Tasks snapshots all live tasks, ordered by ID.
func (s *Scheduler) Tasks() []*Task {
	s.mu.Lock()
	out := make([]*Task, 0, len(s.tasks))
	for _, t := range s.tasks {
		out = append(out, t)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Current returns the task running on core (nil if idle); the panic-button
// dump uses it.
func (s *Scheduler) Current(core int) *Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.current[core]
}

// IdleWFI counts how many times cores found nothing to run.
func (s *Scheduler) IdleWFI() int64 { return s.idleWFI.Load() }

// Shutdown kills every task, waits for them to unwind, then stops the core
// loops. It is safe to call once, from outside any task.
func (s *Scheduler) Shutdown(timeout time.Duration) error {
	for _, t := range s.Tasks() {
		s.Kill(t)
	}
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		n := len(s.tasks)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			s.mu.Lock()
			stuck := make([]string, 0, len(s.tasks))
			for _, t := range s.tasks {
				stuck = append(stuck, t.String())
			}
			s.mu.Unlock()
			return fmt.Errorf("sched: %d tasks did not exit: %v", n, stuck)
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.coreWG.Wait()
	return nil
}

func (s *Scheduler) trace(core int, ev string, a, b int64) {
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.TraceEvent(core, ev, a, b)
	}
}
