// Package sched implements Proto's task model and CPU scheduler.
//
// A task is the kernel's unit of execution: Prototype 2's cooperative
// printers, Prototype 3's user processes, and Prototype 5's clone()d
// threads are all tasks. In this reproduction each task is a goroutine
// *gated* by the scheduler: a simulated core grants the CPU through an
// unbuffered channel handshake, and the task gives it back when it blocks,
// exits, or notices a preemption tick. At most one task per core runs at a
// time, so "context switch", "runqueue", and "timeslice" are real,
// observable code paths, and with N cores there is genuine N-way
// parallelism (Figure 10's scaling experiment depends on this).
package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// State is a task's lifecycle state, following xv6's naming as Proto does.
type State int32

// Task states.
const (
	StateEmbryo   State = iota // created, never run
	StateRunnable              // on a runqueue
	StateRunning               // owns a core
	StateSleeping              // blocked on a wait queue or timer
	StateZombie                // exited, not yet reaped
)

// String returns the state's xv6-style name ("runnable", "sleeping", ...).
func (s State) String() string {
	switch s {
	case StateEmbryo:
		return "embryo"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateZombie:
		return "zombie"
	}
	return fmt.Sprintf("state%d", int32(s))
}

// releaseReason says why a task gave the CPU back.
type releaseReason int

const (
	releasePreempt releaseReason = iota // tick or voluntary yield: requeue me
	releaseBlocked                      // sleeping: a waker will requeue me
	releaseExit                         // zombie: never run me again
)

// killedSentinel unwinds a task goroutine when the kernel kills it. It is
// panicked from preemption checkpoints and recovered by the task wrapper —
// the moral equivalent of the kernel destroying a task at a safe point.
type killedSentinel struct{ id int }

// TaskFunc is a task body. It runs with the CPU granted and must call
// t.CheckPreempt (directly or via syscalls) inside compute loops so the
// scheduler's ticks can take effect, exactly where timer IRQs would land.
type TaskFunc func(t *Task)

// Task is one schedulable entity.
type Task struct {
	ID       int
	Name     string
	Priority int // higher runs first; Proto's donut-priority lab uses this

	sched *Scheduler
	state atomic.Int32
	core  atomic.Int32 // core currently running this task, -1 otherwise

	grant   chan struct{}      // scheduler -> task: the CPU is yours
	release chan releaseReason // task -> scheduler: I stopped

	needResched atomic.Bool
	killed      atomic.Bool
	wakePending atomic.Bool // wake arrived before the task finished blocking

	// waitingOn lets Kill find and remove a sleeping task.
	waitMu    sync.Mutex
	waitingOn *WaitQueue

	// Kernel payload: the process structure (internal/kernel attaches it).
	Data any

	// Accounting.
	startedAt  time.Time
	lastGrant  atomic.Int64 // monoNow() at the latest CPU grant
	cpuTime    atomic.Int64 // nanoseconds on CPU
	switches   atomic.Int64 // times scheduled in
	preemptths atomic.Int64 // involuntary preemptions

	done chan struct{} // closed when the goroutine has fully exited
}

// State returns the task's current lifecycle state.
func (t *Task) State() State { return State(t.state.Load()) }

// Done returns a channel closed when the task's goroutine has fully
// exited — including a task killed before its first dispatch, whose
// function never ran at all. Watchers that must account for every
// spawned task (the uring worker-pool teardown) wait on this instead of
// instrumenting the task function, which a pre-dispatch kill skips.
func (t *Task) Done() <-chan struct{} { return t.done }

// Core returns the core the task is running on, or -1.
func (t *Task) Core() int { return int(t.core.Load()) }

// CPUTime returns accumulated on-CPU time.
func (t *Task) CPUTime() time.Duration { return time.Duration(t.cpuTime.Load()) }

// Switches returns how many times the task has been scheduled in.
func (t *Task) Switches() int64 { return t.switches.Load() }

// Preemptions returns how many involuntary context switches the task took.
func (t *Task) Preemptions() int64 { return t.preemptths.Load() }

// monoBase anchors grant timestamps to Go's monotonic clock: deltas from
// it are immune to wall-clock steps (NTP, suspend), unlike UnixNano.
var monoBase = time.Now()

// monoNow is nanoseconds since monoBase, monotonic.
func monoNow() int64 { return int64(time.Since(monoBase)) }

// chargeCPU accumulates on-CPU time since the latest grant. It runs on the
// task side immediately before every release send, so the accounting is
// already visible to anyone who observes the task leaving the CPU (the
// dispatcher's own measurement only feeds the power model).
func (t *Task) chargeCPU() {
	if start := t.lastGrant.Load(); start != 0 {
		t.cpuTime.Add(monoNow() - start)
	}
}

// Killed reports whether the kernel has condemned this task. A nil task
// (a host context) is never killed.
func (t *Task) Killed() bool { return t != nil && t.killed.Load() }

// MarkResched flags the task to yield at its next preemption checkpoint.
// The per-core timer IRQ handler calls this (via Scheduler.Tick).
func (t *Task) MarkResched() { t.needResched.Store(true) }

// CheckPreempt is the preemption checkpoint: if a tick arrived, the task
// releases the CPU and waits to be rescheduled; if the task was killed, it
// unwinds. App compute loops call this exactly where a real kernel would
// take a timer IRQ.
func (t *Task) CheckPreempt() {
	t.exitIfKilled()
	if !t.needResched.CompareAndSwap(true, false) {
		return
	}
	t.preemptths.Add(1)
	t.state.Store(int32(StateRunnable))
	t.chargeCPU()
	t.release <- releasePreempt
	<-t.grant
	t.exitIfKilled()
}

// Yield voluntarily gives up the CPU (the sched_yield syscall path).
func (t *Task) Yield() {
	t.exitIfKilled()
	t.needResched.Store(false)
	t.state.Store(int32(StateRunnable))
	t.chargeCPU()
	t.release <- releasePreempt
	<-t.grant
	t.exitIfKilled()
}

// exitIfKilled unwinds the goroutine when the task has been condemned.
func (t *Task) exitIfKilled() {
	if t.killed.Load() {
		panic(killedSentinel{id: t.ID})
	}
}

// block releases the CPU with "a waker will requeue me" semantics. The
// caller must already have published the task on a wait structure. A wake
// that raced ahead of the block (the lost-wakeup hazard xv6 solves with the
// sleep lock) is absorbed by wakePending; consumers of WaitQueue therefore
// re-check their condition in a loop, condition-variable style.
func (t *Task) block() {
	t.blockNoKill()
	t.exitIfKilled()
}

// blockNoKill is block without the kill checkpoints: the uninterruptible
// sleep under WaitQueue.SleepUnless. A Kill's wake still ends the block
// (the caller re-checks its condition and, not being unwound, eventually
// reaches a killable checkpoint); the task just never unwinds while a
// caller up-stack holds locks across an IO wait.
//
// A latched wake cancels the block only while the task is still marked
// sleeping: a second waker may already have made it runnable and queued
// it, and then a core will grant it, so it must release this core first
// or two cores would dispatch it at once.
func (t *Task) blockNoKill() {
	t.state.Store(int32(StateSleeping))
	if t.wakePending.CompareAndSwap(true, false) &&
		t.state.CompareAndSwap(int32(StateSleeping), int32(StateRunning)) {
		return
	}
	t.chargeCPU()
	t.release <- releaseBlocked
	<-t.grant
}

// SleepFor blocks the task for at least d (the sleep/msleep syscall). The
// wakeup comes from the scheduler's timer source — in a booted kernel,
// ktime's virtual timers over the hardware timer.
func (t *Task) SleepFor(d time.Duration) {
	t.exitIfKilled()
	if d <= 0 {
		t.Yield()
		return
	}
	stop := t.sched.cfg.After(d, func() { t.sched.wake(t) })
	defer stop()
	t.block()
}

// String identifies the task in traces and panic dumps.
func (t *Task) String() string {
	return fmt.Sprintf("task %d (%s) %s", t.ID, t.Name, t.State())
}
