package sched

import "sync"

// WaitQueue is the kernel's blocking primitive: tasks sleep on it and
// wakers (other tasks, IRQ handlers, timers) wake one or all. Semaphores,
// pipes, the keyboard ring, and the audio pipeline are all built on it.
//
// Wakeups may be spurious (a wake can race a task that was about to block),
// so callers re-check their condition in a loop — the same contract as a
// condition variable, and the reason xv6 wraps sleep in while loops.
type WaitQueue struct {
	mu      sync.Mutex
	waiters []*Task
}

// Sleep blocks the calling task until a wake. The caller re-checks its
// condition afterwards.
func (wq *WaitQueue) Sleep(t *Task) {
	t.exitIfKilled()
	wq.mu.Lock()
	wq.waiters = append(wq.waiters, t)
	wq.mu.Unlock()

	t.waitMu.Lock()
	t.waitingOn = wq
	t.waitMu.Unlock()

	t.block()

	t.waitMu.Lock()
	t.waitingOn = nil
	t.waitMu.Unlock()
	// If we woke for a reason other than WakeOne (kill, racing wake), make
	// sure we are no longer on the waiter list.
	wq.remove(t)
}

// SleepUnless blocks t on wq unless done() already reports true once t is
// registered as a waiter. Registering before the final check closes the
// lost-wakeup window of the bare check-then-Sleep pattern: a waker that
// publishes its condition and calls WakeAll between the caller's own check
// and Sleep's registration would wake nobody, and a one-shot condition (an
// IO completion) never wakes again. Here that waker either sees t on the
// list, or done() sees the published condition.
//
// The sleep is uninterruptible, like a disk wait in D state: a Kill wakes
// the task (so the loop re-checks done) but does not unwind it here —
// callers wait for completions that always arrive, and unwinding mid-IO
// would leak the buffer locks held across the wait. The kill takes effect
// at the task's next killable checkpoint. Spurious returns are possible;
// callers loop.
func (wq *WaitQueue) SleepUnless(t *Task, done func() bool) {
	wq.mu.Lock()
	wq.waiters = append(wq.waiters, t)
	wq.mu.Unlock()

	t.waitMu.Lock()
	t.waitingOn = wq
	t.waitMu.Unlock()

	if done() {
		// Condition already satisfied: don't block. A concurrent wake may
		// have latched wakePending; that surfaces as a spurious return from
		// the task's next block, which the sleep contract allows.
		t.waitMu.Lock()
		t.waitingOn = nil
		t.waitMu.Unlock()
		wq.remove(t)
		return
	}
	t.blockNoKill()

	t.waitMu.Lock()
	t.waitingOn = nil
	t.waitMu.Unlock()
	wq.remove(t)
}

// SleepUnlessKillable is SleepUnless as an interruptible sleep, for waits
// a syscall may abandon (a semaphore P): a killed task unwinds on entry
// and again after the wake, once it is off the waiter list.
func (wq *WaitQueue) SleepUnlessKillable(t *Task, done func() bool) {
	t.exitIfKilled()
	wq.SleepUnless(t, done)
	t.exitIfKilled()
}

// WakeOne wakes the longest-waiting task, if any. Returns true if a task
// was woken.
func (wq *WaitQueue) WakeOne() bool {
	wq.mu.Lock()
	if len(wq.waiters) == 0 {
		wq.mu.Unlock()
		return false
	}
	t := wq.waiters[0]
	wq.waiters = wq.waiters[1:]
	wq.mu.Unlock()
	t.sched.wake(t)
	return true
}

// WakeAll wakes every waiting task.
func (wq *WaitQueue) WakeAll() int {
	wq.mu.Lock()
	ws := wq.waiters
	wq.waiters = nil
	wq.mu.Unlock()
	for _, t := range ws {
		t.sched.wake(t)
	}
	return len(ws)
}

// Waiting reports how many tasks are blocked on the queue.
func (wq *WaitQueue) Waiting() int {
	wq.mu.Lock()
	defer wq.mu.Unlock()
	return len(wq.waiters)
}

// remove deletes t from the waiter list (kill path and post-wake cleanup).
func (wq *WaitQueue) remove(t *Task) {
	wq.mu.Lock()
	defer wq.mu.Unlock()
	for i, w := range wq.waiters {
		if w == t {
			wq.waiters = append(wq.waiters[:i], wq.waiters[i+1:]...)
			return
		}
	}
}
