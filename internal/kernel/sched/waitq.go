package sched

import "sync"

// WaitQueue is the kernel's blocking primitive: tasks sleep on it and
// wakers (other tasks, IRQ handlers, timers) wake one or all. Semaphores,
// pipes, the keyboard ring, and the audio pipeline are all built on it.
//
// Host contexts — boot-time mounts, IRQ and timer goroutines, test
// harnesses: code with no task (t == nil) — sleep on the same queue
// through SleepUnless, parked on a channel of their own instead of giving
// a simulated core back. Host and task waiters share one FIFO, so every
// wait site has one loop whoever calls it.
//
// Wakeups may be spurious (a wake can race a task that was about to block),
// so callers re-check their condition in a loop — the same contract as a
// condition variable, and the reason xv6 wraps sleep in while loops.
type WaitQueue struct {
	mu      sync.Mutex
	waiters []waiter
	spare   []waiter // WakeAll's second backing array, so sleeps never allocate
}

// waiter is one sleeper: a task, or a host context parked on ch.
type waiter struct {
	t  *Task
	ch chan struct{}
}

// wake ends w's sleep. Each waiter is woken at most once: only the waker
// that took it off the list calls this.
func (w waiter) wake() {
	if w.t != nil {
		w.t.sched.wake(w.t)
		return
	}
	close(w.ch)
}

// Sleep blocks the calling task until a wake. The caller re-checks its
// condition afterwards.
func (wq *WaitQueue) Sleep(t *Task) {
	t.exitIfKilled()
	wq.add(waiter{t: t})

	t.waitMu.Lock()
	t.waitingOn = wq
	t.waitMu.Unlock()

	t.block()

	t.waitMu.Lock()
	t.waitingOn = nil
	t.waitMu.Unlock()
	// If we woke for a reason other than WakeOne (kill, racing wake), make
	// sure we are no longer on the waiter list.
	wq.remove(waiter{t: t})
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
//
// A nil t is a host context. It registers and re-checks done() exactly
// like a task, then blocks its goroutine until a WakeOne or WakeAll picks
// it. Nothing can kill it, and it holds no simulated core, so its waker
// must be some other goroutine: a host context that waits for work only
// it would do sleeps forever.
func (wq *WaitQueue) SleepUnless(t *Task, done func() bool) {
	if t == nil {
		w := waiter{ch: make(chan struct{})}
		wq.add(w)
		if !done() {
			<-w.ch
		}
		wq.remove(w)
		return
	}
	w := waiter{t: t}
	wq.add(w)

	t.waitMu.Lock()
	t.waitingOn = wq
	t.waitMu.Unlock()

	if !done() {
		t.blockNoKill()
	}
	// A wake that raced a satisfied done() may have latched wakePending;
	// that surfaces as a spurious return from the task's next block, which
	// the sleep contract allows.
	t.waitMu.Lock()
	t.waitingOn = nil
	t.waitMu.Unlock()
	wq.remove(w)
}

// SleepUnlessKillable is SleepUnless as an interruptible sleep, for waits
// a syscall may abandon (a semaphore P): a killed task unwinds on entry
// and again after the wake, once it is off the waiter list.
func (wq *WaitQueue) SleepUnlessKillable(t *Task, done func() bool) {
	t.exitIfKilled()
	wq.SleepUnless(t, done)
	t.exitIfKilled()
}

// WakeOne wakes the longest waiter, task or host, if any. Returns true if
// one was woken.
func (wq *WaitQueue) WakeOne() bool {
	wq.mu.Lock()
	if len(wq.waiters) == 0 {
		wq.mu.Unlock()
		return false
	}
	w := wq.waiters[0]
	n := copy(wq.waiters, wq.waiters[1:])
	wq.waiters[n] = waiter{}
	wq.waiters = wq.waiters[:n]
	wq.mu.Unlock()
	w.wake()
	return true
}

// WakeAll wakes every waiter, in FIFO order. The list is walked outside
// wq.mu, so sleepers that register meanwhile go to the spare array; the
// walked one becomes the next spare. The two alternate, and a queue in
// steady use never allocates.
func (wq *WaitQueue) WakeAll() int {
	wq.mu.Lock()
	ws := wq.waiters
	if len(ws) == 0 {
		wq.mu.Unlock()
		return 0
	}
	wq.waiters, wq.spare = wq.spare, nil
	wq.mu.Unlock()
	for _, w := range ws {
		w.wake()
	}
	clear(ws)
	wq.mu.Lock()
	if wq.spare == nil {
		wq.spare = ws[:0]
	}
	wq.mu.Unlock()
	return len(ws)
}

// Waiting reports how many waiters, task or host, are blocked on the queue.
func (wq *WaitQueue) Waiting() int {
	wq.mu.Lock()
	defer wq.mu.Unlock()
	return len(wq.waiters)
}

func (wq *WaitQueue) add(w waiter) {
	wq.mu.Lock()
	wq.waiters = append(wq.waiters, w)
	wq.mu.Unlock()
}

// remove deletes w from the waiter list (kill path and post-wake cleanup).
func (wq *WaitQueue) remove(w waiter) {
	wq.mu.Lock()
	defer wq.mu.Unlock()
	for i, x := range wq.waiters {
		if x == w {
			n := copy(wq.waiters[i:], wq.waiters[i+1:])
			wq.waiters[i+n] = waiter{}
			wq.waiters = wq.waiters[:i+n]
			return
		}
	}
}
