// Package ktime implements Proto's virtual timers (Prototype 1, Lab 1
// task 11): many software timers multiplexed over one hardware timer
// compare channel. A min-heap orders pending deadlines; a single driver
// goroutine (standing in for the system-timer compare IRQ) sleeps until
// the earliest deadline and fires callbacks in order. The kernel routes
// sleep() and animation timing through a Set, so dozens of donuts tick
// over one piece of hardware.
package ktime

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// AfterFunc is the kernel's one timer seam: schedule fn to run once after
// d and return a function that cancels it, reporting whether fn was still
// pending. The scheduler's sleeps, the request queues' plug windows,
// command timeouts and retry backoff, the flusher daemons' interval and
// the network stack's retransmit timer all take one. The kernel passes
// (*Set).AfterFunc, so they multiplex over its virtual timers; HostAfter
// is the host-clock default.
type AfterFunc func(d time.Duration, fn func()) func() bool

// HostAfter is the AfterFunc over the host clock (time.AfterFunc).
func HostAfter(d time.Duration, fn func()) func() bool { return time.AfterFunc(d, fn).Stop }

// Timer is a handle to one pending virtual timer.
type Timer struct {
	deadline time.Time
	period   time.Duration // 0 = one-shot
	fn       func()
	idx      int // heap index, -1 when inactive
	set      *Set
}

// Stop cancels the timer; reports whether it was still pending.
func (t *Timer) Stop() bool {
	t.set.mu.Lock()
	defer t.set.mu.Unlock()
	if t.idx < 0 {
		return false
	}
	heap.Remove(&t.set.q, t.idx)
	t.idx = -1
	return true
}

// timerQueue is the deadline min-heap.
type timerQueue []*Timer

func (q timerQueue) Len() int           { return len(q) }
func (q timerQueue) Less(i, j int) bool { return q[i].deadline.Before(q[j].deadline) }
func (q timerQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i]; q[i].idx = i; q[j].idx = j }
func (q *timerQueue) Push(x any)        { t := x.(*Timer); t.idx = len(*q); *q = append(*q, t) }
func (q *timerQueue) Pop() any {
	old := *q
	n := len(old)
	t := old[n-1]
	t.idx = -1
	*q = old[:n-1]
	return t
}

// Set multiplexes virtual timers over one "hardware" channel.
type Set struct {
	mu     sync.Mutex
	q      timerQueue
	wake   chan struct{}
	stop   chan struct{}
	fired  int64
	closed bool
	kicks  atomic.Int64 // driver wake-ups requested by arm (tests)
}

// NewSet starts the driver.
func NewSet() *Set {
	s := &Set{wake: make(chan struct{}, 1), stop: make(chan struct{})}
	go s.drive()
	return s
}

// After arms a one-shot virtual timer.
func (s *Set) After(d time.Duration, fn func()) *Timer {
	return s.arm(d, 0, fn)
}

// AfterFunc arms a one-shot virtual timer and returns its Stop; the method
// value s.AfterFunc is the AfterFunc seam over this set.
func (s *Set) AfterFunc(d time.Duration, fn func()) func() bool {
	return s.After(d, fn).Stop
}

// Every arms a periodic virtual timer.
func (s *Set) Every(period time.Duration, fn func()) *Timer {
	if period <= 0 {
		panic("ktime: periodic timer needs a positive period")
	}
	return s.arm(period, period, fn)
}

// arm queues a timer and wakes the driver only when the timer became the
// earliest deadline: a later one changes nothing the driver sleeps on.
func (s *Set) arm(d, period time.Duration, fn func()) *Timer {
	t := &Timer{deadline: time.Now().Add(d), period: period, fn: fn, set: s, idx: -1}
	s.mu.Lock()
	if !s.closed {
		heap.Push(&s.q, t)
	}
	head := t.idx == 0
	s.mu.Unlock()
	if head {
		s.kick()
	}
	return t
}

func (s *Set) kick() {
	s.kicks.Add(1)
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// drive is the compare-register loop: sleep until the earliest deadline,
// fire everything due, repeat. One host timer serves every sleep.
func (s *Set) drive() {
	hw := time.NewTimer(time.Hour)
	defer hw.Stop()
	var due []*Timer
	for {
		s.mu.Lock()
		now := time.Now()
		for len(s.q) > 0 && !s.q[0].deadline.After(now) {
			t := heap.Pop(&s.q).(*Timer)
			due = append(due, t)
			if t.period > 0 {
				t.deadline = now.Add(t.period)
				heap.Push(&s.q, t)
			}
		}
		var next time.Time
		if len(s.q) > 0 {
			next = s.q[0].deadline
		}
		s.fired += int64(len(due))
		s.mu.Unlock()
		for i, t := range due {
			t.fn()
			due[i] = nil
		}
		due = due[:0]
		// Sleep to the head's absolute deadline, however long the
		// callbacks took; a new earliest deadline kicks the wake channel.
		wait := time.Hour
		if !next.IsZero() {
			wait = max(time.Until(next), 0)
		}
		hw.Reset(wait)
		select {
		case <-s.stop:
			return
		case <-s.wake:
		case <-hw.C:
		}
	}
}

// Pending reports armed timers (diagnostics).
func (s *Set) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q)
}

// Fired reports total callback invocations.
func (s *Set) Fired() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired
}

// Close stops the driver; pending timers never fire.
func (s *Set) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
}
