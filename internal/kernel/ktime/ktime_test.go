package ktime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newSet(t *testing.T) *Set {
	t.Helper()
	s := NewSet()
	t.Cleanup(s.Close)
	return s
}

func TestOneShotFires(t *testing.T) {
	s := newSet(t)
	done := make(chan time.Time, 1)
	start := time.Now()
	s.After(20*time.Millisecond, func() { done <- time.Now() })
	select {
	case fired := <-done:
		if d := fired.Sub(start); d < 15*time.Millisecond {
			t.Fatalf("fired after %v, want >= ~20ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after fire", s.Pending())
	}
}

func TestManyVirtualTimersOverOneHardwareTimer(t *testing.T) {
	// The Prototype 1 scenario: dozens of timers, one compare channel,
	// all fire in deadline order.
	s := newSet(t)
	const n = 50
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		d := time.Duration(5+i) * time.Millisecond
		idx := i
		s.After(d, func() {
			mu.Lock()
			order = append(order, idx)
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != n {
		t.Fatalf("fired %d of %d", len(order), n)
	}
	// Deadline ordering within jitter: the sequence must be mostly
	// ascending (allow small swaps from scheduler noise).
	inversions := 0
	for i := 1; i < n; i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions > n/5 {
		t.Fatalf("%d inversions in firing order %v", inversions, order)
	}
}

func TestPeriodicTimer(t *testing.T) {
	s := newSet(t)
	var ticks atomic.Int32
	tm := s.Every(5*time.Millisecond, func() { ticks.Add(1) })
	deadline := time.Now().Add(5 * time.Second)
	for ticks.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ticks.Load() < 5 {
		t.Fatalf("ticks = %d", ticks.Load())
	}
	tm.Stop()
	n := ticks.Load()
	time.Sleep(20 * time.Millisecond)
	if ticks.Load() > n+1 {
		t.Fatal("periodic timer kept firing after Stop")
	}
}

func TestStopPreventsFiring(t *testing.T) {
	s := newSet(t)
	var fired atomic.Bool
	tm := s.After(30*time.Millisecond, func() { fired.Store(true) })
	if !tm.Stop() {
		t.Fatal("stop of pending timer returned false")
	}
	if tm.Stop() {
		t.Fatal("second stop returned true")
	}
	time.Sleep(50 * time.Millisecond)
	if fired.Load() {
		t.Fatal("stopped timer fired")
	}
}

func TestEarlierTimerPreemptsSleep(t *testing.T) {
	// Arm a far deadline, then a near one: the driver must wake early for
	// the near timer rather than sleeping to the far deadline.
	s := newSet(t)
	var firstFired atomic.Bool
	s.After(500*time.Millisecond, func() {})
	done := make(chan struct{})
	start := time.Now()
	s.After(10*time.Millisecond, func() {
		firstFired.Store(true)
		close(done)
	})
	select {
	case <-done:
		if time.Since(start) > 200*time.Millisecond {
			t.Fatal("near timer waited for the far deadline")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("near timer never fired")
	}
}

func TestCloseDropsTimers(t *testing.T) {
	s := NewSet()
	var fired atomic.Bool
	s.After(10*time.Millisecond, func() { fired.Store(true) })
	s.Close()
	time.Sleep(30 * time.Millisecond)
	if fired.Load() {
		t.Fatal("timer fired after Close")
	}
	s.Close() // idempotent
}

func TestFiredCounter(t *testing.T) {
	s := newSet(t)
	var wg sync.WaitGroup
	wg.Add(3)
	for i := 0; i < 3; i++ {
		s.After(time.Millisecond, func() { wg.Done() })
	}
	wg.Wait()
	if s.Fired() != 3 {
		t.Fatalf("fired = %d", s.Fired())
	}
}

func TestLaterDeadlineDoesNotWakeDriver(t *testing.T) {
	s := newSet(t)
	s.After(time.Hour, func() {})
	before := s.Kicks()
	for i := 2; i < 10; i++ {
		s.After(time.Duration(i)*time.Hour, func() {})
	}
	if got := s.Kicks() - before; got != 0 {
		t.Fatalf("arming 8 later deadlines woke the driver %d times", got)
	}
	if s.Pending() != 9 {
		t.Fatalf("pending = %d, want 9", s.Pending())
	}
}

func TestEarlierDeadlineWakesDriverAndFiresOnTime(t *testing.T) {
	s := newSet(t)
	s.After(time.Hour, func() {})
	before := s.Kicks()
	done := make(chan time.Time, 1)
	start := time.Now()
	s.After(10*time.Millisecond, func() { done <- time.Now() })
	if got := s.Kicks() - before; got != 1 {
		t.Fatalf("arming a new earliest deadline woke the driver %d times, want 1", got)
	}
	select {
	case at := <-done:
		if d := at.Sub(start); d < 10*time.Millisecond || d > 500*time.Millisecond {
			t.Fatalf("fired after %v, want ~10ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("earliest timer never fired")
	}
}

func TestStopAndEveryAcrossQuietArms(t *testing.T) {
	// Timers armed behind the head without a wake still fire in order,
	// a stopped head does not strand them, and a periodic timer keeps its
	// cadence through the one reused host timer.
	s := newSet(t)
	head := s.After(5*time.Millisecond, func() { t.Error("stopped timer fired") })
	fired := make(chan int, 2)
	s.After(20*time.Millisecond, func() { fired <- 1 })
	s.After(30*time.Millisecond, func() { fired <- 2 })
	if !head.Stop() {
		t.Fatal("stop of the pending head returned false")
	}
	var ticks atomic.Int32
	tick := s.Every(2*time.Millisecond, func() { ticks.Add(1) })
	defer tick.Stop()
	for want := 1; want <= 2; want++ {
		select {
		case got := <-fired:
			if got != want {
				t.Fatalf("timer %d fired before timer %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timer %d never fired", want)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for ticks.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := ticks.Load(); n < 3 {
		t.Fatalf("periodic timer ticked %d times, want 3", n)
	}
}
