package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestSched(t *testing.T, cores int, mode RunqueueMode) *Scheduler {
	t.Helper()
	s := New(Config{Cores: cores, Mode: mode})
	s.Start()
	t.Cleanup(func() {
		if err := s.Shutdown(5 * time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func TestTaskRunsAndExits(t *testing.T) {
	s := newTestSched(t, 1, RunqueueGlobal)
	var ran atomic.Bool
	tk := s.Go("hello", 0, func(t *Task) { ran.Store(true) })
	select {
	case <-tk.done:
	case <-time.After(2 * time.Second):
		t.Fatal("task never finished")
	}
	if !ran.Load() {
		t.Fatal("body did not run")
	}
	if tk.State() != StateZombie {
		t.Fatalf("state = %v, want zombie", tk.State())
	}
}

func TestCooperativeInterleaving(t *testing.T) {
	// Two printers on one core must interleave via Yield — Prototype 2's
	// first milestone.
	s := newTestSched(t, 1, RunqueueGlobal)
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	printer := func(name string) TaskFunc {
		return func(t *Task) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				t.Yield()
			}
		}
	}
	wg.Add(2)
	s.Go("a", 0, printer("a"))
	s.Go("b", 0, printer("b"))
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 6 {
		t.Fatalf("order = %v", order)
	}
	// With a single core and FIFO runqueue, strict alternation holds.
	for i := 0; i < 6; i++ {
		want := "a"
		if i%2 == 1 {
			want = "b"
		}
		if order[i] != want {
			t.Fatalf("order = %v, want strict a/b alternation", order)
		}
	}
}

func TestPreemptionViaTick(t *testing.T) {
	s := newTestSched(t, 1, RunqueueGlobal)
	var spun, other atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	spinner := s.Go("spinner", 0, func(t *Task) {
		for !other.Load() {
			spun.Store(true)
			t.CheckPreempt() // checkpoint, as a compute loop must
		}
	})
	s.Go("other", 0, func(t *Task) {
		defer wg.Done()
		other.Store(true)
	})
	// Without a tick the spinner would hog the single core forever;
	// deliver ticks until the other task has run.
	deadline := time.Now().Add(5 * time.Second)
	for !other.Load() && time.Now().Before(deadline) {
		s.Tick(0)
		time.Sleep(100 * time.Microsecond)
	}
	wg.Wait()
	if !other.Load() {
		t.Fatal("tick preemption never let the second task run")
	}
	if spinner.Preemptions() == 0 {
		t.Fatal("spinner shows no involuntary preemptions")
	}
	other.Store(true)
	<-spinner.done
}

func TestPriorityOrdering(t *testing.T) {
	// Fast/slow donuts: a higher-priority runnable task is dispatched
	// before a lower-priority one.
	s := New(Config{Cores: 1, Mode: RunqueueGlobal})
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	wg.Add(2)
	rec := func(name string) TaskFunc {
		return func(t *Task) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			wg.Done()
		}
	}
	// Enqueue before starting the core so the dispatch order is decided
	// purely by priority.
	s.Go("low", 1, rec("low"))
	s.Go("high", 5, rec("high"))
	s.Start()
	wg.Wait()
	defer s.Shutdown(5 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	if order[0] != "high" {
		t.Fatalf("dispatch order = %v, want high first", order)
	}
}

func TestSleepForWakesUp(t *testing.T) {
	s := newTestSched(t, 1, RunqueueGlobal)
	start := time.Now()
	done := make(chan time.Duration, 1)
	s.Go("sleeper", 0, func(t *Task) {
		t.SleepFor(20 * time.Millisecond)
		done <- time.Since(start)
	})
	select {
	case d := <-done:
		if d < 15*time.Millisecond {
			t.Fatalf("woke after %v, want >= ~20ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sleeper never woke")
	}
}

func TestWFIWhenIdle(t *testing.T) {
	s := newTestSched(t, 2, RunqueueGlobal)
	done := make(chan struct{})
	s.Go("blip", 0, func(t *Task) { close(done) })
	<-done
	// Give the cores a moment to go idle.
	time.Sleep(5 * time.Millisecond)
	if s.IdleWFI() == 0 {
		t.Fatal("idle cores never executed WFI")
	}
}

func TestWaitQueueSleepWake(t *testing.T) {
	s := newTestSched(t, 2, RunqueueGlobal)
	var wq WaitQueue
	var got atomic.Int32
	var data atomic.Int32
	consumerDone := make(chan struct{})
	s.Go("consumer", 0, func(t *Task) {
		defer close(consumerDone)
		for data.Load() == 0 { // condition re-check loop
			wq.Sleep(t)
		}
		got.Store(data.Load())
	})
	// Wait until the consumer is blocked.
	deadline := time.Now().Add(2 * time.Second)
	for wq.Waiting() == 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	s.Go("producer", 0, func(t *Task) {
		data.Store(42)
		wq.WakeOne()
	})
	select {
	case <-consumerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never woke")
	}
	if got.Load() != 42 {
		t.Fatalf("got = %d", got.Load())
	}
}

func TestWaitQueueWakeAll(t *testing.T) {
	s := newTestSched(t, 2, RunqueueGlobal)
	var wq WaitQueue
	var release atomic.Bool
	var woke atomic.Int32
	var wg sync.WaitGroup
	const n = 5
	wg.Add(n)
	for i := 0; i < n; i++ {
		s.Go("w", 0, func(t *Task) {
			defer wg.Done()
			for !release.Load() {
				wq.Sleep(t)
			}
			woke.Add(1)
		})
	}
	deadline := time.Now().Add(2 * time.Second)
	for wq.Waiting() < n && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	release.Store(true)
	wq.WakeAll()
	wg.Wait()
	if woke.Load() != n {
		t.Fatalf("woke = %d, want %d", woke.Load(), n)
	}
}

// TestLostWakeupAbsorbed exercises the wakePending path: a wake delivered
// between "publish on queue" and "block" must not be lost. The sleeper
// re-checks the flag after registering (SleepUnless), so a WakeAll that
// runs before registration is caught by the check, and one that runs
// between the check and the block is absorbed by wakePending.
func TestLostWakeupAbsorbed(t *testing.T) {
	s := newTestSched(t, 2, RunqueueGlobal)
	for i := 0; i < 200; i++ {
		var wq WaitQueue
		var flag atomic.Bool
		done := make(chan struct{})
		s.Go("sleeper", 0, func(t *Task) {
			defer close(done)
			for !flag.Load() {
				wq.SleepUnless(t, flag.Load)
			}
		})
		s.Go("waker", 0, func(t *Task) {
			flag.Store(true)
			wq.WakeAll()
		})
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: lost wakeup", i)
		}
	}
}

// TestConcurrentWakesHandOffOnce races many wakers against many sleepers
// on two host threads. Each task bumps a shared tick, wakes everyone, then
// sleeps until somebody else ticks — so a task is often woken by two
// wakers at once, while it is still on its way to sleep. Both hazards of
// that moment must be closed: a wake latched just after the task checked
// the latch is lost, leaving the task asleep with nobody left to wake it;
// and a latched wake consumed after another waker already queued the task
// lets it keep running while a second core waits forever to dispatch it,
// which wedges Shutdown.
func TestConcurrentWakesHandOffOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	s := New(Config{Cores: 4, Mode: RunqueueGlobal})
	s.Start()
	const tasks, rounds = 5, 2000
	var wq WaitQueue
	var tick, finished atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		s.Go("waker", 0, func(t *Task) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				seen := tick.Add(1)
				wq.WakeAll()
				wq.SleepUnless(t, func() bool {
					return tick.Load() != seen || finished.Load() == tasks-1
				})
			}
			finished.Add(1)
			wq.WakeAll()
		})
	}
	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			fn()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s wedged", what)
		}
	}
	within("tasks (a wake was lost)", wg.Wait)
	within("shutdown (a core is stuck dispatching a task that never blocked)", func() {
		if err := s.Shutdown(5 * time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
}

func TestKillSleepingTask(t *testing.T) {
	s := newTestSched(t, 1, RunqueueGlobal)
	var wq WaitQueue
	tk := s.Go("stuck", 0, func(t *Task) {
		for {
			wq.Sleep(t) // nobody will ever wake this
		}
	})
	deadline := time.Now().Add(2 * time.Second)
	for wq.Waiting() == 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	s.Kill(tk)
	select {
	case <-tk.done:
	case <-time.After(5 * time.Second):
		t.Fatal("killed sleeper never unwound")
	}
	if tk.State() != StateZombie {
		t.Fatalf("state = %v", tk.State())
	}
}

func TestKillRunningTask(t *testing.T) {
	s := newTestSched(t, 2, RunqueueGlobal)
	tk := s.Go("loop", 0, func(t *Task) {
		for {
			t.CheckPreempt()
		}
	})
	time.Sleep(2 * time.Millisecond)
	s.Kill(tk)
	select {
	case <-tk.done:
	case <-time.After(5 * time.Second):
		t.Fatal("killed runner never unwound")
	}
}

func TestTaskPanicBecomesZombie(t *testing.T) {
	var paniced atomic.Bool
	s := New(Config{Cores: 1, Mode: RunqueueGlobal, OnPanic: func(t *Task, r any) { paniced.Store(true) }})
	s.Start()
	defer s.Shutdown(5 * time.Second)
	tk := s.Go("crash", 0, func(t *Task) {
		var p *int
		_ = *p // nil deref: the task dies, the kernel survives
	})
	select {
	case <-tk.done:
	case <-time.After(5 * time.Second):
		t.Fatal("crashed task never finalized")
	}
	if !paniced.Load() {
		t.Fatal("OnPanic not invoked")
	}
	// The scheduler still works afterwards.
	ok := make(chan struct{})
	s.Go("after", 0, func(t *Task) { close(ok) })
	select {
	case <-ok:
	case <-time.After(5 * time.Second):
		t.Fatal("scheduler dead after task panic")
	}
}

func TestMulticoreParallelism(t *testing.T) {
	// With 4 cores, 4 compute tasks must make progress concurrently:
	// their busy windows must overlap.
	s := newTestSched(t, 4, RunqueueGlobal)
	var concurrent, peak atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		s.Go("burn", 0, func(t *Task) {
			defer wg.Done()
			c := concurrent.Add(1)
			for {
				if p := peak.Load(); c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(10 * time.Millisecond) // hold the core
			concurrent.Add(-1)
		})
	}
	wg.Wait()
	if peak.Load() < 3 {
		t.Fatalf("peak concurrency = %d, want >= 3 on 4 cores", peak.Load())
	}
}

func TestPerCoreRunqueuePlacement(t *testing.T) {
	s := newTestSched(t, 2, RunqueuePerCore)
	var wg sync.WaitGroup
	cores := make([]atomic.Int32, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		idx := i
		s.Go("t", 0, func(t *Task) {
			defer wg.Done()
			cores[idx].Store(int32(t.Core()))
		})
	}
	wg.Wait()
	seen := map[int32]int{}
	for i := range cores {
		seen[cores[i].Load()]++
	}
	if len(seen) < 2 {
		t.Fatalf("all tasks ran on one core: %v", seen)
	}
}

func TestAccounting(t *testing.T) {
	s := newTestSched(t, 1, RunqueueGlobal)
	done := make(chan struct{})
	tk := s.Go("acct", 0, func(t *Task) {
		deadline := time.Now().Add(5 * time.Millisecond)
		for time.Now().Before(deadline) {
			t.CheckPreempt()
		}
		close(done)
	})
	<-done
	<-tk.done
	if tk.CPUTime() <= 0 {
		t.Fatal("no CPU time accounted")
	}
	if tk.Switches() < 1 {
		t.Fatal("no switches accounted")
	}
}

func TestShutdownWithLiveTasks(t *testing.T) {
	s := New(Config{Cores: 2, Mode: RunqueueGlobal})
	s.Start()
	for i := 0; i < 5; i++ {
		s.Go("spin", 0, func(t *Task) {
			for {
				t.CheckPreempt()
				time.Sleep(time.Microsecond)
			}
		})
	}
	time.Sleep(2 * time.Millisecond)
	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

type busyRecorder struct {
	mu   sync.Mutex
	busy map[int]time.Duration
}

func (b *busyRecorder) AddBusy(core int, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.busy == nil {
		b.busy = map[int]time.Duration{}
	}
	b.busy[core] += d
}

func TestBusyAccountingFlowsToPower(t *testing.T) {
	rec := &busyRecorder{}
	s := New(Config{Cores: 1, Mode: RunqueueGlobal, Power: rec})
	s.Start()
	defer s.Shutdown(5 * time.Second)
	done := make(chan struct{})
	s.Go("burn", 0, func(t *Task) {
		time.Sleep(3 * time.Millisecond)
		close(done)
	})
	<-done
	time.Sleep(time.Millisecond)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.busy[0] <= 0 {
		t.Fatal("no busy time reported to the power accounter")
	}
}
