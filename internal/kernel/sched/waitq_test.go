package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds, failing the test after a deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestWaitQueueHostAndTaskWaitersShareOneFIFO queues host goroutines and
// tasks alternately on one queue. WakeOne must wake them in the order
// they registered, whichever kind each is, and WakeAll must wake a mixed
// queue in one call.
func TestWaitQueueHostAndTaskWaitersShareOneFIFO(t *testing.T) {
	s := newTestSched(t, 2, RunqueueGlobal)
	var wq WaitQueue
	never := func() bool { return false }
	var mu sync.Mutex
	var order []string
	woke := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}
	woken := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(order)
	}
	names := []string{"host0", "task1", "host2", "task3"}
	for i, name := range names {
		if i%2 == 0 {
			go func() {
				wq.SleepUnless(nil, never)
				woke(name)
			}()
		} else {
			s.Go(name, 0, func(t *Task) {
				wq.SleepUnless(t, never)
				woke(name)
			})
		}
		waitFor(t, name+" to register", func() bool { return wq.Waiting() == i+1 })
	}
	for i := range names {
		if !wq.WakeOne() {
			t.Fatalf("WakeOne %d found no waiter", i)
		}
		waitFor(t, "a waiter to return", func() bool { return woken() == i+1 })
	}
	for i, name := range names {
		if order[i] != name {
			t.Fatalf("wake order %v, want %v", order, names)
		}
	}

	order = nil
	for i, name := range names {
		if i%2 == 0 {
			go func() {
				wq.SleepUnless(nil, never)
				woke(name)
			}()
		} else {
			s.Go(name, 0, func(t *Task) {
				wq.SleepUnless(t, never)
				woke(name)
			})
		}
	}
	waitFor(t, "every waiter to register", func() bool { return wq.Waiting() == len(names) })
	if n := wq.WakeAll(); n != len(names) {
		t.Fatalf("WakeAll woke %d, want %d", n, len(names))
	}
	waitFor(t, "every waiter to return", func() bool { return woken() == len(names) })
}

// TestWaitQueueHostNoLostWakeup: a host waiter must be on the queue
// before its last check of the condition. First a waker is made to run
// exactly between that check, which reads "not yet", and the sleep: the
// waiter must still wake. Then several sleepers race two wakers, so under
// -race a sleeper that appended into the array a WakeAll is still walking
// would show up too.
func TestWaitQueueHostNoLostWakeup(t *testing.T) {
	var wq WaitQueue
	returned := make(chan struct{})
	go func() {
		wq.SleepUnless(nil, func() bool {
			woken := make(chan struct{})
			go func() {
				wq.WakeAll()
				close(woken)
			}()
			<-woken
			return false
		})
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("a wake between the host waiter's check and its sleep was lost")
	}

	const sleepers = 4
	for i := 0; i < 500; i++ {
		var wq WaitQueue
		var flag atomic.Bool
		var wg sync.WaitGroup
		for j := 0; j < sleepers; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !flag.Load() {
					wq.SleepUnless(nil, flag.Load)
				}
			}()
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			wq.WakeAll()
			flag.Store(true)
			wq.WakeAll()
		}()
		go func() {
			defer wg.Done()
			wq.WakeAll()
		}()
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: a host waiter missed its wake-up", i)
		}
	}
}

// TestWaitQueueWarmCycleAllocatesNothing ping-pongs two tasks through
// SleepUnless and WakeAll. Once the queues' waiter arrays exist, a round
// trip must not allocate: WakeAll hands its walked array back as the
// spare instead of dropping it.
func TestWaitQueueWarmCycleAllocatesNothing(t *testing.T) {
	s := newTestSched(t, 2, RunqueueGlobal)
	const rounds = 100
	var ping, pong WaitQueue
	var turn atomic.Int64 // even: ping's turn; odd: pong's
	start, done := make(chan struct{}), make(chan struct{})
	quit := make(chan struct{})
	// The two players wait on separate queues, with their done checks
	// built once so the measured loop allocates no closures of its own.
	pingTurn := func() bool { return turn.Load()%2 == 0 }
	pongTurn := func() bool { return turn.Load()%2 == 1 }
	s.Go("ping", 0, func(t *Task) {
		for {
			select {
			case <-start:
			case <-quit:
				return
			}
			for r := 0; r < rounds; r++ {
				for !pingTurn() {
					ping.SleepUnless(t, pingTurn)
				}
				turn.Add(1)
				pong.WakeAll()
			}
			for !pingTurn() {
				ping.SleepUnless(t, pingTurn)
			}
			done <- struct{}{}
		}
	})
	s.Go("pong", 0, func(t *Task) {
		for {
			for !pongTurn() {
				pong.SleepUnless(t, pongTurn)
				select {
				case <-quit:
					return
				default:
				}
			}
			turn.Add(1)
			ping.WakeAll()
		}
	})
	cycle := func() {
		start <- struct{}{}
		<-done
	}
	cycle() // warm: the queues' arrays and the runqueue reach their size
	allocs := testing.AllocsPerRun(20, cycle)
	close(quit)
	pong.WakeAll()
	if allocs != 0 {
		t.Fatalf("%v allocations per %d warm round trips, want 0", allocs, rounds)
	}
}
