package ksync

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"protosim/internal/kernel/sched"
)

// twoThreads runs the test's simulated cores on two host threads, so the
// lock and semaphore paths race for real rather than interleaving on one.
func twoThreads(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// waitOrHang fails the test if wg does not finish in time: a lost wake-up
// leaves a task asleep forever rather than failing an assertion.
func waitOrHang(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s wedged: a wake-up was lost", what)
	}
}

// TestSleepLockHandoffStress hammers one SleepLock from more tasks than
// cores, on two host threads, so Unlock constantly races a waiter's
// registration. Every increment must land and nobody may sleep through a
// release.
func TestSleepLockHandoffStress(t *testing.T) {
	twoThreads(t)
	s := newSched(t, 2)
	var l SleepLock
	const tasks, iters = 4, 3000
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		s.Go("locker", 0, func(t *sched.Task) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				l.Lock(t)
				counter++
				if j%64 == 0 {
					t.Yield() // hold across a reschedule now and then
				}
				l.Unlock()
			}
		})
	}
	waitOrHang(t, &wg, "sleeplock handoff")
	if counter != tasks*iters {
		t.Fatalf("counter = %d, want %d", counter, tasks*iters)
	}
	if l.Held() || l.waiters.Load() != 0 {
		t.Fatalf("after the run: held=%v waiters=%d", l.Held(), l.waiters.Load())
	}
}

// TestSemaphorePingPong bounces two tasks off a pair of semaphores on two
// host threads: every Post lands while its peer is between its count
// check and its sleep as often as the interleaving allows. A lost Post
// wedges both tasks.
func TestSemaphorePingPong(t *testing.T) {
	twoThreads(t)
	s := newSched(t, 2)
	ping, pong := NewSemaphore(0), NewSemaphore(0)
	const rounds = 5000
	var wg sync.WaitGroup
	wg.Add(2)
	s.Go("ping", 0, func(t *sched.Task) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			ping.Post()
			pong.Wait(t)
		}
	})
	s.Go("pong", 0, func(t *sched.Task) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			ping.Wait(t)
			pong.Post()
		}
	})
	waitOrHang(t, &wg, "semaphore ping-pong")
	if ping.Value() != 0 || pong.Value() != 0 {
		t.Fatalf("counts after the run: ping=%d pong=%d", ping.Value(), pong.Value())
	}
}

// TestSemaphoreWaitKillable pins that a semaphore wait stays a killable
// syscall sleep, and that the waiter left behind still gets the next Post.
func TestSemaphoreWaitKillable(t *testing.T) {
	s := newSched(t, 2)
	sem := NewSemaphore(0)
	victim := s.Go("victim", 0, func(t *sched.Task) { sem.Wait(t) })
	deadline := time.Now().Add(5 * time.Second)
	for sem.wq.Waiting() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim never slept on the semaphore")
		}
		time.Sleep(time.Millisecond)
	}
	s.Kill(victim)
	select {
	case <-victim.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("killed semaphore waiter did not unwind")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	s.Go("survivor", 0, func(t *sched.Task) {
		defer wg.Done()
		sem.Wait(t)
	})
	sem.Post()
	waitOrHang(t, &wg, "semaphore after a killed waiter")
	if sem.Value() != 0 {
		t.Fatalf("count = %d, want 0", sem.Value())
	}
}
