//go:build goexperiment.synctest

package ksync

import (
	"testing"
	"testing/synctest"
	"time"
)

// bubbleWait runs hold in a synctest bubble, hands the lock to a goroutine
// that releases it after one second of bubble time, and requires wait to
// get the lock after exactly that second. The bubble's clock moves only
// while every goroutine in it is durably blocked, so a host waiter that
// polled instead of sleeping would stop the clock and never get the lock.
func bubbleWait(t *testing.T, hold, release, wait, done func()) {
	t.Helper()
	synctest.Run(func() {
		hold()
		go func() {
			time.Sleep(time.Second)
			release()
		}()
		start := time.Now()
		wait()
		elapsed := time.Since(start)
		done()
		if elapsed != time.Second {
			t.Errorf("host waiter got the lock after %v of bubble time, want 1s", elapsed)
		}
	})
}

func TestBubbleSleepLockHostWaiter(t *testing.T) {
	var l SleepLock
	bubbleWait(t, func() { l.Lock(nil) }, l.Unlock, func() { l.Lock(nil) }, l.Unlock)
}

func TestBubbleRWSleepLockHostReaderWaitsForWriter(t *testing.T) {
	var l RWSleepLock
	bubbleWait(t, func() { l.Lock(nil) }, l.Unlock, func() { l.RLock(nil) }, l.RUnlock)
}

func TestBubbleRWSleepLockHostWriterWaitsForReader(t *testing.T) {
	var l RWSleepLock
	bubbleWait(t, func() { l.RLock(nil) }, l.RUnlock, func() { l.Lock(nil) }, l.Unlock)
}
