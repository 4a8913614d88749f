package ksync

import (
	"sync"
	"testing"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestRankCheckAllowsHierarchy(t *testing.T) {
	SetRankCheck(true)
	defer SetRankCheck(false)
	var ren, ino, alloc, buf SleepLock
	ren.SetRank(RankRename, 0)
	ino.SetRank(RankInode, 7)
	alloc.SetRank(RankAlloc, 1)
	buf.SetRank(RankBuffer, 100)

	ren.Lock(nil)
	ino.Lock(nil)
	alloc.Lock(nil)
	buf.Lock(nil)
	buf.Unlock()
	alloc.Unlock()
	ino.Unlock()
	ren.Unlock()
}

func TestRankCheckCatchesInversion(t *testing.T) {
	SetRankCheck(true)
	defer SetRankCheck(false)
	var ino, alloc SleepLock
	ino.SetRank(RankInode, 3)
	alloc.SetRank(RankAlloc, 1)

	alloc.Lock(nil)
	defer alloc.Unlock()
	mustPanic(t, "inode-after-alloc", func() { ino.Lock(nil) })
}

func TestRankCheckSameRankOrdering(t *testing.T) {
	SetRankCheck(true)
	defer SetRankCheck(false)
	var low, high SleepLock
	low.SetRank(RankBuffer, 10)
	high.SetRank(RankBuffer, 20)

	// Ascending order keys are fine (bcache segment claims, Flush runs).
	low.Lock(nil)
	high.Lock(nil)
	high.Unlock()
	low.Unlock()

	// Descending is the deadlock shape — caught.
	high.Lock(nil)
	defer high.Unlock()
	mustPanic(t, "descending same-rank", func() { low.Lock(nil) })
}

func TestRankCheckLockNestedAllowsTreeDescent(t *testing.T) {
	SetRankCheck(true)
	defer SetRankCheck(false)
	var parent, child SleepLock
	parent.SetRank(RankInode, 9) // parent dir with a HIGHER inum than child
	child.SetRank(RankInode, 2)

	parent.Lock(nil)
	child.LockNested(nil) // parent→child protocol: order key waived
	child.Unlock()
	parent.Unlock()
}

func TestRankCheckCatchesRecursion(t *testing.T) {
	SetRankCheck(true)
	defer SetRankCheck(false)
	var l SleepLock
	l.SetRank(RankInode, 1)
	l.Lock(nil)
	defer l.Unlock()
	mustPanic(t, "recursive lock", func() { l.LockNested(nil) })
}

func TestRankCheckOffCostsNothing(t *testing.T) {
	// With checking off, even wrong-order acquisitions are not tracked
	// (production mode): this must not panic.
	var ino, alloc SleepLock
	ino.SetRank(RankInode, 3)
	alloc.SetRank(RankAlloc, 1)
	alloc.Lock(nil)
	ino.Lock(nil)
	ino.Unlock()
	alloc.Unlock()
}

// TestRankCheckContendedChurnLeavesNoHolds: the checker records a lock
// only once it is held and forgets it under the id it recorded, so
// goroutines fighting over the same ranked locks (blocked waiters
// included) leave the held-lock table empty and never trip a false
// order violation.
func TestRankCheckContendedChurnLeavesNoHolds(t *testing.T) {
	SetRankCheck(true)
	defer SetRankCheck(false)
	var ino, buf SleepLock
	var rw RWSleepLock
	ino.SetRank(RankInode, 1)
	rw.SetRank(RankAlloc, 1)
	buf.SetRank(RankBuffer, 1)

	const workers, rounds = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ino.Lock(nil)
				if i%2 == 0 {
					rw.RLock(nil)
					buf.Lock(nil)
					buf.Unlock()
					rw.RUnlock()
				} else {
					buf.Lock(nil)
					buf.Unlock()
				}
				ino.Unlock()
				// Readers share the RW sentinel with each other.
				rw.RLock(nil)
				buf.Lock(nil)
				buf.Unlock()
				rw.RUnlock()
			}
		}()
	}
	wg.Wait()
	rankMu.Lock()
	defer rankMu.Unlock()
	if len(rankHeld) != 0 {
		t.Fatalf("held-lock table not empty after churn: %d goroutines still listed", len(rankHeld))
	}
}
