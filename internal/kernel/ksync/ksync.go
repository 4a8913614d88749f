// Package ksync provides Proto's kernel synchronization primitives:
// spinlocks with interrupt-disable reference counting (Prototype 1's
// evolution from spinlock to refcounted irq on/off), counting semaphores
// (the Prototype 5 syscall surface), and sleeplocks for long-held resources
// like buffer-cache blocks.
package ksync

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"protosim/internal/kernel/sched"
)

// IRQMasker abstracts the per-core interrupt mask (hw.IRQController
// satisfies it) so SpinLock can implement pushcli/popcli semantics.
type IRQMasker interface {
	Mask(core int)
	Unmask(core int)
}

// SpinLock is a kernel spinlock. On a real single-core Prototype 1 it
// degenerates into reference-counted interrupt disabling; here both the
// mutual exclusion and the irq-off refcount are modelled, and the refcount
// bug class (unbalanced push/pop) panics loudly.
type SpinLock struct {
	mu       sync.Mutex
	name     string
	holder   atomic.Int64 // task ID, 0 when free
	acquires atomic.Int64
}

// NewSpinLock names a lock for diagnostics.
func NewSpinLock(name string) *SpinLock { return &SpinLock{name: name} }

// Lock acquires the lock on behalf of task id (0 for IRQ context).
func (l *SpinLock) Lock(taskID int) {
	l.mu.Lock()
	l.holder.Store(int64(taskID))
	l.acquires.Add(1)
}

// Unlock releases the lock.
func (l *SpinLock) Unlock() {
	l.holder.Store(0)
	l.mu.Unlock()
}

// Holder returns the task ID currently holding the lock (0 = free/IRQ).
func (l *SpinLock) Holder() int { return int(l.holder.Load()) }

// Acquires counts lifetime acquisitions (contention diagnostics).
func (l *SpinLock) Acquires() int64 { return l.acquires.Load() }

// IRQGuard is the reference-counted interrupt on/off that Prototype 1
// arrives at after discovering a bare spinlock is overkill on one core:
// nested critical sections push/pop, and interrupts resume only when the
// count returns to zero.
type IRQGuard struct {
	ic   IRQMasker
	core int
	mu   sync.Mutex
	refs int
}

// NewIRQGuard guards one core's interrupt mask.
func NewIRQGuard(ic IRQMasker, core int) *IRQGuard {
	return &IRQGuard{ic: ic, core: core}
}

// Push disables interrupts (idempotent via refcount).
func (g *IRQGuard) Push() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.refs == 0 {
		g.ic.Mask(g.core)
	}
	g.refs++
}

// Pop re-enables interrupts when the refcount drains. Unbalanced pops are
// the classic bug; they panic.
func (g *IRQGuard) Pop() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.refs == 0 {
		panic("ksync: IRQGuard pop without matching push")
	}
	g.refs--
	if g.refs == 0 {
		g.ic.Unmask(g.core)
	}
}

// Depth returns the current nesting depth.
func (g *IRQGuard) Depth() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.refs
}

// Semaphore is a counting semaphore, the primitive Prototype 5 exposes as
// syscalls and on which the user library builds mutexes and condition
// variables (§4.5).
type Semaphore struct {
	mu    sync.Mutex
	count int
	wq    sched.WaitQueue
}

// NewSemaphore creates a semaphore with an initial count.
func NewSemaphore(initial int) *Semaphore {
	if initial < 0 {
		panic("ksync: negative semaphore count")
	}
	return &Semaphore{count: initial}
}

// Wait (P) decrements; the task sleeps while the count is zero. The
// sleep registers on the wait queue before its final count check, so a
// Post landing between the check and the sleep cannot be lost, and it
// stays killable: Wait is a syscall. A waiter killed after a Post chose
// it passes the wake on, so the count never sits above zero with tasks
// still asleep.
func (s *Semaphore) Wait(t *sched.Task) {
	acquired := false
	defer func() {
		if !acquired && s.Value() > 0 {
			s.wq.WakeOne()
		}
	}()
	for !s.TryWait() {
		s.wq.SleepUnlessKillable(t, func() bool { return s.Value() > 0 })
	}
	acquired = true
}

// TryWait decrements without blocking; reports success.
func (s *Semaphore) TryWait() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count > 0 {
		s.count--
		return true
	}
	return false
}

// Post (V) increments and wakes one waiter.
func (s *Semaphore) Post() {
	s.mu.Lock()
	s.count++
	s.mu.Unlock()
	s.wq.WakeOne()
}

// Value reads the current count (diagnostics only).
func (s *Semaphore) Value() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// SleepLock is a long-hold lock whose waiters sleep instead of spinning —
// xv6's sleeplock, used by the buffer cache where a disk read happens under
// the lock, and (since the per-inode locking refactor) by the filesystems'
// inode, pseudo-inode, allocator and rename locks.
//
// The uncontended paths are one CAS each on an atomic state word, the
// futex fast path: Lock swaps free→held, Unlock swaps held→free and
// touches the wait queue only when a waiter has announced itself. A
// contended Lock counts itself a waiter, then sleeps through
// WaitQueue.SleepUnless, which registers it before re-checking the state
// word — so an Unlock that lands in between either sees the waiter count
// and wakes it, or the re-check sees the lock free. Like RWSleepLock, the
// wait is uninterruptible: a kill takes effect at the task's next
// killable checkpoint, never from inside the acquisition.
//
// A SleepLock may carry a Rank (SetRank); ranked locks participate in the
// debug lock-order assertion when SetRankCheck(true) is active.
type SleepLock struct {
	state   atomic.Int32 // sleepFree or sleepHeld
	waiters atomic.Int32 // waiters between announcing a wait and leaving it
	wq      sched.WaitQueue

	// Rank metadata for the debug lock-order checker. Written by SetRank
	// while the lock is free and externally unreachable or quiescent
	// (buffer recycle under the shard lock), read by Lock/LockNested.
	rank  Rank
	order int64
	// holder is the goroutine the checker recorded this lock as held by,
	// so Unlock skips the id lookup. Guarded by rankMu.
	holder int64
}

// Lock acquires for task t, sleeping while held elsewhere. A nil task is
// permitted for host-side contexts (image building, test harnesses) that
// run outside the simulated scheduler; they sleep on the same wait queue,
// parked on the host.
func (l *SleepLock) Lock(t *sched.Task) { l.lock(t, false) }

// LockNested acquires like Lock but tells the rank checker this is a
// tree-protocol acquisition: a lock of the SAME rank as one already held is
// permitted regardless of order key. Used for parent-directory → child
// inode locking, where deadlock freedom comes from the directory tree shape
// (always ancestor before descendant) rather than a total lock order.
func (l *SleepLock) LockNested(t *sched.Task) { l.lock(t, true) }

// SleepLock state-word values.
const (
	sleepFree int32 = iota
	sleepHeld
)

func (l *SleepLock) lock(t *sched.Task, nested bool) {
	var g int64 // goroutine ids start at 1: 0 means unchecked
	if l.rank != RankNone && rankCheckOn.Load() {
		g = goid()
		rankCheckOrder(g, l, nested)
	}
	if !l.state.CompareAndSwap(sleepFree, sleepHeld) {
		l.lockSlow(t)
	}
	if g != 0 {
		// Recorded only once held: a blocked waiter must not claim the
		// holder field of a lock another goroutine still holds.
		rankRecord(g, l)
	}
}

// lockSlow is the contended acquisition: retry the CAS, sleeping between
// attempts. Host contexts (nil t) announce themselves like tasks, so
// Unlock wakes them too.
func (l *SleepLock) lockSlow(t *sched.Task) {
	for !l.state.CompareAndSwap(sleepFree, sleepHeld) {
		l.waiters.Add(1)
		l.wq.SleepUnless(t, func() bool { return l.state.Load() == sleepFree })
		l.waiters.Add(-1)
	}
}

// Unlock releases and, if anyone is waiting, wakes one.
func (l *SleepLock) Unlock() {
	if l.rank != RankNone && rankCheckOn.Load() {
		rankCheckRelease(l, 0)
	}
	if !l.state.CompareAndSwap(sleepHeld, sleepFree) {
		panic("ksync: unlock of unlocked sleeplock")
	}
	if l.waiters.Load() != 0 {
		l.wq.WakeOne()
	}
}

// Held reports whether the lock is taken (diagnostics).
func (l *SleepLock) Held() bool { return l.state.Load() == sleepHeld }

// RWSleepLock is a reader-writer sleeplock: any number of concurrent
// readers, or one writer. Waiters sleep on the scheduler via
// SleepUnless — lost-wakeup-free, and uninterruptible in the D-state
// sense (a kill takes effect at the task's next killable checkpoint,
// never by unwinding out of the acquisition); nil tasks (host-side
// contexts) sleep on the same queue. Writers take priority: once a
// writer is waiting, new readers queue behind it, so a steady stream of
// readers cannot starve the writer.
//
// The filesystems use it for per-mount rename serialization: a
// same-directory rename only touches one directory (already serialized
// by that directory's inode lock) and takes the lock shared, while a
// cross-directory rename — whose deadlock freedom and ancestry checks
// depend on no other rename reshaping the tree mid-flight — takes it
// exclusive. This is the s_vfs_rename_mutex design point: the common
// temp-file-swap pattern runs concurrently per directory, and only the
// rare cross-directory move pays for full serialization.
//
// A ranked RWSleepLock (SetRank) participates in the debug lock-order
// assertion in both modes; read and write acquisitions are tracked
// identically.
type RWSleepLock struct {
	mu      sync.Mutex
	readers int
	writer  bool
	wpend   int // writers waiting; blocks new readers (writer priority)
	wq      sched.WaitQueue

	// sent carries the rank metadata and stands in for the RW lock in the
	// rank checker's held-lock table (the checker tracks *SleepLock).
	sent SleepLock
}

// SetRank assigns the lock's place in the hierarchy, as SleepLock.SetRank.
func (l *RWSleepLock) SetRank(r Rank, order int64) { l.sent.SetRank(r, order) }

// RLock acquires the lock shared, sleeping while a writer holds or awaits it.
//
// The wait uses SleepUnless: registration on the queue precedes the final
// condition check, so a release that fires WakeAll between this caller's
// check and its sleep cannot be lost. The sleep is uninterruptible — a
// Kill wakes the loop but takes effect at the task's next killable
// checkpoint, never unwinding from inside the acquisition.
func (l *RWSleepLock) RLock(t *sched.Task) {
	if l.sent.rank != RankNone && rankCheckOn.Load() {
		g := goid()
		rankCheckOrder(g, &l.sent, false)
		rankRecord(g, &l.sent)
	}
	for {
		l.mu.Lock()
		if !l.writer && l.wpend == 0 {
			l.readers++
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()
		l.wq.SleepUnless(t, func() bool {
			l.mu.Lock()
			ok := !l.writer && l.wpend == 0
			l.mu.Unlock()
			return ok
		})
	}
}

// RUnlock releases a shared hold and wakes waiters (a pending writer may
// now have a clear run).
func (l *RWSleepLock) RUnlock() {
	if l.sent.rank != RankNone && rankCheckOn.Load() {
		rankCheckRelease(&l.sent, goid())
	}
	l.mu.Lock()
	if l.readers <= 0 {
		l.mu.Unlock()
		panic("ksync: RUnlock of rwsleeplock with no readers")
	}
	l.readers--
	l.mu.Unlock()
	l.wq.WakeAll()
}

// Lock acquires the lock exclusive, sleeping while readers or another
// writer hold it. New readers queue behind a waiting writer.
//
// Like RLock, the wait is SleepUnless — lost-wakeup-free and
// uninterruptible. The latter also keeps wpend balanced: a kill delivered
// mid-wait cannot unwind the goroutine between the wpend++ and wpend--,
// which would otherwise block every future shared acquisition forever.
func (l *RWSleepLock) Lock(t *sched.Task) {
	if l.sent.rank != RankNone && rankCheckOn.Load() {
		g := goid()
		rankCheckOrder(g, &l.sent, false)
		rankRecord(g, &l.sent)
	}
	l.mu.Lock()
	l.wpend++
	for l.writer || l.readers > 0 {
		l.mu.Unlock()
		l.wq.SleepUnless(t, func() bool {
			l.mu.Lock()
			ok := !l.writer && l.readers == 0
			l.mu.Unlock()
			return ok
		})
		l.mu.Lock()
	}
	l.wpend--
	l.writer = true
	l.mu.Unlock()
}

// Unlock releases an exclusive hold and wakes all waiters.
func (l *RWSleepLock) Unlock() {
	if l.sent.rank != RankNone && rankCheckOn.Load() {
		rankCheckRelease(&l.sent, goid())
	}
	l.mu.Lock()
	if !l.writer {
		l.mu.Unlock()
		panic("ksync: unlock of unlocked rwsleeplock")
	}
	l.writer = false
	l.mu.Unlock()
	l.wq.WakeAll()
}

// --- debug lock-rank checking ---
//
// The storage stack's sleeplocks form a hierarchy; acquiring against it is
// how filesystem deadlocks are born. The checker enforces, per goroutine:
//
//	rename (FS-wide rename serialization)
//	  < inode (per-inode / pseudo-inode locks; order key = inum / cluster)
//	  < alloc (inode array, block bitmap, FAT — the allocation structures)
//	  < buffer (bcache buffer sleeplocks; order key = LBA)
//	  < blkq (per-device IO request-queue lock, held while queueing a
//	    command for blocks whose buffer locks the submitter already holds)
//
// Within one rank, plain Lock demands a strictly increasing order key
// (bcache claims segments in ascending LBA; Flush locks runs in ascending
// LBA; rename locks unrelated directories in ascending id). LockNested
// waives the order-key demand for tree-protocol acquisitions
// (parent-directory → child), whose deadlock freedom comes from always
// walking ancestor-to-descendant, not from a total order.
//
// Checking is off by default (it costs a goroutine-ID lookup and a global
// map per ranked acquisition) and switched on by the concurrency tests.

// Rank is a level in the storage-stack lock hierarchy. Locks are acquired
// in increasing rank; RankNone opts a lock out of checking.
type Rank int

// Ranks, lowest (acquired first) to highest.
const (
	RankNone Rank = iota
	RankRename
	RankInode
	RankAlloc
	RankBuffer
	// RankBlkq is the per-device IO request-queue lock, below buffer in the
	// hierarchy (acquired after): submitters hold buffer sleeplocks while
	// they queue the device command for those blocks.
	RankBlkq
)

// String names the rank as lock-order violation reports print it ("none"
// for an unranked lock).
func (r Rank) String() string {
	switch r {
	case RankRename:
		return "rename"
	case RankInode:
		return "inode"
	case RankAlloc:
		return "alloc"
	case RankBuffer:
		return "buffer"
	case RankBlkq:
		return "blkq"
	}
	return "none"
}

// SetRank assigns the lock's place in the hierarchy and its within-rank
// order key (inode number, cluster number, LBA). Call while the lock is
// unreachable by other goroutines (construction, buffer recycle under the
// owning shard lock).
func (l *SleepLock) SetRank(r Rank, order int64) {
	l.rank = r
	l.order = order
}

var (
	rankCheckOn atomic.Bool
	rankMu      sync.Mutex
	rankHeld    = make(map[int64][]*SleepLock) // goroutine id -> held ranked locks
)

// SetRankCheck switches the global lock-rank assertion on or off. Turning
// it off clears all tracking state.
func SetRankCheck(on bool) {
	rankCheckOn.Store(on)
	if !on {
		rankMu.Lock()
		rankHeld = make(map[int64][]*SleepLock)
		rankMu.Unlock()
	}
}

// goid parses the current goroutine's ID out of the stack header
// ("goroutine N [..."). Debug path only.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// rankCheckOrder asserts that goroutine g taking l now respects the
// hierarchy. It runs before the acquisition, so an inversion panics
// instead of deadlocking.
func rankCheckOrder(g int64, l *SleepLock, nested bool) {
	rankMu.Lock()
	defer rankMu.Unlock()
	for _, h := range rankHeld[g] {
		if h == l {
			panic(fmt.Sprintf("ksync: recursive acquisition of %v lock (order %d)", l.rank, l.order))
		}
		if h.rank > l.rank {
			panic(fmt.Sprintf("ksync: lock-rank inversion: acquiring %v (order %d) while holding %v (order %d)",
				l.rank, l.order, h.rank, h.order))
		}
		if h.rank == l.rank && !nested && h.order >= l.order {
			panic(fmt.Sprintf("ksync: same-rank order violation: acquiring %v order %d while holding order %d (use ascending order or LockNested for tree descent)",
				l.rank, l.order, h.order))
		}
	}
}

// rankRecord adds l to g's held list and notes g on l for Unlock. An
// RWSleepLock sentinel's readers overwrite each other's note, so their
// releases pass their own id instead.
func rankRecord(g int64, l *SleepLock) {
	rankMu.Lock()
	rankHeld[g] = append(rankHeld[g], l)
	l.holder = g
	rankMu.Unlock()
}

// rankCheckRelease forgets g's hold of l; g 0 means the goroutine
// rankRecord noted on l. Locks taken before checking was enabled are
// simply not found, which is fine.
func rankCheckRelease(l *SleepLock, g int64) {
	rankMu.Lock()
	defer rankMu.Unlock()
	if g == 0 {
		g = l.holder
	}
	held := rankHeld[g]
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == l {
			held = append(held[:i], held[i+1:]...)
			break
		}
	}
	if len(held) == 0 {
		delete(rankHeld, g)
	} else {
		rankHeld[g] = held
	}
}
