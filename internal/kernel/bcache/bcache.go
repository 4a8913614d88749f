package bcache

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"protosim/internal/kernel/blkq"
	"protosim/internal/kernel/errseq"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/ksync"
	"protosim/internal/kernel/ktime"
	"protosim/internal/kernel/sched"
)

// errShardFull reports transient buffer exhaustion: every buffer in the
// shard is pinned by in-flight operations, or (with the daemon running)
// every unpinned one is dirty. It is internal — claim paths sleep on the
// shard's wait queue until an unpin makes room, then retry, because pins
// are transient (a claim releases as soon as its device command
// completes), so capacity reappears on its own. The volume-lock era could
// never see this (one operation in flight per mount); per-inode locking
// makes overlapping claims routine.
var errShardFull = errors.New("bcache: all buffers in shard referenced")

// Defaults. DefaultBuffers is deliberately far above xv6's NBUF=30: the
// sharded cache is meant to hold working sets (a WAD plus level data, a
// FAT plus hot directory sectors), not just in-flight blocks. 4096 buffers
// is 2 MB over the 512 B SD card sectors.
const (
	DefaultBuffers   = 4096 // total buffers across all shards
	DefaultShards    = 8
	DefaultReadahead = 32 // blocks pulled in behind a sequential miss

	// Xv6Buffers reproduces xv6's NBUF for the paper's baseline mode:
	// pair it with Shards: 1 to get the original single-structure cache.
	Xv6Buffers = 30

	// maxWritebackRun caps how many buffer locks Flush holds at once while
	// assembling one batched write command.
	maxWritebackRun = 128

	// DefaultWritebackRatio is the dirty-buffer percentage that wakes the
	// writeback daemon ahead of its age interval.
	DefaultWritebackRatio = 25

	// DefaultFlushInterval is the daemon's age bound: no buffer stays
	// dirty longer than roughly this once a daemon runs.
	DefaultFlushInterval = 50 * time.Millisecond

	// giveUpWrites is the per-buffer writeback-failure budget: after this
	// many failed attempts (or one fatal error — a dead device, a
	// persistent bad sector) the cache stops retrying the buffer. The
	// error stays recorded on its errseq streams, the contents stay valid
	// in memory, but the dirty bit is dropped so kflushd does not spin on
	// a block that will never land. Without a give-up, a dead device turns
	// the daemon into a busy-loop and StopDaemon into a hang.
	giveUpWrites = 3

	// readRetries is how many extra attempts devRead makes when the
	// device reports a transient error that the request queue below gave
	// back (its own retry budget spent, or retries disabled).
	readRetries = 2
)

// WritePolicy selects what WriteRange does with the device.
type WritePolicy int

// Write policies.
const (
	// WritePolicyBehind (default): WriteRange installs dirty buffers and
	// returns; the device sees the data at daemon writeback, eviction, or
	// Flush. Repeated writes to the same blocks cost one writeback.
	WritePolicyBehind WritePolicy = iota
	// WritePolicyThrough: every WriteRange issues its device command
	// and waits for it before returning — the synchronous baseline.
	WritePolicyThrough
)

// Options configures NewWithOptions. Zero values select defaults.
type Options struct {
	// Buffers is the total buffer count, split evenly across shards.
	Buffers int
	// Shards is the shard count; it is clamped so every shard holds at
	// least one buffer.
	Shards int
	// Readahead is how many blocks a sequential ReadRange miss pulls in
	// beyond the requested range. 0 selects DefaultReadahead; negative
	// disables readahead.
	Readahead int
	// Policy selects write-behind (default) or write-through.
	Policy WritePolicy
	// WritebackRatio is the dirty percentage that wakes the daemon early
	// (0 = DefaultWritebackRatio; negative disables the ratio trigger).
	WritebackRatio int
	// FlushInterval is the daemon's age bound (0 = DefaultFlushInterval).
	FlushInterval time.Duration
	// OnGiveUp, when set, is invoked each time the cache abandons a dirty
	// buffer whose writeback cannot succeed (per-buffer failure budget
	// exhausted, or a fatal device error). The mount uses it to flip
	// degraded / read-only state. Called with the failing buffer's
	// sleeplock held — the hook must not call back into the cache; record
	// the fact and return.
	OnGiveUp func(lba int, err error)
}

// Buf is one cached block. Callers hold the buffer (its sleeplock) between
// Get and Release.
type Buf struct {
	lba   int
	valid bool
	dirty bool
	refs  int
	lock  ksync.SleepLock
	Data  []byte

	// owner is the errseq stream of the file whose write last dirtied this
	// buffer (nil for unowned metadata); asynchronous writeback failures
	// advance it. Written under the shard lock by writers holding the
	// buffer sleeplock, like valid/dirty, so either lock suffices to read.
	owner *Owner

	// fails counts consecutive writeback failures of this buffer; at
	// giveUpWrites the cache abandons the write (see writebackFailed).
	// Guarded by the buffer's sleeplock, which every writeback path holds
	// across its device command.
	fails int

	// nosteal marks a buffer frozen by a journal: its contents belong to
	// an uncommitted transaction and must NOT reach the device until the
	// transaction's log copy is durable. Every writeback path (Flush, the
	// daemon, FlushOwner, FlushBlocks) skips frozen buffers; Freeze holds
	// an extra reference so the buffer never reaches the eviction paths
	// either. Guarded by the shard lock, like valid/dirty.
	nosteal bool

	// Intrusive LRU links; a buffer is on its shard's LRU list exactly
	// when refs == 0. Guarded by the shard lock.
	prev, next *Buf
}

// LBA returns which block the buffer holds.
func (b *Buf) LBA() int { return b.lba }

// Lock acquires the buffer's sleeplock outside the Get/Release pairing.
// The journal's commit path uses it to copy and thaw batch buffers it
// pinned with Freeze; ordinary callers should use Get/Release. The same
// rank rules apply: at most one buffer lock per task unless acquired in
// ascending LBA order.
func (b *Buf) Lock(t *sched.Task) { b.lock.Lock(t) }

// Unlock releases the buffer's sleeplock (pairs with Lock).
func (b *Buf) Unlock() { b.lock.Unlock() }

// shard is one independent slice of the cache: its own lock, map and LRU.
type shard struct {
	mu   sync.Mutex
	bufs map[int]*Buf // lba -> buffer (pinned or LRU)
	max  int          // buffer budget
	n    int          // buffers allocated so far

	// LRU list of unreferenced buffers; head is the eviction candidate.
	head, tail *Buf

	// Claims that found the shard full sleep on wq (awaitRoom) until a
	// buffer's refs drop to 0. frees counts those drops, so a claim can
	// tell a release since its failure from one that came before it;
	// sleepers counts the claims, so an unpin wakes wq only when someone
	// waits.
	frees    uint64
	sleepers int
	wq       sched.WaitQueue
}

// unrefLocked drops one reference and reports whether that freed the
// buffer. At zero the buffer joins the LRU, at the front (the next
// eviction candidate) or the back, and counts in frees. Caller holds s.mu.
func (s *shard) unrefLocked(b *Buf, front bool) (freed bool) {
	b.refs--
	if b.refs > 0 {
		return false
	}
	if front {
		s.lruPushFront(b)
	} else {
		s.lruPushBack(b)
	}
	s.frees++
	return true
}

func (s *shard) lruPushBack(b *Buf) {
	b.prev, b.next = s.tail, nil
	if s.tail != nil {
		s.tail.next = b
	} else {
		s.head = b
	}
	s.tail = b
}

func (s *shard) lruPushFront(b *Buf) {
	b.prev, b.next = nil, s.head
	if s.head != nil {
		s.head.prev = b
	} else {
		s.tail = b
	}
	s.head = b
}

func (s *shard) lruRemove(b *Buf) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		s.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		s.tail = b.prev
	}
	b.prev, b.next = nil, nil
}

func (s *shard) lruPopFront() *Buf {
	b := s.head
	if b != nil {
		s.lruRemove(b)
	}
	return b
}

// Cache is the sharded buffer cache over one block device's request
// queue: every device command the cache issues goes through q.
type Cache struct {
	q         fs.QueuedBlockDevice
	blockSize int
	shards    []*shard
	readahead int

	writeBehind   bool
	ratioTrigger  int // dirty-buffer count that wakes the daemon; 0 = off
	flushInterval time.Duration

	// lastReadEnd is the block one past the previous ReadRange, the
	// sequentiality signal that gates readahead: only a request picking
	// up exactly where the last one ended looks like a streaming scan.
	lastReadEnd atomic.Int64

	// dirty counts valid+dirty buffers; maintained by setFlags, read by
	// the ratio trigger and /proc/diskstats.
	dirty atomic.Int64

	// devErr is the device-wide writeback-error stream: every asynchronous
	// write failure advances it (alongside the failing buffer's per-file
	// Owner stream), and Flush — the whole-device barrier behind volume
	// Sync and SysSync — is its single observer. Errseq semantics: each
	// failure epoch is reported exactly once, even if the retry succeeded.
	devErr errseq.Stream

	// onGiveUp is Options.OnGiveUp (abandoned-writeback notification).
	onGiveUp func(lba int, err error)

	// idleHook, when set, runs after each daemon writeback pass — the
	// journal registers its opportunistic checkpoint here ("checkpoint on
	// kflushd idle"). Set before the daemon starts; never changed after.
	idleHook func(t *sched.Task)

	// Writeback-daemon state. daemonOn gates the eviction handoff; the
	// daemon sleeps on daemonWQ whether it runs as a task or on a host
	// goroutine, and closes doneCh when it exits.
	daemonOn   atomic.Bool
	daemonKick atomic.Bool
	daemonStop atomic.Bool
	daemonWQ   sched.WaitQueue
	doneCh     chan struct{}

	// Pools for steady-state IO: claimed-segment slices and the scratch
	// blocks the cache-fill-only read path needs, so the hot paths stop
	// allocating per call.
	segPool     sync.Pool
	scratchPool sync.Pool

	hits, misses, evictions, writebacks atomic.Int64
	rangeOps, rangeBlocks, readaheads   atomic.Int64
	flushBatches, daemonFlushes         atomic.Int64
	giveUps, readRetried                atomic.Int64
}

// New returns a cache of n buffers over dev with default sharding.
func New(dev fs.BlockDevice, n int) *Cache {
	return NewWithOptions(dev, Options{Buffers: n})
}

// NewWithOptions returns a cache configured by opts. A device that is not
// already a request queue gets one of its own, without anticipatory
// plugging: a cache with no kernel timer source dispatches each request
// as it comes, so its device traffic stays deterministic.
func NewWithOptions(dev fs.BlockDevice, opts Options) *Cache {
	bufs := opts.Buffers
	if bufs <= 0 {
		bufs = DefaultBuffers
	}
	nsh := opts.Shards
	if nsh <= 0 {
		nsh = DefaultShards
	}
	if nsh > bufs {
		nsh = bufs // every shard gets at least one buffer
	}
	ra := opts.Readahead
	switch {
	case ra == 0:
		ra = DefaultReadahead
	case ra < 0:
		ra = 0
	}
	q, ok := dev.(fs.QueuedBlockDevice)
	if !ok {
		q = blkq.New(dev, blkq.Options{PlugDelay: -1})
	}
	c := &Cache{
		q:           q,
		blockSize:   dev.BlockSize(),
		readahead:   ra,
		writeBehind: opts.Policy == WritePolicyBehind,
		doneCh:      make(chan struct{}),
	}
	c.onGiveUp = opts.OnGiveUp
	ratio := opts.WritebackRatio
	switch {
	case ratio == 0:
		ratio = DefaultWritebackRatio
	case ratio < 0:
		ratio = 0
	}
	if ratio > 0 {
		c.ratioTrigger = bufs * ratio / 100
		if c.ratioTrigger < 1 {
			c.ratioTrigger = 1
		}
	}
	c.flushInterval = opts.FlushInterval
	if c.flushInterval <= 0 {
		c.flushInterval = DefaultFlushInterval
	}
	c.lastReadEnd.Store(-1)
	c.segPool.New = func() any {
		s := make([]*Buf, 0, maxWritebackRun)
		return &s
	}
	c.scratchPool.New = func() any {
		s := make([]byte, maxWritebackRun*c.blockSize)
		return &s
	}
	for i := 0; i < nsh; i++ {
		max := bufs / nsh
		if i < bufs%nsh {
			max++
		}
		c.shards = append(c.shards, &shard{bufs: make(map[int]*Buf), max: max})
	}
	return c
}

// devRead issues a device read through the request queue, which sleeps
// the task until the completion IRQ. Transient device errors are retried
// a bounded number of times — persistent ones (bad sector, dead device)
// are not, since retrying cannot help.
func (c *Cache) devRead(t *sched.Task, lba, n int, dst []byte) error {
	for attempt := 0; ; attempt++ {
		err := c.q.ReadBlocksT(t, lba, n, dst)
		if err == nil || attempt >= readRetries || !errors.Is(err, fs.ErrSDInjected) {
			return err
		}
		c.readRetried.Add(1)
	}
}

func (c *Cache) shard(lba int) *shard { return c.shards[lba%len(c.shards)] }

// Shards reports the shard count.
func (c *Cache) Shards() int { return len(c.shards) }

// Buffers reports the total buffer budget.
func (c *Cache) Buffers() int {
	n := 0
	for _, s := range c.shards {
		n += s.max
	}
	return n
}

// Device exposes the request queue the cache issues its commands through.
// The journal writes its install-from-log blocks through it; normal IO
// goes through the cache.
func (c *Cache) Device() fs.QueuedBlockDevice { return c.q }

// Get returns the locked buffer holding block lba, reading it from the
// device on a miss. The caller must Release it. Concurrent Gets of the same
// block converge on one buffer — the identity property a buffer cache must
// provide (two buffers aliasing one disk block is the classic bug).
func (c *Cache) Get(t *sched.Task, lba int) (*Buf, error) {
	for {
		b, frees, err := c.pin(t, lba)
		if err == errShardFull {
			// Transient: racing claims hold the whole shard. They hold no
			// lock we own (a Get pins before locking anything), so
			// sleeping until one drains cannot deadlock.
			c.awaitRoom(t, lba, frees)
			continue
		}
		if err != nil {
			return nil, err
		}
		if err := c.lockAndFill(t, b, lba); err != nil {
			return nil, err
		}
		return b, nil
	}
}

// lockAndFill locks a pinned buffer and, if it holds no valid data (fresh
// install, or a predecessor's fill failed), reads it from the device. On
// error the buffer is unlocked and unpinned.
func (c *Cache) lockAndFill(t *sched.Task, b *Buf, lba int) error {
	b.lock.Lock(t)
	if !b.valid {
		if err := c.devRead(t, lba, 1, b.Data); err != nil {
			b.lock.Unlock()
			c.unpin(b)
			return err
		}
		c.setFlags(b, true, b.dirty)
	}
	return nil
}

// tryPin takes a reference on lba's buffer if one is present, in a single
// shard-lock critical section. The buffer may be invalid; callers lock
// and fill it. Returns nil when the block is not cached.
func (c *Cache) tryPin(lba int) *Buf {
	s := c.shard(lba)
	s.mu.Lock()
	b, ok := s.bufs[lba]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	if b.refs == 0 {
		s.lruRemove(b)
	}
	b.refs++
	s.mu.Unlock()
	return b
}

// setFlags updates a pinned buffer's valid/dirty bits under its shard
// lock, leaving the owner tag alone. The flags are read under the shard
// lock by pin's eviction check and Flush's dirty snapshot, so writes must
// not race past it; the caller holds the buffer's sleeplock, which orders
// the flag change with the Data it describes. Transitions in and out of
// the valid+dirty state maintain the cache-wide dirty count; crossing the
// writeback ratio wakes the daemon.
func (c *Cache) setFlags(b *Buf, valid, dirty bool) {
	c.setState(b, valid, dirty, false, nil)
}

// setFlagsOwned is setFlags plus an ownership transfer: the buffer's
// error stream becomes o's (nil for unowned metadata). Last writer wins —
// files never share data blocks, so the tag only ever moves between one
// file and the metadata pool.
func (c *Cache) setFlagsOwned(b *Buf, valid, dirty bool, o *Owner) {
	c.setState(b, valid, dirty, true, o)
}

func (c *Cache) setState(b *Buf, valid, dirty, setOwner bool, o *Owner) {
	s := c.shard(b.lba)
	s.mu.Lock()
	was := b.valid && b.dirty
	oldOwner := b.owner
	b.valid = valid
	b.dirty = dirty
	if setOwner {
		b.owner = o
	}
	newOwner := b.owner
	now := valid && dirty
	lba := b.lba
	s.mu.Unlock()
	// Per-owner dirty-list maintenance. The caller holds the buffer's
	// sleeplock (the setFlags contract), so per-buffer transitions are
	// ordered and the lists track buffer state exactly: an LBA is on an
	// owner's list iff its buffer is valid+dirty and tagged with it.
	if oldOwner != nil && was && (!now || newOwner != oldOwner) {
		oldOwner.removeDirty(lba)
	}
	if newOwner != nil && now && (!was || newOwner != oldOwner) {
		newOwner.addDirty(lba)
	}
	if now == was {
		return
	}
	if !now {
		c.dirty.Add(-1)
		return
	}
	if d := c.dirty.Add(1); c.ratioTrigger > 0 && d >= int64(c.ratioTrigger) {
		c.kickDaemon()
	}
}

// pin finds or installs the buffer for lba and takes a reference on it.
// The returned buffer may be invalid; the caller fills it under its
// sleeplock. A dirty eviction victim stays visible in the map until its
// writeback completes, so a concurrent Get of the evicted block can never
// read stale data from the device. With errShardFull it also returns the
// shard's frees count at the failure, for awaitRoom.
func (c *Cache) pin(t *sched.Task, lba int) (*Buf, uint64, error) {
	s := c.shard(lba)
	missed := false
	s.mu.Lock()
	for {
		if b, ok := s.bufs[lba]; ok {
			// Present: same as tryPin, but under the lock already held
			// so the miss path's re-check is atomic with the claim.
			if b.refs == 0 {
				s.lruRemove(b)
			}
			b.refs++
			if !missed {
				c.hits.Add(1)
			}
			s.mu.Unlock()
			return b, 0, nil
		}
		if !missed {
			missed = true
			c.misses.Add(1)
		}

		// Room in the budget: allocate a fresh buffer.
		if s.n < s.max {
			b := &Buf{lba: lba, refs: 1, Data: make([]byte, c.blockSize)}
			b.lock.SetRank(ksync.RankBuffer, int64(lba))
			s.n++
			s.bufs[lba] = b
			s.mu.Unlock()
			return b, 0, nil
		}

		// Recycle an unreferenced buffer. With a writeback daemon running,
		// eviction never writes inline: it takes the least-recently-used
		// CLEAN buffer and, if only dirty ones remain, hands the shard to
		// the daemon (kick + errShardFull) — the caller sleeps until the
		// daemon's writeback unpins a cleaned victim, and the writer that
		// made the buffers dirty never stalls behind an unrelated
		// writeback.
		daemon := c.daemonOn.Load()
		var v *Buf
		if daemon {
			// First clean buffer in LRU order; dirty ones keep their place.
			for b := s.head; b != nil; b = b.next {
				if !b.dirty || !b.valid {
					v = b
					break
				}
			}
			if v != nil {
				s.lruRemove(v)
			}
		} else {
			v = s.lruPopFront()
		}
		if v == nil {
			frees := s.frees
			s.mu.Unlock()
			if daemon {
				c.kickDaemon()
			}
			return nil, frees, errShardFull
		}
		if !v.dirty || !v.valid {
			delete(s.bufs, v.lba)
			if v.valid {
				c.evictions.Add(1)
			}
			v.lba = lba
			v.lock.SetRank(ksync.RankBuffer, int64(lba))
			v.valid = false
			v.dirty = false
			v.owner = nil
			v.refs = 1
			s.bufs[lba] = v
			s.mu.Unlock()
			return v, 0, nil
		}

		// Dirty victim, no daemon: write it back while it stays in the map
		// (pinned), then retry. A racing Get of the victim's block pins it
		// too and waits on its sleeplock, so it observes the cached data,
		// never a stale device copy. A failure advances the victim's error
		// streams — the caller here is some unlucky evictor, and the file
		// whose data failed to land must still hear it at fsync — and an
		// unwritable victim is given up, so eviction does not keep
		// tripping over the same doomed buffer.
		v.refs = 1
		s.mu.Unlock()
		err := c.flushQueued(t, []int{v.lba}, false)
		s.mu.Lock()
		// Front, not back: the cleaned victim should be the next eviction
		// candidate, not outlive hotter buffers. WakeAll takes no shard
		// lock, so waking under s.mu is safe.
		if s.unrefLocked(v, true) && s.sleepers > 0 {
			s.wq.WakeAll()
		}
		if err != nil {
			s.mu.Unlock()
			return nil, 0, err
		}
		// Loop: the victim is clean now (or claimed by a racer, in which
		// case the next LRU pop finds another candidate).
	}
}

// unpin drops a reference; at zero the buffer goes to the LRU tail, and
// claims sleeping for room in its shard wake. It reports whether the
// buffer was freed.
func (c *Cache) unpin(b *Buf) bool {
	s := c.shard(b.lba)
	s.mu.Lock()
	if b.refs <= 0 {
		s.mu.Unlock()
		panic("bcache: release of unreferenced buffer")
	}
	freed := s.unrefLocked(b, false)
	wake := freed && s.sleepers > 0
	s.mu.Unlock()
	if wake {
		s.wq.WakeAll()
	}
	return freed
}

// awaitRoom sleeps after a claim found lba's shard full, until some
// buffer there is freed: until the shard's frees count moves past seen,
// its value at the failure plus the claim's own releases since. A claim
// that counted its own released pins as room would retry at once, fail
// at the same block and never sleep, holding its core. The claim holds
// no pins here. It counts itself a sleeper before it registers on the
// queue, so a later free either sees the count and wakes it, or the
// re-check sees frees move.
func (c *Cache) awaitRoom(t *sched.Task, lba int, seen uint64) {
	s := c.shard(lba)
	s.mu.Lock()
	s.sleepers++
	s.mu.Unlock()
	s.wq.SleepUnless(t, func() bool {
		s.mu.Lock()
		moved := s.frees != seen
		s.mu.Unlock()
		return moved
	})
	s.mu.Lock()
	s.sleepers--
	s.mu.Unlock()
}

// MarkDirty records that the caller modified the buffer — an unowned
// (metadata) write: any async writeback failure lands only on the
// device-wide error stream. The caller must hold the buffer (Get'd, not
// yet Released).
func (c *Cache) MarkDirty(b *Buf) { c.MarkDirtyOwned(b, nil) }

// MarkDirtyOwned is MarkDirty with the writing file's error-stream token:
// if this buffer's asynchronous writeback later fails, the error advances
// o's stream so that file's fsync — and only that file's — reports it.
func (c *Cache) MarkDirtyOwned(b *Buf, o *Owner) {
	c.setFlagsOwned(b, b.valid, true, o)
}

// Release unlocks and unpins a buffer.
func (c *Cache) Release(b *Buf) {
	b.lock.Unlock()
	c.unpin(b)
}

// Freeze marks a buffer dirty and pins it against every writeback and
// eviction path: the write-ahead journal calls it instead of MarkDirty for
// a block recorded in an open transaction, so uncommitted metadata can
// never reach its home location ahead of the commit record (the "nosteal"
// rule). The caller must hold the buffer (Get'd, not yet Released); the
// extra reference Freeze takes survives that Release and is dropped by
// Thaw. Idempotent while frozen.
func (c *Cache) Freeze(b *Buf) {
	c.setFlags(b, true, true)
	s := c.shard(b.lba)
	s.mu.Lock()
	if !b.nosteal {
		b.nosteal = true
		b.refs++
	}
	s.mu.Unlock()
}

// Thaw releases a frozen buffer back to ordinary dirty-buffer life: the
// journal calls it at commit, once the transaction's log copy is durable,
// after which the daemon, Flush, or eviction may write the block home
// whenever convenient (the checkpoint). The caller must hold the buffer's
// sleeplock — like setFlags, so the flush paths' nosteal reads under
// either the shard lock or the sleeplock stay ordered. No-op on an
// unfrozen buffer.
func (c *Cache) Thaw(b *Buf) {
	s := c.shard(b.lba)
	s.mu.Lock()
	if !b.nosteal {
		s.mu.Unlock()
		return
	}
	b.nosteal = false
	s.mu.Unlock()
	c.unpin(b)
}

// Discard unwinds an uncommitted buffer: clean, unfrozen and INVALID, so
// the next Get re-reads the block from the device. The journal's abort
// path calls it for every block of a transaction poisoned by a
// mid-operation device error — the cache copy holds half-applied metadata
// that must never reach the media, and the durable copy on disk is the
// truth again. The caller must hold the buffer's sleeplock (Lock, as in
// the commit path).
func (c *Cache) Discard(b *Buf) {
	c.setFlags(b, false, false)
	c.Thaw(b)
}

// Frozen reports whether the buffer is currently journal-pinned (tests).
func (c *Cache) Frozen(b *Buf) bool {
	s := c.shard(b.lba)
	s.mu.Lock()
	defer s.mu.Unlock()
	return b.nosteal
}

// segmentMax bounds how many blocks a range segment claims at once: the
// lock-holding cap, and half the cache so tiny configurations still fit.
func (c *Cache) segmentMax() int {
	segMax := maxWritebackRun
	if half := c.Buffers() / 2; half < segMax {
		segMax = half
	}
	if segMax < 1 {
		segMax = 1
	}
	return segMax
}

// claimSegment pins and locks blocks [lba, lba+n) in two phases: first
// pin everything (absent blocks get fresh invalid buffers, exactly like
// a Get miss) while holding no sleeplocks — pin may wait on an eviction
// victim's lock, which would invert lock order if we already held some —
// then lock the pinned buffers in ascending LBA order, the same order
// Flush uses.
//
// When concurrent claims exhaust a shard (errShardFull), the whole claim
// is released before it sleeps for room and retries — no hold-and-wait,
// so claims cannot resource-deadlock against each other, and a lone claim
// always fits (segmentMax caps a segment at half the cache), so retries
// terminate once racing claims drain. Real pin errors (device writeback
// failures) abort.
func (c *Cache) claimSegment(t *sched.Task, lba, n int) (*[]*Buf, error) {
	for {
		bufs, full, seen, err := c.tryClaimSegment(t, lba, n)
		if err != errShardFull {
			return bufs, err
		}
		c.awaitRoom(t, full, seen)
	}
}

// tryClaimSegment is one claim attempt. On errShardFull it also returns
// the block whose shard was full and that shard's frees count after the
// attempt released its own pins, for awaitRoom.
func (c *Cache) tryClaimSegment(t *sched.Task, lba, n int) (*[]*Buf, int, uint64, error) {
	sp := c.segPool.Get().(*[]*Buf)
	bufs := (*sp)[:0]
	for i := 0; i < n; i++ {
		b, frees, err := c.pin(t, lba+i)
		if err != nil {
			full := c.shard(lba + i)
			for _, p := range bufs {
				// Once unpinned, p may be recycled for another block.
				if own := c.shard(p.lba) == full; c.unpin(p) && own {
					frees++
				}
			}
			*sp = bufs[:0]
			c.segPool.Put(sp)
			return nil, lba + i, frees, err
		}
		bufs = append(bufs, b)
	}
	for _, b := range bufs {
		b.lock.Lock(t)
	}
	*sp = bufs
	return sp, 0, 0, nil
}

// releaseSegment unlocks and unpins a claimed segment and returns its
// slice to the pool (steady-state range IO allocates nothing: the pooled
// header pointer travels with the claim).
func (c *Cache) releaseSegment(sp *[]*Buf) {
	for _, b := range *sp {
		b.lock.Unlock()
		c.unpin(b)
	}
	c.segPool.Put(sp)
}

// ReadRange reads n blocks starting at lba into dst. Valid cached blocks
// are served from memory; runs of invalid ones are coalesced into single
// device commands that fill the cache on the way through. The whole
// segment is claimed (pinned + locked) across the device reads, so a
// racing writer cannot slip new data onto the device and have this read
// install the pre-write snapshot over it. A request that starts exactly
// where the previous ReadRange ended is a sequential scan: it pulls up to
// Readahead further blocks in behind it. Random reads never pay for
// readahead.
func (c *Cache) ReadRange(t *sched.Task, lba, n int, dst []byte) error {
	bs := c.blockSize
	if len(dst) < n*bs {
		return fmt.Errorf("bcache: range read %d blocks into %d bytes", n, len(dst))
	}
	c.rangeOps.Add(1)
	c.rangeBlocks.Add(int64(n))
	sequential := c.lastReadEnd.Swap(int64(lba+n)) == int64(lba)
	segMax := c.segmentMax()
	missed := 0
	for seg := 0; seg < n; seg += segMax {
		segN := n - seg
		if segN > segMax {
			segN = segMax
		}
		m, err := c.readSegment(t, lba+seg, segN, dst[seg*bs:(seg+segN)*bs])
		missed += m
		if err != nil {
			return err
		}
	}
	// Readahead only for a sequential scan that actually touched the
	// device: a fully warm request implies the window ahead is warm too.
	if sequential && missed > 0 {
		c.readAhead(t, lba+n)
	}
	return nil
}

// readSegment serves one claimed segment: memory for valid buffers,
// coalesced device commands for invalid runs (filling those buffers).
// A nil dst (readahead) fills the cache only, skipping the copies a
// caller-visible read would need. Returns how many blocks came from the
// device.
func (c *Cache) readSegment(t *sched.Task, lba, n int, dst []byte) (int, error) {
	bs := c.blockSize
	sp, err := c.claimSegment(t, lba, n)
	if err != nil {
		return 0, err
	}
	bufs := *sp
	missed := 0
	var scratch *[]byte // pooled, nil-dst (cache-fill-only) mode
	for i := 0; i < n && err == nil; {
		if bufs[i].valid {
			if dst != nil {
				copy(dst[i*bs:(i+1)*bs], bufs[i].Data)
			}
			i++
			continue
		}
		j := i + 1
		for j < n && !bufs[j].valid {
			j++
		}
		run := dst
		if run != nil {
			run = dst[i*bs : j*bs]
		} else {
			if scratch == nil {
				scratch = c.scratchPool.Get().(*[]byte)
			}
			run = (*scratch)[:(j-i)*bs]
		}
		if err = c.devRead(t, lba+i, j-i, run); err == nil {
			missed += j - i
			for k := i; k < j; k++ {
				copy(bufs[k].Data, run[(k-i)*bs:(k-i+1)*bs])
				c.setFlags(bufs[k], true, bufs[k].dirty)
			}
		}
		i = j
	}
	if scratch != nil {
		c.scratchPool.Put(scratch)
	}
	c.releaseSegment(sp)
	return missed, err
}

// readAhead pulls blocks beyond a sequential scan into the cache,
// best-effort: errors are ignored.
func (c *Cache) readAhead(t *sched.Task, start int) {
	ra := c.readahead
	if max := c.q.Blocks(); start+ra > max {
		ra = max - start
	}
	if sm := c.segmentMax(); ra > sm {
		ra = sm
	}
	if ra <= 0 {
		return
	}
	if missed, err := c.readSegment(t, start, ra, nil); err == nil {
		// Count only blocks the device actually supplied, so the stat
		// reflects prefetch work, not already-warm windows.
		c.readaheads.Add(int64(missed))
	}
}

// WriteRange writes n blocks starting at lba from src, unowned: any async
// writeback failure of these blocks lands only on the device-wide error
// stream. Under the default write-behind policy the blocks are installed
// in the cache dirty (write-allocate) and the call returns — the device
// sees them at daemon writeback, eviction, or the next Flush barrier, and
// rewrites of a still-dirty block cost nothing at the device. Under
// write-through the batched device command is issued before returning,
// while the range's buffer sleeplocks are held, so a concurrent Flush or
// eviction of a stale dirty copy can never land after the new data and
// leave the device stale. Segments are capped at maxWritebackRun blocks
// to bound how many locks are held at once.
func (c *Cache) WriteRange(t *sched.Task, lba, n int, src []byte) error {
	return c.WriteRangeOwned(t, lba, n, src, nil)
}

// WriteRangeOwned is WriteRange with the writing file's error-stream
// token: the dirtied buffers are tagged with o, so an asynchronous
// writeback failure is attributed to that file's fsync stream (see Owner)
// and FlushOwner can find the file's dirty blocks.
func (c *Cache) WriteRangeOwned(t *sched.Task, lba, n int, src []byte, o *Owner) error {
	bs := c.blockSize
	if len(src) < n*bs {
		return fmt.Errorf("bcache: range write %d blocks from %d bytes", n, len(src))
	}
	c.rangeOps.Add(1)
	c.rangeBlocks.Add(int64(n))
	segMax := c.segmentMax()
	for seg := 0; seg < n; seg += segMax {
		segN := n - seg
		if segN > segMax {
			segN = segMax
		}
		if err := c.writeSegment(t, lba+seg, segN, src[seg*bs:(seg+segN)*bs], o); err != nil {
			return err
		}
	}
	return nil
}

// writeSegment is one WriteRange segment. The whole segment is claimed
// (pinned + locked, two-phase, see claimSegment) while the cache copies —
// and, write-through, the device command — land, so a concurrent reader
// of any block waits on its sleeplock rather than observing a torn
// segment, and a concurrent Flush of a stale dirty copy cannot land after
// the new data.
func (c *Cache) writeSegment(t *sched.Task, lba, n int, src []byte, o *Owner) error {
	bs := c.blockSize
	sp, err := c.claimSegment(t, lba, n)
	if err != nil {
		return err
	}
	bufs := *sp
	if c.writeBehind {
		// Install dirty; the device catches up at writeback.
		for i, b := range bufs {
			copy(b.Data, src[i*bs:(i+1)*bs])
			c.setFlagsOwned(b, true, true, o)
		}
		c.releaseSegment(sp)
		return nil
	}
	if err = c.q.WriteBlocksT(t, lba, n, src); err == nil {
		// The device holds the new data; make every cached copy match,
		// clean. On error, invalid buffers stay invalid (a later Get
		// re-reads the device) and valid ones keep their old contents.
		for i, b := range bufs {
			copy(b.Data, src[i*bs:(i+1)*bs])
			c.setFlagsOwned(b, true, false, o)
		}
	}
	c.releaseSegment(sp)
	return err
}

// Flush is the whole-device durability barrier (volume Sync, SysSync,
// unmount): every dirty buffer is written back, batched, before it
// returns — and the device-wide error stream is observed, so any
// asynchronous writeback error recorded since the previous barrier
// (daemon or eviction writeback, any file's) is reported here exactly
// once, even if the data has since been rewritten successfully.
func (c *Cache) Flush(t *sched.Task) error {
	err := c.flushDirty(t)
	if werr := c.devErr.Check(); err == nil {
		err = werr
	}
	return err
}

// FlushOwner is the per-file flush half of fsync. It writes back the
// dirty buffers tagged with o (the file's data) plus any caller-named
// metadata blocks (extra: the file's inode block, its directory-entry
// sector). The owned snapshot comes from o's own dirty list — O(dirty-own),
// not a walk of every shard — so fsync of one small file costs the same
// whether the cache holds nothing or a thousand other files' dirt.
//
// FlushOwner does not OBSERVE o's error stream: observation is per open
// file description (fs.OpenFile.Sync observes its own errseq cursor after
// this flush returns), so two descriptors on one inode each report an
// asynchronous failure exactly once. Synchronous failures of the flush
// itself are both returned and recorded on the stream — every observer
// must hear about a write that never landed, not only the caller that
// happened to run the flush.
//
// Unlike Flush, the queued submissions run without an explicit plug: an
// fsync is the lone, latency-sensitive submitter the request queue's
// anticipatory plug (blkq.Options.PlugDelay) exists for — its burst
// accumulates in the anticipatory window and merges, and the first Wait
// releases the window without paying the full delay.
func (c *Cache) FlushOwner(t *sched.Task, o *Owner, extra ...int) error {
	dirty := o.snapshotDirty()
	for _, lba := range extra {
		// Dedupe against the owned snapshot: a window must never lock one
		// buffer twice.
		dup := false
		for _, have := range dirty {
			if have == lba {
				dup = true
				break
			}
		}
		if !dup {
			dirty = append(dirty, lba)
		}
	}
	if len(dirty) == 0 {
		return nil
	}
	sort.Ints(dirty)
	return c.flushQueued(t, dirty, false)
}

// FlushBlocks writes back exactly the named blocks (deduplicated, in
// ascending LBA order) and waits for their completions — the targeted
// durability primitive: the journal's checkpoint and recovery flush the
// logged home blocks with it before zeroing the log header; the
// ordered-writes FAT32 path flushes a new file's data and FAT sectors
// with it before publishing the dirent. Blocks that are absent, clean, or
// frozen are skipped — absent or clean means already durable, frozen
// means some open transaction owns the block and its durability is the
// journal's job, not this caller's.
func (c *Cache) FlushBlocks(t *sched.Task, lbas []int, plugged bool) error {
	if len(lbas) == 0 {
		return nil
	}
	sorted := make([]int, len(lbas))
	copy(sorted, lbas)
	sort.Ints(sorted)
	dirty := sorted[:1]
	for _, lba := range sorted[1:] {
		if lba != dirty[len(dirty)-1] {
			dirty = append(dirty, lba)
		}
	}
	return c.flushQueued(t, dirty, plugged)
}

// flushDirty writes every currently-dirty buffer back: "submit all, wait
// for all completions" — each window's blocks are submitted asynchronously
// under a plug so the elevator merges them into multi-block commands and
// up to the queue depth overlap at the device. Every write failure is
// recorded in the failing buffer's error streams (owner + device-wide) as
// well as returned, so fsync observers hear about it no matter who ran the
// flush.
func (c *Cache) flushDirty(t *sched.Task) error {
	var dirty []int
	for _, s := range c.shards {
		s.mu.Lock()
		for lba, b := range s.bufs {
			if b.valid && b.dirty && !b.nosteal {
				dirty = append(dirty, lba)
			}
		}
		s.mu.Unlock()
	}
	if len(dirty) == 0 {
		return nil
	}
	sort.Ints(dirty)
	return c.flushQueued(t, dirty, true)
}

// flushQueued writes the given dirty blocks back over the request queue.
// Windows of up to maxWritebackRun buffers are locked (ascending LBA, the
// buffer-rank order) and submitted — one request per block, zero-copy out
// of the buffer, merged by the elevator. Each submitted buffer stays
// locked until its own write completes, so it is never marked clean ahead
// of its completion, and is released then rather than when the window's
// last command lands: a FAT sector flushed beside a long data run is free
// again after its own one-block write. Buffers the window locked but did
// not submit are released as soon as submission ends. The call returns
// only after every submitted write has completed. When plugged, each
// window's submissions go out under an explicit Plug/Unplug bracket (the
// batch assemblers: Flush, the daemon); FlushOwner and the daemon-less
// eviction write pass false and lean on the queue's anticipatory plug.
func (c *Cache) flushQueued(t *sched.Task, dirty []int, plugged bool) error {
	var firstErr error
	type sub struct {
		b  *Buf
		tk fs.BlockTicket
	}
	for i := 0; i < len(dirty); i += maxWritebackRun {
		j := i + maxWritebackRun
		if j > len(dirty) {
			j = len(dirty)
		}
		bufs := make([]*Buf, 0, j-i)
		for _, lba := range dirty[i:j] {
			b := c.tryPin(lba)
			if b == nil {
				continue // evicted (and thus written back) since the snapshot
			}
			b.lock.Lock(t)
			bufs = append(bufs, b)
		}
		subs := make([]sub, 0, len(bufs))
		var idle []*Buf // locked but not submitted
		runs := 0
		if plugged {
			c.q.Plug(t)
		}
		for k, b := range bufs {
			if !b.dirty || !b.valid || b.nosteal {
				idle = append(idle, b) // cleaned by a racing writeback, or journal-frozen
				continue
			}
			if k == 0 || bufs[k-1].lba != b.lba-1 {
				runs++ // contiguous-run accounting (flushBatches)
			}
			tk, err := c.q.SubmitWrite(t, b.lba, 1, b.Data)
			if err != nil {
				c.writebackFailed(b, err)
				if firstErr == nil {
					firstErr = err
				}
				idle = append(idle, b)
				continue
			}
			subs = append(subs, sub{b: b, tk: tk})
		}
		if plugged {
			c.q.Unplug(t)
		}
		// Released only now, not inside the loop: the run accounting
		// reads the previous buffer's LBA.
		for _, b := range idle {
			c.Release(b)
		}
		for _, s := range subs {
			if err := s.tk.Wait(t); err != nil {
				// Advance the buffer's error streams so the owning file's
				// fsync and the device barrier both hear about it; the
				// buffer stays dirty for a later retry until its failure
				// budget runs out (then writebackFailed gives it up).
				c.writebackFailed(s.b, err)
				if firstErr == nil {
					firstErr = err
				}
			} else {
				s.b.fails = 0
				c.setFlags(s.b, true, false)
				c.writebacks.Add(1)
			}
			c.Release(s.b)
		}
		c.flushBatches.Add(int64(runs))
	}
	return firstErr
}

// --- asynchronous writeback error streams ---

// noteAsyncWriteErr records a write failure no caller owns: the buffer's
// per-file stream (when the buffer is owned) and the device-wide stream
// both advance, so the file's fsync and the whole-device barrier each
// report it exactly once.
func (c *Cache) noteAsyncWriteErr(o *Owner, err error) {
	if o != nil {
		o.Record(err)
	}
	c.devErr.Record(err)
}

// writebackFailed handles one failed writeback attempt of a dirty
// buffer: the error advances the buffer's error streams, and the buffer
// normally stays dirty so a later pass retries it. But retrying cannot go
// on forever — a buffer over a dead device or a persistent bad sector,
// or one that has exhausted its failure budget, is GIVEN UP: its dirty
// bit drops (contents stay valid in memory, so readers still see the
// data), the abandonment is counted, and the OnGiveUp hook tells the
// mount to degrade. This is what keeps kflushd from spinning on
// unwritable blocks and lets StopDaemon return on a dead device; the
// data loss is not silent — it was recorded on the errseq streams, so
// every fsync observer and the Flush barrier still hear about it.
//
// The caller holds the buffer's sleeplock (and no shard lock).
func (c *Cache) writebackFailed(b *Buf, err error) {
	c.noteAsyncWriteErr(b.owner, err)
	b.fails++
	fatal := errors.Is(err, fs.ErrDeviceDead) || errors.Is(err, fs.ErrBadSector)
	if !fatal && b.fails < giveUpWrites {
		return // still worth retrying; stays dirty
	}
	b.fails = 0
	c.setFlags(b, true, false)
	c.giveUps.Add(1)
	if c.onGiveUp != nil {
		c.onGiveUp(b.lba, err)
	}
}

// GiveUps reports how many dirty buffers the cache has abandoned because
// their writeback could not succeed.
func (c *Cache) GiveUps() int64 { return c.giveUps.Load() }

// ReadRetries reports how many transient read errors devRead absorbed.
func (c *Cache) ReadRetries() int64 { return c.readRetried.Load() }

// WritebackErrPending reports whether the device-wide stream holds a
// write error no Flush has reported yet (diagnostics / tests).
func (c *Cache) WritebackErrPending() bool { return c.devErr.Pending() }

// --- the writeback daemon ---

// RunDaemon is the body of the background writeback daemon — the kernel
// runs it as the kflushd task for each mounted cache; tests may run it on
// a plain goroutine with a nil task, which sleeps on the same wait queue.
// It flushes dirty buffers whenever the dirty ratio crosses
// Options.WritebackRatio (MarkDirty/WriteRange kick it) and at least
// every Options.FlushInterval (the age bound).
// A kicked pass writes back what was dirty when it began; writes that
// keep the count at or above the trigger kick again, so kicks bring the
// count below the trigger and the age bound covers the rest. While it
// runs, eviction hands dirty victims to it instead of writing them
// inline.
//
// after schedules a wakeup through the kernel's timer source (nil:
// ktime.HostAfter). RunDaemon returns after StopDaemon.
func (c *Cache) RunDaemon(t *sched.Task, after ktime.AfterFunc) {
	if after == nil {
		after = ktime.HostAfter
	}
	c.daemonOn.Store(true)
	defer func() {
		c.daemonOn.Store(false)
		// Dirty buffers are victims again: claims sleeping for a clean
		// one can evict them inline now.
		for _, s := range c.shards {
			s.wq.WakeAll()
		}
		close(c.doneCh)
	}()
	for {
		c.daemonWait(t, after)
		if c.daemonStop.Load() {
			return
		}
		if c.dirty.Load() != 0 {
			c.daemonFlushes.Add(1)
			// Nobody waits on this pass; write failures were recorded in
			// the failing buffers' error streams by the flush path itself,
			// the failed buffers stay dirty, and the next round (throttled
			// by the interval) retries them — so the pass's return needs no
			// handling.
			_ = c.flushDirty(t)
		}
		if c.idleHook != nil {
			// The daemon is idle (its pass is done, nothing is waiting on
			// it): let the journal checkpoint committed transactions so the
			// log drains during quiet periods instead of on commit's
			// critical path.
			c.idleHook(t)
		}
	}
}

// SetIdleHook registers fn to run after every daemon writeback pass (the
// journal's checkpoint trigger). Must be called before RunDaemon starts.
func (c *Cache) SetIdleHook(fn func(t *sched.Task)) { c.idleHook = fn }

// daemonWait sleeps until a kick, the age interval, or stop.
func (c *Cache) daemonWait(t *sched.Task, after ktime.AfterFunc) {
	if c.daemonKick.Swap(false) {
		return // kicked while flushing: go again immediately
	}
	// expired keeps an interval timer that fires before the sleep
	// registers from being lost.
	var expired atomic.Bool
	stop := after(c.flushInterval, func() {
		expired.Store(true)
		c.daemonWQ.WakeAll()
	})
	c.daemonWQ.SleepUnless(t, func() bool {
		return expired.Load() || c.daemonKick.Load() || c.daemonStop.Load()
	})
	stop()
	c.daemonKick.Store(false)
}

// kickDaemon wakes the daemon ahead of its interval (ratio crossings,
// eviction pressure). Harmless when no daemon runs.
func (c *Cache) kickDaemon() {
	c.daemonKick.Store(true)
	c.daemonWQ.WakeAll()
}

// StopDaemon signals the daemon to exit and waits for it. Callers must
// have started (or irrevocably scheduled) RunDaemon: the stop flag is
// honoured even by a daemon that has not begun running yet — it exits on
// its first wait — but a cache that never runs RunDaemon at all would
// block here forever. The kernel tracks which caches got daemons;
// calling twice is fine (the second wait returns immediately).
func (c *Cache) StopDaemon() {
	c.daemonStop.Store(true)
	c.daemonWQ.WakeAll()
	<-c.doneCh
}

// DaemonFlushes reports how many background writeback passes have run.
func (c *Cache) DaemonFlushes() int64 { return c.daemonFlushes.Load() }

// DirtyBuffers reports how many valid+dirty buffers the cache holds.
func (c *Cache) DirtyBuffers() int64 { return c.dirty.Load() }

// WriteBehind reports whether the cache runs the write-behind policy.
func (c *Cache) WriteBehind() bool { return c.writeBehind }

// Stats reports single-block cache behaviour: hits, misses (device block
// reads), evictions, and blocks written back (eviction + flush).
func (c *Cache) Stats() (hits, misses, evictions, writebacks int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load(), c.writebacks.Load()
}

// RangeStats reports multi-block activity: range operations served, blocks
// moved by them, and blocks pulled in by readahead.
func (c *Cache) RangeStats() (ops, blocks, readahead int64) {
	return c.rangeOps.Load(), c.rangeBlocks.Load(), c.readaheads.Load()
}

// FlushBatches reports how many batched writeback commands Flush has
// issued (tests assert coalescing through this).
func (c *Cache) FlushBatches() int64 { return c.flushBatches.Load() }
