// Package jnl is a write-ahead metadata journal in the xv6 logging
// tradition, adapted to live ABOVE a write-behind buffer cache instead of
// xv6's write-through one, and checkpointed lazily in the ext3/jbd2 style.
//
// The contract: a filesystem operation brackets itself with Begin/End and
// Records every metadata block it modifies. Recorded blocks are FROZEN in
// the cache (bcache.Freeze) — valid, dirty, and invisible to every
// writeback path — so uncommitted metadata can never reach its home
// location. When the last outstanding operation Ends, the whole batch
// commits as one transaction (group commit): the frozen blocks are copied
// into a journal-owned buffer and written to the log slots after the ones
// earlier transactions still occupy as ONE request-queue write, and then
// the header block is rewritten to name the home address of EVERY
// occupied slot, in slot order, as a second. That header write is the
// commit point: before it, a crash replays only the earlier transactions
// and this one never happened; after it, recovery replays every slot in
// order (a later copy of a block overwrites an earlier one) and it did.
// Nothing in between is observable. Commit's critical path is those two
// writes.
//
// Like jbd2, which writes its log with its own buffers rather than the
// page cache, the log never passes through the buffer cache: only
// checkpoint installs and Recover read a slot back, straight off the
// queue, so caching slots would only spend buffers and writeback passes.
//
// After commit the blocks are thawed into ordinary dirty buffers. Writing
// them home and then zeroing the header is the CHECKPOINT, and it empties
// the whole log at once. It runs only when it must or when it is free:
// when the next batch would not fit behind the occupied slots, when the
// kflushd daemon's idle hook fires (bcache.SetIdleHook), and at the
// volume's Sync. The one ordering obligation is that every logged
// transaction's home blocks must be durable before the header is zeroed,
// and the header must be zeroed before a slot is reused — otherwise a
// crash would replay the old header over new slot contents.
//
// One wrinkle is unique to the write-behind world: a block committed by
// an earlier transaction may be re-modified (and re-frozen) by the
// still-open batch when a checkpoint runs. Its cache buffer then holds
// uncommitted content and must not be flushed — the latest committed
// content is INSTALLED from its log slot straight to the home address,
// bypassing the cache (installs in Stats counts these).
//
// The other is the jbd2 REVOKE rule. File data is not journaled, so a
// freed metadata block (a directory or indirect block) that a logged
// transaction still names must not be reused for file data: replaying
// that old transaction after a crash would write the stale metadata over
// the new data. Revoke quarantines a freed block; Revoked reports it
// until the freeing transaction has committed AND no transaction still in
// the log names the block — at the next checkpoint at the latest. When
// revoked blocks are the only free ones, Drain empties the log on demand.
package jnl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"protosim/internal/kernel/bcache"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/sched"
)

// Magic identifies a valid log header block.
const Magic = 0x6A6E6C31 // "jnl1"

// DefaultMaxOp is how many distinct metadata blocks one Begin/End bracket
// may Record — xv6's MAXOPBLOCKS. Begin reserves this much log space, so
// a batch never outgrows the slots mid-operation.
const DefaultMaxOp = 10

// ErrTooBig reports an operation that recorded more blocks than one batch
// can hold — a filesystem bug (operations must fit DefaultMaxOp).
var ErrTooBig = errors.New("jnl: transaction exceeds log size")

// ErrBadLog reports a log header that carries the magic but names an
// impossible log — a slot count beyond the on-disk region or the header's
// capacity, or a home address outside the device (or inside the log
// itself). Mount refuses such an image rather than replay garbage over
// live blocks.
var ErrBadLog = errors.New("jnl: corrupt log header")

// ErrAborted reports a transaction poisoned by a mid-operation device
// error: the half-recorded batch was discarded instead of committed, so
// the on-disk metadata remains the pre-transaction state. The filesystem
// latches read-only on it — mutation cannot proceed when operations can
// no longer be made atomic.
var ErrAborted = errors.New("jnl: transaction aborted")

// Journal is the in-memory state of one on-disk log region.
type Journal struct {
	bc        *bcache.Cache
	dev       fs.TaskBlockDevice // bc's request queue
	blockSize int
	start     int // header block LBA
	region    int // slot blocks in the on-disk region (header excluded)
	slots     int // slots the log may fill: region capped by the header's capacity
	batchMax  int // slots one batch may fill: also capped at half the cache
	maxOp     int

	// Journal-owned IO buffers: batchMax slot blocks and one header block.
	// Only the holder of committing touches them.
	logBuf []byte
	hdrBuf []byte

	mu          sync.Mutex
	outstanding int   // operations inside Begin/End brackets
	committing  bool  // a commit or checkpoint owns the log state
	aborted     bool  // the open batch is poisoned; discard, don't commit
	abortCause  error // first device error that poisoned the batch
	ckptErr     error // sticky: a failed checkpoint wedges the log
	err         error // sticky commit/checkpoint error, reported by Sync

	// Begin sleeps on wq while a commit owns the log or the batch has no
	// room, sync while brackets are open or a commit runs; sleepers counts
	// them, so End and the end of a commit or checkpoint touch wq only
	// when someone waits.
	sleepers int
	wq       sched.WaitQueue

	batch   []*bcache.Buf       // frozen buffers of the open batch, record order
	inBatch map[int]*bcache.Buf // home lba -> frozen buffer (absorption)

	// The committed, un-checkpointed log. homes[i] is the home LBA slot i
	// holds (the header's contents); pending maps each home LBA to the
	// LATEST slot naming it.
	homes   []int
	pending map[int]int

	// discarded marks pending home LBAs whose cache buffers an abort
	// invalidated: their committed content now lives only in the log
	// slots, so checkpoint must install them home from there.
	discarded map[int]bool

	// The revoke rule (see the package comment). freed holds blocks freed
	// by the open batch; revoked holds blocks whose freeing transaction
	// committed while the log still named them. Both are guarded by revMu
	// — the allocator consults them while commit owns the log state.
	revMu   sync.Mutex
	freed   map[int]bool
	revoked map[int]bool

	commits, checkpoints, installs, absorbed, recovered, aborts atomic.Int64
}

// Stats is a snapshot of journal activity for tests and /proc.
type Stats struct {
	Commits     int64 // transactions committed
	Checkpoints int64 // checkpoint passes (header invalidations)
	Installs    int64 // blocks installed home from log slots (re-frozen)
	Absorbed    int64 // Records absorbed into an already-batched block
	Recovered   int64 // blocks replayed by Recover at mount
	Aborts      int64 // poisoned batches discarded instead of committed
}

// New wires a journal over the log region [start, start+blocks) of bc's
// device. blocks includes the header; the log fills at most as many slots
// as the header block can index, and one batch at most half the cache
// (its buffers stay frozen until commit and must never exhaust it).
func New(bc *bcache.Cache, start, blocks int) *Journal {
	j := &Journal{
		bc:        bc,
		dev:       bc.Device(),
		blockSize: bc.Device().BlockSize(),
		start:     start,
		region:    blocks - 1,
		maxOp:     DefaultMaxOp,
		inBatch:   make(map[int]*bcache.Buf),
		pending:   make(map[int]int),
		discarded: make(map[int]bool),
		freed:     make(map[int]bool),
		revoked:   make(map[int]bool),
	}
	j.slots = min(j.region, (j.blockSize-8)/4)
	j.batchMax = min(j.slots, bc.Buffers()/2)
	j.maxOp = min(j.maxOp, j.batchMax)
	j.logBuf = make([]byte, j.batchMax*j.blockSize)
	j.hdrBuf = make([]byte, j.blockSize)
	return j
}

// Revoke quarantines a block the open batch frees, so the filesystem does
// not hand it to unjournaled file data while a logged transaction could
// still replay old metadata over it. Call inside the freeing operation's
// Begin/End bracket.
func (j *Journal) Revoke(lba int) {
	j.revMu.Lock()
	j.freed[lba] = true
	j.revMu.Unlock()
}

// Revoked reports whether lba is quarantined: freed by the open batch, or
// freed by a committed transaction while the log still names it. The
// allocator skips such blocks.
func (j *Journal) Revoked(lba int) bool {
	j.revMu.Lock()
	defer j.revMu.Unlock()
	return j.freed[lba] || j.revoked[lba]
}

// Begin opens an operation bracket, blocking while a commit or checkpoint
// owns the log or while admitting another operation could overflow the
// batch (every admitted operation may still Record maxOp blocks).
func (j *Journal) Begin(t *sched.Task) {
	j.mu.Lock()
	for !j.admitsLocked() {
		j.sleepLocked(t, j.admits)
	}
	j.outstanding++
	j.mu.Unlock()
}

// admitsLocked reports whether Begin may open another bracket. Caller
// holds j.mu.
func (j *Journal) admitsLocked() bool {
	return !j.committing && len(j.batch)+(j.outstanding+1)*j.maxOp <= j.batchMax
}

func (j *Journal) admits() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.admitsLocked()
}

// quietLocked reports whether no bracket is open and no commit owns the
// log. Caller holds j.mu.
func (j *Journal) quietLocked() bool { return j.outstanding == 0 && !j.committing }

func (j *Journal) quiet() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.quietLocked()
}

// sleepLocked sleeps on wq until done() holds or a wake arrives. The
// caller holds j.mu, which is dropped across the sleep and held again on
// return. Counting the sleeper under j.mu before registering on wq closes
// the lost-wakeup window: a waker that changes the state after the count
// sees it and wakes, and one before it is seen by done().
func (j *Journal) sleepLocked(t *sched.Task, done func() bool) {
	j.sleepers++
	j.mu.Unlock()
	j.wq.SleepUnless(t, done)
	j.mu.Lock()
	j.sleepers--
}

// unlockAndWake drops j.mu and wakes the sleepers, if any: the caller
// just ended a bracket or released the log.
func (j *Journal) unlockAndWake() {
	wake := j.sleepers > 0
	j.mu.Unlock()
	if wake {
		j.wq.WakeAll()
	}
}

// Record adds a held buffer (Get'd, not yet Released) to the open batch
// and freezes it — this op's replacement for MarkDirty on metadata
// blocks. Recording the same block twice absorbs into one slot: the log
// holds the block's final content, which is why a whole batch of
// operations updating one bitmap block costs one slot and one log write.
func (j *Journal) Record(t *sched.Task, b *bcache.Buf) error {
	j.mu.Lock()
	if j.outstanding == 0 {
		j.mu.Unlock()
		return fmt.Errorf("jnl: Record outside Begin/End")
	}
	if _, ok := j.inBatch[b.LBA()]; ok {
		j.absorbed.Add(1)
		j.mu.Unlock()
		j.bc.Freeze(b) // idempotent; re-marks dirty after any clean transition
		return nil
	}
	if len(j.batch) >= j.batchMax {
		j.mu.Unlock()
		return ErrTooBig
	}
	j.batch = append(j.batch, b)
	j.inBatch[b.LBA()] = b
	j.mu.Unlock()
	j.bc.Freeze(b)
	return nil
}

// Abort poisons the open batch: an operation inside a Begin/End bracket
// hit a device error after recording some — but not all — of its blocks.
// Committing the half-operation would persist a state no crash could ever
// produce, so when the last bracket closes the whole batch is DISCARDED
// instead: every recorded buffer is dropped from the cache (the next Get
// re-reads the durable copy) and End/Sync report ErrAborted. Group commit
// makes the discard batch-wide — operations that shared the bracket lose
// their recordings too, exactly as if the machine had crashed before the
// commit point.
func (j *Journal) Abort(cause error) {
	j.mu.Lock()
	j.aborted = true
	if j.abortCause == nil {
		j.abortCause = cause
	}
	j.mu.Unlock()
}

// abortError names a discarded batch. It matches errors.Is for both
// ErrAborted and the device error that poisoned the transaction, so
// callers can latch on the mechanism or the root cause alike.
func abortError(cause error) error {
	if cause == nil {
		return ErrAborted
	}
	return fmt.Errorf("%w: %w", ErrAborted, cause)
}

// discard drops the poisoned batch. Caller owns the log state (committing
// set, outstanding zero). Blocks that a logged transaction also holds
// lose their cache copy of its committed content too — mark them so
// checkpoint installs them home from their log slots instead of flushing
// a buffer that no longer exists. Blocks the batch revoked stay
// quarantined until the next commit decides their fate.
func (j *Journal) discard(t *sched.Task) {
	for _, b := range j.batch {
		b.Lock(t)
		j.bc.Discard(b)
		b.Unlock()
		if _, ok := j.pending[b.LBA()]; ok {
			j.discarded[b.LBA()] = true
		}
	}
	j.batch = j.batch[:0]
	clear(j.inBatch)
	j.aborted = false
	j.abortCause = nil
	j.aborts.Add(1)
}

// End closes an operation bracket. The LAST close commits the whole batch
// — group commit: every operation that overlapped this bracket rides the
// same two log flushes — or, if an operation aborted, discards it. Commit
// errors are returned AND latched; Sync reports the latch to callers that
// weren't the unlucky committer.
func (j *Journal) End(t *sched.Task) error {
	j.mu.Lock()
	j.outstanding--
	if j.outstanding > 0 {
		j.unlockAndWake()
		return nil
	}
	if len(j.batch) == 0 {
		// Nothing recorded; nothing to poison.
		j.aborted, j.abortCause = false, nil
		j.unlockAndWake()
		return nil
	}
	j.committing = true
	aborted, cause := j.aborted, j.abortCause
	j.mu.Unlock()
	var err error
	if aborted {
		j.discard(t)
		err = abortError(cause)
	} else {
		err = j.commit(t)
	}
	j.mu.Lock()
	if err != nil && j.err == nil {
		j.err = err
	}
	j.committing = false
	j.unlockAndWake()
	return err
}

// Sync drains every open operation, commits whatever batch is left (a
// failed End's leftovers included) and reports — then clears — the sticky
// journal error. This is fsync's and umount's ordering barrier: when it
// returns nil, every operation that Ended before the call is on disk, in
// the log or at home.
func (j *Journal) Sync(t *sched.Task) error { return j.sync(t, false) }

// Drain is Sync followed by a checkpoint at the same quiet moment: when
// it returns nil the log is empty, so no block stays revoked. It is the
// allocator's way out when every free block is revoked; call it with no
// bracket open.
func (j *Journal) Drain(t *sched.Task) error { return j.sync(t, true) }

func (j *Journal) sync(t *sched.Task, ckpt bool) error {
	j.mu.Lock()
	for !j.quietLocked() {
		j.sleepLocked(t, j.quiet)
	}
	if len(j.batch) == 0 && (!ckpt || len(j.homes) == 0) {
		j.aborted, j.abortCause = false, nil
		err := j.err
		j.err = nil
		j.mu.Unlock()
		return err
	}
	j.committing = true
	aborted, cause := j.aborted, j.abortCause
	j.mu.Unlock()
	var cerr error
	switch {
	case len(j.batch) == 0:
	case aborted:
		j.discard(t)
		cerr = abortError(cause)
	default:
		cerr = j.commit(t)
	}
	if cerr == nil && ckpt && len(j.homes) > 0 {
		cerr = j.checkpoint(t)
	}
	j.mu.Lock()
	if cerr != nil && j.err == nil {
		j.err = cerr
	}
	err := j.err
	j.err = nil
	j.committing = false
	j.unlockAndWake()
	return err
}

// Checkpoint opportunistically drains the log — the kflushd idle hook
// and the volume's Sync call it. It only runs when the journal is quiet
// (no open operations, no commit in flight); at such a moment the open
// batch is necessarily empty, so every pending block's cache buffer is
// thawed and flushable. A failure is returned and also latched for the
// next Sync, since the idle hook has nobody to report to.
func (j *Journal) Checkpoint(t *sched.Task) error {
	j.mu.Lock()
	if !j.quietLocked() || len(j.homes) == 0 {
		j.mu.Unlock()
		return nil
	}
	j.committing = true
	j.mu.Unlock()
	err := j.checkpoint(t)
	j.mu.Lock()
	if err != nil && j.err == nil {
		j.err = err
	}
	j.committing = false
	j.unlockAndWake()
	return err
}

// commit appends the open batch to the log. Caller set committing (which
// blocks Begin), and outstanding is zero, so the batch, the log state and
// the journal's IO buffers are exclusively ours even though mu is dropped.
//
// Order matters everywhere here:
//
//  1. If the batch does not fit behind the occupied slots, the log is
//     checkpointed first: every logged transaction's blocks reach home
//     and the header is zeroed, durably — only then may slot 0 be reused
//     (else a crash replays the old header over new slot contents).
//  2. The batch is copied into logBuf and written to the free slots as one
//     request: the group-commit device burst.
//  3. The header naming every occupied slot's home is written: the commit
//     point.
//  4. The batch buffers thaw into ordinary dirty buffers, and pending
//     points their home LBAs at their new slots.
func (j *Journal) commit(t *sched.Task) error {
	// A wedged checkpoint (see checkpoint) forbids further commits even
	// while the log has room: the mount never commits again.
	if j.ckptErr != nil {
		return j.ckptErr
	}
	if len(j.homes)+len(j.batch) > j.slots {
		if err := j.checkpoint(t); err != nil {
			return err
		}
	}
	base := len(j.homes)
	homes := j.homes
	for i, b := range j.batch {
		b.Lock(t)
		copy(j.logBuf[i*j.blockSize:], b.Data)
		b.Unlock()
		homes = append(homes, b.LBA())
	}
	n := len(j.batch)
	if err := j.dev.WriteBlocksT(t, j.start+1+base, n, j.logBuf[:n*j.blockSize]); err != nil {
		return err
	}
	if err := j.writeHeader(t, homes); err != nil {
		return err
	}
	j.homes = homes
	for i, b := range j.batch {
		j.pending[b.LBA()] = base + i
		b.Lock(t)
		j.bc.Thaw(b)
		b.Unlock()
	}
	j.batch = j.batch[:0]
	clear(j.inBatch)
	j.commits.Add(1)
	// The batch's frees are now durable. A freed block the log still
	// names stays revoked until the checkpoint empties the log; any other
	// is reusable at once.
	j.revMu.Lock()
	for lba := range j.freed {
		if _, logged := j.pending[lba]; logged {
			j.revoked[lba] = true
		}
		delete(j.freed, lba)
	}
	j.revMu.Unlock()
	return nil
}

// checkpoint makes every logged transaction's blocks durable at home and
// invalidates the header, emptying the log. Blocks whose cache buffers
// were re-frozen by the open batch hold NEWER uncommitted content — their
// latest committed content is read back from its log slot and installed
// straight to the home address, bypassing the cache. Caller owns the log
// state (committing set).
func (j *Journal) checkpoint(t *sched.Task) error {
	// A checkpoint that failed mid-way may have lost a pending block's only
	// cache copy (a fatal writeback error gives the buffer up), leaving the
	// log slot as the sole durable home of committed data. Retrying would
	// skip the clean-looking buffer, complete, and zero the header — erasing
	// that last copy. The journal wedges instead: the header stays intact,
	// the transactions stay replayable, and the mount (latched read-only by
	// the first failure) never commits again.
	if j.ckptErr != nil {
		return j.ckptErr
	}
	if len(j.homes) == 0 {
		return nil
	}
	flush := make([]int, 0, len(j.pending))
	// The open batch is not in logBuf yet (commit copies it after this
	// checkpoint), so its first block is free to stage each install.
	stage := j.logBuf[:j.blockSize]
	for lba, slot := range j.pending {
		// Install rather than flush when the cache buffer does not hold
		// the latest committed content: re-frozen by the open batch
		// (newer, uncommitted), or invalidated by an abort (gone).
		if _, frozen := j.inBatch[lba]; !frozen && !j.discarded[lba] {
			flush = append(flush, lba)
			continue
		}
		err := j.dev.ReadBlocksT(t, j.start+1+slot, 1, stage)
		if err == nil {
			err = j.dev.WriteBlocksT(t, lba, 1, stage)
		}
		if err != nil {
			j.ckptErr = err
			return err
		}
		j.installs.Add(1)
	}
	if err := j.bc.FlushBlocks(t, flush, true); err != nil {
		j.ckptErr = err
		return err
	}
	if err := j.writeHeader(t, nil); err != nil {
		j.ckptErr = err
		return err
	}
	j.homes = j.homes[:0]
	clear(j.pending)
	clear(j.discarded)
	j.checkpoints.Add(1)
	// No transaction names a revoked block any more.
	j.revMu.Lock()
	clear(j.revoked)
	j.revMu.Unlock()
	return nil
}

// writeHeader encodes the header block into hdrBuf — magic, slot count,
// then the home LBA of each occupied slot in order — and writes it
// straight to the queue, returning once it is durable. A nil homes writes
// the empty header — the invalidation.
func (j *Journal) writeHeader(t *sched.Task, homes []int) error {
	clear(j.hdrBuf)
	binary.LittleEndian.PutUint32(j.hdrBuf[0:], Magic)
	binary.LittleEndian.PutUint32(j.hdrBuf[4:], uint32(len(homes)))
	for i, home := range homes {
		binary.LittleEndian.PutUint32(j.hdrBuf[8+4*i:], uint32(home))
	}
	return j.dev.WriteBlocksT(t, j.start, 1, j.hdrBuf)
}

// Recover replays the log at mount: if the header names committed
// transactions, the header and every slot are read straight off the
// queue, each slot is copied into its home block's cache buffer in slot
// order (so a later copy of a block overwrites an earlier one), the homes
// are flushed and the header is invalidated. Idempotent — a crash
// mid-recovery just replays again. Returns how many slots were replayed.
// Must run before the filesystem reads any metadata.
//
// The slot count is checked against the on-disk region and the header's
// capacity, not against this mount's cache: an image logged by a mount
// with a larger cache must still boot under a smaller one.
func (j *Journal) Recover(t *sched.Task) (int, error) {
	if err := j.dev.ReadBlocksT(t, j.start, 1, j.hdrBuf); err != nil {
		return 0, err
	}
	magic := binary.LittleEndian.Uint32(j.hdrBuf[0:])
	count := int(binary.LittleEndian.Uint32(j.hdrBuf[4:]))
	if magic != Magic || count == 0 {
		// No committed transaction (a foreign/garbage header doesn't
		// carry the magic): nothing to replay.
		return 0, nil
	}
	if count > j.slots {
		return 0, fmt.Errorf("%w: %d blocks in a %d-slot log", ErrBadLog, count, j.slots)
	}
	homes := make([]int, 0, count)
	for i := 0; i < count; i++ {
		home := int(binary.LittleEndian.Uint32(j.hdrBuf[8+4*i:]))
		// A hostile or torn header must not aim the replay outside the
		// device or back into the log region itself.
		if home < 0 || home >= j.dev.Blocks() ||
			(home >= j.start && home <= j.start+j.region) {
			return 0, fmt.Errorf("%w: home block %d out of range", ErrBadLog, home)
		}
		homes = append(homes, home)
	}
	// An image logged under a larger cache may hold more slots than
	// logBuf; recovery runs once per mount, so size the read to the log.
	slots := make([]byte, count*j.blockSize)
	if err := j.dev.ReadBlocksT(t, j.start+1, count, slots); err != nil {
		return 0, err
	}
	for i, home := range homes {
		db, err := j.bc.Get(t, home)
		if err != nil {
			return 0, err
		}
		copy(db.Data, slots[i*j.blockSize:])
		j.bc.MarkDirty(db)
		j.bc.Release(db)
	}
	if err := j.bc.FlushBlocks(t, homes, true); err != nil {
		return 0, err
	}
	if err := j.writeHeader(t, nil); err != nil {
		return 0, err
	}
	j.recovered.Add(int64(len(homes)))
	return len(homes), nil
}

// Stats snapshots journal counters. The counters are atomics, so a
// snapshot never waits on (or races with) a commit in flight.
func (j *Journal) Stats() Stats {
	// Checkpoints before Commits: a checkpoint follows the commit it
	// empties and commits only grow, so the snapshot keeps
	// Checkpoints <= Commits.
	checkpoints := j.checkpoints.Load()
	return Stats{
		Commits:     j.commits.Load(),
		Checkpoints: checkpoints,
		Installs:    j.installs.Load(),
		Absorbed:    j.absorbed.Load(),
		Recovered:   j.recovered.Load(),
		Aborts:      j.aborts.Load(),
	}
}

// Slots reports how many slots the log may fill before a checkpoint must
// empty it (tests size transactions with it).
func (j *Journal) Slots() int { return j.slots }
