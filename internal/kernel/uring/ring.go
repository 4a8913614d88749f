package uring

import (
	"errors"
	"fmt"
	"sync"

	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/sched"
)

// Op selects what a submission queue entry does.
type Op uint8

// Ring opcodes. All are positional (offset in the SQE, shared file offset
// untouched) so concurrent in-flight entries cannot corrupt a position.
const (
	// OpNop completes immediately with Res 0 — the latency/overhead probe.
	OpNop Op = iota
	// OpPread reads len(Buf) bytes from FD at Off into Buf.
	OpPread
	// OpPwrite writes Buf to FD at Off (OffAppend for atomic append).
	OpPwrite
	// OpPreadv scatters one contiguous read at Off into Iovs.
	OpPreadv
	// OpPwritev gathers Iovs into one contiguous write at Off.
	OpPwritev
	// OpFsync flushes FD and observes its per-open writeback-error cursor.
	OpFsync
)

// SQE is one submission queue entry: an opcode plus its arguments. User
// is an opaque correlation token echoed in the matching CQE (io_uring's
// user_data).
type SQE struct {
	Op   Op
	FD   int
	Off  int64
	Buf  []byte
	Iovs [][]byte
	User uint64
}

// CQE is one completion queue entry. Res is the operation's byte count
// (0 for nop/fsync); Err is its error, nil on success. Every submitted
// SQE produces exactly one CQE — errors complete, they do not abort the
// batch.
type CQE struct {
	User uint64
	Res  int
	Err  error
}

// Ring errors.
var (
	ErrClosed     = errors.New("uring: ring closed")
	ErrSQFull     = errors.New("uring: submission queue full")
	ErrBadOp      = errors.New("uring: unknown opcode")
	ErrBadEntries = errors.New("uring: entries out of range")
)

// MaxEntries bounds a ring's submission queue size.
const MaxEntries = 256

const defaultWorkers = 4

// Options configures a Ring. Spawn is required: it places each worker on
// the owning scheduler (the kernel passes Sched.Go; tests pass their own
// test scheduler). Plug/Unplug, when set, bracket each Enter handoff —
// the kernel wires them to every block device queue's Plug/Unplug so a
// drain's first dispatches accumulate and merge.
type Options struct {
	// Workers sizes the worker pool (default 4, clamped to entries).
	Workers int
	// Spawn starts one kernel worker task running fn and returns its
	// task handle. The ring watches the handles' Done channels so a
	// worker killed before its first dispatch — whose fn never runs —
	// still counts as exited and cannot wedge Close.
	Spawn func(name string, fn func(t *sched.Task)) *sched.Task
	// Plug opens the drain bracket (nil: no bracket).
	Plug func(t *sched.Task)
	// Unplug closes the drain bracket.
	Unplug func(t *sched.Task)
}

// Ring is one submission/completion ring: pooled SQE/CQE slots, a worker
// pool executing ops against an FD table, and the Enter/Reap faces. All
// slot storage is allocated at New — the steady-state hot loop (Queue,
// Enter, worker dispatch, Reap) performs no allocation.
type Ring struct {
	entries int
	fds     *fs.FDTable
	plug    func(t *sched.Task)
	unplug  func(t *sched.Task)

	mu sync.Mutex
	// Three pooled ring buffers: staged SQEs (capacity entries), the
	// active set handed to workers, and completions (each 2×entries —
	// Enter's admission keeps active+inflight+unreaped ≤ 2×entries, so a
	// CQE slot always exists and completions are never dropped).
	sq            []SQE
	sqHead, sqLen int
	work          []SQE
	wHead, wLen   int
	cq            []CQE
	cqHead, cqLen int
	inflight      int // ops executing in workers right now
	closed        bool
	workersLive   int
	nSubmitted    int64
	nCompleted    int64
	nDrains       int64

	workWQ  sched.WaitQueue // workers waiting for entries
	cqWQ    sched.WaitQueue // Enter callers waiting for completions
	closeWQ sched.WaitQueue // Close waiting for the pool to exit
}

// New builds a ring with pooled slots and starts its worker pool. The FD
// table is the process's: workers resolve each SQE's descriptor at
// execution time, so a descriptor closed between Queue and execution
// fails that one op's CQE with ErrBadFD instead of faulting the ring.
func New(entries int, fds *fs.FDTable, opts Options) (*Ring, error) {
	if entries < 1 || entries > MaxEntries {
		return nil, ErrBadEntries
	}
	if fds == nil {
		return nil, errors.New("uring: nil fd table")
	}
	if opts.Spawn == nil {
		return nil, errors.New("uring: Options.Spawn is required")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = defaultWorkers
	}
	if workers > entries {
		workers = entries
	}
	r := &Ring{
		entries: entries,
		fds:     fds,
		plug:    opts.Plug,
		unplug:  opts.Unplug,
		sq:      make([]SQE, entries),
		work:    make([]SQE, 2*entries),
		cq:      make([]CQE, 2*entries),
	}
	r.workersLive = workers
	tasks := make([]*sched.Task, workers)
	for i := 0; i < workers; i++ {
		tasks[i] = opts.Spawn(fmt.Sprintf("w%d", i), r.worker)
	}
	// The pool's death watcher. Worker accounting keys off the task
	// goroutines' Done channels, not off r.worker's own exit path: a
	// worker killed before its first dispatch (scheduler shutdown racing
	// a fresh SysRingSetup) never runs r.worker at all, and per-fn
	// bookkeeping would leave Close waiting on it forever. Only when
	// every goroutine has fully exited does the watcher zero workersLive
	// and fail the ring — no worker can touch the FD table after the
	// wakeup, and waiters stuck on completions that can no longer arrive
	// get ErrClosed instead of sleeping forever.
	go func() {
		for _, wt := range tasks {
			if wt != nil {
				<-wt.Done()
			}
		}
		r.mu.Lock()
		r.workersLive = 0
		r.closed = true
		r.mu.Unlock()
		r.workWQ.WakeAll()
		r.cqWQ.WakeAll()
		r.closeWQ.WakeAll()
	}()
	return r, nil
}

// Entries reports the submission queue capacity.
func (r *Ring) Entries() int { return r.entries }

// Stats reports lifetime counters: SQEs handed off, CQEs posted, and
// Enter drains that moved at least one entry.
func (r *Ring) Stats() (submitted, completed, drains int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nSubmitted, r.nCompleted, r.nDrains
}

// Queue stages one SQE — a memory write into a pooled slot, no syscall
// and no kernel entry. It fails with ErrSQFull when all `entries` staged
// slots are taken (drain with Enter first) and ErrClosed on a dead ring.
func (r *Ring) Queue(e SQE) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if r.sqLen == len(r.sq) {
		return ErrSQFull
	}
	r.sq[(r.sqHead+r.sqLen)%len(r.sq)] = e
	r.sqLen++
	return nil
}

// Enter is the ring's one kernel entry: it moves up to toSubmit staged
// SQEs into the active set — the whole handoff under a single
// Plug/Unplug bracket, with the worker pool woken while the bracket is
// open so the batch's first dispatches accumulate and merge — and then
// sleeps until at least minComplete completions are reapable.
//
// It returns how many entries were actually handed off: fewer than
// toSubmit when the staging queue is shorter (a short batch is not an
// error) or when admission has to hold entries back so the CQ can absorb
// every outstanding completion. minComplete is clamped to the number of
// completions that can still arrive (unreaped + in flight + handed off),
// so over-asking cannot sleep forever. Callers pass their scheduler task
// and sleep on the simulated core; a nil task (tests) parks on the host.
func (r *Ring) Enter(t *sched.Task, toSubmit, minComplete int) (int, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, ErrClosed
	}
	n := toSubmit
	if n > r.sqLen {
		n = r.sqLen
	}
	if room := 2*r.entries - (r.wLen + r.inflight + r.cqLen); n > room {
		n = room
	}
	if n < 0 {
		n = 0
	}
	r.mu.Unlock()

	if n > 0 {
		if r.plug != nil {
			r.plug(t)
		}
		r.mu.Lock()
		for i := 0; i < n; i++ {
			r.work[(r.wHead+r.wLen)%len(r.work)] = r.sq[r.sqHead]
			r.sq[r.sqHead] = SQE{} // drop buffer references from the pool
			r.sqHead = (r.sqHead + 1) % len(r.sq)
			r.sqLen--
			r.wLen++
		}
		r.nSubmitted += int64(n)
		r.nDrains++
		r.mu.Unlock()
		r.workWQ.WakeAll()
		if r.unplug != nil {
			r.unplug(t)
		}
	}
	if minComplete <= 0 {
		return n, nil
	}
	r.mu.Lock()
	if max := r.cqLen + r.inflight + r.wLen; minComplete > max {
		minComplete = max
	}
	r.mu.Unlock()
	for {
		r.mu.Lock()
		if r.cqLen >= minComplete {
			r.mu.Unlock()
			return n, nil
		}
		if r.closed {
			r.mu.Unlock()
			return n, ErrClosed
		}
		r.mu.Unlock()
		r.cqWQ.SleepUnless(t, func() bool {
			r.mu.Lock()
			done := r.cqLen >= minComplete || r.closed
			r.mu.Unlock()
			return done
		})
	}
}

// Reap pops the oldest completion — a pooled-slot read, no syscall.
// ok is false when the CQ is empty.
func (r *Ring) Reap() (cqe CQE, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cqLen == 0 {
		return CQE{}, false
	}
	cqe = r.cq[r.cqHead]
	r.cq[r.cqHead] = CQE{}
	r.cqHead = (r.cqHead + 1) % len(r.cq)
	r.cqLen--
	return cqe, true
}

// Pending reports staged, active+in-flight, and reapable entry counts
// (diagnostics and tests).
func (r *Ring) Pending() (staged, active, reapable int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sqLen, r.wLen + r.inflight, r.cqLen
}

// Close shuts the ring down: no new Queue/Enter, staged entries are
// dropped, active ones drain (their CQEs still post), and the worker
// pool exits. Close waits for the pool (the watcher's wakeup fires only
// after every worker goroutine is gone), so after it returns no worker
// can touch the FD table — process exit closes the ring BEFORE tearing
// descriptors down. Closing twice returns ErrClosed.
//
// The wait needs the workers to be schedulable: a task that must not
// sleep AND must not park host-side while holding its core (a killed
// task in finalize) uses Abandon instead.
func (r *Ring) Close(t *sched.Task) error {
	if err := r.shut(); err != nil {
		return err
	}
	for {
		r.mu.Lock()
		done := r.workersLive == 0
		r.mu.Unlock()
		if done {
			return nil
		}
		r.closeWQ.SleepUnless(t, func() bool {
			r.mu.Lock()
			done := r.workersLive == 0
			r.mu.Unlock()
			return done
		})
	}
}

// Abandon closes the ring without waiting for the worker pool: staged
// entries are dropped, workers wake, drain the active set, and exit on
// their own schedule. The caller that cannot wait — a killed task's
// finalize, which on a one-core kernel would hold the only CPU the
// workers need to exit — relies on the OpenFile in-flight guards for
// descriptor safety instead of the join: a worker mid-op holds its
// description across a racing close, and one not yet dispatched fails
// its CQE with ErrBadFD. Abandoning twice returns ErrClosed.
func (r *Ring) Abandon() error {
	return r.shut()
}

// shut flips the ring closed, drops staged SQEs, and wakes everyone —
// the common prefix of Close and Abandon.
func (r *Ring) shut() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	r.closed = true
	// Drop staged entries (never handed off — no CQEs owed).
	r.sqHead, r.sqLen = 0, 0
	for i := range r.sq {
		r.sq[i] = SQE{}
	}
	r.mu.Unlock()
	r.workWQ.WakeAll()
	r.cqWQ.WakeAll()
	return nil
}

// worker is one pool task: pull an active entry, execute it against the
// FD table, post its CQE, repeat. On close it drains the active set
// first — every handed-off SQE is owed a completion — then exits. The
// ready closure is allocated once per worker, not per sleep: the loop
// itself is allocation-free.
func (r *Ring) worker(t *sched.Task) {
	ready := func() bool {
		r.mu.Lock()
		d := r.wLen > 0 || r.closed
		r.mu.Unlock()
		return d
	}
	for {
		r.mu.Lock()
		if r.wLen == 0 {
			if r.closed {
				// Exit; the pool watcher (New) does the accounting once
				// the goroutine is fully gone.
				r.mu.Unlock()
				return
			}
			r.mu.Unlock()
			r.workWQ.SleepUnless(t, ready)
			continue
		}
		e := r.work[r.wHead]
		r.work[r.wHead] = SQE{}
		r.wHead = (r.wHead + 1) % len(r.work)
		r.wLen--
		r.inflight++
		r.mu.Unlock()

		cqe := r.exec(t, e)

		r.mu.Lock()
		r.inflight--
		r.nCompleted++
		// Admission control guarantees a free CQ slot.
		r.cq[(r.cqHead+r.cqLen)%len(r.cq)] = cqe
		r.cqLen++
		r.mu.Unlock()
		r.cqWQ.WakeAll()
	}
}

// exec runs one SQE on the worker's task. The descriptor resolves here,
// at execution time, through the same FDTable.Get every Sys* call uses;
// the OpenFile layer supplies the error semantics (ErrBadFD, ErrPerm,
// ErrBadSeek/ESPIPE, ErrIsDir) and the in-flight use/done guard that
// makes a racing close safe.
func (r *Ring) exec(t *sched.Task, e SQE) CQE {
	if e.Op == OpNop {
		return CQE{User: e.User}
	}
	of, err := r.fds.Get(e.FD)
	if err != nil {
		return CQE{User: e.User, Err: err}
	}
	var n int
	switch e.Op {
	case OpPread:
		n, err = of.Pread(t, e.Buf, e.Off)
	case OpPwrite:
		n, err = of.Pwrite(t, e.Buf, e.Off)
	case OpPreadv:
		n, err = of.Preadv(t, e.Iovs, e.Off)
	case OpPwritev:
		n, err = of.Pwritev(t, e.Iovs, e.Off)
	case OpFsync:
		// OpenFile.Sync flushes and then observes THIS description's
		// errseq cursor: an async writeback failure lands in exactly one
		// fsync CQE per descriptor.
		err = of.Sync(t)
	default:
		err = ErrBadOp
	}
	return CQE{User: e.User, Res: n, Err: err}
}
