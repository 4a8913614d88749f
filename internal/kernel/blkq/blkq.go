package blkq

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/ksync"
	"protosim/internal/kernel/ktime"
	"protosim/internal/kernel/sched"
)

// AsyncBackend is a device with split submit/completion halves. Submit
// errors are immediate rejects (bad range); transfer errors arrive in the
// completion record. The device signals completions by raising its IRQ;
// the kernel routes that IRQ to Queue.CompletionIRQ, which drains
// PopCompletion.
type AsyncBackend interface {
	fs.BlockDevice
	SubmitRead(tag uint64, lba, n int, dst []byte) error
	SubmitWrite(tag uint64, lba, n int, src []byte) error
	PopCompletion() (tag uint64, err error, ok bool)
}

// Defaults.
const (
	// DefaultDepth is how many commands may be in flight at the device.
	DefaultDepth = 4
	// DefaultPlugDelay is the anticipatory-plug window: how long a request
	// that found the queue idle is held back hoping a mergeable follow-up
	// arrives. Short relative to an SD command (so a timeout costs little)
	// but long relative to the submit cadence of a writeback loop (so a
	// burst lands whole).
	DefaultPlugDelay = 500 * time.Microsecond
	// maxMergeBlocks caps one merged command, matching the cache's
	// writeback-run cap so neither layer builds unbounded commands.
	maxMergeBlocks = 128
	// DefaultCmdTimeout bounds how long one device command may stay in
	// flight before the queue abandons it and retries: generous against
	// the SD timing model's worst merged write (~75ms at scale 1) plus
	// injected latency spikes, small against a wedged device.
	DefaultCmdTimeout = 2 * time.Second
	// DefaultMaxRetries bounds re-issues of one command for transient
	// errors and timeouts.
	DefaultMaxRetries = 3
	// retryBackoffBase is the first retry's delay; each further retry
	// doubles it (exponential backoff).
	retryBackoffBase = 500 * time.Microsecond
)

// ErrCmdTimeout marks a command the device never completed within the
// queue's window. Retried like a transient fault; a command whose every
// attempt times out declares the device dead.
var ErrCmdTimeout = errors.New("blkq: device command timed out")

// Options configures New. Zero values select defaults.
type Options struct {
	// Depth bounds in-flight device commands (0 = DefaultDepth).
	Depth int
	// Async names the device's submit/completion halves when it has them;
	// nil means dispatch performs synchronous IO inline. When non-nil it
	// must be the same device as the sync half passed to New.
	Async AsyncBackend
	// PlugDelay is the anticipatory-plug window opened when a request
	// arrives at an idle queue (0 = DefaultPlugDelay; negative disables
	// anticipatory plugging — requests at an idle queue dispatch at once).
	// See the package comment's plug-lifecycle section.
	PlugDelay time.Duration
	// After schedules the anticipatory plug's expiry through the caller's
	// timer source (the kernel passes its virtual-timer set). Nil selects
	// ktime.HostAfter. Command timeouts and retry backoff use the same
	// source.
	After ktime.AfterFunc
	// CmdTimeout bounds one command's time in flight before the queue
	// abandons and retries it (0 = DefaultCmdTimeout; negative disables
	// timeouts). Only armed on async backends — synchronous dispatch
	// completes inline and cannot hang.
	CmdTimeout time.Duration
	// MaxRetries bounds per-command re-issues for transient errors and
	// timeouts (0 = DefaultMaxRetries; negative disables retries).
	MaxRetries int
}

// request is one submitted IO, waiting in the queue or in flight as part
// of a command. All fields except buf/write/lba/n are guarded by Queue.mu.
type request struct {
	write bool
	lba   int
	n     int
	buf   []byte

	done bool
	err  error
	wq   sched.WaitQueue // waiters, task or host (completion wakes them)
}

// command is one device command: a merged run of requests.
type command struct {
	tag   uint64
	write bool
	lba   int
	n     int
	buf   []byte // reqs[0].buf when len(reqs)==1, else a pooled bounce buffer
	reqs  []*request

	// Recovery state (guarded by Queue.mu while the command is tracked).
	bounce    bool        // buf is queue-owned (bounce/retry buffer), not reqs[0].buf
	attempts  int         // re-issues so far (0 = first issue)
	abandoned bool        // timed out: a late DMA may still target buf — never pool it
	cancelT   func() bool // pending timeout cancel, nil when unarmed
}

// Queue is the request queue over one block device.
type Queue struct {
	dev   fs.BlockDevice
	abe   AsyncBackend
	bs    int
	depth int

	// mu (rank: blkq, below buffer) guards everything below. Acquired by
	// submitters that already hold the buffer locks of the blocks they
	// queue, and — with no task, briefly — by the completion IRQ path.
	mu       ksync.SleepLock
	pending  []*request // sorted by LBA
	pendingN int        // total blocks across pending (plug-pressure check)
	inflight map[uint64]*command
	nextTag  uint64
	head     int // elevator position: first LBA the next sweep considers
	plugs    int // Plug nesting depth; dispatch holds while > 0
	direct   int // direct-issue transfers at the device (0 or 1); they hold depth slots

	// plugOwner tracks how many of the explicit plugs each TASK holds, so
	// wait can park a sleeping submitter's plugs (see wait). Host-side
	// (nil-task) plugs are deliberately not tracked: they follow the
	// plug-submit-unplug-wait discipline and never sleep while plugged.
	plugOwner map[*sched.Task]int

	// Anticipatory-plug state (see the package comment). antOpen holds
	// dispatch exactly like an explicit plug; antGen invalidates the expiry
	// of a window that was closed (and possibly reopened) before its timer
	// fired; antStop cancels the pending expiry, best-effort.
	plugDelay time.Duration
	after     ktime.AfterFunc
	antOpen   bool
	antGen    uint64
	antStop   func() bool

	// Recovery state: per-command timeout/retry knobs and the dead-device
	// latch. Once dead is set every queued and future request fast-fails
	// with deadErr — no submitter ever sleeps on a device that cannot
	// answer. Guarded by mu.
	cmdTimeout time.Duration
	maxRetries int
	dead       bool
	deadErr    error

	// Statistics. Guarded by mu.
	submitted    int64 // requests accepted
	dispatched   int64 // device commands issued
	merged       int64 // requests that rode along in a multi-request command
	depthPeak    int64 // max commands in flight at once
	queuedPeak   int64 // max requests waiting at once
	plugHits     int64 // requests that arrived inside an anticipatory window
	plugTimeouts int64 // anticipatory windows that expired unconverted
	retries      int64 // command re-issues (transient errors, timeouts)
	cmdTimeouts  int64 // commands the device never completed in the window
	splits       int64 // merged commands split after a persistent failure

	pool sync.Pool // bounce buffers for merged commands
}

// New builds a queue over dev. See Options for the async half.
func New(dev fs.BlockDevice, opts Options) *Queue {
	depth := opts.Depth
	if depth <= 0 {
		depth = DefaultDepth
	}
	q := &Queue{
		dev:       dev,
		abe:       opts.Async,
		bs:        dev.BlockSize(),
		inflight:  make(map[uint64]*command, depth),
		plugOwner: make(map[*sched.Task]int),
	}
	q.mu.SetRank(ksync.RankBlkq, 0)
	q.pool.New = func() any {
		b := make([]byte, maxMergeBlocks*q.bs)
		return &b
	}
	q.depth = depth
	switch {
	case opts.PlugDelay == 0:
		q.plugDelay = DefaultPlugDelay
	case opts.PlugDelay > 0:
		q.plugDelay = opts.PlugDelay
	}
	q.after = opts.After
	if q.after == nil {
		q.after = ktime.HostAfter
	}
	switch {
	case opts.CmdTimeout == 0:
		q.cmdTimeout = DefaultCmdTimeout
	case opts.CmdTimeout > 0:
		q.cmdTimeout = opts.CmdTimeout
	}
	switch {
	case opts.MaxRetries == 0:
		q.maxRetries = DefaultMaxRetries
	case opts.MaxRetries > 0:
		q.maxRetries = opts.MaxRetries
	}
	return q
}

// BlockSize implements fs.BlockDevice.
func (q *Queue) BlockSize() int { return q.bs }

// Blocks implements fs.BlockDevice.
func (q *Queue) Blocks() int { return q.dev.Blocks() }

// ReadBlocks implements fs.BlockDevice (host-side callers, no task).
func (q *Queue) ReadBlocks(lba, n int, dst []byte) error {
	return q.ReadBlocksT(nil, lba, n, dst)
}

// WriteBlocks implements fs.BlockDevice.
func (q *Queue) WriteBlocks(lba, n int, src []byte) error {
	return q.WriteBlocksT(nil, lba, n, src)
}

// ReadBlocksT implements fs.TaskBlockDevice: submit and sleep until the
// completion IRQ wakes us.
func (q *Queue) ReadBlocksT(t *sched.Task, lba, n int, dst []byte) error {
	return q.transfer(t, false, lba, n, dst)
}

// WriteBlocksT implements fs.TaskBlockDevice.
func (q *Queue) WriteBlocksT(t *sched.Task, lba, n int, src []byte) error {
	return q.transfer(t, true, lba, n, src)
}

// transfer is the waited-request path: direct issue when the queue is
// idle over a synchronous device, otherwise submit and sleep.
func (q *Queue) transfer(t *sched.Task, write bool, lba, n int, buf []byte) error {
	if err := q.checkRange(lba, n, buf); err != nil {
		return err
	}
	if ok, err := q.tryDirect(t, write, lba, n, buf); ok {
		return err
	}
	r, err := q.submit(t, write, true, lba, n, buf)
	if err != nil {
		return err
	}
	return q.wait(t, r)
}

// checkRange rejects a request outside the device or over a short buffer.
func (q *Queue) checkRange(lba, n int, buf []byte) error {
	if lba < 0 || n <= 0 || lba+n > q.dev.Blocks() {
		return fmt.Errorf("blkq: bad range [%d,%d)", lba, lba+n)
	}
	if len(buf) < n*q.bs {
		return fmt.Errorf("blkq: %d-block request over %d bytes", n, len(buf))
	}
	return nil
}

// tryDirect is direct issue (see the package comment): a waited request
// at an idle queue over a synchronous device goes straight to the device,
// with no request or command object, and is counted as one submitted
// request and one dispatched command — exactly what the elevator would
// have recorded for it. It reports false, having done nothing, when the
// queue is not idle. A failed transfer becomes a tracked one-request
// command and enters the failure policy as its first attempt, so retries,
// bad-sector handling and the dead latch behave as on the elevator path.
func (q *Queue) tryDirect(t *sched.Task, write bool, lba, n int, buf []byte) (bool, error) {
	if q.abe != nil {
		return false, nil
	}
	q.mu.Lock(t)
	if q.dead || q.plugs > 0 || q.antOpen || len(q.pending) > 0 || len(q.inflight) > 0 || q.direct > 0 {
		q.mu.Unlock()
		return false, nil
	}
	q.direct++
	q.mu.Unlock()
	err := q.syncIO(write, lba, n, buf)
	q.mu.Lock(t)
	q.direct--
	q.submitted++
	q.dispatched++
	q.head = lba + n
	// The elevator would have held this request alone in pending, then
	// alone in flight.
	q.queuedPeak = max(q.queuedPeak, 1)
	q.depthPeak = max(q.depthPeak, 1)
	if err == nil {
		queued := len(q.pending) > 0
		q.mu.Unlock()
		if queued {
			q.kick(t) // requests that arrived during the transfer
		}
		return true, nil
	}
	r := &request{write: write, lba: lba, n: n, buf: buf}
	q.nextTag++
	cmd := &command{tag: q.nextTag, write: write, lba: lba, n: n, buf: buf[:n*q.bs], reqs: []*request{r}}
	q.inflight[cmd.tag] = cmd
	q.mu.Unlock()
	q.finish(t, cmd.tag, err)
	return true, q.wait(t, r)
}

// ticket adapts a request to fs.BlockTicket.
type ticket struct {
	q *Queue
	r *request
}

// Wait implements fs.BlockTicket.
func (tk ticket) Wait(t *sched.Task) error { return tk.q.wait(t, tk.r) }

// SubmitWrite implements fs.QueuedBlockDevice: queue a write and return a
// ticket; the writeback paths keep several in flight to fill the device
// queue. src must stay stable until Wait returns.
func (q *Queue) SubmitWrite(t *sched.Task, lba, n int, src []byte) (fs.BlockTicket, error) {
	if err := q.checkRange(lba, n, src); err != nil {
		return nil, err
	}
	r, err := q.submit(t, true, false, lba, n, src)
	if err != nil {
		return nil, err
	}
	return ticket{q: q, r: r}, nil
}

// Plug holds dispatch so a batch being assembled can merge before the
// first command is issued. Nestable; every Plug needs an Unplug. An open
// anticipatory window is subsumed: the explicit plug takes over holding
// dispatch, and the eventual Unplug dispatches immediately — explicit
// batching never waits out the anticipatory delay.
func (q *Queue) Plug(t *sched.Task) {
	q.mu.Lock(t)
	q.plugs++
	if t != nil {
		q.plugOwner[t]++
	}
	q.closeAnticipationLocked()
	q.mu.Unlock()
}

// Unplug releases a Plug and dispatches whatever merged while plugged.
func (q *Queue) Unplug(t *sched.Task) {
	q.mu.Lock(t)
	if q.plugs == 0 {
		q.mu.Unlock()
		panic("blkq: unplug without plug")
	}
	q.plugs--
	if t != nil {
		if q.plugOwner[t]--; q.plugOwner[t] <= 0 {
			delete(q.plugOwner, t)
		}
	}
	q.mu.Unlock()
	q.kick(t)
}

// parkPlugs temporarily releases every explicit plug t holds, returning
// how many were parked; unparkPlugs restores them after the sleep. This is
// the Linux rule that schedule() flushes the blocking task's plug: a
// plugged task about to sleep on one of its own requests would deadlock —
// its plug holds the very dispatch it waits for — and any batch it was
// assembling is as big as it is going to get. The plug logically survives
// the sleep: once the task wakes, its later submissions accumulate again
// until the real Unplug.
func (q *Queue) parkPlugs(t *sched.Task) int {
	if t == nil {
		return 0
	}
	q.mu.Lock(t)
	n := q.plugOwner[t]
	if n > 0 {
		q.plugs -= n
		delete(q.plugOwner, t)
	}
	q.mu.Unlock()
	if n > 0 {
		q.kick(t)
	}
	return n
}

// unparkPlugs reinstates n plugs parked by parkPlugs.
func (q *Queue) unparkPlugs(t *sched.Task, n int) {
	if n <= 0 {
		return
	}
	q.mu.Lock(t)
	q.plugs += n
	q.plugOwner[t] += n
	q.mu.Unlock()
}

// --- the anticipatory plug ---

// openAnticipationLocked starts a plugDelay-long dispatch hold for a
// request that found the queue idle. Caller holds q.mu; the timer callback
// fires outside every ktime/host-timer lock, so arming under q.mu is safe.
func (q *Queue) openAnticipationLocked() {
	q.antOpen = true
	q.antGen++
	gen := q.antGen
	q.antStop = q.after(q.plugDelay, func() { q.anticipationExpired(gen) })
}

// closeAnticipationLocked converts or cancels an open window; dispatch is
// the caller's job (kick after dropping q.mu). Caller holds q.mu.
func (q *Queue) closeAnticipationLocked() {
	if !q.antOpen {
		return
	}
	q.antOpen = false
	q.antGen++ // a late-firing timer for the old window is now a no-op
	if q.antStop != nil {
		q.antStop()
		q.antStop = nil
	}
}

// anticipationExpired is the window's timer callback: the submitter never
// waited or plugged, so stop anticipating and let the accumulated batch
// go. Every expiry counts as a timeout, whether or not the window merged
// anything.
func (q *Queue) anticipationExpired(gen uint64) {
	q.mu.Lock(nil)
	if !q.antOpen || gen != q.antGen {
		q.mu.Unlock()
		return // window already converted by a waiter, plug, or pressure
	}
	q.antOpen = false
	q.antStop = nil
	q.plugTimeouts++
	q.mu.Unlock()
	q.kick(nil)
}

// flushAnticipation closes any open window before a caller sleeps on a
// request: the submitter is out of follow-ups, so holding dispatch back
// any longer is pure latency (Linux flushes the task plug in schedule()
// for the same reason).
func (q *Queue) flushAnticipation(t *sched.Task) {
	q.mu.Lock(t)
	open := q.antOpen
	q.closeAnticipationLocked()
	q.mu.Unlock()
	if open {
		q.kick(t)
	}
}

// submit enqueues one request whose range the caller has checked, then
// kicks dispatch. waitsNow marks a submitter that sleeps on the request
// straight away (ReadBlocksT, WriteBlocksT) rather than holding a ticket.
func (q *Queue) submit(t *sched.Task, write, waitsNow bool, lba, n int, buf []byte) (*request, error) {
	r := &request{write: write, lba: lba, n: n, buf: buf}
	q.mu.Lock(t)
	if q.dead {
		err := q.deadErr
		q.mu.Unlock()
		return nil, err
	}
	idle := len(q.pending) == 0 && len(q.inflight) == 0 && q.direct == 0
	// Insert in LBA order (the elevator's working order).
	i := sort.Search(len(q.pending), func(i int) bool { return q.pending[i].lba >= lba })
	q.pending = append(q.pending, nil)
	copy(q.pending[i+1:], q.pending[i:])
	q.pending[i] = r
	q.pendingN += n
	q.submitted++
	if l := int64(len(q.pending)); l > q.queuedPeak {
		q.queuedPeak = l
	}
	// Anticipatory plugging: a request hitting an idle, unplugged queue
	// would dispatch alone — solo commands are exactly what the elevator
	// cannot merge. Hold it for PlugDelay instead, so a lone sequential
	// writer's follow-ups accumulate into one command. Requests landing in
	// an open window are the anticipated traffic (plug hits); once the
	// pending span can no longer grow a bigger command, waiting is
	// pointless and the window converts. A submitter that waits at once
	// has no follow-ups to anticipate — its wait would close the window
	// straight away — so it never opens one, though it may still land in
	// a window a ticket holder opened.
	if q.plugDelay > 0 && q.plugs == 0 {
		switch {
		case q.antOpen:
			q.plugHits++
			if q.pendingN >= maxMergeBlocks {
				q.closeAnticipationLocked()
			}
		case idle && !waitsNow:
			q.openAnticipationLocked()
		}
	}
	q.mu.Unlock()
	q.kick(t)
	return r, nil
}

// wait sleeps until r completes. Callers, tasks and host contexts
// alike, sleep on the request's wait queue and are woken from the
// completion IRQ. The sleep is uninterruptible (completions always
// arrive). A waiter ends any anticipatory window first — it is about to
// sleep, so the window's batch is as big as it is going to get.
func (q *Queue) wait(t *sched.Task, r *request) error {
	q.flushAnticipation(t)
	parked := q.parkPlugs(t)
	defer q.unparkPlugs(t, parked)
	isDone := func() bool {
		q.mu.Lock(t)
		d := r.done
		q.mu.Unlock()
		return d
	}
	for !isDone() {
		r.wq.SleepUnless(t, isDone)
	}
	return r.err
}

// kick dispatches until the device queue is full, the queue is plugged
// (explicitly or anticipatorily), or no requests are pending. Runs in
// submitter context, the anticipatory plug's timer context, and — for
// async backends — completion-IRQ context, which is what keeps the device
// busy without a dedicated dispatcher task.
func (q *Queue) kick(t *sched.Task) {
	for {
		q.mu.Lock(t)
		if q.plugs > 0 || q.antOpen || len(q.inflight)+q.direct >= q.depth || len(q.pending) == 0 {
			q.mu.Unlock()
			return
		}
		cmd := q.buildCommandLocked()
		q.inflight[cmd.tag] = cmd
		q.dispatched++
		q.merged += int64(len(cmd.reqs) - 1)
		if l := int64(len(q.inflight) + q.direct); l > q.depthPeak {
			q.depthPeak = l
		}
		q.mu.Unlock()
		q.issue(t, cmd)
	}
}

// issue sends one tracked command to the device (the caller has already
// placed it in inflight). Async backends get a command timeout armed;
// synchronous devices complete inline — they cannot hang, so no timer.
// Runs in submitter, IRQ, retry-timer and timeout-timer contexts.
func (q *Queue) issue(t *sched.Task, cmd *command) {
	// Snapshot the mutable fields under the lock: a timed-out command's
	// tag and buffer are rewritten by a later reissue, which must not race
	// this attempt's device call.
	q.mu.Lock(t)
	tag, buf := cmd.tag, cmd.buf
	if q.abe != nil && q.cmdTimeout > 0 && q.inflight[tag] == cmd {
		cmd.cancelT = q.after(q.cmdTimeout, func() { q.timeout(tag) })
	}
	q.mu.Unlock()
	if q.abe != nil {
		var err error
		if cmd.write {
			err = q.abe.SubmitWrite(tag, cmd.lba, cmd.n, buf)
		} else {
			err = q.abe.SubmitRead(tag, cmd.lba, cmd.n, buf)
		}
		if err != nil {
			// Immediate reject (bad descriptor, dead device): complete in
			// place.
			q.finish(t, tag, err)
		}
		return
	}
	// Synchronous device: this context is the "driver"; do the IO and
	// complete the command ourselves.
	q.finish(t, tag, q.syncIO(cmd.write, cmd.lba, cmd.n, buf))
}

// syncIO performs one transfer on the synchronous device, inline.
func (q *Queue) syncIO(write bool, lba, n int, buf []byte) error {
	if write {
		return q.dev.WriteBlocks(lba, n, buf)
	}
	return q.dev.ReadBlocks(lba, n, buf)
}

// timeout is the command timer's callback: the device never answered for
// tag within the window. The command is abandoned — its buffer may still
// be a late DMA target, so it is never pooled again — and routed through
// the same failure policy as an errored completion. A completion that
// arrives after all is a stray and is dropped.
func (q *Queue) timeout(tag uint64) {
	q.mu.Lock(nil)
	cmd := q.inflight[tag]
	if cmd == nil {
		q.mu.Unlock()
		return // completed (or killed) just before the timer fired
	}
	delete(q.inflight, tag)
	cmd.cancelT = nil
	cmd.abandoned = true
	q.cmdTimeouts++
	q.mu.Unlock()
	q.resolveFailure(nil, cmd, ErrCmdTimeout)
}

// buildCommandLocked picks the elevator's next request and absorbs every
// pending request contiguous with it (same direction) into one command.
// Caller holds q.mu.
func (q *Queue) buildCommandLocked() *command {
	// Elevator pick: first request at or above the head, wrapping to the
	// lowest LBA when the sweep tops out.
	i := sort.Search(len(q.pending), func(i int) bool { return q.pending[i].lba >= q.head })
	if i == len(q.pending) {
		i = 0
	}
	seed := q.pending[i]

	// Grow a contiguous same-direction group around the seed in the sorted
	// slice. Writes merge only when exactly adjacent (no overlap — order
	// between overlapping writes is undefined here); reads merge when they
	// overlap or touch, since one covering transfer serves them all.
	lo, hi := i, i+1
	start, end := seed.lba, seed.lba+seed.n
	joins := func(r *request) (bool, int, int) {
		if r.write != seed.write {
			return false, 0, 0
		}
		rEnd := r.lba + r.n
		if seed.write {
			if r.lba != end && rEnd != start {
				return false, 0, 0
			}
		} else if r.lba > end || rEnd < start {
			return false, 0, 0
		}
		ns, ne := start, end
		if r.lba < ns {
			ns = r.lba
		}
		if rEnd > ne {
			ne = rEnd
		}
		return ne-ns <= maxMergeBlocks, ns, ne
	}
	for hi < len(q.pending) {
		ok, ns, ne := joins(q.pending[hi])
		if !ok {
			break
		}
		start, end = ns, ne
		hi++
	}
	for lo > 0 {
		ok, ns, ne := joins(q.pending[lo-1])
		if !ok {
			break
		}
		start, end = ns, ne
		lo--
	}

	group := make([]*request, hi-lo)
	copy(group, q.pending[lo:hi])
	q.pending = append(q.pending[:lo], q.pending[hi:]...)
	for _, r := range group {
		q.pendingN -= r.n
	}
	q.head = end

	q.nextTag++
	cmd := &command{tag: q.nextTag, write: seed.write, lba: start, n: end - start, reqs: group}
	if len(group) == 1 {
		cmd.buf = seed.buf[:seed.n*q.bs]
		return cmd
	}
	// Multi-request command: a pooled bounce buffer covers the merged
	// span. Writes are gathered now; reads are scattered at completion.
	buf := *(q.pool.Get().(*[]byte))
	cmd.buf = buf[:cmd.n*q.bs]
	cmd.bounce = true
	if cmd.write {
		for _, r := range group {
			copy(cmd.buf[(r.lba-start)*q.bs:], r.buf[:r.n*q.bs])
		}
	}
	return cmd
}

// CompletionIRQ is the device-interrupt entry point: the kernel's IRQSD
// handler calls it to drain the backend's completion queue. Each finished
// command wakes its submitters, and the freed device slot is refilled
// immediately — the next command is issued from interrupt context.
func (q *Queue) CompletionIRQ() {
	if q.abe == nil {
		return
	}
	for {
		tag, err, ok := q.abe.PopCompletion()
		if !ok {
			return
		}
		q.finish(nil, tag, err)
	}
}

// finish takes a command's completion: cancel its timeout, and either
// complete it (success, or failure with no recovery left) or hand it to
// the failure policy — retry with backoff, split, or declare the device
// dead.
func (q *Queue) finish(t *sched.Task, tag uint64, err error) {
	q.mu.Lock(t)
	cmd := q.inflight[tag]
	delete(q.inflight, tag)
	if cmd == nil {
		q.mu.Unlock()
		return // stray completion (sync-path DMA raise, or abandoned tag)
	}
	if cmd.cancelT != nil {
		cmd.cancelT()
		cmd.cancelT = nil
	}
	dead := q.dead
	q.mu.Unlock()
	if err != nil && !dead {
		q.resolveFailure(t, cmd, err)
		return
	}
	q.complete(t, cmd, err)
}

// retryable reports whether err is worth re-issuing the same command for:
// transient injected media errors (which heal) and timeouts (the device
// may merely be slow). Persistent faults — bad sectors, write protection,
// device death, rejected descriptors — are not.
func retryable(err error) bool {
	return errors.Is(err, fs.ErrSDInjected) || errors.Is(err, ErrCmdTimeout)
}

// resolveFailure routes one failed command (already removed from
// inflight) through the recovery policy:
//
//   - device death latches the dead state and fast-fails everything;
//   - transient errors and timeouts re-issue the command with exponential
//     backoff, up to maxRetries;
//   - a command whose every attempt TIMED OUT has proven the device
//     unresponsive — that, too, declares it dead;
//   - a persistent bad sector under a merged command splits it so only
//     the requests covering the sector ultimately fail;
//   - anything else fails the command's requests with the error.
func (q *Queue) resolveFailure(t *sched.Task, cmd *command, err error) {
	switch {
	case errors.Is(err, fs.ErrDeviceDead):
		q.markDead(t, cmd, err)
	case retryable(err) && cmd.attempts < q.maxRetries:
		q.mu.Lock(t)
		if q.dead {
			derr := q.deadErr
			q.mu.Unlock()
			q.complete(t, cmd, derr)
			return
		}
		q.retries++
		q.mu.Unlock()
		delay := retryBackoffBase << cmd.attempts
		q.after(delay, func() { q.reissue(cmd) })
	case errors.Is(err, ErrCmdTimeout):
		// Every attempt timed out: nothing is answering. Declare death so
		// no later submitter waits out the same window.
		q.markDead(t, cmd, fs.ErrDeviceDead)
	case errors.Is(err, fs.ErrBadSector) && len(cmd.reqs) > 1:
		q.split(t, cmd, err)
	default:
		q.complete(t, cmd, err)
	}
}

// reissue re-sends a command after its backoff delay, under a fresh tag.
// An abandoned read gets a fresh queue-owned buffer — the old one may
// still be the late DMA's target and is leaked, never pooled; an
// abandoned write keeps its buffer (the device only reads it, and a late
// landing writes the same bytes). Runs in timer context.
func (q *Queue) reissue(cmd *command) {
	q.mu.Lock(nil)
	if q.dead {
		derr := q.deadErr
		q.mu.Unlock()
		q.complete(nil, cmd, derr)
		return
	}
	if cmd.abandoned && !cmd.write {
		cmd.buf = q.freshBuf(cmd.n)
		cmd.bounce = true
		cmd.abandoned = false
	}
	cmd.attempts++
	q.nextTag++
	cmd.tag = q.nextTag
	q.inflight[cmd.tag] = cmd
	q.mu.Unlock()
	q.issue(nil, cmd)
}

// freshBuf returns a queue-owned buffer for n blocks: pooled when the
// standard bounce size covers it, else a one-off allocation. Caller holds
// q.mu (the pool is internally synchronized; holding mu is merely
// harmless).
func (q *Queue) freshBuf(n int) []byte {
	if n <= maxMergeBlocks {
		return (*(q.pool.Get().(*[]byte)))[:n*q.bs]
	}
	return make([]byte, n*q.bs)
}

// split re-issues a failed merged command as two halves (by member
// request), each with a fresh retry budget. Recursion through further
// failures bottoms out at single-request commands, so a persistent bad
// sector fails exactly the requests covering it while every merged
// neighbor's IO still lands.
func (q *Queue) split(t *sched.Task, cmd *command, err error) {
	mid := len(cmd.reqs) / 2
	halves := [][]*request{cmd.reqs[:mid:mid], cmd.reqs[mid:]}
	subs := make([]*command, 0, 2)
	q.mu.Lock(t)
	if q.dead {
		derr := q.deadErr
		q.mu.Unlock()
		q.complete(t, cmd, derr)
		return
	}
	q.splits++
	for _, group := range halves {
		start, end := group[0].lba, group[0].lba+group[0].n
		for _, r := range group[1:] {
			if r.lba < start {
				start = r.lba
			}
			if e := r.lba + r.n; e > end {
				end = e
			}
		}
		q.nextTag++
		sub := &command{tag: q.nextTag, write: cmd.write, lba: start, n: end - start, reqs: group}
		if len(group) == 1 {
			sub.buf = group[0].buf[:group[0].n*q.bs]
		} else {
			sub.buf = q.freshBuf(sub.n)
			sub.bounce = true
			if sub.write {
				for _, r := range group {
					copy(sub.buf[(r.lba-start)*q.bs:], r.buf[:r.n*q.bs])
				}
			}
		}
		q.inflight[sub.tag] = sub
		subs = append(subs, sub)
	}
	q.mu.Unlock()
	q.recycle(cmd)
	for _, sub := range subs {
		q.issue(t, sub)
	}
}

// markDead latches the dead-device state: the failing command, every
// queued request, and every other in-flight command complete immediately
// with ErrDeviceDead, and all future submissions fast-fail. Commands
// sitting out a retry backoff find the latch when their timer fires.
func (q *Queue) markDead(t *sched.Task, cmd *command, err error) {
	q.mu.Lock(t)
	if !q.dead {
		q.dead = true
		q.deadErr = err
	}
	derr := q.deadErr
	pending := q.pending
	q.pending = nil
	q.pendingN = 0
	var cmds []*command
	if cmd != nil {
		cmds = append(cmds, cmd)
	}
	for tag, c := range q.inflight {
		delete(q.inflight, tag)
		if c.cancelT != nil {
			c.cancelT()
			c.cancelT = nil
		}
		c.abandoned = true // completions may still arrive; never pool
		cmds = append(cmds, c)
	}
	q.closeAnticipationLocked()
	for _, r := range pending {
		r.err = derr
		r.done = true
	}
	q.mu.Unlock()
	for _, r := range pending {
		r.wq.WakeAll()
	}
	for _, c := range cmds {
		q.complete(t, c, derr)
	}
}

// complete finishes a command for good: scatter read data to the member
// requests, record the error, wake waiters, recycle the bounce buffer,
// refill the device queue.
func (q *Queue) complete(t *sched.Task, cmd *command, err error) {
	q.mu.Lock(t)
	if cmd.bounce && !cmd.write && err == nil {
		for _, r := range cmd.reqs {
			copy(r.buf[:r.n*q.bs], cmd.buf[(r.lba-cmd.lba)*q.bs:])
		}
	}
	for _, r := range cmd.reqs {
		r.err = err
		r.done = true
	}
	q.mu.Unlock()
	q.recycle(cmd)
	for _, r := range cmd.reqs {
		r.wq.WakeAll()
	}
	q.kick(t)
}

// recycle returns a command's queue-owned buffer to the pool — unless the
// command was abandoned (a late DMA may still target the buffer; leaking
// it is the only safe move) or the buffer is an oversize one-off.
func (q *Queue) recycle(cmd *command) {
	if !cmd.bounce || cmd.abandoned || cap(cmd.buf) < maxMergeBlocks*q.bs {
		return
	}
	buf := cmd.buf[:cap(cmd.buf)]
	q.pool.Put(&buf)
	cmd.buf = nil
	cmd.bounce = false
}

// Stats reports queue activity: requests submitted, device commands
// dispatched, requests that were merged into another request's command,
// and the peak in-flight command / queued request counts. The merge ratio
// submitted/dispatched is what /proc/diskstats derives.
func (q *Queue) Stats() (submitted, dispatched, merged, depthPeak, queuedPeak int64) {
	q.mu.Lock(nil)
	defer q.mu.Unlock()
	return q.submitted, q.dispatched, q.merged, q.depthPeak, q.queuedPeak
}

// PlugStats reports anticipatory-plug activity: requests that arrived
// inside an open window (hits — the anticipated traffic) and windows that
// expired on their timer (timeouts — the misses, each costing one
// PlugDelay of added latency). Both surface in /proc/diskstats.
func (q *Queue) PlugStats() (hits, timeouts int64) {
	q.mu.Lock(nil)
	defer q.mu.Unlock()
	return q.plugHits, q.plugTimeouts
}

// FaultStats reports the recovery path's activity: command re-issues for
// transient errors and timeouts, commands the device never answered,
// merged commands split after persistent failures, and whether the
// dead-device latch has tripped. All surface in /proc/diskstats.
func (q *Queue) FaultStats() (retries, timeouts, splits int64, dead bool) {
	q.mu.Lock(nil)
	defer q.mu.Unlock()
	return q.retries, q.cmdTimeouts, q.splits, q.dead
}

// Dead reports whether the queue has latched the dead-device state.
func (q *Queue) Dead() bool {
	q.mu.Lock(nil)
	defer q.mu.Unlock()
	return q.dead
}

// Depth reports the configured in-flight command bound.
func (q *Queue) Depth() int { return q.depth }

var (
	_ fs.TaskBlockDevice   = (*Queue)(nil)
	_ fs.QueuedBlockDevice = (*Queue)(nil)
)
