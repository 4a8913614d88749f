// Package blkq is Proto's per-device IO request queue: the asynchronous
// block layer between the buffer cache and the device driver.
//
// Callers submit read/write requests; the queue keeps them sorted by LBA
// and dispatches them elevator-style (one ascending sweep, wrapping at the
// top), merging adjacent requests from different tasks into single
// multi-block device commands — the batching the paper's SD timing model
// rewards, applied across tasks instead of within one call. Up to Depth
// commands are in flight at the device at once.
//
// # Dispatch and completion
//
// On a device with split submit/completion halves (hw.SDCard's
// SubmitRead/SubmitWrite + PopCompletion), dispatch programs the DMA
// transfer and returns; the completion IRQ (hw.IRQSD, routed here by the
// kernel via CompletionIRQ) finishes the command, wakes the submitting
// tasks off the sched wait queue, and issues the next command from
// interrupt context — no task ever busy-waits inside the driver. On a
// plain synchronous device (the ramdisk) the dispatching context performs
// the IO inline and completes it itself; the queueing, merging and
// accounting behave identically.
//
// # Merge rules
//
// A dispatched command is the elevator's pick plus every pending request
// contiguous with it in the same direction, bounded at maxMergeBlocks
// (128) so neither layer builds unbounded commands:
//
//   - Writes merge only when exactly adjacent. Overlapping writes have no
//     defined order once the elevator reorders, so they never share a
//     command.
//   - Reads merge when they overlap or touch: one covering transfer is
//     issued and each member request's slice is scattered out of it at
//     completion.
//
// Multi-request commands use a pooled bounce buffer; single-request
// commands are zero-copy out of the caller's buffer.
//
// # Depth bound
//
// At most Depth (default 4) commands are in flight at the device. The
// bound is enforced at dispatch: kick issues commands until the device
// queue is full, the queue is plugged, or nothing is pending, and every
// completion refills the freed slot — from interrupt context on the async
// path, so the device never idles while work is queued.
//
// # Plug lifecycle
//
// Plugging holds dispatch so a batch can assemble and merge before the
// first command leaves. There are two kinds, and they never overlap:
//
//   - Explicit Plug/Unplug brackets, Linux-style, around code that knows
//     it is building a batch (the buffer cache's writeback passes).
//     While plugged, submissions queue without dispatching; Unplug
//     dispatches the merged batch immediately — an explicit batch never
//     pays the anticipatory delay.
//   - An anticipatory plug (Options.PlugDelay) opens automatically when a
//     ticket request (SubmitWrite) arrives at an idle queue — no pending
//     requests, nothing in flight, no explicit plug. A lone submitter's
//     follow-up requests land inside the window and merge, where an idle
//     queue would otherwise dispatch the first request alone, solo and
//     unmergeable. The window
//     closes and dispatch resumes when (a) a task waits on any pending
//     request — the task is about to sleep, so holding its IO back any
//     longer is pure latency (Linux flushes the task plug in schedule()
//     for the same reason); (b) the pending span reaches maxMergeBlocks —
//     a longer wait cannot grow the command; (c) an explicit Plug takes
//     over; or (d) PlugDelay expires (the timer fires through the
//     Options.After source — the kernel's virtual timers — and counts as
//     a plug timeout, even when the window caught hits). Every window
//     lasts the same PlugDelay. Submissions that arrive while a window
//     is open count as plug hits; both counters surface in
//     /proc/diskstats. Anticipation pays only where the submitter runs
//     ahead of its IO, so ReadBlocksT and WriteBlocksT, which sleep on
//     their request at once, never open a window: by (a) it would close
//     as soon as it opened, having only armed and cancelled a timer.
//     They still count as hits when they land in an open one.
//
// # Direct issue
//
// A waited request (ReadBlocksT, WriteBlocksT) on a synchronous backend
// skips the elevator when the queue is idle, like blk-mq's
// blk_mq_try_issue_directly. Idle means, all under the queue lock: the
// queue is not dead, no explicit plug is held, no anticipatory window is
// open, nothing is pending, nothing is in flight, and no other direct
// transfer is running. The submitter then drops the lock, calls the
// device itself and allocates nothing: no request, no command.
//
//   - Stats: the transfer counts one submitted request and one dispatched
//     command, and the queued and in-flight peaks reach at least 1 —
//     exactly what the elevator would have recorded for a request that
//     found the queue idle. Statistics do not tell the two routes apart.
//   - Depth: a direct transfer holds a device slot. kick's depth check and
//     submit's idle test (which decides whether a ticket opens an
//     anticipatory window) both count it, and its end kicks dispatch if
//     requests queued behind it.
//   - Failure: a failed direct transfer becomes a tracked one-request
//     command and enters the failure policy as its first attempt (attempt
//     0), then its submitter waits on it. Retries, bad-sector handling
//     and the dead latch are the elevator path's; falling back to the
//     elevator instead would grant one extra attempt.
//
// Async backends never take the path: a waiter there sleeps until the
// completion IRQ, which needs the command tracked by tag, and issuing
// from the submitter would gain nothing the IRQ-driven dispatch does not
// already give.
//
// # Caller invariants
//
// Two invariants callers must keep (the buffer cache does, via its
// per-buffer sleeplocks):
//
//   - No two in-flight writes, and no in-flight write and read, may
//     overlap: the elevator reorders freely, so overlapping commands have
//     no defined order.
//   - Request buffers stay stable (writes) or untouched (reads) until the
//     request completes.
//
// The queue lock ranks below the buffer-cache buffer locks
// (ksync.RankBlkq): submitters hold the buffer sleeplocks of the blocks
// they queue, and the queue lock is never held across a device wait.
package blkq
