// Package uring is the submission/completion ring for batched file IO —
// the io_uring-shaped amortization layer over the open-file-description
// (fs.OpenFile) contract.
//
// The cost model it attacks: every Sys* file operation is one scheduler
// entry (syscall count, preemption checkpoint, and — for the calling
// task — one full trip through the simulated-core dispatch). A workload
// issuing thousands of small positional IOs pays that per operation. The
// ring batches them: user code stages SQEs (submission queue entries)
// with Ring.Queue — plain memory writes into pooled slots, no syscall at
// all, the analogue of io_uring's shared SQ pages — and then ONE
// SysRingEnter drains the whole batch. Completions are posted
// asynchronously into the pooled CQ as each operation finishes and are
// reaped with Ring.Reap, again without a syscall.
//
// # Execution model
//
// A ring owns a small pool of kernel worker tasks (spawned through
// Options.Spawn so the kernel can place them on its scheduler). Enter's
// handoff moves staged SQEs into the active set under a single blkq
// Plug/Unplug bracket (Options.Plug/Unplug) and wakes the pool; workers
// pull entries and run them against the process's FD table concurrently,
// so a 64-SQE batch overlaps at the device up to the queue depth instead
// of serializing 64 latency round-trips. The bracket covers only the
// non-blocking handoff — workers never hold a queue-global plug across a
// blocking operation (a plug held by a sleeping owner is the deadlock
// shape blkq's plug parking exists to defuse); batch merging comes from
// worker concurrency plus the queue's anticipatory plug.
//
// # Semantics
//
//   - Operations are positional only (pread/pwrite/preadv/pwritev/fsync
//     plus nop): everything the OFD serves without touching the shared
//     file offset, so concurrent in-flight SQEs cannot corrupt a file
//     position. Ordering between in-flight SQEs is NOT guaranteed — as
//     in io_uring, a caller that needs write-before-fsync issues the
//     fsync in a later batch (after reaping the writes).
//   - Per-op errors land in the op's CQE (bad descriptor, ErrBadSeek on
//     a non-positional file, short IO), never in Enter's return: one bad
//     SQE does not abort its batch.
//   - Fsync SQEs run fs.OpenFile.Sync, which observes the description's
//     per-open errseq cursor — an asynchronous writeback failure
//     surfaces in exactly one fsync CQE per descriptor, the same
//     exactly-once contract the synchronous SysFsync path has.
//   - The slots are pooled at Setup (SQ of `entries`, active and CQ of
//     2×entries): the steady-state hot loop allocates nothing, and
//     admission control in Enter never hands off more work than the CQ
//     can absorb, so completions are never dropped.
//
// The kernel face is two syscalls on *kernel.Proc: SysRingSetup(entries)
// and SysRingEnter(toSubmit, minComplete); the ring handle's Queue/Reap
// are the "shared memory" halves. The ring is per process group (threads
// share it, like the FD table) and is closed on process exit before the
// descriptor table is torn down: Close joins the worker pool (its exit
// accounting watches the worker tasks' Done channels, so even a worker
// killed before its first dispatch is counted), while a condemned task's
// finalize uses Abandon — close without the join — because parking
// host-side would hold the core the workers need to exit.
//
// Every wait in the ring — a worker idling for entries, Enter waiting
// for completions, Close joining the pool — is one sched.WaitQueue
// sleep. A nil task (a test driving the ring from the host) sleeps on the
// same queues, parked on the host, and the same wakes reach it.
package uring
