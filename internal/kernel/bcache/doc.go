// Package bcache is Proto's buffer cache: the single block-caching layer
// between every filesystem and its block device.
//
// The original xv6-inherited design — one global lock over a fixed pool of
// single-block buffers — only supported single-block Get/Release, which is
// why Prototype 5's FAT32 bypassed it entirely for multi-block range
// accesses (§5.2) and why the ROADMAP called the cache out as the hot-path
// bottleneck. This package replaces it with a sharded, range-capable,
// write-behind design.
//
// # Sharding and the single-block contract
//
// Buffers live in N shards keyed by LBA; each shard has its own lock,
// hash map, and LRU list, so cache traffic on different shards never
// contends. With the filesystems on per-inode locking, N tasks on N files
// reach N shards concurrently on a single mount. Get/MarkDirty/Release
// keep the xv6 single-block contract — per-buffer sleeplocks, identity
// (two Gets of one block converge on one buffer) — so xv6fs metadata code
// is unchanged. ReadRange/WriteRange are first-class multi-block
// operations: ReadRange serves cached blocks from memory and coalesces
// misses into single device commands (plus sequential readahead);
// WriteRange installs a whole claimed segment at once. Range operations
// are atomic per block, not across the range; callers that need
// whole-range atomicity (filesystems) serialize with their own per-inode
// locks.
//
// # Write policies
//
// WritePolicyBehind (the default): WriteRange and MarkDirty leave dirty
// buffers in the cache and return without touching the device; repeated
// writes to a still-dirty block cost one eventual writeback. The device
// catches up at daemon writeback, eviction handoff, or a Flush barrier.
// WritePolicyThrough issues every WriteRange's device command before
// returning — the synchronous baseline the paper's measurements compare
// against — and is what kernel.ModeXv6 runs, over a depth-1 queue.
//
// # One route to the device
//
// Every device command the cache issues goes through a blkq request
// queue. A cache built over a device that is not already a queue fronts
// it with one of its own (no anticipatory plug, so a cache without the
// kernel's timers dispatches deterministically); the kernel passes its
// own queues in. Reads, write-through writes and every writeback path —
// Flush, FlushOwner, FlushBlocks, the daemon and eviction — share it.
//
// # The writeback daemon and the eviction handoff
//
// RunDaemon is the per-mount kflushd task: it flushes dirty buffers when
// the dirty count crosses Options.WritebackRatio (MarkDirty/WriteRange
// kick it) and at least every Options.FlushInterval (the age bound).
// While a daemon runs, eviction never writes back inline: a claim that
// needs a buffer takes the least-recently-used CLEAN victim, and if only
// dirty victims remain it kicks the daemon and sleeps on the shard's wait
// queue until the daemon's writeback unpins a clean victim — a writer
// never waits on another file's writeback command itself, and the daemon
// (not a random evictor) pays the device wait.
// Without a daemon (write-through configurations, tests), eviction of a
// dirty victim writes it back through the same queued writeback path as
// a one-block flush, while the victim stays mapped and pinned, so a
// concurrent Get can never read a stale device copy.
//
// The ratio trigger's contract is Linux's dirty_background_ratio: a
// kicked pass writes back what was dirty when it started, and every
// dirtying that leaves the count at or above the trigger kicks again, so
// kicks drive the count below the trigger. Blocks dirtied once the count
// is back under it wait for the age interval.
//
// # Flush, fsync, and errseq error semantics
//
// Flush is the whole-device durability barrier (volume Sync, unmount,
// SysSync): every dirty buffer is written back — the blocks are submitted
// asynchronously under an explicit plug and the elevator merges them —
// and every completion is awaited before return.
// FlushOwner is the per-file flush (the work half of fsync): it writes
// back only the buffers tagged with one file's Owner token (plus
// caller-named metadata blocks), found through the Owner's own dirty
// list — O(dirty-own), never a walk of the shards — and submitted
// without an explicit plug: an fsync is the lone, latency-sensitive
// submitter the request queue's anticipatory plug exists for.
//
// Errors from writebacks nobody waits on (daemon passes, eviction) are
// recorded Linux-errseq-style in the owning file's Owner stream
// (errseq.Stream) and in the cache's device-wide stream, not in a
// cache-wide latch: each stream position advances on every failure and
// never rewinds, so a retried write that succeeds does not erase the
// epoch. Observation of a file's stream is per OPEN FILE DESCRIPTION,
// not per file: FlushOwner only flushes, and each fs.OpenFile observes
// its own errseq cursor afterwards — two descriptors on one inode each
// report a failure exactly once (Linux f_wb_err semantics). The
// device-wide stream keeps a single observer, Flush, so the volume
// barrier still reports every failure once. One file's fsync never
// reports another file's daemon error, and failed buffers stay dirty,
// so the data itself is never silently dropped. See the Owner type and
// package errseq for the full semantics.
package bcache
