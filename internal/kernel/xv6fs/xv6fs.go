// Package xv6fs is Proto's port of the xv6 filesystem ("xv6fs"): an
// ext2-like on-disk layout with a superblock, inode array, allocation
// bitmap and data blocks, accessed through the buffer cache. Geometry
// follows the paper's numbers: 1 KB blocks, 12 direct addresses plus one
// singly-indirect block, so the maximum file size is (12+256)·1 KB =
// 268 KB — the "270 KB" limit that pushes Prototype 5 to FAT32 (§4.5).
//
// Metadata stays strictly block-at-a-time (the xv6 structure the paper
// teaches), but file reads coalesce runs of physically contiguous data
// blocks into multi-block cache range reads — the sharded bcache's
// ReadRange — so sequentially-written files stream at range speed without
// the filesystem knowing anything about the cache's internals.
//
// Locking follows xv6 proper, not the volume-wide sleeplock earlier
// versions of this port used: an in-memory inode table (itable) hands out
// refcounted inodes, each with its own sleeplock, and the shared
// allocation structures get dedicated narrow locks (ialloc for the inode
// array, balloc for the block bitmap) so allocators never contend with
// data IO on unrelated files. The lock hierarchy — rename serialization,
// then inodes (parent directory before child), then allocators, then
// buffer-cache blocks — is ranked and assertable via ksync.SetRankCheck;
// see ARCHITECTURE.md's locking section.
package xv6fs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"protosim/internal/kernel/bcache"
	"protosim/internal/kernel/dcache"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/jnl"
	"protosim/internal/kernel/ksync"
	"protosim/internal/kernel/sched"
)

// On-disk geometry.
const (
	BlockSize = 1024
	NDirect   = 12
	NIndirect = BlockSize / 4
	MaxFile   = NDirect + NIndirect // blocks: 268 KB

	Magic = 0x10203040

	DirentSize = 16
	MaxName    = 13 // dirent name bytes minus NUL

	inodeSize      = 64
	inodesPerBlock = BlockSize / inodeSize
	rootInum       = 1

	// DefaultLogBlocks is the write-ahead log region Mkfs reserves right
	// after the superblock: one header block plus 63 transaction slots —
	// room for six maximally-sized operations in one group commit.
	DefaultLogBlocks = 64

	// The on-disk orphan list lives in the superblock block's tail — inodes
	// unlinked while still open, recorded in the unlinking transaction so a
	// crash leaves mount-time recovery an exact list to reclaim instead of
	// a full inode-array scan. Layout at orphanOff: a uint32 overflow flag
	// (non-zero = the list filled up and recovery must fall back to the
	// scan), then orphanMax uint32 inode numbers (0 = empty slot).
	orphanOff = 64
	orphanMax = (BlockSize - orphanOff - 4) / 4
)

// On-disk inode types.
const (
	typeFree = 0
	typeDir  = 1
	typeFile = 2
)

// ErrBadFS reports a corrupt or foreign superblock.
var ErrBadFS = errors.New("xv6fs: bad superblock")

// errOnlyRevoked is allocBlock's ErrNoSpace when free blocks remain but the
// journal still revokes every one of them. The allocating entry points
// (Open, Mkdir, Rename, Pwrite) close their bracket, drain the log with
// liftRevokes and retry once.
var errOnlyRevoked = fmt.Errorf("%w: every free block is revoked", fs.ErrNoSpace)

// Superblock mirrors the on-disk layout header. LogStart/LogSize describe
// the write-ahead log region; a zero LogSize is a legacy unjournaled image
// (pre-journal superblocks left those bytes zero) and mounts without one.
type Superblock struct {
	Magic       uint32
	Size        uint32 // total blocks
	NInodes     uint32
	InodeStart  uint32
	BitmapStart uint32
	DataStart   uint32
	LogStart    uint32 // log header block; slots follow
	LogSize     uint32 // log blocks including the header (0 = no journal)
}

func (sb *Superblock) encode(b []byte) {
	binary.LittleEndian.PutUint32(b[0:], sb.Magic)
	binary.LittleEndian.PutUint32(b[4:], sb.Size)
	binary.LittleEndian.PutUint32(b[8:], sb.NInodes)
	binary.LittleEndian.PutUint32(b[12:], sb.InodeStart)
	binary.LittleEndian.PutUint32(b[16:], sb.BitmapStart)
	binary.LittleEndian.PutUint32(b[20:], sb.DataStart)
	binary.LittleEndian.PutUint32(b[24:], sb.LogStart)
	binary.LittleEndian.PutUint32(b[28:], sb.LogSize)
}

func (sb *Superblock) decode(b []byte) {
	sb.Magic = binary.LittleEndian.Uint32(b[0:])
	sb.Size = binary.LittleEndian.Uint32(b[4:])
	sb.NInodes = binary.LittleEndian.Uint32(b[8:])
	sb.InodeStart = binary.LittleEndian.Uint32(b[12:])
	sb.BitmapStart = binary.LittleEndian.Uint32(b[16:])
	sb.DataStart = binary.LittleEndian.Uint32(b[20:])
	sb.LogStart = binary.LittleEndian.Uint32(b[24:])
	sb.LogSize = binary.LittleEndian.Uint32(b[28:])
}

// validate rejects a corrupt or hostile superblock before any field is
// used to size a loop, an allocation, or a block address. All arithmetic
// is in uint64 so crafted values can't overflow their way past a bound;
// every region must land inside the device and the regions must appear
// in layout order without overlapping.
func (sb *Superblock) validate(devBlocks int) error {
	if sb.Magic != Magic {
		return fmt.Errorf("%w: magic %#x", ErrBadFS, sb.Magic)
	}
	size := uint64(sb.Size)
	if size < 4 || size > uint64(devBlocks) {
		return fmt.Errorf("%w: size %d (device %d)", ErrBadFS, sb.Size, devBlocks)
	}
	if sb.NInodes < 2 || sb.InodeStart < 1 {
		return fmt.Errorf("%w: %d inodes at block %d", ErrBadFS, sb.NInodes, sb.InodeStart)
	}
	inodeBlocks := (uint64(sb.NInodes) + inodesPerBlock - 1) / inodesPerBlock
	if uint64(sb.InodeStart)+inodeBlocks > uint64(sb.BitmapStart) {
		return fmt.Errorf("%w: inode array [%d,+%d) overruns bitmap at %d", ErrBadFS, sb.InodeStart, inodeBlocks, sb.BitmapStart)
	}
	bitmapBlocks := (size + BlockSize*8 - 1) / (BlockSize * 8)
	if uint64(sb.BitmapStart)+bitmapBlocks > uint64(sb.DataStart) {
		return fmt.Errorf("%w: bitmap [%d,+%d) overruns data at %d", ErrBadFS, sb.BitmapStart, bitmapBlocks, sb.DataStart)
	}
	if uint64(sb.DataStart) >= size {
		return fmt.Errorf("%w: data region starts at %d of %d blocks", ErrBadFS, sb.DataStart, sb.Size)
	}
	if sb.LogSize > 0 {
		if sb.LogStart < 1 || sb.LogSize < 2 || uint64(sb.LogStart)+uint64(sb.LogSize) > uint64(sb.InodeStart) {
			return fmt.Errorf("%w: log region [%d,+%d) overlaps metadata", ErrBadFS, sb.LogStart, sb.LogSize)
		}
	}
	return nil
}

// dinode is the on-disk inode.
type dinode struct {
	Type  uint16
	NLink uint16
	Size  uint32
	Addrs [NDirect + 1]uint32
}

func (di *dinode) encode(b []byte) {
	binary.LittleEndian.PutUint16(b[0:], di.Type)
	binary.LittleEndian.PutUint16(b[2:], di.NLink)
	binary.LittleEndian.PutUint32(b[4:], di.Size)
	for i, a := range di.Addrs {
		binary.LittleEndian.PutUint32(b[8+4*i:], a)
	}
}

func (di *dinode) decode(b []byte) {
	di.Type = binary.LittleEndian.Uint16(b[0:])
	di.NLink = binary.LittleEndian.Uint16(b[2:])
	di.Size = binary.LittleEndian.Uint32(b[4:])
	for i := range di.Addrs {
		di.Addrs[i] = binary.LittleEndian.Uint32(b[8+4*i:])
	}
}

// FS is a mounted xv6fs.
type FS struct {
	dev fs.BlockDevice
	bc  *bcache.Cache
	sb  Superblock

	// renameMu serializes renames per mount (rank: rename), with
	// reader-writer sharding: a same-directory rename — which touches one
	// directory and is already serialized by that directory's inode lock —
	// holds it SHARED, while a cross-directory rename holds it EXCLUSIVE.
	// Cross-directory two-lock acquisition orders by textual ancestry,
	// which is only stable while no other rename (same-directory renames
	// of a directory included — they relabel subtree paths) reshapes the
	// tree; exclusive mode buys exactly that window, and nothing more.
	renameMu ksync.RWSleepLock

	// dc is this mount's slice of the kernel dentry cache (nil = uncached;
	// every dcache method is a no-op on nil). Fills happen only under the
	// parent directory's inode lock; every mutation site invalidates —
	// also under the parent's lock, before the dirent write — and bumps
	// the mount generation that namex's lock-free fast path re-checks.
	dc *dcache.Mount

	// itable is the in-memory inode table: one entry per inode with live
	// references, deduplicated by inode number so every holder converges
	// on the same sleeplock. imu guards the map and the ref counts.
	imu    sync.Mutex
	itable map[int]*inode

	// owners maps inum -> the file's writeback-error stream, guarded by
	// imu. It is deliberately SEPARATE from the itable: write-behind
	// buffers keep their owner tag after the last close drops the
	// in-memory inode, so the stream must outlive it — a reopen finds the
	// same Owner and its fsync still flushes that earlier data and
	// reports its errors. An entry dies only when the on-disk file does
	// (iput's reclaim), so the map is bounded by live file identities.
	owners map[int]*bcache.Owner

	// Narrow allocator locks (rank: alloc). ialloc serializes inode-array
	// allocation scans and free transitions; balloc serializes the block
	// bitmap. Data IO on already-allocated blocks never touches either.
	ialloc ksync.SleepLock
	balloc ksync.SleepLock

	// Allocator hints, FFS/ext2-style but exact: every inum below ifree
	// (guarded by ialloc) and every data block below bfree (guarded by
	// balloc) is allocated, so a scan may start there and still return
	// the lowest free one — the same inum or block a scan from the start
	// would. Allocations raise them past what they claim; frees lower
	// them. In memory only: a mount starts both at the bottom.
	ifree int
	bfree int

	// log is the write-ahead metadata journal (nil on legacy images with
	// no log region). Every entry point that can modify metadata brackets
	// itself with beginOp/endOp — exactly one bracket per entry point,
	// taken before any lock, never nested — and metadata writes go through
	// writeMeta, which records them in the open transaction.
	log *jnl.Journal

	// Error-resilience state (errors=remount-ro, like ext4's default).
	// degraded flips when any asynchronous writeback is abandoned (data
	// loss recorded in the owning file's errseq stream); roFlag latches
	// when METADATA durability fails — a journal commit error or device
	// death — after which every mutating entry point returns ErrReadOnly.
	// Reads and fsync stay available: fsync is how applications learn
	// which writes were lost.
	degraded atomic.Bool
	roFlag   atomic.Bool
	roCause  atomic.Value // error
}

// inode is an in-memory inode: the per-file lock the whole filesystem
// hangs off, plus a cached copy of the on-disk dinode.
type inode struct {
	inum int
	ref  int // guarded by FS.imu

	// lock (rank: inode, order: inum) guards valid and di, and serializes
	// all metadata/data operations on this inode.
	lock  ksync.SleepLock
	valid bool
	di    dinode

	// wb is this file's writeback-error stream (shared via FS.owners so
	// it survives the in-memory inode): data writes tag their dirty
	// buffers with it, asynchronous write failures advance it, and the
	// file's fsync observes it (bcache errseq semantics).
	wb *bcache.Owner
}

// Mount opens an existing filesystem on dev with default cache sizing.
func Mount(dev fs.BlockDevice, t *sched.Task) (*FS, error) {
	return MountWith(dev, t, bcache.Options{})
}

// MountWith opens an existing filesystem on dev with an explicitly
// configured buffer cache (shard count, buffer count, readahead).
func MountWith(dev fs.BlockDevice, t *sched.Task, copts bcache.Options) (*FS, error) {
	if dev.BlockSize() != BlockSize {
		return nil, fmt.Errorf("%w: device block size %d, want %d", ErrBadFS, dev.BlockSize(), BlockSize)
	}
	f := &FS{
		dev:    dev,
		itable: make(map[int]*inode),
		owners: make(map[int]*bcache.Owner),
	}
	// Give-up notifications from the cache drive the mount's health: any
	// abandoned writeback marks the volume degraded, and device death —
	// after which no metadata can ever commit — latches it read-only.
	// The hook runs with the buffer sleeplock held, so it only flips
	// atomics; a caller-supplied hook is chained after ours.
	userGiveUp := copts.OnGiveUp
	copts.OnGiveUp = func(lba int, err error) {
		f.degraded.Store(true)
		if errors.Is(err, fs.ErrDeviceDead) {
			f.remountRO(err)
		}
		if userGiveUp != nil {
			userGiveUp(lba, err)
		}
	}
	f.bc = bcache.NewWithOptions(dev, copts)
	f.renameMu.SetRank(ksync.RankRename, 0)
	f.ialloc.SetRank(ksync.RankAlloc, 1)
	f.balloc.SetRank(ksync.RankAlloc, 2)
	b, err := f.bc.Get(t, 0)
	if err != nil {
		return nil, err
	}
	f.sb.decode(b.Data)
	f.bc.Release(b)
	if err := f.sb.validate(dev.Blocks()); err != nil {
		return nil, err
	}
	f.ifree, f.bfree = rootInum, int(f.sb.DataStart)
	if f.sb.LogSize > 0 {
		f.log = jnl.New(f.bc, int(f.sb.LogStart), int(f.sb.LogSize))
		// Recovery before anything reads metadata: replay the committed
		// transactions the log still holds (if the header names any),
		// then reclaim orphans — files that were unlinked-but-open at the
		// crash, durable with no directory entry left.
		if _, err := f.log.Recover(t); err != nil {
			return nil, err
		}
		if err := f.reclaimOrphans(t); err != nil {
			return nil, err
		}
		// Checkpoint on kflushd idle: committed transactions drain to
		// their home blocks during quiet periods, off commit's critical
		// path (a failure is latched for the next Sync). Mount precedes
		// the daemon, so the hook is set in time.
		f.bc.SetIdleHook(func(ht *sched.Task) { _ = f.log.Checkpoint(ht) })
	}
	return f, nil
}

// Journal exposes the write-ahead log (nil when unjournaled) for tests
// and /proc diagnostics.
func (f *FS) Journal() *jnl.Journal { return f.log }

// SetDcache attaches the mount's dentry cache. Call before the volume
// sees traffic (right after MountWith); a nil mount runs uncached.
func (f *FS) SetDcache(m *dcache.Mount) { f.dc = m }

// Dcache returns the attached dentry-cache mount (nil when uncached).
func (f *FS) Dcache() *dcache.Mount { return f.dc }

// dcInval drops the cached lookup answer for (dp, name) and bumps the
// mount generation. Mutation sites call it while holding dp's lock,
// BEFORE writing the directory change, so a lock-free walk that read the
// soon-stale entry always fails its generation re-check. "." and ".."
// are never cached (fs.Clean collapses them before any walk).
func (f *FS) dcInval(dp *inode, name string) {
	if name == "." || name == ".." {
		return
	}
	f.dc.Invalidate(int64(dp.inum), name)
}

// dcFillPos records dp/name → inum. Caller holds dp's lock and has just
// proven the mapping against the directory itself.
func (f *FS) dcFillPos(dp *inode, name string, inum int) {
	if name == "." || name == ".." {
		return
	}
	f.dc.PutPositive(int64(dp.inum), name, dcache.Entry{Ino: int64(inum)})
}

// dcFillNeg records a proven ENOENT for dp/name. Caller holds dp's lock.
func (f *FS) dcFillNeg(dp *inode, name string) {
	if name == "." || name == ".." {
		return
	}
	f.dc.PutNegative(int64(dp.inum), name)
}

// liftRevokes commits the open batch and checkpoints the log, so every
// revoked block becomes allocatable again. An entry point whose operation
// failed with errOnlyRevoked calls it after closing its bracket and, on
// true, retries the operation once. A failed drain latches the mount
// read-only, as a failed fsync barrier does.
func (f *FS) liftRevokes(t *sched.Task) bool {
	if f.log == nil {
		return false
	}
	if err := f.log.Drain(t); err != nil {
		f.remountRO(err)
		return false
	}
	return true
}

// remountRO latches the volume read-only, keeping the first cause. Called
// when metadata durability is gone: a journal group commit failed (the
// on-disk metadata can no longer be made consistent with the in-memory
// view) or the device died.
func (f *FS) remountRO(err error) {
	if f.roFlag.CompareAndSwap(false, true) {
		f.roCause.Store(err)
	}
	f.degraded.Store(true)
	// A dead mount serves no cached names: in-memory link counts may have
	// diverged from disk when a transaction aborted, so drop every entry
	// and refuse further fills.
	f.dc.Kill()
}

// checkRW gates mutating entry points: nil on a healthy mount,
// fs.ErrReadOnly once the volume has latched read-only.
func (f *FS) checkRW() error {
	if f.roFlag.Load() {
		return fs.ErrReadOnly
	}
	return nil
}

// Health reports the mount's error state: degraded means at least one
// asynchronous writeback was abandoned (per-file fsync has the details),
// readOnly means metadata durability failed and mutations are refused.
// cause is the error that latched read-only, nil otherwise.
func (f *FS) Health() (degraded, readOnly bool, cause error) {
	if e, ok := f.roCause.Load().(error); ok {
		cause = e
	}
	return f.degraded.Load(), f.roFlag.Load(), cause
}

// orphanAdd records inum on the on-disk orphan list, inside the caller's
// open transaction — the same transaction that drops the last directory
// link — so the unlink and its orphan record commit (or vanish)
// atomically. A full list sets the overflow flag instead, and mount-time
// recovery falls back to the full inode-array scan.
func (f *FS) orphanAdd(t *sched.Task, inum int) error {
	if f.log == nil {
		return nil
	}
	return f.writeMeta(t, 0, func(data []byte) {
		free := -1
		for i := 0; i < orphanMax; i++ {
			off := orphanOff + 4 + 4*i
			switch binary.LittleEndian.Uint32(data[off:]) {
			case uint32(inum):
				return // already listed
			case 0:
				if free < 0 {
					free = off
				}
			}
		}
		if free < 0 {
			binary.LittleEndian.PutUint32(data[orphanOff:], 1) // overflow
			return
		}
		binary.LittleEndian.PutUint32(data[free:], uint32(inum))
	})
}

// orphanRemove clears inum's list slot, inside the reclaiming
// transaction, so the storage free and the de-listing commit together.
// The superblock block is only journaled when the slot was actually
// present — ordinary reclaims (files never unlinked-while-open) cost no
// log slot here.
func (f *FS) orphanRemove(t *sched.Task, inum int) error {
	if f.log == nil {
		return nil
	}
	b, err := f.bc.Get(t, 0)
	if err != nil {
		return err
	}
	for i := 0; i < orphanMax; i++ {
		off := orphanOff + 4 + 4*i
		if binary.LittleEndian.Uint32(b.Data[off:]) == uint32(inum) {
			binary.LittleEndian.PutUint32(b.Data[off:], 0)
			err = f.log.Record(t, b)
			break
		}
	}
	f.bc.Release(b)
	return err
}

// reclaimOrphans frees the previous boot's unlinked-but-open files at
// mount, after journal recovery cancelled their deferred reclaims. The
// on-disk orphan list names them exactly — each entry committed with the
// unlink that created it — so recovery visits a handful of listed inodes
// instead of scanning the whole inode array; the scan survives only as
// the fallback when the list overflowed. Each reclaim runs inside its
// own transaction, so a crash mid-reclaim is itself recoverable. List
// entries are never trusted: out-of-range and stale inums (hostile or
// half-committed images) are skipped and swept.
func (f *FS) reclaimOrphans(t *sched.Task) error {
	var overflow bool
	var listed []int
	if err := f.readBlock(t, 0, func(data []byte) {
		overflow = binary.LittleEndian.Uint32(data[orphanOff:]) != 0
		for i := 0; i < orphanMax; i++ {
			if inum := binary.LittleEndian.Uint32(data[orphanOff+4+4*i:]); inum != 0 {
				listed = append(listed, int(inum))
			}
		}
	}); err != nil {
		return err
	}
	dirtyList := overflow || len(listed) > 0
	if overflow {
		listed = listed[:0]
		for inum := rootInum + 1; inum < int(f.sb.NInodes); inum++ {
			listed = append(listed, inum)
		}
	}
	for _, inum := range listed {
		if inum <= rootInum || inum >= int(f.sb.NInodes) {
			continue
		}
		var di dinode
		if err := f.readInode(t, inum, &di); err != nil {
			return err
		}
		if di.Type == typeFree || di.NLink > 0 {
			continue
		}
		f.beginOp(t)
		ip := f.iget(inum)
		if err := f.ilock(t, ip); err != nil {
			f.iput(t, ip)
			f.opAbort(err)
			f.endOp(t)
			return err
		}
		f.iunlock(ip)
		f.iput(t, ip) // sole ref + NLink 0: deferred reclaim fires here
		f.endOp(t)
	}
	if !dirtyList {
		return nil
	}
	// Each reclaim above de-listed its own slot; whatever is left is
	// stale or hostile. One transaction zeroes the region and the flag.
	f.beginOp(t)
	err := f.writeMeta(t, 0, func(data []byte) {
		for i := orphanOff; i < BlockSize; i++ {
			data[i] = 0
		}
	})
	f.opAbort(err)
	f.endOp(t)
	return err
}

// beginOp opens this operation's journal bracket (no-op unjournaled).
// The discipline that keeps the log deadlock-free: exactly one bracket
// per kernel entry point, taken BEFORE any inode or allocator lock, never
// nested — commit needs every bracket closed, so a bracket that waited on
// a lock held across another bracket's commit-wait would wedge the log.
func (f *FS) beginOp(t *sched.Task) {
	if f.log != nil {
		f.log.Begin(t)
	}
}

// endOp closes the bracket; the last closer group-commits. Commit errors
// are latched in the journal and surfaced at the next fsync or Sync — the
// same report-at-the-barrier model the write-behind cache uses for
// asynchronous writeback errors — and additionally flip the mount
// read-only: a failed group commit means the on-disk metadata can no
// longer be brought in line with memory, so permitting further mutation
// would only widen the damage (ext4's errors=remount-ro).
func (f *FS) endOp(t *sched.Task) {
	if f.log != nil {
		if err := f.log.End(t); err != nil {
			f.remountRO(err)
		}
	}
}

// opAbort poisons the open journal bracket when an operation is unwinding
// with a device-level error: some of its metadata blocks may already be
// recorded, and committing that half-operation would persist a state no
// crash could ever produce (a dirent without its inode update, an nlink
// without its dirent). The journal discards the whole batch at the last
// End and reports ErrAborted, which endOp turns into the read-only latch.
// Logical errors (not-found, exists, no-space...) never abort: their
// partial recordings are consistent by construction.
func (f *FS) opAbort(err error) {
	if f.log == nil || err == nil {
		return
	}
	if errors.Is(err, fs.ErrDeviceDead) || errors.Is(err, fs.ErrBadSector) ||
		errors.Is(err, fs.ErrSDInjected) {
		f.log.Abort(err)
	}
}

// Cache exposes buffer-cache statistics for the experiment harness.
func (f *FS) Cache() *bcache.Cache { return f.bc }

// --- the inode table ---

// iget returns a referenced in-memory inode for inum, without locking it
// or touching the disk. Every holder of the same inum gets the same
// structure, so its sleeplock is the per-inode lock.
func (f *FS) iget(inum int) *inode {
	f.imu.Lock()
	defer f.imu.Unlock()
	if ip, ok := f.itable[inum]; ok {
		ip.ref++
		return ip
	}
	wb := f.owners[inum]
	if wb == nil {
		wb = &bcache.Owner{}
		f.owners[inum] = wb
	}
	ip := &inode{inum: inum, ref: 1, wb: wb}
	ip.lock.SetRank(ksync.RankInode, int64(inum))
	f.itable[inum] = ip
	return ip
}

// ilock locks ip and loads its dinode from disk if this is the first lock
// since it entered the table. On error the inode is left unlocked.
func (f *FS) ilock(t *sched.Task, ip *inode) error { return f.ilockMode(t, ip, false) }

// ilockNested is ilock for tree-protocol acquisitions: locking a child
// while the parent directory's lock is held (see ksync.LockNested).
func (f *FS) ilockNested(t *sched.Task, ip *inode) error { return f.ilockMode(t, ip, true) }

func (f *FS) ilockMode(t *sched.Task, ip *inode, nested bool) error {
	if nested {
		ip.lock.LockNested(t)
	} else {
		ip.lock.Lock(t)
	}
	if !ip.valid {
		if err := f.readInode(t, ip.inum, &ip.di); err != nil {
			ip.lock.Unlock()
			return err
		}
		ip.valid = true
	}
	return nil
}

func (f *FS) iunlock(ip *inode) { ip.lock.Unlock() }

// iupdate writes ip's cached dinode through to the inode array. Callers
// hold ip.lock; the write is atomic under the inode block's buffer lock,
// so neighbours in the same block are never torn.
func (f *FS) iupdate(t *sched.Task, ip *inode) error {
	return f.writeInode(t, ip.inum, &ip.di)
}

// iput drops a reference. The last reference to an unlinked inode frees
// its data blocks and on-disk slot — xv6's deferred reclaim, which is what
// makes unlink-while-open safe: the dirent goes away immediately, the
// storage only when the final descriptor closes.
func (f *FS) iput(t *sched.Task, ip *inode) {
	f.imu.Lock()
	// A latched-read-only mount must not reclaim: in-memory link counts
	// may have diverged from disk when a transaction aborted, and writing
	// frees based on them would corrupt what DID land. The next mount's
	// orphan recovery sweeps whatever this leaks.
	if ip.ref == 1 && ip.valid && ip.di.NLink == 0 && f.checkRW() == nil {
		// Sole reference and no directory links left: nobody else can
		// reach this inode through a dirent. Take it out of the table and
		// retire its error stream before dropping imu: once its slot is
		// marked free below, another task's create may allocate this inum,
		// and its iget must build a fresh inode with a fresh stream, not
		// take a second reference to this dying one. LockNested: unlink
		// still holds the parent directory's lock when it puts the child.
		delete(f.itable, ip.inum)
		delete(f.owners, ip.inum)
		f.imu.Unlock()
		ip.lock.LockNested(t)
		// A device error mid-reclaim leaves the transaction half-recorded
		// (some frees without the inode update); poison the bracket so it
		// never commits — the orphan record on disk survives for the next
		// mount to finish the job.
		rerr := f.truncate(t, ip)
		// De-list from the on-disk orphan list in the same transaction as
		// the slot free below: the two must commit together or recovery
		// would reclaim a reused inum. De-listing first means nothing
		// inum-keyed is touched once the slot can be reallocated.
		if err := f.orphanRemove(t, ip.inum); rerr == nil {
			rerr = err
		}
		f.ialloc.Lock(t)
		ip.di.Type = typeFree
		if err := f.iupdate(t, ip); rerr == nil {
			rerr = err
		}
		f.ifree = min(f.ifree, ip.inum)
		f.ialloc.Unlock()
		f.opAbort(rerr)
		ip.valid = false
		ip.lock.Unlock()
		f.imu.Lock()
	}
	ip.ref--
	if ip.ref == 0 && f.itable[ip.inum] == ip {
		delete(f.itable, ip.inum)
	}
	f.imu.Unlock()
}

// iunlockput unlocks then releases — the common tail of directory ops.
func (f *FS) iunlockput(t *sched.Task, ip *inode) {
	f.iunlock(ip)
	f.iput(t, ip)
}

// --- low-level block and inode helpers ---

func (f *FS) readBlock(t *sched.Task, lba int, fn func(data []byte)) error {
	b, err := f.bc.Get(t, lba)
	if err != nil {
		return err
	}
	fn(b.Data)
	f.bc.Release(b)
	return nil
}

func (f *FS) writeBlock(t *sched.Task, lba int, fn func(data []byte)) error {
	b, err := f.bc.Get(t, lba)
	if err != nil {
		return err
	}
	fn(b.Data)
	f.bc.MarkDirty(b)
	f.bc.Release(b)
	return nil
}

// writeMeta is writeBlock for METADATA blocks — the inode array, the
// allocation bitmap, indirect blocks, directory content. On a journaled
// mount the block is recorded in the open transaction (frozen in the
// cache until the group commit makes its log copy durable); unjournaled
// mounts fall back to a plain dirty mark. Callers are inside a
// beginOp/endOp bracket whenever f.log is set.
func (f *FS) writeMeta(t *sched.Task, lba int, fn func(data []byte)) error {
	b, err := f.bc.Get(t, lba)
	if err != nil {
		return err
	}
	fn(b.Data)
	if f.log != nil {
		err = f.log.Record(t, b)
	} else {
		f.bc.MarkDirty(b)
	}
	f.bc.Release(b)
	return err
}

// allocBlock finds the lowest zero bit in the bitmap, sets it, zeroes the
// block. The scan starts at the bfree hint, a byte at a time over full
// bytes, and runs under balloc so two writers can't claim the same block;
// the zeroing write happens after the claim, outside any allocator state,
// because the block is already private to the caller. Blocks the journal
// still revokes are skipped (see jnl.Revoke): reusing one for unjournaled
// file data could let replay write stale metadata over it. If they were
// the only free ones, the error is errOnlyRevoked. A skipped block keeps
// its bit clear, so the hint stays at the lowest one.
// The zeroing write is deliberately NOT journaled — the block is
// unreachable from any committed metadata until this transaction's
// pointers to it commit, so a premature writeback of zeros can only land
// in a dead block.
func (f *FS) allocBlock(t *sched.Task) (int, error) {
	const bitsPerBlock = BlockSize * 8
	f.balloc.Lock(t)
	found, lowRevoked := -1, -1
	total := int(f.sb.Size)
	start := max(f.bfree, int(f.sb.DataStart))
	for bmBlock := start / bitsPerBlock; found < 0 && bmBlock*bitsPerBlock < total; bmBlock++ {
		base := bmBlock * bitsPerBlock
		err := f.writeMeta(t, int(f.sb.BitmapStart)+bmBlock, func(data []byte) {
			for i := max(start-base, 0); i < bitsPerBlock; i++ {
				if i%8 == 0 && data[i/8] == 0xFF {
					i += 7
					continue
				}
				blockNo := base + i
				if blockNo >= total {
					return
				}
				if data[i/8]&(1<<(i%8)) == 0 {
					if f.log != nil && f.log.Revoked(blockNo) {
						if lowRevoked < 0 {
							lowRevoked = blockNo
						}
						continue // freed, but a logged txn may replay over it
					}
					data[i/8] |= 1 << (i % 8)
					found = blockNo
					return
				}
			}
		})
		if err != nil {
			f.balloc.Unlock()
			return 0, err
		}
	}
	switch {
	case lowRevoked >= 0:
		f.bfree = lowRevoked
	case found >= 0:
		f.bfree = found + 1
	default:
		f.bfree = total
	}
	f.balloc.Unlock()
	if found < 0 {
		if lowRevoked >= 0 {
			return 0, errOnlyRevoked
		}
		return 0, fs.ErrNoSpace
	}
	if err := f.writeBlock(t, found, func(d []byte) {
		for i := range d {
			d[i] = 0
		}
	}); err != nil {
		return 0, err
	}
	return found, nil
}

// freeBlock clears the bitmap bit for lba and lowers the bfree hint to it.
// On a journaled mount the block is also revoked: quarantined from
// reallocation until the freeing transaction commits and no logged
// transaction still names it.
func (f *FS) freeBlock(t *sched.Task, lba int) error {
	f.balloc.Lock(t)
	defer f.balloc.Unlock()
	if f.log != nil {
		f.log.Revoke(lba)
	}
	f.bfree = min(f.bfree, lba)
	bmBlock := lba / (BlockSize * 8)
	bit := lba % (BlockSize * 8)
	return f.writeMeta(t, int(f.sb.BitmapStart)+bmBlock, func(data []byte) {
		data[bit/8] &^= 1 << (bit % 8)
	})
}

// readInode loads inode inum.
func (f *FS) readInode(t *sched.Task, inum int, di *dinode) error {
	lba := int(f.sb.InodeStart) + inum/inodesPerBlock
	return f.readBlock(t, lba, func(data []byte) {
		di.decode(data[(inum%inodesPerBlock)*inodeSize:])
	})
}

// writeInode stores inode inum. Inode-array blocks are metadata: on a
// journaled mount the write lands in the open transaction.
func (f *FS) writeInode(t *sched.Task, inum int, di *dinode) error {
	lba := int(f.sb.InodeStart) + inum/inodesPerBlock
	return f.writeMeta(t, lba, func(data []byte) {
		di.encode(data[(inum%inodesPerBlock)*inodeSize:])
	})
}

// allocInode claims the lowest free on-disk inode, under ialloc. The scan
// starts at the ifree hint instead of inum 1.
func (f *FS) allocInode(t *sched.Task, typ uint16) (int, error) {
	f.ialloc.Lock(t)
	defer f.ialloc.Unlock()
	for inum := f.ifree; inum < int(f.sb.NInodes); inum++ {
		var di dinode
		if err := f.readInode(t, inum, &di); err != nil {
			return 0, err
		}
		if di.Type == typeFree {
			di = dinode{Type: typ, NLink: 1}
			if err := f.writeInode(t, inum, &di); err != nil {
				return 0, err
			}
			f.ifree = inum + 1
			return inum, nil
		}
	}
	f.ifree = int(f.sb.NInodes)
	return 0, fs.ErrNoSpace
}

// bmap returns the disk block of file block fb, allocating when alloc.
// Caller holds ip.lock.
func (f *FS) bmap(t *sched.Task, ip *inode, fb int, alloc bool) (int, error) {
	if fb < NDirect {
		if ip.di.Addrs[fb] == 0 {
			if !alloc {
				return 0, nil
			}
			nb, err := f.allocBlock(t)
			if err != nil {
				return 0, err
			}
			ip.di.Addrs[fb] = uint32(nb)
			if err := f.iupdate(t, ip); err != nil {
				return 0, err
			}
		}
		return int(ip.di.Addrs[fb]), nil
	}
	fb -= NDirect
	if fb >= NIndirect {
		return 0, fs.ErrFileTooBig
	}
	if ip.di.Addrs[NDirect] == 0 {
		if !alloc {
			return 0, nil
		}
		nb, err := f.allocBlock(t)
		if err != nil {
			return 0, err
		}
		ip.di.Addrs[NDirect] = uint32(nb)
		if err := f.iupdate(t, ip); err != nil {
			return 0, err
		}
	}
	var blockNo int
	err := f.readBlock(t, int(ip.di.Addrs[NDirect]), func(data []byte) {
		blockNo = int(binary.LittleEndian.Uint32(data[4*fb:]))
	})
	if err != nil {
		return 0, err
	}
	if blockNo == 0 && alloc {
		nb, err := f.allocBlock(t)
		if err != nil {
			return 0, err
		}
		blockNo = nb
		// The indirect block is metadata — a pointer write that reaches
		// disk ahead of the bitmap claim it depends on would be exactly
		// the inconsistency the journal exists to rule out.
		if err := f.writeMeta(t, int(ip.di.Addrs[NDirect]), func(data []byte) {
			binary.LittleEndian.PutUint32(data[4*fb:], uint32(nb))
		}); err != nil {
			return 0, err
		}
	}
	return blockNo, nil
}

// readData reads n bytes at off from ip into dst. Runs of physically
// contiguous, block-aligned data go through the cache's multi-block
// ReadRange; everything else stays block-at-a-time. Caller holds ip.lock.
func (f *FS) readData(t *sched.Task, ip *inode, off int64, dst []byte) (int, error) {
	size := int64(ip.di.Size)
	if off >= size {
		return 0, nil
	}
	if off+int64(len(dst)) > size {
		dst = dst[:size-off]
	}
	done := 0
	for done < len(dst) {
		fb := int((off + int64(done)) / BlockSize)
		bo := int((off + int64(done)) % BlockSize)
		blockNo, err := f.bmap(t, ip, fb, false)
		if err != nil {
			return done, err
		}
		n := BlockSize - bo
		if n > len(dst)-done {
			n = len(dst) - done
		}
		if blockNo == 0 { // hole
			for i := 0; i < n; i++ {
				dst[done+i] = 0
			}
			done += n
			continue
		}
		if bo == 0 && n == BlockSize {
			// Aligned full block: extend to a contiguous multi-block run.
			run := 1
			for done+(run+1)*BlockSize <= len(dst) {
				nb, err := f.bmap(t, ip, fb+run, false)
				if err != nil {
					return done, err
				}
				if nb != blockNo+run {
					break
				}
				run++
			}
			if run > 1 {
				if err := f.bc.ReadRange(t, blockNo, run, dst[done:done+run*BlockSize]); err != nil {
					return done, err
				}
				done += run * BlockSize
				continue
			}
		}
		if err := f.readBlock(t, blockNo, func(data []byte) {
			copy(dst[done:done+n], data[bo:])
		}); err != nil {
			return done, err
		}
		done += n
	}
	return done, nil
}

// writeData writes src at off, growing the file. Caller holds ip.lock.
//
// The write path mirrors readData's coalescing: aligned full-block spans
// claim their physically contiguous runs through the cache's multi-block
// WriteRange — one cache call installs the whole run dirty, and the
// write-behind machinery later flushes it segment-granular instead of
// block-at-a-time — while unaligned edges stay on the single-block
// read-modify-write path. Sequential appends allocate mostly contiguous
// blocks (allocBlock scans lowest-free-first), so big writes become a
// handful of range calls. Every dirtied buffer is tagged with the inode's
// error stream (ip.wb), so an asynchronous writeback failure of this
// file's data is attributed to this file's fsync.
func (f *FS) writeData(t *sched.Task, ip *inode, off int64, src []byte) (int, error) {
	if off+int64(len(src)) > MaxFile*BlockSize {
		return 0, fs.ErrFileTooBig
	}
	done := 0
	for done < len(src) {
		fb := int((off + int64(done)) / BlockSize)
		bo := int((off + int64(done)) % BlockSize)
		blockNo, err := f.bmap(t, ip, fb, true)
		if err != nil {
			return done, err
		}
		n := BlockSize - bo
		if n > len(src)-done {
			n = len(src) - done
		}
		if bo == 0 && n == BlockSize {
			// Aligned full block: extend to a physically contiguous run.
			// bmap allocates as it probes; a probe that lands elsewhere on
			// disk isn't wasted — the next loop iteration writes it.
			run := 1
			for done+(run+1)*BlockSize <= len(src) {
				nb, err := f.bmap(t, ip, fb+run, true)
				if err != nil {
					return done, err
				}
				if nb != blockNo+run {
					break
				}
				run++
			}
			if err := f.bc.WriteRangeOwned(t, blockNo, run, src[done:done+run*BlockSize], ip.wb); err != nil {
				return done, err
			}
			done += run * BlockSize
			continue
		}
		// Unaligned edge: single-block read-modify-write under the buffer
		// lock, tagged with the same owner. Directory content is metadata
		// — the dirent dances of create/unlink/rename must commit or
		// vanish atomically with the inode and bitmap updates they pair
		// with — so on a journaled mount it is recorded in the open
		// transaction instead of marked dirty. Directories only ever write
		// 16-byte dirents, so they always land on this path, never the
		// range path above.
		b, err := f.bc.Get(t, blockNo)
		if err != nil {
			return done, err
		}
		copy(b.Data[bo:], src[done:done+n])
		if f.log != nil && ip.di.Type == typeDir {
			err = f.log.Record(t, b)
		} else {
			f.bc.MarkDirtyOwned(b, ip.wb)
		}
		f.bc.Release(b)
		if err != nil {
			return done, err
		}
		done += n
	}
	if newSize := off + int64(done); newSize > int64(ip.di.Size) {
		ip.di.Size = uint32(newSize)
		if err := f.iupdate(t, ip); err != nil {
			return done, err
		}
	}
	return done, nil
}

// truncate frees all blocks of an inode. Caller holds ip.lock.
func (f *FS) truncate(t *sched.Task, ip *inode) error {
	for i := 0; i < NDirect; i++ {
		if ip.di.Addrs[i] != 0 {
			if err := f.freeBlock(t, int(ip.di.Addrs[i])); err != nil {
				return err
			}
			ip.di.Addrs[i] = 0
		}
	}
	if ip.di.Addrs[NDirect] != 0 {
		var indirect [NIndirect]uint32
		if err := f.readBlock(t, int(ip.di.Addrs[NDirect]), func(data []byte) {
			for i := range indirect {
				indirect[i] = binary.LittleEndian.Uint32(data[4*i:])
			}
		}); err != nil {
			return err
		}
		for _, a := range indirect {
			if a != 0 {
				if err := f.freeBlock(t, int(a)); err != nil {
					return err
				}
			}
		}
		if err := f.freeBlock(t, int(ip.di.Addrs[NDirect])); err != nil {
			return err
		}
		ip.di.Addrs[NDirect] = 0
	}
	ip.di.Size = 0
	return f.iupdate(t, ip)
}

// Sync is the volume's durability barrier. Per-inode metadata lands in
// the cache before its lock drops (every mutation iupdates), so Sync
// first drains in-flight operations by taking each live inode lock once
// — one at a time, in inum order, never two held together, so it cannot
// deadlock against parent→child holders — then quiesces both allocators
// across the cache's Flush barrier, so the bitmap and inode array flush
// as a consistent snapshot and every dirty buffer's write completion is
// awaited. A quiet journal is then checkpointed, so a volume synced at
// rest carries an empty log. Asynchronous writeback errors (the kflushd
// daemon, eviction) latched since the previous sync are reported to this
// caller.
func (f *FS) Sync(t *sched.Task) error {
	f.imu.Lock()
	live := make([]*inode, 0, len(f.itable))
	for _, ip := range f.itable {
		ip.ref++
		live = append(live, ip)
	}
	f.imu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].inum < live[j].inum })
	for _, ip := range live {
		// Each drop gets its own journal bracket: this iput can be the
		// last reference to an unlinked inode, and the reclaim it fires
		// (truncate + inode free) is a metadata transaction like any
		// other. One bracket per inode keeps every transaction inside the
		// per-operation block budget.
		f.beginOp(t)
		ip.lock.Lock(t)
		ip.lock.Unlock()
		f.iput(t, ip)
		f.endOp(t)
	}
	// Commit whatever the journal still holds — with no lock held, because
	// log.Sync waits for open brackets and a bracket may be waiting on a
	// lock. Commit errors latched by earlier group commits surface here.
	var logErr error
	if f.log != nil {
		if logErr = f.log.Sync(t); logErr != nil {
			f.remountRO(logErr)
		}
	}
	f.ialloc.Lock(t)
	f.balloc.Lock(t)
	err := f.bc.Flush(t)
	f.balloc.Unlock()
	f.ialloc.Unlock()
	if logErr != nil {
		return logErr
	}
	if err != nil {
		return err
	}
	// The flush left every committed block durable at home, so emptying
	// the log costs one header write: a cleanly synced image carries an
	// empty log.
	if f.log != nil {
		if err := f.log.Checkpoint(t); err != nil {
			f.remountRO(err)
			return err
		}
	}
	return nil
}
