// Package fat32 is Proto's FatFS substitute: a FAT32 implementation with
// real on-disk structures (boot sector, file allocation table, 32-byte
// directory entries, cluster chains) over the SD card. As in Prototype 5
// (§4.5):
//
//   - files and directories get *pseudo-inodes* (handle structures) because
//     FAT has no inode concept;
//   - data IO uses *range* transfers — multi-block commands that pay the
//     SD command setup once per contiguous run (§5.2's optimization);
//   - names are 8.3 (uppercase on disk, case-insensitive lookup), which
//     covers Proto's assets (DOOM1.WAD, music, videos).
//
// Historically the range path bypassed the single-block buffer cache
// because the cache could not express multi-block operations. The sharded
// bcache supports range reads/writes natively, so all IO — data and
// metadata — flows through one cache and its request queue. Figure 9's
// xv6 baseline is a configuration of the layers below (a 30-buffer cache
// over a depth-1 queue and a per-sector SD driver, see kernel.ModeXv6);
// the pre-cache direct-device path survives only as a benchmark in this
// package's tests.
package fat32

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"protosim/internal/kernel/bcache"
	"protosim/internal/kernel/dcache"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/ksync"
	"protosim/internal/kernel/sched"
)

// Geometry.
const (
	SectorSize        = 512
	SectorsPerCluster = 8 // 4 KB clusters
	ClusterSize       = SectorSize * SectorsPerCluster

	fatEntrySize = 4
	direntSize   = 32

	endOfChain = 0x0FFFFFF8
	freeClust  = 0

	attrDir     = 0x10
	attrArchive = 0x20

	rootCluster = 2

	// FSInfo sector (standard FAT32 layout): free-cluster count and
	// next-free hint, persisted at Sync/unmount and read back at mount so
	// a fresh mount neither rescans the FAT for the count nor restarts
	// its allocation scan from cluster 2.
	fsInfoSector    = 1
	fsInfoLeadSig   = 0x41615252 // "RRaA"
	fsInfoStructSig = 0x61417272 // "rrAa"
	fsInfoUnknown   = 0xFFFFFFFF
)

// ErrBadFS reports an unrecognized boot sector.
var ErrBadFS = errors.New("fat32: bad boot sector")

// FS is a mounted FAT32 volume.
type FS struct {
	bc *bcache.Cache

	totalSectors int
	fatStart     int // sector
	fatSectors   int
	dataStart    int // sector of cluster 2
	clusters     int

	// renameMu guards tree reshaping (rank: rename). Cross-directory
	// renames — the only operations that move names between directories,
	// whose textual ancestry checks and two-directory lock ordering need
	// a stable tree — take it exclusively. Same-directory renames never
	// consult ancestry and lock parent-then-child like create/unlink, so
	// they take it shared and proceed concurrently; see FS.Rename.
	renameMu ksync.RWSleepLock

	// fatLock (rank: alloc) is the dedicated allocator lock: it guards
	// free↔claimed FAT transitions (allocCluster's scan-and-claim,
	// freeChain) and the FSInfo-style next-free hint. Chain walks and
	// tail links of a chain the caller owns (its pseudo-inode locked)
	// don't need it — individual FAT entry updates are atomic under
	// their sector's buffer lock — so allocators never contend with
	// data IO.
	fatLock  ksync.SleepLock
	freeHint uint32 // next-free scan start, guarded by fatLock
	// freeCount is the running free-cluster tally, guarded by fatLock:
	// seeded from the FSInfo sector at mount (or by one lazy scan when
	// the image carried none) and maintained by every claim/free
	// transition, so Sync persists it in O(1) instead of rescanning the
	// FAT. -1 = not yet known.
	freeCount int
	// fsInfoOK records that the boot sector advertises an FSInfo sector
	// AND the reserved region actually contains it. Foreign/legacy
	// volumes with reserved <= fsInfoSector put FAT (or data) at that
	// address; persisting FSInfo there would corrupt the volume, so such
	// mounts keep the count in memory only.
	fsInfoOK bool

	// Error-resilience state (errors=remount-ro). degraded flips when any
	// asynchronous writeback is abandoned; roFlag latches when an ordered
	// publish barrier fails — the dirent about to be written would point
	// at structure the device never accepted — when a size publish meets
	// a degraded mount (see publishSize), or when the device dies. Once
	// latched, every mutating entry point returns ErrReadOnly; reads and
	// fsync stay available.
	degraded atomic.Bool
	roFlag   atomic.Bool
	roCause  atomic.Value // error

	mu     sync.Mutex
	pseudo map[uint32]*pseudoInode // keyed by first cluster

	// rangeOps/rangeBlocks count file-data range transfers (RangeStats).
	rangeOps, rangeBlocks atomic.Int64

	// owners maps first cluster -> the file's writeback-error stream,
	// guarded by mu. Deliberately separate from the pseudo-inode table:
	// write-behind buffers keep their owner tag after the last close
	// drops the pseudo-inode, so the stream must outlive it — a reopen
	// finds the same Owner and its fsync still flushes that earlier data
	// and reports its errors. An entry dies at unlink, when the first
	// cluster stops naming this file.
	owners map[uint32]*bcache.Owner

	// dc is the kernel dentry cache handle for this mount — nil until the
	// kernel attaches one; every dcache.Mount method is nil-safe, so a
	// bare-mounted volume just runs uncached. Lookups consult it before
	// scanning directory clusters and fill what the scan proved; every
	// name mutation invalidates its keys BEFORE the dirent write lands.
	// Keys are the parent directory's first cluster plus the lower-cased
	// component name (FAT lookups are case-insensitive).
	dc *dcache.Mount
}

// pseudoInode bridges FAT (no inodes) to Proto's file layer: one per
// in-use file or directory, keyed by first cluster and deduplicated so
// every holder converges on the same sleeplock — the per-file lock that
// replaced the volume-wide one.
type pseudoInode struct {
	firstCluster uint32
	isDir        bool
	refs         int // guarded by FS.mu

	// lock (rank: inode, order: firstCluster) serializes operations on
	// this file/directory and guards the fields below.
	lock ksync.SleepLock
	size uint32
	// diskSize is the size the dirent holds. An append grows size only;
	// publishSize brings the dirent up to it at fsync, close, sync and
	// rename. Set from the dirent at pin creation, then written only by
	// patchDirentSize.
	diskSize uint32
	dead     bool // poisoned: chain freed, operations must fail
	// unlinked marks an object removed from the namespace while other
	// handles still referenced it: the dirent is gone but the chain is
	// kept allocated so those descriptors keep reading, writing, and
	// fsyncing, and the LAST unpin frees the chain (deferred reclaim,
	// the xv6fs open-unlink contract). Written while holding both
	// pi.lock and FS.mu; readable under either.
	unlinked bool
	// Directory entry location, for size updates on write.
	dirCluster uint32
	dirIndex   int
	// Dentry-cache identity: the parent directory's first cluster and
	// the lower-cased component name, so size publishes can refresh the
	// cached entry in place (see patchDirentSize). Written at pin
	// creation (under FS.mu, before the pseudo-inode is visible) and at
	// rename (under lock); read under lock.
	parent uint32
	name   string

	// wb is this file's writeback-error stream (shared via FS.owners so
	// it survives the pseudo-inode): data writes tag their dirty buffers
	// with it, asynchronous write failures advance it, and the file's
	// fsync observes it (bcache errseq semantics).
	wb *bcache.Owner
}

// Mkfs formats dev as FAT32 with an empty root directory.
func Mkfs(dev fs.BlockDevice) error {
	if dev.BlockSize() != SectorSize {
		return fmt.Errorf("fat32: mkfs wants %d-byte sectors, got %d", SectorSize, dev.BlockSize())
	}
	total := dev.Blocks()
	// Size the FAT: clusters ≈ (total - reserved) / sectorsPerCluster.
	reserved := 32
	clusters := (total - reserved) / SectorsPerCluster
	fatSectors := (clusters*fatEntrySize + SectorSize - 1) / SectorSize
	clusters = (total - reserved - fatSectors) / SectorsPerCluster
	if clusters < 16 {
		return fmt.Errorf("fat32: device too small (%d sectors)", total)
	}

	boot := make([]byte, SectorSize)
	copy(boot[3:], "PROTOFAT")
	binary.LittleEndian.PutUint16(boot[11:], SectorSize)
	boot[13] = SectorsPerCluster
	binary.LittleEndian.PutUint16(boot[14:], uint16(reserved))
	boot[16] = 1 // one FAT
	binary.LittleEndian.PutUint32(boot[32:], uint32(total))
	binary.LittleEndian.PutUint32(boot[36:], uint32(fatSectors))
	binary.LittleEndian.PutUint32(boot[44:], rootCluster)
	binary.LittleEndian.PutUint16(boot[48:], fsInfoSector)
	boot[510], boot[511] = 0x55, 0xAA
	if err := dev.WriteBlocks(0, 1, boot); err != nil {
		return err
	}

	// FSInfo: all clusters free except the root directory's; next free
	// scan starts right behind the root.
	fsi := make([]byte, SectorSize)
	encodeFSInfo(fsi, uint32(clusters-1), rootCluster+1)
	if err := dev.WriteBlocks(fsInfoSector, 1, fsi); err != nil {
		return err
	}

	// Empty orphan list (a reused device may carry stale records).
	if err := dev.WriteBlocks(orphanSector, 1, make([]byte, SectorSize)); err != nil {
		return err
	}

	// Zero the FAT, then mark reserved entries and the root cluster.
	zero := make([]byte, SectorSize)
	for s := 0; s < fatSectors; s++ {
		if err := dev.WriteBlocks(reserved+s, 1, zero); err != nil {
			return err
		}
	}
	fat0 := make([]byte, SectorSize)
	binary.LittleEndian.PutUint32(fat0[0:], 0x0FFFFFF8) // media
	binary.LittleEndian.PutUint32(fat0[4:], 0x0FFFFFFF) // reserved
	binary.LittleEndian.PutUint32(fat0[8:], endOfChain) // root dir
	if err := dev.WriteBlocks(reserved, 1, fat0); err != nil {
		return err
	}
	// Zero the root directory cluster.
	dataStart := reserved + fatSectors
	for s := 0; s < SectorsPerCluster; s++ {
		if err := dev.WriteBlocks(dataStart+s, 1, zero); err != nil {
			return err
		}
	}
	return nil
}

// Mount opens a FAT32 volume with default cache sizing.
func Mount(dev fs.BlockDevice, t *sched.Task) (*FS, error) {
	return MountWith(dev, t, bcache.Options{})
}

// MountWith opens a FAT32 volume with an explicitly configured buffer
// cache (shard count, buffer count, readahead).
func MountWith(dev fs.BlockDevice, t *sched.Task, copts bcache.Options) (*FS, error) {
	if dev.BlockSize() != SectorSize {
		return nil, fmt.Errorf("%w: sector size %d", ErrBadFS, dev.BlockSize())
	}
	f := &FS{
		pseudo: make(map[uint32]*pseudoInode),
		owners: make(map[uint32]*bcache.Owner),
	}
	// Cache give-up notifications drive the mount's health: any abandoned
	// writeback marks the volume degraded; device death latches it
	// read-only. The hook runs with a buffer sleeplock held and only
	// flips atomics; a caller-supplied hook is chained after ours.
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
	f.fatLock.SetRank(ksync.RankAlloc, 0)
	f.freeHint = rootCluster
	boot := make([]byte, SectorSize)
	if err := dev.ReadBlocks(0, 1, boot); err != nil {
		return nil, err
	}
	if boot[510] != 0x55 || boot[511] != 0xAA || string(boot[3:11]) != "PROTOFAT" {
		return nil, ErrBadFS
	}
	// Validate every geometry field before it sizes a loop or a block
	// address — a hostile BPB must fail typed here, not panic later. All
	// bounds math runs in int64 so crafted uint32s can't overflow.
	if bps := binary.LittleEndian.Uint16(boot[11:]); bps != SectorSize {
		return nil, fmt.Errorf("%w: %d-byte sectors", ErrBadFS, bps)
	}
	if spc := boot[13]; spc != SectorsPerCluster {
		return nil, fmt.Errorf("%w: %d sectors per cluster", ErrBadFS, spc)
	}
	if rc := binary.LittleEndian.Uint32(boot[44:]); rc != rootCluster {
		return nil, fmt.Errorf("%w: root cluster %d", ErrBadFS, rc)
	}
	reserved := int64(binary.LittleEndian.Uint16(boot[14:]))
	totalSectors := int64(binary.LittleEndian.Uint32(boot[32:]))
	fatSectors := int64(binary.LittleEndian.Uint32(boot[36:]))
	if reserved < 1 || fatSectors < 1 {
		return nil, fmt.Errorf("%w: %d reserved, %d FAT sectors", ErrBadFS, reserved, fatSectors)
	}
	if totalSectors < 1 || totalSectors > int64(dev.Blocks()) {
		return nil, fmt.Errorf("%w: %d sectors (device %d)", ErrBadFS, totalSectors, dev.Blocks())
	}
	dataStart := reserved + fatSectors
	clusters := (totalSectors - dataStart) / SectorsPerCluster
	if clusters < 1 {
		return nil, fmt.Errorf("%w: no data clusters", ErrBadFS)
	}
	// Every cluster's FAT entry must live inside the FAT region, or chain
	// walks would read file data as links.
	if (clusters+rootCluster)*fatEntrySize > fatSectors*SectorSize {
		return nil, fmt.Errorf("%w: FAT too small for %d clusters", ErrBadFS, clusters)
	}
	f.totalSectors = int(totalSectors)
	f.fatSectors = int(fatSectors)
	f.fatStart = int(reserved)
	f.dataStart = int(dataStart)
	f.clusters = int(clusters)

	// FSInfo: seed the next-free hint (and remember the persisted free
	// count) when a valid sector is present. Images from before the
	// FSInfo change just have an invalid sector and start from scratch.
	if s := int(binary.LittleEndian.Uint16(boot[48:])); s == fsInfoSector && reserved > fsInfoSector {
		f.fsInfoOK = true
		fsi := make([]byte, SectorSize)
		if err := dev.ReadBlocks(fsInfoSector, 1, fsi); err != nil {
			return nil, err
		}
		if free, next, ok := decodeFSInfo(fsi); ok {
			if next >= rootCluster && next < uint32(f.clusters)+rootCluster {
				f.freeHint = next
			}
			if free != fsInfoUnknown && free <= uint32(f.clusters) {
				f.freeCount = int(free)
			} else {
				f.freeCount = -1
			}
		} else {
			f.freeCount = -1
		}
	} else {
		f.freeCount = -1
	}
	// Reclaim chains whose unlink was deferred past the previous mount's
	// lifetime (unlinked-but-open files; see orphan.go). Needs the
	// geometry and FSInfo seeding above: freeChain maintains freeCount.
	if f.orphanListUsable() {
		if err := f.orphanScan(t); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// encodeFSInfo lays out a standard FAT32 FSInfo sector.
func encodeFSInfo(b []byte, free, next uint32) {
	binary.LittleEndian.PutUint32(b[0:], fsInfoLeadSig)
	binary.LittleEndian.PutUint32(b[484:], fsInfoStructSig)
	binary.LittleEndian.PutUint32(b[488:], free)
	binary.LittleEndian.PutUint32(b[492:], next)
	b[510], b[511] = 0x55, 0xAA
}

// decodeFSInfo validates and extracts an FSInfo sector.
func decodeFSInfo(b []byte) (free, next uint32, ok bool) {
	if binary.LittleEndian.Uint32(b[0:]) != fsInfoLeadSig ||
		binary.LittleEndian.Uint32(b[484:]) != fsInfoStructSig ||
		b[510] != 0x55 || b[511] != 0xAA {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint32(b[488:]), binary.LittleEndian.Uint32(b[492:]), true
}

// FSInfo reports the running free-cluster count (-1 when the mounted
// image carried no valid FSInfo and no Sync has scanned yet) and the
// current next-free hint.
func (f *FS) FSInfo(t *sched.Task) (freeCount int, nextFree uint32) {
	f.fatLock.Lock(t)
	defer f.fatLock.Unlock()
	return f.freeCount, f.freeHint
}

// writeFSInfoLocked pushes the running free count and hint into the
// FSInfo sector through the cache. The count is maintained incrementally
// by the claim/free transitions (all under fatLock); only a mount from a
// pre-FSInfo image pays one lazy FAT scan here. Caller holds fatLock.
func (f *FS) writeFSInfoLocked(t *sched.Task) error {
	// No recognized FSInfo sector inside the reserved region (foreign
	// image): sector 1 belongs to the FAT or data there, never write it.
	if !f.fsInfoOK {
		return nil
	}
	if f.freeCount < 0 {
		free, err := f.freeClustersLocked(t)
		if err != nil {
			return err
		}
		f.freeCount = free
	}
	b, err := f.bc.Get(t, fsInfoSector)
	if err != nil {
		return err
	}
	for i := range b.Data {
		b.Data[i] = 0
	}
	encodeFSInfo(b.Data, uint32(f.freeCount), f.freeHint)
	f.bc.MarkDirty(b)
	f.bc.Release(b)
	return nil
}

// RangeStats reports the range transfers file data has issued to the
// cache (ops, sectors). Directory scans and cluster zeroing are metadata
// and are not counted.
func (f *FS) RangeStats() (ops, blocks int64) {
	return f.rangeOps.Load(), f.rangeBlocks.Load()
}

// Cache exposes the buffer cache (all IO flows through it).
func (f *FS) Cache() *bcache.Cache { return f.bc }

// SetDcache attaches the kernel dentry cache handle for this mount. The
// kernel wires it right after mount, before the volume sees traffic.
func (f *FS) SetDcache(m *dcache.Mount) { f.dc = m }

// Dcache returns the mount's dentry-cache handle (nil if none attached).
func (f *FS) Dcache() *dcache.Mount { return f.dc }

// dcName normalizes a component for dentry-cache keys: FAT lookups are
// case-insensitive, so "DOOM1.WAD" and "doom1.wad" must share one entry.
func dcName(name string) string { return strings.ToLower(name) }

// dcInval drops the cached entry for name in dp and bumps the mount
// generation. Caller holds dp.lock; call BEFORE the dirent write that
// changes the name's meaning, so no lock-free walk can pass its
// generation recheck having used the superseded answer.
func (f *FS) dcInval(dp *pseudoInode, name string) {
	f.dc.Invalidate(int64(dp.firstCluster), dcName(name))
}

// dcFillPos records what a directory scan proved while dp.lock was held:
// name exists in dp as de, at ref.
func (f *FS) dcFillPos(dp *pseudoInode, name string, de *dirent83, ref direntRef) {
	f.dc.PutPositive(int64(dp.firstCluster), dcName(name), dcache.Entry{
		Ino:   int64(de.cluster),
		IsDir: de.attr&attrDir != 0,
		Size:  int64(de.size),
		RefA:  int64(ref.cluster),
		RefB:  int64(ref.index),
	})
}

// dcFillNeg records a proven absence. Caller holds dp.lock.
func (f *FS) dcFillNeg(dp *pseudoInode, name string) {
	f.dc.PutNegative(int64(dp.firstCluster), dcName(name))
}

// remountRO latches the volume read-only, keeping the first cause.
// Called when an ordered publish barrier fails or the device dies —
// after either, further mutation could only publish structure the disk
// never accepted.
func (f *FS) remountRO(err error) {
	if f.roFlag.CompareAndSwap(false, true) {
		f.roCause.Store(err)
	}
	f.degraded.Store(true)
	// A dead mount serves no cached names: drop every entry and refuse
	// further fills, so walks fall through to the (still-readable)
	// directory blocks and mutating paths see the latched state.
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
// asynchronous writeback was abandoned (per-file fsync has the
// details), readOnly means a publish barrier failed and mutations are
// refused. cause is the error that latched read-only, nil otherwise.
func (f *FS) Health() (degraded, readOnly bool, cause error) {
	if e, ok := f.roCause.Load().(error); ok {
		cause = e
	}
	return f.degraded.Load(), f.roFlag.Load(), cause
}

// --- FAT access (through the buffer cache) ---
//
// A single fatGet/fatSet is atomic under its sector's buffer sleeplock.
// Entries belonging to a chain whose pseudo-inode lock the caller holds
// can be read and relinked with no further locking (nobody else mutates an
// owned chain); free↔claimed transitions go under fatLock.

// fatSector returns the FAT sector holding cluster c's entry.
func (f *FS) fatSector(c uint32) int {
	return f.fatStart + int(c)*fatEntrySize/SectorSize
}

// orderedFlush forces the named sectors durable NOW, under one request-
// queue plug. It is the ordered-writes discipline's only primitive: every
// directory-entry write that publishes new structure (a fresh cluster, a
// moved name, or a grown chain's size, which publishSize writes at fsync,
// close, sync and rename rather than on each append) is preceded by an
// orderedFlush of the data and FAT sectors it depends on, so no crash can
// leave a dirent pointing at structure the device never saw. The
// reverse operations (unlink, truncate) flush the UNpublishing dirent
// write before freeing, for the same reason mirrored. See
// ARCHITECTURE.md's crash-consistency section for the site-by-site
// ordering argument.
// A failed barrier latches the mount read-only: the caller's dirent
// write will not happen, and allowing later mutations to race ahead of
// the unflushed structure would break the ordering discipline globally.
func (f *FS) orderedFlush(t *sched.Task, sectors ...int) error {
	if err := f.bc.FlushBlocks(t, sectors, true); err != nil {
		f.remountRO(err)
		return err
	}
	return nil
}

func (f *FS) fatGet(t *sched.Task, cluster uint32) (uint32, error) {
	off := int(cluster) * fatEntrySize
	sector := f.fatStart + off/SectorSize
	var val uint32
	b, err := f.bc.Get(t, sector)
	if err != nil {
		return 0, err
	}
	val = binary.LittleEndian.Uint32(b.Data[off%SectorSize:]) & 0x0FFFFFFF
	f.bc.Release(b)
	return val, nil
}

func (f *FS) fatSet(t *sched.Task, cluster, val uint32) error {
	off := int(cluster) * fatEntrySize
	sector := f.fatStart + off/SectorSize
	b, err := f.bc.Get(t, sector)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(b.Data[off%SectorSize:], val&0x0FFFFFFF)
	f.bc.MarkDirty(b)
	f.bc.Release(b)
	return nil
}

// allocCluster finds a free FAT entry and links it as end-of-chain. The
// scan-and-claim runs under fatLock, starting at the FSInfo-style
// next-free hint; the zeroing write happens after the claim, outside the
// allocator lock, because the fresh cluster is private to the caller.
//
// Only directory clusters and partially-covered file clusters need zeroing
// (the scan depends on the 0 end-mark; unwritten file bytes must read as
// zeros). A caller passing zero=false promises the cluster is either
// fully overwritten by its write or unlinked again on failure (see
// file.Write's rollback) — skipping the zero write halves the device
// traffic of appends.
func (f *FS) allocCluster(t *sched.Task, zero bool) (uint32, error) {
	f.fatLock.Lock(t)
	c, err := f.allocClusterLocked(t)
	f.fatLock.Unlock()
	if err != nil {
		return 0, err
	}
	if zero {
		if err := f.bc.WriteRange(t, f.clusterSector(c), SectorsPerCluster, make([]byte, ClusterSize)); err != nil {
			f.unclaimCluster(t, c)
			return 0, err
		}
	}
	return c, nil
}

// allocClusterLocked is the scan-and-claim; caller holds fatLock.
func (f *FS) allocClusterLocked(t *sched.Task) (uint32, error) {
	span := uint32(f.clusters)
	start := f.freeHint
	if start < rootCluster || start >= rootCluster+span {
		start = rootCluster
	}
	for i := uint32(0); i < span; i++ {
		c := rootCluster + (start-rootCluster+i)%span
		v, err := f.fatGet(t, c)
		if err != nil {
			return 0, err
		}
		if v == freeClust {
			if err := f.fatSet(t, c, endOfChain); err != nil {
				return 0, err
			}
			f.freeHint = c + 1
			if f.freeCount > 0 {
				f.freeCount--
			}
			return c, nil
		}
	}
	return 0, fs.ErrNoSpace
}

// unclaimCluster releases a just-claimed, never-linked cluster (alloc
// failure paths). Best-effort.
func (f *FS) unclaimCluster(t *sched.Task, c uint32) {
	f.fatLock.Lock(t)
	if f.fatSet(t, c, freeClust) == nil {
		if c < f.freeHint {
			f.freeHint = c
		}
		if f.freeCount >= 0 {
			f.freeCount++
		}
	}
	f.fatLock.Unlock()
}

// freeChain releases a cluster chain. The free transitions (and the hint
// update) run under fatLock so a concurrent allocator scan never claims a
// half-released entry.
func (f *FS) freeChain(t *sched.Task, c uint32) error {
	f.fatLock.Lock(t)
	defer f.fatLock.Unlock()
	for c >= rootCluster && c < endOfChain {
		next, err := f.fatGet(t, c)
		if err != nil {
			return err
		}
		if err := f.fatSet(t, c, freeClust); err != nil {
			return err
		}
		if c < f.freeHint {
			f.freeHint = c
		}
		if f.freeCount >= 0 {
			f.freeCount++
		}
		c = next
	}
	return nil
}

// FreeClusters counts free FAT entries — the FSInfo free-count, used by
// tests to assert that failed writes roll their allocations back.
func (f *FS) FreeClusters(t *sched.Task) (int, error) {
	f.fatLock.Lock(t)
	defer f.fatLock.Unlock()
	return f.freeClustersLocked(t)
}

// freeClustersLocked is the scan; caller holds fatLock.
func (f *FS) freeClustersLocked(t *sched.Task) (int, error) {
	n := 0
	for c := uint32(rootCluster); c < uint32(f.clusters+rootCluster); c++ {
		v, err := f.fatGet(t, c)
		if err != nil {
			return 0, err
		}
		if v == freeClust {
			n++
		}
	}
	return n, nil
}

// chain returns the cluster list of a chain starting at c. Callers hold
// the owning pseudo-inode's lock, which is what keeps the walk stable.
func (f *FS) chain(t *sched.Task, c uint32) ([]uint32, error) {
	var out []uint32
	for c >= rootCluster && c < endOfChain {
		out = append(out, c)
		next, err := f.fatGet(t, c)
		if err != nil {
			return nil, err
		}
		if next == c {
			return nil, fmt.Errorf("fat32: cluster %d links to itself", c)
		}
		c = next
	}
	return out, nil
}

func (f *FS) clusterSector(c uint32) int {
	return f.dataStart + int(c-rootCluster)*SectorsPerCluster
}

// readData reads nsec sectors of file data starting at sector through
// the cache — the one point every data read shares, counted in
// RangeStats.
func (f *FS) readData(t *sched.Task, sector, nsec int, dst []byte) error {
	f.rangeOps.Add(1)
	f.rangeBlocks.Add(int64(nsec))
	return f.bc.ReadRange(t, sector, nsec, dst)
}

// writeData is readData's write-side twin. o tags the dirtied buffers
// with the writing file's error stream (nil for unowned writes).
func (f *FS) writeData(t *sched.Task, sector, nsec int, src []byte, o *bcache.Owner) error {
	f.rangeOps.Add(1)
	f.rangeBlocks.Add(int64(nsec))
	return f.bc.WriteRangeOwned(t, sector, nsec, src, o)
}

// clusterRuns walks [off, off+size) across the chain and calls partial for
// unaligned edges and aligned for maximal contiguous full-cluster runs —
// the coalescing that turns a big sequential transfer into a handful of
// range commands (§5.2, Fig 8's throughput sweep).
func (f *FS) clusterRuns(clusters []uint32, off, size int,
	partial func(ci, co, n int) error, aligned func(ci, run int) error) (int, error) {
	done := 0
	for done < size {
		pos := off + done
		ci := pos / ClusterSize
		co := pos % ClusterSize
		if ci >= len(clusters) {
			return done, fmt.Errorf("fat32: access beyond chain")
		}
		if co != 0 || size-done < ClusterSize {
			n := ClusterSize - co
			if n > size-done {
				n = size - done
			}
			if err := partial(ci, co, n); err != nil {
				return done, err
			}
			done += n
			continue
		}
		run := 1
		for ci+run < len(clusters) &&
			clusters[ci+run] == clusters[ci]+uint32(run) &&
			done+(run+1)*ClusterSize <= size {
			run++
		}
		if err := aligned(ci, run); err != nil {
			return done, err
		}
		done += run * ClusterSize
	}
	return done, nil
}

// readRange reads [off, off+len(dst)) of a cluster chain, coalescing
// contiguous clusters into multi-block commands through the cache.
func (f *FS) readRange(t *sched.Task, clusters []uint32, off int, dst []byte) error {
	pos := 0 // write cursor into dst, advanced in lockstep with the walk
	_, err := f.clusterRuns(clusters, off, len(dst),
		func(ci, co, n int) error {
			buf := make([]byte, ClusterSize)
			if err := f.readData(t, f.clusterSector(clusters[ci]), SectorsPerCluster, buf); err != nil {
				return err
			}
			copy(dst[pos:pos+n], buf[co:])
			pos += n
			return nil
		},
		func(ci, run int) error {
			out := dst[pos : pos+run*ClusterSize]
			pos += run * ClusterSize
			return f.readData(t, f.clusterSector(clusters[ci]), run*SectorsPerCluster, out)
		})
	return err
}

// writeRange writes src at [off, off+len(src)) of a cluster chain, which
// must already be long enough. Aligned full-cluster runs go out as single
// multi-block commands; unaligned edges read-modify-write their cluster.
// Dirtied buffers carry o, the owning file's error stream. Returns how
// many leading bytes landed (short-write reporting).
func (f *FS) writeRange(t *sched.Task, clusters []uint32, off int, src []byte, o *bcache.Owner) (int, error) {
	pos := 0
	return f.clusterRuns(clusters, off, len(src),
		func(ci, co, n int) error {
			sector := f.clusterSector(clusters[ci])
			buf := make([]byte, ClusterSize)
			if err := f.readData(t, sector, SectorsPerCluster, buf); err != nil {
				return err
			}
			copy(buf[co:], src[pos:pos+n])
			pos += n
			return f.writeData(t, sector, SectorsPerCluster, buf, o)
		},
		func(ci, run int) error {
			in := src[pos : pos+run*ClusterSize]
			pos += run * ClusterSize
			return f.writeData(t, f.clusterSector(clusters[ci]), run*SectorsPerCluster, in, o)
		})
}
