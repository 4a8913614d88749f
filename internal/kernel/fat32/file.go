package fat32

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"protosim/internal/kernel/bcache"
	"protosim/internal/kernel/errseq"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/ksync"
	"protosim/internal/kernel/sched"
)

// file is the fs.FileOps of one open FAT32 file, backed by a shared
// pseudo-inode. It is pure per-FILE state: the offset, open flags,
// refcounts and the per-open error cursor live in the fs.OpenFile
// wrapping it.
type file struct {
	fs.BaseOps
	fsys *FS
	pi   *pseudoInode
	name string
}

// pin returns (creating if needed) a referenced pseudo-inode for the
// object whose chain starts at cluster. Callers pin while holding the
// parent directory's lock (or for the root, nothing), so a pin never races
// the unlink that would invalidate its dirent.
func (f *FS) pin(cluster uint32, isDir bool, size uint32, ref direntRef, parent uint32, name string) *pseudoInode {
	f.mu.Lock()
	defer f.mu.Unlock()
	if pi, ok := f.pseudo[cluster]; ok {
		// Deduplicating onto the live pseudo-inode deliberately ignores
		// the caller's size/ref/name: the live object is the truth (a
		// dentry-cache-sourced size could lag an in-flight write).
		pi.refs++
		return pi
	}
	wb := f.owners[cluster]
	if wb == nil {
		wb = &bcache.Owner{}
		f.owners[cluster] = wb
	}
	pi := &pseudoInode{
		firstCluster: cluster,
		size:         size,
		diskSize:     size,
		isDir:        isDir,
		refs:         1,
		dirCluster:   ref.cluster,
		dirIndex:     ref.index,
		parent:       parent,
		name:         name,
		wb:           wb,
	}
	pi.lock.SetRank(ksync.RankInode, int64(cluster))
	f.pseudo[cluster] = pi
	return pi
}

// unpin drops a reference. The identity check matters: a dead (poisoned)
// pseudo-inode was already removed from the map, and its first cluster may
// have been reused by a live successor that must not be evicted.
//
// The last unpin of an unlinked object performs the deferred reclaim: the
// dirent went durable at unlink time, so all that is left is freeing the
// chain and retiring the error stream (no new writer can be tagged with it
// once the pseudo-inode is gone). freeChain runs after FS.mu is dropped —
// it takes the allocator sleeplock, which must never nest inside the
// table mutex — and its error is returned so the closing descriptor hears
// about a reclaim that leaked clusters.
func (f *FS) unpin(t *sched.Task, pi *pseudoInode) error {
	f.mu.Lock()
	pi.refs--
	reclaim := false
	if pi.refs <= 0 {
		if cur, ok := f.pseudo[pi.firstCluster]; ok && cur == pi {
			delete(f.pseudo, pi.firstCluster)
		}
		if pi.unlinked && !pi.dead {
			pi.dead = true
			delete(f.owners, pi.firstCluster)
			reclaim = true
		}
	}
	f.mu.Unlock()
	if reclaim {
		// Durably retire the orphan record BEFORE freeing: a crash in
		// between leaves a leaked (fsck-repairable) chain, never a
		// record pointing at freed clusters. A clear failure skips the
		// free — the record survives, and the next mount's scan reclaims.
		if err := f.orphanClear(t, pi.firstCluster); err != nil {
			return err
		}
		return f.freeChain(t, pi.firstCluster)
	}
	return nil
}

// PseudoInodes reports how many pseudo-inodes are live (tests verify the
// bridge cleans up after itself).
func (f *FS) PseudoInodes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pseudo)
}

// patchDirentSize pushes pi.size into its directory entry, atomically
// under the entry's sector buffer lock, then refreshes the dentry
// cache's copy in place (FixSize touches only a positive entry whose
// identity still matches — no generation bump, because the name→cluster
// mapping is unchanged). Caller holds pi.lock, which serializes size
// publishes for this file. Caller must not call this for an unlinked
// file (its slot is gone and possibly reused), and must have made the
// chain covering pi.size durable first (see publishSize).
func (f *FS) patchDirentSize(t *sched.Task, pi *pseudoInode) error {
	ref := direntRef{cluster: pi.dirCluster, index: pi.dirIndex}
	size := pi.size
	if err := f.patchDirent(t, ref, func(entry []byte) {
		binary.LittleEndian.PutUint32(entry[28:], size)
	}); err != nil {
		return err
	}
	pi.diskSize = size
	f.dc.FixSize(int64(pi.parent), pi.name, int64(pi.firstCluster), int64(size))
	return nil
}

// errUnpublished refuses a size publish on a degraded mount. The cache
// leaves an abandoned dirty buffer valid and clean, so no later flush
// can tell whether a FAT link that an append set in it ever reached the
// device; publishing a size over such a chain could leave a dirent whose
// size exceeds its durable chain.
var errUnpublished = fmt.Errorf("%w: writeback abandoned, file size not published", fs.ErrReadOnly)

// publishSize brings the dirent up to an append's size: the extending
// half of the ordered-writes discipline. An append only grows pi.size;
// the size reaches the disk here, at fsync, close, sync(2)/unmount and
// rename. First the FAT sectors that link the chain beyond the on-disk
// size go durable, then the dirent is patched, so a crash can lose an
// unpublished size (with its unsynced data) but never leave a published
// size over a chain that does not back it. linked reports that the
// caller has just forced every FAT sector of the chain durable (fsync's
// first barrier), leaving only the patch. A failure latches the mount
// read-only: the dentry cache already holds the live size, and later
// mutation must not race ahead of a link that may never land. Caller
// holds pi.lock.
func (f *FS) publishSize(t *sched.Task, pi *pseudoInode, linked bool) (err error) {
	if pi.size <= pi.diskSize || pi.unlinked || pi.dead {
		return nil
	}
	defer func() {
		if err != nil {
			f.remountRO(err)
		}
	}()
	if f.degraded.Load() {
		return errUnpublished
	}
	if !linked {
		clusters, err := f.chain(t, pi.firstCluster)
		if err != nil {
			return err
		}
		// The first n clusters already back the on-disk size, so the
		// links that matter start at the entry of the last of them.
		n := int((pi.diskSize + ClusterSize - 1) / ClusterSize)
		n = min(max(n, 1), len(clusters))
		var sectors []int
		for _, c := range clusters[n-1:] {
			if s := f.fatSector(c); len(sectors) == 0 || sectors[len(sectors)-1] != s {
				sectors = append(sectors, s)
			}
		}
		if err := f.orderedFlush(t, sectors...); err != nil {
			return err
		}
	}
	return f.patchDirentSize(t, pi)
}

// Open implements fs.FileSystem.
func (f *FS) Open(t *sched.Task, path string, flags int) (fs.FileOps, error) {
	// A latched-read-only mount refuses opens that could mutate; plain
	// read opens stay available.
	if flags&(fs.OCreate|fs.OTrunc|fs.OWrOnly|fs.ORdWr) != 0 {
		if err := f.checkRW(); err != nil {
			return nil, err
		}
	}
	path = fs.Clean(path)
	if path == "/" {
		if flags&(fs.OWrOnly|fs.ORdWr) != 0 {
			return nil, fs.ErrIsDir
		}
		return &file{fsys: f, pi: f.pinRoot(), name: "/"}, nil
	}
	dp, name, err := f.walkParent(t, path)
	if err != nil {
		return nil, err
	}
	dp.lock.Lock(t)
	fail := func(err error) (fs.FileOps, error) {
		dp.lock.Unlock()
		f.unpin(t, dp)
		return nil, err
	}
	if dp.gone() {
		return fail(fs.ErrNotFound)
	}
	de, ref, err := f.lookupCached(t, dp, name)
	if err == fs.ErrNotFound && flags&fs.OCreate != 0 {
		de, ref, err = f.createInDir(t, dp, name, false)
	}
	if err != nil {
		return fail(err)
	}
	if de.attr&attrDir != 0 && flags&(fs.OWrOnly|fs.ORdWr) != 0 {
		return fail(fs.ErrIsDir)
	}
	pi := f.pin(de.cluster, de.attr&attrDir != 0, de.size, ref, dp.firstCluster, dcName(name))
	if flags&fs.OTrunc != 0 && !pi.isDir {
		pi.lock.LockNested(t)
		if pi.size > 0 {
			if err := f.truncatePI(t, pi); err != nil {
				pi.lock.Unlock()
				f.unpin(t, pi)
				return fail(err)
			}
		}
		pi.lock.Unlock()
	}
	dp.lock.Unlock()
	f.unpin(t, dp)
	return &file{fsys: f, pi: pi, name: name}, nil
}

// truncatePI frees all but the first cluster and zeroes the size. Caller
// holds pi.lock.
//
// Ordered writes, shrinking direction: the size=0 dirent patch goes
// durable first, then the first cluster's end-of-chain mark, and only
// then are the tail clusters freed. Every crash window leaves either the
// old intact file, a zero-size file with extra (leaked, repairable)
// clusters, or the final state — never a dirent whose size exceeds its
// chain, and never a chain running into freed clusters.
func (f *FS) truncatePI(t *sched.Task, pi *pseudoInode) error {
	next, err := f.fatGet(t, pi.firstCluster)
	if err != nil {
		return err
	}
	pi.size = 0
	if err := f.patchDirentSize(t, pi); err != nil {
		return err
	}
	if next >= endOfChain {
		return nil
	}
	sector, _ := f.direntLoc(direntRef{cluster: pi.dirCluster, index: pi.dirIndex})
	if err := f.orderedFlush(t, sector); err != nil {
		return err
	}
	if err := f.fatSet(t, pi.firstCluster, endOfChain); err != nil {
		return err
	}
	if err := f.orderedFlush(t, f.fatSector(pi.firstCluster)); err != nil {
		return err
	}
	return f.freeChain(t, next)
}

// createInDir adds a new file or directory entry named name to dp. Caller
// holds dp.lock, which serializes the lookup-miss → slot-claim sequence.
func (f *FS) createInDir(t *sched.Task, dp *pseudoInode, name string, dir bool) (*dirent83, direntRef, error) {
	n83, ok := to83(name)
	if !ok {
		return nil, direntRef{}, fs.ErrNameTooLong
	}
	c, err := f.allocCluster(t, true)
	if err != nil {
		return nil, direntRef{}, err
	}
	// Ordered writes: the zeroed cluster and its FAT end-of-chain mark
	// must be durable before the dirent that publishes them — a crash
	// right after the dirent landed must find a valid (empty) object, not
	// a free cluster or, for a directory, garbage entries.
	sectors := make([]int, 0, SectorsPerCluster+1)
	cs := f.clusterSector(c)
	for s := 0; s < SectorsPerCluster; s++ {
		sectors = append(sectors, cs+s)
	}
	sectors = append(sectors, f.fatSector(c))
	if err := f.orderedFlush(t, sectors...); err != nil {
		f.unclaimCluster(t, c)
		return nil, direntRef{}, err
	}
	de := &dirent83{name: n83, cluster: c, attr: attrArchive}
	if dir {
		de.attr = attrDir
	}
	// Kill the cached ENOENT (the lookup-miss that led here filled one)
	// BEFORE the dirent write makes the name real: a lock-free walk must
	// never pass its generation recheck holding the stale negative.
	f.dcInval(dp, name)
	ref, err := f.addDirent(t, dp.firstCluster, de)
	if err != nil {
		f.unclaimCluster(t, c)
		return nil, direntRef{}, err
	}
	f.dcFillPos(dp, name, de, ref)
	return de, ref, nil
}

// Mkdir implements fs.FileSystem.
func (f *FS) Mkdir(t *sched.Task, path string) error {
	if err := f.checkRW(); err != nil {
		return err
	}
	path = fs.Clean(path)
	if path == "/" {
		return fs.ErrExists
	}
	dp, name, err := f.walkParent(t, path)
	if err != nil {
		return err
	}
	dp.lock.Lock(t)
	defer func() {
		dp.lock.Unlock()
		f.unpin(t, dp)
	}()
	if dp.gone() {
		return fs.ErrNotFound
	}
	if _, _, err := f.lookupCached(t, dp, name); err == nil {
		return fs.ErrExists
	} else if err != fs.ErrNotFound {
		return err
	}
	_, _, err = f.createInDir(t, dp, name, true)
	return err
}

// Unlink implements fs.FileSystem.
func (f *FS) Unlink(t *sched.Task, path string) error {
	if err := f.checkRW(); err != nil {
		return err
	}
	path = fs.Clean(path)
	if path == "/" {
		return fs.ErrPerm
	}
	dp, name, err := f.walkParent(t, path)
	if err != nil {
		return err
	}
	dp.lock.Lock(t)
	fail := func(err error) error {
		dp.lock.Unlock()
		f.unpin(t, dp)
		return err
	}
	if dp.gone() {
		return fail(fs.ErrNotFound)
	}
	de, ref, err := f.lookupCached(t, dp, name)
	if err != nil {
		return fail(err)
	}
	pi := f.pin(de.cluster, de.attr&attrDir != 0, de.size, ref, dp.firstCluster, dcName(name))
	pi.lock.LockNested(t)
	failBoth := func(err error) error {
		pi.lock.Unlock()
		f.unpin(t, pi)
		return fail(err)
	}
	if pi.isDir {
		empty := true
		if err := f.scanDir(t, de.cluster, func(*dirent83, direntRef) bool {
			empty = false
			return false
		}); err != nil {
			return failBoth(err)
		}
		if !empty {
			return failBoth(fs.ErrNotEmpty)
		}
	}
	// Invalidate the name — and for a directory, every entry it parents,
	// since its first cluster can be recycled — BEFORE the dirent write,
	// so no lock-free walk survives its generation recheck holding the
	// stale positive.
	f.dcInval(dp, name)
	if pi.isDir {
		f.dc.InvalidateDir(int64(pi.firstCluster))
	}
	// Ordered writes: remove the dirent and force that removal durable
	// BEFORE freeing the chain. The reverse order has a crash window where
	// a durable dirent points at freed (possibly reallocated) clusters —
	// fatal corruption; this order's worst case is leaked clusters, which
	// fsck repair reclaims.
	if err := f.removeDirent(t, ref); err != nil {
		return failBoth(err)
	}
	sector, _ := f.direntLoc(ref)
	if err := f.orderedFlush(t, sector); err != nil {
		return failBoth(err)
	}
	f.dcFillNeg(dp, name)
	err = f.disownPI(t, pi)
	pi.lock.Unlock()
	if uerr := f.unpin(t, pi); err == nil {
		err = uerr
	}
	dp.lock.Unlock()
	f.unpin(t, dp)
	return err
}

// killPI poisons a pseudo-inode whose chain is being freed, so
// surviving handles fail cleanly instead of reading reallocated clusters,
// and drops it — and its error stream — from the tables so the first
// cluster's next owner gets a fresh identity. Caller holds pi.lock.
func (f *FS) killPI(pi *pseudoInode) {
	pi.dead = true
	f.mu.Lock()
	if cur, ok := f.pseudo[pi.firstCluster]; ok && cur == pi {
		delete(f.pseudo, pi.firstCluster)
	}
	delete(f.owners, pi.firstCluster)
	f.mu.Unlock()
}

// disownPI finishes an unlink or rename-replace for an object whose dirent
// is already durably gone. Holding the only reference, it poisons the
// pseudo-inode and frees the chain inline; with other handles live it only
// marks the object unlinked — those descriptors keep working against the
// still-allocated chain, and the last unpin reclaims it (deferred reclaim,
// matching xv6fs). Caller holds pi.lock and a pin on pi.
func (f *FS) disownPI(t *sched.Task, pi *pseudoInode) error {
	f.mu.Lock()
	if pi.refs > 1 {
		pi.unlinked = true
		f.mu.Unlock()
		// Durably record the pending reclaim so it survives an unmount
		// (or crash) that happens before the last close — the caller's
		// dirent removal is already durable, so the record always names
		// an unreachable chain. See orphan.go.
		return f.orphanAdd(t, pi.firstCluster)
	}
	f.mu.Unlock()
	// Out of the tables before the chain is free: once it is, a create in
	// another directory can claim the first cluster, and its pin must not
	// find this pseudo-inode and share its poisoning.
	f.killPI(pi)
	return f.freeChain(t, pi.firstCluster)
}

// gone reports whether the object has left the namespace — poisoned, or
// unlinked and awaiting last-close reclaim. Directory operations check it
// so nothing new is created or resolved under a removed directory; file
// data paths deliberately check only dead, keeping surviving descriptors
// usable. Caller holds pi.lock or FS.mu.
func (pi *pseudoInode) gone() bool { return pi.dead || pi.unlinked }

// Rename implements fs.Renamer: atomically move oldPath to newPath within
// the volume. An existing target is atomically REPLACED (POSIX rename):
// its directory entry — same name, same slot — is repointed at the moved
// file's chain in one sector-atomic patch, so newPath never stops
// resolving; the displaced chain is freed — immediately when nothing else
// references it, otherwise deferred to the last close so surviving
// handles keep working (see disownPI). A directory may only replace an empty
// directory; replacing across types fails with ErrIsDir/ErrNotDir.
//
// Rename is the one operation holding two directory locks at once, so
// cross-directory renames are serialized volume-wide by renameMu (taken
// EXCLUSIVE) and lock the pair ancestor-first (ascending first-cluster
// for unrelated directories). Ancestry comes from the cleaned paths —
// safe because only renames reshape the tree and at most one
// tree-reshaping rename runs at a time. A same-directory rename never
// consults ancestry and holds a single directory lock, parent-then-child
// like create/unlink — it takes renameMu SHARED, so hot same-directory
// renames on different directories proceed concurrently. Against
// create/unlink/walk, which lock parent-then-child down the tree,
// ancestor-first ordering closes every cycle. The moved and displaced
// pseudo-inodes are locked nested under the directories; holders of a
// single file lock never acquire a second, so the pair cannot cycle
// either.
func (f *FS) Rename(t *sched.Task, oldPath, newPath string) error {
	if err := f.checkRW(); err != nil {
		return err
	}
	oldPath, newPath = fs.Clean(oldPath), fs.Clean(newPath)
	if oldPath == "/" || newPath == "/" {
		return fs.ErrPerm
	}
	if oldPath == newPath {
		return nil
	}
	// Moving a directory into its own subtree would orphan it.
	if fs.IsPathAncestor(oldPath, newPath) {
		return fs.ErrPerm
	}
	oldDir, oldName := fs.SplitPath(oldPath)
	newDir, newName := fs.SplitPath(newPath)
	n83, ok := to83(newName)
	if !ok {
		return fs.ErrNameTooLong
	}

	if oldDir == newDir {
		f.renameMu.RLock(t)
		defer f.renameMu.RUnlock()
	} else {
		f.renameMu.Lock(t)
		defer f.renameMu.Unlock()
	}

	// Renaming onto an ANCESTOR of the source ("/x/y/z" → "/x/y"): the
	// target is a directory the source's own lock path runs through —
	// locking it as the replace victim would deadlock against the locks
	// this call (or a concurrent walk) already holds — and it necessarily
	// contains the source, so the POSIX answer needs no victim lock:
	// ErrNotEmpty for a directory source, ErrIsDir for a file. Stable
	// under renameMu: only renames reshape the tree.
	if fs.IsPathAncestor(newPath, oldPath) {
		st, err := f.Stat(t, oldPath)
		if err != nil {
			return err
		}
		if st.Type == fs.TypeDir {
			return fs.ErrNotEmpty
		}
		return fs.ErrIsDir
	}

	dp1, err := f.walkDir(t, oldDir)
	if err != nil {
		return err
	}
	dp2, err := f.walkDir(t, newDir)
	if err != nil {
		f.unpin(t, dp1)
		return err
	}
	unpinDirs := func() {
		f.unpin(t, dp1)
		f.unpin(t, dp2)
	}

	first, second := dp1, dp2
	switch {
	case dp1 == dp2:
		second = nil
	case fs.IsPathAncestor(newDir, oldDir): // newDir is the ancestor
		first, second = dp2, dp1
	case fs.IsPathAncestor(oldDir, newDir): // oldDir is the ancestor
	default: // unrelated: ascending first cluster
		if dp2.firstCluster < dp1.firstCluster {
			first, second = dp2, dp1
		}
	}
	first.lock.Lock(t)
	if second != nil {
		second.lock.LockNested(t)
	}
	fail := func(err error) error {
		if second != nil {
			second.lock.Unlock()
		}
		first.lock.Unlock()
		unpinDirs()
		return err
	}
	if dp1.gone() || dp2.gone() {
		return fail(fs.ErrNotFound)
	}

	de, ref, err := f.lookupCached(t, dp1, oldName)
	if err != nil {
		return fail(err)
	}
	tde, tref, terr := f.lookupCached(t, dp2, newName)
	if terr != nil && terr != fs.ErrNotFound {
		return fail(terr)
	}
	if terr == nil && tde.cluster == de.cluster {
		// Both names already point at the same chain: POSIX no-op.
		return fail(nil)
	}
	if terr == nil && (tde.cluster == dp1.firstCluster || tde.cluster == dp2.firstCluster) {
		// Defensive: the ancestor-target check before the locks were
		// taken should make this unreachable; refuse rather than deadlock
		// on a lock this call already holds.
		return fail(fs.ErrNotEmpty)
	}

	// Both names are about to change meaning: drop their cached entries
	// BEFORE any dirent write, so no lock-free walk survives its
	// generation recheck holding either stale answer.
	f.dcInval(dp1, oldName)
	f.dcInval(dp2, newName)

	// Lock the moved object's pseudo-inode across the move so a concurrent
	// size patch through an open handle can neither race the dirent copy
	// nor land on the vacated slot.
	pi := f.pin(de.cluster, de.attr&attrDir != 0, de.size, ref, dp1.firstCluster, dcName(oldName))
	pi.lock.LockNested(t)
	failPI := func(err error) error {
		pi.lock.Unlock()
		f.unpin(t, pi)
		return fail(err)
	}
	// The new entry carries pi.size, so publish it first: the links that
	// back it go durable before any entry holds it.
	if err := f.publishSize(t, pi, false); err != nil {
		return failPI(err)
	}
	if terr == nil {
		// Replace: validate typing, then repoint the target's entry — one
		// sector-atomic patch of cluster/size/attr, the name is already
		// newName — free the displaced chain and poison its pseudo-inode.
		vpi := f.pin(tde.cluster, tde.attr&attrDir != 0, tde.size, tref, dp2.firstCluster, dcName(newName))
		vpi.lock.LockNested(t)
		// A rollback restores the target entry as the disk holds it, not
		// with a live size the dentry cache may report.
		tde.size = vpi.diskSize
		failBoth := func(err error) error {
			vpi.lock.Unlock()
			f.unpin(t, vpi)
			return failPI(err)
		}
		if vpi.isDir {
			if !pi.isDir {
				return failBoth(fs.ErrIsDir)
			}
			empty := true
			if err := f.scanDir(t, tde.cluster, func(*dirent83, direntRef) bool {
				empty = false
				return false
			}); err != nil {
				return failBoth(err)
			}
			if !empty {
				return failBoth(fs.ErrNotEmpty)
			}
		} else if pi.isDir {
			return failBoth(fs.ErrNotDir)
		}
		if vpi.isDir {
			// The displaced directory's first cluster can be recycled:
			// drop every cached entry it parents, stale positives and
			// stale negatives alike.
			f.dc.InvalidateDir(int64(vpi.firstCluster))
		}
		nde := *de
		nde.name = n83
		nde.size = pi.size
		if err := f.patchDirent(t, tref, func(entry []byte) {
			nde.encode(entry)
		}); err != nil {
			return failBoth(err)
		}
		// Ordered writes: the repointed target entry goes durable before the
		// source entry is removed and before the displaced chain is freed.
		// A crash then leaves either the old state, or the moved file under
		// BOTH names (a repairable duplicate reference) — never a window
		// where newPath stops resolving or points at freed clusters.
		tsector, _ := f.direntLoc(tref)
		if err := f.orderedFlush(t, tsector); err != nil {
			_ = f.patchDirent(t, tref, func(entry []byte) {
				tde.encode(entry)
			})
			return failBoth(err)
		}
		if err := f.removeDirent(t, ref); err != nil {
			// Roll the repoint back rather than leave the file under two
			// names; best-effort, the original error wins.
			_ = f.patchDirent(t, tref, func(entry []byte) {
				tde.encode(entry)
			})
			return failBoth(err)
		}
		// Only now is the displaced chain unreachable; free it — inline
		// when this rename holds the victim's only reference, deferred to
		// last close when open descriptors survive the replace. The
		// rename itself is committed at this point — a FAT write failure
		// here leaks the displaced clusters (fsck territory), so it is
		// still reported to the caller, as Unlink reports its own
		// free-chain failures.
		freeErr := f.disownPI(t, vpi)
		pi.dirCluster, pi.dirIndex = tref.cluster, tref.index
		pi.parent, pi.name = dp2.firstCluster, dcName(newName)
		// The move is committed: record what the directories now prove.
		f.dcFillPos(dp2, newName, &nde, tref)
		f.dcFillNeg(dp1, oldName)
		vpi.lock.Unlock()
		if uerr := f.unpin(t, vpi); freeErr == nil {
			freeErr = uerr
		}
		if freeErr != nil {
			pi.lock.Unlock()
			f.unpin(t, pi)
			return fail(freeErr)
		}
	} else {
		nde := *de
		nde.name = n83
		nde.size = pi.size
		newRef, err := f.addDirent(t, dp2.firstCluster, &nde)
		if err != nil {
			return failPI(err)
		}
		// Ordered writes: the new entry goes durable before the old one is
		// removed, so no crash window loses the file. The tolerated artifact
		// is the inverse — both entries durable, one chain — which fsck
		// repair resolves by dropping the duplicate reference.
		nsector, _ := f.direntLoc(newRef)
		if err := f.orderedFlush(t, nsector); err != nil {
			_ = f.removeDirent(t, newRef)
			return failPI(err)
		}
		if err := f.removeDirent(t, ref); err != nil {
			// Roll the new entry back rather than leave the file under two
			// names; best-effort, the original error wins.
			_ = f.removeDirent(t, newRef)
			return failPI(err)
		}
		pi.dirCluster, pi.dirIndex = newRef.cluster, newRef.index
		pi.parent, pi.name = dp2.firstCluster, dcName(newName)
		f.dcFillPos(dp2, newName, &nde, newRef)
		f.dcFillNeg(dp1, oldName)
	}
	pi.lock.Unlock()
	f.unpin(t, pi)
	if second != nil {
		second.lock.Unlock()
	}
	first.lock.Unlock()
	unpinDirs()
	return nil
}

// Stat implements fs.FileSystem.
func (f *FS) Stat(t *sched.Task, path string) (fs.Stat, error) {
	path = fs.Clean(path)
	if path == "/" {
		return fs.Stat{Name: "/", Type: fs.TypeDir, Inode: rootCluster}, nil
	}
	dp, name, err := f.walkParent(t, path)
	if err != nil {
		return fs.Stat{}, err
	}
	dp.lock.Lock(t)
	defer func() {
		dp.lock.Unlock()
		f.unpin(t, dp)
	}()
	if dp.gone() {
		return fs.Stat{}, fs.ErrNotFound
	}
	de, _, err := f.lookupCached(t, dp, name)
	if err != nil {
		return fs.Stat{}, err
	}
	typ := fs.TypeFile
	if de.attr&attrDir != 0 {
		typ = fs.TypeDir
	}
	return fs.Stat{Name: name, Type: typ, Size: f.liveSize(t, de), Inode: uint64(de.cluster)}, nil
}

// liveSize reports a directory entry's size as the file's open handles
// see it: a live pseudo-inode's size, which runs ahead of the dirent
// until its appends are published (see publishSize), else the entry's
// own. Caller holds the parent directory's lock, which ranks above the
// file's.
func (f *FS) liveSize(t *sched.Task, de *dirent83) int64 {
	if de.attr&attrDir != 0 {
		return int64(de.size)
	}
	f.mu.Lock()
	pi, ok := f.pseudo[de.cluster]
	if ok {
		pi.refs++
	}
	f.mu.Unlock()
	if !ok {
		return int64(de.size)
	}
	pi.lock.LockNested(t)
	size := pi.size
	pi.lock.Unlock()
	f.unpin(t, pi)
	return int64(size)
}

// Sync is the volume's durability barrier. Metadata lands in the cache
// under per-object locks, so Sync first drains in-flight operations by
// taking each live pseudo-inode lock once — one at a time, never two held
// together, so it cannot deadlock against parent→child holders — and
// publishes the size each file's appends left in memory (see
// publishSize). Then it quiesces the FAT allocator while it persists the
// FSInfo sector (free count + next-free hint) and runs the cache's Flush
// barrier: every dirty buffer submitted and its completion awaited, with
// asynchronous writeback errors from the daemon reported to this caller.
func (f *FS) Sync(t *sched.Task) error {
	f.mu.Lock()
	live := make([]*pseudoInode, 0, len(f.pseudo))
	for _, pi := range f.pseudo {
		pi.refs++
		live = append(live, pi)
	}
	f.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].firstCluster < live[j].firstCluster })
	var err error
	for _, pi := range live {
		pi.lock.Lock(t)
		if perr := f.publishSize(t, pi, false); err == nil {
			err = perr
		}
		pi.lock.Unlock()
		f.unpin(t, pi)
	}
	f.fatLock.Lock(t)
	if ierr := f.writeFSInfoLocked(t); err == nil {
		err = ierr
	}
	if ferr := f.bc.Flush(t); err == nil {
		err = ferr
	}
	f.fatLock.Unlock()
	if err != nil && (errors.Is(err, fs.ErrDeviceDead) || errors.Is(err, fs.ErrBadSector)) {
		// A fatal Sync failure is durability loss for cached metadata — on a
		// journal-less volume that is exactly what errors=remount-ro guards.
		// Transient writeback errors stay reportable-but-recoverable: the
		// dirty buffer survives and the next barrier may land it.
		f.remountRO(err)
	}
	return err
}

// --- fs.FileOps implementation ---

// Caps implements fs.FileOps: directories list and sync, files are
// positional and sync.
func (fl *file) Caps() fs.Caps {
	if fl.pi.isDir {
		return fs.CapDir | fs.CapSync
	}
	return fs.CapSeek | fs.CapSync
}

// WbStream implements fs.FileOps: the pseudo-inode's errseq stream, which
// the OpenFile samples for its per-open error cursor.
func (fl *file) WbStream() *errseq.Stream { return &fl.pi.wb.Stream }

// Pread implements fs.FileOps: read at an absolute offset under the
// pseudo-inode lock. No open-file state is touched.
func (fl *file) Pread(t *sched.Task, p []byte, off int64) (int, error) {
	pi := fl.pi
	pi.lock.Lock(t)
	defer pi.lock.Unlock()
	if pi.isDir {
		return 0, fs.ErrIsDir
	}
	if pi.dead {
		return 0, fs.ErrNotFound
	}
	size := int64(pi.size)
	if off >= size {
		return 0, nil
	}
	if off+int64(len(p)) > size {
		p = p[:size-off]
	}
	clusters, err := fl.fsys.chain(t, pi.firstCluster)
	if err != nil {
		return 0, err
	}
	if err := fl.fsys.readRange(t, clusters, int(off), p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Pwrite implements fs.FileOps: write at an absolute offset — or, for
// fs.OffAppend, at EOF resolved under the same pseudo-inode lock as the
// write itself, making O_APPEND atomic across concurrent appenders. A
// write that extends the file leaves its new size unpublished: the
// dirent catches up at the next fsync, close, sync or rename.
func (fl *file) Pwrite(t *sched.Task, p []byte, off int64) (int, int64, error) {
	if err := fl.fsys.checkRW(); err != nil {
		return 0, off, err
	}
	pi := fl.pi
	pi.lock.Lock(t)
	defer pi.lock.Unlock()
	if pi.isDir {
		return 0, off, fs.ErrIsDir
	}
	if pi.dead {
		return 0, off, fs.ErrNotFound
	}
	if off == fs.OffAppend {
		off = int64(pi.size)
	}
	if off < 0 {
		return 0, off, fs.ErrBadSeek
	}

	end := off + int64(len(p))
	clusters, err := fl.fsys.chain(t, pi.firstCluster)
	if err != nil {
		return 0, off, err
	}
	origLen := len(clusters)
	// rollback unlinks and frees clusters appended by this write, so a
	// failed write leaves the chain exactly as it found it — in
	// particular, no unzeroed cluster stays reachable (see allocCluster:
	// fully-covered clusters skip zeroing on the promise the data write
	// lands or the cluster is unlinked). Best-effort: the write's own
	// error is what the caller sees.
	rollback := func() {
		if len(clusters) == origLen {
			return
		}
		fl.fsys.fatSet(t, clusters[origLen-1], endOfChain)
		fl.fsys.freeChain(t, clusters[origLen])
	}
	// Grow the chain to cover end. A new cluster fully covered by this
	// write is about to be overwritten whole — skip its zeroing write;
	// partially covered ones (tail, seek-past-EOF gaps) still get zeroed
	// so unwritten bytes read back as zeros.
	for int64(len(clusters))*ClusterSize < end {
		span0 := int64(len(clusters)) * ClusterSize
		covered := off <= span0 && end >= span0+ClusterSize
		nc, err := fl.fsys.allocCluster(t, !covered)
		if err != nil {
			rollback()
			return 0, off, err
		}
		if err := fl.fsys.fatSet(t, clusters[len(clusters)-1], nc); err != nil {
			fl.fsys.unclaimCluster(t, nc)
			rollback()
			return 0, off, err
		}
		clusters = append(clusters, nc)
	}
	// Range write: contiguous full clusters coalesce into single
	// multi-block commands, unaligned edges read-modify-write. On error
	// the appended clusters are unlinked and the reported short-write
	// count is clamped to the old file size: bytes that landed in
	// rolled-back clusters are not durable, while in-place overwrites
	// below the old size are.
	oldSize := int64(pi.size)
	done, err := fl.fsys.writeRange(t, clusters, int(off), p, pi.wb)
	if err != nil {
		rollback()
		durable := oldSize - off
		if durable < 0 {
			durable = 0
		}
		if int64(done) > durable {
			done = int(durable)
		}
		return done, off + int64(done), err
	}
	if end > int64(pi.size) {
		// An extending write grows the size in memory only, with no device
		// write: the FAT links it set and the dirent's size reach the disk
		// together at the next publish point (fsync, close, sync, rename;
		// see publishSize), which orders the links first. Until then a
		// crash loses the appended size along with the unsynced data it
		// covers — the classic FAT contract — and leaves at worst an
		// excess chain tail, which fsck repairs. The dentry cache and
		// Stat see the live size at once. An unlinked file has no dirent
		// left to publish to, so its name is not refreshed either.
		pi.size = uint32(end)
		if !pi.unlinked {
			fl.fsys.dc.FixSize(int64(pi.parent), pi.name, int64(pi.firstCluster), end)
		}
	}
	return done, off + int64(done), nil
}

// Sync implements fs.FileOps — the flush half of fsync. It writes back
// this file's dirty data buffers (found through the pseudo-inode's
// per-owner dirty list) plus every metadata sector the file's durability
// depends on: the FAT sectors covering its cluster chain — without the
// chain links, data appended past the old tail would be durable but
// unreachable — and then, once publishSize has patched in the appended
// size, the directory sector holding its entry. Error observation
// happens in the caller: the fs.OpenFile observes its own per-open
// cursor against the pseudo-inode's stream, so each descriptor hears a
// failure exactly once.
func (fl *file) Sync(t *sched.Task) error {
	f := fl.fsys
	pi := fl.pi
	pi.lock.Lock(t)
	defer pi.lock.Unlock()
	if pi.dead {
		return fs.ErrNotFound
	}
	clusters, err := f.chain(t, pi.firstCluster)
	if err != nil {
		return err
	}
	var extra []int
	last := -1
	for _, c := range clusters {
		// The chain is in allocation order, not sector order, so dedupe
		// against everything collected so far; FlushOwner sorts.
		s := f.fatStart + int(c)*fatEntrySize/SectorSize
		if s == last {
			continue
		}
		last = s
		dup := false
		for _, have := range extra {
			if have == s {
				dup = true
				break
			}
		}
		if !dup {
			extra = append(extra, s)
		}
	}
	// Ordered writes: data and FAT links first, the size patch and the
	// dirent sector (where it lives) second — two barriers, so a crash
	// between them leaves the old size over a complete chain, never a
	// published size the chain or data doesn't back. The first barrier
	// already forced the whole chain's links, so the publish in between
	// only patches.
	if err := f.bc.FlushOwner(t, pi.wb, extra...); err != nil {
		return err
	}
	// An unlinked file's dirent slot is gone (and possibly reused): there
	// is no size patch to force, so fsync through a surviving descriptor
	// stops after data + FAT.
	if !pi.isDir && !pi.unlinked && pi.dirCluster >= rootCluster {
		if err := f.publishSize(t, pi, true); err != nil {
			return err
		}
		sector, _ := f.direntLoc(direntRef{cluster: pi.dirCluster, index: pi.dirIndex})
		return f.orderedFlush(t, sector)
	}
	return nil
}

// Close implements fs.FileOps: publish the size this handle's appends
// left in memory (see publishSize), then drop the pseudo-inode
// reference. The OpenFile calls it exactly once, after the last
// descriptor closed and the last in-flight operation drained. Closing
// the last handle of an unlinked file is the deferred-reclaim point:
// unpin frees the chain, and a reclaim failure (leaked clusters)
// surfaces here.
func (fl *file) Close(t *sched.Task) error {
	pi := fl.pi
	pi.lock.Lock(t)
	err := fl.fsys.publishSize(t, pi, false)
	pi.lock.Unlock()
	if uerr := fl.fsys.unpin(t, pi); err == nil {
		err = uerr
	}
	return err
}

// Stat implements fs.FileOps.
func (fl *file) Stat(t *sched.Task) (fs.Stat, error) {
	pi := fl.pi
	pi.lock.Lock(t)
	defer pi.lock.Unlock()
	typ := fs.TypeFile
	if pi.isDir {
		typ = fs.TypeDir
	}
	return fs.Stat{Name: fl.name, Type: typ, Size: int64(pi.size), Inode: uint64(pi.firstCluster)}, nil
}

// ReadDir implements fs.FileOps.
func (fl *file) ReadDir(t *sched.Task) ([]fs.DirEntry, error) {
	pi := fl.pi
	pi.lock.Lock(t)
	defer pi.lock.Unlock()
	if !pi.isDir {
		return nil, fs.ErrNotDir
	}
	if pi.dead {
		return nil, fs.ErrNotFound
	}
	var out []fs.DirEntry
	err := fl.fsys.scanDir(t, pi.firstCluster, func(de *dirent83, _ direntRef) bool {
		typ := fs.TypeFile
		if de.attr&attrDir != 0 {
			typ = fs.TypeDir
		}
		out = append(out, fs.DirEntry{Name: from83(de.name), Type: typ, Size: fl.fsys.liveSize(t, de)})
		return true
	})
	return out, err
}

var (
	_ fs.FileOps = (*file)(nil)
	_ fs.Renamer = (*FS)(nil)
)
