package xv6fs

import (
	"errors"

	"protosim/internal/kernel/errseq"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/sched"
)

// file is the fs.FileOps of one open xv6fs file or directory, holding a
// reference on its in-memory inode. It is pure per-FILE state: the offset,
// open flags, refcounts and the per-open error cursor live in the
// fs.OpenFile wrapping it. Operations lock the inode for their duration,
// so tasks working on different files never serialize against each other —
// only against operations on the same inode.
type file struct {
	fs.BaseOps
	fsys  *FS
	ip    *inode
	name  string
	isDir bool
}

// Open implements fs.FileSystem.
func (f *FS) Open(t *sched.Task, path string, flags int) (fs.FileOps, error) {
	ops, err := f.open(t, path, flags)
	if errors.Is(err, errOnlyRevoked) && f.liftRevokes(t) {
		ops, err = f.open(t, path, flags)
	}
	return ops, err
}

func (f *FS) open(t *sched.Task, path string, flags int) (_ fs.FileOps, err error) {
	// A latched-read-only mount refuses opens that could mutate; plain
	// read opens stay available (the data that did land is still there).
	if flags&(fs.OCreate|fs.OTrunc|fs.OWrOnly|fs.ORdWr) != 0 {
		if err := f.checkRW(); err != nil {
			return nil, err
		}
	}
	// One journal bracket per entry point, taken before any lock (see
	// beginOp). Even a read-only open needs it: the walk's iputs can fire
	// a deferred reclaim if a racing unlink dropped its reference first.
	// The closer inspects the returned error: a device failure mid-create
	// or mid-truncate poisons the bracket so the half-recorded transaction
	// is discarded, never committed.
	f.beginOp(t)
	defer func() { f.opAbort(err); f.endOp(t) }()
	path = fs.Clean(path)
	var ip *inode
	if flags&fs.OCreate != 0 && path != "/" {
		ip, err = f.create(t, path, typeFile, true)
		if err != nil {
			return nil, err
		}
	} else {
		if ip, err = f.namex(t, path); err != nil {
			return nil, err
		}
		if err = f.ilock(t, ip); err != nil {
			f.iput(t, ip)
			return nil, err
		}
	}
	if ip.di.Type == typeDir && flags&(fs.OWrOnly|fs.ORdWr) != 0 {
		f.iunlockput(t, ip)
		return nil, fs.ErrIsDir
	}
	if flags&fs.OTrunc != 0 && ip.di.Type == typeFile {
		if err := f.truncate(t, ip); err != nil {
			f.iunlockput(t, ip)
			return nil, err
		}
	}
	_, name := fs.SplitPath(path)
	if name == "" {
		name = "/"
	}
	isDir := ip.di.Type == typeDir
	f.iunlock(ip)
	return &file{fsys: f, ip: ip, name: name, isDir: isDir}, nil
}

// create makes (or, when existOK, returns) the inode for path's final
// element. On success the returned inode is referenced AND locked. Lock
// order is the canonical parent-directory → child → allocator: the parent
// stays locked from lookup through link so no second create can race the
// same name, and the child inode — invisible to everyone else until the
// dirLink lands — is locked nested under it.
func (f *FS) create(t *sched.Task, path string, typ uint16, existOK bool) (*inode, error) {
	dp, name, err := f.namexParent(t, path)
	if err != nil {
		return nil, err
	}
	if err := f.ilock(t, dp); err != nil {
		f.iput(t, dp)
		return nil, err
	}
	if dp.di.Type != typeDir {
		f.iunlockput(t, dp)
		return nil, fs.ErrNotDir
	}
	// Re-validate after locking: a racing unlink may have orphaned the
	// parent (NLink 0, reclaim deferred on our reference). Linking into
	// it would strand the new inode forever.
	if dp.di.NLink == 0 {
		f.iunlockput(t, dp)
		return nil, fs.ErrNotFound
	}
	if existing, err := f.dirLookupCached(t, dp, name); err != nil {
		f.iunlockput(t, dp)
		return nil, err
	} else if existing != 0 {
		ip := f.iget(existing)
		f.iunlockput(t, dp)
		if !existOK {
			f.iput(t, ip)
			return nil, fs.ErrExists
		}
		if err := f.ilock(t, ip); err != nil {
			f.iput(t, ip)
			return nil, err
		}
		return ip, nil
	}
	if len(name) > MaxName {
		f.iunlockput(t, dp)
		return nil, fs.ErrNameTooLong
	}
	inum, err := f.allocInode(t, typ)
	if err != nil {
		f.iunlockput(t, dp)
		return nil, err
	}
	ip := f.iget(inum)
	if err := f.ilockNested(t, ip); err != nil {
		f.iput(t, ip)
		f.iunlockput(t, dp)
		return nil, err
	}
	// Unwind a half-made inode: drop its link count so iput reclaims it.
	fail := func(err error) (*inode, error) {
		ip.di.NLink = 0
		_ = f.iupdate(t, ip)
		f.iunlockput(t, ip)
		f.iunlockput(t, dp)
		return nil, err
	}
	if typ == typeDir {
		if err := f.dirLink(t, ip, ".", inum); err != nil {
			return fail(err)
		}
		if err := f.dirLink(t, ip, "..", dp.inum); err != nil {
			return fail(err)
		}
	}
	// The name was just proven absent — possibly cached as ENOENT by the
	// lookup above. Kill that answer before the dirent lands, then record
	// the new mapping once it has.
	f.dcInval(dp, name)
	if err := f.dirLink(t, dp, name, inum); err != nil {
		return fail(err)
	}
	f.dcFillPos(dp, name, inum)
	f.iunlockput(t, dp)
	return ip, nil
}

// Mkdir implements fs.FileSystem.
func (f *FS) Mkdir(t *sched.Task, path string) error {
	err := f.mkdir(t, path)
	if errors.Is(err, errOnlyRevoked) && f.liftRevokes(t) {
		err = f.mkdir(t, path)
	}
	return err
}

func (f *FS) mkdir(t *sched.Task, path string) (err error) {
	if err := f.checkRW(); err != nil {
		return err
	}
	f.beginOp(t)
	defer func() { f.opAbort(err); f.endOp(t) }()
	ip, err := f.create(t, fs.Clean(path), typeDir, false)
	if err != nil {
		return err
	}
	f.iunlockput(t, ip)
	return nil
}

// Unlink implements fs.FileSystem.
func (f *FS) Unlink(t *sched.Task, path string) (err error) {
	if err := f.checkRW(); err != nil {
		return err
	}
	f.beginOp(t)
	defer func() { f.opAbort(err); f.endOp(t) }()
	path = fs.Clean(path)
	dp, name, err := f.namexParent(t, path)
	if err != nil {
		return err
	}
	if err := f.ilock(t, dp); err != nil {
		f.iput(t, dp)
		return err
	}
	fail := func(err error) error {
		f.iunlockput(t, dp)
		return err
	}
	// The walk only type-checks directories it descends THROUGH; the final
	// parent must be validated here or a regular file's bytes would be
	// scanned as dirents.
	if dp.di.Type != typeDir {
		return fail(fs.ErrNotDir)
	}
	inum, err := f.dirLookupCached(t, dp, name)
	if err != nil {
		return fail(err)
	}
	if inum == 0 {
		return fail(fs.ErrNotFound)
	}
	ip := f.iget(inum)
	if err := f.ilockNested(t, ip); err != nil {
		f.iput(t, ip)
		return fail(err)
	}
	if ip.di.Type == typeDir {
		empty, err := f.isDirEmpty(t, ip)
		if err != nil {
			f.iunlockput(t, ip)
			return fail(err)
		}
		if !empty {
			f.iunlockput(t, ip)
			return fail(fs.ErrNotEmpty)
		}
	}
	// The name is about to stop resolving: invalidate before the dirent
	// write. A dying directory also takes its cached children (and cached
	// ENOENTs under it) along — its inum may be recycled.
	f.dcInval(dp, name)
	if ip.di.Type == typeDir {
		f.dc.InvalidateDir(int64(ip.inum))
	}
	if err := f.dirUnlink(t, dp, name); err != nil {
		f.iunlockput(t, ip)
		return fail(err)
	}
	f.dcFillNeg(dp, name)
	ip.di.NLink--
	err = f.iupdate(t, ip)
	// A file unlinked while still open elsewhere becomes an orphan: its
	// reclaim is deferred to the final close, and a crash before then
	// must not leak its storage — record it on the on-disk orphan list
	// in this same transaction. No new reference can appear once the
	// dirent is gone (this ref came from our own iget), so the ref count
	// read under imu is stable for this decision. When we hold the sole
	// reference, iput below reclaims immediately and no record is needed.
	if err == nil && ip.di.NLink == 0 {
		f.imu.Lock()
		openElsewhere := ip.ref > 1
		f.imu.Unlock()
		if openElsewhere {
			err = f.orphanAdd(t, ip.inum)
		}
	}
	// Reclaim happens in iput when the last reference drops — right here
	// if nothing has the file open, at final Close otherwise.
	f.iunlockput(t, ip)
	f.iunlockput(t, dp)
	return err
}

// Rename implements fs.Renamer: atomically move oldPath to newPath within
// this filesystem. An existing target is atomically REPLACED (POSIX
// rename): the target's directory entry is repointed at the moved inode
// in one buffer-atomic write — no moment exists when newPath is absent —
// and the displaced inode loses its link, reclaimed at its last close. A
// directory may only replace an empty directory; replacing across types
// fails with ErrIsDir/ErrNotDir as POSIX specifies.
//
// Rename is the one operation that must hold two directory locks at once,
// which is why it is serialized FS-wide by renameMu and locks the pair
// ancestor-first (falling back to ascending inum for unrelated
// directories). Ancestry comes from the cleaned paths — safe because only
// renames reshape the tree and renameMu admits one at a time. Against
// create/unlink/walk, which take parent-then-child down the tree,
// ancestor-first ordering closes every cycle. The moved and displaced
// inodes are locked nested under the directories; holders of a single
// file lock never acquire a second, so the pair cannot cycle either.
func (f *FS) Rename(t *sched.Task, oldPath, newPath string) error {
	err := f.rename(t, oldPath, newPath)
	if errors.Is(err, errOnlyRevoked) && f.liftRevokes(t) {
		err = f.rename(t, oldPath, newPath)
	}
	return err
}

func (f *FS) rename(t *sched.Task, oldPath, newPath string) (err error) {
	if err := f.checkRW(); err != nil {
		return err
	}
	f.beginOp(t)
	defer func() { f.opAbort(err); f.endOp(t) }()
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
	if len(newName) > MaxName {
		return fs.ErrNameTooLong
	}

	// Per-mount rename sharding: a same-directory rename never consults
	// textual ancestry (its two paths share a parent, so neither can be
	// the other's prefix) and locks parent-then-child like create/unlink,
	// so it only needs to EXCLUDE cross-directory renames — whose ancestry
	// ordering a concurrent directory rename would invalidate — not other
	// same-directory renames. Shared mode buys exactly that.
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
		st, err := f.statInternal(t, oldPath)
		if err != nil {
			return err
		}
		if st.Type == fs.TypeDir {
			return fs.ErrNotEmpty
		}
		return fs.ErrIsDir
	}

	dp1, err := f.namex(t, oldDir)
	if err != nil {
		return err
	}
	dp2, err := f.namex(t, newDir)
	if err != nil {
		f.iput(t, dp1)
		return err
	}
	putDirs := func() {
		f.iput(t, dp1)
		f.iput(t, dp2)
	}

	first, second := dp1, dp2
	switch {
	case dp1 == dp2:
		second = nil
	case fs.IsPathAncestor(newDir, oldDir): // newDir is the ancestor
		first, second = dp2, dp1
	case fs.IsPathAncestor(oldDir, newDir): // oldDir is the ancestor
	default: // unrelated: ascending inum
		if dp2.inum < dp1.inum {
			first, second = dp2, dp1
		}
	}
	if err := f.ilock(t, first); err != nil {
		putDirs()
		return err
	}
	if second != nil {
		if err := f.ilockNested(t, second); err != nil {
			f.iunlock(first)
			putDirs()
			return err
		}
	}
	unlockDirs := func() {
		if second != nil {
			f.iunlock(second)
		}
		f.iunlock(first)
		putDirs()
	}
	// Re-validate after locking: an unlinked directory either reads back
	// as typeFree/reallocated (reclaimed) or still looks like a dir with
	// NLink 0 (reclaim deferred on our reference) — both are dead ends.
	if dp1.di.Type != typeDir || dp2.di.Type != typeDir ||
		dp1.di.NLink == 0 || dp2.di.NLink == 0 {
		unlockDirs()
		return fs.ErrNotFound
	}

	inum, err := f.dirLookupCached(t, dp1, oldName)
	if err != nil {
		unlockDirs()
		return err
	}
	if inum == 0 {
		unlockDirs()
		return fs.ErrNotFound
	}
	existing, err := f.dirLookupCached(t, dp2, newName)
	if err != nil {
		unlockDirs()
		return err
	}
	if existing == inum {
		// Both names already point at the same inode: POSIX says do
		// nothing and succeed.
		unlockDirs()
		return nil
	}
	if existing == dp1.inum || existing == dp2.inum {
		// Defensive: the ancestor-target check before the locks were
		// taken should make this unreachable; refuse rather than deadlock
		// on a lock this call already holds.
		unlockDirs()
		return fs.ErrNotEmpty
	}

	ip := f.iget(inum)
	if err := f.ilockNested(t, ip); err != nil {
		f.iput(t, ip)
		unlockDirs()
		return err
	}
	// The displaced target, if any, is locked under the moved inode. No
	// cycle: both parents are held (no create/unlink/walk can be between
	// these children), and open-file operations hold one inode lock only.
	var victim *inode
	failLocked := func(err error) error {
		if victim != nil {
			f.iunlockput(t, victim)
		}
		f.iunlockput(t, ip)
		unlockDirs()
		return err
	}
	if existing != 0 {
		victim = f.iget(existing)
		if err := f.ilockNested(t, victim); err != nil {
			f.iput(t, victim)
			victim = nil
			return failLocked(err)
		}
		// POSIX replace typing: a directory may only displace an empty
		// directory, a file only a non-directory.
		if victim.di.Type == typeDir {
			if ip.di.Type != typeDir {
				return failLocked(fs.ErrIsDir)
			}
			empty, err := f.isDirEmpty(t, victim)
			if err != nil {
				return failLocked(err)
			}
			if !empty {
				return failLocked(fs.ErrNotEmpty)
			}
		} else if ip.di.Type == typeDir {
			return failLocked(fs.ErrNotDir)
		}
	}
	// Both names go stale the moment the dirent dance below starts:
	// invalidate under the held directory locks, before any write. A
	// displaced directory dies here, so its cached children (and cached
	// ENOENTs under it) die with it.
	f.dcInval(dp1, oldName)
	f.dcInval(dp2, newName)
	if victim != nil && victim.di.Type == typeDir {
		f.dc.InvalidateDir(int64(victim.inum))
	}
	dotdotMoved := false
	if ip.di.Type == typeDir && dp1 != dp2 {
		// The moved directory's ".." must follow it to the new parent.
		if err := f.dirSetInum(t, ip, "..", dp2.inum); err != nil {
			return failLocked(err)
		}
		dotdotMoved = true
	}
	// Any failure past the ".." repoint must restore it, or the directory
	// stays under dp1 with ".." pointing at dp2; best-effort.
	undoDotdot := func() {
		if dotdotMoved {
			_ = f.dirSetInum(t, ip, "..", dp1.inum)
		}
	}
	if victim != nil {
		// Atomic replace: repoint the existing entry at the moved inode —
		// one dirent write, so newPath never stops resolving.
		if err := f.dirSetInum(t, dp2, newName, inum); err != nil {
			undoDotdot()
			return failLocked(err)
		}
	} else {
		if err := f.dirLink(t, dp2, newName, inum); err != nil {
			undoDotdot()
			return failLocked(err)
		}
	}
	if err := f.dirUnlink(t, dp1, oldName); err != nil {
		// Roll the new entry back rather than leave the file under two
		// names; best-effort, the original error wins.
		if victim != nil {
			_ = f.dirSetInum(t, dp2, newName, existing)
		} else {
			_ = f.dirUnlink(t, dp2, newName)
		}
		undoDotdot()
		return failLocked(err)
	}
	if victim != nil {
		// The displaced inode lost its only directory entry; its storage
		// is reclaimed at the last reference drop (right here when nothing
		// holds it open — xv6 deferred reclaim otherwise). Like Unlink,
		// a still-open victim joins the on-disk orphan list in this same
		// transaction so a crash cannot leak it.
		victim.di.NLink--
		_ = f.iupdate(t, victim)
		if victim.di.NLink == 0 {
			f.imu.Lock()
			openElsewhere := victim.ref > 1
			f.imu.Unlock()
			if openElsewhere {
				_ = f.orphanAdd(t, victim.inum)
			}
		}
		f.iunlockput(t, victim)
	}
	// Record what the rename proved, under the still-held directory locks:
	// the new name resolves to the moved inode, the old name to nothing.
	f.dcFillPos(dp2, newName, inum)
	f.dcFillNeg(dp1, oldName)
	f.iunlockput(t, ip)
	unlockDirs()
	return nil
}

// Stat implements fs.FileSystem.
func (f *FS) Stat(t *sched.Task, path string) (fs.Stat, error) {
	// Read-only, but the walk's iputs can fire a deferred reclaim (see
	// Open), and reclaim writes metadata — so Stat brackets too.
	f.beginOp(t)
	defer f.endOp(t)
	return f.statInternal(t, path)
}

// statInternal is Stat minus the journal bracket, for callers already
// inside one (Rename's ancestor-target check — brackets never nest).
func (f *FS) statInternal(t *sched.Task, path string) (fs.Stat, error) {
	path = fs.Clean(path)
	ip, err := f.namex(t, path)
	if err != nil {
		return fs.Stat{}, err
	}
	if err := f.ilock(t, ip); err != nil {
		f.iput(t, ip)
		return fs.Stat{}, err
	}
	_, name := fs.SplitPath(path)
	typ := fs.TypeFile
	if ip.di.Type == typeDir {
		typ = fs.TypeDir
	}
	st := fs.Stat{Name: name, Type: typ, Size: int64(ip.di.Size), Inode: uint64(ip.inum)}
	f.iunlockput(t, ip)
	return st, nil
}

// --- fs.FileOps implementation ---

// Caps implements fs.FileOps: directories list and sync, files are
// positional and sync.
func (fl *file) Caps() fs.Caps {
	if fl.isDir {
		return fs.CapDir | fs.CapSync
	}
	return fs.CapSeek | fs.CapSync
}

// WbStream implements fs.FileOps: the inode's errseq stream, which the
// OpenFile samples for its per-open error cursor.
func (fl *file) WbStream() *errseq.Stream { return &fl.ip.wb.Stream }

// Pread implements fs.FileOps: read at an absolute offset under the inode
// lock. No open-file state is touched — concurrent preads of one
// description contend only on the inode, like two descriptions would.
func (fl *file) Pread(t *sched.Task, p []byte, off int64) (int, error) {
	if err := fl.fsys.ilock(t, fl.ip); err != nil {
		return 0, err
	}
	defer fl.fsys.iunlock(fl.ip)
	if fl.ip.di.Type == typeDir {
		return 0, fs.ErrIsDir
	}
	return fl.fsys.readData(t, fl.ip, off, p)
}

// Pwrite implements fs.FileOps: write at an absolute offset — or, for
// fs.OffAppend, at EOF resolved under the same inode lock as the write
// itself, which is what makes O_APPEND atomic across any number of
// concurrent appenders.
func (fl *file) Pwrite(t *sched.Task, p []byte, off int64) (int, int64, error) {
	n, end, err := fl.pwrite(t, p, off)
	if errors.Is(err, errOnlyRevoked) && fl.fsys.liftRevokes(t) {
		var m int
		m, end, err = fl.pwrite(t, p[n:], end)
		n += m
	}
	return n, end, err
}

func (fl *file) pwrite(t *sched.Task, p []byte, off int64) (_ int, _ int64, err error) {
	// The bracket covers the allocations (bitmap, indirect) and the size
	// update this write may make; file DATA itself is not journaled —
	// metadata journaling, like ext4's default — so a crash can lose
	// recent data but never the filesystem's shape.
	if err := fl.fsys.checkRW(); err != nil {
		return 0, off, err
	}
	fl.fsys.beginOp(t)
	defer func() { fl.fsys.opAbort(err); fl.fsys.endOp(t) }()
	if err := fl.fsys.ilock(t, fl.ip); err != nil {
		return 0, off, err
	}
	defer fl.fsys.iunlock(fl.ip)
	if fl.ip.di.Type == typeDir {
		return 0, off, fs.ErrIsDir
	}
	if off == fs.OffAppend {
		off = int64(fl.ip.di.Size)
	}
	if off < 0 {
		return 0, off, fs.ErrBadSeek
	}
	n, err := fl.fsys.writeData(t, fl.ip, off, p)
	return n, off + int64(n), err
}

// Sync implements fs.FileOps — the flush half of fsync. It writes back
// this file's dirty data buffers (found through the inode's per-owner
// dirty list) plus every metadata block the file's durability depends on:
// the inode-array block holding its on-disk inode, its indirect block
// (the pointers bmap dirties unowned), and the allocation bitmap (a
// block's bitmap bit must land with the pointer that references it, or a
// crash + fsck frees data fsync promised durable). All of it is already
// in the cache — every mutation under ip.lock writes through it — so the
// flush is purely a writeback barrier. Error observation happens in the
// caller: the fs.OpenFile observes its own per-open cursor against the
// inode's stream, so each descriptor hears a failure exactly once.
func (fl *file) Sync(t *sched.Task) error {
	f := fl.fsys
	// Journal barrier FIRST, before the inode lock: log.Sync waits for
	// every open bracket to End, and a bracketed operation may itself be
	// waiting on this inode's lock — taking the lock first would wedge
	// fsync and the log against each other. After it returns, every
	// metadata transaction this file's durability depends on is in the
	// on-disk log (or home); the FlushOwner below only needs to move data
	// blocks and already-checkpointed metadata.
	if f.log != nil {
		if err := f.log.Sync(t); err != nil {
			// A commit failure means metadata durability is gone for the
			// whole volume, not just this file: latch read-only. The error
			// itself is still reported to exactly this fsync — the journal
			// clears its sticky error once told.
			f.remountRO(err)
			return err
		}
	}
	if err := f.ilock(t, fl.ip); err != nil {
		return err
	}
	defer f.iunlock(fl.ip)
	extra := []int{int(f.sb.InodeStart) + fl.ip.inum/inodesPerBlock}
	if ind := fl.ip.di.Addrs[NDirect]; ind != 0 {
		extra = append(extra, int(ind))
	}
	// The whole bitmap is at most a handful of blocks (1 per 8 Mbit of
	// volume); clean ones are skipped by the flush anyway.
	for b := int(f.sb.BitmapStart); b < int(f.sb.DataStart); b++ {
		extra = append(extra, b)
	}
	return f.bc.FlushOwner(t, fl.ip.wb, extra...)
}

// Close implements fs.FileOps: drop the inode reference. The OpenFile
// calls it exactly once, after the last descriptor closed and the last
// in-flight operation drained. If the file was unlinked while open, this
// is where its blocks are reclaimed.
func (fl *file) Close(t *sched.Task) error {
	// The final close of an unlinked file reclaims its storage — a
	// metadata transaction, so Close brackets like any mutating entry
	// point.
	fl.fsys.beginOp(t)
	fl.fsys.iput(t, fl.ip)
	fl.fsys.endOp(t)
	return nil
}

// Stat implements fs.FileOps.
func (fl *file) Stat(t *sched.Task) (fs.Stat, error) {
	if err := fl.fsys.ilock(t, fl.ip); err != nil {
		return fs.Stat{}, err
	}
	defer fl.fsys.iunlock(fl.ip)
	typ := fs.TypeFile
	if fl.ip.di.Type == typeDir {
		typ = fs.TypeDir
	}
	return fs.Stat{Name: fl.name, Type: typ, Size: int64(fl.ip.di.Size), Inode: uint64(fl.ip.inum)}, nil
}

// ReadDir implements fs.FileOps.
func (fl *file) ReadDir(t *sched.Task) ([]fs.DirEntry, error) {
	if err := fl.fsys.ilock(t, fl.ip); err != nil {
		return nil, err
	}
	defer fl.fsys.iunlock(fl.ip)
	if fl.ip.di.Type != typeDir {
		return nil, fs.ErrNotDir
	}
	return fl.fsys.dirEntries(t, fl.ip)
}

var (
	_ fs.FileOps = (*file)(nil)
	_ fs.Renamer = (*FS)(nil)
)
