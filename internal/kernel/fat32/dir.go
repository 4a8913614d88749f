package fat32

import (
	"bytes"
	"encoding/binary"
	"strings"

	"protosim/internal/kernel/dcache"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/sched"
)

// dirent83 is one 32-byte FAT directory entry (8.3, no LFN — Proto's asset
// names fit; see package comment).
type dirent83 struct {
	name    [11]byte // "NAME    EXT"
	attr    byte
	cluster uint32
	size    uint32
}

func (d *dirent83) encode(b []byte) {
	copy(b[0:11], d.name[:])
	b[11] = d.attr
	binary.LittleEndian.PutUint16(b[20:], uint16(d.cluster>>16))
	binary.LittleEndian.PutUint16(b[26:], uint16(d.cluster&0xFFFF))
	binary.LittleEndian.PutUint32(b[28:], d.size)
}

func (d *dirent83) decode(b []byte) {
	copy(d.name[:], b[0:11])
	d.attr = b[11]
	d.cluster = uint32(binary.LittleEndian.Uint16(b[20:]))<<16 | uint32(binary.LittleEndian.Uint16(b[26:]))
	d.size = binary.LittleEndian.Uint32(b[28:])
}

func (d *dirent83) free() bool    { return d.name[0] == 0 || d.name[0] == 0xE5 }
func (d *dirent83) endMark() bool { return d.name[0] == 0 }

// to83 converts "doom1.wad" to "DOOM1   WAD". Returns false for names that
// don't fit 8.3.
func to83(name string) ([11]byte, bool) {
	var out [11]byte
	for i := range out {
		out[i] = ' '
	}
	name = strings.ToUpper(name)
	base, ext := name, ""
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		base, ext = name[:i], name[i+1:]
	}
	if base == "" || len(base) > 8 || len(ext) > 3 || strings.ContainsAny(name, " /\\") {
		return out, false
	}
	copy(out[0:8], base)
	copy(out[8:11], ext)
	return out, true
}

// from83 converts "DOOM1   WAD" back to "doom1.wad".
func from83(raw [11]byte) string {
	base := strings.TrimRight(string(raw[0:8]), " ")
	ext := strings.TrimRight(string(raw[8:11]), " ")
	s := base
	if ext != "" {
		s += "." + ext
	}
	return strings.ToLower(s)
}

// direntRef locates an entry inside a directory chain.
type direntRef struct {
	cluster uint32 // cluster holding the entry
	index   int    // entry index within the cluster
}

// direntLoc maps ref to its device sector and intra-sector byte offset. A
// 32-byte entry never straddles a 512-byte sector.
func (f *FS) direntLoc(ref direntRef) (sector, off int) {
	byteOff := ref.index * direntSize
	return f.clusterSector(ref.cluster) + byteOff/SectorSize, byteOff % SectorSize
}

// patchDirent read-modify-writes the single SECTOR holding ref's entry
// under that sector's buffer sleeplock. This is the one way directory
// entries are mutated: sector granularity makes a file's size update
// (under its own file lock) atomic against a concurrent create or unlink
// patching a different entry of the same directory cluster — no
// whole-cluster read-modify-write can lose either update.
func (f *FS) patchDirent(t *sched.Task, ref direntRef, fn func(entry []byte)) error {
	sector, off := f.direntLoc(ref)
	b, err := f.bc.Get(t, sector)
	if err != nil {
		return err
	}
	fn(b.Data[off : off+direntSize])
	f.bc.MarkDirty(b)
	f.bc.Release(b)
	return nil
}

// scanDir iterates a directory chain, calling fn for each live entry.
// fn returning false stops the scan. Caller holds the directory's
// pseudo-inode lock.
func (f *FS) scanDir(t *sched.Task, dirCluster uint32, fn func(de *dirent83, ref direntRef) bool) error {
	clusters, err := f.chain(t, dirCluster)
	if err != nil {
		return err
	}
	buf := make([]byte, ClusterSize)
	for _, c := range clusters {
		if err := f.readClusterCached(t, c, buf); err != nil {
			return err
		}
		for i := 0; i < ClusterSize/direntSize; i++ {
			var de dirent83
			de.decode(buf[i*direntSize:])
			if de.endMark() {
				return nil
			}
			if de.free() {
				continue
			}
			if !fn(&de, direntRef{cluster: c, index: i}) {
				return nil
			}
		}
	}
	return nil
}

// lookup finds name in the directory starting at dirCluster. Caller holds
// the directory's pseudo-inode lock.
func (f *FS) lookup(t *sched.Task, dirCluster uint32, name string) (*dirent83, direntRef, error) {
	want, ok := to83(name)
	if !ok {
		return nil, direntRef{}, fs.ErrNameTooLong
	}
	var found *dirent83
	var ref direntRef
	err := f.scanDir(t, dirCluster, func(de *dirent83, r direntRef) bool {
		if bytes.Equal(de.name[:], want[:]) {
			cp := *de
			found, ref = &cp, r
			return false
		}
		return true
	})
	if err != nil {
		return nil, direntRef{}, err
	}
	if found == nil {
		return nil, direntRef{}, fs.ErrNotFound
	}
	return found, ref, nil
}

// addDirent claims a free slot for de (extending the chain when full) and
// returns where it landed. Caller holds the directory's pseudo-inode lock,
// which is what makes the scan-then-patch slot claim exclusive.
func (f *FS) addDirent(t *sched.Task, dirCluster uint32, de *dirent83) (direntRef, error) {
	clusters, err := f.chain(t, dirCluster)
	if err != nil {
		return direntRef{}, err
	}
	buf := make([]byte, ClusterSize)
	for _, c := range clusters {
		if err := f.readClusterCached(t, c, buf); err != nil {
			return direntRef{}, err
		}
		for i := 0; i < ClusterSize/direntSize; i++ {
			var cur dirent83
			cur.decode(buf[i*direntSize:])
			if cur.free() {
				ref := direntRef{cluster: c, index: i}
				return ref, f.patchDirent(t, ref, de.encode)
			}
		}
	}
	// Directory full: grow the chain with a zeroed cluster. Ordered
	// writes: the zeros and both FAT updates (the tail link and the new
	// end-of-chain) go durable before the first entry is written into the
	// new cluster — a dirent in a cluster whose zeroing never landed would
	// read back surrounded by garbage "entries".
	nc, err := f.allocCluster(t, true)
	if err != nil {
		return direntRef{}, err
	}
	last := clusters[len(clusters)-1]
	if err := f.fatSet(t, last, nc); err != nil {
		f.unclaimCluster(t, nc)
		return direntRef{}, err
	}
	sectors := make([]int, 0, SectorsPerCluster+2)
	cs := f.clusterSector(nc)
	for s := 0; s < SectorsPerCluster; s++ {
		sectors = append(sectors, cs+s)
	}
	sectors = append(sectors, f.fatSector(last), f.fatSector(nc))
	if err := f.orderedFlush(t, sectors...); err != nil {
		_ = f.fatSet(t, last, endOfChain)
		f.unclaimCluster(t, nc)
		return direntRef{}, err
	}
	ref := direntRef{cluster: nc, index: 0}
	return ref, f.patchDirent(t, ref, de.encode)
}

// removeDirent marks an entry deleted (0xE5). Caller holds the directory's
// pseudo-inode lock.
func (f *FS) removeDirent(t *sched.Task, ref direntRef) error {
	return f.patchDirent(t, ref, func(entry []byte) {
		entry[0] = 0xE5
	})
}

// rootDe fakes a dirent for the root directory, which has none on disk.
func rootDe() *dirent83 {
	return &dirent83{attr: attrDir, cluster: rootCluster}
}

// pinRoot pins the root directory's pseudo-inode.
func (f *FS) pinRoot() *pseudoInode {
	return f.pin(rootCluster, true, 0, direntRef{}, 0, "/")
}

// walkDir resolves a cleaned absolute path to a pinned, UNLOCKED directory
// pseudo-inode. It first attempts the dentry-cache fast path — every
// segment answered from the cache, no directory locks at all — and falls
// back to the classic hand-over-hand locked walk on any miss or
// generation bump.
func (f *FS) walkDir(t *sched.Task, path string) (*pseudoInode, error) {
	path = fs.Clean(path)
	if path == "/" {
		return f.pinRoot(), nil
	}
	segs := strings.Split(path[1:], "/")
	if pi, err, done := f.walkDirFast(t, segs); done {
		return pi, err
	}
	return f.walkDirLocked(t, segs)
}

// walkDirFast is the lock-free walk. It snapshots the mount's mutation
// generation, resolves every segment from the dentry cache, and trusts
// the result only if the generation is unchanged at the end: no name
// mutated anywhere on the mount during the walk, so every hop's answer
// was simultaneously true. The final pin lands inside that window, so
// the pinned pseudo-inode is the directory the path named at that
// instant. done=false means a segment missed or the generation moved:
// take the locked walk.
func (f *FS) walkDirFast(t *sched.Task, segs []string) (_ *pseudoInode, _ error, done bool) {
	dc := f.dc
	if dc == nil || dc.Dead() {
		return nil, nil, false
	}
	gen := dc.Gen()
	cur := int64(rootCluster)
	parent := int64(rootCluster)
	var last dcache.Entry
	for _, seg := range segs {
		e, ok := dc.Lookup(cur, dcName(seg))
		if !ok {
			dc.FastPathFellBack()
			return nil, nil, false
		}
		if e.Neg || !e.IsDir {
			// A cached ENOENT (or a file where a directory is needed)
			// anywhere on the path decides the whole walk — if the
			// generation held.
			if dc.Gen() != gen {
				dc.FastPathFellBack()
				return nil, nil, false
			}
			dc.FastPathResolved()
			if e.Neg {
				return nil, fs.ErrNotFound, true
			}
			return nil, fs.ErrNotDir, true
		}
		parent = cur
		cur = e.Ino
		last = e
	}
	pi := f.pin(uint32(last.Ino), true, uint32(last.Size),
		direntRef{cluster: uint32(last.RefA), index: int(last.RefB)},
		uint32(parent), dcName(segs[len(segs)-1]))
	if dc.Gen() != gen {
		f.unpin(t, pi)
		dc.FastPathFellBack()
		return nil, nil, false
	}
	dc.FastPathResolved()
	return pi, nil, true
}

// walkDirLocked is the classic hand-over-hand walk: each directory is
// locked only while looking up the next segment and released before the
// child is locked, so a walk holds at most one lock and can never
// deadlock against create/unlink/rename, which lock parent before child.
// Under each lock it consults the cache first (an entry observed under
// the parent's lock is truthful — mutations invalidate under that same
// lock) and fills what the scan proved.
func (f *FS) walkDirLocked(t *sched.Task, segs []string) (*pseudoInode, error) {
	cur := f.pinRoot()
	for _, seg := range segs {
		cur.lock.Lock(t)
		if cur.gone() {
			cur.lock.Unlock()
			f.unpin(t, cur)
			return nil, fs.ErrNotFound
		}
		de, ref, err := f.lookupCached(t, cur, seg)
		if err != nil {
			cur.lock.Unlock()
			f.unpin(t, cur)
			return nil, err
		}
		if de.attr&attrDir == 0 {
			cur.lock.Unlock()
			f.unpin(t, cur)
			return nil, fs.ErrNotDir
		}
		next := f.pin(de.cluster, true, de.size, ref, cur.firstCluster, dcName(seg))
		cur.lock.Unlock()
		f.unpin(t, cur)
		cur = next
	}
	return cur, nil
}

// lookupCached answers "does name exist in dp, and as what" through the
// dentry cache, scanning the directory only on a miss and filling the
// proven answer (positive or negative). Caller holds dp.lock, which is
// what makes a cached answer truthful: every mutation of (dp, name)
// invalidates under that same lock. A positive hit reconstructs the
// dirent — cluster, type, size, and slot location are all cached, and
// the size is kept fresh in place by Pwrite and patchDirentSize, so it
// is the live size, which can run ahead of the dirent's (see
// publishSize).
func (f *FS) lookupCached(t *sched.Task, dp *pseudoInode, name string) (*dirent83, direntRef, error) {
	if e, ok := f.dc.Lookup(int64(dp.firstCluster), dcName(name)); ok {
		if e.Neg {
			return nil, direntRef{}, fs.ErrNotFound
		}
		n83, ok83 := to83(name)
		if !ok83 {
			return nil, direntRef{}, fs.ErrNameTooLong
		}
		de := &dirent83{name: n83, cluster: uint32(e.Ino), size: uint32(e.Size), attr: attrArchive}
		if e.IsDir {
			de.attr = attrDir
		}
		return de, direntRef{cluster: uint32(e.RefA), index: int(e.RefB)}, nil
	}
	de, ref, err := f.lookup(t, dp.firstCluster, name)
	if err == fs.ErrNotFound {
		f.dcFillNeg(dp, name)
		return nil, direntRef{}, err
	}
	if err != nil {
		return nil, direntRef{}, err
	}
	f.dcFillPos(dp, name, de, ref)
	return de, ref, nil
}

// walkParent resolves the directory containing path's final element,
// pinned and unlocked, plus the name.
func (f *FS) walkParent(t *sched.Task, path string) (*pseudoInode, string, error) {
	dir, name := fs.SplitPath(path)
	if name == "" {
		return nil, "", fs.ErrPerm
	}
	dp, err := f.walkDir(t, dir)
	if err != nil {
		return nil, "", err
	}
	return dp, name, nil
}
