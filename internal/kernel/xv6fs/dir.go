package xv6fs

import (
	"bytes"
	"strings"

	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/sched"
)

// dirent is the 16-byte on-disk directory entry: uint16 inum + 14-byte
// NUL-padded name.
func encodeDirent(inum int, name string, b []byte) {
	b[0] = byte(inum)
	b[1] = byte(inum >> 8)
	n := copy(b[2:DirentSize], name)
	for i := 2 + n; i < DirentSize; i++ {
		b[i] = 0
	}
}

func decodeDirent(b []byte) (inum int, name string) {
	return direntInum(b), string(direntName(b))
}

// direntInum is the entry's inum (0 = empty slot).
func direntInum(b []byte) int { return int(b[0]) | int(b[1])<<8 }

// direntName is the entry's name, aliasing b: comparing string(name)
// against a string does not allocate.
func direntName(b []byte) []byte {
	raw := b[2:DirentSize]
	if i := bytes.IndexByte(raw, 0); i >= 0 {
		raw = raw[:i]
	}
	return raw
}

// dirLookup scans directory dp for name. Returns the entry's inum and byte
// offset, or inum 0. Caller holds dp.lock.
func (f *FS) dirLookup(t *sched.Task, dp *inode, name string) (inum int, off int64, err error) {
	buf := make([]byte, DirentSize)
	for o := int64(0); o < int64(dp.di.Size); o += DirentSize {
		if _, err := f.readData(t, dp, o, buf); err != nil {
			return 0, 0, err
		}
		if in := direntInum(buf); in != 0 && string(direntName(buf)) == name {
			return in, o, nil
		}
	}
	return 0, 0, nil
}

// dirLink adds (name, inum) to directory dp, reusing holes. Caller holds
// dp.lock.
func (f *FS) dirLink(t *sched.Task, dp *inode, name string, inum int) error {
	if len(name) > MaxName {
		return fs.ErrNameTooLong
	}
	buf := make([]byte, DirentSize)
	off := int64(dp.di.Size)
	for o := int64(0); o < int64(dp.di.Size); o += DirentSize {
		if _, err := f.readData(t, dp, o, buf); err != nil {
			return err
		}
		if direntInum(buf) == 0 {
			off = o
			break
		}
	}
	encodeDirent(inum, name, buf)
	_, err := f.writeData(t, dp, off, buf)
	return err
}

// dirUnlink zeroes the entry for name. Caller holds dp.lock.
func (f *FS) dirUnlink(t *sched.Task, dp *inode, name string) error {
	inum, off, err := f.dirLookup(t, dp, name)
	if err != nil {
		return err
	}
	if inum == 0 {
		return fs.ErrNotFound
	}
	zero := make([]byte, DirentSize)
	_, err = f.writeData(t, dp, off, zero)
	return err
}

// dirSetInum repoints an existing entry (rename uses it to rewrite a moved
// directory's ".."). Caller holds dp.lock.
func (f *FS) dirSetInum(t *sched.Task, dp *inode, name string, inum int) error {
	old, off, err := f.dirLookup(t, dp, name)
	if err != nil {
		return err
	}
	if old == 0 {
		return fs.ErrNotFound
	}
	buf := make([]byte, DirentSize)
	encodeDirent(inum, name, buf)
	_, err = f.writeData(t, dp, off, buf)
	return err
}

// isDirEmpty reports whether dp holds no live entries besides "." and
// "..". Caller holds dp.lock.
func (f *FS) isDirEmpty(t *sched.Task, dp *inode) (bool, error) {
	buf := make([]byte, DirentSize)
	for o := int64(0); o < int64(dp.di.Size); o += DirentSize {
		if _, err := f.readData(t, dp, o, buf); err != nil {
			return false, err
		}
		name := direntName(buf)
		if direntInum(buf) != 0 && string(name) != "." && string(name) != ".." {
			return false, nil
		}
	}
	return true, nil
}

// dirEntries lists dp's live entries. Child metadata is read straight from
// the inode array (buffer-atomic) rather than through child locks, so a
// listing never stacks inode locks. Caller holds dp.lock.
func (f *FS) dirEntries(t *sched.Task, dp *inode) ([]fs.DirEntry, error) {
	var out []fs.DirEntry
	buf := make([]byte, DirentSize)
	for o := int64(0); o < int64(dp.di.Size); o += DirentSize {
		if _, err := f.readData(t, dp, o, buf); err != nil {
			return nil, err
		}
		inum, name := decodeDirent(buf)
		if inum == 0 || name == "." || name == ".." {
			continue
		}
		var cdi dinode
		if err := f.readInode(t, inum, &cdi); err != nil {
			return nil, err
		}
		typ := fs.TypeFile
		if cdi.Type == typeDir {
			typ = fs.TypeDir
		}
		out = append(out, fs.DirEntry{Name: name, Type: typ, Size: int64(cdi.Size)})
	}
	return out, nil
}

// namex resolves path to a referenced, UNLOCKED inode. It first attempts
// the dentry-cache fast path — every component answered from the cache,
// no directory inode locks at all — and falls back to the classic
// hand-over-hand locked walk on any miss or generation bump. The locked
// walk holds at most one inode lock (each directory only while looking
// up the next segment) and fills the cache as it goes. Both walks take
// the cleaned path and step through its components in place.
func (f *FS) namex(t *sched.Task, path string) (*inode, error) {
	path = fs.Clean(path)
	if path == "/" {
		return f.iget(rootInum), nil
	}
	if ip, err, done := f.namexFast(t, path); done {
		return ip, err
	}
	return f.namexLocked(t, path)
}

// namexFast is the lock-free walk. It snapshots the mount's mutation
// generation, resolves every component from the dentry cache, and trusts
// the result only if the generation is unchanged at the end: no name
// mutated anywhere on the mount during the walk, so every hop's answer
// was simultaneously true and the composite resolution was path's
// meaning at that instant. The final iget lands inside that window, so
// the returned reference pins the inode against inum reuse. done=false
// means a component missed or the generation moved: take the locked walk.
func (f *FS) namexFast(t *sched.Task, path string) (_ *inode, _ error, done bool) {
	dc := f.dc
	if dc == nil || dc.Dead() {
		return nil, nil, false
	}
	gen := dc.Gen()
	cur := int64(rootInum)
	for rest := path[1:]; rest != ""; {
		var seg string
		seg, rest, _ = strings.Cut(rest, "/")
		e, ok := dc.Lookup(cur, seg)
		if !ok {
			dc.FastPathFellBack()
			return nil, nil, false
		}
		if e.Neg {
			// A cached ENOENT anywhere on the path proves the whole path
			// absent — if the generation held.
			if dc.Gen() != gen {
				dc.FastPathFellBack()
				return nil, nil, false
			}
			dc.FastPathResolved()
			return nil, fs.ErrNotFound, true
		}
		cur = e.Ino
	}
	ip := f.iget(int(cur))
	if dc.Gen() != gen {
		f.iput(t, ip)
		dc.FastPathFellBack()
		return nil, nil, false
	}
	dc.FastPathResolved()
	return ip, nil, true
}

// namexLocked is the classic hand-over-hand walk. Under each directory's
// lock it consults the cache first (an entry observed under the parent's
// lock is truthful — mutations invalidate under that same lock), scans
// the directory only on a miss, and fills what the scan proved.
func (f *FS) namexLocked(t *sched.Task, path string) (*inode, error) {
	ip := f.iget(rootInum)
	for rest := path[1:]; rest != ""; {
		var seg string
		seg, rest, _ = strings.Cut(rest, "/")
		if err := f.ilock(t, ip); err != nil {
			f.iput(t, ip)
			return nil, err
		}
		if ip.di.Type != typeDir {
			f.iunlockput(t, ip)
			return nil, fs.ErrNotDir
		}
		next, err := f.dirLookupCached(t, ip, seg)
		if err != nil {
			f.iunlockput(t, ip)
			return nil, err
		}
		if next == 0 {
			f.iunlockput(t, ip)
			return nil, fs.ErrNotFound
		}
		nip := f.iget(next)
		f.iunlockput(t, ip)
		ip = nip
	}
	return ip, nil
}

// dirLookupCached answers "does name exist in dp, and as what inum"
// through the dentry cache, scanning the directory only on a miss and
// filling the proven answer (positive or negative). Caller holds
// dp.lock. Callers that need the entry's byte offset (unlink, rename)
// must use dirLookup directly.
func (f *FS) dirLookupCached(t *sched.Task, dp *inode, name string) (int, error) {
	if name != "." && name != ".." {
		if e, ok := f.dc.Lookup(int64(dp.inum), name); ok {
			if e.Neg {
				return 0, nil
			}
			return int(e.Ino), nil
		}
	}
	inum, _, err := f.dirLookup(t, dp, name)
	if err != nil {
		return 0, err
	}
	if inum == 0 {
		f.dcFillNeg(dp, name)
	} else {
		f.dcFillPos(dp, name, inum)
	}
	return inum, nil
}

// namexParent resolves the directory containing path's final element,
// returning it referenced and unlocked plus the final name.
func (f *FS) namexParent(t *sched.Task, path string) (*inode, string, error) {
	dir, name := fs.SplitPath(path)
	if name == "" {
		return nil, "", fs.ErrPerm
	}
	dp, err := f.namex(t, dir)
	if err != nil {
		return nil, "", err
	}
	return dp, name, nil
}
