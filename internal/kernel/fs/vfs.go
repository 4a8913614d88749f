package fs

import (
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"protosim/internal/kernel/sched"
)

// VFS dispatches file syscalls to mounted filesystems by longest-prefix
// path match — Prototype 5's interposition layer that routes "/d/..." to
// FatFS and everything else to xv6fs (§4.5).
type VFS struct {
	mu     sync.RWMutex
	mounts []mount // longest mount point first ("/" must exist)
}

// mount is one entry of the mount table.
type mount struct {
	point string
	fsys  FileSystem
}

// NewVFS returns an empty mount table.
func NewVFS() *VFS { return &VFS{} }

// Mount attaches fsys at point ("/", "/d", "/dev", "/proc").
func (v *VFS) Mount(point string, fsys FileSystem) error {
	point = Clean(point)
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, m := range v.mounts {
		if m.point == point {
			return fmt.Errorf("vfs: %s already mounted", point)
		}
	}
	v.mounts = append(v.mounts, mount{point, fsys})
	sort.SliceStable(v.mounts, func(i, j int) bool { return len(v.mounts[i].point) > len(v.mounts[j].point) })
	return nil
}

// resolve finds the filesystem owning path and the path relative to it:
// the first mount point, longest first, that prefixes path at a
// component boundary.
func (v *VFS) resolve(path string) (FileSystem, string, error) {
	path = Clean(path)
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, m := range v.mounts {
		if m.point == "/" {
			return m.fsys, path, nil
		}
		// "/d" must not match "/data": the next byte must be '/' or end.
		if !strings.HasPrefix(path, m.point) || len(path) > len(m.point) && path[len(m.point)] != '/' {
			continue
		}
		if rel := path[len(m.point):]; rel != "" {
			return m.fsys, rel, nil
		}
		return m.fsys, "/", nil
	}
	return nil, "", fmt.Errorf("vfs: no filesystem for %q", path)
}

// Open opens path with flags, returning a fresh open file description
// wrapping the filesystem's FileOps — the one place OFDs are minted on
// the syscall path, so offset ownership, append routing and the per-open
// error cursor are uniform across every mounted filesystem.
func (v *VFS) Open(t *sched.Task, path string, flags int) (*OpenFile, error) {
	fsys, rel, err := v.resolve(path)
	if err != nil {
		return nil, err
	}
	ops, err := fsys.Open(t, rel, flags)
	if err != nil {
		return nil, err
	}
	return NewOpenFile(ops, flags), nil
}

// Mkdir creates a directory.
func (v *VFS) Mkdir(t *sched.Task, path string) error {
	fsys, rel, err := v.resolve(path)
	if err != nil {
		return err
	}
	return fsys.Mkdir(t, rel)
}

// Unlink removes a file.
func (v *VFS) Unlink(t *sched.Task, path string) error {
	fsys, rel, err := v.resolve(path)
	if err != nil {
		return err
	}
	return fsys.Unlink(t, rel)
}

// Rename atomically moves oldPath to newPath. Both must resolve to the
// same mounted filesystem (no cross-device moves), and that filesystem
// must implement Renamer.
func (v *VFS) Rename(t *sched.Task, oldPath, newPath string) error {
	ofs, orel, err := v.resolve(oldPath)
	if err != nil {
		return err
	}
	nfs, nrel, err := v.resolve(newPath)
	if err != nil {
		return err
	}
	if ofs != nfs {
		return ErrCrossDevice
	}
	r, ok := ofs.(Renamer)
	if !ok {
		return ErrPerm
	}
	return r.Rename(t, orel, nrel)
}

// SyncAll flushes every mounted filesystem that implements Syncer — the
// one unified flush path (shutdown, sync syscalls). All errors are
// reported; flushing continues past a failing filesystem so one bad device
// doesn't strand the others' dirty blocks. Each filesystem's Sync takes
// its own allocator and per-inode locks (there is no volume lock anymore),
// so a flush runs concurrently with IO on other mounts and drains, rather
// than blocks behind, IO on its own.
func (v *VFS) SyncAll(t *sched.Task) error {
	v.mu.RLock()
	fss := make([]FileSystem, len(v.mounts))
	for i, m := range v.mounts {
		fss[i] = m.fsys
	}
	v.mu.RUnlock()
	var firstErr error
	for _, fsys := range fss {
		if s, ok := fsys.(Syncer); ok {
			if err := s.Sync(t); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Stat stats a path.
func (v *VFS) Stat(t *sched.Task, path string) (Stat, error) {
	fsys, rel, err := v.resolve(path)
	if err != nil {
		return Stat{}, err
	}
	return fsys.Stat(t, rel)
}

// Clean normalizes a path: leading '/', no trailing '/' (except root), no
// empty or dot segments. ".." collapses textually (Proto has no symlinks).
// It runs several times per syscall, so an already-clean path comes back
// as is, without allocating.
func Clean(p string) string {
	if isClean(p) {
		return p
	}
	if p == "" || p[0] != '/' {
		p = "/" + p
	}
	return path.Clean(p)
}

// isClean reports in one pass whether p is already in Clean's form:
// rooted, no trailing '/' unless p is the root, and no empty, "." or
// ".." segment.
func isClean(p string) bool {
	if p == "" || p[0] != '/' {
		return false
	}
	if p == "/" {
		return true
	}
	for rest := p[1:]; ; {
		seg, tail, more := strings.Cut(rest, "/")
		if seg == "" || seg == "." || seg == ".." {
			return false
		}
		if !more {
			return true
		}
		rest = tail
	}
}

// IsPathAncestor reports whether cleaned path a strictly contains cleaned
// path b ("/a" contains "/a/b/c"; the root contains everything else).
// Renames use it for their two-directory lock ordering — ancestor first —
// so the deadlock-avoidance decision lives in one place for every
// filesystem (naive prefix checks get the root wrong: "/"+"/" is not a
// prefix of "/a/").
func IsPathAncestor(a, b string) bool {
	if a == b {
		return false
	}
	if a == "/" {
		return true
	}
	return strings.HasPrefix(b, a+"/")
}

// SplitPath returns the directory and final element of a cleaned path.
func SplitPath(path string) (dir, name string) {
	path = Clean(path)
	i := strings.LastIndexByte(path, '/')
	dir = path[:i]
	if dir == "" {
		dir = "/"
	}
	return dir, path[i+1:]
}
