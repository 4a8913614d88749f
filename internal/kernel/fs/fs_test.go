package fs

import (
	"bytes"
	"errors"
	"math/rand"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"protosim/internal/kernel/sched"
)

func newSched(t *testing.T) *sched.Scheduler {
	t.Helper()
	s := sched.New(sched.Config{Cores: 2})
	s.Start()
	t.Cleanup(func() {
		if err := s.Shutdown(5 * time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func TestCleanPaths(t *testing.T) {
	cases := map[string]string{
		"":            "/",
		"/":           "/",
		"//a//b/":     "/a/b",
		"/a/./b":      "/a/b",
		"/a/../b":     "/b",
		"/../../x":    "/x",
		"a/b":         "/a/b",
		"/dev/fb":     "/dev/fb",
		"/a/b/../../": "/",
	}
	for in, want := range cases {
		if got := Clean(in); got != want {
			t.Errorf("Clean(%q) = %q, want %q", in, got, want)
		}
	}
}

// cleanSplitJoin is the split-and-join Clean this package used to ship:
// the reference the allocation-free version must agree with.
func cleanSplitJoin(path string) string {
	if path == "" {
		return "/"
	}
	segs := strings.Split(path, "/")
	out := make([]string, 0, len(segs))
	for _, s := range segs {
		switch s {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, s)
		}
	}
	return "/" + strings.Join(out, "/")
}

// TestCleanMatchesSplitJoin compares Clean against the reference on
// random paths built from the pieces that matter: separators, dots,
// dot-dots, and names that merely start with a dot.
func TestCleanMatchesSplitJoin(t *testing.T) {
	pieces := []string{"/", "//", ".", "..", "...", ".a", "a", "bc", "a.", "..b"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(8); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		in := b.String()
		if got, want := Clean(in), cleanSplitJoin(in); got != want {
			t.Fatalf("Clean(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCleanCleanPathAllocs pins the fast path: a path that is already
// clean costs no allocation.
func TestCleanCleanPathAllocs(t *testing.T) {
	for _, p := range []string{"/", "/d/churn/f17.tmp", "/a/.hidden/..x"} {
		if n := testing.AllocsPerRun(100, func() { _ = Clean(p) }); n != 0 {
			t.Errorf("Clean(%q) allocated %.0f times, want 0", p, n)
		}
	}
}

// rootedClean is Clean's definition: path.Clean of the path made rooted.
func rootedClean(p string) string {
	if p == "" || p[0] != '/' {
		p = "/" + p
	}
	return path.Clean(p)
}

// TestCleanFastPath covers isClean's one-pass check on both sides of its
// line: clean paths come back as the same string, every near-miss falls
// through to path.Clean.
func TestCleanFastPath(t *testing.T) {
	for _, tc := range []struct {
		in    string
		clean bool
	}{
		{"/", true},
		{"/a", true},
		{"/a/b.c/d", true},
		{"/.a/..b/...", true},
		{"", false},
		{"a", false},
		{"//", false},
		{"/a/", false},
		{"/a//b", false},
		{"/.", false},
		{"/..", false},
		{"/a/.", false},
		{"/a/../b", false},
		{"/./a", false},
	} {
		if got := isClean(tc.in); got != tc.clean {
			t.Errorf("isClean(%q) = %v, want %v", tc.in, got, tc.clean)
		}
		if got, want := Clean(tc.in), rootedClean(tc.in); got != want {
			t.Errorf("Clean(%q) = %q, want %q", tc.in, got, want)
		}
	}
}

// FuzzClean checks Clean against its definition on arbitrary input.
func FuzzClean(f *testing.F) {
	for _, s := range []string{"", "/", "/a/b", "a/./b/", "/..", "//x/../y/."} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p string) {
		if got, want := Clean(p), rootedClean(p); got != want {
			t.Fatalf("Clean(%q) = %q, want %q", p, got, want)
		}
	})
}

func TestSplitPath(t *testing.T) {
	dir, name := SplitPath("/a/b/c.txt")
	if dir != "/a/b" || name != "c.txt" {
		t.Fatalf("split = %q, %q", dir, name)
	}
	dir, name = SplitPath("/top")
	if dir != "/" || name != "top" {
		t.Fatalf("split = %q, %q", dir, name)
	}
}

// fakeFS records which relative paths it was asked for.
type fakeFS struct {
	mu    sync.Mutex
	calls []string
}

func (f *fakeFS) Open(t *sched.Task, path string, flags int) (FileOps, error) {
	f.mu.Lock()
	f.calls = append(f.calls, path)
	f.mu.Unlock()
	return &memFile{name: path, data: []byte("data:" + path)}, nil
}
func (f *fakeFS) Mkdir(*sched.Task, string) error  { return nil }
func (f *fakeFS) Unlink(*sched.Task, string) error { return nil }
func (f *fakeFS) Stat(_ *sched.Task, path string) (Stat, error) {
	return Stat{Name: path}, nil
}

func TestVFSMountDispatch(t *testing.T) {
	v := NewVFS()
	root, d, dev := &fakeFS{}, &fakeFS{}, &fakeFS{}
	if err := v.Mount("/", root); err != nil {
		t.Fatal(err)
	}
	if err := v.Mount("/d", d); err != nil {
		t.Fatal(err)
	}
	if err := v.Mount("/dev", dev); err != nil {
		t.Fatal(err)
	}
	// Longest-prefix dispatch.
	v.Open(nil, "/d/videos/clip.mpv", ORdOnly)
	if len(d.calls) != 1 || d.calls[0] != "/videos/clip.mpv" {
		t.Fatalf("d calls = %v", d.calls)
	}
	// "/data" belongs to root, not "/d".
	v.Open(nil, "/data", ORdOnly)
	if len(root.calls) != 1 || root.calls[0] != "/data" {
		t.Fatalf("root calls = %v", root.calls)
	}
	// "/dev" exact hits devfs root.
	v.Open(nil, "/dev", ORdOnly)
	if len(dev.calls) != 1 || dev.calls[0] != "/" {
		t.Fatalf("dev calls = %v", dev.calls)
	}
	// Double mount rejected.
	if err := v.Mount("/d", d); err == nil {
		t.Fatal("double mount accepted")
	}
}

func TestVFSNoRootFails(t *testing.T) {
	v := NewVFS()
	if _, err := v.Open(nil, "/x", ORdOnly); err == nil {
		t.Fatal("open with no mounts succeeded")
	}
}

func TestPipeTransfersInOrder(t *testing.T) {
	s := newSched(t)
	r, w := NewPipe()
	var got []byte
	var mu sync.Mutex
	done := make(chan struct{})
	s.Go("reader", 0, func(t *sched.Task) {
		defer close(done)
		buf := make([]byte, 64)
		for {
			n, err := r.Read(t, buf)
			if err != nil || n == 0 {
				return
			}
			mu.Lock()
			got = append(got, buf[:n]...)
			mu.Unlock()
		}
	})
	s.Go("writer", 0, func(t *sched.Task) {
		for i := 0; i < 10; i++ {
			w.Write(t, []byte{byte(i), byte(i + 100)})
		}
		w.Close(nil)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pipe never closed")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 20 {
		t.Fatalf("got %d bytes", len(got))
	}
	for i := 0; i < 10; i++ {
		if got[2*i] != byte(i) || got[2*i+1] != byte(i+100) {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
}

func TestPipeBackpressure(t *testing.T) {
	s := newSched(t)
	r, w := NewPipe()
	var wrote atomic.Int64
	writerDone := make(chan struct{})
	s.Go("writer", 0, func(t *sched.Task) {
		defer close(writerDone)
		big := make([]byte, PipeSize*3)
		w.Write(t, big)
		wrote.Store(int64(len(big)))
		w.Close(nil)
	})
	// The write must block: only PipeSize bytes fit.
	time.Sleep(10 * time.Millisecond)
	if wrote.Load() != 0 {
		t.Fatal("oversized write completed without a reader")
	}
	done := make(chan int)
	s.Go("reader", 0, func(t *sched.Task) {
		total := 0
		buf := make([]byte, 256)
		for {
			n, _ := r.Read(t, buf)
			if n == 0 {
				break
			}
			total += n
		}
		done <- total
	})
	select {
	case total := <-done:
		if total != PipeSize*3 {
			t.Fatalf("read %d, want %d", total, PipeSize*3)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader stuck")
	}
	<-writerDone
}

func TestPipeWriteAfterReaderClosed(t *testing.T) {
	s := newSched(t)
	r, w := NewPipe()
	r.Close(nil)
	errCh := make(chan error, 1)
	s.Go("writer", 0, func(t *sched.Task) {
		_, err := w.Write(t, []byte("x"))
		errCh <- err
	})
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrPipeClosed) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write blocked forever")
	}
}

func TestPipeEOFAfterWriterClosed(t *testing.T) {
	s := newSched(t)
	r, w := NewPipe()
	s.Go("writer", 0, func(t *sched.Task) {
		w.Write(t, []byte("bye"))
		w.Close(nil)
	})
	got := make(chan []byte, 1)
	s.Go("reader", 0, func(t *sched.Task) {
		var all []byte
		buf := make([]byte, 16)
		for {
			n, _ := r.Read(t, buf)
			if n == 0 {
				break
			}
			all = append(all, buf[:n]...)
		}
		got <- all
	})
	select {
	case all := <-got:
		if string(all) != "bye" {
			t.Fatalf("got %q", all)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no EOF delivered")
	}
}

// Property: pipe preserves arbitrary byte sequences (FIFO, lossless).
func TestPipeFIFOProperty(t *testing.T) {
	s := newSched(t)
	check := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		r, w := NewPipe()
		out := make(chan []byte, 1)
		s.Go("r", 0, func(t *sched.Task) {
			var all []byte
			buf := make([]byte, 128)
			for {
				n, _ := r.Read(t, buf)
				if n == 0 {
					break
				}
				all = append(all, buf[:n]...)
			}
			out <- all
		})
		s.Go("w", 0, func(t *sched.Task) {
			w.Write(t, data)
			w.Close(nil)
		})
		select {
		case all := <-out:
			return bytes.Equal(all, data)
		case <-time.After(5 * time.Second):
			return false
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDevFSRegistryAndNull(t *testing.T) {
	d := NewDevFS()
	f, err := d.Open(nil, "/null", ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := f.Write(nil, []byte("discard")); n != 7 {
		t.Fatal("null write")
	}
	if n, _ := f.Read(nil, make([]byte, 4)); n != 0 {
		t.Fatal("null read returned data")
	}
	if _, err := d.Open(nil, "/fb", ORdWr); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	d.Register("fb", func(*sched.Task, int) (FileOps, error) {
		return &memFile{name: "fb"}, nil
	})
	if _, err := d.Open(nil, "/fb", ORdWr); err != nil {
		t.Fatal(err)
	}
	dir, _ := d.Open(nil, "/", ORdOnly)
	if dir.Caps()&CapDir == 0 {
		t.Fatal("/dev root must report CapDir")
	}
	entries, _ := dir.ReadDir(nil)
	if len(entries) != 2 {
		t.Fatalf("entries = %v", entries)
	}
	if err := d.Mkdir(nil, "/x"); !errors.Is(err, ErrPerm) {
		t.Fatal("mkdir in /dev allowed")
	}
}

func TestProcFSGeneratesAtOpen(t *testing.T) {
	p := NewProcFS()
	var n atomic.Int32
	p.Register("uptime", func() string {
		return string(rune('0' + n.Add(1)))
	})
	read := func() string {
		ops, err := p.Open(nil, "/uptime", ORdOnly)
		if err != nil {
			t.Fatal(err)
		}
		f := NewOpenFile(ops, ORdOnly)
		defer f.Close(nil)
		b := make([]byte, 8)
		k, _ := f.Read(nil, b)
		return string(b[:k])
	}
	if read() != "1" || read() != "2" {
		t.Fatal("procfs content not regenerated per open")
	}
	// Writes rejected.
	if _, err := p.Open(nil, "/uptime", OWrOnly); !errors.Is(err, ErrPerm) {
		t.Fatal("procfs write open allowed")
	}
}

func TestFDTableLifecycle(t *testing.T) {
	ft := NewFDTable(8)
	of := NewOpenFile(&memFile{name: "x", data: []byte("hello")}, ORdOnly)
	fd, err := ft.Install(of)
	if err != nil || fd != 0 {
		t.Fatalf("fd = %d, %v", fd, err)
	}
	got, err := ft.Get(fd)
	if err != nil || got != of {
		t.Fatal("get mismatch")
	}
	fd2, _ := ft.Dup(fd)
	if fd2 != 1 {
		t.Fatalf("dup fd = %d", fd2)
	}
	// Dup shares the offset.
	b := make([]byte, 2)
	f1, _ := ft.Get(fd)
	f1.Read(nil, b)
	f2, _ := ft.Get(fd2)
	f2.Read(nil, b)
	if string(b) != "ll" {
		t.Fatalf("shared offset broken: %q", b)
	}
	ft.Close(nil, fd)
	if _, err := ft.Get(fd); !errors.Is(err, ErrBadFD) {
		t.Fatal("closed fd still valid")
	}
	if _, err := ft.Get(fd2); err != nil {
		t.Fatal("dup'd fd must survive sibling close")
	}
	ft.Close(nil, fd2)
	if ft.OpenCount() != 0 {
		t.Fatalf("open count = %d", ft.OpenCount())
	}
}

func TestFDTableCloneSharesDescriptions(t *testing.T) {
	ft := NewFDTable(8)
	fd, _ := ft.Install(NewOpenFile(&memFile{name: "x", data: []byte("abcd")}, ORdOnly))
	child := ft.Clone()
	b := make([]byte, 2)
	pf, _ := ft.Get(fd)
	pf.Read(nil, b) // parent reads "ab"
	cf, _ := child.Get(fd)
	cf.Read(nil, b) // child continues at "cd" — shared offset, as in xv6
	if string(b) != "cd" {
		t.Fatalf("fork offset sharing broken: %q", b)
	}
	ft.CloseAll(nil)
	child.CloseAll(nil)
}

func TestFDTableExhaustion(t *testing.T) {
	ft := NewFDTable(2)
	ft.Install(NewOpenFile(&memFile{}, 0))
	ft.Install(NewOpenFile(&memFile{}, 0))
	if _, err := ft.Install(NewOpenFile(&memFile{}, 0)); err == nil {
		t.Fatal("expected fd exhaustion")
	}
}

// TestFDTableGrowsTo512 is the socket-scaling contract: a table limited
// at MaxFDs-scale grows from its small start through 512+ live fds,
// numbering them densely from 0, and reports exhaustion exactly at the
// limit.
func TestFDTableGrowsTo512(t *testing.T) {
	const limit = 600
	ft := NewFDTable(limit)
	for i := 0; i < limit; i++ {
		fd, err := ft.Install(NewOpenFile(&memFile{}, 0))
		if err != nil {
			t.Fatalf("Install #%d: %v", i, err)
		}
		if fd != i {
			t.Fatalf("Install #%d got fd %d: not lowest-free", i, fd)
		}
	}
	if _, err := ft.Install(NewOpenFile(&memFile{}, 0)); err == nil {
		t.Fatal("expected exhaustion at the limit")
	}
	if ft.OpenCount() != limit || ft.Limit() != limit {
		t.Fatalf("count=%d limit=%d", ft.OpenCount(), ft.Limit())
	}
	ft.CloseAll(nil)
	if ft.OpenCount() != 0 {
		t.Fatalf("count after CloseAll = %d", ft.OpenCount())
	}
}

// TestFDTableLowestFreeAfterChurn closes a scattered set of fds and
// verifies reallocation fills exactly those holes, lowest first — the
// POSIX rule shells and dup2-style redirections rely on.
func TestFDTableLowestFreeAfterChurn(t *testing.T) {
	ft := NewFDTable(128)
	for i := 0; i < 100; i++ {
		ft.Install(NewOpenFile(&memFile{}, 0))
	}
	holes := []int{3, 97, 40, 0, 64}
	for _, fd := range holes {
		if err := ft.Close(nil, fd); err != nil {
			t.Fatalf("Close(%d): %v", fd, err)
		}
	}
	want := []int{0, 3, 40, 64, 97} // ascending: always the lowest hole
	for _, w := range want {
		fd, err := ft.Install(NewOpenFile(&memFile{}, 0))
		if err != nil || fd != w {
			t.Fatalf("refill got fd %d (%v), want %d", fd, err, w)
		}
	}
	// All holes plugged: next install extends past the old high mark.
	if fd, _ := ft.Install(NewOpenFile(&memFile{}, 0)); fd != 100 {
		t.Fatalf("post-refill fd = %d, want 100", fd)
	}
	ft.CloseAll(nil)
}

// TestFDTableCloneOfGrownTable forks a table that has grown well past
// its initial allocation; the child must see every fd at its original
// number.
func TestFDTableCloneOfGrownTable(t *testing.T) {
	ft := NewFDTable(1024)
	var fds []int
	for i := 0; i < 300; i++ {
		fd, _ := ft.Install(NewOpenFile(&memFile{name: "x", data: []byte{byte(i)}}, ORdOnly))
		fds = append(fds, fd)
	}
	ft.Close(nil, 7) // leave a hole so the clone inherits it
	child := ft.Clone()
	if child.OpenCount() != 299 {
		t.Fatalf("child count = %d", child.OpenCount())
	}
	for _, fd := range fds {
		if fd == 7 {
			continue
		}
		if _, err := child.Get(fd); err != nil {
			t.Fatalf("child lost fd %d: %v", fd, err)
		}
	}
	// The clone inherits lowest-free behaviour too.
	if fd, _ := child.Install(NewOpenFile(&memFile{}, 0)); fd != 7 {
		t.Fatalf("child filled fd %d, want the inherited hole 7", fd)
	}
	ft.CloseAll(nil)
	child.CloseAll(nil)
}

func TestRamdiskRoundTripAndBounds(t *testing.T) {
	rd := NewRamdisk(512, 16)
	src := bytes.Repeat([]byte{0x5A}, 1024)
	if err := rd.WriteBlocks(3, 2, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 1024)
	if err := rd.ReadBlocks(3, 2, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("round trip failed")
	}
	if err := rd.ReadBlocks(15, 2, dst); err == nil {
		t.Fatal("out of range read accepted")
	}
	r, w := rd.Stats()
	if r != 2 || w != 2 {
		t.Fatalf("stats = %d, %d", r, w)
	}
}

// TestOpenFileEdgeSemantics pins the POSIX corners the review chased: a
// zero-length append write moves nothing, and empty vectored IO still
// answers for a dead or wrong-mode descriptor.
func TestOpenFileEdgeSemantics(t *testing.T) {
	of := NewOpenFile(&memFile{name: "m", data: []byte("abcdef")}, ORdOnly)
	// Empty readv on a live readable fd: 0, nil.
	if n, err := of.Readv(nil, nil); n != 0 || err != nil {
		t.Fatalf("empty readv = %d, %v", n, err)
	}
	// Empty writev on a read-only fd: ErrPerm, not silent success.
	if _, err := of.Writev(nil, [][]byte{}); !errors.Is(err, ErrPerm) {
		t.Fatalf("empty writev on O_RDONLY = %v, want ErrPerm", err)
	}
	of.Close(nil)
	// Empty vectored ops on a closed descriptor: ErrBadFD.
	if _, err := of.Readv(nil, nil); !errors.Is(err, ErrBadFD) {
		t.Fatalf("empty readv on closed = %v, want ErrBadFD", err)
	}
	if _, err := of.Writev(nil, nil); !errors.Is(err, ErrBadFD) {
		t.Fatalf("empty writev on closed = %v, want ErrBadFD", err)
	}
}

// appendMem is a tiny positional ops with working OffAppend, for the
// zero-length-append offset rule.
type appendMem struct {
	BaseOps
	data []byte
}

func (m *appendMem) Pread(_ *sched.Task, p []byte, off int64) (int, error) {
	if off >= int64(len(m.data)) {
		return 0, nil
	}
	return copy(p, m.data[off:]), nil
}

func (m *appendMem) Pwrite(_ *sched.Task, p []byte, off int64) (int, int64, error) {
	if off == OffAppend {
		off = int64(len(m.data))
	}
	for int64(len(m.data)) < off+int64(len(p)) {
		m.data = append(m.data, 0)
	}
	n := copy(m.data[off:], p)
	return n, off + int64(n), nil
}

func (m *appendMem) Stat(*sched.Task) (Stat, error) {
	return Stat{Name: "am", Size: int64(len(m.data))}, nil
}

func (m *appendMem) Caps() Caps { return CapSeek }

func TestZeroLengthAppendWriteKeepsOffset(t *testing.T) {
	of := NewOpenFile(&appendMem{data: make([]byte, 100)}, OWrOnly|OAppend)
	defer of.Close(nil)
	if _, err := of.Seek(nil, 5, SeekSet); err != nil {
		t.Fatal(err)
	}
	if n, err := of.Write(nil, nil); n != 0 || err != nil {
		t.Fatalf("zero write = %d, %v", n, err)
	}
	if off := of.Offset(); off != 5 {
		t.Fatalf("offset after zero-length append write = %d, want 5 (POSIX: no other results)", off)
	}
	// A real append does move it to EOF.
	if _, err := of.Write(nil, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	if off := of.Offset(); off != 102 {
		t.Fatalf("offset after real append = %d, want 102", off)
	}
}
