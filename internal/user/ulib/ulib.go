// Package ulib is Proto's user-space support library — the newlib
// substitute of Table 1's "User lib" rows: a malloc built on sbrk(), string
// and formatting helpers, wrappers over the file syscalls, and the
// proc/devfs convenience readers that sysmon and the shell use.
//
// Everything here talks to the kernel exclusively through the 28 syscalls
// on *kernel.Proc; nothing reaches into kernel internals.
package ulib

import (
	"fmt"
	"strings"

	"protosim/internal/kernel"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/mm"
	"protosim/internal/kernel/uring"
)

// Alloc is the user allocator: a first-fit free list over memory obtained
// from sbrk(), like xv6's umalloc. One per process (apps create it in
// main).
type Alloc struct {
	p    *kernel.Proc
	free []span // sorted, coalesced spans of user VA
	used map[uint64]int
}

type span struct {
	va uint64
	n  int
}

// NewAlloc returns an empty allocator for the process.
func NewAlloc(p *kernel.Proc) *Alloc {
	return &Alloc{p: p, used: make(map[uint64]int)}
}

const allocAlign = 16

// Malloc returns the user VA of an n-byte region.
func (a *Alloc) Malloc(n int) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("ulib: malloc(%d)", n)
	}
	n = (n + allocAlign - 1) &^ (allocAlign - 1)
	for i, s := range a.free {
		if s.n < n {
			continue
		}
		va := s.va
		if s.n == n {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i] = span{s.va + uint64(n), s.n - n}
		}
		a.used[va] = n
		return va, nil
	}
	// Grow the heap: at least one page, rounded up.
	grow := (n + mm.PageSize - 1) &^ (mm.PageSize - 1)
	old, err := a.p.SysSbrk(grow)
	if err != nil {
		return 0, err
	}
	a.insertFree(span{old, grow})
	return a.Malloc(n)
}

// Free returns a region to the free list.
func (a *Alloc) Free(va uint64) {
	n, ok := a.used[va]
	if !ok {
		panic(fmt.Sprintf("ulib: free of unallocated %#x", va))
	}
	delete(a.used, va)
	a.insertFree(span{va, n})
}

func (a *Alloc) insertFree(s span) {
	i := 0
	for i < len(a.free) && a.free[i].va < s.va {
		i++
	}
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = s
	// Coalesce around i.
	out := a.free[:0]
	for _, cur := range a.free {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.va+uint64(last.n) == cur.va {
				last.n += cur.n
				continue
			}
		}
		out = append(out, cur)
	}
	a.free = out
}

// InUse reports allocated bytes.
func (a *Alloc) InUse() int {
	total := 0
	for _, n := range a.used {
		total += n
	}
	return total
}

// Store writes data at a malloc'd VA through the page tables.
func (a *Alloc) Store(va uint64, data []byte) error {
	return a.p.AddressSpace().WriteAt(va, data)
}

// Load reads back from user memory.
func (a *Alloc) Load(va uint64, data []byte) error {
	return a.p.AddressSpace().ReadAt(va, data)
}

// --- File helpers (the libc-os layer) ---

// ReadFile slurps a whole file via open/read/close.
func ReadFile(p *kernel.Proc, path string) ([]byte, error) {
	fd, err := p.SysOpen(path, fs.ORdOnly)
	if err != nil {
		return nil, err
	}
	defer p.SysClose(fd)
	st, err := p.SysFstat(fd)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, st.Size)
	buf := make([]byte, 64*1024)
	for {
		n, err := p.SysRead(fd, buf)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		out = append(out, buf[:n]...)
	}
}

// WriteFile creates/truncates path with data.
func WriteFile(p *kernel.Proc, path string, data []byte) error {
	fd, err := p.SysOpen(path, fs.OCreate|fs.OWrOnly|fs.OTrunc)
	if err != nil {
		return err
	}
	defer p.SysClose(fd)
	for len(data) > 0 {
		n, err := p.SysWrite(fd, data)
		if err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// Printf formats to an open descriptor (the console, usually).
func Printf(p *kernel.Proc, fd int, format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	p.SysWrite(fd, []byte(s))
}

// OpenConsole opens /dev/console read-write.
func OpenConsole(p *kernel.Proc) (int, error) {
	return p.SysOpen("/dev/console", fs.ORdWr)
}

// --- Ring helpers (batched IO over SysRingSetup/SysRingEnter) ---

// RingBatch pushes sqes through the process ring and returns one CQE per
// SQE, in completion order (correlate with SQE.User, not position). It
// stages entries with Queue — draining with a SysRingEnter whenever the
// staging queue fills — then enters once more until every completion has
// been reaped. A full batch that fits the staging queue costs exactly one
// syscall; per-op errors ride inside the CQEs, so err is only transport
// failures (no ring, ring closed).
func RingBatch(p *kernel.Proc, r *uring.Ring, sqes []uring.SQE) ([]uring.CQE, error) {
	out := make([]uring.CQE, 0, len(sqes))
	reap := func() {
		for {
			cqe, ok := r.Reap()
			if !ok {
				return
			}
			out = append(out, cqe)
		}
	}
	staged := 0
	for _, e := range sqes {
		for {
			err := r.Queue(e)
			if err == nil {
				staged++
				break
			}
			if err != uring.ErrSQFull || staged == 0 {
				return out, err
			}
			// Staging queue full: hand the partial batch off and reap what
			// has already completed to free CQ slots for admission. Entries
			// admission held back stay staged for the next entry.
			n, err := p.SysRingEnter(staged, 1)
			if err != nil {
				return out, err
			}
			staged -= n
			reap()
		}
	}
	// Final drain: submit the tail and keep entering until every CQE for
	// this batch has been reaped (earlier partial drains already counted
	// toward out).
	for len(out) < len(sqes) {
		want := len(sqes) - len(out)
		n, err := p.SysRingEnter(staged, want)
		if err != nil {
			return out, err
		}
		staged -= n
		reap()
	}
	return out, nil
}

// --- proc/devfs wrappers (Table 1's "proc/devfs wrappers" row) ---

// ProcRead returns the content of /proc/<name>.
func ProcRead(p *kernel.Proc, name string) (string, error) {
	b, err := ReadFile(p, "/proc/"+name)
	return string(b), err
}

// ProcValue extracts "key: value" from a proc file's content.
func ProcValue(content, key string) (string, bool) {
	for _, line := range strings.Split(content, "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// CPUInfo summarizes /proc/cpuinfo: core count and per-core utilization %.
func CPUInfo(p *kernel.Proc) (cores int, utilPct []int, err error) {
	content, err := ProcRead(p, "cpuinfo")
	if err != nil {
		return 0, nil, err
	}
	for _, line := range strings.Split(content, "\n") {
		if strings.HasPrefix(line, "processor:") {
			cores++
		}
		if rest, ok := strings.CutPrefix(line, "util_pct:"); ok {
			v := 0
			fmt.Sscanf(strings.TrimSpace(rest), "%d", &v)
			utilPct = append(utilPct, v)
		}
	}
	return cores, utilPct, nil
}

// MemInfo summarizes /proc/meminfo: total and free kB.
func MemInfo(p *kernel.Proc) (totalKB, freeKB int, err error) {
	content, err := ProcRead(p, "meminfo")
	if err != nil {
		return 0, 0, err
	}
	if v, ok := ProcValue(content, "MemTotal"); ok {
		fmt.Sscanf(v, "%d kB", &totalKB)
	}
	if v, ok := ProcValue(content, "MemFree"); ok {
		fmt.Sscanf(v, "%d kB", &freeKB)
	}
	return totalKB, freeKB, nil
}
