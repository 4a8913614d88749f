package kernel

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/ksync"
	"protosim/internal/kernel/mm"
	"protosim/internal/kernel/sched"
	"protosim/internal/kernel/uring"
	"protosim/internal/uelf"
)

// MaxFDs is the per-process descriptor limit. It left xv6's NOFILE=16
// behind when sockets arrived: a channel server holds one fd per client
// plus the listener, so the limit is sized for hundreds of connections
// (the table itself starts small and grows on demand — see fs.FDTable).
const MaxFDs = 4096

// Syscall errors.
var (
	ErrNoProgram  = errors.New("kernel: exec target is not a known program")
	ErrNoVM       = errors.New("kernel: virtual memory not enabled in this prototype")
	ErrNoFiles    = errors.New("kernel: files not enabled in this prototype")
	ErrNoThreads  = errors.New("kernel: threading not enabled in this prototype")
	ErrNoSem      = errors.New("kernel: bad semaphore id")
	ErrNoProc     = errors.New("kernel: no such process")
	ErrNoKids     = errors.New("kernel: no children to wait for")
	ErrNoRing     = errors.New("kernel: no ring set up (SysRingSetup first)")
	ErrRingExists = errors.New("kernel: process already has a ring")
)

// procExit unwinds a process goroutine on exit()/exec-completion.
type procExit struct{ code int }

// Proc is one user process (or thread within a process). It is also the
// syscall interface handed to user programs — every Sys* method is one of
// Proto's 28 syscalls.
type Proc struct {
	PID  int
	Name string
	k    *Kernel
	Task *sched.Task

	mm  *mm.AddressSpace // nil before Prototype 3
	fds *fs.FDTable
	cwd string

	parent   *Proc
	mu       sync.Mutex
	children map[int]*Proc
	zombies  map[int]int // pid -> exit status
	childWQ  sched.WaitQueue

	isThread bool
	group    *Proc // thread-group leader (self for processes)
	threads  int   // live threads in the group (leader included)

	sems    map[int]*ksync.Semaphore
	nextSem int

	// ring is the group's submission/completion ring (SysRingSetup), held
	// by the leader and shared by threads like the FD table. Closed on
	// process exit before the descriptor table is torn down.
	ring *uring.Ring

	argv []string
	exit int
}

// Kernel returns the owning kernel (user library code uses it for device
// discovery in examples/tests; apps stick to syscalls).
func (p *Proc) Kernel() *Kernel { return p.k }

// AddressSpace returns the process's memory image (nil pre-VM).
func (p *Proc) AddressSpace() *mm.AddressSpace { return p.mm }

// Checkpoint is the preemption checkpoint app compute loops call — the
// place a timer IRQ would land (see sched.Task.CheckPreempt).
func (p *Proc) Checkpoint() { p.Task.CheckPreempt() }

// newProc allocates the process structure.
func (k *Kernel) newProc(parent *Proc, name string, argv []string) *Proc {
	k.mu.Lock()
	k.nextPID++
	pid := k.nextPID
	k.mu.Unlock()
	p := &Proc{
		PID:      pid,
		Name:     name,
		k:        k,
		parent:   parent,
		children: make(map[int]*Proc),
		zombies:  make(map[int]int),
		sems:     make(map[int]*ksync.Semaphore),
		cwd:      "/",
		argv:     argv,
	}
	p.group = p
	p.threads = 1
	if k.cfg.EnableFiles {
		p.fds = fs.NewFDTable(MaxFDs)
	}
	k.mu.Lock()
	k.procs[pid] = p
	k.mu.Unlock()
	return p
}

// Spawn starts a user program as a new process (the init-launch path; apps
// themselves use fork/exec).
func (k *Kernel) Spawn(name string, prio int, fn Program, argv []string) *Proc {
	p := k.newProc(nil, name, argv)
	if k.cfg.EnableVM {
		p.mm = mm.NewAddressSpace(k.FrameAlloc)
		p.mm.SetupStack(mm.DefaultStackVA, mm.MaxStackPages)
	}
	k.startProcTask(p, prio, func() {
		p.runBody(func() int { return fn(p, argv) })
	})
	return p
}

// startProcTask launches body as p's scheduler task. The body (and every
// syscall it makes) reads p.Task, and a core may dispatch the task before
// Sched.Go returns — so the task waits on a gate that is closed only after
// the p.Task assignment completes.
func (k *Kernel) startProcTask(p *Proc, prio int, body func()) {
	ready := make(chan struct{})
	p.Task = k.Sched.Go(p.Name, prio, func(*sched.Task) {
		<-ready
		body()
	})
	close(ready)
}

// runBody executes a process body, translating exit() unwinds and cleaning
// up kernel state afterwards.
func (p *Proc) runBody(body func() int) {
	code := 0
	func() {
		defer func() {
			if r := recover(); r != nil {
				if e, ok := r.(procExit); ok {
					code = e.code
					return
				}
				panic(r) // real crash: let sched's OnPanic oops it
			}
		}()
		code = body()
	}()
	p.finalize(code)
}

// finalize releases process resources and notifies the parent.
func (p *Proc) finalize(code int) {
	p.exit = code
	if p.fds != nil {
		// Carry the exiting task: a final close may reclaim an unlinked
		// file's storage, which sleeps on locks and does IO. A condemned
		// task must not — its sleep would panic out of finalize and skip
		// the cleanup below — so it closes host-style instead.
		t := p.Task
		if t.Killed() {
			t = nil
		}
		if p.ring != nil {
			// The ring's workers execute against this descriptor table —
			// shut the pool down before tearing descriptors out from under
			// it. Close drains the active set, so every handed-off SQE
			// still posts its CQE. A condemned task cannot Close: the join
			// would park it host-side still holding its core, which the
			// workers may need to exit — Abandon skips the join and leans
			// on the OpenFile in-flight guards for descriptor safety.
			if t != nil {
				p.ring.Close(t)
			} else {
				p.ring.Abandon()
			}
			p.ring = nil
		}
		p.fds.CloseAll(t)
	}
	if p.mm != nil {
		p.mm.Release()
	}
	// Close any WM surface the process owned.
	p.k.mu.Lock()
	if s, ok := p.k.surfaces[p.PID]; ok {
		delete(p.k.surfaces, p.PID)
		p.k.mu.Unlock()
		s.Close()
	} else {
		p.k.mu.Unlock()
	}
	// Reparent live children (they auto-reap on exit).
	p.mu.Lock()
	kids := make([]*Proc, 0, len(p.children))
	for _, c := range p.children {
		kids = append(kids, c)
	}
	p.mu.Unlock()
	for _, c := range kids {
		c.mu.Lock()
		c.parent = nil
		c.mu.Unlock()
	}
	p.k.mu.Lock()
	delete(p.k.procs, p.PID)
	p.k.mu.Unlock()
	// Tell the parent.
	par := p.parent
	if par != nil && !p.isThread {
		par.mu.Lock()
		delete(par.children, p.PID)
		par.zombies[p.PID] = code
		par.mu.Unlock()
		par.childWQ.WakeAll()
	}
	if p.isThread && p.group != nil {
		p.group.mu.Lock()
		p.group.threads--
		p.group.mu.Unlock()
	}
}

// --- Task-management syscalls (1–10) ---

// SysFork creates a child process that runs childBody. The child inherits
// a copy of the address space (eagerly copied in ModeProto/ModeXv6,
// copy-on-write in ModeProd — Fig 9's fork 17× gap) and shares the open
// file descriptions, as in xv6.
//
// Substitution note (DESIGN.md §5): Go cannot resume a forked goroutine at
// the fork point, so the child's continuation is passed explicitly. The
// kernel-side work — duplicating the mm and fd table, wiring the parent/
// child relationship — is exactly fork's.
func (p *Proc) SysFork(childBody func(c *Proc)) (int, error) {
	p.k.count()
	child := p.k.newProc(p, p.Name+"-child", p.argv)
	if p.mm != nil {
		cm, err := p.mm.Fork(p.k.cfg.Mode == ModeProd)
		if err != nil {
			return -1, err
		}
		child.mm = cm
	}
	if p.fds != nil {
		child.fds = p.fds.Clone()
	}
	child.cwd = p.cwd
	p.mu.Lock()
	p.children[child.PID] = child
	p.mu.Unlock()
	p.k.startProcTask(child, p.Task.Priority, func() {
		child.runBody(func() int { childBody(child); return 0 })
	})
	return child.PID, nil
}

// SysExec replaces the process image with the executable at path: it reads
// the ELF, validates it, builds a fresh address space, maps the segments,
// sets up the demand-paged stack, and transfers control. On success it
// never returns.
func (p *Proc) SysExec(path string, argv []string) error {
	p.k.count()
	if p.k.VFS == nil {
		return ErrNoFiles
	}
	img, err := p.readAll(path)
	if err != nil {
		return fmt.Errorf("exec %s: %w", path, err)
	}
	parsed, err := uelf.Parse(img)
	if err != nil {
		return fmt.Errorf("exec %s: %w", path, err)
	}
	p.k.mu.Lock()
	fn, ok := p.k.programs[parsed.Program]
	p.k.mu.Unlock()
	if !ok {
		return fmt.Errorf("exec %s: %w (%q)", path, ErrNoProgram, parsed.Program)
	}
	// Build the new image before tearing down the old one.
	var as *mm.AddressSpace
	if p.k.cfg.EnableVM {
		as = mm.NewAddressSpace(p.k.FrameAlloc)
		for _, seg := range parsed.Segments {
			flags := mm.FlagValid | mm.FlagCached
			if seg.Flags&uelf.FlagW != 0 {
				flags |= mm.FlagWrite
			}
			if err := as.MapSegment(seg.Vaddr, seg.Data, int(seg.MemSz), flags); err != nil {
				as.Release()
				return fmt.Errorf("exec %s: %w", path, err)
			}
		}
		if err := as.SetupStack(mm.DefaultStackVA, mm.MaxStackPages); err != nil {
			as.Release()
			return fmt.Errorf("exec %s: %w", path, err)
		}
	}
	old := p.mm
	p.mm = as
	if old != nil {
		old.Release()
	}
	p.Name = parsed.Program
	p.argv = argv
	// Transfer control: run the new program, then exit with its status.
	p.k.Unwinder.Push(p.Task.ID, parsed.Program+"_main")
	code := fn(p, argv)
	p.k.Unwinder.Pop(p.Task.ID)
	panic(procExit{code})
}

// SysExit terminates the calling process with status code; never returns.
func (p *Proc) SysExit(code int) {
	p.k.count()
	panic(procExit{code})
}

// SysWait blocks until a child exits, returning its pid and status.
func (p *Proc) SysWait() (pid, status int, err error) {
	p.k.count()
	for {
		p.mu.Lock()
		for zpid, st := range p.zombies {
			delete(p.zombies, zpid)
			p.mu.Unlock()
			return zpid, st, nil
		}
		if len(p.children) == 0 {
			p.mu.Unlock()
			return -1, 0, ErrNoKids
		}
		p.mu.Unlock()
		p.childWQ.SleepUnlessKillable(p.Task, p.waitable)
	}
}

// waitable reports a zombie to reap or no children left — SysWait's wait
// condition, re-checked once the parent is registered, so a child exiting
// in between cannot be missed.
func (p *Proc) waitable() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.zombies) > 0 || len(p.children) == 0
}

// SysKill condemns a process by pid.
func (p *Proc) SysKill(pid int) error {
	p.k.count()
	p.k.mu.Lock()
	victim := p.k.procs[pid]
	p.k.mu.Unlock()
	if victim == nil {
		return ErrNoProc
	}
	p.k.Sched.Kill(victim.Task)
	return nil
}

// SysGetPID returns the caller's pid (Fig 8/9's syscall-latency probe).
func (p *Proc) SysGetPID() int {
	p.k.count()
	return p.PID
}

// SysSleep blocks for ms milliseconds (the donut animation timer).
func (p *Proc) SysSleep(ms int) {
	p.k.count()
	p.Task.SleepFor(msToDuration(ms))
}

// SysUptime returns microseconds since boot.
func (p *Proc) SysUptime() int64 {
	p.k.count()
	return p.k.Uptime().Microseconds()
}

// SysSbrk grows the heap by delta bytes, returning the old break — the
// pixel-buffer allocation path mario uses (§4.3).
func (p *Proc) SysSbrk(delta int) (uint64, error) {
	p.k.count()
	if p.mm == nil {
		return 0, ErrNoVM
	}
	return p.mm.Sbrk(delta)
}

// SysYield voluntarily releases the CPU.
func (p *Proc) SysYield() {
	p.k.count()
	p.Task.Yield()
}

// --- Threading / synchronization syscalls (24–28) ---

// SysClone starts a thread sharing the address space (CLONE_VM) and file
// table, as Prototype 5 implements for SDL's audio thread (§4.5).
func (p *Proc) SysClone(name string, body func(threadProc *Proc)) (int, error) {
	p.k.count()
	if !p.k.cfg.EnableThreads {
		return -1, ErrNoThreads
	}
	leader := p.group
	thread := p.k.newProc(p, p.Name+"/"+name, p.argv)
	thread.isThread = true
	thread.group = leader
	if p.mm != nil {
		p.mm.Ref()
		thread.mm = p.mm
	}
	thread.fds = p.fds // shared table, not a clone
	leader.mu.Lock()
	leader.threads++
	leader.mu.Unlock()
	p.k.startProcTask(thread, p.Task.Priority, func() {
		thread.runBodyThread(func() { body(thread) })
	})
	return thread.PID, nil
}

// runBodyThread is runBody for threads: shared fds must not be closed.
func (tp *Proc) runBodyThread(body func()) {
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(procExit); ok {
					return
				}
				panic(r)
			}
		}()
		body()
	}()
	// Thread teardown: release the mm reference but leave fds alone.
	if tp.mm != nil {
		tp.mm.Release()
	}
	tp.k.mu.Lock()
	delete(tp.k.procs, tp.PID)
	tp.k.mu.Unlock()
	if tp.group != nil {
		tp.group.mu.Lock()
		tp.group.threads--
		tp.group.mu.Unlock()
	}
}

// Threads reports live threads in the caller's group.
func (p *Proc) Threads() int {
	g := p.group
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.threads
}

// SysSemCreate allocates a semaphore with an initial count, returning its id.
func (p *Proc) SysSemCreate(initial int) (int, error) {
	p.k.count()
	if !p.k.cfg.EnableThreads {
		return -1, ErrNoThreads
	}
	g := p.group
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nextSem++
	id := g.nextSem
	g.sems[id] = ksync.NewSemaphore(initial)
	return id, nil
}

// SysSemWait performs P on a semaphore.
func (p *Proc) SysSemWait(id int) error {
	p.k.count()
	s, err := p.sem(id)
	if err != nil {
		return err
	}
	s.Wait(p.Task)
	return nil
}

// SysSemPost performs V on a semaphore.
func (p *Proc) SysSemPost(id int) error {
	p.k.count()
	s, err := p.sem(id)
	if err != nil {
		return err
	}
	s.Post()
	return nil
}

func (p *Proc) sem(id int) (*ksync.Semaphore, error) {
	g := p.group
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.sems[id]
	if s == nil {
		return nil, ErrNoSem
	}
	return s, nil
}

// SysCacheFlush cleans the CPU cache over a framebuffer byte range so the
// panel sees it — the kernel service Prototype 3 adds because EL0 cannot
// flush the cache itself (§4.3).
func (p *Proc) SysCacheFlush(off, n int) error {
	p.k.count()
	if off < 0 || n < 0 || off+n > p.k.FB.Size() {
		return fmt.Errorf("kernel: cacheflush [%d,%d) outside framebuffer", off, off+n)
	}
	p.k.FB.FlushRegion(off, n)
	return nil
}

// MapFramebuffer appends an identity mapping of the framebuffer to the
// process page table (the end-of-exec step in §4.3) and returns the user
// view of the pixels. Writes land in "cached" memory: without
// SysCacheFlush the panel keeps showing stale pixels.
func (p *Proc) MapFramebuffer() ([]byte, error) {
	fb := p.k.FB
	if p.mm != nil {
		va := uint64(fb.Base()) // identity-mapped for debugging ease
		if _, _, ok := p.mm.PageTable().Translate(va); !ok {
			if err := p.mm.MapShared(va, fb.Base(), fb.Size(), mm.FlagValid|mm.FlagWrite|mm.FlagCached); err != nil {
				return nil, err
			}
		}
	}
	return fb.Mem(), nil
}

func msToDuration(ms int) time.Duration {
	return time.Duration(ms) * time.Millisecond
}
