// Package kernel assembles Proto: the monolithic kernel that drives the
// simulated Pi3 (internal/hw), schedules tasks (sched), manages memory
// (mm), serves the 28 syscalls across task management, files, and
// threading/synchronization (§3), and hosts the drivers — framebuffer,
// USB keyboard, PWM/DMA sound, SD card — plus the window manager kernel
// thread and the self-hosted debugging facilities.
//
// Feature staging (which prototype enables what) lives one level up in
// internal/core; this package accepts a Config with feature switches and
// implements everything.
package kernel

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"protosim/internal/hw"
	"protosim/internal/kernel/bcache"
	"protosim/internal/kernel/blkq"
	"protosim/internal/kernel/dcache"
	"protosim/internal/kernel/fat32"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/kdebug"
	"protosim/internal/kernel/ktime"
	"protosim/internal/kernel/mm"
	"protosim/internal/kernel/net"
	"protosim/internal/kernel/sched"
	"protosim/internal/kernel/wm"
	"protosim/internal/kernel/xv6fs"
)

// Mode selects the kernel baseline for Figure 9's comparison columns.
type Mode int

// Kernel modes.
const (
	// ModeProto is Proto as published: eager-copy fork, fast memmove,
	// FAT32 range transfers, polled SD.
	ModeProto Mode = iota
	// ModeXv6 strips Proto's optimizations: byte-loop memmove, xv6's
	// 30-buffer write-through cache over a depth-1 queue, and an SD
	// driver that issues one command per sector.
	ModeXv6
	// ModeProd adds the production-OS mechanisms the paper credits for
	// Linux/FreeBSD wins: copy-on-write fork and SD DMA.
	ModeProd
)

func (m Mode) String() string {
	switch m {
	case ModeProto:
		return "proto"
	case ModeXv6:
		return "xv6"
	case ModeProd:
		return "prod"
	}
	return "?"
}

// Config selects which mechanisms the kernel brings up. internal/core maps
// prototypes 1–5 onto these switches.
type Config struct {
	Machine *hw.Machine
	Cores   int // cores to release from "parked" (<= Machine cores)
	Mode    Mode

	RunqueueMode sched.RunqueueMode
	TickInterval time.Duration // scheduler tick (default 4ms)

	// Feature switches (Table 1 rows).
	EnableVM      bool // per-app address spaces + EL0/EL1 split
	EnableFiles   bool // file abstraction, ramdisk xv6fs, devfs/procfs
	EnableFAT     bool // SD card + FAT32 mounted at /d
	EnableUSB     bool // USB keyboard
	EnableSound   bool // PWM/DMA audio via /dev/sb
	EnableWM      bool // window manager kernel thread
	EnableThreads bool // clone + semaphores
	EnableTrace   bool // kdebug event tracing
	EnableNet     bool // TCP-ish sockets over the board NIC (needs MachineConfig.EnableNIC)

	// CacheBuffers bounds how many buffers each filesystem's cache holds
	// (0 = bcache default). Every other storage setting — shard count,
	// queue depth, dirty ratio, plug window — is its package default;
	// ModeXv6 replaces them all with the xv6 baseline.
	CacheBuffers int

	RamdiskImage []byte // xv6fs image for the root filesystem

	// ConsoleOut tees printk output (nil = in-memory transcript only).
	ConsoleOut io.Writer
}

// DefaultTick is the scheduler tick period.
const DefaultTick = 4 * time.Millisecond

// Kernel is the running system.
type Kernel struct {
	cfg Config
	m   *hw.Machine

	Sched      *sched.Scheduler
	FrameAlloc *mm.FrameAllocator
	KHeap      *mm.KAlloc
	VFS        *fs.VFS
	DevFS      *fs.DevFS
	ProcFS     *fs.ProcFS
	RootFS     *xv6fs.FS
	FatFS      *fat32.FS
	FB         *hw.Framebuffer
	Net        *net.Stack
	WM         *wm.WM
	Trace      *kdebug.Trace
	Unwinder   *kdebug.Unwinder
	Monitor    *kdebug.Monitor
	VTimers    *ktime.Set

	mu       sync.Mutex
	procs    map[int]*Proc
	nextPID  int
	programs map[string]Program

	blockDevs    []*BlockIO               // every block device, behind the unified IO path
	blockCaches  map[string]*bcache.Cache // device name -> its buffer cache (diskstats)
	daemonCaches []*bcache.Cache          // caches with a running kflushd (stopped at shutdown)
	dcache       *dcache.Cache            // kernel dentry cache (one Mount handle per filesystem)

	rawEvents *eventQueue // keyboard events when no WM runs
	kbdAddr   byte
	kbdLast   [hw.HIDReportLen]byte
	sound     *soundDev
	surfaces  map[int]*wm.Surface // proc PID -> surface (for /dev/event1)

	syscalls atomic.Int64
	booted   time.Time
	bootTime time.Duration
	panicLog []string
	wmTask   *sched.Task
	shutdown atomic.Bool
}

// Program is a user program body: Proto apps compiled as ELF executables
// resolve to these via the uelf token (see internal/uelf).
type Program func(p *Proc, argv []string) int

// New creates a kernel over the machine; Boot brings it up.
func New(cfg Config) *Kernel {
	if cfg.Machine == nil {
		panic("kernel: nil machine")
	}
	if cfg.Cores <= 0 || cfg.Cores > cfg.Machine.Cores() {
		cfg.Cores = cfg.Machine.Cores()
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = DefaultTick
	}
	k := &Kernel{
		cfg:      cfg,
		m:        cfg.Machine,
		procs:    make(map[int]*Proc),
		programs: make(map[string]Program),
		surfaces: make(map[int]*wm.Surface),
	}
	return k
}

// Machine exposes the underlying board.
func (k *Kernel) Machine() *hw.Machine { return k.m }

// Mode reports the kernel baseline mode.
func (k *Kernel) Mode() Mode { return k.cfg.Mode }

// Cores reports the active core count.
func (k *Kernel) Cores() int { return k.cfg.Cores }

// Printk writes a kernel message to the UART, synchronously (§4.1: debug
// output never buffers).
func (k *Kernel) Printk(format string, args ...any) {
	fmt.Fprintf(k.m.UART, format, args...)
}

// Transcript returns everything printk'd so far.
func (k *Kernel) Transcript() string { return k.m.UART.Transcript() }

// RegisterProgram installs a user program under its token name.
func (k *Kernel) RegisterProgram(name string, fn Program) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.programs[name] = fn
}

// Boot brings the kernel up: scheduler and per-core timers, memory,
// filesystems, drivers, the window manager — the Prototype 5 sequence,
// gated by the Config feature switches.
func (k *Kernel) Boot() error {
	start := time.Now()
	if k.cfg.ConsoleOut != nil {
		k.m.UART.SetSink(k.cfg.ConsoleOut)
	}
	k.Printk("proto: booting on %d core(s), mode=%s\n", k.cfg.Cores, k.cfg.Mode)

	// Debug facilities first — everything else traces through them.
	k.Trace = kdebug.NewTrace(k.cfg.Cores)
	k.Trace.SetEnabled(k.cfg.EnableTrace)
	k.Unwinder = kdebug.NewUnwinder()
	k.Monitor = kdebug.NewMonitor()

	// Memory: reserve the first 2 MB for the "kernel image" and the top
	// 8 MB for the GPU framebuffer carve-out.
	reserveLow := (2 << 20) / mm.PageSize
	reserveHigh := (8 << 20) / mm.PageSize
	if k.m.Mem.Frames() < reserveLow+reserveHigh+64 {
		reserveLow, reserveHigh = 4, 4
	}
	k.FrameAlloc = mm.NewFrameAllocator(k.m.Mem, reserveLow, reserveHigh)
	// kmalloc arena: carve 64 frames out of the allocator.
	heapFrames := 64
	heapBase := -1
	for i := 0; i < heapFrames; i++ {
		f, err := k.FrameAlloc.Alloc()
		if err != nil {
			return fmt.Errorf("kernel: kmalloc arena: %w", err)
		}
		if heapBase < 0 {
			heapBase = f
		}
	}
	k.KHeap = mm.NewKAlloc(heapBase*mm.PageSize, heapFrames*mm.PageSize)

	// Virtual timers over the hardware timer (Prototype 1, Lab 1 #11):
	// every sleep() in the system multiplexes through this set.
	k.VTimers = ktime.NewSet()

	// Scheduler + per-core generic timers.
	k.Sched = sched.New(sched.Config{
		Cores:   k.cfg.Cores,
		Mode:    k.cfg.RunqueueMode,
		Quantum: k.cfg.TickInterval,
		Power:   k.m.Power,
		Tracer:  k.Trace,
		After:   k.VTimers.AfterFunc,
		OnPanic: k.taskPanicked,
	})
	k.Sched.Start()
	for c := 0; c < k.cfg.Cores; c++ {
		core := c
		k.m.IRQ.Register(hw.GenericTimerLine(core), core, func(hw.IRQLine, int) {
			k.Sched.Tick(core)
		})
		k.m.GTimers[core].Start(k.cfg.TickInterval)
	}

	// Panic button: FIQ, never masked.
	k.m.IRQ.Register(hw.FIQPanic, 0, func(_ hw.IRQLine, core int) {
		k.PanicDump(core)
	})

	// Framebuffer via the mailbox (first-class peripheral: present from
	// Prototype 1 on).
	fb, err := k.m.Mailbox.AllocFramebuffer(k.m.Cfg.FBWidth, k.m.Cfg.FBHeight)
	if err != nil {
		return fmt.Errorf("kernel: framebuffer: %w", err)
	}
	k.FB = fb

	// Filesystems. Every mount goes over a BlockIO — the unified block IO
	// path — fronted by a blkq request queue, and a sharded buffer cache
	// (Config.CacheBuffers sizes it). The queue gives cross-task elevator
	// merging and IRQ-driven completion; the cache runs write-behind with
	// a kflushd daemon per mount.
	copts := bcache.Options{Buffers: k.cfg.CacheBuffers}
	var qopts blkq.Options
	if k.cfg.Mode == ModeXv6 {
		// The xv6 baseline gets xv6's block layer everywhere: one shard,
		// NBUF buffers, no readahead, synchronous write-through, over a
		// queue that keeps one command in flight and never anticipates —
		// Figure 9 measures the original structure, not a shrunken
		// sharded one.
		copts = bcache.Options{Buffers: bcache.Xv6Buffers, Shards: 1, Readahead: -1,
			Policy: bcache.WritePolicyThrough}
		qopts = blkq.Options{Depth: 1, PlugDelay: -1}
	}
	k.blockCaches = make(map[string]*bcache.Cache)
	// The dentry cache is kernel-global with one handle per mount, like
	// the buffer caches: path walks on both filesystems resolve hot
	// components from it without touching directory blocks or locks.
	k.dcache = dcache.New(0, 0)
	if k.cfg.EnableFiles {
		k.VFS = fs.NewVFS()
		var rd *fs.Ramdisk
		if k.cfg.RamdiskImage != nil {
			rd = fs.NewRamdiskFromImage(xv6fs.BlockSize, k.cfg.RamdiskImage)
		} else {
			// An empty root if no image was packed.
			img, err := xv6fs.BuildImage(1024, 128, nil)
			if err != nil {
				return err
			}
			rd = img
		}
		rdev := NewBlockIO("rd0", rd)
		k.addBlockDev(rdev)
		root, err := xv6fs.MountWith(k.stackQueue(rdev, qopts), nil, copts)
		if err != nil {
			return fmt.Errorf("kernel: root fs: %w", err)
		}
		k.RootFS = root
		root.SetDcache(k.dcache.NewMount("/"))
		k.blockCaches[rdev.Name()] = root.Cache()
		k.startFlushDaemon(rdev.Name(), root.Cache())
		if err := k.VFS.Mount("/", root); err != nil {
			return err
		}
		k.DevFS = fs.NewDevFS()
		k.ProcFS = fs.NewProcFS()
		if err := k.VFS.Mount("/dev", k.DevFS); err != nil {
			return err
		}
		if err := k.VFS.Mount("/proc", k.ProcFS); err != nil {
			return err
		}
		k.registerProcFiles()
		k.registerDevices()
		for _, d := range k.blockDevs {
			k.registerBlockDevFile(d)
		}
	}

	if k.cfg.EnableFAT {
		if k.m.SD == nil {
			return fmt.Errorf("kernel: FAT32 enabled but no SD card")
		}
		var sd fs.BlockDevice = sdBlockDev{k.m.SD}
		if k.cfg.Mode == ModeXv6 {
			sd = xv6SDDev{k.m.SD}
		}
		sdio := NewBlockIO("sd0", sd)
		fatfs, err := fat32.MountWith(k.stackQueue(sdio, qopts), nil, copts)
		if err != nil {
			return fmt.Errorf("kernel: FAT32: %w", err)
		}
		k.FatFS = fatfs
		fatfs.SetDcache(k.dcache.NewMount("/d"))
		k.blockCaches[sdio.Name()] = fatfs.Cache()
		k.startFlushDaemon(sdio.Name(), fatfs.Cache())
		if k.cfg.Mode == ModeProd {
			k.m.SD.SetDMA(true)
		}
		if k.VFS == nil {
			return fmt.Errorf("kernel: FAT32 requires files")
		}
		if err := k.VFS.Mount("/d", fatfs); err != nil {
			return err
		}
		k.addBlockDev(sdio)
	}

	// Network: the TCP-ish stack over the board NIC. The IRQNIC handler
	// only kicks the stack's softirq goroutine (NAPI-style) — protocol
	// work never runs in interrupt context. NewStack masks TX-completion
	// interrupts, so IRQNIC fires for RX deliveries and only for the TX
	// completions a full ring armed or that failed. The Routed check
	// makes a forgotten registration fail at boot: a NIC whose completion
	// rings nobody drains would instead hang every TX-blocked writer
	// silently.
	if k.cfg.EnableNet {
		if k.m.NIC == nil {
			return fmt.Errorf("kernel: network enabled but machine has no NIC (MachineConfig.EnableNIC)")
		}
		k.Net = net.NewStack("eth0", NetLocalHost, k.m.NIC, net.Options{
			After: k.VTimers.AfterFunc,
		})
		k.m.IRQ.Register(hw.IRQNIC, 0, func(hw.IRQLine, int) { k.Net.IRQ() })
		if !k.m.IRQ.Routed(hw.IRQNIC) {
			return fmt.Errorf("kernel: IRQNIC has no routed handler after registration")
		}
		if k.ProcFS != nil {
			k.ProcFS.Register("net", func() string { return k.Net.ProcText() })
		}
	}

	// USB keyboard.
	if k.cfg.EnableUSB {
		if err := k.initKeyboard(); err != nil {
			k.Printk("proto: usb keyboard: %v\n", err)
		}
	}

	// Sound.
	if k.cfg.EnableSound {
		if err := k.initSound(); err != nil {
			return fmt.Errorf("kernel: sound: %w", err)
		}
	}

	// Window manager kernel thread.
	if k.cfg.EnableWM {
		k.WM = wm.New(k.FB)
		k.wmTask = k.Sched.Go("kwm", 2, k.WM.Run)
	}

	k.booted = time.Now()
	k.bootTime = time.Since(start)
	k.Printk("proto: boot complete in %v\n", k.bootTime.Round(time.Microsecond))
	return nil
}

// stackQueue fronts a block device with an IO request queue configured by
// opts: elevator sorting, cross-task merging, anticipatory plugging on the
// kernel's virtual timers, and — when the device has async halves (the SD
// card) — IRQ-driven completion, with submitting tasks asleep on the sched
// waitq until hw.IRQSD fires.
func (k *Kernel) stackQueue(d *BlockIO, opts blkq.Options) *blkq.Queue {
	opts.Async = d.Async()
	opts.After = k.VTimers.AfterFunc
	q := blkq.New(d, opts)
	d.SetQueue(q)
	if d.Async() != nil {
		// Route the device's completion IRQ into the queue: finished
		// commands wake their submitters and the next command is issued
		// from interrupt context.
		k.m.IRQ.Register(hw.IRQSD, 0, func(hw.IRQLine, int) { q.CompletionIRQ() })
	}
	return q
}

// startFlushDaemon launches the kflushd kernel task for one mount's
// cache: background write-behind flushing by dirty ratio and age, with
// eviction handing dirty victims to it instead of writing inline. No-op
// for write-through caches (baselines).
func (k *Kernel) startFlushDaemon(name string, c *bcache.Cache) {
	if !c.WriteBehind() {
		return
	}
	k.daemonCaches = append(k.daemonCaches, c)
	k.Sched.Go("kflushd-"+name, 1, func(t *sched.Task) {
		c.RunDaemon(t, k.VTimers.AfterFunc)
	})
}

// sdBlockDev adapts the SD card to fs.BlockDevice, forwarding the async
// submit/completion halves the request queue drives.
type sdBlockDev struct{ sd *hw.SDCard }

func (d sdBlockDev) BlockSize() int { return hw.SDBlockSize }
func (d sdBlockDev) Blocks() int    { return d.sd.Blocks() }
func (d sdBlockDev) ReadBlocks(lba, n int, dst []byte) error {
	return d.sd.ReadBlocks(lba, n, dst)
}
func (d sdBlockDev) WriteBlocks(lba, n int, src []byte) error {
	return d.sd.WriteBlocks(lba, n, src)
}
func (d sdBlockDev) SubmitRead(tag uint64, lba, n int, dst []byte) error {
	return d.sd.SubmitRead(tag, lba, n, dst)
}
func (d sdBlockDev) SubmitWrite(tag uint64, lba, n int, src []byte) error {
	return d.sd.SubmitWrite(tag, lba, n, src)
}
func (d sdBlockDev) PopCompletion() (uint64, error, bool) { return d.sd.PopCompletion() }

// xv6SDDev is ModeXv6's SD driver: synchronous, polled, one card command
// per sector, like xv6's own disk driver. It splits every multi-block
// command the queue above it merged.
type xv6SDDev struct{ sd *hw.SDCard }

func (d xv6SDDev) BlockSize() int { return hw.SDBlockSize }
func (d xv6SDDev) Blocks() int    { return d.sd.Blocks() }
func (d xv6SDDev) ReadBlocks(lba, n int, dst []byte) error {
	for i := 0; i < n; i++ {
		if err := d.sd.ReadBlocks(lba+i, 1, dst[i*hw.SDBlockSize:(i+1)*hw.SDBlockSize]); err != nil {
			return err
		}
	}
	return nil
}
func (d xv6SDDev) WriteBlocks(lba, n int, src []byte) error {
	for i := 0; i < n; i++ {
		if err := d.sd.WriteBlocks(lba+i, 1, src[i*hw.SDBlockSize:(i+1)*hw.SDBlockSize]); err != nil {
			return err
		}
	}
	return nil
}

// taskPanicked is the kernel oops path for a crashing user task.
func (k *Kernel) taskPanicked(t *sched.Task, reason any) {
	k.Printk("proto: oops: task %d (%s): %v\n", t.ID, t.Name, reason)
	k.Printk("%s", k.Unwinder.Format(t.ID))
}

// BootDuration reports how long Boot took.
func (k *Kernel) BootDuration() time.Duration { return k.bootTime }

// Uptime reports time since boot completed.
func (k *Kernel) Uptime() time.Duration { return time.Since(k.booted) }

// SyscallCount reports total syscalls served.
func (k *Kernel) SyscallCount() int64 { return k.syscalls.Load() }

// Shutdown stops user tasks, the WM, flushes filesystems and stops cores.
func (k *Kernel) Shutdown() error {
	if !k.shutdown.CompareAndSwap(false, true) {
		return nil
	}
	if k.WM != nil {
		k.WM.Stop()
	}
	if k.sound != nil {
		k.sound.stop()
	}
	// Tear the network down before the scheduler: aborting every conn
	// wakes tasks blocked in socket reads/writes so the kill sweep can
	// collect them instead of timing out on net-parked sleepers.
	if k.Net != nil {
		k.Net.Close()
	}
	// Stop the writeback daemons first, cleanly: they park in
	// uninterruptible waits holding no locks, and letting the scheduler
	// kill one mid-flush could strand buffer locks the final SyncAll then
	// spins on. The stop flag reaches even a daemon task that has not
	// been granted the CPU yet.
	for _, c := range k.daemonCaches {
		c.StopDaemon()
	}
	err := k.Sched.Shutdown(10 * time.Second)
	if k.VTimers != nil {
		k.VTimers.Close()
	}
	// One unified flush path: every mounted filesystem that can sync does.
	// Only after a clean scheduler shutdown — Sync drains per-inode and
	// allocator locks, and a wedged task that survived the timeout may
	// still hold one; a hung host process is worse than skipping the
	// final flush.
	if k.VFS != nil && err == nil {
		k.VFS.SyncAll(nil)
	}
	k.m.Shutdown()
	return err
}

// registerProcFiles fills /proc with the paper's nodes.
func (k *Kernel) registerProcFiles() {
	k.ProcFS.Register("cpuinfo", func() string {
		var b strings.Builder
		util := k.m.Power.Utilization()
		for c := 0; c < k.cfg.Cores; c++ {
			fmt.Fprintf(&b, "processor: %d\nmodel: Cortex-A53 (sim)\nutil_pct: %d\n", c, int(util[c]*100))
		}
		return b.String()
	})
	k.ProcFS.Register("meminfo", func() string {
		total := k.m.Mem.Size()
		free := k.FrameAlloc.FreeFrames() * mm.PageSize
		return fmt.Sprintf("MemTotal: %d kB\nMemFree: %d kB\nKmallocUsed: %d\n",
			total/1024, free/1024, k.KHeap.InUse())
	})
	k.ProcFS.Register("uptime", func() string {
		return fmt.Sprintf("%.3f\n", k.Uptime().Seconds())
	})
	k.ProcFS.Register("diskstats", func() string {
		var b strings.Builder
		for _, d := range k.blockDevs {
			rc, rb, wc, wb := d.Stats()
			fmt.Fprintf(&b, "%s read_cmds=%d read_blocks=%d write_cmds=%d write_blocks=%d\n",
				d.Name(), rc, rb, wc, wb)
		}
		// Request queues: merge ratio is submitted requests over dispatched
		// device commands — >1 means the elevator folded concurrent
		// requests into fewer, larger commands.
		for _, d := range k.blockDevs {
			q := d.Queue()
			if q == nil {
				continue
			}
			sub, disp, merged, depthPeak, queuedPeak := q.Stats()
			hits, timeouts := q.PlugStats()
			ratio := 1.0
			if disp > 0 {
				ratio = float64(sub) / float64(disp)
			}
			retries, cmdTimeouts, splits, dead := q.FaultStats()
			fmt.Fprintf(&b, "%s.q depth=%d submitted=%d commands=%d merged=%d merge_ratio=%.2f inflight_peak=%d queued_peak=%d plug_hits=%d plug_timeouts=%d retries=%d cmd_timeouts=%d splits=%d dead=%t\n",
				d.Name(), q.Depth(), sub, disp, merged, ratio, depthPeak, queuedPeak, hits, timeouts, retries, cmdTimeouts, splits, dead)
		}
		for _, d := range k.blockDevs {
			c := k.blockCaches[d.Name()]
			if c == nil {
				continue
			}
			h, m, ev, wb := c.Stats()
			ro, rbl, ra := c.RangeStats()
			fmt.Fprintf(&b, "%s.cache hits=%d misses=%d evictions=%d writebacks=%d range_ops=%d range_blocks=%d readahead=%d dirty=%d daemon_flushes=%d give_ups=%d read_retries=%d\n",
				d.Name(), h, m, ev, wb, ro, rbl, ra, c.DirtyBuffers(), c.DaemonFlushes(), c.GiveUps(), c.ReadRetries())
		}
		return b.String()
	})
	// Dentry-cache counters, one line per mount plus a total: hit/miss
	// rates, negative hits, invalidations, and how many walks took the
	// lock-free fast path versus falling back to the locked walk.
	k.ProcFS.Register("dcache", func() string {
		return k.dcache.String()
	})
	// One line per mounted filesystem: the errors=remount-ro state surface.
	// A latched mount shows rw=false with the typed cause that tripped it.
	k.ProcFS.Register("mounts", func() string {
		var b strings.Builder
		line := func(dev, path, kind string, degraded, ro bool, cause error) {
			fmt.Fprintf(&b, "%s %s %s rw=%t degraded=%t", dev, path, kind, !ro, degraded)
			if cause != nil {
				fmt.Fprintf(&b, " errors=%q", cause.Error())
			}
			b.WriteByte('\n')
		}
		if k.RootFS != nil {
			degraded, ro, cause := k.RootFS.Health()
			line("rd0", "/", "xv6fs", degraded, ro, cause)
		}
		if k.FatFS != nil {
			degraded, ro, cause := k.FatFS.Health()
			line("sd0", "/d", "fat32", degraded, ro, cause)
		}
		return b.String()
	})
	k.ProcFS.Register("tasks", func() string {
		var b strings.Builder
		for _, t := range k.Sched.Tasks() {
			fmt.Fprintf(&b, "%d %s %s cpu=%dus\n", t.ID, t.Name, t.State(), t.CPUTime().Microseconds())
		}
		return b.String()
	})
}

// PanicDump is the panic-button handler: dump every core's current task
// and call stack over UART, even if the kernel is deadlocked (§5.1).
func (k *Kernel) PanicDump(core int) {
	k.Printk("\n=== PANIC BUTTON (fiq on core %d) ===\n", core)
	for c := 0; c < k.cfg.Cores; c++ {
		t := k.Sched.Current(c)
		if t == nil {
			k.Printk("cpu%d: idle (wfi)\n", c)
			continue
		}
		k.Printk("cpu%d: %s\n", c, t.String())
		k.Printk("%s", k.Unwinder.Format(t.ID))
	}
	k.mu.Lock()
	k.panicLog = append(k.panicLog, fmt.Sprintf("fiq@core%d", core))
	k.mu.Unlock()
}

// PanicDumps reports how many emergency dumps have fired.
func (k *Kernel) PanicDumps() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.panicLog)
}

// fat32Format formats a block device as FAT32 (mkimage and tests use it).
func fat32Format(dev fs.BlockDevice) error { return fat32.Mkfs(dev) }
