package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"protosim/internal/core"
	"protosim/internal/hw"
	"protosim/internal/kernel"
	"protosim/internal/kernel/fat32"
	"protosim/internal/kernel/fat32/fatfsck"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/net"
	"protosim/internal/kernel/sched"
	"protosim/internal/kernel/xv6fs/xfsck"
)

const (
	// stallAfter is the watchdog limit: load running and no op completing
	// for this long declares the workload stalled.
	stallAfter = 10 * time.Second
	// setupRuns is how many systems each run boots, populates and warms
	// up; setup_s is their median and the last one is measured.
	setupRuns = 3
)

// config is one workload run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	threads  int    // host threads (GOMAXPROCS) the simulator runs on
	trace    string // span file of a traced run; "" = untraced
	dumpDir  string // where a stall writes its goroutine dump
}

// kind says which latency an op feeds.
type kind int

const (
	primary kind = iota // the workload's op: ops_s, op_p50_us, op_p99_us
	barrier             // its durability or acknowledgement barrier: sync_p50_us, sync_p99_us
)

var (
	// errMismatch marks an op whose output failed its check.
	errMismatch = errors.New("output mismatch")
	// errStalled reports that the watchdog fired during set-up.
	errStalled = errors.New("stalled")
)

// run is one booted system under one workload.
type run struct {
	cfg  config
	spec *spec
	wl   workload
	sys  *core.System
	peer *peer   // net workloads only
	tr   *tracer // nil when untraced
	rng  *rand.Rand

	stop      atomic.Bool  // load loops exit at their next op boundary
	recording atomic.Bool  // completed ops count toward the window
	lastDone  atomic.Int64 // unix ns of the latest op completion
	warm      atomic.Int64
	warmed    chan struct{}
	broken    chan struct{} // closed when a load loop fails
	stalled   chan struct{} // closed by the watchdog
	loopsDone chan struct{} // closed once every load loop has returned
	warmOnce  sync.Once
	brokeOnce sync.Once

	loops   sync.WaitGroup
	mu      sync.Mutex
	clients []*client
	checks  []string // failed output checks
	errs    []string // failed ops and harness errors

	primaryOps    atomic.Int64 // primary ops completed since boot
	before, after snapshot     // layer counters at the ends of a traced window
	windowLen     time.Duration
	windowOps     float64 // primary ops completed in the window
	sdUserBytes   int64   // payload the window's barriers made durable on the SD card
}

// client is one load loop: a kernel process or a peer-side task.
type client struct {
	r    *run
	id   int
	name string
	rng  *rand.Rand
	tr   *clientTrace // nil when untraced
	task *sched.Task  // for CPU accounting; set by the spawner

	inflight atomic.Bool // an op has begun and not ended

	mu                sync.Mutex // window tallies, read after the loop ends or stalls
	lat               [2]samples // per kind
	done              [2]int64   // per kind
	bytes             [2]int64   // payload per kind
	late              samples    // open-loop generator lateness
	attempted, failed int64
}

// peer is the far end of the NIC link: a host-side stack whose sockets are
// driven by tasks on a scheduler of its own, so they block instead of spin.
type peer struct {
	stack *net.Stack
	sched *sched.Scheduler
}

func newPeer(m *hw.Machine, tr *tracer) *peer {
	st := net.NewStack("peer0", kernel.NetPeerHost, m.PeerNIC, net.Options{
		After: func(d time.Duration, fn func()) func() bool { return time.AfterFunc(d, fn).Stop },
	})
	notify := st.IRQ
	if tr != nil {
		notify = tr.rxNotify(m.PeerNIC.RxQueued, st.IRQ)
	}
	m.PeerNIC.SetNotify(notify)
	s := sched.New(sched.Config{Cores: 1})
	s.Start()
	return &peer{stack: st, sched: s}
}

func (p *peer) close() error {
	p.stack.Close()
	return p.sched.Shutdown(5 * time.Second)
}

// boot brings up a Prototype 5 system, populates it and starts the load.
func boot(cfg config, sp *spec) (*run, error) {
	sys, err := core.NewSystem(core.Options{
		Prototype:  core.Prototype5,
		Cores:      2,
		Mode:       kernel.ModeProto,
		AssetScale: 8,
		EnableNet:  sp.net,
	})
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	r := &run{
		cfg:       cfg,
		spec:      sp,
		sys:       sys,
		rng:       rand.New(rand.NewPCG(cfg.seed, 0)),
		warmed:    make(chan struct{}),
		broken:    make(chan struct{}),
		stalled:   make(chan struct{}),
		loopsDone: make(chan struct{}),
	}
	if cfg.trace != "" {
		r.tr = newTracer()
	}
	if sp.net {
		r.peer = newPeer(sys.Machine, r.tr)
	}
	r.wl = sp.create(r)
	r.lastDone.Store(time.Now().UnixNano())
	go r.watchdog()
	if err := r.wl.start(r); err != nil {
		return r, fmt.Errorf("%s: start: %w", sp.name, err)
	}
	go func() {
		r.loops.Wait()
		close(r.loopsDone)
	}()
	return r, nil
}

// watchdog closes r.stalled when neither populating nor the load loops
// have made progress for stallAfter.
func (r *run) watchdog() {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.loopsDone:
			return
		case <-tick.C:
			if time.Since(time.Unix(0, r.lastDone.Load())) > stallAfter {
				close(r.stalled)
				return
			}
		}
	}
}

// populate runs fn as a kernel process with the SD card's latency model
// off: populating is set-up, and the card is measured at scale 1. fn
// reports its progress to the watchdog with r.progress.
func (r *run) populate(fn func(p *kernel.Proc) error) error {
	sd := r.sys.Machine.SD
	sd.SetLatencyScale(0)
	defer sd.SetLatencyScale(1)
	done := make(chan error, 1)
	r.sys.Kernel.Spawn("populate", 0, func(p *kernel.Proc, _ []string) int {
		done <- fn(p)
		return 0
	}, nil)
	select {
	case err := <-done:
		return err
	case <-r.stalled:
		return fmt.Errorf("populate: %w", errStalled)
	}
}

// progress tells the watchdog that set-up work is advancing.
func (r *run) progress() { r.lastDone.Store(time.Now().UnixNano()) }

func (r *run) newClient(name string) *client {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &client{r: r, id: len(r.clients) + 1, name: name}
	c.rng = rand.New(rand.NewPCG(r.cfg.seed, uint64(c.id)))
	if r.tr != nil {
		c.tr = r.tr.client(c.id, name)
	}
	r.clients = append(r.clients, c)
	return c
}

// goTask starts a load loop as a kernel process.
func (r *run) goTask(name string, body func(p *kernel.Proc, c *client) error) {
	c := r.newClient(name)
	r.loops.Add(1)
	p := r.sys.Kernel.Spawn(name, 0, func(p *kernel.Proc, _ []string) int {
		defer r.loops.Done()
		r.loopExit(c, body(p, c))
		return 0
	}, []string{name})
	c.task = p.Task
}

// goPeer starts a load loop as a task on the peer's scheduler.
func (r *run) goPeer(name string, body func(t *sched.Task, c *client) error) {
	c := r.newClient(name)
	r.loops.Add(1)
	c.task = r.peer.sched.Go(name, 0, func(t *sched.Task) {
		defer r.loops.Done()
		r.loopExit(c, body(t, c))
	})
}

func (r *run) loopExit(c *client, err error) {
	if err == nil {
		return
	}
	r.errorf("%s: %v", c.name, err)
	r.brokeOnce.Do(func() { close(r.broken) })
}

// checkf records a failed output check.
func (r *run) checkf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.checks) < 20 {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

func (r *run) errorf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// names draws n distinct lowercase names of the given length from the
// run's seeded stream.
func (r *run) names(n, length int) []string {
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		b := make([]byte, length)
		for i := range b {
			b[i] = byte('a' + r.rng.IntN(26))
		}
		if s := string(b); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// --- the op protocol each load loop follows ---

// begin marks an op in flight and opens its span.
func (c *client) begin(name string) time.Time {
	c.inflight.Store(true)
	if c.tr != nil {
		c.tr.begin(name)
	}
	return time.Now()
}

// call opens a child span around one call into a layer.
func (c *client) call() int64 {
	if c.tr == nil {
		return -1
	}
	return c.tr.call()
}

func (c *client) ret(name string, start int64) {
	if c.tr != nil {
		c.tr.ret(name, start)
	}
}

// record counts one op of kind k timed from `from` (its due time, for an
// open-loop op) to now, moving nbytes of payload. Only ops completing
// inside the window are tallied; earlier ones advance the warm-up.
func (c *client) record(k kind, from time.Time, err error, nbytes int) {
	now := time.Now()
	if err == nil {
		c.r.lastDone.Store(now.UnixNano())
		if k == primary {
			c.r.primaryOps.Add(1)
		}
	}
	if !c.r.recording.Load() {
		if k == primary && err == nil && c.r.warm.Add(1) == c.r.spec.warmOps {
			c.r.warmOnce.Do(func() { close(c.r.warmed) })
		}
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		return
	}
	c.lat[k].add(now.Sub(from))
	c.done[k]++
	c.bytes[k] += int64(nbytes)
}

// lateBy records how late an open-loop generator started an op.
func (c *client) lateBy(d time.Duration) {
	if !c.r.recording.Load() {
		return
	}
	c.mu.Lock()
	c.late.add(d)
	c.mu.Unlock()
}

// end closes the op's span and clears the in-flight mark.
func (c *client) end() {
	c.inflight.Store(false)
	if c.tr != nil {
		c.tr.end()
	}
}

// --- one run, start to finish ---

// measure runs one workload on cfg.threads host threads: setupRuns boots,
// each populated and warmed up, then the measured window on the last one,
// then shutdown and checks.
//
// The benchmark's baselines are taken on one host thread, the two simulated
// cores interleaved on it. With two threads, the kernel's sleep locks and
// semaphores, which check and then sleep, lose wake-ups between tasks
// running truly in parallel: sd_append wedged in 6 of 10 twenty-second runs
// and rd_meta_churn in 4 of 4, against none of over 200 runs on one thread.
// -threads 2 reproduces those stalls, which the watchdog counts.
func measure(cfg config) *Result {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.threads))
	res := newResult(cfg)
	if r := setUp(cfg, res); r != nil {
		if r.window(res) && r.teardown(res, true) && r.tr != nil {
			r.perLayer(res)
		}
		if r.tr != nil {
			if err := r.tr.write(cfg.trace, cfg.workload, cfg.seed); err != nil {
				res.Errors = append(res.Errors, err.Error())
			}
		}
	}
	res.finalize()
	return res
}

// setUp boots, populates and warms up setupRuns systems, timing each, and
// returns the last one still running; nil if set-up failed or stalled.
func setUp(cfg config, res *Result) *run {
	sp := specNamed(cfg.workload)
	var setups []float64
	for i := 0; ; i++ {
		start := time.Now()
		r, err := boot(cfg, sp)
		switch {
		case errors.Is(err, errStalled):
			r.stall(res)
			return nil
		case err != nil:
			res.Errors = append(res.Errors, err.Error())
			return nil
		}
		select {
		case <-r.warmed:
		case <-r.broken:
			r.teardown(res, false)
			return nil
		case <-r.stalled:
			r.stall(res)
			return nil
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == setupRuns-1 {
			res.EndToEnd["setup_s"] = metric{median(setups), "s"}
			return r
		}
		if !r.teardown(res, false) {
			return nil
		}
	}
}

// window measures for cfg.seconds and fills the end-to-end metrics; a
// traced window also keeps the layer counters at both ends. It reports
// false when the load stalled, leaving the system wedged.
func (r *run) window(res *Result) bool {
	if r.tr != nil {
		var ok bool
		if r.before, ok = r.snapshotOrStall(); !ok {
			r.stall(res)
			return false
		}
		r.tr.on.Store(true)
	}
	cpu0 := cpuTime()
	start := time.Now()
	r.recording.Store(true)
	stalled := false
	timer := time.NewTimer(time.Duration(r.cfg.seconds) * time.Second)
	select {
	case <-timer.C:
	case <-r.stalled:
		stalled = true
	}
	timer.Stop()
	r.recording.Store(false)
	end := time.Now()
	cpu := cpuTime() - cpu0
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	if stalled {
		// Timings come from the ops completed before the stall.
		end = time.Unix(0, r.lastDone.Load())
		if end.Before(start) {
			end = start
		}
	} else if r.tr != nil {
		var ok bool
		if r.after, ok = r.snapshotOrStall(); !ok {
			stalled = true
		}
	}
	r.stop.Store(true)
	if !stalled {
		select {
		case <-r.loopsDone:
		case <-r.stalled:
			stalled = true
		}
	}
	res.Measured = true
	r.windowLen = end.Sub(start)
	r.endToEnd(res, cpu)
	if stalled {
		r.stall(res)
		return false
	}
	return true
}

// teardown stops the load, shuts the system down and, for the measured
// system, checks both images. It reports false if the load stalled.
func (r *run) teardown(res *Result, verify bool) bool {
	r.stop.Store(true)
	select {
	case <-r.loopsDone:
	case <-r.stalled:
		r.stall(res)
		return false
	}
	if err := r.wl.finish(r); err != nil {
		r.errorf("finish: %v", err)
	}
	if r.peer != nil {
		if err := r.peer.close(); err != nil {
			r.errorf("peer: %v", err)
		}
	}
	if err := r.sys.Shutdown(); err != nil {
		r.errorf("shutdown: %v", err)
		res.absorb(r)
		return false
	}
	if verify {
		r.verify()
	}
	res.absorb(r)
	return true
}

// verify checks both images after shutdown: fsck clean, and the
// workload's files hold exactly what it wrote.
func (r *run) verify() {
	sd := fs.NewRamdiskFromImage(hw.SDBlockSize, r.sys.Machine.SD.DumpImage())
	if rep, err := fatfsck.Check(sd, fatfsck.Strict); err != nil {
		r.checkf("fatfsck: %v", err)
	} else if !rep.Clean() {
		r.checkf("%s: %v", rep, rep.Errors[:min(3, len(rep.Errors))])
	}
	for _, d := range r.sys.Kernel.BlockDevs() {
		if d.Name() != "rd0" {
			continue
		}
		if rep, err := xfsck.Check(d, xfsck.Strict); err != nil {
			r.checkf("xfsck: %v", err)
		} else if !rep.Clean() {
			r.checkf("%s: %v", rep, rep.Errors[:min(3, len(rep.Errors))])
		}
	}
	fat, err := fat32.Mount(sd, nil)
	if err != nil {
		r.checkf("mount sd image: %v", err)
		return
	}
	if err := r.wl.verify(r, fat); err != nil {
		r.checkf("%v", err)
	}
}

// stall records a wedged workload: the ops in flight failed, and a
// goroutine dump (with the kernel's task list) is written for diagnosis.
func (r *run) stall(res *Result) {
	r.stop.Store(true)
	r.recording.Store(false)
	res.Stalls++
	for _, c := range r.clients {
		if c.inflight.Load() {
			res.Attempted++
			res.Failed++
		}
	}
	res.absorb(r)
	var b bytes.Buffer
	fmt.Fprintf(&b, "protobench: %s seed %d stalled: no op completed for %v\n\nkernel tasks:\n",
		r.cfg.workload, r.cfg.seed, stallAfter)
	for _, t := range r.sys.Kernel.Sched.Tasks() {
		fmt.Fprintf(&b, "  %s\n", t)
	}
	b.WriteString("\n")
	if err := pprof.Lookup("goroutine").WriteTo(&b, 2); err != nil {
		fmt.Fprintf(&b, "goroutine dump: %v\n", err)
	}
	path := filepath.Join(r.cfg.dumpDir, fmt.Sprintf("stall-%s-seed%d.txt", r.cfg.workload, r.cfg.seed))
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		res.Errors = append(res.Errors, fmt.Sprintf("stall dump: %v", err))
		return
	}
	res.StallDump = path
}

// snapshotOrStall reads the layer counters unless the load stalls first:
// a wedged task may hold a lock the counters need.
func (r *run) snapshotOrStall() (snapshot, bool) {
	ch := make(chan snapshot, 1)
	go func() { ch <- r.snapshot() }()
	select {
	case s := <-ch:
		return s, true
	case <-r.stalled:
		return snapshot{}, false
	}
}

// endToEnd fills the user-visible metrics from the window's tallies.
func (r *run) endToEnd(res *Result, cpu time.Duration) {
	var lat [2]samples
	var done, nbytes [2]int64
	var late samples
	for _, c := range r.clients {
		c.mu.Lock()
		for k := range lat {
			lat[k] = append(lat[k], c.lat[k]...)
			done[k] += c.done[k]
			nbytes[k] += c.bytes[k]
		}
		late = append(late, c.late...)
		res.Attempted += c.attempted
		res.Failed += c.failed
		c.mu.Unlock()
	}
	secs := r.windowLen.Seconds()
	ops := float64(done[primary])
	op := lat[primary].quantiles(0.5, 0.99)
	syn := lat[barrier].quantiles(0.5, 0.99)
	e, l := res.EndToEnd, res.PerLayer
	e["ops_s"] = metric{ratio(ops, secs), "op/s"}
	e["op_p99_us"] = metric{op[1], "us"}
	e["mb_s"] = metric{ratio(float64(nbytes[r.spec.mbKind])/1e6, secs), "MB/s"}
	// The barrier latencies, the op median and CPU time are measured here
	// but listed per-layer, as they do not repeat within a tenth on a shared
	// host: on a 2-vCPU VM across ten seeds, rd_meta_churn's op_p50_us moved
	// three times as far as its ops_s, sd_read_mixed's sync_p99_us read
	// 9.4-24.3 ms, and sd_append's CPU time per op read 213-376 µs.
	l["op_p50_us"] = metric{op[0], "us"}
	l["sync_p50_us"] = metric{syn[0], "us"}
	l["sync_p99_us"] = metric{syn[1], "us"}
	l["cpu_us_per_op"] = metric{ratio(float64(cpu.Microseconds()), ops), "us"}
	l["op.samples"] = metric{float64(len(lat[primary])), "count"}
	l["sync.samples"] = metric{float64(len(lat[barrier])), "count"}
	l["gen.late_p99_us"] = metric{late.quantiles(0.99)[0], "us"}
	if !r.spec.net {
		r.sdUserBytes = nbytes[barrier]
	}
	r.windowOps = ops
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
