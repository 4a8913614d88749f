package main

import (
	"runtime"
	"strings"
	"time"

	"protosim/internal/hw"
	"protosim/internal/kernel/bcache"
	"protosim/internal/kernel/bufpool"
	"protosim/internal/kernel/dcache"
	"protosim/internal/kernel/jnl"
	"protosim/internal/kernel/net"
)

// Per-layer counters are read through the kernel's exported accessors at
// both ends of a traced window; the metrics are their deltas, normalised
// per primary op where a count scales with the work done. The journal is
// the exception: jnl.Journal.Stats reads counters that a commit writes
// outside the journal lock, so they are read once the system has shut
// down, and cover every op since boot.

// devCounters is one block device's cache and request-queue state.
type devCounters struct {
	hits, misses, evictions, writebacks int64
	readahead, daemonFlushes, giveUps   int64
	submitted, dispatched, retries      int64
	plugHits, plugTimeouts              int64
	inflightPeak, queuedPeak            int64
}

type snapshot struct {
	syscalls       int64
	dcache         dcache.Stats
	fatRangeBlocks int64
	dev            map[string]devCounters
	sdCmds         uint64
	sdWriteBlocks  uint64
	sdWaitUs       uint64
	kernelNet      net.StackStats
	peerNet        net.StackStats
	nic, peerNIC   hw.NICStats
	frames, rings  bufpool.Stats
	mallocs, alloc uint64
	gcCycles       uint32
	cpu            map[string]time.Duration // task group -> on-CPU time
}

// cpuGroup names the group of a kernel task whose CPU time is reported:
// each writeback daemon, and the channel server's tasks together; "" for
// the rest. The load loops are summed from their clients.
func cpuGroup(task string) string {
	switch {
	case strings.HasPrefix(task, "kflushd-"):
		return task
	case strings.HasPrefix(task, "chanserv"):
		return "chanserv"
	}
	return ""
}

func (r *run) snapshot() snapshot {
	k := r.sys.Kernel
	s := snapshot{
		syscalls: k.SyscallCount(),
		dev:      map[string]devCounters{},
		cpu:      map[string]time.Duration{},
	}
	root, fat := k.RootFS.Dcache().Stats(), k.FatFS.Dcache().Stats()
	s.dcache = dcache.Stats{
		Hits:     root.Hits + fat.Hits,
		NegHits:  root.NegHits + fat.NegHits,
		Misses:   root.Misses + fat.Misses,
		FastRes:  root.FastRes + fat.FastRes,
		FastFail: root.FastFail + fat.FastFail,
	}
	_, s.fatRangeBlocks = k.FatFS.RangeStats()
	caches := map[string]*bcache.Cache{"rd0": k.RootFS.Cache(), "sd0": k.FatFS.Cache()}
	for _, d := range k.BlockDevs() {
		var dc devCounters
		if c := caches[d.Name()]; c != nil {
			dc.hits, dc.misses, dc.evictions, dc.writebacks = c.Stats()
			_, _, dc.readahead = c.RangeStats()
			dc.daemonFlushes, dc.giveUps = c.DaemonFlushes(), c.GiveUps()
		}
		if q := d.Queue(); q != nil {
			dc.submitted, dc.dispatched, _, dc.inflightPeak, dc.queuedPeak = q.Stats()
			dc.plugHits, dc.plugTimeouts = q.PlugStats()
			dc.retries, _, _, _ = q.FaultStats()
		}
		s.dev[d.Name()] = dc
	}
	m := r.sys.Machine
	s.sdCmds, _, s.sdWriteBlocks, _ = m.SD.Stats()
	poll, dma := m.SD.WaitStats()
	s.sdWaitUs = poll + dma
	if k.Net != nil {
		s.kernelNet = k.Net.Stats()
		s.nic = m.NIC.Stats()
	}
	if r.peer != nil {
		s.peerNet = r.peer.stack.Stats()
		s.peerNIC = m.PeerNIC.Stats()
	}
	s.frames = bufpool.Shared(hw.NICMTU).Stats()
	s.rings = bufpool.Shared(net.RingSize).Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.alloc, s.gcCycles = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	for _, t := range k.Sched.Tasks() {
		if g := cpuGroup(t.Name); g != "" {
			s.cpu[g] += t.CPUTime()
		}
	}
	for _, c := range r.clients {
		s.cpu["load"] += c.task.CPUTime()
	}
	return s
}

// tracedCalls are the calls the load loops make into a layer, each
// reported by name in a traced run (0 where a workload never makes it).
var tracedCalls = []string{
	"open", "write", "fsync", "close", "pread", "stat", "rename", "unlink",
	"peer.write", "peer.read",
}

// perLayer fills the per-layer metrics of a traced window, once the
// system has shut down cleanly.
func (r *run) perLayer(res *Result) {
	res.Layered = true
	a, b, window := r.before, r.after, r.windowLen
	ops := r.windowOps
	per := func(v float64) float64 { return ratio(v, ops) }
	l := res.PerLayer
	set := func(name string, v float64, unit string) { l[name] = metric{v, unit} }

	set("sys.calls_per_op", per(float64(b.syscalls-a.syscalls)), "count/op")
	sum := r.tr.summary()
	for _, name := range tracedCalls {
		prefix := "sys." + name
		if strings.HasPrefix(name, "peer.") {
			prefix = name
		}
		d := sum.calls[name]
		q := d.quantiles(0.5, 0.99)
		set(prefix+".p50_us", q[0], "us")
		set(prefix+".p99_us", q[1], "us")
		set(prefix+".count", float64(len(d)), "count")
	}
	set("trace.op_self_p50_us", sum.self.quantiles(0.5)[0], "us")
	set("trace.child_share", sum.childShare, "ratio")
	set("trace.ops_s", res.EndToEnd["ops_s"].Value, "op/s")

	dc, dd := a.dcache, b.dcache
	hits := float64(dd.Hits - dc.Hits + dd.NegHits - dc.NegHits)
	set("dcache.hit_ratio", ratio(hits, hits+float64(dd.Misses-dc.Misses)), "ratio")
	set("dcache.neg_hits_per_op", per(float64(dd.NegHits-dc.NegHits)), "count/op")
	fast := float64(dd.FastRes - dc.FastRes + dd.FastFail - dc.FastFail)
	set("dcache.fastfail_ratio", ratio(float64(dd.FastFail-dc.FastFail), fast), "ratio")

	var js jnl.Stats
	if j := r.sys.Kernel.RootFS.Journal(); j != nil {
		js = j.Stats()
	}
	allOps := float64(r.primaryOps.Load())
	set("jnl.commits_per_op", ratio(float64(js.Commits), allOps), "count/op")
	set("jnl.absorbed_per_commit", ratio(float64(js.Absorbed), float64(js.Commits)), "count")
	set("jnl.checkpoints_per_op", ratio(float64(js.Checkpoints), allOps), "count/op")
	set("jnl.aborts", float64(js.Aborts), "count")

	set("fat32.range_blocks_per_op", per(float64(b.fatRangeBlocks-a.fatRangeBlocks)), "count/op")

	for _, dev := range []string{"sd0", "rd0"} {
		x, y := a.dev[dev], b.dev[dev]
		lookups := float64(y.hits - x.hits + y.misses - x.misses)
		set("bcache."+dev+".hit_ratio", ratio(float64(y.hits-x.hits), lookups), "ratio")
		set("bcache."+dev+".lookups_per_op", per(lookups), "count/op")
		set("bcache."+dev+".readahead_blocks", float64(y.readahead-x.readahead), "count")
		set("bcache."+dev+".evictions_per_op", per(float64(y.evictions-x.evictions)), "count/op")
		set("bcache."+dev+".writebacks_per_op", per(float64(y.writebacks-x.writebacks)), "count/op")
		set("bcache."+dev+".daemon_flushes", float64(y.daemonFlushes-x.daemonFlushes), "count")
		set("bcache."+dev+".give_ups", float64(y.giveUps-x.giveUps), "count")
		cmds := float64(y.dispatched - x.dispatched)
		set("blkq."+dev+".merge_ratio", ratio(float64(y.submitted-x.submitted), cmds), "ratio")
		set("blkq."+dev+".cmds_per_op", per(cmds), "count/op")
		set("blkq."+dev+".plug_hits", float64(y.plugHits-x.plugHits), "count")
		set("blkq."+dev+".plug_timeouts", float64(y.plugTimeouts-x.plugTimeouts), "count")
		set("blkq."+dev+".inflight_peak", float64(y.inflightPeak), "count")
		set("blkq."+dev+".queued_peak", float64(y.queuedPeak), "count")
		set("blkq."+dev+".retries", float64(y.retries-x.retries), "count")
		set("sched.kflushd-"+dev+".cpu_ms", ms(b.cpu["kflushd-"+dev]-a.cpu["kflushd-"+dev]), "ms")
	}

	waitUs := float64(b.sdWaitUs - a.sdWaitUs)
	set("sd.inflight_avg", ratio(waitUs, float64(window.Microseconds())), "count")
	set("sd.us_per_cmd", ratio(waitUs, float64(b.sdCmds-a.sdCmds)), "us")
	devBytes := float64(b.sdWriteBlocks-a.sdWriteBlocks) * hw.SDBlockSize
	set("sd.write_amp", ratio(devBytes, float64(r.sdUserBytes)), "ratio")

	kn, pn := b.kernelNet, b.peerNet
	set("net.segs_per_op", per(float64(kn.SegsIn-a.kernelNet.SegsIn+kn.SegsOut-a.kernelNet.SegsOut)), "count/op")
	set("net.retrans", float64(kn.Retrans-a.kernelNet.Retrans+pn.Retrans-a.peerNet.Retrans), "count")
	set("net.bad_segs", float64(kn.BadSegs-a.kernelNet.BadSegs+pn.BadSegs-a.peerNet.BadSegs), "count")
	set("peer.segs_per_op", per(float64(pn.SegsIn-a.peerNet.SegsIn+pn.SegsOut-a.peerNet.SegsOut)), "count/op")
	nb, na := b.nic, a.nic
	set("nic.frames_per_op", per(float64(nb.TxFrames-na.TxFrames+nb.RxFrames-na.RxFrames)), "count/op")
	set("nic.irqs_per_op", per(float64(nb.TxIRQs-na.TxIRQs+nb.RxIRQs-na.RxIRQs)), "count/op")
	set("nic.rx_drops", float64(nb.RxDrops-na.RxDrops+b.peerNIC.RxDrops-a.peerNIC.RxDrops), "count")
	set("peer.deliver_to_read_us", sum.deliver.quantiles(0.5)[0], "us")

	set("bufpool.2048.news_per_op", per(float64(b.frames.News-a.frames.News)), "count/op")
	set("bufpool.32768.news_per_op", per(float64(b.rings.News-a.rings.News)), "count/op")
	set("go.allocs_per_op", per(float64(b.mallocs-a.mallocs)), "count/op")
	set("go.bytes_per_op", per(float64(b.alloc-a.alloc)), "B/op")
	set("go.gc_cycles", float64(b.gcCycles-a.gcCycles), "count")
	set("sched.load.cpu_ms", ms(b.cpu["load"]-a.cpu["load"]), "ms")
	set("sched.chanserv.cpu_ms", ms(b.cpu["chanserv"]-a.cpu["chanserv"]), "ms")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
