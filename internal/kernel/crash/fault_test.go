// Fault-plan fuzzing: the crash harness's randomized workload runs over a
// seeded FaultPlan injected under the request queue — transient error
// bursts, persistent bad sectors, torn writes, latency spikes and whole-
// device death — and the stack is held to its resilience contract:
//
//   - every run completes or degrades cleanly: no panic, no hang (a
//     watchdog guards each run), and a mount that latched read-only has a
//     typed cause and refuses mutations with fs.ErrReadOnly;
//   - whatever physically landed is recoverable: the final image AND a
//     random crash prefix of it pass the post-crash checker, mount,
//     take live traffic and end strictly fsck-clean.
//
// The FaultDisk sits ABOVE the Recorder (FaultDisk → Recorder → ramdisk),
// so the recorded write log is exactly what reached the media — torn
// prefixes included — and ImageAt composes fault injection with
// crash-point injection.
//
// One integer names a whole fault schedule (hw.RandomPlan derives every
// probability from the seed). Every randomized run logs its seed; rerun a
// failure deterministically with FAULT_SEED=<seed> go test
// ./internal/kernel/crash/.
package crash_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"protosim/internal/hw"
	"protosim/internal/kernel/blkq"
	"protosim/internal/kernel/crash"
	"protosim/internal/kernel/fat32"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/xv6fs"
)

// faultWatchdog bounds one fuzz run. A run that cannot finish inside it
// has hung — the exact failure mode the queue's command timeouts and the
// dead-device latch exist to prevent — so the watchdog panics with the
// run's context to fail loudly with all goroutine stacks.
const faultWatchdog = 2 * time.Minute

// faultRegressionSeeds always run, -short included: plans beyond the
// short range that once exposed bugs. 67 gives up a FAT writeback
// between an append and the publish of its size.
var faultRegressionSeeds = []int64{67}

// faultSeeds returns the plan seeds for one FS's fuzz sweep: a pinned
// deterministic range (CI runs the same plans every time), the pinned
// regression plans, and, outside -short, one fresh randomized seed.
// FAULT_SEED=<n> replays a single plan.
func faultSeeds(t *testing.T) []int64 {
	if env := os.Getenv("FAULT_SEED"); env != "" {
		s, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad FAULT_SEED %q: %v", env, err)
		}
		t.Logf("fault seed %d (from FAULT_SEED)", s)
		return []int64{s}
	}
	n := 100
	if testing.Short() {
		n = 12
	}
	out := make([]int64, 0, n+len(faultRegressionSeeds)+1)
	for i := 1; i <= n; i++ {
		out = append(out, int64(i))
	}
	for _, s := range faultRegressionSeeds {
		if s > int64(n) {
			out = append(out, s)
		}
	}
	if !testing.Short() {
		s := time.Now().UnixNano()
		t.Logf("randomized fault seed %d (rerun with FAULT_SEED=%d)", s, s)
		out = append(out, s)
	}
	return out
}

// faultTolerable extends the workload's error filter with everything a
// faulty device may legitimately surface: the typed injection errors, the
// timeout the queue reports for stalled commands, and the read-only latch
// a degraded mount answers with afterwards.
func faultTolerable(err error) bool {
	if tolerable(err) {
		return true
	}
	for _, e := range []error{fs.ErrReadOnly, fs.ErrDeviceDead, fs.ErrBadSector,
		fs.ErrSDInjected, blkq.ErrCmdTimeout} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// healther is the degraded-mount surface both filesystems expose.
type healther interface {
	Health() (degraded, readOnly bool, cause error)
}

// checkDegradation asserts the clean-degradation contract on a mount that
// survived a fault run: IF it latched read-only it must carry a typed
// cause, count as degraded, and refuse mutations with fs.ErrReadOnly.
func checkDegradation(t *testing.T, ctx string, fsys fs.FileSystem) {
	t.Helper()
	degraded, ro, cause := fsys.(healther).Health()
	if !ro {
		return
	}
	if cause == nil {
		t.Fatalf("%s: read-only latched with nil cause", ctx)
	}
	if !degraded {
		t.Fatalf("%s: read-only but not degraded", ctx)
	}
	if _, err := openOF(fsys, "/ro.probe", fs.OCreate|fs.OWrOnly); !errors.Is(err, fs.ErrReadOnly) {
		t.Fatalf("%s: create on latched mount = %v, want ErrReadOnly", ctx, err)
	}
}

// faultQueue wires a FaultDisk into a request queue the way the kernel
// does: async submit/completion halves, completion notifier as the IRQ.
func faultQueue(fd *hw.FaultDisk, opts blkq.Options) *blkq.Queue {
	opts.Async = fd
	q := blkq.New(fd, opts)
	fd.SetNotify(func() { q.CompletionIRQ() })
	return q
}

// addStats accumulates per-plan injection counters so the sweep can prove
// it injected real faults (a fuzz that injects nothing tests nothing).
func addStats(agg *hw.FaultStats, s hw.FaultStats) {
	agg.Commands += s.Commands
	agg.Transient += s.Transient
	agg.BadSector += s.BadSector
	agg.Torn += s.Torn
	agg.Latency += s.Latency
	agg.Stalls += s.Stalls
	agg.DeadFails += s.DeadFails
	agg.BadSectors += s.BadSectors
}

// fuzzOps is the per-run workload size (the crash sweep's op mix).
func fuzzOps() int {
	if testing.Short() {
		return 25
	}
	return 40
}

// fuzzXv6Plan runs one xv6fs fault-plan round trip and returns what the
// disk injected.
func fuzzXv6Plan(t *testing.T, seed int64, plan hw.FaultPlan, qopts blkq.Options) hw.FaultStats {
	t.Helper()
	ctx := fmt.Sprintf("xv6fs seed %d %s", seed, plan)
	wd := time.AfterFunc(faultWatchdog, func() { panic("fault fuzz hung: " + ctx) })
	defer wd.Stop()

	rd := fs.NewRamdisk(xv6fs.BlockSize, xvBlocks)
	if err := xv6fs.Mkfs(rd, xvNInodes); err != nil {
		t.Fatal(err)
	}
	rec := crash.NewRecorder(rd)
	fd := hw.NewFaultDisk(rec, plan)
	q := faultQueue(fd, qopts)

	fsys, err := xv6fs.MountWith(q, nil, xvCache)
	if err != nil {
		// A fresh image mounts with a handful of reads; an unlucky plan can
		// fail them. Nothing was written, so the image below must verify.
		if !faultTolerable(err) {
			t.Fatalf("%s: mount: %v", ctx, err)
		}
	} else {
		fsys.SetDcache(newDC()) // read-only latch must kill it cleanly
		workloadWith(t, fsys, rand.New(rand.NewSource(seed)), fuzzOps(), faultTolerable)
		if err := fsys.Sync(nil); err != nil && !faultTolerable(err) {
			t.Fatalf("%s: sync: %v", ctx, err)
		}
		checkDegradation(t, ctx, fsys)
	}

	// Recovery sees the device with its fault history gone (a replaced
	// controller): the physically-landed image and a random crash prefix of
	// it must both recover to a strictly clean volume.
	w := rec.Writes()
	verifyXv6(t, rec.ImageAt(w), ctx+" final")
	if w > 0 {
		k := rand.New(rand.NewSource(^seed)).Intn(w)
		verifyXv6(t, rec.ImageAt(k), fmt.Sprintf("%s prefix %d/%d", ctx, k, w))
	}
	return fd.Stats()
}

// fuzzFatPlan is the FAT32 twin of fuzzXv6Plan.
func fuzzFatPlan(t *testing.T, seed int64, plan hw.FaultPlan, qopts blkq.Options) hw.FaultStats {
	t.Helper()
	ctx := fmt.Sprintf("fat32 seed %d %s", seed, plan)
	wd := time.AfterFunc(faultWatchdog, func() { panic("fault fuzz hung: " + ctx) })
	defer wd.Stop()

	rd := fs.NewRamdisk(fat32.SectorSize, fatSectors)
	if err := fat32.Mkfs(rd); err != nil {
		t.Fatal(err)
	}
	rec := crash.NewRecorder(rd)
	fd := hw.NewFaultDisk(rec, plan)
	q := faultQueue(fd, qopts)

	fsys, err := fat32.MountWith(q, nil, fatCache)
	if err != nil {
		if !faultTolerable(err) {
			t.Fatalf("%s: mount: %v", ctx, err)
		}
	} else {
		fsys.SetDcache(newDC()) // read-only latch must kill it cleanly
		workloadWith(t, fsys, rand.New(rand.NewSource(seed)), fuzzOps(), faultTolerable)
		if err := fsys.Sync(nil); err != nil && !faultTolerable(err) {
			t.Fatalf("%s: sync: %v", ctx, err)
		}
		checkDegradation(t, ctx, fsys)
	}

	w := rec.Writes()
	verifyFat(t, rec.ImageAt(w), ctx+" final")
	if w > 0 {
		k := rand.New(rand.NewSource(^seed)).Intn(w)
		verifyFat(t, rec.ImageAt(k), fmt.Sprintf("%s prefix %d/%d", ctx, k, w))
	}
	return fd.Stats()
}

func TestFaultPlanFuzzXv6fs(t *testing.T) {
	var agg hw.FaultStats
	seeds := faultSeeds(t)
	for _, seed := range seeds {
		addStats(&agg, fuzzXv6Plan(t, seed, hw.RandomPlan(seed), blkq.Options{PlugDelay: -1}))
	}
	t.Logf("xv6fs fault fuzz: %d plans, %d commands, %d transient, %d bad-sector, %d torn, %d dead-fails",
		len(seeds), agg.Commands, agg.Transient, agg.BadSector, agg.Torn, agg.DeadFails)
	if agg.Transient+agg.BadSector+agg.Torn+agg.DeadFails == 0 {
		t.Fatal("fault fuzz injected nothing — the plans are inert")
	}
}

func TestFaultPlanFuzzFAT32(t *testing.T) {
	var agg hw.FaultStats
	seeds := faultSeeds(t)
	for _, seed := range seeds {
		addStats(&agg, fuzzFatPlan(t, seed, hw.RandomPlan(seed), blkq.Options{PlugDelay: -1}))
	}
	t.Logf("fat32 fault fuzz: %d plans, %d commands, %d transient, %d bad-sector, %d torn, %d dead-fails",
		len(seeds), agg.Commands, agg.Transient, agg.BadSector, agg.Torn, agg.DeadFails)
	if agg.Transient+agg.BadSector+agg.Torn+agg.DeadFails == 0 {
		t.Fatal("fault fuzz injected nothing — the plans are inert")
	}
}

// TestFaultPlanStalls feeds the timeout path: commands that never
// complete. RandomPlan leaves stalls out (they cost wall-clock), so this
// sweep pins plans with a high stall rate and a short command timeout and
// requires (a) every run to complete or degrade cleanly and (b) the
// timeout machinery to have actually fired across the sweep.
func TestFaultPlanStalls(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	qopts := blkq.Options{PlugDelay: -1, CmdTimeout: 10 * time.Millisecond}
	var agg hw.FaultStats
	for _, seed := range seeds {
		plan := hw.FaultPlan{Seed: seed, PStall: 0.15, PTransient: 0.05}
		addStats(&agg, fuzzXv6Plan(t, seed, plan, qopts))
		addStats(&agg, fuzzFatPlan(t, seed, plan, qopts))
	}
	if agg.Stalls == 0 {
		t.Fatal("stall sweep stalled nothing — the timeout path went unexercised")
	}
	t.Logf("stall sweep: %d commands, %d stalled", agg.Commands, agg.Stalls)
}
