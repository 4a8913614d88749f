package fat32

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"protosim/internal/hw"
	"protosim/internal/kernel/bcache"
	"protosim/internal/kernel/blkq"
	"protosim/internal/kernel/fs"
)

// The write-heavy workload: N workers appending small records to their
// own files on ONE latency-bound mount — the shape that rewards
// write-behind (each tail cluster is rewritten many times before it ever
// reaches the device) and the request queue (the flusher's per-block
// submissions from interleaved per-worker allocations merge into long
// commands).
//
// Two configurations:
//
//   - "sync": write-through cache over a queue with synchronous dispatch
//     and no anticipation — the synchronous writeback baseline (every
//     append pays a device round trip for its tail-cluster rewrite). The
//     queue is wbWorkers deep, so every worker's command can be at the
//     card at once, as with no queue at all.
//   - "blkq": write-behind + flusher daemon + request queue over the SD
//     card's async submit/IRQ halves.
//
// The timed region ends with a full Sync, so both configurations measure
// durable throughput.

// asyncSDDev adapts hw.SDCard with its async halves for the queue.
type asyncSDDev struct{ sdDev }

func (d asyncSDDev) SubmitRead(tag uint64, lba, n int, dst []byte) error {
	return d.sd.SubmitRead(tag, lba, n, dst)
}
func (d asyncSDDev) SubmitWrite(tag uint64, lba, n int, src []byte) error {
	return d.sd.SubmitWrite(tag, lba, n, src)
}
func (d asyncSDDev) PopCompletion() (uint64, error, bool) { return d.sd.PopCompletion() }

type writeBenchResult struct {
	Config       string  `json:"config"`
	Workers      int     `json:"workers"`
	TotalBytes   int     `json:"total_bytes"`
	Seconds      float64 `json:"seconds"`
	MBps         float64 `json:"mb_per_s"`
	DeviceCmds   uint64  `json:"device_cmds"`
	DeviceBlocks uint64  `json:"device_write_blocks"`
	QSubmitted   int64   `json:"queue_submitted"`
	QCommands    int64   `json:"queue_commands"`
	MergeRatio   float64 `json:"merge_ratio"`
}

func runWriteHeavy(tb testing.TB, queued bool, workers, appends, appendSize int, latencyScale float64) writeBenchResult {
	tb.Helper()
	ic := hw.NewIRQController(1)
	sd := hw.NewSDCard(65536, ic) // 32 MB card
	sd.SetLatencyScale(0)
	raw := sdDev{sd}
	if err := Mkfs(raw); err != nil {
		tb.Fatal(err)
	}

	copts := bcache.Options{Buffers: 2048, Shards: 8, Readahead: -1}
	var q *blkq.Queue
	if queued {
		adev := asyncSDDev{raw}
		q = blkq.New(adev, blkq.Options{Async: adev})
		ic.Register(hw.IRQSD, 0, func(hw.IRQLine, int) { q.CompletionIRQ() })
	} else {
		q = blkq.New(raw, blkq.Options{Depth: wbWorkers, PlugDelay: -1})
		copts.Policy = bcache.WritePolicyThrough
	}
	f, err := MountWith(q, nil, copts)
	if err != nil {
		tb.Fatal(err)
	}
	if queued {
		go f.Cache().RunDaemon(nil, nil)
		defer f.Cache().StopDaemon()
	}

	files := make([]*fs.OpenFile, workers)
	for w := range files {
		fl, err := openOF(f, fmt.Sprintf("/w%d.log", w), fs.OCreate|fs.OWrOnly)
		if err != nil {
			tb.Fatal(err)
		}
		files[w] = fl
	}
	record := make([]byte, appendSize)
	for i := range record {
		record[i] = byte(i * 17)
	}

	_, _, w0, _ := sd.Stats()
	c0, _, _, _ := sd.Stats()
	sd.SetLatencyScale(latencyScale)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(fl *fs.OpenFile) {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				if _, err := fl.Write(nil, record); err != nil {
					tb.Error(err)
					return
				}
			}
		}(files[w])
	}
	wg.Wait()
	if err := f.Sync(nil); err != nil {
		tb.Fatal(err)
	}
	elapsed := time.Since(start)
	sd.SetLatencyScale(0)
	for _, fl := range files {
		fl.Close(nil)
	}

	c1, _, w1, _ := sd.Stats()
	total := workers * appends * appendSize
	res := writeBenchResult{
		Config:       "sync",
		Workers:      workers,
		TotalBytes:   total,
		Seconds:      elapsed.Seconds(),
		MBps:         float64(total) / (1 << 20) / elapsed.Seconds(),
		DeviceCmds:   c1 - c0,
		DeviceBlocks: w1 - w0,
		MergeRatio:   1,
	}
	if queued {
		res.Config = "blkq"
		sub, disp, _, _, _ := q.Stats()
		res.QSubmitted = sub
		res.QCommands = disp
		if disp > 0 {
			res.MergeRatio = float64(sub) / float64(disp)
		}
	}
	return res
}

// Workload shape shared by the benchmark and the JSON harness: 8 tasks ×
// 192 appends × 512 B on a device at 1/10th of the real SD latency. Small
// records are the point: a 4 KB cluster absorbs 8 appends in cache before
// one writeback, where the synchronous baseline pays 8 cluster rewrites.
const (
	wbWorkers    = 8
	wbAppends    = 192
	wbAppendSize = 512
	wbScale      = 0.1
)

// wbPR5BaselineMBps is the blkq configuration's recorded throughput from
// the PR 5 BENCH_blkq.json, before the crash-consistency PR added the
// ordered-writes discipline (dirent publishes now wait for their cluster
// and FAT sectors). The discipline costs a few targeted flushes per
// create — the regression gate asserts the write-heavy number keeps at
// least 80% of it.
const wbPR5BaselineMBps = 8.04

// The 1-appender fsync workload: one durability-conscious logger
// appending a full cluster and fsyncing after every record. Each fsync
// (bcache.FlushOwner) submits its handful of sectors to an IDLE queue
// with no explicit plug — the lone-submitter shape where, without
// anticipatory plugging, the first requests dispatch solo before their
// adjacent neighbours arrive and the elevator has nothing to merge. With
// PlugDelay the burst accumulates in the anticipatory window (released by
// the fsync's first Wait, so the delay is not actually paid) and goes out
// as one command per contiguous run.
const (
	faAppends    = 96
	faAppendSize = ClusterSize // 8 sectors per fsync: a mergeable burst
)

type fsyncAppendResult struct {
	Config       string  `json:"config"`
	Appends      int     `json:"appends"`
	AppendSize   int     `json:"append_size"`
	Seconds      float64 `json:"seconds"`
	QSubmitted   int64   `json:"queue_submitted"`
	QCommands    int64   `json:"queue_commands"`
	MergeRatio   float64 `json:"merge_ratio"`
	PlugHits     int64   `json:"plug_hits"`
	PlugTimeouts int64   `json:"plug_timeouts"`
}

func runFsyncAppend(tb testing.TB, plugDelay time.Duration, appends, appendSize int, latencyScale float64) fsyncAppendResult {
	tb.Helper()
	ic := hw.NewIRQController(1)
	sd := hw.NewSDCard(65536, ic)
	sd.SetLatencyScale(0)
	raw := sdDev{sd}
	if err := Mkfs(raw); err != nil {
		tb.Fatal(err)
	}
	adev := asyncSDDev{raw}
	q := blkq.New(adev, blkq.Options{Async: adev, PlugDelay: plugDelay})
	ic.Register(hw.IRQSD, 0, func(hw.IRQLine, int) { q.CompletionIRQ() })
	// No daemon and no ratio trigger: the fsync path is the only flusher,
	// so the queue traffic is exactly the lone submitter's.
	f, err := MountWith(q, nil, bcache.Options{Buffers: 2048, Shards: 8, Readahead: -1,
		WritebackRatio: -1, FlushInterval: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	fl, err := openOF(f, "/applog.bin", fs.OCreate|fs.OWrOnly)
	if err != nil {
		tb.Fatal(err)
	}
	record := make([]byte, appendSize)
	for i := range record {
		record[i] = byte(i * 13)
	}
	sd.SetLatencyScale(latencyScale)
	start := time.Now()
	for i := 0; i < appends; i++ {
		if _, err := fl.Write(nil, record); err != nil {
			tb.Fatal(err)
		}
		if err := fl.Sync(nil); err != nil {
			tb.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	sd.SetLatencyScale(0)
	fl.Close(nil)
	if err := f.Sync(nil); err != nil {
		tb.Fatal(err)
	}
	sub, disp, _, _, _ := q.Stats()
	hits, timeouts := q.PlugStats()
	res := fsyncAppendResult{
		Config:       "noplug",
		Appends:      appends,
		AppendSize:   appendSize,
		Seconds:      elapsed.Seconds(),
		QSubmitted:   sub,
		QCommands:    disp,
		MergeRatio:   1,
		PlugHits:     hits,
		PlugTimeouts: timeouts,
	}
	if plugDelay > 0 {
		res.Config = "plug"
	}
	if disp > 0 {
		res.MergeRatio = float64(sub) / float64(disp)
	}
	return res
}

// The paced 1-appender workload: a lone logger appending one sector-sized
// record every few milliseconds, fire-and-forget, straight into the
// request queue — the unattended-log-device shape (nobody fsyncs;
// completions drain by IRQ). Every batch-assembling flusher in the stack
// either plugs explicitly (Flush, the daemon) or waits and thereby
// converts its window (FlushOwner/fsync — which is why the fsync
// appender's recording shows plug_timeouts 0), so this fire-and-forget
// submitter is the shape where windows actually EXPIRE: each record finds
// an idle queue, opens an anticipatory window, and — the cadence being far
// slower than any window — waits it out for nothing, paying one PlugDelay
// of added time-to-media latency per record.
const (
	paAppends    = 64
	paAppendSize = SectorSize
	paThink      = 4 * blkq.DefaultPlugDelay // inter-record think time
)

func runPacedAppend(tb testing.TB, latencyScale float64) fsyncAppendResult {
	tb.Helper()
	ic := hw.NewIRQController(1)
	sd := hw.NewSDCard(65536, ic)
	sd.SetLatencyScale(latencyScale)
	adev := asyncSDDev{sdDev{sd}}
	q := blkq.New(adev, blkq.Options{Async: adev, PlugDelay: blkq.DefaultPlugDelay})
	ic.Register(hw.IRQSD, 0, func(hw.IRQLine, int) { q.CompletionIRQ() })
	record := make([]byte, paAppendSize)
	for i := range record {
		record[i] = byte(i * 7)
	}
	start := time.Now()
	tks := make([]fs.BlockTicket, 0, paAppends)
	for i := 0; i < paAppends; i++ {
		tk, err := q.SubmitWrite(nil, 100+i, 1, record)
		if err != nil {
			tb.Fatal(err)
		}
		tks = append(tks, tk)
		time.Sleep(paThink)
	}
	// Drain: by now every record's window has long expired; these waits
	// just collect completions (and surface any error).
	for _, tk := range tks {
		if err := tk.Wait(nil); err != nil {
			tb.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	sd.SetLatencyScale(0)
	sub, disp, _, _, _ := q.Stats()
	hits, timeouts := q.PlugStats()
	res := fsyncAppendResult{
		Config:       "fixed-plug",
		Appends:      paAppends,
		AppendSize:   paAppendSize,
		Seconds:      elapsed.Seconds(),
		QSubmitted:   sub,
		QCommands:    disp,
		MergeRatio:   1,
		PlugHits:     hits,
		PlugTimeouts: timeouts,
	}
	if disp > 0 {
		res.MergeRatio = float64(sub) / float64(disp)
	}
	return res
}

// BenchmarkWriteHeavy compares the two configurations under `go test
// -bench WriteHeavy`.
func BenchmarkWriteHeavy(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		queued bool
	}{{"sync-baseline", false}, {"blkq-writeback", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.SetBytes(int64(wbWorkers * wbAppends * wbAppendSize))
			for i := 0; i < b.N; i++ {
				runWriteHeavy(b, cfg.queued, wbWorkers, wbAppends, wbAppendSize, wbScale)
			}
		})
	}
}

// BenchmarkFsyncAppend compares the 1-appender fsync-per-record workload
// with anticipatory plugging off and on under `go test -bench FsyncAppend`.
func BenchmarkFsyncAppend(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		delay time.Duration
	}{{"noplug", -1}, {"plug", blkq.DefaultPlugDelay}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.SetBytes(int64(faAppends * faAppendSize))
			for i := 0; i < b.N; i++ {
				runFsyncAppend(b, cfg.delay, faAppends, faAppendSize, wbScale)
			}
		})
	}
}

// TestWriteHeavyThroughput is the recorded perf gate: it runs the
// 8-appender configurations (asserting the async stack beats the
// synchronous baseline ≥2× with a merge ratio >1, and holds ≥0.8× of the
// PR 5 recording now that ordered writes are in) and the 1-appender
// fsync workload with anticipatory plugging off/on (asserting plugging
// measurably improves the lone submitter's merge ratio), and writes
// BENCH_blkq.json. Heavyweight and timing-sensitive, so it only runs when
// BENCH_BLKQ_JSON names the output (the `make bench` / CI bench path),
// never in plain `go test ./...`.
func TestWriteHeavyThroughput(t *testing.T) {
	out := os.Getenv("BENCH_BLKQ_JSON")
	if out == "" {
		t.Skip("set BENCH_BLKQ_JSON=<path> to run the write-heavy benchmark")
	}
	base := runWriteHeavy(t, false, wbWorkers, wbAppends, wbAppendSize, wbScale)
	opt := runWriteHeavy(t, true, wbWorkers, wbAppends, wbAppendSize, wbScale)
	speedup := opt.MBps / base.MBps
	noplug := runFsyncAppend(t, -1, faAppends, faAppendSize, wbScale)
	plug := runFsyncAppend(t, blkq.DefaultPlugDelay, faAppends, faAppendSize, wbScale)
	fixedPaced := runPacedAppend(t, wbScale)
	report := map[string]any{
		"benchmark":         "write-heavy (8 tasks, latency-bound SD, one FAT32 mount)",
		"append_size":       wbAppendSize,
		"appends":           wbAppends,
		"results":           []writeBenchResult{base, opt},
		"speedup":           speedup,
		"pr5_baseline_mbps": wbPR5BaselineMBps,
		"vs_pr5":            opt.MBps / wbPR5BaselineMBps,
		"fsync_1appender": map[string]any{
			"benchmark": "1 appender, fsync per 4 KB record, latency-bound SD",
			"results":   []fsyncAppendResult{noplug, plug},
		},
		"paced_1appender": map[string]any{
			"benchmark": "1 paced fire-and-forget appender, think time 4x PlugDelay, latency-bound SD",
			"results":   []fsyncAppendResult{fixedPaced},
		},
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("sync: %.2f MB/s (%d cmds, %d blocks)", base.MBps, base.DeviceCmds, base.DeviceBlocks)
	t.Logf("blkq: %.2f MB/s (%d cmds, %d blocks, merge ratio %.2f)", opt.MBps, opt.DeviceCmds, opt.DeviceBlocks, opt.MergeRatio)
	t.Logf("speedup: %.2fx", speedup)
	t.Logf("fsync-appender noplug: %d submitted / %d commands, merge ratio %.2f", noplug.QSubmitted, noplug.QCommands, noplug.MergeRatio)
	t.Logf("fsync-appender plug:   %d submitted / %d commands, merge ratio %.2f (hits %d, timeouts %d)",
		plug.QSubmitted, plug.QCommands, plug.MergeRatio, plug.PlugHits, plug.PlugTimeouts)
	t.Logf("paced-appender fixed: %d submitted / %d commands, merge ratio %.2f (hits %d, timeouts %d)",
		fixedPaced.QSubmitted, fixedPaced.QCommands, fixedPaced.MergeRatio, fixedPaced.PlugHits, fixedPaced.PlugTimeouts)
	if speedup < 2 {
		t.Errorf("async stack speedup %.2fx, want >= 2x", speedup)
	}
	if opt.MergeRatio <= 1 {
		t.Errorf("merge ratio %.2f, want > 1", opt.MergeRatio)
	}
	if plug.MergeRatio < noplug.MergeRatio*1.2 {
		t.Errorf("anticipatory plugging merge ratio %.2f vs %.2f unplugged; want a >=1.2x win for the lone appender",
			plug.MergeRatio, noplug.MergeRatio)
	}
	if fixedPaced.PlugTimeouts == 0 {
		t.Errorf("paced appender under fixed plugging recorded no plug timeouts — the workload no longer exercises the window-expiry path")
	}
	if opt.MBps < 0.8*wbPR5BaselineMBps {
		t.Errorf("write-heavy throughput %.2f MB/s is under 80%% of the PR 5 baseline %.2f MB/s — the ordered-writes discipline regressed the hot path",
			opt.MBps, wbPR5BaselineMBps)
	}
}
