package kernel

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"protosim/internal/kernel/fat32"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/xv6fs"
)

// TestAsyncIOStackWiredThroughBoot boots a Prototype 5-class kernel and
// checks the whole async IO stack is assembled: request queues front both
// block devices (the SD one IRQ-driven), a kflushd daemon runs per mount,
// syscall writes land write-behind and SyncAll makes them durable, and
// /proc/diskstats reports the queue and writeback statistics.
func TestAsyncIOStackWiredThroughBoot(t *testing.T) {
	m := testMachine(2)
	if err := fat32Mkfs(sdBlockDev{m.SD}); err != nil {
		t.Fatal(err)
	}
	rd, _ := xv6fs.BuildImage(1024, 64, nil)
	cfg := fullConfig(m, rd.Image())
	cfg.EnableFAT = true
	k := New(cfg)
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	defer k.Shutdown()

	// Queues front every device; the caches run write-behind.
	for _, d := range k.BlockDevs() {
		if d.Queue() == nil {
			t.Fatalf("device %s has no request queue", d.Name())
		}
		if c := k.blockCaches[d.Name()]; c == nil || !c.WriteBehind() {
			t.Fatalf("device %s cache is not write-behind", d.Name())
		}
	}

	// One kflushd task per mount.
	daemons := 0
	for _, task := range k.Sched.Tasks() {
		if strings.HasPrefix(task.Name, "kflushd-") {
			daemons++
		}
	}
	if daemons != 2 {
		t.Fatalf("found %d kflushd tasks, want 2 (rd0, sd0)", daemons)
	}

	// Drive writes through the syscall layer on both mounts — fsyncing
	// each file (the per-file barrier, riding the anticipatory plug),
	// then the whole-system sync.
	code := run(t, k, "writer", func(p *Proc, _ []string) int {
		for _, path := range []string{"/a.dat", "/d/b.dat"} {
			fd, err := p.SysOpen(path, fs.OCreate|fs.OWrOnly)
			if err != nil {
				return 1
			}
			payload := make([]byte, 64<<10)
			for i := range payload {
				payload[i] = byte(i * 7)
			}
			if _, err := p.SysWrite(fd, payload); err != nil {
				return 2
			}
			if err := p.SysFsync(fd); err != nil {
				return 5
			}
			if err := p.SysClose(fd); err != nil {
				return 3
			}
		}
		// The whole-system barrier: flushes what fsync's per-file scope
		// left behind (foreign metadata, the other mount's state).
		if err := p.SysSync(); err != nil {
			return 4
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("writer exit = %d", code)
	}
	for _, d := range k.BlockDevs() {
		if c := k.blockCaches[d.Name()]; c.DirtyBuffers() != 0 {
			t.Fatalf("%s: %d dirty buffers after SyncAll", d.Name(), c.DirtyBuffers())
		}
	}

	// diskstats carries the queue, plug, and writeback telemetry.
	stats := readProc(t, k, "diskstats")
	for _, want := range []string{"sd0.q depth=", "rd0.q depth=", "merge_ratio=",
		"plug_hits=", "plug_timeouts=", "daemon_flushes=", "dirty=0"} {
		if !strings.Contains(stats, want) {
			t.Fatalf("diskstats missing %q:\n%s", want, stats)
		}
	}

	// The SD queue really ran its async half: submissions were dispatched
	// and completion IRQs fired.
	for _, d := range k.BlockDevs() {
		if d.Name() != "sd0" {
			continue
		}
		sub, disp, _, _, _ := d.Queue().Stats()
		if sub == 0 || disp == 0 {
			t.Fatalf("sd0 queue idle: submitted=%d dispatched=%d", sub, disp)
		}
	}
}

// readProc reads a whole procfs node through the file layer.
func readProc(t *testing.T, k *Kernel, name string) string {
	t.Helper()
	f, err := k.VFS.Open(nil, "/proc/"+name, fs.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(nil)
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := f.Read(nil, buf)
		if n > 0 {
			sb.Write(buf[:n])
		}
		if err != nil || n == 0 {
			break
		}
	}
	return sb.String()
}

// TestXv6ModeBlockLayer pins how ModeXv6 expresses the xv6 baseline: both
// devices sit behind depth-1 request queues that never anticipate, and
// the SD driver under sd0 issues one card command per sector, so a cold
// 256 KiB FAT32 read costs 512 SD commands.
func TestXv6ModeBlockLayer(t *testing.T) {
	const size = 256 << 10
	m := testMachine(2)
	sd := sdBlockDev{m.SD}
	if err := fat32Mkfs(sd); err != nil {
		t.Fatal(err)
	}
	// Write the file before boot, so the kernel's cache starts cold.
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	pre, err := fat32.Mount(sd, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := pre.Open(nil, "/cold.bin", fs.OCreate|fs.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	of := fs.NewOpenFile(ops, fs.OWrOnly)
	if _, err := of.Write(nil, payload); err != nil {
		t.Fatal(err)
	}
	if err := of.Close(nil); err != nil {
		t.Fatal(err)
	}
	if err := pre.Sync(nil); err != nil {
		t.Fatal(err)
	}

	rd, _ := xv6fs.BuildImage(1024, 64, nil)
	cfg := fullConfig(m, rd.Image())
	cfg.EnableFAT = true
	cfg.Mode = ModeXv6
	k := New(cfg)
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	defer k.Shutdown()

	var cmds, blocks uint64
	code := run(t, k, "reader", func(p *Proc, _ []string) int {
		fd, err := p.SysOpen("/d/cold.bin", fs.ORdOnly)
		if err != nil {
			return 1
		}
		c0, r0, _, _ := m.SD.Stats()
		got := make([]byte, size)
		for n := 0; n < size; {
			k, err := p.SysRead(fd, got[n:])
			if err != nil || k == 0 {
				return 2
			}
			n += k
		}
		c1, r1, _, _ := m.SD.Stats()
		cmds, blocks = c1-c0, r1-r0
		if !bytes.Equal(got, payload) {
			return 3
		}
		if p.SysClose(fd) != nil {
			return 4
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("reader exit = %d", code)
	}
	t.Logf("cold read: %d SD commands, %d blocks", cmds, blocks)
	if cmds != size/fat32.SectorSize {
		t.Fatalf("cold 256 KiB read cost %d SD commands (%d blocks), want %d",
			cmds, blocks, size/fat32.SectorSize)
	}

	stats := readProc(t, k, "diskstats")
	for _, dev := range []string{"sd0", "rd0"} {
		var line string
		for _, l := range strings.Split(stats, "\n") {
			if strings.HasPrefix(l, dev+".q ") {
				line = l
			}
		}
		if !strings.Contains(line, " depth=1 ") || !strings.Contains(line, " plug_hits=0 ") {
			t.Fatalf("%s queue is not the xv6 baseline's (depth 1, no anticipation): %q\n%s", dev, line, stats)
		}
	}
}

// diskstat returns the integer field key of the /proc/diskstats line that
// starts with prefix.
func diskstat(t *testing.T, stats, prefix, key string) int64 {
	t.Helper()
	for _, l := range strings.Split(stats, "\n") {
		if !strings.HasPrefix(l, prefix+" ") {
			continue
		}
		for _, f := range strings.Fields(l) {
			if v, ok := strings.CutPrefix(f, key+"="); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatalf("%s %s=%q: %v", prefix, key, v, err)
				}
				return n
			}
		}
	}
	t.Fatalf("diskstats has no %s %s=:\n%s", prefix, key, stats)
	return 0
}

// TestJournalCommitIsTwoQueueWrites pins what one journaled create costs
// the root ramdisk: the commit's slot run and its header, each one request
// and one device command straight from the journal, which waits on each
// write at once and so opens no anticipation window, and no buffer-cache
// writeback.
func TestJournalCommitIsTwoQueueWrites(t *testing.T) {
	k := bootKernel(t, 2, nil)
	defer k.Shutdown()
	create := func(path string) {
		code := run(t, k, "create", func(p *Proc, _ []string) int {
			fd, err := p.SysOpen(path, fs.OCreate|fs.OWrOnly)
			if err != nil {
				return 1
			}
			if p.SysClose(fd) != nil {
				return 2
			}
			return 0
		})
		if code != 0 {
			t.Fatalf("create %s exit = %d", path, code)
		}
	}
	// Warm every block a root create touches, make it durable, and stop
	// rd0's flusher so no background pass or idle checkpoint lands in the
	// measured window.
	create("/warm")
	if err := k.VFS.SyncAll(nil); err != nil {
		t.Fatal(err)
	}
	k.blockCaches["rd0"].StopDaemon()

	before := readProc(t, k, "diskstats")
	commits := k.RootFS.Journal().Stats().Commits
	create("/probe")
	after := readProc(t, k, "diskstats")
	if got := k.RootFS.Journal().Stats().Commits - commits; got != 1 {
		t.Fatalf("create committed %d transactions, want 1", got)
	}
	delta := func(prefix, key string) int64 {
		return diskstat(t, after, prefix, key) - diskstat(t, before, prefix, key)
	}
	if sub, cmds := delta("rd0.q", "submitted"), delta("rd0.q", "commands"); sub != 2 || cmds != 2 {
		t.Fatalf("one commit cost rd0 %d requests, %d commands; want 2 and 2\nbefore:\n%s\nafter:\n%s",
			sub, cmds, before, after)
	}
	if hits := diskstat(t, after, "rd0.q", "plug_hits"); hits != 0 {
		t.Fatalf("rd0 queue anticipated: plug_hits=%d", hits)
	}
	if wb := delta("rd0.cache", "writebacks"); wb != 0 {
		t.Fatalf("commit wrote back %d rd0 cache buffers, want 0", wb)
	}
}

// TestRootFsyncMergesOnRd0 pins that fsync of a multi-block root file
// still merges on the synchronous ramdisk: FlushOwner submits the file's
// data as unplugged tickets, and the anticipatory window those tickets
// open is what turns the run into one device command.
func TestRootFsyncMergesOnRd0(t *testing.T) {
	k := bootKernel(t, 2, nil)
	defer k.Shutdown()
	// Keep the data dirty until the fsync: no background writeback.
	k.blockCaches["rd0"].StopDaemon()
	const blocks = 8
	var before, after string
	code := run(t, k, "fsync", func(p *Proc, _ []string) int {
		fd, err := p.SysOpen("/big", fs.OCreate|fs.OWrOnly)
		if err != nil {
			return 1
		}
		if _, err := p.SysWrite(fd, make([]byte, blocks*xv6fs.BlockSize)); err != nil {
			return 2
		}
		before = readProc(t, k, "diskstats")
		if p.SysFsync(fd) != nil {
			return 3
		}
		after = readProc(t, k, "diskstats")
		return 0
	})
	if code != 0 {
		t.Fatalf("fsync program exit = %d", code)
	}
	delta := func(key string) int64 {
		return diskstat(t, after, "rd0.q", key) - diskstat(t, before, "rd0.q", key)
	}
	// Data run plus inode and bitmap blocks: the data must go out as one
	// command (at least blocks-1 merges); without the window every block
	// is its own command.
	if merged := delta("merged"); merged < blocks-1 {
		t.Fatalf("fsync of %d data blocks merged %d requests on rd0 (submitted=%d commands=%d), want >= %d",
			blocks, merged, delta("submitted"), delta("commands"), blocks-1)
	}
}
