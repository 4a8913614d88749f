package kernel

import (
	"bytes"
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
