package fat32

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"protosim/internal/hw"
	"protosim/internal/kernel/bcache"
	"protosim/internal/kernel/fs"
)

// flakyDev wraps a device and, once armed, fails WriteBlocks after a set
// number of further write commands succeed. Only commands reaching at or
// above minLBA count; zero means every write.
type flakyDev struct {
	fs.BlockDevice
	mu       sync.Mutex
	armed    bool
	okWrites int
	minLBA   int
}

var errInjected = errors.New("flaky: injected write error")

func (d *flakyDev) arm(okWrites int) {
	d.mu.Lock()
	d.armed = true
	d.okWrites = okWrites
	d.mu.Unlock()
}

func (d *flakyDev) disarm() {
	d.mu.Lock()
	d.armed = false
	d.mu.Unlock()
}

func (d *flakyDev) WriteBlocks(lba, n int, src []byte) error {
	d.mu.Lock()
	if d.armed && lba+n > d.minLBA {
		if d.okWrites == 0 {
			d.mu.Unlock()
			return errInjected
		}
		d.okWrites--
	}
	d.mu.Unlock()
	return d.BlockDevice.WriteBlocks(lba, n, src)
}

func newFlakyFS(t *testing.T, blocks int) (*FS, *flakyDev) {
	t.Helper()
	sd := hw.NewSDCard(blocks, hw.NewIRQController(1))
	sd.SetLatencyScale(0)
	dev := &flakyDev{BlockDevice: sdDev{sd}}
	if err := Mkfs(dev); err != nil {
		t.Fatal(err)
	}
	// Write-through: these tests exercise the write-PATH error rollback,
	// which needs device errors to surface inside Write itself. Under the
	// default write-behind policy device errors surface at Sync instead
	// (see the async error-propagation tests).
	f, err := MountWith(dev, nil, bcache.Options{Policy: bcache.WritePolicyThrough})
	if err != nil {
		t.Fatal(err)
	}
	return f, dev
}

// TestShortWriteRollbackMidCluster covers the PR-1 skip-zeroing rollback
// path: a write that grows the chain (skipping the zero pass for clusters
// it fully covers) fails mid-transfer; the appended clusters must be
// unlinked and freed — no unzeroed cluster may stay reachable — and the
// reported short-write count clamped to what is durable (in-place bytes
// below the old size).
func TestShortWriteRollbackMidCluster(t *testing.T) {
	for _, tc := range []struct {
		name     string
		okWrites int // device write commands allowed after arming
	}{
		{"fail-during-zeroing", 0},
		{"fail-after-partial-edge", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, dev := newFlakyFS(t, 4096)
			fl, err := openOF(f, "/victim.bin", fs.OCreate|fs.ORdWr)
			if err != nil {
				t.Fatal(err)
			}
			orig := bytes.Repeat([]byte{0xAB}, 6000) // ~1.5 clusters
			if _, err := fl.Write(nil, orig); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(nil); err != nil {
				t.Fatal(err)
			}
			freeBefore, err := f.FreeClusters(nil)
			if err != nil {
				t.Fatal(err)
			}

			// Overwrite from mid-cluster offset 4000 with 20000 bytes:
			// grows the chain by 4 clusters, three fully covered
			// (skip-zeroed), the tail partially covered (zeroed).
			const off = 4000
			if _, err := fl.Seek(nil, off, fs.SeekSet); err != nil {
				t.Fatal(err)
			}
			dev.arm(tc.okWrites)
			n, err := fl.Write(nil, bytes.Repeat([]byte{0xCD}, 20000))
			dev.disarm()
			if !errors.Is(err, errInjected) {
				t.Fatalf("write err = %v, want injected error", err)
			}
			// Short-write report: only in-place bytes below the old size
			// are durable; bytes in rolled-back clusters must not be
			// counted.
			if n > len(orig)-off {
				t.Fatalf("short write reported %d bytes, max durable is %d", n, len(orig)-off)
			}

			// Rollback observed: every appended cluster is free again.
			freeAfter, err := f.FreeClusters(nil)
			if err != nil {
				t.Fatal(err)
			}
			if freeAfter != freeBefore {
				t.Fatalf("cluster leak: %d free before failed write, %d after", freeBefore, freeAfter)
			}
			// Size unchanged; nothing beyond the old EOF is reachable, so
			// a skipped zero pass can never leak stale device bytes.
			st, err := f.Stat(nil, "/victim.bin")
			if err != nil || st.Size != int64(len(orig)) {
				t.Fatalf("stat after failed write = %+v, %v", st, err)
			}
			// Bytes before the failed write's offset are untouched.
			if _, err := fl.Seek(nil, 0, fs.SeekSet); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(orig))
			read := 0
			for read < len(got) {
				m, err := fl.Read(nil, got[read:])
				if err != nil || m == 0 {
					t.Fatalf("read back: %d, %v", m, err)
				}
				read += m
			}
			if !bytes.Equal(got[:off], orig[:off]) {
				t.Fatal("bytes below the failed write's offset were corrupted")
			}
			fl.Close(nil)

			// The volume still works: a full rewrite goes through.
			fl2, err := openOF(f, "/victim.bin", fs.OCreate|fs.ORdWr|fs.OTrunc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fl2.Write(nil, bytes.Repeat([]byte{0xEF}, 20000)); err != nil {
				t.Fatalf("write after rollback: %v", err)
			}
			fl2.Close(nil)
		})
	}
}

// TestRollbackConcurrentNeighbors runs the failing write while another
// file on the same mount keeps writing — the rollback must free only its
// own clusters and never disturb the neighbour.
func TestRollbackConcurrentNeighbors(t *testing.T) {
	withRankCheck(t)
	f, dev := newFlakyFS(t, 8192)
	victim, err := openOF(f, "/victim.bin", fs.OCreate|fs.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Write(nil, bytes.Repeat([]byte{1}, 6000)); err != nil {
		t.Fatal(err)
	}

	// Inject only into file data clusters, past the FAT and the root
	// directory's first cluster, and create the neighbour before the
	// window opens. A failed FAT, directory-entry or create-time flush
	// latches the mount read-only (errors=remount-ro), after which neither
	// file could write and the rollback under test would never run. The
	// neighbour still truncates, frees and reallocates its clusters every
	// round, racing the victim's allocation and rollback.
	dev.mu.Lock()
	dev.minLBA = f.clusterSector(rootCluster + 1)
	dev.mu.Unlock()
	nf, err := openOF(f, "/steady.bin", fs.OCreate|fs.OWrOnly)
	if err != nil {
		t.Fatal(err)
	}
	nf.Close(nil)
	free0, err := f.FreeClusters(nil)
	if err != nil {
		t.Fatal(err)
	}

	// The neighbour rewrites until the window has closed, and its last
	// round starts only after that, so the final content is known.
	neighbor := bytes.Repeat([]byte{2}, 32<<10)
	done, disarmed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			final := false
			if i >= 5 {
				select {
				case <-disarmed:
					final = true
				default:
				}
			}
			nf, err := openOF(f, "/steady.bin", fs.OCreate|fs.OWrOnly|fs.OTrunc)
			if err != nil {
				t.Errorf("neighbor open: %v", err)
				return
			}
			if _, err := nf.Write(nil, neighbor); err != nil && !errors.Is(err, errInjected) {
				t.Errorf("neighbor write: %v", err)
				return
			}
			nf.Close(nil)
			if final {
				return
			}
		}
	}()
	// Inject one failure window; the victim's write must roll back while
	// the neighbour keeps going (its writes may also trip the injector —
	// that's fine, its loop rewrites from scratch each round).
	victim.Seek(nil, 4000, fs.SeekSet)
	dev.arm(1)
	_, werr := victim.Write(nil, bytes.Repeat([]byte{3}, 20000))
	dev.disarm()
	close(disarmed)
	<-done
	if t.Failed() {
		return
	}
	if werr == nil {
		// The neighbour may have absorbed the injected failure instead;
		// only if the victim write failed do we assert rollback.
		t.Skip("injected failure landed on the neighbour; rollback path not taken")
	}
	st, err := f.Stat(nil, "/victim.bin")
	if err != nil || st.Size != 6000 {
		t.Fatalf("victim stat = %+v, %v", st, err)
	}
	// The neighbour's final rewrite (after disarm) must be intact.
	nf, err = openOF(f, "/steady.bin", fs.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(neighbor))
	read := 0
	for read < len(got) {
		m, err := nf.Read(nil, got[read:])
		if err != nil || m == 0 {
			t.Fatalf("neighbor read: %d, %v", m, err)
		}
		read += m
	}
	if !bytes.Equal(got, neighbor) {
		t.Fatal("neighbour corrupted by victim's rollback")
	}
	nf.Close(nil)
	victim.Close(nil)
	// The rollback freed exactly what the victim's write appended: the
	// only clusters claimed since free0 are the neighbour's growth from
	// its first cluster to its final size.
	free, err := f.FreeClusters(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := free0 - (len(neighbor)/ClusterSize - 1); free != want {
		t.Fatalf("free clusters = %d, want %d", free, want)
	}
}
