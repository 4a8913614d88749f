// Device-fault behaviour of the cache: transient read errors are
// absorbed, unwritable dirty buffers are given up (recorded, not spun
// on), and — the regression this file exists for — kflushd shuts down
// cleanly over a dead device instead of flushing the same doomed
// buffers forever.
package bcache

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"protosim/internal/hw"
	"protosim/internal/kernel/blkq"
	"protosim/internal/kernel/fs"
)

// TestReadRetryAbsorbsTransient: a transient device read error under a
// cache miss is retried inside devRead and never reaches the caller. The
// queue's own retries are off, so the errors reach the cache (a default
// queue would absorb them first).
func TestReadRetryAbsorbsTransient(t *testing.T) {
	rd := fs.NewRamdisk(512, 64)
	want := bytes.Repeat([]byte{0x77}, 512)
	if err := rd.WriteBlocks(5, 1, want); err != nil {
		t.Fatal(err)
	}
	fd := hw.NewFaultDisk(rd, hw.FaultPlan{Seed: 1})
	q := blkq.New(fd, blkq.Options{PlugDelay: -1, MaxRetries: -1})
	c := NewWithOptions(q, Options{Buffers: 16, Shards: 2, Readahead: -1})
	fd.InjectTransient(5, 2)
	got := make([]byte, 512)
	if err := c.ReadRange(nil, 5, 1, got); err != nil {
		t.Fatalf("transient read error not absorbed: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("retried read returned wrong data")
	}
	if n := c.ReadRetries(); n != 2 {
		t.Fatalf("ReadRetries = %d, want 2", n)
	}
}

// TestGiveUpAfterFailureBudget: a buffer whose writeback keeps failing
// with a retryable error is retried giveUpWrites times across flush
// passes, then abandoned — dirty bit dropped, contents still valid and
// readable, give-up counted, OnGiveUp told — so later flushes are clean
// and nothing spins.
func TestGiveUpAfterFailureBudget(t *testing.T) {
	dev := &flakyRD{Ramdisk: fs.NewRamdisk(512, 64)}
	var mu sync.Mutex
	var gaveUp []error
	c := NewWithOptions(dev, Options{Buffers: 16, Shards: 2, Readahead: -1,
		WritebackRatio: -1, FlushInterval: time.Hour,
		OnGiveUp: func(lba int, err error) {
			mu.Lock()
			gaveUp = append(gaveUp, err)
			mu.Unlock()
		}})
	dev.mu.Lock()
	dev.fail = 1 << 20 // never heals
	dev.mu.Unlock()
	want := bytes.Repeat([]byte{0x5A}, 512)
	if err := c.WriteRange(nil, 7, 1, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < giveUpWrites; i++ {
		if c.DirtyBuffers() != 1 {
			t.Fatalf("pass %d: buffer abandoned before its budget ran out", i)
		}
		if err := c.Flush(nil); !errors.Is(err, errWB) {
			t.Fatalf("pass %d: Flush = %v, want %v", i, err, errWB)
		}
	}
	if d := c.DirtyBuffers(); d != 0 {
		t.Fatalf("DirtyBuffers = %d after budget exhausted, want 0", d)
	}
	if n := c.GiveUps(); n != 1 {
		t.Fatalf("GiveUps = %d, want 1", n)
	}
	mu.Lock()
	if len(gaveUp) != 1 || !errors.Is(gaveUp[0], errWB) {
		t.Fatalf("OnGiveUp saw %v, want one %v", gaveUp, errWB)
	}
	mu.Unlock()
	// The abandoned data is still served from the cache (valid, clean).
	got := make([]byte, 512)
	if err := c.ReadRange(nil, 7, 1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("give-up dropped the buffer contents")
	}
	// Nothing dirty, all epochs observed by the flushes above: clean.
	if err := c.Flush(nil); err != nil {
		t.Fatalf("Flush after give-up = %v, want nil", err)
	}
}

// TestBadSectorGivesUpImmediately: a persistent media error is fatal —
// no retry budget, one flush abandons the buffer.
func TestBadSectorGivesUpImmediately(t *testing.T) {
	fd := hw.NewFaultDisk(fs.NewRamdisk(512, 64), hw.FaultPlan{Seed: 1})
	fd.AddBadSector(9)
	var mu sync.Mutex
	var gotErr error
	c := NewWithOptions(fd, Options{Buffers: 16, Shards: 2, Readahead: -1,
		WritebackRatio: -1, FlushInterval: time.Hour,
		OnGiveUp: func(lba int, err error) {
			mu.Lock()
			gotErr = err
			mu.Unlock()
		}})
	if err := c.WriteRange(nil, 9, 1, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(nil); !errors.Is(err, fs.ErrBadSector) {
		t.Fatalf("Flush = %v, want ErrBadSector", err)
	}
	if d := c.DirtyBuffers(); d != 0 {
		t.Fatalf("DirtyBuffers = %d after fatal error, want 0 (immediate give-up)", d)
	}
	mu.Lock()
	defer mu.Unlock()
	if !errors.Is(gotErr, fs.ErrBadSector) {
		t.Fatalf("OnGiveUp err = %v, want ErrBadSector", gotErr)
	}
}

// TestKflushdShutdownWithDeadDevice is the hang regression: dirty
// buffers over a request queue, the device dies, and the writeback
// daemon must drain its backlog by giving the buffers up — dirty count
// reaches zero, OnGiveUp reports device death, and StopDaemon returns
// instead of waiting out a daemon that retries forever.
func TestKflushdShutdownWithDeadDevice(t *testing.T) {
	fd := hw.NewFaultDisk(fs.NewRamdisk(512, 256), hw.FaultPlan{Seed: 1})
	q := blkq.New(fd, blkq.Options{Async: fd, PlugDelay: -1})
	fd.SetNotify(func() { q.CompletionIRQ() })
	var sawDead sync.Once
	deadCh := make(chan error, 1)
	c := NewWithOptions(q, Options{Buffers: 32, Shards: 2, Readahead: -1,
		WritebackRatio: -1, FlushInterval: 2 * time.Millisecond,
		OnGiveUp: func(lba int, err error) {
			sawDead.Do(func() { deadCh <- err })
		}})
	go c.RunDaemon(nil, nil)

	src := make([]byte, 512)
	for lba := 4; lba < 12; lba++ {
		if err := c.WriteRange(nil, lba, 1, src); err != nil {
			t.Fatal(err)
		}
	}
	fd.Kill()

	deadline := time.Now().Add(10 * time.Second)
	for c.DirtyBuffers() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never gave up on the dead device: %d dirty", c.DirtyBuffers())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-deadCh:
		if !errors.Is(err, fs.ErrDeviceDead) {
			t.Fatalf("OnGiveUp err = %v, want ErrDeviceDead", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnGiveUp never fired")
	}

	stopped := make(chan struct{})
	go func() { c.StopDaemon(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("StopDaemon hung over a dead device")
	}
	if c.GiveUps() != 8 {
		t.Fatalf("GiveUps = %d, want 8", c.GiveUps())
	}
	// The deaths were recorded: the next barrier reports them, once.
	if err := c.Flush(nil); !errors.Is(err, fs.ErrDeviceDead) {
		t.Fatalf("Flush = %v, want ErrDeviceDead", err)
	}
}
