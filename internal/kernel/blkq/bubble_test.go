//go:build goexperiment.synctest

package blkq

import (
	"bytes"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"protosim/internal/kernel/fs"
)

// slowDev is an async backend that moves the data at submit and posts the
// completion delay later, from a timer — in a synctest bubble, after that
// much bubble time.
type slowDev struct {
	*fs.Ramdisk
	delay  time.Duration
	notify func()

	mu   sync.Mutex
	done []uint64
}

func (d *slowDev) SubmitRead(tag uint64, lba, n int, dst []byte) error {
	return d.finishLater(tag, d.Ramdisk.ReadBlocks(lba, n, dst))
}

func (d *slowDev) SubmitWrite(tag uint64, lba, n int, src []byte) error {
	return d.finishLater(tag, d.Ramdisk.WriteBlocks(lba, n, src))
}

func (d *slowDev) finishLater(tag uint64, err error) error {
	if err != nil {
		return err
	}
	time.AfterFunc(d.delay, func() {
		d.mu.Lock()
		d.done = append(d.done, tag)
		d.mu.Unlock()
		d.notify()
	})
	return nil
}

func (d *slowDev) PopCompletion() (uint64, error, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.done) == 0 {
		return 0, nil, false
	}
	tag := d.done[0]
	d.done = d.done[1:]
	return tag, nil, true
}

// TestBubbleHostWaitsForCompletion: a host caller (no task) waiting on a
// request sleeps until the device completes it, one second of bubble time
// later — no sooner, and without stopping the clock.
func TestBubbleHostWaitsForCompletion(t *testing.T) {
	synctest.Run(func() {
		dev := &slowDev{Ramdisk: fs.NewRamdisk(512, 16), delay: time.Second}
		q := New(dev, Options{Async: dev, PlugDelay: -1, CmdTimeout: -1})
		dev.notify = q.CompletionIRQ
		src := bytes.Repeat([]byte{0x5A}, 512)
		start := time.Now()
		if err := q.WriteBlocks(3, 1, src); err != nil {
			t.Error(err)
			return
		}
		if elapsed := time.Since(start); elapsed != time.Second {
			t.Errorf("write returned after %v of bubble time, want 1s", elapsed)
		}
		dst := make([]byte, 512)
		if err := q.ReadBlocks(3, 1, dst); err != nil {
			t.Error(err)
			return
		}
		if elapsed := time.Since(start); elapsed != 2*time.Second {
			t.Errorf("read returned %v into the run, want 2s", elapsed)
		}
		if !bytes.Equal(dst, src) {
			t.Error("read back different data")
		}
	})
}
