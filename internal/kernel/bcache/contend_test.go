package bcache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"protosim/internal/kernel/blkq"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/sched"
)

// slowDev is an async backend that moves the data at submit and posts
// each completion delay later, from a timer — in a synctest bubble, after
// that much bubble time.
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

// patternErr checks data against fillPattern's stamp for blocks from lba.
func patternErr(lba int, data []byte) error {
	for i, got := range data {
		if want := byte((lba + i/512) ^ (i % 512)); got != want {
			return fmt.Errorf("block %d byte %d: got %#x want %#x", lba+i/512, i%512, got, want)
		}
	}
	return nil
}

// contend runs tasks tasks on a one-core scheduler against a one-shard
// cache of bufs buffers, fewer than there are tasks, over a device whose
// every command completes delay after it is submitted. Each task reads
// rounds extents of span blocks of its own, alternating Get (the first
// block only) with a ReadRange claim of the whole extent, and checks what
// it read. Claims that find the shard fully pinned sleep until an unpin
// makes room. One core means a claim that retried without sleeping would
// starve every other task. contend fails t if any claim errs, reads the
// wrong data or never completes, and returns how long the claims took.
func contend(t *testing.T, tasks, bufs, rounds, span int, delay time.Duration) time.Duration {
	t.Helper()
	rd := fs.NewRamdisk(512, tasks*rounds*span)
	fillPattern(t, rd)
	dev := &slowDev{Ramdisk: rd, delay: delay}
	q := blkq.New(dev, blkq.Options{Async: dev, PlugDelay: -1, CmdTimeout: -1})
	dev.notify = q.CompletionIRQ
	c := NewWithOptions(q, Options{Buffers: bufs, Shards: 1, Readahead: -1})
	s := sched.New(sched.Config{Cores: 1})
	s.Start()
	defer func() {
		if err := s.Shutdown(5 * time.Second); err != nil {
			t.Error(err)
		}
	}()

	start := time.Now()
	finished := make(chan struct{}, tasks)
	for i := 0; i < tasks; i++ {
		s.Go(fmt.Sprintf("claim%d", i), 0, func(tk *sched.Task) {
			defer func() { finished <- struct{}{} }()
			dst := make([]byte, span*512)
			for r := 0; r < rounds; r++ {
				lba := (i*rounds + r) * span
				if (i+r)%2 == 0 {
					b, err := c.Get(tk, lba)
					if err != nil {
						t.Errorf("task %d Get(%d): %v", i, lba, err)
						return
					}
					err = patternErr(lba, b.Data)
					c.Release(b)
					if err != nil {
						t.Errorf("task %d Get: %v", i, err)
						return
					}
					continue
				}
				if err := c.ReadRange(tk, lba, span, dst); err != nil {
					t.Errorf("task %d ReadRange(%d, %d): %v", i, lba, span, err)
					return
				}
				if err := patternErr(lba, dst); err != nil {
					t.Errorf("task %d ReadRange: %v", i, err)
					return
				}
			}
		})
	}
	timeout := time.After(30 * time.Second)
	for i := 0; i < tasks; i++ {
		select {
		case <-finished:
		case <-timeout:
			t.Errorf("%d of %d tasks still claiming: a wake-up was lost, or a claim retried without sleeping", tasks-i, tasks)
			return 0
		}
	}
	return time.Since(start)
}

// TestClaimsSleepOnFullShard: many tasks claim blocks against a one-shard
// cache with fewer buffers than tasks, Gets and multi-block ReadRange
// claims mixed, so the shard is fully pinned most of the time. Every
// claim must complete with the right data; CI repeats it under -race.
func TestClaimsSleepOnFullShard(t *testing.T) {
	contend(t, 8, 4, 6, 2, 200*time.Microsecond)
}
