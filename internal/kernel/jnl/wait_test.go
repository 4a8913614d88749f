package jnl_test

import (
	"testing"
	"time"

	"protosim/internal/kernel/bcache"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/jnl"
	"protosim/internal/kernel/sched"
)

// gateRD holds every write at or above block from until open closes:
// with from at the log region, a commit owns the log for as long as the
// test likes.
type gateRD struct {
	*fs.Ramdisk
	from    int
	entered chan struct{}
	open    chan struct{}
}

func (d *gateRD) WriteBlocks(lba, n int, src []byte) error {
	if lba >= d.from {
		select {
		case d.entered <- struct{}{}:
		default:
		}
		<-d.open
	}
	return d.Ramdisk.WriteBlocks(lba, n, src)
}

// holdCommit starts a one-block commit on a host goroutine and returns
// once the commit owns the log, stalled in its first log write. Closing
// the returned gate lets it finish.
func holdCommit(t *testing.T) (*jnl.Journal, chan struct{}) {
	t.Helper()
	dev := &gateRD{Ramdisk: fs.NewRamdisk(blockSize, devBlocks), from: logStart,
		entered: make(chan struct{}, 1), open: make(chan struct{})}
	bc := bcache.NewWithOptions(dev, bcache.Options{Buffers: 64, Shards: 4,
		Readahead: -1, FlushInterval: time.Hour, WritebackRatio: -1})
	j := jnl.New(bc, logStart, 8)
	go func() {
		j.Begin(nil)
		b, err := bc.Get(nil, 10)
		if err != nil {
			t.Error(err)
			return
		}
		if err := j.Record(nil, b); err != nil {
			t.Error(err)
		}
		bc.Release(b)
		if err := j.End(nil); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-dev.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the commit never reached the log")
	}
	return j, dev.open
}

// sleepsUntil runs op on a task and requires it to sleep — not return,
// and not spin through yields, which would leave it runnable — until
// release is called, and then to finish.
func sleepsUntil(t *testing.T, op func(*sched.Task), release func()) {
	t.Helper()
	s := sched.New(sched.Config{Cores: 1})
	s.Start()
	defer s.Shutdown(5 * time.Second)
	returned := make(chan struct{})
	tk := s.Go("op", 0, func(tk *sched.Task) {
		op(tk)
		close(returned)
	})
	deadline := time.Now().Add(5 * time.Second)
	for tk.State() != sched.StateSleeping {
		if time.Now().After(deadline) {
			t.Fatalf("op never slept (state %v)", tk.State())
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case <-returned:
		t.Fatal("op returned before it was released")
	default:
	}
	if st := tk.State(); st != sched.StateSleeping {
		t.Fatalf("op is %v before its release, want sleeping", st)
	}
	release()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("op still asleep after its release: a wake-up was lost")
	}
}

// TestBeginSleepsWhileCommitOwnsLog: a Begin that arrives mid-commit
// sleeps until the commit gives the log back.
func TestBeginSleepsWhileCommitOwnsLog(t *testing.T) {
	j, gate := holdCommit(t)
	sleepsUntil(t, func(tk *sched.Task) {
		j.Begin(tk)
		if err := j.End(tk); err != nil {
			t.Error(err)
		}
	}, func() { close(gate) })
}

// TestSyncSleepsWhileCommitOwnsLog: Sync waits out a commit in flight by
// sleeping, then reports it.
func TestSyncSleepsWhileCommitOwnsLog(t *testing.T) {
	j, gate := holdCommit(t)
	sleepsUntil(t, func(tk *sched.Task) {
		if err := j.Sync(tk); err != nil {
			t.Error(err)
		}
	}, func() { close(gate) })
	if s := j.Stats(); s.Commits != 1 {
		t.Fatalf("commits = %d after Sync, want 1", s.Commits)
	}
}

// TestSyncSleepsUntilLastEnd: Sync sleeps while a bracket is open, and
// the End that closes it wakes the Sync.
func TestSyncSleepsUntilLastEnd(t *testing.T) {
	j, _, _ := newJournal(t, 8)
	j.Begin(nil)
	sleepsUntil(t, func(tk *sched.Task) {
		if err := j.Sync(tk); err != nil {
			t.Error(err)
		}
	}, func() {
		if err := j.End(nil); err != nil {
			t.Error(err)
		}
	})
}

// TestBeginSleepsForBatchRoom: with 32 batch slots and 10 reserved per
// open bracket, a fourth concurrent Begin does not fit; it sleeps until
// an End (not the last one) frees a reservation.
func TestBeginSleepsForBatchRoom(t *testing.T) {
	j, _, _ := newJournal(t, 55)
	for i := 0; i < 3; i++ {
		j.Begin(nil)
	}
	sleepsUntil(t, func(tk *sched.Task) {
		j.Begin(tk)
		if err := j.End(tk); err != nil {
			t.Error(err)
		}
	}, func() {
		if err := j.End(nil); err != nil {
			t.Error(err)
		}
	})
	for i := 0; i < 2; i++ {
		if err := j.End(nil); err != nil {
			t.Fatal(err)
		}
	}
}
