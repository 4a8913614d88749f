//go:build goexperiment.synctest

package uring

import (
	"testing"
	"testing/synctest"
	"time"

	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/sched"
)

// slowFile is a memFile whose reads take one second: the "device" the
// ring's worker drives.
type slowFile struct{ memFile }

func (f *slowFile) Pread(t *sched.Task, p []byte, off int64) (int, error) {
	time.Sleep(time.Second)
	return f.memFile.Pread(t, p, off)
}

// TestBubbleHostWaitsForCompletion: a host caller's Enter, waiting for a
// completion whose worker spends one second of bubble time on the read,
// returns after exactly that second, and a host Close joins the pool.
func TestBubbleHostWaitsForCompletion(t *testing.T) {
	synctest.Run(func() {
		s := sched.New(sched.Config{Cores: 2})
		s.Start()
		fds := fs.NewFDTable(4)
		r, err := New(4, fds, Options{
			Workers: 1,
			Spawn:   func(name string, fn func(*sched.Task)) *sched.Task { return s.Go("uring-"+name, 1, fn) },
		})
		if err != nil {
			t.Error(err)
			return
		}
		fd, err := fds.Install(fs.NewOpenFile(&slowFile{memFile{data: []byte("abcd")}}, fs.ORdWr))
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4)
		if err := r.Queue(SQE{Op: OpPread, FD: fd, Buf: buf, User: 1}); err != nil {
			t.Error(err)
			return
		}
		start := time.Now()
		if _, err := r.Enter(nil, 1, 1); err != nil {
			t.Error(err)
			return
		}
		if elapsed := time.Since(start); elapsed != time.Second {
			t.Errorf("Enter returned after %v of bubble time, want 1s", elapsed)
		}
		if c, ok := r.Reap(); !ok || c.Err != nil || c.Res != 4 || string(buf) != "abcd" {
			t.Errorf("CQE = %+v (ok %v), buf %q", c, ok, buf)
		}
		if err := r.Close(nil); err != nil {
			t.Error(err)
		}
		if err := s.Shutdown(time.Second); err != nil {
			t.Error(err)
		}
	})
}
