package fs

import (
	"sync"

	"protosim/internal/kernel/bufpool"
	"protosim/internal/kernel/sched"
)

// PipeSize is the ring capacity — xv6's 512 bytes, which Figure 11 shows
// becoming a bottleneck even for 10-byte keyboard events.
const PipeSize = 512

// pipe is the shared ring between the two ends. The ring's backing
// buffer comes from the shared bufpool size class and goes back when the
// last end closes, so a shell pipeline churning pipes recycles one
// buffer instead of allocating per pipe.
type pipe struct {
	mu      sync.Mutex
	buf     []byte // PipeSize bytes from bufpool; nil once released
	r, w    int    // total bytes read/written (mod indices derived)
	readers int
	writers int
	rwq     sched.WaitQueue // readers waiting for data
	wwq     sched.WaitQueue // writers waiting for room
}

// PipeReader is the read end.
type PipeReader struct {
	BaseOps
	p *pipe
}

// PipeWriter is the write end.
type PipeWriter struct {
	BaseOps
	p *pipe
}

// NewPipe returns connected read and write ends.
func NewPipe() (*PipeReader, *PipeWriter) {
	p := &pipe{buf: bufpool.Shared(PipeSize).Get(), readers: 1, writers: 1}
	return &PipeReader{p: p}, &PipeWriter{p: p}
}

// release returns the ring to the pool once both ends are closed.
// Called with p.mu held; the nil guard makes a double release (two Close
// racers both observing zero counts) put the buffer back only once.
func (p *pipe) release() {
	if p.readers == 0 && p.writers == 0 && p.buf != nil {
		bufpool.Shared(PipeSize).Put(p.buf)
		p.buf = nil
	}
}

func (p *pipe) used() int { return p.w - p.r }

// Read blocks until data or all writers close (then EOF: n=0, nil error —
// following xv6's pipe convention which shell pipelines rely on).
func (r *PipeReader) Read(t *sched.Task, buf []byte) (int, error) {
	p := r.p
	for {
		p.mu.Lock()
		if p.used() > 0 {
			n := 0
			for n < len(buf) && p.used() > 0 {
				buf[n] = p.buf[p.r%PipeSize]
				p.r++
				n++
			}
			p.mu.Unlock()
			p.wwq.WakeAll()
			return n, nil
		}
		if p.writers == 0 {
			p.mu.Unlock()
			return 0, nil // EOF
		}
		p.mu.Unlock()
		p.rwq.SleepUnlessKillable(t, p.readable)
	}
}

// readable reports data to read or no writer left (EOF) — the wait
// condition of Read, re-checked once the reader is registered, so a
// Write or Close landing in between cannot be lost.
func (p *pipe) readable() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used() > 0 || p.writers == 0
}

// writable reports room in the ring or no reader left — Write's wait
// condition, re-checked the same way.
func (p *pipe) writable() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used() < PipeSize || p.readers == 0
}

// Write blocks while the ring is full; writing with no readers returns
// ErrPipeClosed (the EPIPE analogue).
func (w *PipeWriter) Write(t *sched.Task, buf []byte) (int, error) {
	p := w.p
	written := 0
	for written < len(buf) {
		p.mu.Lock()
		if p.readers == 0 {
			p.mu.Unlock()
			if written > 0 {
				return written, nil
			}
			return 0, ErrPipeClosed
		}
		wrote := false
		for written < len(buf) && p.used() < PipeSize {
			p.buf[p.w%PipeSize] = buf[written]
			p.w++
			written++
			wrote = true
		}
		p.mu.Unlock()
		if wrote {
			p.rwq.WakeAll()
		}
		if written < len(buf) {
			p.wwq.SleepUnlessKillable(t, p.writable)
		}
	}
	return written, nil
}

// Close drops the read end; blocked writers fail with ErrPipeClosed.
func (r *PipeReader) Close(*sched.Task) error {
	p := r.p
	p.mu.Lock()
	p.readers--
	p.release()
	p.mu.Unlock()
	p.wwq.WakeAll()
	return nil
}

// Close drops the write end; blocked readers see EOF.
func (w *PipeWriter) Close(*sched.Task) error {
	p := w.p
	p.mu.Lock()
	p.writers--
	p.release()
	p.mu.Unlock()
	p.rwq.WakeAll()
	return nil
}

// Stat implements FileOps.
func (r *PipeReader) Stat(*sched.Task) (Stat, error) {
	r.p.mu.Lock()
	defer r.p.mu.Unlock()
	return Stat{Name: "pipe", Type: TypePipe, Size: int64(r.p.used())}, nil
}

// Stat implements FileOps.
func (w *PipeWriter) Stat(*sched.Task) (Stat, error) {
	w.p.mu.Lock()
	defer w.p.mu.Unlock()
	return Stat{Name: "pipe", Type: TypePipe, Size: int64(w.p.used())}, nil
}

var (
	_ FileOps = (*PipeReader)(nil)
	_ FileOps = (*PipeWriter)(nil)
)
