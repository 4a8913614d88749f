package kernel

import (
	"sync"

	"protosim/internal/hw"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/sched"
)

// soundRingCap bounds the staged samples (bytes) between the app and the
// DMA engine. Small enough that a stalled consumer exerts back-pressure,
// big enough to ride out scheduling jitter — the producer-consumer sizing
// lesson of §4.4.
const soundRingCap = 64 * 1024

// soundChunk is how many bytes each DMA transfer moves.
const soundChunk = 8 * 1024

// soundDev is the PWM/DMA audio driver: apps write 16-bit samples to
// /dev/sb; the driver stages them in a ring, feeds the DMA engine chunk by
// chunk, and the DMA completion IRQ pulls the next chunk. Writers block
// when the ring is full; underruns are visible in hw.PWMAudio stats.
type soundDev struct {
	k *Kernel

	mu      sync.Mutex
	ring    []byte
	dmaBusy bool
	stopped bool
	bounce  int             // physical address of the DMA bounce buffer
	wq      sched.WaitQueue // writers waiting for ring space
	dwq     sched.WaitQueue // drain waiters

	bytesOut int64
}

// initSound allocates the DMA bounce buffer with kmalloc and arms the DMA
// completion IRQ.
func (k *Kernel) initSound() error {
	pa, err := k.KHeap.Alloc(soundChunk)
	if err != nil {
		return err
	}
	sd := &soundDev{k: k, bounce: pa}
	k.sound = sd
	k.m.IRQ.Register(hw.IRQDMA, 0, func(hw.IRQLine, int) { sd.dmaComplete() })
	k.m.PWM.Start()
	return nil
}

func (sd *soundDev) stop() {
	sd.mu.Lock()
	sd.stopped = true
	sd.mu.Unlock()
	sd.wq.WakeAll()
	sd.dwq.WakeAll()
}

// write stages samples, blocking while the ring is full.
func (sd *soundDev) write(t *sched.Task, p []byte) (int, error) {
	written := 0
	for written < len(p) {
		sd.mu.Lock()
		if sd.stopped {
			sd.mu.Unlock()
			return written, fs.ErrPipeClosed
		}
		room := soundRingCap - len(sd.ring)
		if room > 0 {
			n := room
			if n > len(p)-written {
				n = len(p) - written
			}
			sd.ring = append(sd.ring, p[written:written+n]...)
			written += n
			sd.kickLocked()
			sd.mu.Unlock()
			continue
		}
		sd.mu.Unlock()
		// Back-pressure: the §4.4 pipeline in action.
		sd.wq.SleepUnlessKillable(t, sd.writable)
	}
	return written, nil
}

// writable reports room in the ring or a stopped device — write's wait
// condition, re-checked once the writer is registered.
func (sd *soundDev) writable() bool {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return len(sd.ring) < soundRingCap || sd.stopped
}

// kickLocked starts a DMA transfer if the engine is idle and samples wait.
// Caller holds sd.mu.
func (sd *soundDev) kickLocked() {
	if sd.dmaBusy || len(sd.ring) == 0 {
		return
	}
	n := len(sd.ring)
	if n > soundChunk {
		n = soundChunk
	}
	n &^= 1 // whole samples
	if n == 0 {
		return
	}
	// Copy into the physical bounce buffer and hand it to the engine.
	copy(sd.k.m.Mem.Bytes(sd.bounce, n), sd.ring[:n])
	sd.ring = sd.ring[n:]
	if sd.k.m.DMA.TransferToPWM(sd.k.m.PWM, sd.bounce, n) {
		sd.dmaBusy = true
		sd.bytesOut += int64(n)
	}
}

// dmaComplete is the IRQ handler: feed the next chunk, wake writers.
func (sd *soundDev) dmaComplete() {
	sd.mu.Lock()
	sd.dmaBusy = false
	sd.kickLocked()
	drained := len(sd.ring) == 0 && !sd.dmaBusy
	sd.mu.Unlock()
	sd.wq.WakeAll()
	if drained {
		sd.dwq.WakeAll()
	}
}

// drain blocks until all staged samples have been handed to the hardware.
func (sd *soundDev) drain(t *sched.Task) {
	for !sd.drained() {
		sd.dwq.SleepUnlessKillable(t, sd.drained)
	}
}

// drained reports an empty ring with the DMA engine idle, or a stopped
// device — drain's wait condition.
func (sd *soundDev) drained() bool {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return (len(sd.ring) == 0 && !sd.dmaBusy) || sd.stopped
}

// pending reports staged bytes (diagnostics).
func (sd *soundDev) pending() int {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return len(sd.ring)
}

// soundFile is one open of /dev/sb.
type soundFile struct {
	fs.BaseOps
	dev *soundDev
}

// Write implements fs.FileOps: stage samples for DMA.
func (f *soundFile) Write(t *sched.Task, p []byte) (int, error) {
	if f.dev == nil {
		return 0, fs.ErrNotFound
	}
	return f.dev.write(t, p)
}

// Stat implements fs.FileOps.
func (f *soundFile) Stat(*sched.Task) (fs.Stat, error) {
	return fs.Stat{Name: "sb", Type: fs.TypeDevice}, nil
}

// Caps implements fs.FileOps: a stream with control operations.
func (f *soundFile) Caps() fs.Caps { return fs.CapIoctl }

// Ioctl implements fs.FileOps (IoctlSoundDrain).
func (f *soundFile) Ioctl(t *sched.Task, op int, arg int64) (int64, error) {
	if op == IoctlSoundDrain {
		f.dev.drain(t)
		return 0, nil
	}
	return 0, fs.ErrNotSupported
}
