// Package hw models the Raspberry Pi 3-class hardware that Proto targets:
// physical memory, an interrupt controller with per-core routing and FIQ,
// UART, system and per-core generic timers, the mailbox/framebuffer path, a
// GPIO block, PWM audio fed by a DMA engine, an SD-card controller, and a
// layered USB stack with a HID keyboard.
//
// The devices are in-process models, not emulations of register files: each
// device exposes the operations the Proto kernel drivers need (with the same
// synchrony, latency structure, and IRQ behaviour as the real parts), so the
// kernel above exercises the same design decisions the paper describes —
// polled UART TX, IRQ-driven RX, DMA completion interrupts, per-block SD
// latency, and a framebuffer whose writes are invisible until a CPU cache
// flush.
package hw

import (
	"encoding/binary"
	"fmt"
)

// FrameSize is the small page size of the machine (4 KB, as on ARMv8).
const FrameSize = 4096

// BlockSize is the coarse kernel mapping granularity (1 MB blocks).
const BlockSize = 1 << 20

// Mem is the machine's physical memory. The kernel's frame allocator hands
// out frame-aligned regions of it; devices (framebuffer, DMA) read and write
// it directly, exactly like DRAM shared between CPU and peripherals.
type Mem struct {
	buf []byte
}

// NewMem returns physical memory of the given size, rounded up to a whole
// number of frames. Memory content is deliberately NOT guaranteed to be zero
// (see Scramble): the paper calls out that real hardware boots with arbitrary
// values in uninitialized memory, unlike QEMU.
func NewMem(size int) *Mem {
	if size <= 0 {
		panic("hw: memory size must be positive")
	}
	size = (size + FrameSize - 1) / FrameSize * FrameSize
	return &Mem{buf: make([]byte, size)}
}

// Size returns the total number of bytes of physical memory.
func (m *Mem) Size() int { return len(m.buf) }

// Frames returns the number of physical frames.
func (m *Mem) Frames() int { return len(m.buf) / FrameSize }

// Bytes returns the backing store for a physical address range. The slice
// aliases physical memory: writes through it are visible to devices.
func (m *Mem) Bytes(pa, n int) []byte {
	if pa < 0 || n < 0 || pa+n > len(m.buf) {
		panic(fmt.Sprintf("hw: physical access [%#x,%#x) outside %#x bytes of DRAM", pa, pa+n, len(m.buf)))
	}
	return m.buf[pa : pa+n : pa+n]
}

// Frame returns the backing store of one whole physical frame.
func (m *Mem) Frame(frame int) []byte {
	return m.Bytes(frame*FrameSize, FrameSize)
}

// Scramble fills memory with a deterministic non-zero pattern, modelling the
// arbitrary content of real DRAM at power-on. Kernel code that assumes
// zeroed memory (a QEMU-only luxury) breaks visibly under test.
// Each xorshift step fills eight bytes, so scrambling a full-size DRAM
// stays a small share of boot.
func (m *Mem) Scramble(seed uint64) {
	x := seed | 1
	next := func() uint64 {
		// xorshift64: cheap, deterministic garbage.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	i := 0
	for ; i+8 <= len(m.buf); i += 8 {
		binary.LittleEndian.PutUint64(m.buf[i:], next())
	}
	for ; i < len(m.buf); i++ {
		m.buf[i] = byte(next())
	}
}

// MemMove copies within physical memory using a widened fast path, standing
// in for Proto's hand-written ARMv8 assembly memmove (§5.2). The kernel's
// ModeXv6 baseline uses a byte-at-a-time loop instead; benchmarks compare
// the two.
func (m *Mem) MemMove(dst, src, n int) {
	copy(m.Bytes(dst, n), m.Bytes(src, n))
}

// MemMoveSlow is the unoptimized byte-loop copy used by the xv6-like
// baseline configuration.
func (m *Mem) MemMoveSlow(dst, src, n int) {
	d := m.Bytes(dst, n)
	s := m.Bytes(src, n)
	for i := 0; i < n; i++ {
		d[i] = s[i]
	}
}
