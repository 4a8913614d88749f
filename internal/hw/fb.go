package hw

import (
	"fmt"
	"hash/crc64"
	"sync"
)

// Framebuffer geometry defaults match the Game HAT's 640×480 panel.
const (
	DefaultFBWidth  = 640
	DefaultFBHeight = 480
	FBBytesPerPixel = 4 // XRGB8888
)

// Mailbox models the VideoCore property mailbox: the only way Proto's kernel
// obtains a framebuffer. AllocFramebuffer carves the buffer out of the top
// of physical memory at a firmware-chosen (i.e. arbitrary-looking) address —
// the paper notes GPU framebuffers land at arbitrary addresses on real
// hardware, unlike QEMU.
type Mailbox struct {
	mem *Mem
	mu  sync.Mutex
	fb  *Framebuffer
}

// NewMailbox returns the machine's mailbox.
func NewMailbox(mem *Mem) *Mailbox { return &Mailbox{mem: mem} }

// AllocFramebuffer asks the "GPU" for a w×h 32bpp framebuffer and returns
// it. Repeated calls return the same framebuffer (the GPU owns one panel).
func (mb *Mailbox) AllocFramebuffer(w, h int) (*Framebuffer, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.fb != nil {
		if mb.fb.width != w || mb.fb.height != h {
			return nil, fmt.Errorf("mailbox: framebuffer already allocated at %dx%d", mb.fb.width, mb.fb.height)
		}
		return mb.fb, nil
	}
	size := w * h * FBBytesPerPixel
	size = (size + FrameSize - 1) / FrameSize * FrameSize
	// Firmware places the buffer near the top of DRAM, at an odd offset so
	// nothing can assume a round number.
	base := mb.mem.Size() - size - 3*FrameSize
	if base < 0 {
		return nil, fmt.Errorf("mailbox: %d bytes of DRAM cannot hold a %dx%d framebuffer", mb.mem.Size(), w, h)
	}
	mb.fb = &Framebuffer{
		mem:    mb.mem,
		base:   base,
		width:  w,
		height: h,
		pitch:  w * FBBytesPerPixel,
		front:  make([]byte, w*h*FBBytesPerPixel),
	}
	return mb.fb, nil
}

// Framebuffer models the HDMI scan-out buffer *including the CPU cache
// effect that Proto's Prototype 3 teaches*: CPU stores land in "cached"
// physical memory and the display only sees them after an explicit cache
// flush. Skipping the flush leaves stale pixels on screen (the paper's
// gradually-disappearing artifacts); tests assert that staleness.
type Framebuffer struct {
	mem    *Mem
	base   int
	width  int
	height int
	pitch  int

	mu          sync.Mutex
	front       []byte // what the panel shows
	flushes     int
	flushBytes  int
	staleAtLast int
}

// Base returns the physical address of the framebuffer.
func (fb *Framebuffer) Base() int { return fb.base }

// Width returns the visible width in pixels.
func (fb *Framebuffer) Width() int { return fb.width }

// Height returns the visible height in pixels (rows).
func (fb *Framebuffer) Height() int { return fb.height }

// Pitch returns the byte stride between the starts of adjacent rows.
func (fb *Framebuffer) Pitch() int { return fb.pitch }

// Size returns the byte length of the pixel region.
func (fb *Framebuffer) Size() int { return fb.pitch * fb.height }

// Mem returns the "cached" pixel memory the CPU writes. It aliases physical
// DRAM; the panel does not see it until FlushRegion.
func (fb *Framebuffer) Mem() []byte { return fb.mem.Bytes(fb.base, fb.Size()) }

// FlushRegion models a CPU cache clean over [off, off+n) of the pixel
// region, making those bytes visible on the panel.
func (fb *Framebuffer) FlushRegion(off, n int) {
	if off < 0 || n < 0 || off+n > fb.Size() {
		panic(fmt.Sprintf("hw: fb flush [%d,%d) outside %d-byte framebuffer", off, off+n, fb.Size()))
	}
	src := fb.mem.Bytes(fb.base+off, n)
	fb.mu.Lock()
	copy(fb.front[off:off+n], src)
	fb.flushes++
	fb.flushBytes += n
	fb.mu.Unlock()
}

// Flush cleans the whole framebuffer.
func (fb *Framebuffer) Flush() { fb.FlushRegion(0, fb.Size()) }

// Snapshot copies what the panel currently shows.
func (fb *Framebuffer) Snapshot() []byte {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	out := make([]byte, len(fb.front))
	copy(out, fb.front)
	return out
}

// PixelAt returns the displayed XRGB pixel at (x, y).
func (fb *Framebuffer) PixelAt(x, y int) uint32 {
	if x < 0 || y < 0 || x >= fb.width || y >= fb.height {
		panic(fmt.Sprintf("hw: pixel (%d,%d) outside %dx%d panel", x, y, fb.width, fb.height))
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	o := y*fb.pitch + x*FBBytesPerPixel
	return uint32(fb.front[o]) | uint32(fb.front[o+1])<<8 | uint32(fb.front[o+2])<<16 | uint32(fb.front[o+3])<<24
}

// StaleBytes counts bytes whose cached (CPU) value differs from what the
// panel shows — the visible artifact of a missing cache flush.
func (fb *Framebuffer) StaleBytes() int {
	cached := fb.mem.Bytes(fb.base, fb.Size())
	fb.mu.Lock()
	defer fb.mu.Unlock()
	stale := 0
	for i, b := range cached {
		if fb.front[i] != b {
			stale++
		}
	}
	return stale
}

// Checksum hashes the displayed image (for golden tests).
func (fb *Framebuffer) Checksum() uint64 {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return crc64.Checksum(fb.front, crc64Table)
}

// Stats reports flush activity for the power model and latency breakdowns.
func (fb *Framebuffer) Stats() (flushes, flushBytes int) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.flushes, fb.flushBytes
}

var crc64Table = crc64.MakeTable(crc64.ECMA)
