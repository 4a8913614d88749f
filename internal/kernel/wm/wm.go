// Package wm is Proto's window manager (§4.5, ~800 SLoC in the paper): it
// runs as a kernel thread, composites per-app surfaces onto the hardware
// framebuffer, tracks z-order and dirty regions, supports floating
// semi-transparent windows (sysmon), and dispatches input events to the
// focused window, intercepting ctrl+tab for focus switching.
package wm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"protosim/internal/hw"
	"protosim/internal/kernel/sched"
)

// InputEvent is one keyboard event as delivered to apps via /dev/event1.
type InputEvent struct {
	Down  bool
	Code  byte // HID usage
	Mods  byte
	ASCII byte // 0 when unprintable
}

// EventSize is the wire size of an encoded event.
const EventSize = 8

// Encode packs the event into an 8-byte record.
func (e InputEvent) Encode(b []byte) {
	b[0] = 'E'
	if e.Down {
		b[1] = 1
	} else {
		b[1] = 0
	}
	b[2] = e.Code
	b[3] = e.Mods
	b[4] = e.ASCII
	b[5], b[6], b[7] = 0, 0, 0
}

// DecodeEvent unpacks a record.
func DecodeEvent(b []byte) (InputEvent, bool) {
	if len(b) < EventSize || b[0] != 'E' {
		return InputEvent{}, false
	}
	return InputEvent{Down: b[1] == 1, Code: b[2], Mods: b[3], ASCII: b[4]}, true
}

// rect is a dirty region.
type rect struct{ x0, y0, x1, y1 int }

func (r rect) empty() bool { return r.x1 <= r.x0 || r.y1 <= r.y0 }

func (r rect) union(o rect) rect {
	if r.empty() {
		return o
	}
	if o.empty() {
		return r
	}
	if o.x0 < r.x0 {
		r.x0 = o.x0
	}
	if o.y0 < r.y0 {
		r.y0 = o.y0
	}
	if o.x1 > r.x1 {
		r.x1 = o.x1
	}
	if o.y1 > r.y1 {
		r.y1 = o.y1
	}
	return r
}

func (r rect) clip(w, h int) rect {
	if r.x0 < 0 {
		r.x0 = 0
	}
	if r.y0 < 0 {
		r.y0 = 0
	}
	if r.x1 > w {
		r.x1 = w
	}
	if r.y1 > h {
		r.y1 = h
	}
	return r
}

// Surface is one app window: an offscreen pixel buffer plus geometry and a
// per-window input queue.
type Surface struct {
	ID    int
	Title string
	Owner int // task ID

	wm *WM

	mu     sync.Mutex
	x, y   int
	w, h   int
	z      int
	alpha  byte // 255 opaque
	pixels []byte
	dirty  rect
	closed bool

	events   []InputEvent
	eventsWQ sched.WaitQueue
}

// Size returns the surface dimensions.
func (s *Surface) Size() (w, h int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w, s.h
}

// Pos returns the window position.
func (s *Surface) Pos() (x, y int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.x, s.y
}

// Move repositions the window (ctrl+arrows path) and dirties both places.
func (s *Surface) Move(x, y int) {
	s.mu.Lock()
	old := rect{s.x, s.y, s.x + s.w, s.y + s.h}
	s.x, s.y = x, y
	s.mu.Unlock()
	s.wm.dirtyGlobal(old)
	s.wm.dirtyGlobal(rect{x, y, x + s.w, y + s.h})
}

// SetAlpha sets window translucency (255 = opaque); sysmon uses ~160.
func (s *Surface) SetAlpha(a byte) {
	s.mu.Lock()
	s.alpha = a
	s.mu.Unlock()
	s.markAllDirty()
}

// Blit replaces the surface content with a full frame of XRGB pixels
// (len = w*h*4). Partial trailing rows are permitted for streaming writes.
func (s *Surface) Blit(frame []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(frame) > len(s.pixels) {
		return fmt.Errorf("wm: frame %d bytes exceeds surface %d", len(frame), len(s.pixels))
	}
	copy(s.pixels, frame)
	rows := (len(frame) + s.w*4 - 1) / (s.w * 4)
	s.dirty = s.dirty.union(rect{0, 0, s.w, rows})
	return nil
}

// BlitRect updates a sub-rectangle (row-major src of rw*rh*4 bytes).
func (s *Surface) BlitRect(x, y, rw, rh int, src []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if x < 0 || y < 0 || x+rw > s.w || y+rh > s.h || len(src) < rw*rh*4 {
		return fmt.Errorf("wm: blit rect out of bounds")
	}
	for r := 0; r < rh; r++ {
		copy(s.pixels[((y+r)*s.w+x)*4:], src[r*rw*4:(r+1)*rw*4])
	}
	s.dirty = s.dirty.union(rect{x, y, x + rw, y + rh})
	return nil
}

func (s *Surface) markAllDirty() {
	s.mu.Lock()
	s.dirty = rect{0, 0, s.w, s.h}
	s.mu.Unlock()
}

// PushEvent queues an input event (called by the WM dispatcher).
func (s *Surface) PushEvent(e InputEvent) {
	s.mu.Lock()
	if len(s.events) < 256 {
		s.events = append(s.events, e)
	}
	s.mu.Unlock()
	s.eventsWQ.WakeAll()
}

// PopEvent dequeues one event; blocking when block is set, else ok=false.
func (s *Surface) PopEvent(t *sched.Task, block bool) (InputEvent, bool) {
	for {
		s.mu.Lock()
		if len(s.events) > 0 {
			e := s.events[0]
			s.events = s.events[1:]
			s.mu.Unlock()
			return e, true
		}
		closed := s.closed
		s.mu.Unlock()
		if !block || closed {
			return InputEvent{}, false
		}
		s.eventsWQ.SleepUnlessKillable(t, s.readable)
	}
}

// readable reports a queued event or a closed surface — PopEvent's wait
// condition, re-checked once the reader is registered.
func (s *Surface) readable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events) > 0 || s.closed
}

// Close removes the surface from the compositor.
func (s *Surface) Close() {
	s.wm.removeSurface(s)
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.eventsWQ.WakeAll()
}

// WM is the compositor.
type WM struct {
	fb *hw.Framebuffer

	mu       sync.Mutex
	surfaces []*Surface // sorted by z ascending (bottom first)
	focus    *Surface
	nextID   int
	nextZ    int
	global   rect // region dirtied by moves/closes
	bg       uint32

	frames        atomic.Int64 // composition passes that drew something
	pixelsBlended atomic.Int64

	stop atomic.Bool
	task *sched.Task
}

// New creates a window manager over the hardware framebuffer.
func New(fb *hw.Framebuffer) *WM {
	return &WM{fb: fb, bg: 0x202830} // a dark desktop background
}

// CreateSurface registers a new window and focuses it.
func (w *WM) CreateSurface(owner int, title string, width, height int) (*Surface, error) {
	if width <= 0 || height <= 0 || width > w.fb.Width() || height > w.fb.Height() {
		return nil, fmt.Errorf("wm: bad surface geometry %dx%d", width, height)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.nextID++
	w.nextZ++
	s := &Surface{
		ID: w.nextID, Title: title, Owner: owner, wm: w,
		w: width, h: height, z: w.nextZ, alpha: 255,
		pixels: make([]byte, width*height*4),
		// Cascade new windows so they don't fully overlap.
		x: (len(w.surfaces) * 24) % (w.fb.Width() - width + 1),
		y: (len(w.surfaces) * 18) % (w.fb.Height() - height + 1),
	}
	s.dirty = rect{0, 0, width, height}
	w.surfaces = append(w.surfaces, s)
	w.focus = s
	return s, nil
}

func (w *WM) removeSurface(s *Surface) {
	w.mu.Lock()
	for i, cur := range w.surfaces {
		if cur == s {
			w.surfaces = append(w.surfaces[:i], w.surfaces[i+1:]...)
			break
		}
	}
	if w.focus == s {
		if len(w.surfaces) > 0 {
			w.focus = w.surfaces[len(w.surfaces)-1]
		} else {
			w.focus = nil
		}
	}
	s.mu.Lock()
	w.global = w.global.union(rect{s.x, s.y, s.x + s.w, s.y + s.h})
	s.mu.Unlock()
	w.mu.Unlock()
}

func (w *WM) dirtyGlobal(r rect) {
	w.mu.Lock()
	w.global = w.global.union(r)
	w.mu.Unlock()
}

// Raise brings a surface to the top of the z-order.
func (w *WM) Raise(s *Surface) {
	w.mu.Lock()
	w.nextZ++
	s.mu.Lock()
	s.z = w.nextZ
	s.mu.Unlock()
	w.sortLocked()
	w.mu.Unlock()
	s.markAllDirty()
}

func (w *WM) sortLocked() {
	// Insertion sort by z; the list is tiny and nearly sorted.
	for i := 1; i < len(w.surfaces); i++ {
		for j := i; j > 0 && w.surfaces[j-1].z > w.surfaces[j].z; j-- {
			w.surfaces[j-1], w.surfaces[j] = w.surfaces[j], w.surfaces[j-1]
		}
	}
}

// Focused returns the surface that receives input.
func (w *WM) Focused() *Surface {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.focus
}

// FocusNext rotates focus (ctrl+tab) and raises the newly focused window.
func (w *WM) FocusNext() {
	w.mu.Lock()
	if len(w.surfaces) == 0 {
		w.mu.Unlock()
		return
	}
	idx := 0
	for i, s := range w.surfaces {
		if s == w.focus {
			idx = (i + 1) % len(w.surfaces)
			break
		}
	}
	next := w.surfaces[idx]
	w.focus = next
	w.mu.Unlock()
	w.Raise(next)
}

// Surfaces snapshots the current z-ordered window list (bottom first).
func (w *WM) Surfaces() []*Surface {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*Surface, len(w.surfaces))
	copy(out, w.surfaces)
	return out
}

// DeliverKey is the keyboard driver's entry point: it intercepts the
// window-management chords and routes everything else to the focused app.
func (w *WM) DeliverKey(e InputEvent) {
	const ctrl = hw.ModLCtrl | hw.ModRCtrl
	if e.Down && e.Mods&ctrl != 0 {
		switch e.Code {
		case hw.UsageTab:
			w.FocusNext()
			return
		case hw.UsageLeft, hw.UsageRight, hw.UsageUp, hw.UsageDown:
			if f := w.Focused(); f != nil {
				x, y := f.Pos()
				switch e.Code {
				case hw.UsageLeft:
					x -= 16
				case hw.UsageRight:
					x += 16
				case hw.UsageUp:
					y -= 16
				case hw.UsageDown:
					y += 16
				}
				f.Move(x, y)
			}
			return
		}
	}
	if f := w.Focused(); f != nil {
		f.PushEvent(e)
	}
}

// Composite performs one composition pass, redrawing only dirty regions.
// It reports whether anything was drawn.
func (w *WM) Composite() bool {
	w.mu.Lock()
	// Union all dirty regions (in screen coordinates).
	damage := w.global
	w.global = rect{}
	surfs := make([]*Surface, len(w.surfaces))
	copy(surfs, w.surfaces)
	for _, s := range surfs {
		s.mu.Lock()
		if !s.dirty.empty() {
			damage = damage.union(rect{s.x + s.dirty.x0, s.y + s.dirty.y0, s.x + s.dirty.x1, s.y + s.dirty.y1})
			s.dirty = rect{}
		}
		s.mu.Unlock()
	}
	w.mu.Unlock()

	damage = damage.clip(w.fb.Width(), w.fb.Height())
	if damage.empty() {
		return false
	}

	fbmem := w.fb.Mem()
	pitch := w.fb.Pitch()
	// Background fill of the damaged region.
	for y := damage.y0; y < damage.y1; y++ {
		row := fbmem[y*pitch:]
		for x := damage.x0; x < damage.x1; x++ {
			o := x * 4
			row[o] = byte(w.bg)
			row[o+1] = byte(w.bg >> 8)
			row[o+2] = byte(w.bg >> 16)
			row[o+3] = 0xFF
		}
	}
	// Draw surfaces bottom to top, clipped to the damage. The surface
	// lock is held across the blend: snapshotting the pixel slice and
	// reading it unlocked would race a concurrent Blit's copy into the
	// same backing array.
	blended := int64(0)
	for _, s := range surfs {
		s.mu.Lock()
		sx, sy, sw, sh, alpha := s.x, s.y, s.w, s.h, s.alpha
		pixels := s.pixels
		r := rect{sx, sy, sx + sw, sy + sh}.clip(w.fb.Width(), w.fb.Height())
		r = r.union(rect{}) // no-op, keep shape
		// Intersect with damage.
		if r.x0 < damage.x0 {
			r.x0 = damage.x0
		}
		if r.y0 < damage.y0 {
			r.y0 = damage.y0
		}
		if r.x1 > damage.x1 {
			r.x1 = damage.x1
		}
		if r.y1 > damage.y1 {
			r.y1 = damage.y1
		}
		if r.empty() {
			s.mu.Unlock()
			continue
		}
		for y := r.y0; y < r.y1; y++ {
			dstRow := fbmem[y*pitch:]
			srcRow := pixels[(y-sy)*sw*4:]
			for x := r.x0; x < r.x1; x++ {
				so := (x - sx) * 4
				do := x * 4
				if alpha == 255 {
					dstRow[do] = srcRow[so]
					dstRow[do+1] = srcRow[so+1]
					dstRow[do+2] = srcRow[so+2]
					dstRow[do+3] = 0xFF
				} else {
					a := int(alpha)
					na := 255 - a
					dstRow[do] = byte((int(srcRow[so])*a + int(dstRow[do])*na) / 255)
					dstRow[do+1] = byte((int(srcRow[so+1])*a + int(dstRow[do+1])*na) / 255)
					dstRow[do+2] = byte((int(srcRow[so+2])*a + int(dstRow[do+2])*na) / 255)
					dstRow[do+3] = 0xFF
				}
				blended++
			}
		}
		s.mu.Unlock()
	}
	// Flush only the damaged rows — the cache maintenance the paper makes
	// Prototype 3 students implement.
	for y := damage.y0; y < damage.y1; y++ {
		w.fb.FlushRegion(y*pitch+damage.x0*4, (damage.x1-damage.x0)*4)
	}
	w.frames.Add(1)
	w.pixelsBlended.Add(blended)
	return true
}

// Run is the kernel-thread body: composite at ~60 Hz until Stop.
func (w *WM) Run(t *sched.Task) {
	w.task = t
	for !w.stop.Load() {
		w.Composite()
		t.SleepFor(16 * time.Millisecond)
	}
}

// Stop ends the compositor loop.
func (w *WM) Stop() { w.stop.Store(true) }

// Stats reports composition activity (frames drawn, pixels blended).
func (w *WM) Stats() (frames, pixels int64) {
	return w.frames.Load(), w.pixelsBlended.Load()
}
