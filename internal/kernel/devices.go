package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"protosim/internal/hw"
	"protosim/internal/kernel/blkq"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/sched"
	"protosim/internal/kernel/wm"
)

// --- unified block IO path ---

// BlockIO is the kernel's single entry point to a block device: every
// filesystem mounts over one of these (the ramdisk under xv6fs, the SD
// card under FAT32), so all block traffic — the request queue's commands
// and raw /dev reads — funnels through here and is accounted uniformly.
// When the device has split submit/completion halves (the SD card),
// BlockIO forwards them so the blkq request queue stacked on top can
// drive the async path; the queue is registered back here (SetQueue) so
// its merge/depth statistics ride the same /proc/diskstats node as the
// command counts. /dev/<name> exposes the raw (read-only) device.
type BlockIO struct {
	name string
	dev  fs.BlockDevice
	abe  blkq.AsyncBackend // non-nil when dev has submit/completion halves
	q    *blkq.Queue       // non-nil when a request queue fronts this device

	readCmds, readBlocks   atomic.Int64
	writeCmds, writeBlocks atomic.Int64
}

// NewBlockIO wraps dev as a named kernel block device.
func NewBlockIO(name string, dev fs.BlockDevice) *BlockIO {
	d := &BlockIO{name: name, dev: dev}
	d.abe, _ = dev.(blkq.AsyncBackend)
	return d
}

// Async returns the device's split submit/completion half — routed back
// through this BlockIO so async commands are counted too — or nil when
// the underlying device is synchronous only.
func (d *BlockIO) Async() blkq.AsyncBackend {
	if d.abe == nil {
		return nil
	}
	return d
}

// SubmitRead forwards the async read half, counting the command.
func (d *BlockIO) SubmitRead(tag uint64, lba, n int, dst []byte) error {
	err := d.abe.SubmitRead(tag, lba, n, dst)
	if err == nil {
		d.readCmds.Add(1)
		d.readBlocks.Add(int64(n))
	}
	return err
}

// SubmitWrite forwards the async write half, counting the command.
func (d *BlockIO) SubmitWrite(tag uint64, lba, n int, src []byte) error {
	err := d.abe.SubmitWrite(tag, lba, n, src)
	if err == nil {
		d.writeCmds.Add(1)
		d.writeBlocks.Add(int64(n))
	}
	return err
}

// PopCompletion forwards the completion half.
func (d *BlockIO) PopCompletion() (uint64, error, bool) { return d.abe.PopCompletion() }

// SetQueue records the request queue stacked on this device so diskstats
// can report its statistics alongside the command counts.
func (d *BlockIO) SetQueue(q *blkq.Queue) { d.q = q }

// Queue returns the request queue fronting this device, or nil.
func (d *BlockIO) Queue() *blkq.Queue { return d.q }

// Name returns the device name ("rd0", "sd0").
func (d *BlockIO) Name() string { return d.name }

// BlockSize implements fs.BlockDevice.
func (d *BlockIO) BlockSize() int { return d.dev.BlockSize() }

// Blocks implements fs.BlockDevice.
func (d *BlockIO) Blocks() int { return d.dev.Blocks() }

// ReadBlocks implements fs.BlockDevice.
func (d *BlockIO) ReadBlocks(lba, n int, dst []byte) error {
	d.readCmds.Add(1)
	d.readBlocks.Add(int64(n))
	return d.dev.ReadBlocks(lba, n, dst)
}

// WriteBlocks implements fs.BlockDevice.
func (d *BlockIO) WriteBlocks(lba, n int, src []byte) error {
	d.writeCmds.Add(1)
	d.writeBlocks.Add(int64(n))
	return d.dev.WriteBlocks(lba, n, src)
}

// Stats reports commands and blocks moved in each direction. The command
// counts are what the §5.2 batching optimizations shrink: one range
// command for n blocks instead of n single-block commands.
func (d *BlockIO) Stats() (readCmds, readBlocks, writeCmds, writeBlocks int64) {
	return d.readCmds.Load(), d.readBlocks.Load(), d.writeCmds.Load(), d.writeBlocks.Load()
}

// addBlockDev records a block device and, once /dev exists, exposes it as
// a raw (read-only) device file.
func (k *Kernel) addBlockDev(d *BlockIO) {
	k.blockDevs = append(k.blockDevs, d)
	if k.DevFS != nil {
		k.registerBlockDevFile(d)
	}
}

// BlockDevs lists the kernel's block devices.
func (k *Kernel) BlockDevs() []*BlockIO { return k.blockDevs }

func (k *Kernel) registerBlockDevFile(d *BlockIO) {
	k.DevFS.Register(d.name, func(*sched.Task, int) (fs.FileOps, error) {
		return &blockFile{dev: d}, nil
	})
}

// blockFile is a raw, read-only, positional view of a block device —
// `cat /dev/sd0` territory. Writes are refused: scribbling under a mounted
// filesystem is how images get corrupted. It holds no state at all — the
// offset lives in the OpenFile.
type blockFile struct {
	fs.BaseOps
	dev *BlockIO
}

// Pread implements fs.FileOps: an unaligned read served by covering block
// commands.
func (f *blockFile) Pread(_ *sched.Task, p []byte, off int64) (int, error) {
	bs := int64(f.dev.BlockSize())
	size := int64(f.dev.Blocks()) * bs
	if off >= size {
		return 0, nil
	}
	if int64(len(p)) > size-off {
		p = p[:size-off]
	}
	// Read the covering block range, then slice out the unaligned view.
	first := off / bs
	last := (off + int64(len(p)) - 1) / bs
	buf := make([]byte, (last-first+1)*bs)
	if err := f.dev.ReadBlocks(int(first), int(last-first+1), buf); err != nil {
		return 0, err
	}
	return copy(p, buf[off-first*bs:]), nil
}

// Pwrite implements fs.FileOps: refused, the device is mounted.
func (f *blockFile) Pwrite(*sched.Task, []byte, int64) (int, int64, error) {
	return 0, 0, fs.ErrPerm
}

// Stat implements fs.FileOps.
func (f *blockFile) Stat(*sched.Task) (fs.Stat, error) {
	return fs.Stat{
		Name: f.dev.Name(),
		Type: fs.TypeDevice,
		Size: int64(f.dev.Blocks()) * int64(f.dev.BlockSize()),
	}, nil
}

// Caps implements fs.FileOps: positional (seekable).
func (f *blockFile) Caps() fs.Caps { return fs.CapSeek }

// eventQueue buffers keyboard events for /dev/events when no window
// manager is routing input (Prototype 4).
type eventQueue struct {
	mu     sync.Mutex
	events []wm.InputEvent
	wq     sched.WaitQueue
}

func (q *eventQueue) push(e wm.InputEvent) {
	q.mu.Lock()
	if len(q.events) < 512 {
		q.events = append(q.events, e)
	}
	q.mu.Unlock()
	q.wq.WakeAll()
}

func (q *eventQueue) pop(t *sched.Task, block bool) (wm.InputEvent, bool) {
	for {
		q.mu.Lock()
		if len(q.events) > 0 {
			e := q.events[0]
			q.events = q.events[1:]
			q.mu.Unlock()
			return e, true
		}
		q.mu.Unlock()
		if !block {
			return wm.InputEvent{}, false
		}
		q.wq.SleepUnlessKillable(t, q.nonEmpty)
	}
}

// nonEmpty reports a queued event — pop's wait condition, re-checked once
// the reader is registered.
func (q *eventQueue) nonEmpty() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.events) > 0
}

// initKeyboard performs the USPi-style enumeration dance and installs the
// IRQ handler that turns HID reports into input events.
func (k *Kernel) initKeyboard() error {
	usb := k.m.USB
	if !usb.PortConnected() {
		return fmt.Errorf("no keyboard on the root hub")
	}
	// Enumeration: read the device descriptor at address 0, assign an
	// address, read configuration, set configuration, boot protocol.
	if _, err := usb.ControlTransfer(0, hw.SetupPacket{Request: 6, Value: 1 << 8, Length: 18}); err != nil {
		return fmt.Errorf("get device descriptor: %w", err)
	}
	const addr = 1
	if _, err := usb.ControlTransfer(0, hw.SetupPacket{Request: 5, Value: addr}); err != nil {
		return fmt.Errorf("set address: %w", err)
	}
	cfg, err := usb.ControlTransfer(addr, hw.SetupPacket{Request: 6, Value: 2 << 8, Length: 64})
	if err != nil {
		return fmt.Errorf("get config descriptor: %w", err)
	}
	if len(cfg) < 17 || cfg[14] != 3 {
		return fmt.Errorf("device is not HID class")
	}
	if _, err := usb.ControlTransfer(addr, hw.SetupPacket{Request: 9, Value: 1}); err != nil {
		return fmt.Errorf("set configuration: %w", err)
	}
	if _, err := usb.ControlTransfer(addr, hw.SetupPacket{Request: 11, Value: 0}); err != nil {
		return fmt.Errorf("set boot protocol: %w", err)
	}
	k.kbdAddr = addr
	k.rawEvents = &eventQueue{}
	k.m.IRQ.Register(hw.IRQUSB, 0, func(hw.IRQLine, int) { k.drainKeyboard() })

	// Game HAT buttons arrive via GPIO and are translated to the same
	// event stream (§5.5: buttons "emit key events through /dev/events").
	k.m.IRQ.Register(hw.IRQGPIO, 0, func(hw.IRQLine, int) { k.drainButtons() })
	k.Printk("proto: usb keyboard at address %d\n", addr)
	return nil
}

// drainKeyboard services the USB interrupt: fetch reports, diff against
// the previous state to produce down/up events, and route them.
func (k *Kernel) drainKeyboard() {
	for {
		rep, ok, err := k.m.USB.InterruptTransfer(k.kbdAddr)
		if err != nil || !ok {
			return
		}
		prev := k.kbdLast
		k.kbdLast = rep
		mods := rep[0]
		// Releases: usages in prev but not in rep.
		for _, u := range prev[2:] {
			if u == 0 {
				continue
			}
			if !reportHas(rep, u) {
				k.routeEvent(wm.InputEvent{Down: false, Code: u, Mods: mods, ASCII: hw.UsageToASCII(u, mods)})
			}
		}
		// Presses: usages in rep but not in prev.
		for _, u := range rep[2:] {
			if u == 0 {
				continue
			}
			if !reportHas(prev, u) {
				k.routeEvent(wm.InputEvent{Down: true, Code: u, Mods: mods, ASCII: hw.UsageToASCII(u, mods)})
			}
		}
	}
}

func reportHas(rep [hw.HIDReportLen]byte, usage byte) bool {
	for _, u := range rep[2:] {
		if u == usage {
			return true
		}
	}
	return false
}

// drainButtons maps Game HAT GPIO edges to key events.
func (k *Kernel) drainButtons() {
	for _, ev := range k.m.GPIO.DrainEvents() {
		var usage byte
		switch ev.Pin {
		case hw.PinUp:
			usage = hw.UsageUp
		case hw.PinDown:
			usage = hw.UsageDown
		case hw.PinLeft:
			usage = hw.UsageLeft
		case hw.PinRight:
			usage = hw.UsageRight
		case hw.PinA:
			usage = hw.UsageA
		case hw.PinB:
			usage = hw.UsageA + 1
		case hw.PinStart:
			usage = hw.UsageEnter
		case hw.PinSelect:
			usage = hw.UsageTab
		default:
			continue
		}
		k.routeEvent(wm.InputEvent{Down: ev.Pressed, Code: usage, ASCII: hw.UsageToASCII(usage, 0)})
	}
}

// routeEvent sends an input event to the WM's focused window; when no
// window exists (direct-rendering apps like DOOM, or a bare console), it
// lands in the raw /dev/events queue instead.
func (k *Kernel) routeEvent(e wm.InputEvent) {
	if k.WM != nil && k.WM.Focused() != nil {
		k.WM.DeliverKey(e)
		return
	}
	if k.rawEvents != nil {
		k.rawEvents.push(e)
	}
}

// InjectKey lets tests and examples type without a USB device attached
// (it still flows through the normal routing).
func (k *Kernel) InjectKey(e wm.InputEvent) { k.routeEvent(e) }

// registerDevices populates /dev.
func (k *Kernel) registerDevices() {
	k.DevFS.Register("uart", func(*sched.Task, int) (fs.FileOps, error) {
		return &uartFile{k: k}, nil
	})
	k.DevFS.Register("console", func(*sched.Task, int) (fs.FileOps, error) {
		return &consoleFile{k: k}, nil
	})
	k.DevFS.Register("fb", func(_ *sched.Task, flags int) (fs.FileOps, error) {
		return &fbFile{k: k}, nil
	})
	k.DevFS.Register("events", func(_ *sched.Task, flags int) (fs.FileOps, error) {
		return &eventsFile{k: k, nonblock: flags&fs.ONonblock != 0}, nil
	})
	if k.cfg.EnableSound {
		k.DevFS.Register("sb", func(*sched.Task, int) (fs.FileOps, error) {
			return &soundFile{dev: k.sound}, nil
		})
	}
}

// registerWMDevices adds the Prototype 5 surface devices once a WM exists.
// Called lazily from the surface open path.

// --- /dev/uart and /dev/console ---

// uartFile is raw serial: writes transmit, reads poll the RX FIFO.
type uartFile struct {
	fs.BaseOps
	k *Kernel
}

// Read implements fs.FileOps.
func (u *uartFile) Read(t *sched.Task, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		b, ok := u.k.m.UART.RxByte()
		if !ok {
			break
		}
		p[n] = b
		n++
	}
	return n, nil
}

// Write implements fs.FileOps.
func (u *uartFile) Write(_ *sched.Task, p []byte) (int, error) {
	return u.k.m.UART.Write(p)
}

// Stat implements fs.FileOps.
func (u *uartFile) Stat(*sched.Task) (fs.Stat, error) {
	return fs.Stat{Name: "uart", Type: fs.TypeDevice}, nil
}

// consoleFile is the shell's terminal: reads block for keyboard ASCII
// (falling back to UART RX), writes go to the UART synchronously.
type consoleFile struct {
	fs.BaseOps
	k *Kernel
}

// Read implements fs.FileOps: blocks for the next typed byte.
func (c *consoleFile) Read(t *sched.Task, p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for {
		// Keyboard first.
		if q := c.k.rawEvents; q != nil {
			if e, ok := q.pop(t, false); ok {
				if e.Down && e.ASCII != 0 {
					p[0] = e.ASCII
					return 1, nil
				}
				continue // releases and unprintables are skipped
			}
		}
		if b, ok := c.k.m.UART.RxByte(); ok {
			p[0] = b
			return 1, nil
		}
		// Nothing pending: sleep briefly (console poll tick).
		t.SleepFor(2 * time.Millisecond)
	}
}

// Write implements fs.FileOps.
func (c *consoleFile) Write(_ *sched.Task, p []byte) (int, error) {
	return c.k.m.UART.Write(p)
}

// Stat implements fs.FileOps.
func (c *consoleFile) Stat(*sched.Task) (fs.Stat, error) {
	return fs.Stat{Name: "console", Type: fs.TypeDevice}, nil
}

// --- /dev/fb ---

// fbFile exposes the framebuffer as a positional device file; ioctl
// flushes the cache so the panel shows the writes. The offset lives in
// the OpenFile.
type fbFile struct {
	fs.BaseOps
	k *Kernel
}

// Pread implements fs.FileOps.
func (f *fbFile) Pread(_ *sched.Task, p []byte, off int64) (int, error) {
	fb := f.k.FB
	if off >= int64(fb.Size()) {
		return 0, nil
	}
	return copy(p, fb.Mem()[off:]), nil
}

// Pwrite implements fs.FileOps.
func (f *fbFile) Pwrite(_ *sched.Task, p []byte, off int64) (int, int64, error) {
	fb := f.k.FB
	if off == fs.OffAppend {
		return 0, 0, fs.ErrBadSeek
	}
	if off >= int64(fb.Size()) {
		return 0, off, fs.ErrNoSpace
	}
	n := copy(fb.Mem()[off:], p)
	return n, off + int64(n), nil
}

// Stat implements fs.FileOps.
func (f *fbFile) Stat(*sched.Task) (fs.Stat, error) {
	return fs.Stat{Name: "fb", Type: fs.TypeDevice, Size: int64(f.k.FB.Size())}, nil
}

// Caps implements fs.FileOps: positional, with control operations.
func (f *fbFile) Caps() fs.Caps { return fs.CapSeek | fs.CapIoctl }

// Ioctl implements fs.FileOps.
func (f *fbFile) Ioctl(_ *sched.Task, op int, arg int64) (int64, error) {
	switch op {
	case IoctlFBFlush:
		f.k.FB.Flush()
		return 0, nil
	case IoctlFBInfo:
		return int64(f.k.FB.Width())<<32 | int64(f.k.FB.Height()), nil
	}
	return 0, fmt.Errorf("kernel: fb ioctl %d", op)
}

// --- /dev/events ---

// eventsFile delivers raw keyboard events as 8-byte records; with
// O_NONBLOCK (or the ioctl) an empty queue returns ErrWouldBlock — the
// §4.5 non-blocking IO path DOOM's key polling needs.
type eventsFile struct {
	fs.BaseOps
	k        *Kernel
	nonblock bool
}

// Read implements fs.FileOps: the next 8-byte event record.
func (f *eventsFile) Read(t *sched.Task, p []byte) (int, error) {
	if len(p) < wm.EventSize {
		return 0, fmt.Errorf("kernel: events read needs %d bytes", wm.EventSize)
	}
	q := f.k.rawEvents
	if q == nil {
		return 0, fs.ErrNotFound
	}
	e, ok := q.pop(t, !f.nonblock)
	if !ok {
		return 0, fs.ErrWouldBlock
	}
	e.Encode(p)
	return wm.EventSize, nil
}

// Stat implements fs.FileOps.
func (f *eventsFile) Stat(*sched.Task) (fs.Stat, error) {
	return fs.Stat{Name: "events", Type: fs.TypeDevice}, nil
}

// Caps implements fs.FileOps: a stream with control operations.
func (f *eventsFile) Caps() fs.Caps { return fs.CapIoctl }

// Ioctl implements fs.FileOps.
func (f *eventsFile) Ioctl(_ *sched.Task, op int, arg int64) (int64, error) {
	if op == IoctlNonblock {
		f.nonblock = arg != 0
		return 0, nil
	}
	return 0, fmt.Errorf("kernel: events ioctl %d", op)
}
