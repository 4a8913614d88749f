package hw

import (
	"encoding/binary"
	"errors"
	"sync"
)

// The USB stack is deliberately layered — host controller, root hub,
// device, endpoint, HID class — because the paper's point about USPi is
// that USB keyboards buy demonstrability at the price of a multi-layer
// stack the students treat as a substrate (§4.4). The kernel driver above
// enumerates the bus with control transfers and then services interrupt-IN
// transfers carrying 8-byte HID boot-protocol reports.

// USB request codes (the subset enumeration needs).
const (
	usbReqGetDescriptor = 6
	usbReqSetAddress    = 5
	usbReqSetConfig     = 9
	usbReqSetProtocol   = 11 // HID class: 0 = boot protocol

	usbDescDevice = 1
	usbDescConfig = 2
)

// HIDReportLen is the boot-protocol keyboard report size.
const HIDReportLen = 8

// HID modifier bits (byte 0 of the report).
const (
	ModLCtrl  = 1 << 0
	ModLShift = 1 << 1
	ModLAlt   = 1 << 2
	ModRCtrl  = 1 << 4
	ModRShift = 1 << 5
)

// Errors surfaced by the controller.
var (
	ErrUSBNoDevice = errors.New("usb: no device at address")
	ErrUSBStall    = errors.New("usb: endpoint stalled")
)

// SetupPacket is a USB control-transfer setup stage.
type SetupPacket struct {
	RequestType byte
	Request     byte
	Value       uint16
	Index       uint16
	Length      uint16
}

// usbDevice is the device-side model: a HID boot keyboard plugged into the
// root hub.
type usbDevice struct {
	mu         sync.Mutex
	address    byte
	configured bool
	bootProto  bool

	reports [][HIDReportLen]byte // pending interrupt-IN reports
}

func (d *usbDevice) deviceDescriptor() []byte {
	// Standard 18-byte device descriptor: HID keyboard, VID/PID invented.
	desc := make([]byte, 18)
	desc[0] = 18
	desc[1] = usbDescDevice
	binary.LittleEndian.PutUint16(desc[2:], 0x0200) // USB 2.0
	desc[7] = 8                                     // ep0 max packet
	binary.LittleEndian.PutUint16(desc[8:], 0x1d6b) // vendor
	binary.LittleEndian.PutUint16(desc[10:], 0x0112)
	desc[17] = 1 // one configuration
	return desc
}

func (d *usbDevice) configDescriptor() []byte {
	// config(9) + interface(9) + HID(9) + endpoint(7) = 34 bytes.
	buf := make([]byte, 34)
	buf[0], buf[1] = 9, usbDescConfig
	binary.LittleEndian.PutUint16(buf[2:], 34)
	buf[4] = 1 // one interface
	buf[5] = 1 // configuration value
	iface := buf[9:]
	iface[0], iface[1] = 9, 4 // interface descriptor
	iface[3] = 0
	iface[4] = 1 // one endpoint
	iface[5] = 3 // HID class
	iface[6] = 1 // boot subclass
	iface[7] = 1 // keyboard protocol
	hid := buf[18:]
	hid[0], hid[1] = 9, 0x21 // HID descriptor
	ep := buf[27:]
	ep[0], ep[1] = 7, 5 // endpoint descriptor
	ep[2] = 0x81        // EP1 IN
	ep[3] = 3           // interrupt
	binary.LittleEndian.PutUint16(ep[4:], HIDReportLen)
	ep[6] = 10 // 10 ms polling interval
	return buf
}

func (d *usbDevice) control(setup SetupPacket) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch setup.Request {
	case usbReqGetDescriptor:
		switch byte(setup.Value >> 8) {
		case usbDescDevice:
			return clampDesc(d.deviceDescriptor(), setup.Length), nil
		case usbDescConfig:
			return clampDesc(d.configDescriptor(), setup.Length), nil
		}
		return nil, ErrUSBStall
	case usbReqSetAddress:
		d.address = byte(setup.Value)
		return nil, nil
	case usbReqSetConfig:
		d.configured = setup.Value == 1
		return nil, nil
	case usbReqSetProtocol:
		d.bootProto = setup.Value == 0
		return nil, nil
	}
	return nil, ErrUSBStall
}

func clampDesc(desc []byte, want uint16) []byte {
	if int(want) < len(desc) {
		return desc[:want]
	}
	return desc
}

// interruptIn pops one pending report, ok=false when none pending.
func (d *usbDevice) interruptIn() (r [HIDReportLen]byte, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.configured || len(d.reports) == 0 {
		return r, false
	}
	r = d.reports[0]
	d.reports = d.reports[1:]
	return r, true
}

func (d *usbDevice) queueReport(r [HIDReportLen]byte) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.reports) >= 64 {
		return false
	}
	d.reports = append(d.reports, r)
	return true
}

// USBController is the host-controller + root-hub layer. Exactly one
// keyboard can be attached (Proto supports one USB keyboard).
type USBController struct {
	ic *IRQController

	mu       sync.Mutex
	kbd      *usbDevice
	attached bool

	controlXfers uint64
	intXfers     uint64
}

// NewUSBController returns a controller with no device attached.
func NewUSBController(ic *IRQController) *USBController {
	return &USBController{ic: ic}
}

// AttachKeyboard plugs a keyboard into the root hub.
func (c *USBController) AttachKeyboard() *USBKeyboard {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.kbd = &usbDevice{}
	c.attached = true
	return &USBKeyboard{dev: c.kbd, ic: c.ic}
}

// PortConnected reports root-hub port status.
func (c *USBController) PortConnected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attached
}

// ControlTransfer performs a control transfer to the device at addr
// (address 0 reaches the just-reset device, per the USB enumeration dance).
func (c *USBController) ControlTransfer(addr byte, setup SetupPacket) ([]byte, error) {
	c.mu.Lock()
	dev := c.kbd
	c.controlXfers++
	c.mu.Unlock()
	if dev == nil {
		return nil, ErrUSBNoDevice
	}
	dev.mu.Lock()
	devAddr := dev.address
	dev.mu.Unlock()
	// After SET_ADDRESS the device no longer answers at the default
	// address 0, exactly the enumeration pitfall USPi handles.
	if addr != devAddr {
		return nil, ErrUSBNoDevice
	}
	return dev.control(setup)
}

// InterruptTransfer polls the keyboard's interrupt-IN endpoint for one
// report. ok=false means NAK (nothing pending), as on the wire.
func (c *USBController) InterruptTransfer(addr byte) (r [HIDReportLen]byte, ok bool, err error) {
	c.mu.Lock()
	dev := c.kbd
	c.intXfers++
	c.mu.Unlock()
	if dev == nil {
		return r, false, ErrUSBNoDevice
	}
	dev.mu.Lock()
	devAddr := dev.address
	dev.mu.Unlock()
	if addr != devAddr {
		return r, false, ErrUSBNoDevice
	}
	r, ok = dev.interruptIn()
	return r, ok, nil
}

// Stats reports transfer counts (used in tests to show enumeration really
// walked the descriptor dance).
func (c *USBController) Stats() (control, interrupt uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.controlXfers, c.intXfers
}

// USBKeyboard is the host-side handle tests use to type on the simulated
// keyboard. It builds genuine HID boot reports — including modifier bits,
// multi-key rollover and key release — the features the paper says UART
// input cannot provide (§4.3).
type USBKeyboard struct {
	dev *usbDevice
	ic  *IRQController

	mu   sync.Mutex
	down map[byte]bool
	mods byte
}

// KeyDown presses a key (HID usage code) and emits a report.
func (k *USBKeyboard) KeyDown(usage byte) { k.change(usage, 0, true) }

// KeyUp releases a key and emits a report.
func (k *USBKeyboard) KeyUp(usage byte) { k.change(usage, 0, false) }

// ModifierDown presses a modifier (ModLCtrl etc.).
func (k *USBKeyboard) ModifierDown(mod byte) { k.change(0, mod, true) }

// ModifierUp releases a modifier.
func (k *USBKeyboard) ModifierUp(mod byte) { k.change(0, mod, false) }

func (k *USBKeyboard) change(usage, mod byte, down bool) {
	k.mu.Lock()
	if k.down == nil {
		k.down = make(map[byte]bool)
	}
	if usage != 0 {
		if down {
			k.down[usage] = true
		} else {
			delete(k.down, usage)
		}
	}
	if mod != 0 {
		if down {
			k.mods |= mod
		} else {
			k.mods &^= mod
		}
	}
	var rep [HIDReportLen]byte
	rep[0] = k.mods
	i := 2
	for u := range k.down {
		if i >= HIDReportLen {
			break // 6-key rollover limit, as in boot protocol
		}
		rep[i] = u
		i++
	}
	k.mu.Unlock()
	if k.dev.queueReport(rep) {
		k.ic.Raise(IRQUSB)
	}
}

// Tap presses and releases a key.
func (k *USBKeyboard) Tap(usage byte) {
	k.KeyDown(usage)
	k.KeyUp(usage)
}

// TypeString taps the keys for each byte of s (letters, digits, space,
// newline and a few punctuation marks), driving the shell in tests.
func (k *USBKeyboard) TypeString(s string) {
	for _, ch := range []byte(s) {
		usage, shift, ok := asciiToUsage(ch)
		if !ok {
			continue
		}
		if shift {
			k.ModifierDown(ModLShift)
		}
		k.Tap(usage)
		if shift {
			k.ModifierUp(ModLShift)
		}
	}
}

// HID usage codes Proto's keyboard driver understands.
const (
	UsageA         = 0x04
	UsageZ         = 0x1d
	Usage1         = 0x1e
	Usage0         = 0x27
	UsageEnter     = 0x28
	UsageEsc       = 0x29
	UsageBackspace = 0x2a
	UsageTab       = 0x2b
	UsageSpace     = 0x2c
	UsageMinus     = 0x2d
	UsageDot       = 0x37
	UsageSlash     = 0x38
	UsageRight     = 0x4f
	UsageLeft      = 0x50
	UsageDown      = 0x51
	UsageUp        = 0x52
)

// asciiToUsage maps printable ASCII to (usage, needs-shift).
func asciiToUsage(ch byte) (usage byte, shift, ok bool) {
	switch {
	case ch >= 'a' && ch <= 'z':
		return UsageA + (ch - 'a'), false, true
	case ch >= 'A' && ch <= 'Z':
		return UsageA + (ch - 'A'), true, true
	case ch >= '1' && ch <= '9':
		return Usage1 + (ch - '1'), false, true
	case ch == '0':
		return Usage0, false, true
	case ch == '\n':
		return UsageEnter, false, true
	case ch == ' ':
		return UsageSpace, false, true
	case ch == '-':
		return UsageMinus, false, true
	case ch == '.':
		return UsageDot, false, true
	case ch == '/':
		return UsageSlash, false, true
	}
	return 0, false, false
}

// UsageToASCII converts a usage code plus modifier state back to a byte
// (0 if unprintable); the kernel's keyboard driver uses it for /dev/events'
// text form and the shell's line discipline.
func UsageToASCII(usage, mods byte) byte {
	shift := mods&(ModLShift|ModRShift) != 0
	switch {
	case usage >= UsageA && usage <= UsageZ:
		if shift {
			return 'A' + (usage - UsageA)
		}
		return 'a' + (usage - UsageA)
	case usage >= Usage1 && usage <= Usage1+8:
		return '1' + (usage - Usage1)
	case usage == Usage0:
		return '0'
	case usage == UsageEnter:
		return '\n'
	case usage == UsageSpace:
		return ' '
	case usage == UsageBackspace:
		return 0x08
	case usage == UsageMinus:
		return '-'
	case usage == UsageDot:
		return '.'
	case usage == UsageSlash:
		return '/'
	}
	return 0
}
