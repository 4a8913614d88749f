package hw

import (
	"sync"
)

// GPIO pin assignments for the Game HAT buttons and the panic button, as
// Proto wires them.
const (
	PinUp     = 5
	PinDown   = 6
	PinLeft   = 13
	PinRight  = 19
	PinA      = 16
	PinB      = 26
	PinStart  = 20
	PinSelect = 21
	PinPanic  = 4 // push button wired to FIQ
	numPins   = 32
)

// GPIO models the Pi3 GPIO block as Proto uses it: button inputs that raise
// edge interrupts, plus one pin routed to FIQ for the panic button (§5.1).
type GPIO struct {
	ic *IRQController

	mu     sync.Mutex
	level  [numPins]bool
	events []GPIOEvent
}

// GPIOEvent records one edge for the kernel driver to collect.
type GPIOEvent struct {
	Pin     int
	Pressed bool // true = falling edge (buttons are active-low)
}

// NewGPIO returns the GPIO block.
func NewGPIO(ic *IRQController) *GPIO { return &GPIO{ic: ic} }

// Press simulates pressing a button (falling edge on an active-low pin).
// Pressing PinPanic raises FIQ instead of the ordinary GPIO IRQ — the whole
// point of the panic button is to fire even when IRQs are masked.
func (g *GPIO) Press(pin int) {
	g.setLevel(pin, true)
}

// Release simulates releasing a button.
func (g *GPIO) Release(pin int) {
	g.setLevel(pin, false)
}

func (g *GPIO) setLevel(pin int, pressed bool) {
	if pin < 0 || pin >= numPins {
		panic("hw: gpio pin out of range")
	}
	g.mu.Lock()
	if g.level[pin] == pressed {
		g.mu.Unlock()
		return // no edge
	}
	g.level[pin] = pressed
	g.events = append(g.events, GPIOEvent{Pin: pin, Pressed: pressed})
	g.mu.Unlock()
	if pin == PinPanic {
		if pressed {
			g.ic.Raise(FIQPanic)
		}
		return
	}
	g.ic.Raise(IRQGPIO)
}

// DrainEvents returns and clears pending edges; the kernel driver calls this
// from its GPIO IRQ handler.
func (g *GPIO) DrainEvents() []GPIOEvent {
	g.mu.Lock()
	defer g.mu.Unlock()
	evs := g.events
	g.events = nil
	return evs
}
