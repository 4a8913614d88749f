package hw

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// IRQLine identifies one interrupt source, mirroring the BCM2837 sources
// Proto uses.
type IRQLine int

// Interrupt sources. Per-core generic timers get one line per core; all
// other IO lines are routed to a single core (core 0 on Proto) for
// simplicity, exactly as §4.5 describes.
const (
	IRQSysTimer IRQLine = iota // SoC-level system timer
	IRQUARTRx                  // UART receive FIFO non-empty
	IRQUSB                     // USB host controller (keyboard reports)
	IRQDMA                     // DMA transfer completion (audio)
	IRQGPIO                    // GPIO edge (Game HAT buttons)
	IRQSD                      // SD controller DMA completion (prod baseline)
	IRQNIC                     // NIC ring activity: RX frame delivered or TX descriptor completed (unless masked)
	FIQPanic                   // panic button: fast interrupt, never masked

	irqGenericTimerBase // per-core timer lines follow; do not use directly
)

// GenericTimerLine returns the IRQ line of core's ARM generic timer.
func GenericTimerLine(core int) IRQLine { return irqGenericTimerBase + IRQLine(core) }

// String names the line for traces and tests.
func (l IRQLine) String() string {
	switch l {
	case IRQSysTimer:
		return "systimer"
	case IRQUARTRx:
		return "uart-rx"
	case IRQUSB:
		return "usb"
	case IRQDMA:
		return "dma"
	case IRQGPIO:
		return "gpio"
	case IRQSD:
		return "sd"
	case IRQNIC:
		return "nic"
	case FIQPanic:
		return "fiq-panic"
	}
	if l >= irqGenericTimerBase {
		return fmt.Sprintf("gtimer%d", int(l-irqGenericTimerBase))
	}
	return fmt.Sprintf("irq%d", int(l))
}

// IRQHandler runs in interrupt context: on the raising device's goroutine,
// with the target core's IRQs conceptually masked. Handlers must not block
// on anything a masked-IRQ context could not wait for.
type IRQHandler func(line IRQLine, core int)

// IRQController routes device interrupts to cores, honouring per-core
// masking. A line raised while its target core is masked stays pending and
// is delivered when the core unmasks — except FIQPanic, which (like ARMv8's
// FIQ in Proto's panic-button design) bypasses the IRQ mask entirely and is
// delivered round-robin across cores.
type IRQController struct {
	mu       sync.Mutex
	handlers map[IRQLine]IRQHandler
	routing  map[IRQLine]int
	enabled  map[IRQLine]bool
	masked   []bool      // per-core IRQ mask (DAIF.I analogue)
	pending  [][]IRQLine // per-core pending lines raised while masked
	fiqNext  atomic.Uint32

	counts map[IRQLine]*atomic.Uint64
}

// NewIRQController returns a controller for ncores cores. All lines start
// disabled and routed to core 0.
func NewIRQController(ncores int) *IRQController {
	if ncores <= 0 {
		panic("hw: need at least one core")
	}
	return &IRQController{
		handlers: make(map[IRQLine]IRQHandler),
		routing:  make(map[IRQLine]int),
		enabled:  make(map[IRQLine]bool),
		masked:   make([]bool, ncores),
		pending:  make([][]IRQLine, ncores),
		counts:   make(map[IRQLine]*atomic.Uint64),
	}
}

// Cores returns the number of cores the controller routes to.
func (ic *IRQController) Cores() int { return len(ic.masked) }

// Register installs the handler for a line and enables it, routing to core.
func (ic *IRQController) Register(line IRQLine, core int, h IRQHandler) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if core < 0 || core >= len(ic.masked) {
		panic(fmt.Sprintf("hw: irq %v routed to bad core %d", line, core))
	}
	ic.handlers[line] = h
	ic.routing[line] = core
	ic.enabled[line] = true
	if ic.counts[line] == nil {
		ic.counts[line] = new(atomic.Uint64)
	}
}

// Disable stops delivery for a line; raises while disabled are dropped.
func (ic *IRQController) Disable(line IRQLine) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	ic.enabled[line] = false
}

// Mask blocks IRQ delivery to a core (raised lines go pending).
func (ic *IRQController) Mask(core int) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	ic.masked[core] = true
}

// Unmask re-enables IRQ delivery to a core and drains its pending lines.
func (ic *IRQController) Unmask(core int) {
	ic.mu.Lock()
	drain := ic.pending[core]
	ic.pending[core] = nil
	ic.masked[core] = false
	handlers := make([]IRQHandler, 0, len(drain))
	for _, line := range drain {
		if ic.enabled[line] {
			handlers = append(handlers, ic.handlers[line])
		}
	}
	ic.mu.Unlock()
	for i, line := range drain {
		if i < len(handlers) && handlers[i] != nil {
			ic.counts[line].Add(1)
			handlers[i](line, core)
		}
	}
}

// Raise signals a device interrupt. If the line's core is masked the
// interrupt stays pending; FIQPanic ignores masking and rotates cores.
func (ic *IRQController) Raise(line IRQLine) {
	if line == FIQPanic {
		ic.raiseFIQ()
		return
	}
	ic.mu.Lock()
	if !ic.enabled[line] {
		ic.mu.Unlock()
		return
	}
	core := ic.routing[line]
	h := ic.handlers[line]
	if ic.masked[core] {
		ic.pending[core] = append(ic.pending[core], line)
		ic.mu.Unlock()
		return
	}
	cnt := ic.counts[line]
	ic.mu.Unlock()
	if h != nil {
		cnt.Add(1)
		h(line, core)
	}
}

// raiseFIQ delivers the panic FIQ round-robin regardless of IRQ masks, as
// Proto's emergency-dump design requires (§5.1).
func (ic *IRQController) raiseFIQ() {
	ic.mu.Lock()
	h := ic.handlers[FIQPanic]
	enabled := ic.enabled[FIQPanic]
	n := len(ic.masked)
	cnt := ic.counts[FIQPanic]
	ic.mu.Unlock()
	if !enabled || h == nil {
		return
	}
	core := int(ic.fiqNext.Add(1)-1) % n
	cnt.Add(1)
	h(FIQPanic, core)
}

// Count reports how many interrupts of a line have been delivered.
func (ic *IRQController) Count(line IRQLine) uint64 {
	ic.mu.Lock()
	c := ic.counts[line]
	ic.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// PendingLen reports how many interrupts are queued for a masked core
// (exposed for tests of mask/unmask semantics).
func (ic *IRQController) PendingLen(core int) int {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	return len(ic.pending[core])
}

// Routed reports whether a line currently has an enabled handler. Devices
// whose completions are collected exclusively through an IRQ handler (the
// NIC rings) check this at attach time so a forgotten Register fails
// loudly instead of silently dropping every completion.
func (ic *IRQController) Routed(line IRQLine) bool {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	return ic.enabled[line] && ic.handlers[line] != nil
}
