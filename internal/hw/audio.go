package hw

import (
	"sync"
	"time"
)

// DefaultSampleRate is the PWM output rate Proto uses for the 3.5 mm jack.
const DefaultSampleRate = 22050

// PWMAudio models the Pi3's PWM audio output. Hardware drains its FIFO at
// the sample rate; when the FIFO runs dry playback stutters (an underrun),
// which is exactly the observable failure the paper uses as debugging
// feedback for the producer-consumer pipeline (§4.4).
//
// Samples reach the FIFO only via DMA transfers (see DMAEngine); the CPU
// never programs samples directly, as on the real part.
type PWMAudio struct {
	rate int

	mu        sync.Mutex
	fifo      []int16
	fifoCap   int
	consumed  uint64
	underruns uint64
	energy    float64 // sum of squares, for "did sound actually play" tests
	running   bool
	stop      chan struct{}
}

// NewPWMAudio returns a stopped PWM block with a fifoCap-sample FIFO.
func NewPWMAudio(rate, fifoCap int) *PWMAudio {
	if rate <= 0 || fifoCap <= 0 {
		panic("hw: bad PWM parameters")
	}
	return &PWMAudio{rate: rate, fifoCap: fifoCap}
}

// Rate returns the output sample rate.
func (p *PWMAudio) Rate() int { return p.rate }

// Start begins draining the FIFO at the sample rate.
func (p *PWMAudio) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.running {
		return
	}
	p.running = true
	p.stop = make(chan struct{})
	stop := p.stop
	go p.drain(stop)
}

// Stop halts the output stage.
func (p *PWMAudio) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.running {
		return
	}
	close(p.stop)
	p.running = false
}

// drain consumes samples in small batches at the nominal rate.
func (p *PWMAudio) drain(stop chan struct{}) {
	const batchMS = 5
	batch := p.rate * batchMS / 1000
	tick := time.NewTicker(batchMS * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			p.mu.Lock()
			n := batch
			if n > len(p.fifo) {
				p.underruns++
				n = len(p.fifo)
			}
			for _, s := range p.fifo[:n] {
				p.energy += float64(s) * float64(s)
			}
			p.consumed += uint64(n)
			p.fifo = p.fifo[n:]
			p.mu.Unlock()
		}
	}
}

// push is called by the DMA engine; it returns how many samples fit.
func (p *PWMAudio) push(samples []int16) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	room := p.fifoCap - len(p.fifo)
	if room <= 0 {
		return 0
	}
	if len(samples) > room {
		samples = samples[:room]
	}
	p.fifo = append(p.fifo, samples...)
	return len(samples)
}

// Stats reports playback progress and health.
func (p *PWMAudio) Stats() (consumed, underruns uint64, energy float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.consumed, p.underruns, p.energy
}

// DMAEngine models the BCM2837 DMA controller as Proto's sound driver uses
// it: the driver hands it a physical buffer of 16-bit samples; the engine
// copies them into the PWM FIFO asynchronously and raises IRQDMA on
// completion so the driver can queue the next buffer (§4.4's
// producer-consumer pipeline).
type DMAEngine struct {
	mem *Mem
	ic  *IRQController

	mu        sync.Mutex
	busy      bool
	transfers uint64
	bytes     uint64
}

// NewDMAEngine returns the DMA controller.
func NewDMAEngine(mem *Mem, ic *IRQController) *DMAEngine {
	return &DMAEngine{mem: mem, ic: ic}
}

// TransferToPWM starts an asynchronous copy of n bytes at physical address
// pa (little-endian int16 samples) into the PWM FIFO. It returns false if a
// transfer is already in flight (one channel, like Proto's driver assumes).
// Completion raises IRQDMA.
func (d *DMAEngine) TransferToPWM(pwm *PWMAudio, pa, n int) bool {
	if n <= 0 || n%2 != 0 {
		panic("hw: DMA audio transfer must be a positive even byte count")
	}
	d.mu.Lock()
	if d.busy {
		d.mu.Unlock()
		return false
	}
	d.busy = true
	d.mu.Unlock()

	src := d.mem.Bytes(pa, n)
	samples := make([]int16, n/2)
	for i := range samples {
		samples[i] = int16(uint16(src[2*i]) | uint16(src[2*i+1])<<8)
	}
	go func() {
		// The engine trickles samples in as FIFO room appears, pacing
		// itself against the output stage like real DMA pacing via DREQ.
		for len(samples) > 0 {
			pushed := pwm.push(samples)
			if pushed == 0 {
				time.Sleep(time.Millisecond)
				continue
			}
			samples = samples[pushed:]
		}
		d.mu.Lock()
		d.busy = false
		d.transfers++
		d.bytes += uint64(n)
		d.mu.Unlock()
		d.ic.Raise(IRQDMA)
	}()
	return true
}

// Stats reports completed transfer counts for the power model.
func (d *DMAEngine) Stats() (transfers, bytes uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.transfers, d.bytes
}
