package hw

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestMemRoundsUpToFrames(t *testing.T) {
	m := NewMem(FrameSize + 1)
	if m.Size() != 2*FrameSize {
		t.Fatalf("size = %d, want %d", m.Size(), 2*FrameSize)
	}
	if m.Frames() != 2 {
		t.Fatalf("frames = %d, want 2", m.Frames())
	}
}

func TestMemBytesAliases(t *testing.T) {
	m := NewMem(4 * FrameSize)
	a := m.Bytes(100, 8)
	a[0] = 0xAB
	b := m.Bytes(100, 1)
	if b[0] != 0xAB {
		t.Fatal("Bytes does not alias physical memory")
	}
}

func TestMemOutOfRangePanics(t *testing.T) {
	m := NewMem(FrameSize)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range physical access")
		}
	}()
	m.Bytes(FrameSize-1, 2)
}

func TestMemScrambleNonZero(t *testing.T) {
	m := NewMem(FrameSize)
	m.Scramble(42)
	zero := 0
	for _, b := range m.Bytes(0, FrameSize) {
		if b == 0 {
			zero++
		}
	}
	if zero > FrameSize/8 {
		t.Fatalf("scrambled memory suspiciously zero-heavy: %d/%d", zero, FrameSize)
	}
}

func TestMemScrambleDeterministicPerSeed(t *testing.T) {
	// An odd size exercises the byte tail after the 8-byte stores.
	const size = 2*FrameSize + 5
	fill := func(seed uint64) []byte {
		m := NewMem(size)
		m.Scramble(seed)
		return m.Bytes(0, size)
	}
	a, b, c := fill(42), fill(42), fill(7)
	if !bytes.Equal(a, b) {
		t.Fatal("equal seeds gave different memory")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds gave equal memory")
	}
	if bytes.Equal(a[size-5:], c[size-5:]) {
		t.Fatal("different seeds gave an equal tail")
	}
}

// BenchmarkScramble measures the power-on DRAM fill that every boot pays
// (64 MiB on the default machine).
func BenchmarkScramble(b *testing.B) {
	m := NewMem(64 << 20)
	b.SetBytes(int64(m.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scramble(uint64(i) + 1)
	}
}

func TestMemMoveVariantsAgree(t *testing.T) {
	check := func(seed uint64, dstOff, srcOff, n uint16) bool {
		m1 := NewMem(8 * FrameSize)
		m2 := NewMem(8 * FrameSize)
		m1.Scramble(seed | 1)
		copy(m2.Bytes(0, m2.Size()), m1.Bytes(0, m1.Size()))
		// Keep both regions inside their own 4-frame halves.
		d := int(dstOff) % (3 * FrameSize)
		s := int(srcOff)%(3*FrameSize) + 4*FrameSize
		l := int(n) % FrameSize
		m1.MemMove(d, s, l)
		m2.MemMoveSlow(d, s, l)
		return bytes.Equal(m1.Bytes(0, m1.Size()), m2.Bytes(0, m2.Size()))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIRQDeliveryAndRouting(t *testing.T) {
	ic := NewIRQController(2)
	var gotLine IRQLine
	var gotCore int
	ic.Register(IRQUSB, 1, func(l IRQLine, c int) { gotLine, gotCore = l, c })
	ic.Raise(IRQUSB)
	if gotLine != IRQUSB || gotCore != 1 {
		t.Fatalf("delivered (%v, core %d), want (usb, core 1)", gotLine, gotCore)
	}
	if ic.Count(IRQUSB) != 1 {
		t.Fatalf("count = %d, want 1", ic.Count(IRQUSB))
	}
}

func TestIRQMaskPendsAndUnmaskDrains(t *testing.T) {
	ic := NewIRQController(1)
	var fired atomic.Int32
	ic.Register(IRQDMA, 0, func(IRQLine, int) { fired.Add(1) })
	ic.Mask(0)
	ic.Raise(IRQDMA)
	ic.Raise(IRQDMA)
	if fired.Load() != 0 {
		t.Fatal("IRQ delivered while masked")
	}
	if ic.PendingLen(0) != 2 {
		t.Fatalf("pending = %d, want 2", ic.PendingLen(0))
	}
	ic.Unmask(0)
	if fired.Load() != 2 {
		t.Fatalf("after unmask fired = %d, want 2", fired.Load())
	}
}

func TestIRQDisabledDropped(t *testing.T) {
	ic := NewIRQController(1)
	fired := false
	ic.Register(IRQGPIO, 0, func(IRQLine, int) { fired = true })
	ic.Disable(IRQGPIO)
	ic.Raise(IRQGPIO)
	if fired {
		t.Fatal("disabled line delivered")
	}
}

func TestFIQBypassesMaskAndRotates(t *testing.T) {
	ic := NewIRQController(4)
	var mu sync.Mutex
	var cores []int
	ic.Register(FIQPanic, 0, func(_ IRQLine, c int) {
		mu.Lock()
		cores = append(cores, c)
		mu.Unlock()
	})
	for c := 0; c < 4; c++ {
		ic.Mask(c) // simulate a kernel deadlocked with IRQs off everywhere
	}
	for i := 0; i < 4; i++ {
		ic.Raise(FIQPanic)
	}
	seen := map[int]bool{}
	for _, c := range cores {
		seen[c] = true
	}
	if len(cores) != 4 || len(seen) != 4 {
		t.Fatalf("FIQ cores = %v, want one delivery on each of 4 cores", cores)
	}
}

func TestUARTSynchronousWriteAndTranscript(t *testing.T) {
	ic := NewIRQController(1)
	u := NewUART(ic)
	u.TxByte('h')
	u.Write([]byte("i\n"))
	if got := u.Transcript(); got != "hi\n" {
		t.Fatalf("transcript = %q", got)
	}
	if u.TxBytes() != 3 {
		t.Fatalf("txbytes = %d, want 3", u.TxBytes())
	}
}

func TestUARTPolledRead(t *testing.T) {
	ic := NewIRQController(1)
	u := NewUART(ic)
	if _, ok := u.RxByte(); ok {
		t.Fatal("read from empty FIFO succeeded")
	}
	u.Feed([]byte("ab"))
	b1, _ := u.RxByte()
	b2, _ := u.RxByte()
	if b1 != 'a' || b2 != 'b' {
		t.Fatalf("read %c%c, want ab", b1, b2)
	}
}

func TestUARTIRQMode(t *testing.T) {
	ic := NewIRQController(1)
	u := NewUART(ic)
	var raised atomic.Int32
	ic.Register(IRQUARTRx, 0, func(IRQLine, int) { raised.Add(1) })
	u.SetMode(UARTIRQRx)
	u.Feed([]byte("x"))
	if raised.Load() != 1 {
		t.Fatalf("rx irq = %d, want 1", raised.Load())
	}
}

func TestUARTFIFOOverflowDrops(t *testing.T) {
	ic := NewIRQController(1)
	u := NewUART(ic)
	big := make([]byte, uartRxFIFO+10)
	u.Feed(big)
	if u.Dropped() != 10 {
		t.Fatalf("dropped = %d, want 10", u.Dropped())
	}
}

func TestGenericTimerFires(t *testing.T) {
	ic := NewIRQController(1)
	var ticks atomic.Int32
	ic.Register(GenericTimerLine(0), 0, func(IRQLine, int) { ticks.Add(1) })
	gt := NewGenericTimer(0, ic)
	gt.Start(time.Millisecond)
	defer gt.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for ticks.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ticks.Load() < 3 {
		t.Fatalf("timer fired %d times in 2s, want >= 3", ticks.Load())
	}
}

func TestSystemTimerMonotonic(t *testing.T) {
	st := NewSystemTimer()
	a := st.Ticks()
	time.Sleep(2 * time.Millisecond)
	b := st.Ticks()
	if b <= a {
		t.Fatalf("system timer not advancing: %d -> %d", a, b)
	}
}

func TestMailboxFramebufferAllocation(t *testing.T) {
	mem := NewMem(16 << 20)
	mb := NewMailbox(mem)
	fb, err := mb.AllocFramebuffer(320, 240)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Width() != 320 || fb.Height() != 240 || fb.Pitch() != 320*4 {
		t.Fatalf("geometry %dx%d pitch %d", fb.Width(), fb.Height(), fb.Pitch())
	}
	if fb.Base()%FrameSize == 0 {
		// Not required, but the base must be inside DRAM.
	}
	if fb.Base() < 0 || fb.Base()+fb.Size() > mem.Size() {
		t.Fatalf("fb [%d,%d) outside DRAM", fb.Base(), fb.Base()+fb.Size())
	}
	again, err := mb.AllocFramebuffer(320, 240)
	if err != nil || again != fb {
		t.Fatal("second allocation should return the same framebuffer")
	}
	if _, err := mb.AllocFramebuffer(640, 480); err == nil {
		t.Fatal("geometry change should fail")
	}
}

func TestMailboxTooSmallDRAM(t *testing.T) {
	mem := NewMem(2 * FrameSize)
	mb := NewMailbox(mem)
	if _, err := mb.AllocFramebuffer(1920, 1080); err == nil {
		t.Fatal("expected allocation failure in tiny DRAM")
	}
}

// TestFramebufferCacheArtifact is the Prototype 3 lesson: writes without a
// flush do not reach the panel.
func TestFramebufferCacheArtifact(t *testing.T) {
	mem := NewMem(16 << 20)
	mb := NewMailbox(mem)
	fb, err := mb.AllocFramebuffer(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	px := fb.Mem()
	for i := range px {
		px[i] = 0x55
	}
	if fb.StaleBytes() != fb.Size() {
		t.Fatalf("stale = %d, want all %d bytes", fb.StaleBytes(), fb.Size())
	}
	if got := fb.PixelAt(0, 0); got == 0x55555555 {
		t.Fatal("panel saw unflushed write")
	}
	fb.Flush()
	if fb.StaleBytes() != 0 {
		t.Fatalf("stale after flush = %d", fb.StaleBytes())
	}
	if got := fb.PixelAt(0, 0); got != 0x55555555 {
		t.Fatalf("pixel = %#x after flush", got)
	}
}

func TestFramebufferPartialFlush(t *testing.T) {
	mem := NewMem(16 << 20)
	mb := NewMailbox(mem)
	fb, _ := mb.AllocFramebuffer(16, 16)
	px := fb.Mem()
	for i := range px {
		px[i] = 0xFF
	}
	fb.FlushRegion(0, fb.Pitch()) // first row only
	if fb.PixelAt(0, 0) != 0xFFFFFFFF {
		t.Fatal("flushed row not visible")
	}
	if fb.PixelAt(0, 1) == 0xFFFFFFFF {
		t.Fatal("unflushed row visible")
	}
	if fb.StaleBytes() != fb.Size()-fb.Pitch() {
		t.Fatalf("stale = %d, want %d", fb.StaleBytes(), fb.Size()-fb.Pitch())
	}
}

func TestGPIOEdgesAndIRQ(t *testing.T) {
	ic := NewIRQController(1)
	g := NewGPIO(ic)
	var irqs atomic.Int32
	ic.Register(IRQGPIO, 0, func(IRQLine, int) { irqs.Add(1) })
	g.Press(PinA)
	g.Press(PinA) // no edge, no irq
	g.Release(PinA)
	if irqs.Load() != 2 {
		t.Fatalf("irqs = %d, want 2 (press + release)", irqs.Load())
	}
	evs := g.DrainEvents()
	if len(evs) != 2 || !evs[0].Pressed || evs[1].Pressed {
		t.Fatalf("events = %+v", evs)
	}
	if len(g.DrainEvents()) != 0 {
		t.Fatal("drain did not clear events")
	}
}

func TestGPIOPanicButtonIsFIQ(t *testing.T) {
	ic := NewIRQController(2)
	g := NewGPIO(ic)
	var fiq, irq atomic.Int32
	ic.Register(FIQPanic, 0, func(IRQLine, int) { fiq.Add(1) })
	ic.Register(IRQGPIO, 0, func(IRQLine, int) { irq.Add(1) })
	ic.Mask(0)
	ic.Mask(1)
	g.Press(PinPanic)
	if fiq.Load() != 1 {
		t.Fatalf("fiq = %d, want 1 even with all cores masked", fiq.Load())
	}
	if irq.Load() != 0 {
		t.Fatal("panic button must not use the ordinary GPIO IRQ")
	}
}

func TestPWMDMAPipeline(t *testing.T) {
	mem := NewMem(1 << 20)
	ic := NewIRQController(1)
	pwm := NewPWMAudio(22050, 22050)
	dma := NewDMAEngine(mem, ic)
	var done atomic.Int32
	ic.Register(IRQDMA, 0, func(IRQLine, int) { done.Add(1) })

	// Write a square wave into a physical buffer and DMA it out.
	const n = 2048
	buf := mem.Bytes(0x1000, n*2)
	for i := 0; i < n; i++ {
		s := int16(8000)
		if i%2 == 0 {
			s = -8000
		}
		buf[2*i] = byte(uint16(s))
		buf[2*i+1] = byte(uint16(s) >> 8)
	}
	pwm.Start()
	defer pwm.Stop()
	if !dma.TransferToPWM(pwm, 0x1000, n*2) {
		t.Fatal("transfer refused")
	}
	deadline := time.Now().Add(5 * time.Second)
	for done.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if done.Load() != 1 {
		t.Fatal("DMA completion IRQ never fired")
	}
	// Let the output stage consume.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		consumed, _, energy := pwm.Stats()
		if consumed >= n && energy > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("PWM never consumed the DMA'd samples")
}

func TestDMASingleChannel(t *testing.T) {
	mem := NewMem(1 << 20)
	ic := NewIRQController(1)
	pwm := NewPWMAudio(8000, 64) // tiny FIFO so the first transfer lingers
	dma := NewDMAEngine(mem, ic)
	ic.Register(IRQDMA, 0, func(IRQLine, int) {})
	if !dma.TransferToPWM(pwm, 0, 4096) {
		t.Fatal("first transfer refused")
	}
	if dma.TransferToPWM(pwm, 0, 4096) {
		t.Fatal("second concurrent transfer should be refused")
	}
	pwm.Start()
	defer pwm.Stop()
}

func TestSDCardReadWriteRoundTrip(t *testing.T) {
	ic := NewIRQController(1)
	sd := NewSDCard(128, ic)
	sd.SetLatencyScale(0)
	src := make([]byte, 3*SDBlockSize)
	for i := range src {
		src[i] = byte(i * 7)
	}
	if err := sd.WriteBlocks(5, 3, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 3*SDBlockSize)
	if err := sd.ReadBlocks(5, 3, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("read back differs")
	}
}

func TestSDCardRangeChecks(t *testing.T) {
	ic := NewIRQController(1)
	sd := NewSDCard(8, ic)
	sd.SetLatencyScale(0)
	buf := make([]byte, SDBlockSize)
	if err := sd.ReadBlocks(8, 1, buf); err != ErrSDRange {
		t.Fatalf("err = %v, want ErrSDRange", err)
	}
	if err := sd.ReadBlocks(-1, 1, buf); err != ErrSDRange {
		t.Fatalf("err = %v, want ErrSDRange", err)
	}
}

func TestSDCardWriteProtectAndInjection(t *testing.T) {
	ic := NewIRQController(1)
	sd := NewSDCard(8, ic)
	sd.SetLatencyScale(0)
	buf := make([]byte, SDBlockSize)
	sd.SetReadOnly(true)
	if err := sd.WriteBlocks(0, 1, buf); err == nil {
		t.Fatal("write to protected card succeeded")
	}
	sd.SetReadOnly(false)
	sd.InjectErrors(1)
	if err := sd.ReadBlocks(0, 1, buf); err != ErrSDInjected {
		t.Fatalf("err = %v, want injected", err)
	}
	if err := sd.ReadBlocks(0, 1, buf); err != nil {
		t.Fatalf("error injection should clear: %v", err)
	}
}

// TestSDRangeBeatsSingleBlock verifies the latency-model property the
// paper's bcache bypass exploits: reading N blocks as one range is much
// cheaper than N single-block commands.
func TestSDRangeBeatsSingleBlock(t *testing.T) {
	ic := NewIRQController(1)
	sd := NewSDCard(256, ic)
	sd.SetLatencyScale(0.25) // keep the test quick but timed
	const n = 64
	buf := make([]byte, n*SDBlockSize)

	start := time.Now()
	if err := sd.ReadBlocks(0, n, buf); err != nil {
		t.Fatal(err)
	}
	rangeT := time.Since(start)

	start = time.Now()
	for i := 0; i < n; i++ {
		if err := sd.ReadBlocks(i, 1, buf[:SDBlockSize]); err != nil {
			t.Fatal(err)
		}
	}
	singleT := time.Since(start)

	if singleT < rangeT*5/4 {
		t.Fatalf("single-block %v not meaningfully slower than range %v", singleT, rangeT)
	}
}

// TestSDAsyncSubmitCompletion exercises the split halves: Submit returns
// before the data lands, the completion carries the tag (and any media
// error), and IRQSD fires per command.
func TestSDAsyncSubmitCompletion(t *testing.T) {
	ic := NewIRQController(1)
	fired := make(chan IRQLine, 8)
	ic.Register(IRQSD, 0, func(l IRQLine, _ int) { fired <- l })
	sd := NewSDCard(64, ic)
	sd.SetLatencyScale(0.02)

	src := bytes.Repeat([]byte{0x7E}, SDBlockSize)
	if err := sd.SubmitWrite(42, 3, 1, src); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("no IRQSD for async write")
	}
	tag, err, ok := sd.PopCompletion()
	if !ok || tag != 42 || err != nil {
		t.Fatalf("completion = (%d, %v, %v), want (42, nil, true)", tag, err, ok)
	}
	dst := make([]byte, SDBlockSize)
	if err := sd.SubmitRead(43, 3, 1, dst); err != nil {
		t.Fatal(err)
	}
	<-fired
	if tag, err, ok := sd.PopCompletion(); !ok || tag != 43 || err != nil {
		t.Fatalf("read completion = (%d, %v, %v)", tag, err, ok)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("async round trip corrupted data")
	}
	// Bad descriptors are rejected at submit; media errors ride the
	// completion.
	if err := sd.SubmitRead(44, 64, 1, dst); err != ErrSDRange {
		t.Fatalf("bad-range submit = %v, want ErrSDRange", err)
	}
	sd.InjectErrors(1)
	if err := sd.SubmitWrite(45, 0, 1, src); err != nil {
		t.Fatal(err)
	}
	<-fired
	if _, err, _ := sd.PopCompletion(); err != ErrSDInjected {
		t.Fatalf("completion err = %v, want ErrSDInjected", err)
	}
}

// TestSDWaitAccountingSplitsPollAndDMA pins the power-model fix: polled
// PIO charges the busy-poll budget, DMA transfers (sync or async) charge
// the idle DMA budget — never the poll budget.
func TestSDWaitAccountingSplitsPollAndDMA(t *testing.T) {
	ic := NewIRQController(1)
	sd := NewSDCard(64, ic)
	sd.SetLatencyScale(0.01)
	buf := make([]byte, SDBlockSize)

	if err := sd.ReadBlocks(0, 1, buf); err != nil { // polled PIO
		t.Fatal(err)
	}
	poll1, dma1 := sd.WaitStats()
	if poll1 == 0 || dma1 != 0 {
		t.Fatalf("PIO read charged poll=%d dma=%d, want poll>0 dma=0", poll1, dma1)
	}

	sd.SetDMA(true)
	if err := sd.ReadBlocks(0, 1, buf); err != nil { // sync DMA
		t.Fatal(err)
	}
	poll2, dma2 := sd.WaitStats()
	if poll2 != poll1 {
		t.Fatalf("sync DMA grew the poll budget: %d -> %d", poll1, poll2)
	}
	if dma2 == 0 {
		t.Fatal("sync DMA charged no idle wait")
	}

	// Buffered: the completion may fire before the test reaches <-done,
	// and the handler's non-blocking send must not drop it.
	done := make(chan struct{}, 1)
	ic.Register(IRQSD, 0, func(IRQLine, int) {
		select {
		case done <- struct{}{}:
		default:
		}
	})
	if err := sd.SubmitRead(1, 0, 1, buf); err != nil { // async DMA
		t.Fatal(err)
	}
	<-done
	poll3, dma3 := sd.WaitStats()
	if poll3 != poll1 || dma3 <= dma2 {
		t.Fatalf("async DMA accounting: poll %d -> %d, dma %d -> %d", poll1, poll3, dma2, dma3)
	}
	// Stats' pollMicros column is the PIO-only figure.
	if _, _, _, pm := sd.Stats(); pm != poll1 {
		t.Fatalf("Stats pollMicros = %d, want %d", pm, poll1)
	}
}

func TestSDImageLoadDump(t *testing.T) {
	ic := NewIRQController(1)
	sd := NewSDCard(4, ic)
	sd.SetLatencyScale(0)
	img := make([]byte, 2*SDBlockSize)
	img[0], img[len(img)-1] = 0xA5, 0x5A
	if err := sd.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	dump := sd.DumpImage()
	if dump[0] != 0xA5 || dump[2*SDBlockSize-1] != 0x5A {
		t.Fatal("image content lost")
	}
	if err := sd.LoadImage(make([]byte, 5*SDBlockSize)); err == nil {
		t.Fatal("oversized image accepted")
	}
}

func TestUSBEnumerationDance(t *testing.T) {
	ic := NewIRQController(1)
	c := NewUSBController(ic)
	if c.PortConnected() {
		t.Fatal("port connected before attach")
	}
	c.AttachKeyboard()
	if !c.PortConnected() {
		t.Fatal("port not connected after attach")
	}
	// GET_DESCRIPTOR(device) at address 0.
	dd, err := c.ControlTransfer(0, SetupPacket{Request: usbReqGetDescriptor, Value: usbDescDevice << 8, Length: 18})
	if err != nil || len(dd) != 18 || dd[1] != usbDescDevice {
		t.Fatalf("device descriptor: %v %v", dd, err)
	}
	// SET_ADDRESS(7), then talk at address 7.
	if _, err := c.ControlTransfer(0, SetupPacket{Request: usbReqSetAddress, Value: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ControlTransfer(0, SetupPacket{Request: usbReqGetDescriptor, Value: usbDescDevice << 8, Length: 18}); err == nil {
		t.Fatal("device still answering at address 0 after SET_ADDRESS")
	}
	cd, err := c.ControlTransfer(7, SetupPacket{Request: usbReqGetDescriptor, Value: usbDescConfig << 8, Length: 64})
	if err != nil || len(cd) != 34 {
		t.Fatalf("config descriptor: %d bytes, err %v", len(cd), err)
	}
	if cd[14] != 3 || cd[16] != 1 {
		t.Fatalf("interface class/protocol = %d/%d, want HID keyboard", cd[14], cd[16])
	}
	if _, err := c.ControlTransfer(7, SetupPacket{Request: usbReqSetConfig, Value: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestUSBKeyboardReportsAndModifiers(t *testing.T) {
	ic := NewIRQController(1)
	c := NewUSBController(ic)
	kbd := c.AttachKeyboard()
	var irqs atomic.Int32
	ic.Register(IRQUSB, 0, func(IRQLine, int) { irqs.Add(1) })
	// Configure at address 0 (default address works since we never moved it).
	if _, err := c.ControlTransfer(0, SetupPacket{Request: usbReqSetConfig, Value: 1}); err != nil {
		t.Fatal(err)
	}
	kbd.ModifierDown(ModLShift)
	kbd.KeyDown(UsageA)
	kbd.KeyUp(UsageA)
	kbd.ModifierUp(ModLShift)
	if irqs.Load() != 4 {
		t.Fatalf("usb irqs = %d, want 4", irqs.Load())
	}
	// Report 1: shift down, no keys.
	r, ok, err := c.InterruptTransfer(0)
	if err != nil || !ok || r[0] != ModLShift || r[2] != 0 {
		t.Fatalf("report1 = %v ok=%v err=%v", r, ok, err)
	}
	// Report 2: shift+A.
	r, ok, _ = c.InterruptTransfer(0)
	if !ok || r[0] != ModLShift || r[2] != UsageA {
		t.Fatalf("report2 = %v", r)
	}
	if UsageToASCII(r[2], r[0]) != 'A' {
		t.Fatalf("shift+a should decode to 'A', got %q", UsageToASCII(r[2], r[0]))
	}
	// Report 3: key released (usage gone), shift still held.
	r, ok, _ = c.InterruptTransfer(0)
	if !ok || r[0] != ModLShift || r[2] != 0 {
		t.Fatalf("report3 = %v (release not visible)", r)
	}
	// Report 4: all up.
	r, ok, _ = c.InterruptTransfer(0)
	if !ok || r[0] != 0 {
		t.Fatalf("report4 = %v", r)
	}
	// NAK when drained.
	if _, ok, _ := c.InterruptTransfer(0); ok {
		t.Fatal("expected NAK on empty endpoint")
	}
}

func TestUSBTypeStringRoundTrip(t *testing.T) {
	ic := NewIRQController(1)
	c := NewUSBController(ic)
	kbd := c.AttachKeyboard()
	c.ControlTransfer(0, SetupPacket{Request: usbReqSetConfig, Value: 1})
	kbd.TypeString("ls -a\n")
	var got []byte
	for {
		r, ok, _ := c.InterruptTransfer(0)
		if !ok {
			break
		}
		if r[2] != 0 {
			if a := UsageToASCII(r[2], r[0]); a != 0 {
				got = append(got, a)
			}
		}
	}
	if string(got) != "ls -a\n" {
		t.Fatalf("typed %q, decoded %q", "ls -a\n", got)
	}
}

func TestPowerModelEnvelope(t *testing.T) {
	p := NewPowerModel(4)
	idle := p.Sample(true, false, false)
	if idle.TotalWatts < 2 || idle.TotalWatts > 3.5 {
		t.Fatalf("idle draw %.2f W outside paper's ~3 W envelope", idle.TotalWatts)
	}
	// Saturate all four cores for the whole (short) life of the model.
	time.Sleep(5 * time.Millisecond)
	for c := 0; c < 4; c++ {
		p.AddBusy(c, time.Hour) // clamps to 100%
	}
	load := p.Sample(true, true, true)
	if load.TotalWatts <= idle.TotalWatts {
		t.Fatal("loaded draw not above idle")
	}
	if load.TotalWatts > 6 {
		t.Fatalf("loaded draw %.2f W unreasonably high", load.TotalWatts)
	}
	if load.BatteryHours >= idle.BatteryHours {
		t.Fatal("battery life should drop under load")
	}
}

func TestMachinePowerOn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemBytes = 8 << 20
	cfg.SDBlocks = 64
	m := NewMachine(cfg)
	defer m.Shutdown()
	if m.Cores() != 4 || len(m.GTimers) != 4 {
		t.Fatalf("cores = %d, gtimers = %d", m.Cores(), len(m.GTimers))
	}
	if m.SD == nil || m.USB == nil || m.Mailbox == nil {
		t.Fatal("devices missing")
	}
	// DRAM must be scrambled (uninitialized-memory lesson).
	nz := false
	for _, b := range m.Mem.Bytes(0, 4096) {
		if b != 0 {
			nz = true
			break
		}
	}
	if !nz {
		t.Fatal("DRAM is zeroed; real hardware would not be")
	}
	if m.Uptime() <= 0 {
		t.Fatal("uptime not advancing")
	}
}
