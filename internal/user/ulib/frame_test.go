package ulib

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func TestFrameDecoderPathologicalFragmentation(t *testing.T) {
	// Frames of awkward sizes, concatenated, then fed to the decoder in
	// every fragmentation pattern a stream can produce: byte-at-a-time,
	// prime-sized chunks, random splits, and all-at-once.
	var frames [][]byte
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 255, 256, 257, 4096, 70000} {
		f := make([]byte, n)
		rng.Read(f)
		frames = append(frames, f)
	}
	var wire []byte
	for _, f := range frames {
		wire = append(wire, EncodeFrame(f)...)
	}

	feedPatterns := map[string]func(d *FrameDecoder, deliver func()){
		"byte-at-a-time": func(d *FrameDecoder, deliver func()) {
			for i := range wire {
				d.Feed(wire[i : i+1])
				deliver()
			}
		},
		"prime-chunks": func(d *FrameDecoder, deliver func()) {
			for i := 0; i < len(wire); i += 7 {
				end := i + 7
				if end > len(wire) {
					end = len(wire)
				}
				d.Feed(wire[i:end])
				deliver()
			}
		},
		"random-chunks": func(d *FrameDecoder, deliver func()) {
			r := rand.New(rand.NewSource(2))
			for i := 0; i < len(wire); {
				n := 1 + r.Intn(9000)
				if i+n > len(wire) {
					n = len(wire) - i
				}
				d.Feed(wire[i : i+n])
				i += n
				deliver()
			}
		},
		"all-at-once": func(d *FrameDecoder, deliver func()) {
			d.Feed(wire)
			deliver()
		},
	}

	for name, feed := range feedPatterns {
		t.Run(name, func(t *testing.T) {
			var d FrameDecoder
			var got [][]byte
			deliver := func() {
				for {
					f, err := d.Next()
					if err != nil {
						t.Fatalf("decode: %v", err)
					}
					if f == nil {
						return
					}
					// The frame is a view that the next Feed may
					// overwrite: keep a copy.
					got = append(got, bytes.Clone(f))
				}
			}
			feed(&d, deliver)
			if len(got) != len(frames) {
				t.Fatalf("got %d frames, want %d", len(got), len(frames))
			}
			for i := range frames {
				if !bytes.Equal(got[i], frames[i]) {
					t.Fatalf("frame %d mismatch (%d vs %d bytes)", i, len(got[i]), len(frames[i]))
				}
			}
			if d.Pending() {
				t.Fatal("decoder holds leftover bytes after a clean stream")
			}
		})
	}
}

func TestFrameDecoderZeroLengthFramesBackToBack(t *testing.T) {
	var d FrameDecoder
	for i := 0; i < 3; i++ {
		d.Feed(EncodeFrame(nil))
	}
	count := 0
	for {
		f, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f == nil {
			break
		}
		if len(f) != 0 {
			t.Fatalf("zero frame came back %d bytes", len(f))
		}
		count++
	}
	if count != 3 {
		t.Fatalf("decoded %d zero frames, want 3", count)
	}
}

func TestFrameDecoderRejectsOversizedFrame(t *testing.T) {
	var hdr [FrameHdrSize]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	var d FrameDecoder
	d.Feed(hdr[:])
	if _, err := d.Next(); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized prefix: %v, want ErrFrameTooBig", err)
	}
}

func TestFrameDecoderPendingDetectsTruncation(t *testing.T) {
	var d FrameDecoder
	full := EncodeFrame([]byte("cut short"))
	d.Feed(full[:len(full)-2])
	if f, err := d.Next(); f != nil || err != nil {
		t.Fatalf("partial frame decoded: %v %v", f, err)
	}
	if !d.Pending() {
		t.Fatal("Pending() false with a partial frame buffered")
	}
}

func TestFrameViewSurvivesLaterNext(t *testing.T) {
	// Three frames in one Feed: the views Next hands out stay intact
	// across the later Next calls, until the next Feed.
	var d FrameDecoder
	want := []string{"alpha", "", "gamma-gamma"}
	var wire []byte
	for _, w := range want {
		wire = AppendFrame(wire, []byte(w))
	}
	d.Feed(wire)
	var views [][]byte
	for range want {
		f, err := d.Next()
		if err != nil || f == nil {
			t.Fatalf("Next = %q, %v", f, err)
		}
		views = append(views, f)
	}
	if f, err := d.Next(); f != nil || err != nil {
		t.Fatalf("Next past the last frame = %q, %v", f, err)
	}
	for i, v := range views {
		if string(v) != want[i] {
			t.Fatalf("view %d = %q after later Next calls, want %q", i, v, want[i])
		}
	}
	// A caller appending to a view must not clobber the next frame.
	_ = append(views[0], "XXXX"...)
	if string(views[2]) != want[2] {
		t.Fatalf("append to view 0 reached view 2: %q", views[2])
	}
}

// encodedFrames concatenates AppendFrame encodings of n-byte payloads.
func encodedFrames(sizes ...int) []byte {
	var wire []byte
	for i, n := range sizes {
		wire = AppendFrame(wire, bytes.Repeat([]byte{byte(i + 1)}, n))
	}
	return wire
}

func TestFrameDecoderSteadyStateDoesNotAllocate(t *testing.T) {
	for _, size := range []int{64, 16 << 10} {
		wire := encodedFrames(size, size)
		var d FrameDecoder
		cycle := func() {
			// Split mid-frame: reassembly across Feeds, then both frames.
			d.Feed(wire[:len(wire)/3])
			if f, _ := d.Next(); f != nil {
				t.Fatal("frame complete after a third of the bytes")
			}
			d.Feed(wire[len(wire)/3:])
			for i := 0; i < 2; i++ {
				if f, err := d.Next(); err != nil || len(f) != size {
					t.Fatalf("frame %d: %d bytes, %v", i, len(f), err)
				}
			}
		}
		cycle() // grow the buffer once
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Fatalf("%d B frames: %v allocations per Feed+Next cycle, want 0", size, n)
		}
	}
}

// chunkSource is a descriptor stand-in for FrameReader: each read returns
// the next chunk of a repeating stream, as much as fits.
type chunkSource struct {
	stream []byte
	pos    int
	reads  int
}

func (c *chunkSource) read(_ int, buf []byte) (int, error) {
	c.reads++
	n := copy(buf, c.stream[c.pos:])
	c.pos = (c.pos + n) % len(c.stream)
	return n, nil
}

func TestFrameRelayDoesNotAllocate(t *testing.T) {
	// chanserv's relay: read a frame through a FrameReader, encode it for
	// the broadcast into a per-connection scratch buffer. Once both
	// buffers have grown, it allocates nothing, and a 16 KiB frame whose
	// bytes are all available arrives in one read.
	for _, size := range []int{64, 16 << 10} {
		src := &chunkSource{stream: encodedFrames(size)}
		r := &FrameReader{fd: 3, read: src.read}
		var out []byte
		relay := func() {
			f, err := r.Next()
			if err != nil || len(f) != size {
				t.Fatalf("relay read %d bytes, %v", len(f), err)
			}
			out = AppendFrame(out[:0], f)
		}
		relay()
		relay()
		src.reads = 0
		if n := testing.AllocsPerRun(100, relay); n != 0 {
			t.Fatalf("%d B frames: %v allocations per relay, want 0", size, n)
		}
		if src.reads != 101 {
			t.Fatalf("%d B frames: %d reads for 101 relays, want one each", size, src.reads)
		}
		if !bytes.Equal(out, src.stream) {
			t.Fatalf("%d B frames: re-encoded frame differs from the wire", size)
		}
	}
}

// refDecoder is the copying decoder the view decoder must agree with: it
// hands out a fresh copy of every frame.
type refDecoder struct{ buf []byte }

func (d *refDecoder) next() ([]byte, error) {
	if len(d.buf) < FrameHdrSize {
		return nil, nil
	}
	n := int(binary.BigEndian.Uint32(d.buf))
	if n > MaxFrame {
		return nil, ErrFrameTooBig
	}
	if len(d.buf) < FrameHdrSize+n {
		return nil, nil
	}
	f := bytes.Clone(d.buf[FrameHdrSize : FrameHdrSize+n])
	d.buf = d.buf[FrameHdrSize+n:]
	return f, nil
}

// FuzzFrameDecoder feeds an arbitrary stream to the view decoder in chunks
// cut by an arbitrary pattern and requires frame-for-frame agreement with
// the copying reference. Every view from one Feed is rechecked after the
// last Next before the following Feed.
func FuzzFrameDecoder(f *testing.F) {
	f.Add(encodedFrames(0, 1, 3, 255, 256, 257), []byte{1})
	f.Add(encodedFrames(4096, 70000, 2), []byte{7, 200, 3})
	f.Add(encodedFrames(64, 64, 64, 16<<10), []byte{0, 255, 13})
	f.Add([]byte{0, 0, 0, 5, 'h', 'e'}, []byte{2})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, []byte{3, 4})
	f.Fuzz(func(t *testing.T, wire, cuts []byte) {
		var d FrameDecoder
		var ref refDecoder
		for i, c := 0, 0; i < len(wire); c++ {
			n := len(wire) - i
			if len(cuts) > 0 {
				n = min(n, 1+int(cuts[c%len(cuts)])*int(cuts[c%len(cuts)]))
			}
			d.Feed(wire[i : i+n])
			ref.buf = append(ref.buf, wire[i:i+n]...)
			i += n
			var views, copies [][]byte
			for {
				got, gerr := d.Next()
				want, werr := ref.next()
				if gerr != werr {
					t.Fatalf("Next error %v, reference %v", gerr, werr)
				}
				if gerr != nil {
					return
				}
				if (got == nil) != (want == nil) || !bytes.Equal(got, want) {
					t.Fatalf("Next = %d bytes (nil %v), reference %d bytes (nil %v)",
						len(got), got == nil, len(want), want == nil)
				}
				if got == nil {
					break
				}
				views, copies = append(views, got), append(copies, want)
			}
			for k := range views {
				if !bytes.Equal(views[k], copies[k]) {
					t.Fatalf("view %d changed before the next Feed", k)
				}
			}
		}
		if d.Pending() != (len(ref.buf) > 0) {
			t.Fatalf("Pending = %v with %d reference bytes left", d.Pending(), len(ref.buf))
		}
	})
}

func ExampleEncodeFrame() {
	f := EncodeFrame([]byte("hi"))
	fmt.Println(len(f), f[3], string(f[4:]))
	// Output: 6 2 hi
}
