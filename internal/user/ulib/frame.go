package ulib

import (
	"encoding/binary"
	"errors"
	"io"
	"slices"

	"protosim/internal/kernel"
)

// Length-prefixed frame codec: every frame on a stream is a 4-byte
// big-endian payload length followed by the payload. Stream sockets (and
// pipes) preserve bytes, not message boundaries — a 300-byte frame may
// arrive as 7 reads, or three frames may arrive in one — so the decoder
// reassembles frames from arbitrary fragmentation.
//
// The steady-state path allocates nothing: the decoder hands out views
// into its reassembly buffer, and AppendFrame encodes into a buffer the
// caller reuses. Whoever keeps a frame past the next Feed copies it.

// FrameHdrSize is the length prefix size.
const FrameHdrSize = 4

// MaxFrame bounds a single frame's payload; a peer announcing more is
// corrupt (or hostile) and the stream is unrecoverable, since the only
// framing is the lengths themselves.
const MaxFrame = 1 << 20

// frameReadSize is the least free space FrameReader offers each read.
const frameReadSize = 4096

// Frame codec errors.
var (
	// ErrFrameTooBig: a length prefix exceeded MaxFrame.
	ErrFrameTooBig = errors.New("ulib: frame exceeds MaxFrame")
	// ErrTruncatedFrame: the stream ended mid-frame.
	ErrTruncatedFrame = errors.New("ulib: stream ended mid-frame")
)

// AppendFrame appends payload to dst as one wire frame and returns the
// extended buffer. Encoding into a reused dst[:0] allocates nothing once
// the buffer has grown to the largest frame.
func AppendFrame(dst, payload []byte) []byte {
	n := len(dst)
	dst = slices.Grow(dst, FrameHdrSize+len(payload))[:n+FrameHdrSize+len(payload)]
	binary.BigEndian.PutUint32(dst[n:], uint32(len(payload)))
	copy(dst[n+FrameHdrSize:], payload)
	return dst
}

// EncodeFrame renders payload as one wire frame in a fresh buffer.
func EncodeFrame(payload []byte) []byte { return AppendFrame(nil, payload) }

// FrameDecoder reassembles frames from a fragmented byte stream. Feed
// bytes in as they arrive; Next returns completed frames. The zero value
// is ready to use.
type FrameDecoder struct {
	buf []byte // buf[off:] is received and not yet returned by Next
	off int
}

// Feed appends received bytes to the reassembly buffer. It may move the
// buffered bytes, so every frame Next returned before it is invalid after
// it.
func (d *FrameDecoder) Feed(p []byte) {
	d.reserve(len(p))
	d.buf = append(d.buf, p...)
}

// reserve makes room for n more bytes past the buffered ones: it rewinds
// an empty buffer, compacts the unreturned bytes to the front when the
// tail is short, and grows the buffer only when that is not enough.
func (d *FrameDecoder) reserve(n int) {
	if d.off == len(d.buf) {
		d.buf, d.off = d.buf[:0], 0
	}
	if cap(d.buf)-len(d.buf) >= n {
		return
	}
	if d.off > 0 {
		d.buf = d.buf[:copy(d.buf, d.buf[d.off:])]
		d.off = 0
	}
	if cap(d.buf)-len(d.buf) < n {
		d.buf = slices.Grow(d.buf, max(n, cap(d.buf)))
	}
}

// space returns the buffer's free tail for a direct read: no less than
// least bytes and, once a frame's header is buffered, enough for the rest
// of that frame. Bytes read into it are committed with fill.
func (d *FrameDecoder) space(least int) []byte {
	if have := len(d.buf) - d.off; have >= FrameHdrSize {
		if n := int(binary.BigEndian.Uint32(d.buf[d.off:])); n <= MaxFrame {
			least = max(least, FrameHdrSize+n-have)
		}
	}
	d.reserve(least)
	return d.buf[len(d.buf):cap(d.buf)]
}

// fill commits n bytes read into the slice space returned.
func (d *FrameDecoder) fill(n int) { d.buf = d.buf[:len(d.buf)+n] }

// Next returns the next complete frame's payload, or (nil, nil) when the
// buffered bytes don't yet complete one. The payload is a view into the
// decoder's buffer: it stays intact across later Next calls and is
// invalid after the next Feed, so a caller that keeps it longer copies
// it. ErrFrameTooBig poisons the stream: framing is lost.
func (d *FrameDecoder) Next() ([]byte, error) {
	b := d.buf[d.off:]
	if len(b) < FrameHdrSize {
		return nil, nil
	}
	n := int(binary.BigEndian.Uint32(b))
	if n > MaxFrame {
		return nil, ErrFrameTooBig
	}
	if len(b) < FrameHdrSize+n {
		return nil, nil
	}
	d.off += FrameHdrSize + n
	return b[FrameHdrSize : FrameHdrSize+n : FrameHdrSize+n], nil
}

// Pending reports whether a partial frame sits in the buffer — an EOF
// here is a truncation, not a clean end of stream.
func (d *FrameDecoder) Pending() bool { return len(d.buf) > d.off }

// FrameReader reads whole frames from a descriptor, reassembling across
// arbitrarily fragmented reads. It reads straight into the decoder's
// free space — at least 4 KiB, and room for the rest of a frame whose
// header has arrived — so a frame already in the socket arrives in one
// read once the buffer has grown to its size.
type FrameReader struct {
	fd   int
	read func(fd int, buf []byte) (int, error)
	d    FrameDecoder
}

// NewFrameReader wraps fd for frame-at-a-time reads.
func NewFrameReader(p *kernel.Proc, fd int) *FrameReader {
	return &FrameReader{fd: fd, read: p.SysRead}
}

// Next returns the next frame's payload, a view valid until the next
// call. A clean EOF on a frame boundary is io.EOF; an EOF mid-frame is
// ErrTruncatedFrame.
func (r *FrameReader) Next() ([]byte, error) {
	for {
		if f, err := r.d.Next(); f != nil || err != nil {
			return f, err
		}
		n, err := r.read(r.fd, r.d.space(frameReadSize))
		if err != nil {
			return nil, err
		}
		if n == 0 {
			if r.d.Pending() {
				return nil, ErrTruncatedFrame
			}
			return nil, io.EOF
		}
		r.d.fill(n)
	}
}
