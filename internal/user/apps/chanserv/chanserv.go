// Package chanserv is the broadcast channel server workload: an
// Erupe-style room server over the kernel's stream sockets, exercising
// the whole network column — NIC rings, the TCP-ish stack, socket
// descriptors, and the ulib frame codec — under hundreds of concurrent
// connections.
//
// The shape is one kernel task per connection: the main task accepts and
// clones a handler thread per client (threads share the descriptor
// table, so a broadcast can write straight to every member's fd). The
// protocol is length-prefixed frames (ulib frame codec):
//
//   - the client's first frame names the room to join;
//   - every later frame is a message, broadcast to every member of the
//     room including the sender;
//   - "/quit" leaves cleanly, "/shutdown" stops the whole server (the
//     handler closes the shared listener descriptor, which wakes the
//     accept loop with ErrListenerClosed);
//   - disconnecting (FIN) leaves the room.
//
// Relaying a frame allocates nothing: the handler's frame reader hands
// out a view into its reassembly buffer, and the broadcast encodes it into
// a scratch buffer the connection reuses. Broadcast writes happen under
// the room lock — a ulib.Mutex over the semaphore syscalls, so a blocked
// write sleeps its task on the scheduler. A client that stops reading
// stalls its room once its receive window and the sender's send ring
// fill; the workload's clients always drain, which is the deal a
// broadcast fan-out server offers.
package chanserv

import (
	"errors"
	"fmt"
	"io"

	"protosim/internal/kernel"
	"protosim/internal/user/ulib"
)

// DefaultPort is the server's listen port.
const DefaultPort = 4000

// server is the shared state across handler threads.
type server struct {
	lfd   int
	mu    *ulib.Mutex
	rooms map[string][]int // room name -> member conn fds

	joins, leaves, broadcasts, msgsOut int
}

// Main runs the channel server: argv[1] may override the listen port.
// It returns once a client sends "/shutdown" (or the listener dies).
func Main(p *kernel.Proc, argv []string) int {
	port := uint16(DefaultPort)
	if len(argv) > 1 {
		var v int
		if _, err := fmt.Sscanf(argv[1], "%d", &v); err == nil && v > 0 && v < 65536 {
			port = uint16(v)
		}
	}
	cons, cerr := ulib.OpenConsole(p)
	logf := func(format string, args ...any) {
		if cerr == nil {
			ulib.Printf(p, cons, format, args...)
		}
	}
	lfd, err := p.SysSocket()
	if err != nil {
		logf("chanserv: socket: %v\n", err)
		return 1
	}
	if err := p.SysBind(lfd, port); err != nil {
		logf("chanserv: bind %d: %v\n", port, err)
		return 1
	}
	if err := p.SysListen(lfd, 64); err != nil {
		logf("chanserv: listen: %v\n", err)
		return 1
	}
	mu, err := ulib.NewMutex(p)
	if err != nil {
		logf("chanserv: mutex: %v\n", err)
		return 1
	}
	s := &server{lfd: lfd, mu: mu, rooms: make(map[string][]int)}
	logf("chanserv: listening on %d\n", port)

	for {
		cfd, err := p.SysAccept(lfd)
		if err != nil {
			// Listener closed (a /shutdown handler) or stack torn down:
			// stop accepting either way.
			break
		}
		id := cfd
		if _, err := p.SysClone(fmt.Sprintf("chan-%d", id), func(tp *kernel.Proc) {
			s.serveConn(tp, cfd)
		}); err != nil {
			// Out of thread room: refuse this client, keep serving.
			p.SysClose(cfd)
		}
	}
	p.SysClose(lfd)
	s.mu.Lock(p)
	stats := fmt.Sprintf("chanserv: done: joins=%d leaves=%d broadcasts=%d msgs_out=%d\n",
		s.joins, s.leaves, s.broadcasts, s.msgsOut)
	s.mu.Unlock(p)
	logf("%s", stats)
	if cerr == nil {
		p.SysClose(cons)
	}
	return 0
}

// serveConn is one connection's lifetime: join, relay, leave.
func (s *server) serveConn(p *kernel.Proc, fd int) {
	defer p.SysClose(fd)
	fr := ulib.NewFrameReader(p, fd)
	var out []byte // this connection's encode scratch, reused per broadcast

	joinF, err := fr.Next()
	if err != nil {
		return
	}
	room := string(joinF)
	s.join(p, room, fd)
	defer s.leave(p, room, fd)

	for {
		f, err := fr.Next()
		if err != nil {
			// io.EOF is the clean disconnect; truncation or a reset just
			// ends the connection too.
			if !errors.Is(err, io.EOF) && !errors.Is(err, ulib.ErrTruncatedFrame) {
				return
			}
			return
		}
		switch string(f) {
		case "/quit":
			return
		case "/shutdown":
			// Close the shared listener: the accept loop wakes with
			// ErrListenerClosed and the server winds down.
			p.SysClose(s.lfd)
			return
		default:
			out = s.broadcast(p, room, f, out)
		}
	}
}

func (s *server) join(p *kernel.Proc, room string, fd int) {
	s.mu.Lock(p)
	s.rooms[room] = append(s.rooms[room], fd)
	s.joins++
	s.mu.Unlock(p)
}

func (s *server) leave(p *kernel.Proc, room string, fd int) {
	s.mu.Lock(p)
	members := s.rooms[room]
	for i, m := range members {
		if m == fd {
			s.rooms[room] = append(members[:i], members[i+1:]...)
			break
		}
	}
	if len(s.rooms[room]) == 0 {
		delete(s.rooms, room)
	}
	s.leaves++
	s.mu.Unlock(p)
}

// broadcast fans a message out to every member of the room, sender
// included, encoding it once into out (the caller's scratch, returned
// for reuse). The room lock covers the writes: membership cannot change
// mid-fan-out, and a leaving member's fd is still valid because leave()
// removes it under this same lock before the handler closes it.
func (s *server) broadcast(p *kernel.Proc, room string, msg, out []byte) []byte {
	out = ulib.AppendFrame(out[:0], msg)
	s.mu.Lock(p)
	s.broadcasts++
	for _, fd := range s.rooms[room] {
		if writeAll(p, fd, out) == nil {
			s.msgsOut++
		}
	}
	s.mu.Unlock(p)
	return out
}

// writeAll writes all of b to fd, looping over short writes.
func writeAll(p *kernel.Proc, fd int, b []byte) error {
	for len(b) > 0 {
		n, err := p.SysWrite(fd, b)
		if err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}
