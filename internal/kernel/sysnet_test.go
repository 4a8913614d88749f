package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"protosim/internal/hw"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/ktime"
	"protosim/internal/kernel/net"
	"protosim/internal/kernel/xv6fs"
)

// netKernel boots a kernel with the NIC pair enabled and returns a
// host-side peer stack wired to the far end of the link.
func netKernel(t *testing.T, cores int) (*Kernel, *net.Stack) {
	t.Helper()
	cfg := hw.DefaultConfig()
	cfg.Cores = cores
	cfg.MemBytes = 32 << 20
	cfg.SDBlocks = 8192
	cfg.FBWidth, cfg.FBHeight = 320, 240
	cfg.EnableNIC = true
	m := hw.NewMachine(cfg)
	m.SD.SetLatencyScale(0)

	rd, err := xv6fs.BuildImage(2048, 128, nil)
	if err != nil {
		t.Fatal(err)
	}
	kc := fullConfig(m, rd.Image())
	kc.EnableNet = true
	k := New(kc)
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}

	peer := net.NewStack("peer0", NetPeerHost, m.PeerNIC, net.Options{
		After: ktime.HostAfter,
	})
	m.PeerNIC.SetNotify(peer.IRQ)

	t.Cleanup(func() {
		peer.Close()
		if err := k.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return k, peer
}

// peerDial connects a host-side client to a port on the kernel stack.
func peerDial(t *testing.T, peer *net.Stack, port uint16) *net.Socket {
	t.Helper()
	c := peer.NewSocket()
	if err := c.Connect(nil, net.Addr{Host: NetLocalHost, Port: port}); err != nil {
		t.Fatalf("peer connect: %v", err)
	}
	return c
}

func TestSysSocketEndToEndEcho(t *testing.T) {
	k, peer := netKernel(t, 2)

	ready := make(chan struct{})
	code := runAsync(t, k, "echo-server", func(p *Proc, _ []string) int {
		lfd, err := p.SysSocket()
		if err != nil {
			t.Errorf("socket: %v", err)
			return 1
		}
		if err := p.SysBind(lfd, 80); err != nil {
			t.Errorf("bind: %v", err)
			return 1
		}
		if err := p.SysListen(lfd, 8); err != nil {
			t.Errorf("listen: %v", err)
			return 1
		}
		close(ready)
		cfd, err := p.SysAccept(lfd)
		if err != nil {
			t.Errorf("accept: %v", err)
			return 1
		}
		// Echo until EOF through the GENERIC read/write syscalls: the
		// descriptor is a plain stream file to this code.
		buf := make([]byte, 512)
		for {
			n, err := p.SysRead(cfd, buf)
			if err != nil {
				t.Errorf("server read: %v", err)
				return 1
			}
			if n == 0 {
				break
			}
			if _, err := p.SysWrite(cfd, buf[:n]); err != nil {
				t.Errorf("server write: %v", err)
				return 1
			}
		}
		if err := p.SysClose(cfd); err != nil {
			t.Errorf("close conn: %v", err)
		}
		if err := p.SysClose(lfd); err != nil {
			t.Errorf("close listener: %v", err)
		}
		return 0
	})

	<-ready
	c := peerDial(t, peer, 80)
	msg := []byte("ping over the simulated wire")
	if _, err := c.Write(nil, msg); err != nil {
		t.Fatalf("client write: %v", err)
	}
	got := make([]byte, len(msg))
	n := 0
	for n < len(msg) {
		m, err := c.Read(nil, got[n:])
		if err != nil || m == 0 {
			t.Fatalf("client read: n=%d err=%v", m, err)
		}
		n += m
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q", got)
	}
	if err := c.Shutdown(nil, net.ShutWR); err != nil {
		t.Fatalf("client shutdown: %v", err)
	}
	// Server drains to EOF and exits 0.
	if got := <-code; got != 0 {
		t.Fatalf("server exit code %d", got)
	}
	c.Close(nil)
}

func TestSysReadBlockedWakesWithEOFOnPeerClose(t *testing.T) {
	k, peer := netKernel(t, 2)

	ready := make(chan struct{})
	blocked := make(chan struct{})
	code := runAsync(t, k, "server", func(p *Proc, _ []string) int {
		lfd, _ := p.SysSocket()
		p.SysBind(lfd, 80)
		p.SysListen(lfd, 4)
		close(ready)
		cfd, err := p.SysAccept(lfd)
		if err != nil {
			t.Errorf("accept: %v", err)
			return 1
		}
		close(blocked)
		// Block in read with nothing buffered; the peer's close (FIN)
		// must wake us with a clean EOF, not hang or error.
		n, err := p.SysRead(cfd, make([]byte, 64))
		if n != 0 || err != nil {
			t.Errorf("blocked read woke with n=%d err=%v, want EOF", n, err)
			return 1
		}
		return 0
	})

	<-ready
	c := peerDial(t, peer, 80)
	<-blocked
	time.Sleep(5 * time.Millisecond) // let the server actually park in read
	c.Close(nil)
	if got := <-code; got != 0 {
		t.Fatalf("server exit %d", got)
	}
}

func TestSysShutdownRDWakesLocalBlockedReader(t *testing.T) {
	k, peer := netKernel(t, 2)

	ready := make(chan struct{})
	code := runAsync(t, k, "server", func(p *Proc, _ []string) int {
		lfd, _ := p.SysSocket()
		p.SysBind(lfd, 80)
		p.SysListen(lfd, 4)
		close(ready)
		cfd, err := p.SysAccept(lfd)
		if err != nil {
			t.Errorf("accept: %v", err)
			return 1
		}
		// A sibling thread shares the fd table and shuts the read side
		// down while we're parked in read: we must wake with EOF.
		readRet := make(chan error, 1)
		tid, err := p.SysClone("reader", func(tp *Proc) {
			n, err := tp.SysRead(cfd, make([]byte, 64))
			if n != 0 || err != nil {
				readRet <- fmt.Errorf("n=%d err=%v", n, err)
			} else {
				readRet <- nil
			}
		})
		if err != nil {
			t.Errorf("clone: %v", err)
			return 1
		}
		_ = tid
		time.Sleep(10 * time.Millisecond) // let the reader park
		if err := p.SysShutdown(cfd, net.ShutRD); err != nil {
			t.Errorf("shutdown(RD): %v", err)
			return 1
		}
		if err := <-readRet; err != nil {
			t.Errorf("reader woke badly: %v", err)
			return 1
		}
		return 0
	})

	<-ready
	c := peerDial(t, peer, 80)
	defer c.Close(nil)
	if got := <-code; got != 0 {
		t.Fatalf("server exit %d", got)
	}
}

func TestSysShutdownWRDeliversFINThenErrPipe(t *testing.T) {
	k, peer := netKernel(t, 2)

	ready := make(chan struct{})
	code := runAsync(t, k, "client-proc", func(p *Proc, _ []string) int {
		fd, err := p.SysSocket()
		if err != nil {
			t.Errorf("socket: %v", err)
			return 1
		}
		<-ready
		if err := p.SysConnect(fd, NetPeerHost, 7000); err != nil {
			t.Errorf("connect: %v", err)
			return 1
		}
		if _, err := p.SysWrite(fd, []byte("goodbye")); err != nil {
			t.Errorf("write: %v", err)
			return 1
		}
		if err := p.SysShutdown(fd, net.ShutWR); err != nil {
			t.Errorf("shutdown: %v", err)
			return 1
		}
		if _, err := p.SysWrite(fd, []byte("x")); !errors.Is(err, fs.ErrPipeClosed) {
			t.Errorf("write after shutdown(WR): %v, want ErrPipeClosed", err)
			return 1
		}
		return 0
	})

	ls := peer.NewSocket()
	if err := ls.Bind(nil, 7000); err != nil {
		t.Fatal(err)
	}
	if err := ls.Listen(nil, 4); err != nil {
		t.Fatal(err)
	}
	defer ls.Close(nil)
	close(ready)
	s, err := ls.Accept(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(nil)
	// Drain the buffered bytes, then the FIN's clean EOF.
	buf := make([]byte, 64)
	got := ""
	for {
		n, err := s.Read(nil, buf)
		if err != nil {
			t.Fatalf("peer read: %v", err)
		}
		if n == 0 {
			break
		}
		got += string(buf[:n])
	}
	if got != "goodbye" {
		t.Fatalf("peer got %q", got)
	}
	if c := <-code; c != 0 {
		t.Fatalf("client exit %d", c)
	}
}

func TestSysAcceptRacingListenerClose(t *testing.T) {
	k, _ := netKernel(t, 2)

	code := runAsync(t, k, "racer", func(p *Proc, _ []string) int {
		lfd, _ := p.SysSocket()
		p.SysBind(lfd, 80)
		p.SysListen(lfd, 4)
		acceptRet := make(chan error, 1)
		if _, err := p.SysClone("acceptor", func(tp *Proc) {
			_, err := tp.SysAccept(lfd)
			acceptRet <- err
		}); err != nil {
			t.Errorf("clone: %v", err)
			return 1
		}
		time.Sleep(10 * time.Millisecond) // let the acceptor park
		if err := p.SysClose(lfd); err != nil {
			t.Errorf("close listener: %v", err)
			return 1
		}
		if err := <-acceptRet; !errors.Is(err, net.ErrListenerClosed) && !errors.Is(err, fs.ErrBadFD) {
			t.Errorf("accept woke with %v, want ErrListenerClosed or ErrBadFD", err)
			return 1
		}
		return 0
	})
	if c := <-code; c != 0 {
		t.Fatalf("exit %d", c)
	}
}

func TestSocketOFDSharedAcrossFork(t *testing.T) {
	k, peer := netKernel(t, 2)

	ls := peer.NewSocket()
	if err := ls.Bind(nil, 7000); err != nil {
		t.Fatal(err)
	}
	if err := ls.Listen(nil, 4); err != nil {
		t.Fatal(err)
	}
	defer ls.Close(nil)

	code := runAsync(t, k, "forker", func(p *Proc, _ []string) int {
		fd, err := p.SysSocket()
		if err != nil {
			t.Errorf("socket: %v", err)
			return 1
		}
		if err := p.SysConnect(fd, NetPeerHost, 7000); err != nil {
			t.Errorf("connect: %v", err)
			return 1
		}
		// Fork: the child inherits the descriptor (same OFD) and writes
		// through it; the connection must survive the child's exit and
		// close, because the parent still holds a reference.
		pid, err := p.SysFork(func(c *Proc) {
			if _, err := c.SysWrite(fd, []byte("from child")); err != nil {
				t.Errorf("child write: %v", err)
			}
			c.SysExit(0)
		})
		if err != nil {
			t.Errorf("fork: %v", err)
			return 1
		}
		if _, _, err := p.SysWait(); err != nil {
			t.Errorf("wait: %v", err)
			return 1
		}
		_ = pid
		if _, err := p.SysWrite(fd, []byte(" and parent")); err != nil {
			t.Errorf("parent write after child exit: %v", err)
			return 1
		}
		if err := p.SysClose(fd); err != nil {
			t.Errorf("close: %v", err)
			return 1
		}
		return 0
	})

	s, err := ls.Accept(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(nil)
	var sb strings.Builder
	buf := make([]byte, 64)
	for {
		n, err := s.Read(nil, buf)
		if err != nil {
			t.Fatalf("peer read: %v", err)
		}
		if n == 0 {
			break
		}
		sb.Write(buf[:n])
	}
	if got := sb.String(); got != "from child and parent" {
		t.Fatalf("peer got %q", got)
	}
	if c := <-code; c != 0 {
		t.Fatalf("exit %d", c)
	}
}

func TestSysDupSharesSocketOFD(t *testing.T) {
	k, peer := netKernel(t, 2)

	ls := peer.NewSocket()
	if err := ls.Bind(nil, 7000); err != nil {
		t.Fatal(err)
	}
	if err := ls.Listen(nil, 4); err != nil {
		t.Fatal(err)
	}
	defer ls.Close(nil)

	code := runAsync(t, k, "duper", func(p *Proc, _ []string) int {
		fd, _ := p.SysSocket()
		if err := p.SysConnect(fd, NetPeerHost, 7000); err != nil {
			t.Errorf("connect: %v", err)
			return 1
		}
		dup, err := p.SysDup(fd)
		if err != nil {
			t.Errorf("dup: %v", err)
			return 1
		}
		if _, err := p.SysWrite(dup, []byte("via dup")); err != nil {
			t.Errorf("write via dup: %v", err)
			return 1
		}
		// Closing the original must NOT close the connection: the dup
		// still references the OFD.
		if err := p.SysClose(fd); err != nil {
			t.Errorf("close original: %v", err)
			return 1
		}
		if _, err := p.SysWrite(dup, []byte(" still open")); err != nil {
			t.Errorf("write after closing original: %v", err)
			return 1
		}
		p.SysClose(dup)
		return 0
	})

	s, err := ls.Accept(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(nil)
	var sb strings.Builder
	buf := make([]byte, 64)
	for {
		n, err := s.Read(nil, buf)
		if err != nil {
			t.Fatalf("peer read: %v", err)
		}
		if n == 0 {
			break
		}
		sb.Write(buf[:n])
	}
	if got := sb.String(); got != "via dup still open" {
		t.Fatalf("peer got %q", got)
	}
	if c := <-code; c != 0 {
		t.Fatalf("exit %d", c)
	}
}

func TestProcNetVisibleThroughVFS(t *testing.T) {
	k, peer := netKernel(t, 2)

	ready := make(chan struct{})
	hold := make(chan struct{})
	code := runAsync(t, k, "proc-net", func(p *Proc, _ []string) int {
		lfd, _ := p.SysSocket()
		p.SysBind(lfd, 80)
		p.SysListen(lfd, 4)
		close(ready)
		cfd, err := p.SysAccept(lfd)
		if err != nil {
			t.Errorf("accept: %v", err)
			return 1
		}
		// Read /proc/net through the ordinary file path while the
		// connection is live.
		pf, err := p.SysOpen("/proc/net", fs.ORdOnly)
		if err != nil {
			t.Errorf("open /proc/net: %v", err)
			return 1
		}
		buf := make([]byte, 4096)
		n, err := p.SysRead(pf, buf)
		if err != nil {
			t.Errorf("read /proc/net: %v", err)
			return 1
		}
		txt := string(buf[:n])
		for _, want := range []string{"stack eth0 host 1", "LISTEN 1:80", "ESTABLISHED"} {
			if !strings.Contains(txt, want) {
				t.Errorf("/proc/net missing %q:\n%s", want, txt)
			}
		}
		p.SysClose(pf)
		<-hold
		p.SysClose(cfd)
		p.SysClose(lfd)
		return 0
	})

	<-ready
	c := peerDial(t, peer, 80)
	close(hold)
	if got := <-code; got != 0 {
		t.Fatalf("exit %d", got)
	}
	c.Close(nil)
}

// runAsync launches fn as a process and returns its exit-code channel.
func runAsync(t *testing.T, k *Kernel, name string, fn Program) <-chan int {
	t.Helper()
	code := make(chan int, 1)
	k.Spawn(name, 0, func(p *Proc, argv []string) int {
		c := fn(p, argv)
		code <- c
		return c
	}, nil)
	return code
}
