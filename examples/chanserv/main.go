// Chanserv demo: boot Prototype 5 with the NIC pair, run the broadcast
// channel server as a kernel process, and drive a three-way chat from
// host-side clients at the far end of the link. Finishes by printing
// /proc/net as the kernel sees the connections.
//
//	go run ./examples/chanserv
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"protosim/internal/core"
	"protosim/internal/kernel"
	"protosim/internal/kernel/ktime"
	"protosim/internal/kernel/net"
	"protosim/internal/user/apps/chanserv"
	"protosim/internal/user/ulib"
)

// chatClient is one host-side participant: a peer-stack socket plus
// frame reassembly.
type chatClient struct {
	name string
	sk   *net.Socket
	d    ulib.FrameDecoder
	buf  []byte
}

func dial(peer *net.Stack, name, room string) (*chatClient, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		sk := peer.NewSocket()
		err := sk.Connect(nil, net.Addr{Host: kernel.NetLocalHost, Port: chanserv.DefaultPort})
		if err == nil {
			c := &chatClient{name: name, sk: sk, buf: make([]byte, 4096)}
			return c, c.send(room)
		}
		sk.Close(nil)
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("connect: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *chatClient) send(msg string) error {
	buf := ulib.EncodeFrame([]byte(msg))
	for len(buf) > 0 {
		n, err := c.sk.Write(nil, buf)
		if err != nil {
			return err
		}
		buf = buf[n:]
	}
	return nil
}

func (c *chatClient) next() (string, error) {
	for {
		if f, err := c.d.Next(); f != nil || err != nil {
			return string(f), err
		}
		n, err := c.sk.Read(nil, c.buf)
		if err != nil {
			return "", err
		}
		if n == 0 {
			return "", io.EOF
		}
		c.d.Feed(c.buf[:n])
	}
}

func main() {
	sys, err := core.NewSystem(core.Options{
		Prototype:  core.Prototype5,
		AssetScale: 4,
		EnableNet:  true,
		ConsoleOut: os.Stdout,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Shutdown()

	// The peer stack is "the rest of the network": a host-side net.Stack
	// on the far NIC of the link, no kernel underneath it.
	peer := net.NewStack("peer0", kernel.NetPeerHost, sys.Machine.PeerNIC, net.Options{
		After: ktime.HostAfter,
	})
	sys.Machine.PeerNIC.SetNotify(peer.IRQ)
	defer peer.Close()

	// The server runs as an ordinary kernel process: sockets are file
	// descriptors, each client connection gets its own task.
	done := make(chan int, 1)
	sys.Kernel.Spawn("chanserv", 0, func(p *kernel.Proc, argv []string) int {
		code := chanserv.Main(p, argv)
		done <- code
		return code
	}, []string{"chanserv"})

	names := []string{"ada", "bob", "cyn"}
	clients := make([]*chatClient, len(names))
	for i, name := range names {
		c, err := dial(peer, name, "lobby")
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		clients[i] = c
		// Announce; waiting for our own copy confirms the join landed
		// before the next client speaks.
		hello := name + " joined"
		if err := c.send(hello); err != nil {
			log.Fatal(err)
		}
		for _, earlier := range clients[:i+1] {
			msg, err := earlier.next()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  [%s sees] %s\n", earlier.name, msg)
		}
	}

	if err := clients[0].send("hello from the host side"); err != nil {
		log.Fatal(err)
	}
	for _, c := range clients {
		msg, err := c.next()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  [%s sees] %s\n", c.name, msg)
	}

	// The kernel's view of all this: /proc/net through the VFS.
	fmt.Printf("\n/proc/net:\n")
	if _, err := sys.RunShellScript("cat /proc/net\n", time.Minute); err != nil {
		log.Fatal(err)
	}

	if err := clients[0].send("/shutdown"); err != nil {
		log.Fatal(err)
	}
	select {
	case code := <-done:
		fmt.Printf("chanserv exited %d\n", code)
	case <-time.After(30 * time.Second):
		log.Fatal("chanserv did not exit")
	}
	for _, c := range clients {
		c.sk.Close(nil)
	}
}
