package netrun

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dlb/wire"
)

// acceptPeers is the slave↔slave half of Server.handleConn: read the
// dialer's PeerHelloMsg, wait for gate, attach the connection to rt, and
// report it on attached.
func acceptPeers(ln net.Listener, rt *router, gate <-chan struct{}, attached chan<- int) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		wc := wire.NewConn(nc)
		env, err := wc.Recv()
		ph, ok := env.Payload.(wire.PeerHelloMsg)
		if err != nil || !ok {
			nc.Close()
			continue
		}
		<-gate
		rt.attach(ph.From, nc, wc, false)
		attached <- rt.id
	}
}

// TestSimultaneousPeerDial forces two slave routers to dial each other at
// once, with the attaches in the order that used to swap send links on
// both sides: router 0 attaches its own dial before the inbound one,
// router 1 the inbound one before its own dial. Router 0 sends frames
// before and after its inbound connection attaches; router 1 sends after
// both of its attaches. Every frame must arrive in send order (ghost tags
// carry no iteration number, so a peer's frames must share one
// connection), and close must return: when each router's send link was
// the latest attached, the first connection ended up with no send link at
// either end, and nothing ever closed it.
func TestSimultaneousPeerDial(t *testing.T) {
	const frames, width = 200, 512
	dialed := make(chan int, 2)
	release := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	gate := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var rts [2]*router
	var boxes [2]*mailbox
	var lns [2]net.Listener
	attached := make(chan int, 2)
	for i := range rts {
		boxes[i] = newMailbox()
		rts[i] = newRouter(i, boxes[i], Timeouts{Dial: 5 * time.Second}, true)
		from := i
		rts[i].dialHook = func(to int) {
			dialed <- from
			<-release[from]
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns[i] = ln
		go acceptPeers(ln, rts[i], gate[i], attached)
	}
	for i, rt := range rts {
		rt.mergeRoster(map[int]string{1 - i: lns[1-i].Addr().String()}, nil)
	}
	frame := func(s int) []float64 {
		f := make([]float64, width)
		f[0] = float64(s)
		return f
	}
	send := func(rt *router, lo, hi int) {
		for s := lo; s < hi; s++ {
			rt.send(1-rt.id, "seq", frame(s))
		}
	}

	// Both routers start a lazy dial (their first send) and park in the
	// hook with the handshake done; neither acceptor has attached yet, so
	// neither send can find a link and skip its dial.
	var probes [2]sync.WaitGroup
	for _, rt := range rts {
		probes[rt.id].Add(1)
		go func(rt *router) {
			defer probes[rt.id].Done()
			send(rt, 0, 1)
		}(rt)
	}
	<-dialed
	<-dialed
	// Router 1 attaches router 0's connection.
	close(gate[1])
	<-attached
	// Router 0 attaches its own dial and sends over it.
	close(release[0])
	probes[0].Wait()
	send(rts[0], 1, frames/2)
	// Router 0 attaches router 1's connection, then router 1 its own dial.
	close(gate[0])
	<-attached
	close(release[1])
	probes[1].Wait()
	var senders sync.WaitGroup
	senders.Add(2)
	go func() { defer senders.Done(); send(rts[0], frames/2, frames) }()
	go func() { defer senders.Done(); send(rts[1], 1, frames) }()
	senders.Wait()

	for i, box := range boxes {
		from := 1 - i
		for want := 0; want < frames; want++ {
			m := box.recv(from, "seq")
			if got := int(m.Data.([]float64)[0]); got != want {
				t.Fatalf("router %d: frame %d from router %d arrived in place of frame %d", i, got, from, want)
			}
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		rts[0].close()
		rts[1].close()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("router close wedged on a connection no send link reaches")
	}
}
