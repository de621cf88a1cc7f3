package netrun

import (
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dlb"
	"repro/internal/dlb/wire"
)

// tagClose is a writer-local sentinel: it is never written to the wire,
// it tells the writer goroutine "everything before you is flushed — close
// the connection and stop".
const tagClose = "__netrun_close"

// router owns a process's connections: one send link per peer node id,
// each link with a writer goroutine (serializing sends, enforcing write
// deadlines) and a reader goroutine (delivering inbound envelopes to the
// mailbox).
// The master's router never dials — a slave it cannot reach is simply not
// heard from, and the lease detector evicts it. Slave routers dial peers
// lazily from the roster, so slave↔slave work movement flows direct.
type router struct {
	id        int // our node id (cluster.MasterID on the master)
	box       *mailbox
	to        Timeouts
	dialPeers bool
	// binarySelf marks that this process negotiated the binary data-plane
	// codec with the master; it may then send binary frames to any peer
	// whose roster codec entry confirms the peer did too. Set before any
	// link is attached, read by dial paths.
	binarySelf bool
	// dialHook, when set, runs between a lazy peer dial's handshake and
	// its attach, so tests can force simultaneous-dial interleavings.
	dialHook func(to int)

	mu     sync.Mutex
	links  map[int]*link  // per-peer send link
	all    map[*link]bool // every attached link not yet down, send or not
	roster map[int]string
	codecs map[int]string // peer id -> negotiated data-plane codec
	down   map[int]bool
	closed bool
	wg     sync.WaitGroup
}

type link struct {
	peer  int
	nc    net.Conn
	wc    *wire.Conn
	sendQ chan wire.Envelope
	dead  chan struct{}
	once  sync.Once
}

func newRouter(id int, box *mailbox, to Timeouts, dialPeers bool) *router {
	return &router{
		id:        id,
		box:       box,
		to:        to.withDefaults(),
		dialPeers: dialPeers,
		links:     map[int]*link{},
		all:       map[*link]bool{},
		roster:    map[int]string{},
		codecs:    map[int]string{},
		down:      map[int]bool{},
	}
}

func (r *router) hasLink(peer int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.links[peer] != nil
}

func (r *router) mergeRoster(addrs, codecs map[int]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, addr := range addrs {
		if addr != "" {
			r.roster[id] = addr
		}
	}
	for id, codec := range codecs {
		if codec != "" {
			r.codecs[id] = codec
		}
	}
}

// rosterSnapshot copies the current peer address table.
func (r *router) rosterSnapshot() map[int]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int]string, len(r.roster))
	for id, addr := range r.roster {
		out[id] = addr
	}
	return out
}

// codecSnapshot copies the current peer codec table.
func (r *router) codecSnapshot() map[int]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int]string, len(r.codecs))
	for id, c := range r.codecs {
		out[id] = c
	}
	return out
}

// peerBinary reports whether binary frames may be sent to the peer: both
// this process and the peer must have negotiated the binary codec.
func (r *router) peerBinary(peer int) bool {
	if !r.binarySelf {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.codecs[peer] == wire.CodecBinary
}

// linkedPeers lists the ids with a live connection.
func (r *router) linkedPeers() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.links))
	for id := range r.links {
		out = append(out, id)
	}
	return out
}

// send routes one protocol message. A peer with no connection is dialed
// lazily (slave routers only); a peer whose connection died gets nothing —
// on the master that silence is exactly what the lease detector turns into
// an eviction, and on a slave the dead peer's work is re-homed by the
// recovery that its eviction triggers.
func (r *router) send(to int, tag string, data interface{}) {
	env := wire.Envelope{Tag: tag, From: r.id, Payload: data}
	r.mu.Lock()
	l := r.links[to]
	addr := r.roster[to]
	isDown := r.down[to]
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return
	}
	if l == nil {
		if !r.dialPeers || to == cluster.MasterID || isDown || addr == "" {
			return
		}
		if l = r.dialPeer(to, addr); l == nil {
			return
		}
	}
	select {
	case l.sendQ <- env:
	case <-l.dead:
	}
}

// dialPeer opens the lazy slave↔slave connection: dial with backoff,
// identify ourselves (and our codec) with a PeerHelloMsg, register the
// link. Binary sends are enabled when the roster says the peer negotiated
// binary too; the PeerHelloMsg's codec lets the acceptor make the same
// decision for its own sends back.
func (r *router) dialPeer(to int, addr string) *link {
	nc, err := dialBackoff(addr, r.to.Dial)
	if err != nil {
		r.mu.Lock()
		r.down[to] = true // stop retrying a gone peer on every send
		r.mu.Unlock()
		return nil
	}
	nc.SetWriteDeadline(time.Now().Add(r.to.Handshake))
	wc := wire.NewConn(nc)
	hello := wire.PeerHelloMsg{From: r.id}
	if r.binarySelf {
		hello.Codec = wire.CodecBinary
	}
	if err := wc.Send(wire.Envelope{Tag: wire.TagPeerHello, From: r.id, Payload: hello}); err != nil {
		nc.Close()
		return nil
	}
	nc.SetWriteDeadline(time.Time{})
	wc.SetBinary(r.peerBinary(to))
	if r.dialHook != nil {
		r.dialHook(to)
	}
	return r.attach(to, nc, wc, false)
}

// attach registers a live connection for peer, starts its reader and
// writer, and returns the peer's send link. It takes the wire.Conn the
// handshake already used — gob streams are stateful (type definitions are
// transmitted once), so the same encoder/decoder pair must carry the whole
// connection.
//
// Every send to a peer goes over one link, because per-peer frame order is
// part of the protocol (ghost tags carry no iteration number). Two slaves
// that dial each other at once end up with two connections; the first one
// attached stays the send link and the other only reads. A new connection
// replaces the send link only when that link is dead, or on master↔slave
// links, where a new connection is a reconnect. A replaced link keeps its
// reader until it dies, so no in-flight frame is lost, and close and abort
// reach every attached link. readLimited arms the per-frame read deadline —
// the master sets it on slave connections, where heartbeats guarantee
// traffic and prolonged silence means a dead link TCP has not noticed.
func (r *router) attach(peer int, nc net.Conn, wc *wire.Conn, readLimited bool) *link {
	l := &link{
		peer:  peer,
		nc:    nc,
		wc:    wc,
		sendQ: make(chan wire.Envelope, 4096),
		dead:  make(chan struct{}),
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		nc.Close()
		return nil
	}
	send := l
	if old := r.links[peer]; old != nil && r.id != cluster.MasterID && peer != cluster.MasterID && !old.isDead() {
		send = old
	} else {
		r.links[peer] = l
		delete(r.down, peer)
	}
	r.all[l] = true
	r.wg.Add(2)
	r.mu.Unlock()
	go r.writer(l)
	go r.reader(l, readLimited)
	return send
}

func (l *link) isDead() bool {
	select {
	case <-l.dead:
		return true
	default:
		return false
	}
}

func (r *router) linkDown(l *link, err error) {
	l.once.Do(func() {
		close(l.dead)
		l.nc.Close()
	})
	r.mu.Lock()
	if r.links[l.peer] == l {
		delete(r.links, l.peer)
		r.down[l.peer] = true
	}
	delete(r.all, l)
	closed := r.closed
	r.mu.Unlock()
	if l.peer == cluster.MasterID && r.id != cluster.MasterID && !closed {
		r.box.setFail(err)
	}
}

func (r *router) writer(l *link) {
	defer r.wg.Done()
	for {
		select {
		case env := <-l.sendQ:
			if env.Tag == tagClose {
				r.linkDown(l, nil)
				return
			}
			l.nc.SetWriteDeadline(time.Now().Add(r.to.Write))
			if err := l.wc.Send(env); err != nil {
				r.linkDown(l, err)
				return
			}
		case <-l.dead:
			return
		}
	}
}

func (r *router) reader(l *link, readLimited bool) {
	defer r.wg.Done()
	// The reader owns the connection's inbound frame buffer; when it exits
	// the buffer goes back to the pool (the explicit release point of the
	// data plane's receive storage).
	defer l.wc.Release()
	for {
		if readLimited {
			l.nc.SetReadDeadline(time.Now().Add(r.to.Read))
		}
		env, err := l.wc.Recv()
		if err != nil {
			r.linkDown(l, err)
			return
		}
		switch env.Tag {
		case wire.TagRoster:
			if ro, ok := env.Payload.(wire.RosterMsg); ok {
				r.mergeRoster(ro.Addrs, ro.Codecs)
			}
		default:
			r.box.put(cluster.Msg{From: env.From, Tag: env.Tag, Data: env.Payload})
		}
	}
}

// abort broadcasts the protocol's fail-fast marker on every live link: a
// genuine bug in this process must surface as an error on its peers, not a
// silent eviction that quietly recomputes past it.
func (r *router) abort() {
	r.mu.Lock()
	links := r.attachedLinks()
	r.mu.Unlock()
	for _, l := range links {
		select {
		case l.sendQ <- wire.Envelope{Tag: dlb.AbortTag, From: r.id}:
		case <-l.dead:
		}
	}
}

// close flushes every link's queued sends (the final gather, evictions)
// and closes the connections.
func (r *router) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	links := r.attachedLinks()
	r.mu.Unlock()
	for _, l := range links {
		select {
		case l.sendQ <- wire.Envelope{Tag: tagClose}:
		case <-l.dead:
		}
	}
	r.wg.Wait()
}

// attachedLinks lists every attached link not yet down; callers hold r.mu.
func (r *router) attachedLinks() []*link {
	links := make([]*link, 0, len(r.all))
	for l := range r.all {
		links = append(links, l)
	}
	return links
}

// dialBackoff dials addr with exponentially backed-off retries until the
// budget is spent. Retrying covers the races real deployments hit —
// daemons starting in any order, a listener briefly behind its
// address being printed — and the reconnect path.
func dialBackoff(addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	backoff := 50 * time.Millisecond
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			remain = time.Millisecond
		}
		nc, err := net.DialTimeout("tcp", addr, remain)
		if err == nil {
			return nc, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}
