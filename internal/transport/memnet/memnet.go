// Package memnet implements an in-process simulated network for the
// transport.Endpoint interface. It is the experimental substrate replacing
// the paper's EC2 deployment: links have configurable latency
// distributions, nodes can crash-stop, individual nodes can have extra
// outbound delay injected (emulating `tc netem delay`), and links can be
// cut to create partitions.
//
// Delivery model. Send copies the payload once and stamps the envelope
// with its due time: now plus the drawn latency, any injected node or
// link delay, and the sender's bandwidth queueing (self-sends are due at
// once). The envelope goes onto the destination endpoint's own queue, a
// min-heap ordered by (due time, arrival sequence): messages due at the
// same instant leave in the order they arrived, so zero-latency messages
// from one sender keep their send order, while jitter lets a later
// message with a shorter delay overtake an earlier one. The queue grows
// with what is in flight to the endpoint and has no fixed capacity. Only
// a message due at once (zero delay, which includes every self-send)
// meets backpressure: its Send waits while the destination already
// holds backlogCap envelopes, so a zero-latency flood runs at the
// receiver's pace instead of growing the queue without bound. Delayed
// sends never wait.
//
// Each endpoint has a single reader, its dispatch goroutine, which pops
// due envelopes under one reusable timer and runs the handler on each,
// one at a time. Protocols layered through transport.Mux then fan out
// across the lane scheduler, one flow per channel (see the Mux
// concurrency contract). Closing an endpoint, or the whole Network,
// drops whatever is still queued for it: none of it is delivered.
package memnet

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"astro/internal/transport"
)

// Errors returned by endpoint operations.
var (
	ErrClosed  = errors.New("memnet: endpoint closed")
	ErrCrashed = errors.New("memnet: node crashed")
)

// LatencyModel computes the one-way delay for a message from one node to
// another. u is a uniformly distributed sample in [0,1) for jitter.
type LatencyModel func(from, to transport.NodeID, u float64) time.Duration

// Fixed returns a latency model with constant delay d.
func Fixed(d time.Duration) LatencyModel {
	return func(_, _ transport.NodeID, _ float64) time.Duration { return d }
}

// Uniform returns a latency model drawing delays uniformly from [lo, hi).
func Uniform(lo, hi time.Duration) LatencyModel {
	if hi < lo {
		lo, hi = hi, lo
	}
	span := float64(hi - lo)
	return func(_, _ transport.NodeID, u float64) time.Duration {
		return lo + time.Duration(u*span)
	}
}

// Regions models the paper's deployment: nodes are assigned round-robin to
// k regions; intra-region links draw from [intraLo, intraHi), inter-region
// links from [interLo, interHi). With k=4 and inter ≈ 10ms one-way this
// reproduces the ~20ms RTT across the four EC2 regions in Europe.
func Regions(k int, intraLo, intraHi, interLo, interHi time.Duration) LatencyModel {
	if k < 1 {
		k = 1
	}
	intra := Uniform(intraLo, intraHi)
	inter := Uniform(interLo, interHi)
	return func(from, to transport.NodeID, u float64) time.Duration {
		if int(from)%k == int(to)%k {
			return intra(from, to, u)
		}
		return inter(from, to, u)
	}
}

// EuropeWAN is the default latency model used by the experiment harness:
// four regions, sub-millisecond intra-region latency and ~10ms one-way
// (~20ms RTT) between regions.
func EuropeWAN() LatencyModel {
	return Regions(4, 300*time.Microsecond, 900*time.Microsecond, 8*time.Millisecond, 12*time.Millisecond)
}

// Stats are cumulative network-wide counters.
type Stats struct {
	MessagesSent uint64
	BytesSent    uint64
	Dropped      uint64
}

// Network is a simulated message-passing network. Send applies the
// crash, cut, partition, loss, latency and bandwidth models and queues
// the message on the destination endpoint (see the package doc for the
// delivery model); each endpoint's dispatch goroutine delivers it when
// it falls due.
type Network struct {
	latency LatencyModel
	epoch   time.Time // zero point of the envelopes' due times

	// egress bandwidth model: bytes/sec per node, 0 = unlimited
	bandwidth float64
	overhead  int
	busyMu    sync.Mutex
	busy      map[transport.NodeID]time.Time

	msgs    atomic.Uint64
	bytes   atomic.Uint64
	dropped atomic.Uint64

	prng atomic.Uint64

	mu         sync.RWMutex
	nodes      map[transport.NodeID]*node
	crashed    map[transport.NodeID]bool
	delays     map[transport.NodeID]time.Duration
	cuts       map[[2]transport.NodeID]bool
	linkDelays map[[2]transport.NodeID]time.Duration // directed [from,to]
	linkLoss   map[[2]transport.NodeID]float64       // directed [from,to]
	groups     map[transport.NodeID]int              // partition membership
	closed     bool

	dispatchers sync.WaitGroup // running dispatch goroutines
}

// Option configures a Network.
type Option func(*Network)

// WithLatency sets the link latency model. The default is zero latency.
func WithLatency(m LatencyModel) Option {
	return func(n *Network) { n.latency = m }
}

// WithSeed seeds the jitter generator, making latency draws reproducible.
func WithSeed(seed uint64) Option {
	return func(n *Network) { n.prng.Store(seed) }
}

// WithBandwidth models per-node egress capacity: messages leaving a node
// serialize onto its link at bytesPerSec, each charged overheadBytes of
// framing on top of its payload. This is what makes leader-based protocols
// bottleneck on the leader and all-to-all broadcasts bottleneck globally —
// the paper's deployment had ~30 MiB/s between EC2 regions. Zero disables
// the model.
func WithBandwidth(bytesPerSec float64, overheadBytes int) Option {
	return func(n *Network) {
		n.bandwidth = bytesPerSec
		n.overhead = overheadBytes
	}
}

// New creates a network.
func New(opts ...Option) *Network {
	n := &Network{
		latency:    Fixed(0),
		epoch:      time.Now(),
		nodes:      make(map[transport.NodeID]*node),
		crashed:    make(map[transport.NodeID]bool),
		delays:     make(map[transport.NodeID]time.Duration),
		cuts:       make(map[[2]transport.NodeID]bool),
		linkDelays: make(map[[2]transport.NodeID]time.Duration),
		linkLoss:   make(map[[2]transport.NodeID]float64),
		busy:       make(map[transport.NodeID]time.Time),
	}
	n.prng.Store(0x9e3779b97f4a7c15)
	for _, o := range opts {
		o(n)
	}
	return n
}

// uniform returns the next jitter sample in [0,1) from a lock-free
// splitmix64 stream. Statistical quality is ample for latency jitter.
func (n *Network) uniform() float64 {
	x := n.prng.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// clock returns the time since the network was created, in the units of
// an envelope's due time. It reads the monotonic clock.
func (n *Network) clock() int64 { return int64(time.Since(n.epoch)) }

// Stats returns a snapshot of the cumulative counters.
func (n *Network) Stats() Stats {
	return Stats{
		MessagesSent: n.msgs.Load(),
		BytesSent:    n.bytes.Load(),
		Dropped:      n.dropped.Load(),
	}
}

// ResetStats zeroes the cumulative counters.
func (n *Network) ResetStats() {
	n.msgs.Store(0)
	n.bytes.Store(0)
	n.dropped.Store(0)
}

// Node returns the endpoint with the given address, creating it if needed.
func (n *Network) Node(id transport.NodeID) transport.Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd, ok := n.nodes[id]; ok {
		return nd
	}
	nd := &node{
		net:         n,
		id:          id,
		wake:        make(chan struct{}, 1),
		done:        make(chan struct{}),
		parkedUntil: notParked,
	}
	nd.space.L = &nd.mu
	n.nodes[id] = nd
	n.dispatchers.Add(1)
	go nd.dispatch()
	return nd
}

// Crash marks a node as crash-stopped: all of its inbound and outbound
// traffic is silently discarded from now on. Crash-stop is permanent for
// the protocols under study; Restore exists for tests.
func (n *Network) Crash(id transport.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
}

// Restore clears a node's crashed flag (test helper; the paper's
// experiments use crash-stop only).
func (n *Network) Restore(id transport.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
}

// Crashed reports whether a node is crash-stopped.
func (n *Network) Crashed(id transport.NodeID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.crashed[id]
}

// SetNodeDelay injects extra delay on every packet leaving id, emulating
// `tc qdisc ... netem delay d` on the node's interface. A zero duration
// removes the injection.
func (n *Network) SetNodeDelay(id transport.NodeID, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if d <= 0 {
		delete(n.delays, id)
		return
	}
	n.delays[id] = d
}

// SetLinkDelay injects extra delay on the directed link from → to,
// emulating asymmetric netem on a single path. It composes with
// SetNodeDelay and the base latency model. A non-positive duration
// removes the injection.
func (n *Network) SetLinkDelay(from, to transport.NodeID, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := [2]transport.NodeID{from, to}
	if d <= 0 {
		delete(n.linkDelays, k)
		return
	}
	n.linkDelays[k] = d
}

// SetLinkLoss drops each packet on the directed link from → to with
// probability p (netem-style random loss). Draws come from the network's
// seeded jitter stream, so runs are reproducible. p <= 0 removes the
// injection; p >= 1 drops everything.
func (n *Network) SetLinkLoss(from, to transport.NodeID, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := [2]transport.NodeID{from, to}
	if p <= 0 {
		delete(n.linkLoss, k)
		return
	}
	n.linkLoss[k] = p
}

// Partition splits the listed nodes into isolated groups: traffic between
// two nodes in different groups is dropped. Nodes not listed in any group
// are unaffected (they can reach everyone), so client endpoints keep
// working unless explicitly partitioned. Calling Partition replaces any
// previous partition.
func (n *Network) Partition(groups ...[]transport.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups = make(map[transport.NodeID]int)
	for g, members := range groups {
		for _, id := range members {
			n.groups[id] = g
		}
	}
}

// HealPartition removes the partition installed by Partition.
func (n *Network) HealPartition() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups = nil
}

// partitionedLocked reports whether a partition separates a and b.
// Callers hold n.mu.
func (n *Network) partitionedLocked(a, b transport.NodeID) bool {
	if n.groups == nil {
		return false
	}
	ga, oka := n.groups[a]
	gb, okb := n.groups[b]
	return oka && okb && ga != gb
}

// CutLink drops all traffic in both directions between a and b.
func (n *Network) CutLink(a, b transport.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cuts[linkKey(a, b)] = true
}

// HealLink restores a previously cut link.
func (n *Network) HealLink(a, b transport.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cuts, linkKey(a, b))
}

func linkKey(a, b transport.NodeID) [2]transport.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]transport.NodeID{a, b}
}

// Close shuts the network down: all endpoints stop dispatching, and
// messages still queued for them are dropped undelivered. It does not
// wait for a handler that is running to return.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for _, nd := range n.nodes {
		nd.closeLocked()
	}
}

// envelope is one message in flight to an endpoint.
type envelope struct {
	due     int64  // Network.clock reading at which it is delivered
	seq     uint64 // arrival order at the destination, the tie-break
	from    transport.NodeID
	payload []byte
}

// dueQueue is a binary min-heap of envelopes ordered by (due, seq).
type dueQueue []envelope

func (q dueQueue) less(i, j int) bool {
	return q[i].due < q[j].due || (q[i].due == q[j].due && q[i].seq < q[j].seq)
}

func (q *dueQueue) push(e envelope) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the earliest envelope; the queue is non-empty.
func (q *dueQueue) pop() envelope {
	h := *q
	e, last := h[0], len(h)-1
	h[0] = h[last]
	h[last] = envelope{} // release the payload
	h = h[:last]
	for i := 0; ; {
		m, l := i, 2*i+1
		if l < len(h) && h.less(l, m) {
			m = l
		}
		if r := l + 1; r < len(h) && h.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return e
}

// notParked is node.parkedUntil while the dispatch goroutine runs.
const notParked = math.MinInt64

// backlogCap is the queue length at which a Send due at once waits for
// the dispatch goroutine to catch up.
const backlogCap = 1 << 14

// node is one endpoint. Inbound messages wait in its queue until its
// single dispatch goroutine pops them, once due, and runs the handler.
type node struct {
	net  *Network
	id   transport.NodeID
	wake chan struct{} // nudges the parked dispatch goroutine; capacity 1
	done chan struct{} // closed on Close

	mu    sync.Mutex
	queue dueQueue
	seq   uint64    // next arrival sequence number
	space sync.Cond // on mu; broadcast when a blocked Send may proceed
	// Sends that meet backpressure queue in ticket order, so none is
	// overtaken by a later one (the order a channel's blocked senders
	// keep): ticket is the next to hand out, serving the one whose turn
	// it is.
	ticket, serving uint64
	// parkedUntil is the due time the parked dispatch goroutine sleeps
	// until (math.MaxInt64 for an empty queue), or notParked while it
	// runs. A push wakes it only if the new envelope falls due sooner.
	parkedUntil int64

	handler atomic.Pointer[transport.Handler]
	closed  atomic.Bool
}

var _ transport.Endpoint = (*node)(nil)

func (nd *node) ID() transport.NodeID { return nd.id }

func (nd *node) SetHandler(h transport.Handler) {
	nd.handler.Store(&h)
}

func (nd *node) Close() error {
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	nd.closeLocked()
	return nil
}

// closeLocked stops the endpoint and drops its queue. Callers hold
// nd.net.mu.
func (nd *node) closeLocked() {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.closed.CompareAndSwap(false, true) {
		nd.queue = nil
		close(nd.done)
		nd.space.Broadcast()
	}
}

// push queues env, waking the dispatch goroutine if it sleeps past
// env's due time. With backpressure set it first waits, behind any Send
// already waiting, while the queue holds backlogCap envelopes.
func (nd *node) push(env envelope, backpressure bool) {
	nd.mu.Lock()
	if backpressure && (len(nd.queue) >= backlogCap || nd.serving != nd.ticket) {
		t := nd.ticket
		nd.ticket++
		for !nd.closed.Load() && (nd.serving != t || len(nd.queue) >= backlogCap) {
			nd.space.Wait()
		}
		nd.serving++
		nd.space.Broadcast() // the next ticket may fit too
	}
	if nd.closed.Load() {
		nd.mu.Unlock()
		return
	}
	env.seq = nd.seq
	nd.seq++
	nd.queue.push(env)
	wake := env.due < nd.parkedUntil
	if wake {
		nd.parkedUntil = notParked
	}
	nd.mu.Unlock()
	if wake {
		select {
		case nd.wake <- struct{}{}:
		default: // a stale wake-up is still pending; it serves
		}
	}
}

// dispatch is the endpoint's single reader. It delivers due envelopes
// in (due, seq) order, then parks on one reusable timer until the head
// of the queue falls due or a push brings an earlier envelope.
func (nd *node) dispatch() {
	defer nd.net.dispatchers.Done()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		now := nd.net.clock()
		nd.mu.Lock()
		if nd.closed.Load() {
			nd.mu.Unlock()
			return
		}
		if len(nd.queue) > 0 && nd.queue[0].due <= now {
			env := nd.queue.pop()
			nd.parkedUntil = notParked
			if nd.serving != nd.ticket {
				nd.space.Broadcast()
			}
			nd.mu.Unlock()
			if !nd.net.Crashed(nd.id) {
				if h := nd.handler.Load(); h != nil {
					(*h)(env.from, env.payload)
				}
			}
			continue
		}
		var due <-chan time.Time // nil while the queue is empty
		nd.parkedUntil = math.MaxInt64
		if len(nd.queue) > 0 {
			nd.parkedUntil = nd.queue[0].due
			timer.Reset(time.Duration(nd.parkedUntil - now))
			due = timer.C
		}
		nd.mu.Unlock()
		select {
		case <-nd.wake:
		case <-due:
		case <-nd.done:
			return
		}
	}
}

// Send implements transport.Endpoint. The payload is copied, so callers
// may reuse their buffers. A message due at once (zero delay) waits
// while the destination holds backlogCap envelopes; see the package doc.
func (nd *node) Send(to transport.NodeID, payload []byte) error {
	if nd.closed.Load() {
		return ErrClosed
	}
	net := nd.net

	net.mu.RLock()
	if net.closed {
		net.mu.RUnlock()
		return ErrClosed
	}
	if net.crashed[nd.id] {
		net.mu.RUnlock()
		return ErrCrashed
	}
	dest, ok := net.nodes[to]
	cut := net.cuts[linkKey(nd.id, to)]
	if to != nd.id && net.partitionedLocked(nd.id, to) {
		cut = true
	}
	extra := net.delays[nd.id]
	if to != nd.id {
		extra += net.linkDelays[[2]transport.NodeID{nd.id, to}]
	}
	loss := net.linkLoss[[2]transport.NodeID{nd.id, to}]
	destCrashed := net.crashed[to]
	net.mu.RUnlock()

	net.msgs.Add(1)
	net.bytes.Add(uint64(len(payload)))

	if !ok || cut || destCrashed {
		net.dropped.Add(1)
		return nil // like UDP to a dead host: silently lost
	}
	if loss > 0 && to != nd.id && net.uniform() < loss {
		net.dropped.Add(1)
		return nil
	}

	var delay time.Duration
	if to != nd.id { // self-sends bypass the latency and bandwidth models
		delay = net.latency(nd.id, to, net.uniform()) + extra
		if net.bandwidth > 0 {
			delay += net.serialize(nd.id, len(payload))
		}
	}
	delay = min(max(delay, 0), 10*time.Minute) // clamp absurd models

	dest.push(envelope{
		due:     net.clock() + int64(delay),
		from:    nd.id,
		payload: bytes.Clone(payload),
	}, delay == 0)
	return nil
}

// serialize charges a message against the sender's egress link and
// returns the extra wait before it reaches the wire: the transmission time
// plus any queueing behind earlier messages.
func (n *Network) serialize(from transport.NodeID, payloadLen int) time.Duration {
	tx := time.Duration(float64(payloadLen+n.overhead) / n.bandwidth * float64(time.Second))
	now := time.Now()
	n.busyMu.Lock()
	start := now
	if b, ok := n.busy[from]; ok && b.After(start) {
		start = b
	}
	end := start.Add(tx)
	n.busy[from] = end
	n.busyMu.Unlock()
	return end.Sub(now)
}
