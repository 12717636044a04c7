package memnet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astro/internal/transport"
)

// collector gathers messages delivered to an endpoint.
type collector struct {
	mu   sync.Mutex
	msgs []string
	from []transport.NodeID
	ch   chan struct{}
}

func newCollector(ep transport.Endpoint) *collector {
	c := &collector{ch: make(chan struct{}, 1024)}
	ep.SetHandler(func(from transport.NodeID, payload []byte) {
		c.mu.Lock()
		c.msgs = append(c.msgs, string(payload))
		c.from = append(c.from, from)
		c.mu.Unlock()
		c.ch <- struct{}{}
	})
	return c
}

func (c *collector) wait(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for i := 0; i < n; i++ {
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for message %d/%d", i+1, n)
		}
	}
}

func (c *collector) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.msgs))
	copy(out, c.msgs)
	return out
}

func TestDeliveryBasic(t *testing.T) {
	net := New()
	defer net.Close()
	a := net.Node(1)
	b := net.Node(2)
	cb := newCollector(b)
	newCollector(a)

	if err := a.Send(2, []byte("hi")); err != nil {
		t.Fatalf("send: %v", err)
	}
	cb.wait(t, 1, time.Second)
	got := cb.snapshot()
	if len(got) != 1 || got[0] != "hi" {
		t.Fatalf("delivered = %v", got)
	}
}

func TestSelfSend(t *testing.T) {
	net := New(WithLatency(Fixed(50 * time.Millisecond)))
	defer net.Close()
	a := net.Node(1)
	ca := newCollector(a)
	start := time.Now()
	if err := a.Send(1, []byte("tick")); err != nil {
		t.Fatalf("send: %v", err)
	}
	ca.wait(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Errorf("self-send took %v; should bypass latency model", elapsed)
	}
}

func TestLatencyApplied(t *testing.T) {
	net := New(WithLatency(Fixed(60 * time.Millisecond)))
	defer net.Close()
	a := net.Node(1)
	b := net.Node(2)
	cb := newCollector(b)

	start := time.Now()
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("delivered after %v, want >= ~60ms", elapsed)
	}
}

func TestCrashStopsTraffic(t *testing.T) {
	net := New()
	defer net.Close()
	a := net.Node(1)
	b := net.Node(2)
	cb := newCollector(b)

	net.Crash(1)
	if err := a.Send(2, []byte("should drop")); err == nil {
		t.Error("send from crashed node: want error")
	}
	net.Restore(1)
	net.Crash(2)
	if err := a.Send(2, []byte("to crashed")); err != nil {
		t.Errorf("send to crashed node should not error: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := cb.snapshot(); len(got) != 0 {
		t.Errorf("crashed node received %v", got)
	}
	if !net.Crashed(2) || net.Crashed(1) {
		t.Error("crash bookkeeping wrong")
	}
}

func TestNodeDelayInjection(t *testing.T) {
	net := New()
	defer net.Close()
	a := net.Node(1)
	b := net.Node(2)
	cb := newCollector(b)

	net.SetNodeDelay(1, 80*time.Millisecond)
	start := time.Now()
	if err := a.Send(2, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed < 70*time.Millisecond {
		t.Errorf("delay injection not applied: %v", elapsed)
	}

	net.SetNodeDelay(1, 0)
	start = time.Now()
	if err := a.Send(2, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("delay not removed: %v", elapsed)
	}
}

func TestCutLink(t *testing.T) {
	net := New()
	defer net.Close()
	a := net.Node(1)
	b := net.Node(2)
	cb := newCollector(b)

	net.CutLink(1, 2)
	if err := a.Send(2, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := cb.snapshot(); len(got) != 0 {
		t.Errorf("cut link delivered %v", got)
	}
	net.HealLink(2, 1) // order should not matter
	if err := a.Send(2, []byte("back")); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 1, time.Second)
}

func TestSendToUnknownNodeDrops(t *testing.T) {
	net := New()
	defer net.Close()
	a := net.Node(1)
	if err := a.Send(42, []byte("void")); err != nil {
		t.Errorf("send to unknown node: %v", err)
	}
	if s := net.Stats(); s.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", s.Dropped)
	}
}

func TestStats(t *testing.T) {
	net := New()
	defer net.Close()
	a := net.Node(1)
	b := net.Node(2)
	cb := newCollector(b)
	for i := 0; i < 5; i++ {
		if err := a.Send(2, []byte("abcd")); err != nil {
			t.Fatal(err)
		}
	}
	cb.wait(t, 5, time.Second)
	s := net.Stats()
	if s.MessagesSent != 5 || s.BytesSent != 20 {
		t.Errorf("stats = %+v", s)
	}
	net.ResetStats()
	if s := net.Stats(); s.MessagesSent != 0 {
		t.Errorf("after reset: %+v", s)
	}
}

func TestPayloadCopied(t *testing.T) {
	net := New()
	defer net.Close()
	a := net.Node(1)
	b := net.Node(2)
	cb := newCollector(b)
	buf := []byte("orig")
	if err := a.Send(2, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXX")
	cb.wait(t, 1, time.Second)
	if got := cb.snapshot(); got[0] != "orig" {
		t.Errorf("payload aliased sender buffer: %q", got[0])
	}
}

func TestClosedEndpointSend(t *testing.T) {
	net := New()
	defer net.Close()
	a := net.Node(1)
	net.Node(2)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("x")); err == nil {
		t.Error("send on closed endpoint: want error")
	}
}

func TestNodeIdempotent(t *testing.T) {
	net := New()
	defer net.Close()
	if net.Node(7) != net.Node(7) {
		t.Error("Node(7) returned two endpoints")
	}
}

func TestRegionsModel(t *testing.T) {
	m := Regions(4, 0, time.Millisecond, 8*time.Millisecond, 12*time.Millisecond)
	// nodes 0 and 4 share region 0; nodes 0 and 1 do not.
	if d := m(0, 4, 0.5); d >= time.Millisecond {
		t.Errorf("intra-region latency %v", d)
	}
	if d := m(0, 1, 0.5); d < 8*time.Millisecond || d >= 12*time.Millisecond {
		t.Errorf("inter-region latency %v", d)
	}
	e := EuropeWAN()
	if d := e(0, 1, 0.0); d < 8*time.Millisecond {
		t.Errorf("EuropeWAN inter latency %v", d)
	}
}

func TestUniformJitterBounds(t *testing.T) {
	net := New(WithSeed(123))
	m := Uniform(5*time.Millisecond, 10*time.Millisecond)
	for i := 0; i < 1000; i++ {
		d := m(0, 1, net.uniform())
		if d < 5*time.Millisecond || d >= 10*time.Millisecond {
			t.Fatalf("sample %v out of bounds", d)
		}
	}
}

func TestConcurrentSenders(t *testing.T) {
	net := New(WithLatency(Uniform(0, time.Millisecond)))
	defer net.Close()
	const senders, per = 8, 100
	dst := net.Node(99)
	cd := newCollector(dst)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep := net.Node(transport.NodeID(s))
		wg.Add(1)
		go func(ep transport.Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ep.Send(99, []byte("m")); err != nil {
					t.Error(err)
					return
				}
			}
		}(ep)
	}
	wg.Wait()
	cd.wait(t, senders*per, 5*time.Second)
}

func TestLinkDelayAsymmetric(t *testing.T) {
	net := New()
	defer net.Close()
	a, b := net.Node(1), net.Node(2)
	ca, cb := newCollector(a), newCollector(b)

	net.SetLinkDelay(1, 2, 30*time.Millisecond)

	start := time.Now()
	if err := a.Send(2, []byte("slow")); err != nil {
		t.Fatalf("send: %v", err)
	}
	cb.wait(t, 1, time.Second)
	if e := time.Since(start); e < 25*time.Millisecond {
		t.Fatalf("1→2 arrived after %v, want >= ~30ms link delay", e)
	}

	start = time.Now()
	if err := b.Send(1, []byte("fast")); err != nil {
		t.Fatalf("send: %v", err)
	}
	ca.wait(t, 1, time.Second)
	if e := time.Since(start); e > 20*time.Millisecond {
		t.Fatalf("2→1 took %v; reverse direction must not inherit the delay", e)
	}

	net.SetLinkDelay(1, 2, 0) // removal restores the fast path
	start = time.Now()
	if err := a.Send(2, []byte("quick")); err != nil {
		t.Fatalf("send: %v", err)
	}
	cb.wait(t, 1, time.Second)
	if e := time.Since(start); e > 20*time.Millisecond {
		t.Fatalf("1→2 still slow (%v) after delay removal", e)
	}
}

func TestLinkLossSeeded(t *testing.T) {
	run := func() (delivered int) {
		net := New(WithSeed(99))
		defer net.Close()
		a, b := net.Node(1), net.Node(2)
		newCollector(a)
		cb := newCollector(b)
		net.SetLinkLoss(1, 2, 0.5)
		const n = 200
		for i := 0; i < n; i++ {
			if err := a.Send(2, []byte{byte(i)}); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		want := n - int(net.Stats().Dropped)
		cb.wait(t, want, 2*time.Second)
		return want
	}
	d1, d2 := run(), run()
	if d1 != d2 {
		t.Fatalf("same seed delivered %d vs %d messages", d1, d2)
	}
	if d1 == 0 || d1 == 200 {
		t.Fatalf("loss at p=0.5 delivered %d/200; injection not engaging", d1)
	}
}

func TestPartitionGroups(t *testing.T) {
	net := New()
	defer net.Close()
	a, b, c := net.Node(1), net.Node(2), net.Node(3)
	newCollector(a)
	cb := newCollector(b)
	cc := newCollector(c)

	net.Partition([]transport.NodeID{1}, []transport.NodeID{2})
	if err := a.Send(2, []byte("blocked")); err != nil {
		t.Fatalf("send: %v", err)
	}
	// Node 3 is unlisted: it must still reach both sides.
	if err := a.Send(3, []byte("open")); err != nil {
		t.Fatalf("send: %v", err)
	}
	cc.wait(t, 1, time.Second)
	time.Sleep(10 * time.Millisecond)
	if got := len(cb.snapshot()); got != 0 {
		t.Fatalf("partition leaked %d messages to node 2", got)
	}

	net.HealPartition()
	if err := a.Send(2, []byte("after-heal")); err != nil {
		t.Fatalf("send: %v", err)
	}
	cb.wait(t, 1, time.Second)
}

// TestZeroLatencyFIFO: messages due at the same instant leave the queue
// in arrival order, so a sender's zero-latency messages keep send order.
func TestZeroLatencyFIFO(t *testing.T) {
	net := New()
	defer net.Close()
	a, b := net.Node(1), net.Node(2)
	cb := newCollector(b)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := a.Send(2, []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	cb.wait(t, n, 5*time.Second)
	for i, m := range cb.snapshot() {
		if m != fmt.Sprint(i) {
			t.Fatalf("message %d is %q: send order lost", i, m)
		}
	}
}

// TestShorterDelayOvertakes: delivery follows due time, not send order,
// so a later message drawn a shorter delay arrives first — the
// reordering latency jitter produces.
func TestShorterDelayOvertakes(t *testing.T) {
	var calls atomic.Int32
	slowThenFast := func(_, _ transport.NodeID, _ float64) time.Duration {
		if calls.Add(1) == 1 {
			return 60 * time.Millisecond
		}
		return time.Millisecond
	}
	net := New(WithLatency(slowThenFast))
	defer net.Close()
	a, b := net.Node(1), net.Node(2)
	cb := newCollector(b)
	for _, m := range []string{"early-slow", "late-fast"} {
		if err := a.Send(2, []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	cb.wait(t, 2, time.Second)
	if got := cb.snapshot(); got[0] != "late-fast" || got[1] != "early-slow" {
		t.Fatalf("delivery order %v, want the shorter delay first", got)
	}
}

// TestCloseDropsPending: Network.Close drops the messages still queued —
// none is delivered — and every dispatch goroutine exits.
func TestCloseDropsPending(t *testing.T) {
	net := New(WithLatency(Fixed(50 * time.Millisecond)))
	a, b := net.Node(1), net.Node(2)
	var delivered atomic.Int32
	b.SetHandler(func(transport.NodeID, []byte) { delivered.Add(1) })
	for i := 0; i < 100; i++ {
		if err := a.Send(2, []byte("pending")); err != nil {
			t.Fatal(err)
		}
	}
	net.Close()
	exited := make(chan struct{})
	go func() {
		net.dispatchers.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("dispatch goroutines still running after Close")
	}
	if n := delivered.Load(); n != 0 {
		t.Fatalf("%d pending messages delivered after Close", n)
	}
	if err := a.Send(2, []byte("late")); err == nil {
		t.Fatal("send on a closed network succeeded")
	}
}

// TestIdleEndpointFootprint: an endpoint that has delivered its traffic
// holds no queue storage — its heap cost is a few hundred bytes of
// bookkeeping, not a preallocated inbox. (Its dispatch goroutine's stack
// is logged, not bounded: it is the runtime's minimum stack.)
func TestIdleEndpointFootprint(t *testing.T) {
	const n, limit = 1000, 4 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	net := New()
	defer net.Close()
	got := make(chan struct{}, n)
	h := func(transport.NodeID, []byte) { got <- struct{}{} }
	for i := 0; i < n; i++ {
		ep := net.Node(transport.NodeID(i))
		ep.SetHandler(h)
		if err := ep.Send(transport.NodeID(i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		<-got
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEndpoint := func(a, b uint64) int64 { return (int64(a) - int64(b)) / n }
	heap := perEndpoint(after.HeapAlloc, before.HeapAlloc)
	stack := perEndpoint(after.StackInuse, before.StackInuse)
	t.Logf("idle endpoint: %d B heap, %d B stack", heap, stack)
	if heap > limit {
		t.Fatalf("idle endpoint holds %d B of heap, want <= %d", heap, limit)
	}
}

// TestDeliveryAllocs: delivering a message allocates only the payload
// copy — no timer, goroutine or closure per message.
func TestDeliveryAllocs(t *testing.T) {
	for _, lat := range []time.Duration{0, 50 * time.Microsecond} {
		net := New(WithLatency(Fixed(lat)))
		a, b := net.Node(1), net.Node(2)
		got := make(chan struct{}, 1)
		b.SetHandler(func(transport.NodeID, []byte) { got <- struct{}{} })
		payload := []byte("payload")
		allocs := testing.AllocsPerRun(200, func() {
			if err := a.Send(2, payload); err != nil {
				t.Fatal(err)
			}
			<-got
		})
		net.Close()
		if allocs > 1 {
			t.Errorf("latency %v: %.1f allocations per delivered message, want <= 1", lat, allocs)
		}
	}
}

// TestZeroDelayBackpressure: a Send due at once waits while its
// destination holds backlogCap envelopes, so a zero-latency flood runs at
// the receiver's pace; it resumes, in order, as the receiver drains, and
// Close releases a Send still waiting. Delayed sends never wait.
func TestZeroDelayBackpressure(t *testing.T) {
	net := New()
	defer net.Close()
	a, b := net.Node(1), net.Node(2)
	dst := b.(*node)
	release := make(chan struct{})
	var delivered atomic.Int32
	var order []byte
	b.SetHandler(func(_ transport.NodeID, p []byte) {
		<-release
		order = append(order, p[0])
		delivered.Add(1)
	})
	const total = backlogCap + 10
	var sent atomic.Int32
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		for i := 0; i < total; i++ {
			if err := a.Send(2, []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
			sent.Add(1)
		}
	}()
	// The handler holds one message; the queue fills up behind it and
	// the flooder waits for a turn.
	waitFor(t, func() bool {
		dst.mu.Lock()
		defer dst.mu.Unlock()
		return len(dst.queue) == backlogCap && dst.serving != dst.ticket
	})
	if n := sent.Load(); n != backlogCap+1 {
		t.Fatalf("%d sends completed against a stalled receiver, want %d", n, backlogCap+1)
	}
	close(release)
	<-flooded
	waitFor(t, func() bool { return delivered.Load() == total })
	for i, p := range order {
		if p != byte(i) {
			t.Fatalf("message %d arrived as %d: order lost under backpressure", i, p)
		}
	}

	// Close releases a Send waiting for room.
	stalled := New()
	c, d := stalled.Node(1), stalled.Node(2)
	hold := make(chan struct{})
	defer close(hold)
	d.SetHandler(func(transport.NodeID, []byte) { <-hold })
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < backlogCap+2; i++ {
			_ = c.Send(2, []byte("x"))
		}
	}()
	waitFor(t, func() bool {
		dn := d.(*node)
		dn.mu.Lock()
		defer dn.mu.Unlock()
		return dn.serving != dn.ticket
	})
	stalled.Close()
	<-done

	// Delayed messages queue without limit and never block the sender.
	slow := New(WithLatency(Fixed(time.Hour)))
	defer slow.Close()
	e := slow.Node(1)
	slow.Node(2)
	for i := 0; i < backlogCap+10; i++ {
		if err := e.Send(2, []byte("later")); err != nil {
			t.Fatal(err)
		}
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkDelivery: a 4-endpoint all-to-all exchange under WAN jitter,
// every message delayed — the send, queue and dispatch cost per message.
func BenchmarkDelivery(b *testing.B) {
	net := New(WithLatency(Uniform(100*time.Microsecond, time.Millisecond)))
	defer net.Close()
	const nodes = 4
	var delivered sync.WaitGroup
	eps := make([]transport.Endpoint, nodes)
	for i := range eps {
		eps[i] = net.Node(transport.NodeID(i))
		eps[i].SetHandler(func(transport.NodeID, []byte) { delivered.Done() })
	}
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	delivered.Add(b.N)
	for i := 0; i < b.N; i++ {
		from, to := i%nodes, (i/nodes)%nodes
		if err := eps[from].Send(transport.NodeID(to), payload); err != nil {
			b.Fatal(err)
		}
	}
	delivered.Wait()
}
