package main

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"astro/internal/types"
)

// fakeClock is a manual clock shared by a tracker, the generator's sleep
// and a fake payer.
type fakeClock struct {
	mu sync.Mutex
	t  int64
}

func (c *fakeClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t += int64(d)
	c.mu.Unlock()
}

// fakeNet stands in for the deployment: a payment call takes no time
// unless the call's index (across all clients) is in stall, and fails
// if it is in fail.
type fakeNet struct {
	clock *fakeClock
	calls int
	stall map[int]time.Duration
	fail  map[int]bool
}

// fakePayer numbers one client's payments like core.Client.
type fakePayer struct {
	id  types.ClientID
	net *fakeNet
	seq types.Seq
}

func (p *fakePayer) Pay(types.ClientID, types.Amount) (types.PaymentID, error) {
	i := p.net.calls
	p.net.calls++
	p.seq++
	p.net.clock.advance(p.net.stall[i])
	if p.net.fail[i] {
		return types.PaymentID{}, errors.New("send failed")
	}
	return types.PaymentID{Spender: p.id, Seq: p.seq}, nil
}

func newFakeTracker(clock *fakeClock, clients ...types.ClientID) *tracker {
	tr := newTracker(time.Now(), clients)
	tr.now = clock.now
	return tr
}

func TestQuantileExact(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 50.5}, {0.99, 99.01}, {1, 100}, {0.25, 25.75},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

// A stall in one Pay call makes the payments due during it late, and
// their latency is still measured from the intended send time.
func TestOpenLoopLatenessAccounting(t *testing.T) {
	clock := &fakeClock{}
	clients := []types.ClientID{1, 2, 3}
	tr := newFakeTracker(clock, clients...)
	net := &fakeNet{clock: clock, stall: map[int]time.Duration{2: 5 * time.Millisecond}}
	payers := make(map[types.ClientID]payer)
	for _, c := range clients {
		payers[c] = &fakePayer{id: c, net: net}
	}
	g := &generator{tr: tr, in: newInputs(1, clients), payers: payers, sleep: clock.advance}
	if n := g.openLoop(phaseOpen, 0, 10*time.Millisecond, 1000, nil); n != 10 || net.calls != 10 {
		t.Fatalf("scheduled %d slots and issued %d payments, want 10 and 10", n, net.calls)
	}
	clock.advance(100 * time.Millisecond)
	for _, c := range clients {
		tr.confirm(c, payers[c].(*fakePayer).seq, clock.now())
	}

	// Payment i was due at i ms. The third call (due at 2 ms) took 5 ms,
	// so the payments due at 3..6 ms went out at 7 ms.
	var all []payment
	for _, c := range clients {
		all = append(all, tr.accts[c].pays...)
	}
	slices.SortFunc(all, func(a, b payment) int { return int(a.intended - b.intended) })
	for i, p := range all {
		if p.intended != int64(i)*int64(time.Millisecond) {
			t.Fatalf("payment %d intended at %v, want %d ms", i, time.Duration(p.intended), i)
		}
		wantLate := time.Duration(0)
		if i >= 3 && i <= 6 {
			wantLate = time.Duration(7-i) * time.Millisecond
		}
		if late := time.Duration(p.sent - p.intended); late != wantLate {
			t.Errorf("payment %d sent %v late, want %v", i, late, wantLate)
		}
	}
	s := tr.collect(phaseOpen, clock.now(), windows{})
	if s.attempted != 10 || s.failed != 0 || len(s.latency) != 10 {
		t.Fatalf("attempted %d failed %d samples %d, want 10/0/10", s.attempted, s.failed, len(s.latency))
	}
	if got := maxOf(s.late); got != 4 {
		t.Errorf("max lateness %v ms, want 4", got)
	}
	// The last payment was due at 9 ms and every confirmation arrived
	// 100 ms later, so the payment due at 0 ms waited 109 ms.
	if got := maxOf(s.latency); got != 109 {
		t.Errorf("max latency %v ms, want 109", got)
	}
}

// A confirmation of seq s confirms every earlier seq of the client; a
// stale or duplicate one changes nothing.
func TestCumulativeConfirmation(t *testing.T) {
	clock := &fakeClock{}
	const c = types.ClientID(3)
	tr := newFakeTracker(clock, c)
	for i := 0; i < 5; i++ {
		seq := tr.begin(c, payment{phase: phaseClosed})
		tr.finish(c, seq, 0, false)
	}
	if got := tr.closedInflight.Load(); got != 5 {
		t.Fatalf("closed-loop in flight %d, want 5", got)
	}
	steps := []struct {
		seq       types.Seq
		newly     int
		remaining int
	}{
		{3, 3, 2}, {2, 0, 2}, {3, 0, 2}, {9, 2, 0},
	}
	for _, s := range steps {
		clock.advance(time.Millisecond)
		if got := tr.confirm(c, s.seq, clock.now()); got != s.newly {
			t.Errorf("confirm(%d) confirmed %d, want %d", s.seq, got, s.newly)
		}
		if got := tr.unconfirmed(); got != s.remaining {
			t.Errorf("after confirm(%d): %d unconfirmed, want %d", s.seq, got, s.remaining)
		}
	}
	if got := tr.closedInflight.Load(); got != 0 {
		t.Errorf("closed-loop in flight %d after all confirmed, want 0", got)
	}
	a := tr.accts[c]
	if a.pays[0].confirmed != a.pays[2].confirmed || a.pays[3].confirmed == a.pays[2].confirmed {
		t.Errorf("confirmation times %v: seqs 1-3 should share one, 4-5 a later one", a.pays)
	}
	if got := tr.confirm(99, 1, clock.now()); got != 0 {
		t.Errorf("confirmation for an unknown client confirmed %d payments", got)
	}
}

// A payment whose confirmation never comes, comes after the phase
// deadline, or whose Pay failed counts as failed.
func TestFailureCounting(t *testing.T) {
	clock := &fakeClock{}
	a, b, c := types.ClientID(1), types.ClientID(2), types.ClientID(3)
	tr := newFakeTracker(clock, a, b, c)
	issue := func(cl types.ClientID, failed bool) {
		seq := tr.begin(cl, payment{phase: phaseOpen, intended: clock.now(), sent: clock.now()})
		tr.finish(cl, seq, clock.now(), failed)
	}
	for i := 0; i < 3; i++ {
		issue(a, false)
		issue(b, false)
	}
	issue(c, true)
	deadline := int64(50 * time.Millisecond)
	clock.advance(10 * time.Millisecond)
	tr.confirm(a, 3, clock.now()) // in time
	clock.advance(100 * time.Millisecond)
	tr.confirm(b, 1, clock.now()) // late; seqs 2-3 withheld
	s := tr.collect(phaseOpen, deadline, windows{})
	if s.attempted != 7 {
		t.Fatalf("attempted %d, want 7", s.attempted)
	}
	if s.failed != 4 {
		t.Errorf("failed %d, want 4 (3 of client 2, 1 failed Pay)", s.failed)
	}
	if len(s.latency) != 3 || slices.Max(s.latency) != 10 {
		t.Errorf("latency samples %v, want three of 10 ms", s.latency)
	}
	if got := tr.collect(phaseClosed, deadline, windows{}); got.attempted != 0 {
		t.Errorf("closed phase attempted %d, want 0", got.attempted)
	}
}

// Goodput windows count confirmations by the window they land in.
func TestCollectWindows(t *testing.T) {
	clock := &fakeClock{}
	const c = types.ClientID(1)
	tr := newFakeTracker(clock, c)
	for i := 0; i < 6; i++ {
		tr.finish(c, tr.begin(c, payment{phase: phaseClosed}), 0, false)
	}
	for i, at := range []time.Duration{5, 15, 16, 25, 26, 40} {
		tr.confirm(c, types.Seq(i+1), int64(at*time.Millisecond))
	}
	s := tr.collect(phaseClosed, int64(time.Second), windows{from: int64(10 * time.Millisecond), width: int64(10 * time.Millisecond), n: 2})
	if want := []float64{2, 2}; !slices.Equal(s.perWindow, want) {
		t.Errorf("per-window counts %v, want %v", s.perWindow, want)
	}
}

// Open-loop latencies are grouped by the window their payment was due
// in, and the windowed quantile is the mean of the windows' quantiles,
// so a slow window counts by its share of the windows.
func TestLatencyWindows(t *testing.T) {
	clock := &fakeClock{}
	const c = types.ClientID(1)
	tr := newFakeTracker(clock, c)
	// Three windows of 10 ms; the middle one is slow.
	for i, due := range []time.Duration{1, 2, 3, 11, 12, 13, 21, 22, 23, 35} {
		seq := tr.begin(c, payment{phase: phaseOpen, intended: int64(due * time.Millisecond)})
		tr.finish(c, seq, 0, false)
		lat := 5 * time.Millisecond
		if due > 10 && due < 20 {
			lat = 100 * time.Millisecond
		}
		tr.confirm(c, types.Seq(i+1), int64((due*time.Millisecond)+lat))
	}
	win := spanWindows(0, 30*time.Millisecond, 10*time.Millisecond)
	s := tr.collect(phaseOpen, int64(time.Second), win)
	for k, want := range []int{3, 3, 3} {
		if got := len(s.latencyWin[k]); got != want {
			t.Errorf("window %d holds %d samples, want %d", k, got, want)
		}
	}
	if got, want := windowedQuantile(s.latencyWin, 0.99), (5+100+5)/3.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("windowed p99 %v ms, want %v, the mean of 5, 100 and 5", got, want)
	}
	if got := windowedQuantile(make([][]float64, 2), 0.99); got != 0 {
		t.Errorf("windowed p99 of empty windows %v, want 0", got)
	}
	if got := quantile(s.latency, 0.99); got < 99 {
		t.Errorf("whole-phase p99 %v ms, want the slow window's 100", got)
	}
	if w := spanWindows(0, 500*time.Millisecond, 2*time.Second); w.n != 1 || w.width != int64(500*time.Millisecond) {
		t.Errorf("short span cut into %d windows of %v, want one of 500ms", w.n, time.Duration(w.width))
	}
}

// The tracker is written by the generator and read by drain goroutines
// at once; run with -race.
func TestTrackerConcurrentConfirm(t *testing.T) {
	const n = 2000
	clients := []types.ClientID{1, 2, 3, 4}
	tr := newTracker(time.Now(), clients)
	confirms := make(map[types.ClientID]chan types.PaymentID)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range clients {
		ch := make(chan types.PaymentID, 16)
		confirms[c] = ch
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.drain(c, ch, stop)
		}()
	}
	for i := 0; i < n; i++ {
		c := clients[i%len(clients)]
		seq := tr.begin(c, payment{phase: phaseClosed, intended: tr.now(), sent: tr.now()})
		tr.finish(c, seq, tr.now(), false)
		confirms[c] <- types.PaymentID{Spender: c, Seq: types.Seq(seq)}
	}
	for tr.unconfirmed() > 0 {
		select {
		case <-tr.wake:
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()
	if got := tr.closedInflight.Load(); got != 0 {
		t.Errorf("closed-loop in flight %d, want 0", got)
	}
}

func TestMatchPrefix(t *testing.T) {
	const c = types.ClientID(4)
	sent := []payment{{ben: 1, amount: 5}, {ben: 2, amount: 6}, {ben: 3, amount: 7}}
	xlog := []types.Payment{
		{Spender: c, Seq: 1, Beneficiary: 1, Amount: 5},
		{Spender: c, Seq: 2, Beneficiary: 2, Amount: 6},
	}
	if n, err := matchPrefix(c, sent, xlog); n != 2 || err != nil {
		t.Errorf("matchPrefix = %d, %v; want 2, nil", n, err)
	}
	xlog[1].Amount = 60
	if n, err := matchPrefix(c, sent, xlog); n != 1 || err == nil {
		t.Errorf("altered payment: matchPrefix = %d, %v; want 1 and an error", n, err)
	}
	xlog[1].Amount = 6
	xlog = append(xlog, sent2Payment(c, 3, sent[2]), types.Payment{Spender: c, Seq: 4, Beneficiary: 1, Amount: 1})
	if n, err := matchPrefix(c, sent, xlog); n != 3 || err == nil {
		t.Errorf("unissued payment: matchPrefix = %d, %v; want 3 and an error", n, err)
	}
}

func sent2Payment(c types.ClientID, seq types.Seq, p payment) types.Payment {
	return types.Payment{Spender: c, Seq: seq, Beneficiary: p.ben, Amount: p.amount}
}

func TestSelfTime(t *testing.T) {
	tr := newTracker(time.Now(), nil)
	tc := newTraceRecorder(tr)
	root := tc.span("root", 0, 0, 100)
	tc.span("a", root, 10, 40)
	tc.span("b", root, 30, 60) // overlaps a
	tc.span("c", root, 90, 120)
	self := tc.selfTimes()
	// root: 100 − (10..60 and 90..100 covered = 60) = 40 ns.
	if got, want := self["root"], ms(40); math.Abs(got-want) > 1e-12 {
		t.Errorf("root self time %v ms, want %v", got, want)
	}
	if got, want := self["c"], ms(30); math.Abs(got-want) > 1e-12 {
		t.Errorf("leaf self time %v ms, want %v", got, want)
	}
}
