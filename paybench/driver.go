package main

// The load generator and its bookkeeping. One goroutine (the caller of
// openLoop/closedLoop) issues every payment; one drain goroutine per
// client empties that client's confirmation channel. A payment's
// latency runs from its intended send time to the arrival of a
// confirmation covering it, so a generator stall counts against every
// payment it delays.

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"astro/internal/types"
)

// phase tags the part of a run a payment belongs to.
type phase uint8

const (
	phaseWarm phase = iota
	phaseOpen
	phaseClosed
	numPhases
)

// payment is one issued payment and what became of it. Times are
// nanoseconds since the run's base instant; confirmed is 0 until a
// confirmation covers the payment.
type payment struct {
	intended  int64
	sent      int64
	returned  int64
	confirmed int64
	ben       types.ClientID
	amount    types.Amount
	phase     phase
	payErr    bool
}

// account is one client's payments, indexed by sequence number − 1, and
// its confirmation watermark: seqs 1..conf are confirmed.
type account struct {
	mu   sync.Mutex
	pays []payment
	conf int
}

// tracker holds every client's payments. Confirmations are cumulative:
// a confirmation of seq s confirms every earlier seq of the client, as
// core.Client.WaitConfirm assumes.
type tracker struct {
	// now is the current time in nanoseconds since the run's base
	// instant.
	now   func() int64
	accts map[types.ClientID]*account

	// closedInflight counts closed-loop payments not yet confirmed; wake
	// is signalled (never blocking) whenever it drops.
	closedInflight atomic.Int64
	wake           chan struct{}

	// onConfirm, when set, runs with each newly confirmed payment while
	// the account lock is held (the traced run records spans with it).
	onConfirm func(c types.ClientID, seq int, p *payment)
}

func newTracker(base time.Time, clients []types.ClientID) *tracker {
	t := &tracker{
		now:   func() int64 { return int64(time.Since(base)) },
		accts: make(map[types.ClientID]*account, len(clients)),
		wake:  make(chan struct{}, 1),
	}
	for _, c := range clients {
		t.accts[c] = &account{}
	}
	return t
}

// begin records a payment about to be submitted and returns its
// expected sequence number. It must precede the Pay call, so that a
// confirmation racing Pay's return always finds the record.
func (t *tracker) begin(c types.ClientID, p payment) int {
	a := t.accts[c]
	a.mu.Lock()
	a.pays = append(a.pays, p)
	seq := len(a.pays)
	a.mu.Unlock()
	if p.phase == phaseClosed {
		t.closedInflight.Add(1)
	}
	return seq
}

// finish records Pay's return. A failed Pay consumed its sequence
// number, so the payment stays unconfirmed and counts as failed.
func (t *tracker) finish(c types.ClientID, seq int, returned int64, failed bool) {
	a := t.accts[c]
	a.mu.Lock()
	p := &a.pays[seq-1]
	p.returned = returned
	p.payErr = failed
	a.mu.Unlock()
}

// confirm applies a confirmation of seq at time at and returns how many
// payments it newly confirmed.
func (t *tracker) confirm(c types.ClientID, seq types.Seq, at int64) int {
	a, ok := t.accts[c]
	if !ok {
		return 0
	}
	a.mu.Lock()
	hi := min(int(seq), len(a.pays))
	closed := 0
	n := 0
	for i := a.conf; i < hi; i++ {
		p := &a.pays[i]
		p.confirmed = at
		if p.phase == phaseClosed {
			closed++
		}
		if t.onConfirm != nil {
			t.onConfirm(c, i+1, p)
		}
		n++
	}
	if hi > a.conf {
		a.conf = hi
	}
	a.mu.Unlock()
	if closed > 0 {
		t.closedInflight.Add(int64(-closed))
		select {
		case t.wake <- struct{}{}:
		default:
		}
	}
	return n
}

// unconfirmed counts payments not yet confirmed (failed Pay calls
// included).
func (t *tracker) unconfirmed() int {
	n := 0
	for _, a := range t.accts {
		a.mu.Lock()
		n += len(a.pays) - a.conf
		a.mu.Unlock()
	}
	return n
}

// drain empties one client's confirmation stream into the tracker until
// stop closes. The client's channel drops confirmations when full, so
// it must be read continuously, not only when a phase ends.
func (t *tracker) drain(c types.ClientID, confirms <-chan types.PaymentID, stop <-chan struct{}) {
	for {
		select {
		case id := <-confirms:
			if id.Spender == c {
				t.confirm(c, id.Seq, t.now())
			}
		case <-stop:
			return
		}
	}
}

// payer is the part of core.Client the generator drives.
type payer interface {
	Pay(b types.ClientID, x types.Amount) (types.PaymentID, error)
}

// inputs draws the payment stream from the workload seed: spender,
// beneficiary and amount. The draws do not depend on timing, so a seed
// always yields the same sequence of payments.
type inputs struct {
	rng     *rand.Rand
	clients []types.ClientID
}

func newInputs(seed uint64, clients []types.ClientID) *inputs {
	return &inputs{rng: rand.New(rand.NewPCG(seed, 0x61737472)), clients: clients}
}

// next returns a spender, a different beneficiary, and an amount in
// [1, 100].
func (in *inputs) next() (sp, ben types.ClientID, amt types.Amount) {
	n := len(in.clients)
	i := in.rng.IntN(n)
	j := in.rng.IntN(n - 1)
	if j >= i {
		j++
	}
	return in.clients[i], in.clients[j], types.Amount(1 + in.rng.IntN(100))
}

// generator issues payments from a single goroutine.
type generator struct {
	tr     *tracker
	in     *inputs
	payers map[types.ClientID]payer
	sleep  func(time.Duration)
	// onPay, when set, runs after each Pay on the generator goroutine.
	onPay func(c types.ClientID, seq int)
}

func (g *generator) pay(ph phase, intended int64, sp, ben types.ClientID, amt types.Amount) {
	sent := g.tr.now()
	seq := g.tr.begin(sp, payment{intended: intended, sent: sent, ben: ben, amount: amt, phase: ph})
	id, err := g.payers[sp].Pay(ben, amt)
	failed := err != nil || int(id.Seq) != seq
	g.tr.finish(sp, seq, g.tr.now(), failed)
	if g.onPay != nil {
		g.onPay(sp, seq)
	}
}

// openLoop issues payments at rate per second from start (ns since base)
// for dur, each due at start + i/rate regardless of how earlier ones
// fared. A draw for which skip reports true is dropped, not deferred.
// It returns the number of scheduled slots.
func (g *generator) openLoop(ph phase, start int64, dur time.Duration, rate float64, skip func(due int64, sp types.ClientID) bool) int {
	interval := float64(time.Second) / rate
	n := int(float64(dur) / interval)
	for i := 0; i < n; i++ {
		due := start + int64(float64(i)*interval)
		if wait := due - g.tr.now(); wait > 0 {
			g.sleep(time.Duration(wait))
		}
		sp, ben, amt := g.in.next()
		if skip != nil && skip(due, sp) {
			continue
		}
		g.pay(ph, due, sp, ben, amt)
	}
	return n
}

// closedLoop keeps outstanding payments in flight until end (ns since
// base): a new payment goes out as soon as a confirmation frees a slot.
// Its intended time is the moment the slot was free.
func (g *generator) closedLoop(end int64, outstanding int) {
	for {
		now := g.tr.now()
		if now >= end {
			return
		}
		if g.tr.closedInflight.Load() >= int64(outstanding) {
			select {
			case <-g.tr.wake:
			case <-time.After(5 * time.Millisecond):
			}
			continue
		}
		sp, ben, amt := g.in.next()
		g.pay(phaseClosed, now, sp, ben, amt)
	}
}

// phaseStats is the outcome of one phase's payments.
type phaseStats struct {
	attempted int
	failed    int
	latency   []float64 // intended → confirmed, ms, confirmed payments only
	late      []float64 // intended → sent, ms
	payCall   []float64 // Pay call, µs
	confirm   []float64 // Pay return → confirmed, ms
	// perWindow counts the payments confirmed in each window.
	perWindow []float64
	// latencyWin holds, per window, the latencies of the confirmed
	// payments that were due in it.
	latencyWin [][]float64
}

// windows are n consecutive intervals of width ns starting at from.
type windows struct {
	from, width int64
	n           int
}

// index returns the window that holds instant t, if any.
func (w windows) index(t int64) (int, bool) {
	if t < w.from {
		return 0, false
	}
	k := (t - w.from) / max(w.width, 1)
	return int(k), k < int64(w.n)
}

// spanWindows cuts the interval of length dur from start into windows of
// about width each, and at least one.
func spanWindows(start int64, dur, width time.Duration) windows {
	n := max(int(dur/width), 1)
	return windows{from: start, width: int64(dur) / int64(n), n: n}
}

// collect summarises the payments of one phase. A payment unconfirmed at
// deadline (ns since base), or whose Pay failed, counts as failed.
func (t *tracker) collect(ph phase, deadline int64, win windows) phaseStats {
	s := phaseStats{perWindow: make([]float64, win.n), latencyWin: make([][]float64, win.n)}
	for _, a := range t.accts {
		a.mu.Lock()
		for i := range a.pays {
			p := &a.pays[i]
			if p.phase != ph {
				continue
			}
			s.attempted++
			s.late = append(s.late, ms(p.sent-p.intended))
			if !p.payErr {
				s.payCall = append(s.payCall, float64(p.returned-p.sent)/1e3)
			}
			if p.payErr || p.confirmed == 0 || p.confirmed > deadline {
				s.failed++
				continue
			}
			lat := ms(p.confirmed - p.intended)
			s.latency = append(s.latency, lat)
			s.confirm = append(s.confirm, ms(p.confirmed-p.returned))
			if k, ok := win.index(p.intended); ok {
				s.latencyWin[k] = append(s.latencyWin[k], lat)
			}
			if k, ok := win.index(p.confirmed); ok {
				s.perWindow[k]++
			}
		}
		a.mu.Unlock()
	}
	return s
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// quantile returns the exact q-quantile of xs (0 ≤ q ≤ 1) by linear
// interpolation between the two nearest ranks. It sorts xs in place and
// returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[hi]-xs[lo])
}

// windowedQuantile returns the mean, over the windows that hold samples,
// of each window's q-quantile. A stall weighs in by the windows it
// spans: a periodic one (a garbage collection every few seconds, say)
// counts in every run by its share of the time, not by whether it lands
// among the phase's slowest 1% of samples, and a burst of CPU taken by
// other machines on a shared host moves only the windows it covers.
func windowedQuantile(win [][]float64, q float64) float64 {
	sum, n := 0.0, 0
	for _, xs := range win {
		if len(xs) > 0 {
			sum += quantile(xs, q)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
