package main

// Tracing for the traced run. Spans cover the benchmark's own calls
// into the system: each open-loop payment gets a root span (intended
// send → confirmation) with three children — waiting for its slot in
// the schedule, the Client.Pay call, and the wait for confirmation —
// all sharing the payment's trace ID. Kill, Restart and every probe
// call are spans too. Spans stay in memory and are written when the run
// ends.
//
// Tracing is on for alternate windows of the open-loop phase, so the
// same run measures CPU per payment with and without it: the difference
// is the tracing overhead.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"astro/internal/types"
)

// traceWindow is the length of one tracing-on or tracing-off window.
const traceWindow = 500 * time.Millisecond

// span is one timed interval. Times are ns since the run's base instant.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names on a payment's path whose self time is reported. The root
// "payment" span is left out: its children cover it.
var paymentSpans = []string{"driver.schedule", "core.Client.Pay", "core.confirm_wait"}

type traceRecorder struct {
	tr      *tracker
	enabled atomic.Bool // inside the open-loop phase
	nextID  atomic.Uint64

	mu    sync.Mutex
	spans []span

	// CPU accounting per window, kept by the generator goroutine.
	winStart int64 // start of the current window; -1 before the first payment
	winCPU   time.Duration
	winPays  int
	cpu      [2]time.Duration // [off, on]
	pays     [2]int
}

func newTraceRecorder(tr *tracker) *traceRecorder {
	t := &traceRecorder{tr: tr, winStart: -1}
	t.nextID.Store(1 << 62) // above every payment span ID
	tr.onConfirm = t.onConfirm
	return t
}

// payID returns the span ID of a payment's root span; child k is ID+k.
func payID(c types.ClientID, seq int) uint64 { return uint64(c)<<40 | uint64(seq)<<2 }

func payTrace(c types.ClientID, seq int) string { return fmt.Sprintf("pay-%d-%d", c, seq) }

// on reports whether tracing covers a payment intended at t.
func (t *traceRecorder) on(intended int64) bool {
	return t.enabled.Load() && (intended/int64(traceWindow))%2 == 0
}

func (t *traceRecorder) add(s ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// onPay runs on the generator goroutine after each Pay.
func (t *traceRecorder) onPay(c types.ClientID, seq int) {
	a := t.tr.accts[c]
	a.mu.Lock()
	p := a.pays[seq-1]
	a.mu.Unlock()
	if p.phase == phaseOpen {
		t.windowAccount(p.intended)
	}
	if !t.on(p.intended) || p.phase != phaseOpen {
		return
	}
	id, trace := payID(c, seq), payTrace(c, seq)
	t.add(
		span{ID: id + 1, Parent: id, Trace: trace, Name: "driver.schedule", Start: p.intended, End: p.sent},
		span{ID: id + 2, Parent: id, Trace: trace, Name: "core.Client.Pay", Start: p.sent, End: p.returned},
	)
}

// windowAccount charges process CPU to tracing-on and tracing-off
// windows of the open-loop phase, by the payments' intended times.
func (t *traceRecorder) windowAccount(intended int64) {
	w := intended - intended%int64(traceWindow)
	if w == t.winStart {
		t.winPays++
		return
	}
	now := processCPU()
	if t.winStart >= 0 {
		k := 0
		if (t.winStart/int64(traceWindow))%2 == 0 {
			k = 1
		}
		t.cpu[k] += now - t.winCPU
		t.pays[k] += t.winPays
	}
	t.winStart, t.winCPU, t.winPays = w, now, 1
}

// onConfirm runs on a drain goroutine, under the payment's account lock.
func (t *traceRecorder) onConfirm(c types.ClientID, seq int, p *payment) {
	if p.phase != phaseOpen || !t.on(p.intended) {
		return
	}
	id, trace := payID(c, seq), payTrace(c, seq)
	from := p.returned
	if from == 0 { // confirmed before Pay's return was recorded
		from = p.sent
	}
	t.add(
		span{ID: id, Trace: trace, Name: "payment", Start: p.intended, End: p.confirmed},
		span{ID: id + 3, Parent: id, Trace: trace, Name: "core.confirm_wait", Start: from, End: p.confirmed},
	)
}

// span records a span outside the payment path and returns its ID. It
// is a no-op on a nil recorder, so untraced runs can call it freely.
func (t *traceRecorder) span(name string, parent uint64, start, end int64) uint64 {
	if t == nil {
		return 0
	}
	id := t.nextID.Add(1)
	t.add(span{ID: id, Parent: parent, Trace: "run", Name: name, Start: start, End: end})
	return id
}

// closeSpan sets the end of a span recorded with its start as end.
func (t *traceRecorder) closeSpan(id uint64, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			t.spans[i].End = end
			return
		}
	}
}

// selfTimes returns, per span name, the mean self time in ms: a span's
// duration minus the part of it its children cover.
func (t *traceRecorder) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	sum := make(map[string]float64)
	count := make(map[string]int)
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s.Start, s.End, children[s.ID])
		sum[s.Name] += ms(self)
		count[s.Name]++
	}
	out := make(map[string]float64, len(sum))
	for n, v := range sum {
		out[n] = v / float64(count[n])
	}
	return out
}

// covered returns how much of [from, to) the intervals cover.
func covered(from, to int64, ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total int64
	cur := from
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], to)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// report adds the tracing metrics: self time per payment-path span and
// CPU per payment with tracing on, and its excess over tracing off.
func (t *traceRecorder) report(put func(name string, v float64, unit string)) {
	self := t.selfTimes()
	for _, n := range paymentSpans {
		put("self_ms."+n, self[n], "ms")
	}
	perPay := func(k int) float64 {
		if t.pays[k] == 0 {
			return 0
		}
		return float64(t.cpu[k].Microseconds()) / float64(t.pays[k])
	}
	put("trace.cpu_us_per_pay", perPay(1), "us")
	put("trace.overhead_us_per_pay", perPay(1)-perPay(0), "us")
}

// write stores the spans as JSON lines: a header with the host record,
// one line per span, and a last line with the mean self time per name.
func (t *traceRecorder) write(path string, host hostRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"host": host}); err != nil {
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()
	if err := enc.Encode(map[string]any{"self_ms": t.selfTimes()}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
