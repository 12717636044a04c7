package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"astro/internal/core"
	"astro/internal/shard"
	"astro/internal/sim"
	"astro/internal/transport/memnet"
	"astro/internal/types"
)

// buildDir is the checkout-relative directory for everything a run
// leaves behind: replica data directories and trace files.
const buildDir = ".bench_build"

// genesis is every client's initial balance: ample, so no payment is
// ever refused for lack of funds.
const genesis types.Amount = 1 << 40

// deployment is one built cluster and its clients.
type deployment struct {
	c       *sim.AstroCluster
	clients map[types.ClientID]*core.Client
	ids     []types.ClientID
}

// deploy builds the workload's cluster and creates every client: the
// set-up a user pays before the first payment can be sent.
func deploy(w workload, seed uint64, dataDir string) (*deployment, error) {
	opts := sim.AstroOpts{
		Version:    core.AstroII,
		Topology:   shard.Topology{NumShards: w.shards, PerShard: 4},
		Latency:    memnet.EuropeWAN(),
		Bandwidth:  -1,
		Genesis:    genesis,
		RealCrypto: true,
		Seed:       seed,
		ClientAuth: w.clientAuth,
		BatchDelay: batchDelay,
	}
	if w.durable {
		opts.DataDir = dataDir
	}
	c, err := sim.NewAstroCluster(opts)
	if err != nil {
		return nil, err
	}
	d := &deployment{c: c, clients: make(map[types.ClientID]*core.Client, numClients)}
	for i := 1; i <= numClients; i++ {
		id := types.ClientID(i)
		d.ids = append(d.ids, id)
		d.clients[id] = c.Client(id)
	}
	return d, nil
}

// splitmix derives independent sub-seeds from the workload seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// setUp builds the deployment setupRounds times, each after collecting
// the previous one's garbage, and returns the last with the CPU time, in
// seconds, that each round took. Set-up runs before any traffic, so the
// process's CPU time over it is set-up work; unlike wall time, it leaves
// out the CPU time neighbouring machines take from a shared host.
func setUp(w workload, seed uint64, dataRoot string) (*deployment, []float64, error) {
	var times []float64
	var d *deployment
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			d.c.Close()
		}
		runtime.GC()
		start := processCPU()
		var err error
		d, err = deploy(w, seed, filepath.Join(dataRoot, fmt.Sprint(i)))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, (processCPU() - start).Seconds())
	}
	return d, times, nil
}

// outcome is what a run measured, before it is turned into metrics.
type outcome struct {
	setups        []float64
	stats         [numPhases]phaseStats
	goodputWin    windows
	before, after counters // around the open-loop phase
	heapPeak      uint64
	queueLatUs    float64
	fault         *faultInjector // nil unless the workload kills a replica
	gap           int
}

// execute performs one run: set-up, warm-up, the open-loop and
// closed-loop phases, quiescence, the correctness audit and, when
// traced, the layer probes.
func execute(w workload, seed uint64, run time.Duration, traced bool) (*result, error) {
	res := &result{host: newHostRecord(w, seed, run, traced), Metrics: map[string]metric{}}
	dataRoot := filepath.Join(buildDir, "data", fmt.Sprintf("run-%d", os.Getpid()))
	if w.durable {
		defer os.RemoveAll(dataRoot)
	}
	var o outcome
	d, setups, err := setUp(w, splitmix(seed)|1, dataRoot)
	if err != nil {
		return nil, err
	}
	defer d.c.Close()
	o.setups = setups

	tl := newTimeline(run)
	tr := newTracker(time.Now(), d.ids)
	var tc *traceRecorder
	if traced {
		tc = newTraceRecorder(tr)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for _, id := range d.ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.drain(id, d.clients[id].Confirmations(), stop)
		}()
	}
	smp := &sampler{c: d.c}
	wg.Add(1)
	go func() {
		defer wg.Done()
		smp.loop(stop)
	}()

	payers := make(map[types.ClientID]payer, len(d.clients))
	for id, cl := range d.clients {
		payers[id] = cl
	}
	gen := &generator{tr: tr, in: newInputs(seed, d.ids), payers: payers, sleep: time.Sleep}
	if tc != nil {
		gen.onPay = tc.onPay
	}

	// Schedule, in ns since the tracker's base instant.
	warmStart := int64(10 * time.Millisecond)
	gen.openLoop(phaseWarm, warmStart, tl.warm, w.rate, nil)

	// Start the measured phases from a fresh collection, as testing.B
	// does, so every run meets the same garbage-collection cycles.
	runtime.GC()
	openStart := tr.now() + int64(10*time.Millisecond)
	openEnd := openStart + int64(tl.open)
	closedEnd := openEnd + int64(tl.closed)

	// The sharded-durable fault: kill the victim a third into the open
	// loop, restart it killGap later. Its clients sit out from shortly
	// before the kill to the end of the open loop, since a client whose
	// representative is down has no failover; they pay again in the
	// closed loop.
	var skip func(due int64, sp types.ClientID) bool
	if w.killRestart {
		f := &faultInjector{c: d.c, tr: tr, tc: tc, killAt: openStart + int64(tl.open)/3, done: make(chan struct{})}
		f.restartAt = f.killAt + int64(min(killGap, tl.open/3))
		sitOutFrom := f.killAt - int64(500*time.Millisecond)
		skip = func(due int64, sp types.ClientID) bool {
			return due >= sitOutFrom && d.c.RepOf(sp) == victim
		}
		o.fault = f
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.run()
		}()
	}

	o.before = readCounters(d.c, counters{})
	smp.measure.Store(true)
	if tc != nil {
		tc.enabled.Store(true)
	}
	gen.openLoop(phaseOpen, openStart, tl.open, w.rate, skip)
	smp.measure.Store(false)
	var retired counters
	if o.fault != nil {
		o.fault.wait()
		retired = o.fault.retired
	}
	o.after = readCounters(d.c, retired)
	if tc != nil {
		tc.enabled.Store(false)
	}

	gen.closedLoop(closedEnd, w.outstanding)

	// Let every issued payment confirm (or time out), then let the
	// replicas settle what is still in flight among them.
	deadline := closedEnd + int64(grace)
	for tr.unconfirmed() > 0 && tr.now() < deadline {
		time.Sleep(20 * time.Millisecond)
	}
	quiesce(d.c, 10*time.Second)

	aud := audit(d, tr)
	res.Correct = aud.ok()
	res.notes = append(res.notes, aud.notes...)
	o.gap = aud.gap
	if o.fault != nil && o.fault.err != nil {
		res.Correct = false
		res.notes = append(res.notes, "restart: "+o.fault.err.Error())
	}

	// Outcome per phase. Goodput counts closed-loop payments confirmed
	// after the ramp.
	o.stats[phaseWarm] = tr.collect(phaseWarm, openStart+int64(grace), windows{})
	o.stats[phaseOpen] = tr.collect(phaseOpen, openEnd+int64(grace), spanWindows(openStart, tl.open, latencyWindow))
	o.goodputWin = windows{from: openEnd + int64(tl.ramp), width: int64(tl.closed-tl.ramp) / goodputWindows, n: goodputWindows}
	o.stats[phaseClosed] = tr.collect(phaseClosed, deadline, o.goodputWin)
	for _, s := range o.stats {
		res.Attempted += s.attempted
		res.Failed += s.failed
	}
	if open := o.stats[phaseOpen]; open.attempted == open.failed {
		return nil, errors.New("no confirmed open-loop payments to measure")
	}
	o.heapPeak = smp.heapPeak.Load()
	o.queueLatUs = smp.meanQueueLatency()

	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	if !traced {
		o.endToEnd(put)
		res.notes = append(res.notes, fmt.Sprintf("open-loop latency samples: %d; closed-loop payments: %d",
			len(o.stats[phaseOpen].latency), o.stats[phaseClosed].attempted))
		var perWin []string
		for _, xs := range o.stats[phaseOpen].latencyWin {
			perWin = append(perWin, fmt.Sprintf("%.1f", quantile(xs, 0.99)))
		}
		res.notes = append(res.notes, fmt.Sprintf("open-loop p99 per %v window, ms: %s", latencyWindow, strings.Join(perWin, " ")))
		return res, nil
	}
	o.perLayer(put)
	probes, err := runProbes(w, tc)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for name, p := range probes {
		put(name, p.value, p.unit)
	}
	tc.report(put)
	if err := tc.write(filepath.Join(buildDir, "trace", w.name+".jsonl"), res.host); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd reports what a user of the deployment sees.
func (o *outcome) endToEnd(put func(string, float64, string)) {
	open, closed := o.stats[phaseOpen], o.stats[phaseClosed]
	confirmed := float64(open.attempted - open.failed)
	var attempted, failed int
	for _, s := range o.stats {
		attempted += s.attempted
		failed += s.failed
	}
	put("setup_s", quantile(o.setups, 0.5), "s")
	put("pay_p50_ms", quantile(open.latency, 0.5), "ms")
	put("pay_p99_ms", windowedQuantile(open.latencyWin, 0.99), "ms")
	put("goodput_pps", quantile(closed.perWindow, 0.5)/time.Duration(o.goodputWin.width).Seconds(), "1/s")
	put("cpu_us_per_pay", float64(o.after.sub(o.before).cpu.Microseconds())/confirmed, "us")
	put("heap_peak_mb", float64(o.heapPeak)/(1<<20), "MB")
	put("confirmed_frac", 1-float64(failed)/float64(attempted), "frac")
}

// perLayer reports the layers' counters over the open-loop phase, per
// confirmed payment, and the driver's own timings.
func (o *outcome) perLayer(put func(string, float64, string)) {
	open := o.stats[phaseOpen]
	delta := o.after.sub(o.before)
	confirmed := float64(open.attempted - open.failed)
	perPay := func(n uint64) float64 { return float64(n) / confirmed }
	put("driver.late_p99_ms", quantile(open.late, 0.99), "ms")
	put("driver.late_max_ms", maxOf(open.late), "ms")
	put("driver.latency_samples", float64(len(open.latency)), "count")
	put("core.pay_call_us", quantile(open.payCall, 0.5), "us")
	put("core.confirm_span_ms", quantile(open.confirm, 0.5), "ms")
	put("core.credit_sigs_per_pay", perPay(delta.creditSigs), "count")
	put("core.credits_per_sig", ratio(delta.creditGroups, delta.creditSigs), "count")
	put("core.credit_nacks_per_pay", perPay(delta.creditNacks), "count")
	put("core.broadcast_failures", float64(o.after.bcastFailures), "count")
	put("core.edge_rejects", float64(o.after.edgeRejects), "count")
	put("transport.msgs_per_pay", perPay(delta.msgs), "count")
	put("transport.bytes_per_pay", perPay(delta.bytes), "B")
	put("transport.dropped", float64(delta.dropped), "count")
	put("sched.tasks_per_pay", perPay(delta.tasks), "count")
	put("sched.steal_frac", ratio(delta.stolen, delta.tasks), "frac")
	put("sched.queue_lat_us", o.queueLatUs, "us")
	put("verifier.memo_hit_frac", ratio(delta.memoHits, delta.memoHits+delta.memoMisses), "frac")
	put("wal.records_per_pay", perPay(delta.walRecords), "count")
	put("wal.syncs_per_pay", perPay(delta.walSyncs), "count")
	put("go.gc_cpu_frac", delta.gcCPU/math.Max(delta.allCPU, 1e-9), "frac")
	var restartMs float64
	if o.fault != nil {
		restartMs = ms(o.fault.restartTook)
	}
	put("restart.restart_ms", restartMs, "ms")
	put("restart.gap_payments", float64(o.gap), "count")
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// sampler polls the deployment while it runs: the heap peak throughout,
// and the scheduler's lane queue-latency EWMAs during the open loop.
type sampler struct {
	c        *sim.AstroCluster
	measure  atomic.Bool
	heapPeak atomic.Uint64

	mu      sync.Mutex
	latSum  float64 // µs, sum over samples of the mean lane EWMA
	samples int
}

func (s *sampler) loop(stop <-chan struct{}) {
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if h := heapInuse(); h > s.heapPeak.Load() {
			s.heapPeak.Store(h)
		}
		if !s.measure.Load() {
			continue
		}
		st := s.c.SchedStats()
		var sum time.Duration
		for _, l := range st.Lanes {
			sum += l.Latency
		}
		if len(st.Lanes) > 0 {
			s.mu.Lock()
			s.latSum += float64(sum.Microseconds()) / float64(len(st.Lanes))
			s.samples++
			s.mu.Unlock()
		}
	}
}

func (s *sampler) meanQueueLatency() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.samples == 0 {
		return 0
	}
	return s.latSum / float64(s.samples)
}

// faultInjector kills the victim replica and restarts it on schedule,
// off the generator goroutine so the send schedule keeps running.
type faultInjector struct {
	c                 *sim.AstroCluster
	tr                *tracker
	tc                *traceRecorder
	killAt, restartAt int64

	done        chan struct{}
	retired     counters // the killed incarnation's final counts
	restartTook int64
	err         error
}

func (f *faultInjector) run() {
	defer close(f.done)
	sleepUntil(f.tr, f.killAt)
	f.retired = replicaCounters(f.c, []types.ReplicaID{victim})
	t0 := f.tr.now()
	f.c.Kill(victim)
	f.tc.span("sim.Kill", 0, t0, f.tr.now())
	sleepUntil(f.tr, f.restartAt)
	t0 = f.tr.now()
	f.err = f.c.Restart(victim)
	f.restartTook = f.tr.now() - t0
	f.tc.span("sim.Restart", 0, t0, t0+f.restartTook)
}

// wait blocks until run has finished.
func (f *faultInjector) wait() { <-f.done }

func sleepUntil(tr *tracker, at int64) {
	if d := at - tr.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// quiesce waits until no replica's settled count has moved for a few
// polls, or until timeout.
func quiesce(c *sim.AstroCluster, timeout time.Duration) {
	end := time.Now().Add(timeout)
	var last uint64
	still := 0
	for time.Now().Before(end) && still < 5 {
		time.Sleep(40 * time.Millisecond)
		var sum uint64
		for _, id := range c.ReplicaIDs() {
			if r := c.Replica(id); r != nil {
				sum += r.SettledCount()
			}
		}
		if sum == last {
			still++
		} else {
			still = 0
		}
		last = sum
	}
}
