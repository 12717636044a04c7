package main

import "time"

// workload is one deployment shape and traffic mix.
type workload struct {
	name       string
	shards     int     // shards of 4 replicas each
	clientAuth bool    // clients sign every payment; replicas verify it
	durable    bool    // every replica journals to a WAL in its own data directory
	rate       float64 // open-loop payments per second
	// outstanding is the closed-loop window: payments kept in flight.
	outstanding int
	// killRestart kills one replica a third into the open-loop phase
	// and restarts it from its data directory killGap later.
	killRestart bool
}

const (
	numClients = 256
	// victim is the replica the sharded-durable workload kills.
	victim = 1
	// setupRounds is how many times a run builds the deployment; setup_s
	// is the median, and the last deployment carries the traffic.
	setupRounds = 9
	// killGap is the time a killed replica stays down.
	killGap = 2 * time.Second
	// grace is how long after its phase ends a payment may still be
	// confirmed before it counts as failed.
	grace = 5 * time.Second
	// batchDelay is the representatives' batch timer. It exceeds a
	// broadcast's round trip, so batching is self-clocked: a
	// representative sends its next batch when its previous one is
	// delivered. With the 5 ms default every representative broadcasts
	// a small batch every 5 ms, and the four replicas' per-batch ECDSA
	// work alone fills most of a 2-core host at any load, so every figure
	// would track the CPU time neighbouring machines take.
	batchDelay = 100 * time.Millisecond
)

// The rates keep the deployment at about a third of a 2-core host's CPU
// in the open loop, so latency is set by the network model and batching
// rather than by CPU queueing. The closed-loop windows (a quarter to one
// payment per client) load the pipeline without saturating the CPU,
// whose share on a shared host varies from run to run.
var workloads = []workload{
	{name: "transfer", shards: 1, rate: 2000, outstanding: 256},
	{name: "client-signed", shards: 1, clientAuth: true, rate: 600, outstanding: 64},
	{name: "sharded-durable", shards: 2, durable: true, rate: 250, outstanding: 128, killRestart: true},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// timeline splits a run of the given length into its phases: warm-up,
// the open-loop phase, and the closed-loop phase, whose first ramp is
// excluded from goodput.
type timeline struct {
	warm, open, closed, ramp time.Duration
}

// goodputWindows is how many equal windows the closed loop's measured
// part is cut into; goodput is their median rate.
const goodputWindows = 5

// latencyWindow is the width of the open loop's windows, by due time;
// pay_p99_ms is the mean of their 99th percentiles.
const latencyWindow = time.Second

func newTimeline(run time.Duration) timeline {
	return timeline{
		warm:   run / 10,
		open:   run * 6 / 10,
		closed: run * 3 / 10,
		ramp:   run / 20,
	}
}
