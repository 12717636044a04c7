package main

// Per-layer counters, read from outside through each layer's public
// stats accessors and turned into deltas over the open-loop phase.

import (
	"runtime/metrics"
	"syscall"
	"time"

	"astro/internal/crypto/verifier"
	"astro/internal/sim"
	"astro/internal/types"
)

// counters is one cumulative reading of every counter the benchmark
// reports, summed over the deployment.
type counters struct {
	msgs, bytes, dropped uint64 // transport (memnet)
	tasks, stolen        uint64 // sched
	memoHits, memoMisses uint64 // crypto/verifier
	creditSigs           uint64 // core: CREDIT signing operations
	creditGroups         uint64 // core: credit groups those signatures covered
	creditNacks          uint64 // core: credit-channel NACKs sent
	walRecords, walSyncs uint64 // wal
	bcastFailures        uint64 // core
	edgeRejects          uint64 // core
	cpu                  time.Duration
	gcCPU, allCPU        float64 // Go runtime CPU estimates, seconds
}

func (c counters) sub(o counters) counters {
	return counters{
		msgs: c.msgs - o.msgs, bytes: c.bytes - o.bytes, dropped: c.dropped - o.dropped,
		tasks: c.tasks - o.tasks, stolen: c.stolen - o.stolen,
		memoHits: c.memoHits - o.memoHits, memoMisses: c.memoMisses - o.memoMisses,
		creditSigs: c.creditSigs - o.creditSigs, creditGroups: c.creditGroups - o.creditGroups,
		creditNacks: c.creditNacks - o.creditNacks,
		walRecords:  c.walRecords - o.walRecords, walSyncs: c.walSyncs - o.walSyncs,
		bcastFailures: c.bcastFailures - o.bcastFailures, edgeRejects: c.edgeRejects - o.edgeRejects,
		cpu: c.cpu - o.cpu, gcCPU: c.gcCPU - o.gcCPU, allCPU: c.allCPU - o.allCPU,
	}
}

// addReplica adds the per-replica counters of o.
func (c *counters) addReplica(o counters) {
	c.creditSigs += o.creditSigs
	c.creditGroups += o.creditGroups
	c.creditNacks += o.creditNacks
	c.walRecords += o.walRecords
	c.walSyncs += o.walSyncs
	c.bcastFailures += o.bcastFailures
	c.edgeRejects += o.edgeRejects
}

// replicaCounters sums the per-replica accessors of one replica set.
func replicaCounters(cl *sim.AstroCluster, ids []types.ReplicaID) counters {
	var c counters
	for _, id := range ids {
		r := cl.Replica(id)
		if r == nil {
			continue
		}
		ops, groups := r.CreditSignStats()
		c.creditSigs += ops
		c.creditGroups += groups
		c.creditNacks += r.CreditRefStats().NacksSent
		rec, syncs := r.WALStats()
		c.walRecords += rec
		c.walSyncs += syncs
		c.bcastFailures += r.BroadcastFailures()
		c.edgeRejects += r.EdgeStats().Total()
	}
	return c
}

// readCounters takes one reading over the whole deployment. retired
// holds the final counts of replica incarnations that were killed:
// a restarted replica's accessors start again from zero.
func readCounters(cl *sim.AstroCluster, retired counters) counters {
	c := replicaCounters(cl, cl.ReplicaIDs())
	c.addReplica(retired)
	ns := cl.Net.Stats()
	c.msgs, c.bytes, c.dropped = ns.MessagesSent, ns.BytesSent, ns.Dropped
	ss := cl.SchedStats()
	c.tasks, c.stolen = ss.Executed, ss.Stolen
	c.memoHits, c.memoMisses = verifier.Default().MemoStats()
	c.cpu = processCPU()
	c.gcCPU, c.allCPU = runtimeCPU()
	return c
}

// processCPU is the process's user plus system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // only an invalid argument makes getrusage fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// runtimeCPU returns the Go runtime's estimates of GC CPU time and
// total available CPU time, in seconds.
func runtimeCPU() (gc, total float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
}

var heapSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
}

// heapInuse is the runtime's HeapInuse (live objects plus fragmentation
// within in-use spans), read without stopping the world.
func heapInuse() uint64 {
	metrics.Read(heapSamples)
	return heapSamples[0].Value.Uint64() + heapSamples[1].Value.Uint64()
}
