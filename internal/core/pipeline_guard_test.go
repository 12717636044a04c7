package core

// PR 9 pipeline guards. The steady-state target (ROADMAP item 4) is a
// goroutine-free, allocation-lean message pipeline: continuation commits,
// pinned stripe flows, lazy chain definitions. These tests are the
// regression fence — they ride plain `go test`, so `make check` fails if
// a per-commit spawn or a hot-codec allocation creeps back in.

import (
	"testing"
	"time"

	"astro/internal/sched"
	"astro/internal/types"
)

// TestSteadyStateSettleSpawnFree drives a warmed 4-replica cluster — real
// ECDSA certificates, continuation commit coordinators, lazy credit chains —
// through a settlement round and asserts the pipeline spawned zero
// goroutines for it. Everything runs on the fixed lane set: commits
// verify via detached continuations, settlement fans across pinned
// stripe flows, chain definitions resolve from warm caches.
func TestSteadyStateSettleSpawnFree(t *testing.T) {
	c := newCluster(t, AstroII, 4, genesis100)
	alice := c.client(1)
	bob := c.client(2)

	// Warm-up round: primes every replica's credit-chain caches, so the
	// measured round is the steady state the guard is about (first
	// contact may NACK; that is the lazy protocol working, not a
	// regression — and it spawns nothing either way).
	for i := 0; i < 4; i++ {
		c.payAndWait(alice, 2, 1)
		c.payAndWait(bob, 3, 1)
	}
	c.waitSettledEverywhere(8, 10*time.Second)

	base := sched.Spawns()
	for i := 0; i < 8; i++ {
		c.payAndWait(alice, 2, 1)
		c.payAndWait(bob, 3, 1)
	}
	c.waitSettledEverywhere(24, 10*time.Second)
	if d := sched.Spawns() - base; d != 0 {
		t.Errorf("steady-state settlement spawned %d goroutines, want 0", d)
	}
}

// TestSpawnCounterWiredThroughBaselines is the guard's own guard: with
// the goroutine baselines switched back on, the counter must move. A
// zero here would mean the baseline paths stopped routing through
// sched.Go and the spawn-free assertion above is vacuous.
func TestSpawnCounterWiredThroughBaselines(t *testing.T) {
	c := newCluster(t, AstroII, 4, genesis100, func(cfg *Config) {
		cfg.CommitSpawn = true
		cfg.SettleSpawn = true
	})
	base := sched.Spawns()
	alice := c.client(1)
	c.payAndWait(alice, 2, 5)
	c.waitSettledEverywhere(1, 10*time.Second)
	if sched.Spawns() == base {
		t.Error("goroutine baselines settled a payment without touching sched.Go")
	}
}

// TestHotPathAllocBudget gates the per-operation allocation count of the
// codecs every settled payment crosses: the batch encoder/decoder (v2,
// warm chain table) and state application. Budgets carry headroom over
// the measured steady state; a fat regression (per-entry reallocations,
// a dropped size precomputation) blows through them.
func TestHotPathAllocBudget(t *testing.T) {
	chain := []types.Digest{types.HashBytes([]byte("a")), types.HashBytes([]byte("b"))}
	dep := Dependency{
		Group: []types.Payment{pay(9, 1, 3, 5)},
		Cert: DepCert{Sigs: []DepSig{
			{Replica: 0, Sig: make([]byte, 64)},
			{Replica: 2, Sig: make([]byte, 64), Chain: chain},
			{Replica: 3, Sig: make([]byte, 64), Chain: chain},
		}},
	}
	entries := make([]BatchEntry, 8)
	for i := range entries {
		entries[i] = BatchEntry{Payment: pay(1, types.Seq(i+1), 2, 1), Deps: []Dependency{dep}}
	}
	data := EncodeBatch(entries)

	// Encoder: one writer buffer (exact-capacity via batchSize) plus the
	// table slice. Anything near per-entry cost is a regression.
	if n := testing.AllocsPerRun(200, func() { _ = EncodeBatch(entries) }); n > 4 {
		t.Errorf("EncodeBatch: %.0f allocs per batch, budget 4", n)
	}
	// Decoder: entries, table, and per-dependency slices are irreducible;
	// the budget rules out per-signature chain copies (the table exists
	// so sigs share backing).
	if n := testing.AllocsPerRun(200, func() { _, _ = DecodeBatch(data) }); n > 48 {
		t.Errorf("DecodeBatch: %.0f allocs per batch, budget 48", n)
	}

	// State application: amortized xlog growth only.
	s := NewState(AstroII, genesis100, nil)
	seq := types.Seq(0)
	if n := testing.AllocsPerRun(500, func() {
		seq++
		s.ApplyEntry(BatchEntry{Payment: pay(1, seq, 2, 1)})
	}); n > 4 {
		t.Errorf("ApplyEntry: %.1f allocs per payment, budget 4", n)
	}
}
