package brb

// PR 9 ordering tests for the continuation-style commit path (run under
// -race by the Makefile's race target): with commit verification fanned
// out as detached continuations on a work-stealing lane runtime — no
// coordinator goroutines — per-origin FIFO and exactly-once delivery
// must survive concurrent origins AND a concurrent stream of re-sent
// commits. Commits are self-contained, so a resend is a duplicate
// COMMITTAB, re-injecting chained commits for instances the receivers
// have not seen yet, are mid-verification on, or have already delivered.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"astro/internal/crypto/verifier"
	"astro/internal/sched"
	"astro/internal/transport"
	"astro/internal/types"
)

// TestSignedContinuationOrderingUnderNackResends runs the resend storm in
// two timings: "eager" starts it with the broadcasts, so copies land
// ahead of the origins' own PREPAREs and commits; "lazy" starts it once a
// quarter of the deliveries are in, so copies mostly race verification
// and hit instances already delivered.
func TestSignedContinuationOrderingUnderNackResends(t *testing.T) {
	for name, eager := range map[string]bool{"lazy": false, "eager": true} {
		t.Run(name, func(t *testing.T) {
			rt := sched.New(4)
			t.Cleanup(rt.Close)
			pool := verifier.New(0, verifier.WithRuntime(rt))
			t.Cleanup(pool.Close)
			h := newHarness(t, protoSigned, 4, func(c *Config) { c.Verifier = pool })

			const per = 12
			payload := func(o, i int) []byte { return []byte(fmt.Sprintf("r%d-m%d", o, i)) }

			// Each origin broadcasts from one goroutine, so its i-th payload
			// takes slot i+1. That lets the storm build valid chained commits
			// ahead of time: per origin, one chain over all its slots, signed
			// by the three replicas other than the origin.
			storm := make([][]byte, 0, 4*per)
			for o := 0; o < 4; o++ {
				chain := make([]ChainEntry, per)
				for i := range chain {
					slot := uint64(i + 1)
					chain[i] = ChainEntry{Origin: types.ReplicaID(o), Slot: slot, Digest: SignedDigest(types.ReplicaID(o), slot, payload(o, i))}
				}
				cd := AckChainDigest(chain)
				var cert AckCert
				for r := 0; r < 4; r++ {
					if r == o {
						continue
					}
					sig, err := h.keys[r].Sign(cd)
					if err != nil {
						t.Fatal(err)
					}
					cert.Sigs = append(cert.Sigs, AckSig{Replica: types.ReplicaID(r), Sig: sig, Chain: chain, ChainDigest: cd})
				}
				for i := 0; i < per; i++ {
					storm = append(storm, EncodeCommitTab(types.ReplicaID(o), uint64(i+1), payload(o, i), cert))
				}
			}

			var origins sync.WaitGroup
			for r := 0; r < 4; r++ {
				origins.Add(1)
				go func(r int) {
					defer origins.Done()
					for i := 0; i < per; i++ {
						if _, err := h.bcs[r].Broadcast(payload(r, i)); err != nil {
							panic(err)
						}
					}
				}(r)
			}

			want := 4 * 4 * per
			if !eager {
				if got := h.waitDeliveries(want/4, 30*time.Second); got < want/4 {
					t.Fatalf("deliveries before the storm = %d, want %d", got, want/4)
				}
			}

			// The storm: member 3 re-sends the chained commits to every
			// replica, cycling through every origin's slots while the
			// broadcasts run.
			stop := make(chan struct{})
			var relay sync.WaitGroup
			relay.Add(1)
			go func() {
				defer relay.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					frame := storm[i%len(storm)]
					for r := 0; r < 4; r++ {
						_ = h.muxes[3].Send(transport.ReplicaNode(types.ReplicaID(r)), transport.ChanBRB, frame)
					}
					time.Sleep(200 * time.Microsecond)
				}
			}()

			if got := h.waitDeliveries(want, 30*time.Second); got != want {
				t.Fatalf("deliveries = %d, want %d", got, want)
			}
			origins.Wait()
			close(stop)
			relay.Wait()
			// Let in-flight duplicates land before the exactly-once audit.
			time.Sleep(100 * time.Millisecond)

			for r := 0; r < 4; r++ {
				slots := make(map[types.ReplicaID][]uint64)
				for _, d := range h.deliveriesAt(types.ReplicaID(r)) {
					slots[d.origin] = append(slots[d.origin], d.slot)
				}
				for o := 0; o < 4; o++ {
					got := slots[types.ReplicaID(o)]
					if len(got) != per {
						t.Fatalf("replica %d delivered origin %d %d times, want %d (exactly-once violated)",
							r, o, len(got), per)
					}
					for i, s := range got {
						if s != uint64(i+1) {
							t.Fatalf("replica %d, origin %d: delivery %d has slot %d — FIFO violated",
								r, o, i, s)
						}
					}
				}
			}
		})
	}
}
