package brb

// PR 9 evidence: the goroutine-free commit pipeline. Latency pair —
// continuation-style commit coordinators (default) vs the goroutine-per-
// commit baseline (Config.CommitSpawn), both on the same ECDSA N=4
// broadcast path. Wire cost — bytes per payment of the tabled commit
// (COMMITTAB, message-level chain table) that carries every chained
// certificate.

import (
	"sync"
	"testing"
	"time"

	"astro/internal/crypto"
	"astro/internal/transport"
	"astro/internal/transport/memnet"
	"astro/internal/types"
)

// benchSignedECDSA is the N=4 real-ECDSA broadcast pipeline with a config
// hook, shared by the continuation/spawn latency pair and the PR 2 ack
// pipeline benchmark.
func benchSignedECDSA(b *testing.B, opt func(*Config)) {
	net := memnet.New()
	defer net.Close()
	peers := make([]types.ReplicaID, 4)
	registry := crypto.NewRegistry()
	var keys []*crypto.KeyPair
	for i := range peers {
		peers[i] = types.ReplicaID(i)
		keys = append(keys, crypto.MustGenerateKeyPair())
		registry.Add(types.ReplicaID(i), keys[i].Public())
	}
	var mu sync.Mutex
	delivered := 0
	cond := sync.NewCond(&mu)
	var bcs []*Signed
	for i := 0; i < 4; i++ {
		mux := transport.NewMux(net.Node(transport.ReplicaNode(types.ReplicaID(i))))
		cfg := Config{
			Mux: mux, Self: types.ReplicaID(i), Peers: peers, F: 1,
			Deliver: func(types.ReplicaID, uint64, []byte) {
				mu.Lock()
				delivered++
				cond.Broadcast()
				mu.Unlock()
			},
			Keys:     keys[i],
			Registry: registry,
		}
		if opt != nil {
			opt(&cfg)
		}
		s, err := NewSigned(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bcs = append(bcs, s)
	}
	wait := func(total int) {
		mu.Lock()
		for delivered < total {
			cond.Wait()
		}
		mu.Unlock()
	}

	payload := make([]byte, 8192) // a 256-payment batch
	const window = 64
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bcs[0].Broadcast(payload); err != nil {
			b.Fatal(err)
		}
		if i >= window {
			wait((i - window + 1) * 4)
		}
	}
	done := make(chan struct{})
	go func() {
		wait(b.N * 4)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		b.Fatal("deliveries timed out")
	}
	b.StopTimer()
}

// BenchmarkCommitContinuationECDSA: commits verify as detached
// continuations on the verifier's lanes — zero goroutines per commit.
func BenchmarkCommitContinuationECDSA(b *testing.B) {
	benchSignedECDSA(b, nil)
}

// BenchmarkCommitSpawnECDSA: the goroutine-per-commit coordinator
// baseline the continuations replaced.
func BenchmarkCommitSpawnECDSA(b *testing.B) {
	benchSignedECDSA(b, func(c *Config) { c.CommitSpawn = true })
}

// BenchmarkCommitTabWireBytes: bytes per payment of one aligned wave of
// chained commits (chain cap 32, quorum 3, 256-byte payloads), per
// destination — COMMITTAB encodes each distinct chain once per message.
func BenchmarkCommitTabWireBytes(b *testing.B) {
	const (
		slots   = maxSignBatch
		quorum  = 3
		payload = 256
	)
	payloads := make([][]byte, slots)
	chain := make([]ChainEntry, slots)
	for i := range chain {
		payloads[i] = make([]byte, payload)
		chain[i] = ChainEntry{Origin: 0, Slot: uint64(i + 1), Digest: SignedDigest(0, uint64(i+1), payloads[i])}
	}
	cd := AckChainDigest(chain)
	sig := make([]byte, 71)
	var cert AckCert
	for q := 0; q < quorum; q++ {
		cert.Sigs = append(cert.Sigs, AckSig{Replica: types.ReplicaID(q), Sig: sig, Chain: chain, ChainDigest: cd})
	}

	b.Run("tabled", func(b *testing.B) {
		var total int
		for n := 0; n < b.N; n++ {
			total = 0
			for i := 0; i < slots; i++ {
				total += len(EncodeCommitTab(0, uint64(i+1), payloads[i], cert))
			}
		}
		b.ReportMetric(float64(total)/float64(slots), "bytes/payment")
	})
}
