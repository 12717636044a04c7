package brb

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"astro/internal/crypto"
	"astro/internal/crypto/verifier"
	"astro/internal/transport"
	"astro/internal/transport/memnet"
	"astro/internal/types"
	"astro/internal/wire"
)

// TestSignedOriginForgetsCommittedSlots drives a few hundred broadcasts
// with chain signatures engaged and checks the origin keeps no per-slot
// state once each quorum completes: after the last delivery mine is
// empty, and late ACKs and ACKBATCHes for the forgotten slots produce
// neither a second commit nor a delivery.
//
// Replicas 0–2 run Signed (origin 0 gathers its 2f+1 = 3 acks from them);
// member 3 is a raw endpoint that records every BRB frame it receives —
// one commit per slot — and later plays the late acker with its real key.
func TestSignedOriginForgetsCommittedSlots(t *testing.T) {
	const k = 300
	net := memnet.New()
	t.Cleanup(net.Close)
	pool := verifier.New(1)
	t.Cleanup(pool.Close)
	registry := crypto.NewRegistry()
	var keys []*crypto.KeyPair
	var peers []types.ReplicaID
	for i := 0; i < 4; i++ {
		kp := crypto.MustGenerateKeyPair()
		keys = append(keys, kp)
		registry.Add(types.ReplicaID(i), kp.Public())
		peers = append(peers, types.ReplicaID(i))
	}

	var mu sync.Mutex
	delivered := 0
	var group []*Signed
	for i := 0; i < 3; i++ {
		mux := transport.NewMux(net.Node(transport.ReplicaNode(types.ReplicaID(i))))
		t.Cleanup(mux.Close)
		s, err := NewSigned(Config{
			Mux: mux, Self: types.ReplicaID(i), Peers: peers, F: 1,
			Deliver: func(types.ReplicaID, uint64, []byte) {
				mu.Lock()
				delivered++
				mu.Unlock()
			},
			Keys: keys[i], Registry: registry, Verifier: pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		group = append(group, s)
	}
	origin := group[0]

	// Commit frames seen by member 3, by slot and wire form.
	commits := make(map[uint64]int)
	kinds := make(map[byte]int)
	late := transport.NewMux(net.Node(transport.ReplicaNode(3)))
	t.Cleanup(late.Close)
	late.Register(transport.ChanBRB, func(_ transport.NodeID, p []byte) {
		r := wire.NewReader(p)
		kind := r.U8()
		if !IsCommitKind(kind) {
			return
		}
		r.U32()
		slot := r.U64()
		mu.Lock()
		commits[slot]++
		kinds[kind]++
		mu.Unlock()
	})
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			mu.Lock()
			ok := cond()
			mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Wedge the shared signer pool while the prepares land, so every
	// replica's acks leave as chains of up to maxSignBatch entries.
	gate := make(chan struct{})
	entered := make(chan struct{})
	go pool.Async(func() {
		close(entered)
		<-gate
	})
	<-entered
	payloads := make([][]byte, k+1)
	for i := 1; i <= k; i++ {
		payloads[i] = []byte(fmt.Sprintf("batch-%d", i))
		if _, err := origin.Broadcast(payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range group {
		deadline := time.Now().Add(10 * time.Second)
		for s.ackSigner.Pending() != k {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d: pending acks = %d, want %d", i, s.ackSigner.Pending(), k)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(gate)

	waitFor("every delivery", func() bool { return delivered == 3*k })
	waitFor("every commit at member 3", func() bool { return len(commits) == k })
	origin.mu.Lock()
	held := len(origin.mine)
	origin.mu.Unlock()
	if held != 0 {
		t.Fatalf("origin holds %d committed slots after the last delivery, want 0", held)
	}
	mu.Lock()
	if kinds[kindCommitTab] == 0 {
		t.Fatalf("no chained certificate among %d commits (kinds %v): chain signatures never engaged", k, kinds)
	}
	mu.Unlock()
	for i, s := range group {
		if ops, acks := s.AckSignStats(); acks <= ops {
			t.Fatalf("replica %d signed %d acks with %d signatures: chains never engaged", i, acks, ops)
		}
	}

	// Late endorsements by member 3, valid in every respect except timing:
	// a single-slot ACK and a chain over the first maxSignBatch slots.
	d1 := SignedDigest(0, 1, payloads[1])
	sig, err := keys[3].Sign(d1)
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Send(transport.ReplicaNode(0), transport.ChanBRB, EncodeAck(0, 1, d1, sig)); err != nil {
		t.Fatal(err)
	}
	chain := make([]ChainEntry, maxSignBatch)
	for i := range chain {
		slot := uint64(i + 1)
		chain[i] = ChainEntry{Origin: 0, Slot: slot, Digest: SignedDigest(0, slot, payloads[slot])}
	}
	if sig, err = keys[3].Sign(AckChainDigest(chain)); err != nil {
		t.Fatal(err)
	}
	if err := late.Send(transport.ReplicaNode(0), transport.ChanBRB, EncodeAckBatch(chain, sig)); err != nil {
		t.Fatal(err)
	}

	// A fresh broadcast queues behind the late acks on the origin's
	// channel; once its commit reaches member 3, give any verification
	// the late acks could have started time to finish.
	if _, err := origin.Broadcast([]byte("sentinel")); err != nil {
		t.Fatal(err)
	}
	waitFor("the sentinel commit", func() bool { return commits[k+1] == 1 && delivered == 3*(k+1) })
	time.Sleep(100 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	for slot, n := range commits {
		if n != 1 {
			t.Errorf("slot %d committed %d times, want once", slot, n)
		}
	}
	if delivered != 3*(k+1) {
		t.Errorf("deliveries = %d, want %d: a late ack delivered again", delivered, 3*(k+1))
	}
	origin.mu.Lock()
	held = len(origin.mine)
	origin.mu.Unlock()
	if held != 0 {
		t.Errorf("origin holds %d slots after the late acks, want 0", held)
	}
}

// TestChainNackStormBoundedWork: the origin keeps nothing it could
// resend, so a storm of CHAINNACKs — kind 10, retired with the commit
// reference forms, as a peer that still speaks them would send — costs it
// no work at all: not one frame goes back, for a committed slot or one
// never broadcast, and the group keeps delivering afterwards.
func TestChainNackStormBoundedWork(t *testing.T) {
	const retiredChainNack byte = 10
	nack := func(slot uint64) []byte {
		w := wire.NewWriter(headerSize + 4 + 32)
		appendHeader(w, retiredChainNack, 0, slot)
		w.U32(1)
		w.Bytes32(types.HashBytes([]byte("claimed-missing")))
		return w.Bytes()
	}

	h := newHarness(t, protoSigned, 4)
	slot, err := h.bcs[0].Broadcast([]byte("stormed-payload"))
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(4, 5*time.Second); got != 4 {
		t.Fatalf("deliveries = %d, want 4", got)
	}
	// The last delivery can precede the origin's final ack traffic; wait
	// until the network is quiet before counting.
	for prev := ^uint64(0); ; {
		time.Sleep(50 * time.Millisecond)
		cur := h.net.Stats().MessagesSent
		if cur == prev {
			break
		}
		prev = cur
	}
	h.net.ResetStats()

	const storm = 50
	for i := 0; i < storm; i++ {
		for _, s := range []uint64{slot, slot + 1000} {
			if err := h.muxes[3].Send(transport.ReplicaNode(0), transport.ChanBRB, nack(s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	time.Sleep(200 * time.Millisecond)
	if sent := h.net.Stats().MessagesSent; sent != 2*storm {
		t.Errorf("%d frames on the network for a storm of %d NACKs: the origin answered %d",
			sent, 2*storm, sent-2*storm)
	}
	origin := h.bcs[0].(*Signed)
	origin.mu.Lock()
	held := len(origin.mine)
	origin.mu.Unlock()
	if held != 0 {
		t.Errorf("origin holds %d slots after the storm, want 0", held)
	}

	if _, err := h.bcs[0].Broadcast([]byte("after-the-storm")); err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(8, 5*time.Second); got != 8 {
		t.Fatalf("deliveries after the storm = %d, want 8", got)
	}
}
