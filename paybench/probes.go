package main

// Layer probes for the traced run: each times direct calls into one
// layer's public functions, after the workload, with that workload's
// parameters (client signatures on client-signed, dependency
// certificates on sharded-durable). Each figure is the median over the
// timed calls, and every call is a span under the probe's root span.

import (
	"crypto/rand"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"astro/internal/brb"
	"astro/internal/core"
	"astro/internal/crypto"
	"astro/internal/crypto/verifier"
	"astro/internal/transport"
	"astro/internal/transport/memnet"
	"astro/internal/types"
	"astro/internal/wal"
)

// batchEntries is the size of a full representative batch.
const batchEntries = 256

type probeResult struct {
	value float64
	unit  string
}

// prober times calls and records them as spans under one root span.
type prober struct {
	tc     *traceRecorder
	parent uint64
}

// time runs f n times and returns the median call time in µs.
func (p prober) time(name string, n int, f func(i int) error) (float64, error) {
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := p.tc.tr.now()
		if err := f(i); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		t1 := p.tc.tr.now()
		p.tc.span(name, p.parent, t0, t1)
		samples = append(samples, float64(t1-t0)/1e3)
	}
	return quantile(samples, 0.5), nil
}

func runProbes(w workload, tc *traceRecorder) (map[string]probeResult, error) {
	out := make(map[string]probeResult)
	probes := []struct {
		name string
		run  func(prober, workload, map[string]probeResult) error
	}{
		{"probe.batch", probeBatch},
		{"probe.brb", probeBRB},
		{"probe.verifier", probeVerifier},
		{"probe.wal", probeWAL},
	}
	for _, pr := range probes {
		t0 := tc.tr.now()
		root := tc.span(pr.name, 0, t0, t0)
		if err := pr.run(prober{tc: tc, parent: root}, w, out); err != nil {
			return nil, err
		}
		tc.closeSpan(root, tc.tr.now())
	}
	return out, nil
}

func randomDigest() types.Digest {
	var d types.Digest
	rand.Read(d[:])
	return d
}

// sampleBatch builds a full batch shaped like the workload's traffic.
func sampleBatch(w workload) ([]core.BatchEntry, error) {
	key, err := crypto.GenerateKeyPair()
	if err != nil {
		return nil, err
	}
	entries := make([]core.BatchEntry, batchEntries)
	for i := range entries {
		p := types.Payment{Spender: types.ClientID(i + 1), Seq: types.Seq(i + 7),
			Beneficiary: types.ClientID(i + 2), Amount: types.Amount(i%100 + 1)}
		e := core.BatchEntry{Payment: p}
		if w.clientAuth {
			if e.Sig, err = key.Sign(core.PaymentDigest(p)); err != nil {
				return nil, err
			}
		}
		if w.durable && i%2 == 0 {
			// A cross-shard credit: a group of payments to this spender,
			// endorsed by f+1 = 2 replicas of the paying shard.
			group := []types.Payment{{Spender: types.ClientID(i + 3), Seq: 1, Beneficiary: p.Spender, Amount: 5}}
			d := core.CreditGroupDigest(group)
			var cert core.DepCert
			for r := types.ReplicaID(4); r < 6; r++ {
				sig, err := key.Sign(d)
				if err != nil {
					return nil, err
				}
				cert.Sigs = append(cert.Sigs, core.DepSig{Replica: r, Sig: sig})
			}
			e.Deps = []core.Dependency{{Group: group, Cert: cert}}
		}
		entries[i] = e
	}
	return entries, nil
}

func probeBatch(p prober, w workload, out map[string]probeResult) error {
	entries, err := sampleBatch(w)
	if err != nil {
		return err
	}
	enc := core.EncodeBatch(entries)
	v, err := p.time("core.EncodeBatch", 400, func(int) error { core.EncodeBatch(entries); return nil })
	if err != nil {
		return err
	}
	out["core.batch_encode_us"] = probeResult{v, "us"}
	v, err = p.time("core.DecodeBatch", 400, func(int) error { _, err := core.DecodeBatch(enc); return err })
	if err != nil {
		return err
	}
	out["core.batch_decode_us"] = probeResult{v, "us"}
	return nil
}

// probeBRB times one signed broadcast of a batch-sized payload, from
// Broadcast until all four members delivered it, on a zero-latency
// network with ECDSA keys.
func probeBRB(p prober, _ workload, out map[string]probeResult) error {
	const n = 4
	net := memnet.New()
	defer net.Close()
	reg := crypto.NewRegistry()
	keys := make([]*crypto.KeyPair, n)
	peers := make([]types.ReplicaID, n)
	for i := range keys {
		keys[i] = crypto.MustGenerateKeyPair()
		peers[i] = types.ReplicaID(i)
		reg.Add(peers[i], keys[i].Public())
	}
	done := make(chan struct{}, n) // one delivery per member per broadcast
	var origin *brb.Signed
	for i := 0; i < n; i++ {
		mux := transport.NewMux(net.Node(transport.ReplicaNode(peers[i])))
		defer mux.Close()
		s, err := brb.NewSigned(brb.Config{
			Mux: mux, Self: peers[i], Peers: peers, F: 1, Keys: keys[i], Registry: reg,
			Deliver: func(types.ReplicaID, uint64, []byte) { done <- struct{}{} },
		})
		if err != nil {
			return err
		}
		if i == 0 {
			origin = s
		}
	}
	payload := make([]byte, 8192)
	v, err := p.time("brb.Signed.Broadcast", 100, func(i int) error {
		payload[0], payload[1] = byte(i), byte(i>>8)
		if _, err := origin.Broadcast(payload); err != nil {
			return err
		}
		for k := 0; k < n; k++ {
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				return fmt.Errorf("broadcast %d: delivered at %d of %d members", i, k, n)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["brb.instance_us"] = probeResult{v, "us"}
	return nil
}

func probeVerifier(p prober, _ workload, out map[string]probeResult) error {
	ver := verifier.Default()
	reg := crypto.NewRegistry()
	keys := make([]*crypto.KeyPair, 4)
	for i := range keys {
		keys[i] = crypto.MustGenerateKeyPair()
		reg.Add(types.ReplicaID(i), keys[i].Public())
	}

	// KeyPair.Sign.
	v, err := p.time("crypto.KeyPair.Sign", 400, func(int) error {
		_, err := keys[0].Sign(randomDigest())
		return err
	})
	if err != nil {
		return err
	}
	out["crypto.sign_us"] = probeResult{v, "us"}

	// A 3-of-4 certificate over a fresh digest each time, so the memo
	// cache never answers.
	const certs = 200
	digests := make([]types.Digest, certs)
	cs := make([]crypto.Certificate, certs)
	for i := range cs {
		digests[i] = randomDigest()
		for r := 0; r < 3; r++ {
			sig, err := keys[r].Sign(digests[i])
			if err != nil {
				return err
			}
			cs[i].Add(crypto.PartialSig{Replica: types.ReplicaID(r), Sig: sig})
		}
	}
	member := func(r types.ReplicaID) bool { return r < 4 }
	v, err = p.time("verifier.VerifyCertificate", certs, func(i int) error {
		return ver.VerifyCertificate(reg, cs[i], digests[i], 3, member)
	})
	if err != nil {
		return err
	}
	out["verifier.cert_verify_us"] = probeResult{v, "us"}

	// VerifyClientBatch over 256 fresh client signatures; reported per
	// signature.
	const rounds = 4
	ck := crypto.NewClientKeys()
	clientKeys := make([]*crypto.KeyPair, batchEntries)
	for i := range clientKeys {
		clientKeys[i] = crypto.MustGenerateKeyPair()
		ck.Add(types.ClientID(i+1), clientKeys[i].Public())
	}
	batches := make([][]verifier.ClientSig, rounds)
	for r := range batches {
		for i, k := range clientKeys {
			d := randomDigest()
			sig, err := k.Sign(d)
			if err != nil {
				return err
			}
			batches[r] = append(batches[r], verifier.ClientSig{Client: types.ClientID(i + 1), Digest: d, Sig: sig})
		}
	}
	v, err = p.time("verifier.VerifyClientBatch", rounds, func(i int) error {
		if !ver.VerifyClientBatch(ck, batches[i]).Wait() {
			return fmt.Errorf("valid client signature batch rejected")
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["verifier.client_sig_verify_us"] = probeResult{v / batchEntries, "us"}
	return nil
}

// probeWAL appends batch-sized records to a fresh durable backend, each
// followed by a Sync, and times the two calls separately.
func probeWAL(p prober, w workload, out map[string]probeResult) error {
	dir := filepath.Join(buildDir, "data", fmt.Sprintf("probe-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	be, err := wal.OpenAuto(dir, false)
	if err != nil {
		return err
	}
	defer be.Close()
	if err := be.Load(func([]byte) error { return nil }, func(byte, []byte) error { return nil }); err != nil {
		return err
	}
	entries, err := sampleBatch(w)
	if err != nil {
		return err
	}
	rec := core.EncodeBatch(entries)
	const n = 100
	appendUs := make([]float64, 0, n)
	syncUs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := p.tc.tr.now()
		if err := be.Append(1, rec); err != nil {
			return err
		}
		t1 := p.tc.tr.now()
		if err := be.Sync(); err != nil {
			return err
		}
		t2 := p.tc.tr.now()
		p.tc.span("wal.Backend.Append", p.parent, t0, t1)
		p.tc.span("wal.Backend.Sync", p.parent, t1, t2)
		appendUs = append(appendUs, float64(t1-t0)/1e3)
		syncUs = append(syncUs, float64(t2-t1)/1e3)
	}
	out["wal.append_us"] = probeResult{quantile(appendUs, 0.5), "us"}
	out["wal.sync_us"] = probeResult{quantile(syncUs, 0.5), "us"}
	return nil
}
