package brb

import (
	"bytes"
	"testing"

	"astro/internal/types"
	"astro/internal/wire"
)

func fuzzChain() []ChainEntry {
	return []ChainEntry{
		{Origin: 0, Slot: 7, Digest: types.Digest{0x01}},
		{Origin: 3, Slot: 9, Digest: types.Digest{0x02}},
	}
}

// FuzzDecodeChainDef exercises the chain-definition decoder that ACKBATCH
// frames and COMMITTAB chain tables share. The chain encoding is
// fixed-width and therefore canonical: whatever decodes must respect the
// decode cap and re-encode to exactly the bytes it consumed.
func FuzzDecodeChainDef(f *testing.F) {
	w := wire.NewWriter(4 + 2*chainEntrySize)
	appendChain(w, fuzzChain())
	canonical := w.Bytes()
	f.Add(canonical)
	f.Add([]byte{0, 0, 0, 0}) // empty chain: decodes to nothing
	// Adversarial seed: the canonical chain with every digest byte
	// flipped — structurally valid, endorsing instances nobody acked.
	hostile := bytes.Clone(canonical)
	for i := 4; i < len(hostile); i += chainEntrySize {
		for j := i + 12; j < i+chainEntrySize; j++ {
			hostile[j] ^= 0x5a
		}
	}
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(data)
		chain, err := decodeChain(r)
		if err != nil {
			return
		}
		if len(chain) > maxAckChain {
			t.Fatalf("accepted chain of %d over cap %d", len(chain), maxAckChain)
		}
		w := wire.NewWriter(4 + len(chain)*chainEntrySize)
		appendChain(w, chain)
		if consumed := data[:len(data)-r.Remaining()]; !bytes.Equal(w.Bytes(), consumed) {
			t.Fatal("decoded chain does not re-encode to the bytes it consumed")
		}
	})
}

// FuzzDecodeAckBatch exercises the ACKBATCH decoder: whatever decodes
// must carry a non-empty chain within the decode cap, and the chain and
// signature must re-encode to a prefix of the input.
func FuzzDecodeAckBatch(f *testing.F) {
	f.Add(EncodeAckBatch(fuzzChain(), []byte("chain-sig"))[1:]) // after the kind byte
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})                       // empty chain: rejected
	w := wire.NewWriter(8)
	w.U32(maxAckChain + 1) // chain count past the cap
	f.Add(w.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		chain, sig, err := decodeAckBatch(wire.NewReader(data))
		if err != nil {
			return
		}
		if len(chain) == 0 || len(chain) > maxAckChain {
			t.Fatalf("accepted chain of %d outside [1,%d]", len(chain), maxAckChain)
		}
		if !bytes.HasPrefix(data, EncodeAckBatch(chain, sig)[1:]) {
			t.Fatal("decoded ack batch does not re-encode to the input")
		}
	})
}

// FuzzDecodeCommitTab exercises the tabled (PR 9) commit form: a
// message-level chain table with signatures naming their chain by index.
// Every bound — table size, per-chain length, signature count, index
// range — must hold on whatever decodes, each chain's memoized digest
// must match its content, and the certificate must survive re-encoding.
func FuzzDecodeCommitTab(f *testing.F) {
	cert := AckCert{Sigs: []AckSig{
		{Replica: 1, Sig: []byte("plain-sig")},
		{Replica: 2, Sig: []byte("chain-sig"), Chain: fuzzChain()},
		{Replica: 3, Sig: []byte("chain-sig-2"), Chain: fuzzChain()},
	}}
	// Canonical seed: full frame minus header and the payload chunk
	// (U32 length + 1 payload byte), which onMessage consumes first.
	f.Add(EncodeCommitTab(1, 4, []byte("p"), cert)[headerSize+4+1:])

	// Adversarial seeds. A signature naming an index past the table:
	w := wire.NewWriter(128)
	w.U32(1)
	for _, e := range fuzzChain() {
		w.U32(uint32(e.Origin))
		w.U64(e.Slot)
		w.Bytes32(e.Digest)
	}
	w.U32(1)
	w.U32(2)
	w.Chunk([]byte("sig"))
	w.U32(7) // table has one entry
	f.Add(w.Bytes())
	// A table entry of length zero:
	w = wire.NewWriter(16)
	w.U32(1)
	w.U32(0)
	f.Add(w.Bytes())
	// A table count past the cap:
	w = wire.NewWriter(8)
	w.U32(maxCommitTabChains + 1)
	f.Add(w.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		cert, err := decodeCommitTab(wire.NewReader(data))
		if err != nil {
			return
		}
		if len(cert.Sigs) > maxAckCertSigs {
			t.Fatalf("accepted %d signatures over cap", len(cert.Sigs))
		}
		for _, s := range cert.Sigs {
			if s.Chain == nil {
				continue
			}
			if len(s.Chain) == 0 || len(s.Chain) > maxSignBatch {
				t.Fatalf("accepted table chain of %d outside [1,%d]", len(s.Chain), maxSignBatch)
			}
			if s.ChainDigest != AckChainDigest(s.Chain) {
				t.Fatal("memoized chain digest does not match the chain")
			}
		}
		// Re-encoding interns the chains again; the result must decode
		// to the same signatures.
		again := EncodeCommitTab(0, 1, nil, cert)
		back, err := decodeCommitTab(wire.NewReader(again[headerSize+4:]))
		if err != nil {
			t.Fatalf("re-encoded certificate does not decode: %v", err)
		}
		if len(back.Sigs) != len(cert.Sigs) {
			t.Fatalf("re-encoded certificate has %d signatures, want %d", len(back.Sigs), len(cert.Sigs))
		}
		for i := range cert.Sigs {
			a, b := cert.Sigs[i], back.Sigs[i]
			if a.Replica != b.Replica || !bytes.Equal(a.Sig, b.Sig) || a.ChainDigest != b.ChainDigest || len(a.Chain) != len(b.Chain) {
				t.Fatalf("signature %d changed across re-encoding", i)
			}
		}
	})
}
