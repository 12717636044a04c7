package brb

import (
	"fmt"

	"astro/internal/types"
	"astro/internal/wire"
)

// Tabled commit encoding: the wire form of every commit whose
// certificate carries a chain signature. Signers whose drains covered the
// same instances produce identical chains, so writing each signature's
// chain inline would repeat them; the tabled form interns every distinct
// chain once in a message-level table and has each signature name its
// chain by index:
//
//	kind origin slot | payload | U32 ntab (chain)* | U32 nsigs
//	    (replica sig idx)*
//
// where idx is an index into the table or noChainTabIdx for a single-slot
// signature. The receiver hashes each table entry exactly once (into the
// certificate's memoized ChainDigest) and the decoded signatures share the
// table's chain slices, so downstream pointer-equality fast paths keep
// working. The same table shape scales to the batch level on the payment
// channel (core's CREDITBATCH and the v2 payment-batch encoding intern
// across a whole wave's certificates).

// noChainTabIdx marks a single-slot signature in the tabled encoding.
const noChainTabIdx = ^uint32(0)

// commitTabSize is the exact size of a COMMITTAB message for the given
// table and certificate.
func commitTabSize(payload []byte, table [][]ChainEntry, cert AckCert) int {
	n := headerSize + 4 + len(payload) + 4
	for _, chain := range table {
		n += 4 + len(chain)*chainEntrySize
	}
	n += 4
	for _, s := range cert.Sigs {
		n += 4 + 4 + len(s.Sig) + 4
	}
	return n
}

// commitChainTable collects the distinct chains of a certificate, in
// first-appearance order, keyed by ChainDigest (computing it if the
// caller has not). It returns the table and each signature's index into
// it (noChainTabIdx for single-slot signatures). The stack-backed sizing
// mirrors core's dependency-certificate interning: quorum certificates
// rarely name more than a handful of chains.
func commitChainTable(cert AckCert) (table [][]ChainEntry, idxs []uint32) {
	var stack [8]types.Digest
	digests := stack[:0]
	idxs = make([]uint32, len(cert.Sigs))
	for i := range cert.Sigs {
		a := &cert.Sigs[i]
		if a.Chain == nil {
			idxs[i] = noChainTabIdx
			continue
		}
		cd := a.ChainDigest
		if cd == (types.Digest{}) {
			cd = AckChainDigest(a.Chain)
		}
		found := false
		for j, d := range digests {
			if d == cd {
				idxs[i] = uint32(j)
				found = true
				break
			}
		}
		if !found {
			idxs[i] = uint32(len(table))
			table = append(table, a.Chain)
			digests = append(digests, cd)
		}
	}
	return table, idxs
}

func appendCommitTab(w *wire.Writer, origin types.ReplicaID, slot uint64, payload []byte, table [][]ChainEntry, cert AckCert, idxs []uint32) {
	appendHeader(w, kindCommitTab, origin, slot)
	w.Chunk(payload)
	w.U32(uint32(len(table)))
	for _, chain := range table {
		appendChain(w, chain)
	}
	w.U32(uint32(len(cert.Sigs)))
	for i, s := range cert.Sigs {
		w.U32(uint32(s.Replica))
		w.Chunk(s.Sig)
		w.U32(idxs[i])
	}
}

// EncodeCommitTab encodes a COMMIT carrying a chain-tabled certificate.
// Exported for tests and the wire-cost benchmarks.
func EncodeCommitTab(origin types.ReplicaID, slot uint64, payload []byte, cert AckCert) []byte {
	table, idxs := commitChainTable(cert)
	w := wire.NewWriter(commitTabSize(payload, table, cert))
	appendCommitTab(w, origin, slot, payload, table, cert, idxs)
	return w.Bytes()
}

// maxAckCertSigs mirrors crypto's decoded-certificate bound.
const maxAckCertSigs = 4096

// maxCommitTabChains bounds the decoded chain table: a certificate of at
// most maxAckCertSigs signatures names at most that many distinct chains.
const maxCommitTabChains = maxAckCertSigs

// decodeCommitTab parses a COMMITTAB after the payload chunk. Each table
// entry is hashed once; signatures share the table's chain slices and
// carry the memoized ChainDigest, so verification never rehashes.
func decodeCommitTab(r *wire.Reader) (AckCert, error) {
	nt := r.U32()
	if err := r.Err(); err != nil {
		return AckCert{}, err
	}
	if nt > maxCommitTabChains {
		return AckCert{}, fmt.Errorf("brb: commit chain table of %d exceeds cap", nt)
	}
	table := make([][]ChainEntry, 0, nt)
	digests := make([]types.Digest, 0, nt)
	for i := uint32(0); i < nt; i++ {
		chain, err := decodeChain(r)
		if err != nil {
			return AckCert{}, err
		}
		if len(chain) == 0 || len(chain) > maxSignBatch {
			return AckCert{}, fmt.Errorf("brb: tabled chain of %d outside [1,%d]", len(chain), maxSignBatch)
		}
		table = append(table, chain)
		digests = append(digests, AckChainDigest(chain))
	}
	ns := r.U32()
	if err := r.Err(); err != nil {
		return AckCert{}, err
	}
	if ns > maxAckCertSigs {
		return AckCert{}, fmt.Errorf("brb: tabled cert of %d signatures exceeds cap", ns)
	}
	cert := AckCert{Sigs: make([]AckSig, 0, ns)}
	for i := uint32(0); i < ns; i++ {
		id := types.ReplicaID(r.U32())
		sig := r.Chunk()
		idx := r.U32()
		if err := r.Err(); err != nil {
			return AckCert{}, err
		}
		a := AckSig{Replica: id, Sig: sig}
		if idx != noChainTabIdx {
			if idx >= uint32(len(table)) {
				return AckCert{}, fmt.Errorf("brb: chain table index %d of %d", idx, len(table))
			}
			a.Chain = table[idx]
			a.ChainDigest = digests[idx]
		}
		cert.Sigs = append(cert.Sigs, a)
	}
	if err := r.Finish(); err != nil {
		return AckCert{}, err
	}
	return cert, nil
}
