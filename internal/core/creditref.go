package core

import (
	"astro/internal/transport"
	"astro/internal/types"
	"astro/internal/wire"
)

// Chain-by-digest references on the credit channel (see the protocol prose
// on the msgCredit* kinds): a CREDITREF names the wave's chain by
// digest, a CREDITCHAINDEF carries it, and a receiver that cannot resolve
// a reference NACKs for a self-contained resend. This file keeps the
// replica's reference state:
//
//   - creditChains: receiver side — per sending replica, a bounded LRU of
//     the chains that replica has defined, keyed by the locally recomputed
//     CreditChainDigest. Per-peer bounding means no replica can evict
//     another's definitions; the cache doubles as the chain *interning*
//     table — every CREDITBATCH or resolved CREDITREF from one signer
//     yields the same canonical []types.Digest backing, so the k DepSigs
//     of one wave share storage and the certificate encoder's
//     equal-chain test hits its pointer fast path;
//   - creditWaves: sender side — a bounded buffer of recently signed waves
//     (chain, signature, jobs), from which a CREDITNACK is answered with a
//     self-contained legacy CREDITBATCH. A wave evicted before a NACK
//     arrives is simply not retransmitted: the dependency still forms from
//     the other >= f+1 signers, which is the fault model's job anyway.
//
// There is no per-destination sent-set: every wave signs a brand-new
// chain (the digests of its freshly settled groups), so a chain is never
// referenced across waves and its CHAINDEF is simply sent ahead of each
// destination's first (and only) reference.
//
// Both structures hang off chainMu; the lock is never held across a
// transport send or a signature operation.

// creditChainCacheEntries bounds the per-peer credit chain caches and the
// retransmit buffer. At the creditChainCap chain length this is ~64 KiB
// per peer of digests plus one wave's jobs per retained entry.
const creditChainCacheEntries = 64

// CreditRefStats counts the credit-channel reference traffic at one
// replica, for tests and the benchmark harness: CREDITCHAINDEF/CREDITREF/
// legacy CREDITBATCH sends (NACK retransmits count under FullSends),
// inbound reference cache hits and misses, and NACK round trips
// (types.RefStats).
type CreditRefStats = types.RefStats

// CreditRefStats returns the credit chain-reference counters.
func (r *Replica) CreditRefStats() CreditRefStats {
	return r.creditRefStats.Snapshot()
}

// retainedWave is one signed settlement wave kept for NACK retransmission.
type retainedWave struct {
	chain []types.Digest
	sig   []byte
	jobs  []creditJob
}

// learnCreditChain caches (and interns) a chain defined by peer, returning
// the canonical slice: the already-cached copy if the digest is known, the
// given one otherwise. Chains longer than an honest wave are not cached.
func (r *Replica) learnCreditChain(peer types.ReplicaID, digest types.Digest, chain []types.Digest) []types.Digest {
	if len(chain) == 0 || len(chain) > creditChainCap {
		return chain
	}
	r.chainMu.Lock()
	defer r.chainMu.Unlock()
	return r.creditChains.Intern(peer, digest, chain)
}

// knownCreditChain resolves a chain reference from peer, touching it. A
// per-peer miss falls through to the content-addressed any-peer probe:
// replicas with aligned wave boundaries sign byte-identical chains (the
// enqueue order in postSettle is replica-deterministic), so the chain this
// replica signed — or learned from any aligned signer — resolves every
// other signer's reference to it. The cache key is the locally recomputed
// digest, so a cross-peer hit is exactly as trustworthy as an own-peer one.
func (r *Replica) knownCreditChain(peer types.ReplicaID, digest types.Digest) ([]types.Digest, bool) {
	r.chainMu.Lock()
	defer r.chainMu.Unlock()
	if chain, ok := r.creditChains.Get(peer, digest); ok {
		return chain, true
	}
	return r.creditChains.GetAny(digest)
}

// retainCreditWave buffers a signed wave for NACK retransmission.
func (r *Replica) retainCreditWave(digest types.Digest, w retainedWave) {
	r.chainMu.Lock()
	r.creditWaves.Put(digest, w)
	r.chainMu.Unlock()
}

// handleCreditNack answers a destination that could not resolve a chain
// reference. In lazy-definition mode (the default) the NACK is the demand
// path: the chain's CREDITCHAINDEF goes out followed by the reference
// again, on the same FIFO channel. In eager mode a NACK means eviction,
// and the answer is the self-contained legacy CREDITBATCH.
func (r *Replica) handleCreditNack(from transport.NodeID, digest types.Digest) {
	r.creditRefStats.NacksReceived.Add(1)
	rep := types.ReplicaID(from)
	r.chainMu.Lock()
	wave, ok := r.creditWaves.Get(digest)
	r.chainMu.Unlock()
	if !ok {
		return // evicted; the >= f+1 other signers carry the dependency
	}
	var gs []creditBatchGroup
	for i, j := range wave.jobs {
		if j.rep == rep {
			gs = append(gs, creditBatchGroup{ChainIdx: uint32(i), Group: j.group})
		}
	}
	if len(gs) == 0 {
		return // NACK for a wave that had nothing addressed to the sender
	}
	if !r.cfg.EagerChainDefs {
		def := wire.NewWriter(creditChainDefSize(wave.chain))
		appendCreditChainDef(def, wave.chain)
		_ = r.cfg.Mux.Send(from, transport.ChanCredit, def.Bytes())
		r.creditRefStats.DefsSent.Add(1)
		r.creditRefStats.DefsDemanded.Add(1)
		m := creditRefMsg{Signer: r.cfg.Self, ChainDigest: digest, Sig: wave.sig, Groups: gs}
		ref := wire.NewWriter(creditRefSize(m))
		appendCreditRef(ref, m)
		_ = r.cfg.Mux.Send(from, transport.ChanCredit, ref.Bytes())
		r.creditRefStats.RefsSent.Add(1)
		return
	}
	msg := encodeCreditBatch(creditBatchMsg{Signer: r.cfg.Self, Chain: wave.chain, Sig: wave.sig, Groups: gs})
	_ = r.cfg.Mux.Send(from, transport.ChanCredit, msg)
	r.creditRefStats.FullSends.Add(1)
}
