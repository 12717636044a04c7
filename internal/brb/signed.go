package brb

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"astro/internal/crypto"
	"astro/internal/crypto/verifier"
	"astro/internal/sched"
	"astro/internal/transport"
	"astro/internal/types"
	"astro/internal/wire"
)

// Signed implements BRB with digital signatures (after Malkhi & Reiter),
// the broadcast layer of Astro II (paper §IV-A, Listing 6).
//
// Per instance: the origin PREPAREs the payload to all replicas; each
// replica signs an ACK for the first payload it sees for the instance
// (subject to the validator) and unicasts it back to the origin; on
// gathering a Byzantine quorum (2f+1) of valid ACKs the origin sends a
// COMMIT carrying the payload and the aggregated certificate; replicas
// verify the certificate and deliver, in per-origin slot order.
//
// Every commit is self-contained: a certificate of single-slot signatures
// goes out as COMMIT, one carrying any chain signature as COMMITTAB (each
// distinct chain tabled once per message, see committab.go). Nothing a
// receiver can send asks the origin for a commit again, so the origin
// forgets an instance — payload and certificate — the moment its quorum
// completes: its per-slot state is bounded by the broadcasts still
// collecting acks, not by every broadcast it ever made.
//
// Message complexity is O(N) — the all-to-all phases of Bracha are
// replaced by unicasts to and from the origin — at the price of signature
// computation. The protocol does not provide totality: if the origin is
// faulty, some correct replicas may deliver while others never do. Astro II
// compensates at the payment layer with CREDIT dependency certificates.
//
// Signature computation — the dominant CPU cost of the protocol, which
// the paper amortizes with 256-payment batches (§VI-A) — never runs on a
// transport dispatch goroutine, in either direction:
//
//   - ack *signing* is queued and drained by a single logical signer on
//     the verifier pool. While one ECDSA is in flight, further prepares
//     accumulate; the drain then signs them all with ONE signature over a
//     hash chain of the pending instances (see ackchain.go), so signing
//     cost per instance shrinks with load — the sign-side analogue of the
//     paper's batch amortization. A lone pending ack keeps the single-slot
//     wire form;
//   - ack signatures arriving at the origin are checked asynchronously and
//     re-enter the state machine through a completion callback; a chain
//     signature is checked once for all the instances it endorses;
//   - commit certificates verify continuation-style (PR 9): the cheap
//     prepass runs on a verifier task, the signature checks fan out with
//     early exit, and the completion callback re-enters the FIFO delivery
//     drain on whichever lane settles the tally — no goroutine is spawned
//     per commit. Handing the commit to the verifier blocks the dispatch
//     goroutine only when the pool queue is full, which is the same
//     backpressure the old bounded coordinators provided. In the
//     fast-verify regime (sim HMACs) the whole verification runs
//     synchronously inline, skipping the continuation overhead. The PR 1–8
//     goroutine-per-commit coordinators remain selectable as the measured
//     baseline (Config.CommitSpawn). Chain signatures inside certificates
//     hit the verifier memo, so a chain of k slots costs one ECDSA across
//     all k commits carrying it.
//
// Because verifications may complete out of order, deliveries are staged
// through the per-origin FIFO under the instance lock and then drained by
// a single logical deliverer, so the Deliver callback still observes the
// paper's per-origin slot order.
type Signed struct {
	cfg Config
	ver *verifier.Verifier

	mu      sync.Mutex
	nextOut uint64
	mine    map[uint64]*outInstance   // my broadcasts still short of a quorum, by slot
	acked   map[instanceID]*ackRecord // instances I have acknowledged
	order   *fifo
	// committing marks instances with a certificate verification in
	// flight, so re-delivered commits don't spawn duplicate work.
	committing map[instanceID]struct{}
	// deliverQ and delivering serialize the Deliver callback: whichever
	// completion appends first drains the queue, so deliveries exit in
	// exactly the order the FIFO released them even when certificate
	// verifications finish out of order.
	deliverQ   []delivery
	delivering bool

	// ackSigner queues acks awaiting signature and drains them on the
	// pool, collapsing acks that accumulate while an ECDSA is in flight
	// into one chain signature (adaptive: chains engage only when the
	// measured sign cost exceeds the threshold — a chain trades one
	// signature for per-signer chain bytes in every commit certificate,
	// which only pays off for real ECDSA, not the simulation harness's
	// ~1µs HMACs). The scheduling lives in verifier.ChainSigner; this
	// layer supplies the wire forms.
	ackSigner *verifier.ChainSigner[ChainEntry]
}

var _ Broadcaster = (*Signed)(nil)

// outInstance is one of this replica's own broadcasts while it gathers
// acks. It is deleted when the quorum completes (ackVerified).
type outInstance struct {
	payload []byte
	digest  types.Digest
	cert    AckCert
}

type ackRecord struct {
	digest    types.Digest
	delivered bool
}

// Errors specific to the signed protocol.
var ErrNoKeys = errors.New("brb: signed protocol requires Keys and Registry")

// NewSigned creates the protocol instance and registers it on the mux's
// BRB channel.
func NewSigned(cfg Config) (*Signed, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Keys == nil || cfg.Registry == nil {
		return nil, ErrNoKeys
	}
	ver := cfg.Verifier
	if ver == nil {
		ver = verifier.Default()
	}
	s := &Signed{
		cfg:        cfg,
		ver:        ver,
		nextOut:    cfg.FirstSlot,
		mine:       make(map[uint64]*outInstance),
		acked:      make(map[instanceID]*ackRecord),
		order:      newFIFO(),
		committing: make(map[instanceID]struct{}),
	}
	s.ackSigner = verifier.NewChainSigner(ver, maxSignBatch, verifier.DefaultChainThreshold, s.signSingleAck, s.signAckChain)
	// Seed the sign-cost estimate with one probe signature, so the first
	// loaded drain already knows whether chain batching pays off here.
	probeStart := time.Now()
	if _, err := cfg.Keys.Sign(SignedDigest(cfg.Self, 0, nil)); err == nil {
		s.ackSigner.SeedCost(time.Since(probeStart))
	}
	cfg.Mux.Register(transport.ChanBRB, s.onMessage)
	return s, nil
}

// Broadcast implements Broadcaster.
func (s *Signed) Broadcast(payload []byte) (uint64, error) {
	s.mu.Lock()
	s.nextOut++
	slot := s.nextOut
	buf := make([]byte, len(payload))
	copy(buf, payload)
	s.mine[slot] = &outInstance{
		payload: buf,
		digest:  SignedDigest(s.cfg.Self, slot, payload),
	}
	s.mu.Unlock()

	w := wire.AcquireWriter(payloadMsgSize(payload))
	appendPayloadMsg(w, kindPrepare, s.cfg.Self, slot, payload)
	for _, p := range s.cfg.Peers {
		_ = s.cfg.Mux.Send(transport.ReplicaNode(p), transport.ChanBRB, w.Bytes())
	}
	w.Release()
	return slot, nil
}

// Rebroadcast re-runs the PREPARE phase for a slot this replica reserved
// before a crash, with the exact payload recorded in its WAL. The slot
// must be at most Config.FirstSlot (a reservation from the previous
// incarnation); peers that already acknowledged the identical digest
// re-ack it, so the protocol completes even though the first PREPARE wave
// reached some of them.
//
// The origin keeps no record of slots whose quorum already completed, so
// rebroadcasting such a slot again is not refused: it is an identical
// re-PREPARE. Peers re-ack the same digest, and the resulting second
// commit carries the same payload, which every receiver discards as a
// duplicate of the delivered instance.
func (s *Signed) Rebroadcast(slot uint64, payload []byte) {
	s.mu.Lock()
	if slot > s.nextOut || s.mine[slot] != nil {
		s.mu.Unlock()
		return
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	s.mine[slot] = &outInstance{
		payload: buf,
		digest:  SignedDigest(s.cfg.Self, slot, payload),
	}
	s.mu.Unlock()

	w := wire.AcquireWriter(payloadMsgSize(payload))
	appendPayloadMsg(w, kindPrepare, s.cfg.Self, slot, payload)
	for _, p := range s.cfg.Peers {
		_ = s.cfg.Mux.Send(transport.ReplicaNode(p), transport.ChanBRB, w.Bytes())
	}
	w.Release()
}

// Delivered implements Broadcaster.
func (s *Signed) Delivered(origin types.ReplicaID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.delivered[origin]
}

func (s *Signed) onMessage(from transport.NodeID, payload []byte) {
	peer := types.ReplicaID(from)
	r := wire.NewReader(payload)
	kind := r.U8()
	if r.Err() != nil {
		return
	}
	if kind == kindAckBatch {
		// Chain-signed acks carry no instance header: the chain itself
		// names every instance the signature endorses.
		chain, sig, err := decodeAckBatch(r)
		if err != nil {
			return
		}
		s.handleAckBatch(peer, chain, sig)
		return
	}
	origin := types.ReplicaID(r.U32())
	slot := r.U64()
	if r.Err() != nil {
		return
	}
	id := instanceID{origin: origin, slot: slot}
	switch kind {
	case kindPrepare:
		if peer != origin {
			return // spoofed prepare
		}
		body := r.Chunk()
		if r.Err() != nil {
			return
		}
		s.handlePrepare(id, body)
	case kindAck:
		digest := r.Bytes32()
		sig := r.Chunk()
		if r.Err() != nil {
			return
		}
		s.handleAck(id, peer, digest, sig)
	case kindCommit:
		body := r.Chunk()
		cert, err := crypto.DecodeCertificate(r)
		if err != nil || r.Err() != nil {
			return
		}
		s.handleCommit(id, body, cert)
	case kindCommitTab:
		body := r.Chunk()
		if r.Err() != nil {
			return
		}
		// The decoder hashes each table entry once and memoizes the digest
		// in every signature naming it, so verification never rehashes.
		cert, err := decodeCommitTab(r)
		if err != nil {
			return
		}
		s.handleCommitTab(id, body, cert)
	}
}

// handlePrepare acknowledges the first (and only the first) payload seen
// for the instance — the equivocation check of Listing 6. The ack is not
// signed here: it is queued for the pool-side signer, so the dispatch
// goroutine never executes an ECDSA.
func (s *Signed) handlePrepare(id instanceID, payload []byte) {
	d := SignedDigest(id.origin, id.slot, payload)

	s.mu.Lock()
	if rec, seen := s.acked[id]; seen {
		resend := rec.digest == d
		s.mu.Unlock()
		if resend {
			// Identical re-prepare: the origin is recovering from a crash
			// and re-running the PREPARE phase (Rebroadcast). Our previous
			// ack — possibly lost with the origin's memory — endorsed this
			// exact digest, so re-signing it grants nothing new; without
			// the re-ack a rebroadcast slot could never gather its quorum.
			// The validator is skipped: it ran (and passed) the first time,
			// and re-running it against replayed endorsement state would
			// wrongly flag the batch's payments as double-spends.
			s.ackSigner.Enqueue(ChainEntry{Origin: id.origin, Slot: id.slot, Digest: d})
		}
		return // conflicting payload for an acked instance: stay silent
	}
	s.mu.Unlock()

	// The validator runs outside the instance lock: the payment layer's
	// hook verifies a whole batch of client signatures on the pool and
	// blocks for the results, and completion callbacks taking s.mu must
	// stay able to run meanwhile.
	if s.cfg.Validator != nil && !s.cfg.Validator(id.origin, id.slot, payload) {
		return
	}

	s.mu.Lock()
	if _, seen := s.acked[id]; seen {
		// A commit for this instance finished verifying while the
		// validator ran; its record wins and this replica stays silent.
		s.mu.Unlock()
		return
	}
	s.acked[id] = &ackRecord{digest: d}
	s.mu.Unlock()

	// Blocking submission: under a saturated pool this stalls the BRB
	// channel (backpressure), but the signature itself still runs on a
	// worker — never on this goroutine.
	s.ackSigner.Enqueue(ChainEntry{Origin: id.origin, Slot: id.slot, Digest: d})
}

// signSingleAck signs one pending ack in the single-slot wire form
// (ChainSigner flush callback, pool side).
func (s *Signed) signSingleAck(e ChainEntry) {
	sig, err := s.ackSigner.Sign(1, func() ([]byte, error) { return s.cfg.Keys.Sign(e.Digest) })
	if err != nil {
		return // entropy failure; withholding an ack is always safe
	}
	w := wire.AcquireWriter(ackSize(sig))
	appendAck(w, e.Origin, e.Slot, e.Digest, sig)
	_ = s.cfg.Mux.Send(transport.ReplicaNode(e.Origin), transport.ChanBRB, w.Bytes())
	w.Release()
}

// signAckChain signs a batch of pending acks with one chain signature,
// unicast to every origin the chain touches (ChainSigner flush callback).
// The ACKBATCH — chain included — is encoded once into the wave's shared
// scratch and the same bytes go to every destination.
func (s *Signed) signAckChain(batch []ChainEntry, wave *verifier.Wave) {
	cd := AckChainDigest(batch)
	sig, err := s.ackSigner.Sign(len(batch), func() ([]byte, error) { return s.cfg.Keys.Sign(cd) })
	if err != nil {
		return
	}
	w := wave.Scratch(ackBatchSize(batch, sig))
	appendAckBatch(w, batch, sig)
	sent := make(map[types.ReplicaID]struct{}, 4)
	for _, e := range batch {
		if _, dup := sent[e.Origin]; dup {
			continue
		}
		sent[e.Origin] = struct{}{}
		_ = s.cfg.Mux.Send(transport.ReplicaNode(e.Origin), transport.ChanBRB, w.Bytes())
	}
}

// handleAck runs at the origin: it performs the cheap instance checks
// inline, then hands the signature to the verifier pool. Certificate
// assembly — and the COMMIT, once a quorum accrues — happens in the
// completion callback.
func (s *Signed) handleAck(id instanceID, peer types.ReplicaID, digest types.Digest, sig []byte) {
	if id.origin != s.cfg.Self {
		return // ack for someone else's instance; misdirected
	}

	s.mu.Lock()
	out := s.mine[id.slot]
	if out == nil || digest != out.digest {
		s.mu.Unlock()
		return // unknown, already committed (forgotten), or wrong digest
	}
	s.mu.Unlock()

	// Signature checks dominate CPU cost: run them on the pool, off the
	// dispatch goroutine and outside the instance lock. Re-sent acks hit
	// the verifier's memo and resolve inline.
	s.ver.VerifyReplicaDetached(s.cfg.Registry, peer, digest, sig, func(ok bool) {
		if ok {
			s.ackVerified(id, peer, digest, sig, nil, types.Digest{})
		}
	})
}

// handleAckBatch runs at each origin a chain touches: find the entries
// addressed to my in-flight instances, then verify the one chain
// signature on the pool and credit every covered instance from the
// completion callback. The chain digest is memoized, so the ECDSA runs
// once however many instances (or redeliveries) the chain covers.
func (s *Signed) handleAckBatch(peer types.ReplicaID, chain []ChainEntry, sig []byte) {
	var relevant []ChainEntry
	s.mu.Lock()
	for _, e := range chain {
		if e.Origin != s.cfg.Self {
			continue
		}
		out := s.mine[e.Slot]
		if out == nil || e.Digest != out.digest || out.cert.has(peer) {
			continue
		}
		relevant = append(relevant, e)
	}
	s.mu.Unlock()
	if len(relevant) == 0 {
		return
	}
	cd := AckChainDigest(chain)
	s.ver.VerifyReplicaDetached(s.cfg.Registry, peer, cd, sig, func(ok bool) {
		if !ok {
			return
		}
		for _, e := range relevant {
			s.ackVerified(instanceID{origin: e.Origin, slot: e.Slot}, peer, e.Digest, sig, chain, cd)
		}
	})
}

// ackVerified re-enters the state machine after an ack signature checks
// out: record it (with its chain context, if batch-signed), and commit on
// reaching the quorum. The quorum-completing ack removes the instance from
// mine, so the payload and certificate live only as long as the commit
// send; later acks for the slot find nothing and are dropped.
func (s *Signed) ackVerified(id instanceID, peer types.ReplicaID, digest types.Digest, sig []byte, chain []ChainEntry, chainDigest types.Digest) {
	s.mu.Lock()
	out := s.mine[id.slot]
	if out == nil || digest != out.digest || out.cert.has(peer) {
		s.mu.Unlock()
		return
	}
	out.cert.Sigs = append(out.cert.Sigs, AckSig{Replica: peer, Sig: sig, Chain: chain, ChainDigest: chainDigest})
	commit := out.cert.Len() >= s.cfg.quorum()
	if commit {
		delete(s.mine, id.slot)
	}
	s.mu.Unlock()

	if commit {
		s.sendCommit(id, out.payload, out.cert)
	}
}

// sendCommit broadcasts the commit for an instance whose quorum is
// complete, in its self-contained form: a certificate of only single-slot
// signatures as COMMIT (the crypto.Certificate wire form), one carrying
// any chain signature as COMMITTAB, each distinct chain encoded once.
func (s *Signed) sendCommit(id instanceID, payload []byte, cert AckCert) {
	var w *wire.Writer
	if cert.allPlain() {
		var plain crypto.Certificate
		for _, a := range cert.Sigs {
			plain.Add(crypto.PartialSig{Replica: a.Replica, Sig: a.Sig})
		}
		w = wire.AcquireWriter(commitSize(payload, plain))
		appendCommit(w, id.origin, id.slot, payload, plain)
	} else {
		table, idxs := commitChainTable(cert)
		w = wire.AcquireWriter(commitTabSize(payload, table, cert))
		appendCommitTab(w, id.origin, id.slot, payload, table, cert, idxs)
	}
	for _, p := range s.cfg.Peers {
		_ = s.cfg.Mux.Send(transport.ReplicaNode(p), transport.ChanBRB, w.Bytes())
	}
	w.Release()
}

// beginCommit performs the cheap duplicate checks for an incoming commit
// and marks the instance's verification in flight. It reports whether the
// caller should proceed.
func (s *Signed) beginCommit(id instanceID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec := s.acked[id]; rec != nil && rec.delivered {
		return false
	}
	if _, busy := s.committing[id]; busy {
		return false // a verification for this instance is already in flight
	}
	s.committing[id] = struct{}{}
	return true
}

// handleCommit performs the cheap duplicate checks inline, then verifies
// the certificate continuation-style: the digest hash and prepass run on
// a verifier task (handed off with Async, whose blocking-when-full is the
// backpressure that bounds in-flight commits), the signature checks fan
// out with 2f+1 early exit, and the completion callback re-enters the
// FIFO delivery drain — zero goroutines per commit. The fast-verify
// regime (cheap sim HMACs) skips the hand-off and runs the whole thing
// synchronously here; Config.CommitSpawn restores the goroutine-per-
// commit baseline.
func (s *Signed) handleCommit(id instanceID, payload []byte, cert crypto.Certificate) {
	if !s.beginCommit(id) {
		return
	}
	if s.cfg.CommitSpawn {
		// Baseline: a coordinator goroutine blocks on the fanned-out
		// checks. Routed through sched.Go so the spawn guard counts it.
		sched.Go(func() {
			d := SignedDigest(id.origin, id.slot, payload)
			err := s.ver.VerifyCertificate(s.cfg.Registry, cert, d, s.cfg.quorum(), s.membership)
			s.commitVerified(id, d, payload, err == nil)
		})
		return
	}
	if s.ver.FastVerify() {
		// Cheap-check regime: inline beats any hand-off. VerifyCertificate
		// itself finishes serially on this goroutine when checks are cheap
		// (single worker or a near-resolved prepass); for wider fan-outs
		// the Detached form below is still the safe default, so gate on
		// the measured cost alone.
		d := SignedDigest(id.origin, id.slot, payload)
		err := s.ver.VerifyCertificateInline(s.cfg.Registry, cert, d, s.cfg.quorum(), s.membership)
		s.commitVerified(id, d, payload, err == nil)
		return
	}
	s.ver.TryAsync(func() {
		// On a verifier lane (or inline under a saturated pool — the
		// natural backpressure; TryAsync rather than Async because the
		// mux dispatches on the lane runtime the verifier may share, and a
		// blocking enqueue there could wedge a full queue against itself):
		// hash the payload and start the tally. The
		// continuation may fire inline right here (memo hits, structural
		// failure) or on whichever lane casts the deciding vote; either
		// way commitVerified only takes s.mu and drains deliveries — it
		// never waits on the verifier, per the continuation discipline.
		d := SignedDigest(id.origin, id.slot, payload)
		s.ver.VerifyCertificateDetached(s.cfg.Registry, cert, d, s.cfg.quorum(), s.membership, func(ok bool) {
			s.commitVerified(id, d, payload, ok)
		})
	})
}

// handleCommitTab is handleCommit for chain-carrying certificates: chain
// signatures verify against their chain digest (once, memoized, for all
// the commits a chain covers) and count toward the quorum only if the
// chain actually carries this instance's entry.
func (s *Signed) handleCommitTab(id instanceID, payload []byte, cert AckCert) {
	if !s.beginCommit(id) {
		return
	}
	if s.cfg.CommitSpawn {
		sched.Go(func() {
			d := SignedDigest(id.origin, id.slot, payload)
			ok := s.verifyAckCert(id, d, cert)
			s.commitVerified(id, d, payload, ok)
		})
		return
	}
	if s.ver.FastVerify() {
		d := SignedDigest(id.origin, id.slot, payload)
		ok := s.verifyAckCertSync(id, d, cert)
		s.commitVerified(id, d, payload, ok)
		return
	}
	s.ver.TryAsync(func() {
		d := SignedDigest(id.origin, id.slot, payload)
		s.verifyAckCertDetached(id, d, cert, func(ok bool) {
			s.commitVerified(id, d, payload, ok)
		})
	})
}

// verifyAckCert checks that an extended certificate carries a quorum of
// valid endorsements of (id, d). Like verifier.VerifyCertificate it
// accepts as soon as quorum valid signatures are confirmed (extra invalid
// or irrelevant ones are ignored — a quorum of valid endorsements is
// exactly what the protocol needs); duplicate signers count once.
func (s *Signed) verifyAckCert(id instanceID, d types.Digest, cert AckCert) bool {
	need := s.cfg.quorum()
	items := s.ackCertItems(id, d, cert)
	if len(items) < need {
		return false
	}
	futures := make([]*verifier.Future, 0, len(items))
	for _, it := range items {
		futures = append(futures, s.ver.VerifyReplicaAsync(s.cfg.Registry, it.replica, it.digest, it.sig, nil))
	}
	valid := 0
	for i, f := range futures {
		if f.Wait() {
			valid++
			if valid >= need {
				return true
			}
		}
		if valid+len(futures)-1-i < need {
			return false // quorum out of reach; skip the stragglers
		}
	}
	return false
}

// ackCertItems performs verifyAckCert's cheap serial filtering — dedupe,
// membership, chain endorsement, chain-digest memoization — returning the
// (replica, digest, sig) triples left to verify. Shared by the blocking,
// synchronous, and continuation variants.
type ackCertItem struct {
	replica types.ReplicaID
	digest  types.Digest
	sig     []byte
}

func (s *Signed) ackCertItems(id instanceID, d types.Digest, cert AckCert) []ackCertItem {
	seen := make(map[types.ReplicaID]struct{}, len(cert.Sigs))
	items := make([]ackCertItem, 0, len(cert.Sigs))
	for _, a := range cert.Sigs {
		if _, dup := seen[a.Replica]; dup {
			continue
		}
		if !s.membership(a.Replica) {
			continue
		}
		dg := d
		if a.Chain != nil {
			if !chainContains(a.Chain, id, d) {
				continue // chain does not endorse this instance
			}
			dg = a.ChainDigest
			if dg == (types.Digest{}) {
				dg = AckChainDigest(a.Chain)
			}
		}
		seen[a.Replica] = struct{}{}
		items = append(items, ackCertItem{replica: a.Replica, digest: dg, sig: a.Sig})
	}
	return items
}

// verifyAckCertSync is verifyAckCert fully on the calling goroutine —
// serial, memoized, early-exiting — the fast-verify-regime path where
// cheap checks make any hand-off pure overhead.
func (s *Signed) verifyAckCertSync(id instanceID, d types.Digest, cert AckCert) bool {
	need := s.cfg.quorum()
	items := s.ackCertItems(id, d, cert)
	if len(items) < need {
		return false
	}
	valid := 0
	for i, it := range items {
		if s.ver.VerifyReplica(s.cfg.Registry, it.replica, it.digest, it.sig) {
			valid++
			if valid >= need {
				return true
			}
		}
		if valid+len(items)-1-i < need {
			return false
		}
	}
	return false
}

// verifyAckCertDetached is the continuation form: cb fires exactly once
// with the quorum verdict, inline when memo hits settle it during the
// fan-out loop, otherwise on the goroutine casting the deciding vote.
// Exactly-once follows from the CertTally arithmetic: every item votes,
// and fewer than `need` valid votes forces more invalid ones than the
// budget tolerates.
func (s *Signed) verifyAckCertDetached(id instanceID, d types.Digest, cert AckCert, cb func(bool)) {
	need := s.cfg.quorum()
	items := s.ackCertItems(id, d, cert)
	if len(items) < need {
		cb(false)
		return
	}
	t := verifier.NewCertTally(need, len(items)-need, cb)
	for _, it := range items {
		if t.Done() {
			return // settled by memo hits mid-loop; remaining checks moot
		}
		s.ver.VerifyReplicaDetached(s.cfg.Registry, it.replica, it.digest, it.sig, t.Vote)
	}
}

// commitVerified re-enters the state machine after certificate
// verification: on success it marks the instance delivered, releases the
// consecutive run from the per-origin FIFO, and drains the delivery queue.
// A failed verification only clears the in-flight marker, so a later
// well-formed commit for the instance can still be processed.
func (s *Signed) commitVerified(id instanceID, d types.Digest, payload []byte, ok bool) {
	s.mu.Lock()
	delete(s.committing, id)
	if !ok {
		s.mu.Unlock()
		return // invalid or insufficient certificate
	}
	rec := s.acked[id]
	if rec == nil {
		rec = &ackRecord{digest: d}
		s.acked[id] = rec
	}
	if rec.delivered {
		s.mu.Unlock()
		return
	}
	rec.delivered = true
	if s.cfg.Unordered {
		// Recovery mode: deliver in arrival order. Slots the replica
		// missed while down will never be retransmitted, so waiting for a
		// consecutive run would wedge the origin forever; the payment
		// layer orders by client sequence number on its own. rec.delivered
		// above already dedups; the high-water mark keeps Delivered()
		// meaningful.
		if id.slot > s.order.delivered[id.origin] {
			s.order.delivered[id.origin] = id.slot
		}
		s.deliverQ = append(s.deliverQ, delivery{origin: id.origin, slot: id.slot, payload: payload})
	} else {
		s.deliverQ = append(s.deliverQ, s.order.ready(id, payload)...)
	}
	if s.delivering {
		// Another completion is draining; it will pick these up, in order.
		s.mu.Unlock()
		return
	}
	s.delivering = true
	for len(s.deliverQ) > 0 {
		batch := s.deliverQ
		s.deliverQ = nil
		s.mu.Unlock()
		for _, dv := range batch {
			s.cfg.Deliver(dv.origin, dv.slot, dv.payload)
		}
		s.mu.Lock()
	}
	s.delivering = false
	s.mu.Unlock()
}

func (s *Signed) membership(id types.ReplicaID) bool {
	for _, p := range s.cfg.Peers {
		if p == id {
			return true
		}
	}
	return false
}

// AckSignStats returns how many signing operations this replica has spent
// on acks and how many acks they covered. acks/ops > 1 means chain
// batching engaged (one ECDSA endorsing several instances).
func (s *Signed) AckSignStats() (ops, acks uint64) {
	return s.ackSigner.Stats()
}

// String implements fmt.Stringer for diagnostics.
func (s *Signed) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("signedbrb{self=%d peers=%d f=%d out=%d}", s.cfg.Self, len(s.cfg.Peers), s.cfg.F, s.nextOut)
}
