// Package brb implements Byzantine reliable broadcast (BRB), the
// replication primitive at the heart of Astro. Two protocols are provided,
// matching the paper's two system variants:
//
//   - Bracha: the echo/ready protocol of Bracha & Toueg used by Astro I.
//     O(N²) messages per broadcast, MAC-authenticated links, provides
//     totality.
//   - Signed: the signature-based protocol (after Malkhi & Reiter) used by
//     Astro II. O(N) messages: the origin gathers a Byzantine quorum of
//     signed ACKs into a self-contained COMMIT certificate. No totality —
//     the payment layer compensates with CREDIT dependency certificates.
//
// Both protocols deliver payloads per origin in slot order (FIFO), exactly
// like the paper's per-client sequence-number delivery rule, and both
// guarantee agreement per (origin, slot): no two correct replicas deliver
// different payloads for the same identifier.
//
// An external-validity hook lets the payment layer refuse to endorse
// payloads containing payments that conflict with previously endorsed ones
// (the double-spend check when batching).
package brb

import (
	"errors"

	"astro/internal/crypto"
	"astro/internal/crypto/verifier"
	"astro/internal/transport"
	"astro/internal/types"
	"astro/internal/wire"
)

// Validator decides whether this replica endorses (echoes or acks) the
// payload proposed for an instance. Returning false withholds this
// replica's contribution; a payload endorsed by fewer than a quorum of
// replicas is never delivered anywhere.
type Validator func(origin types.ReplicaID, slot uint64, payload []byte) bool

// DeliverFunc receives delivered payloads, per origin in slot order.
type DeliverFunc func(origin types.ReplicaID, slot uint64, payload []byte)

// Broadcaster is the common interface of both BRB implementations.
type Broadcaster interface {
	// Broadcast reliably sends payload to all replicas, assigning it the
	// next slot of this replica's sequence. It returns the assigned slot.
	// Implementations copy payload before returning, so callers may reuse
	// (or pool) their buffers.
	Broadcast(payload []byte) (uint64, error)
	// Delivered returns the highest slot delivered for an origin.
	Delivered(origin types.ReplicaID) uint64
}

// Config carries the parameters shared by both protocols.
type Config struct {
	// Mux is the node's transport multiplexer; the protocol registers
	// itself on transport.ChanBRB.
	Mux *transport.Mux
	// Self is this replica's identity.
	Self types.ReplicaID
	// Peers lists all replicas participating in the broadcast group
	// (including Self). For sharded deployments this is the shard.
	Peers []types.ReplicaID
	// F is the number of Byzantine replicas tolerated; len(Peers) must be
	// at least 3F+1.
	F int
	// Validator is the external-validity hook; nil accepts everything.
	Validator Validator
	// Deliver receives delivered payloads. Must be non-nil.
	Deliver DeliverFunc

	// Auth authenticates links with pairwise MACs (Astro I). Optional;
	// when set, every protocol message carries an HMAC tag, costing the
	// MAC computation the paper attributes to Bracha's protocol.
	Auth *crypto.LinkAuthenticator

	// Keys and Registry supply the signing key and peer public keys for
	// the signature-based protocol (required by Signed, ignored by
	// Bracha).
	Keys     *crypto.KeyPair
	Registry *crypto.Registry

	// Verifier is the worker pool the signature-based protocol uses to
	// verify ack signatures and commit certificates off the transport
	// dispatch goroutine. Nil selects the shared process-wide pool
	// (verifier.Default). Ignored by Bracha, which verifies nothing.
	Verifier *verifier.Verifier

	// FirstSlot seeds this replica's own broadcast sequence: the first
	// Broadcast is assigned FirstSlot+1. A replica restarting from a WAL
	// sets it to the highest slot it ever reserved, so it never reuses a
	// slot its peers may already have acknowledged under a different
	// payload (they would silently refuse the second digest). Zero — the
	// default — starts at slot 1.
	FirstSlot uint64

	// Unordered switches delivery from per-origin slot order to arrival
	// order (Signed only). A replica recovering from a crash cannot rely
	// on peers retransmitting commits for slots delivered while it was
	// down — the signed protocol has no retransmission — so insisting on
	// per-origin FIFO would wedge every origin with a gap. The payment
	// layer's settlement engine orders payments by client sequence number
	// independently, so it tolerates out-of-order slot delivery; only a
	// recovering replica should set this.
	Unordered bool

	// CommitSpawn selects the PR 1–8 goroutine-per-commit coordinators
	// (Signed only): each inbound commit spawns a goroutine that blocks on
	// the fanned-out certificate verification. Off — the default — commit
	// verification is continuation-style: the completion callback re-enters
	// the FIFO delivery drain on whichever lane finishes the tally, and
	// steady-state settlement spawns zero goroutines per commit. Kept as
	// the measured baseline, per the PR 1–5 convention.
	CommitSpawn bool
}

// Errors returned by Broadcast.
var (
	ErrNoQuorum  = errors.New("brb: fewer than 3f+1 peers")
	ErrNoDeliver = errors.New("brb: Deliver callback not set")
)

func (c *Config) validate() error {
	if len(c.Peers) < 3*c.F+1 {
		return ErrNoQuorum
	}
	if c.Deliver == nil {
		return ErrNoDeliver
	}
	return nil
}

func (c *Config) quorum() int { return 2*c.F + 1 }

// instanceID identifies one broadcast instance.
type instanceID struct {
	origin types.ReplicaID
	slot   uint64
}

// Message kinds on ChanBRB.
const (
	kindPrepare byte = 1
	kindEcho    byte = 2
	kindReady   byte = 3
	kindAck     byte = 4
	kindCommit  byte = 5
	// Batch-level ack signing (Signed only): one signature over a hash
	// chain of pending instances. See ackchain.go.
	kindAckBatch byte = 6
	// Kinds 7–10 are retired and must not be reused: a frame of one of
	// them is ignored, never misread as another message.
	//
	// Tabled commit (Signed only): a commit whose certificate carries chain
	// signatures, interning each distinct chain once in a message-level
	// table. See committab.go.
	kindCommitTab byte = 11
)

// headerSize is the fixed prefix of every BRB message: kind, origin, slot.
const headerSize = 1 + 4 + 8

// appendHeader writes the common message prefix.
func appendHeader(w *wire.Writer, kind byte, origin types.ReplicaID, slot uint64) {
	w.U8(kind)
	w.U32(uint32(origin))
	w.U64(slot)
}

// payloadMsgSize is the exact size of a PREPARE/ECHO/READY message.
func payloadMsgSize(payload []byte) int { return headerSize + 4 + len(payload) }

func appendPayloadMsg(w *wire.Writer, kind byte, origin types.ReplicaID, slot uint64, payload []byte) {
	appendHeader(w, kind, origin, slot)
	w.Chunk(payload)
}

// EncodePrepare encodes a PREPARE message. Exported for tests that forge
// Byzantine traffic.
func EncodePrepare(origin types.ReplicaID, slot uint64, payload []byte) []byte {
	w := wire.NewWriter(payloadMsgSize(payload))
	appendPayloadMsg(w, kindPrepare, origin, slot, payload)
	return w.Bytes()
}

// EncodeEcho encodes an ECHO message (Bracha). Exported for tests.
func EncodeEcho(origin types.ReplicaID, slot uint64, payload []byte) []byte {
	w := wire.NewWriter(payloadMsgSize(payload))
	appendPayloadMsg(w, kindEcho, origin, slot, payload)
	return w.Bytes()
}

// EncodeReady encodes a READY message (Bracha). Exported for tests.
func EncodeReady(origin types.ReplicaID, slot uint64, payload []byte) []byte {
	w := wire.NewWriter(payloadMsgSize(payload))
	appendPayloadMsg(w, kindReady, origin, slot, payload)
	return w.Bytes()
}

// ackSize is the exact size of an ACK message.
func ackSize(sig []byte) int { return headerSize + 32 + 4 + len(sig) }

func appendAck(w *wire.Writer, origin types.ReplicaID, slot uint64, digest types.Digest, sig []byte) {
	appendHeader(w, kindAck, origin, slot)
	w.Bytes32(digest)
	w.Chunk(sig)
}

// EncodeAck encodes an ACK message (Signed). Exported for tests.
func EncodeAck(origin types.ReplicaID, slot uint64, digest types.Digest, sig []byte) []byte {
	w := wire.NewWriter(ackSize(sig))
	appendAck(w, origin, slot, digest, sig)
	return w.Bytes()
}

// commitSize is the exact size of a COMMIT message.
func commitSize(payload []byte, cert crypto.Certificate) int {
	return headerSize + 4 + len(payload) + crypto.CertificateSize(cert)
}

func appendCommit(w *wire.Writer, origin types.ReplicaID, slot uint64, payload []byte, cert crypto.Certificate) {
	appendHeader(w, kindCommit, origin, slot)
	w.Chunk(payload)
	crypto.EncodeCertificate(w, cert)
}

// EncodeCommit encodes a COMMIT message (Signed). Exported for tests.
func EncodeCommit(origin types.ReplicaID, slot uint64, payload []byte, cert crypto.Certificate) []byte {
	w := wire.NewWriter(commitSize(payload, cert))
	appendCommit(w, origin, slot, payload, cert)
	return w.Bytes()
}

// SignedDigest computes the digest a replica signs when acknowledging an
// instance in the signature-based protocol. The domain byte prevents
// cross-protocol signature reuse.
func SignedDigest(origin types.ReplicaID, slot uint64, payload []byte) types.Digest {
	ph := types.HashBytes(payload)
	w := wire.AcquireWriter(1 + 4 + 8 + 32)
	defer w.Release()
	w.U8(0x42) // domain: brb-ack
	w.U32(uint32(origin))
	w.U64(slot)
	w.Bytes32(ph)
	return types.HashBytes(w.Bytes())
}

// fifo tracks per-origin delivery order, buffering out-of-order deliveries.
type fifo struct {
	delivered map[types.ReplicaID]uint64
	pending   map[instanceID][]byte
}

func newFIFO() *fifo {
	return &fifo{
		delivered: make(map[types.ReplicaID]uint64),
		pending:   make(map[instanceID][]byte),
	}
}

// ready records a deliverable payload and returns the consecutive run now
// deliverable for that origin, in slot order.
type delivery struct {
	origin  types.ReplicaID
	slot    uint64
	payload []byte
}

func (f *fifo) ready(id instanceID, payload []byte) []delivery {
	if id.slot <= f.delivered[id.origin] {
		return nil // stale duplicate
	}
	if _, dup := f.pending[id]; dup {
		return nil
	}
	f.pending[id] = payload
	var out []delivery
	next := f.delivered[id.origin] + 1
	for {
		p, ok := f.pending[instanceID{origin: id.origin, slot: next}]
		if !ok {
			break
		}
		delete(f.pending, instanceID{origin: id.origin, slot: next})
		out = append(out, delivery{origin: id.origin, slot: next, payload: p})
		f.delivered[id.origin] = next
		next++
	}
	return out
}
