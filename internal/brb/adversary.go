package brb

// Adversarial wire helpers: the pieces a Byzantine replica behavior
// (internal/sim) needs to inspect and forge BRB traffic without
// re-implementing the codecs. Everything here is wire-level only — no
// protocol state — so a behavior can interpose on raw frames at the
// transport boundary.

import (
	"astro/internal/crypto"
	"astro/internal/types"
	"astro/internal/wire"
)

// Exported message-kind bytes (first byte of every ChanBRB frame), for
// behaviors that dispatch on frame kind.
const (
	KindPrepare   = kindPrepare
	KindEcho      = kindEcho
	KindReady     = kindReady
	KindAck       = kindAck
	KindCommit    = kindCommit
	KindAckBatch  = kindAckBatch
	KindCommitTab = kindCommitTab
)

// FrameKind returns a frame's message-kind byte (0 for an empty frame).
func FrameKind(frame []byte) byte {
	if len(frame) == 0 {
		return 0
	}
	return frame[0]
}

// IsCommitKind reports whether kind carries a commit certificate in
// either of its wire forms (COMMIT or COMMITTAB) — the frames a
// commit-withholding adversary suppresses.
func IsCommitKind(kind byte) bool {
	return kind == kindCommit || kind == kindCommitTab
}

// DecodePrepare parses a PREPARE frame (kind byte included) into its
// instance coordinates and payload. The payload aliases the frame.
func DecodePrepare(frame []byte) (origin types.ReplicaID, slot uint64, payload []byte, ok bool) {
	r := wire.NewReader(frame)
	if r.U8() != kindPrepare {
		return 0, 0, nil, false
	}
	origin = types.ReplicaID(r.U32())
	slot = r.U64()
	payload = r.Chunk()
	if r.Err() != nil {
		return 0, 0, nil, false
	}
	return origin, slot, payload, true
}

// DecodeAck parses an ACK frame (kind byte included). The signature
// aliases the frame. The acking replica is not in the frame — endpoints
// identify senders by transport address.
func DecodeAck(frame []byte) (origin types.ReplicaID, slot uint64, digest types.Digest, sig []byte, ok bool) {
	r := wire.NewReader(frame)
	if r.U8() != kindAck {
		return 0, 0, types.Digest{}, nil, false
	}
	origin = types.ReplicaID(r.U32())
	slot = r.U64()
	digest = r.Bytes32()
	sig = r.Chunk()
	if r.Err() != nil {
		return 0, 0, types.Digest{}, nil, false
	}
	return origin, slot, digest, sig, true
}

// ForgeAck produces the ACK frame a colluding replica emits to endorse an
// arbitrary payload — including one that conflicts with a payload it
// already acknowledged, which an honest handlePrepare never does. The
// frame must be sent from the forger's own endpoint: receivers identify
// the acking replica by transport address.
func ForgeAck(kp *crypto.KeyPair, origin types.ReplicaID, slot uint64, payload []byte) ([]byte, error) {
	d := SignedDigest(origin, slot, payload)
	sig, err := kp.Sign(d)
	if err != nil {
		return nil, err
	}
	return EncodeAck(origin, slot, d, sig), nil
}
