package types

import "sync/atomic"

// RefStats counts one replica's credit-channel chain-reference traffic:
// CHAINDEF / reference / NACK counters (core.CreditRefStats aliases it,
// and the sim harness aggregates it cluster-wide).
type RefStats struct {
	// DefsSent / RefsSent / FullSends count outbound chain definitions,
	// reference-form sends, and self-contained legacy sends (including
	// NACK-triggered retransmits).
	DefsSent, RefsSent, FullSends uint64
	// RefHits / RefMisses count inbound reference resolutions against the
	// receiver's chain cache.
	RefHits, RefMisses uint64
	// NacksSent / NacksReceived count the fallback round trips.
	NacksSent, NacksReceived uint64
	// DefsDeferred counts chain definitions withheld by the lazy-CHAINDEF
	// mode (PR 9): a reference was sent where the eager mode would also
	// have sent the definition. DefsDemanded counts definitions later sent
	// because a NACK demanded them; Deferred − Demanded is the definition
	// traffic the receivers never needed.
	DefsDeferred, DefsDemanded uint64
}

// Add accumulates other into s (for cluster-wide aggregation).
func (s *RefStats) Add(other RefStats) {
	s.DefsSent += other.DefsSent
	s.RefsSent += other.RefsSent
	s.FullSends += other.FullSends
	s.RefHits += other.RefHits
	s.RefMisses += other.RefMisses
	s.NacksSent += other.NacksSent
	s.NacksReceived += other.NacksReceived
	s.DefsDeferred += other.DefsDeferred
	s.DefsDemanded += other.DefsDemanded
}

// RefCounters is the atomic backing of RefStats, embedded by the protocol
// state that updates it concurrently.
type RefCounters struct {
	DefsSent, RefsSent, FullSends atomic.Uint64
	RefHits, RefMisses            atomic.Uint64
	NacksSent, NacksReceived      atomic.Uint64
	DefsDeferred, DefsDemanded    atomic.Uint64
}

// Snapshot returns a consistent-enough copy of the counters (each field
// is read atomically; cross-field skew is fine for statistics).
func (c *RefCounters) Snapshot() RefStats {
	return RefStats{
		DefsSent:      c.DefsSent.Load(),
		RefsSent:      c.RefsSent.Load(),
		FullSends:     c.FullSends.Load(),
		RefHits:       c.RefHits.Load(),
		RefMisses:     c.RefMisses.Load(),
		NacksSent:     c.NacksSent.Load(),
		NacksReceived: c.NacksReceived.Load(),
		DefsDeferred:  c.DefsDeferred.Load(),
		DefsDemanded:  c.DefsDemanded.Load(),
	}
}
