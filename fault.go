package astro

// Robustness surface of the facade: Byzantine fault injection, network
// chaos and partitions, and the always-on invariant auditor. Everything
// here wraps internal/sim and internal/transport/chaos without leaking
// their types beyond aliases.

import (
	"fmt"
	"time"

	"astro/internal/sim"
	"astro/internal/transport"
	"astro/internal/transport/chaos"
)

// Byzantine fault kinds accepted by InjectFault. Each arms a malicious
// wire behavior on one replica; correct replicas tolerate any f of them
// with zero invariant violations.
const (
	// FaultEquivocate sends conflicting PREPAREs for the same log slot to
	// different peers — the double-spend attack BRB exists to stop.
	FaultEquivocate = string(sim.FaultEquivocate)
	// FaultWithholdCommits suppresses outbound commits (COMMIT and
	// COMMITTAB) so peers must complete certificates from the other 2f+1
	// replicas.
	FaultWithholdCommits = string(sim.FaultWithholdCommits)
	// FaultForgeRefs corrupts credit-channel chain-by-digest reference
	// digests on the wire, forcing NACK fallbacks and forged-reference
	// rejections.
	FaultForgeRefs = string(sim.FaultForgeRefs)
	// FaultNackStorm answers every credit reference with a NACK, probing
	// the bounded-retransmit guarantee.
	FaultNackStorm = string(sim.FaultNackStorm)
	// FaultStaleView spams stale-view and forged-install reconfiguration
	// messages at the membership managers.
	FaultStaleView = string(sim.FaultStaleView)
)

// ChaosProfile configures a seeded chaos controller interposed on every
// link of the deployment. All probabilities are per frame in [0,1]; the
// seed fixes every draw, so a chaotic run is reproducible.
type ChaosProfile struct {
	Seed      uint64
	Drop      float64       // silently drop the frame
	Corrupt   float64       // flip one byte of the frame
	Duplicate float64       // deliver the frame twice
	Reorder   float64       // hold a delayed frame back further
	DelayMin  time.Duration // uniform extra delay lower bound
	DelayMax  time.Duration // uniform extra delay upper bound

	// Rule, when non-empty, replaces the per-field probabilities above
	// with the chaos mini-language — the same dialect cmd/astro-node's
	// -chaos flag speaks, so a rule from a runbook drops in verbatim:
	//
	//	"drop=0.03,corrupt=0.01,dup=0.02,delay=200us-2ms"
	Rule string
	// Schedule arms timed phases — rule changes, partitions, heals —
	// with offsets relative to New (cmd/astro-node's -chaos-schedule):
	//
	//	"300ms:part=0 1|2 3;1200ms:heal;1500ms:drop=0.05;3s:clear"
	//
	// Unfired phases are cancelled by Close.
	Schedule string
}

// ChaosStats counts the perturbations a chaos controller has applied.
type ChaosStats = chaos.Stats

// InvariantReport is the result of an audit window: how many sampling
// passes ran and every invariant violation observed, formatted
// "[invariant] replica R client C: detail".
type InvariantReport struct {
	Samples    int
	Violations []string
}

// InjectFault arms a Byzantine wire behavior (one of the Fault…
// constants) on a replica. The replica keeps running its honest protocol
// underneath; the behavior interposes on its frames. At most one behavior
// is armed per replica — injecting again replaces it.
func (s *System) InjectFault(id ReplicaID, kind string) error {
	return s.cluster.ArmFault(id, sim.FaultKind(kind))
}

// ClearFault disarms a replica's Byzantine behavior.
func (s *System) ClearFault(id ReplicaID) error {
	return s.cluster.SetBehavior(id, nil)
}

// Partition splits the replicas into isolated groups: frames between
// different groups are dropped, frames within a group flow normally.
// Replicas not named in any group are unaffected. Heal with HealPartition.
func (s *System) Partition(groups ...[]ReplicaID) {
	nodeGroups := make([][]transport.NodeID, len(groups))
	for i, g := range groups {
		for _, id := range g {
			nodeGroups[i] = append(nodeGroups[i], transport.ReplicaNode(id))
		}
	}
	s.cluster.Net.Partition(nodeGroups...)
}

// HealPartition removes a partition installed by Partition.
func (s *System) HealPartition() { s.cluster.Net.HealPartition() }

// SetLinkDelay adds a fixed extra one-way delay on the directed link
// from one replica to another — asymmetric degradation, like tc netem on
// a single direction. Zero removes the override.
func (s *System) SetLinkDelay(from, to ReplicaID, d time.Duration) {
	s.cluster.Net.SetLinkDelay(transport.ReplicaNode(from), transport.ReplicaNode(to), d)
}

// ChaosStats returns the perturbation counters of the chaos controller
// configured via Options.Chaos, or an error if the system runs without
// chaos.
func (s *System) ChaosStats() (ChaosStats, error) {
	if s.chaos == nil {
		return ChaosStats{}, fmt.Errorf("astro: system built without Options.Chaos")
	}
	return s.chaos.Stats(), nil
}

// StartAudit begins continuous invariant auditing over the given clients:
// conservation-of-money, per-client FIFO logs, no duplicate settlements,
// and cross-replica agreement, sampled from outside the protocol. Replicas
// listed as faulty are excluded from the correctness checks (their state
// is allowed to lie). The returned stop function ends the audit and
// returns the report; crash-stopped replicas are skipped per sample.
func (s *System) StartAudit(clients []ClientID, faulty ...ReplicaID) (stop func() InvariantReport) {
	fm := make(map[ReplicaID]bool, len(faulty))
	for _, id := range faulty {
		fm[id] = true
	}
	aud := s.cluster.NewAuditor(sim.AuditorConfig{
		Clients: clients,
		Genesis: s.genesis,
		Faulty:  fm,
	})
	aud.Start()
	return func() InvariantReport {
		rep := aud.Stop()
		out := InvariantReport{Samples: rep.Samples}
		for _, v := range rep.Violations {
			out.Violations = append(out.Violations, v.String())
		}
		return out
	}
}
