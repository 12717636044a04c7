package main

// The correctness gate, run on every run after the deployment quiesces:
// the repository's invariant battery over every replica's state, plus
// the benchmark's own check that every confirmed payment is settled, as
// sent, by a commit quorum of its spender's shard.

import (
	"fmt"
	"slices"

	"astro/internal/core"
	"astro/internal/sim"
	"astro/internal/types"
)

// auditReport is the gate's verdict.
type auditReport struct {
	violations int
	notes      []string
	// gap is how many settled payments the restarted replica still
	// lacks relative to the longest xlog of its shard.
	gap int
}

func (a auditReport) ok() bool { return a.violations == 0 }

func (a *auditReport) fail(format string, args ...any) {
	a.violations++
	if len(a.notes) < 8 {
		a.notes = append(a.notes, "audit: "+fmt.Sprintf(format, args...))
	}
}

func audit(d *deployment, tr *tracker) auditReport {
	var rep auditReport
	exports := make(map[types.ReplicaID][]core.AccountExport)
	for _, id := range d.c.ReplicaIDs() {
		r := d.c.Replica(id)
		if r == nil || d.c.Crashed(id) {
			rep.fail("replica %d is down at quiesce", id)
			continue
		}
		exports[id] = r.AuditExport()
	}
	for _, v := range sim.AuditExports(core.AstroII, genesis, exports) {
		rep.fail("%s", v)
	}

	xlogs := make(map[types.ReplicaID]map[types.ClientID][]types.Payment, len(exports))
	for id, accts := range exports {
		m := make(map[types.ClientID][]types.Payment, len(accts))
		for _, a := range accts {
			m[a.Client] = a.XLog
		}
		xlogs[id] = m
	}
	quorum := d.c.Quorum()
	for _, c := range d.ids {
		a := tr.accts[c]
		members := d.c.Topology.Replicas(d.c.Topology.ShardOf(c))
		a.mu.Lock()
		sent := slices.Clone(a.pays)
		conf := a.conf
		a.mu.Unlock()

		held := make([]int, 0, len(members))
		victimHeld := -1
		for _, r := range members {
			n, err := matchPrefix(c, sent, xlogs[r][c])
			if err != nil {
				rep.fail("replica %d client %d: %v", r, c, err)
			}
			held = append(held, n)
			if r == victim {
				victimHeld = n
			}
		}
		slices.Sort(held)
		if victimHeld >= 0 {
			rep.gap += held[len(held)-1] - victimHeld
		}
		// The quorum-th largest prefix must cover every confirmed seq.
		if got := held[len(held)-quorum]; got < conf {
			rep.fail("client %d: %d payments confirmed, only %d settled at %d replicas", c, conf, got, quorum)
		}
	}
	return rep
}

// matchPrefix returns how many leading entries of xlog equal the
// payments the benchmark issued for client c, and an error if the log
// holds a payment that differs from the one issued or was never issued.
func matchPrefix(c types.ClientID, sent []payment, xlog []types.Payment) (int, error) {
	for i, p := range xlog {
		if i >= len(sent) {
			return i, fmt.Errorf("xlog holds seq %d, beyond the %d payments issued", p.Seq, len(sent))
		}
		want := types.Payment{Spender: c, Seq: types.Seq(i + 1), Beneficiary: sent[i].ben, Amount: sent[i].amount}
		if p != want {
			return i, fmt.Errorf("xlog[%d] = %v, issued %v", i, p, want)
		}
	}
	return len(xlog), nil
}
