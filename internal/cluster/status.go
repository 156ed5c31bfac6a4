// Operational surface: structured cluster status for the proxy's /cluster
// endpoint and Prometheus metric families (per-peer honored gauge,
// last-exchange age, exchange hygiene counters, per-aggregate shares) for
// appending to the engine's /metrics exposition.
package cluster

import (
	"time"

	"bcpqp/internal/obs"
	"bcpqp/internal/units"
)

// PeerStatus is one peer's exchange view and hygiene.
type PeerStatus struct {
	ID string
	// Honored is whether the last Rebalance counted this peer's grants: its
	// newest report was fresh (within 1.5 windows) and echoed a recent
	// sequence number of ours. Any shared aggregate is on its fallback
	// floor exactly while some peer is not honored.
	Honored         bool
	LastExchangeAge time.Duration // -1 until the first valid report
	Epoch           uint64        // boot incarnation of the newest report
	LastSeq         uint64
	Reports         int64 // valid reports accepted
	Stale           int64 // duplicates / old-incarnation / reordered-behind dropped
}

// AggStatus is one shared aggregate's exchange state on this node.
type AggStatus struct {
	ID         string
	Rate       units.Rate // global bound r
	Floor      units.Rate // static fallback share r/N
	Observed   units.Rate // local accept rate, last window
	Applied    units.Rate // share currently enforced locally
	GrantedIn  units.Rate // honored inbound grants at last rebalance
	GrantedOut units.Rate // budget held back for grantees
	Fallback   bool       // enforcing the conservative floor (degraded)

	// Conformance roll-up (updated every Rebalance tick).
	SumApplied  units.Rate         // local share + Σ newest peer-reported applied
	Overcommits int64              // ticks where SumApplied exceeded Rate (+0.1%)
	GrantChurn  int64              // (tick, peer) slots whose planned grant changed
	Convergence obs.DigestSnapshot // share-convergence episode durations, ns
}

// Status is a point-in-time view of the node for operators.
type Status struct {
	Self      string
	Epoch     uint64
	Seq       uint64
	Window    time.Duration
	Peers     []PeerStatus
	Shared    []AggStatus
	BadFrames int64
	Degraded  bool
	// MaxReportAge is the oldest LastExchangeAge across peers (-1 when no
	// peer has ever reported): the staleness bound on every cluster-wide
	// conformance figure derived from peer reports.
	MaxReportAge time.Duration
}

// Status captures the node's current exchange state.
func (n *Node) Status() Status {
	now := n.cfg.Clock()
	n.mu.Lock()
	defer n.mu.Unlock()
	st := Status{
		Self:      n.cfg.Self,
		Epoch:     n.epoch,
		Seq:       n.seq,
		Window:    n.cfg.Window,
		BadFrames: n.badFrames,
	}
	st.MaxReportAge = -1
	for _, p := range n.peerList {
		age := time.Duration(-1)
		if p.everHeard {
			age = now - p.lastHeard
		}
		if age > st.MaxReportAge {
			st.MaxReportAge = age
		}
		st.Peers = append(st.Peers, PeerStatus{
			ID: p.id, Honored: p.honored, LastExchangeAge: age,
			Epoch: p.epoch, LastSeq: p.lastSeq, Reports: p.reports, Stale: p.stale,
		})
	}
	for _, id := range n.sharedIDs {
		s := n.shared[id]
		st.Shared = append(st.Shared, AggStatus{
			ID: id, Rate: s.cfg.Rate, Floor: s.floor,
			Observed: s.observed, Applied: s.applied,
			GrantedIn: s.grantedIn, GrantedOut: heldOut(s.grantOut, len(n.peerList)),
			Fallback:   s.fallback,
			SumApplied: s.sumApplied, Overcommits: s.overcommits,
			GrantChurn: s.grantChurn, Convergence: s.convD.Snapshot(),
		})
		if s.fallback {
			st.Degraded = true
		}
	}
	return st
}

// MetricFamilies renders the node's exchange state as Prometheus metric
// families, ready to append to the engine's Metrics snapshot so one
// /metrics scrape covers datapath and cluster alike.
func (n *Node) MetricFamilies() []obs.Family {
	st := n.Status()
	peerHonored := obs.Family{
		Name: "bcpqp_peer_honored", Type: "gauge",
		Help: "1 while the peer's budget grants are honored (its newest report is fresh and echo-valid); grants count only while it reads 1.",
	}
	peerAge := obs.Family{
		Name: "bcpqp_peer_last_exchange_age_seconds", Type: "gauge",
		Help: "Seconds since the last valid budget-exchange report from the peer (-1 before the first).",
	}
	peerReports := obs.Family{
		Name: "bcpqp_peer_reports_total", Type: "counter",
		Help: "Valid budget-exchange reports accepted from the peer.",
	}
	peerStale := obs.Family{
		Name: "bcpqp_peer_stale_reports_total", Type: "counter",
		Help: "Duplicate or reordered-behind reports dropped by sequence number.",
	}
	for _, p := range st.Peers {
		lbl := []obs.Label{{Name: "peer", Value: p.ID}}
		honored := 0.0
		if p.Honored {
			honored = 1
		}
		peerHonored.Samples = append(peerHonored.Samples, obs.Sample{Labels: lbl, Value: honored})
		peerAge.Samples = append(peerAge.Samples, obs.Sample{Labels: lbl, Value: p.LastExchangeAge.Seconds()})
		peerReports.Samples = append(peerReports.Samples, obs.Sample{Labels: lbl, Value: float64(p.Reports)})
		peerStale.Samples = append(peerStale.Samples, obs.Sample{Labels: lbl, Value: float64(p.Stale)})
	}
	share := obs.Family{
		Name: "bcpqp_cluster_share_bps", Type: "gauge",
		Help: "Locally enforced share of the shared aggregate's global rate, bits/sec.",
	}
	fallback := obs.Family{
		Name: "bcpqp_cluster_fallback", Type: "gauge",
		Help: "1 when the aggregate is on its conservative static r/N share because the exchange is degraded.",
	}
	grantedIn := obs.Family{
		Name: "bcpqp_cluster_granted_in_bps", Type: "gauge",
		Help: "Honored inbound budget grants, bits/sec.",
	}
	grantedOut := obs.Family{
		Name: "bcpqp_cluster_granted_out_bps", Type: "gauge",
		Help: "Budget held back for grants ceded to peers, bits/sec.",
	}
	sumApplied := obs.Family{
		Name: "bcpqp_cluster_conformance_applied_sum_bps", Type: "gauge",
		Help: "Cluster-wide sum of applied shares (local + newest peer reports), bits/sec.",
	}
	bound := obs.Family{
		Name: "bcpqp_cluster_conformance_bound_bps", Type: "gauge",
		Help: "The shared aggregate's global rate bound r, bits/sec.",
	}
	headroom := obs.Family{
		Name: "bcpqp_cluster_conformance_headroom_bps", Type: "gauge",
		Help: "Global bound minus the cluster-wide applied sum (negative = overcommitted), bits/sec.",
	}
	overcommit := obs.Family{
		Name: "bcpqp_cluster_conformance_overcommit_windows_total", Type: "counter",
		Help: "Exchange ticks where the cluster-wide applied sum exceeded the global bound (+0.1% tolerance).",
	}
	churn := obs.Family{
		Name: "bcpqp_cluster_grant_churn_total", Type: "counter",
		Help: "Per-peer planned-grant changes across rebalance ticks (grant-calculus stability).",
	}
	var convAcc obs.DigestSnapshot
	for _, a := range st.Shared {
		lbl := []obs.Label{{Name: "aggregate", Value: a.ID}}
		share.Samples = append(share.Samples, obs.Sample{Labels: lbl, Value: float64(a.Applied)})
		fb := 0.0
		if a.Fallback {
			fb = 1
		}
		fallback.Samples = append(fallback.Samples, obs.Sample{Labels: lbl, Value: fb})
		grantedIn.Samples = append(grantedIn.Samples, obs.Sample{Labels: lbl, Value: float64(a.GrantedIn)})
		grantedOut.Samples = append(grantedOut.Samples, obs.Sample{Labels: lbl, Value: float64(a.GrantedOut)})
		sumApplied.Samples = append(sumApplied.Samples, obs.Sample{Labels: lbl, Value: float64(a.SumApplied)})
		bound.Samples = append(bound.Samples, obs.Sample{Labels: lbl, Value: float64(a.Rate)})
		headroom.Samples = append(headroom.Samples, obs.Sample{Labels: lbl, Value: float64(a.Rate - a.SumApplied)})
		overcommit.Samples = append(overcommit.Samples, obs.Sample{Labels: lbl, Value: float64(a.Overcommits)})
		churn.Samples = append(churn.Samples, obs.Sample{Labels: lbl, Value: float64(a.GrantChurn)})
		convAcc = convAcc.Merge(a.Convergence)
	}
	reportAge := obs.Family{
		Name: "bcpqp_cluster_report_age_max_seconds", Type: "gauge",
		Help:    "Age of the stalest peer report feeding the conformance roll-up (-1 before any report).",
		Samples: []obs.Sample{{Value: st.MaxReportAge.Seconds()}},
	}
	convHist := convAcc.Hist(1e-9)
	convergence := obs.Family{
		Name: "bcpqp_cluster_convergence_seconds", Type: "histogram",
		Help:    "Share-convergence episode durations: from a share change to the next unchanged rebalance tick.",
		Samples: []obs.Sample{{Hist: &convHist}},
	}
	hygiene := obs.Family{
		Name: "bcpqp_cluster_bad_frames_total", Type: "counter",
		Help:    "Frames rejected by the wire decoder or from unknown senders.",
		Samples: []obs.Sample{{Value: float64(st.BadFrames)}},
	}
	return []obs.Family{peerHonored, peerAge, peerReports, peerStale,
		share, fallback, grantedIn, grantedOut,
		sumApplied, bound, headroom, overcommit, churn, reportAge, convergence,
		hygiene}
}
