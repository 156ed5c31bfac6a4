// Distributed enforcement facade: the public surface of internal/cluster.
// N middleboxes form a peer group, and aggregates marked shared are
// enforced everywhere at once under a global bound split into per-node
// shares by a partition-tolerant budget exchange on the paper's 250 ms
// window (see DESIGN.md "Distributed enforcement" for the protocol and its
// safety argument).
//
// Wiring, in the order a caller assembles it:
//
//	tr, _ := bcpqp.NewClusterTransport(":7400", map[string]string{"b": "10.0.0.2:7400"})
//	node, _ := bcpqp.NewClusterNode(bcpqp.ClusterConfig{
//	        Self: "a", Peers: []string{"b"}, Transport: tr,
//	}, []bcpqp.SharedAggregate{{
//	        ID:       "tenant-1",
//	        Rate:     100 * bcpqp.Mbps,
//	        Observed: func() (int64, bool) { s, err := mb.Stats("tenant-1"); return s.AcceptedBytes, err == nil },
//	        Apply:    func(r bcpqp.Rate, fb bool) error { return mb.ApplyShare("tenant-1", r, fb) },
//	}})
//	tr.Start(node.Deliver)
//	mb.AttachMetricSource(node.MetricFamilies)
//	node.Run()
package bcpqp

import "bcpqp/internal/cluster"

// ClusterNode runs the budget exchange for one middlebox: peer liveness and
// share rebalancing through the in-band Middlebox.ApplyShare lane.
type ClusterNode = cluster.Node

// ClusterConfig configures a ClusterNode (self/peer IDs, the exchange
// window, transport, clock, trace recorder, frame key, boot epoch).
type ClusterConfig = cluster.Config

// SharedAggregate wires one cluster-enforced aggregate to the engine via
// callbacks: Observed (accepted-byte counter) and Apply (share
// enforcement).
type SharedAggregate = cluster.SharedAggregate

// ClusterStatus is a point-in-time operator view from ClusterNode.Status
// (served as JSON on the proxy's /cluster endpoint).
type ClusterStatus = cluster.Status

// ClusterPeerStatus is one peer's liveness and exchange hygiene.
type ClusterPeerStatus = cluster.PeerStatus

// ClusterAggStatus is one shared aggregate's exchange state.
type ClusterAggStatus = cluster.AggStatus

// PeerState is one rung of the peer liveness ladder.
type PeerState = cluster.PeerState

// Peer liveness states: a valid report within 3 exchange windows keeps a
// peer alive; silence degrades it to suspect, then after 10 windows to dead,
// and any valid report resurrects it.
const (
	PeerAlive   = cluster.PeerAlive
	PeerSuspect = cluster.PeerSuspect
	PeerDead    = cluster.PeerDead
)

// ClusterTransport delivers budget-exchange frames between nodes.
type ClusterTransport = cluster.Transport

// NewClusterNode builds a node over a fixed peer set and shared aggregate
// list. The transport's receive path must be wired to Node.Deliver before
// Run.
func NewClusterNode(cfg ClusterConfig, shared []SharedAggregate) (*ClusterNode, error) {
	return cluster.New(cfg, shared)
}

// NewClusterTransport binds a UDP listener and resolves the peer address
// map (peer ID → host:port). Call Start(node.Deliver) to receive and Close
// to release the socket.
func NewClusterTransport(listen string, peers map[string]string) (*cluster.UDPTransport, error) {
	return cluster.NewUDPTransport(listen, peers)
}
