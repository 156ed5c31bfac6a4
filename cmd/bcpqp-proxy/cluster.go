// Cluster wiring for bcpqp-proxy: N proxies form a peer group that
// enforces the -rate bound CLUSTER-WIDE for the proxy aggregate when
// -shared is set. Each node starts at the conservative static share r/N
// and the budget exchange reclaims headroom from idle peers; on partition,
// silence or corruption every node is back at r/N within one exchange
// window, so the group can only ever under-admit, never over-admit.
//
//	bcpqp-proxy -listen :9000 -forward sink:9001 -rate 90 -shared \
//	    -node-id a -cluster-listen :7400 \
//	    -peers b=10.0.0.2:7400,c=10.0.0.3:7400
//
// The admin listener (-http) then serves /cluster with whether each peer's
// grants are honored and per-aggregate shares, /healthz reports degraded:true (still 200) while
// the exchange is on fallback shares, and /metrics carries the
// bcpqp_peer_* / bcpqp_cluster_* families.
package main

import (
	"fmt"
	"strings"

	"bcpqp"
)

// clusterOpts carries the parsed cluster flags into serve.
type clusterOpts struct {
	nodeID string
	peers  map[string]string // peer ID → host:port
	listen string            // exchange UDP listener
	shared bool              // enforce the plan rate cluster-wide
	key    string            // shared frame-authentication secret ("" = trusted net)
}

func (o clusterOpts) enabled() bool { return o.nodeID != "" }

// parsePeers parses the -peers flag: comma-separated id=host:port entries.
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	if s == "" {
		return peers, nil
	}
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, addr, ok := strings.Cut(entry, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("-peers entry %q: want id=host:port", entry)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("-peers: duplicate peer id %q", id)
		}
		peers[id] = addr
	}
	return peers, nil
}

// startCluster assembles the exchange: UDP transport, cluster node over the
// engine's core aggregates, metric attachment, receive loop, tick loop. The
// returned stop function tears everything down in reverse order.
//
// With o.shared the cluster enforces rate over one aggregate, "proxy",
// whatever the core count: what it observes is the sum over ids (the cores'
// aggregates) and a share it grants lands as share/len(ids) on each — the
// static split the plan rate got, so a node's cores together never exceed
// its share.
func startCluster(mb *bcpqp.Middlebox, col *bcpqp.Collector, ids []string, rate bcpqp.Rate, o clusterOpts) (*bcpqp.ClusterNode, func(), error) {
	tr, err := bcpqp.NewClusterTransport(o.listen, o.peers)
	if err != nil {
		return nil, nil, err
	}
	peerIDs := make([]string, 0, len(o.peers))
	for id := range o.peers {
		peerIDs = append(peerIDs, id)
	}
	apply := func(share bcpqp.Rate, fallback bool) error {
		var first error
		for _, id := range ids {
			if err := mb.ApplyShare(id, share/bcpqp.Rate(len(ids)), fallback); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var shared []bcpqp.SharedAggregate
	if o.shared {
		shared = append(shared, bcpqp.SharedAggregate{
			ID:   proxyAggregate,
			Rate: rate,
			Observed: func() (int64, bool) {
				var sum int64
				for _, id := range ids {
					st, err := mb.Stats(id)
					if err != nil {
						return 0, false
					}
					sum += st.AcceptedBytes
				}
				return sum, true
			},
			Apply: apply,
		})
	}
	cfg := bcpqp.ClusterConfig{
		Self:      o.nodeID,
		Peers:     peerIDs,
		Transport: tr,
		Key:       []byte(o.key), // empty: frames go unauthenticated
	}
	if col != nil { // a typed-nil Recorder would defeat the node's nil check
		cfg.Recorder = col
	}
	node, err := bcpqp.NewClusterNode(cfg, shared)
	if err != nil {
		tr.Close()
		return nil, nil, err
	}
	if o.shared && len(peerIDs) > 0 {
		// Pull the engine down to the conservative static share BEFORE any
		// traffic and before the exchange starts: the enforcers were built
		// to the full global rate, and safety requires every node to begin
		// at r/N — headroom is reclaimed by grants, never assumed.
		floor := rate / bcpqp.Rate(len(peerIDs)+1)
		if err := apply(floor, true); err != nil {
			node.Close()
			tr.Close()
			return nil, nil, fmt.Errorf("apply initial share: %w", err)
		}
	}
	tr.Start(node.Deliver)
	mb.AttachMetricSource(node.MetricFamilies)
	node.Run()
	stop := func() {
		node.Close()
		tr.Close()
	}
	return node, stop, nil
}
