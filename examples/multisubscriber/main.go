// Multisubscriber: a deployment-shaped example. A middlebox hosts many
// subscribers, each with its own BC-PQP enforcer, all under a shared
// link-level limit: one PolicyTree with the link as root and the subscribers
// as leaves — subscriber caps AND an aggregate cap, enforced bufferlessly
// with consistent accounting (two-phase admission: a packet is charged to
// its subscriber and to the link only when both admit it).
//
// Four 5 Mbps subscribers share a 12 Mbps link. All offer 8 Mbps. Each must
// be held to ≤5, the total to ≤12, and the link's spare split fairly.
//
// Run with: go run ./examples/multisubscriber
package main

import (
	"fmt"
	"time"

	"bcpqp"
)

func main() {
	const (
		subscribers = 4
		subRate     = 5 * bcpqp.Mbps
		linkRate    = 12 * bcpqp.Mbps
		offered     = 8 * bcpqp.Mbps
		duration    = 10 * time.Second
	)

	// The link level sees one class per subscriber so its capacity is
	// shared fairly when oversubscribed.
	link, err := bcpqp.NewBCPQP(bcpqp.BCPQPConfig{Rate: linkRate, Queues: subscribers})
	if err != nil {
		panic(err)
	}

	spec := []bcpqp.PolicyTreeNode{{Name: "link", Parent: -1, Stage: link}}
	for i := 0; i < subscribers; i++ {
		sub, err := bcpqp.NewBCPQP(bcpqp.BCPQPConfig{Rate: subRate, Queues: 1})
		if err != nil {
			panic(err)
		}
		spec = append(spec, bcpqp.PolicyTreeNode{Name: fmt.Sprintf("sub%d", i), Parent: 0, Stage: sub})
	}
	tree, err := bcpqp.NewPolicyTree(spec)
	if err != nil {
		panic(err)
	}

	// Every subscriber offers 8 Mbps of MSS packets.
	gap := offered.DurationForBytes(bcpqp.MSS)
	accepted := make([]int64, subscribers)
	for now := gap; now < duration; now += gap {
		for s := 0; s < subscribers; s++ {
			pkt := bcpqp.Packet{
				Key:   bcpqp.FlowKey{SrcIP: uint32(s + 1), SrcPort: 80, Proto: 6},
				Size:  bcpqp.MSS,
				Class: s, // the link's per-subscriber class
			}
			if tree.SubmitAt(now, bcpqp.NodeID(1+s), pkt) == bcpqp.Transmit {
				accepted[s] += bcpqp.MSS
			}
		}
	}

	fmt.Printf("%d subscribers (cap %v each) under a %v link; each offers %v\n\n",
		subscribers, subRate, linkRate, offered)
	var total float64
	for s, bytes := range accepted {
		mbps := float64(bytes) * 8 / duration.Seconds() / 1e6
		total += mbps
		fmt.Printf("  subscriber %d: %.2f Mbps\n", s, mbps)
	}
	fmt.Printf("  total:        %.2f Mbps (link cap %.0f)\n", total, linkRate.Mbps())
	fmt.Println("\nthe link level splits its 12 Mbps fairly (3 each), below every")
	fmt.Println("subscriber's own 5 Mbps cap; drop a subscriber offline and the")
	fmt.Println("others may rise to their caps.")
}
