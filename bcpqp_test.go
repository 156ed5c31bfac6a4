package bcpqp

import (
	"testing"
	"time"
)

func TestNewBCPQPDefaults(t *testing.T) {
	enf, err := NewBCPQP(BCPQPConfig{Rate: 15 * Mbps, Queues: 16})
	if err != nil {
		t.Fatal(err)
	}
	if enf.NumQueues() != 16 {
		t.Errorf("queues = %d", enf.NumQueues())
	}
	now := 10 * time.Millisecond
	pkt := Packet{
		Key:   FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6},
		Size:  MSS,
		Class: NoClass,
	}
	if v := enf.Submit(now, pkt); v != Transmit {
		t.Errorf("first packet: %v", v)
	}
	st := enf.EnforcerStats()
	if st.AcceptedPackets != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNewBCPQPRejectsBadConfig(t *testing.T) {
	if _, err := NewBCPQP(BCPQPConfig{Rate: 0, Queues: 4}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewBCPQP(BCPQPConfig{Rate: Mbps, Queues: 0}); err == nil {
		t.Error("zero queues accepted")
	}
	if _, err := NewBCPQP(BCPQPConfig{Rate: Mbps, Queues: 4, Policy: Fair(2)}); err == nil {
		t.Error("policy/queue mismatch accepted")
	}
}

func TestPolicyBuilders(t *testing.T) {
	p, err := NewPolicy(Priority(
		Weighted(Leaf(0).WithWeight(2), Leaf(1)),
		Leaf(2),
	))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumClasses() != 3 {
		t.Errorf("classes = %d", p.NumClasses())
	}
	enf, err := NewBCPQP(BCPQPConfig{Rate: 10 * Mbps, Queues: 3, Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	_ = enf
}

func TestBaselineConstructors(t *testing.T) {
	if _, err := NewPolicer(10*Mbps, 0, 50*time.Millisecond); err != nil {
		t.Errorf("NewPolicer: %v", err)
	}
	if _, err := NewFairPolicer(FairPolicerConfig{
		Rate: 10 * Mbps, Bucket: 100 * MSS, Flows: 8,
	}); err != nil {
		t.Errorf("NewFairPolicer: %v", err)
	}
	if _, err := NewPQP(10*Mbps, 4, nil, 0, 0); err != nil {
		t.Errorf("NewPQP: %v", err)
	}
}

func TestSizingHelpers(t *testing.T) {
	req := RenoQueueRequirement(10*Mbps, 100*time.Millisecond)
	rec := RecommendedQueueSize(10*Mbps, 100*time.Millisecond)
	if rec < 10*req {
		t.Errorf("recommended %d < 10× requirement %d", rec, req)
	}
}

func TestSimulationFacade(t *testing.T) {
	sim, err := NewSimulation(SimulationConfig{
		Scheme: SchemeBCPQP,
		Rate:   10 * Mbps,
		MaxRTT: 50 * time.Millisecond,
		Queues: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	meter := NewMeter(0)
	if _, err := sim.AttachFlow(SimFlowSpec{
		Key:   FlowKey{SrcIP: 1, SrcPort: 1, DstIP: 2, DstPort: 80, Proto: 6},
		Class: 0,
		CC:    "cubic",
		RTT:   20 * time.Millisecond,
		Start: 10 * time.Millisecond,
		OnDeliver: func(now time.Duration, b int) {
			meter.Add(now, 0, b)
		},
	}); err != nil {
		t.Fatal(err)
	}
	sim.Run(10 * time.Second)
	// Steady state: the last half of the run should deliver ≈ the
	// enforced rate (the first seconds contain slow-start recovery).
	wb := meter.WindowBytes(0)
	var steady int64
	for _, b := range wb[len(wb)/2:] {
		steady += b
	}
	span := time.Duration(len(wb)-len(wb)/2) * meter.Window()
	want := (10 * Mbps).Bytes(span)
	if float64(steady) < 0.8*want || float64(steady) > 1.2*want {
		t.Errorf("steady delivered %d over %v, want ≈%.0f", steady, span, want)
	}
	if j := Jain([]float64{1, 1}); j != 1 {
		t.Errorf("Jain = %v", j)
	}
}

func TestParseSchemeFacade(t *testing.T) {
	s, err := ParseScheme("bc-pqp")
	if err != nil || s != SchemeBCPQP {
		t.Errorf("ParseScheme: %v %v", s, err)
	}
}

func TestMiddleboxFacade(t *testing.T) {
	eng := NewMiddlebox(MiddleboxConfig{Shards: 2})
	defer eng.Close()
	enf, err := NewBCPQP(BCPQPConfig{Rate: 5 * Mbps, Queues: 4})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	h, err := eng.Add("sub-1", enf, func(p Packet) { delivered += p.Size })
	if err != nil {
		t.Fatal(err)
	}
	if h == NoAggregate {
		t.Fatal("Add returned no handle")
	}
	// Bursts of one, then a burst of six.
	for i := 0; i < 4; i++ {
		if err := eng.SubmitBatch(h, []Packet{{
			Key: FlowKey{SrcIP: 1, SrcPort: uint16(i), Proto: 6}, Size: MSS, Class: i % 4,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	burst := make([]Packet, 6)
	for i := range burst {
		burst[i] = Packet{Key: FlowKey{SrcIP: 1, SrcPort: uint16(4 + i), Proto: 6}, Size: MSS, Class: i % 4}
	}
	if err := eng.SubmitBatch(h, burst); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Stats("sub-1")
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := st.Totals(); p != 10 {
		t.Errorf("stats saw %d packets", p)
	}
	if delivered == 0 {
		t.Error("nothing emitted")
	}
}
