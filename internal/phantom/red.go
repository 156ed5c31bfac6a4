package phantom

import (
	"fmt"
)

// REDConfig enables RED-style active queue management on phantom queues —
// the §3.3 extension ("we need not necessarily wait for Q_i to become full
// before we drop a packet upon its arrival; we can apply active queue
// management policies"). Because phantom queues hold no packets, the AQM
// can only act at arrival time, which is exactly RED's shape: drop with a
// probability that rises with the (averaged) simulated occupancy.
//
// RED on a phantom queue desynchronizes flows sharing a class and spreads
// drops across a window instead of clustering them at the full threshold,
// trading a slightly earlier onset of loss for smaller loss bursts — the
// classic RED trade, measurable with the ext-aqm experiment.
type REDConfig struct {
	// MinBytes is the averaged occupancy at which early drops begin.
	MinBytes int64
	// MaxBytes is the averaged occupancy at which the drop probability
	// reaches MaxProb; above it every arrival is dropped.
	MaxBytes int64
	// MaxProb is the drop probability at MaxBytes (default 0.1).
	MaxProb float64
	// Weight is the EWMA weight of the occupancy average (default
	// 0.002, RED's classic recommendation).
	Weight float64
	// Seed makes the probabilistic drops deterministic per enforcer.
	Seed uint64
	// MarkECN converts early drops into ECN congestion-experienced
	// marks for ECN-capable packets (pkt.ECT): the packet is
	// transmitted with the TransmitCE verdict instead of being
	// discarded. Non-ECT packets are still dropped. Queue-full drops
	// are unaffected.
	MarkECN bool
}

// validate normalizes the RED configuration against the queue size.
func (c *REDConfig) validate(queueSize int64) error {
	if c.MinBytes <= 0 || c.MaxBytes <= c.MinBytes {
		return fmt.Errorf("phantom: RED thresholds must satisfy 0 < min (%d) < max (%d)",
			c.MinBytes, c.MaxBytes)
	}
	if c.MaxBytes > queueSize {
		return fmt.Errorf("phantom: RED max threshold %d exceeds queue size %d",
			c.MaxBytes, queueSize)
	}
	if c.MaxProb == 0 {
		c.MaxProb = 0.1
	}
	if c.MaxProb < 0 || c.MaxProb > 1 {
		return fmt.Errorf("phantom: RED max probability %v outside [0,1]", c.MaxProb)
	}
	if c.Weight == 0 {
		c.Weight = 0.002
	}
	if c.Weight <= 0 || c.Weight > 1 {
		return fmt.Errorf("phantom: RED weight %v outside (0,1]", c.Weight)
	}
	return nil
}

// redState is the per-queue RED run state.
type redState struct {
	avg   float64 // EWMA of occupancy in bytes
	count int     // arrivals since the last early drop
	rng   uint64  // xorshift state
}

// early decides whether RED drops an arrival given the queue's current
// simulated occupancy. Magic bytes count toward occupancy: a magic-filled
// queue is semantically full.
func (r *redState) early(cfg *REDConfig, occupancy int64) bool {
	r.avg += float64(cfg.Weight * (float64(occupancy) - r.avg)) // rounded: never fused
	switch {
	case r.avg < float64(cfg.MinBytes):
		r.count = 0
		return false
	case r.avg >= float64(cfg.MaxBytes):
		r.count = 0
		return true
	}
	// Linear probability between the thresholds, spaced by the classic
	// count correction so drops distribute evenly.
	pb := cfg.MaxProb * (r.avg - float64(cfg.MinBytes)) /
		float64(cfg.MaxBytes-cfg.MinBytes)
	r.count++
	pa := pb / (1 - float64(float64(r.count)*pb)) // rounded: never fused
	if pa < 0 || pa >= 1 {
		r.count = 0
		return true
	}
	if r.rand() < pa {
		r.count = 0
		return true
	}
	return false
}

// rand is a deterministic xorshift64* uniform draw in [0, 1).
func (r *redState) rand() float64 {
	x := r.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.rng = x
	return float64(x*0x2545F4914F6CDD1D>>11) / float64(1<<53)
}
