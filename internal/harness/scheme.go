package harness

import (
	"fmt"
	"strings"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/fairpolicer"
	"bcpqp/internal/phantom"
	"bcpqp/internal/shaper"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// Scheme selects a rate-enforcement mechanism.
type Scheme int

const (
	// SchemeShaper is the multi-queue buffering shaper (DRR/priority).
	SchemeShaper Scheme = iota
	// SchemeSingleShaper is a single-FIFO shaper (status-quo baseline of
	// §6.4).
	SchemeSingleShaper
	// SchemePolicer is a token-bucket policer sized at one max BDP.
	SchemePolicer
	// SchemePolicerPlus is a token-bucket policer with the FairPolicer
	// sizing (max of New Reno and Cubic requirements).
	SchemePolicerPlus
	// SchemeFairPolicer is the FairPolicer baseline.
	SchemeFairPolicer
	// SchemePQP is the phantom-queue policer without burst control (§3).
	SchemePQP
	// SchemeBCPQP is the burst-controlled phantom-queue policer (§4).
	SchemeBCPQP
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeShaper:
		return "shaper"
	case SchemeSingleShaper:
		return "shaper-1q"
	case SchemePolicer:
		return "policer"
	case SchemePolicerPlus:
		return "policer+"
	case SchemeFairPolicer:
		return "fairpolicer"
	case SchemePQP:
		return "pqp"
	case SchemeBCPQP:
		return "bc-pqp"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// ParseScheme maps a name to a Scheme.
func ParseScheme(name string) (Scheme, error) {
	switch strings.ToLower(name) {
	case "shaper", "drr-shaper":
		return SchemeShaper, nil
	case "shaper-1q", "singleshaper", "fifo":
		return SchemeSingleShaper, nil
	case "policer", "tbf":
		return SchemePolicer, nil
	case "policer+", "policerplus":
		return SchemePolicerPlus, nil
	case "fairpolicer", "fp":
		return SchemeFairPolicer, nil
	case "pqp":
		return SchemePQP, nil
	case "bc-pqp", "bcpqp":
		return SchemeBCPQP, nil
	}
	return 0, fmt.Errorf("harness: unknown scheme %q", name)
}

// AllSchemes lists every scheme, in the paper's comparison order.
func AllSchemes() []Scheme {
	return []Scheme{SchemeShaper, SchemePolicer, SchemePolicerPlus,
		SchemeFairPolicer, SchemePQP, SchemeBCPQP}
}

// Buffer is the repository's one table of the paper's sizing rules (§6.1,
// Appendix A): scheme s's buffer in bytes at rate and the worst-case RTT
// maxRTT. That is each shaper queue (one BDP, at least 16 MSS), a policer's
// token bucket (one BDP for Policer; the larger of the New Reno and Cubic
// requirements for Policer+ and FairPolicer), or each phantom queue (the Reno
// requirement for PQP; 10× Policer+'s bucket for BC-PQP, "a very high
// value"). An unknown scheme gets 0.
func Buffer(s Scheme, rate units.Rate, maxRTT time.Duration) int64 {
	switch s {
	case SchemeShaper, SchemeSingleShaper:
		return max(units.BDPBytes(rate, maxRTT), 16*units.MSS)
	case SchemePolicer:
		return tbf.BDPBucket(rate, maxRTT)
	case SchemePolicerPlus, SchemeFairPolicer:
		return tbf.PlusBucket(rate, maxRTT)
	case SchemePQP:
		return units.RenoPhantomRequirement(rate, maxRTT)
	case SchemeBCPQP:
		return 10 * tbf.PlusBucket(rate, maxRTT)
	}
	return 0
}

// BuildEnforcer builds cfg's scheme with its Buffer at cfg.Rate and
// cfg.MaxRTT, cfg.Queues queues (taken as given; the single shaper has one
// and no policy), cfg.Policy, FairPolicer's cfg.FPWeights and the phantom
// queues' cfg.PhantomRED; a non-zero cfg.PhantomQueueSize replaces the
// table's size for PQP and BC-PQP. The shapers serve through sc into sink;
// the bufferless schemes take neither.
func BuildEnforcer(cfg Config, sc shaper.Scheduler, sink enforcer.Sink) (enforcer.Enforcer, error) {
	size := Buffer(cfg.Scheme, cfg.Rate, cfg.MaxRTT)
	switch cfg.Scheme {
	case SchemeShaper, SchemeSingleShaper:
		queues, policy := cfg.Queues, cfg.Policy
		if cfg.Scheme == SchemeSingleShaper {
			queues, policy = 1, nil
		}
		return shaper.New(shaper.Config{
			Rate:      cfg.Rate,
			Queues:    queues,
			QueueSize: size,
			Policy:    policy,
			Scheduler: sc,
			Sink:      sink,
		})
	case SchemePolicer, SchemePolicerPlus:
		return tbf.New(cfg.Rate, size)
	case SchemeFairPolicer:
		return fairpolicer.New(fairpolicer.Config{
			Rate:    cfg.Rate,
			Bucket:  size,
			Flows:   cfg.Queues,
			Weights: cfg.FPWeights,
		})
	case SchemePQP, SchemeBCPQP:
		if cfg.PhantomQueueSize != 0 {
			size = cfg.PhantomQueueSize
		}
		return phantom.New(phantom.Config{
			Rate:         cfg.Rate,
			Queues:       cfg.Queues,
			QueueSize:    size,
			Policy:       cfg.Policy,
			BurstControl: cfg.Scheme == SchemeBCPQP,
			RED:          cfg.PhantomRED,
		})
	}
	return nil, fmt.Errorf("harness: unknown scheme %v", cfg.Scheme)
}
