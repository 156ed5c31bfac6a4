// Package units provides the rate, byte-size, and bandwidth-delay-product
// arithmetic shared by every subsystem in the repository.
//
// Rates are kept in bits per second (the unit network operators configure),
// byte counts in int64, and time in time.Duration interpreted as virtual
// simulation time. Conversions between the three live here so that rounding
// conventions are consistent across enforcers, congestion control, and
// metrics.
//
// r·Δt, the bytes a rate accrues over elapsed time and the quantity Theorem 1
// bounds every enforcer by, is computed for the five enforcers (tbf, ptree,
// phantom, fairpolicer, shaper) by Clock's reads alone, and all three reads
// take it from one function, Clock.Bytes: the accrual's product is rounded
// against fusion (scripts/check-fma.sh) there, and
// scripts/check-accrual.sh keeps the enforcers from computing r·Δt
// themselves. Rate.Bytes gives the same bits for sizing rules and tests.
// obs.Audit keeps its own exact integer accrual on purpose: a referee shares
// no arithmetic with what it checks.
package units

import (
	"fmt"
	"sync"
	"time"
)

// MSS is the maximum segment size in bytes used throughout the repository.
// The paper reasons about MSS-sized packets; 1500 bytes keeps BDP arithmetic
// simple (BDP in packets = rate × RTT / MSS).
const MSS = 1500

// Byte-size constants.
const (
	KB int64 = 1000
	MB int64 = 1000 * KB
)

// Rate is a traffic rate in bits per second.
type Rate float64

// Rate constructors.
const (
	bitPerSecond Rate = 1
	Kbps              = 1000 * bitPerSecond
	Mbps              = 1000 * Kbps
	Gbps              = 1000 * Mbps
)

// BytesPerSecond returns the rate expressed in bytes per second.
func (r Rate) BytesPerSecond() float64 { return float64(r) / 8 }

// Mbps returns the rate expressed in megabits per second.
func (r Rate) Mbps() float64 { return float64(r) / float64(Mbps) }

// Bytes returns the (fractional) number of bytes transferred at rate r over
// duration d. The conversion rounds the product, so no compiler fuses it
// into the caller's add: the datapath's float arithmetic gives the same bits
// on every architecture (scripts/check-fma.sh).
func (r Rate) Bytes(d time.Duration) float64 {
	return float64(r.BytesPerSecond() * d.Seconds())
}

// DurationForBytes returns the time needed to transfer n bytes at rate r.
// It returns 0 for non-positive rates so callers degrade gracefully.
func (r Rate) DurationForBytes(n int64) time.Duration {
	if r <= 0 {
		return 0
	}
	sec := float64(n) / r.BytesPerSecond()
	return time.Duration(sec * float64(time.Second))
}

// String formats the rate with an adaptive unit.
func (r Rate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.2fGbps", float64(r)/float64(Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.2fMbps", float64(r)/float64(Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.2fKbps", float64(r)/float64(Kbps))
	default:
		return fmt.Sprintf("%.0fbps", float64(r))
	}
}

// BDPBytes returns the bandwidth-delay product of rate r and round-trip time
// rtt in bytes.
func BDPBytes(r Rate, rtt time.Duration) int64 {
	return int64(r.Bytes(rtt))
}

// bdpPackets returns the bandwidth-delay product in MSS-sized packets,
// rounded up so a one-packet BDP never truncates to zero.
func bdpPackets(r Rate, rtt time.Duration) int64 {
	b := BDPBytes(r, rtt)
	return (b + MSS - 1) / MSS
}

// RenoPhantomRequirement returns the minimum phantom queue size in bytes for
// a backlogged Reno flow policed at rate r with round-trip time rtt, per the
// paper's Appendix A result: B ≥ BDP²/18 × MSS bytes, with BDP measured in
// packets. A floor of 4 MSS keeps tiny-BDP configurations usable.
func RenoPhantomRequirement(r Rate, rtt time.Duration) int64 {
	bdp := float64(bdpPackets(r, rtt))
	b := int64(bdp * bdp / 18 * MSS)
	if b < 4*MSS {
		b = 4 * MSS
	}
	return b
}

// CubicPhantomRequirement returns the minimum phantom queue (or token
// bucket) size in bytes that keeps a backlogged Cubic flow policed at rate r
// with round-trip time rtt from draining the queue to zero in steady state.
//
// Following the paper's phantom-queue reasoning, the queue build-up per RTT
// is (W − BDP) packets whenever the window W exceeds BDP, so the required
// size is the area of the window curve above the BDP line over one steady
// cycle in which the time-average window equals BDP. For Cubic,
// W(t) = C(t−K)³ + Wmax with a multiplicative decrease to βWmax; the peak
// Wmax satisfying avg(W) = BDP is found numerically.
func CubicPhantomRequirement(r Rate, rtt time.Duration) int64 {
	key := cubicKey{r, rtt}
	cubicMemo.Lock()
	for i, k := range cubicMemo.keys {
		if b := cubicMemo.vals[i]; k == key && b != 0 { // results are ≥ 4 MSS; 0 is an empty entry
			cubicMemo.Unlock()
			return b
		}
	}
	cubicMemo.Unlock()
	b := cubicPhantomRequirement(r, rtt)
	cubicMemo.Lock()
	i := cubicMemo.next
	cubicMemo.keys[i], cubicMemo.vals[i] = key, b
	cubicMemo.next = (i + 1) % len(cubicMemo.keys)
	cubicMemo.Unlock()
	return b
}

type cubicKey struct {
	r   Rate
	rtt time.Duration
}

// cubicMemo holds the most recent CubicPhantomRequirement results. The
// search costs tens of microseconds and is a pure function of its arguments,
// and a middlebox sizes every subscriber of a plan with the same pair, so a
// handful of entries takes it off the registration path.
var cubicMemo struct {
	sync.Mutex
	keys [8]cubicKey
	vals [8]int64
	next int
}

// cubicPhantomRequirement is the search CubicPhantomRequirement memoises.
func cubicPhantomRequirement(r Rate, rtt time.Duration) int64 {
	const (
		c    = 0.4 // Cubic's C constant (packets/sec³ scaling)
		beta = 0.7 // multiplicative decrease factor
	)
	bdp := float64(bdpPackets(r, rtt))
	if bdp < 2 {
		bdp = 2
	}
	rttSec := rtt.Seconds()
	if rttSec <= 0 {
		return 4 * MSS
	}

	// cycle simulates one Cubic epoch with peak wmax and returns the
	// time-average window and the area (packet·RTT) above the bdp line.
	cycle := func(wmax float64) (avg, area float64) {
		k := cubeRoot(wmax * (1 - beta) / c)
		var sum, above float64
		var steps int
		for t := 0.0; ; t += rttSec {
			w := float64(c*(t-k)*(t-k)*(t-k)) + wmax // rounded: never fused
			if w > wmax && t > 0 {
				break
			}
			sum += w
			if w > bdp {
				above += w - bdp
			}
			steps++
			if steps > 1_000_000 { // defensive bound
				break
			}
		}
		if steps == 0 {
			return wmax, 0
		}
		return sum / float64(steps), above
	}

	// Binary-search wmax so the epoch's average window equals BDP.
	lo, hi := bdp, 8*bdp
	for i := 0; i < 60; i++ {
		mid := float64((lo + hi) / 2) // rounded: /2 is a multiply, never fused into w
		avg, _ := cycle(mid)
		if avg < bdp {
			lo = mid
		} else {
			hi = mid
		}
	}
	_, area := cycle(hi)
	b := int64(area * MSS)
	if b < 4*MSS {
		b = 4 * MSS
	}
	return b
}

func cubeRoot(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 64; i++ {
		x = (2*x + v/(x*x)) / 3
	}
	return x
}
