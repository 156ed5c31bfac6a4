// Package rng provides deterministic, stream-splittable randomness for
// reproducible experiments.
//
// Every experiment in this repository runs on virtual time with a fixed seed,
// so re-running an experiment reproduces its numbers exactly. Sub-streams
// derived with Split are independent of the draw order on the parent stream,
// which keeps workloads stable when unrelated code adds or removes draws.
package rng

import (
	"math"
	"math/rand/v2"
)

// Source is a deterministic random stream.
type Source struct {
	seed uint64
	r    *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{
		seed: seed,
		r:    rand.New(rand.NewPCG(seed, mix(seed))),
	}
}

// Split derives an independent child stream from a label, without consuming
// state from the parent. The same (seed, label) pair always yields the same
// child stream, regardless of how many values have been drawn from either.
func (s *Source) Split(label uint64) *Source {
	return New(mix(s.seed ^ mix(label)))
}

// mix is a splitmix64 finalization round; adjacent inputs diverge fully.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// IntN returns a uniform int in [0, n).
func (s *Source) IntN(n int) int { return s.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.r.Uint64() }

// exp returns an exponentially distributed float64 with mean 1.
func (s *Source) exp() float64 { return s.r.ExpFloat64() }

// norm returns a normally distributed float64 with mean 0 and stddev 1.
func (s *Source) norm() float64 { return s.r.NormFloat64() }

// perm returns a pseudo-random permutation of [0, n).
func (s *Source) perm(n int) []int { return s.r.Perm(n) }

// Range returns a uniform float64 in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// LogNormal returns a log-normally distributed value with the given
// parameters of the underlying normal distribution.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.norm())
}
