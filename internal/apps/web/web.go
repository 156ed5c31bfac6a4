// Package web models the page-load workload of §6.4.2: sequences of web
// pages — each a fan-out of small object fetches over short TCP
// connections with browser-like parallelism — competing with other traffic
// through a rate enforcer. Page load time (PLT) is the span from the page
// request to the completion of its last object.
package web

import (
	"fmt"
	"math"
	"time"

	"bcpqp/internal/harness"
	"bcpqp/internal/packet"
	"bcpqp/internal/rng"
)

// A page is 4 to objectsPerPage objects, fetched over at most concurrency
// parallel connections, as a browser does.
const (
	objectsPerPage = 16
	concurrency    = 6
)

// Config describes a sequential page-load session.
type Config struct {
	// Harness is the enforcement point the traffic runs through.
	Harness *harness.Harness
	// BaseKey seeds per-object flow keys; SrcPort is varied per object.
	BaseKey packet.FlowKey
	// Class is the enforcer class for all web flows.
	Class int
	// CC is the transport algorithm (default cubic, the web default).
	CC string
	// RTT is the propagation round-trip time.
	RTT time.Duration
	// Pages is the number of pages to load (the paper uses 50).
	Pages int
	// ThinkTime is the gap between a page finishing and the next
	// starting (default 500 ms).
	ThinkTime time.Duration
	// Start is when the first page begins.
	Start time.Duration
	// Rand drives object counts and sizes.
	Rand *rng.Source
	// OnDeliver, if set, receives receiver-side byte arrivals of all
	// web flows (for fairness metering against competing traffic).
	OnDeliver func(now time.Duration, bytes int)
}

// Session runs pages sequentially and records PLTs.
type Session struct {
	cfg Config

	page      int
	pageStart time.Duration
	pending   int     // objects not yet complete in the current page
	queue     []int64 // object sizes not yet started
	inFlight  int
	nextPort  uint16

	// PLTs holds one page-load time per completed page.
	PLTs []time.Duration
	// Done reports whether every page completed.
	Done bool
}

// Start begins the session.
func Start(cfg Config) (*Session, error) {
	if cfg.Harness == nil {
		return nil, fmt.Errorf("web: nil harness")
	}
	if cfg.Rand == nil {
		return nil, fmt.Errorf("web: nil rand source")
	}
	if cfg.Pages <= 0 {
		return nil, fmt.Errorf("web: no pages")
	}
	if cfg.ThinkTime <= 0 {
		cfg.ThinkTime = 500 * time.Millisecond
	}
	if cfg.CC == "" {
		cfg.CC = "cubic"
	}
	s := &Session{cfg: cfg, nextPort: cfg.BaseKey.SrcPort}
	cfg.Harness.Loop.At(cfg.Start, func() { s.startPage(cfg.Start) })
	return s, nil
}

// startPage builds the object list for one page and launches the first
// wave of fetches.
func (s *Session) startPage(now time.Duration) {
	r := s.cfg.Rand
	n := 4 + r.IntN(objectsPerPage-3)
	s.pageStart = now
	s.pending = n
	s.queue = s.queue[:0]
	for i := 0; i < n; i++ {
		s.queue = append(s.queue, objectSize(r))
	}
	// The first object (the HTML) fetches alone; the rest fan out when
	// it completes, as a browser discovers subresources.
	html := s.queue[0]
	s.queue = s.queue[1:]
	s.fetch(now, html, func(done time.Duration) {
		s.objectDone(done)
		s.fill(done)
	})
}

// fill launches queued objects up to the concurrency limit.
func (s *Session) fill(now time.Duration) {
	for s.inFlight < concurrency && len(s.queue) > 0 {
		size := s.queue[0]
		s.queue = s.queue[1:]
		s.fetch(now, size, func(done time.Duration) {
			s.objectDone(done)
			s.fill(done)
		})
	}
}

// fetch launches one object transfer on a fresh short connection.
func (s *Session) fetch(now time.Duration, size int64, onDone func(time.Duration)) {
	s.inFlight++
	key := s.cfg.BaseKey
	s.nextPort++
	key.SrcPort = s.nextPort
	_, err := s.cfg.Harness.AttachFlow(harness.FlowSpec{
		Key:       key,
		Class:     s.cfg.Class,
		CC:        s.cfg.CC,
		RTT:       s.cfg.RTT,
		Size:      size,
		Start:     now,
		OnDeliver: s.cfg.OnDeliver,
		OnComplete: func(done time.Duration) {
			s.inFlight--
			onDone(done)
		},
	})
	if err != nil {
		// Key exhaustion would be a harness misconfiguration; surface
		// it loudly rather than silently shrinking pages.
		panic(err)
	}
}

// objectDone accounts one object completion and closes out the page.
func (s *Session) objectDone(now time.Duration) {
	s.pending--
	if s.pending > 0 {
		return
	}
	s.PLTs = append(s.PLTs, now-s.pageStart)
	s.page++
	if s.page >= s.cfg.Pages {
		s.Done = true
		return
	}
	s.cfg.Harness.Loop.After(s.cfg.ThinkTime, func() {
		s.startPage(s.cfg.Harness.Loop.Now())
	})
}

// objectSize draws a web-object size: log-normal with a ~20 KB median and
// a heavy tail, truncated to [2 KB, 1 MB] — the shape of HTTP archive
// object-size distributions.
func objectSize(r *rng.Source) int64 {
	v := r.LogNormal(math.Log(20_000), 1.0)
	if v < 2_000 {
		v = 2_000
	}
	if v > 1_000_000 {
		v = 1_000_000
	}
	return int64(v)
}
