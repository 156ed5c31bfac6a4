// Package video models an adaptive-bitrate (ABR) streaming client and
// server over the simulated transport, standing in for the YouTube/Netflix
// sessions of the paper's §6.4.1 and Appendix B evaluation.
//
// The client fetches fixed-duration chunks over a persistent TCP connection
// and picks each chunk's bitrate with a standard throughput+buffer hybrid
// rule: the highest ladder rung below a safety fraction of the EWMA
// throughput estimate, overridden to the lowest rung when the playback
// buffer runs low, with requests paused while the buffer is full. Playback
// and rebuffering are accounted in virtual time. YouTube-like sessions run
// over BBR and Netflix-like sessions over New Reno, per the paper.
package video

import (
	"fmt"
	"time"

	"bcpqp/internal/harness"
	"bcpqp/internal/packet"
	"bcpqp/internal/units"
)

// ladder is a YouTube-like bitrate ladder (144p…1080p).
var ladder = []units.Rate{
	300 * units.Kbps,
	500 * units.Kbps,
	750 * units.Kbps,
	1200 * units.Kbps,
	2400 * units.Kbps,
	4500 * units.Kbps,
}

// ABR tuning constants.
const (
	chunkDuration = 4 * time.Second  // media chunk length
	safetyFactor  = 0.8              // fraction of estimated throughput to spend
	lowBufferMark = 4 * time.Second  // panic-to-lowest threshold
	maxBuffer     = 30 * time.Second // stop requesting above this level
	ewmaAlpha     = 0.4              // weight of the newest chunk sample
)

// Config describes one streaming session.
type Config struct {
	// Harness is the enforcement point the session runs through.
	Harness *harness.Harness
	// Key/Class identify the video flow to the enforcer.
	Key   packet.FlowKey
	Class int
	// CC is the transport ("bbr" for YouTube-like, "reno" for
	// Netflix-like sessions).
	CC string
	// RTT is the session's propagation round-trip time.
	RTT time.Duration
	// Start is when the session begins.
	Start time.Duration
	// PlayDuration is how much video to stream.
	PlayDuration time.Duration
	// OnDeliver, if set, receives receiver-side byte arrivals for
	// throughput metering.
	OnDeliver func(now time.Duration, bytes int)
}

// Client is a running ABR session.
type Client struct {
	cfg Config

	flow interface {
		AddData(int64)
	}

	chunkIdx    int
	totalChunks int

	est units.Rate // EWMA throughput estimate

	buffer     time.Duration // playback buffer level
	lastUpdate time.Duration
	started    bool

	fetchStart time.Duration
	fetchBytes int64

	// Results.
	Qualities   []units.Rate  // bitrate chosen per chunk
	Rebuffering time.Duration // total stall time
	Switches    int           // quality changes
	DoneAt      time.Duration // when the last chunk finished (0 if not)
}

// Start attaches the session to the harness and schedules its first chunk.
func Start(cfg Config) (*Client, error) {
	if cfg.Harness == nil {
		return nil, fmt.Errorf("video: nil harness")
	}
	if cfg.PlayDuration <= 0 {
		cfg.PlayDuration = time.Minute
	}
	c := &Client{
		cfg:         cfg,
		totalChunks: int((cfg.PlayDuration + chunkDuration - 1) / chunkDuration),
	}

	first := c.chunkSize(c.pickQuality())
	flow, err := cfg.Harness.AttachFlow(harness.FlowSpec{
		Key:        cfg.Key,
		Class:      cfg.Class,
		CC:         cfg.CC,
		RTT:        cfg.RTT,
		Size:       first,
		Start:      cfg.Start,
		OnDeliver:  cfg.OnDeliver,
		OnComplete: c.onChunkDone,
	})
	if err != nil {
		return nil, err
	}
	c.flow = flow
	c.fetchStart = cfg.Start
	c.fetchBytes = first
	c.lastUpdate = cfg.Start
	return c, nil
}

// pickQuality runs the ABR rule for the next chunk.
func (c *Client) pickQuality() units.Rate {
	q := ladder[0]
	if c.started && c.buffer < lowBufferMark {
		// Low buffer: take the safe lowest rung.
		c.recordQuality(q)
		return q
	}
	if c.est > 0 {
		budget := units.Rate(safetyFactor * float64(c.est))
		for _, r := range ladder {
			if r <= budget {
				q = r
			}
		}
	}
	c.recordQuality(q)
	return q
}

func (c *Client) recordQuality(q units.Rate) {
	if n := len(c.Qualities); n > 0 && c.Qualities[n-1] != q {
		c.Switches++
	}
	c.Qualities = append(c.Qualities, q)
}

// chunkSize converts a bitrate choice into chunk bytes.
func (c *Client) chunkSize(q units.Rate) int64 {
	b := int64(q.Bytes(chunkDuration))
	if b < units.MSS {
		b = units.MSS
	}
	return b
}

// onChunkDone updates playback accounting, the throughput estimate, and
// requests the next chunk (delayed if the buffer is full).
func (c *Client) onChunkDone(now time.Duration) {
	c.advancePlayback(now)
	c.started = true
	c.buffer += chunkDuration

	// Throughput sample from the completed fetch.
	if dt := now - c.fetchStart; dt > 0 {
		sample := units.Rate(float64(c.fetchBytes) * 8 / dt.Seconds())
		if c.est == 0 {
			c.est = sample
		} else {
			c.est = units.Rate(ewmaAlpha*float64(sample) + (1-ewmaAlpha)*float64(c.est))
		}
	}

	c.chunkIdx++
	if c.chunkIdx >= c.totalChunks {
		c.DoneAt = now
		return
	}

	if c.buffer >= maxBuffer {
		// Buffer full: wait until it drains below the high mark.
		wait := c.buffer - maxBuffer + chunkDuration
		c.cfg.Harness.Loop.After(wait, func() { c.requestNext(c.cfg.Harness.Loop.Now()) })
		return
	}
	c.requestNext(now)
}

// requestNext issues the next chunk fetch on the persistent connection.
func (c *Client) requestNext(now time.Duration) {
	c.advancePlayback(now)
	size := c.chunkSize(c.pickQuality())
	c.fetchStart = now
	c.fetchBytes = size
	c.flow.AddData(size)
}

// advancePlayback drains the playback buffer for elapsed virtual time and
// accumulates rebuffering when it runs dry.
func (c *Client) advancePlayback(now time.Duration) {
	if !c.started {
		c.lastUpdate = now
		return
	}
	elapsed := now - c.lastUpdate
	c.lastUpdate = now
	if elapsed <= 0 {
		return
	}
	if c.buffer >= elapsed {
		c.buffer -= elapsed
		return
	}
	c.Rebuffering += elapsed - c.buffer
	c.buffer = 0
}

// AvgQuality returns the mean selected bitrate across fetched chunks.
func (c *Client) AvgQuality() units.Rate {
	if len(c.Qualities) == 0 {
		return 0
	}
	var sum units.Rate
	for _, q := range c.Qualities {
		sum += q
	}
	return sum / units.Rate(len(c.Qualities))
}
