// Wire protocol for the budget exchange: versioned, length-framed binary
// messages built on the enforcer snapshot codec (little-endian, sticky
// decode errors, trailing-byte rejection).
//
// There is one frame type, the report. Frames are small (one report covers
// every shared aggregate) and fit a single UDP datagram for realistic
// configurations; the transport layer treats them as opaque byte slices, so
// TCP framing or an in-memory test bus carry them unchanged.
//
// Robustness contract, enforced here and proven by FuzzDecodeFrame:
//
//   - decodeFrame never panics on any input.
//   - Unknown magic, unknown version, unknown type (including the handoff
//     frame, type 2, of the same version's earlier two-type wire),
//     truncation, trailing bytes, NaN rates, negative rates, oversized
//     counts and oversized IDs all reject with an error. The receiver
//     treats a rejected frame exactly like silence (it counts it and moves
//     on), which the protocol already survives — corruption therefore
//     degrades to the partition path, never to bad state.
//   - Length caps bound what a hostile frame can make the decoder allocate.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/units"
)

// Frame magic: "BQXC" — Bounded-Queue eXChange. Mirrors the BQSN snapshot
// magic so on-disk and on-wire artifacts are recognizably related.
const (
	frameMagic  = "BQXC"
	wireVersion = 2 // v2 added the boot epoch (header + echoes); v1 rejects
	typeReport  = 1
	maxIDLen    = 128 // node and aggregate IDs
	maxEchoes   = 255 // one per peer; u8 count
	maxAggs     = 255 // shared aggregates per report; u8 count
	maxGrants   = 255 // one per peer per aggregate; u8 count
)

// errBadFrame tags every decode rejection; errors.Is(err, errBadFrame)
// holds for any malformed input.
var errBadFrame = errors.New("cluster: bad frame")

// echo acknowledges the latest report sequence number heard from one peer.
// Echoes make freshness symmetric: I honor your grant only while your
// report proves you have recently heard ME, which defeats one-way
// partitions and arbitrarily delayed replays (a stale echo ages out even
// though the frame itself is intact). Epoch pins the acknowledgement to
// one incarnation of the peer: sequence numbers restart at zero on reboot,
// so an echo of a pre-restart seq must not look current to the new boot.
type echo struct {
	Peer  string
	Epoch uint64
	Seq   uint64
}

// grant cedes part of the sender's budget for one aggregate to one peer.
// The sender holds the ceded amount out of its own share for longer than
// the grant can possibly be honored, so the global bound survives any
// delivery schedule.
type grant struct {
	To  string
	Bps units.Rate
}

// aggReport is one shared aggregate's entry in a report: the sender's
// observed accept rate, the share it is currently enforcing, and the
// budget it cedes to needier peers.
type aggReport struct {
	ID       string
	Observed units.Rate // accept rate over the last window, bits/sec
	Applied  units.Rate // share currently enforced, bits/sec
	Grants   []grant
}

// frame is one decoded budget-exchange message. Epoch identifies the
// sender's boot: a restart resets Seq to zero under a fresh (higher)
// epoch, so receivers can distinguish a rebooted peer from a replay.
type frame struct {
	Type   uint8 // typeReport
	Sender string
	Epoch  uint64
	Seq    uint64
	Echoes []echo
	Aggs   []aggReport
}

// encodeReport builds a report frame. Callers keep Echoes/Aggs within the
// wire caps; oversized inputs are truncated rather than generating an
// undecodable frame.
func encodeReport(sender string, epoch, seq uint64, echoes []echo, aggs []aggReport) []byte {
	var e enforcer.Enc
	e.Bytes([]byte(frameMagic))
	e.U8(wireVersion)
	e.U8(typeReport)
	e.Bytes([]byte(clampID(sender)))
	e.U64(epoch)
	e.U64(seq)
	if len(echoes) > maxEchoes {
		echoes = echoes[:maxEchoes]
	}
	e.U8(uint8(len(echoes)))
	for _, ec := range echoes {
		e.Bytes([]byte(clampID(ec.Peer)))
		e.U64(ec.Epoch)
		e.U64(ec.Seq)
	}
	if len(aggs) > maxAggs {
		aggs = aggs[:maxAggs]
	}
	e.U8(uint8(len(aggs)))
	for _, a := range aggs {
		e.Bytes([]byte(clampID(a.ID)))
		e.F64(float64(a.Observed))
		e.F64(float64(a.Applied))
		grants := a.Grants
		if len(grants) > maxGrants {
			grants = grants[:maxGrants]
		}
		e.U8(uint8(len(grants)))
		for _, g := range grants {
			e.Bytes([]byte(clampID(g.To)))
			e.F64(float64(g.Bps))
		}
	}
	return e.Out()
}

// decodeFrame parses one frame. Any malformation returns an error wrapping
// errBadFrame; the returned frame is nil on error. Decoded IDs are copied,
// so the caller's buffer may be recycled.
func decodeFrame(data []byte) (*frame, error) {
	d := enforcer.NewDec(data)
	if magic := d.Bytes(); string(magic) != frameMagic {
		return nil, fmt.Errorf("%w: magic %q", errBadFrame, magic)
	}
	if v := d.U8(); v != wireVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", errBadFrame, v, wireVersion)
	}
	f := &frame{Type: d.U8()}
	if f.Type != typeReport {
		return nil, fmt.Errorf("%w: type %d", errBadFrame, f.Type)
	}
	var err error
	if f.Sender, err = decodeID(d, "sender"); err != nil {
		return nil, err
	}
	f.Epoch = d.U64()
	f.Seq = d.U64()
	if err := decodeReport(d, f); err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadFrame, err)
	}
	return f, nil
}

func decodeReport(d *enforcer.Dec, f *frame) error {
	nEchoes := int(d.U8())
	if nEchoes > 0 {
		f.Echoes = make([]echo, 0, nEchoes)
	}
	for i := 0; i < nEchoes; i++ {
		peer, err := decodeID(d, "echo peer")
		if err != nil {
			return err
		}
		f.Echoes = append(f.Echoes, echo{Peer: peer, Epoch: d.U64(), Seq: d.U64()})
	}
	nAggs := int(d.U8())
	if nAggs > 0 {
		f.Aggs = make([]aggReport, 0, nAggs)
	}
	for i := 0; i < nAggs; i++ {
		id, err := decodeID(d, "aggregate")
		if err != nil {
			return err
		}
		a := aggReport{ID: id, Observed: units.Rate(d.F64()), Applied: units.Rate(d.F64())}
		if d.Err() == nil && !(finiteRate(a.Observed) && finiteRate(a.Applied)) {
			return fmt.Errorf("%w: non-finite or negative rate for %q", errBadFrame, id)
		}
		nGrants := int(d.U8())
		if nGrants > 0 {
			a.Grants = make([]grant, 0, nGrants)
		}
		for j := 0; j < nGrants; j++ {
			to, err := decodeID(d, "grant peer")
			if err != nil {
				return err
			}
			g := grant{To: to, Bps: units.Rate(d.F64())}
			if d.Err() == nil && !finiteRate(g.Bps) {
				return fmt.Errorf("%w: non-finite or negative grant to %q", errBadFrame, to)
			}
			a.Grants = append(a.Grants, g)
		}
		f.Aggs = append(f.Aggs, a)
	}
	return nil
}

// decodeID reads one length-prefixed ID, enforcing the size cap and
// surfacing any sticky decode error immediately (so a truncated frame fails
// here rather than producing a phantom empty ID).
func decodeID(d *enforcer.Dec, what string) (string, error) {
	b := d.Bytes()
	if err := d.Err(); err != nil {
		return "", fmt.Errorf("%w: %s: %v", errBadFrame, what, err)
	}
	if len(b) == 0 {
		return "", fmt.Errorf("%w: empty %s id", errBadFrame, what)
	}
	if len(b) > maxIDLen {
		return "", fmt.Errorf("%w: %s id %d bytes exceeds %d", errBadFrame, what, len(b), maxIDLen)
	}
	return string(b), nil
}

// finiteRate accepts exactly the rates the share calculus can digest:
// finite and non-negative. NaN is already rejected by the codec; infinity
// would poison the grant arithmetic (Inf/Inf = NaN shares).
func finiteRate(r units.Rate) bool {
	return r >= 0 && !math.IsInf(float64(r), 0)
}

func clampID(id string) string {
	if len(id) > maxIDLen {
		return id[:maxIDLen]
	}
	return id
}
