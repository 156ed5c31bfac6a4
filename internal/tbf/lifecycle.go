package tbf

import (
	"fmt"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/units"
)

// snapVersion is the format version of Policer snapshot blobs.
const snapVersion = 2

// SetRate implements enforcer.Reconfigurer: the token level, refill clock
// and statistics survive the change. Tokens accrued before the change are
// settled at the old rate first (refill at now), so accepted bytes across
// the change stay within the piecewise bound r_old·Δt_old + r_new·Δt_new + B
// — whereas tearing the policer down and rebuilding it would refill the
// bucket to B and re-admit a full burst.
func (p *Policer) SetRate(now time.Duration, rate units.Rate) error {
	if rate <= 0 {
		return fmt.Errorf("tbf: non-positive rate %v", rate)
	}
	p.refill(now) // settle elapsed time at the old rate
	p.rate = rate
	return nil
}

// SnapshotState implements enforcer.Snapshotter.
//
// Layout: u8 version (=2), bool started, i64 refill-clock age at now (ns; 0
// until started), f64 tokens, stats.
func (p *Policer) SnapshotState(now time.Duration) ([]byte, error) {
	var e enforcer.Enc
	e.U8(snapVersion)
	last, started := p.clock.Last()
	e.Bool(started)
	e.Age(now, last, started)
	e.F64(p.tokens)
	e.Stats(p.stats)
	return e.Out(), nil
}

// RestoreState implements enforcer.Snapshotter. The token level must fit
// the receiver's bucket: restoring into a differently sized policer is a
// configuration mismatch, not a truncation.
func (p *Policer) RestoreState(now time.Duration, data []byte) error {
	d := enforcer.NewDec(data)
	if v := d.U8(); d.Err() == nil && v != snapVersion {
		d.Fail("tbf: unsupported snapshot version %d (want %d)", v, snapVersion)
	}
	started := d.Bool()
	last := d.Instant(now)
	tokens := d.F64()
	if d.Err() == nil && (tokens < 0 || tokens > p.bucket) {
		d.Fail("tbf: token level %v outside bucket [0,%v]", tokens, p.bucket)
	}
	stats := d.Stats()
	if err := d.Finish(); err != nil {
		return err
	}
	p.clock.Set(last, started)
	p.tokens = tokens
	p.stats = stats
	return nil
}

var _ enforcer.Reconfigurer = (*Policer)(nil)
var _ enforcer.Snapshotter = (*Policer)(nil)
