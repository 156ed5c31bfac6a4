package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"bcpqp/internal/mbox"
	"bcpqp/internal/packet"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
	"bcpqp/internal/workload"
)

// extAudit is an extension experiment beyond the paper's figures: the
// conformance-audit summary. Theorem 1 bounds every aggregate's accepted
// bytes by the piecewise envelope r·Δt + B; the always-on auditor tracks
// that envelope exactly (128-bit accrual, rebased in-band on every rate
// change) and records the worst observed slack. This experiment floods an
// audited aggregate at a multiple of its plan — with and without rate churn
// — and prints the observed extremes against the analytic bound: a correct
// enforcer never dips below zero slack, so the first two rows must show
// zero violations no matter the offered multiple or churn cadence. The
// third row arms a deliberately understated envelope (r/8) to prove the
// detector is live: it must flag violations with a positive worst deficit.
func extAudit(scale Scale, seed uint64) (*Report, error) {
	dur := 300 * time.Millisecond
	if scale == full {
		dur = 2 * time.Second
	}

	const (
		rate   = 8 * units.Mbps
		bucket = int64(64 * units.MSS)
	)

	type scenario struct {
		name     string
		envelope units.Rate // audited envelope rate
		burst    int64      // audited envelope burst
		churn    bool       // flip the plan rate mid-flood
		wantVio  bool
	}
	scenarios := []scenario{
		{"flood ×4, exact envelope", rate, bucket, false, false},
		{"flood ×4 + rate churn 2↔16 Mbps", rate, bucket, true, false},
		{"flood ×4, envelope understated (r/8, B/8)", rate / 8, bucket / 8, false, true},
	}

	table := &Table{Columns: []string{"scenario", "offered pkts", "accepted B",
		"accrued B (r·Δt)", "min slack B", "max deficit B", "violations", "verdict"}}
	for _, sc := range scenarios {
		row, err := runAuditScenario(sc.envelope, sc.burst, bucket, rate, dur, sc.churn, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		verdict := "conforms"
		if row.violations > 0 {
			verdict = "VIOLATES"
			if sc.wantVio {
				verdict = "violates (expected)"
			}
		}
		if (row.violations > 0) != sc.wantVio {
			return nil, fmt.Errorf("%s: %d violations, want violations=%v",
				sc.name, row.violations, sc.wantVio)
		}
		table.addRow(sc.name,
			fmt.Sprintf("%d", row.offered),
			fmt.Sprintf("%d", row.accepted),
			fmt.Sprintf("%d", row.allowed),
			fmt.Sprintf("%d", row.minSlack),
			fmt.Sprintf("%d", row.maxDeficit),
			fmt.Sprintf("%d", row.violations),
			verdict,
		)
	}
	return &Report{
		ID:    "ext-audit",
		Title: "Extension: live conformance audit vs the Theorem-1 envelope",
		Sections: []Section{{
			Table: table,
			Notes: []string{
				"the analytic bound is accrued + B, tracked exactly (128-bit) and",
				"rebased in-band at every rate change; min slack is the closest",
				"the enforcer came to the bound, max deficit how far an",
				"understated envelope was exceeded; a violation is any audit",
				"observation with accepted > accrued + B on the 250 ms window",
			},
		}},
	}, nil
}

type auditRow struct {
	offered    int64
	accepted   int64
	allowed    int64
	minSlack   int64
	maxDeficit int64
	violations int64
}

// runAuditScenario floods one audited tbf aggregate at 4× its plan rate,
// optionally churning the plan between rate/4 and 2×rate every 32 batches,
// and returns the auditor's exact counters.
func runAuditScenario(envelope units.Rate, burst, bucket int64, rate units.Rate,
	dur time.Duration, churn bool, seed uint64) (auditRow, error) {
	var ticks atomic.Int64
	e := mbox.New(mbox.Config{
		Shards: 1,
		Clock: func() time.Duration {
			return time.Duration(ticks.Add(1)) * 10 * time.Microsecond
		},
		CloseTimeout: 10 * time.Second,
	})
	defer e.Close()

	const id = "audited"
	h, err := e.Add(id, tbf.MustNew(rate, bucket), nil)
	if err != nil {
		return auditRow{}, err
	}
	if err := e.ArmAudit(id, envelope, burst); err != nil {
		return auditRow{}, err
	}

	src := workload.NewFlood(workload.FloodConfig{
		Rate: 4 * rate, Duration: dur, Flows: 8, SrcIP: uint32(seed%250 + 1),
	})
	var buf [64]packet.Packet
	churnRates := [2]units.Rate{rate / 4, 2 * rate}
	for i := 0; ; i++ {
		_, n, ok := src.Next(buf[:])
		if !ok {
			break
		}
		if churn && i%32 == 31 {
			// SetRate rebases the audit envelope in-band at the same clock
			// reading the enforcer adopts the new rate, so churn alone can
			// never manufacture a violation.
			if err := e.SetRate(id, churnRates[(i/32)%2]); err != nil {
				return auditRow{}, err
			}
		}
		if err := e.SubmitBatch(h, buf[:n]); err != nil {
			return auditRow{}, err
		}
	}
	if _, err := e.Stats(id); err != nil { // in-band barrier: all batches enforced
		return auditRow{}, err
	}

	var row auditRow
	row.offered, _ = src.Offered()
	for _, ent := range e.AuditReport() {
		if ent.Aggregate != id {
			continue
		}
		c := ent.Counters
		row.accepted = c.AcceptedBytes
		row.allowed = c.AllowedBytes
		row.minSlack = c.MinSlackBytes
		row.maxDeficit = c.MaxDeficit
		row.violations = c.Violations
		return row, nil
	}
	return auditRow{}, fmt.Errorf("aggregate %q not in audit report", id)
}
