package cluster

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens (run at the commit whose output is the reference)")

// TestWireReportGolden pins the BQXC report frame of sampleReport to the
// bytes the two-frame-type wire (report and handoff) wrote, and checks those
// bytes still decode to the same report: a peer one version back keeps
// exchanging reports with this one.
func TestWireReportGolden(t *testing.T) {
	got, _, _ := sampleReport()
	path := filepath.Join("testdata", "report_golden.bqxc.hex")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report frame differs from the golden:\n got %x\nwant %x", got, want)
	}
	if wireVersion != 2 {
		t.Fatalf("wireVersion = %d, want 2: the golden's version byte", wireVersion)
	}
	f, err := decodeFrame(want)
	if err != nil {
		t.Fatalf("golden report rejected: %v", err)
	}
	if f.Type != typeReport || f.Sender != "node-a" || f.Epoch != 1699 || f.Seq != 42 ||
		len(f.Echoes) != 2 || len(f.Aggs) != 2 || len(f.Aggs[0].Grants) != 2 {
		t.Fatalf("golden report decoded to %+v", f)
	}
}
