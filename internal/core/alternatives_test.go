package core

import (
	"testing"
)

func TestCentralUnitTMRStructure(t *testing.T) {
	c, err := CentralUnitTMR(PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	if c.NumStates() != 4 {
		t.Errorf("TMR states = %d, want 4", c.NumStates())
	}
	bad := PaperParams()
	bad.CD = 5
	if _, err := CentralUnitTMR(bad); err == nil {
		t.Error("bad params accepted")
	}
}

// TestCompareRedundancyOrdering reproduces the introduction's framing:
// every redundancy scheme beats simplex; NLFT beats plain duplex FS at
// equal node count; and TMR's third node buys masking of undetected
// errors (which are system-fatal for FS duplex).
func TestCompareRedundancy(t *testing.T) {
	opts, err := CompareRedundancy(PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 4 {
		t.Fatalf("options = %d", len(opts))
	}
	get := func(name string) RedundancyOption {
		for _, o := range opts {
			if o.Name == name {
				return o
			}
		}
		t.Fatalf("missing option %q", name)
		return RedundancyOption{}
	}
	simplex := get("simplex")
	duplexFS := get("duplex-FS")
	duplexNLFT := get("duplex-NLFT")
	tmr := get("tmr-voted")

	if !(duplexFS.ROneYear > simplex.ROneYear) {
		t.Errorf("duplex FS %v not above simplex %v", duplexFS.ROneYear, simplex.ROneYear)
	}
	if !(duplexNLFT.ROneYear > duplexFS.ROneYear) {
		t.Errorf("NLFT %v not above FS %v at the same node count",
			duplexNLFT.ROneYear, duplexFS.ROneYear)
	}
	if !(tmr.ROneYear > simplex.ROneYear) {
		t.Errorf("TMR %v not above simplex %v", tmr.ROneYear, simplex.ROneYear)
	}
	// The paper's cost argument: duplex NLFT achieves its reliability
	// with one node fewer than TMR. Record the comparison (no strict
	// ordering asserted between NLFT and TMR; the point is the node
	// count).
	if duplexNLFT.Nodes >= tmr.Nodes {
		t.Error("node counts wrong")
	}
	for _, o := range opts {
		if o.MTTFYears <= 0 {
			t.Errorf("%s MTTF = %v", o.Name, o.MTTFYears)
		}
	}
	// MTTF ordering mirrors reliability ordering for the duplex options.
	if !(duplexNLFT.MTTFYears > duplexFS.MTTFYears) {
		t.Error("NLFT MTTF not above FS MTTF")
	}
}
