package exhaust

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Certificate is the coverage artifact an exhaustive verification
// emits: what space was enumerated, what every placement classified as,
// and every guarantee violation found (none, for a passing run). The
// canonical serialization is deterministic — encoding/json emits map
// keys in sorted order and every field is worker-count-invariant
// outcome data (EngineStats deliberately excluded) — so the certificate
// digests identically on every run and machine, making it a golden
// artifact the CI diffs and the testdata fixture pins.
type Certificate struct {
	// Label tags the run (config name).
	Label string `json:"label,omitempty"`
	// QuantumNs and the window bounds identify the enumerated time grid;
	// the window is half-open [start, end).
	QuantumNs     int64 `json:"quantum_ns"`
	WindowStartNs int64 `json:"window_start_ns"`
	WindowEndNs   int64 `json:"window_end_ns"`
	// Targets lists the enumerated fault classes in canonical order.
	Targets []string `json:"targets"`
	// Placements is the total enumerated placement count.
	Placements int `json:"placements"`
	// Counts tallies placements by outcome name.
	Counts map[string]int `json:"counts"`
	// ByTarget breaks Counts down per fault class.
	ByTarget map[string]map[string]int `json:"by_target"`
	// ByMechanism counts placements per detection mechanism.
	ByMechanism map[string]int `json:"by_mechanism"`
	// Violations lists every guarantee breach; empty is the proof
	// obligation discharged.
	Violations []CertViolation `json:"violations,omitempty"`
	// Digest is the FNV-1a digest of the canonical serialization with
	// this field empty.
	Digest string `json:"digest,omitempty"`
}

// CertViolation is a Violation in certificate form.
type CertViolation struct {
	Placement int    `json:"placement"`
	Fault     string `json:"fault"`
	Kind      string `json:"kind"`
	Detail    string `json:"detail"`
}

// buildCertificate assembles the certificate for a finished run. With a
// nil space (VerifyFaults over an ad-hoc list) the grid fields are
// zero and Placements counts the explicit list.
func buildCertificate(cfg *Config, space *Space, res *Result) *Certificate {
	c := &Certificate{
		Label:       cfg.Label,
		Placements:  len(res.Records),
		Counts:      make(map[string]int),
		ByTarget:    make(map[string]map[string]int),
		ByMechanism: make(map[string]int),
	}
	if space != nil {
		c.QuantumNs = int64(space.Quantum)
		c.WindowStartNs = int64(space.Start)
		c.WindowEndNs = int64(space.End)
		for _, t := range space.Targets {
			c.Targets = append(c.Targets, t.String())
		}
	}
	// Outcome and target keys are iterated over their fixed canonical
	// enumerations (not map order): the certificate maps are rebuilt
	// deterministically even though encoding/json would canonicalize the
	// serialization anyway.
	outcomes := []fault.Outcome{fault.NotActivated, fault.Masked,
		fault.Omission, fault.FailSilent, fault.ValueFailure}
	for _, o := range outcomes {
		if n, ok := res.Counts[o]; ok {
			c.Counts[o.String()] = n
		}
	}
	for _, t := range fault.AllTargets() {
		m, ok := res.ByTarget[t]
		if !ok {
			continue
		}
		byOutcome := make(map[string]int)
		for _, o := range outcomes {
			if n, ok := m[o]; ok {
				byOutcome[o.String()] = n
			}
		}
		c.ByTarget[t.String()] = byOutcome
	}
	//nlft:allow nodeterminism key-for-key copy between maps is a commutative reduction; serialization sorts keys
	for m, n := range res.ByMechanism {
		c.ByMechanism[m] = n
	}
	for _, v := range res.Violations {
		c.Violations = append(c.Violations, CertViolation{
			Placement: v.Placement,
			Fault:     v.Fault.String(),
			Kind:      v.Kind,
			Detail:    v.Detail,
		})
	}
	// Stamp the canonical digest now so Result.Cert.Digest is directly
	// comparable without a marshal round-trip.
	if raw, err := json.Marshal(c); err == nil {
		c.Digest = fmt.Sprintf("fnv1a:%016x", obs.DigestBytes(raw))
	}
	return c
}

// MarshalCanonical renders the certificate deterministically and stamps
// Digest: the digest is computed over the compact serialization with
// Digest empty, then the stamped certificate is emitted indented with a
// trailing newline (the byte-exact form WriteFile stores and the golden
// fixture pins).
func (c *Certificate) MarshalCanonical() ([]byte, error) {
	cp := *c
	cp.Digest = ""
	raw, err := json.Marshal(&cp)
	if err != nil {
		return nil, err
	}
	cp.Digest = fmt.Sprintf("fnv1a:%016x", obs.DigestBytes(raw))
	out, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// WriteFile stores the canonical serialization at path.
func (c *Certificate) WriteFile(path string) error {
	b, err := c.MarshalCanonical()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// CrossCheck compares this run's per-class totals against a sampling
// campaign result over the same placement list (the campaign runner's
// records for one coin-free fault.TrialSpec per placement, assembled by
// fault.FinalizeSharded) and returns the mismatches —
// the acceptance bridge between the prover and the estimator: on a
// fully enumerated plan the sampler IS the ground truth the exhaustive
// engine must reproduce exactly.
func (r *Result) CrossCheck(campaign *fault.Result) []string {
	var diffs []string
	if len(campaign.Trials) != len(r.Records) {
		diffs = append(diffs, fmt.Sprintf("trial count %d != placement count %d",
			len(campaign.Trials), len(r.Records)))
		return diffs
	}
	for i := range r.Records {
		if got, want := r.Records[i].Outcome, campaign.Trials[i].Outcome; got != want {
			diffs = append(diffs, fmt.Sprintf("placement %d (%v): exhaust %v != campaign %v",
				i, r.Records[i].Fault, got, want))
			if len(diffs) >= 10 {
				diffs = append(diffs, "... (further mismatches suppressed)")
				return diffs
			}
		}
	}
	for _, o := range []fault.Outcome{fault.NotActivated, fault.Masked,
		fault.Omission, fault.FailSilent, fault.ValueFailure} {
		if r.Counts[o] != campaign.Counts[o] {
			diffs = append(diffs, fmt.Sprintf("class %v: exhaust %d != campaign %d",
				o, r.Counts[o], campaign.Counts[o]))
		}
	}
	return diffs
}
