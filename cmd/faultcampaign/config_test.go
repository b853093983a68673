package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestConfigRoundTrip: -dump-config output loads back into an
// identical configuration via -config.
func TestConfigRoundTrip(t *testing.T) {
	cfg, _, err := parseFlags([]string{"-trials", "123", "-seed", "9", "-snapshot-interval", "125us", "-targets", "alu,pc"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.dump()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := parseFlags([]string{"-config", path})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := loaded.dump()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Errorf("round-trip drift:\n%s\nvs\n%s", b, b2)
	}
	if loaded.Trials != 123 || loaded.Seed != 9 || loaded.SnapshotInterval != duration(125*time.Microsecond) {
		t.Errorf("loaded %+v", loaded)
	}
	// Explicit flags override the file.
	over, _, err := parseFlags([]string{"-config", path, "-trials", "77"})
	if err != nil {
		t.Fatal(err)
	}
	if over.Trials != 77 || over.Seed != 9 {
		t.Errorf("override: trials %d seed %d", over.Trials, over.Seed)
	}
}

// TestConfigRejectsUnknownField: stale config files — including ones
// dumped before the convergence-cutoff switch or the exhaustive mode
// was retired — fail loudly.
func TestConfigRejectsUnknownField(t *testing.T) {
	for _, body := range []string{
		`{"trials": 5, "warp": 9}`,
		`{"trials": 5, "converge_cutoff": true}`,
		`{"trials": 5, "exhaustive": true}`,
		`{"trials": 5, "quantum": "50µs"}`,
	} {
		path := filepath.Join(t.TempDir(), "cfg.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := parseFlags([]string{"-config", path}); err == nil {
			t.Errorf("%s: unknown config field accepted", body)
		}
	}
}

// TestRetiredFlagsUnknown: the exhaustive mode's flags are gone
// (cmd/exhaustcheck enumerates the placement space), so passing one is
// a parse error, not a silent no-op.
func TestRetiredFlagsUnknown(t *testing.T) {
	for _, args := range [][]string{{"-exhaustive"}, {"-quantum", "50us"}} {
		if _, _, err := parseFlags(args); err == nil {
			t.Errorf("%v: retired flag accepted", args)
		}
	}
}

// TestValidateConflicts: contradictory flag combinations are errors,
// not silent no-ops.
func TestValidateConflicts(t *testing.T) {
	cases := []struct {
		args []string
		want string // error substring; "" = must validate
	}{
		{[]string{"-trials", "500", "-parallel", "4"}, ""},
		{[]string{"-adaptive", "-ci-width", "0.02", "-compute", "16", "-max-trials", "4096"}, ""},
		{[]string{"-serve", ":8080", "-lease-ttl", "10s"}, ""},
		{[]string{"-worker", "http://c", "-parallel", "2", "-poll", "100ms"}, ""},
		{[]string{"-submit", "http://c", "-trials", "600", "-lease-size", "64", "-digest"}, ""},

		{[]string{"-serve", ":8080", "-worker", "http://c"}, "at most one"},
		{[]string{"-worker", "http://c", "-adaptive"}, "not valid in -worker mode"},
		{[]string{"-worker", "http://c", "-trials", "5"}, "not valid in -worker mode"},
		{[]string{"-serve", ":8080", "-metrics-out", "m.json"}, "not valid in -serve mode"},
		{[]string{"-submit", "http://c", "-metrics-out", "m.json"}, "not valid in -submit mode"},
		{[]string{"-submit", "http://c", "-trials", "0"}, "trials"},
		{[]string{"-submit", "http://c", "-targets", "warp-core"}, "unknown target"},
		{[]string{"-adaptive", "-trials", "5"}, "conflicts with -adaptive"},
		{[]string{"-adaptive", "-digest"}, "conflicts with -adaptive"},
		{[]string{"-adaptive", "-metrics-out", "m.json"}, "conflicts with -adaptive"},
		{[]string{"-ci-width", "0.1"}, "requires -adaptive"},
		{[]string{"-lease-size", "64"}, "requires -serve, -worker or -submit"},
		{[]string{"-trials", "0"}, "-trials must be >= 1"},
	}
	for _, tc := range cases {
		cfg, set, err := parseFlags(tc.args)
		if err != nil {
			t.Errorf("%v: parse: %v", tc.args, err)
			continue
		}
		err = cfg.Validate(set)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%v: unexpected error %v", tc.args, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want substring %q", tc.args, err, tc.want)
		}
	}
}

// TestSpecMapping: the -submit spec mirrors what a local run would use,
// so the sharded digest is comparable to the local -digest.
func TestSpecMapping(t *testing.T) {
	cfg, _, err := parseFlags([]string{
		"-submit", "http://c", "-trials", "600", "-seed", "7",
		"-targets", "alu, pc", "-lease-size", "64",
		"-snapshot-interval", "125us",
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cfg.spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Trials != 600 || spec.Seed != 7 || !spec.ECC || spec.Compute != 64 {
		t.Errorf("spec %+v", spec)
	}
	if len(spec.Targets) != 2 || spec.Targets[0] != "alu" || spec.Targets[1] != "pc" {
		t.Errorf("targets %v", spec.Targets)
	}
	if spec.LeaseSize != 64 || spec.SnapshotIntervalNs != 125_000 {
		t.Errorf("spec %+v", spec)
	}
	if err := spec.Validate(); err != nil {
		t.Error(err)
	}
}
