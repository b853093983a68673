package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/shard"
)

// parse is a test helper: flags → validated config.
func parse(t *testing.T, args ...string) *cliConfig {
	t.Helper()
	cfg, set, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(set); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestRunLocal drives the local campaign path end to end, including
// the digest, snapshot-stats, and telemetry exports.
func TestRunLocal(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	trace := filepath.Join(dir, "t.jsonl")
	cfg := parse(t, "-trials", "24", "-seed", "3", "-digest", "-snapshot-stats",
		"-metrics-out", metrics, "-trace-out", trace, "-targets", "alu,pc")
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{metrics, trace} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("export %s: %v", path, err)
		}
	}
}

// TestRunAdaptive drives the adaptive engine with a small trial cap.
func TestRunAdaptive(t *testing.T) {
	cfg := parse(t, "-adaptive", "-max-trials", "256", "-compute", "16", "-progress")
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	bad := parse(t, "-adaptive", "-max-trials", "256")
	bad.CIOutcome = "warp-failure"
	if err := run(bad); err == nil || !strings.Contains(err.Error(), "unknown outcome") {
		t.Errorf("bad outcome: %v", err)
	}
}

// TestRunRejectsBadTargets: target parsing fails before any trial runs.
func TestRunRejectsBadTargets(t *testing.T) {
	cfg := defaultConfig()
	cfg.Trials = 4
	cfg.Targets = "warp-core"
	if err := run(cfg); err == nil {
		t.Error("bad target accepted")
	}
}

func TestParseOutcome(t *testing.T) {
	o, err := parseOutcome("fail-silent")
	if err != nil || o != fault.FailSilent {
		t.Errorf("%v, %v", o, err)
	}
	if _, err := parseOutcome("nope"); err == nil {
		t.Error("unknown outcome accepted")
	}
}

func TestWorkerName(t *testing.T) {
	if workerName("w7") != "w7" {
		t.Error("explicit name not kept")
	}
	if workerName("") == "" {
		t.Error("empty default name")
	}
}

func TestWriteMemProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.out")
	if err := writeMemProfile(path); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("profile %v: %v", fi, err)
	}
}

// TestSubmitAndWorkerModes drives runSubmit and runWorkerMode against
// an in-process coordinator over real HTTP, and checks the sharded
// digest printed by -submit matches a direct serial run.
func TestSubmitAndWorkerModes(t *testing.T) {
	coord := shard.NewCoordinator(shard.CoordinatorOptions{})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// A worker in worker-mode configuration drains in the background;
	// it exits with a transport error once the server closes.
	wcfg := parse(t, "-worker", srv.URL, "-parallel", "2", "-poll", "5ms", "-progress")
	workerDone := make(chan error, 1)
	go func() { workerDone <- runWorkerMode(wcfg) }()

	scfg := parse(t, "-submit", srv.URL, "-trials", "48", "-seed", "11",
		"-lease-size", "16", "-poll", "5ms", "-progress", "-digest")
	if err := runSubmit(scfg); err != nil {
		t.Fatal(err)
	}

	spec, err := scfg.spec()
	if err != nil {
		t.Fatal(err)
	}
	ccfg, err := spec.Config(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fault.Run(spec.Workload(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := (&shard.Client{Base: srv.URL}).Summary("c1")
	if err != nil {
		t.Fatal(err)
	}
	if wantDigest := fmt.Sprintf("%#x", want.Digest()); sum.Digest != wantDigest {
		t.Errorf("digest %s, want %s", sum.Digest, wantDigest)
	}

	srv.Close()
	select {
	case err := <-workerDone:
		if err == nil {
			t.Error("worker exited without transport error after server close")
		}
	case <-time.After(10 * time.Second):
		t.Error("worker did not exit after server close")
	}
}
