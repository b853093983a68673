package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// Pinned digests of temtrace's exports: the event stream of all four
// Figure 3 scenarios and the merged metrics registry as CSV. Either
// moving means the kernel's TEM event stream or its accounting changed.
const (
	wantEventsDigest  = 0xa94098ead5a2dff9
	wantMetricsDigest = 0x6a5049f00d52ed83
)

// runTemtrace runs the command into a temporary directory and returns
// its stdout and the paths of the two exports.
func runTemtrace(t *testing.T) (stdout, jsonl, csv string) {
	t.Helper()
	dir := t.TempDir()
	jsonl = filepath.Join(dir, "tem.jsonl")
	csv = filepath.Join(dir, "tem.csv")
	var out bytes.Buffer
	if err := run(&out, jsonl, csv); err != nil {
		t.Fatal(err)
	}
	return out.String(), jsonl, csv
}

func TestExportsPinned(t *testing.T) {
	_, jsonl, csv := runTemtrace(t)
	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEventsJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.DigestEvents(events); got != wantEventsDigest {
		t.Errorf("event stream digest %#x (%d events), want %#x", got, len(events), uint64(wantEventsDigest))
	}
	metrics, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.DigestBytes(metrics); got != wantMetricsDigest {
		t.Errorf("metrics CSV digest %#x, want %#x", got, uint64(wantMetricsDigest))
	}
	for _, v := range obs.CheckInvariants(events) {
		t.Errorf("TEM invariant violated: %v", v)
	}
}

// TestReadmeVoteLine: the scenario (ii) vote record README quotes is a
// line of the JSONL export, byte for byte.
func TestReadmeVoteLine(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var quoted string
	sc := bufio.NewScanner(bytes.NewReader(readme))
	for sc.Scan() {
		if l := sc.Text(); strings.HasPrefix(l, "{") && strings.Contains(l, `"kind":"vote"`) {
			quoted = l
			break
		}
	}
	if !strings.Contains(quoted, `"node":"fig3-ii"`) {
		t.Fatalf("README quotes no fig3-ii vote record (found %q)", quoted)
	}
	_, jsonl, _ := runTemtrace(t)
	data, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(quoted+"\n")) {
		t.Errorf("export has no line %s", quoted)
	}
}

// TestStdoutShowsEventStream: the printed trace is the collector's
// stream, so it carries dispatch records, node labels and the release
// criticality, and every scenario delivers the fault-free result.
func TestStdoutShowsEventStream(t *testing.T) {
	stdout, _, _ := runTemtrace(t)
	for _, want := range []string{
		"release           fig3-i T critical",
		"dispatch          fig3-i T copy=1",
		"vote              fig3-ii T majority found",
		"error-detected    fig3-iv T copy=1",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q", want)
		}
	}
	if n := strings.Count(stdout, "delivered: [500500]"); n != 4 {
		t.Errorf("%d scenarios delivered [500500], want 4", n)
	}
}
