package shard

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// testSpec is the reference campaign the equivalence tests shard:
// small enough to run serially in milliseconds, sliced into enough
// leases that multiple workers genuinely interleave.
var testSpec = CampaignSpec{
	Trials: 96, Seed: 42, ECC: true, Telemetry: true, LeaseSize: 16,
}

var (
	serialOnce sync.Once
	serialRes  *fault.Result
	serialErr  error
)

// serialResult runs the reference campaign serially, once per process.
func serialResult(t *testing.T) *fault.Result {
	t.Helper()
	serialOnce.Do(func() {
		cfg, err := testSpec.Config(2)
		if err != nil {
			serialErr = err
			return
		}
		serialRes, serialErr = fault.Run(testSpec.Workload(), cfg)
	})
	if serialErr != nil {
		t.Fatal(serialErr)
	}
	return serialRes
}

// fakeClock is an injectable coordinator clock so lease expiry is
// driven by the test, not by sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

// drain runs the worker until the coordinator has no work left.
func drain(t *testing.T, w *Worker) {
	t.Helper()
	for {
		worked, err := w.RunOne()
		if err != nil {
			t.Error(err)
			return
		}
		if !worked {
			return
		}
	}
}

// drainN drains with n concurrent workers over the same transport.
func drainN(t *testing.T, tr Transport, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{Transport: tr, Name: "w" + string(rune('0'+i)), Parallelism: 2}
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain(t, w)
		}()
	}
	wg.Wait()
}

// requireSameResult asserts the coordinator's finalized result is
// bit-identical to the serial reference.
func requireSameResult(t *testing.T, c *Coordinator, id string, want *fault.Result, label string) {
	t.Helper()
	got, err := c.Result(id)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if g, w := got.Digest(), want.Digest(); g != w {
		t.Errorf("%s: digest %#x, want %#x", label, g, w)
	}
	if got.Metrics == nil || want.Metrics == nil {
		t.Fatalf("%s: missing metrics registry", label)
	}
	if g, w := got.Metrics.Digest(), want.Metrics.Digest(); g != w {
		t.Errorf("%s: metrics digest %#x, want %#x", label, g, w)
	}
	for _, o := range fault.AllOutcomes() {
		if got.Counts[o] != want.Counts[o] {
			t.Errorf("%s: %v count %d, want %d", label, o, got.Counts[o], want.Counts[o])
		}
	}
}

// TestShardedEqualsSerial: 1, 2 and 4 concurrent workers over the
// loopback transport all reproduce the serial campaign bit-for-bit.
func TestShardedEqualsSerial(t *testing.T) {
	want := serialResult(t)
	for _, workers := range []int{1, 2, 4} {
		c := NewCoordinator(CoordinatorOptions{})
		id, err := c.Submit(testSpec)
		if err != nil {
			t.Fatal(err)
		}
		drainN(t, Loopback{C: c}, workers)
		p, err := c.Progress(id)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Done || p.Completed != testSpec.Trials {
			t.Fatalf("%d workers: progress %+v, want done", workers, p)
		}
		requireSameResult(t, c, id, want, "workers="+string(rune('0'+workers)))
	}
}

// TestWorkerRunnerCacheBounded: a worker that serves more distinct
// campaigns than maxRunners keeps maxRunners runners, most recently
// leased first, and a re-leased campaign matches its serial run —
// both the most recent one, whose warm runner's suffix table its first
// leases recorded into, and the first one, whose runner was evicted
// and is rebuilt.
func TestWorkerRunnerCacheBounded(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	w := &Worker{Transport: Loopback{C: c}, Name: "w", Parallelism: 2}
	spec := func(seed uint64) CampaignSpec {
		return CampaignSpec{Trials: 48, Seed: seed, ECC: true, LeaseSize: 16}
	}
	serve := func(seed uint64) string {
		t.Helper()
		id, err := c.Submit(spec(seed))
		if err != nil {
			t.Fatal(err)
		}
		drain(t, w)
		return id
	}
	last := uint64(maxRunners + 2)
	for seed := uint64(1); seed <= last; seed++ {
		serve(seed)
	}
	if len(w.runners) != maxRunners {
		t.Fatalf("%d cached runners after %d campaigns, want %d", len(w.runners), last, maxRunners)
	}
	for i, cr := range w.runners {
		s := spec(last - uint64(i))
		if key, _ := s.Canonical(); cr.key != key {
			t.Errorf("cache slot %d holds %s, want seed %d's runner", i, cr.key, s.Seed)
		}
	}
	for _, seed := range []uint64{last, 1} {
		id := serve(seed)
		s := spec(seed)
		want, err := fault.Run(s.Workload(), mustConfig(t, &s, 2))
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest() != want.Digest() {
			t.Errorf("seed %d re-leased: digest %#x, serial %#x", seed, got.Digest(), want.Digest())
		}
		if key, _ := s.Canonical(); len(w.runners) != maxRunners || w.runners[0].key != key {
			t.Errorf("seed %d re-leased: %d runners, front %s", seed, len(w.runners), w.runners[0].key)
		}
	}
}

// TestWorkerLossRelease: a worker takes a lease and dies silently; the
// coordinator re-leases the range at TTL expiry and the final result
// is still bit-identical to the serial and no-loss runs.
func TestWorkerLossRelease(t *testing.T) {
	want := serialResult(t)
	clock := newFakeClock()
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, Now: clock.Now})
	id, err := c.Submit(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	lb := Loopback{C: c}

	// The doomed worker leases the first range and is never heard from
	// again.
	dead, err := lb.Lease("doomed")
	if err != nil || dead == nil {
		t.Fatalf("lease: %v, %v", dead, err)
	}
	if dead.Lo != 0 || dead.Hi != testSpec.LeaseSize {
		t.Fatalf("first lease [%d, %d), want [0, %d)", dead.Lo, dead.Hi, testSpec.LeaseSize)
	}

	// Before expiry the range is held: a healthy worker never sees it.
	clock.Advance(30 * time.Second)
	if err := c.Heartbeat(dead.ID); err != nil {
		t.Fatalf("heartbeat before expiry: %v", err)
	}

	// Three missed heartbeats later the lease expires and the range
	// returns to the pool; a healthy worker drains everything.
	clock.Advance(2 * time.Minute)
	if err := c.Heartbeat(dead.ID); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("heartbeat after expiry: %v, want ErrLeaseExpired", err)
	}
	drain(t, &Worker{Transport: lb, Name: "healthy", Parallelism: 2})
	p, err := c.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Done {
		t.Fatalf("progress after drain: %+v", p)
	}
	requireSameResult(t, c, id, want, "with worker loss")

	// The presumed-dead worker finally reports its (identical) result;
	// the duplicate is discarded and nothing double-counts.
	runner, err := fault.NewShardRunner(testSpec.Workload(), mustConfig(t, &testSpec, 1))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := runner.Run(dead.Lo, dead.Hi)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeCompletion(&buf, sr); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(dead.ID, &buf); err != nil {
		t.Fatalf("late duplicate completion: %v", err)
	}
	p, err = c.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	if p.Completed != testSpec.Trials {
		t.Fatalf("completed %d after duplicate, want %d", p.Completed, testSpec.Trials)
	}
	requireSameResult(t, c, id, want, "after late duplicate")
}

// TestDrainedCampaignsLeaveNothingToSweep: once a campaign's last span
// lands it leaves the lease scan, and the expiry sweep visits no lease
// of it, however far the clock moves — yet every lease the coordinator
// issued is still recognized, so a late heartbeat or duplicate
// completion is answered as before.
func TestDrainedCampaignsLeaveNothingToSweep(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, Now: clock.Now})
	lb := Loopback{C: c}
	spec := CampaignSpec{Trials: 12, Seed: 5, LeaseSize: 4}
	var ids []string
	for i := 0; i < 3; i++ {
		spec.Seed++
		id, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	first, err := lb.Lease("w")
	if err != nil || first == nil {
		t.Fatalf("lease: %v, %v", first, err)
	}
	clock.Advance(2 * time.Minute) // the first lease expires unreported
	drain(t, &Worker{Transport: lb, Name: "w", Parallelism: 1})
	clock.Advance(time.Hour)
	c.mu.Lock()
	live := 0
	for _, camp := range c.campaigns {
		live += len(camp.active) + len(camp.pending)
	}
	order, issued := len(c.order), len(c.leases)
	c.mu.Unlock()
	if order != 0 || live != 0 {
		t.Errorf("after draining: %d campaigns left to scan, %d live or pending leases", order, live)
	}
	if want := 3*3 + 1; issued != want {
		t.Errorf("%d leases recorded, want %d (every lease issued)", issued, want)
	}
	for _, id := range ids {
		if p, err := c.Progress(id); err != nil || !p.Done || p.Leased != 0 {
			t.Errorf("campaign %s: progress %+v, %v", id, p, err)
		}
	}
	if err := c.Heartbeat(first.ID); err != nil {
		t.Errorf("late heartbeat on a completed span: %v", err)
	}
	if l, err := lb.Lease("w"); err != nil || l != nil {
		t.Errorf("lease after draining: %+v, %v", l, err)
	}
}

// TestExpiredLeaseFirstCompletionWins: a lease expires (the worker was
// only slow, not dead) and its completion arrives before any re-lease
// runs — it must be applied, and the re-leased range must then be
// retired from the pool.
func TestExpiredLeaseFirstCompletionWins(t *testing.T) {
	want := serialResult(t)
	clock := newFakeClock()
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, Now: clock.Now})
	id, err := c.Submit(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	lb := Loopback{C: c}
	slow, err := lb.Lease("slow")
	if err != nil || slow == nil {
		t.Fatalf("lease: %v, %v", slow, err)
	}
	clock.Advance(2 * time.Minute) // lease expires; range back in pool

	runner, err := fault.NewShardRunner(testSpec.Workload(), mustConfig(t, &testSpec, 1))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := runner.Run(slow.Lo, slow.Hi)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeCompletion(&buf, sr); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(slow.ID, &buf); err != nil {
		t.Fatalf("late-but-first completion: %v", err)
	}
	drain(t, &Worker{Transport: lb, Name: "healthy", Parallelism: 2})
	p, err := c.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Done || p.Completed != testSpec.Trials {
		t.Fatalf("progress %+v, want done with %d trials", p, testSpec.Trials)
	}
	requireSameResult(t, c, id, want, "first-completion-wins")
}

func mustConfig(t *testing.T, spec *CampaignSpec, parallelism int) fault.CampaignConfig {
	t.Helper()
	cfg, err := spec.Config(parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestHTTPEndToEnd drives the full HTTP protocol — submit, lease,
// heartbeat, streamed completion, progress, summary — through the real
// handler and client with an in-process round-tripper, no sockets.
func TestHTTPEndToEnd(t *testing.T) {
	want := serialResult(t)
	c := NewCoordinator(CoordinatorOptions{})
	client := &Client{
		Base: "http://coordinator.test",
		HTTP: &http.Client{Transport: inprocess{h: c.Handler()}},
	}
	id, err := client.Submit(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Summary(id); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("summary before completion: %v, want ErrIncomplete", err)
	}
	p, err := client.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	if p.Done || p.Completed != 0 {
		t.Fatalf("fresh progress %+v", p)
	}

	drainN(t, client, 2)

	sum, err := client.Summary(id)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest := "0x" + strings.TrimPrefix(sumHex(want.Digest()), "0x")
	if sum.Digest != wantDigest {
		t.Errorf("summary digest %s, want %s", sum.Digest, wantDigest)
	}
	for _, o := range fault.AllOutcomes() {
		if sum.Counts[o.String()] != want.Counts[o] {
			t.Errorf("summary count %v = %d, want %d", o, sum.Counts[o.String()], want.Counts[o])
		}
	}
	if !strings.Contains(sum.Text, "campaign: 96 trials, seed 42") {
		t.Errorf("summary text missing header:\n%s", sum.Text)
	}
	requireSameResult(t, c, id, want, "http")

	// Error surface over the wire.
	if _, err := client.Progress("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown campaign: %v, want ErrNotFound", err)
	}
	if err := client.Heartbeat("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown lease: %v, want ErrNotFound", err)
	}
	if _, err := client.Submit(CampaignSpec{Trials: 0}); err == nil {
		t.Error("zero-trial spec accepted over HTTP")
	}
}

func sumHex(v uint64) string {
	const digits = "0123456789abcdef"
	if v == 0 {
		return "0x0"
	}
	var b [16]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = digits[v&0xF]
		v >>= 4
	}
	return "0x" + string(b[i:])
}

// inprocess routes client requests straight into the handler.
type inprocess struct{ h http.Handler }

func (t inprocess) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// TestCompletionValidation: malformed completion streams must be
// rejected without corrupting campaign state.
func TestCompletionValidation(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	id, err := c.Submit(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	lb := Loopback{C: c}
	l, err := lb.Lease("w")
	if err != nil || l == nil {
		t.Fatalf("lease: %v, %v", l, err)
	}
	if err := c.Complete("nope", strings.NewReader("")); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown lease: %v, want ErrNotFound", err)
	}
	if err := c.Complete(l.ID, strings.NewReader("")); err == nil {
		t.Error("empty body accepted")
	}
	// Truncated: records but no end frame.
	var buf bytes.Buffer
	if err := writeFrame(&buf, &completionFrame{Records: make([]fault.TrialRecord, l.Hi-l.Lo)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(l.ID, &buf); err == nil {
		t.Error("truncated stream accepted")
	}
	// Wrong record count.
	buf.Reset()
	if err := writeFrame(&buf, &completionFrame{Records: make([]fault.TrialRecord, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, &completionFrame{End: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(l.ID, &buf); err == nil {
		t.Error("wrong record count accepted")
	}
	// A well-formed completion still lands after the rejects.
	runner, err := fault.NewShardRunner(testSpec.Workload(), mustConfig(t, &testSpec, 1))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := runner.Run(l.Lo, l.Hi)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := writeCompletion(&buf, sr); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(l.ID, &buf); err != nil {
		t.Fatalf("valid completion after rejects: %v", err)
	}
	p, err := c.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	if p.Completed != l.Hi-l.Lo {
		t.Fatalf("completed %d, want %d", p.Completed, l.Hi-l.Lo)
	}
}

// countingReader counts the bytes a consumer has taken from r.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestCompletionOverlongStream: a completion stream whose records run
// past the lease span is rejected as soon as the running record total
// exceeds the span — before the coordinator has read, let alone
// buffered, the rest of the stream.
func TestCompletionOverlongStream(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	if _, err := c.Submit(testSpec); err != nil {
		t.Fatal(err)
	}
	l, err := (Loopback{C: c}).Lease("w")
	if err != nil || l == nil {
		t.Fatalf("lease: %v, %v", l, err)
	}
	span := l.Hi - l.Lo
	var frame bytes.Buffer
	if err := writeFrame(&frame, &completionFrame{Records: make([]fault.TrialRecord, 1)}); err != nil {
		t.Fatal(err)
	}
	// Far more one-record frames than the lease covers, and no end frame.
	body := &countingReader{r: bytes.NewReader(bytes.Repeat(frame.Bytes(), 100*span))}
	if err := c.Complete(l.ID, body); err == nil {
		t.Fatal("over-long completion accepted")
	}
	if limit := (span + 1) * frame.Len(); body.n > limit {
		t.Errorf("read %d bytes before rejecting, want at most %d (%d frames)", body.n, limit, span+1)
	}
}

// TestSpecValidation exercises the submission guardrails.
func TestSpecValidation(t *testing.T) {
	bad := []CampaignSpec{
		{Trials: 0},
		{Trials: 10, Targets: []string{"warp-core"}},
		{Trials: 10, Compute: -1},
		{Trials: 10, LeaseSize: -1},
		{Trials: 10, KernelShare: 1.5},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
	good := CampaignSpec{Trials: 10, Targets: []string{"alu", "pc"}, KernelShare: 0.1, KernelDetect: 0.9}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	cfg, err := good.Config(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Targets) != 2 || cfg.Targets[0] != fault.TargetALU || cfg.Targets[1] != fault.TargetPC {
		t.Errorf("targets %v", cfg.Targets)
	}
	if cfg.Parallelism != 3 || cfg.KernelShare != 0.1 {
		t.Errorf("config %+v", cfg)
	}
}

// TestSubmitRejectsOversizedTrials: the coordinator allocates one record
// per trial on Submit, so an absurd trial count must be refused by
// validation before anything is allocated (1<<40 records would abort
// the process, which no handler can recover from).
func TestSubmitRejectsOversizedTrials(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	for _, n := range []int{maxTrials + 1, 1 << 40} {
		if _, err := c.Submit(CampaignSpec{Trials: n}); err == nil || !strings.Contains(err.Error(), "trials") {
			t.Errorf("Submit(%d trials): error %v, want a trial-count rejection", n, err)
		}
	}
	if err := (&CampaignSpec{Trials: maxTrials}).Validate(); err != nil {
		t.Errorf("spec at the trial ceiling rejected: %v", err)
	}
}

// TestHandlerRejectsUnknownSpecFields: POST /campaigns decodes strictly,
// so a retired or misspelt field is a 400 rather than a campaign run
// with that knob silently at its default.
func TestHandlerRejectsUnknownSpecFields(t *testing.T) {
	h := NewCoordinator(CoordinatorOptions{}).Handler()
	for _, body := range []string{
		`{"trials": 8, "seed": 1, "no_converge_cutoff": true}`,
		`{"trials": 8, "seed": 1, "snapshot_interval_ns": 125000}`,
		`{"trials": 8, "seed": 1, "lease_sise": 4}`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/campaigns", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unknown field") {
			t.Errorf("%s: status %d body %q, want 400 naming the unknown field", body, rec.Code, rec.Body.String())
		}
	}
}

// TestFrameCodec covers the framing edge cases directly.
func TestFrameCodec(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	var m map[string]int
	if err := readFrame(&buf, &m); err != nil || m["a"] != 1 {
		t.Fatalf("round-trip: %v, %v", m, err)
	}
	// Clean EOF at a frame boundary.
	if err := readFrame(&buf, &m); err == nil || err.Error() != "EOF" {
		t.Fatalf("boundary read: %v, want io.EOF", err)
	}
	// Oversized length prefix must be rejected before allocating.
	if err := readFrame(strings.NewReader("\xff\xff\xff\xff"), &m); err == nil {
		t.Error("oversized frame accepted")
	}
	// Torn header.
	if err := readFrame(strings.NewReader("\x00\x00"), &m); err == nil || err.Error() == "EOF" {
		t.Errorf("torn header: %v, want wrapped error", err)
	}
}

// FuzzFrameDecode feeds arbitrary bytes to the completion decoder. It
// must never panic, and any stream it accepts must carry exactly the
// lease's record count. The corpus is seeded with a real shard's
// completion stream and truncated and bit-flipped variants of it. The
// shard is kept small (two records, no metrics frame) so the fuzzer's
// minimization of new inputs stays cheap.
func FuzzFrameDecode(f *testing.F) {
	const want = 2
	spec := testSpec
	spec.Telemetry = false
	cfg, err := spec.Config(1)
	if err != nil {
		f.Fatal(err)
	}
	runner, err := fault.NewShardRunner(spec.Workload(), cfg)
	if err != nil {
		f.Fatal(err)
	}
	sr, err := runner.Run(0, want)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeCompletion(&buf, sr); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := readCompletion(bytes.NewReader(valid), want); err != nil {
		f.Fatalf("real completion rejected: %v", err)
	}
	f.Add(valid)
	for _, cut := range []int{0, 2, 4, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	for _, bit := range []int{3, 4*8 + 1, 4 * len(valid), 8*len(valid) - 1} {
		flipped := bytes.Clone(valid)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := readCompletion(bytes.NewReader(data), want)
		if err == nil && len(sr.Records) != want {
			t.Fatalf("accepted a completion with %d records, want %d", len(sr.Records), want)
		}
	})
}
