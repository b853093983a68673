package fault

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
)

// mergeShards folds shard results (in the given order) into a final
// Result the way the coordinator does: records land at their range
// offset, registries merge commutatively, and the tallies are counted
// from the records.
func mergeShards(t *testing.T, cfg CampaignConfig, golden []Write, shards []*ShardResult) *Result {
	t.Helper()
	cfg.applyDefaults()
	records := make([]TrialRecord, cfg.Trials)
	merged := obs.NewRegistry()
	for _, sr := range shards {
		copy(records[sr.Lo:sr.Hi], sr.Records)
		merged.Merge(sr.Metrics.Registry())
	}
	var metrics *obs.Registry
	if cfg.Telemetry {
		metrics = merged
	}
	res, err := FinalizeSharded(cfg, golden, records, metrics)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireResultsEqual compares the observable result surface — the
// digest plus every field it covers, so a digest bug cannot mask a
// real divergence (or vice versa).
func requireResultsEqual(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.Trials, want.Trials) {
		t.Errorf("%s: trial records differ", label)
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Errorf("%s: counts %v, want %v", label, got.Counts, want.Counts)
	}
	if !reflect.DeepEqual(got.ByTarget, want.ByTarget) {
		t.Errorf("%s: by-target tallies differ", label)
	}
	if !reflect.DeepEqual(got.ByMechanism, want.ByMechanism) {
		t.Errorf("%s: by-mechanism %v, want %v", label, got.ByMechanism, want.ByMechanism)
	}
	if (got.Metrics == nil) != (want.Metrics == nil) {
		t.Fatalf("%s: metrics presence %v, want %v", label, got.Metrics != nil, want.Metrics != nil)
	}
	if got.Metrics != nil && got.Metrics.Digest() != want.Metrics.Digest() {
		t.Errorf("%s: metrics digest %#x, want %#x", label, got.Metrics.Digest(), want.Metrics.Digest())
	}
	if got.Digest() != want.Digest() {
		t.Errorf("%s: result digest %#x, want %#x", label, got.Digest(), want.Digest())
	}
}

// TestShardRunEquivalence: any partition of the trial range, run at any
// slot parallelism and merged in any order, reproduces the serial
// campaign bit-for-bit — records, tallies, registry, digest.
func TestShardRunEquivalence(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{})
	cfg := CampaignConfig{Trials: 64, Seed: 7, Telemetry: true}

	serialCfg := cfg
	serialCfg.Parallelism = 2
	want, err := Run(w, serialCfg)
	if err != nil {
		t.Fatal(err)
	}

	partitions := [][][2]int{
		{{0, 64}},
		{{0, 21}, {21, 40}, {40, 64}},
		{{48, 64}, {0, 16}, {32, 48}, {16, 32}}, // out-of-order arrival
	}
	for _, parallelism := range []int{1, 3} {
		shardCfg := cfg
		shardCfg.Parallelism = parallelism
		runner, err := NewShardRunner(w, shardCfg)
		if err != nil {
			t.Fatal(err)
		}
		for pi, ranges := range partitions {
			shards := make([]*ShardResult, 0, len(ranges))
			for _, rg := range ranges {
				sr, err := runner.Run(rg[0], rg[1])
				if err != nil {
					t.Fatal(err)
				}
				shards = append(shards, sr)
			}
			got := mergeShards(t, shardCfg, runner.Golden(), shards)
			requireResultsEqual(t, got, want,
				// Parallelism differs between the serial and sharded
				// configs by design; the digest must not see it.
				fmtLabel("parallelism", parallelism, "partition", pi))
		}
	}
}

func fmtLabel(args ...interface{}) string {
	b, _ := json.Marshal(args)
	return string(b)
}

// TestShardRunIdempotent: re-running a range on a warm runner (the
// re-lease path after a worker loss) yields a byte-identical shard
// result, so the coordinator can discard duplicates freely.
func TestShardRunIdempotent(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{})
	runner, err := NewShardRunner(w, CampaignConfig{Trials: 32, Seed: 11, Telemetry: true, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(0, 8); err != nil { // warm the slots on a different range first
		t.Fatal(err)
	}
	a, err := runner.Run(8, 24)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runner.Run(8, 24)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("re-run of the same range differs:\n%s\n%s", ja, jb)
	}
}

// TestShardRunnerRejects: configurations and ranges the sharded path
// cannot honor must error, not silently misbehave.
func TestShardRunnerRejects(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{})
	if _, err := NewShardRunner(nil, CampaignConfig{}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := NewShardRunner(w, CampaignConfig{TelemetryEvents: true}); err == nil {
		t.Error("per-trial event streams accepted")
	}
	runner, err := NewShardRunner(w, CampaignConfig{Trials: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rg := range [][2]int{{-1, 5}, {5, 11}, {5, 5}, {7, 3}} {
		if _, err := runner.Run(rg[0], rg[1]); err == nil {
			t.Errorf("range [%d, %d) accepted", rg[0], rg[1])
		}
	}
	if _, err := FinalizeSharded(CampaignConfig{Trials: 10}, nil, make([]TrialRecord, 4), nil); err == nil {
		t.Error("record-count mismatch accepted")
	}
}

// TestResultDigestSensitivity: the digest must move when any covered
// field moves — otherwise the CI gate could pass vacuously.
func TestResultDigestSensitivity(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{})
	res, err := Run(w, CampaignConfig{Trials: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	base := res.Digest()
	if res.Digest() != base {
		t.Fatal("digest not stable")
	}
	res.Trials[3].Outcome++
	if res.Digest() == base {
		t.Error("digest blind to a trial outcome change")
	}
	res.Trials[3].Outcome--
	res.Counts[Masked]++
	if res.Digest() == base {
		t.Error("digest blind to a tally change")
	}
	res.Counts[Masked]--
	res.Config.Seed++
	if res.Digest() == base {
		t.Error("digest blind to the seed")
	}
	res.Config.Seed--
	if res.Digest() != base {
		t.Fatal("digest not restored; test bug")
	}
}

// Fuzz fixture: the serial reference is computed once per process and
// shared across fuzz iterations.
var (
	fuzzOnce   sync.Once
	fuzzWant   *Result
	fuzzRunner *ShardRunner
	fuzzErr    error
)

const fuzzTrials = 48

func fuzzSetup() {
	w := NewStdWorkload(StdWorkloadConfig{})
	cfg := CampaignConfig{Trials: fuzzTrials, Seed: 9, Telemetry: true, Parallelism: 2}
	fuzzWant, fuzzErr = Run(w, cfg)
	if fuzzErr != nil {
		return
	}
	fuzzRunner, fuzzErr = NewShardRunner(w, cfg)
}

// FuzzShardRangeEquivalence fuzzes shard-boundary placement: any two
// cut points partition the trial range into up to three shards whose
// merge must equal the serial run exactly. Boundary pathologies
// (cuts at 0, at Trials, coincident cuts, single-trial shards) are
// exactly what the fuzzer explores.
func FuzzShardRangeEquivalence(f *testing.F) {
	f.Add(uint16(0), uint16(0))
	f.Add(uint16(1), uint16(fuzzTrials-1))
	f.Add(uint16(fuzzTrials/2), uint16(fuzzTrials/2))
	f.Add(uint16(3), uint16(40))
	f.Fuzz(func(t *testing.T, a, b uint16) {
		fuzzOnce.Do(fuzzSetup)
		if fuzzErr != nil {
			t.Fatal(fuzzErr)
		}
		ca, cb := int(a)%(fuzzTrials+1), int(b)%(fuzzTrials+1)
		if ca > cb {
			ca, cb = cb, ca
		}
		cuts := []int{0, ca, cb, fuzzTrials}
		var shards []*ShardResult
		for i := 0; i+1 < len(cuts); i++ {
			lo, hi := cuts[i], cuts[i+1]
			if lo == hi {
				continue
			}
			sr, err := fuzzRunner.Run(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, sr)
		}
		got := mergeShards(t, fuzzRunner.Config(), fuzzRunner.Golden(), shards)
		requireResultsEqual(t, got, fuzzWant, fmtLabel("cuts", ca, cb))
	})
}
