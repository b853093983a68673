// The allocation gates in this file pin the fork core's hottest paths:
// a trial that ends on a suffix-table entry with no detection mechanism
// fired, and the recording that fills the table. The race detector
// instruments allocations, so they only run in non-race builds (CI runs
// them as a separate step).

//go:build !race

package fault

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/obs"
)

// TestRunTrialZeroAlloc runs the benchmark's seed-1 sampled trials and
// requires RunTrial — restore, inject, boundary lookups, composition
// and classification — to allocate nothing on trials that fire no
// mechanism and end on a table entry. Every session records, so a
// trial's first run can mark boundaries and its repeat ends earlier;
// the two steady paths are gated separately: trials that end golden at
// their first post-injection boundary (they mark nothing, so every
// repeat takes the same path), and trials whose repeat ends on an entry
// an earlier trial recorded. Both run with no collector, with a
// campaign's metrics-only worker collector, where an entry also
// composes its registry delta, with the exhaustive verifier's
// events-only collector, where it composes its event tail into a
// stream each restore rewinds, and on the workload's UseMMU variant,
// whose kernel installs the task's MMU regions before every slice.
func TestRunTrialZeroAlloc(t *testing.T) {
	gate := func(t *testing.T, s *ForkSession, hot []TrialSpec, what string) {
		t.Helper()
		if len(hot) < 200 {
			t.Fatalf("only %d %s trials with no mechanism", len(hot), what)
		}
		k := 0
		if got := testing.AllocsPerRun(len(hot), func() {
			if _, err := s.RunTrial(hot[k%len(hot)]); err != nil {
				t.Fatal(err)
			}
			k++
		}); got != 0 {
			t.Errorf("RunTrial allocates %v per %s trial, want 0", got, what)
		}
	}
	// run runs every spec once and keeps those with no mechanism that
	// ended as keep says.
	run := func(t *testing.T, s *ForkSession, specs []TrialSpec, keep func() bool) []TrialSpec {
		t.Helper()
		var hot []TrialSpec
		for _, spec := range specs {
			rec, err := s.RunTrial(spec)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Mechanisms == nil && keep() {
				hot = append(hot, spec)
			}
		}
		return hot
	}
	for _, tc := range []struct {
		name string
		cfg  StdWorkloadConfig
		col  func() *obs.Collector
	}{
		{"no-collector", StdWorkloadConfig{ECC: true}, func() *obs.Collector { return nil }},
		{"metrics", StdWorkloadConfig{ECC: true}, newWorkerCollector},
		{"events-only", StdWorkloadConfig{ECC: true}, func() *obs.Collector { return obs.NewEventCollector("") }},
		{"mmu", StdWorkloadConfig{ECC: true, UseMMU: true}, func() *obs.Collector { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewStdWorkload(tc.cfg)
			specs := campaignSpecs(w, CampaignConfig{Trials: 2048, Seed: 1})
			s, err := newForkSession(w, tc.col(), 0)
			if err != nil {
				t.Fatal(err)
			}
			first := run(t, s, specs, func() bool { return endedGolden(s) && len(s.fw.marks) == 0 })
			recorded := run(t, s, specs, func() bool { return endedRecorded(s) })
			t.Run("golden-at-first-boundary", func(t *testing.T) { gate(t, s, first, "first-boundary golden") })
			t.Run("recorded", func(t *testing.T) { gate(t, s, recorded, "recorded-ending") })
		})
	}
}

// TestTelemetrySlotZeroAlloc gates a campaign slot's whole per-trial
// step, campaignSlot.Base and Run: drawing the trial on the slot's
// stream and selecting its fork base, the forked trial and, on a
// telemetry slot's metrics-only collector, the merge of its registry
// into the slot's accumulator and the trial's campaign.* counters —
// with no collector and with one, on the benchmark's seed-1 trials.
// Two passes over the trials fill the suffix table and every buffer a
// trial's path grows; the gate then reruns the trials that fire no
// mechanism and end on a table entry without marking, and requires
// them to allocate nothing.
func TestTelemetrySlotZeroAlloc(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	const trials = 2048
	for _, tc := range []struct {
		name      string
		telemetry bool
	}{{"no-collector", false}, {"metrics", true}} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewShardRunner(w, CampaignConfig{Trials: trials, Seed: 1, Parallelism: 1, Telemetry: tc.telemetry})
			if err != nil {
				t.Fatal(err)
			}
			fw := r.slots[0].fw
			s := &campaignSlot{r: r, fw: fw, plans: make([]trialPlan, trials), records: make([]TrialRecord, trials)}
			if tc.telemetry {
				s.acc = fw.col.Registry().Sibling()
			}
			step := func(i int) {
				s.Base(i)
				if err := s.Run(i); err != nil {
					t.Fatal(err)
				}
			}
			var hot []int
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < trials; i++ {
					step(i)
					if pass == 1 && s.records[i].Mechanisms == nil && fw.hit != nil && len(fw.marks) == 0 {
						hot = append(hot, i)
					}
				}
			}
			if len(hot) < 200 {
				t.Fatalf("only %d trials end on an entry without marking or a mechanism", len(hot))
			}
			k := 0
			if got := testing.AllocsPerRun(len(hot), func() {
				step(hot[k%len(hot)])
				k++
			}); got != 0 {
				t.Errorf("a slot's trial step allocates %v times, want 0", got)
			}
			t.Logf("%d of %d trials gated", len(hot), trials)
			if !tc.telemetry {
				return
			}
			if n := s.acc.CounterValue(obs.Key{Name: "campaign.trials"}); n < 2*trials {
				t.Errorf("the accumulator counted %d trials, want at least %d", n, 2*trials)
			}
		})
	}
}

// TestFaultFreeRunZeroAlloc gates a session's fault-free run from
// checkpoint 0 to the horizon, restore included, on the gate workload
// and its UseMMU variant: once one run has warmed the pools, a run
// allocates nothing, whether its slices replay or are interpreted.
func TestFaultFreeRunZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  StdWorkloadConfig
	}{
		{"gate", StdWorkloadConfig{ECC: true}},
		{"mmu", StdWorkloadConfig{ECC: true, UseMMU: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := newForkSession(NewStdWorkload(tc.cfg), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				s.Restore(0)
				if err := s.Inst.Sim.RunUntil(s.Horizon()); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if got := testing.AllocsPerRun(10, run); got != 0 {
				t.Errorf("a fault-free run allocates %v times, want 0", got)
			}
		})
	}
}

// TestRecordingZeroAllocAmortized runs the benchmark's seed-1 sampled
// trials on one fresh session, with no collector and with a metrics-only
// one, and requires the allocations recording adds — entries, their
// tails, registry deltas, the marks' collector states, table growth —
// to amortize below 0.05 per recorded entry: the arenas allocate per
// chunk, not per entry. Each trial first runs twice with marking
// switched off through the table's limit, which leaves the table as it
// was and so takes exactly the path the recording run then takes,
// marks aside (the first of these runs grows whatever reused buffers
// the trial's path needs); the gate charges recording the difference
// between the second and the recording run.
func TestRecordingZeroAllocAmortized(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	for _, tc := range []struct {
		name string
		col  func() *obs.Collector
	}{
		{"no-collector", func() *obs.Collector { return nil }},
		{"metrics", newWorkerCollector},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := newForkSession(w, tc.col(), 0)
			if err != nil {
				t.Fatal(err)
			}
			var ms runtime.MemStats
			mallocs := func(spec TrialSpec, limit int) uint64 {
				s.fw.table.limit = limit
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				if _, err := s.RunTrial(spec); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				return ms.Mallocs - before
			}
			var extra int64
			for _, spec := range campaignSpecs(w, CampaignConfig{Trials: 2048, Seed: 1}) {
				mallocs(spec, 0) // warms the buffers this trial's path grows
				off := mallocs(spec, 0)
				extra += int64(mallocs(spec, maxSuffixEntries)) - int64(off)
			}
			entries := s.RecordedEntries()
			if entries < 1000 {
				t.Fatalf("only %d recorded entries", entries)
			}
			if float64(extra) >= 0.05*float64(entries) {
				t.Errorf("recording %d entries adds %d allocations (%.3f per entry), want < 0.05 per entry",
					entries, extra, float64(extra)/float64(entries))
			}
			t.Logf("recording %d entries adds %d allocations", entries, extra)
		})
	}
}

// TestSliceRecordingZeroAllocAmortized runs the benchmark's seed-1
// sampled trials on one fresh session, with no collector and with a
// metrics-only one, and requires the allocations the slice memo's
// recording adds — entries, their store logs, index growth — to
// amortize below 0.05 per recorded slice: entries and logs are carved
// from arena chunks. Each trial first runs twice with the memo closed
// to new entries, which leaves it as it was (the first of these runs
// grows whatever reused buffers the trial's path needs), then with it
// open; suffix-table marking stays off throughout, so the table cannot
// end the last run earlier. The runs differ only where the open memo replays a slice it
// recorded earlier in the same run, which the closed one interprets; an
// interpreted slice allocates only when it traps (its exception), so
// the gate charges recording the difference on the trials where no
// slice trapped, and counts the slices those trials recorded.
func TestSliceRecordingZeroAllocAmortized(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	traps := map[string]bool{}
	for k := cpu.ExcIllegalOpcode; k <= cpu.ExcHalt; k++ {
		traps[k.String()] = true
	}
	for _, tc := range []struct {
		name string
		col  func() *obs.Collector
	}{
		{"no-collector", func() *obs.Collector { return nil }},
		{"metrics", newWorkerCollector},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := newForkSession(w, tc.col(), 0)
			if err != nil {
				t.Fatal(err)
			}
			s.fw.table.limit = 0
			memo := &s.fw.slices
			var ms runtime.MemStats
			mallocs := func(spec TrialSpec, limit int) (uint64, bool) {
				memo.Limit = limit
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				rec, err := s.RunTrial(spec)
				if err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				return ms.Mallocs - before, slices.ContainsFunc(rec.Mechanisms, func(m string) bool { return traps[m] })
			}
			var extra int64
			recorded := 0
			for _, spec := range campaignSpecs(w, CampaignConfig{Trials: 2048, Seed: 1}) {
				n := memo.Len()
				mallocs(spec, n) // warms the buffers this trial's path grows
				off, trapped := mallocs(spec, n)
				on, _ := mallocs(spec, maxSliceEntries)
				if !trapped {
					extra += int64(on) - int64(off)
					recorded += memo.Len() - n
				}
			}
			if recorded < 200 {
				t.Fatalf("only %d recorded slices on trials without a trap", recorded)
			}
			if float64(extra) >= 0.05*float64(recorded) {
				t.Errorf("recording %d slices adds %d allocations (%.3f per slice), want < 0.05 per slice",
					recorded, extra, float64(extra)/float64(recorded))
			}
			t.Logf("recording %d slices adds %d allocations; the memo holds %d", recorded, extra, memo.Len())
		})
	}
}
