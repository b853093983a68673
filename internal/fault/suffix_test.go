package fault

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// endedGolden reports whether the session's last trial ended on a
// golden entry of its suffix table.
func endedGolden(s *ForkSession) bool { return s.fw.hit != nil && s.fw.hit.golden }

// campaignSpecs is a campaign's own trial plans as session specs: the
// (Seed, index) draws fault.Run makes, coins included.
func campaignSpecs(w Workload, cfg CampaignConfig) []TrialSpec {
	cfg.applyDefaults()
	specs := make([]TrialSpec, cfg.Trials)
	var rng des.Rand
	for i := range specs {
		specs[i] = drawTrial(w, &cfg, i, &rng)
	}
	return specs
}

// endedRecorded reports whether the session's last trial ended on a
// recorded entry of its suffix table.
func endedRecorded(s *ForkSession) bool { return s.fw.hit != nil && !s.fw.hit.golden }

// trialWork is the deterministic work of a list of forked trials: the
// checkpoint count, the events fired and the kernel+task cycles summed
// over every trial's simulated span, the task cycles the CPU
// interpreted rather than replayed from the session's slice memo, how
// many trials end on a golden and on a recorded suffix-table entry, and
// the pages every restore copied back into RAM.
type trialWork struct {
	checkpoints                                             int
	fired, cycles, interpreted, goldens, recorded, restored uint64
}

// measureTrialWork runs specs on a fresh session with col. goldenOnly
// switches marking off through the table's limit, so the table holds
// the golden entries only. Each trial is measured the way perfbench's
// layer probe measures it: restore its fork base, read the counters,
// run it, read them again.
func measureTrialWork(t *testing.T, w Workload, col *obs.Collector, goldenOnly bool, specs []TrialSpec) trialWork {
	t.Helper()
	s, err := newForkSession(w, col, 0)
	if err != nil {
		t.Fatal(err)
	}
	if goldenOnly {
		s.fw.table.limit = 0
	}
	snap := &s.Inst.Kernel.Mem().Snap
	pages0 := snap.PagesRestored
	got := trialWork{checkpoints: s.Checkpoints()}
	for i, spec := range specs {
		s.Restore(s.Select(spec.Fault.At))
		f0, st0, sl0 := s.Inst.Sim.Fired(), s.Inst.Kernel.Stats(), s.SliceStats()
		if _, err := s.RunTrial(spec); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		st := s.Inst.Kernel.Stats()
		got.fired += s.Inst.Sim.Fired() - f0
		got.cycles += st.KernelCycles + st.TaskCycles - st0.KernelCycles - st0.TaskCycles
		got.interpreted += s.SliceStats().InterpretedCycles - sl0.InterpretedCycles
		switch {
		case endedGolden(s):
			got.goldens++
		case endedRecorded(s):
			got.recorded++
		}
	}
	got.restored = snap.PagesRestored - pages0
	return got
}

// TestTrialWorkCountersPinned pins the deterministic per-trial work of
// the fork core on the benchmark's gate workload at seed 1 (see
// trialWork), twice per config: on the config's own session, which
// records, so trials also end on entries earlier trials recorded, and
// on a no-collector session whose marking the table's limit switches
// off — a table holding the golden entries only, the work before
// recording; the sampled config's golden-only pages restored are what
// the full-scan restore copies. The telemetry config's metrics
// collector must not change where any trial stops, so its row is the
// no-collector session's on its own 512 trials. A drift here means
// trials stop at different boundaries, or restores copy different
// pages, or a different share of slices replays, even when every
// outcome still agrees. The adaptive engine's row is in internal/adapt.
func TestTrialWorkCountersPinned(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	cases := []struct {
		name             string
		cfg              CampaignConfig
		col              func() *obs.Collector
		want, goldenOnly trialWork
	}{
		{"sampled", CampaignConfig{Trials: 2048, Seed: 1, Parallelism: 1}, func() *obs.Collector { return nil },
			trialWork{52, 7792, 1060024, 171064, 1559, 474, 1938}, trialWork{52, 12512, 2041339, 171064, 1939, 0, 1951}},
		{"telemetry", CampaignConfig{Trials: 512, Seed: 1, Parallelism: 1, Telemetry: true}, newWorkerCollector,
			trialWork{52, 2326, 343529, 54734, 381, 124, 485}, trialWork{52, 3436, 569489, 54734, 483, 0, 488}},
	}
	// The interpreted task cycles fell from 354,919 and 362,059
	// (sampled) and 96,384 (telemetry) when slices starting with a
	// correctable ECC flip pending began replaying their flip-free
	// entries (cpu.SliceMemo); no other column moved.
	const cols = "checkpoints, fired, cycles, interpreted task cycles, golden ends, recorded ends, pages restored"
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			specs := campaignSpecs(w, tc.cfg)
			if got := measureTrialWork(t, w, tc.col(), false, specs); got != tc.want {
				t.Errorf("%s = %v; want %v", cols, got, tc.want)
			}
			if got := measureTrialWork(t, w, nil, true, specs); got != tc.goldenOnly {
				t.Errorf("golden-only no-collector session: %s = %v; want %v", cols, got, tc.goldenOnly)
			}
		})
	}
}

// TestSuffixTableRecordedComposition explores a planned ALU and
// code-memory placement list twice on one recording session: on the
// gate workload, where ECC corrects the code flips, and without ECC on
// a deadline too tight for every recovery, where a code flip recurs
// until the node fails silent. Together they compose every counter
// delta and the failed state from recorded entries. Every
// record, composed event stream and omission count, from both passes,
// must equal the from-scratch oracle's with a full-trace collector —
// whether the placement was simulated, ended on a golden entry, or was
// composed from an entry an earlier placement recorded. The second
// pass finds every placement's first post-injection state already in
// the table, so each must end there: on the golden entry where the
// first pass did, on a recorded entry otherwise, and recording nothing
// new.
func TestSuffixTableRecordedComposition(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  StdWorkloadConfig
	}{
		{"gate", StdWorkloadConfig{ECC: true}},
		{"no-ecc-tight-deadline", StdWorkloadConfig{Deadline: 35 * des.Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) { testRecordedComposition(t, NewStdWorkload(tc.cfg)) })
	}
}

func testRecordedComposition(t *testing.T, w Workload) {
	s, err := NewForkSession(w, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := GoldenWrites(w)
	if err != nil {
		t.Fatal(err)
	}
	var specs []TrialSpec
	codeBase, _ := w.CodeRange()
	last := s.CheckpointAt(s.Checkpoints() - 1)
	for at := des.Time(0); at < last; at += 130 * des.Microsecond {
		specs = append(specs,
			TrialSpec{Fault: Fault{At: at, Target: TargetALU, Mask: 1 << 9}},
			TrialSpec{Fault: Fault{At: at, Target: TargetMemoryCode, Addr: codeBase + 8, Bit: 5}})
	}
	firstBoundary := func(at des.Time) int {
		b := 1
		for s.CheckpointAt(b) <= at {
			b++
		}
		return b
	}
	explore := func(pass int, spec TrialSpec) Explored {
		t.Helper()
		x, err := s.Explore(spec)
		if err != nil {
			t.Fatal(err)
		}
		col := obs.NewCollector("")
		col.SetEventLimit(0)
		want, inst, err := ScratchTrial(w, spec, golden, col)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(x.Record, want) {
			t.Errorf("pass %d, %v: record %+v, from-scratch %+v", pass, spec.Fault, x.Record, want)
		}
		if len(x.Events) != len(col.Events()) || (len(x.Events) > 0 && !reflect.DeepEqual(x.Events, col.Events())) {
			t.Errorf("pass %d, %v: %d composed events (digest %#x), from-scratch %d (digest %#x)", pass, spec.Fault,
				len(x.Events), obs.DigestEvents(x.Events), len(col.Events()), obs.DigestEvents(col.Events()))
		}
		if x.Omissions != inst.Rec.Omissions {
			t.Errorf("pass %d, %v: %d omissions, from-scratch %d", pass, spec.Fault, x.Omissions, inst.Rec.Omissions)
		}
		return x
	}

	goldenFirst := make([]bool, len(specs))
	var simulated int
	for i, spec := range specs {
		x := explore(1, spec)
		goldenFirst[i] = x.Suffix == SuffixGolden && s.Inst.Sim.Now() == s.CheckpointAt(firstBoundary(spec.Fault.At))
		if x.Suffix == SuffixSimulated {
			simulated++
		}
	}
	recorded := s.RecordedEntries()
	if simulated == 0 || recorded == 0 {
		t.Fatalf("first pass simulated %d placements and recorded %d entries; the list exercises nothing", simulated, recorded)
	}
	var recordedHits int
	for i, spec := range specs {
		x := explore(2, spec)
		want := SuffixRecorded
		if goldenFirst[i] {
			want = SuffixGolden
		}
		// A trial that stops at a boundary leaves the clock at its instant.
		if at := s.CheckpointAt(firstBoundary(spec.Fault.At)); x.Suffix != want || s.Inst.Sim.Now() != at {
			t.Errorf("pass 2, %v: ended on suffix %d at %v, want %d at %v", spec.Fault, x.Suffix, s.Inst.Sim.Now(), want, at)
		}
		if x.Suffix == SuffixRecorded {
			recordedHits++
		}
	}
	if got := s.RecordedEntries(); got != recorded {
		t.Errorf("pass 2 recorded %d new entries, want 0", got-recorded)
	}
	if recordedHits == 0 {
		t.Error("pass 2 composed no placement from a recorded entry")
	}
}

// TestCappedRecorderEntries runs capped event-stream campaigns' own
// trials (one slot) on one session each and follows every entry a
// recorder made while its collector was at the cap, so the entry's
// event tail lacks events it dropped. A trial that ends on such an
// entry must compose exactly the from-scratch trial's events and drop
// count: a trial with more room than the recorder had at the mark must
// not end there (obs.Suffix.Fits). At a cap of 4 every trial is at the
// cap by its first post-injection boundary (the golden stream passes 4
// events before the first boundary), so only the cap of 40 has trials
// with more room than a recorder, and only it fails when the Fits check
// is dropped; both must end some trials on capped recordings.
func TestCappedRecorderEntries(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	for _, limit := range []int{4, 40} {
		t.Run(fmt.Sprintf("cap-%d", limit), func(t *testing.T) {
			cfg := CampaignConfig{Trials: 1024, Seed: 1, TelemetryEvents: true, EventsPerTrial: limit, Parallelism: 1}
			cfg.applyDefaults()
			s, err := newForkSession(w, campaignCollector(&cfg), 0)
			if err != nil {
				t.Fatal(err)
			}
			capped := make(map[*suffixEntry]bool)
			var ended int
			for i, spec := range campaignSpecs(w, cfg) {
				if _, err := s.RunTrial(spec); err != nil {
					t.Fatal(err)
				}
				if e := s.fw.hit; e != nil && capped[e] {
					ended++
					col := campaignCollector(&cfg)
					if _, _, err := ScratchTrial(w, spec, s.Golden(), col); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(s.Col.Events(), col.Events()) || s.Col.Dropped() != col.Dropped() {
						t.Errorf("trial %d ended on a capped recording: %d events (%d dropped), from-scratch %d (%d dropped)",
							i, len(s.Col.Events()), s.Col.Dropped(), len(col.Events()), col.Dropped())
					}
				}
				for _, mk := range s.fw.marks {
					capped[s.fw.table.m[mk.key]] = s.Col.Dropped() > 0
				}
			}
			if ended == 0 {
				t.Error("no trial ended on an entry a capped recorder made")
			}
		})
	}
}

// TestSuffixDeltaKeepsRecurringMechanism scans seed-1 campaign trials
// on one session and follows every entry whose recorder fired a
// mechanism both before and after its mark. A trial that ends on such an
// entry without having fired that mechanism itself must still report
// it, because its count grows in the suffix: an entry holds the
// mechanisms whose count grew after its mark, which a set difference of
// the two runs' mark sets would lose. The workload is the gate one
// without ECC and with a deadline too tight for a third copy, where a
// code flip fires illegal-opcode in every release: injected between two
// releases it fires before the next boundary and after it, injected
// mid-copy the first release sees a comparison mismatch instead, and
// the two trials meet at that boundary (trials 16,535 and 36,933). Every
// such trial's record must equal the from-scratch trial's.
func TestSuffixDeltaKeepsRecurringMechanism(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{Deadline: 35 * des.Microsecond})
	s, err := newForkSession(w, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	recurring := make(map[*suffixEntry]kernel.MechanismSet)
	var ended int
	for i, spec := range campaignSpecs(w, CampaignConfig{Trials: 40000, Seed: 1}) {
		rec, err := s.RunTrial(spec)
		if err != nil {
			t.Fatal(err)
		}
		if e := s.fw.hit; e != nil && recurring[e]&^kernel.Grown(&noDetections, &s.fw.detected) != 0 {
			ended++
			want, _, err := ScratchTrial(w, spec, s.Golden(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rec, want) {
				t.Errorf("trial %d: record %+v, from-scratch %+v", i, rec, want)
			}
		}
		for k := range s.fw.marks {
			mk := &s.fw.marks[k]
			after := kernel.Grown(&mk.detected, &s.fw.detected) | s.fw.tail
			recurring[s.fw.table.m[mk.key]] = after & kernel.Grown(&noDetections, &mk.detected)
		}
	}
	if ended == 0 {
		t.Fatal("no trial ended on an entry whose recorder fired, before and after its mark, a mechanism the trial had not")
	}
}
