package fault

import (
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/obs"
)

// TestSessionGoldenMatchesGoldenRun pins the fact every engine's golden
// reference rests on: a fork session's capture run, finished to the
// horizon, reproduces a plain golden run (goldenRun, no checkpoints and
// no phantom) exactly — the same writes and the same event stream — for
// every collector shape an engine attaches. The registries are not
// compared: the session's des.pending_peak gauge reads one higher,
// because the phantom injection stays queued through the capture run,
// and no Result carries the golden registry.
func TestSessionGoldenMatchesGoldenRun(t *testing.T) {
	cfg := CampaignConfig{}
	cfg.applyDefaults()
	shapes := []struct {
		name string
		col  func() *obs.Collector
	}{
		{"no-collector", func() *obs.Collector { return nil }},
		{"trial-capped", func() *obs.Collector { return newTrialCollector(&cfg) }},
		{"metrics-only", newWorkerCollector},
		{"unlimited", func() *obs.Collector {
			col := obs.NewCollector("")
			col.SetEventLimit(0)
			return col
		}},
		{"events-only", func() *obs.Collector { return obs.NewEventCollector("") }},
	}
	workloads := []struct {
		name string
		cfg  StdWorkloadConfig
	}{
		{"gate", StdWorkloadConfig{ECC: true}},
		{"exhaust-3-periods", StdWorkloadConfig{ECC: true, Periods: 3, Compute: 16}},
	}
	for _, wc := range workloads {
		w := NewStdWorkload(wc.cfg)
		for _, sh := range shapes {
			t.Run(wc.name+"/"+sh.name, func(t *testing.T) {
				ref := sh.col()
				want, err := goldenRun(w, ref)
				if err != nil {
					t.Fatal(err)
				}
				s, err := newForkSession(w, sh.col(), 0)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(s.Golden(), want) {
					t.Errorf("session golden: %d writes, goldenRun %d", len(s.Golden()), len(want))
				}
				var wantEvents []obs.Event
				if ref != nil {
					wantEvents = ref.Events()
				}
				got := s.GoldenEvents()
				if len(got) != len(wantEvents) || (len(got) > 0 && !reflect.DeepEqual(got, wantEvents)) {
					t.Errorf("session golden events: %d (digest %#x), goldenRun %d (digest %#x)",
						len(got), obs.DigestEvents(got), len(wantEvents), obs.DigestEvents(wantEvents))
				}
			})
		}
	}
}

// noisyBuild is the standard workload with an event emitted while each
// instance is built, before the simulator runs.
type noisyBuild struct{ *stdWorkload }

func (n noisyBuild) NewObserved(col *obs.Collector) (*Instance, error) {
	inst, err := n.stdWorkload.NewObserved(col)
	col.Emit(obs.Event{Kind: obs.KindRelease, Task: "build"})
	return inst, err
}

// TestSessionRejectsNoisyStart: checkpoints rewind the collector from
// the capture run's marks, which hold the events from checkpoint 0 on,
// so a workload that emits while it is built is refused rather than
// restored without those events.
func TestSessionRejectsNoisyStart(t *testing.T) {
	w := noisyBuild{NewStdWorkload(StdWorkloadConfig{}).(*stdWorkload)}
	if _, err := NewForkSession(w, 0, true); err == nil {
		t.Fatal("a session over a workload that emits while built was accepted")
	}
	if _, err := NewForkSession(w, 0, false); err != nil {
		t.Fatalf("without a collector the build-time event is moot: %v", err)
	}
}

// TestEventsOnlySession guards what NewForkSession's withEvents builds:
// an events-only collector. Over the same trials, the session's records,
// composed events, golden prefixes, suffix sources, drops and recorded
// entries equal those of a session with a full unlimited collector, and
// its collector never gains a registry, after trials ending on golden,
// recorded and simulated suffixes alike.
func TestEventsOnlySession(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true, Periods: 3, Compute: 16})
	s, err := NewForkSession(w, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	full := obs.NewCollector("")
	full.SetEventLimit(0)
	ref, err := newForkSession(w, full, 0)
	if err != nil {
		t.Fatal(err)
	}
	codeBase, _ := w.CodeRange()
	last := s.CheckpointAt(s.Checkpoints() - 1)
	var specs []TrialSpec
	for at := des.Time(0); at < last; at += 70 * des.Microsecond {
		specs = append(specs,
			TrialSpec{Fault: Fault{At: at, Target: TargetALU, Mask: 1 << 9}},
			TrialSpec{Fault: Fault{At: at, Target: TargetMemoryCode, Addr: codeBase + 8, Bit: 5}},
			TrialSpec{Fault: Fault{At: at, Target: TargetRegister, Reg: 6, Bit: 3}})
	}
	// Past the last checkpoint no boundary is left to stop at.
	specs = append(specs, TrialSpec{Fault: Fault{At: last + 10*des.Microsecond, Target: TargetRegister, Reg: 6, Bit: 3}})
	ends := map[Suffix]int{}
	for pass := 0; pass < 2; pass++ {
		for _, spec := range specs {
			x, err := s.Explore(spec)
			if err != nil {
				t.Fatal(err)
			}
			y, err := ref.Explore(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(x.Record, y.Record) || x.Suffix != y.Suffix || x.Prefix != y.Prefix || x.Omissions != y.Omissions {
				t.Errorf("pass %d, %v: events-only %+v, full %+v", pass, spec.Fault, x, y)
			}
			if !reflect.DeepEqual(x.Events, y.Events) || s.Col.Dropped() != ref.Col.Dropped() {
				t.Errorf("pass %d, %v: %d events (%d dropped), full collector %d (%d dropped)", pass, spec.Fault,
					len(x.Events), s.Col.Dropped(), len(y.Events), ref.Col.Dropped())
			}
			if s.Col.Registry() != nil {
				t.Fatalf("pass %d, %v: the events-only session's collector gained a registry", pass, spec.Fault)
			}
			ends[x.Suffix]++
		}
	}
	for _, k := range []Suffix{SuffixSimulated, SuffixGolden, SuffixRecorded} {
		if ends[k] == 0 {
			t.Errorf("no trial ended on suffix source %d (%v); the case exercises less than it claims", k, ends)
		}
	}
	if s.RecordedEntries() != ref.RecordedEntries() {
		t.Errorf("%d recorded entries, full collector %d", s.RecordedEntries(), ref.RecordedEntries())
	}
	if len(full.Registry().Snapshot()) == 0 {
		t.Error("the full collector's registry is empty; the comparison shows nothing")
	}
}

// BenchmarkNewForkSession builds one gate-workload session — the
// capture run with its checkpoints, which is also the golden run — with
// no collector and with the events-only collector.
func BenchmarkNewForkSession(b *testing.B) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	for _, events := range []bool{false, true} {
		name := "no-collector"
		if events {
			name = "events"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewForkSession(w, 0, events); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkActivityWindows times a plain golden run of the gate
// workload: a fault-free instance with no slice memo, the interpreter's
// flip-free load and fetch path throughout.
func BenchmarkActivityWindows(b *testing.B) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ActivityWindows(w); err != nil {
			b.Fatal(err)
		}
	}
}
