package fault

import (
	"reflect"
	"testing"

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
