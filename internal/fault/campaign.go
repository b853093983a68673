package fault

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/des"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/stats"
)

// CampaignConfig parameterizes an injection campaign.
type CampaignConfig struct {
	// Trials is the number of injection runs. Default 1000.
	Trials int
	// Seed drives all random choices; campaigns are fully reproducible.
	Seed uint64
	// Targets restricts the fault locations. Default AllTargets().
	Targets []Target
	// KernelShare is the probability that a fault strikes during kernel
	// execution. The paper assumes the kernel occupies ~5% of CPU time
	// (§3.3, P_FS = 0.05); the simulated kernel's own share is far
	// smaller (its code runs outside the simulated CPU), so the campaign
	// models kernel hits explicitly. Default 0.05.
	KernelShare float64
	// KernelDetect is the probability that the kernel's own EDMs
	// (assertions, range checks, per §2.3) detect a kernel fault and
	// force fail-silence. Undetected kernel faults are non-covered
	// errors. Default 0.98.
	KernelDetect float64
	// Parallelism is the number of worker goroutines trials run on.
	// Default (0) is runtime.GOMAXPROCS(0). Results are bit-identical
	// for any value: each trial's RNG stream is derived from
	// (Seed, trial index) alone, so neither worker count nor scheduling
	// order can perturb any trial.
	Parallelism int

	// Telemetry attaches an obs collector to every trial instance and
	// merges the registries into Result.Metrics. Registry merges are
	// commutative (counters and histograms add, gauges keep maxima), so
	// the aggregate is identical for any Parallelism. The merged registry
	// carries kernel counters/histograms plus campaign.* series (trials,
	// outcomes, detected_by, kernel_hits) that let Table 1 coverage be
	// recomputed from exported metrics alone. Telemetry keeps the
	// convergence cutoff (see SnapshotInterval): a trial that stops on a
	// state the suffix table holds takes that suffix's metrics and
	// events, so every trial's telemetry equals a from-scratch trial's.
	Telemetry bool
	// TelemetryEvents additionally retains each trial's structured event
	// stream (up to EventsPerTrial records), merged in trial order into
	// Result.Events with 1-based Trial tags, and records the fault-free
	// golden run's stream in Result.GoldenEvents. Implies Telemetry.
	TelemetryEvents bool
	// EventsPerTrial caps the events retained per trial when
	// TelemetryEvents is set. Default 512.
	EventsPerTrial int
	// OnProgress, when set, is called after every completed trial with
	// the number of settled trials and the total. Calls are serialized,
	// but arrive from worker goroutines in completion (not trial) order.
	OnProgress func(done, total int)

	// SnapshotInterval is the fork checkpoint spacing. Default (0):
	// 250µs, or the workload's own SnapshotHinter value when that hint
	// is finer. Delta snapshots make dense checkpoints cheap — each
	// capture copies only the pages dirtied since the last one — so a
	// fine default spacing shortens every trial's replayed suffix. The
	// spacing is widened if needed so a horizon fits in the checkpoint
	// store (see maxCheckpoints in fork.go). Every campaign also gets
	// the convergence cutoff: a forked trial whose forward state digest
	// at a checkpoint boundary after the injection is a state the
	// slot's suffix table holds (golden, or recorded by an earlier trial
	// of the slot) is classified, and its telemetry completed, without
	// simulating its suffix.
	SnapshotInterval des.Time
}

func (c *CampaignConfig) applyDefaults() {
	if c.Trials == 0 {
		c.Trials = 1000
	}
	if c.Targets == nil {
		c.Targets = AllTargets()
	}
	if c.KernelShare == 0 {
		c.KernelShare = 0.05
	}
	if c.KernelDetect == 0 {
		c.KernelDetect = 0.98
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.TelemetryEvents {
		c.Telemetry = true
	}
	if c.EventsPerTrial == 0 {
		c.EventsPerTrial = 512
	}
}

// TrialRecord describes one injection run.
type TrialRecord struct {
	Fault   Fault
	Kernel  bool // the fault hit kernel execution
	Outcome Outcome
	// Mechanisms lists the detection mechanisms that fired.
	Mechanisms []string
}

// Result aggregates a campaign.
type Result struct {
	Config CampaignConfig
	// Golden is the fault-free output sequence.
	Golden []Write
	// Counts tallies outcomes.
	Counts map[Outcome]int
	// ByMechanism tallies which detection mechanism fired first.
	ByMechanism map[string]int
	// ByTarget tallies outcomes per fault target.
	ByTarget map[Target]map[Outcome]int
	// Trials holds the individual records (in order).
	Trials []TrialRecord

	// Metrics is the campaign-wide telemetry registry (nil unless
	// Config.Telemetry). Counters and histograms add and gauges keep
	// maxima under merge, so the aggregate is identical for any
	// Parallelism and merge order.
	Metrics *obs.Registry
	// Events is the merged structured event stream, in trial order with
	// 1-based Trial tags (nil unless Config.TelemetryEvents).
	Events []obs.Event
	// GoldenEvents is the fault-free golden run's event stream (nil
	// unless Config.TelemetryEvents).
	GoldenEvents []obs.Event

	// Snapshots reports the fork engine's checkpoint-store traffic (nil
	// on results assembled by FinalizeSharded alone, such as a sharded
	// campaign's).
	Snapshots *SnapshotStats

	// Estimates of the paper's parameters (§3.2.2), conditioned as the
	// paper defines them: CD over activated faults; PT/POM/PFS over
	// detected errors.
	CD, PT, POM, PFS stats.Proportion
}

// SnapshotStats summarizes the fork engine's checkpoint-store traffic
// across all workers: how many checkpoints each store holds, how many
// capture/restore calls ran, and how many delta pages moved. The
// full-vs-delta byte comparison quantifies what dirty-page tracking
// saves over full-image snapshots.
type SnapshotStats struct {
	// Workers is the worker (and thus checkpoint-store) count.
	Workers int
	// Checkpoints is the per-worker checkpoint count (identical across
	// workers: capture is deterministic).
	Checkpoints int
	// PageBytes is the delta page size; RAMBytes one full RAM image.
	PageBytes uint64
	RAMBytes  uint64
	// Snapshots and Restores count calls summed over workers.
	Snapshots uint64
	Restores  uint64
	// PagesCopied counts pages captured into the page store (all-zero
	// pages share the store's zero page and are not counted);
	// PagesRestored counts pages copied back into RAM.
	PagesCopied   uint64
	PagesRestored uint64
}

// FullBytes is what the captures would have copied as full images.
func (s *SnapshotStats) FullBytes() uint64 { return s.Snapshots * s.RAMBytes }

// DeltaBytes is what the captures actually copied.
func (s *SnapshotStats) DeltaBytes() uint64 { return s.PagesCopied * s.PageBytes }

// MeanPagesPerSnapshot is the mean stored-page count per capture.
func (s *SnapshotStats) MeanPagesPerSnapshot() float64 {
	if s.Snapshots == 0 {
		return 0
	}
	return float64(s.PagesCopied) / float64(s.Snapshots)
}

// MeanPagesPerRestore is the mean page count copied back per restore.
func (s *SnapshotStats) MeanPagesPerRestore() float64 {
	if s.Restores == 0 {
		return 0
	}
	return float64(s.PagesRestored) / float64(s.Restores)
}

// Activated is the number of faults that produced an error.
func (r *Result) Activated() int {
	total := 0
	//nlft:allow nodeterminism commutative sum; iteration order cannot affect the total
	for o, n := range r.Counts {
		if o != NotActivated {
			total += n
		}
	}
	return total
}

// Detected is the number of activated faults whose error was detected.
func (r *Result) Detected() int {
	return r.Counts[Masked] + r.Counts[Omission] + r.Counts[FailSilent]
}

// Summary renders a human-readable report.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: %d trials, seed %d\n", r.Config.Trials, r.Config.Seed)
	for _, o := range AllOutcomes() {
		fmt.Fprintf(&b, "  %-14s %6d\n", o.String()+":", r.Counts[o])
	}
	fmt.Fprintf(&b, "  activated: %d, detected: %d\n", r.Activated(), r.Detected())
	fmt.Fprintf(&b, "  C_D  = %v\n", r.CD)
	fmt.Fprintf(&b, "  P_T  = %v\n", r.PT)
	fmt.Fprintf(&b, "  P_OM = %v\n", r.POM)
	fmt.Fprintf(&b, "  P_FS = %v\n", r.PFS)
	mechs := make([]string, 0, len(r.ByMechanism))
	//nlft:allow nodeterminism collection order is erased by the sort.Strings below
	for m := range r.ByMechanism {
		mechs = append(mechs, m)
	}
	sort.Strings(mechs)
	for _, m := range mechs {
		fmt.Fprintf(&b, "  detected by %-16s %6d\n", m+":", r.ByMechanism[m])
	}
	return b.String()
}

// newInstance builds a trial instance, attaching the collector when the
// workload supports observation.
func newInstance(w Workload, col *obs.Collector) (*Instance, error) {
	if col != nil {
		if ow, ok := w.(ObservableWorkload); ok {
			return ow.NewObserved(col)
		}
	}
	return w.New()
}

// newTrialCollector builds a slot's event-keeping collector, capped at
// EventsPerTrial events. Used only when TelemetryEvents is set. It is
// built once per slot (campaignCollector); each trial's restore rewinds
// it to the checkpoint, so its buffer holds one trial's stream at a
// time and the cap applies per trial.
func newTrialCollector(cfg *CampaignConfig) *obs.Collector {
	col := obs.NewCollector("")
	col.SetEventLimit(cfg.EventsPerTrial)
	return col
}

// newWorkerCollector builds a slot's metrics-only collector. It is
// built once per slot (campaignCollector) and rewound by each trial's
// restore like the event-keeping one; it just retains no events.
func newWorkerCollector() *obs.Collector {
	col := obs.NewCollector("")
	col.SetEventLimit(-1) // metrics only
	return col
}

// recordTrialMetrics adds the campaign-level accounting for one settled
// trial to its registry: these campaign.* series mirror the Result
// tallies so Table 1 coverage is recomputable from exported metrics
// (guarded by TestCampaignMetricsCrossCheck).
func recordTrialMetrics(reg *obs.Registry, rec *TrialRecord) {
	if reg == nil {
		return
	}
	reg.Counter(obs.Key{Name: "campaign.trials"}).Inc()
	reg.Counter(obs.Key{Name: "campaign.outcomes", Mechanism: rec.Outcome.String()}).Inc()
	if rec.Kernel {
		reg.Counter(obs.Key{Name: "campaign.kernel_hits"}).Inc()
	}
	for _, m := range rec.Mechanisms {
		reg.Counter(obs.Key{Name: "campaign.detected_by", Mechanism: m}).Inc()
	}
}

// Run executes the campaign on the workload: slot 0's fork session
// (whose capture run is the golden run), the range executor over trials
// [0, Trials), then FinalizeSharded. Each trial draws from its own RNG
// stream derived from (Seed, trial index), so the result is
// bit-identical whatever the worker count. Campaign phases (golden run,
// trials, merge) are labeled with pprof labels, so -cpuprofile output
// attributes time per phase.
func Run(w Workload, cfg CampaignConfig) (*Result, error) {
	cfg.applyDefaults()
	r, err := newRunner(w, cfg)
	if err != nil {
		return nil, err
	}
	records, events, metrics, err := r.run(0, cfg.Trials, nil, ProgressCounter(cfg.OnProgress, cfg.Trials))
	if err != nil {
		return nil, err
	}
	var res *Result
	pprof.Do(context.Background(), pprof.Labels("campaign-phase", "merge"), func(context.Context) {
		res, err = FinalizeSharded(cfg, r.Golden(), records, metrics)
		if err != nil {
			return
		}
		for i, evs := range events {
			for _, e := range evs {
				e.Trial = i + 1
				res.Events = append(res.Events, e)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	res.GoldenEvents = r.slots[0].GoldenEvents()
	res.Snapshots = r.snapshotStats()
	return res, nil
}

// goldenRun executes the workload fault-free on a fresh instance with no
// checkpoints. No engine runs it: every engine's golden run is its fork
// session's capture run (newForkSession), and goldenRun is the
// reference GoldenWrites exposes to the from-scratch oracle.
func goldenRun(w Workload, col *obs.Collector) ([]Write, error) {
	inst, err := newInstance(w, col)
	if err != nil {
		return nil, err
	}
	if err := inst.Sim.RunUntil(w.Horizon()); err != nil {
		return nil, fmt.Errorf("fault: golden run: %w", err)
	}
	if err := checkGolden(inst); err != nil {
		return nil, err
	}
	return inst.Rec.Writes, nil
}

// checkGolden validates a finished fault-free run: the node must not
// have failed silent, no release may have been omitted, and it must
// have produced output.
func checkGolden(inst *Instance) error {
	if failed, reason := inst.Kernel.Failed(); failed {
		return fmt.Errorf("fault: golden run failed silent: %s", reason)
	}
	if inst.Rec.Omissions > 0 {
		return fmt.Errorf("fault: golden run had omissions; workload unschedulable")
	}
	if len(inst.Rec.Writes) == 0 {
		return fmt.Errorf("fault: golden run produced no outputs; workload broken")
	}
	return nil
}

// drawFault picks a random fault within the workload's windows. The
// injection window is half-open: Intn(end-start) ranges over
// [0, end-start), so at ∈ [start, end) and the end instant can never be
// drawn (guarded by TestInjectionWindowHalfOpen).
func drawFault(w Workload, cfg CampaignConfig, rng *des.Rand) Fault {
	start, end := w.InjectionWindow()
	at := start + des.Time(rng.Intn(int(end-start)))
	target := cfg.Targets[rng.Intn(len(cfg.Targets))]
	f := Fault{At: at, Target: target}
	drawLocus(w, &f, rng)
	return f
}

// DrawFaultAt draws the locus fields for a fault at a fixed instant —
// for samplers that choose the instant themselves (the adaptive
// campaign draws it uniform over a stratum's kernel-activity-free
// sub-intervals). The locus draws are the same Intn sequence
// drawFault performs after its instant draw.
func DrawFaultAt(w Workload, target Target, at des.Time, rng *des.Rand) Fault {
	f := Fault{At: at, Target: target}
	drawLocus(w, &f, rng)
	return f
}

// drawLocus fills the target-specific locus fields of f. Draw order
// per target is pinned by the campaign digest tests: any change would
// shift every subsequent draw on the trial's stream.
func drawLocus(w Workload, f *Fault, rng *des.Rand) {
	switch f.Target {
	case TargetRegister:
		f.Reg = rng.Intn(13) + 1 // r1..r13: live computation registers
		f.Bit = uint(rng.Intn(32))
	case TargetPC, TargetSP:
		f.Bit = uint(rng.Intn(32))
	case TargetALU:
		f.Mask = 1 << uint(rng.Intn(32))
	case TargetMemoryData:
		base, words := w.DataRange()
		f.Addr = base + uint32(rng.Intn(int(words)))*4
		f.Bit = uint(rng.Intn(32))
	case TargetMemoryCode:
		base, words := w.CodeRange()
		f.Addr = base + uint32(rng.Intn(int(words)))*4
		f.Bit = uint(rng.Intn(32))
	}
}

// apply injects the fault into a live instance.
func apply(inst *Instance, f Fault) {
	switch f.Target {
	case TargetRegister:
		inst.Kernel.Proc().FlipRegister(f.Reg, f.Bit)
	case TargetPC:
		inst.Kernel.Proc().FlipPC(f.Bit)
	case TargetSP:
		inst.Kernel.Proc().FlipRegister(15, f.Bit)
	case TargetALU:
		inst.Kernel.Proc().InjectALUFault(f.Mask)
	case TargetMemoryData, TargetMemoryCode:
		inst.Kernel.Mem().FlipBit(f.Addr, f.Bit)
	}
}

// ScratchTrial runs spec as the from-scratch reference trial: a fresh
// instance built with col, the injection scheduled at t=0 and simulated
// through with no checkpoints and no cutoff, classified against golden.
// It is a test oracle, not an engine — the differential tests
// (TestSliceReplayDifferential, TestDispatchCheckpointDifferential,
// TestDeadContextCutoffDifferential, TestTrialTelemetryEquivalence and
// others) pin every engine's records to it. The trial's fault and kernel coins arrive
// precomputed in spec (a sampled campaign's come from drawTrial). The
// finished instance is returned for counters the record omits.
func ScratchTrial(w Workload, spec TrialSpec, golden []Write, col *obs.Collector) (TrialRecord, *Instance, error) {
	inst, err := newInstance(w, col)
	if err != nil {
		return TrialRecord{}, nil, err
	}
	f := spec.Fault
	rec := TrialRecord{Fault: f}
	// Whether this fault lands in kernel execution was decided up front:
	// the simulated kernel's logic runs outside the simulated CPU, so its
	// share of exposure is modelled explicitly (see CampaignConfig).
	undetectedKernel := false
	inst.Sim.Schedule(f.At, des.PrioInject, func() {
		if spec.KernelHit || inst.Kernel.Activity() == kernel.ActivityKernel {
			rec.Kernel = true
			// A modelled kernel hit is detected with probability
			// KernelDetect; a fault that lands while the kernel itself is
			// executing (and was not already modelled as a kernel hit) is
			// always caught by the kernel EDMs.
			if spec.KernelDetected || (inst.Kernel.Activity() == kernel.ActivityKernel && !spec.KernelHit) {
				inst.Kernel.ForceFailSilent("kernel EDM: assertion after fault")
			} else {
				undetectedKernel = true
			}
			return
		}
		apply(inst, f)
	})
	if err := inst.Sim.RunUntil(w.Horizon()); err != nil {
		return TrialRecord{}, nil, err
	}
	st := inst.Kernel.Stats()
	mechs := kernel.Grown(&noDetections, &st.ErrorsDetected)
	rec.Mechanisms = mechs.Names()
	failed, _ := inst.Kernel.Failed()
	rec.Outcome = classify(failed, inst.Rec.Writes, inst.Rec.Omissions,
		inst.Rec.MaskedReleases, mechs.Has(kernel.MechECC), golden, undetectedKernel)
	return rec, inst, nil
}

// noDetections is a run's detection counters before it starts.
var noDetections [kernel.NumMechanisms]uint64

// classify maps one finished trial's observables onto the paper's
// outcome classes: read off the live instance by the from-scratch
// oracle, composed from a suffix-table entry by the fork core.
func classify(failed bool, writes []Write, omissions, maskedReleases int,
	eccCorrected bool, golden []Write, undetectedKernel bool) Outcome {
	if undetectedKernel {
		// A non-covered error in the kernel: §3.2.1 pessimistically
		// treats these as (potential) system failures.
		return ValueFailure
	}
	if failed {
		return FailSilent
	}
	detections := maskedReleases > 0 || eccCorrected
	switch {
	case equalWrites(writes, golden):
		if detections {
			return Masked
		}
		if omissions > 0 {
			// All outputs present yet a release omitted: means the last
			// release settled past the horizon in golden too; treat as
			// omission conservatively.
			return Omission
		}
		return NotActivated
	case omissions > 0 && isSubsequence(writes, golden):
		return Omission
	case isStrictPrefixOrSubsequence(writes, golden):
		// Missing outputs without a recorded omission event: a recovery
		// pushed the commit past the horizon. Count as omission (no wrong
		// value escaped).
		return Omission
	default:
		return ValueFailure
	}
}

func equalWrites(a, b []Write) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// isSubsequence reports whether each element of sub appears, in order,
// in full.
func isSubsequence(sub, full []Write) bool {
	i := 0
	for _, w := range full {
		if i < len(sub) && sub[i] == w {
			i++
		}
	}
	return i == len(sub)
}

func isStrictPrefixOrSubsequence(writes, golden []Write) bool {
	return len(writes) < len(golden) && isSubsequence(writes, golden)
}
