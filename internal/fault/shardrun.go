package fault

// The range-restricted campaign entry point. fault.Run is one call of
// it over [0, Trials); the sharded orchestrator (internal/shard) builds
// one ShardRunner per campaign spec and runs every lease it wins through
// it: the per-slot fork sessions (slot 0's capture run doubling as the
// golden run) are paid once and amortized across leases, so a lease
// costs only its trials' post-injection suffixes — the same economics the fork engine gives a
// serial campaign.
//
// Why a shard is bit-identical to the same index range of a serial
// run: every trial's spec is a pure function of (Seed, trial index)
// (drawTrial), every trial executes on the same fork core
// (forkWorker.run), records land at their trial index, the
// outcome tallies are computed from the records (FinalizeSharded), and
// the telemetry registry is a commutative sum of per-trial
// contributions. No part of a trial can observe which process, lease,
// or slot ran it.

import (
	"context"
	"fmt"
	"runtime/pprof"

	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/stats"
)

// ShardResult is one completed trial-index range [Lo, Hi): the records
// in trial order plus the shard's additive telemetry delta.
type ShardResult struct {
	Lo, Hi int
	// Records holds the trials of the range in index order;
	// Records[i] is trial Lo+i, bit-identical to the record a serial
	// run produces at that index.
	Records []TrialRecord
	// Metrics is the shard's telemetry registry delta in canonical wire
	// form (nil unless the campaign collects telemetry).
	Metrics *obs.RegistryWire
}

// ShardRunner is the one holder of per-slot fork sessions for planned
// and sampled trials alike. It executes arbitrary trial-index ranges of
// one campaign configuration (Run) and caller-given trial lists
// (RunSpecs: the adaptive engine's rounds, the exhaustive
// cross-check). Build one per campaign and feed it every lease or
// round: slot 0's fork session — whose capture run is the campaign's
// golden run — is built at construction and every other slot's on its
// first call, so later calls start injecting immediately. Not safe for
// concurrent calls (each already fans out over cfg.Parallelism slots
// internally).
type ShardRunner struct {
	w   Workload
	cfg CampaignConfig
	// slots holds one fork session per slot, built on the slot's first
	// range (slot 0's at construction) and reused after (restore fully
	// rewinds it).
	slots []*ForkSession
}

// NewShardRunner validates the configuration and builds slot 0's fork
// session, whose capture run is the golden run. Per-trial event streams
// (cfg.TelemetryEvents) are trial-ordered rather than additive, so they
// are a serial-only feature and rejected.
func NewShardRunner(w Workload, cfg CampaignConfig) (*ShardRunner, error) {
	if cfg.TelemetryEvents {
		return nil, fmt.Errorf("fault: per-trial event streams cannot be sharded; use Telemetry (metrics only)")
	}
	cfg.applyDefaults()
	return newRunner(w, cfg)
}

// newRunner builds a runner with one slot per unit of cfg.Parallelism,
// and slot 0's session eagerly: its capture run is the campaign's golden
// run. cfg has its defaults applied.
func newRunner(w Workload, cfg CampaignConfig) (*ShardRunner, error) {
	if w == nil {
		return nil, fmt.Errorf("fault: nil workload")
	}
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("fault: %d trials", cfg.Trials)
	}
	r := &ShardRunner{w: w, cfg: cfg, slots: make([]*ForkSession, cfg.Parallelism)}
	var err error
	pprof.Do(context.Background(), pprof.Labels("campaign-phase", "golden-run"), func(context.Context) {
		r.slots[0], err = r.newSlot()
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// newSlot builds one slot's fork session with the campaign's collector.
func (r *ShardRunner) newSlot() (*ForkSession, error) {
	return newForkSession(r.w, campaignCollector(&r.cfg), r.cfg.SnapshotInterval)
}

// campaignCollector is the collector a campaign slot's trials run
// with: an event-keeping one for event streams, a metrics-only one for
// metrics, none otherwise. Each slot builds one; restores rewind it.
func campaignCollector(cfg *CampaignConfig) *obs.Collector {
	switch {
	case cfg.TelemetryEvents:
		return newTrialCollector(cfg)
	case cfg.Telemetry:
		return newWorkerCollector()
	}
	return nil
}

// Config is the runner's configuration with defaults applied.
func (r *ShardRunner) Config() CampaignConfig { return r.cfg }

// Golden is the fault-free output sequence.
func (r *ShardRunner) Golden() []Write { return r.slots[0].Golden() }

// ActivityWindows is the golden run's merged kernel-activity windows
// (ForkSession.ActivityWindows of slot 0).
func (r *ShardRunner) ActivityWindows() []Interval { return r.slots[0].ActivityWindows() }

// Run executes trials [lo, hi) and returns their records and additive
// telemetry delta. Any partition of [0, Trials) into Run calls — in any
// order, including overlapping re-runs of the same range discarded by
// the caller — merges to the serial result.
func (r *ShardRunner) Run(lo, hi int) (*ShardResult, error) {
	if lo < 0 || hi > r.cfg.Trials || lo >= hi {
		return nil, fmt.Errorf("fault: shard range [%d, %d) outside campaign [0, %d)", lo, hi, r.cfg.Trials)
	}
	records, _, reg, err := r.run(lo, hi, nil, nil)
	if err != nil {
		return nil, err
	}
	out := &ShardResult{Lo: lo, Hi: hi, Records: records}
	if reg != nil {
		out.Metrics = reg.Wire()
	}
	return out, nil
}

// RunSpecs executes a caller-given trial list and returns the records
// in list order: specs[i] is injected exactly as given, kernel coins
// included (both false for a coin-free population; the kernel-activity
// check at the injection instant applies either way), on the same slots
// and fork core as Run. The configuration's Trials and Seed play no
// part, and no telemetry is returned. Sessions persist across calls, so
// each slot's suffix table and slice memo carry over from one list to
// the next; the records do not depend on them.
func (r *ShardRunner) RunSpecs(specs []TrialSpec) ([]TrialRecord, error) {
	records, _, _, err := r.run(0, len(specs), specs, nil)
	return records, err
}

// run executes trials [lo, hi) on the range executor and returns their
// records in index order, their event streams (TelemetryEvents only)
// and the merged telemetry registry (Telemetry only). Trial i is
// specs[i] when specs is non-nil and drawn from its (Seed, i) stream
// otherwise. progress, when non-nil, is called after every trial.
func (r *ShardRunner) run(lo, hi int, specs []TrialSpec, progress func()) ([]TrialRecord, [][]obs.Event, *obs.Registry, error) {
	n := hi - lo
	shared := campaignSlot{r: r, lo: lo, specs: specs, progress: progress,
		plans: make([]trialPlan, n), records: make([]TrialRecord, n)}
	if r.cfg.TelemetryEvents {
		shared.events = make([][]obs.Event, n)
	}
	accs := make([]*obs.Registry, len(r.slots))
	err := ExecRange(lo, hi, len(r.slots), func(k int) (RangeSlot, error) {
		if r.slots[k] == nil {
			sess, err := r.newSlot()
			if err != nil {
				return nil, err
			}
			r.slots[k] = sess
		}
		s := shared
		s.fw = r.slots[k].fw
		if r.cfg.Telemetry {
			s.acc = s.fw.col.Registry().Sibling()
			accs[k] = s.acc
		}
		return &s, nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var reg *obs.Registry
	if r.cfg.Telemetry {
		reg = obs.NewRegistry()
		for _, acc := range accs {
			reg.Merge(acc)
		}
	}
	return shared.records, shared.events, reg, nil
}

// campaignSlot is one slot's view of a ShardRunner range: the slot's
// fork worker, telemetry accumulator and trial stream, plus the range's
// outputs addressed by index offset (each index is written by one slot
// only). The accumulator is a sibling of the slot's instance registry,
// so the per-trial merge adds series by id; the range's slot
// accumulators then merge by key into one registry.
type campaignSlot struct {
	r     *ShardRunner
	fw    *forkWorker
	acc   *obs.Registry
	lo    int
	specs []TrialSpec // nil: trials are drawn
	// rng is reseeded for every drawn trial, so drawing allocates nothing.
	rng      des.Rand
	plans    []trialPlan
	records  []TrialRecord
	events   [][]obs.Event
	progress func()
}

// Base plans trial i and selects its fork base.
func (s *campaignSlot) Base(i int) int {
	p := &s.plans[i-s.lo]
	if s.specs != nil {
		p.TrialSpec = s.specs[i]
	} else {
		p.TrialSpec = drawTrial(s.r.w, &s.r.cfg, i, &s.rng)
	}
	p.ckpt = s.fw.cs.selectFor(p.Fault.At)
	return p.ckpt
}

// Run executes trial i and files its record, events and metrics.
func (s *campaignSlot) Run(i int) error {
	rec, err := s.fw.run(s.plans[i-s.lo])
	if err != nil {
		return fmt.Errorf("fault: trial %d: %w", i, err)
	}
	if s.acc != nil {
		// Every restore rewinds the slot's instance collector, so it now
		// holds exactly this trial's full registry (checkpoint prefix +
		// simulated suffix); accumulate it before the next restore.
		s.acc.Merge(s.fw.col.Registry())
	}
	if s.events != nil {
		s.events[i-s.lo] = append([]obs.Event(nil), s.fw.col.Events()...)
	}
	recordTrialMetrics(s.acc, &rec)
	s.records[i-s.lo] = rec
	if s.progress != nil {
		s.progress()
	}
	return nil
}

// snapshotStats sums the slots' checkpoint-store traffic. Checkpoint
// count, page size and RAM size are identical across slots (capture is
// deterministic); the traffic counters add.
func (r *ShardRunner) snapshotStats() *SnapshotStats {
	agg := &SnapshotStats{}
	for _, sess := range r.slots {
		if sess == nil {
			continue
		}
		ms := sess.Inst.Kernel.Mem()
		agg.Workers++
		agg.Checkpoints = sess.Checkpoints()
		agg.PageBytes = cpu.PageBytes
		agg.RAMBytes = uint64(ms.SizeBytes())
		agg.Snapshots += ms.Snap.Snapshots
		agg.Restores += ms.Snap.Restores
		agg.PagesCopied += ms.Snap.PagesCopied
		agg.PagesRestored += ms.Snap.PagesRestored
	}
	return agg
}

// FinalizeSharded assembles a campaign Result from its trial records and
// merged telemetry registry, exactly as fault.Run does: the outcome,
// per-target and per-mechanism tallies are counted from the records
// (Tally), the registry becomes Result.Metrics when telemetry was
// collected, and the §3.2.2 estimators are computed from the counts.
// Snapshots stays nil (checkpoint-store traffic is a per-process
// diagnostic, not part of the campaign's observable result).
func FinalizeSharded(cfg CampaignConfig, golden []Write, trials []TrialRecord, metrics *obs.Registry) (*Result, error) {
	cfg.applyDefaults()
	if len(trials) != cfg.Trials {
		return nil, fmt.Errorf("fault: %d trial records for a %d-trial campaign", len(trials), cfg.Trials)
	}
	res := &Result{Config: cfg, Golden: golden, Trials: trials}
	res.Counts, res.ByTarget, res.ByMechanism = Tally(trials)
	if cfg.Telemetry {
		res.Metrics = metrics
	}
	activated := res.Activated()
	detected := res.Detected()
	res.CD = stats.NewProportion(detected, activated)
	res.PT = stats.NewProportion(res.Counts[Masked], detected)
	res.POM = stats.NewProportion(res.Counts[Omission], detected)
	res.PFS = stats.NewProportion(res.Counts[FailSilent], detected)
	return res, nil
}

// Tally counts trial records by outcome, by target and outcome, and by
// detection mechanism. Only non-zero counts get map entries. The
// counts are a function of the record multiset alone, so any engine,
// shard layout or arrival order that yields the same records yields the
// same tallies.
func Tally(trials []TrialRecord) (map[Outcome]int, map[Target]map[Outcome]int, map[string]int) {
	counts := make(map[Outcome]int)
	byTarget := make(map[Target]map[Outcome]int)
	byMechanism := make(map[string]int)
	for i := range trials {
		rec := &trials[i]
		counts[rec.Outcome]++
		if byTarget[rec.Fault.Target] == nil {
			byTarget[rec.Fault.Target] = make(map[Outcome]int)
		}
		byTarget[rec.Fault.Target][rec.Outcome]++
		for _, m := range rec.Mechanisms {
			byMechanism[m]++
		}
	}
	return counts, byTarget, byMechanism
}
