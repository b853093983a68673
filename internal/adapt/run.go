package adapt

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/stats"
)

var errEmptyWindow = errors.New("adapt: empty injection window")

// Outcome event sets for the paper's conditional parameters.
var (
	activatedEvent = []fault.Outcome{fault.Masked, fault.Omission,
		fault.FailSilent, fault.ValueFailure}
	detectedEvent = []fault.Outcome{fault.Masked, fault.Omission,
		fault.FailSilent}
)

// engine is one campaign's driver state.
type engine struct {
	w      fault.Workload
	cfg    *Config
	g      grid
	strata []*stratum
	total  int
	rounds int
	// kactFrac is the kernel-activity fraction of the injection window:
	// the exact FailSilent mass carried analytically per target (the
	// activity set is a pure time set, identical for every target).
	kactFrac float64

	// runRound runs one round's specs and returns their records in spec
	// order: the campaign runner's RunSpecs, which tests replace to
	// measure the trials.
	runRound func([]fault.TrialSpec) ([]fault.TrialRecord, error)
}

// Run executes an adaptive campaign on the workload.
func Run(w fault.Workload, cfg Config) (*Result, error) {
	e, err := newEngine(w, cfg)
	if err != nil {
		return nil, err
	}
	return e.run()
}

// newEngine validates cfg, fixes the kernel-activity set and builds the
// initial strata.
func newEngine(w fault.Workload, cfg Config) (*engine, error) {
	if w == nil {
		return nil, fmt.Errorf("adapt: nil workload")
	}
	cfg.applyDefaults(w)
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("adapt: no targets")
	}
	if cfg.CIOutcome < 1 || int(cfg.CIOutcome) > fault.NumOutcomes {
		return nil, fmt.Errorf("adapt: invalid CI outcome %d", int(cfg.CIOutcome))
	}
	// The runner's golden run fixes the exact kernel-activity time set.
	// A coin-free fault at an activity instant fail-silences
	// deterministically (fault.ActivityWindows), so that mass enters
	// every estimate analytically and sampling covers only the
	// activity-free population.
	runner, err := fault.NewShardRunner(w, fault.CampaignConfig{Parallelism: cfg.Parallelism,
		KernelShare: cfg.KernelShare, KernelDetect: cfg.KernelDetect})
	if err != nil {
		return nil, err
	}
	// The kernel-coin defaults are the campaign layer's.
	if cfg.NoKernelModel {
		cfg.KernelShare, cfg.KernelDetect = 0, 0
	} else {
		rc := runner.Config()
		cfg.KernelShare, cfg.KernelDetect = rc.KernelShare, rc.KernelDetect
	}
	kact := runner.ActivityWindows()
	strata, err := initialStrata(&cfg, kact)
	if err != nil {
		return nil, err
	}
	e := &engine{
		w:      w,
		cfg:    &cfg,
		g:      grid{w0: cfg.Window[0], w1: cfg.Window[1], buckets: cfg.Buckets},
		strata: strata,
		kactFrac: float64(fault.OverlapWidth(kact, cfg.Window[0], cfg.Window[1])) /
			float64(cfg.Window[1]-cfg.Window[0]),
		runRound: runner.RunSpecs,
	}
	return e, nil
}

// run executes the campaign's rounds until a stop condition holds.
func (e *engine) run() (*Result, error) {
	cfg := e.cfg
	stop := ""
	for stop == "" {
		e.rounds++
		size := cfg.RoundSize
		if e.total+size > cfg.MaxTrials {
			size = cfg.MaxTrials - e.total
		}
		sis, specs := e.planRound(e.allocate(size))
		records, err := e.runRound(specs)
		if err != nil {
			return nil, err
		}
		for i, rec := range records {
			e.strata[sis[i]].commit(specs[i].Fault.At, rec.Outcome)
		}
		e.total += len(specs)
		est := e.estimateEvent([]fault.Outcome{cfg.CIOutcome})
		if cfg.OnRound != nil {
			cfg.OnRound(RoundInfo{Round: e.rounds, Allocated: len(specs),
				Trials: e.total, Strata: len(e.strata), Estimate: est})
		}
		switch {
		case cfg.CIWidth > 0 && est.Hi-est.Lo <= cfg.CIWidth:
			stop = "ci-width"
		case e.total >= cfg.MaxTrials:
			stop = "max-trials"
		default:
			e.refine()
		}
	}
	return e.result(stop), nil
}

// allocate distributes size trials over the strata: any stratum still
// below the cumulative minPerStratum floor (including fresh split
// children) is topped up first, in index order, and the remainder
// follows the Neyman scores by largest-remainder apportionment. The
// floor is cumulative, not per round — a stratum whose tally has
// settled stops paying an exploration tax every barrier, which is
// where a recurring floor would otherwise spend most of the campaign.
// Unexplored strata still cannot starve: the Laplace-smoothed score of
// a stratum never reaches zero, so every stratum keeps a share of
// every round. All inputs are committed tallies and the tie-break is
// the stratum index, so the allocation is a pure function of the round
// history.
func (e *engine) allocate(size int) []int {
	n := len(e.strata)
	alloc := make([]int, n)
	if size <= 0 {
		return alloc
	}
	rem := size
	for i, s := range e.strata {
		if d := minPerStratum - s.trials(); d > 0 {
			if d > rem {
				d = rem
			}
			alloc[i] = d
			rem -= d
			if rem == 0 {
				return alloc
			}
		}
	}
	scores := make([]float64, n)
	totalScore := 0.0
	for i, s := range e.strata {
		scores[i] = s.score(e.cfg.CIOutcome)
		totalScore += scores[i]
	}
	if totalScore <= 0 {
		for i := range scores {
			scores[i] = 1
		}
		totalScore = float64(n)
	}
	type remainder struct {
		i int
		f float64
	}
	fracs := make([]remainder, n)
	given := 0
	for i := range scores {
		share := float64(rem) * scores[i] / totalScore
		whole := int(share)
		alloc[i] += whole
		given += whole
		fracs[i] = remainder{i: i, f: share - float64(whole)}
	}
	sort.SliceStable(fracs, func(a, b int) bool {
		if fracs[a].f != fracs[b].f {
			return fracs[a].f > fracs[b].f
		}
		return fracs[a].i < fracs[b].i
	})
	for k := 0; k < rem-given; k++ {
		alloc[fracs[k].i]++
	}
	return alloc
}

// planRound draws every trial of the round up front: stratum si's j-th
// new trial uses the substream (Seed, key(si), drawn(si)+j), and its
// flat position in the round is fixed by the canonical stratum order —
// nothing about execution can change what any trial is. It returns
// each trial's stratum index and spec; the runner writes each record at
// the trial's flat index, so neither the worker count nor completion
// order can influence what is committed.
//
// The round reseeds one stream value in place for every trial and
// sizes both slices up front, so its allocations do not grow with the
// trial count.
func (e *engine) planRound(alloc []int) ([]int, []fault.TrialSpec) {
	n := 0
	for _, a := range alloc {
		n += a
	}
	sis := make([]int, 0, n)
	specs := make([]fault.TrialSpec, 0, n)
	var rng des.Rand
	for si, s := range e.strata {
		for j := 0; j < alloc[si]; j++ {
			rng.SeedIndexed2(e.cfg.Seed, s.key(), uint64(s.drawn+j))
			at := s.instant(des.Time(rng.Intn(int(s.freeW))))
			sis = append(sis, si)
			specs = append(specs, fault.TrialSpec{Fault: fault.DrawFaultAt(e.w, s.target, at, &rng)})
		}
		s.drawn += alloc[si]
	}
	return sis, specs
}

// refine splits the strata that dominate the Neyman scores: a stratum
// holding more than splitFactor times the mean score, with enough
// trials to have earned it, is halved on the time axis so the next
// allocation can chase where its variance actually lives. At most
// maxSplitsPerRound strata split per barrier, chosen by (score desc,
// index asc) — a pure function of committed tallies.
func (e *engine) refine() {
	n := len(e.strata)
	mean := 0.0
	scores := make([]float64, n)
	for i, s := range e.strata {
		scores[i] = s.score(e.cfg.CIOutcome)
		mean += scores[i]
	}
	mean /= float64(n)
	type candidate struct {
		si    int
		score float64
	}
	var cands []candidate
	for i, s := range e.strata {
		if scores[i] > splitFactor*mean &&
			s.level < maxSplitLevel &&
			s.end-s.start >= 2 &&
			s.trials() >= 2*minPerStratum {
			cands = append(cands, candidate{si: i, score: scores[i]})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		return cands[a].si < cands[b].si
	})
	if len(cands) > maxSplitsPerRound {
		cands = cands[:maxSplitsPerRound]
	}
	totalWidth := float64(e.g.w1 - e.g.w0)
	nT := float64(len(e.cfg.Targets))
	for _, c := range cands {
		e.strata, _ = split(e.strata, c.si, e.g, totalWidth, nT)
	}
}

// estimateEvent assembles the stratified estimate of P(outcome ∈
// event) over the full population: the sampled strata scaled by the
// non-kernel mass, plus two analytic exact strata — the modelled
// kernel-hit coin, and the kernel-activity time windows (within which
// a coin-free fault fail-silences deterministically; their mass is
// kactFrac of the non-coin population).
func (e *engine) estimateEvent(event []fault.Outcome) stats.StratifiedEstimate {
	list := make([]stats.Stratum, 0, len(e.strata)+2)
	scale := 1.0
	if !e.cfg.NoKernelModel {
		scale = 1 - e.cfg.KernelShare
		p := 0.0
		for _, o := range event {
			switch o {
			case fault.FailSilent:
				p += e.cfg.KernelDetect
			case fault.ValueFailure:
				p += 1 - e.cfg.KernelDetect
			}
		}
		list = append(list, stats.Stratum{Weight: e.cfg.KernelShare, Exact: true, P: p})
	}
	if e.kactFrac > 0 {
		p := 0.0
		for _, o := range event {
			if o == fault.FailSilent {
				p = 1
			}
		}
		list = append(list, stats.Stratum{Weight: scale * e.kactFrac, Exact: true, P: p})
	}
	for _, s := range e.strata {
		list = append(list, stats.Stratum{
			Weight: scale * s.weight,
			Hits:   s.eventHits(event),
			Trials: s.trials(),
		})
	}
	return stats.Stratified(list)
}

// ratio builds the conservative interval for num/den (num ⊆ den).
func ratio(num, den stats.StratifiedEstimate) RatioEstimate {
	r := RatioEstimate{Hi: 1}
	if den.P > 0 {
		r.P = num.P / den.P
	}
	if den.Hi > 0 {
		r.Lo = num.Lo / den.Hi
	}
	if den.Lo > 0 {
		r.Hi = num.Hi / den.Lo
	}
	if r.P > 1 {
		r.P = 1
	}
	if r.Lo > 1 {
		r.Lo = 1
	}
	if r.Hi > 1 {
		r.Hi = 1
	}
	return r
}

// result assembles the exported Result, including the canonical-order
// tally digest the determinism tests pin.
func (e *engine) result(stop string) *Result {
	res := &Result{
		Config:         *e.cfg,
		Rounds:         e.rounds,
		Trials:         e.total,
		StopReason:     stop,
		KernelActivity: e.kactFrac,
		ByOutcome:      make(map[fault.Outcome]stats.StratifiedEstimate, fault.NumOutcomes),
	}
	var dig bytes.Buffer
	for _, s := range e.strata {
		rep := StratumReport{
			Target:    s.target,
			Level:     s.level,
			Index:     int(s.index),
			Start:     s.start,
			End:       s.end,
			FreeWidth: s.freeW,
			Weight:    s.weight,
			Trials:    s.trials(),
			Counts:    make(map[fault.Outcome]int),
		}
		for o, n := range s.counts {
			if n > 0 {
				rep.Counts[fault.Outcome(o)] = n
			}
		}
		res.Strata = append(res.Strata, rep)
		fmt.Fprintf(&dig, "s=%x n=%d d=%d f=%d c=%v;", s.key(), s.trials(), s.drawn, int64(s.freeW), s.counts)
	}
	fmt.Fprintf(&dig, "|total=%d rounds=%d", e.total, e.rounds)
	res.Digest = fmt.Sprintf("fnv1a:%016x", obs.DigestBytes(dig.Bytes()))
	sortReports(res.Strata)
	for _, o := range fault.AllOutcomes() {
		res.ByOutcome[o] = e.estimateEvent([]fault.Outcome{o})
	}
	activated := e.estimateEvent(activatedEvent)
	detected := e.estimateEvent(detectedEvent)
	res.CD = ratio(detected, activated)
	res.PT = ratio(e.estimateEvent([]fault.Outcome{fault.Masked}), detected)
	res.POM = ratio(e.estimateEvent([]fault.Outcome{fault.Omission}), detected)
	res.PFS = ratio(e.estimateEvent([]fault.Outcome{fault.FailSilent}), detected)
	return res
}
