// Package adapt implements the adaptive stratified sampling campaign
// driver: orders-of-magnitude effective throughput for rare-outcome
// estimates over the checkpoint/fork injection engine (internal/fault).
//
// The fault space is stratified by (target × injection-window bucket).
// Trials run in fixed-size rounds; at each round barrier the driver
// recomputes a Neyman allocation from the committed per-stratum
// tallies — more trials where the weighted outcome variance lives —
// and adaptively refines dominant strata by splitting their time
// window in half (importance splitting on the time axis). The
// campaign's modelled kernel-hit coin is carried analytically as an
// exact stratum (Rao-Blackwellization): its conditional outcome
// distribution is known in closed form, so no trial is ever spent
// simulating it and its share of the estimator variance is zero.
//
// The same treatment covers the kernel-activity time windows: a
// coin-free fault landing while the simulated kernel occupies the
// processor fail-silences deterministically, decided by the injection
// instant alone (fault.ActivityWindows). The campaign runner's golden
// run fixes that time set exactly; its mass enters every
// estimate as a second exact stratum, and the sampled strata draw only
// from its complement.
// Without this, the activity windows are the dominant variance source
// for P(FailSilent): rare, scattered, and periodic — precisely the
// structure importance splitting pays most to rediscover empirically.
//
// Determinism. Results are bit-identical for any Parallelism:
//
//   - Every trial's RNG stream is a pure function of (Seed, stratum
//     key, within-stratum index) via des.NewRandIndexed2 — no draw
//     order or shared state. Split children get fresh stratum keys, so
//     no stream is ever consumed under two owners.
//   - All adaptive decisions (allocation, splitting, stopping) are
//     functions of tallies committed at round barriers, walked in
//     canonical stratum-slice order; workers write each trial's
//     outcome at its precomputed flat index, so completion order
//     cannot leak into any decision.
//   - Every round is one fault.ShardRunner.RunSpecs call on the
//     campaign engine's slots and trial core, whose soundness argument
//     (internal/fault/fork.go) makes a forked trial's record
//     bit-identical to a from-scratch trial's.
package adapt

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/stats"
)

// Config parameterizes an adaptive campaign.
type Config struct {
	// Seed drives all random choices; campaigns are fully reproducible.
	Seed uint64
	// Targets restricts the fault locations. Default fault.AllTargets().
	Targets []fault.Target
	// Window bounds the injection instants as a half-open interval
	// [Window[0], Window[1]). Default (both zero): the workload's own
	// injection window.
	Window [2]des.Time
	// Buckets is the number of base time buckets per target the window
	// is stratified into. Default 4. Splitting refines below this grid.
	Buckets int
	// RoundSize is the number of trials per allocation round. Default
	// 512. Smaller rounds adapt faster; larger rounds amortize the
	// barrier.
	RoundSize int
	// MaxTrials caps the sampled trial count. Default 100000.
	MaxTrials int
	// CIWidth, when positive, stops the campaign once the 95% CI for
	// CIOutcome is narrower than this (full width, Hi−Lo). Zero runs to
	// MaxTrials.
	CIWidth float64
	// CIOutcome is the outcome whose estimate drives the CIWidth stop
	// rule and the Neyman allocation. Default fault.FailSilent — the
	// paper's rare, safety-critical outcome.
	CIOutcome fault.Outcome
	// Parallelism is the number of worker goroutines. Default (0) is
	// runtime.GOMAXPROCS(0). Results are bit-identical for any value.
	Parallelism int
	// KernelShare and KernelDetect parameterize the modelled kernel-hit
	// branch, exactly as in fault.CampaignConfig (defaults 0.05, 0.98).
	// The branch is never simulated: it enters every estimate as an
	// exact stratum of weight KernelShare whose conditional outcome is
	// FailSilent with probability KernelDetect, else ValueFailure.
	KernelShare  float64
	KernelDetect float64
	// NoKernelModel removes the modelled kernel coin entirely: the
	// sampled strata then cover the whole population. The differential
	// tests use this to compare against the exhaustive verifier's
	// coin-free enumeration.
	NoKernelModel bool
	// OnRound, when set, is called after every round barrier with the
	// committed round summary. Calls arrive on the driver goroutine in
	// round order.
	OnRound func(RoundInfo)
}

func (c *Config) applyDefaults(w fault.Workload) {
	if c.Targets == nil {
		c.Targets = fault.AllTargets()
	}
	if c.Window[0] == 0 && c.Window[1] == 0 {
		c.Window[0], c.Window[1] = w.InjectionWindow()
	}
	if c.Buckets == 0 {
		c.Buckets = 4
	}
	if c.RoundSize == 0 {
		c.RoundSize = 512
	}
	if c.MaxTrials == 0 {
		c.MaxTrials = 100000
	}
	if c.CIOutcome == 0 {
		c.CIOutcome = fault.FailSilent
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
}

// RoundInfo summarizes one committed round.
type RoundInfo struct {
	// Round is the 1-based round number.
	Round int
	// Allocated is the trial count this round ran.
	Allocated int
	// Trials is the cumulative sampled trial count.
	Trials int
	// Strata is the current stratum count.
	Strata int
	// Estimate is the post-round estimate for Config.CIOutcome.
	Estimate stats.StratifiedEstimate
}

// StratumReport is one stratum's final state, for reports.
type StratumReport struct {
	// Target and the half-open window [Start, End) identify the
	// stratum; Level and Index locate it on the refinement grid
	// (level 0 is the base Buckets grid; each level halves the window).
	Target       fault.Target
	Level, Index int
	Start, End   des.Time
	// FreeWidth is the total width of the window's kernel-activity-free
	// sub-intervals — the instants the stratum actually samples from
	// (activity instants fail-silence deterministically and are carried
	// analytically).
	FreeWidth des.Time
	// Weight is the stratum's probability mass within the sampled
	// population.
	Weight float64
	// Trials is the sampled trial count; Counts the outcome tally.
	Trials int
	Counts map[fault.Outcome]int
}

// RatioEstimate is a conservative interval for a ratio of two event
// probabilities (numerator ⊆ denominator): the paper's conditional
// parameters C_D, P_T, P_OM, P_FS.
type RatioEstimate struct {
	// P is the point estimate Num.P/Den.P.
	P float64
	// Lo and Hi bound the ratio conservatively by Num.Lo/Den.Hi and
	// Num.Hi/Den.Lo, clipped to [0, 1] — each bound pairs the extremes
	// of the two intervals, so the true ratio is covered whenever both
	// component intervals cover.
	Lo, Hi float64
}

// String renders the estimate as "p [lo, hi]".
func (r RatioEstimate) String() string {
	return fmt.Sprintf("%.4f [%.4f, %.4f]", r.P, r.Lo, r.Hi)
}

// Result aggregates an adaptive campaign.
type Result struct {
	Config Config
	// Rounds is the number of committed rounds; Trials the sampled
	// trial count (the analytic kernel stratum consumes none).
	Rounds int
	Trials int
	// StopReason is "ci-width" (the CIWidth rule fired) or
	// "max-trials".
	StopReason string
	// KernelActivity is the kernel-activity fraction of the injection
	// window: the mass of instants at which a coin-free fault
	// fail-silences deterministically. It is carried analytically — no
	// trial samples it — so the reported stratum weights sum to
	// 1 − KernelActivity.
	KernelActivity float64
	// Strata reports the final strata, sorted by (Target, Start).
	Strata []StratumReport
	// ByOutcome estimates each outcome's probability over the full
	// population (modelled kernel branch included).
	ByOutcome map[fault.Outcome]stats.StratifiedEstimate
	// CD, PT, POM, PFS estimate the paper's conditional parameters
	// (§3.2.2): CD over activated faults; PT/POM/PFS over detected
	// errors.
	CD, PT, POM, PFS RatioEstimate
	// Digest fingerprints the committed per-stratum tallies in
	// canonical order — bit-identical across Parallelism for a fixed
	// seed (guarded by TestAdaptiveDeterminism).
	Digest string
}

// Estimate returns the estimate for one outcome's probability.
func (r *Result) Estimate(o fault.Outcome) stats.StratifiedEstimate {
	return r.ByOutcome[o]
}

// Summary renders a human-readable report.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "adaptive campaign: %d trials in %d rounds, %d strata, seed %d (stop: %s)\n",
		r.Trials, r.Rounds, len(r.Strata), r.Config.Seed, r.StopReason)
	if !r.Config.NoKernelModel {
		fmt.Fprintf(&b, "  kernel branch (exact): weight %.3f, detect %.3f — 0 trials spent\n",
			r.Config.KernelShare, r.Config.KernelDetect)
	}
	if r.KernelActivity > 0 {
		fmt.Fprintf(&b, "  kernel-activity windows (exact): mass %.4f, always fail-silent — 0 trials spent\n",
			r.KernelActivity)
	}
	for _, o := range fault.AllOutcomes() {
		fmt.Fprintf(&b, "  P(%-13s = %v\n", o.String()+")", r.ByOutcome[o])
	}
	fmt.Fprintf(&b, "  C_D  = %v\n", r.CD)
	fmt.Fprintf(&b, "  P_T  = %v\n", r.PT)
	fmt.Fprintf(&b, "  P_OM = %v\n", r.POM)
	fmt.Fprintf(&b, "  P_FS = %v\n", r.PFS)
	return b.String()
}

// StrataTable renders the per-stratum allocation table.
func (r *Result) StrataTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-10s %-9s %-22s %8s %8s %s\n",
		"target", "lvl/idx", "window", "weight", "trials", "outcomes")
	for _, s := range r.Strata {
		var counts []string
		for _, o := range fault.AllOutcomes() {
			if n := s.Counts[o]; n > 0 {
				counts = append(counts, fmt.Sprintf("%s %d", o, n))
			}
		}
		fmt.Fprintf(&b, "  %-10s %2d/%-6d [%v, %v) %8.4f %8d %s\n",
			s.Target, s.Level, s.Index, s.Start, s.End, s.Weight, s.Trials,
			strings.Join(counts, ", "))
	}
	return b.String()
}

// sortReports orders stratum reports canonically for display.
func sortReports(reps []StratumReport) {
	sort.SliceStable(reps, func(a, b int) bool {
		if reps[a].Target != reps[b].Target {
			return reps[a].Target < reps[b].Target
		}
		return reps[a].Start < reps[b].Start
	})
}
