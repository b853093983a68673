package adapt

import (
	"math"
	"math/bits"

	"repro/internal/des"
	"repro/internal/fault"
)

// grid is the refinement grid over one target's injection window: the
// base level has Buckets equal-width half-open buckets, and level l
// has Buckets·2^l. Boundaries are a pure function of (level, index) in
// integer arithmetic, so a child window's edges coincide exactly with
// its parent's: bound(l, i) == bound(l+1, 2i) because doubling both
// numerator and denominator preserves the floor.
type grid struct {
	w0, w1  des.Time
	buckets int
}

// bound returns the i-th boundary at the given level:
// w0 + (w1−w0)·i/(buckets·2^level), computed with a 128-bit
// intermediate so wide windows cannot overflow.
func (g grid) bound(level int, index int64) des.Time {
	d := uint64(g.buckets) << uint(level)
	hi, lo := bits.Mul64(uint64(g.w1-g.w0), uint64(index))
	q, _ := bits.Div64(hi, lo, d)
	return g.w0 + des.Time(q)
}

// sample is one committed trial within a stratum, kept for
// reassignment when the stratum splits.
type sample struct {
	at      des.Time
	outcome fault.Outcome
}

// stratum is one (target × window) cell of the sampled population.
// Kernel-activity instants inside the window are not part of the
// sampled population — their outcome is analytically FailSilent and
// their mass is carried exactly (see estimateEvent) — so the stratum
// samples uniform over free, the activity-free sub-intervals of
// [start, end), and weight is free's share of the sampled mass.
type stratum struct {
	target     fault.Target
	level      int
	index      int64
	start, end des.Time
	weight     float64
	// free is the complement of the kernel-activity windows within
	// [start, end); freeW its total width (> 0 for every live stratum).
	free  []fault.Interval
	freeW des.Time
	// drawn counts the RNG substreams consumed under this stratum's
	// key. Inherited samples were drawn under the parent's key, so a
	// split child starts at zero: no (key, index) pair is ever used
	// twice.
	drawn   int
	counts  [fault.NumOutcomes + 1]int
	samples []sample
}

// instant maps a uniform offset in [0, freeW) to the corresponding
// instant of the free sub-intervals — the uniform distribution over
// the stratum's sampleable instants.
func (s *stratum) instant(off des.Time) des.Time {
	for _, iv := range s.free {
		w := iv.Width()
		if off < w {
			return iv.Start + off
		}
		off -= w
	}
	// Unreachable for off ∈ [0, freeW); keep a defined value.
	return s.free[len(s.free)-1].End - 1
}

// key identifies the stratum's RNG substream family: a pure function
// of the stratum's grid coordinates, so re-running a campaign derives
// the same streams regardless of the order strata were created in.
// Targets occupy 6 values, levels ≤ maxSplitLevel, and grid indices
// stay below buckets·2^maxSplitLevel < 2^40, so the fields cannot
// collide.
func (s *stratum) key() uint64 {
	return uint64(s.target)<<48 | uint64(s.level)<<40 | uint64(s.index)
}

func (s *stratum) trials() int { return len(s.samples) }

// commit records one settled trial. Commits happen on the driver
// goroutine at round barriers, walking the flat plan in index order, so
// the append order below is deterministic, not arrival order.
//
//nlft:merge
func (s *stratum) commit(at des.Time, o fault.Outcome) {
	//nlft:allow mergecommute committed in flat-plan index order at a deterministic round barrier
	s.samples = append(s.samples, sample{at: at, outcome: o})
	s.counts[o]++
}

// eventHits counts samples whose outcome is in the event set.
func (s *stratum) eventHits(event []fault.Outcome) int {
	h := 0
	for _, o := range event {
		h += s.counts[o]
	}
	return h
}

// score is the stratum's Neyman allocation score w·σ̃ for the driving
// outcome, with σ̃ from the Laplace-smoothed rate (hits+1)/(trials+2):
// a stratum with no data yet scores as if half its mass were hits, so
// unexplored strata attract trials, and a stratum whose rate has
// settled near 0 or 1 releases its share to the contested ones.
func (s *stratum) score(outcome fault.Outcome) float64 {
	p := (float64(s.counts[outcome]) + 1) / (float64(s.trials()) + 2)
	return s.weight * math.Sqrt(p*(1-p))
}

// Allocation and splitting policy.
const (
	// minPerStratum is the cumulative per-stratum trial floor: any
	// stratum (including fresh split children) is topped up to this
	// many total trials before a round's Neyman shares are assigned,
	// so no stratum's estimate rests on nothing.
	minPerStratum = 4
	// splitFactor is the multiple of the mean Neyman score a stratum
	// must exceed to be split. The variance signal behind a localized
	// rare outcome is damped by the Laplace smoothing (a hot stratum's
	// score exceeds a cold one's by √(p̃q̃) ratios, not p̃ ratios), so
	// the threshold sits just above the mean: refinement is cheap — a
	// wrongly split stratum merely ends up with two smaller allocation
	// shares — while a missed split leaves mixed variance unisolated.
	splitFactor = 1.25
	// maxSplitsPerRound bounds refinement per barrier.
	maxSplitsPerRound = 4
	// maxSplitLevel bounds refinement depth (also keeps grid indices
	// within the RNG key's 40-bit field).
	maxSplitLevel = 24
)

// initialStrata builds the base (target × bucket) grid over the
// kernel-activity-free population. Buckets whose integer window
// collapses to zero width (window narrower than the bucket count) or
// whose window is entirely kernel activity are dropped; the dropped
// activity mass is carried analytically, so the stratum weights sum to
// 1 minus the window's activity fraction.
func initialStrata(cfg *Config, kact []fault.Interval) ([]*stratum, error) {
	g := grid{w0: cfg.Window[0], w1: cfg.Window[1], buckets: cfg.Buckets}
	if g.w1 <= g.w0 {
		return nil, errEmptyWindow
	}
	totalWidth := float64(g.w1 - g.w0)
	nT := float64(len(cfg.Targets))
	var strata []*stratum
	for _, target := range cfg.Targets {
		for i := 0; i < cfg.Buckets; i++ {
			start, end := g.bound(0, int64(i)), g.bound(0, int64(i)+1)
			if end <= start {
				continue
			}
			free := fault.Complement(kact, start, end)
			freeW := des.Time(0)
			for _, iv := range free {
				freeW += iv.Width()
			}
			if freeW == 0 {
				continue
			}
			strata = append(strata, &stratum{
				target: target,
				index:  int64(i),
				start:  start,
				end:    end,
				free:   free,
				freeW:  freeW,
				weight: float64(freeW) / totalWidth / nT,
			})
		}
	}
	if len(strata) == 0 {
		return nil, errEmptyWindow
	}
	return strata, nil
}

// split replaces strata[si] with its lower half and appends the upper
// half. Inherited samples are reassigned by instant — a sample drawn
// uniform over the parent's free set is, conditioned on landing in a
// child window, uniform over that child's free set (the child's free
// set is exactly the parent's restricted to the child window), so the
// reassigned tallies remain unbiased samples of the children's
// conditional distributions. The children's free sets partition the
// parent's at the grid midpoint, so their weights sum to the parent's.
// Returns false when the midpoint degenerates (width < 2) or either
// child would have no sampleable mass (the activity windows swallow
// one half; refining there isolates nothing the analytic stratum does
// not already carry).
func split(strata []*stratum, si int, g grid, totalWidth, nT float64) ([]*stratum, bool) {
	p := strata[si]
	mid := g.bound(p.level+1, 2*p.index+1)
	if mid <= p.start || mid >= p.end {
		return strata, false
	}
	var loFree, hiFree []fault.Interval
	var loW, hiW des.Time
	for _, iv := range p.free {
		if iv.End <= mid {
			loFree = append(loFree, iv)
			loW += iv.Width()
			continue
		}
		if iv.Start >= mid {
			hiFree = append(hiFree, iv)
			hiW += iv.Width()
			continue
		}
		loFree = append(loFree, fault.Interval{Start: iv.Start, End: mid})
		loW += mid - iv.Start
		hiFree = append(hiFree, fault.Interval{Start: mid, End: iv.End})
		hiW += iv.End - mid
	}
	if loW == 0 || hiW == 0 {
		return strata, false
	}
	lo := &stratum{
		target: p.target,
		level:  p.level + 1,
		index:  2 * p.index,
		start:  p.start,
		end:    mid,
		free:   loFree,
		freeW:  loW,
		weight: float64(loW) / totalWidth / nT,
	}
	hi := &stratum{
		target: p.target,
		level:  p.level + 1,
		index:  2*p.index + 1,
		start:  mid,
		end:    p.end,
		free:   hiFree,
		freeW:  hiW,
		weight: float64(hiW) / totalWidth / nT,
	}
	for _, smp := range p.samples {
		c := lo
		if smp.at >= mid {
			c = hi
		}
		c.samples = append(c.samples, smp)
		c.counts[smp.outcome]++
	}
	strata[si] = lo
	return append(strata, hi), true
}
