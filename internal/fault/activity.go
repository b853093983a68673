package fault

// Kernel-activity window extraction. A coin-free fault that lands while
// the simulated kernel itself occupies the processor is always caught
// by the kernel EDMs and forces the node fail-silent — deterministically,
// before the fault is even applied (see the injection decision tree in
// fork.go). Whether an instant t lands in kernel activity is decided
// entirely by the fault-free prefix, and every trial's prefix before
// its injection is bit-identical to the golden run's (the fork
// soundness argument; on the scratch path the only pre-injection
// difference is the pending injection event, which can cut CPU slices
// but never adds a context switch). The golden run therefore fixes,
// once and for all trials, the exact set of instants at which a
// coin-free fault fail-silences: the adaptive campaign carries that
// set's measure analytically instead of spending trials rediscovering
// it (internal/adapt).

import (
	"fmt"

	"repro/internal/des"
)

// Interval is a half-open time interval [Start, End).
type Interval struct {
	Start, End des.Time
}

// Width is the interval's length.
func (iv Interval) Width() des.Time { return iv.End - iv.Start }

// ActivityWindows runs the workload fault-free and returns the merged,
// sorted, disjoint intervals of instants at which an injection would
// observe kernel activity (Activity() == ActivityKernel).
//
// The boundary semantics match the injection event exactly: a context
// switch at instant s raises kernelBusyUntil to s+d, but an injection
// scheduled at s itself fires at PrioInject — before any same-instant
// dispatch — and so observes the pre-switch state. The window an
// injection can see is therefore [s+1, s+d), and Activity compares
// with strict <, so s+d is excluded. TestActivityWindowsExact pins
// both edges against live injections.
func ActivityWindows(w Workload) ([]Interval, error) {
	inst, err := newInstance(w, nil)
	if err != nil {
		return nil, err
	}
	var wins []Interval
	inst.Kernel.OnContextSwitch = func(start, end des.Time) { wins = mergeWindow(wins, start, end) }
	if err := inst.Sim.RunUntil(w.Horizon()); err != nil {
		return nil, err
	}
	if failed, reason := inst.Kernel.Failed(); failed {
		return nil, fmt.Errorf("fault: golden run failed silent: %s", reason)
	}
	return wins, nil
}

// mergeWindow adds the window of a context switch at start that keeps
// the kernel busy until end to the sorted, disjoint windows seen so far:
// the injection-visible window [start+1, end), merged into the last one
// when they touch. Switch instants and kernelBusyUntil are both
// monotone, so an overlapping window only ever extends the last one.
// ActivityWindows and the fork capture both merge with it.
func mergeWindow(wins []Interval, start, end des.Time) []Interval {
	iv := Interval{Start: start + 1, End: end}
	if n := len(wins); n > 0 && iv.Start <= wins[n-1].End {
		if iv.End > wins[n-1].End {
			wins[n-1].End = iv.End
		}
		return wins
	}
	return append(wins, iv)
}

// OverlapWidth is the total width of the intersection of the sorted,
// disjoint intervals with the half-open window [start, end).
func OverlapWidth(wins []Interval, start, end des.Time) des.Time {
	var total des.Time
	for _, iv := range wins {
		if iv.End <= start {
			continue
		}
		if iv.Start >= end {
			break
		}
		lo, hi := iv.Start, iv.End
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		total += hi - lo
	}
	return total
}

// Complement returns the sorted, disjoint intervals of [start, end) not
// covered by the sorted, disjoint intervals in wins.
func Complement(wins []Interval, start, end des.Time) []Interval {
	var free []Interval
	at := start
	for _, iv := range wins {
		if iv.End <= at {
			continue
		}
		if iv.Start >= end {
			break
		}
		if iv.Start > at {
			free = append(free, Interval{Start: at, End: iv.Start})
		}
		if iv.End > at {
			at = iv.End
		}
	}
	if at < end {
		free = append(free, Interval{Start: at, End: end})
	}
	return free
}
