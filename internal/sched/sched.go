// Package sched provides fixed-priority schedulability analysis for the
// paper's real-time requirements (§2.8): classic response-time analysis
// (RTA), deadline-monotonic and criticality-based priority assignment,
// and the fault-tolerant RTA of Burns/Punnekkat that reserves slack for
// error recovery — the a priori guarantee that a TEM third copy can run
// without any critical task missing its deadline.
//
// Times are des.Time (simulated nanoseconds), matching the kernel.
package sched

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/des"
)

// Task is one periodic (or sporadic, with T the minimal inter-arrival
// time) task for analysis.
type Task struct {
	// Name identifies the task in reports.
	Name string
	// C is the worst-case execution time of one copy.
	C des.Time
	// T is the period (or minimal inter-arrival time).
	T des.Time
	// D is the relative deadline (D ≤ T for this analysis).
	D des.Time
	// Priority: higher value = higher priority. Assign explicitly or via
	// AssignDeadlineMonotonic / AssignByCriticality.
	Priority int
	// Criticality expresses the consequence of failure (paper §2.8: "a
	// brake request is assigned a higher priority than a diagnostic
	// request"). Higher is more critical.
	Criticality int
	// Recovery is the extra execution needed to recover this task from
	// one error (for TEM: one more copy plus the vote).
	Recovery des.Time
}

// Validate checks a task's parameters.
func (t Task) Validate() error {
	if t.Name == "" {
		return errors.New("sched: task without name")
	}
	if t.C <= 0 {
		return fmt.Errorf("sched: task %s: C = %v", t.Name, t.C)
	}
	if t.T <= 0 {
		return fmt.Errorf("sched: task %s: T = %v", t.Name, t.T)
	}
	if t.D <= 0 || t.D > t.T {
		return fmt.Errorf("sched: task %s: D = %v not in (0, T=%v]", t.Name, t.D, t.T)
	}
	if t.C > t.D {
		return fmt.Errorf("sched: task %s: C = %v exceeds D = %v", t.Name, t.C, t.D)
	}
	if t.Recovery < 0 {
		return fmt.Errorf("sched: task %s: negative recovery", t.Name)
	}
	return nil
}

// ValidateSet checks every task and that names are unique. (Priority
// uniqueness is checked by the analyses, not here, so that assignment
// helpers can accept sets with priorities not yet assigned.)
func ValidateSet(tasks []Task) error {
	if len(tasks) == 0 {
		return errors.New("sched: empty task set")
	}
	names := make(map[string]bool, len(tasks))
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return err
		}
		if names[t.Name] {
			return fmt.Errorf("sched: duplicate task name %q", t.Name)
		}
		names[t.Name] = true
	}
	return nil
}

// validatePriorities checks that priorities are pairwise distinct.
func validatePriorities(tasks []Task) error {
	prios := make(map[int]bool, len(tasks))
	for _, t := range tasks {
		if prios[t.Priority] {
			return fmt.Errorf("sched: duplicate priority %d (task %s)", t.Priority, t.Name)
		}
		prios[t.Priority] = true
	}
	return nil
}

// Utilization returns ΣC/T.
func Utilization(tasks []Task) float64 {
	u := 0.0
	for _, t := range tasks {
		u += float64(t.C) / float64(t.T)
	}
	return u
}

// AssignDeadlineMonotonic assigns priorities by deadline (shorter deadline
// = higher priority; ties broken by name for determinism). It returns a
// new slice, leaving the input untouched.
func AssignDeadlineMonotonic(tasks []Task) []Task {
	out := make([]Task, len(tasks))
	copy(out, tasks)
	sort.Slice(out, func(i, j int) bool {
		if out[i].D != out[j].D {
			return out[i].D < out[j].D
		}
		return out[i].Name < out[j].Name
	})
	for i := range out {
		out[i].Priority = len(out) - i
	}
	return out
}

// AssignByCriticality assigns priorities by criticality first (the
// paper's policy), breaking ties by deadline then name.
func AssignByCriticality(tasks []Task) []Task {
	out := make([]Task, len(tasks))
	copy(out, tasks)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Criticality != out[j].Criticality {
			return out[i].Criticality > out[j].Criticality
		}
		if out[i].D != out[j].D {
			return out[i].D < out[j].D
		}
		return out[i].Name < out[j].Name
	})
	for i := range out {
		out[i].Priority = len(out) - i
	}
	return out
}

// Response holds a task's RTA outcome.
type Response struct {
	Task Task
	// R is the worst-case response time; valid only when Schedulable.
	R des.Time
	// Schedulable reports whether R ≤ D was proven.
	Schedulable bool
}

// rtaLimit caps fixpoint iterations; exceeded means divergence
// (unschedulable).
const rtaLimit = 10000

// Analyze runs classic response-time analysis:
//
//	Rᵢ = Cᵢ + Σ_{j ∈ hp(i)} ⌈Rᵢ/Tⱼ⌉·Cⱼ
//
// iterated to a fixed point for each task.
func Analyze(tasks []Task) ([]Response, error) {
	return analyze(tasks, 0, false)
}

// AnalyzeWithFaults runs the fault-tolerant RTA of Burns et al.: on top
// of the preemption interference, the analysis reserves time for error
// recoveries arriving at most every faultInterval:
//
//	Rᵢ = Cᵢ + Σ_{j ∈ hp(i)} ⌈Rᵢ/Tⱼ⌉·Cⱼ + ⌈Rᵢ/T_F⌉ · max_{j ∈ hep(i)} Recⱼ
//
// where hep(i) is the set of tasks at priority ≥ i (any of them may be
// the one recovering inside task i's busy window).
func AnalyzeWithFaults(tasks []Task, faultInterval des.Time) ([]Response, error) {
	if faultInterval <= 0 {
		return nil, fmt.Errorf("sched: fault interval %v", faultInterval)
	}
	return analyze(tasks, faultInterval, true)
}

func analyze(tasks []Task, faultInterval des.Time, withFaults bool) ([]Response, error) {
	if err := ValidateSet(tasks); err != nil {
		return nil, err
	}
	if err := validatePriorities(tasks); err != nil {
		return nil, err
	}
	sorted := make([]Task, len(tasks))
	copy(sorted, tasks)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Priority > sorted[j].Priority })

	out := make([]Response, 0, len(sorted))
	for i, t := range sorted {
		hp := sorted[:i]
		// Max recovery among this task and all higher-priority tasks.
		var maxRec des.Time
		if withFaults {
			maxRec = t.Recovery
			for _, h := range hp {
				if h.Recovery > maxRec {
					maxRec = h.Recovery
				}
			}
		}
		r := t.C
		converged := false
		for iter := 0; iter < rtaLimit; iter++ {
			next := t.C
			for _, h := range hp {
				next += ceilDiv(r, h.T) * h.C
			}
			if withFaults {
				next += ceilDiv(r, faultInterval) * maxRec
			}
			if next == r {
				converged = true
				break
			}
			if next > t.D {
				// Response already exceeds the deadline; no need to
				// iterate to convergence.
				r = next
				break
			}
			r = next
		}
		out = append(out, Response{Task: t, R: r, Schedulable: converged && r <= t.D})
	}
	return out, nil
}

// ceilDiv returns ⌈a/b⌉ for positive a, b.
func ceilDiv(a, b des.Time) des.Time {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// Schedulable reports whether every response in the set met its deadline.
func Schedulable(rs []Response) bool {
	for _, r := range rs {
		if !r.Schedulable {
			return false
		}
	}
	return true
}

// MaxFaultRate finds (by binary search over the fault inter-arrival time)
// the highest fault arrival rate, in faults per hour, for which the task
// set remains schedulable under AnalyzeWithFaults. It returns 0 when even
// a single recovery per hyperperiod is too much, and +Inf when the set
// tolerates a recovery every shortest-deadline window.
func MaxFaultRate(tasks []Task) (float64, error) {
	if err := ValidateSet(tasks); err != nil {
		return 0, err
	}
	// Lower bound on useful intervals: the shortest deadline (a fault per
	// busy window, the densest the analysis can express).
	minD := tasks[0].D
	for _, t := range tasks {
		if t.D < minD {
			minD = t.D
		}
	}
	ok := func(interval des.Time) bool {
		rs, err := AnalyzeWithFaults(tasks, interval)
		return err == nil && Schedulable(rs)
	}
	if ok(minD) {
		return float64(des.Hour) / float64(minD) / 1, nil // rate at densest expressible interval
	}
	lo, hi := minD, des.Time(des.Hour)*24*365
	if !ok(hi) {
		return 0, nil
	}
	// Binary search the smallest schedulable interval in [lo, hi].
	for hi-lo > des.Microsecond {
		mid := lo + (hi-lo)/2
		if ok(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return float64(des.Hour) / float64(hi), nil
}

// TEMOverheads parameterizes the execution-time costs of temporal error
// masking for TEMTransform.
type TEMOverheads struct {
	// Compare is the cost of comparing two results.
	Compare des.Time
	// Vote is the cost of the majority vote on three results.
	Vote des.Time
}

// TEMTransform rewrites a task set for TEM execution: every critical task
// (criticality > 0) runs two copies plus a comparison in the fault-free
// case (C' = 2C + Compare), and recovery from one error costs a third
// copy plus the vote (Recovery = C + Vote). Non-critical tasks are left
// unchanged with zero recovery (they are shut down on error, §2.2).
func TEMTransform(tasks []Task, ov TEMOverheads) []Task {
	out := make([]Task, len(tasks))
	copy(out, tasks)
	for i := range out {
		if out[i].Criticality > 0 {
			out[i].Recovery = out[i].C + ov.Vote
			out[i].C = 2*out[i].C + ov.Compare
		} else {
			out[i].Recovery = 0
		}
	}
	return out
}
