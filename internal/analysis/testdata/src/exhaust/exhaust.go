// Fixture for the exhaustive verifier's per-placement hot loop (the
// fork core's boundary lookup and marks, internal/fault/fork.go and
// suffix.go): the path runs once per enumerated fault, so its checker
// and arena bookkeeping are annotated
// //nlft:noalloc and must grow state with the pooled self-append idiom
// and re-arm via a bound callback field. The package also sits inside
// the deterministic-simulation core, so aggregation over maps needs a
// fixed key order or a justified //nlft:allow nodeterminism, and
// wall-clock reads and unstable sorts are forbidden outright.
package exhfixture

import (
	"sort"
	"time"

	"repro/internal/des"
)

// worker mirrors the per-worker exploration state: pooled arenas grown
// in place across placements, a bound self-rearming checker callback,
// and the visited-digest memo table.
type worker struct {
	sim     *des.Simulator
	marks   []int
	arena   []byte
	nextAt  des.Time
	checkFn func()
	visited map[uint64]int
}

// checkBoundary is the self-rearming checker slice: it self-appends a
// mark into the pooled arena and re-schedules the bound callback field
// — both allocation-free on the warm path.
//
//nlft:noalloc
func (w *worker) checkBoundary() {
	w.marks = append(w.marks, len(w.arena))
	w.sim.Schedule(w.nextAt, des.PrioObserver, w.checkFn)
}

// resetPlacement truncate-refills the arenas over their own pooled
// backing before replaying the next placement's suffix.
//
//nlft:noalloc
func (w *worker) resetPlacement(seed []byte) {
	w.arena = append(w.arena[:0], seed...)
	w.marks = w.marks[:0]
}

// memoizeFresh is the anti-pattern the engine forbids on the hot path:
// building fresh copies and fresh tables per placement allocates once
// per enumerated fault — tens of thousands of times per run.
//
//nlft:noalloc
func (w *worker) memoizeFresh() {
	saved := append([]int(nil), w.marks...) // want `append outside the pooled self-append idiom`
	_ = saved
	w.visited = make(map[uint64]int) // want `make\(map\[uint64\]int\) allocates`
}

// rearmClosure re-schedules with a fresh closure instead of the bound
// callback field — an allocation per boundary check.
//
//nlft:noalloc
func (w *worker) rearmClosure() {
	w.sim.Schedule(w.nextAt, des.PrioObserver, func() { w.checkBoundary() }) // want `closure captures w`
}

// tally folds per-mechanism counts into a total. Summation is a
// commutative reduction, so iteration order cannot leak into the
// result; the justified allow documents exactly that.
func tally(counts map[string]int) int {
	total := 0
	//nlft:allow nodeterminism summing counts is a commutative reduction; iteration order cannot reach the result
	for _, n := range counts {
		total += n
	}
	return total
}

// leakOrder appends map keys in iteration order — the order leaks
// straight into the output slice, and from there into certificate
// bytes and digests.
func leakOrder(counts map[string]int, out *[]string) {
	for name := range counts { // want `map iteration order is nondeterministic`
		*out = append(*out, name)
	}
}

// stamp reads the host wall clock; inside the simulation core every
// timestamp must come from des.Simulator.Now so runs replay.
func stamp() int64 {
	return time.Now().UnixNano() // want `time\.Now reads the host wall clock`
}

// sortMechs sorts detection-mechanism names by count with sort.Slice:
// mechanisms with equal counts land in nondeterministic order.
func sortMechs(names []string, counts map[string]int) {
	sort.Slice(names, func(i, j int) bool { // want `sort\.Slice is unstable`
		return counts[names[i]] < counts[names[j]]
	})
}
