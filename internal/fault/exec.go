package fault

// The range executor every campaign engine runs on: fault.Run and the
// sharded ShardRunner, the adaptive engine's rounds (internal/adapt)
// and the exhaustive verifier (internal/exhaust). It owns the one
// goroutine fan-out of the trial layer; engines supply only per-slot
// trial state.

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
)

// RangeSlot is one execution slot of ExecRange: a goroutine's private
// trial state (a fork worker, a fork session, a verifier worker).
type RangeSlot interface {
	// Base returns index i's fork base, the checkpoint index it
	// restores. The executor calls it once per index, before any Run.
	Base(i int) int
	// Run executes index i.
	Run(i int) error
}

// ExecRange runs the indexes [lo, hi) over min(slots, hi-lo)
// goroutines. Slot k is opened by open(k) on its own goroutine and owns
// the strided share lo+k, lo+k+n, …; it runs them in ascending fork-base
// order, so consecutive trials restore the same checkpoint and the
// restore source stays cache-warm. Ties keep index order. Each slot is
// labelled for pprof (campaign-phase=trials, campaign-worker=k). The
// first error in slot order is returned after every slot has stopped.
//
// Callers write each index's result at its own position, so the
// outcome cannot depend on the slot count or on scheduling.
func ExecRange(lo, hi, slots int, open func(k int) (RangeSlot, error)) error {
	if slots > hi-lo {
		slots = hi - lo
	}
	errs := make([]error, slots)
	var wg sync.WaitGroup
	for k := 0; k < slots; k++ {
		k := k
		wg.Add(1)
		go pprof.Do(context.Background(),
			pprof.Labels("campaign-phase", "trials", "campaign-worker", strconv.Itoa(k)),
			func(context.Context) {
				defer wg.Done()
				errs[k] = execSlot(open, k, lo+k, hi, slots)
			})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// execSlot opens slot k and runs its indexes first, first+stride, …
// below hi, bucketed by fork base with one stable counting sort.
func execSlot(open func(int) (RangeSlot, error), k, first, hi, stride int) error {
	s, err := open(k)
	if err != nil {
		return err
	}
	n := (hi - first + stride - 1) / stride
	bases := make([]int, n)
	top := 0
	for j := range bases {
		bases[j] = s.Base(first + j*stride)
		top = max(top, bases[j])
	}
	next := make([]int, top+2)
	for _, b := range bases {
		next[b+1]++
	}
	for b := 1; b < len(next); b++ {
		next[b] += next[b-1]
	}
	order := make([]int, n)
	for j, b := range bases {
		order[next[b]] = first + j*stride
		next[b]++
	}
	for _, i := range order {
		if err := s.Run(i); err != nil {
			return err
		}
	}
	return nil
}

// ProgressCounter serializes a progress callback across slots: the
// returned func counts one settled index and reports (done, total).
// It returns nil when on is nil.
func ProgressCounter(on func(done, total int), total int) func() {
	if on == nil {
		return nil
	}
	var mu sync.Mutex
	done := 0
	return func() {
		mu.Lock()
		defer mu.Unlock()
		done++
		on(done, total)
	}
}
