package des

import (
	"fmt"
	"testing"
)

// naiveNextEventAfter reproduces the pre-rewrite O(n) implementation:
// a full scan over every live queue entry. The benchmark contrasts it
// with the pruned heap walk the Simulator now uses.
func naiveNextEventAfter(s *Simulator, t Time) Time {
	best := MaxTime
	for _, idx := range s.heap {
		sl := &s.pool[idx]
		if !sl.canceled && sl.at > t && sl.at < best {
			best = sl.at
		}
	}
	return best
}

// BenchmarkDESNextEventAfter measures the run-slice bound query on a
// deep queue whose head region is dense around the threshold — the
// kernel's exact access pattern — for the heap walk and the old scan.
func BenchmarkDESNextEventAfter(b *testing.B) {
	for _, pending := range []int{64, 1024, 16384} {
		s := New()
		nop := func() {}
		for i := 0; i < pending; i++ {
			e := s.Schedule(Time(i%509), PrioKernel, nop)
			if i%4 == 0 { // 25% tombstones, as after a burst of cancels
				s.Cancel(e)
			}
		}
		threshold := Time(3)
		b.Run(fmt.Sprintf("pending=%d/walk", pending), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if s.NextEventAfter(threshold) == MaxTime {
					b.Fatal("no event found")
				}
			}
		})
		b.Run(fmt.Sprintf("pending=%d/naive", pending), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if naiveNextEventAfter(s, threshold) == MaxTime {
					b.Fatal("no event found")
				}
			}
		})
	}
}
