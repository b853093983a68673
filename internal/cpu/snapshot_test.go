package cpu

import (
	"fmt"
	"maps"
	"testing"
)

// TestRestoreFastPathDifferential drives random sequences of Snapshot
// into several states, word mutations (Store, Poke, FlipBit) and
// Restore from the synced state or a different one, with ECC on and
// off, on a RAM whose last page is partial. After every Restore the
// memory must hold exactly the target state — every RAM word, the
// maintained wordSum and the pending ECC flips — and PagesRestored
// must have grown by exactly the pages the full scan copies (a page
// whose shadow differs from the target's page id, or that is dirty),
// whichever path ran.
func TestRestoreFastPathDifferential(t *testing.T) {
	const (
		words  = 20*pageWords + 17
		states = 4
		steps  = 4000
	)
	type want struct {
		words []uint32
		flips map[uint32]uint32
	}
	for _, ecc := range []bool{false, true} {
		t.Run(fmt.Sprintf("ecc=%v", ecc), func(t *testing.T) {
			m := NewMemory(words, ecc)
			st := make([]MemoryState, states)
			ref := make([]*want, states)
			rng := uint64(1)
			next := func(n int) int {
				rng++
				return int(digestMix(rng) % uint64(n))
			}
			addr := func() uint32 {
				// Cluster most writes on a few pages so restores from the
				// synced state see both dirty and clean pages.
				if next(4) > 0 {
					return uint32(next(3)*pageWords+next(pageWords)) * 4
				}
				return uint32(next(words)) * 4
			}
			restores, fast := 0, 0
			for step := 0; step < steps; step++ {
				switch op := next(16); {
				case op < 5:
					m.Store(addr(), uint32(digestMix(uint64(step))))
				case op < 8:
					m.Poke(addr(), uint32(next(4)))
				case op < 11:
					m.FlipBit(addr(), uint(next(32)))
				case op < 13:
					k := next(states)
					m.Snapshot(&st[k])
					ref[k] = &want{words: append([]uint32(nil), m.words...), flips: maps.Clone(m.pendingFlips)}
				default:
					k := next(states)
					if ref[k] == nil {
						continue
					}
					if m.synced == &st[k] {
						fast++
					}
					full := uint64(0)
					for p, pg := range st[k].pages {
						if m.shadow[p] != pg || m.dirty[p>>6]&(1<<(p&63)) != 0 {
							full++
						}
					}
					before := m.Snap.PagesRestored
					m.Restore(&st[k])
					restores++
					for i, w := range ref[k].words {
						if m.words[i] != w {
							t.Fatalf("step %d: restore of state %d: word %d = %#x, want %#x", step, k, i, m.words[i], w)
						}
					}
					var sum uint64
					for i, w := range m.words {
						sum += wordSig(uint32(i), w)
					}
					if m.wordSum != sum {
						t.Fatalf("step %d: restore of state %d: wordSum %#x, recomputed %#x", step, k, m.wordSum, sum)
					}
					if !maps.Equal(m.pendingFlips, ref[k].flips) {
						t.Fatalf("step %d: restore of state %d: pending flips %v, want %v", step, k, m.pendingFlips, ref[k].flips)
					}
					if got := m.Snap.PagesRestored - before; got != full {
						t.Fatalf("step %d: restore of state %d copied %d pages, the full scan copies %d", step, k, got, full)
					}
				}
			}
			if restores < steps/10 || fast < restores/8 || fast == restores {
				t.Fatalf("%d restores, %d from the synced state: the sequence exercises too little", restores, fast)
			}
		})
	}
}
