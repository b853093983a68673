package cpu

import (
	"fmt"
	"maps"
	"slices"
	"testing"
)

// pageID is the id checkpoint st of m holds for page p: an entry of
// the block the state names for p's bitmap word.
func pageID(m *Memory, st *MemoryState, p int) uint32 {
	return m.blocks.page(st.blocks[p>>6]).words[p&63]
}

// TestRestoreFastPathDifferential drives random sequences of Snapshot
// into several states, word mutations (Store, Poke, FlipBit) and
// Restore from the synced state or a different one, with ECC on and
// off, on a RAM of one block of pages whose last page is partial and on
// one of three blocks whose last block and page are partial. After
// every Restore the memory must hold exactly the target state — every
// RAM word, the maintained wordSum and the pending ECC flips — and
// PagesRestored must have grown by exactly the pages the full scan
// copies (a page whose shadow differs from the target's page id, or
// that is dirty), whichever path ran.
func TestRestoreFastPathDifferential(t *testing.T) {
	const (
		states = 4
		steps  = 4000
	)
	type want struct {
		words []uint32
		flips map[uint32]uint32
	}
	for _, tc := range []struct {
		words int
		ecc   bool
	}{{20*pageWords + 17, false}, {20*pageWords + 17, true}, {150*pageWords + 17, false}, {150*pageWords + 17, true}} {
		words, ecc := tc.words, tc.ecc
		name := fmt.Sprintf("ecc=%v", ecc)
		if words > 64*pageWords {
			name += ",blocks=3"
		}
		t.Run(name, func(t *testing.T) {
			m := NewMemory(words, ecc)
			st := make([]MemoryState, states)
			ref := make([]*want, states)
			rng := uint64(1)
			next := func(n int) int {
				rng++
				return int(digestMix(rng) % uint64(n))
			}
			addr := func() uint32 {
				// Cluster most writes on a few pages, one in the first
				// block and two in the last, so restores from the synced
				// state see both dirty and clean pages and restores from
				// another skip whole blocks.
				if next(4) > 0 {
					p := []int{1, words/pageWords - 1, words / pageWords}[next(3)]
					return uint32(min(p*pageWords+next(pageWords), words-1)) * 4
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
					for p := range m.shadow {
						if m.shadow[p] != pageID(m, &st[k], p) || m.dirty[p>>6]&(1<<(p&63)) != 0 {
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

// TestRestoreAcrossCheckpoints captures a chain of checkpoints of a RAM
// of four blocks of pages, the last one partial, each dirtying pages in
// some blocks and leaving the others' block ids shared, then restores
// them out of order, never from the synced state: the newest to the
// oldest, the oldest to a middle one, and back. Each restore must
// install exactly the checkpoint's words and copy exactly the pages
// whose ids differ from the previous target's, and the captures must
// have stored a block only where one of its page ids changed.
func TestRestoreAcrossCheckpoints(t *testing.T) {
	const words = 200*pageWords + 5 // blocks 0–2 full, block 3 of 9 pages
	m := NewMemory(words, true)
	writes := [][]int{ // pages written before each capture
		{0, 70, 199, 200},
		{70},
		{130, 131, 200},
		{0, 199},
	}
	st := make([]MemoryState, len(writes))
	ref := make([][]uint32, len(writes))
	blocks := []uint32{1 + 3, 1, 2, 2} // new blocks each capture stores
	for k, pages := range writes {
		for i, p := range pages {
			m.Poke(uint32(min(p*pageWords+i, words-1))*4, uint32(k<<8|i+1))
		}
		n := m.blocks.n
		m.Snapshot(&st[k])
		if got := m.blocks.n - n; got != blocks[k] {
			t.Errorf("capture %d stored %d blocks, want %d", k, got, blocks[k])
		}
		ref[k] = append([]uint32(nil), m.words...)
	}
	last := len(st) - 1
	for _, k := range []int{0, 2, 1, 3, 0} {
		want := uint64(0)
		for p := range m.shadow {
			if pageID(m, &st[k], p) != pageID(m, &st[last], p) {
				want++
			}
		}
		before := m.Snap.PagesRestored
		m.Restore(&st[k])
		if !slices.Equal(m.words, ref[k]) {
			t.Fatalf("restore of checkpoint %d after %d: RAM differs", k, last)
		}
		if got := m.Snap.PagesRestored - before; got != want {
			t.Errorf("restore of checkpoint %d after %d copied %d pages, want %d", k, last, got, want)
		}
		last = k
	}
}
