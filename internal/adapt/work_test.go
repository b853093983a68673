package adapt

import (
	"testing"

	"repro/internal/fault"
)

// TestTrialWorkCountersPinned pins the deterministic per-trial work of
// the adaptive engine on the benchmark's adaptive config — the gate
// workload at seed 1 to a 0.002-wide CI on one slot — in the columns
// internal/fault pins for the sampled and telemetry configs: the
// trial and checkpoint counts, the events fired and the kernel+task
// cycles summed over every trial's simulated span, the task cycles the
// CPU interpreted rather than replayed from the slot's slice memo, how
// many trials end on a golden and on a recorded suffix-table entry, and
// the pages every restore copied back into RAM. Each round runs on a
// session of the test's own, built as the runner builds its slot 0,
// through fault.ExecRange on one slot, so trials run in the runner's
// order and later trials end on states earlier rounds reached. Each
// trial is measured the way perfbench's layer probe measures it:
// restore its fork base, read the counters, run it (Explore, which is
// RunTrial reporting where the suffix came from), read them again. A
// drift here means trials stop at different boundaries, restores copy
// different pages, or a different share of slices replays, even when
// every estimate still agrees.
func TestTrialWorkCountersPinned(t *testing.T) {
	w := fault.NewStdWorkload(fault.StdWorkloadConfig{ECC: true})
	e, err := newEngine(w, Config{Seed: 1, CIWidth: 0.002, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := fault.NewForkSession(w, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	m := &measuredSlot{s: s}
	e.runRound = func(specs []fault.TrialSpec) ([]fault.TrialRecord, error) {
		m.specs, m.records = specs, make([]fault.TrialRecord, len(specs))
		err := fault.ExecRange(0, len(specs), 1, func(int) (fault.RangeSlot, error) { return m, nil })
		return m.records, err
	}
	res, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 4 || res.Trials != m.got.trials {
		t.Fatalf("%d rounds, %d trials (%d measured); the benchmark config runs 2,048 in 4", res.Rounds, res.Trials, m.got.trials)
	}
	// Interpreted task cycles fell from 348,118 when slices starting
	// with a correctable ECC flip pending began replaying their
	// flip-free entries (cpu.SliceMemo); no other column moved.
	want := work{2048, 52, 7982, 1097713, 159503, 1658, 389, 1105}
	if m.got != want {
		t.Errorf("trials, checkpoints, fired, cycles, interpreted task cycles, golden ends, recorded ends, pages restored = %v; want %v", m.got, want)
	}
}

type work struct {
	trials, checkpoints                                     int
	fired, cycles, interpreted, goldens, recorded, restored uint64
}

// measuredSlot is an executor slot that runs one round's specs on a
// session and sums each trial's work.
type measuredSlot struct {
	s       *fault.ForkSession
	specs   []fault.TrialSpec
	records []fault.TrialRecord
	got     work
}

func (m *measuredSlot) Base(i int) int { return m.s.Select(m.specs[i].Fault.At) }

func (m *measuredSlot) Run(i int) error {
	s, got := m.s, &m.got
	got.checkpoints = s.Checkpoints()
	pages0 := s.Inst.Kernel.Mem().Snap.PagesRestored
	s.Restore(m.Base(i))
	f0, st0, sl0 := s.Inst.Sim.Fired(), s.Inst.Kernel.Stats(), s.SliceStats()
	x, err := s.Explore(m.specs[i])
	if err != nil {
		return err
	}
	st := s.Inst.Kernel.Stats()
	got.trials++
	got.fired += s.Inst.Sim.Fired() - f0
	got.cycles += st.KernelCycles + st.TaskCycles - st0.KernelCycles - st0.TaskCycles
	got.interpreted += s.SliceStats().InterpretedCycles - sl0.InterpretedCycles
	got.restored += s.Inst.Kernel.Mem().Snap.PagesRestored - pages0
	switch x.Suffix {
	case fault.SuffixGolden:
		got.goldens++
	case fault.SuffixRecorded:
		got.recorded++
	}
	m.records[i] = x.Record
	return nil
}
