package nlft

// This file is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (see DESIGN.md §4 for the experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured outcomes).
// Each benchmark times the computation and reports the headline numbers
// as custom metrics, so `go test -bench=. -benchmem` reproduces the
// whole evaluation in one run.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/kernel"
)

// BenchmarkFigure12SystemReliability regenerates Figure 12: BBW system
// reliability over one year for FS/NLFT × full/degraded.
// Paper: at one year, FS degraded ≈ 0.45 and NLFT degraded ≈ 0.70.
func BenchmarkFigure12SystemReliability(b *testing.B) {
	p := PaperParams()
	var rows []Figure12Row
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err = Figure12(p, HoursPerYear, 12)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.FSDegraded, "R1y-FS-degraded")
	b.ReportMetric(last.NLFTDegraded, "R1y-NLFT-degraded")
	b.ReportMetric(last.FSFull, "R1y-FS-full")
	b.ReportMetric(last.NLFTFull, "R1y-NLFT-full")
	b.Logf("Figure 12 @ 1 year: FS full=%.4f degraded=%.4f | NLFT full=%.4f degraded=%.4f (paper: degraded 0.45 vs 0.70)",
		last.FSFull, last.FSDegraded, last.NLFTFull, last.NLFTDegraded)
}

// BenchmarkFigure13SubsystemReliability regenerates Figure 13: subsystem
// reliabilities over one year. Paper: the wheel-node subsystem is the
// reliability bottleneck.
func BenchmarkFigure13SubsystemReliability(b *testing.B) {
	p := PaperParams()
	var rows []Figure13Row
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err = Figure13(p, HoursPerYear, 12)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.CUFS, "R1y-CU-FS")
	b.ReportMetric(last.CUNLFT, "R1y-CU-NLFT")
	b.ReportMetric(last.WheelsDegradedFS, "R1y-wheels-FS-deg")
	b.ReportMetric(last.WheelsDegradedNLFT, "R1y-wheels-NLFT-deg")
	b.Logf("Figure 13 @ 1 year: CU FS=%.4f NLFT=%.4f | wheels(degr) FS=%.4f NLFT=%.4f | wheels(full) FS=%.4f NLFT=%.4f",
		last.CUFS, last.CUNLFT, last.WheelsDegradedFS, last.WheelsDegradedNLFT,
		last.WheelsFullFS, last.WheelsFullNLFT)
	if !(last.WheelsDegradedFS < last.CUFS) {
		b.Error("wheel subsystem is not the bottleneck (paper §3.4 says it is)")
	}
}

// BenchmarkFigure14CoverageSweep regenerates Figure 14: degraded-mode
// reliability after five hours for varying error-detection coverage and
// transient fault rate. Paper: coverage dominates; the NLFT advantage
// grows with the fault rate.
func BenchmarkFigure14CoverageSweep(b *testing.B) {
	p := PaperParams()
	coverages := []float64{0.9, 0.99, 0.999}
	multiples := []float64{1, 10, 100, 1000}
	var rows []Figure14Row
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err = Figure14(p, 5, coverages, multiples)
		if err != nil {
			b.Fatal(err)
		}
	}
	get := func(cd float64, nt NodeType, mult float64) float64 {
		for _, r := range rows {
			if r.Coverage == cd && r.NodeType == nt && r.LambdaTMultiple == mult {
				return r.R
			}
		}
		b.Fatalf("row missing: cd=%v nt=%v mult=%v", cd, nt, mult)
		return 0
	}
	b.ReportMetric(get(0.99, FS, 100), "R5h-FS-cd99-x100")
	b.ReportMetric(get(0.99, NLFT, 100), "R5h-NLFT-cd99-x100")
	for _, cd := range coverages {
		b.Logf("Figure 14, C_D=%.3f: FS %v | NLFT %v (λ_T ×1, ×10, ×100, ×1000)", cd,
			[]float64{get(cd, FS, 1), get(cd, FS, 10), get(cd, FS, 100), get(cd, FS, 1000)},
			[]float64{get(cd, NLFT, 1), get(cd, NLFT, 10), get(cd, NLFT, 100), get(cd, NLFT, 1000)})
	}
}

// BenchmarkMTTF regenerates the §3.4 MTTF comparison.
// Paper: degraded mode 1.2 years (FS) → 1.9 years (NLFT), ≈ +60%.
func BenchmarkMTTF(b *testing.B) {
	p := PaperParams()
	var rows []MTTFComparison
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err = MTTFTable(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("MTTF %s: FS %.3f y, NLFT %.3f y, gain %.1f%%",
			r.Mode, r.FSHours/HoursPerYear, r.NLFTHours/HoursPerYear, 100*r.Gain)
		if r.Mode == Degraded {
			b.ReportMetric(r.FSHours/HoursPerYear, "MTTF-FS-years")
			b.ReportMetric(r.NLFTHours/HoursPerYear, "MTTF-NLFT-years")
			b.ReportMetric(100*r.Gain, "MTTF-gain-%")
		}
	}
}

// BenchmarkTable1Mechanisms measures the detection/masking contribution
// of each Table 1 error-handling mechanism class by running targeted
// fault-injection campaigns on the simulated kernel.
func BenchmarkTable1Mechanisms(b *testing.B) {
	classes := []struct {
		name    string
		targets []fault.Target
		ecc     bool
	}{
		{"cpu-exceptions(pc,sp)", []fault.Target{fault.TargetPC, fault.TargetSP}, true},
		{"tem(register,alu)", []fault.Target{fault.TargetRegister, fault.TargetALU}, true},
		{"ecc(memory)", []fault.Target{fault.TargetMemoryData, fault.TargetMemoryCode}, true},
		{"kernel-checks(no-ecc-memory)", []fault.Target{fault.TargetMemoryData, fault.TargetMemoryCode}, false},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, c := range classes {
			w := fault.NewStdWorkload(fault.StdWorkloadConfig{ECC: c.ecc})
			res, err := fault.Run(w, fault.CampaignConfig{
				Trials:      150,
				Seed:        1234,
				Targets:     c.targets,
				KernelShare: 1e-12,
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.Logf("Table 1 %-28s C_D=%v P_T=%v (activated %d)",
					c.name, res.CD, res.PT, res.Activated())
			}
		}
	}
}

// BenchmarkFigure3TEMScenarios exercises the four TEM scenarios of
// Figure 3 on the real kernel and reports the recovery cost in cycles.
func BenchmarkFigure3TEMScenarios(b *testing.B) {
	type scenario struct {
		name   string
		inject func(sim *des.Simulator, k *kernel.Kernel)
	}
	scenarios := []scenario{
		{"i-fault-free", func(*des.Simulator, *kernel.Kernel) {}},
		{"ii-compare-detected", func(sim *des.Simulator, k *kernel.Kernel) {
			// Corrupt copy 2's data register mid-execution.
			sim.Schedule(120*des.Microsecond, des.PrioInject, func() {
				k.Proc().FlipRegister(6, 7)
			})
		}},
		{"iii-edm-detected-copy2", func(sim *des.Simulator, k *kernel.Kernel) {
			sim.Schedule(120*des.Microsecond, des.PrioInject, func() {
				k.Proc().FlipPC(13)
			})
		}},
		{"iv-edm-detected-copy1", func(sim *des.Simulator, k *kernel.Kernel) {
			sim.Schedule(40*des.Microsecond, des.PrioInject, func() {
				k.Proc().FlipPC(13)
			})
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			var last kernel.Stats
			for i := 0; i < b.N; i++ {
				sim := des.New()
				k, _ := benchKernel(sim)
				sc.inject(sim, k)
				if err := sim.RunUntil(des.Millisecond / 2); err != nil {
					b.Fatal(err)
				}
				last = k.Stats()
			}
			b.ReportMetric(float64(last.TaskCycles), "task-cycles")
			b.ReportMetric(float64(last.Masked), "masked")
			b.ReportMetric(float64(last.Omissions), "omissions")
		})
	}
}

// benchBurnSrc is the compute task used by the Figure 3 bench.
const benchBurnSrc = `
	.org 0x0000
start:
	movi r5, 1000
	movi r6, 0
loop:
	add r6, r6, r5
	addi r5, r5, -1
	cmpi r5, 0
	bgt loop
	li r1, 0xFFFF0000
	st r6, [r1+4]
	sys 2
`

// benchEnv is a minimal kernel environment.
type benchEnv struct{ writes int }

func (e *benchEnv) ReadInput(uint32) uint32    { return 0 }
func (e *benchEnv) WriteOutput(uint32, uint32) { e.writes++ }

func benchKernel(sim *des.Simulator) (*kernel.Kernel, *benchEnv) {
	env := &benchEnv{}
	k := kernel.New(sim, env, kernel.Config{})
	spec := kernel.TaskSpec{
		Name:        "burn",
		Program:     benchProgram,
		Entry:       "start",
		Period:      des.Millisecond,
		Deadline:    des.Millisecond,
		Priority:    1,
		Criticality: kernel.Critical,
		Budget:      200 * des.Microsecond,
		OutputPorts: []uint32{1},
		StackStart:  0xC000,
		StackWords:  64,
	}
	if err := k.AddTask(spec); err != nil {
		panic(err)
	}
	if err := k.Start(); err != nil {
		panic(err)
	}
	return k, env
}

// BenchmarkAblationAlwaysTriple compares TEM's third-copy-on-demand with
// unconditional triple execution: same deliveries, ~1.5× the CPU.
func BenchmarkAblationAlwaysTriple(b *testing.B) {
	for _, always := range []bool{false, true} {
		name := "on-demand"
		if always {
			name = "always-triple"
		}
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				sim := des.New()
				env := &benchEnv{}
				k := kernel.New(sim, env, kernel.Config{AlwaysTriple: always})
				spec := kernel.TaskSpec{
					Name: "burn", Program: benchProgram, Entry: "start",
					Period: des.Millisecond, Deadline: des.Millisecond,
					Priority: 1, Criticality: kernel.Critical,
					Budget:      200 * des.Microsecond,
					OutputPorts: []uint32{1},
					StackStart:  0xC000, StackWords: 64,
				}
				if err := k.AddTask(spec); err != nil {
					b.Fatal(err)
				}
				if err := k.Start(); err != nil {
					b.Fatal(err)
				}
				if err := sim.RunUntil(100 * des.Millisecond); err != nil {
					b.Fatal(err)
				}
				cycles = k.Stats().TaskCycles
			}
			b.ReportMetric(float64(cycles), "task-cycles-100ms")
		})
	}
}

// BenchmarkAblationNoRestore compares masking success with and without
// the TCB context restore after EDM-detected errors.
func BenchmarkAblationNoRestore(b *testing.B) {
	for _, noRestore := range []bool{false, true} {
		name := "restore"
		if noRestore {
			name = "no-restore"
		}
		b.Run(name, func(b *testing.B) {
			var masked, failed int
			for i := 0; i < b.N; i++ {
				w := fault.NewStdWorkload(fault.StdWorkloadConfig{
					ECC:                true,
					NoContextRestore:   noRestore,
					PermanentThreshold: 100,
					Compute:            800, // ~26% duty cycle: faults hit live state
				})
				res, err := fault.Run(w, fault.CampaignConfig{
					Trials:      200,
					Seed:        77,
					Targets:     []fault.Target{fault.TargetPC, fault.TargetSP},
					KernelShare: 1e-12,
				})
				if err != nil {
					b.Fatal(err)
				}
				masked = res.Counts[fault.Masked]
				failed = res.Counts[fault.Omission] + res.Counts[fault.FailSilent] +
					res.Counts[fault.ValueFailure]
			}
			b.ReportMetric(float64(masked), "masked")
			b.ReportMetric(float64(failed), "failed-releases")
		})
	}
}

// BenchmarkAblationSlack sweeps the deadline slack and reports the
// omission fraction among detected errors: the schedulability-reserved
// slack of §2.8 is what keeps detected errors recoverable. The workload
// needs ≈270 µs fault-free; a third copy needs ≈150 µs more, so the
// 350 µs deadline forces omissions on late-detected errors while 1 ms
// recovers everything.
func BenchmarkAblationSlack(b *testing.B) {
	for _, deadlineUS := range []int{350, 450, 1000} {
		b.Run(des.Time(deadlineUS*int(des.Microsecond)).String(), func(b *testing.B) {
			var omissionFrac float64
			for i := 0; i < b.N; i++ {
				w := fault.NewStdWorkload(fault.StdWorkloadConfig{
					ECC:      true,
					Compute:  800,
					Budget:   150 * des.Microsecond,
					Deadline: des.Time(deadlineUS) * des.Microsecond,
				})
				res, err := fault.Run(w, fault.CampaignConfig{
					Trials:      150,
					Seed:        31,
					Targets:     []fault.Target{fault.TargetRegister, fault.TargetALU, fault.TargetPC},
					KernelShare: 1e-12,
				})
				if err != nil {
					b.Fatal(err)
				}
				det := res.Detected()
				if det > 0 {
					omissionFrac = float64(res.Counts[fault.Omission]) / float64(det)
				}
			}
			b.ReportMetric(omissionFrac, "P_OM")
		})
	}
}

// BenchmarkSolverComparison contrasts the two CTMC transient solvers on
// the paper's stiff generator.
func BenchmarkSolverComparison(b *testing.B) {
	p := PaperParams()
	chain, err := core.WheelsDegradedNLFT(p)
	if err != nil {
		b.Fatal(err)
	}
	p0, err := chain.InitialAt(core.StateOK)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("expm-1year", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := chain.Transient(p0, HoursPerYear); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uniformization-1hour", func(b *testing.B) {
		// Uniformization cannot span the year with μ_R ≈ 10³/h (q·t too
		// large); benchmark the practical one-hour horizon instead.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := chain.TransientUniform(p0, 1, 1e-10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTransientSeries contrasts Chain.TransientSeries with a
// pointwise Transient loop on a Figure-12-shaped grid: 501 uniform
// points across one year on the paper's stiff wheel-subsystem chain.
// The series solver pays one expm plus a vector product per step
// (re-anchoring every 32 steps); the pointwise loop pays a full expm
// per point.
func BenchmarkTransientSeries(b *testing.B) {
	p := PaperParams()
	chain, err := core.WheelsDegradedNLFT(p)
	if err != nil {
		b.Fatal(err)
	}
	p0, err := chain.InitialAt(core.StateOK)
	if err != nil {
		b.Fatal(err)
	}
	const points = 501
	times := make([]float64, points)
	for i := range times {
		times[i] = HoursPerYear * float64(i) / float64(points-1)
	}
	b.Run("series", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := chain.TransientSeries(p0, times); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pointwise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, tm := range times {
				if _, err := chain.Transient(p0, tm); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkMonteCarloValidation cross-validates the analytic Figure 12
// numbers by behavioural simulation.
func BenchmarkMonteCarloValidation(b *testing.B) {
	p := PaperParams()
	var mc float64
	for i := 0; i < b.N; i++ {
		res, err := MonteCarloBBW(1500, HoursPerYear, NLFT, Degraded, p, 42)
		if err != nil {
			b.Fatal(err)
		}
		mc = res.R.P
	}
	analytic, err := SystemReliability(p, NLFT, Degraded, HoursPerYear)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(mc, "MC-R1y")
	b.ReportMetric(analytic, "analytic-R1y")
	b.Logf("Monte-Carlo %.4f vs analytic %.4f (NLFT degraded, 1 year)", mc, analytic)
}

// BenchmarkBBWBrakingScenarios reproduces the Figure 4 system behaviour:
// stopping distances for the baseline, a masked fault, a lost central
// unit and a lost wheel node.
func BenchmarkBBWBrakingScenarios(b *testing.B) {
	cases := []struct {
		name string
		inj  []Injection
	}{
		{"fault-free", nil},
		{"masked-register-fault", []Injection{{
			At: 500*des.Millisecond + 4600*des.Nanosecond, Node: "wn1",
			Kind: InjRegister, Reg: 2, Bit: 9,
		}}},
		{"cu1-killed", []Injection{{At: 300 * des.Millisecond, Node: "cu1", Kind: InjKill}}},
		{"wn2-killed", []Injection{{At: 300 * des.Millisecond, Node: "wn2", Kind: InjKill}}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var dist float64
			var masked uint64
			for i := 0; i < b.N; i++ {
				res, err := RunScenario(Scenario{
					Config:     SystemConfig{Kind: NLFTNodes},
					Duration:   12 * des.Second,
					Injections: c.inj,
					StopEarly:  true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Stopped {
					b.Fatal("vehicle did not stop")
				}
				dist = res.StoppingDistance
				masked = res.TotalMasked()
			}
			b.ReportMetric(dist, "stop-distance-m")
			b.ReportMetric(float64(masked), "masked")
		})
	}
}

var benchProgram = cpu.MustAssemble(benchBurnSrc)

// BenchmarkCrossoverCoverage locates the crossover the paper's argument
// implies: how much error-detection coverage an NLFT node may sacrifice
// and still beat a fail-silent node with the paper's full C_D = 0.99.
// TEM buys so much at the system level that the crossover sits far below
// the FS baseline's coverage.
func BenchmarkCrossoverCoverage(b *testing.B) {
	p := PaperParams()
	var crossover float64
	for i := 0; i < b.N; i++ {
		fsBaseline, err := SystemReliability(p, FS, Degraded, HoursPerYear)
		if err != nil {
			b.Fatal(err)
		}
		// Binary search the NLFT coverage that matches the FS baseline.
		lo, hi := 0.0, p.CD
		for iter := 0; iter < 40; iter++ {
			mid := (lo + hi) / 2
			pp := p
			pp.CD = mid
			r, err := SystemReliability(pp, NLFT, Degraded, HoursPerYear)
			if err != nil {
				b.Fatal(err)
			}
			if r > fsBaseline {
				hi = mid
			} else {
				lo = mid
			}
		}
		crossover = (lo + hi) / 2
	}
	b.ReportMetric(crossover, "NLFT-CD-at-crossover")
	b.Logf("NLFT matches the FS(C_D=0.99) system at C_D ≈ %.4f — TEM tolerates a %.1f%% coverage deficit",
		crossover, 100*(p.CD-crossover))
}

// BenchmarkRedundancyAlternatives quantifies the introduction's framing:
// reliability per node count for simplex, duplex FS, duplex NLFT and
// voted TMR central units.
func BenchmarkRedundancyAlternatives(b *testing.B) {
	p := PaperParams()
	var opts []core.RedundancyOption
	var err error
	for i := 0; i < b.N; i++ {
		opts, err = core.CompareRedundancy(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, o := range opts {
		b.Logf("CU option %-12s nodes=%d  R(1y)=%.4f  MTTF=%.2f y",
			o.Name, o.Nodes, o.ROneYear, o.MTTFYears)
	}
}
