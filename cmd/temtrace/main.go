// Command temtrace replays the four temporal-error-masking scenarios of
// the paper's Figure 3 on the simulated kernel and prints the kernel's
// event stream for each: (i) fault-free double execution, (ii) an error caught
// by the comparison, (iii)/(iv) errors caught by a hardware EDM in the
// second/first copy with context restore and immediate re-execution.
//
// With -trace-out the structured event stream of all four scenarios
// (each under its scenario label) is exported as JSONL; with
// -metrics-out the merged metrics registry is exported as JSON (or CSV
// when the filename ends in .csv).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/kernel"
	"repro/internal/obs"
)

const taskSrc = `
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

type env struct{ delivered []uint32 }

func (e *env) ReadInput(uint32) uint32     { return 0 }
func (e *env) WriteOutput(_, value uint32) { e.delivered = append(e.delivered, value) }

func main() {
	traceOut := flag.String("trace-out", "", "write the structured event stream of all scenarios as JSONL")
	metricsOut := flag.String("metrics-out", "", "write the merged metrics registry (JSON, or CSV if the name ends in .csv)")
	flag.Parse()
	if err := run(os.Stdout, *traceOut, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "temtrace:", err)
		os.Exit(1)
	}
}

// run replays the scenarios, printing each one's events to w.
func run(w io.Writer, traceOut, metricsOut string) error {
	prog, err := cpu.Assemble(taskSrc)
	if err != nil {
		return err
	}
	// One collector across all scenarios; each runs under its own node
	// label so the printed and exported streams distinguish them.
	col := obs.NewCollector("")
	scenarios := []struct {
		id     string
		name   string
		legend string
		inject func(sim *des.Simulator, k *kernel.Kernel)
	}{
		{"fig3-i", "(i) fault-free", "two copies, comparison matches, result delivered",
			func(*des.Simulator, *kernel.Kernel) {}},
		{"fig3-ii", "(ii) error detected by comparison", "register fault in copy 2; third copy and majority vote",
			func(sim *des.Simulator, k *kernel.Kernel) {
				sim.Schedule(120*des.Microsecond, des.PrioInject, func() {
					k.Proc().FlipRegister(6, 7)
				})
			}},
		{"fig3-iii", "(iii) error detected by EDM in copy 2", "PC fault traps; context restored from TCB; copy re-executed",
			func(sim *des.Simulator, k *kernel.Kernel) {
				sim.Schedule(120*des.Microsecond, des.PrioInject, func() {
					k.Proc().FlipPC(13)
				})
			}},
		{"fig3-iv", "(iv) error detected by EDM in copy 1", "same, but the fault hits the first copy",
			func(sim *des.Simulator, k *kernel.Kernel) {
				sim.Schedule(40*des.Microsecond, des.PrioInject, func() {
					k.Proc().FlipPC(13)
				})
			}},
	}
	for _, sc := range scenarios {
		fmt.Fprintf(w, "=== Figure 3 %s ===\n    %s\n", sc.name, sc.legend)
		sim := des.New()
		e := &env{}
		scol := col.Labeled(sc.id)
		obs.AttachSimulator(scol, sim)
		k := kernel.New(sim, e, kernel.Config{Obs: scol})
		spec := kernel.TaskSpec{
			Name:        "T",
			Program:     prog,
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
			return err
		}
		if err := k.Start(); err != nil {
			return err
		}
		first := len(col.Events())
		sc.inject(sim, k)
		if err := sim.RunUntil(des.Millisecond / 2); err != nil {
			return err
		}
		for _, ev := range col.Events()[first:] {
			fmt.Fprintln(w, "   ", ev)
		}
		fmt.Fprintf(w, "    delivered: %v (expected [500500])\n\n", e.delivered)
	}
	if traceOut != "" {
		if err := obs.WriteEventsFile(traceOut, col.Events()); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d events to %s\n", len(col.Events()), traceOut)
	}
	if metricsOut != "" {
		if err := col.Registry().WriteMetricsFile(metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote metrics to %s\n", metricsOut)
	}
	return nil
}
