// Command exhaustcheck runs the exhaustive single-fault verifier: it
// enumerates EVERY fault placement — (time quantum × target × locus ×
// bit) — within one hyperperiod of the standard workload and proves, on
// every explored path, that the TEM state-machine invariants hold and
// no deadline is missed, and that each placement classifies exactly as
// a sampling campaign would classify it. Where faultcampaign estimates
// the dependability parameters from random samples, exhaustcheck
// discharges the underlying safety obligation by enumeration and prints
// the parameters' exact values over the enumerated space.
//
// Usage:
//
//	exhaustcheck [-quantum d] [-targets list] [-ecc] [-periods N] [-compute N]
//	             [-parallel N] [-snapshot-interval d]
//	             [-progress] [-cert-out file] [-label s]
//
// The default configuration is the CI gate: the small brake-by-wire
// control workload (3 periods, compute 16, ECC on) whose full space
// enumerates in seconds. -cert-out writes the coverage certificate — a
// canonical, digest-stamped JSON artifact that is bit-identical for any
// -parallel value (the test suite also pins it against a from-scratch
// oracle that simulates every placement from t=0). Every run then
// replays the entire placement list through the campaign runner
// (fault.ShardRunner.RunSpecs, one coin-free spec per placement),
// verifies the per-placement outcomes and per-class totals match
// exactly, and prints the exact C_D, P_T, P_OM and P_FS of the space.
//
// Exit status is 1 if any placement violates a guarantee or the
// cross-check diverges.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/des"
	"repro/internal/exhaust"
	"repro/internal/fault"
	"repro/internal/stats"
)

func main() {
	quantum := flag.Duration("quantum", 50*time.Microsecond, "spacing between enumerated injection instants")
	targetsFlag := flag.String("targets", "", "comma-separated fault targets: register,pc,sp,alu,mem-data,mem-code (default all)")
	ecc := flag.Bool("ecc", true, "enable the memory ECC model")
	periods := flag.Int("periods", 3, "task periods per trial (the enumeration window is one hyperperiod)")
	compute := flag.Int("compute", 16, "workload inner-loop iterations (duty cycle)")
	parallel := flag.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS); results are bit-identical for any value")
	snapshotInterval := flag.Duration("snapshot-interval", 0, "fork checkpoint spacing (0 = default 250µs, or the workload's hint when finer)")
	progress := flag.Bool("progress", false, "report live placement progress on stderr")
	certOut := flag.String("cert-out", "", "write the coverage certificate (canonical JSON) to this file")
	label := flag.String("label", "", "label recorded in the certificate")
	flag.Parse()

	if err := run(*quantum, *targetsFlag, *ecc, *periods, *compute, *parallel,
		*snapshotInterval, *progress, *certOut, *label); err != nil {
		fmt.Fprintln(os.Stderr, "exhaustcheck:", err)
		os.Exit(1)
	}
}

func run(quantum time.Duration, targetsFlag string, ecc bool, periods, compute, parallel int,
	snapshotInterval time.Duration, progress bool, certOut, label string) error {
	targets, err := fault.ParseTargets(targetsFlag)
	if err != nil {
		return err
	}
	w := fault.NewStdWorkload(fault.StdWorkloadConfig{
		ECC: ecc, Periods: periods, Compute: compute,
	})
	cfg := exhaust.Config{
		Quantum:          des.Time(quantum),
		Targets:          targets,
		Parallelism:      parallel,
		SnapshotInterval: des.Time(snapshotInterval),
		Label:            label,
	}
	if progress {
		lastPct := -1
		cfg.OnProgress = func(done, total int) {
			pct := done * 100 / total
			if pct/5 > lastPct/5 || done == total {
				fmt.Fprintf(os.Stderr, "\rprogress: %d/%d placements (%d%%)", done, total, pct)
				lastPct = pct
			}
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	start := time.Now()
	res, err := exhaust.Verify(w, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	sp := res.Space
	fmt.Printf("exhaustive verification: %d placements = %d quanta × %d (target,locus,bit) over [%v, %v) @ %v\n",
		sp.Len(), sp.Quanta, sp.PerQuantum, sp.Start, sp.End, sp.Quantum)
	fmt.Printf("explored in %v: %d simulated, %d converged to golden, %d dedup hits (%d memos, %d workers, %d checkpoints)\n",
		elapsed.Round(time.Millisecond), res.Stats.Simulated, res.Stats.ConvergedGolden,
		res.Stats.DedupHits, res.Stats.Memos, res.Stats.Workers, res.Stats.Checkpoints)

	fmt.Println("\nper-class totals (exact, not estimates):")
	for _, o := range []fault.Outcome{fault.NotActivated, fault.Masked,
		fault.Omission, fault.FailSilent, fault.ValueFailure} {
		fmt.Printf("  %-14s %7d\n", o.String()+":", res.Counts[o])
	}
	if len(res.ByMechanism) > 0 {
		mechs := make([]string, 0, len(res.ByMechanism))
		for m := range res.ByMechanism {
			mechs = append(mechs, m)
		}
		sort.Strings(mechs)
		fmt.Println("detected by:")
		for _, m := range mechs {
			fmt.Printf("  %-14s %7d\n", m+":", res.ByMechanism[m])
		}
	}

	fmt.Printf("\ncertificate digest: %s\n", res.Cert.Digest)
	if certOut != "" {
		if err := res.Cert.WriteFile(certOut); err != nil {
			return err
		}
		fmt.Printf("wrote certificate to %s\n", certOut)
	}

	ok := true
	if n := len(res.Violations); n > 0 {
		ok = false
		fmt.Printf("\nFAIL: %d guarantee violation(s):\n", n)
		for i, v := range res.Violations {
			if i >= 20 {
				fmt.Printf("  ... (%d more)\n", n-i)
				break
			}
			fmt.Printf("  %v\n", v)
		}
	} else {
		fmt.Println("\nall placements: TEM invariants hold, no deadline misses")
	}

	start = time.Now()
	camp, err := crossCheckCampaign(w, sp, parallel, des.Time(snapshotInterval))
	if err != nil {
		return fmt.Errorf("cross-check campaign: %w", err)
	}
	if diffs := res.CrossCheck(camp); len(diffs) > 0 {
		ok = false
		fmt.Printf("\nFAIL: cross-check against the campaign runner diverged:\n")
		for _, d := range diffs {
			fmt.Printf("  %s\n", d)
		}
	} else {
		fmt.Printf("cross-check: the campaign runner over all %d placements matches exactly (%v)\n",
			len(res.Records), time.Since(start).Round(time.Millisecond))
		fmt.Printf("exact parameters: C_D=%s P_T=%s P_OM=%s P_FS=%s\n",
			exact(camp.CD), exact(camp.PT), exact(camp.POM), exact(camp.PFS))
	}

	if !ok {
		return fmt.Errorf("verification failed")
	}
	return nil
}

// crossCheckCampaign runs every placement of sp as a coin-free spec on
// a campaign runner and assembles the records as a campaign result.
func crossCheckCampaign(w fault.Workload, sp *exhaust.Space, parallel int, interval des.Time) (*fault.Result, error) {
	runner, err := fault.NewShardRunner(w, fault.CampaignConfig{
		Trials: sp.Len(), Parallelism: parallel, SnapshotInterval: interval})
	if err != nil {
		return nil, err
	}
	specs := make([]fault.TrialSpec, sp.Len())
	for i := range specs {
		specs[i].Fault = sp.Fault(i)
	}
	records, err := runner.RunSpecs(specs)
	if err != nil {
		return nil, err
	}
	return fault.FinalizeSharded(runner.Config(), runner.Golden(), records, nil)
}

// exact renders a proportion over the whole space: its value and its
// counts (a sampling interval means nothing here).
func exact(p stats.Proportion) string {
	return fmt.Sprintf("%.4f (%d/%d)", p.P, p.Hits, p.Trials)
}
