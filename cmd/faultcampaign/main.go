// Command faultcampaign runs a fault-injection campaign on the simulated
// NLFT kernel and reports the dependability parameter estimates (C_D,
// P_T, P_OM, P_FS) with 95% confidence intervals — the experimental side
// of the paper's framework (refs [7, 8]).
//
// Usage:
//
//	faultcampaign [-trials N] [-seed S] [-ecc] [-compute N] [-targets list]
//	              [-parallel N] [-cpuprofile file] [-memprofile file] [-progress]
//	              [-metrics-out file] [-trace-out file] [-digest]
//	              [-snapshot-stats]
//	              [-adaptive] [-strata N] [-ci-width f] [-ci-outcome o] [-max-trials N]
//	              [-config file] [-dump-config]
//	faultcampaign -serve addr [-lease-ttl d]
//	faultcampaign -worker url [-name s] [-parallel N] [-poll d]
//	faultcampaign -submit url [-trials N] [-seed S] [-lease-size N] ...
//
// The three -serve/-worker/-submit modes shard one campaign across
// processes: a coordinator slices the trial range into leases, workers
// lease ranges and stream back results, and the merged result — printed
// by -submit together with its digest — is bit-identical to the same
// campaign run locally (compare with a local run's -digest). Lost
// workers are detected by lease expiry and their ranges re-leased.
//
// All flags live in one validated configuration: -dump-config prints it
// as JSON, -config loads that JSON back (explicit flags still win), and
// contradictory combinations (say -worker with -adaptive, or -ci-width
// without -adaptive) are errors rather than silent no-ops. Exhaustive
// enumeration of the placement space, with the parameters' exact
// values, is cmd/exhaustcheck.
//
// -adaptive replaces uniform sampling with the adaptive stratified
// engine (internal/adapt): the fault space is stratified by (target ×
// time bucket), rounds are allocated by Neyman scores, dominant strata
// split on the time axis, and the analytically known branches (the
// modelled kernel-hit coin and the golden run's kernel-activity
// windows) enter the estimates exactly, costing no trials. -ci-width
// stops once the chosen outcome's 95% interval is narrow enough;
// -progress reports each round's allocation on stderr.
//
// -metrics-out enables campaign telemetry and exports the merged metrics
// registry (JSON, or CSV if the name ends in .csv); the per-mechanism
// detection counts in it reproduce the campaign's coverage table.
// -trace-out additionally retains each trial's structured event stream
// and exports the merged JSONL (trial 0 is the fault-free golden run).
//
// Every engine runs trials on the checkpoint/fork trial core: each
// worker snapshots the fault-free prefix on a fixed 250µs grid and at
// every instant the kernel dispatches a task copy, and every trial
// restores the latest checkpoint before its injection instant instead
// of re-simulating from t=0 (bit-identical to a from-scratch trial; the
// test suite pins that against a from-scratch oracle). The grid is not
// a setting, since no result depends on it; -snapshot-stats reports the
// checkpoint store's delta-page traffic. A trial also stops early once
// its state digest at a checkpoint matches one the worker's suffix
// table holds (the golden run's or an earlier trial's); with
// -metrics-out or -trace-out the entry's telemetry is composed in, so
// the files equal those of fully simulated trials.
package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	nlft "repro"
	"repro/internal/fault"
	"repro/internal/obs"
)

func main() {
	cfg, set, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if cfg.DumpConfig {
		b, err := cfg.dump()
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultcampaign:", err)
			os.Exit(1)
		}
		os.Stdout.Write(b)
		return
	}
	if err := cfg.Validate(set); err != nil {
		fmt.Fprintln(os.Stderr, "faultcampaign:", err)
		os.Exit(2)
	}

	if cfg.CPUProfile != "" {
		f, err := os.Create(cfg.CPUProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultcampaign:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "faultcampaign:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	switch cfg.mode() {
	case "serve":
		err = runServe(cfg)
	case "worker":
		err = runWorkerMode(cfg)
	case "submit":
		err = runSubmit(cfg)
	default:
		err = run(cfg)
	}
	if err != nil {
		pprof.StopCPUProfile()
		fmt.Fprintln(os.Stderr, "faultcampaign:", err)
		os.Exit(1)
	}
	if cfg.MemProfile != "" {
		if err := writeMemProfile(cfg.MemProfile); err != nil {
			fmt.Fprintln(os.Stderr, "faultcampaign:", err)
			os.Exit(1)
		}
	}
}

// writeMemProfile records the campaign's allocation profile ("allocs",
// so both in-use and cumulative allocation views are available).
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // settle the heap so in-use numbers are accurate
	return pprof.Lookup("allocs").WriteTo(f, 0)
}

// parseOutcome resolves an outcome by its String name.
func parseOutcome(name string) (fault.Outcome, error) {
	for _, o := range fault.AllOutcomes() {
		if o.String() == name {
			return o, nil
		}
	}
	return 0, fmt.Errorf("unknown outcome %q (want one of not-activated, masked, omission, fail-silent, value-failure)", name)
}

// runAdaptive runs the adaptive stratified campaign and reports the
// per-stratum allocation alongside the usual parameter estimates.
func runAdaptive(w nlft.Workload, targets []fault.Target, cfg *cliConfig) error {
	outcome, err := parseOutcome(cfg.CIOutcome)
	if err != nil {
		return err
	}
	acfg := nlft.AdaptiveConfig{
		Seed:        cfg.Seed,
		Targets:     targets,
		Buckets:     cfg.Strata,
		MaxTrials:   cfg.MaxTrials,
		CIWidth:     cfg.CIWidth,
		CIOutcome:   outcome,
		Parallelism: cfg.Parallel,
	}
	if cfg.Progress {
		acfg.OnRound = func(ri nlft.AdaptiveRoundInfo) {
			fmt.Fprintf(os.Stderr, "round %d: +%d trials (%d total), %d strata, P(%v) = %v\n",
				ri.Round, ri.Allocated, ri.Trials, ri.Strata, outcome, ri.Estimate)
		}
	}
	res, err := nlft.RunAdaptiveCampaign(w, acfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Summary())
	fmt.Println("\nper-stratum allocation:")
	fmt.Print(res.StrataTable())
	return nil
}

// run executes the campaign locally in this process. The workload and
// campaign configuration are the -submit spec's (cliConfig.spec), so a
// local run and a sharded one share every default by construction; the
// serial-only telemetry exports and progress reporting go on top.
func run(cfg *cliConfig) error {
	spec, err := cfg.spec()
	if err != nil {
		return err
	}
	w := spec.Workload()
	ccfg, err := spec.Config(cfg.Parallel)
	if err != nil {
		return err
	}
	if cfg.Adaptive {
		return runAdaptive(w, ccfg.Targets, cfg)
	}
	ccfg.Telemetry = cfg.MetricsOut != ""
	ccfg.TelemetryEvents = cfg.TraceOut != ""
	if cfg.Progress {
		lastPct := -1
		ccfg.OnProgress = func(done, total int) {
			pct := done * 100 / total
			if pct/5 > lastPct/5 || done == total {
				fmt.Fprintf(os.Stderr, "\rprogress: %d/%d trials (%d%%)", done, total, pct)
				lastPct = pct
			}
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	res, err := nlft.RunCampaign(w, ccfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Summary())

	fmt.Println("\nper-target outcomes:")
	for _, target := range fault.AllTargets() {
		counts, ok := res.ByTarget[target]
		if !ok {
			continue
		}
		fmt.Printf("  %-10s", target)
		for _, o := range []fault.Outcome{fault.NotActivated, fault.Masked,
			fault.Omission, fault.FailSilent, fault.ValueFailure} {
			fmt.Printf(" %s=%d", o, counts[o])
		}
		fmt.Println()
	}

	if cfg.SnapshotStats {
		s := res.Snapshots
		fmt.Println("\ncheckpoint-store traffic (fork engine):")
		fmt.Printf("  checkpoints:     %d per worker × %d workers\n", s.Checkpoints, s.Workers)
		fmt.Printf("  snapshots:       %d captures, %d pages copied (%.1f pages/capture)\n",
			s.Snapshots, s.PagesCopied, s.MeanPagesPerSnapshot())
		fmt.Printf("  restores:        %d, %d pages copied back (%.1f pages/restore)\n",
			s.Restores, s.PagesRestored, s.MeanPagesPerRestore())
		fmt.Printf("  delta bytes:     %d (full-image equivalent %d, %.1fx less)\n",
			s.DeltaBytes(), s.FullBytes(),
			float64(s.FullBytes())/float64(max(s.DeltaBytes(), 1)))
	}

	if res.Metrics != nil {
		// Per-mechanism detection counts recomputed from the metrics
		// registry alone — the same numbers as the "detected by" rows
		// above, proving Table 1 is regenerable from exported metrics.
		byMech := res.Metrics.MechanismCounts("campaign.detected_by")
		mechs := make([]string, 0, len(byMech))
		for m := range byMech {
			mechs = append(mechs, m)
		}
		sort.Strings(mechs)
		fmt.Println("\nmechanism coverage (from metrics registry):")
		for _, m := range mechs {
			fmt.Printf("  %-18s %6d\n", m+":", byMech[m])
		}
	}
	if cfg.MetricsOut != "" {
		if err := res.Metrics.WriteMetricsFile(cfg.MetricsOut); err != nil {
			return err
		}
		fmt.Printf("\nwrote metrics to %s\n", cfg.MetricsOut)
	}
	if cfg.TraceOut != "" {
		events := append(append([]obs.Event{}, res.GoldenEvents...), res.Events...)
		if err := obs.WriteEventsFile(cfg.TraceOut, events); err != nil {
			return err
		}
		fmt.Printf("wrote %d events to %s\n", len(events), cfg.TraceOut)
	}
	if cfg.Digest {
		fmt.Printf("\ncampaign digest: %#x\n", res.Digest())
	}

	if cfg.Derive {
		derived, _, err := nlft.DeriveParams(nlft.PaperParams(), w, ccfg)
		if err != nil {
			return err
		}
		fmt.Printf("\nderived parameters: C_D=%.4f P_T=%.4f P_OM=%.4f P_FS=%.4f\n",
			derived.CD, derived.PT, derived.POM, derived.PFS)
		h, err := nlft.ComputeHeadline(derived)
		if err != nil {
			return err
		}
		fmt.Printf("with derived parameters: R(1y) FS %.4f → NLFT %.4f (%+.1f%%), MTTF %.2f y → %.2f y (%+.1f%%)\n",
			h.ROneYearFS, h.ROneYearNLFT, 100*h.RGain,
			h.MTTFYearsFS, h.MTTFYearsNLFT, 100*h.MTTFGain)
	}
	return nil
}
