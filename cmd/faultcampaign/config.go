package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/shard"
)

// duration is a time.Duration that flags parse as "250us"/"30s" and
// JSON round-trips as the same string form (a bare number is accepted
// as nanoseconds when loading).
type duration time.Duration

func (d *duration) Set(s string) error {
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = duration(v)
	return nil
}

func (d *duration) String() string { return time.Duration(*d).String() }

func (d duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		return d.Set(s)
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("duration: want %q or nanoseconds, got %s", "250us", b)
	}
	*d = duration(ns)
	return nil
}

// cliConfig is every faultcampaign knob as one validated struct. The
// zero-and-default state is what `faultcampaign` with no flags runs;
// -dump-config emits it as JSON and -config loads that JSON back (with
// explicit command-line flags still overriding the file). Validation
// rejects flag combinations that would otherwise be silently ignored.
type cliConfig struct {
	// Mode selection: at most one may be set. All empty = run the
	// campaign locally in this process.
	Serve  string `json:"serve,omitempty"`  // listen address for the coordinator API
	Worker string `json:"worker,omitempty"` // coordinator URL to lease trial ranges from
	Submit string `json:"submit,omitempty"` // coordinator URL to submit the campaign to

	// Sharding knobs.
	Name      string   `json:"name,omitempty"`       // worker name in coordinator diagnostics
	Poll      duration `json:"poll,omitempty"`       // worker/submit idle poll interval
	LeaseTTL  duration `json:"lease_ttl,omitempty"`  // coordinator lease time-to-live
	LeaseSize int      `json:"lease_size,omitempty"` // trials per lease for -submit

	// Campaign parameters.
	Trials   int    `json:"trials"`
	Seed     uint64 `json:"seed"`
	ECC      bool   `json:"ecc"`
	Compute  int    `json:"compute"`
	Targets  string `json:"targets,omitempty"`
	Parallel int    `json:"parallel,omitempty"`

	// Engine shape.
	SnapshotInterval duration `json:"snapshot_interval,omitempty"`
	SnapshotStats    bool     `json:"snapshot_stats,omitempty"`

	// Output.
	Derive     bool   `json:"derive,omitempty"`
	Digest     bool   `json:"digest,omitempty"`
	Progress   bool   `json:"progress,omitempty"`
	MetricsOut string `json:"metrics_out,omitempty"`
	TraceOut   string `json:"trace_out,omitempty"`

	// Adaptive stratified sampling.
	Adaptive  bool    `json:"adaptive,omitempty"`
	Strata    int     `json:"strata,omitempty"`
	CIWidth   float64 `json:"ci_width,omitempty"`
	CIOutcome string  `json:"ci_outcome,omitempty"`
	MaxTrials int     `json:"max_trials,omitempty"`

	// Meta (never serialized).
	Config     string `json:"-"`
	DumpConfig bool   `json:"-"`
	CPUProfile string `json:"-"`
	MemProfile string `json:"-"`
}

// defaultConfig is the no-flags configuration.
func defaultConfig() *cliConfig {
	return &cliConfig{
		Trials:    1000,
		Seed:      1,
		ECC:       true,
		Compute:   64,
		Poll:      duration(shard.DefaultPoll),
		LeaseTTL:  duration(shard.DefaultLeaseTTL),
		CIOutcome: "fail-silent",
	}
}

// register binds every field to its flag on fs, so a file-loaded
// config can be re-parsed with the command line taking precedence.
func (c *cliConfig) register(fs *flag.FlagSet) {
	fs.StringVar(&c.Serve, "serve", c.Serve, "run a campaign coordinator listening on this address (e.g. 127.0.0.1:8080)")
	fs.StringVar(&c.Worker, "worker", c.Worker, "run a campaign worker leasing trial ranges from this coordinator URL")
	fs.StringVar(&c.Submit, "submit", c.Submit, "submit the campaign to this coordinator URL, poll, and print the summary")
	fs.StringVar(&c.Name, "name", c.Name, "worker name reported to the coordinator (default host-pid)")
	fs.Var(&c.Poll, "poll", "idle poll interval for -worker and -submit")
	fs.Var(&c.LeaseTTL, "lease-ttl", "lease time-to-live for -serve; a silent worker's range is re-leased after this")
	fs.IntVar(&c.LeaseSize, "lease-size", c.LeaseSize, "trials per lease for -submit (0 = coordinator default)")

	fs.IntVar(&c.Trials, "trials", c.Trials, "number of injection runs")
	fs.Uint64Var(&c.Seed, "seed", c.Seed, "campaign RNG seed")
	fs.BoolVar(&c.ECC, "ecc", c.ECC, "enable the memory ECC model (the paper's assumption)")
	fs.IntVar(&c.Compute, "compute", c.Compute, "workload inner-loop iterations (duty cycle)")
	fs.StringVar(&c.Targets, "targets", c.Targets, "comma-separated fault targets: register,pc,sp,alu,mem-data,mem-code (default all)")
	fs.IntVar(&c.Parallel, "parallel", c.Parallel, "worker goroutines for the campaign (0 = GOMAXPROCS); results are identical for any value")

	fs.Var(&c.SnapshotInterval, "snapshot-interval", "fork checkpoint spacing (0 = default 250µs, or the workload's hint when finer)")
	fs.BoolVar(&c.SnapshotStats, "snapshot-stats", c.SnapshotStats, "report the fork engine's checkpoint-store traffic (delta vs full-image bytes, pages copied/restored)")

	fs.BoolVar(&c.Derive, "derive", c.Derive, "also derive model parameters and print the headline comparison")
	fs.BoolVar(&c.Digest, "digest", c.Digest, "print the campaign result digest (bit-identical across -parallel values and sharded runs)")
	fs.BoolVar(&c.Progress, "progress", c.Progress, "report live trial progress on stderr")
	fs.StringVar(&c.MetricsOut, "metrics-out", c.MetricsOut, "export the merged metrics registry (JSON, or CSV if the name ends in .csv)")
	fs.StringVar(&c.TraceOut, "trace-out", c.TraceOut, "export the merged per-trial event stream as JSONL (trial 0 = golden run)")

	fs.BoolVar(&c.Adaptive, "adaptive", c.Adaptive, "use the adaptive stratified sampling engine: Neyman allocation over (target × time) strata with importance splitting (see -max-trials, -ci-width)")
	fs.IntVar(&c.Strata, "strata", c.Strata, "base time buckets per target for -adaptive (0 = default 4); splitting refines below this grid")
	fs.Float64Var(&c.CIWidth, "ci-width", c.CIWidth, "stop an -adaptive campaign once the 95% CI for -ci-outcome is narrower than this full width (0 = run to -max-trials)")
	fs.StringVar(&c.CIOutcome, "ci-outcome", c.CIOutcome, "outcome whose estimate drives -ci-width and the adaptive allocation")
	fs.IntVar(&c.MaxTrials, "max-trials", c.MaxTrials, "sampled-trial cap for -adaptive (0 = default 100000)")

	fs.StringVar(&c.Config, "config", c.Config, "load configuration from this JSON file (-dump-config emits the format); explicit flags override it")
	fs.BoolVar(&c.DumpConfig, "dump-config", c.DumpConfig, "print the resolved configuration as JSON and exit")
	fs.StringVar(&c.CPUProfile, "cpuprofile", c.CPUProfile, "write a CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", c.MemProfile, "write an allocation profile to this file on exit")
}

// loadFile overlays a -dump-config JSON file onto c.
func (c *cliConfig) loadFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(c); err != nil {
		return fmt.Errorf("config %s: %w", path, err)
	}
	return nil
}

// dump renders the resolved configuration as round-trippable JSON.
func (c *cliConfig) dump() ([]byte, error) {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// parseFlags parses args into a config. When -config names a file, the
// file supplies the defaults and explicitly passed flags override it.
// The returned set records which flags appeared on the command line.
func parseFlags(args []string) (*cliConfig, map[string]bool, error) {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("faultcampaign", flag.ContinueOnError)
	cfg.register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if cfg.Config != "" {
		base := defaultConfig()
		if err := base.loadFile(cfg.Config); err != nil {
			return nil, nil, err
		}
		fs = flag.NewFlagSet("faultcampaign", flag.ContinueOnError)
		base.register(fs)
		if err := fs.Parse(args); err != nil {
			return nil, nil, err
		}
		cfg = base
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return cfg, set, nil
}

// metaFlags are valid in every mode.
var metaFlags = map[string]bool{
	"config": true, "dump-config": true, "cpuprofile": true, "memprofile": true,
}

// modeFlags lists the flags each non-local mode accepts; anything else
// explicitly passed is a conflict, not a silent no-op.
var modeFlags = map[string]map[string]bool{
	"serve": {"serve": true, "lease-ttl": true, "progress": true},
	"worker": {
		"worker": true, "name": true, "parallel": true, "poll": true, "progress": true,
	},
	"submit": {
		"submit": true, "poll": true, "progress": true, "digest": true,
		"trials": true, "seed": true, "ecc": true, "compute": true, "targets": true,
		"lease-size": true, "snapshot-interval": true,
	},
}

// localOnlyOff are the sharding flags meaningless without a mode.
var localOnlyOff = []string{"name", "poll", "lease-ttl", "lease-size"}

// mode names the selected operating mode.
func (c *cliConfig) mode() string {
	switch {
	case c.Serve != "":
		return "serve"
	case c.Worker != "":
		return "worker"
	case c.Submit != "":
		return "submit"
	}
	return "local"
}

// Validate rejects contradictory flag combinations. set holds the flag
// names explicitly passed on the command line.
func (c *cliConfig) Validate(set map[string]bool) error {
	modes := 0
	for _, s := range []string{c.Serve, c.Worker, c.Submit} {
		if s != "" {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("choose at most one of -serve, -worker, -submit")
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)

	mode := c.mode()
	if allowed, ok := modeFlags[mode]; ok {
		for _, name := range names {
			if !allowed[name] && !metaFlags[name] {
				return fmt.Errorf("-%s is not valid in -%s mode", name, mode)
			}
		}
		if mode == "submit" {
			spec, err := c.spec()
			if err != nil {
				return err
			}
			return spec.Validate()
		}
		return nil
	}

	for _, name := range localOnlyOff {
		if set[name] {
			return fmt.Errorf("-%s requires -serve, -worker or -submit", name)
		}
	}
	if c.Adaptive {
		for _, name := range []string{"trials", "digest", "derive",
			"metrics-out", "trace-out", "snapshot-stats"} {
			if set[name] {
				return fmt.Errorf("-%s conflicts with -adaptive", name)
			}
		}
	} else {
		for _, name := range []string{"strata", "ci-width", "ci-outcome", "max-trials"} {
			if set[name] {
				return fmt.Errorf("-%s requires -adaptive", name)
			}
		}
	}
	if c.Trials < 1 && !c.Adaptive {
		return fmt.Errorf("-trials must be >= 1 (got %d)", c.Trials)
	}
	return nil
}

// spec translates the config into the campaign submission wire form.
func (c *cliConfig) spec() (shard.CampaignSpec, error) {
	ts, err := fault.ParseTargets(c.Targets)
	if err != nil {
		return shard.CampaignSpec{}, err
	}
	var targets []string
	for _, t := range ts {
		targets = append(targets, t.String())
	}
	spec := shard.CampaignSpec{
		Trials:             c.Trials,
		Seed:               c.Seed,
		ECC:                c.ECC,
		Compute:            c.Compute,
		Targets:            targets,
		SnapshotIntervalNs: int64(c.SnapshotInterval),
		LeaseSize:          c.LeaseSize,
	}
	return spec, nil
}

// workerName is the -name default: host-pid.
func workerName(explicit string) string {
	if explicit != "" {
		return explicit
	}
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return host + "-" + strconv.Itoa(os.Getpid())
}
