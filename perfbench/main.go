// Command perfbench is the repository's campaign benchmark. It runs one
// workload of the fault-injection stack on the gate configuration
// (fault.NewStdWorkload with ECC on), checks every op's result digest,
// and prints its metrics, one per line with unit and sample count,
// then as one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload sampled --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 is the separate
// traced run: it alternates untraced and traced ops to price the
// tracing, then drives each layer's public calls one at a time and
// prints the per-layer metrics; spans are written to --spans at exit.
// README.md gives the workloads and the layer→metric→workload map.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Set-up timing: between ops, a workload repeats its set-up call until
// set-up has taken setupShare of the run, at least setupMinReps times,
// and reports the median. One call takes well under a millisecond, far
// too short to time once, and the host's speed drifts over seconds, so
// the repetitions are spread over the whole run.
const (
	setupShare   = 0.15
	setupMinReps = 31
	minOps       = 7 // lower bound on timed ops, for slow workloads
	p90MinOps    = 100
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker counts checked results; a result that errored or whose
// digest differs from the reference is a failed op.
type checker struct {
	attempted, failed int
}

func (c *checker) check(what, got, want string, err error) {
	c.attempted++
	switch {
	case err != nil:
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	case got != want:
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: got %s, want %s\n", what, got, want)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "sampled", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed (the campaign seed)")
	seconds := flag.Int("seconds", 20, "measured run length in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	spans := flag.String("spans", "", "directory the traced run writes its spans to (empty: not written)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0|1")
	}
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s cpu=%q seed=%d workload=%s trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), *seed, *workload, *trace)

	b, err := newBench(*workload, *seed)
	if err != nil {
		return err
	}
	defer b.close()
	var ck checker
	// The first op warms caches and fixes the reference digest of a
	// non-default seed.
	first, err := b.op(nil)
	want := b.reference()
	ck.check("op 0", first.digest, want, err)
	if err != nil {
		return err
	}
	fmt.Printf("digest %s (reference %s)\n", first.digest, want)

	var m map[string]metric
	if *trace == 0 {
		m, err = measure(b, &ck, want, time.Duration(*seconds)*time.Second)
	} else {
		m, err = traced(b, &ck, want, time.Duration(*seconds)*time.Second, *spans, *workload, *seed)
	}
	if err != nil {
		return err
	}
	res := result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: m}
	fmt.Printf("metric op_fail_frac %.6f ratio (ops=%d)\n", float64(ck.failed)/float64(ck.attempted), ck.attempted)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%d of %d checked results were wrong", ck.failed, ck.attempted)
	}
	return nil
}

// measure is the untraced run: ops for d, with set-up repetitions
// interleaved between them so both medians see the same host conditions.
func measure(b bench, ck *checker, want string, d time.Duration) (map[string]metric, error) {
	if err := b.setUp(); err != nil { // warm the set-up path once
		return nil, err
	}
	var ms, setup, rss []float64
	var setupTime time.Duration
	trials := 0
	for start := time.Now(); time.Since(start) < d || len(ms) < minOps || len(setup) < setupMinReps; {
		resetPeakRSS()
		t0 := time.Now()
		r, err := b.op(nil)
		dt := time.Since(t0)
		rss = append(rss, peakRSS())
		ck.check(fmt.Sprintf("op %d", len(ms)+1), r.digest, want, err)
		if err != nil {
			return nil, err
		}
		ms = append(ms, float64(dt)/1e6)
		if trials != 0 && r.trials != trials {
			return nil, fmt.Errorf("op %d ran %d trials, op 1 ran %d", len(ms), r.trials, trials)
		}
		trials = r.trials
		for setupTime < time.Duration(setupShare*float64(time.Since(start))) {
			t0 := time.Now()
			err := b.setUp()
			dt := time.Since(t0)
			if err != nil {
				return nil, err
			}
			setupTime += dt
			setup = append(setup, dt.Seconds())
		}
	}
	p50 := median(ms)
	m := map[string]metric{
		"trials_per_s":  {float64(trials) / (p50 / 1e3), "trials/s"},
		"op_ms_p50":     {p50, "ms"},
		"setup_s":       {median(setup), "s"},
		"peak_rss_mb":   {median(rss), "MiB"},
		"trials_per_op": {float64(trials), "trials"},
	}
	for _, k := range []string{"trials_per_s", "op_ms_p50", "trials_per_op", "peak_rss_mb"} {
		fmt.Printf("metric %s %.6g %s (ops=%d)\n", k, m[k].Value, m[k].Unit, len(ms))
	}
	fmt.Printf("metric setup_s %.6g s (reps=%d)\n", m["setup_s"].Value, len(setup))
	fmt.Printf("metric peak_rss_max_mb %.6g MiB (ops=%d)\n", quantile(rss, 1), len(rss))
	// p90 only where at least ten ops lie beyond it.
	if len(ms) >= p90MinOps {
		fmt.Printf("metric op_ms_p90 %.6g ms (ops=%d)\n", quantile(ms, 0.9), len(ms))
	} else {
		fmt.Printf("metric op_ms_p90 omitted (ops=%d < %d)\n", len(ms), p90MinOps)
	}
	return m, nil
}

// traced is the per-layer run. Its first half alternates untraced and
// traced ops, so both see the same host conditions, and prices the
// tracing; the layer probe follows. End-to-end metrics are not taken
// from this run.
func traced(b bench, ck *checker, want string, d time.Duration, dir, name string, seed uint64) (map[string]metric, error) {
	tr := newTracer()
	var plain, withTrace []float64
	for start := time.Now(); time.Since(start) < d/2 || len(withTrace) < minOps; {
		for _, t := range []*tracer{nil, tr} {
			if t != nil {
				t.setOp(len(withTrace))
			}
			t0 := time.Now()
			r, err := b.op(t)
			dt := float64(time.Since(t0)) / 1e6
			ck.check("traced op", r.digest, want, err)
			if err != nil {
				return nil, err
			}
			if t == nil {
				plain = append(plain, dt)
			} else {
				withTrace = append(withTrace, dt)
			}
		}
	}
	tr.setOp(-1)
	lm, err := b.probe(tr, ck)
	if err != nil {
		return nil, err
	}
	lm["trace.overhead_frac"] = median(withTrace)/median(plain) - 1
	tr.printSummary(len(withTrace))
	fmt.Printf("traced ops=%d untraced ops=%d spans=%d\n", len(withTrace), len(plain), len(tr.spans))

	m := map[string]metric{}
	for _, k := range layerMetrics {
		v, ok := lm[k.name]
		if !ok {
			v = 0 // the workload does not call into this layer
		}
		m[k.name] = metric{v, k.unit}
		fmt.Printf("layer %s %.6g %s\n", k.name, v, k.unit)
	}
	if dir != "" {
		path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	return m, nil
}

// layerMetrics is the traced run's output, in BENCHMARK.json order.
var layerMetrics = []struct{ name, unit string }{
	{"fault.golden_ms", "ms"},
	{"fault.capture_ms", "ms"},
	{"fault.checkpoints", "count"},
	{"fault.trial_us", "us"},
	{"fault.restore_us", "us"},
	{"fault.pages_per_restore", "pages"},
	{"fault.pages_per_snapshot", "pages"},
	{"fault.digest_ns", "ns"},
	{"des.events_per_trial", "events"},
	{"des.ns_per_event", "ns"},
	{"kernel.cycles_per_trial", "cycles"},
	{"obs.merge_us", "us"},
	{"obs.series", "count"},
	{"exhaust.space_ms", "ms"},
	{"exhaust.dedup_hit_frac", "ratio"},
	{"exhaust.converged_frac", "ratio"},
	{"exhaust.memos", "count"},
	{"exhaust.cert_ms", "ms"},
	{"adapt.rounds", "count"},
	{"adapt.round_ms_p50", "ms"},
	{"adapt.strata", "count"},
	{"shard.lease_us", "us"},
	{"shard.complete_us", "us"},
	{"shard.frame_bytes_per_trial", "bytes"},
	{"shard.heartbeats", "count"},
	{"shard.run_ms_per_lease", "ms"},
	{"trace.overhead_frac", "ratio"},
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linearly interpolated q-quantile of v (0 when empty).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// resetPeakRSS lowers the resident-set high-water mark to the current
// resident set (Linux clear_refs "5"), so the next peakRSS reads the
// peak of what ran in between. Where that is not supported the mark
// stays cumulative.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	defer f.Close()
	_, _ = f.WriteString("5") // a failed reset leaves the mark cumulative, as above
}

// peakRSS is the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSS() float64 {
	kb, _ := procField("/proc/self/status", "VmHWM:")
	v, _ := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64)
	return v / 1024
}

// cpuModel names the processor for the host line.
func cpuModel() string {
	m, err := procField("/proc/cpuinfo", "model name")
	if err != nil {
		return "unknown"
	}
	return strings.TrimPrefix(m, ": ")
}

// procField returns the trimmed rest of the first line of a /proc file
// that starts with key.
func procField(path, key string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", errors.Join(sc.Err(), fmt.Errorf("%s: no %q line", path, key))
}
