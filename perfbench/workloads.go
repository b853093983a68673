package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/adapt"
	"repro/internal/des"
	"repro/internal/exhaust"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Op sizes. Each is chosen so one op takes tens of milliseconds on a
// 2-core Xeon, giving a 20 s run several hundred ops (exhaustive, whose
// op is one full verification, gets about fifty).
const (
	defaultSeed     = 1
	sampledTrials   = 2048
	telemetryTrials = 512
	adaptCIWidth    = 0.002 // 2,048 trials in 4 rounds on the gate config
	leaseSize       = 128
	// campaignsPerCoordinator is how many campaigns one coordinator
	// serves before the sharded workload replaces it. A coordinator
	// keeps every campaign it served, and each one makes its later
	// leases and collections slower; without a cap the median op would
	// depend on how many ops the run fitted in.
	campaignsPerCoordinator = 100
	probeTrials             = 512 // trials the traced run drives one by one
	probeReps               = 9   // repetitions of each probed set-up call
)

// gate is the configuration every workload runs on.
var gate = fault.StdWorkloadConfig{ECC: true}

// pinned holds each workload's result digest at the default seed.
// sharded runs sampled's spec, so it must reproduce sampled's digest.
var pinned = map[string]string{
	"sampled":    "0x6cec70cee6f996f3",
	"telemetry":  "0xa60e84ac8924d5a",
	"exhaustive": "fnv1a:c9310924e5a8dda3",
	"adaptive":   "fnv1a:c0184a5dd8bd31a4",
	"sharded":    "0x6cec70cee6f996f3",
}

var workloadNames = []string{"sampled", "telemetry", "exhaustive", "adaptive", "sharded"}

// opResult is what one op reports: the trials it ran and the digest of
// its result.
type opResult struct {
	trials int
	digest string
}

// bench is one workload.
type bench interface {
	// setUp repeats the workload's public set-up call once.
	setUp() error
	// op runs one complete user-visible job, recording spans on tr.
	op(tr *tracer) (opResult, error)
	// reference is the digest every op must reproduce: the pinned value
	// at the default seed, otherwise a cross-engine or first-op value.
	reference() string
	// probe drives the layers below the op one call at a time and
	// returns layer metrics; the checker counts probe records that
	// disagree with the op's own.
	probe(tr *tracer, ck *checker) (map[string]float64, error)
	close()
}

func newBench(name string, seed uint64) (bench, error) {
	w := fault.NewStdWorkload(gate)
	switch name {
	case "sampled", "telemetry":
		cfg := fault.CampaignConfig{Trials: sampledTrials, Seed: seed, Parallelism: 1}
		if name == "telemetry" {
			cfg.Trials, cfg.Telemetry = telemetryTrials, true
		}
		return &campaignBench{name: name, w: w, cfg: cfg}, nil
	case "exhaustive":
		return &exhaustBench{w: w}, nil
	case "adaptive":
		return &adaptBench{w: w, cfg: adapt.Config{Seed: seed, CIWidth: adaptCIWidth, Parallelism: 1}}, nil
	case "sharded":
		return newShardBench(w, seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// pinnedOr returns the pinned digest at the default seed, else fallback.
func pinnedOr(name string, seed uint64, fallback string) string {
	if seed == defaultSeed && pinned[name] != "" {
		return pinned[name]
	}
	return fallback
}

// campaignBench is fault.Run: sampled (telemetry off, convergence
// cutoff on) or telemetry (metrics on, which turns the cutoff off).
type campaignBench struct {
	name  string
	w     fault.Workload
	cfg   fault.CampaignConfig
	first string
	last  *fault.Result
}

func (b *campaignBench) setUp() error {
	_, err := fault.NewForkSession(b.w, 0, b.cfg.Telemetry)
	return err
}

func (b *campaignBench) op(tr *tracer) (opResult, error) {
	sp := tr.begin("fault.Run", -1)
	res, err := fault.Run(b.w, b.cfg)
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	b.last = res
	d := fmt.Sprintf("%#x", res.Digest())
	if b.first == "" {
		b.first = d
	}
	return opResult{trials: len(res.Trials), digest: d}, nil
}

func (b *campaignBench) reference() string { return pinnedOr(b.name, b.cfg.Seed, b.first) }

func (b *campaignBench) probe(tr *tracer, ck *checker) (map[string]float64, error) {
	specs := campaignSpecs(b.w, b.cfg.Seed, probeTrials, true)
	m, err := probeFault(tr, ck, b.w, b.cfg.Telemetry, specs, b.last.Trials)
	if err != nil {
		return nil, err
	}
	if s := b.last.Snapshots; s != nil {
		m["fault.pages_per_restore"] = s.MeanPagesPerRestore()
		m["fault.pages_per_snapshot"] = s.MeanPagesPerSnapshot()
	}
	if reg := b.last.Metrics; reg != nil {
		var merge []float64
		for i := 0; i < probeReps; i++ {
			into := obs.NewRegistry()
			sp := tr.begin("obs.Merge", -1)
			into.Merge(reg)
			tr.end(sp)
			merge = append(merge, float64(tr.spans[sp].dur()))
		}
		m["obs.merge_us"] = median(merge) / 1e3
		m["obs.series"] = float64(len(reg.Snapshot()))
	}
	return m, nil
}

func (b *campaignBench) close() {}

// exhaustBench is exhaust.Verify on the default placement space.
type exhaustBench struct {
	w    fault.Workload
	last *exhaust.Result
}

func (b *exhaustBench) setUp() error {
	var cfg exhaust.Config
	if _, err := exhaust.NewSpace(b.w, &cfg); err != nil {
		return err
	}
	_, err := fault.NewForkSession(b.w, 0, true)
	return err
}

func (b *exhaustBench) op(tr *tracer) (opResult, error) {
	sp := tr.begin("exhaust.Verify", -1)
	res, err := exhaust.Verify(b.w, exhaust.Config{Parallelism: 1})
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	if len(res.Violations) > 0 {
		return opResult{}, fmt.Errorf("exhaustive: %d violations, first %+v", len(res.Violations), res.Violations[0])
	}
	b.last = res
	return opResult{trials: res.Stats.Placements, digest: res.Cert.Digest}, nil
}

// reference is the pinned certificate digest: the space does not depend
// on the seed.
func (b *exhaustBench) reference() string { return pinned["exhaustive"] }

func (b *exhaustBench) probe(tr *tracer, ck *checker) (map[string]float64, error) {
	var space *exhaust.Space
	var spaceNs, certNs []float64
	for i := 0; i < probeReps; i++ {
		var cfg exhaust.Config
		sp := tr.begin("exhaust.NewSpace", -1)
		s, err := exhaust.NewSpace(b.w, &cfg)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		space = s
		spaceNs = append(spaceNs, float64(tr.spans[sp].dur()))
	}
	for i := 0; i < probeReps; i++ {
		sp := tr.begin("exhaust.MarshalCanonical", -1)
		_, err := b.last.Cert.MarshalCanonical()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		certNs = append(certNs, float64(tr.spans[sp].dur()))
	}
	// Probe an evenly strided sample of placements; a placement carries
	// no kernel coin, so its record must equal the verifier's.
	specs := make([]fault.TrialSpec, probeTrials)
	want := make([]fault.TrialRecord, probeTrials)
	for i := range specs {
		idx := i * space.Len() / probeTrials
		specs[i] = fault.TrialSpec{Fault: space.Fault(idx)}
		want[i] = b.last.Records[idx]
	}
	m, err := probeFault(tr, ck, b.w, true, specs, want)
	if err != nil {
		return nil, err
	}
	st := b.last.Stats
	m["exhaust.space_ms"] = median(spaceNs) / 1e6
	m["exhaust.cert_ms"] = median(certNs) / 1e6
	m["exhaust.dedup_hit_frac"] = float64(st.DedupHits) / float64(st.Placements)
	m["exhaust.converged_frac"] = float64(st.ConvergedGolden) / float64(st.Placements)
	m["exhaust.memos"] = float64(st.Memos)
	return m, nil
}

func (b *exhaustBench) close() {}

// adaptBench is adapt.Run to a fixed CI width on P(fail-silent).
type adaptBench struct {
	w     fault.Workload
	cfg   adapt.Config
	first string
	last  *adapt.Result
}

func (b *adaptBench) setUp() error {
	if _, err := fault.ActivityWindows(b.w); err != nil {
		return err
	}
	_, err := fault.NewForkSession(b.w, 0, false)
	return err
}

func (b *adaptBench) op(tr *tracer) (opResult, error) {
	cfg := b.cfg
	sp := tr.begin("adapt.Run", -1)
	round := tr.begin("adapt.round", sp)
	if tr != nil {
		// A round's span runs from the previous barrier to this one.
		cfg.OnRound = func(adapt.RoundInfo) {
			tr.end(round)
			round = tr.begin("adapt.round", sp)
		}
	}
	res, err := adapt.Run(b.w, cfg)
	tr.end(round)
	tr.rename(round, "adapt.finish")
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	b.last = res
	if b.first == "" {
		b.first = res.Digest
	}
	return opResult{trials: res.Trials, digest: res.Digest}, nil
}

func (b *adaptBench) reference() string { return pinnedOr("adaptive", b.cfg.Seed, b.first) }

func (b *adaptBench) probe(tr *tracer, ck *checker) (map[string]float64, error) {
	// Adaptive strata carry the kernel coin analytically, so its trials
	// are coin-free; there is no per-trial record to compare against.
	m, err := probeFault(tr, ck, b.w, false, campaignSpecs(b.w, b.cfg.Seed, probeTrials, false), nil)
	if err != nil {
		return nil, err
	}
	m["adapt.rounds"] = float64(b.last.Rounds)
	m["adapt.strata"] = float64(len(b.last.Strata))
	m["adapt.round_ms_p50"] = median(tr.durations("adapt.round")) / 1e6
	return m, nil
}

func (b *adaptBench) close() {}

// shardBench is a shard.Coordinator served over loopback HTTP, kept for
// campaignsPerCoordinator campaigns, with one shard.Worker per CPU on
// shard.Client. It runs sampled's spec and seed.
type shardBench struct {
	w       fault.Workload
	spec    shard.CampaignSpec
	srv     *server
	client  *shard.Client
	workers []*shard.Worker
	timed   []*timedTransport
	serial  fault.Result
	served  int // campaigns served by srv
}

// server is a coordinator serving its HTTP API on a loopback port.
type server struct {
	http *http.Server
	done chan error
	base string
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	coord := shard.NewCoordinator(shard.CoordinatorOptions{})
	s := &server{http: &http.Server{Handler: coord.Handler()},
		done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its Serve goroutine.
func (s *server) stop() error {
	err := s.http.Shutdown(context.Background())
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

func newShardBench(w fault.Workload, seed uint64) (*shardBench, error) {
	spec := shard.CampaignSpec{Trials: sampledTrials, Seed: seed, ECC: gate.ECC, LeaseSize: leaseSize}
	// The cross-engine reference: a serial fault.Run of the same spec.
	cfg, err := spec.Config(1)
	if err != nil {
		return nil, err
	}
	serial, err := fault.Run(spec.Workload(), cfg)
	if err != nil {
		return nil, err
	}
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	b := &shardBench{w: w, spec: spec, srv: srv, serial: *serial,
		client: &shard.Client{Base: srv.base}}
	for i := 0; i < runtime.NumCPU(); i++ {
		t := &timedTransport{inner: b.client}
		b.timed = append(b.timed, t)
		b.workers = append(b.workers, &shard.Worker{Transport: b.client, Name: fmt.Sprint("w", i), Parallelism: 1})
	}
	return b, nil
}

// setUp starts a coordinator on loopback, submits the campaign (its
// golden run), captures a worker's fork checkpoints, and stops it.
func (b *shardBench) setUp() error {
	srv, err := startServer()
	if err != nil {
		return err
	}
	_, err = (&shard.Client{Base: srv.base}).Submit(b.spec)
	if err == nil {
		_, err = fault.NewForkSession(b.w, 0, false)
	}
	return errors.Join(err, srv.stop())
}

func (b *shardBench) op(tr *tracer) (opResult, error) {
	if b.served == campaignsPerCoordinator {
		if err := b.srv.stop(); err != nil {
			return opResult{}, err
		}
		srv, err := startServer()
		if err != nil {
			return opResult{}, err
		}
		b.srv, b.client.Base, b.served = srv, srv.base, 0
	}
	b.served++
	root := tr.begin("shard.campaign", -1)
	defer tr.end(root)
	sp := tr.begin("shard.Submit", root)
	id, err := b.client.Submit(b.spec)
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	errs := make([]error, len(b.workers))
	var wg sync.WaitGroup
	for i, wk := range b.workers {
		wk.Transport = b.client
		if tr != nil {
			b.timed[i].tr = tr
			wk.Transport = b.timed[i]
		}
		wg.Add(1)
		go func(i int, wk *shard.Worker) {
			defer wg.Done()
			for {
				// RunOne spans are roots: the workers' spans overlap.
				sp := tr.begin("shard.RunOne", -1)
				if tr != nil {
					b.timed[i].parent = sp
				}
				ok, err := wk.RunOne()
				tr.end(sp)
				if err != nil || !ok {
					tr.rename(sp, "shard.idle")
					errs[i] = err
					return
				}
			}
		}(i, wk)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return opResult{}, err
	}
	sp = tr.begin("shard.Summary", root)
	sum, err := b.client.Summary(id)
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	return opResult{trials: sum.Trials, digest: sum.Digest}, nil
}

// reference is the serial engine's digest of the same spec, which at
// the default seed must also equal the pinned one.
func (b *shardBench) reference() string {
	serial := fmt.Sprintf("%#x", b.serial.Digest())
	if p := pinnedOr("sharded", b.spec.Seed, serial); p != serial {
		return "serial " + serial + " != pinned " + p
	}
	return serial
}

func (b *shardBench) probe(tr *tracer, ck *checker) (map[string]float64, error) {
	specs := campaignSpecs(b.w, b.spec.Seed, probeTrials, true)
	m, err := probeFault(tr, ck, b.w, false, specs, b.serial.Trials)
	if err != nil {
		return nil, err
	}
	var bytes, trials, beats int64
	for _, t := range b.timed {
		bytes += t.bytes.Load()
		trials += t.trials.Load()
		beats += t.heartbeats.Load()
	}
	m["shard.lease_us"] = median(tr.durations("shard.Lease")) / 1e3
	m["shard.complete_us"] = median(tr.durations("shard.Complete")) / 1e3
	m["shard.run_ms_per_lease"] = median(tr.selfOf("shard.RunOne")) / 1e6
	m["shard.heartbeats"] = float64(beats)
	if trials > 0 {
		m["shard.frame_bytes_per_trial"] = float64(bytes) / float64(trials)
	}
	return m, nil
}

func (b *shardBench) close() { _ = b.srv.stop() } // the run is over; a shutdown error changes nothing

// timedTransport is a shard.Transport that records a span around each
// call into the coordinator's client and counts completion-frame bytes.
// Each worker owns one, so parent is the worker's current RunOne span.
type timedTransport struct {
	inner      shard.Transport
	tr         *tracer
	parent     int
	bytes      atomic.Int64
	trials     atomic.Int64
	heartbeats atomic.Int64
}

func (t *timedTransport) Lease(worker string) (*shard.Lease, error) {
	sp := t.tr.begin("shard.Lease", t.parent)
	l, err := t.inner.Lease(worker)
	t.tr.end(sp)
	if l != nil {
		t.trials.Add(int64(l.Hi - l.Lo))
	}
	return l, err
}

func (t *timedTransport) Heartbeat(leaseID string) error {
	t.heartbeats.Add(1)
	return t.inner.Heartbeat(leaseID)
}

func (t *timedTransport) Complete(leaseID string, body io.Reader) error {
	sp := t.tr.begin("shard.Complete", t.parent)
	err := t.inner.Complete(leaseID, &countingReader{r: body, n: &t.bytes})
	t.tr.end(sp)
	return err
}

type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// campaignSpecs replays fault.Run's per-trial draws — instant, target,
// locus, then the kernel-hit and kernel-detect coins on the trial's
// (seed, index) stream — for the first n trials, so the probe drives
// the very trials the campaign ran. coins=false drops the coins, as the
// adaptive engine does.
func campaignSpecs(w fault.Workload, seed uint64, n int, coins bool) []fault.TrialSpec {
	targets := fault.AllTargets()
	start, end := w.InjectionWindow()
	specs := make([]fault.TrialSpec, n)
	for i := range specs {
		rng := des.NewRandIndexed(seed, uint64(i))
		at := start + des.Time(rng.Intn(int(end-start)))
		target := targets[rng.Intn(len(targets))]
		specs[i].Fault = fault.DrawFaultAt(w, target, at, rng)
		if coins {
			specs[i].KernelHit = rng.Bool(0.05)
			specs[i].KernelDetected = specs[i].KernelHit && rng.Bool(0.98)
		}
	}
	return specs
}

// probeFault times the fork engine's set-up and per-trial calls on a
// fresh ForkSession: GoldenWrites and NewForkSession, then for each
// spec an explicit Restore to the trial's checkpoint, a Digest, and the
// RunTrial itself, reading des event and kernel cycle counters around
// the trial. withEvents attaches a collector, which turns the
// convergence cutoff off, as telemetry does. When want is non-nil each
// probe record must equal want[i].
func probeFault(tr *tracer, ck *checker, w fault.Workload, withEvents bool, specs []fault.TrialSpec, want []fault.TrialRecord) (map[string]float64, error) {
	var goldenNs, sessNs []float64
	var s *fault.ForkSession
	for i := 0; i < probeReps; i++ {
		sp := tr.begin("fault.GoldenWrites", -1)
		_, err := fault.GoldenWrites(w)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		goldenNs = append(goldenNs, float64(tr.spans[sp].dur()))
		sp = tr.begin("fault.NewForkSession", -1)
		s, err = fault.NewForkSession(w, 0, withEvents)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sessNs = append(sessNs, float64(tr.spans[sp].dur()))
	}
	var trialNs, restoreNs, digestNs []float64
	var events, cycles uint64
	for i, spec := range specs {
		k := s.Select(spec.Fault.At)
		sp := tr.begin("fault.Restore", -1)
		s.Restore(k)
		tr.end(sp)
		restoreNs = append(restoreNs, float64(tr.spans[sp].dur()))
		sp = tr.begin("fault.Digest", -1)
		s.Digest()
		tr.end(sp)
		digestNs = append(digestNs, float64(tr.spans[sp].dur()))

		fired, st := s.Inst.Sim.Fired(), s.Inst.Kernel.Stats()
		sp = tr.begin("fault.RunTrial", -1)
		rec, err := s.RunTrial(spec)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		trialNs = append(trialNs, float64(tr.spans[sp].dur()))
		st2 := s.Inst.Kernel.Stats()
		events += s.Inst.Sim.Fired() - fired
		cycles += st2.KernelCycles + st2.TaskCycles - st.KernelCycles - st.TaskCycles
		if want != nil {
			ck.check("probe record", recordKey(rec), recordKey(want[i]), nil)
		}
	}
	n := float64(len(specs))
	return map[string]float64{
		"fault.golden_ms":          median(goldenNs) / 1e6,
		"fault.capture_ms":         (median(sessNs) - median(goldenNs)) / 1e6,
		"fault.checkpoints":        float64(s.Checkpoints()),
		"fault.trial_us":           median(trialNs) / 1e3,
		"fault.restore_us":         median(restoreNs) / 1e3,
		"fault.digest_ns":          median(digestNs),
		"des.events_per_trial":     float64(events) / n,
		"des.ns_per_event":         sum(trialNs) / float64(events),
		"kernel.cycles_per_trial":  float64(cycles) / n,
		"fault.pages_per_restore":  0,
		"fault.pages_per_snapshot": 0,
	}, nil
}

// recordKey renders a trial record for comparison (Mechanisms is a slice).
func recordKey(r fault.TrialRecord) string {
	return fmt.Sprintf("%+v %v %v %v", r.Fault, r.Kernel, r.Outcome, r.Mechanisms)
}
