package node

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/kernel"
	"repro/internal/ttnet"
)

func paperRates() Rates {
	p := core.PaperParams()
	return Rates{
		LambdaP: p.LambdaP, LambdaT: p.LambdaT, CD: p.CD,
		PT: p.PT, POM: p.POM, PFS: p.PFS, MuR: p.MuR, MuOM: p.MuOM,
	}
}

func TestRatesValidate(t *testing.T) {
	if err := paperRates().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := paperRates()
	bad.PT = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("broken probability budget accepted")
	}
	bad = paperRates()
	bad.MuR = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero repair rate accepted")
	}
}

func TestBehavioralFSTransient(t *testing.T) {
	sim := des.New()
	r := paperRates()
	r.LambdaP = 0
	r.LambdaT = 1000 // ~one fault per 3.6 s of simulated time
	r.CD = 1
	n, err := NewBehavioral(sim, des.NewRand(1), "n", FSBehavior, r)
	if err != nil {
		t.Fatal(err)
	}
	var transitions []State
	n.OnChange = func(_ *BehavioralNode, from, to State) { transitions = append(transitions, to) }
	if err := sim.RunUntil(des.Hour / 100); err != nil {
		t.Fatal(err)
	}
	if len(transitions) < 2 {
		t.Fatalf("transitions = %v", transitions)
	}
	// FS nodes only alternate RestartDown <-> Working.
	for _, s := range transitions {
		if s != RestartDown && s != Working {
			t.Errorf("unexpected state %v for FS node", s)
		}
	}
	if n.Masked() != 0 {
		t.Error("FS node masked transients")
	}
}

func TestBehavioralNLFTMasksMostTransients(t *testing.T) {
	sim := des.New()
	r := paperRates()
	r.LambdaP = 0
	r.LambdaT = 1000
	r.CD = 1 // avoid the absorbing Uncovered state cutting the sample
	n, err := NewBehavioral(sim, des.NewRand(2), "n", NLFTBehavior, r)
	if err != nil {
		t.Fatal(err)
	}
	downs := 0
	n.OnChange = func(_ *BehavioralNode, from, to State) {
		if to == RestartDown || to == OmissionDown {
			downs++
		}
	}
	if err := sim.RunUntil(des.Hour); err != nil {
		t.Fatal(err)
	}
	masked := int(n.Masked())
	total := masked + downs
	if total < 300 {
		t.Fatalf("too few activated transients: %d", total)
	}
	frac := float64(masked) / float64(total)
	// With C_D = 1, the masked fraction estimates P_T = 0.9.
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("masked fraction = %v, want ≈0.9", frac)
	}
}

func TestBehavioralPermanentIsAbsorbing(t *testing.T) {
	sim := des.New()
	r := paperRates()
	r.LambdaT = 0
	r.LambdaP = 10000
	r.CD = 1
	n, err := NewBehavioral(sim, des.NewRand(3), "n", FSBehavior, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(des.Hour); err != nil {
		t.Fatal(err)
	}
	if n.State() != PermanentDown {
		t.Fatalf("state = %v", n.State())
	}
}

func TestBehavioralUncovered(t *testing.T) {
	sim := des.New()
	r := paperRates()
	r.LambdaT = 10000
	r.LambdaP = 0
	r.CD = 0 // nothing detected
	n, err := NewBehavioral(sim, des.NewRand(4), "n", NLFTBehavior, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(des.Hour); err != nil {
		t.Fatal(err)
	}
	if n.State() != Uncovered {
		t.Fatalf("state = %v", n.State())
	}
}

func TestClusterModeValidation(t *testing.T) {
	sim := des.New()
	if _, err := NewBBWCluster(sim, des.NewRand(1), NLFTBehavior, ClusterMode(9), paperRates()); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := NewBehavioral(sim, des.NewRand(1), "x", Behavior(9), paperRates()); err == nil {
		t.Error("bad behavior accepted")
	}
}

// TestMonteCarloMatchesMarkovDegraded is the model-validation test: the
// independent behavioural simulation must agree with the analytic CTMC
// composition (Figure 12) for both node types in degraded mode.
func TestMonteCarloMatchesMarkovDegraded(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo validation skipped in -short")
	}
	p := core.PaperParams()
	const trials = 3000
	for _, tc := range []struct {
		behavior Behavior
		nodeType core.NodeType
	}{
		{FSBehavior, core.FS},
		{NLFTBehavior, core.NLFT},
	} {
		want, err := core.SystemReliability(p, tc.nodeType, core.Degraded, core.HoursPerYear)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MonteCarloBBW(trials, core.HoursPerYear, tc.behavior, DegradedMode, paperRates(), 99)
		if err != nil {
			t.Fatal(err)
		}
		// Allow the Wilson interval plus modelling slack (the behavioural
		// simulation includes second-order effects the CTMC truncates).
		slack := 0.03
		if want < got.R.Lo-slack || want > got.R.Hi+slack {
			t.Errorf("%v: analytic %v outside MC [%v, %v] (±%v)",
				tc.behavior, want, got.R.Lo, got.R.Hi, slack)
		}
		if tc.behavior == NLFTBehavior && got.MaskedTotal == 0 {
			t.Error("NLFT Monte-Carlo masked nothing")
		}
	}
}

// TestMonteCarloMatchesMarkovFull validates the full-functionality mode.
func TestMonteCarloMatchesMarkovFull(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo validation skipped in -short")
	}
	p := core.PaperParams()
	// Shorter horizon: full mode decays fast at one year.
	const horizon = 1000.0
	const trials = 3000
	for _, tc := range []struct {
		behavior Behavior
		nodeType core.NodeType
	}{
		{FSBehavior, core.FS},
		{NLFTBehavior, core.NLFT},
	} {
		want, err := core.SystemReliability(p, tc.nodeType, core.Full, horizon)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MonteCarloBBW(trials, horizon, tc.behavior, FullMode, paperRates(), 7)
		if err != nil {
			t.Fatal(err)
		}
		slack := 0.03
		if want < got.R.Lo-slack || want > got.R.Hi+slack {
			t.Errorf("%v full: analytic %v outside MC [%v, %v]",
				tc.behavior, want, got.R.Lo, got.R.Hi)
		}
	}
}

func TestMonteCarloValidation(t *testing.T) {
	if _, err := MonteCarloBBW(0, 1, FSBehavior, FullMode, paperRates(), 1); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := MonteCarloBBW(1, -1, FSBehavior, FullMode, paperRates(), 1); err == nil {
		t.Error("negative horizon accepted")
	}
}

// --- Hosted node tests ---

const senderSrc = `
	.org 0x0000
start:
	li r1, 0xFFFF0000
	ld r2, [r1+0]       ; local sensor
	movi r3, 2
	mul r2, r2, r3
	st r2, [r1+4]       ; tx port 1
	sys 2
`

const receiverSrc = `
	.org 0x0000
start:
	li r1, 0xFFFF0000
	ld r2, [r1+0]       ; rx port 0 (from sender via bus)
	addi r2, r2, 1
	st r2, [r1+4]       ; local actuator on port 1
	sys 2
`

func hostedFactory(src string) func(sim *des.Simulator, env kernel.Env) (*kernel.Kernel, error) {
	prog := cpu.MustAssemble(src)
	return func(sim *des.Simulator, env kernel.Env) (*kernel.Kernel, error) {
		k := kernel.New(sim, env, kernel.Config{})
		spec := kernel.TaskSpec{
			Name: "app", Program: prog, Entry: "start",
			Period: des.Millisecond, Deadline: des.Millisecond,
			Priority: 5, Criticality: kernel.Critical,
			Budget:      des.Millisecond / 4,
			InputPorts:  []uint32{0},
			OutputPorts: []uint32{1},
			StackStart:  0xC000, StackWords: 64,
		}
		if err := k.AddTask(spec); err != nil {
			return nil, err
		}
		return k, nil
	}
}

// buildPair wires sender → bus → receiver.
func buildPair(t *testing.T) (*des.Simulator, *ttnet.Bus, *HostedNode, *HostedNode) {
	t.Helper()
	sim := des.New()
	bus, err := ttnet.NewBus(sim, ttnet.Config{StaticSlots: 2, SlotLen: des.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := NewHosted(sim, bus, HostedConfig{
		Name:        "sender",
		BuildKernel: hostedFactory(senderSrc),
		Slot:        0,
		TxPorts:     []uint32{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := NewHosted(sim, bus, HostedConfig{
		Name:        "receiver",
		BuildKernel: hostedFactory(receiverSrc),
		Slot:        1,
		TxPorts:     nil,
		RxMap:       map[ttnet.NodeID][]uint32{"sender": {0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Start(); err != nil {
		t.Fatal(err)
	}
	return sim, bus, sender, receiver
}

func TestHostedDataFlow(t *testing.T) {
	sim, _, sender, receiver := buildPair(t)
	sender.SetLocalInput(0, 21)
	if err := sim.RunUntil(20 * des.Millisecond); err != nil {
		t.Fatal(err)
	}
	// sender computes 42, transmits; receiver adds 1 → 43.
	if got := receiver.LocalOutput(1); got != 43 {
		t.Errorf("actuator = %d, want 43", got)
	}
	if sender.Down() || receiver.Down() {
		t.Error("nodes down without faults")
	}
}

func TestHostedConfigValidation(t *testing.T) {
	sim := des.New()
	bus, err := ttnet.NewBus(sim, ttnet.Config{StaticSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHosted(sim, bus, HostedConfig{Name: ""}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestHostedFailSilentAndRestart(t *testing.T) {
	sim, _, sender, receiver := buildPair(t)
	sender.SetLocalInput(0, 5)
	var downs, ups []des.Time
	sender.OnStateChange = func(name string, down bool, at des.Time) {
		if down {
			downs = append(downs, at)
		} else {
			ups = append(ups, at)
		}
	}
	// Kill the sender's kernel at 10 ms; default restart delay is 3 s.
	sim.Schedule(10*des.Millisecond, des.PrioInject, func() {
		sender.Kernel().ForceFailSilent("injected kernel fault")
	})
	if err := sim.RunUntil(5 * des.Second); err != nil {
		t.Fatal(err)
	}
	if len(downs) != 1 || len(ups) != 1 {
		t.Fatalf("downs=%v ups=%v", downs, ups)
	}
	if got := ups[0] - downs[0]; got != 3*des.Second {
		t.Errorf("restart delay = %v, want 3 s", got)
	}
	if sender.Down() {
		t.Error("sender still down after restart")
	}
	if sender.Failures != 1 {
		t.Errorf("failures = %d", sender.Failures)
	}
	// Data flows again after reintegration.
	sender.SetLocalInput(0, 7)
	if err := sim.RunUntil(5*des.Second + 20*des.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := receiver.LocalOutput(1); got != 15 {
		t.Errorf("actuator after restart = %d, want 15", got)
	}
}

func TestHostedMaxRestarts(t *testing.T) {
	sim := des.New()
	bus, err := ttnet.NewBus(sim, ttnet.Config{StaticSlots: 1, SlotLen: des.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewHosted(sim, bus, HostedConfig{
		Name:         "n",
		BuildKernel:  hostedFactory(senderSrc),
		Slot:         0,
		TxPorts:      []uint32{1},
		RestartDelay: 100 * des.Millisecond,
		MaxRestarts:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Start(); err != nil {
		t.Fatal(err)
	}
	kill := func() {
		if !n.Down() {
			n.Kernel().ForceFailSilent("injected")
		}
	}
	sim.Schedule(10*des.Millisecond, des.PrioInject, kill)
	sim.Schedule(200*des.Millisecond, des.PrioInject, kill)
	if err := sim.RunUntil(des.Second); err != nil {
		t.Fatal(err)
	}
	if !n.Down() {
		t.Error("node restarted past MaxRestarts")
	}
	if n.Failures != 2 {
		t.Errorf("failures = %d", n.Failures)
	}
}

// TestRxFreshness: with RxMaxAge set, values from a silenced sender
// expire (end-to-end freshness, §2.6); without it, the last value
// persists (the paper's "use a previous value" option).
func TestRxFreshness(t *testing.T) {
	build := func(maxAge des.Time) (*des.Simulator, *HostedNode, *HostedNode) {
		sim := des.New()
		bus, err := ttnet.NewBus(sim, ttnet.Config{StaticSlots: 2, SlotLen: des.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		sender, err := NewHosted(sim, bus, HostedConfig{
			Name: "sender", BuildKernel: hostedFactory(senderSrc),
			Slot: 0, TxPorts: []uint32{1},
		})
		if err != nil {
			t.Fatal(err)
		}
		receiver, err := NewHosted(sim, bus, HostedConfig{
			Name: "receiver", BuildKernel: hostedFactory(receiverSrc),
			Slot: 1, RxMap: map[ttnet.NodeID][]uint32{"sender": {0}},
			RxMaxAge: maxAge,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := bus.Start(); err != nil {
			t.Fatal(err)
		}
		return sim, sender, receiver
	}

	for _, tc := range []struct {
		name   string
		maxAge des.Time
		want   uint32 // receiver actuator long after the sender dies
	}{
		{"stale-expires", 10 * des.Millisecond, 1}, // 0 (stale) + 1
		{"previous-value-kept", 0, 43},             // 21*2 (held) + 1
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, sender, receiver := build(tc.maxAge)
			sender.SetLocalInput(0, 21)
			// Let data flow, then silence the sender permanently.
			sim.Schedule(20*des.Millisecond, des.PrioInject, func() {
				sender.Kernel().ForceFailSilent("injected")
			})
			// MaxRestarts unlimited: kill again on every reintegration.
			sim.Schedule(20*des.Millisecond, des.PrioInject, func() {
				sender.OnStateChange = func(name string, down bool, at des.Time) {
					if !down {
						sender.Kernel().ForceFailSilent("killed again")
					}
				}
			})
			if err := sim.RunUntil(8 * des.Second); err != nil {
				t.Fatal(err)
			}
			if got := receiver.LocalOutput(1); got != tc.want {
				t.Errorf("actuator = %d, want %d", got, tc.want)
			}
		})
	}
}
