package obs_test

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/obs"
)

// oracleInvariants is the map-keyed TEM checker the streaming
// obs.Checker replaced, kept as its reference: one release state per
// (node, task), looked up by hashing for every event.
func oracleInvariants(events []obs.Event) []obs.Violation {
	type releaseState struct{ critical, sawDetected, sawAgreement, committed, omitted bool }
	var out []obs.Violation
	state := map[[2]string]*releaseState{}
	for i, e := range events {
		k := [2]string{e.Node, e.Task}
		st := state[k]
		if st == nil {
			st = &releaseState{}
			state[k] = st
		}
		switch e.Kind {
		case obs.KindRelease:
			*st = releaseState{critical: e.Detail == "critical"}
		case obs.KindErrorDetected, obs.KindCompareMismatch, obs.KindStateCRCError:
			st.sawDetected = true
		case obs.KindCompareMatch:
			st.sawAgreement = true
		case obs.KindVote:
			if strings.Contains(e.Detail, "majority found") {
				st.sawAgreement = true
			} else {
				st.sawDetected = true
			}
		case obs.KindCopyStart:
			if e.Copy >= 3 && !st.sawDetected {
				out = append(out, obs.Violation{
					Rule: obs.RuleThirdCopyNeedsError, Index: i, Event: e,
					Msg: "third copy scheduled without a detected error or comparison mismatch",
				})
			}
		case obs.KindCommit:
			if st.critical && !st.sawAgreement {
				out = append(out, obs.Violation{
					Rule: obs.RuleCommitNeedsAgreement, Index: i, Event: e,
					Msg: "critical-task commit without a comparison match or majority vote",
				})
			}
			if st.omitted {
				out = append(out, obs.Violation{
					Rule: obs.RuleOmissionExcludesCommit, Index: i, Event: e,
					Msg: "commit follows an omission for the same release",
				})
			}
			st.committed = true
		case obs.KindOmission:
			if st.committed {
				out = append(out, obs.Violation{
					Rule: obs.RuleOmissionExcludesCommit, Index: i, Event: e,
					Msg: "omission follows a commit for the same release",
				})
			}
			st.omitted = true
		}
	}
	return out
}

// readTrace loads a checked-in golden trace.
func readTrace(t testing.TB, name string) []obs.Event {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEventsJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// alwaysTripleStream is a from-scratch trial of the AlwaysTriple
// ablation, whose speculative third copies break the third-copy rule.
func alwaysTripleStream(t testing.TB) []obs.Event {
	t.Helper()
	w := fault.NewStdWorkload(fault.StdWorkloadConfig{ECC: true, Periods: 3, Compute: 16, AlwaysTriple: true})
	golden, err := fault.GoldenWrites(w)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewEventCollector("")
	spec := fault.TrialSpec{Fault: fault.Fault{At: 300 * des.Microsecond, Target: fault.TargetALU, Mask: 1 << 9}}
	if _, _, err := fault.ScratchTrial(w, spec, golden, col); err != nil {
		t.Fatal(err)
	}
	return col.Events()
}

// commitOmissionStream interleaves two nodes' releases of one task name
// with every rule broken at least once: a commit then an omission, an
// omission then a commit, a commit without agreement and a third copy
// without an error, between clean releases.
func commitOmissionStream() []obs.Event {
	var events []obs.Event
	add := func(node string, kind obs.Kind, copy int, detail string) {
		events = append(events, obs.Event{At: des.Time(len(events)), Kind: kind, Node: node, Task: "T", Copy: copy, Detail: detail})
	}
	for _, node := range []string{"a", "b"} {
		add(node, obs.KindRelease, 0, "critical")
	}
	add("a", obs.KindCompareMatch, 0, "")
	add("b", obs.KindCompareMismatch, 0, "")
	add("a", obs.KindCommit, 0, "ok")
	add("b", obs.KindCopyStart, 3, "")
	add("a", obs.KindOmission, 0, "deadline")
	add("b", obs.KindVote, 0, "majority found (copies 1,3)")
	add("b", obs.KindCommit, 0, "masked")
	add("a", obs.KindRelease, 0, "critical")
	add("b", obs.KindRelease, 0, "critical")
	add("a", obs.KindOmission, 0, "deadline")
	add("b", obs.KindCopyStart, 3, "")
	add("a", obs.KindCompareMatch, 0, "")
	add("a", obs.KindCommit, 0, "ok")
	add("b", obs.KindVote, 0, "no majority")
	add("b", obs.KindCommit, 0, "")
	return events
}

// TestCheckerResumeDifferential pins the streaming checker against the
// map-keyed oracle at every split of every stream: a checker that read
// events[:k] and is resumed into a fresh one reports exactly the
// oracle's violations at indexes ≥ k, indexed within the whole stream,
// and the one that read the prefix reported the rest.
func TestCheckerResumeDifferential(t *testing.T) {
	streams := map[string][]obs.Event{
		"always-triple":   alwaysTripleStream(t),
		"commit-omission": commitOmissionStream(),
	}
	for _, sc := range goldenScenarios {
		streams["golden/"+sc.name] = readTrace(t, sc.name)
	}
	// The rules each stream must break, so no case is vacuous.
	broken := map[string][]string{
		"always-triple": {obs.RuleThirdCopyNeedsError},
		"commit-omission": {obs.RuleThirdCopyNeedsError, obs.RuleCommitNeedsAgreement,
			obs.RuleOmissionExcludesCommit},
	}
	for name, events := range streams {
		t.Run(name, func(t *testing.T) {
			want := oracleInvariants(events)
			if got := obs.CheckInvariants(events); !sameViolations(got, want) {
				t.Fatalf("CheckInvariants %v, oracle %v", got, want)
			}
			for _, rule := range broken[name] {
				if !slices.ContainsFunc(want, func(v obs.Violation) bool { return v.Rule == rule }) {
					t.Fatalf("the stream never breaks %s", rule)
				}
			}
			var resumed obs.Checker
			for k := 0; k <= len(events); k++ {
				var head obs.Checker
				before := head.Check(events[:k], nil)
				if head.Checked() != k {
					t.Fatalf("split %d: the head read %d events", k, head.Checked())
				}
				resumed.Resume(&head)
				after := resumed.Check(events, nil)
				split := 0
				for split < len(want) && want[split].Index < k {
					split++
				}
				if !sameViolations(before, want[:split]) {
					t.Errorf("split %d: head %v, oracle %v", k, before, want[:split])
				}
				if !sameViolations(after, want[split:]) {
					t.Errorf("split %d: resumed %v, oracle %v", k, after, want[split:])
				}
			}
		})
	}
}

// sameViolations reports whether a and b hold equal violations, nil
// and empty alike.
func sameViolations(a, b []obs.Violation) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
