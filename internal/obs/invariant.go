package obs

import (
	"fmt"
	"strings"
)

// Violation is one invariant breach found in an event stream.
type Violation struct {
	// Rule names the violated invariant.
	Rule string
	// Index is the offending event's position in the checked stream.
	Index int
	// Event is the offending event.
	Event Event
	// Msg explains the breach.
	Msg string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s at #%d (%v): %s", v.Rule, v.Index, v.Event, v.Msg)
}

// Invariant rule names.
const (
	// RuleThirdCopyNeedsError: a third TEM copy is scheduled only after a
	// detected error or a comparison mismatch (Figure 3: the third copy
	// is on-demand, never speculative).
	RuleThirdCopyNeedsError = "third-copy-needs-error"
	// RuleCommitNeedsAgreement: every committed result of a critical task
	// is backed by at least two agreeing copies — a comparison match or a
	// majority vote (§2.5).
	RuleCommitNeedsAgreement = "commit-needs-agreement"
	// RuleOmissionExcludesCommit: omission and commit are mutually
	// exclusive terminal events for one release — a release that
	// committed cannot also be omitted, and vice versa.
	RuleOmissionExcludesCommit = "omission-excludes-commit"
	// RuleNoCriticalOmission: no critical task misses its deadline — only
	// meaningful on fault-free runs, where TEM has nothing to recover.
	RuleNoCriticalOmission = "no-critical-omission"
)

// releaseState tracks one task's current release through the TEM state
// machine.
type releaseState struct {
	critical     bool
	sawDetected  bool // EDM, state CRC, comparison mismatch or failed vote
	sawAgreement bool // comparison match or majority vote
	committed    bool
	omitted      bool
}

// taskRelease is one (node, task)'s current release.
type taskRelease struct {
	node, task string
	releaseState
}

// taskStates holds every (node, task)'s release state in first-seen
// order. A stream interleaves a handful of tasks and runs of one task's
// events, so a lookup checks the last task found, then scans: no
// hashing and no map.
type taskStates struct {
	rs   []taskRelease
	last int
}

// get returns e's (node, task) release state, adding a zero one for a
// task not seen before.
//
//nlft:noalloc
func (t *taskStates) get(e *Event) *releaseState {
	if t.last < len(t.rs) {
		if r := &t.rs[t.last]; r.task == e.Task && r.node == e.Node {
			return &r.releaseState
		}
	}
	return t.find(e)
}

// find is get past the last task found.
//
//nlft:noalloc
func (t *taskStates) find(e *Event) *releaseState {
	for i := range t.rs {
		if r := &t.rs[i]; r.task == e.Task && r.node == e.Node {
			t.last = i
			return &r.releaseState
		}
	}
	t.rs = append(t.rs, taskRelease{node: e.Node, task: e.Task})
	t.last = len(t.rs) - 1
	return &t.rs[t.last].releaseState
}

// Checker checks the TEM state-machine invariants as a left fold over
// one node's event stream: Check reads only the events past the ones it
// has read, and Resume continues from another checker's state. Because
// the state after a prefix depends on the prefix alone, a stream that
// shares a checked prefix with another — a forked trial with the golden
// run it was forked from — is checked from the state after that prefix,
// with the same violations at the same indexes as a check from the
// start. The zero Checker is at the start of a stream.
type Checker struct {
	n     int // events read: the index of the next one in the stream
	tasks taskStates
}

// Checked is the number of events c has read.
func (c *Checker) Checked() int { return c.n }

// Resume sets c to from's state, reusing c's storage; resuming from a
// zero Checker starts a new stream.
//
//nlft:noalloc
func (c *Checker) Resume(from *Checker) {
	c.n = from.n
	c.tasks.rs = append(c.tasks.rs[:0], from.tasks.rs...)
	c.tasks.last = from.tasks.last
}

// Check reads events[c.Checked():] — the stream's first c.Checked()
// events are the ones c has read — and appends each violation to out in
// stream order, indexed within the whole stream. It assumes at most one
// in-flight release per task at a time, which holds for every workload
// in this repository (deadline ≤ period). The stream may interleave any
// number of tasks and nodes.
//
//nlft:noalloc
func (c *Checker) Check(events []Event, out []Violation) []Violation {
	for i := c.n; i < len(events); i++ {
		switch e := &events[i]; e.Kind {
		case KindRelease:
			*c.tasks.get(e) = releaseState{critical: e.Detail == "critical"}
		case KindErrorDetected, KindCompareMismatch, KindStateCRCError:
			c.tasks.get(e).sawDetected = true
		case KindCompareMatch:
			c.tasks.get(e).sawAgreement = true
		case KindVote:
			if st := c.tasks.get(e); strings.Contains(e.Detail, "majority found") {
				st.sawAgreement = true
			} else {
				st.sawDetected = true
			}
		case KindCopyStart:
			if e.Copy >= 3 && !c.tasks.get(e).sawDetected {
				out = append(out, Violation{
					Rule: RuleThirdCopyNeedsError, Index: i, Event: *e,
					Msg: "third copy scheduled without a detected error or comparison mismatch",
				})
			}
		case KindCommit:
			st := c.tasks.get(e)
			if st.critical && !st.sawAgreement {
				out = append(out, Violation{
					Rule: RuleCommitNeedsAgreement, Index: i, Event: *e,
					Msg: "critical-task commit without a comparison match or majority vote",
				})
			}
			if st.omitted {
				out = append(out, Violation{
					Rule: RuleOmissionExcludesCommit, Index: i, Event: *e,
					Msg: "commit follows an omission for the same release",
				})
			}
			st.committed = true
		case KindOmission:
			st := c.tasks.get(e)
			if st.committed {
				out = append(out, Violation{
					Rule: RuleOmissionExcludesCommit, Index: i, Event: *e,
					Msg: "omission follows a commit for the same release",
				})
			}
			st.omitted = true
		}
	}
	c.n = max(c.n, len(events))
	return out
}

// CheckInvariants verifies the TEM state-machine invariants over one
// node's whole event stream (campaign consumers split the merged stream
// per trial first; see SplitByTrial) with a fresh Checker. Violations
// are returned in stream order; an empty slice means the stream is
// consistent.
//
// Note: the third-copy rule assumes TEM's on-demand third copy; streams
// produced with the AlwaysTriple ablation intentionally violate it.
func CheckInvariants(events []Event) []Violation {
	var c Checker
	return c.Check(events, nil)
}

// CheckNoCriticalOmission flags every omission of a critical task. It is
// the fault-free-run invariant: with no faults injected, a schedulable
// critical task must never miss a deadline or omit a result.
func CheckNoCriticalOmission(events []Event) []Violation {
	var out []Violation
	var tasks taskStates
	for i := range events {
		switch e := &events[i]; e.Kind {
		case KindRelease:
			tasks.get(e).critical = e.Detail == "critical"
		case KindOmission:
			if tasks.get(e).critical {
				out = append(out, Violation{
					Rule: RuleNoCriticalOmission, Index: i, Event: *e,
					Msg: "critical task omitted a result in a fault-free run",
				})
			}
		}
	}
	return out
}

// SplitByTrial groups a campaign-merged event stream by its Trial tag,
// preserving order within each trial. Events with Trial 0 (not part of a
// campaign) are grouped under key 0.
func SplitByTrial(events []Event) map[int][]Event {
	out := map[int][]Event{}
	for _, e := range events {
		out[e.Trial] = append(out[e.Trial], e)
	}
	return out
}
