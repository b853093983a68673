// Package obs is the observability layer of the NLFT reproduction: a
// metrics registry (counters, gauges, histograms keyed by
// node·task·mechanism), a structured event stream with typed records for
// every step of the temporal-error-masking state machine (release,
// dispatch, error detection, comparison, vote, commit, omission,
// fail-silence), and deterministic JSONL/CSV exporters.
//
// The paper's argument rests on counting what TEM does — which errors
// are masked locally and which escalate to omission or fail-silence —
// so the instrumentation is designed to be auditable: collectors are
// single-goroutine and merged deterministically (the fault campaign
// merges per-trial collectors in trial-index order whatever the worker
// count), exports are canonically ordered, and digests make equality
// checkable in one comparison. Golden-trace and invariant test suites
// assert against this surface instead of scraping stdout.
//
// Hot-path discipline: Emit performs no allocation beyond the amortized
// growth of the preallocated event buffer, metric lookups use
// comparable struct keys, and the per-trial bookkeeping of a fork
// campaign (rewind, suffix composition, accumulation) indexes series by
// id without hashing a key, so telemetry stays off the campaign's
// critical path (perfbench's telemetry workload runs campaigns with
// telemetry on).
package obs

import (
	"fmt"

	"repro/internal/des"
)

// Kind labels one structured event record.
type Kind uint8

// Event kinds, covering the TEM state machine of the paper's Figure 3
// plus scheduler-level records.
const (
	// KindRelease: a task release; Detail carries the criticality.
	KindRelease Kind = iota + 1
	// KindDispatch: the scheduler switched the CPU to a job.
	KindDispatch
	// KindCopyStart: a TEM copy began executing (Copy = 1, 2 or 3).
	KindCopyStart
	// KindCopyEnd: a copy finished normally; Detail carries its result CRC.
	KindCopyEnd
	// KindPreempt: a higher-priority job preempted the copy mid-flight.
	KindPreempt
	// KindResume: a preempted copy's context was restored.
	KindResume
	// KindErrorDetected: an EDM fired; Detail names the mechanism.
	KindErrorDetected
	// KindCompareMatch: double-execution results agreed.
	KindCompareMatch
	// KindCompareMismatch: the comparison detected an error.
	KindCompareMismatch
	// KindVote: the third-copy majority vote ran; Detail is the verdict.
	KindVote
	// KindCommit: a result left the node; Detail is the release outcome.
	KindCommit
	// KindOmission: no result by the deadline; Detail is the reason.
	KindOmission
	// KindTaskShutdown: a non-critical task was stopped after an error.
	KindTaskShutdown
	// KindFailSilent: the node went silent; Detail is the reason.
	KindFailSilent
	// KindStateCRCError: the data-integrity check caught state corruption.
	KindStateCRCError

	kindCount
)

var kindNames = [kindCount]string{
	KindRelease:         "release",
	KindDispatch:        "dispatch",
	KindCopyStart:       "copy-start",
	KindCopyEnd:         "copy-end",
	KindPreempt:         "preempt",
	KindResume:          "resume",
	KindErrorDetected:   "error-detected",
	KindCompareMatch:    "compare-match",
	KindCompareMismatch: "compare-mismatch",
	KindVote:            "vote",
	KindCommit:          "commit",
	KindOmission:        "omission",
	KindTaskShutdown:    "task-shutdown",
	KindFailSilent:      "fail-silent",
	KindStateCRCError:   "state-crc-error",
}

// kindMetricNames maps each kind to the counter series its emission
// increments. Precomputed so Emit never builds strings.
var kindMetricNames = [kindCount]string{
	KindRelease:         "events.release",
	KindDispatch:        "events.dispatch",
	KindCopyStart:       "events.copy_start",
	KindCopyEnd:         "events.copy_end",
	KindPreempt:         "events.preempt",
	KindResume:          "events.resume",
	KindErrorDetected:   "events.error_detected",
	KindCompareMatch:    "events.compare_match",
	KindCompareMismatch: "events.compare_mismatch",
	KindVote:            "events.vote",
	KindCommit:          "events.commit",
	KindOmission:        "events.omission",
	KindTaskShutdown:    "events.task_shutdown",
	KindFailSilent:      "events.fail_silent",
	KindStateCRCError:   "events.state_crc_error",
}

// String names the kind.
func (k Kind) String() string {
	if k > 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind resolves a kind name produced by String.
func ParseKind(s string) (Kind, bool) {
	for k := Kind(1); k < kindCount; k++ {
		if kindNames[k] == s {
			return k, true
		}
	}
	return 0, false
}

// Event is one structured telemetry record.
type Event struct {
	// At is the simulated instant of the event.
	At des.Time
	// Kind classifies the record.
	Kind Kind
	// Node labels the emitting node ("" for single-node runs).
	Node string
	// Task names the task, when applicable.
	Task string
	// Copy is the TEM copy index (1–3), 0 when not applicable.
	Copy int
	// Detail carries the mechanism name, outcome, vote verdict or reason.
	Detail string
	// Trial is the 1-based fault-campaign trial the event belongs to;
	// 0 means the event is not part of a campaign.
	Trial int
}

// String renders the record for humans.
func (e Event) String() string {
	s := fmt.Sprintf("[%12v] %-17s", e.At, e.Kind)
	if e.Node != "" {
		s += " " + e.Node
	}
	if e.Task != "" {
		s += " " + e.Task
	}
	if e.Copy > 0 {
		s += fmt.Sprintf(" copy=%d", e.Copy)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// stream is the shared event buffer behind a collector and its labeled
// views.
type stream struct {
	events   []Event
	limit    int // 0 unlimited, >0 cap, <0 events disabled
	dropped  uint64
	disabled bool
}

func (s *stream) append(e Event) {
	if s.disabled {
		return
	}
	if s.limit > 0 && len(s.events) >= s.limit {
		s.dropped++
		return
	}
	s.events = append(s.events, e)
}

// Collector couples a metrics registry with an event stream. It is the
// unit of telemetry ownership: one collector per kernel instance, trial
// or scenario, merged (via Registry.Merge and event concatenation) into
// campaign-level aggregates. Collectors are not synchronized; each is
// owned by one goroutine.
type Collector struct {
	node string
	reg  *Registry // nil for an events-only collector
	s    *stream

	// Per-(node,task) cache of the events.* counter ids (id+1; 0 is
	// unresolved), so the common case — a run of emissions for the same
	// task — resolves each counter by two string equality checks and an
	// array index instead of hashing a four-string key per event. Ids
	// are permanent in the registry's id space and every view indexes
	// its registry through them, so the cache stays valid across
	// rewinds, for labeled views too.
	cacheNode string
	cacheTask string
	kindIDs   [kindCount]int
}

// NewCollector returns a collector whose emitted events are labeled with
// node (may be empty).
func NewCollector(node string) *Collector {
	return &Collector{node: node, reg: NewRegistry(), s: &stream{}}
}

// NewEventCollector returns a collector with an uncapped event stream
// and no registry, for consumers that read only events: Emit appends
// and counts nothing, series lookups return nil (whose methods do
// nothing), and Registry returns nil.
func NewEventCollector(node string) *Collector {
	return &Collector{node: node, s: &stream{}}
}

// Labeled returns a view of c that stamps events and metric keys with a
// different node label while sharing c's registry and event buffer. The
// brake-by-wire system uses one labeled view per kernel node. Labeled on
// a nil collector returns nil, so call sites can pass the result through
// unconditionally.
func (c *Collector) Labeled(node string) *Collector {
	if c == nil {
		return nil
	}
	return &Collector{node: node, reg: c.reg, s: c.s}
}

// NodeLabel reports the label stamped on emitted events.
func (c *Collector) NodeLabel() string { return c.node }

// Registry exposes the metrics registry (nil for an events-only
// collector).
func (c *Collector) Registry() *Registry { return c.reg }

// SetEventLimit bounds the retained events: n > 0 caps the buffer
// (further events are dropped and counted), n < 0 disables event
// retention entirely (metrics only), n == 0 removes the bound. A
// positive cap preallocates the buffer so steady-state emission does not
// allocate.
func (c *Collector) SetEventLimit(n int) {
	switch {
	case n < 0:
		c.s.disabled = true
	case n == 0:
		c.s.limit = 0
		c.s.disabled = false
	default:
		c.s.limit = n
		c.s.disabled = false
		if cap(c.s.events) < n {
			grown := make([]Event, len(c.s.events), n)
			copy(grown, c.s.events)
			c.s.events = grown
		}
	}
}

// Emit records one event: it is appended to the stream (subject to the
// limit) and, with a registry, counted under the kind's events.*
// series, keyed by node, task and — for detection events — mechanism.
func (c *Collector) Emit(e Event) {
	if c == nil {
		return
	}
	if e.Node == "" {
		e.Node = c.node
	}
	if c.reg != nil && e.Kind > 0 && e.Kind < kindCount {
		if e.Kind == KindErrorDetected {
			// Detection counters are additionally keyed by mechanism
			// (carried in Detail), so they bypass the kind cache.
			c.reg.Counter(Key{Name: kindMetricNames[e.Kind], Node: e.Node, Task: e.Task, Mechanism: e.Detail}).Inc()
		} else {
			if e.Node != c.cacheNode || e.Task != c.cacheTask {
				c.cacheNode, c.cacheTask = e.Node, e.Task
				c.kindIDs = [kindCount]int{}
			}
			id := c.kindIDs[e.Kind] - 1
			if id < 0 {
				id = c.reg.ids.counters.of(Key{Name: kindMetricNames[e.Kind], Node: e.Node, Task: e.Task})
				c.kindIDs[e.Kind] = id + 1
			}
			c.reg.counters.get(id).Inc()
		}
	}
	c.s.append(e)
}

// Events returns the retained events in emission order.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	return c.s.events
}

// emitted is the number of events c has seen: retained plus dropped.
func (c *Collector) emitted() uint64 { return uint64(len(c.s.events)) + c.s.dropped }

// Dropped reports how many events the limit discarded.
func (c *Collector) Dropped() uint64 {
	if c == nil {
		return 0
	}
	return c.s.dropped
}

// Counter resolves a counter in the collector's registry with the
// collector's node label (nil without a registry).
func (c *Collector) Counter(name, task, mechanism string) *Counter {
	if c.reg == nil {
		return nil
	}
	return c.reg.Counter(Key{Name: name, Node: c.node, Task: task, Mechanism: mechanism})
}

// Gauge resolves a gauge with the collector's node label (nil without a
// registry).
func (c *Collector) Gauge(name, task string) *Gauge {
	if c.reg == nil {
		return nil
	}
	return c.reg.Gauge(Key{Name: name, Node: c.node, Task: task})
}

// Histogram resolves a histogram with the collector's node label (nil
// without a registry).
func (c *Collector) Histogram(name, task string) *Histogram {
	if c.reg == nil {
		return nil
	}
	return c.reg.Histogram(Key{Name: name, Node: c.node, Task: task})
}

// bandNames are the des tie-break bands, indexed by prioBandIndex.
var bandNames = [5]string{"inject", "network", "kernel", "dispatch", "observer"}

// prioBandIndex maps an event priority to its band index.
func prioBandIndex(prio int) int {
	switch {
	case prio <= des.PrioInject:
		return 0
	case prio <= des.PrioNetwork:
		return 1
	case prio <= des.PrioKernel:
		return 2
	case prio <= des.PrioDispatch:
		return 3
	default:
		return 4
	}
}

// prioBand names the des tie-break band of an event priority.
func prioBand(prio int) string { return bandNames[prioBandIndex(prio)] }

// PendingPeak names the gauge AttachSimulator keeps at the deepest
// event queue observed.
const PendingPeak = "des.pending_peak"

// AttachSimulator instruments a discrete-event simulator: every fired
// event increments a des.events_fired counter keyed by its priority
// band, and the des.pending_peak gauge tracks the deepest event queue
// observed. The counters are resolved once here, so the per-event hook
// is an array index, a pointer increment and a gauge compare — no map
// lookup or hashing on the simulation's hot path. A collector without a
// registry has nothing to count, so the simulator gets no hook.
func AttachSimulator(c *Collector, sim *des.Simulator) {
	if c == nil || c.reg == nil || sim == nil {
		return
	}
	var bands [len(bandNames)]*Counter
	for i, b := range bandNames {
		bands[i] = c.Counter("des.events_fired", "", b)
	}
	peak := c.Gauge(PendingPeak, "")
	sim.SetEventObserver(func(at des.Time, prio int) {
		bands[prioBandIndex(prio)].Inc()
		peak.SetMax(float64(sim.Pending()))
	})
}
