package shard

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrNotFound: unknown campaign or lease ID.
	ErrNotFound = errors.New("shard: not found")
	// ErrIncomplete: summary requested before every trial completed.
	ErrIncomplete = errors.New("shard: campaign incomplete")
	// ErrLeaseExpired: heartbeat on a lease the coordinator already
	// re-leased; the worker should abandon the range (its completion,
	// if it still arrives first, is applied anyway).
	ErrLeaseExpired = errors.New("shard: lease expired")
)

// DefaultLeaseTTL is the lease lifetime when the coordinator options
// do not choose one. Workers heartbeat at TTL/3, so a worker must miss
// three heartbeats before its range is re-leased.
const DefaultLeaseTTL = 30 * time.Second

// CoordinatorOptions configure lease handling.
type CoordinatorOptions struct {
	// LeaseTTL is how long a lease stays valid between heartbeats
	// (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Now is the clock (nil = time.Now); injectable so worker-loss
	// tests advance time deterministically instead of sleeping.
	Now func() time.Time
}

// Lease is one leased trial-index range, in wire form. The spec rides
// along so a worker can build (and cache) the campaign's ShardRunner
// without a second round-trip.
type Lease struct {
	ID       string       `json:"id"`
	Campaign string       `json:"campaign"`
	Spec     CampaignSpec `json:"spec"`
	Lo       int          `json:"lo"`
	Hi       int          `json:"hi"`
	// TTLMs is the lease lifetime; heartbeat well within it.
	TTLMs int64 `json:"ttl_ms"`
}

// Progress reports a campaign's completion state.
type Progress struct {
	Campaign  string `json:"campaign"`
	Trials    int    `json:"trials"`
	Completed int    `json:"completed"`
	// Leased counts trials under an active (unexpired) lease.
	Leased int  `json:"leased"`
	Done   bool `json:"done"`
}

// Summary is the finished campaign's Table-1 surface plus the
// equivalence digest the CI gate diffs against a serial run.
type Summary struct {
	Campaign string         `json:"campaign"`
	Trials   int            `json:"trials"`
	Seed     uint64         `json:"seed"`
	Digest   string         `json:"digest"` // %#x of Result.Digest
	Counts   map[string]int `json:"counts"` // by outcome name
	Text     string         `json:"text"`   // Result.Summary() report
}

// leaseState tracks a lease across its lifetime. Records are kept
// after expiry or completion so a late completion from a presumed-dead
// worker is still recognized (and applied or discarded idempotently).
type leaseState struct {
	id      string
	camp    *campaign
	span    int
	expires time.Time
	expired bool
}

// span is one fixed lease granule of a campaign's trial range. Spans
// never change shape: a re-lease covers the exact same [lo, hi), so
// "has this span completed" is the whole idempotency state.
type span struct{ lo, hi int }

type campaign struct {
	id     string
	spec   CampaignSpec
	cfg    fault.CampaignConfig
	golden []fault.Write

	spans   []span
	pending []int          // span indexes awaiting (re-)lease, FIFO
	done    []bool         // per span: completion applied
	active  map[string]int // active lease ID -> span index

	records   []fault.TrialRecord
	metrics   *obs.Registry
	completed int // trials folded in

	result *fault.Result // finalize cache
}

// Coordinator owns campaign state and the lease protocol. All methods
// are safe for concurrent use; the transport layers (HTTP handler,
// loopback) are thin shims over them.
type Coordinator struct {
	opts CoordinatorOptions

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string               // unfinished campaigns in submission order, for fair lease assignment
	leases    map[string]*leaseState // every lease issued, so late reports are recognized
	nextCamp  int
	nextLease int
}

// NewCoordinator builds an empty coordinator.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Coordinator{
		opts:      opts,
		campaigns: make(map[string]*campaign),
		leases:    make(map[string]*leaseState),
	}
}

// Submit validates the spec — including a fault-free golden run, which
// both proves the workload viable and yields the reference outputs the
// final Result carries — slices the trial range into lease spans, and
// returns the campaign ID.
func (c *Coordinator) Submit(spec CampaignSpec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	cfg, err := spec.Config(0)
	if err != nil {
		return "", err
	}
	golden, err := fault.GoldenWrites(spec.Workload())
	if err != nil {
		return "", fmt.Errorf("shard: golden run: %w", err)
	}
	size := spec.leaseSize()
	camp := &campaign{
		spec:    spec,
		cfg:     cfg,
		golden:  golden,
		active:  make(map[string]int),
		records: make([]fault.TrialRecord, spec.Trials),
	}
	for lo := 0; lo < spec.Trials; lo += size {
		hi := lo + size
		if hi > spec.Trials {
			hi = spec.Trials
		}
		camp.spans = append(camp.spans, span{lo: lo, hi: hi})
		camp.pending = append(camp.pending, len(camp.spans)-1)
	}
	camp.done = make([]bool, len(camp.spans))

	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextCamp++
	camp.id = fmt.Sprintf("c%d", c.nextCamp)
	c.campaigns[camp.id] = camp
	c.order = append(c.order, camp.id)
	return camp.id, nil
}

// sweepExpired (mu held) returns every expired lease's span to its
// campaign's pending queue. Only live leases can expire, and they are
// the active ones of unfinished campaigns, so the sweep visits those
// alone, not every lease ever issued.
func (c *Coordinator) sweepExpired(now time.Time) {
	for _, id := range c.order {
		camp := c.campaigns[id]
		//nlft:allow nodeterminism expiry marking is per-lease and idempotent; map order cannot affect which leases expire
		for leaseID, spanIdx := range camp.active {
			ls := c.leases[leaseID]
			if !now.After(ls.expires) {
				continue
			}
			ls.expired = true
			delete(camp.active, leaseID)
			if !camp.done[spanIdx] {
				camp.pending = append(camp.pending, spanIdx)
			}
		}
	}
}

// LeaseNext hands the caller the next pending trial range, oldest
// campaign first, or nil when no work is available. worker is a label
// for diagnostics only; the protocol does not track worker identity
// beyond it.
func (c *Coordinator) LeaseNext(worker string) (*Lease, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	c.sweepExpired(now)
	for _, id := range c.order {
		camp := c.campaigns[id]
		if len(camp.pending) == 0 {
			continue
		}
		spanIdx := camp.pending[0]
		camp.pending = camp.pending[1:]
		c.nextLease++
		leaseID := fmt.Sprintf("l%d", c.nextLease)
		c.leases[leaseID] = &leaseState{
			id:      leaseID,
			camp:    camp,
			span:    spanIdx,
			expires: now.Add(c.opts.LeaseTTL),
		}
		camp.active[leaseID] = spanIdx
		sp := camp.spans[spanIdx]
		return &Lease{
			ID:       leaseID,
			Campaign: camp.id,
			Spec:     camp.spec,
			Lo:       sp.lo,
			Hi:       sp.hi,
			TTLMs:    c.opts.LeaseTTL.Milliseconds(),
		}, nil
	}
	return nil, nil
}

// Heartbeat extends an active lease. A heartbeat on a completed
// span reports success (the worker's range already landed); one on an
// expired lease reports ErrLeaseExpired so the worker abandons it.
func (c *Coordinator) Heartbeat(leaseID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	c.sweepExpired(now)
	ls, ok := c.leases[leaseID]
	switch {
	case !ok:
		return fmt.Errorf("%w: lease %q", ErrNotFound, leaseID)
	case ls.camp.done[ls.span]:
		return nil
	case ls.expired:
		return ErrLeaseExpired
	}
	ls.expires = now.Add(c.opts.LeaseTTL)
	return nil
}

// Complete reads a completion stream for the lease's range and folds
// it into the campaign — unless that range already completed, in which
// case the duplicate is read and discarded (idempotent re-lease: both
// results are bit-identical, so first-wins loses nothing). A late
// completion from an expired lease still applies when it is first.
func (c *Coordinator) Complete(leaseID string, body io.Reader) error {
	// Resolve the lease before parsing so a bogus ID fails fast, but
	// parse outside the lock: decoding is the expensive part and the
	// stream belongs to one caller anyway.
	c.mu.Lock()
	ls, ok := c.leases[leaseID]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: lease %q", ErrNotFound, leaseID)
	}
	sp := ls.camp.spans[ls.span]
	sr, err := readCompletion(body, sp.hi-sp.lo)
	if err != nil {
		return err
	}
	sr.Lo, sr.Hi = sp.lo, sp.hi

	c.mu.Lock()
	defer c.mu.Unlock()
	camp := ls.camp
	if camp.done[ls.span] {
		return nil // duplicate of an identical result; discard
	}
	camp.fold(sr)
	camp.done[ls.span] = true
	if camp.completed == camp.spec.Trials {
		// The last span landed: nothing of the campaign is left to lease
		// or to sweep.
		c.order = slices.DeleteFunc(c.order, func(id string) bool { return id == camp.id })
	}
	// Retire every lease on this span — the original and any re-lease
	// racing it — and drop queued re-leases of it.
	//nlft:allow nodeterminism all active leases on this span are deleted; map order cannot affect the survivors
	for id, spanIdx := range camp.active {
		if spanIdx == ls.span {
			delete(camp.active, id)
		}
	}
	pending := camp.pending[:0]
	for _, idx := range camp.pending {
		if idx != ls.span {
			pending = append(pending, idx)
		}
	}
	camp.pending = pending
	return nil
}

// fold merges one shard result into the campaign accumulators. This is
// the coordinator-side shard merge path, rooted for the mergecommute
// analyzer: records land in disjoint index ranges (spans partition
// [0, Trials) and duplicates were discarded before folding), the
// registry merges by pure addition/extreme-keep, and the completion
// counter is a sum — so any arrival order folds to the same campaign
// state.
//
//nlft:merge
func (camp *campaign) fold(sr *fault.ShardResult) {
	copy(camp.records[sr.Lo:sr.Hi], sr.Records)
	if sr.Metrics != nil {
		if camp.metrics == nil {
			camp.metrics = obs.NewRegistry()
		}
		camp.metrics.Merge(sr.Metrics.Registry())
	}
	camp.completed += sr.Hi - sr.Lo
}

// campaignByID (mu held) resolves a campaign.
func (c *Coordinator) campaignByID(id string) (*campaign, error) {
	camp, ok := c.campaigns[id]
	if !ok {
		return nil, fmt.Errorf("%w: campaign %q", ErrNotFound, id)
	}
	return camp, nil
}

// Progress reports a campaign's completion state.
func (c *Coordinator) Progress(id string) (*Progress, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepExpired(c.opts.Now())
	camp, err := c.campaignByID(id)
	if err != nil {
		return nil, err
	}
	leased := 0
	//nlft:allow nodeterminism commutative sum over active leases; iteration order cannot affect the total
	for _, spanIdx := range camp.active {
		sp := camp.spans[spanIdx]
		leased += sp.hi - sp.lo
	}
	return &Progress{
		Campaign:  camp.id,
		Trials:    camp.spec.Trials,
		Completed: camp.completed,
		Leased:    leased,
		Done:      camp.completed == camp.spec.Trials,
	}, nil
}

// Result finalizes and returns the completed campaign's Result —
// bit-identical to a serial fault.Run of the same spec.
func (c *Coordinator) Result(id string) (*fault.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	camp, err := c.campaignByID(id)
	if err != nil {
		return nil, err
	}
	if camp.completed != camp.spec.Trials {
		return nil, fmt.Errorf("%w: %d/%d trials", ErrIncomplete, camp.completed, camp.spec.Trials)
	}
	if camp.result == nil {
		camp.result, err = fault.FinalizeSharded(camp.cfg, camp.golden, camp.records, camp.metrics)
		if err != nil {
			return nil, err
		}
	}
	return camp.result, nil
}

// Summary renders the completed campaign's Table-1 surface and digest.
func (c *Coordinator) Summary(id string) (*Summary, error) {
	res, err := c.Result(id)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int, fault.NumOutcomes)
	for _, o := range fault.AllOutcomes() {
		counts[o.String()] = res.Counts[o]
	}
	return &Summary{
		Campaign: id,
		Trials:   res.Config.Trials,
		Seed:     res.Config.Seed,
		Digest:   fmt.Sprintf("%#x", res.Digest()),
		Counts:   counts,
		Text:     res.Summary(),
	}, nil
}
