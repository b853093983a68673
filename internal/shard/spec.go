// Package shard turns fault-injection campaigns into a service: a
// coordinator slices a campaign's trial-index range into leases, hands
// them to worker processes over an HTTP/JSON protocol (or an
// in-process loopback), folds the streamed-back shard results through
// the commutative merges the campaign layer already guarantees, and
// re-leases ranges whose workers go silent. The final result is
// bit-identical to a serial fault.Run of the same configuration for
// any worker count, process count, worker loss, or arrival order:
//
//   - every trial is a pure function of (Seed, trial index), so a
//     range computes the same records wherever and however often it
//     runs (fault.ShardRunner);
//   - shard deltas (tally arrays, obs registries) merge by pure
//     addition/extreme-keep, machine-verified commutative by the
//     mergecommute analyzer;
//   - completion is idempotent: the first completion of a range wins
//     and duplicates — a lost worker's late result racing its
//     re-lease — are discarded, which is safe precisely because
//     duplicates are bit-identical.
package shard

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/fault"
)

// maxTrials bounds a spec's trial count. The coordinator allocates one
// record per trial and one span per lease when it accepts a campaign, so
// an unbounded count would let a single submission exhaust its memory.
const maxTrials = 1 << 24

// DefaultLeaseSize is the trials-per-lease granule when the spec does
// not choose one. Small enough that a lost worker forfeits little work
// and large enough to amortize one round-trip per lease.
const DefaultLeaseSize = 512

// CampaignSpec is the wire form of a campaign submission: the standard
// workload's knobs plus the campaign parameters the sharded path
// supports. Per-trial event streams (TelemetryEvents) and enumerated
// plans are serial-only features and have no spec field by
// construction. The zero value of every optional field means "the
// campaign layer's default".
type CampaignSpec struct {
	// Trials is the number of injection runs. Required (>= 1).
	Trials int `json:"trials"`
	// Seed drives all random choices.
	Seed uint64 `json:"seed"`

	// ECC and Compute parameterize the standard workload.
	ECC     bool `json:"ecc,omitempty"`
	Compute int  `json:"compute,omitempty"`

	// Targets restricts fault locations, by Target.String name
	// (register, pc, sp, alu, mem-data, mem-code). Empty means all.
	Targets []string `json:"targets,omitempty"`
	// KernelShare and KernelDetect override the kernel-hit model
	// probabilities (0 means the paper defaults, 0.05 and 0.98).
	KernelShare  float64 `json:"kernel_share,omitempty"`
	KernelDetect float64 `json:"kernel_detect,omitempty"`

	// Telemetry merges every trial's metrics registry into the result.
	Telemetry bool `json:"telemetry,omitempty"`

	// LeaseSize is the trials-per-lease granule (0 = DefaultLeaseSize).
	LeaseSize int `json:"lease_size,omitempty"`
}

// Validate checks the spec without building anything.
func (s *CampaignSpec) Validate() error {
	if s.Trials < 1 || s.Trials > maxTrials {
		return fmt.Errorf("shard: spec needs 1 <= trials <= %d (got %d)", maxTrials, s.Trials)
	}
	if s.Compute < 0 {
		return fmt.Errorf("shard: negative compute %d", s.Compute)
	}
	if s.LeaseSize < 0 {
		return fmt.Errorf("shard: negative lease size %d", s.LeaseSize)
	}
	if s.KernelShare < 0 || s.KernelShare > 1 || s.KernelDetect < 0 || s.KernelDetect > 1 {
		return fmt.Errorf("shard: kernel probabilities outside [0, 1]")
	}
	_, err := s.targets()
	return err
}

// targets resolves the target names (fault.ParseTargets grammar).
func (s *CampaignSpec) targets() ([]fault.Target, error) {
	return fault.ParseTargets(strings.Join(s.Targets, ","))
}

// Workload builds the spec's workload.
func (s *CampaignSpec) Workload() fault.Workload {
	return fault.NewStdWorkload(fault.StdWorkloadConfig{ECC: s.ECC, Compute: s.Compute})
}

// Config translates the spec into a campaign configuration. The
// parallelism is execution shape, not campaign identity — it is
// supplied by each runner and cannot perturb any result.
func (s *CampaignSpec) Config(parallelism int) (fault.CampaignConfig, error) {
	targets, err := s.targets()
	if err != nil {
		return fault.CampaignConfig{}, err
	}
	return fault.CampaignConfig{
		Trials:       s.Trials,
		Seed:         s.Seed,
		Targets:      targets,
		KernelShare:  s.KernelShare,
		KernelDetect: s.KernelDetect,
		Parallelism:  parallelism,
		Telemetry:    s.Telemetry,
	}, nil
}

// leaseSize is the effective trials-per-lease granule.
func (s *CampaignSpec) leaseSize() int {
	if s.LeaseSize > 0 {
		return s.LeaseSize
	}
	return DefaultLeaseSize
}

// Canonical renders the spec as canonical JSON (struct field order,
// sorted map keys — encoding/json is already canonical for this
// shape), the identity workers key their runner caches on.
func (s *CampaignSpec) Canonical() (string, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
