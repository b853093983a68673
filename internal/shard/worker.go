package shard

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/fault"
)

// DefaultPoll is the idle poll interval when no work is available.
const DefaultPoll = 500 * time.Millisecond

// maxRunners bounds a worker's runner cache. A runner holds one
// checkpoint capture per slot and, in a campaign without telemetry, the
// suffix table its slots keep recording into; every new seed is a new
// campaign, so a long-lived worker keeps only the runners of the
// campaigns it leased most recently.
const maxRunners = 4

// Worker leases trial ranges from a coordinator and runs them on the
// campaign engine. One ShardRunner is built per campaign and reused
// across leases, keyed by the spec's canonical JSON — the golden run
// and each slot's checkpoint capture are paid once, so every lease
// after the first starts injecting immediately. At most maxRunners
// runners are kept, most recently leased first.
type Worker struct {
	// Transport reaches the coordinator.
	Transport Transport
	// Name labels this worker in coordinator diagnostics.
	Name string
	// Parallelism is the slot count leases fan out over (0 =
	// GOMAXPROCS via the campaign default).
	Parallelism int
	// Poll is the idle poll interval (0 = DefaultPoll).
	Poll time.Duration
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)

	mu      sync.Mutex
	runners []cachedRunner // most recently leased first
}

// cachedRunner is one campaign's runner, keyed by its canonical spec.
type cachedRunner struct {
	key string
	r   *fault.ShardRunner
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		w.Log(format, args...)
	}
}

// runner returns the cached ShardRunner for the lease's campaign,
// building it on first sight, and moves it to the front of the cache;
// building one beyond maxRunners evicts the least recently leased.
func (w *Worker) runner(l *Lease) (*fault.ShardRunner, error) {
	key, err := l.Spec.Canonical()
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, c := range w.runners {
		if c.key == key {
			copy(w.runners[1:i+1], w.runners[:i])
			w.runners[0] = c
			return c.r, nil
		}
	}
	cfg, err := l.Spec.Config(w.Parallelism)
	if err != nil {
		return nil, err
	}
	r, err := fault.NewShardRunner(l.Spec.Workload(), cfg)
	if err != nil {
		return nil, err
	}
	if len(w.runners) < maxRunners {
		w.runners = append(w.runners, cachedRunner{})
	}
	copy(w.runners[1:], w.runners)
	w.runners[0] = cachedRunner{key: key, r: r}
	return r, nil
}

// RunOne leases and completes one range. It reports (false, nil) when
// the coordinator has no work.
func (w *Worker) RunOne() (bool, error) {
	l, err := w.Transport.Lease(w.Name)
	if err != nil || l == nil {
		return false, err
	}
	w.logf("worker %s: lease %s: campaign %s trials [%d, %d)", w.Name, l.ID, l.Campaign, l.Lo, l.Hi)
	runner, err := w.runner(l)
	if err != nil {
		return false, err
	}

	// Heartbeat at TTL/3 while the lease runs, so the coordinator only
	// re-leases after three missed beats. Heartbeat errors are not
	// fatal here: if the lease expired under us we finish and submit
	// anyway — a first-arriving completion still wins, and a losing
	// duplicate is discarded.
	stop := make(chan struct{})
	var hb sync.WaitGroup
	if ttl := time.Duration(l.TTLMs) * time.Millisecond; ttl > 0 {
		hb.Add(1)
		go func() {
			defer hb.Done()
			t := time.NewTicker(ttl / 3)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					if err := w.Transport.Heartbeat(l.ID); err != nil {
						w.logf("worker %s: heartbeat %s: %v", w.Name, l.ID, err)
					}
				}
			}
		}()
	}
	sr, err := runner.Run(l.Lo, l.Hi)
	close(stop)
	hb.Wait()
	if err != nil {
		return false, fmt.Errorf("shard: lease %s: %w", l.ID, err)
	}

	// Stream the completion: frames flow through a pipe so large
	// shards never materialize as one buffer.
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(writeCompletion(pw, sr)) }()
	if err := w.Transport.Complete(l.ID, pr); err != nil {
		pr.CloseWithError(err)
		return false, fmt.Errorf("shard: complete %s: %w", l.ID, err)
	}
	w.logf("worker %s: completed %s", w.Name, l.ID)
	return true, nil
}

// Run leases until ctx is cancelled, polling while idle. Transport
// errors end the loop — a worker process exits rather than spinning on
// a dead coordinator; the coordinator re-leases whatever it held.
func (w *Worker) Run(ctx context.Context) error {
	poll := w.Poll
	if poll <= 0 {
		poll = DefaultPoll
	}
	for {
		worked, err := w.RunOne()
		if err != nil {
			return err
		}
		if worked {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
	}
}
