package campaign

import (
	"context"
	"sync"
	"time"

	"nocout"
)

// Options tunes one campaign worker. The zero value is a sensible
// worker: all CPUs, hostname-pid lease identity, DefaultTTL leases,
// cached results honoured, broken points recorded instead of fatal.
type Options struct {
	// Workers bounds the points measured concurrently (nocout.Runner
	// semantics; <= 0 means all CPUs).
	Workers int
	// Owner is this worker's lease identity; "" means DefaultOwner()
	// (hostname-pid). It must be unique among cooperating workers.
	Owner string
	// LeaseTTL is the claim lifetime before other workers steal a
	// (presumed crashed) owner's points; <= 0 means DefaultTTL.
	LeaseTTL time.Duration
	// Recompute ignores existing cache entries once per key — the
	// re-run override policy — recomputing and overwriting them. It
	// extends to the checkpoint cache: with CheckpointDir set, warm
	// states are re-produced and overwritten too.
	Recompute bool
	// CheckpointDir, when non-empty, serves each point's warm state from
	// the content-addressed checkpoint cache rooted there
	// (nocout.CheckpointStore): points sharing a measurement prefix warm
	// up once per campaign instead of once per point, and cooperating
	// workers race to produce each prefix exactly once. Results are
	// byte-identical with or without it.
	CheckpointDir string
	// RecomputeCheckpoints re-produces warm states while keeping cached
	// results — the narrower override for a checkpoint cache under
	// suspicion. Recompute implies it.
	RecomputeCheckpoints bool
	// FailFast restores the Runner's abort-on-first-error contract.
	// The default (false) records a broken point's error in the store
	// and keeps going: one bad point must not kill a thousand-point
	// campaign.
	FailFast bool
	// PassDelay is the wait between passes while other workers hold
	// leases on the remaining points; <= 0 means 500ms.
	PassDelay time.Duration
	// Progress, when set, is called once per point as its result lands
	// (computed here, or observed in the shared store) with the
	// campaign-wide completion count seen by this worker.
	Progress func(done, total int, p nocout.Point, r nocout.Result)
}

// Stats summarizes one worker's Work call.
type Stats struct {
	// Points is the campaign size.
	Points int
	// Computed counts simulations this worker ran (failed runs
	// included) — zero on a fully cached re-run.
	Computed int
	// Cached counts points served from the store without simulation.
	Cached int
	// Failed counts points whose stored result carries an error.
	Failed int
	// Passes counts sweep passes; >1 means this worker waited on
	// points leased by others (or stole expired leases).
	Passes int
}

// Work runs one campaign worker until every point of the manifest has a
// stored result, the context is cancelled, or (with FailFast) a point
// fails. Any number of Work calls — across goroutines, processes, or
// machines sharing the campaign directory — cooperate through the store
// and leases; each pass skips points other workers hold, and between
// passes the worker waits for them to land or their leases to expire.
// Interrupt it freely: completed points are already durable, and the
// next Work resumes from the store.
func (c *Campaign) Work(ctx context.Context, opts Options) (Stats, error) {
	leaser := &Leaser{Dir: leasesDir(c.dir), Owner: opts.Owner, TTL: opts.LeaseTTL}
	if leaser.Owner == "" {
		leaser.Owner = DefaultOwner()
	}
	cache := &runnerCache{store: c.Store(), recompute: opts.Recompute}
	delay := opts.PassDelay
	if delay <= 0 {
		delay = 500 * time.Millisecond
	}
	var ckpts *nocout.CheckpointStore
	if opts.CheckpointDir != "" {
		st, err := nocout.NewCheckpointStore(opts.CheckpointDir)
		if err != nil {
			return Stats{Points: c.sw.Len()}, err
		}
		st.Recompute = opts.Recompute || opts.RecomputeCheckpoints
		ckpts = st
	}

	// The Runner re-reports cached points on every pass; the user's
	// Progress sees each point exactly once, with a campaign-wide count.
	var progMu sync.Mutex
	reported := map[string]bool{}
	progress := func(done, total int, p nocout.Point, r nocout.Result) {
		if opts.Progress == nil {
			return
		}
		key, err := p.Key(c.man.Quality)
		if err != nil {
			return
		}
		progMu.Lock()
		if reported[key] {
			progMu.Unlock()
			return
		}
		reported[key] = true
		n := len(reported)
		progMu.Unlock()
		opts.Progress(n, len(c.man.Keys), p, r)
	}

	sw := c.sw
	stats := Stats{Points: sw.Len()}
	for {
		rn := &nocout.Runner{
			Workers:     opts.Workers,
			KeepGoing:   !opts.FailFast,
			Cache:       cache,
			Lease:       leaserAdapter{leaser, c.man.Quality},
			Progress:    progress,
			Checkpoints: ckpts,
		}
		rep, err := rn.Run(ctx, sw)
		stats.Passes++
		cache.fill(&stats)
		if err != nil {
			return stats, err
		}
		skipped := 0
		for i := range rep.Results {
			if rep.Results[i].Skipped {
				skipped++
			}
		}
		if skipped == 0 {
			return stats, nil
		}
		// The remaining points are leased by other workers: wait for
		// their results to land (next pass hits the cache) or their
		// leases to expire (next pass steals them).
		select {
		case <-ctx.Done():
			return stats, ctx.Err()
		case <-time.After(delay):
		}
	}
}

// runnerCache adapts the campaign Store to the Runner's Cache hook,
// keying by canonical point identity and keeping per-key statistics
// across passes.
type runnerCache struct {
	store     Store
	recompute bool

	mu       sync.Mutex
	redone   map[string]bool // keys this worker recomputed (Recompute policy)
	cached   map[string]bool // keys first served from the store
	computed map[string]bool // keys this worker simulated
	failed   map[string]bool // keys whose entry carries an error
}

// Lookup implements nocout.Cache.
func (rc *runnerCache) Lookup(p nocout.Point, q nocout.Quality) (nocout.PointResult, bool, error) {
	key, err := p.Key(q)
	if err != nil {
		return nocout.PointResult{}, false, err
	}
	rc.mu.Lock()
	miss := rc.recompute && !rc.redone[key]
	rc.mu.Unlock()
	if miss {
		return nocout.PointResult{}, false, nil
	}
	pr, ok, err := rc.store.Get(key)
	if ok {
		rc.mu.Lock()
		if rc.cached == nil {
			rc.cached = map[string]bool{}
		}
		if !rc.cached[key] && !rc.computedLocked(key) {
			rc.cached[key] = true
		}
		if pr.Err != "" {
			rc.markFailedLocked(key)
		}
		rc.mu.Unlock()
	}
	return pr, ok, err
}

// Store implements nocout.Cache.
func (rc *runnerCache) Store(pr nocout.PointResult, q nocout.Quality) error {
	key, err := pr.Point.Key(q)
	if err != nil {
		return err
	}
	if err := rc.store.Put(key, pr, q); err != nil {
		return err
	}
	rc.mu.Lock()
	if rc.redone == nil {
		rc.redone = map[string]bool{}
	}
	rc.redone[key] = true
	if rc.computed == nil {
		rc.computed = map[string]bool{}
	}
	rc.computed[key] = true
	if pr.Err != "" {
		rc.markFailedLocked(key)
	}
	rc.mu.Unlock()
	return nil
}

func (rc *runnerCache) computedLocked(key string) bool { return rc.computed[key] }
func (rc *runnerCache) markFailedLocked(key string) {
	if rc.failed == nil {
		rc.failed = map[string]bool{}
	}
	rc.failed[key] = true
}

// fill copies the per-key tallies into st.
func (rc *runnerCache) fill(st *Stats) {
	rc.mu.Lock()
	st.Computed = len(rc.computed)
	st.Cached = len(rc.cached)
	st.Failed = len(rc.failed)
	rc.mu.Unlock()
}

// leaserAdapter adapts Leaser to the Runner's Lease hook.
type leaserAdapter struct {
	l *Leaser
	q nocout.Quality
}

// Acquire implements nocout.Lease.
func (a leaserAdapter) Acquire(p nocout.Point, q nocout.Quality) (func(), bool, error) {
	key, err := p.Key(q)
	if err != nil {
		return nil, false, err
	}
	return a.l.Acquire(key)
}
