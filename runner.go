package nocout

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Runner executes a Sweep across a bounded worker pool. The zero value is
// ready to use: all CPUs, no progress reporting, fail-fast, no cache or
// leasing. The Cache, Lease, and KeepGoing hooks are how the campaign
// subsystem (package campaign) turns the pool into one worker of a
// resumable, multi-process campaign.
type Runner struct {
	// Workers bounds the number of points measured concurrently;
	// <= 0 means runtime.GOMAXPROCS(0). Results are identical for any
	// worker count — points are independent and deterministic.
	Workers int

	// Progress, when set, is called after each point reaches a terminal
	// disposition this runner owns — computed, served from Cache, or (in
	// KeepGoing mode) failed — with the running completion count. Calls
	// are serialized and done is strictly monotonic, but not ordered by
	// point index. Lease-denied points are not reported: another worker
	// owns them.
	Progress func(done, total int, p Point, r Result)

	// KeepGoing collects per-point failures into the Report
	// (PointResult.Err) instead of cancelling the sweep on the first
	// failing point. The default (false) preserves the fail-fast
	// contract: first error aborts and is returned.
	KeepGoing bool

	// Cache, when set, is consulted before each point runs and receives
	// each completed point: a content-addressed result store makes
	// re-runs skip already-computed points.
	Cache Cache

	// Lease, when set, claims each point before it runs so concurrent
	// runner processes sharing a Cache partition the sweep instead of
	// duplicating work. Denied points are marked PointResult.Skipped.
	Lease Lease

	// Checkpoints, when set, serves each point's warm state from a
	// content-addressed checkpoint cache: points sharing a measurement
	// prefix (PrefixKey — same system, seed, workload, warmup) warm up
	// once and restore everywhere else, bit-identically. The Report is
	// byte-identical with or without it; only wall-clock time changes.
	Checkpoints *CheckpointStore
}

// Cache is the Runner's pluggable result cache, keyed by the point's
// canonical content hash (Point.Key). Implementations must be safe for
// concurrent use by the worker pool.
type Cache interface {
	// Lookup returns the stored result for p at quality q; a miss is
	// (zero, false, nil). Implementations should treat unreadable or
	// corrupt entries as misses (self-healing recompute); a returned
	// error fails the point.
	Lookup(p Point, q Quality) (PointResult, bool, error)
	// Store persists a completed point — including, in KeepGoing mode, a
	// failed one (pr.Err non-empty), so a campaign terminates instead of
	// retrying a broken point forever. Deterministic points make Store
	// idempotent: concurrent writers store identical bytes.
	Store(pr PointResult, q Quality) error
}

// Lease is the Runner's pluggable work-partitioning hook for
// multi-process campaigns. Leasing is an optimization, not a correctness
// mechanism: points are deterministic, so two workers racing one point
// store the same result.
type Lease interface {
	// Acquire claims p for this runner. ok=false means another live
	// worker holds the point — the runner skips it and a later pass (or
	// the campaign merge) picks up its result. release must be called
	// once the point's result is stored (or the attempt abandoned).
	Acquire(p Point, q Quality) (release func(), ok bool, err error)
}

// Run measures every point of the sweep and returns the Report, with
// results in sweep order regardless of scheduling. It stops early and
// returns ctx.Err() when the context is cancelled mid-sweep — points
// whose simulations already completed are still stored in Cache and
// counted by Progress, so no finished work is lost. A point whose
// configuration cannot build (an unregistered design, a hierarchy that
// cannot inhabit the fabric) aborts the sweep with an error naming the
// point, or, in KeepGoing mode, is recorded in its PointResult.Err while
// the sweep continues.
func (rn *Runner) Run(ctx context.Context, sw Sweep) (*Report, error) {
	workers := rn.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > sw.Len() {
		workers = sw.Len()
	}

	// A failing point cancels the remaining work through runCtx; the
	// outer ctx stays authoritative for caller cancellation.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// slot is a point's terminal disposition.
	type slot struct {
		res     Result
		errMsg  string
		skipped bool
	}
	slots := make([]slot, sw.Len())

	var progressMu sync.Mutex
	done := 0
	// report counts and notifies under one lock so Progress sees a
	// strictly monotonically increasing done count.
	report := func(p Point, r Result) {
		progressMu.Lock()
		done++
		if rn.Progress != nil {
			rn.Progress(done, sw.Len(), p, r)
		}
		progressMu.Unlock()
	}

	var errMu sync.Mutex
	var runErr error
	abort := func(err error) {
		errMu.Lock()
		if runErr == nil {
			runErr = err
		}
		errMu.Unlock()
		cancel()
	}
	// pointErr resolves a failing point: collected into its slot (and the
	// Cache, so campaigns stop retrying it) in KeepGoing mode, sweep
	// abort otherwise. It reports whether the worker may continue.
	pointErr := func(i int, p Point, err error) bool {
		if !rn.KeepGoing {
			abort(err)
			return false
		}
		slots[i] = slot{errMsg: err.Error()}
		if rn.Cache != nil {
			if serr := rn.Cache.Store(PointResult{Point: p, Err: err.Error()}, sw.Quality); serr != nil {
				abort(fmt.Errorf("nocout: storing failure of point %s: %w", p, serr))
				return false
			}
		}
		report(p, Result{})
		return true
	}

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p := &sw.Points[i]
				if p.wl == nil {
					// A manifest-decoded point rehydrates its workload
					// once; each index is owned by exactly one worker,
					// so writing the cached value back is race-free.
					w, err := p.resolveWorkload()
					if err != nil {
						if !pointErr(i, *p, err) {
							return
						}
						continue
					}
					p.wl = w
				}

				if rn.Cache != nil {
					pr, hit, err := rn.Cache.Lookup(*p, sw.Quality)
					if err != nil {
						if !pointErr(i, *p, err) {
							return
						}
						continue
					}
					if hit {
						slots[i] = slot{res: pr.Result, errMsg: pr.Err}
						report(*p, pr.Result)
						continue
					}
				}

				release := func() {}
				if rn.Lease != nil {
					rel, ok, err := rn.Lease.Acquire(*p, sw.Quality)
					if err != nil {
						if !pointErr(i, *p, err) {
							return
						}
						continue
					}
					if !ok {
						slots[i] = slot{skipped: true}
						continue
					}
					release = rel
				}

				r, complete, err := runPoint(runCtx, *p, sw.Quality, rn.Checkpoints)
				if err != nil {
					release()
					if !pointErr(i, *p, err) {
						return
					}
					continue
				}
				if complete {
					// Record, persist, and count the result *before*
					// honouring cancellation: a simulation that finished
					// after the cancel landed is still a valid, paid-for
					// result (the historical bug dropped it silently).
					slots[i] = slot{res: r}
					if rn.Cache != nil {
						if serr := rn.Cache.Store(PointResult{Point: *p, Result: r}, sw.Quality); serr != nil {
							release()
							if !pointErr(i, *p, fmt.Errorf("nocout: storing point %s: %w", p, serr)) {
								return
							}
							continue
						}
					}
					release()
					report(*p, r)
				} else {
					// The run was cut short by cancellation; the partial
					// average is meaningless and is discarded.
					release()
				}
				if runCtx.Err() != nil {
					return
				}
			}
		}()
	}

feed:
	for i := 0; i < sw.Len(); i++ {
		select {
		case next <- i:
		case <-runCtx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	errMu.Lock()
	err := runErr
	errMu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &Report{Title: sw.Title, Quality: sw.Quality, Results: make([]PointResult, sw.Len())}
	for i, p := range sw.Points {
		rep.Results[i] = PointResult{Point: p, Result: slots[i].res, Err: slots[i].errMsg, Skipped: slots[i].skipped}
	}
	return rep, nil
}

// runPoint measures one sweep point, converting a configuration panic
// (runSeeds re-raises the first worker panic on this goroutine) into an
// error that names the point. complete is false when cancellation cut
// the measurement short, in which case res must be discarded.
func runPoint(ctx context.Context, p Point, q Quality, ck *CheckpointStore) (res Result, complete bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("nocout: point %s: %v", p, r)
		}
	}()
	res, complete = runSeeds(ctx, p.Config, p.wl, q, ck)
	return res, complete, nil
}
