// Warm background re-solve: the admitter keeps an exact solver warm off
// the decision path. Every ResolveEvery admissions it re-solves the
// committed state plus a sampled future window with the FlexOffline batch
// ILP — warm-started from the live per-combo load profile through
// placement.WarmStart — and publishes the resulting per-combo target
// profile via an atomic pointer swap. The hot path snapshots the pointer;
// decisions never block on the solver.
package online

import (
	"context"

	"flex/internal/milp"
	"flex/internal/placement"
	"flex/internal/power"
)

// ResolveOnce runs one exact re-solve of the committed state plus the
// next sampled future window and publishes the improved target profile.
// It is normally driven by StartResolve's goroutine (or the Online
// policy's SyncResolve loop) but is safe to call directly: resolves are
// serialised among themselves, and the admitter keeps admitting
// concurrently. The solve is budgeted by ResolveBudget / ResolveNodes and
// honors ctx cancellation.
func (a *Admitter) ResolveOnce(ctx context.Context) error {
	// One resolve at a time: the batch scratch outlives the admission lock.
	a.resolveMu.Lock()
	defer a.resolveMu.Unlock()
	// Snapshot the committed deployments, the next future window, and the
	// live per-combo loads (the warm-start profile) under the admission
	// lock; everything after runs without it.
	a.mu.Lock()
	batch := a.futureBatch[:0]
	for i := 0; i < a.nCommitted; i++ {
		batch = append(batch, a.committed[i].d)
	}
	n := len(a.streamDeps)
	for k := 0; k < a.cfg.ScenarioDepth && k < n; k++ {
		d := a.streamDeps[(a.scCursor+k)%n]
		// Future-window IDs must not collide with committed ones; the ILP
		// itself is index-based, but keep the batch well-formed.
		d.ID = -(k + 1)
		batch = append(batch, d)
	}
	prevLoad := make([]float64, a.nCombos)
	copy(prevLoad, a.comboPow)
	a.futureBatch = batch
	a.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}

	prob := placement.BatchILP(a.room, batch)
	nc := a.nCombos
	incumbent := placement.WarmStart(milp.NewColumns(prob), batch, nc, prevLoad)
	warmObj := 0.0
	if incumbent != nil {
		warmObj = prob.ObjectiveValue(incumbent)
	}
	ctx, cancel := context.WithTimeout(ctx, a.cfg.ResolveBudget)
	defer cancel()
	res, err := milp.SolveContext(ctx, prob, milp.Options{
		MaxNodes:  a.cfg.ResolveNodes,
		Incumbent: incumbent,
		RelGap:    0.001,
	})
	if err != nil {
		return err
	}
	a.cfg.Metrics.Resolves.Inc()
	var x []float64
	switch res.Status {
	case milp.Optimal, milp.Feasible:
		x = res.X
	}
	if x == nil {
		return nil
	}
	const mw = 1e6 // the batch ILP objective is in MW
	target := make([]float64, nc)
	for di := range batch {
		pow := float64(batch[di].TotalPower())
		for c := 0; c < nc; c++ {
			if x[di*nc+c] > 0.5 {
				target[c] += pow
				break
			}
		}
	}
	obj := prob.ObjectiveValue(x) * mw
	if obj > warmObj*mw+float64(power.CapacityTolerance) {
		a.cfg.Metrics.ResolveImprovements.Inc()
	}
	a.cfg.Metrics.ResolveObjective.Set(obj)
	a.guidance.Store(&guidance{target: target})
	return nil
}

// StartResolve launches the background resolver goroutine: it waits for
// the admission path's every-ResolveEvery trigger and runs ResolveOnce
// per trigger. The returned stop function cancels the goroutine and
// waits for it; it is idempotent. A second StartResolve while one is
// live is a no-op returning a no-op stop.
func (a *Admitter) StartResolve(ctx context.Context) (stop func()) {
	a.mu.Lock()
	if a.started || a.cfg.ResolveEvery < 0 {
		a.mu.Unlock()
		return func() {}
	}
	a.started = true
	a.mu.Unlock()
	rctx, cancel := context.WithCancel(ctx)
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		for {
			select {
			case <-rctx.Done():
				return
			case <-a.resolveCh:
				// Best-effort: a canceled or deadline-hit solve keeps the
				// previous guidance; the next trigger retries.
				_ = a.ResolveOnce(rctx)
			}
		}
	}()
	var once bool
	return func() {
		if once {
			return
		}
		once = true
		cancel()
		a.wg.Wait()
		a.mu.Lock()
		a.started = false
		a.mu.Unlock()
	}
}

// takeResolvePending consumes the every-ResolveEvery trigger for inline
// (SyncResolve) resolving.
func (a *Admitter) takeResolvePending() bool {
	a.mu.Lock()
	p := a.resolvePending
	a.resolvePending = false
	a.mu.Unlock()
	return p
}
