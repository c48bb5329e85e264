package online

import (
	"context"
	"time"

	"flex/internal/placement"
	"flex/internal/workload"
)

// Online is the placement.Policy view of the admitter: it feeds a trace
// through Admit one deployment at a time, exactly as arrivals would reach
// a production admission endpoint. With the default configuration the
// warm background resolver runs for the duration of the trace; with
// Config.SyncResolve the re-solves happen inline at the same cadence,
// making the whole placement deterministic for a fixed Config.Seed.
type Online struct {
	Config Config
	// Label overrides Name() (e.g. "Online-NoResolve" in ablations).
	Label string
}

// wallNow times each admission for the latency histogram, which reports
// host time, not virtual time. It is never read on the proven hot path.
var wallNow = time.Now

// Name implements placement.Policy.
func (o Online) Name() string {
	if o.Label != "" {
		return o.Label
	}
	return "Online"
}

// Place implements placement.Policy. The per-deployment admission runs on
// the allocation-free hot path; this wrapper adds the ctx check and the
// latency observation around each decision.
func (o Online) Place(ctx context.Context, room *placement.Room, trace []workload.Deployment) (*placement.Placement, error) {
	adm, err := NewAdmitter(room, o.Config)
	if err != nil {
		return nil, err
	}
	cfg := adm.cfg // defaults applied
	if !cfg.SyncResolve && cfg.ResolveEvery > 0 {
		stop := adm.StartResolve(ctx)
		defer stop()
	}
	for _, d := range trace {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		start := wallNow()
		adm.Admit(d)
		cfg.Metrics.Latency.Observe(wallNow().Sub(start).Seconds())
		if cfg.SyncResolve && adm.takeResolvePending() {
			if err := adm.ResolveOnce(ctx); err != nil {
				return nil, err
			}
		}
	}
	return &placement.Placement{
		Room:        room,
		Deployments: trace,
		Assignments: adm.Assignments(),
	}, nil
}
