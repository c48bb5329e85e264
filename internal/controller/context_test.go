package controller

import (
	"context"
	"errors"
	"sync"
	"testing"

	"flex/internal/impact"
	"flex/internal/obs"
	"flex/internal/power"
)

// errAfterCtx wraps a context and starts reporting an error after Err has
// been polled n times — a deterministic stand-in for a budget expiring in
// the middle of a planning pass.
type errAfterCtx struct {
	context.Context
	mu    sync.Mutex
	left  int
	cause error
}

func (c *errAfterCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left > 0 {
		c.left--
		return nil
	}
	return c.cause
}

func TestPlanContextExpiryReturnsPartialPlan(t *testing.T) {
	topo := testRoom(t)
	racks := testRacks(topo)
	ups := []power.Watts{0, 120 * power.KW, 120 * power.KW, 120 * power.KW}
	inactive := map[power.UPSID]bool{0: true}
	in := PlanInput{
		Topo:      topo,
		Racks:     racks,
		UPSPower:  ups,
		RackPower: rackPowers(racks),
		Inactive:  inactive,
		Scenario:  impact.Default(),
		Buffer:    power.KW,
	}
	full, _, err := PlanContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 2 {
		t.Fatalf("fixture too easy: full plan has %d actions", len(full))
	}

	cause := errors.New("plan budget spent")
	ctx := &errAfterCtx{Context: context.Background(), left: 2, cause: cause}
	partial, insufficient, err := PlanContext(ctx, in)
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want %v", err, cause)
	}
	if !insufficient {
		t.Fatal("a truncated plan must report insufficient")
	}
	if len(partial) == 0 || len(partial) >= len(full) {
		t.Fatalf("partial plan has %d actions, full has %d; want a proper nonempty prefix", len(partial), len(full))
	}
	// The truncated plan must be a prefix of the full greedy order: the
	// ctx check cannot change what Algorithm 1 picks, only when it stops.
	for i, a := range partial {
		if a != full[i] {
			t.Fatalf("partial[%d] = %+v, full[%d] = %+v", i, a, i, full[i])
		}
	}
}

func TestPlanContextCanceledUpfront(t *testing.T) {
	topo := testRoom(t)
	racks := testRacks(topo)
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("stop planning")
	cancel(cause)
	actions, insufficient, err := PlanContext(ctx, PlanInput{
		Topo:      topo,
		Racks:     racks,
		UPSPower:  []power.Watts{0, 120 * power.KW, 120 * power.KW, 120 * power.KW},
		RackPower: rackPowers(racks),
		Inactive:  map[power.UPSID]bool{0: true},
		Scenario:  impact.Default(),
		Buffer:    power.KW,
	})
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want %v", err, cause)
	}
	if len(actions) != 0 || !insufficient {
		t.Fatalf("got %d actions, insufficient=%v", len(actions), insufficient)
	}
}

// TestStepContextAbortRecordsPartialPlan: a step whose ctx dies during
// planning keeps the (possibly empty) truncated plan, marks the outcome,
// and bumps the plan-abort counter rather than the plan-error one.
func TestStepContextAbortRecordsPartialPlan(t *testing.T) {
	h := newHarness(t)
	c := h.controller("ctl-abort")
	m := NewMetrics(obs.NewRegistry())
	c.cfg.Metrics = m

	h.feed([]power.Watts{0, 120 * power.KW, 120 * power.KW, 120 * power.KW})
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errors.New("shutting down"))
	out := c.StepContext(ctx)
	if !out.Overdraw {
		t.Fatal("overdraw not detected")
	}
	if got := m.PlanAborts.Value(); got != 1 {
		t.Fatalf("PlanAborts = %d, want 1", got)
	}
	if got := m.PlanErrors.Value(); got != 0 {
		t.Fatalf("PlanErrors = %d, want 0", got)
	}
	if out.Enforced != len(out.Planned) {
		t.Fatalf("enforced %d of %d planned", out.Enforced, len(out.Planned))
	}
}
