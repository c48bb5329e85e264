// Package online implements online incremental placement: deployments
// arrive one at a time and are accepted or rejected in microseconds to
// milliseconds, without touching the MILP on the decision path (DESIGN.md
// "Online placement"; "Online Rack Placement in Large-Scale Data Centers"
// is the closest published system — online sampling optimization,
// deployed at Microsoft).
//
// The hot path is an Admitter holding the room's placement.Occupancy — the
// same residual state and limits the batch policies place through — and
// per-combo aggregates of it. Each place or remove updates the tables in
// O(combos touched), so admission is a table lookup plus a handful of
// float comparisons — allocation-free (//flex:hotpath, proven by the
// allocfree analyzer and pinned by an AllocsPerRun test).
//
// Candidate combos are scored with sampled future-arrival scenarios:
// greedy completions of sampled demand suffixes (reusing the
// internal/workload generator; Scenarios × ScenarioDepth replayed arrivals
// per candidate, which is where a contested decision's time goes — see
// scenario.go), plus a deviation penalty against the target per-combo load
// profile published by the warm background solver (see resolve.go). The
// exact solver never blocks a decision: it re-solves the committed state
// asynchronously and publishes improved guidance via an atomic pointer swap
// the hot path snapshots.
package online

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flex/internal/obs"
	"flex/internal/placement"
	"flex/internal/power"
	"flex/internal/workload"
)

// Config parameterizes an Admitter (and the Online policy wrapping it).
// The zero value selects the defaults documented per field.
type Config struct {
	// Seed drives scenario-stream generation. The same seed and trace
	// reproduce the same decisions (with SyncResolve or with the resolver
	// disabled; an async resolver publishes guidance at racy times).
	Seed int64
	// Scenarios is the number of sampled future-arrival suffixes scored
	// per contested admission. 0 means 4; negative disables scenario
	// scoring (the deviation term against the solver target remains).
	Scenarios int
	// ScenarioDepth is the number of future deployments greedily completed
	// per scenario. 0 means 16.
	ScenarioDepth int
	// ScenarioTrace overrides the sampled arrival stream. Nil generates a
	// default stream from the room's provisioned power with the paper's
	// §V-A demand statistics.
	ScenarioTrace []workload.Deployment
	// ResolveEvery triggers a background (or, with SyncResolve, inline)
	// exact re-solve after that many admissions. 0 means 16; negative
	// disables the warm solver entirely.
	ResolveEvery int
	// ResolveNodes bounds each re-solve's branch-and-bound nodes. 0 means
	// 400.
	ResolveNodes int
	// ResolveBudget bounds each re-solve's wall time. 0 means 2s.
	ResolveBudget time.Duration
	// SyncResolve runs re-solves inline on the admission loop instead of
	// in a background goroutine — deterministic, for tests and smokes.
	SyncResolve bool
	// Metrics receives admission and resolver observability. Nil wires a
	// private throwaway registry so the hot path never branches on nil.
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.Scenarios == 0 {
		c.Scenarios = 4
	}
	if c.ScenarioDepth == 0 {
		c.ScenarioDepth = 16
	}
	if c.ResolveEvery == 0 {
		c.ResolveEvery = 16
	}
	if c.ResolveNodes == 0 {
		c.ResolveNodes = 400
	}
	if c.ResolveBudget == 0 {
		c.ResolveBudget = 2 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(obs.NewRegistry())
	}
	return c
}

// committedRec is one live deployment with its PDU-pair.
type committedRec struct {
	d   workload.Deployment
	pid power.PDUPairID
}

// guidance is the solver-published steering state the hot path snapshots
// via atomic pointer swap. target is the per-combo load (watts) of the
// best known exact plan for committed-plus-sampled-future demand.
type guidance struct {
	target []float64
}

// Admitter is the online placement engine for one room. All methods are
// safe for concurrent use; Admit and Remove stay on the allocation-free
// hot path. The zero value is not usable — call NewAdmitter.
type Admitter struct {
	mu   sync.Mutex
	room *placement.Room
	cfg  Config

	combos  []placement.Combo
	nCombos int

	// Combo geometry.
	comboOfPair []int

	// occ is the room's residual state and limits; comboSlots and comboPow
	// are its per-combo sums, which the scorer reads. All three are
	// updated in O(combos touched) per place/remove.
	occ        *placement.Occupancy
	comboSlots []int
	comboPow   []float64

	// Committed deployments; bounded by the room's total rack slots, so
	// the backing array never grows after construction.
	committed  []committedRec
	nCommitted int
	idIndex    map[int]int

	// Scenario stream and scoring scratch (scenario.go).
	stream    []scenarioDep
	scCursor  int
	candPair  []power.PDUPairID // per-combo chosen pair for the admission in flight; -1 infeasible
	runSafety *power.Ledger     // scratch copy of the occupancy's ledger for the simulated completions
	runSlots  []int
	runPow    []float64
	// Per-completion scratch of simulateSuffixLocked: the combos in (runPow,
	// index) order, and per combo the smallest pow Eq. 2 and the smallest
	// capPow Eq. 4 have refused since the completion began.
	runOrder   []int
	refusedPow []power.Watts
	refusedCap []power.Watts

	// Warm-solver state (resolve.go).
	guidance       atomic.Pointer[guidance]
	resolveCh      chan struct{}
	sinceResolve   int
	resolvePending bool
	wg             sync.WaitGroup
	started        bool
	streamDeps     []workload.Deployment // scenario stream in Deployment form
	resolveMu      sync.Mutex            // serialises ResolveOnce; guards futureBatch
	futureBatch    []workload.Deployment // resolver-side scratch, cold path

	decisions uint64
}

// NewAdmitter builds the incremental admission state for room. Rooms with
// row-level space modelling are not supported (the row fit search is not
// allocation-free); placement.Policy callers use FlexOffline for those.
func NewAdmitter(room *placement.Room, cfg Config) (*Admitter, error) {
	if room.RowsPerPair > 0 || room.RowSlots > 0 {
		return nil, fmt.Errorf("online: row-level space modelling is not supported on the admission hot path")
	}
	cfg = cfg.withDefaults()
	topo := room.Topo
	combos := placement.CombosOf(topo)
	nc := len(combos)
	if nc == 0 {
		return nil, fmt.Errorf("online: room has no PDU-pairs")
	}
	occ := placement.NewOccupancy(room)
	a := &Admitter{
		room:        room,
		cfg:         cfg,
		combos:      combos,
		nCombos:     nc,
		comboOfPair: make([]int, len(topo.Pairs)),
		occ:         occ,
		comboSlots:  make([]int, nc),
		comboPow:    make([]float64, nc),
		candPair:    make([]power.PDUPairID, nc),
		runSafety:   occ.Ledger().Clone(),
		runSlots:    make([]int, nc),
		runPow:      make([]float64, nc),
		runOrder:    make([]int, nc),
		refusedPow:  make([]power.Watts, nc),
		refusedCap:  make([]power.Watts, nc),
		resolveCh:   make(chan struct{}, 1),
	}
	for c, cb := range combos {
		for _, pid := range cb.Pairs {
			a.comboOfPair[pid] = c
			a.comboSlots[c] += room.SlotsPerPair[pid]
		}
	}
	maxDeps := room.TotalSlots()
	a.committed = make([]committedRec, maxDeps)
	a.idIndex = make(map[int]int, maxDeps)
	if err := a.initScenarios(); err != nil {
		return nil, err
	}
	// The pre-solve default steers toward an even spread: each combo's
	// share of the room's allocatable power.
	target := make([]float64, nc)
	for c := range target {
		target[c] = float64(room.AllocatablePower()) / float64(nc)
	}
	a.guidance.Store(&guidance{target: target})
	return a, nil
}

// Admit decides placement of d and commits it on acceptance, returning
// the chosen PDU-pair. The decision is a table lookup plus a handful of
// float comparisons against the incrementally maintained residual
// headroom; contested admissions are scored with sampled future-arrival
// scenarios and the background solver's target profile. Rejections leave
// the state untouched. Safe for concurrent use.
//
//flex:hotpath
func (a *Admitter) Admit(d workload.Deployment) (power.PDUPairID, bool) {
	a.mu.Lock()
	pid, why := a.admitLocked(d)
	a.mu.Unlock()
	if pid >= 0 {
		a.cfg.Metrics.Admitted.Inc()
	} else {
		a.cfg.Metrics.Rejected.Inc()
		a.cfg.Metrics.rejections[why].Inc()
	}
	return pid, pid >= 0
}

// admitLocked is Admit under the lock: the pair, or -1 and why not.
func (a *Admitter) admitLocked(d workload.Deployment) (power.PDUPairID, reason) {
	a.decisions++
	a.scCursor++
	if a.scCursor >= len(a.stream) {
		a.scCursor = 0
	}
	// Every safety check below is a > that NaN answers false and a negative
	// power slips under, so the deployment's own numbers come first.
	if !d.Valid() {
		return -1, reasonInvalid
	}
	if _, dup := a.idIndex[d.ID]; dup || a.nCommitted >= len(a.committed) {
		return -1, reasonInvalid
	}
	pow, capPow := d.TotalPower(), a.room.CapPow(d)
	// Room-level budgets first: cooling and the diversity reserve bind
	// identically for every combo.
	placed, placedCap := a.occ.Placed()
	if why := a.occ.RoomLimit(placed+pow, placedCap+capPow); why != placement.Fits {
		return -1, why
	}
	nFeasible, only := 0, -1
	furthest := placement.OverSlots // the limit that stopped the combo that got furthest
	for c := 0; c < a.nCombos; c++ {
		a.candPair[c] = -1
		if a.comboSlots[c] < d.Racks {
			continue
		}
		cb := &a.combos[c]
		stopped := a.occ.UPSLimit(cb.UPSes[0], cb.UPSes[1], pow, capPow)
		if stopped == placement.Fits {
			var pid power.PDUPairID
			if pid, stopped = a.occ.BestPair(cb.Pairs, d.Racks, pow); stopped == placement.Fits {
				a.candPair[c] = pid
				nFeasible++
				only = c
				continue
			}
		}
		furthest = max(furthest, stopped)
	}
	if nFeasible == 0 {
		return -1, furthest
	}
	best := only
	if nFeasible > 1 {
		best = a.scoreCandidatesLocked(pow, capPow, d.Racks)
	}
	pid := a.candPair[best]
	a.applyLocked(d, best, pid, pow)
	return pid, placement.Fits
}

// applyLocked commits d to pair pid on combo c, updating every residual
// table in O(combos touched).
func (a *Admitter) applyLocked(d workload.Deployment, c int, pid power.PDUPairID, pow power.Watts) {
	a.occ.Add(d, pid)
	a.comboSlots[c] -= d.Racks
	a.comboPow[c] += float64(pow)
	a.committed[a.nCommitted] = committedRec{d: d, pid: pid}
	a.idIndex[d.ID] = a.nCommitted
	a.nCommitted++
	placed, _ := a.occ.Placed()
	a.cfg.Metrics.PlacedWatts.Set(float64(placed))
	a.sinceResolve++
	if a.cfg.ResolveEvery > 0 && a.sinceResolve >= a.cfg.ResolveEvery {
		a.sinceResolve = 0
		a.resolvePending = true
		if a.started {
			select {
			case a.resolveCh <- struct{}{}:
			default:
			}
		}
	}
}

// Remove frees a committed deployment by ID, reversing its contribution
// to every residual table. It reports whether the ID was present. Safe
// for concurrent use.
//
//flex:hotpath
func (a *Admitter) Remove(id int) bool {
	a.mu.Lock()
	idx, ok := a.idIndex[id]
	if !ok {
		a.mu.Unlock()
		return false
	}
	rec := a.committed[idx]
	c := a.comboOfPair[rec.pid]
	a.occ.Remove(rec.d, rec.pid)
	a.comboSlots[c] += rec.d.Racks
	a.comboPow[c] -= float64(rec.d.TotalPower())
	last := a.nCommitted - 1
	a.committed[idx] = a.committed[last]
	a.idIndex[a.committed[idx].d.ID] = idx
	a.committed[last] = committedRec{}
	delete(a.idIndex, id)
	a.nCommitted--
	placed, _ := a.occ.Placed()
	a.cfg.Metrics.PlacedWatts.Set(float64(placed))
	a.mu.Unlock()
	a.cfg.Metrics.Removed.Inc()
	return true
}

// Snapshot is a point-in-time summary of the admitter's committed state.
type Snapshot struct {
	Committed   int
	PlacedPower power.Watts
	// ComboLoad is the allocated power per UPS combination, in CombosOf
	// order.
	ComboLoad []power.Watts
	// TargetLoad is the per-combo target profile the hot path currently
	// steers toward (solver-published, or the even-spread default).
	TargetLoad []power.Watts
	// Decisions counts admission decisions.
	//
	//flex:keep TestAdmitDecisionsGolden hashes it
	Decisions uint64
}

// Snapshot returns a copy of the committed totals for reporting.
func (a *Admitter) Snapshot() Snapshot {
	a.mu.Lock()
	placed, _ := a.occ.Placed()
	s := Snapshot{
		Committed:   a.nCommitted,
		PlacedPower: placed,
		ComboLoad:   make([]power.Watts, a.nCombos),
		Decisions:   a.decisions,
	}
	for c, w := range a.comboPow {
		s.ComboLoad[c] = power.Watts(w)
	}
	a.mu.Unlock()
	g := a.guidance.Load()
	s.TargetLoad = make([]power.Watts, len(g.target))
	for c, w := range g.target {
		s.TargetLoad[c] = power.Watts(w)
	}
	return s
}

// Assignments returns a copy of the committed deployment→pair map, in
// the shape placement.Placement consumes.
func (a *Admitter) Assignments() map[int]power.PDUPairID {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[int]power.PDUPairID, a.nCommitted)
	for i := 0; i < a.nCommitted; i++ {
		out[a.committed[i].d.ID] = a.committed[i].pid
	}
	return out
}
