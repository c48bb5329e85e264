// Package online implements online incremental placement: deployments
// arrive one at a time and are accepted or rejected in microseconds to
// milliseconds, without touching the MILP on the decision path (DESIGN.md
// "Online placement"; "Online Rack Placement in Large-Scale Data Centers"
// is the closest published system — online sampling optimization,
// deployed at Microsoft).
//
// The hot path is an Admitter holding incremental safety state per room:
// a power.Ledger (the same Eq. 2 / Eq. 4 state the batch policies place
// through), per-combo residual slots and load, and the cooling /
// pair-rating / diversity budgets. Each place or remove updates the tables
// in O(combos touched), so admission is a table lookup plus a handful of
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

// coolTol mirrors the cooling slack used by placement's canPlace.
const coolTol = 1e-6

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
	// SkipDiversityReserve disables the workload-diversity headroom check
	// (see FlexOffline.SkipDiversityReserve): by default the admitter
	// keeps the cumulative post-shave allocation within the failover
	// budget so early non-shaveable-heavy arrivals cannot strand the
	// remaining capacity.
	SkipDiversityReserve bool
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
	oversub float64

	// Static limits, precomputed at construction.
	pairCap     power.Watts // per-pair rating; 0 disables
	coolPerWatt float64     // CFM per placed watt; 0 disables cooling checks
	coolCFM     float64
	capBudget   power.Watts // diversity reserve budget; <0 disables

	// Combo geometry.
	comboOfPair []int

	// Live residual state, updated in O(combos touched) per place/remove.
	slotsLeft    []int
	pairPow      []power.Watts
	safety       *power.Ledger // Eq. 2 / Eq. 4 state of everything committed
	comboSlots   []int
	comboPow     []float64
	placedPow    power.Watts
	placedCapPow power.Watts

	// Committed deployments; bounded by the room's total rack slots, so
	// the backing array never grows after construction.
	committed  []committedRec
	nCommitted int
	idIndex    map[int]int

	// Scenario stream and scoring scratch (scenario.go).
	stream    []scenarioDep
	scCursor  int
	candPair  []int         // per-combo chosen pair for the admission in flight; -1 infeasible
	runSafety *power.Ledger // scratch copy of safety for the simulated completions
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
	oversub := room.Oversubscription
	if oversub < 1 {
		oversub = 1
	}
	safety := room.NewLedger()
	a := &Admitter{
		room:        room,
		cfg:         cfg,
		combos:      combos,
		nCombos:     nc,
		oversub:     oversub,
		pairCap:     room.PairCapacity,
		coolCFM:     room.CoolingCFM,
		capBudget:   -1,
		comboOfPair: make([]int, len(topo.Pairs)),
		slotsLeft:   append([]int(nil), room.SlotsPerPair...),
		pairPow:     make([]power.Watts, len(topo.Pairs)),
		safety:      safety,
		comboSlots:  make([]int, nc),
		comboPow:    make([]float64, nc),
		candPair:    make([]int, nc),
		runSafety:   safety.Clone(),
		runSlots:    make([]int, nc),
		runPow:      make([]float64, nc),
		runOrder:    make([]int, nc),
		refusedPow:  make([]power.Watts, nc),
		refusedCap:  make([]power.Watts, nc),
		resolveCh:   make(chan struct{}, 1),
	}
	if room.CoolingCFM > 0 {
		a.coolPerWatt = room.CFMPerWatt
	}
	if !cfg.SkipDiversityReserve {
		a.capBudget = power.Watts(float64(topo.ProvisionedPower()) * topo.Design.AllocationLimitFraction())
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
	if why == admitted {
		a.cfg.Metrics.Admitted.Inc()
	} else {
		a.cfg.Metrics.Rejected.Inc()
		a.cfg.Metrics.rejections[why].Inc()
	}
	return pid, why == admitted
}

// admitLocked is Admit under the lock: the pair and admitted, or -1 and why
// not.
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
	pow := d.TotalPower()
	capPow := power.Watts(float64(d.CapPower()) / a.oversub)
	// Room-level budgets first: cooling and the diversity reserve bind
	// identically for every combo.
	if a.coolPerWatt > 0 && float64(a.placedPow+pow)*a.coolPerWatt > a.coolCFM+coolTol {
		return -1, reasonCooling
	}
	if a.capBudget >= 0 && a.placedCapPow+capPow > a.capBudget+power.CapacityTolerance {
		return -1, reasonDiversityReserve
	}
	nFeasible, only := 0, -1
	furthest := reasonSlots // the check that stopped the combo that got furthest
	for c := 0; c < a.nCombos; c++ {
		a.candPair[c] = -1
		if a.comboSlots[c] < d.Racks {
			continue
		}
		stopped := reasonSlots
		switch a.safety.Check(a.combos[c].UPSes[0], a.combos[c].UPSes[1], pow, capPow) {
		case power.OverNormalLimit:
			stopped = reasonNormalLimit
		case power.OverFailoverCapacity:
			stopped = reasonFailoverCapacity
		default:
			pair := a.bestPairLocked(c, d.Racks, pow)
			if pair >= 0 {
				a.candPair[c] = pair
				nFeasible++
				only = c
				continue
			}
			if pair == pairsOverRating {
				stopped = reasonPairRating
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
	pid := power.PDUPairID(a.candPair[best])
	a.applyLocked(d, best, pid, pow, capPow)
	return pid, admitted
}

// What bestPairLocked returns in place of a pair: no pair of the combo has
// the rack space, or one does and the rating refused every such pair.
const (
	pairsFull       = -1
	pairsOverRating = -2
)

// bestPairLocked returns the best-fit feasible pair of combo c (smallest
// sufficient free space, honoring the pair rating), or pairsFull or
// pairsOverRating.
func (a *Admitter) bestPairLocked(c, racks int, pow power.Watts) int {
	best, bestFree := pairsFull, int(^uint(0)>>1)
	for _, pid := range a.combos[c].Pairs {
		free := a.slotsLeft[pid]
		if free < racks || free >= bestFree {
			continue
		}
		if a.pairCap > 0 && a.pairPow[pid]+pow > a.pairCap+power.CapacityTolerance {
			if best < 0 {
				best = pairsOverRating
			}
			continue
		}
		best, bestFree = int(pid), free
	}
	return best
}

// applyLocked commits d to pair pid on combo c, updating every residual
// table in O(combos touched).
func (a *Admitter) applyLocked(d workload.Deployment, c int, pid power.PDUPairID, pow, capPow power.Watts) {
	a.slotsLeft[pid] -= d.Racks
	a.comboSlots[c] -= d.Racks
	a.pairPow[pid] += pow
	a.comboPow[c] += float64(pow)
	a.safety.Add(a.combos[c].UPSes[0], a.combos[c].UPSes[1], pow, capPow)
	a.placedPow += pow
	a.placedCapPow += capPow
	a.committed[a.nCommitted] = committedRec{d: d, pid: pid}
	a.idIndex[d.ID] = a.nCommitted
	a.nCommitted++
	a.cfg.Metrics.PlacedWatts.Set(float64(a.placedPow))
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
	pow := rec.d.TotalPower()
	capPow := power.Watts(float64(rec.d.CapPower()) / a.oversub)
	a.slotsLeft[rec.pid] += rec.d.Racks
	a.comboSlots[c] += rec.d.Racks
	a.pairPow[rec.pid] -= pow
	a.comboPow[c] -= float64(pow)
	a.safety.Add(a.combos[c].UPSes[0], a.combos[c].UPSes[1], -pow, -capPow)
	a.placedPow -= pow
	a.placedCapPow -= capPow
	last := a.nCommitted - 1
	a.committed[idx] = a.committed[last]
	a.idIndex[a.committed[idx].d.ID] = idx
	a.committed[last] = committedRec{}
	delete(a.idIndex, id)
	a.nCommitted--
	a.cfg.Metrics.PlacedWatts.Set(float64(a.placedPow))
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
	s := Snapshot{
		Committed:   a.nCommitted,
		PlacedPower: a.placedPow,
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

// Ledger returns a copy of the committed Eq. 2 / Eq. 4 safety state.
//
//flex:keep placement's FuzzStateMatchesAdmitter holds the batch state's ledger to the admitter's
func (a *Admitter) Ledger() *power.Ledger {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.safety.Clone()
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
