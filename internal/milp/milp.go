// Package milp implements a parallel branch-and-bound solver for 0/1
// packing integer programs — the class the paper's Flex-Offline ILP (Eq.
// 1–5, §IV-B) belongs to — on top of the simplex solver in internal/lp.
// Together they
// stand in for the Gurobi solver the paper drives from its placement
// simulator (§V-A); like the paper — which stops Gurobi after 5 minutes —
// milp accepts a deadline on its context and returns the best incumbent
// found so far.
//
// SolveContext is the primary entry point. The search runs in rounds: a
// round takes the best-bound nodes off the frontier and makes each the
// head of a dive — evaluate the node, keep its ceil child, repeat until a
// leaf, a prune or the dive's share of the node budget — and
// Options.Workers goroutines run the round's dives side by side. Which
// nodes a round takes, how far each dive may go and the order its results
// are applied in depend on the problem and the node budget alone, so any
// worker count explores the same tree and returns the same result.
package milp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flex/internal/lp"
)

// Problem is a 0/1 packing program: maximize LP.Objective·x over binary x
// subject to every row of LP, each Σ a·x <= b with a >= 0. x = 0 meets
// every row whose b is not negative, and lowering any variable keeps a
// point feasible. Validate states the class exactly.
type Problem struct {
	LP lp.Problem
}

// Validate reports why p is not a 0/1 packing program, or nil when it is:
// at least one variable; finite, non-negative objective entries and
// coefficients; no row longer than the variable count; finite right-hand
// sides; and every variable bounded at <= 1 by some row, one whose
// coefficient a on it exceeds zeroTol and whose b is at most a. The
// bound is what makes x binary: there are no bound rows, and the
// relaxation of every node stays inside the unit box.
func (p *Problem) Validate() error {
	n := p.LP.NumVars()
	if n == 0 {
		return errors.New("milp: problem has no variables")
	}
	for j, c := range p.LP.Objective {
		if !(c >= 0) || math.IsInf(c, 1) {
			return fmt.Errorf("milp: objective entry %d is %v, want finite and non-negative", j, c)
		}
	}
	bounded := make([]bool, n)
	for i := range p.LP.Constraints {
		c := &p.LP.Constraints[i]
		if len(c.Coeffs) > n {
			return fmt.Errorf("milp: constraint %d has %d coefficients for %d variables", i, len(c.Coeffs), n)
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("milp: constraint %d has right-hand side %v, want finite", i, c.RHS)
		}
		for j, a := range c.Coeffs {
			if !(a >= 0) || math.IsInf(a, 1) {
				return fmt.Errorf("milp: constraint %d has coefficient %v on variable %d, want finite and non-negative", i, a, j)
			}
			if a > zeroTol && c.RHS <= a {
				bounded[j] = true
			}
		}
	}
	for j, ok := range bounded {
		if !ok {
			return fmt.Errorf("milp: no constraint bounds variable %d at <= 1", j)
		}
	}
	return nil
}

// Options tunes the search.
type Options struct {
	// Workers is the number of goroutines that run a round's dives. Zero or
	// negative means runtime.NumCPU(); one runs the search serially. The
	// result — objective, status, solution, node count — is the same for
	// every value. (Wall-clock limits remain timing-dependent; use MaxNodes
	// for reproducible truncation.)
	Workers int
	// Deterministic is accepted and ignored: the search is always
	// worker-count-independent.
	//
	// Deprecated: there is one engine and no mode to select. The field
	// stays only because bench/ladder.go sets it and a change that claims
	// a gain may not edit the benchmark; it goes with the next benchmark
	// revision (ROADMAP item 3(b)).
	Deterministic bool
	// MaxNodes bounds the number of explored branch-and-bound nodes;
	// zero means no limit.
	MaxNodes int
	// Incumbent, when non-nil, is a candidate solution used to warm-start
	// pruning. It is verified for feasibility and integrality first.
	Incumbent []float64
	// Heuristic, when non-nil, builds a candidate integral solution from a
	// fractional relaxation solution (e.g. Packing.RoundDownAndComplete:
	// rounding + greedy completion) in pk, and returns true when pk.X holds
	// one. pk is the calling worker's scratch, a Packing over the problem
	// made once per solve and Reset to the zero vector before every call.
	// The search verifies the candidate and copies it only if it improves
	// on the incumbent, so a call allocates nothing for a candidate the
	// search drops. With Workers > 1 it is called concurrently from several
	// workers, each with its own pk, and must otherwise be safe for
	// concurrent use (pure functions are). relaxed and pk are per-worker
	// scratch: the heuristic must not modify relaxed, nor retain either
	// after returning.
	Heuristic func(relaxed []float64, pk *Packing) bool
	// RelGap, when positive, stops the search once the incumbent is within
	// this relative distance of the best open bound (e.g. 0.01 = 1%). The
	// result is then reported as Optimal within the gap.
	RelGap float64
	// Now supplies time (for tests); nil uses time.Now. It is never called
	// concurrently — the scheduler calls it between rounds and workers
	// stamp their finish under one lock — so non-thread-safe test clocks
	// are fine.
	Now func() time.Time
	// Metrics, when non-nil, accumulates search statistics (nodes, simplex
	// pivots, limit hits, incumbent improvements, worker idle time) across
	// solves.
	Metrics *Metrics
}

// Status is the outcome of a MILP solve.
type Status int

// Solve outcomes.
const (
	// Optimal: the incumbent is proven optimal.
	Optimal Status = iota
	// Feasible: the search hit a limit; the incumbent is feasible but not
	// proven optimal (the paper's "stop the ILP solver after 5 minutes").
	Feasible
	// Infeasible: no 0/1 point meets every row.
	Infeasible
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// StopReason says why a search ended before proving optimality. Every
// truncated search reports exactly one reason; StopNone means the frontier
// was exhausted (the result is exact, or exact within RelGap).
type StopReason int

// Stop reasons.
const (
	// StopNone: the search ran to completion.
	StopNone StopReason = iota
	// StopDeadline: the context's deadline expired.
	StopDeadline
	// StopNodeLimit: Options.MaxNodes was reached.
	StopNodeLimit
	// StopCanceled: the context was canceled; SolveContext also returns
	// context.Cause(ctx) alongside the partial result.
	StopCanceled
)

// String implements fmt.Stringer.
func (s StopReason) String() string {
	switch s {
	case StopNone:
		return "none"
	case StopDeadline:
		return "deadline"
	case StopNodeLimit:
		return "node-limit"
	case StopCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("StopReason(%d)", int(s))
	}
}

// Result is the outcome of a solve.
type Result struct {
	Status    Status
	X         []float64
	Objective float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// SimplexIterations is the total simplex pivots spent across all node
	// relaxations.
	SimplexIterations int
	// Stop records why a truncated search stopped; StopNone when the
	// frontier was exhausted.
	Stop StopReason
	// Cause is context.Cause(ctx) when Stop == StopCanceled, nil otherwise.
	Cause error
	// Workers is the worker count the search actually ran with.
	Workers int
	// Elapsed is the wall-clock duration of the search (per Options.Now).
	Elapsed time.Duration
	// IncumbentImprovements counts adoptions of a strictly better incumbent
	// (including a verified Options.Incumbent warm start).
	IncumbentImprovements int
	// WorkerIdle is the cumulative time workers spent waiting at round
	// barriers: from a worker's last dive of a round (or the round's start,
	// if it got none) to the slowest worker's finish. High values mean the
	// rounds are too narrow, or their dives too uneven, for Workers.
	WorkerIdle time.Duration
}

const (
	intEps  = 1e-6
	feasTol = 1e-7
	zeroTol = 1e-12
	// maxRoundWidth is the most frontier nodes one round takes. It is a
	// constant — independent of Workers — so the explored set is identical
	// for any worker count.
	maxRoundWidth = 16
)

// SolveContext runs branch and bound until the frontier is exhausted, a
// limit (context deadline, MaxNodes, RelGap) is reached, or ctx
// is canceled. Rounds take nodes best-bound-first, a dive follows the ceil
// child, and every node branches on its most fractional variable. A
// problem that fails Validate is refused with its error.
//
// Deadlines are budgets: the search returns the best incumbent found with
// Stop == StopDeadline and a nil error. Cancellation is an abort: the
// partial result (still carrying the best incumbent found so far) is
// returned together with context.Cause(ctx).
func SolveContext(ctx context.Context, p *Problem, opts Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}

	s := newSearch(p, opts, now)
	s.tryCandidate(opts.Incumbent)
	s.push(&node{bound: math.Inf(1)})

	// A context that expired before the search started stops it here, not
	// via the watcher goroutine: otherwise a fast solve could race the
	// watcher and report a clean completion under a dead context.
	if err := ctx.Err(); err != nil {
		if err == context.DeadlineExceeded {
			s.setStop(StopDeadline, nil)
		} else {
			s.setStop(StopCanceled, context.Cause(ctx))
		}
	}

	// Watch ctx while the search runs. A context deadline is a budget
	// (StopDeadline, nil error); anything else is an abort (StopCanceled,
	// context.Cause returned).
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-ctx.Done():
			if ctx.Err() == context.DeadlineExceeded {
				s.setStop(StopDeadline, nil)
			} else {
				s.setStop(StopCanceled, context.Cause(ctx))
			}
		case <-stopWatch:
		}
	}()

	s.run(workers)
	close(stopWatch)
	<-watchDone
	return s.finish(now(), workers)
}

// newSearch prepares the shared state of one solve: the problem by row and
// by column, the root's propagated box, and an empty incumbent.
func newSearch(p *Problem, opts Options, now func() time.Time) *search {
	s := &search{
		p:         p,
		n:         p.LP.NumVars(),
		opts:      opts,
		now:       now,
		rows:      newRowIndex(p),
		cols:      NewColumns(p),
		incumbent: math.Inf(-1),
	}
	s.root, s.rootOK = rootBox(s)
	s.start = now()
	return s
}

// node is one open subproblem: the parent relaxation bound plus an
// immutable chain of branching bound changes back to the root.
type node struct {
	bound float64  // parent relaxation objective (+Inf for root)
	seq   int64    // creation sequence number; deterministic tie-break
	chain *bchange // branching decisions, newest first; nil at the root
}

// bchange is one branching decision: variable j gained lower bound lo
// and/or upper bound up. math.Inf(-1)/math.Inf(1) mean "unchanged".
type bchange struct {
	j      int
	lo, up float64
	prev   *bchange
}

// search is the state of one SolveContext call. Apart from the stop state
// and the clock, everything in it is written only by the goroutine that
// schedules the rounds; workers read the problem data and write their own
// dive.
type search struct {
	p    *Problem
	n    int
	opts Options
	rows rowIndex // non-zero columns of every constraint row
	cols *Columns // the problem by column: the rows propagation visits, and the heuristic Packings' view
	now  func() time.Time

	root   *box // the unit box with every row propagated
	rootOK bool // false when the root's propagation found no 0/1 point

	start time.Time

	// heap is the frontier, a best-bound priority queue: bound descending,
	// then seq ascending, so ties resolve to the oldest node and the
	// exploration order is reproducible.
	heap       []*node
	seqCtr     int64 // numbers frontier nodes as they are pushed
	nodesTotal int   // evaluated nodes
	iters      int   // simplex pivots those nodes spent
	longest    int   // most nodes any one dive has evaluated

	best      *Result // Status Feasible while searching; nil if none yet
	incumbent float64 // best's objective; -Inf before the first
	improved  int

	// stopFlag mirrors the stop state for lock-free polling: 0 = running,
	// >0 = the StopReason, haltInternal = solver error.
	stopFlag atomic.Int32

	mu    sync.Mutex // guards the stop state: the context watcher writes it too
	stop  StopReason
	cause error
	err   error

	clock sync.Mutex    // serializes now() among workers stamping their finish
	idle  time.Duration // barrier wait, summed over workers and rounds
}

const haltInternal = -1

// stopped reports whether the search should halt.
func (s *search) stopped() bool { return s.stopFlag.Load() != 0 }

// setStop records the first stop reason.
func (s *search) setStop(reason StopReason, cause error) {
	s.mu.Lock()
	if s.stop == StopNone && s.err == nil {
		s.stop = reason
		s.cause = cause
		s.stopFlag.Store(int32(reason))
	}
	s.mu.Unlock()
}

// fail aborts the search with an internal solver error.
func (s *search) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
		s.stopFlag.Store(haltInternal)
	}
	s.mu.Unlock()
}

// improves reports whether cand, with its entries snapped to integers, is
// feasible for the full problem and strictly better than the objective
// inc, returning the snapped copy and its objective.
// The objective is compared first: it costs one pass and no memory, and
// most candidates lose there. It reads only the problem, so workers call
// it against a dive's own incumbent.
func (s *search) improves(cand []float64, inc float64) (x []float64, obj float64, ok bool) {
	if cand == nil || len(cand) != s.n {
		return nil, 0, false
	}
	for j, c := range s.p.LP.Objective {
		obj += c * math.Round(cand[j])
	}
	if !(obj > inc) { // not "<=": a NaN objective improves on nothing
		return nil, 0, false
	}
	x = rounded(cand)
	if !s.p.feasible(x, &s.rows) {
		return nil, 0, false
	}
	return x, obj, true
}

// tryCandidate adopts cand as the new incumbent when it improves on the
// current one. Scheduler only.
func (s *search) tryCandidate(cand []float64) {
	if x, obj, ok := s.improves(cand, s.incumbent); ok {
		s.adopt(x, obj)
	}
}

// adopt makes the verified point x, of objective obj, the incumbent.
// Scheduler only.
func (s *search) adopt(x []float64, obj float64) {
	s.best = &Result{Status: Feasible, X: x, Objective: obj}
	s.incumbent = obj
	s.improved++
}

// keep records cand in o when it improves on the dive's incumbent inc, as
// the verified, snapped copy improves makes: once a worker's scratch has
// grown to the problem, the only memory a node evaluation allocates. Workers call it; it reads only the problem.
func (s *search) keep(o *outcome, cand []float64, inc float64) {
	if x, obj, ok := s.improves(cand, inc); ok {
		o.cand, o.candObj = x, obj
	}
}

// prunable reports whether a node with the given bound cannot
// improve on the incumbent (bound dominance or the RelGap tolerance).
// Because the frontier is ordered by bound, a prunable top node makes the
// entire heap prunable.
func (s *search) prunable(bound, inc float64) bool {
	if math.IsInf(inc, -1) {
		return false
	}
	if bound <= inc+intEps {
		return true
	}
	if s.opts.RelGap > 0 && inc >= bound-s.opts.RelGap*math.Abs(bound) {
		return true
	}
	return false
}

// push adds nd to the frontier under the next sequence number.
func (s *search) push(nd *node) {
	nd.seq = s.seqCtr
	s.seqCtr++
	heapPush(&s.heap, nd)
}

// child is the node below nd on o's branching variable: the ceil ("take
// it") side or the floor side.
func (nd *node) child(o *outcome, ceil bool) *node {
	ch := &bchange{j: o.branchJ, lo: math.Inf(-1), up: math.Floor(o.branchV), prev: nd.chain}
	if ceil {
		ch.lo, ch.up = math.Ceil(o.branchV), math.Inf(1)
	}
	return &node{bound: o.bound, chain: ch}
}

// dive is one slot of a round: a frontier node and the run of ceil
// children below it, evaluated by one worker. Each level fixes another
// variable, so fix-and-substitute keeps shrinking the LP and a
// node costs less the deeper it sits, while integral leaves surface
// incumbents early.
type dive struct {
	head   *node
	budget int    // nodes the dive may evaluate
	steps  []step // evaluated nodes, head first; each but the last was followed by its ceil child
}

// step is one evaluated node of a dive.
type step struct {
	nd *node
	o  outcome
}

// run is the search loop. A round takes up to a fixed number of nodes off
// the frontier, best bound first, splits what is left of the node budget
// evenly between them, lets the workers dive from each against the
// round-start incumbent, and after the barrier applies every evaluated
// node in (slot, level) order. None of that looks at the worker count or
// a clock, so the explored tree — and therefore the result — is identical
// for any Workers value.
func (s *search) run(workers int) {
	pool := make([]*worker, workers)
	for i := range pool {
		pool[i] = newWorker(s)
	}
	dives := make([]dive, 0, maxRoundWidth)
	for !s.stopped() {
		inc := s.incumbent
		if len(s.heap) == 0 || s.prunable(s.heap[0].bound, inc) {
			return // frontier exhausted: nothing is left that could improve on inc
		}
		remaining := math.MaxInt
		if s.opts.MaxNodes > 0 {
			if remaining = s.opts.MaxNodes - s.nodesTotal; remaining <= 0 {
				s.setStop(StopNodeLimit, nil)
				return
			}
		}
		start := s.now()
		width := s.roundWidth(remaining)
		dives = dives[:0]
		for len(dives) < width && len(s.heap) > 0 && !s.prunable(s.heap[0].bound, inc) {
			dives = dives[:len(dives)+1] // not append: a slot keeps its steps' storage
			dives[len(dives)-1].head = heapPop(&s.heap)
		}
		for i := range dives {
			d := &dives[i]
			d.budget = remaining / len(dives)
			if i < remaining%len(dives) {
				d.budget++
			}
		}
		s.runDives(pool, dives, inc, start)
		for i := range dives {
			d := &dives[i]
			for k := range d.steps {
				s.apply(d.steps[k].nd, &d.steps[k].o, k+1 < len(d.steps))
				if s.stopFlag.Load() == haltInternal {
					return
				}
			}
			if len(d.steps) > s.longest {
				s.longest = len(d.steps)
			}
		}
	}
}

// roundWidth is how many frontier nodes the next round takes: as many as
// the remaining node budget covers at the longest dive seen so far, so
// that dives end at leaves — where incumbents are — and not at their
// budget; at least one, at most maxRoundWidth. Before any dive has run the
// frontier holds the root alone, and without a node limit every round is
// maxRoundWidth wide.
func (s *search) roundWidth(remaining int) int {
	return min(max(remaining/max(s.longest, 1), 1), maxRoundWidth)
}

// runDives evaluates every dive of a round, fanning out over the worker
// pool, and charges the round's barrier wait to s.idle: a worker is idle
// from its last dive's end — the round's start, if the round was too
// narrow to give it one — until the slowest worker is done.
func (s *search) runDives(pool []*worker, dives []dive, inc float64, start time.Time) {
	if len(pool) == 1 {
		for i := range dives {
			pool[0].dive(&dives[i], inc)
		}
		return // one worker waits for nobody
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var busy time.Duration
	for g := 0; g < len(pool) && g < len(dives); g++ {
		w := pool[g]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(dives); i = int(next.Add(1)) - 1 {
				w.dive(&dives[i], inc)
			}
			s.clock.Lock()
			busy += s.now().Sub(start)
			s.clock.Unlock()
		}()
	}
	wg.Wait()
	s.idle += time.Duration(len(pool))*s.now().Sub(start) - busy
}

// dive evaluates d.head and then ceil child after ceil child, until a node
// is a leaf or pruned, the dive's budget is spent or the search stops.
// Pruning starts from the round-start incumbent inc and sharpens with the
// candidates this dive itself verifies: that is all a worker may know
// about other dives' results if the tree is not to depend on timing. For
// the same reason the head solves cold from the root's box and only its
// descendants start from the box and the tableau the worker holds: warm
// state never crosses a dive.
func (w *worker) dive(d *dive, inc float64) {
	s := w.s
	d.steps = d.steps[:0]
	nd := d.head
	for len(d.steps) < d.budget && !s.stopped() {
		d.steps = append(d.steps, step{nd: nd})
		o := &d.steps[len(d.steps)-1].o
		w.eval(nd, inc, o, len(d.steps) > 1)
		if o.branchJ < 0 {
			return
		}
		if o.cand != nil {
			inc = o.candObj
		}
		if s.prunable(o.bound, inc) {
			return
		}
		nd = nd.child(o, true)
	}
}

// apply folds one evaluated node into the search: its candidate, then its
// children. The worker verified the candidate and kept it only if it beat
// the dive's incumbent; steps are applied in dive order, so the incumbent
// here is at least that one and only the objective needs comparing again.
// When the worker dove on — evaluated the ceil child as the dive's next
// step — only the floor sibling joins the frontier. The ceil ("take it")
// child is pushed first and so explored first on bound ties, which tends
// to reach incumbents sooner in packing problems.
func (s *search) apply(nd *node, o *outcome, dove bool) {
	s.nodesTotal++
	s.iters += o.iters
	if o.err != nil {
		s.fail(o.err)
		return
	}
	if o.cand != nil && o.candObj > s.incumbent {
		s.adopt(o.cand, o.candObj)
	}
	if o.branchJ < 0 {
		return
	}
	if !dove {
		s.push(nd.child(o, true))
	}
	s.push(nd.child(o, false))
}

// finish assembles the final Result and records metrics.
func (s *search) finish(end time.Time, workers int) (Result, error) {
	if s.err != nil {
		return Result{}, s.err
	}
	res := Result{
		Nodes:                 s.nodesTotal,
		SimplexIterations:     s.iters,
		Stop:                  s.stop,
		Cause:                 s.cause,
		Workers:               workers,
		Elapsed:               end.Sub(s.start),
		IncumbentImprovements: s.improved,
		WorkerIdle:            s.idle,
	}
	truncated := res.Stop != StopNone
	switch {
	case s.best != nil:
		res.X = s.best.X
		res.Objective = s.best.Objective
		if truncated {
			res.Status = Feasible
		} else {
			res.Status = Optimal
		}
	case truncated:
		res.Status = Feasible // stopped before proving anything either way
	default:
		res.Status = Infeasible
	}
	s.opts.Metrics.record(&res)
	if res.Stop == StopCanceled {
		err := res.Cause
		if err == nil {
			err = context.Canceled
		}
		return res, err
	}
	return res, nil
}

// outcome is what evaluating one node produced. cand is the outcome's own
// memory, allocated only for a candidate that improves on the dive's
// incumbent; everything else is plain data, so outcomes can be buffered
// and applied later without aliasing worker scratch.
type outcome struct {
	cand    []float64 // verified integral relaxation or heuristic candidate; nil if none improved
	candObj float64   // cand's objective
	branchJ int       // branching variable, -1 when the node is a leaf
	branchV float64   // fractional value of branchJ
	bound   float64   // node relaxation objective
	iters   int       // simplex pivots the relaxation took
	err     error
}

// worker holds one goroutine's scratch: a reusable lp.Solver plus buffers
// for materializing a node's bounds and building its reduced subproblem,
// and the Packing Options.Heuristic builds its candidates in.
// Branching decisions become variable fixings (fix-and-substitute) instead
// of extra rows, so a node's LP is the problem's rows over its free
// variables, and a dive child is its parent's LP less some columns and
// rows, which lp.Solver.Resolve re-solves from the parent's tableau.
type worker struct {
	box          // the current node's bounds
	settled bool // the box is its node's, propagated to the end: a ceil child may start from it
	solver  lp.Solver
	redIdx  []int // full index -> reduced column, -1 when fixed
	free    []int // reduced column -> full index
	objBuf  []float64
	consBuf []lp.Constraint
	keys    []int      // per reduced row: its constraint index
	sub     lp.Problem // the node's reduced LP, over objBuf and consBuf
	coef    []float64  // arena for reduced constraint coefficient rows, sized once
	xfull   []float64  // full-length relaxation vector (fixed + free values)
	pk      *Packing   // the heuristic's scratch; nil without a heuristic

	// The LP the solver solved last — its free variables and row keys — and
	// a child's columns and rows as positions in it.
	parentFree, parentKeys []int
	colPos, rowPos         []int
}

// warmHook, when set, sees every dive child's reduced LP, its result and
// whether the warm re-solve stood. Tests only; nil in production.
var warmHook func(sub *lp.Problem, r lp.Result, warm bool)

func newWorker(s *search) *worker {
	n := s.n
	w := &worker{
		box:        newBox(s),
		redIdx:     make([]int, n),
		free:       make([]int, n),
		objBuf:     make([]float64, n),
		xfull:      make([]float64, n),
		parentFree: make([]int, 0, n),
		colPos:     make([]int, n),
	}
	copy(w.lo, s.root.lo)
	copy(w.up, s.root.up)
	if s.opts.Heuristic != nil {
		w.pk = s.cols.NewPacking()
	}
	// A node's reduced LP holds at most every row of the problem.
	rows := len(s.p.LP.Constraints)
	w.coef = make([]float64, rows*n)
	w.consBuf = make([]lp.Constraint, 0, rows)
	w.keys = make([]int, 0, rows)
	w.parentKeys = make([]int, 0, rows)
	w.rowPos = make([]int, rows)
	return w
}

// eval solves nd's relaxation into o, pruning against the incumbent
// bound inc. A zero-valued o with branchJ == -1 and no candidate means the
// node was pruned (infeasible or bound-dominated). Candidates — an
// integral relaxation, or what the heuristic builds at a fractional one —
// are verified against inc here, so a node allocates only for one that
// improves on it.
// child says nd is the ceil child of the node this worker evaluated last,
// whose LP its solver still holds.
func (w *worker) eval(nd *node, inc float64, o *outcome, child bool) {
	s := w.s
	*o = outcome{branchJ: -1}
	// Tighten bounds by activity reasoning before classifying: branching
	// that fixes one binary cascades through its rows (an assignment row
	// with one member at 1 zeroes the siblings), so dives shed several
	// columns per level instead of one.
	if !w.bounds(nd, child) {
		return // propagation proved the domain empty
	}
	// Classify variables; fold fixed ones into the RHS and objective.
	nFree := 0
	objOffset := 0.0
	for j := 0; j < s.n; j++ {
		if w.lo[j] > w.up[j]+intEps {
			return // empty domain: infeasible
		}
		if w.up[j]-w.lo[j] <= intEps {
			v := math.Round(w.lo[j])
			w.xfull[j] = v
			w.redIdx[j] = -1
			objOffset += s.p.LP.Objective[j] * v
			continue
		}
		w.redIdx[j] = nFree
		w.free[nFree] = j
		nFree++
	}
	if nFree == 0 {
		// Every variable fixed by branching: the chain itself is the
		// candidate; no relaxation needed.
		s.keep(o, w.xfull, inc)
		return
	}
	// Reduced constraints: substitute fixed values into each row, dropping
	// rows that became vacuous and detecting cheap infeasibility.
	coef := w.coef
	off := 0
	w.consBuf = w.consBuf[:0]
	w.keys = w.keys[:0]
	rows := &s.rows
	for ci := range s.p.LP.Constraints {
		seg := coef[off : off+nFree]
		clear(seg)
		rhs := s.p.LP.Constraints[ci].RHS
		nz := false
		cols, vals := rows.row(ci)
		for k, j := range cols {
			a := vals[k]
			if ri := w.redIdx[j]; ri >= 0 {
				seg[ri] = a
				if a > zeroTol {
					nz = true
				}
			} else {
				rhs -= a * w.xfull[j]
			}
		}
		if rhs < -feasTol {
			return // x >= 0 and a >= 0: the fixed variables alone overfill the row
		}
		if !nz {
			continue // vacuous row: drop it
		}
		w.consBuf = append(w.consBuf, lp.Constraint{Coeffs: seg, RHS: rhs})
		w.keys = append(w.keys, ci)
		off += nFree
	}
	obj := w.objBuf[:nFree]
	for k, j := range w.free[:nFree] {
		obj[k] = s.p.LP.Objective[j]
	}
	w.sub = lp.Problem{Objective: obj, Constraints: w.consBuf}
	r, err := w.solve(nFree, child)
	if err != nil {
		o.err = err
		return
	}
	o.iters = r.Iterations
	if r.Status != lp.Optimal {
		// Infeasible; or, past an iteration limit, unexplorable — pruned to
		// keep the search finite. (Validate bounds every variable by a row,
		// so no relaxation is unbounded.)
		return
	}
	relax := r.Objective + objOffset
	o.bound = relax
	if relax <= inc+intEps {
		return // bound-dominated
	}
	for k, j := range w.free[:nFree] {
		w.xfull[j] = r.X[k] // r.X is the solver's buffer: copied before its next call
	}
	// Find the most fractional free variable.
	branchJ, frac := -1, 0.0
	for _, j := range w.free[:nFree] {
		f := w.xfull[j] - math.Floor(w.xfull[j])
		dist := math.Min(f, 1-f)
		if dist > intEps && dist > frac {
			frac = dist
			branchJ = j
		}
	}
	if branchJ == -1 {
		s.keep(o, w.xfull, inc)
		return
	}
	if s.opts.Heuristic != nil {
		w.pk.Reset()
		if s.opts.Heuristic(w.xfull, w.pk) {
			s.keep(o, w.pk.X, inc)
		}
	}
	o.branchJ = branchJ
	o.branchV = w.xfull[branchJ]
}

// bounds sets the box to nd's and propagates it. A dive child starts from
// the box its parent left, settled, and adds only its own branching
// decision; any other node starts from the root's propagated box and adds
// its whole chain. Either way only the rows the decisions move are
// visited, and both reach the same box: the greatest one no row can
// tighten.
func (w *worker) bounds(nd *node, child bool) bool {
	if !w.s.rootOK {
		return false
	}
	var stop *bchange // the decisions the box already holds
	if child && w.settled {
		stop = nd.chain.prev
	} else {
		w.reset(w.s.root)
	}
	w.settled = w.branch(nd.chain, stop)
	return w.settled
}

// solve runs the node's reduced LP. A dive child re-solves from the final
// tableau of its parent's LP when its free variables and rows are among the
// parent's (a new bound row is not); every other node solves cold. Either
// way the LP becomes the next child's parent.
func (w *worker) solve(nFree int, child bool) (r lp.Result, err error) {
	warm := false
	if child && w.inParent(nFree) {
		r, warm, err = w.solver.Resolve(&w.sub, w.colPos[:nFree], w.rowPos[:len(w.keys)])
	} else {
		r, err = w.solver.Solve(&w.sub)
	}
	if child && warmHook != nil {
		warmHook(&w.sub, r, warm)
	}
	w.parentFree = append(w.parentFree[:0], w.free[:nFree]...)
	w.parentKeys, w.keys = w.keys, w.parentKeys
	return r, err
}

// inParent sets colPos and rowPos to the positions of the node's free
// variables and rows in the parent's reduced LP, and reports whether every
// one is there. A child keeps its parent's order, so one pass over each
// list finds them; a row the parent lacks or lists elsewhere fails.
func (w *worker) inParent(nFree int) bool {
	p := 0
	for k, j := range w.free[:nFree] {
		for p < len(w.parentFree) && w.parentFree[p] < j {
			p++
		}
		if p == len(w.parentFree) || w.parentFree[p] != j {
			return false
		}
		w.colPos[k] = p
		p++
	}
	p = 0
	for i, key := range w.keys {
		for p < len(w.parentKeys) && w.parentKeys[p] != key {
			p++
		}
		if p == len(w.parentKeys) {
			return false
		}
		w.rowPos[i] = p
		p++
	}
	return true
}

// rowIndex is the constraint matrix by row in compressed form: row i's
// non-zero coefficients are val[start[i]:start[i+1]], in column order,
// and col holds their column numbers. The placement ILP's rows are three
// quarters zeros and a node walks rows several times (propagation, the
// reduced-LP build, candidate verification), so each walk touches
// only what can matter. Skipping a zero term leaves every sum it would
// have entered unchanged to the bit.
type rowIndex struct {
	start []int32
	col   []int32
	val   []float64
}

// nonZero reports whether a is anything but an exact zero: the indexes
// drop only terms that cannot move a sum, never small ones.
func nonZero(a float64) bool { return a > 0 || a < 0 }

func newRowIndex(p *Problem) rowIndex {
	nnz := 0
	for i := range p.LP.Constraints {
		for _, a := range p.LP.Constraints[i].Coeffs {
			if nonZero(a) {
				nnz++
			}
		}
	}
	r := rowIndex{
		start: make([]int32, len(p.LP.Constraints)+1),
		col:   make([]int32, 0, nnz),
		val:   make([]float64, 0, nnz),
	}
	for i := range p.LP.Constraints {
		for j, a := range p.LP.Constraints[i].Coeffs {
			if nonZero(a) {
				r.col = append(r.col, int32(j))
				r.val = append(r.val, a)
			}
		}
		r.start[i+1] = int32(len(r.col))
	}
	return r
}

// row returns row i's non-zero columns and coefficients.
func (r *rowIndex) row(i int) ([]int32, []float64) {
	lo, hi := r.start[i], r.start[i+1]
	return r.col[lo:hi], r.val[lo:hi]
}

// Frontier heap: max by bound, ties to the smallest sequence number.

func nodeBefore(a, b *node) bool {
	if a.bound > b.bound {
		return true
	}
	if a.bound < b.bound {
		return false
	}
	return a.seq < b.seq
}

func heapPush(h *[]*node, nd *node) {
	*h = append(*h, nd)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !nodeBefore((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func heapPop(h *[]*node) *node {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	old[last] = nil
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= last {
			break
		}
		c := l
		if r < last && nodeBefore(old[r], old[l]) {
			c = r
		}
		if !nodeBefore(old[c], old[i]) {
			break
		}
		old[i], old[c] = old[c], old[i]
		i = c
	}
	return top
}

// feasible reports whether x is a 0/1 vector, within intEps, that meets
// every row within feasTol. rows is p's row index.
func (p *Problem) feasible(x []float64, rows *rowIndex) bool {
	for _, v := range x {
		if v < -intEps || v > 1+intEps || math.Abs(v-math.Round(v)) > intEps {
			return false
		}
	}
	for i := range p.LP.Constraints {
		cols, vals := rows.row(i)
		lhs := 0.0
		for k, j := range cols {
			lhs += vals[k] * x[j]
		}
		if lhs > p.LP.Constraints[i].RHS+feasTol {
			return false
		}
	}
	return true
}

// ObjectiveValue evaluates the problem objective at x (no feasibility
// check). It lets callers compare warm-start candidates before handing the
// better one to Options.Incumbent.
func (p *Problem) ObjectiveValue(x []float64) float64 {
	obj := 0.0
	for j, c := range p.LP.Objective {
		obj += c * x[j]
	}
	return obj
}

// rounded is a copy of x with every entry snapped to the nearest integer.
func rounded(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = math.Round(v)
	}
	return out
}
