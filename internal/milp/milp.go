// Package milp implements a parallel branch-and-bound mixed-integer linear
// program solver on top of the simplex solver in internal/lp. Together they
// stand in for the Gurobi solver the paper drives from its placement
// simulator (§V-A); like the paper — which stops Gurobi after 5 minutes —
// milp accepts a deadline (via context or Options.TimeLimit) and returns
// the best incumbent found so far.
//
// SolveContext is the primary entry point. The search runs Options.Workers
// goroutines pulling subproblems from a shared best-bound frontier; every
// incumbent is published through an atomically-updated shared bound so all
// workers prune against the global best. Options.Deterministic trades a
// little pruning sharpness for a worker-count-independent exploration
// order, so parallel and serial runs return identical results.
package milp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flex/internal/lp"
)

// Problem is an LP plus integrality requirements. Variables marked in
// Integer must take integer values in the solution. (Binary variables are
// expressed as integer variables with an explicit x <= 1 constraint.)
type Problem struct {
	LP      lp.Problem
	Integer []bool // len == LP.NumVars(); true ⇒ variable must be integral
}

// Options tunes the search.
type Options struct {
	// Workers is the number of branch-and-bound workers pulling nodes from
	// the shared frontier. Zero or negative means runtime.NumCPU(); one
	// runs the search serially.
	Workers int
	// Deterministic fixes the exploration order independently of Workers:
	// nodes are evaluated in synchronized rounds, pruned against the
	// incumbent as of the round start, and their outcomes applied in node
	// sequence order. Serial and parallel runs then return the same
	// objective, status, solution, and node count. (Wall-clock limits
	// remain timing-dependent; use MaxNodes for reproducible truncation.)
	Deterministic bool
	// TimeLimit bounds the wall-clock search time; zero means no limit.
	// When the limit expires the search stops with Stop == StopDeadline
	// and a nil error — the paper's "stop Gurobi after 5 minutes" budget.
	//
	// Deprecated: pass a deadline on the context given to SolveContext
	// instead. TimeLimit is kept as a per-call budget and composes with
	// the context: whichever expires first stops the search.
	TimeLimit time.Duration
	// MaxNodes bounds the number of explored branch-and-bound nodes;
	// zero means no limit.
	MaxNodes int
	// Incumbent, when non-nil, is a candidate solution used to warm-start
	// pruning. It is verified for feasibility and integrality first.
	Incumbent []float64
	// Heuristic, when non-nil, maps a fractional relaxation solution to a
	// candidate integral solution (e.g. rounding + greedy completion). The
	// candidate is verified before being adopted; returning nil is fine.
	// With Workers > 1 it is called concurrently from several workers and
	// must be safe for concurrent use (pure functions are). The relaxed
	// slice is a per-worker scratch buffer: the heuristic must not retain
	// it after returning.
	Heuristic func(relaxed []float64) []float64
	// RelGap, when positive, stops the search once the incumbent is within
	// this relative distance of the best open bound (e.g. 0.01 = 1%). The
	// result is then reported as Optimal within the gap.
	RelGap float64
	// Now supplies time (for tests); nil uses time.Now. It is only ever
	// called with the frontier lock held — never concurrently — so
	// non-thread-safe test clocks are fine.
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
	// Infeasible: no integral solution exists.
	Infeasible
	// Unbounded: the relaxation is unbounded.
	Unbounded
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
	case Unbounded:
		return "unbounded"
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
	// StopDeadline: the context deadline or Options.TimeLimit expired.
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
	// WorkerIdle is the cumulative time workers spent blocked waiting for
	// frontier work; high values mean the tree is too narrow for Workers.
	WorkerIdle time.Duration
}

const (
	intEps  = 1e-6
	feasTol = 1e-7
	zeroTol = 1e-12
	// detRoundSize is the number of frontier nodes evaluated per round in
	// Deterministic mode. It is a fixed constant — independent of Workers —
	// so the explored set is identical for any worker count.
	detRoundSize = 16
)

// SolveContext runs branch and bound until the frontier is exhausted, a
// limit (context deadline, TimeLimit, MaxNodes, RelGap) is reached, or ctx
// is canceled. The search explores nodes best-bound-first, branching on the
// most fractional integer variable.
//
// Deadlines are budgets: the search returns the best incumbent found with
// Stop == StopDeadline and a nil error. Cancellation is an abort: the
// partial result (still carrying the best incumbent found so far) is
// returned together with context.Cause(ctx).
func SolveContext(ctx context.Context, p *Problem, opts Options) (Result, error) {
	n := p.LP.NumVars()
	if len(p.Integer) != n {
		return Result{}, fmt.Errorf("milp: Integer mask has %d entries for %d variables", len(p.Integer), n)
	}
	if n == 0 {
		return Result{}, fmt.Errorf("milp: problem has no variables")
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
	s.pushRoot()

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

	if opts.Deterministic {
		s.runDeterministic(workers)
	} else {
		s.runParallel(workers)
	}
	close(stopWatch)
	<-watchDone
	return s.finish(now(), workers)
}

// newSearch prepares the shared state of one solve: the problem's implied
// bounds, redundant rows and row index, and an empty incumbent.
func newSearch(p *Problem, opts Options, now func() time.Time) *search {
	s := &search{
		p:    p,
		n:    p.LP.NumVars(),
		opts: opts,
		now:  now,
		sign: 1.0,
		up0:  impliedUpperBounds(p),
		skip: redundantSingletonRows(p),
		rows: newRowIndex(p),
	}
	if !p.LP.Maximize {
		s.sign = -1.0 // internally we compare in "maximize" terms
	}
	s.incBits.Store(math.Float64bits(math.Inf(-1)))
	s.f.cond = sync.NewCond(&s.f.mu)
	s.start = now()
	if opts.TimeLimit > 0 {
		s.deadline = s.start.Add(opts.TimeLimit)
	}
	return s
}

// node is one open subproblem: the parent relaxation bound plus an
// immutable chain of branching bound changes back to the root.
type node struct {
	bound float64  // parent relaxation objective in max-sense (+Inf for root)
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

// frontier is the shared best-bound priority queue. heap is ordered by
// bound descending, then seq ascending, so ties resolve to the oldest node
// and the exploration order is reproducible.
type frontier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	heap   []*node
	active int // nodes popped but not yet finished
}

// search is the shared state of one SolveContext call.
type search struct {
	p    *Problem
	n    int
	sign float64
	opts Options
	up0  []float64 // implied upper bound per variable (from singleton LE rows)
	skip []bool    // constraint rows provably redundant in every node LP
	rows rowIndex  // non-zero columns of every constraint row
	now  func() time.Time

	start    time.Time
	deadline time.Time // zero when no TimeLimit

	f frontier

	// incBits is math.Float64bits of the incumbent objective in max-sense
	// (-Inf before the first incumbent); workers read it lock-free to prune.
	incBits atomic.Uint64
	iters   atomic.Int64

	// stopFlag mirrors stop for lock-free polling: 0 = running, >0 = the
	// StopReason, haltInternal = unbounded root or solver error.
	stopFlag atomic.Int32

	mu        sync.Mutex // guards everything below
	best      *Result    // Status Feasible while searching; nil if none yet
	stop      StopReason
	cause     error
	err       error
	unbounded bool
	improved  int

	// Frontier-lock-protected tallies (f.mu): nodesTotal counts popped
	// nodes, seqCtr numbers created nodes, idle accumulates worker waits.
	nodesTotal int
	seqCtr     int64
	idle       time.Duration
}

const haltInternal = -1

// stopped reports whether the search should halt.
func (s *search) stopped() bool { return s.stopFlag.Load() != 0 }

// setStop records the first stop reason and wakes all frontier waiters.
func (s *search) setStop(reason StopReason, cause error) {
	s.mu.Lock()
	if s.stop == StopNone && s.err == nil && !s.unbounded {
		s.stop = reason
		s.cause = cause
		s.stopFlag.Store(int32(reason))
	}
	s.mu.Unlock()
	s.f.cond.Broadcast()
}

// fail aborts the search with an internal solver error.
func (s *search) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
		s.stopFlag.Store(haltInternal)
	}
	s.mu.Unlock()
	s.f.cond.Broadcast()
}

// markUnbounded aborts the search because the root relaxation is unbounded.
func (s *search) markUnbounded() {
	s.mu.Lock()
	if !s.unbounded && s.err == nil {
		s.unbounded = true
		s.stopFlag.Store(haltInternal)
	}
	s.mu.Unlock()
	s.f.cond.Broadcast()
}

// incumbentValue returns the incumbent objective in max-sense (-Inf when
// there is none yet). Lock-free; safe from any goroutine.
func (s *search) incumbentValue() float64 {
	return math.Float64frombits(s.incBits.Load())
}

// tryCandidate adopts cand, with its integer entries snapped to integers,
// as the new incumbent when it is strictly better than the current one and
// feasible for the full problem. The objective is compared first: it costs
// one pass and no memory, and most candidates lose there. Safe for
// concurrent use; cand is copied on adoption.
func (s *search) tryCandidate(cand []float64) {
	if cand == nil || len(cand) != s.n {
		return
	}
	obj := 0.0
	for j, c := range s.p.LP.Objective {
		v := cand[j]
		if s.p.Integer[j] {
			v = math.Round(v)
		}
		obj += c * v
	}
	v := s.sign * obj
	if v <= s.incumbentValue() {
		return // lock-free fast path: not an improvement
	}
	x := roundIntegers(cand, s.p.Integer)
	if !s.p.feasible(x, &s.rows) {
		return
	}
	s.mu.Lock()
	if s.best == nil || v > s.sign*s.best.Objective {
		s.best = &Result{Status: Feasible, X: x, Objective: obj}
		s.improved++
		s.incBits.Store(math.Float64bits(v))
	}
	s.mu.Unlock()
}

// prunable reports whether a node with the given max-sense bound cannot
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

// pushRoot seeds the frontier.
func (s *search) pushRoot() {
	s.f.mu.Lock()
	heapPush(&s.f.heap, &node{bound: math.Inf(1), seq: s.seqCtr})
	s.seqCtr++
	s.f.mu.Unlock()
}

// pushChildren creates the two children of parent from branching variable j
// at fractional value v and publishes them. The ceil ("take it") child gets
// the smaller sequence number so it is explored first on bound ties, which
// tends to reach incumbents sooner in packing problems.
func (s *search) pushChildren(parent *node, bound float64, j int, v float64) {
	ceil := &node{bound: bound, chain: &bchange{j: j, lo: math.Ceil(v), up: math.Inf(1), prev: parent.chain}}
	floor := &node{bound: bound, chain: &bchange{j: j, lo: math.Inf(-1), up: math.Floor(v), prev: parent.chain}}
	s.f.mu.Lock()
	ceil.seq = s.seqCtr
	floor.seq = s.seqCtr + 1
	s.seqCtr += 2
	heapPush(&s.f.heap, ceil)
	heapPush(&s.f.heap, floor)
	s.f.mu.Unlock()
	s.f.cond.Broadcast()
}

// popNode hands out the next frontier node, blocking while other workers
// may still publish children. It returns false when the search is over:
// frontier exhausted, a limit hit, or the search stopped. Limit checks run
// under the frontier lock, so opts.Now is never called concurrently.
func (s *search) popNode() (*node, bool) {
	f := &s.f
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if s.stopped() {
			return nil, false
		}
		inc := s.incumbentValue()
		if len(f.heap) > 0 && s.prunable(f.heap[0].bound, inc) {
			f.heap = f.heap[:0] // top bound dominates: everything is prunable
		}
		if len(f.heap) == 0 {
			if f.active == 0 {
				f.cond.Broadcast() // search exhausted: release the others
				return nil, false
			}
			t0 := s.now()
			f.cond.Wait()
			s.idle += s.now().Sub(t0)
			continue
		}
		if s.opts.MaxNodes > 0 && s.nodesTotal >= s.opts.MaxNodes {
			f.mu.Unlock()
			s.setStop(StopNodeLimit, nil)
			f.mu.Lock()
			return nil, false
		}
		if !s.deadline.IsZero() && s.now().After(s.deadline) {
			f.mu.Unlock()
			s.setStop(StopDeadline, nil)
			f.mu.Lock()
			return nil, false
		}
		nd := heapPop(&f.heap)
		f.active++
		s.nodesTotal++
		return nd, true
	}
}

// nodeDone retires a popped node and wakes waiters if the search drained.
func (s *search) nodeDone() {
	f := &s.f
	f.mu.Lock()
	f.active--
	drained := f.active == 0 && len(f.heap) == 0
	f.mu.Unlock()
	if drained {
		f.cond.Broadcast()
	}
}

// runParallel is the free-running mode: workers race on the shared
// frontier, pruning against the live incumbent bound. After evaluating a
// node a worker dives on the ceil child (publishing only the floor
// sibling): each dive level fixes another integer variable, so the
// fix-and-substitute presolve keeps shrinking the subproblem and per-node
// cost falls with depth — where the throughput win over a clone-and-solve
// engine comes from — while integral leaves surface incumbents early.
func (s *search) runParallel(workers int) {
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w := newWorker(s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var o outcome
			for {
				nd, ok := s.popNode()
				if !ok {
					return
				}
				for {
					w.eval(nd, s.incumbentValue(), &o)
					child := s.applyDive(nd, &o)
					if child == nil || !s.claimDive(child) {
						break
					}
					nd = child
				}
				s.nodeDone()
			}
		}()
	}
	wg.Wait()
}

// apply folds one evaluated node's outcome into the shared state.
func (s *search) apply(nd *node, o *outcome) {
	if o.err != nil {
		s.fail(o.err)
		return
	}
	if o.unbounded {
		if nd.chain == nil {
			s.markUnbounded()
		}
		return // a branched unbounded relaxation is unexplorable; prune
	}
	for _, c := range o.cands {
		s.tryCandidate(c)
	}
	if o.branchJ >= 0 {
		s.pushChildren(nd, o.bound, o.branchJ, o.branchV)
	}
}

// applyDive folds one outcome like apply, but keeps the ceil ("take it")
// child for the evaluating worker to dive on: only the floor sibling is
// published to the frontier. The returned child is not yet claimed — the
// worker must pass it through claimDive before evaluating it.
func (s *search) applyDive(nd *node, o *outcome) *node {
	if o.err != nil {
		s.fail(o.err)
		return nil
	}
	if o.unbounded {
		if nd.chain == nil {
			s.markUnbounded()
		}
		return nil
	}
	for _, c := range o.cands {
		s.tryCandidate(c)
	}
	if o.branchJ < 0 {
		return nil
	}
	ceil := &node{bound: o.bound, chain: &bchange{j: o.branchJ, lo: math.Ceil(o.branchV), up: math.Inf(1), prev: nd.chain}}
	floor := &node{bound: o.bound, chain: &bchange{j: o.branchJ, lo: math.Inf(-1), up: math.Floor(o.branchV), prev: nd.chain}}
	s.f.mu.Lock()
	ceil.seq = s.seqCtr
	floor.seq = s.seqCtr + 1
	s.seqCtr += 2
	heapPush(&s.f.heap, floor)
	s.f.mu.Unlock()
	s.f.cond.Broadcast()
	return ceil
}

// claimDive registers a kept dive child as the worker's next node under
// popNode's limit checks. On a stop the child returns to the frontier so
// no subtree is silently lost; a bound-pruned child is discarded. The
// worker's active claim carries over from the parent, so nodeDone is not
// called between dive levels.
func (s *search) claimDive(nd *node) bool {
	f := &s.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if s.stopped() {
		heapPush(&f.heap, nd)
		return false
	}
	if s.prunable(nd.bound, s.incumbentValue()) {
		return false
	}
	if s.opts.MaxNodes > 0 && s.nodesTotal >= s.opts.MaxNodes {
		f.mu.Unlock()
		s.setStop(StopNodeLimit, nil)
		f.mu.Lock()
		heapPush(&f.heap, nd)
		return false
	}
	if !s.deadline.IsZero() && s.now().After(s.deadline) {
		f.mu.Unlock()
		s.setStop(StopDeadline, nil)
		f.mu.Lock()
		heapPush(&f.heap, nd)
		return false
	}
	s.nodesTotal++
	return true
}

// runDeterministic is the round-synchronized mode: each round pops a fixed
// batch off the frontier (independent of the worker count), evaluates it in
// parallel against the round-start incumbent, and applies the outcomes in
// node order. The explored set — and therefore the result — is identical
// for any Workers value.
func (s *search) runDeterministic(workers int) {
	pool := make([]*worker, workers)
	for i := range pool {
		pool[i] = newWorker(s)
	}
	batch := make([]*node, 0, detRoundSize)
	outs := make([]outcome, detRoundSize)
	for {
		if s.stopped() {
			return
		}
		s.f.mu.Lock()
		inc := s.incumbentValue()
		batch = batch[:0]
		for len(s.f.heap) > 0 && len(batch) < detRoundSize {
			if s.prunable(s.f.heap[0].bound, inc) {
				s.f.heap = s.f.heap[:0]
				break
			}
			if s.opts.MaxNodes > 0 && s.nodesTotal+len(batch) >= s.opts.MaxNodes {
				if len(batch) == 0 {
					s.f.mu.Unlock()
					s.setStop(StopNodeLimit, nil)
					return
				}
				break // finish the allowed remainder; flag on the next round
			}
			batch = append(batch, heapPop(&s.f.heap))
		}
		if len(batch) > 0 {
			if !s.deadline.IsZero() && s.now().After(s.deadline) {
				s.f.mu.Unlock()
				s.setStop(StopDeadline, nil)
				return
			}
			s.nodesTotal += len(batch)
		}
		s.f.mu.Unlock()
		if len(batch) == 0 {
			return // frontier exhausted
		}
		s.evalBatch(pool, batch, inc, outs)
		for i, nd := range batch {
			s.apply(nd, &outs[i])
			if s.stopFlag.Load() == haltInternal {
				return
			}
		}
	}
}

// evalBatch evaluates batch[i] into outs[i], fanning out over the worker
// pool when it helps. Workers only write their own outs slot; candidates
// and children are applied later, in order, by the scheduler.
func (s *search) evalBatch(pool []*worker, batch []*node, inc float64, outs []outcome) {
	if len(pool) == 1 || len(batch) == 1 {
		for i, nd := range batch {
			pool[0].eval(nd, inc, &outs[i])
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	nw := len(pool)
	if nw > len(batch) {
		nw = len(batch)
	}
	for g := 0; g < nw; g++ {
		w := pool[g]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				w.eval(batch[i], inc, &outs[i])
			}
		}()
	}
	wg.Wait()
}

// finish assembles the final Result and records metrics.
func (s *search) finish(end time.Time, workers int) (Result, error) {
	if s.err != nil {
		return Result{}, s.err
	}
	res := Result{
		Nodes:                 s.nodesTotal,
		SimplexIterations:     int(s.iters.Load()),
		Stop:                  s.stop,
		Cause:                 s.cause,
		Workers:               workers,
		Elapsed:               end.Sub(s.start),
		IncumbentImprovements: s.improved,
		WorkerIdle:            s.idle,
	}
	if s.unbounded {
		res.Status = Unbounded
		res.Stop, res.Cause = StopNone, nil
		s.opts.Metrics.record(&res)
		return res, nil
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

// outcome is what evaluating one node produced. Candidate slices are
// freshly allocated; everything else is plain data, so outcomes can be
// buffered and applied later without aliasing worker scratch.
type outcome struct {
	cands     [][]float64 // integral relaxations / heuristic candidates
	branchJ   int         // branching variable, -1 when the node is a leaf
	branchV   float64     // fractional value of branchJ
	bound     float64     // node relaxation objective in max-sense
	unbounded bool
	err       error
}

// worker holds one goroutine's scratch: a reusable lp.Solver plus buffers
// for materializing a node's bounds and building its reduced subproblem.
// Branching constraints on binaries become variable fixings
// (fix-and-substitute) instead of extra rows, so the common all-LE
// placement subproblems keep an all-slack basis and skip simplex phase 1
// entirely.
type worker struct {
	s       *search
	solver  lp.Solver
	lo, up  []float64 // current node's variable bounds
	touched []int     // distinct variables whose bounds may deviate from [0, up0], in first-touch order
	mark    []int64   // per variable: the node generation that last touched it
	gen     int64     // current node's generation
	redIdx  []int     // full index -> reduced column, -1 when fixed
	free    []int     // reduced column -> full index
	objBuf  []float64
	consBuf []lp.Constraint
	sub     lp.Problem // the node's reduced LP, over objBuf and consBuf
	coef    []float64  // arena for reduced constraint coefficient rows, sized once
	xfull   []float64  // full-length relaxation vector (fixed + free values)
}

func newWorker(s *search) *worker {
	n := s.n
	w := &worker{
		s:       s,
		lo:      make([]float64, n),
		up:      make([]float64, n),
		mark:    make([]int64, n),
		touched: make([]int, 0, n),
		redIdx:  make([]int, n),
		free:    make([]int, n),
		objBuf:  make([]float64, n),
		xfull:   make([]float64, n),
	}
	copy(w.up, s.up0)
	// A node's reduced LP holds at most every non-skipped row plus two bound
	// rows per integer variable that can stay free after its bounds tighten.
	// A variable whose implied upper bound is at most 1 cannot: raising its
	// lower bound or lowering its upper bound to an integer closes the
	// interval, and eval fixes it instead.
	rows := 0
	for _, skipped := range s.skip {
		if !skipped {
			rows++
		}
	}
	for j, isInt := range s.p.Integer {
		if isInt && s.up0[j] > 1+intEps {
			rows += 2
		}
	}
	w.coef = make([]float64, rows*n)
	w.consBuf = make([]lp.Constraint, 0, rows)
	return w
}

// eval solves nd's relaxation into o, pruning against the max-sense
// incumbent bound inc. A zero-valued o with branchJ == -1 and no
// candidates means the node was pruned (infeasible or bound-dominated).
func (w *worker) eval(nd *node, inc float64, o *outcome) {
	s := w.s
	*o = outcome{branchJ: -1, cands: o.cands[:0]}
	// Restore default bounds from the previous node, then apply the chain.
	for _, j := range w.touched {
		w.lo[j] = 0
		w.up[j] = s.up0[j]
	}
	w.touched = w.touched[:0]
	w.gen++
	for c := nd.chain; c != nil; c = c.prev {
		w.touch(c.j)
		if c.lo > w.lo[c.j] {
			w.lo[c.j] = c.lo
		}
		if c.up < w.up[c.j] {
			w.up[c.j] = c.up
		}
	}
	// Tighten integer bounds by activity reasoning before classifying:
	// branching that fixes one binary cascades through its rows (an
	// assignment row with one member at 1 zeroes the siblings), so dives
	// shed several columns per level instead of one.
	if !w.propagate() {
		return // propagation proved the domain empty
	}
	// Classify variables; fold fixed integers into the RHS and objective.
	nFree := 0
	objOffset := 0.0
	for j := 0; j < s.n; j++ {
		if w.lo[j] > w.up[j]+intEps {
			return // empty domain: infeasible
		}
		if s.p.Integer[j] && w.up[j]-w.lo[j] <= intEps {
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
		o.cands = append(o.cands, append([]float64(nil), w.xfull...))
		return
	}
	// Reduced constraints: substitute fixed values into each row, dropping
	// rows that became vacuous and detecting cheap infeasibility.
	coef := w.coef
	off := 0
	w.consBuf = w.consBuf[:0]
	rows := &s.rows
	for ci := range s.p.LP.Constraints {
		if s.skip[ci] {
			continue
		}
		c := &s.p.LP.Constraints[ci]
		seg := coef[off : off+nFree]
		clear(seg)
		rhs := c.RHS
		nz := false
		nonneg := true
		cols, vals := rows.row(ci)
		for k, j := range cols {
			a := vals[k]
			if ri := w.redIdx[j]; ri >= 0 {
				seg[ri] = a
				if a > zeroTol || a < -zeroTol {
					nz = true
				}
				if a < 0 {
					nonneg = false
				}
			} else {
				rhs -= a * w.xfull[j]
			}
		}
		if !nz {
			switch c.Sense {
			case lp.LE:
				if rhs < -feasTol {
					return // fixed variables alone violate the row
				}
			case lp.GE:
				if rhs > feasTol {
					return
				}
			case lp.EQ:
				if rhs > feasTol || rhs < -feasTol {
					return
				}
			}
			continue // vacuous row: drop it
		}
		if c.Sense == lp.LE && nonneg && rhs < -feasTol {
			return // x >= 0 forces lhs >= 0 > rhs: infeasible without an LP
		}
		w.consBuf = append(w.consBuf, lp.Constraint{Coeffs: seg, Sense: c.Sense, RHS: rhs})
		off += nFree
	}
	// Explicit bound rows for free variables whose branch bounds tightened
	// (general integers; binaries always end up fixed instead).
	for _, j := range w.touched {
		ri := w.redIdx[j]
		if ri < 0 {
			continue
		}
		if w.lo[j] > intEps {
			seg := coef[off : off+nFree]
			clear(seg)
			seg[ri] = 1
			w.consBuf = append(w.consBuf, lp.Constraint{Coeffs: seg, Sense: lp.GE, RHS: w.lo[j]})
			off += nFree
		}
		if w.up[j] < s.up0[j]-intEps {
			seg := coef[off : off+nFree]
			clear(seg)
			seg[ri] = 1
			w.consBuf = append(w.consBuf, lp.Constraint{Coeffs: seg, Sense: lp.LE, RHS: w.up[j]})
			off += nFree
		}
	}
	obj := w.objBuf[:nFree]
	for k, j := range w.free[:nFree] {
		obj[k] = s.p.LP.Objective[j]
	}
	w.sub = lp.Problem{Maximize: s.p.LP.Maximize, Objective: obj, Constraints: w.consBuf}
	r, err := w.solver.Solve(&w.sub)
	if err != nil {
		o.err = err
		return
	}
	s.iters.Add(int64(r.Iterations))
	switch r.Status {
	case lp.Infeasible:
		return
	case lp.Unbounded:
		o.unbounded = true
		return
	case lp.IterationLimit:
		return // treat as unexplorable; keeps the search sound
	}
	relax := s.sign * (r.Objective + objOffset)
	o.bound = relax
	if relax <= inc+intEps {
		return // bound-dominated
	}
	for k, j := range w.free[:nFree] {
		w.xfull[j] = r.X[k]
	}
	// Find the most fractional free integer variable.
	branchJ, frac := -1, 0.0
	for _, j := range w.free[:nFree] {
		if !s.p.Integer[j] {
			continue
		}
		f := w.xfull[j] - math.Floor(w.xfull[j])
		dist := math.Min(f, 1-f)
		if dist > intEps && dist > frac {
			frac = dist
			branchJ = j
		}
	}
	if branchJ == -1 {
		o.cands = append(o.cands, append([]float64(nil), w.xfull...))
		return
	}
	if s.opts.Heuristic != nil {
		if cand := s.opts.Heuristic(w.xfull); cand != nil {
			o.cands = append(o.cands, append([]float64(nil), cand...))
		}
	}
	o.branchJ = branchJ
	o.branchV = w.xfull[branchJ]
}

// touch records that variable j's bounds may have moved in this node. Each
// variable is listed once, so the list never outgrows the n entries it was
// made with.
func (w *worker) touch(j int) {
	if w.mark[j] != w.gen {
		w.mark[j] = w.gen
		k := len(w.touched)
		w.touched = w.touched[:k+1]
		w.touched[k] = j
	}
}

// maxPropRounds bounds the fixpoint iteration in propagate; most of the
// benefit lands in the first pass (row sees a newly fixed member), the
// rest by the second.
const maxPropRounds = 4

// propagate tightens the integer-variable bounds in w.lo/w.up by
// min-activity reasoning over every row, iterating to a (bounded)
// fixpoint. The tightened bounds are implied for every integer-feasible
// point, so imposing them on the relaxation keeps the node bound valid —
// and lets the fix-and-substitute step below drop the affected columns
// entirely. Returns false when a row's minimum activity already exceeds
// its RHS: the domain holds no integer point.
func (w *worker) propagate() bool {
	rows := &w.s.rows
	for round := 0; round < maxPropRounds; round++ {
		changed := false
		for ci := range w.s.p.LP.Constraints {
			if w.s.skip[ci] {
				continue // a singleton bound row: already folded into w.up
			}
			c := &w.s.p.LP.Constraints[ci]
			cols, vals := rows.row(ci)
			// lhs <= rhs reasoning covers LE and EQ rows; lhs >= rhs (GE
			// and EQ) is the same row mirrored through sign.
			if c.Sense == lp.LE || c.Sense == lp.EQ {
				if !w.propagateRow(cols, vals, c.RHS, 1, &changed) {
					return false
				}
			}
			if c.Sense == lp.GE || c.Sense == lp.EQ {
				if !w.propagateRow(cols, vals, -c.RHS, -1, &changed) {
					return false
				}
			}
		}
		if !changed {
			return true
		}
	}
	return true
}

// propagateRow applies one row, given as its non-zero columns and their
// coefficients, in "sign*coeffs · x <= rhs" form: with the row's minimum
// activity over the current box, each member's bound tightens to what the
// remaining slack allows, rounded to integrality. Variables it tightens
// are recorded in w.touched so eval restores them on the next node.
//
//flex:hotpath
func (w *worker) propagateRow(cols []int32, vals []float64, rhs, sign float64, changed *bool) bool {
	s := w.s
	vals = vals[:len(cols)]
	minAct := 0.0
	for k, j := range cols {
		a := sign * vals[k]
		if a > zeroTol {
			minAct += a * w.lo[j]
		} else if a < -zeroTol {
			u := w.up[j]
			if math.IsInf(u, 1) {
				return true // an unbounded term: no finite activity floor
			}
			minAct += a * u
		}
	}
	if minAct > rhs+feasTol {
		return false
	}
	slack := rhs - minAct
	for k, j := range cols {
		if !s.p.Integer[j] {
			continue
		}
		a := sign * vals[k]
		if a > zeroTol {
			newUp := math.Floor(w.lo[j] + slack/a + intEps)
			if newUp < w.up[j]-intEps {
				w.up[j] = newUp
				w.touch(int(j))
				*changed = true
			}
		} else if a < -zeroTol {
			if math.IsInf(w.up[j], 1) {
				continue
			}
			newLo := math.Ceil(w.up[j] + slack/a - intEps)
			if newLo > w.lo[j]+intEps {
				w.lo[j] = newLo
				w.touch(int(j))
				*changed = true
			}
		}
	}
	return true
}

// rowIndex is the constraint matrix by row in compressed form: row i's
// non-zero coefficients are val[start[i]:start[i+1]], in column order,
// and col holds their column numbers. The placement ILP's rows are three
// quarters zeros and a node walks every row several times (propagation,
// the reduced-LP build, candidate verification), so each walk touches
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

// redundantSingletonRows marks singleton LE rows ("a·x_j <= b", a > 0)
// whose bound is already implied by some other all-nonnegative LE row:
// sum_k c_k·x_k <= r with every c_k >= 0 and x >= 0 forces
// x_j <= r/c_j for each member, and fix-and-substitute only ever lowers
// such a row's RHS (fixed values are nonnegative), so the domination
// holds at every branch-and-bound node. Workers skip marked rows when
// building a node's reduced LP; on placement problems this removes the
// per-binary "x_j <= 1" rows — most of the tableau — because the Eq. 1
// assignment rows already imply them.
func redundantSingletonRows(p *Problem) []bool {
	n := p.LP.NumVars()
	dom := make([]float64, n) // tightest bound implied by non-singleton rows
	for j := range dom {
		dom[j] = math.Inf(1)
	}
	type singleton struct {
		row   int
		j     int
		bound float64
	}
	var singles []singleton
	for ci := range p.LP.Constraints {
		c := &p.LP.Constraints[ci]
		if c.Sense != lp.LE {
			continue
		}
		idx, nz, nonneg := -1, 0, true
		for j, a := range c.Coeffs {
			if a > zeroTol {
				idx = j
				nz++
			} else if a < -zeroTol {
				nonneg = false
				break
			}
		}
		if !nonneg || nz == 0 {
			continue
		}
		if nz == 1 {
			singles = append(singles, singleton{row: ci, j: idx, bound: c.RHS / c.Coeffs[idx]})
			continue
		}
		for j, a := range c.Coeffs {
			if a > zeroTol {
				if b := c.RHS / a; b < dom[j] {
					dom[j] = b
				}
			}
		}
	}
	skip := make([]bool, len(p.LP.Constraints))
	for _, sg := range singles {
		if dom[sg.j] <= sg.bound+intEps {
			skip[sg.row] = true
		}
	}
	return skip
}

// impliedUpperBounds extracts per-variable upper bounds from singleton LE
// rows (a*x_j <= b with a > 0) — the "x_j <= 1" rows every binary carries.
// The rows stay in the problem; the bounds let branching fix variables
// instead of stacking constraint rows.
func impliedUpperBounds(p *Problem) []float64 {
	n := p.LP.NumVars()
	up := make([]float64, n)
	for j := range up {
		up[j] = math.Inf(1)
	}
	for ci := range p.LP.Constraints {
		c := &p.LP.Constraints[ci]
		if c.Sense != lp.LE {
			continue
		}
		idx := -1
		single := true
		for j, a := range c.Coeffs {
			if a > zeroTol || a < -zeroTol {
				if idx != -1 {
					single = false
					break
				}
				if a < 0 {
					single = false
					break
				}
				idx = j
			}
		}
		if !single || idx == -1 {
			continue
		}
		if b := c.RHS / c.Coeffs[idx]; b < up[idx] {
			up[idx] = b
		}
	}
	return up
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

// feasible reports whether x satisfies every constraint (with tolerance)
// and every integrality requirement, and is non-negative. rows is p's row
// index.
func (p *Problem) feasible(x []float64, rows *rowIndex) bool {
	for j, v := range x {
		if v < -1e-9 {
			return false
		}
		if p.Integer[j] && math.Abs(v-math.Round(v)) > intEps {
			return false
		}
	}
	for i := range p.LP.Constraints {
		c := &p.LP.Constraints[i]
		cols, vals := rows.row(i)
		lhs := 0.0
		for k, j := range cols {
			lhs += vals[k] * x[j]
		}
		switch c.Sense {
		case lp.LE:
			if lhs > c.RHS+feasTol {
				return false
			}
		case lp.GE:
			if lhs < c.RHS-feasTol {
				return false
			}
		case lp.EQ:
			if math.Abs(lhs-c.RHS) > feasTol {
				return false
			}
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

// roundIntegers snaps near-integral entries to exact integers.
func roundIntegers(x []float64, integer []bool) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	for j, isInt := range integer {
		if isInt {
			out[j] = math.Round(out[j])
		}
	}
	return out
}
