package milp

import "flex/internal/obs"

// Metrics instruments the branch-and-bound search across solves. A nil
// *Metrics disables instrumentation.
type Metrics struct {
	// Solves counts Solve calls that ran the search (input validation
	// failures are excluded).
	Solves *obs.Counter
	// Nodes counts branch-and-bound nodes explored.
	Nodes *obs.Counter
	// SimplexIterations counts simplex pivots spent in node relaxations.
	SimplexIterations *obs.Counter
	// DeadlineHits counts solves stopped by the context's deadline — the
	// paper's "stop the ILP solver after 5 minutes" path.
	DeadlineHits *obs.Counter
	// NodeLimitHits counts solves stopped by Options.MaxNodes.
	NodeLimitHits *obs.Counter
	// Cancellations counts solves aborted by context cancellation.
	Cancellations *obs.Counter
	// IncumbentImprovements counts adoptions of a strictly better
	// incumbent across all solves.
	IncumbentImprovements *obs.Counter
	// WorkerIdleNanos accumulates time workers spent waiting at round
	// barriers; high values relative to solve time mean the rounds are too
	// narrow or too uneven for the configured worker count.
	WorkerIdleNanos *obs.Counter
	// NodesPerSec is the node throughput of the most recent solve.
	NodesPerSec *obs.Gauge
}

// NewMetrics registers the milp metrics on r (idempotent).
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Solves:                r.Counter("flex_milp_solves_total", "branch-and-bound searches run"),
		Nodes:                 r.Counter("flex_milp_nodes_total", "branch-and-bound nodes explored"),
		SimplexIterations:     r.Counter("flex_milp_simplex_iterations_total", "simplex pivots spent in node relaxations"),
		DeadlineHits:          r.Counter("flex_milp_deadline_hits_total", "solves stopped by the time limit"),
		NodeLimitHits:         r.Counter("flex_milp_node_limit_hits_total", "solves stopped by the node limit"),
		Cancellations:         r.Counter("flex_milp_cancellations_total", "solves aborted by context cancellation"),
		IncumbentImprovements: r.Counter("flex_milp_incumbent_improvements_total", "strictly better incumbents adopted"),
		WorkerIdleNanos:       r.Counter("flex_milp_worker_idle_nanoseconds_total", "time workers spent waiting at round barriers"),
		NodesPerSec:           r.Gauge("flex_milp_nodes_per_second", "node throughput of the most recent solve"),
	}
}

// record folds one finished solve into the counters (nil-safe).
func (m *Metrics) record(res *Result) {
	if m == nil {
		return
	}
	m.Solves.Inc()
	if res.Nodes > 0 {
		m.Nodes.Add(uint64(res.Nodes))
	}
	if res.SimplexIterations > 0 {
		m.SimplexIterations.Add(uint64(res.SimplexIterations))
	}
	switch res.Stop {
	case StopDeadline:
		m.DeadlineHits.Inc()
	case StopNodeLimit:
		m.NodeLimitHits.Inc()
	case StopCanceled:
		m.Cancellations.Inc()
	}
	if res.IncumbentImprovements > 0 {
		m.IncumbentImprovements.Add(uint64(res.IncumbentImprovements))
	}
	if res.WorkerIdle > 0 {
		m.WorkerIdleNanos.Add(uint64(res.WorkerIdle.Nanoseconds()))
	}
	if res.Elapsed > 0 {
		m.NodesPerSec.Set(float64(res.Nodes) / res.Elapsed.Seconds())
	}
}
