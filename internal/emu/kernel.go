package emu

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"flex/internal/clock"
	"flex/internal/controller"
	"flex/internal/milp"
	"flex/internal/obs"
	"flex/internal/placement"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/sim"
	"flex/internal/workload"
)

// plant is the placed room a run stands on, solved once and shared by
// every room of a fleet. (A real fleet solves per room; the emulation
// measures the online layer, not the solver.)
type plant struct {
	room     *placement.Room
	topo     *power.Topology
	managed  []controller.ManagedRack
	stranded power.Watts // the placement's Eq. 5 stranded power

	// The racks in columns, one entry per rack in placement order: what a
	// tick reads of them, laid out for the loops over a room's racks.
	ids   []string
	alloc []float64 // allocated power, W
	cat   []workload.Category
	pair  []power.PDUPairID

	// utilization is the steady-state aggregate draw as a share of
	// provisioned power; ratio is each category's demanded share of its
	// allocation that adds up to it, indexed by workload.Category.
	utilization float64
	ratio       [3]float64
}

// newPlant places the paper's demand in the emulation room with
// Flex-Offline-Short, one workload per category at 85% flex power. ctx
// bounds the solve; reg, when non-nil, receives the solver's metrics.
func newPlant(ctx context.Context, traceSeed int64, utilization float64, reg *obs.Registry) (*plant, error) {
	room := placement.EmulationRoom()
	tcfg := workload.DefaultTraceConfig(room.Topo.ProvisionedPower())
	tcfg.WorkloadsPerCategory = 1
	tcfg.FlexPowerMin, tcfg.FlexPowerMax = 0.845, 0.855
	trace, err := workload.GenerateTrace(tcfg, rand.New(rand.NewSource(traceSeed)))
	if err != nil {
		return nil, err
	}
	var solverMetrics *milp.Metrics
	if reg != nil {
		solverMetrics = milp.NewMetrics(reg)
	}
	pl, err := placement.FlexOffline{BatchFraction: 0.33, MaxNodes: 150, SolverMetrics: solverMetrics}.Place(ctx, room, trace)
	if err != nil {
		return nil, err
	}
	racks := sim.ExpandRacks(pl)
	if len(racks) == 0 {
		return nil, fmt.Errorf("emu: nothing placed")
	}
	n := len(racks)
	p := &plant{
		room: room, topo: room.Topo, managed: sim.ManagedRacks(racks), stranded: pl.StrandedPower(),
		ids: make([]string, n), alloc: make([]float64, n), cat: make([]workload.Category, n), pair: make([]power.PDUPairID, n),
		utilization: utilization,
		// TeraSort-like batch (software-redundant) runs near full tilt,
		// the TPC-E-like OLTP (cap-able) close to its flex power, the
		// non-cap-able racks cooler — relative to the paper's 80% set-up.
		ratio: [3]float64{
			workload.SoftwareRedundant:      0.90 / 0.80,
			workload.NonRedundantCapable:    0.83 / 0.80,
			workload.NonRedundantNonCapable: 0.67 / 0.80,
		},
	}
	var weighted float64
	for i, r := range racks {
		p.ids[i], p.alloc[i], p.cat[i], p.pair[i] = r.ID, float64(r.Allocated), r.Category, r.Pair
		weighted += p.ratio[r.Category] * p.alloc[i]
	}
	// Normalize against the placed mix so the aggregate draw at full
	// demand is utilization × provisioned power — the paper's "80% of the
	// provisioned power at the UPS level" (§V-C). Placed allocation is a
	// little below provisioned, so per-rack duty runs a little above.
	norm := utilization * float64(p.topo.ProvisionedPower()) / weighted
	for c := range p.ratio {
		p.ratio[c] *= norm
	}
	return p, nil
}

// indexCheck is one configured index and the count it must stay below.
type indexCheck struct {
	field string
	v, n  int
}

// checkIndices range-checks the rooms and UPSes a config names.
func checkIndices(checks ...indexCheck) error {
	for _, c := range checks {
		if c.v < 0 || c.v >= c.n {
			return fmt.Errorf("emu: %s %d out of range [0,%d)", c.field, c.v, c.n)
		}
	}
	return nil
}

// room is one emulated room: the plant's racks with live demand, the rack
// manager its control plane actuates, the UPSes currently out of service
// and the ground truth under them.
type room struct {
	plant  *plant
	mgr    *rackmgr.Manager
	demand []float64 // per rack, the demanded fraction of its allocation (AR(1))
	out    power.UPSSet
	// dirty is set when demand or out moved since the truth was last
	// refreshed; refresh recomputes nothing while it is clear and the
	// manager has not actuated.
	dirty bool
	truth groundTruth
	// under and tripped are what observe saw of the post-step truth:
	// whether every UPS in service was within its rating, and the UPSes
	// that tripped.
	under   bool
	tripped power.UPSSet
}

// tickState is where a run stands in time. Its methods are the phases of
// a tick, declared in the order the loops call them.
type tickState struct {
	plant *plant
	clk   *clock.Virtual
	// rng is the run's one stream: demand draws room-major in rack order,
	// then whatever the emulator draws itself. Only drawAhead's producer
	// reads it; the loop takes each tick's share through normals.
	rng *rand.Rand

	// The loop's end of the stream: the block in hand, its size in ticks
	// and draws per tick, and the channels that bring the next block and
	// take back a used one.
	z              []float64
	block, perTick int
	full, free     chan []float64

	step                time.Duration
	i, last             int           // tick index, 0..Duration/Tick
	now                 time.Duration // i × step
	upsEvery, rackEvery int           // poll cadences in ticks (paper: 1.5s, 2s)
	theta, sigma        float64       // AR(1) pull and noise of the demand

	// The watch on the room that lost a UPS. The durations are -1 until
	// they happen, and count from the tick the UPS failed on.
	watched                        *room
	failUPS                        power.UPSID
	failedAt, firstEnforce, shedAt time.Duration
	outage                         bool // a loaded pair in some room lost both of its UPSes
}

func (p *plant) newTickState(seed int64, step, duration time.Duration, theta, sigma float64) *tickState {
	return &tickState{
		plant: p,
		clk:   clock.NewVirtual(time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)),
		rng:   rand.New(rand.NewSource(seed)),
		step:  step, last: int(duration / step),
		upsEvery:  max(1, int(1500*time.Millisecond/step)),
		rackEvery: max(1, int(2*time.Second/step)),
		theta:     theta, sigma: sigma,
		failedAt: -1, firstEnforce: -1, shedAt: -1,
	}
}

// noiseBlock is about how many normals one handoff carries: a block is
// max(1, noiseBlock/perTick) whole ticks, so Run (a few hundred draws a
// tick) hands over every twenty-odd ticks and a large fleet every tick.
const noiseBlock = 8192

// drawAhead starts the run's noise producer: a goroutine that, from now
// on the only reader of ts.rng, draws perTick normals a tick for every
// tick of the run in stream order, a block of ticks at a time into one of
// two reusable buffers, while the loop works on the other. The returned
// stop ends the producer and waits for it; a run defers it, so no
// goroutine outlives it whichever way it returns.
func (ts *tickState) drawAhead(perTick int) (stop func()) {
	ts.perTick, ts.block = perTick, max(1, noiseBlock/perTick)
	// Either channel holds at most the run's two buffers, so no send on
	// one blocks.
	ts.full, ts.free = make(chan []float64, 2), make(chan []float64, 2)
	for range 2 {
		ts.free <- make([]float64, ts.block*perTick)
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func(rng *rand.Rand, ticks, block int, full chan<- []float64, free <-chan []float64) {
		defer close(done)
		for left := ticks; left > 0; left -= block {
			var buf []float64
			select {
			case buf = <-free:
			case <-quit:
				return
			}
			buf = buf[:min(left, block)*perTick]
			for j := range buf {
				buf[j] = rng.NormFloat64()
			}
			full <- buf
		}
	}(ts.rng, ts.last+1, ts.block, ts.full, ts.free)
	return func() {
		close(quit)
		<-done
	}
}

// normals is this tick's share of the stream, the perTick values drawn
// after every earlier tick's; a loop calls it once a tick. It belongs to
// the tick: the next block reuses the buffer behind it.
func (ts *tickState) normals() []float64 {
	k := ts.i % ts.block
	if k == 0 {
		if ts.z != nil {
			ts.free <- ts.z
		}
		ts.z = <-ts.full
	}
	return ts.z[k*ts.perTick : (k+1)*ts.perTick]
}

// newRoom stands one room of the plant's racks on the run's clock, every
// rack demanding a fifth of its allocation.
func (ts *tickState) newRoom() *room {
	p := ts.plant
	r := &room{plant: p, demand: make([]float64, len(p.ids)), dirty: true}
	for i := range r.demand {
		r.demand[i] = 0.2
	}
	r.mgr = rackmgr.NewManager(ts.clk, p.ids)
	r.truth = newGroundTruth(p.topo, len(p.ids))
	return r
}

// reaches reports whether this is the first tick at or past t, so an
// event staged at t fires once whether or not the tick divides it.
func (ts *tickState) reaches(t time.Duration) bool { return ts.now >= t && ts.now-ts.step < t }

// takeOut takes ups out of service in r, a scheduled failure or a trip.
// Its trip state starts over: a UPS comes back into service fresh.
func (r *room) takeOut(ups power.UPSID) {
	r.out |= 1 << ups // SetOf(ups) without the variadic slice, on a trip's hot path
	r.truth.trip[ups] = power.TripState{}
	r.dirty = true
}

// fail takes ups out of service in r and puts the watch on it.
func (ts *tickState) fail(r *room, ups power.UPSID) {
	r.takeOut(ups)
	ts.watched, ts.failUPS, ts.failedAt = r, ups, ts.now
}

// recover puts it back.
func (ts *tickState) recover(r *room, ups power.UPSID) {
	r.out &^= power.SetOf(ups)
	r.dirty = true
}

// advance moves every rack of r one AR(1) step towards its category's
// share of target, the aggregate utilization this tick aims at: target
// folds in the emulator's set-up ramp, the ratios the steady state. Rack
// j's noise is z[j]. It writes only r, so rooms advance in parallel.
func (ts *tickState) advance(r *room, target float64, z []float64) {
	theta, sigma, dt := ts.theta, ts.sigma, ts.step.Seconds()
	target /= ts.plant.utilization
	catTarget := ts.plant.ratio
	for c := range catTarget {
		catTarget[c] = min(target*catTarget[c], 1)
	}
	cat := ts.plant.cat
	z = z[:len(r.demand)]
	for j, d := range r.demand {
		d += theta*(catTarget[cat[j]]-d)*dt + sigma*z[j]*dt
		r.demand[j] = min(max(d, 0.1), 1)
	}
	r.dirty = true
}

// polls reports which telemetry polls fall on this tick.
func (ts *tickState) polls() (ups, racks bool) {
	return ts.i%ts.upsEvery == 0, ts.i%ts.rackEvery == 0
}

// enforced notes that r's control plane enforced n actions this tick; the
// first in the watched room after its UPS failed is the detection.
func (ts *tickState) enforced(r *room, n int) {
	if n > 0 && r == ts.watched && ts.firstEnforce < 0 {
		ts.firstEnforce = ts.now - ts.failedAt
	}
}

// settle folds r's observed tick into the run: an outage if a loaded pair
// has lost both of its UPSes, and the shed point — the first tick after
// the failure on which every surviving UPS of the watched room is back
// under its rating. The loops call it in room order after r.observe.
func (ts *tickState) settle(r *room) {
	if r.truth.dark {
		ts.outage = true
	}
	if r == ts.watched && r.under && ts.shedAt < 0 && r.out.Has(ts.failUPS) && ts.now > ts.failedAt {
		ts.shedAt = ts.now - ts.failedAt
	}
}

func (ts *tickState) next() {
	ts.clk.Advance(ts.step)
	ts.i++
	ts.now = time.Duration(ts.i) * ts.step
}
