package main

import (
	"slices"
	"time"
)

// The four workloads. Names are fixed: every later perf or simplicity PR
// is judged with them. The why strings are the ones BENCHMARK.json carries
// (bench_test.go checks they agree).
type workloadSpec struct {
	Name string
	Why  string
	// Op names the unit op_us is divided by on this workload.
	Op string
}

const (
	wlFleet = "fleet-failover"
	wlRoom  = "room-episode"
	wlSweep = "placement-sweep"
	wlChurn = "admission-churn"
)

var workloadSpecs = []workloadSpec{
	{wlFleet, "emu.RunFleet, many rooms on one clock, one UPS fails: fleet ingest/pump/step, telemetry views, idle controller steps and rackmgr reads do the work; obs/tsdb/slo and the solver are absent", "room-tick"},
	{wlRoom, "emu.Run, the 24-minute failover-and-recovery arc, fully instrumented: same controller/rackmgr layers used multi-primary through consensus meters, and obs/recorder/tsdb/slo do two thirds of the work", "room-tick"},
	{wlSweep, "Figure 9 policies on the paper room: milp, lp and placement row building do all the work, with small warm-started batches (Short, Online re-solve) beside one large cold ILP (Oracle)", "placement"},
	{wlChurn, "one online.Admitter in an admit/remove sawtooth over 50-100% occupancy: the same Eq. 2/Eq. 4 safety state as placement-sweep written incrementally, with milp doing nothing", "decision"},
}

// Clock labels: every number is either host time (what the Go process
// costs), virtual time (what the modelled datacenter would take), a
// placement-quality figure, or a plain count. Host numbers carry a noise
// bound; the others are seed-deterministic and compare exactly.
const (
	clockHost    = "host"
	clockVirtual = "virtual"
	clockQuality = "quality"
	clockCount   = "count"
)

// metricSpec is one row of the end-to-end table.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Clock  string
	// Bound is the relative regression bound -repeat applies; 0 means the
	// metric must compare exactly.
	Bound float64
	// Workloads lists where the row applies (nil = all four). A workload
	// reports only its rows: n/a is omitted, never 0.
	Workloads []string
	// Driver marks the rows BENCHMARK.json's end_to_end carries: the ones
	// every workload emits, never 0 and steady across seeds, as the
	// builder contract requires. The rest are reported and gated by
	// -repeat only.
	Driver bool
}

// Host-time bounds are 25%, not the 10% first proposed. The shared 2-core
// box has quiet and noisy quarter hours: the same binary on the same
// inputs moved its ten-run median of room_tick_us by 16% between one and
// the other, and the spread inside a noisy one reached 11%. A tighter
// bound would reject changes for the neighbours' load. Allocation does
// not feel that noise; its bound only has to cover what the inputs of
// different seeds allocate (3% on placement-sweep).
const (
	hostBound  = 0.25
	allocBound = 0.10
)

var control = []string{wlFleet, wlRoom}

var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Clock: clockHost, Bound: hostBound, Driver: true},
	{Name: "op_us", Unit: "us", Better: "lower", Clock: clockHost, Bound: hostBound, Driver: true},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Clock: clockHost, Bound: allocBound, Driver: true},
	{Name: "room_tick_us", Unit: "us", Better: "lower", Clock: clockHost, Bound: hostBound, Workloads: control},
	{Name: "shed_virtual_s", Unit: "s", Better: "lower", Clock: clockVirtual, Workloads: control},
	{Name: "detect_virtual_s", Unit: "s", Better: "lower", Clock: clockVirtual, Workloads: control},
	{Name: "sweep_s", Unit: "s", Better: "lower", Clock: clockHost, Bound: hostBound, Workloads: []string{wlSweep}},
	{Name: "stranded_pct", Unit: "%", Better: "lower", Clock: clockQuality, Workloads: []string{wlSweep}},
	{Name: "online_gap_pp", Unit: "pp", Better: "lower", Clock: clockQuality, Workloads: []string{wlSweep}},
	{Name: "admissions_per_s", Unit: "1/s", Better: "higher", Clock: clockHost, Bound: hostBound, Workloads: []string{wlChurn}},
	{Name: "admit_p50_us", Unit: "us", Better: "lower", Clock: clockHost, Bound: hostBound, Workloads: []string{wlChurn}},
	{Name: "admit_p99_us", Unit: "us", Better: "lower", Clock: clockHost, Bound: hostBound, Workloads: []string{wlChurn}},
	{Name: "admit_ratio", Unit: "ratio", Better: "higher", Clock: clockQuality, Workloads: []string{wlChurn}},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Clock: clockCount},
}

func (m metricSpec) appliesTo(workload string) bool {
	return m.Workloads == nil || slices.Contains(m.Workloads, workload)
}

// scale sizes the workloads. std is what the driver runs: repetitions of
// one or two seconds so that ten seconds hold several and the median is
// steady. full is the sizing the issue measured (500 rooms, 10 shuffles of
// the whole §V-A trace, 400k decisions) for a by-hand deep run. tiny keeps
// go test under a few seconds.
type scale struct {
	Name string

	FleetRooms    int
	FleetDuration time.Duration
	FleetFailAt   time.Duration

	// The room episode: Tick 0 selects the emulator's 500ms default.
	EpisodeTick      time.Duration
	EpisodeFailAt    time.Duration
	EpisodeRecoverAt time.Duration
	EpisodeDuration  time.Duration
	EpisodesPerRep   int

	// SweepDeployments truncates each generated §V-A trace (0 keeps it
	// whole). Forty deployments pin the Oracle ILP at 240 binaries for
	// every seed, so its solve is node-limit-bound rather than finishing
	// early on the seeds whose demand happens to tile the room.
	SweepDeployments int
	SweepShuffles    int
	// SweepNodes are the node limits of Short, Long and Oracle. std stops
	// Oracle at 1000 nodes, not the paper-scale 2000: sixteen sweeps then
	// fit a run instead of nine, and every sweep places its own trace, so
	// the median allocation moves half as much from seed to seed.
	SweepNodes [3]int

	ChurnDecisions int

	// Reps is the measured repetition count per ten seconds of -seconds,
	// by workload; FixedReps ignores -seconds.
	Reps      map[string]int
	FixedReps bool

	// LadderScale divides the ladder's iteration counts.
	LadderScale int
	LadderRooms int
}

var scales = map[string]scale{
	"std": {
		Name:       "std",
		FleetRooms: 100, FleetDuration: 120 * time.Second, FleetFailAt: 20 * time.Second,
		EpisodeFailAt: 12 * time.Minute, EpisodeRecoverAt: 18 * time.Minute, EpisodeDuration: 24 * time.Minute,
		EpisodesPerRep:   1,
		SweepDeployments: 40, SweepShuffles: 1, SweepNodes: [3]int{400, 800, 1000},
		ChurnDecisions: 100_000,
		Reps:           map[string]int{wlFleet: 6, wlRoom: 8, wlSweep: 16, wlChurn: 5},
		LadderScale:    1, LadderRooms: 20,
	},
	"full": {
		Name:       "full",
		FleetRooms: 500, FleetDuration: 120 * time.Second, FleetFailAt: 20 * time.Second,
		EpisodeFailAt: 12 * time.Minute, EpisodeRecoverAt: 18 * time.Minute, EpisodeDuration: 24 * time.Minute,
		EpisodesPerRep:   10,
		SweepDeployments: 0, SweepShuffles: 10, SweepNodes: [3]int{400, 800, 2000},
		ChurnDecisions: 400_000,
		Reps:           map[string]int{wlFleet: 3, wlRoom: 3, wlSweep: 3, wlChurn: 3},
		FixedReps:      true,
		LadderScale:    1, LadderRooms: 20,
	},
	"tiny": {
		Name:       "tiny",
		FleetRooms: 3, FleetDuration: 30 * time.Second, FleetFailAt: 10 * time.Second,
		EpisodeTick: 2 * time.Second, EpisodeFailAt: 3 * time.Minute, EpisodeRecoverAt: 4 * time.Minute, EpisodeDuration: 5 * time.Minute,
		EpisodesPerRep:   1,
		SweepDeployments: 12, SweepShuffles: 1, SweepNodes: [3]int{20, 30, 40},
		ChurnDecisions: 2_000,
		Reps:           map[string]int{wlFleet: 1, wlRoom: 1, wlSweep: 1, wlChurn: 1},
		FixedReps:      true,
		LadderScale:    200, LadderRooms: 2,
	},
}

// reps returns the measured repetition count for a run of the given
// length. The count is fixed by the flags, not by how fast the box is, so
// that the fingerprint and every exact metric of a (seed, seconds) pair
// reproduce bit for bit.
func (s scale) reps(workload string, seconds int) int {
	n := s.Reps[workload]
	if s.FixedReps {
		return n
	}
	n = (n*seconds + 5) / 10
	if n < 2 {
		n = 2
	}
	return n
}
