// Scenario scoring: when more than one UPS combination can take an
// arriving deployment, the admitter picks between them with the online
// sampling optimization trick — greedy completions of a few sampled
// future-arrival suffixes (drawn from a pre-generated workload stream),
// plus a deviation penalty against the per-combo target profile published
// by the warm background solver. A contested decision on the paper room
// replays some 300 arrivals through some 400 ledger checks; the completion
// is written so that none of them is asked twice. All scoring runs on
// preallocated scratch buffers refreshed with copy(), keeping the admission
// path on the allocfree-analyzer-proven hot path.
package online

import (
	"fmt"
	"math"
	"math/rand"

	"flex/internal/placement"
	"flex/internal/power"
	"flex/internal/workload"
)

// scenarioDep is a pre-reduced future arrival: exactly the three numbers
// the simulated greedy completion needs.
type scenarioDep struct {
	racks  int
	pow    power.Watts
	capPow power.Watts
}

// scenarioStride decorrelates the sampled suffixes: scenario s starts at
// cursor + s*scenarioStride into the circular stream. Coprime with the
// default stream lengths.
const scenarioStride = 17

// devWeight trades scenario-placed watts against deviation from the
// solver's target profile. Both terms are in watts; the deviation term is
// deliberately the weaker signal so sampled evidence dominates when it is
// decisive and the target breaks ties.
const devWeight = 0.25

// initScenarios materializes the sampled future-arrival stream from
// cfg.ScenarioTrace or the default §V-A generator sized to the room.
func (a *Admitter) initScenarios() error {
	trace := a.cfg.ScenarioTrace
	if trace == nil {
		rng := rand.New(rand.NewSource(a.cfg.Seed))
		var err error
		trace, err = workload.GenerateTrace(
			workload.DefaultTraceConfig(a.room.Topo.ProvisionedPower()), rng)
		if err != nil {
			return fmt.Errorf("online: generating scenario stream: %w", err)
		}
	}
	if len(trace) == 0 {
		return fmt.Errorf("online: empty scenario stream")
	}
	a.streamDeps = append([]workload.Deployment(nil), trace...)
	a.stream = make([]scenarioDep, len(trace))
	for i, d := range trace {
		// The completions' refusal memo rests on every replayed arrival
		// adding non-negative power; Admit holds the deployment in flight
		// to the same check.
		if err := d.Validate(); err != nil {
			return fmt.Errorf("online: scenario stream entry %d: %w", i, err)
		}
		a.stream[i] = scenarioDep{
			racks:  d.Racks,
			pow:    d.TotalPower(),
			capPow: a.room.CapPow(d),
		}
	}
	return nil
}

// scoreCandidatesLocked picks the best combo among those with
// candPair >= 0 for a deployment of (pow, capPow, racks). Caller
// guarantees at least one candidate.
func (a *Admitter) scoreCandidatesLocked(pow, capPow power.Watts, racks int) int {
	best, bestScore := -1, 0.0
	g := a.guidance.Load()
	for c := 0; c < a.nCombos; c++ {
		if a.candPair[c] < 0 {
			continue
		}
		score := a.scoreComboLocked(c, pow, capPow, racks, g.target)
		if best < 0 || score > bestScore {
			best, bestScore = c, score
		}
	}
	return best
}

// scoreComboLocked scores committing the in-flight deployment to combo c:
// the average power greedily placeable from sampled future suffixes,
// minus devWeight times the resulting distance from the target profile.
func (a *Admitter) scoreComboLocked(c int, pow, capPow power.Watts, racks int, target []float64) float64 {
	dev := 0.0
	for k := 0; k < a.nCombos; k++ {
		load := a.comboPow[k]
		if k == c {
			load += float64(pow)
		}
		d := load - target[k]
		if d < 0 {
			d = -d
		}
		dev += d
	}
	if a.cfg.Scenarios <= 0 {
		return -dev
	}
	total := 0.0
	for s := 0; s < a.cfg.Scenarios; s++ {
		total += a.simulateSuffixLocked(c, pow, capPow, racks, a.scCursor+s*scenarioStride)
	}
	return total/float64(a.cfg.Scenarios) - devWeight*dev
}

// simulateSuffixLocked replays one sampled future suffix on the scratch
// state after committing the in-flight deployment to combo c, greedily
// placing each arrival on its least-loaded feasible combo (lowest index on
// ties), and returns the placed power. Combo-granular on purpose:
// pair-level best-fit inside a combo rarely changes which combo wins.
//
// Each piece of work is done once. The pick is the first feasible combo in
// (load, index) order, so the combos are kept in that order and the scan
// stops at the first that fits; a placement changes one combo's load, so
// one insertion repairs the order. And the scratch ledger only grows within
// a completion, while Eq. 2 reads only pow and Eq. 4 only capPow: a combo
// that refused p on Eq. 2 (c on Eq. 4) refuses every later arrival with
// pow >= p (capPow >= c), so the smallest refused value per combo and
// equation answers those arrivals without a ledger check.
func (a *Admitter) simulateSuffixLocked(c int, pow, capPow power.Watts, racks, offset int) float64 {
	a.runSafety.CopyFrom(a.occ.Ledger())
	copy(a.runSlots, a.comboSlots)
	copy(a.runPow, a.comboPow)
	simPow, simCapPow := a.occ.Placed()
	a.runSafety.Add(a.combos[c].UPSes[0], a.combos[c].UPSes[1], pow, capPow)
	a.runSlots[c] -= racks
	a.runPow[c] += float64(pow)
	simPow += pow
	simCapPow += capPow
	order, nothingYet := a.runOrder, power.Watts(math.Inf(1))
	for j := range order {
		a.refusedPow[j], a.refusedCap[j] = nothingYet, nothingYet
		at := j
		for ; at > 0 && loadBefore(a.runPow, j, order[at-1]); at-- {
			order[at] = order[at-1]
		}
		order[at] = j
	}
	placed := 0.0
	next := offset % len(a.stream)
	for k := 0; k < a.cfg.ScenarioDepth; k++ {
		dep := a.stream[next]
		if next++; next == len(a.stream) {
			next = 0
		}
		if a.occ.RoomLimit(simPow+dep.pow, simCapPow+dep.capPow) != placement.Fits {
			continue
		}
		pick, at := -1, 0
	scan:
		for i, j := range order {
			if a.runSlots[j] < dep.racks || dep.pow >= a.refusedPow[j] || dep.capPow >= a.refusedCap[j] {
				continue
			}
			switch a.runSafety.Check(a.combos[j].UPSes[0], a.combos[j].UPSes[1], dep.pow, dep.capPow) {
			case power.OverNormalLimit:
				a.refusedPow[j] = dep.pow
			case power.OverFailoverCapacity:
				a.refusedCap[j] = dep.capPow
			default:
				pick, at = j, i
				break scan
			}
		}
		if pick < 0 {
			continue
		}
		a.runSafety.Add(a.combos[pick].UPSes[0], a.combos[pick].UPSes[1], dep.pow, dep.capPow)
		a.runSlots[pick] -= dep.racks
		a.runPow[pick] += float64(dep.pow)
		for ; at+1 < len(order) && loadBefore(a.runPow, order[at+1], pick); at++ {
			order[at] = order[at+1]
		}
		order[at] = pick
		simPow += dep.pow
		simCapPow += dep.capPow
		placed += float64(dep.pow)
	}
	return placed
}

// loadBefore reports whether combo x comes before combo y in (load, index)
// order: the lighter one first, the lower index on equal loads — said
// without a float equality.
func loadBefore(load []float64, x, y int) bool {
	return load[x] < load[y] || (!(load[y] < load[x]) && x < y)
}
