package online

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"flex/internal/placement"
	"flex/internal/power"
	"flex/internal/workload"
)

// arrivals generates n arrivals with the §V-A statistics for a room of the
// given provisioned power: one long trace (the generator stops on demand,
// so ask for more than n of the largest deployment) cut to length.
func arrivals(t testing.TB, provisioned power.Watts, n int, seed int64) []workload.Deployment {
	t.Helper()
	cfg := workload.DefaultTraceConfig(provisioned)
	cfg.TargetDemand = power.Watts(n) * 20 * 17.2 * power.KW
	trace, err := workload.GenerateTrace(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	return trace[:n]
}

// sawtooth drives adm through the admit-until-reject / remove-a-random-half
// cycle flexbench's admission-churn runs, and returns a hash of the
// (pair, accepted) sequence and of the final Snapshot.
func sawtooth(adm *Admitter, stream []workload.Deployment, seed int64) string {
	h := fnv.New64a()
	rng := rand.New(rand.NewSource(seed))
	var live []workload.Deployment
	for _, d := range stream {
		pid, ok := adm.Admit(d)
		fmt.Fprintf(h, "%d %v\n", pid, ok)
		if ok {
			live = append(live, d)
			continue
		}
		rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
		half := len(live) / 2
		for _, gone := range live[:half] {
			adm.Remove(gone.ID)
		}
		live = append(live[:0], live[half:]...)
	}
	s := adm.Snapshot()
	fmt.Fprintf(h, "committed=%d placed=%x decisions=%d", s.Committed, math.Float64bits(float64(s.PlacedPower)), s.Decisions)
	for _, w := range s.ComboLoad {
		fmt.Fprintf(h, " %x", math.Float64bits(float64(w)))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenShapes are the three admitter configurations TestAdmitDecisionsGolden
// pins: the defaults flexbench runs, the deviation term alone, and a room
// whose cooling budget and pair rating bind, scored against a scenario
// stream shorter than ScenarioDepth so that every completion wraps.
func goldenShapes(t testing.TB, seed int64) map[string]func() (*Admitter, error) {
	return map[string]func() (*Admitter, error){
		"defaults": func() (*Admitter, error) {
			return NewAdmitter(placement.PaperRoom(), Config{Seed: seed, ResolveEvery: -1})
		},
		"no-scenarios": func() (*Admitter, error) {
			return NewAdmitter(placement.PaperRoom(), Config{Seed: seed, ResolveEvery: -1, Scenarios: -1})
		},
		"cooling-rating-wrap": func() (*Admitter, error) {
			room := placement.PaperRoom()
			room.CFMPerWatt = 0.1
			room.CoolingCFM = 0.1 * 9.3e6
			room.PairCapacity = 640 * power.KW
			short := arrivals(t, room.Topo.ProvisionedPower(), 12, seed+100)
			return NewAdmitter(room, Config{Seed: seed, ResolveEvery: -1, ScenarioTrace: short})
		},
	}
}

// TestAdmitDecisionsGolden pins every decision of a 20 000-arrival sawtooth
// on the paper room, two seeds by three shapes, captured before the scenario
// scorer was reworked (ISSUE 21; amd64 constants): a change that only makes
// a decision cheaper leaves it green, unedited.
func TestAdmitDecisionsGolden(t *testing.T) {
	want := map[string]string{
		"defaults/1":            "89357346f40461be",
		"defaults/7":            "c716dae99237c188",
		"no-scenarios/1":        "49a8c9de3e22d6b1",
		"no-scenarios/7":        "cc379003325e273c",
		"cooling-rating-wrap/1": "1a7410d2836c2bc0",
		"cooling-rating-wrap/7": "53fe8eec399949db",
	}
	for _, seed := range []int64{1, 7} {
		stream := arrivals(t, placement.PaperRoom().Topo.ProvisionedPower(), 20000, seed)
		for name, build := range goldenShapes(t, seed) {
			adm, err := build()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			key := fmt.Sprintf("%s/%d", name, seed)
			if got := sawtooth(adm, stream, seed); got != want[key] {
				t.Errorf("%s: decision hash %s, want %s", key, got, want[key])
			}
		}
	}
}
