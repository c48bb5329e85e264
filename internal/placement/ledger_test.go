package placement_test

import (
	"math"
	"math/rand"
	"testing"

	"flex/internal/placement"
	"flex/internal/placement/online"
	"flex/internal/power"
	"flex/internal/workload"
)

// FuzzStateMatchesAdmitter drives the batch policies' state and the online
// admitter with one admit/remove sawtooth on the paper room — the admitter
// decides, the state follows — and requires that the two never diverge:
// every pair the admitter accepts the state accepts too, their ledgers are
// bit-identical after every step, and at every occupancy peak both equal
// the from-scratch load flow of the placement and pass Validate.
func FuzzStateMatchesAdmitter(f *testing.F) {
	f.Add(int64(1), uint8(40))
	f.Add(int64(29), uint8(70))
	f.Add(int64(7), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, churn uint8) {
		room := placement.PaperRoom()
		topo := room.Topo
		rng := rand.New(rand.NewSource(seed))
		trace, err := workload.GenerateTrace(workload.DefaultTraceConfig(topo.ProvisionedPower()), rng)
		if err != nil {
			t.Fatal(err)
		}
		adm, err := online.NewAdmitter(room, online.Config{Seed: seed, ResolveEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		st := placement.NewTestState(room)

		sameLedgers := func(step string) {
			t.Helper()
			a, s := adm.Ledger(), st.Ledger()
			for f := range topo.UPSes {
				ff := power.UPSID(f)
				if a.Normal(ff) != s.Normal(ff) {
					t.Fatalf("%s: normal load of UPS %d: admitter %v, state %v", step, f, a.Normal(ff), s.Normal(ff))
				}
				for u := range topo.UPSes {
					uu := power.UPSID(u)
					if a.Failover(ff, uu) != s.Failover(ff, uu) {
						t.Fatalf("%s: failover load [%d][%d]: admitter %v, state %v", step, f, u, a.Failover(ff, uu), s.Failover(ff, uu))
					}
				}
			}
		}

		var seen []workload.Deployment
		live := map[int]workload.Deployment{}
		for cycle := 0; cycle < 3; cycle++ {
			for _, d := range trace {
				d.ID += cycle * len(trace)
				seen = append(seen, d)
				pid, ok := adm.Admit(d)
				if !ok {
					continue
				}
				if !st.CanPlace(d, pid) {
					t.Fatalf("admitter placed deployment %d on pair %d; the state refuses it", d.ID, pid)
				}
				st.Place(d, pid)
				live[d.ID] = d
				sameLedgers("admit")
			}

			// Occupancy peak: both agree with the from-scratch reference.
			pl := st.Placement(seen)
			assigned := adm.Assignments()
			if len(assigned) != len(pl.Assignments) {
				t.Fatalf("admitter holds %d deployments, state %d", len(assigned), len(pl.Assignments))
			}
			for id, pid := range assigned {
				if pl.Assignments[id] != pid {
					t.Fatalf("deployment %d: admitter on pair %d, state on pair %d", id, pid, pl.Assignments[id])
				}
			}
			if err := pl.Validate(); err != nil {
				t.Fatalf("peak %d: %v", cycle, err)
			}
			eps := 1e-6 * float64(topo.ProvisionedPower())
			ledger := st.Ledger()
			normal := topo.UPSLoads(pl.PairLoad())
			shaved := pl.CapPairLoad()
			for f := range topo.UPSes {
				ff := power.UPSID(f)
				if math.Abs(float64(ledger.Normal(ff)-normal[f])) > eps {
					t.Fatalf("peak %d: normal load of UPS %d = %v, recomputed %v", cycle, f, ledger.Normal(ff), normal[f])
				}
				loads := topo.FailoverLoads(shaved, ff)
				for u := range topo.UPSes {
					if math.Abs(float64(ledger.Failover(ff, power.UPSID(u))-loads[u])) > eps {
						t.Fatalf("peak %d: failover load [%d][%d] = %v, recomputed %v", cycle, f, u, ledger.Failover(ff, power.UPSID(u)), loads[u])
					}
				}
			}

			// Drain churn/255 of the room, in ID order for determinism.
			for _, d := range seen {
				if _, ok := live[d.ID]; !ok || rng.Intn(255) >= int(churn) {
					continue
				}
				pid := assigned[d.ID]
				if !adm.Remove(d.ID) {
					t.Fatalf("admitter lost deployment %d", d.ID)
				}
				st.Remove(d, pid)
				delete(live, d.ID)
				sameLedgers("remove")
			}
		}
	})
}
